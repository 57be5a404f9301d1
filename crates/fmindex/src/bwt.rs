//! The Burrows–Wheeler transform and the `C` symbol-count array.

/// Computes the BWT from a text and its suffix array:
/// `Tbwt[i] = T[SA[i] − 1]`, with the cyclic convention `T[−1] = T[n−1]`
/// for the row where `SA[i] = 0` (paper, Section 4.1.1; trajectory strings
/// always end in `$`, so that row contributes a `$`).
pub(crate) fn bwt_from_sa(text: &[u32], sa: &[u32]) -> Vec<u32> {
    debug_assert_eq!(text.len(), sa.len());
    let n = text.len();
    sa.iter()
        .map(|&p| {
            if p == 0 {
                text[n - 1]
            } else {
                text[p as usize - 1]
            }
        })
        .collect()
}

/// Computes the cumulative symbol-count array `C` of length
/// `alphabet_size + 1`: `C[c]` is the number of symbols in `text` that are
/// lexicographically smaller than `c` (so `C[σ] = |T|`, and the initial
/// backward-search range for symbol `c` is `[C[c], C[c+1])`).
pub(crate) fn symbol_counts(text: &[u32], alphabet_size: u32) -> Vec<u64> {
    let sigma = alphabet_size as usize;
    let mut counts = vec![0u64; sigma + 1];
    for &s in text {
        debug_assert!((s as usize) < sigma, "symbol out of range");
        counts[s as usize + 1] += 1;
    }
    for c in 1..=sigma {
        counts[c] += counts[c - 1];
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffix::suffix_array;

    /// `ABE$ACDE$ABF$ABE$` with `$=0, A=1, …, F=6`.
    fn figure3_text() -> Vec<u32> {
        vec![1, 2, 5, 0, 1, 3, 4, 5, 0, 1, 2, 6, 0, 1, 2, 5, 0]
    }

    #[test]
    fn figure3_bwt() {
        let text = figure3_text();
        let sa = suffix_array(&text);
        let bwt = bwt_from_sa(&text, &sa);
        // EFEE$$$$AAAACBDBB
        assert_eq!(bwt, vec![5, 6, 5, 5, 0, 0, 0, 0, 1, 1, 1, 1, 3, 2, 4, 2, 2]);
    }

    #[test]
    fn figure3_symbol_counts() {
        let text = figure3_text();
        let c = symbol_counts(&text, 7);
        // 4×$, 4×A, 3×B, 1×C, 1×D, 3×E, 1×F.
        assert_eq!(c, vec![0, 4, 8, 11, 12, 13, 16, 17]);
        // C['B'] = 8: eight symbols lexicographically before B (paper text).
        assert_eq!(c[2], 8);
    }

    #[test]
    fn bwt_is_a_permutation_of_text() {
        let text = figure3_text();
        let sa = suffix_array(&text);
        let mut bwt = bwt_from_sa(&text, &sa);
        let mut sorted_text = text.clone();
        bwt.sort_unstable();
        sorted_text.sort_unstable();
        assert_eq!(bwt, sorted_text);
    }

    #[test]
    fn empty_text() {
        assert!(bwt_from_sa(&[], &[]).is_empty());
        assert_eq!(symbol_counts(&[], 3), vec![0, 0, 0, 0]);
    }
}
