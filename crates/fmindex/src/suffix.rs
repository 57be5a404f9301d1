//! Suffix array construction with the SA-IS algorithm.
//!
//! SA-IS (Nong, Zhang & Chan, 2009) builds the suffix array of an integer
//! string in linear time by induced sorting of LMS substrings. The paper's
//! implementation uses Yuta Mori's `sais-lite`; this is an independent
//! from-scratch implementation of the same algorithm.
//!
//! Suffix order convention: a suffix that is a proper prefix of another
//! sorts first ("shorter is smaller"), which is the order obtained by
//! appending a unique minimal sentinel. This matches the paper's Figure 3.

/// Builds the suffix array of `text`.
///
/// Works for any `u32` content (including repeated minimal symbols, as in a
/// trajectory string with many `$` terminators): internally the text is
/// shifted by one and a unique `0` sentinel is appended, so the usual SA-IS
/// precondition holds.
///
/// Returns `sa` with `sa[j] = i` iff the suffix `text[i..]` has rank `j`.
pub(crate) fn suffix_array(text: &[u32]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    let max_sym = *text.iter().max().expect("non-empty") as usize;
    let mut shifted: Vec<usize> = Vec::with_capacity(n + 1);
    shifted.extend(text.iter().map(|&c| c as usize + 1));
    shifted.push(0);
    let sa = sais(&shifted, max_sym + 2);
    // Drop the sentinel suffix (always rank 0 at position n).
    debug_assert_eq!(sa[0], n);
    sa.into_iter().skip(1).map(|p| p as u32).collect()
}

/// Builds the inverse suffix array: `isa[i] = j` iff `sa[j] = i`.
pub(crate) fn inverse_suffix_array(sa: &[u32]) -> Vec<u32> {
    let mut isa = vec![0u32; sa.len()];
    for (j, &i) in sa.iter().enumerate() {
        isa[i as usize] = j as u32;
    }
    isa
}

/// Core SA-IS over `text` which must end with a unique, minimal `0` sentinel.
/// `k` is the alphabet size (symbols are in `0..k`).
fn sais(text: &[usize], k: usize) -> Vec<usize> {
    let n = text.len();
    debug_assert!(n > 0 && text[n - 1] == 0);
    if n == 1 {
        return vec![0];
    }
    if n == 2 {
        return vec![1, 0];
    }

    // --- Type classification: S-type (true) / L-type (false). ---------------
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
    }
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    // --- Bucket boundaries. --------------------------------------------------
    let mut bucket_sizes = vec![0usize; k];
    for &c in text {
        bucket_sizes[c] += 1;
    }
    let bucket_heads = |sizes: &[usize]| {
        let mut heads = vec![0usize; k];
        let mut sum = 0;
        for c in 0..k {
            heads[c] = sum;
            sum += sizes[c];
        }
        heads
    };
    let bucket_tails = |sizes: &[usize]| {
        let mut tails = vec![0usize; k];
        let mut sum = 0;
        for c in 0..k {
            sum += sizes[c];
            tails[c] = sum;
        }
        tails
    };

    const EMPTY: usize = usize::MAX;

    // Induced sort: given LMS positions in `lms` (in some order), produce the
    // suffix array skeleton.
    let induce = |lms: &[usize]| -> Vec<usize> {
        let mut sa = vec![EMPTY; n];
        // Step 1: place LMS suffixes at their bucket tails (reverse order so
        // the given LMS order is preserved within each bucket).
        let mut tails = bucket_tails(&bucket_sizes);
        for &p in lms.iter().rev() {
            let c = text[p];
            tails[c] -= 1;
            sa[tails[c]] = p;
        }
        // Step 2: induce L-type suffixes left-to-right from bucket heads.
        let mut heads = bucket_heads(&bucket_sizes);
        for i in 0..n {
            let p = sa[i];
            if p != EMPTY && p > 0 && !is_s[p - 1] {
                let c = text[p - 1];
                sa[heads[c]] = p - 1;
                heads[c] += 1;
            }
        }
        // Step 3: induce S-type suffixes right-to-left from bucket tails.
        let mut tails = bucket_tails(&bucket_sizes);
        for i in (0..n).rev() {
            let p = sa[i];
            if p != EMPTY && p > 0 && is_s[p - 1] {
                let c = text[p - 1];
                tails[c] -= 1;
                sa[tails[c]] = p - 1;
            }
        }
        sa
    };

    // --- First induction: approximate order of LMS suffixes. ----------------
    let lms_positions: Vec<usize> = (0..n).filter(|&i| is_lms(i)).collect();
    let sa0 = induce(&lms_positions);

    // Extract LMS positions in their induced order.
    let sorted_lms: Vec<usize> = sa0.into_iter().filter(|&p| is_lms(p)).collect();

    // --- Name LMS substrings. ------------------------------------------------
    // Two LMS substrings (from one LMS position to the next, inclusive) get
    // the same name iff they are identical.
    let mut name_of = vec![EMPTY; n];
    let mut names = 0usize;
    let mut prev = EMPTY;
    let lms_substring_end = {
        // next_lms[i] = the next LMS position after i (or n-1 sentinel).
        let mut next = vec![n - 1; n];
        let mut last = n - 1;
        for i in (0..n - 1).rev() {
            next[i] = last;
            if is_lms(i) {
                last = i;
            }
        }
        next
    };
    for &p in &sorted_lms {
        if prev == EMPTY {
            name_of[p] = 0;
            names = 1;
        } else {
            let (a0, a1) = (prev, lms_substring_end[prev]);
            let (b0, b1) = (p, lms_substring_end[p]);
            let equal = a1 - a0 == b1 - b0
                && text[a0..=a1] == text[b0..=b1]
                && (a0..=a1).zip(b0..=b1).all(|(x, y)| is_s[x] == is_s[y]);
            if !equal {
                names += 1;
            }
            name_of[p] = names - 1;
        }
        prev = p;
    }

    // --- Recurse if names are not unique. ------------------------------------
    let lms_order: Vec<usize> = if names == sorted_lms.len() {
        sorted_lms
    } else {
        // Reduced string: names of LMS substrings in text order. The final
        // LMS position is the sentinel (name 0, unique by construction).
        let reduced: Vec<usize> = lms_positions.iter().map(|&p| name_of[p]).collect();
        let reduced_sa = sais(&reduced, names);
        reduced_sa.into_iter().map(|r| lms_positions[r]).collect()
    };

    // --- Final induction with exactly sorted LMS suffixes. -------------------
    induce(&lms_order)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: naive comparison sort of all suffixes,
    /// the oracle SA-IS is checked against.
    fn naive_suffix_array(text: &[u32]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    /// The paper's Figure 3 text: `ABE$ACDE$ABF$ABE$` with `$ = 0`,
    /// `A = 1, B = 2, C = 3, D = 4, E = 5, F = 6`.
    pub(crate) fn figure3_text() -> Vec<u32> {
        const A: u32 = 1;
        const B: u32 = 2;
        const C: u32 = 3;
        const D: u32 = 4;
        const E: u32 = 5;
        const F: u32 = 6;
        const S: u32 = 0; // $
        vec![A, B, E, S, A, C, D, E, S, A, B, F, S, A, B, E, S]
    }

    #[test]
    fn figure3_suffix_array() {
        let sa = suffix_array(&figure3_text());
        assert_eq!(
            sa,
            vec![16, 12, 8, 3, 13, 0, 9, 4, 14, 1, 10, 5, 6, 15, 7, 2, 11]
        );
    }

    #[test]
    fn figure3_inverse_suffix_array() {
        let sa = suffix_array(&figure3_text());
        let isa = inverse_suffix_array(&sa);
        for (j, &i) in sa.iter().enumerate() {
            assert_eq!(isa[i as usize], j as u32);
        }
        // Spot values: suffix at position 0 ("ABE$AC…") has rank 5.
        assert_eq!(isa[0], 5);
        // The last `$` (position 16) is the smallest suffix.
        assert_eq!(isa[16], 0);
    }

    #[test]
    fn empty_and_tiny_texts() {
        assert!(suffix_array(&[]).is_empty());
        assert_eq!(suffix_array(&[7]), vec![0]);
        assert_eq!(suffix_array(&[2, 1]), vec![1, 0]);
        assert_eq!(suffix_array(&[1, 2]), vec![0, 1]);
        assert_eq!(suffix_array(&[1, 1]), vec![1, 0], "shorter suffix first");
    }

    #[test]
    fn repeated_symbol_runs() {
        // aaaa: suffixes sorted shortest-first.
        assert_eq!(suffix_array(&[1, 1, 1, 1]), vec![3, 2, 1, 0]);
        // banana-like: 2,1,3,1,3,1
        let t = [2, 1, 3, 1, 3, 1];
        assert_eq!(suffix_array(&t), naive_suffix_array(&t));
    }

    #[test]
    fn matches_naive_on_fixed_cases() {
        let cases: Vec<Vec<u32>> = vec![
            vec![0, 0, 0],
            vec![5, 4, 3, 2, 1, 0],
            vec![0, 1, 0, 1, 0, 1],
            vec![3, 3, 1, 3, 3, 1, 3, 3],
            vec![1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 0],
            figure3_text(),
        ];
        for t in cases {
            assert_eq!(suffix_array(&t), naive_suffix_array(&t), "text = {t:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn sais_equals_naive_small_alphabet(t in proptest::collection::vec(0u32..4, 0..200)) {
            proptest::prop_assert_eq!(suffix_array(&t), naive_suffix_array(&t));
        }

        #[test]
        fn sais_equals_naive_large_alphabet(t in proptest::collection::vec(0u32..1000, 0..120)) {
            proptest::prop_assert_eq!(suffix_array(&t), naive_suffix_array(&t));
        }

        #[test]
        fn sais_equals_naive_trajectory_like(
            // Trajectory-string-like inputs: runs of small symbols separated
            // by 0 terminators, ending in 0.
            runs in proptest::collection::vec(proptest::collection::vec(1u32..8, 1..12), 1..12)
        ) {
            let mut t = Vec::new();
            for r in runs {
                t.extend(r);
                t.push(0);
            }
            proptest::prop_assert_eq!(suffix_array(&t), naive_suffix_array(&t));
        }
    }
}
