//! The FM-index: `C` array + BWT in a wavelet structure, with the backward
//! search of the paper's Procedure 2 (`getISARange`).

use crate::bwt::{bwt_from_sa, symbol_counts};
use crate::suffix::{inverse_suffix_array, suffix_array};
use crate::SymbolRank;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// A half-open range `[start, end)` of inverse-suffix-array values: the ranks
/// of all suffixes of the trajectory string that begin with a queried path.
///
/// `R(P) = {i | S[SA[i]][0, |P|) = P}` (paper, Section 4.1.1). The *size* of
/// the range is the exact number of traversals of `P` in the indexed set —
/// the quantity the ISA-mode cardinality estimator uses directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsaRange {
    /// First rank in the range (`st`).
    pub start: u32,
    /// One past the last rank (`ed`).
    pub end: u32,
}

impl IsaRange {
    /// The empty range `[0, 0)`.
    pub const EMPTY: IsaRange = IsaRange { start: 0, end: 0 };

    /// Whether no suffix matches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Number of matching suffixes (= traversal count of the path).
    #[inline]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// Whether an ISA value falls inside the range — the spatial filter
    /// applied during temporal index scans (Procedure 3, line 3).
    #[inline]
    pub fn contains(&self, isa: u32) -> bool {
        self.start <= isa && isa < self.end
    }
}

/// Backward-search cost attribution: how much wavelet work a search (or a
/// sequence of searches) performed. Accumulated by
/// [`FmIndex::suffix_ranges_costed`]; the query layers above thread it
/// into their per-query traces.
///
/// Only **live** extensions count: a dead-cursor or out-of-alphabet step
/// is a constant-time no-op that touches no wavelet structure, matching
/// what `FmIndex::extend_left` actually executes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCost {
    /// Paired-boundary `rank2` operations executed (one per live
    /// backward-search step).
    pub rank_ops: u64,
    /// Wavelet nodes descended through, summed over those ranks (the
    /// Huffman code length, or the matrix level count, of each stepped
    /// symbol) — the finer-grained currency for comparing hot paths
    /// across wavelet shapes.
    pub wavelet_nodes: u64,
}

/// Strategy for constructing a wavelet structure from a symbol sequence;
/// lets [`FmIndex`] be generic over the balanced and Huffman-shaped variants.
pub trait WaveletBuild: SymbolRank + Sized {
    /// Builds the structure over `sequence` with symbols in
    /// `[0, alphabet_size)`.
    fn build(sequence: &[u32], alphabet_size: u32) -> Self;
}

impl WaveletBuild for crate::WaveletMatrix {
    fn build(sequence: &[u32], alphabet_size: u32) -> Self {
        crate::WaveletMatrix::new(sequence, alphabet_size)
    }
}

impl WaveletBuild for crate::HuffmanWaveletTree {
    fn build(sequence: &[u32], alphabet_size: u32) -> Self {
        crate::HuffmanWaveletTree::new(sequence, alphabet_size)
    }
}

/// The FM-index over a trajectory string.
///
/// Consists of the two data structures of the paper's Section 4.1.1: the
/// cumulative symbol-count array `C` and the Burrows–Wheeler transform
/// `Tbwt` stored in a wavelet structure for `O(log σ)` rank.
///
/// ```
/// use tthr_fmindex::{FmIndex, HuffmanWaveletTree};
///
/// // The paper's trajectory string ABE$ACDE$ABF$ABE$ ($=0, A=1, …, F=6).
/// let text = [1, 2, 5, 0, 1, 3, 4, 5, 0, 1, 2, 6, 0, 1, 2, 5, 0];
/// let (fm, isa) = FmIndex::<HuffmanWaveletTree>::build(&text, 7);
/// // R(⟨A,B⟩) = [4, 7): three trajectories traverse A then B.
/// let range = fm.isa_range(&[1, 2]);
/// assert_eq!((range.start, range.end), (4, 7));
/// // The ISA entries are what the temporal leaves store.
/// assert_eq!(isa.len(), text.len());
/// ```
#[derive(Clone, Debug)]
pub struct FmIndex<W: SymbolRank> {
    counts: Vec<u64>,
    bwt: W,
    alphabet_size: u32,
}

impl<W: WaveletBuild> FmIndex<W> {
    /// Builds the index over `text` (symbols in `[0, alphabet_size)`).
    ///
    /// Returns the index together with the inverse suffix array, whose
    /// entries the SNT-index stores in its temporal leaves; the suffix array
    /// itself is discarded after construction.
    pub fn build(text: &[u32], alphabet_size: u32) -> (Self, Vec<u32>) {
        let sa = suffix_array(text);
        let isa = inverse_suffix_array(&sa);
        let bwt_seq = bwt_from_sa(text, &sa);
        drop(sa);
        let bwt = W::build(&bwt_seq, alphabet_size);
        let counts = symbol_counts(text, alphabet_size);
        (
            FmIndex {
                counts,
                bwt,
                alphabet_size,
            },
            isa,
        )
    }
}

/// An incremental backward-search state over an [`FmIndex`]: the suffix
/// array range of the pattern matched so far, extendable one symbol to the
/// left at a time ([`FmIndex::extend_left`]).
///
/// The cursor is `Copy`, so callers checkpoint intermediate states by
/// value — after searching a path `P` right-to-left, the saved state at
/// step `k` *is* the answer for the sub-path `P[l−k..]`, which is how the
/// query layer's scratch cache makes the splitter's suffix re-searches
/// free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SearchCursor {
    st: u64,
    ed: u64,
    /// Symbols matched so far.
    len: u32,
}

impl SearchCursor {
    /// The matched pattern's ISA range — [`IsaRange::EMPTY`] both for a
    /// dead cursor and for the zero-length pattern (matching Procedure 2,
    /// which never returns a range for the empty pattern).
    #[inline]
    pub(crate) fn range(&self) -> IsaRange {
        if self.len == 0 || self.st >= self.ed {
            IsaRange::EMPTY
        } else {
            IsaRange {
                start: self.st as u32,
                end: self.ed as u32,
            }
        }
    }

    /// Whether no occurrence of the matched pattern remains (extending a
    /// dead cursor is a constant-time no-op).
    #[inline]
    pub(crate) fn is_dead(&self) -> bool {
        self.st >= self.ed
    }
}

impl<W: SymbolRank> FmIndex<W> {
    /// The alphabet size σ.
    #[inline]
    pub fn alphabet_size(&self) -> u32 {
        self.alphabet_size
    }

    /// A fresh cursor matching the empty pattern (every suffix matches).
    #[inline]
    pub(crate) fn cursor(&self) -> SearchCursor {
        SearchCursor {
            st: 0,
            ed: self.bwt.len() as u64,
            len: 0,
        }
    }

    /// One backward-search step (Procedure 2's loop body): narrows the
    /// cursor to the occurrences preceded by `c`, with both boundary ranks
    /// computed in a single paired wavelet descent
    /// ([`SymbolRank::rank2`]).
    #[inline]
    pub(crate) fn extend_left(&self, cur: SearchCursor, c: u32) -> SearchCursor {
        if cur.st >= cur.ed || c >= self.alphabet_size {
            return SearchCursor {
                st: 0,
                ed: 0,
                len: cur.len.saturating_add(1),
            };
        }
        let base = self.counts[c as usize];
        let (lo, hi) = self.bwt.rank2(c, cur.st as usize, cur.ed as usize);
        SearchCursor {
            st: base + lo as u64,
            ed: base + hi as u64,
            len: cur.len + 1,
        }
    }

    /// [`Self::extend_left`] with cost attribution: a live step charges one
    /// `rank2` and the stepped symbol's wavelet descent depth to `cost`;
    /// dead-cursor and out-of-alphabet steps charge nothing, exactly
    /// mirroring the work the uncosted path performs. The returned cursor
    /// is bit-identical to `extend_left`'s.
    #[inline]
    pub(crate) fn extend_left_costed(
        &self,
        cur: SearchCursor,
        c: u32,
        cost: &mut SearchCost,
    ) -> SearchCursor {
        if !(cur.st >= cur.ed || c >= self.alphabet_size) {
            cost.rank_ops += 1;
            cost.wavelet_nodes += u64::from(self.bwt.descent_depth(c));
        }
        self.extend_left(cur, c)
    }

    /// `getISARange` (paper, Procedure 2): backward search for the symbol
    /// pattern, in `O(|pattern| · log σ)` — independent of the text length.
    ///
    /// Patterns are matched as plain substrings; the SNT layer guarantees
    /// they never contain the `$` terminator, so matches never span two
    /// trajectories.
    pub fn isa_range(&self, pattern: &[u32]) -> IsaRange {
        let mut cur = self.cursor();
        for &c in pattern.iter().rev() {
            cur = self.extend_left(cur, c);
            if cur.is_dead() {
                return IsaRange::EMPTY;
            }
        }
        cur.range()
    }

    /// [`Self::suffix_ranges_costed`] without the cost: the tests' reference
    /// that cost attribution changes no output.
    #[cfg(test)]
    fn suffix_ranges(&self, pattern: &[u32], out: &mut Vec<IsaRange>) {
        let from = out.len();
        out.resize(from + pattern.len(), IsaRange::EMPTY);
        let mut cur = self.cursor();
        for (k, &c) in pattern.iter().enumerate().rev() {
            cur = self.extend_left(cur, c);
            out[from + k] = cur.range();
        }
    }

    /// The ISA range of **every suffix** of the pattern in one backward
    /// search: `out[k] = isa_range(&pattern[k..])`, appended to `out` in
    /// index order, with each live backward-search step charged to `cost`.
    /// One search costs the same as `isa_range(pattern)` (dead-state
    /// extensions are constant-time), and the recorded states are what the
    /// query layer's suffix cache serves sub-path searches from.
    pub fn suffix_ranges_costed(
        &self,
        pattern: &[u32],
        out: &mut Vec<IsaRange>,
        cost: &mut SearchCost,
    ) {
        let from = out.len();
        out.resize(from + pattern.len(), IsaRange::EMPTY);
        let mut cur = self.cursor();
        for (k, &c) in pattern.iter().enumerate().rev() {
            cur = self.extend_left_costed(cur, c, cost);
            out[from + k] = cur.range();
        }
    }

    /// Number of occurrences of the pattern in the text.
    pub fn count(&self, pattern: &[u32]) -> usize {
        self.isa_range(pattern).len()
    }

    /// Approximate heap size of the wavelet-structure component, in bytes
    /// (`WT` in Figure 10a).
    pub fn wavelet_size_bytes(&self) -> usize {
        self.bwt.size_bytes()
    }

    /// Approximate heap size of the `C` array, in bytes (`C` in Figure 10a).
    pub fn counts_size_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }
}

/// Wire form: alphabet size (`u32`), the `C` array, then the wavelet
/// structure holding the BWT.
impl<W: SymbolRank + Persist> Persist for FmIndex<W> {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.alphabet_size);
        w.put_seq(&self.counts);
        self.bwt.persist(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let alphabet_size = r.get_u32()?;
        let counts: Vec<u64> = r.get_seq()?;
        if counts.len() != alphabet_size as usize + 1 {
            return Err(StoreError::corrupt(format!(
                "C array has {} entries for alphabet {alphabet_size}",
                counts.len()
            )));
        }
        if counts.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::corrupt("C array is not non-decreasing"));
        }
        let bwt = W::restore(r)?;
        if counts.last().copied().unwrap_or(0) != bwt.len() as u64 {
            return Err(StoreError::corrupt(
                "C array total disagrees with BWT length",
            ));
        }
        Ok(FmIndex {
            counts,
            bwt,
            alphabet_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HuffmanWaveletTree, WaveletMatrix};

    /// `ABE$ACDE$ABF$ABE$` with `$=0, A=1, …, F=6`.
    fn figure3_text() -> Vec<u32> {
        vec![1, 2, 5, 0, 1, 3, 4, 5, 0, 1, 2, 6, 0, 1, 2, 5, 0]
    }

    fn naive_count(text: &[u32], pattern: &[u32]) -> usize {
        if pattern.is_empty() || pattern.len() > text.len() {
            return 0;
        }
        text.windows(pattern.len())
            .filter(|w| *w == pattern)
            .count()
    }

    #[test]
    fn figure3_isa_ranges_huffman() {
        let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&figure3_text(), 7);
        // R(⟨A⟩) = [4, 8) and R(⟨A,B⟩) = [4, 7) (paper, Section 4.1.1).
        assert_eq!(fm.isa_range(&[1]), IsaRange { start: 4, end: 8 });
        assert_eq!(fm.isa_range(&[1, 2]), IsaRange { start: 4, end: 7 });
        // ⟨A,B,E⟩ matches tr0 and tr3.
        assert_eq!(fm.count(&[1, 2, 5]), 2);
        // ⟨A,C,D,E⟩ matches tr1 only.
        assert_eq!(fm.count(&[1, 3, 4, 5]), 1);
        // ⟨B,A⟩ never occurs.
        assert!(fm.isa_range(&[2, 1]).is_empty());
    }

    #[test]
    fn figure3_isa_ranges_matrix() {
        let (fm, _) = FmIndex::<WaveletMatrix>::build(&figure3_text(), 7);
        assert_eq!(fm.isa_range(&[1]), IsaRange { start: 4, end: 8 });
        assert_eq!(fm.isa_range(&[1, 2]), IsaRange { start: 4, end: 7 });
    }

    #[test]
    fn isa_values_of_traversals_fall_in_range() {
        // Every text position whose suffix starts with the pattern must have
        // an ISA value inside the range — the property the temporal-leaf
        // spatial filter relies on.
        let text = figure3_text();
        let (fm, isa) = FmIndex::<HuffmanWaveletTree>::build(&text, 7);
        let pattern = [1u32, 2]; // ⟨A,B⟩
        let range = fm.isa_range(&pattern);
        for i in 0..text.len() {
            let starts_here = text[i..].starts_with(&pattern);
            assert_eq!(
                range.contains(isa[i]),
                starts_here,
                "position {i}: isa = {}",
                isa[i]
            );
        }
    }

    #[test]
    fn empty_pattern_and_unknown_symbols() {
        let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&figure3_text(), 7);
        assert!(fm.isa_range(&[]).is_empty());
        assert!(fm.isa_range(&[42]).is_empty());
        assert!(fm.isa_range(&[1, 42]).is_empty());
    }

    #[test]
    fn counts_match_naive_substring_search() {
        let text = figure3_text();
        let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&text, 7);
        for a in 1..7u32 {
            assert_eq!(fm.count(&[a]), naive_count(&text, &[a]));
            for b in 1..7u32 {
                assert_eq!(fm.count(&[a, b]), naive_count(&text, &[a, b]));
                for c in 1..7u32 {
                    assert_eq!(fm.count(&[a, b, c]), naive_count(&text, &[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn isa_range_helpers() {
        let r = IsaRange { start: 4, end: 7 };
        assert_eq!(r.len(), 3);
        assert!(r.contains(4) && r.contains(6));
        assert!(!r.contains(7) && !r.contains(3));
        assert!(IsaRange::EMPTY.is_empty());
        assert_eq!(IsaRange::EMPTY.len(), 0);
    }

    #[test]
    fn persist_round_trip_preserves_every_range() {
        let text = figure3_text();
        let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&text, 7);
        let mut w = tthr_store::ByteWriter::new();
        fm.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = tthr_store::ByteReader::new(&bytes);
        let restored = FmIndex::<HuffmanWaveletTree>::restore(&mut r).unwrap();
        r.expect_exhausted("fm index").unwrap();
        assert_eq!(restored.alphabet_size(), 7);
        assert_eq!(restored.bwt.len(), text.len());
        for a in 0..7u32 {
            for b in 0..7u32 {
                assert_eq!(fm.isa_range(&[a, b]), restored.isa_range(&[a, b]));
            }
        }

        let (fm2, _) = FmIndex::<WaveletMatrix>::build(&text, 7);
        let mut w = tthr_store::ByteWriter::new();
        fm2.persist(&mut w);
        let bytes = w.into_bytes();
        let restored =
            FmIndex::<WaveletMatrix>::restore(&mut tthr_store::ByteReader::new(&bytes)).unwrap();
        assert_eq!(fm2.isa_range(&[1, 2]), restored.isa_range(&[1, 2]));
    }

    #[test]
    fn persist_rejects_corrupt_counts() {
        let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&figure3_text(), 7);
        let mut w = tthr_store::ByteWriter::new();
        fm.persist(&mut w);
        let mut bytes = w.into_bytes();
        // The first C entry lives after alphabet_size (4) + seq len (8);
        // bump it above its successor.
        bytes[12] = 0xFF;
        let result =
            FmIndex::<HuffmanWaveletTree>::restore(&mut tthr_store::ByteReader::new(&bytes));
        assert!(matches!(
            result,
            Err(tthr_store::StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn cursor_states_match_fresh_searches() {
        let text = figure3_text();
        let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&text, 7);
        let pattern = [1u32, 2, 5]; // ⟨A,B,E⟩
        let mut cur = fm.cursor();
        assert_eq!(cur.range(), IsaRange::EMPTY, "empty pattern has no range");
        for k in (0..pattern.len()).rev() {
            cur = fm.extend_left(cur, pattern[k]);
            assert_eq!(cur.range(), fm.isa_range(&pattern[k..]), "suffix {k}");
            assert_eq!(cur.len as usize, pattern.len() - k);
        }
        // Dead cursors absorb further extensions.
        let dead = fm.extend_left(cur, 2); // ⟨B,A,B,E⟩ never occurs
        assert!(dead.is_dead());
        assert!(fm.extend_left(dead, 1).is_dead());
        assert_eq!(dead.range(), IsaRange::EMPTY);
    }

    #[test]
    fn suffix_ranges_appends_every_suffix() {
        let text = figure3_text();
        let (fm, _) = FmIndex::<WaveletMatrix>::build(&text, 7);
        let pattern = [1u32, 2, 5];
        let mut out = vec![IsaRange { start: 9, end: 9 }]; // pre-existing entry kept
        fm.suffix_ranges(&pattern, &mut out);
        assert_eq!(out.len(), 1 + pattern.len());
        for k in 0..pattern.len() {
            assert_eq!(out[1 + k], fm.isa_range(&pattern[k..]), "suffix {k}");
        }
    }

    #[test]
    fn costed_search_matches_uncosted_and_counts_live_steps() {
        let text = figure3_text();
        let (huff, _) = FmIndex::<HuffmanWaveletTree>::build(&text, 7);
        let (matrix, _) = FmIndex::<WaveletMatrix>::build(&text, 7);

        // Fully live pattern: one rank per symbol, descents equal to the
        // wavelet shape's per-symbol depth.
        let pattern = [1u32, 2, 5]; // ⟨A,B,E⟩ — occurs twice
        let mut plain = Vec::new();
        let mut costed = Vec::new();
        let mut cost = SearchCost::default();
        matrix.suffix_ranges(&pattern, &mut plain);
        matrix.suffix_ranges_costed(&pattern, &mut costed, &mut cost);
        assert_eq!(plain, costed);
        assert_eq!(cost.rank_ops, pattern.len() as u64);
        let expected_nodes: u64 = pattern
            .iter()
            .map(|&c| u64::from(matrix.bwt.descent_depth(c)))
            .sum();
        assert_eq!(cost.wavelet_nodes, expected_nodes);
        // Balanced matrix: every symbol descends all levels.
        assert_eq!(
            cost.wavelet_nodes,
            pattern.len() as u64 * u64::from(matrix.bwt.descent_depth(1))
        );

        // Huffman shape: depths vary by code length but ranges agree.
        let mut hplain = Vec::new();
        let mut hcosted = Vec::new();
        let mut hcost = SearchCost::default();
        huff.suffix_ranges(&pattern, &mut hplain);
        huff.suffix_ranges_costed(&pattern, &mut hcosted, &mut hcost);
        assert_eq!(hplain, hcosted);
        assert_eq!(hcost.rank_ops, pattern.len() as u64);
        let expected_huff: u64 = pattern
            .iter()
            .map(|&c| u64::from(huff.bwt.descent_depth(c)))
            .sum();
        assert_eq!(hcost.wavelet_nodes, expected_huff);

        // Dead and out-of-alphabet steps charge nothing: in ⟨C,B,A⟩ the
        // A step is live, the B step ranks (that rank is how the search
        // learns ⟨B,A⟩ never occurs) and kills the cursor, and the C step
        // on the dead cursor is free; a pattern ending in an unknown
        // symbol is dead from step 0.
        let mut cost = SearchCost::default();
        let mut out = Vec::new();
        matrix.suffix_ranges_costed(&[3, 2, 1], &mut out, &mut cost);
        assert_eq!(cost.rank_ops, 2, "A and B rank; dead C step is free");
        let mut cost = SearchCost::default();
        out.clear();
        matrix.suffix_ranges_costed(&[1, 42], &mut out, &mut cost);
        assert_eq!(cost, SearchCost::default(), "dead from the first step");

        // extend_left_costed returns bit-identical cursors.
        let mut cur_a = matrix.cursor();
        let mut cur_b = matrix.cursor();
        let mut cost = SearchCost::default();
        for &c in pattern.iter().rev() {
            cur_a = matrix.extend_left(cur_a, c);
            cur_b = matrix.extend_left_costed(cur_b, c, &mut cost);
            assert_eq!(cur_a, cur_b);
        }
    }

    proptest::proptest! {
        /// Backward search agrees with naive substring counting on random
        /// trajectory-like strings (runs of edge symbols separated by $).
        #[test]
        fn backward_search_equals_naive(
            runs in proptest::collection::vec(proptest::collection::vec(1u32..10, 1..10), 1..10),
            pattern in proptest::collection::vec(1u32..10, 1..4),
        ) {
            let mut text = Vec::new();
            for r in runs {
                text.extend(r);
                text.push(0);
            }
            let (fm, _) = FmIndex::<HuffmanWaveletTree>::build(&text, 10);
            proptest::prop_assert_eq!(fm.count(&pattern), naive_count(&text, &pattern));
            let (fm2, _) = FmIndex::<WaveletMatrix>::build(&text, 10);
            proptest::prop_assert_eq!(fm2.count(&pattern), naive_count(&text, &pattern));
        }

        /// The differential contract of the search cursor: every extension
        /// state along a random path equals a fresh `isa_range` of the
        /// corresponding suffix, for both wavelet shapes — and
        /// `suffix_ranges` records exactly those states.
        #[test]
        fn cursor_extension_states_equal_fresh_isa_ranges(
            runs in proptest::collection::vec(proptest::collection::vec(1u32..12, 1..12), 1..8),
            pattern in proptest::collection::vec(1u32..14, 1..12),
        ) {
            let mut text = Vec::new();
            for r in runs {
                text.extend(r);
                text.push(0);
            }
            let (huff, _) = FmIndex::<HuffmanWaveletTree>::build(&text, 14);
            let (matrix, _) = FmIndex::<WaveletMatrix>::build(&text, 14);
            let mut hc = huff.cursor();
            let mut mc = matrix.cursor();
            let mut hsuf = Vec::new();
            let mut msuf = Vec::new();
            huff.suffix_ranges(&pattern, &mut hsuf);
            matrix.suffix_ranges(&pattern, &mut msuf);
            for k in (0..pattern.len()).rev() {
                hc = huff.extend_left(hc, pattern[k]);
                mc = matrix.extend_left(mc, pattern[k]);
                let fresh = huff.isa_range(&pattern[k..]);
                proptest::prop_assert_eq!(hc.range(), fresh);
                proptest::prop_assert_eq!(mc.range(), matrix.isa_range(&pattern[k..]));
                proptest::prop_assert_eq!(hc.range(), mc.range(), "shapes agree");
                proptest::prop_assert_eq!(hsuf[k], fresh);
                proptest::prop_assert_eq!(msuf[k], fresh);
            }
        }
    }
}
