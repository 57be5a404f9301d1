//! The wavelet matrix: a balanced, pointerless wavelet structure.
//!
//! Rank over an integer alphabet in `O(log σ)` bit-vector ranks. This is the
//! "balanced" counterpart to the Huffman-shaped tree the paper uses; both are
//! benchmarked in the `wavelet` ablation bench.

use crate::bitvec::RankBitVec;
use crate::SymbolRank;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// A wavelet matrix over `u32` symbols (Claude, Navarro & Ordóñez, 2015).
///
/// Level `l` stores the `l`-th most significant bit of every symbol, with
/// the sequence stably re-partitioned (zeros first) between levels.
#[derive(Clone, Debug)]
pub struct WaveletMatrix {
    levels: Vec<RankBitVec>,
    /// Number of zero bits at each level.
    zeros: Vec<usize>,
    len: usize,
    bits: u32,
}

impl WaveletMatrix {
    /// Builds from a symbol sequence. `alphabet_size` must exceed every
    /// symbol; it fixes the number of levels at `ceil(log2 alphabet_size)`.
    pub(crate) fn new(sequence: &[u32], alphabet_size: u32) -> Self {
        assert!(
            sequence.iter().all(|&s| s < alphabet_size.max(1)),
            "symbol out of alphabet range"
        );
        let bits = if alphabet_size <= 1 {
            1
        } else {
            32 - (alphabet_size - 1).leading_zeros()
        };
        let mut levels = Vec::with_capacity(bits as usize);
        let mut zeros = Vec::with_capacity(bits as usize);
        let mut current: Vec<u32> = sequence.to_vec();
        for l in 0..bits {
            let shift = bits - 1 - l;
            let bv = RankBitVec::from_bits(current.iter().map(|&s| (s >> shift) & 1 == 1));
            let mut lo: Vec<u32> = Vec::with_capacity(current.len());
            let mut hi: Vec<u32> = Vec::new();
            for &s in &current {
                if (s >> shift) & 1 == 0 {
                    lo.push(s);
                } else {
                    hi.push(s);
                }
            }
            zeros.push(lo.len());
            lo.extend_from_slice(&hi);
            current = lo;
            levels.push(bv);
        }
        WaveletMatrix {
            levels,
            zeros,
            len: sequence.len(),
            bits,
        }
    }
}

/// Wire form: length (`u64`), level count (`u32`), then each level's bit
/// vector. The per-level zero counts are ranks over those vectors and are
/// recomputed on restore.
impl Persist for WaveletMatrix {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_len(self.len);
        w.put_u32(self.bits);
        for level in &self.levels {
            level.persist(w);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let len = r.get_u64()? as usize;
        let bits = r.get_u32()?;
        if bits == 0 || bits > 32 {
            return Err(StoreError::corrupt(format!(
                "wavelet matrix with {bits} levels"
            )));
        }
        let mut levels = Vec::with_capacity(bits as usize);
        let mut zeros = Vec::with_capacity(bits as usize);
        for l in 0..bits {
            let bv = RankBitVec::restore(r)?;
            if bv.len() != len {
                return Err(StoreError::corrupt(format!(
                    "wavelet level {l} has {} bits, expected {len}",
                    bv.len()
                )));
            }
            zeros.push(bv.rank0(len));
            levels.push(bv);
        }
        Ok(WaveletMatrix {
            levels,
            zeros,
            len,
            bits,
        })
    }
}

impl SymbolRank for WaveletMatrix {
    fn len(&self) -> usize {
        self.len
    }

    /// Every symbol descends through all `⌈log σ⌉` levels of the balanced
    /// matrix.
    fn descent_depth(&self, _c: u32) -> u32 {
        self.bits
    }

    fn access(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        let mut pos = i;
        let mut sym = 0u32;
        for (l, bv) in self.levels.iter().enumerate() {
            sym <<= 1;
            if bv.get(pos) {
                sym |= 1;
                pos = self.zeros[l] + bv.rank1(pos);
            } else {
                pos = bv.rank0(pos);
            }
        }
        sym
    }

    fn rank(&self, c: u32, pos: usize) -> usize {
        debug_assert!(pos <= self.len);
        if self.bits < 32 && c >= (1u32 << self.bits) {
            return 0;
        }
        let mut start = 0usize;
        let mut end = pos;
        for (l, bv) in self.levels.iter().enumerate() {
            let bit = (c >> (self.bits - 1 - l as u32)) & 1;
            if bit == 0 {
                (start, end) = bv.rank0_pair(start, end);
            } else {
                let (s, e) = bv.rank1_pair(start, end);
                start = self.zeros[l] + s;
                end = self.zeros[l] + e;
            }
            if start == end {
                return 0;
            }
        }
        end - start
    }

    /// Paired-boundary rank in one descent: three positions (`0 → start`,
    /// `i → pi`, `j → pj`) ride the same per-level re-partitioning, so the
    /// shared lower boundary costs one bit-vector rank per level instead of
    /// being recomputed per call — 3 ranks per level instead of the 4 two
    /// independent `rank` calls would issue.
    fn rank2(&self, c: u32, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= j && j <= self.len);
        if self.bits < 32 && c >= (1u32 << self.bits) {
            return (0, 0);
        }
        let mut start = 0usize;
        let mut pi = i;
        let mut pj = j;
        for (l, bv) in self.levels.iter().enumerate() {
            let bit = (c >> (self.bits - 1 - l as u32)) & 1;
            // All three positions descend through the same monotone map, so
            // start ≤ pi ≤ pj is invariant; if start catches up with pi the
            // two stay equal for good and the final pi − start is 0 without
            // any special casing.
            if bit == 0 {
                start = bv.rank0(start);
                (pi, pj) = bv.rank0_pair(pi, pj);
            } else {
                let z = self.zeros[l];
                start = z + bv.rank1(start);
                let (a, b) = bv.rank1_pair(pi, pj);
                pi = z + a;
                pj = z + b;
            }
            if start == pj {
                return (0, 0);
            }
        }
        (pi - start, pj - start)
    }

    fn size_bytes(&self) -> usize {
        self.levels.iter().map(|b| b.size_bytes()).sum::<usize>()
            + self.zeros.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_rank(seq: &[u32], c: u32, pos: usize) -> usize {
        seq[..pos].iter().filter(|&&s| s == c).count()
    }

    #[test]
    fn rank_and_access_on_small_sequence() {
        let seq = vec![3, 1, 4, 1, 5, 1, 2, 6, 5, 3];
        let wm = WaveletMatrix::new(&seq, 8);
        for (i, &s) in seq.iter().enumerate() {
            assert_eq!(wm.access(i), s, "access({i})");
        }
        for c in 0..8 {
            for pos in 0..=seq.len() {
                assert_eq!(
                    wm.rank(c, pos),
                    reference_rank(&seq, c, pos),
                    "rank({c},{pos})"
                );
            }
        }
    }

    #[test]
    fn figure3_bwt_ranks() {
        // BWT of the paper's example: EFEE$$$$AAAACBDBB with $=0,A=1,…,F=6.
        let bwt = vec![5, 6, 5, 5, 0, 0, 0, 0, 1, 1, 1, 1, 3, 2, 4, 2, 2];
        let wm = WaveletMatrix::new(&bwt, 7);
        // rank_A(Tbwt, 8) = 0 and rank_A(Tbwt, 11) = 3 (Procedure 2 example).
        assert_eq!(wm.rank(1, 8), 0);
        assert_eq!(wm.rank(1, 11), 3);
    }

    #[test]
    fn single_symbol_alphabet() {
        let seq = vec![0, 0, 0];
        let wm = WaveletMatrix::new(&seq, 1);
        assert_eq!(wm.rank(0, 3), 3);
        assert_eq!(wm.access(1), 0);
    }

    #[test]
    fn out_of_alphabet_rank_is_zero() {
        let seq = vec![1, 2, 3];
        let wm = WaveletMatrix::new(&seq, 4);
        assert_eq!(wm.rank(100, 3), 0);
    }

    #[test]
    fn empty_sequence() {
        let wm = WaveletMatrix::new(&[], 16);
        assert_eq!(wm.len(), 0);
        assert_eq!(wm.rank(3, 0), 0);
        assert!(wm.is_empty());
    }

    #[test]
    fn persist_round_trip_recomputes_zeros() {
        let seq = vec![3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let wm = WaveletMatrix::new(&seq, 10);
        let mut w = tthr_store::ByteWriter::new();
        wm.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = tthr_store::ByteReader::new(&bytes);
        let restored = WaveletMatrix::restore(&mut r).unwrap();
        r.expect_exhausted("wavelet matrix").unwrap();
        for c in 0..10u32 {
            for pos in 0..=seq.len() {
                assert_eq!(restored.rank(c, pos), wm.rank(c, pos), "rank({c},{pos})");
            }
        }
        for (i, &s) in seq.iter().enumerate() {
            assert_eq!(restored.access(i), s);
        }
    }

    #[test]
    fn rank2_crosses_word_and_superblock_boundaries() {
        // A sequence long enough that level bit vectors span several 512-bit
        // superblocks; probe pairs placed around the 64- and 512-bit marks.
        let seq: Vec<u32> = (0..1600).map(|i| (i * 7 + i / 11) as u32 % 37).collect();
        let wm = WaveletMatrix::new(&seq, 37);
        for c in [0u32, 5, 17, 36] {
            for &(i, j) in &[
                (0, 0),
                (0, 1600),
                (63, 65),
                (64, 64),
                (511, 513),
                (512, 1024),
                (700, 701),
                (1599, 1600),
            ] {
                assert_eq!(
                    wm.rank2(c, i, j),
                    (wm.rank(c, i), wm.rank(c, j)),
                    "rank2({c},{i},{j})"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn rank_matches_reference(
            seq in proptest::collection::vec(0u32..300, 0..400),
        ) {
            let wm = WaveletMatrix::new(&seq, 300);
            // Probe a sample of (symbol, position) pairs.
            for c in [0u32, 1, 7, 150, 299] {
                for pos in [0, seq.len() / 3, seq.len()] {
                    proptest::prop_assert_eq!(wm.rank(c, pos), reference_rank(&seq, c, pos));
                }
            }
            for (i, &s) in seq.iter().enumerate().take(64) {
                proptest::prop_assert_eq!(wm.access(i), s);
            }
        }

        /// `rank2(c, i, j) == (rank(c, i), rank(c, j))` for arbitrary
        /// boundary pairs, including out-of-alphabet symbols.
        #[test]
        fn rank2_matches_two_ranks(
            seq in proptest::collection::vec(0u32..300, 0..1500),
            probes in proptest::collection::vec((0usize..1501, 0usize..1501, 0u32..310), 0..64),
        ) {
            let wm = WaveletMatrix::new(&seq, 300);
            let n = seq.len();
            for (a, b, c) in probes {
                let (i, j) = (a.min(b).min(n), a.max(b).min(n));
                proptest::prop_assert_eq!(wm.rank2(c, i, j), (wm.rank(c, i), wm.rank(c, j)));
            }
        }
    }
}
