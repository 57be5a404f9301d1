//! A plain bit vector with constant-time rank over an interleaved layout.

use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// Bits per rank superblock.
const SUPER_BITS: usize = 512;
/// 64-bit data words per superblock.
const WORDS_PER_SUPER: usize = SUPER_BITS / 64;
/// `u64`s per interleaved block: absolute rank, packed relative ranks, then
/// the 8 data words.
const BLOCK_WORDS: usize = 2 + WORDS_PER_SUPER;
/// Bits per packed relative rank (max value 448 < 2⁹).
const REL_BITS: usize = 9;
const REL_MASK: u64 = (1 << REL_BITS) - 1;

/// An immutable bit vector supporting `rank1`/`rank0` in O(1).
///
/// Layout: one contiguous `Vec<u64>` of 10-word *interleaved blocks*, one
/// per 512-bit superblock:
///
/// ```text
/// word 0      absolute rank1 before the superblock (u64)
/// word 1      7 packed 9-bit relative ranks: bits [9(w−1), 9w) hold the
///             popcount of data words 0..w, for w = 1..8 (word 0's is 0)
/// words 2..10 the 8 raw data words (zero-padded past the last bit)
/// ```
///
/// A rank touches exactly one block — the directory entries and the data
/// word it needs are at most 80 bytes apart (≤ 2 cache lines, vs. the 3
/// unrelated arrays of the classic layout) — at 25 % space overhead over
/// the raw bits.
#[derive(Clone, Debug)]
pub struct RankBitVec {
    len: usize,
    blocks: Vec<u64>,
}

impl RankBitVec {
    /// Builds from a boolean-producing iterator.
    pub(crate) fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words: Vec<u64> = Vec::new();
        let mut len = 0usize;
        let mut current = 0u64;
        for b in bits {
            if b {
                current |= 1u64 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(current);
                current = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(current);
        }
        Self::from_words(words, len)
    }

    fn from_words(words: Vec<u64>, len: usize) -> Self {
        let n_words = words.len();
        let n_super = n_words.div_ceil(WORDS_PER_SUPER);
        let mut blocks = vec![0u64; n_super * BLOCK_WORDS];
        let mut total = 0u64;
        for s in 0..n_super {
            let base = s * BLOCK_WORDS;
            blocks[base] = total;
            let mut rel = 0u64;
            let mut within = 0u64;
            for w in 0..WORDS_PER_SUPER {
                let wi = s * WORDS_PER_SUPER + w;
                if w > 0 {
                    rel |= within << (REL_BITS * (w - 1));
                }
                if wi < n_words {
                    blocks[base + 2 + w] = words[wi];
                    let ones = words[wi].count_ones() as u64;
                    within += ones;
                    total += ones;
                }
            }
            blocks[base + 1] = rel;
        }
        RankBitVec { len, blocks }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = i / 64;
        let block = (word / WORDS_PER_SUPER) * BLOCK_WORDS + 2 + word % WORDS_PER_SUPER;
        (self.blocks[block] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits in positions `[0, i)`. `i` may equal `len`.
    #[inline]
    pub(crate) fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        if i == 0 {
            return 0;
        }
        let word = (i - 1) / 64;
        let w = word % WORDS_PER_SUPER;
        let base = (word / WORDS_PER_SUPER) * BLOCK_WORDS;
        let within_word = i - word * 64; // 1..=64
        let mask = if within_word == 64 {
            u64::MAX
        } else {
            (1u64 << within_word) - 1
        };
        let rel = if w == 0 {
            0
        } else {
            (self.blocks[base + 1] >> (REL_BITS * (w - 1))) & REL_MASK
        };
        (self.blocks[base] + rel) as usize
            + (self.blocks[base + 2 + w] & mask).count_ones() as usize
    }

    /// Number of clear bits in positions `[0, i)`.
    #[inline]
    pub(crate) fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// `(rank1(i), rank1(j))` for `i ≤ j` in one call: when both positions
    /// fall in the same superblock — the common case late in a backward
    /// search, as `[st, ed)` narrows — the second rank reuses the block the
    /// first one already pulled into cache.
    #[inline]
    pub(crate) fn rank1_pair(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= j);
        (self.rank1(i), self.rank1(j))
    }

    /// `(rank0(i), rank0(j))` for `i ≤ j`; see [`RankBitVec::rank1_pair`].
    #[inline]
    pub(crate) fn rank0_pair(&self, i: usize, j: usize) -> (usize, usize) {
        let (a, b) = self.rank1_pair(i, j);
        (i - a, j - b)
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.blocks.len() * 8
    }

    /// The raw data words, de-interleaved (for the wire form).
    fn raw_words(&self) -> Vec<u64> {
        let n_words = self.len.div_ceil(64);
        let mut words = Vec::with_capacity(n_words);
        for wi in 0..n_words {
            let block = (wi / WORDS_PER_SUPER) * BLOCK_WORDS + 2 + wi % WORDS_PER_SUPER;
            words.push(self.blocks[block]);
        }
        words
    }
}

/// Wire form: bit length (`u64`), then the raw words. The interleaved rank
/// directory is derived, so it is rebuilt on restore instead of stored —
/// snapshots written before the interleaved layout load unchanged.
impl Persist for RankBitVec {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_len(self.len);
        w.put_seq(&self.raw_words());
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let len = r.get_u64()? as usize;
        let words: Vec<u64> = r.get_seq()?;
        if words.len() != len.div_ceil(64) {
            return Err(StoreError::corrupt(format!(
                "bit vector of {len} bits needs {} words, found {}",
                len.div_ceil(64),
                words.len()
            )));
        }
        // Bits past `len` in the final word must be clear — the rank
        // directory counts whole words, so stray bits would skew it.
        if !len.is_multiple_of(64) {
            let last = words[words.len() - 1];
            if last >> (len % 64) != 0 {
                return Err(StoreError::corrupt("set bits past bit-vector length"));
            }
        }
        Ok(Self::from_words(words, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_rank(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    #[test]
    fn rank_on_small_vector() {
        let bits = vec![true, false, true, true, false, false, true];
        let bv = RankBitVec::from_bits(bits.iter().copied());
        assert_eq!(bv.len(), 7);
        assert_eq!(bv.rank1(bv.len()), 4);
        for i in 0..=bits.len() {
            assert_eq!(bv.rank1(i), reference_rank(&bits, i), "rank1({i})");
            assert_eq!(bv.rank0(i), i - reference_rank(&bits, i), "rank0({i})");
        }
        assert!(bv.get(0));
        assert!(!bv.get(1));
    }

    #[test]
    fn rank_across_word_and_superblock_boundaries() {
        // 1500 bits: every 3rd set — crosses word (64) and superblock (512)
        // boundaries many times.
        let bits: Vec<bool> = (0..1500).map(|i| i % 3 == 0).collect();
        let bv = RankBitVec::from_bits(bits.iter().copied());
        for i in (0..=1500).step_by(7) {
            assert_eq!(bv.rank1(i), reference_rank(&bits, i), "rank1({i})");
        }
        assert_eq!(bv.rank1(1500), 500);
    }

    #[test]
    fn empty_vector() {
        let bv = RankBitVec::from_bits(std::iter::empty());
        assert_eq!(bv.len(), 0);
        assert_eq!(bv.rank1(0), 0);
        assert!(bv.is_empty());
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let ones = RankBitVec::from_bits((0..777).map(|_| true));
        assert_eq!(ones.rank1(777), 777);
        assert_eq!(ones.rank0(777), 0);
        let zeros = RankBitVec::from_bits((0..777).map(|_| false));
        assert_eq!(zeros.rank1(777), 0);
        assert_eq!(zeros.rank0(700), 700);
    }

    #[test]
    fn packed_relative_ranks_saturate_correctly() {
        // A dense prefix pushes the within-superblock rank to its 9-bit
        // ceiling (448 before the last word): all-ones superblocks must
        // still rank exactly.
        let bv = RankBitVec::from_bits((0..2048).map(|_| true));
        for i in (0..=2048).step_by(37) {
            assert_eq!(bv.rank1(i), i);
        }
        assert_eq!(bv.rank1(512), 512);
        assert_eq!(bv.rank1(513), 513);
    }

    #[test]
    fn pair_ranks_match_singles() {
        let bits: Vec<bool> = (0..3000).map(|i| (i * 2654435761usize) % 7 < 3).collect();
        let bv = RankBitVec::from_bits(bits.iter().copied());
        for i in (0..=3000).step_by(11) {
            for j in [i, i + 17, i + 480, 3000] {
                let j = j.min(3000);
                if i > j {
                    continue;
                }
                assert_eq!(bv.rank1_pair(i, j), (bv.rank1(i), bv.rank1(j)));
                assert_eq!(bv.rank0_pair(i, j), (bv.rank0(i), bv.rank0(j)));
            }
        }
    }

    fn round_trip(bv: &RankBitVec) -> RankBitVec {
        let mut w = tthr_store::ByteWriter::new();
        bv.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = tthr_store::ByteReader::new(&bytes);
        let restored = RankBitVec::restore(&mut r).unwrap();
        r.expect_exhausted("bit vector").unwrap();
        restored
    }

    #[test]
    fn persist_round_trip_rebuilds_rank_directory() {
        for n in [0usize, 1, 63, 64, 65, 511, 512, 513, 1500] {
            let bits: Vec<bool> = (0..n).map(|i| i % 5 < 2).collect();
            let bv = RankBitVec::from_bits(bits.iter().copied());
            let restored = round_trip(&bv);
            assert_eq!(restored.len(), n);
            for i in (0..=n).step_by(17) {
                assert_eq!(restored.rank1(i), bv.rank1(i), "n={n} rank1({i})");
            }
        }
    }

    #[test]
    fn persist_rejects_stray_bits_past_length() {
        let bv = RankBitVec::from_bits((0..10).map(|_| true));
        let mut w = tthr_store::ByteWriter::new();
        bv.persist(&mut w);
        let mut bytes = w.into_bytes();
        // Set a bit beyond position 9 inside the single stored word
        // (layout: len u64, word count u64, word u64 little-endian).
        bytes[17] |= 0x80;
        let result = RankBitVec::restore(&mut tthr_store::ByteReader::new(&bytes));
        assert!(matches!(
            result,
            Err(tthr_store::StoreError::Corrupt { .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn rank_matches_reference(bits in proptest::collection::vec(proptest::bool::ANY, 0..2000)) {
            let bv = RankBitVec::from_bits(bits.iter().copied());
            for i in 0..=bits.len() {
                proptest::prop_assert_eq!(bv.rank1(i), reference_rank(&bits, i));
            }
            for (i, &b) in bits.iter().enumerate() {
                proptest::prop_assert_eq!(bv.get(i), b);
            }
        }

        #[test]
        fn pair_rank_matches_singles_everywhere(
            bits in proptest::collection::vec(proptest::bool::ANY, 0..1200),
            probes in proptest::collection::vec((0usize..1201, 0usize..1201), 0..64),
        ) {
            let bv = RankBitVec::from_bits(bits.iter().copied());
            let n = bits.len();
            for (a, b) in probes {
                let (i, j) = (a.min(b).min(n), a.max(b).min(n));
                proptest::prop_assert_eq!(bv.rank1_pair(i, j), (bv.rank1(i), bv.rank1(j)));
            }
        }
    }
}
