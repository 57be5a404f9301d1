//! Succinct full-text index substrate for the SNT-index.
//!
//! The SNT-index represents the whole trajectory set as one string `T` over
//! the alphabet `Σ = E ∪ {$}` and answers *which trajectories traverse path
//! `P`* by substring matching: the suffix array rank range (ISA range) of
//! `P` is computed by FM-index backward search in `O(|P| log |Σ|)` time,
//! independent of `|T|` (paper, Section 4.1.1).
//!
//! Everything is implemented from scratch:
//!
//! * `suffix` — linear-time SA-IS suffix array construction for integer
//!   alphabets, plus the inverse suffix array.
//! * `bwt` — the Burrows–Wheeler transform and the `C` symbol-count array.
//! * [`RankBitVec`] — a plain bit vector with constant-time `rank`.
//! * [`WaveletMatrix`] — the balanced wavelet structure (rank in
//!   `O(log σ)`).
//! * [`HuffmanWaveletTree`] — the Huffman-shaped wavelet tree the paper's
//!   implementation uses (sdsl-lite `wt_huff`), with expected rank cost
//!   proportional to the symbol entropy.
//! * [`FmIndex`] — `C` + BWT-in-wavelet-structure with the backward search
//!   of the paper's Procedure 2 (`getISARange`).
//!
//! Trajectory-string construction (mapping edges to symbols) lives one layer
//! up, in `tthr-core`, keeping this crate a pure sequence-index library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
pub(crate) mod bwt;
mod fm;
mod huffman;
mod suffix;
mod wavelet;

pub use bitvec::RankBitVec;
pub use fm::{FmIndex, IsaRange, SearchCost, WaveletBuild};
pub use huffman::HuffmanWaveletTree;
pub use wavelet::WaveletMatrix;

/// Common interface of the wavelet structures: positional symbol access and
/// partial rank over an integer alphabet.
pub trait SymbolRank {
    /// Number of symbols in the underlying sequence.
    fn len(&self) -> usize;

    /// Whether the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbol at position `i`.
    fn access(&self, i: usize) -> u32;

    /// `rank_c(seq, pos)`: occurrences of `c` in `seq[0, pos)`.
    fn rank(&self, c: u32, pos: usize) -> usize;

    /// `(rank(c, i), rank(c, j))` for `i ≤ j` — the paired-boundary rank of
    /// one backward-search step, which queries the *same* symbol at both
    /// ends of the current range. Implementations override this to compute
    /// both boundaries in a single descent (sharing per-level node lookups
    /// and, late in a search, the same rank superblocks); the default is
    /// two independent ranks.
    fn rank2(&self, c: u32, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= j);
        (self.rank(c, i), self.rank(c, j))
    }

    /// Number of wavelet nodes a rank of symbol `c` descends through — the
    /// per-operation cost attribution query tracing reports (rank-op
    /// counts are the currency for comparing trajectory-index hot paths).
    /// The balanced matrix answers its level count, the Huffman tree the
    /// symbol's code length; the default (for flat structures) is 1.
    fn descent_depth(&self, c: u32) -> u32 {
        let _ = c;
        1
    }

    /// Approximate heap size in bytes (for the Figure 10 memory accounting).
    fn size_bytes(&self) -> usize;
}
