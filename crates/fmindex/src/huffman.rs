//! Huffman-shaped wavelet tree.
//!
//! The paper's implementation stores the BWT in sdsl-lite's integer-alphabet
//! *Huffman-shaped* wavelet tree (Section 6.2): frequent symbols get short
//! code paths, so the expected rank cost is proportional to the zeroth-order
//! entropy of the sequence rather than `log σ`. Trajectory strings are very
//! skewed (arterial segments dominate), which is exactly where the Huffman
//! shape pays off — the `wavelet` bench quantifies this against the balanced
//! [`crate::WaveletMatrix`].

use crate::bitvec::RankBitVec;
use crate::SymbolRank;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// A node child: another internal node or a leaf symbol.
#[derive(Clone, Copy, Debug)]
enum Child {
    Internal(u32),
    Leaf(u32),
}

#[derive(Clone, Debug)]
struct Node {
    bv: RankBitVec,
    left: Child,
    right: Child,
}

/// Huffman-shaped wavelet tree over `u32` symbols.
#[derive(Clone, Debug)]
pub struct HuffmanWaveletTree {
    nodes: Vec<Node>,
    root: Option<u32>,
    /// Per-symbol canonical path: `(bits, length)`, MSB-first along the path.
    /// `None` for symbols absent from the sequence.
    codes: Vec<Option<(u64, u8)>>,
    len: usize,
    /// Set when the sequence contains exactly one distinct symbol (the tree
    /// then has no internal node).
    single_symbol: Option<u32>,
}

impl HuffmanWaveletTree {
    /// Builds from a symbol sequence; `alphabet_size` must exceed every
    /// symbol.
    pub fn new(sequence: &[u32], alphabet_size: u32) -> Self {
        let sigma = alphabet_size as usize;
        assert!(
            sequence.iter().all(|&s| (s as usize) < sigma.max(1)),
            "symbol out of alphabet range"
        );
        let mut counts = vec![0u64; sigma];
        for &s in sequence {
            counts[s as usize] += 1;
        }
        let present: Vec<u32> = (0..sigma as u32)
            .filter(|&s| counts[s as usize] > 0)
            .collect();

        let mut tree = HuffmanWaveletTree {
            nodes: Vec::new(),
            root: None,
            codes: vec![None; sigma],
            len: sequence.len(),
            single_symbol: None,
        };

        match present.len() {
            0 => return tree,
            1 => {
                tree.single_symbol = Some(present[0]);
                tree.codes[present[0] as usize] = Some((0, 0));
                return tree;
            }
            _ => {}
        }

        // --- Huffman merging over (count, tie-break id, child). --------------
        // `shape` holds internal nodes as (left, right) pairs.
        let mut shape: Vec<(Child, Child)> = Vec::with_capacity(present.len() - 1);
        let mut heap: BinaryHeap<Reverse<(u64, u32, ChildKey)>> = BinaryHeap::new();
        let mut tie = 0u32;
        for &s in &present {
            heap.push(Reverse((counts[s as usize], tie, ChildKey::Leaf(s))));
            tie += 1;
        }
        while heap.len() > 1 {
            let Reverse((c1, _, a)) = heap.pop().expect("len > 1");
            let Reverse((c2, _, b)) = heap.pop().expect("len > 1");
            let id = shape.len() as u32;
            shape.push((a.into(), b.into()));
            heap.push(Reverse((c1 + c2, tie, ChildKey::Internal(id))));
            tie += 1;
        }
        let Reverse((_, _, root_key)) = heap.pop().expect("one root remains");
        let root_id = match root_key {
            ChildKey::Internal(i) => i,
            ChildKey::Leaf(_) => unreachable!("≥ 2 symbols ⇒ root is internal"),
        };

        // --- Assign codes by DFS. ---------------------------------------------
        let mut stack: Vec<(u32, u64, u8)> = vec![(root_id, 0, 0)];
        while let Some((node, code, depth)) = stack.pop() {
            assert!(depth < 64, "Huffman code deeper than 64 bits");
            let (left, right) = shape[node as usize];
            for (child, bit) in [(left, 0u64), (right, 1u64)] {
                let ccode = (code << 1) | bit;
                match child {
                    Child::Leaf(s) => tree.codes[s as usize] = Some((ccode, depth + 1)),
                    Child::Internal(i) => stack.push((i, ccode, depth + 1)),
                }
            }
        }

        // --- Build per-node bit vectors by top-down partitioning. -------------
        // nodes[i] corresponds to shape[i]; we fill them in DFS order with the
        // subsequence routed through each node.
        tree.nodes = shape
            .iter()
            .map(|&(left, right)| Node {
                bv: RankBitVec::from_bits(std::iter::empty()),
                left,
                right,
            })
            .collect();
        let codes = tree.codes.clone();
        let mut build_stack: Vec<(u32, Vec<u32>, u8)> = vec![(root_id, sequence.to_vec(), 0)];
        while let Some((node, elems, depth)) = build_stack.pop() {
            let bit_of = |s: u32| {
                let (code, len) = codes[s as usize].expect("present symbol has a code");
                (code >> (len - 1 - depth)) & 1 == 1
            };
            let bv = RankBitVec::from_bits(elems.iter().map(|&s| bit_of(s)));
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for &s in &elems {
                if bit_of(s) {
                    hi.push(s);
                } else {
                    lo.push(s);
                }
            }
            let (left, right) = (
                tree.nodes[node as usize].left,
                tree.nodes[node as usize].right,
            );
            tree.nodes[node as usize].bv = bv;
            if let Child::Internal(i) = left {
                build_stack.push((i, lo, depth + 1));
            }
            if let Child::Internal(i) = right {
                build_stack.push((i, hi, depth + 1));
            }
        }
        tree.root = Some(root_id);
        tree
    }

    /// The code length (tree depth) of a symbol, if present.
    pub(crate) fn code_len(&self, c: u32) -> Option<u8> {
        self.codes
            .get(c as usize)
            .copied()
            .flatten()
            .map(|(_, l)| l)
    }
}

impl Persist for Child {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            Child::Internal(i) => {
                w.put_u8(0);
                w.put_u32(*i);
            }
            Child::Leaf(s) => {
                w.put_u8(1);
                w.put_u32(*s);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(Child::Internal(r.get_u32()?)),
            1 => Ok(Child::Leaf(r.get_u32()?)),
            other => Err(StoreError::corrupt(format!("huffman child tag {other}"))),
        }
    }
}

/// Wire form: sequence length (`u64`), single-symbol and root options,
/// per-symbol canonical codes, then the internal nodes (two children +
/// one bit vector each). The Huffman *shape* is data, not derivable: the
/// tie-breaking of equal-frequency merges must survive the round trip for
/// ranks to stay byte-identical.
impl Persist for HuffmanWaveletTree {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_len(self.len);
        self.single_symbol.persist(w);
        self.root.persist(w);
        w.put_len(self.codes.len());
        for code in &self.codes {
            match code {
                None => w.put_u8(0),
                Some((bits, depth)) => {
                    w.put_u8(1);
                    w.put_u64(*bits);
                    w.put_u8(*depth);
                }
            }
        }
        w.put_len(self.nodes.len());
        for node in &self.nodes {
            node.left.persist(w);
            node.right.persist(w);
            node.bv.persist(w);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let len = r.get_u64()? as usize;
        let single_symbol = Option::<u32>::restore(r)?;
        let root = Option::<u32>::restore(r)?;
        let n_codes = r.get_len(1)?;
        let mut codes = Vec::with_capacity(n_codes);
        for _ in 0..n_codes {
            codes.push(match r.get_u8()? {
                0 => None,
                1 => {
                    let bits = r.get_u64()?;
                    let depth = r.get_u8()?;
                    if depth > 64 {
                        return Err(StoreError::corrupt("huffman code deeper than 64 bits"));
                    }
                    Some((bits, depth))
                }
                other => return Err(StoreError::corrupt(format!("huffman code tag {other}"))),
            });
        }
        let n_nodes = r.get_len(1)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let left = Child::restore(r)?;
            let right = Child::restore(r)?;
            for child in [left, right] {
                if let Child::Internal(i) = child {
                    if i as usize >= n_nodes {
                        return Err(StoreError::corrupt("huffman child out of bounds"));
                    }
                }
            }
            let bv = RankBitVec::restore(r)?;
            nodes.push(Node { bv, left, right });
        }
        match root {
            Some(root_id) if (root_id as usize) < nodes.len() => {}
            Some(_) => return Err(StoreError::corrupt("huffman root out of bounds")),
            None if nodes.is_empty() => {}
            None => return Err(StoreError::corrupt("huffman nodes without a root")),
        }
        if let Some(root_id) = root {
            // Walk the shape from the root, checking that every node's
            // bit vector is exactly as long as the subsequence its parent
            // routes into it, that each internal node is referenced once,
            // and that none are orphaned — an inconsistent (but CRC-valid)
            // section must fail here, not panic mid-query on a rank past
            // a too-short bit vector.
            let mut seen = vec![false; nodes.len()];
            seen[root_id as usize] = true;
            let mut reached = 1usize;
            let mut stack = vec![(root_id as usize, len)];
            while let Some((id, expect)) = stack.pop() {
                let node = &nodes[id];
                if node.bv.len() != expect {
                    return Err(StoreError::corrupt(format!(
                        "huffman node {id} has {} bits, expected {expect}",
                        node.bv.len()
                    )));
                }
                let zeros = node.bv.rank0(expect);
                for (child, sub) in [(node.left, zeros), (node.right, expect - zeros)] {
                    if let Child::Internal(i) = child {
                        // In-bounds already checked while reading nodes.
                        if std::mem::replace(&mut seen[i as usize], true) {
                            return Err(StoreError::corrupt("huffman node referenced twice"));
                        }
                        reached += 1;
                        stack.push((i as usize, sub));
                    }
                }
            }
            if reached != nodes.len() {
                return Err(StoreError::corrupt("orphaned huffman nodes"));
            }
        }
        Ok(HuffmanWaveletTree {
            nodes,
            root,
            codes,
            len,
            single_symbol,
        })
    }
}

/// Heap ordering helper: orderable mirror of [`Child`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum ChildKey {
    Internal(u32),
    Leaf(u32),
}

impl From<ChildKey> for Child {
    fn from(k: ChildKey) -> Child {
        match k {
            ChildKey::Internal(i) => Child::Internal(i),
            ChildKey::Leaf(s) => Child::Leaf(s),
        }
    }
}

impl SymbolRank for HuffmanWaveletTree {
    fn len(&self) -> usize {
        self.len
    }

    /// A rank of `c` descends the symbol's Huffman code length; symbols
    /// absent from the tree (rank is trivially 0) descend nothing.
    fn descent_depth(&self, c: u32) -> u32 {
        self.code_len(c).map_or(0, u32::from)
    }

    fn access(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        if let Some(s) = self.single_symbol {
            return s;
        }
        let mut node = self.root.expect("non-empty tree") as usize;
        let mut pos = i;
        loop {
            let n = &self.nodes[node];
            let child = if n.bv.get(pos) {
                pos = n.bv.rank1(pos);
                n.right
            } else {
                pos = n.bv.rank0(pos);
                n.left
            };
            match child {
                Child::Leaf(s) => return s,
                Child::Internal(i) => node = i as usize,
            }
        }
    }

    fn rank(&self, c: u32, pos: usize) -> usize {
        debug_assert!(pos <= self.len);
        if let Some(s) = self.single_symbol {
            return if c == s { pos } else { 0 };
        }
        let Some(Some((code, len))) = self.codes.get(c as usize).copied() else {
            return 0;
        };
        let mut node = self.root.expect("non-empty tree") as usize;
        let mut p = pos;
        for depth in 0..len {
            let n = &self.nodes[node];
            let bit = (code >> (len - 1 - depth)) & 1 == 1;
            let child = if bit {
                p = n.bv.rank1(p);
                n.right
            } else {
                p = n.bv.rank0(p);
                n.left
            };
            if p == 0 {
                return 0;
            }
            match child {
                Child::Leaf(_) => return p,
                Child::Internal(i) => node = i as usize,
            }
        }
        unreachable!("code paths always end at a leaf")
    }

    /// Paired-boundary rank in one walk down the symbol's code path: both
    /// positions share every node lookup and code-bit decode, and their
    /// per-node bit-vector ranks land in nearby (late in a backward search,
    /// the same) rank superblocks.
    fn rank2(&self, c: u32, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= j && j <= self.len);
        if let Some(s) = self.single_symbol {
            return if c == s { (i, j) } else { (0, 0) };
        }
        let Some(Some((code, len))) = self.codes.get(c as usize).copied() else {
            return (0, 0);
        };
        let mut node = self.root.expect("non-empty tree") as usize;
        let mut pi = i;
        let mut pj = j;
        for depth in 0..len {
            let n = &self.nodes[node];
            let bit = (code >> (len - 1 - depth)) & 1 == 1;
            // Ranks are monotone, so pi ≤ pj is invariant: pj == 0 implies
            // pi == 0, and once pi hits 0 it stays 0 through the remaining
            // levels — no lower-boundary special case needed.
            let child = if bit {
                (pi, pj) = n.bv.rank1_pair(pi, pj);
                n.right
            } else {
                (pi, pj) = n.bv.rank0_pair(pi, pj);
                n.left
            };
            if pj == 0 {
                return (0, 0);
            }
            match child {
                Child::Leaf(_) => return (pi, pj),
                Child::Internal(i) => node = i as usize,
            }
        }
        unreachable!("code paths always end at a leaf")
    }

    fn size_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.bv.size_bytes() + std::mem::size_of::<Node>())
            .sum::<usize>()
            + self.codes.len() * std::mem::size_of::<Option<(u64, u8)>>()
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
        let seq = vec![3, 1, 4, 1, 5, 1, 2, 6, 5, 3, 1, 1, 1];
        let wt = HuffmanWaveletTree::new(&seq, 8);
        for (i, &s) in seq.iter().enumerate() {
            assert_eq!(wt.access(i), s, "access({i})");
        }
        for c in 0..8 {
            for pos in 0..=seq.len() {
                assert_eq!(
                    wt.rank(c, pos),
                    reference_rank(&seq, c, pos),
                    "rank({c},{pos})"
                );
            }
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        // 1 dominates; its code must be no longer than that of the rare 7.
        let mut seq = vec![1u32; 100];
        seq.extend_from_slice(&[7, 6, 5, 4, 3, 2]);
        let wt = HuffmanWaveletTree::new(&seq, 8);
        let len1 = wt.code_len(1).unwrap();
        let len7 = wt.code_len(7).unwrap();
        assert!(
            len1 < len7,
            "frequent symbol: {len1} bits, rare: {len7} bits"
        );
        assert_eq!(wt.code_len(0), None, "absent symbol has no code");
    }

    #[test]
    fn figure3_bwt_ranks() {
        let bwt = vec![5, 6, 5, 5, 0, 0, 0, 0, 1, 1, 1, 1, 3, 2, 4, 2, 2];
        let wt = HuffmanWaveletTree::new(&bwt, 7);
        assert_eq!(wt.rank(1, 8), 0);
        assert_eq!(wt.rank(1, 11), 3);
    }

    #[test]
    fn single_symbol_sequence() {
        let wt = HuffmanWaveletTree::new(&[4, 4, 4, 4], 8);
        assert_eq!(wt.rank(4, 3), 3);
        assert_eq!(wt.rank(2, 3), 0);
        assert_eq!(wt.access(2), 4);
    }

    #[test]
    fn empty_sequence() {
        let wt = HuffmanWaveletTree::new(&[], 8);
        assert_eq!(wt.len(), 0);
        assert_eq!(wt.rank(1, 0), 0);
    }

    #[test]
    fn absent_symbol_ranks_zero() {
        let wt = HuffmanWaveletTree::new(&[1, 2, 1, 2], 10);
        assert_eq!(wt.rank(5, 4), 0);
        assert_eq!(wt.rank(9, 4), 0);
    }

    #[test]
    fn persist_round_trip_preserves_shape_and_ranks() {
        for seq in [
            vec![],
            vec![4u32, 4, 4],
            vec![3, 1, 4, 1, 5, 1, 2, 6, 5, 3, 1, 1, 1],
        ] {
            let wt = HuffmanWaveletTree::new(&seq, 8);
            let mut w = tthr_store::ByteWriter::new();
            wt.persist(&mut w);
            let bytes = w.into_bytes();
            let mut r = tthr_store::ByteReader::new(&bytes);
            let restored = HuffmanWaveletTree::restore(&mut r).unwrap();
            r.expect_exhausted("huffman tree").unwrap();
            assert_eq!(restored.len(), seq.len());
            for c in 0..8u32 {
                assert_eq!(restored.code_len(c), wt.code_len(c), "code({c})");
                for pos in 0..=seq.len() {
                    assert_eq!(restored.rank(c, pos), wt.rank(c, pos), "rank({c},{pos})");
                }
            }
            for i in 0..seq.len() {
                assert_eq!(restored.access(i), wt.access(i));
            }
        }
    }

    #[test]
    fn persist_rejects_length_inconsistent_with_bit_vectors() {
        let seq = vec![3u32, 1, 4, 1, 5, 1, 2, 6, 5, 3];
        let wt = HuffmanWaveletTree::new(&seq, 8);
        let mut w = tthr_store::ByteWriter::new();
        wt.persist(&mut w);
        let mut bytes = w.into_bytes();
        // The wire form opens with the sequence length (u64 LE); claim a
        // longer sequence than the node bit vectors cover. A rank at the
        // claimed length would index past the root's words — restore must
        // reject it instead of deferring the panic to query time.
        bytes[..8].copy_from_slice(&1000u64.to_le_bytes());
        let result = HuffmanWaveletTree::restore(&mut tthr_store::ByteReader::new(&bytes));
        assert!(matches!(
            result,
            Err(tthr_store::StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn rank2_crosses_word_and_superblock_boundaries() {
        // Skewed sequence (1 dominates) long enough that the root bit
        // vector spans several superblocks; pairs probe the 64/512 marks.
        let seq: Vec<u32> = (0..1600)
            .map(|i| if i % 3 == 0 { (i as u32 / 3) % 20 } else { 1 })
            .collect();
        let wt = HuffmanWaveletTree::new(&seq, 20);
        for c in [0u32, 1, 7, 19] {
            for &(i, j) in &[
                (0, 0),
                (0, 1600),
                (63, 65),
                (511, 513),
                (512, 1024),
                (1599, 1600),
            ] {
                assert_eq!(
                    wt.rank2(c, i, j),
                    (wt.rank(c, i), wt.rank(c, j)),
                    "rank2({c},{i},{j})"
                );
            }
        }
    }

    #[test]
    fn rank2_single_symbol_and_absent() {
        let wt = HuffmanWaveletTree::new(&[4, 4, 4, 4], 8);
        assert_eq!(wt.rank2(4, 1, 3), (1, 3));
        assert_eq!(wt.rank2(2, 1, 3), (0, 0));
        let wt = HuffmanWaveletTree::new(&[1, 2, 1, 2], 10);
        assert_eq!(wt.rank2(9, 0, 4), (0, 0), "absent symbol");
        assert_eq!(wt.rank2(77, 0, 4), (0, 0), "out-of-alphabet symbol");
    }

    proptest::proptest! {
        #[test]
        fn rank_matches_reference(
            seq in proptest::collection::vec(0u32..50, 1..400),
        ) {
            let wt = HuffmanWaveletTree::new(&seq, 50);
            for c in [0u32, 1, 7, 25, 49] {
                for pos in [0, seq.len() / 2, seq.len()] {
                    proptest::prop_assert_eq!(wt.rank(c, pos), reference_rank(&seq, c, pos));
                }
            }
            for (i, &s) in seq.iter().enumerate().take(64) {
                proptest::prop_assert_eq!(wt.access(i), s);
            }
        }

        /// `rank2(c, i, j) == (rank(c, i), rank(c, j))` on skewed sequences
        /// whose Huffman shape is deep, across word/superblock boundaries.
        #[test]
        fn rank2_matches_two_ranks(
            seq in proptest::collection::vec(0u32..50, 1..1500),
            probes in proptest::collection::vec((0usize..1501, 0usize..1501, 0u32..55), 0..64),
        ) {
            let wt = HuffmanWaveletTree::new(&seq, 50);
            let n = seq.len();
            for (a, b, c) in probes {
                let (i, j) = (a.min(b).min(n), a.max(b).min(n));
                proptest::prop_assert_eq!(wt.rank2(c, i, j), (wt.rank(c, i), wt.rank(c, j)));
            }
        }

        #[test]
        fn agrees_with_wavelet_matrix(
            seq in proptest::collection::vec(0u32..20, 0..300),
        ) {
            use crate::wavelet::WaveletMatrix;
            let wt = HuffmanWaveletTree::new(&seq, 20);
            let wm = WaveletMatrix::new(&seq, 20);
            for c in 0..20u32 {
                proptest::prop_assert_eq!(wt.rank(c, seq.len()), wm.rank(c, seq.len()));
            }
        }
    }
}
