//! An in-memory B+-tree multimap keyed by timestamp.
//!
//! The original SNT-index keeps a forest of B+-trees as its temporal indexes
//! (paper, Section 4.1.2; the C++ implementation uses Google's cpp-btree
//! `btree_multimap`). This is a from-scratch equivalent: timestamps are
//! non-unique keys, inserts are stable (equal keys keep insertion order),
//! and range scans visit entries in ascending key order.

use crate::entry::LeafEntry;
use crate::TemporalIndex;
use std::ops::ControlFlow;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// Maximum entries per leaf node.
const LEAF_CAP: usize = 32;
/// Maximum keys per internal node (children = keys + 1).
const INTERNAL_CAP: usize = 32;

#[derive(Clone, Debug)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal {
        /// `keys[i]` is the first key of `children[i + 1]`.
        keys: Vec<i64>,
        children: Vec<Node>,
    },
}

/// A B+-tree multimap from timestamps to [`LeafEntry`] records.
#[derive(Clone, Debug)]
pub struct BPlusTree {
    root: Node,
    len: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BPlusTree {
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Bulk-loads from entries already sorted by `time` (ties in any order).
    /// Nodes are filled to ~¾ capacity, leaving slack for later inserts.
    pub fn from_sorted(entries: Vec<LeafEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].time <= w[1].time));
        let len = entries.len();
        if len == 0 {
            return Self::new();
        }
        let per_leaf = LEAF_CAP * 3 / 4;
        let mut level: Vec<Node> = Vec::with_capacity(len.div_ceil(per_leaf));
        let mut iter = entries.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<LeafEntry> = iter.by_ref().take(per_leaf).collect();
            level.push(Node::Leaf(chunk));
        }
        let per_internal = INTERNAL_CAP * 3 / 4;
        while level.len() > 1 {
            let mut next: Vec<Node> = Vec::with_capacity(level.len().div_ceil(per_internal + 1));
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<Node> = iter.by_ref().take(per_internal + 1).collect();
                let keys = children[1..].iter().map(first_key).collect();
                next.push(Node::Internal { keys, children });
            }
            level = next;
        }
        BPlusTree {
            root: level.into_iter().next().expect("non-empty"),
            len,
        }
    }

    /// Inserts an entry (duplicate timestamps allowed; equal keys keep
    /// insertion order).
    pub fn insert(&mut self, entry: LeafEntry) {
        self.len += 1;
        if let Some((key, right)) = insert_rec(&mut self.root, entry) {
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            self.root = Node::Internal {
                keys: vec![key],
                children: vec![old_root, right],
            };
        }
    }
}

/// Wire form: the entries in ascending scan order. The node structure is
/// rebuilt with [`BPlusTree::from_sorted`]; scans visit the same entries
/// in the same order, so query results are unchanged even though the
/// rebuilt node boundaries may differ from an insert-grown original.
impl Persist for BPlusTree {
    fn persist(&self, w: &mut ByteWriter) {
        let mut entries = Vec::with_capacity(self.len);
        let _ = self.scan_range(i64::MIN, i64::MAX, &mut |e| {
            entries.push(*e);
            ControlFlow::Continue(())
        });
        // Timestamps of i64::MAX cannot exist (the index computes
        // `max_key + 1` elsewhere), so the scan is exhaustive.
        debug_assert_eq!(entries.len(), self.len);
        w.put_seq(&entries);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let entries: Vec<LeafEntry> = LeafEntry::records(r)?.collect();
        if entries.windows(2).any(|w| w[0].time > w[1].time) {
            return Err(StoreError::corrupt("b+-tree entries out of time order"));
        }
        Ok(BPlusTree::from_sorted(entries))
    }
}

/// First key under a node (leftmost descent).
fn first_key(node: &Node) -> i64 {
    match node {
        Node::Leaf(entries) => entries[0].time,
        Node::Internal { children, .. } => first_key(&children[0]),
    }
}

/// Recursive insert; returns the promotion `(key, new right sibling)` when
/// the child split.
fn insert_rec(node: &mut Node, entry: LeafEntry) -> Option<(i64, Node)> {
    match node {
        Node::Leaf(entries) => {
            // Stable multimap position: after all equal keys.
            let pos = entries.partition_point(|e| e.time <= entry.time);
            entries.insert(pos, entry);
            if entries.len() <= LEAF_CAP {
                return None;
            }
            let right = entries.split_off(entries.len() / 2);
            let key = right[0].time;
            Some((key, Node::Leaf(right)))
        }
        Node::Internal { keys, children } => {
            let idx = keys.partition_point(|k| *k <= entry.time);
            let promoted = insert_rec(&mut children[idx], entry)?;
            keys.insert(idx, promoted.0);
            children.insert(idx + 1, promoted.1);
            if keys.len() <= INTERNAL_CAP {
                return None;
            }
            // Split: middle key moves up.
            let mid = keys.len() / 2;
            let up_key = keys[mid];
            let right_keys = keys.split_off(mid + 1);
            keys.pop(); // remove the promoted middle key
            let right_children = children.split_off(mid + 1);
            Some((
                up_key,
                Node::Internal {
                    keys: right_keys,
                    children: right_children,
                },
            ))
        }
    }
}

/// Ascending scan of `[lo, hi)`. `Break` propagation stops the traversal,
/// whether it came from the callback or from passing `hi`; the wrapper
/// disambiguates via `cb_broke`.
fn scan_rec(
    node: &Node,
    lo: i64,
    hi: i64,
    f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match node {
        Node::Leaf(entries) => {
            let start = entries.partition_point(|e| e.time < lo);
            for e in &entries[start..] {
                if e.time >= hi {
                    return ControlFlow::Break(());
                }
                f(e)?;
            }
            ControlFlow::Continue(())
        }
        Node::Internal { keys, children } => {
            // First child that can contain a key ≥ lo. A child may contain
            // keys equal to its right separator (duplicate splits), so use
            // `< lo` rather than `≤ lo`.
            let start = keys.partition_point(|k| *k < lo);
            for i in start..children.len() {
                if i > 0 && keys[i - 1] >= hi {
                    return ControlFlow::Continue(());
                }
                scan_rec(&children[i], lo, hi, f)?;
            }
            ControlFlow::Continue(())
        }
    }
}

fn size_rec(node: &Node) -> usize {
    match node {
        Node::Leaf(entries) => entries.capacity() * std::mem::size_of::<LeafEntry>(),
        Node::Internal { keys, children } => {
            keys.capacity() * std::mem::size_of::<i64>()
                + children.capacity() * std::mem::size_of::<Node>()
                + children.iter().map(size_rec).sum::<usize>()
        }
    }
}

impl TemporalIndex for BPlusTree {
    fn len(&self) -> usize {
        self.len
    }

    fn min_key(&self) -> Option<i64> {
        if self.len == 0 {
            return None;
        }
        Some(first_key(&self.root))
    }

    fn max_key(&self) -> Option<i64> {
        if self.len == 0 {
            return None;
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(entries) => return Some(entries.last().expect("non-empty").time),
                Node::Internal { children, .. } => {
                    node = children.last().expect("internal nodes have children")
                }
            }
        }
    }

    fn scan_range(
        &self,
        lo: i64,
        hi: i64,
        f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo >= hi || self.len == 0 {
            return ControlFlow::Continue(());
        }
        let mut cb_broke = false;
        let _ = scan_rec(&self.root, lo, hi, &mut |e| match f(e) {
            ControlFlow::Break(()) => {
                cb_broke = true;
                ControlFlow::Break(())
            }
            c => c,
        });
        if cb_broke {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn range_count(&self, lo: i64, hi: i64) -> usize {
        // The B+-tree has no order statistics; counting requires a scan.
        // This is exactly the asymmetry the paper's CSS-mode estimators
        // exploit (Section 4.4).
        let mut n = 0usize;
        let _ = self.scan_range(lo, hi, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Node>() + size_rec(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(time: i64, traj: u32) -> LeafEntry {
        LeafEntry {
            time,
            aggregate: time as f64,
            travel_time: 1.0,
            isa: traj,
            traj,
            seq: 0,
            partition: 0,
        }
    }

    #[test]
    fn insert_and_scan_in_order() {
        let mut t = BPlusTree::new();
        for i in (0..100).rev() {
            t.insert(e(i, i as u32));
        }
        assert_eq!(t.len(), 100);
        let got = t.collect_range(10, 20);
        let times: Vec<i64> = got.iter().map(|x| x.time).collect();
        assert_eq!(times, (10..20).collect::<Vec<_>>());
        assert_eq!(t.min_key(), Some(0));
        assert_eq!(t.max_key(), Some(99));
    }

    #[test]
    fn duplicate_keys_are_kept_in_insertion_order() {
        let mut t = BPlusTree::new();
        for traj in 0..50u32 {
            t.insert(e(7, traj));
        }
        let got = t.collect_range(7, 8);
        let trajs: Vec<u32> = got.iter().map(|x| x.traj).collect();
        assert_eq!(trajs, (0..50).collect::<Vec<_>>());
        assert_eq!(t.range_count(7, 8), 50);
        assert_eq!(t.range_count(8, 100), 0);
    }

    #[test]
    fn persist_round_trip_preserves_scan_order() {
        // Insert-grown tree with duplicate keys: the restored tree must
        // scan the same entries in the same (stable) order.
        let mut t = BPlusTree::new();
        for i in (0..300).rev() {
            t.insert(e(i / 4, i as u32));
        }
        let mut w = tthr_store::ByteWriter::new();
        t.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = tthr_store::ByteReader::new(&bytes);
        let restored = BPlusTree::restore(&mut r).unwrap();
        r.expect_exhausted("b+ tree").unwrap();
        assert_eq!(restored.len(), t.len());
        assert_eq!(
            restored.collect_range(i64::MIN, i64::MAX),
            t.collect_range(i64::MIN, i64::MAX)
        );
        // Inserts still work after a restore.
        let mut restored = restored;
        restored.insert(e(-5, 9999));
        assert_eq!(restored.min_key(), Some(-5));
    }

    #[test]
    fn early_break_stops_scan() {
        let mut t = BPlusTree::new();
        for i in 0..1000 {
            t.insert(e(i, i as u32));
        }
        let mut seen = 0;
        let flow = t.scan_range(0, 1000, &mut |_| {
            seen += 1;
            if seen == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 5);
        assert_eq!(flow, ControlFlow::Break(()));
        // A scan that ends by range exhaustion reports Continue.
        let flow2 = t.scan_range(0, 3, &mut |_| ControlFlow::Continue(()));
        assert_eq!(flow2, ControlFlow::Continue(()));
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let entries: Vec<LeafEntry> = (0..500).map(|i| e(i * 3 % 1000, i as u32)).collect();
        let mut sorted = entries.clone();
        sorted.sort_by_key(|x| x.time);
        let bulk = BPlusTree::from_sorted(sorted.clone());
        let mut inc = BPlusTree::new();
        for x in sorted.iter() {
            inc.insert(*x);
        }
        assert_eq!(bulk.len(), inc.len());
        let a = bulk.collect_range(i64::MIN, i64::MAX);
        let b = inc.collect_range(i64::MIN, i64::MAX);
        let at: Vec<i64> = a.iter().map(|x| x.time).collect();
        let bt: Vec<i64> = b.iter().map(|x| x.time).collect();
        assert_eq!(at, bt);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BPlusTree::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.min_key(), None);
        assert_eq!(t.max_key(), None);
        assert!(t.collect_range(0, 100).is_empty());
        assert_eq!(t.range_count(0, 100), 0);
    }

    #[test]
    fn inverted_and_empty_ranges() {
        let mut t = BPlusTree::new();
        t.insert(e(5, 0));
        assert!(t.collect_range(10, 5).is_empty());
        assert!(t.collect_range(5, 5).is_empty());
        assert_eq!(t.collect_range(5, 6).len(), 1);
    }

    proptest::proptest! {
        #[test]
        fn matches_sorted_vec_reference(
            times in proptest::collection::vec(0i64..500, 0..600),
            ranges in proptest::collection::vec((0i64..500, 0i64..500), 1..20),
        ) {
            let mut t = BPlusTree::new();
            let mut reference: Vec<i64> = Vec::new();
            for (i, &time) in times.iter().enumerate() {
                t.insert(e(time, i as u32));
                reference.push(time);
            }
            reference.sort_unstable();
            for (a, b) in ranges {
                let (lo, hi) = (a.min(b), a.max(b));
                let got: Vec<i64> = t.collect_range(lo, hi).iter().map(|x| x.time).collect();
                let want: Vec<i64> = reference.iter().copied().filter(|&x| lo <= x && x < hi).collect();
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(t.range_count(lo, hi), want.len());
            }
            proptest::prop_assert_eq!(t.min_key(), reference.first().copied());
            proptest::prop_assert_eq!(t.max_key(), reference.last().copied());
        }
    }
}
