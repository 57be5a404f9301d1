//! Cache-sensitive search tree (CSS-tree) over a sorted entry array.
//!
//! Rao & Ross (1999): a pointerless directory of node-sized key groups laid
//! over a sorted array. The paper uses it as an append-only replacement for
//! the B+-tree forest: less memory (no per-node pointers, no slack), fewer
//! cache misses per lookup, and — crucially for the cardinality estimator —
//! the size of any key range in logarithmic time (Sections 4.3.1, 4.4).
//!
//! Appends must arrive in non-decreasing key order (the trajectory loader
//! feeds traversals in timestamp order). The directory maintains, per level,
//! the maximum key of each group of [`FANOUT`] lower-level slots; appending
//! a new maximum only touches the rightmost path, so amortized append cost
//! is O(1).

use crate::entry::LeafEntry;
use crate::TemporalIndex;
use std::ops::ControlFlow;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// Keys per directory node — 8 × `i64` fills one 64-byte cache line.
const FANOUT: usize = 8;

/// An append-only CSS-tree keyed by [`LeafEntry::time`].
#[derive(Clone, Debug, Default)]
pub struct CssTree {
    entries: Vec<LeafEntry>,
    /// `levels[0][b]` = max key of entry block `b` (blocks of `FANOUT`
    /// entries); `levels[l][g]` = max key of group `g` of `FANOUT` slots at
    /// level `l − 1`. The top level has at most `FANOUT` slots.
    levels: Vec<Vec<i64>>,
}

impl CssTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-loads from entries already sorted by time.
    pub fn from_sorted(mut entries: Vec<LeafEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].time <= w[1].time));
        // The sorted array is the index; don't carry the producer's growth
        // slack (a pointerless structure's memory edge over the B+-tree is
        // the point of the CSS-tree).
        entries.shrink_to_fit();
        let mut tree = CssTree {
            entries,
            levels: Vec::new(),
        };
        tree.rebuild_directory();
        tree
    }

    /// Appends an entry whose key is ≥ the current maximum.
    ///
    /// # Panics
    /// Panics on out-of-order appends — the CSS-tree is an *append-only*
    /// structure; use [`crate::BPlusTree`] for arbitrary-order inserts.
    pub fn append(&mut self, entry: LeafEntry) {
        if let Some(last) = self.entries.last() {
            assert!(
                last.time <= entry.time,
                "CSS-tree appends must be in non-decreasing key order"
            );
        }
        self.entries.push(entry);
        // Update the rightmost directory path: the new key is the global max.
        let mut slot = (self.entries.len() - 1) / FANOUT;
        for l in 0..self.levels.len() {
            if slot == self.levels[l].len() {
                self.levels[l].push(entry.time);
            } else {
                debug_assert_eq!(slot + 1, self.levels[l].len());
                self.levels[l][slot] = entry.time;
            }
            slot = self.levels[l].len().saturating_sub(1) / FANOUT;
        }
        // Grow a new level if the top spilled past one node.
        while self
            .levels
            .last()
            .map(|top| top.len() > FANOUT)
            .unwrap_or(!self.entries.is_empty() && self.levels.is_empty())
        {
            let top: Vec<i64> = match self.levels.last() {
                Some(top) => top
                    .chunks(FANOUT)
                    .map(|c| *c.last().expect("non-empty"))
                    .collect(),
                None => self
                    .entries
                    .chunks(FANOUT)
                    .map(|c| c.last().expect("non-empty").time)
                    .collect(),
            };
            self.levels.push(top);
        }
    }

    /// Extends the tree with a time-sorted batch of entries.
    ///
    /// Fast path: when the batch starts at or after the current maximum,
    /// this is a sequence of pure appends. Otherwise the overlapping tail
    /// of the array is spliced and merged (existing entries keep priority
    /// on timestamp ties) and the directory is rebuilt — batch updates with
    /// slightly overlapping time ranges are exactly the workload the
    /// paper's temporal partitioning targets.
    pub fn extend_sorted(&mut self, batch: Vec<LeafEntry>) {
        debug_assert!(batch.windows(2).all(|w| w[0].time <= w[1].time));
        let Some(first) = batch.first() else {
            return;
        };
        if self
            .entries
            .last()
            .map(|l| l.time <= first.time)
            .unwrap_or(true)
        {
            for leaf in batch {
                self.append(leaf);
            }
            return;
        }
        // Merge the overlapping tail.
        let splice = self.lower_bound(first.time);
        let tail: Vec<LeafEntry> = self.entries.split_off(splice);
        self.entries.reserve(tail.len() + batch.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < tail.len() && j < batch.len() {
            // `<=` keeps existing entries first on ties (matching the
            // stable time sort a from-scratch build performs).
            if tail[i].time <= batch[j].time {
                self.entries.push(tail[i]);
                i += 1;
            } else {
                self.entries.push(batch[j]);
                j += 1;
            }
        }
        self.entries.extend_from_slice(&tail[i..]);
        self.entries.extend_from_slice(&batch[j..]);
        self.rebuild_directory();
    }

    fn rebuild_directory(&mut self) {
        self.levels.clear();
        if self.entries.is_empty() {
            return;
        }
        let mut level: Vec<i64> = self
            .entries
            .chunks(FANOUT)
            .map(|c| c.last().expect("non-empty").time)
            .collect();
        while level.len() > FANOUT {
            let next = level
                .chunks(FANOUT)
                .map(|c| *c.last().expect("non-empty"))
                .collect();
            self.levels.push(level);
            level = next;
        }
        self.levels.push(level);
    }

    /// Index of the first entry with `time ≥ key`, via directory descent —
    /// `O(log_FANOUT n)` node visits, each one cache line.
    pub(crate) fn lower_bound(&self, key: i64) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        // Descend from the top level to a level-0 block.
        let mut slot = 0usize; // slot index at the current level
        for l in (0..self.levels.len()).rev() {
            let level = &self.levels[l];
            let start = slot * FANOUT;
            let end = (start + FANOUT).min(level.len());
            debug_assert!(start < level.len());
            // First slot whose subtree max is ≥ key; if none, the answer
            // lies past this subtree — clamp to the last slot.
            let mut next = end - 1;
            for (i, &max) in level[start..end].iter().enumerate() {
                if max >= key {
                    next = start + i;
                    break;
                }
            }
            slot = next;
        }
        // `slot` is now a level-0 block index.
        let start = slot * FANOUT;
        let end = (start + FANOUT).min(self.entries.len());
        let within = self.entries[start..end].partition_point(|e| e.time < key);
        (start + within).min(self.entries.len())
    }

    /// Direct slice access to the sorted entries.
    pub fn entries(&self) -> &[LeafEntry] {
        &self.entries
    }
}

/// Wire form: the sorted entry array. The directory is derived and is
/// rebuilt on restore; restoring validates the sort invariant so a
/// corrupt payload cannot produce wrong range scans.
impl Persist for CssTree {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_seq(&self.entries);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let entries = LeafEntry::restore_seq(r)?;
        if entries.windows(2).any(|w| w[0].time > w[1].time) {
            return Err(StoreError::corrupt("css-tree entries out of time order"));
        }
        Ok(CssTree::from_sorted(entries))
    }
}

impl TemporalIndex for CssTree {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn min_key(&self) -> Option<i64> {
        self.entries.first().map(|e| e.time)
    }

    fn max_key(&self) -> Option<i64> {
        self.entries.last().map(|e| e.time)
    }

    fn scan_range(
        &self,
        lo: i64,
        hi: i64,
        f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo >= hi {
            return ControlFlow::Continue(());
        }
        let start = self.lower_bound(lo);
        for e in &self.entries[start..] {
            if e.time >= hi {
                break;
            }
            f(e)?;
        }
        ControlFlow::Continue(())
    }

    fn range_count(&self, lo: i64, hi: i64) -> usize {
        if lo >= hi {
            return 0;
        }
        self.lower_bound(hi) - self.lower_bound(lo)
    }

    fn size_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<LeafEntry>()
            + self
                .levels
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<i64>())
                .sum::<usize>()
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
    fn lower_bound_on_small_tree() {
        let t = CssTree::from_sorted((0..20).map(|i| e(i * 2, i as u32)).collect());
        assert_eq!(t.lower_bound(-5), 0);
        assert_eq!(t.lower_bound(0), 0);
        assert_eq!(t.lower_bound(1), 1);
        assert_eq!(t.lower_bound(2), 1);
        assert_eq!(t.lower_bound(37), 19);
        assert_eq!(t.lower_bound(38), 19);
        assert_eq!(t.lower_bound(39), 20);
        assert_eq!(t.lower_bound(1000), 20);
    }

    #[test]
    fn appends_maintain_directory() {
        let mut t = CssTree::new();
        for i in 0..1000i64 {
            t.append(e(i, i as u32));
            // Invariant probe on a sample of keys.
            if i % 97 == 0 {
                assert_eq!(t.lower_bound(i / 2), (i / 2) as usize);
            }
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.range_count(100, 200), 100);
        assert_eq!(t.min_key(), Some(0));
        assert_eq!(t.max_key(), Some(999));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_append_panics() {
        let mut t = CssTree::new();
        t.append(e(10, 0));
        t.append(e(5, 1));
    }

    #[test]
    fn duplicate_keys() {
        let mut t = CssTree::new();
        for traj in 0..100u32 {
            t.append(e(42, traj));
        }
        assert_eq!(t.range_count(42, 43), 100);
        assert_eq!(t.range_count(41, 42), 0);
        let got = t.collect_range(42, 43);
        let trajs: Vec<u32> = got.iter().map(|x| x.traj).collect();
        assert_eq!(trajs, (0..100).collect::<Vec<_>>(), "stable order");
    }

    #[test]
    fn scan_early_break() {
        let t = CssTree::from_sorted((0..100).map(|i| e(i, i as u32)).collect());
        let mut seen = 0;
        let flow = t.scan_range(0, 100, &mut |_| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 3);
        assert_eq!(flow, ControlFlow::Break(()));
    }

    #[test]
    fn empty_tree() {
        let t = CssTree::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.lower_bound(5), 0);
        assert_eq!(t.range_count(0, 10), 0);
        assert!(t.collect_range(0, 10).is_empty());
        assert_eq!(t.min_key(), None);
    }

    #[test]
    fn bulk_equals_appended() {
        let entries: Vec<LeafEntry> = (0..500).map(|i| e(i / 3, i as u32)).collect();
        let bulk = CssTree::from_sorted(entries.clone());
        let mut app = CssTree::new();
        for x in &entries {
            app.append(*x);
        }
        for key in [-1, 0, 5, 50, 166, 167, 200] {
            assert_eq!(bulk.lower_bound(key), app.lower_bound(key), "key {key}");
        }
    }

    #[test]
    fn css_uses_less_memory_than_bplus() {
        // The paper's Figure 10a: the B+-forest needs slightly more memory
        // than the CSS-forest.
        let entries: Vec<LeafEntry> = (0..10_000).map(|i| e(i, i as u32)).collect();
        let css = CssTree::from_sorted(entries.clone());
        let bt = crate::BPlusTree::from_sorted(entries);
        assert!(
            css.size_bytes() < bt.size_bytes(),
            "CSS {} B vs B+ {} B",
            css.size_bytes(),
            bt.size_bytes()
        );
    }

    #[test]
    fn extend_sorted_fast_path_appends() {
        let mut t = CssTree::from_sorted((0..50).map(|i| e(i, i as u32)).collect());
        t.extend_sorted((50..80).map(|i| e(i, i as u32)).collect());
        assert_eq!(t.len(), 80);
        assert_eq!(t.range_count(0, 80), 80);
        assert!(t.entries().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn extend_sorted_merges_overlap() {
        let mut t = CssTree::from_sorted((0..50).map(|i| e(i * 2, i as u32)).collect());
        // Batch overlaps the tail: times 80..120 interleave with 80..98.
        t.extend_sorted((40..60).map(|i| e(i * 2, 1000 + i as u32)).collect());
        assert_eq!(t.len(), 70);
        assert!(t.entries().windows(2).all(|w| w[0].time <= w[1].time));
        // Ties keep the existing entry first.
        let at80: Vec<u32> = t.collect_range(80, 81).iter().map(|x| x.traj).collect();
        assert_eq!(at80, vec![40, 1040]);
        // Directory still answers correctly after the rebuild: 10 base
        // entries (80, 82, …, 98) + 20 batch entries (80, 82, …, 118).
        assert_eq!(t.range_count(80, 120), 30);
        assert_eq!(
            t.lower_bound(100),
            t.entries().partition_point(|x| x.time < 100)
        );
    }

    #[test]
    fn extend_sorted_empty_batch_is_noop() {
        let mut t = CssTree::from_sorted((0..10).map(|i| e(i, i as u32)).collect());
        t.extend_sorted(Vec::new());
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn persist_round_trip_rebuilds_directory() {
        let t = CssTree::from_sorted((0..500).map(|i| e(i / 3, i as u32)).collect());
        let mut w = tthr_store::ByteWriter::new();
        t.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = tthr_store::ByteReader::new(&bytes);
        let restored = CssTree::restore(&mut r).unwrap();
        r.expect_exhausted("css tree").unwrap();
        assert_eq!(restored.entries(), t.entries());
        for key in [-1, 0, 50, 166, 167] {
            assert_eq!(restored.lower_bound(key), t.lower_bound(key));
        }
        // Appends still work after a restore (the directory is live).
        let mut restored = restored;
        restored.append(e(1000, 9999));
        assert_eq!(restored.max_key(), Some(1000));
    }

    #[test]
    fn persist_rejects_unsorted_entries() {
        let mut w = tthr_store::ByteWriter::new();
        w.put_seq(&[e(10, 0), e(5, 1)]);
        let bytes = w.into_bytes();
        let result = CssTree::restore(&mut tthr_store::ByteReader::new(&bytes));
        assert!(matches!(
            result,
            Err(tthr_store::StoreError::Corrupt { .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn extend_sorted_matches_full_rebuild(
            mut base in proptest::collection::vec(0i64..500, 0..200),
            mut batch in proptest::collection::vec(0i64..600, 0..200),
        ) {
            base.sort_unstable();
            batch.sort_unstable();
            let mut t = CssTree::from_sorted(
                base.iter().enumerate().map(|(i, &x)| e(x, i as u32)).collect());
            t.extend_sorted(
                batch.iter().enumerate().map(|(i, &x)| e(x, 10_000 + i as u32)).collect());
            let mut want = base.clone();
            want.extend(&batch);
            want.sort_unstable();
            let got: Vec<i64> = t.entries().iter().map(|x| x.time).collect();
            proptest::prop_assert_eq!(got, want);
            // Directory invariant: probe lower_bound at several keys.
            for key in [0i64, 100, 250, 599] {
                proptest::prop_assert_eq!(
                    t.lower_bound(key),
                    t.entries().partition_point(|x| x.time < key)
                );
            }
        }

        #[test]
        fn matches_sorted_vec_reference(
            mut times in proptest::collection::vec(0i64..300, 0..500),
            ranges in proptest::collection::vec((0i64..300, 0i64..300), 1..20),
        ) {
            times.sort_unstable();
            let mut t = CssTree::new();
            for (i, &time) in times.iter().enumerate() {
                t.append(e(time, i as u32));
            }
            for (a, b) in ranges {
                let (lo, hi) = (a.min(b), a.max(b));
                let got: Vec<i64> = t.collect_range(lo, hi).iter().map(|x| x.time).collect();
                let want: Vec<i64> = times.iter().copied().filter(|&x| lo <= x && x < hi).collect();
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(t.range_count(lo, hi), want.len());
                proptest::prop_assert_eq!(t.lower_bound(lo), times.partition_point(|&x| x < lo));
            }
        }

        #[test]
        fn css_and_bplus_agree(
            mut times in proptest::collection::vec(0i64..200, 0..300),
            ranges in proptest::collection::vec((0i64..200, 0i64..200), 1..10),
        ) {
            times.sort_unstable();
            let entries: Vec<LeafEntry> =
                times.iter().enumerate().map(|(i, &t)| e(t, i as u32)).collect();
            let css = CssTree::from_sorted(entries.clone());
            let bt = crate::BPlusTree::from_sorted(entries);
            for (a, b) in ranges {
                let (lo, hi) = (a.min(b), a.max(b));
                let c: Vec<u32> = css.collect_range(lo, hi).iter().map(|x| x.traj).collect();
                let d: Vec<u32> = bt.collect_range(lo, hi).iter().map(|x| x.traj).collect();
                proptest::prop_assert_eq!(c, d);
            }
        }
    }
}
