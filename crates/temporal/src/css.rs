//! Cache-sensitive search tree (CSS-tree) over a sorted entry array.
//!
//! Rao & Ross (1999): a pointerless directory of node-sized key groups laid
//! over a sorted array. The paper uses it as an append-only replacement for
//! the B+-tree forest: less memory (no per-node pointers, no slack), fewer
//! cache misses per lookup, and — crucially for the cardinality estimator —
//! the size of any key range in logarithmic time (Sections 4.3.1, 4.4).
//!
//! The sorted array is stored as two columns: the dense key column `keys`
//! (8 timestamps per cache line), which the directory is built over and
//! every search and range bound reads, and the [`Row`] column (the leaf
//! without its time), read once per visited leaf. A periodic query
//! compares one key line per daily window instead of one 40-byte leaf
//! per key, at the same 40 bytes per leaf in memory.
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

/// A [`LeafEntry`] without its key: 30 bytes of payload, 32 in memory.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    aggregate: f64,
    travel_time: f64,
    isa: u32,
    traj: u32,
    seq: u32,
    partition: u16,
}

impl Row {
    fn of(e: &LeafEntry) -> Row {
        Row {
            aggregate: e.aggregate,
            travel_time: e.travel_time,
            isa: e.isa,
            traj: e.traj,
            seq: e.seq,
            partition: e.partition,
        }
    }

    #[inline]
    fn leaf(&self, time: i64) -> LeafEntry {
        LeafEntry {
            time,
            aggregate: self.aggregate,
            travel_time: self.travel_time,
            isa: self.isa,
            traj: self.traj,
            seq: self.seq,
            partition: self.partition,
        }
    }
}

/// An append-only CSS-tree keyed by [`LeafEntry::time`].
#[derive(Clone, Debug, Default)]
pub struct CssTree {
    /// The leaves' timestamps, non-decreasing.
    keys: Vec<i64>,
    /// `rows[i]` is the rest of the leaf keyed by `keys[i]`.
    rows: Vec<Row>,
    /// `levels[0][b]` = max key of key block `b` (blocks of `FANOUT`
    /// keys); `levels[l][g]` = max key of group `g` of `FANOUT` slots at
    /// level `l − 1`. The top level has at most `FANOUT` slots.
    levels: Vec<Vec<i64>>,
}

impl CssTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-loads from entries already sorted by time.
    pub fn from_sorted(entries: Vec<LeafEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].time <= w[1].time));
        let keys = entries.iter().map(|e| e.time).collect();
        // Collected in place: std reuses `entries`' buffer for the rows.
        let mut rows: Vec<Row> = entries.into_iter().map(|e| Row::of(&e)).collect();
        // Exact-size columns: the sorted array is the index, and a
        // pointerless structure's memory edge over the B+-tree is the
        // point of the CSS-tree, so no producer growth slack is carried.
        rows.shrink_to_fit();
        let mut tree = CssTree {
            keys,
            rows,
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
        if let Some(&last) = self.keys.last() {
            assert!(
                last <= entry.time,
                "CSS-tree appends must be in non-decreasing key order"
            );
        }
        self.keys.push(entry.time);
        self.rows.push(Row::of(&entry));
        // Update the rightmost directory path: the new key is the global max.
        let mut slot = (self.keys.len() - 1) / FANOUT;
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
            .unwrap_or(!self.keys.is_empty() && self.levels.is_empty())
        {
            let below = self.levels.last().unwrap_or(&self.keys);
            let top = block_maxima(below);
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
        if self.keys.last().map(|&l| l <= first.time).unwrap_or(true) {
            for leaf in batch {
                self.append(leaf);
            }
            return;
        }
        // Merge the overlapping tail.
        let splice = self.lower_bound(first.time);
        let tail_keys = self.keys.split_off(splice);
        let tail_rows = self.rows.split_off(splice);
        self.keys.reserve(tail_keys.len() + batch.len());
        self.rows.reserve(tail_keys.len() + batch.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < tail_keys.len() && j < batch.len() {
            // `<=` keeps existing entries first on ties (matching the
            // stable time sort a from-scratch build performs).
            if tail_keys[i] <= batch[j].time {
                self.keys.push(tail_keys[i]);
                self.rows.push(tail_rows[i]);
                i += 1;
            } else {
                self.keys.push(batch[j].time);
                self.rows.push(Row::of(&batch[j]));
                j += 1;
            }
        }
        self.keys.extend_from_slice(&tail_keys[i..]);
        self.rows.extend_from_slice(&tail_rows[i..]);
        self.keys.extend(batch[j..].iter().map(|e| e.time));
        self.rows.extend(batch[j..].iter().map(Row::of));
        self.rebuild_directory();
    }

    /// Keeps, in order, the leaves `f` maps to `Some`, each replaced by
    /// what `f` returns under its own key (`f` may rewrite everything but
    /// the time). Compacts both columns in place, without a copy of the
    /// forest, then rebuilds the directory.
    pub fn retain_map(&mut self, mut f: impl FnMut(&LeafEntry) -> Option<LeafEntry>) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if let Some(e) = f(&self.rows[i].leaf(self.keys[i])) {
                debug_assert_eq!(e.time, self.keys[i], "retain_map moved a key");
                self.keys[kept] = self.keys[i];
                self.rows[kept] = Row::of(&e);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.rows.truncate(kept);
        self.keys.shrink_to_fit();
        self.rows.shrink_to_fit();
        self.rebuild_directory();
    }

    fn rebuild_directory(&mut self) {
        self.levels.clear();
        if self.keys.is_empty() {
            return;
        }
        let mut level = block_maxima(&self.keys);
        while level.len() > FANOUT {
            let next = block_maxima(&level);
            self.levels.push(level);
            level = next;
        }
        self.levels.push(level);
    }

    /// Index of the first key `≥ key`, via directory descent —
    /// `O(log_FANOUT n)` node visits, each one cache line.
    pub(crate) fn lower_bound(&self, key: i64) -> usize {
        if self.keys.is_empty() {
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
        let end = (start + FANOUT).min(self.keys.len());
        let within = self.keys[start..end].partition_point(|&k| k < key);
        (start + within).min(self.keys.len())
    }

    /// [`CssTree::lower_bound`] searched forward from `from`. When every
    /// key before `from` is `< key` — `from` is where the previous window
    /// of an ascending sequence ended — the answer is found by galloping
    /// over `keys` from there: the keys between two daily windows are a
    /// few cache lines, where a descent pays a line per level. Any other
    /// `from` descends the directory.
    fn seek(&self, from: usize, key: i64) -> usize {
        let keys = &self.keys;
        if from == 0 || from > keys.len() || keys[from - 1] >= key {
            return self.lower_bound(key);
        }
        // Invariant: keys[..lo] < key. Double the stride until a key
        // ≥ `key` (or the end) brackets the answer.
        let (mut lo, mut hi, mut step) = (from, from, 1usize);
        while hi < keys.len() && keys[hi] < key {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(keys.len());
        lo + keys[lo..hi].partition_point(|&k| k < key)
    }

    /// The leaves in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LeafEntry> + '_ {
        self.keys
            .iter()
            .zip(&self.rows)
            .map(|(&time, row)| row.leaf(time))
    }
}

/// The last (largest) key of each `FANOUT`-slot block of a sorted level.
fn block_maxima(level: &[i64]) -> Vec<i64> {
    level
        .chunks(FANOUT)
        .map(|c| *c.last().expect("non-empty"))
        .collect()
}

/// Wire form: the sorted leaves as a length-prefixed sequence of
/// [`LeafEntry`] records — the same bytes whatever the in-memory column
/// split. The directory is derived and is rebuilt on restore; restoring
/// validates the sort invariant so a corrupt payload cannot produce wrong
/// range scans.
impl Persist for CssTree {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_len(self.keys.len());
        for leaf in self.iter() {
            leaf.persist(w);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let entries: Vec<LeafEntry> = LeafEntry::records(r)?.collect();
        if entries.windows(2).any(|w| w[0].time > w[1].time) {
            return Err(StoreError::corrupt("css-tree entries out of time order"));
        }
        Ok(CssTree::from_sorted(entries))
    }
}

impl TemporalIndex for CssTree {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn min_key(&self) -> Option<i64> {
        self.keys.first().copied()
    }

    fn max_key(&self) -> Option<i64> {
        self.keys.last().copied()
    }

    fn scan_range(
        &self,
        lo: i64,
        hi: i64,
        f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.scan_range_from(&mut 0, lo, hi, f)
    }

    fn scan_range_from(
        &self,
        from: &mut usize,
        lo: i64,
        hi: i64,
        f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo >= hi {
            return ControlFlow::Continue(());
        }
        let start = self.seek(*from, lo);
        // `from` ends on the first key ≥ hi, or on the leaf the callback
        // broke on: either way no later window starts before it.
        *from = start;
        for (&time, row) in self.keys[start..].iter().zip(&self.rows[start..]) {
            if time >= hi {
                break;
            }
            f(&row.leaf(time))?;
            *from += 1;
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
        self.keys.capacity() * std::mem::size_of::<i64>()
            + self.rows.capacity() * std::mem::size_of::<Row>()
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
    fn columns_keep_forty_bytes_per_leaf() {
        assert_eq!(std::mem::size_of::<Row>(), 32);
        assert_eq!(
            std::mem::size_of::<i64>() + std::mem::size_of::<Row>(),
            std::mem::size_of::<LeafEntry>()
        );
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
        assert!(t.keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn extend_sorted_merges_overlap() {
        let mut t = CssTree::from_sorted((0..50).map(|i| e(i * 2, i as u32)).collect());
        // Batch overlaps the tail: times 80..120 interleave with 80..98.
        t.extend_sorted((40..60).map(|i| e(i * 2, 1000 + i as u32)).collect());
        assert_eq!(t.len(), 70);
        assert!(t.keys.windows(2).all(|w| w[0] <= w[1]));
        // Ties keep the existing entry first.
        let at80: Vec<u32> = t.collect_range(80, 81).iter().map(|x| x.traj).collect();
        assert_eq!(at80, vec![40, 1040]);
        // Directory still answers correctly after the rebuild: 10 base
        // entries (80, 82, …, 98) + 20 batch entries (80, 82, …, 118).
        assert_eq!(t.range_count(80, 120), 30);
        assert_eq!(t.lower_bound(100), t.keys.partition_point(|&x| x < 100));
    }

    #[test]
    fn retain_map_equals_a_rebuild_of_the_kept_leaves() {
        let mut t = CssTree::from_sorted((0..500).map(|i| e(i / 3, i as u32)).collect());
        let relabel = |x: &LeafEntry| (x.traj % 3 != 1).then_some(LeafEntry { partition: 7, ..*x });
        let want = CssTree::from_sorted(t.iter().filter_map(|x| relabel(&x)).collect());
        t.retain_map(relabel);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            want.iter().collect::<Vec<_>>()
        );
        assert_eq!(t.levels, want.levels);
        assert_eq!(t.size_bytes(), want.size_bytes());
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
        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            t.iter().collect::<Vec<_>>()
        );
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
            let got = t.keys.clone();
            proptest::prop_assert_eq!(got, want);
            // Directory invariant: probe lower_bound at several keys.
            for key in [0i64, 100, 250, 599] {
                proptest::prop_assert_eq!(
                    t.lower_bound(key),
                    t.keys.partition_point(|&x| x < key)
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
