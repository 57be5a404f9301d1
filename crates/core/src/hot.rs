//! The mutable hot tail: recently appended batches absorbed without
//! touching the immutable FM/wavelet levels.
//!
//! The paper's SNT-index is append-only at partition granularity: every
//! batch pays a full FM-index construction (BWT, wavelet structure,
//! counters) before a single query can see it. The hot tail decouples
//! ingestion from that cost LSM-style: an append is *absorbed* as raw
//! trajectories plus per-edge time-sorted leaf lanes, and queries merge
//! the hot lanes with the immutable forest on the fly. A background
//! *compaction* later seals each absorbed batch into its own immutable
//! partition — in absorb order, through the exact same construction the
//! direct-append path uses.
//!
//! # The equivalence invariant
//!
//! Everything here is built around one provable invariant, pinned by the
//! differential suites: **an index with a non-empty hot tail answers every
//! query byte-identically to an index that direct-appended the same batch
//! sequence**, and sealing the tail reproduces *exactly* the direct-append
//! state (identical partitions, forest, ToD rows — identical snapshot
//! bytes). The three load-bearing facts:
//!
//! * **Scan order.** Direct appends place a batch's leaves into each
//!   segment tree sorted by time, ties keeping earlier-inserted entries
//!   first (both [`CssTree::extend_sorted`](tthr_temporal::CssTree) and
//!   the B+-tree's stable multimap insert). Hot batches are a strict
//!   suffix of the append sequence, so the merged order is: cold leaf
//!   before hot leaf on equal timestamps, and hot lanes internally merged
//!   with the same earlier-batch-first tie rule ([`HotTail::absorb`]).
//! * **Spatial filter.** A cold leaf passes the query's path filter when
//!   its ISA value falls in the partition's backward-search range; for a
//!   hot leaf the same predicate — "the trajectory's traversal sequence
//!   equals the path, starting at this leaf's position" — is evaluated
//!   directly against the retained trajectory ([`HotTail::leaf_matches`]).
//! * **Estimator parity.** The cardinality estimator reads per-partition
//!   ISA counts and per-(partition, segment) time-of-day histograms. Each
//!   hot batch acts as its future partition: [`HotBatch::count_path`] is
//!   the length its ISA range will have once sealed, and
//!   [`HotBatch::tod_hist`] is byte-for-byte the ToD row the seal pushes.

use crate::snt::suffix_leaves;
use tthr_histogram::TimeOfDayHistogram;
use tthr_network::{EdgeId, Path, Timestamp};
use tthr_temporal::LeafEntry;
use tthr_trajectory::{TrajEntry, Trajectory};

/// One absorbed append batch, pending compaction.
pub(crate) struct HotBatch {
    /// Global id of the batch's first trajectory (the batch occupies the
    /// dense id range `first_id .. first_id + trajs.len()`).
    pub(crate) first_id: u32,
    /// The batch's trajectories (embedded ids are ignored; position `i`
    /// maps to global id `first_id + i`).
    pub(crate) trajs: Vec<Trajectory>,
    /// `starts[i]`: the position of `trajs[i]` its leaves start at — 0 in
    /// a monolith, the first owned position in a cluster shard (see
    /// [`suffix_leaves`]). The trajectories stay whole: the hot-side
    /// spatial filter reads them from a leaf's `seq` on.
    starts: Vec<u32>,
    /// ToD row shape: `(bucket_secs, num_edges)` when the store is on.
    tod: Option<(u32, usize)>,
    /// Per-edge time-of-day histograms — exactly the ToD row this batch's
    /// partition will carry once sealed. Built on first use (estimator
    /// query or sealing), so the absorb path never pays for it; empty
    /// when the store is disabled.
    hists: std::sync::OnceLock<Vec<Option<TimeOfDayHistogram>>>,
    /// Leaves in the batch (the traversals its kept suffixes hold).
    pub(crate) entries: usize,
}

impl HotBatch {
    /// Builds a pending batch of the suffixes `trajs[i]` has from
    /// position `starts[i]` on: counts their traversals; the per-edge ToD
    /// row stays unbuilt until something asks for it.
    pub(crate) fn build(
        first_id: u32,
        trajs: Vec<Trajectory>,
        starts: Vec<u32>,
        num_edges: usize,
        tod_bucket: Option<u32>,
    ) -> HotBatch {
        debug_assert_eq!(trajs.len(), starts.len());
        let mut batch = HotBatch {
            first_id,
            trajs,
            starts,
            tod: tod_bucket.map(|bucket| (bucket, num_edges)),
            hists: std::sync::OnceLock::new(),
            entries: 0,
        };
        batch.entries = batch.suffixes().map(<[TrajEntry]>::len).sum();
        batch
    }

    /// Each trajectory with the position its leaves start at.
    pub(crate) fn kept(&self) -> impl Iterator<Item = (&Trajectory, usize)> {
        self.trajs
            .iter()
            .zip(&self.starts)
            .map(|(tr, &start)| (tr, start as usize))
    }

    /// Each trajectory's kept suffix: the traversals its leaves are made of.
    pub(crate) fn suffixes(&self) -> impl Iterator<Item = &[TrajEntry]> {
        self.kept().map(|(tr, start)| &tr.entries()[start..])
    }

    /// `span` raised to the widest first-to-last leaf time of the batch.
    pub(crate) fn max_span(&self, span: Timestamp) -> Timestamp {
        self.suffixes()
            .map(|kept| kept[kept.len() - 1].enter_time - kept[0].enter_time)
            .fold(span, Timestamp::max)
    }

    /// The batch's ToD row, built on first access — the same per-entry
    /// fold, in the same order, the direct append path performs, so a
    /// sealed partition's row is byte-identical either way.
    fn hists(&self) -> &[Option<TimeOfDayHistogram>] {
        self.hists.get_or_init(|| self.build_hists())
    }

    fn build_hists(&self) -> Vec<Option<TimeOfDayHistogram>> {
        let Some((bucket, num_edges)) = self.tod else {
            return Vec::new();
        };
        let mut hists: Vec<Option<TimeOfDayHistogram>> = vec![None; num_edges];
        for entry in self.suffixes().flatten() {
            hists[entry.edge.index()]
                .get_or_insert_with(|| TimeOfDayHistogram::new(bucket))
                .add(entry.enter_time);
        }
        hists
    }

    /// Takes the batch's ToD row for sealing (building it now if no
    /// query ever forced it).
    pub(crate) fn take_hists(&mut self) -> Vec<Option<TimeOfDayHistogram>> {
        self.hists.take().unwrap_or_else(|| self.build_hists())
    }

    /// Occurrences of `path` as a strict sub-path across the kept
    /// suffixes — the length the batch partition's ISA range will have
    /// once sealed.
    pub(crate) fn count_path(&self, path: &Path) -> usize {
        self.suffixes()
            .map(|kept| occurrences(kept, path).count())
            .sum()
    }

    /// The batch's time-of-day histogram for a segment, if the store is
    /// enabled and the segment is traversed in the batch (first call
    /// builds the whole row).
    pub(crate) fn tod_hist(&self, e: EdgeId) -> Option<&TimeOfDayHistogram> {
        self.hists().get(e.index()).and_then(|h| h.as_ref())
    }

    fn size_bytes(&self) -> usize {
        // Payload only; an unbuilt (or already-taken) ToD row counts as
        // nothing, which keeps the absorb-time footprint estimate O(1).
        self.entries * std::mem::size_of::<tthr_trajectory::TrajEntry>()
    }
}

/// The mutable hot tail of an `SntIndex`: absorbed-but-unsealed batches
/// plus per-edge leaf lanes queries merge with the immutable forest.
#[derive(Default)]
pub(crate) struct HotTail {
    batches: Vec<HotBatch>,
    /// `per_edge[e]` = every hot leaf of segment `e`, in exactly the order
    /// the immutable forest will hold them after sealing: sorted by time,
    /// equal timestamps in (batch, trajectory, seq) order. A leaf's
    /// `partition` field holds the hot-local *batch index* (resolved by
    /// [`HotTail::leaf_matches`]); its `isa` field is unused until sealing.
    per_edge: Vec<Vec<LeafEntry>>,
    entries: usize,
    /// Running footprint estimate, maintained by [`HotTail::absorb`] so
    /// [`HotTail::size_bytes`] is O(1) — the append path polls it on
    /// every batch for the size-triggered compaction check.
    bytes: usize,
}

impl HotTail {
    /// Whether no batches are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Number of pending batches.
    pub(crate) fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total traversals across pending batches.
    pub(crate) fn num_entries(&self) -> usize {
        self.entries
    }

    /// The pending batches, in absorb order.
    pub(crate) fn batches(&self) -> &[HotBatch] {
        &self.batches
    }

    /// Approximate heap footprint of the tail (payload-sized: lane
    /// entries plus batch trajectories and histograms; allocator slack
    /// is not counted).
    pub(crate) fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Absorbs a pending batch: builds its per-edge leaves (aggregates
    /// precomputed, ids `first_id..`) and merges each lane in forest order.
    ///
    /// # Panics
    /// Panics if the hot-local batch id space (2¹⁶ − 1) is exhausted —
    /// compaction must run long before that.
    pub(crate) fn absorb(&mut self, batch: HotBatch, num_edges: usize) {
        if self.per_edge.len() < num_edges {
            self.per_edge.resize_with(num_edges, Vec::new);
        }
        let b = self.batches.len();
        assert!(
            b < u16::MAX as usize,
            "hot tail batch space exhausted; compact first"
        );
        // One flat edge-tagged buffer instead of a per-edge scratch table:
        // a stable sort by (edge, time) yields each edge's run in time
        // order with ties in (trajectory, seq) push order — exactly the
        // per-edge ordering sealing produces.
        let mut fresh: Vec<(u32, LeafEntry)> = Vec::with_capacity(batch.entries);
        for (i, (tr, start)) in batch.kept().enumerate() {
            let id = batch.first_id + i as u32;
            fresh.extend(suffix_leaves(tr, start, id, b as u16).map(|(e, l)| (e as u32, l)));
        }
        // (edge, time, traj, seq) is a total order (traj/seq are unique
        // per entry and equal to push order), so the unstable sort lands
        // exactly where a stable (edge, time) sort would — without its
        // merge-buffer allocation.
        fresh.sort_unstable_by_key(|(e, l)| (*e, l.time, l.traj, l.seq));
        let mut from = 0;
        while from < fresh.len() {
            let edge = fresh[from].0;
            let to = from
                + fresh[from..]
                    .iter()
                    .position(|(e, _)| *e != edge)
                    .unwrap_or(fresh.len() - from);
            merge_existing_first(&mut self.per_edge[edge as usize], &fresh[from..to]);
            from = to;
        }
        self.entries += batch.entries;
        self.bytes += batch.size_bytes() + batch.entries * std::mem::size_of::<LeafEntry>();
        self.batches.push(batch);
    }

    /// The hot leaves of segment `e` with `lo ≤ time < hi`, in merged
    /// forest order.
    pub(crate) fn slice(&self, e: EdgeId, lo: i64, hi: i64) -> &[LeafEntry] {
        let Some(lane) = self.per_edge.get(e.index()) else {
            return &[];
        };
        if lo >= hi || lane.is_empty() {
            return &[];
        }
        let a = lane.partition_point(|l| l.time < lo);
        let b = lane.partition_point(|l| l.time < hi);
        &lane[a..b]
    }

    /// Min/max hot leaf time of segment `e`, if any.
    pub(crate) fn bounds(&self, e: EdgeId) -> Option<(i64, i64)> {
        let lane = self.per_edge.get(e.index())?;
        Some((lane.first()?.time, lane.last()?.time))
    }

    /// Every hot leaf of segment `e`, in merged forest order.
    pub(crate) fn lane(&self, e: EdgeId) -> &[LeafEntry] {
        self.per_edge.get(e.index()).map_or(&[], |lane| lane)
    }

    /// The hot-side spatial filter: whether the trajectory behind a hot
    /// leaf traverses exactly `path` starting at the leaf's position —
    /// the predicate the leaf's ISA-range test will evaluate once sealed.
    pub(crate) fn leaf_matches(&self, leaf: &LeafEntry, path: &Path) -> bool {
        let batch = &self.batches[leaf.partition as usize];
        let tr = &batch.trajs[(leaf.traj - batch.first_id) as usize];
        let edges = path.edges();
        let entries = tr.entries();
        let k = leaf.seq as usize;
        k + edges.len() <= entries.len()
            && entries[k..k + edges.len()]
                .iter()
                .zip(edges)
                .all(|(entry, &p)| entry.edge == p)
    }

    /// Whether any pending kept suffix traverses `path` (the merged
    /// equivalent of "some partition's ISA range is non-empty").
    pub(crate) fn traverses(&self, path: &Path) -> bool {
        self.batches.iter().any(|b| {
            b.suffixes()
                .any(|kept| occurrences(kept, path).next().is_some())
        })
    }

    /// Drains every pending batch for sealing, resetting the tail (lane
    /// memory is released, not retained — the soak's bounded-memory
    /// guarantee counts on it).
    pub(crate) fn drain_batches(&mut self) -> Vec<HotBatch> {
        self.per_edge = Vec::new();
        self.entries = 0;
        self.bytes = 0;
        std::mem::take(&mut self.batches)
    }
}

/// The occurrences of `path` as a strict sub-path of `entries`.
fn occurrences<'a>(
    entries: &'a [TrajEntry],
    path: &'a Path,
) -> impl Iterator<Item = &'a [TrajEntry]> + 'a {
    let needle = path.edges();
    entries
        .windows(needle.len())
        .filter(move |w| w.iter().map(|e| e.edge).eq(needle.iter().copied()))
}

/// Merges a time-sorted batch into a time-sorted lane, keeping existing
/// leaves first on timestamp ties — the order `CssTree::extend_sorted`
/// and the B+-tree's stable multimap insert produce, so sealing the tail
/// reads back exactly the order direct appends would have created.
fn merge_existing_first(lane: &mut Vec<LeafEntry>, batch: &[(u32, LeafEntry)]) {
    let Some((_, first)) = batch.first() else {
        return;
    };
    if lane.last().map(|l| l.time <= first.time).unwrap_or(true) {
        lane.extend(batch.iter().map(|(_, l)| *l));
        return;
    }
    let splice = lane.partition_point(|l| l.time < first.time);
    let tail: Vec<LeafEntry> = lane.split_off(splice);
    lane.reserve(tail.len() + batch.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < tail.len() && j < batch.len() {
        if tail[i].time <= batch[j].1.time {
            lane.push(tail[i]);
            i += 1;
        } else {
            lane.push(batch[j].1);
            j += 1;
        }
    }
    lane.extend_from_slice(&tail[i..]);
    lane.extend(batch[j..].iter().map(|(_, l)| *l));
}
