//! The SNT-index, adapted and extended for travel-time retrieval.
//!
//! Assembly of the substrates (paper, Section 4):
//!
//! * one FM-index per temporal partition over the partition's trajectory
//!   string (Section 4.1.1, partitioning per Section 4.3.2);
//! * a forest of temporal indexes — one CSS-tree or B+-tree per segment —
//!   whose leaves carry the travel-time extensions `(TT, seq, a)` and the
//!   partition id `w` (Sections 4.1.2–4.1.3);
//! * the dense user-lookup container `U : d → u` for constant-time filter
//!   evaluation;
//! * an optional per-partition, per-segment time-of-day histogram store for
//!   the accurate cardinality estimator modes (Section 4.4).
//!
//! Query execution follows the paper's procedures exactly: `getISARange`
//! (Procedure 2, in `tthr-fmindex`), `buildMap` (Procedure 3), `probeMap`
//! (Procedure 4), and `getTravelTimes` (Procedure 5).

use crate::census::{Census, LeafCounter};
use crate::hot::{HotBatch, HotTail};
use crate::interval::TimeInterval;
use crate::probe::ProbeTable;
use crate::spq::{Filter, Spq};
use crate::text;
use crate::trace::QueryTrace;
use std::ops::ControlFlow;
use tthr_fmindex::{FmIndex, HuffmanWaveletTree, IsaRange, SearchCost, WaveletMatrix};
use tthr_histogram::TimeOfDayHistogram;
use tthr_network::{EdgeId, RoadNetwork, Timestamp, SECONDS_PER_DAY};
use tthr_temporal::{BPlusTree, CssTree, LeafEntry, TemporalIndex};
use tthr_trajectory::{Trajectory, TrajectorySet, UserId};

/// Which temporal tree implementation backs the forest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TreeKind {
    /// Cache-sensitive search trees (the paper's optimized default).
    #[default]
    Css,
    /// B+-trees (the original SNT-index configuration).
    BPlus,
}

/// Which wavelet structure stores the BWT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaveletKind {
    /// Huffman-shaped wavelet tree (the paper uses sdsl-lite's `wt_huff`).
    #[default]
    Huffman,
    /// Balanced wavelet matrix (ablation alternative).
    Matrix,
}

/// Index construction options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SntConfig {
    /// Temporal tree implementation.
    pub tree: TreeKind,
    /// Wavelet structure for the BWT.
    pub wavelet: WaveletKind,
    /// Temporal partition width in days; `None` builds a single partition
    /// (the paper's `FULL` configuration).
    pub partition_days: Option<u32>,
    /// Bucket width of the per-segment time-of-day histograms in seconds;
    /// `None` disables the histogram store (no `*-Acc` estimator modes).
    pub tod_bucket_secs: Option<u32>,
}

impl Default for SntConfig {
    fn default() -> Self {
        SntConfig {
            tree: TreeKind::Css,
            wavelet: WaveletKind::Huffman,
            partition_days: None,
            tod_bucket_secs: Some(600),
        }
    }
}

/// Backing store of [`TravelTimes::values`]: empty and single-value
/// results stay inline, measured multisets live on the heap.
///
/// Procedure 5's speed-limit fallback produces exactly one estimate, and
/// σ's terminal relaxation produces it on *every* dataless single-segment
/// query — a heap `Vec` per estimate was pure churn. `TtValues` derefs to
/// `&[f64]`, so read sites treat it as a slice.
#[derive(Clone, Debug)]
pub struct TtValues(TtRepr);

#[derive(Clone, Debug)]
enum TtRepr {
    /// No values (∅).
    Empty,
    /// One inline value (the `estimateTT` fallback).
    One(f64),
    /// A measured multiset.
    Heap(Vec<f64>),
}

impl TtValues {
    /// The empty multiset, allocation-free.
    pub const EMPTY: TtValues = TtValues(TtRepr::Empty);

    /// A single inline value, allocation-free.
    #[inline]
    pub fn one(v: f64) -> Self {
        TtValues(TtRepr::One(v))
    }

    /// The values as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        match &self.0 {
            TtRepr::Empty => &[],
            TtRepr::One(v) => std::slice::from_ref(v),
            TtRepr::Heap(v) => v,
        }
    }

    /// Converts into a plain `Vec` (allocation-free for heap-backed
    /// values; inline values allocate here, where the caller actually
    /// needs ownership).
    pub fn into_vec(self) -> Vec<f64> {
        match self.0 {
            TtRepr::Empty => Vec::new(),
            TtRepr::One(v) => vec![v],
            TtRepr::Heap(v) => v,
        }
    }
}

impl std::ops::Deref for TtValues {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl From<Vec<f64>> for TtValues {
    fn from(v: Vec<f64>) -> Self {
        TtValues(TtRepr::Heap(v))
    }
}

impl From<TtValues> for Vec<f64> {
    fn from(v: TtValues) -> Self {
        v.into_vec()
    }
}

impl<'a> IntoIterator for &'a TtValues {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Value equality: representations compare as multisets-in-scan-order, so
/// an inline single estimate equals its heap-backed spelling.
impl PartialEq for TtValues {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Travel times retrieved for one SPQ.
#[derive(Clone, Debug, PartialEq)]
pub struct TravelTimes {
    /// The travel-time multiset `X` in index scan order.
    pub values: TtValues,
    /// Whether `values` is the single speed-limit estimate `estimateTT(e)`
    /// (Procedure 5, line 13) rather than measured data.
    pub fallback: bool,
}

impl TravelTimes {
    /// The empty result `∅`.
    pub fn empty() -> Self {
        TravelTimes {
            values: TtValues::EMPTY,
            fallback: false,
        }
    }

    /// Whether no travel times were retrieved.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of retrieved travel times.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Mean travel time `X̄`, if any values were retrieved.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// The values sorted ascending (for deterministic assertions).
    ///
    /// Uses [`f64::total_cmp`]: a NaN or negative-zero value slipping in
    /// through corrupt input data yields a deterministic order instead of a
    /// panic mid-query.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Per-component memory accounting (Figure 10).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryReport {
    /// Segment-counter arrays `C`, summed over partitions.
    pub counts_bytes: usize,
    /// Wavelet structures (`WT`), summed over partitions.
    pub wavelet_bytes: usize,
    /// Per-user structures: the `U : d → u` user table plus the
    /// user × edge time-of-day census.
    pub user_bytes: usize,
    /// The user × edge time-of-day census's share of `user_bytes`.
    pub census_bytes: usize,
    /// The temporal forest, as allocated.
    pub forest_bytes: usize,
    /// Logical forest payload with the partition id in every leaf.
    pub forest_logical_bytes: usize,
    /// Logical forest payload without the partition id (the ≈ 300 MiB
    /// saving the paper reports for its data set, Section 6.3).
    pub forest_logical_bytes_no_partition: usize,
    /// Time-of-day histogram store (Figure 10b).
    pub tod_bytes: usize,
    /// Total leaf entries across the forest.
    pub total_entries: usize,
}

/// Hot-tail accounting, surfaced through service stats and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Absorbed-but-unsealed batches pending compaction.
    pub batches: usize,
    /// Total traversals across pending batches.
    pub entries: usize,
    /// Approximate heap footprint of the hot tail.
    pub bytes: usize,
}

/// What one [`SntIndex::compact`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Hot batches sealed into immutable partitions.
    pub sealed_batches: usize,
    /// Traversals those batches carried.
    pub sealed_entries: usize,
    /// Immutable partitions dropped by the retention horizon.
    pub dropped_partitions: usize,
    /// Traversals those partitions carried.
    pub dropped_entries: usize,
}

impl CompactionOutcome {
    /// Whether the call changed the index at all.
    pub fn changed(&self) -> bool {
        self.sealed_batches > 0 || self.dropped_partitions > 0
    }
}

pub(crate) enum FmVariant {
    Huffman(FmIndex<HuffmanWaveletTree>),
    Matrix(FmIndex<WaveletMatrix>),
}

impl FmVariant {
    fn build(kind: WaveletKind, txt: &[u32], sigma: u32) -> (Self, Vec<u32>) {
        match kind {
            WaveletKind::Huffman => {
                let (fm, isa) = FmIndex::<HuffmanWaveletTree>::build(txt, sigma);
                (FmVariant::Huffman(fm), isa)
            }
            WaveletKind::Matrix => {
                let (fm, isa) = FmIndex::<WaveletMatrix>::build(txt, sigma);
                (FmVariant::Matrix(fm), isa)
            }
        }
    }

    fn isa_range(&self, pattern: &[u32]) -> IsaRange {
        match self {
            FmVariant::Huffman(fm) => fm.isa_range(pattern),
            FmVariant::Matrix(fm) => fm.isa_range(pattern),
        }
    }

    /// Appends `isa_range(&pattern[k..])` for every `k` to `out` — one
    /// backward search whose checkpointed cursor states become the
    /// suffix-cache entries of [`SearchScratch`] — charging each live step
    /// to `cost` ([`tthr_fmindex::FmIndex::suffix_ranges_costed`]).
    fn suffix_ranges_costed(
        &self,
        pattern: &[u32],
        out: &mut Vec<IsaRange>,
        cost: &mut SearchCost,
    ) {
        match self {
            FmVariant::Huffman(fm) => fm.suffix_ranges_costed(pattern, out, cost),
            FmVariant::Matrix(fm) => fm.suffix_ranges_costed(pattern, out, cost),
        }
    }

    fn wavelet_size_bytes(&self) -> usize {
        match self {
            FmVariant::Huffman(fm) => fm.wavelet_size_bytes(),
            FmVariant::Matrix(fm) => fm.wavelet_size_bytes(),
        }
    }

    fn counts_size_bytes(&self) -> usize {
        match self {
            FmVariant::Huffman(fm) => fm.counts_size_bytes(),
            FmVariant::Matrix(fm) => fm.counts_size_bytes(),
        }
    }
}

pub(crate) enum Forest {
    Css(Vec<CssTree>),
    BPlus(Vec<BPlusTree>),
}

impl Forest {
    fn tree(&self, e: EdgeId) -> &dyn TemporalIndex {
        match self {
            Forest::Css(trees) => &trees[e.index()],
            Forest::BPlus(trees) => &trees[e.index()],
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Forest::Css(trees) => trees.iter().map(|t| t.size_bytes()).sum(),
            Forest::BPlus(trees) => trees.iter().map(|t| t.size_bytes()).sum(),
        }
    }

    /// Appends one edge's batch of time-sorted leaves (merging any overlap
    /// with the already-indexed tail).
    fn append(&mut self, edge: usize, leaves: Vec<LeafEntry>) {
        match self {
            Forest::Css(trees) => trees[edge].extend_sorted(leaves),
            Forest::BPlus(trees) => {
                for leaf in leaves {
                    trees[edge].insert(leaf);
                }
            }
        }
    }

    /// Calls `f(edge, leaf)` for every leaf in the forest (per-tree scan
    /// order).
    pub(crate) fn for_each_leaf(&self, mut f: impl FnMut(usize, &LeafEntry)) {
        match self {
            Forest::Css(trees) => {
                for (edge, t) in trees.iter().enumerate() {
                    for l in t.iter() {
                        f(edge, &l);
                    }
                }
            }
            Forest::BPlus(trees) => {
                for (edge, t) in trees.iter().enumerate() {
                    let _ = t.scan_range(i64::MIN, i64::MAX, &mut |l| {
                        f(edge, l);
                        ControlFlow::Continue(())
                    });
                }
            }
        }
    }

    /// Rebuilds every tree from the leaves `f(edge, leaf)` maps to `Some`
    /// (retention). Filtering the scan sequence preserves relative order
    /// — including timestamp-tie order — so the result is exactly the
    /// forest an index that only ever appended the surviving batches
    /// would hold.
    fn retain_map(&mut self, f: &mut dyn FnMut(usize, &LeafEntry) -> Option<LeafEntry>) {
        match self {
            Forest::Css(trees) => {
                for (edge, t) in trees.iter_mut().enumerate() {
                    t.retain_map(|l| f(edge, l));
                }
            }
            Forest::BPlus(trees) => {
                for (edge, t) in trees.iter_mut().enumerate() {
                    let mut kept: Vec<LeafEntry> = Vec::new();
                    let _ = t.scan_range(i64::MIN, i64::MAX, &mut |l| {
                        kept.extend(f(edge, l));
                        ControlFlow::Continue(())
                    });
                    *t = BPlusTree::from_sorted(kept);
                }
            }
        }
    }
}

/// Per-partition, per-segment time-of-day histograms.
pub(crate) struct TodStore {
    pub(crate) bucket_secs: u32,
    /// `hists[partition][edge]`, allocated lazily for non-empty segments.
    pub(crate) hists: Vec<Vec<Option<TimeOfDayHistogram>>>,
}

impl TodStore {
    /// Histogram for a `(partition, edge)` pair, if any traversals exist.
    pub(crate) fn get(&self, partition: usize, e: EdgeId) -> Option<&TimeOfDayHistogram> {
        self.hists[partition][e.index()].as_ref()
    }

    pub(crate) fn size_bytes(&self) -> usize {
        let hist_bytes: usize = self
            .hists
            .iter()
            .flatten()
            .filter_map(|h| h.as_ref().map(|h| h.size_bytes()))
            .sum();
        let slot_bytes: usize = self
            .hists
            .iter()
            .map(|v| v.capacity() * std::mem::size_of::<Option<TimeOfDayHistogram>>())
            .sum();
        hist_bytes + slot_bytes
    }
}

/// Process-unique identity for [`SearchScratch`] tagging, drawn at
/// [`SntIndex`] construction (build or snapshot restore). The index is
/// not `Clone`, so one id never describes two divergent states; paired
/// with the trajectory count it also distinguishes the same instance
/// before and after an append.
pub(crate) fn next_scratch_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// `t` raised to the newest entry time of `tr`: the newest leaf time a
/// partition holding `tr` has (every kept suffix ends at the last entry).
fn newest(t: Option<Timestamp>, tr: &Trajectory) -> Option<Timestamp> {
    t.max(tr.entries().iter().map(|e| e.enter_time).max())
}

/// The span of `tr`'s leaves from position `start` on: its last entry
/// time minus the entry time at `start`.
fn span(tr: &Trajectory, start: usize) -> Timestamp {
    let last = tr.entries().last().expect("trajectories are non-empty");
    last.enter_time - tr.entries()[start].enter_time
}

/// The leaves `tr` contributes from position `start` on, each with its
/// edge index. `seq` is the position in the whole trajectory and
/// `aggregate` the prefix sum from its first entry, so a kept leaf is the
/// same value whichever suffix an index keeps: a monolith keeps every
/// leaf (`start = 0`), a cluster shard a member's leaves from its first
/// position on an edge the shard owns (see [`crate::sharded`]). `isa` is
/// left 0 for the caller.
pub(crate) fn suffix_leaves(
    tr: &Trajectory,
    start: usize,
    traj: u32,
    partition: u16,
) -> impl Iterator<Item = (usize, LeafEntry)> + '_ {
    let mut aggregate = 0.0;
    tr.entries()
        .iter()
        .enumerate()
        .map(move |(k, entry)| {
            aggregate += entry.travel_time;
            (k, entry, aggregate)
        })
        .skip(start)
        .map(move |(k, entry, aggregate)| {
            let leaf = LeafEntry {
                time: entry.enter_time,
                aggregate,
                travel_time: entry.travel_time,
                isa: 0,
                traj,
                seq: k as u32,
                partition,
            };
            (entry.edge.index(), leaf)
        })
}

/// Per-query scratch state for the backward-search hot path: reusable
/// buffers plus a **suffix-sharing search cache**.
///
/// Backward search processes a path right-to-left, so one search of `P`
/// passes through the ISA range of *every suffix* of `P`. The relaxation
/// function σ only ever derives contiguous sub-paths, and the right half
/// of every split is a suffix of its parent — with the parent's
/// checkpointed cursor states cached here, those sub-path searches (and
/// every re-dispatch of an unchanged path under a widened window) are
/// answered without touching the wavelet structures at all.
///
/// A scratch is single-index-state: entries are tagged with the owning
/// index's process-unique id plus its trajectory count, and
/// self-invalidate whenever queries are answered by any other index (a
/// different instance, another shard, or the same instance after an
/// append) — reuse can never serve stale ranges. A trip query runs
/// through one scratch, which also bounds the cache's size by the
/// query's own relaxation work.
#[derive(Default)]
pub struct SearchScratch {
    /// `(index id, mutation stamp)` the cache entries belong to.
    owner: Option<(u64, u64)>,
    /// Pattern buffer for the query being answered.
    symbols: Vec<u32>,
    /// Per-partition ISA ranges of the last [`SntIndex::fill_ranges`].
    ranges: Vec<IsaRange>,
    /// Suffix-state cache over previously searched patterns.
    entries: Vec<ScratchEntry>,
    /// Cost attribution for the queries answered through this scratch;
    /// purely observational (see [`QueryTrace`]). Callers that want
    /// per-query profiles call `QueryTrace::reset` between queries.
    pub trace: QueryTrace,
}

/// One cached search: the pattern and, flattened per partition, the ISA
/// range of every suffix (`states[p * len + k]` = partition `p`, suffix
/// `pattern[k..]`).
struct ScratchEntry {
    symbols: Vec<u32>,
    states: Vec<IsaRange>,
}

/// Hard cap on cached searches: a defensive bound for adversarially deep
/// relaxation chains (hit ⇒ the cache resets and keeps working).
const SCRATCH_MAX_ENTRIES: usize = 512;

impl SearchScratch {
    /// A fresh scratch (no allocations until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached searches (diagnostics/tests).
    pub fn cached_searches(&self) -> usize {
        self.entries.len()
    }

    /// Invalidates the cache unless it already belongs to the index state
    /// `(id, mutation stamp)`: ids are unique per index instance and every
    /// mutation (append, hot-tail absorb, compaction, retention) bumps the
    /// stamp, so the pair changes whenever cached ranges could be stale.
    pub(crate) fn ensure(&mut self, id: u64, stamp: u64) {
        if self.owner != Some((id, stamp)) {
            self.owner = Some((id, stamp));
            self.entries.clear();
        }
    }

    /// Books one index-level query on the trace — the call, and its wall
    /// time when the trace asks for timing — around `f`.
    fn index_query<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.trace.index_queries += 1;
        let start = self.trace.timing.then(std::time::Instant::now);
        let out = f(self);
        if let Some(t0) = start {
            self.trace.search_ns += t0.elapsed().as_nanos() as u64;
        }
        out
    }
}

/// The extended SNT-index (paper, Section 4).
///
/// Fields are `pub(crate)` so the persistence layer (`crate::persist`)
/// can decompose the index into snapshot sections and reassemble it.
pub struct SntIndex {
    pub(crate) config: SntConfig,
    pub(crate) partitions: Vec<FmVariant>,
    pub(crate) forest: Forest,
    pub(crate) user_table: Vec<UserId>,
    /// Per-(user, edge, hour) traversal counts over the forest's leaves
    /// (derived, not persisted; see [`crate::census`]).
    pub(crate) census: Census,
    pub(crate) tod: Option<TodStore>,
    /// Copied per-edge speed-limit estimates for the Procedure 5 fallback.
    pub(crate) estimate_tt: Vec<f64>,
    pub(crate) data_min: Timestamp,
    pub(crate) data_max: Timestamp,
    /// An upper bound on any indexed trajectory's span (last entry time −
    /// first entry time): `probeMap` finds every match of a `buildMap`
    /// window `[lo, hi)` before `hi + max_span`. Exact after build and
    /// restore, grown by every admitted batch, kept across retention
    /// (derived, not persisted; see [`SntIndex::recount_leaf_bounds`]).
    pub(crate) max_span: Timestamp,
    /// The newest leaf time of each immutable partition, indexed like
    /// `partitions` (`None` for a partition without leaves): retention
    /// reads its drop decisions here, so a pass that can drop nothing
    /// returns without walking the forest. Set at build and at seal,
    /// compacted with the partitions on a drop, recounted on restore
    /// (derived, not persisted; see [`SntIndex::recount_leaf_bounds`]).
    pub(crate) part_newest: Vec<Option<Timestamp>>,
    /// Leaf entries in the *immutable* forest (hot-tail entries are
    /// counted separately by [`SntIndex::hot_stats`]).
    pub(crate) total_entries: usize,
    /// Process-unique identity for [`SearchScratch`] tagging (not
    /// persisted — re-drawn on restore).
    pub(crate) scratch_id: u64,
    /// The mutable ingestion tail (see [`crate::hot`]): absorbed batches
    /// queries merge with the immutable levels until compaction seals them.
    pub(crate) hot: HotTail,
    /// Monotonic state version for [`SearchScratch`] invalidation: bumped
    /// on every mutation (append, absorb, compaction, retention). The
    /// trajectory count alone is not enough — compaction changes the
    /// partition layout without changing the count, and cached
    /// per-partition ISA ranges would silently go stale.
    pub(crate) mutation_stamp: u64,
}

impl SntIndex {
    /// Builds the index over a trajectory set.
    ///
    /// Construction: trajectories are assigned to temporal partitions by
    /// start time; each partition's trajectory string is indexed with an
    /// FM-index; every segment traversal becomes a leaf of its segment's
    /// temporal tree, carrying its ISA value, trajectory id, sequence
    /// number, traversal time, aggregate, and partition id.
    pub fn build(network: &RoadNetwork, trajectories: &TrajectorySet, config: SntConfig) -> Self {
        Self::build_suffixes(network, trajectories, &vec![0; trajectories.len()], config)
    }

    /// [`SntIndex::build`] over the suffixes trajectory `d` has from
    /// position `starts[d]` on (see [`suffix_leaves`]): the FM text holds
    /// the suffixes and the forest their leaves.
    pub(crate) fn build_suffixes(
        network: &RoadNetwork,
        trajectories: &TrajectorySet,
        starts: &[u32],
        config: SntConfig,
    ) -> Self {
        debug_assert_eq!(starts.len(), trajectories.len());
        let num_edges = network.num_edges();
        let sigma = text::alphabet_size(num_edges);

        // Data span.
        let mut data_min = Timestamp::MAX;
        let mut data_max = Timestamp::MIN;
        let mut max_span = 0;
        for tr in trajectories {
            data_min = data_min.min(tr.start_time());
            let last = tr.entries().last().expect("trajectories are non-empty");
            data_max = data_max.max(last.enter_time);
            max_span = max_span.max(span(tr, starts[tr.id().index()] as usize));
        }
        if trajectories.is_empty() {
            data_min = 0;
            data_max = 0;
        }

        // Partition assignment by trajectory start time.
        let width = config
            .partition_days
            .map(|d| d as i64 * SECONDS_PER_DAY)
            .unwrap_or(i64::MAX);
        let part_of = |t0: Timestamp| -> usize {
            if width == i64::MAX {
                0
            } else {
                ((t0 - data_min) / width) as usize
            }
        };
        let num_partitions = if trajectories.is_empty() {
            1
        } else {
            trajectories
                .iter()
                .map(|tr| part_of(tr.start_time()))
                .max()
                .expect("non-empty")
                + 1
        };
        assert!(num_partitions <= u16::MAX as usize, "too many partitions");

        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); num_partitions];
        for tr in trajectories {
            groups[part_of(tr.start_time())].push(tr.id().0);
        }

        // Per-partition FM-indexes + leaf accumulation.
        let mut leaf_acc: Vec<Vec<LeafEntry>> = vec![Vec::new(); num_edges];
        let mut partitions = Vec::with_capacity(num_partitions);
        let mut part_newest = vec![None; num_partitions];
        let mut total_entries = 0usize;
        for (w, group) in groups.iter().enumerate() {
            let kept = |&id: &u32| {
                let tr = trajectories.get(tthr_trajectory::TrajId(id));
                (tr, starts[id as usize] as usize)
            };
            let (txt, bases) = text::build_text(
                group
                    .iter()
                    .map(kept)
                    .map(|(tr, start)| &tr.entries()[start..]),
            );
            let (fm, isa) = FmVariant::build(config.wavelet, &txt, sigma);
            for (gi, (tr, start)) in group.iter().map(kept).enumerate() {
                for (edge, mut leaf) in suffix_leaves(tr, start, tr.id().0, w as u16) {
                    leaf.isa = isa[bases[gi] + leaf.seq as usize - start];
                    leaf_acc[edge].push(leaf);
                    total_entries += 1;
                }
                part_newest[w] = newest(part_newest[w], tr);
            }
            partitions.push(fm);
        }

        // Optional time-of-day histogram store and the census, counted in
        // one walk of the per-edge leaves.
        let mut tod = config.tod_bucket_secs.map(|bucket| TodStore {
            bucket_secs: bucket,
            hists: (0..num_partitions).map(|_| vec![None; num_edges]).collect(),
        });
        let user_table = trajectories.user_table();
        let mut census = LeafCounter::new(&user_table);
        for (edge_idx, per_edge) in leaf_acc.iter().enumerate() {
            for leaf in per_edge {
                if let Some(tod) = &mut tod {
                    let bucket = tod.bucket_secs;
                    tod.hists[leaf.partition as usize][edge_idx]
                        .get_or_insert_with(|| TimeOfDayHistogram::new(bucket))
                        .add(leaf.time);
                }
                census.add(edge_idx, leaf);
            }
        }

        // Temporal forest (leaves sorted by time; stable sort keeps the
        // trajectory-id order for equal timestamps).
        let forest = match config.tree {
            TreeKind::Css => Forest::Css(
                leaf_acc
                    .into_iter()
                    .map(|mut v| {
                        v.sort_by_key(|e| e.time);
                        CssTree::from_sorted(v)
                    })
                    .collect(),
            ),
            TreeKind::BPlus => Forest::BPlus(
                leaf_acc
                    .into_iter()
                    .map(|mut v| {
                        v.sort_by_key(|e| e.time);
                        BPlusTree::from_sorted(v)
                    })
                    .collect(),
            ),
        };

        SntIndex {
            config,
            partitions,
            forest,
            user_table,
            census: census.finish(),
            tod,
            scratch_id: next_scratch_id(),
            estimate_tt: network.edge_ids().map(|e| network.estimate_tt(e)).collect(),
            data_min,
            data_max,
            max_span,
            part_newest,
            total_entries,
            hot: HotTail::default(),
            mutation_stamp: 0,
        }
    }

    /// Number of temporal partitions `W`.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of road-network edges the index was built over (the FM
    /// alphabet size minus the `$` separator).
    pub fn num_edges(&self) -> usize {
        self.estimate_tt.len()
    }

    /// Earliest trajectory start time in the data set.
    pub fn data_min(&self) -> Timestamp {
        self.data_min
    }

    /// Latest segment entry time in the data set (`t_max`).
    pub fn data_max(&self) -> Timestamp {
        self.data_max
    }

    /// The fixed-interval fallback `[0, t_max)` of Procedure 1, line 12.
    pub fn full_interval(&self) -> TimeInterval {
        TimeInterval::fixed(self.data_min.min(0), self.data_max + 1)
    }

    /// The user of a trajectory (the `U` container).
    pub fn user_of(&self, traj: u32) -> UserId {
        self.user_table[traj as usize]
    }

    /// The temporal index `Φe` of a segment.
    pub(crate) fn temporal(&self, e: EdgeId) -> &dyn TemporalIndex {
        self.forest.tree(e)
    }

    /// Per-partition, per-segment time-of-day histogram, when the store is
    /// enabled and the segment has traversals in the partition.
    pub(crate) fn tod_histogram(&self, partition: usize, e: EdgeId) -> Option<&TimeOfDayHistogram> {
        self.tod.as_ref().and_then(|s| s.get(partition, e))
    }

    /// Bucket width of the ToD store, if enabled.
    pub(crate) fn tod_bucket_secs(&self) -> Option<u32> {
        self.tod.as_ref().map(|s| s.bucket_secs)
    }

    /// Per-partition ISA ranges of a path (`getISARange` over every
    /// partition's FM-index, Section 4.3.2).
    pub fn isa_ranges(&self, path: &tthr_network::Path) -> Vec<IsaRange> {
        let pattern = text::path_symbols(path);
        self.partitions
            .iter()
            .map(|fm| fm.isa_range(&pattern))
            .collect()
    }

    /// [`SntIndex::isa_ranges`] through a [`SearchScratch`]: reuses the
    /// scratch buffers (no per-call allocation) and answers from the
    /// suffix cache when the path's pattern is a suffix of a previously
    /// searched one. Results are byte-identical to [`SntIndex::isa_ranges`].
    pub fn isa_ranges_with<'s>(
        &self,
        path: &tthr_network::Path,
        scratch: &'s mut SearchScratch,
    ) -> &'s [IsaRange] {
        scratch.ensure(self.scratch_id, self.mutation_stamp);
        self.fill_ranges(path, scratch);
        &scratch.ranges
    }

    /// Fills `scratch.ranges` with the per-partition ISA ranges of `path`,
    /// via the suffix cache. Callers must have tagged the scratch with
    /// [`SearchScratch::ensure`] first.
    fn fill_ranges(&self, path: &tthr_network::Path, scratch: &mut SearchScratch) {
        text::path_symbols_into(path, &mut scratch.symbols);
        let len = scratch.symbols.len();
        scratch.ranges.clear();
        if len == 0 {
            scratch
                .ranges
                .resize(self.partitions.len(), IsaRange::EMPTY);
            return;
        }

        // Cache hit: the pattern is a suffix of a cached search, so its
        // per-partition ranges are checkpointed cursor states.
        for entry in &scratch.entries {
            let elen = entry.symbols.len();
            if elen >= len && entry.symbols[elen - len..] == scratch.symbols[..] {
                let m = elen - len;
                scratch
                    .ranges
                    .extend((0..self.partitions.len()).map(|p| entry.states[p * elen + m]));
                scratch.trace.scratch_hits += 1;
                return;
            }
        }

        // Miss: one backward search per partition, recording every suffix
        // state for future sub-path lookups.
        scratch.trace.scratch_misses += 1;
        let mut cost = SearchCost::default();
        let mut states = Vec::with_capacity(self.partitions.len() * len);
        for fm in &self.partitions {
            fm.suffix_ranges_costed(&scratch.symbols, &mut states, &mut cost);
            scratch.trace.partitions_searched += 1;
        }
        scratch.trace.rank_ops += cost.rank_ops;
        scratch.trace.wavelet_nodes += cost.wavelet_nodes;
        scratch
            .ranges
            .extend((0..self.partitions.len()).map(|p| states[p * len]));
        if scratch.entries.len() >= SCRATCH_MAX_ENTRIES {
            scratch.entries.clear();
        }
        scratch.entries.push(ScratchEntry {
            symbols: scratch.symbols.clone(),
            states,
        });
    }

    /// Exact number of traversals of the path across all partitions
    /// (`cP = ed − st`, the ISA-mode cardinality).
    pub fn traversal_count(&self, path: &tthr_network::Path) -> usize {
        let cold: usize = self.isa_ranges(path).iter().map(|r| r.len()).sum();
        let hot: usize = self.hot.batches().iter().map(|b| b.count_path(path)).sum();
        cold + hot
    }

    /// Min/max leaf time of a segment across the immutable forest *and*
    /// the hot tail — the bounds a monolithic tree over the same data
    /// would report.
    pub(crate) fn edge_bounds(&self, e: EdgeId) -> Option<(Timestamp, Timestamp)> {
        let tree = self.forest.tree(e);
        let cold = tree
            .min_key()
            .map(|mn| (mn, tree.max_key().expect("non-empty")));
        match (cold, self.hot.bounds(e)) {
            (None, hot) => hot,
            (cold, None) => cold,
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
        }
    }

    /// Total leaf count of a segment (immutable forest + hot tail).
    pub(crate) fn merged_edge_len(&self, e: EdgeId) -> usize {
        self.forest.tree(e).len() + self.hot.lane(e).len()
    }

    /// Leaf count of a segment in `[lo, hi)` (immutable forest + hot tail)
    /// — what [`TemporalIndex::range_count`] would report on a monolithic
    /// tree over the same data.
    pub(crate) fn merged_range_count(&self, e: EdgeId, lo: Timestamp, hi: Timestamp) -> usize {
        self.forest.tree(e).range_count(lo, hi) + self.hot.slice(e, lo, hi).len()
    }

    /// The pending hot batches (estimator parity; see [`crate::hot`]).
    pub(crate) fn hot_batches(&self) -> &[HotBatch] {
        self.hot.batches()
    }

    /// Scans segment `e` over `[lo, hi)` in exactly the order a monolithic
    /// tree over cold + hot data would: two-way merge of the immutable
    /// tree and the hot lane, cold leaf first on equal timestamps (hot
    /// batches are a strict suffix of the append sequence, and both tree
    /// kinds keep existing entries first on ties). The callback's second
    /// argument distinguishes hot leaves, whose spatial filter is
    /// evaluated against the retained trajectory instead of an ISA range.
    ///
    /// `from` is the tree's window cursor
    /// ([`TemporalIndex::scan_range_from`]): one per scan, threaded
    /// through its ascending windows.
    fn scan_merged(
        &self,
        e: EdgeId,
        lo: Timestamp,
        hi: Timestamp,
        from: &mut usize,
        f: &mut dyn FnMut(&LeafEntry, bool) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let tree = self.forest.tree(e);
        let hot = self.hot.slice(e, lo, hi);
        if hot.is_empty() {
            return tree.scan_range_from(from, lo, hi, &mut |r| f(r, false));
        }
        let mut h = 0usize;
        tree.scan_range_from(from, lo, hi, &mut |c| {
            while h < hot.len() && hot[h].time < c.time {
                f(&hot[h], true)?;
                h += 1;
            }
            f(c, false)
        })?;
        while h < hot.len() {
            f(&hot[h], true)?;
            h += 1;
        }
        ControlFlow::Continue(())
    }

    fn passes_filter(&self, spq: &Spq, traj: u32) -> bool {
        if let Some(ex) = spq.exclude {
            if ex.0 == traj {
                return false;
            }
        }
        match spq.filter {
            Filter::None => true,
            Filter::User(u) => self.user_table[traj as usize] == u,
        }
    }

    /// `buildMap` (Procedure 3): scans the temporal index of the first
    /// segment over the query windows, spatially filters by ISA range,
    /// evaluates the non-temporal predicate, and maps `(d, seq)` to the
    /// antecedent aggregate `a − TT`, stopping once β entries are found.
    ///
    /// Two hot-path by-products ride along, both byte-identical to the
    /// plain build-then-probe pipeline:
    ///
    /// * For **single-segment** paths the probe scan would revisit exactly
    ///   the leaves inserted here (the build and probe segments coincide
    ///   and `(d, seq)` self-matches), in the same order, computing
    ///   `a − (a − TT)` per leaf — so when `collect` is given, that value
    ///   is emitted during this scan and [`SntIndex::probe_map`] is
    ///   skipped entirely.
    /// * The returned spans are where the probe scan can find a match:
    ///   the union, in ascending order, of `[lo, hi + max_span)` over the
    ///   windows `[lo, hi)` that inserted a map entry. A trajectory that
    ///   enters the first segment at `t ∈ [lo, hi)` enters the last one
    ///   at `t' ≥ t` (entry times increase along a trajectory) and at
    ///   `t' ≤ t + span ≤ t + max_span < hi + max_span`.
    fn build_map(
        &self,
        spq: &Spq,
        ranges: &[IsaRange],
        mut collect: Option<&mut Vec<f64>>,
    ) -> (ProbeTable, Vec<(Timestamp, Timestamp)>) {
        let cap = spq.beta_cap() as usize;
        let mut map = ProbeTable::with_capacity(cap.min(1024));
        let mut spans: Vec<(Timestamp, Timestamp)> = Vec::new();
        let first = spq.path.first();
        let Some((kmin, kmax)) = self.edge_bounds(first) else {
            return (map, spans);
        };
        let mut from = 0;
        let _ = spq.interval.for_each_window(kmin, kmax, &mut |lo, hi| {
            let held = map.len();
            let flow = self.scan_merged(first, lo, hi, &mut from, &mut |r, is_hot| {
                let on_path = if is_hot {
                    self.hot.leaf_matches(r, &spq.path)
                } else {
                    ranges[r.partition as usize].contains(r.isa)
                };
                if on_path && self.passes_filter(spq, r.traj) {
                    map.insert(r.traj, r.seq, r.antecedent());
                    if let Some(xs) = collect.as_deref_mut() {
                        // The probe-side arithmetic on the same leaf.
                        xs.push(r.aggregate - r.antecedent());
                    }
                    if map.len() >= cap {
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
            if map.len() > held {
                let end = hi.saturating_add(self.max_span);
                match spans.last_mut() {
                    Some(last) if last.1 >= lo => last.1 = end,
                    _ => spans.push((lo, end)),
                }
            }
            flow
        });
        (map, spans)
    }

    /// `probeMap` (Procedure 4): scans the temporal index of the last
    /// segment, probing the map with `(d, seq + 1 − l)`; every hit yields
    /// the path travel time `a_{l−1} − (a₀ − TT₀)`. The scan stops as soon
    /// as every map entry has been matched (each spatially filtered entry
    /// matches exactly once), and covers only `spans`, the ascending
    /// disjoint time spans [`SntIndex::build_map`] proves every match
    /// lies in: it meets the same hits, in the same order, as a scan of
    /// the whole tree.
    fn probe_map(&self, spq: &Spq, map: &ProbeTable, spans: &[(Timestamp, Timestamp)]) -> Vec<f64> {
        let mut xs = Vec::with_capacity(map.len());
        if map.is_empty() {
            return xs;
        }
        let l = spq.path.len() as u32;
        let last = spq.path.last();
        let Some((kmin, kmax)) = self.edge_bounds(last) else {
            return xs;
        };
        let mut from = 0;
        for &(lo, end) in spans {
            let flow = self.scan_merged(
                last,
                lo.max(kmin),
                end.min(kmax + 1),
                &mut from,
                &mut |r, _| {
                    // Probe hits are map-membership tests: identical for hot and
                    // cold leaves (the map's (traj, seq) keys are global either way).
                    if r.seq + 1 >= l {
                        if let Some(diff) = map.get(r.traj, r.seq + 1 - l) {
                            xs.push(r.aggregate - diff);
                            if xs.len() == map.len() {
                                return ControlFlow::Break(());
                            }
                        }
                    }
                    ControlFlow::Continue(())
                },
            );
            if flow.is_break() {
                break;
            }
        }
        xs
    }

    /// `getTravelTimes` (Procedure 5): retrieves the travel times of up to
    /// β trajectories matching the SPQ.
    ///
    /// * An empty ISA range short-circuits without touching the temporal
    ///   indexes (the FM-index already proves no trajectory traverses `P`).
    /// * Periodic queries that cannot satisfy β return `∅`, signalling the
    ///   splitter to relax the predicates.
    /// * A single-segment query with a fixed interval that still finds
    ///   nothing falls back to the speed-limit estimate.
    pub fn get_travel_times(&self, spq: &Spq) -> TravelTimes {
        self.get_travel_times_with(spq, &mut SearchScratch::new())
    }

    /// [`SntIndex::get_travel_times`] through a per-query
    /// [`SearchScratch`]: the backward search reuses the scratch's buffers
    /// and suffix cache (sub-path and widened re-dispatches of σ skip the
    /// wavelet descent entirely). Byte-identical results.
    pub fn get_travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        scratch.index_query(|scratch| self.get_travel_times_inner(spq, scratch))
    }

    fn get_travel_times_inner(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        scratch.ensure(self.scratch_id, self.mutation_stamp);
        self.fill_ranges(&spq.path, scratch);
        self.answer(spq, &scratch.ranges, &mut scratch.trace)
    }

    /// Procedure 5 behind the backward search: answers `spq` given the
    /// per-partition ISA `ranges` of its path. A periodic query the census
    /// proves short of β is answered `∅` without its temporal scan
    /// ([`SntIndex::provably_short`]).
    fn answer(&self, spq: &Spq, ranges: &[IsaRange], trace: &mut QueryTrace) -> TravelTimes {
        if !self.traversed(&spq.path, ranges) {
            // Procedure 5 returns ∅ here; for the terminal fallback query
            // (single segment, fixed interval) that would strand the
            // splitter, so line 13's estimate applies directly.
            if spq.path.len() == 1 && !spq.interval.is_periodic() {
                return self.estimate(spq);
            }
            return TravelTimes::empty();
        }
        if self.provably_short(spq, &spq.interval, ranges) {
            trace.pruned += 1;
            return TravelTimes::empty();
        }
        self.answer_by_scan(spq, ranges, trace)
    }

    /// Procedure 5, line 13: one inline value — no heap churn on the
    /// estimate paths (σ's terminal fallback takes them constantly).
    fn estimate(&self, spq: &Spq) -> TravelTimes {
        TravelTimes {
            values: TtValues::one(self.estimate_tt[spq.path.first().index()]),
            fallback: true,
        }
    }

    /// The scanning part of Procedure 5, for a path known to be traversed.
    fn answer_by_scan(
        &self,
        spq: &Spq,
        ranges: &[IsaRange],
        trace: &mut QueryTrace,
    ) -> TravelTimes {
        let single = spq.path.len() == 1;
        // Single-segment queries collect their values during the build
        // scan (the probe scan would revisit the same leaves); see
        // `build_map`.
        let mut collected: Vec<f64> = Vec::new();
        trace.temporal_passes += 1;
        let (map, spans) = self.build_map(spq, ranges, single.then_some(&mut collected));
        if let Some(beta) = spq.beta {
            if (map.len() as u32) < beta && spq.interval.is_periodic() {
                return TravelTimes::empty();
            }
        }
        let values = if single {
            collected
        } else {
            self.probe_map(spq, &map, &spans)
        };
        if values.is_empty() && single && !spq.interval.is_periodic() {
            return self.estimate(spq);
        }
        TravelTimes {
            values: values.into(),
            fallback: false,
        }
    }

    /// Whether any trajectory — sealed or hot — traverses `path` at all
    /// (the FM-index short-circuit of Procedure 5).
    fn traversed(&self, path: &tthr_network::Path, ranges: &[IsaRange]) -> bool {
        ranges.iter().any(|r| !r.is_empty()) || self.hot.traverses(path)
    }

    /// Visits, in scan order, every leaf of the path's first segment that
    /// enters during `interval`, lies on the path, and passes the filter
    /// and exclusion predicates — the match sequence `buildMap` draws its
    /// first β entries from.
    fn for_each_match(
        &self,
        spq: &Spq,
        interval: &TimeInterval,
        ranges: &[IsaRange],
        f: &mut dyn FnMut(&LeafEntry, Timestamp) -> ControlFlow<()>,
    ) {
        let first = spq.path.first();
        let Some((kmin, kmax)) = self.edge_bounds(first) else {
            return;
        };
        let mut from = 0;
        let _ = interval.for_each_window(kmin, kmax, &mut |lo, hi| {
            self.scan_merged(first, lo, hi, &mut from, &mut |r, is_hot| {
                let on_path = if is_hot {
                    self.hot.leaf_matches(r, &spq.path)
                } else {
                    ranges[r.partition as usize].contains(r.isa)
                };
                if on_path && self.passes_filter(spq, r.traj) {
                    f(r, lo)?;
                }
                ControlFlow::Continue(())
            })
        });
    }

    /// σ's whole widening sequence for one sub-query in one index call:
    /// returns `(k, times)` where `k` is the first level of `levels`
    /// whose window yields a non-empty answer and `times` is exactly
    /// [`SntIndex::get_travel_times_with`] of `spq` under `levels[k]` —
    /// or the last level with `∅` when every level fails. `levels[0]`
    /// must be `spq.interval`.
    ///
    /// Byte-identical to dispatching the levels one by one (the default
    /// [`TravelTimeProvider::travel_times_ladder`](crate::TravelTimeProvider::travel_times_ladder),
    /// which is also what a malformed, non-nested `levels` falls back
    /// to), with one backward search and at most three temporal scans of
    /// the first segment instead of one per level:
    ///
    /// 0. if the census proves the *widest* level short of β, every level
    ///    is, and the ladder is answered `(last, ∅)` with no scan at all
    ///    (the `census` module documents the bound it compares);
    /// 1. level 0 is answered as always (the common success path is
    ///    untouched);
    /// 2. if it fails, **one** scan of the widest level's windows counts
    ///    each match under the narrowest level containing it. Levels
    ///    nest, so a level's match set is the union of the buckets up to
    ///    it and its scan order is the widest scan's order restricted to
    ///    it — the first level whose cumulative count reaches β is the
    ///    level the sequential loop would have stopped at. The scan ends
    ///    early once level 1 holds β (no narrower candidate remains);
    /// 3. the chosen level is answered by the ordinary Procedure 5 path,
    ///    so β-capping and tie order are the sequential loop's own.
    ///
    /// Works unchanged over the hot tail: matches are drawn from the same
    /// merged scan `buildMap` uses.
    pub(crate) fn travel_times_ladder_with(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut SearchScratch,
    ) -> (usize, TravelTimes) {
        debug_assert_eq!(levels.first(), Some(&spq.interval));
        if levels.len() < 2 || !TimeInterval::is_ladder(levels) {
            return crate::engine::ladder_sequential(self, spq, levels, scratch);
        }
        scratch.trace.ladders += 1;
        scratch.index_query(|scratch| self.ladder_inner(spq, levels, scratch))
    }

    fn ladder_inner(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut SearchScratch,
    ) -> (usize, TravelTimes) {
        scratch.ensure(self.scratch_id, self.mutation_stamp);
        self.fill_ranges(&spq.path, scratch);
        let ranges: &[IsaRange] = &scratch.ranges;
        let trace = &mut scratch.trace;
        let last = levels.len() - 1;
        if !self.traversed(&spq.path, ranges) {
            // Periodic levels all answer ∅ without a scan.
            return (last, TravelTimes::empty());
        }
        if self.provably_short(spq, &levels[last], ranges) {
            trace.pruned += 1;
            return (last, TravelTimes::empty());
        }
        let times = self.answer_by_scan(spq, ranges, trace);
        if !times.is_empty() {
            return (0, times);
        }

        // Each level's daily window as an offset span inside the widest
        // level's window (nesting ⇒ no wrap).
        let (start_sod, _) = levels[last].time_of_day_span().expect("periodic");
        let spans: Vec<(i64, i64)> = levels
            .iter()
            .map(|level| {
                let (sod, end) = level.time_of_day_span().expect("periodic");
                let offset = (sod - start_sod).rem_euclid(SECONDS_PER_DAY);
                (offset, offset + end - sod)
            })
            .collect();
        // An empty answer means fewer than `need` matches (β omitted or 0
        // still needs one value).
        let need = spq.beta.unwrap_or(1).max(1) as usize;
        let mut narrowest = vec![0usize; levels.len()];
        trace.temporal_passes += 1;
        self.for_each_match(spq, &levels[last], ranges, &mut |r, window_lo| {
            let offset = r.time - window_lo;
            let level = spans
                .iter()
                .position(|&(lo, hi)| lo <= offset && offset < hi)
                .expect("the widest level spans its own window");
            narrowest[level] += 1;
            if narrowest[0] + narrowest[1] >= need {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        let mut held = narrowest[0];
        let Some(level) = (1..=last).find(|&k| {
            held += narrowest[k];
            held >= need
        }) else {
            return (last, TravelTimes::empty());
        };
        let times = self.answer_by_scan(&spq.with_interval(levels[level]), ranges, trace);
        debug_assert!(!times.is_empty(), "a level holding β matches answers");
        (level, times)
    }

    /// Exact count of traversals matching all SPQ predicates, capped at
    /// `cap` (σ_L's `|T^{P₁}| ≥ β` test and the q-error ground truth; pass
    /// `u32::MAX` for the uncapped cardinality).
    pub fn count_matching(&self, spq: &Spq, cap: u32) -> usize {
        self.count_matching_with(spq, cap, &mut SearchScratch::new())
    }

    /// [`SntIndex::count_matching`] through a per-query [`SearchScratch`].
    pub fn count_matching_with(&self, spq: &Spq, cap: u32, scratch: &mut SearchScratch) -> usize {
        scratch.index_query(|scratch| self.count_matching_inner(spq, cap, scratch))
    }

    fn count_matching_inner(&self, spq: &Spq, cap: u32, scratch: &mut SearchScratch) -> usize {
        scratch.ensure(self.scratch_id, self.mutation_stamp);
        self.fill_ranges(&spq.path, scratch);
        let ranges: &[IsaRange] = &scratch.ranges;
        if !self.traversed(&spq.path, ranges) {
            return 0;
        }
        let mut n = 0usize;
        scratch.trace.temporal_passes += 1;
        self.for_each_match(spq, &spq.interval, ranges, &mut |_, _| {
            n += 1;
            if n >= cap as usize {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        n
    }

    /// Number of trajectories currently indexed.
    pub fn num_trajectories(&self) -> usize {
        self.user_table.len()
    }

    /// The one mutator — Section 4.3.2's batch append. The batch gets the
    /// next dense ids `num_trajectories()..` (the ids embedded in the
    /// [`Trajectory`](tthr_trajectory::Trajectory) values are ignored) and
    /// is queryable when this returns, byte-identically under either flag:
    ///
    /// * `seal = true` builds the batch's own FM-index and appends its
    ///   leaves to the temporal forest (an append-only operation on
    ///   CSS-trees, ordinary inserts on B+-trees); existing partitions'
    ///   succinct structures are untouched. Batches whose time range
    ///   slightly overlaps the indexed data merge the forest tails;
    ///   β-capped answers stay identical to a from-scratch build because
    ///   timestamp ties keep trajectory-id order either way.
    /// * `seal = false` absorbs the batch into the mutable hot tail — no
    ///   FM-index is built until [`SntIndex::compact`] seals the tail.
    ///
    /// Once the hot tail is non-empty every batch joins it whatever the
    /// flag (batches seal strictly in absorb order), so the two flavours
    /// stay interchangeable mid-stream. Returns the number of trajectories
    /// ingested.
    ///
    /// # Panics
    /// Panics if the partition id space (2¹⁶), or the hot batch id space
    /// (2¹⁶ − 1) before a compaction runs, is exhausted.
    pub fn ingest(&mut self, batch: Vec<Trajectory>, seal: bool) -> usize {
        let starts = vec![0; batch.len()];
        self.ingest_suffixes(batch, starts, seal)
    }

    /// [`SntIndex::ingest`] of the suffixes `batch[i]` has from position
    /// `starts[i]` on (see [`suffix_leaves`]).
    pub(crate) fn ingest_suffixes(
        &mut self,
        batch: Vec<Trajectory>,
        starts: Vec<u32>,
        seal: bool,
    ) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let ingested = batch.len();
        let pending = self.admit(batch, starts);
        if seal && self.hot.is_empty() {
            self.seal_batch(pending);
        } else {
            self.hot.absorb(pending, self.estimate_tt.len());
        }
        self.mutation_stamp += 1;
        ingested
    }

    /// Appends all trajectories of `set` with ids `≥ num_trajectories()` as
    /// one new temporal partition — the paper's whole-set update API over
    /// [`SntIndex::ingest`]. Returns the number of trajectories appended
    /// (0 leaves the index unchanged).
    pub fn append_batch(&mut self, set: &TrajectorySet) -> usize {
        let delta = set.iter().skip(self.num_trajectories()).cloned().collect();
        self.ingest(delta, true)
    }

    /// [`SntIndex::ingest`] with `seal = true` over borrowed trajectories.
    pub fn append_trajectories(&mut self, batch: &[&tthr_trajectory::Trajectory]) -> usize {
        self.ingest(batch.iter().map(|tr| (*tr).clone()).collect(), true)
    }

    /// [`SntIndex::ingest`] with `seal = false` over borrowed trajectories.
    pub fn absorb_trajectories(&mut self, batch: &[&tthr_trajectory::Trajectory]) -> usize {
        self.ingest(batch.iter().map(|tr| (*tr).clone()).collect(), false)
    }

    /// Admission bookkeeping of [`SntIndex::ingest`]: assigns the next
    /// dense ids, folds the batch into `data_min`/`data_max` and the user
    /// table, and builds the pending [`HotBatch`].
    fn admit(&mut self, trajs: Vec<Trajectory>, starts: Vec<u32>) -> HotBatch {
        let from = self.num_trajectories() as u32;
        for tr in &trajs {
            for entry in tr.entries() {
                self.data_max = self.data_max.max(entry.enter_time);
            }
            self.data_min = self.data_min.min(tr.start_time());
            self.user_table.push(tr.user());
        }
        let tod_bucket = self.tod.as_ref().map(|t| t.bucket_secs);
        let batch = HotBatch::build(from, trajs, starts, self.estimate_tt.len(), tod_bucket);
        self.max_span = batch.max_span(self.max_span);
        batch
    }

    /// Recounts the derived leaf bounds in one walk of the forest:
    /// [`SntIndex::max_span`], the widest first-to-last entry time of any
    /// trajectory with a sealed leaf (a restore folds in the hot batches
    /// as it re-absorbs them), and [`SntIndex::part_newest`].
    pub(crate) fn recount_leaf_bounds(&mut self) {
        let mut bounds = vec![(Timestamp::MAX, Timestamp::MIN); self.num_trajectories()];
        let mut part_newest: Vec<Option<Timestamp>> = vec![None; self.partitions.len()];
        self.forest.for_each_leaf(|_, l| {
            if let Some(b) = bounds.get_mut(l.traj as usize) {
                *b = (b.0.min(l.time), b.1.max(l.time));
            }
            if let Some(p) = part_newest.get_mut(l.partition as usize) {
                *p = Some(p.map_or(l.time, |t| t.max(l.time)));
            }
        });
        self.max_span = bounds
            .iter()
            .filter(|b| b.0 <= b.1)
            .map(|b| b.1 - b.0)
            .max()
            .unwrap_or(0);
        self.part_newest = part_newest;
    }

    /// The leaf walk [`SntIndex::part_newest`] replaces: each partition's
    /// newest leaf time, read off the forest — the derived vector's
    /// oracle.
    #[cfg(test)]
    pub(crate) fn part_newest_by_walk(&self) -> Vec<Option<Timestamp>> {
        let mut newest: Vec<Option<Timestamp>> = vec![None; self.partitions.len()];
        self.forest.for_each_leaf(|_, l| {
            let p = &mut newest[l.partition as usize];
            *p = Some(p.map_or(l.time, |t| t.max(l.time)));
        });
        newest
    }

    /// Every leaf, sealed (`false`) and hot (`true`), with its edge — the
    /// suffix oracle's walk (see `Shard::assert_keeps_suffixes`).
    #[cfg(test)]
    pub(crate) fn all_leaves(&self) -> Vec<(usize, LeafEntry, bool)> {
        let mut leaves = Vec::new();
        self.forest
            .for_each_leaf(|e, l| leaves.push((e, *l, false)));
        for e in 0..self.num_edges() {
            let lane = self.hot.lane(EdgeId(e as u32));
            leaves.extend(lane.iter().map(|l| (e, *l, true)));
        }
        leaves
    }

    /// Seals one pending batch as its own immutable partition — the exact
    /// construction direct appends have always used, so the sealed state is
    /// byte-identical to an index that appended the batch directly
    /// (identical FM partition, forest leaves, and ToD row). The batch's
    /// leaves join the forest here, so the census counts them here.
    ///
    /// # Panics
    /// Panics if the partition id space (2¹⁶) is exhausted.
    fn seal_batch(&mut self, mut batch: HotBatch) {
        let hists = batch.take_hists();
        let w = self.partitions.len();
        assert!(w < u16::MAX as usize, "partition id space exhausted");

        // FM-index over the batch's own trajectory string.
        let sigma = self.estimate_tt.len() as u32 + 1;
        let (txt, bases) = text::build_text(batch.kept().map(|(tr, start)| &tr.entries()[start..]));
        let (fm, isa) = FmVariant::build(self.config.wavelet, &txt, sigma);

        // Collect the batch's leaves per edge, then append in time order.
        let num_edges = self.estimate_tt.len();
        let mut per_edge: Vec<Vec<LeafEntry>> = vec![Vec::new(); num_edges];
        for (gi, (tr, start)) in batch.kept().enumerate() {
            for (edge, mut leaf) in suffix_leaves(tr, start, batch.first_id + gi as u32, w as u16) {
                leaf.isa = isa[bases[gi] + leaf.seq as usize - start];
                per_edge[edge].push(leaf);
            }
        }
        self.total_entries += batch.entries;
        self.part_newest.push(batch.trajs.iter().fold(None, newest));
        self.census.add_trajectories(batch.kept());
        if let Some(tod) = &mut self.tod {
            // The batch's ToD row — the same per-entry adds, in the same
            // order, the direct path used to make here.
            tod.hists.push(hists);
        }
        for (edge_idx, mut leaves) in per_edge.into_iter().enumerate() {
            if leaves.is_empty() {
                continue;
            }
            leaves.sort_by_key(|l| l.time);
            self.forest.append(edge_idx, leaves);
        }
        self.partitions.push(fm);
    }

    /// Re-absorbs one snapshot hot batch during restore: the user table
    /// and data span already cover it, so only the tail state (and the
    /// span bound) is rebuilt.
    pub(crate) fn restore_hot_batch(
        &mut self,
        first_id: u32,
        trajs: Vec<Trajectory>,
        starts: Vec<u32>,
    ) {
        let tod_bucket = self.tod.as_ref().map(|t| t.bucket_secs);
        let batch = HotBatch::build(first_id, trajs, starts, self.estimate_tt.len(), tod_bucket);
        self.max_span = batch.max_span(self.max_span);
        self.hot.absorb(batch, self.estimate_tt.len());
        self.mutation_stamp += 1;
    }

    /// Current hot-tail accounting.
    pub fn hot_stats(&self) -> HotStats {
        HotStats {
            batches: self.hot.num_batches(),
            entries: self.hot.num_entries(),
            bytes: self.hot.size_bytes(),
        }
    }

    /// Compaction: seals every pending hot batch into its own immutable
    /// partition (in absorb order — reproducing exactly the state direct
    /// appends would have built), then applies the retention horizon if
    /// one is given. Queries before and after a compaction with no horizon
    /// answer byte-identically; only the representation moves.
    pub fn compact(&mut self, retention_horizon: Option<Timestamp>) -> CompactionOutcome {
        let mut out = CompactionOutcome::default();
        for batch in self.hot.drain_batches() {
            out.sealed_batches += 1;
            out.sealed_entries += batch.entries;
            self.seal_batch(batch);
        }
        if let Some(horizon) = retention_horizon {
            let (parts, entries) = self.apply_retention(horizon);
            out.dropped_partitions = parts;
            out.dropped_entries = entries;
        }
        if out.changed() {
            self.mutation_stamp += 1;
        }
        out
    }

    /// Drops every immutable partition whose newest leaf lies strictly
    /// before `horizon` — partition-granular retention: a batch expires
    /// only once *every* trajectory in it has its last timestamp behind
    /// the horizon, so nothing visible is ever half-dropped. Surviving
    /// partitions are renumbered densely and the forest is rebuilt on the
    /// filtered leaf sequence (relative order — including timestamp-tie
    /// order — is preserved, so answers match an index that only ever
    /// appended the surviving batches); the same walk counts the dropped
    /// entries, recounts the census and finds the new `data_min`. The
    /// decisions come from [`SntIndex::part_newest`], so a horizon that
    /// drops nothing walks no leaf. The user table keeps its full dense
    /// id space (4 bytes per expired trajectory) so global ids never
    /// shift. Runs on a sealed index only ([`SntIndex::compact`] drains
    /// the hot tail first).
    fn apply_retention(&mut self, horizon: Timestamp) -> (usize, usize) {
        debug_assert!(self.hot.is_empty(), "retention runs after sealing");
        let drop: Vec<bool> = self
            .part_newest
            .iter()
            .map(|t| t.is_some_and(|t| t < horizon))
            .collect();
        if !drop.contains(&true) {
            return (0, 0);
        }
        let mut remap: Vec<u16> = vec![u16::MAX; drop.len()];
        let mut next = 0u16;
        for (p, &dropped) in drop.iter().enumerate() {
            if !dropped {
                remap[p] = next;
                next += 1;
            }
        }
        let dropped_parts = drop.len() - next as usize;
        let kept = |p: &mut usize| {
            let keep = !drop[*p];
            *p += 1;
            keep
        };
        let mut p = 0;
        self.partitions.retain(|_| kept(&mut p));
        let mut p = 0;
        self.part_newest.retain(|_| kept(&mut p));
        if let Some(tod) = &mut self.tod {
            let mut p = 0;
            tod.hists.retain(|_| kept(&mut p));
        }
        let mut census = LeafCounter::new(&self.user_table);
        let mut min_time = i64::MAX;
        let mut dropped_entries = 0usize;
        self.forest.retain_map(&mut |edge, l| {
            if drop[l.partition as usize] {
                dropped_entries += 1;
                return None;
            }
            census.add(edge, l);
            min_time = min_time.min(l.time);
            Some(LeafEntry {
                partition: remap[l.partition as usize],
                ..*l
            })
        });
        self.census = census.finish();
        self.total_entries -= dropped_entries;
        // data_min tracks the oldest *retained* leaf (data_max stays — a
        // high-water mark). With nothing left, the old floor is harmless:
        // every scan bound comes from the now-empty forest.
        if min_time != i64::MAX {
            self.data_min = min_time;
        }
        (dropped_parts, dropped_entries)
    }

    /// Memory accounting for the Figure 10 experiments.
    pub fn memory_report(&self) -> MemoryReport {
        let census_bytes = self.census.size_bytes();
        MemoryReport {
            counts_bytes: self.partitions.iter().map(|p| p.counts_size_bytes()).sum(),
            wavelet_bytes: self.partitions.iter().map(|p| p.wavelet_size_bytes()).sum(),
            user_bytes: self.user_table.len() * std::mem::size_of::<UserId>() + census_bytes,
            census_bytes,
            forest_bytes: self.forest.size_bytes(),
            forest_logical_bytes: self.total_entries * LeafEntry::logical_size(true),
            forest_logical_bytes_no_partition: self.total_entries * LeafEntry::logical_size(false),
            tod_bytes: self.tod.as_ref().map(|t| t.size_bytes()).unwrap_or(0),
            total_entries: self.total_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::ControlFlow;
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E, EDGE_F};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::{TrajId, UserId};

    fn index() -> SntIndex {
        SntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
        )
    }

    #[test]
    fn figure_4_temporal_index_of_segment_a() {
        // The paper's Figure 4: the temporal index Φ_A maps each entry
        // timestamp to (isa, d, TT, a, seq). All four example trajectories
        // enter A first (seq 0, a = TT), at t = 0, 2, 4, 6; their ISA
        // values are the ranks of the suffixes starting at text positions
        // 0, 4, 9, 13 of ABE$ACDE$ABF$ABE$ — 5, 7, 6, 4 (Figure 3).
        let idx = index();
        let phi_a = idx.temporal(EDGE_A);
        assert_eq!(phi_a.len(), 4);
        let mut rows = Vec::new();
        let _ = phi_a.scan_range(i64::MIN, i64::MAX, &mut |r| {
            rows.push((r.time, r.isa, r.traj, r.travel_time, r.aggregate, r.seq));
            ControlFlow::Continue(())
        });
        assert_eq!(
            rows,
            vec![
                (0, 5, 0, 3.0, 3.0, 0),
                (2, 7, 1, 4.0, 4.0, 0),
                (4, 6, 2, 3.0, 3.0, 0),
                (6, 4, 3, 3.0, 3.0, 0),
            ]
        );
    }

    #[test]
    fn aggregates_allow_two_scan_retrieval() {
        // Dur(tr1, ⟨A,C,D,E⟩) = a_3 − (a_0 − TT_0) = 15 − (4 − 4) = 15,
        // read off E's leaf (a = 15) and A's leaf (antecedent 0).
        let idx = index();
        let phi_e = idx.temporal(EDGE_E);
        let mut tr1_leaf = None;
        let _ = phi_e.scan_range(i64::MIN, i64::MAX, &mut |r| {
            if r.traj == 1 {
                tr1_leaf = Some(*r);
            }
            ControlFlow::Continue(())
        });
        let leaf = tr1_leaf.expect("tr1 traverses E");
        assert_eq!(leaf.aggregate, 15.0);
        assert_eq!(leaf.seq, 3);
        assert_eq!(leaf.travel_time, 5.0);
    }

    #[test]
    fn section_2_3_example_queries() {
        let idx = index();
        // Q = spq(⟨A,B,E⟩, [0,15), u = u1, 2) → {11, 10}.
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        )
        .with_user(UserId(1))
        .with_beta(2);
        assert_eq!(idx.get_travel_times(&q).sorted(), vec![10.0, 11.0]);
        // Q1 = spq(⟨A,B⟩, [0,15), ∅, 3) → {6, 6, 7} and
        // Q2 = spq(⟨E⟩, [0,15), ∅, 3) → {4, 4, 5}.
        let q1 = Spq::new(Path::new(vec![EDGE_A, EDGE_B]), TimeInterval::fixed(0, 15)).with_beta(3);
        assert_eq!(idx.get_travel_times(&q1).sorted(), vec![6.0, 6.0, 7.0]);
        let q2 = Spq::new(Path::new(vec![EDGE_E]), TimeInterval::fixed(0, 15)).with_beta(3);
        assert_eq!(idx.get_travel_times(&q2).sorted(), vec![4.0, 4.0, 5.0]);
    }

    #[test]
    fn isa_ranges_match_figure_3() {
        let idx = index();
        let ra = idx.isa_ranges(&Path::new(vec![EDGE_A]));
        assert_eq!(ra.len(), 1, "FULL config has one partition");
        assert_eq!((ra[0].start, ra[0].end), (4, 8));
        let rab = idx.isa_ranges(&Path::new(vec![EDGE_A, EDGE_B]));
        assert_eq!((rab[0].start, rab[0].end), (4, 7));
    }

    #[test]
    fn periodic_beta_miss_returns_empty_but_fixed_does_not() {
        let idx = index();
        // Only one trajectory (tr2) traverses F.
        let periodic =
            Spq::new(Path::new(vec![EDGE_F]), TimeInterval::periodic(0, 900)).with_beta(3);
        assert!(idx.get_travel_times(&periodic).is_empty());
        // A fixed interval is processed regardless of β (Procedure 5, l. 7).
        let fixed = Spq::new(Path::new(vec![EDGE_F]), TimeInterval::fixed(0, 100)).with_beta(3);
        let res = idx.get_travel_times(&fixed);
        assert_eq!(res.sorted(), vec![6.0]);
        assert!(!res.fallback);
    }

    #[test]
    fn speed_limit_fallback_for_dataless_segment() {
        // An index over a single trajectory that never touches F: the
        // fixed-interval fallback answers with estimateTT(F) = 36 s.
        let net = example_network();
        let mut set = tthr_trajectory::TrajectorySet::new();
        set.push(
            UserId(0),
            vec![tthr_trajectory::TrajEntry::new(EDGE_A, 0, 3.0)],
        )
        .unwrap();
        let idx = SntIndex::build(&net, &set, SntConfig::default());
        let q = Spq::new(Path::new(vec![EDGE_F]), TimeInterval::fixed(0, 100));
        let res = idx.get_travel_times(&q);
        assert!(res.fallback);
        assert!((res.values[0] - 36.0).abs() < 0.05);
        // But a periodic query on the same segment stays empty (σ must
        // keep relaxing it).
        let qp = Spq::new(Path::new(vec![EDGE_F]), TimeInterval::periodic(0, 900));
        assert!(idx.get_travel_times(&qp).is_empty());
    }

    #[test]
    fn user_container_maps_ids() {
        let idx = index();
        assert_eq!(idx.user_of(0), UserId(1));
        assert_eq!(idx.user_of(1), UserId(2));
        assert_eq!(idx.user_of(2), UserId(2));
        assert_eq!(idx.user_of(3), UserId(1));
    }

    #[test]
    fn exclusion_is_honoured_in_counts() {
        let idx = index();
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 100),
        );
        assert_eq!(idx.count_matching(&q, u32::MAX), 2);
        let q_excl = q.without_trajectory(TrajId(0));
        assert_eq!(idx.count_matching(&q_excl, u32::MAX), 1);
    }

    #[test]
    fn memory_report_accounts_all_components() {
        let idx = index();
        let m = idx.memory_report();
        assert_eq!(m.total_entries, 13);
        assert_eq!(m.forest_logical_bytes, 13 * LeafEntry::logical_size(true));
        assert!(m.wavelet_bytes > 0);
        assert!(m.counts_bytes > 0);
        assert!(m.census_bytes > 0);
        assert_eq!(
            m.user_bytes,
            4 * std::mem::size_of::<UserId>() + m.census_bytes,
            "U table + census"
        );
        assert!(m.tod_bytes > 0, "default config builds the ToD store");
    }

    #[test]
    fn scratch_suffix_hits_match_fresh_searches() {
        let idx = index();
        let mut scratch = SearchScratch::new();
        let abe = Path::new(vec![EDGE_A, EDGE_B, EDGE_E]);
        // Seed the suffix cache with the full path…
        let full: Vec<IsaRange> = idx.isa_ranges_with(&abe, &mut scratch).to_vec();
        assert_eq!(full, idx.isa_ranges(&abe));
        assert_eq!(scratch.cached_searches(), 1);
        // …then every suffix sub-path must answer from it, identically.
        for sub in [
            Path::new(vec![EDGE_B, EDGE_E]),
            Path::new(vec![EDGE_E]),
            abe.clone(),
        ] {
            let got: Vec<IsaRange> = idx.isa_ranges_with(&sub, &mut scratch).to_vec();
            assert_eq!(got, idx.isa_ranges(&sub), "suffix {sub:?}");
            assert_eq!(scratch.cached_searches(), 1, "answered from cache");
        }
        // A non-suffix path is a fresh search.
        let ab = Path::new(vec![EDGE_A, EDGE_B]);
        assert_eq!(
            idx.isa_ranges_with(&ab, &mut scratch).to_vec(),
            idx.isa_ranges(&ab)
        );
        assert_eq!(scratch.cached_searches(), 2);
    }

    #[test]
    fn trace_attributes_scratch_hits_and_rank_work() {
        let idx = index();
        let mut scratch = SearchScratch::new();
        let abe = Path::new(vec![EDGE_A, EDGE_B, EDGE_E]);
        let q = Spq::new(abe.clone(), TimeInterval::fixed(0, 100)).with_beta(2);

        let baseline = idx.get_travel_times(&q);
        let r = idx.get_travel_times_with(&q, &mut scratch);
        assert_eq!(
            r.sorted(),
            baseline.sorted(),
            "tracing never changes results"
        );
        let t = scratch.trace;
        assert_eq!(t.index_queries, 1);
        assert_eq!(t.scratch_misses, 1, "first search is a miss");
        assert_eq!(t.scratch_hits, 0);
        assert_eq!(t.partitions_searched as usize, idx.num_partitions());
        assert_eq!(t.rank_ops, 3, "one rank per live symbol of ⟨A,B,E⟩");
        assert!(t.wavelet_nodes >= t.rank_ops, "each rank descends ≥ 1 node");
        assert_eq!(t.search_ns, 0, "timing is off by default");

        // A suffix sub-path answers from the scratch cache: hit, no ranks.
        let be = Spq::new(Path::new(vec![EDGE_B, EDGE_E]), TimeInterval::fixed(0, 100));
        let before = scratch.trace;
        let _ = idx.get_travel_times_with(&be, &mut scratch);
        let t = scratch.trace;
        assert_eq!(t.scratch_hits, before.scratch_hits + 1);
        assert_eq!(t.rank_ops, before.rank_ops, "cache hit ranks nothing");
        assert_eq!(t.index_queries, 2);

        // Timing, when requested, accumulates wall-clock nanoseconds.
        let mut timed = SearchScratch::new();
        timed.trace.timing = true;
        let _ = idx.get_travel_times_with(&q, &mut timed);
        assert!(timed.trace.search_ns > 0, "timed trace reads the clock");

        // count_matching traces the same way.
        let mut counting = SearchScratch::new();
        let n = idx.count_matching_with(&q, u32::MAX, &mut counting);
        assert_eq!(n, idx.count_matching(&q, u32::MAX));
        assert_eq!(counting.trace.index_queries, 1);
        assert_eq!(counting.trace.scratch_misses, 1);
    }

    #[test]
    fn scratch_invalidates_across_appends() {
        let net = example_network();
        let set = example_trajectories();
        let mut idx = SntIndex::build(&net, &set, SntConfig::default());
        let mut scratch = SearchScratch::new();
        let e = Path::new(vec![EDGE_E]);
        let before: Vec<IsaRange> = idx.isa_ranges_with(&e, &mut scratch).to_vec();

        // Append a new trajectory traversing E: the scratch, reused across
        // the append, must drop its cached states and re-search.
        let mut grown = set.clone();
        grown
            .push(
                UserId(7),
                vec![tthr_trajectory::TrajEntry::new(EDGE_E, 100, 4.0)],
            )
            .unwrap();
        idx.append_batch(&grown);
        let after: Vec<IsaRange> = idx.isa_ranges_with(&e, &mut scratch).to_vec();
        assert_eq!(after, idx.isa_ranges(&e), "post-append ranges are fresh");
        assert_eq!(after.len(), 2, "appended batch adds a partition");
        assert_ne!(before, after);
    }

    #[test]
    fn scratch_never_aliases_distinct_indexes() {
        // Two different indexes with the *same* trajectory count: one
        // shared scratch must re-search, not serve the other index's
        // cached states (each instance carries a process-unique id).
        let net = example_network();
        let full = example_trajectories();
        let mut swapped = tthr_trajectory::TrajectorySet::new();
        // Same number of trajectories, different traversals: drop E from
        // tr0's path and reuse the remaining examples verbatim.
        for (i, tr) in full.iter().enumerate() {
            let entries: Vec<_> = if i == 0 {
                tr.entries()[..2].to_vec()
            } else {
                tr.entries().to_vec()
            };
            swapped.push(tr.user(), entries).unwrap();
        }
        let a = SntIndex::build(&net, &full, SntConfig::default());
        let b = SntIndex::build(&net, &swapped, SntConfig::default());
        assert_eq!(a.num_trajectories(), b.num_trajectories());
        let abe = Path::new(vec![EDGE_A, EDGE_B, EDGE_E]);
        let mut scratch = SearchScratch::new();
        let from_a: Vec<IsaRange> = a.isa_ranges_with(&abe, &mut scratch).to_vec();
        let from_b: Vec<IsaRange> = b.isa_ranges_with(&abe, &mut scratch).to_vec();
        assert_eq!(from_a, a.isa_ranges(&abe));
        assert_eq!(from_b, b.isa_ranges(&abe));
        assert_ne!(from_a, from_b, "the two indexes answer differently");
    }

    #[test]
    fn travel_times_estimate_is_inline() {
        // The fallback estimate must not allocate: its TtValues compares
        // equal to the heap spelling but reports the same single value.
        let one = TtValues::one(36.0);
        assert_eq!(one, TtValues::from(vec![36.0]));
        assert_eq!(one.as_slice(), &[36.0]);
        assert_eq!(one.into_vec(), vec![36.0]);
        assert!(TtValues::EMPTY.is_empty());
        assert_eq!(TtValues::EMPTY.into_vec(), Vec::<f64>::new());
    }

    #[test]
    fn empty_index_answers_gracefully() {
        let net = example_network();
        let idx = SntIndex::build(
            &net,
            &tthr_trajectory::TrajectorySet::new(),
            SntConfig::default(),
        );
        assert_eq!(idx.num_partitions(), 1);
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::periodic(0, 900));
        assert!(idx.get_travel_times(&q).is_empty());
        let qf = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 100));
        assert!(idx.get_travel_times(&qf).fallback);
    }
}

#[cfg(test)]
mod lifecycle_tests {
    //! The hot-tail equivalence invariant, pinned at the index level: an
    //! index with a non-empty hot tail must answer every query — travel
    //! times, counts, *and* every estimator mode — byte-identically to
    //! one that direct-appended the same batch schedule, and sealing the
    //! tail must reproduce the direct-append state down to the snapshot
    //! bytes.

    use super::*;
    use crate::cardinality::{estimate_cardinality, CardinalityMode};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B};
    use tthr_network::{EdgeId, Path};
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::{TrajEntry, TrajId, Trajectory, TrajectorySet, UserId};

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// A deterministic batch of valid trajectories over the example
    /// network's six edges, entering within ~100 s of `first_time`.
    fn random_batch(s: &mut u64, first_time: i64, n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|_| {
                let len = 1 + (lcg(s) % 5) as usize;
                let mut t = first_time + (lcg(s) % 50) as i64;
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    let e = EdgeId((lcg(s) % 6) as u32);
                    let tt = 1.0 + (lcg(s) % 80) as f64 / 8.0;
                    entries.push(TrajEntry::new(e, t, tt));
                    t += 1 + (lcg(s) % 9) as i64;
                }
                Trajectory::new(TrajId(0), UserId((lcg(s) % 3) as u32), entries).unwrap()
            })
            .collect()
    }

    /// Randomized-but-deterministic queries whose paths are sub-paths of
    /// applied trajectories (so answers are non-trivial).
    fn workload(all: &[Trajectory], s: &mut u64) -> Vec<Spq> {
        all.iter()
            .map(|tr| {
                let len = 1 + (lcg(s) as usize % tr.len().min(3));
                let start = lcg(s) as usize % (tr.len() - len + 1);
                let path = tr.path().sub_path(start..start + len);
                let enter = tr.entries()[start].enter_time;
                let interval = match lcg(s) % 4 {
                    0 => TimeInterval::fixed(0, i64::MAX / 4),
                    1 => TimeInterval::fixed(enter - 30, enter + 30),
                    2 => TimeInterval::periodic(enter.rem_euclid(86_400).min(86_000), 300),
                    _ => TimeInterval::periodic(0, 900),
                };
                let mut q = Spq::new(path, interval);
                if lcg(s).is_multiple_of(2) {
                    q = q.with_beta(1 + (lcg(s) % 4) as u32);
                }
                if lcg(s).is_multiple_of(4) {
                    q = q.with_user(tr.user());
                }
                q
            })
            .collect()
    }

    /// Byte-level equivalence on a workload: travel-time bit patterns in
    /// scan order, fallback flags, capped and uncapped counts, and every
    /// estimator mode's bit pattern.
    fn assert_identical(a: &SntIndex, b: &SntIndex, queries: &[Spq]) {
        assert_eq!(a.num_trajectories(), b.num_trajectories());
        for q in queries {
            let x = a.get_travel_times(q);
            let y = b.get_travel_times(q);
            let xb: Vec<u64> = x.values.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb, "travel times diverge: {q:?}");
            assert_eq!(x.fallback, y.fallback, "fallback diverges: {q:?}");
            assert_eq!(
                a.count_matching(q, u32::MAX),
                b.count_matching(q, u32::MAX),
                "uncapped count diverges: {q:?}"
            );
            assert_eq!(
                a.count_matching(q, 3),
                b.count_matching(q, 3),
                "capped count diverges: {q:?}"
            );
            assert_eq!(a.traversal_count(&q.path), b.traversal_count(&q.path));
            for mode in CardinalityMode::ALL {
                let ea = estimate_cardinality(a, q, mode);
                let eb = estimate_cardinality(b, q, mode);
                assert_eq!(ea.to_bits(), eb.to_bits(), "{mode:?} diverges: {q:?}");
            }
        }
    }

    fn configs() -> Vec<SntConfig> {
        vec![
            SntConfig::default(),
            SntConfig {
                tree: TreeKind::BPlus,
                ..SntConfig::default()
            },
            SntConfig {
                tod_bucket_secs: Some(600),
                ..SntConfig::default()
            },
            SntConfig {
                tree: TreeKind::BPlus,
                wavelet: WaveletKind::Matrix,
                tod_bucket_secs: Some(600),
                ..SntConfig::default()
            },
        ]
    }

    #[test]
    fn hot_tail_is_byte_identical_to_direct_appends() {
        for config in configs() {
            let net = example_network();
            let set = example_trajectories();
            let mut direct = SntIndex::build(&net, &set, config);
            let mut hot = SntIndex::build(&net, &set, config);
            let mut all: Vec<Trajectory> = (0..set.len())
                .map(|id| set.get(TrajId(id as u32)).clone())
                .collect();

            let mut s = 42u64;
            let mut queries = Vec::new();
            for b in 0..4i64 {
                // Overlapping time windows: hot leaves interleave (and tie)
                // with cold ones instead of appending past them.
                let batch = random_batch(&mut s, b * 40, 5);
                let refs: Vec<&Trajectory> = batch.iter().collect();
                assert_eq!(direct.append_trajectories(&refs), 5);
                assert_eq!(hot.absorb_trajectories(&refs), 5);
                all.extend(batch);
                queries = workload(&all, &mut s);
                assert_identical(&direct, &hot, &queries);
            }
            assert_eq!(hot.hot_stats().batches, 4);
            let absorbed: usize = all[set.len()..].iter().map(|t| t.len()).sum();
            assert_eq!(hot.hot_stats().entries, absorbed);

            // The hot tail survives a snapshot round trip (HOT section).
            let restored = SntIndex::from_snapshot_bytes(&hot.to_snapshot_bytes()).unwrap();
            assert_eq!(restored.hot_stats(), hot.hot_stats());
            assert_identical(&direct, &restored, &queries);

            // Sealing reproduces the direct-append state exactly.
            let out = hot.compact(None);
            assert_eq!(out.sealed_batches, 4);
            assert_eq!(out.dropped_partitions, 0);
            assert_eq!(hot.hot_stats(), HotStats::default());
            assert_eq!(
                hot.to_snapshot_bytes(),
                direct.to_snapshot_bytes(),
                "sealed snapshot differs from direct-append snapshot"
            );
            assert_identical(&direct, &hot, &queries);
        }
    }

    /// The hot tail's cost contract, by count rather than by clock:
    /// absorbing a batch builds no FM-index — no partition, no wavelet
    /// or counts byte — and only queues the batch; sealing it does.
    #[test]
    fn absorbing_a_batch_builds_no_fm_index() {
        for config in configs() {
            let mut idx = SntIndex::build(&example_network(), &example_trajectories(), config);
            let sealed = idx.memory_report();
            let mut s = 11u64;
            for b in 0..3i64 {
                let (partitions, batches) = (idx.num_partitions(), idx.hot_stats().batches);
                let batch = random_batch(&mut s, b * 40, 5);
                let refs: Vec<&Trajectory> = batch.iter().collect();
                assert_eq!(idx.absorb_trajectories(&refs), 5);
                let m = idx.memory_report();
                assert_eq!(idx.num_partitions(), partitions, "{config:?}");
                assert_eq!(m.wavelet_bytes, sealed.wavelet_bytes, "{config:?}");
                assert_eq!(m.counts_bytes, sealed.counts_bytes, "{config:?}");
                assert_eq!(idx.hot_stats().batches, batches + 1, "{config:?}");
            }
            idx.compact(None);
            assert!(
                idx.memory_report().wavelet_bytes > sealed.wavelet_bytes,
                "sealing builds what absorbing deferred: {config:?}"
            );
        }
    }

    #[test]
    fn direct_append_after_absorb_joins_the_hot_tail() {
        // A mixed schedule — absorb, append, absorb — must order batches by
        // arrival: the direct append lands *after* the pending hot batch.
        let net = example_network();
        let set = example_trajectories();
        let mut mixed = SntIndex::build(&net, &set, SntConfig::default());
        let mut direct = SntIndex::build(&net, &set, SntConfig::default());
        let mut all: Vec<Trajectory> = (0..set.len())
            .map(|id| set.get(TrajId(id as u32)).clone())
            .collect();

        let mut s = 7u64;
        for (i, use_absorb) in [true, false, true].iter().enumerate() {
            let batch = random_batch(&mut s, i as i64 * 30, 4);
            let refs: Vec<&Trajectory> = batch.iter().collect();
            if *use_absorb {
                mixed.absorb_trajectories(&refs);
            } else {
                mixed.append_trajectories(&refs);
            }
            direct.append_trajectories(&refs);
            all.extend(batch);
        }
        assert_eq!(mixed.hot_stats().batches, 3, "the append must delegate");
        let queries = workload(&all, &mut s);
        assert_identical(&direct, &mixed, &queries);
        mixed.compact(None);
        assert_eq!(mixed.to_snapshot_bytes(), direct.to_snapshot_bytes());
    }

    #[test]
    fn retention_drops_expired_partitions() {
        let config = SntConfig {
            tod_bucket_secs: Some(600),
            ..SntConfig::default()
        };
        let net = example_network();
        let empty = TrajectorySet::new();
        let mut idx = SntIndex::build(&net, &empty, config);
        let mut s = 9u64;
        let old = random_batch(&mut s, 0, 4);
        let mid = random_batch(&mut s, 10_000, 4);
        let new = random_batch(&mut s, 20_000, 4);
        for batch in [&old, &mid, &new] {
            let refs: Vec<&Trajectory> = batch.iter().collect();
            idx.append_trajectories(&refs);
        }

        // Horizon between the old and mid batches: exactly the old batch's
        // partition expires (every trajectory in it ended long before).
        let out = idx.compact(Some(5_000));
        assert_eq!(out.dropped_partitions, 1);
        assert!(out.dropped_entries > 0);
        assert!(out.changed());
        // Expired trajectories keep their id slots: ids never shift.
        assert_eq!(idx.num_trajectories(), 12);

        // Suffix oracle: an index that only ever saw the surviving batches
        // (both keep the empty build partition, so partition structure —
        // which the Acc estimator modes read — lines up exactly).
        let mut oracle = SntIndex::build(&net, &empty, config);
        for batch in [&mid, &new] {
            let refs: Vec<&Trajectory> = batch.iter().collect();
            oracle.append_trajectories(&refs);
        }
        assert_eq!(idx.num_partitions(), oracle.num_partitions());
        let mut survivors: Vec<Trajectory> = mid.clone();
        survivors.extend(new.iter().cloned());
        for q in workload(&survivors, &mut s) {
            let x = idx.get_travel_times(&q);
            let y = oracle.get_travel_times(&q);
            let xb: Vec<u64> = x.values.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb, "retained index diverges from suffix oracle: {q:?}");
            assert_eq!(
                idx.count_matching(&q, u32::MAX),
                oracle.count_matching(&q, u32::MAX),
                "{q:?}"
            );
            for mode in CardinalityMode::ALL {
                assert_eq!(
                    estimate_cardinality(&idx, &q, mode).to_bits(),
                    estimate_cardinality(&oracle, &q, mode).to_bits(),
                    "{mode:?} {q:?}"
                );
            }
        }

        // Idempotent: a second compaction at the same horizon is a no-op.
        let again = idx.compact(Some(5_000));
        assert!(!again.changed());
    }

    #[test]
    fn retention_below_all_data_is_a_noop() {
        let mut idx = SntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
        );
        let before = idx.to_snapshot_bytes();
        let out = idx.compact(Some(i64::MIN));
        assert!(!out.changed());
        assert_eq!(idx.to_snapshot_bytes(), before);
    }

    /// Retention reads its drop decisions from `part_newest`, so the
    /// vector must equal the leaf walk's through build (an empty one, day
    /// partitions), seal (direct and absorbed), restore with a hot tail
    /// and a retention drop, on both forests; and a horizon's drops must
    /// be exactly the partitions the walk puts before it.
    #[test]
    fn partition_newest_times_match_the_leaf_walk() {
        const DAY: i64 = 86_400;
        let net = example_network();
        for tree in [TreeKind::Css, TreeKind::BPlus] {
            let check = |idx: &SntIndex, at: &str| {
                assert_eq!(idx.part_newest, idx.part_newest_by_walk(), "{tree:?}: {at}");
            };
            let config = SntConfig {
                tree,
                partition_days: Some(1),
                ..SntConfig::default()
            };
            let empty = SntIndex::build(&net, &TrajectorySet::new(), config);
            check(&empty, "an empty build");
            assert_eq!(empty.part_newest, vec![None]);

            let mut s = 11u64;
            let mut set = TrajectorySet::new();
            for t0 in [0, 3 * DAY] {
                for tr in random_batch(&mut s, t0, 4) {
                    set.push(tr.user(), tr.entries().to_vec()).unwrap();
                }
            }
            let mut idx = SntIndex::build(&net, &set, config);
            check(&idx, "a day-partitioned build");
            assert!(idx.part_newest.iter().filter(|t| t.is_some()).count() >= 2);
            let sealed = random_batch(&mut s, 6 * DAY, 3);
            idx.append_trajectories(&sealed.iter().collect::<Vec<_>>());
            check(&idx, "a sealed append");
            let absorbed = random_batch(&mut s, 9 * DAY, 3);
            idx.absorb_trajectories(&absorbed.iter().collect::<Vec<_>>());
            idx = SntIndex::from_snapshot_bytes(&idx.to_snapshot_bytes()).unwrap();
            check(&idx, "a restore with a hot tail");
            for horizon in [i64::MIN, DAY, 5 * DAY] {
                let walked = idx.part_newest_by_walk();
                let want = walked.iter().filter(|t| t.is_some_and(|t| t < horizon));
                let (want, parts) = (want.count(), walked.len());
                let pending = idx.hot_stats().batches;
                let out = idx.compact(Some(horizon));
                assert_eq!(out.dropped_partitions, want, "{tree:?} horizon {horizon}");
                check(&idx, "a retention pass");
                assert_eq!(idx.num_partitions(), parts + pending - want);
            }
            let live = idx.part_newest.iter().filter(|t| t.is_some()).count();
            assert_eq!(live, 2, "the day-6 seal and the day-9 tail remain");
        }
    }

    #[test]
    fn compaction_invalidates_reused_scratches() {
        // Compaction adds partitions *without* changing the trajectory
        // count — a scratch stamped by trajectory count would serve stale
        // single-partition ISA ranges afterwards.
        let mut idx = SntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
        );
        let path = Path::new(vec![EDGE_A, EDGE_B]);
        let mut scratch = SearchScratch::new();
        assert_eq!(idx.isa_ranges_with(&path, &mut scratch).len(), 1);

        let tr = Trajectory::new(
            TrajId(0),
            UserId(9),
            vec![
                TrajEntry::new(EDGE_A, 50, 2.0),
                TrajEntry::new(EDGE_B, 52, 2.0),
            ],
        )
        .unwrap();
        idx.absorb_trajectories(&[&tr]);
        idx.compact(None);
        assert_eq!(
            idx.isa_ranges_with(&path, &mut scratch).len(),
            2,
            "stale scratch served pre-compaction ranges"
        );
        assert_eq!(idx.traversal_count(&path), 4);
    }
}
