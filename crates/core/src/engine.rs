//! The trip-query engine: Procedure 6 with cardinality-estimator gating.
//!
//! A trip query is partitioned (π), each sub-query is adapted with
//! shift-and-enlarge, optionally pre-checked by the cardinality estimator,
//! dispatched to the SNT-index, and relaxed with σ until it produces travel
//! times. The per-sub-path histograms are normalized and convolved into the
//! travel-time distribution of the whole trip.

use crate::cardinality::{estimate_cardinality, CardinalityMode};
use crate::interval::TimeInterval;
use crate::partition::{partition_query, PartitionMethod};
use crate::snt::{SearchScratch, SntIndex, TravelTimes};
use crate::split::{SplitMethod, Splitter};
use crate::spq::Spq;
use crate::trace::QueryTrace;
use std::collections::VecDeque;
use tthr_histogram::Histogram;
use tthr_network::{Path, RoadNetwork};

/// A source of SPQ travel times.
///
/// The engine dispatches every `getTravelTimes` call through this trait, so
/// the raw [`SntIndex`] can be wrapped — e.g. by the result cache of
/// `tthr-service` — without the engine knowing. Implementations must answer
/// exactly like [`SntIndex::get_travel_times`] on the same index state;
/// the engine's relaxation logic relies on emptiness meaning "relax more".
pub trait TravelTimeProvider {
    /// Travel times matching the SPQ (`getTravelTimes`, Procedure 5),
    /// searched through a caller-owned [`SearchScratch`] — the engine
    /// passes one scratch down a whole trip so sub-path searches reuse the
    /// parent path's backward-search states. A provider that cannot
    /// exploit the scratch ignores it.
    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes;

    /// Answers a whole relaxation ladder — `spq` under each window of
    /// `levels` in turn (`levels[0]` is `spq.interval`; see
    /// [`Splitter::ladder`]) — returning `(k, times)`: the first level
    /// with a non-empty answer and that answer, or the last level with
    /// `∅` when every level fails.
    ///
    /// The default is the sequential loop, one
    /// [`travel_times_with`](Self::travel_times_with) per level: it *is*
    /// the definition, the oracle every override is tested against, and
    /// what a provider that cannot do better keeps using. Overrides
    /// (the indexes, the service cache, the cluster's remote backend)
    /// must return exactly what this loop returns.
    fn travel_times_ladder(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut SearchScratch,
    ) -> (usize, TravelTimes) {
        ladder_sequential(self, spq, levels, scratch)
    }

    /// Answers one relaxation round of a trip — every ladder of the
    /// round's frontier (see [`QueryEngine::trip_query_via_with`]) — in
    /// one call, returning one `(level, times)` per request, in request
    /// order.
    ///
    /// The default is a loop over
    /// [`travel_times_ladder`](Self::travel_times_ladder): it *is* the
    /// definition, and what every in-process provider keeps (the same
    /// calls through the same scratch). The cluster's remote backend
    /// overrides it to send one RPC per shard instead of one per ladder;
    /// an override must return exactly what this loop returns. A call
    /// that carries at least one ladder counts itself in
    /// [`QueryTrace::ladder_batches`].
    fn travel_times_ladders(
        &self,
        requests: &[LadderRequest],
        scratch: &mut SearchScratch,
    ) -> Vec<(usize, TravelTimes)> {
        scratch.trace.ladder_batches += u64::from(!requests.is_empty());
        requests
            .iter()
            .map(|(spq, levels)| self.travel_times_ladder(spq, levels, scratch))
            .collect()
    }
}

/// One ladder of a relaxation round: the sub-query and its window
/// sequence ([`Splitter::ladder`]; `levels[0]` is the sub-query's own).
pub type LadderRequest = (Spq, Vec<TimeInterval>);

/// The relaxation ladder answered level by level — the default
/// [`TravelTimeProvider::travel_times_ladder`], callable by overrides for
/// inputs their fast path does not cover.
///
/// # Panics
/// Panics if `levels` is empty.
pub fn ladder_sequential<P: TravelTimeProvider + ?Sized>(
    provider: &P,
    spq: &Spq,
    levels: &[TimeInterval],
    scratch: &mut SearchScratch,
) -> (usize, TravelTimes) {
    let last = levels.len().checked_sub(1).expect("a ladder has a level");
    let mut times = provider.travel_times_with(spq, scratch);
    let mut level = 0;
    while times.is_empty() && level < last {
        level += 1;
        times = provider.travel_times_with(&spq.with_interval(levels[level]), scratch);
    }
    (level, times)
}

impl TravelTimeProvider for SntIndex {
    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        self.get_travel_times_with(spq, scratch)
    }

    fn travel_times_ladder(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut SearchScratch,
    ) -> (usize, TravelTimes) {
        self.travel_times_ladder_with(spq, levels, scratch)
    }
}

/// The full query-side surface the engine needs from an index.
///
/// [`TravelTimeProvider`] covers the `getTravelTimes` dispatches; the
/// engine additionally consults the index for σ_L's counting queries, the
/// cardinality-estimator gate, and σ's terminal `[0, t_max)` fallback
/// interval. Abstracting those four operations lets the engine run
/// unchanged over the monolithic [`SntIndex`] or the partitioned
/// [`ShardedSntIndex`](crate::ShardedSntIndex) — implementations must
/// answer every operation exactly like a monolithic index over the same
/// trajectory history, which is what the sharded differential test
/// suite (`tests/equivalence.rs`) pins down.
pub trait IndexBackend: TravelTimeProvider {
    /// Exact count of traversals matching all SPQ predicates, capped at
    /// `cap` (σ_L's `|T^{P₁}| ≥ β` test), through a caller-owned
    /// [`SearchScratch`]: σ_L's binary search issues a burst of counting
    /// queries over prefixes of one path, and the scratch keeps their
    /// pattern and range buffers allocation-free.
    fn count_matching_with(&self, spq: &Spq, cap: u32, scratch: &mut SearchScratch) -> usize;

    /// The estimated cardinality `β̂` of the SPQ's result set
    /// (Section 4.4) used by the engine's estimator gate.
    fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> f64;

    /// The fixed-interval fallback `[0, t_max)` of Procedure 1, line 12.
    fn full_interval(&self) -> TimeInterval;
}

impl IndexBackend for SntIndex {
    fn count_matching_with(&self, spq: &Spq, cap: u32, scratch: &mut SearchScratch) -> usize {
        SntIndex::count_matching_with(self, spq, cap, scratch)
    }

    fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> f64 {
        estimate_cardinality(self, spq, mode)
    }

    fn full_interval(&self) -> TimeInterval {
        SntIndex::full_interval(self)
    }
}

/// Per-sub-query cardinality requirements.
///
/// The paper's evaluation uses one β for every sub-query; its outlook
/// (Section 7) suggests varying β per sub-query, "e.g., smaller sample
/// size requirements in rural zones" — rural traffic is more homogeneous,
/// so fewer samples suffice and fewer relaxations are triggered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BetaPolicy {
    /// The paper's evaluated setting: every sub-query inherits the trip
    /// query's β.
    Uniform,
    /// Sub-queries whose paths lie mostly outside city zones require only
    /// `ceil(β · rural_factor)` trajectories (clamped to ≥ 1).
    ZoneScaled {
        /// Multiplier applied to β on rural/summer-house sub-paths,
        /// in `(0, 1]`.
        rural_factor: f64,
    },
}

/// Engine configuration: strategy choices and histogram resolution.
#[derive(Clone, Debug)]
pub struct QueryEngineConfig {
    /// Initial partitioning strategy π.
    pub partition_method: PartitionMethod,
    /// Path-splitting strategy σ.
    pub split_method: SplitMethod,
    /// The interval-size list `A` in seconds (ascending; the paper uses
    /// 15, 30, 45, 60, 90, 120 minutes).
    pub interval_sizes: Vec<i64>,
    /// Histogram bucket width `h` in seconds (the paper's quality metric
    /// uses 10 s).
    pub bucket_width: f64,
    /// Cardinality estimator gating, if any.
    pub estimator: Option<CardinalityMode>,
    /// Apply the shift-and-enlarge window adaptation of Dai et al.
    /// (Procedure 6, line 4).
    pub shift_and_enlarge: bool,
    /// Per-sub-query β adaptation (Section 7 extension).
    pub beta_policy: BetaPolicy,
}

impl Default for QueryEngineConfig {
    fn default() -> Self {
        QueryEngineConfig {
            partition_method: PartitionMethod::Zone,
            split_method: SplitMethod::Regular,
            interval_sizes: vec![900, 1800, 2700, 3600, 5400, 7200],
            bucket_width: 10.0,
            estimator: None,
            shift_and_enlarge: true,
            beta_policy: BetaPolicy::Uniform,
        }
    }
}

/// The result of one completed (possibly relaxed) sub-query.
#[derive(Clone, Debug)]
pub struct SubResult {
    /// The final sub-path answered.
    pub path: Path,
    /// Retrieved travel times.
    pub values: Vec<f64>,
    /// Mean travel time `X̄ⱼ`.
    pub mean: f64,
    /// The sub-path histogram `Hⱼ` (unnormalized).
    pub histogram: Histogram,
    /// Whether the values are the speed-limit fallback estimate.
    pub fallback: bool,
}

impl SubResult {
    /// This sub-query's shift-and-enlarge contribution:
    /// `(H_min, H_max − H_min)` of its histogram.
    fn span(&self) -> (f64, f64) {
        let min = self.histogram.min_edge().expect("non-empty histogram");
        let max = self.histogram.max_edge().expect("non-empty histogram");
        (min, max - min)
    }
}

/// Counters describing how a trip query was processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sub-queries produced by the initial partitioning.
    pub initial_subqueries: usize,
    /// Completed sub-queries (the `k` of the final convolution).
    pub final_subqueries: usize,
    /// Interval widenings performed by σ.
    pub widenings: usize,
    /// Path splits performed by σ.
    pub path_splits: usize,
    /// Non-temporal filters dropped by σ.
    pub filter_drops: usize,
    /// Full `[0, t_max)` fallbacks taken by σ.
    pub full_fallbacks: usize,
    /// Sub-queries rejected by the cardinality estimator without an index
    /// scan.
    pub estimator_rejections: usize,
    /// `getTravelTimes` dispatches (temporal index scans).
    pub index_queries: usize,
    /// Speed-limit estimates in the final result.
    pub estimate_fallbacks: usize,
}

/// The answer to a trip query.
#[derive(Clone, Debug)]
pub struct TripQuery {
    /// Travel-time distribution of the whole path: the normalized
    /// convolution `H = H₁ ∗ … ∗ H_k`.
    pub histogram: Option<Histogram>,
    /// Per-sub-query results, in path order.
    pub subs: Vec<SubResult>,
    /// Processing counters.
    pub stats: QueryStats,
    /// Cost attribution for the whole trip (observational — see
    /// [`QueryTrace`]).
    pub trace: QueryTrace,
}

impl TripQuery {
    /// The point estimate for the trip: the sum of sub-query means `Σ X̄ⱼ`.
    pub fn predicted_duration(&self) -> f64 {
        self.subs.iter().map(|s| s.mean).sum()
    }

    /// Average number of segments per final sub-query (Figure 7).
    pub fn avg_sub_path_len(&self) -> f64 {
        if self.subs.is_empty() {
            return 0.0;
        }
        self.subs.iter().map(|s| s.path.len()).sum::<usize>() as f64 / self.subs.len() as f64
    }
}

/// The trip-query engine: an index backend plus strategy configuration.
///
/// `B` defaults to the monolithic [`SntIndex`]; the partitioned
/// [`ShardedSntIndex`](crate::ShardedSntIndex) (or any other
/// [`IndexBackend`]) slots in without changing query semantics.
pub struct QueryEngine<'a, B: IndexBackend = SntIndex> {
    index: &'a B,
    network: &'a RoadNetwork,
    splitter: Splitter,
    config: QueryEngineConfig,
}

impl<'a, B: IndexBackend> QueryEngine<'a, B> {
    /// Creates an engine over an index.
    pub fn new(index: &'a B, network: &'a RoadNetwork, config: QueryEngineConfig) -> Self {
        let splitter = Splitter::new(config.split_method, config.interval_sizes.clone());
        QueryEngine {
            index,
            network,
            splitter,
            config,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &QueryEngineConfig {
        &self.config
    }

    /// The underlying index backend.
    pub fn index(&self) -> &B {
        self.index
    }

    /// Applies the β policy to a sub-query whose path was just (re)derived.
    fn apply_beta_policy(&self, sub: &mut Spq) {
        let BetaPolicy::ZoneScaled { rural_factor } = self.config.beta_policy else {
            return;
        };
        let Some(beta) = sub.beta else { return };
        let rural_len: f64 = sub
            .path
            .edges()
            .iter()
            .filter(|&&e| self.network.attrs(e).zone != tthr_network::Zone::City)
            .map(|&e| self.network.attrs(e).length_m)
            .sum();
        let total_len: f64 = self.network.path_length_m(&sub.path);
        if rural_len * 2.0 > total_len {
            let scaled = ((beta as f64) * rural_factor).ceil().max(1.0) as u32;
            sub.beta = Some(scaled.min(beta));
        }
    }

    /// Executes a trip query (Procedure 6, `tripQuery`).
    pub fn trip_query(&self, query: &Spq) -> TripQuery {
        self.trip_query_via(self.index, query)
    }

    /// [`trip_query`](Self::trip_query) with travel times answered by an
    /// arbitrary [`TravelTimeProvider`] (e.g. a result cache over the same
    /// index). Identical control flow and results.
    pub fn trip_query_via<P: TravelTimeProvider + ?Sized>(
        &self,
        provider: &P,
        query: &Spq,
    ) -> TripQuery {
        // One backward-search scratch for the whole trip: relaxation
        // re-dispatches and the splitter's sub-path searches hit its
        // suffix cache instead of re-ranking from scratch.
        self.trip_query_via_with(provider, query, &mut SearchScratch::new())
    }

    /// [`trip_query_via`](Self::trip_query_via) through a caller-owned
    /// [`SearchScratch`] — the caller controls the scratch's
    /// [`QueryTrace`] (e.g. enables wall-clock timing) and the returned
    /// [`TripQuery::trace`] covers exactly this trip.
    ///
    /// The trip runs in **relaxation rounds** over its work list, kept in
    /// path order. Each round
    ///
    /// 1. **folds** the leading completed entries into the result and the
    ///    shift-and-enlarge sums, strictly left to right — `f64` addition
    ///    is not associative and the sums feed window bounds, so the order
    ///    in which sub-queries happened to complete must not reach them;
    /// 2. collects the **frontier**: every pending entry whose window is
    ///    already final — adapted (σ's replacements keep the window of the
    ///    sub-query they replace), or not subject to adaptation
    ///    (shift-and-enlarge off, a fixed interval) — walking in path
    ///    order up to the first un-adapted one. That one joins only when
    ///    it is the first unfinished entry: everything before it is
    ///    folded, so its window is adapted now, exactly as the depth-first
    ///    definition adapts it when it reaches the head of the queue.
    ///    Nothing past an un-adapted entry is ever speculated on. A
    ///    frontier entry the estimator gate rejects is relaxed on the spot
    ///    and its replacements join the same round;
    /// 3. hands the frontier's ladders to the provider in **one**
    ///    [`TravelTimeProvider::travel_times_ladders`] call;
    /// 4. **settles** the outcomes in path order: a completed sub-query
    ///    is done, a failed one is replaced by σ's relaxation.
    ///
    /// A trip with independent chains therefore puts its whole queue into
    /// round 1 and finishes in as many rounds as its deepest chain; a
    /// dependent trip batches σ's siblings only and needs at least one
    /// round per initial sub-query. Either way the answer is
    /// byte-identical — histogram, sub-results, every [`QueryStats`]
    /// field — to the depth-first definition
    /// [`trip_query_sequential_via`](Self::trip_query_sequential_via).
    pub fn trip_query_via_with<P: TravelTimeProvider + ?Sized>(
        &self,
        provider: &P,
        query: &Spq,
        scratch: &mut SearchScratch,
    ) -> TripQuery {
        scratch.trace.reset();
        let mut stats = QueryStats::default();
        let initial = self.initial_subqueries(query);
        stats.initial_subqueries = initial.len();
        let slots = initial
            .into_iter()
            .map(|sub| Slot::Pending(sub, false))
            .collect();
        let subs = self.run_rounds(provider, slots, &mut stats, scratch);
        stats.final_subqueries = subs.len();
        Self::convolve_subs(subs, stats, scratch.trace)
    }

    /// Procedure 6 as the paper writes it — **the definition** the round
    /// driver is tested against (`tests/frontier_differential.rs`), not a
    /// serving path: one sub-query at a time, depth-first, each window
    /// adapted from everything completed before it, σ's replacements
    /// pushed to the front of the queue (line 10).
    pub fn trip_query_sequential_via<P: TravelTimeProvider + ?Sized>(
        &self,
        provider: &P,
        query: &Spq,
    ) -> TripQuery {
        let scratch = &mut SearchScratch::new();
        let mut stats = QueryStats::default();
        let initial = self.initial_subqueries(query);
        stats.initial_subqueries = initial.len();

        // (sub-query, already shift-and-enlarge adapted?)
        let mut queue: VecDeque<(Spq, bool)> = initial.into_iter().map(|s| (s, false)).collect();
        let mut subs: Vec<SubResult> = Vec::new();
        // Shift-and-enlarge accumulators over completed sub-queries:
        // S = Σ H_min, R = Σ (H_max − H_min).
        let (mut sum_min, mut sum_range) = (0.0, 0.0);

        while let Some((mut sub, adapted)) = queue.pop_front() {
            // Procedure 6, lines 3–5: adapt the window once per sub-query.
            if !adapted && self.adapts(&sub) && !subs.is_empty() {
                sub.interval = sub.interval.shift_and_enlarge(sum_min, sum_range);
            }
            let outcome = match self.plan(&sub, &mut stats) {
                Some(levels) => {
                    let answer = provider.travel_times_ladder(&sub, &levels, scratch);
                    self.settle(sub, &levels, answer, &mut stats)
                }
                None => Err(sub),
            };
            match outcome {
                Ok(done) => {
                    let (min, range) = done.span();
                    sum_min += min;
                    sum_range += range;
                    subs.push(done);
                }
                Err(failed) => {
                    for r in self.relax(&failed, &mut stats, scratch).into_iter().rev() {
                        queue.push_front((r, true));
                    }
                }
            }
        }

        stats.final_subqueries = subs.len();
        Self::convolve_subs(subs, stats, scratch.trace)
    }

    /// The initial partitioning π of a trip query with the β policy applied
    /// — the sub-queries [`trip_query`](Self::trip_query) starts from.
    pub fn initial_subqueries(&self, query: &Spq) -> Vec<Spq> {
        let mut initial = partition_query(self.network, query, self.config.partition_method);
        for sub in &mut initial {
            self.apply_beta_policy(sub);
        }
        initial
    }

    /// Whether shift-and-enlarge adapts this (sub-)query's window.
    fn adapts(&self, sub: &Spq) -> bool {
        self.config.shift_and_enlarge && sub.interval.is_periodic()
    }

    /// The one trip driver: answers `slots` (a trip's work list, in path
    /// order) round by round — fold, collect the frontier, dispatch,
    /// settle; [`trip_query_via_with`](Self::trip_query_via_with) states
    /// the rule — and returns the completed sub-results in path order.
    fn run_rounds<P: TravelTimeProvider + ?Sized>(
        &self,
        provider: &P,
        mut slots: Vec<Slot>,
        stats: &mut QueryStats,
        scratch: &mut SearchScratch,
    ) -> Vec<SubResult> {
        let mut subs: Vec<SubResult> = Vec::new();
        // S = Σ H_min, R = Σ (H_max − H_min) over `subs`.
        let (mut sum_min, mut sum_range) = (0.0, 0.0);
        let mut requests: Vec<LadderRequest> = Vec::new();
        loop {
            let mut rest = slots.into_iter().peekable();
            while let Some(Slot::Done(done)) = rest.next_if(|s| matches!(s, Slot::Done(_))) {
                let (min, range) = done.span();
                sum_min += min;
                sum_range += range;
                subs.push(done);
            }
            if rest.peek().is_none() {
                return subs;
            }

            // The round's work list: frontier entries become `Asked`
            // (their query moves into `requests`), the rest pass through.
            let mut round: Vec<Slot> = Vec::with_capacity(rest.len() + 1);
            // Replacements of gate-rejected entries, next in path order last.
            let mut rejected: Vec<Slot> = Vec::new();
            let mut open = true;
            while let Some(slot) = rejected.pop().or_else(|| rest.next()) {
                let Slot::Pending(mut sub, adapted) = slot else {
                    round.push(slot);
                    continue;
                };
                if open && !adapted && self.adapts(&sub) {
                    // Final only as the first unfinished entry: everything
                    // it is adapted from has just been folded.
                    if !round.is_empty() {
                        open = false;
                    } else if !subs.is_empty() {
                        sub.interval = sub.interval.shift_and_enlarge(sum_min, sum_range);
                    }
                }
                if !open {
                    round.push(Slot::Pending(sub, adapted));
                    continue;
                }
                match self.plan(&sub, stats) {
                    Some(levels) => {
                        requests.push((sub, levels));
                        round.push(Slot::Asked);
                    }
                    None => rejected.extend(
                        self.relax(&sub, stats, scratch)
                            .into_iter()
                            .rev()
                            .map(|r| Slot::Pending(r, true)),
                    ),
                }
            }

            let answers = provider.travel_times_ladders(&requests, scratch);
            assert_eq!(answers.len(), requests.len(), "one answer per ladder");
            let mut answered = requests.drain(..).zip(answers);
            slots = Vec::with_capacity(round.len() + answered.len());
            for slot in round {
                if !matches!(slot, Slot::Asked) {
                    slots.push(slot);
                    continue;
                }
                let ((sub, levels), answer) = answered.next().expect("one request per Asked");
                match self.settle(sub, &levels, answer, stats) {
                    Ok(done) => slots.push(Slot::Done(done)),
                    Err(failed) => slots.extend(
                        self.relax(&failed, stats, scratch)
                            .into_iter()
                            .map(|r| Slot::Pending(r, true)),
                    ),
                }
            }
        }
    }

    /// The ladder a sub-query dispatches: its window plus every window σ's
    /// widening step would derive from it — or `None` when the estimator
    /// gate rejects it unscanned (`β̂ < β`; the caller relaxes it). The
    /// gate decides per level, so a gated sub-query is a ladder of one.
    fn plan(&self, sub: &Spq, stats: &mut QueryStats) -> Option<Vec<TimeInterval>> {
        match (self.config.estimator, sub.beta) {
            (Some(mode), Some(beta)) if sub.interval.is_periodic() => {
                if self.index.estimate(sub, mode) < beta as f64 {
                    stats.estimator_rejections += 1;
                    return None;
                }
                Some(vec![sub.interval])
            }
            _ => Some(self.splitter.ladder(sub.interval)),
        }
    }

    /// Books a ladder's answer: a completed [`SubResult`], or `Err` with
    /// the sub-query as it failed — widened to the level the ladder
    /// reached — for the caller to relax.
    ///
    /// The levels the ladder consumed are booked exactly as the
    /// one-dispatch-per-widening loop booked them, so [`QueryStats`] is
    /// the paper's logical count however the ladder was answered.
    fn settle(
        &self,
        mut sub: Spq,
        levels: &[TimeInterval],
        (level, times): (usize, TravelTimes),
        stats: &mut QueryStats,
    ) -> Result<SubResult, Spq> {
        stats.index_queries += level + 1;
        stats.widenings += level;
        sub.interval = levels[level];
        if times.is_empty() {
            return Err(sub);
        }
        let histogram = Histogram::from_values(&times.values, self.config.bucket_width);
        if (histogram.total() as usize) < times.values.len() {
            // `Histogram::from_values` silently drops non-finite values, so
            // a mass deficit means the provider returned corrupt data
            // (impossible through `SntIndex` — `Trajectory::new` rejects
            // non-finite durations at ingest). Treat it like an empty
            // answer rather than letting a NaN mean or an empty histogram
            // poison the trip downstream.
            return Err(sub);
        }
        if times.fallback {
            stats.estimate_fallbacks += 1;
        }
        Ok(SubResult {
            path: sub.path,
            mean: times.mean().expect("non-empty travel times"),
            values: times.values.into_vec(),
            histogram,
            fallback: times.fallback,
        })
    }

    fn convolve_subs(subs: Vec<SubResult>, stats: QueryStats, trace: QueryTrace) -> TripQuery {
        let normalized: Vec<Histogram> = subs.iter().map(|s| s.histogram.normalize()).collect();
        let histogram = Histogram::convolve_all(normalized.iter());
        TripQuery {
            histogram,
            subs,
            stats,
            trace,
        }
    }

    /// Applies σ to a failed sub-query and returns the replacements in
    /// path order (Procedure 6, line 10), classifying the step for the
    /// stats.
    fn relax(&self, sub: &Spq, stats: &mut QueryStats, scratch: &mut SearchScratch) -> Vec<Spq> {
        let mut replacements = self.splitter.split_with(self.index, sub, scratch);
        match replacements.as_slice() {
            [_, _] => stats.path_splits += 1,
            [one] if one.interval.is_periodic() && one.interval.size() > sub.interval.size() => {
                stats.widenings += 1;
            }
            [one] if one.filter.is_empty() && !sub.filter.is_empty() => stats.filter_drops += 1,
            _ => stats.full_fallbacks += 1,
        }
        // The relaxed queries replace the failed one in order; they keep the
        // adapted window, so they are not re-adapted. Path splits re-derive
        // sub-paths, so the β policy re-applies.
        for r in &mut replacements {
            if r.path != sub.path {
                self.apply_beta_policy(r);
            }
        }
        replacements
    }
}

/// One entry of a trip's work list, which the round driver keeps in path
/// order.
enum Slot {
    /// Not answered yet; the flag says whether its window is final
    /// (already adapted, or a replacement that inherited one).
    Pending(Spq, bool),
    /// Within one round only: dispatched, its query moved into the
    /// round's requests (the k-th `Asked` is the k-th request).
    Asked,
    /// Answered.
    Done(SubResult),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::TimeInterval;
    use crate::snt::{SntConfig, SntIndex};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_C, EDGE_D, EDGE_E};
    use tthr_network::RoadNetwork;
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::UserId;

    fn fixture() -> (RoadNetwork, SntIndex) {
        let net = example_network();
        let idx = SntIndex::build(&net, &example_trajectories(), SntConfig::default());
        (net, idx)
    }

    fn engine_with<'a>(
        idx: &'a SntIndex,
        net: &'a RoadNetwork,
        pi: PartitionMethod,
    ) -> QueryEngine<'a> {
        QueryEngine::new(
            idx,
            net,
            QueryEngineConfig {
                partition_method: pi,
                bucket_width: 1.0,
                ..QueryEngineConfig::default()
            },
        )
    }

    /// ⟨A,B,E⟩ with a fixed interval covering the whole example set.
    fn abe_query() -> Spq {
        Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 100),
        )
        .with_beta(2)
    }

    #[test]
    fn whole_path_query_answers_directly() {
        let (net, idx) = fixture();
        let engine = engine_with(&idx, &net, PartitionMethod::Whole);
        let r = engine.trip_query(&abe_query());
        // tr0 (11 s) and tr3 (10 s) both traverse ⟨A,B,E⟩.
        assert_eq!(r.subs.len(), 1);
        assert_eq!(r.stats.initial_subqueries, 1);
        assert_eq!(r.stats.path_splits, 0);
        let mean = r.predicted_duration();
        assert!((mean - 10.5).abs() < 1e-9, "mean of 10 and 11, got {mean}");
        assert!(r.histogram.is_some());
    }

    #[test]
    fn unsatisfiable_beta_relaxes_until_answerable() {
        let (net, idx) = fixture();
        let engine = engine_with(&idx, &net, PartitionMethod::Whole);
        // β = 50 can never be met on a 4-trajectory set with a periodic
        // window: σ must widen, split, and finally fall back.
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_C, EDGE_D, EDGE_E]),
            TimeInterval::periodic(0, 900),
        )
        .with_beta(50);
        let r = engine.trip_query(&q);
        let rebuilt: Vec<_> = r
            .subs
            .iter()
            .flat_map(|s| s.path.edges().to_vec())
            .collect();
        assert_eq!(rebuilt, q.path.edges().to_vec(), "path coverage preserved");
        assert!(r.stats.widenings > 0, "widening attempted first");
        assert!(r.stats.path_splits > 0, "splits follow");
        assert!(r.stats.full_fallbacks > 0, "single segments fall back");
        assert!(r.predicted_duration() > 0.0);
    }

    #[test]
    fn regular_partitioning_convolves_per_segment() {
        let (net, idx) = fixture();
        let engine = engine_with(&idx, &net, PartitionMethod::Regular(1));
        let q = abe_query();
        let r = engine.trip_query(&q);
        assert_eq!(r.subs.len(), 3);
        // β = 2 keeps the first two traversals per segment in entry-time
        // order: A → {3, 4}, B → {4, 3}, E → {4, 5} (the tie at t = 12 on E
        // breaks towards the lower trajectory id, tr1).
        let want = 3.5 + 3.5 + 4.5;
        assert!(
            (r.predicted_duration() - want).abs() < 1e-9,
            "got {}",
            r.predicted_duration()
        );
        // Convolution exists and is a unit-mass distribution.
        let h = r.histogram.expect("histogram");
        assert!((h.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn filter_drop_is_counted() {
        let (net, idx) = fixture();
        let engine = engine_with(&idx, &net, PartitionMethod::Whole);
        // User u2 never drives ⟨A,B,E⟩ fully... tr2 = (A,B,F). With β = 1
        // and a periodic interval the engine must widen through A, then drop
        // the filter after splitting to single segments.
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::periodic(0, 900),
        )
        .with_beta(5)
        .with_user(UserId(2));
        let r = engine.trip_query(&q);
        assert!(r.stats.filter_drops > 0, "stats: {:?}", r.stats);
        assert!(r.predicted_duration() > 0.0);
    }

    #[test]
    fn shift_and_enlarge_only_affects_later_subqueries() {
        let (net, idx) = fixture();
        // With shift-and-enlarge off vs on, the first sub-query is
        // identical; the example set is dense enough that results only
        // differ if windows shifted badly — both must succeed.
        for sae in [false, true] {
            let engine = QueryEngine::new(
                &idx,
                &net,
                QueryEngineConfig {
                    partition_method: PartitionMethod::Regular(1),
                    shift_and_enlarge: sae,
                    bucket_width: 1.0,
                    ..QueryEngineConfig::default()
                },
            );
            let q = Spq::new(
                Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
                TimeInterval::periodic(0, 900),
            )
            .with_beta(2);
            let r = engine.trip_query(&q);
            assert_eq!(r.subs.len(), 3, "shift_and_enlarge = {sae}");
            assert!(r.predicted_duration() > 0.0);
        }
    }

    #[test]
    fn estimator_gate_skips_scans_for_hopeless_subqueries() {
        let (net, idx) = fixture();
        let gated = QueryEngine::new(
            &idx,
            &net,
            QueryEngineConfig {
                partition_method: PartitionMethod::Whole,
                estimator: Some(CardinalityMode::CssAcc),
                bucket_width: 1.0,
                ..QueryEngineConfig::default()
            },
        );
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::periodic(12 * 3600, 900), // noon: no data at all
        )
        .with_beta(2);
        let r = gated.trip_query(&q);
        assert!(
            r.stats.estimator_rejections > 0,
            "the accurate estimator must reject the noon window: {:?}",
            r.stats
        );
        // The answer still arrives through relaxation.
        assert!(r.predicted_duration() > 0.0);
    }

    #[test]
    fn trip_query_is_deterministic() {
        let (net, idx) = fixture();
        let engine = engine_with(&idx, &net, PartitionMethod::Category);
        let q = abe_query();
        let a = engine.trip_query(&q);
        let b = engine.trip_query(&q);
        assert_eq!(a.predicted_duration(), b.predicted_duration());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.subs.len(), b.subs.len());
    }

    #[test]
    fn zone_scaled_beta_relaxes_rural_subqueries() {
        let (net, idx) = fixture();
        // ⟨A⟩ is rural. Uniform β = 3 on a 900 s periodic window misses the
        // cardinality requirement (all traversals sit in one window but
        // only 4 exist; pick β = 5 to force relaxation), while the scaled
        // policy (factor 0.4 → β = 2) answers directly.
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::periodic(0, 900)).with_beta(5);
        let uniform = engine_with(&idx, &net, PartitionMethod::Whole).trip_query(&q);
        let scaled_engine = QueryEngine::new(
            &idx,
            &net,
            QueryEngineConfig {
                partition_method: PartitionMethod::Whole,
                beta_policy: BetaPolicy::ZoneScaled { rural_factor: 0.4 },
                bucket_width: 1.0,
                ..QueryEngineConfig::default()
            },
        );
        let scaled = scaled_engine.trip_query(&q);
        assert!(uniform.stats.widenings > 0, "uniform β must widen");
        assert_eq!(scaled.stats.widenings, 0, "scaled β answers directly");
        assert!(scaled.subs[0].values.len() >= 2);
    }

    #[test]
    fn zone_scaled_beta_keeps_city_requirements() {
        let (net, idx) = fixture();
        // ⟨C,D,E⟩ is city-zoned: the policy must not reduce β there.
        let q = Spq::new(
            Path::new(vec![EDGE_C, EDGE_D, EDGE_E]),
            TimeInterval::periodic(0, 900),
        )
        .with_beta(3);
        let scaled_engine = QueryEngine::new(
            &idx,
            &net,
            QueryEngineConfig {
                partition_method: PartitionMethod::Whole,
                beta_policy: BetaPolicy::ZoneScaled { rural_factor: 0.1 },
                bucket_width: 1.0,
                ..QueryEngineConfig::default()
            },
        );
        let uniform = engine_with(&idx, &net, PartitionMethod::Whole).trip_query(&q);
        let scaled = scaled_engine.trip_query(&q);
        // Identical behaviour on a city path.
        assert_eq!(uniform.stats, scaled.stats);
        assert_eq!(uniform.predicted_duration(), scaled.predicted_duration());
    }

    #[test]
    fn avg_sub_path_len_matches_subs() {
        let (net, idx) = fixture();
        let engine = engine_with(&idx, &net, PartitionMethod::Regular(2));
        let q = abe_query();
        let r = engine.trip_query(&q);
        // π₂ on a 3-segment path → sub-paths of 2 and 1 segments.
        assert_eq!(r.subs.len(), 2);
        assert!((r.avg_sub_path_len() - 1.5).abs() < 1e-12);
    }
}
