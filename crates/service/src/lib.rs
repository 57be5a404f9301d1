//! A concurrent, cache-accelerated query service over a shared SNT-index.
//!
//! The paper's engine answers one strict path query at a time on one
//! thread. Production histogram retrieval is the opposite regime: many
//! concurrent trip queries against one *shared, immutable-between-updates*
//! index — exactly where result caching and parallel sub-query execution
//! pay off. This crate adds that serving layer without touching query
//! semantics:
//!
//! * [`QueryService`] — wraps an index [`backend`] + `Arc<RoadNetwork>`
//!   behind a thread-safe API for single SPQs, single trip queries, and
//!   batches of trip queries. The backend is generic
//!   ([`ServiceBackend`]): the monolithic `SntIndex` appends under the
//!   service write lock; the partitioned
//!   [`ShardedSntIndex`] ([`ShardedQueryService`]) appends under the
//!   *read* lock with per-shard write locks, so only the touched shards'
//!   readers ever wait.
//! * a worker **thread pool** ([`pool`]) fans a batch out across threads,
//!   one job per trip; a helper-joining task group keeps a batch issued
//!   *from* a pool worker deadlock-free. A trip itself runs on one thread,
//!   on the engine's round driver
//!   ([`QueryEngine::trip_query_via_with`]).
//! * a **sharded LRU cache** ([`cache`]) keyed by the full SPQ
//!   `(path, interval, filter, β, exclusion)`, hashed once per lookup,
//!   with one `Mutex` per shard, second-sighting admission once a shard
//!   is full, and hit/miss/eviction/rejection counters. Appends
//!   invalidate it scoped to the backend: whole-cache for the monolith,
//!   only the entries routing to touched index shards for the sharded
//!   backend ([`cache::ShardedCache::clear_where`]).
//! * [`ServiceStats`] — p50/p95/p99 latency, throughput, and cache hit
//!   rate, computed with `tthr-metrics`.
//! * an **observability layer** — every request is cost-traced
//!   ([`tthr_core::QueryTrace`]: rank ops, wavelet descents, cache tiers,
//!   shard fanout) into a [`tthr_metrics::MetricsRegistry`] the service
//!   owns; [`QueryService::render_metrics`] renders the Prometheus text
//!   exposition and [`QueryService::slow_queries`] exposes the top-N
//!   slowest traced requests ([`SlowQuery`]).
//!
//! Results are **identical** to the single-threaded engine: the cache key
//! is the entire query, the cached value is the exact
//! [`TravelTimes`] the index returned, and every trip runs on the same
//! round driver the plain engine uses, with the cache as its provider.
//!
//! ```
//! use std::sync::Arc;
//! use tthr_core::{SntConfig, SntIndex, Spq, TimeInterval};
//! use tthr_network::{examples::example_network, Path};
//! use tthr_network::examples::{EDGE_A, EDGE_B, EDGE_E};
//! use tthr_service::{QueryService, ServiceConfig};
//! use tthr_trajectory::examples::example_trajectories;
//!
//! let network = example_network();
//! let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
//! let service = QueryService::new(index, Arc::new(network), ServiceConfig::default());
//!
//! let spq = Spq::new(Path::new(vec![EDGE_A, EDGE_B, EDGE_E]), TimeInterval::fixed(0, 15));
//! assert_eq!(service.get_travel_times(&spq).sorted(), vec![10.0, 11.0]);
//! assert_eq!(service.get_travel_times(&spq).sorted(), vec![10.0, 11.0]); // cache hit
//! assert_eq!(service.stats().cache.hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
mod group_commit;
mod persist;
pub mod pool;
mod stats;

pub use backend::{AppendEffect, ServiceBackend};
pub use cache::{CacheCounters, ShardedCache};
pub use persist::{SnapshotInfo, SNAPSHOT_FILE, WAL_FILE};
pub use pool::ThreadPool;
pub use stats::{Endpoint, LatencySummary, PerEndpoint, ServiceStats, SlowQuery};

use crate::group_commit::{AppendOutcome, AppendRequest, GroupCommit};
use crate::stats::{LatencyLog, ServiceMetrics, SlowLog};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use tthr_core::{
    CompactionOutcome, HotStats, QueryEngine, QueryEngineConfig, QueryTrace, SearchScratch,
    ShardStats, ShardedSntIndex, SntIndex, Spq, TimeInterval, TravelTimeProvider, TravelTimes,
    TripQuery,
};
use tthr_metrics::{LogHistogram, MetricsRegistry};
use tthr_network::{RoadNetwork, Timestamp};
use tthr_store::StoreError;
use tthr_trajectory::{TrajEntry, Trajectory, TrajectorySet, UserId};

/// A [`QueryService`] over the partitioned
/// [`ShardedSntIndex`]: appends stall only the
/// written shards' readers at the index level, and cache invalidation is
/// scoped to the touched shards.
pub type ShardedQueryService = QueryService<ShardedSntIndex>;

/// Live-ingestion lifecycle options: hot-tail absorption, background
/// compaction, and time-based retention.
///
/// With [`IngestConfig::hot_tail`] **off** (the default) every append
/// seals its batch into an immutable partition immediately — exactly the
/// behaviour the service always had. Turned on, appends are *absorbed*
/// into the backend's mutable hot tail (no FM-index or wavelet-tree
/// construction on the write path; answers stay byte-identical), and a
/// compaction — background-scheduled, size-triggered, or explicit via
/// [`QueryService::compact_now`] — later seals the pending batches,
/// applies the retention horizon, rotates the snapshot, and truncates the
/// WAL.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Route appends into the backend's mutable hot tail. Off by default:
    /// the write path seals immediately, as before.
    pub hot_tail: bool,
    /// Background compaction cadence (`None` disables the thread —
    /// compaction then runs only via the size trigger or
    /// [`QueryService::compact_now`]). The thread is only spawned when
    /// [`IngestConfig::hot_tail`] is on.
    pub compaction_interval: Option<Duration>,
    /// Hot-tail entry high-water mark: an append that leaves at least
    /// this many entries pending triggers an immediate compaction on the
    /// appending thread (0 disables the size trigger).
    pub hot_max_entries: usize,
    /// Retention window: each compaction drops immutable partitions whose
    /// newest entry is older than `max_data_time − retention` (trajectory
    /// ids are never reused; dropped history simply stops matching).
    /// `None` keeps everything forever.
    pub retention: Option<Duration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            hot_tail: false,
            compaction_interval: None,
            hot_max_entries: 1 << 20,
            retention: None,
        }
    }
}

/// Service construction options.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (0 = one per available CPU).
    pub num_threads: usize,
    /// Result-cache shard count (locks).
    pub cache_shards: usize,
    /// Total result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Ingestion lifecycle: hot-tail absorption, compaction cadence, and
    /// retention.
    pub ingest: IngestConfig,
    /// Engine strategy configuration shared by every query.
    pub engine: QueryEngineConfig,
    /// Enable per-query wall-clock timing inside index search calls
    /// ([`tthr_core::QueryTrace::search_ns`]). Off by default: the
    /// counters in a trace are always collected (a handful of integer
    /// adds), but the clock reads are opt-in.
    pub trace_timing: bool,
    /// Capacity of the slow-query log: the top-N requests by latency
    /// (and, independently, the most recent N sampled traces). 0 disables
    /// both rings.
    pub slow_query_log: usize,
    /// Record every Nth request's trace into the sampled ring regardless
    /// of latency (0 disables sampling).
    pub trace_sample_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            num_threads: 0,
            cache_shards: 16,
            cache_capacity: 65_536,
            ingest: IngestConfig::default(),
            engine: QueryEngineConfig::default(),
            trace_timing: false,
            slow_query_log: 32,
            trace_sample_every: 1024,
        }
    }
}

struct Inner<B: ServiceBackend> {
    index: RwLock<B>,
    network: Arc<RoadNetwork>,
    cache: ShardedCache,
    engine_config: QueryEngineConfig,
    ingest: IngestConfig,
    latency: LatencyLog,
    metrics: ServiceMetrics,
    slow: SlowLog,
    /// Whether per-query traces read the wall clock inside search calls
    /// ([`ServiceConfig::trace_timing`]).
    trace_timing: bool,
    /// Append counter in seqlock style: incremented to **odd** right
    /// before a shared-append backend starts applying a batch and back to
    /// **even** when the apply is complete (exclusive-append backends
    /// jump by 2 under the write lock). Readers validate work against it:
    /// a result is single-generation iff the counter was even and
    /// unchanged across the read. `ServiceStats::generation` reports
    /// `counter / 2` — the number of completed appends.
    generation: AtomicU64,
    /// Durable storage, attached by `save_snapshot` / `open`. Lock order:
    /// the index lock is always taken **before** this mutex.
    persist: Mutex<Option<persist::Persistence>>,
    /// Group-commit waiting room: concurrent appends enqueue here and one
    /// leader commits the whole queue with a single WAL fsync (see
    /// [`group_commit`]).
    group: GroupCommit,
    /// The index as `/health` and `/metrics` report it, republished by
    /// every writer before it releases the append serialization point
    /// ([`with_appender`]). The mutex guards only the pointer swap, so a
    /// reader never waits behind index work.
    summary: Mutex<Arc<IndexSummary>>,
}

/// The index state the liveness and scrape endpoints read: sizes, the
/// hot-tail backlog and the per-shard counters. Every field changes only
/// under the append serialization point, so the copy published there is
/// exact until the next writer.
struct IndexSummary {
    trajectories: usize,
    partitions: usize,
    hot: HotStats,
    shards: Option<Vec<ShardStats>>,
}

impl IndexSummary {
    fn of<B: ServiceBackend>(index: &B) -> Arc<IndexSummary> {
        Arc::new(IndexSummary {
            trajectories: index.num_trajectories(),
            partitions: index.num_partitions(),
            hot: index.hot_stats(),
            shards: index.shard_stats(),
        })
    }
}

impl<B: ServiceBackend> Inner<B> {
    /// Folds one finished request into every observability sink: the
    /// latency histogram, the request counter, the trace aggregates, and
    /// the slow-query log.
    fn observe(&self, endpoint: Endpoint, elapsed: Duration, path_len: usize, trace: &QueryTrace) {
        self.latency.record(endpoint, elapsed);
        self.metrics.requests[endpoint].inc();
        self.metrics.note_trace(trace);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.slow.observe(endpoint.name(), path_len, ns, trace);
    }

    /// The last published [`IndexSummary`].
    fn summary(&self) -> Arc<IndexSummary> {
        Arc::clone(&self.summary.lock().expect("summary lock"))
    }

    /// A search scratch with this service's trace-timing policy applied.
    fn scratch(&self) -> SearchScratch {
        let mut scratch = SearchScratch::new();
        scratch.trace.timing = self.trace_timing;
        scratch
    }
}

/// Routes the engine's `getTravelTimes` dispatches through the shared
/// cache.
///
/// Inserts are seqlock-validated against the append generation counter
/// (odd while a shared apply is in flight): the provider only inserts
/// when the counter was even before it read the index and is unchanged
/// after — so a result computed against pre- or mid-append state either
/// fails the check or is removed by the eviction that strictly follows
/// the apply's closing bump. With an exclusive-append backend the check
/// never fires (the read lock already excludes writers); with a
/// shared-append backend ([`ServiceBackend::SHARED_APPENDS`]) it is what
/// keeps the cache stale-free without stalling readers.
struct CachedIndex<'a, B> {
    index: &'a B,
    cache: &'a ShardedCache,
    generation: &'a AtomicU64,
}

impl<B: ServiceBackend> TravelTimeProvider for CachedIndex<'_, B> {
    /// Cache miss → the backend runs its backward search through the
    /// trip's scratch (suffix-cache reuse); the scratch
    /// self-invalidates on index-generation changes, so the seqlock
    /// validation below stays the only staleness gate for the *cache*.
    fn travel_times_with(&self, spq: &Spq, scratch: &mut tthr_core::SearchScratch) -> TravelTimes {
        let hash = self.cache.hash(spq);
        if let Some(hit) = self.cache.get(hash, spq) {
            scratch.trace.cache_hits += 1;
            return hit;
        }
        scratch.trace.cache_misses += 1;
        let before = self.generation.load(Ordering::SeqCst);
        let computed = self.index.travel_times_with(spq, scratch);
        if before.is_multiple_of(2) && self.generation.load(Ordering::SeqCst) == before {
            self.cache.insert(hash, spq, &computed);
        }
        computed
    }

    /// Per-level cache lookups first — a cached level answers, or is
    /// known to fail, without the index — then **one** backend ladder
    /// over the levels from the first miss on. Every level the backend
    /// consumed is inserted under the same seqlock validation as a
    /// single dispatch (the failed ones as `∅`), so the cache holds what
    /// the level-by-level loop would have left in it and a repeated trip
    /// is all hits. Each level's key is hashed once.
    fn travel_times_ladder(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut tthr_core::SearchScratch,
    ) -> (usize, TravelTimes) {
        let last = levels.len() - 1;
        let mut level = 0;
        // Borrowed until a wider level needs its own key.
        let mut sub = Cow::Borrowed(spq);
        let mut hash = self.cache.hash(&sub);
        while let Some(hit) = self.cache.get(hash, &sub) {
            scratch.trace.cache_hits += 1;
            if !hit.is_empty() || level == last {
                return (level, hit);
            }
            level += 1;
            sub.to_mut().interval = levels[level];
            hash = self.cache.hash(&sub);
        }
        let before = self.generation.load(Ordering::SeqCst);
        let (consumed, computed) = self
            .index
            .travel_times_ladder(&sub, &levels[level..], scratch);
        scratch.trace.cache_misses += consumed as u64 + 1;
        if before.is_multiple_of(2) && self.generation.load(Ordering::SeqCst) == before {
            let empty = TravelTimes::empty();
            for (k, interval) in levels[level..=level + consumed].iter().enumerate() {
                if k > 0 {
                    sub.to_mut().interval = *interval;
                    hash = self.cache.hash(&sub);
                }
                let value = if k < consumed { &empty } else { &computed };
                self.cache.insert(hash, &sub, value);
            }
        }
        (level + consumed, computed)
    }
}

/// A group-commit leader's decision for one queued append: either the
/// outcome is already known without touching the index (idempotent
/// replay, typed error, empty delta), or the request has a WAL record in
/// the batch and an apply to run once the batch is durable.
enum Plan {
    /// Outcome settled during stamping; nothing logged, nothing applied.
    Settled(AppendOutcome),
    /// Ingest this prepared, id-stamped batch (WAL record already encoded).
    Apply(Vec<Trajectory>),
}

/// A structural copy of a [`StoreError`] for fan-out to every member of a
/// failed commit group (`std::io::Error` and thus `StoreError` are not
/// `Clone`).
fn replicate_error(error: &StoreError) -> StoreError {
    match error {
        StoreError::Io(e) => StoreError::Io(std::io::Error::new(e.kind(), e.to_string())),
        StoreError::WalGap { expected, found } => StoreError::WalGap {
            expected: *expected,
            found: *found,
        },
        other => StoreError::corrupt(format!("group commit failed: {other}")),
    }
}

/// Ingestion-lifecycle status snapshot
/// ([`QueryService::ingest_status`]) — the hot-tail backlog plus
/// cumulative compaction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStatus {
    /// Whether appends route through the hot tail
    /// ([`IngestConfig::hot_tail`]).
    pub hot_tail: bool,
    /// Pending hot-tail accounting.
    pub hot: HotStats,
    /// Compaction passes completed (including no-ops).
    pub compactions: u64,
    /// Background/triggered compaction passes that failed (snapshot
    /// rotation I/O).
    pub compaction_errors: u64,
    /// Hot-tail batches sealed into immutable partitions so far.
    pub sealed_batches: u64,
    /// Immutable partitions dropped by the retention horizon so far.
    pub dropped_partitions: u64,
}

/// The append serialization point, held — the write half of the index
/// lock as the backend's locking model defines it. [`with_appender`] is
/// the only place that model is branched on; everything that mutates the
/// index runs one body over this.
enum Appender<'a, B> {
    /// The service write lock: readers are excluded outright.
    Exclusive(&'a mut B),
    /// The service read lock plus the backend's append permit: readers
    /// keep flowing, stalled at most per shard.
    Shared(&'a B),
}

impl<B: ServiceBackend> Appender<'_, B> {
    fn index(&self) -> &B {
        match self {
            Appender::Exclusive(index) => index,
            Appender::Shared(index) => index,
        }
    }

    fn ingest(&mut self, batch: Vec<Trajectory>, seal: bool) -> AppendEffect {
        match self {
            Appender::Exclusive(index) => index.ingest(batch, seal),
            Appender::Shared(index) => index.ingest_shared(batch, seal),
        }
    }

    fn compact(&mut self, horizon: Option<Timestamp>) -> CompactionOutcome {
        match self {
            Appender::Exclusive(index) => index.compact(horizon),
            Appender::Shared(index) => index.compact_shared(horizon),
        }
    }
}

/// Runs `f` holding the append serialization point: other appenders,
/// compactions and snapshot rotations are excluded for its whole duration
/// (lock order: index, then the append permit, then the persist mutex).
/// Before releasing it, publishes the [`IndexSummary`] `f` left behind.
fn with_appender<B: ServiceBackend, R>(
    inner: &Inner<B>,
    f: impl FnOnce(Appender<'_, B>) -> R,
) -> R {
    let publish =
        |index: &B| *inner.summary.lock().expect("summary lock") = IndexSummary::of(index);
    if B::SHARED_APPENDS {
        let index = inner.index.read().expect("index lock");
        let permit = index.append_permit();
        debug_assert!(permit.is_some(), "SHARED_APPENDS promises a permit");
        let result = f(Appender::Shared(&*index));
        publish(&index);
        result
    } else {
        let mut index = inner.index.write().expect("index lock");
        let result = f(Appender::Exclusive(&mut index));
        publish(&index);
        result
    }
}

/// The retention horizon of one compaction pass: everything strictly
/// older than `max_data_time − retention` is expired. Computed against
/// the data's own clock (the newest entry ever indexed), not wall time —
/// replaying the same history always drops the same partitions.
fn retention_horizon<B: ServiceBackend>(index: &B, ingest: &IngestConfig) -> Option<Timestamp> {
    let retention = ingest.retention?;
    let secs = i64::try_from(retention.as_secs()).unwrap_or(i64::MAX);
    Some(index.max_data_time().saturating_sub(secs))
}

/// One compaction pass over the service's backend: seals pending hot
/// batches, applies the retention horizon, and — when anything changed
/// and durable storage is attached — rotates the snapshot (truncating the
/// WAL). Shared by [`QueryService::compact_now`], the append-path size
/// trigger, and the background compactor thread.
fn compact_on<B: ServiceBackend>(inner: &Inner<B>) -> Result<CompactionOutcome, StoreError> {
    let started = Instant::now();
    let outcome = with_appender(inner, |mut index| {
        // Holding the serialization point keeps the horizon, the seals and
        // `data_max` consistent.
        let horizon = retention_horizon(index.index(), &inner.ingest);
        // Seqlock write (odd while in flight) only when retention can
        // change answers: sealing alone is byte-identity-preserving, so
        // readers racing a pure seal keep both their results and their
        // cache inserts.
        let bump = u64::from(horizon.is_some());
        inner.generation.fetch_add(bump, Ordering::SeqCst);
        let outcome = index.compact(horizon);
        inner.generation.fetch_add(bump, Ordering::SeqCst);
        if outcome.dropped_partitions > 0 {
            // Retention changed answers; every cached entry may be stale.
            // Cleared before the serialization point is released, so no
            // reader that saw the post-retention index can be followed by
            // a cache hit from before it. (Pure sealing never clears:
            // cached answers are byte-identical across it — the hot-tail
            // equivalence invariant.)
            inner.cache.clear();
        }
        outcome
    });
    let m = &inner.metrics;
    m.compaction_duration_ns
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    m.compactions.inc();
    m.compaction_sealed_batches
        .add(outcome.sealed_batches as u64);
    m.compaction_sealed_entries
        .add(outcome.sealed_entries as u64);
    m.compaction_dropped_partitions
        .add(outcome.dropped_partitions as u64);
    m.compaction_dropped_entries
        .add(outcome.dropped_entries as u64);
    if outcome.changed() {
        // Rotate the snapshot so the sealed state is durable and the WAL
        // shrinks back to empty. A crash before the rotation lands simply
        // replays the old snapshot + full WAL (pre-compaction state); the
        // rotation itself is the same atomic rename + stamped-WAL-reset
        // sequence `save_snapshot` documents.
        if let Some(dir) = persist::store_dir(inner) {
            persist::save_snapshot_on(inner, &dir)?;
        }
    }
    Ok(outcome)
}

/// Background compaction: a detached thread ticking every `interval`,
/// holding only a weak reference to the service — dropping the last
/// service handle ends it at its next tick.
fn spawn_compactor<B: ServiceBackend>(inner: &Arc<Inner<B>>, interval: Duration) {
    let weak = Arc::downgrade(inner);
    let _ = std::thread::Builder::new()
        .name("tthr-compactor".into())
        .spawn(move || loop {
            std::thread::sleep(interval);
            let Some(inner) = weak.upgrade() else { break };
            if compact_on(&inner).is_err() {
                inner.metrics.compaction_errors.inc();
            }
        });
}

/// A multi-threaded query service over one shared index backend.
///
/// `B` defaults to the monolithic [`SntIndex`]; construct with a
/// [`ShardedSntIndex`] (or use the [`ShardedQueryService`] alias) to get
/// per-shard append isolation and scoped cache invalidation with
/// byte-identical query results.
///
/// The service is `Send + Sync`; share it across threads with `Arc` (or
/// plain references and scoped threads). All query methods take `&self`.
pub struct QueryService<B: ServiceBackend = SntIndex> {
    inner: Arc<Inner<B>>,
    pool: Arc<ThreadPool>,
}

impl<B: ServiceBackend> QueryService<B> {
    /// Builds a service owning the index.
    pub fn new(index: B, network: Arc<RoadNetwork>, config: ServiceConfig) -> Self {
        let threads = if config.num_threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            config.num_threads
        };
        let metrics = ServiceMetrics::new();
        let latency = LatencyLog::new(&metrics.registry);
        let compactor = config
            .ingest
            .hot_tail
            .then_some(config.ingest.compaction_interval)
            .flatten();
        let summary = Mutex::new(IndexSummary::of(&index));
        let service = QueryService {
            inner: Arc::new(Inner {
                index: RwLock::new(index),
                network,
                cache: ShardedCache::new(config.cache_shards, config.cache_capacity),
                engine_config: config.engine,
                ingest: config.ingest,
                latency,
                metrics,
                slow: SlowLog::new(config.slow_query_log, config.trace_sample_every),
                trace_timing: config.trace_timing,
                generation: AtomicU64::new(0),
                persist: Mutex::new(None),
                group: GroupCommit::new(),
                summary,
            }),
            pool: Arc::new(ThreadPool::new(threads)),
        };
        if let Some(interval) = compactor {
            spawn_compactor(&service.inner, interval);
        }
        service
    }

    /// Number of pool worker threads.
    pub fn num_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The road network the service answers over.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.inner.network
    }

    /// Runs a fire-and-forget job on the service's worker pool — the
    /// execution plumbing a front-end (e.g. `tthr-server`'s reactor) uses
    /// to hand complete requests to the *existing* pool instead of
    /// spawning its own threads. Jobs may themselves call the query
    /// methods (including [`QueryService::batch_trip_queries`], whose
    /// nested fan-out helper-joins, so pool-on-pool nesting cannot
    /// deadlock).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.pool.execute(Box::new(job));
    }

    /// The engine configuration every query runs under.
    pub fn engine_config(&self) -> &QueryEngineConfig {
        &self.inner.engine_config
    }

    /// Answers a single SPQ through the cache (Procedure 5 semantics,
    /// byte-identical to [`SntIndex::get_travel_times`]).
    pub fn get_travel_times(&self, spq: &Spq) -> TravelTimes {
        let start = Instant::now();
        let mut scratch = self.inner.scratch();
        let index = self.inner.index.read().expect("index lock");
        let provider = CachedIndex {
            index: &*index,
            cache: &self.inner.cache,
            generation: &self.inner.generation,
        };
        let result = provider.travel_times_with(spq, &mut scratch);
        drop(index);
        self.inner.observe(
            Endpoint::Spq,
            start.elapsed(),
            spq.path.len(),
            &scratch.trace,
        );
        result
    }

    /// The cached answer to an SPQ, or `None` — without the index lock, a
    /// search scratch or the pool. A front-end answers a hit on the spot
    /// and hands a miss to [`QueryService::get_travel_times`].
    ///
    /// A hit counts once, as [`QueryService::get_travel_times`] would
    /// count it (cache counter, trace, request log); a miss is left
    /// uncounted for the lookup that follows it. Every writer evicts what
    /// it made stale before it acknowledges, so a hit served while a write
    /// is in flight is ordered before that write.
    pub fn cached_travel_times(&self, spq: &Spq) -> Option<TravelTimes> {
        let start = Instant::now();
        let cache = &self.inner.cache;
        let hit = cache.probe(cache.hash(spq), spq)?;
        let trace = QueryTrace {
            cache_hits: 1,
            ..QueryTrace::default()
        };
        self.inner
            .observe(Endpoint::Spq, start.elapsed(), spq.path.len(), &trace);
        Some(hit)
    }

    /// Answers a trip query on the calling thread; identical results to
    /// [`QueryEngine::trip_query`].
    pub fn trip_query(&self, query: &Spq) -> TripQuery {
        let start = Instant::now();
        let result = trip_query_on(&self.inner, query);
        self.inner.observe(
            Endpoint::Trip,
            start.elapsed(),
            query.path.len(),
            &result.trace,
        );
        result
    }

    /// Answers a batch of trip queries, one pool job per trip; the
    /// result order matches the input order.
    pub fn batch_trip_queries(&self, queries: &[Spq]) -> Vec<TripQuery> {
        let jobs: Vec<_> = queries
            .iter()
            .map(|q| {
                let inner = Arc::clone(&self.inner);
                let query = q.clone();
                move || {
                    // Per-query wall time from the moment a worker picks
                    // the trip up — the same scale `trip_query` records on.
                    let start = Instant::now();
                    let result = trip_query_on(&inner, &query);
                    inner.observe(
                        Endpoint::Batch,
                        start.elapsed(),
                        query.path.len(),
                        &result.trace,
                    );
                    result
                }
            })
            .collect();
        self.pool.run_all(jobs)
    }

    /// Appends the new trajectories of `set` as one batch (Section 4.3.2's
    /// update path) and invalidates exactly the cache entries the append
    /// can have changed. Returns the number of appended trajectories.
    ///
    /// With an exclusive-append backend (the monolithic [`SntIndex`]) the
    /// call takes the index write lock: in-flight scans finish against
    /// the old state first, and every reader blocked behind the append
    /// sees the new index with the stale entries gone. With a
    /// shared-append backend ([`ShardedSntIndex`]) the call runs under
    /// the index *read* lock plus the backend's append permit: only the
    /// touched shards' readers wait (on those shards' own locks), queries
    /// against every other shard proceed stall-free, and only cache
    /// entries routing to the touched shards are evicted. Either way a
    /// returned query result never mixes index generations (see
    /// [`QueryService::trip_query`]).
    ///
    /// With durable storage attached ([`QueryService::save_snapshot`] /
    /// [`QueryService::open`]) the batch is logged **write-ahead**: it is
    /// appended and fsynced to the WAL before the in-memory index changes,
    /// so a crash at any point either loses the whole batch (the caller
    /// saw the error) or replays it fully on the next `open`. Without
    /// storage attached the call is infallible.
    pub fn append_batch(&self, set: &TrajectorySet) -> Result<usize, StoreError> {
        // Only the tail past the count read here is queued (owned, so a
        // group-commit leader can process it on this caller's behalf): the
        // count is monotone — retention never shrinks the id space — so
        // the delta the leader applies can only start at or after it.
        let from = self.with_index(|index| index.num_trajectories());
        self.submit_append(AppendRequest::Set {
            len: set.len(),
            from,
            tail: set.iter().skip(from).cloned().collect(),
        })
    }

    /// The one entry to the write path: queues the request for a
    /// group-commit leader ([`Self::commit_appends`]), then runs the
    /// hot-tail size trigger.
    fn submit_append(&self, request: AppendRequest) -> Result<usize, StoreError> {
        let start = Instant::now();
        let result = self
            .inner
            .group
            .submit(request, |batch| self.commit_appends(batch));
        // Appends have no search trace; they still count and feed the
        // slow-query log (a stalled append is worth seeing there).
        self.inner
            .observe(Endpoint::Append, start.elapsed(), 0, &QueryTrace::default());
        self.maybe_compact_after_append();
        result
    }

    /// Appends a batch of **new** trajectory payloads — the network
    /// front-end's update path, where clients ship only the delta instead
    /// of the whole grown [`TrajectorySet`] that
    /// [`QueryService::append_batch`] expects.
    ///
    /// `base` is an optional idempotency stamp, mirroring the WAL's: when
    /// present it must equal the trajectory count the client believes the
    /// index holds. A stamp *behind* the index means the batch was already
    /// applied (returns `Ok(0)`, nothing is re-appended); a stamp *ahead*
    /// of it is a [`StoreError::WalGap`]. Without a stamp the batch is
    /// appended unconditionally.
    ///
    /// The payload is validated **before** anything is logged or applied
    /// (invalid trajectories are a [`StoreError::Corrupt`] and the index
    /// is untouched); locking, write-ahead logging, the generation
    /// seqlock, and scoped cache invalidation are exactly
    /// [`QueryService::append_batch`]'s — the two entry points produce
    /// byte-identical index states for the same logical batch
    /// (`tests/persistence_roundtrip.rs` enforces this differentially).
    pub fn append_new(
        &self,
        base: Option<u64>,
        new: &[(UserId, Vec<TrajEntry>)],
    ) -> Result<usize, StoreError> {
        self.submit_append(AppendRequest::Payload {
            base,
            new: new.to_vec(),
        })
    }

    /// Group-commit leader: settles a drained batch of append requests
    /// under **one** index-lock acquisition and **one** WAL fsync.
    ///
    /// Phases (see the [`group_commit`] module docs for the ordering
    /// argument):
    /// 1. stamp + validate every request arithmetically against a running
    ///    trajectory count, encoding its WAL record with the stamp a
    ///    serial execution would have used;
    /// 2. write + fsync all records as one [`WalWriter::append_many`]
    ///    batch (all-or-nothing: a failure settles every surviving
    ///    request with the error and applies nothing);
    /// 3. apply each request in stamp order with the same per-request
    ///    generation-seqlock bumps and scoped cache eviction as a serial
    ///    execution.
    fn commit_appends(&self, batch: Vec<(u64, AppendRequest)>) -> Vec<(u64, AppendOutcome)> {
        let inner = &*self.inner;
        with_appender(inner, |mut index| {
            let (plans, records) = self.plan_appends(index.index(), batch);
            let logged = self.wal_append_group(&records);
            plans
                .into_iter()
                .map(|(ticket, plan)| {
                    let outcome = match (plan, &logged) {
                        (Plan::Settled(outcome), _) => outcome,
                        // The WAL write failed: it rolled back (or poisoned
                        // the writer trying) and nothing is applied, so
                        // every request with a record in the batch reports
                        // the failure; the settled ones keep their outcome.
                        (Plan::Apply(_), Err(e)) => Err(replicate_error(e)),
                        (Plan::Apply(delta), Ok(())) => {
                            // Trajectory entries are validated
                            // time-monotonic, so each member's time floor
                            // is its start time.
                            let floor = delta.iter().map(Trajectory::start_time).min();
                            // Seqlock write: odd while the apply is in
                            // flight, so a trip whose ladders straddle the
                            // window of a shared apply (shard A
                            // post-append, shard B pre-append) can never
                            // pass generation validation — it either reads
                            // an odd counter or sees it change. (Under the
                            // exclusive lock no reader runs in between.)
                            inner.generation.fetch_add(1, Ordering::SeqCst);
                            let effect = index.ingest(delta, !inner.ingest.hot_tail);
                            inner.generation.fetch_add(1, Ordering::SeqCst);
                            self.evict_stale(index.index(), &effect, floor);
                            Ok(effect.appended)
                        }
                    };
                    (ticket, outcome)
                })
                .collect()
        })
    }

    /// Phase 1 of a group commit: walk the batch in submission order,
    /// settle what needs no apply (idempotent replays, gaps, invalid
    /// payloads, empty deltas), and stamp + encode the WAL record of
    /// everything else against a *running* trajectory count — request
    /// *k*'s stamp counts the not-yet-applied requests before it, so the
    /// records are byte-identical to a serial one-at-a-time execution.
    fn plan_appends(
        &self,
        index: &B,
        batch: Vec<(u64, AppendRequest)>,
    ) -> (Vec<(u64, Plan)>, Vec<Vec<u8>>) {
        let mut running = index.num_trajectories();
        let mut plans = Vec::with_capacity(batch.len());
        let mut records = Vec::new();
        // Without attached storage `wal_append_group` discards the
        // records, so don't pay the serialization on every append.
        let logging = self.inner.persist.lock().expect("persist lock").is_some();
        for (ticket, request) in batch {
            // Turn the request into the delta it appends at `running`…
            let delta = match request {
                AppendRequest::Set { len, .. } if len <= running => Ok(Vec::new()),
                AppendRequest::Set { from, mut tail, .. } => {
                    tail.drain(..running - from);
                    Ok(tail)
                }
                AppendRequest::Payload { base, new } => match base {
                    Some(b) if b < running as u64 => Ok(Vec::new()),
                    Some(b) if b > running as u64 => Err(StoreError::WalGap {
                        expected: running as u64,
                        found: b,
                    }),
                    _ => index.prepare_payload_at(&new, running),
                },
            };
            // …then stamp and log it, or settle what needs no apply.
            let plan = match delta {
                Err(e) => Plan::Settled(Err(e)),
                Ok(delta) if delta.is_empty() => Plan::Settled(Ok(0)),
                Ok(delta) => {
                    if logging {
                        records.push(index.encode_wal_record(&delta, running));
                    }
                    running += delta.len();
                    Plan::Apply(delta)
                }
            };
            plans.push((ticket, plan));
        }
        (plans, records)
    }

    /// Phase 2 of a group commit: all records of the batch in one WAL
    /// write + one fsync, with the registry counters recording the
    /// amortization (`wal_appends` per record, `wal_fsyncs` once,
    /// `wal_group_size` the batch size). A no-op without attached storage
    /// or an empty batch.
    fn wal_append_group(&self, records: &[Vec<u8>]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut persist = self.inner.persist.lock().expect("persist lock");
        let Some(p) = persist.as_mut() else {
            return Ok(());
        };
        let start = Instant::now();
        p.wal.append_many(records)?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let metrics = &self.inner.metrics;
        metrics.wal_fsync_ns.record(ns);
        metrics.wal_fsyncs.inc();
        metrics.wal_group_size.record(records.len() as u64);
        metrics.wal_appends.add(records.len() as u64);
        metrics
            .wal_bytes
            .add(records.iter().map(|r| r.len() as u64).sum());
        Ok(())
    }

    /// Evicts exactly the entries the append can have changed, scoped
    /// along two independent axes: the **shards** the batch wrote
    /// ([`AppendEffect::touched_shards`]) and the batch's **time range**
    /// (`batch_min_time`, the earliest entry it ingested). Runs *after*
    /// the generation left the odd (in-progress) state: a racing reader's
    /// generation-validated insert (see [`CachedIndex`]) either
    /// happens-before this eviction or is abandoned, so a stale entry can
    /// never outlive the invalidation.
    ///
    /// Time scoping is only applied where it is provably sound. A
    /// multi-edge fixed-interval answer admits exactly the traversals
    /// whose first-edge enter time lies inside the interval, so a batch
    /// whose earliest entry sits at or past the interval end cannot change
    /// it. Everything else keeps the unscoped eviction: periodic windows
    /// recur daily (a batch at any absolute time can land in them),
    /// single-edge fixed queries stay conservatively eligible for
    /// count-shortcut serving tied to whole-tree statistics, and an
    /// engine-level cardinality estimator makes answers depend on global
    /// index statistics that every append shifts.
    fn evict_stale(&self, index: &B, effect: &AppendEffect, batch_min_time: Option<Timestamp>) {
        if effect.appended == 0 {
            return;
        }
        let time_scoped = self.inner.engine_config.estimator.is_none();
        let keep = |spq: &Spq| match (time_scoped, batch_min_time, &spq.interval) {
            (true, Some(floor), TimeInterval::Fixed { end, .. }) => {
                spq.path.len() > 1 && *end <= floor
            }
            _ => false,
        };
        match &effect.touched_shards {
            // Unpartitioned backend: everything overlapping the batch's
            // time range may be stale.
            None => {
                self.inner.cache.clear_where(|spq| !keep(spq));
            }
            // Partitioned backend: a query's answer can only change if
            // its owning index shard received leaves inside the query's
            // window — evict exactly those entries and keep every other
            // shard's (and every provably disjoint window's) warm.
            Some(touched) => {
                self.inner.cache.clear_where(|spq| {
                    index.route_shard(spq).is_none_or(|s| touched.contains(&s)) && !keep(spq)
                });
            }
        }
    }

    /// Runs a closure against the current index state (read-locked).
    pub fn with_index<R>(&self, f: impl FnOnce(&B) -> R) -> R {
        f(&self.inner.index.read().expect("index lock"))
    }

    /// Runs one compaction pass right now, regardless of the background
    /// cadence: seals every pending hot-tail batch into its own immutable
    /// partition (in absorb order — byte-identical to the index direct
    /// appends would have built), drops partitions fully expired by the
    /// [`IngestConfig::retention`] horizon, and — when anything changed
    /// and durable storage is attached — rotates the snapshot, which
    /// truncates the WAL.
    ///
    /// Crash safety matches [`QueryService::save_snapshot`]'s ordering: a
    /// crash before the rotated snapshot's rename lands replays the old
    /// snapshot plus the full WAL (the pre-compaction state, answer-wise
    /// identical), a crash after it opens the post-compaction state — the
    /// two never mix.
    ///
    /// Safe (and a cheap no-op) when the hot tail is empty and nothing is
    /// expired. Concurrent queries keep running; with a shared-append
    /// backend only one shard at a time is write-locked.
    pub fn compact_now(&self) -> Result<CompactionOutcome, StoreError> {
        compact_on(&self.inner)
    }

    /// Pending hot-tail accounting (batches, entries, approximate heap
    /// bytes; summed across shards on a sharded backend) as of the last
    /// completed write — read without the index lock.
    pub fn hot_stats(&self) -> HotStats {
        self.inner.summary().hot
    }

    /// Ingestion-lifecycle status: the hot-tail backlog plus cumulative
    /// compaction counters — what the server's `/health` endpoint reports.
    /// Never waits on the index lock, so it answers while a write holds
    /// or awaits it.
    pub fn ingest_status(&self) -> IngestStatus {
        let m = &self.inner.metrics;
        IngestStatus {
            hot_tail: self.inner.ingest.hot_tail,
            hot: self.hot_stats(),
            compactions: m.compactions.get(),
            compaction_errors: m.compaction_errors.get(),
            sealed_batches: m.compaction_sealed_batches.get(),
            dropped_partitions: m.compaction_dropped_partitions.get(),
        }
    }

    /// The size trigger: an append that pushed the hot tail past
    /// [`IngestConfig::hot_max_entries`] compacts inline — the appending
    /// thread pays, keeping memory bounded even without the background
    /// thread.
    fn maybe_compact_after_append(&self) {
        let ingest = &self.inner.ingest;
        if !ingest.hot_tail || ingest.hot_max_entries == 0 {
            return;
        }
        if self.hot_stats().entries >= ingest.hot_max_entries && self.compact_now().is_err() {
            self.inner.metrics.compaction_errors.inc();
        }
    }

    /// Point-in-time service statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats_with_histograms().0
    }

    /// [`QueryService::stats`] plus the merged per-endpoint raw latency
    /// histograms the summaries are derived from — one pass over the
    /// recorder stripes, so a caller that ships both (the HTTP `/stats`
    /// endpoint) does not merge every stripe twice.
    pub fn stats_with_histograms(&self) -> (ServiceStats, PerEndpoint<LogHistogram>) {
        let (histograms, endpoints, latency, throughput_qps, uptime) = self.inner.latency.export();
        let requests = &self.inner.metrics.requests;
        let stats = ServiceStats {
            spq_queries: requests[Endpoint::Spq].get(),
            // Batch trips count as trip queries, as they always have.
            trip_queries: requests[Endpoint::Trip].get() + requests[Endpoint::Batch].get(),
            latency,
            endpoints,
            throughput_qps,
            cache: self.inner.cache.counters(),
            // The counter is a seqlock (2 ticks per append, odd =
            // in-progress); report completed appends.
            generation: self.inner.generation.load(Ordering::SeqCst) / 2,
            uptime,
        };
        (stats, histograms)
    }

    /// The merged raw latency histogram of one endpoint — the lossless
    /// export ([`tthr_metrics::LogHistogram::nonzero_buckets`]) a
    /// cross-process aggregator or the HTTP `/stats` endpoint ships
    /// instead of pre-computed percentiles.
    pub fn endpoint_histogram(&self, endpoint: Endpoint) -> LogHistogram {
        self.inner.latency.merged(endpoint)
    }

    /// Clears the latency log and restarts the throughput clock (the
    /// cache and its counters are left untouched).
    pub fn reset_stats(&self) {
        self.inner.latency.reset();
    }

    /// The service's metrics registry. Other layers (e.g. a network
    /// front-end) register their own series here so one
    /// [`QueryService::render_metrics`] scrape covers the whole process.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.inner.metrics.registry
    }

    /// Renders every registry series in the Prometheus text exposition
    /// format, after mirroring the scrape-time values (cache counters,
    /// index generation and size, per-shard series) into the registry.
    /// The index values come from the last completed write's summary, so
    /// a scrape never waits on the index lock.
    pub fn render_metrics(&self) -> String {
        let m = &self.inner.metrics;
        m.mirror_cache(&self.inner.cache.counters());
        m.generation.set(
            i64::try_from(self.inner.generation.load(Ordering::SeqCst) / 2).unwrap_or(i64::MAX),
        );
        let index = self.inner.summary();
        let gauge = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        m.index_trajectories.set(gauge(index.trajectories));
        m.index_partitions.set(gauge(index.partitions));
        if let Some(shards) = &index.shards {
            m.mirror_shards(shards);
        }
        m.hot_tail_batches.set(gauge(index.hot.batches));
        m.hot_tail_entries.set(gauge(index.hot.entries));
        m.hot_tail_bytes.set(gauge(index.hot.bytes));
        m.registry.render()
    }

    /// The slowest requests seen so far, worst first (bounded by
    /// [`ServiceConfig::slow_query_log`]), each with its cost trace.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.inner.slow.top()
    }

    /// The most recent sampled request traces, oldest first (every
    /// [`ServiceConfig::trace_sample_every`]-th request).
    pub fn sampled_queries(&self) -> Vec<SlowQuery> {
        self.inner.slow.sampled()
    }
}

/// Cloning shares the service: both handles answer over the same index,
/// cache, pool, and stats (the front-end keeps one clone per worker).
impl<B: ServiceBackend> Clone for QueryService<B> {
    fn clone(&self) -> Self {
        QueryService {
            inner: Arc::clone(&self.inner),
            pool: Arc::clone(&self.pool),
        }
    }
}

/// Executes one trip query against the shared state: the engine's round
/// driver over the cache, on the calling thread, under one read lock —
/// result-identical to the plain engine.
///
/// A returned `TripQuery` never mixes index generations. With an
/// exclusive-append backend that is the read lock's doing: a pass holds
/// it from its first dispatch to its last, so no append can land inside
/// one. A shared-append backend's appenders do not take the service write
/// lock, so there a trip can straddle an append (shard A read post-append,
/// shard B pre-append); each optimistic pass is therefore validated
/// against the append generation counter and redone if it moved. A trip
/// is much shorter than an append, so consecutive invalidations are
/// exponentially unlikely; after four of them the trip runs once more
/// with appends frozen via the backend's permit — readers are still
/// unaffected, only appenders briefly queue.
fn trip_query_on<B: ServiceBackend>(inner: &Inner<B>, query: &Spq) -> TripQuery {
    for _ in 0..4 {
        if let Some(result) = trip_query_pass(inner, query) {
            return result;
        }
    }
    // Freeze appends for the final pass. For an exclusive-append backend
    // the permit is `None` — the read lock alone already excludes
    // writers, so the pass below cannot be invalidated.
    let index = inner.index.read().expect("index lock");
    let _permit = index.append_permit();
    trip_query_at(inner, &index, query)
}

/// One optimistic trip execution; `None` when an append committed while
/// it ran (the result may straddle two index generations).
fn trip_query_pass<B: ServiceBackend>(inner: &Inner<B>, query: &Spq) -> Option<TripQuery> {
    let generation_before = inner.generation.load(Ordering::SeqCst);
    let index = inner.index.read().expect("index lock");
    let result = trip_query_at(inner, &index, query);
    generation_valid(inner, generation_before).then_some(result)
}

/// The trip itself, against a read-locked index: one round-driver run
/// with the cache as the engine's provider.
fn trip_query_at<B: ServiceBackend>(inner: &Inner<B>, index: &B, query: &Spq) -> TripQuery {
    let engine = QueryEngine::new(index, &inner.network, inner.engine_config.clone());
    let provider = CachedIndex {
        index,
        cache: &inner.cache,
        generation: &inner.generation,
    };
    engine.trip_query_via_with(&provider, query, &mut inner.scratch())
}

/// Seqlock read validation: the pass saw one index generation iff the
/// counter was even (no apply in flight) when it started and has not
/// moved since.
fn generation_valid<B: ServiceBackend>(inner: &Inner<B>, before: u64) -> bool {
    before.is_multiple_of(2) && inner.generation.load(Ordering::SeqCst) == before
}

// The whole point of the service is cross-thread sharing; keep that a
// compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<ShardedQueryService>();
    assert_send_sync::<ServiceConfig>();
    assert_send_sync::<ServiceStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_core::{SntConfig, TimeInterval};
    use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E, EDGE_F};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::{TrajEntry, UserId};

    fn service(threads: usize) -> QueryService {
        let network = example_network();
        let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
        QueryService::new(
            index,
            Arc::new(network),
            ServiceConfig {
                num_threads: threads,
                ..ServiceConfig::default()
            },
        )
    }

    fn sharded_service(threads: usize, shards: usize) -> ShardedQueryService {
        let network = example_network();
        let index = ShardedSntIndex::build(
            &network,
            &example_trajectories(),
            SntConfig::default(),
            shards,
        );
        QueryService::new(
            index,
            Arc::new(network),
            ServiceConfig {
                num_threads: threads,
                ..ServiceConfig::default()
            },
        )
    }

    fn abe() -> Spq {
        Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        )
        .with_beta(2)
    }

    #[test]
    fn single_spq_matches_paper_example_and_caches() {
        let s = service(2);
        assert_eq!(s.get_travel_times(&abe()).sorted(), vec![10.0, 11.0]);
        assert_eq!(s.get_travel_times(&abe()).sorted(), vec![10.0, 11.0]);
        let stats = s.stats();
        assert_eq!(stats.spq_queries, 2);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.latency.count, 2);
    }

    /// Every trip of `queries`, through `/trip` and `/batch` alike, must
    /// be the depth-first definition's answer — sub-results in path
    /// order, value bits, histogram, all nine `QueryStats` fields — and
    /// take the rounds the plain engine's driver takes on the same index.
    /// Returns the definition's stats, one per trip.
    fn assert_trips_match_the_definition<B: ServiceBackend>(
        s: &QueryService<B>,
        queries: &[Spq],
    ) -> Vec<tthr_core::QueryStats> {
        let batch = s.batch_trip_queries(queries);
        let mut stats = Vec::new();
        for (q, batched) in queries.iter().zip(&batch) {
            let single = s.trip_query(q);
            s.with_index(|index| {
                let engine = QueryEngine::new(index, s.network(), s.engine_config().clone());
                let want = engine.trip_query_sequential_via(index, q);
                let rounds = engine.trip_query(q).trace.ladder_batches;
                for got in [&single, batched] {
                    assert_eq!(got.stats, want.stats, "{q:?}");
                    assert_eq!(got.histogram, want.histogram, "{q:?}");
                    assert_eq!(got.subs.len(), want.subs.len(), "{q:?}");
                    for (a, b) in got.subs.iter().zip(&want.subs) {
                        assert_eq!(a.path, b.path, "{q:?}");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&a.values), bits(&b.values), "{q:?}");
                        assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{q:?}");
                        assert_eq!(a.fallback, b.fallback, "{q:?}");
                    }
                    assert_eq!(got.trace.ladder_batches, rounds, "one round driver: {q:?}");
                }
                stats.push(want.stats);
            });
        }
        stats
    }

    #[test]
    fn trip_query_matches_sequential_engine() {
        let syn = generate_network(&NetworkConfig::small());
        let set = generate_workload(&syn, &WorkloadConfig::small());
        // Whole paths of real trips under a fixed window around the
        // departure (the zones are independent ladders, and the far ones
        // are entered too late for the window: they relax), under the
        // periodic window (each zone's is adapted from the ones before
        // it), and with the driver as filter.
        let queries: Vec<Spq> = set
            .iter()
            .filter(|tr| tr.len() >= 12)
            .step_by(7)
            .take(6)
            .flat_map(|tr| {
                let t0 = tr.start_time();
                let fixed = Spq::new(tr.path(), TimeInterval::fixed(t0 - 450, t0 + 450));
                let periodic = fixed.with_interval(TimeInterval::periodic_around(t0, 900));
                [
                    fixed.clone().with_beta(20),
                    fixed.with_user(tr.user()),
                    periodic.clone().with_beta(20),
                    periodic.with_beta(5).with_user(tr.user()),
                ]
            })
            .collect();
        let network = Arc::new(syn.network);
        for threads in [1, 4] {
            let config = ServiceConfig {
                num_threads: threads,
                ..ServiceConfig::default()
            };
            let mono = SntIndex::build(&network, &set, SntConfig::default());
            let sharded = ShardedSntIndex::build(&network, &set, SntConfig::default(), 2);
            let mono = QueryService::new(mono, Arc::clone(&network), config.clone());
            let sharded = QueryService::new(sharded, Arc::clone(&network), config);
            let stats = assert_trips_match_the_definition(&mono, &queries);
            assert_eq!(assert_trips_match_the_definition(&sharded, &queries), stats);
            // The inputs hold what the single shape has to get right: a
            // fixed-interval trip of ≥ 3 ladders, at least one relaxing.
            assert!(queries.iter().zip(&stats).any(|(q, st)| {
                !q.interval.is_periodic()
                    && st.initial_subqueries >= 3
                    && st.index_queries > st.final_subqueries
            }));
        }
    }

    #[test]
    fn batch_preserves_order() {
        let s = service(4);
        let queries = vec![abe(); 12];
        let results = s.batch_trip_queries(&queries);
        assert_eq!(results.len(), 12);
        for r in &results {
            assert_eq!(r.predicted_duration(), results[0].predicted_duration());
        }
        assert_eq!(s.stats().trip_queries, 12);
    }

    #[test]
    fn append_invalidates_cache_and_bumps_generation() {
        let s = service(2);
        let _ = s.get_travel_times(&abe());
        assert_eq!(s.stats().cache.entries, 1);

        // Appending the same set is a no-op: no invalidation.
        assert_eq!(s.append_batch(&example_trajectories()).unwrap(), 0);
        assert_eq!(s.stats().generation, 0);
        assert_eq!(s.stats().cache.entries, 1);

        // A genuinely new trajectory invalidates.
        let mut grown = example_trajectories();
        grown
            .push(
                tthr_trajectory::UserId(9),
                vec![
                    tthr_trajectory::TrajEntry::new(EDGE_A, 3, 3.0),
                    tthr_trajectory::TrajEntry::new(EDGE_B, 6, 3.0),
                    tthr_trajectory::TrajEntry::new(EDGE_E, 9, 4.0),
                ],
            )
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        let stats = s.stats();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.cache.entries, 0);
        assert_eq!(stats.cache.invalidations, 1);
        // The fresh answer includes the new traversal.
        assert_eq!(s.get_travel_times(&abe()).len(), 2, "β caps at 2");
        let uncapped = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        );
        assert_eq!(
            s.get_travel_times(&uncapped).sorted(),
            vec![10.0, 10.0, 11.0]
        );
    }

    #[test]
    fn sharded_backend_answers_like_the_monolith_service() {
        let mono = service(2);
        for shards in [1usize, 3, 6] {
            let sharded = sharded_service(2, shards);
            let q = abe();
            assert_eq!(
                sharded.get_travel_times(&q).sorted(),
                mono.get_travel_times(&q).sorted(),
                "shards={shards}"
            );
            let a = mono.trip_query(&q);
            let b = sharded.trip_query(&q);
            assert_eq!(
                a.predicted_duration().to_bits(),
                b.predicted_duration().to_bits(),
                "shards={shards}"
            );
            assert_eq!(a.stats, b.stats, "shards={shards}");
        }
    }

    /// Regression: a single-shard append must evict only the touched
    /// shard's cache entries — an earlier draft cleared every shard the
    /// way the monolithic backend does, throwing warm entries away on
    /// every write.
    #[test]
    fn single_shard_append_invalidates_only_the_touched_shard() {
        // Six shards over the six example edges: every edge is its own
        // shard, so the routing of the two probe queries is disjoint.
        let s = sharded_service(2, 6);
        let qa = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 100));
        let qf = Spq::new(Path::new(vec![EDGE_F]), TimeInterval::fixed(0, 100));
        let _ = s.get_travel_times(&qa);
        let _ = s.get_travel_times(&qf);
        assert_eq!(s.stats().cache.entries, 2);

        // Append a trajectory that touches only F's shard.
        let mut grown = example_trajectories();
        grown
            .push(UserId(9), vec![TrajEntry::new(EDGE_F, 50, 6.5)])
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        let stats = s.stats();
        assert_eq!(stats.cache.entries, 1, "only F's entry evicted");
        assert_eq!(stats.cache.invalidations, 1);
        assert_eq!(stats.generation, 1);

        // A's entry is still served from cache (hit-rate on the untouched
        // shard stays flat: one more hit, no more misses)...
        let before = s.stats().cache;
        assert_eq!(s.get_travel_times(&qa).sorted(), vec![3.0, 3.0, 3.0, 4.0]);
        let after = s.stats().cache;
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);

        // ...while F recomputes and sees the new traversal.
        assert_eq!(s.get_travel_times(&qf).sorted(), vec![6.0, 6.5]);
    }

    /// The payload append entry point (`append_new`) must land the index
    /// in the same state as the grown-set entry point (`append_batch`),
    /// honour the idempotency stamp, and reject gapped stamps — for both
    /// backends.
    #[test]
    fn append_new_matches_append_batch() {
        let payload = vec![(
            tthr_trajectory::UserId(9),
            vec![
                TrajEntry::new(EDGE_A, 3, 3.0),
                TrajEntry::new(EDGE_B, 6, 3.0),
                TrajEntry::new(EDGE_E, 9, 4.0),
            ],
        )];
        let mut grown = example_trajectories();
        grown.push(payload[0].0, payload[0].1.clone()).unwrap();

        let via_set = service(2);
        assert_eq!(via_set.append_batch(&grown).unwrap(), 1);
        let via_payload = service(2);
        assert_eq!(via_payload.append_new(Some(4), &payload).unwrap(), 1);
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        );
        assert_eq!(
            via_payload.get_travel_times(&q).sorted(),
            via_set.get_travel_times(&q).sorted()
        );
        assert_eq!(via_payload.stats().generation, 1);
        assert_eq!(via_payload.stats().endpoints[Endpoint::Append].count, 1);

        // Stamp behind the index: already applied, nothing re-appended.
        assert_eq!(via_payload.append_new(Some(4), &payload).unwrap(), 0);
        assert_eq!(via_payload.stats().generation, 1);
        // Stamp ahead: a gap, typed.
        assert!(matches!(
            via_payload.append_new(Some(7), &payload),
            Err(StoreError::WalGap {
                expected: 5,
                found: 7
            })
        ));
        // Invalid payload (non-monotonic timestamps): typed, index intact.
        let bad = vec![(
            tthr_trajectory::UserId(1),
            vec![
                TrajEntry::new(EDGE_A, 9, 1.0),
                TrajEntry::new(EDGE_B, 3, 1.0),
            ],
        )];
        assert!(matches!(
            via_payload.append_new(None, &bad),
            Err(StoreError::Corrupt { .. })
        ));
        via_payload.with_index(|i| assert_eq!(i.num_trajectories(), 5));

        // The sharded backend: same equivalence, scoped eviction intact.
        let sharded_set = sharded_service(2, 3);
        assert_eq!(sharded_set.append_batch(&grown).unwrap(), 1);
        let sharded_payload = sharded_service(2, 3);
        assert_eq!(sharded_payload.append_new(None, &payload).unwrap(), 1);
        assert_eq!(
            sharded_payload.get_travel_times(&q).sorted(),
            sharded_set.get_travel_times(&q).sorted()
        );
    }

    fn hot_service(threads: usize, ingest: IngestConfig) -> QueryService {
        let network = example_network();
        let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
        QueryService::new(
            index,
            Arc::new(network),
            ServiceConfig {
                num_threads: threads,
                ingest,
                ..ServiceConfig::default()
            },
        )
    }

    fn ninth() -> (UserId, Vec<TrajEntry>) {
        (
            UserId(9),
            vec![
                TrajEntry::new(EDGE_A, 3, 3.0),
                TrajEntry::new(EDGE_B, 6, 3.0),
                TrajEntry::new(EDGE_E, 9, 4.0),
            ],
        )
    }

    /// Hot-tail appends answer byte-identically to sealed appends, and a
    /// compaction seals the backlog without changing any answer — warm
    /// cache entries survive it.
    #[test]
    fn hot_tail_service_matches_sealed_appends_across_compaction() {
        let hot = hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                ..IngestConfig::default()
            },
        );
        let cold = service(2);
        let mut grown = example_trajectories();
        let (user, entries) = ninth();
        grown.push(user, entries).unwrap();
        assert_eq!(hot.append_batch(&grown).unwrap(), 1);
        assert_eq!(cold.append_batch(&grown).unwrap(), 1);
        assert_eq!(hot.hot_stats().batches, 1, "absorbed, not sealed");
        assert_eq!(cold.hot_stats().batches, 0, "default path seals");

        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        );
        assert_eq!(
            hot.get_travel_times(&q).sorted(),
            cold.get_travel_times(&q).sorted()
        );

        let before = hot.stats().cache;
        let outcome = hot.compact_now().unwrap();
        assert_eq!(outcome.sealed_batches, 1);
        assert_eq!(outcome.dropped_partitions, 0);
        assert_eq!(hot.hot_stats().entries, 0, "backlog sealed");
        assert_eq!(
            hot.get_travel_times(&q).sorted(),
            cold.get_travel_times(&q).sorted(),
            "sealing preserves answers"
        );
        let after = hot.stats().cache;
        assert_eq!(after.hits, before.hits + 1, "entry survived the seal");
        assert_eq!(after.invalidations, before.invalidations);

        let status = hot.ingest_status();
        assert!(status.hot_tail);
        assert_eq!(status.compactions, 1);
        assert_eq!(status.sealed_batches, 1);
        assert_eq!(status.dropped_partitions, 0);
    }

    /// Satellite regression for scoped invalidation: with time scoping
    /// sound (no engine estimator — the default), a multi-edge
    /// fixed-interval entry whose window closes before the appended
    /// batch's earliest entry stays warm; hit-rate on it stays flat.
    #[test]
    fn append_keeps_disjoint_fixed_window_entries_warm() {
        let s = service(2);
        let early = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        );
        let late = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 200),
        );
        let _ = s.get_travel_times(&early);
        let _ = s.get_travel_times(&late);
        assert_eq!(s.stats().cache.entries, 2);

        // The batch's earliest entry is t = 100: the [0, 15) answer
        // provably cannot change, the [0, 200) one can.
        let mut grown = example_trajectories();
        grown
            .push(
                UserId(9),
                vec![
                    TrajEntry::new(EDGE_A, 100, 3.0),
                    TrajEntry::new(EDGE_B, 103, 3.0),
                    TrajEntry::new(EDGE_E, 106, 4.0),
                ],
            )
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        assert_eq!(
            s.stats().cache.entries,
            1,
            "only the overlapping window evicted"
        );

        let before = s.stats().cache;
        assert_eq!(s.get_travel_times(&early).sorted(), vec![10.0, 11.0]);
        let after = s.stats().cache;
        assert_eq!(after.hits, before.hits + 1, "disjoint window stayed warm");
        assert_eq!(after.misses, before.misses);
        assert_eq!(
            s.get_travel_times(&late).len(),
            3,
            "overlapping window recomputes and sees the new traversal"
        );
    }

    /// With an engine-level estimator configured, answers depend on global
    /// index statistics — time scoping turns itself off and every entry is
    /// evicted, exactly like before the scoping existed.
    #[test]
    fn estimator_disables_time_scoped_invalidation() {
        let network = example_network();
        let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
        let s = QueryService::new(
            index,
            Arc::new(network),
            ServiceConfig {
                num_threads: 2,
                engine: QueryEngineConfig {
                    estimator: Some(tthr_core::CardinalityMode::CssFast),
                    ..QueryEngineConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let early = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        );
        let _ = s.get_travel_times(&early);
        assert_eq!(s.stats().cache.entries, 1);
        let mut grown = example_trajectories();
        grown
            .push(UserId(9), vec![TrajEntry::new(EDGE_F, 500, 6.5)])
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        assert_eq!(s.stats().cache.entries, 0, "unscoped eviction");
    }

    /// Retention drops expired history at compaction: answers change, so
    /// the whole cache is invalidated; a second pass is a no-op.
    #[test]
    fn retention_compaction_drops_expired_partitions_and_invalidates() {
        let s = hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                retention: Some(Duration::from_secs(50)),
                ..IngestConfig::default()
            },
        );
        // A much newer batch pushes the original build past the horizon.
        let mut grown = example_trajectories();
        grown
            .push(UserId(9), vec![TrajEntry::new(EDGE_A, 1000, 3.0)])
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 2000));
        assert_eq!(s.get_travel_times(&q).len(), 5, "all traversals visible");

        let outcome = s.compact_now().unwrap();
        assert_eq!(outcome.sealed_batches, 1);
        assert!(outcome.dropped_partitions >= 1, "the old build expired");
        assert_eq!(s.stats().cache.entries, 0, "retention invalidates");
        assert_eq!(
            s.get_travel_times(&q).len(),
            1,
            "only the recent traversal remains"
        );
        s.with_index(|i| {
            assert_eq!(
                ServiceBackend::num_trajectories(i),
                5,
                "ids are never reused"
            )
        });
        assert!(
            !s.compact_now().unwrap().changed(),
            "second pass is a no-op"
        );
    }

    /// Regression: retention's cache clear ran after the index write lock
    /// was released, so a reader could take the lock, answer from the
    /// post-retention index, and still find pre-retention entries in the
    /// cache. With the clear stalled at cache shard 0, the index must stay
    /// locked until the clear is done.
    #[test]
    fn retention_clear_lands_before_the_appender_releases_the_index() {
        let s = &hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                retention: Some(Duration::from_secs(50)),
                ..IngestConfig::default()
            },
        );
        let mut grown = example_trajectories();
        grown
            .push(UserId(9), vec![TrajEntry::new(EDGE_A, 1000, 3.0)])
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        // Entries the retention pass makes stale, outside the held shard.
        let cache = &s.inner.cache;
        let queries: Vec<Spq> = (0..8)
            .map(|k| Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 2000 + k)))
            .filter(|q| cache.shard_index(q) != 0)
            .collect();
        assert!(!queries.is_empty());
        for q in &queries {
            assert_eq!(s.get_travel_times(q).len(), 5);
        }
        let settled = s.inner.generation.load(Ordering::SeqCst) + 2;
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // Owned here, so a failed assertion drops it and frees the shard.
            let release_tx = release_tx;
            scope.spawn(move || {
                let _shard = cache.hold_shard(0);
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            held_rx.recv().unwrap();
            let compaction = scope.spawn(|| s.compact_now());
            // The pass has finished its index work; its clear is stalled.
            while s.inner.generation.load(Ordering::SeqCst) != settled {
                std::thread::yield_now();
            }
            let deadline = Instant::now() + Duration::from_millis(200);
            while Instant::now() < deadline {
                if let Ok(_index) = s.inner.index.try_read() {
                    for q in &queries {
                        assert_eq!(
                            cache.probe(cache.hash(q), q),
                            None,
                            "stale hit after the index unlocked"
                        );
                    }
                }
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let outcome = compaction.join().unwrap().unwrap();
            assert!(outcome.dropped_partitions >= 1, "the old build expired");
        });
        for q in &queries {
            assert_eq!(s.get_travel_times(q).len(), 1);
        }
    }

    /// `/health` and `/metrics` read what they report without the index
    /// lock: with a reader holding it and an append queued behind it (so
    /// the lock refuses new readers), both still answer, and once the
    /// append lands they report it.
    #[test]
    fn ingest_status_and_metrics_answer_while_an_append_waits_for_the_lock() {
        let s = &hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                ..IngestConfig::default()
            },
        );
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (answered_tx, answered_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                s.with_index(|_| {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            });
            held_rx.recv().unwrap();
            let appender = scope.spawn(|| s.append_new(None, &[ninth()]));
            while s.inner.index.try_read().is_ok() {
                std::thread::yield_now();
            }
            scope.spawn(move || answered_tx.send((s.ingest_status(), s.render_metrics())));
            let answered = answered_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            let (status, text) = answered.expect("waited on the index lock");
            assert_eq!(status.hot, HotStats::default());
            assert!(text.contains("tthr_index_trajectories 4"), "{text}");
            assert_eq!(appender.join().unwrap().unwrap(), 1);
        });
        assert_eq!(s.ingest_status().hot.batches, 1);
        assert!(s.render_metrics().contains("tthr_index_trajectories 5"));
    }

    /// A cache probe counts a hit exactly as `get_travel_times` would and
    /// leaves a miss to the lookup that follows it: every request counts
    /// once.
    #[test]
    fn cached_travel_times_counts_each_request_once() {
        let s = service(2);
        assert_eq!(s.cached_travel_times(&abe()), None);
        let counts = |s: &QueryService| {
            let stats = s.stats();
            (stats.spq_queries, stats.cache.hits, stats.cache.misses)
        };
        assert_eq!(counts(&s), (0, 0, 0), "a miss is left uncounted");
        let computed = s.get_travel_times(&abe());
        assert_eq!(s.cached_travel_times(&abe()), Some(computed));
        assert_eq!(counts(&s), (2, 1, 1));
        let hit = s.slow_queries();
        assert!(hit
            .iter()
            .any(|q| q.trace.cache_hits == 1 && q.trace.cache_misses == 0));
    }

    /// An append that pushes the hot tail past `hot_max_entries` compacts
    /// inline on the appending thread.
    #[test]
    fn hot_max_entries_triggers_inline_compaction() {
        let s = hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                hot_max_entries: 1,
                ..IngestConfig::default()
            },
        );
        let (user, entries) = ninth();
        assert_eq!(s.append_new(None, &[(user, entries)]).unwrap(), 1);
        assert_eq!(s.hot_stats().entries, 0, "size trigger sealed the tail");
        assert_eq!(s.ingest_status().compactions, 1);
        assert_eq!(s.ingest_status().sealed_batches, 1);
    }

    /// The background compactor thread drains the hot tail without any
    /// explicit call, and dies with the service.
    #[test]
    fn background_compactor_drains_the_hot_tail() {
        let s = hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                compaction_interval: Some(Duration::from_millis(10)),
                ..IngestConfig::default()
            },
        );
        let (user, entries) = ninth();
        assert_eq!(s.append_new(None, &[(user, entries)]).unwrap(), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.hot_stats().entries > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(s.hot_stats().entries, 0, "background thread sealed it");
        assert!(s.ingest_status().compactions >= 1);
    }

    /// The compaction and hot-tail series render in the exposition.
    #[test]
    fn render_metrics_covers_the_ingestion_lifecycle() {
        let s = hot_service(
            2,
            IngestConfig {
                hot_tail: true,
                ..IngestConfig::default()
            },
        );
        let (user, entries) = ninth();
        assert_eq!(s.append_new(None, &[(user, entries)]).unwrap(), 1);
        let text = s.render_metrics();
        tthr_metrics::validate_exposition(&text).expect(&text);
        assert!(text.contains("tthr_hot_tail_batches 1"), "{text}");
        assert!(text.contains("tthr_hot_tail_entries 3"), "{text}");
        assert!(text.contains("tthr_compactions_total 0"));
        s.compact_now().unwrap();
        let text = s.render_metrics();
        assert!(text.contains("tthr_hot_tail_batches 0"));
        assert!(text.contains("tthr_compactions_total 1"));
        assert!(text.contains("tthr_compaction_sealed_batches_total 1"));
        assert!(text.contains("tthr_compaction_duration_ns_count 1"));
    }

    #[test]
    fn zero_thread_config_uses_available_parallelism() {
        let s = service(0);
        assert!(s.num_threads() >= 1);
        let _ = s.trip_query(&abe());
    }

    /// Every request funnels into the registry: request counters, trace
    /// aggregates, latency histograms, and the scrape-time mirrors all
    /// appear in a well-formed Prometheus exposition.
    #[test]
    fn render_metrics_is_valid_and_reflects_traffic() {
        let s = service(2);
        let _ = s.get_travel_times(&abe()); // miss → rank work
        let _ = s.get_travel_times(&abe()); // hit
        let _ = s.trip_query(&abe());
        let text = s.render_metrics();
        tthr_metrics::validate_exposition(&text).expect(&text);
        assert!(
            text.contains("tthr_requests_total{endpoint=\"spq\"} 2"),
            "{text}"
        );
        assert!(text.contains("tthr_requests_total{endpoint=\"trip\"} 1"));
        assert!(text.contains("tthr_request_duration_ns_count{endpoint=\"spq\"} 2"));
        assert!(text.contains("tthr_cache_hits_total 1"));
        assert!(text.contains("tthr_index_trajectories 4"));
        assert!(text.contains("tthr_index_generation 0"));
        // The first SPQ ran a real backward search.
        let rank_ops = text
            .lines()
            .find_map(|l| l.strip_prefix("tthr_rank_ops_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("rank_ops series");
        assert!(
            rank_ops >= 3,
            "⟨A,B,E⟩ ranks at least 3 times, got {rank_ops}"
        );
        // Monolithic backend: no per-shard series.
        assert!(!text.contains("tthr_shard_trajectories"));
    }

    /// The sharded service additionally exposes `{shard=…}` series mirrored
    /// from the backend's per-shard counters.
    #[test]
    fn sharded_render_metrics_exposes_per_shard_series() {
        let s = sharded_service(2, 3);
        let _ = s.get_travel_times(&abe());
        let mut grown = example_trajectories();
        grown
            .push(UserId(9), vec![TrajEntry::new(EDGE_F, 50, 6.5)])
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        let text = s.render_metrics();
        tthr_metrics::validate_exposition(&text).expect(&text);
        for shard in 0..3 {
            assert!(
                text.contains(&format!("tthr_shard_trajectories{{shard=\"{shard}\"}}")),
                "{text}"
            );
        }
        // Exactly one shard took the append.
        let appended: u64 = text
            .lines()
            .filter_map(|l| l.strip_prefix("tthr_shard_appends_total{"))
            .filter_map(|l| l.split_once("} ").and_then(|(_, v)| v.parse::<u64>().ok()))
            .sum();
        assert_eq!(appended, 1);
        assert!(text.contains("tthr_index_generation 1"));
        // Queries routed through shards show up in the trace aggregates.
        assert!(!text.contains("tthr_shard_queries_total 0\n"), "{text}");
    }

    /// The slow-query log captures the worst requests with their traces,
    /// and trace timing populates `search_ns` when enabled.
    #[test]
    fn slow_query_log_captures_traces() {
        let network = example_network();
        let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
        let s = QueryService::new(
            index,
            Arc::new(network),
            ServiceConfig {
                num_threads: 2,
                trace_timing: true,
                slow_query_log: 8,
                trace_sample_every: 1,
                ..ServiceConfig::default()
            },
        );
        let _ = s.get_travel_times(&abe());
        let _ = s.trip_query(&abe());
        let slow = s.slow_queries();
        assert_eq!(slow.len(), 2);
        assert!(slow[0].latency_ns >= slow[1].latency_ns, "worst first");
        let spq = slow.iter().find(|e| e.endpoint == "spq").unwrap();
        assert_eq!(spq.path_len, 3);
        assert!(spq.trace.rank_ops >= 3);
        assert_eq!(spq.trace.cache_misses, 1);
        assert!(spq.trace.search_ns > 0, "timing enabled → clocked search");
        assert_eq!(s.sampled_queries().len(), 2, "sample_every=1 samples all");

        // With timing off (the default), traces still count but never
        // read the clock.
        let s2 = service(2);
        let _ = s2.get_travel_times(&abe());
        let slow2 = s2.slow_queries();
        let spq2 = slow2.iter().find(|e| e.endpoint == "spq").unwrap();
        assert!(spq2.trace.rank_ops >= 3);
        assert_eq!(spq2.trace.search_ns, 0);
    }

    /// WAL and snapshot activity land in the persistence series.
    #[test]
    fn persistence_metrics_cover_wal_and_snapshot() {
        let dir = std::env::temp_dir().join(format!("tthr-service-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = service(2);
        s.save_snapshot(&dir).unwrap();
        let mut grown = example_trajectories();
        grown
            .push(
                UserId(9),
                vec![
                    TrajEntry::new(EDGE_A, 3, 3.0),
                    TrajEntry::new(EDGE_B, 6, 3.0),
                ],
            )
            .unwrap();
        assert_eq!(s.append_batch(&grown).unwrap(), 1);
        let text = s.render_metrics();
        tthr_metrics::validate_exposition(&text).expect(&text);
        assert!(text.contains("tthr_snapshots_total 1"));
        assert!(text.contains("tthr_snapshot_duration_ns_count 1"));
        assert!(text.contains("tthr_wal_appends_total 1"));
        assert!(text.contains("tthr_wal_fsync_duration_ns_count 1"));
        let wal_bytes = text
            .lines()
            .find_map(|l| l.strip_prefix("tthr_wal_bytes_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap();
        assert!(wal_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
