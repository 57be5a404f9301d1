//! Service-level observability: the labeled metrics registry, per-endpoint
//! latency histograms, per-query trace aggregation, and the slow-query
//! ring.
//!
//! Everything here feeds two consumers:
//!
//! * [`ServiceStats`] — the structured snapshot the `/stats` endpoint and
//!   library callers read (unchanged wire shape across the registry
//!   refactor).
//! * [`MetricsRegistry`] — the Prometheus-rendered families behind
//!   `QueryService::render_metrics` (the `/metrics` endpoint). The latency
//!   histograms live directly in the registry ([`LatencyLog`] holds
//!   registry handles), so both consumers read the *same* series.

use crate::cache::{CacheCounters, CacheMetrics};
use std::collections::VecDeque;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tthr_core::QueryTrace;
use tthr_metrics::{Counter, Gauge, HistogramHandle, LogHistogram, MetricsRegistry};

/// The service entry points whose latency is recorded separately.
///
/// Every [`ServiceStats`] snapshot carries one [`LatencySummary`] per
/// endpoint ([`ServiceStats::endpoints`]) plus the merged overall summary
/// ([`ServiceStats::latency`]); the raw per-endpoint histograms are
/// exported by
/// [`QueryService::stats_with_histograms`](crate::QueryService::stats_with_histograms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Single SPQs ([`QueryService::get_travel_times`](crate::QueryService::get_travel_times)).
    Spq,
    /// Trip queries ([`QueryService::trip_query`](crate::QueryService::trip_query)).
    Trip,
    /// Per-trip latencies inside
    /// [`QueryService::batch_trip_queries`](crate::QueryService::batch_trip_queries).
    Batch,
    /// Update batches ([`QueryService::append_batch`](crate::QueryService::append_batch)
    /// and [`QueryService::append_new`](crate::QueryService::append_new)).
    Append,
}

impl Endpoint {
    /// Every endpoint, in [`PerEndpoint`] index order.
    pub const ALL: [Endpoint; 4] = [
        Endpoint::Spq,
        Endpoint::Trip,
        Endpoint::Batch,
        Endpoint::Append,
    ];

    /// Stable lower-case name (wire formats, logs, and the `endpoint`
    /// metric label key on it).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Spq => "spq",
            Endpoint::Trip => "trip",
            Endpoint::Batch => "batch",
            Endpoint::Append => "append",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Endpoint::Spq => 0,
            Endpoint::Trip => 1,
            Endpoint::Batch => 2,
            Endpoint::Append => 3,
        }
    }
}

/// A value per [`Endpoint`], indexable by it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerEndpoint<T>(pub [T; 4]);

impl<T> Index<Endpoint> for PerEndpoint<T> {
    type Output = T;
    fn index(&self, e: Endpoint) -> &T {
        &self.0[e.index()]
    }
}

impl<T> PerEndpoint<T> {
    /// Iterates `(endpoint, value)` pairs in [`Endpoint::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Endpoint, &T)> {
        Endpoint::ALL.iter().copied().zip(self.0.iter())
    }
}

/// Latency distribution summary over recorded queries, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded queries.
    pub count: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Arithmetic mean latency.
    pub mean_ms: f64,
    /// Worst recorded latency.
    pub max_ms: f64,
}

impl LatencySummary {
    fn of(hist: &LogHistogram) -> LatencySummary {
        let ns_to_ms = |ns: u64| ns as f64 / 1e6;
        LatencySummary {
            count: hist.count() as usize,
            p50_ms: ns_to_ms(hist.value_at_percentile(50.0)),
            p95_ms: ns_to_ms(hist.value_at_percentile(95.0)),
            p99_ms: ns_to_ms(hist.value_at_percentile(99.0)),
            mean_ms: hist.mean() / 1e6,
            max_ms: ns_to_ms(hist.max()),
        }
    }
}

/// A point-in-time snapshot of the service's behaviour.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// Single-SPQ requests served.
    pub spq_queries: u64,
    /// Trip queries served (each spans many SPQ dispatches).
    pub trip_queries: u64,
    /// Latency summary over all served requests (every endpoint merged).
    pub latency: LatencySummary,
    /// Latency summary per service endpoint.
    pub endpoints: PerEndpoint<LatencySummary>,
    /// Requests per second since service start (or the last reset).
    pub throughput_qps: f64,
    /// Result-cache counters.
    pub cache: CacheCounters,
    /// Index generation: applied append batches plus compactions that
    /// dropped at least one partition (the writes that change answers;
    /// sealing the hot tail changes none).
    pub generation: u64,
    /// Time since service start (or the last reset).
    pub uptime: Duration,
}

/// Striped per-endpoint latency recorder feeding [`ServiceStats`].
///
/// The histograms are **registry series** — one
/// `tthr_request_duration_ns{endpoint=…}` [`HistogramHandle`] per
/// [`Endpoint`] — so the Prometheus exposition and the `/stats` summaries
/// are views of the same samples. Samples aggregate into HDR-style
/// log-bucketed [`LogHistogram`]s (nanosecond resolution): memory stays
/// constant no matter how long the service lives. Count, mean, and max are
/// exact; reported percentiles are within 1/64 ≈ 1.6 % of the true sample.
///
/// Recording takes one short stripe lock inside the handle (threads spread
/// round-robin over 8 stripes); a snapshot merges the stripes one at a
/// time, so `export()` is cheap even under heavy recording
/// (regression-tested below with 8 recording threads).
pub(crate) struct LatencyLog {
    handles: [HistogramHandle; 4],
    started: Instant,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl LatencyLog {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        LatencyLog {
            handles: Endpoint::ALL.map(|e| {
                registry.histogram(
                    "tthr_request_duration_ns",
                    "Wall-clock service request latency in nanoseconds",
                    &[("endpoint", e.name())],
                )
            }),
            started: Instant::now(),
        }
    }

    pub(crate) fn record(&self, endpoint: Endpoint, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.handles[endpoint.index()].record(ns);
    }

    /// The merged histogram of one endpoint (raw-bucket export for
    /// cross-process aggregation).
    pub(crate) fn merged(&self, endpoint: Endpoint) -> LogHistogram {
        self.handles[endpoint.index()].merged()
    }

    /// The merged per-endpoint histograms, their summaries, the overall
    /// summary, throughput, and uptime — one stripe pass, so a caller
    /// that wants both the summaries and the raw buckets (the HTTP
    /// `/stats` endpoint) does not merge every stripe twice.
    #[allow(clippy::type_complexity)]
    pub(crate) fn export(
        &self,
    ) -> (
        PerEndpoint<LogHistogram>,
        PerEndpoint<LatencySummary>,
        LatencySummary,
        f64,
        Duration,
    ) {
        let uptime = self.started.elapsed();
        let merged = PerEndpoint(Endpoint::ALL.map(|e| self.merged(e)));
        let mut overall = LogHistogram::new();
        let mut per = PerEndpoint::<LatencySummary>::default();
        for e in Endpoint::ALL {
            per.0[e.index()] = LatencySummary::of(&merged[e]);
            overall.merge(&merged[e]);
        }
        let summary = LatencySummary::of(&overall);
        let qps = if uptime.as_secs_f64() > 0.0 {
            summary.count as f64 / uptime.as_secs_f64()
        } else {
            0.0
        };
        (merged, per, summary, qps, uptime)
    }
}

// ---------------------------------------------------------------------------
// Registry series owned by the service
// ---------------------------------------------------------------------------

/// Every registry series the service maintains, pre-registered so the hot
/// path is a relaxed atomic add per counter. Cache, generation, and
/// index-size series are authoritatively maintained elsewhere and
/// **mirrored** into the registry at scrape time
/// (`QueryService::render_metrics`).
pub(crate) struct ServiceMetrics {
    pub(crate) registry: MetricsRegistry,
    /// `tthr_requests_total{endpoint}` — the request counters
    /// [`ServiceStats::spq_queries`]/[`ServiceStats::trip_queries`]
    /// report from.
    pub(crate) requests: PerEndpoint<Counter>,
    // Query-trace aggregates (summed from each query's `QueryTrace`).
    pub(crate) rank_ops: Counter,
    pub(crate) wavelet_nodes: Counter,
    pub(crate) scratch_hits: Counter,
    pub(crate) scratch_misses: Counter,
    pub(crate) partitions_searched: Counter,
    pub(crate) index_queries: Counter,
    pub(crate) ladders: Counter,
    pub(crate) temporal_passes: Counter,
    pub(crate) pruned: Counter,
    /// Result-cache mirrors (authoritative atomics live in ShardedCache).
    pub(crate) cache: CacheMetrics,
    // Index-level mirrors.
    pub(crate) generation: Gauge,
    pub(crate) index_trajectories: Gauge,
    pub(crate) index_partitions: Gauge,
    // Persistence.
    pub(crate) wal_appends: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) wal_fsyncs: Counter,
    pub(crate) wal_fsync_ns: HistogramHandle,
    pub(crate) snapshots: Counter,
    pub(crate) snapshot_bytes: Gauge,
    pub(crate) snapshot_duration_ns: HistogramHandle,
    // Ingestion lifecycle: compaction counters plus scrape-time hot-tail
    // mirrors (the authoritative numbers live in the backend).
    pub(crate) compactions: Counter,
    pub(crate) compaction_errors: Counter,
    pub(crate) compaction_sealed_batches: Counter,
    pub(crate) compaction_sealed_entries: Counter,
    pub(crate) compaction_dropped_partitions: Counter,
    pub(crate) compaction_dropped_entries: Counter,
    pub(crate) compaction_duration_ns: HistogramHandle,
    pub(crate) hot_tail_batches: Gauge,
    pub(crate) hot_tail_entries: Gauge,
    pub(crate) hot_tail_bytes: Gauge,
}

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        let requests = PerEndpoint(Endpoint::ALL.map(|e| {
            registry.counter(
                "tthr_requests_total",
                "Service requests served",
                &[("endpoint", e.name())],
            )
        }));
        let counter = |name, help| registry.counter(name, help, &[]);
        let gauge = |name, help| registry.gauge(name, help, &[]);
        ServiceMetrics {
            requests,
            rank_ops: counter(
                "tthr_rank_ops_total",
                "Backward-search rank2 operations executed (live steps only)",
            ),
            wavelet_nodes: counter(
                "tthr_wavelet_nodes_total",
                "Wavelet nodes descended through by backward-search ranks",
            ),
            scratch_hits: counter(
                "tthr_scratch_hits_total",
                "Sub-path searches served from a checkpointed scratch cursor",
            ),
            scratch_misses: counter(
                "tthr_scratch_misses_total",
                "Fresh backward searches executed (scratch suffix-cache misses)",
            ),
            partitions_searched: counter(
                "tthr_partitions_searched_total",
                "FM-index partitions backward-searched, each on a read's first need of its range",
            ),
            index_queries: counter(
                "tthr_index_queries_total",
                "Index-level getTravelTimes/countMatching dispatches",
            ),
            ladders: counter(
                "tthr_ladders_total",
                "Multi-level relaxation ladders answered as one index operation",
            ),
            pruned: counter(
                "tthr_spq_pruned_total",
                "SPQs and ladders answered empty from counts alone, with no temporal scan",
            ),
            temporal_passes: counter(
                "tthr_temporal_passes_total",
                "Temporal scans over a query path's first segment",
            ),
            cache: CacheMetrics::register(&registry),
            generation: gauge(
                "tthr_index_generation",
                "Append batches applied plus compactions that dropped a partition",
            ),
            index_trajectories: gauge("tthr_index_trajectories", "Trajectories currently indexed"),
            index_partitions: gauge(
                "tthr_index_partitions",
                "Temporal partitions currently held",
            ),
            wal_appends: counter("tthr_wal_appends_total", "Write-ahead-log records appended"),
            wal_bytes: counter(
                "tthr_wal_bytes_total",
                "Write-ahead-log payload bytes appended",
            ),
            wal_fsyncs: counter(
                "tthr_wal_fsyncs_total",
                "Write-ahead-log fsyncs issued (one per appended record)",
            ),
            wal_fsync_ns: registry.histogram(
                "tthr_wal_fsync_duration_ns",
                "Write-ahead-log append+fsync latency in nanoseconds",
                &[],
            ),
            snapshots: counter("tthr_snapshots_total", "Snapshots written"),
            snapshot_bytes: gauge("tthr_snapshot_bytes", "Size of the last snapshot in bytes"),
            snapshot_duration_ns: registry.histogram(
                "tthr_snapshot_duration_ns",
                "Snapshot rotation (write, fsync, rename, WAL reset) duration in nanoseconds",
                &[],
            ),
            compactions: counter(
                "tthr_compactions_total",
                "Compaction passes completed (including no-ops)",
            ),
            compaction_errors: counter(
                "tthr_compaction_errors_total",
                "Background compaction passes that failed rotating the snapshot",
            ),
            compaction_sealed_batches: counter(
                "tthr_compaction_sealed_batches_total",
                "Hot-tail batches sealed into immutable partitions",
            ),
            compaction_sealed_entries: counter(
                "tthr_compaction_sealed_entries_total",
                "Trajectory entries sealed out of the hot tail",
            ),
            compaction_dropped_partitions: counter(
                "tthr_compaction_dropped_partitions_total",
                "Immutable partitions dropped by the retention horizon",
            ),
            compaction_dropped_entries: counter(
                "tthr_compaction_dropped_entries_total",
                "Trajectory entries dropped by the retention horizon",
            ),
            compaction_duration_ns: registry.histogram(
                "tthr_compaction_duration_ns",
                "Compaction pass duration in nanoseconds (seal + retention, \
                 excluding the snapshot rotation)",
                &[],
            ),
            hot_tail_batches: gauge(
                "tthr_hot_tail_batches",
                "Hot-tail batches pending compaction",
            ),
            hot_tail_entries: gauge(
                "tthr_hot_tail_entries",
                "Trajectory entries pending in the hot tail",
            ),
            hot_tail_bytes: gauge(
                "tthr_hot_tail_bytes",
                "Approximate heap bytes held by the hot tail",
            ),
            registry,
        }
    }

    /// Folds one query's trace into the aggregate counters.
    pub(crate) fn note_trace(&self, t: &QueryTrace) {
        self.rank_ops.add(t.rank_ops);
        self.wavelet_nodes.add(t.wavelet_nodes);
        self.scratch_hits.add(t.scratch_hits);
        self.scratch_misses.add(t.scratch_misses);
        self.partitions_searched.add(t.partitions_searched);
        self.index_queries.add(t.index_queries);
        self.ladders.add(t.ladders);
        self.temporal_passes.add(t.temporal_passes);
        self.pruned.add(t.pruned);
    }
}

// ---------------------------------------------------------------------------
// Slow-query ring
// ---------------------------------------------------------------------------

/// One traced query in the slow-query log
/// ([`QueryService::slow_queries`](crate::QueryService::slow_queries)).
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// [`Endpoint::name`] of the entry point that served it.
    pub endpoint: &'static str,
    /// Edges in the query path (0 for appends).
    pub path_len: usize,
    /// End-to-end wall latency in nanoseconds.
    pub latency_ns: u64,
    /// Service-wide request sequence number (position in arrival order).
    pub seq: u64,
    /// The query's cost trace.
    pub trace: QueryTrace,
}

/// Fixed-size slow-query collector: a top-N-by-latency ring plus an
/// every-Nth sampled ring, both bounded.
///
/// The hot path is one relaxed `fetch_add` (the sequence number) plus a
/// relaxed floor check; the mutex is only taken when an entry actually
/// qualifies — under steady load almost never.
pub(crate) struct SlowLog {
    cap: usize,
    sample_every: u64,
    seq: AtomicU64,
    /// Smallest latency currently in a *full* top ring (0 while filling):
    /// the lock-free admission filter.
    floor: AtomicU64,
    /// Worst-first, at most `cap` entries.
    top: Mutex<Vec<SlowQuery>>,
    /// Most recent `cap` sampled entries, oldest first.
    sampled: Mutex<VecDeque<SlowQuery>>,
}

impl SlowLog {
    pub(crate) fn new(cap: usize, sample_every: u64) -> Self {
        SlowLog {
            cap,
            sample_every,
            seq: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            top: Mutex::new(Vec::new()),
            sampled: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn observe(
        &self,
        endpoint: &'static str,
        path_len: usize,
        latency_ns: u64,
        trace: &QueryTrace,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.cap == 0 {
            return;
        }
        let entry = || SlowQuery {
            endpoint,
            path_len,
            latency_ns,
            seq,
            trace: *trace,
        };
        if latency_ns > self.floor.load(Ordering::Relaxed) {
            let mut top = lock(&self.top);
            let at = top.partition_point(|e: &SlowQuery| e.latency_ns > latency_ns);
            if at < self.cap {
                top.insert(at, entry());
                top.truncate(self.cap);
                if top.len() == self.cap {
                    self.floor
                        .store(top.last().map_or(0, |e| e.latency_ns), Ordering::Relaxed);
                }
            }
        }
        if self.sample_every > 0 && seq.is_multiple_of(self.sample_every) {
            let mut sampled = lock(&self.sampled);
            if sampled.len() == self.cap {
                sampled.pop_front();
            }
            sampled.push_back(entry());
        }
    }

    /// The worst queries seen, worst first.
    pub(crate) fn top(&self) -> Vec<SlowQuery> {
        lock(&self.top).clone()
    }

    /// The most recent sampled queries, oldest first.
    pub(crate) fn sampled(&self) -> Vec<SlowQuery> {
        lock(&self.sampled).iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> (MetricsRegistry, LatencyLog) {
        let registry = MetricsRegistry::new();
        let log = LatencyLog::new(&registry);
        (registry, log)
    }

    /// The log-bucketed histogram reports percentiles within 1/64 relative
    /// error; count/mean/max stay exact.
    #[test]
    fn summary_percentiles() {
        let (_registry, log) = log();
        for i in 1..=100 {
            log.record(Endpoint::Spq, Duration::from_millis(i));
        }
        let (_, per, summary, qps, uptime) = log.export();
        let close = |got: f64, want: f64| (got - want).abs() <= want / 64.0;
        assert_eq!(summary.count, 100);
        assert!(close(summary.p50_ms, 50.0), "p50 = {}", summary.p50_ms);
        assert!(close(summary.p95_ms, 95.0), "p95 = {}", summary.p95_ms);
        assert!(close(summary.p99_ms, 99.0), "p99 = {}", summary.p99_ms);
        assert_eq!(summary.max_ms, 100.0, "max is exact");
        assert!((summary.mean_ms - 50.5).abs() < 1e-9, "mean is exact");
        assert!(qps > 0.0);
        assert!(uptime > Duration::ZERO);
        // Everything was recorded under one endpoint.
        assert_eq!(per[Endpoint::Spq], summary);
        assert_eq!(per[Endpoint::Trip].count, 0);
    }

    /// Endpoints aggregate separately and merge into the overall summary.
    #[test]
    fn endpoints_are_separate() {
        let (_registry, log) = log();
        log.record(Endpoint::Spq, Duration::from_millis(1));
        log.record(Endpoint::Trip, Duration::from_millis(10));
        log.record(Endpoint::Trip, Duration::from_millis(20));
        log.record(Endpoint::Append, Duration::from_millis(100));
        let (_, per, overall, _, _) = log.export();
        assert_eq!(per[Endpoint::Spq].count, 1);
        assert_eq!(per[Endpoint::Trip].count, 2);
        assert_eq!(per[Endpoint::Batch].count, 0);
        assert_eq!(per[Endpoint::Append].count, 1);
        assert_eq!(overall.count, 4);
        assert_eq!(overall.max_ms, 100.0);
        assert_eq!(per[Endpoint::Trip].max_ms, 20.0);
        // The merged raw histogram agrees with the summary counts.
        assert_eq!(log.merged(Endpoint::Trip).count(), 2);
    }

    /// The latency samples are registry series: the Prometheus rendering
    /// of the shared registry carries the same counts the summaries do.
    #[test]
    fn latency_log_is_visible_in_the_registry() {
        let (registry, log) = log();
        log.record(Endpoint::Spq, Duration::from_millis(2));
        log.record(Endpoint::Batch, Duration::from_millis(3));
        let text = registry.render();
        tthr_metrics::validate_exposition(&text).expect(&text);
        assert!(text.contains("tthr_request_duration_ns_count{endpoint=\"spq\"} 1"));
        assert!(text.contains("tthr_request_duration_ns_count{endpoint=\"batch\"} 1"));
        assert!(text.contains("tthr_request_duration_ns_count{endpoint=\"trip\"} 0"));
    }

    /// The recorder's footprint does not grow with the sample count — the
    /// property the histogram exists for.
    #[test]
    fn bounded_memory_for_many_samples() {
        let (_registry, log) = log();
        for i in 0..200_000u64 {
            log.record(Endpoint::Batch, Duration::from_nanos(i * 37 + 1));
        }
        let (_, _, summary, _, _) = log.export();
        assert_eq!(summary.count, 200_000);
        assert!(log.merged(Endpoint::Batch).size_bytes() < 64 * 1024);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let (_registry, log) = log();
        let (_, per, summary, qps, _) = log.export();
        assert_eq!(summary, LatencySummary::default());
        for e in Endpoint::ALL {
            assert_eq!(per[e], LatencySummary::default());
        }
        assert_eq!(qps, 0.0);
    }

    /// Regression for the per-endpoint refactor: 8 threads recording
    /// concurrently (spread across stripes) while the main thread
    /// snapshots and exports continuously — snapshots must never deadlock,
    /// always see internally consistent merges, and the final counts must
    /// be exact.
    #[test]
    fn concurrent_recording_with_cheap_snapshots() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        let registry = MetricsRegistry::new();
        let log = std::sync::Arc::new(LatencyLog::new(&registry));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS + 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let endpoint = Endpoint::ALL[t % Endpoint::ALL.len()];
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        log.record(endpoint, Duration::from_nanos((t * i) as u64 + 1));
                    }
                })
            })
            .collect();
        barrier.wait();
        // Snapshot continuously while the recorders run: counts observed
        // must be monotone-bounded and the call must stay fast (no
        // deadlock with stripe locks).
        let mut last = 0;
        for _ in 0..50 {
            let (_, per, overall, _, _) = log.export();
            assert!(overall.count >= last, "snapshot went backwards");
            assert!(overall.count <= THREADS * PER_THREAD);
            let sum: usize = Endpoint::ALL.iter().map(|&e| per[e].count).sum();
            assert_eq!(sum, overall.count, "endpoint counts must sum to total");
            last = overall.count;
        }
        for h in handles {
            h.join().unwrap();
        }
        let (_, per, overall, _, _) = log.export();
        assert_eq!(overall.count, THREADS * PER_THREAD, "every record counted");
        for e in Endpoint::ALL {
            assert_eq!(per[e].count, 2 * PER_THREAD, "two threads per endpoint");
        }
        // Merge export agrees.
        assert_eq!(log.merged(Endpoint::Spq).count() as usize, 2 * PER_THREAD);
    }

    #[test]
    fn slow_log_keeps_top_n_worst_first_and_samples_every_nth() {
        let slow = SlowLog::new(3, 4);
        let trace = QueryTrace::default();
        for (i, ns) in [50u64, 10, 80, 20, 70, 90, 5, 60].iter().enumerate() {
            slow.observe("spq", i + 1, *ns, &trace);
        }
        let top: Vec<u64> = slow.top().iter().map(|e| e.latency_ns).collect();
        assert_eq!(top, vec![90, 80, 70], "worst three, worst first");
        assert_eq!(slow.top()[0].endpoint, "spq");
        assert_eq!(slow.top()[0].path_len, 6, "entry keeps its query's data");
        // seq 0 and 4 were sampled (every 4th).
        let sampled: Vec<u64> = slow.sampled().iter().map(|e| e.seq).collect();
        assert_eq!(sampled, vec![0, 4]);
    }

    #[test]
    fn slow_log_zero_capacity_records_nothing() {
        let slow = SlowLog::new(0, 1);
        slow.observe("trip", 3, 1_000_000, &QueryTrace::default());
        assert!(slow.top().is_empty());
        assert!(slow.sampled().is_empty());
    }

    #[test]
    fn slow_log_ties_at_the_floor_do_not_grow_the_ring() {
        let slow = SlowLog::new(2, 0);
        let trace = QueryTrace::default();
        slow.observe("spq", 1, 100, &trace);
        slow.observe("spq", 1, 100, &trace);
        slow.observe("spq", 1, 100, &trace); // equals the floor: rejected
        assert_eq!(slow.top().len(), 2);
        slow.observe("spq", 1, 101, &trace); // beats the floor: admitted
        let top: Vec<u64> = slow.top().iter().map(|e| e.latency_ns).collect();
        assert_eq!(top, vec![101, 100]);
    }

    #[test]
    fn service_metrics_render_validates_and_mirrors() {
        let m = ServiceMetrics::new();
        m.requests[Endpoint::Spq].inc();
        let trace = QueryTrace {
            rank_ops: 5,
            wavelet_nodes: 12,
            index_queries: 1,
            ..QueryTrace::default()
        };
        m.note_trace(&trace);
        m.cache.mirror(&CacheCounters {
            hits: 3,
            misses: 4,
            evictions: 0,
            rejected: 5,
            invalidations: 1,
            entries: 2,
            capacity: 100,
        });
        let text = m.registry.render();
        tthr_metrics::validate_exposition(&text).expect(&text);
        assert!(text.contains("tthr_requests_total{endpoint=\"spq\"} 1"));
        assert!(text.contains("tthr_rank_ops_total 5"));
        assert!(text.contains("tthr_wavelet_nodes_total 12"));
        assert!(text.contains("tthr_cache_hits_total 3"));
        assert!(text.contains("tthr_cache_capacity 100"));
        assert!(text.contains("tthr_cache_admission_rejected_total 5"));
    }
}
