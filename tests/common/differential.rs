//! The monolith-vs-sharded differential oracle.
//!
//! [`DiffHarness`] builds one monolithic [`QueryService`] and one
//! [`ShardedQueryService`] per shard count in [`SHARD_COUNTS`] from the
//! same datagen stream, then drives them through identical operations —
//! SPQs, trip queries, appends, snapshot/reopen cycles — asserting
//! **byte-identical** answers at every step (float bit patterns in index
//! scan order, trip stats, histograms).
//!
//! On a divergence the harness does not just panic: it first *minimizes*
//! the offending query — greedily dropping predicates and shrinking the
//! path while the divergence persists — and then reports the minimal
//! query together with its per-edge shard assignment, so a routing or
//! stitching bug is immediately localizable.
//!
//! [`QueryGen`] supplies the randomized-but-deterministic workload on top
//! of the proptest shim's [`TestRng`]/[`Strategy`] machinery.

use proptest::{Strategy, TestRng};
use std::path::PathBuf;
use std::sync::Arc;
use tthr::core::{
    ladder_sequential, IndexBackend, QueryEngine, QueryEngineConfig, SearchScratch,
    ShardedSntIndex, SntConfig, SntIndex, Splitter, Spq, TimeInterval, TravelTimeProvider,
    TravelTimes, TripQuery,
};
use tthr::datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
use tthr::network::RoadNetwork;
use tthr::service::{
    IngestConfig, QueryService, ServiceBackend, ServiceConfig, ShardedQueryService,
};
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

use super::{prefix_set, value_bits as bits};

/// The shard counts every differential run compares against the monolith.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Monolith + sharded services over one shared trajectory stream.
pub struct DiffHarness {
    network: Arc<RoadNetwork>,
    /// The full datagen stream; `applied` trajectories are indexed so far.
    full: TrajectorySet,
    applied: usize,
    config: ServiceConfig,
    monolith: QueryService,
    sharded: Vec<(usize, ShardedQueryService)>,
    /// In hot-tail mode, a direct-append monolith (ingest lifecycle off)
    /// fed the same batch schedule — the "re-indexed everything the old
    /// way" oracle the merged read path must match byte-for-byte.
    oracle: Option<QueryService>,
    /// Scratch directory for snapshot/reopen cycles (removed on drop).
    dir: PathBuf,
    snapshots: usize,
    /// Latest snapshot directories (monolith, then one per shard count),
    /// set once `snapshot` ran — `reopen` restarts from them.
    latest: Option<(PathBuf, Vec<PathBuf>)>,
    /// Largest number of distinct shards one append batch touched on the
    /// max-K service (proves the suite exercised multi-shard batches).
    pub max_shards_per_batch: usize,
}

impl DiffHarness {
    /// Builds the services over the first third of a small synthetic
    /// world; the rest of the stream feeds [`DiffHarness::append_next`].
    pub fn new(name: &str, engine: QueryEngineConfig) -> DiffHarness {
        Self::with_ingest(name, engine, IngestConfig::default())
    }

    /// As [`DiffHarness::new`] with an explicit ingest lifecycle config.
    /// With `ingest.hot_tail` on, every service absorbs appends into its
    /// hot tail and an extra direct-append **oracle** monolith (lifecycle
    /// off) is built over the same stream; every check also asserts the
    /// hot-tail monolith answers byte-identically to that oracle.
    pub fn with_ingest(name: &str, engine: QueryEngineConfig, ingest: IngestConfig) -> DiffHarness {
        let syn = generate_network(&NetworkConfig::small());
        let full = generate_workload(&syn, &WorkloadConfig::small());
        let network = Arc::new(syn.network);
        let applied = full.len() / 3;
        let initial = prefix_set(&full, applied);
        let oracle = ingest.hot_tail.then(|| {
            QueryService::new(
                SntIndex::build(&network, &initial, SntConfig::default()),
                Arc::clone(&network),
                ServiceConfig {
                    num_threads: 2,
                    cache_capacity: 4096,
                    engine: engine.clone(),
                    ..ServiceConfig::default()
                },
            )
        });
        let config = ServiceConfig {
            num_threads: 2,
            cache_capacity: 4096,
            engine,
            ingest,
            ..ServiceConfig::default()
        };
        let monolith = QueryService::new(
            SntIndex::build(&network, &initial, SntConfig::default()),
            Arc::clone(&network),
            config.clone(),
        );
        let sharded = SHARD_COUNTS
            .iter()
            .map(|&k| {
                let index = ShardedSntIndex::build(&network, &initial, SntConfig::default(), k);
                (
                    k,
                    QueryService::new(index, Arc::clone(&network), config.clone()),
                )
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("tthr-diff-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiffHarness {
            network,
            full,
            applied,
            config,
            monolith,
            sharded,
            oracle,
            dir,
            snapshots: 0,
            latest: None,
            max_shards_per_batch: 0,
        }
    }

    /// Trajectories indexed so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Whether the stream still has unappended trajectories.
    pub fn can_append(&self) -> bool {
        self.applied < self.full.len()
    }

    /// The full stream (query generation samples paths from the applied
    /// prefix).
    pub fn stream(&self) -> &TrajectorySet {
        &self.full
    }

    /// Appends up to `n` more trajectories from the stream to every
    /// service as one batch and cross-checks the append outcome.
    pub fn append_next(&mut self, n: usize) -> usize {
        self.append_next_via(n, false)
    }

    /// [`Self::append_next`] through either entry point of the one write
    /// path: the whole grown set (`append_batch`), or — `as_payload` —
    /// the stamped delta a network client ships (`append_new`).
    pub fn append_next_via(&mut self, n: usize, as_payload: bool) -> usize {
        let to = (self.applied + n.max(1)).min(self.full.len());
        if to == self.applied {
            return 0;
        }
        let grown = prefix_set(&self.full, to);
        // Track batch fan-out on the widest-partitioned service before
        // applying: how many distinct shards does this one batch touch?
        if let Some((_, svc)) = self.sharded.iter().find(|(k, _)| *k == max_k()) {
            let touched = svc.with_index(|index| {
                let mut shards: Vec<usize> = (self.applied..to)
                    .flat_map(|id| {
                        self.full
                            .get(TrajId(id as u32))
                            .entries()
                            .iter()
                            .map(|e| index.router().shard_of(e.edge))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                shards.len()
            });
            self.max_shards_per_batch = self.max_shards_per_batch.max(touched);
        }
        let appended = to - self.applied;
        let stamp = Some(self.applied as u64);
        let payload: Vec<(UserId, Vec<TrajEntry>)> = (self.applied..to)
            .map(|id| self.full.get(TrajId(id as u32)))
            .map(|t| (t.user(), t.entries().to_vec()))
            .collect();
        // Generic over the backend, so a closure will not do.
        fn append<B: ServiceBackend>(
            svc: &QueryService<B>,
            grown: &TrajectorySet,
            delta: Option<&[(UserId, Vec<TrajEntry>)]>,
            stamp: Option<u64>,
        ) -> usize {
            match delta {
                Some(payload) => svc.append_new(stamp, payload),
                None => svc.append_batch(grown),
            }
            .expect("append")
        }
        let delta = as_payload.then_some(payload.as_slice());
        assert_eq!(append(&self.monolith, &grown, delta, stamp), appended);
        for (k, svc) in &self.sharded {
            assert_eq!(
                append(svc, &grown, delta, stamp),
                appended,
                "K={k} appended a different count"
            );
        }
        if let Some(oracle) = &self.oracle {
            assert_eq!(append(oracle, &grown, delta, stamp), appended);
        }
        self.applied = to;
        appended
    }

    /// Per service (monolith, then each shard count): the named file of
    /// its latest snapshot directory and its in-memory snapshot bytes.
    pub fn store_bytes(&self, file: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
        fn state<B: ServiceBackend>(svc: &QueryService<B>) -> Vec<u8> {
            let mut bytes = Vec::new();
            svc.with_index(|i| i.write_snapshot_to(&mut bytes))
                .expect("snapshot bytes");
            bytes
        }
        let (mono_dir, shard_dirs) = self.latest.as_ref().expect("snapshot() ran");
        let read = |dir: &PathBuf| std::fs::read(dir.join(file)).expect("store file");
        let mut out = vec![(read(mono_dir), state(&self.monolith))];
        for ((_, svc), dir) in self.sharded.iter().zip(shard_dirs) {
            out.push((read(dir), state(svc)));
        }
        out
    }

    /// Compacts every lifecycle-enabled service (seals the hot tail into
    /// the immutable levels) and asserts each tail drained. The oracle is
    /// deliberately **not** compacted — it has no hot tail; subsequent
    /// checks prove sealing changed no answer. Returns the entries the
    /// monolith sealed (sharded services seal more: a trajectory is
    /// replicated into every shard it touches).
    pub fn compact_all(&mut self) -> usize {
        let sealed = self.monolith.compact_now().expect("monolith compact");
        assert_eq!(self.monolith.hot_stats().entries, 0);
        for (k, svc) in &self.sharded {
            svc.compact_now()
                .unwrap_or_else(|e| panic!("K={k} compact: {e}"));
            assert_eq!(svc.hot_stats().entries, 0, "K={k} kept a hot tail");
        }
        sealed.sealed_entries
    }

    /// The monolith's hot-tail backlog (0 outside hot-tail mode).
    pub fn hot_entries(&self) -> usize {
        self.monolith.hot_stats().entries
    }

    /// Snapshots every service into fresh directories and attaches
    /// write-ahead logging (later appends are WAL-logged there).
    pub fn snapshot(&mut self) {
        self.snapshots += 1;
        let mono_dir = self.dir.join(format!("mono-{}", self.snapshots));
        self.monolith.save_snapshot(&mono_dir).expect("snapshot");
        let mut shard_dirs = Vec::new();
        for (k, svc) in &self.sharded {
            let d = self.dir.join(format!("k{k}-{}", self.snapshots));
            svc.save_snapshot(&d).expect("sharded snapshot");
            shard_dirs.push(d);
        }
        self.latest = Some((mono_dir, shard_dirs));
    }

    /// Restarts every service from its latest snapshot directory,
    /// replaying whatever WAL records accumulated since [`Self::snapshot`]
    /// ran. No-op when no snapshot was taken yet.
    pub fn reopen(&mut self) {
        let Some((mono_dir, shard_dirs)) = self.latest.clone() else {
            return;
        };
        self.monolith =
            QueryService::open(&mono_dir, Arc::clone(&self.network), self.config.clone())
                .expect("monolith reopen");
        for ((k, svc), d) in self.sharded.iter_mut().zip(&shard_dirs) {
            *svc =
                ShardedQueryService::open_with(d, Arc::clone(&self.network), self.config.clone())
                    .unwrap_or_else(|e| panic!("sharded K={k} reopen: {e}"));
        }
        // Reopened services must still hold the full applied prefix.
        let want = self.applied;
        self.monolith
            .with_index(|i| assert_eq!(i.num_trajectories(), want));
        for (k, svc) in &self.sharded {
            svc.with_index(|i| assert_eq!(i.num_trajectories(), want, "K={k} lost trajectories"));
        }
    }

    /// Asserts every sharded service answers the SPQ byte-identically to
    /// the monolith; on divergence, minimizes and reports.
    pub fn check_spq(&self, spq: &Spq) {
        let want = self.monolith.get_travel_times(spq);
        if let Some(oracle) = &self.oracle {
            let direct = oracle.get_travel_times(spq);
            assert!(
                bits(&direct.values) == bits(&want.values) && direct.fallback == want.fallback,
                "hot-tail monolith diverged from the direct-append oracle\n\
                 query: {spq:?}\n\
                 oracle:   values {:?} (fallback {})\n\
                 hot-tail: values {:?} (fallback {})\n\
                 hot backlog: {:?}",
                direct.values,
                direct.fallback,
                want.values,
                want.fallback,
                self.monolith.hot_stats(),
            );
        }
        for (k, svc) in &self.sharded {
            let got = svc.get_travel_times(spq);
            if bits(&want.values) != bits(&got.values) || want.fallback != got.fallback {
                self.report_spq_divergence(*k, svc, spq);
            }
        }
    }

    /// Asserts every sharded service answers the trip query identically
    /// to the monolith (stats, histogram, per-sub results).
    pub fn check_trip(&self, spq: &Spq) {
        let want = self.monolith.trip_query(spq);
        if let Some(oracle) = &self.oracle {
            let direct = oracle.trip_query(spq);
            assert!(
                trips_equal(&direct, &want),
                "hot-tail monolith trip diverged from the direct-append oracle\n\
                 query: {spq:?}\n\
                 oracle stats:   {:?}\n\
                 hot-tail stats: {:?}\n\
                 hot backlog: {:?}",
                direct.stats,
                want.stats,
                self.monolith.hot_stats(),
            );
        }
        for (k, svc) in &self.sharded {
            let got = svc.trip_query(spq);
            if !trips_equal(&want, &got) {
                // Minimize at the SPQ level when possible: a diverging trip
                // almost always contains a diverging sub-query.
                let fails =
                    |q: &Spq| !trips_equal(&self.monolith.trip_query(q), &svc.trip_query(q));
                let minimal = minimize(&fails, spq.clone());
                panic!(
                    "sharded K={k} trip query diverged from the monolith\n\
                     original query: {spq:?}\n\
                     minimal failing query: {minimal:?}\n\
                     edge→shard assignment: {:?}\n\
                     monolith: {:?}\n\
                     sharded:  {:?}",
                    self.shard_assignment(svc, &minimal),
                    self.monolith.trip_query(&minimal).stats,
                    svc.trip_query(&minimal).stats,
                );
            }
        }
    }

    /// The relaxation ladder the engine would dispatch for `spq`.
    pub fn ladder_levels(&self, spq: &Spq) -> Vec<TimeInterval> {
        ladder_levels(&self.config.engine, spq)
    }

    /// `ladder ≡ sequential` on every backend: the monolith's and every
    /// sharded index's ladder override must return the same
    /// `(level, values, fallback)` as the level-by-level loop over the
    /// monolith (and, in hot-tail mode, over the direct-append oracle),
    /// and every service's trip answer must equal the trip the engine's
    /// depth-first definition computes through that loop — subs,
    /// histogram, every stats field.
    /// Returns the loop's answer so callers can assert the mix climbed.
    pub fn check_ladder(&self, spq: &Spq) -> (usize, TravelTimes) {
        let levels = self.ladder_levels(spq);
        let want = self
            .monolith
            .with_index(|i| ladder_sequential(i, spq, &levels, &mut SearchScratch::new()));
        // The definition twice over: depth-first, and level by level.
        let want_trip = self.monolith.with_index(|i| {
            QueryEngine::new(i, &self.network, self.config.engine.clone())
                .trip_query_sequential_via(&Sequential(i), spq)
        });
        if let Some(oracle) = &self.oracle {
            let direct = oracle
                .with_index(|i| ladder_sequential(i, spq, &levels, &mut SearchScratch::new()));
            assert_ladders_equal("direct-append oracle loop", spq, &want, &direct);
        }
        let got = self
            .monolith
            .with_index(|i| i.travel_times_ladder(spq, &levels, &mut SearchScratch::new()));
        assert_ladders_equal("monolith ladder", spq, &want, &got);
        let got = self.monolith.trip_query(spq);
        assert!(
            trips_equal(&want_trip, &got),
            "monolith service trip diverged from the sequential loop\n\
             query: {spq:?}\nloop: {:?}\nladder: {:?}",
            want_trip.stats,
            got.stats
        );
        for (k, svc) in &self.sharded {
            let got =
                svc.with_index(|i| i.travel_times_ladder(spq, &levels, &mut SearchScratch::new()));
            assert_ladders_equal(&format!("sharded K={k} ladder"), spq, &want, &got);
            let got = svc.trip_query(spq);
            assert!(
                trips_equal(&want_trip, &got),
                "sharded K={k} trip diverged from the sequential loop\n\
                 query: {spq:?}\nloop: {:?}\nladder: {:?}",
                want_trip.stats,
                got.stats
            );
        }
        want
    }

    /// Runs both checks on a slice of queries (`spq` for every query,
    /// `trip` for every `trip_every`-th).
    pub fn check_all(&self, queries: &[Spq], trip_every: usize) {
        for (i, q) in queries.iter().enumerate() {
            self.check_spq(q);
            if trip_every > 0 && i % trip_every == 0 {
                self.check_trip(q);
            }
        }
    }

    fn shard_assignment(&self, svc: &ShardedQueryService, spq: &Spq) -> Vec<(u32, usize)> {
        svc.with_index(|index| {
            spq.path
                .edges()
                .iter()
                .map(|&e| (e.0, index.router().shard_of(e)))
                .collect()
        })
    }

    fn report_spq_divergence(&self, k: usize, svc: &ShardedQueryService, spq: &Spq) -> ! {
        let fails = |q: &Spq| {
            let a = self.monolith.get_travel_times(q);
            let b = svc.get_travel_times(q);
            bits(&a.values) != bits(&b.values) || a.fallback != b.fallback
        };
        let minimal = minimize(&fails, spq.clone());
        let want = self.monolith.get_travel_times(&minimal);
        let got = svc.get_travel_times(&minimal);
        panic!(
            "sharded K={k} diverged from the monolith\n\
             original query: {spq:?}\n\
             minimal failing query: {minimal:?}\n\
             edge→shard assignment: {:?}\n\
             monolith: values {:?} (fallback {})\n\
             sharded:  values {:?} (fallback {})",
            self.shard_assignment(svc, &minimal),
            want.values,
            want.fallback,
            got.values,
            got.fallback,
        );
    }
}

impl Drop for DiffHarness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The relaxation ladder an engine under `config` dispatches for `spq`.
pub fn ladder_levels(config: &QueryEngineConfig, spq: &Spq) -> Vec<TimeInterval> {
    Splitter::new(config.split_method, config.interval_sizes.clone()).ladder(spq.interval)
}

/// A provider that forwards single SPQs but inherits the trait's default
/// ladder — the sequential loop every override is pinned to.
pub struct Sequential<'a, B>(pub &'a B);

impl<B: IndexBackend> TravelTimeProvider for Sequential<'_, B> {
    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        self.0.travel_times_with(spq, scratch)
    }
}

/// Asserts two ladder answers agree on level, value bits, and fallback.
pub fn assert_ladders_equal(
    what: &str,
    spq: &Spq,
    want: &(usize, TravelTimes),
    got: &(usize, TravelTimes),
) {
    assert!(
        want.0 == got.0
            && bits(&want.1.values) == bits(&got.1.values)
            && want.1.fallback == got.1.fallback,
        "{what} diverged from the sequential loop\nquery: {spq:?}\n\
         loop:   level {} values {:?} (fallback {})\n\
         ladder: level {} values {:?} (fallback {})",
        want.0,
        want.1.values,
        want.1.fallback,
        got.0,
        got.1.values,
        got.1.fallback,
    );
}

fn max_k() -> usize {
    *SHARD_COUNTS.iter().max().expect("non-empty")
}

/// Structural equality of two trip answers: identical processing
/// counters, convolved histogram, and per-sub-query results (paths,
/// value bit patterns, means, fallback flags).
pub fn trips_equal(a: &TripQuery, b: &TripQuery) -> bool {
    a.stats == b.stats
        && a.histogram == b.histogram
        && a.subs.len() == b.subs.len()
        && a.subs.iter().zip(&b.subs).all(|(x, y)| {
            x.path == y.path
                && bits(&x.values) == bits(&y.values)
                && x.mean.to_bits() == y.mean.to_bits()
                && x.fallback == y.fallback
        })
}

/// Greedy minimizer: repeatedly applies the first shrinking step that
/// still fails, until no candidate fails.
fn minimize(fails: &dyn Fn(&Spq) -> bool, mut q: Spq) -> Spq {
    loop {
        let mut reduced = None;
        for cand in shrink_candidates(&q) {
            if fails(&cand) {
                reduced = Some(cand);
                break;
            }
        }
        match reduced {
            Some(c) => q = c,
            None => return q,
        }
    }
}

/// One-step simplifications of a query, cheapest first: drop predicates,
/// simplify the interval, then shrink the path from either end.
fn shrink_candidates(q: &Spq) -> Vec<Spq> {
    let mut cands = Vec::new();
    if q.beta.is_some() {
        let mut c = q.clone();
        c.beta = None;
        cands.push(c);
    }
    if q.exclude.is_some() {
        let mut c = q.clone();
        c.exclude = None;
        cands.push(c);
    }
    if !q.filter.is_empty() {
        let mut c = q.clone();
        c.filter = tthr::core::Filter::None;
        cands.push(c);
    }
    if q.interval.is_periodic() {
        let mut c = q.clone();
        c.interval = TimeInterval::fixed(0, i64::MAX / 4);
        cands.push(c);
    }
    let l = q.path.len();
    if l > 1 {
        for range in [0..l / 2, l / 2..l, 0..l - 1, 1..l] {
            let mut c = q.clone();
            c.path = q.path.sub_path(range);
            cands.push(c);
        }
    }
    cands
}

/// Deterministic randomized query/op generation over the proptest shim.
pub struct QueryGen {
    rng: TestRng,
}

impl QueryGen {
    /// Seeds from the test name (the shim's per-test convention), plus an
    /// optional environment override `TTHR_DIFF_SEED` so CI can pin (or a
    /// soak run can vary) the stream without editing the test.
    pub fn new(name: &str) -> QueryGen {
        let seed = std::env::var("TTHR_DIFF_SEED").unwrap_or_default();
        QueryGen {
            rng: TestRng::from_name(&format!("{name}-{seed}")),
        }
    }

    /// A uniform draw from a range (proptest-shim strategy sampling).
    pub fn range(&mut self, r: std::ops::Range<usize>) -> usize {
        r.sample(&mut self.rng)
    }

    /// A random SPQ whose path is a sub-path of an already-applied
    /// trajectory (so answers are non-trivial), with randomized interval
    /// flavor, β, user filter, and exclusion.
    pub fn spq(&mut self, h: &DiffHarness) -> Spq {
        self.spq_from(h.stream(), h.applied())
    }

    /// A query built to climb the relaxation ladder: a whole trajectory
    /// path (so π and σ have work), a periodic window of off-list length
    /// `900 + r` centred near the traversal or pushed across midnight,
    /// β ∈ {1, 20, unreachable}, a user filter two times in three (the
    /// ladders counts alone may answer), optional exclusion id.
    pub fn ladder_spq_from(&mut self, set: &TrajectorySet, applied: usize) -> Spq {
        assert!(applied > 0, "cannot sample from an empty prefix");
        let tr = set.get(TrajId(self.range(0..applied) as u32));
        let centre = match self.range(0..4) {
            0 => self.range(0..600) as i64 - 300,
            _ => tr.start_time() + self.range(0..7200) as i64 - 3600,
        };
        let window = TimeInterval::periodic_around(centre, 900 + self.range(0..1800) as i64);
        let mut q = Spq::new(tr.path(), window).with_beta([1, 20, 1_000_000][self.range(0..3)]);
        if self.range(0..3) != 0 {
            q = q.with_user(tr.user());
        }
        if self.range(0..3) == 0 {
            q = q.without_trajectory(tr.id());
        }
        q
    }

    /// As [`QueryGen::spq`] over an explicit set prefix.
    pub fn spq_from(&mut self, set: &TrajectorySet, applied: usize) -> Spq {
        assert!(applied > 0, "cannot sample from an empty prefix");
        let tr = set.get(TrajId(self.range(0..applied) as u32));
        let max_len = tr.len().min(6);
        let len = 1 + self.range(0..max_len);
        let start = self.range(0..tr.len() - len + 1);
        let path = tr.path().sub_path(start..start + len);
        let enter = tr.entries()[start].enter_time;

        let interval = match self.range(0..5) {
            0 => TimeInterval::fixed(0, i64::MAX / 4),
            1 => {
                let w = 60 + self.range(0..7200) as i64;
                TimeInterval::fixed(enter - w, enter + w)
            }
            2 => TimeInterval::periodic_around(enter, [900, 1800, 3600][self.range(0..3)]),
            3 => TimeInterval::periodic(
                (self.range(0..24) * 3600) as i64,
                [900, 1800, 2700][self.range(0..3)],
            ),
            // Degenerate window far from the data: exercises relaxation
            // all the way to the fallback.
            _ => TimeInterval::periodic(3 * 3600, 900),
        };

        let mut q = Spq::new(path, interval);
        if self.range(0..10) < 6 {
            q = q.with_beta(1 + self.range(0..12) as u32);
        }
        if self.range(0..10) < 3 {
            // The path owner's user half the time, an arbitrary user else.
            let user = if self.range(0..2) == 0 {
                tr.user()
            } else {
                set.get(TrajId(self.range(0..applied) as u32)).user()
            };
            q = q.with_user(user);
        }
        if self.range(0..10) < 2 {
            // Exclude the source trajectory (the paper's own-answer
            // exclusion) or a random one.
            let ex = if self.range(0..2) == 0 {
                tr.id()
            } else {
                TrajId(self.range(0..applied) as u32)
            };
            q = q.without_trajectory(ex);
        }
        q
    }
}
