//! The one differential oracle every serving tier is held to.
//!
//! A [`Run`] pairs one [`Tier`] with an [`Oracle`] — a direct-append
//! [`SntIndex`] answered by the single-threaded [`QueryEngine`] — over
//! the same datagen stream, and drives both through one leg: SPQs, trip
//! queries, batches, appends, compactions, snapshots and restarts. Every
//! answer is compared as the bytes `tthr::server::wire` writes (float
//! bit patterns in index scan order, trip stats, histograms).
//!
//! A divergence is reported with the leg, the tier, the query and both
//! answers.
//!
//! [`QueryGen`] supplies the randomized-but-deterministic workload on top
//! of the proptest shim's [`TestRng`]/[`Strategy`] machinery.

use proptest::{Strategy, TestRng};
use std::sync::Arc;
use tthr::core::{
    ladder_sequential, CardinalityMode, IndexBackend, QueryEngine, QueryEngineConfig,
    SearchScratch, SntConfig, SntIndex, Splitter, Spq, TimeInterval, TravelTimeProvider,
    TravelTimes, TripQuery,
};
use tthr::network::RoadNetwork;
use tthr::server::wire;
use tthr::service::{QueryService, ServiceConfig};
use tthr::trajectory::{TrajId, TrajectorySet};

use super::tier::{Build, Tier, TierSpec};
use super::{prefix_set, small_world};

/// The reference every tier must match byte for byte: a direct-append
/// index (ingest lifecycle off) answered by the single-threaded engine.
pub struct Oracle {
    pub network: Arc<RoadNetwork>,
    pub index: SntIndex,
    pub engine: QueryEngineConfig,
}

impl Oracle {
    /// Builds the oracle over the first `applied` trajectories of `full`.
    pub fn new(
        network: Arc<RoadNetwork>,
        full: &TrajectorySet,
        applied: usize,
        engine: QueryEngineConfig,
    ) -> Oracle {
        let index = SntIndex::build(&network, &prefix_set(full, applied), SntConfig::default());
        Oracle {
            network,
            index,
            engine,
        }
    }

    fn query_engine(&self) -> QueryEngine<'_, SntIndex> {
        QueryEngine::new(&self.index, &self.network, self.engine.clone())
    }

    /// Grows the oracle to the first `to` trajectories of `full`.
    pub fn append(&mut self, full: &TrajectorySet, to: usize) -> usize {
        self.index.append_batch(&prefix_set(full, to))
    }

    pub fn spq(&self, q: &Spq) -> Vec<u8> {
        wire::encode_travel_times(&self.index.get_travel_times(q)).into_bytes()
    }

    pub fn trip(&self, q: &Spq) -> Vec<u8> {
        wire::encode_trip(&self.query_engine().trip_query(q)).into_bytes()
    }

    /// The trip the engine's depth-first definition computes through the
    /// level-by-level loop (the trait's default ladder).
    pub fn sequential_trip(&self, q: &Spq) -> Vec<u8> {
        let trip = self
            .query_engine()
            .trip_query_sequential_via(&Sequential(&self.index), q);
        wire::encode_trip(&trip).into_bytes()
    }

    pub fn batch(&self, qs: &[Spq]) -> Vec<u8> {
        let engine = self.query_engine();
        let trips: Vec<TripQuery> = qs.iter().map(|q| engine.trip_query(q)).collect();
        wire::encode_trips(&trips).into_bytes()
    }

    /// The relaxation ladder answered level by level: the definition.
    pub fn ladder(&self, q: &Spq, levels: &[TimeInterval]) -> (usize, TravelTimes) {
        ladder_sequential(&self.index, q, levels, &mut SearchScratch::new())
    }

    /// The capped count and every estimator mode's bits.
    pub fn primitives(&self, q: &Spq, cap: u32) -> (usize, Vec<u64>) {
        let estimates = CardinalityMode::ALL
            .iter()
            .map(|&mode| IndexBackend::estimate(&self.index, q, mode).to_bits())
            .collect();
        (self.index.count_matching(q, cap), estimates)
    }
}

/// A ladder answer as comparable bytes.
pub fn ladder_bytes((level, times): &(usize, TravelTimes)) -> Vec<u8> {
    format!("{level}:{}", wire::encode_travel_times(times)).into_bytes()
}

/// One leg on one tier: the stream, the oracle, the tier, the query
/// generator. Every check names the leg and the tier when it fails.
pub struct Run<T: Tier + ?Sized = dyn Tier> {
    pub leg: &'static str,
    pub tier_name: &'static str,
    /// The full datagen stream; `applied` trajectories are indexed.
    pub full: TrajectorySet,
    pub applied: usize,
    pub oracle: Oracle,
    pub tier: Box<T>,
    pub gen: QueryGen,
}

/// The small world every run starts from: its network, the full
/// stream, and the prefix the tiers boot over (the first third; the rest
/// feeds appends).
pub fn world() -> (Arc<RoadNetwork>, TrajectorySet, usize) {
    let (syn, full) = small_world();
    let applied = full.len() / 3;
    (Arc::new(syn.network), full, applied)
}

impl Run {
    /// Boots `spec` and the oracle over [`world`] under the default
    /// engine.
    pub fn new(leg: &'static str, spec: TierSpec) -> Run {
        Self::with_engine(leg, spec, QueryEngineConfig::default())
    }

    /// [`Run::new`] with an explicit engine configuration.
    pub fn with_engine(leg: &'static str, spec: TierSpec, engine: QueryEngineConfig) -> Run {
        let (network, full, applied) = world();
        let dir_name = format!("{leg}-{}", spec.name);
        let tier = spec.boot(&dir_name, &network, &full, applied, &engine);
        Run::from_parts(leg, spec.name, network, full, applied, engine, tier)
    }
}

impl<T: Tier> Run<T> {
    /// A run over a concretely typed tier that `wrap` makes from a
    /// service of backend `B` over [`world`] — for tests that read the
    /// service or the server behind the tier.
    pub fn over_service<B: Build>(
        leg: &'static str,
        tier_name: &'static str,
        shards: usize,
        config: ServiceConfig,
        wrap: impl FnOnce(QueryService<B>, ServiceConfig) -> T,
    ) -> Run<T> {
        let (network, full, applied) = world();
        let index = B::build_tier(&network, &prefix_set(&full, applied), shards);
        let svc = QueryService::new(index, Arc::clone(&network), config.clone());
        let engine = config.engine.clone();
        let tier = Box::new(wrap(svc, config));
        Run::from_parts(leg, tier_name, network, full, applied, engine, tier)
    }
}

impl<T: Tier + ?Sized> Run<T> {
    /// A run over an already booted tier holding `full[..applied]`.
    pub fn from_parts(
        leg: &'static str,
        tier_name: &'static str,
        network: Arc<RoadNetwork>,
        full: TrajectorySet,
        applied: usize,
        engine: QueryEngineConfig,
        tier: Box<T>,
    ) -> Run<T> {
        Run {
            leg,
            tier_name,
            oracle: Oracle::new(network, &full, applied, engine),
            full,
            applied,
            tier,
            gen: QueryGen::new(leg),
        }
    }

    /// A random SPQ over the applied prefix ([`QueryGen::spq_from`]).
    pub fn spq(&mut self) -> Spq {
        self.gen.spq_from(&self.full, self.applied)
    }

    /// A random ladder-climbing query ([`QueryGen::ladder_spq_from`]).
    pub fn ladder_spq(&mut self) -> Spq {
        self.gen.ladder_spq_from(&self.full, self.applied)
    }

    pub fn can_append(&self) -> bool {
        self.applied < self.full.len()
    }

    /// Appends up to `n` more stream trajectories to the tier (as one
    /// stamped batch) and to the oracle; returns the number appended.
    pub fn append_next(&mut self, n: usize) -> usize {
        let to = (self.applied + n.max(1)).min(self.full.len());
        if to == self.applied {
            return 0;
        }
        let want = to - self.applied;
        let got = self.tier.append(&self.full, self.applied, to);
        assert_eq!(
            got, want,
            "{} on {}: appended a different count",
            self.leg, self.tier_name
        );
        assert_eq!(self.oracle.append(&self.full, to), want);
        self.applied = to;
        want
    }

    /// Asserts the tier's `/spq` answer is the oracle's.
    pub fn check_spq(&self, q: &Spq) {
        self.assert_same("/spq", q, self.oracle.spq(q), self.tier.spq(q));
    }

    /// Asserts the tier's `/trip` answer is the oracle's.
    pub fn check_trip(&self, q: &Spq) {
        self.assert_same("/trip", q, self.oracle.trip(q), self.tier.trip(q));
    }

    fn assert_same(&self, endpoint: &str, q: &Spq, want: Vec<u8>, got: Vec<u8>) {
        assert!(
            want == got,
            "{} on {}: {endpoint} diverged from the oracle\nquery: {q:?}\n\
             oracle: {}\ntier:   {}",
            self.leg,
            self.tier_name,
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
        );
    }

    /// Asserts the tier's `/batch` answer is the oracle's.
    pub fn check_batch(&self, qs: &[Spq]) {
        let (want, got) = (self.oracle.batch(qs), self.tier.batch(qs));
        assert!(
            want == got,
            "{} on {}: /batch diverged from the oracle\nqueries: {qs:?}\n\
             oracle: {}\ntier:   {}",
            self.leg,
            self.tier_name,
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
        );
    }

    /// Checks `spqs` fresh random SPQs, then `trips` fresh random trips;
    /// returns the number of checks.
    pub fn check_fresh(&mut self, spqs: usize, trips: usize) -> usize {
        for _ in 0..spqs {
            let q = self.spq();
            self.check_spq(&q);
        }
        for _ in 0..trips {
            let q = self.spq();
            self.check_trip(&q);
        }
        spqs + trips
    }

    /// Checks `/spq` for every query and `/trip` for every
    /// `trip_every`-th.
    pub fn check_all(&self, queries: &[Spq], trip_every: usize) {
        for (i, q) in queries.iter().enumerate() {
            self.check_spq(q);
            if trip_every > 0 && i % trip_every == 0 {
                self.check_trip(q);
            }
        }
    }

    /// `ladder ≡ sequential`: the tier's one-call ladder returns the
    /// level-by-level loop's `(level, values, fallback)` over the oracle,
    /// and its trip equals the trip the engine's depth-first definition
    /// computes through that loop. Returns the loop's answer so legs can
    /// assert the mix climbed.
    pub fn check_ladder(&self, q: &Spq) -> (usize, TravelTimes) {
        let levels = ladder_levels(&self.oracle.engine, q);
        let want = self.oracle.ladder(q, &levels);
        let got = self.tier.ladder(q, &levels).unwrap_or_else(|| {
            panic!("{} on {}: the tier has no ladder", self.leg, self.tier_name)
        });
        assert!(
            ladder_bytes(&want) == got,
            "{} on {}: ladder diverged from the sequential loop\nquery: {q:?}\n\
             loop:   {}\nladder: {}",
            self.leg,
            self.tier_name,
            String::from_utf8_lossy(&ladder_bytes(&want)),
            String::from_utf8_lossy(&got),
        );
        let (want_trip, got_trip) = (self.oracle.sequential_trip(q), self.tier.trip(q));
        assert!(
            want_trip == got_trip,
            "{} on {}: trip diverged from the sequential definition\nquery: {q:?}\n\
             loop:   {}\nladder: {}",
            self.leg,
            self.tier_name,
            String::from_utf8_lossy(&want_trip),
            String::from_utf8_lossy(&got_trip),
        );
        want
    }

    /// Capped counts and every estimator mode agree with the oracle's, on
    /// tiers that answer the primitives (a no-op elsewhere).
    pub fn check_primitives(&mut self, checks: usize) {
        for _ in 0..checks {
            let q = self.spq();
            let cap = 1 + self.gen.range(0..32) as u32;
            let Some(got) = self.tier.primitives(&q, cap) else {
                return;
            };
            assert_eq!(
                self.oracle.primitives(&q, cap),
                got,
                "{} on {}: count or estimate diverged (cap {cap}): {q:?}",
                self.leg,
                self.tier_name
            );
        }
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

    /// A random SPQ whose path is a sub-path of one of the first
    /// `applied` trajectories of `set` (so answers are non-trivial), with
    /// randomized interval flavor, β, user filter, and exclusion.
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
