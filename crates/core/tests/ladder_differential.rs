//! Differential proptest `ladder ≡ sequential`.
//!
//! [`TravelTimeProvider::travel_times_ladder`]'s default implementation —
//! one `getTravelTimes` per level — is the definition of a relaxation
//! ladder's answer. [`SntIndex`] overrides it with one backward search and
//! a bucketing pass; this suite pins the override to the default on every
//! index shape the override has to be right over: CSS and B+ forests,
//! day-partitioned FM-indexes, and a non-empty hot tail — for single
//! ladders (same level, same values bit for bit, same fallback flag) and
//! for whole trips (subs, histogram, every `QueryStats` field).

use proptest::proptest;
use std::cell::Cell;
use std::sync::OnceLock;
use tthr_core::{
    ladder_sequential, QueryEngine, QueryEngineConfig, SearchScratch, SntConfig, SntIndex,
    SplitMethod, Splitter, Spq, TimeInterval, TravelTimeProvider, TravelTimes, TreeKind, TripQuery,
};
use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
use tthr_network::RoadNetwork;
use tthr_trajectory::{TrajId, Trajectory, TrajectorySet};

const SIZES: [i64; 6] = [900, 1800, 2700, 3600, 5400, 7200];

/// A provider that answers single SPQs from the index but inherits the
/// trait's default ladder: the sequential oracle.
struct Sequential<'a>(&'a SntIndex);

impl TravelTimeProvider for Sequential<'_> {
    fn travel_times(&self, spq: &Spq) -> TravelTimes {
        self.0.get_travel_times(spq)
    }

    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        self.0.get_travel_times_with(spq, scratch)
    }
}

struct Fixture {
    network: RoadNetwork,
    set: TrajectorySet,
    /// `(label, index)`: every shape the override must be exact over.
    indexes: Vec<(&'static str, SntIndex)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let syn = generate_network(&NetworkConfig::small());
        let set = generate_workload(&syn, &WorkloadConfig::small());
        let network = syn.network;
        let build = |config: SntConfig| SntIndex::build(&network, &set, config);
        let css = build(SntConfig::default());
        let bplus = build(SntConfig {
            tree: TreeKind::BPlus,
            ..SntConfig::default()
        });
        let partitioned = build(SntConfig {
            partition_days: Some(3),
            ..SntConfig::default()
        });
        assert!(partitioned.num_partitions() > 1);
        // Two thirds sealed, the rest absorbed into the hot tail in two
        // batches (so hot leaves interleave with sealed ones on scans).
        let sealed = set.len() * 2 / 3;
        let mut prefix = TrajectorySet::new();
        for tr in set.iter().take(sealed) {
            prefix.push(tr.user(), tr.entries().to_vec()).unwrap();
        }
        let mut hot = SntIndex::build(&network, &prefix, SntConfig::default());
        let tail: Vec<&Trajectory> = (sealed..set.len())
            .map(|id| set.get(TrajId(id as u32)))
            .collect();
        let (first, second) = tail.split_at(tail.len() / 2);
        hot.absorb_trajectories(first);
        hot.absorb_trajectories(second);
        assert!(hot.hot_stats().entries > 0);
        let indexes = vec![
            ("css", css),
            ("bplus", bplus),
            ("partitioned", partitioned),
            ("hot-tail", hot),
        ];
        Fixture {
            network,
            set,
            indexes,
        }
    })
}

/// A query drawn from the data: a sub-path of a real trajectory, a
/// periodic window of off-list length `900 + r` centred near the
/// traversal (or pushed across midnight), optional user filter and
/// exclusion id, β from {1, 20, unreachable}.
#[allow(clippy::too_many_arguments)]
fn draw_query(
    f: &Fixture,
    traj: usize,
    cut: (usize, usize),
    r: i64,
    shift: i64,
    midnight: bool,
    beta: usize,
    flags: usize,
) -> Spq {
    let tr = f.set.get(TrajId((traj % f.set.len()) as u32));
    let len = 1 + cut.0 % tr.len().min(6);
    let start = cut.1 % (tr.len() - len + 1);
    let path = tr.path().sub_path(start..start + len);
    let centre = if midnight {
        shift % 600 - 300
    } else {
        tr.entries()[start].enter_time + shift
    };
    let mut q = Spq::new(path, TimeInterval::periodic_around(centre, 900 + r))
        .with_beta([1, 20, 1_000_000][beta % 3]);
    if flags & 1 == 1 {
        q = q.with_user(tr.user());
    }
    if flags & 2 == 2 {
        q = q.without_trajectory(tr.id());
    }
    if flags & 12 == 12 {
        q.beta = None;
    }
    q
}

fn bits(t: &TravelTimes) -> Vec<u64> {
    t.values.iter().map(|v| v.to_bits()).collect()
}

fn assert_trips_equal(label: &str, q: &Spq, want: &TripQuery, got: &TripQuery) {
    assert_eq!(want.stats, got.stats, "{label}: {q:?}");
    assert_eq!(want.histogram, got.histogram, "{label}: {q:?}");
    assert_eq!(want.subs.len(), got.subs.len(), "{label}: {q:?}");
    for (a, b) in want.subs.iter().zip(&got.subs) {
        assert_eq!(a.path, b.path, "{label}: {q:?}");
        let (av, bv): (Vec<u64>, Vec<u64>) = (
            a.values.iter().map(|v| v.to_bits()).collect(),
            b.values.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(av, bv, "{label}: {q:?}");
        assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{label}: {q:?}");
        assert_eq!(a.fallback, b.fallback, "{label}: {q:?}");
    }
}

proptest! {
    #[test]
    fn ladder_override_equals_sequential_default(
        traj in 0usize..100_000,
        cut in (0usize..64, 0usize..64),
        r in 0i64..1800,
        shift in -5400i64..5400,
        midnight in proptest::bool::ANY,
        beta in 0usize..3,
        flags in 0usize..16,
    ) {
        let f = fixture();
        let spq = draw_query(f, traj, cut, r, shift, midnight, beta, flags);
        let levels = Splitter::new(SplitMethod::Regular, SIZES.to_vec()).ladder(spq.interval);
        assert!(levels.len() >= 2, "off-list start below α_max always widens");
        for (label, index) in &f.indexes {
            let (want_level, want) =
                ladder_sequential(index, &spq, &levels, &mut SearchScratch::new());
            let mut scratch = SearchScratch::new();
            let (level, got) = index.travel_times_ladder(&spq, &levels, &mut scratch);
            assert_eq!(want_level, level, "{label}: {spq:?}");
            assert_eq!(bits(&want), bits(&got), "{label}: {spq:?}");
            assert_eq!(want.fallback, got.fallback, "{label}: {spq:?}");
            assert_eq!(scratch.trace.ladders, 1);
            // Level 0, at most one bucketing pass, at most one answer.
            assert!(scratch.trace.temporal_passes <= 3, "{label}: {:?}", scratch.trace);
            if got.is_empty() {
                assert!(scratch.trace.temporal_passes <= 2, "{label}: {:?}", scratch.trace);
            }
            // A ladder pruned from counts is the loop's all-levels-failed
            // answer, reached without a temporal scan.
            if scratch.trace.pruned == 1 {
                assert_eq!(scratch.trace.temporal_passes, 0, "{label}: {spq:?}");
                assert!(got.is_empty() && level == levels.len() - 1, "{label}: {spq:?}");
            }
        }
    }

    #[test]
    fn trips_through_the_ladder_equal_trips_through_the_loop(
        traj in 0usize..100_000,
        cut in (0usize..64, 0usize..64),
        r in 0i64..1800,
        shift in -5400i64..5400,
        midnight in proptest::bool::ANY,
        beta in 0usize..3,
        flags in 0usize..16,
        sigma_l in proptest::bool::ANY,
    ) {
        let f = fixture();
        let mut q = draw_query(f, traj, cut, r, shift, midnight, beta, flags);
        // Whole-trajectory paths so π and σ have something to split.
        q.path = f.set.get(TrajId((traj % f.set.len()) as u32)).path();
        let config = QueryEngineConfig {
            split_method: if sigma_l { SplitMethod::LongestPrefix } else { SplitMethod::Regular },
            ..QueryEngineConfig::default()
        };
        for (label, index) in &f.indexes {
            let engine = QueryEngine::new(index, &f.network, config.clone());
            let want = engine.trip_query_via(&Sequential(index), &q);
            let got = engine.trip_query(&q);
            assert_trips_equal(label, &q, &want, &got);
        }
    }
}

/// Forwards to the index, tallying multi-level ladders and how many of
/// them counts alone answered.
struct Tally<'a> {
    index: &'a SntIndex,
    ladders: Cell<usize>,
    pruned: Cell<usize>,
}

impl TravelTimeProvider for Tally<'_> {
    fn travel_times(&self, spq: &Spq) -> TravelTimes {
        self.index.get_travel_times(spq)
    }

    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        self.index.get_travel_times_with(spq, scratch)
    }

    fn travel_times_ladder(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut SearchScratch,
    ) -> (usize, TravelTimes) {
        let before = scratch.trace;
        let out = self.index.travel_times_ladder(spq, levels, scratch);
        if scratch.trace.ladders > before.ladders {
            self.ladders.set(self.ladders.get() + 1);
            if scratch.trace.pruned > before.pruned {
                assert_eq!(scratch.trace.temporal_passes, before.temporal_passes);
                assert_eq!((out.0, out.1.is_empty()), (levels.len() - 1, true));
                self.pruned.set(self.pruned.get() + 1);
            }
        }
        out
    }
}

/// The benchmark's `trip_cold` mix (temporal / user / fixed thirds, β = 20,
/// own trajectory excluded) over the small world: the census answers most
/// of the ladders such trips dispatch — nearly all of them user-filter
/// ladders no level of which can hold β — and every trip stays identical
/// to the one the sequential loop computes.
#[test]
fn the_census_prunes_most_ladders_of_a_trip_mix() {
    let f = fixture();
    let (_, index) = &f.indexes[0];
    let engine = QueryEngine::new(index, &f.network, QueryEngineConfig::default());
    let tally = Tally {
        index,
        ladders: Cell::new(0),
        pruned: Cell::new(0),
    };
    for (i, tr) in f.set.iter().enumerate().take(300) {
        let centre = tr.start_time() + (i as i64 * 977) % 3600 - 1800;
        let q = match i % 3 {
            0 => Spq::new(tr.path(), TimeInterval::periodic_around(centre, 900)),
            1 => {
                Spq::new(tr.path(), TimeInterval::periodic_around(centre, 900)).with_user(tr.user())
            }
            _ => Spq::new(tr.path(), TimeInterval::fixed(0, centre.max(1))),
        }
        .with_beta(20)
        .without_trajectory(tr.id());
        let want = engine.trip_query_via(&Sequential(index), &q);
        let got = engine.trip_query_via(&tally, &q);
        assert_trips_equal("css", &q, &want, &got);
    }
    let (ladders, pruned) = (tally.ladders.get(), tally.pruned.get());
    assert!(ladders > 1_000, "{ladders} ladders");
    // 74 % here (3 331 of 4 472); ≥ 55 % on the benchmark's medium world.
    assert!(
        pruned * 2 >= ladders,
        "{pruned} of {ladders} ladders pruned"
    );
}

/// A level list that is not a nested ladder is answered by the default
/// loop, not by the bucketing pass (whose offsets assume nesting).
#[test]
fn malformed_levels_fall_back_to_the_loop() {
    let f = fixture();
    let (_, index) = &f.indexes[0];
    let tr = f.set.get(TrajId(0));
    let t0 = tr.entries()[0].enter_time;
    let spq = Spq::new(
        tr.path().sub_path(0..1),
        TimeInterval::periodic_around(t0 + 12 * 3600, 900),
    )
    .with_beta(1);
    // Level 1 is disjoint from level 0 but contains the traversal.
    let levels = [spq.interval, TimeInterval::periodic_around(t0, 1800)];
    assert!(!TimeInterval::is_ladder(&levels));
    let want = ladder_sequential(index, &spq, &levels, &mut SearchScratch::new());
    let mut scratch = SearchScratch::new();
    let got = index.travel_times_ladder(&spq, &levels, &mut scratch);
    assert_eq!(want, got);
    assert_eq!(scratch.trace.ladders, 0);
}
