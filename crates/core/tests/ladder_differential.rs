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

mod common;

use common::{assert_trips_equal, bits, draw_query, fixture, Sequential, SIZES};
use proptest::proptest;
use std::cell::Cell;
use tthr_core::{
    ladder_sequential, QueryEngine, QueryEngineConfig, SearchScratch, SntIndex, SplitMethod,
    Splitter, Spq, TimeInterval, TravelTimeProvider, TravelTimes,
};
use tthr_trajectory::TrajId;

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
