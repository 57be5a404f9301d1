//! Differential proptest `round driver ≡ depth-first definition`.
//!
//! [`QueryEngine::trip_query_sequential_via`] is Procedure 6 as the paper
//! writes it: one sub-query at a time, depth-first. The serving path
//! answers the same trip in relaxation rounds — every sub-query whose
//! window is final is dispatched together — and must return the same
//! [`TripQuery`]: sub-result paths in order, value bits, means, fallback
//! flags, the convolved histogram, and all nine [`QueryStats`] fields (an
//! adapted window that drifted shows up as different values). Pinned here
//! over CSS and B+ forests, day partitions and a non-empty hot tail, with
//! shift-and-enlarge on and off, periodic and fixed windows, user
//! filters, σ_R and σ_L, the estimator gate on and off, both β policies
//! and three partitionings — plus one hand-built trip whose right sibling
//! completes a round before its left sibling's children do.
//!
//! [`QueryStats`]: tthr_core::QueryStats
//! [`TripQuery`]: tthr_core::TripQuery

mod common;

use common::{assert_trips_equal, draw_query, fixture};
use proptest::proptest;
use std::cell::RefCell;
use tthr_core::{
    BetaPolicy, CardinalityMode, PartitionMethod, QueryEngine, QueryEngineConfig, SearchScratch,
    SntConfig, SntIndex, SplitMethod, Spq, TimeInterval, TravelTimeProvider, TravelTimes, TtValues,
};
use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_C, EDGE_D, EDGE_E};
use tthr_network::Path;
use tthr_trajectory::examples::example_trajectories;
use tthr_trajectory::TrajId;

proptest! {
    #[test]
    fn rounds_equal_the_depth_first_definition(
        traj in 0usize..100_000,
        cut in (0usize..64, 0usize..64),
        r in 0i64..1800,
        shift in -5400i64..5400,
        midnight in proptest::bool::ANY,
        beta in 0usize..3,
        flags in 0usize..16,
        fixed in 0usize..3,
        shift_and_enlarge in proptest::bool::ANY,
        sigma_l in proptest::bool::ANY,
        estimator in 0usize..3,
        zone_scaled in proptest::bool::ANY,
        pi in 0usize..3,
    ) {
        let f = fixture();
        let mut q = draw_query(f, traj, cut, r, shift, midnight, beta, flags);
        // Whole-trajectory paths so π and σ have something to split.
        let tr = f.set.get(TrajId((traj % f.set.len()) as u32));
        q.path = tr.path();
        if fixed == 0 {
            q.interval = TimeInterval::fixed(0, (tr.start_time() + shift).max(1));
        }
        let config = QueryEngineConfig {
            partition_method: [
                PartitionMethod::Zone,
                PartitionMethod::Regular(3),
                PartitionMethod::Whole,
            ][pi],
            split_method: if sigma_l { SplitMethod::LongestPrefix } else { SplitMethod::Regular },
            estimator: [None, Some(CardinalityMode::CssAcc), Some(CardinalityMode::Isa)][estimator],
            shift_and_enlarge,
            beta_policy: if zone_scaled {
                BetaPolicy::ZoneScaled { rural_factor: 0.4 }
            } else {
                BetaPolicy::Uniform
            },
            ..QueryEngineConfig::default()
        };
        for (label, index) in &f.indexes {
            let engine = QueryEngine::new(index, &f.network, config.clone());
            let want = engine.trip_query_sequential_via(index, &q);
            let got = engine.trip_query(&q);
            assert_trips_equal(label, &q, &want, &got);
            // Rounds never cost more dispatches than there are ladders.
            assert!(got.trace.ladder_batches as usize <= want.stats.index_queries);
        }
    }
}

/// Answers by path alone (every window of a ladder alike) and logs the
/// order it was asked in; `⟨E⟩` answers with its window's start second,
/// so a window adapted from a drifted sum shows up in the values.
struct Scripted {
    asked: RefCell<Vec<Path>>,
}

impl TravelTimeProvider for Scripted {
    fn travel_times_with(&self, spq: &Spq, _scratch: &mut SearchScratch) -> TravelTimes {
        let edges = spq.path.edges();
        if self.asked.borrow().last() != Some(&spq.path) {
            self.asked.borrow_mut().push(spq.path.clone());
        }
        let value = match edges {
            [EDGE_A] | [EDGE_B] => 0.15,
            [EDGE_C, EDGE_D] => 4.35,
            [EDGE_E] => match spq.interval {
                TimeInterval::Periodic { start_sod, .. } => start_sod as f64,
                TimeInterval::Fixed { .. } => panic!("⟨E⟩ never relaxes"),
            },
            _ => return TravelTimes::empty(),
        };
        TravelTimes {
            values: TtValues::one(value),
            fallback: false,
        }
    }
}

/// The fold of the shift-and-enlarge sums is left to right in *path*
/// order, whatever order the sub-queries completed in.
///
/// π₄ cuts ⟨A,B,C,D,E⟩ into ⟨A,B,C,D⟩ and ⟨E⟩. The first piece fails and
/// halves; ⟨A,B⟩ fails again and halves while its right sibling ⟨C,D⟩
/// completes in that same round — a round before ⟨A⟩ and ⟨B⟩ do. With a
/// 0.1 s bucket the three minimum edges are 0.1, 0.1 and 4.3:
/// `(0.1 + 0.1) + 4.3 = 4.5` shifts ⟨E⟩'s window by 5 s, while the
/// completion order `(4.3 + 0.1) + 0.1 = 4.499999999999999` would shift
/// it by 4.
#[test]
fn sums_fold_in_path_order_not_completion_order() {
    let network = example_network();
    let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
    let engine = QueryEngine::new(
        &index,
        &network,
        QueryEngineConfig {
            partition_method: PartitionMethod::Regular(4),
            bucket_width: 0.1,
            ..QueryEngineConfig::default()
        },
    );
    let q = Spq::new(
        Path::new(vec![EDGE_A, EDGE_B, EDGE_C, EDGE_D, EDGE_E]),
        TimeInterval::periodic(1000, 900),
    )
    .with_beta(1);
    let path = |edges: &[_]| Path::new(edges.to_vec());
    let (abcd, ab, cd) = (
        path(&[EDGE_A, EDGE_B, EDGE_C, EDGE_D]),
        path(&[EDGE_A, EDGE_B]),
        path(&[EDGE_C, EDGE_D]),
    );
    let (a, b, e) = (path(&[EDGE_A]), path(&[EDGE_B]), path(&[EDGE_E]));

    let sequential = Scripted {
        asked: RefCell::default(),
    };
    let want = engine.trip_query_sequential_via(&sequential, &q);
    assert_eq!(
        sequential.asked.into_inner(),
        [&abcd, &ab, &a, &b, &cd, &e].map(Path::clone),
        "the definition is depth-first"
    );

    let rounds = Scripted {
        asked: RefCell::default(),
    };
    let got = engine.trip_query_via(&rounds, &q);
    assert_eq!(
        rounds.asked.into_inner(),
        [&abcd, &ab, &cd, &a, &b, &e].map(Path::clone),
        "⟨C,D⟩ completes a round before ⟨A⟩ and ⟨B⟩ are asked"
    );
    assert_eq!(got.trace.ladder_batches, 4, "one dispatch per round");

    assert_trips_equal("scripted", &q, &want, &got);
    assert_eq!(
        got.subs.iter().map(|s| &s.path).collect::<Vec<_>>(),
        [&a, &b, &cd, &e]
    );
    assert_eq!(got.subs[3].values, [1005.0], "S = (0.1 + 0.1) + 4.3 = 4.5");
}
