//! Counted work budgets: what a fixed request stream makes the index do,
//! read off `QueryTrace` instead of a clock, so a change in the work shows
//! up deterministically and at any size.
//!
//! The stream is shaped like the benchmark's `spq_stream`: Zipf(1.0)
//! draws over the engine's initial sub-queries of the second half's
//! trajectories, periodic α = 900 s, β = 20, the source trajectory
//! excluded. It is asked of indexes shaped like `ingest_mixed`'s: the
//! first half of the world as the base build, then the second half
//! absorbed in batches, each sealed by a compaction, and the last two
//! left in the hot tail.

use proptest::{Strategy, TestRng};
use tthr::core::{
    QueryEngine, QueryEngineConfig, QueryTrace, SearchScratch, SntConfig, SntIndex, Spq,
    TimeInterval,
};
use tthr::datagen::{
    generate_network, generate_workload, sample_query_trajectories, NetworkConfig, WorkloadConfig,
};
use tthr::network::RoadNetwork;
use tthr::trajectory::{TrajId, Trajectory, TrajectorySet};

/// Trajectories per appended batch.
const BATCH: usize = 24;
/// Batches left absorbed in the hot tail.
const HOT_BATCHES: usize = 2;
/// SPQs drawn from the stream.
const DRAWS: usize = 2_000;

/// The benchmark's `spq_stream` over `set`: the distinct initial
/// sub-queries of its second half's trajectories, then [`DRAWS`]
/// Zipf(1.0) draws over them.
fn spq_stream(network: &RoadNetwork, index: &SntIndex, set: &TrajectorySet) -> Vec<Spq> {
    let engine = QueryEngine::new(index, network, QueryEngineConfig::default());
    let mut distinct: Vec<Spq> = Vec::new();
    for id in sample_query_trajectories(set, 1.0, 6, 1) {
        let tr = set.get(id);
        let whole = Spq::new(
            tr.path(),
            TimeInterval::periodic_around(tr.start_time(), 900),
        )
        .with_beta(20)
        .without_trajectory(id);
        for sub in engine.initial_subqueries(&whole) {
            if !distinct.contains(&sub) {
                distinct.push(sub);
            }
        }
    }
    assert!(distinct.len() >= 100, "{} distinct SPQs", distinct.len());
    let cdf: Vec<f64> = (0..distinct.len())
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r + 1) as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    let mut rng = TestRng::from_name("budgets/spq_stream");
    (0..DRAWS)
        .map(|_| {
            let u = (0.0..total).sample(&mut rng);
            distinct[cdf.partition_point(|&w| w <= u).min(distinct.len() - 1)].clone()
        })
        .collect()
}

/// Partitions searched per SPQ on the `spq_stream`-shaped replay, each
/// SPQ on a fresh scratch as the benchmark's traced replay asks them:
/// an SPQ searches only the FM partitions its checks and its β-capped
/// scan reach, where the eager search took every one. Two index shapes:
/// the benchmark's traced one, where the base build is still live beside
/// ≥ 30 sealed batches, and the steady state after a retention horizon
/// of half the base span has dropped the base and the oldest batches.
#[test]
fn spq_stream_searches_few_partitions_per_read() {
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(
        &syn,
        // 120 drivers, as in the benchmark's world, over twelve days:
        // enough traffic on a small network for β = 20 to be reachable
        // within 900 s windows.
        &WorkloadConfig {
            num_drivers: 120,
            num_days: 12,
            ..WorkloadConfig::small()
        },
    );
    let half = set.len() / 2;
    let mut base = TrajectorySet::new();
    for tr in set.iter().take(half) {
        base.push(tr.user(), tr.entries().to_vec()).unwrap();
    }
    let stream = spq_stream(
        &syn.network,
        &SntIndex::build(&syn.network, &base, SntConfig::default()),
        &set,
    );
    let tail: Vec<&Trajectory> = (half..set.len())
        .map(|id| set.get(TrajId(id as u32)))
        .collect();
    let span = |s: &TrajectorySet| {
        let starts = || s.iter().map(|t| t.start_time());
        starts().max().unwrap() - starts().min().unwrap()
    };
    let retention = span(&base) / 2;

    // (shape, batches appended, retention, measured bound per SPQ)
    for (shape, batches, horizon, bound) in [
        ("base live", 36, None, 6.1),
        (
            "base expired",
            tail.len().div_ceil(BATCH),
            Some(retention),
            19.9,
        ),
    ] {
        let mut index = SntIndex::build(&syn.network, &base, SntConfig::default());
        let appended: Vec<&[&Trajectory]> = tail.chunks(BATCH).take(batches).collect();
        let (sealed, pending) = appended.split_at(appended.len() - HOT_BATCHES);
        for batch in sealed {
            index.absorb_trajectories(batch);
            index.compact(horizon.map(|r| index.data_max() - r));
        }
        for batch in pending {
            index.absorb_trajectories(batch);
        }
        assert!(
            index.num_partitions() > 30,
            "{shape}: {}",
            index.num_partitions()
        );
        assert_eq!(index.hot_stats().batches, HOT_BATCHES);

        let (mut lazy, mut eager) = (QueryTrace::default(), QueryTrace::default());
        let mut answered = 0;
        for q in &stream {
            let (mut a, mut b) = (SearchScratch::new(), SearchScratch::eager());
            let got = index.get_travel_times_with(q, &mut a);
            assert_eq!(got, index.get_travel_times_with(q, &mut b), "{q:?}");
            answered += usize::from(!got.is_empty());
            lazy.merge(&a.trace);
            eager.merge(&b.trace);
        }
        let per_spq = |n: u64| n as f64 / DRAWS as f64;
        println!(
            "{shape}: {} sealed partitions + {HOT_BATCHES} hot batches, {DRAWS} SPQs \
             ({answered} answered, {} pruned): partitions searched per SPQ {:.3} on demand, \
             {:.3} eager; rank ops per SPQ {:.2} vs {:.2}",
            index.num_partitions(),
            lazy.pruned,
            per_spq(lazy.partitions_searched),
            per_spq(eager.partitions_searched),
            per_spq(lazy.rank_ops),
            per_spq(eager.rank_ops),
        );
        assert_eq!(
            eager.partitions_searched,
            (DRAWS * index.num_partitions()) as u64
        );
        assert!(
            per_spq(lazy.partitions_searched) <= bound,
            "{shape}: {:.3} partitions per SPQ, bound {bound}",
            per_spq(lazy.partitions_searched)
        );
    }
}
