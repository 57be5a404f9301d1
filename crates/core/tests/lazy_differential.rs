//! Differential test `on-demand partition search ≡ eager search`.
//!
//! A read searches a partition's FM-index only when one of its checks or
//! its temporal scan needs that partition's ISA range. The reference is
//! the eager search the index did before: every partition searched on a
//! suffix-cache miss ([`SearchScratch::eager`]), whose ranges must be
//! [`SntIndex::isa_ranges`]'s. Over indexes of many partitions — ≥ 20
//! sealed batches, with and without a pending hot tail, after a
//! retention pass that drops partitions, after a snapshot round trip,
//! day-partitioned, and the nodes of a two-shard cluster after planned
//! appends — SPQs, relaxation ladders and capped and uncapped counts,
//! under fixed and periodic windows, with and without a user filter and
//! β, asked in runs that share one scratch the way a trip does, must give
//! bit-equal values, the same fallback flags, levels and counts, and the
//! same `pruned`, `temporal_passes`, `scratch_hits` and `scratch_misses`,
//! while searching no more partitions and running no more ranks.

mod common;

use common::{bits, SIZES};
use proptest::{Strategy, TestRng};
use tthr_core::node::plan_node_records;
use tthr_core::{
    Filter, QueryTrace, SearchScratch, ShardNodeState, ShardedSntIndex, SntConfig, SntIndex,
    SplitMethod, Splitter, Spq, TimeInterval, TravelTimeProvider, TravelTimes, TreeKind,
};
use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
use tthr_trajectory::{TrajId, Trajectory, TrajectorySet};

/// Sealed batches appended after the base build.
const SEALED_BATCHES: usize = 24;

enum Op {
    Spq(Spq),
    Ladder(Spq, Vec<TimeInterval>),
    Count(Spq, u32),
}

impl Op {
    fn spq(&self) -> &Spq {
        match self {
            Op::Spq(q) | Op::Ladder(q, _) | Op::Count(q, _) => q,
        }
    }
}

/// An answer, compared bit for bit: a ladder's level (0 for an SPQ),
/// the values' bits and the fallback flag, or a count.
#[derive(Debug, PartialEq)]
enum Answer {
    Times(usize, Vec<u64>, bool),
    Count(usize),
}

fn times(level: usize, t: &TravelTimes) -> Answer {
    Answer::Times(level, bits(t), t.fallback)
}

/// Runs of queries over the trajectories in `live`, each run asked
/// through one scratch the way a trip asks its sub-queries. A run draws
/// a sub-path and asks, in order: the path under a wide fixed window with
/// β = 1, which stops at its first match; a proper suffix of it under the
/// same window uncapped, a scratch hit that meets the partitions the
/// first query left unsearched; a periodic query on the path (β 1, 20 or
/// unset; some user-filtered, some excluding their source) as a ladder,
/// a capped count and twice as an SPQ; and a fixed window as an
/// uncapped count and an SPQ.
fn runs(live: &[Trajectory], seed: &str) -> Vec<Vec<Op>> {
    let ladder = Splitter::new(SplitMethod::Regular, SIZES.to_vec());
    let mut rng = TestRng::from_name(seed);
    let mut out = Vec::new();
    for _ in 0..60 {
        let at = (0..live.len()).sample(&mut rng);
        let tr = &live[at];
        let len = (1..tr.len().min(5) + 1).sample(&mut rng);
        let start = (0..tr.len() - len + 1).sample(&mut rng);
        let path = tr.path().sub_path(start..start + len);
        let enter = tr.entries()[start].enter_time;
        let size = [900, 1800, 3600][(0usize..3).sample(&mut rng)];
        let mut q = Spq::new(path.clone(), TimeInterval::periodic_around(enter, size));
        match (0u32..4).sample(&mut rng) {
            0 => q = q.with_user(tr.user()),
            1 => q = q.without_trajectory(tr.id()),
            _ => {}
        }
        match (0u32..3).sample(&mut rng) {
            0 => q = q.with_beta(1),
            1 => q = q.with_beta(20),
            _ => {}
        }
        let fixed = Spq::new(
            path.clone(),
            TimeInterval::fixed(enter - size, enter + size),
        );
        let fixed = match (0u32..3).sample(&mut rng) {
            0 => fixed.with_beta(5),
            1 => fixed.with_user(tr.user()),
            _ => fixed,
        };
        let all_time = TimeInterval::fixed(0, i64::MAX / 4);
        let mut run = vec![Op::Spq(Spq::new(path.clone(), all_time).with_beta(1))];
        if len > 1 {
            let suffix = path.sub_path((1..len).sample(&mut rng)..len);
            run.push(Op::Spq(Spq::new(suffix, all_time)));
        }
        run.extend([
            Op::Ladder(q.clone(), ladder.ladder(q.interval)),
            Op::Count(q.clone(), 3),
            Op::Spq(q.clone()),
            Op::Spq(q),
            Op::Count(fixed.clone(), u32::MAX),
            Op::Spq(fixed),
        ]);
        out.push(run);
    }
    out
}

/// Asks every op of every run through an on-demand and an eager scratch
/// — a fresh pair per run — and holds the two to the contract, and both
/// to what `isa_ranges` and the full census bound say. A periodic SPQ
/// without a filter is also asked with β at its occurrence count and one
/// above, where the prune's decision turns. `ask` answers one op through
/// a scratch; `index` is the index that answers it (the owning node's,
/// on a cluster).
fn check<'i>(
    label: &str,
    runs: &[Vec<Op>],
    index: impl Fn(&Spq) -> &'i SntIndex,
    ask: impl Fn(&Op, &mut SearchScratch) -> Answer,
) -> QueryTrace {
    let (mut lazy_total, mut eager_total) = (QueryTrace::default(), QueryTrace::default());
    for run in runs {
        let boundaries: Vec<Op> = run
            .iter()
            .filter_map(|op| match op {
                Op::Spq(q) if q.interval.is_periodic() && q.filter == Filter::None => {
                    let occurrences = index(q).match_upper_bound(q) as u32;
                    Some([occurrences, occurrences + 1].map(|b| Op::Spq(q.clone().with_beta(b))))
                }
                _ => None,
            })
            .flatten()
            .collect();
        let (mut lazy, mut eager) = (SearchScratch::new(), SearchScratch::eager());
        for op in run.iter().chain(&boundaries) {
            let q = op.spq();
            let before = eager.trace;
            let want = ask(op, &mut eager);
            let got = ask(op, &mut lazy);
            assert_eq!(want, got, "{label}: {q:?}");
            let (l, e) = (&lazy.trace, &eager.trace);
            assert_eq!(l.pruned, e.pruned, "{label}: {q:?}");
            assert_eq!(l.temporal_passes, e.temporal_passes, "{label}: {q:?}");
            assert_eq!(l.scratch_hits, e.scratch_hits, "{label}: {q:?}");
            assert_eq!(l.scratch_misses, e.scratch_misses, "{label}: {q:?}");
            assert_eq!(l.index_queries, e.index_queries, "{label}: {q:?}");
            assert!(
                l.partitions_searched <= e.partitions_searched,
                "{label}: {q:?}"
            );
            assert!(l.rank_ops <= e.rank_ops, "{label}: {q:?}");
            assert!(l.wavelet_nodes <= e.wavelet_nodes, "{label}: {q:?}");

            let index = index(q);
            // The eager reference searches what `isa_ranges` searches.
            assert_eq!(
                index.isa_ranges_with(&q.path, &mut SearchScratch::new()),
                index.isa_ranges(&q.path),
                "{label}: {q:?}"
            );
            // A read scans or prunes exactly when some trajectory
            // traverses its path, and a periodic SPQ is pruned exactly
            // when the full census bound is below what it needs.
            let pruned = e.pruned - before.pruned;
            let traversed = index.traversal_count(&q.path) > 0;
            let work = pruned + e.temporal_passes - before.temporal_passes;
            assert_eq!(work > 0, traversed, "{label}: {q:?}");
            if let Op::Spq(q) = op {
                if traversed && q.interval.is_periodic() {
                    let need = q.beta.unwrap_or(1).max(1) as usize;
                    let short = index.match_upper_bound(q) < need;
                    assert_eq!(pruned == 1, short, "{label}: {q:?}");
                }
            }
        }
        lazy_total.merge(&lazy.trace);
        eager_total.merge(&eager.trace);
    }
    let live = runs
        .iter()
        .flatten()
        .map(|op| index(op.spq()).num_partitions())
        .max();
    println!(
        "{label}: {} partitions, {} index queries, partitions searched {} on demand vs {} eager, \
         rank ops {} vs {}, {} pruned",
        live.unwrap_or(0),
        eager_total.index_queries,
        lazy_total.partitions_searched,
        eager_total.partitions_searched,
        lazy_total.rank_ops,
        eager_total.rank_ops,
        eager_total.pruned,
    );
    assert!(eager_total.pruned > 0, "{label}: the prune is exercised");
    lazy_total
}

fn ask_index(index: &SntIndex, op: &Op, scratch: &mut SearchScratch) -> Answer {
    match op {
        Op::Spq(q) => times(0, &index.get_travel_times_with(q, scratch)),
        Op::Ladder(q, levels) => {
            let (level, t) = index.travel_times_ladder(q, levels, scratch);
            times(level, &t)
        }
        Op::Count(q, cap) => Answer::Count(index.count_matching_with(q, *cap, scratch)),
    }
}

fn check_index(label: &str, index: &SntIndex, runs: &[Vec<Op>]) -> QueryTrace {
    check(label, runs, |_| index, |op, s| ask_index(index, op, s))
}

fn copy(set: &TrajectorySet, ids: std::ops::Range<usize>) -> Vec<Trajectory> {
    ids.map(|id| set.get(TrajId(id as u32)).clone()).collect()
}

fn prefix(set: &TrajectorySet, n: usize) -> TrajectorySet {
    let mut out = TrajectorySet::new();
    for tr in set.iter().take(n) {
        out.push(tr.user(), tr.entries().to_vec()).unwrap();
    }
    out
}

/// `(base, [batch ranges])`: the first eighth of the world as the base
/// build, the rest in [`SEALED_BATCHES`] consecutive batches.
fn batches(n: usize) -> (usize, Vec<std::ops::Range<usize>>) {
    let base = n / 8;
    let per = (n - base).div_ceil(SEALED_BATCHES + 3);
    let cuts: Vec<usize> = (base..n).step_by(per).chain([n]).collect();
    (base, cuts.windows(2).map(|w| w[0]..w[1]).collect())
}

#[test]
fn on_demand_search_answers_like_the_eager_search_on_a_monolith() {
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    let all = copy(&set, 0..set.len());
    let (base, ranges) = batches(set.len());
    let (sealed, pending) = ranges.split_at(SEALED_BATCHES);

    for tree in [TreeKind::Css, TreeKind::BPlus] {
        let config = SntConfig {
            tree,
            ..SntConfig::default()
        };
        let mut index = SntIndex::build(&syn.network, &prefix(&set, base), config);
        for r in sealed {
            let batch = copy(&set, r.clone());
            index.append_trajectories(&batch.iter().collect::<Vec<_>>());
        }
        assert_eq!(index.num_partitions(), 1 + SEALED_BATCHES);
        let upto = sealed.last().unwrap().end;
        let sealed_runs = runs(&all[..upto], "lazy_differential/sealed");
        let t = check_index(&format!("{tree:?} sealed"), &index, &sealed_runs);
        assert!(
            t.partitions_searched < t.scratch_misses * index.num_partitions() as u64,
            "on-demand search skips partitions"
        );

        for r in pending {
            let batch = copy(&set, r.clone());
            index.absorb_trajectories(&batch.iter().collect::<Vec<_>>());
        }
        assert_eq!(index.hot_stats().batches, pending.len());
        let all_runs = runs(&all, "lazy_differential/hot");
        check_index(&format!("{tree:?} hot tail"), &index, &all_runs);

        let restored = SntIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).unwrap();
        check_index(&format!("{tree:?} restored"), &restored, &all_runs);

        // Retention: the partitions whose newest leaf is in the first
        // third of the data span expire.
        let horizon = index.data_min() + (index.data_max() - index.data_min()) / 3;
        let out = index.compact(Some(horizon));
        assert!(out.dropped_partitions > 0, "{tree:?}: {out:?}");
        check_index(&format!("{tree:?} retained"), &index, &all_runs);
    }

    let days = SntIndex::build(
        &syn.network,
        &set,
        SntConfig {
            partition_days: Some(1),
            ..SntConfig::default()
        },
    );
    assert!(days.num_partitions() >= 20);
    check_index(
        "day-partitioned",
        &days,
        &runs(&all, "lazy_differential/days"),
    );
}

#[test]
fn on_demand_search_answers_like_the_eager_search_on_cluster_nodes() {
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    let all = copy(&set, 0..set.len());
    let (base, ranges) = batches(set.len());
    let sharded =
        ShardedSntIndex::build(&syn.network, &prefix(&set, base), SntConfig::default(), 2);
    let mut nodes: Vec<ShardNodeState> = (0..2)
        .map(|s| ShardNodeState::export_from(&sharded, s))
        .collect();
    for (i, r) in ranges.iter().enumerate() {
        let payload: Vec<_> = copy(&set, r.clone())
            .into_iter()
            .map(|tr| (tr.user(), tr.entries().to_vec()))
            .collect();
        let first = &nodes[0];
        let records = plan_node_records(
            first.router(),
            first.num_global(),
            first.span_min(),
            first.span_max(),
            &payload,
        )
        .expect("a valid batch");
        for (node, record) in nodes.iter_mut().zip(&records) {
            let prepared = node.prepare(record).unwrap().expect("in sequence");
            node.commit(prepared, i < SEALED_BATCHES);
        }
    }
    for node in &nodes {
        assert!(node.index().num_partitions() > 20);
        assert!(node.hot_stats().batches > 0);
    }
    let router = nodes[0].router().clone();
    let owner = |q: &Spq| &nodes[router.shard_of(q.path.first())];
    check(
        "cluster nodes",
        &runs(&all, "lazy_differential/nodes"),
        |q| owner(q).index(),
        |op, scratch| {
            let node = owner(op.spq());
            match op {
                Op::Spq(q) => times(0, &node.get_travel_times_with(q, scratch).unwrap()),
                Op::Ladder(q, levels) => {
                    let ladder = [(q.clone(), levels.clone())];
                    let answers = node.travel_times_ladders_with(&ladder, scratch).unwrap();
                    times(answers[0].0, &answers[0].1)
                }
                Op::Count(q, cap) => {
                    Answer::Count(node.count_matching_with(q, *cap, scratch).unwrap())
                }
            }
        },
    );
}
