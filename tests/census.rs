//! The user × edge time-of-day census, held to its two obligations
//! independently of any other `SntIndex`:
//!
//! * **maintenance** — after any sequence of appends, absorbs,
//!   compactions, retention drops and snapshot round trips (hot tail
//!   included), the incrementally maintained census equals a from-scratch
//!   recount of the sealed leaves the index holds;
//! * **soundness** — the bound pruning relies (the census plus the hot
//!   tail's own leaves) never undercounts the matches a brute-force scan
//!   of the trajectories finds, so a pruned query is one the scan would
//!   have answered `∅` too.

mod common;

use common::{assert_times_eq, oracle::brute_force_spq, prefix_set, small_world, sorted};
use proptest::{proptest, Strategy, TestRng};
use std::sync::OnceLock;
use tthr::core::node::plan_node_records;
use tthr::core::{
    SearchScratch, ShardNodeState, ShardedSntIndex, SntConfig, SntIndex, Spq, TimeInterval,
    TravelTimeProvider,
};
use tthr::datagen::SyntheticNetwork;
use tthr::network::{EdgeId, Path};
use tthr::trajectory::{TrajEntry, TrajId, Trajectory, TrajectorySet, UserId};

const DAY: i64 = 86_400;

fn refs(set: &TrajectorySet, ids: std::ops::Range<usize>) -> Vec<&Trajectory> {
    ids.map(|id| set.get(TrajId(id as u32))).collect()
}

fn assert_exact(nodes: &[ShardNodeState], after: &str) {
    for node in nodes {
        assert!(
            node.index().census_is_exact(),
            "node {} of {}: census differs from a recount after {after}",
            node.shard(),
            node.num_shards()
        );
    }
}

/// `set[ids]` appended to every node as the cluster router plans it,
/// sealed or absorbed into the nodes' hot tails.
fn append(
    nodes: &mut [ShardNodeState],
    set: &TrajectorySet,
    ids: std::ops::Range<usize>,
    seal: bool,
) {
    let payload: Vec<_> = refs(set, ids)
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
        if let Some(prepared) = node.prepare(record).expect("record in sequence") {
            node.commit(prepared, seal);
        }
    }
}

proptest! {
    /// (a) Every mutation keeps the census equal to a recount, on every
    /// node of a K ∈ {1, 2, 7} cluster.
    #[test]
    fn maintained_census_equals_a_recount(
        k in 0usize..3,
        ops in proptest::collection::vec((0usize..5, 1usize..30, 0.0..1.0f64), 3..8),
    ) {
        static WORLD: OnceLock<(SyntheticNetwork, TrajectorySet)> = OnceLock::new();
        let (syn, set) = WORLD.get_or_init(small_world);
        let mut applied = set.len() / 8;
        let sharded = ShardedSntIndex::build(
            &syn.network,
            &prefix_set(set, applied),
            SntConfig::default(),
            [1, 2, 7][k],
        );
        let mut nodes: Vec<ShardNodeState> = (0..sharded.num_shards())
            .map(|s| ShardNodeState::export_from(&sharded, s))
            .collect();
        drop(sharded);
        assert_exact(&nodes, "build");
        for (op, n, frac) in ops {
            let to = (applied + n).min(set.len());
            let what = match op {
                0 => {
                    append(&mut nodes, set, applied..to, true);
                    applied = to;
                    "append"
                }
                1 => {
                    append(&mut nodes, set, applied..to, false);
                    applied = to;
                    "absorb"
                }
                2 => {
                    for node in &mut nodes {
                        node.compact(None);
                    }
                    "compact"
                }
                3 => {
                    let (lo, hi) = (nodes[0].span_min(), nodes[0].span_max());
                    let horizon = lo + (frac * (hi - lo) as f64) as i64;
                    for node in &mut nodes {
                        node.compact(Some(horizon));
                    }
                    "retention"
                }
                _ => {
                    // Pending hot batches travel as raw trajectories and
                    // are re-absorbed on restore.
                    for node in &mut nodes {
                        *node = ShardNodeState::from_snapshot_bytes(&node.to_snapshot_bytes())
                            .expect("a just-written snapshot restores");
                    }
                    "snapshot round trip"
                }
            };
            assert_exact(&nodes, what);
        }
    }
}

/// Day-partitioned monoliths (which a sharded build does not cover) recount the
/// same way through build, restore and a retention drop.
#[test]
fn partitioned_monolith_census_survives_retention_and_restore() {
    let (syn, set) = small_world();
    let config = SntConfig {
        partition_days: Some(2),
        ..SntConfig::default()
    };
    let mut index = SntIndex::build(&syn.network, &set, config);
    assert!(index.census_is_exact());
    let before = index.memory_report();
    assert_eq!(
        before.user_bytes - before.census_bytes,
        set.len() * std::mem::size_of::<UserId>()
    );
    let restored = SntIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).unwrap();
    assert!(restored.census_is_exact());
    assert_eq!(restored.memory_report().census_bytes, before.census_bytes);

    let horizon = (index.data_min() + index.data_max()) / 2;
    let out = index.compact(Some(horizon));
    assert!(out.dropped_partitions > 0);
    assert!(index.census_is_exact());
    assert!(index.memory_report().census_bytes < before.census_bytes);
}

/// Windows of every flavour pruning must be right about, around the
/// traversal of `tr`'s `start`-th edge.
fn windows(rng: &mut TestRng, tr: &Trajectory, start: usize) -> Vec<TimeInterval> {
    let enter = tr.entries()[start].enter_time;
    let base = TimeInterval::periodic_around(enter, 900);
    vec![
        base,
        // Far from the traversal: a different part of the day.
        TimeInterval::periodic_around(enter + (3600..12 * 3600i64).sample(rng), 1800),
        // Wrapping midnight.
        TimeInterval::periodic(
            DAY - 1 - (0..1800i64).sample(rng),
            (600..5400i64).sample(rng),
        ),
        // Off-list lengths and starts, as shift-and-enlarge produces them.
        base.shift_and_enlarge((0.0..2400.0).sample(rng), (0.0..3000.0).sample(rng)),
        // A day or more.
        TimeInterval::periodic((0..DAY).sample(rng), DAY),
        TimeInterval::periodic_around(enter, 3 * DAY),
    ]
}

/// The small world plus, for each of its first `extra` trajectories, a
/// copy moved to start a minute before midnight — the generator's
/// drivers sleep at night, and pruning must be right across it too.
fn world_with_night_drives(extra: usize) -> (SyntheticNetwork, TrajectorySet) {
    let (syn, mut set) = small_world();
    for id in 0..extra {
        let tr = set.get(TrajId(id as u32)).clone();
        let shift = DAY - 60 - tr.start_time().rem_euclid(DAY);
        let entries = tr
            .entries()
            .iter()
            .map(|e| TrajEntry::new(e.edge, e.enter_time + shift, e.travel_time))
            .collect();
        set.push(tr.user(), entries).unwrap();
    }
    (syn, set)
}

/// (b) Holds `index` against the brute-force oracle over `oracle_set`,
/// whose trajectory `i` is the index's trajectory `i + id_offset`. One
/// query path in three is drawn from the set's last `favoured`
/// trajectories.
fn assert_sound(
    name: &str,
    index: &SntIndex,
    oracle_set: &TrajectorySet,
    id_offset: u32,
    favoured: usize,
) -> (usize, usize) {
    let mut rng = TestRng::from_name(name);
    let (mut checked, mut short) = (0, 0);
    for draw in 0..50 {
        let from = if draw % 3 == 0 {
            oracle_set.len() - favoured
        } else {
            0
        };
        let tr = oracle_set.get(TrajId((from..oracle_set.len()).sample(&mut rng) as u32));
        let len = 1 + (0..tr.len().min(4)).sample(&mut rng);
        let start = (0..tr.len() - len + 1).sample(&mut rng);
        let path = tr.path().sub_path(start..start + len);
        let other = oracle_set.get(TrajId((0..oracle_set.len()).sample(&mut rng) as u32));
        for window in windows(&mut rng, tr, start) {
            for user in [Some(tr.user()), Some(other.user()), None] {
                for exclude in [false, true] {
                    for beta in [None, Some(1), Some(20), Some(1_000_000)] {
                        let mut on_index = Spq::new(path.clone(), window);
                        on_index.beta = beta;
                        if let Some(user) = user {
                            on_index = on_index.with_user(user);
                        }
                        let mut on_oracle = on_index.clone();
                        if exclude {
                            on_index = on_index.without_trajectory(TrajId(tr.id().0 + id_offset));
                            on_oracle = on_oracle.without_trajectory(tr.id());
                        }
                        let mut uncapped = on_oracle.clone();
                        uncapped.beta = None;
                        let truth = brute_force_spq(oracle_set, &uncapped).len();
                        let bound = index.match_upper_bound(&on_index);
                        assert!(
                            bound >= truth,
                            "bound {bound} < {truth} matches: {on_index:?}"
                        );

                        let mut scratch = SearchScratch::new();
                        let got = index.travel_times_with(&on_index, &mut scratch);
                        let want = brute_force_spq(oracle_set, &on_oracle);
                        assert_times_eq(&sorted(got.values.to_vec()), &sorted(want), &on_index);
                        if scratch.trace.pruned == 1 {
                            assert_eq!(scratch.trace.temporal_passes, 0, "{on_index:?}");
                            assert!(got.is_empty() && bound < beta.unwrap_or(1) as usize);
                            short += 1;
                        }
                        checked += 1;
                    }
                }
            }
        }
    }
    (checked, short)
}

#[test]
fn the_bound_never_undercounts_a_brute_force_scan() {
    let (syn, set) = world_with_night_drives(30);
    // Sealed two thirds, the rest in a non-empty hot tail.
    let sealed = set.len() * 2 / 3;
    let mut index = SntIndex::build(
        &syn.network,
        &prefix_set(&set, sealed),
        SntConfig::default(),
    );
    index.absorb_trajectories(&refs(&set, sealed..sealed + 20));
    index.absorb_trajectories(&refs(&set, sealed + 20..set.len()));
    assert!(index.hot_stats().entries > 0);
    let (checked, short) = assert_sound("census-hot-tail", &index, &set, 0, 30);
    assert!(
        short * 5 > checked,
        "only {short} of {checked} queries pruned"
    );
}

#[test]
fn the_bound_stays_sound_after_a_retention_drop() {
    let (syn, set) = world_with_night_drives(30);
    // Three batches appended to an empty index; retention expires the
    // first, so the oracle is the rest — under ids shifted by its size.
    let cut = [0, set.len() / 3, 2 * set.len() / 3, set.len()];
    let mut index = SntIndex::build(&syn.network, &TrajectorySet::new(), SntConfig::default());
    for w in cut.windows(2) {
        index.append_trajectories(&refs(&set, w[0]..w[1]));
    }
    let newest_of_first = refs(&set, 0..cut[1])
        .iter()
        .map(|tr| tr.entries().last().unwrap().enter_time)
        .max()
        .unwrap();
    let out = index.compact(Some(newest_of_first + 1));
    // The stream is ordered by start time: only the first batch expires.
    assert_eq!(out.dropped_partitions, 1, "{out:?}");
    let mut survivors = TrajectorySet::new();
    for tr in refs(&set, cut[1]..set.len()) {
        survivors.push(tr.user(), tr.entries().to_vec()).unwrap();
    }
    assert!(index.census_is_exact());
    let (checked, short) = assert_sound("census-retention", &index, &survivors, cut[1] as u32, 30);
    assert!(short > 0 && short < checked);
}

/// (d) A counter that saturated reads as "unbounded": it can make the
/// index scan for nothing, never skip a scan it needed.
#[test]
fn a_saturated_cell_never_prunes() {
    let (syn, _) = small_world();
    let edge = EdgeId(0);
    let mut set = TrajectorySet::new();
    // 300 traversals by user 1, 200 by user 2, 600 by user 3 — all in the
    // 08:00 hour, on consecutive days.
    for (user, n) in [(1u32, 300i64), (2, 200), (3, 600)] {
        for day in 0..n {
            let t = day * DAY + 8 * 3600 + user as i64;
            set.push(UserId(user), vec![TrajEntry::new(edge, t, 10.0)])
                .unwrap();
        }
    }
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    assert!(index.census_is_exact());
    let query = |user: u32| {
        Spq::new(
            Path::new(vec![edge]),
            TimeInterval::periodic(8 * 3600, 1800),
        )
        .with_user(UserId(user))
        .with_beta(1_000)
    };
    // Unsaturated: 200 < β is known without a scan.
    let mut scratch = SearchScratch::new();
    assert_eq!(index.match_upper_bound(&query(2)), 200);
    assert!(index.travel_times_with(&query(2), &mut scratch).is_empty());
    assert_eq!(
        (scratch.trace.pruned, scratch.trace.temporal_passes),
        (1, 0)
    );
    // Saturated at 255: the census says nothing, the path's 1 100
    // occurrences do not rule β out, and the scan finds 300 < β itself.
    let mut scratch = SearchScratch::new();
    assert_eq!(index.match_upper_bound(&query(1)), 1_100);
    assert!(index.travel_times_with(&query(1), &mut scratch).is_empty());
    assert_eq!(
        (scratch.trace.pruned, scratch.trace.temporal_passes),
        (0, 1)
    );
    assert_eq!(brute_force_spq(&set, &query(1)).len(), 0);
}
