//! Differential test for the bounded `probeMap` scan.
//!
//! `probeMap` scans the last query segment only over `[lo, hi + max_span)`
//! for the `buildMap` windows `[lo, hi)` that found a match, where
//! `max_span` bounds every indexed trajectory's first-to-last entry time.
//! The bound is derived state: computed at build, grown by every admitted
//! batch, recounted on snapshot restore, kept across retention. An
//! under-estimate anywhere loses the matches of trajectories that reach
//! the last segment late, so this suite compares periodic, user-filtered,
//! fixed and ladder answers with the brute-force oracle over a world
//! holding trajectories that span more than a day, through every state
//! change the bound must survive: a fresh build, a longer trajectory
//! absorbed into the hot tail, snapshot restores with and without a hot
//! tail, and a retention drop.

mod common;

use common::{oracle::brute_force_spq_over, SIZES};
use proptest::{Strategy, TestRng};
use tthr_core::{
    SearchScratch, SntConfig, SntIndex, SplitMethod, Splitter, Spq, TimeInterval,
    TravelTimeProvider, TravelTimes,
};
use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
use tthr_trajectory::{TrajEntry, TrajId, Trajectory, TrajectorySet};

const DAY: i64 = 86_400;

/// `tr`'s entries with every entry from position `at` on moved `by`
/// seconds later: the same route, with a stop of `by` in the middle.
fn stretched(tr: &Trajectory, at: usize, by: i64) -> Vec<TrajEntry> {
    let mut entries = tr.entries().to_vec();
    for e in &mut entries[at..] {
        e.enter_time += by;
    }
    entries
}

/// The queries every state is checked with: random sub-paths of random
/// trajectories under periodic (some user-filtered, some excluding their
/// source), fixed and ladder predicates, plus the paths across the
/// stretched trajectories' stops.
enum Query {
    Single(Spq),
    Ladder(Spq, Vec<TimeInterval>),
}

fn queries(trajs: &[Trajectory], stretched_ids: &[usize]) -> Vec<Query> {
    let ladder = Splitter::new(SplitMethod::Regular, SIZES.to_vec());
    let mut rng = TestRng::from_name("probe_bound");
    let mut out = Vec::new();
    for _ in 0..160 {
        let id = (0..trajs.len()).sample(&mut rng);
        let tr = &trajs[id];
        let len = (1..tr.len().min(6) + 1).sample(&mut rng);
        let start = (0..tr.len() - len + 1).sample(&mut rng);
        let path = tr.path().sub_path(start..start + len);
        let enter = tr.entries()[start].enter_time;
        let size = (900i64..7200).sample(&mut rng);
        let periodic =
            TimeInterval::periodic_around(enter + (-1800i64..1800).sample(&mut rng), size);
        let mut q = Spq::new(path.clone(), periodic);
        match (0u32..4).sample(&mut rng) {
            0 => q = q.with_user(tr.user()),
            1 => q = q.without_trajectory(TrajId(id as u32)),
            _ => {}
        }
        match (0u32..3).sample(&mut rng) {
            0 => q = q.with_beta(1),
            1 => q = q.with_beta(20),
            _ => {}
        }
        let fixed = TimeInterval::fixed(enter - size, enter + size);
        out.push(Query::Single(Spq::new(path, fixed).with_beta(5)));
        out.push(Query::Ladder(q.clone(), ladder.ladder(q.interval)));
        out.push(Query::Single(q));
    }
    for &id in stretched_ids {
        let tr = &trajs[id];
        let mid = tr.len() / 2;
        let enter = tr.entries()[mid - 1].enter_time;
        for (from, to) in [(mid - 1, mid + 1), (0, tr.len())] {
            let path = tr.path().sub_path(from..to);
            let at = tr.entries()[from].enter_time;
            let periodic = Spq::new(path.clone(), TimeInterval::periodic_around(at, 900));
            out.push(Query::Single(periodic.clone()));
            out.push(Query::Single(periodic.with_user(tr.user())));
            out.push(Query::Single(Spq::new(
                path,
                TimeInterval::fixed(at, enter + 1),
            )));
        }
    }
    out
}

fn sorted(t: &TravelTimes) -> Vec<f64> {
    let mut v: Vec<f64> = t.values.iter().copied().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Asserts `got` answers `want` (oracle order is entry order, the index's
/// is probe order, and the two sum travel times differently).
fn assert_answers(label: &str, q: &Spq, got: &TravelTimes, mut want: Vec<f64>) {
    if want.is_empty() {
        // Procedure 5's single-segment fixed-interval fallback may give a
        // speed-limit estimate instead of ∅.
        assert!(
            got.is_empty() || got.fallback,
            "{label}: {q:?} gave {got:?}"
        );
        return;
    }
    want.sort_by(f64::total_cmp);
    let got = sorted(got);
    assert_eq!(got.len(), want.len(), "{label}: {q:?}");
    for (g, w) in got.iter().zip(&want) {
        assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "{label}: {g} vs {w} for {q:?}"
        );
    }
}

/// Checks every query against the oracle over `live`: the trajectories
/// the index holds, by the id it gave them. Returns how many answers
/// were non-empty.
fn check(label: &str, index: &SntIndex, live: &[(u32, &Trajectory)], queries: &[Query]) -> usize {
    let oracle = |q: &Spq| brute_force_spq_over(live.iter().copied(), q);
    let mut nonempty = 0;
    for query in queries {
        match query {
            Query::Single(q) => {
                let want = oracle(q);
                nonempty += usize::from(!want.is_empty());
                assert_answers(label, q, &index.get_travel_times(q), want);
            }
            Query::Ladder(q, levels) => {
                let (level, got) = index.travel_times_ladder(q, levels, &mut SearchScratch::new());
                let want_level = (0..levels.len())
                    .find(|&k| !oracle(&q.with_interval(levels[k])).is_empty())
                    .unwrap_or(levels.len() - 1);
                assert_eq!(level, want_level, "{label}: {q:?}");
                let want = oracle(&q.with_interval(levels[level]));
                nonempty += usize::from(!want.is_empty());
                assert_answers(label, q, &got, want);
            }
        }
    }
    nonempty
}

#[test]
fn bounded_probe_answers_like_brute_force_through_every_state_change() {
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    let half = set.len() / 2;
    let long = |from: usize| {
        set.iter()
            .skip(from)
            .find(|tr| tr.len() >= 4)
            .expect("a trajectory of four segments")
    };
    // Every trajectory the index will hold, at the id it will give it:
    // the first half plus one trajectory with a stop of a day and an hour
    // (the fresh build), the second half (sealed), and one with a stop of
    // three days (the hot tail).
    let (early, late) = (long(0), long(half));
    let mut all: Vec<Trajectory> = set.iter().take(half).cloned().collect();
    let mut push = |user, entries| {
        let id = TrajId(all.len() as u32);
        all.push(Trajectory::new(id, user, entries).expect("valid"));
    };
    push(early.user(), stretched(early, early.len() / 2, DAY + 3600));
    for tr in set.iter().skip(half) {
        push(tr.user(), tr.entries().to_vec());
    }
    push(late.user(), stretched(late, late.len() / 2, 3 * DAY));
    let (base_end, hot_id) = (half + 1, all.len() - 1);
    let queries = queries(&all, &[half, hot_id]);
    let live = |ids: std::ops::Range<usize>| -> Vec<(u32, &Trajectory)> {
        ids.map(|id| (id as u32, &all[id])).collect()
    };

    let mut base = TrajectorySet::new();
    for tr in &all[..base_end] {
        base.push(tr.user(), tr.entries().to_vec()).unwrap();
    }
    let mut index = SntIndex::build(&syn.network, &base, SntConfig::default());
    let nonempty = check("fresh", &index, &live(0..base_end), &queries);
    assert!(
        nonempty > queries.len() / 4,
        "only {nonempty} non-empty answers"
    );

    let second: Vec<&Trajectory> = all[base_end..hot_id].iter().collect();
    index.append_trajectories(&second);
    index.absorb_trajectories(&[&all[hot_id]]);
    assert_eq!(index.hot_stats().batches, 1);
    check("hot tail", &index, &live(0..all.len()), &queries);

    let restored = SntIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).unwrap();
    check(
        "restored with a hot tail",
        &restored,
        &live(0..all.len()),
        &queries,
    );

    index.compact(None);
    let mut index = SntIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).unwrap();
    assert_eq!(index.hot_stats().batches, 0);
    check("restored sealed", &index, &live(0..all.len()), &queries);

    let horizon = all[..base_end]
        .iter()
        .map(|tr| tr.entries().last().unwrap().enter_time)
        .max()
        .unwrap()
        + 1;
    let out = index.compact(Some(horizon));
    assert_eq!(out.dropped_partitions, 1, "{out:?}");
    check(
        "after retention",
        &index,
        &live(base_end..all.len()),
        &queries,
    );
}
