//! The central correctness property of the reproduction: `getTravelTimes`
//! (Procedures 2–5 over the FM-index + temporal forest) returns exactly the
//! travel times a brute-force scan of the trajectory set produces, for every
//! combination of predicates.

mod common;

use common::{assert_times_eq, oracle::brute_force_spq, small_world, sorted};
use tthr::core::{SntConfig, SntIndex, Spq, TimeInterval, TreeKind, WaveletKind};
use tthr::network::Path;
use tthr::trajectory::{TrajId, UserId};

/// Query paths: sub-paths of real trajectories (guaranteed traversable) of
/// several lengths, plus their first/last segments.
fn sample_paths(set: &tthr::trajectory::TrajectorySet) -> Vec<Path> {
    let mut paths = Vec::new();
    for (i, tr) in set.iter().enumerate().step_by(41) {
        let p = tr.path();
        paths.push(p.clone());
        if p.len() >= 4 {
            paths.push(p.sub_path(1..p.len() - 1));
            paths.push(p.sub_path(0..2));
        }
        paths.push(Path::single(p.edges()[i % p.len()]));
        if paths.len() > 40 {
            break;
        }
    }
    paths
}

fn intervals(set: &tthr::trajectory::TrajectorySet) -> Vec<TimeInterval> {
    let t0 = set.iter().next().expect("non-empty").start_time();
    vec![
        TimeInterval::fixed(0, i64::MAX / 2),
        TimeInterval::fixed(t0, t0 + 3 * 86_400),
        TimeInterval::periodic_around(t0, 1800),
        TimeInterval::periodic(7 * 3600, 7200),
        TimeInterval::periodic(23 * 3600 + 1800, 3600), // wraps midnight
    ]
}

#[test]
fn index_matches_brute_force_without_beta() {
    let (syn, set) = small_world();
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    let mut checked = 0usize;
    let mut nonempty = 0usize;
    for path in sample_paths(&set) {
        for interval in intervals(&set) {
            for filter_user in [None, Some(UserId(0)), Some(UserId(3))] {
                let mut spq = Spq::new(path.clone(), interval);
                if let Some(u) = filter_user {
                    spq = spq.with_user(u);
                }
                let got = index.get_travel_times(&spq);
                let want = brute_force_spq(&set, &spq);
                if want.is_empty() {
                    // Procedure 5's single-segment fixed-interval fallback
                    // may produce a speed-limit estimate instead of ∅.
                    assert!(
                        got.is_empty() || got.fallback,
                        "expected empty or fallback for {spq:?}"
                    );
                } else {
                    assert_times_eq(&sorted(got.values.clone()), &sorted(want), &spq);
                    nonempty += 1;
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 350, "checked {checked} queries");
    assert!(
        nonempty >= 50,
        "only {nonempty} non-empty queries — fixture too sparse"
    );
}

#[test]
fn index_matches_brute_force_with_beta() {
    let (syn, set) = small_world();
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    let mut beta_limited = 0usize;
    for path in sample_paths(&set) {
        for interval in intervals(&set) {
            for beta in [1u32, 3, 10, 50] {
                let spq = Spq::new(path.clone(), interval).with_beta(beta);
                let got = index.get_travel_times(&spq);
                let want = brute_force_spq(&set, &spq);
                if want.is_empty() {
                    assert!(got.is_empty() || got.fallback, "{spq:?}");
                } else {
                    assert_times_eq(&sorted(got.values.clone()), &sorted(want.clone()), &spq);
                    if want.len() == beta as usize {
                        beta_limited += 1;
                    }
                }
            }
        }
    }
    assert!(beta_limited > 20, "β must actually limit some queries");
}

#[test]
fn self_exclusion_removes_exactly_the_query_trajectory() {
    let (syn, set) = small_world();
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    let tr = set.iter().find(|t| t.len() >= 3).expect("a trip");
    let spq = Spq::new(tr.path(), TimeInterval::fixed(0, i64::MAX / 2));
    let with_self = index.get_travel_times(&spq);
    let without = index.get_travel_times(&spq.clone().without_trajectory(tr.id()));
    assert_eq!(with_self.len(), without.len() + 1);
    // The excluded duration is the trajectory's own total.
    let own = tr.total_duration();
    let mut diff = with_self.sorted();
    for v in without.sorted() {
        let pos = diff
            .iter()
            .position(|&x| (x - v).abs() < 1e-9)
            .expect("subset");
        diff.remove(pos);
    }
    assert_eq!(diff.len(), 1);
    assert!((diff[0] - own).abs() < 1e-9);
}

#[test]
fn tree_kinds_agree() {
    let (syn, set) = small_world();
    let css = SntIndex::build(
        &syn.network,
        &set,
        SntConfig {
            tree: TreeKind::Css,
            ..SntConfig::default()
        },
    );
    let bplus = SntIndex::build(
        &syn.network,
        &set,
        SntConfig {
            tree: TreeKind::BPlus,
            ..SntConfig::default()
        },
    );
    for path in sample_paths(&set) {
        for interval in intervals(&set) {
            for beta in [None, Some(5u32)] {
                let mut spq = Spq::new(path.clone(), interval);
                spq.beta = beta;
                let a = css.get_travel_times(&spq);
                let b = bplus.get_travel_times(&spq);
                assert_eq!(a.sorted(), b.sorted(), "{spq:?}");
                assert_eq!(a.fallback, b.fallback, "{spq:?}");
            }
        }
    }
}

#[test]
fn wavelet_kinds_agree() {
    let (syn, set) = small_world();
    let huff = SntIndex::build(
        &syn.network,
        &set,
        SntConfig {
            wavelet: WaveletKind::Huffman,
            ..SntConfig::default()
        },
    );
    let matrix = SntIndex::build(
        &syn.network,
        &set,
        SntConfig {
            wavelet: WaveletKind::Matrix,
            ..SntConfig::default()
        },
    );
    for path in sample_paths(&set) {
        assert_eq!(
            huff.isa_ranges(&path),
            matrix.isa_ranges(&path),
            "ISA ranges must be identical for {path:?}"
        );
        assert_eq!(huff.traversal_count(&path), matrix.traversal_count(&path));
    }
}

#[test]
fn traversal_counts_match_brute_force() {
    let (syn, set) = small_world();
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    for path in sample_paths(&set) {
        let want: usize = set.iter().map(|tr| tr.occurrences_of(&path).count()).sum();
        assert_eq!(index.traversal_count(&path), want, "{path:?}");
    }
}

#[test]
fn count_matching_agrees_with_retrieval() {
    let (syn, set) = small_world();
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    for path in sample_paths(&set).into_iter().take(10) {
        for interval in intervals(&set) {
            let spq = Spq::new(path.clone(), interval);
            let count = index.count_matching(&spq, u32::MAX);
            let times = index.get_travel_times(&spq);
            if !times.fallback {
                assert_eq!(count, times.len(), "{spq:?}");
            }
        }
    }
}

#[test]
fn excluded_unknown_trajectory_changes_nothing() {
    let (syn, set) = small_world();
    let index = SntIndex::build(&syn.network, &set, SntConfig::default());
    let tr = set.iter().next().unwrap();
    let spq = Spq::new(tr.path(), TimeInterval::fixed(0, i64::MAX / 2));
    let base = index.get_travel_times(&spq);
    let excluded = index.get_travel_times(&spq.clone().without_trajectory(TrajId(u32::MAX - 1)));
    assert_eq!(base.sorted(), excluded.sorted());
}
