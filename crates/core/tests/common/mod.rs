//! The fixture the core differential suites share: one small synthetic
//! world indexed in every shape a fast path has to be exact over, plus
//! the query draw and the structural trip comparison.
#![allow(dead_code)] // each suite uses its own subset

use std::sync::OnceLock;
use tthr_core::{
    SearchScratch, SntConfig, SntIndex, Spq, TimeInterval, TravelTimeProvider, TravelTimes,
    TreeKind, TripQuery,
};
use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
use tthr_network::RoadNetwork;
use tthr_trajectory::{TrajId, Trajectory, TrajectorySet};

pub(crate) const SIZES: [i64; 6] = [900, 1800, 2700, 3600, 5400, 7200];

/// A provider that answers single SPQs from the index but inherits the
/// trait's default ladder: the sequential oracle.
pub(crate) struct Sequential<'a>(pub &'a SntIndex);

impl TravelTimeProvider for Sequential<'_> {
    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        self.0.get_travel_times_with(spq, scratch)
    }
}

pub(crate) struct Fixture {
    pub network: RoadNetwork,
    pub set: TrajectorySet,
    /// `(label, index)`: every shape the override must be exact over.
    pub indexes: Vec<(&'static str, SntIndex)>,
}

pub(crate) fn fixture() -> &'static Fixture {
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
pub(crate) fn draw_query(
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

pub(crate) fn bits(t: &TravelTimes) -> Vec<u64> {
    t.values.iter().map(|v| v.to_bits()).collect()
}

pub(crate) fn assert_trips_equal(label: &str, q: &Spq, want: &TripQuery, got: &TripQuery) {
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
