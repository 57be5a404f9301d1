//! The brute-force SPQ oracle, shared by the core suites and the
//! workspace's integration tests (`tests/common` includes this file).

use tthr_core::{Filter, Spq};
use tthr_trajectory::{Trajectory, TrajectorySet};

/// Brute-force SPQ evaluation: scans every trajectory, finds every strict
/// occurrence of the query path, applies the temporal and user predicates,
/// and replicates the index's β semantics (first β matches in ascending
/// entry-time order, ties broken by trajectory id then sequence; periodic
/// queries that miss β return nothing).
///
/// Only valid against single-partition indexes: with temporal partitioning
/// the scan tie-break becomes (partition, id), which this oracle does not
/// model — the partitioned tests therefore compare β-free result multisets.
pub(crate) fn brute_force_spq(set: &TrajectorySet, spq: &Spq) -> Vec<f64> {
    brute_force_spq_over(set.iter().map(|tr| (tr.id().0, tr)), spq)
}

/// [`brute_force_spq`] over trajectories named by the ids an index gave
/// them — e.g. the survivors of a retention drop, whose ids keep their
/// place in the index's dense id space.
pub(crate) fn brute_force_spq_over<'a>(
    trajs: impl IntoIterator<Item = (u32, &'a Trajectory)>,
    spq: &Spq,
) -> Vec<f64> {
    let mut matches: Vec<(i64, u32, u32, f64)> = Vec::new();
    for (id, tr) in trajs {
        if let Filter::User(u) = spq.filter {
            if tr.user() != u {
                continue;
            }
        }
        if spq.exclude.is_some_and(|ex| ex.0 == id) {
            continue;
        }
        for occ in tr.occurrences_of(&spq.path) {
            let enter = tr.entries()[occ].enter_time;
            if !spq.interval.contains(enter) {
                continue;
            }
            let dur: f64 = tr.entries()[occ..occ + spq.path.len()]
                .iter()
                .map(|e| e.travel_time)
                .sum();
            matches.push((enter, id, occ as u32, dur));
        }
    }
    matches.sort_by_key(|a| (a.0, a.1, a.2));
    if let Some(beta) = spq.beta {
        if spq.interval.is_periodic() && matches.len() < beta as usize {
            return Vec::new();
        }
        matches.truncate(beta as usize);
    }
    matches.into_iter().map(|m| m.3).collect()
}
