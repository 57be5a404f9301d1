#![allow(dead_code)] // shared across integration test binaries; not all use every helper

//! Shared fixtures and the brute-force SPQ oracle for integration tests.

pub mod cluster;
pub mod differential;
pub mod http;
pub mod proxy;
pub mod tier;

use tthr::core::{Filter, Spq};
use tthr::datagen::{
    generate_network, generate_workload, NetworkConfig, SyntheticNetwork, WorkloadConfig,
};
use tthr::trajectory::TrajectorySet;

/// A small but non-trivial synthetic world shared by the integration tests.
pub fn small_world() -> (SyntheticNetwork, TrajectorySet) {
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    (syn, set)
}

/// Brute-force SPQ evaluation: scans every trajectory, finds every strict
/// occurrence of the query path, applies the temporal and user predicates,
/// and replicates the index's β semantics (first β matches in ascending
/// entry-time order, ties broken by trajectory id then sequence; periodic
/// queries that miss β return nothing).
///
/// Only valid against single-partition indexes: with temporal partitioning
/// the scan tie-break becomes (partition, id), which this oracle does not
/// model — the partitioned tests therefore compare β-free result multisets.
pub fn brute_force_spq(set: &TrajectorySet, spq: &Spq) -> Vec<f64> {
    let mut matches: Vec<(i64, u32, u32, f64)> = Vec::new();
    for tr in set {
        if let Filter::User(u) = spq.filter {
            if tr.user() != u {
                continue;
            }
        }
        if spq.exclude == Some(tr.id()) {
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
            matches.push((enter, tr.id().0, occ as u32, dur));
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

/// Copies the first `n` trajectories of `set` into their own set (ids are
/// re-assigned densely, users and entries preserved).
pub fn prefix_set(set: &TrajectorySet, n: usize) -> TrajectorySet {
    let mut prefix = TrajectorySet::new();
    for tr in set.iter().take(n) {
        prefix
            .push(tr.user(), tr.entries().to_vec())
            .expect("valid copy");
    }
    prefix
}

/// Raw bit patterns of travel-time values in scan order — byte-identical
/// comparison, stricter than float equality.
pub fn value_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Sorts travel times for multiset comparison.
pub fn sorted(values: impl Into<Vec<f64>>) -> Vec<f64> {
    let mut values = values.into();
    values.sort_by(f64::total_cmp);
    values
}

/// Asserts two sorted travel-time vectors are equal up to floating-point
/// noise (the index derives durations as `a_{l−1} − (a₀ − TT₀)` from prefix
/// sums, the oracle sums raw values — a different association order).
#[track_caller]
pub fn assert_times_eq(got: &[f64], want: &[f64], ctx: &dyn std::fmt::Debug) {
    assert_eq!(got.len(), want.len(), "length mismatch for {ctx:?}");
    for (g, w) in got.iter().zip(want) {
        let tol = 1e-9 * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "{g} vs {w} for {ctx:?}");
    }
}
