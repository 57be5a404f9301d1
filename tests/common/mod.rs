#![allow(dead_code)] // shared across integration test binaries; not all use every helper

//! Shared fixtures and the brute-force SPQ oracle for integration tests.

pub(crate) mod cluster;
pub(crate) mod differential;
pub(crate) mod http;
pub(crate) mod proxy;
pub(crate) mod tier;

// The one brute-force SPQ oracle, kept with the core crate's suites.
#[path = "../../crates/core/tests/common/oracle.rs"]
pub(crate) mod oracle;

use tthr::datagen::{
    generate_network, generate_workload, NetworkConfig, SyntheticNetwork, WorkloadConfig,
};
use tthr::trajectory::TrajectorySet;

/// A small but non-trivial synthetic world shared by the integration tests.
pub(crate) fn small_world() -> (SyntheticNetwork, TrajectorySet) {
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    (syn, set)
}

/// Copies the first `n` trajectories of `set` into their own set (ids are
/// re-assigned densely, users and entries preserved).
pub(crate) fn prefix_set(set: &TrajectorySet, n: usize) -> TrajectorySet {
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
pub(crate) fn value_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Sorts travel times for multiset comparison.
pub(crate) fn sorted(values: impl Into<Vec<f64>>) -> Vec<f64> {
    let mut values = values.into();
    values.sort_by(f64::total_cmp);
    values
}

/// Asserts two sorted travel-time vectors are equal up to floating-point
/// noise (the index derives durations as `a_{l−1} − (a₀ − TT₀)` from prefix
/// sums, the oracle sums raw values — a different association order).
#[track_caller]
pub(crate) fn assert_times_eq(got: &[f64], want: &[f64], ctx: &dyn std::fmt::Debug) {
    assert_eq!(got.len(), want.len(), "length mismatch for {ctx:?}");
    for (g, w) in got.iter().zip(want) {
        let tol = 1e-9 * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "{g} vs {w} for {ctx:?}");
    }
}
