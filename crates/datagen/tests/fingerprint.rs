//! Pins the generated worlds across commits.
//!
//! `workload_is_deterministic` and `generation_is_deterministic` compare two
//! runs inside one process; they cannot see a change to the generator (or to
//! the routing it draws trips along) that moves every trajectory the same
//! way. These fingerprints can: the benchmark's world is the `medium`
//! preset, so a `datagen` edit that changes any trajectory of it fails here
//! before it silently changes every workload's inputs.

use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};

/// FNV-1a 64 over the set in id order: each trajectory's id and user, then
/// each entry's edge, enter time and travel-time bits, every field as the 8
/// little-endian bytes of a `u64`.
fn fingerprint(network: &NetworkConfig, workload: &WorkloadConfig) -> (usize, u64) {
    let set = generate_workload(&generate_network(network), workload);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for tr in set.iter() {
        feed(u64::from(tr.id().0));
        feed(u64::from(tr.user().0));
        for e in tr.entries() {
            feed(u64::from(e.edge.0));
            feed(e.enter_time as u64);
            feed(e.travel_time.to_bits());
        }
    }
    (set.len(), hash)
}

#[test]
fn small_world_is_pinned() {
    let (count, hash) = fingerprint(&NetworkConfig::small(), &WorkloadConfig::small());
    assert_eq!(
        (count, format!("{hash:016x}")),
        (447, "f03fc0221eea84bb".into())
    );
}

#[test]
fn medium_world_is_pinned() {
    let (count, hash) = fingerprint(&NetworkConfig::medium(), &WorkloadConfig::medium());
    assert_eq!(
        (count, format!("{hash:016x}")),
        (39_571, "c9d4f11c857e405d".into())
    );
}
