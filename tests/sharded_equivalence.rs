//! Property-based differential suite: the sharded index must answer
//! byte-identically to the monolith for K ∈ {1, 2, 7} across randomized
//! SPQ / trip / append / snapshot / reopen interleavings.
//!
//! Generation is deterministic per test (the proptest shim seeds from the
//! test name); CI runs the suite with that fixed seed, and the
//! `TTHR_DIFF_SEED` environment variable re-seeds the stream for soak
//! runs without touching the code. The long randomized soak is
//! `#[ignore]`d here and run via `cargo test -- --ignored soak` in the
//! nightly-style CI entry.

mod common;

use common::differential::{DiffHarness, QueryGen, SHARD_COUNTS};
use tthr::core::{CardinalityMode, QueryEngineConfig};
use tthr::service::IngestConfig;

fn default_engine() -> QueryEngineConfig {
    QueryEngineConfig::default()
}

/// 260 random SPQs of every flavor (fixed/periodic intervals, β, user
/// filters, exclusions) against a static index.
#[test]
fn spq_mix_differential() {
    let h = DiffHarness::new("spq_mix", default_engine());
    let mut gen = QueryGen::new("spq_mix");
    for _ in 0..260 {
        let q = gen.spq(&h);
        h.check_spq(&q);
    }
}

/// 210 trip queries: periodic ones exercise the sequential
/// shift-and-enlarge path, fixed ones the parallel chain fan-out, and all
/// run the σ relaxation machinery (widen → split → drop → fallback)
/// against every shard count.
#[test]
fn trip_mix_differential() {
    let h = DiffHarness::new("trip_mix", default_engine());
    let mut gen = QueryGen::new("trip_mix");
    for _ in 0..210 {
        let q = gen.spq(&h);
        h.check_trip(&q);
    }
}

/// The cardinality-estimator gate consults the index *before* scanning;
/// its per-partition ISA × time-of-day sums must agree between monolith
/// and shard, or gating decisions (and thus results and stats) diverge.
#[test]
fn estimator_gated_trip_differential() {
    let engine = QueryEngineConfig {
        estimator: Some(CardinalityMode::CssAcc),
        ..QueryEngineConfig::default()
    };
    let h = DiffHarness::new("estimator_mix", engine);
    let mut gen = QueryGen::new("estimator_mix");
    for _ in 0..200 {
        let q = gen.spq(&h);
        h.check_spq(&q);
    }
    for _ in 0..60 {
        let q = gen.spq(&h);
        h.check_trip(&q);
    }
}

/// Append/query interleaving: the remaining two thirds of the stream are
/// appended in random batch sizes, with 6 SPQs + 1 trip checked after
/// every batch — and the run must include batches whose trajectories
/// touch multiple shards at once.
#[test]
fn append_interleaving_differential() {
    let mut h = DiffHarness::new("append_mix", default_engine());
    let mut gen = QueryGen::new("append_mix");
    let mut checks = 0usize;
    while h.can_append() {
        h.append_next(1 + gen.range(0..8));
        for _ in 0..8 {
            let q = gen.spq(&h);
            h.check_spq(&q);
            checks += 1;
        }
        let q = gen.spq(&h);
        h.check_trip(&q);
        checks += 1;
    }
    assert!(checks >= 200, "only {checks} checks — stream too short");
    assert!(
        h.max_shards_per_batch >= 2,
        "no append batch ever touched ≥ 2 of the {} shards",
        SHARD_COUNTS.iter().max().unwrap()
    );
}

/// Full interleaving with persistence: appends, queries, snapshots, and
/// reopens (which replay the WAL) mixed by the RNG. Every service must
/// keep answering byte-identically through restarts.
#[test]
fn snapshot_reopen_interleaving_differential() {
    let mut h = DiffHarness::new("snapshot_mix", default_engine());
    let mut gen = QueryGen::new("snapshot_mix");
    let mut checks = 0usize;
    let mut snapshots = 0usize;
    let mut reopens = 0usize;
    for round in 0..24 {
        match gen.range(0..6) {
            0 => {
                h.snapshot();
                snapshots += 1;
            }
            1 => {
                h.reopen();
                reopens += 1;
            }
            _ => {
                h.append_next(1 + gen.range(0..12));
            }
        }
        for _ in 0..8 {
            let q = gen.spq(&h);
            h.check_spq(&q);
            checks += 1;
        }
        if round % 3 == 0 {
            let q = gen.spq(&h);
            h.check_trip(&q);
            checks += 1;
        }
    }
    // Make the persistence legs deterministic parts of the mix even if
    // the RNG rolled unluckily.
    h.snapshot();
    h.append_next(4);
    h.reopen();
    snapshots += 1;
    reopens += 1;
    for _ in 0..16 {
        let q = gen.spq(&h);
        h.check_spq(&q);
        checks += 1;
    }
    assert!(checks >= 200, "only {checks} checks");
    assert!(snapshots >= 1 && reopens >= 1);
}

/// Hot-tail ingestion lifecycle: appends absorb into per-shard hot tails
/// and are sealed by randomly interleaved compactions; every check runs
/// against the direct-append oracle as well as across shard counts, and
/// a snapshot/reopen leg proves the hot tail survives persistence.
#[test]
fn hot_tail_compaction_differential() {
    let mut h = DiffHarness::with_ingest(
        "hot_tail_mix",
        default_engine(),
        IngestConfig {
            hot_tail: true,
            ..IngestConfig::default()
        },
    );
    let mut gen = QueryGen::new("hot_tail_mix");
    let mut checks = 0usize;
    let mut compactions = 0usize;
    let mut sealed = 0usize;
    let mut max_hot = 0usize;
    let mut snapshotted = false;
    let mut round = 0usize;
    while h.can_append() {
        h.append_next(1 + gen.range(0..16));
        max_hot = max_hot.max(h.hot_entries());
        if !snapshotted && h.applied() > h.stream().len() / 2 {
            // Snapshot with a live hot tail: later appends WAL-log on
            // top of the persisted tail.
            h.snapshot();
            snapshotted = true;
        }
        if gen.range(0..4) == 0 {
            sealed += h.compact_all();
            compactions += 1;
        }
        for _ in 0..4 {
            let q = gen.spq(&h);
            h.check_spq(&q);
            checks += 1;
        }
        if round.is_multiple_of(2) {
            let q = gen.spq(&h);
            h.check_trip(&q);
            checks += 1;
        }
        round += 1;
    }
    assert!(max_hot > 0, "checks never saw a non-empty hot tail");

    // Persistence leg: reopen restores the snapshot (hot tail included)
    // and replays every WAL record absorbed since.
    h.reopen();
    for _ in 0..12 {
        let q = gen.spq(&h);
        h.check_spq(&q);
        checks += 1;
    }

    // Final seal: the fully compacted state answers identically too.
    sealed += h.compact_all();
    compactions += 1;
    for _ in 0..12 {
        let q = gen.spq(&h);
        h.check_spq(&q);
        checks += 1;
    }
    let q = gen.spq(&h);
    h.check_trip(&q);
    checks += 1;
    assert!(checks >= 100, "only {checks} checks — stream too short");
    assert!(compactions >= 2 && sealed > 0, "compaction never exercised");
}

/// `ladder ≡ sequential`: the engine answers σ's whole widening sequence
/// in one provider call; the level-by-level loop it replaced is the
/// oracle. Queries are drawn to climb the ladder (off-list window
/// lengths, centres that wrap midnight, β ∈ {1, 20, unreachable}, user
/// filter, exclusion id) and checked on the monolith and K ∈ {1, 2, 7}
/// over a hot tail that appends keep non-empty and compactions seal.
#[test]
fn ladder_differential() {
    let mut h = DiffHarness::with_ingest(
        "ladder_mix",
        default_engine(),
        IngestConfig {
            hot_tail: true,
            ..IngestConfig::default()
        },
    );
    let mut gen = QueryGen::new("ladder_mix");
    let mut checks = 0usize;
    let mut climbed = 0usize;
    let (mut widened, mut exhausted) = (0usize, 0usize);
    let mut max_hot = 0usize;
    while h.can_append() {
        h.append_next(1 + gen.range(0..24));
        max_hot = max_hot.max(h.hot_entries());
        if gen.range(0..5) == 0 {
            h.compact_all();
        }
        for _ in 0..3 {
            let q = gen.ladder_spq_from(h.stream(), h.applied());
            climbed += usize::from(h.ladder_levels(&q).len() > 1);
            let (level, times) = h.check_ladder(&q);
            widened += usize::from(level > 0 && !times.is_empty());
            exhausted += usize::from(times.is_empty());
            checks += 1;
        }
    }
    assert!(checks >= 60, "only {checks} checks — stream too short");
    assert_eq!(climbed, checks, "every drawn window starts below α_max");
    assert!(
        widened >= 5 && exhausted >= 5,
        "mix too flat: {widened} answered above level 0, {exhausted} failed every level"
    );
    assert!(max_hot > 0, "checks never saw a non-empty hot tail");
}

/// Long randomized soak (nightly-style; see `.github/workflows/ci.yml`).
/// Run with: `cargo test --release --test sharded_equivalence -- --ignored`
/// optionally re-seeded via `TTHR_DIFF_SEED=<n>`.
#[test]
#[ignore = "long soak; run explicitly (nightly CI entry)"]
fn soak_differential() {
    let mut h = DiffHarness::new("soak", default_engine());
    let mut gen = QueryGen::new("soak");
    for round in 0..160 {
        match gen.range(0..8) {
            0 => h.snapshot(),
            1 => h.reopen(),
            2 | 3 => {
                h.append_next(1 + gen.range(0..16));
            }
            _ => {}
        }
        for _ in 0..60 {
            let q = gen.spq(&h);
            h.check_spq(&q);
        }
        for _ in 0..6 {
            let q = gen.spq(&h);
            h.check_trip(&q);
        }
        if round % 20 == 0 {
            println!("soak round {round}: {} trajectories applied", h.applied());
        }
    }
}
