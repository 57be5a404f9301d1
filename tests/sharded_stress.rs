//! Concurrency stress for the sharded service: 8 reader threads against
//! 1 appender performing single-shard appends.
//!
//! Invariants checked while the threads race:
//!
//! * **No torn reads** — every answer a reader observes equals the
//!   complete answer of *some* index generation (never a mix of two), and
//!   answers on shards the appender never writes are byte-stable for the
//!   whole run. That includes whole trips: a fixed-interval trip
//!   dispatches all its sub-queries in one round, across shards the
//!   appender is and is not writing.
//! * **Scoped invalidation** — after the final append, the untouched
//!   shards' cache entries are still resident: re-querying them is pure
//!   hits (hit-rate on untouched shards stays flat, misses do not move).

mod common;

use common::{small_world, value_bits as bits};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tthr::core::{
    PartitionMethod, QueryEngine, QueryEngineConfig, ShardedSntIndex, SntConfig, SntIndex, Spq,
    TimeInterval, TripQuery,
};
use tthr::network::Path;
use tthr::service::{QueryService, ServiceConfig, ShardedQueryService};
use tthr::trajectory::{TrajEntry, TrajectorySet, UserId};

const SHARDS: usize = 4;
const ROUNDS: usize = 6;
const READERS: usize = 8;
const READER_ITERS: usize = 60;

/// What a trip answered: every sub-result's path and value bits, in path
/// order.
fn trip_bits(trip: &TripQuery) -> Vec<(Path, Vec<u64>)> {
    trip.subs
        .iter()
        .map(|s| (s.path.clone(), bits(&s.values)))
        .collect()
}

/// Copies `set` and appends `extra` single-shard trajectories one per
/// generation: `generations[g]` holds the set after `g` appends.
fn generations(set: &TrajectorySet, extra: &[(UserId, Vec<TrajEntry>)]) -> Vec<TrajectorySet> {
    let mut gens = Vec::with_capacity(extra.len() + 1);
    let mut current = set.clone();
    gens.push(current.clone());
    for (user, entries) in extra {
        current.push(*user, entries.clone()).expect("valid extra");
        gens.push(current.clone());
    }
    gens
}

#[test]
fn readers_race_single_shard_appender_without_torn_reads() {
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let index = ShardedSntIndex::build(&network, &set, SntConfig::default(), SHARDS);
    // π_k with k = the length of the first trajectory's opening run inside
    // one shard — the first run the appender replays — so the trip over
    // that trajectory's whole path opens with exactly the appended path
    // and its answer moves with the appends.
    let head = set.get(tthr::trajectory::TrajId(0)).entries();
    let home = index.router().shard_of(head[0].edge);
    let head_run = head
        .iter()
        .take_while(|e| index.router().shard_of(e.edge) == home)
        .count();
    let service: ShardedQueryService = QueryService::new(
        index,
        Arc::clone(&network),
        ServiceConfig {
            num_threads: READERS,
            engine: QueryEngineConfig {
                partition_method: PartitionMethod::Regular(head_run),
                ..QueryEngineConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let shard_of = |e| service.with_index(|i| i.router().shard_of(e));

    // The appender writes only shard `target`: the shard of the first
    // trajectory's first edge (guaranteed non-empty traffic).
    let target = shard_of(set.get(tthr::trajectory::TrajId(0)).entries()[0].edge);

    // Per-round extra trajectories: maximal entry runs lying entirely in
    // the target shard, lifted from real trajectories (so they stay
    // connected paths).
    let mut extra: Vec<(UserId, Vec<TrajEntry>)> = Vec::new();
    'outer: for tr in set.iter() {
        let entries = tr.entries();
        let mut run_start = None;
        for (i, e) in entries.iter().enumerate() {
            if shard_of(e.edge) == target {
                run_start.get_or_insert(i);
            } else if let Some(s) = run_start.take() {
                extra.push((tr.user(), entries[s..i].to_vec()));
            }
            if extra.len() >= ROUNDS {
                break 'outer;
            }
        }
        if let Some(s) = run_start {
            extra.push((tr.user(), entries[s..].to_vec()));
            if extra.len() >= ROUNDS {
                break;
            }
        }
    }
    assert!(extra.len() >= ROUNDS, "world too small to stage appends");
    extra.truncate(ROUNDS);
    let gens = generations(&set, &extra);

    // Probe queries: several per untouched shard, several on the target.
    let mut untouched: Vec<Spq> = Vec::new();
    let mut touched: Vec<Spq> = Vec::new();
    let mut per_shard = [0usize; SHARDS];
    for tr in set.iter() {
        for (i, e) in tr.entries().iter().enumerate() {
            let s = shard_of(e.edge);
            if per_shard[s] >= 4 {
                continue;
            }
            per_shard[s] += 1;
            let len = (tr.len() - i).min(3);
            let q = Spq::new(
                tr.path().sub_path(i..i + len),
                TimeInterval::fixed(0, i64::MAX / 4),
            );
            if s == target {
                touched.push(q);
            } else {
                untouched.push(q);
            }
        }
        if per_shard.iter().all(|&c| c >= 4) {
            break;
        }
    }
    assert!(!untouched.is_empty() && !touched.is_empty());

    // Fixed-interval trips over whole paths that cross the target shard
    // and at least one other (the first trajectory's among them): each is
    // one relaxation round of ladders on shards the appender is and is not
    // writing.
    let crosses = |tr: &&tthr::trajectory::Trajectory| {
        let on_target = |e: &TrajEntry| shard_of(e.edge) == target;
        tr.entries().iter().any(on_target) && !tr.entries().iter().all(on_target)
    };
    let trips: Vec<Spq> = set
        .iter()
        .filter(crosses)
        .take(3)
        .map(|tr| Spq::new(tr.path(), TimeInterval::fixed(0, i64::MAX / 4)))
        .collect();

    // Expected answers per generation via an incrementally-appended
    // monolith (byte-equality monolith vs sharded is pinned elsewhere).
    let mut reference = SntIndex::build(&network, &set, SntConfig::default());
    let mut touched_expected: Vec<Vec<Vec<u64>>> = Vec::new(); // [gen][query]
    let mut trips_expected = Vec::new(); // [gen][trip]
    for g in 0..=ROUNDS {
        let engine = QueryEngine::new(&reference, &network, service.engine_config().clone());
        trips_expected.push(
            trips
                .iter()
                .map(|q| trip_bits(&engine.trip_query(q)))
                .collect::<Vec<_>>(),
        );
        touched_expected.push(
            touched
                .iter()
                .map(|q| bits(&reference.get_travel_times(q).values))
                .collect(),
        );
        if g < ROUNDS {
            assert_eq!(reference.append_batch(&gens[g + 1]), 1);
        }
    }
    assert!(
        trips_expected[0].iter().all(|subs| subs.len() >= 3),
        "every trip is several ladders"
    );
    assert_ne!(
        trips_expected[0],
        trips_expected[ROUNDS - 1],
        "the racing appends change no trip"
    );
    let pristine: Vec<Vec<u64>> = untouched
        .iter()
        .map(|q| bits(&service.get_travel_times(q).values))
        .collect();
    // Prime the touched queries too, so the appends have entries to evict.
    for q in &touched {
        let _ = service.get_travel_times(q);
    }

    // ---- Race phase: 8 readers vs 1 appender (rounds 1..ROUNDS-1) -----
    let torn = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                for _ in 0..READER_ITERS {
                    for (q, want) in untouched.iter().zip(&pristine) {
                        let got = bits(&service.get_travel_times(q).values);
                        if &got != want {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    for (qi, q) in touched.iter().enumerate() {
                        let got = bits(&service.get_travel_times(q).values);
                        let legal = touched_expected.iter().any(|gen| gen[qi] == got);
                        if !legal {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    for (qi, q) in trips.iter().enumerate() {
                        let got = trip_bits(&service.trip_query(q));
                        if !trips_expected.iter().any(|gen| gen[qi] == got) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        scope.spawn(|| {
            for g in gens.iter().take(ROUNDS).skip(1) {
                assert_eq!(service.append_batch(g).expect("append"), 1);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
    });
    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "readers observed answers matching no complete index generation"
    );

    // ---- Final append with no readers racing: cache scoping is exact ---
    // Re-prime the touched queries (the racing appends may have evicted
    // them after the readers' last pass), so the final append provably
    // has same-shard entries to drop.
    for q in &touched {
        let _ = service.get_travel_times(q);
    }
    let entries_before = service.stats().cache.entries;
    assert_eq!(service.append_batch(&gens[ROUNDS]).expect("append"), 1);
    let stats = service.stats();
    assert!(
        stats.cache.entries >= untouched.len(),
        "untouched entries evicted: {} < {}",
        stats.cache.entries,
        untouched.len()
    );
    assert!(
        stats.cache.entries < entries_before || touched.is_empty(),
        "append evicted nothing although the touched shard was cached"
    );

    // Untouched shards' hit-rate stays flat: re-queries are pure hits.
    let before = service.stats().cache;
    for (q, want) in untouched.iter().zip(&pristine) {
        assert_eq!(&bits(&service.get_travel_times(q).values), want);
    }
    let after = service.stats().cache;
    assert_eq!(after.hits, before.hits + untouched.len() as u64);
    assert_eq!(
        after.misses, before.misses,
        "an untouched entry was evicted"
    );

    // Touched queries recompute and land on the final generation.
    for (qi, q) in touched.iter().enumerate() {
        assert_eq!(
            bits(&service.get_travel_times(q).values),
            touched_expected[ROUNDS][qi],
            "touched query {qi} did not reach the final generation"
        );
    }
}
