//! Ingestion lifecycle latency: `append_new` through the hot tail
//! (absorb, sealed by compaction later) versus the direct FM/wavelet
//! update path, plus reader latency under concurrent ingest.
//!
//! Two contracts are asserted in measurement mode (skipped under
//! `--test`, where one iteration only proves the code runs):
//!
//! * absorbing a batch takes at most a fifth of the time sealing it
//!   does — a bounded copy against an FM-index and wavelet build for the
//!   new partition (the stream is time-forward, like any live feed: each
//!   batch extends the hot lanes instead of splicing into their middle).
//!   This is a *latency* ratio inside one process with no compaction and
//!   no persistence in the window, which is all this bench times; it is
//!   not sustained throughput — end to end, with the seals and snapshot
//!   rotations the hot tail defers, `benchmark/` measures the hot-tail
//!   tier acknowledging 6.2 k trajectories/s against 13–17 k for direct
//!   seal (`append_traj_s`);
//! * reader p95 under continuous hot-tail ingest stays within 20% (plus
//!   a small absolute timer-noise allowance) of the quiet-service p95 —
//!   the absorb path holds the write lock for microseconds, so queries
//!   are not starved.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tthr_bench::{query_for, QueryType, Scale, World};
use tthr_core::Spq;
use tthr_service::{IngestConfig, QueryService, ServiceConfig};
use tthr_trajectory::{TrajEntry, TrajId, UserId};

fn make_service(world: &World, hot_tail: bool) -> QueryService {
    QueryService::new(
        world.build_index(Default::default()),
        Arc::new(world.network().clone()),
        ServiceConfig {
            num_threads: 4,
            // Uncached: append-path cache eviction must not make the
            // quiet and busy reader passes incomparable.
            cache_capacity: 0,
            ingest: IngestConfig {
                hot_tail,
                ..IngestConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
}

/// A fixed append payload: the first `n` stream trajectories, re-ingested
/// as brand-new ids on every `append_new(None, ..)` call so repeated
/// bench iterations do real work instead of idempotent no-ops.
fn payload(world: &World, n: usize) -> Vec<(UserId, Vec<TrajEntry>)> {
    (0..n.min(world.set.len()))
        .map(|i| {
            let tr = world.set.get(TrajId(i as u32));
            (tr.user(), tr.entries().to_vec())
        })
        .collect()
}

/// The data span of the generated world, in clock ticks.
fn data_span(world: &World) -> i64 {
    let lo = world
        .set
        .iter()
        .map(|tr| tr.start_time())
        .min()
        .expect("non-empty set");
    let hi = world
        .set
        .iter()
        .flat_map(|tr| tr.entries().iter().map(|e| e.enter_time))
        .max()
        .expect("non-empty set");
    hi - lo + 1
}

/// The payload shifted `shift` ticks into the future. Live ingest arrives
/// in rough time order — each batch is newer than the tail it joins — so
/// the bench advances the data clock one span per append instead of
/// replaying the same window forever (which no real stream does, and
/// which would make every absorb re-merge every hot lane end to end).
fn shifted(batch: &[(UserId, Vec<TrajEntry>)], shift: i64) -> Vec<(UserId, Vec<TrajEntry>)> {
    batch
        .iter()
        .map(|(user, entries)| {
            (
                *user,
                entries
                    .iter()
                    .map(|e| TrajEntry::new(e.edge, e.enter_time + shift, e.travel_time))
                    .collect(),
            )
        })
        .collect()
}

fn bench_ingest_throughput(c: &mut Criterion) {
    let world = World::generate(Scale::Small);
    let batch = payload(&world, 64);
    let span = data_span(&world);

    let mut group = c.benchmark_group("ingest_append");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    for (label, hot) in [("hot_tail", true), ("direct", false)] {
        let service = make_service(&world, hot);
        let clock = std::cell::Cell::new(0i64);
        group.bench_function(BenchmarkId::new(label, batch.len()), |b| {
            b.iter(|| {
                let tick = clock.get() + 1;
                clock.set(tick);
                service
                    .append_new(None, &shifted(&batch, tick * span))
                    .expect("append")
            })
        });
    }
    group.finish();
}

/// Nearest-rank p95 over one timed pass of every query, `rounds` times.
fn reader_p95(service: &QueryService, queries: &[Spq], rounds: usize) -> f64 {
    let mut samples = Vec::with_capacity(rounds * queries.len());
    for _ in 0..rounds {
        for q in queries {
            let start = Instant::now();
            std::hint::black_box(service.trip_query(q));
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * 0.95).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

fn bench_ingest_contract(c: &mut Criterion) {
    let _ = c;
    let test_mode = std::env::args().any(|a| a == "--test");
    let world = World::generate(Scale::Small);
    let batch = payload(&world, 64);
    let (rounds, reader_rounds) = if test_mode { (2, 1) } else { (40, 8) };

    // Per-batch append latency, absorb vs seal, over a time-forward
    // stream (prebuilt, so the shift copies are not timed).
    let span = data_span(&world);
    let stream: Vec<_> = (0..rounds)
        .map(|k| shifted(&batch, (k as i64 + 1) * span))
        .collect();
    // Best of three passes per side — the min-time estimator: a noisy
    // shared box can make either path look slower than it is, never
    // faster, so the smallest latency is the robust cost comparison.
    let trials = if test_mode { 1 } else { 3 };
    let batch_us = |hot: bool| {
        (0..trials)
            .map(|_| {
                let service = make_service(&world, hot);
                let start = Instant::now();
                for b in &stream {
                    service.append_new(None, b).expect("append");
                }
                start.elapsed().as_secs_f64() * 1e6 / rounds as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let absorb_us = batch_us(true);
    let seal_us = batch_us(false);
    println!(
        "ingest_contract: absorb {absorb_us:.0} µs vs seal {seal_us:.0} µs per \
         {}-trajectory batch ({:.1}x)",
        batch.len(),
        seal_us / absorb_us
    );
    if !test_mode {
        assert!(
            seal_us >= 5.0 * absorb_us,
            "absorbing a batch must take ≤ 1/5 of sealing it: \
             {absorb_us:.0} vs {seal_us:.0} µs"
        );
    }

    // Reader p95 with and without concurrent ingest on the same service.
    let service = make_service(&world, true);
    let queries: Vec<Spq> = world
        .queries
        .iter()
        .take(24)
        .enumerate()
        .map(|(i, &id)| {
            let query_type = if i % 2 == 0 {
                QueryType::SpqOnly
            } else {
                QueryType::TemporalFilters
            };
            query_for(&world.set, id, query_type, 900, 15)
        })
        .collect();
    let quiet = reader_p95(&service, &queries, reader_rounds);
    let stop = AtomicBool::new(false);
    let busy = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // A steady ingest stream, not a lock-saturation attack: one
            // absorbed batch per millisecond, data clock advancing.
            let mut tick = 0i64;
            while !stop.load(Ordering::Relaxed) {
                tick += 1;
                service
                    .append_new(None, &shifted(&batch, tick * span))
                    .expect("append");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let busy = reader_p95(&service, &queries, reader_rounds);
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
        busy
    });
    println!(
        "ingest_contract: reader p95 quiet {:.2} ms vs under ingest {:.2} ms",
        quiet * 1e3,
        busy * 1e3
    );
    if !test_mode {
        assert!(
            busy <= quiet * 1.2 + 500e-6,
            "reader p95 under ingest must stay within 20%: \
             quiet {quiet:.6}s, busy {busy:.6}s"
        );
    }
}

criterion_group!(benches, bench_ingest_throughput, bench_ingest_contract);
criterion_main!(benches);
