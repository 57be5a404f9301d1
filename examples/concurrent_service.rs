//! The service layer under load: N client threads drive a datagen workload
//! through one shared [`QueryService`], demonstrating batch fan-out,
//! the sharded result cache (cold → warm),
//! invalidation on a live `append_batch`, and the `ServiceStats` snapshot.
//!
//! Run with: `cargo run --release --example concurrent_service`

use std::sync::Arc;
use std::time::Instant;
use tthr::core::{SntConfig, SntIndex, Spq, TimeInterval};
use tthr::datagen::{
    generate_network, generate_workload, sample_query_trajectories, NetworkConfig, WorkloadConfig,
};
use tthr::service::{QueryService, ServiceConfig, ServiceStats};
use tthr::trajectory::TrajectorySet;

const CLIENTS: usize = 4;
const ROUNDS: usize = 3;

fn print_stats(label: &str, stats: &ServiceStats) {
    println!(
        "  [{label}] {} trips + {} spqs | p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms | \
         {:.0} q/s | cache {:.0}% hit ({} hits / {} misses, {} evictions, {} entries) | gen {}",
        stats.trip_queries,
        stats.spq_queries,
        stats.latency.p50_ms,
        stats.latency.p95_ms,
        stats.latency.p99_ms,
        stats.throughput_qps,
        stats.cache.hit_rate() * 100.0,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.entries,
        stats.generation,
    );
}

fn main() {
    // --- A synthetic world and a commuter query mix -------------------------
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    let ids = sample_query_trajectories(&set, 1.0, 10, 4);
    let queries: Vec<Spq> = ids
        .iter()
        .step_by(3)
        .take(48)
        .enumerate()
        .map(|(i, &id)| {
            let tr = set.get(id);
            let interval = if i % 2 == 0 {
                TimeInterval::periodic_around(tr.start_time(), 900)
            } else {
                TimeInterval::fixed(0, tr.start_time().max(1))
            };
            Spq::new(tr.path(), interval)
                .with_beta(20)
                .without_trajectory(id)
        })
        .collect();
    println!(
        "world: {} edges, {} trajectories; query mix: {} trip queries",
        syn.network.num_edges(),
        set.len(),
        queries.len()
    );

    // --- Index on the first ~80 % of the history; the rest arrives live ----
    let cut = set.len() * 4 / 5;
    let mut staged = TrajectorySet::new();
    for tr in set.iter().take(cut) {
        staged
            .push(tr.user(), tr.entries().to_vec())
            .expect("valid trajectory");
    }
    let index = SntIndex::build(&syn.network, &staged, SntConfig::default());
    let service = QueryService::new(
        index,
        Arc::new(syn.network.clone()),
        ServiceConfig::default(),
    );
    println!("service: {} worker threads\n", service.num_threads());

    // --- Phase 1: one cold batch across the pool ----------------------------
    let t0 = Instant::now();
    let cold = service.batch_trip_queries(&queries);
    println!(
        "cold batch: {} trips in {:.1} ms",
        cold.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    print_stats("after cold batch", &service.stats());

    // --- Phase 2: concurrent clients over a warm cache ----------------------
    let t1 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = &service;
            let queries = &queries;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, _) in queries.iter().enumerate() {
                        let j = (i + client * 11 + round) % queries.len();
                        let trip = service.trip_query(&queries[j]);
                        assert!(trip.subs.iter().all(|s| !s.values.is_empty()));
                    }
                }
            });
        }
    });
    println!(
        "\n{CLIENTS} clients × {ROUNDS} rounds × {} queries in {:.1} ms",
        queries.len(),
        t1.elapsed().as_secs_f64() * 1e3
    );
    print_stats("after warm clients", &service.stats());

    // --- Phase 3: a live update invalidates the cache ------------------------
    let appended = service
        .append_batch(&set)
        .expect("no durable storage attached: append cannot fail");
    println!("\nlive append: {appended} new trajectories (cache invalidated)");
    print_stats("after append", &service.stats());
    let refresh = service.batch_trip_queries(&queries);
    println!(
        "re-answered {} trips against the updated index",
        refresh.len()
    );
    print_stats("final", &service.stats());
}
