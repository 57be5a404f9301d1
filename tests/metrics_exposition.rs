//! Server-level contract for the `/metrics` Prometheus exposition and the
//! `/debug/slow` trace log.
//!
//! Two obligations beyond the unit tests in `tthr-metrics` and
//! `tthr-service`:
//!
//! * **Strict format under concurrency** — every scrape taken while query
//!   and append traffic is running must pass the exposition grammar
//!   ([`validate_exposition`](tthr::metrics::validate_exposition)), and
//!   counters observed across consecutive scrapes must be monotonic (a
//!   torn render would show a counter going backwards).
//! * **Observation does not perturb answers** — the queries running
//!   alongside the scrapers still answer byte-identically to an
//!   in-process oracle.

mod common;

use common::differential::QueryGen;
use common::http::{encode_frame_request, HttpClient};
use common::prefix_set;
use std::sync::Arc;
use tthr::core::{SntConfig, SntIndex, Spq, TimeInterval};
use tthr::rpc::{encode_frame, Message};
use tthr::server::{serve, wire, ServerConfig};
use tthr::service::{QueryService, ServiceConfig};

/// The value of an unlabeled (or exactly-labeled) series in an
/// exposition, parsed from the sample line.
fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}

#[test]
fn concurrent_scrapes_are_well_formed_and_monotonic() {
    let (syn, set) = common::small_world();
    let network = Arc::new(syn.network);
    let applied = set.len() * 2 / 3;
    let initial = prefix_set(&set, applied);
    let config = ServiceConfig {
        num_threads: 2,
        slow_query_log: 16,
        trace_sample_every: 8,
        ..ServiceConfig::default()
    };
    let make = |cfg: &ServiceConfig| {
        QueryService::new(
            SntIndex::build(&network, &initial, SntConfig::default()),
            Arc::clone(&network),
            cfg.clone(),
        )
    };
    let service = make(&config);
    let oracle = make(&config);
    let server = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("boot");
    let addr = server.local_addr();

    let mut gen = QueryGen::new("metrics_exposition");
    let queries: Vec<Spq> = (0..12).map(|_| gen.spq_from(&set, applied)).collect();

    std::thread::scope(|scope| {
        // Query traffic racing the scrapers.
        for r in 0..3 {
            let queries = &queries;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr);
                for (i, q) in queries.iter().cycle().take(40).enumerate() {
                    let path = if (i + r) % 5 == 0 { "/trip" } else { "/spq" };
                    let response = client.request("POST", path, wire::encode_spq(q).as_bytes());
                    assert_eq!(response.status, 200, "{}", response.body_str());
                }
            });
        }
        // Scrapers: every exposition must parse, and the counters they
        // watch must never move backwards.
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr);
                let mut last_requests = 0.0f64;
                let mut last_rank_ops = 0.0f64;
                let mut last_inline = 0.0f64;
                for _ in 0..15 {
                    let scrape = client.request("GET", "/metrics", b"");
                    assert_eq!(scrape.status, 200);
                    let text = scrape.body_str();
                    tthr::metrics::validate_exposition(text)
                        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
                    let requests =
                        series_value(text, "tthr_server_requests_total").expect("server counter");
                    let rank_ops =
                        series_value(text, "tthr_rank_ops_total").expect("trace counter");
                    let inline = series_value(text, "tthr_server_inline_hits_total")
                        .expect("inline-hit counter");
                    assert!(requests >= last_requests, "requests went backwards");
                    assert!(rank_ops >= last_rank_ops, "rank_ops went backwards");
                    assert!(inline >= last_inline, "inline hits went backwards");
                    last_requests = requests;
                    last_rank_ops = rank_ops;
                    last_inline = inline;

                    let slow = client.request("GET", "/debug/slow", b"");
                    assert_eq!(slow.status, 200);
                    tthr::server::json::parse(&slow.body).expect("well-formed slow log");
                }
            });
        }
    });

    // Quiesced: the scraped service still answers byte-identically.
    for q in &queries {
        let response =
            HttpClient::connect(addr).request("POST", "/spq", wire::encode_spq(q).as_bytes());
        assert_eq!(response.status, 200);
        assert_eq!(
            response.body_str(),
            wire::encode_travel_times(&oracle.get_travel_times(q)),
            "scraping perturbed the answer for {q:?}"
        );
    }

    // A query counts alone can answer: a user asked for more traversals of
    // a path than the path has in total. It must show up as pruned, on
    // `/metrics` and in the trace of a `/debug/slow` entry.
    let tr = set.get(tthr::trajectory::TrajId(0));
    let hopeless = Spq::new(
        tr.path(),
        TimeInterval::periodic_around(tr.start_time(), 900),
    )
    .with_user(tr.user())
    .with_beta(1_000_000);
    let mut client = HttpClient::connect(addr);
    let response = client.request("POST", "/spq", wire::encode_spq(&hopeless).as_bytes());
    assert_eq!(response.status, 200);
    assert_eq!(
        response.body_str(),
        wire::encode_travel_times(&tthr::core::TravelTimes::empty())
    );
    let slow = client.request("GET", "/debug/slow", b"");
    assert!(
        slow.body_str().contains("\"pruned\":"),
        "{}",
        slow.body_str()
    );

    // The final exposition carries the whole stack: per-endpoint service
    // counters, engine trace totals, index series, reactor counters.
    let text_response = HttpClient::connect(addr).request("GET", "/metrics", b"");
    let text = text_response.body_str();
    tthr::metrics::validate_exposition(text).expect("final exposition");
    for series in [
        "tthr_requests_total{endpoint=\"spq\"}",
        "tthr_requests_total{endpoint=\"trip\"}",
        "tthr_request_duration_ns_count{endpoint=\"spq\"}",
        "tthr_rank_ops_total",
        "tthr_index_queries_total",
        "tthr_ladders_total",
        "tthr_spq_pruned_total",
        "tthr_cache_admission_rejected_total",
        "tthr_index_trajectories",
        "tthr_index_generation",
        "tthr_server_connections_accepted_total",
        "tthr_server_bytes_read_total",
        "tthr_server_bytes_written_total",
    ] {
        assert!(
            series_value(text, series).is_some(),
            "missing series {series} in:\n{text}"
        );
    }
    // 3 query threads × 40 requests, plus scrapes and the final checks.
    assert!(series_value(text, "tthr_server_requests_total").unwrap() >= 120.0);
    assert!(series_value(text, "tthr_spq_pruned_total").unwrap() >= 1.0);

    server.shutdown();
}

/// Every `/spq` is counted once however it is answered — from the cache
/// on the reactor, by the pool after the reactor decoded it and missed, or
/// by the pool from a body too large to decode on the reactor: cache hits
/// plus misses equal the requests, and so does `spq_queries`.
#[test]
fn every_spq_counts_once() {
    let (syn, set) = common::small_world();
    let network = Arc::new(syn.network);
    let service = QueryService::new(
        SntIndex::build(&network, &set, SntConfig::default()),
        network,
        ServiceConfig {
            num_threads: 2,
            ..ServiceConfig::default()
        },
    );
    let server = serve(service.clone(), "127.0.0.1:0", ServerConfig::default()).expect("boot");
    let mut client = HttpClient::connect(server.local_addr());
    let mut gen = QueryGen::new("spq_counted_once");
    let queries: Vec<Spq> = (0..6).map(|_| gen.spq_from(&set, set.len())).collect();
    let padding = " ".repeat(20 * 1024);
    let mut asked = 0u64;
    let mut last_inline = 0.0f64;
    for round in 0..4 {
        for q in &queries {
            let body = wire::encode_spq(q);
            let response = match round {
                0 | 1 => client.request("POST", "/spq", body.as_bytes()),
                2 => {
                    let frame = encode_frame(&Message::TravelTimes(q.clone()));
                    client.send_raw(&encode_frame_request(&frame));
                    client.read_response()
                }
                _ => {
                    let padded = format!("{{{padding}{}", &body[1..]);
                    client.request("POST", "/spq", padded.as_bytes())
                }
            };
            assert_eq!(response.status, 200);
            asked += 1;
            let scrape = client.request("GET", "/metrics", b"");
            let inline = series_value(scrape.body_str(), "tthr_server_inline_hits_total")
                .expect("inline-hit counter");
            assert!(inline >= last_inline, "inline hits went backwards");
            last_inline = inline;
        }
    }
    let text = client
        .request("GET", "/metrics", b"")
        .body_str()
        .to_string();
    let hits = series_value(&text, "tthr_cache_hits_total").expect("hits");
    let misses = series_value(&text, "tthr_cache_misses_total").expect("misses");
    assert_eq!(hits + misses, asked as f64, "{text}");
    assert!(
        misses <= queries.len() as f64,
        "a miss counted twice: {text}"
    );
    assert_eq!(service.stats().spq_queries, asked);
    // The cache never fills, so its doorkeeper never refuses an insert.
    assert_eq!(
        series_value(&text, "tthr_cache_admission_rejected_total"),
        Some(0.0),
        "{text}"
    );
    // Rounds 1 and 2 repeat round 0: every one of them is an inline hit.
    assert!(last_inline >= 2.0 * queries.len() as f64, "{text}");
    server.shutdown();
}

/// The cluster router's `/metrics`: `tthr_router_rpcs_total{shard}`,
/// `tthr_router_ladders_total{shard}`, `tthr_router_trips_total` and the
/// result cache's `tthr_cache_*` series pass the exposition grammar and
/// count what they say — one per read RPC
/// routed to the shard, one per ladder shipped inside a batch, one per
/// trip — so RPCs per trip and ladders per RPC (the batch fill) can be
/// read off a running cluster (a relaxation round is one RPC per shard,
/// whatever the trip's logical `index_queries` says).
#[test]
fn router_metrics_count_rpcs_per_shard() {
    use common::cluster::{ClusterHarness, CLUSTER_K};
    use tthr::client::ClientConfig;

    let h = ClusterHarness::boot("metrics-router", ClientConfig::default());
    let per_shard = |text: &str, family: &str| -> Vec<f64> {
        (0..CLUSTER_K)
            .map(|s| {
                series_value(text, &format!("{family}{{shard=\"{s}\"}}"))
                    .unwrap_or_else(|| panic!("{family} shard {s} series missing:\n{text}"))
            })
            .collect()
    };
    let text = h.cluster.render_metrics();
    tthr::metrics::validate_exposition(&text).expect(&text);
    let cache_before = cache_series(&text);
    let before = per_shard(&text, "tthr_router_rpcs_total");
    assert_eq!(per_shard(&text, "tthr_router_ladders_total"), [0.0, 0.0]);
    assert_eq!(series_value(&text, "tthr_router_trips_total"), Some(0.0));

    let mut gen = QueryGen::new("metrics_router");
    let mut expect = vec![0.0; CLUSTER_K];
    for _ in 0..20 {
        let spq = gen.spq_from(&h.full, h.applied);
        h.cluster.travel_times(&spq).expect("cluster SPQ");
        expect[h.cluster.routing().shard_of(spq.path.first())] += 1.0;
    }
    let (mut logical, mut batches, mut ladders) = (0usize, 0.0, 0.0);
    for _ in 0..10 {
        let spq = gen.ladder_spq_from(&h.full, h.applied);
        let trip = h.cluster.trip_query(&spq).expect("cluster trip");
        logical += trip.stats.index_queries;
        batches += trip.trace.ladder_batches as f64;
        ladders += trip.trace.ladders as f64;
    }
    let text = h.cluster.render_metrics();
    tthr::metrics::validate_exposition(&text).expect(&text);
    let after = per_shard(&text, "tthr_router_rpcs_total");
    let grew: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(
        grew.iter().sum::<f64>(),
        expect.iter().sum::<f64>() + batches
    );
    for s in 0..CLUSTER_K {
        assert!(grew[s] >= expect[s], "shard {s}: {grew:?} vs {expect:?}");
    }
    // The numbers an operator divides: trips, and the ladders their RPCs
    // carried — never fewer ladders than batches, since no batch is empty.
    assert_eq!(series_value(&text, "tthr_router_trips_total"), Some(10.0));
    let shipped: f64 = per_shard(&text, "tthr_router_ladders_total").iter().sum();
    assert_eq!(shipped, ladders);
    assert!(
        batches <= ladders && ladders <= logical as f64,
        "{batches} RPCs carried {ladders} ladders for {logical} logical dispatches"
    );
    assert!(
        batches < logical as f64,
        "rounds must cost fewer RPCs ({batches}) than logical dispatches ({logical})"
    );

    // The result cache's series, with the service's names: present, and
    // no counter goes backwards across scrapes. The repeated SPQ is a hit.
    let spq = gen.spq_from(&h.full, h.applied);
    h.cluster.travel_times(&spq).expect("cluster SPQ");
    h.cluster.travel_times(&spq).expect("cluster SPQ");
    let cache_after = cache_series(&h.cluster.render_metrics());
    for ((name, was), (_, now)) in cache_before.iter().zip(&cache_after) {
        if name.ends_with("_total") {
            assert!(now >= was, "{name} went from {was} to {now}");
        }
    }
    assert!(cache_after[0].1 > cache_before[0].1, "{cache_after:?}");
}

/// The router's `tthr_cache_*` series, hits first; panics if one is
/// missing.
fn cache_series(text: &str) -> Vec<(&'static str, f64)> {
    [
        "tthr_cache_hits_total",
        "tthr_cache_misses_total",
        "tthr_cache_evictions_total",
        "tthr_cache_admission_rejected_total",
        "tthr_cache_invalidations_total",
        "tthr_cache_entries",
        "tthr_cache_capacity",
    ]
    .into_iter()
    .map(|name| {
        let value = series_value(text, name).unwrap_or_else(|| panic!("{name} missing:\n{text}"));
        (name, value)
    })
    .collect()
}
