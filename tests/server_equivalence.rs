//! End-to-end differential harness for the HTTP front-end: every endpoint
//! must answer **byte-identically** to encoding the in-process
//! [`QueryService`] result with the same wire functions — for the
//! monolithic and the sharded (K = 2) backend, across query/append
//! interleavings, and after a concurrent query/append phase.
//!
//! Two services are built from the same datagen stream: one behind the
//! server (queried over loopback TCP), one driven in-process (the
//! oracle). Appends go to the server as raw `/append` payload deltas and
//! to the oracle through the original grown-set `append_batch` path, so
//! the comparison also differentially validates the new
//! `QueryService::append_new` plumbing against the old entry point.
//!
//! Every `/spq` is asked twice, as JSON and as a frame: the repeat is a
//! result-cache hit the reactor answers itself, and it must be the same
//! bytes — including right after an append or a retention pass.

mod common;

use common::differential::QueryGen;
use common::http::{encode_frame_request, post, HttpClient};
use common::prefix_set;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tthr::core::{ShardedSntIndex, SntConfig, SntIndex, Spq, TravelTimes};
use tthr::rpc::{encode_frame, Message};
use tthr::server::{serve, wire, ServerConfig, ServerHandle};
use tthr::service::{IngestConfig, QueryService, ServiceBackend, ServiceConfig};
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

/// One backend flavor under test: a served service + an in-process oracle
/// over the same trajectory stream.
struct Harness<B: ServiceBackend> {
    server: Option<ServerHandle>,
    addr: SocketAddr,
    oracle: QueryService<B>,
    full: TrajectorySet,
    applied: usize,
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        num_threads: 2,
        ..ServiceConfig::default()
    }
}

impl<B: ServiceBackend> Harness<B> {
    fn new(build: impl Fn(&TrajectorySet) -> (QueryService<B>, QueryService<B>)) -> Harness<B> {
        let (_, full) = common::small_world();
        let applied = full.len() * 2 / 3;
        let initial = prefix_set(&full, applied);
        let (served, oracle) = build(&initial);
        let server = serve(served, "127.0.0.1:0", ServerConfig::default()).expect("boot server");
        Harness {
            addr: server.local_addr(),
            server: Some(server),
            oracle,
            full,
            applied,
        }
    }

    /// Asserts `/spq` and (for every third query) `/trip` answer
    /// byte-identically to the oracle.
    fn check_queries(&self, queries: &[Spq]) {
        let server = self.server.as_ref().expect("server running");
        for (i, q) in queries.iter().enumerate() {
            let body = wire::encode_spq(q);
            assert_spq_twice(server, q, body.as_bytes(), &self.oracle.get_travel_times(q));
            if i % 3 == 0 {
                let response = post(self.addr, "/trip", body.as_bytes());
                assert_eq!(response.status, 200, "{}", response.body_str());
                let expected = wire::encode_trip(&self.oracle.trip_query(q));
                assert_eq!(
                    response.body_str(),
                    expected,
                    "trip response diverged for {q:?}"
                );
            }
        }
    }

    /// Asserts `/batch` answers byte-identically to the oracle.
    fn check_batch(&self, queries: &[Spq]) {
        let body = format!(
            "{{\"queries\":[{}]}}",
            queries
                .iter()
                .map(wire::encode_spq)
                .collect::<Vec<_>>()
                .join(",")
        );
        let response = post(self.addr, "/batch", body.as_bytes());
        assert_eq!(response.status, 200, "{}", response.body_str());
        let expected = wire::encode_trips(&self.oracle.batch_trip_queries(queries));
        assert_eq!(response.body_str(), expected, "batch response diverged");
    }

    /// Appends the next `n` stream trajectories: the server gets the raw
    /// payload delta over `/append`, the oracle gets the grown prefix set
    /// through `append_batch`.
    fn append_next(&mut self, n: usize) {
        let to = (self.applied + n).min(self.full.len());
        if to == self.applied {
            return;
        }
        let payload: Vec<(UserId, Vec<TrajEntry>)> = (self.applied..to)
            .map(|id| {
                let tr = self.full.get(TrajId(id as u32));
                (tr.user(), tr.entries().to_vec())
            })
            .collect();
        let body = wire::encode_append_request(Some(self.applied as u64), &payload);
        let response = post(self.addr, "/append", body.as_bytes());
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(
            response.body_str(),
            wire::encode_appended(to - self.applied),
            "append count diverged"
        );
        // Replaying the same stamped batch is a no-op, like WAL replay.
        let replay = post(self.addr, "/append", body.as_bytes());
        assert_eq!(replay.body_str(), wire::encode_appended(0));

        let grown = prefix_set(&self.full, to);
        assert_eq!(
            self.oracle.append_batch(&grown).expect("oracle append"),
            to - self.applied
        );
        self.applied = to;
    }

    fn shutdown(mut self) {
        self.server.take().expect("server still running").shutdown();
    }
}

/// Asks one `/spq` twice as JSON, then twice as a frame, and asserts every
/// answer is `want` in its encoding. The repeats are result-cache hits, so
/// the reactor answers them: `inline_hits` advances by exactly one each.
fn assert_spq_twice(server: &ServerHandle, q: &Spq, json: &[u8], want: &TravelTimes) {
    let addr = server.local_addr();
    let want_json = wire::encode_travel_times(want);
    let want_frame = encode_frame(&Message::TravelTimesResult {
        values: want.values.to_vec(),
        fallback: want.fallback,
    });
    let frame = encode_frame_request(&encode_frame(&Message::TravelTimes(q.clone())));
    let mut client = HttpClient::connect(addr);
    for ask in 0..4 {
        let hits = server.metrics().inline_hits;
        let response = if ask < 2 {
            client.request("POST", "/spq", json)
        } else {
            client.send_raw(&frame);
            client.read_response()
        };
        assert_eq!(response.status, 200, "{q:?}: {:?}", response.body);
        let want: &[u8] = if ask < 2 {
            want_json.as_bytes()
        } else {
            &want_frame
        };
        assert_eq!(response.body, want, "spq response {ask} diverged for {q:?}");
        if ask > 0 {
            let now = server.metrics().inline_hits;
            assert_eq!(now, hits + 1, "repeat {ask} of {q:?} not answered inline");
        }
    }
}

/// Runs the interleaved differential scenario against one harness. After
/// every append the previous round's queries, all cached by then, are
/// asked again: the reactor must not answer from an entry the append made
/// stale.
fn run_scenario<B: ServiceBackend>(name: &str, mut harness: Harness<B>) {
    let mut gen = QueryGen::new(name);
    for round in 0..4 {
        let queries: Vec<Spq> = (0..12)
            .map(|_| gen.spq_from(&harness.full, harness.applied))
            .collect();
        harness.check_queries(&queries);
        harness.check_batch(&queries[..6.min(queries.len())]);
        if round < 3 {
            harness.append_next(2 + round);
            harness.check_queries(&queries);
        }
    }
    harness.shutdown();
}

#[test]
fn monolith_endpoints_match_in_process_service() {
    let harness = Harness::new(|initial| {
        let make = || {
            let (syn, _) = common::small_world();
            let network = Arc::new(syn.network);
            QueryService::new(
                SntIndex::build(&network, initial, SntConfig::default()),
                network,
                service_config(),
            )
        };
        (make(), make())
    });
    run_scenario("monolith_endpoints", harness);
}

#[test]
fn sharded_endpoints_match_in_process_service() {
    let harness = Harness::new(|initial| {
        let make = || {
            let (syn, _) = common::small_world();
            let network = Arc::new(syn.network);
            QueryService::new(
                ShardedSntIndex::build(&network, initial, SntConfig::default(), 2),
                network,
                service_config(),
            )
        };
        (make(), make())
    });
    run_scenario("sharded_endpoints", harness);
}

/// Queries racing appends over HTTP: every response stays well-formed
/// mid-append, and once the appends quiesce the served answers are again
/// byte-identical to the oracle with the full stream applied.
#[test]
fn concurrent_appends_keep_responses_sound() {
    let mut harness = Harness::new(|initial| {
        let make = || {
            let (syn, _) = common::small_world();
            let network = Arc::new(syn.network);
            QueryService::new(
                ShardedSntIndex::build(&network, initial, SntConfig::default(), 2),
                network,
                service_config(),
            )
        };
        (make(), make())
    });
    let mut gen = QueryGen::new("concurrent_appends");
    let queries: Vec<Spq> = (0..16)
        .map(|_| gen.spq_from(&harness.full, harness.applied))
        .collect();

    let addr = harness.addr;
    let appender = {
        let payloads: Vec<String> = {
            let mut bodies = Vec::new();
            let mut from = harness.applied;
            while from < harness.full.len() {
                let to = (from + 2).min(harness.full.len());
                let payload: Vec<(UserId, Vec<TrajEntry>)> = (from..to)
                    .map(|id| {
                        let tr = harness.full.get(TrajId(id as u32));
                        (tr.user(), tr.entries().to_vec())
                    })
                    .collect();
                bodies.push(wire::encode_append_request(Some(from as u64), &payload));
                from = to;
            }
            bodies
        };
        std::thread::spawn(move || {
            for body in payloads {
                let response = post(addr, "/append", body.as_bytes());
                assert_eq!(response.status, 200, "{}", response.body_str());
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr);
                for (i, q) in queries.iter().cycle().take(48).enumerate() {
                    let path = if (i + r) % 7 == 0 { "/trip" } else { "/spq" };
                    let response = client.request("POST", path, wire::encode_spq(q).as_bytes());
                    assert_eq!(response.status, 200, "{}", response.body_str());
                    // Sound JSON even mid-append.
                    tthr::server::json::parse(&response.body).expect("well-formed body");
                }
            })
        })
        .collect();
    appender.join().expect("appender");
    for r in readers {
        r.join().expect("reader");
    }

    // Quiesced: bring the oracle to the full stream and re-compare.
    let full = harness.full.len();
    harness
        .oracle
        .append_batch(&prefix_set(&harness.full, full))
        .expect("oracle catch-up");
    harness.applied = full;
    let final_queries: Vec<Spq> = (0..12).map(|_| gen.spq_from(&harness.full, full)).collect();
    harness.check_queries(&final_queries);
    harness.shutdown();
}

/// Hot-tail ingestion over HTTP: a served service that absorbs `/append`
/// payloads into its hot tail answers every endpoint byte-identically to
/// a direct-append oracle, straight through a mid-stream compaction — and
/// `/health` + `/metrics` expose the lifecycle while it happens.
#[test]
fn hot_tail_server_matches_direct_append_oracle() {
    let (syn, full) = common::small_world();
    let network = Arc::new(syn.network);
    let applied = full.len() * 2 / 3;
    let initial = prefix_set(&full, applied);

    let served = QueryService::new(
        SntIndex::build(&network, &initial, SntConfig::default()),
        network.clone(),
        ServiceConfig {
            ingest: IngestConfig {
                hot_tail: true,
                ..IngestConfig::default()
            },
            ..service_config()
        },
    );
    // Keep a handle on the served service so the test can seal the tail
    // mid-stream, exactly like the background compactor would.
    let lifecycle = served.clone();
    let oracle = QueryService::new(
        SntIndex::build(&network, &initial, SntConfig::default()),
        network,
        service_config(),
    );
    let server = serve(served, "127.0.0.1:0", ServerConfig::default()).expect("boot server");
    let mut harness = Harness {
        addr: server.local_addr(),
        server: Some(server),
        oracle,
        full,
        applied,
    };

    let mut gen = QueryGen::new("hot_tail_endpoints");
    for round in 0..4 {
        let queries: Vec<Spq> = (0..12)
            .map(|_| gen.spq_from(&harness.full, harness.applied))
            .collect();
        harness.check_queries(&queries);
        harness.check_batch(&queries[..6]);
        if round < 3 {
            harness.append_next(2 + round);
            assert!(
                lifecycle.hot_stats().entries > 0,
                "round {round}: /append must land in the hot tail"
            );
        }
        if round == 1 {
            // Seal between rounds: the next round's byte-compares run
            // against freshly compacted state.
            let outcome = lifecycle.compact_now().expect("compact");
            assert!(outcome.sealed_entries > 0);
            assert_eq!(lifecycle.hot_stats().entries, 0);
        }
    }

    // The lifecycle is observable over the wire.
    let mut client = HttpClient::connect(harness.addr);
    let health = client.request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    let parsed = tthr::server::json::parse(&health.body).expect("health json");
    let ingest = parsed.get("ingest").expect("ingest status");
    assert_eq!(ingest.get("hot_tail").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(ingest.get("compactions").and_then(|v| v.as_i64()), Some(1));
    assert!(ingest.get("hot_entries").and_then(|v| v.as_i64()).unwrap() > 0);

    let exposition = client.request("GET", "/metrics", b"");
    assert_eq!(exposition.status, 200);
    let text = exposition.body_str();
    tthr::metrics::validate_exposition(text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    assert!(text.contains("tthr_compactions_total 1"), "{text}");
    assert!(text.contains("tthr_hot_tail_entries"), "{text}");
    assert!(
        text.contains("tthr_compaction_sealed_batches_total"),
        "{text}"
    );
    harness.shutdown();
}

/// A retention pass that drops partitions changes answers the cache holds:
/// after it, every `/spq` the reactor answers is the served index's own
/// uncached answer, never the pre-retention entry.
#[test]
fn retention_leaves_no_stale_inline_hit() {
    let (syn, full) = common::small_world();
    let network = Arc::new(syn.network);
    let applied = full.len() * 2 / 3;
    let served = QueryService::new(
        SntIndex::build(&network, &prefix_set(&full, applied), SntConfig::default()),
        network,
        ServiceConfig {
            ingest: IngestConfig {
                hot_tail: true,
                retention: Some(Duration::from_secs(86_400)),
                ..IngestConfig::default()
            },
            ..service_config()
        },
    );
    let lifecycle = served.clone();
    let server = serve(served, "127.0.0.1:0", ServerConfig::default()).expect("boot server");
    let mut gen = QueryGen::new("retention_inline_hits");
    let queries: Vec<Spq> = (0..12).map(|_| gen.spq_from(&full, applied)).collect();
    let check = || -> Vec<TravelTimes> {
        queries
            .iter()
            .map(|q| {
                let truth = lifecycle.with_index(|index| index.get_travel_times(q));
                assert_spq_twice(&server, q, wire::encode_spq(q).as_bytes(), &truth);
                truth
            })
            .collect()
    };
    let before = check();

    // One trajectory ten days past the data: the retention horizon moves
    // past everything the initial build holds.
    let far = lifecycle.with_index(|index| index.max_data_time()) + 10 * 86_400;
    let payload = [(
        UserId(0),
        vec![TrajEntry::new(queries[0].path.first(), far, 5.0)],
    )];
    let body = wire::encode_append_request(Some(applied as u64), &payload);
    let response = post(server.local_addr(), "/append", body.as_bytes());
    assert_eq!(response.body_str(), wire::encode_appended(1));
    check();

    let outcome = lifecycle.compact_now().expect("compact");
    assert!(outcome.dropped_partitions > 0, "{outcome:?}");
    assert_ne!(check(), before, "retention must change some answer");
    server.shutdown();
}

/// A travel time past a day is refused at `/append` with a `400`. Were it
/// indexed, every histogram over its edge would size its buckets by it
/// (`1e234` s asks for ≈ 10²³³ buckets): a `500` on every `/trip` there.
#[test]
fn an_overlong_travel_time_is_a_400_and_never_a_500() {
    let (syn, set) = common::small_world();
    let network = Arc::new(syn.network);
    let service = QueryService::new(
        SntIndex::build(&network, &set, SntConfig::default()),
        network,
        service_config(),
    );
    let server = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("boot");
    let mut client = HttpClient::connect(server.local_addr());
    let first = set.get(TrajId(0)).entries()[0];
    let trip = Spq::new(
        tthr::network::Path::new(vec![first.edge]),
        tthr::core::TimeInterval::fixed(first.enter_time - 60, first.enter_time + 60),
    );
    let payload = [(
        UserId(0),
        vec![TrajEntry::new(first.edge, first.enter_time + 1, 1e234)],
    )];
    let body = wire::encode_append_request(None, &payload);
    let response = client.request("POST", "/append", body.as_bytes());
    assert_eq!(response.status, 400, "{}", response.body_str());
    let response = client.request("POST", "/trip", wire::encode_spq(&trip).as_bytes());
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(server.shutdown().server_errors, 0);
}

/// The inline endpoints and the error paths of the router.
#[test]
fn health_stats_and_router_errors() {
    let (syn, set) = common::small_world();
    let network = Arc::new(syn.network);
    let service = QueryService::new(
        SntIndex::build(&network, &set, SntConfig::default()),
        network,
        service_config(),
    );
    let server = serve(service.clone(), "127.0.0.1:0", ServerConfig::default()).expect("boot");
    let addr = server.local_addr();

    let mut client = HttpClient::connect(addr);
    let health = client.request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    let parsed = tthr::server::json::parse(&health.body).expect("health json");
    assert_eq!(parsed.get("status").and_then(|v| v.as_str()), Some("ok"));
    let ingest = parsed.get("ingest").expect("health carries ingest status");
    assert_eq!(
        ingest.get("hot_tail").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert_eq!(ingest.get("compactions").and_then(|v| v.as_i64()), Some(0));

    // Drive some traffic, then check /stats reflects it.
    let mut gen = QueryGen::new("stats_shape");
    for _ in 0..5 {
        let q = gen.spq_from(&set, set.len());
        let r = client.request("POST", "/spq", wire::encode_spq(&q).as_bytes());
        assert_eq!(r.status, 200);
    }
    let stats = client.request("GET", "/stats", b"");
    assert_eq!(stats.status, 200);
    let parsed = tthr::server::json::parse(&stats.body).expect("stats json");
    assert_eq!(
        parsed.get("spq_queries").and_then(|v| v.as_i64()),
        Some(5),
        "{}",
        stats.body_str()
    );
    let spq_ep = parsed
        .get("endpoints")
        .and_then(|e| e.get("spq"))
        .expect("per-endpoint block");
    assert_eq!(
        spq_ep
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(|v| v.as_i64()),
        Some(5)
    );
    assert!(
        !spq_ep
            .get("buckets_ns")
            .and_then(|b| b.as_arr())
            .expect("bucket export")
            .is_empty(),
        "raw bucket export must be present"
    );
    let server_block = parsed.get("server").expect("server counters");
    assert!(
        server_block
            .get("requests")
            .and_then(|v| v.as_i64())
            .unwrap()
            >= 6
    );
    assert!(
        server_block
            .get("bytes_in")
            .and_then(|v| v.as_i64())
            .unwrap()
            > 0,
        "socket byte accounting must be live"
    );

    // /metrics: a strictly well-formed Prometheus exposition covering the
    // whole stack — service series with the traffic just driven, plus the
    // mirrored reactor counters.
    let exposition = client.request("GET", "/metrics", b"");
    assert_eq!(exposition.status, 200);
    assert!(exposition
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let text = exposition.body_str();
    tthr::metrics::validate_exposition(text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    assert!(
        text.contains("tthr_requests_total{endpoint=\"spq\"} 5"),
        "{text}"
    );
    assert!(text.contains("tthr_server_requests_total"), "{text}");
    assert!(text.contains("tthr_server_bytes_read_total"), "{text}");

    // /debug/slow: well-formed JSON with traced entries for the traffic.
    let slow = client.request("GET", "/debug/slow", b"");
    assert_eq!(slow.status, 200);
    let slow_parsed = tthr::server::json::parse(&slow.body).expect("slow json");
    let top = slow_parsed
        .get("top")
        .and_then(|v| v.as_arr())
        .expect("top array");
    assert!(!top.is_empty(), "{}", slow.body_str());
    assert!(
        top.iter()
            .all(|e| e.get("endpoint").and_then(|v| v.as_str()) == Some("spq")),
        "{}",
        slow.body_str()
    );
    let total_rank_ops: i64 = top
        .iter()
        .map(|e| {
            e.get("trace")
                .and_then(|t| t.get("rank_ops"))
                .and_then(|v| v.as_i64())
                .expect("trace.rank_ops")
        })
        .sum();
    assert!(total_rank_ops > 0, "{}", slow.body_str());

    // Router errors: wrong method, unknown path, malformed JSON body —
    // all keep the connection alive.
    assert_eq!(client.request("GET", "/spq", b"").status, 405);
    assert_eq!(client.request("POST", "/nope", b"{}").status, 404);
    assert_eq!(client.request("POST", "/spq", b"{nope").status, 400);
    assert_eq!(client.request("POST", "/spq", b"{}").status, 400);
    // Bad append payloads: 400 on validation, 409 on a gapped stamp.
    let gapped = format!(
        "{{\"base\":{},\"trajectories\":[{{\"user\":0,\"entries\":[[0,1,1.0]]}}]}}",
        set.len() + 10
    );
    assert_eq!(
        client.request("POST", "/append", gapped.as_bytes()).status,
        409
    );
    let invalid = "{\"trajectories\":[{\"user\":0,\"entries\":[[0,9,1.0],[1,3,1.0]]}]}";
    assert_eq!(
        client.request("POST", "/append", invalid.as_bytes()).status,
        400
    );
    // The connection survived every error: health still answers.
    assert_eq!(client.request("GET", "/health", b"").status, 200);

    let metrics = server.shutdown();
    assert!(metrics.requests >= 13);
    assert!(metrics.client_errors >= 6);
    assert_eq!(metrics.server_errors, 0);
}
