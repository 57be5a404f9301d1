//! Backpressure and lifecycle battery for the HTTP front-end.
//!
//! Proves the serving contract under hostile load:
//!
//! * a client flood beyond the bounded queue never puts more than
//!   `queue_cap` requests in flight on the worker pool, sheds the excess
//!   with `503` + `Retry-After`, and answers *every* request exactly once
//!   (no drops, no duplicates, no torn responses);
//! * keep-alive connections survive served-then-idle cycles; idle and
//!   slow-loris connections are reaped by the idle timeout;
//! * pipelined requests come back in order, each after its
//!   predecessors' effects (an `/spq` behind an `/append` sees it);
//!   pipelined garbage after a valid request gets the valid response,
//!   then `400`, then a clean close; malformed `/spq` bodies, JSON or
//!   frame, get the pool's exact `400` and leave the connection usable;
//! * `ServerConfig::reactors` above 1 is refused, never ignored;
//! * graceful shutdown drains in-flight requests to the last byte while
//!   refusing new ones with `503` + `connection: close`;
//! * a cached `/spq` is answered by the reactor without a queue slot,
//!   in pipelining order, and without ever waiting on the index lock —
//!   but not after shutdown began.
//!
//! Every leg runs against both tiers the reactor serves: the
//! single-process server ([`serve`]) and the cluster router
//! ([`serve_router`] over in-process `serve_node` shards, the way the
//! benchmark builds its cluster); the router's tests carry a `router_`
//! prefix. One leg is a stated skip at the router:
//! `inline_answers_do_not_wait_for_the_index_lock` holds the service's
//! index lock through `QueryService::with_index`, and the router's gate
//! has no such handle.

mod common;

use common::cluster::CLUSTER_K;
use common::http::{encode_frame_request, encode_request, HttpClient};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tthr::client::{ClientConfig, ClusterRouter};
use tthr::core::{
    QueryEngineConfig, ShardNodeState, ShardedSntIndex, SntConfig, SntIndex, Spq, TimeInterval,
};
use tthr::rpc::{decode_frame, encode_frame, Decode, ErrCode, Message};
use tthr::server::http::FRAME_CONTENT_TYPE;
use tthr::server::node::{serve_node, NodeStore};
use tthr::server::{json, serve, serve_router, wire, ServerConfig, ServerHandle};
use tthr::service::{QueryService, ServiceConfig};
use tthr::trajectory::{TrajId, UserId};

/// The tier a leg runs against.
#[derive(Clone, Copy)]
enum Tier {
    /// `serve` over a monolithic `QueryService`.
    Process,
    /// `serve_router` over [`CLUSTER_K`] in-process `serve_node` shards.
    Router,
}

/// The shard stores of a router tier, removed when the leg ends.
struct Stores(PathBuf);

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A tier's world, ready to be served.
enum Backend {
    Process(QueryService),
    Router(Arc<ClusterRouter>),
}

impl Backend {
    fn serve(&self, config: ServerConfig) -> std::io::Result<ServerHandle> {
        match self {
            Backend::Process(service) => serve(service.clone(), "127.0.0.1:0", config),
            Backend::Router(router) => serve_router(Arc::clone(router), "127.0.0.1:0", config),
        }
    }
}

/// A served world plus a query whose path certainly matches data.
fn boot(tier: Tier, threads: usize, config: ServerConfig) -> (ServerHandle, Spq, Option<Stores>) {
    let (backend, spq, stores) = unserved(tier, threads);
    (backend.serve(config).expect("boot"), spq, stores)
}

/// [`boot`] before the serving. The router tier's pool is one worker per
/// CPU whatever `threads` says.
fn unserved(tier: Tier, threads: usize) -> (Backend, Spq, Option<Stores>) {
    match tier {
        Tier::Process => {
            let (service, spq) = world(threads);
            (Backend::Process(service), spq, None)
        }
        Tier::Router => {
            let (syn, set) = common::small_world();
            static BOOTS: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tthr-backpressure-{}-{}",
                std::process::id(),
                BOOTS.fetch_add(1, Ordering::Relaxed)
            ));
            let sharded =
                ShardedSntIndex::build(&syn.network, &set, SntConfig::default(), CLUSTER_K);
            let nodes: Vec<SocketAddr> = (0..CLUSTER_K)
                .map(|shard| {
                    let state = ShardNodeState::export_from(&sharded, shard);
                    let store = NodeStore::init(dir.join(format!("node{shard}")), state)
                        .expect("init node store");
                    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
                    let addr = listener.local_addr().expect("node addr");
                    std::thread::spawn(move || serve_node(listener, store));
                    addr
                })
                .collect();
            let router = ClusterRouter::connect(
                syn.network,
                &nodes,
                QueryEngineConfig::default(),
                ClientConfig::default(),
            )
            .expect("connect router");
            (
                Backend::Router(Arc::new(router)),
                query(&set),
                Some(Stores(dir)),
            )
        }
    }
}

/// [`boot`]'s service before it is served, and its query.
fn world(threads: usize) -> (QueryService, Spq) {
    let (syn, set) = common::small_world();
    let network = Arc::new(syn.network);
    let service = QueryService::new(
        SntIndex::build(&network, &set, SntConfig::default()),
        network,
        ServiceConfig {
            num_threads: threads,
            ..ServiceConfig::default()
        },
    );
    (service, query(&set))
}

/// A query whose path certainly matches data.
fn query(set: &tthr::trajectory::TrajectorySet) -> Spq {
    let tr = set.get(TrajId(0));
    let path_len = tr.len().min(3);
    Spq::new(
        tr.path().sub_path(0..path_len),
        TimeInterval::fixed(0, i64::MAX / 4),
    )
}

/// A query no other test asks, answered `∅` (or the speed-limit
/// estimate): never what `spq` answers, and uncached until asked.
fn uncached(spq: &Spq, k: i64) -> String {
    wire::encode_spq(&spq.clone().with_interval(TimeInterval::fixed(k, k + 1)))
}

/// Blocks until the server has parsed `n` requests in total.
fn wait_parsed(server: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().requests < n {
        assert!(Instant::now() < deadline, "request {n} never parsed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Flood 12 pipelining connections into a queue of 2 with a watermark of
/// 3 and a deliberately slow worker: bounded in-flight, shed overload,
/// full recovery.
#[test]
fn flood_bounds_inflight_and_sheds_with_retry_after() {
    flood(Tier::Process);
}

#[test]
fn router_flood_bounds_inflight_and_sheds_with_retry_after() {
    flood(Tier::Router);
}

fn flood(tier: Tier) {
    const CONNS: usize = 12;
    const PER_CONN: usize = 3;
    let config = ServerConfig {
        queue_cap: 2,
        shed_watermark: 3,
        worker_delay: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 1, config);
    let addr = server.local_addr();
    let body = wire::encode_spq(&spq);

    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            // Every request distinct: a cached one would be answered on
            // the reactor and never enter the window.
            let bodies: Vec<String> = (0..PER_CONN)
                .map(|i| wire::encode_spq(&spq.clone().with_beta((c * PER_CONN + i + 1) as u32)))
                .collect();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr);
                // Pipeline the whole burst in one write.
                let mut burst = Vec::new();
                for body in &bodies {
                    burst.extend_from_slice(&encode_request("POST", "/spq", body.as_bytes()));
                }
                client.send_raw(&burst);
                let mut statuses = Vec::new();
                for _ in 0..PER_CONN {
                    let response = client.read_response();
                    match response.status {
                        200 => assert!(response.body_str().starts_with("{\"values\":")),
                        503 => {
                            assert_eq!(
                                response.header("retry-after"),
                                Some("1"),
                                "overload 503 must carry Retry-After"
                            );
                        }
                        other => panic!("unexpected status {other}"),
                    }
                    statuses.push(response.status);
                }
                statuses
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut shed = 0usize;
    for client in clients {
        for status in client.join().expect("client thread") {
            match status {
                200 => ok += 1,
                _ => shed += 1,
            }
        }
    }
    assert_eq!(ok + shed, CONNS * PER_CONN, "every request answered once");
    assert!(shed > 0, "flood past cap+watermark must shed");
    assert!(ok > 0, "dispatched and parked requests must complete");

    let metrics = server.metrics();
    assert!(
        metrics.max_inflight <= 2,
        "worker pool saw {} > queue_cap in-flight",
        metrics.max_inflight
    );
    assert_eq!(metrics.shed as usize, shed);

    // Recovery: the same server serves a fresh request normally.
    let mut client = HttpClient::connect(addr);
    let response = client.request("POST", "/spq", body.as_bytes());
    assert_eq!(response.status, 200);
    server.shutdown();
}

/// A keep-alive connection survives a served-then-idle cycle; idle and
/// slow-loris (partial request line forever) connections are reaped.
#[test]
fn keep_alive_cycle_and_idle_reaping() {
    keep_alive_and_reaping(Tier::Process);
}

#[test]
fn router_keep_alive_cycle_and_idle_reaping() {
    keep_alive_and_reaping(Tier::Router);
}

fn keep_alive_and_reaping(tier: Tier) {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let addr = server.local_addr();
    let body = wire::encode_spq(&spq);

    let mut client = HttpClient::connect(addr);
    let first = client.request("POST", "/spq", body.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    // Idle less than the timeout: the connection must still serve.
    std::thread::sleep(Duration::from_millis(100));
    let second = client.request("POST", "/spq", body.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body, "same query, same answer");

    // Now go idle past the timeout: the server reaps the connection.
    std::thread::sleep(Duration::from_millis(700));
    assert!(client.at_eof(), "idle connection must be closed");

    // Slow loris: a partial request line that never completes.
    let mut loris = HttpClient::connect(addr);
    loris.send_raw(b"POST /spq HT");
    std::thread::sleep(Duration::from_millis(700));
    assert!(loris.at_eof(), "slow-loris connection must be closed");
    server.shutdown();
}

/// Pipelined responses come back in request order; garbage after a valid
/// pipelined request yields the valid answer, then 400, then close. The
/// server runs one reactor whatever `ServerConfig::reactors` asks.
#[test]
fn pipelining_order_and_garbage_handling() {
    pipelining_and_garbage(Tier::Process);
}

#[test]
fn router_pipelining_order_and_garbage_handling() {
    pipelining_and_garbage(Tier::Router);
}

fn pipelining_and_garbage(tier: Tier) {
    let (backend, spq, _stores) = unserved(tier, 2);
    // The server runs one reactor: `reactors` 0 (the default, served
    // below) and 1 boot it, and a larger value is refused, not ignored.
    let one = backend
        .serve(ServerConfig {
            reactors: 1,
            ..ServerConfig::default()
        })
        .expect("boot with one reactor");
    let health = HttpClient::connect(one.local_addr()).request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    one.shutdown();
    let refused = backend.serve(ServerConfig {
        reactors: 2,
        ..ServerConfig::default()
    });
    let refused = refused.err().expect("two reactors must be refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);

    let server = backend.serve(ServerConfig::default()).expect("boot");
    let addr = server.local_addr();
    let spq_body = wire::encode_spq(&spq);

    // Distinguishable endpoints pipelined in one write.
    let mut client = HttpClient::connect(addr);
    let mut burst = Vec::new();
    burst.extend_from_slice(&encode_request("GET", "/health", b""));
    burst.extend_from_slice(&encode_request("POST", "/spq", spq_body.as_bytes()));
    burst.extend_from_slice(&encode_request("GET", "/health", b""));
    client.send_raw(&burst);
    assert!(client
        .read_response()
        .body_str()
        .starts_with("{\"status\":\"ok\""));
    assert!(client
        .read_response()
        .body_str()
        .starts_with("{\"values\":"));
    assert!(client
        .read_response()
        .body_str()
        .starts_with("{\"status\":\"ok\""));

    // Valid request, then garbage, pipelined together.
    let mut mixed = HttpClient::connect(addr);
    let mut burst = encode_request("POST", "/spq", spq_body.as_bytes());
    burst.extend_from_slice(b"NOT EVEN HTTP\r\n\r\n");
    mixed.send_raw(&burst);
    assert_eq!(mixed.read_response().status, 200, "valid answer first");
    let error = mixed.read_response();
    assert_eq!(error.status, 400);
    assert_eq!(error.header("connection"), Some("close"));
    assert!(mixed.try_read_response().is_none(), "clean close after 400");

    // Oversized header block → 431 + close.
    let mut oversized = HttpClient::connect(addr);
    let mut huge = b"GET /health HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        huge.extend_from_slice(format!("x-pad-{i}: aaaaaaaaaaaaaaaa\r\n").as_bytes());
    }
    huge.extend_from_slice(b"\r\n");
    oversized.send_raw(&huge);
    let response = oversized.read_response();
    assert_eq!(response.status, 431);
    assert!(oversized.try_read_response().is_none(), "closed after 431");

    // Oversized declared body (past either tier's cap) → 413 + close.
    let mut big = HttpClient::connect(addr);
    big.send_raw(b"POST /spq HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n");
    assert_eq!(big.read_response().status, 413);
    server.shutdown();
}

/// Regression: a `Connection: close` request pipelined ahead of more
/// requests must not leak the connection. The close-marked response
/// flushes, everything behind it is dropped (nothing may follow a close
/// on the wire), and the connection actually closes — in *either* worker
/// completion order (the multi-thread pool plus repetition exercises
/// both: the bug leaked the conn when a later response completed first,
/// and wrote bytes after the close when it completed last).
#[test]
fn pipelined_close_request_never_leaks_the_connection() {
    pipelined_close(Tier::Process);
}

#[test]
fn router_pipelined_close_request_never_leaks_the_connection() {
    pipelined_close(Tier::Router);
}

fn pipelined_close(tier: Tier) {
    let config = ServerConfig {
        queue_cap: 8,
        worker_delay: Some(Duration::from_millis(5)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let addr = server.local_addr();
    let body = wire::encode_spq(&spq);

    for _ in 0..8 {
        let mut client = HttpClient::connect(addr);
        let mut burst = Vec::new();
        // First request asks to close; two more are pipelined behind it.
        burst.extend_from_slice(
            format!(
                "POST /spq HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .as_bytes(),
        );
        for _ in 0..2 {
            burst.extend_from_slice(&encode_request("POST", "/spq", body.as_bytes()));
        }
        client.send_raw(&burst);
        let first = client.read_response();
        assert_eq!(first.status, 200);
        assert_eq!(first.header("connection"), Some("close"));
        // Nothing follows a close: the later requests' responses are
        // dropped and the server closes the socket.
        assert!(
            client.try_read_response().is_none(),
            "no bytes may follow a connection: close response"
        );
    }
    // The key invariant the leak broke: every connection actually closed.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = server.metrics();
        if metrics.active_connections == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connections leaked: {metrics:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

/// Regression: requests pipelined *behind* a `connection: close` request
/// must not execute — their acks are guaranteed to be dropped, and a
/// side-effectful `/append` executed without a deliverable ack would
/// invite a client retry and a double-append.
#[test]
fn requests_behind_a_close_are_not_executed() {
    behind_a_close(Tier::Process);
}

#[test]
fn router_requests_behind_a_close_are_not_executed() {
    behind_a_close(Tier::Router);
}

fn behind_a_close(tier: Tier) {
    let config = ServerConfig {
        worker_delay: Some(Duration::from_millis(20)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let addr = server.local_addr();
    let spq_body = wire::encode_spq(&spq);
    // A stampless append pipelined behind a closing query: if it ran, the
    // service generation (the router's trajectory count) would move.
    let before = appends_seen(tier, addr);
    let append_body = r#"{"trajectories":[{"user":77,"entries":[[0,1000000,5.0]]}]}"#;

    let mut client = HttpClient::connect(addr);
    let mut burst = format!(
        "POST /spq HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        spq_body.len(),
        spq_body
    )
    .into_bytes();
    burst.extend_from_slice(&encode_request("POST", "/append", append_body.as_bytes()));
    client.send_raw(&burst);
    let first = client.read_response();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("close"));
    assert!(client.try_read_response().is_none(), "socket closed");

    // The pipelined append never ran.
    assert_eq!(
        appends_seen(tier, addr),
        before,
        "append behind a close must not execute"
    );
    server.shutdown();
}

/// What an executed `/append` moves: the service's `/stats` generation,
/// or the trajectory count on the router's `/health`.
fn appends_seen(tier: Tier, addr: SocketAddr) -> i64 {
    let (path, key) = match tier {
        Tier::Process => ("/stats", "generation"),
        Tier::Router => ("/health", "trajectories"),
    };
    let response = HttpClient::connect(addr).request("GET", path, b"");
    let parsed = json::parse(&response.body).expect("json body");
    let seen = parsed.get(key).and_then(|v| v.as_i64());
    seen.unwrap_or_else(|| panic!("no {key:?} in {}", response.body_str()))
}

/// Regression: malformed bytes behind an in-flight response must produce
/// exactly **one** error response, not one per read event — the reactor
/// retires the read side on a protocol error even while the error
/// response waits its turn behind earlier responses.
#[test]
fn malformed_tail_yields_exactly_one_error() {
    malformed_tail(Tier::Process);
}

#[test]
fn router_malformed_tail_yields_exactly_one_error() {
    malformed_tail(Tier::Router);
}

fn malformed_tail(tier: Tier) {
    let config = ServerConfig {
        worker_delay: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let addr = server.local_addr();
    let body = wire::encode_spq(&spq);

    let mut client = HttpClient::connect(addr);
    let mut burst = encode_request("POST", "/spq", body.as_bytes());
    burst.extend_from_slice(b"GARBAGE GARBAGE GARBAGE\r\n\r\n");
    client.send_raw(&burst);
    // Keep streaming garbage while the first request sits in the slow
    // worker: the broken parse state must not be re-read into duplicate
    // error responses.
    for _ in 0..10 {
        // Best-effort: the server may close mid-loop once the in-flight
        // response and the single 400 flush.
        client.send_raw_best_effort(b"more garbage\r\n");
        std::thread::sleep(Duration::from_millis(15));
    }
    assert_eq!(client.read_response().status, 200, "in-flight completes");
    assert_eq!(client.read_response().status, 400, "one error response");
    assert!(client.try_read_response().is_none(), "then a clean close");
    let metrics = server.shutdown();
    assert_eq!(
        metrics.client_errors, 1,
        "exactly one 400 counted: {metrics:?}"
    );
}

/// An `/spq` pipelined behind an `/append` on one connection is answered
/// after the append, with its effect: the reactor parses it only once
/// the append's ack is written, so the cache entry the append made stale
/// is gone by the time it is probed. The slow worker keeps the append in
/// flight while the pipelined `/spq` is already buffered.
#[test]
fn pipelined_spq_sees_the_append_ahead_of_it() {
    pipelined_append_then_spq(Tier::Process);
}

#[test]
fn router_pipelined_spq_sees_the_append_ahead_of_it() {
    pipelined_append_then_spq(Tier::Router);
}

fn pipelined_append_then_spq(tier: Tier) {
    let config = ServerConfig {
        worker_delay: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let body = wire::encode_spq(&spq);
    let mut client = HttpClient::connect(server.local_addr());
    let warm = client.request("POST", "/spq", body.as_bytes());
    assert_eq!(warm.status, 200);

    // One more traversal of the query's path, at the times trajectory 0
    // took it: inside the query's window.
    let (syn, set) = common::small_world();
    let traversal = set.get(TrajId(0)).entries()[..spq.path.len()].to_vec();
    let payload = vec![(UserId(77), traversal.clone())];
    let mut oracle = SntIndex::build(&syn.network, &set, SntConfig::default());
    assert_eq!(
        wire::encode_travel_times(&oracle.get_travel_times(&spq)),
        warm.body_str()
    );
    let mut after = set.clone();
    after
        .push(UserId(77), traversal)
        .expect("a valid traversal");
    assert_eq!(oracle.append_batch(&after), 1);
    let want = wire::encode_travel_times(&oracle.get_travel_times(&spq));
    assert_ne!(want, warm.body_str(), "the append must change the answer");

    let append = wire::encode_append_request(None, &payload);
    let mut burst = encode_request("POST", "/append", append.as_bytes());
    burst.extend_from_slice(&encode_request("POST", "/spq", body.as_bytes()));
    client.send_raw(&burst);
    assert_eq!(client.read_response().body_str(), wire::encode_appended(1));
    assert_eq!(client.read_response().body_str(), want, "a stale answer");
    server.shutdown();
}

/// Graceful shutdown: in-flight requests drain to the last byte, new
/// requests are refused with `503` + `connection: close`, the listener
/// stops accepting.
#[test]
fn graceful_shutdown_drains_and_refuses() {
    graceful_shutdown(Tier::Process);
}

#[test]
fn router_graceful_shutdown_drains_and_refuses() {
    graceful_shutdown(Tier::Router);
}

fn graceful_shutdown(tier: Tier) {
    let config = ServerConfig {
        queue_cap: 4,
        worker_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let addr = server.local_addr();
    let body = wire::encode_spq(&spq);
    // Cached before the shutdown, so the refusal below is checked on a
    // request the reactor could otherwise answer itself.
    let warm = HttpClient::connect(addr).request("POST", "/spq", body.as_bytes());
    assert_eq!(warm.status, 200);

    // In-flight: dispatched before the shutdown, slow in the worker.
    let mut inflight = HttpClient::connect(addr);
    inflight.send("POST", "/spq", uncached(&spq, 0).as_bytes());
    std::thread::sleep(Duration::from_millis(100)); // surely dispatched

    // An idle keep-alive connection: nothing to drain, so the shutdown
    // sweep closes it outright.
    let mut idle = HttpClient::connect(addr);

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(150)); // flag observed

    // New work pipelined behind the in-flight request: refused and told
    // to go away — but only *after* the in-flight response flushes
    // (pipelining order holds even while draining).
    inflight.send("POST", "/spq", body.as_bytes());
    let response = inflight.read_response();
    assert_eq!(response.status, 200, "in-flight request completes");
    tthr::server::json::parse(&response.body).expect("untorn body");
    let refused = inflight.read_response();
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("connection"), Some("close"));
    assert!(inflight.try_read_response().is_none(), "closed after drain");

    assert!(idle.at_eof(), "idle connection closed by the drain sweep");

    let metrics = shutdown.join().expect("shutdown thread");
    assert!(metrics.refused_shutdown >= 1, "{metrics:?}");
    assert!(metrics.responses_ok >= 1, "{metrics:?}");
    assert_eq!(metrics.inline_hits, 0, "{metrics:?}");
    assert_eq!(metrics.active_connections, 0, "every connection closed");

    // The listener is gone: no new connections.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener must be closed after shutdown"
    );
}

/// A cached `/spq` needs no queue slot: while a slow `/trip` holds a
/// window of one, the reactor answers it at once on another connection
/// while an uncached one parks; on one connection, a cached answer
/// pipelined behind an uncached one still comes second.
#[test]
fn cached_spq_is_answered_while_the_window_is_full() {
    cached_spq_while_the_window_is_full(Tier::Process);
}

#[test]
fn router_cached_spq_is_answered_while_the_window_is_full() {
    cached_spq_while_the_window_is_full(Tier::Router);
}

fn cached_spq_while_the_window_is_full(tier: Tier) {
    let config = ServerConfig {
        queue_cap: 1,
        worker_delay: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    };
    let (server, spq, _stores) = boot(tier, 2, config);
    let addr = server.local_addr();
    let cached = wire::encode_spq(&spq);
    let warm = HttpClient::connect(addr).request("POST", "/spq", cached.as_bytes());
    assert_eq!(warm.status, 200);

    let before = server.metrics();
    let mut trip = HttpClient::connect(addr);
    trip.send("POST", "/trip", cached.as_bytes());
    wait_parsed(&server, before.requests + 1);
    let mut parked = HttpClient::connect(addr);
    parked.send("POST", "/spq", uncached(&spq, 1).as_bytes());
    wait_parsed(&server, before.requests + 2);

    let hit = HttpClient::connect(addr).request("POST", "/spq", cached.as_bytes());
    assert_eq!((hit.status, &hit.body), (200, &warm.body));
    let during = server.metrics();
    assert_eq!(during.inline_hits, before.inline_hits + 1);
    assert_eq!(
        during.responses_ok,
        before.responses_ok + 1,
        "the trip and the parked /spq are still owed: {during:?}"
    );
    assert_eq!(trip.read_response().status, 200);
    assert_eq!(parked.read_response().status, 200);

    let mut client = HttpClient::connect(addr);
    let mut burst = encode_request("POST", "/spq", uncached(&spq, 2).as_bytes());
    burst.extend_from_slice(&encode_request("POST", "/spq", cached.as_bytes()));
    client.send_raw(&burst);
    let first = client.read_response();
    let second = client.read_response();
    assert_eq!(first.status, 200);
    assert_ne!(first.body, warm.body, "the miss answers first");
    assert_eq!(second.body, warm.body);
    let after = server.metrics();
    assert_eq!(after.inline_hits, before.inline_hits + 2);
    assert_eq!(after.max_inflight, 1);
    server.shutdown();
}

/// `/spq` bodies that do not decode get exactly the status and body the
/// worker pool gave them, in their own content type; a body larger than
/// one read chunk is not decoded on the reactor but still answered, by
/// the pool.
#[test]
fn malformed_and_oversized_spq_bodies() {
    malformed_and_oversized(Tier::Process);
}

#[test]
fn router_malformed_and_oversized_spq_bodies() {
    malformed_and_oversized(Tier::Router);
}

fn malformed_and_oversized(tier: Tier) {
    let num_edges = common::small_world().0.network.num_edges();
    let (server, spq, _stores) = boot(tier, 2, ServerConfig::default());
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr);

    let json_error = |body: &[u8]| match json::parse(body) {
        Err(e) => wire::encode_error(&e.to_string()),
        Ok(v) => wire::encode_error(&wire::decode_spq(&v, num_edges).expect_err("malformed")),
    };
    let padding = " ".repeat(20 * 1024);
    let interval = r#""interval":{"type":"fixed","start":0,"end":1}"#;
    for body in [
        "{nope".to_string(),
        "{}".to_string(),
        format!(r#"{{"path":[],{interval}}}"#),
        format!(r#"{{"path":[{num_edges}],{interval}}}"#),
        r#"{"path":[0],"interval":{"type":"weekly"}}"#.to_string(),
        format!("{{{padding}\"path\":7}}"),
    ] {
        let response = client.request("POST", "/spq", body.as_bytes());
        assert_eq!(response.status, 400, "{body:.40}");
        assert_eq!(
            response.body_str(),
            json_error(body.as_bytes()),
            "{body:.40}"
        );
    }

    let good = encode_frame(&Message::TravelTimes(spq.clone()));
    let reject = |reason: &str| encode_frame(&Message::error(ErrCode::BadRequest, reason));
    let mut trailing = good.clone();
    trailing.push(0);
    let mut corrupt = good.clone();
    *corrupt.last_mut().unwrap() ^= 1;
    let crc_error = decode_frame(&corrupt).expect_err("corrupt").to_string();
    let far_edge = Spq::new(
        tthr::network::Path::new(vec![tthr::network::EdgeId(num_edges as u32)]),
        TimeInterval::fixed(0, 1),
    );
    let range_error = far_edge
        .check_edges(num_edges)
        .expect_err("out of range")
        .to_string();
    for (frame, want) in [
        (good[..good.len() / 2].to_vec(), reject("truncated frame")),
        (trailing, reject("trailing bytes after frame")),
        (
            encode_frame(&Message::Health),
            reject("expected a TravelTimes frame"),
        ),
        (corrupt, reject(&crc_error)),
        (
            encode_frame(&Message::TravelTimes(far_edge)),
            reject(&range_error),
        ),
    ] {
        client.send_raw(&encode_frame_request(&frame));
        let response = client.read_response();
        assert_eq!(response.status, 400);
        assert_eq!(response.body, want);
    }
    // The errors were the requests', not the connection's: a good frame
    // on it still answers.
    client.send_raw(&encode_frame_request(&good));
    let response = client.read_response();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some(FRAME_CONTENT_TYPE));
    assert!(matches!(
        decode_frame(&response.body),
        Ok(Decode::Done {
            message: Message::TravelTimesResult { .. },
            consumed,
        }) if consumed == response.body.len()
    ));
    assert_eq!(server.metrics().inline_hits, 0);

    // Cached, then asked again with the body padded past one read chunk:
    // the pool answers it, byte for byte.
    let small = wire::encode_spq(&spq);
    let first = client.request("POST", "/spq", small.as_bytes());
    assert_eq!(first.status, 200);
    let padded = format!("{{{padding}{}", &small[1..]);
    let hits = server.metrics().inline_hits;
    let response = client.request("POST", "/spq", padded.as_bytes());
    assert_eq!((response.status, &response.body), (200, &first.body));
    assert_eq!(server.metrics().inline_hits, hits, "answered by the pool");
    let response = client.request("POST", "/spq", small.as_bytes());
    assert_eq!(response.body, first.body);
    assert_eq!(server.metrics().inline_hits, hits + 1);
    server.shutdown();
}

/// The reactor's inline answers never wait on the index lock: with a
/// reader holding it and an `/append` queued for the write lock (which
/// then refuses new readers), `/health`, `/metrics` and a cached `/spq`
/// still answer; the append lands once the reader lets go.
#[test]
fn inline_answers_do_not_wait_for_the_index_lock() {
    let (service, spq) = world(2);
    let service = &service;
    let server = serve(service.clone(), "127.0.0.1:0", ServerConfig::default()).expect("boot");
    let addr = server.local_addr();
    let cached = wire::encode_spq(&spq);
    assert_eq!(
        HttpClient::connect(addr)
            .request("POST", "/spq", cached.as_bytes())
            .status,
        200
    );

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (answered_tx, answered_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        // Owned here, so a failed assertion drops it and frees the lock.
        let release_tx = release_tx;
        scope.spawn(move || {
            service.with_index(|_| {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        });
        held_rx.recv().unwrap();
        let mut appender = HttpClient::connect(addr);
        let append = r#"{"trajectories":[{"user":77,"entries":[[0,1000000,5.0]]}]}"#;
        appender.send("POST", "/append", append.as_bytes());
        // Time for the worker to queue on the write lock; the inline
        // answers must not depend on whether it has.
        std::thread::sleep(Duration::from_millis(200));
        let cached = &cached;
        scope.spawn(move || {
            let mut client = HttpClient::connect(addr);
            let statuses = [
                client.request("GET", "/health", b"").status,
                client.request("GET", "/metrics", b"").status,
                client.request("POST", "/spq", cached.as_bytes()).status,
            ];
            answered_tx.send(statuses)
        });
        let answered = answered_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        assert_eq!(
            answered.expect("an inline answer waited on the index lock"),
            [200; 3]
        );
        assert_eq!(
            appender.read_response().body_str(),
            wire::encode_appended(1)
        );
    });
    assert_eq!(server.shutdown().inline_hits, 1);
}
