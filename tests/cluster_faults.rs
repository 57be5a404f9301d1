//! The kill-a-replica battery: fault injection against a real 2-process
//! cluster. Every failure mode must surface as a *typed* error — never a
//! panic, never a silently partial answer — and a killed replica must
//! reconverge byte-identically from its snapshot + WAL after restart.
//!
//! Covered here:
//!
//! * killed shard process → [`ClusterError::ShardUnavailable`] with the
//!   shard id, bounded retry-with-backoff actually attempted (counters
//!   asserted), healthy shards still answering byte-identically;
//! * trip queries touching a dead shard abort whole — the error slot in
//!   the remote backend never lets a partial trip escape;
//! * restart from snapshot + WAL replay (no snapshot rotation in
//!   between, so the WAL path really runs) → byte-identical answers;
//! * torn and corrupt frames → typed node-side errors on a live
//!   connection, and the node keeps serving new connections;
//! * a socket that accepts but never answers → timeout → typed
//!   unavailability, not a hang;
//! * out-of-order appends → [`ClusterError::WalGap`]-shaped `Err` frames
//!   carrying both stamps;
//! * a shard that dies between two relaxation rounds of a trip → the
//!   whole trip aborts typed and stops dispatching; malformed ladder
//!   batches and out-of-range edge ids → typed `BadRequest`, a short
//!   batch reply → typed `Unexpected`;
//! * concurrent `/append` requests carrying one stamp → exactly one lands;
//! * the router's HTTP failure table: a killed shard → `503`, a corrupt
//!   reply frame → `502`, a malformed body or out-of-range edge → `400`,
//!   and a `/batch` answers its first failing trip's status, never a
//!   partial body;
//! * `/health` answers from router state with a shard down;
//! * a connection burst past a node's or the router's fd limit leaves it
//!   serving, and the router's reactor does not spin while it lasts.

mod common;

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::cluster::{
    read_listening_line, relay, relay_bytes, relay_that_dies_on_ladder_batch, router_rpcs,
    ClusterHarness,
};
use common::differential::QueryGen;
use common::http::{encode_frame_request, HttpClient};
use tthr::client::{ClientConfig, ClusterError, ClusterRouter, NodeClient, RouterConfig};
use tthr::core::node::{MAX_LADDER_BATCH, MAX_LADDER_LEVELS};
use tthr::core::{CardinalityMode, NodeWalRecord, Spq, TimeInterval};
use tthr::network::{EdgeId, Path};
use tthr::rpc::{encode_frame, read_frame, ErrCode, Message};
use tthr::server::cluster::{router_config, serve_cluster, status_of};
use tthr::server::wire::{self, encode_append_request};
use tthr::server::{json, serve_router, ServerHandle};

/// Short-fuse transport config so fault scenarios fail fast instead of
/// hanging the suite.
fn quick() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        retries: 2,
        backoff: Duration::from_millis(10),
    }
}

/// Draws queries until one routes to `shard`.
fn spq_routed_to(h: &ClusterHarness, gen: &mut QueryGen, shard: usize) -> Spq {
    spq_routed_to_with(h, shard, || gen.spq_from(&h.full, h.applied))
}

#[test]
fn killed_replica_is_typed_and_restart_reconverges_from_wal() {
    let mut h = ClusterHarness::boot("faults-kill", quick());
    let mut gen = QueryGen::new("cluster_faults_kill");

    // Grow past the bootstrap snapshot WITHOUT rotating it, so the
    // eventual restart must replay real WAL records.
    h.append_next(h.full.len() / 6 + 1);
    h.append_next(h.full.len() / 6 + 1);

    let dead_spq = spq_routed_to(&h, &mut gen, 0);
    let alive_spq = spq_routed_to(&h, &mut gen, 1);
    h.check_spq(&dead_spq);
    h.check_spq(&alive_spq);

    h.kill_node(0);

    // Single-shard primitive on the dead shard: typed, with the shard id.
    match h.cluster.travel_times(&dead_spq) {
        Err(ClusterError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("dead shard must be typed unavailable, got {other:?}"),
    }
    // The bounded retry actually ran (transport retries are counted).
    let stats = h.cluster.node_stats();
    assert!(
        stats[0].retries > 0,
        "no retries recorded against the dead shard: {stats:?}"
    );
    assert_eq!(stats[0].shard, 0);

    // A whole trip query touching the dead shard aborts typed — the
    // engine's dummy-fallback answers never leak out as a result.
    match h.cluster.trip_query(&dead_spq) {
        Err(ClusterError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("trip over dead shard must abort typed, got {other:?}"),
    }

    // The healthy shard keeps answering byte-identically.
    h.check_spq(&alive_spq);

    // Appends require every node's ack: with shard 0 down the batch
    // fails typed and the router's counters stay put...
    let before = h.cluster.num_global();
    let batch = h.next_batch(3);
    match h.cluster.append_batch(None, &batch) {
        Err(ClusterError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("append with a dead shard must fail typed, got {other:?}"),
    }
    assert_eq!(
        h.cluster.num_global(),
        before,
        "failed append moved counters"
    );

    // ...and once the replica restarts (snapshot + WAL replay), the
    // very same append heals idempotently and byte-identity holds.
    h.restart_node(0);
    assert_eq!(
        h.cluster.num_global() as usize,
        h.reference.num_trajectories(),
        "restarted replica lost WAL records"
    );
    h.append_next(3);
    for i in 0..25 {
        let spq = gen.spq_from(&h.full, h.applied);
        h.check_spq(&spq);
        if i % 5 == 0 {
            h.check_trip(&spq);
        }
    }
}

#[test]
fn corrupt_and_torn_frames_are_typed_and_do_not_kill_the_node() {
    let h = ClusterHarness::boot("faults-frames", quick());
    let addr = h.nodes[0].addr;

    // A frame whose CRC cannot match: flip one payload byte.
    let mut corrupt = encode_frame(&Message::Health);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&corrupt).expect("send corrupt frame");
    match read_frame(&mut conn).expect("typed reply") {
        Some(Message::Err {
            code: ErrCode::BadRequest,
            ..
        }) => {}
        other => panic!("corrupt frame must answer BadRequest, got {other:?}"),
    }
    // Framing is lost after garbage; the node closes the connection.
    assert!(matches!(read_frame(&mut conn), Ok(None)), "node must close");

    // A torn frame (write half a header, then half-close): the node
    // sees a truncated stream and answers typed before closing.
    let full = encode_frame(&Message::GetMeta);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&full[..6]).expect("send torn frame");
    conn.shutdown(Shutdown::Write).expect("half-close");
    match read_frame(&mut conn).expect("typed reply") {
        Some(Message::Err {
            code: ErrCode::BadRequest,
            ..
        }) => {}
        other => panic!("torn frame must answer BadRequest, got {other:?}"),
    }

    // The node survived both: fresh connections still serve.
    let client = NodeClient::new(addr, quick());
    match client.request(&Message::Health).expect("health") {
        Message::ReplStatus {
            role: tthr::rpc::Role::Primary,
            ..
        } => {}
        other => panic!("health must answer ReplStatus, got {other:?}"),
    }
}

#[test]
fn silent_socket_times_out_as_unavailable_not_a_hang() {
    // A listener that accepts and then says nothing, ever.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let sink = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((conn, _)) = listener.accept() {
            held.push(conn); // keep it open, answer nothing
            if held.len() >= 8 {
                return;
            }
        }
    });

    let client = NodeClient::new(addr, quick());
    let started = std::time::Instant::now();
    match client.request(&Message::Health) {
        Err(tthr::rpc::WireError::Io(e)) => {
            assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "expected a timeout, got {e:?}"
            );
        }
        other => panic!("silent socket must time out, got {other:?}"),
    }
    // Bounded: 3 attempts × 500ms read timeout + backoffs, far under 5s.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "retry budget is bounded"
    );
    assert_eq!(client.retries(), 2, "both retries spent against silence");
    drop(client);
    drop(sink);
}

#[test]
fn out_of_order_appends_answer_walgap_with_both_stamps() {
    let h = ClusterHarness::boot("faults-gap", quick());
    let client = NodeClient::new(h.nodes[0].addr, quick());
    let base = h.cluster.num_global();
    let record = NodeWalRecord {
        base: base + 5,
        new_total: base + 6,
        span_min: 0,
        span_max: 0,
        members: vec![],
        trajectories: vec![],
    };
    match client.request(&Message::Append(record)).expect("reply") {
        Message::Err {
            code: ErrCode::WalGap,
            expected,
            found,
            ..
        } => assert_eq!((expected, found), (base, base + 5)),
        other => panic!("gapped append must answer WalGap, got {other:?}"),
    }
    // The node's state is untouched: a correctly stamped (empty) record
    // still applies cleanly.
    let ok = NodeWalRecord {
        base,
        new_total: base,
        span_min: 0,
        span_max: 0,
        members: vec![],
        trajectories: vec![],
    };
    match client.request(&Message::Append(ok)).expect("reply") {
        Message::Appended { appended: 0, total } => assert_eq!(total, base),
        other => panic!("clean append must ack, got {other:?}"),
    }
}

/// Regression: the cluster front-end used to compare the client's stamp
/// with `num_global()` and only then call `append_batch`, which took the
/// router's state lock afresh — two requests carrying the same stamp
/// could both pass the check and the batch was appended twice, the one
/// thing the stamp exists to prevent. The comparison now runs under the
/// lock that assigns ids.
#[test]
fn concurrent_stamped_appends_through_serve_cluster_land_exactly_once() {
    const POSTERS: usize = 8;
    const ROUNDS: usize = 12;
    let mut h = ClusterHarness::boot("faults-stamp-race", quick());
    // The contract, deterministically: the router itself refuses a stamp
    // that is not its count — a replay after the batch landed, or one
    // from the future — and contacts no node to find that out.
    let stale = h.applied as u64;
    h.append_next(1);
    for found in [stale, stale + 2] {
        match h.cluster.append_batch(Some(found), &h.next_batch(1)) {
            Err(ClusterError::WalGap { expected, found: f }) => {
                assert_eq!((expected, f), (stale + 1, found))
            }
            other => panic!("stamp {found} at count {} answered {other:?}", stale + 1),
        }
    }
    assert_eq!(h.cluster.num_global(), stale + 1, "refusals append nothing");
    let router = ClusterRouter::connect(
        h.network.clone(),
        &h.addrs(),
        h.engine_config.clone(),
        quick(),
    )
    .expect("connect the front-end's router");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind http");
    let http = listener.local_addr().expect("http addr");
    std::thread::spawn(move || serve_cluster(listener, router));

    // And under fire. (The old window was a few instructions wide — a
    // stress run cannot be relied on to hit it, which is why the contract
    // is pinned above; this pins that nothing is lost or doubled when the
    // stamp check and the id assignment contend for real.) The posters
    // are connected up front and released together, round after round.
    let mut posters: Vec<HttpClient> = (0..POSTERS).map(|_| HttpClient::connect(http)).collect();
    let gate = std::sync::Barrier::new(POSTERS);
    for round in 0..ROUNDS {
        let stamp = h.applied as u64;
        let batch = h.reference_append_next(2);
        let body = encode_append_request(Some(stamp), &batch);
        let statuses: Vec<u16> = std::thread::scope(|s| {
            let running: Vec<_> = posters
                .iter_mut()
                .map(|poster| {
                    s.spawn(|| {
                        gate.wait();
                        poster.request("POST", "/append", body.as_bytes()).status
                    })
                })
                .collect();
            running.into_iter().map(|p| p.join().unwrap()).collect()
        });
        let count = |status: u16| statuses.iter().filter(|&&s| s == status).count();
        assert_eq!(
            (count(200), count(409)),
            (1, POSTERS - 1),
            "round {round}: one stamped batch, posted {POSTERS}×, must land exactly once: \
             {statuses:?}"
        );
        let health = posters[0].request("GET", "/health", b"");
        let want = format!("\"trajectories\":{}", h.applied);
        assert!(
            health.body_str().contains(&want),
            "round {round}: num_global must advance once, to {}: {}",
            h.applied,
            health.body_str()
        );
    }
    for node in &h.nodes {
        let client = NodeClient::new(node.addr, quick());
        match client.request(&Message::GetMeta).expect("meta") {
            Message::Meta(meta) => assert_eq!(meta.num_global, h.applied as u64),
            other => panic!("GetMeta answered {other:?}"),
        }
    }
}

#[test]
fn restarted_node_pool_is_evicted_without_burning_retries() {
    // A "node restart" as the client pool sees it: each accepted
    // connection answers exactly one request and is then closed
    // server-side, so the socket the client pooled after its reply is
    // dead by the time of the next checkout. Before PR 8 the pool
    // handed that corpse out anyway — the request failed, the pool
    // flushed, and a retry (plus its backoff sleep) was burned. The
    // checkout probe must evict it instead: zero retries, a clean
    // redial.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        for _ in 0..2 {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            if read_frame(&mut conn).ok().flatten().is_some() {
                let _ = conn.write_all(&encode_frame(&Message::Ok));
            }
            // `conn` drops here: FIN lands in the client's pooled socket.
        }
    });

    let client = NodeClient::new(addr, quick());
    assert_eq!(
        client.request(&Message::Health).expect("first request"),
        Message::Ok
    );
    assert_eq!(client.connects(), 1);

    // Let the server's FIN reach the client socket before checkout.
    std::thread::sleep(Duration::from_millis(100));

    assert_eq!(
        client.request(&Message::Health).expect("second request"),
        Message::Ok
    );
    assert_eq!(client.retries(), 0, "stale pooled socket burned a retry");
    assert_eq!(client.evicted(), 1, "checkout probe must evict the corpse");
    assert_eq!(client.connects(), 2, "the second request redialed fresh");
    server.join().unwrap();
}

/// A trip whose shard dies between two of its rounds aborts typed — and
/// stops dispatching: the parked error short-circuits every later call
/// of the trip, so nothing is sent after the failing batch.
#[test]
fn shard_dying_mid_ladder_aborts_the_trip_typed() {
    let h = ClusterHarness::boot("faults-ladder", quick());
    let mut gen = QueryGen::new("cluster_faults_ladder");
    let relay = relay_that_dies_on_ladder_batch(h.nodes[0].addr, 2);
    let router = h.router_with(
        &[vec![relay], vec![h.nodes[1].addr]],
        RouterConfig {
            client: quick(),
            ..RouterConfig::default()
        },
    );
    // An unreachable β on a periodic window: round 1 is the first
    // sub-query alone — whose path starts where the trip's does, on shard
    // 0 — it fails every level, and σ's replacement (or left half) keeps
    // that first edge, so round 2 opens with a second batch to shard 0.
    let spq = spq_routed_to_with(&h, 0, || {
        let mut spq = gen.ladder_spq_from(&h.full, h.applied);
        spq.beta = Some(1_000_000);
        spq
    });
    // Single-level primitives pass through the relay...
    h.check_spq_on(&router, &spq);
    // ...the second batch kills it: typed unavailability, never a partial
    // trip.
    let before = router_rpcs(&router);
    let started = Instant::now();
    match router.trip_query(&spq) {
        Err(ClusterError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("trip over a shard dying mid-ladder must abort typed, got {other:?}"),
    }
    // Exactly the batches up to and including the failing one went out
    // (a round sends shard 0's batch first); the rest of the trip — its
    // remaining rounds, each a full retry budget against a dead shard —
    // was answered from the parked error.
    assert_eq!(router_rpcs(&router) - before, 2);
    let config = quick();
    let one_request = (config.connect_timeout.max(config.read_timeout) + config.backoff * 2)
        * (1 + config.retries);
    assert!(
        started.elapsed() < one_request,
        "a failed trip costs one request's retry budget, took {:?}",
        started.elapsed()
    );
    // The real node never saw the fatal batch and is unharmed.
    h.check_trip(&spq);
}

#[test]
fn malformed_ladders_are_bad_requests_not_panics() {
    let h = ClusterHarness::boot("faults-ladder-bad", quick());
    let mut gen = QueryGen::new("cluster_faults_ladder_bad");
    let spq = spq_routed_to_with(&h, 0, || gen.ladder_spq_from(&h.full, h.applied));
    let elsewhere = spq_routed_to_with(&h, 1, || gen.ladder_spq_from(&h.full, h.applied));
    let ladder_of = |spq: &Spq| {
        let levels = common::differential::ladder_levels(&h.engine_config, spq);
        (spq.clone(), levels)
    };
    let good = ladder_of(&spq);
    let levels = &good.1;
    assert!(levels.len() > 2);
    let client = NodeClient::new(h.nodes[0].addr, quick());
    let mut reversed = levels.clone();
    reversed[1..].reverse();
    let endless: Vec<TimeInterval> =
        std::iter::successors(Some(spq.interval), |w| Some(w.widen(w.size() + 2)))
            .take(MAX_LADDER_LEVELS + 1)
            .collect();
    let bad_ladder = |levels: Vec<TimeInterval>| vec![(spq.clone(), levels)];
    for (what, items) in [
        ("empty level list", bad_ladder(vec![])),
        (
            "level list not starting at the query's window",
            bad_ladder(levels[1..].to_vec()),
        ),
        ("unsorted level list", bad_ladder(reversed.clone())),
        ("level list longer than any A", bad_ladder(endless)),
        ("batch of no items", vec![]),
        (
            "batch beyond the cap",
            vec![good.clone(); MAX_LADDER_BATCH + 1],
        ),
        (
            "batch with an item of the other shard",
            vec![good.clone(), ladder_of(&elsewhere)],
        ),
        (
            "batch with one malformed ladder among good ones",
            vec![good.clone(), (spq.clone(), reversed), good.clone()],
        ),
    ] {
        match client
            .request(&Message::LadderBatch { items })
            .expect("typed reply")
        {
            Message::Err {
                code: ErrCode::BadRequest,
                ..
            } => {}
            other => panic!("{what} must answer BadRequest, got {other:?}"),
        }
        // The node is unharmed and still answers the well-formed ladder.
        h.check_ladder(&spq);
    }

    // The frame codec admits any `u32` edge id: one past the routing
    // table, first or later in the path, is a `BadRequest` on every
    // request kind that carries a query — and the request's error, not
    // the connection's: the next request rides the same socket.
    let wild = EdgeId(h.cluster.routing().num_edges() as u32);
    let client = NodeClient::new(h.nodes[0].addr, quick());
    for edges in [vec![wild], vec![spq.path.first(), wild]] {
        let bad = Spq::new(Path::new(edges), spq.interval);
        for request in [
            Message::TravelTimes(bad.clone()),
            Message::LadderBatch {
                items: vec![(bad.clone(), vec![bad.interval])],
            },
            Message::Count {
                spq: bad.clone(),
                cap: u32::MAX,
            },
            Message::Estimate {
                spq: bad.clone(),
                mode: CardinalityMode::Isa,
            },
        ] {
            match client.request(&request).expect("typed reply") {
                Message::Err {
                    code: ErrCode::BadRequest,
                    ..
                } => {}
                other => panic!("{request:?} must answer BadRequest, got {other:?}"),
            }
            match client.request(&Message::TravelTimes(spq.clone())) {
                Ok(Message::TravelTimesResult { .. }) => {}
                other => panic!("a good request after {request:?} got {other:?}"),
            }
            assert_eq!(client.connects(), 1, "still the first connection");
        }
    }

    // The router's side of the contract: a reply that does not hold one
    // result per item is a typed `Unexpected`, never a misaligned answer.
    let short = relay(h.nodes[0].addr, |request, node| {
        let mut reply = node.request(request).expect("upstream reply");
        if let Message::LadderBatchResult { results } = &mut reply {
            results.pop();
        }
        Some(reply)
    });
    let router = h.router_with(
        &[vec![short], vec![h.nodes[1].addr]],
        RouterConfig {
            client: quick(),
            ..RouterConfig::default()
        },
    );
    for outcome in [
        router.travel_times_ladder(&spq, levels).map(drop),
        router.trip_query(&spq).map(drop),
    ] {
        match outcome {
            Err(ClusterError::Unexpected(_)) => {}
            other => panic!("a short LadderBatchResult must be Unexpected, got {other:?}"),
        }
    }
    h.check_ladder(&spq);
}

/// `router` served over HTTP, shared so a test can also call it.
fn serve(router: &Arc<ClusterRouter>) -> (ServerHandle, SocketAddr) {
    let server = serve_router(Arc::clone(router), "127.0.0.1:0", router_config()).expect("serve");
    let addr = server.local_addr();
    (server, addr)
}

/// A relay that passes the cluster handshake (`GetMeta`, `GetRouting`,
/// `Health`) through and corrupts every other reply frame's last byte.
fn corrupting_relay(upstream: SocketAddr) -> SocketAddr {
    relay_bytes(upstream, |request, node| {
        let mut reply = encode_frame(&node.request(request).expect("upstream reply"));
        if !matches!(
            request,
            Message::GetMeta | Message::GetRouting | Message::Health
        ) {
            *reply.last_mut().expect("non-empty frame") ^= 0xff;
        }
        Some(reply)
    })
}

/// Asserts an HTTP answer is `status` with a bare error body whose reason
/// starts with `reason` — never a partial answer.
#[track_caller]
fn assert_refused(response: &common::http::Response, status: u16, reason: &str) {
    assert_eq!(response.status, status, "{}", response.body_str());
    let body = json::parse(&response.body).expect("json error body");
    let error = body.get("error").and_then(|e| e.as_str()).expect("error");
    assert!(error.starts_with(reason), "{error}");
    assert_eq!(response.body_str(), wire::encode_error(error));
}

/// A `/batch` request body.
fn batch_body(trips: &[Spq]) -> String {
    let queries: Vec<String> = trips.iter().map(wire::encode_spq).collect();
    format!("{{\"queries\":[{}]}}", queries.join(","))
}

/// The router's HTTP failure table, over the reactor: a killed shard is
/// `503` on `/spq`, `/trip` and `/batch`; a node's corrupt reply frame is
/// `502`; a malformed body, or a frame `/spq` naming an edge past the
/// routing table, is `400`. A `/batch` answers the status of its first
/// failing trip in input order, with a bare error body.
#[test]
fn router_http_failure_table() {
    let mut h = ClusterHarness::boot("faults-http", quick());
    let mut gen = QueryGen::new("cluster_faults_http");
    let connect = |addrs: &[SocketAddr]| {
        let router =
            ClusterRouter::connect(h.network.clone(), addrs, h.engine_config.clone(), quick());
        Arc::new(router.expect("connect router"))
    };
    let good = connect(&h.addrs());
    let corrupt = connect(&[h.nodes[0].addr, corrupting_relay(h.nodes[1].addr)]);
    let (_good_server, good_http) = serve(&good);
    let (_corrupt_server, corrupt_http) = serve(&corrupt);
    let mut http = HttpClient::connect(good_http);

    // 400: what the front door rejects before any node is asked.
    for path in ["/spq", "/trip", "/batch", "/append"] {
        let response = http.request("POST", path, b"{nope");
        assert_refused(&response, 400, "");
    }
    let num_edges = h.cluster.routing().num_edges();
    let wild = Spq::new(
        Path::new(vec![EdgeId(num_edges as u32)]),
        TimeInterval::fixed(0, 1),
    );
    http.send_raw(&encode_frame_request(&encode_frame(&Message::TravelTimes(
        wild.clone(),
    ))));
    let response = http.read_response();
    assert_eq!(response.status, 400);
    let reason = wild.check_edges(num_edges).expect_err("out of range");
    assert_eq!(
        response.body,
        encode_frame(&Message::error(ErrCode::BadRequest, reason.to_string()))
    );

    // 502: shard 1's replies arrive corrupt.
    let on_1 = spq_routed_to(&h, &mut gen, 1);
    let mut http_corrupt = HttpClient::connect(corrupt_http);
    for path in ["/spq", "/trip"] {
        let response = http_corrupt.request("POST", path, wire::encode_spq(&on_1).as_bytes());
        assert_refused(&response, 502, "protocol error");
    }

    // 503: shard 0 is gone.
    h.kill_node(0);
    let on_0 = spq_routed_to(&h, &mut gen, 0);
    for path in ["/spq", "/trip"] {
        let response = http.request("POST", path, wire::encode_spq(&on_0).as_bytes());
        assert_refused(&response, 503, "shard 0 unavailable");
    }

    // A batch whose k-th trip fails answers that trip's status alone.
    let (mut ok, mut failing) = (Vec::new(), None);
    while ok.len() < 7 || failing.is_none() {
        let spq = gen.spq_from(&h.full, h.applied);
        match good.trip_query(&spq) {
            Ok(_) => ok.push(spq),
            Err(_) => failing = Some(spq),
        }
    }
    let mut trips = ok[..7].to_vec();
    trips.insert(4, failing.expect("a failing trip"));
    let response = http.request("POST", "/batch", batch_body(&trips).as_bytes());
    assert_refused(&response, 503, "shard 0 unavailable");

    // With shard 0 dead and shard 1 corrupt, each trip fails with the
    // status of the first shard it reaches; a batch answers its first
    // trip's, in input order.
    let (mut by_502, mut by_503) = (None, None);
    while by_502.is_none() || by_503.is_none() {
        let spq = gen.spq_from(&h.full, h.applied);
        let err = corrupt.trip_query(&spq).expect_err("every trip fails");
        match status_of(&err) {
            502 => by_502 = Some(spq),
            _ => by_503 = Some(spq),
        }
    }
    let (by_502, by_503) = (by_502.unwrap(), by_503.unwrap());
    for (trips, status, reason) in [
        ([by_502.clone(), by_503.clone()], 502, "protocol error"),
        ([by_503, by_502], 503, "shard 0 unavailable"),
    ] {
        let response = http_corrupt.request("POST", "/batch", batch_body(&trips).as_bytes());
        assert_refused(&response, status, reason);
    }
}

/// `/health` answers from router state: with a shard's node killed it is
/// a `200` carrying the confirmed trajectory count and each shard's
/// stamps as the last append acknowledged them — at once, where asking
/// the dark shard would spend a retry budget first.
#[test]
fn router_health_answers_from_router_state_with_a_shard_down() {
    let mut h = ClusterHarness::boot("faults-health", quick());
    let patient = ClientConfig {
        retries: 4,
        backoff: Duration::from_millis(100),
        ..quick()
    };
    let router = ClusterRouter::connect(
        h.network.clone(),
        &h.addrs(),
        h.engine_config.clone(),
        patient.clone(),
    )
    .expect("connect router");
    let server = serve_router(router, "127.0.0.1:0", router_config()).expect("serve");
    let mut http = HttpClient::connect(server.local_addr());
    let stamp = h.applied as u64;
    let batch = h.reference_append_next(3);
    let appended = http.request(
        "POST",
        "/append",
        encode_append_request(Some(stamp), &batch).as_bytes(),
    );
    assert_eq!(appended.body_str(), wire::encode_appended(3));

    h.kill_node(0);
    let started = Instant::now();
    let health = http.request("GET", "/health", b"");
    let took = started.elapsed();
    assert_eq!(health.status, 200, "{}", health.body_str());
    assert!(
        took < patient.backoff,
        "/health waited {took:?}: it asked the dark shard"
    );
    let body = health.body_str();
    let count = format!("\"trajectories\":{}", h.applied);
    assert!(body.contains(&count), "{body}");
    let acked = format!("\"applied_stamp\":{}", h.applied);
    assert_eq!(body.matches(&acked).count(), 2, "{body}");
}

/// A burst of connections past a node's file-descriptor limit (`EMFILE`
/// on `accept`) does not take the shard down: once the burst closes, the
/// same process answers `Health`.
#[test]
fn a_node_survives_a_connection_burst_past_its_fd_limit() {
    let mut h = ClusterHarness::boot("faults-emfile", quick());
    h.kill_node(0);
    let script = format!(
        "ulimit -n 16; exec '{}' --dir '{}'",
        env!("CARGO_BIN_EXE_tthr-node"),
        h.nodes[0].dir.display()
    );
    let mut node = Command::new("sh")
        .args(["-c", &script])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tthr-node under ulimit");
    // Held open: closing it asks the node to exit.
    let _stdin = node.stdin.take();
    let addr = read_listening_line(node.stdout.take().expect("piped stdout"));

    let burst: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        node.try_wait().expect("poll node").is_none(),
        "the node exited under the burst"
    );
    drop(burst);

    let client = NodeClient::new(addr, quick());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.request(&Message::Health) {
            Ok(Message::ReplStatus { .. }) => break,
            other => assert!(
                Instant::now() < deadline,
                "no health after the burst: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(node.try_wait().expect("poll node").is_none());
    let _ = node.kill();
    let _ = node.wait();
}

/// The router's reactor under the same burst. While `accept` fails with
/// `EMFILE` it takes the listener out of its level-triggered poller for
/// a backoff instead of spinning on it: a held second costs the process
/// well under 0.2 s of CPU, where a spinning reactor burns one. Once the
/// burst closes, the same process answers `/health`.
#[test]
fn the_router_idles_through_a_connection_burst_past_its_fd_limit() {
    let h = ClusterHarness::boot("faults-router-emfile", quick());
    let nodes: Vec<String> = h.addrs().iter().map(|a| format!("--node {a}")).collect();
    let script = format!(
        "ulimit -n 32; exec '{}' {} --probe-ms 0",
        env!("CARGO_BIN_EXE_tthr-router"),
        nodes.join(" ")
    );
    let mut router = Command::new("sh")
        .args(["-c", &script])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tthr-router under ulimit");
    // Held open: closing it asks the router to exit.
    let _stdin = router.stdin.take();
    let addr = read_listening_line(router.stdout.take().expect("piped stdout"));

    let burst: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_seconds(router.id());
    std::thread::sleep(Duration::from_secs(1));
    let burned = cpu_seconds(router.id()) - before;
    assert!(
        burned < 0.2,
        "the router burned {burned:.2} s of CPU in a second at its fd limit"
    );
    drop(burst);

    let health = HttpClient::connect(addr).request("GET", "/health", b"");
    assert_eq!(health.status, 200, "{}", health.body_str());
    assert!(router.try_wait().expect("poll router").is_none());
    let _ = router.kill();
    let _ = router.wait();
}

/// User plus system CPU time a process has used, in seconds.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // The fields after the parenthesised command name, from `state` (the
    // third field) on: `utime` and `stime` are the 14th and 15th.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split(' ')
        .collect();
    let ticks = |i: usize| fields[i - 3].parse::<u64>().expect("tick count");
    // `/proc` counts in USER_HZ ticks: 100 per second on Linux.
    (ticks(14) + ticks(15)) as f64 / 100.0
}

/// Draws with `draw` until a query routes to `shard`.
fn spq_routed_to_with(h: &ClusterHarness, shard: usize, mut draw: impl FnMut() -> Spq) -> Spq {
    loop {
        let spq = draw();
        if h.cluster.routing().shard_of(spq.path.first()) == shard {
            return spq;
        }
    }
}
