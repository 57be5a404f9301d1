//! The failover battery: standby replicas, snapshot-shipping,
//! WAL-tailing, and router failover against a real 2-shard cluster —
//! kill a primary and keep answering.
//!
//! Covered here:
//!
//! * a standby bootstraps by snapshot-shipping, tails the primary's WAL,
//!   answers shard reads **byte-identically** at its applied stamp,
//!   refuses appends with a typed `NotPrimary`, and — restarted — resumes
//!   from its *local* stamp rather than re-shipping;
//! * SIGKILL of a primary mid-query-flood: every query keeps succeeding
//!   (zero non-typed failures) and post-failover answers stay
//!   byte-identical to the monolithic oracle;
//! * a primary gone between two relaxation rounds of one trip: the next
//!   ladder batch fails over and the trip stays byte-identical;
//! * a stamped append retried across a promotion applies exactly once
//!   (pinned via applied stamps and a duplicate re-send);
//! * a stale standby (its tail black-holed) is never preferred over a
//!   fresher one;
//! * the per-endpoint circuit breaker trips on a refused endpoint and
//!   recovers through half-open once the endpoint returns, with the
//!   failover metric families valid under `validate_exposition` and the
//!   HTTP front-end exposing `/health` replication info and `/metrics`.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::cluster::{
    relay_that_dies_on_ladder_batch, router_rpcs, wait_for_stamp, ClusterHarness, NodeProcess,
};
use common::differential::QueryGen;
use common::http::HttpClient;
use common::proxy::{FaultProxy, Mode};
use common::value_bits as bits;
use tthr::client::{BreakerConfig, BreakerState, ClientConfig, NodeClient, RouterConfig};
use tthr::core::node::plan_node_records;
use tthr::core::{NodeWalRecord, Spq};
use tthr::metrics::validate_exposition;
use tthr::rpc::{ErrCode, Message, Role};
use tthr::server::{cluster, serve_router};

/// Short-fuse transport config so failover scenarios fail over fast
/// instead of hanging the suite.
fn quick() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        retries: 2,
        backoff: Duration::from_millis(10),
    }
}

/// Failover-router config on the same short fuse, with a breaker that
/// trips after two failures and cools down quickly.
fn quick_router() -> RouterConfig {
    RouterConfig {
        client: quick(),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(300),
        },
        probe_interval: None,
    }
}

/// Draws queries until one routes to `shard`.
fn spq_routed_to(h: &ClusterHarness, gen: &mut QueryGen, shard: usize) -> Spq {
    loop {
        let spq = gen.spq_from(&h.full, h.applied);
        if h.cluster.routing().shard_of(spq.path.first()) == shard {
            return spq;
        }
    }
}

/// A standby's direct SPQ answer must be byte-identical to the
/// reference index (for paths its shard owns).
fn check_spq_direct(h: &ClusterHarness, client: &NodeClient, spq: &Spq) {
    let want = h.reference.get_travel_times(spq);
    match client
        .request(&Message::TravelTimes(spq.clone()))
        .expect("standby SPQ")
    {
        Message::TravelTimesResult { values, fallback } => {
            assert_eq!(
                bits(&want.values),
                bits(&values),
                "standby SPQ values diverged: {spq:?}"
            );
            assert_eq!(want.fallback, fallback, "fallback flag diverged: {spq:?}");
        }
        other => panic!("TravelTimes answered with {other:?}"),
    }
}

#[test]
fn standby_bootstraps_tails_and_resumes_from_local_stamp_after_restart() {
    let mut h = ClusterHarness::boot("failover-standby", quick());
    let mut gen = QueryGen::new("failover_standby");

    // Bootstrap: an empty directory ships the primary's snapshot. The
    // LISTENING line is printed only once the standby is queryable.
    let mut standby = h.spawn_standby(0, "standby0");
    wait_for_stamp(standby.addr, h.applied as u64, Duration::from_secs(10));

    // Tail: appends flow through the primary; the standby catches up and
    // answers byte-identically at its applied stamp.
    h.append_next(8);
    wait_for_stamp(standby.addr, h.applied as u64, Duration::from_secs(10));
    let client = NodeClient::new(standby.addr, quick());
    for _ in 0..10 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        check_spq_direct(&h, &client, &spq);
    }

    // A standby refuses appends with a typed NotPrimary.
    let n = h.cluster.num_global();
    let noop = NodeWalRecord {
        base: n,
        new_total: n,
        span_min: 0,
        span_max: 0,
        members: vec![],
        trajectories: vec![],
    };
    match client.request(&Message::Append(noop)).expect("reply") {
        Message::Err {
            code: ErrCode::NotPrimary,
            ..
        } => {}
        other => panic!("standby append must refuse NotPrimary, got {other:?}"),
    }

    // Restart: kill the standby, advance the primary, respawn from the
    // same directory. It must resume from its local stamp (snapshot +
    // its own WAL) and re-converge through tailing alone.
    standby.kill();
    h.append_next(6);
    let standby = NodeProcess::spawn_standby(0, &h.standby_dir("standby0"), h.nodes[0].addr);
    wait_for_stamp(standby.addr, h.applied as u64, Duration::from_secs(10));
    let client = NodeClient::new(standby.addr, quick());
    for _ in 0..10 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        check_spq_direct(&h, &client, &spq);
    }
    match client.request(&Message::Health).expect("health") {
        Message::ReplStatus {
            role: Role::Standby,
            applied_stamp,
            ..
        } => assert_eq!(applied_stamp, h.applied as u64),
        other => panic!("health must answer ReplStatus, got {other:?}"),
    }
}

/// The acceptance scenario: a 2-shard cluster where shard 0 runs a
/// primary + standby pair, SIGKILL of the primary in the middle of a
/// query flood, zero non-typed failures, and post-failover answers
/// byte-identical to the monolithic oracle.
#[test]
fn sigkill_primary_mid_flood_keeps_answering_byte_identically() {
    let mut h = ClusterHarness::boot("failover-kill", quick());
    let standby0 = h.spawn_standby(0, "standby0");
    wait_for_stamp(standby0.addr, h.applied as u64, Duration::from_secs(10));

    let groups = vec![vec![h.nodes[0].addr, standby0.addr], vec![h.nodes[1].addr]];
    let router = h.router_with(&groups, quick_router());

    let mut gen = QueryGen::new("failover_flood");
    let queries: Vec<Spq> = (0..40).map(|_| gen.spq_from(&h.full, h.applied)).collect();
    for (i, spq) in queries.iter().enumerate() {
        if i == 15 {
            h.kill_node(0);
        }
        h.check_spq_on(&router, spq);
        if i % 8 == 4 {
            h.check_trip_on(&router, spq);
        }
    }
    // Make sure the flood really exercised the dead shard post-kill.
    for _ in 0..5 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        h.check_spq_on(&router, &spq);
        h.check_trip_on(&router, &spq);
    }

    // The failover is visible: shard 0's preferred endpoint is now the
    // standby, and the failover counter moved.
    let stats = router.node_stats();
    assert_eq!(
        stats[0].addr, standby0.addr,
        "shard 0 must prefer the standby"
    );
    let text = router.render_metrics();
    assert!(
        text.contains("tthr_failovers_total{shard=\"0\"} 1"),
        "failover counter missing:\n{text}"
    );
}

/// A primary that dies between two relaxation rounds of one trip: the
/// trip's next `LadderBatch` fails over to the standby and the answer is
/// still byte-identical — a round is answered whole by one endpoint, and
/// nothing in the engine's state remembers which.
#[test]
fn primary_killed_between_two_rounds_of_a_trip_fails_the_next_batch_over() {
    let h = ClusterHarness::boot("failover-rounds", quick());
    let standby0 = h.spawn_standby(0, "standby0");
    wait_for_stamp(standby0.addr, h.applied as u64, Duration::from_secs(10));

    // Shard 0's "primary" answers the trip's first batch and is gone —
    // connection dropped, listener closed — when the second arrives.
    let primary = relay_that_dies_on_ladder_batch(h.nodes[0].addr, 2);
    let groups = vec![vec![primary, standby0.addr], vec![h.nodes[1].addr]];
    let router = h.router_with(&groups, quick_router());

    // An unreachable β keeps shard 0 in at least the first two rounds:
    // the first sub-query fails, and what σ derives from it keeps its
    // first edge.
    let mut gen = QueryGen::new("failover_rounds");
    let spq = loop {
        let mut spq = gen.ladder_spq_from(&h.full, h.applied);
        spq.beta = Some(1_000_000);
        if h.cluster.routing().shard_of(spq.path.first()) == 0 {
            break spq;
        }
    };
    let trip = h.check_trip_on(&router, &spq);
    assert!(trip.trace.ladder_batches >= 2, "{:?}", trip.trace);

    assert_eq!(
        router.node_stats()[0].addr,
        standby0.addr,
        "shard 0 must prefer the standby"
    );
    let text = router.render_metrics();
    assert!(
        text.contains("tthr_failovers_total{shard=\"0\"} 1"),
        "failover counter missing:\n{text}"
    );
    // The trip already answered comes from the router's cache, with no
    // RPC; a fresh one is answered whole by the standby.
    let rpcs = router_rpcs(&router);
    h.check_trip_on(&router, &spq);
    assert_eq!(router_rpcs(&router), rpcs, "a cached trip sent an RPC");
    let fresh = loop {
        let mut fresh = gen.ladder_spq_from(&h.full, h.applied);
        fresh.beta = Some(1_000_000);
        if h.cluster.routing().shard_of(fresh.path.first()) == 0 {
            break fresh;
        }
    };
    let trip = h.check_trip_on(&router, &fresh);
    assert!(trip.trace.ladder_batches >= 2, "{:?}", trip.trace);
}

/// A stamped append retried across a promotion applies exactly once:
/// the record reaches the primary (which replicates it to the standby)
/// but the ack is "lost"; the primary dies; the router's retry promotes
/// the standby and re-sends — which must dedupe by base stamp.
#[test]
fn append_retried_across_promotion_applies_exactly_once() {
    let mut h = ClusterHarness::boot("failover-promote", quick());
    let standby0 = h.spawn_standby(0, "standby0");
    let standby1 = h.spawn_standby(1, "standby1");
    wait_for_stamp(standby0.addr, h.applied as u64, Duration::from_secs(10));
    wait_for_stamp(standby1.addr, h.applied as u64, Duration::from_secs(10));

    let groups = vec![
        vec![h.nodes[0].addr, standby0.addr],
        vec![h.nodes[1].addr, standby1.addr],
    ];
    let router = h.router_with(&groups, quick_router());
    let base = router.num_global();

    // Plan the batch exactly as the router will (same routing table,
    // same base stamp, same spans — read back from the primary).
    let batch = h.next_batch(5);
    let primary0 = NodeClient::new(h.nodes[0].addr, quick());
    let meta = match primary0.request(&Message::GetMeta).expect("meta") {
        Message::Meta(meta) => meta,
        other => panic!("GetMeta answered with {other:?}"),
    };
    assert_eq!(meta.num_global, base);
    let records = plan_node_records(
        h.cluster.routing(),
        meta.num_global,
        meta.span_min,
        meta.span_max,
        &batch,
    )
    .expect("plan records");

    // The "lost ack": shard 0's record is applied by the primary and
    // replicated to the standby, but (from the router's view) never
    // acknowledged — the router still believes num_global == base.
    match primary0
        .request(&Message::Append(records[0].clone()))
        .expect("direct append")
    {
        Message::Appended { appended, total } => {
            assert!(appended > 0, "first application must be real");
            assert_eq!(total, base + batch.len() as u64);
        }
        other => panic!("Append answered with {other:?}"),
    }
    wait_for_stamp(
        standby0.addr,
        base + batch.len() as u64,
        Duration::from_secs(10),
    );

    // Kill the primary; the router's append must promote the standby
    // and apply the batch exactly once cluster-wide.
    h.kill_node(0);
    let appended = router
        .append_batch(None, &batch)
        .expect("append across promotion");
    assert_eq!(appended as usize, batch.len());
    assert_eq!(router.num_global(), base + batch.len() as u64);

    // Pin exactly-once on the promoted node: its applied stamp moved by
    // the batch exactly once, and a duplicate re-send applies nothing.
    let promoted = NodeClient::new(standby0.addr, quick());
    match promoted.request(&Message::Health).expect("health") {
        Message::ReplStatus {
            role: Role::Primary,
            applied_stamp,
            ..
        } => assert_eq!(applied_stamp, base + batch.len() as u64),
        other => panic!("promoted node must report Primary, got {other:?}"),
    }
    match promoted
        .request(&Message::Append(records[0].clone()))
        .expect("duplicate re-send")
    {
        Message::Appended { appended, total } => {
            assert_eq!(appended, 0, "duplicate must dedupe by base stamp");
            assert_eq!(total, base + batch.len() as u64);
        }
        other => panic!("Append answered with {other:?}"),
    }

    // And the data is right: apply the same batch to the reference and
    // compare byte-identically through the failover router.
    let reference_batch = h.reference_append_next(5);
    assert_eq!(reference_batch, batch, "planning must be deterministic");
    let mut gen = QueryGen::new("failover_promote");
    for i in 0..20 {
        let spq = gen.spq_from(&h.full, h.applied);
        h.check_spq_on(&router, &spq);
        if i % 5 == 0 {
            h.check_trip_on(&router, &spq);
        }
    }
    for _ in 0..5 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        h.check_spq_on(&router, &spq);
    }
}

/// Freshness discipline: with two standbys — one caught up, one stuck
/// behind a black-holed tail — failover must pick the fresh one, never
/// the stale one, regardless of list order (the stale one is listed
/// first).
#[test]
fn stale_standby_is_never_preferred_over_a_fresher_one() {
    let mut h = ClusterHarness::boot("failover-stale", quick());
    let proxy = FaultProxy::start(h.nodes[0].addr);
    let stale = h.spawn_standby_via(0, "stale", proxy.addr());
    let fresh = h.spawn_standby(0, "fresh");
    wait_for_stamp(stale.addr, h.applied as u64, Duration::from_secs(10));
    wait_for_stamp(fresh.addr, h.applied as u64, Duration::from_secs(10));

    // Freeze the stale standby's view, then advance the cluster.
    proxy.cut(Mode::BlackHole);
    h.append_next(6);
    wait_for_stamp(fresh.addr, h.applied as u64, Duration::from_secs(10));

    let groups = vec![
        vec![h.nodes[0].addr, stale.addr, fresh.addr],
        vec![h.nodes[1].addr],
    ];
    let router = h.router_with(&groups, quick_router());
    h.kill_node(0);

    let mut gen = QueryGen::new("failover_stale");
    for _ in 0..8 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        h.check_spq_on(&router, &spq);
    }
    let stats = router.node_stats();
    assert_eq!(
        stats[0].addr, fresh.addr,
        "failover must land on the fresh standby, never the stale one"
    );
}

/// Breaker lifecycle and observability: a refused endpoint trips its
/// breaker (fast-failing subsequent traffic), the background prober
/// walks it back to closed through half-open once the endpoint returns,
/// and the metric families render as valid Prometheus exposition —
/// also served, with `/health` replication info, by the HTTP front-end.
#[test]
fn breaker_trips_on_refused_endpoint_and_recovers_via_probing() {
    let h = ClusterHarness::boot("failover-breaker", quick());
    let standby0 = h.spawn_standby(0, "standby0");
    wait_for_stamp(standby0.addr, h.applied as u64, Duration::from_secs(10));

    // The primary sits behind a fault proxy on a *stable* address, so it
    // can "die" and "return" without anyone re-resolving.
    let proxy = FaultProxy::start(h.nodes[0].addr);
    let groups = vec![vec![proxy.addr(), standby0.addr], vec![h.nodes[1].addr]];
    let router = Arc::new(h.router_with(
        &groups,
        RouterConfig {
            probe_interval: Some(Duration::from_millis(50)),
            ..quick_router()
        },
    ));

    let mut gen = QueryGen::new("failover_breaker");
    for _ in 0..3 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        h.check_spq_on(&router, &spq);
    }

    // Take the primary away (connection refused) and keep reading:
    // everything still answers, via the standby.
    proxy.cut(Mode::Refuse);
    for _ in 0..6 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        h.check_spq_on(&router, &spq);
    }
    assert_eq!(router.node_stats()[0].addr, standby0.addr);

    // The flood records only one failure against the refused endpoint
    // before failing over away from it; it is the *prober* that keeps
    // hammering it to the trip threshold. Give it a few cycles.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.breaker_states(0)[0].1 == BreakerState::Closed {
        assert!(
            std::time::Instant::now() < deadline,
            "the refused endpoint's breaker never tripped: {:?}",
            router.breaker_states(0)
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let text = router.render_metrics();
    validate_exposition(&text).expect("metrics must be valid exposition");
    for family in [
        "tthr_failovers_total",
        "tthr_breaker_state",
        "tthr_repl_lag_records",
        "tthr_probe_failures_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }

    // Bring the endpoint back: the prober's half-open trial must close
    // the breaker again, unprompted.
    proxy.restore();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.breaker_states(0)[0].1 != BreakerState::Closed {
        assert!(
            std::time::Instant::now() < deadline,
            "breaker never recovered: {:?}",
            router.breaker_states(0)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for _ in 0..3 {
        let spq = spq_routed_to(&h, &mut gen, 0);
        h.check_spq_on(&router, &spq);
    }

    // The HTTP front-end over the same router: `/health` carries roles
    // and stamps, `/metrics` the failover families.
    let server = serve_router(Arc::clone(&router), "127.0.0.1:0", cluster::router_config())
        .expect("serve the router");
    let mut http = HttpClient::connect(server.local_addr());
    let health = http.request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    let body = health.body_str();
    for needle in [
        "\"shards\":2",
        "\"replication\":",
        "\"applied_stamp\":",
        "\"role\":",
    ] {
        assert!(
            body.contains(needle),
            "health body missing {needle}: {body}"
        );
    }
    let metrics = http.request("GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    validate_exposition(metrics.body_str()).expect("HTTP /metrics must be valid exposition");
    assert!(metrics.body_str().contains("tthr_failovers_total"));
    assert_eq!(http.request("POST", "/metrics", b"").status, 405);
}

/// Nightly soak: flap the primary's network (refuse / black-hole /
/// restore) across many rounds of reads and appends; every answer must
/// stay byte-identical and every append exactly-once. `TTHR_DIFF_SEED`
/// varies the stream per run.
#[test]
#[ignore = "soak: minutes of wall clock; run nightly or on demand"]
fn soak_failover_under_flapping_network() {
    let mut h = ClusterHarness::boot("failover-soak", quick());
    let standby0 = h.spawn_standby(0, "standby0");
    wait_for_stamp(standby0.addr, h.applied as u64, Duration::from_secs(10));

    let proxy = FaultProxy::start(h.nodes[0].addr);
    let groups = vec![vec![proxy.addr(), standby0.addr], vec![h.nodes[1].addr]];
    let router = h.router_with(
        &groups,
        RouterConfig {
            probe_interval: Some(Duration::from_millis(50)),
            ..quick_router()
        },
    );

    let mut gen = QueryGen::new("failover_soak");
    for round in 0..10 {
        // Alternate the failure flavor; odd rounds stay healthy.
        match round % 4 {
            0 => proxy.cut(Mode::Refuse),
            2 => proxy.cut(Mode::BlackHole),
            _ => {
                proxy.restore();
                // Wait for the prober to re-admit the primary before
                // appending, so both paths (primary and promoted) run.
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while router.breaker_states(0)[0].1 != BreakerState::Closed
                    && std::time::Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        for i in 0..12 {
            let spq = gen.spq_from(&h.full, h.applied);
            h.check_spq_on(&router, &spq);
            if i % 6 == 0 {
                h.check_trip_on(&router, &spq);
            }
        }
        // Appends only while the primary is reachable: shard 0's
        // standby tails the primary directly, so it stays promotable.
        if round % 4 == 1 && h.can_append() {
            let batch = h.reference_append_next(4);
            let appended = router.append_batch(None, &batch).expect("soak append");
            assert_eq!(appended as usize, batch.len());
            assert_eq!(router.num_global() as u64, h.applied as u64);
            wait_for_stamp(standby0.addr, h.applied as u64, Duration::from_secs(10));
        }
    }
    let text = router.render_metrics();
    validate_exposition(&text).expect("metrics stay valid under soak");
}
