//! The cluster differential battery: a real 2-process shard cluster
//! (spawned `tthr-node` binaries + the scatter-gather [`ClusterRouter`])
//! must answer **byte-identically** to the in-process sharded index it
//! was bootstrapped from — SPQ values in index scan order, fallback
//! flags, trip-query stats/histograms/sub-results, counts, and all five
//! estimator modes — across interleaved append rounds and a full
//! snapshot/kill/restart cycle.
//!
//! This is the distributed extension of `tests/sharded_equivalence.rs`:
//! that suite proves sharding is exact in-process; this one proves
//! nothing is lost when the shards move behind real sockets, processes,
//! and the binary wire protocol.

mod common;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::cluster::{read_listening_line, ClusterHarness, CLUSTER_K};
use common::differential::QueryGen;
use common::http::{encode_frame_request, HttpClient};
use tthr::client::{ClientConfig, ClusterRouter};
use tthr::core::{CardinalityMode, IndexBackend, QueryEngine, Spq, TimeInterval};
use tthr::rpc::{encode_frame, Message};
use tthr::server::http::FRAME_CONTENT_TYPE;
use tthr::server::{cluster, serve_router, wire};

/// One full differential pass: `rounds` rounds of randomized queries,
/// each followed by an append batch ingested by both sides.
fn run_differential(h: &mut ClusterHarness, gen: &mut QueryGen, rounds: usize, queries: usize) {
    for round in 0..rounds {
        for i in 0..queries {
            let spq = gen.spq_from(&h.full, h.applied);
            h.check_spq(&spq);
            if i % 5 == 0 {
                h.check_trip(&spq);
            }
        }
        // Primitive parity: capped counts and every estimator mode.
        for _ in 0..5 {
            let spq = gen.spq_from(&h.full, h.applied);
            let cap = 1 + gen.range(0..32) as u32;
            assert_eq!(
                h.reference.count_matching(&spq, cap),
                h.cluster.count_matching(&spq, cap).expect("cluster count"),
                "count diverged: {spq:?}"
            );
            for mode in CardinalityMode::ALL {
                let want = IndexBackend::estimate(&h.reference, &spq, mode);
                let got = h.cluster.estimate(&spq, mode).expect("cluster estimate");
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "estimate diverged (mode {mode:?}): {spq:?}"
                );
            }
        }
        if h.can_append() {
            let appended = h.append_next(h.full.len() / 8 + 1);
            assert!(appended > 0, "round {round} had stream left but appended 0");
        }
    }
}

#[test]
fn cluster_matches_in_process_sharded_backend() {
    let mut h = ClusterHarness::boot("equiv", ClientConfig::default());
    let mut gen = QueryGen::new("cluster_equivalence");
    run_differential(&mut h, &mut gen, 4, 40);

    // Rotate every node's snapshot, kill the whole cluster, restart it
    // from disk (snapshot + WAL replay), and require byte-identity to
    // hold on the reconverged replicas.
    h.cluster.snapshot_all().expect("snapshot rotation");
    for shard in 0..CLUSTER_K {
        h.kill_node(shard);
    }
    for shard in 0..CLUSTER_K {
        h.respawn_node(shard);
    }
    h.reconnect();
    assert_eq!(
        h.cluster.num_global() as usize,
        h.reference.num_trajectories(),
        "restart lost trajectories"
    );
    for i in 0..30 {
        let spq = gen.spq_from(&h.full, h.applied);
        h.check_spq(&spq);
        if i % 5 == 0 {
            h.check_trip(&spq);
        }
    }
}

/// Hot-tail nodes: every node runs `--hot-tail`, absorbing appends into
/// its in-index hot tail while the in-process reference applies them
/// directly — so each differential round pins the absorb/apply byte
/// identity across real sockets. A mid-stream `snapshot_all` is the
/// node-tier compaction (rotation seals the tails and advances the
/// snapshot stamp), and a full kill/restart cycle proves WAL replay
/// reconstructs the absorbed batches exactly.
#[test]
fn hot_tail_cluster_matches_in_process_reference() {
    let mut h = ClusterHarness::boot_hot_tail("hot", ClientConfig::default());
    let mut gen = QueryGen::new("cluster_hot_tail");
    run_differential(&mut h, &mut gen, 2, 25);

    // Node-tier compaction: rotation seals every hot tail. The stamp on
    // each node's ReplStatus must advance to its applied stamp, and the
    // post-seal answers must stay byte-identical.
    h.cluster.snapshot_all().expect("snapshot rotation");
    for addr in h.addrs() {
        let client = tthr::client::NodeClient::new(addr, ClientConfig::default());
        match client.request(&tthr::rpc::Message::Health) {
            Ok(tthr::rpc::Message::ReplStatus {
                applied_stamp,
                snapshot_stamp,
                ..
            }) => assert_eq!(
                snapshot_stamp, applied_stamp,
                "rotation must seal the tail and stamp the snapshot at {addr}"
            ),
            other => panic!("unexpected health reply from {addr}: {other:?}"),
        }
    }
    run_differential(&mut h, &mut gen, 2, 25);

    // Crash recovery: absorbed-but-unsealed batches live only in the WAL;
    // replay must reconstruct them byte-identically.
    for shard in 0..CLUSTER_K {
        h.kill_node(shard);
    }
    for shard in 0..CLUSTER_K {
        h.respawn_node(shard);
    }
    h.reconnect();
    assert_eq!(
        h.cluster.num_global() as usize,
        h.reference.num_trajectories(),
        "restart lost trajectories"
    );
    for i in 0..20 {
        let spq = gen.spq_from(&h.full, h.applied);
        h.check_spq(&spq);
        if i % 5 == 0 {
            h.check_trip(&spq);
        }
    }
}

/// Relaxation rounds over the wire, on sealed and on hot-tail nodes: one
/// ladder RPC answers like the level-by-level loop, trips drawn to climb
/// the ladder stay byte-identical (stats included) to the in-process
/// sharded index, and the router's RPC counter shows what the rounds are
/// for — one RPC per (round, shard), not one per ladder: exactly the
/// batches the trips' traces report, fewer than the ladders they carried,
/// and for a trip of independent chains at most `shards × rounds`.
fn ladders_over_the_wire(mut h: ClusterHarness, name: &str) {
    let mut gen = QueryGen::new(name);
    // Grow past the bootstrap state (hot-tail nodes: into the hot tail).
    h.append_next(h.full.len() / 6 + 1);
    let engine = QueryEngine::new(&h.reference, &h.network, h.engine_config.clone());
    let (mut batches, mut ladders, mut widenings, mut multi_zone_fixed) = (0, 0, 0, 0);
    let start = h.router_rpcs();
    for i in 0..40 {
        let mut spq = gen.ladder_spq_from(&h.full, h.applied);
        let fixed = i % 4 == 3;
        if fixed {
            // Independent chains: the whole queue is round 1's frontier.
            spq.interval = TimeInterval::fixed(0, i64::MAX / 4);
            multi_zone_fixed += usize::from(engine.initial_subqueries(&spq).len() > 1);
        }
        let before = h.router_rpcs();
        // `check_trip` proves the cluster's answer equals the reference's.
        let trip = h.check_trip(&spq);
        let rpcs = h.router_rpcs() - before;
        // σ_R without an estimator issues no other read RPCs.
        assert_eq!(rpcs, trip.trace.ladder_batches, "{spq:?}");
        if fixed {
            // In process a round is one dispatch; on the wire it is at
            // most one per shard.
            let rounds = h.reference_trip(&spq).trace.ladder_batches;
            assert!(
                rpcs <= CLUSTER_K as u64 * rounds,
                "{rpcs} RPCs for {rounds} rounds: {spq:?}"
            );
        }
        batches += trip.trace.ladder_batches;
        ladders += trip.trace.ladders;
        widenings += trip.stats.widenings;
    }
    assert!(widenings > 0, "no trip ever widened — the mix is too flat");
    assert!(
        multi_zone_fixed > 0,
        "no fixed-interval trip spans two zones"
    );
    assert_eq!(h.router_rpcs() - start, batches);
    assert!(
        batches < ladders,
        "{batches} RPCs must be fewer than the {ladders} ladders they carried"
    );
    for _ in 0..30 {
        let spq = gen.ladder_spq_from(&h.full, h.applied);
        h.check_ladder(&spq);
    }
}

#[test]
fn ladder_trips_take_one_rpc_per_round_and_shard() {
    let h = ClusterHarness::boot("ladder", ClientConfig::default());
    ladders_over_the_wire(h, "cluster_ladder");
}

#[test]
fn ladder_trips_take_one_rpc_per_round_and_shard_on_hot_tail_nodes() {
    let h = ClusterHarness::boot_hot_tail("ladder-hot", ClientConfig::default());
    ladders_over_the_wire(h, "cluster_ladder_hot");
}

/// The router *process* serves the single-process server's JSON wire
/// format over the cluster: `/health`, `/spq`, `/trip` bodies must be
/// byte-identical to encoding the reference answers.
#[test]
fn router_process_serves_the_http_wire_format() {
    let h = ClusterHarness::boot("http", ClientConfig::default());
    let mut args: Vec<String> = Vec::new();
    for addr in h.addrs() {
        args.push("--node".into());
        args.push(addr.to_string());
    }
    args.push("--preset".into());
    args.push("small".into());
    let mut router = Command::new(env!("CARGO_BIN_EXE_tthr-router"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tthr-router");
    let stdin = router.stdin.take().expect("piped stdin");
    let addr = read_listening_line(router.stdout.take().expect("piped stdout"));

    let mut client = HttpClient::connect(addr);
    let health = client.request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    assert!(
        health.body_str().contains("\"shards\":2"),
        "health body: {}",
        health.body_str()
    );

    let mut gen = QueryGen::new("cluster_http");
    for i in 0..20 {
        let spq = gen.spq_from(&h.full, h.applied);
        let body = wire::encode_spq(&spq);
        let response = client.request("POST", "/spq", body.as_bytes());
        assert_eq!(response.status, 200, "spq failed: {}", response.body_str());
        assert_eq!(
            response.body_str(),
            wire::encode_travel_times(&h.reference.get_travel_times(&spq)),
            "HTTP /spq body diverged: {spq:?}"
        );
        if i % 4 == 0 {
            let response = client.request("POST", "/trip", body.as_bytes());
            assert_eq!(response.status, 200, "trip failed: {}", response.body_str());
            assert_eq!(
                response.body_str(),
                wire::encode_trip(&h.reference_trip(&spq)),
                "HTTP /trip body diverged: {spq:?}"
            );
        }
    }

    // Malformed input maps to 400, unknown endpoints to 404 — and the
    // connection survives (keep-alive, like the single-process server).
    assert_eq!(client.request("POST", "/spq", b"not json").status, 400);
    assert_eq!(client.request("POST", "/nope", b"{}").status, 404);
    assert_eq!(client.request("GET", "/spq", b"").status, 405);
    assert_eq!(client.request("GET", "/health", b"").status, 200);

    // Closing the router's stdin asks it to exit (harness-reaping
    // contract shared with the nodes).
    drop(stdin);
    let status = router.wait().expect("router exit");
    assert!(
        status.success() || status.code() == Some(0),
        "router exit: {status:?}"
    );
}

/// The router on the reactor answers a frame-bodied `/spq` with the
/// reference answer as a `TravelTimesResult` frame, and a `/batch` —
/// whose trips run in parallel on the router's pool — with exactly the
/// per-trip `/trip` answers, in order.
#[test]
fn router_answers_frame_spqs_and_batches_like_the_reference() {
    let h = ClusterHarness::boot("http-frames", ClientConfig::default());
    let router = ClusterRouter::connect(
        h.network.clone(),
        &h.addrs(),
        h.engine_config.clone(),
        ClientConfig::default(),
    )
    .expect("connect router");
    let server =
        serve_router(router, "127.0.0.1:0", cluster::router_config()).expect("serve router");
    let mut client = HttpClient::connect(server.local_addr());
    let mut gen = QueryGen::new("cluster_http_frames");
    for _ in 0..20 {
        let spq = gen.spq_from(&h.full, h.applied);
        let frame = encode_frame(&Message::TravelTimes(spq.clone()));
        client.send_raw(&encode_frame_request(&frame));
        let response = client.read_response();
        assert_eq!(response.status, 200, "{spq:?}");
        assert_eq!(response.header("content-type"), Some(FRAME_CONTENT_TYPE));
        let want = h.reference.get_travel_times(&spq);
        let want = Message::TravelTimesResult {
            values: want.values.into_vec(),
            fallback: want.fallback,
        };
        assert_eq!(response.body, encode_frame(&want), "{spq:?}");
    }

    let trips: Vec<Spq> = (0..12).map(|_| gen.spq_from(&h.full, h.applied)).collect();
    let singles: Vec<String> = trips
        .iter()
        .map(|spq| {
            let response = client.request("POST", "/trip", wire::encode_spq(spq).as_bytes());
            assert_eq!(response.status, 200, "{spq:?}");
            assert_eq!(
                response.body_str(),
                wire::encode_trip(&h.reference_trip(spq)),
                "{spq:?}"
            );
            response.body_str().to_string()
        })
        .collect();
    let batch = client.request("POST", "/batch", batch_body(&trips).as_bytes());
    assert_eq!(batch.status, 200);
    assert_eq!(
        batch.body_str(),
        format!("{{\"trips\":[{}]}}", singles.join(","))
    );
    server.shutdown();
}

/// A `/batch` request body.
fn batch_body(trips: &[Spq]) -> String {
    let queries: Vec<String> = trips.iter().map(wire::encode_spq).collect();
    format!("{{\"queries\":[{}]}}", queries.join(","))
}

/// Closing `tthr-router`'s stdin drains it: a large `/batch` already in
/// flight arrives whole, and the process exits 0.
#[test]
fn router_process_drains_a_batch_in_flight_when_stdin_closes() {
    const TRIPS: usize = 512;
    let h = ClusterHarness::boot("http-drain", ClientConfig::default());
    let mut args: Vec<String> = Vec::new();
    for addr in h.addrs() {
        args.extend(["--node".to_string(), addr.to_string()]);
    }
    let mut router = Command::new(env!("CARGO_BIN_EXE_tthr-router"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tthr-router");
    let stdin = router.stdin.take().expect("piped stdin");
    let addr = read_listening_line(router.stdout.take().expect("piped stdout"));

    let mut gen = QueryGen::new("cluster_http_drain");
    let trips: Vec<Spq> = (0..TRIPS)
        .map(|_| gen.spq_from(&h.full, h.applied))
        .collect();
    let mut client = HttpClient::connect(addr);
    client.send("POST", "/batch", batch_body(&trips).as_bytes());
    // Close stdin once the batch's trips have started, and before they
    // are all done.
    let mut scrape = HttpClient::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = scrape.request("GET", "/metrics", b"");
        let started = metrics
            .body_str()
            .lines()
            .find_map(|l| l.strip_prefix("tthr_router_trips_total "))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0) as usize;
        assert!(started < TRIPS, "the batch finished before stdin closed");
        if started > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the batch never started");
    }
    drop(stdin);

    let response = client.read_response();
    assert_eq!(response.status, 200);
    let want: Vec<_> = trips.iter().map(|spq| h.reference_trip(spq)).collect();
    assert_eq!(response.body_str(), wire::encode_trips(&want));
    let status = router.wait().expect("router exit");
    assert_eq!(status.code(), Some(0), "router exit: {status:?}");
}

/// The count behind the frontier rounds, on the benchmark's own traffic:
/// replays `benchmark/`'s `trip_stream` (medium world, seeds 1 and 4 —
/// temporal-filter, user-filter and fixed-interval trips in equal thirds
/// over 3 072 distinct query trajectories, β = 20, own trajectory
/// excluded) through a real 2-node cluster and prints, per query type,
/// ladders (= RPCs when every ladder was its own RPC), RPCs and rounds
/// per trip. A count, not a timing: `cargo test --release --test
/// cluster_equivalence -- --ignored --nocapture trip_stream`.
#[test]
#[ignore = "count report over the benchmark's medium world (≈ 1 min in release)"]
fn trip_stream_takes_one_rpc_per_round_and_shard() {
    use tthr::client::ClusterRouter;
    use tthr::core::{QueryEngineConfig, ShardNodeState, ShardedSntIndex, SntConfig, Spq};
    use tthr::datagen::{
        generate_network, generate_workload, sample_query_trajectories, NetworkConfig,
        WorkloadConfig,
    };
    use tthr::server::node::{serve_node, NodeStore};

    // The benchmark's world and cluster tier: one `serve_node` thread per
    // shard.
    let syn = generate_network(&NetworkConfig::medium());
    let set = generate_workload(&syn, &WorkloadConfig::medium());
    let dir = std::env::temp_dir().join(format!("tthr-trip-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reference = ShardedSntIndex::build(&syn.network, &set, SntConfig::default(), CLUSTER_K);
    let addrs: Vec<_> = (0..CLUSTER_K)
        .map(|shard| {
            let state = ShardNodeState::export_from(&reference, shard);
            let store = NodeStore::init(dir.join(format!("node{shard}")), state).expect("store");
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            std::thread::spawn(move || serve_node(listener, store));
            addr
        })
        .collect();
    let config = QueryEngineConfig::default();
    let router = ClusterRouter::connect(
        syn.network.clone(),
        &addrs,
        config.clone(),
        ClientConfig::default(),
    )
    .expect("connect");
    let engine = QueryEngine::new(&reference, &syn.network, config);

    // `benchmark/src/world.rs`: its SplitMix64, `query_trajectories` and
    // `trip_stream`, so the requests are the benchmark's to the byte.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }
    const DISTINCT: usize = 3072;
    let trip_stream = |seed: u64| -> Vec<Spq> {
        let all = sample_query_trajectories(&set, 1.0, 15, seed);
        let step = (all.len() / DISTINCT).max(1);
        let mut ids: Vec<_> = all.into_iter().step_by(step).take(DISTINCT).collect();
        let mut rng = Rng(seed ^ 0x5AFF_1E00);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut rng = Rng(seed ^ 0x7219_C01D);
        let mut pairs = std::collections::HashSet::new();
        let mut trips: Vec<Spq> = Vec::with_capacity(DISTINCT);
        while trips.len() < DISTINCT {
            let i = trips.len();
            let id = ids[i % ids.len()];
            let offset = rng.below(3600) as i64 - 1800;
            if !pairs.insert((id.0, offset)) {
                continue;
            }
            let tr = set.get(id);
            let centre = tr.start_time() + offset;
            let window = TimeInterval::periodic_around(centre, 900);
            let spq = match i % 3 {
                0 => Spq::new(tr.path(), window),
                1 => Spq::new(tr.path(), window).with_user(tr.user()),
                _ => Spq::new(tr.path(), TimeInterval::fixed(0, centre.max(1))),
            };
            trips.push(spq.with_beta(20).without_trajectory(id));
        }
        trips
    };

    for seed in [1, 4] {
        // Per query type: trips, ladders, RPCs, rounds.
        let mut table = [[0u64; 4]; 3];
        let (mut rpcs_per_trip, mut ladders_per_trip) = (Vec::new(), Vec::new());
        for (i, spq) in trip_stream(seed).iter().enumerate() {
            let before = common::cluster::router_rpcs(&router);
            let trip = router.trip_query(spq).expect("cluster trip");
            let rpcs = common::cluster::router_rpcs(&router) - before;
            assert_eq!(rpcs, trip.trace.ladder_batches);
            let want = engine.trip_query(spq);
            assert!(common::differential::trips_equal(&want, &trip), "{spq:?}");
            // At most one RPC per shard per round.
            let rounds = want.trace.ladder_batches;
            assert!(rpcs <= CLUSTER_K as u64 * rounds);
            let row = &mut table[i % 3];
            *row = [
                row[0] + 1,
                row[1] + trip.trace.ladders,
                row[2] + rpcs,
                row[3] + rounds,
            ];
            rpcs_per_trip.push(rpcs);
            ladders_per_trip.push(trip.trace.ladders);
        }

        let mut total = [0u64; 4];
        for row in table {
            for (t, r) in total.iter_mut().zip(row) {
                *t += r;
            }
        }
        let per_trip = |sum: u64, trips: u64| sum as f64 / trips as f64;
        println!("seed {seed}: query type        trips  ladders/trip  RPCs/trip  rounds/trip");
        for (name, row) in ["temporal filter", "user filter", "fixed interval", "all"]
            .iter()
            .zip(table.into_iter().chain([total]))
        {
            println!(
                "        {name:<17} {:>5}  {:>12.2}  {:>9.2}  {:>11.2}",
                row[0],
                per_trip(row[1], row[0]),
                per_trip(row[2], row[0]),
                per_trip(row[3], row[0]),
            );
        }
        rpcs_per_trip.sort_unstable();
        ladders_per_trip.sort_unstable();
        let (median, p99) = (DISTINCT / 2, DISTINCT * 99 / 100);
        println!(
            "        median trip: {} ladders, {} RPCs; p99: {} ladders, {} RPCs",
            ladders_per_trip[median],
            rpcs_per_trip[median],
            ladders_per_trip[p99],
            rpcs_per_trip[p99],
        );
        assert!(
            per_trip(total[2], total[0]) <= 11.0,
            "a trip must take ≤ 11 router RPCs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Long-running soak: many more rounds and queries, plus a mid-stream
/// restart cycle. Run explicitly (`cargo test -- --ignored cluster_soak`)
/// or from the nightly workflow.
#[test]
#[ignore = "soak: long-running cluster differential, run explicitly or nightly"]
fn cluster_soak() {
    let mut h = ClusterHarness::boot("soak", ClientConfig::default());
    let mut gen = QueryGen::new("cluster_soak");
    run_differential(&mut h, &mut gen, 3, 150);
    h.cluster.snapshot_all().expect("snapshot rotation");
    for shard in 0..CLUSTER_K {
        h.kill_node(shard);
        h.respawn_node(shard);
    }
    h.reconnect();
    run_differential(&mut h, &mut gen, 3, 150);
}
