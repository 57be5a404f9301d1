//! Every serving tier returns the paper's `getTravelTimes` and trip
//! answers (Procedure 5) byte for byte: the in-process service over the
//! monolithic and the sharded index (K ∈ {1, 2, 7}), the HTTP server
//! over either backend, and the router over real `tthr-node` processes.
//!
//! Each leg is written once and run from the table below, one `#[test]`
//! per (leg, tier) named `<leg>::<tier>`, against one oracle: a
//! direct-append `SntIndex` answered by the single-threaded engine
//! (`common::differential`). Checks that belong to one tier are plain
//! tests further down.
//!
//! Query generation is deterministic per leg (the proptest shim seeds
//! from the leg name); `TTHR_DIFF_SEED` re-seeds the stream without
//! touching the code. The long soaks are `#[ignore]`d and run nightly:
//! `cargo test --release --test equivalence -- --ignored soak::`.

mod common;

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::cluster::{read_listening_line, ClusterHarness, CLUSTER_K};
use common::differential::{ladder_levels, Oracle, QueryGen, Run};
use common::http::{batch_body, encode_frame_request, encode_request, post, HttpClient};
use common::tier::{service_config, Build, Http, InProcess, Tier, TierSpec};
use common::{prefix_set, small_world};
use tthr::client::{ClientConfig, ClusterRouter};
use tthr::core::{
    CardinalityMode, QueryEngine, QueryEngineConfig, ShardRouter, ShardedSntIndex, SntConfig,
    SntIndex, Spq, TimeInterval, TravelTimes,
};
use tthr::rpc::{encode_frame, Message};
use tthr::server::http::FRAME_CONTENT_TYPE;
use tthr::server::{cluster, serve, serve_router, wire, ServerConfig, ServerHandle};
use tthr::service::{IngestConfig, QueryService, ServiceBackend, ServiceConfig};
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

/// The tiers, by the name their tests carry.
mod tiers {
    use super::common::tier::{Front::*, TierSpec};

    macro_rules! tiers {
        ($($name:ident: $front:ident, $shards:expr, $hot_tail:expr;)*) => {$(
            pub(crate) fn $name() -> TierSpec {
                TierSpec {
                    name: stringify!($name),
                    front: $front,
                    shards: $shards,
                    hot_tail: $hot_tail,
                }
            }
        )*};
    }

    tiers! {
        mono: InProcess, 0, false;
        k1: InProcess, 1, false;
        k2: InProcess, 2, false;
        k7: InProcess, 7, false;
        mono_hot: InProcess, 0, true;
        k1_hot: InProcess, 1, true;
        k2_hot: InProcess, 2, true;
        k7_hot: InProcess, 7, true;
        http_mono: Http, 0, false;
        http_k2: Http, 2, false;
        http_mono_hot: Http, 0, true;
        cluster: Cluster, 2, false;
        cluster_hot: Cluster, 2, true;
    }
}

/// One `#[test]` per (leg, tier), named `<leg>::<tier>`; an `ignored`
/// leg runs only on request.
macro_rules! legs {
    ($($leg:ident: $($tier:ident),+;)*) => {$(
        legs!(@leg [cfg_attr(any(), ignore)] $leg: $($tier),+);
    )*};
    (ignored $leg:ident: $($tier:ident),+;) => {
        legs!(@leg [ignore = "long soak; run explicitly (nightly CI entry)"] $leg: $($tier),+);
    };
    (@leg $attr:tt $leg:ident: $($tier:ident),+) => {
        mod $leg {
            $(
                #[test]
                #$attr
                fn $tier() {
                    super::$leg(super::tiers::$tier());
                }
            )+
        }
    };
}

legs! {
    spq_mix: mono, k1, k2, k7;
    trip_mix: mono, k1, k2, k7;
    estimator_mix: mono, k1, k2, k7;
    append_interleaving: mono, k1, k2, k7;
    checkpoint_restart: mono, k1, k2, k7;
    hot_tail_compaction: mono_hot, k1_hot, k2_hot, k7_hot;
    ladder: mono_hot, k1_hot, k2_hot, k7_hot, cluster, cluster_hot;
    rounds: http_mono, http_k2, http_mono_hot, cluster, cluster_hot;
    concurrent_appends: mono, http_k2;
}
legs!(ignored soak: mono, k1, k2, k7, cluster;);

// ------------------------------------------------------------------ legs

/// 260 random SPQs of every flavor (fixed/periodic intervals, β, user
/// filters, exclusions) against a static index.
fn spq_mix(tier: TierSpec) {
    Run::new("spq_mix", tier).check_fresh(260, 0);
}

/// 210 trip queries, each asked cold and then warm (a result-cache hit),
/// then as `/batch`es of 30. Periodic ones exercise the sequential
/// shift-and-enlarge path, fixed ones the parallel chain fan-out, and
/// all run σ's relaxation (widen → split → drop → fallback).
fn trip_mix(tier: TierSpec) {
    let mut r = Run::new("trip_mix", tier);
    let queries: Vec<Spq> = (0..210).map(|_| r.spq()).collect();
    for _pass in ["cold", "warm"] {
        for q in &queries {
            r.check_trip(q);
        }
    }
    for batch in queries.chunks(30) {
        r.check_batch(batch);
    }
}

/// The cardinality-estimator gate consults the index *before* scanning;
/// its per-partition ISA × time-of-day sums must agree between monolith
/// and shards, or gating decisions (and thus results and stats) diverge.
fn estimator_mix(tier: TierSpec) {
    let engine = QueryEngineConfig {
        estimator: Some(CardinalityMode::CssAcc),
        ..QueryEngineConfig::default()
    };
    Run::with_engine("estimator_mix", tier, engine).check_fresh(200, 60);
}

/// The rest of the stream appended in random batch sizes, with 8 SPQs
/// and 1 trip checked after every batch, and the previous batch's
/// queries (cached by then) asked again so no stale entry survives an
/// append. The stream must include batches that touch several of 7
/// shards at once.
fn append_interleaving(tier: TierSpec) {
    let mut r = Run::new("append_interleaving", tier);
    let router = ShardRouter::build(&r.oracle.network, 7);
    let check = |r: &Run, queries: &[Spq]| {
        for q in &queries[..8] {
            r.check_spq(q);
        }
        r.check_trip(&queries[8]);
    };
    let (mut checks, mut widest) = (0usize, 0usize);
    let mut previous: Vec<Spq> = Vec::new();
    while r.can_append() {
        let from = r.applied;
        let n = 1 + r.gen.range(0..8);
        r.append_next(n);
        let mut shards: Vec<usize> = (from..r.applied)
            .flat_map(|id| r.full.get(TrajId(id as u32)).entries().to_vec())
            .map(|e| router.shard_of(e.edge))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        widest = widest.max(shards.len());
        if !previous.is_empty() {
            check(&r, &previous);
        }
        previous = (0..9).map(|_| r.spq()).collect();
        check(&r, &previous);
        checks += previous.len();
    }
    assert!(checks >= 200, "only {checks} checks — stream too short");
    assert!(widest >= 2, "no append batch ever touched ≥ 2 of 7 shards");
}

/// Appends, queries, snapshots and restarts (which replay the WAL) mixed
/// by the RNG; answers stay byte-identical through every restart.
fn checkpoint_restart(tier: TierSpec) {
    let mut r = Run::new("checkpoint_restart", tier);
    let (mut checks, mut snapshots, mut reopens) = (0usize, 0usize, 0usize);
    for round in 0..16 {
        match r.gen.range(0..6) {
            0 => {
                assert!(r.tier.snapshot(), "{} cannot snapshot", tier.name);
                snapshots += 1;
            }
            1 => {
                assert!(r.tier.restart(), "{} cannot restart", tier.name);
                reopens += 1;
            }
            _ => {
                let n = 1 + r.gen.range(0..12);
                r.append_next(n);
            }
        }
        checks += r.check_fresh(12, usize::from(round % 2 == 0));
    }
    // The persistence steps are deterministic parts of the mix even if
    // the RNG rolled unluckily.
    r.tier.snapshot();
    r.append_next(4);
    r.tier.restart();
    snapshots += 1;
    reopens += 1;
    checks += r.check_fresh(16, 0);
    assert!(checks >= 200, "only {checks} checks");
    assert!(snapshots >= 1 && reopens >= 1);
}

/// Hot-tail ingestion: appends absorb into the hot tail and are sealed
/// by randomly interleaved compactions, against the direct-append oracle;
/// a snapshot taken with a live hot tail and a restart prove the tail
/// survives persistence.
fn hot_tail_compaction(tier: TierSpec) {
    let mut r = Run::new("hot_tail_compaction", tier);
    // The stream this leg has always drawn: two compactions after the
    // snapshot, each a full snapshot rotation (seconds at K = 7 in debug).
    r.gen = QueryGen::new("hot_tail_mix");
    let (mut checks, mut compactions, mut sealed, mut max_hot) = (0usize, 0usize, 0usize, 0usize);
    let mut snapshotted = false;
    let mut round = 0usize;
    while r.can_append() {
        let n = 1 + r.gen.range(0..16);
        r.append_next(n);
        max_hot = max_hot.max(r.tier.hot_entries().expect("hot entries"));
        if !snapshotted && r.applied > r.full.len() / 2 {
            // Snapshot with a live hot tail: later appends WAL-log on
            // top of the persisted tail.
            assert!(r.tier.snapshot(), "{} cannot snapshot", tier.name);
            snapshotted = true;
        }
        if r.gen.range(0..4) == 0 {
            sealed += r.tier.compact();
            compactions += 1;
        }
        checks += r.check_fresh(4, usize::from(round.is_multiple_of(2)));
        round += 1;
    }
    assert!(max_hot > 0, "checks never saw a non-empty hot tail");

    // Restart restores the snapshot (hot tail included) and replays every
    // WAL record absorbed since.
    assert!(r.tier.restart(), "{} cannot restart", tier.name);
    checks += r.check_fresh(12, 0);

    // Final seal: the fully compacted state answers identically too.
    sealed += r.tier.compact();
    compactions += 1;
    checks += r.check_fresh(12, 1);
    assert!(checks >= 100, "only {checks} checks — stream too short");
    assert!(compactions >= 2 && sealed > 0, "compaction never exercised");
}

/// `ladder ≡ sequential`: the tier answers σ's whole widening sequence in
/// one call; the level-by-level loop it replaced is the oracle. Queries
/// are drawn to climb the ladder (off-list window lengths, centres that
/// wrap midnight, β ∈ {1, 20, unreachable}, user filter, exclusion id),
/// with appends keeping a hot tail non-empty and compactions sealing it.
fn ladder(tier: TierSpec) {
    let mut r = Run::new("ladder", tier);
    let (mut checks, mut climbed, mut widened, mut exhausted, mut max_hot) = (0, 0, 0, 0, 0);
    while r.can_append() {
        let n = 1 + r.gen.range(0..40);
        r.append_next(n);
        max_hot = max_hot.max(r.tier.hot_entries().unwrap_or(0));
        if r.gen.range(0..5) == 0 {
            r.tier.compact();
        }
        for _ in 0..4 {
            let q = r.ladder_spq();
            climbed += usize::from(ladder_levels(&r.oracle.engine, &q).len() > 1);
            let (level, times) = r.check_ladder(&q);
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
    if tier.hot_tail && r.tier.hot_entries().is_some() {
        assert!(max_hot > 0, "checks never saw a non-empty hot tail");
    }
}

/// Rounds through a network front door: fresh queries (`/spq`, every
/// third as `/trip`), a `/batch`, the count and estimator primitives
/// where the tier answers them, a stamped append, and the round's
/// queries again — cached by then, so a stale entry shows. Round 1
/// compacts first (seals the hot tail; rotates node snapshots), and a
/// tier that can restart is restarted at the end, replaying the appends
/// since that rotation from the WAL.
fn rounds(tier: TierSpec) {
    let mut r = Run::new("rounds", tier);
    for round in 0..4 {
        let queries: Vec<Spq> = (0..12).map(|_| r.spq()).collect();
        r.check_all(&queries, 3);
        r.check_batch(&queries[..6]);
        r.check_primitives(5);
        if round == 1 {
            r.tier.compact();
        }
        if round < 3 {
            r.append_next(2 + round);
            if let (true, Some(hot)) = (tier.hot_tail, r.tier.hot_entries()) {
                assert!(
                    hot > 0,
                    "{} round {round}: the append must land in the hot tail",
                    tier.name
                );
            }
            r.check_all(&queries, 3);
        }
    }
    if r.tier.restart() {
        let queries: Vec<Spq> = (0..20).map(|_| r.spq()).collect();
        r.check_all(&queries, 5);
    }
}

/// Queries racing appends: four readers ask `/spq` and `/trip` while the
/// rest of the stream lands in six stamped batches. Every answer is the
/// oracle's at one of the generations the appends pass through — never a
/// mix, so a trip's parallel chains cannot straddle an append — and once
/// the appends quiesce, every answer is the final oracle's.
fn concurrent_appends(tier: TierSpec) {
    let mut r = Run::new("concurrent_appends", tier);
    let queries: Vec<Spq> = (0..16).map(|_| r.spq()).collect();
    let answers = |o: &Oracle| -> Vec<[Vec<u8>; 2]> {
        queries.iter().map(|q| [o.spq(q), o.trip(q)]).collect()
    };
    let mut generations = vec![answers(&r.oracle)];
    let mut batches = Vec::new();
    let step = (r.full.len() - r.applied).div_ceil(6);
    while r.can_append() {
        let to = (r.applied + step).min(r.full.len());
        r.oracle.append(&r.full, to);
        generations.push(answers(&r.oracle));
        batches.push((r.applied, to));
        r.applied = to;
    }
    let (served, full, generations) = (&*r.tier, &r.full, &generations);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for &(from, to) in &batches {
                assert_eq!(served.append(full, from, to), to - from, "{}", tier.name);
            }
        });
        for reader in 0..4 {
            let queries = &queries;
            scope.spawn(move || {
                for i in 0..48 {
                    let (j, which) = ((i + reader * 5) % queries.len(), (i + reader) % 2);
                    let got = match which {
                        0 => served.spq(&queries[j]),
                        _ => served.trip(&queries[j]),
                    };
                    assert!(
                        generations.iter().any(|g| g[j][which] == got),
                        "concurrent_appends on {}: reader {reader} request {i} ({}) of \
                         query {j} matches no generation: {}",
                        tier.name,
                        ["/spq", "/trip"][which],
                        String::from_utf8_lossy(&got),
                    );
                }
            });
        }
    });
    r.check_all(&queries, 1);
}

/// Long randomized soak: snapshots, restarts, appends, 60 SPQs and 6
/// trips a round, re-seeded per night via `TTHR_DIFF_SEED`.
fn soak(tier: TierSpec) {
    let mut r = Run::new("soak", tier);
    for round in 0..160 {
        match r.gen.range(0..8) {
            0 => assert!(r.tier.snapshot(), "{} cannot snapshot", tier.name),
            1 => assert!(r.tier.restart(), "{} cannot restart", tier.name),
            2 | 3 => {
                let n = 1 + r.gen.range(0..16);
                r.append_next(n);
            }
            _ => {}
        }
        r.check_fresh(60, 6);
        if round % 20 == 0 {
            println!(
                "soak round {round} on {}: {} trajectories applied",
                tier.name, r.applied
            );
        }
    }
}

// ------------------------------------------------------ in-process checks

/// An in-process run over the monolith, typed so the test can read the
/// service's own counters.
fn mono_service(leg: &'static str, config: ServiceConfig) -> Run<InProcess<SntIndex>> {
    Run::over_service(leg, "mono", 0, config, |svc, config| {
        InProcess::new("mono", svc, config, leg)
    })
}

/// `clients` threads walk `queries` `rounds` times, each from its own
/// offset so cache hits and misses interleave, while `meanwhile` runs;
/// every trip must be `expected`.
fn hammer(
    tier: &dyn Tier,
    queries: &[Spq],
    expected: &[Vec<u8>],
    clients: usize,
    rounds: usize,
    meanwhile: impl FnOnce(),
) {
    std::thread::scope(|scope| {
        for client in 0..clients {
            scope.spawn(move || {
                for round in 0..rounds {
                    for i in 0..queries.len() {
                        let j = (i + client * 5 + round) % queries.len();
                        assert!(
                            tier.trip(&queries[j]) == expected[j],
                            "client {client} round {round} query {j}: trip diverged"
                        );
                    }
                }
            });
        }
        meanwhile();
    });
}

/// Eight clients share one service, walking the same mix from different
/// offsets so cache hits and misses interleave across threads, then ask
/// it as one `/batch`. Every answer is the oracle's, and the service's
/// counters account for every trip.
#[test]
fn eight_thread_stress_stays_consistent() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    let config = ServiceConfig {
        num_threads: 8,
        cache_capacity: 1 << 14,
        ..ServiceConfig::default()
    };
    let mut r = mono_service("stress", config);
    let queries: Vec<Spq> = (0..24)
        .map(|i| if i % 2 == 0 { r.spq() } else { r.ladder_spq() })
        .collect();
    let expected: Vec<Vec<u8>> = queries.iter().map(|q| r.oracle.trip(q)).collect();
    hammer(&*r.tier, &queries, &expected, CLIENTS, ROUNDS, || {});
    r.check_batch(&queries);

    let stats = r.tier.svc.stats();
    assert_eq!(
        stats.trip_queries,
        ((CLIENTS * ROUNDS + 1) * queries.len()) as u64
    );
    assert!(
        stats.cache.hits > stats.cache.misses,
        "repeated mixes must be cache-dominated: {:?}",
        stats.cache
    );
    assert!(stats.cache.hit_rate() > 0.0);
    assert!(stats.latency.p50_ms <= stats.latency.p95_ms);
    assert!(stats.latency.p95_ms <= stats.latency.p99_ms);
    assert!(stats.throughput_qps > 0.0);
}

/// A compaction racing live queries never perturbs an answer. Sealing
/// the hot tail preserves byte identity (unlike an append, which has two
/// legitimate generations), so every response taken while `compact_now`
/// runs must equal the one oracle answer.
#[test]
fn queries_racing_compaction_are_unperturbed() {
    let config = ServiceConfig {
        num_threads: 8,
        ..service_config(&QueryEngineConfig::default(), true)
    };
    let mut r = mono_service("racing_compaction", config);
    let queries: Vec<Spq> = (0..24).map(|_| r.spq()).collect();
    let rest = r.full.len() - r.applied;
    r.append_next(rest);
    assert!(
        r.tier.hot_entries() > Some(0),
        "the batch must land in the tail"
    );
    let expected: Vec<Vec<u8>> = queries.iter().map(|q| r.oracle.trip(q)).collect();
    hammer(&*r.tier, &queries, &expected, 4, 4, || {
        // Seal the tail while the clients are mid-flight.
        std::thread::sleep(Duration::from_millis(2));
        assert!(r.tier.compact() > 0);
    });
    assert_eq!(
        r.tier.svc.stats().generation,
        1,
        "the absorb append is the only generation bump — sealing adds none"
    );
    r.check_all(&queries, 1);
}

// ------------------------------------------------------------ HTTP checks

/// Asks one `/spq` twice as JSON, then twice as a frame (the frame first
/// when `frame_first`), and asserts every answer is `want` in its
/// encoding. The repeats are result-cache hits, so the reactor answers
/// them: `inline_hits` advances by exactly one each.
fn assert_spq_twice(server: &ServerHandle, q: &Spq, want: &TravelTimes, frame_first: bool) {
    let json = wire::encode_spq(q);
    let want_json = wire::encode_travel_times(want);
    let want_frame = encode_frame(&Message::TravelTimesResult {
        values: want.values.to_vec(),
        fallback: want.fallback,
    });
    let frame = encode_frame_request(&encode_frame(&Message::TravelTimes(q.clone())));
    let mut client = HttpClient::connect(server.local_addr());
    for ask in 0..4 {
        let hits = server.metrics().inline_hits;
        let as_json = (ask < 2) != frame_first;
        let response = if as_json {
            client.request("POST", "/spq", json.as_bytes())
        } else {
            client.send_raw(&frame);
            client.read_response()
        };
        assert_eq!(response.status, 200, "{q:?}: {:?}", response.body);
        let want: &[u8] = if as_json {
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

/// Every `/spq` repeat is a result-cache hit the reactor answers itself,
/// as JSON and as a frame, with the oracle's bytes — also right after an
/// append made the cached entries stale — over either backend. Then one
/// keep-alive connection pipelines hits between fresh misses, and every
/// answer comes back in request order with the oracle's bytes.
#[test]
fn repeated_spqs_are_inline_hits_with_the_oracle_bytes() {
    fn check<B: Build>(name: &'static str, shards: usize) {
        let config = service_config(&QueryEngineConfig::default(), false);
        let mut r = Run::over_service::<B>("inline_hits", name, shards, config, |svc, _| {
            Http::new(name, svc)
        });
        let queries: Vec<Spq> = (0..12).map(|_| r.spq()).collect();
        for round in 0..2 {
            for (i, q) in queries.iter().enumerate() {
                let want = r.oracle.index.get_travel_times(q);
                assert_spq_twice(&r.tier.server, q, &want, i % 2 == 1);
            }
            if round == 0 {
                r.append_next(4);
            }
        }

        let fresh: Vec<Spq> = (0..queries.len()).map(|_| r.spq()).collect();
        let burst: Vec<&Spq> = queries
            .iter()
            .zip(&fresh)
            .flat_map(|(a, b)| [b, a])
            .collect();
        let mut client = HttpClient::connect(r.tier.server.local_addr());
        let requests: Vec<u8> = burst
            .iter()
            .flat_map(|q| encode_request("POST", "/spq", wire::encode_spq(q).as_bytes()))
            .collect();
        client.send_raw(&requests);
        for q in burst {
            let want = wire::encode_travel_times(&r.oracle.index.get_travel_times(q));
            assert_eq!(client.read_response().body_str(), want, "pipelined {q:?}");
        }
    }
    check::<SntIndex>("http_mono", 0);
    check::<ShardedSntIndex>("http_k2", 2);
}

/// Hot-tail ingestion is observable over the wire: after absorbed
/// appends and one compaction, `/health` reports the lifecycle and
/// `/metrics` its counters.
#[test]
fn hot_tail_lifecycle_is_observable_over_http() {
    let config = service_config(&QueryEngineConfig::default(), true);
    let name = "http_mono_hot";
    let mut r = Run::over_service::<SntIndex>("hot_tail_http", name, 0, config, |svc, _| {
        Http::new(name, svc)
    });
    r.append_next(2);
    assert!(r.tier.compact() > 0);
    r.append_next(3);
    assert!(
        r.tier.hot_entries() > Some(0),
        "/append must land in the hot tail"
    );

    let mut client = HttpClient::connect(r.tier.server.local_addr());
    let health = client.request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    let parsed = tthr::server::json::parse(&health.body).expect("health json");
    let ingest = parsed.get("ingest").expect("ingest status");
    assert_eq!(ingest.get("hot_tail").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(int_at(ingest, &["compactions"]), Some(1));
    assert!(int_at(ingest, &["hot_entries"]).unwrap() > 0);

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
}

/// A retention pass that drops partitions changes answers the cache holds:
/// after it, every `/spq` the reactor answers is the served index's own
/// uncached answer, never the pre-retention entry.
#[test]
fn retention_leaves_no_stale_inline_hit() {
    let (syn, full) = small_world();
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
            ..service_config(&QueryEngineConfig::default(), true)
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
                assert_spq_twice(&server, q, &truth, false);
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

/// The integer at `path` in a JSON document.
fn int_at(v: &tthr::server::json::Json, path: &[&str]) -> Option<i64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_i64()
}

/// A served monolith over the whole small world.
fn serve_whole_world() -> (TrajectorySet, ServerHandle) {
    let (syn, set) = small_world();
    let network = Arc::new(syn.network);
    let service = QueryService::new(
        SntIndex::build(&network, &set, SntConfig::default()),
        network,
        service_config(&QueryEngineConfig::default(), false),
    );
    let server = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("boot");
    (set, server)
}

/// A travel time past a day, or an entry time near the `i64` extremes,
/// is refused at `/append` with a `400`, and no later answer changes.
/// Were the first indexed, every histogram over its edge would size its
/// buckets by it (`1e234` s asks for ≈ 10²³³ buckets): a `500` on every
/// `/trip` there. Were the second, the periodic day-window and the scan
/// bound arithmetic would overflow: wrong answers in a release build, a
/// panic in a debug one, on every later query over its edges.
#[test]
fn an_overlong_travel_time_is_a_400_and_never_a_500() {
    let (set, server) = serve_whole_world();
    let mut client = HttpClient::connect(server.local_addr());
    let (first, second) = match set.get(TrajId(0)).entries() {
        [first, second, ..] => (*first, *second),
        short => panic!("trajectory 0 has {} entries", short.len()),
    };
    let trip = Spq::new(
        tthr::network::Path::new(vec![first.edge]),
        TimeInterval::fixed(first.enter_time - 60, first.enter_time + 60),
    );
    let spqs = [
        Spq::new(
            tthr::network::Path::new(vec![first.edge]),
            TimeInterval::periodic_around(first.enter_time, 3600),
        ),
        Spq::new(
            tthr::network::Path::new(vec![first.edge, second.edge]),
            TimeInterval::fixed(first.enter_time - 3600, second.enter_time + 3600),
        ),
    ]
    .map(|spq| wire::encode_spq(&spq));
    let answers = |client: &mut HttpClient| {
        spqs.iter()
            .map(|spq| {
                let response = client.request("POST", "/spq", spq.as_bytes());
                (response.status, response.body_str().to_string())
            })
            .collect::<Vec<_>>()
    };
    let before = answers(&mut client);
    assert!(
        before.iter().all(|(status, _)| *status == 200),
        "{before:?}"
    );
    for entries in [
        vec![TrajEntry::new(first.edge, first.enter_time + 1, 1e234)],
        vec![
            TrajEntry::new(first.edge, i64::MIN, 5.0),
            TrajEntry::new(second.edge, i64::MAX, 5.0),
        ],
    ] {
        let body = wire::encode_append_request(None, &[(UserId(0), entries)]);
        let response = client.request("POST", "/append", body.as_bytes());
        assert_eq!(response.status, 400, "{}", response.body_str());
        let response = client.request("POST", "/trip", wire::encode_spq(&trip).as_bytes());
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(answers(&mut client), before);
    }
    assert_eq!(server.shutdown().server_errors, 0);
}

/// The inline endpoints and the error paths of the router.
#[test]
fn health_stats_and_router_errors() {
    let (set, server) = serve_whole_world();
    let mut client = HttpClient::connect(server.local_addr());
    let health = client.request("GET", "/health", b"");
    assert_eq!(health.status, 200);
    let parsed = tthr::server::json::parse(&health.body).expect("health json");
    assert_eq!(parsed.get("status").and_then(|v| v.as_str()), Some("ok"));
    let ingest = parsed.get("ingest").expect("health carries ingest status");
    assert_eq!(
        ingest.get("hot_tail").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert_eq!(int_at(ingest, &["compactions"]), Some(0));

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
        int_at(&parsed, &["spq_queries"]),
        Some(5),
        "{}",
        stats.body_str()
    );
    let spq_ep = parsed
        .get("endpoints")
        .and_then(|e| e.get("spq"))
        .expect("per-endpoint block");
    assert_eq!(int_at(spq_ep, &["latency", "count"]), Some(5));
    assert!(
        !spq_ep
            .get("buckets_ns")
            .and_then(|b| b.as_arr())
            .expect("bucket export")
            .is_empty(),
        "raw bucket export must be present"
    );
    assert!(int_at(&parsed, &["server", "requests"]).unwrap() >= 6);
    let bytes_in = int_at(&parsed, &["server", "bytes_in"]).unwrap();
    assert!(bytes_in > 0, "socket byte accounting must be live");

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
        .map(|e| int_at(e, &["trace", "rank_ops"]).expect("trace.rank_ops"))
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

// --------------------------------------------------------- cluster checks

/// What the relaxation rounds are for, on sealed and on hot-tail nodes:
/// trips drawn to climb the ladder stay byte-identical to the in-process
/// sharded index, and the router's RPC counter shows one RPC per (round,
/// shard), not one per ladder — exactly the batches the trips' traces
/// report, fewer than the ladders they carried, and for a trip of
/// independent chains at most `shards × rounds`.
fn ladders_take_one_rpc_per_round_and_shard(mut h: ClusterHarness, name: &str) {
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
}

#[test]
fn ladder_trips_take_one_rpc_per_round_and_shard() {
    let h = ClusterHarness::boot("ladder", ClientConfig::default());
    ladders_take_one_rpc_per_round_and_shard(h, "cluster_ladder");
}

#[test]
fn ladder_trips_take_one_rpc_per_round_and_shard_on_hot_tail_nodes() {
    let h = ClusterHarness::boot_hot_tail("ladder-hot", ClientConfig::default());
    ladders_take_one_rpc_per_round_and_shard(h, "cluster_ladder_hot");
}

/// Spawns `tthr-router` over the harness's nodes; returns the process,
/// its stdin (closing it asks the router to exit) and its address.
fn spawn_router(
    h: &ClusterHarness,
    extra: &[&str],
) -> (
    std::process::Child,
    std::process::ChildStdin,
    std::net::SocketAddr,
) {
    let mut args: Vec<String> = Vec::new();
    for addr in h.addrs() {
        args.extend(["--node".to_string(), addr.to_string()]);
    }
    args.extend(extra.iter().map(|a| a.to_string()));
    let mut router = Command::new(env!("CARGO_BIN_EXE_tthr-router"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tthr-router");
    let stdin = router.stdin.take().expect("piped stdin");
    let addr = read_listening_line(router.stdout.take().expect("piped stdout"));
    (router, stdin, addr)
}

/// The router *process* serves the single-process server's JSON wire
/// format over the cluster: `/health`, `/spq`, `/trip` bodies must be
/// byte-identical to encoding the reference answers.
#[test]
fn router_process_serves_the_http_wire_format() {
    let h = ClusterHarness::boot("http", ClientConfig::default());
    let (mut router, stdin, addr) = spawn_router(&h, &["--preset", "small"]);

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

/// Closing `tthr-router`'s stdin drains it: a large `/batch` already in
/// flight arrives whole, and the process exits 0.
#[test]
fn router_process_drains_a_batch_in_flight_when_stdin_closes() {
    const TRIPS: usize = 512;
    let h = ClusterHarness::boot("http-drain", ClientConfig::default());
    let (mut router, stdin, addr) = spawn_router(&h, &[]);

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
/// equivalence -- --ignored --nocapture trip_stream`.
#[test]
#[ignore = "count report over the benchmark's medium world (≈ 1 min in release)"]
fn trip_stream_takes_one_rpc_per_round_and_shard() {
    use tthr::core::ShardNodeState;
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
            assert!(
                wire::encode_trip(&want) == wire::encode_trip(&trip),
                "{spq:?}"
            );
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
