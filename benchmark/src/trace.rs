//! The traced run: one caller replays a fixed number of the workload's
//! requests once at every layer boundary, innermost first, timing each
//! call from outside. Spans stay in memory and are written when the
//! replay ends; per-layer metrics are medians over a boundary's spans
//! and exactly repeating counts read at the same boundaries.

use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use tthr::client::{ClientConfig, NodeClient};
use tthr::core::{
    QueryEngine, QueryEngineConfig, QueryTrace, SearchScratch, SntConfig, SntIndex, Spq,
    TravelTimes,
};
use tthr::rpc::{decode_frame, encode_frame, Message};
use tthr::server::{json, wire};

use crate::http::Client;
use crate::loadgen::{encode_append, AppendPlan};
use crate::metrics::Metrics;
use crate::run::{as_trajectories, Ctx, Timed, Workload};
use crate::stats::{mean, median};
use crate::tiers::{self, Error, Served, Tier};
use crate::world::{encode_post, Endpoint};

/// Every boundary the replay times, with the boundary whose span of the
/// same request encloses it.
const BOUNDARIES: &[(&str, Option<&str>)] = &[
    ("fmindex.isa_ranges", Some("core.spq")),
    ("core.spq", Some("service.spq_miss")),
    ("core.trip", Some("service.trip")),
    ("server.codec", Some("server.spq_json")),
    ("rpc.encode", Some("client.node_rtt")),
    ("rpc.decode", Some("client.node_rtt")),
    ("service.spq_miss", None),
    ("service.spq_hit", Some("server.spq_json")),
    ("server.health", None),
    ("server.spq_json", None),
    ("server.spq_frame", None),
    ("service.trip", Some("server.trip_json")),
    ("server.trip_json", None),
    ("core.sharded_spq", None),
    ("client.node_rtt", Some("client.router_spq")),
    ("client.router_spq", None),
    ("client.router_trip", Some("server.cluster_trip_json")),
    ("server.cluster_trip_json", None),
    ("core.absorb", None),
    ("core.compact", None),
    ("service.append", Some("server.append_json")),
    ("server.append_json", None),
    ("core.spq_hot_tail", None),
];

/// Per-layer timings that are the median span of one boundary:
/// `(metric, boundary, µs per unit, unit)`.
const MEDIANS: &[(&str, &str, f64, &str)] = &[
    ("fmindex.isa_ranges_us", "fmindex.isa_ranges", 1.0, "us"),
    ("core.spq_us", "core.spq", 1.0, "us"),
    ("core.spq_hot_tail_us", "core.spq_hot_tail", 1.0, "us"),
    ("core.trip_us", "core.trip", 1.0, "us"),
    ("core.sharded_spq_us", "core.sharded_spq", 1.0, "us"),
    ("core.absorb_us_per_batch", "core.absorb", 1.0, "us"),
    ("core.compact_ms_per_cycle", "core.compact", 1e3, "ms"),
    ("service.spq_miss_us", "service.spq_miss", 1.0, "us"),
    ("service.spq_hit_us", "service.spq_hit", 1.0, "us"),
    ("service.trip_us", "service.trip", 1.0, "us"),
    ("service.append_us_per_batch", "service.append", 1.0, "us"),
    ("server.health_us", "server.health", 1.0, "us"),
    ("server.spq_json_us", "server.spq_json", 1.0, "us"),
    ("server.spq_frame_us", "server.spq_frame", 1.0, "us"),
    ("server.trip_json_us", "server.trip_json", 1.0, "us"),
    ("server.append_json_ms", "server.append_json", 1e3, "ms"),
    ("server.codec_us", "server.codec", 1.0, "us"),
    ("rpc.encode_ns", "rpc.encode", 1e-3, "ns"),
    ("rpc.decode_ns", "rpc.decode", 1e-3, "ns"),
    ("client.node_rtt_us", "client.node_rtt", 1.0, "us"),
    ("client.router_spq_us", "client.router_spq", 1.0, "us"),
    ("client.router_trip_us", "client.router_trip", 1.0, "us"),
];

/// Self times: the median of an outer boundary minus the median of the
/// next-inner one, `(metric, outer, inner)`, in µs.
const SELF_TIMES: &[(&str, &str, &str)] = &[
    ("temporal.scan_us", "core.spq", "fmindex.isa_ranges"),
    ("service.self_us", "service.spq_miss", "core.spq"),
    ("server.self_us", "server.spq_json", "service.spq_hit"),
    ("client.self_us", "client.router_spq", "client.node_rtt"),
    (
        "server.cluster_http_self_us",
        "server.cluster_trip_json",
        "client.router_trip",
    ),
];

/// Absorb-then-compact cycles the bare index goes through: enough for the
/// data clock to pass the retention horizon of the base partition, so that
/// dropping is part of what is timed.
const CORE_CYCLES: usize = 6;
/// Size-triggered compactions the `/append` replay drives on the served
/// ingest tier (each rotates the snapshot).
const SERVED_CYCLES: usize = 3;

struct Span {
    boundary: usize,
    /// Position in the replay (the request id spans share).
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn boundary(name: &str) -> usize {
        BOUNDARIES
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown boundary {name}"))
    }

    /// Times one call into a layer and records its span.
    fn time<R>(&mut self, name: &str, req: usize, call: impl FnOnce() -> R) -> R {
        let start = self.t0.elapsed();
        let out = std::hint::black_box(call());
        let end = self.t0.elapsed();
        self.spans.push(Span {
            boundary: Self::boundary(name),
            req: req as u32,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    fn p50_us(&self, name: &str) -> f64 {
        let b = Self::boundary(name);
        let mut us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.boundary == b)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&mut us)
    }

    /// One JSON object per span. A span's id is `boundary index · stride +
    /// request id`, so the parent — the enclosing boundary's span of the
    /// same request — is known without a second pass.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let stride = self.spans.iter().map(|s| s.req + 1).max().unwrap_or(1) as u64;
        let recorded: HashSet<(usize, u32)> =
            self.spans.iter().map(|s| (s.boundary, s.req)).collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let (name, parent) = BOUNDARIES[s.boundary];
            let parent = parent
                .map(Self::boundary)
                .filter(|&p| recorded.contains(&(p, s.req)))
                .map_or("null".to_string(), |p| {
                    (p as u64 * stride + s.req as u64).to_string()
                });
            writeln!(
                out,
                "{{\"span\":{},\"request\":{},\"boundary\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.boundary as u64 * stride + s.req as u64,
                s.req,
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}

fn must_200(client: &mut Client, request: &[u8], what: &str) -> Result<(), Error> {
    let status = client.roundtrip(request)?;
    if status != 200 {
        return Err(format!("traced {what}: status {status}").into());
    }
    Ok(())
}

fn frame_request(frame: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /spq HTTP/1.1\r\nhost: benchmark\r\ncontent-type: application/x-tthr-frame\r\ncontent-length: {}\r\n\r\n",
        frame.len()
    )
    .into_bytes();
    out.extend_from_slice(frame);
    out
}

fn fresh_single(ctx: &Ctx) -> Result<Served, Error> {
    match tiers::boot_single(ctx.world)?.tier {
        Tier::Process(s) => Ok(s),
        Tier::Cluster(_) => unreachable!("boot_single boots the single-process tier"),
    }
}

/// The replay's state: what is replayed, the spans so far, the metrics so
/// far, and the innermost boundary's answers every outer reply is checked
/// against.
struct Replay<'a> {
    ctx: &'a Ctx<'a>,
    /// Stream request ids in replay order (Zipf streams repeat some).
    ids: Vec<u32>,
    spqs: Vec<&'a Spq>,
    /// Trips cost milliseconds each; their boundaries replay this many.
    trips: usize,
    rec: Recorder,
    m: Metrics,
    answers: Vec<TravelTimes>,
    spq_len: Vec<usize>,
    trip_len: Vec<usize>,
}

impl Replay<'_> {
    /// fmindex, temporal, core, and the codecs: the bare monolithic index.
    fn bare_index(&mut self, natural_trip: bool) {
        let world = self.ctx.world;
        let t0 = Instant::now();
        let index = SntIndex::build(&world.network, &world.set, SntConfig::default());
        self.m.push("core.build_s", t0.elapsed().as_secs_f64(), "s");
        let report = index.memory_report();
        self.m.push(
            "fmindex.bytes",
            (report.counts_bytes + report.wavelet_bytes) as f64,
            "B",
        );
        self.m
            .push("temporal.forest_bytes", report.forest_bytes as f64, "B");

        for (i, spq) in self.spqs.iter().enumerate() {
            let mut scratch = SearchScratch::new();
            self.rec.time("fmindex.isa_ranges", i, || {
                index.isa_ranges_with(&spq.path, &mut scratch).len()
            });
        }
        let mut spq_trace = QueryTrace::default();
        for (i, spq) in self.spqs.iter().enumerate() {
            let mut scratch = SearchScratch::new();
            let answer = self.rec.time("core.spq", i, || {
                index.get_travel_times_with(spq, &mut scratch)
            });
            spq_trace.merge(&scratch.trace);
            self.spq_len.push(wire::encode_travel_times(&answer).len());
            self.answers.push(answer);
        }
        let engine = QueryEngine::new(&index, &world.network, QueryEngineConfig::default());
        let mut trip_trace = QueryTrace::default();
        for (i, spq) in self.spqs[..self.trips].iter().enumerate() {
            let trip = self.rec.time("core.trip", i, || engine.trip_query(spq));
            trip_trace.merge(&trip.trace);
            self.trip_len.push(wire::encode_trip(&trip).len());
        }
        // Per-read counts come from the call the workload's endpoint makes.
        let (read_trace, reads) = if natural_trip {
            (trip_trace, self.trips)
        } else {
            (spq_trace, self.spqs.len())
        };
        self.m.push(
            "fmindex.rank_ops_per_read",
            read_trace.rank_ops as f64 / reads as f64,
            "count",
        );
        self.m.push(
            "fmindex.wavelet_nodes_per_read",
            read_trace.wavelet_nodes as f64 / reads as f64,
            "count",
        );
        self.m.push(
            "core.index_queries_per_trip",
            trip_trace.index_queries as f64 / self.trips as f64,
            "count",
        );
        self.m.push(
            "core.scratch_hit_ratio",
            trip_trace.scratch_hits as f64
                / (trip_trace.scratch_hits + trip_trace.scratch_misses).max(1) as f64,
            "ratio",
        );
    }

    /// server.codec and rpc: the codecs, timed directly.
    fn codecs(&mut self) {
        let num_edges = self.ctx.world.network.num_edges();
        let mut frame_bytes = Vec::with_capacity(self.spqs.len());
        for (i, (spq, answer)) in self.spqs.iter().zip(&self.answers).enumerate() {
            self.rec.time("server.codec", i, || {
                let body = wire::encode_spq(spq);
                let parsed = json::parse(body.as_bytes()).expect("own encoding parses");
                let decoded = wire::decode_spq(&parsed, num_edges).expect("own encoding decodes");
                (decoded, wire::encode_travel_times(answer))
            });
            let request = Message::TravelTimes((*spq).clone());
            let reply = Message::TravelTimesResult {
                values: answer.values.to_vec(),
                fallback: answer.fallback,
            };
            let (a, b) = self.rec.time("rpc.encode", i, || {
                (encode_frame(&request), encode_frame(&reply))
            });
            self.rec.time("rpc.decode", i, || {
                (
                    decode_frame(&a).expect("own frame decodes"),
                    decode_frame(&b).expect("own frame decodes"),
                )
            });
            frame_bytes.push((a.len() + b.len()) as f64);
        }
        self.m.push("rpc.bytes_per_spq", mean(&frame_bytes), "B");
    }

    /// service + server, SPQ path on one fresh tier: miss, hit, then HTTP
    /// on the warm cache.
    fn spq_path(&mut self) -> Result<(), Error> {
        let tier = fresh_single(self.ctx)?;
        let mut seen = HashSet::new();
        for (i, spq) in self.spqs.iter().enumerate() {
            if seen.insert(self.ids[i]) {
                self.rec
                    .time("service.spq_miss", i, || tier.service.get_travel_times(spq));
            }
        }
        for (i, spq) in self.spqs.iter().enumerate() {
            self.rec
                .time("service.spq_hit", i, || tier.service.get_travel_times(spq));
        }
        // The three loopback round trips of one request run back to back:
        // on a two-core guest a round trip costs ~8 µs when both threads
        // share a core and ~45 µs when they do not, and the scheduler holds
        // either placement for seconds — boundaries that are compared must
        // see the same one.
        let mut client = Client::connect(tier.addr())?;
        let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
        for (i, spq) in self.spqs.iter().enumerate() {
            self.rec
                .time("server.health", i, || client.get("/health"))?;
            let request = encode_post("/spq", wire::encode_spq(spq).as_bytes());
            self.rec.time("server.spq_json", i, || {
                must_200(&mut client, &request, "/spq")
            })?;
            if client.body().len() != self.spq_len[i] {
                return Err(format!("traced /spq {i}: reply differs from core's answer").into());
            }
            bytes_in += request.len();
            bytes_out += client.reply_len();
            let request = frame_request(&encode_frame(&Message::TravelTimes((*spq).clone())));
            self.rec.time("server.spq_frame", i, || {
                must_200(&mut client, &request, "/spq frame")
            })?;
        }
        // Bytes on the wire of the JSON `/spq` exchanges, counted at the
        // client: exactly what the server's counters add, without racing them.
        let n = self.spqs.len() as f64;
        self.m
            .push("server.bytes_in_per_req", bytes_in as f64 / n, "B");
        self.m
            .push("server.bytes_out_per_req", bytes_out as f64 / n, "B");
        drop(client);
        Tier::Process(tier).shutdown();
        Ok(())
    }

    /// service + server, trip path: each boundary on its own cold cache.
    fn trip_path(&mut self) -> Result<(), Error> {
        let tier = fresh_single(self.ctx)?;
        for (i, spq) in self.spqs[..self.trips].iter().enumerate() {
            self.rec
                .time("service.trip", i, || tier.service.trip_query(spq));
        }
        Tier::Process(tier).shutdown();
        let tier = fresh_single(self.ctx)?;
        let mut client = Client::connect(tier.addr())?;
        for (i, spq) in self.spqs[..self.trips].iter().enumerate() {
            let request = encode_post("/trip", wire::encode_spq(spq).as_bytes());
            self.rec.time("server.trip_json", i, || {
                must_200(&mut client, &request, "/trip")
            })?;
            if client.body().len() != self.trip_len[i] {
                return Err(format!("traced /trip {i}: reply differs from core's answer").into());
            }
        }
        drop(client);
        Tier::Process(tier).shutdown();
        Ok(())
    }

    /// core (sharded), client, server::{node, cluster} on a fresh cluster.
    fn cluster_path(&mut self) -> Result<(), Error> {
        let world = self.ctx.world;
        let sharded = tiers::build_sharded(world);
        for (i, spq) in self.spqs.iter().enumerate() {
            let mut scratch = SearchScratch::new();
            self.rec.time("core.sharded_spq", i, || {
                sharded.get_travel_times_with(spq, &mut scratch)
            });
        }
        let dir = self.ctx.out.join("store-trace-cluster");
        let Tier::Cluster(cluster) = tiers::boot_cluster(world, &sharded, &dir)?.tier else {
            unreachable!("boot_cluster boots the cluster tier")
        };
        drop(sharded);
        // `serve_cluster` consumed the tier's router; this one is the
        // replay's own, over the same nodes.
        let router = tiers::connect_router(&world.network, &cluster.nodes)?;
        let nodes: Vec<NodeClient> = cluster
            .nodes
            .iter()
            .map(|&a| NodeClient::new(a, ClientConfig::default()))
            .collect();
        for (i, spq) in self.spqs.iter().enumerate() {
            let node = &nodes[router.routing().shard_of(spq.path.first())];
            let request = Message::TravelTimes((*spq).clone());
            let reply = self
                .rec
                .time("client.node_rtt", i, || node.request(&request))?;
            if !matches!(reply, Message::TravelTimesResult { .. }) {
                return Err(format!("traced node request {i}: unexpected reply {reply:?}").into());
            }
            self.rec
                .time("client.router_spq", i, || router.travel_times(spq))?;
        }
        let mut rpcs = 0usize;
        let mut fanout = 0usize;
        let mut client = Client::connect(cluster.http)?;
        for (i, spq) in self.spqs[..self.trips].iter().enumerate() {
            let trip = self
                .rec
                .time("client.router_trip", i, || router.trip_query(spq))?;
            // Under the default engine configuration every getTravelTimes
            // dispatch is exactly one RPC, and every RPC goes to the shard
            // of a final sub-path's first edge.
            rpcs += trip.stats.index_queries;
            fanout += trip
                .subs
                .iter()
                .map(|s| router.routing().shard_of(s.path.first()))
                .collect::<HashSet<_>>()
                .len();
            let request = encode_post("/trip", wire::encode_spq(spq).as_bytes());
            self.rec.time("server.cluster_trip_json", i, || {
                must_200(&mut client, &request, "cluster /trip")
            })?;
            if client.body().len() != self.trip_len[i] {
                return Err(
                    format!("traced cluster /trip {i}: reply differs from core's answer").into(),
                );
            }
        }
        let trips = self.trips as f64;
        self.m
            .push("client.rpcs_per_trip", rpcs as f64 / trips, "count");
        self.m
            .push("client.fanout_per_trip", fanout as f64 / trips, "count");
        let node_stats = router.node_stats();
        self.m.push(
            "client.retries",
            node_stats.iter().map(|s| s.retries).sum::<u64>() as f64,
            "count",
        );
        self.m.push(
            "client.connects",
            node_stats.iter().map(|s| s.connects).sum::<u64>() as f64,
            "count",
        );
        Ok(())
    }

    /// The ingest lifecycle: on the bare index, then through service,
    /// store and server.
    fn ingest_path(&mut self) -> Result<(), Error> {
        let (world, sizing) = (self.ctx.world, self.ctx.sizing);
        let base = world.first_half();
        let batches = world.second_half_batches(sizing.batch);
        let plan = AppendPlan::new(&batches);
        let retention = tiers::ingest_config(&base, sizing)
            .retention
            .expect("ingest configuration sets retention")
            .as_secs() as i64;
        // Batches between two size-triggered compactions.
        let batch_entries: usize = batches[0].iter().map(|t| t.1.len()).sum();
        let per_cycle = (sizing.hot_max_entries / batch_entries).max(1);

        let mut bare = SntIndex::build(&world.network, &base, SntConfig::default());
        let (mut sealed, mut dropped, mut seq) = (0usize, 0usize, 0u64);
        for cycle in 0..CORE_CYCLES {
            for _ in 0..per_cycle {
                let trajs = as_trajectories(&plan.batch(seq));
                let refs: Vec<_> = trajs.iter().collect();
                self.rec.time("core.absorb", seq as usize, || {
                    bare.absorb_trajectories(&refs)
                });
                seq += 1;
            }
            let horizon = bare.data_max() - retention;
            let outcome = self
                .rec
                .time("core.compact", cycle, || bare.compact(Some(horizon)));
            sealed += outcome.sealed_batches;
            dropped += outcome.dropped_partitions;
        }
        self.m.push("core.sealed_batches", sealed as f64, "count");
        self.m
            .push("core.dropped_partitions", dropped as f64, "count");
        self.m.push(
            "core.live_partitions",
            bare.num_partitions() as f64,
            "count",
        );
        drop(bare);

        let dir = self.ctx.out.join("store-trace-ingest");
        let Tier::Process(tier) = tiers::boot_ingest(world, &base, sizing, &dir)?.tier else {
            unreachable!("boot_ingest boots the single-process tier")
        };
        self.m
            .push("store.snapshot_save_s", tier.snapshot_save_s, "s");
        self.m
            .push("store.snapshot_bytes", tier.snapshot_bytes as f64, "B");
        let wal = dir.join(tthr::service::WAL_FILE);
        let (mut wal_bytes, mut user_bytes, mut acked) = (0u64, 0u64, 0u64);
        for _ in 0..per_cycle {
            let batch = plan.batch(acked);
            let before = std::fs::metadata(&wal)?.len();
            self.rec.time("service.append", acked as usize, || {
                tier.service.append_new(None, &batch)
            })?;
            acked += 1;
            // An append that triggered a compaction truncated the log it
            // would have been weighed in.
            if let Some(grown) = std::fs::metadata(&wal)?.len().checked_sub(before) {
                wal_bytes += grown;
                user_bytes += 20 * batch.iter().map(|t| t.1.len() as u64).sum::<u64>();
            }
        }
        self.m.push(
            "store.wal_bytes_per_user_byte",
            wal_bytes as f64 / user_bytes as f64,
            "ratio",
        );
        // Over HTTP, through compactions: several sealed partitions, then
        // a non-empty hot tail for the read boundary below.
        let mut client = Client::connect(tier.addr())?;
        for _ in 0..(SERVED_CYCLES * per_cycle + per_cycle / 2) {
            let request = encode_append(&plan.batch(acked));
            self.rec.time("server.append_json", acked as usize, || {
                must_200(&mut client, &request, "/append")
            })?;
            acked += 1;
        }
        drop(client);
        if tier.service.hot_stats().batches == 0 {
            // The last append happened to trigger a compaction.
            tier.service.append_new(None, &plan.batch(acked))?;
            acked += 1;
        }
        let mut hot_trace = QueryTrace::default();
        tier.service.with_index(|index| {
            for (i, spq) in self.spqs.iter().enumerate() {
                let mut scratch = SearchScratch::new();
                self.rec.time("core.spq_hot_tail", i, || {
                    index.get_travel_times_with(spq, &mut scratch)
                });
                hot_trace.merge(&scratch.trace);
            }
        });
        self.m.push(
            "core.partitions_searched_per_read",
            hot_trace.partitions_searched as f64 / self.spqs.len() as f64,
            "count",
        );
        // Restart with a non-empty WAL: every acknowledged trajectory must
        // come back.
        let expected = base.len() as u64 + acked * sizing.batch as u64;
        Tier::Process(tier).shutdown();
        let t0 = Instant::now();
        let reopened = tiers::reopen(world, &base, sizing, &dir)?;
        self.m.push("store.open_s", t0.elapsed().as_secs_f64(), "s");
        let found = reopened.with_index(|i| i.num_trajectories()) as u64;
        self.m.push(
            "store.recovered_ratio",
            found as f64 / expected as f64,
            "ratio",
        );
        Ok(())
    }
}

/// Replays the stream at every boundary and returns the traced per-layer
/// metrics; spans go to `<out>/trace-<workload>.jsonl`.
pub fn waterfall(ctx: &Ctx, timed: &Timed) -> Result<Metrics, Error> {
    let stream = &timed.stream;
    let ids = stream.prefix(ctx.sizing.traced_n);
    let spqs: Vec<&Spq> = ids
        .iter()
        .map(|&i| &stream.requests[i as usize].spq)
        .collect();
    let mut replay = Replay {
        ctx,
        trips: ctx.sizing.traced_trips.min(spqs.len()),
        ids,
        spqs,
        rec: Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        },
        m: Metrics::default(),
        answers: Vec::new(),
        spq_len: Vec::new(),
        trip_len: Vec::new(),
    };
    replay.bare_index(stream.endpoint == Endpoint::Trip);
    replay.codecs();
    replay.spq_path()?;
    replay.trip_path()?;
    replay.cluster_path()?;
    replay.ingest_path()?;

    let Replay { rec, mut m, .. } = replay;
    for &(metric, boundary, us_per_unit, unit) in MEDIANS {
        m.push(metric, rec.p50_us(boundary) / us_per_unit, unit);
    }
    for &(metric, outer, inner) in SELF_TIMES {
        m.push(metric, rec.p50_us(outer) - rec.p50_us(inner), "us");
    }
    // The replay's outermost boundary (one caller) over the untraced
    // median (two callers).
    let outermost = match timed.workload {
        Workload::SpqHot | Workload::IngestMixed => "server.spq_json",
        Workload::TripCold => "server.trip_json",
        Workload::ClusterTrip => "server.cluster_trip_json",
    };
    m.push(
        "loadgen.trace_overhead_ratio",
        rec.p50_us(outermost) / timed.read_p50_us,
        "ratio",
    );
    rec.write(
        &ctx.out
            .join(format!("trace-{}.jsonl", timed.workload.name())),
    )?;
    Ok(m)
}
