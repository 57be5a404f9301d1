//! One workload, end to end: set the tier up, check its answers, drive
//! the closed loop for the measured window, check again.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tthr::core::{QueryEngine, QueryEngineConfig, SntConfig, SntIndex, Spq, TimeInterval};
use tthr::server::ServerMetrics;
use tthr::service::{CacheCounters, IngestStatus};
use tthr::trajectory::{TrajId, Trajectory, TrajectorySet};

use crate::check::{self, Checked};
use crate::loadgen::{append_caller, read_caller, AppendPlan, CallerLog, Window};
use crate::metrics::Metrics;
use crate::procfs;
use crate::stats::{median, quantile};
use crate::tiers::{self, Booted, Error, Tier};
use crate::world::{spq_stream, trip_stream, Digest, Payload, Stream, World, CALLERS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpqHot,
    TripCold,
    ClusterTrip,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SpqHot,
        Workload::TripCold,
        Workload::ClusterTrip,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpqHot => "spq_hot",
            Workload::TripCold => "trip_cold",
            Workload::ClusterTrip => "cluster_trip",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run needs that does not depend on the workload.
pub struct Ctx<'a> {
    pub world: &'a World,
    pub sizing: &'a crate::world::Sizing,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Where store directories and trace files go.
    pub out: &'a Path,
}

/// How often the window is sampled for the "stayed flat" readings.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Counters read from the tier's public accessors.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache: CacheCounters,
    server: ServerMetrics,
    ingest: IngestStatus,
    partitions: usize,
    cpu_us: f64,
    rss_mib: f64,
}

fn counters(tier: &Tier) -> Counters {
    let mut c = Counters {
        cpu_us: procfs::cpu_us(),
        rss_mib: procfs::rss_mib(),
        ..Counters::default()
    };
    if let Some(s) = tier.served() {
        c.cache = s.service.stats().cache;
        c.server = s.server.metrics();
        c.ingest = s.service.ingest_status();
        c.partitions = s.service.with_index(|i| i.num_partitions());
    }
    c
}

/// What the timed part of a run hands to the report (and, in a traced
/// run, to the waterfall).
pub struct Timed {
    pub workload: Workload,
    pub stream: Stream,
    pub end_to_end: Metrics,
    /// `loadgen.*`, `proc.*` and the counters read after the timed run.
    pub run_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub digest: String,
    /// Untraced median read latency, for `loadgen.trace_overhead_ratio`.
    pub read_p50_us: f64,
    /// Per-slice series behind the end-to-end medians, for the result file.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

fn store_dir(ctx: &Ctx, workload: Workload, rep: usize) -> PathBuf {
    ctx.out.join(format!("store-{}-{rep}", workload.name()))
}

fn boot(ctx: &Ctx, workload: Workload, rep: usize, base: &TrajectorySet) -> Result<Booted, Error> {
    let dir = store_dir(ctx, workload, rep);
    match workload {
        Workload::SpqHot | Workload::TripCold => tiers::boot_single(ctx.world),
        Workload::ClusterTrip => {
            tiers::boot_cluster(ctx.world, &tiers::build_sharded(ctx.world), &dir)
        }
        Workload::IngestMixed => tiers::boot_ingest(ctx.world, base, ctx.sizing, &dir),
    }
}

/// Trajectory values for a payload (the index assigns the ids).
pub fn as_trajectories(batch: &Payload) -> Vec<Trajectory> {
    batch
        .iter()
        .map(|(user, entries)| {
            Trajectory::new(TrajId(0), *user, entries.clone())
                .expect("generated trajectories are valid")
        })
        .collect()
}

/// Queries for the post-append comparison: sub-queries of the stream
/// (history the appends must not disturb) plus fixed-interval queries over
/// the appended time range along appended trajectories' own paths (which
/// only answer correctly if the appends landed).
fn post_append_queries(
    world: &World,
    reference: &SntIndex,
    stream: &Stream,
    appended: &[Payload],
) -> Vec<Spq> {
    let engine = QueryEngine::new(reference, &world.network, QueryEngineConfig::default());
    let mut out: Vec<Spq> = stream
        .requests
        .iter()
        .take(64)
        .flat_map(|r| engine.initial_subqueries(&r.spq))
        .collect();
    for batch in appended.iter().rev().take(4) {
        let lo = batch[0].1[0].enter_time;
        let hi = batch
            .iter()
            .map(|(_, e)| e[e.len() - 1].enter_time)
            .max()
            .expect("non-empty batch");
        for tr in as_trajectories(batch).iter().step_by(8) {
            let path = tr.path().sub_path(0..tr.len().min(3));
            out.push(Spq::new(path, TimeInterval::fixed(lo, hi + 1)));
        }
    }
    out
}

/// Latencies (µs) of the window's samples, grouped by the whole second of
/// the window they completed in. Latency percentiles are taken per slice
/// and then across slices: on a shared box interference arrives in bursts
/// of a few seconds, which move a whole-window percentile but not the
/// quieter slices.
fn slices(samples: &[(u64, u64)], seconds: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); (seconds.floor() as usize).max(1)];
    for &(end_ns, lat_ns) in samples {
        if let Some(slice) = out.get_mut((end_ns / 1_000_000_000) as usize) {
            slice.push(lat_ns as f64 / 1e3);
        }
    }
    out
}

/// One compaction cycle of the append caller: from the completion of one
/// append that waited for an inline compaction to the completion of the
/// next, and the batches acknowledged in between.
struct Cycle {
    batches: usize,
    start_ns: u64,
    end_ns: u64,
}

impl Cycle {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An append that waited for a compaction takes this many times the median
/// append (measured: 250 ms against 10 ms).
const COMPACTION_SPIKE: f64 = 5.0;
/// Fewer cycles than this are not cycles: the rates fall back to the
/// whole window.
const MIN_CYCLES: usize = 4;

/// The cycles inside the window. The write side of `ingest_mixed` is
/// periodic — 9 batches, then a compaction + retention + snapshot rotation
/// — so a fixed slice holds 2 or 3 cycles and its count flips between 18
/// and 27 batches, while a disk stall of seconds (this host has them)
/// moves a whole-window count by a quarter. The median cycle has neither
/// problem. Empty when the appends show no such cycles.
fn compaction_cycles(appends: &[(u64, u64)]) -> Vec<Cycle> {
    let mut latencies: Vec<f64> = appends.iter().map(|&(_, lat)| lat as f64).collect();
    let spike = COMPACTION_SPIKE * median(&mut latencies);
    let spikes: Vec<usize> = (0..appends.len())
        .filter(|&i| appends[i].1 as f64 > spike)
        .collect();
    let cycles: Vec<Cycle> = spikes
        .windows(2)
        .map(|p| Cycle {
            batches: p[1] - p[0],
            start_ns: appends[p[0]].0,
            end_ns: appends[p[1]].0,
        })
        .collect();
    if cycles.len() < MIN_CYCLES {
        return Vec::new();
    }
    cycles
}

/// A statistic of every non-empty slice.
fn per_slice(slices: &[Vec<f64>], stat: impl Fn(&mut [f64]) -> f64) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stat(&mut s.clone()))
        .collect()
}

pub fn run_timed(ctx: &Ctx, workload: Workload) -> Result<Timed, Error> {
    let world = ctx.world;
    let sizing = ctx.sizing;
    let ingest = workload == Workload::IngestMixed;

    // The oracle: a monolithic index built apart from the tier's. On the
    // ingest workload it starts as the base half and later applies the
    // acknowledged batches directly.
    let base = if ingest {
        world.first_half()
    } else {
        TrajectorySet::new()
    };
    let indexed = if ingest { &base } else { &world.set };
    let mut oracle = SntIndex::build(&world.network, indexed, SntConfig::default());

    let mut stream = match workload {
        Workload::SpqHot | Workload::IngestMixed => spq_stream(world, &oracle, sizing, ctx.seed),
        Workload::TripCold | Workload::ClusterTrip => trip_stream(world, sizing, ctx.seed),
    };
    let precheck_ids = stream.prefix(sizing.precheck);
    check::fill_oracle(&mut stream, &oracle, &world.network, &precheck_ids);

    let mut digest = Digest::new();
    world.digest_into(&mut digest);
    stream.digest_into(&mut digest);

    // Set-up, several times over: from "trajectories in memory" to the
    // tier's first correct answer. The last tier is the one measured.
    let mut setup_secs = Vec::with_capacity(sizing.setup_reps);
    let mut booted: Option<Booted> = None;
    for rep in 0..sizing.setup_reps {
        if rep >= 2 && setup_secs.iter().sum::<f64>() > sizing.setup_budget_s {
            break;
        }
        if let Some(previous) = booted.take() {
            previous.tier.shutdown();
        }
        let t0 = Instant::now();
        let b = boot(ctx, workload, rep, &base)?;
        let first = check::precheck(b.tier.addr(), &stream, &precheck_ids[..1])?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if let Some(why) = first.first_failure {
            return Err(format!("set-up: {why}").into());
        }
        booted = Some(b);
    }
    let Booted { tier, index_bytes } = booted.expect("at least one set-up repetition");

    let mut tally = Checked::default();
    tally.merge(check::precheck(tier.addr(), &stream, &precheck_ids)?);

    // The timed window.
    let batches = world.second_half_batches(sizing.batch);
    let plan = AppendPlan::new(&batches);
    let addr = tier.addr();
    let w = Window::starting_now(sizing.warmup_s, ctx.seconds);
    let (reads, appends, sampled) = std::thread::scope(|scope| {
        let stream = &stream;
        let plan = &plan;
        // On the ingest workload caller A appends and caller B reads.
        let appender =
            ingest.then(|| scope.spawn(move || append_caller(addr, plan, 0, u64::MAX, w)));
        let readers: Vec<_> = (ingest as usize..CALLERS)
            .map(|c| scope.spawn(move || read_caller(addr, stream, c, w, !ingest)))
            .collect();
        // Sampled through the window, so "flat" is a statement about the
        // whole window and not about two instants.
        std::thread::sleep(w.window.saturating_duration_since(Instant::now()));
        let mut sampled = vec![counters(&tier)];
        while Instant::now() + SAMPLE_EVERY < w.end {
            std::thread::sleep(SAMPLE_EVERY);
            sampled.push(counters(&tier));
        }
        std::thread::sleep(w.end.saturating_duration_since(Instant::now()));
        sampled.push(counters(&tier));
        let mut reads = CallerLog::default();
        for r in readers {
            reads.merge(r.join().expect("read caller"));
        }
        let appends = appender.map(|a| a.join().expect("append caller"));
        (reads, appends, sampled)
    });
    tally.add(reads.attempted, reads.failed, reads.first_failure.clone());
    let (before, after) = (sampled[0], sampled[sampled.len() - 1]);

    // The write side. On the ingest workload it ran beside the reads; on
    // the others a write probe follows the read window, so every tier's
    // append path has a number: the same batches, one pass later than the
    // indexed world, one caller.
    let mut series: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut cycles = Vec::new();
    let (append_log, first_seq, append_traj_s) = match appends {
        Some(log) => {
            // Trajectories acknowledged per second, inline compactions
            // included: the median compaction cycle's rate, or the whole
            // window's where the appends show no cycles.
            let per_second = slices(&log.log.samples, w.seconds());
            series.push((
                "append_batches",
                per_second.iter().map(|s| s.len() as f64).collect(),
            ));
            cycles = compaction_cycles(&log.log.samples);
            series.push((
                "cycle_ms",
                cycles.iter().map(|c| c.seconds() * 1e3).collect(),
            ));
            let rate = sizing.batch as f64
                * if cycles.is_empty() {
                    log.log.samples.len() as f64 / w.seconds()
                } else {
                    median(
                        &mut cycles
                            .iter()
                            .map(|c| c.batches as f64 / c.seconds())
                            .collect::<Vec<_>>(),
                    )
                };
            (log, 0, rate)
        }
        None => {
            let first_seq = batches.len() as u64;
            let t0 = Instant::now();
            let probe = Window {
                window: t0,
                end: t0 + Duration::from_secs(120),
            };
            let log = append_caller(addr, &plan, first_seq, sizing.probe_batches as u64, probe);
            // A quiesced single caller has no stalls of the program's to
            // average in, and interference on a shared box can only slow a
            // batch down, in bursts that may outlast half the probe: the
            // rate is taken from the lower-quartile send-to-send time.
            let sends: Vec<u64> = log
                .log
                .samples
                .iter()
                .map(|&(end, lat)| end - lat)
                .collect();
            let mut cycles: Vec<f64> = sends
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1e9)
                .collect();
            series.push(("probe_cycle_ms", cycles.iter().map(|c| c * 1e3).collect()));
            let rate = sizing.batch as f64 / quantile(&mut cycles, 0.25);
            (log, first_seq, rate)
        }
    };
    let appends = &append_log.log;
    tally.add(
        appends.attempted,
        appends.failed,
        appends.first_failure.clone(),
    );

    // Post-append check against a reference index that applied the
    // acknowledged batches directly.
    // On the ingest workload both sides also apply the retention horizon.
    let retention = ingest.then(|| {
        tiers::ingest_config(&base, sizing)
            .retention
            .expect("ingest configuration sets retention")
            .as_secs() as i64
    });
    if let (true, Some(s)) = (ingest, tier.served()) {
        s.service.compact_now()?;
    }
    let mut appended = Vec::with_capacity(append_log.acked_batches as usize);
    for k in 0..append_log.acked_batches {
        let batch = plan.batch(first_seq + k);
        let trajs = as_trajectories(&batch);
        oracle.append_trajectories(&trajs.iter().collect::<Vec<_>>());
        // Retention is monotone in the data clock, so dropping early keeps
        // the reference small without changing where it ends up.
        if let Some(retention) = retention.filter(|_| k % 64 == 63) {
            oracle.compact(Some(oracle.data_max() - retention));
        }
        appended.push(batch);
    }
    if let Some(retention) = retention {
        oracle.compact(Some(oracle.data_max() - retention));
    }
    let queries = post_append_queries(world, &oracle, &stream, &appended);
    tally.merge(check::compare_with(
        addr,
        &oracle,
        &queries.iter().collect::<Vec<_>>(),
    )?);

    // Restart: every acknowledged trajectory must come back.
    let store = tier.served().and_then(|s| s.store.clone());
    tier.shutdown();
    if let Some(dir) = store {
        let expected = base.len() as u64 + append_log.acked_batches * sizing.batch as u64;
        let reopened = tiers::reopen(world, &base, sizing, &dir)?;
        let found = reopened.with_index(|i| i.num_trajectories()) as u64;
        let missing = expected.saturating_sub(found).div_ceil(sizing.batch as u64);
        tally.add(
            append_log.acked_batches,
            missing,
            (missing > 0)
                .then(|| format!("after reopen: {found} trajectories, {expected} acknowledged")),
        );
    }

    // Numbers.
    let slices = slices(&reads.samples, w.seconds());
    let mut slice_p50_us = per_slice(&slices, |s| quantile(s, 0.50));
    series.push(("read_ops", slices.iter().map(|s| s.len() as f64).collect()));
    series.push(("read_p50_us", slice_p50_us.clone()));
    let read_p50_us = quantile(&mut slice_p50_us, 1.0 / 3.0);
    // Reads completed per second: over the whole window, or beside an
    // appender the median compaction cycle's rate.
    let read_ops_s = if cycles.is_empty() {
        reads.samples.len() as f64 / w.seconds()
    } else {
        let mut ends: Vec<u64> = reads.samples.iter().map(|&(end, _)| end).collect();
        ends.sort_unstable();
        let before = |t: u64| ends.partition_point(|&end| end < t);
        median(
            &mut cycles
                .iter()
                .map(|c| (before(c.end_ns) - before(c.start_ns)) as f64 / c.seconds())
                .collect::<Vec<_>>(),
        )
    };
    let mut end_to_end = Metrics::default();
    end_to_end.push("setup_s", median(&mut setup_secs), "s");
    end_to_end.push("read_ops_s", read_ops_s, "1/s");
    end_to_end.push("read_p50_us", read_p50_us, "us");
    end_to_end.push("append_traj_s", append_traj_s, "1/s");
    end_to_end.push(
        "index_bytes_per_traversal",
        index_bytes as f64 / indexed.total_traversals() as f64,
        "B",
    );

    let mut lat_us: Vec<f64> = reads.samples.iter().map(|&(_, l)| l as f64 / 1e3).collect();
    let read_ops = lat_us.len() as f64;
    let mut append_us: Vec<f64> = append_log
        .log
        .samples
        .iter()
        .map(|&(_, l)| l as f64 / 1e3)
        .collect();
    // Operations the window's CPU time is spread over.
    let window_ops = read_ops + if ingest { append_us.len() as f64 } else { 0.0 };
    let window_cache = CacheCounters {
        hits: after.cache.hits - before.cache.hits,
        misses: after.cache.misses - before.cache.misses,
        ..after.cache
    };
    let quarter = (sampled.len() / 4).max(1);
    let rss = |s: &[Counters]| median(&mut s.iter().map(|c| c.rss_mib).collect::<Vec<_>>());
    let partitions = sampled.iter().map(|c| c.partitions);

    let mut l = Metrics::default();
    l.push("service.cache_hit_ratio", window_cache.hit_rate(), "ratio");
    l.push(
        "service.cache_evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
        "count",
    );
    l.push(
        "service.cache_invalidations",
        (after.cache.invalidations - before.cache.invalidations) as f64,
        "count",
    );
    l.push(
        "server.shed",
        (after.server.shed - before.server.shed) as f64,
        "count",
    );
    l.push(
        "server.max_inflight",
        after.server.max_inflight as f64,
        "count",
    );
    l.push(
        "server.errors",
        ((after.server.client_errors + after.server.server_errors)
            - (before.server.client_errors + before.server.server_errors)) as f64,
        "count",
    );
    l.push("loadgen.samples", read_ops, "count");
    l.push(
        "loadgen.read_p95_us",
        median(&mut per_slice(&slices, |s| quantile(s, 0.95))),
        "us",
    );
    l.push("loadgen.read_p99_us", quantile(&mut lat_us, 0.99), "us");
    l.push("loadgen.read_max_us", quantile(&mut lat_us, 1.0), "us");
    l.push(
        "loadgen.append_p50_us",
        quantile(&mut append_us, 0.50),
        "us",
    );
    l.push(
        "loadgen.append_p95_us",
        quantile(&mut append_us, 0.95),
        "us",
    );
    l.push(
        "loadgen.failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    l.push(
        "loadgen.compaction_cycles",
        (after.ingest.compactions - before.ingest.compactions) as f64,
        "count",
    );
    l.push(
        "loadgen.live_partitions_min",
        partitions.clone().min().unwrap_or(0) as f64,
        "count",
    );
    l.push(
        "loadgen.live_partitions_max",
        partitions.max().unwrap_or(0) as f64,
        "count",
    );
    l.push(
        "loadgen.rss_first_quarter_mib",
        rss(&sampled[..quarter]),
        "MiB",
    );
    l.push(
        "loadgen.rss_last_quarter_mib",
        rss(&sampled[sampled.len() - quarter..]),
        "MiB",
    );
    l.push(
        "proc.cpu_us_per_op",
        (after.cpu_us - before.cpu_us) / window_ops.max(1.0),
        "us",
    );
    l.push("proc.rss_peak_mib", procfs::rss_peak_mib(), "MiB");

    Ok(Timed {
        workload,
        stream,
        end_to_end,
        run_layer: l,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        digest: digest.hex(),
        read_p50_us,
        series,
    })
}
