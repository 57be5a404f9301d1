//! Regenerates every table and figure of the paper's evaluation
//! (Section 6) on the synthetic world.
//!
//! ```text
//! cargo run --release -p tthr-bench --bin experiments -- <command>
//!
//! commands:
//!   figures-temporal   Figures 5a, 6a, 7a, 8a, 9a (temporal filters)
//!   figures-user       Figures 5b, 6b, 7b, 8b, 9b (user filters)
//!   figures-spq        Figures 5c, 6c, 7c, 8c, 9c (SPQ only)
//!   fig10              Figure 10a/b/c (temporal partitioning: memory, setup)
//!   fig11              Figure 11a/b/c (cardinality estimator)
//!   baselines          Section 6.1 reference numbers
//!   selfx              extension: self-exclusion ablation
//!   betapolicy         extension: per-zone β requirements (paper §7)
//!   all                everything above
//! ```
//!
//! Scale via `TTHR_SCALE=small|medium|large` (default: medium).

use std::time::Instant;
use tthr_bench::{
    evaluate, print_metric_table, query_for, EvalRow, QueryType, Scale, World, BETAS, GAMMA,
    SIGMAS, T_MAX, T_MIN,
};
use tthr_core::baseline::{speed_limit_estimate, SegmentLevelBaseline};
use tthr_core::{
    estimate_cardinality, CardinalityMode, PartitionMethod, QueryEngine, QueryEngineConfig,
    SntConfig, SplitMethod, Spq, TimeInterval, TreeKind,
};
use tthr_histogram::SmoothedPdf;
use tthr_metrics::{mean, q_error, smape};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let scale = Scale::from_env();

    eprintln!("[experiments] generating world at {scale:?} scale…");
    let t0 = Instant::now();
    let world = World::generate(scale);
    eprintln!(
        "[experiments] world ready in {:.1}s: {} edges, {} trajectories, {} traversals, {} queries",
        t0.elapsed().as_secs_f64(),
        world.network().num_edges(),
        world.set.len(),
        world.set.total_traversals(),
        world.queries.len()
    );

    match command {
        "figures-temporal" => figures(&world, QueryType::TemporalFilters),
        "figures-user" => figures(&world, QueryType::UserFilters),
        "figures-spq" => figures(&world, QueryType::SpqOnly),
        "fig10" => fig10(&world),
        "fig11" => fig11(&world),
        "baselines" => baselines(&world),
        "selfx" => self_exclusion(&world),
        "betapolicy" => beta_policy(&world),
        "all" => {
            baselines(&world);
            figures(&world, QueryType::TemporalFilters);
            figures(&world, QueryType::UserFilters);
            figures(&world, QueryType::SpqOnly);
            fig10(&world);
            fig11(&world);
            self_exclusion(&world);
            beta_policy(&world);
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
}

/// Figures 5–9 for one query type: the full β × π × σ grid, all metrics.
fn figures(world: &World, query_type: QueryType) {
    let index = world.build_index(SntConfig::default());
    let mut rows: Vec<EvalRow> = Vec::new();
    let t0 = Instant::now();
    for pi in query_type.partition_methods() {
        for sigma in SIGMAS {
            for beta in BETAS {
                rows.push(evaluate(world, &index, query_type, pi, sigma, beta, None));
            }
        }
    }
    eprintln!(
        "[experiments] {} grid: {} configs in {:.1}s",
        query_type.name(),
        rows.len(),
        t0.elapsed().as_secs_f64()
    );

    let suffix = match query_type {
        QueryType::TemporalFilters => "a",
        QueryType::UserFilters => "b",
        QueryType::SpqOnly => "c",
    };
    println!("\n=== Figure 5{suffix} — sMAPE ({}) ===", query_type.name());
    print_metric_table(&rows, "sMAPE %", |r| r.smape);
    println!(
        "\n=== Figure 6{suffix} — Weighted Error ({}) ===",
        query_type.name()
    );
    print_metric_table(&rows, "weighted error %", |r| r.weighted);
    println!(
        "\n=== Figure 7{suffix} — Sub-query Path Length ({}) ===",
        query_type.name()
    );
    print_metric_table(&rows, "avg segments", |r| r.sub_len);
    println!(
        "\n=== Figure 8{suffix} — Log-Likelihood ({}) ===",
        query_type.name()
    );
    print_metric_table(&rows, "avg logL", |r| r.log_likelihood);
    println!(
        "\n=== Figure 9{suffix} — Processing Time ({}) ===",
        query_type.name()
    );
    print_metric_table(&rows, "ms/query", |r| r.ms_per_query);
}

/// Figure 10: temporal partitioning — index memory by component, ToD
/// histogram memory by bucket size, and setup time.
fn fig10(world: &World) {
    let partition_days: [Option<u32>; 5] = [Some(7), Some(30), Some(90), Some(365), None];
    let label = |d: Option<u32>| d.map(|x| x.to_string()).unwrap_or_else(|| "FULL".into());

    println!("\n=== Figure 10a — Index Memory Consumption (MiB) ===");
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "partition", "partitions", "C", "WT", "U", "census", "Forest", "setup s"
    );
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let mut setups: Vec<(String, f64)> = Vec::new();
    for days in partition_days {
        let t0 = Instant::now();
        let index = world.build_index(SntConfig {
            partition_days: days,
            tod_bucket_secs: None,
            ..SntConfig::default()
        });
        let setup = t0.elapsed().as_secs_f64();
        let m = index.memory_report();
        println!(
            "{:>10} {:>12} {:>10.2} {:>10.2} {:>10.3} {:>10.3} {:>10.2} {:>10.2}",
            label(days),
            index.num_partitions(),
            mib(m.counts_bytes),
            mib(m.wavelet_bytes),
            mib(m.user_bytes - m.census_bytes),
            mib(m.census_bytes),
            mib(m.forest_bytes),
            setup
        );
        setups.push((label(days), setup));
    }
    // The B+-tree forest variant (paper's "BT" column, FULL partitioning).
    let t0 = Instant::now();
    let bt = world.build_index(SntConfig {
        tree: TreeKind::BPlus,
        tod_bucket_secs: None,
        ..SntConfig::default()
    });
    let setup = t0.elapsed().as_secs_f64();
    let m = bt.memory_report();
    println!(
        "{:>10} {:>12} {:>10.2} {:>10.2} {:>10.3} {:>10.3} {:>10.2} {:>10.2}",
        "BT",
        bt.num_partitions(),
        mib(m.counts_bytes),
        mib(m.wavelet_bytes),
        mib(m.user_bytes - m.census_bytes),
        mib(m.census_bytes),
        mib(m.forest_bytes),
        setup
    );
    setups.push(("BT".into(), setup));
    println!(
        "leaf payload with partition ids: {:.2} MiB, without: {:.2} MiB",
        mib(m.forest_logical_bytes),
        mib(m.forest_logical_bytes_no_partition)
    );

    println!("\n=== Figure 10b — Time-of-Day Histogram Memory (MiB) ===");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "partition", "h=1min", "h=5min", "h=10min"
    );
    for days in partition_days {
        print!("{:>10}", label(days));
        for bucket in [60u32, 300, 600] {
            let index = world.build_index(SntConfig {
                partition_days: days,
                tod_bucket_secs: Some(bucket),
                ..SntConfig::default()
            });
            print!(" {:>10.2}", mib(index.memory_report().tod_bytes));
        }
        println!();
    }

    println!("\n=== Figure 10c — Setup Time (seconds, from in-memory traversals) ===");
    for (l, s) in setups {
        println!("{l:>10} {s:>10.2}");
    }
}

/// Figure 11: cardinality estimator — q-error, runtime, accuracy effect.
fn fig11(world: &World) {
    let index = world.build_index(SntConfig::default());

    // --- 11a: q-error over a mixed periodic/time-frame query sample. ------
    println!("\n=== Figure 11a — Q-Error by Estimator Mode ===");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "mode", "median", "p90", "mean"
    );
    let mut probes: Vec<Spq> = Vec::new();
    for &id in &world.queries {
        let tr = world.set.get(id);
        probes.push(Spq::new(
            tr.path(),
            TimeInterval::periodic_around(tr.start_time(), 1800),
        ));
        // Time-frame probes: "the past N days" before the trip.
        for days in [7i64, 90] {
            probes.push(Spq::new(
                tr.path(),
                TimeInterval::fixed(tr.start_time() - days * 86_400, tr.start_time()),
            ));
        }
        if probes.len() >= 5000 {
            break;
        }
    }
    let actuals: Vec<u64> = probes
        .iter()
        .map(|q| index.count_matching(q, u32::MAX) as u64)
        .collect();
    for mode in CardinalityMode::ALL {
        let mut qs: Vec<f64> = probes
            .iter()
            .zip(&actuals)
            .map(|(q, &n)| q_error(estimate_cardinality(&index, q, mode), n))
            .collect();
        qs.sort_by(f64::total_cmp);
        println!(
            "{:>10} {:>10.2} {:>10.2} {:>10.2}",
            mode.name(),
            qs[qs.len() / 2],
            qs[qs.len() * 9 / 10],
            mean(qs.iter().copied())
        );
    }

    // --- 11b: runtime vs partition size × tree × estimator. ----------------
    println!("\n=== Figure 11b — Runtime (ms/query, π_Z σ_R β=20) ===");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "partition", "CSS", "CSS-Fast", "CSS-Acc", "BT", "BT-Fast", "BT-Acc"
    );
    for days in [Some(7u32), Some(30), Some(90), Some(365), None] {
        let label = days.map(|x| x.to_string()).unwrap_or_else(|| "FULL".into());
        print!("{label:>10}");
        for tree in [TreeKind::Css, TreeKind::BPlus] {
            let idx = world.build_index(SntConfig {
                tree,
                partition_days: days,
                ..SntConfig::default()
            });
            let (fast, acc) = if tree == TreeKind::Css {
                (CardinalityMode::CssFast, CardinalityMode::CssAcc)
            } else {
                (CardinalityMode::BtFast, CardinalityMode::BtAcc)
            };
            for estimator in [None, Some(fast), Some(acc)] {
                let row = evaluate(
                    world,
                    &idx,
                    QueryType::TemporalFilters,
                    PartitionMethod::Zone,
                    SplitMethod::Regular,
                    20,
                    estimator,
                );
                print!(" {:>10.3}", row.ms_per_query);
            }
        }
        println!();
    }

    // --- 11c: accuracy effect of the estimator. -----------------------------
    println!("\n=== Figure 11c — sMAPE Effect of the Estimator (π_Z σ_R β=20) ===");
    for estimator in [
        Some(CardinalityMode::Isa),
        Some(CardinalityMode::CssFast),
        Some(CardinalityMode::CssAcc),
        Some(CardinalityMode::BtFast),
        Some(CardinalityMode::BtAcc),
    ] {
        let row = evaluate(
            world,
            &index,
            QueryType::TemporalFilters,
            PartitionMethod::Zone,
            SplitMethod::Regular,
            20,
            estimator,
        );
        println!(
            "{:>10}: sMAPE = {:.3} %",
            estimator.map(|m| m.name()).unwrap_or("none"),
            row.smape
        );
    }
}

/// Section 6.1's reference numbers: speed-limit-only and segment-level
/// estimates over the same query set.
fn baselines(world: &World) {
    let index = world.build_index(SntConfig::default());
    let seg = SegmentLevelBaseline::build(&index, world.network(), 10.0);
    let mut sl_pairs = Vec::new();
    let mut seg_pairs = Vec::new();
    let mut seg_logl = Vec::new();
    for &id in &world.queries {
        let tr = world.set.get(id);
        let actual = tr.total_duration();
        sl_pairs.push((speed_limit_estimate(world.network(), &tr.path()), actual));
        seg_pairs.push((seg.predict(&tr.path()), actual));
        let h = seg.histogram(&tr.path());
        seg_logl.push(SmoothedPdf::new(&h, GAMMA, T_MIN, T_MAX).log_likelihood(actual));
    }
    println!("\n=== Section 6.1 — Baselines ===");
    println!(
        "speed limits only:            sMAPE = {:.2} %   (paper: 34.3 %)",
        smape(&sl_pairs)
    );
    println!(
        "all trajectories per segment: sMAPE = {:.2} %   (paper: 13.8 %), avg logL = {:.3}",
        smape(&seg_pairs),
        mean(seg_logl)
    );
}

/// Extension (paper §7): per-zone β requirements — rural sub-paths accept
/// smaller samples, trading a little histogram mass for fewer relaxations.
fn beta_policy(world: &World) {
    use tthr_core::BetaPolicy;
    let index = world.build_index(SntConfig::default());
    println!("\n=== Extension — Per-Zone β Policy (π_Z σ_R β=20) ===");
    println!(
        "{:>24} {:>10} {:>12} {:>12}",
        "policy", "sMAPE %", "avg logL", "ms/query"
    );
    for (name, policy) in [
        ("uniform", BetaPolicy::Uniform),
        ("rural ×0.5", BetaPolicy::ZoneScaled { rural_factor: 0.5 }),
        ("rural ×0.25", BetaPolicy::ZoneScaled { rural_factor: 0.25 }),
    ] {
        let engine = QueryEngine::new(
            &index,
            world.network(),
            QueryEngineConfig {
                beta_policy: policy,
                ..QueryEngineConfig::default()
            },
        );
        let alpha_min = engine.config().interval_sizes[0];
        let mut pairs = Vec::new();
        let mut logls = Vec::new();
        let start = Instant::now();
        for &id in &world.queries {
            let tr = world.set.get(id);
            let q = query_for(&world.set, id, QueryType::TemporalFilters, alpha_min, 20);
            let r = engine.trip_query(&q);
            pairs.push((r.predicted_duration(), tr.total_duration()));
            if let Some(h) = &r.histogram {
                logls.push(
                    SmoothedPdf::new(h, GAMMA, T_MIN, T_MAX).log_likelihood(tr.total_duration()),
                );
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / world.queries.len().max(1) as f64;
        println!(
            "{name:>24} {:>10.3} {:>12.3} {:>12.3}",
            smape(&pairs),
            mean(logls),
            ms
        );
    }
}

/// Extension: how much does answering a query with its own ground-truth
/// trajectory flatter the accuracy numbers?
fn self_exclusion(world: &World) {
    let index = world.build_index(SntConfig::default());
    let engine = QueryEngine::new(&index, world.network(), QueryEngineConfig::default());
    let alpha_min = engine.config().interval_sizes[0];
    let mut with_self = Vec::new();
    let mut without_self = Vec::new();
    for &id in &world.queries {
        let tr = world.set.get(id);
        let actual = tr.total_duration();
        let mut q = query_for(&world.set, id, QueryType::TemporalFilters, alpha_min, 20);
        without_self.push((engine.trip_query(&q).predicted_duration(), actual));
        q.exclude = None;
        with_self.push((engine.trip_query(&q).predicted_duration(), actual));
    }
    println!("\n=== Extension — Self-Exclusion Ablation (π_Z σ_R β=20) ===");
    println!(
        "including the query's own trajectory: sMAPE = {:.3} %",
        smape(&with_self)
    );
    println!(
        "excluding it (all other experiments): sMAPE = {:.3} %",
        smape(&without_self)
    );
}
