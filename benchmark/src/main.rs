//! The tthr benchmark: four workloads, end-to-end metrics from untraced
//! closed-loop runs, per-layer metrics from a boundary-timed replay.
//! See `benchmark/README.md`.

mod check;
mod compare;
mod http;
mod json;
mod keepawake;
mod loadgen;
mod metrics;
mod procfs;
mod run;
mod spec;
mod stats;
mod tiers;
mod trace;
mod world;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Metrics;
use run::{Ctx, Timed, Workload};
use spec::{MetricSpec, Spec};
use world::{Sizing, World};

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: tthr-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--out <dir>]\n       tthr-benchmark compare <resultA> <resultB>";

fn parse_args(spec: &Spec, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: true,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(1.0);
    }
    Ok(args)
}

/// The commit under test when run from a git checkout, else `unknown`
/// (the driver's checkout is not a repository).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Checks that exactly the declared metrics were measured, in the
/// declared units: the program and `BENCHMARK.json` cannot drift apart.
fn conforms(kind: &str, measured: &Metrics, declared: &[MetricSpec]) -> Result<(), String> {
    for d in declared {
        match measured.0.iter().find(|(n, _, _)| *n == d.name) {
            None => return Err(format!("{kind} metric {} was not measured", d.name)),
            Some((_, _, unit)) if *unit != d.unit => {
                return Err(format!(
                    "{kind} metric {}: unit {unit}, declared {}",
                    d.name, d.unit
                ))
            }
            Some(_) => {}
        }
    }
    match measured
        .0
        .iter()
        .find(|(n, _, _)| !declared.iter().any(|d| d.name == *n))
    {
        Some((n, _, _)) => Err(format!("{kind} metric {n} is not in BENCHMARK.json")),
        None => Ok(()),
    }
}

fn print_table(workload: Workload, metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!("{:<13} {name:<34} {value:>18.4} {unit}", workload.name());
    }
}

struct Header {
    commit: String,
    cores: usize,
    quick: bool,
}

/// Appends one run to `<out>/results.jsonl`, the file `compare` reads.
fn record(
    args: &Args,
    header: &Header,
    timed: &Timed,
    per_layer: Option<&Metrics>,
) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("results.jsonl"))?;
    writeln!(
        file,
        "{{\"commit\": \"{}\", \"cores\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
         \"workload\": \"{}\", \"input_digest\": \"{}\", \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"series\": {{{}}}}}",
        header.commit,
        header.cores,
        args.seed,
        args.seconds,
        header.quick,
        timed.workload.name(),
        timed.digest,
        timed.failed == 0,
        timed.attempted,
        timed.failed,
        timed.end_to_end.to_json(),
        per_layer.map_or("{}".to_string(), Metrics::to_json),
        timed
            .series
            .iter()
            .map(|(name, values)| format!("\"{name}\": {values:?}"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// Deletes the store directories a workload leaves behind (hundreds of
/// megabytes on the cluster tier), here and not at the next boot: deleting
/// them is disk work, and there it would fall into the next run's timed
/// set-up.
fn remove_stores(out: &std::path::Path) {
    for entry in std::fs::read_dir(out).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("store-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn run(spec: &Spec, args: &Args) -> Result<bool, tiers::Error> {
    let sizing = if args.quick {
        Sizing::quick()
    } else {
        Sizing::full()
    };
    std::fs::create_dir_all(&args.out)?;
    let header = Header {
        commit: commit(),
        cores: procfs::cores(),
        quick: args.quick,
    };
    let keep_awake = keepawake::KeepAwake::start(header.cores);
    if keep_awake.spinning < header.cores {
        eprintln!(
            "benchmark: SCHED_IDLE unavailable, {} of {} keep-awake threads: expect noisier timings",
            keep_awake.spinning, header.cores
        );
    }
    let t0 = Instant::now();
    let world = World::generate(&sizing);
    eprintln!(
        "commit {} · {} cores · seed {} · world: {} edges, {} trajectories, {} traversals ({:.2} s)",
        header.commit,
        header.cores,
        args.seed,
        world.network.num_edges(),
        world.set.len(),
        world.set.total_traversals(),
        t0.elapsed().as_secs_f64()
    );
    let ctx = Ctx {
        world: &world,
        sizing: &sizing,
        seed: args.seed,
        seconds: args.seconds,
        out: &args.out,
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for workload in workloads {
        let t0 = Instant::now();
        let timed = run::run_timed(&ctx, workload)?;
        conforms("end-to-end", &timed.end_to_end, &spec.end_to_end)?;
        // End-to-end metrics come only from the untraced run above; the
        // traced replay is a separate pass after it.
        let per_layer = if args.trace {
            let mut per_layer = timed.run_layer.clone();
            per_layer.extend(trace::waterfall(&ctx, &timed)?);
            conforms("per-layer", &per_layer, &spec.per_layer)?;
            Some(per_layer)
        } else {
            None
        };
        record(args, &header, &timed, per_layer.as_ref())?;
        remove_stores(&args.out);
        eprintln!(
            "{}: input digest {}, {} operations checked, {} failed ({:.1} s)",
            workload.name(),
            timed.digest,
            timed.attempted,
            timed.failed,
            t0.elapsed().as_secs_f64()
        );
        if let Some(why) = &timed.first_failure {
            eprintln!("{}: first failure: {why}", workload.name());
        }
        print_table(workload, &timed.end_to_end);
        if let Some(per_layer) = &per_layer {
            print_table(workload, per_layer);
        }
        all_correct &= timed.failed == 0;
        // The contract line: end-to-end metrics untraced, per-layer traced.
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            timed.failed == 0,
            timed.attempted,
            timed.failed,
            per_layer.as_ref().unwrap_or(&timed.end_to_end).to_json()
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(&spec, a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&spec, argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&spec, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: wrong or failed operations, see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
