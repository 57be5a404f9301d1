//! Self-test: `--quick` runs all four workloads, traced, in seconds. It
//! pins the contract between the program and `BENCHMARK.json` (exactly the
//! declared workloads and metrics, each with its unit), the determinism of
//! the inputs (counts that must repeat exactly do; those of the request
//! streams move with the seed, that of the fixed world does not), and
//! `compare`'s fixed point (a file against itself is all `unchanged`).

#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_tthr-benchmark");

/// Counts that depend only on the request streams: identical across two
/// runs with one seed, different across two seeds.
const EXACT: [&str; 3] = [
    "fmindex.rank_ops_per_read",
    "server.bytes_out_per_req",
    "client.rpcs_per_trip",
];

/// Depends only on the indexed world, which is the same for every seed.
const WORLD_EXACT: &str = "index_bytes_per_traversal";

fn quick_run(seed: u64, tag: &str) -> Vec<Value> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(BIN)
        .args(["--quick", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .output()
        .expect("run the benchmark");
    assert!(
        run.status.success(),
        "quick run failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // The last stdout line is the contract object.
    let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
    let last = json::parse(stdout.lines().last().expect("some output")).expect("contract line");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    results(&out)
}

fn results(out: &Path) -> Vec<Value> {
    std::fs::read_to_string(out.join("results.jsonl"))
        .expect("result file")
        .lines()
        .map(|l| json::parse(l).expect("result line"))
        .collect()
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every measured metric, asserting each is a number.
fn measured(run: &Value, group: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = run
        .get(group)
        .expect("metric group")
        .members()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{group} metric {name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn exact(run: &Value, name: &str) -> f64 {
    ["end_to_end", "per_layer"]
        .iter()
        .find_map(|g| run.get(g)?.get(name)?.get("value")?.as_f64())
        .unwrap_or_else(|| panic!("{name} not measured"))
}

#[test]
fn quick_run_emits_the_contract_repeats_exactly_and_compares_to_itself() {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: Vec<String> = spec
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let mut end_to_end = names(spec.get("end_to_end").expect("end_to_end"));
    let mut per_layer = names(spec.get("per_layer").expect("per_layer"));
    end_to_end.sort();
    per_layer.sort();

    let a = quick_run(7, "a");
    let b = quick_run(7, "b");
    let c = quick_run(8, "c");

    // Exactly the declared workloads and metrics, each with its unit.
    let ran: Vec<&str> = a
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).expect("workload"))
        .collect();
    assert_eq!(ran, workloads);
    for run in &a {
        assert_eq!(measured(run, "end_to_end"), end_to_end);
        assert_eq!(measured(run, "per_layer"), per_layer);
        assert!(run.get("commit").and_then(Value::as_str).is_some());
        assert!(run.get("cores").and_then(Value::as_f64) >= Some(1.0));
        assert_eq!(run.get("seed").and_then(Value::as_f64), Some(7.0));
    }

    // One seed: the same inputs and the same counts. Another seed: others.
    let digest = |r: &Value| {
        r.get("input_digest")
            .and_then(Value::as_str)
            .map(String::from)
    };
    for ((ra, rb), rc) in a.iter().zip(&b).zip(&c) {
        assert_eq!(digest(ra), digest(rb));
        assert_ne!(digest(ra), digest(rc));
        for name in EXACT {
            assert_eq!(
                exact(ra, name),
                exact(rb, name),
                "{name} must repeat exactly"
            );
        }
        assert_eq!(exact(ra, WORLD_EXACT), exact(rb, WORLD_EXACT));
        assert_eq!(exact(ra, WORLD_EXACT), exact(rc, WORLD_EXACT));
    }
    for name in EXACT {
        assert!(
            a.iter()
                .zip(&c)
                .any(|(ra, rc)| exact(ra, name) != exact(rc, name)),
            "{name} must move with the seed"
        );
    }

    // A result file against itself: every row unchanged, exit code 0.
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-a/results.jsonl");
    let cmp = Command::new(BIN)
        .arg("compare")
        .arg(&file)
        .arg(&file)
        .output()
        .expect("run compare");
    assert!(cmp.status.success(), "compare of a file with itself failed");
    let table = String::from_utf8(cmp.stdout).expect("utf-8 table");
    let verdicts: Vec<&str> = table
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().last())
        .collect();
    assert_eq!(verdicts.len(), workloads.len() * (end_to_end.len() + 1));
    assert!(verdicts.iter().all(|v| *v == "unchanged"), "{table}");
}
