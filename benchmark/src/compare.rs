//! `compare <resultA> <resultB>`: one row per (end-to-end metric,
//! workload) with both files' medians and quartiles, the fixed bound, and
//! a verdict. A is the baseline, B the candidate.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::Spec;
use crate::stats::quartiles;

/// Per workload: values of each end-to-end metric over the file's runs,
/// plus operations attempted and failed.
#[derive(Default)]
struct Runs {
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn load(path: &str) -> Result<BTreeMap<String, Runs>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{}: no workload", n + 1))?;
        let runs = out.entry(workload.to_string()).or_default();
        runs.attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        runs.failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (name, m) in v.get("end_to_end").map_or(&[][..], Value::members) {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                runs.values.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(out)
}

/// Runs the comparison; `Ok(true)` when nothing got worse.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut ok = true;
    println!(
        "{:<13} {:<26} {:>5} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A  q1 / median / q3 (n)",
        "B  q1 / median / q3 (n)",
        "change",
        "bound"
    );
    let empty = Runs::default();
    for workload in &spec.workloads {
        let (ra, rb) = (
            a.get(workload).unwrap_or(&empty),
            b.get(workload).unwrap_or(&empty),
        );
        for m in &spec.end_to_end {
            let (va, vb) = match (ra.values.get(&m.name), rb.values.get(&m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => {
                    println!("{workload:<13} {:<26} missing from one file", m.name);
                    ok = false;
                    continue;
                }
            };
            let (a1, a2, a3) = quartiles(va);
            let (b1, b2, b3) = quartiles(vb);
            // Positive = B is worse, as a share of A's median.
            let sign = if m.higher_is_better { -1.0 } else { 1.0 };
            let worse_by = sign * (b2 - a2) / a2;
            let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
            let verdict = if worse_by > m.bound {
                ok = false;
                "worse"
            } else if spread > m.bound {
                "unresolved"
            } else if -worse_by > spread && -worse_by > 0.0 && va != vb {
                "better"
            } else {
                "unchanged"
            };
            println!(
                "{workload:<13} {:<26} {:>5} {:>36} {:>36} {:>+7.1}% {:>5.0}%  {verdict}",
                m.name,
                m.unit,
                format!("{a1:.4} / {a2:.4} / {a3:.4} ({})", va.len()),
                format!("{b1:.4} / {b2:.4} / {b3:.4} ({})", vb.len()),
                (b2 - a2) / a2 * 100.0,
                m.bound * 100.0,
            );
        }
        let ratio = |r: &Runs| r.failed / r.attempted.max(1.0);
        let verdict = if ratio(rb) > ratio(ra) {
            ok = false;
            "worse"
        } else {
            "unchanged"
        };
        println!(
            "{workload:<13} {:<26} {:>5} {:>36} {:>36} {:>8} {:>6}  {verdict}",
            "failed / attempted",
            "ratio",
            format!("{} / {}", ra.failed, ra.attempted),
            format!("{} / {}", rb.failed, rb.attempted),
            "",
            "0%",
        );
    }
    Ok(ok)
}
