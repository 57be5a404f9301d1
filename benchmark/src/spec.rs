//! The contract: `BENCHMARK.json`, compiled in so that the program, its
//! `compare` subcommand and its self-test all read the same names, units
//! and bounds the driver does.

use crate::json::{self, Value};

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median a metric may worsen by (end-to-end only).
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(list: &Value) -> Vec<MetricSpec> {
    list.as_arr()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: metric without {key}"))
                    .to_string()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            }
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let v = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |key: &str| {
            v.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
        };
        Spec {
            run_seconds: field("run_seconds")
                .as_f64()
                .expect("BENCHMARK.json: run_seconds is a number"),
            workloads: field("workloads")
                .as_arr()
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("BENCHMARK.json: workload without name")
                        .to_string()
                })
                .collect(),
            end_to_end: metric_specs(field("end_to_end")),
            per_layer: metric_specs(field("per_layer")),
        }
    }
}
