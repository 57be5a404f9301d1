//! Offline stand-in for the `criterion` crate.
//!
//! The workspace forbids external registry dependencies, so this shim
//! implements the criterion surface the bench targets use — benchmark
//! groups, `BenchmarkId`, throughput annotation, and `Bencher::iter` — with
//! straightforward wall-clock measurement: per benchmark it calibrates an
//! iteration count, takes `sample_size` samples, and prints min / p50 /
//! mean / p95 per-iteration times (plus derived throughput when set). No
//! statistical regression analysis is performed, and nothing is recorded:
//! the numbers a change is judged by come from `benchmark/`
//! (`BENCHMARK.json`).
//!
//! Bench binaries remain `cargo test`-safe: when invoked with `--test`
//! (which `cargo test --benches` does), every benchmark runs exactly one
//! iteration and timing output is suppressed.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement configuration.
pub struct Criterion {
    /// One-iteration smoke mode (`--test`).
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 20,
            throughput: None,
        }
    }
}

/// Identifier of one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

/// Throughput annotation: turns per-iteration time into a rate.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotates per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(
            &label,
            self.sample_size,
            self.throughput,
            self.criterion.test_mode,
            f,
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timing harness handed to the benchmark closure.
pub struct Bencher {
    /// Iterations to run per sample.
    iters: u64,
    /// Measured elapsed time for the whole sample.
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` runs of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    test_mode: bool,
    mut f: F,
) {
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    if test_mode {
        f(&mut b);
        println!("{label}: ok (test mode)");
        return;
    }

    // Calibrate: grow the per-sample iteration count until one sample takes
    // ≥ 20 ms (or a single iteration is already slower than that).
    f(&mut b); // warm-up
    loop {
        f(&mut b);
        if b.elapsed >= Duration::from_millis(20) || b.iters >= 1 << 20 {
            break;
        }
        b.iters *= 2;
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        f(&mut b);
        per_iter.push(b.elapsed.as_secs_f64() / b.iters as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    let min = per_iter[0];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    // Nearest-rank percentile: the sample at rank ⌈p/100 · n⌉ (1-based).
    let nearest_rank = |p: f64| {
        let rank = ((p / 100.0) * per_iter.len() as f64).ceil().max(1.0) as usize;
        per_iter[rank.min(per_iter.len()) - 1]
    };
    let p50 = nearest_rank(50.0);
    let p95 = nearest_rank(95.0);

    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("  {:>12.0} elem/s", n as f64 / mean),
        Throughput::Bytes(n) => format!("  {:>12.0} B/s", n as f64 / mean),
    });
    println!(
        "{label:<60} min {}  p50 {}  mean {}  p95 {}{}",
        fmt_time(min),
        fmt_time(p50),
        fmt_time(mean),
        fmt_time(p95),
        rate.unwrap_or_default()
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:>8.3} s ")
    } else if secs >= 1e-3 {
        format!("{:>8.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:>8.3} µs", secs * 1e6)
    } else {
        format!("{:>8.1} ns", secs * 1e9)
    }
}

/// Collects benchmark functions into one runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point of a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion { test_mode: true };
        let mut ran = 0;
        let mut group = c.benchmark_group("g");
        group.sample_size(5).throughput(Throughput::Elements(4));
        group.bench_function(BenchmarkId::new("f", 1), |b| {
            b.iter(|| ran += 1);
        });
        group.bench_function(BenchmarkId::from_parameter(2), |b| b.iter(|| ()));
        group.finish();
        assert!(ran >= 1);
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("f", 3).0, "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").0, "x");
    }
}
