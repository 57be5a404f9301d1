//! Guard for the query-trace instrumentation (CI runs this in the
//! `measure` job, beside the experiments run and the benchmark self-test).
//!
//! The trace contract is two-tier: the **counters** (rank ops, wavelet
//! descents, scratch hits, …) are plain `u64` adds on an exclusively-owned
//! scratch and are always on; **timing** (`search_ns`) costs two
//! `Instant::now` calls per index query and is off by default. This test
//! pins both halves:
//!
//! * timing-off traces populate counters but report `search_ns == 0`;
//! * enabling timing does not change the answers;
//! * the timed path stays within a generous noise bound of the untimed
//!   one — a catastrophic regression (a lock or allocation sneaking into
//!   the per-query trace path) fails fast even on noisy CI runners.

use std::time::Instant;
use tthr_bench::{query_for, QueryType, Scale, World};
use tthr_core::{QueryEngine, QueryEngineConfig, SearchScratch, SntConfig, Spq};

/// Median wall time of one pass over the query set, out of `reps` runs.
fn median_pass_secs(index: &tthr_core::SntIndex, spqs: &[Spq], timing: bool, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut scratch = SearchScratch::new();
        scratch.trace.timing = timing;
        let started = Instant::now();
        for q in spqs {
            std::hint::black_box(index.get_travel_times_with(q, &mut scratch));
        }
        samples.push(started.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
fn tracing_overhead_stays_within_noise() {
    let world = World::generate(Scale::Small);
    let index = world.build_index(SntConfig::default());
    let engine = QueryEngine::new(&index, world.network(), QueryEngineConfig::default());
    let alpha_min = engine.config().interval_sizes[0];
    let spqs: Vec<Spq> = world
        .queries
        .iter()
        .take(16)
        .flat_map(|&id| {
            engine.initial_subqueries(&query_for(
                &world.set,
                id,
                QueryType::TemporalFilters,
                alpha_min,
                20,
            ))
        })
        .collect();
    assert!(!spqs.is_empty());

    // Functional contract first: counters always, nanoseconds only on
    // demand, answers independent of either.
    let mut off = SearchScratch::new();
    let mut on = SearchScratch::new();
    on.trace.timing = true;
    for q in &spqs {
        assert_eq!(
            index.get_travel_times_with(q, &mut off).values,
            index.get_travel_times_with(q, &mut on).values,
            "timing changed the answer for {q:?}"
        );
    }
    assert!(off.trace.rank_ops > 0, "counters must run untimed");
    assert_eq!(off.trace.search_ns, 0, "untimed trace must not buy clocks");
    assert!(on.trace.search_ns > 0, "timed trace must measure");
    assert_eq!(off.trace.rank_ops, on.trace.rank_ops);

    // Overhead bound. The two paths differ by two `Instant::now` calls
    // per index query, far below real noise; 1.5× catches only a
    // structural regression, not scheduler jitter.
    let reps = 7;
    median_pass_secs(&index, &spqs, false, 2); // warm up caches / branch predictors
    let untimed = median_pass_secs(&index, &spqs, false, reps);
    let timed = median_pass_secs(&index, &spqs, true, reps);
    assert!(
        timed <= untimed * 1.5 + 1e-3,
        "timed tracing is {timed:.6}s vs {untimed:.6}s untimed per pass — \
         instrumentation grew beyond clock reads"
    );
}
