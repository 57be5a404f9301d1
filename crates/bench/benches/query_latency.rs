//! Criterion micro-bench of the relaxation ladder: σ's whole widening
//! sequence for one sub-query, answered by the level-by-level loop vs the
//! index's one-call override. (Trip and cold-SPQ latency are measured
//! end to end by `benchmark/` and per figure by the `experiments` binary.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tthr_bench::{query_for, QueryType, Scale, World};
use tthr_core::{
    ladder_sequential, QueryEngine, QueryEngineConfig, SearchScratch, SntConfig, Splitter, Spq,
    TimeInterval,
};

/// The relaxation ladder of one sub-query, `loop` (the trait's default:
/// one `getTravelTimes` per level) against `ladder` (the index override:
/// one backward search, one bucketing pass), on the sub-queries a
/// trip-query engine dispatches, classed by where the loop stops: every
/// level fails, level 1 answers, level 4 answers — and, for user-filter
/// sub-queries alone, the outcome the census acts on and its twin: every
/// level fails (`failing_user_ladder`: answered from counts, no scan) and
/// a level above 0 answers (`level0_skipped`: counts could spare level
/// 0's scan there; this row measured that as no gain — 65 µs with or
/// without — so the ladder does not ask). Classes are drawn by outcome,
/// so the same ladders run on a commit without the census.
fn bench_ladder(c: &mut Criterion) {
    let world = World::generate(Scale::from_env());
    let index = world.build_index(SntConfig::default());
    let config = QueryEngineConfig::default();
    let splitter = Splitter::new(config.split_method, config.interval_sizes.clone());
    let engine = QueryEngine::new(&index, world.network(), config);
    let alpha_min = engine.config().interval_sizes[0];

    type Ladder = (Spq, Vec<TimeInterval>);
    let mut classes: [(&str, Vec<Ladder>); 5] = [
        ("all_fail", Vec::new()),
        ("hit_level_1", Vec::new()),
        ("hit_level_4", Vec::new()),
        ("failing_user_ladder", Vec::new()),
        ("level0_skipped", Vec::new()),
    ];
    for query_type in [QueryType::TemporalFilters, QueryType::UserFilters] {
        for &id in &world.queries {
            let trip = query_for(&world.set, id, query_type, alpha_min, 20);
            for sub in engine.initial_subqueries(&trip) {
                let levels = splitter.ladder(sub.interval);
                let (level, times) =
                    ladder_sequential(&index, &sub, &levels, &mut SearchScratch::new());
                let by_outcome = match (times.is_empty(), level) {
                    (true, _) => Some(0),
                    (false, 1) => Some(1),
                    (false, 4) => Some(2),
                    _ => None,
                };
                let by_user_outcome = match (query_type, times.is_empty(), level) {
                    (QueryType::UserFilters, true, _) => Some(3),
                    (QueryType::UserFilters, false, 1..) => Some(4),
                    _ => None,
                };
                for class in by_outcome.into_iter().chain(by_user_outcome) {
                    if classes[class].1.len() < 32 {
                        classes[class].1.push((sub.clone(), levels.clone()));
                    }
                }
            }
        }
    }

    let mut group = c.benchmark_group("ladder");
    for (class, ladders) in &classes {
        if ladders.is_empty() {
            eprintln!("ladder/{class}: no such sub-query at this scale, skipped");
            continue;
        }
        group.bench_function(BenchmarkId::new(*class, "loop"), |b| {
            let mut i = 0;
            b.iter(|| {
                let (q, levels) = &ladders[i % ladders.len()];
                i += 1;
                std::hint::black_box(ladder_sequential(
                    &index,
                    q,
                    levels,
                    &mut SearchScratch::new(),
                ))
            })
        });
        group.bench_function(BenchmarkId::new(*class, "ladder"), |b| {
            let mut i = 0;
            b.iter(|| {
                let (q, levels) = &ladders[i % ladders.len()];
                i += 1;
                std::hint::black_box(index.travel_times_ladder_with(
                    q,
                    levels,
                    &mut SearchScratch::new(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ladder);
criterion_main!(benches);
