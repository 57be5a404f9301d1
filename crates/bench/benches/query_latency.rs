//! Criterion micro-bench behind Figure 9: trip-query latency per query type
//! and partitioning strategy, plus the cold single-SPQ path (`getTravelTimes`
//! straight against the index, no cache, no engine) that the backward-search
//! optimisations target, and the relaxation ladder (σ's whole widening
//! sequence for one sub-query) answered by the level-by-level loop vs the
//! index's one-call override.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tthr_bench::{query_for, QueryType, Scale, World};
use tthr_core::{
    ladder_sequential, PartitionMethod, QueryEngine, QueryEngineConfig, SearchScratch, SntConfig,
    Splitter, Spq, TimeInterval,
};

fn bench_trip_queries(c: &mut Criterion) {
    let world = World::generate(Scale::from_env());
    let index = world.build_index(SntConfig::default());
    let mut group = c.benchmark_group("trip_query");

    for query_type in [
        QueryType::TemporalFilters,
        QueryType::UserFilters,
        QueryType::SpqOnly,
    ] {
        for pi in [PartitionMethod::Zone, PartitionMethod::Regular(1)] {
            let engine = QueryEngine::new(
                &index,
                world.network(),
                QueryEngineConfig {
                    partition_method: pi,
                    ..QueryEngineConfig::default()
                },
            );
            let alpha_min = engine.config().interval_sizes[0];
            let queries: Vec<_> = world
                .queries
                .iter()
                .take(32)
                .map(|&id| query_for(&world.set, id, query_type, alpha_min, 20))
                .collect();
            group.bench_function(
                BenchmarkId::new(query_type.name().replace(' ', "_"), pi.name()),
                |b| {
                    let mut i = 0;
                    b.iter(|| {
                        let q = &queries[i % queries.len()];
                        i += 1;
                        std::hint::black_box(engine.trip_query(q))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Cold (uncached) SPQ latency: `SntIndex::get_travel_times` on the SPQs a
/// trip-query engine actually dispatches — the zone-partitioned sub-paths of
/// query trajectories — under both interval flavours. Every call runs the
/// full backward search + temporal scans; there is no result cache in front.
fn bench_cold_spq(c: &mut Criterion) {
    let world = World::generate(Scale::from_env());
    let index = world.build_index(SntConfig::default());
    let engine = QueryEngine::new(&index, world.network(), QueryEngineConfig::default());
    let alpha_min = engine.config().interval_sizes[0];

    let mut group = c.benchmark_group("spq_cold");
    for query_type in [QueryType::TemporalFilters, QueryType::SpqOnly] {
        // The engine's initial π_Z decomposition of each trip query gives a
        // realistic mix of sub-path lengths and windows.
        let spqs: Vec<_> = world
            .queries
            .iter()
            .take(32)
            .flat_map(|&id| {
                engine.initial_subqueries(&query_for(&world.set, id, query_type, alpha_min, 20))
            })
            .collect();
        group.bench_function(
            BenchmarkId::from_parameter(query_type.name().replace(' ', "_")),
            |b| {
                let mut i = 0;
                b.iter(|| {
                    let q = &spqs[i % spqs.len()];
                    i += 1;
                    std::hint::black_box(index.get_travel_times(q))
                })
            },
        );
    }
    // Whole-trajectory paths (15+ segments): the longest backward searches.
    let spqs: Vec<_> = world
        .queries
        .iter()
        .take(32)
        .map(|&id| query_for(&world.set, id, QueryType::TemporalFilters, alpha_min, 20))
        .collect();
    group.bench_function(BenchmarkId::from_parameter("whole_path"), |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &spqs[i % spqs.len()];
            i += 1;
            std::hint::black_box(index.get_travel_times(q))
        })
    });
    // The backward-search component alone (`getISARange` over every
    // partition) — the share of cold SPQ latency the wavelet-rank
    // optimisations act on.
    group.bench_function(BenchmarkId::from_parameter("isa_ranges_whole_path"), |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &spqs[i % spqs.len()];
            i += 1;
            std::hint::black_box(index.isa_ranges(&q.path))
        })
    });
    group.finish();
}

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

criterion_group!(benches, bench_trip_queries, bench_cold_spq, bench_ladder);
criterion_main!(benches);
