//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `experiments` binary (and the criterion benches) build a synthetic
//! world at a configurable scale, derive the paper's query set (Section 5.2)
//! and evaluate engine configurations against the ground-truth trajectories,
//! producing the rows behind every figure of Section 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;
use tthr_core::{
    CardinalityMode, PartitionMethod, QueryEngine, QueryEngineConfig, SntConfig, SntIndex,
    SplitMethod, Spq, TimeInterval,
};
use tthr_datagen::{
    generate_network, generate_workload, sample_query_trajectories, NetworkConfig,
    SyntheticNetwork, WorkloadConfig,
};
use tthr_histogram::SmoothedPdf;
use tthr_metrics::{mean, smape, weighted_error};
use tthr_network::RoadNetwork;
use tthr_trajectory::{TrajId, TrajectorySet};

/// Experiment scale, selected with the `TTHR_SCALE` environment variable
/// (`small` | `medium` | `large`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds per experiment.
    Small,
    /// Default: a few minutes for the full suite.
    Medium,
    /// Paper-shaped: 458 drivers over 2.5 years on a ~45 k-edge network.
    Large,
}

impl Scale {
    /// Reads the scale from the environment (default `medium`).
    pub fn from_env() -> Scale {
        match std::env::var("TTHR_SCALE").unwrap_or_default().as_str() {
            "small" => Scale::Small,
            "large" => Scale::Large,
            _ => Scale::Medium,
        }
    }

    fn network_config(self) -> NetworkConfig {
        match self {
            Scale::Small => NetworkConfig::small(),
            Scale::Medium => NetworkConfig::medium(),
            Scale::Large => NetworkConfig::large(),
        }
    }

    fn workload_config(self) -> WorkloadConfig {
        match self {
            Scale::Small => WorkloadConfig::small(),
            Scale::Medium => WorkloadConfig::medium(),
            Scale::Large => WorkloadConfig::large(),
        }
    }

    /// Number of evaluation queries (the paper uses 6 942).
    pub(crate) fn num_queries(self) -> usize {
        match self {
            Scale::Small => 150,
            Scale::Medium => 700,
            Scale::Large => 6942,
        }
    }
}

/// A synthetic world: network + trajectory history + query sample.
pub struct World {
    /// The generated network with city/zone bookkeeping.
    pub syn: SyntheticNetwork,
    /// The full trajectory history.
    pub set: TrajectorySet,
    /// Sampled query trajectory ids (post-median, ≥ 15 segments).
    pub queries: Vec<TrajId>,
}

impl World {
    /// Generates the world at a given scale.
    pub fn generate(scale: Scale) -> World {
        let syn = generate_network(&scale.network_config());
        let set = generate_workload(&syn, &scale.workload_config());
        let mut queries = sample_query_trajectories(&set, 1.0, 15, 5);
        // Deterministic thin-out to the requested query count.
        let want = scale.num_queries();
        if queries.len() > want {
            let step = queries.len() / want;
            queries = queries
                .into_iter()
                .step_by(step.max(1))
                .take(want)
                .collect();
        }
        World { syn, set, queries }
    }

    /// The road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.syn.network
    }

    /// Builds an index with the given configuration.
    pub fn build_index(&self, config: SntConfig) -> SntIndex {
        SntIndex::build(&self.syn.network, &self.set, config)
    }
}

/// The paper's three query types (Section 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryType {
    /// Periodic time interval, no user filter.
    TemporalFilters,
    /// Periodic time interval plus a user filter.
    UserFilters,
    /// Fixed time interval `[0, t_q)`, no user filter.
    SpqOnly,
}

impl QueryType {
    /// Section-6 display name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryType::TemporalFilters => "Temporal Filters",
            QueryType::UserFilters => "User Filters",
            QueryType::SpqOnly => "SPQ Only",
        }
    }

    /// The π methods evaluated for this query type in Figures 5–9.
    pub fn partition_methods(&self) -> Vec<PartitionMethod> {
        match self {
            QueryType::TemporalFilters => vec![
                PartitionMethod::Category,
                PartitionMethod::Zone,
                PartitionMethod::ZoneCategory,
                PartitionMethod::Whole,
                PartitionMethod::Regular(1),
                PartitionMethod::Regular(2),
                PartitionMethod::Regular(3),
            ],
            QueryType::UserFilters => vec![
                PartitionMethod::Category,
                PartitionMethod::Zone,
                PartitionMethod::ZoneCategory,
                PartitionMethod::MainRoadUser,
            ],
            QueryType::SpqOnly => vec![
                PartitionMethod::Category,
                PartitionMethod::Zone,
                PartitionMethod::ZoneCategory,
                PartitionMethod::Whole,
            ],
        }
    }
}

/// Builds the SPQ for one query trajectory under a query type
/// (Section 5.2): periodic `[t₀ − α_min/2, t₀ + α_min/2)^R` or fixed
/// `[0, t₀)`, β-capped, self-excluded.
pub fn query_for(
    set: &TrajectorySet,
    id: TrajId,
    query_type: QueryType,
    alpha_min: i64,
    beta: u32,
) -> Spq {
    let tr = set.get(id);
    let interval = match query_type {
        QueryType::SpqOnly => TimeInterval::fixed(0, tr.start_time().max(1)),
        _ => TimeInterval::periodic_around(tr.start_time(), alpha_min),
    };
    let mut q = Spq::new(tr.path(), interval)
        .with_beta(beta)
        .without_trajectory(id);
    if query_type == QueryType::UserFilters {
        q = q.with_user(tr.user());
    }
    q
}

/// One evaluated configuration: the metrics behind Figures 5–9.
#[derive(Clone, Debug)]
pub struct EvalRow {
    /// π name.
    pub pi: String,
    /// σ name.
    pub sigma: String,
    /// Cardinality requirement β.
    pub beta: u32,
    /// Figure 5: sMAPE in percent.
    pub smape: f64,
    /// Figure 6: weighted error in percent.
    pub weighted: f64,
    /// Figure 7: average final sub-query path length (segments).
    pub sub_len: f64,
    /// Figure 8: average log-likelihood.
    pub log_likelihood: f64,
    /// Figure 9: mean processing time per trip query, milliseconds.
    pub ms_per_query: f64,
}

/// The paper's log-likelihood smoothing weight (Section 6.1).
pub const GAMMA: f64 = 0.99;
/// Support of the uniform smoothing component, lower bound (seconds).
pub const T_MIN: f64 = 0.0;
/// Support of the uniform smoothing component, upper bound (seconds).
pub const T_MAX: f64 = 7200.0;

/// Evaluates one engine configuration over the query sample, computing all
/// Figure 5–9 metrics in a single pass.
pub fn evaluate(
    world: &World,
    index: &SntIndex,
    query_type: QueryType,
    pi: PartitionMethod,
    sigma: SplitMethod,
    beta: u32,
    estimator: Option<CardinalityMode>,
) -> EvalRow {
    let engine = QueryEngine::new(
        index,
        &world.syn.network,
        QueryEngineConfig {
            partition_method: pi,
            split_method: sigma,
            estimator,
            ..QueryEngineConfig::default()
        },
    );
    let alpha_min = engine.config().interval_sizes[0];

    let mut smape_pairs = Vec::with_capacity(world.queries.len());
    let mut weighted_rows = Vec::with_capacity(world.queries.len());
    let mut logls = Vec::with_capacity(world.queries.len());
    let mut sub_lens = Vec::with_capacity(world.queries.len());
    let start = Instant::now();
    for &id in &world.queries {
        let tr = world.set.get(id);
        let q = query_for(&world.set, id, query_type, alpha_min, beta);
        let result = engine.trip_query(&q);

        let actual = tr.total_duration();
        smape_pairs.push((result.predicted_duration(), actual));
        sub_lens.push(result.avg_sub_path_len());

        // Weighted error: walk the final sub-paths along the trajectory.
        let total_len = world.syn.network.path_length_m(&tr.path());
        let mut offset = 0usize;
        let mut subs = Vec::with_capacity(result.subs.len());
        for sub in &result.subs {
            let actual_j: f64 = tr.entries()[offset..offset + sub.path.len()]
                .iter()
                .map(|e| e.travel_time)
                .sum();
            let w = world.syn.network.path_length_m(&sub.path) / total_len;
            subs.push((w, sub.mean, actual_j));
            offset += sub.path.len();
        }
        weighted_rows.push(subs);

        if let Some(h) = &result.histogram {
            logls.push(SmoothedPdf::new(h, GAMMA, T_MIN, T_MAX).log_likelihood(actual));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    EvalRow {
        pi: pi.name(),
        sigma: sigma.name().to_string(),
        beta,
        smape: smape(&smape_pairs),
        weighted: weighted_error(&weighted_rows),
        sub_len: mean(sub_lens),
        log_likelihood: mean(logls),
        ms_per_query: elapsed * 1e3 / world.queries.len().max(1) as f64,
    }
}

/// The β sweep of Figures 5–9.
pub const BETAS: [u32; 5] = [10, 20, 30, 40, 50];

/// The σ methods of Figures 5–9.
pub const SIGMAS: [SplitMethod; 2] = [SplitMethod::Regular, SplitMethod::LongestPrefix];

/// Prints an `EvalRow` table slice: one metric as a β-indexed matrix with
/// one column per (π, σ).
pub fn print_metric_table(rows: &[EvalRow], metric: &str, value: impl Fn(&EvalRow) -> f64) {
    let mut configs: Vec<(String, String)> = Vec::new();
    for r in rows {
        let key = (r.pi.clone(), r.sigma.clone());
        if !configs.contains(&key) {
            configs.push(key);
        }
    }
    print!("{:>6}", "beta");
    for (pi, sigma) in &configs {
        print!(" {:>16}", format!("{pi}/{sigma}"));
    }
    println!("    [{metric}]");
    let mut betas: Vec<u32> = rows.iter().map(|r| r.beta).collect();
    betas.sort_unstable();
    betas.dedup();
    for beta in betas {
        print!("{beta:>6}");
        for (pi, sigma) in &configs {
            let row = rows
                .iter()
                .find(|r| r.beta == beta && &r.pi == pi && &r.sigma == sigma)
                .expect("full grid");
            print!(" {:>16.3}", value(row));
        }
        println!();
    }
}
