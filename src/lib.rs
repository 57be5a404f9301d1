//! # tthr — Travel-Time Histogram Retrieval
//!
//! A complete, from-scratch Rust implementation of the system described in
//! *Waury, Jensen, Koide, Ishikawa, Xiao: "Indexing Trajectories for
//! Travel-Time Histogram Retrieval", EDBT 2019*.
//!
//! The system answers **strict path queries** (SPQs) over large sets of
//! network-constrained trajectories: given a path `P` in a road network, a
//! (periodic or fixed) time interval `I`, an optional filter predicate `f`,
//! and a cardinality requirement `β`, it returns a travel-time histogram
//! derived from trajectories that traversed `P` exactly, entering it inside
//! `I`. Full trip queries are partitioned into sub-queries and greedily
//! relaxed until each sub-query meets its cardinality requirement; the
//! per-sub-path histograms are convolved into a distribution for the whole
//! trip.
//!
//! This facade crate re-exports the workspace crates that its tests,
//! examples and binaries use, plus a [`prelude`]. The FM-index substrate
//! (`tthr-fmindex`: SA-IS suffix arrays, BWT, wavelet trees, backward
//! search) and the temporal index forests (`tthr-temporal`: B+-trees and
//! CSS-trees) sit behind [`core`] and are not re-exported.
//!
//! * [`network`] — road network graph (categories, zones, speed limits,
//!   routing, the paper's Figure 1 example network).
//! * [`trajectory`] — network-constrained trajectories, GPS traces, and an
//!   HMM map-matcher.
//! * [`histogram`] — travel-time histograms, convolution, time-of-day
//!   histograms.
//! * [`core`] — the SNT-index adapted for travel-time retrieval, the SPQ
//!   engine, partitioning (π) and splitting (σ) strategies, the cardinality
//!   estimator, and temporal index partitioning.
//! * [`datagen`] — deterministic synthetic road networks and ITSP-like
//!   trajectory workloads.
//! * [`metrics`] — the paper's evaluation metrics (sMAPE, weighted error,
//!   log-likelihood, q-error), latency percentiles, and the labeled
//!   metrics registry behind the server's Prometheus `/metrics`
//!   exposition.
//! * [`store`] — the persistent storage substrate: versioned, checksummed
//!   snapshot containers and the append write-ahead log (the on-disk
//!   format is specified in its crate docs and `docs/storage-format.md`).
//! * [`service`] — the concurrent serving layer (see below).
//! * [`server`] — the network front-end: a dependency-free epoll
//!   HTTP/1.1 reactor over [`service::QueryService`] with a bounded-queue
//!   backpressure boundary, load shedding, pipelining, and graceful
//!   drain (`examples/serve.rs` is the runnable entry point).
//! * [`rpc`] — the cluster tier's compact binary wire protocol
//!   (length-prefixed, CRC-32-guarded frames over the store codec).
//! * [`client`] — the cluster tier's scatter-gather router: pooled
//!   binary-protocol node clients with timeouts and bounded retry, and
//!   a [`client::ClusterRouter`] that answers trip queries over a
//!   shard-per-process cluster byte-identically to the in-process
//!   sharded backend (`src/bin/tthr-node.rs` and
//!   `src/bin/tthr-router.rs` are the runnable processes;
//!   `examples/cluster.rs` boots a whole cluster in one command).
//!
//! ## Architecture: the service layer
//!
//! Above the paper-faithful engine sits a production-oriented serving
//! layer, [`service::QueryService`], designed for many concurrent trip
//! queries over one shared index:
//!
//! ```text
//!   clients ──► QueryService ──► ThreadPool (N workers, helper-joined fan-out)
//!                   │                │  batch → one task per trip query
//!                   │                │  trip  → the calling thread
//!                   │                ▼
//!                   │           QueryEngine::trip_query_via_with (round driver)
//!                   │                │ one travel_times_ladders per round
//!                   │                ▼
//!                   ├──► ShardedCache (LRU per shard, Mutex per shard,
//!                   │      key = full Spq hashed once, second-sighting
//!                   │      admission once a shard is full)
//!                   │                │ miss
//!                   │                ▼
//!                   └──► backend: RwLock over SntIndex (monolith), or
//!                        ShardedSntIndex — K per-shard RwLocks, appends only
//!                        write-lock touched shards (generation + 1, scoped
//!                        cache invalidation)
//! ```
//!
//! * **Concurrency** — trip queries in a batch run as parallel pool tasks;
//!   a trip itself runs on one thread, on the engine's round driver
//!   (every sub-query whose window is final joins one
//!   `travel_times_ladders` call per relaxation round), under one read
//!   lock and through one search scratch. The pool's join primitive keeps
//!   the waiting thread working on its own task set, so a batch issued
//!   from a pool worker cannot deadlock.
//! * **Caching** — results are cached per relaxed SPQ, so two trips
//!   sharing a sub-path (or one trip repeated) skip the FM-index and
//!   temporal-forest scans entirely. Updates via
//!   [`service::QueryService::append_batch`] invalidate scoped to the
//!   backend (whole cache for the monolith, touched shards only for the
//!   sharded backend), with generation-validated inserts so stale
//!   entries cannot survive an append.
//! * **Sharding** — [`core::ShardedSntIndex`] partitions the road
//!   network into K zone/grid shards, each a complete SNT-index over the
//!   trajectories touching it, behind its own lock. First-edge routing
//!   keeps answers byte-identical to the monolith
//!   (`tests/equivalence.rs` proves it differentially for
//!   K ∈ {1, 2, 7}), while appends stall only the written shards
//!   (`crates/bench/benches/sharded.rs`).
//! * **Observability** — [`service::ServiceStats`] snapshots p50/p95/p99
//!   latency, throughput, and cache hit rate, computed with [`metrics`].
//!   Underneath, every query carries a [`core::QueryTrace`] (rank ops,
//!   wavelet descents, cache/scratch hits, shard fanout) feeding a
//!   slow-query ring ([`service::QueryService::slow_queries`]) and a
//!   labeled [`metrics::MetricsRegistry`] the server exposes as
//!   Prometheus text on `GET /metrics` (`GET /debug/slow` returns the
//!   ring as JSON).
//!
//! The service returns byte-identical results to the single-threaded
//! engine on the same index state (`tests/equivalence.rs` enforces
//! this across a synthetic workload).
//!
//! ## Persistence: snapshots and the write-ahead log
//!
//! A restart does not rebuild the index. [`service::QueryService::save_snapshot`]
//! serializes the whole SNT-index — every FM-index, the temporal forest,
//! the user table, and the time-of-day store — into a sectioned,
//! CRC-guarded container ([`store`]), and attaches a write-ahead log to
//! the same directory: every later `append_batch` is fsynced to the WAL
//! *before* the in-memory index changes.
//! [`service::QueryService::open`] is the restart path: load the
//! snapshot, replay the WAL batches the snapshot predates (records carry
//! base stamps, so replay is idempotent), truncate any torn tail a crash
//! left behind, and serve — byte-identically to an index built from the
//! full history in memory (`tests/persistence_roundtrip.rs` enforces
//! this, including crash and corruption scenarios).
//!
//! ## Quickstart
//!
//! ```
//! use tthr::prelude::*;
//!
//! // The 6-edge example network of the paper's Figure 1 / Table 1 and the
//! // 4-trajectory example set of Section 2.2.
//! let network = tthr::network::examples::example_network();
//! let trajectories = tthr::trajectory::examples::example_trajectories();
//!
//! // Build the extended SNT-index.
//! let index = SntIndex::build(&network, &trajectories, SntConfig::default());
//!
//! // Q = spq(<A,B,E>, [0,15), ∅, 2): trajectories tr0 and tr3 match.
//! let path = Path::new(vec![EdgeId(0), EdgeId(1), EdgeId(4)]);
//! let spq = Spq::new(path, TimeInterval::fixed(0, 15)).with_beta(2);
//! let times = index.get_travel_times(&spq);
//! assert_eq!(times.sorted(), vec![10.0, 11.0]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tthr_client as client;
pub use tthr_core as core;
pub use tthr_datagen as datagen;
pub use tthr_histogram as histogram;
pub use tthr_metrics as metrics;
pub use tthr_network as network;
pub use tthr_rpc as rpc;
pub use tthr_server as server;
pub use tthr_service as service;
pub use tthr_store as store;
pub use tthr_trajectory as trajectory;

/// Convenience re-exports covering the common end-to-end workflow.
pub mod prelude {
    pub use tthr_client::{ClientConfig, ClusterError, ClusterRouter, NodeClient};
    pub use tthr_core::{
        BetaPolicy, CardinalityMode, IndexBackend, PartitionMethod, QueryEngine, QueryEngineConfig,
        ShardRouter, ShardedSntIndex, SntConfig, SntIndex, SplitMethod, Spq, TimeInterval,
        TravelTimeProvider, TripQuery,
    };
    pub use tthr_datagen::{NetworkConfig, WorkloadConfig};
    pub use tthr_histogram::Histogram;
    pub use tthr_metrics::{log_likelihood, percentile, q_error, smape, weighted_error};
    pub use tthr_network::{Category, EdgeId, Path, RoadNetwork, Zone};
    pub use tthr_server::{serve, ServerConfig, ServerHandle, ServerMetrics};
    pub use tthr_service::{QueryService, ServiceConfig, ServiceStats, ShardedQueryService};
    pub use tthr_trajectory::{TrajId, Trajectory, TrajectorySet, UserId};
}
