//! The paper's primary contribution: an SNT-index adapted for travel-time
//! histogram retrieval, with online strict-path-query processing.
//!
//! Layer map (bottom-up):
//!
//! * [`text`] — trajectory-string construction over `Σ = E ∪ {$}`.
//! * [`SntIndex`] — per-partition FM-indexes + extended temporal forests +
//!   the `U` user table + optional time-of-day histogram store; implements
//!   `buildMap` / `probeMap` / `getTravelTimes` (Procedures 3–5).
//! * [`PartitionMethod`] / [`partition_query`] — the π strategies
//!   (Section 3.2).
//! * [`SplitMethod`] / [`Splitter`] — the greedy relaxation σ (Procedure 1).
//! * [`CardinalityMode`] / [`estimate_cardinality`] — the five estimator
//!   modes (Section 4.4).
//! * [`QueryEngine`] — the trip-query driver with shift-and-enlarge and
//!   estimator gating (Procedure 6), generic over [`IndexBackend`].
//! * [`ShardedSntIndex`] — K network-partitioned, independently locked
//!   [`SntIndex`] shards with exact first-edge routing: byte-identical
//!   answers, per-shard append isolation (the `sharded` module docs give
//!   the exactness argument).
//! * [`baseline`] — the speed-limit and segment-level reference estimators.
//!
//! ```
//! use tthr_core::{SntConfig, SntIndex, Spq, TimeInterval};
//! use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E};
//! use tthr_network::Path;
//! use tthr_trajectory::examples::example_trajectories;
//!
//! // Section 2.3's example query: spq(⟨A,B,E⟩, [0,15), ∅, 2) → {tr0, tr3}.
//! let network = example_network();
//! let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
//! let spq = Spq::new(
//!     Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
//!     TimeInterval::fixed(0, 15),
//! )
//! .with_beta(2);
//! assert_eq!(index.get_travel_times(&spq).sorted(), vec![10.0, 11.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod cardinality;
mod census;
mod engine;
mod hot;
mod interval;
pub mod node;
mod partition;
pub mod persist;
mod probe;
mod sharded;
mod snt;
mod split;
mod spq;
pub mod text;
mod trace;

pub use cardinality::{estimate_cardinality, CardinalityMode};
pub use engine::{
    ladder_sequential, BetaPolicy, IndexBackend, LadderRequest, QueryEngine, QueryEngineConfig,
    QueryStats, SubResult, TravelTimeProvider, TripQuery,
};
pub use interval::TimeInterval;
pub use node::{NodeWalRecord, ShardNodeState};
pub use partition::{partition_query, PartitionMethod};
pub use persist::WalBatch;
pub use sharded::{
    ShardRouter, ShardStats, ShardedAppend, ShardedSntIndex, ShardedWalBatch, SECTION_ROUTING,
    SECTION_SHARDED_META, SHARD_SECTION_BASE,
};
pub use snt::{
    CompactionOutcome, HotStats, MemoryReport, SearchScratch, SntConfig, SntIndex, TravelTimes,
    TreeKind, TtValues, WaveletKind,
};
pub use split::{SplitMethod, Splitter};
pub use spq::{Filter, Spq};
pub use trace::QueryTrace;

// The service layer shares one index across worker threads; a regression
// dropping these auto-traits (e.g. by storing an `Rc` somewhere inside the
// index) must fail to compile, not deadlock review.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SntIndex>();
    assert_send_sync::<ShardedSntIndex>();
    assert_send_sync::<QueryEngine<'static>>();
    assert_send_sync::<QueryEngine<'static, ShardedSntIndex>>();
    assert_send_sync::<Spq>();
    assert_send_sync::<TimeInterval>();
    assert_send_sync::<Filter>();
    assert_send_sync::<snt::TravelTimes>();
    assert_send_sync::<TripQuery>();
};
