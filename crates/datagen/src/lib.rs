//! Deterministic synthetic data substituting the paper's proprietary inputs.
//!
//! The paper evaluates on OpenStreetMap Northern Denmark (≈ 1.46 M directed
//! edges), the Danish Business Authority zoning map, and the ITSP GPS data
//! set (458 vehicles, 1.4 M trajectories over 2.5 years). None of these are
//! redistributable, so this crate generates the closest synthetic
//! equivalents (see DESIGN.md §5 for the substitution argument):
//!
//! * [`generate_network`] — a road network of city street grids connected
//!   by motorway corridors with parallel rural roads and summer-house
//!   pockets, using all relevant OSM categories, per-category speed limits
//!   (some deliberately untagged), and Danish-style zone labels.
//! * [`generate_workload`] — a per-driver commuting model over simulated
//!   months: personal departure habits and driving styles, weekday rush-hour
//!   congestion, per-traversal lognormal noise, and intersection turn
//!   delays (the effect that motivates path-level estimation).
//!
//! Trajectories come out network-constrained, as map-matched input would:
//! each trip follows a least-`estimateTT` route. Everything is seeded and
//! reproducible; `tests/fingerprint.rs` pins the `small` and `medium`
//! worlds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod workload;

pub use network::{generate_network, NetworkConfig, SyntheticNetwork};
pub use workload::{generate_workload, sample_query_trajectories, WorkloadConfig};
