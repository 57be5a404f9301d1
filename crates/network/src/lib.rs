//! Road network graph model for network-constrained trajectory indexing.
//!
//! A spatial network is modeled as a directed graph `G = (V, E, F)` where `V`
//! is a vertex set, `E ⊆ V × V` is a set of edges representing road segments,
//! and `F : E → Cat × Z × SL × L` maps every edge to a road category, a zone
//! type, a speed limit, and a segment length (paper, Section 2.2).
//!
//! The crate provides:
//!
//! * [`RoadNetwork`] — the graph itself, built through [`NetworkBuilder`],
//!   with the `estimateTT` speed-limit fallback estimator of the paper.
//! * [`Path`] — a traversable sequence of segments with sub-path slicing.
//! * [`Category`] / [`Zone`] — the 17 OSM-style road categories and the
//!   Danish-zoning-style zone types used by the partitioning strategies.
//! * [`route`] — Dijkstra routing over the network, along which the
//!   synthetic workload generator draws its trajectories.
//! * [`examples`] — the paper's Figure 1 / Table 1 example network, reused as
//!   a fixture throughout the workspace test suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edge;
pub mod examples;
mod geometry;
mod graph;
mod path;
pub mod route;
mod types;

pub use edge::EdgeAttrs;
pub use geometry::Point;
pub use graph::{NetworkBuilder, RoadNetwork};
pub use path::{Path, PathError};
pub use types::{Category, EdgeId, Timestamp, VertexId, Zone, SECONDS_PER_DAY};
