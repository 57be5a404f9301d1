//! Network-constrained trajectories (NCT).
//!
//! A trajectory `tr = (d, u, s)` pairs a trajectory id and a user id with a
//! sequence `s = ⟨(e₀, t₀, TT₀), …, (e_{l−1}, t_{l−1}, TT_{l−1})⟩` of segment
//! traversals: the segment entered, the entry timestamp, and the traversal
//! duration (paper, Section 2.2).
//!
//! * [`Trajectory`] / [`TrajectorySet`] — the NCT model with the paper's
//!   `Dur(tr, P)` duration function and strict sub-path matching.
//! * [`examples`] — the paper's four-trajectory running example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod examples;
mod set;
mod traj;
mod types;

pub use set::TrajectorySet;
pub use traj::{TrajEntry, Trajectory, TrajectoryError};
pub use types::{TrajId, UserId};
