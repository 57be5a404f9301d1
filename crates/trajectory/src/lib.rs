//! Network-constrained trajectories (NCT), GPS traces, and map-matching.
//!
//! A trajectory `tr = (d, u, s)` pairs a trajectory id and a user id with a
//! sequence `s = ⟨(e₀, t₀, TT₀), …, (e_{l−1}, t_{l−1}, TT_{l−1})⟩` of segment
//! traversals: the segment entered, the entry timestamp, and the traversal
//! duration (paper, Section 2.2).
//!
//! * [`Trajectory`] / [`TrajectorySet`] — the NCT model with the paper's
//!   `Dur(tr, P)` duration function and strict sub-path matching.
//! * [`GpsTrace`] — raw GPS observations, splittable on time gaps (the
//!   paper's 180 s rule).
//! * [`matcher`] — a Newson–Krumm-style HMM map-matcher turning noisy GPS
//!   traces into NCTs, reproducing the preprocessing step of Section 5.1.3.
//! * [`examples`] — the paper's four-trajectory running example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod examples;
mod gps;
pub mod matcher;
mod set;
mod traj;
mod types;

pub use gps::{GpsPoint, GpsTrace};
pub use set::TrajectorySet;
pub use traj::{TrajEntry, Trajectory, TrajectoryError, MAX_ABS_ENTER_TIME, MAX_TRAVEL_TIME};
pub use types::{TrajId, UserId};
