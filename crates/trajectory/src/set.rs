//! Trajectory collections with dense id assignment.

use crate::traj::{TrajEntry, Trajectory, TrajectoryError};
use crate::types::{TrajId, UserId};

/// A set of trajectories `T ⊆ D × U × S` with dense trajectory ids.
///
/// Ids are assigned in insertion order (`TrajId(i)` is the `i`-th inserted
/// trajectory), which lets the index layer store per-trajectory lookups —
/// most importantly the associative container `U : d → u` used to evaluate
/// user filter predicates in constant time (paper, Section 4.1.3) — as flat
/// arrays.
#[derive(Clone, Debug, Default)]
pub struct TrajectorySet {
    trajectories: Vec<Trajectory>,
    total_traversals: usize,
}

impl TrajectorySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a trajectory built from `user` and `entries`, assigning the
    /// next dense id.
    pub fn push(
        &mut self,
        user: UserId,
        entries: Vec<TrajEntry>,
    ) -> Result<TrajId, TrajectoryError> {
        let id = TrajId(self.trajectories.len() as u32);
        let tr = Trajectory::new(id, user, entries)?;
        self.total_traversals += tr.len();
        self.trajectories.push(tr);
        Ok(id)
    }

    /// Number of trajectories `|T|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Total number of segment traversals across all trajectories.
    #[inline]
    pub fn total_traversals(&self) -> usize {
        self.total_traversals
    }

    /// The trajectory with the given id.
    #[inline]
    pub fn get(&self, id: TrajId) -> &Trajectory {
        &self.trajectories[id.index()]
    }

    /// Iterator over all trajectories in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Trajectory> {
        self.trajectories.iter()
    }

    /// The dense `d → u` user lookup table.
    pub fn user_table(&self) -> Vec<UserId> {
        self.trajectories.iter().map(|t| t.user()).collect()
    }

    /// Median trajectory start time — the paper samples its query set from
    /// trajectories after the median timestamp so every query has at least
    /// half the history available (Section 6).
    pub fn median_start_time(&self) -> Option<tthr_network::Timestamp> {
        if self.trajectories.is_empty() {
            return None;
        }
        let mut starts: Vec<_> = self.trajectories.iter().map(|t| t.start_time()).collect();
        starts.sort_unstable();
        Some(starts[(starts.len() - 1) / 2])
    }
}

impl<'a> IntoIterator for &'a TrajectorySet {
    type Item = &'a Trajectory;
    type IntoIter = std::slice::Iter<'a, Trajectory>;
    fn into_iter(self) -> Self::IntoIter {
        self.trajectories.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_network::EdgeId;

    fn entry(edge: u32, t: i64, tt: f64) -> TrajEntry {
        TrajEntry::new(EdgeId(edge), t, tt)
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut set = TrajectorySet::new();
        let a = set.push(UserId(1), vec![entry(0, 0, 3.0)]).unwrap();
        let b = set.push(UserId(2), vec![entry(0, 2, 4.0)]).unwrap();
        assert_eq!(a, TrajId(0));
        assert_eq!(b, TrajId(1));
        assert_eq!(set.get(a).user(), UserId(1));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_traversals(), 2);
    }

    #[test]
    fn user_table_maps_dense_ids() {
        let mut set = TrajectorySet::new();
        set.push(UserId(1), vec![entry(0, 0, 3.0)]).unwrap();
        set.push(UserId(2), vec![entry(0, 2, 4.0)]).unwrap();
        set.push(UserId(2), vec![entry(0, 4, 3.0)]).unwrap();
        assert_eq!(set.user_table(), vec![UserId(1), UserId(2), UserId(2)]);
    }

    #[test]
    fn median_start_time() {
        let mut set = TrajectorySet::new();
        assert_eq!(set.median_start_time(), None);
        for (i, t) in [10, 0, 20, 30].into_iter().enumerate() {
            set.push(UserId(i as u32), vec![entry(0, t, 1.0)]).unwrap();
        }
        // Sorted starts: 0, 10, 20, 30 — lower middle is 10.
        assert_eq!(set.median_start_time(), Some(10));
    }

    #[test]
    fn invalid_trajectories_are_rejected() {
        let mut set = TrajectorySet::new();
        assert!(set.push(UserId(0), vec![]).is_err());
        assert_eq!(set.len(), 0, "failed pushes must not consume an id");
        set.push(UserId(0), vec![entry(0, 0, 1.0)]).unwrap();
        assert_eq!(set.len(), 1);
    }
}
