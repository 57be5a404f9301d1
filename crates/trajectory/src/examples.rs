//! The paper's example trajectory set (Section 2.2):
//!
//! ```text
//! tr0 : (0,u1) → ⟨(A,0,3), (B,3,4), (E,7,4)⟩
//! tr1 : (1,u2) → ⟨(A,2,4), (C,6,2), (D,8,4), (E,12,5)⟩
//! tr2 : (2,u2) → ⟨(A,4,3), (B,7,3), (F,10,6)⟩
//! tr3 : (3,u1) → ⟨(A,6,3), (B,9,3), (E,12,4)⟩
//! ```
//!
//! Together with [`tthr_network::examples::example_network`] this reproduces
//! every worked number in the paper: the trajectory string
//! `ABE$ACDE$ABF$ABE$`, the suffix array and BWT of Figure 3, the temporal
//! index of Figure 4, and the example query results of Section 2.3.

use crate::set::TrajectorySet;
use crate::traj::TrajEntry;
use crate::types::UserId;
use tthr_network::examples::{EDGE_A, EDGE_B, EDGE_C, EDGE_D, EDGE_E, EDGE_F};

/// User `u1` of the example.
pub const USER_1: UserId = UserId(1);
/// User `u2` of the example.
pub(crate) const USER_2: UserId = UserId(2);

/// Builds the example trajectory set `T = {tr0, tr1, tr2, tr3}`.
pub fn example_trajectories() -> TrajectorySet {
    let mut set = TrajectorySet::new();
    set.push(
        USER_1,
        vec![
            TrajEntry::new(EDGE_A, 0, 3.0),
            TrajEntry::new(EDGE_B, 3, 4.0),
            TrajEntry::new(EDGE_E, 7, 4.0),
        ],
    )
    .expect("tr0 is valid");
    set.push(
        USER_2,
        vec![
            TrajEntry::new(EDGE_A, 2, 4.0),
            TrajEntry::new(EDGE_C, 6, 2.0),
            TrajEntry::new(EDGE_D, 8, 4.0),
            TrajEntry::new(EDGE_E, 12, 5.0),
        ],
    )
    .expect("tr1 is valid");
    set.push(
        USER_2,
        vec![
            TrajEntry::new(EDGE_A, 4, 3.0),
            TrajEntry::new(EDGE_B, 7, 3.0),
            TrajEntry::new(EDGE_F, 10, 6.0),
        ],
    )
    .expect("tr2 is valid");
    set.push(
        USER_1,
        vec![
            TrajEntry::new(EDGE_A, 6, 3.0),
            TrajEntry::new(EDGE_B, 9, 3.0),
            TrajEntry::new(EDGE_E, 12, 4.0),
        ],
    )
    .expect("tr3 is valid");
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TrajId;
    use tthr_network::Path;

    #[test]
    fn example_set_matches_paper() {
        let set = example_trajectories();
        assert_eq!(set.len(), 4);
        assert_eq!(set.total_traversals(), 13);
        assert_eq!(set.get(TrajId(0)).user(), USER_1);
        assert_eq!(set.get(TrajId(1)).user(), USER_2);
        assert_eq!(set.get(TrajId(2)).user(), USER_2);
        assert_eq!(set.get(TrajId(3)).user(), USER_1);
    }

    #[test]
    fn section_2_3_durations() {
        // Dur(tr0, ⟨A,B,E⟩) = 11 and Dur(tr3, ⟨A,B,E⟩) = 10.
        let set = example_trajectories();
        let abe = Path::new(vec![EDGE_A, EDGE_B, EDGE_E]);
        assert_eq!(set.get(TrajId(0)).duration_over(&abe), Some(11.0));
        assert_eq!(set.get(TrajId(3)).duration_over(&abe), Some(10.0));
        // tr1 and tr2 do not traverse ⟨A,B,E⟩.
        assert_eq!(set.get(TrajId(1)).duration_over(&abe), None);
        assert_eq!(set.get(TrajId(2)).duration_over(&abe), None);
    }

    #[test]
    fn paths_are_traversable_on_example_network() {
        let net = tthr_network::examples::example_network();
        let set = example_trajectories();
        for tr in &set {
            assert!(net.validate_path(&tr.path()), "{:?}", tr.id());
        }
    }
}
