//! The trajectory model: traversal sequences and the `Dur` function.

use crate::types::{TrajId, UserId};
use std::fmt;
use tthr_network::{EdgeId, Path, Timestamp};
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// One segment traversal `(e, t, TT)`: the segment, the timestamp it was
/// entered, and the traversal duration in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajEntry {
    /// The traversed segment.
    pub edge: EdgeId,
    /// Entry timestamp (seconds since data set epoch).
    pub enter_time: Timestamp,
    /// Time spent on the segment, in seconds
    /// (`0 < TT ≤ MAX_TRAVEL_TIME`, one day).
    pub travel_time: f64,
}

/// The longest traversal duration a trajectory may record, in seconds:
/// one day per segment. Histograms size their bucket vectors by value, so
/// an unbounded duration arriving over `/append` could ask one query for
/// an arbitrarily large allocation.
pub(crate) const MAX_TRAVEL_TIME: f64 = 86_400.0;

/// The largest magnitude an entry timestamp may have, in seconds: 2⁵³,
/// about 285 million years either side of the epoch. Queries add day
/// windows, travel times and one-past-the-end scan bounds to stored
/// timestamps; within this bound none of that arithmetic leaves `i64`.
pub(crate) const MAX_ABS_ENTER_TIME: Timestamp = 1 << 53;

impl TrajEntry {
    /// Creates an entry.
    pub fn new(edge: EdgeId, enter_time: Timestamp, travel_time: f64) -> Self {
        TrajEntry {
            edge,
            enter_time,
            travel_time,
        }
    }
}

/// Wire form: edge (`u32`), entry timestamp (`i64`), traversal time
/// (`f64`) — the `(e, t, TT)` triple, 20 bytes. Restore performs no
/// validation; batches are validated as whole trajectories by
/// [`Trajectory::new`] when a WAL record is applied.
impl Persist for TrajEntry {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.edge.0);
        w.put_i64(self.enter_time);
        w.put_f64(self.travel_time);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(TrajEntry {
            edge: EdgeId(r.get_u32()?),
            enter_time: r.get_i64()?,
            travel_time: r.get_f64()?,
        })
    }
}

/// Error produced when constructing an invalid trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrajectoryError {
    /// Trajectories must traverse at least one segment.
    Empty,
    /// Entry timestamps must be strictly increasing (`i < j ⇒ tᵢ < tⱼ`).
    NonMonotonicTimestamps {
        /// Index of the offending entry.
        at: usize,
    },
    /// Traversal durations must be positive and finite (`TTᵢ > 0`).
    NonPositiveTravelTime {
        /// Index of the offending entry.
        at: usize,
    },
    /// Traversal durations must not exceed one day (`MAX_TRAVEL_TIME`).
    TravelTimeTooLong {
        /// Index of the offending entry.
        at: usize,
    },
    /// Entry timestamps must lie within ±2⁵³ s (`MAX_ABS_ENTER_TIME`).
    EnterTimeOutOfRange {
        /// Index of the offending entry.
        at: usize,
    },
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::Empty => write!(f, "a trajectory must traverse at least one segment"),
            TrajectoryError::NonMonotonicTimestamps { at } => {
                write!(
                    f,
                    "entry timestamps must be strictly increasing (entry {at})"
                )
            }
            TrajectoryError::NonPositiveTravelTime { at } => {
                write!(
                    f,
                    "traversal durations must be positive and finite (entry {at})"
                )
            }
            TrajectoryError::TravelTimeTooLong { at } => {
                write!(
                    f,
                    "traversal durations must not exceed {MAX_TRAVEL_TIME} s (entry {at})"
                )
            }
            TrajectoryError::EnterTimeOutOfRange { at } => {
                write!(
                    f,
                    "entry timestamps must lie within ±{MAX_ABS_ENTER_TIME} s (entry {at})"
                )
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A network-constrained trajectory `tr = (d, u, s)` (paper, Section 2.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    id: TrajId,
    user: UserId,
    entries: Vec<TrajEntry>,
}

impl Trajectory {
    /// Creates a trajectory, validating the paper's sequence invariants:
    /// non-empty, strictly increasing entry timestamps within
    /// ±2⁵³ s (`MAX_ABS_ENTER_TIME`), positive finite durations of at most
    /// one day (`MAX_TRAVEL_TIME`).
    pub fn new(id: TrajId, user: UserId, entries: Vec<TrajEntry>) -> Result<Self, TrajectoryError> {
        if entries.is_empty() {
            return Err(TrajectoryError::Empty);
        }
        for (i, e) in entries.iter().enumerate() {
            // NaN slips through a plain `<= 0.0` check; reject all
            // non-finite durations here, before they can reach the index's
            // aggregates and histograms.
            if !e.travel_time.is_finite() || e.travel_time <= 0.0 {
                return Err(TrajectoryError::NonPositiveTravelTime { at: i });
            }
            if e.travel_time > MAX_TRAVEL_TIME {
                return Err(TrajectoryError::TravelTimeTooLong { at: i });
            }
            if e.enter_time.unsigned_abs() > MAX_ABS_ENTER_TIME as u64 {
                return Err(TrajectoryError::EnterTimeOutOfRange { at: i });
            }
            if i > 0 && entries[i - 1].enter_time >= e.enter_time {
                return Err(TrajectoryError::NonMonotonicTimestamps { at: i });
            }
        }
        Ok(Trajectory { id, user, entries })
    }

    /// The trajectory id `d`.
    #[inline]
    pub fn id(&self) -> TrajId {
        self.id
    }

    /// The user id `u`.
    #[inline]
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The traversal sequence `s`.
    #[inline]
    pub fn entries(&self) -> &[TrajEntry] {
        &self.entries
    }

    /// Number of segments traversed, `l`.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`; trajectories are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Starting time `tr.t₀`.
    #[inline]
    pub fn start_time(&self) -> Timestamp {
        self.entries[0].enter_time
    }

    /// The path `P_tr` of the trajectory.
    pub fn path(&self) -> Path {
        Path::new(self.entries.iter().map(|e| e.edge).collect())
    }

    /// Total duration of the whole trajectory: `Σ TTᵢ`.
    pub fn total_duration(&self) -> f64 {
        self.entries.iter().map(|e| e.travel_time).sum()
    }

    /// The paper's duration function `Dur(tr, P)`: the sum of traversal times
    /// over the **first** occurrence of `P` as a contiguous sub-path of
    /// `P_tr`, or `None` when `P_tr` does not contain `P` (the paper leaves
    /// `Dur` undefined in that case). The tests' reference for the example
    /// data of Section 2.3.
    #[cfg(test)]
    pub(crate) fn duration_over(&self, path: &Path) -> Option<f64> {
        self.occurrences_of(path).next().map(|i| {
            self.entries[i..i + path.len()]
                .iter()
                .map(|e| e.travel_time)
                .sum()
        })
    }

    /// Iterator over the starting indices of **all** occurrences of `P` as a
    /// contiguous sub-path (a trajectory with a circular path can traverse
    /// `P` more than once — the reason the SNT-index keys its probe table by
    /// `(d, seq)` rather than `d` alone).
    pub fn occurrences_of<'a>(&'a self, path: &'a Path) -> impl Iterator<Item = usize> + 'a {
        let needle = path.edges();
        self.entries
            .windows(needle.len())
            .enumerate()
            .filter(move |(_, w)| w.iter().map(|e| e.edge).eq(needle.iter().copied()))
            .map(|(i, _)| i)
    }

    /// Whether the trajectory strictly traverses `P` (no detours inside `P`).
    pub fn traverses(&self, path: &Path) -> bool {
        self.occurrences_of(path).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(edge: u32, t: Timestamp, tt: f64) -> TrajEntry {
        TrajEntry::new(EdgeId(edge), t, tt)
    }

    /// tr1 from the paper: (1, u2) → ⟨(A,2,4), (C,6,2), (D,8,4), (E,12,5)⟩
    /// with A=0, C=2, D=3, E=4.
    fn tr1() -> Trajectory {
        Trajectory::new(
            TrajId(1),
            UserId(2),
            vec![
                entry(0, 2, 4.0),
                entry(2, 6, 2.0),
                entry(3, 8, 4.0),
                entry(4, 12, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn invariants_are_enforced() {
        assert_eq!(
            Trajectory::new(TrajId(0), UserId(0), vec![]),
            Err(TrajectoryError::Empty)
        );
        assert_eq!(
            Trajectory::new(
                TrajId(0),
                UserId(0),
                vec![entry(0, 5, 1.0), entry(1, 5, 1.0)]
            ),
            Err(TrajectoryError::NonMonotonicTimestamps { at: 1 })
        );
        assert_eq!(
            Trajectory::new(TrajId(0), UserId(0), vec![entry(0, 5, 0.0)]),
            Err(TrajectoryError::NonPositiveTravelTime { at: 0 })
        );
        // Non-finite durations are corrupt input, not "large" ones.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                Trajectory::new(TrajId(0), UserId(0), vec![entry(0, 5, bad)]),
                Err(TrajectoryError::NonPositiveTravelTime { at: 0 }),
                "{bad} must be rejected"
            );
        }
        // Finite but longer than a day: a histogram would size its
        // buckets by it.
        for long in [MAX_TRAVEL_TIME + 1.0, 1e10, 1e234, f64::MAX] {
            assert_eq!(
                Trajectory::new(
                    TrajId(0),
                    UserId(0),
                    vec![entry(0, 5, 1.0), entry(1, 6, long)]
                ),
                Err(TrajectoryError::TravelTimeTooLong { at: 1 }),
                "{long} must be rejected"
            );
        }
        assert!(Trajectory::new(TrajId(0), UserId(0), vec![entry(0, 5, MAX_TRAVEL_TIME)]).is_ok());
        // Timestamps past ±2⁵³ s: query arithmetic on them would overflow.
        for far in [
            MAX_ABS_ENTER_TIME + 1,
            -MAX_ABS_ENTER_TIME - 1,
            i64::MAX,
            i64::MIN,
        ] {
            let (lo, hi) = if far < 0 { (far, 0) } else { (0, far) };
            assert_eq!(
                Trajectory::new(
                    TrajId(0),
                    UserId(0),
                    vec![entry(0, lo, 1.0), entry(1, hi, 1.0)]
                ),
                Err(TrajectoryError::EnterTimeOutOfRange {
                    at: usize::from(far > 0)
                }),
                "{far} must be rejected"
            );
        }
        let widest = vec![
            entry(0, -MAX_ABS_ENTER_TIME, 1.0),
            entry(1, MAX_ABS_ENTER_TIME, 1.0),
        ];
        assert!(Trajectory::new(TrajId(0), UserId(0), widest).is_ok());
    }

    #[test]
    fn duration_matches_paper_example() {
        // Dur(tr1, ⟨A,C,D,E⟩) = 4+2+4+5 = 15.
        let tr = tr1();
        let full = Path::new(vec![EdgeId(0), EdgeId(2), EdgeId(3), EdgeId(4)]);
        assert_eq!(tr.duration_over(&full), Some(15.0));
        assert_eq!(tr.total_duration(), 15.0);
        // Dur over sub-path ⟨C,D⟩ = 2+4 = 6.
        let cd = Path::new(vec![EdgeId(2), EdgeId(3)]);
        assert_eq!(tr.duration_over(&cd), Some(6.0));
        // ⟨A,B⟩ is not contained: undefined.
        let ab = Path::new(vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(tr.duration_over(&ab), None);
    }

    #[test]
    fn circular_paths_yield_multiple_occurrences() {
        // A trajectory looping over edges 0→1→0→1.
        let tr = Trajectory::new(
            TrajId(9),
            UserId(0),
            vec![
                entry(0, 0, 1.0),
                entry(1, 1, 2.0),
                entry(0, 3, 3.0),
                entry(1, 6, 4.0),
            ],
        )
        .unwrap();
        let p = Path::new(vec![EdgeId(0), EdgeId(1)]);
        let occ: Vec<_> = tr.occurrences_of(&p).collect();
        assert_eq!(occ, vec![0, 2]);
        // Dur uses the first occurrence.
        assert_eq!(tr.duration_over(&p), Some(3.0));
    }

    #[test]
    fn path_roundtrip() {
        let tr = tr1();
        assert_eq!(
            tr.path().edges(),
            &[EdgeId(0), EdgeId(2), EdgeId(3), EdgeId(4)]
        );
        assert!(tr.traverses(&Path::new(vec![EdgeId(3), EdgeId(4)])));
        assert!(!tr.traverses(&Path::new(vec![EdgeId(4), EdgeId(3)])));
        assert_eq!(tr.start_time(), 2);
    }
}
