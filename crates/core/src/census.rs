//! The user × edge time-of-day census: exact per-(user, edge, hour)
//! traversal counts, kept beside the temporal forest so that a query
//! which cannot reach β is answered `∅` without scanning for it.
//!
//! `Filter::User` is evaluated per leaf, *after* the temporal scan of the
//! path's first segment: a relaxation ladder asking for β traversals by a
//! user who has fewer than β on that edge at that time of day scans the
//! widest window's leaves only to reject nearly all of them. The census
//! answers "how many could there be?" first.
//!
//! # Why pruning cannot change an answer
//!
//! A cell counts **every** sealed leaf of its (user, edge, hour) — on or
//! off the query's path, excluded trajectory or not — and the hot tail's
//! leaves of the same user, edge and hours are counted from the edge's
//! hot lane when the question is asked. A match of an SPQ under a
//! periodic window is a leaf of the path's first edge that belongs to the
//! filter's user and enters inside the window, hence inside an hour the
//! window overlaps; so the sum of the user's cells over those hours, plus
//! the user's hot leaves in them, can only **over**-count the matches.
//! The path's occurrence count (Σ |ISA range| plus the hot leaves of the
//! first edge) over-counts them for any filter. A query is pruned only
//! when such an upper bound is below the number of matches a non-empty
//! answer needs; a bound that is not tight merely falls through to the
//! scan. A saturated cell (255) reads as unbounded.
//!
//! # Layout
//!
//! User-major, because both sides of the index meet it one user at a
//! time: a query filters on one user, and an appended trajectory belongs
//! to one user, so its whole update stays inside that user's few
//! kilobytes. Per user, a run of rows sorted by edge — `edge | 24-bit
//! hour mask | offset of the row's first counter` — and one `u8` counter
//! per set mask bit, row after row in ascending hour order. A (user,
//! edge) pair costs ≈ 16 bytes; a lookup is two binary searches.
//! Counters saturate instead of wrapping.
//!
//! # Maintenance
//!
//! The census is **derived, not persisted**, and belongs to the sealed
//! level of the index: it counts forest leaves, and — like the FM
//! partitions and the ToD rows — an absorbed batch joins it when it is
//! sealed, so the absorb path never pays for it. Three places write it.
//! [`SntIndex::build`] counts inside its per-edge leaf loop; `seal_batch`
//! — which a direct append reaches at once and an absorbed batch at
//! compaction — counts the batch's trajectories; retention and snapshot
//! restore recount from the leaves that remain
//! ([`SntIndex::recount_census`] is the from-scratch definition the
//! incrementally maintained state is tested against).
//!
//! The two writers are kept apart by what each is fast at (1.8 M leaves,
//! 120 users): a forest walk meets every leaf of an edge together, so
//! [`LeafCounter`] tallies an edge densely and appends finished rows —
//! 21 ms, against 72–83 ms for pushing the same leaves through the
//! incremental [`UserCensus::add`], which would double snapshot open; a
//! batch meets every traversal of a trajectory together, so `add` stays
//! inside one user's rows — 195 µs per 256-trajectory batch, against
//! 900–1 070 µs for tallying the batch by edge and merging it in.

use crate::interval::TimeInterval;
use crate::snt::SntIndex;
use crate::spq::{Filter, Spq};
use tthr_fmindex::IsaRange;
use tthr_network::{EdgeId, Timestamp, SECONDS_PER_DAY};
use tthr_temporal::LeafEntry;
use tthr_trajectory::{Trajectory, UserId};

const SECONDS_PER_HOUR: i64 = 3600;
const ALL_HOURS: u32 = (1 << 24) - 1;

/// The (user, edge) pairs and counters of one user, as parallel columns
/// (the search reads `edges` alone; a new counter shifts `first_cell` in
/// one vectorised sweep).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct UserCensus {
    /// The edges the user traversed, ascending: one row each.
    edges: Vec<u32>,
    /// Per row, the hours of day that have a counter (bit `h` = hour `h`).
    hours: Vec<u32>,
    /// Per row, the index of its first counter in `cells`.
    first_cell: Vec<u32>,
    /// Row after row, one counter per set bit of the row's `hours`.
    cells: Vec<u8>,
}

/// Per-(user, edge, hour-of-day) traversal counts; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Census {
    /// The users with at least one traversal, ascending.
    users: Vec<u32>,
    /// `per_user[i]` belongs to `users[i]`.
    per_user: Vec<UserCensus>,
}

/// Hour of day of a timestamp, `0..24`.
fn hour_of(t: Timestamp) -> u32 {
    (t.rem_euclid(SECONDS_PER_DAY) / SECONDS_PER_HOUR) as u32
}

/// Mask of the hours of day a periodic window `[start_sod, start_sod +
/// len)` overlaps — midnight wrap and whole-day windows included.
fn hours_overlapping(start_sod: i64, len: i64) -> u32 {
    let first = start_sod / SECONDS_PER_HOUR;
    let last = (start_sod + len - 1) / SECONDS_PER_HOUR;
    if last - first >= 23 {
        return ALL_HOURS;
    }
    (first..=last).fold(0u32, |mask, h| mask | 1 << (h % 24))
}

impl UserCensus {
    /// Index in `cells` of row `at`'s counter for the hour `bit` (where
    /// it is, or where it would be inserted).
    fn cell(&self, at: usize, bit: u32) -> usize {
        self.first_cell[at] as usize + (self.hours[at] & (bit - 1)).count_ones() as usize
    }

    /// Counts one traversal of `edge` entering at `time` and returns its
    /// row. The row is looked for around row `near` — the caller's
    /// previous row — before it is searched for: consecutive edges of a
    /// trajectory tend to have neighbouring ids, hence neighbouring rows.
    fn add(&mut self, edge: u32, time: Timestamp, near: usize) -> usize {
        let bit = 1u32 << hour_of(time);
        let lo = near.saturating_sub(3).min(self.edges.len());
        let hi = (near + 4).min(self.edges.len());
        let found = match self.edges[lo..hi].iter().position(|&e| e == edge) {
            Some(i) => Ok(lo + i),
            None => self.edges.binary_search(&edge),
        };
        let at = found.unwrap_or_else(|at| {
            let first_cell = self
                .first_cell
                .get(at)
                .map_or(self.cells.len() as u32, |&c| c);
            self.edges.insert(at, edge);
            self.hours.insert(at, 0);
            self.first_cell.insert(at, first_cell);
            at
        });
        let cell = self.cell(at, bit);
        if self.hours[at] & bit != 0 {
            self.cells[cell] = self.cells[cell].saturating_add(1);
        } else {
            assert!(self.cells.len() < u32::MAX as usize, "first_cell is a u32");
            self.hours[at] |= bit;
            self.cells.insert(cell, 1);
            for later in &mut self.first_cell[at + 1..] {
                *later += 1;
            }
        }
        at
    }

    /// Traversals of `edge` entering in one of `hours`; `usize::MAX` when
    /// a counter involved is saturated.
    fn count(&self, edge: u32, hours: u32) -> usize {
        let Ok(at) = self.edges.binary_search(&edge) else {
            return 0;
        };
        let mut total = 0usize;
        let mut wanted = self.hours[at] & hours;
        while wanted != 0 {
            let bit = wanted & wanted.wrapping_neg();
            let cell = self.cells[self.cell(at, bit)];
            if cell == u8::MAX {
                return usize::MAX;
            }
            total += cell as usize;
            wanted ^= bit;
        }
        total
    }

    /// Heap footprint as allocated.
    fn size_bytes(&self) -> usize {
        (self.edges.capacity() + self.hours.capacity() + self.first_cell.capacity())
            * std::mem::size_of::<u32>()
            + self.cells.capacity()
    }

    fn shrink_to_fit(&mut self) {
        self.edges.shrink_to_fit();
        self.hours.shrink_to_fit();
        self.first_cell.shrink_to_fit();
        self.cells.shrink_to_fit();
    }
}

impl Census {
    /// Counts every leaf of a batch being sealed: each trajectory's
    /// traversals from the position its leaves start at.
    pub(crate) fn add_trajectories<'a>(
        &mut self,
        trajs: impl IntoIterator<Item = (&'a Trajectory, usize)>,
    ) {
        for (tr, start) in trajs {
            let slot = match self.users.binary_search(&tr.user().0) {
                Ok(slot) => slot,
                Err(slot) => {
                    self.users.insert(slot, tr.user().0);
                    self.per_user.insert(slot, UserCensus::default());
                    slot
                }
            };
            let mut row = 0;
            for entry in &tr.entries()[start..] {
                row = self.per_user[slot].add(entry.edge.0, entry.enter_time, row);
            }
        }
    }

    /// Traversals of `edge` by `user` entering in one of `hours`;
    /// `usize::MAX` when a counter involved is saturated.
    fn count(&self, edge: EdgeId, user: UserId, hours: u32) -> usize {
        match self.users.binary_search(&user.0) {
            Ok(slot) => self.per_user[slot].count(edge.0, hours),
            Err(_) => 0,
        }
    }

    /// Heap footprint as allocated.
    pub(crate) fn size_bytes(&self) -> usize {
        self.users.capacity() * std::mem::size_of::<u32>()
            + self.per_user.capacity() * std::mem::size_of::<UserCensus>()
            + self.per_user.iter().map(|u| u.size_bytes()).sum::<usize>()
    }
}

/// Counts a census from a forest walk — leaves edge by edge, edges
/// ascending — where a leaf names its trajectory, not its user. Every
/// trajectory's user slot is resolved once; an edge's leaves are tallied
/// in a small dense scratch and leave it as one finished row per user,
/// appended to that user's run (no searching, no shifting).
pub(crate) struct LeafCounter {
    census: Census,
    /// `slot_of[traj]` = the trajectory's user's index in `census.users`.
    slot_of: Vec<u32>,
    /// The edge being tallied.
    edge: u32,
    /// `tally_of[slot]` = the user's index in `tallies` for this edge.
    tally_of: Vec<u32>,
    /// Per user seen on this edge: its slot and per-hour counts.
    tallies: Vec<(u32, [u32; 24])>,
}

const NO_TALLY: u32 = u32::MAX;

impl LeafCounter {
    /// A counter for leaves of the trajectories `user_table` covers.
    pub(crate) fn new(user_table: &[UserId]) -> Self {
        let mut users: Vec<u32> = user_table.iter().map(|u| u.0).collect();
        users.sort_unstable();
        users.dedup();
        let slot_of = user_table
            .iter()
            .map(|u| users.binary_search(&u.0).expect("collected above") as u32)
            .collect();
        LeafCounter {
            slot_of,
            edge: 0,
            tally_of: vec![NO_TALLY; users.len()],
            tallies: Vec::new(),
            census: Census {
                per_user: vec![UserCensus::default(); users.len()],
                users,
            },
        }
    }

    /// Counts one leaf of `edge`.
    pub(crate) fn add(&mut self, edge: usize, leaf: &LeafEntry) {
        if edge as u32 != self.edge {
            debug_assert!(edge as u32 > self.edge, "a forest walk ascends");
            self.finish_edge();
            self.edge = edge as u32;
        }
        let slot = self.slot_of[leaf.traj as usize];
        let mut tally = self.tally_of[slot as usize];
        if tally == NO_TALLY {
            tally = self.tallies.len() as u32;
            self.tally_of[slot as usize] = tally;
            self.tallies.push((slot, [0; 24]));
        }
        self.tallies[tally as usize].1[hour_of(leaf.time) as usize] += 1;
    }

    /// Appends the tallied edge's rows to their users' runs.
    fn finish_edge(&mut self) {
        for (slot, counts) in self.tallies.drain(..) {
            self.tally_of[slot as usize] = NO_TALLY;
            let user = &mut self.census.per_user[slot as usize];
            user.edges.push(self.edge);
            user.first_cell
                .push(u32::try_from(user.cells.len()).expect("first_cell is a u32"));
            let mut hours = 0;
            for (hour, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
                hours |= 1 << hour;
                user.cells.push(n.min(u8::MAX as u32) as u8);
            }
            user.hours.push(hours);
        }
    }

    /// The census of the leaves counted, without growth slack and without
    /// users no leaf belonged to (whose trajectories all expired).
    pub(crate) fn finish(mut self) -> Census {
        self.finish_edge();
        let Census { users, per_user } = self.census;
        let (users, per_user) = users
            .into_iter()
            .zip(per_user)
            .filter(|(_, u)| !u.edges.is_empty())
            .map(|(user, mut u)| {
                u.shrink_to_fit();
                (user, u)
            })
            .unzip();
        Census { users, per_user }
    }
}

impl SntIndex {
    /// An upper bound on the traversals matching `spq` under the periodic
    /// `window`, given the per-partition ISA `ranges` of its path;
    /// `usize::MAX` when nothing bounds it (fixed windows are never
    /// consulted). See the module docs for why it can only over-count.
    fn match_bound(&self, spq: &Spq, window: &TimeInterval, ranges: &[IsaRange]) -> usize {
        let TimeInterval::Periodic { start_sod, len } = *window else {
            return usize::MAX;
        };
        let first = spq.path.first();
        let hot = self.hot.lane(first);
        let on_path = ranges.iter().map(|r| r.len()).sum::<usize>() + hot.len();
        match spq.filter {
            Filter::None => on_path,
            Filter::User(user) => {
                let hours = hours_overlapping(start_sod, len);
                let hot_by_user = hot.iter().filter(|leaf| {
                    self.user_table[leaf.traj as usize] == user
                        && hours & 1 << hour_of(leaf.time) != 0
                });
                let sealed = self.census.count(first, user, hours);
                on_path.min(sealed.saturating_add(hot_by_user.count()))
            }
        }
    }

    /// Whether counts alone prove that `spq` under `window` has fewer
    /// matches than a non-empty answer needs (β; one when β is omitted or
    /// zero) — i.e. that Procedure 5 would scan and return `∅`.
    pub(crate) fn provably_short(
        &self,
        spq: &Spq,
        window: &TimeInterval,
        ranges: &[IsaRange],
    ) -> bool {
        self.match_bound(spq, window, ranges) < spq.beta.unwrap_or(1).max(1) as usize
    }

    /// The upper bound on the matches of `spq` within its own (periodic)
    /// window that pruning compares with β, `usize::MAX` when unbounded —
    /// test support: held against a brute-force count.
    #[doc(hidden)]
    pub fn match_upper_bound(&self, spq: &Spq) -> usize {
        self.match_bound(spq, &spq.interval, &self.isa_ranges(&spq.path))
    }

    /// The census counted from scratch: every forest leaf attributed
    /// through the user table. What snapshot restore installs, and what
    /// the incrementally maintained census must always equal.
    pub(crate) fn recount_census(&self) -> Census {
        let mut counter = LeafCounter::new(&self.user_table);
        self.forest
            .for_each_leaf(|edge, leaf| counter.add(edge, leaf));
        counter.finish()
    }

    /// Whether the maintained census equals a from-scratch recount
    /// (test support: the invariant every mutation must preserve).
    #[doc(hidden)]
    pub fn census_is_exact(&self) -> bool {
        self.census == self.recount_census()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_trajectory::{TrajEntry, TrajId};

    /// A trajectory entering `(edge, hour of day)` on consecutive days,
    /// starting before the epoch.
    fn traj(user: u32, entries: &[(u32, i64)]) -> Trajectory {
        let entries = entries
            .iter()
            .enumerate()
            .map(|(day, &(e, hour))| {
                let t = (day as i64 - 2) * SECONDS_PER_DAY + hour * 3600 + 59;
                TrajEntry::new(EdgeId(e), t, 1.0)
            })
            .collect();
        Trajectory::new(TrajId(0), UserId(user), entries).unwrap()
    }

    #[test]
    fn hours_cover_wrap_and_whole_days() {
        assert_eq!(hours_overlapping(8 * 3600, 1800), 1 << 8);
        assert_eq!(hours_overlapping(8 * 3600 + 1800, 1801), 0b11 << 8);
        // 23:50–00:20 wraps midnight.
        assert_eq!(hours_overlapping(23 * 3600 + 3000, 1800), 1 << 23 | 1);
        assert_eq!(hours_overlapping(0, SECONDS_PER_DAY), ALL_HOURS);
        // 23 h 1 s starting mid-hour touches all 24 hours.
        assert_eq!(hours_overlapping(1800, 23 * 3600 + 1), ALL_HOURS);
        assert_eq!(hours_overlapping(0, 23 * 3600), ALL_HOURS & !(1 << 23));
    }

    #[test]
    fn rows_stay_sorted_and_cells_land_in_their_hours() {
        let mut c = Census::default();
        c.add_trajectories(
            [
                traj(7, &[(5, 9), (3, 9), (5, 10)]),
                traj(2, &[(5, 23)]),
                traj(7, &[(5, 1), (5, 9), (9, 9)]),
                traj(7, &[(5, 9)]),
            ]
            .iter()
            .map(|tr| (tr, 0)),
        );
        let on_5 = |user, hours| c.count(EdgeId(5), UserId(user), hours);
        assert_eq!(on_5(7, 1 << 9), 3);
        assert_eq!(on_5(7, 1 << 1), 1);
        assert_eq!(on_5(7, ALL_HOURS), 5);
        assert_eq!(on_5(7, 1 << 11), 0);
        assert_eq!(on_5(2, ALL_HOURS), 1);
        assert_eq!(on_5(4, ALL_HOURS), 0, "absent user");
        assert_eq!(c.count(EdgeId(4), UserId(7), ALL_HOURS), 0, "absent edge");
        assert_eq!(c.users, [2, 7]);
        let user_7 = &c.per_user[1];
        assert_eq!(user_7.edges, [3, 5, 9]);
        assert_eq!(user_7.hours, [1 << 9, 1 << 1 | 1 << 9 | 1 << 10, 1 << 9]);
        assert_eq!(user_7.first_cell, [0, 1, 4]);
        assert_eq!(user_7.cells, [1, 1, 3, 1, 1]);

        // Arrival order does not matter: the encoding is canonical.
        let mut d = Census::default();
        d.add_trajectories(
            [
                traj(7, &[(9, 9), (5, 10), (5, 9), (5, 9)]),
                traj(7, &[(5, 9), (5, 1), (3, 9)]),
                traj(2, &[(5, 23)]),
            ]
            .iter()
            .map(|tr| (tr, 0)),
        );
        assert_eq!(c, d);
    }

    #[test]
    fn saturated_cells_are_unbounded() {
        let mut c = Census::default();
        let one = traj(1, &[(0, 0)]);
        for _ in 0..254 {
            c.add_trajectories([(&one, 0)]);
        }
        assert_eq!(c.count(EdgeId(0), UserId(1), 1), 254);
        for _ in 0..10 {
            c.add_trajectories([(&one, 0)]);
        }
        assert_eq!(c.count(EdgeId(0), UserId(1), 1), usize::MAX);
        assert_eq!(
            c.count(EdgeId(0), UserId(1), 1 << 5),
            0,
            "other hours stay exact"
        );
    }
}
