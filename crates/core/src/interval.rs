//! Temporal predicates: fixed and periodic (time-of-day) intervals.

use std::ops::ControlFlow;
use tthr_network::{Timestamp, SECONDS_PER_DAY};

/// The temporal predicate `I` of a strict path query (paper, Section 2.3).
///
/// Either a fixed interval `[ts, te)` over absolute time, or a periodic
/// time-of-day interval `I^R` that repeats every 24 hours (e.g., "8:00–8:30
/// on every day"). Periodic windows may wrap around midnight.
///
/// ```
/// use tthr_core::TimeInterval;
///
/// // 8:00–8:30 on every day.
/// let rush = TimeInterval::periodic(8 * 3600, 1800);
/// assert!(rush.contains(8 * 3600 + 60));           // day 0, 8:01
/// assert!(rush.contains(5 * 86_400 + 8 * 3600));   // day 5, 8:00
/// assert!(!rush.contains(12 * 3600));              // noon
///
/// // σ widens it symmetrically to the next size in A.
/// assert_eq!(rush.widen(3600).size(), 3600);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeInterval {
    /// `[start, end)` in absolute seconds.
    Fixed {
        /// Inclusive start.
        start: Timestamp,
        /// Exclusive end.
        end: Timestamp,
    },
    /// A daily-repeating window of `len` seconds starting at second-of-day
    /// `start_sod` (wraps past midnight when `start_sod + len > 86400`).
    Periodic {
        /// Window start as a second-of-day in `[0, 86400)`.
        start_sod: i64,
        /// Window length in seconds, `0 < len ≤ 86400`.
        len: i64,
    },
}

impl TimeInterval {
    /// A fixed interval `[start, end)`.
    pub fn fixed(start: Timestamp, end: Timestamp) -> Self {
        assert!(start < end, "empty fixed interval");
        TimeInterval::Fixed { start, end }
    }

    /// A periodic window of `size` seconds centered on the time-of-day of
    /// `center` — the query template `[t₀ − α/2, t₀ + α/2)^R` of
    /// Section 5.2.
    pub fn periodic_around(center: Timestamp, size: i64) -> Self {
        assert!(size > 0, "window size must be positive");
        let size = size.min(SECONDS_PER_DAY);
        let start_sod = (center - size / 2).rem_euclid(SECONDS_PER_DAY);
        TimeInterval::Periodic {
            start_sod,
            len: size,
        }
    }

    /// A periodic window given directly by start second-of-day and length.
    pub fn periodic(start_sod: i64, len: i64) -> Self {
        assert!(len > 0, "window size must be positive");
        TimeInterval::Periodic {
            start_sod: start_sod.rem_euclid(SECONDS_PER_DAY),
            len: len.min(SECONDS_PER_DAY),
        }
    }

    /// `isPeriodic(I)` (Procedure 5, line 7).
    pub fn is_periodic(&self) -> bool {
        matches!(self, TimeInterval::Periodic { .. })
    }

    /// Interval size `α = te − ts` (window length for periodic intervals).
    pub fn size(&self) -> i64 {
        match *self {
            TimeInterval::Fixed { start, end } => end - start,
            TimeInterval::Periodic { len, .. } => len,
        }
    }

    /// `widen(I^R, α')`: grows the window to `α'` seconds, extending both
    /// sides by `(α' − α)/2` (Procedure 1, line 3).
    pub fn widen(&self, new_size: i64) -> Self {
        match *self {
            TimeInterval::Fixed { start, end } => {
                let grow = (new_size - (end - start)).max(0) / 2;
                TimeInterval::Fixed {
                    start: start - grow,
                    end: end + grow,
                }
            }
            TimeInterval::Periodic { start_sod, len } => {
                let new_len = new_size.min(SECONDS_PER_DAY);
                let grow = (new_len - len).max(0) / 2;
                TimeInterval::Periodic {
                    start_sod: (start_sod - grow).rem_euclid(SECONDS_PER_DAY),
                    len: new_len,
                }
            }
        }
    }

    /// `shrink(I^R, α_min)`: shrinks the window back to `α_min` seconds
    /// around its center (Procedure 1, line 7, applied after a path split).
    pub(crate) fn shrink(&self, new_size: i64) -> Self {
        match *self {
            TimeInterval::Fixed { start, end } => {
                let shrink = ((end - start) - new_size).max(0) / 2;
                TimeInterval::Fixed {
                    start: start + shrink,
                    end: end - shrink,
                }
            }
            TimeInterval::Periodic { start_sod, len } => {
                let new_len = new_size.min(len);
                let shrink = (len - new_len) / 2;
                TimeInterval::Periodic {
                    start_sod: (start_sod + shrink).rem_euclid(SECONDS_PER_DAY),
                    len: new_len,
                }
            }
        }
    }

    /// The shift-and-enlarge adaptation for the `i`-th sub-query of a trip
    /// (Procedure 6, line 4, after Dai et al.): the window is shifted by the
    /// sum `S` of the minimum travel times of all previous sub-paths and
    /// enlarged by the sum `R` of their ranges, becoming
    /// `[ts + S, te + S + R)^R`.
    pub fn shift_and_enlarge(&self, shift: f64, enlarge: f64) -> Self {
        let s = shift.round() as i64;
        let r = enlarge.round().max(0.0) as i64;
        match *self {
            TimeInterval::Fixed { start, end } => TimeInterval::Fixed {
                start: start + s,
                end: end + s + r,
            },
            TimeInterval::Periodic { start_sod, len } => TimeInterval::Periodic {
                start_sod: (start_sod + s).rem_euclid(SECONDS_PER_DAY),
                len: (len + r).min(SECONDS_PER_DAY),
            },
        }
    }

    /// Whether `inner` is a periodic window lying entirely inside this
    /// periodic window on every day (fixed intervals never nest — σ only
    /// widens periodic ones).
    pub(crate) fn encloses(&self, inner: &TimeInterval) -> bool {
        match (*self, *inner) {
            (
                TimeInterval::Periodic { start_sod, len },
                TimeInterval::Periodic {
                    start_sod: inner_sod,
                    len: inner_len,
                },
            ) => (inner_sod - start_sod).rem_euclid(SECONDS_PER_DAY) + inner_len <= len,
            _ => false,
        }
    }

    /// Whether `levels` is a well-formed relaxation ladder (see
    /// [`Splitter::ladder`](crate::Splitter::ladder)): non-empty, every
    /// level strictly longer than its predecessor and enclosing it. A
    /// single level of any kind is a ladder; longer ones are periodic
    /// throughout. Nesting makes each level's match set a superset of the
    /// previous one's, which is what lets an index answer the whole
    /// sequence in one pass.
    pub fn is_ladder(levels: &[TimeInterval]) -> bool {
        !levels.is_empty()
            && levels
                .windows(2)
                .all(|w| w[1].size() > w[0].size() && w[1].encloses(&w[0]))
    }

    /// Whether a timestamp satisfies the predicate.
    pub fn contains(&self, t: Timestamp) -> bool {
        match *self {
            TimeInterval::Fixed { start, end } => start <= t && t < end,
            TimeInterval::Periodic { start_sod, len } => {
                let offset = (t - start_sod).rem_euclid(SECONDS_PER_DAY);
                offset < len
            }
        }
    }

    /// The window as a time-of-day span `(start_sod, end_sod_exclusive)` for
    /// selectivity estimation; `None` for fixed intervals.
    pub(crate) fn time_of_day_span(&self) -> Option<(i64, i64)> {
        match *self {
            TimeInterval::Fixed { .. } => None,
            TimeInterval::Periodic { start_sod, len } => Some((start_sod, start_sod + len)),
        }
    }

    /// Visits the concrete absolute-time windows of this predicate that
    /// intersect `[data_min, data_max]`, in ascending order, until the
    /// callback breaks. A fixed interval yields one window; a periodic one
    /// yields one window per day.
    pub(crate) fn for_each_window(
        &self,
        data_min: Timestamp,
        data_max: Timestamp,
        f: &mut dyn FnMut(Timestamp, Timestamp) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if data_min > data_max {
            return ControlFlow::Continue(());
        }
        match *self {
            TimeInterval::Fixed { start, end } => {
                if end <= data_min || start > data_max {
                    ControlFlow::Continue(())
                } else {
                    f(start, end)
                }
            }
            TimeInterval::Periodic { start_sod, len } => {
                // First daily window whose end could reach data_min.
                let mut day = (data_min - start_sod - len).div_euclid(SECONDS_PER_DAY);
                loop {
                    let lo = day * SECONDS_PER_DAY + start_sod;
                    if lo > data_max {
                        return ControlFlow::Continue(());
                    }
                    let hi = lo + len;
                    if hi > data_min {
                        f(lo, hi)?;
                    }
                    day += 1;
                }
            }
        }
    }

    /// Collects the concrete windows (convenience for tests).
    #[cfg(test)]
    pub(crate) fn windows(
        &self,
        data_min: Timestamp,
        data_max: Timestamp,
    ) -> Vec<(Timestamp, Timestamp)> {
        let mut out = Vec::new();
        let _ = self.for_each_window(data_min, data_max, &mut |lo, hi| {
            out.push((lo, hi));
            ControlFlow::Continue(())
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const DAY: i64 = SECONDS_PER_DAY;

    #[test]
    fn fixed_interval_contains() {
        let i = TimeInterval::fixed(10, 20);
        assert!(i.contains(10));
        assert!(i.contains(19));
        assert!(!i.contains(20));
        assert!(!i.contains(9));
        assert_eq!(i.size(), 10);
        assert!(!i.is_periodic());
    }

    #[test]
    fn periodic_contains_repeats_daily() {
        // 8:00–8:30 every day.
        let i = TimeInterval::periodic(8 * 3600, 1800);
        assert!(i.contains(8 * 3600));
        assert!(i.contains(8 * 3600 + 1799));
        assert!(!i.contains(8 * 3600 + 1800));
        assert!(i.contains(DAY * 5 + 8 * 3600 + 100));
        assert!(i.contains(-DAY + 8 * 3600 + 100), "days before the epoch");
    }

    #[test]
    fn periodic_wraps_midnight() {
        // 23:50–00:20.
        let i = TimeInterval::periodic(23 * 3600 + 50 * 60, 1800);
        assert!(i.contains(23 * 3600 + 55 * 60));
        assert!(i.contains(DAY + 10 * 60));
        assert!(!i.contains(30 * 60));
    }

    #[test]
    fn periodic_around_centers_window() {
        // Centered at 08:00 with 30 min size → 07:45–08:15.
        let i = TimeInterval::periodic_around(DAY * 3 + 8 * 3600, 1800);
        assert_eq!(
            i,
            TimeInterval::Periodic {
                start_sod: 7 * 3600 + 45 * 60,
                len: 1800
            }
        );
    }

    #[test]
    fn widen_extends_both_sides() {
        let i = TimeInterval::periodic(8 * 3600, 1800);
        let w = i.widen(3600);
        assert_eq!(
            w,
            TimeInterval::Periodic {
                start_sod: 8 * 3600 - 900,
                len: 3600
            }
        );
        // Widening is capped at a full day.
        assert_eq!(i.widen(2 * DAY).size(), DAY);
    }

    #[test]
    fn shrink_recenters() {
        let i = TimeInterval::periodic(8 * 3600 - 900, 3600);
        assert_eq!(i.shrink(1800), TimeInterval::periodic(8 * 3600, 1800));
        // Shrinking an already-small window is a no-op.
        let s = TimeInterval::periodic(3600, 900);
        assert_eq!(s.shrink(1800), s);
    }

    #[test]
    fn widen_then_shrink_roundtrips() {
        let i = TimeInterval::periodic(10 * 3600, 900);
        assert_eq!(i.widen(2700).shrink(900), i);
    }

    #[test]
    fn widened_windows_enclose_their_origin_across_midnight() {
        // 23:55 + 901 s wraps; odd growth rounds down on the left.
        let i = TimeInterval::periodic(23 * 3600 + 55 * 60, 901);
        let w = i.widen(1800);
        assert!(w.encloses(&i));
        assert!(!i.encloses(&w));
        assert!(TimeInterval::is_ladder(&[i, w, w.widen(2700)]));
        assert!(!TimeInterval::is_ladder(&[w, i]), "must ascend");
        assert!(!TimeInterval::is_ladder(&[]));
        // A shifted window of the right length does not nest.
        assert!(!TimeInterval::is_ladder(&[
            i,
            TimeInterval::periodic(12 * 3600, 1800)
        ]));
        // Fixed intervals are single-level ladders only.
        let f = TimeInterval::fixed(0, 10);
        assert!(TimeInterval::is_ladder(&[f]));
        assert!(!TimeInterval::is_ladder(&[f, TimeInterval::fixed(-5, 15)]));
    }

    #[test]
    fn shift_and_enlarge_moves_window() {
        let i = TimeInterval::periodic(8 * 3600, 1800);
        // Previous sub-paths: min sum 600 s, range sum 120 s.
        let a = i.shift_and_enlarge(600.0, 120.0);
        assert_eq!(
            a,
            TimeInterval::Periodic {
                start_sod: 8 * 3600 + 600,
                len: 1920
            }
        );
    }

    #[test]
    fn fixed_windows_single() {
        let i = TimeInterval::fixed(100, 200);
        assert_eq!(i.windows(0, 1000), vec![(100, 200)]);
        assert_eq!(i.windows(150, 1000), vec![(100, 200)]);
        assert!(i.windows(200, 1000).is_empty());
        assert!(i.windows(0, 99).is_empty());
    }

    #[test]
    fn periodic_windows_one_per_day() {
        let i = TimeInterval::periodic(8 * 3600, 1800);
        let w = i.windows(0, 3 * DAY - 1);
        assert_eq!(
            w,
            vec![
                (8 * 3600, 8 * 3600 + 1800),
                (DAY + 8 * 3600, DAY + 8 * 3600 + 1800),
                (2 * DAY + 8 * 3600, 2 * DAY + 8 * 3600 + 1800),
            ]
        );
    }

    #[test]
    fn periodic_windows_clip_to_data_span() {
        let i = TimeInterval::periodic(8 * 3600, 1800);
        // Data span inside a single morning window.
        let w = i.windows(8 * 3600 + 100, 8 * 3600 + 200);
        assert_eq!(w, vec![(8 * 3600, 8 * 3600 + 1800)]);
    }

    #[test]
    fn window_iteration_breaks_early() {
        let i = TimeInterval::periodic(0, 600);
        let mut seen = 0;
        let _ = i.for_each_window(0, 100 * DAY, &mut |_, _| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn windows_contain_exactly_the_member_timestamps() {
        let i = TimeInterval::periodic(23 * 3600 + 50 * 60, 1800);
        for t in (0..3 * DAY).step_by(601) {
            let in_windows = i
                .windows(0, 3 * DAY)
                .iter()
                .any(|&(lo, hi)| lo <= t && t < hi);
            assert_eq!(in_windows, i.contains(t), "t = {t}");
        }
    }
}
