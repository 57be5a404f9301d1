//! Cardinality estimation for strict path queries (Section 4.4).
//!
//! The estimator predicts the size of a sub-query's result set so the
//! engine can relax hopeless sub-queries without paying for a temporal
//! index scan. All modes start from the exact traversal count
//! `c_P = ed − st` read off the ISA range, then scale it by selectivity
//! factors:
//!
//! `β̂ = sel_tod · sel_tf · sel_u · c_P`
//!
//! * `sel_tod` — time-of-day selectivity of a periodic window: uniform
//!   `α / 24 h` in the `*-Fast` modes (formula 1), or the per-segment
//!   time-of-day histogram ratio in the `*-Acc` modes (formula 2);
//! * `sel_tf` — time-frame selectivity of a fixed interval: the naive
//!   span ratio over `[F[e₀]_min, F[e₀]_max]` in the `BT-*` modes
//!   (formula 3), or the exact logarithmic-time range count in the `CSS-*`
//!   modes;
//! * `sel_u` — the System-R default of `1/10` for a user predicate
//!   (Selinger et al.).

use crate::interval::TimeInterval;
use crate::snt::SntIndex;
use crate::spq::Spq;
use tthr_network::SECONDS_PER_DAY;

/// The five estimator modes of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CardinalityMode {
    /// Only the ISA-range size `c_P`.
    Isa,
    /// Uniform time-of-day + naive time-frame selectivity.
    BtFast,
    /// Histogram time-of-day + naive time-frame selectivity.
    BtAcc,
    /// Uniform time-of-day + exact CSS-tree time-frame count.
    CssFast,
    /// Histogram time-of-day + exact CSS-tree time-frame count.
    CssAcc,
}

impl CardinalityMode {
    /// All modes, in the paper's Figure 11a order.
    pub const ALL: [CardinalityMode; 5] = [
        CardinalityMode::Isa,
        CardinalityMode::BtFast,
        CardinalityMode::CssFast,
        CardinalityMode::BtAcc,
        CardinalityMode::CssAcc,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            CardinalityMode::Isa => "ISA",
            CardinalityMode::BtFast => "BT-Fast",
            CardinalityMode::BtAcc => "BT-Acc",
            CardinalityMode::CssFast => "CSS-Fast",
            CardinalityMode::CssAcc => "CSS-Acc",
        }
    }

    /// Whether the mode uses the time-of-day histogram store.
    pub(crate) fn uses_tod_histograms(&self) -> bool {
        matches!(self, CardinalityMode::BtAcc | CardinalityMode::CssAcc)
    }

    /// Whether the mode reads exact range counts from the CSS-tree.
    pub(crate) fn uses_css_counts(&self) -> bool {
        matches!(self, CardinalityMode::CssFast | CardinalityMode::CssAcc)
    }
}

/// The System-R default selectivity for an equality predicate on an
/// unindexed attribute (Selinger et al., 1979).
const SEL_USER_DEFAULT: f64 = 0.1;

/// Estimates the cardinality `β̂` of an SPQ's result set (`card(Q)`).
///
/// Hot-tail parity: every pending hot batch contributes as the partition
/// it will become — its path count stands in for the sealed ISA range and
/// its admission-time ToD row for the sealed histogram — so estimates are
/// byte-identical before and after a compaction (see the `hot` module's
/// equivalence-invariant notes).
pub fn estimate_cardinality(index: &SntIndex, spq: &Spq, mode: CardinalityMode) -> f64 {
    let ranges = index.isa_ranges(&spq.path);
    let hot_counts: Vec<usize> = index
        .hot_batches()
        .iter()
        .map(|b| b.count_path(&spq.path))
        .collect();
    let c_p: usize =
        ranges.iter().map(|r| r.len()).sum::<usize>() + hot_counts.iter().sum::<usize>();
    if mode == CardinalityMode::Isa {
        return c_p as f64;
    }
    if c_p == 0 {
        return 0.0;
    }

    let sel_u = if spq.filter.is_empty() {
        1.0
    } else {
        SEL_USER_DEFAULT
    };
    let first = spq.path.first();

    match spq.interval {
        TimeInterval::Periodic { .. } => {
            let (sod_start, sod_end) = spq
                .interval
                .time_of_day_span()
                .expect("periodic interval has a time-of-day span");
            if mode.uses_tod_histograms() && index.tod_bucket_secs().is_some() {
                // Formula 2, applied per partition: each partition's ISA
                // count scaled by its own segment histogram.
                let mut est = 0.0;
                for (w, range) in ranges.iter().enumerate() {
                    if range.is_empty() {
                        continue;
                    }
                    let sel = index
                        .tod_histogram(w, first)
                        .map(|h| h.selectivity(sod_start, sod_end))
                        .unwrap_or(0.0);
                    est += range.len() as f64 * sel;
                }
                // Pending hot batches, in absorb order — the partitions the
                // seal will append after the cold ones.
                for (b, &count) in index.hot_batches().iter().zip(&hot_counts) {
                    if count == 0 {
                        continue;
                    }
                    let sel = b
                        .tod_hist(first)
                        .map(|h| h.selectivity(sod_start, sod_end))
                        .unwrap_or(0.0);
                    est += count as f64 * sel;
                }
                est * sel_u
            } else {
                // Formula 1: uniform time-of-day.
                let sel_tod = spq.interval.size() as f64 / SECONDS_PER_DAY as f64;
                c_p as f64 * sel_tod * sel_u
            }
        }
        TimeInterval::Fixed { start, end } => {
            // Merged tree statistics: length, range count, and key bounds
            // as a monolithic tree over cold + hot data would report them.
            let len = index.merged_edge_len(first);
            let sel_tf = if len == 0 {
                0.0
            } else if mode.uses_css_counts() {
                // Exact count in logarithmic time via the CSS directory
                // (falls back to the tree's native count for B+-forests).
                index.merged_range_count(first, start, end) as f64 / len as f64
            } else {
                // Formula 3: naive span ratio.
                let (min, max) = index.edge_bounds(first).expect("non-empty");
                let span = (max - min).max(1) as f64;
                (((end.min(max + 1) - start.max(min)).max(0)) as f64 / span).min(1.0)
            };
            c_p as f64 * sel_tf * sel_u
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snt::SntConfig;
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::UserId;

    fn index() -> SntIndex {
        SntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig {
                tod_bucket_secs: Some(60),
                ..SntConfig::default()
            },
        )
    }

    #[test]
    fn isa_mode_returns_traversal_count() {
        let idx = index();
        // ⟨A⟩ is traversed 4 times, ⟨A,B⟩ 3 times.
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::periodic(0, 900));
        assert_eq!(estimate_cardinality(&idx, &q, CardinalityMode::Isa), 4.0);
        let q2 = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B]),
            TimeInterval::periodic(0, 900),
        );
        assert_eq!(estimate_cardinality(&idx, &q2, CardinalityMode::Isa), 3.0);
    }

    #[test]
    fn fast_mode_scales_by_window_fraction() {
        let idx = index();
        // A 1-hour periodic window: sel_tod = 1/24.
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::periodic(0, 3600));
        let est = estimate_cardinality(&idx, &q, CardinalityMode::BtFast);
        assert!((est - 4.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn user_filter_applies_selinger_default() {
        let idx = index();
        let q =
            Spq::new(Path::new(vec![EDGE_A]), TimeInterval::periodic(0, 3600)).with_user(UserId(1));
        let est = estimate_cardinality(&idx, &q, CardinalityMode::BtFast);
        assert!((est - 4.0 / 24.0 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn acc_mode_uses_tod_histograms() {
        let idx = index();
        // All four example traversals of A happen in the first minute of the
        // day, so an accurate estimator gives the full count for a window
        // covering it and zero for a disjoint window.
        let hit = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::periodic(0, 900));
        let est = estimate_cardinality(&idx, &hit, CardinalityMode::CssAcc);
        assert!((est - 4.0).abs() < 1e-12, "est = {est}");
        let miss = Spq::new(
            Path::new(vec![EDGE_A]),
            TimeInterval::periodic(12 * 3600, 900),
        );
        assert_eq!(
            estimate_cardinality(&idx, &miss, CardinalityMode::CssAcc),
            0.0
        );
        // The fast mode cannot tell the two windows apart.
        assert_eq!(
            estimate_cardinality(&idx, &hit, CardinalityMode::CssFast),
            estimate_cardinality(&idx, &miss, CardinalityMode::CssFast),
        );
    }

    #[test]
    fn fixed_interval_css_count_is_exact() {
        let idx = index();
        // Traversals of A enter at t = 0, 2, 4, 6.
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 5));
        let est = estimate_cardinality(&idx, &q, CardinalityMode::CssFast);
        // Exact count 3 of 4 entries in [0, 5).
        assert!((est - 4.0 * 3.0 / 4.0).abs() < 1e-12);
        // The naive formula uses the span ratio instead: span = 6, overlap
        // = 5 → 5/6.
        let naive = estimate_cardinality(&idx, &q, CardinalityMode::BtFast);
        assert!((naive - 4.0 * 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_path_estimates_zero() {
        let idx = index();
        // ⟨B,A⟩ never occurs.
        let q = Spq::new(
            Path::new(vec![EDGE_B, EDGE_A]),
            TimeInterval::periodic(0, 900),
        );
        for mode in CardinalityMode::ALL {
            assert_eq!(estimate_cardinality(&idx, &q, mode), 0.0, "{mode:?}");
        }
    }
}
