//! The greedy sub-query relaxation function σ (Procedure 1, Section 3.3).
//!
//! When a sub-query misses its cardinality requirement, σ relaxes it one
//! step at a time: first the periodic window is widened through the size
//! list `A = ⟨α₁, …, α_n⟩`; once exhausted, the path is split in two (σ_R
//! halves it, σ_L keeps the longest prefix that still meets β); for single
//! segments the non-temporal filter is dropped; and as a final fallback all
//! temporal predicates and β are dropped (a fixed `[0, t_max)` query, which
//! Procedure 5 answers with at least the speed-limit estimate).

use crate::engine::IndexBackend;
use crate::interval::TimeInterval;
use crate::snt::SearchScratch;
use crate::spq::{Filter, Spq};

/// Path-splitting strategy inside σ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SplitMethod {
    /// σ_R — cut the path in half.
    #[default]
    Regular,
    /// σ_L — keep the longest prefix whose trajectory count still meets β
    /// (found by binary search over counting queries; this extra index work
    /// is why the paper measures σ_L as both slower *and* less accurate).
    LongestPrefix,
}

impl SplitMethod {
    /// Display name matching the paper's notation.
    pub fn name(&self) -> &'static str {
        match self {
            SplitMethod::Regular => "sigma_R",
            SplitMethod::LongestPrefix => "sigma_L",
        }
    }
}

/// The σ function: configuration plus the interval-size list `A`.
#[derive(Clone, Debug)]
pub struct Splitter {
    method: SplitMethod,
    /// Ascending interval sizes `⟨α₁, …, α_n⟩` in seconds.
    sizes: Vec<i64>,
}

impl Splitter {
    /// Creates a splitter.
    ///
    /// # Panics
    /// Panics if `sizes` is empty or not strictly ascending.
    pub fn new(method: SplitMethod, sizes: Vec<i64>) -> Self {
        assert!(!sizes.is_empty(), "the size list A must not be empty");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "A must be strictly ascending"
        );
        Splitter { method, sizes }
    }

    /// The minimum interval size `α_min = α₁`.
    pub(crate) fn alpha_min(&self) -> i64 {
        self.sizes[0]
    }

    /// σ's step 1 on a bare window: the next size in `A` above a periodic
    /// window's length, applied with [`TimeInterval::widen`]; `None` once
    /// the window is fixed or has reached `α_max`.
    fn widened(&self, interval: &TimeInterval) -> Option<TimeInterval> {
        if !interval.is_periodic() {
            return None;
        }
        let alpha = interval.size();
        let next = self.sizes.iter().copied().find(|&a| a > alpha)?;
        let wider = interval.widen(next);
        // `widen` caps at a full day: a capped no-op is not a widening.
        (wider.size() > alpha).then_some(wider)
    }

    /// The relaxation ladder of a window: `interval` itself followed by
    /// every window successive widening steps of σ would derive from it,
    /// in order — the exact sequence, including off-list start lengths
    /// (shift-and-enlarge) and the integer rounding of chained
    /// [`TimeInterval::widen`]s. A fixed or already-widest window is a
    /// ladder of one level. The engine dispatches whole ladders; σ's own
    /// widening step draws from the same sequence.
    pub fn ladder(&self, interval: TimeInterval) -> Vec<TimeInterval> {
        let mut levels = vec![interval];
        while let Some(wider) = self.widened(levels.last().expect("non-empty")) {
            levels.push(wider);
        }
        levels
    }

    /// [`Splitter::split_with`] with a fresh scratch (the tests' entry
    /// point).
    #[cfg(test)]
    pub(crate) fn split<B: IndexBackend>(&self, index: &B, spq: &Spq) -> Vec<Spq> {
        self.split_with(index, spq, &mut SearchScratch::new())
    }

    /// Applies σ once (Procedure 1), returning the replacement
    /// sub-queries. The caller owns the [`SearchScratch`], so σ_L's prefix
    /// binary search reuses the chain's search buffers.
    pub(crate) fn split_with<B: IndexBackend>(
        &self,
        index: &B,
        spq: &Spq,
        scratch: &mut SearchScratch,
    ) -> Vec<Spq> {
        // Step 1: widen the periodic window to the next size in A.
        if let Some(wider) = self.widened(&spq.interval) {
            return vec![spq.with_interval(wider)];
        }

        // Step 2: split the path, resetting periodic windows to α_min.
        if spq.path.len() > 1 {
            let interval = if spq.interval.is_periodic() {
                spq.interval.shrink(self.alpha_min())
            } else {
                spq.interval
            };
            let m = match self.method {
                SplitMethod::Regular => spq.path.len() / 2,
                SplitMethod::LongestPrefix => {
                    self.longest_prefix(index, &spq.with_interval(interval), scratch)
                }
            };
            let (p1, p2) = spq.path.split_at(m);
            return vec![
                spq.with_path(p1).with_interval(interval),
                spq.with_path(p2).with_interval(interval),
            ];
        }

        // Step 3: drop the non-temporal filter.
        if !spq.filter.is_empty() {
            let mut relaxed = spq.clone();
            relaxed.filter = Filter::None;
            return vec![relaxed];
        }

        // Step 4: final fallback — all temporal predicates and β dropped.
        let mut fallback = spq.with_interval(index.full_interval());
        fallback.beta = None;
        vec![fallback]
    }

    /// σ_L's prefix length: the largest `m ∈ [1, l)` with
    /// `|T^{P[0,m)}| ≥ β`. Trajectory counts are monotonically
    /// non-increasing in the prefix length, so a binary search over
    /// counting queries suffices.
    fn longest_prefix<B: IndexBackend>(
        &self,
        index: &B,
        spq: &Spq,
        scratch: &mut SearchScratch,
    ) -> usize {
        let beta = spq.beta_cap();
        let mut meets = |m: usize| -> bool {
            let prefix = spq.with_path(spq.path.sub_path(0..m));
            index.count_matching_with(&prefix, beta, scratch) >= beta as usize
        };
        let (mut lo, mut hi) = (1usize, spq.path.len() - 1);
        if !meets(lo) {
            return 1;
        }
        // Invariant: meets(lo) is true; hi+1 is false or untested.
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::TimeInterval;
    use crate::snt::{SntConfig, SntIndex};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_C, EDGE_D, EDGE_E};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::UserId;

    fn index() -> SntIndex {
        SntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
        )
    }

    fn splitter(method: SplitMethod) -> Splitter {
        Splitter::new(method, vec![900, 1800, 2700, 3600, 5400, 7200])
    }

    #[test]
    fn widen_is_the_first_resort() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_C]),
            TimeInterval::periodic(8 * 3600, 900),
        )
        .with_beta(5);
        let out = s.split(&idx, &q);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].interval.size(),
            1800,
            "widened to the next size in A"
        );
        assert_eq!(out[0].path, q.path, "path untouched while widening");
    }

    #[test]
    fn widening_steps_through_the_whole_list() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        let mut q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_C]),
            TimeInterval::periodic(8 * 3600, 900),
        )
        .with_beta(5);
        let mut sizes = vec![];
        for _ in 0..5 {
            q = s.split(&idx, &q).pop().expect("widening returns one query");
            sizes.push(q.interval.size());
        }
        assert_eq!(sizes, vec![1800, 2700, 3600, 5400, 7200]);
    }

    #[test]
    fn ladder_is_the_sequence_repeated_widening_walks() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        // Off-list odd start length wrapping midnight: every rounding of
        // the chained widens must match σ applied step by step.
        for start in [
            TimeInterval::periodic(8 * 3600, 900),
            TimeInterval::periodic(23 * 3600 + 50 * 60, 900 + 37),
            TimeInterval::periodic(100, 3601),
            TimeInterval::periodic(0, 7200),
            TimeInterval::periodic(0, 9000),
            TimeInterval::fixed(0, 100),
        ] {
            let levels = s.ladder(start);
            assert!(TimeInterval::is_ladder(&levels), "{levels:?}");
            let mut q = Spq::new(Path::new(vec![EDGE_A]), start).with_beta(5);
            let mut walked = vec![q.interval];
            loop {
                let out = s.split(&idx, &q);
                let widening = out.len() == 1
                    && out[0].interval.is_periodic()
                    && out[0].interval.size() > q.interval.size();
                if !widening {
                    break;
                }
                q = out.into_iter().next().expect("one");
                walked.push(q.interval);
            }
            assert_eq!(levels, walked, "start {start:?}");
        }
    }

    #[test]
    fn regular_split_halves_after_widening_exhausted() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_C, EDGE_D, EDGE_E]),
            TimeInterval::periodic(8 * 3600, 7200), // already at α_max
        )
        .with_beta(5);
        let out = s.split(&idx, &q);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].path, Path::new(vec![EDGE_A, EDGE_C]));
        assert_eq!(out[1].path, Path::new(vec![EDGE_D, EDGE_E]));
        // Windows reset to α_min.
        assert_eq!(out[0].interval.size(), 900);
        assert_eq!(out[1].interval.size(), 900);
    }

    #[test]
    fn filter_dropped_for_single_segment() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        let q = Spq::new(
            Path::new(vec![EDGE_A]),
            TimeInterval::periodic(8 * 3600, 7200),
        )
        .with_beta(5)
        .with_user(UserId(1));
        let out = s.split(&idx, &q);
        assert_eq!(out.len(), 1);
        assert!(out[0].filter.is_empty());
        assert_eq!(out[0].interval, q.interval, "interval kept when dropping f");
    }

    #[test]
    fn final_fallback_drops_everything_temporal() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        let q = Spq::new(
            Path::new(vec![EDGE_A]),
            TimeInterval::periodic(8 * 3600, 7200),
        )
        .with_beta(5);
        let out = s.split(&idx, &q);
        assert_eq!(out.len(), 1);
        assert!(!out[0].interval.is_periodic());
        assert_eq!(out[0].beta, None);
    }

    #[test]
    fn fixed_interval_queries_skip_widening() {
        let idx = index();
        let s = splitter(SplitMethod::Regular);
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 100),
        )
        .with_beta(50);
        let out = s.split(&idx, &q);
        assert_eq!(out.len(), 2, "fixed intervals go straight to path splits");
        assert_eq!(out[0].interval, q.interval);
    }

    #[test]
    fn longest_prefix_uses_counting_queries() {
        let idx = index();
        let s = splitter(SplitMethod::LongestPrefix);
        // ⟨A,B,E⟩: ⟨A⟩ matches 4 traversals, ⟨A,B⟩ 3, ⟨A,B,E⟩ 2 in [0,15).
        // With β = 3 the longest prefix meeting β is ⟨A,B⟩ (m = 2).
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        )
        .with_beta(3);
        let out = s.split(&idx, &q);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].path, Path::new(vec![EDGE_A, EDGE_B]));
        assert_eq!(out[1].path, Path::new(vec![EDGE_E]));
    }

    #[test]
    fn longest_prefix_degrades_to_one_segment() {
        let idx = index();
        let s = splitter(SplitMethod::LongestPrefix);
        // β = 50 is unreachable even for ⟨A⟩ → m = 1.
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        )
        .with_beta(50);
        let out = s.split(&idx, &q);
        assert_eq!(out[0].path, Path::new(vec![EDGE_A]));
    }

    #[test]
    fn sigma_always_terminates() {
        // Repeatedly applying σ from any starting query reaches the fixed
        // fallback in bounded steps.
        let idx = index();
        for method in [SplitMethod::Regular, SplitMethod::LongestPrefix] {
            let s = splitter(method);
            let mut queue = vec![Spq::new(
                Path::new(vec![EDGE_A, EDGE_C, EDGE_D, EDGE_E]),
                TimeInterval::periodic(0, 900),
            )
            .with_beta(1000)
            .with_user(UserId(1))];
            let mut steps = 0;
            while let Some(q) = queue.pop() {
                // Terminal state: fixed full interval without β.
                if !q.interval.is_periodic() && q.beta.is_none() {
                    continue;
                }
                steps += 1;
                assert!(steps < 200, "{method:?} must terminate");
                queue.extend(s.split(&idx, &q));
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn size_list_must_ascend() {
        let _ = Splitter::new(SplitMethod::Regular, vec![900, 900]);
    }
}
