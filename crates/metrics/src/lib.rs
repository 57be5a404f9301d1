//! The paper's evaluation metrics (Section 5.3).
//!
//! * [`smape`] — symmetric mean absolute percentage error of the summed
//!   sub-query means against the true trip duration.
//! * [`weighted_error`] — per-sub-query error weighted by the sub-path's
//!   share of the trip length.
//! * [`log_likelihood`] — average log-likelihood of the true durations under
//!   the smoothed result-histogram densities.
//! * [`q_error`] — order-of-magnitude factor between estimated and actual
//!   cardinalities (Moerkotte et al.), with the max(·,1) clamping of
//!   Stefanoni et al. for empty sets.
//! * [`LogHistogram`] — an HDR-style log-bucketed aggregating histogram
//!   for service latency summaries: bounded memory regardless of sample
//!   count, ≤ 1.6 % relative quantile error.
//! * [`MetricsRegistry`] — a dependency-free labeled metrics registry
//!   with Prometheus text exposition and a strict format validator
//!   ([`validate_exposition`]), built on [`LogHistogram`] for histogram
//!   series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;

pub use registry::{validate_exposition, Counter, Gauge, HistogramHandle, MetricsRegistry};

use tthr_histogram::{Histogram, SmoothedPdf};

/// Sub-bucket precision bits of [`LogHistogram`]: 2⁶ = 64 sub-buckets per
/// octave bound the relative quantile error by 1/64 ≈ 1.6 %.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the whole `u64` range: the exact region `[0, 64)`
/// plus 64 sub-buckets for each of the 58 octaves `2⁶..=2⁶³` above it
/// (`bucket_of(u64::MAX)` lands in the last one).
const NUM_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// An HDR-style aggregating histogram over `u64` values (e.g. latency in
/// nanoseconds): fixed-size log-bucketed counts, so memory stays bounded
/// for arbitrarily long-lived recorders — unlike a raw sample log.
///
/// Values below 64 are exact; larger values land in one of 64
/// logarithmically spaced sub-buckets per power of two, so any reported
/// quantile is within 1/64 ≈ 1.6 % of the true sample. `count`, `sum`
/// (hence `mean`), `min`, and `max` are tracked exactly.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram (one fixed ~30 KiB bucket array).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // floor(log2 v) ≥ SUB_BITS
        let shift = e - SUB_BITS;
        // Mantissa in [64, 128): 64 sub-buckets within the octave.
        (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
    }

    /// Midpoint of a bucket — the value reported for quantiles landing in
    /// it.
    #[inline]
    fn bucket_mid(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let shift = (idx >> SUB_BITS) - 1;
        let mantissa = SUB + (idx & (SUB - 1));
        let lo = mantissa << shift;
        lo + (1u64 << shift) / 2
    }

    /// Records one value.
    pub(crate) fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact sum of all recorded values. `u128`, so it cannot overflow
    /// even for `u64::MAX`-scale samples (2⁶⁴ recordings of `u64::MAX`
    /// still fit).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Nearest-rank percentile, `p ∈ [0, 100]`: the bucket midpoint of the
    /// sample at rank `⌈p/100 · n⌉` (clamped to the exact min/max so the
    /// tails never report values outside the observed range); 0 when
    /// empty. Within 1/64 ≈ 1.6 % of [`percentile`] over the raw samples.
    ///
    /// Edge contract, pinned by tests:
    ///
    /// * Values `< 64` live in exact unit buckets, so any quantile landing
    ///   there is the true sample value — in particular a histogram of
    ///   zeros reports 0 at every percentile (indistinguishable from the
    ///   empty-histogram 0 only by [`LogHistogram::count`]).
    /// * `u64::MAX`-scale values saturate gracefully: reported quantiles
    ///   are clamped into the exact observed `[min, max]` range, so the
    ///   tails never exceed [`LogHistogram::max`] and never wrap — a
    ///   histogram recorded entirely at `u64::MAX` reports exactly
    ///   `u64::MAX` at every percentile. (Samples inside the top octave
    ///   are subject to the same ≈ 1.6 % bucket error as everywhere else;
    ///   only the clamp endpoints are exact.)
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterator over the non-empty buckets as `(bucket_index, count)`
    /// pairs, in ascending value order — the raw export a cross-process
    /// aggregator (e.g. the HTTP `/stats` endpoint) ships instead of lossy
    /// pre-computed percentiles.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The **inclusive upper bound** of a bucket: the largest value that
    /// [`LogHistogram::record`] files under `idx`. Exact buckets (`idx <
    /// 64`) bound themselves; octave sub-buckets bound at
    /// `(mantissa + 1) · 2^shift − 1`, computed in `u128` because the top
    /// bucket's exclusive bound is 2⁶⁴ — the inclusive bound saturates to
    /// `u64::MAX` instead of wrapping. Out-of-range indexes also saturate
    /// to `u64::MAX`.
    ///
    /// This is the cumulative-bucket boundary Prometheus `le=` labels use:
    /// `bucket_of(bucket_bound(i)) == i` and
    /// `bucket_of(bucket_bound(i) + 1) == i + 1` for every non-top bucket.
    pub(crate) fn bucket_bound(idx: usize) -> u64 {
        if idx >= NUM_BUCKETS {
            return u64::MAX;
        }
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let shift = (idx >> SUB_BITS) - 1;
        let mantissa = SUB + (idx & (SUB - 1));
        let excl = ((mantissa as u128) + 1) << shift;
        (excl - 1).min(u64::MAX as u128) as u64
    }

    /// Merges another histogram into this one (used to aggregate per-shard
    /// or per-worker recorders).
    ///
    /// Merging an empty histogram is a strict no-op: the early return keeps
    /// the empty side's `min`/`max` sentinels (`u64::MAX`/`0`) from ever
    /// entering the `min`/`max` folds below, so the merged counts, span,
    /// and mean are exactly those of the non-empty side — in either merge
    /// order (pinned by `merging_empty_histograms_is_exact`).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forgets all samples.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Heap footprint in bytes (constant).
    pub fn size_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.value_at_percentile(50.0))
            .field("p95", &self.value_at_percentile(95.0))
            .field("max", &self.max)
            .finish()
    }
}

/// One sMAPE term: `|pred − actual| / (½ (pred + actual))`, in percent.
///
/// `pred` is the sum of the sub-query travel-time means `Σ X̄ⱼ`; `actual`
/// is the ground-truth trip duration `a_tr`.
pub fn smape_term(pred: f64, actual: f64) -> f64 {
    let denom = 0.5 * (pred + actual);
    if denom == 0.0 {
        return 0.0;
    }
    100.0 * (pred - actual).abs() / denom
}

/// sMAPE over a query set: the mean of [`smape_term`] over
/// `(prediction, actual)` pairs (paper, Section 5.3.1).
pub fn smape(pairs: &[(f64, f64)]) -> f64 {
    mean(pairs.iter().map(|&(p, a)| smape_term(p, a)))
}

/// One weighted-error term for a single trip (paper, Section 5.3.2):
/// `Σⱼ wⱼ · |X̄ⱼ − aⱼ| / (½ (X̄ⱼ + aⱼ))` in percent, where each element of
/// `subs` is `(weight, predicted mean, actual sub-path duration)` and the
/// weights are the sub-paths' shares of the trip length.
pub(crate) fn weighted_error_term(subs: &[(f64, f64, f64)]) -> f64 {
    subs.iter()
        .map(|&(w, pred, actual)| {
            let denom = 0.5 * (pred + actual);
            if denom == 0.0 {
                0.0
            } else {
                100.0 * w * (pred - actual).abs() / denom
            }
        })
        .sum()
}

/// Weighted error over a query set: mean of `weighted_error_term`.
pub fn weighted_error(queries: &[Vec<(f64, f64, f64)>]) -> f64 {
    mean(queries.iter().map(|q| weighted_error_term(q)))
}

/// `log L(a, H)` for one query: the log of the smoothed bucket mass of the
/// true duration under the result histogram (paper, Section 5.3.3).
pub fn log_likelihood(hist: &Histogram, actual: f64, gamma: f64, t_min: f64, t_max: f64) -> f64 {
    SmoothedPdf::new(hist, gamma, t_min, t_max).log_likelihood(actual)
}

/// The q-error of a cardinality estimate (paper, Section 5.3.4):
/// `max(β̂′/n′, n′/β̂′)` with `n′ = max(n, 1)` and `β̂′ = max(β̂, 1)`.
pub fn q_error(estimate: f64, actual: u64) -> f64 {
    let e = estimate.max(1.0);
    let n = (actual as f64).max(1.0);
    (e / n).max(n / e)
}

/// Arithmetic mean of an iterator; 0 for an empty input.
pub fn mean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nearest-rank percentile of a sample, `p ∈ [0, 100]`; 0 for an empty
/// sample. Sorts a copy with [`f64::total_cmp`], so NaN inputs cannot
/// panic (they sort last).
///
/// Used by the service layer's latency summaries (p50/p95/p99).
pub fn percentile<I: IntoIterator<Item = f64>>(values: I, p: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    percentile_of_sorted(&v, p)
}

/// [`percentile`] over an already ascending-sorted sample (avoids re-sorting
/// when several percentiles are read from one sample).
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: merging an empty histogram must be an exact no-op in
    /// both orders — counts, min/max (no sentinel leakage), sum, and mean
    /// all equal the non-empty side's exact values.
    #[test]
    fn merging_empty_histograms_is_exact() {
        let mut filled = LogHistogram::new();
        for v in [3u64, 70, 70, 9000] {
            filled.record(v);
        }

        // Non-empty ← empty.
        let mut a = filled.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 9000);
        assert_eq!(a.sum(), 3 + 70 + 70 + 9000);
        assert_eq!(a.mean(), (3.0 + 70.0 + 70.0 + 9000.0) / 4.0);

        // Empty ← non-empty.
        let mut b = LogHistogram::new();
        b.merge(&filled);
        assert_eq!(b.count(), 4);
        assert_eq!(b.min(), 3);
        assert_eq!(b.max(), 9000);
        assert_eq!(b.sum(), a.sum());
        assert_eq!(b.mean(), a.mean());
        assert_eq!(b.nonzero_buckets().count(), a.nonzero_buckets().count());

        // Empty ← empty stays empty (accessors keep their empty contract,
        // the internal sentinels never surface).
        let mut c = LogHistogram::new();
        c.merge(&LogHistogram::new());
        assert!(c.is_empty());
        assert_eq!(c.count(), 0);
        assert_eq!(c.min(), 0);
        assert_eq!(c.max(), 0);
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.nonzero_buckets().count(), 0);

        // A later merge into the previously-empty-merged histogram still
        // lands exactly (the no-op left no residue behind).
        c.merge(&filled);
        assert_eq!(c.count(), 4);
        assert_eq!(c.min(), 3);
        assert_eq!(c.max(), 9000);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(v.clone(), 50.0), 50.0);
        assert_eq!(percentile(v.clone(), 95.0), 95.0);
        assert_eq!(percentile(v.clone(), 99.0), 99.0);
        assert_eq!(percentile(v.clone(), 100.0), 100.0);
        assert_eq!(percentile(v, 0.0), 1.0);
        // Order-independent, small samples, empties.
        assert_eq!(percentile([3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile([42.0], 99.0), 42.0);
        assert_eq!(percentile(std::iter::empty(), 50.0), 0.0);
    }

    #[test]
    fn percentile_of_sorted_matches() {
        let v = [1.0, 2.0, 3.0, 4.0];
        for p in [0.0, 25.0, 50.0, 75.0, 99.0] {
            assert_eq!(percentile_of_sorted(&v, p), percentile(v, p));
        }
    }

    #[test]
    fn smape_basics() {
        assert_eq!(smape_term(100.0, 100.0), 0.0);
        // |110 − 90| / (½·200) = 20 %.
        assert!((smape_term(110.0, 90.0) - 20.0).abs() < 1e-12);
        // Symmetric in its arguments.
        assert_eq!(smape_term(110.0, 90.0), smape_term(90.0, 110.0));
        assert_eq!(smape_term(0.0, 0.0), 0.0);
        // Aggregation is the arithmetic mean of the terms.
        let s = smape(&[(110.0, 90.0), (100.0, 100.0)]);
        assert!((s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn smape_bounded_by_200() {
        assert!((smape_term(1000.0, 0.0) - 200.0).abs() < 1e-12);
        assert!(smape_term(1.0, 1e9) <= 200.0);
    }

    #[test]
    fn weighted_error_weights_sum() {
        // Two sub-paths, weights 0.75/0.25; only the first has error.
        let term = weighted_error_term(&[(0.75, 110.0, 90.0), (0.25, 50.0, 50.0)]);
        assert!((term - 0.75 * 20.0).abs() < 1e-12);
        // Perfect prediction ⇒ zero.
        assert_eq!(weighted_error_term(&[(1.0, 42.0, 42.0)]), 0.0);
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(100.0, 10), 10.0);
        assert_eq!(q_error(1.0, 10), 10.0);
        // Clamping: empty sets don't divide by zero.
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(0.0, 5), 5.0);
        assert_eq!(q_error(5.0, 0), 5.0);
        // q-error is always ≥ 1.
        assert!(q_error(3.0, 4) >= 1.0);
    }

    #[test]
    fn log_likelihood_prefers_correct_histograms() {
        let good = Histogram::from_values(&[100.0, 102.0, 98.0], 10.0);
        let bad = Histogram::from_values(&[500.0, 505.0], 10.0);
        let a = log_likelihood(&good, 101.0, 0.99, 0.0, 3600.0);
        let b = log_likelihood(&bad, 101.0, 0.99, 0.0, 3600.0);
        assert!(a > b);
        assert!(b.is_finite(), "smoothing keeps the likelihood finite");
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(std::iter::empty()), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn log_histogram_small_values_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 63, 5, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.value_at_percentile(50.0), 5, "values < 64 are exact");
        assert!((h.mean() - 79.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_quantile_error_bounded() {
        let mut h = LogHistogram::new();
        let samples: Vec<f64> = (1..=10_000).map(|i| (i * i) as f64).collect();
        for &s in &samples {
            h.record(s as u64);
        }
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = percentile(samples.iter().copied(), p);
            let approx = h.value_at_percentile(p) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(
                err <= 1.0 / 64.0 + 1e-9,
                "p{p}: {approx} vs {exact} ({err})"
            );
        }
        // Tails are exact.
        assert_eq!(h.value_at_percentile(100.0), 10_000 * 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn log_histogram_covers_the_whole_u64_range() {
        // The top octave must not index out of bounds — the LatencyLog
        // saturation fallback records u64::MAX.
        let mut h = LogHistogram::new();
        for v in [1u64 << 62, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        let p99 = h.value_at_percentile(99.9);
        assert!(p99 >= (u64::MAX / 64) * 63, "top-octave quantile: {p99}");
    }

    /// The raw-bucket export round-trips: replaying the exported counts at
    /// their representative values reproduces every quantile and the count.
    #[test]
    fn log_histogram_bucket_export_roundtrip() {
        let mut h = LogHistogram::new();
        for i in 1..=5000u64 {
            h.record(i * 17);
        }
        let mut replayed = LogHistogram::new();
        let mut exported = 0;
        for (idx, count) in h.nonzero_buckets() {
            for _ in 0..count {
                replayed.record(LogHistogram::bucket_mid(idx));
            }
            exported += count;
        }
        assert_eq!(exported, h.count());
        assert_eq!(replayed.count(), h.count());
        for p in [1.0, 50.0, 95.0, 99.9] {
            let a = h.value_at_percentile(p) as f64;
            let b = replayed.value_at_percentile(p) as f64;
            // Midpoints re-bucket into the same bucket, so quantiles agree
            // to within one sub-bucket.
            assert!((a - b).abs() <= a / 64.0 + 1.0, "p{p}: {a} vs {b}");
        }
        assert!(LogHistogram::new().nonzero_buckets().next().is_none());
    }

    #[test]
    fn log_histogram_bucket_bounds_partition_the_u64_range() {
        // Every bucket's inclusive bound maps back into the bucket, the
        // next value up maps into the next bucket, and bounds are strictly
        // increasing — the cumulative `le=` boundaries tile u64 exactly.
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let bound = LogHistogram::bucket_bound(i);
            assert_eq!(LogHistogram::bucket_of(bound), i, "bound of bucket {i}");
            if let Some(p) = prev {
                assert!(bound > p, "bucket {i}: {bound} ≤ {p}");
            }
            if i + 1 < NUM_BUCKETS {
                assert_eq!(
                    LogHistogram::bucket_of(bound + 1),
                    i + 1,
                    "value above bucket {i}'s bound"
                );
            }
            // The midpoint never exceeds the bound (no overflow artifacts).
            assert!(LogHistogram::bucket_mid(i) <= bound, "bucket {i}");
            prev = Some(bound);
        }
        // The top bucket saturates at u64::MAX instead of wrapping to 0.
        assert_eq!(LogHistogram::bucket_bound(NUM_BUCKETS - 1), u64::MAX);
        assert_eq!(LogHistogram::bucket_bound(usize::MAX), u64::MAX);
        // Bucket 0 is the exact value 0.
        assert_eq!(LogHistogram::bucket_bound(0), 0);
        assert_eq!(LogHistogram::bucket_mid(0), 0);
    }

    #[test]
    fn log_histogram_percentile_contract_at_bucket_zero() {
        // A histogram of zeros reports 0 everywhere — bucket 0 is exact.
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.value_at_percentile(p), 0);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn log_histogram_percentile_contract_at_saturation() {
        // A histogram recorded entirely at u64::MAX: the clamp range is a
        // single point, so every percentile is exactly u64::MAX.
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.value_at_percentile(p), u64::MAX);
        }
        assert_eq!(h.sum(), 2 * (u64::MAX as u128));
        // Mixed top-octave values: quantiles stay inside the exact
        // observed [min, max] — no wrap, nothing above max.
        h.record(u64::MAX - 7);
        h.record(100);
        for p in [25.0, 50.0, 99.0, 100.0] {
            let v = h.value_at_percentile(p);
            assert!(v >= 100 && v <= h.max(), "p{p}: {v}");
        }
        assert_eq!(h.value_at_percentile(0.0), 100, "head clamps to min");
        assert_eq!(h.max(), u64::MAX, "exact max is tracked separately");
    }

    #[test]
    fn log_histogram_merge_clear_empty() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        assert_eq!(a.value_at_percentile(50.0), 0);
        a.record(1_000);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1_000);
        assert_eq!(a.max(), 2_000_000);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.mean(), 0.0);
        assert!(a.size_bytes() > 0 && a.size_bytes() < 64 * 1024, "bounded");
    }

    proptest::proptest! {
        #[test]
        fn q_error_at_least_one(e in 0.0f64..1e6, n in 0u64..1_000_000) {
            proptest::prop_assert!(q_error(e, n) >= 1.0);
        }

        /// Every quantile of the log histogram is within 1/64 relative
        /// error of the exact nearest-rank percentile, across magnitudes.
        #[test]
        fn log_histogram_matches_exact_percentiles(
            samples in proptest::collection::vec(1u64..1_000_000_000_000, 1..400),
            ps in proptest::collection::vec(0.0f64..100.0, 1..8),
        ) {
            let mut h = LogHistogram::new();
            for &s in &samples { h.record(s); }
            let floats: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
            for p in ps {
                let exact = percentile(floats.iter().copied(), p);
                let approx = h.value_at_percentile(p) as f64;
                proptest::prop_assert!(
                    (approx - exact).abs() <= exact / 64.0 + 1.0,
                    "p{}: {} vs {}", p, approx, exact
                );
            }
        }

        #[test]
        fn smape_symmetric_and_bounded(a in 0.0f64..1e6, b in 0.0f64..1e6) {
            let s = smape_term(a, b);
            proptest::prop_assert!((0.0..=200.0 + 1e-9).contains(&s));
            proptest::prop_assert!((s - smape_term(b, a)).abs() < 1e-9);
        }
    }
}
