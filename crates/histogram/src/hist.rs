//! Fixed-bucket-width histograms with discrete convolution.

/// A histogram over non-negative values with fixed bucket width `h`:
/// bucket `i` counts values in `[i·h, (i+1)·h)`.
///
/// ```
/// use tthr_histogram::Histogram;
///
/// // The paper's Section 2.3 example: H1 ∗ H2.
/// let h1 = Histogram::from_values(&[6.0, 6.5, 7.0], 1.0);
/// let h2 = Histogram::from_values(&[4.0, 4.5, 5.0], 1.0);
/// let conv = h1.convolve(&h2);
/// assert_eq!(conv.count_at(10.0), 4.0);
/// assert_eq!(conv.count_at(11.0), 4.0);
/// assert_eq!(conv.count_at(12.0), 1.0);
/// ```
///
/// Bucket masses are `f64`: convolution multiplies counts
/// (`total(H₁ ∗ H₂) = total(H₁) · total(H₂)`), so convolving dozens of
/// sub-path histograms — as a trip query does — overflows any integer
/// representation. Long chains should [`normalize`](Histogram::normalize)
/// each factor first, keeping every intermediate a unit-mass distribution.
///
/// Storage is sparse-by-offset: only the contiguous bucket range between the
/// first and last non-empty bucket is materialized.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bucket_width: f64,
    /// Index of `counts[0]` in the global bucket grid.
    start_bucket: u64,
    counts: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket width.
    ///
    /// # Panics
    /// Panics unless `bucket_width > 0`.
    pub fn new(bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        Histogram {
            bucket_width,
            start_bucket: 0,
            counts: Vec::new(),
            total: 0.0,
        }
    }

    /// Builds a histogram of `values` (all must be ≥ 0 and finite).
    pub fn from_values(values: &[f64], bucket_width: f64) -> Self {
        let mut h = Histogram::new(bucket_width);
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Bucket index of a value. Negative values (including `-0.0`) clamp to
    /// bucket 0 via the saturating float→int cast.
    #[inline]
    fn bucket_of(&self, value: f64) -> u64 {
        debug_assert!(value >= 0.0, "value must be non-negative, got {value}");
        (value / self.bucket_width) as u64
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.add_weighted(value, 1.0);
    }

    /// Adds an observation with a fractional weight.
    ///
    /// Non-finite values are dropped (debug builds assert): a NaN or
    /// infinite travel time produced by corrupt input must not panic the
    /// retrieval path or blow up the bucket range.
    pub fn add_weighted(&mut self, value: f64, weight: f64) {
        if !value.is_finite() {
            debug_assert!(false, "non-finite histogram value {value}");
            return;
        }
        let b = self.bucket_of(value);
        if self.counts.is_empty() {
            self.start_bucket = b;
            self.counts.push(0.0);
        } else if b < self.start_bucket {
            let grow = (self.start_bucket - b) as usize;
            let mut new_counts = vec![0.0; grow + self.counts.len()];
            new_counts[grow..].copy_from_slice(&self.counts);
            self.counts = new_counts;
            self.start_bucket = b;
        } else if b >= self.start_bucket + self.counts.len() as u64 {
            self.counts
                .resize((b - self.start_bucket + 1) as usize, 0.0);
        }
        self.counts[(b - self.start_bucket) as usize] += weight;
        self.total += weight;
    }

    /// The bucket width `h`.
    #[inline]
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// Total mass `B(H, [0, ∞))`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Whether the histogram holds no mass.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0.0
    }

    /// Mass of the bucket containing `value`. Non-finite and negative
    /// lookups hold no mass.
    pub fn count_at(&self, value: f64) -> f64 {
        if self.counts.is_empty() || !value.is_finite() || value < 0.0 {
            return 0.0;
        }
        let b = self.bucket_of(value);
        if b < self.start_bucket || b >= self.start_bucket + self.counts.len() as u64 {
            0.0
        } else {
            self.counts[(b - self.start_bucket) as usize]
        }
    }

    /// Iterator over `(bucket_lower_edge, mass)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(move |(i, &c)| ((self.start_bucket + i as u64) as f64 * self.bucket_width, c))
    }

    /// Mean value, approximated by bucket midpoints.
    pub fn mean(&self) -> Option<f64> {
        if self.total <= 0.0 {
            return None;
        }
        let sum: f64 = self
            .iter()
            .map(|(edge, c)| (edge + self.bucket_width / 2.0) * c)
            .sum();
        Some(sum / self.total)
    }

    /// Smallest non-empty bucket's lower edge (`H_min` for shift-and-enlarge).
    pub fn min_edge(&self) -> Option<f64> {
        self.iter().next().map(|(e, _)| e)
    }

    /// Largest non-empty bucket's *upper* edge (`H_max`).
    pub fn max_edge(&self) -> Option<f64> {
        self.iter().last().map(|(e, _)| e + self.bucket_width)
    }

    /// Rescales to unit mass. No-op on an empty histogram.
    pub fn normalize(&self) -> Histogram {
        if self.total <= 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        for c in &mut out.counts {
            *c /= self.total;
        }
        out.total = 1.0;
        out
    }

    /// Discrete convolution `self ∗ other` (paper, Section 2.3): the
    /// distribution of the sum of one draw from each histogram. Masses
    /// multiply, so `total(H₁ ∗ H₂) = total(H₁) · total(H₂)`.
    ///
    /// # Panics
    /// Panics if the bucket widths differ.
    pub fn convolve(&self, other: &Histogram) -> Histogram {
        assert!(
            (self.bucket_width - other.bucket_width).abs() < f64::EPSILON,
            "convolution requires equal bucket widths"
        );
        if self.is_empty() || other.is_empty() {
            return Histogram::new(self.bucket_width);
        }
        let mut counts = vec![0.0; self.counts.len() + other.counts.len() - 1];
        for (i, &a) in self.counts.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.counts.iter().enumerate() {
                counts[i + j] += a * b;
            }
        }
        Histogram {
            bucket_width: self.bucket_width,
            start_bucket: self.start_bucket + other.start_bucket,
            counts,
            total: self.total * other.total,
        }
    }

    /// Convolves a sequence of histograms: `H₁ ∗ H₂ ∗ … ∗ H_k`.
    /// Returns `None` for an empty sequence.
    pub fn convolve_all<'a, I: IntoIterator<Item = &'a Histogram>>(hists: I) -> Option<Histogram> {
        let mut iter = hists.into_iter();
        let first = iter.next()?.clone();
        Some(iter.fold(first, |acc, h| acc.convolve(h)))
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_2_3_worked_example() {
        // H from Q = spq(⟨A,B,E⟩, [0,15), u=u1, 2): durations 11 and 10.
        let h = Histogram::from_values(&[11.0, 10.0], 1.0);
        assert_eq!(h.count_at(10.0), 1.0);
        assert_eq!(h.count_at(11.0), 1.0);
        assert_eq!(h.total(), 2.0);

        // H1 = {[6,7):2, [7,8):1}, H2 = {[4,5):2, [5,6):1}.
        let h1 = Histogram::from_values(&[6.0, 6.5, 7.0], 1.0);
        let h2 = Histogram::from_values(&[4.0, 4.5, 5.0], 1.0);
        assert_eq!(h1.count_at(6.0), 2.0);
        assert_eq!(h1.count_at(7.0), 1.0);

        // H1 ∗ H2 = {[10,11):4, [11,12):4, [12,13):1}.
        let conv = h1.convolve(&h2);
        assert_eq!(conv.count_at(10.0), 4.0);
        assert_eq!(conv.count_at(11.0), 4.0);
        assert_eq!(conv.count_at(12.0), 1.0);
        assert_eq!(conv.total(), 9.0);
    }

    #[test]
    fn add_grows_in_both_directions() {
        let mut h = Histogram::new(10.0);
        h.add(55.0);
        h.add(15.0); // grow left
        h.add(95.0); // grow right
        assert_eq!(h.count_at(55.0), 1.0);
        assert_eq!(h.count_at(15.0), 1.0);
        assert_eq!(h.count_at(95.0), 1.0);
        assert_eq!(h.count_at(45.0), 0.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn mean_and_edges() {
        let h = Histogram::from_values(&[10.0, 20.0, 30.0], 10.0);
        // Midpoints 15, 25, 35 → mean 25.
        assert_eq!(h.mean(), Some(25.0));
        assert_eq!(h.min_edge(), Some(10.0));
        assert_eq!(h.max_edge(), Some(40.0));
        assert_eq!(Histogram::new(1.0).mean(), None);
    }

    #[test]
    fn normalize_gives_unit_mass() {
        let h = Histogram::from_values(&[10.0, 10.0, 20.0, 30.0], 10.0);
        let n = h.normalize();
        assert!((n.total() - 1.0).abs() < 1e-12);
        assert!((n.count_at(10.0) - 0.5).abs() < 1e-12);
        // Mean is invariant under normalization.
        assert!((n.mean().unwrap() - h.mean().unwrap()).abs() < 1e-12);
        // Normalizing an empty histogram is a no-op.
        assert!(Histogram::new(1.0).normalize().is_empty());
    }

    #[test]
    fn long_convolution_chain_stays_finite() {
        // 50 sub-path histograms of 20 values each: raw counts would reach
        // 20⁵⁰; normalized factors keep unit mass.
        let values: Vec<f64> = (0..20).map(|i| 30.0 + i as f64).collect();
        let factor = Histogram::from_values(&values, 10.0).normalize();
        let chain: Vec<Histogram> = (0..50).map(|_| factor.clone()).collect();
        let conv = Histogram::convolve_all(chain.iter()).unwrap();
        assert!((conv.total() - 1.0).abs() < 1e-6);
        assert!(conv.mean().unwrap().is_finite());
    }

    #[test]
    fn convolution_with_empty_is_empty() {
        let h = Histogram::from_values(&[5.0], 1.0);
        let empty = Histogram::new(1.0);
        assert!(h.convolve(&empty).is_empty());
        assert!(empty.convolve(&h).is_empty());
    }

    #[test]
    fn convolve_all_folds_left() {
        let a = Histogram::from_values(&[1.0], 1.0);
        let b = Histogram::from_values(&[2.0], 1.0);
        let c = Histogram::from_values(&[3.0], 1.0);
        let conv = Histogram::convolve_all([&a, &b, &c]).unwrap();
        assert_eq!(conv.count_at(6.0), 1.0);
        assert_eq!(conv.total(), 1.0);
        assert!(Histogram::convolve_all(std::iter::empty()).is_none());
    }

    #[test]
    #[should_panic(expected = "equal bucket widths")]
    fn mismatched_widths_panic() {
        let a = Histogram::from_values(&[1.0], 1.0);
        let b = Histogram::from_values(&[1.0], 2.0);
        let _ = a.convolve(&b);
    }

    proptest::proptest! {
        /// Convolution total is the product of totals, and its mean is the
        /// sum of means (up to bucket-midpoint discretization error ≤ h).
        #[test]
        fn convolution_mass_and_mean(
            xs in proptest::collection::vec(0.0f64..500.0, 1..40),
            ys in proptest::collection::vec(0.0f64..500.0, 1..40),
        ) {
            let h = 10.0;
            let a = Histogram::from_values(&xs, h);
            let b = Histogram::from_values(&ys, h);
            let conv = a.convolve(&b);
            proptest::prop_assert!((conv.total() - a.total() * b.total()).abs() < 1e-6);
            let want = a.mean().unwrap() + b.mean().unwrap();
            let got = conv.mean().unwrap();
            // Midpoint of a sum-bucket differs from the sum of midpoints by
            // at most h/2 either way.
            proptest::prop_assert!((got - want).abs() <= h / 2.0 + 1e-9,
                "mean {got} vs {want}");
        }

        /// Convolution is commutative.
        #[test]
        fn convolution_commutes(
            xs in proptest::collection::vec(0.0f64..200.0, 1..30),
            ys in proptest::collection::vec(0.0f64..200.0, 1..30),
        ) {
            let a = Histogram::from_values(&xs, 5.0);
            let b = Histogram::from_values(&ys, 5.0);
            proptest::prop_assert_eq!(a.convolve(&b), b.convolve(&a));
        }
    }
}
