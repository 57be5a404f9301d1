//! The smoothed discrete density used by the log-likelihood metric.

use crate::hist::Histogram;

/// The paper's smoothed probability function (Section 5.3.3):
///
/// `p_H(x) = γ · f(x, H) + (1 − γ) · U(x)`
///
/// where `f(x, H)` is the fraction of the histogram's mass in `x`'s bucket
/// and `U` is a uniform distribution over `[t_min, t_max)`, so that `p_H`
/// never reaches zero. Both mixture components are expressed as bucket
/// masses, making `p_H` a proper distribution over the bucket grid.
#[derive(Clone, Debug)]
pub struct SmoothedPdf<'a> {
    hist: &'a Histogram,
    gamma: f64,
    t_min: f64,
    t_max: f64,
}

impl<'a> SmoothedPdf<'a> {
    /// Wraps a histogram.
    ///
    /// # Panics
    /// Panics unless `0 < gamma < 1` and `t_min < t_max`.
    pub fn new(hist: &'a Histogram, gamma: f64, t_min: f64, t_max: f64) -> Self {
        assert!(gamma > 0.0 && gamma < 1.0, "gamma must be in (0, 1)");
        assert!(t_min < t_max, "empty support");
        SmoothedPdf {
            hist,
            gamma,
            t_min,
            t_max,
        }
    }

    /// Probability mass of the bucket containing `x`.
    pub(crate) fn bucket_mass(&self, x: f64) -> f64 {
        let h = self.hist.bucket_width();
        let uniform = h / (self.t_max - self.t_min);
        let empirical = if self.hist.is_empty() {
            0.0
        } else {
            self.hist.count_at(x.max(0.0)) / self.hist.total()
        };
        // With an empty histogram the smoothed density degenerates to the
        // uniform component alone (still never zero).
        if self.hist.is_empty() {
            uniform
        } else {
            self.gamma * empirical + (1.0 - self.gamma) * uniform
        }
    }

    /// `log L(x, H) = ln p_H(x)`.
    pub fn log_likelihood(&self, x: f64) -> f64 {
        self.bucket_mass(x).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_mixes_empirical_and_uniform() {
        let h = Histogram::from_values(&[10.0, 10.0, 20.0, 30.0], 10.0);
        let pdf = SmoothedPdf::new(&h, 0.99, 0.0, 100.0);
        // Bucket [10,20) holds 2/4 of the mass; uniform adds 10/100.
        let expect = 0.99 * 0.5 + 0.01 * 0.1;
        assert!((pdf.bucket_mass(15.0) - expect).abs() < 1e-12);
        // An empty bucket still has positive mass.
        assert!(pdf.bucket_mass(55.0) > 0.0);
        assert!((pdf.bucket_mass(55.0) - 0.01 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn log_likelihood_is_finite_everywhere() {
        let h = Histogram::from_values(&[50.0], 10.0);
        let pdf = SmoothedPdf::new(&h, 0.99, 0.0, 3600.0);
        for x in [0.0, 50.0, 1000.0, 3599.0] {
            assert!(pdf.log_likelihood(x).is_finite(), "x = {x}");
        }
        // Observed bucket scores higher than an unobserved one.
        assert!(pdf.log_likelihood(50.0) > pdf.log_likelihood(500.0));
    }

    #[test]
    fn empty_histogram_degenerates_to_uniform() {
        let h = Histogram::new(10.0);
        let pdf = SmoothedPdf::new(&h, 0.5, 0.0, 100.0);
        assert!((pdf.bucket_mass(42.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn masses_sum_to_one_over_support() {
        let h = Histogram::from_values(&[5.0, 15.0, 15.0, 25.0], 10.0);
        let pdf = SmoothedPdf::new(&h, 0.9, 0.0, 200.0);
        // All histogram mass lies inside [0, 200): summing bucket masses over
        // the 20 support buckets yields γ·1 + (1−γ)·1 = 1.
        let sum: f64 = (0..20)
            .map(|i| pdf.bucket_mass(i as f64 * 10.0 + 5.0))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn gamma_bounds_enforced() {
        let h = Histogram::new(1.0);
        let _ = SmoothedPdf::new(&h, 1.0, 0.0, 10.0);
    }
}
