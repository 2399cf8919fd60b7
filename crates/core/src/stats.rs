//! Statistics utilities behind every CDF figure.
//!
//! The paper presents almost all collective results as empirical CDFs
//! (Figs. 6, 8, 9, 10, 15, 16), sometimes weighted by cNode count.
//! [`Ecdf`] supports both the plain (job-level) and weighted
//! (cNode-level) variants.

use std::fmt;

/// An empirical cumulative distribution function over weighted samples.
///
/// # Examples
///
/// ```
/// use pai_core::Ecdf;
/// let cdf = Ecdf::from_values([1.0, 2.0, 2.0, 10.0]);
/// assert_eq!(cdf.fraction_at_most(2.0), 0.75);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    /// (value, weight) pairs sorted by value.
    samples: Vec<(f64, f64)>,
    total_weight: f64,
}

impl Ecdf {
    /// Builds an ECDF from equally weighted values (job-level view).
    ///
    /// # Panics
    ///
    /// Panics if the input is empty or contains non-finite values.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Self::from_weighted(values.into_iter().map(|v| (v, 1.0)))
    }

    /// Builds an ECDF from (value, weight) pairs (cNode-level view uses
    /// the job's cNode count as the weight).
    ///
    /// # Panics
    ///
    /// Panics if the input is empty, a value is non-finite, or a weight
    /// is non-positive.
    pub fn from_weighted<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let mut samples: Vec<(f64, f64)> = pairs.into_iter().collect();
        assert!(!samples.is_empty(), "an ECDF needs at least one sample");
        for &(v, w) in &samples {
            assert!(v.is_finite(), "ECDF values must be finite, got {v}");
            assert!(
                w.is_finite() && w > 0.0,
                "ECDF weights must be positive and finite, got {w}"
            );
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total_weight = samples.iter().map(|&(_, w)| w).sum();
        Ecdf {
            samples,
            total_weight,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false: construction rejects empty inputs.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The weighted fraction of samples with value `<= x` — the y-axis
    /// read off a CDF plot at x.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        let covered: f64 = self
            .samples
            .iter()
            .take_while(|&&(v, _)| v <= x)
            .map(|&(_, w)| w)
            .sum();
        covered / self.total_weight
    }

    /// The weighted fraction of samples with value `> x` (e.g. "more
    /// than 40% PS/Worker jobs spend more than 80% time in
    /// communication" reads `fraction_above(0.8) > 0.4`).
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// The smallest sample value whose cumulative weight reaches `q`
    /// of the total (q in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        let target = q * self.total_weight;
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            acc += w;
            if acc >= target {
                return v;
            }
        }
        // Unreachable fallback: construction rejects empty inputs, and
        // the cumulative weight reaches `target` at the last sample.
        self.samples.last().map_or(0.0, |&(v, _)| v)
    }

    /// The weighted mean of the samples.
    pub fn mean(&self) -> f64 {
        self.samples.iter().map(|&(v, w)| v * w).sum::<f64>() / self.total_weight
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        // Construction rejects empty inputs; 0.0 is unreachable.
        self.samples.first().map_or(0.0, |&(v, _)| v)
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        self.samples.last().map_or(0.0, |&(v, _)| v)
    }

    /// Evaluates the CDF at evenly spaced points between min and max —
    /// the series a plotting tool would draw. Returns (x, F(x)) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a CDF series needs at least two points");
        let (lo, hi) = (self.min(), self.max());
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        (0..points)
            .map(|i| {
                let x = lo + span * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_most(x))
            })
            .collect()
    }
}

impl fmt::Display for Ecdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ECDF(n={}, min={:.4}, p50={:.4}, max={:.4})",
            self.len(),
            self.min(),
            self.quantile(0.5),
            self.max()
        )
    }
}

/// Weighted arithmetic mean.
///
/// # Panics
///
/// Panics if the slices differ in length or weights sum to zero.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(values.len(), weights.len(), "one weight per value required");
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must sum to a positive value");
    values
        .iter()
        .zip(weights)
        .map(|(&v, &w)| v * w)
        .sum::<f64>()
        / wsum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_fractions() {
        let cdf = Ecdf::from_values([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.5);
        assert_eq!(cdf.fraction_at_most(4.0), 1.0);
        assert_eq!(cdf.fraction_above(3.0), 0.25);
    }

    #[test]
    fn weighted_fractions() {
        // One job with 99 cNodes at 0.9, one with 1 cNode at 0.1.
        let cdf = Ecdf::from_weighted([(0.9, 99.0), (0.1, 1.0)]);
        assert!((cdf.fraction_at_most(0.5) - 0.01).abs() < 1e-12);
        assert!((cdf.mean() - 0.892).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let cdf = Ecdf::from_values([10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.2), 10.0);
        assert_eq!(cdf.quantile(0.5), 30.0);
        assert_eq!(cdf.quantile(1.0), 50.0);
    }

    #[test]
    fn series_is_monotone_between_zero_and_one() {
        let cdf = Ecdf::from_values([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let series = cdf.series(50);
        assert_eq!(series.len(), 50);
        let mut prev = 0.0;
        for &(_, y) in &series {
            assert!(y >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&y));
            prev = y;
        }
        assert_eq!(series.last().expect("nonempty").1, 1.0);
    }

    #[test]
    fn degenerate_single_sample() {
        let cdf = Ecdf::from_values([7.0]);
        assert_eq!(cdf.quantile(0.5), 7.0);
        assert_eq!(cdf.fraction_at_most(7.0), 1.0);
        assert_eq!(cdf.series(2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty() {
        let _ = Ecdf::from_values(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_zero_weight() {
        let _ = Ecdf::from_weighted([(1.0, 0.0)]);
    }

    #[test]
    fn weighted_mean_basic() {
        assert!((weighted_mean(&[1.0, 3.0], &[1.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((weighted_mean(&[1.0, 3.0], &[3.0, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Ecdf::from_values([1.0, 2.0]).to_string().is_empty());
    }
}
