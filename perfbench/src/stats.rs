//! Order statistics and the digest the identity checks compare.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::Hasher;

/// Median of `values` (mean of the middle two for an even count);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest of `values`; NaN for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The fastest an operation made of stages ran, taken stage by stage:
/// the sum over stages of each one's fastest seconds across the
/// operations, plus the fastest seconds spent outside the stages.
/// `total_s[i]` is operation `i`'s seconds and `stage_s[i]` its stages'
/// seconds in the order they ran. When every operation has the same
/// stages this is never more than [`fastest`] of `total_s`, and a stage
/// needs a quiet stretch only as long as itself, not as long as the
/// whole operation. NaN when there is no operation.
pub fn fastest_by_stage(total_s: &[f64], stage_s: &[Vec<f64>]) -> f64 {
    let stages = stage_s.iter().map(Vec::len).max().unwrap_or(0);
    let within: f64 = (0..stages)
        .map(|k| {
            fastest(
                &stage_s
                    .iter()
                    .filter_map(|s| s.get(k).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let outside: Vec<f64> = total_s
        .iter()
        .zip(stage_s)
        .map(|(total, stages)| total - stages.iter().sum::<f64>())
        .collect();
    within + fastest(&outside)
}

/// `n`, fastest, median and 90th percentile (nearest rank) of samples
/// in seconds, for the human-readable output.
pub fn summary(values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p90 = sorted
        .get((sorted.len() * 9).div_ceil(10).saturating_sub(1))
        .copied()
        .unwrap_or(f64::NAN);
    format!(
        "n={} fastest={:.4} s median={:.4} s p90={p90:.4} s",
        values.len(),
        fastest(values),
        median(values)
    )
}

/// A 64-bit fingerprint of a pass's output. Floats enter by their bit
/// patterns, so two outputs digest alike only when bit-identical.
#[derive(Debug)]
pub struct Digest(DefaultHasher);

impl Digest {
    /// An empty digest; `DefaultHasher::new` uses fixed keys, so equal
    /// inputs give equal digests within a build.
    pub fn new() -> Digest {
        Digest(DefaultHasher::new())
    }

    /// Adds an integer.
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Adds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.0.write_u64(v.to_bits());
    }

    /// Adds a small value through its `Debug` form, which prints every
    /// float in round-trip precision.
    pub fn debug(&mut self, v: &impl Debug) {
        self.0.write(format!("{v:?}").as_bytes());
    }

    /// The fingerprint.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_and_summary() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert!(fastest(&[]).is_nan());
        let s = summary(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s, "n=10 fastest=1.0000 s median=5.5000 s p90=9.0000 s");
    }

    #[test]
    fn fastest_by_stage_takes_each_stage_at_its_fastest() {
        // Two operations of two stages; each is slow in a different one.
        let total = [1.0 + 5.0 + 0.5, 4.0 + 2.0 + 0.25];
        let stages = [vec![1.0, 5.0], vec![4.0, 2.0]];
        assert_eq!(fastest_by_stage(&total, &stages), 1.0 + 2.0 + 0.25);
        // Without stages it is the fastest operation.
        assert_eq!(fastest_by_stage(&[3.0, 2.0], &[vec![], vec![]]), 2.0);
        assert!(fastest_by_stage(&[], &[]).is_nan());
    }

    #[test]
    fn digest_tells_bit_patterns_apart() {
        let mut a = Digest::new();
        a.f64(0.0);
        let mut b = Digest::new();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
