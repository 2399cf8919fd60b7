//! Computation/communication overlap assumptions (Sec. II-B and V-B).
//!
//! The paper's framework deliberately ignores overlap: "potential
//! overlap is not considered in our analysis and summation of all parts
//! is used as the prediction of the total execution time". Sec. V-B
//! re-runs the key analyses under the opposite extreme — ideal overlap,
//! `T_total = max{Td, Tc, Tw}` — and shows the fundamental-bottleneck
//! conclusions survive. The two extremes are the documented bounds;
//! where a real framework lands between them (Poseidon, TicTac — the
//! paper's refs 36 and 37) is now *derived*, not assumed: the
//! `pai-dag` critical-path evaluator schedules each gradient's
//! synchronization against the op stream (WFBP, tensor fusion)
//! instead of interpolating with a free parameter. The old
//! [`OverlapMode::Partial`] interpolation is deprecated in its favor.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How the three execution-time components combine into `T_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverlapMode {
    /// No overlap: `T_total = Td + Tc + Tw` (the paper's framework).
    #[default]
    Serialized,
    /// Ideal overlap: `T_total = max{Td, Tc, Tw}` (Sec. V-B).
    Ideal,
    /// Partial overlap: a linear interpolation
    /// `T = (1-α)·sum + α·max` with `α = percent/100`.
    /// `Partial(0)` equals [`OverlapMode::Serialized`] and
    /// `Partial(100)` equals [`OverlapMode::Ideal`].
    ///
    /// The free parameter α answers nothing the bounds don't: any
    /// measurement it could be fit to is better explained by the
    /// `pai-dag` evaluator, which *derives* the achieved overlap from
    /// the op DAG and the network path instead of assuming it.
    #[deprecated(
        note = "use the two bound modes, or the `pai-dag` critical-path evaluator \
                (`StepTimeBackend::Dag`) which derives the achieved overlap"
    )]
    Partial(u8),
}

impl OverlapMode {
    /// The paper's two extremes, Serialized first.
    pub const ALL: [OverlapMode; 2] = [OverlapMode::Serialized, OverlapMode::Ideal];

    /// The overlap coefficient α in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if a `Partial` percentage exceeds 100.
    #[inline]
    pub fn alpha(self) -> f64 {
        match self {
            OverlapMode::Serialized => 0.0,
            OverlapMode::Ideal => 1.0,
            #[allow(deprecated)]
            OverlapMode::Partial(percent) => {
                assert!(
                    percent <= 100,
                    "overlap percentage must be at most 100, got {percent}"
                );
                percent as f64 / 100.0
            }
        }
    }

    /// Combines phase times under this mode:
    /// `(1-α)·Σ + α·max`.
    #[inline]
    pub fn combine(self, parts: &[f64]) -> f64 {
        let sum: f64 = parts.iter().sum();
        let max = parts.iter().cloned().fold(0.0, f64::max);
        let alpha = self.alpha();
        (1.0 - alpha) * sum + alpha * max
    }
}

impl fmt::Display for OverlapMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlapMode::Serialized => f.write_str("non-overlap"),
            OverlapMode::Ideal => f.write_str("ideal overlap"),
            #[allow(deprecated)]
            OverlapMode::Partial(p) => write!(f, "{p}% overlap"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_non_overlap_assumption() {
        assert_eq!(OverlapMode::default(), OverlapMode::Serialized);
    }

    #[test]
    #[allow(deprecated)]
    fn labels_match_fig16() {
        assert_eq!(OverlapMode::Serialized.to_string(), "non-overlap");
        assert_eq!(OverlapMode::Ideal.to_string(), "ideal overlap");
        assert_eq!(OverlapMode::Partial(40).to_string(), "40% overlap");
    }

    #[test]
    #[allow(deprecated)]
    fn combine_interpolates_between_sum_and_max() {
        let parts = [1.0, 2.0, 3.0];
        assert_eq!(OverlapMode::Serialized.combine(&parts), 6.0);
        assert_eq!(OverlapMode::Ideal.combine(&parts), 3.0);
        assert_eq!(OverlapMode::Partial(0).combine(&parts), 6.0);
        assert_eq!(OverlapMode::Partial(100).combine(&parts), 3.0);
        assert_eq!(OverlapMode::Partial(50).combine(&parts), 4.5);
    }

    #[test]
    #[allow(deprecated)]
    fn combine_is_monotone_in_alpha() {
        let parts = [0.5, 2.5, 1.0];
        let mut prev = f64::INFINITY;
        for p in (0..=100).step_by(10) {
            let t = OverlapMode::Partial(p).combine(&parts);
            assert!(t <= prev + 1e-12);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "at most 100")]
    #[allow(deprecated)]
    fn rejects_over_100_percent() {
        let _ = OverlapMode::Partial(101).alpha();
    }

    #[test]
    fn empty_parts_combine_to_zero() {
        assert_eq!(OverlapMode::Ideal.combine(&[]), 0.0);
        assert_eq!(OverlapMode::Serialized.combine(&[]), 0.0);
    }
}
