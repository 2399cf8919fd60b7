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
//! instead of interpolating with a free parameter.

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
}

impl OverlapMode {
    /// The paper's two extremes, Serialized first.
    pub const ALL: [OverlapMode; 2] = [OverlapMode::Serialized, OverlapMode::Ideal];

    /// The overlap coefficient α: 0 for Serialized, 1 for Ideal.
    #[inline]
    pub fn alpha(self) -> f64 {
        match self {
            OverlapMode::Serialized => 0.0,
            OverlapMode::Ideal => 1.0,
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
    fn labels_match_fig16() {
        assert_eq!(OverlapMode::Serialized.to_string(), "non-overlap");
        assert_eq!(OverlapMode::Ideal.to_string(), "ideal overlap");
    }

    #[test]
    fn combine_interpolates_between_sum_and_max() {
        let parts = [1.0, 2.0, 3.0];
        assert_eq!(OverlapMode::Serialized.combine(&parts), 6.0);
        assert_eq!(OverlapMode::Ideal.combine(&parts), 3.0);
    }

    #[test]
    fn combine_is_monotone_in_alpha() {
        // `ALL` lists the modes by increasing α; for non-negative
        // parts the combined time never grows with α.
        assert!(OverlapMode::ALL
            .windows(2)
            .all(|w| w[0].alpha() < w[1].alpha()));
        for parts in [[0.5, 2.5, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]] {
            let times: Vec<f64> = OverlapMode::ALL.iter().map(|m| m.combine(&parts)).collect();
            assert!(times.windows(2).all(|w| w[1] <= w[0]), "{times:?}");
        }
    }

    #[test]
    fn empty_parts_combine_to_zero() {
        assert_eq!(OverlapMode::Ideal.combine(&[]), 0.0);
        assert_eq!(OverlapMode::Serialized.combine(&[]), 0.0);
    }
}
