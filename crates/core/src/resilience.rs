//! The closed-form straggler model: the expected barrier dilation of a
//! synchronous step.
//!
//! The paper characterizes *healthy* steps; this formula extends the
//! Sec. II-B analytical framework to the straggler regime that the
//! fault-injecting simulator measures event by event, giving the
//! degraded-run experiment an independent analytical cross-check. A
//! synchronous step ends at the barrier, so one slow replica dilates
//! everyone. With `n` replicas each independently slow (dilation `m`)
//! with probability `p`, `E[T] = T · (1 + (m − 1) · (1 − (1 − p)^n))` —
//! the tail probability `1 − (1 − p)^n` is exactly why wide PS/Worker
//! jobs (Sec. III-A's >128-cNode giants) feel stragglers that a 1w1g
//! job never sees.

/// The expected barrier dilation factor for `replicas` replicas that
/// independently straggle with probability `per_replica_prob`, each
/// dilating its compute by `slowdown`:
/// `1 + (slowdown − 1) · (1 − (1 − p)^n)`.
///
/// Tends to 1 as `p → 0` and to `slowdown` as `n → ∞`.
///
/// # Panics
///
/// Panics if `per_replica_prob` is outside `[0, 1]`, `slowdown < 1`,
/// either is not finite, or `replicas` is zero.
///
/// # Examples
///
/// ```
/// use pai_core::resilience::expected_straggler_dilation;
///
/// // A 1w1g job barely notices a 2% straggler rate...
/// assert!(expected_straggler_dilation(1, 0.02, 2.0) < 1.03);
/// // ...a 128-replica PS job pays nearly the full 2x.
/// assert!(expected_straggler_dilation(128, 0.02, 2.0) > 1.8);
/// ```
pub fn expected_straggler_dilation(replicas: usize, per_replica_prob: f64, slowdown: f64) -> f64 {
    assert!(replicas > 0, "a step needs at least one replica");
    assert!(
        per_replica_prob.is_finite() && (0.0..=1.0).contains(&per_replica_prob),
        "straggler probability must be in [0, 1], got {per_replica_prob}"
    );
    assert!(
        slowdown.is_finite() && slowdown >= 1.0,
        "straggler slowdown must be at least 1, got {slowdown}"
    );
    let any_slow = 1.0 - (1.0 - per_replica_prob).powi(replicas as i32);
    1.0 + (slowdown - 1.0) * any_slow
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dilation_limits() {
        // p = 0: healthy.
        assert_eq!(expected_straggler_dilation(64, 0.0, 3.0), 1.0);
        // p = 1: the full slowdown regardless of width.
        assert!((expected_straggler_dilation(1, 1.0, 3.0) - 3.0).abs() < 1e-12);
        // Wide jobs approach the full slowdown.
        let wide = expected_straggler_dilation(4096, 0.01, 2.0);
        assert!(wide > 1.99, "wide dilation {wide}");
    }

    #[test]
    fn dilation_is_monotone_in_width_and_rate() {
        let mut last = 1.0;
        for n in [1usize, 2, 8, 32, 128] {
            let d = expected_straggler_dilation(n, 0.02, 2.0);
            assert!(d >= last, "dilation must grow with width");
            last = d;
        }
        let mut last = 1.0;
        for p in [0.0, 0.01, 0.05, 0.2, 1.0] {
            let d = expected_straggler_dilation(8, p, 2.0);
            assert!(d >= last, "dilation must grow with the rate");
            last = d;
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn dilation_rejects_bad_probability() {
        let _ = expected_straggler_dilation(4, 1.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn dilation_rejects_speedup_disguised_as_slowdown() {
        let _ = expected_straggler_dilation(4, 0.1, 0.5);
    }
}
