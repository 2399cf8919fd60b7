//! Primitive samplers used by the population generator.
//!
//! `rand` (the only randomness dependency permitted here) ships uniform
//! sampling only, so the classical transforms are implemented locally:
//! Box–Muller for normals, exponentiation for log-normals, the logistic
//! transform for logit-normal shares in `(0, 1)`.

use rand::Rng;

/// A standard-normal draw via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A `Normal(mean, std_dev)` draw.
///
/// # Panics
///
/// Panics if `std_dev` is negative or not finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "standard deviation must be finite and non-negative, got {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// A log-uniform draw over `[lo, hi]` — equal mass per decade, the shape
/// of the broad Fig. 6b weight-size marginals.
///
/// # Panics
///
/// Panics unless `0 < lo <= hi`.
pub fn log_uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(
        lo > 0.0 && hi >= lo,
        "log-uniform needs 0 < lo <= hi, got [{lo}, {hi}]"
    );
    if lo == hi {
        return lo;
    }
    (rng.gen_range(lo.ln()..=hi.ln())).exp()
}

/// The logistic function.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The logit function.
///
/// # Panics
///
/// Panics unless `p` is strictly inside `(0, 1)`.
pub fn logit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "logit is defined on (0, 1), got {p}");
    (p / (1.0 - p)).ln()
}

/// A logit-normal draw: `sigmoid(Normal(logit(median), sigma))`.
///
/// Produces values in `(0, 1)` with median `median`; larger `sigma`
/// pushes mass toward both endpoints (the right-skew needed for
/// "more than 40% of PS jobs above 80% communication").
///
/// # Panics
///
/// Panics unless `median` is strictly inside `(0, 1)`.
pub fn logit_normal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    sigmoid(normal(rng, logit(median), sigma))
}

/// A power-of-two draw in `[2^lo_exp, 2^hi_exp]`, uniform over the
/// exponent — the shape of batch sizes and small cNode counts.
///
/// # Panics
///
/// Panics if `lo_exp > hi_exp`.
pub fn pow2<R: Rng + ?Sized>(rng: &mut R, lo_exp: u32, hi_exp: u32) -> usize {
    assert!(lo_exp <= hi_exp, "pow2 needs lo_exp <= hi_exp");
    1usize << rng.gen_range(lo_exp..=hi_exp)
}

/// Clamps a share into `[lo, hi] ⊂ (0, 1)`.
pub fn clamp_share(p: f64, lo: f64, hi: f64) -> f64 {
    p.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn log_uniform_respects_bounds() {
        let mut r = rng();
        for _ in 0..1_000 {
            let x = log_uniform(&mut r, 1e-3, 1e3);
            assert!((1e-3..=1e3).contains(&x));
        }
    }

    #[test]
    fn log_uniform_is_log_symmetric() {
        let mut r = rng();
        let n = 20_000;
        let below = (0..n)
            .filter(|_| log_uniform(&mut r, 1e-2, 1e2) < 1.0)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "fraction below midpoint: {frac}");
    }

    #[test]
    fn log_uniform_degenerate_interval() {
        let mut r = rng();
        assert_eq!(log_uniform(&mut r, 2.5, 2.5), 2.5);
    }

    #[test]
    fn logit_sigmoid_roundtrip() {
        for &p in &[0.01, 0.3, 0.5, 0.9, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn logit_normal_median_is_calibrated() {
        let mut r = rng();
        let n = 20_000;
        let below = (0..n)
            .filter(|_| logit_normal(&mut r, 0.7, 1.5) < 0.7)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "median off: {frac}");
    }

    #[test]
    fn logit_normal_stays_in_unit_interval() {
        let mut r = rng();
        for _ in 0..1_000 {
            let p = logit_normal(&mut r, 0.5, 3.0);
            assert!(p > 0.0 && p < 1.0);
        }
    }

    #[test]
    fn pow2_bounds() {
        let mut r = rng();
        for _ in 0..200 {
            let v = pow2(&mut r, 1, 3);
            assert!([2, 4, 8].contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "logit is defined")]
    fn logit_rejects_endpoints() {
        let _ = logit(1.0);
    }

    #[test]
    #[should_panic(expected = "0 < lo <= hi")]
    fn log_uniform_rejects_bad_bounds() {
        let mut r = rng();
        let _ = log_uniform(&mut r, 2.0, 1.0);
    }
}
