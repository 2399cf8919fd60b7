//! Edge cases of the fault layer: backoff saturation, degenerate
//! retry counts, and plan validation at the boundaries.

use pai_faults::{ExponentialBackoff, FaultError, FaultInjector, FaultPlan};
use pai_hw::Seconds;

#[test]
fn backoff_saturates_at_the_cap_for_huge_attempt_counts() {
    let b =
        ExponentialBackoff::new(Seconds::from_millis(10.0), 2.0, Seconds::from_f64(1.0)).unwrap();
    // Far past the point where factor^attempt overflows f64, and past
    // i32::MAX where a naive `as i32` cast would wrap the exponent
    // negative and shrink the delay below the base.
    for attempt in [63, 1_000, i32::MAX as u32, i32::MAX as u32 + 1, u32::MAX] {
        assert_eq!(
            b.delay(attempt),
            Seconds::from_f64(1.0),
            "attempt {attempt}"
        );
    }
    // Monotone: no later delay is ever shorter than an earlier one.
    let mut prev = Seconds::ZERO;
    for attempt in 0..128 {
        let d = b.delay(attempt);
        assert!(d >= prev, "delay shrank at attempt {attempt}");
        prev = d;
    }
}

#[test]
fn total_delay_is_closed_form_past_saturation() {
    let b =
        ExponentialBackoff::new(Seconds::from_millis(10.0), 2.0, Seconds::from_f64(1.0)).unwrap();
    // 10ms doubling hits the 1s cap at attempt 7 (1.28s -> capped);
    // attempts 0..=6 contribute the geometric head.
    let head: f64 = (0..7).map(|k| 0.010 * 2f64.powi(k)).sum();
    let attempts = 1_000u32;
    let expected = head + (attempts - 7) as f64 * 1.0;
    assert!((b.total_delay(attempts).as_f64() - expected).abs() < 1e-9);
    // O(1) past saturation: u32::MAX attempts must not iterate 4e9
    // times (this would time out if it did) and must stay finite.
    let huge = b.total_delay(u32::MAX).as_f64();
    assert!(huge.is_finite());
    assert!((huge - (head + (u32::MAX - 7) as f64 * 1.0)).abs() < 1e-3);
}

#[test]
fn unit_factor_backoff_never_grows() {
    let b =
        ExponentialBackoff::new(Seconds::from_millis(5.0), 1.0, Seconds::from_f64(1.0)).unwrap();
    assert_eq!(b.delay(0), b.delay(u32::MAX));
    let total = b.total_delay(1_000_000).as_f64();
    assert!((total - 0.005 * 1e6).abs() < 1e-6);
}

#[test]
fn zero_base_backoff_is_free_even_when_the_power_overflows() {
    let b = ExponentialBackoff::new(Seconds::ZERO, 10.0, Seconds::from_f64(1.0)).unwrap();
    // 0 * 10^huge must stay 0, not become NaN-then-cap.
    assert!(b.delay(u32::MAX).is_zero());
    assert!(b.total_delay(u32::MAX).is_zero());
}

#[test]
fn zero_retry_plans_are_valid_and_inert() {
    let plan = FaultPlan::builder(4).ps_retry(2, 0).build().unwrap();
    assert_eq!(
        plan.faults().len(),
        1,
        "a zero-failure retry is still a fault entry"
    );
    let injector = FaultInjector::new(plan).unwrap();
    // Zero failures -> zero retries -> zero delay on every replica.
    for replica in 0..4 {
        assert!(injector.retry_delay(replica).is_zero(), "replica {replica}");
    }
}

#[test]
fn empty_fault_plans_validate_and_inject_nothing() {
    let plan = FaultPlan::healthy(8).unwrap();
    assert_eq!(plan.jitter(), 0.0);
    assert!(plan.validate().is_ok());
    assert!(plan.faults().is_empty());
    let injector = FaultInjector::new(plan).unwrap();
    for step in 0..64 {
        assert!(injector.crash_at(step).is_none());
        for replica in 0..8 {
            assert_eq!(injector.compute_dilation(replica, step), 1.0);
            assert_eq!(injector.comm_multiplier(replica), 1.0);
        }
    }
}

#[test]
fn zero_replica_plans_are_rejected() {
    assert!(matches!(FaultPlan::healthy(0), Err(FaultError::NoReplicas)));
}

#[test]
fn deserialized_out_of_range_jitter_is_caught_by_validate() {
    // `builder().jitter(1.5)` is rejected at build time; the only way
    // an out-of-range amplitude can exist is across a serialization
    // boundary, where validate() must catch it.
    use serde::Deserialize as _;
    let value = serde_json::from_str(
        r#"{
            "seed": 0,
            "replicas": 2,
            "backoff": {"base_secs": 0.01, "factor": 2.0, "cap_secs": 1.0},
            "jitter": 1.5,
            "faults": []
        }"#,
    )
    .unwrap();
    let bad = FaultPlan::from_value(&value).unwrap();
    assert!(matches!(
        bad.validate(),
        Err(FaultError::InvalidRetry { what: "jitter", .. })
    ));
}
