//! Realization of a [`FaultPlan`]: the pure queries a simulator makes
//! while scheduling work.

use crate::plan::{FaultKind, FaultPlan};
use crate::rng::SplitMix64;
use crate::FaultError;
use pai_hw::Seconds;

/// What a crash at some step costs the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashOutcome {
    /// The replica whose node died.
    pub replica: usize,
    /// Wall-clock restart cost before the job resumes.
    pub restart: Seconds,
    /// Steps re-executed because they post-date the last checkpoint.
    pub lost_steps: usize,
}

/// Deterministic realization of a [`FaultPlan`].
///
/// Every query is a pure function of the plan: two injectors built
/// from equal plans answer every query with bit-identical results,
/// which is what makes degraded simulations reproducible and
/// property-testable.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    compute_mult: Vec<f64>,
    comm_mult: Vec<f64>,
    retry_failures: Vec<u32>,
}

impl FaultInjector {
    /// Realizes `plan`, re-validating it first (plans may arrive from
    /// serialized input).
    pub fn new(plan: FaultPlan) -> Result<Self, FaultError> {
        plan.validate()?;
        let n = plan.replicas();
        let mut compute_mult = vec![1.0; n];
        let mut comm_mult = vec![1.0; n];
        let mut retry_failures = vec![0u32; n];
        for fault in plan.faults() {
            match *fault {
                FaultKind::Straggler { replica, slowdown } => {
                    compute_mult[replica] *= slowdown;
                }
                FaultKind::NicDegradation { replica, factor } => {
                    comm_mult[replica] *= factor;
                }
                FaultKind::PsRetry { replica, failures } => {
                    retry_failures[replica] = retry_failures[replica].saturating_add(failures);
                }
                FaultKind::Crash { .. } => {}
            }
        }
        Ok(FaultInjector {
            plan,
            compute_mult,
            comm_mult,
            retry_failures,
        })
    }

    /// The plan this injector realizes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The number of replicas covered.
    pub fn replicas(&self) -> usize {
        self.plan.replicas()
    }

    /// The compute dilation of `replica` at `step`: persistent
    /// straggler slowdown times the deterministic per-step jitter
    /// draw.
    pub fn compute_dilation(&self, replica: usize, step: usize) -> f64 {
        self.compute_mult[replica] * self.jitter_draw(replica, step)
    }

    /// The communication dilation of `replica` (degraded-NIC
    /// bandwidth loss).
    pub fn comm_multiplier(&self, replica: usize) -> f64 {
        self.comm_mult[replica]
    }

    /// The per-step backoff delay `replica` spends retrying failed PS
    /// RPCs.
    pub fn retry_delay(&self, replica: usize) -> Seconds {
        self.plan
            .backoff()
            .total_delay(self.retry_failures[replica])
    }

    /// The crash landing on `step`, if any. Concurrent crashes merge:
    /// restart costs overlap (max) and the worst checkpoint lag
    /// dominates (max), attributed to the first crashing replica.
    pub fn crash_at(&self, step: usize) -> Option<CrashOutcome> {
        let mut merged: Option<CrashOutcome> = None;
        for fault in self.plan.faults() {
            if let FaultKind::Crash {
                replica,
                at_step,
                restart,
                lost_steps,
            } = *fault
            {
                if at_step != step {
                    continue;
                }
                merged = Some(match merged {
                    None => CrashOutcome {
                        replica,
                        restart,
                        lost_steps,
                    },
                    Some(prev) => CrashOutcome {
                        replica: prev.replica,
                        restart: prev.restart.max(restart),
                        lost_steps: prev.lost_steps.max(lost_steps),
                    },
                });
            }
        }
        merged
    }

    /// The deterministic jitter multiplier for (`replica`, `step`):
    /// a uniform draw from [1, 1 + amplitude), keyed by the plan seed.
    fn jitter_draw(&self, replica: usize, step: usize) -> f64 {
        let amplitude = self.plan.jitter();
        if amplitude == 0.0 {
            return 1.0;
        }
        let lane = ((replica as u64) << 32) ^ step as u64;
        let mut rng = SplitMix64::keyed(self.plan.seed(), lane);
        1.0 + amplitude * rng.unit_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded_plan() -> FaultPlan {
        FaultPlan::builder(4)
            .seed(11)
            .jitter(0.10)
            .straggler(1, 2.0)
            .straggler(1, 1.5)
            .nic_degradation(2, 3.0)
            .crash(0, 5, Seconds::from_f64(20.0), 3)
            .crash(3, 5, Seconds::from_f64(8.0), 7)
            .ps_retry(3, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_injector_is_identity() {
        let inj = FaultInjector::new(FaultPlan::healthy(3).unwrap()).unwrap();
        for replica in 0..3 {
            assert_eq!(inj.compute_dilation(replica, 17), 1.0);
            assert_eq!(inj.comm_multiplier(replica), 1.0);
            assert!(inj.retry_delay(replica).is_zero());
        }
        assert_eq!(inj.crash_at(0), None);
    }

    #[test]
    fn multipliers_compose_and_bound_below_by_one() {
        let inj = FaultInjector::new(degraded_plan()).unwrap();
        assert!((inj.comm_multiplier(2) - 3.0).abs() < 1e-12);
        // Replica 1's two stragglers compose to 2.0 x 1.5; jitter
        // stretches each step by less than 10 % on top.
        let persistent = [1.0, 3.0, 1.0, 1.0];
        for (replica, &m) in persistent.iter().enumerate() {
            for step in 0..20 {
                assert!(inj.compute_dilation(replica, step) >= m);
                assert!(inj.compute_dilation(replica, step) < m * 1.10 + 1e-12);
            }
        }
    }

    #[test]
    fn same_plan_same_realization() {
        let a = FaultInjector::new(degraded_plan()).unwrap();
        let b = FaultInjector::new(degraded_plan()).unwrap();
        for replica in 0..4 {
            for step in 0..50 {
                assert_eq!(
                    a.compute_dilation(replica, step).to_bits(),
                    b.compute_dilation(replica, step).to_bits()
                );
            }
            assert_eq!(a.retry_delay(replica), b.retry_delay(replica));
        }
    }

    #[test]
    fn concurrent_crashes_merge_by_max() {
        let inj = FaultInjector::new(degraded_plan()).unwrap();
        let crash = inj.crash_at(5).unwrap();
        assert_eq!(crash.replica, 0);
        assert!((crash.restart.as_f64() - 20.0).abs() < 1e-12);
        assert_eq!(crash.lost_steps, 7);
        assert_eq!(inj.crash_at(4), None);
    }

    #[test]
    fn invalid_plan_is_rejected_at_injection_too() {
        // A plan deserialized from hostile input bypasses the builder;
        // the injector re-validates.
        let text = serde_json::to_string(&degraded_plan()).unwrap();
        let tampered = text.replace("2.0", "-2.0");
        let value = serde_json::from_str(&tampered).unwrap();
        use serde::Deserialize as _;
        if let Ok(plan) = FaultPlan::from_value(&value) {
            assert!(FaultInjector::new(plan).is_err());
        }
    }
}
