//! Validated, serializable fault plans.

use crate::{ExponentialBackoff, FaultError};
use pai_hw::Seconds;
use serde::{Deserialize, Serialize};

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A persistent straggler: every compute phase on `replica` is
    /// dilated by `slowdown` (>= 1).
    Straggler {
        /// The affected replica.
        replica: usize,
        /// The compute dilation multiplier.
        slowdown: f64,
    },
    /// A degraded NIC: communication time on `replica` is multiplied
    /// by `factor` (>= 1), modeling bandwidth loss to
    /// `1/factor` of nominal.
    NicDegradation {
        /// The affected replica.
        replica: usize,
        /// The communication dilation multiplier.
        factor: f64,
    },
    /// A node crash: `replica` dies at `at_step`, the job restarts
    /// from its last checkpoint after `restart` seconds, and the
    /// `lost_steps` steps since that checkpoint are re-executed.
    Crash {
        /// The crashing replica.
        replica: usize,
        /// The 0-based step index at which the crash lands.
        at_step: usize,
        /// Wall-clock restart cost (scheduling + checkpoint load).
        restart: Seconds,
        /// Steps of progress lost and re-executed.
        lost_steps: usize,
    },
    /// Transient PS RPC failures: `failures` push/pull attempts on
    /// `replica` fail per step and are retried under the plan's
    /// backoff policy.
    PsRetry {
        /// The affected replica.
        replica: usize,
        /// Failed attempts per step.
        failures: u32,
    },
}

impl FaultKind {
    /// The replica this fault lands on.
    pub fn replica(&self) -> usize {
        match *self {
            FaultKind::Straggler { replica, .. }
            | FaultKind::NicDegradation { replica, .. }
            | FaultKind::Crash { replica, .. }
            | FaultKind::PsRetry { replica, .. } => replica,
        }
    }

    fn validate(&self, replicas: usize) -> Result<(), FaultError> {
        let replica = self.replica();
        if replica >= replicas {
            return Err(FaultError::ReplicaOutOfRange { replica, replicas });
        }
        match *self {
            FaultKind::Straggler { slowdown, .. } => {
                if !slowdown.is_finite() || slowdown < 1.0 {
                    return Err(FaultError::InvalidSlowdown { value: slowdown });
                }
            }
            FaultKind::NicDegradation { factor, .. } => {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(FaultError::InvalidNicFactor { value: factor });
                }
            }
            FaultKind::Crash { restart, .. } => {
                let cost = restart.as_f64();
                if !cost.is_finite() || cost < 0.0 {
                    return Err(FaultError::InvalidRestartCost { value: cost });
                }
            }
            FaultKind::PsRetry { failures, .. } => {
                // A bound keeping total backoff delay finite and the
                // simulation honest: >64 failed RPCs per step is a
                // dead server, not a transient fault.
                if failures > 64 {
                    return Err(FaultError::InvalidRetry {
                        what: "failures",
                        value: failures as f64,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A deterministic, validated set of faults over a replica group.
///
/// Construction goes through [`FaultPlan::builder`], which validates
/// every fault and returns typed [`FaultError`]s. A plan is inert
/// data; [`crate::FaultInjector`] realizes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    replicas: usize,
    backoff: ExponentialBackoff,
    #[serde(default)]
    jitter: f64,
    #[serde(default)]
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// Starts building a plan over `replicas` replicas.
    pub fn builder(replicas: usize) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed: 0,
            replicas,
            backoff: ExponentialBackoff::ps_default(),
            jitter: 0.0,
            faults: Vec::new(),
        }
    }

    /// A fault-free plan over `replicas` replicas (the healthy
    /// baseline).
    pub fn healthy(replicas: usize) -> Result<FaultPlan, FaultError> {
        FaultPlan::builder(replicas).build()
    }

    /// The seed driving per-step jitter realization.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of replicas the plan covers.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The retry-delay policy for transient PS failures.
    pub fn backoff(&self) -> ExponentialBackoff {
        self.backoff
    }

    /// The relative amplitude of benign per-step compute jitter.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// The validated faults, in insertion order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Re-validates a plan that crossed a serialization boundary.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.replicas == 0 {
            return Err(FaultError::NoReplicas);
        }
        self.backoff.validate()?;
        if !self.jitter.is_finite() || !(0.0..1.0).contains(&self.jitter) {
            return Err(FaultError::InvalidRetry {
                what: "jitter",
                value: self.jitter,
            });
        }
        for fault in &self.faults {
            fault.validate(self.replicas)?;
        }
        Ok(())
    }
}

/// Accumulates faults and validates them into a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    replicas: usize,
    backoff: ExponentialBackoff,
    jitter: f64,
    faults: Vec<FaultKind>,
}

impl FaultPlanBuilder {
    /// Sets the seed driving jitter realization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the PS retry backoff policy.
    pub fn backoff(mut self, backoff: ExponentialBackoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Adds benign per-(replica, step) compute jitter with relative
    /// amplitude `amplitude` in [0, 1): each step's compute dilates by
    /// a uniform draw from [1, 1 + amplitude).
    pub fn jitter(mut self, amplitude: f64) -> Self {
        self.jitter = amplitude;
        self
    }

    /// Adds a persistent straggler on `replica`.
    pub fn straggler(mut self, replica: usize, slowdown: f64) -> Self {
        self.faults.push(FaultKind::Straggler { replica, slowdown });
        self
    }

    /// Adds NIC bandwidth degradation on `replica`.
    pub fn nic_degradation(mut self, replica: usize, factor: f64) -> Self {
        self.faults
            .push(FaultKind::NicDegradation { replica, factor });
        self
    }

    /// Adds a crash of `replica` at `at_step` with the given recovery
    /// profile.
    pub fn crash(
        mut self,
        replica: usize,
        at_step: usize,
        restart: Seconds,
        lost_steps: usize,
    ) -> Self {
        self.faults.push(FaultKind::Crash {
            replica,
            at_step,
            restart,
            lost_steps,
        });
        self
    }

    /// Adds `failures` transient PS RPC failures per step on
    /// `replica`.
    pub fn ps_retry(mut self, replica: usize, failures: u32) -> Self {
        self.faults.push(FaultKind::PsRetry { replica, failures });
        self
    }

    /// Validates everything and produces the plan.
    pub fn build(self) -> Result<FaultPlan, FaultError> {
        let plan = FaultPlan {
            seed: self.seed,
            replicas: self.replicas,
            backoff: self.backoff,
            jitter: self.jitter,
            faults: self.faults,
        };
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_a_full_plan() {
        let plan = FaultPlan::builder(4)
            .seed(7)
            .jitter(0.05)
            .straggler(1, 1.8)
            .nic_degradation(2, 4.0)
            .crash(0, 10, Seconds::from_f64(30.0), 5)
            .ps_retry(3, 2)
            .build()
            .unwrap();
        assert_eq!(plan.faults().len(), 4);
        assert_eq!(plan.replicas(), 4);
        assert!(FaultPlan::healthy(4).unwrap().faults().is_empty());
    }

    #[test]
    fn builder_rejects_invalid_input() {
        assert_eq!(
            FaultPlan::builder(0).build().unwrap_err(),
            FaultError::NoReplicas
        );
        assert!(matches!(
            FaultPlan::builder(2).straggler(2, 1.5).build(),
            Err(FaultError::ReplicaOutOfRange {
                replica: 2,
                replicas: 2
            })
        ));
        assert!(matches!(
            FaultPlan::builder(2).straggler(0, 0.5).build(),
            Err(FaultError::InvalidSlowdown { .. })
        ));
        assert!(matches!(
            FaultPlan::builder(2).straggler(0, f64::NAN).build(),
            Err(FaultError::InvalidSlowdown { .. })
        ));
        assert!(matches!(
            FaultPlan::builder(2).nic_degradation(0, 0.9).build(),
            Err(FaultError::InvalidNicFactor { .. })
        ));
        assert!(matches!(
            FaultPlan::builder(2).ps_retry(0, 1000).build(),
            Err(FaultError::InvalidRetry { .. })
        ));
        assert!(matches!(
            FaultPlan::builder(2).jitter(1.5).build(),
            Err(FaultError::InvalidRetry { what: "jitter", .. })
        ));
    }

    #[test]
    fn validate_catches_deserialized_negative_restart() {
        // A negative restart cost cannot be built through the API
        // (Seconds::from_f64 forbids it); it can only arrive through
        // deserialization, which validate() must reject.
        let good = FaultPlan::builder(2)
            .crash(0, 3, Seconds::from_f64(17.5), 1)
            .build()
            .unwrap();
        let tampered = serde_json::to_string(&good)
            .unwrap()
            .replace("17.5", "-17.5");
        let plan = FaultPlan::from_value(&serde_json::from_str(&tampered).unwrap()).unwrap();
        assert!(matches!(
            plan.validate(),
            Err(FaultError::InvalidRestartCost { .. })
        ));
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::builder(3)
            .seed(99)
            .jitter(0.02)
            .straggler(1, 2.5)
            .crash(2, 4, Seconds::from_f64(12.0), 2)
            .build()
            .unwrap();
        let text = serde_json::to_string(&plan).unwrap();
        let back = FaultPlan::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(plan, back);
        let _ = plan.to_value();
    }
}
