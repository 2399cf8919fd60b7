//! Measurement records produced by a simulated step.

use std::fmt;

use pai_graph::{NodeId, OpClass, OpType};
use pai_hw::{LinkKind, Seconds};
use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// One op's profile record — the `tf.RunMetadata` analog (device
/// placement, kernel timing, op attributes; Sec. II-B1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpProfile {
    /// The op's node in the graph the step ran on; its name is
    /// `graph.node(op).name()`.
    pub op: NodeId,
    /// Op type (MatMul, ElementWise…).
    pub kind: OpType,
    /// Resource class.
    pub class: OpClass,
    /// Scheduled start time within the step.
    pub start: Seconds,
    /// Occupancy duration (kernel time or launch-gap floor).
    pub duration: Seconds,
    /// Pure kernel time before the launch-gap floor was applied.
    pub kernel_time: Seconds,
}

/// How much of a step's time each fault mechanism is responsible
/// for. All zero for a healthy step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultAttribution {
    /// Extra node-compute time waiting for the slowest (straggling or
    /// jittering) replica.
    pub straggler: Seconds,
    /// Extra communication time on the most degraded NIC.
    pub nic: Seconds,
    /// Backoff delay spent retrying failed PS push/pull RPCs.
    pub retry: Seconds,
    /// Wall-clock restart cost charged to this step's crash.
    pub restart: Seconds,
    /// Completed steps re-executed because this step's crash rolled
    /// the job back to its last checkpoint.
    pub lost_steps: usize,
}

impl Default for FaultAttribution {
    fn default() -> Self {
        FaultAttribution {
            straggler: Seconds::ZERO,
            nic: Seconds::ZERO,
            retry: Seconds::ZERO,
            restart: Seconds::ZERO,
            lost_steps: 0,
        }
    }
}

impl FaultAttribution {
    /// Fault-induced delay embedded in the step's own duration
    /// (excludes restart, which is charged between steps).
    pub fn in_step(&self) -> Seconds {
        self.straggler + self.nic + self.retry
    }

    /// True when no fault touched this step.
    pub fn is_clean(&self) -> bool {
        self.in_step().is_zero() && self.restart.is_zero() && self.lost_steps == 0
    }
}

/// Per-component measurement of one training step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepMeasurement {
    /// End-to-end step time (the simulated makespan).
    pub total: Seconds,
    /// Input data I/O time on PCIe.
    pub data_io: Seconds,
    /// Occupancy of compute-bound ops on the GPU.
    pub compute_bound: Seconds,
    /// Occupancy of memory-bound ops on the GPU.
    pub memory_bound: Seconds,
    /// Communication time per medium.
    pub comm_by_link: Vec<(LinkKind, Seconds)>,
    /// Total time ops spent stalled on the kernel-launch gap (the
    /// framework-overhead share of the GPU occupancy).
    pub launch_stall: Seconds,
    /// Number of kernels launched.
    pub kernels: usize,
    /// Per-op records.
    pub ops: Vec<OpProfile>,
    /// Time attributed to injected faults (defaults to clean, so
    /// records serialized before fault support deserialize fine).
    #[serde(default)]
    pub faults: FaultAttribution,
}

impl StepMeasurement {
    /// A measurement synthesized from externally priced component
    /// times — an analytical or DAG step-time backend — instead of an
    /// op-level simulation: no per-op records and no launch accounting, just
    /// the totals the degraded-run folds consume. `total` is the
    /// backend's own combined step time (which may be less than the
    /// component sum under an overlapping backend).
    pub fn from_priced(
        total: Seconds,
        data_io: Seconds,
        compute_bound: Seconds,
        memory_bound: Seconds,
        comm_by_link: Vec<(LinkKind, Seconds)>,
    ) -> StepMeasurement {
        StepMeasurement {
            total,
            data_io,
            compute_bound,
            memory_bound,
            comm_by_link,
            launch_stall: Seconds::ZERO,
            kernels: 0,
            ops: Vec::new(),
            faults: FaultAttribution::default(),
        }
    }

    /// Total communication time across media.
    pub fn comm_total(&self) -> Seconds {
        self.comm_by_link.iter().map(|&(_, t)| t).sum()
    }

    /// Communication time on one medium.
    pub fn comm_on(&self, link: LinkKind) -> Seconds {
        self.comm_by_link
            .iter()
            .filter(|&&(k, _)| k == link)
            .map(|&(_, t)| t)
            .sum()
    }

    /// GPU computation time (both classes).
    pub fn computation(&self) -> Seconds {
        self.compute_bound + self.memory_bound
    }

    /// Fraction of the step spent in a named component, in `[0, 1]`.
    pub fn fraction(&self, part: Seconds) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            part.as_f64() / self.total.as_f64()
        }
    }
}

/// Distribution statistics over a run's step times, plus goodput —
/// the resilience scorecard's raw material.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// Steps measured.
    pub steps: usize,
    /// Median step time.
    pub p50: Seconds,
    /// 95th-percentile step time.
    pub p95: Seconds,
    /// 99th-percentile step time.
    pub p99: Seconds,
    /// Mean step time.
    pub mean: Seconds,
    /// Worst step time.
    pub max: Seconds,
    /// End-to-end wall clock: step times plus recovery overhead
    /// (restarts and re-executed steps).
    pub wall_clock: Seconds,
    /// Useful steps per wall-clock second.
    pub goodput: f64,
    /// Steps whose progress was lost to crashes and re-executed.
    pub lost_steps: usize,
}

impl StepStats {
    /// Statistics over measurements with recovery `overhead` (restart
    /// cost plus re-executed step time) and `lost_steps` folded into
    /// the wall clock.
    pub fn with_overhead(
        measurements: &[StepMeasurement],
        overhead: Seconds,
        lost_steps: usize,
    ) -> Result<StepStats, SimError> {
        if measurements.is_empty() {
            return Err(SimError::NoMeasurements);
        }
        let mut times: Vec<Seconds> = measurements.iter().map(|m| m.total).collect();
        times.sort_by(|a, b| a.as_f64().total_cmp(&b.as_f64()));
        let useful: Seconds = times.iter().copied().sum();
        let wall = useful + overhead;
        let n = times.len();
        let pct = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            times[rank - 1]
        };
        Ok(StepStats {
            steps: n,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            mean: Seconds::from_f64(useful.as_f64() / n as f64),
            max: times[n - 1],
            wall_clock: wall,
            goodput: if wall.is_zero() {
                0.0
            } else {
                n as f64 / wall.as_f64()
            },
            lost_steps,
        })
    }

    /// Statistics over a run with no recovery overhead (a healthy
    /// baseline).
    pub fn from_measurements(measurements: &[StepMeasurement]) -> Result<StepStats, SimError> {
        StepStats::with_overhead(measurements, Seconds::ZERO, 0)
    }
}

impl fmt::Display for StepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps: p50 {}, p95 {}, p99 {}, goodput {:.3} step/s ({} lost)",
            self.steps, self.p50, self.p95, self.p99, self.goodput, self.lost_steps
        )
    }
}

impl fmt::Display for StepMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: io {}, compute {}, memory {}, comm {}, stall {} ({} kernels)",
            self.total,
            self.data_io,
            self.compute_bound,
            self.memory_bound,
            self.comm_total(),
            self.launch_stall,
            self.kernels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StepMeasurement {
        StepMeasurement {
            total: Seconds::from_f64(1.0),
            data_io: Seconds::from_f64(0.1),
            compute_bound: Seconds::from_f64(0.3),
            memory_bound: Seconds::from_f64(0.2),
            comm_by_link: vec![
                (LinkKind::Ethernet, Seconds::from_f64(0.3)),
                (LinkKind::Pcie, Seconds::from_f64(0.1)),
            ],
            launch_stall: Seconds::from_f64(0.05),
            kernels: 42,
            ops: Vec::new(),
            faults: FaultAttribution::default(),
        }
    }

    fn timed(total: f64) -> StepMeasurement {
        StepMeasurement {
            total: Seconds::from_f64(total),
            ..sample()
        }
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert!((m.comm_total().as_f64() - 0.4).abs() < 1e-12);
        assert!((m.comm_on(LinkKind::Ethernet).as_f64() - 0.3).abs() < 1e-12);
        assert!(m.comm_on(LinkKind::NvLink).is_zero());
        assert!((m.computation().as_f64() - 0.5).abs() < 1e-12);
        assert!((m.fraction(m.data_io) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
    }

    #[test]
    fn clean_attribution_by_default() {
        let m = sample();
        assert!(m.faults.is_clean());
        assert!(m.faults.in_step().is_zero());
    }

    #[test]
    fn stats_percentiles_use_nearest_rank() {
        let steps: Vec<StepMeasurement> = (1..=100).map(|i| timed(i as f64)).collect();
        let s = StepStats::from_measurements(&steps).unwrap();
        assert_eq!(s.steps, 100);
        assert_eq!(s.p50.as_f64(), 50.0);
        assert_eq!(s.p95.as_f64(), 95.0);
        assert_eq!(s.p99.as_f64(), 99.0);
        assert_eq!(s.max.as_f64(), 100.0);
        assert!((s.mean.as_f64() - 50.5).abs() < 1e-12);
        assert!((s.wall_clock.as_f64() - 5050.0).abs() < 1e-9);
        assert!((s.goodput - 100.0 / 5050.0).abs() < 1e-12);
        assert_eq!(s.lost_steps, 0);
    }

    #[test]
    fn overhead_lowers_goodput_but_not_percentiles() {
        let steps: Vec<StepMeasurement> = (0..10).map(|_| timed(2.0)).collect();
        let healthy = StepStats::from_measurements(&steps).unwrap();
        let degraded = StepStats::with_overhead(&steps, Seconds::from_f64(30.0), 3).unwrap();
        assert_eq!(healthy.p99, degraded.p99);
        assert!(degraded.goodput < healthy.goodput);
        assert!((degraded.wall_clock.as_f64() - 50.0).abs() < 1e-12);
        assert_eq!(degraded.lost_steps, 3);
        assert!(!degraded.to_string().is_empty());
    }

    #[test]
    fn stats_reject_an_empty_run() {
        assert_eq!(
            StepStats::from_measurements(&[]).unwrap_err(),
            SimError::NoMeasurements
        );
    }

    #[test]
    fn single_step_stats_are_that_step() {
        let s = StepStats::from_measurements(&[timed(3.0)]).unwrap();
        assert_eq!(s.p50.as_f64(), 3.0);
        assert_eq!(s.p99.as_f64(), 3.0);
        assert_eq!(s.max.as_f64(), 3.0);
    }

    #[test]
    fn measurement_without_faults_field_deserializes_clean() {
        use serde::{Deserialize as _, Serialize as _};
        let m = sample();
        // Simulate a record serialized before fault support existed.
        let mut v = m.to_value();
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "faults");
        }
        let back = StepMeasurement::from_value(&v).unwrap();
        assert!(back.faults.is_clean());
        assert_eq!(back.total, m.total);
    }
}
