//! Strong-scaling analysis: how throughput grows with replica count.
//!
//! Eq. 2 makes throughput `n / T(n) × batch`; the architecture decides
//! how `T(n)` moves — PS workers are independent (flat `T`), local
//! AllReduce replicas contend for input PCIe (growing `T`). This module
//! sweeps `n` for a per-replica feature profile and reports the scaling
//! curve and efficiency, backing statements like PEARL "achieves good
//! scalability in terms of training throughput with the increase of
//! computation resources" (Sec. IV-C).

use serde::{Deserialize, Serialize};

use crate::features::WorkloadFeatures;
use crate::model::PerfModel;

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Replica count.
    pub cnodes: usize,
    /// Per-step time at this count.
    pub step_seconds: f64,
    /// Eq. 2 throughput, samples per second.
    pub throughput: f64,
    /// Throughput relative to ideal linear scaling from the smallest
    /// point (1.0 = perfect).
    pub efficiency: f64,
}

/// Sweeps replica counts for a per-replica profile.
///
/// `base` supplies the per-replica features; its cNode count is
/// replaced by each entry of `counts` (each must be valid for the
/// class — e.g. ≤ 8 for AllReduce-Local).
///
/// # Panics
///
/// Panics if `counts` is empty or contains a count invalid for the
/// class.
///
/// # Examples
///
/// ```
/// use pai_core::scaling::scaling_curve;
/// use pai_core::{Architecture, PerfModel, WorkloadFeatures};
/// use pai_hw::{Bytes, Flops};
///
/// let base = WorkloadFeatures::builder(Architecture::AllReduceLocal)
///     .cnodes(2)
///     .batch_size(512)
///     .input_bytes(Bytes::from_mb(1.0))
///     .weight_bytes(Bytes::from_gb(3.0))
///     .flops(Flops::from_tera(0.3))
///     .mem_access_bytes(Bytes::from_gb(25.0))
///     .build();
/// let curve = scaling_curve(&PerfModel::testbed_default(), &base, &[2, 4, 8]);
/// assert_eq!(curve.len(), 3);
/// assert!(curve[2].throughput > curve[0].throughput);
/// ```
pub fn scaling_curve(
    model: &PerfModel,
    base: &WorkloadFeatures,
    counts: &[usize],
) -> Vec<ScalingPoint> {
    assert!(
        !counts.is_empty(),
        "a scaling curve needs at least one point"
    );
    let first = counts[0];
    let first_job = base.remapped(base.arch(), first);
    let first_throughput = model.throughput(&first_job);
    counts
        .iter()
        .map(|&n| {
            let job = base.remapped(base.arch(), n);
            let step = model.total_time(&job);
            let throughput = model.throughput(&job);
            let ideal = first_throughput * n as f64 / first as f64;
            ScalingPoint {
                cnodes: n,
                step_seconds: step.as_f64(),
                throughput,
                efficiency: throughput / ideal,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use pai_hw::{Bytes, Flops};

    fn profile(arch: Architecture) -> WorkloadFeatures {
        WorkloadFeatures::builder(arch)
            .cnodes(2)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(50.0))
            .weight_bytes(Bytes::from_gb(1.0))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(Bytes::from_gb(20.0))
            .build()
    }

    #[test]
    fn ps_scaling_is_linear() {
        // PS workers are independent under the simple model: per-step
        // time is flat, so throughput scales perfectly.
        let curve = scaling_curve(
            &PerfModel::paper_default(),
            &profile(Architecture::PsWorker),
            &[2, 8, 32, 128],
        );
        for p in &curve {
            assert!((p.efficiency - 1.0).abs() < 1e-9, "{p:?}");
        }
        assert!(curve[3].throughput > 60.0 * curve[0].throughput / 2.0);
    }

    #[test]
    fn allreduce_local_scaling_degrades_with_input_contention() {
        // Shared PCIe input loading dilates the step as replicas grow.
        let curve = scaling_curve(
            &PerfModel::paper_default(),
            &profile(Architecture::AllReduceLocal),
            &[2, 4, 8],
        );
        assert!(curve[2].step_seconds > curve[0].step_seconds);
        assert!(curve[2].efficiency < 1.0);
        assert!(curve[2].efficiency > 0.5, "{}", curve[2].efficiency);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty_counts() {
        let _ = scaling_curve(
            &PerfModel::paper_default(),
            &profile(Architecture::PsWorker),
            &[],
        );
    }
}
