//! The `tf.RunMetadata` analog plus job meta information (Sec. II-B1).
//!
//! "Run metadata provides behavior of a single computation node (using
//! one GPU device), and the job meta information provides supplementary
//! information such as how many workers the job uses."

use std::collections::BTreeMap;
use std::fmt;

use pai_core::Architecture;
use pai_hw::Seconds;
use pai_sim::{OpProfile, StepMeasurement};
use serde::{Deserialize, Serialize};

/// Job-level resource-allocation information.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobMeta {
    /// Training architecture.
    pub arch: Architecture,
    /// Number of computation nodes.
    pub cnodes: usize,
    /// Per-replica batch size.
    pub batch_size: usize,
}

/// One profiled step: per-op records plus job metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetadata {
    /// The job meta information.
    pub job: JobMeta,
    /// The single-replica step measurement.
    pub step: StepMeasurement,
}

impl RunMetadata {
    /// Assembles run metadata.
    pub fn new(job: JobMeta, step: StepMeasurement) -> Self {
        RunMetadata { job, step }
    }

    /// Total kernel time grouped by op kind label ("MatMul",
    /// "ElementWise"…), sorted by label — the view behind statements
    /// like Fig. 13a's "2.8x for MatMul".
    pub fn time_by_kind(&self) -> BTreeMap<&'static str, Seconds> {
        let mut out: BTreeMap<&'static str, Seconds> = BTreeMap::new();
        for op in &self.step.ops {
            *out.entry(op.kind.label()).or_insert(Seconds::ZERO) += op.duration;
        }
        out
    }

    /// The `k` longest-running ops, descending; ties keep profile
    /// order.
    pub fn top_ops(&self, k: usize) -> Vec<&OpProfile> {
        let mut ops: Vec<&OpProfile> = self.step.ops.iter().collect();
        ops.sort_by(|a, b| b.duration.as_f64().total_cmp(&a.duration.as_f64()));
        ops.truncate(k);
        ops
    }

    /// Fraction of GPU occupancy lost to the kernel-launch gap — the
    /// framework overhead share (Sec. VI-A3).
    pub fn framework_overhead_fraction(&self) -> f64 {
        let busy = self.step.computation();
        if busy.is_zero() {
            0.0
        } else {
            self.step.launch_stall.as_f64() / busy.as_f64()
        }
    }
}

impl fmt::Display for RunMetadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} (batch {}): {}",
            self.job.arch, self.job.cnodes, self.job.batch_size, self.step
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_collectives::CommPlan;
    use pai_graph::op::{elementwise, matmul};
    use pai_graph::{Graph, Op};
    use pai_sim::{SimConfig, StepSimulator};

    fn meta() -> RunMetadata {
        let mut g = Graph::new("toy");
        let a = g.add(Op::new("mm", matmul(1024, 1024, 1024)));
        let b = g.add(Op::new("relu", elementwise(1, 1024 * 1024, 1)));
        g.connect(a, b);
        let step = StepSimulator::new(SimConfig::testbed())
            .run(&g, &CommPlan::new(), 1)
            .unwrap();
        RunMetadata::new(
            JobMeta {
                arch: Architecture::OneWorkerOneGpu,
                cnodes: 1,
                batch_size: 32,
            },
            step,
        )
    }

    #[test]
    fn time_by_kind_partitions_all_ops() {
        let m = meta();
        let by_kind = m.time_by_kind();
        assert!(by_kind.contains_key("MatMul"));
        assert!(by_kind.contains_key("ElementWise"));
        let sum: f64 = by_kind.values().map(|t| t.as_f64()).sum();
        assert!((sum - m.step.computation().as_f64()).abs() < 1e-12);
    }

    #[test]
    fn top_ops_sorted_descending() {
        let m = meta();
        let top = m.top_ops(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].duration >= top[1].duration);
        assert_eq!(m.top_ops(100).len(), 2);
    }

    #[test]
    fn overhead_fraction_is_bounded() {
        let m = meta();
        let f = m.framework_overhead_fraction();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!meta().to_string().is_empty());
    }
}
