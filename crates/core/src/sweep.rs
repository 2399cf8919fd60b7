//! The hardware-evolution study (Sec. III-C2, Table III, Fig. 11).
//!
//! For each workload class and each resource axis, every candidate
//! value in Table III is applied (other resources held at their Table I
//! baseline) and the mean per-job speedup is recorded against the
//! normalized resource value — the exact series plotted in Fig. 11.

use pai_hw::{HardwareConfig, SweepAxis, SweepPoint};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::model::PerfModel;
use crate::stats::weighted_mean;

/// One point of a Fig. 11 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepSample {
    /// Which resource was varied.
    pub axis: SweepAxis,
    /// The candidate value in the axis's Table III unit.
    pub value: f64,
    /// The candidate normalized by the Table I baseline (Fig. 11 x-axis).
    pub normalized: f64,
    /// Mean per-job speedup `T_base / T_new` (Fig. 11 y-axis).
    pub mean_speedup: f64,
}

/// A full Fig. 11 panel: every axis's curve for one workload class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCurves {
    /// The class the panel describes.
    pub arch: Architecture,
    /// Samples grouped by axis, each sorted by normalized value.
    pub samples: Vec<SweepSample>,
}

impl SweepCurves {
    /// The curve for one axis, sorted by normalized resource value.
    pub fn curve(&self, axis: SweepAxis) -> Vec<SweepSample> {
        let mut points: Vec<SweepSample> = self
            .samples
            .iter()
            .copied()
            .filter(|s| s.axis == axis)
            .collect();
        points.sort_by(|a, b| a.normalized.total_cmp(&b.normalized));
        points
    }

    /// The axis with the largest speedup at its top candidate — the
    /// "most sensitive" resource the paper reads off each panel.
    /// Falls back to the GPU axis when the panel has no samples.
    pub fn most_sensitive_axis(&self) -> SweepAxis {
        SweepAxis::ALL
            .into_iter()
            .filter(|&axis| !self.curve(axis).is_empty())
            .max_by(|&a, &b| {
                let sa = self.curve(a).last().map(|s| s.mean_speedup).unwrap_or(0.0);
                let sb = self.curve(b).last().map(|s| s.mean_speedup).unwrap_or(0.0);
                sa.total_cmp(&sb)
            })
            .unwrap_or(SweepAxis::ALL[0])
    }
}

/// Which axes matter for a class: Ethernet only affects cluster-mode
/// jobs; Fig. 11 accordingly omits the Ethernet curve from the 1w1g,
/// 1wng and AllReduce-Local panels.
pub fn relevant_axes(arch: Architecture) -> Vec<SweepAxis> {
    SweepAxis::ALL
        .into_iter()
        .filter(|&axis| {
            axis != SweepAxis::Ethernet
                || matches!(
                    arch,
                    Architecture::PsWorker | Architecture::AllReduceCluster
                )
        })
        .collect()
}

/// Runs the Table III sweep for one population of same-class jobs,
/// over any [`crate::jobs::Jobs`] storage.
///
/// `weights` weighs jobs in the mean (all-ones for the job-level mean).
///
/// The per-job base times and the per-job speedups at each sweep point
/// are chunked maps gathered in index order, so the speedup vector —
/// and therefore the weighted mean, which folds it in the same order —
/// is bit-for-bit identical at every thread count;
/// [`pai_par::Threads::SERIAL`] is the single-threaded oracle.
///
/// # Panics
///
/// Panics if `jobs` is empty, lengths mismatch, or any job's class
/// differs from `arch`.
pub fn class_sweep<J: crate::jobs::Jobs + ?Sized>(
    model: &PerfModel,
    arch: Architecture,
    jobs: &J,
    weights: &[f64],
    threads: pai_par::Threads,
) -> SweepCurves {
    class_sweep_with(
        model,
        |config| model.with_config(config),
        arch,
        jobs,
        weights,
        threads,
    )
}

/// [`class_sweep`] over any [`crate::steptime::StepTimer`] backend.
///
/// Sweeping varies the hardware, so the caller supplies `rebuild`: a
/// constructor of the backend over an arbitrary configuration (for
/// [`PerfModel`] this is [`PerfModel::with_config`]; a DAG engine
/// rebuilds itself around the varied model). The baseline is priced
/// by `base`, each sweep point by `rebuild(base.hardware() + point)`.
///
/// # Panics
///
/// Panics if `jobs` is empty, lengths mismatch, or any job's class
/// differs from `arch`.
pub fn class_sweep_with<B, R, F, J>(
    base: &B,
    rebuild: F,
    arch: Architecture,
    jobs: &J,
    weights: &[f64],
    threads: pai_par::Threads,
) -> SweepCurves
where
    B: crate::steptime::StepTimer + ?Sized,
    R: crate::steptime::StepTimer,
    F: Fn(HardwareConfig) -> R,
    J: crate::jobs::Jobs + ?Sized,
{
    assert!(!jobs.is_empty(), "sweep needs at least one job");
    assert_eq!(jobs.len(), weights.len(), "one weight per job required");
    for job in jobs.iter_jobs() {
        assert_eq!(job.arch(), arch, "all jobs must belong to the swept class");
    }
    let chunk = pai_par::DEFAULT_CHUNK_SIZE;
    let base_times: Vec<f64> = pai_par::scatter_gather(jobs.len(), chunk, threads, |_, range| {
        range
            .map(|i| base.total_time(&jobs.get(i)).as_f64())
            .collect()
    });
    let mut samples = Vec::new();
    for axis in relevant_axes(arch) {
        for &value in axis.candidates() {
            let point = SweepPoint { axis, value };
            let varied = rebuild(base.hardware().with_resource(point));
            let speedups: Vec<f64> =
                pai_par::scatter_gather(jobs.len(), chunk, threads, |_, range| {
                    range
                        .map(|i| base_times[i] / varied.total_time(&jobs.get(i)).as_f64())
                        .collect()
                });
            samples.push(SweepSample {
                axis,
                value,
                normalized: varied.hardware().normalized_resource(axis),
                mean_speedup: weighted_mean(&speedups, weights),
            });
        }
    }
    SweepCurves { arch, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::WorkloadFeatures;
    use pai_hw::{Bytes, Flops};

    fn ps_jobs() -> Vec<WorkloadFeatures> {
        (1..=4)
            .map(|i| {
                WorkloadFeatures::builder(Architecture::PsWorker)
                    .cnodes(8 * i)
                    .batch_size(128)
                    .input_bytes(Bytes::from_mb(5.0))
                    .weight_bytes(Bytes::from_gb(i as f64))
                    .flops(Flops::from_tera(0.2))
                    .mem_access_bytes(Bytes::from_gb(10.0))
                    .build()
            })
            .collect()
    }

    #[test]
    fn ps_class_is_most_sensitive_to_ethernet() {
        // Fig. 11c: "PS/Worker workloads are most sensitive to Ethernet
        // bandwidth".
        let jobs = ps_jobs();
        let curves = class_sweep(
            &PerfModel::paper_default(),
            Architecture::PsWorker,
            &jobs,
            &vec![1.0; jobs.len()],
            pai_par::Threads::SERIAL,
        );
        assert_eq!(curves.most_sensitive_axis(), SweepAxis::Ethernet);
    }

    #[test]
    fn downgrading_ethernet_slows_ps_jobs() {
        // Table III includes 10 Gbps < the 25 Gbps baseline: Fig. 11c's
        // Ethernet curve dips below 1.
        let jobs = ps_jobs();
        let curves = class_sweep(
            &PerfModel::paper_default(),
            Architecture::PsWorker,
            &jobs,
            &vec![1.0; jobs.len()],
            pai_par::Threads::SERIAL,
        );
        let eth = curves.curve(SweepAxis::Ethernet);
        assert!(eth.first().expect("candidates").normalized < 1.0);
        assert!(eth.first().expect("candidates").mean_speedup < 1.0);
        assert!(eth.last().expect("candidates").mean_speedup > 1.0);
    }

    #[test]
    fn speedup_is_monotone_in_bandwidth() {
        let jobs = ps_jobs();
        let curves = class_sweep(
            &PerfModel::paper_default(),
            Architecture::PsWorker,
            &jobs,
            &vec![1.0; jobs.len()],
            pai_par::Threads::SERIAL,
        );
        for axis in relevant_axes(Architecture::PsWorker) {
            let curve = curves.curve(axis);
            for pair in curve.windows(2) {
                assert!(
                    pair[1].mean_speedup >= pair[0].mean_speedup - 1e-12,
                    "{axis:?} curve not monotone"
                );
            }
        }
    }

    #[test]
    fn ethernet_axis_is_irrelevant_for_local_classes() {
        assert!(!relevant_axes(Architecture::OneWorkerOneGpu).contains(&SweepAxis::Ethernet));
        assert!(!relevant_axes(Architecture::AllReduceLocal).contains(&SweepAxis::Ethernet));
        assert!(relevant_axes(Architecture::PsWorker).contains(&SweepAxis::Ethernet));
        assert!(relevant_axes(Architecture::AllReduceCluster).contains(&SweepAxis::Ethernet));
    }

    #[test]
    fn memory_bound_1w1g_prefers_memory_bandwidth() {
        // Fig. 11a: "1w1g workloads are most sensitive to GPU memory
        // bandwidth" — true for the memory-heavy population PAI hosts.
        let jobs: Vec<WorkloadFeatures> = (1..=3)
            .map(|i| {
                WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
                    .batch_size(64)
                    .input_bytes(Bytes::from_mb(10.0))
                    .flops(Flops::from_giga(50.0 * i as f64))
                    .mem_access_bytes(Bytes::from_gb(8.0 * i as f64))
                    .build()
            })
            .collect();
        let curves = class_sweep(
            &PerfModel::paper_default(),
            Architecture::OneWorkerOneGpu,
            &jobs,
            &vec![1.0; jobs.len()],
            pai_par::Threads::SERIAL,
        );
        assert_eq!(curves.most_sensitive_axis(), SweepAxis::GpuMemory);
    }

    #[test]
    #[should_panic(expected = "swept class")]
    fn rejects_mixed_classes() {
        let wrong = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu).build();
        let _ = class_sweep(
            &PerfModel::paper_default(),
            Architecture::PsWorker,
            &[wrong][..],
            &[1.0],
            pai_par::Threads::SERIAL,
        );
    }
}
