//! The hardware-evolution study (Sec. III-C2, Table III, Fig. 11).
//!
//! For each workload class and each resource axis, every candidate
//! value in Table III is applied (other resources held at their Table I
//! baseline) and the mean per-job speedup is recorded against the
//! normalized resource value — the exact series plotted in Fig. 11.
//!
//! Each Table III point moves one rate, and under Eq. 1 a rate reaches
//! the step time only through the terms that divide by it. So the
//! sweep derives each job's [`Eq1Terms`] once and, per point, derives
//! again only the terms that point's rate moves: one division for
//! Ethernet, GPU FLOPs or GPU memory, two for PCIe (`Td` and the PCIe
//! weight leg).
//!
//! [`Eq1Terms`]: crate::model::Eq1Terms

use pai_hw::{HardwareConfig, SweepAxis, SweepPoint};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::model::PerfModel;
use crate::overlap::OverlapMode;
use crate::steptime::StepTimer;

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
    /// "most sensitive" resource the paper reads off each panel — or
    /// `None` when the panel has no samples (a class with no jobs).
    pub fn most_sensitive_axis(&self) -> Option<SweepAxis> {
        SweepAxis::ALL
            .into_iter()
            .filter(|&axis| !self.curve(axis).is_empty())
            .max_by(|&a, &b| {
                let sa = self.curve(a).last().map(|s| s.mean_speedup).unwrap_or(0.0);
                let sb = self.curve(b).last().map(|s| s.mean_speedup).unwrap_or(0.0);
                sa.total_cmp(&sb)
            })
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
/// Every sample is bit-for-bit identical at every thread count;
/// [`pai_par::Threads::SERIAL`] is the single-threaded oracle. An empty
/// `jobs` gives a panel with no samples.
///
/// # Panics
///
/// Panics if lengths mismatch, any job's class differs from `arch`, or
/// the weights of a non-empty `jobs` do not sum to a positive value.
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

/// Chunks per worker thread in one window of [`class_sweep_with`]: a
/// window holds one `speedup × weight` per job and sweep point until
/// it is folded into the means, so it bounds the sweep's memory.
const WINDOW_CHUNKS: usize = 16;

/// One Table III point: its backend, and the model that derives again
/// the terms its rate moves.
struct Point<R> {
    point: SweepPoint,
    backend: R,
    eq1: PerfModel,
}

/// [`class_sweep`] over any [`crate::steptime::StepTimer`] backend.
///
/// Sweeping varies the hardware, so the caller supplies `rebuild`: a
/// constructor of the backend over an arbitrary configuration (for
/// [`PerfModel`] this is [`PerfModel::with_config`]; a DAG engine
/// rebuilds itself around the varied model). The baseline is priced
/// by `base`, each sweep point by `rebuild(base.hardware() + point)`,
/// which must price the configuration it is given.
///
/// Each job's [`Eq1Terms`](crate::model::Eq1Terms) under
/// `base.hardware()` are derived once. Each point derives again only
/// the terms its rate moves and prices the job from them with
/// [`StepTimer::price_terms`]. The terms it keeps are bitwise those
/// the varied configuration would derive, so each speedup is bitwise
/// `base.total_time(job) / varied.total_time(job)`.
///
/// Jobs are priced in windows of chunks; each mean folds
/// `speedup × weight` in job-index order, starting from the `-0.0` the
/// sum in [`crate::stats::weighted_mean`] starts from. So each mean is
/// bitwise `weighted_mean` over the speedups, at any thread count.
///
/// # Panics
///
/// Panics if lengths mismatch, any job's class differs from `arch`, or
/// the weights of a non-empty `jobs` do not sum to a positive value.
pub fn class_sweep_with<B, R, F, J>(
    base: &B,
    rebuild: F,
    arch: Architecture,
    jobs: &J,
    weights: &[f64],
    threads: pai_par::Threads,
) -> SweepCurves
where
    B: StepTimer + ?Sized,
    R: StepTimer,
    F: Fn(HardwareConfig) -> R,
    J: crate::jobs::Jobs + ?Sized,
{
    assert_eq!(jobs.len(), weights.len(), "one weight per job required");
    for job in jobs.iter_jobs() {
        assert_eq!(job.arch(), arch, "all jobs must belong to the swept class");
    }
    if jobs.is_empty() {
        return SweepCurves {
            arch,
            samples: Vec::new(),
        };
    }
    let weight_sum: f64 = weights.iter().sum();
    assert!(weight_sum > 0.0, "weights must sum to a positive value");
    // The terms do not depend on the overlap mode.
    let eq1 = |config: HardwareConfig| PerfModel::new(config, OverlapMode::Serialized);
    let base_eq1 = eq1(*base.hardware());
    let points: Vec<Point<R>> = relevant_axes(arch)
        .into_iter()
        .flat_map(SweepAxis::points)
        .map(|point| {
            let config = base.hardware().with_resource(point);
            Point {
                point,
                backend: rebuild(config),
                eq1: eq1(config),
            }
        })
        .collect();

    let chunk = pai_par::DEFAULT_CHUNK_SIZE;
    let window = WINDOW_CHUNKS * chunk * threads.get();
    let mut sums = vec![-0.0; points.len()];
    for start in (0..jobs.len()).step_by(window) {
        let end = jobs.len().min(start + window);
        let parts = pai_par::map_chunks(end - start, chunk, threads, |_, range| {
            let range = start + range.start..start + range.end;
            let mut out = Vec::with_capacity(range.len() * points.len());
            for (i, &weight) in range.clone().zip(&weights[range]) {
                let job = jobs.get(i);
                let terms = base_eq1.terms(&job);
                let base_time = base.price_terms(&job, &terms).total.as_f64();
                for p in &points {
                    let varied = p.eq1.rederive(p.point.axis, &job, terms);
                    let speedup = base_time / p.backend.price_terms(&job, &varied).total.as_f64();
                    out.push(speedup * weight);
                }
            }
            out
        });
        for row in parts
            .iter()
            .flat_map(|part| part.chunks_exact(points.len()))
        {
            for (sum, &term) in sums.iter_mut().zip(row) {
                *sum += term;
            }
        }
    }
    let samples = points
        .iter()
        .zip(sums)
        .map(|(p, sum)| SweepSample {
            axis: p.point.axis,
            value: p.point.value,
            normalized: p.backend.hardware().normalized_resource(p.point.axis),
            mean_speedup: sum / weight_sum,
        })
        .collect();
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
        assert_eq!(curves.most_sensitive_axis(), Some(SweepAxis::Ethernet));
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
        assert_eq!(curves.most_sensitive_axis(), Some(SweepAxis::GpuMemory));
    }

    #[test]
    fn an_empty_class_gives_an_empty_panel_with_no_axis() {
        let none: &[WorkloadFeatures] = &[];
        let curves = class_sweep(
            &PerfModel::paper_default(),
            Architecture::AllReduceCluster,
            none,
            &[],
            pai_par::Threads::new(4),
        );
        assert_eq!(curves.arch, Architecture::AllReduceCluster);
        assert!(curves.samples.is_empty());
        assert_eq!(curves.most_sensitive_axis(), None);
    }

    #[test]
    #[should_panic(expected = "weights must sum to a positive value")]
    fn rejects_weights_that_sum_to_zero() {
        let jobs = ps_jobs();
        let _ = class_sweep(
            &PerfModel::paper_default(),
            Architecture::PsWorker,
            &jobs,
            &vec![0.0; jobs.len()],
            pai_par::Threads::SERIAL,
        );
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
