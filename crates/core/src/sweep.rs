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

use pai_hw::{SweepAxis, SweepPoint};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::model::PerfModel;

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
/// Each job's [`Eq1Terms`](crate::model::Eq1Terms) under `model` are
/// derived once. Each point prices the job under its varied model,
/// `model.with_config(base + point)`, deriving again only the terms its
/// rate moves (`PerfModel::rederive`). The terms it keeps are bitwise
/// those the varied model would derive, so each speedup is bitwise
/// `model.total_time(job) / varied.total_time(job)`.
///
/// Jobs are priced in windows of chunks; each mean folds
/// `speedup × weight` in job-index order, starting from the `-0.0` the
/// sum in [`crate::stats::weighted_mean`] starts from. So each mean is
/// bitwise `weighted_mean` over the speedups, and every sample is
/// bit-for-bit identical at every thread count;
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
    let points: Vec<(SweepPoint, PerfModel)> = relevant_axes(arch)
        .into_iter()
        .flat_map(SweepAxis::points)
        .map(|point| {
            let varied = model.with_config(model.config().with_resource(point));
            (point, varied)
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
                let terms = model.terms(&job);
                let base_time = model.combine(&terms).total.as_f64();
                for (point, varied) in &points {
                    let point_terms = varied.rederive(point.axis, &job, terms);
                    let speedup = base_time / varied.combine(&point_terms).total.as_f64();
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
        .map(|((point, varied), sum)| SweepSample {
            axis: point.axis,
            value: point.value,
            normalized: varied.config().normalized_resource(point.axis),
            mean_speedup: sum / weight_sum,
        })
        .collect();
    SweepCurves { arch, samples }
}

/// Chunks per worker thread in one window of [`class_sweep`]: a window
/// holds one `speedup × weight` per job and sweep point until it is
/// folded into the means, so it bounds the sweep's memory.
const WINDOW_CHUNKS: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::WorkloadFeatures;
    use crate::overlap::OverlapMode;
    use crate::stats::weighted_mean;
    use pai_hw::{Bytes, Flops, HardwareConfig};
    use proptest::prelude::*;

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

    /// `class_sweep` as it priced before it went term-wise: every
    /// Table III point rebuilds the model and prices each job from its
    /// features again with the full kernel.
    fn rebuild_and_reprice(
        model: &PerfModel,
        arch: Architecture,
        jobs: &[WorkloadFeatures],
        weights: &[f64],
    ) -> SweepCurves {
        let base_times: Vec<f64> = jobs.iter().map(|j| model.total_time(j).as_f64()).collect();
        let mut samples = Vec::new();
        for axis in relevant_axes(arch) {
            for &value in axis.candidates() {
                let varied =
                    model.with_config(model.config().with_resource(SweepPoint { axis, value }));
                let speedups: Vec<f64> = jobs
                    .iter()
                    .zip(&base_times)
                    .map(|(job, &t)| t / varied.total_time(job).as_f64())
                    .collect();
                samples.push(SweepSample {
                    axis,
                    value,
                    normalized: varied.config().normalized_resource(axis),
                    mean_speedup: weighted_mean(&speedups, weights),
                });
            }
        }
        SweepCurves { arch, samples }
    }

    fn decades(exponents: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        exponents.prop_map(|e| 10f64.powf(e))
    }

    /// A size from 0 to 1e13: zero, uniform, or log-uniform from 1.
    fn size() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.0..=1e13, decades(0.0..=13.0)]
    }

    /// One class and 1–24 jobs of it with their sweep weights. cNode
    /// counts fall on both sides of the 8-GPU server that bounds input
    /// contention; a quarter of the jobs carry no weights and another
    /// quarter are all zero.
    fn swept_class() -> impl Strategy<Value = (Architecture, Vec<WorkloadFeatures>, Vec<f64>)> {
        let row = (
            prop_oneof![2..=8usize, 2..=4096usize],
            (size(), size(), size(), size()),
            0..4u8,
            prop_oneof![Just(1.0), 0.25..=64.0f64],
        );
        (
            0..Architecture::ALL.len(),
            proptest::collection::vec(row, 1..=24),
        )
            .prop_map(|(arch, rows)| {
                let arch = Architecture::ALL[arch];
                let mut jobs = Vec::with_capacity(rows.len());
                let mut weights = Vec::with_capacity(rows.len());
                for (cnodes, (input, weight, flops, mem), kind, w) in rows {
                    let cnodes = if arch == Architecture::OneWorkerOneGpu {
                        1
                    } else {
                        cnodes
                    };
                    let (input, weight, flops, mem) = match kind {
                        0 => (0.0, 0.0, 0.0, 0.0),
                        1 => (input, 0.0, flops, mem),
                        _ => (input, weight, flops, mem),
                    };
                    jobs.push(
                        WorkloadFeatures::builder(arch)
                            .cnodes(cnodes)
                            .batch_size(32)
                            .input_bytes(Bytes::from_f64(input))
                            .weight_bytes(Bytes::from_f64(weight))
                            .flops(Flops::from_f64(flops))
                            .mem_access_bytes(Bytes::from_f64(mem))
                            .build(),
                    );
                    weights.push(w);
                }
                (arch, jobs, weights)
            })
    }

    /// Two panels agree on every axis and value and on the bits of
    /// every normalized value and mean speedup.
    fn same_bits(got: &SweepCurves, want: &SweepCurves) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.arch, want.arch);
        prop_assert_eq!(got.samples.len(), want.samples.len());
        for (a, b) in got.samples.iter().zip(&want.samples) {
            prop_assert_eq!((a.axis, a.value.to_bits()), (b.axis, b.value.to_bits()));
            prop_assert_eq!(a.normalized.to_bits(), b.normalized.to_bits(), "{:?}", a);
            prop_assert_eq!(
                a.mean_speedup.to_bits(),
                b.mean_speedup.to_bits(),
                "{:?} vs {:?}",
                a,
                b
            );
        }
        Ok(())
    }

    /// The term-wise sweep against the rebuild-and-reprice reference
    /// under both overlap modes, at each of `threads`.
    fn term_wise_sweep_matches_the_reference(
        config: HardwareConfig,
        arch: Architecture,
        jobs: &[WorkloadFeatures],
        weights: &[f64],
        threads: &[usize],
    ) -> Result<(), TestCaseError> {
        for overlap in OverlapMode::ALL {
            let model = PerfModel::new(config, overlap);
            let want = rebuild_and_reprice(&model, arch, jobs, weights);
            for &t in threads {
                let got = class_sweep(&model, arch, jobs, weights, pai_par::Threads::new(t));
                same_bits(&got, &want)?;
            }
        }
        Ok(())
    }

    proptest! {
        /// Every class (1wng's PCIe weight leg, AllReduce-Cluster's
        /// Ethernet+NVLink path, contended input I/O), jobs with no
        /// weights or no work at all, on either base configuration.
        #[test]
        fn term_wise_sweep_is_bitwise_the_rebuild_and_reprice_loop(
            population in swept_class(),
            testbed in any::<bool>(),
        ) {
            let (arch, jobs, weights) = population;
            let config = if testbed {
                HardwareConfig::testbed_default()
            } else {
                HardwareConfig::pai_default()
            };
            term_wise_sweep_matches_the_reference(config, arch, &jobs, &weights, &[1, 4])?;
        }
    }

    #[test]
    fn term_wise_sweep_matches_the_reference_across_windows_and_threads() {
        // 20 chunks: two windows at one thread, and one window split
        // over the workers at two and four, so the in-order fold
        // crosses both chunk and window seams.
        let jobs: Vec<WorkloadFeatures> = (0..20_000)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_75).fract();
                WorkloadFeatures::builder(Architecture::PsWorker)
                    .cnodes(2 + i % 300)
                    .batch_size(64)
                    .input_bytes(Bytes::from_mb(1.0 + 50.0 * x))
                    .weight_bytes(Bytes::from_gb(if i % 7 == 0 { 0.0 } else { 4.0 * x }))
                    .flops(Flops::from_tera(0.05 + x))
                    .mem_access_bytes(Bytes::from_gb(0.5 + 30.0 * (1.0 - x)))
                    .build()
            })
            .collect();
        let weights: Vec<f64> = jobs.iter().map(|j| j.cnodes() as f64).collect();
        term_wise_sweep_matches_the_reference(
            HardwareConfig::pai_default(),
            Architecture::PsWorker,
            &jobs,
            &weights,
            &[1, 2, 4],
        )
        .expect("bitwise the reference");
    }
}
