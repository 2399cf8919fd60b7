//! Architecture projection: what if a PS/Worker job ran on AllReduce?
//! (Sec. III-C1, Fig. 9, Fig. 10.)
//!
//! Mapping rules, verbatim from the paper:
//!
//! - **AllReduce-Local** — "an AllReduce-Local job can have at most 8
//!   #cNodes: for a PS/Worker job with #cNodes > 8, the number of
//!   cNodes is reduced to 8; for those with #cNodes ≤ 8, the cNode
//!   numbers will remain unchanged." Only models that fit entirely in
//!   GPU memory are eligible (weight-replica mode).
//! - **AllReduce-Cluster** — "we retain the original number of cNodes".
//!
//! Two speedups are reported: the single-cNode step-time speedup
//! `T_old / T_new`, and the end-to-end throughput speedup of Eq. 2,
//! which also feels the cNode-count reduction.

use pai_hw::{Bytes, LinkKind, Seconds};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::features::WorkloadFeatures;
use crate::model::{PerfModel, TermSecs, GPUS_PER_SERVER};

/// The projection destinations of Sec. III-C1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProjectionTarget {
    /// Single NVLink server, at most 8 replicas.
    AllReduceLocal,
    /// Cross-server AllReduce, original replica count.
    AllReduceCluster,
}

impl ProjectionTarget {
    /// The architecture a job lands on.
    pub fn architecture(self) -> Architecture {
        match self {
            ProjectionTarget::AllReduceLocal => Architecture::AllReduceLocal,
            ProjectionTarget::AllReduceCluster => Architecture::AllReduceCluster,
        }
    }
}

/// The result of projecting one job onto an AllReduce architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectionOutcome {
    /// The job as it originally ran.
    pub original: WorkloadFeatures,
    /// The job as projected.
    pub projected: WorkloadFeatures,
    /// Where it was projected.
    pub target: ProjectionTarget,
    /// Per-step time before projection.
    pub original_step: Seconds,
    /// Per-step time after projection.
    pub projected_step: Seconds,
    /// `T_old / T_new` for one cNode (Fig. 9a "Single cNode speedup").
    pub single_cnode_speedup: f64,
    /// Eq. 2 throughput ratio new/old (Fig. 9a "Throughput speedup");
    /// feels the cNode reduction of the 8-GPU cap.
    pub throughput_speedup: f64,
}

impl ProjectionOutcome {
    /// True when end-to-end throughput strictly improves.
    pub fn improves_throughput(&self) -> bool {
        improves_throughput(self.throughput_speedup)
    }
}

/// Whether an Eq. 2 throughput ratio new/old is a strict improvement:
/// the rule [`ProjectionOutcome::improves_throughput`] and the
/// characterization row update both apply.
#[inline]
pub(crate) fn improves_throughput(throughput_speedup: f64) -> bool {
    throughput_speedup > 1.0
}

/// Projects a PS/Worker job onto an AllReduce architecture and predicts
/// both speedups with `model`.
///
/// Returns `None` when the job is ineligible: it is not PS/Worker, or
/// (for the replica-mode AllReduce targets) its weights do not fit in
/// one GPU's memory — "the weight size supported by the current
/// AllReduce frameworks is limited by single GPU's memory size" — or
/// it prices at zero step time before or after the move (a record
/// with no work, for which neither speedup is defined).
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, WorkloadFeatures};
/// use pai_core::project::{project, ProjectionTarget};
/// use pai_hw::{Bytes, Flops};
///
/// let job = WorkloadFeatures::builder(Architecture::PsWorker)
///     .cnodes(32)
///     .weight_bytes(Bytes::from_gb(1.0))
///     .flops(Flops::from_tera(0.2))
///     .build();
/// let out = project(&PerfModel::paper_default(), &job, ProjectionTarget::AllReduceLocal)
///     .expect("1 GB fits in GPU memory");
/// assert_eq!(out.projected.cnodes(), 8); // capped
/// assert!(out.single_cnode_speedup > 1.0); // NVLink beats Ethernet+PCIe
/// ```
pub fn project(
    model: &PerfModel,
    job: &WorkloadFeatures,
    target: ProjectionTarget,
) -> Option<ProjectionOutcome> {
    if job.arch() != Architecture::PsWorker {
        return None;
    }
    let out = project_job(model, target, &ProjectedJob::of(job), || {
        let terms = model.terms(job);
        let step = model.combine(&terms).total;
        (
            [terms.compute_bound, terms.memory_bound].map(Seconds::as_f64),
            step.as_f64(),
        )
    })?;
    Some(ProjectionOutcome {
        original: *job,
        projected: job.remapped(target.architecture(), out.cnodes),
        target,
        original_step: out.original_step,
        projected_step: out.projected_step,
        single_cnode_speedup: out.single_cnode_speedup,
        throughput_speedup: out.throughput_speedup,
    })
}

/// The record fields of a PS/Worker job that its projection reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProjectedJob {
    pub(crate) cnodes: usize,
    pub(crate) batch: usize,
    pub(crate) input_bytes: f64,
    pub(crate) weight_bytes: Bytes,
}

impl ProjectedJob {
    #[inline]
    pub(crate) fn of(job: &WorkloadFeatures) -> ProjectedJob {
        ProjectedJob {
            cnodes: job.cnodes(),
            batch: job.batch_size(),
            input_bytes: job.input_bytes().as_f64(),
            weight_bytes: job.weight_bytes(),
        }
    }
}

/// One PS/Worker job on a projection target: its replica count there,
/// both step times and both speedups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Projection {
    pub(crate) cnodes: usize,
    pub(crate) original_step: Seconds,
    pub(crate) projected_step: Seconds,
    pub(crate) single_cnode_speedup: f64,
    pub(crate) throughput_speedup: f64,
}

/// The projection rule of Sec. III-C1 for one PS/Worker job, the one
/// copy [`project`] and the characterization row update call:
///
/// - the memory check: the weights must fit one GPU's memory;
/// - the replica count: capped at 8 on AllReduce-Local, kept on
///   AllReduce-Cluster, at least 2 on either;
/// - the projected step: `Td` and the weight legs derived again for
///   the target class and replica count, both halves of `Tc` kept;
/// - the zero-step exclusion: a job that prices at zero before or
///   after the move has no speedup;
/// - the two speedups, the Eq. 2 one from the two step times.
///
/// `original` gives the job's own `[Tcc, Tcm]` and step time in
/// seconds; it runs only once the job is known to fit.
#[inline]
pub(crate) fn project_job<F>(
    model: &PerfModel,
    target: ProjectionTarget,
    job: &ProjectedJob,
    original: F,
) -> Option<Projection>
where
    F: FnOnce() -> ([f64; 2], f64),
{
    if !model.config().gpu().fits_in_memory(job.weight_bytes) {
        return None;
    }
    let cnodes = match target {
        ProjectionTarget::AllReduceLocal => job.cnodes.min(GPUS_PER_SERVER),
        ProjectionTarget::AllReduceCluster => job.cnodes,
    }
    .max(2);
    let arch = target.architecture();
    let ([compute_bound, memory_bound], original_step) = original();
    let projected = TermSecs {
        data_io: model.data_io_secs(arch, cnodes, job.input_bytes),
        compute_bound,
        memory_bound,
        weight: model.weight_secs(arch, job.weight_bytes.as_f64()),
    };
    let original_step = Seconds::from_f64(original_step);
    let projected_step = Seconds::from_f64(model.total_secs(&projected));
    if original_step.is_zero() || projected_step.is_zero() {
        return None;
    }
    let throughput = |cnodes, step| crate::throughput::throughput(cnodes, step, job.batch);
    Some(Projection {
        cnodes,
        original_step,
        projected_step,
        single_cnode_speedup: original_step.ratio(projected_step),
        throughput_speedup: throughput(cnodes, projected_step)
            / throughput(job.cnodes, original_step),
    })
}

/// [`project`] as it priced before the projection rule kept both halves
/// of `Tc`: the remapped job priced whole with
/// [`PerfModel::total_time`]. The reference the characterization fold's
/// tests compare against.
#[cfg(test)]
pub(crate) fn project_priced<F>(
    model: &PerfModel,
    job: &WorkloadFeatures,
    target: ProjectionTarget,
    original_step: F,
) -> Option<ProjectionOutcome>
where
    F: FnOnce() -> Seconds,
{
    if job.arch() != Architecture::PsWorker {
        return None;
    }
    if !model.config().gpu().fits_in_memory(job.weight_bytes()) {
        return None;
    }
    let cnodes = match target {
        ProjectionTarget::AllReduceLocal => job.cnodes().min(GPUS_PER_SERVER),
        ProjectionTarget::AllReduceCluster => job.cnodes(),
    };
    let projected = job.remapped(target.architecture(), cnodes.max(2));
    let original_step = original_step();
    let projected_step = model.total_time(&projected);
    if original_step.is_zero() || projected_step.is_zero() {
        return None;
    }
    let throughput = |job: &WorkloadFeatures, step: Seconds| {
        crate::throughput::throughput(job.cnodes(), step, job.batch_size())
    };
    Some(ProjectionOutcome {
        original: *job,
        projected,
        target,
        original_step,
        projected_step,
        single_cnode_speedup: original_step.ratio(projected_step),
        throughput_speedup: throughput(&projected, projected_step) / throughput(job, original_step),
    })
}

impl PerfModel {
    /// Projects every eligible PS/Worker job onto `target` in index
    /// order, over any [`crate::jobs::Jobs`] storage; ineligible jobs
    /// are skipped.
    ///
    /// Each chunk filter-maps its own index range and chunks
    /// concatenate in index order, so the outcome sequence is
    /// identical at every thread count.
    pub fn projections<J: crate::jobs::Jobs + ?Sized>(
        &self,
        jobs: &J,
        target: ProjectionTarget,
        threads: pai_par::Threads,
    ) -> Vec<ProjectionOutcome> {
        pai_par::scatter_gather(
            jobs.len(),
            pai_par::DEFAULT_CHUNK_SIZE,
            threads,
            |_, range| {
                range
                    .filter_map(|i| project(self, &jobs.get(i), target))
                    .collect()
            },
        )
    }
}

/// The Eq. 3 speedup bound for communication-bound workloads mapped
/// from PS/Worker to AllReduce-Local:
///
/// ```text
/// [ Sw/(Ethernet×eff) + Sw/(PCIe×eff) ] / [ Sw/(NVLink×eff) ]
/// ```
///
/// With the Table I capacities this is 21×, independent of `Sw` and of
/// any uniform efficiency factor.
pub fn comm_bound_speedup(model: &PerfModel) -> f64 {
    let cfg = model.config();
    let eth = cfg.link(LinkKind::Ethernet).effective_bandwidth();
    let pcie = cfg.link(LinkKind::Pcie).effective_bandwidth();
    let nvlink = cfg.link(LinkKind::NvLink).effective_bandwidth();
    nvlink.as_bytes_per_sec() * (1.0 / eth.as_bytes_per_sec() + 1.0 / pcie.as_bytes_per_sec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::OverlapMode;
    use pai_hw::Flops;
    use proptest::prelude::*;

    fn ps_job(cnodes: usize, weight_gb: f64, flops_t: f64) -> WorkloadFeatures {
        WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(cnodes)
            .batch_size(128)
            .input_bytes(Bytes::from_mb(5.0))
            .weight_bytes(Bytes::from_gb(weight_gb))
            .flops(Flops::from_tera(flops_t))
            .mem_access_bytes(Bytes::from_gb(10.0))
            .build()
    }

    #[test]
    fn eq3_bound_is_21x_at_table_i() {
        let s = comm_bound_speedup(&PerfModel::paper_default());
        assert!((s - 21.0).abs() < 1e-9, "expected 21x, got {s}");
    }

    #[test]
    fn eq3_bound_is_efficiency_invariant_when_uniform() {
        use pai_hw::Efficiency;
        let half = PerfModel::paper_default().with_efficiency(Efficiency::uniform(0.5));
        assert!((comm_bound_speedup(&half) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn local_projection_caps_at_eight() {
        let m = PerfModel::paper_default();
        let out = project(&m, &ps_job(128, 1.0, 0.1), ProjectionTarget::AllReduceLocal)
            .expect("eligible");
        assert_eq!(out.projected.cnodes(), 8);
        assert_eq!(out.projected.arch(), Architecture::AllReduceLocal);
    }

    #[test]
    fn local_projection_keeps_small_jobs() {
        let m = PerfModel::paper_default();
        let out =
            project(&m, &ps_job(4, 1.0, 0.1), ProjectionTarget::AllReduceLocal).expect("eligible");
        assert_eq!(out.projected.cnodes(), 4);
    }

    #[test]
    fn cluster_projection_retains_cnodes() {
        let m = PerfModel::paper_default();
        let out = project(
            &m,
            &ps_job(128, 1.0, 0.1),
            ProjectionTarget::AllReduceCluster,
        )
        .expect("eligible");
        assert_eq!(out.projected.cnodes(), 128);
        assert_eq!(out.projected.arch(), Architecture::AllReduceCluster);
    }

    #[test]
    fn oversized_models_are_ineligible() {
        // Multi-Interests: 239 GB of embeddings cannot replicate on a GPU.
        let m = PerfModel::paper_default();
        assert!(project(
            &m,
            &ps_job(64, 239.0, 0.1),
            ProjectionTarget::AllReduceLocal
        )
        .is_none());
        assert!(project(
            &m,
            &ps_job(64, 239.0, 0.1),
            ProjectionTarget::AllReduceCluster
        )
        .is_none());
    }

    #[test]
    fn zero_work_jobs_are_ineligible() {
        // Nothing to load, compute or synchronize: the job prices at
        // zero step time, so neither speedup is defined.
        let m = PerfModel::paper_default();
        let idle = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(2)
            .build();
        for target in [
            ProjectionTarget::AllReduceLocal,
            ProjectionTarget::AllReduceCluster,
        ] {
            assert!(project(&m, &idle, target).is_none());
            let jobs = [idle, ps_job(2, 1.0, 0.1)];
            assert_eq!(
                m.projections(&jobs[..], target, pai_par::Threads::SERIAL)
                    .len(),
                1
            );
        }
    }

    #[test]
    fn non_ps_jobs_are_ineligible() {
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu).build();
        assert!(project(&m, &job, ProjectionTarget::AllReduceLocal).is_none());
    }

    #[test]
    fn comm_bound_job_approaches_eq3_speedup() {
        // A job that is virtually all weight traffic reaches ~21x
        // single-cNode speedup on AllReduce-Local.
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(8)
            .batch_size(128)
            .input_bytes(Bytes::from_kb(1.0))
            .weight_bytes(Bytes::from_gb(10.0))
            .flops(Flops::from_giga(0.001))
            .mem_access_bytes(Bytes::from_mb(1.0))
            .build();
        let out = project(&m, &job, ProjectionTarget::AllReduceLocal).expect("eligible");
        assert!(
            (out.single_cnode_speedup - 21.0).abs() < 0.2,
            "got {}",
            out.single_cnode_speedup
        );
    }

    #[test]
    fn cluster_projection_speedup_is_bounded_by_1_2x_for_comm_bound() {
        // Sec. III-C1: "Ethernet is the main bottleneck ... the speedup
        // is quite limited, at most 1.2X based on Table I".
        let m = PerfModel::paper_default();
        let job = ps_job(64, 10.0, 1e-6);
        let out = project(&m, &job, ProjectionTarget::AllReduceCluster).expect("eligible");
        assert!(out.single_cnode_speedup > 1.0);
        assert!(
            out.single_cnode_speedup < 1.25,
            "got {}",
            out.single_cnode_speedup
        );
    }

    #[test]
    fn io_bound_jobs_slow_down_on_allreduce() {
        // A job dominated by input I/O suffers from PCIe contention
        // after projection (Sec. III-C1's "slow-down of input data I/O").
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(8)
            .batch_size(64)
            .input_bytes(Bytes::from_gb(1.0))
            .weight_bytes(Bytes::from_mb(1.0))
            .flops(Flops::from_giga(1.0))
            .mem_access_bytes(Bytes::from_mb(100.0))
            .build();
        let out = project(&m, &job, ProjectionTarget::AllReduceLocal).expect("eligible");
        assert!(
            out.single_cnode_speedup < 1.0,
            "got {}",
            out.single_cnode_speedup
        );
        assert!(!out.improves_throughput());
    }

    #[test]
    fn throughput_speedup_feels_cnode_reduction() {
        // 128 -> 8 cNodes: even a big step-time win can lose throughput.
        let m = PerfModel::paper_default();
        let out = project(&m, &ps_job(128, 1.0, 0.5), ProjectionTarget::AllReduceLocal)
            .expect("eligible");
        let expected = out.single_cnode_speedup * 8.0 / 128.0;
        assert!((out.throughput_speedup - expected).abs() < 1e-9);
    }

    #[test]
    fn projections_skip_ineligible() {
        let m = PerfModel::paper_default();
        let jobs = vec![ps_job(16, 1.0, 0.1), ps_job(16, 500.0, 0.1)];
        let outs = m.projections(
            &jobs,
            ProjectionTarget::AllReduceLocal,
            pai_par::Threads::SERIAL,
        );
        assert_eq!(outs.len(), 1);
    }

    /// `project` as it priced before each side was priced once: two
    /// step times, then both Eq. 2 throughputs re-priced from scratch.
    fn four_evaluation_reference(
        model: &PerfModel,
        job: &WorkloadFeatures,
        target: ProjectionTarget,
    ) -> Option<ProjectionOutcome> {
        if job.arch() != Architecture::PsWorker
            || !model.config().gpu().fits_in_memory(job.weight_bytes())
        {
            return None;
        }
        let cnodes = match target {
            ProjectionTarget::AllReduceLocal => job.cnodes().min(GPUS_PER_SERVER),
            ProjectionTarget::AllReduceCluster => job.cnodes(),
        };
        let projected = job.remapped(target.architecture(), cnodes.max(2));
        let original_step = model.total_time(job);
        let projected_step = model.total_time(&projected);
        Some(ProjectionOutcome {
            original: *job,
            projected,
            target,
            original_step,
            projected_step,
            single_cnode_speedup: original_step.ratio(projected_step),
            throughput_speedup: model.throughput(&projected) / model.throughput(job),
        })
    }

    /// An outcome's projected job and the bits of its four floats.
    fn bits(outcome: &Option<ProjectionOutcome>) -> Option<(WorkloadFeatures, [u64; 4])> {
        outcome.as_ref().map(|o| {
            (
                o.projected,
                [
                    o.original_step.as_f64().to_bits(),
                    o.projected_step.as_f64().to_bits(),
                    o.single_cnode_speedup.to_bits(),
                    o.throughput_speedup.to_bits(),
                ],
            )
        })
    }

    fn decades(exponents: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        exponents.prop_map(|e| 10f64.powf(e))
    }

    /// A PS/Worker job with some work on every resource, its weights on
    /// both sides of one GPU's memory.
    fn any_ps_job() -> impl Strategy<Value = WorkloadFeatures> {
        (
            2..=512usize,
            0..=10u32,
            decades(0.0..=10.0),
            decades(0.0..=12.0),
            decades(6.0..=16.0),
            decades(3.0..=12.0),
        )
            .prop_map(|(cnodes, batch_exp, input, weight, flops, mem)| {
                WorkloadFeatures::builder(Architecture::PsWorker)
                    .cnodes(cnodes)
                    .batch_size(1 << batch_exp)
                    .input_bytes(Bytes::from_f64(input))
                    .weight_bytes(Bytes::from_f64(weight))
                    .flops(Flops::from_f64(flops))
                    .mem_access_bytes(Bytes::from_f64(mem))
                    .build()
            })
    }

    proptest! {
        /// Pricing each side once gives bitwise the outcome of the four
        /// evaluations, under both overlap modes.
        #[test]
        fn project_matches_the_four_evaluation_reference(job in any_ps_job()) {
            for overlap in OverlapMode::ALL {
                let model = PerfModel::paper_default().with_overlap(overlap);
                for target in [
                    ProjectionTarget::AllReduceLocal,
                    ProjectionTarget::AllReduceCluster,
                ] {
                    let got = project(&model, &job, target);
                    let want = four_evaluation_reference(&model, &job, target);
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?}", target, job);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
