//! The backend switch: one [`StepTimer`] over either pricing model.
//!
//! [`StepTimeEngine`] wraps the analytical [`PerfModel`] and routes
//! each job through either the closed form
//! ([`StepTimeBackend::Additive`]) or the DAG critical-path evaluator
//! ([`StepTimeBackend::Dag`]) — so projections, sweeps, schedules and
//! simulations downstream of [`pai_core::StepTimer`] run on either
//! backend behind this one switch.

use pai_core::{Architecture, ComponentTimes, Eq1Terms, PerfModel, StepTimer, WorkloadFeatures};
use pai_hw::HardwareConfig;
use serde::{Deserialize, Serialize};

use crate::evaluate::OverlapStrategy;
use crate::lower::{Layered, DEFAULT_LAYERS};
use crate::step::NetworkPath;

/// Which pricing model a [`StepTimeEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StepTimeBackend {
    /// The paper's closed form, untouched — the default everywhere.
    Additive,
    /// The DAG critical-path evaluator under one overlap strategy.
    Dag(OverlapStrategy),
}

impl StepTimeBackend {
    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match self {
            StepTimeBackend::Additive => "additive",
            StepTimeBackend::Dag(s) => s.label(),
        }
    }
}

/// A [`StepTimer`] that prices jobs on a selectable backend.
///
/// Population jobs exist only as feature records, so the DAG backends
/// price the canonical [`from_features`](crate::lower::from_features)
/// lowering (its `layers` granularity is configurable), in closed form
/// and without building the step: every backward stage of that step
/// lasts the same and every message costs the same, so the FIFO link
/// clock peaks at an endpoint. [`evaluate`](crate::evaluate()) over
/// `from_features` stays the reference, property-tested to agree
/// within 1e-9. Pricing is a pure function of the job, so callers may
/// fan jobs out through `pai-par` at any thread count and get
/// bit-identical results.
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, StepTimer, WorkloadFeatures};
/// use pai_dag::{OverlapStrategy, StepTimeBackend, StepTimeEngine};
/// use pai_hw::{Bytes, Flops};
///
/// let job = WorkloadFeatures::builder(Architecture::PsWorker)
///     .cnodes(16)
///     .batch_size(256)
///     .input_bytes(Bytes::from_mb(10.0))
///     .weight_bytes(Bytes::from_gb(1.0))
///     .flops(Flops::from_tera(0.5))
///     .mem_access_bytes(Bytes::from_gb(20.0))
///     .build();
/// let model = PerfModel::paper_default();
/// let additive = StepTimeEngine::new(model, StepTimeBackend::Additive);
/// let wfbp = StepTimeEngine::new(model, StepTimeBackend::Dag(OverlapStrategy::Wfbp));
/// // This job's backward pass hides its gradient pushes, so WFBP
/// // prices it below the sum. Not every job: WFBP sends one message
/// // per layer, each paying the path's α, so a job with little compute
/// // to overlap can price above the sum.
/// assert!(wfbp.total_time(&job) <= additive.total_time(&job));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepTimeEngine {
    model: PerfModel,
    backend: StepTimeBackend,
    layers: usize,
    /// Each class's weight-synchronization path, by
    /// [`Architecture::index`].
    paths: [NetworkPath; Architecture::ALL.len()],
}

impl StepTimeEngine {
    /// An engine over `model` routing through `backend`.
    pub fn new(model: PerfModel, backend: StepTimeBackend) -> Self {
        StepTimeEngine {
            model,
            backend,
            layers: DEFAULT_LAYERS,
            paths: Architecture::ALL.map(|arch| NetworkPath::for_arch(model.config(), arch)),
        }
    }

    /// Overrides the synthetic-lowering stage count (clamped to ≥ 1).
    pub fn with_layers(self, layers: usize) -> Self {
        StepTimeEngine {
            layers: layers.max(1),
            ..self
        }
    }

    /// The wrapped analytical model.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// The active backend.
    pub fn backend(&self) -> StepTimeBackend {
        self.backend
    }

    /// Component times of every job in any [`pai_core::Jobs`]
    /// storage, fanned over `threads` with index-ordered chunk
    /// concatenation — bit-identical at any `PAI_THREADS`.
    pub fn component_times_all<J: pai_core::Jobs + ?Sized>(
        &self,
        jobs: &J,
        threads: pai_par::Threads,
    ) -> Vec<ComponentTimes> {
        pai_par::scatter_gather(
            jobs.len(),
            pai_par::DEFAULT_CHUNK_SIZE,
            threads,
            |_, range| range.map(|i| self.component_times(&jobs.get(i))).collect(),
        )
    }
}

impl StepTimer for StepTimeEngine {
    fn hardware(&self) -> &HardwareConfig {
        self.model.config()
    }

    fn component_times(&self, job: &WorkloadFeatures) -> ComponentTimes {
        self.price_terms(job, &self.model.terms(job))
    }

    /// The additive backend combines the terms; the DAG backends lay
    /// `Td` and both halves of `Tc` out as the layered step and take the
    /// weight traffic from the engine's own path for the job's class.
    fn price_terms(&self, job: &WorkloadFeatures, terms: &Eq1Terms) -> ComponentTimes {
        match self.backend {
            StepTimeBackend::Additive => self.model.combine(terms),
            StepTimeBackend::Dag(strategy) => Layered::of(job, terms, self.layers)
                .evaluate(&self.paths[job.arch().index()], strategy)
                .component_times(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_core::model::GPUS_PER_SERVER;
    use pai_core::project::{project_with, ProjectionOutcome, ProjectionTarget};
    use pai_core::stats::weighted_mean;
    use pai_core::sweep::{class_sweep_with, relevant_axes, SweepCurves, SweepSample};
    use pai_core::{Architecture, OverlapMode};
    use pai_hw::{Bytes, Flops, SweepPoint};
    use proptest::prelude::*;

    fn job(weight_gb: f64) -> WorkloadFeatures {
        WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(16)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(10.0))
            .weight_bytes(Bytes::from_gb(weight_gb))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(Bytes::from_gb(20.0))
            .build()
    }

    #[test]
    fn additive_backend_is_bitwise_the_perf_model() {
        let m = PerfModel::paper_default();
        let engine = StepTimeEngine::new(m, StepTimeBackend::Additive);
        for w in [0.1, 1.0, 10.0] {
            let j = job(w);
            assert_eq!(
                engine.total_time(&j).as_f64().to_bits(),
                m.total_time(&j).as_f64().to_bits()
            );
        }
    }

    #[test]
    fn dag_serial_matches_additive_within_1e9() {
        let m = PerfModel::paper_default();
        let engine = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::Serial));
        for w in [0.0, 0.1, 1.0, 10.0] {
            let j = job(w);
            let d = crate::lower::rel_diff(engine.total_time(&j), m.total_time(&j));
            assert!(d < 1e-9, "rel diff {d} at {w} GB");
        }
    }

    #[test]
    fn overlap_strictly_helps_comm_heavy_jobs() {
        let m = PerfModel::paper_default();
        let serial = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::Serial));
        let wfbp = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::Wfbp));
        let fused = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::fused_default()));
        let j = job(1.0);
        assert!(wfbp.total_time(&j) < serial.total_time(&j));
        assert!(fused.total_time(&j) < serial.total_time(&j));
    }

    #[test]
    fn per_message_latency_prices_a_small_compute_ps_job_above_serial() {
        // One GFLOP of compute cannot hide 32 gradient pushes: WFBP
        // pays the PS path's α once per layer where Serial pays it once.
        let m = PerfModel::paper_default();
        let serial = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::Serial));
        let wfbp = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::Wfbp));
        let j = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(2)
            .batch_size(32)
            .input_bytes(Bytes::from_mb(1.0))
            .weight_bytes(Bytes::from_mb(1.0))
            .flops(Flops::from_giga(1.0))
            .mem_access_bytes(Bytes::from_mb(10.0))
            .build();
        let excess = wfbp.total_time(&j).as_f64() - serial.total_time(&j).as_f64();
        let alpha = NetworkPath::for_arch(m.config(), Architecture::PsWorker)
            .latency_per_message()
            .as_f64();
        assert!(excess > 0.0, "WFBP {excess} s above Serial");
        assert!(
            excess <= (DEFAULT_LAYERS - 1) as f64 * alpha,
            "the excess is at most the extra α charges"
        );
    }

    #[test]
    fn fanout_is_identical_at_every_thread_count() {
        let m = PerfModel::paper_default();
        let engine = StepTimeEngine::new(m, StepTimeBackend::Dag(OverlapStrategy::fused_default()));
        let jobs: Vec<WorkloadFeatures> = (1..40).map(|i| job(i as f64 * 0.25)).collect();
        let serial = engine.component_times_all(&jobs, pai_par::Threads::SERIAL);
        for t in pai_par::EQUIVALENCE_THREADS {
            let par = engine.component_times_all(&jobs, pai_par::Threads::new(t));
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.total.as_f64().to_bits(), b.total.as_f64().to_bits());
            }
        }
    }

    /// `project_with` as it priced before each side was priced once:
    /// two step times, then both Eq. 2 throughputs re-priced from
    /// scratch.
    fn four_evaluation_reference<B: StepTimer + ?Sized>(
        backend: &B,
        job: &WorkloadFeatures,
        target: ProjectionTarget,
    ) -> Option<ProjectionOutcome> {
        if job.arch() != Architecture::PsWorker
            || !backend.hardware().gpu().fits_in_memory(job.weight_bytes())
        {
            return None;
        }
        let cnodes = match target {
            ProjectionTarget::AllReduceLocal => job.cnodes().min(GPUS_PER_SERVER),
            ProjectionTarget::AllReduceCluster => job.cnodes(),
        };
        let projected = job.remapped(target.architecture(), cnodes.max(2));
        let original_step = backend.total_time(job);
        let projected_step = backend.total_time(&projected);
        Some(ProjectionOutcome {
            original: *job,
            projected,
            target,
            original_step,
            projected_step,
            single_cnode_speedup: original_step.ratio(projected_step),
            throughput_speedup: backend.throughput(&projected) / backend.throughput(job),
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
    fn ps_job() -> impl Strategy<Value = WorkloadFeatures> {
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
        /// evaluations, on the analytical model and on every engine
        /// backend.
        #[test]
        fn project_with_matches_the_four_evaluation_reference(job in ps_job()) {
            let m = PerfModel::paper_default();
            let ideal = m.with_overlap(OverlapMode::Ideal);
            let engines = [
                StepTimeBackend::Additive,
                StepTimeBackend::Dag(OverlapStrategy::Serial),
                StepTimeBackend::Dag(OverlapStrategy::Wfbp),
                StepTimeBackend::Dag(OverlapStrategy::fused_default()),
            ]
            .map(|backend| StepTimeEngine::new(m, backend));
            let mut backends: Vec<&dyn StepTimer> = vec![&m, &ideal];
            backends.extend(engines.iter().map(|e| e as &dyn StepTimer));
            for backend in backends {
                for target in [
                    ProjectionTarget::AllReduceLocal,
                    ProjectionTarget::AllReduceCluster,
                ] {
                    let got = project_with(backend, &job, target);
                    let want = four_evaluation_reference(backend, &job, target);
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?}", target, job);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// `class_sweep_with` as it priced before it went term-wise: every
    /// Table III point rebuilds the backend and prices each job from its
    /// features again with the full kernel.
    fn rebuild_and_reprice<B, R, F>(
        base: &B,
        rebuild: F,
        arch: Architecture,
        jobs: &[WorkloadFeatures],
        weights: &[f64],
    ) -> SweepCurves
    where
        B: StepTimer + ?Sized,
        R: StepTimer,
        F: Fn(HardwareConfig) -> R,
    {
        let base_times: Vec<f64> = jobs.iter().map(|j| base.total_time(j).as_f64()).collect();
        let mut samples = Vec::new();
        for axis in relevant_axes(arch) {
            for &value in axis.candidates() {
                let varied = rebuild(base.hardware().with_resource(SweepPoint { axis, value }));
                let speedups: Vec<f64> = jobs
                    .iter()
                    .zip(&base_times)
                    .map(|(job, &t)| t / varied.total_time(job).as_f64())
                    .collect();
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

    /// The term-wise sweep against the rebuild-and-reprice reference on
    /// `PerfModel` under both overlap modes and on every engine backend,
    /// at one and four threads.
    fn term_wise_sweep_matches_the_reference(
        config: HardwareConfig,
        arch: Architecture,
        jobs: &[WorkloadFeatures],
        weights: &[f64],
    ) -> Result<(), TestCaseError> {
        for overlap in OverlapMode::ALL {
            let model = PerfModel::new(config, overlap);
            let rebuild = |c| model.with_config(c);
            let want = rebuild_and_reprice(&model, rebuild, arch, jobs, weights);
            for threads in [1, 4] {
                let got = class_sweep_with(
                    &model,
                    rebuild,
                    arch,
                    jobs,
                    weights,
                    pai_par::Threads::new(threads),
                );
                same_bits(&got, &want)?;
            }
        }
        let model = PerfModel::new(config, OverlapMode::Serialized);
        for backend in [
            StepTimeBackend::Additive,
            StepTimeBackend::Dag(OverlapStrategy::Serial),
            StepTimeBackend::Dag(OverlapStrategy::Wfbp),
            StepTimeBackend::Dag(OverlapStrategy::fused_default()),
        ] {
            let engine = StepTimeEngine::new(model, backend);
            let rebuild = |c| StepTimeEngine::new(model.with_config(c), backend);
            let want = rebuild_and_reprice(&engine, rebuild, arch, jobs, weights);
            for threads in [1, 4] {
                let got = class_sweep_with(
                    &engine,
                    rebuild,
                    arch,
                    jobs,
                    weights,
                    pai_par::Threads::new(threads),
                );
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
            term_wise_sweep_matches_the_reference(config, arch, &jobs, &weights)?;
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
        let model = PerfModel::paper_default();
        let rebuild = |c| model.with_config(c);
        let want = rebuild_and_reprice(&model, rebuild, Architecture::PsWorker, &jobs, &weights);
        for threads in [1, 2, 4] {
            let got = class_sweep_with(
                &model,
                rebuild,
                Architecture::PsWorker,
                &jobs,
                &weights,
                pai_par::Threads::new(threads),
            );
            assert_eq!(got, want, "{threads} threads");
            for (a, b) in got.samples.iter().zip(&want.samples) {
                assert_eq!(a.mean_speedup.to_bits(), b.mean_speedup.to_bits());
            }
        }
    }
}
