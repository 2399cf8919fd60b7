//! The backend switch: one engine over either pricing model.
//!
//! [`StepTimeEngine`] wraps the analytical [`PerfModel`] and routes
//! each job through either the closed form
//! ([`StepTimeBackend::Additive`]) or the DAG critical-path evaluator
//! ([`StepTimeBackend::Dag`]), so `repro overlap` and the benches
//! price one population on every backend behind this one switch.

use pai_core::{Architecture, ComponentTimes, PerfModel, WorkloadFeatures};
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

/// Prices jobs on a selectable backend.
///
/// Population jobs exist only as feature records, so the DAG backends
/// price the canonical [`from_features`](crate::lower::from_features)
/// lowering at [`DEFAULT_LAYERS`] stages, in closed form and without
/// building the step: every backward stage of that step lasts the same
/// and every message costs the same, so the FIFO link clock peaks at an
/// endpoint. [`evaluate`](crate::evaluate()) over `from_features` stays
/// the reference, property-tested to agree within 1e-9. Pricing is a
/// pure function of the job, so callers may fan jobs out through
/// `pai-par` at any thread count and get bit-identical results.
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, WorkloadFeatures};
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
/// assert!(wfbp.component_times(&job).total <= additive.component_times(&job).total);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepTimeEngine {
    model: PerfModel,
    backend: StepTimeBackend,
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
            paths: Architecture::ALL.map(|arch| NetworkPath::for_arch(model.config(), arch)),
        }
    }

    /// The active backend.
    pub fn backend(&self) -> StepTimeBackend {
        self.backend
    }

    /// The per-step component times of one job. The additive backend is
    /// the model's own kernel; the DAG backends lay the job's Eq. 1
    /// terms out as the layered step and take the weight traffic from
    /// the engine's own path for the job's class, so `weight_traffic`
    /// is the exposed remainder and `total` the critical path.
    pub fn component_times(&self, job: &WorkloadFeatures) -> ComponentTimes {
        match self.backend {
            StepTimeBackend::Additive => self.model.component_times(job),
            StepTimeBackend::Dag(strategy) => {
                Layered::of(job, &self.model.terms(job), DEFAULT_LAYERS)
                    .evaluate(&self.paths[job.arch().index()], strategy)
                    .component_times()
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use pai_hw::{Bytes, Flops};

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
                engine.component_times(&j).total.as_f64().to_bits(),
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
            let d = crate::lower::rel_diff(engine.component_times(&j).total, m.total_time(&j));
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
        assert!(wfbp.component_times(&j).total < serial.component_times(&j).total);
        assert!(fused.component_times(&j).total < serial.component_times(&j).total);
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
        let excess =
            wfbp.component_times(&j).total.as_f64() - serial.component_times(&j).total.as_f64();
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
}
