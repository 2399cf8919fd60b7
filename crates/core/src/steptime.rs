//! The step-time backend seam.
//!
//! Everything downstream of the Eq. 1 closed form — projections,
//! hardware sweeps, the scheduler's job templates, the repro
//! experiments — only ever asks one question of the model: *"what are
//! the per-step component times of this job?"*. [`StepTimer`] captures
//! exactly that question, so those consumers can run on either the
//! analytical [`PerfModel`] or the DAG critical-path evaluator in
//! `pai-dag` behind one switch, without this crate depending on the
//! graph machinery.
//!
//! Contract: a backend's [`ComponentTimes`] must be a *coherent
//! decomposition* — `data_io`, `compute_bound` and `memory_bound` are
//! the stream times of the three Eq. 1 resources, `weight_traffic` is
//! the communication time the step actually *pays* (for an overlapping
//! backend, the exposed remainder), and `total` is the step time under
//! the backend's own combining rule. [`PerfModel`] satisfies this by
//! construction; see `pai-dag` for the critical-path implementation.
//!
//! Pricing is two steps: derive the job's [`Eq1Terms`] under
//! [`StepTimer::hardware`] ([`PerfModel::terms`]), then price the job
//! from them ([`StepTimer::price_terms`]). `component_times` is the two
//! in a row; a Table III sweep keeps the base terms and derives again
//! only those one point's rate moves before it calls `price_terms`.

use pai_hw::HardwareConfig;

use crate::features::WorkloadFeatures;
use crate::model::{ComponentTimes, Eq1Terms, PerfModel};
use pai_hw::Seconds;

/// A pluggable per-step pricing backend.
///
/// `Sync` because every consumer fans evaluation over jobs through
/// `pai-par`, sharing one backend across worker threads.
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, StepTimer, WorkloadFeatures};
/// use pai_hw::Flops;
///
/// fn price<B: StepTimer + ?Sized>(backend: &B, job: &WorkloadFeatures) -> f64 {
///     backend.total_time(job).as_f64()
/// }
///
/// let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
///     .flops(Flops::from_tera(1.0))
///     .build();
/// assert!(price(&PerfModel::paper_default(), &job) > 0.0);
/// ```
pub trait StepTimer: Sync {
    /// The hardware the backend prices against (memory-fit checks,
    /// Eq. 3 bounds).
    fn hardware(&self) -> &HardwareConfig;

    /// The per-step component times of one job — the single pricing
    /// primitive everything else derives from.
    fn component_times(&self, job: &WorkloadFeatures) -> ComponentTimes;

    /// Prices `job` from its Eq. 1 terms under [`StepTimer::hardware`]:
    /// the step `component_times` takes once it has derived them.
    ///
    /// Contract: with `terms` equal to
    /// `PerfModel::new(*self.hardware(), _).terms(job)`, the result is
    /// bitwise `self.component_times(job)` (the overlap mode plays no
    /// part in the terms).
    fn price_terms(&self, job: &WorkloadFeatures, terms: &Eq1Terms) -> ComponentTimes;

    /// `T_total` under the backend's combining rule.
    fn total_time(&self, job: &WorkloadFeatures) -> Seconds {
        self.component_times(job).total
    }

    /// Job throughput in samples per second (Eq. 2).
    fn throughput(&self, job: &WorkloadFeatures) -> f64 {
        crate::throughput::throughput(job.cnodes(), self.total_time(job), job.batch_size())
    }
}

impl StepTimer for PerfModel {
    #[inline]
    fn hardware(&self) -> &HardwareConfig {
        self.config()
    }

    #[inline]
    fn component_times(&self, job: &WorkloadFeatures) -> ComponentTimes {
        PerfModel::component_times(self, job)
    }

    #[inline]
    fn price_terms(&self, _job: &WorkloadFeatures, terms: &Eq1Terms) -> ComponentTimes {
        self.combine(terms)
    }

    // The inherent methods already cache nothing and combine the same
    // three parts, so the defaults would be bit-identical; forward
    // anyway to keep one canonical code path.
    #[inline]
    fn total_time(&self, job: &WorkloadFeatures) -> Seconds {
        PerfModel::total_time(self, job)
    }

    #[inline]
    fn throughput(&self, job: &WorkloadFeatures) -> f64 {
        PerfModel::throughput(self, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use pai_hw::{Bytes, Flops};

    fn job() -> WorkloadFeatures {
        WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(16)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(10.0))
            .weight_bytes(Bytes::from_gb(1.0))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(Bytes::from_gb(20.0))
            .build()
    }

    #[test]
    fn perf_model_trait_impl_is_bitwise_the_inherent_api() {
        let m = PerfModel::paper_default();
        let j = job();
        let via_trait = <PerfModel as StepTimer>::component_times(&m, &j);
        let inherent = m.component_times(&j);
        assert_eq!(
            via_trait.total.as_f64().to_bits(),
            inherent.total.as_f64().to_bits()
        );
        assert_eq!(
            <PerfModel as StepTimer>::total_time(&m, &j)
                .as_f64()
                .to_bits(),
            m.total_time(&j).as_f64().to_bits()
        );
        assert_eq!(
            <PerfModel as StepTimer>::throughput(&m, &j).to_bits(),
            m.throughput(&j).to_bits()
        );
    }

    #[test]
    fn backend_is_object_safe_and_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<PerfModel>();
        let m = PerfModel::paper_default();
        let dyn_backend: &dyn StepTimer = &m;
        let j = job();
        assert_eq!(
            dyn_backend.total_time(&j).as_f64().to_bits(),
            m.total_time(&j).as_f64().to_bits()
        );
        assert_eq!(
            dyn_backend.hardware().gpu().peak_flops().as_flops_per_sec(),
            m.config().gpu().peak_flops().as_flops_per_sec()
        );
    }
}
