//! `analyze`: read-only scans over a resident 500k-job population.
//!
//! One pass runs batch characterization, both AllReduce projections of
//! the PS/Worker class, its hardware sweep, and an Ethernet what-if
//! sweep over the resident index. pai-core scans do nearly all of it,
//! and no other workload runs them.

use pai_core::project::ProjectionTarget;
use pai_core::sweep::SweepCurves;
use pai_core::{
    characterize, class_sweep, Architecture, HeadlineStats, Jobs, PerfModel, ProjectionOutcome,
    WhatIfIndex, WhatIfSummary, WorkloadFeatures,
};
use pai_trace::{Population, PopulationConfig, StreamSession};

use super::{ensure, Checked, Workload, ONE};
use crate::spans::Tracer;
use crate::stats::Digest;

/// The Ethernet speeds the what-if sweep queries, in Gbps.
pub const WHATIF_GBPS: [f64; 8] = [10.0, 25.0, 40.0, 50.0, 100.0, 200.0, 400.0, 800.0];

/// Bytes of job columns a characterize scan reads per job: the store
/// keeps the class as `u8`, cNodes and batch as `u32`, and four `f64`
/// size columns.
pub const JOB_COLUMN_BYTES: usize = 1 + 4 + 4 + 4 * 8;

/// The `analyze` workload.
pub struct Analyze;

/// The resident population and what the pass reads beside it.
pub struct Inputs {
    model: PerfModel,
    population: Population,
    ps: Vec<WorkloadFeatures>,
    weights: Vec<f64>,
    index: WhatIfIndex,
}

/// One pass's results.
#[derive(Debug, Clone)]
pub struct Output {
    /// Batch headline statistics.
    pub stats: HeadlineStats,
    /// PS/Worker jobs projected onto AllReduce-Local.
    pub local: Vec<ProjectionOutcome>,
    /// PS/Worker jobs projected onto AllReduce-Cluster.
    pub cluster: Vec<ProjectionOutcome>,
    /// The PS/Worker hardware sweep.
    pub sweep: SweepCurves,
    /// One what-if summary per [`WHATIF_GBPS`] point.
    pub whatif: Vec<WhatIfSummary>,
}

impl Workload for Analyze {
    const NAME: &'static str = "analyze";
    const JOBS: usize = 500_000;
    type Inputs = Inputs;
    /// The statistics a one-job-at-a-time stream fold gives.
    type Reference = HeadlineStats;
    type Output = Output;

    fn setup(jobs: usize, seed: u64, t: &mut Tracer) -> Result<Inputs, String> {
        let model = PerfModel::paper_default();
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let population = t.span("trace.generate", |_| {
            Population::builder(config)
                .seed(seed)
                .threads(ONE)
                .build()
                .map_err(|e| e.to_string())
        })?;
        let ps = t.span("trace.select", |_| {
            population.jobs_of(Architecture::PsWorker)
        });
        let weights = vec![1.0; ps.len()];
        let index = t.span("core.whatif_build", |_| {
            WhatIfIndex::build(&model, population.store(), ONE)
        });
        Ok(Inputs {
            model,
            population,
            ps,
            weights,
            index,
        })
    }

    fn jobs_per_pass(inputs: &Inputs) -> usize {
        inputs.population.len()
    }

    fn reference(inputs: &Inputs) -> Result<HeadlineStats, String> {
        let mut session = StreamSession::new(inputs.model);
        for job in inputs.population.store().iter_jobs() {
            session.ingest(&job);
        }
        Ok(session.stats())
    }

    fn pass(inputs: &Inputs, t: &mut Tracer) -> Result<Output, String> {
        let model = &inputs.model;
        let stats = t.span("core.characterize", |_| {
            characterize(model, inputs.population.store(), ONE)
        });
        let local = t.span("core.project", |_| {
            model.projections(&inputs.ps, ProjectionTarget::AllReduceLocal, ONE)
        });
        let cluster = t.span("core.project", |_| {
            model.projections(&inputs.ps, ProjectionTarget::AllReduceCluster, ONE)
        });
        let sweep = t.span("core.sweep", |_| {
            class_sweep(
                model,
                Architecture::PsWorker,
                &inputs.ps,
                &inputs.weights,
                ONE,
            )
        });
        let whatif = WHATIF_GBPS
            .iter()
            .map(|&gbps| t.span("core.whatif_query", |_| inputs.index.summary_at(gbps)))
            .collect();
        Ok(Output {
            stats,
            local,
            cluster,
            sweep,
            whatif,
        })
    }

    fn check(inputs: &Inputs, reference: &HeadlineStats, out: &Output) -> Result<Checked, String> {
        ensure(out.stats == *reference, || {
            "characterize differs from the stream fold over the same store".to_string()
        })?;
        let ps = inputs.ps.len();
        for (label, outcomes) in [("local", &out.local), ("cluster", &out.cluster)] {
            ensure(outcomes.len() <= ps, || {
                format!("{} {label} projections from {ps} PS jobs", outcomes.len())
            })?;
        }
        ensure(out.whatif.len() == WHATIF_GBPS.len(), || {
            format!("{} what-if summaries", out.whatif.len())
        })?;
        for s in &out.whatif {
            ensure(s.jobs == inputs.index.len() as u64, || {
                format!("what-if at {} Gbps covers {} jobs", s.ethernet_gbps, s.jobs)
            })?;
        }
        let mut d = Digest::new();
        d.debug(&out.stats);
        for outcome in out.local.iter().chain(&out.cluster) {
            d.u64(outcome.projected.cnodes() as u64);
            d.f64(outcome.original_step.as_f64());
            d.f64(outcome.projected_step.as_f64());
            d.f64(outcome.single_cnode_speedup);
            d.f64(outcome.throughput_speedup);
        }
        d.debug(&out.sweep);
        d.debug(&out.whatif);
        let eligible = (out.local.len() + out.cluster.len()) as f64 / (2 * ps.max(1)) as f64;
        Ok(Checked {
            digest: d.finish(),
            counts: vec![("core.project_eligible_ratio", eligible)],
        })
    }
}
