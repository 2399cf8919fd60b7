//! `schedule`: the cluster scheduler replaying the default population.
//!
//! The `repro` default population (20k jobs at the reproduction's own
//! seed), capped at 64-GPU gangs and offered at load 0.6 as the `repro
//! schedule` experiment does, replays under the four FIFO-ordered
//! placement policies and under QSSF. pai-sched and pai-predict run
//! here and in no other workload.
//!
//! The benchmark's seed draws the arrival streams. QSSF's cost grows
//! with the depth of the backlog a stream happens to build, so one
//! stream's replay costs up to 20% more than another's; a pass replays
//! [`STREAMS`] streams, the first drawn from the seed itself, to keep a
//! pass's cost close to the same across seeds.

use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_sched::{
    realize_stream, run_kind, templates_from_population, ArrivalConfig, PolicyKind, SchedConfig,
    SchedError, SchedJob, SchedOutcome,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};

use super::{ensure, Checked, Workload, ONE};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Widest gang admitted, in GPUs.
pub const WIDTH_CAP: usize = 64;
/// Offered load as a fraction of the cluster's solo-work capacity.
pub const OFFERED_LOAD: f64 = 0.6;
/// Arrival streams replayed per pass.
pub const STREAMS: usize = 2;

/// The replayed policies with the span each replay is recorded under.
pub const POLICIES: [(PolicyKind, &str); 5] = [
    (PolicyKind::FifoFirstFit, "sched.run.fifo-first-fit"),
    (PolicyKind::BestFitPacked, "sched.run.best-fit-packed"),
    (PolicyKind::Spread, "sched.run.spread"),
    (PolicyKind::LocalityAware, "sched.run.locality-aware"),
    (PolicyKind::Qssf, "sched.run.qssf"),
];

/// The `schedule` workload.
pub struct Schedule;

/// The arrival streams and the cluster they replay on.
pub struct Inputs {
    cluster: ClusterSpec,
    /// (stream seed, stream) per arrival stream.
    streams: Vec<(u64, Vec<SchedJob>)>,
    config: SchedConfig,
}

/// One pass's results.
#[derive(Debug, Clone)]
pub struct Output {
    /// For each [`POLICIES`] entry, one outcome per stream.
    pub outcomes: Vec<Vec<SchedOutcome>>,
}

/// The seed of stream `k`: the first is the workload's own seed.
fn stream_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        pai_par::derive_seed(seed, k as u64)
    }
}

impl Workload for Schedule {
    const NAME: &'static str = "schedule";
    const JOBS: usize = pai_repro::POPULATION;
    type Inputs = Inputs;
    type Reference = ();
    type Output = Output;

    fn setup(jobs: usize, seed: u64, t: &mut Tracer) -> Result<Inputs, String> {
        let model = PerfModel::paper_default();
        let cluster = ClusterSpec::testbed(0.7);
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let population = t.span("trace.generate", |_| {
            Population::builder(config)
                .seed(pai_repro::SEED)
                .threads(ONE)
                .build()
                .map_err(|e| e.to_string())
        })?;
        let capacity = WIDTH_CAP.min(cluster.total_gpus());
        let (templates, _dropped) = t.span("sched.templates", |_| {
            templates_from_population(&model, &population, capacity)
        });
        let streams = t
            .span("sched.realize", |_| {
                let arrival = ArrivalConfig::for_offered_load(
                    &templates,
                    &cluster,
                    OFFERED_LOAD,
                    ArrivalConfig::default().steps_range,
                )?;
                let failures = FailureSampler::paper_calibrated();
                (0..STREAMS)
                    .map(|k| {
                        let seed = stream_seed(seed, k);
                        Ok((seed, realize_stream(&templates, &arrival, &failures, seed)?))
                    })
                    .collect::<Result<Vec<_>, SchedError>>()
            })
            .map_err(|e| e.to_string())?;
        Ok(Inputs {
            cluster,
            streams,
            config: SchedConfig {
                log_events: false,
                ..SchedConfig::default()
            },
        })
    }

    fn jobs_per_pass(inputs: &Inputs) -> usize {
        inputs.streams.iter().map(|(_, s)| s.len()).sum()
    }

    fn reference(_: &Inputs) -> Result<(), String> {
        Ok(())
    }

    fn pass(inputs: &Inputs, t: &mut Tracer) -> Result<Output, String> {
        let outcomes = POLICIES
            .iter()
            .map(|&(kind, span)| {
                inputs
                    .streams
                    .iter()
                    .map(|(seed, stream)| {
                        t.span(span, |_| {
                            run_kind(&inputs.cluster, stream, kind, *seed, &inputs.config)
                        })
                        .map_err(|e| e.to_string())
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        Ok(Output { outcomes })
    }

    fn check(inputs: &Inputs, _: &(), out: &Output) -> Result<Checked, String> {
        ensure(out.outcomes.len() == POLICIES.len(), || {
            format!("{} policy outcomes", out.outcomes.len())
        })?;
        let mut d = Digest::new();
        let mut crashes = 0;
        for (per_stream, (kind, _)) in out.outcomes.iter().zip(POLICIES) {
            ensure(per_stream.len() == inputs.streams.len(), || {
                format!("{}: {} stream outcomes", kind.name(), per_stream.len())
            })?;
            for (outcome, (_, stream)) in per_stream.iter().zip(&inputs.streams) {
                let n = stream.len();
                let finished = outcome
                    .jobs
                    .iter()
                    .filter(|j| j.finish_s.is_finite() && j.finish_s >= j.arrival_s)
                    .count();
                ensure(outcome.cluster.jobs == n && finished == n, || {
                    format!(
                        "{}: {} of {n} jobs completed ({finished} with a finish time)",
                        kind.name(),
                        outcome.cluster.jobs
                    )
                })?;
                crashes += outcome.cluster.crashes;
                d.debug(&outcome.cluster);
                for j in &outcome.jobs {
                    d.f64(j.finish_s);
                }
            }
        }
        let calibrations = out
            .outcomes
            .last()
            .map(|qssf| {
                qssf.iter()
                    .filter_map(|o| o.prediction.as_ref())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        ensure(calibrations.len() == inputs.streams.len(), || {
            format!(
                "qssf calibrated {} of {} streams",
                calibrations.len(),
                inputs.streams.len()
            )
        })?;
        let calibrated: usize = calibrations.iter().map(|c| c.jobs).sum();
        let mape = calibrations.iter().map(|c| c.mape).sum::<f64>() / calibrations.len() as f64;
        Ok(Checked {
            digest: d.finish(),
            counts: vec![
                ("sched.jobs", Self::jobs_per_pass(inputs) as f64),
                ("sched.crashes", crashes as f64),
                ("predict.calibrated", calibrated as f64),
                ("predict.mape", mape),
            ],
        })
    }
}
