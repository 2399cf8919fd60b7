//! Policy × seed sweeps through the `pai-par` executor.
//!
//! Each `(policy, seed)` point realizes its own arrival stream from
//! the shared templates and runs the engine to completion —
//! independent work, so the cross product maps through
//! [`pai_par::map_items`] with chunk size 1. The serial path is the
//! oracle: results are bit-identical at any `PAI_THREADS` (the
//! determinism suite pins this at 1/2/4/8).

use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_par::{map_items, Threads};
use pai_predict::CalibrationReport;
use pai_trace::FailureSampler;
use serde::Serialize;

use crate::engine::{run_ordered, SchedConfig};
use crate::error::SchedError;
use crate::metrics::ClusterMetrics;
use crate::order::{class_priors, order_for_kind};
use crate::policy::PolicyKind;
use crate::stream::{realize_stream, templates_from_population, ArrivalConfig};

/// The sweep's cross-product axes and engine knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Arrival-stream parameters shared by every point.
    pub arrival: ArrivalConfig,
    /// Engine knobs (the sweep forces `log_events` off).
    pub sched: SchedConfig,
    /// Stream seeds.
    pub seeds: Vec<u64>,
    /// Policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Widest gang admitted, in cNodes (`None` admits anything that
    /// fits the cluster). The trace's production giants span up to
    /// 2048 workers; replaying them against a testbed-scale cluster
    /// turns strict FIFO into a head-of-line parade, so experiments
    /// cap the width and surface the dropped count instead.
    pub width_cap: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            arrival: ArrivalConfig::default(),
            sched: SchedConfig::default(),
            seeds: vec![0],
            policies: PolicyKind::ALL.to_vec(),
            width_cap: None,
        }
    }
}

/// One `(policy, seed)` outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPoint {
    /// The policy's display name.
    pub policy: &'static str,
    /// The stream seed.
    pub seed: u64,
    /// Jobs scheduled (after the capacity filter).
    pub jobs: usize,
    /// Population jobs dropped because they are wider than the
    /// cluster — surfaced, never silent.
    pub dropped: usize,
    /// The run's cluster metrics.
    pub metrics: ClusterMetrics,
    /// Predicted-vs-actual calibration — `Some` for the predictive
    /// queue orderings (QSSF and the oracles), `None` otherwise.
    pub prediction: Option<CalibrationReport>,
}

/// Runs every `(policy, seed)` point of the sweep, in policy-major
/// order, over `threads` workers, pricing jobs from any
/// [`pai_core::Jobs`] storage ([`Threads::SERIAL`] is the oracle; the
/// determinism suite pins bit-identity at 1/2/4/8).
///
/// # Errors
///
/// Returns [`SchedError::NoJobs`] when the capacity filter leaves no
/// schedulable jobs (or no seeds/policies are given), and propagates
/// the first engine or stream error otherwise.
pub fn policy_sweep<J: pai_core::Jobs + ?Sized>(
    cluster: &ClusterSpec,
    model: &PerfModel,
    population: &J,
    config: &SweepConfig,
    threads: Threads,
) -> Result<Vec<SweepPoint>, SchedError> {
    config.arrival.validate()?;
    let capacity = config
        .width_cap
        .map_or(cluster.total_gpus(), |cap| cap.min(cluster.total_gpus()));
    let (templates, dropped) = templates_from_population(model, population, capacity);
    if templates.is_empty() || config.seeds.is_empty() || config.policies.is_empty() {
        return Err(SchedError::NoJobs);
    }
    let failures = FailureSampler::paper_calibrated();
    let run_config = SchedConfig {
        log_events: false,
        ..config.sched.clone()
    };
    let mut points: Vec<(PolicyKind, u64)> = Vec::new();
    for &policy in &config.policies {
        for &seed in &config.seeds {
            points.push((policy, seed));
        }
    }
    // QSSF cold-start priors from the shared templates and arrival
    // config — identical for every point, so computed once here (and
    // independent of the realized stream, keeping each point a pure
    // function of its `(policy, seed)` coordinates).
    let priors = class_priors(&templates, cluster, &config.arrival);
    // Chunk size 1: every point is a whole engine run, so one point
    // per work unit keeps the pool balanced.
    let results = map_items(&points, 1, threads, |&(kind, seed)| {
        let stream = realize_stream(&templates, &config.arrival, &failures, seed)?;
        let order = order_for_kind(kind, seed, priors);
        let outcome = run_ordered(cluster, &stream, kind.policy(), &order, &run_config)?;
        Ok(SweepPoint {
            policy: kind.name(),
            seed,
            jobs: stream.len(),
            dropped,
            metrics: outcome.cluster,
            prediction: outcome.prediction,
        })
    });
    results.into_iter().collect()
}
