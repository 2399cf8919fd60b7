//! Two-worker rows of the traced run: each stage timed at one and at
//! two worker threads, alternating, with the two outputs compared bit
//! for bit.

use std::time::Instant;

use pai_core::project::ProjectionTarget;
use pai_core::{characterize, class_sweep, Architecture, PerfModel};
use pai_dag::{OverlapStrategy, StepTimeBackend, StepTimeEngine};
use pai_par::Threads;
use pai_trace::{Population, PopulationConfig};

use crate::runner::Tally;
use crate::stats::fastest;

/// Trace jobs in the population the rows use.
pub const JOBS: usize = 100_000;
/// Alternating one- and two-worker repetitions per stage.
const REPS: usize = 5;

/// A metric name and its speed-up.
pub type Row = (&'static str, f64);

/// Times `stage` at one and two workers `REPS` times each, alternating.
/// Returns the fastest one-worker time over the fastest two-worker time,
/// and whether every two-worker output equalled the one-worker output.
fn speedup<T: PartialEq>(mut stage: impl FnMut(Threads) -> T) -> (f64, bool) {
    let mut one = Vec::with_capacity(REPS);
    let mut two = Vec::with_capacity(REPS);
    let mut identical = true;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let a = stage(Threads::new(1));
        one.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let b = stage(Threads::new(2));
        two.push(t0.elapsed().as_secs_f64());
        identical &= a == b;
    }
    (fastest(&one) / fastest(&two), identical)
}

/// The `par.speedup_2t.<stage>` rows, each checked for bit-identity;
/// a mismatch counts as a failed operation in the returned tally.
///
/// # Errors
///
/// When the population cannot be generated.
pub fn rows(jobs: usize, seed: u64) -> Result<(Vec<Row>, Tally), String> {
    let model = PerfModel::paper_default();
    let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
    let build = |threads| {
        Population::builder(config.clone())
            .seed(seed)
            .threads(threads)
            .build()
    };
    let population = build(Threads::new(1)).map_err(|e| e.to_string())?;
    let ps = population.jobs_of(Architecture::PsWorker);
    let weights = vec![1.0; ps.len()];
    let engine = StepTimeEngine::new(model, StepTimeBackend::Dag(OverlapStrategy::Wfbp));

    let mut out = Vec::new();
    let mut tally = Tally::default();
    let mut row = |name, (ratio, identical): (f64, bool)| {
        out.push((name, ratio));
        tally.record(identical);
    };
    row("par.speedup_2t.generate", speedup(|t| build(t).ok()));
    row(
        "par.speedup_2t.characterize",
        speedup(|t| characterize(&model, population.store(), t)),
    );
    row(
        "par.speedup_2t.projections",
        speedup(|t| model.projections(&ps, ProjectionTarget::AllReduceLocal, t)),
    );
    row(
        "par.speedup_2t.class_sweep",
        speedup(|t| class_sweep(&model, Architecture::PsWorker, &ps, &weights, t)),
    );
    row(
        "par.speedup_2t.dag_price",
        speedup(|t| engine.component_times_all(&population, t)),
    );
    Ok((out, tally))
}
