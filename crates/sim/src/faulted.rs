//! Multi-step degraded runs: crash recovery, lost-work accounting,
//! and goodput.

use pai_collectives::CommPlan;
use pai_faults::{FaultInjector, FaultPlan};
use pai_graph::Graph;
use pai_hw::Seconds;
use pai_par::Threads;

use crate::error::SimError;
use crate::executor::StepSimulator;
use crate::measure::{StepMeasurement, StepStats};

/// Chunk size for parallel step simulation. Much smaller than
/// [`pai_par::DEFAULT_CHUNK_SIZE`]: degraded runs are typically tens
/// to hundreds of steps, and each step is orders of magnitude more
/// work than sampling one trace job.
pub const STEP_CHUNK: usize = 16;

/// The outcome of simulating many synchronous steps under a fault
/// plan.
///
/// Each entry in `steps` is the *successful* execution of that step;
/// crash recovery (the failed attempt, the restart cost, and the
/// re-execution of steps since the last checkpoint) is charged to
/// `lost_time` and folded into `wall_clock`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// Per-step measurements, in step order.
    pub steps: Vec<StepMeasurement>,
    /// End-to-end wall clock including recovery overhead.
    pub wall_clock: Seconds,
    /// Time spent on work that did not advance training: failed
    /// attempts, restarts, and re-executed steps.
    pub lost_time: Seconds,
    /// Completed steps whose progress crashes rolled back.
    pub lost_steps: usize,
}

impl FaultedRun {
    /// Distribution statistics + goodput over the run.
    pub fn stats(&self) -> Result<StepStats, SimError> {
        StepStats::with_overhead(&self.steps, self.lost_time, self.lost_steps)
    }

    /// Useful steps per wall-clock second.
    pub fn goodput(&self) -> f64 {
        if self.wall_clock.is_zero() {
            0.0
        } else {
            self.steps.len() as f64 / self.wall_clock.as_f64()
        }
    }
}

impl StepSimulator {
    /// Simulates `steps` synchronous steps of a replica group under
    /// `plan` on `threads` workers ([`Threads::SERIAL`] for the
    /// single-threaded oracle).
    ///
    /// A crash at step `c` costs: the failed attempt of step `c`, the
    /// restart (checkpoint reload + rescheduling), and the
    /// re-execution of up to `lost_steps` completed steps since the
    /// last checkpoint. Re-executed steps rerun under the same
    /// deterministic fault realization, so the whole run is a pure
    /// function of `(graph, comm, steps, plan)`.
    ///
    /// Each step's measurement is a pure function of
    /// `(graph, comm, plan, step)` — the fault realization is drawn
    /// from counter-free per-step streams — so steps simulate
    /// concurrently and gather in step order. Crash accounting only
    /// reads the finalized `total` of earlier measurements, so the
    /// sequential fold over the gathered vector reproduces the serial
    /// run bit for bit at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroSteps`] for an empty run and
    /// [`SimError::Fault`] for an invalid plan.
    pub fn run_faulted(
        &self,
        graph: &Graph,
        comm: &CommPlan,
        steps: usize,
        plan: &FaultPlan,
        threads: Threads,
    ) -> Result<FaultedRun, SimError> {
        if steps == 0 {
            return Err(SimError::ZeroSteps);
        }
        let injector = FaultInjector::new(plan.clone())?;
        let results: Vec<Result<StepMeasurement, SimError>> =
            pai_par::scatter_gather(steps, STEP_CHUNK, threads, |_, range| {
                range
                    .map(|step| self.run_replicas_faulted(graph, comm, &injector, step))
                    .collect()
            });
        // In-order gather means the first error here is the same one
        // the serial loop would have stopped at.
        let measured = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(fold_crash_recovery(&injector, measured))
    }
}

/// The sequential crash-recovery fold of [`StepSimulator::run_faulted`]:
/// charges each crash its failed attempt, the restart, and the
/// re-execution of completed steps since the last checkpoint, reading
/// only finalized totals of earlier steps.
fn fold_crash_recovery(injector: &FaultInjector, mut measured: Vec<StepMeasurement>) -> FaultedRun {
    let mut lost_time = Seconds::ZERO;
    let mut lost_steps = 0usize;
    for step in 0..measured.len() {
        if let Some(crash) = injector.crash_at(step) {
            // The attempt that died, plus re-execution of the
            // completed steps since the last checkpoint.
            let rolled_back = crash.lost_steps.min(step);
            let redo: Seconds = measured[step - rolled_back..step]
                .iter()
                .map(|prev| prev.total)
                .sum();
            let overhead = measured[step].total + crash.restart + redo;
            measured[step].faults.restart = crash.restart;
            measured[step].faults.lost_steps = rolled_back;
            lost_time += overhead;
            lost_steps += rolled_back;
        }
    }
    let useful: Seconds = measured.iter().map(|m| m.total).sum();
    FaultedRun {
        steps: measured,
        wall_clock: useful + lost_time,
        lost_time,
        lost_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pai_graph::op::matmul;
    use pai_graph::Op;

    fn toy_graph() -> Graph {
        let mut g = Graph::new("toy");
        g.add(Op::new("mm", matmul(2048, 2048, 2048)));
        g
    }

    #[test]
    fn healthy_run_has_no_lost_time() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let plan = FaultPlan::healthy(2).unwrap();
        let run = sim
            .run_faulted(&toy_graph(), &CommPlan::new(), 10, &plan, Threads::SERIAL)
            .unwrap();
        assert_eq!(run.steps.len(), 10);
        assert!(run.lost_time.is_zero());
        assert_eq!(run.lost_steps, 0);
        let per_step: Seconds = run.steps.iter().map(|m| m.total).sum();
        assert_eq!(run.wall_clock, per_step);
        let stats = run.stats().unwrap();
        assert!((stats.goodput - run.goodput()).abs() < 1e-12);
    }

    #[test]
    fn crash_charges_restart_and_redo() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = FaultPlan::healthy(2).unwrap();
        let base = sim
            .run_faulted(
                &toy_graph(),
                &CommPlan::new(),
                10,
                &healthy,
                Threads::SERIAL,
            )
            .unwrap();
        let step_time = base.steps[0].total;

        let plan = FaultPlan::builder(2)
            .crash(1, 5, Seconds::from_f64(30.0), 3)
            .build()
            .unwrap();
        let run = sim
            .run_faulted(&toy_graph(), &CommPlan::new(), 10, &plan, Threads::SERIAL)
            .unwrap();
        assert_eq!(run.lost_steps, 3);
        // Lost time = failed attempt + restart + 3 redone steps.
        let expected = step_time.scale(4.0) + Seconds::from_f64(30.0);
        assert!((run.lost_time.as_f64() - expected.as_f64()).abs() < 1e-9);
        assert!(run.goodput() < base.goodput());
        assert!(run.steps[5].faults.restart.as_f64() > 0.0);
        assert_eq!(run.steps[5].faults.lost_steps, 3);
    }

    #[test]
    fn early_crash_cannot_lose_more_steps_than_completed() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let plan = FaultPlan::builder(2)
            .crash(0, 1, Seconds::from_f64(5.0), 100)
            .build()
            .unwrap();
        let run = sim
            .run_faulted(&toy_graph(), &CommPlan::new(), 4, &plan, Threads::SERIAL)
            .unwrap();
        assert_eq!(run.lost_steps, 1);
    }

    #[test]
    fn rejects_zero_steps() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let plan = FaultPlan::healthy(1).unwrap();
        assert_eq!(
            sim.run_faulted(&toy_graph(), &CommPlan::new(), 0, &plan, Threads::SERIAL)
                .unwrap_err(),
            SimError::ZeroSteps
        );
    }

    #[test]
    fn same_plan_gives_identical_runs() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let plan = FaultPlan::builder(3)
            .seed(42)
            .jitter(0.08)
            .straggler(1, 1.4)
            .build()
            .unwrap();
        let a = sim
            .run_faulted(&toy_graph(), &CommPlan::new(), 20, &plan, Threads::SERIAL)
            .unwrap();
        let b = sim
            .run_faulted(&toy_graph(), &CommPlan::new(), 20, &plan, Threads::SERIAL)
            .unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.wall_clock, b.wall_clock);
    }
}
