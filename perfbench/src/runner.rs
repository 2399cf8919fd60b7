//! The closed loop: one client runs one pass at a time, on one
//! worker thread, and rebuilds the inputs anew between passes.

use std::time::Instant;

use crate::host;
use crate::spans::Tracer;
use crate::workloads::{Checked, Workload};

/// Share of the measured time spent rebuilding inputs. Rebuilds are
/// interleaved with passes, so set-up samples spread across the run
/// like pass samples do.
pub const SETUP_SHARE: f64 = 0.2;

/// How long a run measures, and the fewest samples it takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Seconds of passes and rebuilds.
    pub seconds: f64,
    /// Fewest timed passes, even past `seconds`.
    pub min_passes: usize,
    /// Fewest timed rebuilds, even past `seconds`.
    pub min_rebuilds: usize,
}

impl Budget {
    /// The budget of a measured run.
    pub fn run(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_passes: 5,
            min_rebuilds: 5,
        }
    }
}

/// Passes attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that returned an error or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one pass.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Judges one pass: it fails when a public call returned an error,
/// when a check fails, or when its output differs from the warm-up
/// pass's.
///
/// # Errors
///
/// Why the pass failed.
pub fn judge<W: Workload>(
    inputs: &W::Inputs,
    reference: &W::Reference,
    warm: &Result<Checked, String>,
    result: Result<W::Output, String>,
) -> Result<(), String> {
    let out = result?;
    let checked = W::check(inputs, reference, &out)?;
    match warm {
        Ok(warm) if *warm == checked => Ok(()),
        Ok(_) => Err("the output differs from the warm-up pass's".to_string()),
        Err(e) => Err(format!("the warm-up pass failed: {e}")),
    }
}

/// What one workload's run measured.
#[derive(Debug)]
pub struct Measured {
    /// The workload's name.
    pub name: &'static str,
    /// Trace jobs per pass.
    pub jobs_per_pass: usize,
    /// The first, cold set-up, seconds.
    pub cold_setup_s: f64,
    /// Resident set, MB, when the high-water mark was reset after the
    /// reference and the warm-up pass.
    pub rss_at_reset_mb: f64,
    /// Seconds of each rebuild after the first.
    pub setup_s: Vec<f64>,
    /// Seconds of each stage of each rebuild; empty when traced.
    pub setup_stage_s: Vec<Vec<f64>>,
    /// Seconds of each untraced timed pass.
    pub pass_s: Vec<f64>,
    /// Seconds of each stage of each untraced timed pass.
    pub pass_stage_s: Vec<Vec<f64>>,
    /// Seconds of each traced timed pass.
    pub traced_pass_s: Vec<f64>,
    /// Passes attempted and failed.
    pub tally: Tally,
    /// The first failure seen, if any.
    pub first_error: Option<String>,
    /// The warm-up pass's check, whose counts the traced run reports.
    pub warm: Result<Checked, String>,
    /// The spans, when traced.
    pub tracer: Tracer,
}

/// Runs workload `W` on inputs of `jobs` trace jobs built from `seed`.
///
/// Builds the inputs once cold, then the check reference, then runs one
/// untimed warm-up pass, and resets the resident high-water mark. Timed
/// passes follow until `budget` is spent, each checked outside its timed
/// region; rebuilds interleave with them. Timed passes and rebuilds take
/// turns on the CPUs the thread may use, pinned to one at a time: other
/// tenants at times slow one virtual CPU and not the other, and the
/// fastest stages are then found on the other. When `traced`, every
/// second pass and every set-up is traced; the other passes and set-ups
/// run under a stage clock, which times each call the workload wraps in
/// a span and nothing more.
///
/// # Errors
///
/// When a set-up, the reference or the warm-up pass returns an error:
/// without inputs there is nothing to measure.
pub fn measure<W: Workload>(
    jobs: usize,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> Result<Measured, String> {
    let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
    let mut off = Tracer::off();
    let mut stage_clock = Tracer::stages();

    tracer.next_op();
    let start = Instant::now();
    let mut inputs = Some(W::setup(jobs, seed, &mut tracer)?);
    let cold_setup_s = start.elapsed().as_secs_f64();
    let held = inputs.as_ref().ok_or("inputs were just built")?;
    let reference = W::reference(held)?;
    let jobs_per_pass = W::jobs_per_pass(held);
    let warm_out = W::pass(held, &mut off)?;
    let warm = W::check(held, &reference, &warm_out);
    drop(warm_out);
    // From here the high-water mark covers the rebuilds, the passes and
    // their checks, not the one-off work of building the reference.
    host::reset_peak_rss()?;
    let rss_at_reset_mb = host::rss_mb()?;
    let cpus = host::Cpus::current()?;

    let mut setup_s = Vec::new();
    let mut setup_stage_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_stage_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut tally = Tally::default();
    let mut first_error = None;
    let mut setup_spent = 0.0;
    let mut just_rebuilt = false;
    let clock = Instant::now();
    loop {
        let elapsed = clock.elapsed().as_secs_f64();
        let over = elapsed >= budget.seconds;
        let passes = pass_s.len() + traced_pass_s.len();
        if over && passes >= budget.min_passes && setup_s.len() >= budget.min_rebuilds {
            break;
        }
        // At most one rebuild between two passes, so a quick set-up
        // does not crowd the passes out.
        let rebuild =
            setup_spent < SETUP_SHARE * elapsed || (over && setup_s.len() < budget.min_rebuilds);
        just_rebuilt = rebuild && !just_rebuilt;
        if just_rebuilt {
            // Drop the old inputs first, so the peak resident set holds
            // one copy, as in a process that builds once.
            drop(inputs.take());
            cpus.pin(setup_s.len())?;
            let t = if traced {
                &mut tracer
            } else {
                &mut stage_clock
            };
            t.next_op();
            let t0 = Instant::now();
            inputs = Some(W::setup(jobs, seed, t)?);
            let dt = t0.elapsed().as_secs_f64();
            setup_s.push(dt);
            setup_stage_s.push(stage_clock.take_stages());
            setup_spent += dt;
            continue;
        }
        let held = inputs.as_ref().ok_or("inputs were just built")?;
        let traced_pass = traced && passes % 2 == 1;
        // A traced pass runs on the CPU of the untraced pass before it.
        cpus.pin(passes / 2)?;
        let t = if traced_pass {
            &mut tracer
        } else {
            &mut stage_clock
        };
        t.next_op();
        let t0 = Instant::now();
        let result = W::pass(held, t);
        let dt = t0.elapsed().as_secs_f64();
        if traced_pass {
            traced_pass_s.push(dt);
        } else {
            pass_s.push(dt);
            pass_stage_s.push(stage_clock.take_stages());
        }
        let verdict = judge::<W>(held, &reference, &warm, result);
        tally.record(verdict.is_ok());
        if let Err(e) = verdict {
            first_error.get_or_insert(e);
        }
    }
    cpus.release()?;
    Ok(Measured {
        name: W::NAME,
        jobs_per_pass,
        cold_setup_s,
        rss_at_reset_mb,
        setup_s,
        setup_stage_s,
        pass_s,
        pass_stage_s,
        traced_pass_s,
        tally,
        first_error,
        warm,
        tracer,
    })
}
