//! End-to-end and per-layer benchmark of the workload-characterization
//! workspace.
//!
//! A single-process, closed-loop benchmark: one client runs one pass at a
//! time on one worker thread. For a seed it builds a workload's inputs
//! through the program's public API, runs timed passes, checks every
//! output outside the timed regions, and reports three end-to-end
//! metrics: `setup_s`, `jobs_per_s` and `peak_rss_mb`. A separate traced
//! run reports the per-layer metrics of [`layers::LAYER_METRICS`] from
//! spans the benchmark records around its calls into each crate.
//!
//! Every timed metric is the fastest of many samples spread across the
//! whole run, never one cold sample, and it is taken stage by stage
//! ([`stats::fastest_by_stage`]): each call a pass or set-up wraps in a
//! span is one stage. On a 2-vCPU Xeon VM shared with other tenants, an
//! identical pass ran up to 1.9 times slower while contended, in phases
//! of seconds to minutes, so the median of a 20 s run landed on either
//! speed: over ten `analyze` runs the per-run median pass ranged
//! 226-369 ms while the per-run fastest pass ranged 192-217 ms, bar one
//! run contended throughout. A 1.1-1.9 s `schedule` pass rarely found a
//! quiet stretch that long while contended; its 30-500 ms stages do more
//! often. The slowdown often held one virtual CPU and not the other, so
//! timed passes and rebuilds also take turns on the CPUs the process may
//! use ([`host::Cpus`]). The output also prints each sample set's size,
//! fastest, median and 90th percentile.

pub mod host;
pub mod layers;
pub mod parallel;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;

use layers::{Source, LAYER_METRICS};
use runner::{measure, Budget, Measured, Tally};
use stats::{fastest, fastest_by_stage, summary};
use workloads::{Analyze, Ingest, Price, Schedule, Workload};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [Analyze::NAME, Ingest::NAME, Price::NAME, Schedule::NAME];

/// The end-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Input sizes, in trace jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `analyze` population.
    pub analyze: usize,
    /// `ingest` records.
    pub ingest: usize,
    /// `price` population.
    pub price: usize,
    /// `schedule` population, before the width cap.
    pub schedule: usize,
    /// Population of the two-worker rows.
    pub parallel: usize,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub const FULL: Sizes = Sizes {
        analyze: Analyze::JOBS,
        ingest: Ingest::JOBS,
        price: Price::JOBS,
        schedule: Schedule::JOBS,
        parallel: parallel::JOBS,
    };
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// No pass failed.
    pub correct: bool,
    /// Passes attempted and failed.
    pub tally: Tally,
    /// (name, value, unit), in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Span JSON per workload measured, when traced.
    pub spans: Vec<(&'static str, String)>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; `finish` already marked
                // such a run incorrect.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn measure_named(
    name: &str,
    sizes: Sizes,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> Result<Measured, String> {
    match name {
        Analyze::NAME => measure::<Analyze>(sizes.analyze, seed, budget, traced),
        Ingest::NAME => measure::<Ingest>(sizes.ingest, seed, budget, traced),
        Price::NAME => measure::<Price>(sizes.price, seed, budget, traced),
        Schedule::NAME => measure::<Schedule>(sizes.schedule, seed, budget, traced),
        _ => Err(format!(
            "unknown workload '{name}'; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

fn describe(m: &Measured) -> String {
    let failure = m
        .first_error
        .as_ref()
        .map_or(String::new(), |e| format!("; first failure: {e}"));
    let mut line = format!(
        "{}: {} jobs/pass, {} passes attempted, {} failed, cold set-up {:.4} s, \
         {:.1} MB resident after the warm-up pass\n  passes: {}, by stage {:.4} s\n  \
         rebuilds: {}, by stage {:.4} s",
        m.name,
        m.jobs_per_pass,
        m.tally.attempted,
        m.tally.failed,
        m.cold_setup_s,
        m.rss_at_reset_mb,
        summary(&m.pass_s),
        fastest_by_stage(&m.pass_s, &m.pass_stage_s),
        summary(&m.setup_s),
        fastest_by_stage(&m.setup_s, &m.setup_stage_s),
    );
    if !m.traced_pass_s.is_empty() {
        line.push_str(&format!("\n  traced passes: {}", summary(&m.traced_pass_s)));
    }
    line + &failure
}

/// Runs `workload` untraced for `seconds` and reports the end-to-end
/// metrics.
///
/// # Errors
///
/// An unknown workload, or a set-up that returned an error.
pub fn run(workload: &str, sizes: Sizes, seed: u64, seconds: f64) -> Result<Report, String> {
    let m = measure_named(workload, sizes, seed, Budget::run(seconds), false)?;
    let values = [
        fastest_by_stage(&m.setup_s, &m.setup_stage_s),
        m.jobs_per_pass as f64 / fastest_by_stage(&m.pass_s, &m.pass_stage_s),
        host::peak_rss_mb()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    Ok(finish(vec![m], Tally::default(), metrics))
}

/// Runs `workload` traced for `seconds`, then each other workload
/// briefly, so every layer is measured, then the host ceilings and the
/// two-worker rows; reports the per-layer metrics.
///
/// # Errors
///
/// An unknown workload, a set-up that returned an error, or a metric
/// no measurement produced.
pub fn run_traced(workload: &str, sizes: Sizes, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut measured = vec![measure_named(
        workload,
        sizes,
        seed,
        Budget::run(seconds),
        true,
    )?];
    let context_budget = Budget {
        seconds: 0.0,
        min_passes: 2,
        min_rebuilds: 1,
    };
    for other in WORKLOADS.iter().filter(|&&w| w != workload) {
        measured.push(measure_named(other, sizes, seed, context_budget, true)?);
    }
    let (rows, par_tally) = parallel::rows(sizes.parallel, seed)?;

    let mut context: BTreeMap<&str, f64> = rows.into_iter().collect();
    context.insert("host.memcpy_gbps", host::memcpy_gbps());
    let scan_gbps = host::scan_gbps();
    context.insert("host.scan_gbps", scan_gbps);
    let named = &measured[0];
    context.insert(
        "bench.trace_overhead_pct",
        (fastest(&named.traced_pass_s) / fastest(&named.pass_s) - 1.0) * 100.0,
    );
    context.insert("bench.cold_setup_s", named.cold_setup_s);
    let per_op: Vec<_> = measured
        .iter()
        .map(|m| m.tracer.self_seconds_per_op())
        .collect();
    let analyze = measured
        .iter()
        .zip(&per_op)
        .find(|(m, _)| m.name == Analyze::NAME)
        .ok_or("the analyze workload was not measured")?;
    let characterize_s = analyze
        .1
        .get("core.characterize")
        .map(|v| fastest(v))
        .ok_or("no core.characterize span was recorded")?;
    let scan_bytes_per_s =
        (analyze.0.jobs_per_pass * workloads::analyze::JOB_COLUMN_BYTES) as f64 / characterize_s;
    context.insert("core.scan_frac", scan_bytes_per_s / (scan_gbps * 1e9));

    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for metric in LAYER_METRICS {
        // The workload named on the command line first, then the
        // others, in order: the first that measured the layer gives it.
        let value = match metric.source {
            Source::SelfSeconds(span) => {
                per_op.iter().find_map(|p| p.get(span)).map(|v| fastest(v))
            }
            Source::CallMicros(span) => measured
                .iter()
                .map(|m| m.tracer.durations(span))
                .find(|d| !d.is_empty())
                .map(|d| fastest(&d) * 1e6),
            Source::Count => measured.iter().find_map(|m| {
                let counts = &m.warm.as_ref().ok()?.counts;
                counts
                    .iter()
                    .find(|(n, _)| *n == metric.name)
                    .map(|&(_, v)| v)
            }),
            Source::Context => context.get(metric.name).copied(),
        };
        let value = value.ok_or_else(|| format!("no measurement produced {}", metric.name))?;
        metrics.push((metric.name, value, metric.unit));
    }
    Ok(finish(measured, par_tally, metrics))
}

fn finish(
    measured: Vec<Measured>,
    extra: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Report {
    let mut tally = extra;
    let mut notes = Vec::new();
    let mut spans = Vec::new();
    for m in &measured {
        tally.add(m.tally);
        notes.push(describe(m));
        if m.tracer.enabled() {
            spans.push((m.name, m.tracer.to_json()));
        }
    }
    if extra.attempted > 0 {
        notes.push(format!(
            "two-worker rows: {} stages, {} not identical to one worker",
            extra.attempted, extra.failed
        ));
    }
    for (name, value, unit) in &metrics {
        notes.push(format!("{name:<32} {value:>16.6} {unit}"));
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        notes.push("a metric is not a finite number".to_string());
    }
    Report {
        correct: tally.failed == 0 && finite,
        tally,
        metrics,
        notes,
        spans,
    }
}
