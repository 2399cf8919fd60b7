//! Discrete-event scheduler throughput on the ISSUE-mandated 50k-job
//! trace, plus a machine-readable jobs/sec report.
//!
//! Besides the criterion groups, this target writes `BENCH_sched.json`
//! at the repository root: engine jobs/sec per policy (all six —
//! placement baselines, predictive QSSF, and the SJF oracle — each
//! running its *own* queue ordering via `run_kind`), the per-policy
//! outcome deltas against FIFO first-fit (mean JCT, bounded slowdown,
//! prediction error where the policy calibrates), and the policy ×
//! seed sweep rate at 1 thread and at `PAR_THREADS` threads. Each
//! sweep row records the `host_cpus` it ran on, and the speedup figure
//! (plus its sanity assertion) is skipped on a single-CPU host, where
//! a parallel-vs-serial ratio is noise, not signal. The run fails if
//! `qssf` or `sjf-oracle` falls below a quarter of `fifo-first-fit`'s
//! jobs/sec: ordered dispatch must not scan the queue.

mod common;

use common::{time_best, TIMING_RUNS};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_par::Threads;
use pai_sched::{
    policy_sweep, realize_stream, run_kind, templates_from_population, ArrivalConfig, PolicyKind,
    SchedConfig, SchedOutcome, SweepConfig,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};
use std::time::Duration;

/// The ISSUE-mandated workload: a 50k-job population.
const JOBS: usize = 50_000;
/// The parallel worker count the sweep report contrasts with serial.
const PAR_THREADS: usize = 4;

fn seed() -> u64 {
    pai_repro::SEED
}

fn population() -> Population {
    let cfg = PopulationConfig::paper_scale(JOBS).expect("50k jobs is a valid scale");
    Population::generate(&cfg, seed()).expect("valid config")
}

struct Workload {
    cluster: ClusterSpec,
    stream: Vec<pai_sched::SchedJob>,
    config: SchedConfig,
}

fn workload() -> Workload {
    let cluster = ClusterSpec::testbed(0.7);
    let model = PerfModel::paper_default();
    let pop = population();
    let (templates, _) = templates_from_population(&model, &pop, cluster.total_gpus());
    let arrival = ArrivalConfig::for_offered_load(&templates, &cluster, 0.25, (50, 500))
        .expect("non-empty templates");
    let failures = FailureSampler::paper_calibrated();
    let stream = realize_stream(&templates, &arrival, &failures, seed()).expect("valid stream");
    let config = SchedConfig {
        log_events: false,
        ..SchedConfig::default()
    };
    Workload {
        cluster,
        stream,
        config,
    }
}

fn bench_engine(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("sched_engine_50k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for kind in PolicyKind::ALL {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                black_box(
                    run_kind(&w.cluster, &w.stream, kind, seed(), &w.config).expect("stream runs"),
                )
            });
        });
    }
    group.finish();
}

/// One policy's outcome line for the report: the mean-JCT and
/// bounded-slowdown ratios against the FIFO first-fit baseline, and
/// the calibration error when the policy predicts.
fn outcome_line(out: &SchedOutcome, fifo: &SchedOutcome) -> String {
    let prediction = match &out.prediction {
        Some(report) => format!(
            "{{ \"mape\": {:.4}, \"p90_rel_err\": {:.4} }}",
            report.mape, report.p90_rel_err
        ),
        None => "null".to_string(),
    };
    format!(
        "{{ \"mean_jct_s\": {:.1}, \"mean_slowdown\": {:.2}, \
         \"jct_vs_fifo\": {:.3}, \"slowdown_vs_fifo\": {:.3}, \
         \"prediction\": {prediction} }}",
        out.cluster.mean_jct_s,
        out.cluster.mean_slowdown,
        out.cluster.mean_jct_s / fifo.cluster.mean_jct_s,
        out.cluster.mean_slowdown / fifo.cluster.mean_slowdown,
    )
}

/// Measures engine jobs/sec per policy and the sweep rate at 1 and
/// [`PAR_THREADS`] threads, then writes the `BENCH_sched.json` report.
fn emit_report(_c: &mut Criterion) {
    let w = workload();
    let model = PerfModel::paper_default();
    let pop = population();
    let n = w.stream.len();
    let host_cpus = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut outcomes = Vec::new();
    let mut rates = Vec::new();
    let mut policy_lines = String::new();
    for (i, kind) in PolicyKind::ALL.iter().enumerate() {
        let mut last = None;
        let secs = time_best(|| {
            last = Some(
                run_kind(&w.cluster, &w.stream, *kind, seed(), &w.config).expect("stream runs"),
            );
        });
        outcomes.push((*kind, last.expect("at least one timing run")));
        let rate = n as f64 / secs;
        rates.push((*kind, rate));
        let comma = if i + 1 < PolicyKind::ALL.len() {
            ","
        } else {
            ""
        };
        policy_lines.push_str(&format!("    \"{}\": {rate:.0}{comma}\n", kind.name()));
    }

    // An ordered queue costs FIFO plus one heap operation per dispatch;
    // a per-dispatch scan of the backlog would fall far below this.
    let rate_of = |kind| {
        rates
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, rate)| *rate)
            .expect("every policy is benchmarked")
    };
    let fifo_rate = rate_of(PolicyKind::FifoFirstFit);
    for kind in [PolicyKind::Qssf, PolicyKind::SjfOracle] {
        let ratio = rate_of(kind) / fifo_rate;
        assert!(
            ratio >= 0.25,
            "{} runs at {ratio:.3} of fifo-first-fit's jobs/s; the floor is 0.25",
            kind.name()
        );
    }

    let fifo = outcomes
        .iter()
        .find(|(kind, _)| *kind == PolicyKind::FifoFirstFit)
        .map(|(_, out)| out.clone())
        .expect("FIFO first-fit is always benchmarked");
    // This stream saturates the testbed (queueing delays far beyond
    // the one-virtual-day starvation bound), so nearly every queue
    // entry escalates to FIFO service and the predictive orderings'
    // JCT deltas sit near 1.0 by design — the bench measures engine
    // *throughput*; the policy-quality comparison lives in the
    // drained-backlog `repro schedule` regime (EXPERIMENTS.md).
    let mut outcome_lines = String::from(
        "    \"note\": \"saturated stream: the starvation bound escalates most \
         entries, so ordering deltas ~1.0 here; see repro schedule for the \
         drained-backlog comparison\",\n",
    );
    for (i, (kind, out)) in outcomes.iter().enumerate() {
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        outcome_lines.push_str(&format!(
            "    \"{}\": {}{comma}\n",
            kind.name(),
            outcome_line(out, &fifo)
        ));
    }

    let sweep_cfg = SweepConfig {
        arrival: ArrivalConfig::for_offered_load(
            &templates_from_population(&model, &pop, w.cluster.total_gpus()).0,
            &w.cluster,
            0.25,
            (50, 500),
        )
        .expect("non-empty templates"),
        seeds: vec![seed(), seed() ^ 1],
        policies: PolicyKind::ALL.to_vec(),
        ..SweepConfig::default()
    };
    let mut sweep_rows = String::new();
    let mut sweep_rates = Vec::new();
    for (i, threads) in [1usize, PAR_THREADS].iter().enumerate() {
        let secs = time_best(|| {
            black_box(
                policy_sweep(&w.cluster, &model, &pop, &sweep_cfg, Threads::new(*threads))
                    .expect("sweep runs"),
            );
        });
        let points = sweep_cfg.seeds.len() * sweep_cfg.policies.len();
        let rate = (points * n) as f64 / secs;
        sweep_rates.push(rate);
        let comma = if i == 0 { "," } else { "" };
        sweep_rows.push_str(&format!(
            "      {{ \"threads\": {threads}, \"host_cpus\": {host_cpus}, \
             \"jobs_per_sec\": {rate:.0} }}{comma}\n"
        ));
    }

    // The parallel-vs-serial ratio only means something when the host
    // can actually run the workers side by side: on a 1-CPU container
    // "speedup" is scheduler noise around 1.0, so the figure and its
    // sanity assertion are both skipped there.
    let speedup_entry = if host_cpus > 1 {
        let speedup = sweep_rates[1] / sweep_rates[0];
        if host_cpus >= PAR_THREADS {
            assert!(
                speedup > 0.8,
                "a {host_cpus}-CPU host must not lose throughput going \
                 1 -> {PAR_THREADS} sweep threads (measured {speedup:.3})"
            );
        }
        format!(",\n    \"speedup\": {speedup:.3}")
    } else {
        ",\n    \"speedup\": null,\n    \
         \"speedup_note\": \"single-CPU host: parallel-vs-serial ratio is noise; skipped\""
            .to_string()
    };

    let report = format!(
        "{{\n  \"workload_jobs\": {JOBS},\n  \"scheduled_jobs\": {n},\n  \
         \"host_cpus\": {host_cpus},\n  \
         \"timing\": \"best of {TIMING_RUNS} runs, wall clock\",\n  \
         \"engine_jobs_per_sec\": {{\n{policy_lines}  }},\n  \
         \"policy_outcomes\": {{\n{outcome_lines}  }},\n  \
         \"sweep_jobs_per_sec\": {{\n    \"rows\": [\n{sweep_rows}    ]{speedup_entry}\n  }}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    std::fs::write(path, &report).expect("the repo root is writable");
    println!("wrote {path}\n{report}");
}

criterion_group!(benches, bench_engine, emit_report);
criterion_main!(benches);
