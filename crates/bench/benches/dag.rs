//! DAG critical-path evaluator throughput, plus a machine-readable
//! report.
//!
//! Besides the criterion groups, this target writes `BENCH_dag.json`
//! at the repository root: zoo graphs evaluated per second (lowering
//! included) per overlap strategy, feature-record jobs priced per
//! second through each [`StepTimeEngine`] backend, and the mean
//! additive-overstatement factor the WFBP backend reveals — so a
//! pricing regression and a modeling regression are both visible in
//! one file. The run fails if any DAG backend prices below a quarter
//! of the additive backend's jobs/sec: feature records are priced in
//! closed form, not by lowering and folding a step per job.

mod common;

use common::{time_best, TIMING_RUNS};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pai_core::PerfModel;
use pai_dag::{
    evaluate, lower, NetworkPath, OverlapStrategy, PricedStep, StepTimeBackend, StepTimeEngine,
};
use pai_graph::zoo;
use pai_par::Threads;
use pai_profiler::extract_features;
use pai_trace::{Population, PopulationConfig};
use std::time::Duration;

/// Population size for the feature-record backend throughput legs.
const JOBS: usize = 20_000;

/// The strategies the report contrasts, with their labels.
fn strategies() -> [OverlapStrategy; 3] {
    [
        OverlapStrategy::Serial,
        OverlapStrategy::Wfbp,
        OverlapStrategy::fused_default(),
    ]
}

/// Every training-zoo graph lowered once, with its network path.
fn lowered_zoo(model: &PerfModel) -> Vec<(PricedStep, NetworkPath)> {
    zoo::all()
        .into_iter()
        .map(|spec| {
            let cnodes = if spec.arch() == zoo::CaseStudyArch::OneWorkerOneGpu {
                1
            } else {
                8
            };
            let job = extract_features(&spec, cnodes);
            (
                lower::from_graph(spec.graph(), &job, model.config()),
                NetworkPath::for_arch(model.config(), job.arch()),
            )
        })
        .collect()
}

fn population() -> Population {
    let cfg = PopulationConfig::paper_scale(JOBS).expect("20k jobs is a valid scale");
    Population::generate(&cfg, pai_repro::SEED).expect("valid config")
}

fn bench_zoo_evaluate(c: &mut Criterion) {
    let model = PerfModel::paper_default();
    let steps = lowered_zoo(&model);
    let mut group = c.benchmark_group("dag_zoo_evaluate");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for strategy in strategies() {
        group.bench_function(strategy.label(), |b| {
            b.iter(|| {
                for (step, path) in &steps {
                    black_box(evaluate(step, path, strategy));
                }
            });
        });
    }
    group.finish();
}

fn bench_backend_pricing(c: &mut Criterion) {
    let model = PerfModel::paper_default();
    let pop = population();
    let mut group = c.benchmark_group("steptime_backends_20k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for (label, backend) in [
        ("additive", StepTimeBackend::Additive),
        ("wfbp", StepTimeBackend::Dag(OverlapStrategy::Wfbp)),
    ] {
        let engine = StepTimeEngine::new(model, backend);
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.component_times_all(&pop, Threads::SERIAL)));
        });
    }
    group.finish();
}

/// Measures evaluator and backend throughput and writes the
/// `BENCH_dag.json` report.
fn emit_report(_c: &mut Criterion) {
    let model = PerfModel::paper_default();
    let steps = lowered_zoo(&model);
    let pop = population();

    let mut strategy_rates = String::new();
    for strategy in strategies() {
        let secs = time_best(|| {
            for (step, path) in &steps {
                black_box(evaluate(step, path, strategy));
            }
        });
        let rate = steps.len() as f64 / secs.max(1e-12);
        strategy_rates.push_str(&format!(
            "    \"graphs_per_sec_{}\": {rate:.0},\n",
            strategy.label().replace('-', "_")
        ));
    }

    let mut backend_rates = String::new();
    let mut rates = Vec::new();
    let mut totals = Vec::new();
    for backend in [
        StepTimeBackend::Additive,
        StepTimeBackend::Dag(OverlapStrategy::Serial),
        StepTimeBackend::Dag(OverlapStrategy::Wfbp),
        StepTimeBackend::Dag(OverlapStrategy::fused_default()),
    ] {
        let engine = StepTimeEngine::new(model, backend);
        let secs = time_best(|| {
            black_box(engine.component_times_all(&pop, Threads::SERIAL));
        });
        let rate = pop.len() as f64 / secs.max(1e-12);
        rates.push((engine.backend(), rate));
        backend_rates.push_str(&format!(
            "    \"jobs_per_sec_{}\": {rate:.0},\n",
            engine.backend().label().replace('-', "_")
        ));
        let times = engine.component_times_all(&pop, Threads::SERIAL);
        let mean = times.iter().map(|t| t.total.as_f64()).sum::<f64>() / times.len().max(1) as f64;
        totals.push(mean);
    }
    let overstatement = totals[0] / totals[2].max(1e-30);

    // The closed form costs a few divisions per job more than the
    // additive model; lowering and folding a step per job runs near
    // 0.05 of it.
    let (_, additive_rate) = rates[0];
    for (backend, rate) in &rates[1..] {
        let ratio = rate / additive_rate;
        assert!(
            ratio >= 0.25,
            "{} prices at {ratio:.3} of the additive backend's jobs/s; the floor is 0.25",
            backend.label()
        );
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = format!(
        "{{\n  \"zoo_graphs\": {},\n  \"population_jobs\": {JOBS},\n  \
         \"host_cpus\": {host_cpus},\n  \
         \"timing\": \"best of {TIMING_RUNS} runs, wall clock\",\n  \
         \"zoo_evaluate\": {{\n{}    \"strategies\": {}\n  }},\n  \
         \"backend_pricing\": {{\n{}    \
         \"mean_additive_overstatement_vs_wfbp\": {overstatement:.4}\n  }}\n}}\n",
        steps.len(),
        strategy_rates,
        strategies().len(),
        backend_rates,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dag.json");
    std::fs::write(path, &report).expect("the repo root is writable");
    println!("wrote {path}\n{report}");
}

criterion_group!(
    benches,
    bench_zoo_evaluate,
    bench_backend_pricing,
    emit_report
);
criterion_main!(benches);
