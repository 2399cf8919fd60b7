//! Serial vs parallel population characterization (the `pai-par`
//! scatter/gather executor), plus a machine-readable speedup report.
//!
//! Besides the criterion groups, this target writes
//! `BENCH_parallel.json` at the repository root: jobs/sec for
//! population generation and characterization (the headline
//! `characterize` pass plus the AllReduce-Local projections) at 1
//! thread and at `PAR_THREADS` threads, with the host's core count
//! alongside — a 1-core machine will honestly report a speedup near 1×.

mod common;

use common::{time_best, TIMING_RUNS};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pai_core::project::ProjectionTarget;
use pai_core::{characterize, Architecture, PerfModel};
use pai_par::Threads;
use pai_trace::{Population, PopulationConfig};
use std::time::Duration;

/// The ISSUE-mandated workload: a 50k-job population.
const JOBS: usize = 50_000;
/// The parallel worker count the report contrasts with serial.
const PAR_THREADS: usize = 4;

fn seed() -> u64 {
    pai_repro::SEED
}

fn config() -> PopulationConfig {
    PopulationConfig::paper_scale(JOBS).expect("50k jobs is a valid scale")
}

fn bench_generation(c: &mut Criterion) {
    let cfg = config();
    let mut group = c.benchmark_group("population_generate_50k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for threads in [1usize, PAR_THREADS] {
        group.bench_function(&format!("{threads}_threads"), |b| {
            b.iter(|| {
                black_box(
                    Population::builder(cfg.clone())
                        .seed(seed())
                        .threads(Threads::new(threads))
                        .build()
                        .expect("valid config"),
                )
            });
        });
    }
    group.finish();
}

fn bench_characterization(c: &mut Criterion) {
    let pop = Population::generate(&config(), seed()).expect("valid config");
    let model = PerfModel::paper_default();
    let jobs: Vec<_> = pop.records().iter().map(|r| r.features).collect();
    let ps = pop.jobs_of(Architecture::PsWorker);
    let mut group = c.benchmark_group("characterize_50k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for threads in [1usize, PAR_THREADS] {
        let t = Threads::new(threads);
        group.bench_function(&format!("{threads}_threads"), |b| {
            b.iter(|| {
                black_box(characterize(&model, &jobs, t));
                black_box(model.projections(&ps, ProjectionTarget::AllReduceLocal, t));
            });
        });
    }
    group.finish();
}

/// Measures jobs/sec at 1 and [`PAR_THREADS`] threads and writes the
/// `BENCH_parallel.json` report.
fn emit_report(_c: &mut Criterion) {
    let cfg = config();
    let model = PerfModel::paper_default();
    let pop = Population::generate(&cfg, seed()).expect("valid config");
    let jobs: Vec<_> = pop.records().iter().map(|r| r.features).collect();
    let ps = pop.jobs_of(Architecture::PsWorker);

    let mut rates = Vec::new();
    for threads in [1usize, PAR_THREADS] {
        let t = Threads::new(threads);
        let gen_s = time_best(|| {
            black_box(
                Population::builder(cfg.clone())
                    .seed(seed())
                    .threads(t)
                    .build()
                    .expect("valid config"),
            );
        });
        let char_s = time_best(|| {
            black_box(characterize(&model, &jobs, t));
            black_box(model.projections(&ps, ProjectionTarget::AllReduceLocal, t));
        });
        rates.push((threads, JOBS as f64 / gen_s, JOBS as f64 / char_s));
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (t1, gen1, char1) = rates[0];
    let (tn, genn, charn) = rates[1];
    let report = format!(
        "{{\n  \"workload_jobs\": {JOBS},\n  \"host_cpus\": {host_cpus},\n  \
         \"timing\": \"best of {TIMING_RUNS} runs, wall clock\",\n  \
         \"population_generate\": {{\n    \
         \"jobs_per_sec_{t1}_threads\": {gen1:.0},\n    \
         \"jobs_per_sec_{tn}_threads\": {genn:.0},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"characterize\": {{\n    \
         \"jobs_per_sec_{t1}_threads\": {char1:.0},\n    \
         \"jobs_per_sec_{tn}_threads\": {charn:.0},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        genn / gen1,
        charn / char1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &report).expect("the repo root is writable");
    println!("wrote {path}\n{report}");
}

criterion_group!(
    benches,
    bench_generation,
    bench_characterization,
    emit_report
);
criterion_main!(benches);
