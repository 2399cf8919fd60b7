//! One Criterion benchmark per table and figure: `cargo bench` both
//! times and regenerates every artifact of the paper's evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use pai_bench::bench_context;
use pai_repro::{run_experiment, EXPERIMENTS};
use std::hint::black_box;
use std::time::Duration;

fn bench_experiments(c: &mut Criterion) {
    let ctx = bench_context();
    let mut group = c.benchmark_group("paper_artifacts");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for &(id, _) in EXPERIMENTS {
        group.bench_function(id, |b| {
            b.iter(|| black_box(run_experiment(id, &ctx)));
        });
    }
    group.finish();
}

fn bench_population_generation(c: &mut Criterion) {
    use pai_trace::{Population, PopulationConfig};
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    group.bench_function("generate_2k_jobs", |b| {
        let cfg = PopulationConfig::paper_scale(2_000).unwrap();
        b.iter(|| black_box(Population::generate(&cfg, 1_905_930).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_experiments, bench_population_generation);
criterion_main!(benches);
