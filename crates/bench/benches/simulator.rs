//! Raw step-simulation throughput per zoo model, and the analytical
//! model's evaluation cost (the "lightweight framework" claim).

use criterion::{criterion_group, criterion_main, Criterion};
use pai_core::PerfModel;
use pai_graph::zoo;
use pai_profiler::extract_features;
use pai_profiler::validate::plan_for;
use pai_sim::{SimConfig, StepSimulator};
use std::hint::black_box;
use std::time::Duration;

fn bench_step_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_simulation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for model in zoo::all() {
        let cnodes = match model.arch() {
            zoo::CaseStudyArch::OneWorkerOneGpu => 1,
            _ => 8,
        };
        let plan = plan_for(&model, cnodes);
        let sim =
            StepSimulator::new(SimConfig::testbed().with_efficiency(*model.measured_efficiency()));
        group.bench_function(model.name(), |b| {
            b.iter(|| black_box(sim.run(model.graph(), &plan, cnodes)));
        });
    }
    group.finish();
}

fn bench_analytical_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytical");
    let model = PerfModel::testbed_default();
    let features: Vec<_> = zoo::all()
        .iter()
        .map(|m| {
            let cnodes = match m.arch() {
                zoo::CaseStudyArch::OneWorkerOneGpu => 1,
                _ => 8,
            };
            extract_features(m, cnodes)
        })
        .collect();
    group.bench_function("breakdown_six_models", |b| {
        b.iter(|| {
            for f in &features {
                black_box(model.component_times(f));
            }
        })
    });
    group.finish();
}

fn bench_zoo_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("zoo");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("build_all_six", |b| b.iter(|| black_box(zoo::all())));
    group.finish();
}

criterion_group!(
    benches,
    bench_step_simulation,
    bench_analytical_model,
    bench_zoo_construction
);
criterion_main!(benches);
