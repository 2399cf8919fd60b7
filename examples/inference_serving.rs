//! Inference serving (the paper's Sec. VIII future work, implemented):
//! characterize forward-only variants of the six case-study models and
//! contrast them with their training profiles.
//!
//! Run with: `cargo run --release --example inference_serving`

use alibaba_pai_workloads::collectives::CommPlan;
use alibaba_pai_workloads::graph::zoo::{self, inference::inference_variant};
use alibaba_pai_workloads::profiler::report::{render, ReportOptions};
use alibaba_pai_workloads::profiler::{JobMeta, RunMetadata};
use alibaba_pai_workloads::sim::{SimConfig, StepSimulator};

fn main() {
    let sim = StepSimulator::new(SimConfig::testbed());

    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>12}",
        "model", "train step", "serve step", "ratio", "resident"
    );
    for model in zoo::all() {
        let serve = inference_variant(&model);
        let train_step = sim
            .run(model.graph(), &CommPlan::new(), 1)
            .expect("contention factor of 1 is always valid");
        let serve_step = sim
            .run(serve.graph(), &CommPlan::new(), 1)
            .expect("contention factor of 1 is always valid");
        println!(
            "{:<16} {:>9.1} ms {:>9.1} ms {:>7.1}x {:>12}",
            model.name(),
            train_step.total.as_millis(),
            serve_step.total.as_millis(),
            train_step.total.as_f64() / serve_step.total.as_f64(),
            format!("{}", serve.resident_bytes()),
        );
    }

    // Deep-dive into one serving profile with the report renderer.
    let bert = inference_variant(&zoo::bert());
    let step = sim
        .run(bert.graph(), &CommPlan::new(), 1)
        .expect("contention factor of 1 is always valid");
    let meta = RunMetadata::new(
        JobMeta {
            arch: alibaba_pai_workloads::core::Architecture::OneWorkerOneGpu,
            cnodes: 1,
            batch_size: bert.batch_size(),
        },
        step,
    );
    println!(
        "\nBERT serving profile:\n{}",
        render(
            &meta,
            bert.graph(),
            &ReportOptions {
                top_ops: 5,
                kind_histogram: true
            }
        )
    );
}
