//! Pins the rendered profiling report byte for byte.
//!
//! The step is the BERT serving deep-dive of
//! `examples/inference_serving.rs`: the inference variant of BERT run
//! on the testbed simulator, one worker on one GPU, the five hottest
//! ops and the kind histogram. The fixture holds the text the report
//! printed when profiles carried their names and labels as strings;
//! the typed, op-indexed profiles must render it unchanged, ties among
//! the hottest ops included.

use pai_collectives::CommPlan;
use pai_core::Architecture;
use pai_graph::zoo::{self, inference::inference_variant};
use pai_profiler::report::{render, ReportOptions};
use pai_profiler::{JobMeta, RunMetadata};
use pai_sim::{SimConfig, StepSimulator};

#[test]
fn bert_serving_report_is_pinned() {
    let bert = inference_variant(&zoo::bert());
    let step = StepSimulator::new(SimConfig::testbed())
        .run(bert.graph(), &CommPlan::new(), 1)
        .expect("contention factor of 1 is always valid");
    let meta = RunMetadata::new(
        JobMeta {
            arch: Architecture::OneWorkerOneGpu,
            cnodes: 1,
            batch_size: bert.batch_size(),
        },
        step,
    );
    let text = render(
        &meta,
        bert.graph(),
        &ReportOptions {
            top_ops: 5,
            kind_histogram: true,
        },
    );
    assert_eq!(text, include_str!("fixtures/bert_serving_report.txt"));
}
