//! The ISSUE-10 acceptance properties, over all 18 zoo graphs
//! (6 case-study models × {training, inference, optimized}):
//!
//! 1. `Serial` reproduces the additive `Td + Tc + Tw` within 1e-9
//!    relative error — the DAG evaluator contains the paper's model
//!    as its no-overlap special case.
//! 2. `Wfbp ≤ Serial` — wait-free backprop can only help: the α cost
//!    it adds per message is always recouped by overlap on these
//!    graphs.
//! 3. `FusedWfbp ≤ Wfbp + fusion-latency bound` — fusion trades the
//!    saved per-message α against at most one bucket-fill delay; the
//!    slack is bounded by shipping one full bucket end to end.
//!
//! Graphs are validated (acyclic, every gradient tensor has a
//! producer) before the evaluator consumes them — the precondition
//! the zoo validator now enforces.

use pai_core::{PerfModel, WorkloadFeatures};
use pai_dag::{
    evaluate, lower, NetworkPath, OverlapStrategy, PricedStep, StepTimeBackend, StepTimeEngine,
};
use pai_graph::passes::validate::validate_training_graph;
use pai_graph::passes::{apply_mixed_precision, xla};
use pai_graph::zoo::{self, inference};
use pai_graph::Graph;
use pai_hw::Bytes;
use pai_profiler::extract_features;

/// One of the 18 graphs, with the class context it is priced under.
struct Case {
    label: String,
    graph: Graph,
    job: WorkloadFeatures,
}

/// The pinned population: every model at the `validate_all` cNode
/// convention (1 for the single-GPU Speech case study, 8 otherwise),
/// each in its training, inference and XLA+AMP-optimized form. The
/// synchronization volume is the per-replica payload the model's
/// Table IV strategy actually moves.
fn all_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for spec in zoo::all() {
        let cnodes = if spec.arch() == zoo::CaseStudyArch::OneWorkerOneGpu {
            1
        } else {
            8
        };
        let features = extract_features(&spec, cnodes);
        let arch = features.arch();
        let weight = features.weight_bytes();
        let serve = inference::inference_variant(&spec);
        let (optimized, _) = apply_mixed_precision(&xla::fuse_elementwise(spec.graph()));
        let variants: Vec<(&str, Graph, Bytes)> = vec![
            ("train", spec.graph().clone(), weight),
            // Serving replicas are read-only: no synchronization.
            ("inference", serve.graph().clone(), Bytes::ZERO),
            ("optimized", optimized, weight),
        ];
        for (kind, graph, weight_bytes) in variants {
            let job = lower::job_of_graph(&graph, arch, cnodes, spec.batch_size(), weight_bytes);
            cases.push(Case {
                label: format!("{}/{kind}", spec.name()),
                graph,
                job,
            });
        }
    }
    cases
}

fn lowered(case: &Case, model: &PerfModel) -> (PricedStep, NetworkPath) {
    (
        lower::from_graph(&case.graph, &case.job, model.config()),
        NetworkPath::for_arch(model.config(), case.job.arch()),
    )
}

#[test]
fn the_pinned_population_is_18_graphs() {
    assert_eq!(all_cases().len(), 18);
}

#[test]
fn every_graph_is_sound_before_the_evaluator_consumes_it() {
    for case in all_cases() {
        let diags = validate_training_graph(&case.graph);
        assert!(diags.is_empty(), "{}: {diags:?}", case.label);
    }
}

#[test]
fn serial_reproduces_the_additive_model_within_1e9_on_all_18_graphs() {
    let model = PerfModel::paper_default();
    for case in all_cases() {
        let (step, path) = lowered(&case, &model);
        let dag = evaluate(&step, &path, OverlapStrategy::Serial);
        let additive = model.component_times(&case.job);
        let d = lower::rel_diff(dag.total, additive.total);
        assert!(d < 1e-9, "{}: rel diff {d}", case.label);
        // The decomposition agrees term by term, not just in total.
        assert!(
            lower::rel_diff(dag.data_io, additive.data_io) < 1e-9,
            "{}: Td",
            case.label
        );
        assert!(
            lower::rel_diff(dag.compute_bound + dag.memory_bound, additive.computation()) < 1e-9,
            "{}: Tc",
            case.label
        );
        assert!(
            lower::rel_diff(dag.comm_exposed, additive.weight_traffic) < 1e-9,
            "{}: Tw",
            case.label
        );
    }
}

#[test]
fn wfbp_never_exceeds_serial_on_any_of_the_18_graphs() {
    let model = PerfModel::paper_default();
    for case in all_cases() {
        let (step, path) = lowered(&case, &model);
        let serial = evaluate(&step, &path, OverlapStrategy::Serial);
        let wfbp = evaluate(&step, &path, OverlapStrategy::Wfbp);
        assert!(
            wfbp.total.as_f64() <= serial.total.as_f64() * (1.0 + 1e-12),
            "{}: wfbp {} > serial {}",
            case.label,
            wfbp.total,
            serial.total
        );
        // Overlap never hides the compute stream itself (the two
        // sides sum the stream in different orders, hence the slack).
        assert!(wfbp.total.as_f64() >= wfbp.stream_length().as_f64() * (1.0 - 1e-12));
    }
}

#[test]
fn fused_wfbp_stays_within_one_bucket_fill_of_wfbp_on_all_18_graphs() {
    let model = PerfModel::paper_default();
    let threshold = Bytes::from_mb(pai_dag::evaluate::DEFAULT_FUSION_THRESHOLD_MB);
    for case in all_cases() {
        let (step, path) = lowered(&case, &model);
        let wfbp = evaluate(&step, &path, OverlapStrategy::Wfbp);
        let fused = evaluate(&step, &path, OverlapStrategy::FusedWfbp { threshold });
        // Fusion may delay the first flush while a bucket fills, but
        // never by more than shipping one full bucket end to end.
        let bound = wfbp.total + path.message_time(threshold);
        assert!(
            fused.total.as_f64() <= bound.as_f64() * (1.0 + 1e-12),
            "{}: fused {} > wfbp {} + bound",
            case.label,
            fused.total,
            wfbp.total
        );
        // And it never issues more transfers than WFBP.
        assert!(fused.transfers <= wfbp.transfers, "{}", case.label);
    }
}

#[test]
fn fusion_strictly_reduces_transfer_count_on_multi_message_graphs() {
    let model = PerfModel::paper_default();
    let mut reduced = 0usize;
    for case in all_cases() {
        let (step, path) = lowered(&case, &model);
        let wfbp = evaluate(&step, &path, OverlapStrategy::Wfbp);
        let fused = evaluate(&step, &path, OverlapStrategy::fused_default());
        if wfbp.transfers > 8 && fused.transfers < wfbp.transfers {
            reduced += 1;
        }
    }
    assert!(
        reduced >= 3,
        "fusion must bite on the deep models: {reduced}"
    );
}

#[test]
fn engine_backends_agree_with_the_direct_evaluator_contract() {
    // The feature-record backends obey the same ordering laws as the
    // graph evaluator on every zoo job.
    let model = PerfModel::paper_default();
    let serial = StepTimeEngine::new(model, StepTimeBackend::Dag(OverlapStrategy::Serial));
    let wfbp = StepTimeEngine::new(model, StepTimeBackend::Dag(OverlapStrategy::Wfbp));
    let fused = StepTimeEngine::new(
        model,
        StepTimeBackend::Dag(OverlapStrategy::fused_default()),
    );
    for case in all_cases() {
        let job = &case.job;
        let t_add = model.total_time(job).as_f64();
        let t_serial = serial.component_times(job).total.as_f64();
        let t_wfbp = wfbp.component_times(job).total.as_f64();
        let t_fused = fused.component_times(job).total.as_f64();
        let d = (t_serial - t_add).abs() / t_add.max(1e-30);
        assert!(d < 1e-9, "{}: engine serial vs additive {d}", case.label);
        assert!(t_wfbp <= t_serial * (1.0 + 1e-12), "{}", case.label);
        assert!(t_fused <= t_serial * (1.0 + 1e-12), "{}", case.label);
    }
}
