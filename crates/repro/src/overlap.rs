//! The `overlap` extension experiment: what the paper's additive
//! `Td + Tc + Tw` model (Sec. II-B) overstates once communication is
//! allowed to overlap computation.
//!
//! The paper's Sec. V-B sensitivity study brackets the truth between
//! full serialization and full overlap; this experiment replaces the
//! bracket with the `pai-dag` critical-path evaluator: wait-free
//! backprop (WFBP) schedules each gradient's synchronization as soon
//! as its producer finishes, and tensor fusion coalesces small
//! messages into ≥32 MB buckets. Two views are reported:
//!
//! - the six case-study models (× training/inference/optimized), each
//!   lowered from its real op DAG — additive vs serial-DAG vs WFBP vs
//!   fused-WFBP step time, the exposed-communication fraction, and
//!   the additive-overstatement factor `T_additive / T_wfbp`;
//! - the whole synthetic population, priced through the
//!   [`StepTimeEngine`] feature-record backends and fanned over the
//!   worker pool — byte-identical at any `PAI_THREADS`.

use pai_dag::{evaluate, lower, NetworkPath, OverlapStrategy, StepTimeBackend, StepTimeEngine};
use pai_graph::passes::{apply_mixed_precision, xla};
use pai_graph::zoo::{self, inference};
use pai_graph::Graph;
use pai_hw::Bytes;
use pai_profiler::extract_features;
use serde_json::json;

use crate::render::{ms, pct, table};
use crate::{Context, ExperimentResult};

/// One zoo graph with the class context it is priced under.
struct Case {
    label: String,
    graph: Graph,
    job: pai_core::WorkloadFeatures,
}

/// The 18 zoo graphs at the `validate_all` cNode convention (1 for
/// the single-GPU Speech case study, 8 otherwise): every model in its
/// training, inference (read-only replicas — no synchronization) and
/// XLA+AMP-optimized form.
fn zoo_cases() -> Vec<Case> {
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

/// The step-time backends the population is priced under, in report
/// order: the additive closed form, then the DAG evaluator with no
/// overlap, WFBP, and fused WFBP.
fn backends() -> [StepTimeBackend; 4] {
    [
        StepTimeBackend::Additive,
        StepTimeBackend::Dag(OverlapStrategy::Serial),
        StepTimeBackend::Dag(OverlapStrategy::Wfbp),
        StepTimeBackend::Dag(OverlapStrategy::fused_default()),
    ]
}

/// Runs the overlap study: zoo graphs exactly, the population through
/// the feature-record backends.
pub fn overlap(ctx: &Context) -> ExperimentResult {
    let model = ctx.model;

    // Part 1: the 18 zoo graphs, lowered op by op.
    let mut rows = vec![vec![
        "model".to_string(),
        "additive".to_string(),
        "serial-dag".to_string(),
        "wfbp".to_string(),
        "fused-wfbp".to_string(),
        "exposed".to_string(),
        "overstate".to_string(),
    ]];
    let mut zoo_payload = Vec::new();
    for case in zoo_cases() {
        let step = lower::from_graph(&case.graph, &case.job, model.config());
        let path = NetworkPath::for_arch(model.config(), case.job.arch());
        let additive = model.component_times(&case.job);
        let serial = evaluate(&step, &path, OverlapStrategy::Serial);
        let wfbp = evaluate(&step, &path, OverlapStrategy::Wfbp);
        let fused = evaluate(&step, &path, OverlapStrategy::fused_default());
        let exposed = wfbp.comm_exposed.as_f64() / wfbp.total.as_f64().max(1e-30);
        let overstate = additive.total.as_f64() / wfbp.total.as_f64().max(1e-30);
        rows.push(vec![
            case.label.clone(),
            ms(additive.total),
            ms(serial.total),
            ms(wfbp.total),
            ms(fused.total),
            pct(exposed),
            format!("{overstate:.3}x"),
        ]);
        zoo_payload.push(json!({
            "model": case.label,
            "additive_s": additive.total.as_f64(),
            "serial_dag_s": serial.total.as_f64(),
            "wfbp_s": wfbp.total.as_f64(),
            "fused_wfbp_s": fused.total.as_f64(),
            "wfbp_exposed_frac": exposed,
            "wfbp_transfers": wfbp.transfers,
            "fused_transfers": fused.transfers,
            "overstatement": overstate,
        }));
    }

    // Part 2: the population through the backend seam, fanned over
    // the worker pool.
    let mut backend_payload = Vec::new();
    let mut backend_rows = vec![vec![
        "backend".to_string(),
        "mean step".to_string(),
        "mean exposed".to_string(),
        "vs additive".to_string(),
    ]];
    let mut additive_mean = 0.0f64;
    for backend in backends() {
        let engine = StepTimeEngine::new(model, backend);
        let times = engine.component_times_all(&ctx.population, ctx.threads);
        let n = times.len().max(1) as f64;
        let mean_total = times.iter().map(|t| t.total.as_f64()).sum::<f64>() / n;
        let mean_exposed = times
            .iter()
            .map(|t| t.weight_traffic.as_f64() / t.total.as_f64().max(1e-30))
            .sum::<f64>()
            / n;
        if matches!(backend, StepTimeBackend::Additive) {
            additive_mean = mean_total;
        }
        let vs_additive = additive_mean / mean_total.max(1e-30);
        backend_rows.push(vec![
            backend.label().to_string(),
            ms(pai_hw::Seconds::from_f64(mean_total)),
            pct(mean_exposed),
            format!("{vs_additive:.3}x"),
        ]);
        backend_payload.push(json!({
            "backend": backend.label(),
            "mean_step_s": mean_total,
            "mean_exposed_frac": mean_exposed,
            "additive_overstatement": vs_additive,
        }));
    }

    let text = format!(
        "Case-study graphs (step time per strategy; exposed = non-overlapped \
communication under WFBP; overstate = additive / WFBP):\n{}\n\
Population of {} jobs through the StepTimeEngine backends:\n{}",
        table(&rows),
        ctx.population.len(),
        table(&backend_rows),
    );
    ExperimentResult {
        id: "overlap",
        title: "Extension (Sec. V-B, carried further): \
communication/computation overlap via the DAG critical-path evaluator",
        text,
        json: json!({
            "seed": crate::SEED,
            "population": ctx.population.len(),
            "fusion_threshold_mb": pai_dag::evaluate::DEFAULT_FUSION_THRESHOLD_MB,
            "zoo": zoo_payload,
            "backends": backend_payload,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_table_covers_all_18_graphs_and_backends_are_ordered() {
        let ctx = Context::with_size(50);
        let result = overlap(&ctx);
        let zoo = result.json["zoo"].as_array().expect("zoo rows");
        assert_eq!(zoo.len(), 18);
        for row in zoo {
            let additive = row["additive_s"].as_f64().expect("additive");
            let serial = row["serial_dag_s"].as_f64().expect("serial");
            let wfbp = row["wfbp_s"].as_f64().expect("wfbp");
            assert!((serial - additive).abs() <= 1e-9 * additive.abs());
            assert!(wfbp <= serial * (1.0 + 1e-12));
        }
        let backends = result.json["backends"].as_array().expect("backends");
        assert_eq!(backends.len(), 4);
        assert_eq!(backends[0]["backend"], "additive");
        // The additive mean and the serial-DAG mean agree to 1e-9:
        // the population-level restatement of the zoo property.
        let add = backends[0]["mean_step_s"].as_f64().expect("mean");
        let serial = backends[1]["mean_step_s"].as_f64().expect("mean");
        assert!((add - serial).abs() <= 1e-9 * add.abs());
        // Overlap lowers the population mean, though a job with little
        // compute to hide its per-message α can price above serial.
        let wfbp = backends[2]["mean_step_s"].as_f64().expect("mean");
        assert!(wfbp <= serial * (1.0 + 1e-12));
    }
}
