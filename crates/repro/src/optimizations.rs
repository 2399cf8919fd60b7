//! Fig. 13: effectiveness of optimization techniques.
//!
//! - (a) mixed precision (TensorCore) and XLA fusion on a BERT-class
//!   model: the paper measures 1.44× end-to-end with MP (2.8× on
//!   MatMul), 1.76× with XLA alone, 2× with both;
//! - (b) XLA on the Speech model: 3.43× on element-wise ops, 1.83×
//!   end-to-end;
//! - (c) Multi-Interests under three (batch, attention-layers)
//!   configurations — the bottleneck moves;
//! - (d) GCN under PEARL vs the PS/Worker estimate — communication
//!   collapses from ~95 % of the step.

use pai_graph::passes::{apply_mixed_precision, fuse_elementwise};
use pai_graph::zoo::{self, ModelSpec, MultiInterestsConfig};
use pai_graph::{Graph, OpClass, OpType};
use pai_pearl::{comm_plan, ModelComm, Strategy};
use pai_profiler::validate::plan_for;
use pai_sim::{SimConfig, StepMeasurement, StepSimulator};
use serde_json::json;

use crate::render::{ms, pct, table};
use crate::{ExperimentResult, ReproError};

fn sim_for(model: &ModelSpec) -> StepSimulator {
    StepSimulator::new(SimConfig::testbed().with_efficiency(*model.measured_efficiency()))
}

fn run_variant(
    model: &ModelSpec,
    graph: &Graph,
    cnodes: usize,
) -> Result<StepMeasurement, ReproError> {
    let contention = match model.arch() {
        zoo::CaseStudyArch::AllReduceLocal | zoo::CaseStudyArch::Pearl => cnodes,
        _ => 1,
    };
    Ok(sim_for(model).run(graph, &plan_for(model, cnodes), contention)?)
}

/// Times of matmul-kind ops within a measurement.
fn matmul_time(m: &StepMeasurement) -> f64 {
    m.ops
        .iter()
        .filter(|o| matches!(o.kind, OpType::MatMul | OpType::Conv2d))
        .map(|o| o.duration.as_f64())
        .sum()
}

/// Times of element-wise-kind ops within a measurement.
fn elementwise_time(m: &StepMeasurement) -> f64 {
    m.ops
        .iter()
        .filter(|o| o.class == OpClass::MemoryBound)
        .map(|o| o.duration.as_f64())
        .sum()
}

fn opt_rows(
    model: &ModelSpec,
    cnodes: usize,
) -> Result<(Vec<Vec<String>>, serde_json::Value), ReproError> {
    let base_graph = model.graph().clone();
    let (mp_graph, _) = apply_mixed_precision(&base_graph);
    let xla_graph = fuse_elementwise(&base_graph);
    let (both_graph, _) = apply_mixed_precision(&xla_graph);

    let base = run_variant(model, &base_graph, cnodes)?;
    let mp = run_variant(model, &mp_graph, cnodes)?;
    let xla = run_variant(model, &xla_graph, cnodes)?;
    let both = run_variant(model, &both_graph, cnodes)?;

    let e2e = |m: &StepMeasurement| base.total.as_f64() / m.total.as_f64();
    let rows = vec![
        vec![
            "variant".to_string(),
            "step time".to_string(),
            "e2e speedup".to_string(),
            "MatMul speedup".to_string(),
            "element-wise speedup".to_string(),
            "kernels".to_string(),
        ],
        vec![
            "default".into(),
            ms(base.total),
            "1.00x".into(),
            "1.00x".into(),
            "1.00x".into(),
            format!("{}", base.kernels),
        ],
        vec![
            "mixed precision".into(),
            ms(mp.total),
            format!("{:.2}x", e2e(&mp)),
            format!("{:.2}x", matmul_time(&base) / matmul_time(&mp)),
            "1.00x".into(),
            format!("{}", mp.kernels),
        ],
        vec![
            "XLA".into(),
            ms(xla.total),
            format!("{:.2}x", e2e(&xla)),
            "1.00x".into(),
            format!("{:.2}x", elementwise_time(&base) / elementwise_time(&xla)),
            format!("{}", xla.kernels),
        ],
        vec![
            "MP + XLA".into(),
            ms(both.total),
            format!("{:.2}x", e2e(&both)),
            format!("{:.2}x", matmul_time(&base) / matmul_time(&both)),
            format!("{:.2}x", elementwise_time(&base) / elementwise_time(&both)),
            format!("{}", both.kernels),
        ],
    ];
    let json = json!({
        "mp_e2e": e2e(&mp),
        "mp_matmul": matmul_time(&base) / matmul_time(&mp),
        "xla_e2e": e2e(&xla),
        "xla_elementwise": elementwise_time(&base) / elementwise_time(&xla),
        "both_e2e": e2e(&both),
    });
    Ok((rows, json))
}

/// Fig. 13a: MP / XLA on the BERT-class model.
///
/// # Errors
///
/// Propagates any [`ReproError::Sim`] the variant runs report.
pub fn fig13a() -> Result<ExperimentResult, ReproError> {
    let model = zoo::bert();
    let (rows, json) = opt_rows(&model, 8)?;
    Ok(ExperimentResult {
        id: "fig13a",
        title: "Fig. 13a: BERT with mixed precision and XLA (paper: 1.44x MP / 2.8x MatMul, 1.76x XLA, 2x both)",
        text: table(&rows),
        json,
    })
}

/// Fig. 13b: XLA on the Speech model.
///
/// # Errors
///
/// Propagates any [`ReproError::Sim`] the variant runs report.
pub fn fig13b() -> Result<ExperimentResult, ReproError> {
    let model = zoo::speech();
    let (rows, json) = opt_rows(&model, 1)?;
    Ok(ExperimentResult {
        id: "fig13b",
        title: "Fig. 13b: Speech with XLA (paper: 3.43x element-wise, 1.83x end-to-end)",
        text: table(&rows),
        json,
    })
}

/// Fig. 13c: Multi-Interests under three configurations.
///
/// # Errors
///
/// Propagates any [`ReproError::Sim`] the variant runs report.
pub fn fig13c() -> Result<ExperimentResult, ReproError> {
    let configs = [
        (
            "batch 2048, 2 attn layers",
            MultiInterestsConfig {
                batch: 2048,
                attention_layers: 2,
            },
        ),
        (
            "batch 8192, 2 attn layers",
            MultiInterestsConfig {
                batch: 8192,
                attention_layers: 2,
            },
        ),
        (
            "batch 512, 1 attn layer",
            MultiInterestsConfig {
                batch: 512,
                attention_layers: 1,
            },
        ),
    ];
    let mut rows = vec![vec![
        "configuration".to_string(),
        "step".to_string(),
        "data I/O".to_string(),
        "communication".to_string(),
        "compute-bound".to_string(),
        "memory-bound".to_string(),
    ]];
    let mut payload = Vec::new();
    for (label, cfg) in configs {
        let model = zoo::multi_interests_with(cfg);
        let m = run_variant(&model, model.graph(), 8)?;
        rows.push(vec![
            label.to_string(),
            ms(m.total),
            pct(m.fraction(m.data_io)),
            pct(m.fraction(m.comm_total())),
            pct(m.fraction(m.compute_bound)),
            pct(m.fraction(m.memory_bound)),
        ]);
        payload.push(json!({
            "config": label,
            "comm_share": m.fraction(m.comm_total()),
            "memory_share": m.fraction(m.memory_bound),
        }));
    }
    Ok(ExperimentResult {
        id: "fig13c",
        title: "Fig. 13c: Multi-Interests under three training configurations",
        text: table(&rows),
        json: json!(payload),
    })
}

/// Fig. 13d: GCN under PEARL vs the PS/Worker estimate.
///
/// # Errors
///
/// Propagates any [`ReproError::Sim`] the variant runs report.
pub fn fig13d() -> Result<ExperimentResult, ReproError> {
    let model = zoo::gcn();
    let pearl = run_variant(&model, model.graph(), 8)?;
    let ps_plan = comm_plan(
        &Strategy::PsWorker {
            workers: 8,
            sparse_aware: true,
        },
        &ModelComm::of(&model),
    );
    let ps = sim_for(&model).run(model.graph(), &ps_plan, 1)?;
    let mut rows = vec![vec![
        "strategy".to_string(),
        "step".to_string(),
        "communication share".to_string(),
    ]];
    for (label, m) in [
        ("PEARL (NVLink)", &pearl),
        ("PS/Worker (Ethernet & PCIe)", &ps),
    ] {
        rows.push(vec![
            label.to_string(),
            ms(m.total),
            pct(m.fraction(m.comm_total())),
        ]);
    }
    Ok(ExperimentResult {
        id: "fig13d",
        title:
            "Fig. 13d: GCN time breakdown, PEARL vs PS/Worker (paper: 25% vs ~95% communication)",
        text: table(&rows),
        json: json!({
            "pearl_comm_share": pearl.fraction(pearl.comm_total()),
            "ps_comm_share": ps.fraction(ps.comm_total()),
            "pearl_step_s": pearl.total.as_f64(),
            "ps_step_s": ps.total.as_f64(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13a_mixed_precision_hits_the_measured_ballpark() {
        let r = fig13a().expect("fig13a runs");
        let matmul = r.json["mp_matmul"].as_f64().expect("f64");
        let e2e = r.json["mp_e2e"].as_f64().expect("f64");
        assert!((2.2..3.4).contains(&matmul), "MatMul speedup {matmul}");
        assert!((1.15..1.8).contains(&e2e), "e2e speedup {e2e}");
        let both = r.json["both_e2e"].as_f64().expect("f64");
        assert!(both > e2e, "MP+XLA ({both}) must beat MP alone ({e2e})");
    }

    #[test]
    fn fig13b_xla_accelerates_speech_elementwise() {
        let r = fig13b().expect("fig13b runs");
        let ew = r.json["xla_elementwise"].as_f64().expect("f64");
        let e2e = r.json["xla_e2e"].as_f64().expect("f64");
        assert!(ew > 1.5, "element-wise speedup {ew}");
        assert!(e2e > 1.1, "e2e speedup {e2e}");
    }

    #[test]
    fn fig13c_bottleneck_moves_across_configs() {
        let r = fig13c().expect("fig13c runs");
        let arr = r.json.as_array().expect("array");
        let comm: Vec<f64> = arr
            .iter()
            .map(|v| v["comm_share"].as_f64().expect("f64"))
            .collect();
        // The shallow small-batch config is the most communication-
        // bound of the three.
        assert!(comm[2] > comm[0], "{comm:?}");
        assert!(comm[2] > comm[1], "{comm:?}");
    }

    #[test]
    fn fig13d_pearl_collapses_communication() {
        let r = fig13d().expect("fig13d runs");
        let pearl = r.json["pearl_comm_share"].as_f64().expect("f64");
        let ps = r.json["ps_comm_share"].as_f64().expect("f64");
        assert!(ps > 0.9, "PS share {ps}");
        assert!(pearl < ps - 0.15, "PEARL {pearl} vs PS {ps}");
        let speedup = r.json["ps_step_s"].as_f64().expect("f64")
            / r.json["pearl_step_s"].as_f64().expect("f64");
        assert!(speedup > 5.0, "PEARL end-to-end speedup {speedup}");
    }
}
