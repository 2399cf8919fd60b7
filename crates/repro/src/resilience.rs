//! Resilience scorecard: healthy vs degraded step-time distributions
//! and goodput under a deterministic fault plan.
//!
//! The paper's testbed numbers are healthy-cluster numbers. This
//! experiment replays the same synchronous training step through the
//! fault-injecting simulator twice — once under
//! [`FaultPlan::healthy`], once under a nonzero plan with a
//! straggler, a degraded NIC, transient PS RPC retries, and a node
//! crash with checkpoint/restart — for the two sync architectures the
//! paper contrasts (PS/Worker on Ethernet, AllReduce-Local on
//! PCIe/NVLink), and reports the p50/p95/p99 step-time percentiles
//! and goodput of each run.
//!
//! The closed-form cross-check:
//! [`pai_core::resilience::expected_straggler_dilation`] predicts the straggler
//! contribution analytically; the JSON payload carries both so the
//! simulated barrier dilation can be compared against the formula.

use pai_core::resilience::expected_straggler_dilation;
use pai_faults::FaultPlan;
use pai_graph::zoo;
use pai_hw::Seconds;
use pai_pearl::{comm_plan, ModelComm, Strategy};
use pai_sim::{FaultedRun, SimConfig, StepSimulator, StepStats};
use serde_json::json;

use crate::render::{ms, table};
use crate::{Context, ExperimentResult, ReproError, SEED};

/// Replica-group width for both architectures.
const REPLICAS: usize = 8;
/// Steps per simulated run.
const STEPS: usize = 32;
/// The straggling replica's compute dilation.
const STRAGGLER_SLOWDOWN: f64 = 1.8;

/// The degraded plan: one straggler, one degraded NIC, one crash with
/// checkpoint/restart, and (for PS/Worker) transient RPC retries.
fn degraded_plan(ps: bool) -> Result<FaultPlan, ReproError> {
    let mut builder = FaultPlan::builder(REPLICAS)
        .seed(SEED)
        .jitter(0.01)
        .straggler(3, STRAGGLER_SLOWDOWN)
        .nic_degradation(5, 2.5)
        .crash(1, 12, Seconds::from_f64(60.0), 4);
    if ps {
        builder = builder.ps_retry(2, 3);
    }
    Ok(builder.build()?)
}

fn run_config(
    strategy: &Strategy,
    plan: &FaultPlan,
    threads: pai_par::Threads,
) -> Result<FaultedRun, ReproError> {
    let model = zoo::resnet50();
    let comm = comm_plan(strategy, &ModelComm::of(&model));
    let sim =
        StepSimulator::new(SimConfig::testbed().with_efficiency(*model.measured_efficiency()));
    Ok(sim.run_faulted(model.graph(), &comm, STEPS, plan, threads)?)
}

fn stats_of(run: &FaultedRun) -> Result<StepStats, ReproError> {
    Ok(run.stats()?)
}

fn row(label: &str, s: &StepStats) -> Vec<String> {
    vec![
        label.to_string(),
        ms(s.p50),
        ms(s.p95),
        ms(s.p99),
        ms(s.wall_clock),
        format!("{:.2}", s.goodput),
        format!("{}", s.lost_steps),
    ]
}

fn stats_json(s: &StepStats) -> serde_json::Value {
    json!({
        "p50_s": s.p50.as_f64(),
        "p95_s": s.p95.as_f64(),
        "p99_s": s.p99.as_f64(),
        "wall_clock_s": s.wall_clock.as_f64(),
        "goodput_steps_per_s": s.goodput,
        "lost_steps": s.lost_steps,
    })
}

/// The resilience scorecard experiment.
///
/// # Errors
///
/// Propagates any fault-plan or simulation error the scorecard runs
/// report.
pub fn resilience(ctx: &Context) -> Result<ExperimentResult, ReproError> {
    let configs = [
        (
            "PS/Worker",
            Strategy::PsWorker {
                workers: REPLICAS,
                sparse_aware: true,
            },
            true,
        ),
        (
            "AllReduce-Local",
            Strategy::AllReduceLocal { gpus: REPLICAS },
            false,
        ),
    ];

    let mut rows = vec![vec![
        "configuration".to_string(),
        "p50".to_string(),
        "p95".to_string(),
        "p99".to_string(),
        "wall clock".to_string(),
        "goodput (steps/s)".to_string(),
        "lost steps".to_string(),
    ]];
    let mut payload = Vec::new();
    for (label, strategy, ps) in configs {
        let healthy = run_config(&strategy, &FaultPlan::healthy(REPLICAS)?, ctx.threads)?;
        let degraded = run_config(&strategy, &degraded_plan(ps)?, ctx.threads)?;
        let hs = stats_of(&healthy)?;
        let ds = stats_of(&degraded)?;
        rows.push(row(&format!("{label} (healthy)"), &hs));
        rows.push(row(&format!("{label} (degraded)"), &ds));

        // Analytical cross-check: with exactly one straggler among
        // REPLICAS replicas, the barrier dilation formula at
        // p = 1/REPLICAS predicts the mean compute stretch.
        let predicted_dilation =
            expected_straggler_dilation(REPLICAS, 1.0 / REPLICAS as f64, STRAGGLER_SLOWDOWN);
        payload.push(json!({
            "configuration": label,
            "healthy": stats_json(&hs),
            "degraded": stats_json(&ds),
            "goodput_retention": ds.goodput / hs.goodput,
            "predicted_straggler_dilation": predicted_dilation,
            "lost_time_s": degraded.lost_time.as_f64(),
        }));
    }

    Ok(ExperimentResult {
        id: "resilience",
        title: "Resilience scorecard: healthy vs degraded step times and goodput \
                (straggler + degraded NIC + crash/restart + PS retries)",
        text: table(&rows),
        json: json!(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> serde_json::Value {
        resilience(&Context::with_size(10))
            .expect("scorecard runs")
            .json
    }

    #[test]
    fn covers_both_sync_architectures() {
        let p = payload();
        let labels: Vec<&str> = p
            .as_array()
            .expect("array")
            .iter()
            .map(|v| v["configuration"].as_str().expect("str"))
            .collect();
        assert_eq!(labels, ["PS/Worker", "AllReduce-Local"]);
    }

    #[test]
    fn degradation_costs_goodput_and_tail_latency() {
        for entry in payload().as_array().expect("array") {
            let retention = entry["goodput_retention"].as_f64().expect("f64");
            assert!(
                (0.0..1.0).contains(&retention),
                "degraded goodput must drop: retention {retention}"
            );
            let h99 = entry["healthy"]["p99_s"].as_f64().expect("f64");
            let d99 = entry["degraded"]["p99_s"].as_f64().expect("f64");
            assert!(d99 > h99, "degraded p99 {d99} vs healthy {h99}");
            // The crash loses steps and wall-clock time.
            assert_eq!(entry["degraded"]["lost_steps"].as_u64(), Some(4));
            assert!(entry["lost_time_s"].as_f64().expect("f64") > 60.0);
            assert_eq!(entry["healthy"]["lost_steps"].as_u64(), Some(0));
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        for entry in payload().as_array().expect("array") {
            for run in ["healthy", "degraded"] {
                let p50 = entry[run]["p50_s"].as_f64().expect("f64");
                let p95 = entry[run]["p95_s"].as_f64().expect("f64");
                let p99 = entry[run]["p99_s"].as_f64().expect("f64");
                assert!(p50 <= p95 && p95 <= p99, "{run}: {p50} {p95} {p99}");
            }
        }
    }

    #[test]
    fn scorecard_is_deterministic() {
        let a = resilience(&Context::with_size(10)).expect("scorecard runs");
        let b = resilience(&Context::with_size(10)).expect("scorecard runs");
        assert_eq!(a.json, b.json);
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn straggler_prediction_is_in_range() {
        for entry in payload().as_array().expect("array") {
            let d = entry["predicted_straggler_dilation"].as_f64().expect("f64");
            assert!(d > 1.0 && d < STRAGGLER_SLOWDOWN, "predicted dilation {d}");
        }
    }
}
