//! Model validation (Sec. IV-B, Fig. 12): analytical estimate vs
//! simulated measurement, per execution-time component.
//!
//! The estimate follows Sec. II-B exactly — every capacity derated to
//! 70 %. The "measurement" runs the discrete-event simulator with the
//! model's Table VI per-component efficiencies and the framework's
//! kernel-launch overhead. The headline metric is the paper's
//! `(T_predict − T_actual) / T_actual`.

use pai_collectives::CommPlan;
use pai_core::{ComponentTimes, PerfModel};
use pai_graph::zoo::ModelSpec;
use pai_hw::Seconds;
use pai_pearl::{comm_plan, ModelComm, Strategy};
use pai_sim::{SimConfig, StepMeasurement, StepSimulator};
use serde::{Deserialize, Serialize};

use crate::features::{architecture_of, extract_features};

/// One row of the Fig. 12 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Model name.
    pub model: String,
    /// Replica count used.
    pub cnodes: usize,
    /// The analytical per-component estimate (70 % assumption).
    pub estimated: ComponentTimes,
    /// Total estimated step time.
    pub estimated_total: Seconds,
    /// The simulated measurement (Table VI efficiencies + overhead).
    pub measured: StepMeasurement,
    /// `(T_predict − T_actual) / T_actual`.
    pub difference: f64,
}

impl ValidationReport {
    /// Estimated component fractions `[data, weights, compute, memory]`.
    pub fn estimated_fractions(&self) -> [f64; 4] {
        self.estimated.fractions()
    }

    /// Measured component fractions in the same order.
    pub fn measured_fractions(&self) -> [f64; 4] {
        let m = &self.measured;
        [
            m.fraction(m.data_io),
            m.fraction(m.comm_total()),
            m.fraction(m.compute_bound),
            m.fraction(m.memory_bound),
        ]
    }
}

/// The communication plan of `model` at `cnodes` replicas.
pub fn plan_for(model: &ModelSpec, cnodes: usize) -> CommPlan {
    comm_plan(&Strategy::for_model(model, cnodes), &ModelComm::of(model))
}

/// Runs the Fig. 12 comparison for one model.
///
/// # Panics
///
/// Panics if `cnodes` is zero.
pub fn validate_model(model: &ModelSpec, cnodes: usize) -> ValidationReport {
    let features = extract_features(model, cnodes);
    let analytical = PerfModel::testbed_default();
    let estimated = analytical.component_times(&features);
    let estimated_total = estimated.total;

    let arch = architecture_of(model.arch(), cnodes);
    let contention = arch.input_contention_factor(cnodes, pai_core::model::GPUS_PER_SERVER);
    let sim =
        StepSimulator::new(SimConfig::testbed().with_efficiency(*model.measured_efficiency()));
    let measured = sim
        .run(model.graph(), &plan_for(model, cnodes), contention)
        .expect("contention factor is at least 1 for nonzero cnodes");

    let difference = (estimated_total.as_f64() - measured.total.as_f64()) / measured.total.as_f64();
    ValidationReport {
        model: model.name().to_string(),
        cnodes,
        estimated,
        estimated_total,
        measured,
        difference,
    }
}

/// Validates all six case-study models at their Table IV scales
/// (8 replicas for the distributed ones, 1 for Speech).
pub fn validate_all() -> Vec<ValidationReport> {
    pai_graph::zoo::all()
        .iter()
        .map(|m| {
            let cnodes = match m.arch() {
                pai_graph::zoo::CaseStudyArch::OneWorkerOneGpu => 1,
                _ => 8,
            };
            validate_model(m, cnodes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_graph::zoo;
    use pai_pearl::Strategy;

    #[test]
    fn well_behaved_models_validate_within_fifteen_percent() {
        // Fig. 12: "The difference is less than 10% in most cases".
        // Our simulator is not their testbed; we allow 15 %.
        for m in [zoo::resnet50(), zoo::nmt(), zoo::bert()] {
            let r = validate_model(&m, 8);
            assert!(
                r.difference.abs() < 0.15,
                "{}: difference {:+.3}",
                m.name(),
                r.difference
            );
        }
    }

    #[test]
    fn speech_estimate_diverges_badly() {
        // Fig. 12: "For the Speech model, the difference is more than
        // 66.7%" — the 3.1 % memory efficiency (Table VI) wrecks the
        // 70 % assumption. Sign: the model underpredicts.
        let r = validate_model(&zoo::speech(), 1);
        assert!(r.difference < -0.35, "difference {:+.3}", r.difference);
    }

    #[test]
    fn fractions_are_normalized() {
        let r = validate_model(&zoo::resnet50(), 8);
        let est_sum: f64 = r.estimated_fractions().iter().sum();
        assert!((est_sum - 1.0).abs() < 1e-9);
        let meas_sum: f64 = r.measured_fractions().iter().sum();
        // Measured phases are serialized, so they also partition.
        assert!((meas_sum - 1.0).abs() < 0.05, "sum {meas_sum}");
    }

    #[test]
    fn validate_all_covers_six_models() {
        let reports = validate_all();
        assert_eq!(reports.len(), 6);
        let names: Vec<&str> = reports.iter().map(|r| r.model.as_str()).collect();
        assert!(names.contains(&"Speech"));
        assert!(names.contains(&"GCN"));
    }

    #[test]
    fn gcn_pearl_slashes_the_communication_share() {
        // Fig. 13d: PS/Worker spends ~95 % of the GCN step communicating;
        // PEARL far less. (The paper's exact 25 % PEARL share is not
        // jointly consistent with Table V's 3 GB traffic and Table VI's
        // 27.35 % NVLink efficiency at Table I's 50 GB/s — see
        // EXPERIMENTS.md; we reproduce the contrast, not the 25 %.)
        let model = zoo::gcn();
        let pearl = validate_model(&model, 8);
        let pearl_share = pearl.measured.fraction(pearl.measured.comm_total());
        assert!(pearl_share < 0.85, "PEARL comm share {pearl_share}");

        // The same model forced onto PS/Worker.
        let sim =
            StepSimulator::new(SimConfig::testbed().with_efficiency(*model.measured_efficiency()));
        let ps_plan = comm_plan(
            &Strategy::PsWorker {
                workers: 8,
                sparse_aware: true,
            },
            &ModelComm::of(&model),
        );
        let ps = sim.run(model.graph(), &ps_plan, 1).unwrap();
        let ps_share = ps.fraction(ps.comm_total());
        assert!(ps_share > 0.90, "PS comm share {ps_share}");
        assert!(ps_share > pearl_share + 0.15);
    }
}
