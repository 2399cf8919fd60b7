//! The hardware-efficiency sensitivity study (Sec. V-A, Fig. 15).
//!
//! Sec. II-B assumes every hardware component runs at 70 % of peak.
//! Fig. 15 asks: if communication efficiency were really 50 %, or
//! computation only 50 % / 25 %, how does the CDF of the weight-traffic
//! share among PS/Worker jobs shift? The paper's punchline: "even when
//! the hardware efficiency in computation is only 25% ... the PS/Worker
//! workloads still spend more time on weight traffic on average."

use pai_hw::Efficiency;
use serde::{Deserialize, Serialize};

use crate::jobs::Jobs;
use crate::model::PerfModel;
use crate::stats::Ecdf;

/// The four efficiency scenarios plotted in Fig. 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EfficiencyScenario {
    /// The baseline: everything at 70 %.
    AllSeventy,
    /// PCIe/Ethernet/NVLink down to 50 %, compute/memory at 70 %.
    CommunicationFifty,
    /// Compute down to 50 %, everything else at 70 %.
    ComputationFifty,
    /// Compute down to 25 %, everything else at 70 %.
    ComputationTwentyFive,
}

impl EfficiencyScenario {
    /// All scenarios in Fig. 15 legend order.
    pub const ALL: [EfficiencyScenario; 4] = [
        EfficiencyScenario::AllSeventy,
        EfficiencyScenario::CommunicationFifty,
        EfficiencyScenario::ComputationFifty,
        EfficiencyScenario::ComputationTwentyFive,
    ];

    /// The label Fig. 15 uses.
    pub fn label(self) -> &'static str {
        match self {
            EfficiencyScenario::AllSeventy => "All eff. 70%",
            EfficiencyScenario::CommunicationFifty => "Communication eff. 50%",
            EfficiencyScenario::ComputationFifty => "Computation eff. 50%",
            EfficiencyScenario::ComputationTwentyFive => "Computation eff. 25%",
        }
    }

    /// The concrete efficiency assumption.
    pub fn efficiency(self) -> Efficiency {
        let base = Efficiency::paper_default();
        match self {
            EfficiencyScenario::AllSeventy => base,
            EfficiencyScenario::CommunicationFifty => base.with_communication(0.5),
            EfficiencyScenario::ComputationFifty => base.with_compute(0.5).with_memory(0.5),
            EfficiencyScenario::ComputationTwentyFive => base.with_compute(0.25).with_memory(0.25),
        }
    }
}

/// One Fig. 15 curve: the scenario and the CDF of the weight-traffic
/// share among the jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityCurve {
    /// Which efficiency assumption produced the curve.
    pub scenario: EfficiencyScenario,
    /// ECDF of the per-job weight-traffic fraction under the scenario.
    pub weight_fraction_cdf: Ecdf,
}

impl SensitivityCurve {
    /// The mean weight-traffic share under this scenario.
    pub fn mean_weight_fraction(&self) -> f64 {
        self.weight_fraction_cdf.mean()
    }
}

/// Computes the Fig. 15 family of curves for a job population
/// (the paper uses the PS/Worker subpopulation), over any
/// [`crate::jobs::Jobs`] storage.
///
/// # Panics
///
/// Panics if `jobs` is empty.
pub fn weight_fraction_sensitivity<J: Jobs + ?Sized>(
    model: &PerfModel,
    jobs: &J,
) -> Vec<SensitivityCurve> {
    assert!(!jobs.is_empty(), "sensitivity analysis needs jobs");
    EfficiencyScenario::ALL
        .into_iter()
        .map(|scenario| {
            let m = model.with_efficiency(scenario.efficiency());
            let fractions = jobs
                .iter_jobs()
                .map(|j| m.component_times(&j).weight_fraction())
                .collect::<Vec<_>>();
            SensitivityCurve {
                scenario,
                weight_fraction_cdf: Ecdf::from_values(fractions),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::features::WorkloadFeatures;
    use pai_hw::{Bytes, Flops};

    fn ps_population() -> Vec<WorkloadFeatures> {
        (1..=20)
            .map(|i| {
                WorkloadFeatures::builder(Architecture::PsWorker)
                    .cnodes(4 + i)
                    .batch_size(128)
                    .input_bytes(Bytes::from_mb(5.0))
                    .weight_bytes(Bytes::from_mb(200.0 * i as f64))
                    .flops(Flops::from_tera(0.5))
                    .mem_access_bytes(Bytes::from_gb(20.0))
                    .build()
            })
            .collect()
    }

    #[test]
    fn lower_comm_efficiency_raises_weight_share() {
        let jobs = ps_population();
        let curves = weight_fraction_sensitivity(&PerfModel::paper_default(), &jobs);
        let base = curves
            .iter()
            .find(|c| c.scenario == EfficiencyScenario::AllSeventy)
            .expect("baseline present");
        let slow_comm = curves
            .iter()
            .find(|c| c.scenario == EfficiencyScenario::CommunicationFifty)
            .expect("comm scenario present");
        assert!(slow_comm.mean_weight_fraction() > base.mean_weight_fraction());
    }

    #[test]
    fn lower_compute_efficiency_lowers_weight_share() {
        let jobs = ps_population();
        let curves = weight_fraction_sensitivity(&PerfModel::paper_default(), &jobs);
        let base = curves[0].mean_weight_fraction();
        let comp50 = curves[2].mean_weight_fraction();
        let comp25 = curves[3].mean_weight_fraction();
        assert!(comp50 < base);
        assert!(comp25 < comp50);
    }

    #[test]
    fn scenario_efficiencies_are_as_labeled() {
        let e = EfficiencyScenario::CommunicationFifty.efficiency();
        assert_eq!(e.pcie(), 0.5);
        assert_eq!(e.compute(), 0.7);
        let e = EfficiencyScenario::ComputationTwentyFive.efficiency();
        assert_eq!(e.compute(), 0.25);
        assert_eq!(e.memory(), 0.25);
        assert_eq!(e.ethernet(), 0.7);
    }

    #[test]
    fn labels_match_fig15() {
        assert_eq!(EfficiencyScenario::AllSeventy.label(), "All eff. 70%");
        assert_eq!(
            EfficiencyScenario::ComputationTwentyFive.label(),
            "Computation eff. 25%"
        );
    }

    #[test]
    #[should_panic(expected = "needs jobs")]
    fn rejects_empty_population() {
        let empty: Vec<WorkloadFeatures> = Vec::new();
        let _ = weight_fraction_sensitivity(&PerfModel::paper_default(), &empty);
    }
}
