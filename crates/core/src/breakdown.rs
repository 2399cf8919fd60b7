//! Population views of the Eq. 1 decomposition (Fig. 7, Fig. 8).
//!
//! One job's decomposition is [`crate::ComponentTimes`] (its terms,
//! uncombined, are [`crate::Eq1Terms`]). This module adds the two views
//! the figures need on top: [`HardwareBreakdown`], the per-hardware
//! attribution of Fig. 8(a), and [`mean_fractions`], the job-level and
//! cNode-level averages of Fig. 7.

use pai_hw::{LinkKind, Seconds};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::model::{ComponentTimes, Eq1Terms};

/// Time attributed to each physical hardware component (Fig. 8a view).
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, HardwareBreakdown, PerfModel, WorkloadFeatures};
/// use pai_hw::{Bytes, Flops, LinkKind};
///
/// let job = WorkloadFeatures::builder(Architecture::PsWorker)
///     .cnodes(16)
///     .input_bytes(Bytes::from_mb(100.0))
///     .weight_bytes(Bytes::from_gb(1.0))
///     .flops(Flops::from_tera(1.0))
///     .build();
/// let model = PerfModel::paper_default();
/// let terms = model.terms(&job);
/// let h = HardwareBreakdown::new(job.arch(), &terms, model.combine(&terms).total);
/// // 1 GB crosses 25 GbE and PCIe: Ethernet carries most of the step.
/// assert!(h.fraction(LinkKind::Ethernet) > h.fraction(LinkKind::Pcie));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareBreakdown {
    /// GPU arithmetic units (compute-bound ops).
    pub gpu_flops: Seconds,
    /// GPU memory system (memory-bound ops).
    pub gpu_memory: Seconds,
    /// PCIe: input data plus any PCIe-borne weight traffic.
    pub pcie: Seconds,
    /// Ethernet-borne weight traffic.
    pub ethernet: Seconds,
    /// NVLink-borne weight traffic.
    pub nvlink: Seconds,
    /// The job's `T_total` used as the percentage denominator.
    pub total: Seconds,
}

impl HardwareBreakdown {
    /// Attributes a job of class `arch` to hardware from its Eq. 1
    /// terms and its combined `total`: GPU FLOPs ← compute-bound,
    /// GPU memory ← memory-bound, PCIe ← data I/O plus the PCIe weight
    /// leg, Ethernet/NVLink ← their weight legs, each leg taken in
    /// `arch.weight_media()` order.
    pub fn new(arch: Architecture, terms: &Eq1Terms, total: Seconds) -> HardwareBreakdown {
        let mut pcie = terms.data_io;
        let mut ethernet = Seconds::ZERO;
        let mut nvlink = Seconds::ZERO;
        let mut hbm = Seconds::ZERO;
        for (&kind, &t) in arch.weight_media().iter().zip(&terms.weight) {
            match kind {
                LinkKind::Pcie => pcie += t,
                LinkKind::Ethernet => ethernet += t,
                LinkKind::NvLink => nvlink += t,
                // Weight traffic never crosses HBM in Table II; should a
                // class ever route some there, charge it to GPU memory.
                LinkKind::HbmMemory => hbm += t,
            }
        }
        HardwareBreakdown {
            gpu_flops: terms.compute_bound,
            gpu_memory: terms.memory_bound + hbm,
            pcie,
            ethernet,
            nvlink,
            total,
        }
    }

    /// Share of the given component in the total.
    pub fn fraction(&self, kind: LinkKind) -> f64 {
        let part = match kind {
            LinkKind::Pcie => self.pcie,
            LinkKind::Ethernet => self.ethernet,
            LinkKind::NvLink => self.nvlink,
            LinkKind::HbmMemory => self.gpu_memory,
        };
        if self.total.is_zero() {
            0.0
        } else {
            part.as_f64() / self.total.as_f64()
        }
    }

    /// Share of GPU arithmetic in the total.
    pub fn gpu_flops_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.gpu_flops.as_f64() / self.total.as_f64()
        }
    }
}

/// Averages Fig.-7-style component shares over a population.
///
/// `weights` supplies the per-job weight; pass all-ones for the
/// job-level view or the cNode counts for the cNode-level view (the
/// paper computes cNode-level percentages "as weighted sum of the
/// job-level percentages, with the weight being the cNode number").
///
/// Returns `[data, weights, compute-bound, memory-bound]` shares.
///
/// # Panics
///
/// Panics if the slices differ in length or the weights sum to zero.
pub fn mean_fractions(times: &[ComponentTimes], weights: &[f64]) -> [f64; 4] {
    assert_eq!(times.len(), weights.len(), "one weight per job required");
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must sum to a positive value");
    let mut acc = [0.0f64; 4];
    for (ct, &w) in times.iter().zip(weights) {
        for (a, v) in acc.iter_mut().zip(ct.fractions()) {
            *a += w * v;
        }
    }
    acc.map(|a| a / wsum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PerfModel;
    use crate::overlap::OverlapMode;

    fn terms(td: f64, tcc: f64, tcm: f64, weight: [f64; 2]) -> Eq1Terms {
        Eq1Terms {
            data_io: Seconds::from_f64(td),
            compute_bound: Seconds::from_f64(tcc),
            memory_bound: Seconds::from_f64(tcm),
            weight: weight.map(Seconds::from_f64),
        }
    }

    /// A PS/Worker step: Td 0.1, Tc 0.2 + 0.3, Tw 0.32 Ethernet + 0.08
    /// PCIe.
    fn sample() -> Eq1Terms {
        terms(0.1, 0.2, 0.3, [0.32, 0.08])
    }

    fn times(overlap: OverlapMode, terms: &Eq1Terms) -> ComponentTimes {
        PerfModel::paper_default()
            .with_overlap(overlap)
            .combine(terms)
    }

    #[test]
    fn total_is_sum_when_serialized() {
        let ct = times(OverlapMode::Serialized, &sample());
        assert!((ct.total.as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_is_max_when_ideal() {
        // max{0.1, 0.5, 0.4} = 0.5 (computation = compute + memory).
        let ct = times(OverlapMode::Ideal, &sample());
        assert!((ct.total.as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one_serialized() {
        let f = times(OverlapMode::Serialized, &sample()).fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn by_hardware_routes_media() {
        let ct = times(OverlapMode::Serialized, &sample());
        let h = HardwareBreakdown::new(Architecture::PsWorker, &sample(), ct.total);
        assert!((h.pcie.as_f64() - 0.18).abs() < 1e-12); // Td 0.1 + PCIe Tw 0.08
        assert!((h.ethernet.as_f64() - 0.32).abs() < 1e-12);
        assert!(h.nvlink.is_zero());
        assert!((h.fraction(LinkKind::Ethernet) - 0.32).abs() < 1e-12);
        assert!((h.gpu_flops_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_total_yields_zero_fractions() {
        let zero = terms(0.0, 0.0, 0.0, [0.0, 0.0]);
        let ct = times(OverlapMode::Serialized, &zero);
        assert_eq!(ct.fractions(), [0.0; 4]);
        let h = HardwareBreakdown::new(Architecture::OneWorkerOneGpu, &zero, ct.total);
        assert_eq!(h.fraction(LinkKind::Pcie), 0.0);
        assert_eq!(h.gpu_flops_fraction(), 0.0);
    }

    #[test]
    fn mean_fractions_weighted() {
        let a = times(OverlapMode::Serialized, &terms(1.0, 0.0, 0.0, [0.0; 2]));
        let b = times(OverlapMode::Serialized, &terms(0.0, 0.0, 0.0, [1.0, 0.0]));
        // Job-level: equal weight -> 50/50 between data and weights.
        let job = mean_fractions(&[a, b], &[1.0, 1.0]);
        assert!((job[0] - 0.5).abs() < 1e-12);
        assert!((job[1] - 0.5).abs() < 1e-12);
        // cNode-level: weight job B 3x heavier.
        let cnode = mean_fractions(&[a, b], &[1.0, 3.0]);
        assert!((cnode[0] - 0.25).abs() < 1e-12);
        assert!((cnode[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one weight per job")]
    fn mean_fractions_rejects_length_mismatch() {
        let _ = mean_fractions(&[], &[1.0]);
    }
}
