//! Execution-time breakdowns (Fig. 7, Fig. 8, Fig. 10).
//!
//! A [`Breakdown`] holds the four per-step time components the paper
//! tracks — input data I/O, compute-bound computation, memory-bound
//! computation, and weight/gradient traffic — plus the split of the
//! weight-traffic time across media, which feeds the per-hardware view
//! of Fig. 8(a).

use std::fmt;

use pai_hw::{LinkKind, Seconds};
use serde::{Deserialize, Serialize};

use crate::overlap::OverlapMode;

/// Per-step execution-time decomposition of one training job.
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, WorkloadFeatures};
/// use pai_hw::{Bytes, Flops};
///
/// let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
///     .input_bytes(Bytes::from_mb(100.0))
///     .flops(Flops::from_tera(1.0))
///     .mem_access_bytes(Bytes::from_gb(10.0))
///     .build();
/// let b = PerfModel::paper_default().breakdown(&job);
/// let parts = b.data_fraction() + b.compute_fraction()
///     + b.memory_fraction() + b.weight_fraction();
/// assert!((parts - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    td: Seconds,
    tc_compute: Seconds,
    tc_memory: Seconds,
    tw: Seconds,
    /// Weight-traffic time attributed to each medium it crosses, in
    /// Table II order. Sums to `tw`.
    tw_by_medium: Vec<(LinkKind, Seconds)>,
    overlap: OverlapMode,
}

impl Breakdown {
    /// Assembles a breakdown from its components.
    ///
    /// # Panics
    ///
    /// Panics if the per-medium weight times do not sum to `tw`
    /// (tolerance 1 ppm of `tw`).
    pub fn new(
        td: Seconds,
        tc_compute: Seconds,
        tc_memory: Seconds,
        tw: Seconds,
        tw_by_medium: Vec<(LinkKind, Seconds)>,
        overlap: OverlapMode,
    ) -> Self {
        let medium_sum: f64 = tw_by_medium.iter().map(|(_, t)| t.as_f64()).sum();
        assert!(
            (medium_sum - tw.as_f64()).abs() <= 1e-6 * tw.as_f64().max(1e-30),
            "per-medium weight times ({medium_sum}) must sum to Tw ({})",
            tw.as_f64()
        );
        Breakdown {
            td,
            tc_compute,
            tc_memory,
            tw,
            tw_by_medium,
            overlap,
        }
    }

    /// `Td`: input data I/O time.
    pub fn data_io(&self) -> Seconds {
        self.td
    }

    /// The compute-bound half of `Tc`.
    pub fn compute_bound(&self) -> Seconds {
        self.tc_compute
    }

    /// The memory-bound half of `Tc`.
    pub fn memory_bound(&self) -> Seconds {
        self.tc_memory
    }

    /// `Tc = compute_bound + memory_bound`.
    pub fn computation(&self) -> Seconds {
        self.tc_compute + self.tc_memory
    }

    /// `Tw`: weight/gradient communication time.
    pub fn weight_traffic(&self) -> Seconds {
        self.tw
    }

    /// The weight-traffic time split across the media it crosses.
    pub fn weight_traffic_by_medium(&self) -> &[(LinkKind, Seconds)] {
        &self.tw_by_medium
    }

    /// The overlap assumption this breakdown totals under.
    pub fn overlap(&self) -> OverlapMode {
        self.overlap
    }

    /// `T_total` under the breakdown's overlap mode: the sum of parts
    /// for [`OverlapMode::Serialized`] (the paper's default),
    /// or `max{Td, Tc, Tw}` for [`OverlapMode::Ideal`] (Sec. V-B).
    pub fn total(&self) -> Seconds {
        let parts = [
            self.td.as_f64(),
            self.computation().as_f64(),
            self.tw.as_f64(),
        ];
        Seconds::from_f64(self.overlap.combine(&parts))
    }

    fn fraction(&self, part: Seconds) -> f64 {
        let total = self.total().as_f64();
        if total == 0.0 {
            0.0
        } else {
            part.as_f64() / total
        }
    }

    /// Share of `Td` in the total (a value in `[0, 1]`; under ideal
    /// overlap fractions may sum to more than 1).
    pub fn data_fraction(&self) -> f64 {
        self.fraction(self.td)
    }

    /// Share of compute-bound computation in the total.
    pub fn compute_fraction(&self) -> f64 {
        self.fraction(self.tc_compute)
    }

    /// Share of memory-bound computation in the total.
    pub fn memory_fraction(&self) -> f64 {
        self.fraction(self.tc_memory)
    }

    /// Share of weight/gradient traffic in the total — the quantity
    /// plotted in Fig. 8 and Fig. 15.
    pub fn weight_fraction(&self) -> f64 {
        self.fraction(self.tw)
    }

    /// The four shares in Fig. 7's legend order:
    /// `[data, weights, compute-bound, memory-bound]`.
    pub fn fractions(&self) -> [f64; 4] {
        [
            self.data_fraction(),
            self.weight_fraction(),
            self.compute_fraction(),
            self.memory_fraction(),
        ]
    }

    /// Re-totals the same component times under another overlap mode.
    pub fn with_overlap(&self, overlap: OverlapMode) -> Breakdown {
        Breakdown {
            overlap,
            ..self.clone()
        }
    }

    /// Time attributed to each hardware component (Fig. 8a):
    /// GPU FLOPs ← compute-bound, GPU memory ← memory-bound,
    /// PCIe ← data I/O + the PCIe share of weight traffic,
    /// Ethernet/NVLink ← their shares of weight traffic.
    pub fn by_hardware(&self) -> HardwareBreakdown {
        let mut pcie = self.td;
        let mut ethernet = Seconds::ZERO;
        let mut nvlink = Seconds::ZERO;
        let mut hbm = Seconds::ZERO;
        for &(kind, t) in &self.tw_by_medium {
            match kind {
                LinkKind::Pcie => pcie += t,
                LinkKind::Ethernet => ethernet += t,
                LinkKind::NvLink => nvlink += t,
                // Weight traffic never crosses HBM in Table II; should
                // a caller ever tag some, charge it to the GPU-memory
                // bucket rather than abort the breakdown.
                LinkKind::HbmMemory => hbm += t,
            }
        }
        HardwareBreakdown {
            gpu_flops: self.tc_compute,
            gpu_memory: self.tc_memory + hbm,
            pcie,
            ethernet,
            nvlink,
            total: self.total(),
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} = Td {} + Tc({} + {}) + Tw {}",
            self.total(),
            self.td,
            self.tc_compute,
            self.tc_memory,
            self.tw
        )
    }
}

/// Time attributed to each physical hardware component (Fig. 8a view).
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

impl crate::model::PerfModel {
    /// Evaluates the per-step breakdown of every job, in index order,
    /// over any [`crate::jobs::Jobs`] storage.
    ///
    /// Per-job model evaluation is a pure function of the job and
    /// chunks gather in index order, so the output is bit-for-bit
    /// identical at every thread count; [`pai_par::Threads::SERIAL`]
    /// is the single-threaded oracle.
    pub fn breakdowns<J: crate::jobs::Jobs + ?Sized>(
        &self,
        jobs: &J,
        threads: pai_par::Threads,
    ) -> Vec<Breakdown> {
        pai_par::scatter_gather(
            jobs.len(),
            pai_par::DEFAULT_CHUNK_SIZE,
            threads,
            |_, range| range.map(|i| self.breakdown(&jobs.get(i))).collect(),
        )
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
pub fn mean_fractions(breakdowns: &[Breakdown], weights: &[f64]) -> [f64; 4] {
    assert_eq!(
        breakdowns.len(),
        weights.len(),
        "one weight per breakdown required"
    );
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must sum to a positive value");
    let mut acc = [0.0f64; 4];
    for (b, &w) in breakdowns.iter().zip(weights) {
        let f = b.fractions();
        for (a, v) in acc.iter_mut().zip(f) {
            *a += w * v;
        }
    }
    acc.map(|a| a / wsum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Breakdown {
        Breakdown::new(
            Seconds::from_f64(0.1),
            Seconds::from_f64(0.2),
            Seconds::from_f64(0.3),
            Seconds::from_f64(0.4),
            vec![
                (LinkKind::Ethernet, Seconds::from_f64(0.32)),
                (LinkKind::Pcie, Seconds::from_f64(0.08)),
            ],
            OverlapMode::Serialized,
        )
    }

    #[test]
    fn total_is_sum_when_serialized() {
        assert!((sample().total().as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_is_max_when_ideal() {
        let b = sample().with_overlap(OverlapMode::Ideal);
        // max{0.1, 0.5, 0.4} = 0.5 (computation = compute + memory).
        assert!((b.total().as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one_serialized() {
        let f = sample().fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn by_hardware_routes_media() {
        let h = sample().by_hardware();
        assert!((h.pcie.as_f64() - 0.18).abs() < 1e-12); // Td 0.1 + PCIe Tw 0.08
        assert!((h.ethernet.as_f64() - 0.32).abs() < 1e-12);
        assert!(h.nvlink.is_zero());
        assert!((h.fraction(LinkKind::Ethernet) - 0.32).abs() < 1e-12);
        assert!((h.gpu_flops_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must sum to Tw")]
    fn rejects_inconsistent_media_split() {
        let _ = Breakdown::new(
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::from_f64(1.0),
            vec![(LinkKind::Ethernet, Seconds::from_f64(0.5))],
            OverlapMode::Serialized,
        );
    }

    #[test]
    fn zero_total_yields_zero_fractions() {
        let b = Breakdown::new(
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
            vec![],
            OverlapMode::Serialized,
        );
        assert_eq!(b.fractions(), [0.0; 4]);
        assert_eq!(b.by_hardware().fraction(LinkKind::Pcie), 0.0);
        assert_eq!(b.by_hardware().gpu_flops_fraction(), 0.0);
    }

    #[test]
    fn mean_fractions_weighted() {
        let a = Breakdown::new(
            Seconds::from_f64(1.0),
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
            vec![],
            OverlapMode::Serialized,
        );
        let b = Breakdown::new(
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::from_f64(1.0),
            vec![(LinkKind::NvLink, Seconds::from_f64(1.0))],
            OverlapMode::Serialized,
        );
        // Job-level: equal weight -> 50/50 between data and weights.
        let job = mean_fractions(&[a.clone(), b.clone()], &[1.0, 1.0]);
        assert!((job[0] - 0.5).abs() < 1e-12);
        assert!((job[1] - 0.5).abs() < 1e-12);
        // cNode-level: weight job B 3x heavier.
        let cnode = mean_fractions(&[a, b], &[1.0, 3.0]);
        assert!((cnode[0] - 0.25).abs() < 1e-12);
        assert!((cnode[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one weight per breakdown")]
    fn mean_fractions_rejects_length_mismatch() {
        let _ = mean_fractions(&[], &[1.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
    }
}
