//! Interconnect link models.
//!
//! The paper distinguishes four data-movement media (Table I / Table II):
//! PCIe (CPU↔GPU and GPU↔GPU without NVLink), NVLink (GPU↔GPU in the
//! hybrid-mesh servers of Fig. 1b), Ethernet (server↔server) and the
//! GPU's own memory system (HBM), which the analytical model treats as
//! the "bandwidth" behind memory-bound operations.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::quantity::{Bandwidth, Bytes, Seconds};

/// The four data-movement media of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LinkKind {
    /// CPU↔GPU (and GPU↔GPU without NVLink) PCIe interconnect.
    Pcie,
    /// High-speed GPU↔GPU interconnect (hybrid mesh grid, Fig. 1b).
    NvLink,
    /// Cross-server network.
    Ethernet,
    /// GPU high-bandwidth memory; the medium of memory-bound operations.
    HbmMemory,
}

impl LinkKind {
    /// All link kinds, in Table I order.
    pub const ALL: [LinkKind; 4] = [
        LinkKind::Pcie,
        LinkKind::NvLink,
        LinkKind::Ethernet,
        LinkKind::HbmMemory,
    ];

    /// Human-readable name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::Pcie => "PCIe",
            LinkKind::NvLink => "NVLink",
            LinkKind::Ethernet => "Ethernet",
            LinkKind::HbmMemory => "GPU_memory",
        }
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A link with a raw bandwidth and an attainable-fraction efficiency.
///
/// The paper assumes workloads attain 70 % of every medium's raw
/// bandwidth (Sec. II-B); Sec. V-A varies that assumption. The
/// efficiency lives here so every transfer-time computation shares it.
///
/// # Examples
///
/// ```
/// use pai_hw::{LinkKind, LinkModel, Bandwidth, Bytes};
/// let eth = LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gbit_per_sec(25.0), 0.7);
/// let t = eth.transfer_time(Bytes::from_gb(1.0));
/// assert!((t.as_f64() - 1.0 / (3.125 * 0.7)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    kind: LinkKind,
    bandwidth: Bandwidth,
    efficiency: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn new(kind: LinkKind, bandwidth: Bandwidth, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "link efficiency must be in (0, 1], got {efficiency}"
        );
        LinkModel {
            kind,
            bandwidth,
            efficiency,
        }
    }

    /// The medium this link models.
    pub fn kind(&self) -> LinkKind {
        self.kind
    }

    /// The raw (pre-derating) bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The attainable fraction of the raw bandwidth.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// The bandwidth actually attainable by a workload
    /// (raw bandwidth × efficiency).
    pub fn effective_bandwidth(&self) -> Bandwidth {
        self.bandwidth.scale(self.efficiency)
    }

    /// Time to move `volume` over this link at the effective bandwidth;
    /// the `S / (B × eff)` building block of the paper's Eq. 1.
    pub fn transfer_time(&self, volume: Bytes) -> Seconds {
        volume / self.effective_bandwidth()
    }

    /// A copy with a different efficiency (sensitivity study, Sec. V-A).
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn with_efficiency(&self, efficiency: f64) -> LinkModel {
        LinkModel::new(self.kind, self.bandwidth, efficiency)
    }
}

impl fmt::Display for LinkModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} (eff {:.0}%)",
            self.kind,
            self.bandwidth,
            self.efficiency * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_applies_derating() {
        let link = LinkModel::new(LinkKind::Pcie, Bandwidth::from_gb_per_sec(10.0), 0.7);
        assert!((link.effective_bandwidth().as_gb_per_sec() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_is_volume_over_effective_bandwidth() {
        let link = LinkModel::new(LinkKind::NvLink, Bandwidth::from_gb_per_sec(50.0), 0.7);
        let t = link.transfer_time(Bytes::from_gb(35.0));
        assert!((t.as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_volume_transfers_instantly() {
        let link = LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gbit_per_sec(25.0), 0.7);
        assert!(link.transfer_time(Bytes::ZERO).is_zero());
    }

    #[test]
    #[should_panic(expected = "efficiency must be in")]
    fn rejects_zero_efficiency() {
        let _ = LinkModel::new(LinkKind::Pcie, Bandwidth::from_gb_per_sec(10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "efficiency must be in")]
    fn rejects_efficiency_above_one() {
        let _ = LinkModel::new(LinkKind::Pcie, Bandwidth::from_gb_per_sec(10.0), 1.5);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(LinkKind::HbmMemory.label(), "GPU_memory");
        assert_eq!(LinkKind::Pcie.to_string(), "PCIe");
        assert_eq!(LinkKind::ALL.len(), 4);
    }
}
