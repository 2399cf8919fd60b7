//! Hardware-efficiency assumptions (Sec. II-B and Sec. V-A).
//!
//! The analytical model derates every hardware capacity to 70 % of
//! peak: "we use 70% of the actual capacities in the denominators when
//! computing Tc/Td/Tw". Sec. V-A studies how conclusions shift when
//! compute and communication efficiencies diverge from that assumption,
//! and Table VI reports the per-component efficiencies actually measured
//! for the six case-study models.

use std::fmt;

use crate::link::LinkKind;

/// The paper's baseline derating factor.
pub const DEFAULT_EFFICIENCY: f64 = 0.70;

/// Per-component attainable fractions of peak hardware capacity.
///
/// # Examples
///
/// ```
/// use pai_hw::Efficiency;
/// let base = Efficiency::uniform(0.7);
/// // Sec. V-A: communication efficiency dropped to 50 %.
/// let shifted = base.with_communication(0.5);
/// assert_eq!(shifted.compute(), 0.7);
/// assert_eq!(shifted.pcie(), 0.5);
/// assert_eq!(shifted.ethernet(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    compute: f64,
    memory: f64,
    pcie: f64,
    ethernet: f64,
    nvlink: f64,
}

fn check(name: &str, value: f64) -> f64 {
    assert!(
        value > 0.0 && value <= 1.0,
        "{name} efficiency must be in (0, 1], got {value}"
    );
    value
}

impl Efficiency {
    /// All components at the same fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn uniform(fraction: f64) -> Self {
        let f = check("uniform", fraction);
        Efficiency {
            compute: f,
            memory: f,
            pcie: f,
            ethernet: f,
            nvlink: f,
        }
    }

    /// The paper's baseline: everything at 70 %.
    pub fn paper_default() -> Self {
        Efficiency::uniform(DEFAULT_EFFICIENCY)
    }

    /// Fully explicit constructor.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is not in `(0, 1]`.
    pub fn per_component(compute: f64, memory: f64, pcie: f64, ethernet: f64, nvlink: f64) -> Self {
        Efficiency {
            compute: check("compute", compute),
            memory: check("memory", memory),
            pcie: check("pcie", pcie),
            ethernet: check("ethernet", ethernet),
            nvlink: check("nvlink", nvlink),
        }
    }

    /// GPU compute (TOPS column of Table VI).
    pub fn compute(&self) -> f64 {
        self.compute
    }

    /// GPU memory access (GDDR column of Table VI).
    pub fn memory(&self) -> f64 {
        self.memory
    }

    /// PCIe transfers.
    pub fn pcie(&self) -> f64 {
        self.pcie
    }

    /// Ethernet transfers.
    pub fn ethernet(&self) -> f64 {
        self.ethernet
    }

    /// NVLink transfers.
    pub fn nvlink(&self) -> f64 {
        self.nvlink
    }

    /// Efficiency of the medium behind a [`LinkKind`].
    pub fn link(&self, kind: LinkKind) -> f64 {
        match kind {
            LinkKind::Pcie => self.pcie,
            LinkKind::NvLink => self.nvlink,
            LinkKind::Ethernet => self.ethernet,
            LinkKind::HbmMemory => self.memory,
        }
    }

    /// A copy with a different compute efficiency (Sec. V-A,
    /// "Computation eff. 50%/25%").
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_compute(&self, fraction: f64) -> Efficiency {
        Efficiency {
            compute: check("compute", fraction),
            ..*self
        }
    }

    /// A copy with a different memory-access efficiency.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_memory(&self, fraction: f64) -> Efficiency {
        Efficiency {
            memory: check("memory", fraction),
            ..*self
        }
    }

    /// A copy with every communication medium (PCIe, Ethernet, NVLink)
    /// at `fraction` (Sec. V-A, "Communication eff. 50%").
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_communication(&self, fraction: f64) -> Efficiency {
        let f = check("communication", fraction);
        Efficiency {
            pcie: f,
            ethernet: f,
            nvlink: f,
            ..*self
        }
    }
}

impl Default for Efficiency {
    fn default() -> Self {
        Efficiency::paper_default()
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compute {:.0}% / mem {:.0}% / pcie {:.0}% / eth {:.0}% / nvlink {:.0}%",
            self.compute * 100.0,
            self.memory * 100.0,
            self.pcie * 100.0,
            self.ethernet * 100.0,
            self.nvlink * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_seventy_percent_everywhere() {
        let e = Efficiency::paper_default();
        for kind in LinkKind::ALL {
            assert_eq!(e.link(kind), 0.70);
        }
        assert_eq!(e.compute(), 0.70);
    }

    #[test]
    fn with_communication_leaves_compute_untouched() {
        let e = Efficiency::paper_default().with_communication(0.5);
        assert_eq!(e.compute(), 0.7);
        assert_eq!(e.memory(), 0.7);
        assert_eq!(e.pcie(), 0.5);
        assert_eq!(e.ethernet(), 0.5);
        assert_eq!(e.nvlink(), 0.5);
    }

    #[test]
    fn per_component_roundtrip() {
        // Table VI, GCN row.
        let e = Efficiency::per_component(0.882, 0.699, 0.862, 0.2735, 0.2735);
        assert_eq!(e.link(LinkKind::Pcie), 0.862);
        assert_eq!(e.link(LinkKind::Ethernet), 0.2735);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn rejects_out_of_range() {
        let _ = Efficiency::uniform(1.3);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Efficiency::paper_default().to_string().is_empty());
    }
}
