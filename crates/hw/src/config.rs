//! The system configuration of Table I and the variation grid of
//! Table III.
//!
//! A [`HardwareConfig`] bundles the four capacities the analytical model
//! divides by (GPU FLOPs, GPU memory bandwidth, PCIe, Ethernet) plus
//! NVLink, together with the [`Efficiency`] derating. The Table III
//! sweep enumerates configurations with one resource varied at a time;
//! Fig. 11 plots speedup against each resource normalized to its
//! Table I value.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::efficiency::Efficiency;
use crate::gpu::GpuSpec;
use crate::link::{LinkKind, LinkModel};
use crate::quantity::Bandwidth;

/// A complete system configuration (Table I + efficiency assumption).
///
/// # Examples
///
/// ```
/// use pai_hw::{HardwareConfig, LinkKind};
///
/// let cfg = HardwareConfig::pai_default();
/// assert_eq!(cfg.gpu().peak_flops().as_tera_per_sec(), 11.0);
/// assert!((cfg.link(LinkKind::NvLink).bandwidth().as_gb_per_sec() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    gpu: GpuSpec,
    pcie: Bandwidth,
    ethernet: Bandwidth,
    nvlink: Bandwidth,
    efficiency: Efficiency,
}

impl HardwareConfig {
    /// Creates a configuration from explicit capacities.
    pub fn new(
        gpu: GpuSpec,
        pcie: Bandwidth,
        ethernet: Bandwidth,
        nvlink: Bandwidth,
        efficiency: Efficiency,
    ) -> Self {
        HardwareConfig {
            gpu,
            pcie,
            ethernet,
            nvlink,
            efficiency,
        }
    }

    /// The Table I settings with the 70 % efficiency assumption:
    /// 11 TFLOPs GPU, 1 TB/s memory, 25 Gb/s Ethernet, 10 GB/s PCIe,
    /// 50 GB/s NVLink.
    pub fn pai_default() -> Self {
        HardwareConfig {
            gpu: GpuSpec::pai_cluster_default(),
            pcie: Bandwidth::from_gb_per_sec(10.0),
            ethernet: Bandwidth::from_gbit_per_sec(25.0),
            nvlink: Bandwidth::from_gb_per_sec(50.0),
            efficiency: Efficiency::paper_default(),
        }
    }

    /// The Sec. IV testbed settings: V100 GPUs (15 TFLOPs), otherwise
    /// identical link capacities to Table I.
    pub fn testbed_default() -> Self {
        HardwareConfig {
            gpu: GpuSpec::tesla_v100(),
            ..HardwareConfig::pai_default()
        }
    }

    /// The GPU spec.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The efficiency assumption.
    pub fn efficiency(&self) -> &Efficiency {
        &self.efficiency
    }

    /// The link model (raw bandwidth + efficiency) for a medium.
    pub fn link(&self, kind: LinkKind) -> LinkModel {
        let bandwidth = match kind {
            LinkKind::Pcie => self.pcie,
            LinkKind::NvLink => self.nvlink,
            LinkKind::Ethernet => self.ethernet,
            LinkKind::HbmMemory => self.gpu.memory_bandwidth(),
        };
        LinkModel::new(kind, bandwidth, self.efficiency.link(kind))
    }

    /// A copy with a different efficiency assumption (Sec. V-A).
    pub fn with_efficiency(&self, efficiency: Efficiency) -> HardwareConfig {
        HardwareConfig {
            efficiency,
            ..*self
        }
    }

    /// A copy with one resource's capacity replaced (Table III axes).
    pub fn with_resource(&self, point: SweepPoint) -> HardwareConfig {
        let mut out = *self;
        match point.axis {
            SweepAxis::Ethernet => out.ethernet = Bandwidth::from_gbit_per_sec(point.value),
            SweepAxis::Pcie => out.pcie = Bandwidth::from_gb_per_sec(point.value),
            SweepAxis::GpuFlops => {
                let factor = point.value / out.gpu.peak_flops().as_tera_per_sec();
                out.gpu = out.gpu.with_scaled_flops(factor);
            }
            SweepAxis::GpuMemory => {
                let factor = point.value * 1000.0 / out.gpu.memory_bandwidth().as_gb_per_sec();
                out.gpu = out.gpu.with_scaled_memory_bandwidth(factor);
            }
        }
        out
    }

    /// The value of a resource normalized by its Table I baseline, the
    /// x-axis of Fig. 11 ("Ethernet bandwidth is normalized using
    /// 25 Gbps as the basic unit, and PCIe bandwidth is normalized by
    /// 10 GB/s").
    pub fn normalized_resource(&self, axis: SweepAxis) -> f64 {
        let base = HardwareConfig::pai_default();
        match axis {
            SweepAxis::Ethernet => {
                self.ethernet.as_gbit_per_sec() / base.ethernet.as_gbit_per_sec()
            }
            SweepAxis::Pcie => self.pcie.as_gb_per_sec() / base.pcie.as_gb_per_sec(),
            SweepAxis::GpuFlops => {
                self.gpu.peak_flops().as_tera_per_sec() / base.gpu.peak_flops().as_tera_per_sec()
            }
            SweepAxis::GpuMemory => {
                self.gpu.memory_bandwidth().as_gb_per_sec()
                    / base.gpu.memory_bandwidth().as_gb_per_sec()
            }
        }
    }
}

impl Default for HardwareConfig {
    fn default() -> Self {
        HardwareConfig::pai_default()
    }
}

impl fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GPU {} | PCIe {} | Eth {:.0} Gbit/s | NVLink {}",
            self.gpu,
            self.pcie,
            self.ethernet.as_gbit_per_sec(),
            self.nvlink
        )
    }
}

/// The four resource axes of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Ethernet bandwidth in Gbit/s: {10, 25, 100}.
    Ethernet,
    /// PCIe bandwidth in GB/s: {10, 50}.
    Pcie,
    /// GPU peak FLOPs in TFLOP/s: {8, 16, 32, 64}.
    GpuFlops,
    /// GPU memory bandwidth in TB/s: {1, 2, 4}.
    GpuMemory,
}

impl SweepAxis {
    /// All axes in Table III order.
    pub const ALL: [SweepAxis; 4] = [
        SweepAxis::Ethernet,
        SweepAxis::Pcie,
        SweepAxis::GpuFlops,
        SweepAxis::GpuMemory,
    ];

    /// The candidate values of Table III, in the table's units.
    pub fn candidates(self) -> &'static [f64] {
        match self {
            SweepAxis::Ethernet => &[10.0, 25.0, 100.0],
            SweepAxis::Pcie => &[10.0, 50.0],
            SweepAxis::GpuFlops => &[8.0, 16.0, 32.0, 64.0],
            SweepAxis::GpuMemory => &[1.0, 2.0, 4.0],
        }
    }

    /// The unit string of Table III.
    pub fn unit(self) -> &'static str {
        match self {
            SweepAxis::Ethernet => "Gbps",
            SweepAxis::Pcie => "GB/s",
            SweepAxis::GpuFlops => "TFLOP/s",
            SweepAxis::GpuMemory => "TB/s",
        }
    }

    /// Human-readable label matching Fig. 11's legend.
    pub fn label(self) -> &'static str {
        match self {
            SweepAxis::Ethernet => "Ethernet",
            SweepAxis::Pcie => "PCIe",
            SweepAxis::GpuFlops => "GPU_FLOPs",
            SweepAxis::GpuMemory => "GPU_memory",
        }
    }

    /// All sweep points on this axis.
    pub fn points(self) -> Vec<SweepPoint> {
        self.candidates()
            .iter()
            .map(|&value| SweepPoint { axis: self, value })
            .collect()
    }
}

impl fmt::Display for SweepAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the Table III grid: an axis and a candidate value in
/// that axis's native unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Which resource is varied.
    pub axis: SweepAxis,
    /// The candidate value, in [`SweepAxis::unit`] units.
    pub value: f64,
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} {}", self.axis, self.value, self.axis.unit())
    }
}

/// Every configuration in the Table III grid (one axis varied at a
/// time, others at their Table I baseline), paired with its point.
pub fn sweep(base: &HardwareConfig) -> Vec<(SweepPoint, HardwareConfig)> {
    SweepAxis::ALL
        .iter()
        .flat_map(|axis| axis.points())
        .map(|point| (point, base.with_resource(point)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let cfg = HardwareConfig::pai_default();
        assert!((cfg.link(LinkKind::Pcie).bandwidth().as_gb_per_sec() - 10.0).abs() < 1e-9);
        assert!((cfg.link(LinkKind::Ethernet).bandwidth().as_gbit_per_sec() - 25.0).abs() < 1e-9);
        assert!((cfg.link(LinkKind::NvLink).bandwidth().as_gb_per_sec() - 50.0).abs() < 1e-9);
        assert!((cfg.link(LinkKind::HbmMemory).bandwidth().as_gb_per_sec() - 1000.0).abs() < 1e-6);
        assert_eq!(cfg.efficiency().compute(), 0.70);
    }

    #[test]
    fn sweep_covers_table_iii() {
        let grid = sweep(&HardwareConfig::pai_default());
        // 3 Ethernet + 2 PCIe + 4 FLOPs + 3 memory = 12 points.
        assert_eq!(grid.len(), 12);
    }

    #[test]
    fn with_resource_ethernet() {
        let cfg = HardwareConfig::pai_default().with_resource(SweepPoint {
            axis: SweepAxis::Ethernet,
            value: 100.0,
        });
        assert!((cfg.link(LinkKind::Ethernet).bandwidth().as_gbit_per_sec() - 100.0).abs() < 1e-9);
        assert!((cfg.normalized_resource(SweepAxis::Ethernet) - 4.0).abs() < 1e-12);
        // Other axes untouched.
        assert!((cfg.normalized_resource(SweepAxis::Pcie) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_resource_gpu_flops_scales_tensor_core_too() {
        let cfg = HardwareConfig::pai_default().with_resource(SweepPoint {
            axis: SweepAxis::GpuFlops,
            value: 64.0,
        });
        assert!((cfg.gpu().peak_flops().as_tera_per_sec() - 64.0).abs() < 1e-9);
        assert!((cfg.gpu().tensor_core_multiplier() - 8.0).abs() < 1e-9);
        assert!((cfg.normalized_resource(SweepAxis::GpuFlops) - 64.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn with_resource_gpu_memory() {
        let cfg = HardwareConfig::pai_default().with_resource(SweepPoint {
            axis: SweepAxis::GpuMemory,
            value: 4.0,
        });
        assert!((cfg.gpu().memory_bandwidth().as_gb_per_sec() - 4000.0).abs() < 1e-6);
        assert!((cfg.normalized_resource(SweepAxis::GpuMemory) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_baseline_is_one_on_every_axis() {
        let cfg = HardwareConfig::pai_default();
        for axis in SweepAxis::ALL {
            assert!((cfg.normalized_resource(axis) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn link_inherits_component_efficiency() {
        let eff = Efficiency::paper_default().with_communication(0.5);
        let cfg = HardwareConfig::pai_default().with_efficiency(eff);
        assert_eq!(cfg.link(LinkKind::Ethernet).efficiency(), 0.5);
        assert_eq!(cfg.link(LinkKind::HbmMemory).efficiency(), 0.7);
    }

    #[test]
    fn sweep_axis_metadata() {
        assert_eq!(SweepAxis::Ethernet.candidates(), &[10.0, 25.0, 100.0]);
        assert_eq!(SweepAxis::Pcie.candidates().len(), 2);
        assert_eq!(SweepAxis::GpuFlops.candidates().len(), 4);
        assert_eq!(SweepAxis::GpuMemory.candidates().len(), 3);
        for axis in SweepAxis::ALL {
            assert!(!axis.unit().is_empty());
            assert!(!axis.label().is_empty());
        }
    }

    #[test]
    fn display_formats() {
        let p = SweepPoint {
            axis: SweepAxis::Ethernet,
            value: 100.0,
        };
        assert_eq!(p.to_string(), "Ethernet = 100 Gbps");
        assert!(!HardwareConfig::pai_default().to_string().is_empty());
    }
}
