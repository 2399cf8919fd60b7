//! Simulator configuration.

use pai_hw::{Efficiency, HardwareConfig, Seconds};

/// The TensorCore efficiency calibrated so mixed-precision GEMMs run
/// 2.8× faster than the *achieved* FP32 rate of the well-behaved models
/// (Table VI: ~82 %): `8 × 0.29 ≈ 2.8 × 0.82`. Fig. 13a measures
/// exactly that 2.8× MatMul speedup.
const TENSOR_CORE_EFFICIENCY: f64 = 0.29;

/// Simulator knobs.
///
/// # Examples
///
/// ```
/// use pai_sim::SimConfig;
/// use pai_hw::Efficiency;
///
/// // Inject a Table VI row for the Fig. 12 validation runs.
/// let cfg = SimConfig::testbed()
///     .with_efficiency(Efficiency::per_component(0.6086, 0.031, 0.7773, 0.405, 0.405));
/// assert_eq!(cfg.hardware().efficiency().memory(), 0.031);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    hardware: HardwareConfig,
    kernel_launch_overhead: Seconds,
}

impl SimConfig {
    /// The Sec. IV testbed: V100 server and a 4.5 µs kernel-launch gap.
    pub fn testbed() -> Self {
        SimConfig {
            hardware: HardwareConfig::testbed_default(),
            kernel_launch_overhead: Seconds::from_micros(4.5),
        }
    }

    /// The hardware configuration (capacities + efficiency).
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hardware
    }

    /// The per-kernel CPU dispatch gap (Sec. VI-A3's framework
    /// overhead).
    pub fn kernel_launch_overhead(&self) -> Seconds {
        self.kernel_launch_overhead
    }

    /// Fraction of the TensorCore peak that mixed-precision GEMMs
    /// attain: the testbed's calibrated 0.29.
    pub fn tensor_core_efficiency(&self) -> f64 {
        TENSOR_CORE_EFFICIENCY
    }

    /// A copy with a per-component efficiency override (Table VI
    /// injection).
    pub fn with_efficiency(&self, efficiency: Efficiency) -> SimConfig {
        SimConfig {
            hardware: self.hardware.with_efficiency(efficiency),
            ..*self
        }
    }

    /// A copy with a different launch overhead.
    ///
    /// # Panics
    ///
    /// Panics if the overhead is negative (checked by [`Seconds`]).
    pub fn with_launch_overhead(&self, overhead: Seconds) -> SimConfig {
        SimConfig {
            kernel_launch_overhead: overhead,
            ..*self
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_defaults() {
        let c = SimConfig::testbed();
        assert_eq!(c.hardware().gpu().peak_flops().as_tera_per_sec(), 15.0);
        assert!((c.kernel_launch_overhead().as_f64() - 4.5e-6).abs() < 1e-12);
        assert!((c.tensor_core_efficiency() - 0.29).abs() < 1e-12);
    }

    #[test]
    fn tensor_core_gain_over_achieved_fp32_is_about_2_8() {
        // Relative to an 82 % efficient FP32 GEMM (Table VI's ResNet50/
        // NMT/BERT rows), TensorCore at 29 % of its 8x peak is ~2.8x.
        let c = SimConfig::testbed();
        let gain = 8.0 * c.tensor_core_efficiency() / 0.82;
        assert!((gain - 2.8).abs() < 0.05, "gain {gain}");
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::testbed()
            .with_launch_overhead(Seconds::from_micros(10.0))
            .with_efficiency(Efficiency::uniform(0.5));
        assert!((c.kernel_launch_overhead().as_f64() - 1e-5).abs() < 1e-15);
        assert_eq!(c.hardware().efficiency().memory(), 0.5);
    }
}
