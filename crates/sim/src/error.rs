//! Typed errors for invalid caller input to the simulator's public
//! APIs.

use std::fmt;

use pai_faults::FaultError;

/// Why a simulation request was rejected.
///
/// Every variant is caller error surfaced as a value instead of a
/// panic.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A fault dilation factor must be finite and positive.
    InvalidDilation {
        /// The rejected factor.
        value: f64,
    },
    /// The PCIe contention factor must be at least 1.
    ZeroContention,
    /// A multi-step run needs at least one step.
    ZeroSteps,
    /// Step statistics need at least one measurement.
    NoMeasurements,
    /// An invalid fault plan reached the simulator.
    Fault(FaultError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidDilation { value } => {
                write!(f, "dilation factor must be finite and > 0, got {value}")
            }
            SimError::ZeroContention => write!(f, "contention factor must be at least 1"),
            SimError::ZeroSteps => write!(f, "need at least one step"),
            SimError::NoMeasurements => {
                write!(f, "step statistics need at least one measurement")
            }
            SimError::Fault(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        SimError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let variants = [
            SimError::InvalidDilation { value: -1.0 },
            SimError::ZeroContention,
            SimError::ZeroSteps,
            SimError::NoMeasurements,
            SimError::Fault(FaultError::NoReplicas),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn fault_errors_convert_and_chain() {
        use std::error::Error as _;
        let e: SimError = FaultError::NoReplicas.into();
        assert!(e.source().is_some());
        assert!(SimError::ZeroSteps.source().is_none());
    }
}
