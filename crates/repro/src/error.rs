//! The experiment layer's typed error.
//!
//! Experiments that drive the fallible simulator/scheduler APIs
//! propagate their errors here instead of unwrapping, so the `repro`
//! binary can report a broken invariant with context and a clean exit
//! code rather than a panic.

use std::error::Error;
use std::fmt;

use pai_faults::FaultError;
use pai_sched::SchedError;
use pai_sim::SimError;
use pai_trace::TraceError;

/// Anything that can go wrong while regenerating an artifact.
#[derive(Debug)]
pub enum ReproError {
    /// The requested experiment id is not in [`crate::EXPERIMENTS`].
    UnknownExperiment {
        /// The id that failed to resolve.
        id: String,
    },
    /// A step simulation rejected its inputs.
    Sim(SimError),
    /// A fault plan rejected its inputs.
    Fault(FaultError),
    /// A scheduling run rejected its inputs.
    Sched(SchedError),
    /// A JSON payload failed to serialize.
    Json(serde_json::Error),
    /// A trace operation (stream checkpoint/resume, population
    /// rebuild) rejected its inputs.
    Trace(TraceError),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::UnknownExperiment { id } => {
                write!(f, "unknown experiment id '{id}'")
            }
            ReproError::Sim(e) => write!(f, "simulation failed: {e}"),
            ReproError::Fault(e) => write!(f, "fault plan rejected: {e}"),
            ReproError::Sched(e) => write!(f, "scheduling failed: {e}"),
            ReproError::Json(e) => write!(f, "JSON serialization failed: {e}"),
            ReproError::Trace(e) => write!(f, "trace operation failed: {e}"),
        }
    }
}

impl Error for ReproError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReproError::UnknownExperiment { .. } => None,
            ReproError::Sim(e) => Some(e),
            ReproError::Fault(e) => Some(e),
            ReproError::Sched(e) => Some(e),
            ReproError::Json(e) => Some(e),
            ReproError::Trace(e) => Some(e),
        }
    }
}

impl From<TraceError> for ReproError {
    fn from(e: TraceError) -> Self {
        ReproError::Trace(e)
    }
}

impl From<SimError> for ReproError {
    fn from(e: SimError) -> Self {
        ReproError::Sim(e)
    }
}

impl From<FaultError> for ReproError {
    fn from(e: FaultError) -> Self {
        ReproError::Fault(e)
    }
}

impl From<SchedError> for ReproError {
    fn from(e: SchedError) -> Self {
        ReproError::Sched(e)
    }
}

impl From<serde_json::Error> for ReproError {
    fn from(e: serde_json::Error) -> Self {
        ReproError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = ReproError::UnknownExperiment { id: "fig99".into() };
        assert!(e.to_string().contains("fig99"));
        let e: ReproError = SimError::ZeroContention.into();
        assert!(e.to_string().contains("simulation"));
        assert!(e.source().is_some());
        let e: ReproError = SchedError::NoJobs.into();
        assert!(e.to_string().contains("scheduling"));
        assert!(e.source().is_some());
        let e: ReproError = TraceError::EmptyPopulation.into();
        assert!(e.to_string().contains("trace operation"));
        assert!(e.source().is_some());
    }
}
