//! The scheduler's typed error.

use std::fmt;

use pai_predict::PredictError;
use pai_trace::TraceError;

/// Anything that can go wrong while building an arrival stream or
/// running the discrete-event engine.
#[derive(Debug, PartialEq)]
pub enum SchedError {
    /// The arrival stream is empty.
    NoJobs,
    /// A job requests zero replicas.
    EmptyJob {
        /// The offending job id.
        id: usize,
    },
    /// The stream repeats a job id.
    DuplicateJobId {
        /// The repeated job id.
        id: usize,
    },
    /// A job requests more cNodes than the cluster can give it, so no
    /// gang placement can admit it: more than the whole cluster in a
    /// stream, or more than the earlier jobs of a
    /// [`crate::place_mix`] mix left free.
    JobTooLarge {
        /// The offending job id.
        id: usize,
        /// cNodes the job requests.
        requested: usize,
        /// GPUs the cluster has for it.
        capacity: usize,
    },
    /// An arrival-stream parameter is out of range.
    InvalidArrival {
        /// The offending parameter.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// A policy returned an assignment that violates the free-GPU
    /// state (wrong replica total, unknown server, over-committed
    /// server, or a repeated server entry).
    InvalidAssignment {
        /// The offending policy.
        policy: &'static str,
        /// The job being placed.
        job: usize,
    },
    /// A policy refused to place the queue head although nothing is
    /// running, nothing is pending, and the cluster is idle — the
    /// simulation can never make progress.
    Stalled {
        /// The offending policy.
        policy: &'static str,
        /// The job stuck at the head of the queue.
        job: usize,
    },
    /// Failure sampling over the population rejected its inputs.
    Trace(TraceError),
    /// The duration predictor rejected its configuration or feedback.
    Predict(PredictError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoJobs => write!(f, "the arrival stream is empty"),
            SchedError::EmptyJob { id } => write!(f, "job {id} requests zero replicas"),
            SchedError::DuplicateJobId { id } => write!(f, "job id {id} appears twice"),
            SchedError::JobTooLarge {
                id,
                requested,
                capacity,
            } => write!(
                f,
                "job {id} requests {requested} cNodes but the cluster has {capacity} GPUs"
            ),
            SchedError::InvalidArrival { name, value } => {
                write!(f, "arrival parameter {name} is out of range: {value}")
            }
            SchedError::InvalidAssignment { policy, job } => write!(
                f,
                "policy '{policy}' returned an invalid assignment for job {job}"
            ),
            SchedError::Stalled { policy, job } => write!(
                f,
                "policy '{policy}' refused job {job} on an idle cluster; the run cannot progress"
            ),
            SchedError::Trace(e) => write!(f, "failure sampling failed: {e}"),
            SchedError::Predict(e) => write!(f, "duration predictor rejected: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Trace(e) => Some(e),
            SchedError::Predict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for SchedError {
    fn from(e: TraceError) -> Self {
        SchedError::Trace(e)
    }
}

impl From<PredictError> for SchedError {
    fn from(e: PredictError) -> Self {
        SchedError::Predict(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let cases: Vec<SchedError> = vec![
            SchedError::NoJobs,
            SchedError::EmptyJob { id: 3 },
            SchedError::DuplicateJobId { id: 3 },
            SchedError::JobTooLarge {
                id: 3,
                requested: 1_000,
                capacity: 512,
            },
            SchedError::InvalidArrival {
                name: "mean inter-arrival",
                value: -1.0,
            },
            SchedError::InvalidAssignment {
                policy: "spread",
                job: 7,
            },
            SchedError::Stalled {
                policy: "spread",
                job: 7,
            },
            SchedError::Predict(PredictError::InvalidObservation { duration_s: -1.0 }),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
        assert!(std::error::Error::source(&SchedError::Predict(
            PredictError::InvalidObservation { duration_s: -1.0 }
        ))
        .is_some());
        assert!(std::error::Error::source(&SchedError::NoJobs).is_none());
    }
}
