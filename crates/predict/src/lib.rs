#![warn(missing_docs)]
//! Feature-hashed k-nearest-history duration prediction.
//!
//! The paper characterizes every job by `(class, #cNodes, Sw, FLOPs,
//! batch)` but schedules nothing with that signal; the Helios study
//! (arXiv:2109.01313) shows that predicting a job's duration from
//! *similar historical jobs* is accurate enough to drive
//! Quasi-Shortest-Service-First scheduling. This crate is that
//! predictor, built to the workspace's determinism contract:
//!
//! - [`signature`] extracts the five-feature tuple ([`Signature`])
//!   from the analytical model's [`pai_core::WorkloadFeatures`];
//! - [`hash`] buckets signatures with a seeded SplitMix64 mix over
//!   log-quantized features — no `HashMap`, no per-process key
//!   randomization;
//! - [`store`] keeps a fixed-capacity history ring per bucket
//!   ([`HistoryStore`]): observation is O(ring), prediction is a
//!   k-nearest scan in log-feature space with value-ordered
//!   tie-breaks, so the answer is invariant to the order history was
//!   inserted within a bucket epoch;
//! - [`calibrate`] folds `(predicted, actual)` pairs into a
//!   [`CalibrationReport`] — MAPE, p50/p90 relative error, and the
//!   per-class breakdown the paper's Table II slices by.
//!
//! Everything is a pure function of `(config, observations)`: no
//! wall clock, no entropy, no iteration-order dependence.

pub mod calibrate;
pub mod error;
pub mod hash;
pub mod signature;
pub mod store;

pub use calibrate::{CalibrationAccum, CalibrationReport, ClassCalibration};
pub use error::PredictError;
pub use signature::{Signature, NUM_CLASSES};
pub use store::{HistoryConfig, HistoryStore, Prediction};
