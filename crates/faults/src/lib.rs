//! Deterministic fault injection for the simulated PAI cluster.
//!
//! The paper's testbed measurements are all healthy-cluster numbers;
//! production clusters are not healthy. This crate models the failure
//! modes that matter for distributed training step time — replica
//! stragglers, degraded NICs, node crashes with checkpoint/restart,
//! and transient parameter-server RPC failures — as a *deterministic,
//! seed-driven* plan so every simulated degraded run is exactly
//! reproducible.
//!
//! The three layers:
//!
//! - [`FaultPlan`] — a validated, serializable description of which
//!   faults exist (built via [`FaultPlanBuilder`], which rejects
//!   invalid parameters with typed [`FaultError`]s instead of
//!   panicking);
//! - [`FaultInjector`] — the realization of a plan: pure queries like
//!   "what is replica 3's compute dilation" or "does replica 1 crash
//!   at step 7" that the simulator calls while scheduling work. Two
//!   injectors built from equal plans answer every query identically;
//! - [`ExponentialBackoff`] — the retry-delay policy applied to
//!   failed PS push/pull RPCs.

#![warn(missing_docs)]

mod backoff;
mod chaos;
mod error;
mod inject;
mod plan;
pub(crate) mod rng;

pub use backoff::ExponentialBackoff;
pub use chaos::{ChaosPlan, Corruption};
pub use error::FaultError;
pub use inject::{CrashOutcome, FaultInjector};
pub use plan::{FaultKind, FaultPlan, FaultPlanBuilder};
