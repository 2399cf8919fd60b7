#![warn(missing_docs)]
//! Deterministic discrete-event gang scheduling over the trace
//! population.
//!
//! The paper characterizes per-step behavior of a production fleet;
//! its Sec. VI provisioning implications are cluster-operations
//! questions — queueing, gang placement, NIC oversubscription under a
//! mixed workload over time. This crate answers them with a
//! discrete-event simulator that runs on **virtual time only**:
//!
//! - [`stream`] turns a `pai-trace` population into a deterministic
//!   arrival stream (exponential inter-arrivals, log-uniform step
//!   counts, calibrated crash plans — all seed-derived);
//! - [`policy`] defines the [`Policy`] trait, four built-in gang
//!   placements (FIFO first-fit, best-fit packed, spread,
//!   locality-aware), and two predictive queue orderings (QSSF over a
//!   `pai-predict` history store, and the SJF oracle upper bound);
//! - [`order`] defines the [`QueueOrder`] discipline — which queued
//!   gang the engine serves next — with a starvation bound for the
//!   predictive orderings;
//! - [`engine`] advances the fluid event loop, pricing running jobs
//!   with the analytical model dilated by max-min NIC contention and
//!   requeueing crashed gangs with backoff. It is the crate's one
//!   cluster model: [`place_mix`] places a whole mix at once on an
//!   idle cluster with the same placement checks, sharer counters and
//!   price;
//! - [`metrics`] reports queueing delay, JCT, slowdown vs solo, GPU
//!   utilization, fragmentation, makespan, and JCT percentiles;
//! - [`sweep`] maps policy × seed cross products through `pai-par`
//!   with the serial path as the oracle.
//!
//! Everything is a pure function of its inputs: the same
//! `(population, seed, policy)` reproduces the same event log
//! bit-for-bit at any thread count.

mod cluster;
pub mod engine;
pub mod error;
pub mod job;
pub mod metrics;
pub mod order;
pub mod policy;
pub mod stream;
pub mod sweep;

pub use cluster::{place_mix, PlacedJob};
pub use engine::{run, run_kind, run_ordered, EventKind, EventRecord, SchedConfig, SchedOutcome};
pub use error::SchedError;
pub use job::{CrashPoint, SchedJob, SyncClass};
pub use metrics::{ClusterMetrics, JobMetrics, BOUNDED_SLOWDOWN_TAU_S};
pub use order::{
    class_priors, class_priors_from_jobs, order_for_kind, PredictorSource, QssfConfig, QueueOrder,
    QSSF_STARVATION_AGE_S,
};
pub use policy::{
    BestFitPacked, FifoFirstFit, FreeGpus, LocalityAware, Policy, PolicyKind, Spread,
};
pub use stream::{realize_stream, templates_from_population, ArrivalConfig, JobTemplate};
pub use sweep::{policy_sweep, SweepConfig, SweepPoint};
