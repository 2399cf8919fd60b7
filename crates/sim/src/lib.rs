#![warn(missing_docs)]
//! A discrete-event training-step simulator — the stand-in for the
//! paper's 64-server × 8-V100 testbed (Sec. IV).
//!
//! The paper validates its analytical model against *measured* step
//! times (Fig. 12) that include everything the closed form ignores:
//! per-component hardware efficiencies that differ from the uniform
//! 70 % assumption (Table VI) and framework overhead — "mostly due to
//! CPU runtime scheduling and GPU kernel launch time". This crate
//! reproduces the measurement side:
//!
//! - [`config`] — simulator knobs: hardware, per-component efficiency
//!   (inject Table VI here), kernel-launch overhead, TensorCore
//!   effective efficiency;
//! - [`executor`] — runs one training step of a [`pai_graph::Graph`]
//!   plus a [`pai_collectives::CommPlan`], op by op, list-scheduled
//!   onto FIFO lanes (a shared PCIe bus, a GPU and a port per
//!   replica); the makespan is the step time;
//! - [`measure`] — [`measure::StepMeasurement`] (per-component busy
//!   times) and per-op profile records (the `tf.RunMetadata` analog);
//! - [`faulted`] — multi-step degraded runs under a
//!   [`pai_faults::FaultPlan`]: stragglers, degraded NICs, PS retry
//!   backoff, and crash/restart recovery with lost-work accounting;
//! - [`error`] — [`SimError`], the typed rejection every public API
//!   returns instead of panicking on invalid caller input.
//!
//! # Examples
//!
//! ```
//! use pai_sim::{SimConfig, StepSimulator};
//! use pai_collectives::CommPlan;
//! use pai_graph::zoo;
//!
//! let resnet = zoo::resnet50();
//! let sim = StepSimulator::new(SimConfig::testbed());
//! let m = sim.run(resnet.graph(), &CommPlan::new(), 1)?;
//! assert!(m.total.as_f64() > 0.0);
//! # Ok::<(), pai_sim::SimError>(())
//! ```
//!
//! Degraded run with a straggler and a crash:
//!
//! ```
//! use pai_faults::FaultPlan;
//! use pai_hw::Seconds;
//! use pai_sim::{SimConfig, StepSimulator};
//! use pai_collectives::CommPlan;
//! use pai_graph::zoo;
//!
//! let plan = FaultPlan::builder(4)
//!     .straggler(2, 1.5)
//!     .crash(0, 3, Seconds::from_f64(30.0), 2)
//!     .build()?;
//! let sim = StepSimulator::new(SimConfig::testbed());
//! let resnet = zoo::resnet50();
//! let run = sim.run_faulted(resnet.graph(), &CommPlan::new(), 8, &plan, pai_par::Threads::SERIAL)?;
//! assert_eq!(run.lost_steps, 2);
//! assert!(run.stats()?.goodput > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod error;
pub mod executor;
pub mod faulted;
pub mod measure;

pub use config::SimConfig;
pub use error::SimError;
pub use executor::StepSimulator;
pub use faulted::FaultedRun;
pub use measure::{FaultAttribution, OpProfile, StepMeasurement, StepStats};
