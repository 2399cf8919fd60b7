#![warn(missing_docs)]
//! Facade crate for the reproduction of *Characterizing Deep Learning
//! Training Workloads on Alibaba-PAI* (IISWC 2019).
//!
//! Re-exports every layer of the stack under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! - [`hw`] — hardware models (Table I, Table III, Fig. 1)
//! - [`graph`] — computation-graph framework and the six-model zoo (Tables IV/V)
//! - [`collectives`] — communication primitive cost models (NCCL analog)
//! - [`dag`] — DAG critical-path step-time engine with comm/comp
//!   overlap (WFBP, tensor fusion) behind the
//!   [`dag::StepTimeBackend`] switch
//! - [`sim`] — discrete-event execution simulator (the "testbed")
//! - [`faults`] — deterministic fault plans for degraded-run studies
//! - [`par`] — deterministic chunked scatter/gather parallelism
//! - [`sched`] — deterministic discrete-event gang scheduler (Sec. VI implications)
//! - [`predict`] — feature-hashed k-nearest-history duration predictor
//!   (drives the scheduler's `qssf` queue ordering)
//! - [`trace`] — calibrated synthetic cluster workload population
//!   (columnar [`trace::JobStore`], streaming [`trace::JobStream`] /
//!   [`trace::StreamSession`] ingest)
//! - [`core`] — the paper's analytical characterization framework
//!   (incremental [`core::HeadlineAccum`], resident-column
//!   [`core::WhatIfIndex`] queries)
//! - [`profiler`] — run-metadata capture and feature extraction (Fig. 4)
//! - [`pearl`] — PS/Worker, AllReduce and PEARL distribution strategies (Fig. 14)
//!
//! # Examples
//!
//! ```
//! use alibaba_pai_workloads::core::{PerfModel, WorkloadFeatures, Architecture};
//! use alibaba_pai_workloads::hw::{Bytes, Flops};
//!
//! let features = WorkloadFeatures::builder(Architecture::PsWorker)
//!     .cnodes(16)
//!     .batch_size(512)
//!     .input_bytes(Bytes::from_mb(10.0))
//!     .weight_bytes(Bytes::from_gb(1.0))
//!     .flops(Flops::from_tera(0.5))
//!     .mem_access_bytes(Bytes::from_gb(20.0))
//!     .build();
//! let ct = PerfModel::paper_default().component_times(&features);
//! assert!(ct.total.as_f64() > 0.0);
//! ```
//!
//! Streaming characterization — headline statistics accumulate one
//! job at a time, bit-identical to the batch pass:
//!
//! ```
//! use alibaba_pai_workloads::core::{characterize, PerfModel};
//! use alibaba_pai_workloads::par::Threads;
//! use alibaba_pai_workloads::trace::{JobStream, PopulationConfig, StreamSession};
//!
//! let cfg = PopulationConfig::paper_scale(500).unwrap();
//! let mut session = StreamSession::new(PerfModel::paper_default());
//! let mut store = alibaba_pai_workloads::trace::JobStore::new();
//! for job in JobStream::new(&cfg, 7).unwrap() {
//!     session.ingest(&job);
//!     store.push(&job);
//! }
//! let batch = characterize(&PerfModel::paper_default(), &store, Threads::SERIAL);
//! assert_eq!(session.stats(), batch);
//! ```

pub use pai_collectives as collectives;
pub use pai_core as core;
pub use pai_dag as dag;
pub use pai_faults as faults;
pub use pai_graph as graph;
pub use pai_hw as hw;
pub use pai_par as par;
pub use pai_pearl as pearl;
pub use pai_predict as predict;
pub use pai_profiler as profiler;
pub use pai_sched as sched;
pub use pai_sim as sim;
pub use pai_trace as trace;
