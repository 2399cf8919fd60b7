#![warn(missing_docs)]
//! The analytical workload-characterization framework of
//! *Characterizing Deep Learning Training Workloads on Alibaba-PAI*
//! (IISWC 2019) — the paper's primary contribution.
//!
//! The framework (Sec. II-B) decomposes one training step into three
//! parts and predicts each from workload features and hardware
//! capacities derated to an attainable efficiency:
//!
//! ```text
//! T_total = Td + Tc + Tw
//! Td = S_d / B_d                                  (input data I/O)
//! Tc = #FLOPs / peak_FLOPs + S_mem / B_mem        (computation)
//! Tw = S_w / B_w                                  (weight/gradient traffic)
//! ```
//!
//! On top of that closed form the crate implements everything Sec. III
//! does with it:
//!
//! - [`jobs`] — the [`Jobs`] storage abstraction every analysis is
//!   generic over (contiguous slices and columnar stores alike)
//! - [`accum`] — incremental characterization: the mergeable
//!   [`HeadlineAccum`], one-shot [`characterize`], and the
//!   resident-column [`WhatIfIndex`] query layer
//! - [`model`] — the [`PerfModel`] kernel: a job's [`Eq1Terms`] and
//!   their combination into [`ComponentTimes`], its per-step
//!   decomposition and percentages (Fig. 7, Fig. 8)
//! - [`breakdown`] — job-level and cNode-level aggregation and the
//!   per-hardware view (Fig. 7, Fig. 8a)
//! - [`throughput`](mod@throughput) — Eq. 2
//! - [`project`] — PS/Worker → AllReduce-Local / AllReduce-Cluster
//!   what-if projection (Fig. 9, Fig. 10) and the Eq. 3 speedup bound
//! - [`sweep`] — the Table III hardware-variation study (Fig. 11)
//! - [`scaling`] — strong-scaling curves behind the PEARL scalability
//!   claim (Sec. IV-C)
//! - [`resilience`] — the closed-form straggler barrier dilation
//! - [`sensitivity`] — the Sec. V-A efficiency-assumption study (Fig. 15)
//! - [`overlap`] — the Sec. V-B overlap-assumption study (Fig. 16)
//! - [`stats`] — empirical CDFs and weighted means used by all figures
//!
//! # Examples
//!
//! ```
//! use pai_core::{Architecture, PerfModel, WorkloadFeatures};
//! use pai_hw::{Bytes, Flops};
//!
//! // A PS/Worker job: 16 workers, 1 GB of weights, modest compute.
//! let job = WorkloadFeatures::builder(Architecture::PsWorker)
//!     .cnodes(16)
//!     .batch_size(512)
//!     .input_bytes(Bytes::from_mb(50.0))
//!     .weight_bytes(Bytes::from_gb(1.0))
//!     .flops(Flops::from_tera(0.8))
//!     .mem_access_bytes(Bytes::from_gb(30.0))
//!     .build();
//!
//! let model = PerfModel::paper_default();
//! let ct = model.component_times(&job);
//! // Weight traffic dominates: 1 GB over 25 Gbps Ethernet + 10 GB/s PCIe.
//! assert!(ct.weight_fraction() > 0.5);
//! ```

pub mod accum;
pub mod arch;
pub mod breakdown;
pub mod codec;
pub mod features;
pub mod jobs;
pub mod model;
pub mod overlap;
pub mod project;
pub mod resilience;
pub mod scaling;
pub mod sensitivity;
pub mod stats;
pub mod sweep;
pub mod throughput;

pub use accum::{
    accumulate, characterize, FracHist, HeadlineAccum, HeadlineStats, WhatIfIndex, WhatIfSummary,
};
pub use arch::Architecture;
pub use breakdown::HardwareBreakdown;
pub use codec::{crc32, model_fingerprint, ByteReader, ByteWriter, CheckpointError};
pub use features::{FeatureViolation, RawFeatures, WorkloadFeatures, WorkloadFeaturesBuilder};
pub use jobs::{JobColumns, Jobs};
pub use model::{ComponentTimes, Eq1Terms, PerfModel};
pub use overlap::OverlapMode;
pub use project::{comm_bound_speedup, ProjectionOutcome, ProjectionTarget};
pub use stats::Ecdf;
pub use sweep::class_sweep;
pub use throughput::throughput;
