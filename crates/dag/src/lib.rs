#![warn(missing_docs)]
//! DAG critical-path step-time engine with comm/comp overlap.
//!
//! The paper prices a training step with the additive
//! `T = Td + Tc + Tw` (Sec. II-B), which assumes the three resources
//! run back to back. Real frameworks overlap them: wait-free backprop
//! pushes each layer's gradient the moment its backward op retires,
//! and tensor fusion buckets small gradients to amortize per-message
//! latency (the DAG S-SGD line of work — see PAPERS.md,
//! arXiv:1805.03812 and arXiv:1711.05979). This crate computes that
//! overlap exactly, as the critical path of the op DAG on a
//! two-resource machine:
//!
//! 1. [`lower`] turns a pai-graph zoo graph ([`lower::from_graph`]) or
//!    a bare feature record ([`lower::from_features`]) into a
//!    [`PricedStep`]: a serialized compute stream plus the gradient
//!    messages and their producer dependencies.
//! 2. [`evaluate`](mod@evaluate) prices the step under an
//!    [`OverlapStrategy`]: [`OverlapStrategy::Serial`] (reproduces the
//!    additive model from the DAG — property-tested to 1e-9 on every
//!    zoo graph), [`OverlapStrategy::Wfbp`], or
//!    [`OverlapStrategy::FusedWfbp`].
//! 3. [`engine`] prices population feature records on either the
//!    closed form or the DAG behind the [`StepTimeBackend`] switch,
//!    for `repro overlap`'s population comparison. It prices them
//!    without lowering them: the uniform
//!    [`lower::from_features`] step has a closed-form critical path,
//!    property-tested against [`evaluate`](mod@evaluate) over the
//!    lowered step within 1e-9.
//!
//! Every price is a pure deterministic function of its inputs:
//! fanning jobs out through `pai-par` gives bit-identical results at
//! any `PAI_THREADS`.
//!
//! # Examples
//!
//! Quantify how much the additive model overstates a comm-heavy step:
//!
//! ```
//! use pai_core::PerfModel;
//! use pai_dag::{evaluate, lower, NetworkPath, OverlapStrategy};
//! use pai_graph::zoo;
//! use pai_hw::Bytes;
//!
//! let model = PerfModel::paper_default();
//! let spec = zoo::resnet50();
//! let job = lower::job_of_graph(
//!     spec.graph(),
//!     pai_core::Architecture::AllReduceLocal,
//!     8,
//!     spec.batch_size(),
//!     Bytes::from_mb(357.0),
//! );
//! let step = lower::from_graph(spec.graph(), &job, model.config());
//! let path = NetworkPath::for_arch(model.config(), job.arch());
//! let serial = evaluate(&step, &path, OverlapStrategy::Serial);
//! let wfbp = evaluate(&step, &path, OverlapStrategy::Wfbp);
//! // WFBP never prices a zoo graph above Serial (property-tested), but
//! // it is not a bound in general: each of its messages pays the
//! // path's α where Serial pays it once, so a step with too little
//! // backward compute to hide them prices above Serial.
//! assert!(wfbp.total <= serial.total);
//! ```

pub mod engine;
pub mod evaluate;
pub mod lower;
pub mod step;

pub use engine::{StepTimeBackend, StepTimeEngine};
pub use evaluate::{evaluate, DagStepTime, OverlapStrategy};
pub use lower::{job_of_graph, rel_diff, DEFAULT_LAYERS};
pub use step::{hop_latency, Message, NetworkPath, PricedStep, Task};
