#![warn(missing_docs)]
//! A from-scratch computation-graph framework with operator-level cost
//! accounting, standing in for the TensorFlow graphs the paper profiles.
//!
//! The paper's characterization pipeline (Fig. 4) starts from
//! `tf.RunMetadata`: per-operation device placement, kernel times and
//! tensor attributes. We cannot link TensorFlow, so this crate provides
//! the equivalent substrate: a DAG of operators whose FLOP count and
//! memory traffic are derived from shapes exactly the way the paper's
//! feature extractor does ("FLOP count is adopted to measure the
//! computation requirements by compute-bound operations ... the amount
//! of memory access is used as [the memory-bound operations'] resource
//! requirement").
//!
//! Layers:
//!
//! - [`dtype`], [`shape`], [`tensor`] — tensor metadata
//! - [`op`] — the operator taxonomy with per-op FLOP/byte accounting
//! - [`graph`] — the DAG, topological iteration, aggregate statistics
//! - [`param`] — trainable-parameter inventory (dense vs embedding,
//!   optimizer slots) behind Table IV
//! - [`backward`] — gradient-graph synthesis (training = fwd + bwd)
//! - [`passes`] — the two optimizations studied in Sec. IV-D:
//!   XLA-style element-wise fusion and TensorCore mixed precision
//! - [`zoo`] — the six case-study models of Tables IV/V, calibrated to
//!   the published per-step features
//!
//! # Examples
//!
//! ```
//! use pai_graph::zoo;
//!
//! let resnet = zoo::resnet50();
//! let stats = resnet.graph().stats();
//! // Table V: 1.56 TFLOPs per step at batch 64.
//! assert!((stats.flops.as_tera() - 1.56).abs() / 1.56 < 0.02);
//! ```

pub mod backward;
pub mod dtype;
pub mod graph;
pub mod op;
pub mod param;
pub mod passes;
pub mod shape;
pub mod tensor;
pub mod zoo;

pub use dtype::DType;
pub use graph::{Graph, GraphStats, NodeId};
pub use op::{Op, OpClass, OpKind, OpType};
pub use param::{ParamInventory, ParamKind, ParamSpec};
pub use shape::Shape;
pub use tensor::TensorMeta;
pub use zoo::ModelSpec;
