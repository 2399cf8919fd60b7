//! The operator taxonomy and its FLOP/byte cost accounting.
//!
//! The paper splits operators into two resource classes (Sec. II-B3):
//! *compute-bound* ones (convolution, MatMul) measured by FLOP count,
//! and *memory-bound* (element-wise) ones measured by memory traffic.
//! Input pipelines add a third class, I/O, which moves bytes over PCIe.
//! Each [`OpKind`] computes its own `#FLOPs` and `S_mem_access`
//! contribution from shapes, mirroring how the paper's feature
//! extractor digests `tf.RunMetadata`.

use std::fmt;

use pai_hw::{Bytes, Flops};
use serde::{Deserialize, Serialize};

use crate::dtype::DType;

/// Resource class of an operator (Sec. II-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Dominated by arithmetic: time = FLOPs / peak.
    ComputeBound,
    /// Dominated by memory traffic: time = bytes / bandwidth.
    MemoryBound,
    /// Input-data movement over PCIe.
    Io,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::ComputeBound => "compute-bound",
            OpClass::MemoryBound => "memory-bound",
            OpClass::Io => "io",
        };
        f.write_str(s)
    }
}

/// An operator's type without its shapes — the op-type string of a
/// `tf.RunMetadata` node record, the key per-op profiles are grouped
/// and ranked by. [`OpKind::op_type`] maps each kind to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpType {
    /// [`OpKind::MatMul`].
    MatMul,
    /// [`OpKind::Conv2d`].
    Conv2d,
    /// [`OpKind::ElementWise`].
    ElementWise,
    /// [`OpKind::Reduce`].
    Reduce,
    /// [`OpKind::Softmax`].
    Softmax,
    /// [`OpKind::LayerNorm`].
    LayerNorm,
    /// [`OpKind::EmbeddingLookup`].
    EmbeddingLookup,
    /// [`OpKind::EmbeddingUpdate`].
    EmbeddingUpdate,
    /// [`OpKind::DataLoad`].
    DataLoad,
}

impl OpType {
    /// The display label ("MatMul", "Conv2D", "ElementWise"…).
    pub fn label(self) -> &'static str {
        match self {
            OpType::MatMul => "MatMul",
            OpType::Conv2d => "Conv2D",
            OpType::ElementWise => "ElementWise",
            OpType::Reduce => "Reduce",
            OpType::Softmax => "Softmax",
            OpType::LayerNorm => "LayerNorm",
            OpType::EmbeddingLookup => "EmbeddingLookup",
            OpType::EmbeddingUpdate => "EmbeddingUpdate",
            OpType::DataLoad => "DataLoad",
        }
    }

    /// The resource class (Sec. II-B3).
    pub fn class(self) -> OpClass {
        match self {
            OpType::MatMul | OpType::Conv2d => OpClass::ComputeBound,
            OpType::ElementWise
            | OpType::Reduce
            | OpType::Softmax
            | OpType::LayerNorm
            | OpType::EmbeddingLookup
            | OpType::EmbeddingUpdate => OpClass::MemoryBound,
            OpType::DataLoad => OpClass::Io,
        }
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.label())
    }
}

/// Where an operator executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Device {
    /// The GPU holding the replica (the paper places all model
    /// computation on GPUs).
    #[default]
    Gpu,
    /// The host CPU (input pipelines, PS-side aggregation).
    Cpu,
}

/// An operator with shape-derived costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// Dense matrix multiply `[m,k] x [k,n]`.
    MatMul {
        /// Rows of the left operand.
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Columns of the right operand.
        n: usize,
        /// Element type (F16 after the mixed-precision pass).
        dtype: DType,
        /// True when the mixed-precision pass routed this op to
        /// TensorCore (executes at the TensorCore peak rate).
        tensor_core: bool,
    },
    /// 2-D convolution in NCHW with implicit stride folded into the
    /// output spatial dims.
    Conv2d {
        /// Batch size.
        batch: usize,
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Kernel height.
        kernel_h: usize,
        /// Kernel width.
        kernel_w: usize,
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Element type.
        dtype: DType,
        /// TensorCore routing flag (mixed-precision pass).
        tensor_core: bool,
    },
    /// A fused or elementary element-wise op over `numel` elements with
    /// `arity` inputs and `flops_per_elem` arithmetic per element.
    ElementWise {
        /// Number of input tensors read.
        arity: usize,
        /// Elements per tensor.
        numel: usize,
        /// Arithmetic operations per output element.
        flops_per_elem: usize,
        /// Element type.
        dtype: DType,
        /// How many elementary ops were fused into this one (1 =
        /// unfused). Set by the XLA pass; preserved for ablation.
        fused_from: usize,
    },
    /// A reduction (sum/mean/max) over `numel` inputs.
    Reduce {
        /// Elements read.
        numel: usize,
        /// Element type.
        dtype: DType,
    },
    /// Row-wise softmax over `[rows, cols]`.
    Softmax {
        /// Independent rows.
        rows: usize,
        /// Elements per row.
        cols: usize,
        /// Element type.
        dtype: DType,
    },
    /// Layer normalization over `numel` elements.
    LayerNorm {
        /// Elements normalized.
        numel: usize,
        /// Element type.
        dtype: DType,
    },
    /// Sparse gather of `ids` rows of width `dim` from an embedding
    /// table.
    EmbeddingLookup {
        /// Rows gathered this step.
        ids: usize,
        /// Embedding width.
        dim: usize,
        /// Element type of the table.
        dtype: DType,
    },
    /// Sparse scatter-update of `ids` rows of width `dim` (the
    /// backward of a lookup).
    EmbeddingUpdate {
        /// Rows updated this step.
        ids: usize,
        /// Embedding width.
        dim: usize,
        /// Element type of the table.
        dtype: DType,
    },
    /// Host-to-device input transfer of one step's samples.
    DataLoad {
        /// Bytes moved over PCIe.
        bytes: u64,
    },
}

impl OpKind {
    /// The op type, shapes dropped.
    pub fn op_type(&self) -> OpType {
        match self {
            OpKind::MatMul { .. } => OpType::MatMul,
            OpKind::Conv2d { .. } => OpType::Conv2d,
            OpKind::ElementWise { .. } => OpType::ElementWise,
            OpKind::Reduce { .. } => OpType::Reduce,
            OpKind::Softmax { .. } => OpType::Softmax,
            OpKind::LayerNorm { .. } => OpType::LayerNorm,
            OpKind::EmbeddingLookup { .. } => OpType::EmbeddingLookup,
            OpKind::EmbeddingUpdate { .. } => OpType::EmbeddingUpdate,
            OpKind::DataLoad { .. } => OpType::DataLoad,
        }
    }

    /// The resource class (Sec. II-B3).
    pub fn class(&self) -> OpClass {
        self.op_type().class()
    }

    /// FLOPs performed (multiply-add counted as 2, the convention
    /// behind Table V's FLOP counts).
    pub fn flops(&self) -> Flops {
        let f = match self {
            OpKind::MatMul { m, k, n, .. } => 2.0 * *m as f64 * *k as f64 * *n as f64,
            OpKind::Conv2d {
                batch,
                in_channels,
                out_channels,
                kernel_h,
                kernel_w,
                out_h,
                out_w,
                ..
            } => {
                2.0 * *batch as f64
                    * *out_channels as f64
                    * *out_h as f64
                    * *out_w as f64
                    * *in_channels as f64
                    * *kernel_h as f64
                    * *kernel_w as f64
            }
            OpKind::ElementWise {
                numel,
                flops_per_elem,
                ..
            } => (*numel * *flops_per_elem) as f64,
            OpKind::Reduce { numel, .. } => *numel as f64,
            // exp + subtract-max + divide + the two reductions.
            OpKind::Softmax { rows, cols, .. } => 5.0 * (*rows * *cols) as f64,
            // mean, variance, normalize, scale-shift.
            OpKind::LayerNorm { numel, .. } => 8.0 * *numel as f64,
            OpKind::EmbeddingLookup { .. } => 0.0,
            OpKind::EmbeddingUpdate { ids, dim, .. } => (*ids * *dim) as f64,
            OpKind::DataLoad { .. } => 0.0,
        };
        Flops::from_f64(f)
    }

    /// Memory traffic generated on the GPU memory system.
    ///
    /// For compute-bound ops this is the operand/result footprint
    /// (reported for completeness); the analytical model only charges
    /// memory-bound ops' traffic to `S_mem_access` (see
    /// [`crate::graph::GraphStats`]).
    pub fn mem_bytes(&self) -> Bytes {
        let b = match self {
            OpKind::MatMul { m, k, n, dtype, .. } => {
                ((*m * *k + *k * *n + *m * *n) * dtype.size_bytes()) as f64
            }
            OpKind::Conv2d {
                batch,
                in_channels,
                out_channels,
                kernel_h,
                kernel_w,
                out_h,
                out_w,
                dtype,
                ..
            } => {
                // input (approximated by output spatial dims), weights, output.
                let input = *batch * *in_channels * *out_h * *out_w;
                let weights = *out_channels * *in_channels * *kernel_h * *kernel_w;
                let output = *batch * *out_channels * *out_h * *out_w;
                ((input + weights + output) * dtype.size_bytes()) as f64
            }
            OpKind::ElementWise {
                arity,
                numel,
                dtype,
                ..
            } => ((*arity + 1) * *numel * dtype.size_bytes()) as f64,
            OpKind::Reduce { numel, dtype } => (*numel * dtype.size_bytes()) as f64,
            // read + write + a second read for the normalizer.
            OpKind::Softmax { rows, cols, dtype } => {
                (3 * *rows * *cols * dtype.size_bytes()) as f64
            }
            // two read passes (stats + normalize) + one write + params.
            OpKind::LayerNorm { numel, dtype } => (3 * *numel * dtype.size_bytes()) as f64,
            OpKind::EmbeddingLookup { ids, dim, dtype } => {
                // gather read + contiguous write + the id vector itself.
                (2 * *ids * *dim * dtype.size_bytes() + *ids * 8) as f64
            }
            OpKind::EmbeddingUpdate { ids, dim, dtype } => {
                // read-modify-write of the touched rows + gradient read.
                (3 * *ids * *dim * dtype.size_bytes() + *ids * 8) as f64
            }
            OpKind::DataLoad { bytes } => *bytes as f64,
        };
        Bytes::from_f64(b)
    }

    /// Bytes moved over PCIe (non-zero only for [`OpKind::DataLoad`]).
    pub fn pcie_bytes(&self) -> Bytes {
        match self {
            OpKind::DataLoad { bytes } => Bytes::new(*bytes),
            _ => Bytes::ZERO,
        }
    }

    /// True when the op is a TensorCore-eligible dense contraction in
    /// FP32 (the mixed-precision pass targets exactly these).
    pub fn is_tensor_core_eligible(&self) -> bool {
        matches!(
            self,
            OpKind::MatMul {
                dtype: DType::F32,
                tensor_core: false,
                ..
            } | OpKind::Conv2d {
                dtype: DType::F32,
                tensor_core: false,
                ..
            }
        )
    }

    /// True when the op already runs on TensorCore.
    pub fn uses_tensor_core(&self) -> bool {
        matches!(
            self,
            OpKind::MatMul {
                tensor_core: true,
                ..
            } | OpKind::Conv2d {
                tensor_core: true,
                ..
            }
        )
    }

    /// A short kind label for display and profiling records: the op
    /// type's [`OpType::label`].
    pub fn kind_label(&self) -> &'static str {
        self.op_type().label()
    }
}

/// A named operator instance placed on a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    name: String,
    kind: OpKind,
    device: Device,
}

impl Op {
    /// Creates a GPU op.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>, kind: OpKind) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "operators need a non-empty name");
        let device = if matches!(kind, OpKind::DataLoad { .. }) {
            Device::Cpu
        } else {
            Device::Gpu
        };
        Op { name, kind, device }
    }

    /// The unique-ish name ("conv1/conv2d", "grad/layer3/matmul"...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator kind and costs.
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }

    /// Mutable access for optimization passes.
    pub fn kind_mut(&mut self) -> &mut OpKind {
        &mut self.kind
    }

    /// The placement.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Resource class shorthand.
    pub fn class(&self) -> OpClass {
        self.kind.class()
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind.kind_label())
    }
}

/// Convenience constructor for an unfused FP32 element-wise op.
pub fn elementwise(arity: usize, numel: usize, flops_per_elem: usize) -> OpKind {
    OpKind::ElementWise {
        arity,
        numel,
        flops_per_elem,
        dtype: DType::F32,
        fused_from: 1,
    }
}

/// Convenience constructor for an FP32 MatMul.
pub fn matmul(m: usize, k: usize, n: usize) -> OpKind {
    OpKind::MatMul {
        m,
        k,
        n,
        dtype: DType::F32,
        tensor_core: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_costs() {
        let op = matmul(64, 1024, 4096);
        assert_eq!(op.class(), OpClass::ComputeBound);
        assert_eq!(op.flops().as_f64(), 2.0 * 64.0 * 1024.0 * 4096.0);
        let expected_bytes = (64 * 1024 + 1024 * 4096 + 64 * 4096) * 4;
        assert_eq!(op.mem_bytes().as_u64(), expected_bytes as u64);
        assert!(op.pcie_bytes().is_zero());
    }

    #[test]
    fn conv_costs() {
        let op = OpKind::Conv2d {
            batch: 2,
            in_channels: 3,
            out_channels: 8,
            kernel_h: 3,
            kernel_w: 3,
            out_h: 10,
            out_w: 10,
            dtype: DType::F32,
            tensor_core: false,
        };
        assert_eq!(op.class(), OpClass::ComputeBound);
        assert_eq!(op.flops().as_f64(), 2.0 * 2.0 * 8.0 * 100.0 * 3.0 * 9.0);
    }

    #[test]
    fn elementwise_costs() {
        let op = elementwise(2, 1000, 1); // binary add
        assert_eq!(op.class(), OpClass::MemoryBound);
        assert_eq!(op.flops().as_f64(), 1000.0);
        assert_eq!(op.mem_bytes().as_u64(), 3 * 1000 * 4);
    }

    #[test]
    fn fp16_halves_elementwise_traffic() {
        let f32 = elementwise(1, 1000, 1);
        let f16 = OpKind::ElementWise {
            arity: 1,
            numel: 1000,
            flops_per_elem: 1,
            dtype: DType::F16,
            fused_from: 1,
        };
        assert_eq!(f16.mem_bytes().as_u64() * 2, f32.mem_bytes().as_u64());
    }

    #[test]
    fn embedding_lookup_is_memory_bound_with_zero_flops() {
        let op = OpKind::EmbeddingLookup {
            ids: 2048,
            dim: 128,
            dtype: DType::F32,
        };
        assert_eq!(op.class(), OpClass::MemoryBound);
        assert!(op.flops().is_zero());
        assert!(op.mem_bytes().as_u64() > 2048 * 128 * 4);
    }

    #[test]
    fn dataload_is_io_on_cpu() {
        let op = Op::new("input", OpKind::DataLoad { bytes: 1_000_000 });
        assert_eq!(op.class(), OpClass::Io);
        assert_eq!(op.device(), Device::Cpu);
        assert_eq!(op.kind().pcie_bytes().as_u64(), 1_000_000);
    }

    #[test]
    fn tensor_core_eligibility() {
        let mm = matmul(8, 8, 8);
        assert!(mm.is_tensor_core_eligible());
        assert!(!mm.uses_tensor_core());
        let tc = OpKind::MatMul {
            m: 8,
            k: 8,
            n: 8,
            dtype: DType::F16,
            tensor_core: true,
        };
        assert!(!tc.is_tensor_core_eligible());
        assert!(tc.uses_tensor_core());
        assert!(!elementwise(1, 8, 1).is_tensor_core_eligible());
    }

    #[test]
    #[should_panic(expected = "non-empty name")]
    fn rejects_unnamed_op() {
        let _ = Op::new("", matmul(1, 1, 1));
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(matmul(1, 1, 1).kind_label(), "MatMul");
        assert_eq!(OpType::Conv2d.to_string(), "Conv2D");
        assert_eq!(format!("[{:<8}]", OpType::Reduce), "[Reduce  ]");
        let op = Op::new("fc1", matmul(1, 2, 3));
        assert_eq!(op.to_string(), "fc1 (MatMul)");
        assert!(!OpClass::MemoryBound.to_string().is_empty());
    }
}
