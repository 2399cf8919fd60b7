//! Tensor metadata: shape + element type.
//!
//! This is the "tensor attributes (data type, shape, ...)" slice of the
//! run metadata the paper's profiler collects (Sec. II-B1); no actual
//! data is ever materialized.

use std::fmt;

use pai_hw::Bytes;
use serde::{Deserialize, Serialize};

use crate::dtype::DType;
use crate::shape::Shape;

/// Static description of a tensor.
///
/// # Examples
///
/// ```
/// use pai_graph::{DType, Shape, TensorMeta};
/// let t = TensorMeta::new(Shape::new([64, 1000]), DType::F32);
/// assert_eq!(t.bytes().as_u64(), 64 * 1000 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorMeta {
    shape: Shape,
    dtype: DType,
}

impl TensorMeta {
    /// Creates tensor metadata.
    pub fn new(shape: Shape, dtype: DType) -> Self {
        TensorMeta { shape, dtype }
    }

    /// Shorthand for an `f32` tensor.
    pub fn f32<I: IntoIterator<Item = usize>>(dims: I) -> Self {
        TensorMeta::new(Shape::new(dims), DType::F32)
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Total storage footprint.
    pub fn bytes(&self) -> Bytes {
        Bytes::new((self.numel() * self.dtype.size_bytes()) as u64)
    }
}

impl fmt::Display for TensorMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dtype, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_accounts_for_dtype() {
        let t = TensorMeta::new(Shape::new([10, 10]), DType::F32);
        assert_eq!(t.bytes().as_u64(), 400);
        let half = TensorMeta::new(Shape::new([10, 10]), DType::F16);
        assert_eq!(half.bytes().as_u64(), 200);
        assert_eq!(t.numel(), 100);
    }

    #[test]
    fn f32_shorthand() {
        let t = TensorMeta::f32([2, 2]);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.shape().rank(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(TensorMeta::f32([4, 8]).to_string(), "f32[4x8]");
    }
}
