//! Tensor element types.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Element type of a tensor.
///
/// # Examples
///
/// ```
/// use pai_graph::DType;
/// assert_eq!(DType::F32.size_bytes(), 4);
/// assert_eq!(DType::F16.size_bytes(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit float — the paper's default training precision.
    F32,
    /// 16-bit float — the mixed-precision (TensorCore) type (Sec. IV-D).
    F16,
    /// 32-bit signed integer (token/feature ids).
    I32,
    /// 64-bit signed integer (large embedding ids).
    I64,
    /// Unsigned byte (raw image/audio payloads).
    U8,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F16 => 2,
            DType::I64 => 8,
            DType::U8 => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::U8 => "u8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::U8.size_bytes(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(DType::F16.to_string(), "f16");
    }
}
