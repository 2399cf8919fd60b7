//! Parameter-server push/pull volumes.
//!
//! In the PS architecture each worker pulls the variables it needs at
//! the start of a step and pushes gradients back at the end
//! (Sec. II-A2). Per worker and per step that is one payload in each
//! direction; the PS side shards variables across server nodes, so the
//! per-worker volume does not grow with the worker count.

use pai_hw::Bytes;

/// Bytes a worker moves per step for dense variables: pull weights +
/// push gradients.
pub fn dense_per_worker(weights: Bytes) -> Bytes {
    weights.scale(2.0)
}

/// Bytes a worker moves per step when only `touched` bytes of a sparse
/// (embedding) variable are accessed: pull the touched rows + push
/// their gradients. This is the sparse-aware accounting PEARL's design
/// argument rests on — "naively communicating all elements of a large
/// sparse variable, even though only a small subset is accessed,
/// results in relatively low scalability" (Sec. IV-C).
pub fn sparse_per_worker(touched: Bytes) -> Bytes {
    touched.scale(2.0)
}

/// The naive dense treatment of a sparse variable: the whole table in
/// both directions. Kept for the PEARL-motivation ablation.
pub fn sparse_as_dense_per_worker(table: Bytes) -> Bytes {
    table.scale(2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_is_pull_plus_push() {
        assert_eq!(dense_per_worker(Bytes::from_mb(100.0)).as_mb(), 200.0);
    }

    #[test]
    fn sparse_accounting_only_counts_touched_rows() {
        let table = Bytes::from_gb(239.0);
        let touched = Bytes::from_mb(61.0);
        assert!(sparse_per_worker(touched).as_f64() < table.as_f64());
        assert_eq!(
            sparse_as_dense_per_worker(table).as_gb(),
            2.0 * table.as_gb()
        );
    }
}
