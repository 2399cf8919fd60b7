//! Per-rank transfer volumes of the ring collective algorithms.
//!
//! For `n` ranks and a payload of `S` bytes (the full tensor for
//! AllReduce, the concatenated result for AllGather(v)/ReduceScatter):
//!
//! | collective     | per-rank volume     |
//! |----------------|---------------------|
//! | AllReduce      | `2 (n-1)/n · S`     |
//! | ReduceScatter  | `(n-1)/n · S`       |
//! | AllGather(v)   | `(n-1)/n · S`       |
//!
//! A single rank (`n = 1`) moves nothing.

use pai_hw::{Bytes, LinkModel, Seconds};

fn check_ranks(n: usize) {
    assert!(n > 0, "collectives need at least one rank");
}

/// Ring AllReduce per-rank volume: `2 (n-1)/n · S`.
pub fn allreduce_per_rank(n: usize, payload: Bytes) -> Bytes {
    check_ranks(n);
    payload.scale(2.0 * (n as f64 - 1.0) / n as f64)
}

/// Ring ReduceScatter per-rank volume: `(n-1)/n · S`.
pub fn reduce_scatter_per_rank(n: usize, payload: Bytes) -> Bytes {
    check_ranks(n);
    payload.scale((n as f64 - 1.0) / n as f64)
}

/// Ring AllGather per-rank volume: `(n-1)/n · S` where `S` is the
/// concatenated output size.
pub fn allgather_per_rank(n: usize, payload: Bytes) -> Bytes {
    check_ranks(n);
    payload.scale((n as f64 - 1.0) / n as f64)
}

/// AllGatherv — the variable-length AllGather PEARL uses to collect
/// per-rank embedding shards (Sec. IV-C). Per-rank volume is the
/// concatenated payload minus the rank's own shard; with shards summing
/// to `S` this averages `(n-1)/n · S`.
pub fn allgatherv_per_rank(shard_bytes: &[Bytes]) -> Bytes {
    assert!(
        !shard_bytes.is_empty(),
        "allgatherv needs at least one shard"
    );
    let n = shard_bytes.len();
    let total: Bytes = shard_bytes.iter().copied().sum();
    total.scale((n as f64 - 1.0) / n as f64)
}

/// Time for a ring AllReduce on one link.
pub fn allreduce_time(n: usize, payload: Bytes, link: &LinkModel) -> Seconds {
    link.transfer_time(allreduce_per_rank(n, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_hw::{Bandwidth, LinkKind};

    #[test]
    fn allreduce_volume_matches_table_v_network_traffic() {
        // All four AllReduce-style Table V rows follow 2(n-1)/n x params
        // at n = 8: ResNet50 204->357, Speech 416->728.
        for (params, traffic) in [(204.0, 357.0), (416.0, 728.0)] {
            let v = allreduce_per_rank(8, Bytes::from_mb(params));
            assert!((v.as_mb() - traffic).abs() < 0.5, "params {params}");
        }
    }

    #[test]
    fn single_rank_moves_nothing() {
        let s = Bytes::from_mb(100.0);
        assert!(allreduce_per_rank(1, s).is_zero());
        assert!(reduce_scatter_per_rank(1, s).is_zero());
        assert!(allgather_per_rank(1, s).is_zero());
    }

    #[test]
    fn allreduce_is_reduce_scatter_plus_allgather() {
        let s = Bytes::from_mb(64.0);
        for n in [2, 4, 8, 16] {
            let ar = allreduce_per_rank(n, s).as_f64();
            let rs = reduce_scatter_per_rank(n, s).as_f64();
            let ag = allgather_per_rank(n, s).as_f64();
            assert!((ar - (rs + ag)).abs() < 1e-6);
        }
    }

    #[test]
    fn allgatherv_equal_shards_matches_allgather() {
        let shards = vec![Bytes::from_mb(16.0); 4];
        let v = allgatherv_per_rank(&shards);
        let uniform = allgather_per_rank(4, Bytes::from_mb(64.0));
        assert!((v.as_f64() - uniform.as_f64()).abs() < 1e-6);
    }

    #[test]
    fn allgatherv_uneven_shards() {
        let shards = vec![Bytes::from_mb(10.0), Bytes::from_mb(30.0)];
        // total 40, n=2 -> 20 per rank on average.
        assert!((allgatherv_per_rank(&shards).as_mb() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn volume_grows_with_ranks_but_saturates() {
        let s = Bytes::from_mb(100.0);
        let v2 = allreduce_per_rank(2, s).as_f64();
        let v8 = allreduce_per_rank(8, s).as_f64();
        let v1024 = allreduce_per_rank(1024, s).as_f64();
        assert!(v2 < v8);
        assert!(v8 < v1024);
        assert!(v1024 < 2.0 * s.as_f64());
    }

    #[test]
    fn time_uses_effective_bandwidth() {
        let link = LinkModel::new(LinkKind::NvLink, Bandwidth::from_gb_per_sec(50.0), 0.7);
        let t = allreduce_time(8, Bytes::from_gb(35.0 * 8.0 / 14.0), &link);
        // volume = 2*(7/8)*20 GB = 35 GB; time = 35/35 = 1 s.
        assert!((t.as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_zero_ranks() {
        let _ = allreduce_per_rank(0, Bytes::from_mb(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn allgatherv_rejects_empty() {
        let _ = allgatherv_per_rank(&[]);
    }
}
