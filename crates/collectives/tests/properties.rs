//! Property tests for collective volume algebra.

use pai_collectives::{hierarchical, ps, ring, CommPlan, Transfer};
use pai_hw::{Bytes, HardwareConfig, LinkKind};
use proptest::prelude::*;

proptest! {
    #[test]
    fn allreduce_volume_is_monotone_in_ranks(
        mb in 0.001f64..1e6,
        n in 1usize..1024,
    ) {
        let payload = Bytes::from_mb(mb);
        let v_n = ring::allreduce_per_rank(n, payload);
        let v_n1 = ring::allreduce_per_rank(n + 1, payload);
        prop_assert!(v_n1.as_f64() >= v_n.as_f64() - 1e-9);
        // Strict upper bound 2S.
        prop_assert!(v_n1.as_f64() < 2.0 * payload.as_f64());
    }

    #[test]
    fn allgatherv_generalizes_allgather(
        shards in proptest::collection::vec(0.001f64..1e4, 1..32),
    ) {
        let bytes: Vec<Bytes> = shards.iter().map(|&mb| Bytes::from_mb(mb)).collect();
        let total: Bytes = bytes.iter().copied().sum();
        let v = ring::allgatherv_per_rank(&bytes);
        let uniform = ring::allgather_per_rank(bytes.len(), total);
        prop_assert!((v.as_f64() - uniform.as_f64()).abs() < 1e-6 * total.as_f64().max(1.0));
    }

    #[test]
    fn hierarchical_conserves_the_reduction(
        mb in 0.01f64..1e5,
        gpus in 1usize..16,
        servers in 1usize..64,
    ) {
        // Whatever the topology, everyone ends with the full sum: the
        // per-rank volume is bounded by the flat ring's over the total
        // rank count, and single-server degenerates to the local ring.
        let payload = Bytes::from_mb(mb);
        let plan = hierarchical::allreduce_plan(payload, gpus, servers);
        let flat = ring::allreduce_per_rank(gpus * servers, payload);
        prop_assert!(plan.total_bytes().as_f64() <= 2.0 * flat.as_f64() + 1e-6);
        if servers == 1 {
            prop_assert!(plan.bytes_on(LinkKind::Ethernet).is_zero());
        }
        if gpus == 1 {
            prop_assert!(plan.bytes_on(LinkKind::NvLink).is_zero());
        }
    }

    #[test]
    fn plan_times_are_additive_under_concatenation(
        a_mb in 0.0f64..1e4,
        b_mb in 0.0f64..1e4,
    ) {
        let cfg = HardwareConfig::pai_default();
        let mut p1 = CommPlan::new();
        p1.push(Transfer::new("a", LinkKind::Ethernet, Bytes::from_mb(a_mb)));
        let mut p2 = CommPlan::new();
        p2.push(Transfer::new("b", LinkKind::NvLink, Bytes::from_mb(b_mb)));
        let mut joint = CommPlan::new();
        joint.extend(p1.transfers().iter().cloned());
        joint.extend(p2.transfers().iter().cloned());
        let lhs = joint.serialized_time(&cfg).as_f64();
        let rhs = p1.serialized_time(&cfg).as_f64() + p2.serialized_time(&cfg).as_f64();
        prop_assert!((lhs - rhs).abs() < 1e-12 + 1e-9 * rhs);
    }

    #[test]
    fn sparse_awareness_never_moves_more(
        table_gb in 0.001f64..500.0,
        touched_frac in 0.0f64..1.0,
    ) {
        let table = Bytes::from_gb(table_gb);
        let touched = table.scale(touched_frac);
        prop_assert!(
            ps::sparse_per_worker(touched).as_f64()
                <= ps::sparse_as_dense_per_worker(table).as_f64() + 1e-9
        );
    }
}
