//! Property tests for the analytical framework: projection algebra,
//! Eq. 3, and breakdown identities.

use pai_core::project::{project, ProjectionTarget};
use pai_core::{
    comm_bound_speedup, Architecture, HardwareBreakdown, OverlapMode, PerfModel, WorkloadFeatures,
};
use pai_hw::{Bytes, Efficiency, Flops};
use proptest::prelude::*;

fn ps_job() -> impl Strategy<Value = WorkloadFeatures> {
    (
        2usize..1024,
        1u64..500_000_000,
        1u64..15_000_000_000, // fits in GPU memory -> always eligible
        1u64..5_000_000_000_000,
        1u64..100_000_000_000,
        0usize..12,
    )
        .prop_map(|(cnodes, sd, sw, fl, sm, batch_exp)| {
            WorkloadFeatures::builder(Architecture::PsWorker)
                .cnodes(cnodes)
                .batch_size(1 << batch_exp)
                .input_bytes(Bytes::new(sd))
                .weight_bytes(Bytes::new(sw))
                .flops(Flops::from_f64(fl as f64))
                .mem_access_bytes(Bytes::new(sm))
                .build()
        })
}

proptest! {
    #[test]
    fn projection_speedup_is_bounded_by_eq3(job in ps_job()) {
        let m = PerfModel::paper_default();
        let out = project(&m, &job, ProjectionTarget::AllReduceLocal)
            .expect("eligible by construction");
        // Eq. 3 is the supremum: only the weight term can shrink, by at
        // most the 21x medium swap.
        prop_assert!(out.single_cnode_speedup <= comm_bound_speedup(&m) + 1e-9);
        prop_assert!(out.single_cnode_speedup > 0.0);
        // The cap rule.
        prop_assert!(out.projected.cnodes() <= 8);
        prop_assert!(out.projected.cnodes() <= job.cnodes().max(2));
    }

    #[test]
    fn throughput_speedup_identity(job in ps_job()) {
        let m = PerfModel::paper_default();
        let out = project(&m, &job, ProjectionTarget::AllReduceLocal)
            .expect("eligible by construction");
        let expected = out.single_cnode_speedup * out.projected.cnodes() as f64
            / job.cnodes() as f64;
        prop_assert!((out.throughput_speedup - expected).abs() < 1e-9 * expected.max(1e-12));
    }

    #[test]
    fn cluster_projection_preserves_cnodes_and_is_mild(job in ps_job()) {
        let m = PerfModel::paper_default();
        let out = project(&m, &job, ProjectionTarget::AllReduceCluster)
            .expect("eligible by construction");
        prop_assert_eq!(out.projected.cnodes(), job.cnodes());
        // The Ethernet bottleneck caps the win at ~1.24x.
        prop_assert!(out.single_cnode_speedup < 1.24);
    }

    #[test]
    fn eq3_bound_is_invariant_under_uniform_efficiency(eff in 0.05f64..1.0) {
        let m = PerfModel::paper_default().with_efficiency(Efficiency::uniform(eff));
        prop_assert!((comm_bound_speedup(&m) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn weight_fraction_is_monotone_in_weight_volume(
        job in ps_job(),
        factor in 1.01f64..100.0,
    ) {
        let m = PerfModel::paper_default();
        let heavier = WorkloadFeatures::builder(job.arch())
            .cnodes(job.cnodes())
            .batch_size(job.batch_size())
            .input_bytes(job.input_bytes())
            .weight_bytes(job.weight_bytes().scale(factor))
            .flops(job.flops())
            .mem_access_bytes(job.mem_access_bytes())
            .build();
        prop_assert!(
            m.component_times(&heavier).weight_fraction()
                >= m.component_times(&job).weight_fraction() - 1e-12
        );
    }

    #[test]
    fn ideal_overlap_weight_fraction_never_smaller(job in ps_job()) {
        let ser = PerfModel::paper_default();
        let ideal = ser.with_overlap(OverlapMode::Ideal);
        prop_assert!(
            ideal.component_times(&job).weight_fraction()
                >= ser.component_times(&job).weight_fraction() - 1e-12
        );
    }

    #[test]
    fn by_hardware_times_partition_the_total(job in ps_job()) {
        let m = PerfModel::paper_default();
        let terms = m.terms(&job);
        let total = m.combine(&terms).total;
        let h = HardwareBreakdown::new(job.arch(), &terms, total);
        let sum = h.gpu_flops + h.gpu_memory + h.pcie + h.ethernet + h.nvlink;
        prop_assert!((sum.as_f64() - total.as_f64()).abs()
            <= 1e-9 * total.as_f64().max(1e-12));
    }
}

proptest! {
    // Population-level equivalence runs four thread counts per case;
    // keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-job model evaluation, architecture projection, the Table III
    /// sweep and the streaming headline accumulator are bit-for-bit
    /// identical at every worker-thread count.
    #[test]
    fn characterization_is_thread_count_invariant(
        jobs in proptest::collection::vec(ps_job(), 1..400),
    ) {
        use pai_core::{characterize, class_sweep, ProjectionTarget};
        use pai_par::{assert_serial_parallel_identical, EQUIVALENCE_THREADS, Threads};

        let m = PerfModel::paper_default();
        let times = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |t| {
            pai_par::map_items(&jobs, pai_par::DEFAULT_CHUNK_SIZE, t, |j| m.component_times(j))
        });
        prop_assert_eq!(times.len(), jobs.len());

        assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |t| {
            m.projections(&jobs, ProjectionTarget::AllReduceLocal, t)
        });

        let weights = vec![1.0; jobs.len()];
        assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |t| {
            class_sweep(&m, Architecture::PsWorker, &jobs, &weights, t)
        });

        let stats = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |t| {
            characterize(&m, &jobs, t)
        });
        prop_assert_eq!(stats, characterize(&m, &jobs, Threads::SERIAL));
    }
}
