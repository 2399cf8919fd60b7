//! Property-based invariants across the stack (proptest).

use alibaba_pai_workloads::collectives::{ring, CommPlan, Transfer};
use alibaba_pai_workloads::core::{Architecture, Ecdf, OverlapMode, PerfModel, WorkloadFeatures};
use alibaba_pai_workloads::hw::{
    Bytes, Efficiency, Flops, HardwareConfig, LinkKind, SweepAxis, SweepPoint,
};
use proptest::prelude::*;

/// An arbitrary architecture with a compatible cNode count.
fn arch_and_cnodes() -> impl Strategy<Value = (Architecture, usize)> {
    prop_oneof![
        Just(Architecture::OneWorkerOneGpu).prop_map(|a| (a, 1usize)),
        (2usize..=8).prop_map(|n| (Architecture::OneWorkerMultiGpu, n)),
        (2usize..=512).prop_map(|n| (Architecture::PsWorker, n)),
        (2usize..=8).prop_map(|n| (Architecture::AllReduceLocal, n)),
        (2usize..=512).prop_map(|n| (Architecture::AllReduceCluster, n)),
    ]
}

fn features() -> impl Strategy<Value = WorkloadFeatures> {
    (
        arch_and_cnodes(),
        1u64..1_000_000_000,      // input bytes
        0u64..50_000_000_000,     // weight bytes
        1u64..10_000_000_000_000, // flops
        1u64..200_000_000_000,    // mem access bytes
        1usize..4096,             // batch
    )
        .prop_map(|((arch, cnodes), sd, sw, fl, sm, batch)| {
            WorkloadFeatures::builder(arch)
                .cnodes(cnodes)
                .batch_size(batch)
                .input_bytes(Bytes::new(sd))
                .weight_bytes(Bytes::new(sw))
                .flops(Flops::from_f64(fl as f64))
                .mem_access_bytes(Bytes::new(sm))
                .build()
        })
}

proptest! {
    #[test]
    fn breakdown_components_are_nonnegative_and_additive(job in features()) {
        let m = PerfModel::paper_default();
        let ct = m.component_times(&job);
        let sum = ct.data_io + ct.compute_bound + ct.memory_bound + ct.weight_traffic;
        // Serialized total is exactly the component sum.
        prop_assert!((ct.total.as_f64() - sum.as_f64()).abs() <= 1e-9 * sum.as_f64().max(1e-12));
        // Fractions normalize.
        let frac: f64 = ct.fractions().iter().sum();
        if ct.total.as_f64() > 0.0 {
            prop_assert!((frac - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ideal_overlap_never_slower_than_serialized(job in features()) {
        let ser = PerfModel::paper_default();
        let ideal = ser.with_overlap(OverlapMode::Ideal);
        prop_assert!(ideal.total_time(&job).as_f64() <= ser.total_time(&job).as_f64() + 1e-15);
        // And never faster than a third of it (max vs sum of 3 phases).
        prop_assert!(ideal.total_time(&job).as_f64() * 3.0 >= ser.total_time(&job).as_f64() * (1.0 - 1e-12));
    }

    #[test]
    fn more_bandwidth_never_slows_a_job(
        job in features(),
        axis_idx in 0usize..4,
        factor in 1.0f64..10.0,
    ) {
        let m = PerfModel::paper_default();
        let axis = SweepAxis::ALL[axis_idx];
        let base_value = match axis {
            SweepAxis::Ethernet => 25.0,
            SweepAxis::Pcie => 10.0,
            SweepAxis::GpuFlops => 11.0,
            SweepAxis::GpuMemory => 1.0,
        };
        let faster = m.with_config(m.config().with_resource(SweepPoint {
            axis,
            value: base_value * factor,
        }));
        prop_assert!(faster.total_time(&job).as_f64() <= m.total_time(&job).as_f64() + 1e-12);
    }

    #[test]
    fn uniform_efficiency_scales_all_components_equally(
        job in features(),
        eff in 0.05f64..1.0,
    ) {
        let base = PerfModel::paper_default()
            .with_efficiency(Efficiency::uniform(0.7));
        let other = PerfModel::paper_default()
            .with_efficiency(Efficiency::uniform(eff));
        let tb = base.total_time(&job).as_f64();
        let to = other.total_time(&job).as_f64();
        if tb > 0.0 {
            prop_assert!((to / tb - 0.7 / eff).abs() < 1e-6);
        }
    }

    #[test]
    fn ring_allreduce_volume_bounds(n in 1usize..2048, mb in 0.001f64..100_000.0) {
        let payload = Bytes::from_mb(mb);
        let v = ring::allreduce_per_rank(n, payload);
        prop_assert!(v.as_f64() <= 2.0 * payload.as_f64() + 1e-9);
        prop_assert!(v.as_f64() >= 0.0);
        // Conservation: reduce-scatter + allgather = allreduce.
        let rs = ring::reduce_scatter_per_rank(n, payload);
        let ag = ring::allgather_per_rank(n, payload);
        prop_assert!(((rs + ag).as_f64() - v.as_f64()).abs() < 1e-6);
    }

    #[test]
    fn comm_plan_time_decomposes_by_link(
        volumes in proptest::collection::vec((0u64..10_000_000_000, 0usize..3), 0..10)
    ) {
        let links = [LinkKind::Pcie, LinkKind::Ethernet, LinkKind::NvLink];
        let plan: CommPlan = volumes
            .iter()
            .enumerate()
            .map(|(i, &(bytes, li))| Transfer::new(format!("t{i}"), links[li], Bytes::new(bytes)))
            .collect();
        let cfg = HardwareConfig::pai_default();
        let total = plan.serialized_time(&cfg).as_f64();
        let by_link: f64 = links
            .iter()
            .map(|&l| cfg.link(l).transfer_time(plan.bytes_on(l)).as_f64())
            .sum();
        prop_assert!((total - by_link).abs() <= 1e-9 * total.max(1e-12));
        // Volume decomposes too.
        let vol_sum: f64 = links.iter().map(|&l| plan.bytes_on(l).as_f64()).sum();
        prop_assert!((plan.total_bytes().as_f64() - vol_sum).abs() < 1e-6);
    }

    #[test]
    fn ecdf_is_a_distribution_function(
        mut values in proptest::collection::vec(-1e6f64..1e6, 1..200),
        probe in -1e6f64..1e6,
    ) {
        let cdf = Ecdf::from_values(values.iter().copied());
        let f = cdf.fraction_at_most(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(cdf.fraction_at_most(cdf.max()) == 1.0);
        prop_assert!(cdf.fraction_at_most(cdf.min()) > 0.0);
        // Quantile and CDF are consistent: F(Q(q)) >= q.
        values.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9] {
            prop_assert!(cdf.fraction_at_most(cdf.quantile(q)) >= q - 1e-9);
        }
    }

    #[test]
    fn throughput_is_monotone_in_its_inputs(
        cn in 1usize..1000,
        batch in 1usize..10_000,
        secs in 0.001f64..100.0,
    ) {
        use alibaba_pai_workloads::core::throughput;
        use pai_hw::Seconds;
        let t = throughput(cn, Seconds::from_f64(secs), batch);
        prop_assert!(t > 0.0);
        prop_assert!(throughput(cn + 1, Seconds::from_f64(secs), batch) > t);
        prop_assert!(throughput(cn, Seconds::from_f64(secs * 2.0), batch) < t);
    }
}
