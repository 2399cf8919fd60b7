//! Integration: zoo → profiler → analytical model → simulator, the
//! Sec. IV pipeline across crates.

use alibaba_pai_workloads::collectives::CommPlan;
use alibaba_pai_workloads::core::PerfModel;
use alibaba_pai_workloads::graph::passes::{apply_mixed_precision, fuse_elementwise};
use alibaba_pai_workloads::graph::zoo;
use alibaba_pai_workloads::pearl::{comm_plan, ModelComm, Strategy};
use alibaba_pai_workloads::profiler::extract_features;
use alibaba_pai_workloads::profiler::validate::{validate_all, validate_model};
use alibaba_pai_workloads::sim::{SimConfig, StepSimulator};

#[test]
fn fig12_shape_holds_across_the_stack() {
    let reports = validate_all();
    assert_eq!(reports.len(), 6);
    for r in &reports {
        match r.model.as_str() {
            // Well-behaved models: estimate lands close.
            "ResNet50" | "NMT" => assert!(
                r.difference.abs() < 0.12,
                "{}: {:+.3}",
                r.model,
                r.difference
            ),
            "BERT" => assert!(r.difference.abs() < 0.15, "BERT {:+.3}", r.difference),
            // Giant-embedding models: wider but bounded.
            "Multi-Interests" => {
                assert!(r.difference.abs() < 0.25, "MI {:+.3}", r.difference)
            }
            // The pathological cases the paper highlights.
            "Speech" => assert!(r.difference < -0.35, "Speech {:+.3}", r.difference),
            "GCN" => assert!(r.difference < -0.25, "GCN {:+.3}", r.difference),
            other => panic!("unexpected model {other}"),
        }
    }
}

#[test]
fn analytical_and_simulated_agree_under_identical_assumptions() {
    // When the simulator runs with the same uniform 70 % efficiency and
    // zero launch overhead, its step time must equal the analytical
    // prediction almost exactly — the two are independent codepaths.
    let model = zoo::resnet50();
    let features = extract_features(&model, 8);
    let analytical = PerfModel::testbed_default();
    let predicted = analytical.total_time(&features);

    let sim = StepSimulator::new(SimConfig::testbed().with_launch_overhead(pai_hw::Seconds::ZERO));
    let plan = alibaba_pai_workloads::profiler::validate::plan_for(&model, 8);
    let measured = sim.run(model.graph(), &plan, 8).unwrap();
    let ratio = predicted.as_f64() / measured.total.as_f64();
    assert!(
        (ratio - 1.0).abs() < 0.02,
        "analytical {predicted} vs simulated {} (ratio {ratio})",
        measured.total
    );
}

#[test]
fn optimization_passes_compose_across_crates() {
    let model = zoo::bert();
    let sim = StepSimulator::new(SimConfig::testbed());
    let base = sim.run(model.graph(), &CommPlan::new(), 1).unwrap();
    let (mp, routed) = apply_mixed_precision(model.graph());
    assert!(routed > 100, "BERT has hundreds of GEMMs, routed {routed}");
    let fused = fuse_elementwise(&mp);
    let optimized = sim.run(&fused, &CommPlan::new(), 1).unwrap();
    let speedup = base.total.as_f64() / optimized.total.as_f64();
    assert!(speedup > 1.5, "MP+XLA compute speedup {speedup}");
    // FLOPs conserved through both passes.
    assert_eq!(
        fused.stats().flops.as_f64(),
        model.graph().stats().flops.as_f64()
    );
}

#[test]
fn pearl_is_the_only_viable_nvlink_strategy_for_gcn() {
    let model = zoo::gcn();
    let comm = ModelComm::of(&model);
    let v100 = pai_hw::GpuSpec::tesla_v100();
    // Replica mode cannot hold the table; PEARL's shard fits.
    assert!(
        !v100.fits_in_memory(Strategy::AllReduceLocal { gpus: 8 }.resident_bytes_per_gpu(&comm))
    );
    assert!(v100.fits_in_memory(Strategy::Pearl { gpus: 8 }.resident_bytes_per_gpu(&comm)));
    // And it is an order of magnitude faster than PS end-to-end.
    let sim =
        StepSimulator::new(SimConfig::testbed().with_efficiency(*model.measured_efficiency()));
    let pearl = sim
        .run(
            model.graph(),
            &comm_plan(&Strategy::Pearl { gpus: 8 }, &comm),
            8,
        )
        .unwrap();
    let ps = sim
        .run(
            model.graph(),
            &comm_plan(
                &Strategy::PsWorker {
                    workers: 8,
                    sparse_aware: true,
                },
                &comm,
            ),
            1,
        )
        .unwrap();
    assert!(ps.total.as_f64() / pearl.total.as_f64() > 5.0);
}

#[test]
fn speech_anomaly_comes_from_tiny_kernels() {
    // The mechanism, not just the number: Speech's measured step is
    // dominated by memory-bound kernels at 3.1 % bandwidth efficiency,
    // and a large share of its kernels are launch-gap floored.
    let r = validate_model(&zoo::speech(), 1);
    let m = &r.measured;
    assert!(m.memory_bound.as_f64() > 5.0 * r.estimated.memory_bound.as_f64());
    assert!(m.kernels > 40_000);

    // At healthy (70 %) bandwidth those same kernels fall below the
    // launch gap and the step becomes dispatch-bound instead — the
    // framework-overhead effect of Sec. VI-A3.
    let healthy = StepSimulator::new(SimConfig::testbed());
    let model = zoo::speech();
    let h = healthy.run(model.graph(), &CommPlan::new(), 1).unwrap();
    assert!(
        h.launch_stall.as_f64() > 0.1 * h.memory_bound.as_f64(),
        "stall {} vs memory occupancy {}",
        h.launch_stall,
        h.memory_bound
    );
}

#[test]
fn every_zoo_model_flows_through_feature_extraction() {
    for m in zoo::all() {
        let cnodes = match m.arch() {
            zoo::CaseStudyArch::OneWorkerOneGpu => 1,
            _ => 8,
        };
        let f = extract_features(&m, cnodes);
        assert_eq!(f.batch_size(), m.batch_size());
        let ct = PerfModel::testbed_default().component_times(&f);
        assert!(ct.total.as_f64() > 0.0, "{} has a zero-time step", m.name());
        let frac_sum: f64 = ct.fractions().iter().sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}
