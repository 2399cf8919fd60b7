//! Property tests for the step executor and fault-injected multi-step
//! runs. Testbed placement is pai-sched's, and so are its properties
//! (`crates/sched/tests/properties.rs`).

use pai_collectives::{CommPlan, Transfer};
use pai_faults::FaultPlan;
use pai_graph::op::{elementwise, matmul, Op};
use pai_graph::{Graph, OpKind};
use pai_hw::{Bytes, LinkKind, Seconds};
use pai_par::{assert_serial_parallel_identical, Threads, EQUIVALENCE_THREADS};
use pai_sim::{SimConfig, StepSimulator};
use proptest::prelude::*;

proptest! {
    #[test]
    fn step_time_is_monotone_in_launch_overhead(
        ops in 1usize..200,
        gap_us in 0.0f64..50.0,
    ) {
        let mut g = Graph::new("tiny");
        for i in 0..ops {
            g.add(Op::new(format!("ew{i}"), elementwise(1, 128, 1)));
        }
        let base = StepSimulator::new(
            SimConfig::testbed().with_launch_overhead(Seconds::ZERO),
        )
        .run(&g, &CommPlan::new(), 1)
        .unwrap();
        let gapped = StepSimulator::new(
            SimConfig::testbed().with_launch_overhead(Seconds::from_micros(gap_us)),
        )
        .run(&g, &CommPlan::new(), 1)
        .unwrap();
        prop_assert!(gapped.total.as_f64() >= base.total.as_f64() - 1e-15);
        // With a gap, each op takes at least the gap.
        prop_assert!(gapped.total.as_f64() >= ops as f64 * gap_us * 1e-6 - 1e-12);
    }

    #[test]
    fn measurement_partitions_the_serialized_step(
        numel in 1_000usize..10_000_000,
        comm_mb in 0.0f64..1_000.0,
    ) {
        let mut g = Graph::new("p");
        let a = g.add(Op::new("in", OpKind::DataLoad { bytes: 5_000_000 }));
        let b = g.add(Op::new("ew", elementwise(2, numel, 1)));
        g.connect(a, b);
        let mut comm = CommPlan::new();
        comm.push(Transfer::new("sync", LinkKind::Ethernet, Bytes::from_mb(comm_mb)));
        let m = StepSimulator::new(SimConfig::testbed()).run(&g, &comm, 1).unwrap();
        let parts = m.data_io + m.computation() + m.comm_total();
        prop_assert!((m.total.as_f64() - parts.as_f64()).abs() < 1e-9 * parts.as_f64().max(1e-9));
    }
}

/// A small three-op training step for the fault properties.
fn fault_graph() -> Graph {
    let mut g = Graph::new("fault-prop");
    let load = g.add(Op::new("in", OpKind::DataLoad { bytes: 10_000_000 }));
    let mm = g.add(Op::new("mm", matmul(512, 512, 512)));
    let ew = g.add(Op::new("ew", elementwise(1, 5_000_000, 1)));
    g.connect(load, mm);
    g.connect(mm, ew);
    g
}

fn sync_comm() -> CommPlan {
    let mut comm = CommPlan::new();
    comm.push(Transfer::new(
        "sync",
        LinkKind::Ethernet,
        Bytes::from_mb(50.0),
    ));
    comm
}

proptest! {
    /// ISSUE acceptance: the same fault seed must produce bit-identical
    /// simulation output.
    #[test]
    fn same_fault_plan_reproduces_measurements_exactly(
        seed in 0u64..1_000_000,
        jitter in 0.0f64..0.5,
        slowdown in 1.0f64..4.0,
        replica in 0usize..3,
        failures in 0u32..4,
    ) {
        let g = fault_graph();
        let comm = sync_comm();
        let plan = FaultPlan::builder(3)
            .seed(seed)
            .jitter(jitter)
            .straggler(replica, slowdown)
            .ps_retry((replica + 1) % 3, failures)
            .build()
            .unwrap();
        let sim = StepSimulator::new(SimConfig::testbed());
        let a = sim.run_faulted(&g, &comm, 6, &plan, Threads::SERIAL).unwrap();
        let b = sim.run_faulted(&g, &comm, 6, &plan, Threads::SERIAL).unwrap();
        prop_assert_eq!(&a.steps, &b.steps);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            prop_assert!(x.total.as_f64().to_bits() == y.total.as_f64().to_bits());
        }
        prop_assert!(a.wall_clock.as_f64().to_bits() == b.wall_clock.as_f64().to_bits());
    }

    /// ISSUE acceptance: a faulted multi-step run is bit-for-bit
    /// identical at every worker-thread count, across random seeds and
    /// fault plans mixing jitter, stragglers, NIC degradation, crashes
    /// and PS retries. Step counts straddle the 16-step chunk size so
    /// single-chunk, exact-tile and short-tail decompositions are all
    /// exercised.
    #[test]
    fn faulted_run_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        jitter in 0.0f64..0.3,
        slowdown in 1.0f64..3.0,
        replica in 0usize..4,
        at_step in 0usize..40,
        lost in 0usize..6,
        steps in 1usize..40,
    ) {
        let g = fault_graph();
        let comm = sync_comm();
        let plan = FaultPlan::builder(4)
            .seed(seed)
            .jitter(jitter)
            .straggler(replica, slowdown)
            .nic_degradation((replica + 1) % 4, slowdown)
            .crash(replica, at_step, Seconds::from_f64(10.0), lost)
            .ps_retry((replica + 2) % 4, 2)
            .build()
            .unwrap();
        let sim = StepSimulator::new(SimConfig::testbed());
        let oracle = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |threads| {
            sim.run_faulted(&g, &comm, steps, &plan, threads).unwrap()
        });
        // The public serial entry point is the same oracle, down to
        // the float bits of the wall clock.
        let serial = sim.run_faulted(&g, &comm, steps, &plan, Threads::SERIAL).unwrap();
        prop_assert!(oracle.wall_clock.as_f64().to_bits() == serial.wall_clock.as_f64().to_bits());
        prop_assert_eq!(oracle, serial);
    }

    /// ISSUE acceptance: injecting a fault can never make the run
    /// finish sooner.
    #[test]
    fn adding_a_fault_never_decreases_makespan(
        kind in 0usize..4,
        magnitude in 1.0f64..3.0,
        replica in 0usize..3,
        at_step in 0usize..6,
        lost in 0usize..5,
    ) {
        let g = fault_graph();
        let comm = sync_comm();
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = sim
            .run_faulted(&g, &comm, 6, &FaultPlan::healthy(3).unwrap(), Threads::SERIAL)
            .unwrap();
        let builder = FaultPlan::builder(3);
        let plan = match kind {
            0 => builder.straggler(replica, magnitude),
            1 => builder.nic_degradation(replica, magnitude),
            2 => builder.crash(replica, at_step, Seconds::from_f64(magnitude), lost),
            _ => builder.ps_retry(replica, 3),
        }
        .build()
        .unwrap();
        let faulted = sim.run_faulted(&g, &comm, 6, &plan, Threads::SERIAL).unwrap();
        prop_assert!(
            faulted.wall_clock.as_f64() >= healthy.wall_clock.as_f64() - 1e-12,
            "faulted wall clock {} < healthy {}",
            faulted.wall_clock,
            healthy.wall_clock
        );
        for (h, f) in healthy.steps.iter().zip(&faulted.steps) {
            prop_assert!(f.total.as_f64() >= h.total.as_f64() - 1e-12);
        }
        let hs = healthy.stats().unwrap();
        let fs = faulted.stats().unwrap();
        prop_assert!(fs.goodput <= hs.goodput + 1e-12);
    }
}

/// Edge plans through the parallel path: an empty (healthy) plan and a
/// zero-failure retry plan must behave identically to serial at every
/// thread count and inject nothing.
#[test]
fn degenerate_plans_through_the_parallel_path() {
    let g = fault_graph();
    let comm = sync_comm();
    let sim = StepSimulator::new(SimConfig::testbed());
    for plan in [
        FaultPlan::healthy(3).unwrap(),
        FaultPlan::builder(3).ps_retry(1, 0).build().unwrap(),
    ] {
        let run = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |threads| {
            sim.run_faulted(&g, &comm, 20, &plan, threads).unwrap()
        });
        assert_eq!(run.steps.len(), 20);
        assert!(run.lost_time.is_zero());
        assert_eq!(run.lost_steps, 0);
        // Nothing injected: every step costs the same as the first.
        for step in &run.steps {
            assert_eq!(step.total, run.steps[0].total);
        }
    }
}

/// A single-step run (fewer steps than one chunk) and a run whose step
/// count tiles the chunk size exactly must both be thread-invariant.
#[test]
fn chunk_boundary_step_counts_are_thread_invariant() {
    let g = fault_graph();
    let comm = sync_comm();
    let sim = StepSimulator::new(SimConfig::testbed());
    let plan = FaultPlan::builder(3)
        .seed(7)
        .jitter(0.05)
        .crash(0, 2, Seconds::from_f64(3.0), 2)
        .build()
        .unwrap();
    for steps in [1usize, 16, 32] {
        let run = assert_serial_parallel_identical(&EQUIVALENCE_THREADS, |threads| {
            sim.run_faulted(&g, &comm, steps, &plan, threads).unwrap()
        });
        assert_eq!(run.steps.len(), steps);
    }
}
