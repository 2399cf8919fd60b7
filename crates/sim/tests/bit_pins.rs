//! Bit-level pins of the simulator's step measurements.
//!
//! The fig12 and resilience goldens compare floats within 1e-9
//! relative, so they would let a reordered `max` or `+` through. This
//! test pins the exact `f64` bits of `total`, `data_io` and
//! `launch_stall` for ResNet50 and Speech (Table VI efficiencies
//! injected, a hand-built NVLink + Ethernet plan) under `run`,
//! `run_replicas(4)` and one `run_replicas_faulted` step. A failure
//! means the simulator's arithmetic moved: fix the code, or, for an
//! intentional change, re-read the literals from the failure message.

use pai_collectives::{CommPlan, Transfer};
use pai_faults::{FaultInjector, FaultPlan};
use pai_graph::zoo::{self, ModelSpec};
use pai_hw::{Bytes, LinkKind};
use pai_sim::{SimConfig, StepMeasurement, StepSimulator};

/// `to_bits` of `total`, `data_io` and `launch_stall`.
fn bits(m: &StepMeasurement) -> [u64; 3] {
    [m.total, m.data_io, m.launch_stall].map(|t| t.as_f64().to_bits())
}

/// `run`, `run_replicas(4)` and step 7 of a four-replica faulted group.
fn measurements(spec: &ModelSpec) -> [[u64; 3]; 3] {
    let mut comm = CommPlan::new();
    comm.push(Transfer::new(
        "ring",
        LinkKind::NvLink,
        Bytes::from_mb(350.0),
    ));
    comm.push(Transfer::new(
        "push",
        LinkKind::Ethernet,
        Bytes::from_mb(90.0),
    ));
    let plan = FaultPlan::builder(4)
        .seed(3)
        .jitter(0.1)
        .straggler(1, 1.5)
        .nic_degradation(2, 2.0)
        .ps_retry(3, 2)
        .build()
        .unwrap();
    let injector = FaultInjector::new(plan).unwrap();
    let sim = StepSimulator::new(SimConfig::testbed().with_efficiency(*spec.measured_efficiency()));
    let graph = spec.graph();
    [
        sim.run(graph, &comm, 1),
        sim.run_replicas(graph, &comm, 4),
        sim.run_replicas_faulted(graph, &comm, &injector, 7),
    ]
    .map(|m| bits(&m.unwrap()))
}

#[test]
fn resnet50_step_bits_are_pinned() {
    let expected = [
        [0x3fcffbc21c91b0c9, 0x3f867bfd882c440c, 0x3edd9559a1f3e5cc],
        [0x3fd21980d30cfec8, 0x3fa67bfd882c440c, 0x3edd9559a1f3e5cc],
        [0x3fd693f38e665b0b, 0x3fa67bfd882c440c, 0x3ee6f66b7994969e],
    ];
    assert_eq!(measurements(&zoo::resnet50()), expected);
}

#[test]
fn speech_step_bits_are_pinned() {
    let expected = [
        [0x3ffb71bd9091d6b2, 0x3fba7ab6c95c9435, 0x0000000000000000],
        [0x4000345feb2997b4, 0x3fda7ab6c95c9435, 0x0000000000000000],
        [0x4005482eaf9de8ec, 0x3fda7ab6c95c9435, 0x0000000000000000],
    ];
    assert_eq!(measurements(&zoo::speech()), expected);
}
