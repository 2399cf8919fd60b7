//! Bit-level pins of the simulator's step measurements.
//!
//! The fig12 and resilience goldens compare floats within 1e-9
//! relative, so they would let a reordered `max` or `+` through. This
//! test pins the exact `f64` bits of `total`, `data_io` and
//! `launch_stall` for ResNet50 and Speech (Table VI efficiencies
//! injected, a hand-built NVLink + Ethernet plan) under `run`,
//! `run_replicas(4)` and one `run_replicas_faulted` step, and the
//! op count plus an FNV-1a digest of `run`'s per-op profiles. A failure
//! means the simulator's arithmetic moved: fix the code, or, for an
//! intentional change, re-read the literals from the failure message.

use pai_collectives::{CommPlan, Transfer};
use pai_faults::{FaultInjector, FaultPlan};
use pai_graph::zoo::{self, ModelSpec};
use pai_graph::Graph;
use pai_hw::{Bytes, LinkKind};
use pai_sim::{OpProfile, SimConfig, StepMeasurement, StepSimulator};

/// `to_bits` of `total`, `data_io` and `launch_stall`.
fn bits(m: &StepMeasurement) -> [u64; 3] {
    [m.total, m.data_io, m.launch_stall].map(|t| t.as_f64().to_bits())
}

/// The hand-built plan every pinned step synchronizes with.
fn comm_plan() -> CommPlan {
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
    comm
}

/// The simulator with the model's Table VI efficiencies injected.
fn simulator(spec: &ModelSpec) -> StepSimulator {
    StepSimulator::new(SimConfig::testbed().with_efficiency(*spec.measured_efficiency()))
}

/// `run`, `run_replicas(4)` and step 7 of a four-replica faulted group.
fn measurements(spec: &ModelSpec) -> [[u64; 3]; 3] {
    let comm = comm_plan();
    let plan = FaultPlan::builder(4)
        .seed(3)
        .jitter(0.1)
        .straggler(1, 1.5)
        .nic_degradation(2, 2.0)
        .ps_retry(3, 2)
        .build()
        .unwrap();
    let injector = FaultInjector::new(plan).unwrap();
    let sim = simulator(spec);
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

/// FNV-1a over every profile in order: the op's name, kind label and
/// class label, each length-prefixed, then the bits of its start,
/// duration and kernel time.
fn profile_digest(graph: &Graph, ops: &[OpProfile]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in ops {
        let class = p.class.to_string();
        for label in [graph.node(p.op).name(), p.kind.label(), &class] {
            feed(&(label.len() as u64).to_le_bytes());
            feed(label.as_bytes());
        }
        for t in [p.start, p.duration, p.kernel_time] {
            feed(&t.as_f64().to_bits().to_le_bytes());
        }
    }
    hash
}

/// `run`'s op count and profile digest.
fn profiles(spec: &ModelSpec) -> (usize, u64) {
    let m = simulator(spec).run(spec.graph(), &comm_plan(), 1).unwrap();
    (m.ops.len(), profile_digest(spec.graph(), &m.ops))
}

#[test]
fn resnet50_profiles_are_pinned() {
    assert_eq!(profiles(&zoo::resnet50()), (312, 0x1671_fb85_5b82_529c));
}

#[test]
fn speech_profiles_are_pinned() {
    assert_eq!(profiles(&zoo::speech()), (50_432, 0xfddd_45b9_d65f_ccd7));
}
