//! Bit-level pins of the scheduler's outcomes.
//!
//! The schedule golden compares floats within a tolerance, so it would
//! let a reordered sum or a skipped reprice through. This test replays
//! every built-in [`PolicyKind`] on one seeded stream shaped like the
//! perfbench `schedule` workload — the 2,000-job population at the
//! reproduction's seed, gangs capped at 64 GPUs, offered at load 0.6 —
//! and pins the event count, an FNV-1a digest of the event log, and
//! the exact `f64` bits of every `ClusterMetrics` field and of the
//! predictive rows' calibration MAPE. The stream queues deeply and
//! crashes, so the pins cover head-of-line blocking, requeues and
//! contention repricing. A failure means the engine's arithmetic or
//! event order moved: fix the code, or, for an intentional change,
//! re-read the literals from the failure message.

use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_sched::{
    realize_stream, run_kind, templates_from_population, ArrivalConfig, ClusterMetrics,
    EventRecord, PolicyKind, SchedConfig, SchedJob,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};

/// The reproduction's seed (`pai_repro::SEED`): it draws the
/// population, the arrival stream and the QSSF history hash.
const SEED: u64 = 1_905_930;
/// Jobs in the population, before the width cap.
const POPULATION: usize = 2_000;
/// Widest gang admitted, in GPUs.
const WIDTH_CAP: usize = 64;
/// Offered load as a fraction of the cluster's solo-work capacity.
const OFFERED_LOAD: f64 = 0.6;

fn stream() -> (ClusterSpec, Vec<SchedJob>) {
    let cluster = ClusterSpec::testbed(0.7);
    let config = PopulationConfig::paper_scale(POPULATION).expect("valid scale");
    let population = Population::generate(&config, SEED).expect("valid config");
    let model = PerfModel::paper_default();
    let (templates, _) = templates_from_population(&model, &population, WIDTH_CAP);
    let arrival = ArrivalConfig::for_offered_load(
        &templates,
        &cluster,
        OFFERED_LOAD,
        ArrivalConfig::default().steps_range,
    )
    .expect("non-empty templates");
    let failures = FailureSampler::paper_calibrated();
    let jobs = realize_stream(&templates, &arrival, &failures, SEED).expect("valid stream");
    (cluster, jobs)
}

/// FNV-1a over every event's fields, times by bit pattern.
fn log_digest(events: &[EventRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for e in events {
        let words = [
            e.seq as u64,
            e.time_s.to_bits(),
            e.kind as u64,
            e.job as u64,
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// What one policy's replay is pinned by.
#[derive(Debug, PartialEq)]
struct Pins {
    events: usize,
    digest: u64,
    jobs: usize,
    crashes: usize,
    /// `to_bits` of makespan, utilization, fragmentation, mean
    /// queueing delay, mean / p50 / p95 / p99 JCT, mean slowdown.
    metrics: [u64; 9],
    /// `to_bits` of the calibration MAPE (predictive rows only).
    mape: Option<u64>,
}

fn metric_bits(m: &ClusterMetrics) -> [u64; 9] {
    [
        m.makespan_s,
        m.gpu_utilization,
        m.fragmentation,
        m.mean_queueing_delay_s,
        m.mean_jct_s,
        m.p50_jct_s,
        m.p95_jct_s,
        m.p99_jct_s,
        m.mean_slowdown,
    ]
    .map(f64::to_bits)
}

/// The pins of a stream-shaped replay: every policy sees the same
/// arrivals, crash points and requeues, so only the digest and the
/// metric bits tell the policies apart.
fn pins(digest: u64, metrics: [u64; 9], mape: Option<u64>) -> Pins {
    Pins {
        events: 6_150,
        digest,
        jobs: 1_955,
        crashes: 95,
        metrics,
        mape,
    }
}

fn expected(kind: PolicyKind) -> Pins {
    match kind {
        PolicyKind::FifoFirstFit => pins(
            0x33fb_e500_a417_26a2,
            [
                0x413a_e2bb_c6aa_44b6,
                0x3fc6_4422_c508_a610,
                0x3fbd_5176_59f7_04e3,
                0x40bc_03b4_c7cc_1453,
                0x40cd_f9d7_6979_cf9b,
                0x4082_3a05_9e49_7d00,
                0x40e3_bcb4_7e99_4c34,
                0x4104_aa69_51bb_687f,
                0x4071_3ccd_2da4_3fe1,
            ],
            None,
        ),
        PolicyKind::BestFitPacked => pins(
            0x81e3_aff4_7574_c22d,
            [
                0x413a_9a2f_7f80_a8b6,
                0x3fc6_6e77_decf_adff,
                0x3fb8_b90a_8f0d_16f3,
                0x40bb_98a6_70d0_16f2,
                0x40cd_6a94_b9b3_839b,
                0x4080_878e_b153_9d80,
                0x40e3_85e7_3681_8994,
                0x4104_5ae5_18d6_129e,
                0x4070_ffa6_9af5_3c72,
            ],
            None,
        ),
        PolicyKind::Spread => pins(
            0xcd87_ab8e_f83a_873b,
            [
                0x4139_67ea_4514_c283,
                0x3fc4_2b93_09cd_2da8,
                0x3fd6_a563_5945_2fd5,
                0x40b4_9d52_c173_aeb8,
                0x40c8_12ca_a66a_0661,
                0x4076_fed6_a298_a6a0,
                0x40de_9d6f_0080_7110,
                0x4102_e935_0269_e1e4,
                0x4069_bc8f_e3e7_e07c,
            ],
            None,
        ),
        PolicyKind::LocalityAware => pins(
            0x8f1a_74cc_d320_a738,
            [
                0x4139_79b5_ba37_b6bc,
                0x3fc4_3838_c248_a478,
                0x3fd5_80e2_49c5_039f,
                0x40b4_e25d_5e9b_32bb,
                0x40c8_4f80_51ab_d36f,
                0x4073_e1b2_844b_9f00,
                0x40de_6939_819d_b338,
                0x4102_bf6f_5962_142a,
                0x406a_1355_bc2e_4603,
            ],
            None,
        ),
        PolicyKind::Qssf => pins(
            0xf3b4_d18f_ffef_f118,
            [
                0x413a_9748_15f5_0424,
                0x3fc6_6df2_f518_1391,
                0x3fbf_0072_3ef6_1ea8,
                0x40a5_f023_4a43_57c8,
                0x40c5_1b57_89c1_8f1d,
                0x4058_86e5_e263_a400,
                0x40e7_7b11_0075_a218,
                0x4105_62a0_66c7_37e5,
                0x4051_2553_dfb0_2e40,
            ],
            Some(0x4039_5a1b_94e5_98e9),
        ),
        PolicyKind::SjfOracle => pins(
            0xedcc_0139_f923_f8ee,
            [
                0x413a_397f_efa6_88e0,
                0x3fc6_afd5_9b4b_3966,
                0x3fc2_ee65_33a4_c679,
                0x408f_e383_2a31_f2de,
                0x40c1_78ee_2bc3_dff7,
                0x405a_b886_5556_4400,
                0x40d9_3e46_3dde_a530,
                0x4105_c31e_51c1_07eb,
                0x402a_f2b8_83f0_900a,
            ],
            Some(0),
        ),
    }
}

#[test]
fn every_policy_replays_to_the_pinned_bits() {
    let (cluster, jobs) = stream();
    assert_eq!(jobs.len(), 1_955, "the stream itself moved");
    let config = SchedConfig {
        log_events: true,
        ..SchedConfig::default()
    };
    for kind in PolicyKind::ALL {
        let out = run_kind(&cluster, &jobs, kind, SEED, &config).expect("stream runs");
        assert!(
            out.cluster.mean_queueing_delay_s > 0.0,
            "{}: the stream must queue",
            kind.name()
        );
        assert!(
            out.cluster.crashes > 0,
            "{}: the stream must crash",
            kind.name()
        );
        let observed = Pins {
            events: out.events.len(),
            digest: log_digest(&out.events),
            jobs: out.cluster.jobs,
            crashes: out.cluster.crashes,
            metrics: metric_bits(&out.cluster),
            mape: out.prediction.map(|p| p.mape.to_bits()),
        };
        assert!(
            observed == expected(kind),
            "{}: the replay moved; observed {observed:#x?}",
            kind.name()
        );
    }
}
