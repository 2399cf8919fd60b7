//! The priced step: what the critical-path evaluator actually runs on.
//!
//! A [`PricedStep`] is an op DAG lowered onto two resources — one
//! serialized **compute stream** (the GPU executes the topological
//! order; the paper's framework never models intra-replica kernel
//! parallelism) and one **network path** (the Table II media chain the
//! gradient traffic crosses). Tasks carry durations already priced by
//! the Sec. II-B per-class cost model; messages carry the gradient
//! bytes that become eligible the moment their producing backward op
//! retires — the wait-free-backprop dependency structure.

use pai_collectives::latency::Latency;
use pai_core::Architecture;
use pai_graph::OpClass;
use pai_hw::{Bytes, HardwareConfig, LinkKind, LinkModel, Seconds};
use serde::{Deserialize, Serialize};

/// One op on the serialized compute stream, priced by its Eq. 1 class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// The Eq. 1 resource class the duration was priced on.
    pub class: OpClass,
    /// Priced duration on the compute stream.
    pub dur: Seconds,
}

/// One gradient message: `bytes` become eligible for the network the
/// moment task `after_task` (its producing backward op) retires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Index into [`PricedStep::tasks`] of the producing op.
    pub after_task: usize,
    /// Gradient payload.
    pub bytes: Bytes,
}

/// A step lowered onto the two-resource machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PricedStep {
    /// Graph or job label, carried through to reports.
    pub name: String,
    /// Compute-stream tasks in execution (topological) order.
    pub tasks: Vec<Task>,
    /// Gradient messages, in eligibility order of their producers.
    pub messages: Vec<Message>,
    /// Total weight/gradient volume `S_w` — the bulk payload the
    /// `Serial` strategy ships after the stream drains.
    pub weight_bytes: Bytes,
}

impl PricedStep {
    /// Stream time of every task of `class`.
    pub fn class_time(&self, class: OpClass) -> Seconds {
        self.tasks
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.dur)
            .sum()
    }

    /// Total compute-stream length (all tasks back to back).
    pub fn stream_length(&self) -> Seconds {
        self.tasks.iter().map(|t| t.dur).sum()
    }
}

/// The Table II media chain gradient traffic crosses, with the α–β
/// per-hop latency each message pays (Sec. II of the fusion study:
/// every message pays every hop's fixed cost once).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPath {
    hops: Vec<(LinkModel, Latency)>,
}

/// The per-hop fixed latency the DAG evaluator charges each message on
/// a medium (the additive `S/B` model charges none).
pub fn hop_latency(kind: LinkKind) -> Latency {
    match kind {
        LinkKind::Pcie => Latency::pcie_default(),
        LinkKind::NvLink => Latency::nvlink_default(),
        LinkKind::Ethernet => Latency::ethernet_default(),
        // On-device memory is not a message medium; no per-message cost.
        LinkKind::HbmMemory => Latency::zero(),
    }
}

impl NetworkPath {
    /// The path for a job class under `config`: one hop per Table II
    /// weight medium, in media order.
    pub fn for_arch(config: &HardwareConfig, arch: Architecture) -> Self {
        NetworkPath {
            hops: arch
                .weight_media()
                .iter()
                .map(|&kind| (config.link(kind), hop_latency(kind)))
                .collect(),
        }
    }

    /// A path over explicit hops (tests, what-ifs).
    pub fn new(hops: Vec<(LinkModel, Latency)>) -> Self {
        NetworkPath { hops }
    }

    /// True for classes that synchronize nothing (1w1g).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Hops in media order.
    pub fn hops(&self) -> &[(LinkModel, Latency)] {
        &self.hops
    }

    /// One message end to end: `Σ_hops (α + S/B_eff)` — the α–β cost
    /// wait-free backprop pays per gradient push.
    pub fn message_time(&self, bytes: Bytes) -> Seconds {
        self.hops
            .iter()
            .map(|(link, lat)| pai_collectives::latency::message_time(bytes, link, *lat))
            .sum()
    }

    /// The bulk bandwidth-only cost: `Σ_hops S/B_eff`, no per-message
    /// latency — exactly the additive model's `Tw`, term by term, in
    /// the same media order.
    pub fn bulk_time(&self, bytes: Bytes) -> Seconds {
        self.hops
            .iter()
            .map(|(link, _)| link.transfer_time(bytes))
            .sum()
    }

    /// Σ of per-hop α — the fixed cost one message pays regardless of
    /// size; the quantity tensor fusion amortizes.
    pub fn latency_per_message(&self) -> Seconds {
        self.hops.iter().map(|(_, lat)| lat.alpha()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_hw::HardwareConfig;

    fn step() -> PricedStep {
        PricedStep {
            name: "t".into(),
            tasks: vec![
                Task {
                    class: OpClass::Io,
                    dur: Seconds::from_millis(1.0),
                },
                Task {
                    class: OpClass::ComputeBound,
                    dur: Seconds::from_millis(4.0),
                },
                Task {
                    class: OpClass::MemoryBound,
                    dur: Seconds::from_millis(2.0),
                },
            ],
            messages: vec![],
            weight_bytes: Bytes::ZERO,
        }
    }

    #[test]
    fn class_times_partition_the_stream() {
        let s = step();
        let total = s.class_time(OpClass::Io)
            + s.class_time(OpClass::ComputeBound)
            + s.class_time(OpClass::MemoryBound);
        assert!((total.as_f64() - s.stream_length().as_f64()).abs() < 1e-15);
    }

    #[test]
    fn ps_path_is_ethernet_then_pcie() {
        let cfg = HardwareConfig::pai_default();
        let path = NetworkPath::for_arch(&cfg, Architecture::PsWorker);
        assert_eq!(path.hops().len(), 2);
        assert_eq!(path.hops()[0].0.kind(), LinkKind::Ethernet);
        assert_eq!(path.hops()[1].0.kind(), LinkKind::Pcie);
        // Bulk time is the Eq. 3 numerator.
        let bulk = path.bulk_time(Bytes::from_gb(1.0)).as_f64();
        let expected = 1e9 / (3.125e9 * 0.7) + 1e9 / (10e9 * 0.7);
        assert!((bulk - expected).abs() < 1e-9);
        // A message additionally pays both hop latencies.
        let msg = path.message_time(Bytes::from_gb(1.0)).as_f64();
        assert!((msg - bulk - 27e-6).abs() < 1e-12);
    }

    #[test]
    fn one_w_one_g_path_is_empty_and_free() {
        let cfg = HardwareConfig::pai_default();
        let path = NetworkPath::for_arch(&cfg, Architecture::OneWorkerOneGpu);
        assert!(path.is_empty());
        assert!(path.message_time(Bytes::from_gb(5.0)).is_zero());
        assert!(path.bulk_time(Bytes::from_gb(5.0)).is_zero());
    }
}
