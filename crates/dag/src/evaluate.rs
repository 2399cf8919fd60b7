//! The two-resource critical-path evaluator.
//!
//! One serialized compute stream, one serialized network path, and a
//! pluggable [`OverlapStrategy`] deciding when gradient bytes may
//! start crossing the wire:
//!
//! - [`OverlapStrategy::Serial`] — nothing moves until the stream
//!   drains, then the whole weight volume ships as one bulk transfer
//!   with no per-message latency. This *is* the paper's additive
//!   `Td + Tc + Tw`, reproduced from the DAG instead of the closed
//!   form (the agreement is property-tested on every zoo graph).
//! - [`OverlapStrategy::Wfbp`] — wait-free backprop: each gradient
//!   message becomes eligible the moment its producing backward op
//!   retires, and the network drains them FIFO while the stream keeps
//!   computing. Each message pays the full α–β path cost.
//! - [`OverlapStrategy::FusedWfbp`] — WFBP plus greedy size-thresholded
//!   tensor fusion: consecutive eligible messages accumulate into a
//!   bucket until it reaches the threshold, so the per-message α is
//!   paid once per bucket. A bucket is eligible when its *last*
//!   constituent's producer retires.

use std::borrow::Cow;

use pai_graph::OpClass;
use pai_hw::{Bytes, Seconds};
use serde::{Deserialize, Serialize};

use crate::step::{Message, NetworkPath, PricedStep};

/// When may gradient bytes start crossing the network?
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OverlapStrategy {
    /// No overlap: bulk-synchronous, the additive model's assumption.
    Serial,
    /// Wait-free backprop: per-layer messages, eager, FIFO.
    Wfbp,
    /// WFBP with greedy tensor fusion into `threshold`-sized buckets.
    FusedWfbp {
        /// Minimum bucket payload before it flushes (the last bucket
        /// flushes regardless).
        threshold: Bytes,
    },
}

/// The fusion threshold real frameworks default to (Horovod's
/// 64 MB fusion buffer, halved — small enough that every zoo model
/// forms multiple buckets, large enough to amortize α).
pub const DEFAULT_FUSION_THRESHOLD_MB: f64 = 32.0;

impl OverlapStrategy {
    /// [`OverlapStrategy::FusedWfbp`] at the default threshold.
    pub fn fused_default() -> Self {
        OverlapStrategy::FusedWfbp {
            threshold: Bytes::from_mb(DEFAULT_FUSION_THRESHOLD_MB),
        }
    }

    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match self {
            OverlapStrategy::Serial => "serial-dag",
            OverlapStrategy::Wfbp => "wfbp",
            OverlapStrategy::FusedWfbp { .. } => "fused-wfbp",
        }
    }
}

/// The evaluator's verdict on one step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagStepTime {
    /// Stream time of I/O-class tasks (`Td`).
    pub data_io: Seconds,
    /// Stream time of compute-bound tasks.
    pub compute_bound: Seconds,
    /// Stream time of memory-bound tasks.
    pub memory_bound: Seconds,
    /// Network busy time: what the wire actually carries (bulk
    /// transfer under `Serial`, Σ per-message α–β costs otherwise).
    pub comm_busy: Seconds,
    /// Communication time *not* hidden behind compute — the exposed
    /// remainder the step actually pays: `total − stream_length`.
    pub comm_exposed: Seconds,
    /// Step time: when both resources go idle.
    pub total: Seconds,
    /// Gradient messages the strategy saw.
    pub messages: usize,
    /// Network transfers actually issued (== `messages` without
    /// fusion; ≤ `messages` with).
    pub transfers: usize,
}

impl DagStepTime {
    /// Compute-stream length (`Td + Tc`): everything but communication.
    pub fn stream_length(&self) -> Seconds {
        self.data_io + self.compute_bound + self.memory_bound
    }

    /// The coherent [`pai_core::ComponentTimes`] decomposition of this
    /// verdict: the three stream classes keep their Eq. 1 meaning and
    /// `weight_traffic` becomes the *exposed* communication, so the
    /// parts still sum to the total under any overlap strategy.
    pub fn component_times(&self) -> pai_core::ComponentTimes {
        pai_core::ComponentTimes {
            data_io: self.data_io,
            compute_bound: self.compute_bound,
            memory_bound: self.memory_bound,
            weight_traffic: self.comm_exposed,
            total: self.total,
        }
    }
}

/// Prices one step under `strategy`.
///
/// Deterministic: a pure fold over the step's task and message order,
/// so results are bit-identical at any thread count however callers
/// fan jobs out. Messages go out in eligibility order: by producing
/// task, then by position. A message whose producer index lies past
/// the last task becomes eligible when the stream drains.
pub fn evaluate(step: &PricedStep, path: &NetworkPath, strategy: OverlapStrategy) -> DagStepTime {
    let messages = by_producer(&step.messages);
    // The FIFO link: when it finishes its last transfer, its busy
    // time, and its transfer count.
    let (mut clock, mut busy, mut sent) = (Seconds::ZERO, Seconds::ZERO, 0usize);
    // The fused bucket: when its latest message was ready, and the
    // bytes waiting to flush.
    let mut bucket = (Seconds::ZERO, Bytes::ZERO);
    let mut left = messages.len();
    // Hands the link one message that became eligible at `ready`.
    let mut offer = |ready: Seconds, bytes: Bytes| {
        left -= 1;
        let (ready, bytes) = match strategy {
            // Serial ships the weight volume in bulk instead.
            OverlapStrategy::Serial => return,
            OverlapStrategy::Wfbp => (ready, bytes),
            OverlapStrategy::FusedWfbp { threshold } => {
                // The bucket becomes eligible when its latest
                // constituent's producer retires.
                bucket = (bucket.0.max(ready), bucket.1 + bytes);
                if bucket.1 >= threshold || left == 0 {
                    std::mem::take(&mut bucket)
                } else {
                    return;
                }
            }
        };
        let cost = path.message_time(bytes);
        clock = clock.max(ready) + cost;
        busy += cost;
        sent += 1;
    };

    let (mut data_io, mut compute_bound, mut memory_bound) =
        (Seconds::ZERO, Seconds::ZERO, Seconds::ZERO);
    // Finish time of the latest task: the eligibility clock.
    let mut stream = Seconds::ZERO;
    let mut pending = messages.iter().peekable();
    for (i, task) in step.tasks.iter().enumerate() {
        stream += task.dur;
        match task.class {
            OpClass::Io => data_io += task.dur,
            OpClass::ComputeBound => compute_bound += task.dur,
            OpClass::MemoryBound => memory_bound += task.dur,
        }
        while let Some(m) = pending.next_if(|m| m.after_task == i) {
            offer(stream, m.bytes);
        }
    }
    for m in pending {
        offer(stream, m.bytes);
    }

    let (comm_busy, net_end, transfers) = match strategy {
        OverlapStrategy::Serial => {
            // Bulk-synchronous: the whole volume ships after the stream
            // drains, at pure bandwidth cost — the additive model.
            let bulk = path.bulk_time(step.weight_bytes);
            (bulk, stream + bulk, usize::from(!bulk.is_zero()))
        }
        _ => (busy, stream.max(clock), sent),
    };

    DagStepTime {
        data_io,
        compute_bound,
        memory_bound,
        comm_busy,
        comm_exposed: net_end - stream,
        total: net_end,
        messages: step.messages.len(),
        transfers,
    }
}

/// `messages` in eligibility order: borrowed when already sorted by
/// producer (both lowerings emit them so), otherwise a stably sorted
/// copy, so position breaks ties between messages of one producer.
fn by_producer(messages: &[Message]) -> Cow<'_, [Message]> {
    if messages.is_sorted_by_key(|m| m.after_task) {
        Cow::Borrowed(messages)
    } else {
        let mut sorted = messages.to_vec();
        sorted.sort_by_key(|m| m.after_task);
        Cow::Owned(sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::Task;
    use pai_collectives::latency::Latency;
    use pai_hw::{Bandwidth, LinkKind, LinkModel};

    /// 1 GB/s effective, 1 ms per-message latency: round numbers.
    fn path() -> NetworkPath {
        NetworkPath::new(vec![(
            LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gb_per_sec(1.0), 1.0),
            Latency::new(Seconds::from_millis(1.0)),
        )])
    }

    /// Two backward layers, 10 ms each; 50 MB of gradient after each.
    fn step() -> PricedStep {
        PricedStep {
            name: "toy".into(),
            tasks: vec![
                Task {
                    class: OpClass::ComputeBound,
                    dur: Seconds::from_millis(10.0),
                },
                Task {
                    class: OpClass::ComputeBound,
                    dur: Seconds::from_millis(10.0),
                },
            ],
            messages: vec![
                Message {
                    after_task: 0,
                    bytes: Bytes::from_mb(50.0),
                },
                Message {
                    after_task: 1,
                    bytes: Bytes::from_mb(50.0),
                },
            ],
            weight_bytes: Bytes::from_mb(100.0),
        }
    }

    #[test]
    fn serial_is_stream_plus_bulk() {
        let v = evaluate(&step(), &path(), OverlapStrategy::Serial);
        // 20 ms stream + 100 ms bulk (no α).
        assert!((v.total.as_millis() - 120.0).abs() < 1e-9);
        assert!((v.comm_exposed.as_millis() - 100.0).abs() < 1e-9);
        assert_eq!(v.transfers, 1);
    }

    #[test]
    fn wfbp_hides_comm_behind_backward() {
        let v = evaluate(&step(), &path(), OverlapStrategy::Wfbp);
        // msg0 ready at 10 ms, done at 10+1+50 = 61; msg1 ready at 20,
        // net busy until 61, done at 61+51 = 112 > compute 20.
        assert!((v.total.as_millis() - 112.0).abs() < 1e-9);
        assert!((v.comm_exposed.as_millis() - 92.0).abs() < 1e-9);
        assert_eq!(v.transfers, 2);
        let serial = evaluate(&step(), &path(), OverlapStrategy::Serial);
        assert!(v.total < serial.total);
    }

    #[test]
    fn fusion_amortizes_latency_when_bucket_spans_both() {
        let v = evaluate(
            &step(),
            &path(),
            OverlapStrategy::FusedWfbp {
                threshold: Bytes::from_mb(80.0),
            },
        );
        // Bucket of 100 MB ready at 20 ms: 20+1+100 = 121? No: fused
        // pays α once but waits for the last producer — 20 + 101 = 121.
        // Worse than WFBP here (toy numbers make α tiny vs the wait),
        // but still one transfer.
        assert_eq!(v.transfers, 1);
        assert!((v.total.as_millis() - 121.0).abs() < 1e-9);
    }

    #[test]
    fn fusion_wins_when_latency_dominates() {
        // 1000 tiny messages, huge α: fusion collapses 1000 α into 1.
        let tasks: Vec<Task> = (0..1000)
            .map(|_| Task {
                class: OpClass::ComputeBound,
                dur: Seconds::from_micros(1.0),
            })
            .collect();
        let messages: Vec<Message> = (0..1000)
            .map(|i| Message {
                after_task: i,
                bytes: Bytes::from_kb(1.0),
            })
            .collect();
        let s = PricedStep {
            name: "tiny".into(),
            tasks,
            messages,
            weight_bytes: Bytes::from_mb(1.0),
        };
        let p = path();
        let wfbp = evaluate(&s, &p, OverlapStrategy::Wfbp);
        let fused = evaluate(
            &s,
            &p,
            OverlapStrategy::FusedWfbp {
                threshold: Bytes::from_mb(10.0),
            },
        );
        assert_eq!(fused.transfers, 1);
        assert!(fused.total.as_f64() < wfbp.total.as_f64() / 100.0);
    }

    #[test]
    fn no_messages_means_pure_compute_under_every_strategy() {
        let s = PricedStep {
            name: "local".into(),
            tasks: vec![Task {
                class: OpClass::MemoryBound,
                dur: Seconds::from_millis(3.0),
            }],
            messages: vec![],
            weight_bytes: Bytes::ZERO,
        };
        let p = path();
        for strat in [
            OverlapStrategy::Serial,
            OverlapStrategy::Wfbp,
            OverlapStrategy::fused_default(),
        ] {
            let v = evaluate(&s, &p, strat);
            assert!((v.total.as_millis() - 3.0).abs() < 1e-12, "{strat:?}");
            assert!(v.comm_exposed.is_zero());
            assert_eq!(v.transfers, 0);
        }
    }

    #[test]
    fn component_times_decomposition_is_coherent() {
        let v = evaluate(&step(), &path(), OverlapStrategy::Wfbp);
        let ct = v.component_times();
        let sum = ct.data_io + ct.compute_bound + ct.memory_bound + ct.weight_traffic;
        assert!((sum.as_f64() - ct.total.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn a_producer_past_the_last_task_is_ready_when_the_stream_drains() {
        // One 10 ms task; the message names task 5, which does not exist.
        let s = PricedStep {
            name: "dangling".into(),
            tasks: vec![Task {
                class: OpClass::ComputeBound,
                dur: Seconds::from_millis(10.0),
            }],
            messages: vec![Message {
                after_task: 5,
                bytes: Bytes::from_mb(50.0),
            }],
            weight_bytes: Bytes::from_mb(50.0),
        };
        let p = path();
        let serial = evaluate(&s, &p, OverlapStrategy::Serial);
        assert!((serial.total.as_millis() - 60.0).abs() < 1e-9);
        for strat in [OverlapStrategy::Wfbp, OverlapStrategy::fused_default()] {
            let v = evaluate(&s, &p, strat);
            // Eligible at 10 ms, then 1 + 50 ms on the wire.
            assert!(
                (v.total.as_millis() - 61.0).abs() < 1e-9,
                "{strat:?}: {}",
                v.total
            );
            assert_eq!(v.transfers, 1);
        }
    }

    #[test]
    fn message_order_is_by_producer_not_vec_position() {
        let mut s = step();
        s.messages.reverse(); // scrambled input order
        let v = evaluate(&s, &path(), OverlapStrategy::Wfbp);
        let w = evaluate(&step(), &path(), OverlapStrategy::Wfbp);
        assert_eq!(v.total.as_f64().to_bits(), w.total.as_f64().to_bits());
    }
}
