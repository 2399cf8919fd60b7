//! Lowering: op DAGs and feature records into [`PricedStep`]s.
//!
//! Two entry points:
//!
//! - [`from_graph`] prices a real zoo graph op by op, mirroring the
//!   Sec. II-B class model *term by term* (same link, same derating,
//!   same contention factor as [`pai_core::PerfModel`]), and extracts
//!   one gradient message per weight-gradient producer — the
//!   `grad/*/wgrad` contractions and `grad/*` embedding scatters the
//!   backward pass emits.
//! - [`from_features`] synthesizes a canonical layered step for jobs
//!   that exist only as feature records (the generated population):
//!   one I/O stage, `layers` forward stages carrying ⅓ of the
//!   computation, `layers` backward stages carrying ⅔ (the usual
//!   2:1 backward:forward cost ratio), with `S_w / layers` of
//!   gradient eligible after each backward stage.
//!
//! Both lowerings make [`OverlapStrategy::Serial`] reproduce the
//! additive `Td + Tc + Tw` exactly (up to float summation order),
//! because class stream times sum to the same per-class totals the
//! closed form charges and the serial bulk transfer is priced on the
//! same media chain with no per-message latency.
//!
//! [`OverlapStrategy::Serial`]: crate::evaluate::OverlapStrategy::Serial

use pai_core::model::GPUS_PER_SERVER;
use pai_core::{Architecture, Eq1Terms, OverlapMode, PerfModel, WorkloadFeatures};
use pai_graph::{Graph, Op, OpClass, OpKind};
use pai_hw::{Bytes, HardwareConfig, LinkKind, Seconds};

use crate::evaluate::{DagStepTime, OverlapStrategy};
use crate::step::{Message, NetworkPath, PricedStep, Task};

/// Stage count of the synthetic [`from_features`] lowering: deep
/// enough that WFBP has realistic per-layer granularity, shallow
/// enough that per-message α stays visible.
pub const DEFAULT_LAYERS: usize = 32;

/// Prices one op on its Eq. 1 resource, exactly as the closed form
/// does (same contention scaling on I/O, same efficiency derating).
fn price_op(op: &Op, config: &HardwareConfig, contention: usize) -> Task {
    let kind = op.kind();
    let class = kind.class();
    let dur = match class {
        pai_graph::OpClass::Io => config
            .link(LinkKind::Pcie)
            .transfer_time(kind.pcie_bytes().scale(contention as f64)),
        pai_graph::OpClass::ComputeBound => {
            let peak = config
                .gpu()
                .peak_flops()
                .scale(config.efficiency().compute());
            kind.flops() / peak
        }
        pai_graph::OpClass::MemoryBound => config
            .link(LinkKind::HbmMemory)
            .transfer_time(kind.mem_bytes()),
    };
    Task { class, dur }
}

/// The weight-tensor volume a backward op produces a gradient for, if
/// it is a gradient producer: the `grad/*/wgrad` contraction of a
/// dense layer (its output *is* the weight gradient) or the `grad/*`
/// scatter-update of an embedding (touched rows only).
fn gradient_payload(op: &Op) -> Option<f64> {
    let name = op.name();
    if !name.starts_with("grad/") {
        return None;
    }
    match op.kind() {
        OpKind::MatMul { m, n, dtype, .. } if name.ends_with("/wgrad") => {
            Some((m * n * dtype.size_bytes()) as f64)
        }
        OpKind::Conv2d {
            in_channels,
            out_channels,
            kernel_h,
            kernel_w,
            dtype,
            ..
        } if name.ends_with("/wgrad") => {
            Some((out_channels * in_channels * kernel_h * kernel_w * dtype.size_bytes()) as f64)
        }
        OpKind::EmbeddingUpdate { ids, dim, dtype } => {
            Some((ids * dim * dtype.size_bytes()) as f64)
        }
        _ => None,
    }
}

/// Lowers a zoo graph into a priced step for `job`'s class and scale.
///
/// The graph supplies the compute stream (its topological order) and
/// the gradient-producer structure; `job` supplies the class (media
/// path, contention) and the actual synchronization volume `S_w`,
/// which is split across producers proportionally to their weight
/// sizes. A weight-carrying job whose graph has no gradient producers
/// (inference variants, hand-built graphs) degrades to one bulk
/// message after the last task.
///
/// # Panics
///
/// Panics if the graph is cyclic — run
/// [`pai_graph::passes::validate::validate_training_graph`] first;
/// the validator reports cycles and orphaned gradients as
/// diagnostics instead.
pub fn from_graph(graph: &Graph, job: &WorkloadFeatures, config: &HardwareConfig) -> PricedStep {
    let contention = job
        .arch()
        .input_contention_factor(job.cnodes(), GPUS_PER_SERVER);
    let order = graph.topo_order();
    let mut tasks = Vec::with_capacity(order.len());
    // (task index, payload weight) of each gradient producer.
    let mut producers: Vec<(usize, f64)> = Vec::new();
    for (i, &id) in order.iter().enumerate() {
        let op = graph.node(id);
        tasks.push(price_op(op, config, contention));
        if let Some(p) = gradient_payload(op) {
            producers.push((i, p));
        }
    }
    let mut messages = Vec::with_capacity(producers.len());
    let weight_bytes = job.weight_bytes();
    if !weight_bytes.is_zero() && !job.arch().weight_media().is_empty() {
        let total: f64 = producers.iter().map(|&(_, p)| p).sum();
        if total > 0.0 {
            for &(i, p) in &producers {
                messages.push(Message {
                    after_task: i,
                    bytes: weight_bytes.scale(p / total),
                });
            }
        } else if !tasks.is_empty() {
            messages.push(Message {
                after_task: tasks.len() - 1,
                bytes: weight_bytes,
            });
        }
    }
    PricedStep {
        name: graph.name().to_string(),
        tasks,
        messages,
        weight_bytes,
    }
}

/// Synthesizes a canonical layered step from a feature record alone.
///
/// `layers` is clamped to at least 1. Stage durations are chosen so
/// the class stream times equal the closed form's `Td`, compute-bound
/// and memory-bound terms (up to float summation order): forward
/// stages carry ⅓ of each computation term, backward stages ⅔, and
/// each backward stage releases `S_w / layers` of gradient.
///
/// [`StepTimeEngine`](crate::StepTimeEngine) prices this step in
/// closed form without building it; [`evaluate`](crate::evaluate())
/// over the returned step is the reference that closed form is
/// property-tested against.
pub fn from_features(job: &WorkloadFeatures, config: &HardwareConfig, layers: usize) -> PricedStep {
    let step = Layered::of(
        job,
        &PerfModel::new(*config, OverlapMode::Serialized).terms(job),
        layers,
    );
    let (fwd_compute, fwd_memory) = step.stage(1.0);
    let (bwd_compute, bwd_memory) = step.stage(2.0);
    let grad = step.grad();

    let mut tasks = Vec::with_capacity(1 + 4 * step.layers);
    tasks.push(Task {
        class: OpClass::Io,
        dur: step.io,
    });
    for _ in 0..step.layers {
        tasks.push(Task {
            class: OpClass::ComputeBound,
            dur: fwd_compute,
        });
        tasks.push(Task {
            class: OpClass::MemoryBound,
            dur: fwd_memory,
        });
    }
    let mut messages = Vec::with_capacity(step.messages());
    for _ in 0..step.layers {
        tasks.push(Task {
            class: OpClass::ComputeBound,
            dur: bwd_compute,
        });
        tasks.push(Task {
            class: OpClass::MemoryBound,
            dur: bwd_memory,
        });
        if step.sync {
            messages.push(Message {
                after_task: tasks.len() - 1,
                bytes: grad,
            });
        }
    }
    PricedStep {
        name: format!("{}x{}", job.arch(), job.cnodes()),
        tasks,
        messages,
        weight_bytes: step.weight_bytes,
    }
}

/// The uniform layered step of [`from_features`], described by its
/// class totals instead of its task list: one I/O stage, `layers`
/// identical forward stages, then `layers` identical backward stages,
/// each of which releases [`Layered::grad`] bytes of gradient.
///
/// Because every backward stage lasts the same `b` and every message
/// costs the same `c`, the FIFO link fold over this step has a closed
/// form ([`Layered::evaluate`]); [`from_features`] expands the same
/// description into tasks, so the two cannot drift apart.
pub(crate) struct Layered {
    /// Stage count `L` (≥ 1).
    layers: usize,
    /// `Td`: the I/O stage.
    io: Seconds,
    /// Compute-bound time over all stages.
    compute: Seconds,
    /// Memory-bound time over all stages.
    memory: Seconds,
    /// `S_w`: what `Serial` ships in bulk.
    weight_bytes: Bytes,
    /// Whether gradients cross a network at all: the job carries
    /// weights and its class has a weight-synchronization path.
    sync: bool,
}

impl Layered {
    /// The description of `job` at `layers` stages (clamped to ≥ 1),
    /// its class totals the `Td`, compute-bound and memory-bound terms
    /// of `terms` ([`PerfModel::terms`]).
    pub(crate) fn of(job: &WorkloadFeatures, terms: &Eq1Terms, layers: usize) -> Self {
        let weight_bytes = job.weight_bytes();
        Layered {
            layers: layers.max(1),
            io: terms.data_io,
            compute: terms.compute_bound,
            memory: terms.memory_bound,
            weight_bytes,
            sync: !weight_bytes.is_zero() && !job.arch().weight_media().is_empty(),
        }
    }

    /// Compute-bound and memory-bound duration of one stage carrying
    /// `thirds`/3 of the computation spread over `L` stages: 1 for a
    /// forward stage, 2 for a backward one.
    fn stage(&self, thirds: f64) -> (Seconds, Seconds) {
        let share = thirds / (3.0 * self.layers as f64);
        (self.compute.scale(share), self.memory.scale(share))
    }

    /// Gradient released after each backward stage: `S_w / L`.
    fn grad(&self) -> Bytes {
        self.weight_bytes.scale(1.0 / self.layers as f64)
    }

    /// Gradient messages the step carries: one per backward stage.
    fn messages(&self) -> usize {
        if self.sync {
            self.layers
        } else {
            0
        }
    }

    /// Prices the step under `strategy` in closed form, in O(1) for
    /// `Serial` and `Wfbp` and O(messages per bucket) for `FusedWfbp`.
    ///
    /// Message `j` (1-based) is ready when backward stage `j` retires,
    /// at `r_j = stream − (L − j)·b`, so ready times step by the
    /// backward-stage length `b` and every message costs the same `c`.
    /// A FIFO link fed `n` equal-cost transfers at evenly spaced ready
    /// times `R_1 ≤ … ≤ R_n` finishes at `max_i (R_i + (n − i + 1)·c)`;
    /// that is linear in `i`, so it peaks at an endpoint:
    /// `max(R_1 + n·c, R_n + c)` ([`fifo`]). `Wfbp` is that with
    /// `R = r`; `FusedWfbp` is the same recursion over its full buckets,
    /// then one tail bucket of the remaining messages, ready with the
    /// last producer. The result agrees with
    /// [`evaluate`](crate::evaluate())`(&from_features(..), ..)` to
    /// float summation order.
    pub(crate) fn evaluate(&self, path: &NetworkPath, strategy: OverlapStrategy) -> DagStepTime {
        let stream = self.io + (self.compute + self.memory);
        let (bwd_compute, bwd_memory) = self.stage(2.0);
        let stage = bwd_compute + bwd_memory;
        // Ready time of message `j`; `r(L)` is the stream's end.
        let ready = |j: usize| stream - stage.scale((self.layers - j) as f64);
        let (busy, clock, transfers) = match strategy {
            OverlapStrategy::Serial => {
                let bulk = path.bulk_time(self.weight_bytes);
                (bulk, stream + bulk, usize::from(!bulk.is_zero()))
            }
            _ if !self.sync => (Seconds::ZERO, Seconds::ZERO, 0),
            OverlapStrategy::Wfbp => {
                let cost = path.message_time(self.grad());
                (
                    cost.scale(self.layers as f64),
                    fifo(ready(1), stream, self.layers, cost),
                    self.layers,
                )
            }
            OverlapStrategy::FusedWfbp { threshold } => {
                // Messages per full bucket, counted by the fold's own
                // accumulation so float rounding flushes where it does.
                let grad = self.grad();
                let (mut bucket, mut per) = (Bytes::ZERO, 0);
                while per < self.layers {
                    bucket += grad;
                    per += 1;
                    if bucket >= threshold {
                        break;
                    }
                }
                let (full, tail) = (self.layers / per, self.layers % per);
                let cost = path.message_time(bucket);
                let mut busy = cost.scale(full as f64);
                let mut clock = fifo(ready(per), ready(full * per), full, cost);
                if tail > 0 {
                    let tail_cost = path.message_time(grad.scale(tail as f64));
                    clock = clock.max(stream) + tail_cost;
                    busy += tail_cost;
                }
                (busy, clock, full + usize::from(tail > 0))
            }
        };
        let total = stream.max(clock);
        DagStepTime {
            data_io: self.io,
            compute_bound: self.compute,
            memory_bound: self.memory,
            comm_busy: busy,
            comm_exposed: total - stream,
            total,
            messages: self.messages(),
            transfers,
        }
    }
}

/// When a FIFO link drains `n ≥ 1` transfers of equal `cost` whose
/// ready times step evenly from `first` to `last`.
fn fifo(first: Seconds, last: Seconds, n: usize, cost: Seconds) -> Seconds {
    (first + cost.scale(n as f64)).max(last + cost)
}

/// Builds the feature record of a graph as the closed form would see
/// it: the graph's own aggregate stats plus the caller's class, scale
/// and synchronization volume. The bridge both the Serial≡additive
/// property tests and the `overlap` experiment price against.
pub fn job_of_graph(
    graph: &Graph,
    arch: Architecture,
    cnodes: usize,
    batch_size: usize,
    weight_bytes: Bytes,
) -> WorkloadFeatures {
    let stats = graph.stats();
    WorkloadFeatures::builder(arch)
        .cnodes(cnodes)
        .batch_size(batch_size)
        .input_bytes(stats.input_bytes)
        .weight_bytes(weight_bytes)
        .flops(stats.flops)
        .mem_access_bytes(stats.mem_access_memory_bound)
        .build()
}

/// Relative difference helper used by the agreement tests and the
/// repro experiment: `|a − b| / max(|a|, |b|, ε)`.
pub fn rel_diff(a: Seconds, b: Seconds) -> f64 {
    let (a, b) = (a.as_f64(), b.as_f64());
    (a - b).abs() / a.abs().max(b.abs()).max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{StepTimeBackend, StepTimeEngine};
    use crate::evaluate::evaluate;
    use pai_core::PerfModel;
    use pai_graph::zoo;
    use pai_hw::Flops;
    use proptest::prelude::*;

    /// `10^e` for `e` drawn uniformly from `exponents`: magnitudes
    /// spread evenly over decades.
    fn decades(exponents: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        exponents.prop_map(|e| 10f64.powf(e))
    }

    /// A feature record of any class, with up to 10 GB of weights
    /// (zero a quarter of the time, uniform a quarter, log-uniform from
    /// 1 B the rest) and compute from negligible to far beyond what
    /// hides that traffic.
    fn any_job() -> impl Strategy<Value = WorkloadFeatures> {
        (
            0..Architecture::ALL.len(),
            2..=64usize,
            prop_oneof![
                Just(0.0),
                0.0..=10e9,
                decades(0.0..=10.0),
                decades(0.0..=10.0)
            ],
            decades(0.0..=10.0),
            decades(6.0..=16.0),
            decades(3.0..=12.0),
        )
            .prop_map(|(arch, cnodes, weight, input, flops, mem)| {
                let arch = Architecture::ALL[arch];
                let cnodes = if arch == Architecture::OneWorkerOneGpu {
                    1
                } else {
                    cnodes
                };
                WorkloadFeatures::builder(arch)
                    .cnodes(cnodes)
                    .input_bytes(Bytes::from_f64(input))
                    .weight_bytes(Bytes::from_f64(weight))
                    .flops(Flops::from_f64(flops))
                    .mem_access_bytes(Bytes::from_f64(mem))
                    .build()
            })
    }

    /// A fusion threshold relative to `job` at `layers`, for the
    /// `(regime, u, n)` draw: below one message, between one message
    /// and `S_w`, above `S_w`, or exactly `n` messages, where float
    /// accumulation decides whether the `n`-th message fills the bucket.
    fn threshold(job: &WorkloadFeatures, layers: usize, (regime, u, n): (u8, f64, usize)) -> Bytes {
        let weight = job.weight_bytes();
        let grad = weight.scale(1.0 / layers as f64);
        match regime {
            0 => grad.scale(u),
            1 => grad + (weight - grad).scale(u),
            2 => weight.scale(1.0 + u),
            _ => grad.scale(n.min(layers) as f64),
        }
    }

    /// The engine's closed form against the reference fold over the
    /// expanded [`from_features`] step, under all three strategies.
    fn closed_form_matches_the_fold(
        job: &WorkloadFeatures,
        layers: usize,
        threshold: Bytes,
    ) -> Result<(), TestCaseError> {
        let model = PerfModel::paper_default();
        let path = NetworkPath::for_arch(model.config(), job.arch());
        let step = from_features(job, model.config(), layers);
        for strategy in [
            OverlapStrategy::Serial,
            OverlapStrategy::Wfbp,
            OverlapStrategy::FusedWfbp { threshold },
        ] {
            let closed = Layered::of(job, &model.terms(job), layers).evaluate(&path, strategy);
            let fold = evaluate(&step, &path, strategy);
            let engine = StepTimeEngine::new(model, StepTimeBackend::Dag(strategy));
            prop_assert_eq!(
                engine.component_times(job),
                Layered::of(job, &model.terms(job), DEFAULT_LAYERS)
                    .evaluate(&path, strategy)
                    .component_times()
            );
            prop_assert_eq!(closed.messages, fold.messages, "{:?}", strategy);
            prop_assert_eq!(closed.transfers, fold.transfers, "{:?}", strategy);
            for (term, a, b) in [
                ("total", closed.total, fold.total),
                ("data_io", closed.data_io, fold.data_io),
                ("compute_bound", closed.compute_bound, fold.compute_bound),
                ("memory_bound", closed.memory_bound, fold.memory_bound),
                ("comm_busy", closed.comm_busy, fold.comm_busy),
            ] {
                prop_assert!(
                    rel_diff(a, b) < 1e-9,
                    "{strategy:?} {term}: closed {a:?} vs fold {b:?}"
                );
            }
            let exposed = (closed.comm_exposed.as_f64() - fold.comm_exposed.as_f64()).abs();
            prop_assert!(
                exposed <= 1e-9 * fold.total.as_f64(),
                "{strategy:?} comm_exposed: closed {:?} vs fold {:?}",
                closed.comm_exposed,
                fold.comm_exposed
            );
        }
        Ok(())
    }

    proptest! {
        /// Every class, 1–64 stages, 0–10 GB of weights, and fusion
        /// thresholds on both sides of one message and of `S_w`.
        #[test]
        fn closed_form_pricing_matches_the_lowered_fold(
            job in any_job(),
            layers in 1..=64usize,
            fusion in (0..4u8, 0.0..1.0f64, 1..=64usize),
        ) {
            closed_form_matches_the_fold(&job, layers, threshold(&job, layers, fusion))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        /// The same property over 20 000 cases; run with
        /// `cargo test --release -p pai-dag -- --ignored`.
        #[test]
        #[ignore = "20 000 cases: run in release with --ignored"]
        fn closed_form_pricing_matches_the_lowered_fold_deep(
            job in any_job(),
            layers in 1..=64usize,
            fusion in (0..4u8, 0.0..1.0f64, 1..=64usize),
        ) {
            closed_form_matches_the_fold(&job, layers, threshold(&job, layers, fusion))?;
        }
    }

    #[test]
    fn synthetic_lowering_class_sums_match_the_closed_form() {
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(16)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(10.0))
            .weight_bytes(Bytes::from_gb(1.0))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(Bytes::from_gb(20.0))
            .build();
        let step = from_features(&job, m.config(), DEFAULT_LAYERS);
        let ct = m.component_times(&job);
        assert!(rel_diff(step.class_time(pai_graph::OpClass::Io), ct.data_io) < 1e-12);
        assert!(
            rel_diff(
                step.class_time(pai_graph::OpClass::ComputeBound),
                ct.compute_bound
            ) < 1e-12
        );
        assert!(
            rel_diff(
                step.class_time(pai_graph::OpClass::MemoryBound),
                ct.memory_bound
            ) < 1e-12
        );
        assert_eq!(step.messages.len(), DEFAULT_LAYERS);
        let sent: Bytes = step.messages.iter().map(|msg| msg.bytes).sum();
        assert!((sent.as_f64() - job.weight_bytes().as_f64()).abs() < 1.0);
    }

    #[test]
    fn local_jobs_synthesize_no_messages() {
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .weight_bytes(Bytes::from_gb(1.0))
            .flops(Flops::from_tera(1.0))
            .build();
        let step = from_features(&job, m.config(), 8);
        assert!(step.messages.is_empty());
    }

    #[test]
    fn graph_lowering_finds_gradient_producers_on_every_training_model() {
        let m = PerfModel::paper_default();
        for spec in zoo::all() {
            let cnodes = if spec.graph().name() == "speech" {
                1
            } else {
                8
            };
            let arch = if cnodes == 1 {
                Architecture::OneWorkerOneGpu
            } else {
                Architecture::AllReduceLocal
            };
            let job = job_of_graph(
                spec.graph(),
                arch,
                cnodes,
                spec.batch_size(),
                Bytes::from_mb(100.0),
            );
            let step = from_graph(spec.graph(), &job, m.config());
            assert_eq!(step.tasks.len(), spec.graph().len());
            if cnodes > 1 {
                assert!(
                    step.messages.len() > 1,
                    "{}: wgrad producers expected",
                    spec.name()
                );
                let sent: f64 = step.messages.iter().map(|msg| msg.bytes.as_f64()).sum();
                assert!(
                    (sent - job.weight_bytes().as_f64()).abs() < 1.0,
                    "{}: shares must sum to S_w",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn producerless_graph_degrades_to_one_bulk_message() {
        let m = PerfModel::paper_default();
        let serve = zoo::inference::inference_variant(&zoo::resnet50());
        let job = job_of_graph(
            serve.graph(),
            Architecture::AllReduceLocal,
            8,
            serve.batch_size(),
            Bytes::from_mb(100.0),
        );
        let step = from_graph(serve.graph(), &job, m.config());
        assert_eq!(step.messages.len(), 1);
        assert_eq!(step.messages[0].after_task, step.tasks.len() - 1);
        assert_eq!(step.messages[0].bytes, Bytes::from_mb(100.0));
    }
}
