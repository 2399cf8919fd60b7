//! Executes one training step op-by-op on the simulated machine.

use pai_collectives::{CommPlan, Transfer};
use pai_faults::FaultInjector;
use pai_graph::{Graph, OpClass, OpKind};
use pai_hw::{LinkKind, Seconds};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::measure::{FaultAttribution, OpProfile, StepMeasurement};

/// Simulates training steps of a graph + communication plan.
///
/// # Examples
///
/// ```
/// use pai_sim::{SimConfig, StepSimulator};
/// use pai_collectives::{CommPlan, Transfer};
/// use pai_graph::op::matmul;
/// use pai_graph::{Graph, Op};
/// use pai_hw::{Bytes, LinkKind};
///
/// let mut g = Graph::new("toy");
/// g.add(Op::new("fc", matmul(1024, 1024, 1024)));
/// let mut comm = CommPlan::new();
/// comm.push(Transfer::new("sync", LinkKind::NvLink, Bytes::from_mb(100.0)));
/// let m = StepSimulator::new(SimConfig::testbed()).run(&g, &comm, 1)?;
/// assert!(m.comm_total().as_f64() > 0.0);
/// # Ok::<(), pai_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StepSimulator {
    config: SimConfig,
}

impl StepSimulator {
    /// Creates a simulator.
    pub fn new(config: SimConfig) -> Self {
        StepSimulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Pure kernel time of one op under the configured hardware.
    ///
    /// Times follow the op's resource class, mirroring both Eq. 1's
    /// convention and the per-class semantics of the Table VI measured
    /// efficiencies (which report achieved TOPS for compute-bound ops
    /// and achieved bandwidth for memory-bound ones): compute-bound
    /// kernels run at the (Tensor-Core or FP32) arithmetic rate,
    /// memory-bound kernels at the memory-system rate.
    pub fn kernel_time(&self, kind: &OpKind) -> Seconds {
        let hw = self.config.hardware();
        let eff = hw.efficiency();
        match kind.class() {
            OpClass::ComputeBound => {
                let rate = if kind.uses_tensor_core() {
                    hw.gpu()
                        .tensor_core_flops()
                        .scale(self.config.tensor_core_efficiency())
                } else {
                    hw.gpu().peak_flops().scale(eff.compute())
                };
                kind.flops() / rate
            }
            OpClass::MemoryBound => hw.link(LinkKind::HbmMemory).transfer_time(kind.mem_bytes()),
            OpClass::Io => Seconds::ZERO,
        }
    }

    /// Runs one training step, strictly phased: input → compute →
    /// communication (the paper's non-overlap assumption; `pai-dag`
    /// prices overlapped steps). The first transfer waits for every
    /// sink op, so communication starts only once the graph drains.
    ///
    /// `pcie_contention` is the number of replicas sharing this
    /// server's PCIe complex for input loading (1 for PS workers and
    /// 1w1g, the local GPU count for 1wng/AllReduce placements). It
    /// scales each input load's volume. Only this entry point keeps
    /// per-op profiles.
    ///
    /// Returns [`SimError::ZeroContention`] if `pcie_contention` is
    /// zero.
    pub fn run(
        &self,
        graph: &Graph,
        comm: &CommPlan,
        pcie_contention: usize,
    ) -> Result<StepMeasurement, SimError> {
        if pcie_contention == 0 {
            return Err(SimError::ZeroContention);
        }
        self.lower(graph, comm, None, pcie_contention)
    }

    /// Simulates one synchronous step of a replica group in lockstep on
    /// one server: each replica owns a GPU and its NVLink/Ethernet
    /// ports (ring collectives use dedicated per-rank links), but all
    /// replicas share the server's PCIe root complex for input loading,
    /// so the input-I/O dilation the paper describes in Sec. III-C1
    /// ("competition for PCIe bandwidth") *emerges* from the shared
    /// resource; the reported `data_io` is the PCIe busy window.
    ///
    /// The group runs under an injected fault realization, and a
    /// [`pai_faults::FaultPlan::healthy`] plan injects nothing.
    /// Per-replica compute dilation (stragglers + jitter) and
    /// communication dilation (degraded NICs) stretch that replica's
    /// resources, and failed PS RPCs add retry backoff on its port. The step completes when the slowest
    /// replica does — exactly the sync-barrier semantics the fault
    /// model aggregates by.
    ///
    /// The replica count is the injector's; the reported components
    /// are the *slowest* replica's (it defines the barrier), and
    /// `faults` attributes the extra time to straggling, NIC
    /// degradation, and retries. Crash recovery is charged by
    /// [`StepSimulator::run_faulted`], not here.
    pub fn run_replicas_faulted(
        &self,
        graph: &Graph,
        comm: &CommPlan,
        injector: &FaultInjector,
        step: usize,
    ) -> Result<StepMeasurement, SimError> {
        self.lower(graph, comm, Some((injector, step)), 1)
    }

    /// The one lowering behind both entry points: without `faults` it
    /// is [`StepSimulator::run`] (one replica, per-op profiles kept),
    /// with them a group of the injector's replicas (whose plan
    /// validation rejects zero) and no profiles. Each replica gets a
    /// GPU lane and a port; all share one PCIe lane, on which an input
    /// load moves `input_scale` times its bytes. A replica's ops run in
    /// topological order, each once its predecessors have finished and
    /// its lane is free; its transfers follow in plan order on its
    /// port, the first one waiting for the whole graph to drain.
    fn lower(
        &self,
        graph: &Graph,
        comm: &CommPlan,
        faults: Option<(&FaultInjector, usize)>,
        input_scale: usize,
    ) -> Result<StepMeasurement, SimError> {
        let replicas = faults.map_or(1, |(inj, _)| inj.replicas());
        let keep_profiles = faults.is_none();
        let hw = self.config.hardware();
        let launch_gap = self.config.kernel_launch_overhead();
        let transfer_time = |t: &Transfer| hw.link(t.link).transfer_time(t.bytes);

        // Per-replica fault realization (all identity when healthy).
        let compute_dilation: Vec<f64> = (0..replicas)
            .map(|r| faults.map_or(1.0, |(inj, step)| inj.compute_dilation(r, step)))
            .collect();
        let comm_dilation: Vec<f64> = (0..replicas)
            .map(|r| faults.map_or(1.0, |(inj, _)| inj.comm_multiplier(r)))
            .collect();
        let retry_delay: Vec<Seconds> = (0..replicas)
            .map(|r| faults.map_or(Seconds::ZERO, |(inj, _)| inj.retry_delay(r)))
            .collect();
        // Reject a bad factor before any time is stretched by it: each
        // replica's GPU factor, then its port factor.
        for r in 0..replicas {
            for value in [compute_dilation[r], comm_dilation[r]] {
                if !value.is_finite() || value <= 0.0 {
                    return Err(SimError::InvalidDilation { value });
                }
            }
        }
        // The barrier waits for the slowest compute path and the most
        // degraded communication path; report those replicas'
        // components.
        let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let stretch = worst(&compute_dilation);
        let comm_stretch = worst(&comm_dilation);
        let worst_retry = retry_delay
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max);

        // Price each op once for every replica: its type and class,
        // lane occupancy and pure kernel time, indexed by node.
        let timing: Vec<_> = graph
            .nodes()
            .map(|(_, op)| {
                let kind = op.kind();
                let op_type = kind.op_type();
                let class = op_type.class();
                if class == OpClass::Io {
                    let volume = kind.pcie_bytes().scale(input_scale as f64);
                    let dur = hw.link(LinkKind::Pcie).transfer_time(volume);
                    (op_type, class, dur, Seconds::ZERO)
                } else {
                    let kernel = self.kernel_time(kind);
                    (op_type, class, kernel.max(launch_gap), kernel)
                }
            })
            .collect();
        let order = graph.topo_order();

        // List-schedule each replica in turn. An op's `ready` is the
        // latest finish among its predecessors (each op pushes its
        // finish to its successors); `start` keeps the last replica's
        // start times for the profiles. Finishes only grow along an
        // edge, so the latest op finish is the latest sink finish.
        let mut pcie = Lane::default();
        let mut ready = vec![Seconds::ZERO; graph.len()];
        let mut start = vec![Seconds::ZERO; graph.len()];
        let mut makespan = Seconds::ZERO;
        for r in 0..replicas {
            let (mut gpu, mut port) = (Lane::default(), Lane::default());
            ready.fill(Seconds::ZERO);
            let mut drained = Seconds::ZERO;
            for &id in &order {
                let (_, class, dur, _) = timing[id.index()];
                let (begin, finish) = if class == OpClass::Io {
                    pcie.run(ready[id.index()], dur)
                } else {
                    gpu.run(ready[id.index()], dur.scale(compute_dilation[r]))
                };
                start[id.index()] = begin;
                for next in graph.successors(id) {
                    ready[next.index()] = ready[next.index()].max(finish);
                }
                drained = drained.max(finish);
            }
            // Synchronization on this replica's port once its graph has
            // drained, then any retry backoff its failed PS RPCs cost
            // (a timer, so the NIC's dilation does not stretch it).
            let mut done = drained;
            for transfer in comm.transfers() {
                done = port
                    .run(done, transfer_time(transfer).scale(comm_dilation[r]))
                    .1;
            }
            if !retry_delay[r].is_zero() {
                done = port.run(done, retry_delay[r]).1;
            }
            makespan = makespan.max(done);
        }

        // Assemble the measurement, folding in topological and plan
        // order.
        let mut healthy_compute = Seconds::ZERO;
        let mut compute_bound = Seconds::ZERO;
        let mut memory_bound = Seconds::ZERO;
        let mut launch_stall = Seconds::ZERO;
        let mut kernels = 0usize;
        let mut ops = Vec::with_capacity(if keep_profiles { order.len() } else { 0 });
        for id in &order {
            let (kind, class, dur, kernel) = timing[id.index()];
            if class != OpClass::Io {
                healthy_compute += dur;
                let stretched = dur.scale(stretch);
                if class == OpClass::ComputeBound {
                    compute_bound += stretched;
                } else {
                    memory_bound += stretched;
                }
                launch_stall += stretched - kernel.scale(stretch);
                kernels += 1;
            }
            if keep_profiles {
                ops.push(OpProfile {
                    op: *id,
                    kind,
                    class,
                    start: start[id.index()],
                    duration: dur,
                    kernel_time: kernel,
                });
            }
        }
        let mut healthy_comm = Seconds::ZERO;
        let mut comm_by_link: Vec<(LinkKind, Seconds)> = Vec::new();
        for transfer in comm.transfers() {
            let dur = transfer_time(transfer);
            healthy_comm += dur;
            let stretched = dur.scale(comm_stretch);
            match comm_by_link.iter_mut().find(|(k, _)| *k == transfer.link) {
                Some((_, t)) => *t += stretched,
                None => comm_by_link.push((transfer.link, stretched)),
            }
        }

        Ok(StepMeasurement {
            total: makespan,
            data_io: pcie.busy,
            compute_bound,
            memory_bound,
            comm_by_link,
            launch_stall,
            kernels,
            ops,
            faults: FaultAttribution {
                straggler: healthy_compute.scale(stretch - 1.0),
                nic: healthy_comm.scale(comm_stretch - 1.0),
                retry: worst_retry,
                restart: Seconds::ZERO,
                lost_steps: 0,
            },
        })
    }
}

/// A serial resource (a GPU, a port, the PCIe bus): tasks run FIFO in
/// the order they are issued.
#[derive(Debug, Default)]
struct Lane {
    free_at: Seconds,
    busy: Seconds,
}

impl Lane {
    /// Runs a task of length `dur` once `ready` has passed and the lane
    /// is free; returns its start and finish.
    fn run(&mut self, ready: Seconds, dur: Seconds) -> (Seconds, Seconds) {
        let start = ready.max(self.free_at);
        self.free_at = start + dur;
        self.busy += dur;
        (start, self.free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_faults::FaultPlan;
    use pai_graph::op::{elementwise, matmul};
    use pai_graph::Op;
    use pai_hw::Bytes;

    fn toy_graph() -> Graph {
        let mut g = Graph::new("toy");
        let load = g.add(Op::new("in", OpKind::DataLoad { bytes: 70_000_000 }));
        let mm = g.add(Op::new("mm", matmul(2048, 2048, 2048)));
        let ew = g.add(Op::new("ew", elementwise(1, 50_000_000, 1)));
        g.connect(load, mm);
        g.connect(mm, ew);
        g
    }

    /// One step of `replicas` replicas under a healthy plan.
    fn healthy_group(
        sim: &StepSimulator,
        g: &Graph,
        comm: &CommPlan,
        replicas: usize,
    ) -> StepMeasurement {
        let inj = FaultInjector::new(FaultPlan::healthy(replicas).unwrap()).unwrap();
        sim.run_replicas_faulted(g, comm, &inj, 0).unwrap()
    }

    #[test]
    fn serialized_step_sums_phases() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let mut comm = CommPlan::new();
        comm.push(Transfer::new(
            "sync",
            LinkKind::NvLink,
            Bytes::from_mb(350.0),
        ));
        let m = sim.run(&toy_graph(), &comm, 1).unwrap();
        let parts = m.data_io + m.computation() + m.comm_total();
        assert!((m.total.as_f64() - parts.as_f64()).abs() < 1e-9);
        assert_eq!(m.kernels, 2);
        assert!(m.faults.is_clean());
    }

    #[test]
    fn pcie_contention_scales_input_time() {
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let one = sim.run(&g, &CommPlan::new(), 1).unwrap();
        let eight = sim.run(&g, &CommPlan::new(), 8).unwrap();
        assert!((eight.data_io.as_f64() / one.data_io.as_f64() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn launch_gap_floors_tiny_kernels() {
        let mut g = Graph::new("tiny");
        for i in 0..100 {
            g.add(Op::new(format!("ew{i}"), elementwise(1, 16, 1)));
        }
        let sim = StepSimulator::new(SimConfig::testbed());
        let m = sim.run(&g, &CommPlan::new(), 1).unwrap();
        // Every kernel is stalled to the 4.5 us launch gap.
        assert!((m.total.as_f64() - 100.0 * 4.5e-6).abs() < 1e-9);
        assert!(m.launch_stall.as_f64() > 0.9 * m.total.as_f64());
    }

    #[test]
    fn tensor_core_ops_run_faster() {
        let mut fp32 = Graph::new("fp32");
        fp32.add(Op::new("mm", matmul(4096, 4096, 4096)));
        let (mp, _) = pai_graph::passes::apply_mixed_precision(&fp32);
        let sim = StepSimulator::new(SimConfig::testbed());
        let slow = sim.run(&fp32, &CommPlan::new(), 1).unwrap();
        let fast = sim.run(&mp, &CommPlan::new(), 1).unwrap();
        let speedup = slow.total.as_f64() / fast.total.as_f64();
        // 8x peak at 29 % TC efficiency vs FP32 at the default 70 %:
        // the ratio is 8 x 0.29 / 0.7 = 3.31.
        assert!((speedup - 3.31).abs() < 0.2, "speedup {speedup}");
    }

    #[test]
    fn kernel_time_follows_the_op_class() {
        let sim = StepSimulator::new(SimConfig::testbed());
        let hw = sim.config().hardware();
        // Compute-bound: arithmetic rate.
        let mm = matmul(1024, 1024, 1024);
        let expected = mm.flops() / hw.gpu().peak_flops().scale(0.7);
        assert_eq!(sim.kernel_time(&mm), expected);
        // Memory-bound: memory-system rate.
        let ew = elementwise(1, 1_000_000, 1);
        let expected = hw.link(LinkKind::HbmMemory).transfer_time(ew.mem_bytes());
        assert_eq!(sim.kernel_time(&ew), expected);
    }

    #[test]
    fn comm_plan_time_matches_analytical_sum() {
        let mut comm = CommPlan::new();
        comm.push(Transfer::new("a", LinkKind::Ethernet, Bytes::from_gb(1.0)));
        comm.push(Transfer::new("b", LinkKind::NvLink, Bytes::from_gb(1.0)));
        let g = Graph::new("empty");
        let sim = StepSimulator::new(SimConfig::testbed());
        let m = sim.run(&g, &comm, 1).unwrap();
        let analytic = comm.serialized_time(sim.config().hardware());
        assert!((m.total.as_f64() - analytic.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn profiles_cover_every_op() {
        let g = toy_graph();
        let m = StepSimulator::new(SimConfig::testbed())
            .run(&g, &CommPlan::new(), 1)
            .unwrap();
        // One record per node, typed from the node's own kind.
        let mut seen: Vec<usize> = m.ops.iter().map(|p| p.op.index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..g.len()).collect::<Vec<_>>());
        for p in &m.ops {
            let kind = g.node(p.op).kind();
            assert_eq!((p.kind, p.class), (kind.op_type(), kind.class()));
        }
        // Starts are non-decreasing along the chain.
        assert!(m.ops[0].start <= m.ops[1].start);
    }

    #[test]
    fn profiles_round_trip_through_serde() {
        use serde::{Deserialize as _, Serialize as _};
        let m = StepSimulator::new(SimConfig::testbed())
            .run(&toy_graph(), &CommPlan::new(), 1)
            .unwrap();
        assert_eq!(StepMeasurement::from_value(&m.to_value()).unwrap(), m);
    }

    /// Asserts two measurements agree bit for bit on every field but
    /// `ops`. The destructuring is exhaustive, so a new field must be
    /// added here.
    fn assert_same_bits(a: &StepMeasurement, b: &StepMeasurement) {
        let bits = |m: &StepMeasurement| {
            let StepMeasurement {
                total,
                data_io,
                compute_bound,
                memory_bound,
                comm_by_link,
                launch_stall,
                kernels,
                ops: _,
                faults,
            } = m;
            let FaultAttribution {
                straggler,
                nic,
                retry,
                restart,
                lost_steps,
            } = faults;
            let times = [
                total,
                data_io,
                compute_bound,
                memory_bound,
                launch_stall,
                straggler,
                nic,
                retry,
                restart,
            ]
            .map(|t| t.as_f64().to_bits());
            let comm: Vec<_> = comm_by_link
                .iter()
                .map(|(k, t)| (*k, t.as_f64().to_bits()))
                .collect();
            (times, comm, [*kernels, *lost_steps])
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn run_replicas_matches_single_replica_run() {
        // BERT's shape: the calibration input load is the topo-last op.
        let mut input_last = toy_graph();
        let tail = input_last.topo_order().last().copied();
        input_last.add_chain(
            tail,
            vec![Op::new("tail/input", OpKind::DataLoad { bytes: 9_000_000 })],
        );
        let mut sync = CommPlan::new();
        sync.push(Transfer::new(
            "sync",
            LinkKind::NvLink,
            Bytes::from_mb(350.0),
        ));
        let mut mixed = CommPlan::new();
        mixed.push(Transfer::new("h2d", LinkKind::Pcie, Bytes::from_mb(40.0)));
        mixed.push(Transfer::new(
            "ring",
            LinkKind::NvLink,
            Bytes::from_mb(350.0),
        ));
        mixed.push(Transfer::new(
            "push",
            LinkKind::Ethernet,
            Bytes::from_mb(90.0),
        ));
        mixed.push(Transfer::new("d2h", LinkKind::Pcie, Bytes::from_mb(10.0)));
        let sim = StepSimulator::new(SimConfig::testbed());
        for (g, comm) in [
            (toy_graph(), CommPlan::new()),
            (input_last, sync),
            (toy_graph(), mixed),
        ] {
            let single = sim.run(&g, &comm, 1).unwrap();
            let group = healthy_group(&sim, &g, &comm, 1);
            assert_same_bits(&single, &group);
            assert_eq!(single.ops.len(), g.len());
            assert!(group.ops.is_empty());
        }
    }

    #[test]
    fn communication_waits_for_the_whole_graph() {
        // The topo-last op is a short input load nothing depends on; the
        // sync must still wait for the matmul, not hide behind it.
        let mut g = Graph::new("drain");
        g.add(Op::new("mm", matmul(4096, 4096, 4096)));
        g.add(Op::new("in", OpKind::DataLoad { bytes: 1_000 }));
        let mut comm = CommPlan::new();
        comm.push(Transfer::new(
            "sync",
            LinkKind::NvLink,
            Bytes::from_mb(350.0),
        ));
        let sim = StepSimulator::new(SimConfig::testbed());
        let graph_only = sim.run(&g, &CommPlan::new(), 1).unwrap().total;
        let phased = graph_only + comm.serialized_time(sim.config().hardware());
        assert!((phased.as_f64() - 23.09e-3).abs() < 0.01e-3, "{phased}");
        for m in [
            sim.run(&g, &comm, 1).unwrap(),
            healthy_group(&sim, &g, &comm, 1),
            healthy_group(&sim, &g, &comm, 4),
        ] {
            assert_eq!(m.total, phased);
        }
    }

    #[test]
    fn pcie_contention_emerges_from_sharing() {
        // The shared-bus simulation must reproduce the analytical
        // contention factor: total PCIe window = n x single load.
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let one = healthy_group(&sim, &g, &CommPlan::new(), 1);
        let eight = healthy_group(&sim, &g, &CommPlan::new(), 8);
        let ratio = eight.data_io.as_f64() / one.data_io.as_f64();
        assert!((ratio - 8.0).abs() < 1e-9, "emergent contention {ratio}");
        // And it agrees with the closed-form factor `run` applies.
        let analytical = sim.run(&g, &CommPlan::new(), 8).unwrap();
        assert!((analytical.data_io.as_f64() - eight.data_io.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn compute_phases_overlap_across_replicas() {
        // A compute-bound graph barely slows down with more replicas:
        // GPUs are private, only the tiny input serializes.
        let mut g = Graph::new("compute");
        let load = g.add(Op::new("in", OpKind::DataLoad { bytes: 1_000 }));
        let mm = g.add(Op::new("mm", matmul(4096, 4096, 4096)));
        g.connect(load, mm);
        let sim = StepSimulator::new(SimConfig::testbed());
        let one = healthy_group(&sim, &g, &CommPlan::new(), 1);
        let eight = healthy_group(&sim, &g, &CommPlan::new(), 8);
        assert!(eight.total.as_f64() < 1.01 * one.total.as_f64());
    }

    #[test]
    fn replica_comm_uses_private_ports() {
        // Ring collectives run on per-rank links: the comm phase does
        // not dilate with the replica count.
        let g = toy_graph();
        let mut comm = CommPlan::new();
        comm.push(Transfer::new(
            "sync",
            LinkKind::NvLink,
            Bytes::from_mb(350.0),
        ));
        let sim = StepSimulator::new(SimConfig::testbed());
        let one = healthy_group(&sim, &g, &comm, 1);
        let eight = healthy_group(&sim, &g, &comm, 8);
        assert!((one.comm_total().as_f64() - eight.comm_total().as_f64()).abs() < 1e-12);
    }

    #[test]
    fn run_replicas_rejects_zero() {
        // A group of zero replicas never reaches the lowering: the plan
        // constructors refuse one, and the injector re-validates a
        // zero-replica plan that arrives deserialized.
        use pai_faults::FaultError;
        use serde::Deserialize as _;
        assert_eq!(FaultPlan::healthy(0).unwrap_err(), FaultError::NoReplicas);
        let text = serde_json::to_string(&FaultPlan::healthy(1).unwrap()).unwrap();
        let zero = text.replace("\"replicas\":1", "\"replicas\":0");
        assert_ne!(zero, text);
        let plan = FaultPlan::from_value(&serde_json::from_str(&zero).unwrap()).unwrap();
        assert_eq!(
            FaultInjector::new(plan).unwrap_err(),
            FaultError::NoReplicas
        );
    }

    #[test]
    fn rejects_zero_contention() {
        let g = Graph::new("empty");
        let err = StepSimulator::new(SimConfig::testbed())
            .run(&g, &CommPlan::new(), 0)
            .unwrap_err();
        assert_eq!(err, SimError::ZeroContention);
    }

    #[test]
    fn healthy_fault_plan_matches_plain_replicas() {
        let g = toy_graph();
        let mut comm = CommPlan::new();
        comm.push(Transfer::new(
            "sync",
            LinkKind::NvLink,
            Bytes::from_mb(350.0),
        ));
        // Four plain replicas serialize their input loads on the shared
        // PCIe lane: the step is `run` at contention 4.
        let sim = StepSimulator::new(SimConfig::testbed());
        let plain = sim.run(&g, &comm, 4).unwrap();
        let faulted = healthy_group(&sim, &g, &comm, 4);
        assert!((plain.total.as_f64() - faulted.total.as_f64()).abs() < 1e-12);
        assert_eq!(plain.comm_by_link, faulted.comm_by_link);
        assert!(faulted.faults.is_clean());
    }

    #[test]
    fn overflowing_dilation_is_a_typed_error() {
        // Valid plan, but straggler × jitter overflows to +inf: the
        // engine must reject the dilation before any time is stretched.
        let plan = FaultPlan::builder(2)
            .seed(1)
            .jitter(0.5)
            .straggler(0, f64::MAX)
            .build()
            .unwrap();
        let inj = FaultInjector::new(plan).unwrap();
        assert!(inj.compute_dilation(0, 0).is_infinite());
        let err = StepSimulator::new(SimConfig::testbed())
            .run_replicas_faulted(&toy_graph(), &CommPlan::new(), &inj, 0)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidDilation { .. }), "{err:?}");
    }

    #[test]
    fn straggler_stretches_the_barrier() {
        // Compute-dominant graph: the straggling GPU, not the shared
        // PCIe bus, must set the barrier.
        let mut g = Graph::new("compute");
        let load = g.add(Op::new("in", OpKind::DataLoad { bytes: 1_000 }));
        let mm = g.add(Op::new("mm", matmul(2048, 2048, 2048)));
        g.connect(load, mm);
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = healthy_group(&sim, &g, &CommPlan::new(), 4);
        let plan = FaultPlan::builder(4).straggler(2, 2.0).build().unwrap();
        let inj = FaultInjector::new(plan).unwrap();
        let slow = sim
            .run_replicas_faulted(&g, &CommPlan::new(), &inj, 0)
            .unwrap();
        assert!(slow.total.as_f64() > healthy.total.as_f64());
        // The extra compute is attributed to the straggler.
        assert!((slow.faults.straggler.as_f64() - healthy.computation().as_f64()).abs() < 1e-9);
        assert!((slow.computation().as_f64() - 2.0 * healthy.computation().as_f64()).abs() < 1e-9);
    }

    #[test]
    fn nic_degradation_stretches_comm_only() {
        let g = toy_graph();
        let mut comm = CommPlan::new();
        comm.push(Transfer::new(
            "sync",
            LinkKind::Ethernet,
            Bytes::from_mb(350.0),
        ));
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = healthy_group(&sim, &g, &comm, 4);
        let plan = FaultPlan::builder(4)
            .nic_degradation(1, 3.0)
            .build()
            .unwrap();
        let inj = FaultInjector::new(plan).unwrap();
        let slow = sim.run_replicas_faulted(&g, &comm, &inj, 0).unwrap();
        assert!((slow.comm_total().as_f64() - 3.0 * healthy.comm_total().as_f64()).abs() < 1e-9);
        assert_eq!(slow.computation(), healthy.computation());
        assert!((slow.faults.nic.as_f64() - 2.0 * healthy.comm_total().as_f64()).abs() < 1e-9);
        assert!(slow.faults.straggler.is_zero());
    }

    #[test]
    fn a_join_starts_when_its_later_parent_finishes() {
        // Parents on different lanes (an input load on PCIe, a matmul on
        // the GPU), both starting at zero; either may finish last.
        let sim = StepSimulator::new(SimConfig::testbed());
        for (bytes, n) in [(700_000_000, 1024), (1_000, 4096)] {
            let mut g = Graph::new("join");
            let load = g.add(Op::new("in", OpKind::DataLoad { bytes }));
            let mm = g.add(Op::new("mm", matmul(n, n, n)));
            let join = g.add(Op::new("join", elementwise(2, 1_000_000, 1)));
            g.connect(load, join);
            g.connect(mm, join);
            let m = sim.run(&g, &CommPlan::new(), 1).unwrap();
            let profile = |id| m.ops.iter().find(|p| p.op == id).unwrap();
            let (load, mm, join) = (profile(load), profile(mm), profile(join));
            assert!(load.start.is_zero() && mm.start.is_zero());
            let later = load.duration.max(mm.duration);
            assert_ne!(load.duration, mm.duration);
            assert_eq!(join.start.as_f64().to_bits(), later.as_f64().to_bits());
        }
    }

    #[test]
    fn nic_degradation_stretches_transfers_but_not_the_retry_delay() {
        // No input load, so both replicas drain their graphs at the same
        // time; replica 1's port carries both faults.
        let mut g = Graph::new("gpu-only");
        let mm = g.add(Op::new("mm", matmul(2048, 2048, 2048)));
        let ew = g.add(Op::new("ew", elementwise(1, 50_000_000, 1)));
        g.connect(mm, ew);
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
        let sim = StepSimulator::new(SimConfig::testbed());
        let graph = healthy_group(&sim, &g, &CommPlan::new(), 2).total;
        let plan = FaultPlan::builder(2)
            .nic_degradation(1, 3.0)
            .ps_retry(1, 3)
            .build()
            .unwrap();
        let inj = FaultInjector::new(plan).unwrap();
        let delay = inj.retry_delay(1);
        assert!(!delay.is_zero());
        let m = sim.run_replicas_faulted(&g, &comm, &inj, 0).unwrap();
        let hw = sim.config().hardware();
        let stretched = comm.transfers().iter().fold(graph, |t, x| {
            t + hw.link(x.link).transfer_time(x.bytes).scale(3.0)
        });
        assert_eq!(
            m.total.as_f64().to_bits(),
            (stretched + delay).as_f64().to_bits()
        );
        assert_eq!(m.faults.retry, delay);
    }

    #[test]
    fn a_straggler_leaves_the_shared_pcie_lane_alone() {
        // The straggler's GPU runs twice as long; the input loads on the
        // shared PCIe lane keep their durations.
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = healthy_group(&sim, &g, &CommPlan::new(), 4);
        let plan = FaultPlan::builder(4).straggler(2, 2.0).build().unwrap();
        let inj = FaultInjector::new(plan).unwrap();
        let slow = sim
            .run_replicas_faulted(&g, &CommPlan::new(), &inj, 0)
            .unwrap();
        assert!(slow.computation() > healthy.computation());
        assert_eq!(
            slow.data_io.as_f64().to_bits(),
            healthy.data_io.as_f64().to_bits()
        );
    }

    #[test]
    fn ps_retries_add_backoff_delay() {
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = healthy_group(&sim, &g, &CommPlan::new(), 2);
        let plan = FaultPlan::builder(2).ps_retry(1, 3).build().unwrap();
        let inj = FaultInjector::new(plan).unwrap();
        let slow = sim
            .run_replicas_faulted(&g, &CommPlan::new(), &inj, 0)
            .unwrap();
        let expected = inj.retry_delay(1);
        assert!((slow.total.as_f64() - healthy.total.as_f64() - expected.as_f64()).abs() < 1e-9);
        assert_eq!(slow.faults.retry, expected);
    }
}
