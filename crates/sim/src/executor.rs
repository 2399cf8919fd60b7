//! Executes one training step op-by-op on the simulated machine.

use pai_collectives::CommPlan;
use pai_faults::FaultInjector;
use pai_graph::{Graph, OpClass, OpKind};
use pai_hw::{LinkKind, Seconds};

use crate::config::SimConfig;
use crate::engine::{Engine, TaskId};
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
    /// prices overlapped steps).
    ///
    /// `pcie_contention` is the number of replicas sharing this
    /// server's PCIe complex for input loading (1 for PS workers and
    /// 1w1g, the local GPU count for 1wng/AllReduce placements).
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
        let hw = self.config.hardware();
        let launch_gap = self.config.kernel_launch_overhead();

        let mut engine = Engine::new();
        let gpu = engine.add_resource("gpu");
        let pcie = engine.add_resource("pcie");
        let ethernet = engine.add_resource("ethernet");
        let nvlink = engine.add_resource("nvlink");
        let link_resource = |kind: LinkKind| match kind {
            LinkKind::Pcie => pcie,
            LinkKind::Ethernet => ethernet,
            LinkKind::NvLink => nvlink,
            LinkKind::HbmMemory => gpu,
        };

        let order = graph.topo_order();
        let preds = graph.predecessor_lists();
        let mut task_of = vec![None::<TaskId>; graph.len()];
        let mut profiles = Vec::with_capacity(order.len());
        let mut durations = vec![Seconds::ZERO; graph.len()];
        let mut kernel_times = vec![Seconds::ZERO; graph.len()];
        let mut deps: Vec<TaskId> = Vec::new();

        for id in &order {
            let op = graph.node(*id);
            deps.clear();
            deps.extend(preds[id.index()].iter().filter_map(|p| task_of[p.index()]));
            let task = match op.class() {
                OpClass::Io => {
                    let volume = op.kind().pcie_bytes().scale(pcie_contention as f64);
                    let dur = hw.link(LinkKind::Pcie).transfer_time(volume);
                    durations[id.index()] = dur;
                    engine.add_task(pcie, dur, &deps)?
                }
                OpClass::ComputeBound | OpClass::MemoryBound => {
                    let kernel = self.kernel_time(op.kind());
                    let dur = kernel.max(launch_gap);
                    durations[id.index()] = dur;
                    kernel_times[id.index()] = kernel;
                    engine.add_task(gpu, dur, &deps)?
                }
            };
            task_of[id.index()] = Some(task);
        }

        // Communication transfers: chained in plan order after the
        // whole graph (the paper's phased step).
        let mut comm_tasks = Vec::new();
        let mut prev = order.last().and_then(|id| task_of[id.index()]);
        for transfer in comm.transfers() {
            let dur = hw.link(transfer.link).transfer_time(transfer.bytes);
            prev = Some(engine.add_task(link_resource(transfer.link), dur, prev.as_slice())?);
            comm_tasks.push((transfer.link, dur));
        }

        let schedule = engine.run();

        // Assemble the measurement.
        let mut data_io = Seconds::ZERO;
        let mut compute_bound = Seconds::ZERO;
        let mut memory_bound = Seconds::ZERO;
        let mut launch_stall = Seconds::ZERO;
        let mut kernels = 0usize;
        for id in &order {
            let op = graph.node(*id);
            let dur = durations[id.index()];
            match op.class() {
                OpClass::Io => data_io += dur,
                OpClass::ComputeBound => {
                    compute_bound += dur;
                    launch_stall += dur - kernel_times[id.index()];
                    kernels += 1;
                }
                OpClass::MemoryBound => {
                    memory_bound += dur;
                    launch_stall += dur - kernel_times[id.index()];
                    kernels += 1;
                }
            }
            if let Some(t) = task_of[id.index()] {
                profiles.push(OpProfile {
                    name: op.name().to_string(),
                    kind: op.kind().kind_label().to_string(),
                    class: op.class().to_string(),
                    start: schedule.start(t),
                    duration: dur,
                    kernel_time: kernel_times[id.index()],
                });
            }
        }
        let mut comm_by_link: Vec<(LinkKind, Seconds)> = Vec::new();
        for (kind, dur) in comm_tasks {
            match comm_by_link.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, t)) => *t += dur,
                None => comm_by_link.push((kind, dur)),
            }
        }

        Ok(StepMeasurement {
            total: schedule.makespan(),
            data_io,
            compute_bound,
            memory_bound,
            comm_by_link,
            launch_stall,
            kernels,
            ops: profiles,
            faults: FaultAttribution::default(),
        })
    }
}

impl StepSimulator {
    /// Simulates `replicas` copies of the graph training in lockstep on
    /// one server: each replica owns a GPU and its NVLink/Ethernet
    /// ports (ring collectives use dedicated per-rank links), but all
    /// replicas share the server's PCIe root complex for input loading.
    ///
    /// Unlike [`StepSimulator::run`], no contention factor is passed
    /// in — the input-I/O dilation the paper describes in Sec. III-C1
    /// ("competition for PCIe bandwidth") *emerges* from the shared
    /// resource. The reported `data_io` is the PCIe busy window; the
    /// compute/communication components are replica 0's (replicas are
    /// symmetric).
    ///
    /// Returns [`SimError::ZeroReplicas`] if `replicas` is zero.
    pub fn run_replicas(
        &self,
        graph: &Graph,
        comm: &CommPlan,
        replicas: usize,
    ) -> Result<StepMeasurement, SimError> {
        self.run_replicas_inner(graph, comm, replicas, None)
    }

    /// Simulates one synchronous step of a replica group under an
    /// injected fault realization: per-replica compute dilation
    /// (stragglers + jitter) and communication dilation (degraded
    /// NICs) stretch that replica's resources, and failed PS RPCs add
    /// retry backoff on its port. The step completes when the slowest
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
        self.run_replicas_inner(graph, comm, injector.replicas(), Some((injector, step)))
    }

    fn run_replicas_inner(
        &self,
        graph: &Graph,
        comm: &CommPlan,
        replicas: usize,
        faults: Option<(&FaultInjector, usize)>,
    ) -> Result<StepMeasurement, SimError> {
        if replicas == 0 {
            return Err(SimError::ZeroReplicas);
        }
        let hw = self.config.hardware();
        let launch_gap = self.config.kernel_launch_overhead();

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
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i)
        };
        // The barrier waits for the slowest compute path and the most
        // degraded communication path; report those replicas'
        // components.
        let slowest = argmax(&compute_dilation);
        let worst_comm = argmax(&comm_dilation);
        let worst_retry = retry_delay
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max);

        let mut engine = Engine::new();
        let pcie = engine.add_resource("pcie");
        let gpus: Vec<_> = (0..replicas).map(|_| engine.add_resource("gpu")).collect();
        let ports: Vec<_> = (0..replicas).map(|_| engine.add_resource("port")).collect();

        let order = graph.topo_order();
        let preds = graph.predecessor_lists();

        let mut healthy_compute = Seconds::ZERO;
        let mut slow_compute = Seconds::ZERO;
        let mut slow_memory = Seconds::ZERO;
        let mut slow_stall = Seconds::ZERO;
        let mut slow_kernels = 0usize;
        let mut healthy_comm = Seconds::ZERO;
        let mut comm_by_link: Vec<(LinkKind, Seconds)> = Vec::new();
        let mut deps: Vec<TaskId> = Vec::new();

        for (r, (&gpu, &port)) in gpus.iter().zip(&ports).enumerate() {
            engine.dilate_resource(gpu, compute_dilation[r])?;
            engine.dilate_resource(port, comm_dilation[r])?;
            let mut task_of = vec![None::<TaskId>; graph.len()];
            for id in &order {
                let op = graph.node(*id);
                deps.clear();
                deps.extend(preds[id.index()].iter().filter_map(|p| task_of[p.index()]));
                let task = match op.class() {
                    OpClass::Io => {
                        // Unscaled volume on the SHARED bus.
                        let dur = hw
                            .link(LinkKind::Pcie)
                            .transfer_time(op.kind().pcie_bytes());
                        engine.add_task(pcie, dur, &deps)?
                    }
                    OpClass::ComputeBound | OpClass::MemoryBound => {
                        let kernel = self.kernel_time(op.kind());
                        let dur = kernel.max(launch_gap);
                        if r == 0 {
                            healthy_compute += dur;
                        }
                        if r == slowest {
                            let stretched = dur.scale(compute_dilation[r]);
                            // The enclosing arm admits only the two
                            // compute classes, so Io cannot reach here.
                            if matches!(op.class(), OpClass::ComputeBound) {
                                slow_compute += stretched;
                            } else {
                                slow_memory += stretched;
                            }
                            slow_stall += stretched - kernel.scale(compute_dilation[r]);
                            slow_kernels += 1;
                        }
                        engine.add_task(gpu, dur, &deps)?
                    }
                };
                task_of[id.index()] = Some(task);
            }
            // Per-replica synchronization on this replica's ports,
            // followed by any retry backoff its failed PS RPCs cost.
            let mut prev = order.last().and_then(|id| task_of[id.index()]);
            for transfer in comm.transfers() {
                let dur = hw.link(transfer.link).transfer_time(transfer.bytes);
                prev = Some(engine.add_task(port, dur, prev.as_slice())?);
                if r == 0 {
                    healthy_comm += dur;
                }
                if r == worst_comm {
                    let stretched = dur.scale(comm_dilation[r]);
                    match comm_by_link.iter_mut().find(|(k, _)| *k == transfer.link) {
                        Some((_, t)) => *t += stretched,
                        None => comm_by_link.push((transfer.link, stretched)),
                    }
                }
            }
            if !retry_delay[r].is_zero() {
                engine.add_delay(port, retry_delay[r], prev.as_slice())?;
            }
        }

        let schedule = engine.run();
        let attribution = FaultAttribution {
            straggler: healthy_compute.scale(compute_dilation[slowest] - 1.0),
            nic: healthy_comm.scale(comm_dilation[worst_comm] - 1.0),
            retry: worst_retry,
            restart: Seconds::ZERO,
            lost_steps: 0,
        };
        Ok(StepMeasurement {
            total: schedule.makespan(),
            data_io: schedule.busy(pcie),
            compute_bound: slow_compute,
            memory_bound: slow_memory,
            comm_by_link,
            launch_stall: slow_stall,
            kernels: slow_kernels,
            ops: Vec::new(),
            faults: attribution,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_collectives::Transfer;
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
        assert_eq!(m.ops.len(), g.len());
        assert!(m.ops.iter().all(|p| !p.name.is_empty()));
        // Starts are non-decreasing along the chain.
        assert!(m.ops[0].start <= m.ops[1].start);
    }

    #[test]
    fn run_replicas_matches_single_replica_run() {
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let single = sim.run(&g, &CommPlan::new(), 1).unwrap();
        let multi = sim.run_replicas(&g, &CommPlan::new(), 1).unwrap();
        assert!((single.total.as_f64() - multi.total.as_f64()).abs() < 1e-12);
        assert_eq!(single.kernels, multi.kernels);
    }

    #[test]
    fn pcie_contention_emerges_from_sharing() {
        // The shared-bus simulation must reproduce the analytical
        // contention factor: total PCIe window = n x single load.
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let one = sim.run_replicas(&g, &CommPlan::new(), 1).unwrap();
        let eight = sim.run_replicas(&g, &CommPlan::new(), 8).unwrap();
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
        let one = sim.run_replicas(&g, &CommPlan::new(), 1).unwrap();
        let eight = sim.run_replicas(&g, &CommPlan::new(), 8).unwrap();
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
        let one = sim.run_replicas(&g, &comm, 1).unwrap();
        let eight = sim.run_replicas(&g, &comm, 8).unwrap();
        assert!((one.comm_total().as_f64() - eight.comm_total().as_f64()).abs() < 1e-12);
    }

    #[test]
    fn run_replicas_rejects_zero() {
        let g = Graph::new("empty");
        let err = StepSimulator::new(SimConfig::testbed())
            .run_replicas(&g, &CommPlan::new(), 0)
            .unwrap_err();
        assert_eq!(err, SimError::ZeroReplicas);
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
        let sim = StepSimulator::new(SimConfig::testbed());
        let inj = FaultInjector::new(FaultPlan::healthy(4).unwrap()).unwrap();
        let plain = sim.run_replicas(&g, &comm, 4).unwrap();
        let faulted = sim.run_replicas_faulted(&g, &comm, &inj, 0).unwrap();
        assert_eq!(plain.total, faulted.total);
        assert_eq!(plain.comm_by_link, faulted.comm_by_link);
        assert!(faulted.faults.is_clean());
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
        let healthy = sim.run_replicas(&g, &CommPlan::new(), 4).unwrap();
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
        let healthy = sim.run_replicas(&g, &comm, 4).unwrap();
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
    fn ps_retries_add_backoff_delay() {
        let g = toy_graph();
        let sim = StepSimulator::new(SimConfig::testbed());
        let healthy = sim.run_replicas(&g, &CommPlan::new(), 2).unwrap();
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
