//! A deterministic resource-constrained event engine.
//!
//! Tasks declare a duration, one serial resource, and dependencies.
//! The engine assigns each task the earliest start compatible with both
//! (dependencies finished, resource free) the moment it is added.
//! Dependencies must already exist, so insertion order is a dependency
//! order and scheduling in it is classic list scheduling — which for
//! this workload (static DAGs, serial resources, FIFO within a
//! resource) is exactly the discrete-event fixed point.
//!
//! Fault injection hooks: [`Engine::dilate_resource`] stretches the
//! duration of subsequently added tasks on a resource (stragglers,
//! degraded NICs), and [`Engine::add_delay`] inserts a pure wall-clock
//! wait that ignores dilation (retry backoff).

use std::fmt;

use pai_hw::Seconds;

use crate::error::SimError;

/// Identifies a serial resource (a GPU, a PCIe bus, a NIC…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// Identifies a scheduled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(usize);

impl TaskId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A registered resource and its running totals.
#[derive(Debug, Clone)]
struct Lane {
    dilation: f64,
    free_at: Seconds,
    busy: Seconds,
}

/// A scheduled task's times.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: Seconds,
    finish: Seconds,
    /// Length of the longest dependency chain ending with this task.
    longest: Seconds,
}

/// The engine: add resources and tasks, then [`Engine::run`].
///
/// # Examples
///
/// ```
/// use pai_sim::engine::Engine;
/// use pai_hw::Seconds;
///
/// let mut e = Engine::new();
/// let gpu = e.add_resource("gpu");
/// let a = e.add_task(gpu, Seconds::from_f64(1.0), &[])?;
/// let b = e.add_task(gpu, Seconds::from_f64(2.0), &[a])?;
/// let schedule = e.run();
/// assert_eq!(schedule.makespan().as_f64(), 3.0);
/// assert_eq!(schedule.start(b).as_f64(), 1.0);
/// # Ok::<(), pai_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    lanes: Vec<Lane>,
    slots: Vec<Slot>,
}

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Registers a serial resource. The name labels the call site;
    /// the engine identifies resources by the returned id.
    pub fn add_resource(&mut self, _name: &'static str) -> ResourceId {
        self.lanes.push(Lane {
            dilation: 1.0,
            free_at: Seconds::ZERO,
            busy: Seconds::ZERO,
        });
        ResourceId(self.lanes.len() - 1)
    }

    /// Dilates every task *subsequently* added on `resource` by
    /// `factor` (a straggler's slow GPU, a degraded NIC). Factors
    /// compose multiplicatively; already-added tasks keep their
    /// durations.
    ///
    /// Rejects unknown resources and non-finite or non-positive
    /// factors.
    pub fn dilate_resource(&mut self, resource: ResourceId, factor: f64) -> Result<(), SimError> {
        self.check_resource(resource)?;
        if !factor.is_finite() || factor <= 0.0 {
            return Err(SimError::InvalidDilation { value: factor });
        }
        self.lanes[resource.0].dilation *= factor;
        Ok(())
    }

    /// Adds a task on `resource` with `deps` (which must already be
    /// added — the DAG is therefore acyclic by construction) and
    /// schedules it. The duration is stretched by the resource's
    /// current dilation.
    ///
    /// Returns [`SimError::UnknownResource`] or
    /// [`SimError::UnknownDependency`] on invalid references.
    pub fn add_task(
        &mut self,
        resource: ResourceId,
        duration: Seconds,
        deps: &[TaskId],
    ) -> Result<TaskId, SimError> {
        self.check_refs(resource, deps)?;
        let dilation = self.lanes[resource.0].dilation;
        Ok(self.schedule(resource, duration.scale(dilation), deps))
    }

    /// Adds a pure wall-clock delay on `resource` (retry backoff, a
    /// restart wait): unlike [`Engine::add_task`], the duration is NOT
    /// subject to resource dilation, because a timer does not run
    /// slower on a degraded node.
    pub fn add_delay(
        &mut self,
        resource: ResourceId,
        duration: Seconds,
        deps: &[TaskId],
    ) -> Result<TaskId, SimError> {
        self.check_refs(resource, deps)?;
        Ok(self.schedule(resource, duration, deps))
    }

    fn check_resource(&self, resource: ResourceId) -> Result<(), SimError> {
        if resource.0 >= self.lanes.len() {
            return Err(SimError::UnknownResource {
                resource: resource.0,
                resources: self.lanes.len(),
            });
        }
        Ok(())
    }

    fn check_refs(&self, resource: ResourceId, deps: &[TaskId]) -> Result<(), SimError> {
        self.check_resource(resource)?;
        for d in deps {
            if d.0 >= self.slots.len() {
                return Err(SimError::UnknownDependency {
                    dependency: d.0,
                    tasks: self.slots.len(),
                });
            }
        }
        Ok(())
    }

    /// Starts the task when its last dependency finishes or its
    /// resource frees up, whichever is later; within a resource, tasks
    /// run FIFO in insertion order.
    fn schedule(&mut self, resource: ResourceId, duration: Seconds, deps: &[TaskId]) -> TaskId {
        let (ready, longest) = deps
            .iter()
            .map(|d| &self.slots[d.0])
            .fold((Seconds::ZERO, Seconds::ZERO), |(ready, longest), dep| {
                (ready.max(dep.finish), longest.max(dep.longest))
            });
        let lane = &mut self.lanes[resource.0];
        let start = ready.max(lane.free_at);
        let finish = start + duration;
        lane.free_at = finish;
        lane.busy += duration;
        self.slots.push(Slot {
            start,
            finish,
            longest: longest + duration,
        });
        TaskId(self.slots.len() - 1)
    }

    /// Number of tasks added.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Finishes the simulation and returns the schedule (every task
    /// was already scheduled as it was added).
    pub fn run(self) -> Schedule {
        Schedule {
            lanes: self.lanes,
            slots: self.slots,
        }
    }
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct Schedule {
    lanes: Vec<Lane>,
    slots: Vec<Slot>,
}

impl Schedule {
    /// Completion time of the whole DAG.
    pub fn makespan(&self) -> Seconds {
        self.slots
            .iter()
            .map(|s| s.finish)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Start time of a task.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn start(&self, id: TaskId) -> Seconds {
        self.slots[id.0].start
    }

    /// Finish time of a task.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn finish(&self, id: TaskId) -> Seconds {
        self.slots[id.0].finish
    }

    /// Total busy time of a resource.
    pub fn busy(&self, resource: ResourceId) -> Seconds {
        self.lanes[resource.0].busy
    }

    /// Utilization of a resource over the makespan, in `[0, 1]`.
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let span = self.makespan();
        if span.is_zero() {
            0.0
        } else {
            self.busy(resource).as_f64() / span.as_f64()
        }
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.lanes.len()
    }

    /// Length of the critical dependency path — the makespan an
    /// infinitely parallel machine would still need. The gap between
    /// this and [`Schedule::makespan`] is pure resource contention.
    pub fn critical_path(&self) -> Seconds {
        self.slots
            .iter()
            .map(|s| s.longest)
            .fold(Seconds::ZERO, Seconds::max)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule: {} tasks on {} resources, makespan {}",
            self.slots.len(),
            self.lanes.len(),
            self.makespan()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> Seconds {
        Seconds::from_f64(x)
    }

    #[test]
    fn serial_chain_sums() {
        let mut e = Engine::new();
        let r = e.add_resource("gpu");
        let a = e.add_task(r, s(1.0), &[]).unwrap();
        let b = e.add_task(r, s(2.0), &[a]).unwrap();
        let c = e.add_task(r, s(3.0), &[b]).unwrap();
        let sched = e.run();
        assert_eq!(sched.makespan().as_f64(), 6.0);
        assert_eq!(sched.start(c).as_f64(), 3.0);
        assert_eq!(sched.busy(r).as_f64(), 6.0);
        assert_eq!(sched.utilization(r), 1.0);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut e = Engine::new();
        let gpu = e.add_resource("gpu");
        let nic = e.add_resource("nic");
        e.add_task(gpu, s(2.0), &[]).unwrap();
        e.add_task(nic, s(3.0), &[]).unwrap();
        let sched = e.run();
        assert_eq!(sched.makespan().as_f64(), 3.0);
        assert!((sched.utilization(gpu) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn resource_serializes_independent_tasks() {
        let mut e = Engine::new();
        let gpu = e.add_resource("gpu");
        e.add_task(gpu, s(2.0), &[]).unwrap();
        e.add_task(gpu, s(3.0), &[]).unwrap();
        let sched = e.run();
        assert_eq!(sched.makespan().as_f64(), 5.0);
    }

    #[test]
    fn dependency_across_resources_delays_start() {
        let mut e = Engine::new();
        let pcie = e.add_resource("pcie");
        let gpu = e.add_resource("gpu");
        let load = e.add_task(pcie, s(1.5), &[]).unwrap();
        let compute = e.add_task(gpu, s(1.0), &[load]).unwrap();
        let sched = e.run();
        assert_eq!(sched.start(compute).as_f64(), 1.5);
        assert_eq!(sched.makespan().as_f64(), 2.5);
    }

    #[test]
    fn diamond_joins_on_slowest_parent() {
        let mut e = Engine::new();
        let a_r = e.add_resource("a");
        let b_r = e.add_resource("b");
        let root = e.add_task(a_r, s(1.0), &[]).unwrap();
        let fast = e.add_task(a_r, s(1.0), &[root]).unwrap();
        let slow = e.add_task(b_r, s(5.0), &[root]).unwrap();
        let join = e.add_task(a_r, s(1.0), &[fast, slow]).unwrap();
        let sched = e.run();
        assert_eq!(sched.start(join).as_f64(), 6.0);
    }

    #[test]
    fn empty_engine_has_zero_makespan() {
        let mut e = Engine::new();
        e.add_resource("gpu");
        assert!(e.is_empty());
        let sched = e.run();
        assert!(sched.makespan().is_zero());
        assert_eq!(sched.resource_count(), 1);
    }

    #[test]
    fn rejects_forward_dependency() {
        let mut e = Engine::new();
        let r = e.add_resource("gpu");
        let good = e.add_task(r, s(1.0), &[]).unwrap();
        let mut e2 = Engine::new();
        let r2 = e2.add_resource("gpu");
        let err = e2.add_task(r2, s(1.0), &[good]);
        // `good` has index 0 and e2 has no tasks yet, so the forward
        // reference is caught.
        assert_eq!(
            err.unwrap_err(),
            SimError::UnknownDependency {
                dependency: 0,
                tasks: 0
            }
        );
    }

    #[test]
    fn rejects_unknown_resource() {
        let mut e = Engine::new();
        assert_eq!(
            e.add_task(ResourceId(3), s(1.0), &[]).unwrap_err(),
            SimError::UnknownResource {
                resource: 3,
                resources: 0
            }
        );
        assert_eq!(
            e.add_delay(ResourceId(3), s(1.0), &[]).unwrap_err(),
            SimError::UnknownResource {
                resource: 3,
                resources: 0
            }
        );
    }

    #[test]
    fn dilation_stretches_subsequent_tasks_only() {
        let mut e = Engine::new();
        let gpu = e.add_resource("gpu");
        let before = e.add_task(gpu, s(1.0), &[]).unwrap();
        e.dilate_resource(gpu, 2.0).unwrap();
        let after = e.add_task(gpu, s(1.0), &[before]).unwrap();
        let delay = e.add_delay(gpu, s(1.0), &[after]).unwrap();
        let sched = e.run();
        // 1.0 (undilated) + 2.0 (dilated) + 1.0 (delay ignores
        // dilation) = 4.0
        assert_eq!(sched.finish(before).as_f64(), 1.0);
        assert_eq!(sched.finish(after).as_f64(), 3.0);
        assert_eq!(sched.finish(delay).as_f64(), 4.0);
    }

    #[test]
    fn dilation_composes_and_rejects_bad_factors() {
        let mut e = Engine::new();
        let gpu = e.add_resource("gpu");
        e.dilate_resource(gpu, 2.0).unwrap();
        e.dilate_resource(gpu, 1.5).unwrap();
        e.add_task(gpu, s(1.0), &[]).unwrap();
        assert_eq!(
            e.dilate_resource(gpu, 0.0).unwrap_err(),
            SimError::InvalidDilation { value: 0.0 }
        );
        assert!(matches!(
            e.dilate_resource(gpu, f64::NAN),
            Err(SimError::InvalidDilation { .. })
        ));
        assert!(matches!(
            e.dilate_resource(ResourceId(9), 2.0),
            Err(SimError::UnknownResource { .. })
        ));
        let sched = e.run();
        assert!((sched.makespan().as_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let mut e = Engine::new();
        e.add_resource("gpu");
        assert!(!e.run().to_string().is_empty());
    }

    #[test]
    fn critical_path_ignores_resource_contention() {
        // Two independent tasks on one resource: makespan 5, critical
        // path only 3.
        let mut e = Engine::new();
        let r = e.add_resource("gpu");
        e.add_task(r, s(2.0), &[]).unwrap();
        e.add_task(r, s(3.0), &[]).unwrap();
        let sched = e.run();
        assert_eq!(sched.makespan().as_f64(), 5.0);
        assert_eq!(sched.critical_path().as_f64(), 3.0);
    }

    #[test]
    fn critical_path_equals_makespan_for_chains() {
        let mut e = Engine::new();
        let r = e.add_resource("gpu");
        let a = e.add_task(r, s(1.0), &[]).unwrap();
        let b = e.add_task(r, s(2.0), &[a]).unwrap();
        e.add_task(r, s(3.0), &[b]).unwrap();
        let sched = e.run();
        assert_eq!(sched.critical_path().as_f64(), sched.makespan().as_f64());
    }
}
