//! The scheduler's job model: what a trace job looks like to the
//! gang scheduler.
//!
//! A [`SchedJob`] collapses the analytical model's per-step breakdown
//! into the two quantities placement can influence: time spent off the
//! NIC ([`SchedJob::compute_time`], which includes data I/O and
//! compute) and the weight-synchronization traffic, classified by the
//! medium it rides ([`SyncClass`], Table II of the paper). A job's
//! effective step time then depends on where its gang lands:
//!
//! - [`SyncClass::Silent`] jobs (1w1g) never touch the NIC;
//! - [`SyncClass::Local`] jobs (1wng, AllReduce-Local) synchronize
//!   over intra-server PCIe/NVLink **if the gang fits in one server**
//!   — split across servers, the same bytes ride Ethernet and contend;
//! - [`SyncClass::Ethernet`] jobs (PS/Worker, AllReduce-Cluster)
//!   always ride Ethernet and dilate with the max-min NIC
//!   oversubscription of the servers they touch (see [`crate::engine`]).

use pai_core::Architecture;
use pai_hw::{Bytes, ClusterSpec, Seconds};
use pai_predict::Signature;
use serde::{Deserialize, Serialize};

/// The medium a job's weight synchronization rides (Table II,
/// collapsed to what placement can influence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncClass {
    /// No synchronization at all (1w1g).
    Silent,
    /// Intra-server PCIe/NVLink when the gang is contained in one
    /// server; Ethernet otherwise (1wng, AllReduce-Local).
    Local,
    /// Always Ethernet (PS/Worker, AllReduce-Cluster).
    Ethernet,
}

impl SyncClass {
    /// The class a trace architecture synchronizes in.
    pub fn of(arch: Architecture) -> SyncClass {
        match arch {
            Architecture::OneWorkerOneGpu => SyncClass::Silent,
            Architecture::OneWorkerMultiGpu | Architecture::AllReduceLocal => SyncClass::Local,
            Architecture::PsWorker | Architecture::AllReduceCluster => SyncClass::Ethernet,
        }
    }

    /// Best-case (uncontended, locality-respecting) step time of a job
    /// in this class: `compute_time` plus the synchronization it pays
    /// on its own medium — nothing, the intra-server pass, or
    /// `weight_bytes` over one of `cluster`'s NICs.
    pub fn solo_step(
        self,
        compute_time: Seconds,
        local_sync_time: Seconds,
        weight_bytes: Bytes,
        cluster: &ClusterSpec,
    ) -> Seconds {
        match self {
            SyncClass::Silent => compute_time,
            SyncClass::Local => compute_time + local_sync_time,
            SyncClass::Ethernet => compute_time + cluster.ethernet().transfer_time(weight_bytes),
        }
    }
}

/// One deterministic crash drawn from the job's fault plan: at step
/// `at_step` the gang dies, loses `lost_steps` of progress back to the
/// last checkpoint, and needs `restart` of wall time before it can be
/// requeued.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// The 0-based step index at which the crash lands.
    pub at_step: usize,
    /// Reschedule + checkpoint-load cost before requeueing.
    pub restart: Seconds,
    /// Steps of progress lost and re-executed.
    pub lost_steps: usize,
}

/// One job as the engine schedules it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedJob {
    /// Stream-unique identifier.
    pub id: usize,
    /// Virtual submission time.
    pub arrival: Seconds,
    /// Training steps to run to completion.
    pub steps: usize,
    /// Replica count — the gang needs this many GPUs at once.
    pub cnodes: usize,
    /// Per-step time off the NIC (data I/O + compute + memory).
    pub compute_time: Seconds,
    /// Per-step weight volume per replica.
    pub weight_bytes: Bytes,
    /// The medium the weight synchronization rides.
    pub sync: SyncClass,
    /// Per-step synchronization time over the intra-server fabric —
    /// what a [`SyncClass::Local`] job pays when its gang is contained
    /// in one server.
    pub local_sync_time: Seconds,
    /// The paper's characterization tuple `(class, #cNodes, Sw,
    /// FLOPs, batch)` — everything the duration predictor may see
    /// before the job runs.
    pub signature: Signature,
    /// Deterministic crashes, sorted by [`CrashPoint::at_step`].
    pub crashes: Vec<CrashPoint>,
}

impl SchedJob {
    /// Best-case (uncontended, locality-respecting) step time on the
    /// given cluster: the denominator of the slowdown metric.
    pub fn solo_step(&self, cluster: &ClusterSpec) -> Seconds {
        self.sync.solo_step(
            self.compute_time,
            self.local_sync_time,
            self.weight_bytes,
            cluster,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(sync: SyncClass) -> SchedJob {
        let class = match sync {
            SyncClass::Silent => Architecture::OneWorkerOneGpu,
            SyncClass::Local => Architecture::AllReduceLocal,
            SyncClass::Ethernet => Architecture::PsWorker,
        };
        SchedJob {
            id: 0,
            arrival: Seconds::ZERO,
            steps: 10,
            cnodes: 4,
            compute_time: Seconds::from_millis(100.0),
            weight_bytes: Bytes::from_mb(200.0),
            sync,
            local_sync_time: Seconds::from_millis(20.0),
            signature: Signature {
                class,
                cnodes: 4,
                weight_bytes: Bytes::from_mb(200.0).as_f64(),
                flops: 1.0e12,
                batch: 32,
            },
            crashes: Vec::new(),
        }
    }

    #[test]
    fn sync_class_follows_table_two() {
        assert_eq!(
            SyncClass::of(Architecture::OneWorkerOneGpu),
            SyncClass::Silent
        );
        assert_eq!(
            SyncClass::of(Architecture::OneWorkerMultiGpu),
            SyncClass::Local
        );
        assert_eq!(
            SyncClass::of(Architecture::AllReduceLocal),
            SyncClass::Local
        );
        assert_eq!(SyncClass::of(Architecture::PsWorker), SyncClass::Ethernet);
        assert_eq!(
            SyncClass::of(Architecture::AllReduceCluster),
            SyncClass::Ethernet
        );
    }

    #[test]
    fn solo_step_respects_the_medium() {
        let cluster = ClusterSpec::testbed(0.7);
        let silent = job(SyncClass::Silent);
        let local = job(SyncClass::Local);
        let ethernet = job(SyncClass::Ethernet);
        assert_eq!(silent.solo_step(&cluster), silent.compute_time);
        assert_eq!(
            local.solo_step(&cluster),
            local.compute_time + local.local_sync_time
        );
        assert_eq!(
            ethernet.solo_step(&cluster),
            ethernet.compute_time + cluster.ethernet().transfer_time(ethernet.weight_bytes)
        );
        // 200 MB over a 25 Gbit/s NIC dwarfs the NVLink pass: Ethernet
        // jobs are the ones placement can hurt.
        assert!(ethernet.solo_step(&cluster) > local.solo_step(&cluster));
    }
}
