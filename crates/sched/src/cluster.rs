//! One job mix, placed at once on an idle cluster.
//!
//! The paper's Sec. VI cluster question — how much jobs slow down when
//! co-located replicas share a server's Ethernet NIC — asked of a
//! snapshot instead of a replay: the mix lands gang by gang, in the
//! given order, under a [`Policy`], and every job is priced once the
//! whole mix has landed. Placement checks, sharer counters and the
//! max-min price are the event engine's own, so a snapshot and a
//! replay of the same layout price it to the bit.

use pai_hw::ClusterSpec;

use crate::engine::{price, Servers};
use crate::error::SchedError;
use crate::policy::Policy;
use crate::stream::JobTemplate;

/// One job of a mix placed by [`place_mix`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedJob {
    /// `(server, replicas)` entries, as the policy chose them.
    pub assignment: Vec<(usize, usize)>,
    /// Per-step time, in seconds, under the NIC sharing of the whole
    /// mix.
    pub step_time_s: f64,
}

/// Places `jobs` gang by gang, in order, on an idle `cluster` with
/// `policy`, then prices each under the NIC sharing of the whole mix.
/// Returns the placements in job order. The order is the caller's:
/// first-fit of a biggest-first mix gives the big gangs whole servers.
///
/// # Errors
///
/// A zero-replica job is [`SchedError::EmptyJob`], and a job wider
/// than the GPUs the jobs before it left free is
/// [`SchedError::JobTooLarge`]. A policy that refuses a job the free
/// GPUs could hold yields [`SchedError::Stalled`]; one that returns a
/// malformed assignment yields [`SchedError::InvalidAssignment`].
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, WorkloadFeatures};
/// use pai_hw::{Bytes, ClusterSpec};
/// use pai_sched::{place_mix, templates_from_population, FifoFirstFit};
///
/// let job = WorkloadFeatures::builder(Architecture::PsWorker)
///     .cnodes(16)
///     .weight_bytes(Bytes::from_mb(200.0))
///     .build();
/// let cluster = ClusterSpec::testbed(0.7);
/// let (mix, _) = templates_from_population(&PerfModel::paper_default(), &[job][..], 512);
/// let placed = place_mix(&cluster, &mix, &FifoFirstFit)?;
/// // Two whole servers, each NIC shared by the job's own 8 replicas.
/// assert_eq!(placed[0].assignment, vec![(0, 8), (1, 8)]);
/// assert!(placed[0].step_time_s > mix[0].solo_step(&cluster).as_f64());
/// # Ok::<(), pai_sched::SchedError>(())
/// ```
pub fn place_mix(
    cluster: &ClusterSpec,
    jobs: &[JobTemplate],
    policy: &dyn Policy,
) -> Result<Vec<PlacedJob>, SchedError> {
    let mut servers = Servers::new(cluster.num_servers(), cluster.server().gpus_per_server());
    let mut free_gpus = cluster.total_gpus();
    let mut assignments = Vec::with_capacity(jobs.len());
    for job in jobs {
        let id = job.record.id;
        if job.cnodes == 0 {
            return Err(SchedError::EmptyJob { id });
        }
        if job.cnodes > free_gpus {
            return Err(SchedError::JobTooLarge {
                id,
                requested: job.cnodes,
                capacity: free_gpus,
            });
        }
        let mut assignment = Vec::new();
        if !policy.place(job.cnodes, job.sync, &servers.free_gpus(), &mut assignment) {
            return Err(SchedError::Stalled {
                policy: policy.name(),
                job: id,
            });
        }
        if !servers.valid(&assignment, job.cnodes) {
            return Err(SchedError::InvalidAssignment {
                policy: policy.name(),
                job: id,
            });
        }
        servers.claim(&assignment, job.sync, job.weight_bytes);
        free_gpus -= job.cnodes;
        assignments.push(assignment);
    }
    let mut server_set = Vec::new();
    Ok(jobs
        .iter()
        .zip(assignments)
        .map(|(job, assignment)| {
            let eth_time = cluster.ethernet().transfer_time(job.weight_bytes).as_f64();
            servers.mark(&assignment, &mut server_set);
            let step_time_s = price(
                job.compute_time,
                job.sync,
                job.local_sync_time,
                &assignment,
                &server_set,
                eth_time,
                &servers,
            );
            PlacedJob {
                assignment,
                step_time_s,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SyncClass;
    use crate::policy::{FifoFirstFit, FreeGpus};
    use pai_core::{Architecture, WorkloadFeatures};
    use pai_hw::{Bandwidth, Bytes, LinkKind, LinkModel, Seconds};
    use pai_predict::Signature;
    use pai_trace::JobRecord;

    fn cluster() -> ClusterSpec {
        ClusterSpec::testbed(0.7)
    }

    /// A PS/Worker gang: 100 ms off the NIC, `eth_mb` of weights. The
    /// trace record only carries the id, so its width may differ.
    fn job(id: usize, cnodes: usize, eth_mb: f64) -> JobTemplate {
        let weight_bytes = Bytes::from_mb(eth_mb);
        let features = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(cnodes.max(2))
            .weight_bytes(weight_bytes)
            .build();
        JobTemplate {
            record: JobRecord { id, features },
            cnodes,
            compute_time: Seconds::from_millis(100.0),
            weight_bytes,
            sync: SyncClass::Ethernet,
            local_sync_time: Seconds::ZERO,
            signature: Signature::of(&features),
        }
    }

    /// `job`'s step time with its NIC shared `sharers` ways — the
    /// price's own arithmetic, so comparisons can be exact.
    fn shared(c: &ClusterSpec, job: &JobTemplate, sharers: usize) -> f64 {
        let eth_time = c.ethernet().transfer_time(job.weight_bytes).as_f64();
        job.compute_time.as_f64() + eth_time * sharers as f64
    }

    fn solo(c: &ClusterSpec, job: &JobTemplate) -> f64 {
        job.solo_step(c).as_f64()
    }

    #[test]
    fn lone_job_runs_uncontended() {
        let c = cluster();
        // 8 own replicas share each of its two NICs.
        let wide = job(0, 16, 200.0);
        let p = place_mix(&c, std::slice::from_ref(&wide), &FifoFirstFit).expect("fits");
        assert_eq!(p[0].step_time_s, shared(&c, &wide, 8));
        // A one-replica job has no contention at all.
        let narrow = job(1, 1, 200.0);
        let p = place_mix(&c, std::slice::from_ref(&narrow), &FifoFirstFit).expect("fits");
        assert_eq!(p[0].step_time_s, solo(&c, &narrow));
    }

    #[test]
    fn colocated_jobs_share_the_nic() {
        // Two 4-replica jobs land on one server: 8 sharers each.
        let c = cluster();
        let mix = [job(0, 4, 100.0), job(1, 4, 100.0)];
        let p = place_mix(&c, &mix, &FifoFirstFit).expect("fits");
        assert_eq!(p[0].assignment, vec![(0, 4)]);
        assert_eq!(p[1].assignment, vec![(0, 4)]);
        assert_eq!(p[0].step_time_s, shared(&c, &mix[0], 8));
        assert!(p[0].step_time_s > solo(&c, &mix[0]));
        assert_eq!(p[0].step_time_s, p[1].step_time_s);
    }

    #[test]
    fn local_jobs_neither_suffer_nor_cause_contention() {
        // A contained AllReduce-Local gang syncs over NVLink next to a
        // 4-replica Ethernet gang on the same server.
        let c = cluster();
        let mut local = job(0, 4, 100.0);
        local.sync = SyncClass::Local;
        local.local_sync_time = Seconds::from_millis(20.0);
        let chatty = job(1, 4, 100.0);
        let p = place_mix(&c, &[local.clone(), chatty.clone()], &FifoFirstFit).expect("fits");
        assert_eq!(p[0].assignment, p[1].assignment);
        assert_eq!(p[0].step_time_s, solo(&c, &local));
        // The chatty job only shares with its own replicas.
        assert_eq!(p[1].step_time_s, shared(&c, &chatty, 4));
    }

    #[test]
    fn zero_ethernet_job_pays_exactly_its_local_time() {
        // A zero-volume Ethernet gang next to a chatty one neither pays
        // nor causes NIC contention, even at full server occupancy.
        let c = cluster();
        let mut silent = job(0, 4, 0.0);
        silent.compute_time = Seconds::from_millis(80.0);
        let chatty = job(1, 4, 300.0);
        let p = place_mix(&c, &[silent.clone(), chatty.clone()], &FifoFirstFit).expect("fits");
        assert_eq!(p[0].assignment, p[1].assignment);
        assert_eq!(p[0].step_time_s, silent.compute_time.as_f64());
        assert_eq!(p[0].step_time_s, solo(&c, &silent));
        assert_eq!(p[1].step_time_s, shared(&c, &chatty, 4));
    }

    #[test]
    fn big_jobs_placed_first_get_whole_servers() {
        let c = cluster();
        let (small, big) = (job(0, 3, 10.0), job(1, 8, 10.0));
        // Biggest first: the 8-replica job fills server 0 alone and the
        // 3-replica job lands on server 1.
        let p = place_mix(&c, &[big.clone(), small.clone()], &FifoFirstFit).expect("fits");
        assert_eq!(p[0].assignment, vec![(0, 8)]);
        assert_eq!(p[1].assignment, vec![(1, 3)]);
        assert_eq!(p[0].step_time_s, shared(&c, &big, 8));
        assert_eq!(p[1].step_time_s, shared(&c, &small, 3));
        // The other order splits the big job over the small one's
        // server, and both pay for the sharing.
        let p = place_mix(&c, &[small.clone(), big.clone()], &FifoFirstFit).expect("fits");
        assert_eq!(p[1].assignment, vec![(0, 5), (1, 3)]);
        assert_eq!(p[0].step_time_s, shared(&c, &small, 8));
    }

    #[test]
    fn utilization_and_spread() {
        let c = cluster();
        let p = place_mix(&c, &[job(0, 64, 10.0)], &FifoFirstFit).expect("fits");
        let expected: Vec<(usize, usize)> = (0..8).map(|s| (s, 8)).collect();
        assert_eq!(p[0].assignment, expected);
    }

    #[test]
    fn exact_fill_succeeds() {
        let c = cluster();
        let mix: Vec<JobTemplate> = (0..64).map(|i| job(i, 8, 10.0)).collect();
        let p = place_mix(&c, &mix, &FifoFirstFit).expect("perfect fit");
        // Every job owns a full server: 8 sharers, all its own.
        for (i, placed) in p.iter().enumerate() {
            assert_eq!(placed.assignment, vec![(i, 8)]);
            assert_eq!(placed.step_time_s, shared(&c, &mix[i], 8));
        }
    }

    #[test]
    fn faster_ethernet_shrinks_contended_slowdown() {
        // Sec. VI-B1: high-bandwidth interconnects help communication-
        // bound co-located mixes.
        let mix = [job(0, 4, 500.0), job(1, 4, 500.0)];
        let slow = place_mix(&cluster(), &mix, &FifoFirstFit).expect("fits");
        let fast_cluster = ClusterSpec::new(
            *cluster().server(),
            64,
            LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gbit_per_sec(100.0), 0.7),
        );
        let fast = place_mix(&fast_cluster, &mix, &FifoFirstFit).expect("fits");
        assert!(fast[0].step_time_s < slow[0].step_time_s);
    }

    #[test]
    fn empty_mix_is_a_valid_placement() {
        let p = place_mix(&cluster(), &[], &FifoFirstFit).expect("empty mix");
        assert!(p.is_empty());
    }

    #[test]
    fn rejects_empty_job() {
        let err = place_mix(&cluster(), &[job(7, 0, 1.0)], &FifoFirstFit).expect_err("empty");
        assert_eq!(err, SchedError::EmptyJob { id: 7 });
    }

    #[test]
    fn rejects_overcommit() {
        let err = place_mix(&cluster(), &[job(0, 513, 1.0)], &FifoFirstFit).expect_err("too big");
        assert_eq!(
            err,
            SchedError::JobTooLarge {
                id: 0,
                requested: 513,
                capacity: 512
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn oversized_job_is_a_typed_error_not_a_panic() {
        let c = cluster();
        let err = place_mix(&c, &[job(0, 1_000, 1.0)], &FifoFirstFit).expect_err("too wide");
        assert!(matches!(err, SchedError::JobTooLarge { .. }));
        // A mix wider than the cluster fails at the first job the free
        // GPUs cannot hold, naming what was left.
        let mut mix: Vec<JobTemplate> = (0..60).map(|i| job(i, 8, 1.0)).collect();
        mix.push(job(60, 40, 1.0));
        assert_eq!(
            place_mix(&c, &mix, &FifoFirstFit).unwrap_err(),
            SchedError::JobTooLarge {
                id: 60,
                requested: 40,
                capacity: 32
            }
        );
    }

    /// Refuses every gang.
    struct RefuseAll;
    impl Policy for RefuseAll {
        fn name(&self) -> &'static str {
            "refuse-all"
        }
        fn place(
            &self,
            _: usize,
            _: SyncClass,
            _: &FreeGpus<'_>,
            _: &mut Vec<(usize, usize)>,
        ) -> bool {
            false
        }
    }

    /// Puts every gang twice on server 0.
    struct Overcommit;
    impl Policy for Overcommit {
        fn name(&self) -> &'static str {
            "overcommit"
        }
        fn place(
            &self,
            cnodes: usize,
            _: SyncClass,
            _: &FreeGpus<'_>,
            out: &mut Vec<(usize, usize)>,
        ) -> bool {
            out.extend([(0, cnodes), (0, cnodes)]);
            true
        }
    }

    #[test]
    fn misbehaving_policies_are_typed_errors() {
        let mix = [job(3, 4, 1.0)];
        assert_eq!(
            place_mix(&cluster(), &mix, &RefuseAll).unwrap_err(),
            SchedError::Stalled {
                policy: "refuse-all",
                job: 3
            }
        );
        assert_eq!(
            place_mix(&cluster(), &mix, &Overcommit).unwrap_err(),
            SchedError::InvalidAssignment {
                policy: "overcommit",
                job: 3
            }
        );
    }
}
