//! Property tests for placing a job mix on an idle testbed
//! ([`pai_sched::place_mix`]).

use pai_core::{Architecture, WorkloadFeatures};
use pai_hw::{Bytes, ClusterSpec, Seconds};
use pai_predict::Signature;
use pai_sched::{place_mix, FifoFirstFit, JobTemplate, SchedError, SyncClass};
use pai_trace::JobRecord;
use proptest::prelude::*;

/// A PS/Worker gang with 10 ms off the NIC and 10 MB of weights.
fn gang(id: usize, cnodes: usize) -> JobTemplate {
    let features = WorkloadFeatures::builder(Architecture::PsWorker)
        .cnodes(cnodes.max(2))
        .weight_bytes(Bytes::from_mb(10.0))
        .build();
    JobTemplate {
        record: JobRecord { id, features },
        cnodes,
        compute_time: Seconds::from_millis(10.0),
        weight_bytes: features.weight_bytes(),
        sync: SyncClass::Ethernet,
        local_sync_time: Seconds::ZERO,
        signature: Signature::of(&features),
    }
}

proptest! {
    #[test]
    fn placement_respects_capacity_and_places_everyone(
        sizes in proptest::collection::vec(1usize..64, 1..40),
    ) {
        let cluster = ClusterSpec::testbed(0.7);
        let total: usize = sizes.iter().sum();
        let mix: Vec<JobTemplate> = sizes.iter().enumerate().map(|(i, &n)| gang(i, n)).collect();
        match place_mix(&cluster, &mix, &FifoFirstFit) {
            Ok(placed) => {
                prop_assert!(total <= cluster.total_gpus());
                prop_assert_eq!(placed.len(), mix.len());
                for (job, p) in mix.iter().zip(&placed) {
                    let solo = job.solo_step(&cluster).as_f64();
                    let eth = cluster.ethernet().transfer_time(job.weight_bytes).as_f64();
                    // Every job experiences at least its solo time and at
                    // most full-server NIC sharing: a server NIC is shared
                    // by at most its 8 GPU slots.
                    prop_assert!(p.step_time_s >= solo * (1.0 - 1e-12));
                    prop_assert!(p.step_time_s <= (job.compute_time.as_f64() + 8.0 * eth) * (1.0 + 1e-12));
                    prop_assert!(p.assignment.len() >= job.cnodes.div_ceil(8));
                    prop_assert_eq!(p.assignment.iter().map(|&(_, n)| n).sum::<usize>(), job.cnodes);
                }
            }
            Err(err) => {
                prop_assert!(total > cluster.total_gpus());
                prop_assert!(matches!(err, SchedError::JobTooLarge { .. }), "{}", err);
            }
        }
    }
}
