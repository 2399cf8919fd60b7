//! The predictive-scheduling contracts from the ISSUE:
//!
//! 1. QSSF fed by a *perfect* predictor (the oracle source) is the
//!    SJF oracle — event logs match byte for byte;
//! 2. QSSF under *adversarially inverted* predictions (the longest
//!    job claims to be shortest) still terminates, with a finite
//!    bounded slowdown for every job — the starvation bound at work;
//! 3. the online-history QSSF actually reorders the queue (its event
//!    log differs from FIFO's) while completing the same work;
//! 4. under a short starvation age, where both the escalated oldest
//!    entry and key order serve dispatches, the event log is the one
//!    the linear-scan queue produced.

use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_sched::{
    engine::run_ordered, realize_stream, templates_from_population, ArrivalConfig, EventKind,
    EventRecord, PolicyKind, PredictorSource, QssfConfig, QueueOrder, SchedConfig, SchedJob,
    QSSF_STARVATION_AGE_S,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};

fn stream(jobs: usize, seed: u64) -> (ClusterSpec, Vec<SchedJob>) {
    let cluster = ClusterSpec::testbed(0.7);
    let config = PopulationConfig::paper_scale(jobs).expect("valid scale");
    let population = Population::generate(&config, seed).expect("valid config");
    let model = PerfModel::paper_default();
    let (templates, _) = templates_from_population(&model, &population, cluster.total_gpus());
    let failures = FailureSampler::paper_calibrated();
    let jobs = realize_stream(&templates, &ArrivalConfig::default(), &failures, seed)
        .expect("valid stream");
    (cluster, jobs)
}

fn qssf(predictor: PredictorSource) -> QueueOrder {
    QueueOrder::Qssf(QssfConfig {
        predictor,
        starvation_age_s: QSSF_STARVATION_AGE_S,
    })
}

#[test]
fn oracle_fed_qssf_is_the_sjf_oracle_byte_for_byte() {
    let (cluster, jobs) = stream(600, 23);
    let policy = PolicyKind::Qssf.policy();
    let config = SchedConfig::default();
    let fed = run_ordered(
        &cluster,
        &jobs,
        policy,
        &qssf(PredictorSource::Oracle),
        &config,
    )
    .expect("runs");
    let oracle =
        run_ordered(&cluster, &jobs, policy, &QueueOrder::SjfOracle, &config).expect("runs");
    assert_eq!(
        fed.events, oracle.events,
        "a perfect predictor must reproduce the oracle's schedule"
    );
    assert_eq!(fed.jobs, oracle.jobs);
    assert_eq!(fed.cluster, oracle.cluster);
    // Perfect predictions: the calibration reports zero error.
    let report = fed.prediction.expect("predictive run calibrates");
    assert_eq!(report.jobs, jobs.len());
    assert!(report.mape < 1e-9, "oracle MAPE {}", report.mape);
    assert!(report.p90_rel_err < 1e-9);
}

#[test]
fn adversarial_mispredictions_terminate_with_finite_slowdowns() {
    let (cluster, jobs) = stream(600, 41);
    let policy = PolicyKind::Qssf.policy();
    let config = SchedConfig::default();
    let out = run_ordered(
        &cluster,
        &jobs,
        policy,
        &qssf(PredictorSource::InvertedOracle),
        &config,
    )
    .expect("the starvation bound must keep the run terminating");
    assert_eq!(out.cluster.jobs, jobs.len());
    for job in &out.jobs {
        assert!(
            job.slowdown.is_finite() && job.slowdown >= 1.0 - 1e-9,
            "job {} slowdown {} must stay finite under inverted predictions",
            job.id,
            job.slowdown
        );
        assert!(job.finish_s.is_finite() && job.finish_s >= job.arrival_s);
    }
    assert!(out.cluster.mean_slowdown.is_finite());
}

#[test]
fn online_qssf_reorders_the_queue_and_completes_the_same_work() {
    let (cluster, jobs) = stream(600, 57);
    let config = SchedConfig::default();
    let fifo = run_ordered(
        &cluster,
        &jobs,
        PolicyKind::FifoFirstFit.policy(),
        &QueueOrder::Fifo,
        &config,
    )
    .expect("runs");
    let priors = pai_sched::class_priors_from_jobs(&jobs, &cluster);
    let online = run_ordered(
        &cluster,
        &jobs,
        PolicyKind::Qssf.policy(),
        &qssf(PredictorSource::History(
            pai_predict::HistoryConfig::with_priors(57, priors),
        )),
        &config,
    )
    .expect("runs");
    assert_eq!(online.cluster.jobs, fifo.cluster.jobs);
    assert_ne!(
        online.events, fifo.events,
        "the predictive ordering must actually reorder the queue"
    );
    let report = online.prediction.expect("predictive run calibrates");
    assert_eq!(report.jobs, jobs.len());
    assert!(report.mape.is_finite());
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

/// Replays the queue from an event log and counts the dispatches each
/// path served: `(escalated, key order)`. A start of the oldest queued
/// entry once it has waited `age` is the starvation bound's; any other
/// start is key order's.
fn dispatch_split(events: &[EventRecord], age: f64) -> (usize, usize) {
    let mut queued: Vec<(usize, f64)> = Vec::new();
    let (mut escalated, mut keyed) = (0, 0);
    for e in events {
        match e.kind {
            EventKind::Arrive | EventKind::Requeue => queued.push((e.job, e.time_s)),
            EventKind::Start => {
                let pos = queued
                    .iter()
                    .position(|&(job, _)| job == e.job)
                    .expect("a started job was queued");
                if pos == 0 && e.time_s - queued[0].1 >= age {
                    escalated += 1;
                } else {
                    keyed += 1;
                }
                queued.remove(pos);
            }
            EventKind::Finish | EventKind::Crash => {}
        }
    }
    (escalated, keyed)
}

#[test]
fn short_starvation_age_mixes_both_paths_and_keeps_the_scan_event_log() {
    const AGE_S: f64 = 300.0;
    let (cluster, jobs) = stream(600, 57);
    let priors = pai_sched::class_priors_from_jobs(&jobs, &cluster);
    let order = QueueOrder::Qssf(QssfConfig {
        predictor: PredictorSource::History(pai_predict::HistoryConfig::with_priors(57, priors)),
        starvation_age_s: AGE_S,
    });
    let out = run_ordered(
        &cluster,
        &jobs,
        PolicyKind::Qssf.policy(),
        &order,
        &SchedConfig::default(),
    )
    .expect("runs");
    let (escalated, keyed) = dispatch_split(&out.events, AGE_S);
    assert_eq!(
        (escalated, keyed),
        (311, 317),
        "both paths must serve dispatches"
    );
    // The log the linear-scan head selection produces on this stream;
    // the ready-queue index must reproduce it bit for bit.
    assert_eq!(
        (out.events.len(), log_digest(&out.events)),
        (1884, 0x74d4_f15e_4b5b_3e61),
        "the event log must not change"
    );
}
