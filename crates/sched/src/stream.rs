//! Turning a `pai-trace` population into a deterministic arrival
//! stream.
//!
//! The trace paper characterizes a fleet snapshot, not a submission
//! log, so arrivals are synthesized: exponential inter-arrival gaps
//! and log-uniform step counts, both drawn from `pai-par`'s
//! [`derive_seed`] counter streams. Lane `3i` seeds job `i`'s arrival
//! gap and lane `3i + 1` its step count, so the stream for a given
//! `(population, seed)` is bit-identical no matter which thread
//! realizes it — the property the policy × seed sweep's
//! serial≡parallel oracle rests on. Crashes come from
//! `pai-trace`'s calibrated [`FailureSampler`], which is itself
//! deterministic in `(job id, seed)`.

use pai_core::PerfModel;
use pai_faults::FaultKind;
use pai_hw::{Bytes, ClusterSpec, Seconds};
use pai_par::derive_seed;
use pai_predict::Signature;
use pai_trace::{FailureSampler, JobRecord};
use serde::{Deserialize, Serialize};

use crate::error::SchedError;
use crate::job::{CrashPoint, SchedJob, SyncClass};

/// One population job, pre-priced by the analytical model and ready
/// to be realized into an arrival at any seed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTemplate {
    /// The trace record (crash sampling keys off its id and class).
    pub record: JobRecord,
    /// Replica count.
    pub cnodes: usize,
    /// Per-step time off the NIC (data I/O + compute + memory).
    pub compute_time: Seconds,
    /// Per-step weight volume per replica.
    pub weight_bytes: Bytes,
    /// The medium the weight synchronization rides.
    pub sync: SyncClass,
    /// Per-step intra-server synchronization time.
    pub local_sync_time: Seconds,
    /// The pre-run feature tuple the duration predictor keys on.
    pub signature: Signature,
}

impl JobTemplate {
    /// Best-case (uncontended, locality-respecting) step time —
    /// [`SchedJob::solo_step`] before the step count is realized.
    pub fn solo_step(&self, cluster: &ClusterSpec) -> Seconds {
        self.sync.solo_step(
            self.compute_time,
            self.local_sync_time,
            self.weight_bytes,
            cluster,
        )
    }
}

/// Prices every job with the analytical model, dropping jobs wider
/// than `capacity` GPUs (the trace's PS giants span up to 2048
/// cNodes; the 512-GPU testbed can never gang-schedule them).
/// Accepts any [`pai_core::Jobs`] storage — a borrowed columnar
/// store, a `Population`, or a plain slice. The off-NIC time is the
/// model's `data_io + computation`, the sync time its
/// `weight_traffic`. Returns the templates in job order plus the
/// dropped count — callers must surface the drop, not hide it.
pub fn templates_from_population<J: pai_core::Jobs + ?Sized>(
    model: &PerfModel,
    jobs: &J,
    capacity: usize,
) -> (Vec<JobTemplate>, usize) {
    let mut templates = Vec::with_capacity(jobs.len());
    let mut dropped = 0usize;
    for i in 0..jobs.len() {
        let features = jobs.get(i);
        let cnodes = features.cnodes();
        if cnodes == 0 || cnodes > capacity {
            dropped += 1;
            continue;
        }
        let ct = model.component_times(&features);
        let signature = Signature::of(&features);
        templates.push(JobTemplate {
            record: JobRecord {
                id: jobs.id_at(i),
                features,
            },
            cnodes,
            compute_time: ct.data_io + ct.computation(),
            weight_bytes: features.weight_bytes(),
            sync: SyncClass::of(features.arch()),
            local_sync_time: ct.weight_traffic,
            signature,
        });
    }
    (templates, dropped)
}

/// Parameters of the synthesized arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Mean of the exponential inter-arrival gap.
    pub mean_interarrival: Seconds,
    /// Inclusive log-uniform range of per-job step counts.
    pub steps_range: (usize, usize),
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        // A dense default for unit tests and short streams. Real runs
        // should calibrate against the cluster and population with
        // [`ArrivalConfig::for_offered_load`] — a fixed gap cannot be
        // stable for every workload mix.
        ArrivalConfig {
            mean_interarrival: Seconds::from_f64(2.0),
            steps_range: (50, 500),
        }
    }
}

/// Expected step count under the log-uniform draw over `[lo, hi]` —
/// what the arrival-process configuration implies analytically, so
/// cold-start duration priors can be built without peeking at any
/// realized stream.
pub fn expected_steps(lo: usize, hi: usize) -> f64 {
    if lo >= hi {
        return lo as f64;
    }
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    (hi as f64 - lo as f64) / (lhi - llo)
}

impl ArrivalConfig {
    /// Calibrates the mean inter-arrival gap so the expected offered
    /// load — mean solo GPU-work per job over the gap — equals
    /// `target_load` of the cluster's GPU capacity. At 0.7 the queue
    /// forms and drains; this is the regime where policies differ
    /// (past 1.0 the backlog diverges and every policy degenerates to
    /// a batch drain).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoJobs`] for an empty template set and
    /// [`SchedError::InvalidArrival`] for a non-positive or non-finite
    /// `target_load` or an invalid `steps_range`.
    pub fn for_offered_load(
        templates: &[JobTemplate],
        cluster: &ClusterSpec,
        target_load: f64,
        steps_range: (usize, usize),
    ) -> Result<ArrivalConfig, SchedError> {
        if templates.is_empty() {
            return Err(SchedError::NoJobs);
        }
        if !target_load.is_finite() || target_load <= 0.0 {
            return Err(SchedError::InvalidArrival {
                name: "target load",
                value: target_load,
            });
        }
        let probe = ArrivalConfig {
            mean_interarrival: Seconds::from_f64(1.0),
            steps_range,
        };
        probe.validate()?;
        let mean_work_per_job = templates
            .iter()
            .map(|t| t.cnodes as f64 * t.solo_step(cluster).as_f64())
            .sum::<f64>()
            / templates.len() as f64
            * expected_steps(steps_range.0, steps_range.1);
        let capacity = target_load * cluster.total_gpus() as f64;
        Ok(ArrivalConfig {
            mean_interarrival: Seconds::from_f64(mean_work_per_job / capacity),
            steps_range,
        })
    }

    /// Validates both parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidArrival`] naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), SchedError> {
        let mean = self.mean_interarrival.as_f64();
        if !mean.is_finite() || mean <= 0.0 {
            return Err(SchedError::InvalidArrival {
                name: "mean inter-arrival",
                value: mean,
            });
        }
        let (lo, hi) = self.steps_range;
        if lo == 0 || hi < lo {
            return Err(SchedError::InvalidArrival {
                name: "steps range",
                value: hi as f64,
            });
        }
        Ok(())
    }
}

/// A uniform draw in `[0, 1)` from the `derive_seed` counter stream.
fn unit(seed: u64, lane: u64) -> f64 {
    // Top 53 bits — the full f64 mantissa.
    (derive_seed(seed, lane) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A log-uniform integer in `[lo, hi]` (both `>= 1`).
fn log_uniform_steps(u: f64, lo: usize, hi: usize) -> usize {
    if lo >= hi {
        return lo;
    }
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let drawn = (llo + u * (lhi - llo)).exp().round() as usize;
    drawn.clamp(lo, hi)
}

/// Realizes the arrival stream for one seed: cumulative exponential
/// arrival times, log-uniform step counts, and the calibrated crash
/// plan of every job. Ids are assigned in template (population)
/// order, which is also arrival order.
///
/// # Errors
///
/// Returns [`SchedError::InvalidArrival`] for a bad config and
/// propagates failure-sampling errors.
pub fn realize_stream(
    templates: &[JobTemplate],
    arrival: &ArrivalConfig,
    failures: &FailureSampler,
    seed: u64,
) -> Result<Vec<SchedJob>, SchedError> {
    arrival.validate()?;
    let mean = arrival.mean_interarrival.as_f64();
    let (lo, hi) = arrival.steps_range;
    let mut jobs = Vec::with_capacity(templates.len());
    let mut clock = 0.0f64;
    for (i, tpl) in templates.iter().enumerate() {
        let lane = 3 * i as u64;
        // u in [0, 1) makes 1 - u in (0, 1]: ln is finite, gap >= 0.
        clock += -mean * (1.0 - unit(seed, lane)).ln();
        let steps = log_uniform_steps(unit(seed, lane + 1), lo, hi);
        let plan = failures.sample_plan(&tpl.record, steps, seed)?;
        let mut crashes: Vec<CrashPoint> = plan
            .faults()
            .iter()
            .filter_map(|fault| match *fault {
                FaultKind::Crash {
                    at_step,
                    restart,
                    lost_steps,
                    ..
                } => Some(CrashPoint {
                    at_step,
                    restart,
                    lost_steps,
                }),
                _ => None,
            })
            .collect();
        crashes.sort_by_key(|c| c.at_step);
        jobs.push(SchedJob {
            id: i,
            arrival: Seconds::from_f64(clock),
            steps,
            cnodes: tpl.cnodes,
            compute_time: tpl.compute_time,
            weight_bytes: tpl.weight_bytes,
            sync: tpl.sync,
            local_sync_time: tpl.local_sync_time,
            signature: tpl.signature,
            crashes,
        });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_trace::{Population, PopulationConfig};

    fn population(jobs: usize) -> Population {
        let config = PopulationConfig::paper_scale(jobs).expect("valid scale");
        Population::generate(&config, 7).expect("valid config")
    }

    fn templates() -> Vec<JobTemplate> {
        let model = PerfModel::paper_default();
        templates_from_population(&model, &population(300), 512).0
    }

    #[test]
    fn oversized_jobs_are_dropped_and_counted() {
        let model = PerfModel::paper_default();
        let pop = population(2_000);
        let (kept, dropped) = templates_from_population(&model, &pop, 512);
        assert_eq!(kept.len() + dropped, pop.len());
        assert!(kept.iter().all(|t| t.cnodes <= 512));
        // A tighter capacity drops more.
        let (kept8, dropped8) = templates_from_population(&model, &pop, 8);
        assert!(dropped8 > dropped);
        assert!(kept8.iter().all(|t| t.cnodes <= 8));
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let tpls = templates();
        let failures = FailureSampler::paper_calibrated();
        let cfg = ArrivalConfig::default();
        let a = realize_stream(&tpls, &cfg, &failures, 42).expect("valid");
        let b = realize_stream(&tpls, &cfg, &failures, 42).expect("valid");
        assert_eq!(a, b);
        let c = realize_stream(&tpls, &cfg, &failures, 43).expect("valid");
        assert_ne!(a, c, "a different seed must realize a different stream");
    }

    #[test]
    fn arrivals_are_sorted_and_steps_in_range() {
        let tpls = templates();
        let failures = FailureSampler::paper_calibrated();
        let cfg = ArrivalConfig::default();
        let stream = realize_stream(&tpls, &cfg, &failures, 11).expect("valid");
        assert_eq!(stream.len(), tpls.len());
        for pair in stream.windows(2) {
            assert!(pair[1].arrival.as_f64() >= pair[0].arrival.as_f64());
        }
        let (lo, hi) = cfg.steps_range;
        for job in &stream {
            assert!((lo..=hi).contains(&job.steps));
            for pair in job.crashes.windows(2) {
                assert!(pair[0].at_step <= pair[1].at_step);
            }
            for crash in &job.crashes {
                assert!(crash.at_step < job.steps);
            }
        }
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let tpls = templates();
        let failures = FailureSampler::paper_calibrated();
        let zero_mean = ArrivalConfig {
            mean_interarrival: Seconds::ZERO,
            ..ArrivalConfig::default()
        };
        assert!(matches!(
            realize_stream(&tpls, &zero_mean, &failures, 1),
            Err(SchedError::InvalidArrival { .. })
        ));
        let empty_range = ArrivalConfig {
            steps_range: (10, 9),
            ..ArrivalConfig::default()
        };
        assert!(empty_range.validate().is_err());
        let zero_lo = ArrivalConfig {
            steps_range: (0, 9),
            ..ArrivalConfig::default()
        };
        assert!(zero_lo.validate().is_err());
    }

    #[test]
    fn offered_load_calibration_scales_inversely_with_load() {
        let tpls = templates();
        let cluster = ClusterSpec::testbed(0.7);
        let at_70 =
            ArrivalConfig::for_offered_load(&tpls, &cluster, 0.7, (50, 500)).expect("valid load");
        let at_35 =
            ArrivalConfig::for_offered_load(&tpls, &cluster, 0.35, (50, 500)).expect("valid load");
        assert!(at_70.mean_interarrival.as_f64() > 0.0);
        // Half the load means double the gap.
        let ratio = at_35.mean_interarrival.as_f64() / at_70.mean_interarrival.as_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        assert!(at_70.validate().is_ok());

        assert!(matches!(
            ArrivalConfig::for_offered_load(&[], &cluster, 0.7, (50, 500)),
            Err(SchedError::NoJobs)
        ));
        assert!(matches!(
            ArrivalConfig::for_offered_load(&tpls, &cluster, 0.0, (50, 500)),
            Err(SchedError::InvalidArrival { .. })
        ));
        assert!(ArrivalConfig::for_offered_load(&tpls, &cluster, 0.7, (0, 500)).is_err());
    }

    #[test]
    fn expected_steps_matches_the_log_uniform_mean() {
        // Degenerate range: the point mass.
        assert_eq!(expected_steps(9, 9), 9.0);
        // (hi - lo) / ln(hi / lo), inside the range and below the
        // arithmetic midpoint (the draw is log-skewed toward lo).
        let e = expected_steps(50, 500);
        assert!(e > 50.0 && e < 275.0, "expected steps {e}");
        assert!((e - 450.0 / 10.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn log_uniform_endpoints_and_degenerate_range() {
        assert_eq!(log_uniform_steps(0.0, 50, 500), 50);
        assert_eq!(log_uniform_steps(0.999_999_999, 50, 500), 500);
        assert_eq!(log_uniform_steps(0.7, 9, 9), 9);
    }
}
