//! Incremental characterization: mergeable per-chunk accumulators and
//! the resident-column what-if query layer.
//!
//! The Sec. III headline numbers used to be recomputed by re-walking
//! the whole population once per question. This module maintains them
//! *online* instead:
//!
//! - [`HeadlineAccum`] folds one job at a time into bounded state
//!   (counters, running fraction sums, fixed-bin histograms) and merges
//!   with another accumulator in O(1). Ingesting a job performs **no
//!   heap allocation**, so a 10M-job stream characterizes in constant
//!   memory.
//! - [`characterize`] evaluates a whole [`Jobs`] store through
//!   [`pai_par::fold_chunks`], whose pinned left-to-right chunk-merge
//!   order makes the result bit-for-bit identical at every thread
//!   count — and identical to an incremental consumer that folds the
//!   same fixed-size chunks in arrival order.
//! - [`WhatIfIndex`] keeps three resident `f64` columns per PS/Worker
//!   job (`Td+Tc`, the Ethernet leg of `Tw`, the PCIe leg of `Tw`) and
//!   answers "speedup CDF if Ethernet → X Gbps" by one arithmetic pass
//!   over the columns — no model re-evaluation, no re-walk of the
//!   features.
//!
//! # Merge law
//!
//! `HeadlineAccum::merge` adds counters and partial sums. Counter
//! addition is associative and commutative; floating-point partial
//! sums are *not* associative, which is exactly why every consumer —
//! batch, parallel, streaming — folds chunk accumulators in the same
//! fixed chunk-index order (see [`pai_par::fold_chunks`]). Under that
//! discipline the merged state is a pure function of `(model, jobs)`.

use pai_hw::{Bandwidth, LinkKind, Seconds};
use pai_par::{ChunkedVec, Threads, DEFAULT_CHUNK_SIZE};
use serde::Serialize;

use crate::arch::Architecture;
use crate::codec::{ByteReader, ByteWriter, CheckpointError};
use crate::features::{FeatureViolation, WorkloadFeatures};
use crate::jobs::{IngestSink, Jobs};
use crate::model::{ComponentTimes, Eq1Terms, PerfModel};
use crate::project::{comm_bound_speedup, project_priced, ProjectionTarget};

/// Models under this weight volume count as "small" (Sec. III-D: 90 %
/// of jobs train models under 10 GB).
const SMALL_MODEL_GB: f64 = 10.0;

/// The Fig. 8d tail threshold: PS jobs spending more than 80 % of a
/// step on weight communication.
const HIGH_COMM_FRACTION: f64 = 0.8;

/// The paper's headline what-if Ethernet bandwidth (Abstract: mean
/// 1.7× PS speedup from upgrading 25 GbE to 100 GbE).
const ETH_100G_GBPS: f64 = 100.0;

/// Bin count of [`FracHist`]: resolution 1/256 over `[0, 1]`.
const FRAC_BINS: usize = 256;

/// Speedup histogram bins per unit of speedup (resolution 1/64).
const SPEEDUP_RESOLUTION: usize = 64;

/// Speedup histogram range: `[0, 32)` — comfortably past the Eq. 3
/// bound of 21×; larger speedups clamp into the last bin.
const SPEEDUP_BINS: usize = 32 * SPEEDUP_RESOLUTION;

/// A fixed-bin histogram over `[0, 1]` with 1/256 resolution.
///
/// The bounded-memory stand-in for a full [`crate::stats::Ecdf`]: it
/// records a fraction per job but holds 256 counters total, merges by
/// elementwise addition (exact integer arithmetic, so merge order
/// never matters), and answers quantile queries to bin resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct FracHist {
    bins: Vec<u64>,
}

impl FracHist {
    /// An empty histogram.
    pub fn new() -> FracHist {
        FracHist {
            bins: vec![0; FRAC_BINS],
        }
    }

    /// Records one value; values at or above 1 land in the last bin.
    pub fn record(&mut self, value: f64) {
        let bin = ((value * FRAC_BINS as f64) as usize).min(FRAC_BINS - 1);
        self.bins[bin] += 1;
    }

    /// Total recorded count.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &FracHist) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// The `q`-quantile as the upper edge of the first bin whose
    /// cumulative count reaches `q × total`.
    ///
    /// Total for every input: an empty histogram or a non-finite `q`
    /// answers 0, and `q` outside `[0, 1]` clamps to the nearest
    /// defined quantile — never NaN, never a panic.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 || !q.is_finite() {
            return 0.0;
        }
        let threshold = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (bin, &count) in self.bins.iter().enumerate() {
            cum += count;
            if cum as f64 >= threshold {
                return (bin + 1) as f64 / FRAC_BINS as f64;
            }
        }
        1.0
    }

    /// Fraction of recorded values at most `value` (bin resolution).
    pub fn fraction_at_most(&self, value: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let last = ((value * FRAC_BINS as f64) as usize).min(FRAC_BINS - 1);
        let cum: u64 = self.bins[..=last].iter().sum();
        cum as f64 / total as f64
    }

    /// Appends the histogram to a checkpoint payload: a bin-count
    /// prefix, then each bin as a little-endian `u64`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(FRAC_BINS as u32);
        for &bin in &self.bins {
            w.put_u64(bin);
        }
    }

    /// Decodes a histogram previously written by
    /// [`FracHist::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the payload ends early and
    /// [`CheckpointError::InvalidField`] when the bin count is not the
    /// 256 bins this build uses.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<FracHist, CheckpointError> {
        let bins_len = r.u32()? as usize;
        if bins_len != FRAC_BINS {
            return Err(CheckpointError::InvalidField {
                field: "comm_hist.bins",
            });
        }
        let mut bins = vec![0u64; FRAC_BINS];
        for bin in &mut bins {
            *bin = r.u64()?;
        }
        Ok(FracHist { bins })
    }
}

impl Default for FracHist {
    fn default() -> Self {
        FracHist::new()
    }
}

/// The mergeable, bounded-memory accumulator behind every headline
/// number of the Sec. III characterization.
///
/// Feed it jobs with [`HeadlineAccum::ingest`] (no per-job heap
/// allocation), combine chunk partials with [`HeadlineAccum::merge`]
/// in chunk-index order, and read the finished statistics with
/// [`HeadlineAccum::stats`] at any point — the accumulator is never
/// consumed, so a streaming session can snapshot mid-stream.
#[derive(Debug, Clone)]
pub struct HeadlineAccum {
    model: PerfModel,
    eth_100g_scale: f64,
    jobs: u64,
    class_counts: [u64; 5],
    cnode_totals: [u64; 5],
    small_models: u64,
    analyzed_jobs: u64,
    analyzed_cnodes: f64,
    frac_job_sum: [f64; 4],
    frac_cnode_sum: [f64; 4],
    ps_jobs: u64,
    ps_over80: u64,
    comm_hist: FracHist,
    eth_ratio_sum: f64,
    arl_eligible: u64,
    arl_improved: u64,
    arl_not_sped: u64,
    arl_speedup_sum: f64,
    arc_eligible: u64,
    arc_sped: u64,
    arc_speedup_sum: f64,
    quarantined: [u64; FeatureViolation::REASONS],
}

impl HeadlineAccum {
    /// An empty accumulator characterizing against `model`.
    pub fn new(model: PerfModel) -> HeadlineAccum {
        let base_eth = model
            .config()
            .link(LinkKind::Ethernet)
            .bandwidth()
            .as_bytes_per_sec();
        HeadlineAccum {
            model,
            // Per-job Ethernet time scales inversely with bandwidth.
            // At the Table I baseline this is 25/100 = 0.25 — a power
            // of two, so the scaled time is bit-identical to a full
            // re-evaluation at 100 GbE.
            eth_100g_scale: base_eth
                / Bandwidth::from_gbit_per_sec(ETH_100G_GBPS).as_bytes_per_sec(),
            jobs: 0,
            class_counts: [0; 5],
            cnode_totals: [0; 5],
            small_models: 0,
            analyzed_jobs: 0,
            analyzed_cnodes: 0.0,
            frac_job_sum: [0.0; 4],
            frac_cnode_sum: [0.0; 4],
            ps_jobs: 0,
            ps_over80: 0,
            comm_hist: FracHist::new(),
            eth_ratio_sum: 0.0,
            arl_eligible: 0,
            arl_improved: 0,
            arl_not_sped: 0,
            arl_speedup_sum: 0.0,
            arc_eligible: 0,
            arc_sped: 0,
            arc_speedup_sum: 0.0,
            quarantined: [0; FeatureViolation::REASONS],
        }
    }

    /// The model this accumulator characterizes against.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Jobs ingested so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Folds one job into the running statistics.
    ///
    /// This is the streaming hot path: it evaluates the analytical
    /// model ([`PerfModel::terms`] and their combination, two
    /// projections, the 100 GbE what-if) entirely on the stack — no
    /// heap allocation per job, so memory stays bounded at any stream
    /// length.
    pub fn ingest(&mut self, job: &WorkloadFeatures) {
        let idx = job.arch().index();
        self.jobs += 1;
        self.class_counts[idx] += 1;
        self.cnode_totals[idx] += job.cnodes() as u64;
        if job.weight_bytes().as_gb() < SMALL_MODEL_GB {
            self.small_models += 1;
        }
        let terms = self.model.terms(job);
        let ct = self.model.combine(&terms);
        // The three classes whose breakdowns Sec. III-B/D aggregates
        // (Fig. 7): 1w1g, 1wng and PS/Worker.
        if matches!(
            job.arch(),
            Architecture::OneWorkerOneGpu
                | Architecture::OneWorkerMultiGpu
                | Architecture::PsWorker
        ) {
            let f = ct.fractions();
            let w = job.cnodes() as f64;
            for (k, frac) in f.iter().enumerate() {
                self.frac_job_sum[k] += frac;
                self.frac_cnode_sum[k] += w * frac;
            }
            self.analyzed_jobs += 1;
            self.analyzed_cnodes += w;
        }
        if job.arch() == Architecture::PsWorker {
            self.ingest_ps(job, &terms, &ct);
        }
    }

    /// The PS/Worker-only statistics: comm tail, projections, 100 GbE.
    fn ingest_ps(&mut self, job: &WorkloadFeatures, terms: &Eq1Terms, ct: &ComponentTimes) {
        self.ps_jobs += 1;
        let wf = ct.weight_fraction();
        if wf > HIGH_COMM_FRACTION {
            self.ps_over80 += 1;
        }
        self.comm_hist.record(wf);

        // Mean PS speedup from upgrading Ethernet to 100 Gbps: only
        // the Ethernet leg of Tw changes, so the projected total is
        // reassembled from the same parts in the same fold order as
        // `PerfModel::combine` — bit-identical to re-evaluating the
        // model under the upgraded configuration. PS/Worker's Table II
        // path is Ethernet, then PCIe.
        let [eth, pcie] = terms.weight.map(Seconds::as_f64);
        let base = ct.data_io.as_f64() + ct.computation().as_f64();
        let fast_total = base + (eth * self.eth_100g_scale + pcie);
        self.eth_ratio_sum += if fast_total > 0.0 {
            ct.total.as_f64() / fast_total
        } else {
            // A degenerate all-zero job neither speeds up nor slows
            // down; count it as 1x rather than poisoning the mean.
            1.0
        };

        // Both projections reuse the step time priced above.
        let original_step = || ct.total;
        if let Some(out) = project_priced(
            &self.model,
            job,
            ProjectionTarget::AllReduceLocal,
            original_step,
        ) {
            self.arl_eligible += 1;
            self.arl_speedup_sum += out.single_cnode_speedup;
            if out.improves_throughput() {
                self.arl_improved += 1;
            }
            if out.single_cnode_speedup <= 1.0 {
                self.arl_not_sped += 1;
            }
        }
        if let Some(out) = project_priced(
            &self.model,
            job,
            ProjectionTarget::AllReduceCluster,
            original_step,
        ) {
            self.arc_eligible += 1;
            self.arc_speedup_sum += out.single_cnode_speedup;
            if out.single_cnode_speedup > 1.0 {
                self.arc_sped += 1;
            }
        }
    }

    /// Adds another accumulator's state into this one.
    ///
    /// Callers must merge chunk partials **in chunk-index order**
    /// (what [`pai_par::fold_chunks`] pins) for the floating-point
    /// partial sums to be reproducible across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators characterize against different
    /// models — their statistics would not be comparable.
    pub fn merge(&mut self, other: &HeadlineAccum) {
        assert_eq!(
            self.model, other.model,
            "cannot merge accumulators over different models"
        );
        self.jobs += other.jobs;
        for k in 0..5 {
            self.class_counts[k] += other.class_counts[k];
            self.cnode_totals[k] += other.cnode_totals[k];
        }
        self.small_models += other.small_models;
        self.analyzed_jobs += other.analyzed_jobs;
        self.analyzed_cnodes += other.analyzed_cnodes;
        for k in 0..4 {
            self.frac_job_sum[k] += other.frac_job_sum[k];
            self.frac_cnode_sum[k] += other.frac_cnode_sum[k];
        }
        self.ps_jobs += other.ps_jobs;
        self.ps_over80 += other.ps_over80;
        self.comm_hist.merge(&other.comm_hist);
        self.eth_ratio_sum += other.eth_ratio_sum;
        self.arl_eligible += other.arl_eligible;
        self.arl_improved += other.arl_improved;
        self.arl_not_sped += other.arl_not_sped;
        self.arl_speedup_sum += other.arl_speedup_sum;
        self.arc_eligible += other.arc_eligible;
        self.arc_sped += other.arc_sped;
        self.arc_speedup_sum += other.arc_speedup_sum;
        for k in 0..FeatureViolation::REASONS {
            self.quarantined[k] += other.quarantined[k];
        }
    }

    /// Counts one record rejected at the untrusted-ingest boundary.
    ///
    /// Quarantined records never touch the statistics — only these
    /// counters, which merge and checkpoint with the rest of the state
    /// so a resumed session reports the same rejection totals.
    pub fn record_quarantine(&mut self, reason: &FeatureViolation) {
        self.quarantined[reason.index()] += 1;
    }

    /// Records quarantined so far, per [`FeatureViolation`] reason
    /// index.
    pub fn quarantined(&self) -> [u64; FeatureViolation::REASONS] {
        self.quarantined
    }

    /// Total records quarantined so far.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.iter().sum()
    }

    /// Appends the accumulator's complete state to a checkpoint
    /// payload. The model itself is not serialized — the envelope
    /// stores its fingerprint and [`HeadlineAccum::decode_from`]
    /// rebuilds the derived scale factors from the caller's model.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.jobs);
        for k in 0..5 {
            w.put_u64(self.class_counts[k]);
        }
        for k in 0..5 {
            w.put_u64(self.cnode_totals[k]);
        }
        w.put_u64(self.small_models);
        w.put_u64(self.analyzed_jobs);
        w.put_f64(self.analyzed_cnodes);
        for k in 0..4 {
            w.put_f64(self.frac_job_sum[k]);
        }
        for k in 0..4 {
            w.put_f64(self.frac_cnode_sum[k]);
        }
        w.put_u64(self.ps_jobs);
        w.put_u64(self.ps_over80);
        self.comm_hist.encode_into(w);
        w.put_f64(self.eth_ratio_sum);
        w.put_u64(self.arl_eligible);
        w.put_u64(self.arl_improved);
        w.put_u64(self.arl_not_sped);
        w.put_f64(self.arl_speedup_sum);
        w.put_u64(self.arc_eligible);
        w.put_u64(self.arc_sped);
        w.put_f64(self.arc_speedup_sum);
        for k in 0..FeatureViolation::REASONS {
            w.put_u64(self.quarantined[k]);
        }
    }

    /// Decodes an accumulator written by [`HeadlineAccum::encode_into`]
    /// against `model` (the envelope has already verified the model
    /// fingerprint).
    ///
    /// Decoding is total — any byte sequence yields a value or a typed
    /// error — and cross-validates the counters: totals that cannot
    /// arise from any ingest sequence (a class count exceeding the job
    /// count, a non-finite partial sum) are rejected as
    /// [`CheckpointError::InvalidField`] even when the checksum
    /// matches.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] on short input,
    /// [`CheckpointError::InvalidField`] on impossible state.
    pub fn decode_from(
        model: PerfModel,
        r: &mut ByteReader<'_>,
    ) -> Result<HeadlineAccum, CheckpointError> {
        let mut acc = HeadlineAccum::new(model);
        acc.jobs = r.u64()?;
        for k in 0..5 {
            acc.class_counts[k] = r.u64()?;
        }
        for k in 0..5 {
            acc.cnode_totals[k] = r.u64()?;
        }
        acc.small_models = r.u64()?;
        acc.analyzed_jobs = r.u64()?;
        acc.analyzed_cnodes = r.f64()?;
        for k in 0..4 {
            acc.frac_job_sum[k] = r.f64()?;
        }
        for k in 0..4 {
            acc.frac_cnode_sum[k] = r.f64()?;
        }
        acc.ps_jobs = r.u64()?;
        acc.ps_over80 = r.u64()?;
        acc.comm_hist = FracHist::decode_from(r)?;
        acc.eth_ratio_sum = r.f64()?;
        acc.arl_eligible = r.u64()?;
        acc.arl_improved = r.u64()?;
        acc.arl_not_sped = r.u64()?;
        acc.arl_speedup_sum = r.f64()?;
        acc.arc_eligible = r.u64()?;
        acc.arc_sped = r.u64()?;
        acc.arc_speedup_sum = r.f64()?;
        for k in 0..FeatureViolation::REASONS {
            acc.quarantined[k] = r.u64()?;
        }
        acc.validate_decoded()?;
        Ok(acc)
    }

    /// The cross-field invariants every reachable accumulator state
    /// satisfies; decoded state that violates one is corrupt even if
    /// its checksum verifies.
    fn validate_decoded(&self) -> Result<(), CheckpointError> {
        let invalid = |field: &'static str| CheckpointError::InvalidField { field };
        let class_sum: u64 = self.class_counts.iter().sum();
        if class_sum != self.jobs {
            return Err(invalid("class_counts"));
        }
        if self.ps_jobs != self.class_counts[Architecture::PsWorker.index()] {
            return Err(invalid("ps_jobs"));
        }
        if self.small_models > self.jobs || self.analyzed_jobs > self.jobs {
            return Err(invalid("job_counters"));
        }
        if self.ps_over80 > self.ps_jobs || self.comm_hist.total() != self.ps_jobs {
            return Err(invalid("comm_hist"));
        }
        if self.arl_eligible > self.ps_jobs
            || self.arl_improved > self.arl_eligible
            || self.arl_not_sped > self.arl_eligible
        {
            return Err(invalid("arl_counters"));
        }
        if self.arc_eligible > self.ps_jobs || self.arc_sped > self.arc_eligible {
            return Err(invalid("arc_counters"));
        }
        if !self.analyzed_cnodes.is_finite() || self.analyzed_cnodes < 0.0 {
            return Err(invalid("analyzed_cnodes"));
        }
        let sums = self.frac_job_sum.iter().chain(&self.frac_cnode_sum).chain([
            &self.eth_ratio_sum,
            &self.arl_speedup_sum,
            &self.arc_speedup_sum,
        ]);
        for sum in sums {
            if !sum.is_finite() {
                return Err(invalid("partial_sums"));
            }
        }
        Ok(())
    }

    /// Finalizes the headline statistics from the current state.
    pub fn stats(&self) -> HeadlineStats {
        let total_cnodes: u64 = self.cnode_totals.iter().sum();
        let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let job_div = self.analyzed_jobs.max(1) as f64;
        let cnode_div = if self.analyzed_cnodes > 0.0 {
            self.analyzed_cnodes
        } else {
            1.0
        };
        HeadlineStats {
            jobs: self.jobs,
            class_counts: self.class_counts,
            cnode_totals: self.cnode_totals,
            ps_cnode_share: share(
                self.cnode_totals[Architecture::PsWorker.index()],
                total_cnodes,
            ),
            small_model_share: share(self.small_models, self.jobs),
            job_level_fractions: self.frac_job_sum.map(|s| s / job_div),
            cnode_level_fractions: self.frac_cnode_sum.map(|s| s / cnode_div),
            ps_jobs: self.ps_jobs,
            ps_over_80_comm: share(self.ps_over80, self.ps_jobs),
            comm_fraction_p50: self.comm_hist.quantile(0.5),
            comm_fraction_p90: self.comm_hist.quantile(0.9),
            arl_eligible: self.arl_eligible,
            arl_throughput_improved: share(self.arl_improved, self.arl_eligible),
            arl_not_sped_up: share(self.arl_not_sped, self.arl_eligible),
            arl_mean_step_speedup: self.arl_speedup_sum / self.arl_eligible.max(1) as f64,
            arc_sped_up: share(self.arc_sped, self.arc_eligible),
            arc_mean_step_speedup: self.arc_speedup_sum / self.arc_eligible.max(1) as f64,
            eth_100g_speedup: self.eth_ratio_sum / self.ps_jobs.max(1) as f64,
            eq3_bound: comm_bound_speedup(&self.model),
            quarantined: self.quarantined,
            quarantined_total: self.quarantined.iter().sum(),
        }
    }
}

impl IngestSink for HeadlineAccum {
    fn ingest(&mut self, job: &WorkloadFeatures) {
        HeadlineAccum::ingest(self, job);
    }
}

/// The finished headline statistics of one characterization pass —
/// every number the summary experiment and the scorecard's
/// fleet-level claims derive from the population.
///
/// Two passes over the same `(model, jobs)` produce `PartialEq`-equal
/// (bit-identical) values regardless of thread count or of whether the
/// jobs arrived as a batch or as a stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeadlineStats {
    /// Total jobs characterized.
    pub jobs: u64,
    /// Jobs per class, Table II order (Fig. 5a).
    pub class_counts: [u64; 5],
    /// cNodes per class, Table II order (Fig. 5b).
    pub cnode_totals: [u64; 5],
    /// PS/Worker share of all cNodes (Sec. III-A: 81 %).
    pub ps_cnode_share: f64,
    /// Share of jobs training models under 10 GB (Sec. III-D: 90 %).
    pub small_model_share: f64,
    /// Job-level mean `[data, weights, compute, memory]` shares over
    /// the analyzed classes (Fig. 7 job level).
    pub job_level_fractions: [f64; 4],
    /// cNode-weighted mean shares (Fig. 7 cNode level; weight-comm
    /// share is the paper's 62 %).
    pub cnode_level_fractions: [f64; 4],
    /// PS/Worker job count.
    pub ps_jobs: u64,
    /// Share of PS jobs spending >80 % of a step on weight
    /// communication (Fig. 8d: ~40 %).
    pub ps_over_80_comm: f64,
    /// Median PS weight-communication fraction (histogram resolution).
    pub comm_fraction_p50: f64,
    /// 90th-percentile PS weight-communication fraction.
    pub comm_fraction_p90: f64,
    /// PS jobs eligible for AllReduce projection (model fits in one
    /// GPU's memory).
    pub arl_eligible: u64,
    /// Share of eligible jobs whose throughput improves on
    /// AllReduce-Local (Sec. III-D: ~60 %).
    pub arl_throughput_improved: f64,
    /// Share of eligible jobs not sped up per step on AllReduce-Local
    /// (Fig. 9a: 22.6 %).
    pub arl_not_sped_up: f64,
    /// Mean single-cNode step speedup on AllReduce-Local.
    pub arl_mean_step_speedup: f64,
    /// Share of eligible jobs sped up per step on AllReduce-Cluster
    /// (Sec. III-C1: 67.9 %).
    pub arc_sped_up: f64,
    /// Mean single-cNode step speedup on AllReduce-Cluster.
    pub arc_mean_step_speedup: f64,
    /// Mean PS speedup from 25 to 100 GbE (Abstract: 1.7×).
    pub eth_100g_speedup: f64,
    /// The Eq. 3 communication-bound speedup bound (21× at Table I).
    pub eq3_bound: f64,
    /// Untrusted-ingest records quarantined per
    /// [`FeatureViolation`] reason, in
    /// [`FeatureViolation::REASON_LABELS`] order. All zero on trusted
    /// (generator-fed) pipelines.
    pub quarantined: [u64; FeatureViolation::REASONS],
    /// Total untrusted-ingest records quarantined.
    pub quarantined_total: u64,
}

/// Accumulates a whole [`Jobs`] store into a [`HeadlineAccum`] using
/// the fixed chunk decomposition.
///
/// Chunk partials merge left-to-right in chunk-index order, so the
/// result is bit-for-bit identical at every thread count and equal to
/// a streaming consumer folding the same chunks in arrival order.
pub fn accumulate<J: Jobs + ?Sized>(
    model: &PerfModel,
    jobs: &J,
    threads: Threads,
) -> HeadlineAccum {
    pai_par::fold_chunks(
        jobs.len(),
        DEFAULT_CHUNK_SIZE,
        threads,
        HeadlineAccum::new(*model),
        |_, range| {
            let mut part = HeadlineAccum::new(*model);
            for i in range {
                part.ingest(&jobs.get(i));
            }
            part
        },
        |acc, part| acc.merge(&part),
    )
}

/// One-shot batch characterization: [`accumulate`] then
/// [`HeadlineAccum::stats`].
pub fn characterize<J: Jobs + ?Sized>(
    model: &PerfModel,
    jobs: &J,
    threads: Threads,
) -> HeadlineStats {
    accumulate(model, jobs, threads).stats()
}

/// The resident-column what-if index: answers "how much faster would
/// the PS/Worker fleet run if Ethernet were X Gbps?" from three `f64`
/// columns without re-evaluating the analytical model.
///
/// For each PS/Worker job the index stores `Td + Tc` (unaffected by
/// the Ethernet bandwidth), the Ethernet leg of `Tw`, and the PCIe leg
/// of `Tw`. A query rescales the Ethernet column by the bandwidth
/// ratio and reassembles both totals with the same fold order as
/// [`PerfModel::combine`] — so at power-of-two ratios
/// (the paper's 25 → 100 GbE) the per-job speedups are bit-identical
/// to a full re-evaluation, and ulp-close otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfIndex {
    model: PerfModel,
    base: ChunkedVec<f64>,
    eth: ChunkedVec<f64>,
    pcie: ChunkedVec<f64>,
}

/// The result of one [`WhatIfIndex`] bandwidth query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WhatIfSummary {
    /// The queried Ethernet bandwidth in Gbit/s.
    pub ethernet_gbps: f64,
    /// Indexed PS/Worker jobs the summary covers.
    pub jobs: u64,
    /// Mean per-job step-time speedup `T_base / T_new`.
    pub mean_speedup: f64,
    /// Median speedup (histogram resolution 1/64).
    pub p50_speedup: f64,
    /// 90th-percentile speedup (histogram resolution 1/64).
    pub p90_speedup: f64,
    /// Largest per-job speedup.
    pub max_speedup: f64,
}

impl WhatIfIndex {
    /// An empty index over `model`.
    pub fn new(model: PerfModel) -> WhatIfIndex {
        WhatIfIndex {
            model,
            base: ChunkedVec::new(),
            eth: ChunkedVec::new(),
            pcie: ChunkedVec::new(),
        }
    }

    /// The model the index was built against.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Indexed row count (PS/Worker jobs only).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// True when no jobs are indexed.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Indexes one job. Non-PS/Worker jobs are skipped (their step
    /// time has no Ethernet leg to vary); returns whether the job was
    /// indexed. Amortized allocation-free (one arena segment per 1024
    /// indexed jobs).
    pub fn push(&mut self, job: &WorkloadFeatures) -> bool {
        if job.arch() != Architecture::PsWorker {
            return false;
        }
        // PS/Worker's Table II path is Ethernet, then PCIe.
        let terms = self.model.terms(job);
        let [eth, pcie] = terms.weight;
        self.base
            .push(terms.data_io.as_f64() + (terms.compute_bound + terms.memory_bound).as_f64());
        self.eth.push(eth.as_f64());
        self.pcie.push(pcie.as_f64());
        true
    }

    /// Appends another index's rows in order.
    ///
    /// # Panics
    ///
    /// Panics if the two indexes were built against different models.
    pub fn append(&mut self, other: &WhatIfIndex) {
        assert_eq!(
            self.model, other.model,
            "cannot append indexes over different models"
        );
        self.base.append(&other.base);
        self.eth.append(&other.eth);
        self.pcie.append(&other.pcie);
    }

    /// Builds the index over a whole [`Jobs`] store; rows land in job
    /// index order at every thread count (chunk order is pinned).
    pub fn build<J: Jobs + ?Sized>(model: &PerfModel, jobs: &J, threads: Threads) -> WhatIfIndex {
        pai_par::fold_chunks(
            jobs.len(),
            DEFAULT_CHUNK_SIZE,
            threads,
            WhatIfIndex::new(*model),
            |_, range| {
                let mut part = WhatIfIndex::new(*model);
                for i in range {
                    part.push(&jobs.get(i));
                }
                part
            },
            |acc, part| acc.append(&part),
        )
    }

    /// Appends the index to a checkpoint payload: a row-count prefix,
    /// then the three resident columns (`base`, `eth`, `pcie`) as
    /// contiguous little-endian `f64` blocks.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for column in [&self.base, &self.eth, &self.pcie] {
            for value in column.iter() {
                w.put_f64(value);
            }
        }
    }

    /// Decodes an index written by [`WhatIfIndex::encode_into`]
    /// against `model`.
    ///
    /// The declared row count is checked against the bytes actually
    /// remaining *before* any allocation, so a corrupt length prefix
    /// cannot trigger an absurd reservation; every decoded time must
    /// be finite and non-negative.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] on short input,
    /// [`CheckpointError::InvalidField`] on an impossible row count or
    /// a non-physical column value.
    pub fn decode_from(
        model: PerfModel,
        r: &mut ByteReader<'_>,
    ) -> Result<WhatIfIndex, CheckpointError> {
        let rows = r.u64()?;
        let Ok(rows) = usize::try_from(rows) else {
            return Err(CheckpointError::InvalidField {
                field: "whatif.rows",
            });
        };
        // 3 columns x 8 bytes per row must fit in what remains.
        if rows > r.remaining() / 24 {
            return Err(CheckpointError::Truncated {
                offset: r.position(),
                needed: rows.saturating_mul(24),
            });
        }
        let mut index = WhatIfIndex::new(model);
        for field in ["whatif.base", "whatif.eth", "whatif.pcie"] {
            let mut column = ChunkedVec::new();
            for _ in 0..rows {
                let value = r.f64()?;
                if !value.is_finite() || value < 0.0 {
                    return Err(CheckpointError::InvalidField { field });
                }
                column.push(value);
            }
            match field {
                "whatif.base" => index.base = column,
                "whatif.eth" => index.eth = column,
                _ => index.pcie = column,
            }
        }
        Ok(index)
    }

    /// The Ethernet-time scale factor for a target bandwidth: transfer
    /// time shrinks by the bandwidth ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ethernet_gbps` is not strictly positive.
    fn scale_for(&self, ethernet_gbps: f64) -> f64 {
        assert!(
            ethernet_gbps > 0.0,
            "what-if bandwidth must be positive, got {ethernet_gbps}"
        );
        let baseline = self
            .model
            .config()
            .link(LinkKind::Ethernet)
            .bandwidth()
            .as_bytes_per_sec();
        baseline / Bandwidth::from_gbit_per_sec(ethernet_gbps).as_bytes_per_sec()
    }

    /// The step-time speedup of one indexed job at the target
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()` or `ethernet_gbps` is not positive.
    pub fn speedup_at(&self, row: usize, ethernet_gbps: f64) -> f64 {
        let scale = self.scale_for(ethernet_gbps);
        self.row_speedup(
            self.base.get(row),
            self.eth.get(row),
            self.pcie.get(row),
            scale,
        )
    }

    fn row_speedup(&self, base: f64, eth: f64, pcie: f64, scale: f64) -> f64 {
        let total = base + (eth + pcie);
        let fast = base + (eth * scale + pcie);
        if fast > 0.0 {
            total / fast
        } else {
            1.0
        }
    }

    /// One full what-if query: mean / median / p90 / max speedup of
    /// the indexed fleet at the target bandwidth, in a single pass
    /// over the resident columns.
    ///
    /// # Panics
    ///
    /// Panics if `ethernet_gbps` is not positive.
    pub fn summary_at(&self, ethernet_gbps: f64) -> WhatIfSummary {
        let scale = self.scale_for(ethernet_gbps);
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        let mut hist = vec![0u64; SPEEDUP_BINS];
        for ((base, eth), pcie) in self.base.iter().zip(self.eth.iter()).zip(self.pcie.iter()) {
            let s = self.row_speedup(base, eth, pcie, scale);
            sum += s;
            if s > max {
                max = s;
            }
            let bin = ((s * SPEEDUP_RESOLUTION as f64) as usize).min(SPEEDUP_BINS - 1);
            hist[bin] += 1;
        }
        let jobs = self.len() as u64;
        let quantile = |q: f64| -> f64 {
            if jobs == 0 {
                return 0.0;
            }
            let threshold = q * jobs as f64;
            let mut cum = 0u64;
            for (bin, &count) in hist.iter().enumerate() {
                cum += count;
                if cum as f64 >= threshold {
                    return (bin + 1) as f64 / SPEEDUP_RESOLUTION as f64;
                }
            }
            SPEEDUP_BINS as f64 / SPEEDUP_RESOLUTION as f64
        };
        // The histogram quantile reports a bin's upper edge, which can
        // overshoot the observed maximum by up to one bin width; clamp
        // so `p50 <= p90 <= max` holds in every report.
        WhatIfSummary {
            ethernet_gbps,
            jobs,
            mean_speedup: sum / jobs.max(1) as f64,
            p50_speedup: quantile(0.5).min(max),
            p90_speedup: quantile(0.9).min(max),
            max_speedup: max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_hw::{Bytes, Flops, SweepAxis, SweepPoint};

    /// A deterministic mixed-class population exercising every ingest
    /// branch (no RNG: plain index arithmetic).
    fn mixed_jobs(n: usize) -> Vec<WorkloadFeatures> {
        (0..n)
            .map(|i| {
                let arch = Architecture::ALL[i % 5];
                let cnodes = match arch {
                    Architecture::OneWorkerOneGpu => 1,
                    _ => 2 + (i % 31),
                };
                WorkloadFeatures::builder(arch)
                    .cnodes(cnodes)
                    .batch_size(32 + i % 256)
                    .input_bytes(Bytes::from_mb(1.0 + (i % 50) as f64))
                    .weight_bytes(Bytes::from_mb(10.0 + (i % 700) as f64 * 40.0))
                    .flops(Flops::from_giga(20.0 + (i % 90) as f64 * 10.0))
                    .mem_access_bytes(Bytes::from_gb(1.0 + (i % 40) as f64))
                    .build()
            })
            .collect()
    }

    #[test]
    fn counters_match_direct_counts() {
        let jobs = mixed_jobs(500);
        let model = PerfModel::paper_default();
        let stats = characterize(&model, &jobs, Threads::SERIAL);
        assert_eq!(stats.jobs, 500);
        assert_eq!(stats.class_counts.iter().sum::<u64>(), 500);
        let ps = jobs
            .iter()
            .filter(|j| j.arch() == Architecture::PsWorker)
            .count() as u64;
        assert_eq!(stats.ps_jobs, ps);
        assert_eq!(stats.class_counts[Architecture::PsWorker.index()], ps);
        let cnodes: u64 = jobs.iter().map(|j| j.cnodes() as u64).sum();
        assert_eq!(stats.cnode_totals.iter().sum::<u64>(), cnodes);
        assert!((stats.eq3_bound - 21.0).abs() < 1e-9);
    }

    #[test]
    fn thread_count_never_changes_the_stats() {
        let jobs = mixed_jobs(3000);
        let model = PerfModel::paper_default();
        let oracle = characterize(&model, &jobs, Threads::SERIAL);
        for t in [2usize, 4, 8] {
            assert_eq!(
                characterize(&model, &jobs, Threads::new(t)),
                oracle,
                "stats diverged at {t} threads"
            );
        }
    }

    #[test]
    fn chunked_streaming_merge_equals_batch() {
        // A streaming consumer folding fixed 1024-job chunk partials
        // in arrival order reproduces the batch fold bit for bit.
        let jobs = mixed_jobs(2600);
        let model = PerfModel::paper_default();
        let mut running = HeadlineAccum::new(model);
        let mut pending = HeadlineAccum::new(model);
        let mut in_pending = 0usize;
        for job in &jobs {
            pending.ingest(job);
            in_pending += 1;
            if in_pending == DEFAULT_CHUNK_SIZE {
                running.merge(&pending);
                pending = HeadlineAccum::new(model);
                in_pending = 0;
            }
        }
        running.merge(&pending);
        assert_eq!(
            running.stats(),
            characterize(&model, &jobs, Threads::new(4))
        );
    }

    #[test]
    fn fractions_match_legacy_mean_fractions() {
        let jobs = mixed_jobs(800);
        let model = PerfModel::paper_default();
        let stats = characterize(&model, &jobs, Threads::SERIAL);
        let analyzed: Vec<WorkloadFeatures> = jobs
            .iter()
            .filter(|j| {
                matches!(
                    j.arch(),
                    Architecture::OneWorkerOneGpu
                        | Architecture::OneWorkerMultiGpu
                        | Architecture::PsWorker
                )
            })
            .copied()
            .collect();
        let times: Vec<ComponentTimes> =
            analyzed.iter().map(|j| model.component_times(j)).collect();
        let weights: Vec<f64> = analyzed.iter().map(|j| j.cnodes() as f64).collect();
        let job_level = crate::breakdown::mean_fractions(&times, &vec![1.0; times.len()]);
        let cnode_level = crate::breakdown::mean_fractions(&times, &weights);
        for k in 0..4 {
            assert!(
                (stats.job_level_fractions[k] - job_level[k]).abs() < 1e-9,
                "job-level component {k} drifted"
            );
            assert!(
                (stats.cnode_level_fractions[k] - cnode_level[k]).abs() < 1e-9,
                "cNode-level component {k} drifted"
            );
        }
    }

    #[test]
    fn projection_shares_match_legacy_counts() {
        let jobs = mixed_jobs(600);
        let model = PerfModel::paper_default();
        let stats = characterize(&model, &jobs, Threads::SERIAL);
        let local = model.projections(&jobs, ProjectionTarget::AllReduceLocal, Threads::SERIAL);
        assert_eq!(stats.arl_eligible, local.len() as u64);
        let improved = local.iter().filter(|o| o.improves_throughput()).count();
        assert!(
            (stats.arl_throughput_improved - improved as f64 / local.len() as f64).abs() < 1e-12
        );
        let losers = local
            .iter()
            .filter(|o| o.single_cnode_speedup <= 1.0)
            .count();
        assert!((stats.arl_not_sped_up - losers as f64 / local.len() as f64).abs() < 1e-12);
        let cluster = model.projections(&jobs, ProjectionTarget::AllReduceCluster, Threads::SERIAL);
        let sped = cluster
            .iter()
            .filter(|o| o.single_cnode_speedup > 1.0)
            .count();
        assert!((stats.arc_sped_up - sped as f64 / cluster.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn eth_100g_matches_full_reevaluation_bitwise() {
        // 25 -> 100 Gbps is a power-of-two ratio: each per-job ratio
        // must equal the full model re-evaluation exactly.
        let jobs = mixed_jobs(400);
        let model = PerfModel::paper_default();
        let fast = model.with_config(model.config().with_resource(SweepPoint {
            axis: SweepAxis::Ethernet,
            value: 100.0,
        }));
        let mut acc = HeadlineAccum::new(model);
        let mut expected = 0.0f64;
        for job in &jobs {
            acc.ingest(job);
            if job.arch() == Architecture::PsWorker {
                expected += model.total_time(job).as_f64() / fast.total_time(job).as_f64();
            }
        }
        assert_eq!(acc.eth_ratio_sum.to_bits(), expected.to_bits());
    }

    #[test]
    fn whatif_index_agrees_with_the_accumulator() {
        let jobs = mixed_jobs(700);
        let model = PerfModel::paper_default();
        let stats = characterize(&model, &jobs, Threads::SERIAL);
        let index = WhatIfIndex::build(&model, &jobs, Threads::SERIAL);
        assert_eq!(index.len() as u64, stats.ps_jobs);
        let q = index.summary_at(100.0);
        assert!(
            (q.mean_speedup - stats.eth_100g_speedup).abs() < 1e-9,
            "query {} vs accum {}",
            q.mean_speedup,
            stats.eth_100g_speedup
        );
        assert!(q.p50_speedup > 1.0);
        assert!(q.max_speedup >= q.p90_speedup && q.p90_speedup >= q.p50_speedup);
        // More bandwidth can only help.
        let q400 = index.summary_at(400.0);
        assert!(q400.mean_speedup >= q.mean_speedup);
        // Downgrading slows the fleet.
        let q10 = index.summary_at(10.0);
        assert!(q10.mean_speedup < 1.0);
        // Baseline bandwidth is a no-op.
        let q25 = index.summary_at(25.0);
        assert!((q25.mean_speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn whatif_index_build_is_thread_invariant() {
        let jobs = mixed_jobs(2200);
        let model = PerfModel::paper_default();
        let oracle = WhatIfIndex::build(&model, &jobs, Threads::SERIAL);
        for t in [2usize, 4, 8] {
            assert_eq!(WhatIfIndex::build(&model, &jobs, Threads::new(t)), oracle);
        }
    }

    #[test]
    fn whatif_index_skips_non_ps_jobs() {
        let model = PerfModel::paper_default();
        let mut index = WhatIfIndex::new(model);
        let single = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu).build();
        assert!(!index.push(&single));
        assert!(index.is_empty());
        let ps = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(4)
            .weight_bytes(Bytes::from_gb(1.0))
            .build();
        assert!(index.push(&ps));
        assert_eq!(index.len(), 1);
        assert!(index.speedup_at(0, 100.0) > 1.0);
    }

    #[test]
    fn empty_population_yields_finite_stats() {
        let model = PerfModel::paper_default();
        let empty: Vec<WorkloadFeatures> = Vec::new();
        let stats = characterize(&model, &empty, Threads::new(4));
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.ps_cnode_share, 0.0);
        assert_eq!(stats.eth_100g_speedup, 0.0);
        assert_eq!(stats.job_level_fractions, [0.0; 4]);
        let index = WhatIfIndex::build(&model, &empty, Threads::SERIAL);
        let q = index.summary_at(100.0);
        assert_eq!(q.jobs, 0);
        assert_eq!(q.mean_speedup, 0.0);
    }

    #[test]
    #[should_panic(expected = "different models")]
    fn merge_rejects_model_mismatch() {
        let mut a = HeadlineAccum::new(PerfModel::paper_default());
        let b = HeadlineAccum::new(PerfModel::testbed_default());
        a.merge(&b);
    }

    #[test]
    fn frac_hist_quantiles() {
        let mut h = FracHist::new();
        assert_eq!(h.quantile(0.5), 0.0);
        for i in 0..100 {
            h.record(i as f64 / 100.0);
        }
        assert_eq!(h.total(), 100);
        assert!((h.quantile(0.5) - 0.5).abs() <= 2.0 / FRAC_BINS as f64);
        assert!((h.fraction_at_most(0.25) - 0.25).abs() < 0.02);
        h.record(5.0); // clamps into the last bin
        assert_eq!(h.total(), 101);
        assert!(h.quantile(1.0) >= 0.99);
    }

    #[test]
    fn empty_frac_hist_quantile_is_defined_for_any_q() {
        let h = FracHist::new();
        for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN, f64::INFINITY] {
            let v = h.quantile(q);
            assert_eq!(v, 0.0, "quantile({q}) on empty hist");
        }
        assert_eq!(h.fraction_at_most(0.5), 0.0);
        // Non-finite q stays defined on a populated histogram too.
        let mut h = FracHist::new();
        h.record(0.5);
        assert_eq!(h.quantile(f64::NAN), 0.0);
        assert!(h.quantile(f64::INFINITY).is_finite());
        assert!(h.quantile(-1.0) >= 0.0);
    }

    #[test]
    fn empty_whatif_summary_is_zero_and_nan_free() {
        let index = WhatIfIndex::new(PerfModel::paper_default());
        let s = index.summary_at(100.0);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean_speedup, 0.0);
        assert_eq!(s.p50_speedup, 0.0);
        assert_eq!(s.p90_speedup, 0.0);
        assert_eq!(s.max_speedup, 0.0);
        for v in [s.mean_speedup, s.p50_speedup, s.p90_speedup, s.max_speedup] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn frac_hist_codec_roundtrip() {
        let mut h = FracHist::new();
        for i in 0..500 {
            h.record(i as f64 / 500.0);
        }
        let mut w = ByteWriter::new();
        h.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = FracHist::decode_from(&mut r).expect("roundtrip");
        assert!(r.finish().is_ok());
        assert_eq!(back, h);
    }

    #[test]
    fn accum_codec_roundtrip_is_bit_identical() {
        let jobs = mixed_jobs(2_000);
        let model = PerfModel::paper_default();
        let mut acc = accumulate(&model, &jobs, Threads::new(4));
        acc.record_quarantine(&FeatureViolation::ZeroCnodes);
        acc.record_quarantine(&FeatureViolation::NonFinite { field: "flops" });
        let mut w = ByteWriter::new();
        acc.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = HeadlineAccum::decode_from(model, &mut r).expect("roundtrip");
        assert!(r.finish().is_ok());
        // Stats equality is bitwise (PartialEq over f64 fields).
        assert_eq!(back.stats(), acc.stats());
        assert_eq!(back.quarantined_total(), 2);
        // Ingest continues seamlessly after a roundtrip.
        let mut resumed = back;
        for job in mixed_jobs(100) {
            acc.ingest(&job);
            resumed.ingest(&job);
        }
        assert_eq!(resumed.stats(), acc.stats());
    }

    #[test]
    fn accum_decode_rejects_impossible_counters() {
        let model = PerfModel::paper_default();
        let mut acc = HeadlineAccum::new(model);
        for job in mixed_jobs(64) {
            acc.ingest(&job);
        }
        let mut w = ByteWriter::new();
        acc.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt the leading job counter: class counts no longer sum.
        bytes[0] ^= 0xFF;
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            HeadlineAccum::decode_from(model, &mut r),
            Err(CheckpointError::InvalidField { .. })
        ));
    }

    #[test]
    fn whatif_codec_roundtrip_and_length_guard() {
        let jobs = mixed_jobs(900);
        let model = PerfModel::paper_default();
        let index = WhatIfIndex::build(&model, &jobs, Threads::new(2));
        let mut w = ByteWriter::new();
        index.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = WhatIfIndex::decode_from(model, &mut r).expect("roundtrip");
        assert!(r.finish().is_ok());
        assert_eq!(back, index);

        // A length prefix promising more rows than the payload holds is
        // rejected before any column is materialized.
        let mut huge = ByteWriter::new();
        huge.put_u64(u64::MAX);
        let huge = huge.into_bytes();
        let mut r = ByteReader::new(&huge);
        assert!(WhatIfIndex::decode_from(model, &mut r).is_err());
    }

    #[test]
    fn quarantine_counters_merge_and_surface() {
        let model = PerfModel::paper_default();
        let mut a = HeadlineAccum::new(model);
        let mut b = HeadlineAccum::new(model);
        a.record_quarantine(&FeatureViolation::ZeroBatch);
        b.record_quarantine(&FeatureViolation::ZeroBatch);
        b.record_quarantine(&FeatureViolation::Negative { field: "flops" });
        a.merge(&b);
        assert_eq!(a.quarantined_total(), 3);
        let stats = a.stats();
        assert_eq!(stats.quarantined_total, 3);
        assert_eq!(stats.quarantined[FeatureViolation::ZeroBatch.index()], 2);
    }
}
