//! `ingest`: the streaming write path under untrusted input.
//!
//! 500k records from the job stream, a seeded 1% of them made
//! invalid, go through quarantining ingest with the what-if index on
//! and a checkpoint every 64 chunks; the pass then resumes from the
//! last checkpoint and replays the tail. This is the write side of the
//! accumulators and what-if columns `analyze` reads, plus the
//! checkpoint codec.

use pai_core::{characterize, HeadlineStats, PerfModel, RawFeatures, WhatIfIndex};
use pai_trace::population::JOB_CHUNK;
use pai_trace::{IngestPolicy, JobStream, PopulationConfig, StreamSession, TraceError};

use super::{ensure, Checked, Workload, ONE};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Checkpoint cadence in chunks of accepted jobs.
pub const CHECKPOINT_CHUNKS: usize = 64;
/// One record in this many is made invalid.
pub const CORRUPT_ONE_IN: u64 = 100;

/// The `ingest` workload.
pub struct Ingest;

/// The record feed.
pub struct Inputs {
    model: PerfModel,
    records: Vec<RawFeatures>,
    corrupted: u64,
}

/// Batch results over the records that pass validation.
pub struct Reference {
    stats: HeadlineStats,
    whatif: WhatIfIndex,
}

/// One pass's results.
#[derive(Debug, Clone)]
pub struct Output {
    /// Statistics of the uninterrupted run.
    pub stats: HeadlineStats,
    /// What-if index of the uninterrupted run.
    pub whatif: Option<WhatIfIndex>,
    /// Statistics after resuming from the last checkpoint.
    pub resumed_stats: HeadlineStats,
    /// What-if index after resuming from the last checkpoint.
    pub resumed_whatif: Option<WhatIfIndex>,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Bytes over all checkpoints taken.
    pub checkpoint_bytes: usize,
}

/// Whether record `i` is made invalid, and how.
fn corruption(seed: u64, i: usize) -> Option<u64> {
    let h = pai_par::derive_seed(seed ^ 0x00c0_ffee, i as u64);
    h.is_multiple_of(CORRUPT_ONE_IN)
        .then_some((h / CORRUPT_ONE_IN) % 4)
}

fn corrupt(raw: &mut RawFeatures, how: u64) {
    match how {
        0 => raw.flops = f64::NAN,
        1 => raw.weight_bytes = -raw.weight_bytes - 1.0,
        2 => raw.batch_size = 0,
        _ => raw.cnodes = 0,
    }
}

/// Ingests records from `from` until a checkpoint boundary (returns
/// true) or the end of the feed (returns false), with the next index.
fn ingest_interval(
    session: &mut StreamSession,
    records: &[RawFeatures],
    from: usize,
) -> Result<(usize, bool), TraceError> {
    let stride = (CHECKPOINT_CHUNKS * JOB_CHUNK) as u64;
    for (i, raw) in records.iter().enumerate().skip(from) {
        if session.ingest_untrusted(raw)? && session.jobs().is_multiple_of(stride) {
            return Ok((i + 1, true));
        }
    }
    Ok((records.len(), false))
}

impl Workload for Ingest {
    const NAME: &'static str = "ingest";
    const JOBS: usize = 500_000;
    type Inputs = Inputs;
    type Reference = Reference;
    type Output = Output;

    fn setup(jobs: usize, seed: u64, t: &mut Tracer) -> Result<Inputs, String> {
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        t.span("trace.sample", |_| {
            let mut records = Vec::with_capacity(jobs);
            let mut corrupted = 0;
            for (i, job) in JobStream::new(&config, seed)
                .map_err(|e| e.to_string())?
                .enumerate()
            {
                let mut raw = RawFeatures::from(&job);
                if let Some(how) = corruption(seed, i) {
                    corrupt(&mut raw, how);
                    corrupted += 1;
                }
                records.push(raw);
            }
            Ok(Inputs {
                model: PerfModel::paper_default(),
                records,
                corrupted,
            })
        })
    }

    fn jobs_per_pass(inputs: &Inputs) -> usize {
        inputs.records.len()
    }

    fn reference(inputs: &Inputs) -> Result<Reference, String> {
        let accepted: Vec<_> = inputs
            .records
            .iter()
            .filter_map(|raw| raw.validate().ok())
            .collect();
        Ok(Reference {
            stats: characterize(&inputs.model, &accepted, ONE),
            whatif: WhatIfIndex::build(&inputs.model, &accepted, ONE),
        })
    }

    fn pass(inputs: &Inputs, t: &mut Tracer) -> Result<Output, String> {
        let model = inputs.model;
        let records = &inputs.records;
        let mut session = StreamSession::with_whatif(model).with_policy(IngestPolicy::Quarantine);
        let mut last = None;
        let mut checkpoints = 0;
        let mut checkpoint_bytes = 0;
        let mut next = 0;
        while next < records.len() {
            let at_boundary;
            (next, at_boundary) = t
                .span("trace.ingest", |_| {
                    ingest_interval(&mut session, records, next)
                })
                .map_err(|e| e.to_string())?;
            if at_boundary {
                let bytes = t
                    .span("trace.checkpoint", |_| session.checkpoint())
                    .map_err(|e| e.to_string())?;
                checkpoints += 1;
                checkpoint_bytes += bytes.len();
                last = Some(bytes);
            }
        }
        let last = last.ok_or("the feed is shorter than one checkpoint interval")?;
        let resumed = t
            .span("trace.resume", |_| {
                let mut resumed = StreamSession::resume(model, &last)?;
                let position = usize::try_from(resumed.position()).unwrap_or(usize::MAX);
                for raw in records.get(position..).unwrap_or_default() {
                    resumed.ingest_untrusted(raw)?;
                }
                Ok::<_, TraceError>(resumed)
            })
            .map_err(|e| e.to_string())?;
        Ok(Output {
            stats: session.stats(),
            whatif: session.into_whatif(),
            resumed_stats: resumed.stats(),
            resumed_whatif: resumed.into_whatif(),
            checkpoints,
            checkpoint_bytes,
        })
    }

    fn check(inputs: &Inputs, reference: &Reference, out: &Output) -> Result<Checked, String> {
        ensure(out.stats.quarantined_total == inputs.corrupted, || {
            format!(
                "{} records quarantined, {} corrupted",
                out.stats.quarantined_total, inputs.corrupted
            )
        })?;
        ensure(out.resumed_stats == out.stats, || {
            "resumed-plus-tail statistics differ from the uninterrupted run".to_string()
        })?;
        ensure(out.resumed_whatif == out.whatif, || {
            "resumed-plus-tail what-if index differs from the uninterrupted run".to_string()
        })?;
        let trusted = HeadlineStats {
            quarantined: reference.stats.quarantined,
            quarantined_total: reference.stats.quarantined_total,
            ..out.stats.clone()
        };
        ensure(trusted == reference.stats, || {
            "stream statistics differ from batch characterize of the accepted records".to_string()
        })?;
        ensure(out.whatif.as_ref() == Some(&reference.whatif), || {
            "stream what-if index differs from one built over the accepted records".to_string()
        })?;
        let mut d = Digest::new();
        d.debug(&out.stats);
        d.u64(out.checkpoints as u64);
        d.u64(out.checkpoint_bytes as u64);
        let offered = inputs.records.len() as f64;
        Ok(Checked {
            digest: d.finish(),
            counts: vec![
                ("trace.checkpoints", out.checkpoints as f64),
                ("trace.checkpoint_bytes", out.checkpoint_bytes as f64),
                ("trace.accepted_ratio", out.stats.jobs as f64 / offered),
            ],
        })
    }
}
