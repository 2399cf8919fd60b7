//! Streaming generation and ingest.
//!
//! [`JobStream`] yields the exact job sequence batch generation
//! produces — same per-chunk RNG streams, same order — one job at a
//! time, without materializing the population. [`StreamSession`]
//! consumes any job source incrementally, folding fixed
//! [`JOB_CHUNK`]-sized accumulator chunks in arrival order so that a
//! mid-stream or final [`StreamSession::stats`] snapshot is
//! bit-for-bit identical to batch [`pai_core::characterize`] over the
//! same prefix at any thread count.
//!
//! Together they characterize a population of any size in bounded
//! memory: the stream holds one RNG and one feature record, the
//! session holds two accumulators (a few KB) plus, optionally, the
//! three-column [`WhatIfIndex`].

use pai_core::codec::{crc32, model_fingerprint, ByteReader, ByteWriter, CheckpointError};
use pai_core::{
    FeatureViolation, HeadlineAccum, HeadlineStats, PerfModel, RawFeatures, WhatIfIndex,
    WorkloadFeatures,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::PopulationConfig;
use crate::error::TraceError;
use crate::population::{sample_job, JOB_CHUNK};

/// Leading magic of a serialized checkpoint.
const MAGIC: [u8; 4] = *b"PAIC";
/// Checkpoint format version this build reads and writes.
const VERSION: u16 = 1;
/// Flag bit: the checkpoint carries a [`WhatIfIndex`].
const FLAG_WHATIF: u8 = 0b0000_0001;
/// Flag bit: the session ran with [`IngestPolicy::Quarantine`].
const FLAG_QUARANTINE: u8 = 0b0000_0010;
/// All flag bits this build understands.
const KNOWN_FLAGS: u8 = FLAG_WHATIF | FLAG_QUARANTINE;

/// A lazy generator of the population's job sequence.
///
/// Yields exactly the jobs `Population::builder(config).seed(seed)`
/// would store, in the same order: the iterator re-seeds its RNG at
/// every [`JOB_CHUNK`] boundary from the same `(seed, chunk)`
/// derivation the batch/parallel paths use, so batch, parallel and
/// streaming generation are one sequence with three drivers.
#[derive(Debug, Clone)]
pub struct JobStream<'a> {
    config: &'a PopulationConfig,
    model: PerfModel,
    seed: u64,
    next: usize,
    total: usize,
    rng: StdRng,
}

impl<'a> JobStream<'a> {
    /// Opens a stream over the population `config` describes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when `config` fails validation.
    pub fn new(config: &'a PopulationConfig, seed: u64) -> Result<JobStream<'a>, TraceError> {
        config.validate()?;
        Ok(JobStream {
            config,
            model: PerfModel::paper_default(),
            seed,
            next: 0,
            total: config.jobs,
            // The first `next()` lands on the chunk-0 boundary, so
            // seeding with the chunk-0 derivation up front is
            // identical to the boundary re-seed it replaces.
            rng: StdRng::seed_from_u64(pai_par::derive_seed(seed, 0)),
        })
    }

    /// Jobs yielded so far — the id of the next job is this position.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Reopens a stream at a previously checkpointed `position`.
    ///
    /// Because the stream re-seeds its RNG from `(seed, chunk)` at
    /// every [`JOB_CHUNK`] boundary, a stream resumed on the chunk grid
    /// yields exactly the jobs the original stream would have yielded
    /// from that position — the generation half of the
    /// interrupted≡uninterrupted guarantee.
    ///
    /// # Errors
    ///
    /// [`TraceError::Config`] when `config` fails validation;
    /// [`TraceError::Checkpoint`] with
    /// [`CheckpointError::NotAtChunkBoundary`] when `position` is off
    /// the chunk grid (and not the end of the stream), or
    /// [`CheckpointError::InvalidField`] when `position` exceeds the
    /// population size.
    pub fn resume(
        config: &'a PopulationConfig,
        seed: u64,
        position: usize,
    ) -> Result<JobStream<'a>, TraceError> {
        let mut stream = JobStream::new(config, seed)?;
        if position > stream.total {
            return Err(CheckpointError::InvalidField {
                field: "stream.position",
            }
            .into());
        }
        if !position.is_multiple_of(JOB_CHUNK) && position != stream.total {
            return Err(CheckpointError::NotAtChunkBoundary {
                jobs: position as u64,
            }
            .into());
        }
        stream.next = position;
        Ok(stream)
    }
}

impl Iterator for JobStream<'_> {
    type Item = WorkloadFeatures;

    fn next(&mut self) -> Option<WorkloadFeatures> {
        if self.next >= self.total {
            return None;
        }
        if self.next.is_multiple_of(JOB_CHUNK) {
            let chunk = (self.next / JOB_CHUNK) as u64;
            self.rng = StdRng::seed_from_u64(pai_par::derive_seed(self.seed, chunk));
        }
        self.next += 1;
        Some(sample_job(&mut self.rng, self.config, &self.model))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for JobStream<'_> {}

/// What a session does with an externally supplied record that fails
/// ingest validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Reject the record and fail the ingest call — the feeder must
    /// handle (or crash on) the first malformed record.
    #[default]
    FailFast,
    /// Skip the record and count it in the per-reason quarantine
    /// counters surfaced by [`HeadlineStats`]; ingest keeps going.
    Quarantine,
}

/// An incremental characterization session over a job stream.
///
/// Jobs fold into a pending accumulator that merges into the running
/// one at every [`JOB_CHUNK`] boundary — the same chunk grid and
/// merge order as batch [`pai_core::characterize`], which is what
/// makes [`StreamSession::stats`] bit-identical to the batch result
/// over the same jobs. Memory is bounded: two accumulators regardless
/// of stream length, plus three `f64` columns per PS/Worker job when
/// the optional what-if index is enabled.
///
/// Two robustness layers wrap the hot path:
///
/// - [`StreamSession::ingest_untrusted`] validates external
///   [`RawFeatures`] records under a configurable [`IngestPolicy`]
///   before they can touch the accumulators.
/// - [`StreamSession::checkpoint`] / [`StreamSession::resume`]
///   serialize the complete session state on the chunk grid, so a
///   killed process restarts bit-identical to one that never died.
#[derive(Debug, Clone)]
pub struct StreamSession {
    model: PerfModel,
    running: HeadlineAccum,
    pending: HeadlineAccum,
    pending_len: usize,
    whatif: Option<WhatIfIndex>,
    policy: IngestPolicy,
}

impl StreamSession {
    /// A statistics-only session: strictly bounded memory at any
    /// stream length.
    pub fn new(model: PerfModel) -> StreamSession {
        StreamSession {
            model,
            running: HeadlineAccum::new(model),
            pending: HeadlineAccum::new(model),
            pending_len: 0,
            whatif: None,
            policy: IngestPolicy::default(),
        }
    }

    /// A session that additionally builds the resident-column
    /// [`WhatIfIndex`] for post-hoc bandwidth queries.
    pub fn with_whatif(model: PerfModel) -> StreamSession {
        StreamSession {
            whatif: Some(WhatIfIndex::new(model)),
            ..StreamSession::new(model)
        }
    }

    /// Folds one job into the session. The job is priced once; the
    /// accumulator and the what-if index share its Eq. 1 terms.
    pub fn ingest(&mut self, job: &WorkloadFeatures) {
        let terms = self.model.terms(job);
        self.pending.ingest_priced(job, &terms);
        if let Some(index) = &mut self.whatif {
            index.push_priced(job, &terms);
        }
        self.pending_len += 1;
        if self.pending_len == JOB_CHUNK {
            self.running.merge(&self.pending);
            self.pending = HeadlineAccum::new(self.model);
            self.pending_len = 0;
        }
    }

    /// Jobs ingested so far.
    pub fn jobs(&self) -> u64 {
        self.running.jobs() + self.pending.jobs()
    }

    /// The headline statistics over everything ingested so far —
    /// bit-identical to batch [`pai_core::characterize`] over the
    /// same jobs.
    pub fn stats(&self) -> HeadlineStats {
        let mut acc = self.running.clone();
        acc.merge(&self.pending);
        acc.stats()
    }

    /// The what-if index, when the session was opened with one.
    pub fn whatif(&self) -> Option<&WhatIfIndex> {
        self.whatif.as_ref()
    }

    /// Consumes the session, releasing the what-if index.
    pub fn into_whatif(self) -> Option<WhatIfIndex> {
        self.whatif
    }

    /// The active policy for malformed external records.
    pub fn policy(&self) -> IngestPolicy {
        self.policy
    }

    /// The session with `policy` for malformed external records.
    pub fn with_policy(mut self, policy: IngestPolicy) -> StreamSession {
        self.policy = policy;
        self
    }

    /// Validates and folds one externally supplied record.
    ///
    /// Returns `Ok(true)` when the record was accepted and ingested,
    /// `Ok(false)` when it was quarantined under
    /// [`IngestPolicy::Quarantine`].
    ///
    /// Quarantine counters live in the running accumulator, so they
    /// merge, checkpoint and resume with the rest of the session state
    /// and surface per reason in [`HeadlineStats`].
    ///
    /// # Errors
    ///
    /// [`TraceError::RejectedFeatures`] when the record fails
    /// validation under [`IngestPolicy::FailFast`].
    pub fn ingest_untrusted(&mut self, raw: &RawFeatures) -> Result<bool, TraceError> {
        match raw.validate() {
            Ok(job) => {
                self.ingest(&job);
                Ok(true)
            }
            Err(violation) => match self.policy {
                IngestPolicy::FailFast => Err(violation.into()),
                IngestPolicy::Quarantine => {
                    self.running.record_quarantine(&violation);
                    Ok(false)
                }
            },
        }
    }

    /// Records quarantined so far, per [`FeatureViolation`] reason
    /// index (labels in [`FeatureViolation::REASON_LABELS`]).
    pub fn quarantined(&self) -> [u64; FeatureViolation::REASONS] {
        self.running.quarantined()
    }

    /// Total records quarantined so far.
    pub fn quarantined_total(&self) -> u64 {
        self.running.quarantined_total()
    }

    /// Records offered to the session so far: accepted jobs plus
    /// quarantined records. This is the position stored in a
    /// checkpoint; a feeder replaying its source should skip exactly
    /// this many records after a resume.
    pub fn position(&self) -> u64 {
        self.jobs() + self.quarantined_total()
    }

    /// Serializes the complete session state — accumulators,
    /// quarantine counters, optional what-if index, ingest policy —
    /// into a self-describing, CRC-checked byte envelope.
    ///
    /// Checkpoints are only taken on the [`JOB_CHUNK`] grid. That is
    /// what makes resume bit-identical to never crashing: at a chunk
    /// boundary the pending accumulator is empty, and a resumed
    /// [`JobStream`] re-derives the same per-chunk RNG streams the
    /// uninterrupted run would have used.
    ///
    /// # Errors
    ///
    /// [`TraceError::Checkpoint`] with
    /// [`CheckpointError::NotAtChunkBoundary`] when jobs are pending
    /// mid-chunk.
    pub fn checkpoint(&self) -> Result<Vec<u8>, TraceError> {
        if self.pending_len != 0 {
            return Err(CheckpointError::NotAtChunkBoundary { jobs: self.jobs() }.into());
        }
        let mut flags = 0u8;
        if self.whatif.is_some() {
            flags |= FLAG_WHATIF;
        }
        if self.policy == IngestPolicy::Quarantine {
            flags |= FLAG_QUARANTINE;
        }
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(VERSION);
        w.put_u8(flags);
        w.put_u8(0); // reserved
        w.put_u64(model_fingerprint(&self.model));
        w.put_u64(self.position());
        self.running.encode_into(&mut w);
        if let Some(index) = &self.whatif {
            index.encode_into(&mut w);
        }
        Ok(w.finish_with_crc())
    }

    /// Rebuilds a session from [`StreamSession::checkpoint`] bytes.
    ///
    /// The decoder is total: any byte sequence either rebuilds the
    /// exact session or returns a typed [`CheckpointError`] — magic,
    /// version and CRC are verified before any field is trusted, the
    /// model fingerprint must match `model`, and decoded state must
    /// satisfy the accumulator's internal invariants.
    ///
    /// # Errors
    ///
    /// [`TraceError::Checkpoint`] describing the first defect found.
    pub fn resume(model: PerfModel, bytes: &[u8]) -> Result<StreamSession, TraceError> {
        let mut header = ByteReader::new(bytes);
        let magic = header.take(4)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            }
            .into());
        }
        let version = header.u16()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version }.into());
        }
        // Verify the trailer before decoding any payload field.
        if header.remaining() < 4 {
            return Err(CheckpointError::Truncated {
                offset: header.position(),
                needed: 4,
            }
            .into());
        }
        let Some((payload, trailer)) = bytes
            .len()
            .checked_sub(4)
            .and_then(|mid| bytes.split_at_checked(mid))
        else {
            return Err(CheckpointError::Truncated {
                offset: header.position(),
                needed: 4,
            }
            .into());
        };
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed }.into());
        }
        let mut r = ByteReader::new(payload);
        // Already validated, but re-read to keep one cursor.
        let _ = r.take(4)?;
        let _ = r.u16()?;
        let flags = r.u8()?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(CheckpointError::InvalidField { field: "flags" }.into());
        }
        let reserved = r.u8()?;
        if reserved != 0 {
            return Err(CheckpointError::InvalidField { field: "reserved" }.into());
        }
        let stored_model = r.u64()?;
        let expected_model = model_fingerprint(&model);
        if stored_model != expected_model {
            return Err(CheckpointError::ModelMismatch {
                stored: stored_model,
                expected: expected_model,
            }
            .into());
        }
        let position = r.u64()?;
        let running = HeadlineAccum::decode_from(model, &mut r)?;
        let whatif = if flags & FLAG_WHATIF != 0 {
            Some(WhatIfIndex::decode_from(model, &mut r)?)
        } else {
            None
        };
        r.finish()?;
        // The quarantine total fits (the decoder checked it); the sum
        // with the job count may still not.
        if running.jobs().checked_add(running.quarantined_total()) != Some(position) {
            return Err(CheckpointError::InvalidField { field: "position" }.into());
        }
        if !running.jobs().is_multiple_of(JOB_CHUNK as u64) {
            return Err(CheckpointError::NotAtChunkBoundary {
                jobs: running.jobs(),
            }
            .into());
        }
        let policy = if flags & FLAG_QUARANTINE != 0 {
            IngestPolicy::Quarantine
        } else {
            IngestPolicy::FailFast
        };
        Ok(StreamSession {
            model,
            running,
            pending: HeadlineAccum::new(model),
            pending_len: 0,
            whatif,
            policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use crate::store::JobStore;
    use pai_core::project::ProjectionTarget;
    use pai_core::{characterize, Jobs};
    use pai_par::Threads;

    const SEED: u64 = 1905930;

    #[test]
    fn stream_reproduces_batch_generation() {
        // 2.5 chunks: exercises the mid-chunk and chunk-boundary paths.
        let cfg = PopulationConfig::paper_scale(2_560).unwrap();
        let pop = Population::builder(cfg.clone())
            .seed(SEED)
            .threads(Threads::new(4))
            .build()
            .unwrap();
        let streamed: JobStore = JobStream::new(&cfg, SEED).unwrap().collect();
        assert_eq!(streamed.len(), pop.len());
        for i in 0..pop.len() {
            assert_eq!(
                streamed.get(i),
                Jobs::get(pop.store(), i),
                "job {i} drifted"
            );
        }
    }

    #[test]
    fn stream_size_hint_is_exact() {
        let cfg = PopulationConfig::paper_scale(100).unwrap();
        let mut stream = JobStream::new(&cfg, 1).unwrap();
        assert_eq!(stream.len(), 100);
        let _ = stream.next();
        assert_eq!(stream.size_hint(), (99, Some(99)));
        assert_eq!(stream.position(), 1);
        assert_eq!(stream.by_ref().count(), 99);
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn session_stats_match_batch_bitwise() {
        let cfg = PopulationConfig::paper_scale(3_000).unwrap();
        let model = PerfModel::paper_default();
        let mut session = StreamSession::with_whatif(model);
        for job in JobStream::new(&cfg, SEED).unwrap() {
            session.ingest(&job);
        }
        let pop = Population::generate(&cfg, SEED).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let batch = characterize(&model, pop.store(), Threads::new(threads));
            assert_eq!(session.stats(), batch, "drift at {threads} threads");
        }
        // The streaming what-if index is the batch-built one.
        let batch_index = WhatIfIndex::build(&model, pop.store(), Threads::new(4));
        assert_eq!(session.whatif().unwrap(), &batch_index);
        assert_eq!(session.jobs(), 3_000);
    }

    #[test]
    fn mid_stream_snapshots_match_prefix_batches() {
        let cfg = PopulationConfig::paper_scale(2_200).unwrap();
        let model = PerfModel::paper_default();
        let mut session = StreamSession::new(model);
        let mut prefix = JobStore::new();
        for (i, job) in JobStream::new(&cfg, 7).unwrap().enumerate() {
            session.ingest(&job);
            prefix.push(&job);
            // Snapshot at a mid-chunk point, a boundary, and the end.
            if i + 1 == 700 || i + 1 == 2 * JOB_CHUNK || i + 1 == 2_200 {
                let batch = characterize(&model, &prefix, Threads::new(4));
                assert_eq!(session.stats(), batch, "prefix {} drifted", i + 1);
            }
        }
    }

    #[test]
    fn stats_only_session_has_no_index() {
        let session = StreamSession::new(PerfModel::paper_default());
        assert!(session.whatif().is_none());
        assert!(session.into_whatif().is_none());
    }

    #[test]
    fn stream_rejects_invalid_configs() {
        let mut cfg = PopulationConfig::paper_scale(10).unwrap();
        cfg.class_mix = [1.0, 1.0, 0.0, 0.0];
        assert!(matches!(
            JobStream::new(&cfg, 1),
            Err(TraceError::Config(_))
        ));
    }

    #[test]
    fn resumed_stream_yields_the_original_tail() {
        let cfg = PopulationConfig::paper_scale(3 * JOB_CHUNK + 100).unwrap();
        let full: Vec<_> = JobStream::new(&cfg, SEED).unwrap().collect();
        for boundary in [0, JOB_CHUNK, 3 * JOB_CHUNK] {
            let tail: Vec<_> = JobStream::resume(&cfg, SEED, boundary).unwrap().collect();
            assert_eq!(tail, full[boundary..], "tail from {boundary} drifted");
        }
        // Resuming at the exact end yields nothing.
        let end: Vec<_> = JobStream::resume(&cfg, SEED, full.len()).unwrap().collect();
        assert!(end.is_empty());
    }

    #[test]
    fn stream_resume_rejects_off_grid_and_out_of_range_positions() {
        let cfg = PopulationConfig::paper_scale(3 * JOB_CHUNK).unwrap();
        assert_eq!(
            JobStream::resume(&cfg, SEED, 17).unwrap_err(),
            TraceError::Checkpoint(CheckpointError::NotAtChunkBoundary { jobs: 17 })
        );
        assert_eq!(
            JobStream::resume(&cfg, SEED, 4 * JOB_CHUNK).unwrap_err(),
            TraceError::Checkpoint(CheckpointError::InvalidField {
                field: "stream.position"
            })
        );
    }

    #[test]
    fn checkpoint_resume_roundtrips_mid_stream() {
        let cfg = PopulationConfig::paper_scale(4 * JOB_CHUNK).unwrap();
        let model = PerfModel::paper_default();
        let mut uninterrupted = StreamSession::with_whatif(model);
        let mut victim = StreamSession::with_whatif(model);
        let mut stream = JobStream::new(&cfg, SEED).unwrap();
        for _ in 0..2 * JOB_CHUNK {
            let job = stream.next().unwrap();
            uninterrupted.ingest(&job);
            victim.ingest(&job);
        }
        let bytes = victim.checkpoint().unwrap();
        drop(victim); // the crash
        let mut resumed = StreamSession::resume(model, &bytes).unwrap();
        assert_eq!(resumed.jobs(), 2 * JOB_CHUNK as u64);
        let mut tail = JobStream::resume(&cfg, SEED, resumed.jobs() as usize).unwrap();
        for _ in 0..2 * JOB_CHUNK {
            let job = tail.next().unwrap();
            uninterrupted.ingest(&job);
            resumed.ingest(&job);
        }
        assert_eq!(resumed.stats(), uninterrupted.stats());
        assert_eq!(resumed.whatif().unwrap(), uninterrupted.whatif().unwrap());
    }

    #[test]
    fn checkpoint_off_the_chunk_grid_is_refused() {
        let cfg = PopulationConfig::paper_scale(JOB_CHUNK + 10).unwrap();
        let mut session = StreamSession::new(PerfModel::paper_default());
        for job in JobStream::new(&cfg, SEED).unwrap() {
            session.ingest(&job);
        }
        assert_eq!(
            session.checkpoint().unwrap_err(),
            TraceError::Checkpoint(CheckpointError::NotAtChunkBoundary {
                jobs: JOB_CHUNK as u64 + 10
            })
        );
    }

    fn good_raw() -> RawFeatures {
        RawFeatures::from(
            &WorkloadFeatures::builder(pai_core::Architecture::PsWorker)
                .cnodes(8)
                .batch_size(64)
                .input_bytes(pai_hw::Bytes::from_mb(10.0))
                .weight_bytes(pai_hw::Bytes::from_gb(1.0))
                .flops(pai_hw::Flops::from_tera(0.5))
                .mem_access_bytes(pai_hw::Bytes::from_gb(20.0))
                .build(),
        )
    }

    #[test]
    fn untrusted_ingest_honours_both_policies() {
        let model = PerfModel::paper_default();
        let good = good_raw();
        let mut bad = good;
        bad.flops = f64::NAN;

        // Fail-fast (the default) rejects the first malformed record.
        let mut strict = StreamSession::new(model);
        assert_eq!(strict.policy(), IngestPolicy::FailFast);
        assert!(strict.ingest_untrusted(&good).unwrap());
        assert!(matches!(
            strict.ingest_untrusted(&bad),
            Err(TraceError::RejectedFeatures { .. })
        ));
        assert_eq!(strict.jobs(), 1);

        // Quarantine skips, counts per reason, and keeps going.
        let mut lax = StreamSession::new(model).with_policy(IngestPolicy::Quarantine);
        assert!(lax.ingest_untrusted(&good).unwrap());
        assert!(!lax.ingest_untrusted(&bad).unwrap());
        let mut zero_batch = good;
        zero_batch.batch_size = 0;
        assert!(!lax.ingest_untrusted(&zero_batch).unwrap());
        assert_eq!(lax.jobs(), 1);
        assert_eq!(lax.quarantined_total(), 2);
        assert_eq!(lax.position(), 3);
        let stats = lax.stats();
        assert_eq!(stats.quarantined_total, 2);
        assert_eq!(
            stats.quarantined[FeatureViolation::ZeroBatch.index()],
            1,
            "zero-batch slot"
        );
    }

    #[test]
    fn a_zero_work_record_is_accepted_but_never_projected() {
        // Valid by every ingest rule, yet it prices at zero step time:
        // neither projection speedup is defined, so the job counts as
        // PS/Worker but not as eligible for projection.
        let model = PerfModel::paper_default();
        let zero = RawFeatures {
            arch: pai_core::Architecture::PsWorker,
            cnodes: 2,
            batch_size: 1,
            input_bytes: 0.0,
            weight_bytes: 0.0,
            flops: 0.0,
            mem_access_bytes: 0.0,
        };
        let mut session = StreamSession::new(model);
        assert!(session.ingest_untrusted(&zero).unwrap());
        assert!(session.ingest_untrusted(&good_raw()).unwrap());
        let stats = session.stats();
        assert_eq!(stats.ps_jobs, 2);
        assert_eq!(stats.arl_eligible, 1);

        let jobs = [zero.validate().unwrap(), good_raw().validate().unwrap()];
        assert_eq!(characterize(&model, &jobs[..], Threads::SERIAL), stats);
        for target in [
            ProjectionTarget::AllReduceLocal,
            ProjectionTarget::AllReduceCluster,
        ] {
            let outcomes = model.projections(&jobs[..], target, Threads::SERIAL);
            assert_eq!(outcomes.len(), 1, "{target:?}");
            assert_eq!(outcomes[0].original, jobs[1]);
        }
    }

    #[test]
    fn resume_restores_policy_and_quarantine_counters() {
        let model = PerfModel::paper_default();
        let mut session = StreamSession::new(model).with_policy(IngestPolicy::Quarantine);
        let mut bad = good_raw();
        bad.cnodes = 0;
        assert!(!session.ingest_untrusted(&bad).unwrap());
        let bytes = session.checkpoint().unwrap();
        let resumed = StreamSession::resume(model, &bytes).unwrap();
        assert_eq!(resumed.policy(), IngestPolicy::Quarantine);
        assert_eq!(resumed.quarantined_total(), 1);
        assert_eq!(resumed.position(), 1);
        assert_eq!(resumed.jobs(), 0);
        assert_eq!(resumed.stats(), session.stats());
    }

    #[test]
    fn resume_rejects_a_mismatched_model() {
        let session = StreamSession::new(PerfModel::paper_default());
        let bytes = session.checkpoint().unwrap();
        assert!(matches!(
            StreamSession::resume(PerfModel::testbed_default(), &bytes),
            Err(TraceError::Checkpoint(
                CheckpointError::ModelMismatch { .. }
            ))
        ));
    }
}
