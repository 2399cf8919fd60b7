//! Crash-safety suite for the streaming checkpoint codec.
//!
//! Three contracts, pinned end to end:
//!
//! - **Decode totality**: no byte sequence may panic the decoder.
//!   Every single-byte truncation of a valid checkpoint and a seeded
//!   corpus of bit flips must come back as a typed
//!   [`CheckpointError`], and so must counters whose sums pass
//!   `u64::MAX`, or job and quarantine counts past 2^53, under a valid
//!   CRC.
//! - **Interrupted ≡ uninterrupted**: killing the stream at *any*
//!   chunk boundary and resuming from the checkpoint yields
//!   bit-identical statistics and what-if artifacts to a run that
//!   never died, at 1/2/4/8 worker threads.
//! - **A fixed format**: the bytes a session writes are pinned, so a
//!   faster encoder or checksum cannot change what older builds read.

use std::sync::OnceLock;

use pai_core::{
    characterize, Architecture, CheckpointError, PerfModel, RawFeatures, WorkloadFeatures,
};
use pai_faults::ChaosPlan;
use pai_par::Threads;
use pai_trace::population::JOB_CHUNK;
use pai_trace::{IngestPolicy, JobStream, Population, PopulationConfig, StreamSession, TraceError};
use proptest::prelude::*;

const SEED: u64 = 1_905_930;

fn session_after(cfg: &PopulationConfig, jobs: usize) -> StreamSession {
    let mut session = StreamSession::with_whatif(PerfModel::paper_default());
    for job in JobStream::new(cfg, SEED).unwrap().take(jobs) {
        session.ingest(&job);
    }
    session
}

/// A checkpoint with every section populated: accepted jobs, what-if
/// rows, and nonzero quarantine counters.
fn rich_checkpoint() -> Vec<u8> {
    let cfg = PopulationConfig::paper_scale(2 * JOB_CHUNK).unwrap();
    let mut session = session_after(&cfg, 2 * JOB_CHUNK).with_policy(IngestPolicy::Quarantine);
    let good = JobStream::new(&cfg, SEED).unwrap().next().unwrap();
    let mut bad = RawFeatures::from(&good);
    bad.mem_access_bytes = f64::NEG_INFINITY;
    assert!(!session.ingest_untrusted(&bad).unwrap());
    session.checkpoint().unwrap()
}

/// Rewrites the CRC trailer over the (edited) payload, so only the
/// edit itself is wrong.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = pai_core::crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
#[cfg_attr(miri, ignore = "population generation is too slow under miri")]
fn every_single_byte_truncation_is_a_typed_error() {
    let model = PerfModel::paper_default();
    let bytes = rich_checkpoint();
    assert!(StreamSession::resume(model, &bytes).is_ok());
    for len in 0..bytes.len() {
        let err = StreamSession::resume(model, &bytes[..len])
            .expect_err("a truncated checkpoint must never decode");
        assert!(
            matches!(err, TraceError::Checkpoint(_)),
            "truncation to {len} byte(s) produced a non-checkpoint error: {err}"
        );
    }
}

/// The Miri leg of truncation totality: an empty session's checkpoint
/// is a few dozen bytes, so every prefix decode runs under the
/// interpreter and exercises the raw `ByteReader` pointer arithmetic.
#[test]
fn every_truncation_of_a_minimal_checkpoint_is_a_typed_error() {
    let model = PerfModel::paper_default();
    let bytes = StreamSession::new(model).checkpoint().unwrap();
    assert!(StreamSession::resume(model, &bytes).is_ok());
    for len in 0..bytes.len() {
        let err = StreamSession::resume(model, &bytes[..len])
            .expect_err("a truncated checkpoint must never decode");
        assert!(matches!(err, TraceError::Checkpoint(_)), "len {len}: {err}");
    }
}

#[test]
#[cfg_attr(miri, ignore = "population generation is too slow under miri")]
fn seeded_bit_flips_never_panic_and_never_resume_silently() {
    let model = PerfModel::paper_default();
    let bytes = rich_checkpoint();
    let mut rejected = 0usize;
    for c in ChaosPlan::new(SEED).corruptions(bytes.len(), 200) {
        let mangled = c.apply(&bytes);
        if mangled == bytes {
            continue;
        }
        match StreamSession::resume(model, &mangled) {
            Err(TraceError::Checkpoint(_)) => rejected += 1,
            Err(e) => panic!("corruption surfaced a non-checkpoint error: {e}"),
            Ok(_) => panic!("a corrupted checkpoint resumed silently: {c:?}"),
        }
    }
    assert!(rejected > 100, "only {rejected} corruptions were exercised");
}

#[test]
#[cfg_attr(miri, ignore = "population generation is too slow under miri")]
fn exhaustive_bit_flips_over_the_envelope_are_typed_errors() {
    // Flip every bit of the header and the first accumulator fields,
    // plus every bit of the CRC trailer: the regions where a wrong
    // decode would be most damaging.
    let model = PerfModel::paper_default();
    let bytes = rich_checkpoint();
    let head = 64.min(bytes.len());
    let regions = (0..head).chain(bytes.len() - 4..bytes.len());
    for offset in regions {
        for bit in 0..8u8 {
            let mut mangled = bytes.clone();
            mangled[offset] ^= 1 << bit;
            let err = StreamSession::resume(model, &mangled)
                .expect_err("a flipped checkpoint must never decode");
            assert!(matches!(err, TraceError::Checkpoint(_)), "{offset}:{bit}");
        }
    }
}

#[test]
fn garbage_prefixes_are_rejected_with_precise_errors() {
    let model = PerfModel::paper_default();
    // Wrong magic.
    let err = StreamSession::resume(model, b"NOPE____________").unwrap_err();
    assert!(matches!(
        err,
        TraceError::Checkpoint(CheckpointError::BadMagic { .. })
    ));
    // Right magic, future version.
    let mut bytes = StreamSession::new(model).checkpoint().unwrap();
    bytes[4] = 0xFF;
    reseal(&mut bytes);
    assert!(matches!(
        StreamSession::resume(model, &bytes).unwrap_err(),
        TraceError::Checkpoint(CheckpointError::UnsupportedVersion { .. })
    ));
    // Empty input.
    assert!(matches!(
        StreamSession::resume(model, &[]).unwrap_err(),
        TraceError::Checkpoint(CheckpointError::Truncated { .. })
    ));
}

#[test]
fn trailing_bytes_inside_the_envelope_are_rejected() {
    let model = PerfModel::paper_default();
    let bytes = StreamSession::new(model).checkpoint().unwrap();
    // Splice two zero bytes in front of the CRC and re-seal the
    // trailer, so only the payload length is wrong.
    let mut padded = bytes[..bytes.len() - 4].to_vec();
    padded.extend_from_slice(&[0, 0]);
    let crc = pai_core::crc32(&padded);
    padded.extend_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        StreamSession::resume(model, &padded).unwrap_err(),
        TraceError::Checkpoint(CheckpointError::TrailingBytes { extra: 2 })
    ));
}

#[test]
#[cfg_attr(miri, ignore = "population generation is too slow under miri")]
fn resume_across_thread_counts_matches_batch_exactly() {
    // The interrupted≡uninterrupted oracle composed with the
    // serial≡parallel oracle: a session resumed mid-stream must equal
    // batch characterization of the full population at any thread
    // count.
    let jobs = 5 * JOB_CHUNK + 123;
    let cfg = PopulationConfig::paper_scale(jobs).unwrap();
    let model = PerfModel::paper_default();
    let bytes = session_after(&cfg, 3 * JOB_CHUNK).checkpoint().unwrap();
    let mut resumed = StreamSession::resume(model, &bytes).unwrap();
    for job in JobStream::resume(&cfg, SEED, resumed.jobs() as usize).unwrap() {
        resumed.ingest(&job);
    }
    for threads in [1usize, 2, 4, 8] {
        let pop = Population::builder(cfg.clone())
            .seed(SEED)
            .threads(Threads::new(threads))
            .build()
            .unwrap();
        let batch = characterize(&model, pop.store(), Threads::new(threads));
        assert_eq!(resumed.stats(), batch, "drift at {threads} threads");
    }
}

/// The empty session's checkpoint, byte for byte. The literal was read
/// from a build with the byte-at-a-time CRC, so a faster encoder or
/// checksum that passes writes the format older builds read.
const EMPTY_CHECKPOINT_HEX: &str = concat!(
    // magic `PAIC`, version 1, flags 0, reserved 0
    "5041494301000000",
    // fingerprint of `PerfModel::paper_default()`
    "f13bd175617ff2bc",
    // position 0
    "0000000000000000",
    // `HeadlineAccum` before the histogram: jobs, class counts, cNode totals,
    // small models, analyzed jobs and cNodes, fraction sums, PS jobs and PS
    // jobs over 80% comm, 24 zero words
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    // `FracHist` bin count 256, then 256 zero bins
    "0001000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "00000000",
    // 100 GbE ratio sum, AllReduce-Local and -Cluster counters and sums:
    // 8 zero words
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    // five zero quarantine counters
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000",
    // CRC-32 trailer
    "025a21a2",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FNV-1a 64 over every byte: a digest of the whole checkpoint that
/// does not go through the CRC under test.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn the_empty_session_checkpoint_is_pinned_byte_for_byte() {
    let model = PerfModel::paper_default();
    let bytes = StreamSession::new(model).checkpoint().unwrap();
    assert_eq!(hex(&bytes), EMPTY_CHECKPOINT_HEX);
    assert!(StreamSession::resume(model, &bytes).is_ok());
}

#[test]
#[cfg_attr(miri, ignore = "population generation is too slow under miri")]
fn the_rich_checkpoint_length_trailer_and_digest_are_pinned() {
    let bytes = rich_checkpoint();
    let n = bytes.len();
    assert_eq!(n, 16_472);
    let trailer = u32::from_le_bytes([bytes[n - 4], bytes[n - 3], bytes[n - 2], bytes[n - 1]]);
    assert_eq!(trailer, 0xb563_330b);
    assert_eq!(fnv1a64(&bytes), 0xb7a4_0012_cae8_930b);
}

/// Writes `u64::MAX` and `1` into the 8-byte words at `offset` and
/// `offset + 8`: each fits, but their sum does not.
fn overflow_pair(bytes: &[u8], offset: usize) -> Vec<u8> {
    let mut edited = bytes.to_vec();
    edited[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    edited[offset + 8..offset + 16].copy_from_slice(&1u64.to_le_bytes());
    reseal(&mut edited);
    edited
}

/// Counter arrays whose sums the decoder checks or `stats()` takes,
/// by byte offset in a checkpoint: overflowing any of them under a
/// valid CRC is an `InvalidField`, never a panic or a wrapped total.
#[test]
fn counter_sums_past_u64_max_are_invalid_fields() {
    let model = PerfModel::paper_default();
    let bytes = StreamSession::new(model).checkpoint().unwrap();
    for (offset, field) in [
        (32, "class_counts"),
        (72, "cnode_totals"),
        (220, "comm_hist"),
        (2_332, "quarantined"),
    ] {
        match StreamSession::resume(model, &overflow_pair(&bytes, offset)) {
            Err(TraceError::Checkpoint(CheckpointError::InvalidField { field: got })) => {
                assert_eq!(got, field, "words at {offset}");
            }
            Err(e) => panic!("words at {offset}: {e}"),
            Ok(session) => panic!(
                "words at {offset} resumed; ps_cnode_share {}",
                session.stats().ps_cnode_share
            ),
        }
    }
}

/// Writes `value` into the 8-byte words at `offsets` and re-seals.
fn with_words(bytes: &[u8], offsets: &[usize], value: u64) -> Vec<u8> {
    let mut edited = bytes.to_vec();
    for &offset in offsets {
        edited[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }
    reseal(&mut edited);
    edited
}

/// 2^53: the largest job or quarantine count a session resumes with.
const MAX_RESUMED_COUNT: u64 = 1 << 53;

/// Resumes `bytes`, which must be rejected on `field`.
fn assert_invalid_field(model: PerfModel, bytes: &[u8], field: &str) {
    match StreamSession::resume(model, bytes) {
        Err(TraceError::Checkpoint(CheckpointError::InvalidField { field: got })) => {
            assert_eq!(got, field);
        }
        Err(e) => panic!("expected InvalidField {field}, got {e}"),
        Ok(session) => panic!("resumed at {} jobs", session.jobs()),
    }
}

/// Position, `jobs` and class 0's count set to one consistent value
/// (bytes 16, 24 and 32): a session at 2^53 jobs resumes and keeps
/// ingesting, and one past it is rejected before a merge can overflow.
#[test]
fn a_job_count_past_2_pow_53_is_an_invalid_field() {
    let model = PerfModel::paper_default();
    let bytes = StreamSession::new(model).checkpoint().unwrap();
    let words = [16, 24, 32];
    let mut session =
        StreamSession::resume(model, &with_words(&bytes, &words, MAX_RESUMED_COUNT)).unwrap();
    let job = WorkloadFeatures::builder(Architecture::PsWorker)
        .cnodes(4)
        .build();
    for _ in 0..JOB_CHUNK {
        session.ingest(&job);
    }
    assert_eq!(session.jobs(), MAX_RESUMED_COUNT + JOB_CHUNK as u64);
    for value in [MAX_RESUMED_COUNT + JOB_CHUNK as u64, u64::MAX - 1023] {
        assert_invalid_field(model, &with_words(&bytes, &words, value), "jobs");
    }
}

/// Position and quarantine counter 0 (byte 2,332) set to one value:
/// a quarantine total of 2^53 resumes, and one past it is rejected.
#[test]
fn a_quarantine_total_past_2_pow_53_is_an_invalid_field() {
    let model = PerfModel::paper_default();
    let bytes = StreamSession::new(model).checkpoint().unwrap();
    let words = [16, 2_332];
    let session =
        StreamSession::resume(model, &with_words(&bytes, &words, MAX_RESUMED_COUNT)).unwrap();
    assert_eq!(session.stats().quarantined_total, MAX_RESUMED_COUNT);
    for value in [MAX_RESUMED_COUNT + 1, u64::MAX - 1023] {
        assert_invalid_field(model, &with_words(&bytes, &words, value), "quarantined");
    }
}

/// Offsets of the position word and of every 8-byte accumulator field
/// of a checkpoint: the 24 words before the histogram, its 256 bins
/// and the 13 words after it.
fn counter_word_offsets() -> Vec<usize> {
    (16..216)
        .step_by(8)
        .chain((220..2_372).step_by(8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill at an arbitrary chunk boundary, resume, finish: stats and
    /// what-if artifacts are bit-identical to the uninterrupted run,
    /// whose population generation itself ran at 1/2/4/8 threads.
    #[test]
    #[cfg_attr(miri, ignore = "population generation is too slow under miri")]
    fn kill_at_any_chunk_boundary_resumes_bit_identical(
        extra in 0usize..400,
        kill_chunk in 1usize..4,
    ) {
        let jobs = 4 * JOB_CHUNK + extra;
        let cfg = PopulationConfig::paper_scale(jobs).unwrap();
        let model = PerfModel::paper_default();

        let uninterrupted = session_after(&cfg, jobs);
        let bytes = session_after(&cfg, kill_chunk * JOB_CHUNK).checkpoint().unwrap();
        let mut resumed = StreamSession::resume(model, &bytes).unwrap();
        for job in JobStream::resume(&cfg, SEED, resumed.jobs() as usize).unwrap() {
            resumed.ingest(&job);
        }
        prop_assert_eq!(resumed.stats(), uninterrupted.stats());
        prop_assert_eq!(resumed.whatif(), uninterrupted.whatif());

        // And both equal the batch result at every thread count.
        for threads in [1usize, 2, 4, 8] {
            let pop = Population::builder(cfg.clone())
                .seed(SEED)
                .threads(Threads::new(threads))
                .build()
                .unwrap();
            let batch = characterize(&model, pop.store(), Threads::new(threads));
            prop_assert_eq!(resumed.stats(), batch, "drift at {} threads", threads);
        }
    }

    /// Proptest leg of decode totality: random byte soup never panics.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = StreamSession::resume(PerfModel::paper_default(), &bytes);
    }
}

proptest! {
    /// Any value in any one counter word of a populated checkpoint,
    /// under a valid CRC: `resume` returns a session or a typed
    /// checkpoint error, and a resumed session's `stats()` does not
    /// panic.
    #[test]
    #[cfg_attr(miri, ignore = "population generation is too slow under miri")]
    fn any_value_in_one_counter_word_resumes_or_is_a_typed_error(
        word in 0usize..counter_word_offsets().len(),
        value in prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), 0u64..u64::MAX],
    ) {
        static RICH: OnceLock<Vec<u8>> = OnceLock::new();
        let offset = counter_word_offsets()[word];
        let mut bytes = RICH.get_or_init(rich_checkpoint).clone();
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bytes);
        match StreamSession::resume(PerfModel::paper_default(), &bytes) {
            Ok(session) => {
                let _ = session.stats();
            }
            Err(TraceError::Checkpoint(_)) => {}
            Err(e) => prop_assert!(false, "word at {}: non-checkpoint error {}", offset, e),
        }
    }
}
