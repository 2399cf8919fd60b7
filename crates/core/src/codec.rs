//! Dependency-free binary codec primitives for durable checkpoints.
//!
//! The streaming characterization service snapshots its accumulator
//! state so a killed process can resume without re-ingesting the
//! stream. The wire format is deliberately primitive — little-endian
//! fixed-width fields behind a magic/version header and in front of a
//! CRC32 trailer — so a checkpoint written by one build can be audited
//! byte by byte and rejected loudly by another.
//!
//! Everything here is total: [`ByteReader`] never panics on any byte
//! sequence — every malformed input maps to a typed
//! [`CheckpointError`]. The fuzz-style corpus test in `pai-trace`
//! (every single-byte truncation, seeded bit flips) pins that contract.
//!
//! The trailer checksum is the IEEE CRC-32, computed by a safe
//! slicing-by-16 kernel ([`crc32`]) over sixteen 256-entry tables built
//! at compile time. A checkpoint seals every what-if row and a resume
//! verifies them all, so this kernel bounds how fast a session can
//! checkpoint and resume. It returns the classic byte-at-a-time value
//! for every input, so the format does not depend on which kernel
//! wrote it.

use std::fmt;

use pai_hw::LinkKind;

use crate::model::PerfModel;
use crate::overlap::OverlapMode;

/// Why a checkpoint could not be produced or restored.
///
/// Every variant is data — corrupt bytes, a model/state mismatch, a
/// mis-timed snapshot — surfaced as a value so services can retry from
/// an older checkpoint instead of dying on a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before a field could be read.
    Truncated {
        /// Offset at which the read was attempted.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// The leading magic bytes are not a checkpoint header.
    BadMagic {
        /// The four bytes found in place of the magic.
        found: [u8; 4],
    },
    /// The header version is newer than this build understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The CRC32 trailer does not match the preceding bytes.
    ChecksumMismatch {
        /// The checksum stored in the trailer.
        stored: u32,
        /// The checksum computed over the payload.
        computed: u32,
    },
    /// The checkpoint was written against a different analytical model.
    ModelMismatch {
        /// The model fingerprint stored in the checkpoint.
        stored: u64,
        /// The fingerprint of the model resuming the session.
        expected: u64,
    },
    /// A decoded field holds a value the accumulator can never produce.
    InvalidField {
        /// Which field was rejected.
        field: &'static str,
    },
    /// Decoding consumed the payload but bytes remain before the
    /// trailer.
    TrailingBytes {
        /// How many unconsumed bytes remain.
        extra: usize,
    },
    /// A checkpoint was requested off the [`pai_par::DEFAULT_CHUNK_SIZE`]
    /// grid — mid-chunk state cannot be resumed bit-identically.
    NotAtChunkBoundary {
        /// Jobs ingested at the attempted snapshot.
        jobs: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { offset, needed } => write!(
                f,
                "checkpoint truncated: needed {needed} byte(s) at offset {offset}"
            ),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint: bad magic {found:02x?}")
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: trailer {stored:#010x}, payload {computed:#010x}"
            ),
            CheckpointError::ModelMismatch { stored, expected } => write!(
                f,
                "checkpoint written against model {stored:#018x}, resuming with {expected:#018x}"
            ),
            CheckpointError::InvalidField { field } => {
                write!(f, "checkpoint field `{field}` holds an impossible value")
            }
            CheckpointError::TrailingBytes { extra } => {
                write!(
                    f,
                    "checkpoint has {extra} trailing byte(s) after the payload"
                )
            }
            CheckpointError::NotAtChunkBoundary { jobs } => write!(
                f,
                "checkpoint requested at {jobs} job(s), off the chunk grid; \
                 snapshots are only taken at chunk boundaries"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Little-endian binary encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern — bit-exact,
    /// so a resumed accumulator's partial sums are the written ones.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends the CRC32 of everything written so far, then returns
    /// the finished buffer.
    pub fn finish_with_crc(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.put_u32(crc);
        self.buf
    }

    /// The finished buffer without a trailer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian binary decoder; every read is bounds-checked and
/// returns [`CheckpointError::Truncated`] instead of panicking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its little-endian bit pattern. Any bit
    /// pattern decodes (including NaNs) — field-level validation is the
    /// caller's job.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Asserts the payload was fully consumed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// The slicing-by-16 lookup tables of the reflected CRC-32 (IEEE 802.3,
/// polynomial `0xEDB88320`), built at compile time.
///
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table: the CRC
/// register after shifting one byte through it. `CRC32_TABLES[k][b]`
/// is that value shifted on through `k` more zero bytes, so a byte
/// that sits `k` places before the end of a 16-byte block contributes
/// `CRC32_TABLES[k][b]` to the register after the block, and the
/// sixteen contributions combine by XOR (CRC is linear over GF(2)).
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32 (IEEE) of `bytes` — the checkpoint trailer checksum.
///
/// Slicing-by-16: a 16-byte block costs sixteen independent table
/// lookups, where the byte-at-a-time loop chains one lookup per byte
/// through the register. Only the block's first four bytes meet the
/// register, so the twelve lookups of the other bytes are folded
/// first, off the loop-carried path, which is then one load and two
/// XORs deep. The tail of fewer than 16 bytes takes the byte-at-a-time
/// step. The value is the byte-at-a-time CRC's for every input, so
/// trailers written by either kernel verify under the other.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = 0xFFFF_FFFFu32;
    for block in blocks {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
        let rest = t[11][b4 as usize]
            ^ t[10][b5 as usize]
            ^ t[9][b6 as usize]
            ^ t[8][b7 as usize]
            ^ t[7][b8 as usize]
            ^ t[6][b9 as usize]
            ^ t[5][b10 as usize]
            ^ t[4][b11 as usize]
            ^ t[3][b12 as usize]
            ^ t[2][b13 as usize]
            ^ t[1][b14 as usize]
            ^ t[0][b15 as usize];
        let [r0, r1, r2, r3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = rest
            ^ (t[15][r0 as usize] ^ t[14][r1 as usize])
            ^ (t[13][r2 as usize] ^ t[12][r3 as usize]);
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc as u8) ^ b) as usize];
    }
    !crc
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 64-bit fingerprint of everything in a [`PerfModel`] that can move
/// a headline statistic: per-link bandwidths and efficiencies, GPU
/// capacities, compute/memory derates and the overlap mode.
///
/// A checkpoint stores the fingerprint of the model it accumulated
/// under; resuming with a different model is a
/// [`CheckpointError::ModelMismatch`] — merging statistics across
/// models would silently corrupt every downstream number.
pub fn model_fingerprint(model: &PerfModel) -> u64 {
    let cfg = model.config();
    let mut h = fnv1a(FNV_OFFSET, b"pai-perf-model-v1");
    for kind in LinkKind::ALL {
        let link = cfg.link(kind);
        h = fnv1a(
            h,
            &link.bandwidth().as_bytes_per_sec().to_bits().to_le_bytes(),
        );
        h = fnv1a(h, &link.efficiency().to_bits().to_le_bytes());
    }
    let eff = cfg.efficiency();
    h = fnv1a(h, &eff.compute().to_bits().to_le_bytes());
    h = fnv1a(h, &eff.memory().to_bits().to_le_bytes());
    let gpu = cfg.gpu();
    h = fnv1a(
        h,
        &gpu.peak_flops().as_flops_per_sec().to_bits().to_le_bytes(),
    );
    h = fnv1a(
        h,
        &gpu.tensor_core_flops()
            .as_flops_per_sec()
            .to_bits()
            .to_le_bytes(),
    );
    h = fnv1a(
        h,
        &gpu.memory_bandwidth()
            .as_bytes_per_sec()
            .to_bits()
            .to_le_bytes(),
    );
    h = fnv1a(h, &gpu.memory_capacity().as_f64().to_bits().to_le_bytes());
    let overlap_tag: u8 = match model.overlap() {
        OverlapMode::Serialized => 0,
        OverlapMode::Ideal => 1,
    };
    h = fnv1a(h, &[overlap_tag]);
    h = fnv1a(h, &model.overlap().alpha().to_bits().to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC-32 over the first table: the reference
    /// the slicing kernel must match for every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            let idx = ((crc ^ b as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ CRC32_TABLES[0][idx];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length 0..=64 at every start offset 0..16: each tail
    /// length after zero to four whole blocks, at every misalignment.
    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_offset() {
        let buf: Vec<u8> = (0u32..80)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        #[cfg_attr(miri, ignore = "256 buffers of up to 4 KiB are too slow under miri")]
        fn crc32_matches_the_bytewise_loop_on_random_buffers(
            bytes in proptest::collection::vec(0u8..=255, 0..4097),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn writer_reader_roundtrip_is_lossless() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_f64(-0.1);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.finish().is_ok());
    }

    #[test]
    fn reads_past_the_end_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(
            r.u64(),
            Err(CheckpointError::Truncated {
                offset: 2,
                needed: 8
            })
        );
        // A failed read does not advance the cursor.
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(
            r.u8(),
            Err(CheckpointError::Truncated {
                offset: 3,
                needed: 1
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u16().unwrap(), 7);
        assert_eq!(r.finish(), Err(CheckpointError::TrailingBytes { extra: 2 }));
    }

    #[test]
    fn crc_trailer_verifies_and_any_flip_breaks_it() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        w.put_f64(1.5);
        let bytes = w.finish_with_crc();
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        assert_eq!(crc32(payload), stored);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let (p, t) = bad.split_at(bad.len() - 4);
            let s = u32::from_le_bytes([t[0], t[1], t[2], t[3]]);
            assert_ne!(crc32(p), s, "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn model_fingerprint_separates_models() {
        let paper = model_fingerprint(&PerfModel::paper_default());
        assert_eq!(paper, model_fingerprint(&PerfModel::paper_default()));
        assert_ne!(paper, model_fingerprint(&PerfModel::testbed_default()));
        let ideal = PerfModel::paper_default().with_overlap(OverlapMode::Ideal);
        assert_ne!(paper, model_fingerprint(&ideal));
    }

    /// Checkpoints written by earlier builds carry these fingerprints;
    /// if either literal changes, those checkpoints stop resuming.
    #[test]
    fn model_fingerprint_is_pinned_for_existing_checkpoints() {
        let paper = PerfModel::paper_default();
        assert_eq!(model_fingerprint(&paper), 0xbcf2_7f61_75d1_3bf1);
        assert_eq!(
            model_fingerprint(&paper.with_overlap(OverlapMode::Ideal)),
            0x2878_1503_e04e_eeff
        );
    }

    #[test]
    fn errors_display_their_payloads() {
        let cases: Vec<(CheckpointError, &str)> = vec![
            (
                CheckpointError::Truncated {
                    offset: 3,
                    needed: 8,
                },
                "offset 3",
            ),
            (CheckpointError::BadMagic { found: [0; 4] }, "bad magic"),
            (
                CheckpointError::UnsupportedVersion { found: 9 },
                "version 9",
            ),
            (
                CheckpointError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum mismatch",
            ),
            (
                CheckpointError::ModelMismatch {
                    stored: 1,
                    expected: 2,
                },
                "model",
            ),
            (CheckpointError::InvalidField { field: "jobs" }, "`jobs`"),
            (CheckpointError::TrailingBytes { extra: 5 }, "5 trailing"),
            (CheckpointError::NotAtChunkBoundary { jobs: 7 }, "7 job(s)"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} missing {needle:?}");
        }
    }
}
