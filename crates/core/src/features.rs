//! The workload feature schema (Fig. 4).
//!
//! A [`WorkloadFeatures`] record is the fixed point the whole framework
//! revolves around: the profiler extracts one from run metadata, the
//! trace generator samples populations of them, and the performance
//! model turns one plus a hardware configuration into a time breakdown.
//!
//! All byte/FLOP quantities are *per training step, per cNode* —
//! matching the paper's convention that run metadata describes "behavior
//! of a single computation node (using one GPU device)" while job meta
//! information supplies the replica count.

use std::error::Error;
use std::fmt;

use pai_hw::{Bytes, Flops};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::arch::Architecture;

/// Per-step, per-cNode resource requirements of a training job.
///
/// Every reachable value is valid by construction: the builder and the
/// deserializer both enforce the [`FeatureViolation`] rules, so
/// analyses never see a NaN byte volume or a zero-replica job.
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, WorkloadFeatures};
/// use pai_hw::{Bytes, Flops};
///
/// let job = WorkloadFeatures::builder(Architecture::AllReduceLocal)
///     .cnodes(8)
///     .batch_size(64)
///     .input_bytes(Bytes::from_mb(38.0))
///     .weight_bytes(Bytes::from_mb(204.0))
///     .flops(Flops::from_tera(1.56))
///     .mem_access_bytes(Bytes::from_gb(31.9))
///     .build();
/// assert_eq!(job.cnodes(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkloadFeatures {
    arch: Architecture,
    cnodes: usize,
    batch_size: usize,
    input_bytes: Bytes,
    weight_bytes: Bytes,
    flops: Flops,
    mem_access_bytes: Bytes,
}

impl WorkloadFeatures {
    /// Starts building a record for the given architecture.
    #[inline]
    pub fn builder(arch: Architecture) -> WorkloadFeaturesBuilder {
        WorkloadFeaturesBuilder {
            arch,
            cnodes: 1,
            batch_size: 1,
            input_bytes: Bytes::ZERO,
            weight_bytes: Bytes::ZERO,
            flops: Flops::ZERO,
            mem_access_bytes: Bytes::ZERO,
        }
    }

    /// The training architecture (Table II class).
    #[inline]
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// Number of computation nodes — GPU devices each holding one model
    /// replica (Sec. III-A).
    #[inline]
    pub fn cnodes(&self) -> usize {
        self.cnodes
    }

    /// Per-replica mini-batch size.
    #[inline]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// `S_d`: input-sample bytes loaded per step per replica.
    #[inline]
    pub fn input_bytes(&self) -> Bytes {
        self.input_bytes
    }

    /// `S_w`: weight/gradient bytes exchanged per step per replica
    /// (zero communication happens for 1w1g regardless of this value).
    #[inline]
    pub fn weight_bytes(&self) -> Bytes {
        self.weight_bytes
    }

    /// `#FLOPs`: compute-bound operation cost per step per replica.
    #[inline]
    pub fn flops(&self) -> Flops {
        self.flops
    }

    /// `S_mem_access`: memory traffic of memory-bound (element-wise)
    /// operations per step per replica.
    #[inline]
    pub fn mem_access_bytes(&self) -> Bytes {
        self.mem_access_bytes
    }

    /// A copy re-homed on a different architecture with a different
    /// replica count — the primitive behind the Sec. III-C projections.
    /// All per-replica features are preserved (weight-replica mode).
    pub fn remapped(&self, arch: Architecture, cnodes: usize) -> WorkloadFeatures {
        assert!(cnodes > 0, "a job needs at least one cNode");
        WorkloadFeatures {
            arch,
            cnodes,
            ..*self
        }
    }
}

impl fmt::Display for WorkloadFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} (batch {}, Sd {}, Sw {}, {}, mem {})",
            self.arch,
            self.cnodes,
            self.batch_size,
            self.input_bytes,
            self.weight_bytes,
            self.flops,
            self.mem_access_bytes
        )
    }
}

/// Builder for [`WorkloadFeatures`].
#[derive(Debug, Clone)]
pub struct WorkloadFeaturesBuilder {
    arch: Architecture,
    cnodes: usize,
    batch_size: usize,
    input_bytes: Bytes,
    weight_bytes: Bytes,
    flops: Flops,
    mem_access_bytes: Bytes,
}

impl WorkloadFeaturesBuilder {
    /// Sets the cNode count.
    ///
    /// # Panics
    ///
    /// Panics if `cnodes` is zero.
    #[inline]
    pub fn cnodes(mut self, cnodes: usize) -> Self {
        assert!(cnodes > 0, "a job needs at least one cNode");
        self.cnodes = cnodes;
        self
    }

    /// Sets the per-replica batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[inline]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets `S_d`, the per-step input volume.
    #[inline]
    pub fn input_bytes(mut self, bytes: Bytes) -> Self {
        self.input_bytes = bytes;
        self
    }

    /// Sets `S_w`, the per-step weight/gradient volume.
    #[inline]
    pub fn weight_bytes(mut self, bytes: Bytes) -> Self {
        self.weight_bytes = bytes;
        self
    }

    /// Sets `#FLOPs`, the per-step compute-bound cost.
    #[inline]
    pub fn flops(mut self, flops: Flops) -> Self {
        self.flops = flops;
        self
    }

    /// Sets `S_mem_access`, the per-step memory-bound traffic.
    #[inline]
    pub fn mem_access_bytes(mut self, bytes: Bytes) -> Self {
        self.mem_access_bytes = bytes;
        self
    }

    /// Finalizes the record.
    ///
    /// # Panics
    ///
    /// Panics if the architecture/cNode combination is inconsistent:
    /// 1w1g requires exactly one cNode; every distributed class requires
    /// more than one.
    #[inline]
    pub fn build(self) -> WorkloadFeatures {
        match self.arch {
            Architecture::OneWorkerOneGpu => assert_eq!(
                self.cnodes, 1,
                "1w1g means exactly one cNode, got {}",
                self.cnodes
            ),
            Architecture::OneWorkerMultiGpu | Architecture::AllReduceLocal => assert!(
                self.cnodes >= 2,
                "{} is a multi-GPU class, got {} cNode(s)",
                self.arch,
                self.cnodes
            ),
            Architecture::PsWorker | Architecture::AllReduceCluster => assert!(
                self.cnodes >= 2,
                "{} is a distributed class, got {} cNode(s)",
                self.arch,
                self.cnodes
            ),
        }
        WorkloadFeatures {
            arch: self.arch,
            cnodes: self.cnodes,
            batch_size: self.batch_size,
            input_bytes: self.input_bytes,
            weight_bytes: self.weight_bytes,
            flops: self.flops,
            mem_access_bytes: self.mem_access_bytes,
        }
    }
}

/// Why an externally supplied feature record was rejected at the
/// ingest boundary.
///
/// The variants form a small fixed taxonomy so quarantine counters can
/// be kept per reason (see `HeadlineStats::quarantined`); the counter
/// slot for a violation is [`FeatureViolation::index`], labelled by
/// [`FeatureViolation::REASON_LABELS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureViolation {
    /// A float field was NaN or infinite.
    NonFinite {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A size or count field was negative.
    Negative {
        /// Name of the offending field.
        field: &'static str,
    },
    /// The record claimed zero computation nodes.
    ZeroCnodes,
    /// The record claimed a zero mini-batch size.
    ZeroBatch,
    /// The architecture class and the cNode count contradict each other
    /// (e.g. a distributed class with one replica).
    ClassMismatch {
        /// The claimed architecture.
        arch: Architecture,
        /// The claimed cNode count.
        cnodes: usize,
    },
}

impl FeatureViolation {
    /// Number of distinct rejection reasons (quarantine counter slots).
    pub const REASONS: usize = 5;

    /// Stable labels for the quarantine counter slots, in
    /// [`FeatureViolation::index`] order.
    pub const REASON_LABELS: [&'static str; Self::REASONS] = [
        "non_finite",
        "negative",
        "zero_cnodes",
        "zero_batch",
        "class_mismatch",
    ];

    /// The quarantine counter slot for this violation.
    pub fn index(&self) -> usize {
        match self {
            FeatureViolation::NonFinite { .. } => 0,
            FeatureViolation::Negative { .. } => 1,
            FeatureViolation::ZeroCnodes => 2,
            FeatureViolation::ZeroBatch => 3,
            FeatureViolation::ClassMismatch { .. } => 4,
        }
    }

    /// The stable label for this violation's counter slot.
    pub fn label(&self) -> &'static str {
        Self::REASON_LABELS[self.index()]
    }
}

impl fmt::Display for FeatureViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureViolation::NonFinite { field } => {
                write!(f, "field `{field}` is NaN or infinite")
            }
            FeatureViolation::Negative { field } => {
                write!(f, "field `{field}` is negative")
            }
            FeatureViolation::ZeroCnodes => write!(f, "a job needs at least one cNode"),
            FeatureViolation::ZeroBatch => write!(f, "batch size must be positive"),
            FeatureViolation::ClassMismatch { arch, cnodes } => {
                write!(f, "{arch} is inconsistent with {cnodes} cNode(s)")
            }
        }
    }
}

impl Error for FeatureViolation {}

/// An *unvalidated* feature record as it arrives from an external
/// source.
///
/// Unlike [`WorkloadFeatures`] every field is public and permissive
/// (signed counts, raw floats) so any wire payload can be represented;
/// [`RawFeatures::validate`] is the only path from here to the trusted
/// type. The serialized form is field-for-field compatible with
/// [`WorkloadFeatures`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RawFeatures {
    /// Claimed training architecture.
    pub arch: Architecture,
    /// Claimed cNode count (may be non-positive in hostile input).
    pub cnodes: i64,
    /// Claimed per-replica batch size (may be non-positive).
    pub batch_size: i64,
    /// Claimed `S_d` in bytes (may be NaN/∞/negative).
    pub input_bytes: f64,
    /// Claimed `S_w` in bytes (may be NaN/∞/negative).
    pub weight_bytes: f64,
    /// Claimed `#FLOPs` (may be NaN/∞/negative).
    pub flops: f64,
    /// Claimed `S_mem_access` in bytes (may be NaN/∞/negative).
    pub mem_access_bytes: f64,
}

impl RawFeatures {
    /// Checks every ingest invariant and, on success, promotes the
    /// record to the trusted [`WorkloadFeatures`] type.
    ///
    /// The checks mirror the builder's assertions plus the numeric
    /// hazards a builder-constructed value can never exhibit: NaN/∞
    /// floats, negative sizes, non-positive counts, and class/field
    /// inconsistency. Violations are reported in a fixed field order so
    /// a record with several problems is always quarantined under the
    /// same reason.
    pub fn validate(&self) -> Result<WorkloadFeatures, FeatureViolation> {
        const FLOAT_FIELDS: usize = 4;
        let floats: [(&'static str, f64); FLOAT_FIELDS] = [
            ("input_bytes", self.input_bytes),
            ("weight_bytes", self.weight_bytes),
            ("flops", self.flops),
            ("mem_access_bytes", self.mem_access_bytes),
        ];
        for (field, value) in floats {
            if !value.is_finite() {
                return Err(FeatureViolation::NonFinite { field });
            }
            if value < 0.0 {
                return Err(FeatureViolation::Negative { field });
            }
        }
        if self.cnodes < 0 {
            return Err(FeatureViolation::Negative { field: "cnodes" });
        }
        if self.batch_size < 0 {
            return Err(FeatureViolation::Negative {
                field: "batch_size",
            });
        }
        if self.cnodes == 0 {
            return Err(FeatureViolation::ZeroCnodes);
        }
        if self.batch_size == 0 {
            return Err(FeatureViolation::ZeroBatch);
        }
        let cnodes = usize::try_from(self.cnodes)
            .map_err(|_| FeatureViolation::Negative { field: "cnodes" })?;
        let batch_size =
            usize::try_from(self.batch_size).map_err(|_| FeatureViolation::Negative {
                field: "batch_size",
            })?;
        let class_ok = match self.arch {
            Architecture::OneWorkerOneGpu => cnodes == 1,
            Architecture::OneWorkerMultiGpu
            | Architecture::AllReduceLocal
            | Architecture::PsWorker
            | Architecture::AllReduceCluster => cnodes >= 2,
        };
        if !class_ok {
            return Err(FeatureViolation::ClassMismatch {
                arch: self.arch,
                cnodes,
            });
        }
        Ok(WorkloadFeatures {
            arch: self.arch,
            cnodes,
            batch_size,
            input_bytes: Bytes::from_f64(self.input_bytes),
            weight_bytes: Bytes::from_f64(self.weight_bytes),
            flops: Flops::from_f64(self.flops),
            mem_access_bytes: Bytes::from_f64(self.mem_access_bytes),
        })
    }
}

impl From<&WorkloadFeatures> for RawFeatures {
    fn from(f: &WorkloadFeatures) -> RawFeatures {
        RawFeatures {
            arch: f.arch,
            cnodes: f.cnodes as i64,
            batch_size: f.batch_size as i64,
            input_bytes: f.input_bytes.as_f64(),
            weight_bytes: f.weight_bytes.as_f64(),
            flops: f.flops.as_f64(),
            mem_access_bytes: f.mem_access_bytes.as_f64(),
        }
    }
}

impl WorkloadFeatures {
    /// Re-checks the ingest invariants on an already-typed record.
    ///
    /// Builder-constructed values always pass; this exists for records
    /// that crossed a trust boundary as a typed value (e.g. handed over
    /// by FFI or produced before the invariants were tightened).
    pub fn validate(&self) -> Result<(), FeatureViolation> {
        RawFeatures::from(self).validate().map(|_| ())
    }
}

// `WorkloadFeatures` deserializes through the untrusted wire type, so
// *every* serde entry point enforces the ingest invariants: a payload
// that decodes is a payload that validates.
impl Deserialize for WorkloadFeatures {
    fn from_value(v: &Value) -> Result<WorkloadFeatures, DeError> {
        let raw = RawFeatures::from_value(v)?;
        raw.validate().map_err(|e| DeError::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadFeatures {
        WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(32)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(10.0))
            .weight_bytes(Bytes::from_gb(2.0))
            .flops(Flops::from_tera(0.3))
            .mem_access_bytes(Bytes::from_gb(12.0))
            .build()
    }

    #[test]
    fn builder_roundtrip() {
        let j = sample();
        assert_eq!(j.arch(), Architecture::PsWorker);
        assert_eq!(j.cnodes(), 32);
        assert_eq!(j.batch_size(), 256);
        assert!((j.weight_bytes().as_gb() - 2.0).abs() < 1e-12);
        assert!((j.flops().as_tera() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn remapped_preserves_per_replica_features() {
        let j = sample();
        let m = j.remapped(Architecture::AllReduceLocal, 8);
        assert_eq!(m.arch(), Architecture::AllReduceLocal);
        assert_eq!(m.cnodes(), 8);
        assert_eq!(m.weight_bytes(), j.weight_bytes());
        assert_eq!(m.input_bytes(), j.input_bytes());
        assert_eq!(m.flops(), j.flops());
        assert_eq!(m.batch_size(), j.batch_size());
    }

    #[test]
    #[should_panic(expected = "exactly one cNode")]
    fn rejects_multi_node_1w1g() {
        let _ = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .cnodes(2)
            .build();
    }

    #[test]
    #[should_panic(expected = "multi-GPU class")]
    fn rejects_single_node_1wng() {
        let _ = WorkloadFeatures::builder(Architecture::OneWorkerMultiGpu).build();
    }

    #[test]
    #[should_panic(expected = "distributed class")]
    fn rejects_single_node_ps() {
        let _ = WorkloadFeatures::builder(Architecture::PsWorker).build();
    }

    #[test]
    fn one_w_one_g_defaults_are_valid() {
        let j = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu).build();
        assert_eq!(j.cnodes(), 1);
        assert!(j.weight_bytes().is_zero());
    }

    #[test]
    fn serde_roundtrip() {
        let j = sample();
        let json = serde_json::to_string(&j).expect("serialize");
        let back: WorkloadFeatures = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, j);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
    }

    fn raw_sample() -> RawFeatures {
        RawFeatures::from(&sample())
    }

    #[test]
    fn raw_roundtrip_promotes_to_identical_record() {
        let raw = raw_sample();
        let validated = raw.validate().expect("builder output must validate");
        assert_eq!(validated, sample());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn raw_validate_rejects_each_hazard_with_the_right_reason() {
        let base = raw_sample();

        let mut r = base;
        r.weight_bytes = f64::NAN;
        assert_eq!(
            r.validate(),
            Err(FeatureViolation::NonFinite {
                field: "weight_bytes"
            })
        );

        let mut r = base;
        r.flops = f64::INFINITY;
        assert_eq!(
            r.validate(),
            Err(FeatureViolation::NonFinite { field: "flops" })
        );

        let mut r = base;
        r.input_bytes = -1.0;
        assert_eq!(
            r.validate(),
            Err(FeatureViolation::Negative {
                field: "input_bytes"
            })
        );

        let mut r = base;
        r.cnodes = -3;
        assert_eq!(
            r.validate(),
            Err(FeatureViolation::Negative { field: "cnodes" })
        );

        let mut r = base;
        r.cnodes = 0;
        assert_eq!(r.validate(), Err(FeatureViolation::ZeroCnodes));

        let mut r = base;
        r.batch_size = 0;
        assert_eq!(r.validate(), Err(FeatureViolation::ZeroBatch));

        let mut r = base;
        r.cnodes = 1; // PsWorker with one replica
        assert_eq!(
            r.validate(),
            Err(FeatureViolation::ClassMismatch {
                arch: Architecture::PsWorker,
                cnodes: 1,
            })
        );
    }

    #[test]
    fn violation_indices_are_distinct_and_labelled() {
        let violations = [
            FeatureViolation::NonFinite { field: "flops" },
            FeatureViolation::Negative { field: "cnodes" },
            FeatureViolation::ZeroCnodes,
            FeatureViolation::ZeroBatch,
            FeatureViolation::ClassMismatch {
                arch: Architecture::PsWorker,
                cnodes: 1,
            },
        ];
        let mut seen = [false; FeatureViolation::REASONS];
        for v in violations {
            assert!(!seen[v.index()], "duplicate index for {v:?}");
            seen[v.index()] = true;
            assert_eq!(v.label(), FeatureViolation::REASON_LABELS[v.index()]);
            assert!(!v.to_string().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deserialize_enforces_validation() {
        // A hostile payload that is structurally valid JSON for the
        // WorkloadFeatures wire format but semantically poisoned.
        let json = r#"{
            "arch": "PsWorker",
            "cnodes": 32,
            "batch_size": 256,
            "input_bytes": 1e7,
            "weight_bytes": -5.0,
            "flops": 3e11,
            "mem_access_bytes": 1.2e10
        }"#;
        let err = serde_json::from_str::<WorkloadFeatures>(json)
            .expect_err("negative weight bytes must not decode");
        assert!(err.to_string().contains("weight_bytes"));

        // The same shape with clean values decodes to the builder value.
        let clean = serde_json::to_string(&sample()).expect("serialize");
        let back: WorkloadFeatures = serde_json::from_str(&clean).expect("deserialize");
        assert_eq!(back, sample());
    }
}
