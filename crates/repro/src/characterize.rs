//! The `characterize` tool: one-job characterization from a JSON spec.
//!
//! Takes a user-friendly job description (sizes in MB/GB, FLOPs in
//! TFLOP), runs the full Sec. II/III methodology on it — breakdown,
//! throughput, AllReduce projections, hardware sensitivities — and
//! renders a report. The logic lives here so it is testable; the
//! `characterize` binary is a thin wrapper.

use pai_core::project::{project, ProjectionTarget};
use pai_core::sweep::relevant_axes;
use pai_core::{Architecture, FeatureViolation, PerfModel, RawFeatures, WorkloadFeatures};
use serde::{Deserialize, Serialize};

use crate::render::{pct, table};

/// The user-facing job description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// One of "1w1g", "1wng", "ps_worker", "allreduce_local",
    /// "allreduce_cluster" (case-insensitive; `/`/`-` tolerated).
    pub architecture: String,
    /// Replica count (default 1).
    #[serde(default = "one")]
    pub cnodes: usize,
    /// Per-replica batch size (default 1).
    #[serde(default = "one")]
    pub batch_size: usize,
    /// Input bytes per step, MB.
    #[serde(default)]
    pub input_mb: f64,
    /// Weight/gradient payload per step, GB.
    #[serde(default)]
    pub weight_gb: f64,
    /// Compute-bound FLOPs per step, TFLOP.
    #[serde(default)]
    pub tflops: f64,
    /// Memory-bound traffic per step, GB.
    #[serde(default)]
    pub mem_access_gb: f64,
}

fn one() -> usize {
    1
}

/// Why a spec cannot be characterized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The architecture string is not recognized.
    UnknownArchitecture(String),
    /// The spec breaks a feature invariant (a non-finite or negative
    /// size, a zero count, a cNode count the class cannot have).
    Invalid(FeatureViolation),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownArchitecture(s) => write!(
                f,
                "unknown architecture '{s}' (expected 1w1g, 1wng, ps_worker, \
                 allreduce_local or allreduce_cluster)"
            ),
            SpecError::Invalid(violation) => write!(f, "invalid job: {violation}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses the architecture string.
pub fn parse_architecture(s: &str) -> Result<Architecture, SpecError> {
    let norm: String = s
        .to_ascii_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    match norm.as_str() {
        "1w1g" => Ok(Architecture::OneWorkerOneGpu),
        "1wng" => Ok(Architecture::OneWorkerMultiGpu),
        "psworker" | "ps" => Ok(Architecture::PsWorker),
        "allreducelocal" => Ok(Architecture::AllReduceLocal),
        "allreducecluster" => Ok(Architecture::AllReduceCluster),
        _ => Err(SpecError::UnknownArchitecture(s.to_string())),
    }
}

impl JobSpec {
    /// Converts to the internal feature record: the spec's units become
    /// a [`RawFeatures`] in bytes and FLOPs, which
    /// [`RawFeatures::validate`] checks like any untrusted record.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for an unknown architecture or a spec that
    /// breaks a feature invariant.
    pub fn to_features(&self) -> Result<WorkloadFeatures, SpecError> {
        // A count past `i64::MAX` saturates: absurd either way.
        let count = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        RawFeatures {
            arch: parse_architecture(&self.architecture)?,
            cnodes: count(self.cnodes),
            batch_size: count(self.batch_size),
            input_bytes: self.input_mb * 1e6,
            weight_bytes: self.weight_gb * 1e9,
            flops: self.tflops * 1e12,
            mem_access_bytes: self.mem_access_gb * 1e9,
        }
        .validate()
        .map_err(SpecError::Invalid)
    }
}

/// Produces the full characterization report for a spec.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec is invalid.
pub fn characterize(spec: &JobSpec, model: &PerfModel) -> Result<String, SpecError> {
    let job = spec.to_features()?;
    let ct = model.component_times(&job);
    let [data, weights, compute, memory] = ct.fractions();
    let mut out = String::new();
    out.push_str(&format!("job: {job}\n\n"));

    out.push_str(&table(&[
        vec![
            "component".to_string(),
            "time".to_string(),
            "share".to_string(),
        ],
        vec![
            "input data I/O".into(),
            format!("{}", ct.data_io),
            pct(data),
        ],
        vec![
            "weight traffic".into(),
            format!("{}", ct.weight_traffic),
            pct(weights),
        ],
        vec![
            "compute-bound".into(),
            format!("{}", ct.compute_bound),
            pct(compute),
        ],
        vec![
            "memory-bound".into(),
            format!("{}", ct.memory_bound),
            pct(memory),
        ],
        vec!["total".into(), format!("{}", ct.total), "100.0%".into()],
    ]));
    out.push_str(&format!(
        "\nthroughput (Eq. 2): {:.0} samples/s\n",
        model.throughput(&job)
    ));

    if job.arch() == Architecture::PsWorker {
        out.push_str("\narchitecture what-if:\n");
        for target in [
            ProjectionTarget::AllReduceLocal,
            ProjectionTarget::AllReduceCluster,
        ] {
            match project(model, &job, target) {
                Some(p) => out.push_str(&format!(
                    "  {:?}: step {:.2}x, throughput {:.2}x ({})\n",
                    target,
                    p.single_cnode_speedup,
                    p.throughput_speedup,
                    if p.improves_throughput() {
                        "port it"
                    } else {
                        "keep PS"
                    }
                )),
                None => out.push_str(&format!(
                    "  {target:?}: ineligible (weights exceed GPU memory)\n"
                )),
            }
        }
    }

    out.push_str("\nhardware sensitivity (speedup at the top Table III candidate):\n");
    let curves = pai_core::class_sweep(
        model,
        job.arch(),
        &[job][..],
        &[1.0],
        pai_par::Threads::SERIAL,
    );
    for axis in relevant_axes(job.arch()) {
        if let Some(sample) = curves.curve(axis).last() {
            out.push_str(&format!(
                "  {:<10} {:.2}x at {:.1}x the baseline\n",
                axis.label(),
                sample.mean_speedup,
                sample.normalized
            ));
        }
    }
    if let Some(axis) = curves.most_sensitive_axis() {
        out.push_str(&format!("  most sensitive resource: {}\n", axis.label()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            architecture: "PS/Worker".into(),
            cnodes: 32,
            batch_size: 512,
            input_mb: 20.0,
            weight_gb: 2.0,
            tflops: 0.6,
            mem_access_gb: 40.0,
        }
    }

    #[test]
    fn parses_architecture_variants() {
        assert_eq!(
            parse_architecture("PS/Worker").expect("ok"),
            Architecture::PsWorker
        );
        assert_eq!(
            parse_architecture("allreduce-local").expect("ok"),
            Architecture::AllReduceLocal
        );
        assert_eq!(
            parse_architecture("1w1g").expect("ok"),
            Architecture::OneWorkerOneGpu
        );
        assert!(parse_architecture("banana").is_err());
    }

    #[test]
    fn report_contains_the_key_sections() {
        let report = characterize(&spec(), &PerfModel::paper_default()).expect("valid");
        assert!(report.contains("weight traffic"));
        assert!(report.contains("throughput (Eq. 2)"));
        assert!(report.contains("AllReduceLocal"));
        assert!(report.contains("most sensitive resource: Ethernet"));
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec();
        let body = serde_json::to_string(&s).expect("serialize");
        let back: JobSpec = serde_json::from_str(&body).expect("deserialize");
        assert_eq!(back, s);
        // Defaults kick in for omitted fields.
        let minimal: JobSpec =
            serde_json::from_str(r#"{"architecture": "1w1g", "tflops": 1.0}"#).expect("ok");
        assert_eq!(minimal.cnodes, 1);
        assert_eq!(minimal.batch_size, 1);
    }

    #[test]
    fn rejects_inconsistent_cnodes() {
        let mut s = spec();
        s.cnodes = 1;
        let err = s.to_features().expect_err("1 cNode is not a PS job");
        assert!(matches!(
            err,
            SpecError::Invalid(FeatureViolation::ClassMismatch { .. })
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn hostile_specs_are_typed_errors() {
        let model = PerfModel::paper_default();
        for (body, violation) in [
            (
                r#"{"architecture":"ps_worker","cnodes":2,"weight_gb":1e300}"#,
                FeatureViolation::NonFinite {
                    field: "weight_bytes",
                },
            ),
            (
                r#"{"architecture":"ps_worker","cnodes":2,"tflops":1e300}"#,
                FeatureViolation::NonFinite { field: "flops" },
            ),
            (
                r#"{"architecture":"ps_worker","cnodes":2,"input_mb":-1}"#,
                FeatureViolation::Negative {
                    field: "input_bytes",
                },
            ),
            (
                r#"{"architecture":"ps_worker","cnodes":2,"batch_size":0}"#,
                FeatureViolation::ZeroBatch,
            ),
        ] {
            let spec: JobSpec = serde_json::from_str(body).expect("parses");
            assert_eq!(
                characterize(&spec, &model),
                Err(SpecError::Invalid(violation)),
                "{body}"
            );
        }
    }

    #[test]
    fn oversized_weights_are_reported_ineligible() {
        let mut s = spec();
        s.weight_gb = 300.0;
        let report = characterize(&s, &PerfModel::paper_default()).expect("valid");
        assert!(report.contains("ineligible"));
    }
}
