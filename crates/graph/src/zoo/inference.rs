//! Inference-workload variants of the case-study models.
//!
//! The paper closes with "As future work, we seek to characterize
//! inference workloads in our cluster using a similar methodology"
//! (Sec. VIII). This module implements that methodology extension: an
//! inference step is the training graph minus its backward sweep and
//! calibration pads, with no weight/gradient synchronization at all —
//! serving replicas are read-only.

use pai_hw::Bytes;

use crate::graph::Graph;
use crate::zoo::ModelSpec;

/// An inference variant of a case-study model.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceSpec {
    name: &'static str,
    batch_size: usize,
    graph: Graph,
    resident_bytes: Bytes,
}

impl InferenceSpec {
    /// Model name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Serving batch size (same as training here; serving batches are
    /// typically smaller).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The forward-only graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Bytes a serving replica must keep resident: the trainable
    /// weights only (no optimizer state — Table IV's sizes include it,
    /// serving does not).
    pub fn resident_bytes(&self) -> Bytes {
        self.resident_bytes
    }
}

/// Derives the inference variant of a training model: drop gradient
/// ops and calibration pads, keep the forward structure and the input
/// pipeline.
///
/// # Examples
///
/// ```
/// use pai_graph::zoo::{self, inference};
///
/// let train = zoo::resnet50();
/// let serve = inference::inference_variant(&train);
/// // Forward-only: roughly a third of the training FLOPs.
/// let ratio = serve.graph().stats().flops.as_f64()
///     / train.graph().stats().flops.as_f64();
/// assert!(ratio < 0.45);
/// ```
pub fn inference_variant(model: &ModelSpec) -> InferenceSpec {
    let graph = model
        .graph()
        .retain(format!("{}/inference", model.graph().name()), |op| {
            !op.name().starts_with("grad/") && !op.name().starts_with("calibration/")
        });
    let resident: Bytes = model
        .params()
        .groups()
        .iter()
        .map(|g| g.trainable_bytes())
        .sum();
    InferenceSpec {
        name: model.name(),
        batch_size: model.batch_size(),
        graph,
        resident_bytes: resident,
    }
}

/// Inference variants of all six case-study models.
pub fn all_inference() -> Vec<InferenceSpec> {
    super::all().iter().map(inference_variant).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn inference_strips_backward_and_pads() {
        let serve = inference_variant(&zoo::bert());
        for (_, op) in serve.graph().nodes() {
            assert!(!op.name().starts_with("grad/"), "kept {}", op.name());
            assert!(!op.name().starts_with("calibration/"), "kept {}", op.name());
        }
        assert!(serve.graph().len() < zoo::bert().graph().len());
    }

    #[test]
    fn inference_flops_are_about_a_third_of_training() {
        for m in zoo::all() {
            let serve = inference_variant(&m);
            let ratio = serve.graph().stats().flops.as_f64() / m.graph().stats().flops.as_f64();
            assert!(
                (0.05..0.45).contains(&ratio),
                "{}: forward/training ratio {ratio}",
                m.name()
            );
        }
    }

    #[test]
    fn inference_keeps_the_input_pipeline() {
        let serve = inference_variant(&zoo::resnet50());
        let s = serve.graph().stats();
        assert!(s.input_bytes.as_mb() > 30.0);
        assert_eq!(s.io_ops, 1);
    }

    #[test]
    fn serving_residency_excludes_optimizer_state() {
        // ResNet50: 204 MB with momentum, 102 MB trainable.
        let serve = inference_variant(&zoo::resnet50());
        assert!((serve.resident_bytes().as_mb() - 102.0).abs() < 1.0);
    }

    #[test]
    fn inference_graph_is_still_a_dag() {
        for serve in all_inference() {
            assert_eq!(serve.graph().topo_order().len(), serve.graph().len());
        }
    }
}
