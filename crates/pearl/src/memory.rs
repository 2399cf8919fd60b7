//! Memory feasibility and architecture selection (Sec. VI-A1).
//!
//! "Our simple analytical model can predict the time breakdown of jobs
//! on different architectures, facilitating system architecture
//! selection." The selection rule the paper's Table IV embodies:
//!
//! 1. if the whole model fits in one GPU → replica-mode AllReduce
//!    (leverage NVLink);
//! 2. else if the dense part plus one embedding shard fits → PEARL;
//! 3. else → PS/Worker (host-memory variables).

use pai_hw::GpuSpec;
use serde::{Deserialize, Serialize};

use crate::strategy::{ModelComm, Strategy};

/// The recommendation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Recommendation {
    /// Everything replicates: AllReduce-Local.
    AllReduceLocal,
    /// Dense replicates, embeddings shard: PEARL.
    Pearl,
    /// Only host memory can hold the variables: PS/Worker.
    PsWorker,
}

/// Recommends an architecture for a model on `gpu` hardware with
/// `gpus` devices per server.
///
/// A fraction of device memory is reserved for activations and
/// workspace (`activation_reserve`, e.g. 0.5 = half the HBM).
///
/// # Panics
///
/// Panics if `gpus` is zero or `activation_reserve` is not in `[0, 1)`.
///
/// # Examples
///
/// ```
/// use pai_pearl::memory::{recommend, Recommendation};
/// use pai_pearl::ModelComm;
/// use pai_graph::zoo;
/// use pai_hw::GpuSpec;
///
/// let gcn = ModelComm::of(&zoo::gcn());
/// let rec = recommend(&gcn, &GpuSpec::tesla_v100(), 8, 0.3);
/// assert_eq!(rec, Recommendation::Pearl);
/// ```
pub fn recommend(
    model: &ModelComm,
    gpu: &GpuSpec,
    gpus: usize,
    activation_reserve: f64,
) -> Recommendation {
    assert!(gpus > 0, "need at least one GPU");
    assert!(
        (0.0..1.0).contains(&activation_reserve),
        "activation reserve must be in [0, 1), got {activation_reserve}"
    );
    let budget = gpu.memory_capacity().scale(1.0 - activation_reserve);
    let fits = |bytes: pai_hw::Bytes| bytes.as_f64() <= budget.as_f64();

    if fits(Strategy::AllReduceLocal { gpus }.resident_bytes_per_gpu(model)) {
        Recommendation::AllReduceLocal
    } else if fits(Strategy::Pearl { gpus }.resident_bytes_per_gpu(model)) {
        Recommendation::Pearl
    } else {
        Recommendation::PsWorker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_graph::zoo;

    fn v100() -> GpuSpec {
        GpuSpec::tesla_v100()
    }

    #[test]
    fn table_iv_architectures_are_recovered() {
        // The rule reproduces the paper's own Table IV choices.
        let cases: Vec<(ModelComm, Recommendation)> = vec![
            (
                ModelComm::of(&zoo::resnet50()),
                Recommendation::AllReduceLocal,
            ),
            (ModelComm::of(&zoo::nmt()), Recommendation::AllReduceLocal),
            (ModelComm::of(&zoo::bert()), Recommendation::AllReduceLocal),
            (
                ModelComm::of(&zoo::speech()),
                Recommendation::AllReduceLocal,
            ),
            (ModelComm::of(&zoo::gcn()), Recommendation::Pearl),
            (
                ModelComm::of(&zoo::multi_interests()),
                Recommendation::PsWorker,
            ),
        ];
        for (model, expected) in cases {
            assert_eq!(recommend(&model, &v100(), 8, 0.3), expected);
        }
    }

    #[test]
    fn shrinking_reserve_changes_nothing_for_giants() {
        let mi = ModelComm::of(&zoo::multi_interests());
        assert_eq!(recommend(&mi, &v100(), 8, 0.0), Recommendation::PsWorker);
    }

    #[test]
    fn more_gpus_make_pearl_feasible() {
        // GCN's 54 GB table needs >3 shards on a 16 GiB V100.
        let gcn = ModelComm::of(&zoo::gcn());
        assert_eq!(recommend(&gcn, &v100(), 2, 0.0), Recommendation::PsWorker);
        assert_eq!(recommend(&gcn, &v100(), 8, 0.0), Recommendation::Pearl);
    }

    #[test]
    #[should_panic(expected = "activation reserve")]
    fn rejects_full_reserve() {
        let m = ModelComm::of(&zoo::resnet50());
        let _ = recommend(&m, &v100(), 8, 1.0);
    }
}
