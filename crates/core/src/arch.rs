//! The five workload classes of Table II and their data-movement media.
//!
//! | class             | system arch   | placement | weight movement      |
//! |-------------------|---------------|-----------|----------------------|
//! | 1w1g              | —             | local     | —                    |
//! | 1wng              | centralized   | local     | PCIe                 |
//! | PS/Worker         | centralized   | cluster   | Ethernet & PCIe      |
//! | AllReduce-Local   | decentralized | local     | NVLink               |
//! | AllReduce-Cluster | decentralized | cluster   | Ethernet & NVLink    |

use std::fmt;

use pai_hw::LinkKind;
use serde::{Deserialize, Serialize};

/// The training architecture of a job (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Architecture {
    /// Single worker, single GPU — no weight movement.
    OneWorkerOneGpu,
    /// Centralized training within one server: parameters on CPU,
    /// replicas on the server's GPUs ("1wng").
    OneWorkerMultiGpu,
    /// Parameter-server training with workers and PSs on separate
    /// servers.
    PsWorker,
    /// Decentralized AllReduce within one NVLink server.
    AllReduceLocal,
    /// Decentralized AllReduce across servers.
    AllReduceCluster,
}

/// Whether parameters are aggregated centrally or exchanged peer-to-peer
/// (Sec. II-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemArchitecture {
    /// Parameter-server style aggregation.
    Centralized,
    /// AllReduce-style peer exchange.
    Decentralized,
}

/// Whether a job fits in one server or spans the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// All cNodes inside one physical server.
    Local,
    /// cNodes spread across servers.
    Cluster,
}

impl Architecture {
    /// All classes in Table II order.
    pub const ALL: [Architecture; 5] = [
        Architecture::OneWorkerOneGpu,
        Architecture::OneWorkerMultiGpu,
        Architecture::PsWorker,
        Architecture::AllReduceLocal,
        Architecture::AllReduceCluster,
    ];

    /// This class's position in [`Architecture::ALL`] (Table II
    /// order) — the index the columnar job store and every per-class
    /// counter array key on.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Architecture::OneWorkerOneGpu => 0,
            Architecture::OneWorkerMultiGpu => 1,
            Architecture::PsWorker => 2,
            Architecture::AllReduceLocal => 3,
            Architecture::AllReduceCluster => 4,
        }
    }

    /// The paper's shorthand label.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::OneWorkerOneGpu => "1w1g",
            Architecture::OneWorkerMultiGpu => "1wng",
            Architecture::PsWorker => "PS/Worker",
            Architecture::AllReduceLocal => "AllReduce-Local",
            Architecture::AllReduceCluster => "AllReduce-Cluster",
        }
    }

    /// Centralized vs decentralized parameter synchronization
    /// (`None` for 1w1g, which has no synchronization at all).
    pub fn system_architecture(self) -> Option<SystemArchitecture> {
        match self {
            Architecture::OneWorkerOneGpu => None,
            Architecture::OneWorkerMultiGpu | Architecture::PsWorker => {
                Some(SystemArchitecture::Centralized)
            }
            Architecture::AllReduceLocal | Architecture::AllReduceCluster => {
                Some(SystemArchitecture::Decentralized)
            }
        }
    }

    /// Single-server or cross-server placement.
    #[inline]
    pub fn placement(self) -> Placement {
        match self {
            Architecture::OneWorkerOneGpu
            | Architecture::OneWorkerMultiGpu
            | Architecture::AllReduceLocal => Placement::Local,
            Architecture::PsWorker | Architecture::AllReduceCluster => Placement::Cluster,
        }
    }

    /// The media weight/gradient traffic crosses (the "Weight Movement"
    /// column of Table II). Empty for 1w1g.
    #[inline]
    pub fn weight_media(self) -> &'static [LinkKind] {
        match self {
            Architecture::OneWorkerOneGpu => &[],
            Architecture::OneWorkerMultiGpu => &[LinkKind::Pcie],
            Architecture::PsWorker => &[LinkKind::Ethernet, LinkKind::Pcie],
            Architecture::AllReduceLocal => &[LinkKind::NvLink],
            Architecture::AllReduceCluster => &[LinkKind::Ethernet, LinkKind::NvLink],
        }
    }

    /// True when the job's replicas share one server's PCIe complex for
    /// input-data loading, so simultaneous feeding contends (Sec. III-C1:
    /// mapping to AllReduce-Local slows input I/O "due to the
    /// competition for PCIe bandwidth").
    #[inline]
    pub fn input_pcie_contended(self) -> bool {
        matches!(
            self,
            Architecture::OneWorkerMultiGpu
                | Architecture::AllReduceLocal
                | Architecture::AllReduceCluster
        )
    }

    /// Whether this class performs weight/gradient communication at all.
    pub fn communicates(self) -> bool {
        self != Architecture::OneWorkerOneGpu
    }

    /// The number of replicas sharing one server's PCIe for input I/O,
    /// given the job's total cNode count and a server size.
    ///
    /// For local classes every replica is in the same server; for
    /// AllReduce-Cluster replicas are packed `gpus_per_server` to a
    /// server; non-contended classes always report 1.
    #[inline]
    pub fn input_contention_factor(self, cnodes: usize, gpus_per_server: usize) -> usize {
        if !self.input_pcie_contended() {
            return 1;
        }
        match self.placement() {
            Placement::Local => cnodes.max(1),
            Placement::Cluster => cnodes.clamp(1, gpus_per_server.max(1)),
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_weight_media() {
        assert!(Architecture::OneWorkerOneGpu.weight_media().is_empty());
        assert_eq!(
            Architecture::OneWorkerMultiGpu.weight_media(),
            &[LinkKind::Pcie]
        );
        assert_eq!(
            Architecture::PsWorker.weight_media(),
            &[LinkKind::Ethernet, LinkKind::Pcie]
        );
        assert_eq!(
            Architecture::AllReduceLocal.weight_media(),
            &[LinkKind::NvLink]
        );
        assert_eq!(
            Architecture::AllReduceCluster.weight_media(),
            &[LinkKind::Ethernet, LinkKind::NvLink]
        );
    }

    #[test]
    fn table_ii_system_architecture() {
        use SystemArchitecture::*;
        assert_eq!(Architecture::OneWorkerOneGpu.system_architecture(), None);
        assert_eq!(
            Architecture::OneWorkerMultiGpu.system_architecture(),
            Some(Centralized)
        );
        assert_eq!(
            Architecture::PsWorker.system_architecture(),
            Some(Centralized)
        );
        assert_eq!(
            Architecture::AllReduceLocal.system_architecture(),
            Some(Decentralized)
        );
        assert_eq!(
            Architecture::AllReduceCluster.system_architecture(),
            Some(Decentralized)
        );
    }

    #[test]
    fn table_ii_placement() {
        use Placement::*;
        assert_eq!(Architecture::OneWorkerOneGpu.placement(), Local);
        assert_eq!(Architecture::OneWorkerMultiGpu.placement(), Local);
        assert_eq!(Architecture::PsWorker.placement(), Cluster);
        assert_eq!(Architecture::AllReduceLocal.placement(), Local);
        assert_eq!(Architecture::AllReduceCluster.placement(), Cluster);
    }

    #[test]
    fn contention_factors() {
        // PS workers each own a server: no contention.
        assert_eq!(Architecture::PsWorker.input_contention_factor(64, 8), 1);
        // 1w1g trivially 1.
        assert_eq!(
            Architecture::OneWorkerOneGpu.input_contention_factor(1, 8),
            1
        );
        // Local classes contend across all replicas.
        assert_eq!(
            Architecture::AllReduceLocal.input_contention_factor(8, 8),
            8
        );
        assert_eq!(
            Architecture::OneWorkerMultiGpu.input_contention_factor(4, 8),
            4
        );
        // Cluster AllReduce contends within each 8-GPU server.
        assert_eq!(
            Architecture::AllReduceCluster.input_contention_factor(64, 8),
            8
        );
        assert_eq!(
            Architecture::AllReduceCluster.input_contention_factor(4, 8),
            4
        );
    }

    #[test]
    fn only_1w1g_is_silent() {
        for arch in Architecture::ALL {
            assert_eq!(arch.communicates(), arch != Architecture::OneWorkerOneGpu);
            assert_eq!(arch.communicates(), !arch.weight_media().is_empty());
        }
    }

    #[test]
    fn index_matches_all_order() {
        for (i, arch) in Architecture::ALL.iter().enumerate() {
            assert_eq!(arch.index(), i);
            assert_eq!(Architecture::ALL[arch.index()], *arch);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Architecture::OneWorkerOneGpu.to_string(), "1w1g");
        assert_eq!(Architecture::AllReduceLocal.to_string(), "AllReduce-Local");
    }
}
