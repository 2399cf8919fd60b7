//! Communication plans: the interface between strategies and the
//! simulator.
//!
//! A [`CommPlan`] is the ordered list of per-replica link transfers one
//! training step performs for weight/gradient synchronization.
//! `pai-pearl` computes a plan from a model's parameter inventory and a
//! distribution strategy; `pai-sim` executes the transfers on its link
//! resources; `pai-core`-style closed-form analysis just sums the
//! transfer times.

use std::fmt;

use pai_hw::{Bytes, HardwareConfig, LinkKind, Seconds};
use serde::{Deserialize, Serialize};

/// One per-replica transfer on one medium.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// What the transfer carries ("dense allreduce", "embedding
    /// allgatherv", "pull variables"…).
    pub label: String,
    /// The medium crossed.
    pub link: LinkKind,
    /// Per-replica volume.
    pub bytes: Bytes,
}

impl Transfer {
    /// Creates a transfer.
    ///
    /// # Panics
    ///
    /// Panics if `label` is empty.
    pub fn new(label: impl Into<String>, link: LinkKind, bytes: Bytes) -> Self {
        let label = label.into();
        assert!(!label.is_empty(), "transfers need a label");
        Transfer { label, link, bytes }
    }
}

impl fmt::Display for Transfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over {}: {}", self.label, self.link, self.bytes)
    }
}

/// An ordered list of transfers making up one step's synchronization.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CommPlan {
    transfers: Vec<Transfer>,
}

impl CommPlan {
    /// An empty plan (1w1g's).
    pub fn new() -> Self {
        CommPlan::default()
    }

    /// Appends a transfer; zero-byte transfers are dropped.
    pub fn push(&mut self, transfer: Transfer) {
        if !transfer.bytes.is_zero() {
            self.transfers.push(transfer);
        }
    }

    /// The transfers in execution order.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// True when the plan moves nothing.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Total per-replica volume across all media.
    pub fn total_bytes(&self) -> Bytes {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Per-replica volume crossing one medium.
    pub fn bytes_on(&self, link: LinkKind) -> Bytes {
        self.transfers
            .iter()
            .filter(|t| t.link == link)
            .map(|t| t.bytes)
            .sum()
    }

    /// Serialized transfer time under a hardware configuration: the sum
    /// of `S / (B × eff)` over transfers (the paper's non-overlap
    /// convention).
    pub fn serialized_time(&self, config: &HardwareConfig) -> Seconds {
        self.transfers
            .iter()
            .map(|t| config.link(t.link).transfer_time(t.bytes))
            .sum()
    }
}

impl FromIterator<Transfer> for CommPlan {
    fn from_iter<I: IntoIterator<Item = Transfer>>(iter: I) -> Self {
        let mut plan = CommPlan::new();
        for t in iter {
            plan.push(t);
        }
        plan
    }
}

impl Extend<Transfer> for CommPlan {
    fn extend<I: IntoIterator<Item = Transfer>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

impl fmt::Display for CommPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.transfers.is_empty() {
            return write!(f, "(no communication)");
        }
        for (i, t) in self.transfers.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> CommPlan {
        [
            Transfer::new("dense allreduce", LinkKind::NvLink, Bytes::from_mb(357.0)),
            Transfer::new(
                "cross-server ring",
                LinkKind::Ethernet,
                Bytes::from_mb(100.0),
            ),
            Transfer::new("extra nvlink", LinkKind::NvLink, Bytes::from_mb(43.0)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn totals_and_per_link() {
        let p = plan();
        assert!((p.total_bytes().as_mb() - 500.0).abs() < 1e-9);
        assert!((p.bytes_on(LinkKind::NvLink).as_mb() - 400.0).abs() < 1e-9);
        assert!((p.bytes_on(LinkKind::Ethernet).as_mb() - 100.0).abs() < 1e-9);
        assert!(p.bytes_on(LinkKind::Pcie).is_zero());
    }

    #[test]
    fn serialized_time_sums_links() {
        let cfg = HardwareConfig::pai_default();
        let p = plan();
        let total = p.serialized_time(&cfg).as_f64();
        let by_link: f64 = LinkKind::ALL
            .iter()
            .map(|&l| cfg.link(l).transfer_time(p.bytes_on(l)).as_f64())
            .sum();
        assert!((total - by_link).abs() < 1e-12);
        // NVLink: 400 MB / 35 GB/s; Ethernet: 100 MB / 2.1875 GB/s.
        let expected = 0.4 / 35.0 + 0.1 / 2.1875;
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_transfers_are_dropped() {
        let mut p = CommPlan::new();
        p.push(Transfer::new("empty", LinkKind::Pcie, Bytes::ZERO));
        assert!(p.is_empty());
        assert!(p.serialized_time(&HardwareConfig::pai_default()).is_zero());
    }

    #[test]
    #[should_panic(expected = "need a label")]
    fn rejects_unlabeled_transfer() {
        let _ = Transfer::new("", LinkKind::Pcie, Bytes::from_mb(1.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!plan().to_string().is_empty());
        assert_eq!(CommPlan::new().to_string(), "(no communication)");
    }
}
