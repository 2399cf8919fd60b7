//! α–β (latency–bandwidth) collective timing.
//!
//! The paper's bandwidth-only model (`S/B`) is exact for the large
//! gradients its workloads move, but ring algorithms also pay a
//! per-step latency: a ring AllReduce over `n` ranks takes `2(n-1)`
//! message steps, so tiny tensors on big rings become latency-bound.
//! This module provides the standard α–β refinement used to study that
//! regime (an ablation over the paper's simplification — see the
//! `ablations` bench).
//!
//! `T = steps · α + volume / B_eff`

use pai_hw::{Bytes, LinkModel, Seconds};

use crate::ring;

/// Per-message-step latency of an interconnect hop. NVLink hops are
/// ~1 µs end to end; Ethernet RPCs ~25 µs.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Latency(Seconds);

impl Latency {
    /// Creates a latency from seconds.
    pub fn new(alpha: Seconds) -> Self {
        Latency(alpha)
    }

    /// A typical NVLink hop latency (1 µs).
    pub fn nvlink_default() -> Self {
        Latency(Seconds::from_micros(1.0))
    }

    /// A typical datacenter-Ethernet message latency (25 µs).
    pub fn ethernet_default() -> Self {
        Latency(Seconds::from_micros(25.0))
    }

    /// A typical PCIe DMA kick-off latency (2 µs) — the per-transfer
    /// fixed cost a gradient push over the host bridge pays before the
    /// bandwidth term starts.
    pub fn pcie_default() -> Self {
        Latency(Seconds::from_micros(2.0))
    }

    /// Zero latency: degrades every α–β formula to the paper's pure
    /// bandwidth model.
    pub fn zero() -> Self {
        Latency(Seconds::ZERO)
    }

    /// The per-step value.
    pub fn alpha(&self) -> Seconds {
        self.0
    }
}

/// Ring AllReduce time with latency: `2(n-1)` steps plus the bandwidth
/// term.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn allreduce_time(n: usize, payload: Bytes, link: &LinkModel, latency: Latency) -> Seconds {
    assert!(n > 0, "collectives need at least one rank");
    if n == 1 {
        return Seconds::ZERO;
    }
    let steps = 2 * (n - 1);
    latency.alpha().scale(steps as f64) + link.transfer_time(ring::allreduce_per_rank(n, payload))
}

/// One point-to-point message over a link: `α + S / B_eff`.
///
/// This is the per-message building block of wait-free backprop and
/// tensor fusion: each gradient push pays the link's fixed latency
/// once, however small the payload, so splitting a fixed byte volume
/// into more messages strictly costs more time.
pub fn message_time(payload: Bytes, link: &LinkModel, latency: Latency) -> Seconds {
    latency.alpha() + link.transfer_time(payload)
}

/// The payload size at which latency and bandwidth terms are equal for
/// a ring AllReduce — below this, the collective is latency-bound and
/// the paper's `S/B` model underestimates.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn allreduce_crossover(n: usize, link: &LinkModel, latency: Latency) -> Bytes {
    assert!(n >= 2, "a ring needs at least two ranks");
    let steps = 2.0 * (n as f64 - 1.0);
    let alpha_total = latency.alpha().as_f64() * steps;
    // volume = 2(n-1)/n * S  =>  S = alpha_total * B_eff * n / (2(n-1)).
    let b_eff = link.effective_bandwidth().as_bytes_per_sec();
    Bytes::from_f64(alpha_total * b_eff * n as f64 / (2.0 * (n as f64 - 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_hw::{Bandwidth, LinkKind};

    fn nvlink() -> LinkModel {
        LinkModel::new(LinkKind::NvLink, Bandwidth::from_gb_per_sec(50.0), 0.7)
    }

    #[test]
    fn large_payloads_match_the_bandwidth_model() {
        let link = nvlink();
        let payload = Bytes::from_gb(1.0);
        let with = allreduce_time(8, payload, &link, Latency::nvlink_default());
        let without = ring::allreduce_time(8, payload, &link);
        // 14 us of latency on a ~50 ms transfer: < 0.1 % difference.
        assert!((with.as_f64() - without.as_f64()) / without.as_f64() < 1e-3);
    }

    #[test]
    fn tiny_payloads_are_latency_bound() {
        let link = nvlink();
        let payload = Bytes::from_kb(4.0);
        let with = allreduce_time(8, payload, &link, Latency::nvlink_default());
        let without = ring::allreduce_time(8, payload, &link);
        assert!(with.as_f64() > 10.0 * without.as_f64());
    }

    #[test]
    fn crossover_separates_the_regimes() {
        let link = nvlink();
        let lat = Latency::nvlink_default();
        let cross = allreduce_crossover(8, &link, lat);
        // At the crossover the two terms are equal.
        let t = allreduce_time(8, cross, &link, lat);
        let bw_term = ring::allreduce_time(8, cross, &link);
        assert!((t.as_f64() - 2.0 * bw_term.as_f64()).abs() < 1e-9 * t.as_f64());
        // Below: latency dominates; above: bandwidth dominates.
        let small = allreduce_time(8, cross.scale(0.01), &link, lat);
        assert!(small.as_f64() > 1.9 * ring::allreduce_time(8, cross.scale(0.01), &link).as_f64());
    }

    #[test]
    fn single_rank_is_free() {
        let link = nvlink();
        assert!(allreduce_time(1, Bytes::from_gb(1.0), &link, Latency::nvlink_default()).is_zero());
    }

    #[test]
    fn more_ranks_cost_more_latency() {
        let link = nvlink();
        let payload = Bytes::from_kb(1.0);
        let lat = Latency::ethernet_default();
        let t8 = allreduce_time(8, payload, &link, lat);
        let t64 = allreduce_time(64, payload, &link, lat);
        assert!(t64.as_f64() > 7.0 * t8.as_f64());
    }

    #[test]
    fn defaults_are_ordered() {
        assert!(
            Latency::ethernet_default().alpha().as_f64() > Latency::pcie_default().alpha().as_f64()
        );
        assert!(
            Latency::pcie_default().alpha().as_f64() > Latency::nvlink_default().alpha().as_f64()
        );
        assert!(Latency::zero().alpha().is_zero());
    }

    #[test]
    fn message_time_splits_into_latency_and_bandwidth() {
        let link = nvlink();
        let lat = Latency::nvlink_default();
        let payload = Bytes::from_mb(32.0);
        let t = message_time(payload, &link, lat);
        let expected = lat.alpha().as_f64() + link.transfer_time(payload).as_f64();
        assert!((t.as_f64() - expected).abs() < 1e-15);
        // Zero latency degrades to the paper's pure bandwidth model.
        assert_eq!(
            message_time(payload, &link, Latency::zero()).as_f64(),
            link.transfer_time(payload).as_f64()
        );
    }

    /// The fusion premise: halving the message count at equal total
    /// bytes must *strictly* reduce the modeled time, on every medium
    /// with a non-zero per-message latency.
    #[test]
    fn halving_message_count_at_equal_bytes_strictly_reduces_time() {
        // `n` equal-share messages totalling `payload`, back to back.
        let stream = |n: usize, payload: Bytes, link: &LinkModel, lat: Latency| -> Seconds {
            let share = payload.scale(1.0 / n as f64);
            (0..n).map(|_| message_time(share, link, lat)).sum()
        };
        let media = [
            (nvlink(), Latency::nvlink_default()),
            (
                LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gbit_per_sec(25.0), 0.7),
                Latency::ethernet_default(),
            ),
            (
                LinkModel::new(LinkKind::Pcie, Bandwidth::from_gb_per_sec(10.0), 0.7),
                Latency::pcie_default(),
            ),
        ];
        for (link, lat) in media {
            for payload in [
                Bytes::from_kb(64.0),
                Bytes::from_mb(4.0),
                Bytes::from_gb(1.0),
            ] {
                for n in [2usize, 8, 64, 512] {
                    let split = stream(n, payload, &link, lat);
                    let fused = stream(n / 2, payload, &link, lat);
                    assert!(
                        fused.as_f64() < split.as_f64(),
                        "{}: {n} -> {} messages must strictly help",
                        link.kind(),
                        n / 2
                    );
                    // The saving is exactly the dropped latency terms.
                    let saved = split.as_f64() - fused.as_f64();
                    let expected = lat.alpha().as_f64() * (n - n / 2) as f64;
                    assert!((saved - expected).abs() < 1e-12 * split.as_f64().max(1.0));
                }
            }
        }
    }
}
