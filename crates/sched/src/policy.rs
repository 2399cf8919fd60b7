//! Pluggable gang-placement policies.
//!
//! The queue discipline is fixed (strict FIFO head-of-line); a policy
//! only decides **where** the head job's gang lands, given the
//! current per-server free-GPU vector. Every built-in policy admits a
//! gang iff the cluster has enough total free GPUs — they never
//! reject a feasible job, so FIFO progress is guaranteed — and they
//! differ only in how much NIC sharing and fragmentation the layout
//! produces:
//!
//! - [`FifoFirstFit`]: fill servers left to right (the baseline);
//! - [`BestFitPacked`]: tightest single-server fit, else fewest
//!   servers — minimizes fragmentation at the cost of NIC sharing;
//! - [`Spread`]: one replica at a time across the emptiest servers —
//!   minimizes NIC sharing at the cost of fragmentation;
//! - [`LocalityAware`]: contains [`SyncClass::Local`] gangs in one
//!   server (keeping AllReduce-Local profitable — Fig. 9's win
//!   evaporates once the gang spills onto Ethernet), spreads Ethernet
//!   gangs, first-fits silent ones.

use serde::{Deserialize, Serialize};

use crate::job::SyncClass;

/// A gang-placement policy.
///
/// `free[s]` is the number of idle GPUs on server `s`. A placement is
/// a list of `(server, replicas)` entries with distinct servers,
/// positive counts within `free`, and counts summing to `cnodes`;
/// `None` means "cannot place now" and leaves the job at the head of
/// the FIFO queue.
///
/// The engine calls `place` only when `free` sums to at least
/// `cnodes`: with fewer idle GPUs no valid placement exists, so the
/// head waits without asking.
pub trait Policy: Sync {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Chooses servers for a `cnodes`-wide gang of the given
    /// synchronization class.
    fn place(&self, cnodes: usize, sync: SyncClass, free: &[usize]) -> Option<Vec<(usize, usize)>>;
}

/// Fills servers left to right.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoFirstFit;

/// Tightest single-server fit, else greedy fewest-servers packing.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitPacked;

/// One replica at a time across the emptiest servers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spread;

/// Contains local-sync gangs, spreads Ethernet gangs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalityAware;

/// Left-to-right fill; succeeds iff total free capacity suffices.
fn first_fit(cnodes: usize, free: &[usize]) -> Option<Vec<(usize, usize)>> {
    let mut remaining = cnodes;
    let mut assignment = Vec::new();
    for (server, &idle) in free.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if idle == 0 {
            continue;
        }
        let take = remaining.min(idle);
        assignment.push((server, take));
        remaining -= take;
    }
    if remaining == 0 {
        Some(assignment)
    } else {
        None
    }
}

/// The server with the least free capacity still fitting the whole
/// gang (ties to the lowest index).
fn tightest_single_server(cnodes: usize, free: &[usize]) -> Option<usize> {
    free.iter()
        .enumerate()
        .filter(|&(_, &idle)| idle >= cnodes)
        .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(server, _)| server)
}

/// Server indices with free capacity, emptiest first (ties to the
/// lowest index).
fn by_free_descending(free: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..free.len()).filter(|&s| free[s] > 0).collect();
    order.sort_by(|&a, &b| free[b].cmp(&free[a]).then(a.cmp(&b)));
    order
}

/// Greedy fewest-servers packing: biggest holes first.
fn pack_fewest_servers(cnodes: usize, free: &[usize]) -> Option<Vec<(usize, usize)>> {
    let mut remaining = cnodes;
    let mut assignment = Vec::new();
    for server in by_free_descending(free) {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(free[server]);
        assignment.push((server, take));
        remaining -= take;
    }
    if remaining == 0 {
        Some(assignment)
    } else {
        None
    }
}

/// Round-robin single replicas over the emptiest servers.
fn spread_replicas(cnodes: usize, free: &[usize]) -> Option<Vec<(usize, usize)>> {
    let order = by_free_descending(free);
    let mut counts = vec![0usize; free.len()];
    let mut remaining = cnodes;
    while remaining > 0 {
        let mut progressed = false;
        for &server in &order {
            if remaining == 0 {
                break;
            }
            if counts[server] < free[server] {
                counts[server] += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        if !progressed {
            return None;
        }
    }
    let assignment: Vec<(usize, usize)> = order
        .into_iter()
        .filter(|&s| counts[s] > 0)
        .map(|s| (s, counts[s]))
        .collect();
    Some(assignment)
}

impl Policy for FifoFirstFit {
    fn name(&self) -> &'static str {
        "fifo-first-fit"
    }

    fn place(
        &self,
        cnodes: usize,
        _sync: SyncClass,
        free: &[usize],
    ) -> Option<Vec<(usize, usize)>> {
        first_fit(cnodes, free)
    }
}

impl Policy for BestFitPacked {
    fn name(&self) -> &'static str {
        "best-fit-packed"
    }

    fn place(
        &self,
        cnodes: usize,
        _sync: SyncClass,
        free: &[usize],
    ) -> Option<Vec<(usize, usize)>> {
        if let Some(server) = tightest_single_server(cnodes, free) {
            return Some(vec![(server, cnodes)]);
        }
        pack_fewest_servers(cnodes, free)
    }
}

impl Policy for Spread {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(
        &self,
        cnodes: usize,
        _sync: SyncClass,
        free: &[usize],
    ) -> Option<Vec<(usize, usize)>> {
        spread_replicas(cnodes, free)
    }
}

impl Policy for LocalityAware {
    fn name(&self) -> &'static str {
        "locality-aware"
    }

    fn place(&self, cnodes: usize, sync: SyncClass, free: &[usize]) -> Option<Vec<(usize, usize)>> {
        match sync {
            // Keep the NVLink/PCIe synchronization profitable; if no
            // server can contain the gang, fall back rather than wait
            // (head-of-line blocking would starve the whole queue).
            SyncClass::Local => tightest_single_server(cnodes, free)
                .map(|server| vec![(server, cnodes)])
                .or_else(|| first_fit(cnodes, free)),
            // Ethernet gangs dilate with NIC sharing: spread them.
            SyncClass::Ethernet => spread_replicas(cnodes, free),
            SyncClass::Silent => first_fit(cnodes, free),
        }
    }
}

/// The built-in policies as a value type — what sweeps and experiment
/// configs name.
///
/// The first four differ only in gang *placement* under strict FIFO
/// ordering; the last two keep first-fit placement and differ only in
/// queue *ordering* (see [`crate::order::QueueOrder`]), so their JCT
/// deltas against [`PolicyKind::FifoFirstFit`] isolate what duration
/// prediction buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`FifoFirstFit`].
    FifoFirstFit,
    /// [`BestFitPacked`].
    BestFitPacked,
    /// [`Spread`].
    Spread,
    /// [`LocalityAware`].
    LocalityAware,
    /// Quasi-Shortest-Service-First over the online history
    /// predictor, first-fit placement.
    Qssf,
    /// True shortest-remaining-service ordering (perfect information),
    /// first-fit placement — the upper bound on `qssf`.
    SjfOracle,
}

static FIFO_FIRST_FIT: FifoFirstFit = FifoFirstFit;
static BEST_FIT_PACKED: BestFitPacked = BestFitPacked;
static SPREAD: Spread = Spread;
static LOCALITY_AWARE: LocalityAware = LocalityAware;

impl PolicyKind {
    /// Every built-in policy, in comparison order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::FifoFirstFit,
        PolicyKind::BestFitPacked,
        PolicyKind::Spread,
        PolicyKind::LocalityAware,
        PolicyKind::Qssf,
        PolicyKind::SjfOracle,
    ];

    /// The *placement* half of the policy (the ordering half lives in
    /// [`crate::order::QueueOrder`] — both predictive kinds place
    /// first-fit so their deltas are pure ordering effects).
    pub fn policy(self) -> &'static dyn Policy {
        match self {
            PolicyKind::FifoFirstFit | PolicyKind::Qssf | PolicyKind::SjfOracle => &FIFO_FIRST_FIT,
            PolicyKind::BestFitPacked => &BEST_FIT_PACKED,
            PolicyKind::Spread => &SPREAD,
            PolicyKind::LocalityAware => &LOCALITY_AWARE,
        }
    }

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Qssf => "qssf",
            PolicyKind::SjfOracle => "sjf-oracle",
            _ => self.policy().name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(assignment: &[(usize, usize)]) -> usize {
        assignment.iter().map(|&(_, c)| c).sum()
    }

    fn servers(assignment: &[(usize, usize)]) -> Vec<usize> {
        assignment.iter().map(|&(s, _)| s).collect()
    }

    #[test]
    fn first_fit_fills_left_to_right() {
        let a = FifoFirstFit
            .place(10, SyncClass::Ethernet, &[8, 8, 8])
            .expect("fits");
        assert_eq!(a, vec![(0, 8), (1, 2)]);
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        let a = BestFitPacked
            .place(3, SyncClass::Ethernet, &[8, 3, 5])
            .expect("fits");
        assert_eq!(a, vec![(1, 3)]);
        // No single server fits 10: biggest holes first, fewest
        // servers.
        let b = BestFitPacked
            .place(10, SyncClass::Ethernet, &[4, 8, 3])
            .expect("fits");
        assert_eq!(b, vec![(1, 8), (0, 2)]);
    }

    #[test]
    fn spread_lands_one_replica_per_server_when_it_can() {
        let a = Spread
            .place(3, SyncClass::Ethernet, &[8, 8, 8, 8])
            .expect("fits");
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&(_, c)| c == 1));
        // Wider than the server count: wraps around evenly.
        let b = Spread
            .place(6, SyncClass::Ethernet, &[8, 8, 8, 8])
            .expect("fits");
        assert_eq!(total(&b), 6);
        assert!(b.iter().all(|&(_, c)| c <= 2));
    }

    #[test]
    fn locality_aware_contains_local_gangs() {
        let a = LocalityAware
            .place(4, SyncClass::Local, &[2, 8, 8])
            .expect("fits");
        assert_eq!(a.len(), 1, "local gang must land on one server");
        // When no server can contain it, it still places (first-fit
        // fallback) instead of head-of-line blocking.
        let b = LocalityAware
            .place(6, SyncClass::Local, &[4, 4, 4])
            .expect("fits");
        assert_eq!(total(&b), 6);
        assert!(b.len() > 1);
        // Ethernet gangs spread.
        let c = LocalityAware
            .place(3, SyncClass::Ethernet, &[8, 8, 8])
            .expect("fits");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn every_policy_admits_iff_capacity_suffices() {
        let free = [2usize, 1, 3];
        for kind in PolicyKind::ALL {
            let policy = kind.policy();
            for sync in [SyncClass::Silent, SyncClass::Local, SyncClass::Ethernet] {
                let a = policy.place(6, sync, &free).expect("exactly fits");
                assert_eq!(total(&a), 6, "{} mislaid the gang", policy.name());
                let mut seen = servers(&a);
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), a.len(), "{} repeated a server", policy.name());
                for &(s, c) in &a {
                    assert!(c > 0 && c <= free[s]);
                }
                assert!(
                    policy.place(7, sync, &free).is_none(),
                    "{} overcommitted",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn kinds_resolve_to_distinct_names() {
        let mut names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }
}
