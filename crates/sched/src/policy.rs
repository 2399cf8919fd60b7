//! Pluggable gang-placement policies.
//!
//! The queue discipline is fixed (strict FIFO head-of-line); a policy
//! only decides **where** the head job's gang lands, given a read-only
//! view of the cluster's idle GPUs ([`FreeGpus`]): each server's count,
//! and the servers indexed by that count, so a policy walks them
//! emptiest first or finds the tightest fit without sorting. It writes
//! the assignment into a buffer the caller owns and reuses, so placing
//! a gang allocates nothing once that buffer has grown. Every built-in
//! policy admits a gang iff the cluster has enough total free GPUs —
//! they never reject a feasible job, so FIFO progress is guaranteed —
//! and they differ only in how much NIC sharing and fragmentation the
//! layout produces:
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

/// A read-only view of the cluster's idle GPUs, as a [`Policy`] sees
/// it.
///
/// Besides each server's idle-GPU count, the view indexes the servers
/// by that count: for every count up to the per-server capacity, a
/// bitset of the servers holding it, which the engine keeps in step as
/// gangs claim and release GPUs. Walking the servers emptiest first or
/// finding the tightest fit therefore scans the index instead of
/// sorting the servers.
#[derive(Debug, Clone, Copy)]
pub struct FreeGpus<'a> {
    idle: &'a [usize],
    /// For each count `0..=capacity`, `words` bitset words naming the
    /// servers with that many idle GPUs.
    levels: &'a [u64],
    words: usize,
}

impl<'a> FreeGpus<'a> {
    /// The view of `idle` through its index `levels`, `words` words per
    /// count.
    pub(crate) fn new(idle: &'a [usize], levels: &'a [u64], words: usize) -> Self {
        FreeGpus {
            idle,
            levels,
            words,
        }
    }

    /// Idle GPUs per server.
    pub fn per_server(&self) -> &'a [usize] {
        self.idle
    }

    /// The servers with exactly `count` idle GPUs, as bitset words
    /// (bit `s % 64` of word `s / 64` is server `s`); empty past the
    /// capacity.
    fn level(&self, count: usize) -> &'a [u64] {
        self.levels
            .get(count.saturating_mul(self.words)..)
            .and_then(|rest| rest.get(..self.words))
            .unwrap_or(&[])
    }

    /// The number of servers with exactly `count` idle GPUs.
    pub fn servers_with(&self, count: usize) -> usize {
        self.level(count)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The server with the fewest idle GPUs that still holds `cnodes`
    /// of them, ties to the lowest index.
    pub fn tightest_fit(&self, cnodes: usize) -> Option<usize> {
        let counts = self.levels.len() / self.words;
        (cnodes..counts).find_map(|count| {
            self.level(count)
                .iter()
                .enumerate()
                .find(|&(_, &word)| word != 0)
                .map(|(w, &word)| w * 64 + word.trailing_zeros() as usize)
        })
    }

    /// `(server, idle GPUs)` for every server with idle GPUs, emptiest
    /// first, ties to the lowest index.
    pub fn emptiest_first(&self) -> impl Iterator<Item = (usize, usize)> + 'a {
        // Parked past the last word of the count above the capacity,
        // so the first step moves to the capacity's first word.
        EmptiestFirst {
            levels: self.levels,
            words: self.words,
            count: self.levels.len() / self.words,
            word: self.words,
            bits: 0,
        }
    }
}

/// [`FreeGpus::emptiest_first`]: counts from the capacity down to 1,
/// each count's servers in index order.
struct EmptiestFirst<'a> {
    levels: &'a [u64],
    words: usize,
    /// The count being walked.
    count: usize,
    /// The word of `count`'s bitset being walked.
    word: usize,
    /// The servers of that word not yet yielded.
    bits: u64,
}

impl Iterator for EmptiestFirst<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words {
                if self.count <= 1 {
                    return None;
                }
                self.count -= 1;
                self.word = 0;
            }
            self.bits = self.levels[self.count * self.words + self.word];
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word * 64 + bit, self.count))
    }
}

/// A gang-placement policy.
///
/// `free` is a view of the idle GPUs per server ([`FreeGpus`]). A
/// placement is a list of `(server, replicas)` entries with distinct
/// servers, positive counts within the server's idle GPUs, and counts
/// summing to `cnodes`. The policy appends it to `out`, which the
/// caller clears before each call and owns across calls, and returns
/// `true`; `false` means "cannot place now", leaves the job at the head
/// of the FIFO queue, and the caller discards whatever `out` holds.
///
/// The engine calls `place` only when the idle GPUs sum to at least
/// `cnodes`: with fewer no valid placement exists, so the head waits
/// without asking.
pub trait Policy: Sync {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Chooses servers for a `cnodes`-wide gang of the given
    /// synchronization class, appending them to `out`.
    fn place(
        &self,
        cnodes: usize,
        sync: SyncClass,
        free: &FreeGpus<'_>,
        out: &mut Vec<(usize, usize)>,
    ) -> bool;
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
fn first_fit(cnodes: usize, free: &FreeGpus<'_>, out: &mut Vec<(usize, usize)>) -> bool {
    let mut remaining = cnodes;
    for (server, &idle) in free.per_server().iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if idle == 0 {
            continue;
        }
        let take = remaining.min(idle);
        out.push((server, take));
        remaining -= take;
    }
    remaining == 0
}

/// Greedy fewest-servers packing: biggest holes first.
fn pack_emptiest_first(cnodes: usize, free: &FreeGpus<'_>, out: &mut Vec<(usize, usize)>) -> bool {
    let mut remaining = cnodes;
    for (server, idle) in free.emptiest_first() {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(idle);
        out.push((server, take));
        remaining -= take;
    }
    remaining == 0
}

/// Round-robin single replicas over the emptiest servers, in closed
/// form: round `r` gives one replica to every server with at least `r`
/// idle GPUs, so after the `rounds` full rounds that fit, each server
/// holds `min(rounds, idle)` and the remaining replicas go one each to
/// the emptiest servers, which all have room for another.
fn spread_round_robin(cnodes: usize, free: &FreeGpus<'_>, out: &mut Vec<(usize, usize)>) -> bool {
    // Servers still taking a replica in the next round.
    let mut takers = free.per_server().len() - free.servers_with(0);
    let (mut rounds, mut placed) = (0usize, 0usize);
    while takers > 0 && placed + takers <= cnodes {
        placed += takers;
        rounds += 1;
        takers -= free.servers_with(rounds);
    }
    if takers == 0 && placed < cnodes {
        return false;
    }
    let extra = cnodes - placed;
    for (i, (server, idle)) in free.emptiest_first().enumerate() {
        let count = idle.min(rounds) + usize::from(i < extra);
        if count == 0 {
            break;
        }
        out.push((server, count));
    }
    true
}

/// The whole gang on the tightest server that holds it.
fn contain(cnodes: usize, free: &FreeGpus<'_>, out: &mut Vec<(usize, usize)>) -> bool {
    match free.tightest_fit(cnodes) {
        Some(server) => {
            out.push((server, cnodes));
            true
        }
        None => false,
    }
}

impl Policy for FifoFirstFit {
    fn name(&self) -> &'static str {
        "fifo-first-fit"
    }

    fn place(
        &self,
        cnodes: usize,
        _sync: SyncClass,
        free: &FreeGpus<'_>,
        out: &mut Vec<(usize, usize)>,
    ) -> bool {
        first_fit(cnodes, free, out)
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
        free: &FreeGpus<'_>,
        out: &mut Vec<(usize, usize)>,
    ) -> bool {
        contain(cnodes, free, out) || pack_emptiest_first(cnodes, free, out)
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
        free: &FreeGpus<'_>,
        out: &mut Vec<(usize, usize)>,
    ) -> bool {
        spread_round_robin(cnodes, free, out)
    }
}

impl Policy for LocalityAware {
    fn name(&self) -> &'static str {
        "locality-aware"
    }

    fn place(
        &self,
        cnodes: usize,
        sync: SyncClass,
        free: &FreeGpus<'_>,
        out: &mut Vec<(usize, usize)>,
    ) -> bool {
        match sync {
            // Keep the NVLink/PCIe synchronization profitable; if no
            // server can contain the gang, fall back rather than wait
            // (head-of-line blocking would starve the whole queue).
            SyncClass::Local => contain(cnodes, free, out) || first_fit(cnodes, free, out),
            // Ethernet gangs dilate with NIC sharing: spread them.
            SyncClass::Ethernet => spread_round_robin(cnodes, free, out),
            SyncClass::Silent => first_fit(cnodes, free, out),
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

/// The sort-based placements the indexed ones replaced, kept as the
/// reference `indexed_placement_matches_the_sort_reference` compares
/// them with.
#[cfg(test)]
mod sorted {
    use super::PolicyKind;
    use crate::job::SyncClass;

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

    /// What `kind`'s placement policy chose from `free` before the
    /// index.
    pub(super) fn place(
        kind: PolicyKind,
        cnodes: usize,
        sync: SyncClass,
        free: &[usize],
    ) -> Option<Vec<(usize, usize)>> {
        let contain = || tightest_single_server(cnodes, free).map(|server| vec![(server, cnodes)]);
        match (kind, sync) {
            (PolicyKind::BestFitPacked, _) => {
                contain().or_else(|| pack_fewest_servers(cnodes, free))
            }
            (PolicyKind::Spread, _) | (PolicyKind::LocalityAware, SyncClass::Ethernet) => {
                spread_replicas(cnodes, free)
            }
            (PolicyKind::LocalityAware, SyncClass::Local) => {
                contain().or_else(|| first_fit(cnodes, free))
            }
            _ => first_fit(cnodes, free),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Servers;
    use proptest::prelude::*;

    /// `policy`'s placement of a `cnodes`-wide gang on 8-GPU servers
    /// with `free` idle GPUs.
    fn place(
        policy: &dyn Policy,
        cnodes: usize,
        sync: SyncClass,
        free: &[usize],
    ) -> Option<Vec<(usize, usize)>> {
        let servers = Servers::with_free(free, 8);
        let mut out = Vec::new();
        policy
            .place(cnodes, sync, &servers.free_gpus(), &mut out)
            .then_some(out)
    }

    fn total(assignment: &[(usize, usize)]) -> usize {
        assignment.iter().map(|&(_, c)| c).sum()
    }

    fn servers(assignment: &[(usize, usize)]) -> Vec<usize> {
        assignment.iter().map(|&(s, _)| s).collect()
    }

    #[test]
    fn first_fit_fills_left_to_right() {
        let a = place(&FifoFirstFit, 10, SyncClass::Ethernet, &[8, 8, 8]).expect("fits");
        assert_eq!(a, vec![(0, 8), (1, 2)]);
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        let a = place(&BestFitPacked, 3, SyncClass::Ethernet, &[8, 3, 5]).expect("fits");
        assert_eq!(a, vec![(1, 3)]);
        // No single server fits 10: biggest holes first, fewest
        // servers.
        let b = place(&BestFitPacked, 10, SyncClass::Ethernet, &[4, 8, 3]).expect("fits");
        assert_eq!(b, vec![(1, 8), (0, 2)]);
    }

    #[test]
    fn spread_lands_one_replica_per_server_when_it_can() {
        let a = place(&Spread, 3, SyncClass::Ethernet, &[8, 8, 8, 8]).expect("fits");
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&(_, c)| c == 1));
        // Wider than the server count: wraps around evenly.
        let b = place(&Spread, 6, SyncClass::Ethernet, &[8, 8, 8, 8]).expect("fits");
        assert_eq!(total(&b), 6);
        assert!(b.iter().all(|&(_, c)| c <= 2));
    }

    #[test]
    fn locality_aware_contains_local_gangs() {
        let a = place(&LocalityAware, 4, SyncClass::Local, &[2, 8, 8]).expect("fits");
        assert_eq!(a.len(), 1, "local gang must land on one server");
        // When no server can contain it, it still places (first-fit
        // fallback) instead of head-of-line blocking.
        let b = place(&LocalityAware, 6, SyncClass::Local, &[4, 4, 4]).expect("fits");
        assert_eq!(total(&b), 6);
        assert!(b.len() > 1);
        // Ethernet gangs spread.
        let c = place(&LocalityAware, 3, SyncClass::Ethernet, &[8, 8, 8]).expect("fits");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn every_policy_admits_iff_capacity_suffices() {
        let free = [2usize, 1, 3];
        for kind in PolicyKind::ALL {
            let policy = kind.policy();
            for sync in [SyncClass::Silent, SyncClass::Local, SyncClass::Ethernet] {
                let a = place(policy, 6, sync, &free).expect("exactly fits");
                assert_eq!(total(&a), 6, "{} mislaid the gang", policy.name());
                let mut seen = servers(&a);
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), a.len(), "{} repeated a server", policy.name());
                for &(s, c) in &a {
                    assert!(c > 0 && c <= free[s]);
                }
                assert!(
                    place(policy, 7, sync, &free).is_none(),
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

    /// A per-server capacity of 1–16 GPUs and 1–130 servers (one to
    /// three bitset words), a third of them empty, a third full, the
    /// rest anywhere in between.
    fn clusters() -> impl Strategy<Value = (usize, Vec<usize>)> {
        let server = (0u8..3, 0usize..=16);
        (1usize..=16, proptest::collection::vec(server, 1..=130)).prop_map(|(capacity, raw)| {
            let free = raw
                .into_iter()
                .map(|(shape, idle)| match shape {
                    0 => 0,
                    1 => capacity,
                    _ => idle % (capacity + 1),
                })
                .collect();
            (capacity, free)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every built-in placement, read from the level index, returns
        /// the sort-based reference's assignment entry for entry and in
        /// the same order, or refuses where it refuses — for every
        /// synchronization class and every width up to one past the
        /// idle total.
        #[test]
        fn indexed_placement_matches_the_sort_reference((capacity, free) in clusters()) {
            let servers = Servers::with_free(&free, capacity);
            let view = servers.free_gpus();
            let idle: usize = free.iter().sum();
            let mut out = Vec::new();
            let kinds = [
                PolicyKind::FifoFirstFit,
                PolicyKind::BestFitPacked,
                PolicyKind::Spread,
                PolicyKind::LocalityAware,
            ];
            for kind in kinds {
                for sync in [SyncClass::Silent, SyncClass::Local, SyncClass::Ethernet] {
                    for cnodes in 1..=idle + 1 {
                        out.clear();
                        let placed = kind.policy().place(cnodes, sync, &view, &mut out);
                        let expected = sorted::place(kind, cnodes, sync, &free);
                        let placed = placed.then_some(&out[..]);
                        prop_assert_eq!(
                            placed,
                            expected.as_deref(),
                            "{} {:?} cnodes {} on {:?}: {:?}, reference {:?}",
                            kind.name(),
                            sync,
                            cnodes,
                            free,
                            placed,
                            expected
                        );
                    }
                }
            }
        }
    }
}
