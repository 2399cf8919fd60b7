//! The deterministic discrete-event gang-scheduling engine.
//!
//! Virtual time only: the clock is an `f64` of simulated seconds that
//! advances from event to event — no wall-clock or entropy source
//! anywhere (the xtask `wall-clock` lint enforces this). Between two
//! consecutive events the running set is fixed, so every running
//! job's step time is constant and progress is a fluid
//! `elapsed / step_time` steps (tracked fractionally); events are the
//! only points where step times change. The next event is always the
//! minimum over
//!
//! - the earliest **boundary** of a running job (its finish, or its
//!   next deterministic crash point),
//! - the earliest **requeue** of a crashed job whose restart + backoff
//!   has elapsed,
//! - the next **arrival** of the stream,
//!
//! with ties broken by `(time, kind, job id)` — boundaries before
//! requeues before arrivals, so freed GPUs are visible to a
//! same-instant submission. Which queued job is served is the
//! [`QueueOrder`]'s call: under [`QueueOrder::Fifo`] the queue is
//! strict FIFO head-of-line (byte-identical to the pre-predictor
//! engine — policies only choose *where* a gang lands); under
//! [`QueueOrder::Qssf`]/[`QueueOrder::SjfOracle`] the head is the
//! entry with the smallest estimated/true remaining service
//! (starvation-bounded, ties to the oldest entry), found through a
//! heap in O(log n) rather than a scan of the queue. Head-of-line
//! blocking is preserved either way: when the selected head does not
//! fit, nothing behind it backfills. After every event the engine
//! replays the head against the policy — asking it only while the
//! cluster's free GPUs could hold the gang, since no valid assignment
//! exists otherwise.
//!
//! This module is the crate's one cluster model. Step times are the
//! analytical model dilated by max-min fair NIC sharing: on a server
//! whose NIC carries `k` replicas' Ethernet traffic each gets `1/k`
//! of it, so a gang's Ethernet time stretches by the worst sharer
//! count among its servers (`price`). The counts live in per-server
//! counters (`Servers`) that the event loop keeps incrementally and
//! [`crate::place_mix`] fills once for a whole mix on an idle cluster.
//! Beside the counters, `Servers` indexes the servers by level: for
//! every free-GPU count and every sharer count, a bitset of the
//! servers holding it, updated wherever a counter moves. Policies read
//! the free index through [`FreeGpus`] and place into a reused buffer;
//! a gang's worst sharer count is the highest sharer level meeting the
//! gang's own server bitset. A gang with zero weight volume is no
//! sharer: max-min gives a zero-demand flow no share. A job that
//! shares no NIC (silent, a local gang contained in one server, or a
//! zero-volume gang) is priced once, when it starts; after an event,
//! only the sharers with a server whose sharer count moved are
//! repriced. The partial-server count behind the fragmentation
//! integral is updated wherever a server's free count changes, so an
//! event that moves no GPUs costs one pass over the running set to
//! find the next event and one to advance it, and a start allocates
//! nothing once released gangs' buffers are there to reuse.

use std::collections::{BinaryHeap, VecDeque};

use pai_faults::ExponentialBackoff;
use pai_hw::{Bytes, ClusterSpec, Seconds};
use pai_predict::{CalibrationAccum, CalibrationReport, HistoryStore, NUM_CLASSES};
use serde::{Deserialize, Serialize};

use crate::error::SchedError;
use crate::job::{SchedJob, SyncClass};
use crate::metrics::{percentile, ClusterMetrics, JobMetrics, BOUNDED_SLOWDOWN_TAU_S};
use crate::order::{
    class_priors_from_jobs, order_for_kind, PredictorSource, QueueOrder, QSSF_STARVATION_AGE_S,
};
use crate::policy::{FreeGpus, Policy, PolicyKind};

/// Engine knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Extra delay before a crashed job re-enters the queue, growing
    /// with the job's crash count (on top of the crash's own restart
    /// cost).
    pub requeue_backoff: ExponentialBackoff,
    /// Record the full event log (sweeps turn this off to keep 50k-job
    /// runs lean).
    pub log_events: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        // 15 s doubling to a 4-minute cap — scheduler-scale requeue
        // penalties, far above the PS RPC-scale default. The
        // constructor cannot fail on these constants; the fallback
        // keeps this total without a panic path.
        let backoff =
            ExponentialBackoff::new(Seconds::from_f64(15.0), 2.0, Seconds::from_f64(240.0))
                .unwrap_or_else(|_| ExponentialBackoff::ps_default());
        SchedConfig {
            requeue_backoff: backoff,
            log_events: true,
        }
    }
}

/// What happened at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The job entered the queue.
    Arrive,
    /// The job's gang got its GPUs.
    Start,
    /// The job completed all its steps.
    Finish,
    /// The job hit a crash point and lost its GPUs.
    Crash,
    /// The job's restart + backoff elapsed; it re-entered the queue.
    Requeue,
}

/// One event-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotone sequence number.
    pub seq: usize,
    /// Virtual time.
    pub time_s: f64,
    /// What happened.
    pub kind: EventKind,
    /// The job it happened to.
    pub job: usize,
}

/// The engine's result: per-job metrics (stream order), cluster
/// metrics, and the event log (empty unless
/// [`SchedConfig::log_events`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedOutcome {
    /// The policy that produced this schedule (the queue ordering's
    /// label for predictive runs, the placement policy's otherwise).
    pub policy: String,
    /// Per-job outcomes, in stream order.
    pub jobs: Vec<JobMetrics>,
    /// Whole-run metrics.
    pub cluster: ClusterMetrics,
    /// Predicted-vs-actual service-demand calibration — `Some` for
    /// predictive queue orderings (QSSF and the oracles), `None`
    /// under FIFO.
    pub prediction: Option<CalibrationReport>,
    /// The event log.
    pub events: Vec<EventRecord>,
}

/// A job currently holding GPUs.
struct Running {
    job: usize,
    assignment: Vec<(usize, usize)>,
    /// The assignment's servers as a bitset ([`Servers::mark`]).
    server_set: Vec<u64>,
    /// True when the gang counts toward NIC sharing (see
    /// [`Servers::claim`]) — only such a job's price moves with the
    /// counters.
    shares_nic: bool,
    /// Fractional steps executed; the job's [`JobState::executed`] is
    /// stale until this dispatch ends.
    executed: f64,
    /// Current per-step time under the live contention state.
    step_time: f64,
    /// Fractional steps at which this dispatch stops: the next crash
    /// point or the job's step count.
    boundary: f64,
    boundary_is_crash: bool,
}

/// An ended gang's assignment and server-set buffers, kept for a
/// later start to reuse.
type GangBuffers = (Vec<(usize, usize)>, Vec<u64>);

/// True when a gang's synchronization rides Ethernet from
/// `assignment`: always for `Ethernet` jobs, only when split across
/// servers for `Local` ones.
fn rides_ethernet(sync: SyncClass, assignment: &[(usize, usize)]) -> bool {
    match sync {
        SyncClass::Ethernet => true,
        // A split local gang spills its synchronization onto Ethernet;
        // contained, it stays on PCIe/NVLink.
        SyncClass::Local => assignment.len() > 1,
        SyncClass::Silent => false,
    }
}

/// A gang's per-step time from the sharer counters: its off-NIC
/// `compute` time plus its synchronization. Riding Ethernet, that is
/// the solo transfer time `eth_time` dilated by the worst sharer count
/// among its servers, `server_set` ([`Servers::oversub`]); contained, a
/// `Local` gang pays `local_sync`; a silent one pays nothing. Only an
/// Ethernet-riding gang's price reads the counters.
pub(crate) fn price(
    compute: Seconds,
    sync: SyncClass,
    local_sync: Seconds,
    assignment: &[(usize, usize)],
    server_set: &[u64],
    eth_time: f64,
    servers: &Servers,
) -> f64 {
    let sync_term = if rides_ethernet(sync, assignment) {
        eth_time * servers.oversub(server_set) as f64
    } else if sync == SyncClass::Local {
        local_sync.as_f64()
    } else {
        0.0
    };
    compute.as_f64() + sync_term
}

/// True when bitsets `a` and `b` share a server.
fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Servers indexed by a per-server count: for each count
/// `0..=capacity`, a bitset of the servers holding it, `words` 64-bit
/// words long (bit `s % 64` of word `s / 64` is server `s`).
struct Levels {
    words: usize,
    bits: Vec<u64>,
}

impl Levels {
    /// `servers` servers, every one at `count`, for counts up to
    /// `capacity`.
    fn new(servers: usize, words: usize, capacity: usize, count: usize) -> Self {
        let mut bits = vec![0u64; (capacity + 1) * words];
        for server in 0..servers {
            bits[count * words + server / 64] |= 1 << (server % 64);
        }
        Levels { words, bits }
    }

    /// The servers at `count`.
    fn level(&self, count: usize) -> &[u64] {
        &self.bits[count * self.words..(count + 1) * self.words]
    }

    /// Moves `server` from count `from` to count `to`.
    fn shift(&mut self, server: usize, from: usize, to: usize) {
        let (word, bit) = (server / 64, 1u64 << (server % 64));
        self.bits[from * self.words + word] &= !bit;
        self.bits[to * self.words + word] |= bit;
    }
}

/// Per-server occupancy: free GPUs, NIC sharers, their level indices,
/// and the partial-server count, kept in step with every change to
/// `free` and `comm`.
pub(crate) struct Servers {
    /// Idle GPUs per server.
    free: Vec<usize>,
    /// NIC-sharing replicas per server; never above `per_server`, since
    /// each sharer holds one of the server's GPUs.
    comm: Vec<usize>,
    /// The servers by `free`.
    by_free: Levels,
    /// The servers by `comm`.
    by_comm: Levels,
    /// The servers whose `comm` moved since the last
    /// [`Servers::settle`].
    moved: Vec<u64>,
    /// Servers neither idle nor full — the fragmentation integrand.
    partial: usize,
    per_server: usize,
    /// Per server: the [`Servers::valid`] call that last saw it.
    seen: Vec<u64>,
    epoch: u64,
}

impl Servers {
    pub(crate) fn new(num_servers: usize, per_server: usize) -> Self {
        let words = num_servers.div_ceil(64).max(1);
        Servers {
            free: vec![per_server; num_servers],
            comm: vec![0; num_servers],
            by_free: Levels::new(num_servers, words, per_server, per_server),
            by_comm: Levels::new(num_servers, words, per_server, 0),
            moved: vec![0; words],
            partial: 0,
            per_server,
            seen: vec![0; num_servers],
            epoch: 0,
        }
    }

    /// The idle GPUs as a policy sees them.
    pub(crate) fn free_gpus(&self) -> FreeGpus<'_> {
        FreeGpus::new(&self.free, &self.by_free.bits, self.by_free.words)
    }

    /// True when `assignment` names distinct in-range servers, each
    /// with a positive count within its free GPUs, summing to `cnodes`.
    pub(crate) fn valid(&mut self, assignment: &[(usize, usize)], cnodes: usize) -> bool {
        self.epoch += 1;
        let mut total = 0usize;
        for &(server, count) in assignment {
            if server >= self.free.len()
                || count == 0
                || count > self.free[server]
                || self.seen[server] == self.epoch
            {
                return false;
            }
            self.seen[server] = self.epoch;
            total += count;
        }
        total == cnodes
    }

    /// Takes `assignment`'s GPUs out of the free pool and, when the
    /// gang rides Ethernet with a nonzero `weight_bytes`, counts its
    /// replicas as NIC sharers. Returns whether it did: a zero-volume
    /// gang puts no traffic on the NIC, so max-min sharing gives it no
    /// share and it dilates no server-mate.
    pub(crate) fn claim(
        &mut self,
        assignment: &[(usize, usize)],
        sync: SyncClass,
        weight_bytes: Bytes,
    ) -> bool {
        let shares_nic = rides_ethernet(sync, assignment) && !weight_bytes.is_zero();
        for &(server, count) in assignment {
            self.set_free(server, self.free[server] - count);
            if shares_nic {
                self.set_comm(server, self.comm[server] + count);
            }
        }
        shares_nic
    }

    /// Returns `assignment`'s GPUs to the free pool, and its sharers
    /// when [`Servers::claim`] counted them.
    fn release(&mut self, assignment: &[(usize, usize)], shares_nic: bool) {
        for &(server, count) in assignment {
            self.set_free(server, self.free[server] + count);
            if shares_nic {
                self.set_comm(server, self.comm[server] - count);
            }
        }
    }

    fn set_free(&mut self, server: usize, idle: usize) {
        let per_server = self.per_server;
        let is_partial = |idle: usize| usize::from(idle > 0 && idle < per_server);
        self.partial = self.partial + is_partial(idle) - is_partial(self.free[server]);
        self.by_free.shift(server, self.free[server], idle);
        self.free[server] = idle;
    }

    fn set_comm(&mut self, server: usize, sharers: usize) {
        self.by_comm.shift(server, self.comm[server], sharers);
        self.comm[server] = sharers;
        self.moved[server / 64] |= 1 << (server % 64);
    }

    /// Writes `assignment`'s servers into `server_set` as a bitset.
    pub(crate) fn mark(&self, assignment: &[(usize, usize)], server_set: &mut Vec<u64>) {
        server_set.clear();
        server_set.resize(self.by_comm.words, 0);
        for &(server, _) in assignment {
            server_set[server / 64] |= 1 << (server % 64);
        }
    }

    /// The worst sharer count among the servers in `server_set`, at
    /// least 1: the highest sharer level that meets the set.
    fn oversub(&self, server_set: &[u64]) -> usize {
        (2..=self.per_server)
            .rev()
            .find(|&sharers| meets(self.by_comm.level(sharers), server_set))
            .unwrap_or(1)
    }

    /// True when a server in `server_set` moved its sharer count since
    /// the last [`Servers::settle`].
    fn moved_in(&self, server_set: &[u64]) -> bool {
        meets(&self.moved, server_set)
    }

    /// Forgets which sharer counts moved.
    fn settle(&mut self) {
        self.moved.fill(0);
    }

    /// A cluster of `free.len()` servers of `per_server` GPUs, server
    /// `s` with `free[s]` of them idle.
    #[cfg(test)]
    pub(crate) fn with_free(free: &[usize], per_server: usize) -> Servers {
        let mut servers = Servers::new(free.len(), per_server);
        for (server, &idle) in free.iter().enumerate() {
            servers.set_free(server, idle);
        }
        servers
    }
}

/// The worst sharer count among `assignment`'s servers, at least 1,
/// by walking the assignment: the reference [`Servers::oversub`] is
/// tested against.
#[cfg(test)]
fn oversub_by_walk(assignment: &[(usize, usize)], comm: &[usize]) -> usize {
    assignment
        .iter()
        .map(|&(server, _)| comm[server])
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Per-job bookkeeping that survives crash requeues.
struct JobState {
    executed: f64,
    next_crash: usize,
    crashes: usize,
    first_start: Option<f64>,
    finish: f64,
    /// Full-duration estimate captured at arrival (NaN under FIFO) —
    /// the "predicted" half of the calibration pair.
    predicted: f64,
}

/// Event candidate classes, in same-instant processing order.
const CLASS_BOUNDARY: u8 = 0;
const CLASS_REQUEUE: u8 = 1;
const CLASS_ARRIVAL: u8 = 2;

/// One queued gang.
#[derive(Clone, Copy)]
struct QueueEntry {
    job: usize,
    /// Monotone enqueue sequence — the FIFO order and every ordering
    /// tie-break.
    qseq: u64,
    /// When the entry was (re)queued — the starvation-aging clock.
    queued_at: f64,
    /// Estimated remaining service at enqueue time (0 under FIFO).
    key: f64,
}

impl QueueEntry {
    /// False once the entry has been served: its job's [`ReadyQueue`]
    /// slot then holds [`NOT_QUEUED`] or a later entry's `qseq`.
    fn is_live(&self, slot: &[u64]) -> bool {
        slot[self.job] == self.qseq
    }
}

/// Key order for the ready queue's max-heap: the greatest entry is the
/// smallest `(key, qseq)` under `total_cmp`, i.e. the next one served
/// in key order.
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then(other.qseq.cmp(&self.qseq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for QueueEntry {}

/// A job's [`ReadyQueue`] slot while it has no queued entry.
const NOT_QUEUED: u64 = u64::MAX;

/// The queued gangs, indexed so that selecting the head costs O(1)
/// under FIFO and O(log n) amortized under a key ordering.
///
/// `qseq` and `queued_at` are stamped together from the engine's
/// non-decreasing clock, so the entries old enough to be escalated
/// always form a `qseq` prefix: the head is the oldest live entry when
/// that one is escalated (or the ordering is FIFO), and otherwise the
/// smallest `(key, qseq)` — which the heap holds at its top. A served
/// entry stays in both structures until it surfaces at the front or
/// the top, where it is dropped, judged stale because its job's slot
/// no longer holds its `qseq`.
struct ReadyQueue {
    /// Every entry in `qseq` order.
    fifo: VecDeque<QueueEntry>,
    /// The same entries in key order; `None` under FIFO.
    by_key: Option<BinaryHeap<QueueEntry>>,
    /// Per job: the `qseq` of its queued entry, or [`NOT_QUEUED`].
    slot: Vec<u64>,
    next_qseq: u64,
    /// Queue age at which an entry escalates to FIFO service.
    age: f64,
}

impl ReadyQueue {
    fn new(jobs: usize, ordered: bool, age: f64) -> Self {
        ReadyQueue {
            fifo: VecDeque::new(),
            by_key: ordered.then(BinaryHeap::new),
            slot: vec![NOT_QUEUED; jobs],
            next_qseq: 0,
            age,
        }
    }

    /// Queues `job` at `now` with ordering key `key`; the job must not
    /// already be queued.
    fn push(&mut self, job: usize, now: f64, key: f64) {
        let entry = QueueEntry {
            job,
            qseq: self.next_qseq,
            queued_at: now,
            key,
        };
        self.next_qseq += 1;
        self.slot[job] = entry.qseq;
        if let Some(heap) = &mut self.by_key {
            heap.push(entry);
        }
        self.fifo.push_back(entry);
    }

    /// The job to serve next at `now`, if any is queued — the same pick
    /// as the reference scan `select_head`.
    fn head(&mut self, now: f64) -> Option<usize> {
        let slot = &self.slot;
        while self.fifo.front().is_some_and(|e| !e.is_live(slot)) {
            self.fifo.pop_front();
        }
        let oldest = self.fifo.front()?;
        let Some(heap) = &mut self.by_key else {
            return Some(oldest.job);
        };
        if now - oldest.queued_at >= self.age {
            return Some(oldest.job);
        }
        while heap.peek().is_some_and(|e| !e.is_live(slot)) {
            heap.pop();
        }
        heap.peek().map(|e| e.job)
    }

    /// Dequeues `job`, the current [`ReadyQueue::head`].
    fn serve(&mut self, job: usize) {
        self.slot[job] = NOT_QUEUED;
    }
}

/// The live remaining-service estimator behind a [`QueueOrder`].
enum Estimator {
    /// FIFO: no estimates, no calibration.
    Inactive,
    /// True remaining solo service demand (SJF oracle, and QSSF's
    /// oracle feed — same arithmetic, so their event logs match
    /// byte-for-byte).
    Oracle,
    /// Adversarially inverted truth.
    Inverted,
    /// The online feature-hashed history store.
    History(Box<HistoryStore>),
}

impl Estimator {
    fn active(&self) -> bool {
        !matches!(self, Estimator::Inactive)
    }

    /// Estimated remaining service of a queued job that has already
    /// executed `executed` of its `steps` (solo per-step time
    /// `solo`). Pure; called at enqueue time only, so a prediction
    /// reflects exactly the history of jobs retired before this
    /// enqueue.
    fn remaining_key(&self, job: &SchedJob, executed: f64, solo: f64) -> f64 {
        let remaining = (job.steps as f64 - executed).max(0.0);
        match self {
            Estimator::Inactive => 0.0,
            Estimator::Oracle => remaining * solo,
            Estimator::Inverted => 1.0 / (remaining * solo).max(f64::MIN_POSITIVE),
            Estimator::History(store) => {
                store.predict(&job.signature).duration_s * (remaining / job.steps.max(1) as f64)
            }
        }
    }
}

/// The queue entry to serve next: index 0 under FIFO, otherwise the
/// minimum of `(unescalated?, key, qseq)` with entries older than
/// `age` escalated to FIFO service among themselves — the starvation
/// bound. A linear scan, kept as the reference [`ReadyQueue`] is
/// tested against.
#[cfg(test)]
fn select_head(queue: &VecDeque<QueueEntry>, ordered: bool, now: f64, age: f64) -> Option<usize> {
    if queue.is_empty() {
        return None;
    }
    if !ordered {
        return Some(0);
    }
    let mut best = 0usize;
    for i in 1..queue.len() {
        let (cand, incumbent) = (&queue[i], &queue[best]);
        let cand_escalated = now - cand.queued_at >= age;
        let best_escalated = now - incumbent.queued_at >= age;
        let better = match (cand_escalated, best_escalated) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => cand.qseq < incumbent.qseq,
            (false, false) => match cand.key.total_cmp(&incumbent.key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => cand.qseq < incumbent.qseq,
            },
        };
        if better {
            best = i;
        }
    }
    Some(best)
}

/// Runs the stream to completion under one placement policy with
/// strict FIFO queue ordering — the original engine contract,
/// byte-identical to [`run_ordered`] with [`QueueOrder::Fifo`].
///
/// # Errors
///
/// Same contract as [`run_ordered`].
pub fn run(
    cluster: &ClusterSpec,
    jobs: &[SchedJob],
    policy: &dyn Policy,
    config: &SchedConfig,
) -> Result<SchedOutcome, SchedError> {
    run_ordered(cluster, jobs, policy, &QueueOrder::Fifo, config)
}

/// Runs one built-in [`PolicyKind`] end to end — placement *and*
/// queue ordering. The QSSF history hash is seeded by `seed`, and its
/// cold-start priors come from the stream's per-class mean realized
/// service demand ([`class_priors_from_jobs`]); no other kind reads
/// priors, so none other pays for them.
///
/// # Errors
///
/// Same contract as [`run_ordered`].
pub fn run_kind(
    cluster: &ClusterSpec,
    jobs: &[SchedJob],
    kind: PolicyKind,
    seed: u64,
    config: &SchedConfig,
) -> Result<SchedOutcome, SchedError> {
    let priors = match kind {
        PolicyKind::Qssf => class_priors_from_jobs(jobs, cluster),
        _ => [1.0; NUM_CLASSES],
    };
    let order = order_for_kind(kind, seed, priors);
    run_ordered(cluster, jobs, kind.policy(), &order, config)
}

/// Runs the stream to completion under one placement policy and one
/// queue ordering.
///
/// Deterministic: the outcome is a pure function of
/// `(cluster, jobs, policy, order, config)` — including the QSSF
/// path, whose history store is trained online in retirement order
/// (itself deterministic) and consulted only at enqueue instants.
///
/// # Errors
///
/// Rejects an empty stream, zero-replica jobs, duplicate ids, and
/// jobs wider than the cluster ([`SchedError::JobTooLarge`] — a gang
/// that can never be admitted would wedge the FIFO queue forever).
/// A custom policy returning a malformed assignment yields
/// [`SchedError::InvalidAssignment`]; one that refuses a feasible job
/// on an otherwise idle cluster yields [`SchedError::Stalled`]. An
/// invalid ordering configuration yields [`SchedError::Predict`] or
/// [`SchedError::InvalidArrival`] before any event runs.
pub fn run_ordered(
    cluster: &ClusterSpec,
    jobs: &[SchedJob],
    policy: &dyn Policy,
    order: &QueueOrder,
    config: &SchedConfig,
) -> Result<SchedOutcome, SchedError> {
    order.validate()?;
    if jobs.is_empty() {
        return Err(SchedError::NoJobs);
    }
    let capacity = cluster.total_gpus();
    let num_servers = cluster.num_servers();
    let per_server = cluster.server().gpus_per_server();
    let mut ids: Vec<usize> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.cnodes == 0 {
            return Err(SchedError::EmptyJob { id: job.id });
        }
        if job.cnodes > capacity {
            return Err(SchedError::JobTooLarge {
                id: job.id,
                requested: job.cnodes,
                capacity,
            });
        }
        ids.push(job.id);
    }
    ids.sort_unstable();
    for pair in ids.windows(2) {
        if pair[0] == pair[1] {
            return Err(SchedError::DuplicateJobId { id: pair[0] });
        }
    }

    // The ordering's live estimator. Oracle-fed QSSF and the SJF
    // oracle share Estimator::Oracle, so their event logs are
    // byte-identical by construction (a test pins this).
    let (mut est, starvation_age, ordered) = match order {
        QueueOrder::Fifo => (Estimator::Inactive, f64::INFINITY, false),
        QueueOrder::Qssf(qssf) => {
            let estimator = match &qssf.predictor {
                PredictorSource::History(hc) => {
                    Estimator::History(Box::new(HistoryStore::new(hc.clone())?))
                }
                PredictorSource::Oracle => Estimator::Oracle,
                PredictorSource::InvertedOracle => Estimator::Inverted,
            };
            (estimator, qssf.starvation_age_s, true)
        }
        QueueOrder::SjfOracle => (Estimator::Oracle, QSSF_STARVATION_AGE_S, true),
    };
    let mut calib = CalibrationAccum::new();

    // Per-job Ethernet transfer time of one step's weight volume.
    let eth_time: Vec<f64> = jobs
        .iter()
        .map(|j| cluster.ethernet().transfer_time(j.weight_bytes).as_f64())
        .collect();
    // Per-job uncontended step time — the oracle's ground truth and
    // the calibration target's per-step unit.
    let solo: Vec<f64> = jobs.iter().map(|j| j.solo_step(cluster).as_f64()).collect();
    // Arrival order: by time, ties by stream position.
    let mut arrival_order: Vec<usize> = (0..jobs.len()).collect();
    arrival_order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .as_f64()
            .total_cmp(&jobs[b].arrival.as_f64())
            .then(a.cmp(&b))
    });

    let mut state: Vec<JobState> = jobs
        .iter()
        .map(|_| JobState {
            executed: 0.0,
            next_crash: 0,
            crashes: 0,
            first_start: None,
            finish: 0.0,
            predicted: f64::NAN,
        })
        .collect();
    let mut servers = Servers::new(num_servers, per_server);
    let mut running: Vec<Running> = Vec::new();
    // The policy's output buffer, and ended gangs' assignment and
    // server-set buffers for later starts to reuse.
    let mut placement: Vec<(usize, usize)> = Vec::new();
    let mut spare: Vec<GangBuffers> = Vec::new();
    let mut queue = ReadyQueue::new(jobs.len(), ordered, starvation_age);
    let mut waiting: Vec<(f64, usize)> = Vec::new();
    let mut events: Vec<EventRecord> = Vec::new();
    let mut seq = 0usize;
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut completed = 0usize;
    let mut busy_gpus = 0usize;
    let mut busy_integral = 0.0f64;
    let mut frag_integral = 0.0f64;

    let record = |events: &mut Vec<EventRecord>, seq: &mut usize, time, kind, job| {
        if config.log_events {
            events.push(EventRecord {
                seq: *seq,
                time_s: time,
                kind,
                job,
            });
        }
        *seq += 1;
    };

    while completed < jobs.len() {
        // Next event: min over (time, class, job id).
        let mut best: Option<(f64, u8, usize, usize)> = None;
        // A job appears in at most one candidate class at a time, so
        // the (time, class, job) key is strict and the minimum unique.
        let consider = |cand: (f64, u8, usize, usize),
                        best: &mut Option<(f64, u8, usize, usize)>| {
            let better = match best {
                None => true,
                Some(b) => (cand.0, cand.1, cand.2) < (b.0, b.1, b.2),
            };
            if better {
                *best = Some(cand);
            }
        };
        for (slot, r) in running.iter().enumerate() {
            let remaining = (r.boundary - r.executed).max(0.0);
            let at = if r.step_time > 0.0 {
                now + remaining * r.step_time
            } else {
                now
            };
            consider((at, CLASS_BOUNDARY, r.job, slot), &mut best);
        }
        for (slot, &(ready, job)) in waiting.iter().enumerate() {
            consider((ready, CLASS_REQUEUE, job, slot), &mut best);
        }
        if next_arrival < arrival_order.len() {
            let job = arrival_order[next_arrival];
            consider(
                (jobs[job].arrival.as_f64(), CLASS_ARRIVAL, job, 0),
                &mut best,
            );
        }
        let (time, class, job, slot) = match best {
            Some(b) => b,
            // Nothing can happen but jobs remain: the policy wedged
            // the queue head on an idle cluster.
            None => {
                return Err(SchedError::Stalled {
                    policy: policy.name(),
                    job: queue.head(now).map_or(0, |head| jobs[head].id),
                });
            }
        };

        // Advance the fluid state to the event instant.
        let elapsed = (time - now).max(0.0);
        if elapsed > 0.0 {
            busy_integral += busy_gpus as f64 * elapsed;
            frag_integral += servers.partial as f64 * elapsed;
            for r in &mut running {
                r.executed = if r.step_time > 0.0 {
                    (r.executed + elapsed / r.step_time).min(r.boundary)
                } else {
                    r.boundary
                };
            }
        }
        now = time;
        // Set when an Ethernet-riding gang starts or stops, i.e. when a
        // NIC sharer counter moves.
        let mut comm_changed = false;

        match class {
            CLASS_BOUNDARY => {
                let r = running.swap_remove(slot);
                servers.release(&r.assignment, r.shares_nic);
                comm_changed |= r.shares_nic;
                spare.push((r.assignment, r.server_set));
                busy_gpus -= jobs[r.job].cnodes;
                let s = &mut state[r.job];
                s.executed = r.boundary;
                if r.boundary_is_crash {
                    let crash = jobs[r.job].crashes[s.next_crash];
                    s.next_crash += 1;
                    s.crashes += 1;
                    s.executed = (s.executed - crash.lost_steps as f64).max(0.0);
                    let delay = crash.restart.as_f64()
                        + config
                            .requeue_backoff
                            .delay((s.crashes - 1) as u32)
                            .as_f64();
                    waiting.push((now + delay, r.job));
                    record(&mut events, &mut seq, now, EventKind::Crash, r.job);
                } else {
                    s.finish = now;
                    completed += 1;
                    if est.active() {
                        // The realized solo service demand — the
                        // prediction target, known exactly at finish.
                        let actual = jobs[r.job].steps as f64 * solo[r.job];
                        let class = jobs[r.job].signature.class_index();
                        calib.record(class, s.predicted, actual);
                        if let Estimator::History(store) = &mut est {
                            if actual.is_finite() && actual > 0.0 {
                                store.observe(&jobs[r.job].signature, actual)?;
                            }
                        }
                    }
                    record(&mut events, &mut seq, now, EventKind::Finish, r.job);
                }
            }
            CLASS_REQUEUE => {
                waiting.remove(slot);
                // Re-predict with the store as grown by every job
                // retired before this requeue.
                let key = est.remaining_key(&jobs[job], state[job].executed, solo[job]);
                queue.push(job, now, key);
                record(&mut events, &mut seq, now, EventKind::Requeue, job);
            }
            _ => {
                next_arrival += 1;
                let key = est.remaining_key(&jobs[job], 0.0, solo[job]);
                if est.active() {
                    state[job].predicted = key;
                }
                queue.push(job, now, key);
                record(&mut events, &mut seq, now, EventKind::Arrive, job);
            }
        }

        // Replay the ordering's head against the policy until it
        // blocks — head-of-line, no backfill behind a blocked head.
        // Fewer free GPUs than the gang is wide admit no valid
        // assignment, so the policy is not asked.
        while let Some(head) = queue.head(now) {
            let j = &jobs[head];
            if capacity - busy_gpus < j.cnodes {
                break;
            }
            placement.clear();
            if !policy.place(j.cnodes, j.sync, &servers.free_gpus(), &mut placement) {
                break;
            }
            if !servers.valid(&placement, j.cnodes) {
                return Err(SchedError::InvalidAssignment {
                    policy: policy.name(),
                    job: j.id,
                });
            }
            queue.serve(head);
            let (mut assignment, mut server_set) = spare.pop().unwrap_or_default();
            std::mem::swap(&mut assignment, &mut placement);
            let shares_nic = servers.claim(&assignment, j.sync, j.weight_bytes);
            servers.mark(&assignment, &mut server_set);
            comm_changed |= shares_nic;
            busy_gpus += j.cnodes;
            let s = &mut state[head];
            if s.first_start.is_none() {
                s.first_start = Some(now);
            }
            // The crash index only moves forward: each crash point
            // fires at most once, so a rollback below a fired point
            // cannot re-trigger it.
            let (boundary, boundary_is_crash) = match j.crashes.get(s.next_crash) {
                Some(crash) if (crash.at_step as f64) < j.steps as f64 => {
                    ((crash.at_step as f64).max(s.executed), true)
                }
                _ => (j.steps as f64, false),
            };
            // A non-sharer's price is final; a sharer's is refreshed by
            // the reprice below once every gang of this event has landed.
            let step_time = price(
                j.compute_time,
                j.sync,
                j.local_sync_time,
                &assignment,
                &server_set,
                eth_time[head],
                &servers,
            );
            running.push(Running {
                job: head,
                assignment,
                server_set,
                shares_nic,
                executed: s.executed,
                step_time,
                boundary,
                boundary_is_crash,
            });
            record(&mut events, &mut seq, now, EventKind::Start, head);
        }

        // Only a sharer with a server whose count moved can price
        // differently now.
        if comm_changed {
            for r in running
                .iter_mut()
                .filter(|r| r.shares_nic && servers.moved_in(&r.server_set))
            {
                let j = &jobs[r.job];
                r.step_time = price(
                    j.compute_time,
                    j.sync,
                    j.local_sync_time,
                    &r.assignment,
                    &r.server_set,
                    eth_time[r.job],
                    &servers,
                );
            }
            servers.settle();
        }
    }

    let makespan = now;
    let mut job_metrics = Vec::with_capacity(jobs.len());
    let mut jcts = Vec::with_capacity(jobs.len());
    let mut queue_sum = 0.0f64;
    let mut slowdown_sum = 0.0f64;
    let mut crash_total = 0usize;
    for (i, job) in jobs.iter().enumerate() {
        let s = &state[i];
        let arrival = job.arrival.as_f64();
        let first_start = s.first_start.unwrap_or(s.finish);
        let jct = s.finish - arrival;
        let solo_demand = job.steps as f64 * solo[i];
        let slowdown = (jct / solo_demand.max(BOUNDED_SLOWDOWN_TAU_S)).max(1.0);
        queue_sum += first_start - arrival;
        slowdown_sum += slowdown;
        crash_total += s.crashes;
        jcts.push(jct);
        job_metrics.push(JobMetrics {
            id: job.id,
            cnodes: job.cnodes,
            steps: job.steps,
            arrival_s: arrival,
            first_start_s: first_start,
            finish_s: s.finish,
            queueing_delay_s: first_start - arrival,
            jct_s: jct,
            slowdown,
            crashes: s.crashes,
        });
    }
    jcts.sort_by(f64::total_cmp);
    let n = jobs.len() as f64;
    let cluster_metrics = ClusterMetrics {
        jobs: jobs.len(),
        crashes: crash_total,
        makespan_s: makespan,
        gpu_utilization: if makespan > 0.0 {
            busy_integral / (capacity as f64 * makespan)
        } else {
            0.0
        },
        fragmentation: if makespan > 0.0 {
            frag_integral / (num_servers as f64 * makespan)
        } else {
            0.0
        },
        mean_queueing_delay_s: queue_sum / n,
        mean_jct_s: jcts.iter().sum::<f64>() / n,
        p50_jct_s: percentile(&jcts, 0.50),
        p95_jct_s: percentile(&jcts, 0.95),
        p99_jct_s: percentile(&jcts, 0.99),
        mean_slowdown: slowdown_sum / n,
    };
    Ok(SchedOutcome {
        policy: order.label().unwrap_or(policy.name()).to_string(),
        jobs: job_metrics,
        cluster: cluster_metrics,
        prediction: if est.active() { calib.report() } else { None },
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CrashPoint;
    use crate::policy::{FifoFirstFit, LocalityAware, PolicyKind, Spread};
    use crate::stream::{realize_stream, templates_from_population, ArrivalConfig, JobTemplate};
    use pai_core::{Architecture, PerfModel, WorkloadFeatures};
    use pai_predict::Signature;
    use pai_trace::{FailureSampler, JobRecord, Population, PopulationConfig};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cluster() -> ClusterSpec {
        ClusterSpec::testbed(0.7)
    }

    fn job(id: usize, arrival_s: f64, steps: usize, cnodes: usize, sync: SyncClass) -> SchedJob {
        let class = match sync {
            SyncClass::Silent => Architecture::OneWorkerOneGpu,
            SyncClass::Local => Architecture::AllReduceLocal,
            SyncClass::Ethernet => Architecture::PsWorker,
        };
        SchedJob {
            id,
            arrival: Seconds::from_f64(arrival_s),
            steps,
            cnodes,
            compute_time: Seconds::from_millis(100.0),
            weight_bytes: Bytes::from_mb(50.0),
            sync,
            local_sync_time: Seconds::from_millis(10.0),
            signature: Signature {
                class,
                cnodes,
                weight_bytes: Bytes::from_mb(50.0).as_f64(),
                flops: 1.0e12,
                batch: 32,
            },
            crashes: Vec::new(),
        }
    }

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    #[test]
    fn lone_job_runs_solo_without_queueing() {
        let c = cluster();
        let j = job(0, 3.0, 20, 8, SyncClass::Silent);
        let out = run(&c, std::slice::from_ref(&j), &FifoFirstFit, &cfg()).expect("runs");
        let m = out.jobs[0];
        assert_eq!(m.queueing_delay_s, 0.0);
        let solo = 20.0 * j.solo_step(&c).as_f64();
        assert!((m.jct_s - solo).abs() < 1e-9, "{} vs {}", m.jct_s, solo);
        assert!((m.slowdown - 1.0).abs() < 1e-9);
        assert_eq!(m.crashes, 0);
        assert!((out.cluster.makespan_s - (3.0 + solo)).abs() < 1e-9);
        // 8 of 512 GPUs busy for the whole post-arrival window; the
        // pre-arrival 3 s dilute the utilization integral.
        let expected_util = (8.0 * solo) / (512.0 * (3.0 + solo));
        assert!((out.cluster.gpu_utilization - expected_util).abs() < 1e-9);
    }

    #[test]
    fn lone_ethernet_gang_self_contends_packed_but_not_spread() {
        // An 8-replica Ethernet gang packed onto one server shares its
        // own NIC 8 ways (the pai-sim model's oversubscription);
        // spread one-per-server it achieves the solo step time.
        let c = cluster();
        let j = job(0, 0.0, 20, 8, SyncClass::Ethernet);
        let packed = run(&c, std::slice::from_ref(&j), &FifoFirstFit, &cfg()).expect("runs");
        let spread = run(&c, std::slice::from_ref(&j), &Spread, &cfg()).expect("runs");
        let solo = 20.0 * j.solo_step(&c).as_f64();
        assert!((spread.jobs[0].jct_s - solo).abs() < 1e-9);
        let contended = 20.0
            * (j.compute_time.as_f64() + 8.0 * c.ethernet().transfer_time(j.weight_bytes).as_f64());
        assert!((packed.jobs[0].jct_s - contended).abs() < 1e-9);
    }

    /// `job` as a mix template for [`crate::place_mix`].
    fn template(job: &SchedJob) -> JobTemplate {
        let features = WorkloadFeatures::builder(job.signature.class)
            .cnodes(job.cnodes)
            .weight_bytes(job.weight_bytes)
            .build();
        JobTemplate {
            record: JobRecord {
                id: job.id,
                features,
            },
            cnodes: job.cnodes,
            compute_time: job.compute_time,
            weight_bytes: job.weight_bytes,
            sync: job.sync,
            local_sync_time: job.local_sync_time,
            signature: job.signature,
        }
    }

    #[test]
    fn contended_step_times_match_the_placement_model() {
        // Two 4-replica Ethernet jobs first-fit onto one server: the
        // engine's incremental sharer counters must price exactly what
        // the one-shot placement of the same mix prices.
        let c = cluster();
        let a = job(0, 0.0, 40, 4, SyncClass::Ethernet);
        let b = job(1, 0.0, 40, 4, SyncClass::Ethernet);
        let out = run(&c, &[a.clone(), b.clone()], &FifoFirstFit, &cfg()).expect("runs");
        let snapshot =
            crate::place_mix(&c, &[template(&a), template(&b)], &FifoFirstFit).expect("fits");
        assert_eq!(snapshot[0].assignment, vec![(0, 4)]);
        assert_eq!(snapshot[1].assignment, vec![(0, 4)]);
        let contended = snapshot[0].step_time_s;
        // Both jobs run contended until both finish simultaneously.
        assert!((out.jobs[0].jct_s - 40.0 * contended).abs() < 1e-9);
        assert!((out.jobs[1].jct_s - 40.0 * contended).abs() < 1e-9);
        // 40 contended steps clear the bounded-slowdown floor.
        assert!(out.jobs[0].slowdown > 1.0);
    }

    #[test]
    fn contended_step_times_match_across_a_bitset_word_boundary() {
        // 72 servers take two bitset words. A 135-replica spread gang
        // lands two replicas on servers 0–62 and one on 63–71, so a
        // 2-replica spread gang then takes servers 63 and 64, one on
        // each side of the boundary. Every NIC the two share carries
        // two sharers, and so does each of the wide gang's first 63
        // servers.
        let testbed = cluster();
        let c = ClusterSpec::new(*testbed.server(), 72, testbed.ethernet());
        let wide = job(0, 0.0, 40, 135, SyncClass::Ethernet);
        let narrow = job(1, 0.0, 40, 2, SyncClass::Ethernet);
        let jobs = [wide.clone(), narrow.clone()];
        let out = run(&c, &jobs, &Spread, &cfg()).expect("runs");
        let snapshot =
            crate::place_mix(&c, &[template(&wide), template(&narrow)], &Spread).expect("fits");
        let expected: Vec<(usize, usize)> =
            (0..72).map(|s| (s, if s < 63 { 2 } else { 1 })).collect();
        assert_eq!(snapshot[0].assignment, expected);
        assert_eq!(snapshot[1].assignment, vec![(63, 1), (64, 1)]);
        for (j, placed) in jobs.iter().zip(&snapshot) {
            let contended =
                j.compute_time.as_f64() + c.ethernet().transfer_time(j.weight_bytes).as_f64() * 2.0;
            assert_eq!(placed.step_time_s.to_bits(), contended.to_bits());
        }
        // Both gangs run contended until both finish together, at the
        // step time the one-shot placement prices.
        for (m, placed) in out.jobs.iter().zip(&snapshot) {
            assert!((m.jct_s - 40.0 * placed.step_time_s).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_volume_gangs_dilate_no_server_mate() {
        // Two 4-replica Ethernet gangs share server 0, one with no
        // weights: max-min gives a zero-demand flow no share, so the
        // other runs exactly as it would alone there (its NIC shared
        // only by its own replicas) and the silent one pays only its
        // off-NIC time.
        let c = cluster();
        let mut empty = job(0, 0.0, 40, 4, SyncClass::Ethernet);
        empty.weight_bytes = Bytes::ZERO;
        let chatty = job(1, 0.0, 40, 4, SyncClass::Ethernet);
        let alone = run(&c, std::slice::from_ref(&chatty), &FifoFirstFit, &cfg()).expect("runs");
        let out = run(&c, &[empty.clone(), chatty.clone()], &FifoFirstFit, &cfg()).expect("runs");
        let own_replicas = 40.0
            * (chatty.compute_time.as_f64()
                + 4.0 * c.ethernet().transfer_time(chatty.weight_bytes).as_f64());
        assert_eq!(out.jobs[1].jct_s.to_bits(), alone.jobs[0].jct_s.to_bits());
        assert!((out.jobs[1].jct_s - own_replicas).abs() < 1e-9);
        assert!((out.jobs[0].jct_s - 40.0 * empty.compute_time.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn departures_relieve_contention() {
        // A short and a long Ethernet job share a NIC; once the short
        // one departs, the long one's remaining steps speed up, so its
        // JCT lands strictly between fully-contended and solo.
        let c = cluster();
        let short = job(0, 0.0, 5, 4, SyncClass::Ethernet);
        let long = job(1, 0.0, 50, 4, SyncClass::Ethernet);
        let out = run(&c, &[short, long.clone()], &FifoFirstFit, &cfg()).expect("runs");
        let solo = 50.0 * long.solo_step(&c).as_f64();
        let m = out.jobs[1];
        assert!(m.jct_s > solo, "never faster than solo");
        assert!(
            m.jct_s
                < 50.0
                    * (long.compute_time.as_f64()
                        + 8.0 * c.ethernet().transfer_time(long.weight_bytes).as_f64()),
            "contention must relax after the short job departs"
        );
    }

    #[test]
    fn full_cluster_queues_the_next_gang() {
        let c = cluster();
        let wall = job(0, 0.0, 200, 512, SyncClass::Silent);
        let late = job(1, 1.0, 10, 8, SyncClass::Silent);
        let out = run(&c, &[wall.clone(), late], &FifoFirstFit, &cfg()).expect("runs");
        let wall_finish = 200.0 * wall.compute_time.as_f64();
        let m = out.jobs[1];
        assert!((m.first_start_s - wall_finish).abs() < 1e-9);
        assert!((m.queueing_delay_s - (wall_finish - 1.0)).abs() < 1e-9);
        assert!(m.slowdown > 1.0, "queueing counts toward slowdown");
    }

    #[test]
    fn crashes_requeue_with_restart_and_backoff() {
        let c = cluster();
        let mut j = job(0, 0.0, 10, 8, SyncClass::Silent);
        j.crashes = vec![CrashPoint {
            at_step: 5,
            restart: Seconds::from_f64(10.0),
            lost_steps: 3,
        }];
        let config = cfg();
        let out = run(&c, &[j.clone()], &FifoFirstFit, &config).expect("runs");
        let step = j.compute_time.as_f64();
        let backoff = config.requeue_backoff.delay(0).as_f64();
        // 5 steps, crash, 10 s restart + backoff, rerun from step 2.
        let expected = 5.0 * step + 10.0 + backoff + 8.0 * step;
        let m = out.jobs[0];
        assert_eq!(m.crashes, 1);
        assert!(
            (m.jct_s - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.jct_s
        );
        assert_eq!(out.cluster.crashes, 1);
        let kinds: Vec<EventKind> = out.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrive,
                EventKind::Start,
                EventKind::Crash,
                EventKind::Requeue,
                EventKind::Start,
                EventKind::Finish
            ]
        );
    }

    #[test]
    fn repeated_crash_points_each_fire_once() {
        // Losing more steps than the gap between crash points must not
        // loop: each point fires once and the index only moves
        // forward.
        let c = cluster();
        let mut j = job(0, 0.0, 10, 8, SyncClass::Silent);
        j.crashes = vec![
            CrashPoint {
                at_step: 2,
                restart: Seconds::from_f64(1.0),
                lost_steps: 2,
            },
            CrashPoint {
                at_step: 2,
                restart: Seconds::from_f64(1.0),
                lost_steps: 2,
            },
        ];
        let out = run(&c, &[j], &FifoFirstFit, &cfg()).expect("terminates");
        assert_eq!(out.jobs[0].crashes, 2);
        assert!(out.jobs[0].jct_s > 0.0);
    }

    #[test]
    fn locality_policy_contains_local_gangs_and_wins() {
        // A 4-wide silent job occupies half of server 0; an 8-wide
        // AllReduce-Local gang then either splits onto Ethernet
        // (first-fit) or lands whole on server 1 (locality-aware).
        let c = cluster();
        let filler = job(0, 0.0, 400, 4, SyncClass::Silent);
        let mut arl = job(1, 0.1, 50, 8, SyncClass::Local);
        arl.weight_bytes = Bytes::from_mb(200.0);
        let jobs = [filler, arl.clone()];
        let ff = run(&c, &jobs, &FifoFirstFit, &cfg()).expect("runs");
        let loc = run(&c, &jobs, &LocalityAware, &cfg()).expect("runs");
        let contained = 50.0 * (arl.compute_time + arl.local_sync_time).as_f64();
        assert!((loc.jobs[1].jct_s - contained).abs() < 1e-9);
        assert!(
            ff.jobs[1].jct_s > loc.jobs[1].jct_s * 2.0,
            "split gang pays Ethernet: {} vs {}",
            ff.jobs[1].jct_s,
            loc.jobs[1].jct_s
        );
    }

    #[test]
    fn spread_relieves_nic_sharing_for_ethernet_gangs() {
        let c = cluster();
        let a = job(0, 0.0, 20, 4, SyncClass::Ethernet);
        let b = job(1, 0.0, 20, 4, SyncClass::Ethernet);
        let jobs = [a, b];
        let packed = run(&c, &jobs, &FifoFirstFit, &cfg()).expect("runs");
        let spread = run(&c, &jobs, &Spread, &cfg()).expect("runs");
        // One replica per server: no sharing at all.
        assert!((spread.jobs[0].slowdown - 1.0).abs() < 1e-9);
        assert!(packed.jobs[0].jct_s > spread.jobs[0].jct_s);
        // The price: spread strands partial servers.
        assert!(spread.cluster.fragmentation > packed.cluster.fragmentation);
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let c = cluster();
        assert_eq!(
            run(&c, &[], &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::NoJobs
        );
        let zero = job(0, 0.0, 10, 0, SyncClass::Silent);
        assert_eq!(
            run(&c, &[zero], &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::EmptyJob { id: 0 }
        );
        let wide = job(0, 0.0, 10, 513, SyncClass::Silent);
        assert_eq!(
            run(&c, &[wide], &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::JobTooLarge {
                id: 0,
                requested: 513,
                capacity: 512
            }
        );
        let twins = [
            job(3, 0.0, 10, 4, SyncClass::Silent),
            job(3, 1.0, 10, 4, SyncClass::Silent),
        ];
        assert_eq!(
            run(&c, &twins, &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::DuplicateJobId { id: 3 }
        );
    }

    struct RefuseAll;
    impl Policy for RefuseAll {
        fn name(&self) -> &'static str {
            "refuse-all"
        }
        fn place(
            &self,
            _: usize,
            _: SyncClass,
            _: &FreeGpus<'_>,
            _: &mut Vec<(usize, usize)>,
        ) -> bool {
            false
        }
    }

    struct Overcommit;
    impl Policy for Overcommit {
        fn name(&self) -> &'static str {
            "overcommit"
        }
        fn place(
            &self,
            cnodes: usize,
            _: SyncClass,
            _: &FreeGpus<'_>,
            out: &mut Vec<(usize, usize)>,
        ) -> bool {
            out.extend([(0, cnodes), (0, cnodes)]);
            true
        }
    }

    #[test]
    fn misbehaving_policies_are_typed_errors_not_hangs() {
        let c = cluster();
        let jobs = [job(0, 0.0, 10, 4, SyncClass::Silent)];
        assert_eq!(
            run(&c, &jobs, &RefuseAll, &cfg()).unwrap_err(),
            SchedError::Stalled {
                policy: "refuse-all",
                job: 0
            }
        );
        assert_eq!(
            run(&c, &jobs, &Overcommit, &cfg()).unwrap_err(),
            SchedError::InvalidAssignment {
                policy: "overcommit",
                job: 0
            }
        );
        // The errors name the job by its id, not its stream position.
        let renumbered = [job(7, 0.0, 10, 4, SyncClass::Silent)];
        assert_eq!(
            run(&c, &renumbered, &RefuseAll, &cfg()).unwrap_err(),
            SchedError::Stalled {
                policy: "refuse-all",
                job: 7
            }
        );
        assert_eq!(
            run(&c, &renumbered, &Overcommit, &cfg()).unwrap_err(),
            SchedError::InvalidAssignment {
                policy: "overcommit",
                job: 7
            }
        );
    }

    /// First-fit that counts its calls, and the calls made while the
    /// cluster's free GPUs could not hold the gang.
    #[derive(Default)]
    struct CountingFirstFit {
        calls: AtomicUsize,
        short: AtomicUsize,
    }

    impl Policy for CountingFirstFit {
        fn name(&self) -> &'static str {
            FifoFirstFit.name()
        }
        fn place(
            &self,
            cnodes: usize,
            sync: SyncClass,
            free: &FreeGpus<'_>,
            out: &mut Vec<(usize, usize)>,
        ) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if free.per_server().iter().sum::<usize>() < cnodes {
                self.short.fetch_add(1, Ordering::Relaxed);
            }
            FifoFirstFit.place(cnodes, sync, free, out)
        }
    }

    #[test]
    fn place_is_asked_only_when_free_gpus_can_hold_the_gang() {
        let c = cluster();
        // The bit-pin stream: about 1,650 of its ~3,700 head
        // selections under first-fit find fewer free GPUs than the
        // gang is wide.
        let seed = 1_905_930;
        let population = Population::generate(
            &PopulationConfig::paper_scale(2_000).expect("valid scale"),
            seed,
        )
        .expect("valid config");
        let (templates, _) =
            templates_from_population(&PerfModel::paper_default(), &population, 64);
        let arrival = ArrivalConfig::for_offered_load(
            &templates,
            &c,
            0.6,
            ArrivalConfig::default().steps_range,
        )
        .expect("non-empty templates");
        let jobs = realize_stream(
            &templates,
            &arrival,
            &FailureSampler::paper_calibrated(),
            seed,
        )
        .expect("valid stream");
        for order in [QueueOrder::Fifo, QueueOrder::SjfOracle] {
            let counting = CountingFirstFit::default();
            let wrapped = run_ordered(&c, &jobs, &counting, &order, &cfg()).expect("runs");
            let plain = run_ordered(&c, &jobs, &FifoFirstFit, &order, &cfg()).expect("runs");
            assert!(
                plain.cluster.mean_queueing_delay_s > 0.0,
                "the stream must queue"
            );
            assert_eq!(counting.short.load(Ordering::Relaxed), 0);
            // First-fit refuses only a capacity-short gang, so every
            // call it gets places one.
            let starts = plain
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Start)
                .count();
            assert_eq!(counting.calls.load(Ordering::Relaxed), starts);
            assert_eq!(wrapped, plain, "the gate must not change the schedule");
        }
    }

    #[test]
    fn event_log_is_ordered_and_gated_by_config() {
        let c = cluster();
        let jobs = [
            job(0, 0.0, 10, 8, SyncClass::Ethernet),
            job(1, 0.5, 10, 8, SyncClass::Local),
            job(2, 1.0, 10, 8, SyncClass::Silent),
        ];
        let out = run(&c, &jobs, &FifoFirstFit, &cfg()).expect("runs");
        assert!(!out.events.is_empty());
        for pair in out.events.windows(2) {
            assert!(pair[1].seq == pair[0].seq + 1);
            assert!(pair[1].time_s >= pair[0].time_s);
        }
        assert_eq!(
            out.events
                .iter()
                .filter(|e| e.kind == EventKind::Finish)
                .count(),
            3
        );
        let quiet = SchedConfig {
            log_events: false,
            ..cfg()
        };
        let silent_out = run(&c, &jobs, &FifoFirstFit, &quiet).expect("runs");
        assert!(silent_out.events.is_empty());
        assert_eq!(
            silent_out.cluster, out.cluster,
            "the log is observation only"
        );
    }

    #[test]
    fn metrics_stay_in_their_ranges_under_every_policy() {
        let c = cluster();
        let mut jobs = Vec::new();
        for i in 0..40 {
            let sync = match i % 3 {
                0 => SyncClass::Silent,
                1 => SyncClass::Local,
                _ => SyncClass::Ethernet,
            };
            jobs.push(job(i, i as f64 * 0.3, 10 + i, 1 + (i * 7) % 16, sync));
        }
        for kind in PolicyKind::ALL {
            let out = run_kind(&c, &jobs, kind, 7, &cfg()).expect("runs");
            assert_eq!(out.policy, kind.name());
            let predictive = matches!(kind, PolicyKind::Qssf | PolicyKind::SjfOracle);
            assert_eq!(out.prediction.is_some(), predictive, "{}", kind.name());
            let m = out.cluster;
            assert_eq!(m.jobs, 40);
            assert!(m.gpu_utilization > 0.0 && m.gpu_utilization <= 1.0);
            assert!((0.0..=1.0).contains(&m.fragmentation));
            assert!(m.makespan_s > 0.0);
            assert!(m.p50_jct_s <= m.p95_jct_s && m.p95_jct_s <= m.p99_jct_s);
            assert!(m.mean_slowdown >= 1.0 - 1e-9);
            assert!(m.mean_queueing_delay_s >= 0.0);
            for jm in &out.jobs {
                assert!(jm.finish_s >= jm.first_start_s);
                assert!(jm.first_start_s >= jm.arrival_s);
                assert!(jm.slowdown >= 1.0 - 1e-9);
            }
        }
    }

    /// Jobs a ready-queue workout draws from.
    const QUEUE_JOBS: usize = 24;
    /// The workout's starvation age.
    const STARVE: f64 = 100.0;

    /// One step of a ready-queue workout.
    #[derive(Debug, Clone)]
    enum QueueOp {
        /// Queue the `n`-th (mod the count) job not queued now.
        Push(usize, f64),
        /// Serve the current head.
        Serve,
        /// Advance the clock.
        Advance(f64),
    }

    fn queue_op() -> impl Strategy<Value = QueueOp> {
        // Tied keys, both zeros, the infinities and NaN stress the
        // total_cmp order; clock steps of exactly half the age land
        // entries on the escalation boundary.
        let key = || {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::NAN),
                (0u8..3).prop_map(f64::from),
                -100.0..100.0f64,
            ]
        };
        let push = || (0..QUEUE_JOBS, key()).prop_map(|(n, k)| QueueOp::Push(n, k));
        prop_oneof![
            push(),
            push(),
            Just(QueueOp::Serve),
            prop_oneof![Just(0.0), Just(STARVE / 2.0), 0.0..STARVE].prop_map(QueueOp::Advance),
        ]
    }

    proptest! {
        /// The index serves exactly the entry the linear scan picks,
        /// at every step of a random push / serve / clock workout,
        /// under FIFO and key order alike.
        #[test]
        fn ready_queue_index_matches_the_linear_scan(
            ordered in any::<bool>(),
            ops in proptest::collection::vec(queue_op(), 1..300),
        ) {
            let mut index = ReadyQueue::new(QUEUE_JOBS, ordered, STARVE);
            let mut scan: VecDeque<QueueEntry> = VecDeque::new();
            let mut qseq = 0u64;
            let mut now = 0.0f64;
            for op in ops {
                match op {
                    QueueOp::Push(n, key) => {
                        let idle: Vec<usize> = (0..QUEUE_JOBS)
                            .filter(|&j| scan.iter().all(|e| e.job != j))
                            .collect();
                        if !idle.is_empty() {
                            let job = idle[n % idle.len()];
                            index.push(job, now, key);
                            scan.push_back(QueueEntry { job, qseq, queued_at: now, key });
                            qseq += 1;
                        }
                    }
                    QueueOp::Serve => {
                        if let Some(i) = select_head(&scan, ordered, now, STARVE) {
                            index.serve(scan[i].job);
                            scan.remove(i);
                        }
                    }
                    QueueOp::Advance(dt) => now += dt,
                }
                let expected = select_head(&scan, ordered, now, STARVE).map(|i| scan[i].job);
                prop_assert_eq!(index.head(now), expected);
            }
        }
    }

    /// Servers in the level-index workout (two bitset words).
    const INDEX_SERVERS: usize = 100;
    /// GPUs per server in the workout.
    const INDEX_GPUS: usize = 8;

    /// One step of a level-index workout: claim the `(server, count)`
    /// picks clamped to the free GPUs, with a sync class and a weight
    /// volume, or release the `n`-th (mod the count) live gang.
    #[derive(Debug, Clone)]
    enum IndexOp {
        Claim(Vec<(usize, usize)>, u8, bool),
        Release(usize),
    }

    fn index_op() -> impl Strategy<Value = IndexOp> {
        let picks = proptest::collection::vec((0..INDEX_SERVERS, 1..=INDEX_GPUS), 1..12);
        prop_oneof![
            (picks, 0u8..3, any::<bool>()).prop_map(|(p, sync, w)| IndexOp::Claim(p, sync, w)),
            (0usize..64).prop_map(IndexOp::Release),
        ]
    }

    /// Both level indices against a recount of their counters.
    fn check_indices(servers: &Servers) -> Result<(), TestCaseError> {
        for (levels, counts, name) in [
            (&servers.by_free, &servers.free, "free"),
            (&servers.by_comm, &servers.comm, "comm"),
        ] {
            for count in 0..=INDEX_GPUS {
                let set = levels.level(count);
                for (s, &at) in counts.iter().enumerate() {
                    let bit = set[s / 64] >> (s % 64) & 1 == 1;
                    prop_assert_eq!(bit, at == count, "{} index: server {} at {}", name, s, at);
                }
                // No bit past the last server.
                let listed: u32 = set.iter().map(|w| w.count_ones()).sum();
                let held = counts.iter().filter(|&&at| at == count).count();
                prop_assert_eq!(listed as usize, held);
            }
        }
        let partial = servers
            .free
            .iter()
            .filter(|&&idle| idle > 0 && idle < INDEX_GPUS)
            .count();
        prop_assert_eq!(servers.partial, partial);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random claims and releases on a 100-server cluster: after
        /// every step the free and sharer indices partition the servers
        /// exactly by their counters, the partial count matches a
        /// recount, and the index's worst sharer count for every live
        /// gang and for the step's picks equals the assignment walk.
        #[test]
        fn level_indices_track_the_counters(
            ops in proptest::collection::vec(index_op(), 1..200),
        ) {
            let mut servers = Servers::new(INDEX_SERVERS, INDEX_GPUS);
            let mut live: Vec<(Vec<(usize, usize)>, bool)> = Vec::new();
            let mut server_set = Vec::new();
            for op in ops {
                let mut probe = Vec::new();
                match op {
                    IndexOp::Claim(picks, sync, weighted) => {
                        let mut assignment: Vec<(usize, usize)> = Vec::new();
                        for (server, count) in picks {
                            let count = count.min(servers.free[server]);
                            if count > 0 && assignment.iter().all(|&(s, _)| s != server) {
                                assignment.push((server, count));
                            }
                            probe.push((server, 1));
                        }
                        if !assignment.is_empty() {
                            let cnodes = assignment.iter().map(|&(_, c)| c).sum();
                            prop_assert!(servers.valid(&assignment, cnodes));
                            let sync = [SyncClass::Silent, SyncClass::Local, SyncClass::Ethernet]
                                [usize::from(sync)];
                            let weight = if weighted { Bytes::from_mb(1.0) } else { Bytes::ZERO };
                            let shares_nic = servers.claim(&assignment, sync, weight);
                            live.push((assignment, shares_nic));
                        }
                    }
                    IndexOp::Release(n) => {
                        if !live.is_empty() {
                            let (assignment, shares_nic) = live.swap_remove(n % live.len());
                            servers.release(&assignment, shares_nic);
                        }
                    }
                }
                check_indices(&servers)?;
                probe.sort_unstable();
                probe.dedup();
                for assignment in live.iter().map(|(a, _)| a).chain([&probe]) {
                    servers.mark(assignment, &mut server_set);
                    prop_assert_eq!(
                        servers.oversub(&server_set),
                        oversub_by_walk(assignment, &servers.comm)
                    );
                }
            }
        }
    }
}
