//! Priority + per-client weighted fair-share job scheduling.
//!
//! The service used to drain one FIFO: a client flooding 500 bulk jobs
//! put every later submission — including a human waiting on one
//! interactive layout — behind all of them. This module replaces the
//! FIFO with a two-level discipline:
//!
//! 1. **Strict priority bands** ([`Priority`]): a queued interactive
//!    job always pops before any normal job, which always pops before
//!    any bulk job. Bands are strict rather than weighted because the
//!    bands encode *latency intent*, not importance — a bulk client is
//!    by definition indifferent to queueing delay.
//! 2. **Deficit round-robin across clients within a band**: each client
//!    key owns a FIFO of its jobs and a deficit counter. A pop visits
//!    clients in round-robin order; a client may dequeue a job when its
//!    accumulated deficit covers the job's **cost**. Costs scale with
//!    graph size ([`job_cost`]: one unit per 100k path steps, capped),
//!    so a client queueing chromosome-scale graphs releases work
//!    proportionally less often than a neighbor queueing small ones —
//!    fairness is measured in expected compute, not job count. One
//!    client's 50-deep backlog of small graphs still interleaves 1:1
//!    with a neighbor's.
//!
//! A third, orthogonal axis — **per-graph in-flight quotas** — guards
//! the worker pool itself: when a quota is configured, at most that
//! many popped-but-unreleased jobs may target the same graph hash at
//! once. One hot pangenome (a viral launch of a single chromosome)
//! can then no longer occupy every worker; pops skip quota-blocked
//! jobs (leaving per-client FIFO order intact) and the caller calls
//! [`FairScheduler::release`] when a job reaches a terminal state,
//! unblocking the next job for that graph. The same mechanism serves
//! the cluster coordinator, where "in-flight" means "forwarded to a
//! worker shard" — fairness across clients *and* shards.
//!
//! The scheduler is a passive data structure guarded by the service's
//! queue mutex; it never blocks and performs no I/O. Within one client's
//! queue, FIFO order is preserved — fairness reorders *between* clients,
//! never within one.

use crate::spec::Priority;
use pangraph::store::ContentHash;
use std::collections::{HashMap, VecDeque};

/// Per-graph quota key: the graph's content hash.
pub type GraphKey = ContentHash;

/// Fair-share key: one queue per distinct client string per band.
pub type ClientKey = String;

/// Quantum added to a client's deficit each time the round-robin visits
/// it and its head job does not yet fit.
const QUANTUM: u64 = 1;

/// Path steps per unit of DRR cost: roughly the work of one small test
/// graph's full schedule. Layout cost is linear in total path steps
/// (paper Fig. 15), so steps are the right size proxy.
const STEPS_PER_COST_UNIT: u64 = 100_000;

/// Ceiling on a single job's cost, bounding both how long one huge graph
/// can suppress a client's turn and the rotations a `pop` may spin
/// (`cost / QUANTUM` visits worst case).
const MAX_JOB_COST: u64 = 64;

/// DRR cost of a job laying out a graph with `total_steps` path steps:
/// `1 + steps/100k`, capped at `MAX_JOB_COST`. Every job costs at
/// least one unit, so zero-step degenerate graphs still drain.
pub fn job_cost(total_steps: u64) -> u64 {
    (1 + total_steps / STEPS_PER_COST_UNIT).min(MAX_JOB_COST)
}

#[derive(Default)]
struct ClientQueue {
    /// `(job id, DRR cost)`, FIFO.
    jobs: VecDeque<(u64, u64)>,
    deficit: u64,
}

/// One priority band: per-client FIFOs visited in round-robin order.
#[derive(Default)]
struct Band {
    clients: HashMap<ClientKey, ClientQueue>,
    /// Active clients (those with queued jobs), in visiting order.
    rr: VecDeque<ClientKey>,
    len: usize,
}

impl Band {
    fn push(&mut self, client: &str, id: u64, cost: u64) {
        let q = self.clients.entry(client.to_string()).or_default();
        if q.jobs.is_empty() {
            // (Re-)activating: join the rotation at the back, with no
            // carried-over deficit — an idle client must not bank turns.
            q.deficit = 0;
            self.rr.push_back(client.to_string());
        }
        q.jobs.push_back((id, cost.clamp(1, MAX_JOB_COST)));
        self.len += 1;
    }

    /// DRR pop restricted to jobs `allowed` admits (quota gating).
    /// Blocked clients are rotated past *without* accruing deficit —
    /// a quota-parked client must not bank turns — and per-client FIFO
    /// order is preserved: only the head job is ever considered.
    fn pop_where(&mut self, allowed: &mut dyn FnMut(u64) -> bool) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // Termination: rotations where an *allowed* head gains QUANTUM
        // are bounded (≤ MAX_JOB_COST per client before its cost is
        // covered), and `blocked_streak` catches the all-blocked case —
        // a full silent pass over the rotation means nothing here can
        // run until a release.
        let mut blocked_streak = 0;
        loop {
            if blocked_streak >= self.rr.len() {
                return None;
            }
            let client = self.rr.front()?.clone();
            let q = self
                .clients
                .get_mut(&client)
                .expect("rr entries always have a queue");
            let &(id, cost) = q.jobs.front().expect("active clients have jobs");
            if !allowed(id) {
                blocked_streak += 1;
                self.rr.rotate_left(1);
                continue;
            }
            blocked_streak = 0;
            if q.deficit >= cost {
                q.deficit -= cost;
                q.jobs.pop_front();
                self.len -= 1;
                if q.jobs.is_empty() {
                    self.clients.remove(&client);
                    self.rr.pop_front();
                }
                return Some(id);
            }
            q.deficit += QUANTUM;
            self.rr.rotate_left(1);
        }
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some(client) = self
            .clients
            .iter()
            .find(|(_, q)| q.jobs.iter().any(|&(j, _)| j == id))
            .map(|(c, _)| c.clone())
        else {
            return false;
        };
        let q = self.clients.get_mut(&client).unwrap();
        q.jobs.retain(|&(j, _)| j != id);
        self.len -= 1;
        if q.jobs.is_empty() {
            self.clients.remove(&client);
            self.rr.retain(|c| *c != client);
        }
        true
    }
}

/// The service's job queue: strict [`Priority`] bands, deficit
/// round-robin across client keys within each band, and an optional
/// per-graph in-flight quota across the whole queue.
#[derive(Default)]
pub struct FairScheduler {
    bands: [Band; Priority::ALL.len()],
    /// Max popped-but-unreleased jobs per graph hash (0 ⇒ unlimited).
    graph_quota: usize,
    /// Graph key of each *queued* job pushed via
    /// [`FairScheduler::push_keyed`].
    graph_of: HashMap<u64, GraphKey>,
    /// Graph key of each popped-but-unreleased job.
    running_graph: HashMap<u64, GraphKey>,
    /// In-flight job count per graph key.
    inflight: HashMap<GraphKey, usize>,
}

impl FairScheduler {
    /// An empty scheduler with no per-graph quota.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty scheduler capping any single graph hash to `quota`
    /// in-flight (popped, not yet released) jobs. 0 disables the cap.
    pub fn with_graph_quota(quota: usize) -> Self {
        Self {
            graph_quota: quota,
            ..Self::default()
        }
    }

    /// Enqueue a job under `(priority, client)` with a DRR cost
    /// (see [`job_cost`]; clamped to `1..=MAX_JOB_COST`). Jobs pushed
    /// without a graph key are never quota-gated.
    pub fn push(&mut self, priority: Priority, client: &str, id: u64, cost: u64) {
        self.bands[priority.band()].push(client, id, cost);
    }

    /// [`FairScheduler::push`], additionally keying the job by its
    /// graph hash for per-graph quota enforcement.
    pub fn push_keyed(
        &mut self,
        priority: Priority,
        client: &str,
        id: u64,
        cost: u64,
        graph: GraphKey,
    ) {
        if self.graph_quota > 0 {
            self.graph_of.insert(id, graph);
        }
        self.push(priority, client, id, cost);
    }

    /// Dequeue the next job: the highest non-empty band, fairest client
    /// first, skipping jobs whose graph hash is at its in-flight quota.
    /// `None` when empty *or* when everything queued is quota-blocked —
    /// callers park on their condvar either way, and a
    /// [`FairScheduler::release`] re-notifies.
    pub fn pop(&mut self) -> Option<u64> {
        let quota = self.graph_quota;
        let graph_of = &self.graph_of;
        let inflight = &self.inflight;
        let mut allowed = |id: u64| {
            quota == 0
                || graph_of
                    .get(&id)
                    .is_none_or(|g| inflight.get(g).copied().unwrap_or(0) < quota)
        };
        let id = self
            .bands
            .iter_mut()
            .find_map(|b| b.pop_where(&mut allowed))?;
        if let Some(g) = self.graph_of.remove(&id) {
            *self.inflight.entry(g).or_insert(0) += 1;
            self.running_graph.insert(id, g);
        }
        Some(id)
    }

    /// A previously popped job reached a terminal state: free its slot
    /// in the per-graph quota. Returns whether a slot was actually
    /// released (callers re-notify waiting workers only then).
    /// Idempotent; a no-op for jobs without a graph key.
    pub fn release(&mut self, id: u64) -> bool {
        let Some(g) = self.running_graph.remove(&id) else {
            return false;
        };
        match self.inflight.get_mut(&g) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.inflight.remove(&g);
            }
        }
        true
    }

    /// Remove a queued job wherever it is (cancellation). Returns
    /// whether it was found.
    pub fn remove(&mut self, id: u64) -> bool {
        let found = self.bands.iter_mut().any(|b| b.remove(id));
        if found {
            self.graph_of.remove(&id);
        }
        found
    }

    /// Is `id` currently queued (pushed, not yet popped or removed)?
    /// The coordinator's journal replay uses this as a dedupe guard so
    /// a job can never be enqueued twice.
    pub fn contains(&self, id: u64) -> bool {
        self.bands.iter().any(|b| {
            b.clients
                .values()
                .any(|q| q.jobs.iter().any(|&(j, _)| j == id))
        })
    }

    /// Total queued jobs.
    pub fn len(&self) -> usize {
        self.bands.iter().map(|b| b.len).sum()
    }

    /// No queued jobs?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued jobs in one priority band (`/stats`).
    pub fn band_len(&self, priority: Priority) -> usize {
        self.bands[priority.band()].len
    }

    /// Distinct clients with queued jobs across all bands (`/stats`).
    pub fn active_clients(&self) -> usize {
        let mut names: Vec<&str> = self
            .bands
            .iter()
            .flat_map(|b| b.rr.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut FairScheduler) -> Vec<u64> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn empty_scheduler_pops_nothing() {
        let mut s = FairScheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        assert!(!s.remove(7));
    }

    #[test]
    fn single_client_is_fifo() {
        let mut s = FairScheduler::new();
        for id in 1..=4 {
            s.push(Priority::Normal, "a", id, 1);
        }
        assert_eq!(drain(&mut s), vec![1, 2, 3, 4]);
    }

    #[test]
    fn higher_bands_always_pop_first() {
        let mut s = FairScheduler::new();
        s.push(Priority::Bulk, "a", 1, 1);
        s.push(Priority::Normal, "a", 2, 1);
        s.push(Priority::Interactive, "b", 3, 1);
        s.push(Priority::Bulk, "a", 4, 1);
        s.push(Priority::Interactive, "a", 5, 1);
        assert_eq!(drain(&mut s), vec![3, 5, 2, 1, 4]);
    }

    #[test]
    fn clients_within_a_band_interleave_one_for_one() {
        let mut s = FairScheduler::new();
        // Client a floods first; b and c arrive later with fewer jobs.
        for id in 10..16 {
            s.push(Priority::Bulk, "a", id, 1);
        }
        for id in 20..22 {
            s.push(Priority::Bulk, "b", id, 1);
        }
        s.push(Priority::Bulk, "c", 30, 1);
        // Round-robin: one job per client per round, FIFO within each;
        // drained clients drop out of the rotation.
        assert_eq!(
            drain(&mut s),
            vec![10, 20, 30, 11, 21, 12, 13, 14, 15],
            "a's flood interleaves instead of starving b and c"
        );
    }

    #[test]
    fn in_any_prefix_no_client_leads_by_more_than_one() {
        let mut s = FairScheduler::new();
        // ids encode the client: 100s = a, 200s = b, 300s = c.
        for i in 0..8 {
            s.push(Priority::Normal, "a", 100 + i, 1);
        }
        for i in 0..8 {
            s.push(Priority::Normal, "b", 200 + i, 1);
        }
        for i in 0..8 {
            s.push(Priority::Normal, "c", 300 + i, 1);
        }
        let order = drain(&mut s);
        let mut counts = [0i64; 3];
        for id in order {
            counts[(id / 100 - 1) as usize] += 1;
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(
                max - min <= 1,
                "fair share violated: counts {counts:?} after popping {id}"
            );
        }
    }

    #[test]
    fn a_client_arriving_late_is_served_promptly() {
        let mut s = FairScheduler::new();
        for id in 0..50 {
            s.push(Priority::Normal, "flood", id, 1);
        }
        // Two pops go to the flooder…
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
        // …then a newcomer's first job is next within one round.
        s.push(Priority::Normal, "late", 999, 1);
        let next_two = [s.pop().unwrap(), s.pop().unwrap()];
        assert!(
            next_two.contains(&999),
            "late client served within one round, got {next_two:?}"
        );
    }

    #[test]
    fn contains_tracks_queued_jobs_only() {
        let mut s = FairScheduler::new();
        s.push(Priority::Normal, "a", 1, 1);
        s.push(Priority::Bulk, "b", 2, 1);
        assert!(s.contains(1) && s.contains(2));
        assert!(!s.contains(3));
        let popped = s.pop().unwrap();
        assert!(!s.contains(popped), "popped jobs are no longer queued");
        s.remove(2);
        assert!(!s.contains(2), "removed jobs are no longer queued");
    }

    #[test]
    fn remove_unqueues_for_cancellation() {
        let mut s = FairScheduler::new();
        s.push(Priority::Normal, "a", 1, 1);
        s.push(Priority::Normal, "a", 2, 1);
        s.push(Priority::Bulk, "b", 3, 1);
        assert!(s.remove(2));
        assert!(!s.remove(2), "double remove is a no-op");
        assert_eq!(s.len(), 2);
        assert_eq!(drain(&mut s), vec![1, 3]);
        // Removing a client's last job drops it from the rotation.
        s.push(Priority::Normal, "solo", 9, 1);
        assert!(s.remove(9));
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn band_and_client_counters_track_state() {
        let mut s = FairScheduler::new();
        s.push(Priority::Interactive, "a", 1, 1);
        s.push(Priority::Bulk, "a", 2, 1);
        s.push(Priority::Bulk, "b", 3, 1);
        assert_eq!(s.len(), 3);
        assert_eq!(s.band_len(Priority::Interactive), 1);
        assert_eq!(s.band_len(Priority::Normal), 0);
        assert_eq!(s.band_len(Priority::Bulk), 2);
        assert_eq!(s.active_clients(), 2, "a counted once across bands");
        s.pop();
        assert_eq!(s.band_len(Priority::Interactive), 0);
    }

    #[test]
    fn job_cost_scales_with_steps_and_is_capped() {
        assert_eq!(job_cost(0), 1, "degenerate graphs still cost a unit");
        assert_eq!(job_cost(99_999), 1);
        assert_eq!(job_cost(100_000), 2);
        assert_eq!(job_cost(250_000), 3);
        assert_eq!(job_cost(u64::MAX), MAX_JOB_COST, "cap bounds pop spins");
    }

    #[test]
    fn heavy_graphs_release_less_often_than_light_ones() {
        // Client "heavy" queues chromosome-scale jobs (cost 4 each);
        // "light" queues small ones (cost 1). Fair share is measured in
        // cost, so light's whole backlog drains while heavy is still
        // being metered out — one huge graph per client turn can no
        // longer monopolize the band by job count.
        let mut s = FairScheduler::new();
        for id in 100..108 {
            s.push(Priority::Normal, "heavy", id, 4);
        }
        for id in 200..208 {
            s.push(Priority::Normal, "light", id, 1);
        }
        let order = drain(&mut s);
        assert_eq!(order.len(), 16);
        let light_last = order.iter().position(|&id| id == 207).unwrap();
        let heavy_before_light_done = order[..light_last].iter().filter(|&&id| id < 200).count();
        assert!(
            heavy_before_light_done <= 4,
            "heavy served {heavy_before_light_done} cost-4 jobs before light's \
             8 cost-1 jobs finished: {order:?}"
        );
        // Cost-fairness invariant: while both clients are active, served
        // cost never diverges by more than one max-cost job + quantum.
        let mut cost = [0i64; 2]; // [heavy, light]
        for &id in &order[..=light_last] {
            if id < 200 {
                cost[0] += 4;
            } else {
                cost[1] += 1;
            }
            assert!(
                (cost[0] - cost[1]).abs() <= 5,
                "served-cost imbalance {cost:?} in {order:?}"
            );
        }
    }

    #[test]
    fn zero_cost_is_clamped_to_one_unit() {
        let mut s = FairScheduler::new();
        s.push(Priority::Normal, "a", 1, 0);
        s.push(Priority::Normal, "a", 2, u64::MAX);
        assert_eq!(drain(&mut s), vec![1, 2], "clamped costs still drain");
    }

    fn gkey(tag: &str) -> GraphKey {
        pangraph::store::content_hash(tag.as_bytes())
    }

    #[test]
    fn graph_quota_caps_inflight_jobs_per_graph() {
        let mut s = FairScheduler::with_graph_quota(2);
        let hot = gkey("hot");
        for id in 1..=4 {
            s.push_keyed(Priority::Normal, "a", id, 1, hot);
        }
        // Two pops fill the hot graph's quota…
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        // …and the rest of its backlog is parked, not popped.
        assert_eq!(s.pop(), None, "quota-blocked queue pops nothing");
        assert_eq!(s.len(), 2, "blocked jobs stay queued");
        // Releasing one in-flight slot unblocks exactly one more.
        assert!(s.release(1));
        assert!(!s.release(1), "release is idempotent");
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), None);
        s.release(2);
        s.release(3);
        assert_eq!(s.pop(), Some(4));
    }

    #[test]
    fn graph_quota_never_starves_other_graphs() {
        let mut s = FairScheduler::with_graph_quota(1);
        let hot = gkey("hot");
        let cold = gkey("cold");
        // One client floods the hot graph; another queues behind it
        // with a different graph.
        for id in 1..=3 {
            s.push_keyed(Priority::Normal, "flood", id, 1, hot);
        }
        s.push_keyed(Priority::Normal, "other", 10, 1, cold);
        assert_eq!(s.pop(), Some(1), "first hot job takes the quota slot");
        // The hot graph is saturated: the cold graph is served even
        // though the flooder is ahead in the rotation.
        assert_eq!(s.pop(), Some(10), "cold graph skips the blocked flood");
        assert_eq!(s.pop(), None, "hot backlog waits for a release");
        assert!(s.release(1));
        assert_eq!(s.pop(), Some(2));
    }

    #[test]
    fn quota_blocked_clients_do_not_bank_deficit() {
        let mut s = FairScheduler::with_graph_quota(1);
        let hot = gkey("hot");
        s.push_keyed(Priority::Normal, "a", 1, 1, hot);
        assert_eq!(s.pop(), Some(1));
        // While a's next hot job is parked, b pops repeatedly; a must
        // not accumulate turns for the time it spent blocked.
        s.push_keyed(Priority::Normal, "a", 2, 1, hot);
        for id in 20..24 {
            s.push_keyed(Priority::Normal, "b", id, 1, gkey("cold"));
        }
        assert_eq!(s.pop(), Some(20));
        s.release(20);
        assert_eq!(s.pop(), Some(21));
        s.release(21);
        s.release(1); // hot slot frees: a is served next round, once
        let next = [s.pop().unwrap(), s.pop().unwrap()];
        assert!(next.contains(&2), "unblocked job served promptly: {next:?}");
    }

    #[test]
    fn unkeyed_and_cancelled_jobs_bypass_the_quota() {
        let mut s = FairScheduler::with_graph_quota(1);
        let hot = gkey("hot");
        s.push_keyed(Priority::Normal, "a", 1, 1, hot);
        s.push_keyed(Priority::Normal, "a", 2, 1, hot);
        s.push(Priority::Normal, "a", 3, 1); // no graph key
        assert_eq!(s.pop(), Some(1));
        // Cancelling the parked hot job forgets its key entirely.
        assert!(s.remove(2));
        assert_eq!(s.pop(), Some(3), "unkeyed job is never gated");
        assert_eq!(s.pop(), None);
        // Zero quota means unlimited.
        let mut open = FairScheduler::new();
        open.push_keyed(Priority::Normal, "a", 1, 1, hot);
        open.push_keyed(Priority::Normal, "a", 2, 1, hot);
        assert_eq!(open.pop(), Some(1));
        assert_eq!(open.pop(), Some(2), "no quota configured");
    }

    #[test]
    fn idle_clients_do_not_bank_deficit() {
        let mut s = FairScheduler::new();
        s.push(Priority::Normal, "a", 1, 1);
        assert_eq!(s.pop(), Some(1)); // a drains and leaves the rotation
                                      // Re-activation starts from zero deficit: b is not owed turns.
        s.push(Priority::Normal, "a", 2, 1);
        s.push(Priority::Normal, "b", 3, 1);
        let order = drain(&mut s);
        assert_eq!(order.len(), 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3]);
    }
}
