//! The coordinator tier: one process that speaks the existing `/v1`
//! surface and fans jobs out over a fleet of ordinary `pgl serve`
//! workers.
//!
//! ```text
//!   clients ──► coordinator ──► rendezvous ring ──► worker A (pgl serve --join)
//!      /v1         │   │            (ContentHash)    worker B (pgl serve --join)
//!                  │   └── graph vault: raw GFA, pushed to a worker
//!                  │       on its first by-reference miss
//!                  └────── FairScheduler: priority bands + per-client
//!                          DRR + per-graph in-flight quotas, fleet-wide
//! ```
//!
//! Design decisions, in one place:
//!
//! * **One front end.** The coordinator's routes are a
//!   `crate::http::Router` served by the same HTTP server as a
//!   worker's, so parsing, the handler pool, shedding, metrics and the
//!   `/v1` checks are shared. It differs only in closing every
//!   connection after its answer (see `KEEP_ALIVE`).
//! * **The typed [`JobSpec`] is the wire format.** Forwarding a job is
//!   `POST /v1/jobs?{spec.to_query()}` — the exact surface a human
//!   client uses, so workers need zero cluster-specific code paths for
//!   execution. Inline-GFA submissions are interned into the
//!   coordinator's vault and converted to by-reference specs, so the
//!   graph body crosses the wire at most once per worker.
//! * **Routing is rendezvous hashing on the graph's `ContentHash`**
//!   ([`super::ring::HashRing`]): every job for a graph lands on the
//!   worker whose parsed-graph and layout caches already hold it, and
//!   membership changes remap only ~1/N of graphs.
//! * **Workers own execution, the coordinator owns placement.** A
//!   worker that misses a referenced graph answers `404`; the
//!   coordinator pushes the vaulted GFA (`POST /v1/graphs`) and
//!   resubmits. Both hash the same bytes, so the ids agree by
//!   construction.
//! * **Death is drain-and-requeue, at-least-once.** Workers heartbeat;
//!   after three missed intervals (`DEAD_AFTER`) or a connection
//!   error, a worker is marked dead and its forwarded jobs
//!   are pushed back into the queue, routing to the next worker in the
//!   ring's preference order. A job that was mid-run on a partitioned
//!   worker may therefore execute twice — layouts are deterministic
//!   per spec, so duplicated work is wasted, not wrong. A job is
//!   failed only after five forwards (`MAX_ATTEMPTS`).
//! * **Proxies rewrite only the job id.** Status, trace, result, and
//!   event-stream bytes come from the owning worker with the remote id
//!   swapped for the coordinator's. A proxied event stream tracks the
//!   worker's per-line `seq` through a `StreamCursor`: re-attaching
//!   to the *same* run after a transient drop resumes with
//!   `?from=<last_seq+1>` (a dedupe guard drops anything the worker
//!   replays anyway), while a job requeued onto a *new* worker is a new
//!   run and deliberately replays from sequence 0.
//! * **Accepted work survives restarts when `--journal-dir` is set.**
//!   Submits and graph interns are fsync'd into a write-ahead
//!   [`Journal`] before they are acknowledged; GFA bodies spill to a
//!   `vault/` tier on disk (bounded by
//!   [`CoordinatorConfig::vault_max_bytes`]) instead of living in
//!   memory. At boot the journal replays: queued jobs re-enter the
//!   scheduler, formerly in-flight jobs are resolved adopt-or-requeue
//!   by probing the recorded owner, and the bumped journal epoch is
//!   advertised in heartbeat replies so workers observe the restart.

use super::client::{self, Backoff};
use super::journal::{self, GraphRecord, JobRecordState, Journal};
use super::ring::HashRing;
use crate::cache::GraphMeta;
use crate::http::{
    graph_deleted, graph_listing, graph_uploaded, job_ticket, Endpoint, EventStream, HttpConfig,
    Request, Response, Routed, Router, Server, PROMETHEUS_TEXT,
};
use crate::httpmetrics::HttpMetrics;
use crate::job::{GraphSpec, JobId};
use crate::obs;
use crate::sched::{job_cost, FairScheduler};
use crate::service::{parse_layout_input, FinishedJobs, GraphUpload, SubmitTicket};
use crate::spec::{JobSpec, Priority};
use pangraph::store::{content_hash, evict_dir, ContentHash};
use pgio::{quote, Json};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for a coordinator.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker heartbeat interval, advertised in the join/heartbeat
    /// response so the fleet shares one clock.
    pub heartbeat: Duration,
    /// Fleet-wide cap on concurrently forwarded jobs per graph
    /// (`0` = unlimited): one hot graph cannot monopolize its owning
    /// worker while other graphs' jobs wait.
    pub graph_quota: usize,
    /// Handler threads of the coordinator's HTTP server
    /// ([`HttpConfig::max_conns`]); connections beyond the pool and its
    /// equal-sized queue are shed with 503.
    pub max_conns: usize,
    /// Directory for the write-ahead job journal and the on-disk graph
    /// vault. `None` (the default) keeps all state in memory — exactly
    /// the pre-journal behavior, nothing survives a restart.
    pub journal_dir: Option<PathBuf>,
    /// Byte cap on the on-disk graph vault (`0` = unbounded). Only
    /// meaningful with `journal_dir`; oldest spills are evicted first
    /// and evicted graphs must be re-uploaded before by-reference use.
    pub vault_max_bytes: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            heartbeat: Duration::from_secs(2),
            graph_quota: 0,
            max_conns: 64,
            journal_dir: None,
            vault_max_bytes: 0,
        }
    }
}

/// Missed heartbeat intervals before a worker is declared dead and its
/// in-flight jobs are requeued.
const DEAD_AFTER: u32 = 3;

/// Forward attempts per job before it is failed outright.
const MAX_ATTEMPTS: u32 = 5;

/// Job states a worker reports that end the coordinator's involvement.
const TERMINAL_STATES: [&str; 4] = ["done", "failed", "cancelled", "expired"];

/// How long parked loops (dispatcher idle, monitor tick ceiling, event
/// streams between state checks) wait before re-checking shared state.
/// Stopping wakes them at once (see [`CoordShared::park`]).
const PARK: Duration = Duration::from_millis(250);

/// Idle gap after which a proxied event stream emits its own heartbeat
/// line (only reachable while the job is still queued coordinator-side;
/// once forwarded, the worker's heartbeats flow through instead).
const EVENT_HEARTBEAT: Duration = Duration::from_secs(15);

/// The coordinator answers every request with `Connection: close`, on
/// purpose. The shared server writes a response as head then body with
/// Nagle on, so on a kept-alive connection a small answer waits out the
/// peer's delayed ACK (≈44 ms on loopback). Keep-alive here was
/// measured to nearly double fleet set-up time (perfbench `fleet`,
/// `setup_s` median 0.28 → 0.53 s on a 2-vCPU host) and to raise
/// `job_p90_ms` from 261 to 308 ms.
const KEEP_ALIVE: Duration = Duration::ZERO;

struct WorkerEntry {
    last_beat: Instant,
    alive: bool,
}

/// A graph interned at the coordinator: the raw GFA (what gets pushed
/// to workers) plus the parse-derived counts that validate uploads and
/// price jobs for the scheduler. With a journal the GFA body lives in
/// the on-disk vault instead (`gfa: None`) and is reloaded on demand,
/// so coordinator memory stays bounded and the vault survives restart.
struct GraphEntry {
    gfa: Option<Arc<String>>,
    nodes: usize,
    paths: usize,
    steps: usize,
    bytes: u64,
}

#[derive(Clone)]
enum CoordJobState {
    /// Waiting in the coordinator's scheduler.
    Queued,
    /// Accepted by `worker` under its local id `remote`.
    Forwarded { worker: String, remote: JobId },
    /// Finished in `state`. `body` is the final status JSON (already
    /// rewritten to the coordinator's id); `worker`/`remote` are kept
    /// when a worker ran the job, so `/result` and `/trace` can still
    /// proxy.
    Terminal {
        worker: Option<String>,
        remote: Option<JobId>,
        state: String,
        body: String,
    },
}

struct CoordJob {
    spec: JobSpec,
    graph: ContentHash,
    client: String,
    priority: Priority,
    cost: u64,
    attempts: u32,
    cancel_requested: bool,
    submitted: Instant,
    state: CoordJobState,
}

#[derive(Default)]
struct CoordCounters {
    submitted: AtomicU64,
    forwarded: AtomicU64,
    requeues: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    joins: AtomicU64,
    deaths: AtomicU64,
    graph_pushes: AtomicU64,
    vault_spills: AtomicU64,
    vault_evictions: AtomicU64,
    /// Non-terminal jobs replayed from the journal at boot.
    recovered: AtomicU64,
}

struct CoordShared {
    cfg: CoordinatorConfig,
    started: Instant,
    /// Shared with the HTTP server: one flag stops serving, dispatch and
    /// monitoring. Set only by [`CoordShared::halt`].
    stop: Arc<AtomicBool>,
    /// Where the coordinator's own threads wait out their timed pauses
    /// ([`CoordShared::park`]); `halt` notifies it.
    park: Mutex<()>,
    park_cv: Condvar,
    /// The upstream worker socket of every event stream being relayed,
    /// keyed by a relay serial, so `halt` can sever blocked reads.
    relays: Mutex<HashMap<u64, TcpStream>>,
    next_relay: AtomicU64,
    /// The HTTP server's request metrics, rendered in `/v1/metrics`.
    http: Arc<HttpMetrics>,
    workers: Mutex<HashMap<String, WorkerEntry>>,
    vault: Mutex<HashMap<ContentHash, GraphEntry>>,
    queue: Mutex<FairScheduler>,
    queue_cv: Condvar,
    jobs: Mutex<HashMap<JobId, CoordJob>>,
    jobs_cv: Condvar,
    /// Drives eviction from `jobs` (and the journal) beyond
    /// `MAX_FINISHED_JOBS`.
    finished: Mutex<FinishedJobs>,
    next_id: AtomicU64,
    counters: CoordCounters,
    /// The write-ahead journal; `None` runs the pre-journal in-memory
    /// mode. Locked after (never while holding) `vault`/`jobs`; `retire`
    /// locks it inside `finished`.
    journal: Option<Mutex<Journal>>,
    /// `<journal-dir>/vault`, where GFA bodies spill.
    vault_dir: Option<PathBuf>,
    /// Journal epoch for this incarnation (0 with no journal); constant
    /// after boot and advertised in heartbeat replies.
    epoch: u64,
    /// Jobs found in the journal at boot (terminal ones included).
    replayed: u64,
}

/// A bound-but-not-yet-serving coordinator.
pub struct Coordinator {
    server: Server,
    shared: Arc<CoordShared>,
}

impl Coordinator {
    /// Bind to `addr` (port 0 for ephemeral). With
    /// [`CoordinatorConfig::journal_dir`] set, this opens (or creates)
    /// the write-ahead journal, replays any state a prior incarnation
    /// logged, and re-enters recovered queued jobs into the scheduler —
    /// formerly in-flight jobs are resolved by the monitor once serving
    /// starts (adopt if the recorded owner still runs them, requeue
    /// otherwise).
    pub fn bind(addr: &str, cfg: CoordinatorConfig) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let http = HttpConfig {
            max_conns: cfg.max_conns,
            keep_alive: KEEP_ALIVE,
            ..HttpConfig::default()
        };
        let server = Server::bind(addr, http, Arc::clone(&stop))?;
        let mut queue = FairScheduler::with_graph_quota(cfg.graph_quota);
        let mut vault = HashMap::new();
        let mut jobs = HashMap::new();
        let mut finished = FinishedJobs::default();
        let mut journal_cell = None;
        let mut vault_dir = None;
        let mut epoch = 0u64;
        let mut replayed = 0u64;
        let mut recovered = 0u64;
        let mut next_id = 0u64;
        if let Some(dir) = &cfg.journal_dir {
            let journal = Journal::open(dir)?;
            let vdir = dir.join("vault");
            std::fs::create_dir_all(&vdir)?;
            epoch = journal.epoch();
            replayed = journal.replayed() as u64;
            next_id = journal.max_job_id();
            for g in journal.live_graphs() {
                vault.insert(
                    g.id,
                    GraphEntry {
                        gfa: None,
                        nodes: g.nodes,
                        paths: g.paths,
                        steps: g.steps,
                        bytes: g.bytes,
                    },
                );
            }
            for rec in journal.live_jobs() {
                let spec = match JobSpec::from_query(&rec.query) {
                    Ok(spec) => spec,
                    Err(e) => {
                        obs::warn(
                            "cluster",
                            "skipping unreplayable journaled job",
                            &[("job", rec.id.to_string()), ("error", e.to_string())],
                        );
                        continue;
                    }
                };
                let GraphSpec::Stored(graph) = spec.graph else {
                    continue; // journaled jobs are by-reference by construction
                };
                let client_key = spec.client.clone().unwrap_or_else(|| "recovered".into());
                let priority = spec.priority;
                let cost = vault
                    .get(&graph)
                    .map_or_else(|| job_cost(0), |g: &GraphEntry| job_cost(g.steps as u64));
                let mut job = CoordJob {
                    spec,
                    graph,
                    client: client_key,
                    priority,
                    cost,
                    attempts: 0,
                    cancel_requested: false,
                    submitted: Instant::now(),
                    state: CoordJobState::Queued,
                };
                match &rec.state {
                    JobRecordState::Queued => {
                        queue.push_keyed(priority, &job.client, rec.id, cost, graph);
                        recovered += 1;
                    }
                    JobRecordState::Forwarded { worker, remote } => {
                        recovered += 1;
                        job.state = CoordJobState::Forwarded {
                            worker: worker.clone(),
                            remote: *remote,
                        };
                    }
                    JobRecordState::Terminal {
                        state,
                        worker,
                        remote,
                    } => {
                        job.state = CoordJobState::Terminal {
                            worker: worker.clone(),
                            remote: *remote,
                            state: state.clone(),
                            body: local_status(rec.id, &job, state, 0, ",\"recovered\":true"),
                        };
                        // `live_jobs` lists terminal jobs in retirement
                        // order, capped as this table will be.
                        finished.retire(rec.id);
                    }
                }
                jobs.insert(rec.id, job);
            }
            if replayed > 0 {
                obs::info(
                    "cluster",
                    "journal replayed",
                    &[
                        ("epoch", epoch.to_string()),
                        ("jobs", replayed.to_string()),
                        ("recovered", recovered.to_string()),
                        ("graphs", vault.len().to_string()),
                    ],
                );
            }
            journal_cell = Some(Mutex::new(journal));
            vault_dir = Some(vdir);
        }
        let counters = CoordCounters::default();
        counters.recovered.store(recovered, Ordering::Relaxed);
        let shared = Arc::new(CoordShared {
            queue: Mutex::new(queue),
            cfg,
            started: Instant::now(),
            stop,
            park: Mutex::new(()),
            park_cv: Condvar::new(),
            relays: Mutex::new(HashMap::new()),
            next_relay: AtomicU64::new(0),
            http: server.metrics(),
            workers: Mutex::new(HashMap::new()),
            vault: Mutex::new(vault),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(jobs),
            jobs_cv: Condvar::new(),
            finished: Mutex::new(finished),
            next_id: AtomicU64::new(next_id),
            counters,
            journal: journal_cell,
            vault_dir,
            epoch,
            replayed,
        });
        Ok(Self { server, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Serve until [`CoordinatorHandle::stop`] (or forever): the HTTP
    /// server on this thread, dispatcher + death-sweep/poll monitor on
    /// background threads.
    pub fn serve(self) {
        let Self { server, shared } = self;
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pgl-coord-dispatch".into())
                .spawn(move || dispatcher(&shared))
                .expect("spawn dispatcher")
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pgl-coord-monitor".into())
                .spawn(move || monitor(&shared))
                .expect("spawn monitor")
        };
        server.serve(Arc::clone(&shared) as Arc<dyn Router>);
        shared.halt();
        let _ = dispatcher.join();
        let _ = monitor.join();
    }

    /// Serve on a background thread; the returned handle stops it.
    pub fn spawn(self) -> CoordinatorHandle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("pgl-coord-accept".into())
            .spawn(move || self.serve())
            .expect("spawn coordinator accept loop");
        CoordinatorHandle {
            addr,
            shared,
            handle: Some(handle),
        }
    }
}

/// Controls a background [`Coordinator`].
pub struct CoordinatorHandle {
    addr: SocketAddr,
    shared: Arc<CoordShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// Address the coordinator is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the background threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.halt();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl CoordShared {
    /// Set the stop flag and wake everything that waits on it: parked
    /// loops, condvar waiters, and handlers blocked reading a relayed
    /// worker stream (their upstream sockets are shut down). Idempotent,
    /// and it never panics (a handle's `Drop` calls it), so a poisoned
    /// lock is taken as it is.
    fn halt(&self) {
        // The flag is set before each waiter's lock is taken, so a
        // waiter has either seen it or is already waiting when notified.
        {
            let _park = self.park.lock().unwrap_or_else(PoisonError::into_inner);
            self.stop.store(true, Ordering::Relaxed);
            self.park_cv.notify_all();
        }
        drop(self.queue.lock());
        self.queue_cv.notify_all();
        drop(self.jobs.lock());
        self.jobs_cv.notify_all();
        let relays = self.relays.lock().unwrap_or_else(PoisonError::into_inner);
        for upstream in relays.values() {
            let _ = upstream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Wait `timeout`, or less if the coordinator stops; returns whether
    /// it is stopping. Only stopping ends the wait early, so a periodic
    /// loop keeps its period exactly.
    fn park(&self, timeout: Duration) -> bool {
        let guard = self.park.lock().unwrap();
        let _ = self
            .park_cv
            .wait_timeout_while(guard, timeout, |_| !self.stop.load(Ordering::Relaxed))
            .unwrap();
        self.stop.load(Ordering::Relaxed)
    }
}

// ─── dispatcher: queue → ring owner ─────────────────────────────────

fn dispatcher(shared: &CoordShared) {
    while !shared.stop.load(Ordering::Relaxed) {
        // Don't pop (and start burning attempts) while the fleet is
        // empty: jobs queued during a total outage just wait.
        if !has_alive_worker(shared) {
            shared.park(PARK);
            continue;
        }
        let Some(id) = pop_next(shared) else { continue };
        dispatch_one(shared, id);
    }
}

fn has_alive_worker(shared: &CoordShared) -> bool {
    shared.workers.lock().unwrap().values().any(|w| w.alive)
}

/// Pop the next runnable job, waiting briefly when the queue is empty
/// (or fully quota-blocked). `None` means "nothing yet, re-check".
fn pop_next(shared: &CoordShared) -> Option<JobId> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(id) = queue.pop() {
            return Some(id);
        }
        let (guard, timeout) = shared.queue_cv.wait_timeout(queue, PARK).unwrap();
        queue = guard;
        if timeout.timed_out() {
            return None;
        }
    }
}

/// The ring over currently-alive workers.
fn alive_ring(shared: &CoordShared) -> HashRing {
    HashRing::from_workers(
        shared
            .workers
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, w)| w.alive)
            .map(|(addr, _)| addr.clone()),
    )
}

enum Forward {
    Accepted { remote: JobId },
    Down(String),
    Rejected(String),
}

fn dispatch_one(shared: &CoordShared, id: JobId) {
    // Snapshot under the lock, forward outside it.
    let (query, graph, cancel) = {
        let jobs = shared.jobs.lock().unwrap();
        match jobs.get(&id) {
            Some(job) if matches!(job.state, CoordJobState::Queued) => {
                (job.spec.to_query(), job.graph, job.cancel_requested)
            }
            // Gone or already handled: just free the quota slot.
            _ => {
                release_quota(shared, id);
                return;
            }
        }
    };
    if cancel {
        finish_local(shared, id, "cancelled", Some("cancelled while queued"));
        return;
    }
    let owners: Vec<String> = alive_ring(shared)
        .owners(graph)
        .into_iter()
        .map(str::to_string)
        .collect();
    if owners.is_empty() {
        requeue(shared, id, false, "no alive workers");
        shared.park(PARK);
        return;
    }
    // Rendezvous preference order doubles as the failover order: if the
    // owner is unreachable, the next-ranked worker is exactly where the
    // graph routes once the death sweep catches up.
    for worker in &owners {
        match forward_to(shared, worker, &query, graph) {
            Forward::Accepted { remote } => {
                {
                    let mut jobs = shared.jobs.lock().unwrap();
                    if let Some(job) = jobs.get_mut(&id) {
                        job.state = CoordJobState::Forwarded {
                            worker: worker.clone(),
                            remote,
                        };
                    }
                }
                journal_forwarded(shared, id, worker, remote);
                shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                shared.jobs_cv.notify_all();
                return;
            }
            Forward::Down(err) => mark_dead(shared, worker, &err),
            Forward::Rejected(msg) => {
                finish_local(shared, id, "failed", Some(&msg));
                return;
            }
        }
    }
    requeue(shared, id, true, "every candidate worker unreachable");
}

/// Submit one job to one worker; on a by-reference miss, push the
/// vaulted GFA and retry once. Both sides hash the same bytes, so the
/// pushed graph's id matches the spec's reference by construction.
///
/// Requests go through [`client::request_retry`]: transient faults
/// (refused connections, severed responses, injected 500s) are retried
/// with jittered exponential backoff before the worker is declared
/// down. A duplicate forward caused by a severed 202 is benign — the
/// monitor adopts whichever accepted run it finds, and layouts are
/// deterministic per spec (at-least-once, never lost).
fn forward_to(shared: &CoordShared, worker: &str, query: &str, graph: ContentHash) -> Forward {
    let backoff = Backoff::default();
    let path = format!("/v1/jobs?{query}");
    for pushed in [false, true] {
        let (status, body) = match client::request_retry(worker, "POST", &path, b"", &backoff) {
            Ok(answer) => answer,
            Err(e) => return Forward::Down(e),
        };
        let text = String::from_utf8_lossy(&body).into_owned();
        match status {
            202 => {
                return match Json::parse(&body).ok().and_then(|t| t.get("job")?.u64()) {
                    Some(remote) => Forward::Accepted { remote },
                    None => Forward::Rejected(format!("unparseable ticket from {worker}: {text}")),
                }
            }
            404 if !pushed => {
                // First miss on this worker: push the graph body.
                let Some(gfa) = vault_gfa(shared, graph) else {
                    return Forward::Rejected(format!("graph {} no longer interned", graph.hex()));
                };
                match client::request_retry(worker, "POST", "/v1/graphs", gfa.as_bytes(), &backoff)
                {
                    Err(e) => return Forward::Down(e),
                    Ok((200 | 201, _)) => {
                        shared.counters.graph_pushes.fetch_add(1, Ordering::Relaxed);
                        obs::info(
                            "cluster",
                            "pushed graph to worker",
                            &[("worker", worker.to_string()), ("graph", graph.hex())],
                        );
                    }
                    Ok((status, body)) => {
                        return Forward::Rejected(format!(
                            "graph push to {worker} answered {status}: {}",
                            String::from_utf8_lossy(&body).trim()
                        ))
                    }
                }
            }
            _ => return Forward::Rejected(format!("{worker} answered {status}: {}", text.trim())),
        }
    }
    unreachable!("second pass either accepts, rejects, or reports the worker down")
}

/// The GFA bytes for an interned graph: straight from memory in
/// in-memory mode, reloaded (hash-verified) from the on-disk vault in
/// journal mode. `None` if the graph was deleted, evicted, or its
/// spill is corrupt.
fn vault_gfa(shared: &CoordShared, graph: ContentHash) -> Option<Arc<String>> {
    let resident = {
        let vault = shared.vault.lock().unwrap();
        let entry = vault.get(&graph)?;
        entry.gfa.clone()
    };
    match resident {
        Some(gfa) => Some(gfa),
        None => journal::read_vault_gfa(shared.vault_dir.as_ref()?, graph).map(Arc::new),
    }
}

/// Free the scheduler's per-graph quota slot held by a popped job.
fn release_quota(shared: &CoordShared, id: JobId) {
    if shared.queue.lock().unwrap().release(id) {
        shared.queue_cv.notify_all();
    }
}

// Journal write hooks: no-ops without `--journal-dir`. Callers invoke
// these after releasing the `jobs`/`vault` locks (lock order: state
// locks strictly before the journal lock; `finished` before both).

/// Journal a job accept — fsync'd, so the 202 the caller is about to
/// send is a durable promise.
fn journal_accept(shared: &CoordShared, id: JobId, query: &str) {
    if let Some(j) = &shared.journal {
        j.lock().unwrap().accept(id, query);
    }
}

fn journal_forwarded(shared: &CoordShared, id: JobId, worker: &str, remote: JobId) {
    if let Some(j) = &shared.journal {
        j.lock().unwrap().forwarded(id, worker, remote);
    }
}

/// Bookkeeping once a job has turned terminal: journal the outcome,
/// then evict the oldest terminal jobs beyond `MAX_FINISHED_JOBS` from
/// the job table. The journal applies the same cap to the same
/// retirement order (both are fed under the `finished` lock), so it
/// drops the same jobs and a restart replays what the table kept.
fn retire(
    shared: &CoordShared,
    id: JobId,
    state: &str,
    worker: Option<&str>,
    remote: Option<JobId>,
) {
    let evicted = {
        let mut finished = shared.finished.lock().unwrap();
        if let Some(j) = &shared.journal {
            j.lock().unwrap().terminal(id, state, worker, remote);
        }
        finished.retire(id)
    };
    if !evicted.is_empty() {
        let mut jobs = shared.jobs.lock().unwrap();
        for old in evicted {
            jobs.remove(&old);
        }
    }
}

/// Put a job back in the queue (after a worker death or forward
/// failure); `count` burns one of its attempts. Exhausted jobs fail
/// loudly instead of looping forever. A job a racing status read
/// collected as finished stays finished.
fn requeue(shared: &CoordShared, id: JobId, count: bool, reason: &str) {
    let exhausted = {
        let mut jobs = shared.jobs.lock().unwrap();
        let Some(job) = jobs
            .get_mut(&id)
            .filter(|job| !matches!(job.state, CoordJobState::Terminal { .. }))
        else {
            release_quota(shared, id);
            return;
        };
        if count {
            job.attempts += 1;
        }
        if job.attempts >= MAX_ATTEMPTS {
            true
        } else {
            job.state = CoordJobState::Queued;
            let (priority, client, cost, graph) =
                (job.priority, job.client.clone(), job.cost, job.graph);
            let mut queue = shared.queue.lock().unwrap();
            queue.release(id);
            queue.push_keyed(priority, &client, id, cost, graph);
            false
        }
    };
    if exhausted {
        finish_local(
            shared,
            id,
            "failed",
            Some(&format!(
                "gave up after {} forward attempts ({reason})",
                MAX_ATTEMPTS
            )),
        );
        return;
    }
    shared.counters.requeues.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_all();
    shared.jobs_cv.notify_all();
    obs::warn(
        "cluster",
        "requeued job",
        &[("job", id.to_string()), ("reason", reason.to_string())],
    );
}

/// Terminate a job coordinator-side (never ran, or cancelled while
/// queued) with a synthesized status body.
fn finish_local(shared: &CoordShared, id: JobId, state: &str, error: Option<&str>) {
    {
        let mut jobs = shared.jobs.lock().unwrap();
        let Some(job) = jobs.get_mut(&id) else { return };
        if matches!(job.state, CoordJobState::Terminal { .. }) {
            return;
        }
        let error = error.map_or_else(String::new, |e| format!(",\"error\":{}", quote(e)));
        let body = local_status(id, job, state, job.submitted.elapsed().as_millis(), &error);
        job.state = CoordJobState::Terminal {
            worker: None,
            remote: None,
            state: state.to_string(),
            body,
        };
    }
    retire(shared, id, state, None, None);
    let counter = match state {
        "cancelled" => &shared.counters.cancelled,
        _ => &shared.counters.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    release_quota(shared, id);
    shared.jobs_cv.notify_all();
}

// ─── monitor: heartbeats, death sweep, terminal-state collection ────

fn monitor(shared: &CoordShared) {
    let tick = (shared.cfg.heartbeat / 2).clamp(Duration::from_millis(50), PARK);
    while !shared.park(tick) {
        death_sweep(shared);
        poll_forwarded(shared);
    }
}

fn death_sweep(shared: &CoordShared) {
    let deadline = shared.cfg.heartbeat * DEAD_AFTER;
    let newly_dead: Vec<String> = {
        let mut workers = shared.workers.lock().unwrap();
        workers
            .iter_mut()
            .filter(|(_, w)| w.alive && w.last_beat.elapsed() > deadline)
            .map(|(addr, w)| {
                w.alive = false;
                addr.clone()
            })
            .collect()
    };
    for addr in newly_dead {
        shared.counters.deaths.fetch_add(1, Ordering::Relaxed);
        obs::warn(
            "cluster",
            "worker died (missed heartbeats)",
            &[("worker", addr.clone())],
        );
        drain_worker(shared, &addr);
    }
}

/// Mark a worker dead after a connection failure (faster than waiting
/// out the heartbeat deadline) and requeue everything it was running.
fn mark_dead(shared: &CoordShared, addr: &str, err: &str) {
    let was_alive = {
        let mut workers = shared.workers.lock().unwrap();
        match workers.get_mut(addr) {
            Some(w) if w.alive => {
                w.alive = false;
                true
            }
            Some(_) => false,
            // A worker this incarnation has never heard from — e.g. the
            // recorded owner of a journal-replayed job after a restart.
            // Register it dead and drain, so recovered in-flight jobs
            // whose owner is gone get requeued instead of stranded.
            None => {
                workers.insert(
                    addr.to_string(),
                    WorkerEntry {
                        last_beat: Instant::now(),
                        alive: false,
                    },
                );
                true
            }
        }
    };
    if was_alive {
        shared.counters.deaths.fetch_add(1, Ordering::Relaxed);
        obs::warn(
            "cluster",
            "worker unreachable",
            &[("worker", addr.to_string()), ("error", err.to_string())],
        );
        drain_worker(shared, addr);
    }
}

/// Requeue every job forwarded to a (now dead) worker.
fn drain_worker(shared: &CoordShared, addr: &str) {
    let stranded: Vec<JobId> = {
        let jobs = shared.jobs.lock().unwrap();
        jobs.iter()
            .filter(|(_, j)| matches!(&j.state, CoordJobState::Forwarded { worker, .. } if worker == addr))
            .map(|(id, _)| *id)
            .collect()
    };
    for id in stranded {
        requeue(shared, id, true, &format!("worker {addr} died"));
    }
}

/// Poll every forwarded job's status on its worker; collect terminal
/// snapshots, requeue jobs a restarted worker no longer knows.
fn poll_forwarded(shared: &CoordShared) {
    let targets: Vec<(JobId, String, JobId)> = {
        let jobs = shared.jobs.lock().unwrap();
        jobs.iter()
            .filter_map(|(id, j)| match &j.state {
                CoordJobState::Forwarded { worker, remote } => Some((*id, worker.clone(), *remote)),
                _ => None,
            })
            .collect()
    };
    for (id, worker, remote) in targets {
        match client::request(&worker, "GET", &format!("/v1/jobs/{remote}"), b"") {
            Err(e) => mark_dead(shared, &worker, &e),
            Ok((200, body)) => {
                let text = rewrite_job_id(String::from_utf8_lossy(&body).trim(), id);
                collect_if_terminal(shared, id, &worker, remote, text);
            }
            // The worker restarted and lost the job (its id space reset):
            // run it again somewhere.
            Ok((404, _)) => requeue(shared, id, true, "worker lost the job"),
            Ok(_) => {}
        }
    }
}

/// Record a forwarded job as finished when `status` (the worker's
/// status JSON, already carrying the coordinator's id) is terminal.
/// Only a job still forwarded to `worker`/`remote` is collected, which
/// guards against a racing requeue.
fn collect_if_terminal(
    shared: &CoordShared,
    id: JobId,
    worker: &str,
    remote: JobId,
    status: String,
) {
    let state = Json::parse(&status)
        .ok()
        .and_then(|doc| Some(doc.get("state")?.str()?.to_string()));
    let Some(state) = state.filter(|s| TERMINAL_STATES.contains(&s.as_str())) else {
        return;
    };
    {
        let mut jobs = shared.jobs.lock().unwrap();
        match jobs.get_mut(&id) {
            Some(job)
                if matches!(&job.state, CoordJobState::Forwarded { worker: w, remote: r }
                    if w == worker && *r == remote) =>
            {
                job.state = CoordJobState::Terminal {
                    worker: Some(worker.to_string()),
                    remote: Some(remote),
                    state: state.clone(),
                    body: status,
                };
            }
            _ => return,
        }
    }
    retire(shared, id, &state, Some(worker), Some(remote));
    let counter = match state.as_str() {
        "done" => &shared.counters.completed,
        "cancelled" => &shared.counters.cancelled,
        _ => &shared.counters.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    release_quota(shared, id);
    shared.jobs_cv.notify_all();
}

// ─── HTTP routes ────────────────────────────────────────────────────

impl Router for CoordShared {
    fn route(&self, endpoint: Endpoint, req: &mut Request) -> Routed {
        Routed::Plain(match endpoint {
            Endpoint::Join => register(self, req.param("addr"), true),
            Endpoint::Heartbeat => register(self, req.param("addr"), false),
            Endpoint::UploadGraph => intern_graph(req, self),
            Endpoint::ListGraphs => list_graphs(self, req.if_none_match.as_deref()),
            Endpoint::DeleteGraph(id) => delete_graph(self, id),
            Endpoint::Submit => submit(req, self),
            Endpoint::Events { job, from } => {
                if self.jobs.lock().unwrap().contains_key(&job) {
                    return Routed::Events { job, from };
                }
                Response::error(404, &format!("no such job {job}"))
            }
            Endpoint::Trace(id) => trace_proxy(self, id),
            Endpoint::Status(id) => job_status(self, id),
            Endpoint::Cancel(id) => cancel(self, id),
            Endpoint::Result(id) => result_proxy(self, id, req.param("format").unwrap_or("tsv")),
            Endpoint::Stats => fleet_stats(self),
            Endpoint::Metrics => coord_metrics(self),
            Endpoint::Healthz => healthz(self),
            Endpoint::Engines => engines_proxy(self),
        })
    }

    /// Relays from the start of the job's run: a worker's sequence
    /// numbers restart with every run, so `from` has no fleet-wide
    /// meaning.
    fn stream_events(
        &self,
        job: JobId,
        _from: u64,
        out: &mut EventStream<'_>,
        _stop: &AtomicBool,
    ) -> std::io::Result<()> {
        stream_proxy(out, self, job)
    }
}

/// `POST /v1/cluster/join` | `/heartbeat` — (re)register a worker. Both
/// endpoints are idempotent upserts: a heartbeat from an unknown
/// address is an implicit join (the coordinator may have restarted and
/// forgotten the fleet), and a join from a known one just refreshes it.
fn register(shared: &CoordShared, addr: Option<&str>, is_join: bool) -> Response {
    let Some(addr) = addr.filter(|a| !a.is_empty() && !a.contains(char::is_whitespace)) else {
        return Response::error(400, "missing ?addr=<host:port> the coordinator can reach");
    };
    let (resurrected, total) = {
        let mut workers = shared.workers.lock().unwrap();
        let known = workers.len();
        let entry = workers
            .entry(addr.to_string())
            .or_insert_with(|| WorkerEntry {
                last_beat: Instant::now(),
                alive: false,
            });
        let resurrected = !entry.alive;
        entry.alive = true;
        entry.last_beat = Instant::now();
        (resurrected, known.max(workers.len()))
    };
    if resurrected {
        shared.counters.joins.fetch_add(1, Ordering::Relaxed);
        obs::info(
            "cluster",
            if is_join {
                "worker joined"
            } else {
                "worker re-joined via heartbeat"
            },
            &[("worker", addr.to_string())],
        );
        // New capacity may unblock jobs parked on "no alive workers".
        shared.queue_cv.notify_all();
    }
    // `epoch` bumps on every journal-backed restart, so workers can
    // tell "my coordinator came back from a crash" apart from a blip.
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"heartbeat_ms\":{},\"workers\":{total},\"epoch\":{}}}",
            shared.cfg.heartbeat.as_millis(),
            shared.epoch
        ),
    )
}

/// `POST /v1/graphs` — intern a GFA document into the coordinator's
/// vault: parse once to validate and count, keep the raw text for
/// push-on-miss to workers.
fn intern_graph(req: &mut Request, shared: &CoordShared) -> Response {
    let gfa = match String::from_utf8(req.take_body()) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "GFA body must be UTF-8"),
    };
    if gfa.trim().is_empty() {
        return Response::error(400, "empty GFA body");
    }
    match intern_gfa(shared, gfa) {
        Ok(up) => graph_uploaded(&up),
        Err(response) => response,
    }
}

/// Intern a GFA document (upload or inline submit): dedupe by content
/// hash, validate-parse new documents, and — in journal mode — spill
/// the bytes to the on-disk vault write-through (they do not stay
/// resident), journal the `G` record (fsync'd), and enforce the vault
/// byte cap.
fn intern_gfa(shared: &CoordShared, gfa: String) -> Result<GraphUpload, Response> {
    let id = content_hash(gfa.as_bytes());
    if let Some(g) = shared.vault.lock().unwrap().get(&id) {
        return Ok(GraphUpload {
            id,
            nodes: g.nodes,
            paths: g.paths,
            steps: g.steps,
            dedup: true,
        });
    }
    let parsed = parse_layout_input(&gfa).map_err(|e| Response::error(400, &e))?;
    let (nodes, paths, steps) = (
        parsed.node_count(),
        parsed.path_count(),
        parsed.total_path_steps() as usize,
    );
    let bytes = gfa.len() as u64;
    let resident = match &shared.vault_dir {
        Some(dir) => {
            // Spill before publishing the catalog entry, so a graph is
            // never interned without its bytes being durable.
            if !journal::write_vault_gfa(dir, id, &gfa) {
                return Err(Response::error(
                    500,
                    "failed to spill the graph to the vault directory",
                ));
            }
            shared.counters.vault_spills.fetch_add(1, Ordering::Relaxed);
            None
        }
        None => Some(Arc::new(gfa)),
    };
    let raced = {
        let mut vault = shared.vault.lock().unwrap();
        match vault.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => true, // concurrent identical upload
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(GraphEntry {
                    gfa: resident,
                    nodes,
                    paths,
                    steps,
                    bytes,
                });
                false
            }
        }
    };
    if !raced {
        if let Some(j) = &shared.journal {
            j.lock().unwrap().graph_vaulted(&GraphRecord {
                id,
                nodes,
                paths,
                steps,
                bytes,
            });
        }
        enforce_vault_cap(shared);
    }
    Ok(GraphUpload {
        id,
        nodes,
        paths,
        steps,
        dedup: raced,
    })
}

/// Evict the oldest vault spills until the on-disk tier fits
/// [`CoordinatorConfig::vault_max_bytes`]. Evicted graphs leave the
/// catalog and the journal; a by-reference submit for one answers 404
/// until the client re-uploads it.
fn enforce_vault_cap(shared: &CoordShared) {
    let Some(dir) = &shared.vault_dir else { return };
    if shared.cfg.vault_max_bytes == 0 {
        return;
    }
    for id in evict_dir(dir, shared.cfg.vault_max_bytes, Duration::ZERO, "gfa").capped {
        if shared.vault.lock().unwrap().remove(&id).is_some() {
            shared
                .counters
                .vault_evictions
                .fetch_add(1, Ordering::Relaxed);
            if let Some(j) = &shared.journal {
                j.lock().unwrap().graph_deleted(id);
            }
            obs::warn(
                "cluster",
                "evicted vaulted graph past the byte cap",
                &[("graph", id.hex())],
            );
        }
    }
}

/// `GET /v1/graphs` — the vault's catalog. A row's `bytes` is the GFA
/// text's length; `resident` says whether that text is held in memory
/// (no journal) or only in the on-disk vault.
fn list_graphs(shared: &CoordShared, if_none_match: Option<&str>) -> Response {
    let mut graphs: Vec<GraphMeta> = shared
        .vault
        .lock()
        .unwrap()
        .iter()
        .map(|(&id, g)| GraphMeta {
            id,
            nodes: g.nodes,
            paths: g.paths,
            steps: g.steps,
            bytes: g.bytes,
            resident: g.gfa.is_some(),
        })
        .collect();
    graphs.sort_by_key(|m| m.id);
    graph_listing(&graphs, if_none_match)
}

/// `DELETE /v1/graphs/<id>` — drop from the vault and (best effort)
/// from every alive worker's store.
fn delete_graph(shared: &CoordShared, id: ContentHash) -> Response {
    let existed = shared.vault.lock().unwrap().remove(&id).is_some();
    if !existed {
        return Response::error(404, &format!("no such graph {}", id.hex()));
    }
    if let Some(dir) = &shared.vault_dir {
        let _ = std::fs::remove_file(journal::vault_path(dir, id));
    }
    if let Some(j) = &shared.journal {
        j.lock().unwrap().graph_deleted(id);
    }
    let ring = alive_ring(shared);
    for worker in ring.owners(id) {
        let _ = client::request(worker, "DELETE", &format!("/v1/graphs/{}", id.hex()), b"");
    }
    graph_deleted(id)
}

/// `POST /v1/jobs` — parse the spec exactly like a worker would, intern
/// inline GFA into the vault (converting the job to by-reference), and
/// enqueue for dispatch.
fn submit(req: &mut Request, shared: &CoordShared) -> Response {
    let mut spec = match req.job_spec() {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let (graph, steps) = match &spec.graph {
        GraphSpec::Gfa(text) => {
            let up = match intern_gfa(shared, text.as_ref().clone()) {
                Ok(up) => up,
                Err(response) => return response,
            };
            // Forward by reference: the body already lives in the vault.
            spec.graph = GraphSpec::Stored(up.id);
            (up.id, up.steps)
        }
        GraphSpec::Stored(id) => match shared.vault.lock().unwrap().get(id) {
            Some(entry) => (*id, entry.steps),
            None => {
                return Response::error(
                    404,
                    &format!(
                        "no such graph {} (upload it to the coordinator first)",
                        id.hex()
                    ),
                )
            }
        },
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let cost = job_cost(steps as u64);
    let client_key = spec.client.clone().expect("client defaulted above");
    let priority = spec.priority;
    // The accepted wire form, journaled (fsync'd) *before* the job can
    // be dispatched and before the 202 below: an acknowledged submit
    // survives `kill -9`.
    let query = spec.to_query();
    {
        let mut jobs = shared.jobs.lock().unwrap();
        jobs.insert(
            id,
            CoordJob {
                spec,
                graph,
                client: client_key.clone(),
                priority,
                cost,
                attempts: 0,
                cancel_requested: false,
                submitted: Instant::now(),
                state: CoordJobState::Queued,
            },
        );
    }
    journal_accept(shared, id, &query);
    shared
        .queue
        .lock()
        .unwrap()
        .push_keyed(priority, &client_key, id, cost, graph);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_all();
    job_ticket(&SubmitTicket {
        id,
        cached: false,
        graph,
        priority,
    })
}

/// Synthesized status for a job the coordinator still holds (queued or
/// mid-failover): same field shape as a worker's status JSON.
fn synthesize_status(
    shared: &CoordShared,
    id: JobId,
    state: &str,
    worker: Option<&str>,
) -> Response {
    let jobs = shared.jobs.lock().unwrap();
    let Some(job) = jobs.get(&id) else {
        return Response::error(404, &format!("no such job {id}"));
    };
    let mut extra = format!(",\"attempts\":{}", job.attempts);
    if let Some(w) = worker {
        extra.push_str(&format!(",\"worker\":{}", quote(w)));
    }
    let wall_ms = job.submitted.elapsed().as_millis();
    Response::json(200, local_status(id, job, state, wall_ms, &extra))
}

/// The coordinator's own status JSON for a job no worker answers for:
/// a worker status's leading fields, then `extra` (`,"key":value`
/// members).
fn local_status(id: JobId, job: &CoordJob, state: &str, wall_ms: u128, extra: &str) -> String {
    format!(
        "{{\"job\":{id},\"state\":\"{state}\",\"progress\":0.000,\"engine\":{},\
         \"priority\":\"{}\",\"client\":{},\"cached\":false,\"graph\":{},\
         \"wall_ms\":{wall_ms}{extra}}}",
        quote(&job.spec.engine),
        job.priority.as_str(),
        quote(&job.client),
        quote(&job.graph.hex()),
    )
}

fn job_state(shared: &CoordShared, id: JobId) -> Option<CoordJobState> {
    shared
        .jobs
        .lock()
        .unwrap()
        .get(&id)
        .map(|j| j.state.clone())
}

/// `GET /v1/jobs/<id>` — proxy to the owning worker (id rewritten), or
/// answer locally for queued/terminal jobs. A terminal answer is
/// collected on the spot rather than at the monitor's next poll, so a
/// job once reported finished is never requeued if its worker dies
/// before that poll.
fn job_status(shared: &CoordShared, id: JobId) -> Response {
    match job_state(shared, id) {
        None => Response::error(404, &format!("no such job {id}")),
        Some(CoordJobState::Queued) => synthesize_status(shared, id, "queued", None),
        Some(CoordJobState::Forwarded { worker, remote }) => {
            match client::request(&worker, "GET", &format!("/v1/jobs/{remote}"), b"") {
                Ok((200, body)) => {
                    let text = rewrite_job_id(String::from_utf8_lossy(&body).trim(), id);
                    collect_if_terminal(shared, id, &worker, remote, text.clone());
                    Response::json(200, text)
                }
                // Unreachable or amnesiac worker: the monitor is about to
                // requeue; report the job as still in flight.
                _ => synthesize_status(shared, id, "running", Some(&worker)),
            }
        }
        Some(CoordJobState::Terminal { body, .. }) => Response::json(200, body),
    }
}

/// `GET /v1/jobs/<id>/trace` — proxy when a worker has (or had) the
/// job; queued and never-ran jobs answer with an empty span list.
fn trace_proxy(shared: &CoordShared, id: JobId) -> Response {
    let (worker, remote, fallback_state) = match job_state(shared, id) {
        None => return Response::error(404, &format!("no such job {id}")),
        Some(CoordJobState::Queued) => return empty_trace(id, "queued"),
        Some(CoordJobState::Forwarded { worker, remote }) => (worker, remote, "running".into()),
        Some(CoordJobState::Terminal {
            worker: Some(w),
            remote: Some(r),
            state,
            ..
        }) => (w, r, state),
        Some(CoordJobState::Terminal { state, .. }) => return empty_trace(id, &state),
    };
    match client::request(&worker, "GET", &format!("/v1/jobs/{remote}/trace"), b"") {
        Ok((200, body)) => Response::json(
            200,
            rewrite_job_id(String::from_utf8_lossy(&body).trim(), id),
        ),
        _ => empty_trace(id, &fallback_state),
    }
}

/// A trace with no spans, for jobs no worker can answer for.
fn empty_trace(id: JobId, state: &str) -> Response {
    Response::json(
        200,
        format!("{{\"job\":{id},\"state\":\"{state}\",\"wall_ms\":0,\"total_us\":0,\"spans\":[]}}"),
    )
}

/// `POST /v1/jobs/<id>/cancel` — cancel locally while queued, proxy to
/// the owning worker once forwarded.
fn cancel(shared: &CoordShared, id: JobId) -> Response {
    let state = {
        let mut jobs = shared.jobs.lock().unwrap();
        match jobs.get_mut(&id) {
            None => return Response::error(404, &format!("no such job {id}")),
            Some(job) => {
                job.cancel_requested = true;
                job.state.clone()
            }
        }
    };
    match state {
        CoordJobState::Queued => {
            let removed = shared.queue.lock().unwrap().remove(id);
            if removed {
                finish_local(shared, id, "cancelled", Some("cancelled while queued"));
            }
            // Not in the queue ⇒ mid-dispatch; the dispatcher checks the
            // cancel flag before forwarding. Either way, report status.
            job_status(shared, id)
        }
        CoordJobState::Forwarded { worker, remote } => {
            match client::request(&worker, "POST", &format!("/v1/jobs/{remote}/cancel"), b"") {
                Ok((200, body)) => Response::json(
                    200,
                    rewrite_job_id(String::from_utf8_lossy(&body).trim(), id),
                ),
                Ok((_, _)) => job_status(shared, id),
                Err(_) => Response::error(
                    503,
                    "owning worker unreachable; the job will be requeued or collected shortly",
                ),
            }
        }
        CoordJobState::Terminal { body, .. } => Response::json(200, body),
    }
}

/// `GET /v1/result/<id>` — proxy the finished layout from the worker
/// that computed it. Checks run in the worker's order: unknown job,
/// then not done, then the format.
fn result_proxy(shared: &CoordShared, id: JobId, format: &str) -> Response {
    let (worker, remote) = match job_state(shared, id) {
        None => return Response::error(404, &format!("no such job {id}")),
        Some(CoordJobState::Queued) | Some(CoordJobState::Forwarded { .. }) => {
            return Response::error(409, &format!("job {id} is not done yet"))
        }
        Some(CoordJobState::Terminal {
            worker: Some(worker),
            remote: Some(remote),
            state,
            ..
        }) if state == "done" => (worker, remote),
        Some(CoordJobState::Terminal { state, .. }) => {
            return Response::error(409, &format!("job {id} is {state}, not done"))
        }
    };
    let content_type: &'static str = match format {
        "tsv" => "text/tab-separated-values",
        "lay" => "application/octet-stream",
        other => return Response::error(400, &format!("unknown format {other:?} (tsv, lay)")),
    };
    match client::request(
        &worker,
        "GET",
        &format!("/v1/result/{remote}?format={format}"),
        b"",
    ) {
        Ok((200, bytes)) => Response::bytes(200, content_type, bytes),
        Ok((status, bytes)) => Response::error(
            if status == 404 { 404 } else { 409 },
            &format!(
                "worker answered {status}: {}",
                String::from_utf8_lossy(&bytes).trim()
            ),
        ),
        Err(_) => Response::error(503, "worker holding the result is unreachable"),
    }
}

/// `GET /v1/engines` — proxied from any alive worker (the fleet is
/// homogeneous: every worker registers the same engine set).
fn engines_proxy(shared: &CoordShared) -> Response {
    let ring = alive_ring(shared);
    for worker in ring.owners(content_hash(b"engines-probe")) {
        if let Ok((200, body)) = client::request(worker, "GET", "/v1/engines", b"") {
            return Response::json(200, String::from_utf8_lossy(&body).into_owned());
        }
    }
    Response::error(503, "no alive workers to answer for")
}

/// `GET /v1/healthz` — coordinator liveness + fleet shape + journal
/// health (absent when running without `--journal-dir`).
fn healthz(shared: &CoordShared) -> Response {
    let (alive, total) = worker_counts(shared);
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"role\":\"coordinator\",\"version\":{},\"uptime_s\":{},\
             \"heartbeat_ms\":{},\"workers_alive\":{alive},\"workers_total\":{total}{}}}",
            quote(env!("CARGO_PKG_VERSION")),
            shared.started.elapsed().as_secs(),
            shared.cfg.heartbeat.as_millis(),
            journal_health_json(shared)
        ),
    )
}

/// `,"journal":{...}` for `/healthz` and `/v1/stats`, or empty when the
/// journal is off.
fn journal_health_json(shared: &CoordShared) -> String {
    let Some(j) = &shared.journal else {
        return String::new();
    };
    let j = j.lock().unwrap();
    format!(
        ",\"journal\":{{\"epoch\":{},\"replayed\":{},\"recovered\":{},\
         \"snapshot_age_s\":{},\"bytes\":{}}}",
        shared.epoch,
        shared.replayed,
        shared.counters.recovered.load(Ordering::Relaxed),
        j.snapshot_age_s(),
        j.bytes()
    )
}

fn worker_counts(shared: &CoordShared) -> (usize, usize) {
    let workers = shared.workers.lock().unwrap();
    (workers.values().filter(|w| w.alive).count(), workers.len())
}

/// Selected numeric fields pulled from one worker's `/v1/stats` and
/// `/v1/metrics`, for the fleet rollup.
#[derive(Default)]
struct WorkerDigest {
    queued: u64,
    running: u64,
    done: u64,
    failed: u64,
    parses: u64,
    cache_hits: u64,
    cache_misses: u64,
    engine_terms: u64,
    engine_ups: f64,
}

/// `GET /v1/stats` — the fleet rollup: per-worker queue depth, cache
/// behavior, and `pgl_engine_*` telemetry, plus fleet-wide sums and
/// the coordinator's own counters.
fn fleet_stats(shared: &CoordShared) -> Response {
    let mut members: Vec<(String, bool)> = {
        let workers = shared.workers.lock().unwrap();
        workers.iter().map(|(a, w)| (a.clone(), w.alive)).collect()
    };
    members.sort();
    let mut rows = Vec::new();
    let mut fleet = WorkerDigest::default();
    let mut alive_count = 0usize;
    for (addr, alive) in &members {
        if !*alive {
            rows.push(format!("{{\"addr\":{},\"alive\":false}}", quote(addr)));
            continue;
        }
        match worker_digest(addr) {
            Some(d) => {
                alive_count += 1;
                rows.push(format!(
                    "{{\"addr\":{},\"alive\":true,\"queued\":{},\"running\":{},\"done\":{},\
                     \"failed\":{},\"parses\":{},\"cache_hits\":{},\"cache_misses\":{},\
                     \"engine_terms_applied\":{},\"engine_updates_per_sec\":{:.1}}}",
                    quote(addr),
                    d.queued,
                    d.running,
                    d.done,
                    d.failed,
                    d.parses,
                    d.cache_hits,
                    d.cache_misses,
                    d.engine_terms,
                    d.engine_ups
                ));
                fleet.queued += d.queued;
                fleet.running += d.running;
                fleet.done += d.done;
                fleet.failed += d.failed;
                fleet.parses += d.parses;
                fleet.cache_hits += d.cache_hits;
                fleet.cache_misses += d.cache_misses;
                fleet.engine_terms += d.engine_terms;
                fleet.engine_ups += d.engine_ups;
            }
            None => rows.push(format!(
                "{{\"addr\":{},\"alive\":true,\"reachable\":false}}",
                quote(addr)
            )),
        }
    }
    let coord_queued = {
        let jobs = shared.jobs.lock().unwrap();
        jobs.values()
            .filter(|j| matches!(j.state, CoordJobState::Queued))
            .count()
    };
    let graphs_interned = shared.vault.lock().unwrap().len();
    let c = &shared.counters;
    Response::json(
        200,
        format!(
            "{{\"role\":\"coordinator\",\"workers\":[{}],\
             \"fleet\":{{\"workers_alive\":{alive_count},\"workers_total\":{},\
             \"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"parses\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"engine_terms_applied\":{},\
             \"engine_updates_per_sec\":{:.1}}},\
             \"coordinator\":{{\"submitted\":{},\"forwarded\":{},\"requeues\":{},\
             \"completed\":{},\"failed\":{},\"cancelled\":{},\"joins\":{},\"deaths\":{},\
             \"graph_pushes\":{},\"vault_spills\":{},\"vault_evictions\":{},\
             \"graphs_interned\":{graphs_interned},\
             \"queued\":{coord_queued},\"uptime_s\":{}{}}}}}",
            rows.join(","),
            members.len(),
            fleet.queued,
            fleet.running,
            fleet.done,
            fleet.failed,
            fleet.parses,
            fleet.cache_hits,
            fleet.cache_misses,
            fleet.engine_terms,
            fleet.engine_ups,
            c.submitted.load(Ordering::Relaxed),
            c.forwarded.load(Ordering::Relaxed),
            c.requeues.load(Ordering::Relaxed),
            c.completed.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            c.cancelled.load(Ordering::Relaxed),
            c.joins.load(Ordering::Relaxed),
            c.deaths.load(Ordering::Relaxed),
            c.graph_pushes.load(Ordering::Relaxed),
            c.vault_spills.load(Ordering::Relaxed),
            c.vault_evictions.load(Ordering::Relaxed),
            shared.started.elapsed().as_secs(),
            journal_health_json(shared)
        ),
    )
}

/// Fetch one worker's `/v1/stats` + `/v1/metrics` and digest the fields
/// the rollup surfaces. `None` when the worker is unreachable.
fn worker_digest(addr: &str) -> Option<WorkerDigest> {
    let (status, body) = client::request(addr, "GET", "/v1/stats", b"").ok()?;
    if status != 200 {
        return None;
    }
    let mut d = WorkerDigest::from_stats(&body);
    if let Ok((200, metrics)) = client::request(addr, "GET", "/v1/metrics", b"") {
        let metrics = String::from_utf8_lossy(&metrics);
        d.engine_terms = prom_value(&metrics, "pgl_engine_terms_applied_total")
            .map(|v| v as u64)
            .unwrap_or(0);
        d.engine_ups = prom_value(&metrics, "pgl_engine_updates_per_sec").unwrap_or(0.0);
    }
    Some(d)
}

impl WorkerDigest {
    /// The rollup's fields of a worker's `/v1/stats` body, read by path;
    /// a missing field (or an unparseable body) reads 0.
    fn from_stats(body: &[u8]) -> Self {
        let stats = Json::parse(body).unwrap_or(Json::Null);
        let field = |path| stats.at(path).and_then(Json::u64).unwrap_or(0);
        Self {
            queued: field("jobs.queued"),
            running: field("jobs.running"),
            done: field("jobs.done"),
            failed: field("jobs.failed"),
            parses: field("graphs.parses"),
            cache_hits: field("cache.hits"),
            cache_misses: field("cache.misses"),
            ..Self::default()
        }
    }
}

/// The value of an unlabelled Prometheus sample line (`name value`) —
/// the exposition format, not JSON, matched on whole sample names.
fn prom_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// `GET /v1/metrics` — the HTTP server's families followed by the
/// coordinator's own counters, Prometheus text.
fn coord_metrics(shared: &CoordShared) -> Response {
    let (alive, total) = worker_counts(shared);
    let graphs = shared.vault.lock().unwrap().len();
    let (journal_stats, journal_bytes) = match &shared.journal {
        Some(j) => {
            let j = j.lock().unwrap();
            (j.stats(), j.bytes())
        }
        None => (Default::default(), 0),
    };
    let c = &shared.counters;
    let mut out = shared.http.render_prometheus();
    let counters: [(&str, &str, u64); 15] = [
        (
            "pgl_coord_jobs_submitted_total",
            "Jobs accepted by the coordinator.",
            c.submitted.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_forwarded_total",
            "Forwards accepted by workers.",
            c.forwarded.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_requeued_total",
            "Jobs requeued after worker failure.",
            c.requeues.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_completed_total",
            "Jobs that finished done.",
            c.completed.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_failed_total",
            "Jobs that finished failed/expired.",
            c.failed.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_cancelled_total",
            "Jobs cancelled.",
            c.cancelled.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_worker_joins_total",
            "Worker joins and resurrections.",
            c.joins.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_worker_deaths_total",
            "Workers declared dead.",
            c.deaths.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_graph_pushes_total",
            "Graph bodies pushed to workers on miss.",
            c.graph_pushes.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_journal_appends_total",
            "Records appended to the write-ahead journal.",
            journal_stats.appends,
        ),
        (
            "pgl_coord_journal_syncs_total",
            "Journal fsyncs (accepts and graph interns).",
            journal_stats.syncs,
        ),
        (
            "pgl_coord_journal_snapshots_total",
            "Journal snapshot compactions (boot included).",
            journal_stats.snapshots,
        ),
        (
            "pgl_coord_journal_recovered_jobs_total",
            "Non-terminal jobs recovered from the journal at boot.",
            c.recovered.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_vault_spills_total",
            "Graph bodies spilled to the on-disk vault.",
            c.vault_spills.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_vault_evictions_total",
            "Vaulted graphs evicted past the byte cap.",
            c.vault_evictions.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, value) in counters {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }
    let gauges: [(&str, &str, usize); 5] = [
        ("pgl_coord_workers_alive", "Workers currently alive.", alive),
        ("pgl_coord_workers_total", "Workers ever registered.", total),
        (
            "pgl_coord_graphs_interned",
            "Graphs in the coordinator vault.",
            graphs,
        ),
        (
            "pgl_coord_journal_epoch",
            "Journal epoch of this incarnation (0 = journal off).",
            shared.epoch as usize,
        ),
        (
            "pgl_coord_journal_bytes",
            "On-disk size of the journal log.",
            journal_bytes as usize,
        ),
    ];
    for (name, help, value) in gauges {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    }
    Response::bytes(200, PROMETHEUS_TEXT, out.into_bytes())
}

// ─── event-stream proxying ──────────────────────────────────────────

/// Tracks the relay position of one proxied event stream across
/// (re-)attachments. Worker event lines carry a dense, 0-based `seq`;
/// heartbeat lines carry none. Re-attaching to the *same* `(worker,
/// remote)` run — after a severed connection or read timeout — resumes
/// from `last_seq + 1`, and [`StreamCursor::admit`] drops any lines
/// the worker replays anyway, so the downstream client never sees a
/// duplicate. A *different* run (the job was requeued onto another
/// worker) resets the cursor: new runs replay from 0 by design.
struct StreamCursor {
    worker: String,
    remote: JobId,
    last_seq: Option<u64>,
}

impl StreamCursor {
    fn new() -> Self {
        Self {
            worker: String::new(),
            remote: 0,
            last_seq: None,
        }
    }

    /// The `?from=` value for (re-)attaching to `worker`/`remote`.
    fn attach(&mut self, worker: &str, remote: JobId) -> u64 {
        if self.worker == worker && self.remote == remote {
            self.last_seq.map_or(0, |s| s + 1)
        } else {
            self.worker = worker.to_string();
            self.remote = remote;
            self.last_seq = None;
            0
        }
    }

    /// Should this relayed line reach the client? Seq-less lines
    /// (heartbeats) always pass; sequenced lines pass once.
    fn admit(&mut self, line: &str) -> bool {
        match Json::parse(line).ok().and_then(|l| l.get("seq")?.u64()) {
            None => true,
            Some(seq) => {
                if self.last_seq.is_some_and(|last| seq <= last) {
                    return false;
                }
                self.last_seq = Some(seq);
                true
            }
        }
    }
}

/// A relayed worker stream's upstream socket, listed in
/// [`CoordShared::relays`] while it lives so that stopping the
/// coordinator can sever it.
struct Relay<'a> {
    shared: &'a CoordShared,
    serial: u64,
}

impl<'a> Relay<'a> {
    /// List `upstream`, unless the coordinator is stopping. The stop
    /// flag is read under the registry lock `halt` severs under, so a
    /// socket listed after the sever pass cannot slip through.
    fn register(shared: &'a CoordShared, upstream: &TcpStream) -> Result<Self, String> {
        let clone = upstream
            .try_clone()
            .map_err(|e| format!("clone relay socket: {e}"))?;
        let mut relays = shared.relays.lock().unwrap();
        if shared.stop.load(Ordering::Relaxed) {
            return Err("coordinator stopping".into());
        }
        let serial = shared.next_relay.fetch_add(1, Ordering::Relaxed);
        relays.insert(serial, clone);
        Ok(Self { shared, serial })
    }
}

impl Drop for Relay<'_> {
    fn drop(&mut self) {
        let mut relays = self
            .shared
            .relays
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        relays.remove(&self.serial);
    }
}

/// `GET /v1/jobs/<id>/events` — chunked NDJSON, transparently proxied.
/// While the job is queued coordinator-side, synthetic `queued` +
/// heartbeat lines flow; once forwarded, the worker's stream is piped
/// through with ids rewritten. If the connection to the worker drops
/// mid-stream the proxy *stays open*, waits, and re-attaches — resuming
/// the same run from the last relayed `seq` (see [`StreamCursor`]).
fn stream_proxy(out: &mut EventStream<'_>, shared: &CoordShared, id: JobId) -> std::io::Result<()> {
    let mut emitted_queued = false;
    let mut last_activity = Instant::now();
    let mut cursor = StreamCursor::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match job_state(shared, id) {
            None => break,
            Some(CoordJobState::Queued) => {
                if !emitted_queued {
                    out.send(
                        format!("{{\"job\":{id},\"event\":\"state\",\"state\":\"queued\"}}\n")
                            .as_bytes(),
                    )?;
                    emitted_queued = true;
                    last_activity = Instant::now();
                }
                {
                    let jobs = shared.jobs.lock().unwrap();
                    if !shared.stop.load(Ordering::Relaxed) {
                        let _ = shared.jobs_cv.wait_timeout(jobs, PARK).unwrap();
                    }
                }
                if last_activity.elapsed() >= EVENT_HEARTBEAT {
                    out.send(b"{\"event\":\"heartbeat\"}\n")?;
                    last_activity = Instant::now();
                }
            }
            Some(CoordJobState::Forwarded { worker, remote }) => {
                let mut write_err = None;
                let from = cursor.attach(&worker, remote);
                let piped = client::connect_stream(&worker).and_then(|upstream| {
                    let _relay = Relay::register(shared, &upstream)?;
                    client::stream_lines_over(
                        upstream,
                        &worker,
                        &format!("/v1/jobs/{remote}/events?from={from}"),
                        &mut |line| {
                            if !cursor.admit(line) {
                                return true; // already relayed before the drop
                            }
                            let rewritten = rewrite_job_id(line, id);
                            match out.send(format!("{rewritten}\n").as_bytes()) {
                                Ok(()) => true,
                                Err(e) => {
                                    write_err = Some(e);
                                    false
                                }
                            }
                        },
                    )
                });
                if let Some(e) = write_err {
                    return Err(e); // downstream client went away
                }
                match piped {
                    // The worker's stream ended cleanly — it delivered
                    // the terminal event; nothing more to say.
                    Ok(true) => break,
                    Ok(false) => break,
                    // Worker died mid-stream (or stop severed it): hold
                    // the connection while the monitor requeues, then
                    // re-attach.
                    Err(_) => {
                        shared.park(PARK);
                    }
                }
            }
            Some(CoordJobState::Terminal { state, body, .. }) => {
                let error = Json::parse(&body)
                    .ok()
                    .and_then(|status| {
                        Some(format!(",\"error\":{}", quote(status.get("error")?.str()?)))
                    })
                    .unwrap_or_default();
                out.send(
                    format!("{{\"job\":{id},\"event\":\"state\",\"state\":\"{state}\"{error}}}\n")
                        .as_bytes(),
                )?;
                break;
            }
        }
    }
    Ok(())
}

/// Swap the first `"job":<digits>` for the coordinator's id — the only
/// rewrite proxied bodies need (worker-local ids never leak).
fn rewrite_job_id(line: &str, id: JobId) -> String {
    let Some(at) = line.find("\"job\":") else {
        return line.to_string();
    };
    let digits_start = at + "\"job\":".len();
    let digits = line[digits_start..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    if digits == 0 {
        return line.to_string();
    }
    format!(
        "{}{}{}",
        &line[..digits_start],
        id,
        &line[digits_start + digits..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_rewriting() {
        assert_eq!(
            rewrite_job_id("{\"job\":7,\"state\":\"done\"}", 42),
            "{\"job\":42,\"state\":\"done\"}"
        );
        assert_eq!(
            rewrite_job_id("{\"event\":\"heartbeat\"}", 42),
            "{\"event\":\"heartbeat\"}",
            "lines without a job id pass through"
        );
        assert_eq!(rewrite_job_id("{\"job\":}", 9), "{\"job\":}");
    }

    #[test]
    fn prom_value_reads_unlabelled_samples() {
        let text =
            "# HELP x y\npgl_engine_terms_applied_total 1500\npgl_engine_updates_per_sec 12.5\n";
        assert_eq!(
            prom_value(text, "pgl_engine_terms_applied_total"),
            Some(1500.0)
        );
        assert_eq!(prom_value(text, "pgl_engine_updates_per_sec"), Some(12.5));
        assert_eq!(prom_value(text, "pgl_engine_running_jobs"), None);
    }

    #[test]
    fn worker_digest_reads_stats_by_path() {
        // The graph store's block comes first and carries its own
        // hits/misses; the digest must still take the layout cache's.
        let body = br#"{"graphs":{"parses":2,"hits":40,"misses":9},
            "jobs":{"queued":3,"running":1,"done":7,"failed":4},
            "cache":{"hits":5,"misses":6}}"#;
        let d = WorkerDigest::from_stats(body);
        assert_eq!((d.queued, d.running, d.done, d.failed), (3, 1, 7, 4));
        assert_eq!(d.parses, 2);
        assert_eq!((d.cache_hits, d.cache_misses), (5, 6));
        let garbled = WorkerDigest::from_stats(b"{\"jobs\":{\"queued\":3");
        assert_eq!((garbled.queued, garbled.cache_hits), (0, 0));
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = CoordinatorConfig::default();
        assert!(cfg.heartbeat >= Duration::from_millis(100));
        assert!(cfg.max_conns >= 1);
        assert!(cfg.journal_dir.is_none(), "journal is opt-in");
        assert_eq!(cfg.vault_max_bytes, 0, "vault cap off by default");
    }

    #[test]
    fn stream_cursor_resumes_same_run_and_dedupes_replays() {
        let mut cursor = StreamCursor::new();
        assert_eq!(cursor.attach("w1", 7), 0, "first attach starts at 0");
        assert!(cursor.admit("{\"job\":7,\"seq\":0,\"event\":\"state\"}"));
        assert!(cursor.admit("{\"job\":7,\"seq\":1,\"event\":\"progress\"}"));
        assert!(
            cursor.admit("{\"event\":\"heartbeat\"}"),
            "seq-less always pass"
        );
        // Connection drops; re-attach to the SAME run resumes past 1.
        assert_eq!(cursor.attach("w1", 7), 2);
        assert!(
            !cursor.admit("{\"job\":7,\"seq\":1,\"event\":\"progress\"}"),
            "replayed lines are deduped"
        );
        assert!(cursor.admit("{\"job\":7,\"seq\":2,\"event\":\"progress\"}"));
    }

    #[test]
    fn stream_cursor_resets_for_a_new_run() {
        let mut cursor = StreamCursor::new();
        assert_eq!(cursor.attach("w1", 7), 0);
        assert!(cursor.admit("{\"job\":7,\"seq\":5,\"event\":\"progress\"}"));
        // Requeued onto another worker (or a new remote id): new run,
        // replay from 0 — its seq 0 must not be mistaken for a dupe.
        assert_eq!(cursor.attach("w2", 3), 0);
        assert!(cursor.admit("{\"job\":3,\"seq\":0,\"event\":\"state\"}"));
        assert_eq!(cursor.attach("w2", 3), 1, "subsequent re-attach resumes");
    }
}
