//! Write-ahead job journal: coordinator durability.
//!
//! PR 9 left the coordinator's accepted-job state entirely in memory —
//! a restart silently forgot every queued job. This module gives the
//! coordinator a crash-safe spine: one small append-only ops log,
//! replayed at boot, compacted into a snapshot (temp + rename) when it
//! outgrows the live state.
//!
//! ## On-disk format
//!
//! `<journal-dir>/coord-journal.log`, UTF-8, one record per line:
//!
//! ```text
//! pgl-coord-journal/1 epoch=<n>          header; epoch bumps every open
//! N <id>                                   highest job id issued (snapshots)
//! G <hex> <nodes> <paths> <steps> <bytes>  graph vaulted (spill in vault/)
//! D <hex>                                  graph deleted or evicted
//! A <id> <query>                           job accepted (JobSpec wire form)
//! F <id> <worker> <remote>                 job forwarded to a worker
//! T <id> <state> [<worker> <remote>]       terminal outcome
//! ```
//!
//! Every field is whitespace-free by construction: graph ids are hex,
//! worker addresses are validated against whitespace at registration,
//! job queries are percent-encoded, and states are single words — so
//! records split on spaces unambiguously. Torn trailing lines (a crash
//! mid-append) are skipped on replay.
//!
//! ## Durability contract
//!
//! * `A` (accept) and `G` (graph vaulted) records are **fsync'd before
//!   the coordinator acknowledges** the submit/upload: an accepted job
//!   or interned graph survives `kill -9`.
//! * `F`/`T`/`D` records are appended without fsync: losing the tail
//!   means a forwarded job replays as forwarded-or-queued and is
//!   resolved adopt-or-requeue at boot — duplicated work at worst
//!   (layouts are deterministic per spec), never lost work.
//! * The journal epoch increments on every open and is advertised in
//!   heartbeat replies, so workers observe coordinator restarts.
//!
//! The journal keeps a shadow of the live state (jobs and vaulted
//! graphs) so compaction needs no callback into the coordinator: a
//! snapshot is the header plus one `G` per live graph, one `A` per
//! journaled job, and the job's latest `F`/`T` if any.
//!
//! Terminal jobs are retained up to `MAX_FINISHED_JOBS`, as in the
//! coordinator's job table: each `T` record, appended or replayed,
//! evicts the oldest terminal job beyond the cap. Snapshots write the
//! terminal jobs last, in retirement order, so a replay evicts in the
//! same order; a log written before the cap existed replays to its
//! newest `MAX_FINISHED_JOBS` terminal jobs. A terminal job stays
//! terminal: a later `F` or `T` for it changes nothing. The `N` record
//! keeps the highest job id issued through evictions, so a restarted
//! coordinator never hands out an evicted job's id again.

use crate::job::JobId;
use crate::service::FinishedJobs;
use pangraph::store::{write_atomic, ContentHash};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Log file name inside `--journal-dir`.
const JOURNAL_FILE: &str = "coord-journal.log";

/// Compaction threshold: snapshot when the log holds more than
/// `4 * live + SLACK` lines, so it stays within a constant factor of
/// the live state.
const COMPACT_SLACK: usize = 64;

fn header(epoch: u64) -> String {
    format!("pgl-coord-journal/1 epoch={epoch}\n")
}

/// A vaulted graph's metadata: everything the coordinator needs to
/// price and route jobs for it without re-parsing (the GFA bytes live
/// in the vault directory, not the journal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRecord {
    /// Content hash of the GFA bytes (names the spill file).
    pub id: ContentHash,
    /// Node count, from the validating parse at intern time.
    pub nodes: usize,
    /// Path count.
    pub paths: usize,
    /// Total path steps (prices jobs for the scheduler).
    pub steps: usize,
    /// GFA byte length (sizes the vault for eviction accounting).
    pub bytes: u64,
}

/// Where a journaled job stood at the last relevant record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobRecordState {
    /// Accepted, not (yet) forwarded: replays into the scheduler.
    Queued,
    /// Last seen forwarded: replays as adopt-or-requeue against the
    /// recorded owner.
    Forwarded {
        /// Worker address the job was forwarded to.
        worker: String,
        /// The worker's local job id.
        remote: JobId,
    },
    /// Finished before the restart; kept so clients can still poll it
    /// (and `/result` can still proxy when a worker ran it).
    Terminal {
        /// Final state (`done`, `failed`, `cancelled`, `expired`).
        state: String,
        /// Worker that ran it, when one did.
        worker: Option<String>,
        /// Its id on that worker.
        remote: Option<JobId>,
    },
}

/// One journaled job: the accepted wire form plus its latest state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Coordinator-side job id.
    pub id: JobId,
    /// `JobSpec::to_query()` at accept time — the full wire form
    /// (engine, graph reference, config, priority, client, TTL).
    pub query: String,
    /// Latest journaled state.
    pub state: JobRecordState,
}

/// Lifetime operation counters, exported on `/v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended.
    pub appends: u64,
    /// fsyncs issued (accepts and graph interns).
    pub syncs: u64,
    /// Snapshot compactions, including the one at every open.
    pub snapshots: u64,
}

/// The coordinator's write-ahead journal. All methods are `&mut self`;
/// the coordinator drives it behind a mutex.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Append handle, reopened after each snapshot.
    file: Option<File>,
    epoch: u64,
    /// Shadow of the live state, for compaction and boot replay.
    jobs: HashMap<JobId, JobRecord>,
    graphs: HashMap<ContentHash, GraphRecord>,
    /// Terminal jobs in `jobs`, in retirement order, oldest first.
    finished: FinishedJobs,
    /// Highest job id ever accepted, evicted jobs included.
    max_id: JobId,
    /// Lines in the on-disk log; drives compaction.
    log_lines: usize,
    /// Approximate on-disk log size.
    bytes: u64,
    /// Jobs found in the log at open (terminal ones included).
    replayed: usize,
    last_snapshot: Instant,
    stats: JournalStats,
}

impl Journal {
    /// Open (or create) the journal in `dir`, replay whatever a prior
    /// incarnation logged, bump the epoch, and write a fresh compacted
    /// snapshot under the new epoch. Read the recovered state with
    /// [`Journal::live_jobs`] / [`Journal::live_graphs`].
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut journal = Self {
            path,
            file: None,
            epoch: 0,
            jobs: HashMap::new(),
            graphs: HashMap::new(),
            finished: FinishedJobs::default(),
            max_id: 0,
            log_lines: 0,
            bytes: 0,
            replayed: 0,
            last_snapshot: Instant::now(),
            stats: JournalStats::default(),
        };
        if let Ok(text) = std::fs::read_to_string(&journal.path) {
            journal.replay(&text);
        }
        journal.replayed = journal.jobs.len();
        journal.epoch += 1;
        // Boot snapshot: compacts the inherited log and persists the
        // bumped epoch in one atomic rename.
        journal.snapshot()?;
        Ok(journal)
    }

    fn replay(&mut self, text: &str) {
        let mut lines = text.lines();
        let Some(head) = lines.next() else { return };
        let Some(epoch) = head
            .strip_prefix("pgl-coord-journal/1 epoch=")
            .and_then(|e| e.trim().parse::<u64>().ok())
        else {
            // Foreign or corrupt header: start over. The old file is
            // overwritten by the boot snapshot.
            return;
        };
        self.epoch = epoch;
        for line in lines {
            // Torn or foreign lines (crash mid-append) are skipped, so
            // one bad tail never poisons the records before it.
            let mut f = line.split_ascii_whitespace();
            match f.next() {
                Some("G") => {
                    let (Some(id), Some(nodes), Some(paths), Some(steps), Some(bytes)) = (
                        f.next().and_then(ContentHash::from_hex),
                        f.next().and_then(|v| v.parse().ok()),
                        f.next().and_then(|v| v.parse().ok()),
                        f.next().and_then(|v| v.parse().ok()),
                        f.next().and_then(|v| v.parse().ok()),
                    ) else {
                        continue;
                    };
                    self.graphs.insert(
                        id,
                        GraphRecord {
                            id,
                            nodes,
                            paths,
                            steps,
                            bytes,
                        },
                    );
                }
                Some("D") => {
                    if let Some(id) = f.next().and_then(ContentHash::from_hex) {
                        self.graphs.remove(&id);
                    }
                }
                Some("N") => {
                    if let Some(id) = f.next().and_then(|v| v.parse::<JobId>().ok()) {
                        self.max_id = self.max_id.max(id);
                    }
                }
                Some("A") => {
                    let (Some(id), Some(query)) =
                        (f.next().and_then(|v| v.parse::<JobId>().ok()), f.next())
                    else {
                        continue;
                    };
                    self.max_id = self.max_id.max(id);
                    self.jobs.insert(
                        id,
                        JobRecord {
                            id,
                            query: query.to_string(),
                            state: JobRecordState::Queued,
                        },
                    );
                }
                Some("F") => {
                    let (Some(id), Some(worker), Some(remote)) = (
                        f.next().and_then(|v| v.parse::<JobId>().ok()),
                        f.next(),
                        f.next().and_then(|v| v.parse::<JobId>().ok()),
                    ) else {
                        continue;
                    };
                    self.set_forwarded(id, worker, remote);
                }
                Some("T") => {
                    let (Some(id), Some(state)) =
                        (f.next().and_then(|v| v.parse::<JobId>().ok()), f.next())
                    else {
                        continue;
                    };
                    let worker = f.next().map(str::to_string);
                    let remote = f.next().and_then(|v| v.parse::<JobId>().ok());
                    self.set_terminal(id, state, worker, remote);
                }
                _ => {}
            }
        }
    }

    /// The journal epoch: bumped on every open, advertised in heartbeat
    /// replies so workers detect coordinator restarts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Jobs found in the log at open (terminal ones included).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The highest job id ever journaled, evicted jobs included: new ids
    /// must start above it.
    pub fn max_job_id(&self) -> JobId {
        self.max_id
    }

    /// Approximate on-disk size of the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Seconds since the last snapshot compaction.
    pub fn snapshot_age_s(&self) -> u64 {
        self.last_snapshot.elapsed().as_secs()
    }

    /// Lifetime operation counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The live (non-deleted) vaulted graphs, for boot replay.
    pub fn live_graphs(&self) -> Vec<GraphRecord> {
        let mut v: Vec<GraphRecord> = self.graphs.values().cloned().collect();
        v.sort_by_key(|g| g.id);
        v
    }

    /// Every journaled job with its latest state, for boot replay: the
    /// unfinished ones by id, then the terminal ones in retirement
    /// order (at most `MAX_FINISHED_JOBS` of them).
    pub fn live_jobs(&self) -> Vec<JobRecord> {
        let mut v: Vec<JobRecord> = self
            .jobs
            .values()
            .filter(|j| !matches!(j.state, JobRecordState::Terminal { .. }))
            .cloned()
            .collect();
        v.sort_by_key(|j| j.id);
        v.extend(
            self.finished
                .iter()
                .filter_map(|id| self.jobs.get(id))
                .cloned(),
        );
        v
    }

    /// Journal a job accept: the full wire-form query, fsync'd before
    /// the caller acknowledges the submit.
    pub fn accept(&mut self, id: JobId, query: &str) {
        self.max_id = self.max_id.max(id);
        self.jobs.insert(
            id,
            JobRecord {
                id,
                query: query.to_string(),
                state: JobRecordState::Queued,
            },
        );
        self.append(&format!("A {id} {query}\n"), true);
    }

    /// Journal a forward: `id` is running on `worker` as `remote`.
    pub fn forwarded(&mut self, id: JobId, worker: &str, remote: JobId) {
        self.set_forwarded(id, worker, remote);
        self.append(&format!("F {id} {worker} {remote}\n"), false);
    }

    /// Journal a terminal outcome, evicting the oldest terminal job
    /// beyond `MAX_FINISHED_JOBS`.
    pub fn terminal(
        &mut self,
        id: JobId,
        state: &str,
        worker: Option<&str>,
        remote: Option<JobId>,
    ) {
        self.set_terminal(id, state, worker.map(str::to_string), remote);
        let tail = match (worker, remote) {
            (Some(w), Some(r)) => format!(" {w} {r}"),
            _ => String::new(),
        };
        self.append(&format!("T {id} {state}{tail}\n"), false);
    }

    /// Record a known, unfinished job's forward.
    fn set_forwarded(&mut self, id: JobId, worker: &str, remote: JobId) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if !matches!(job.state, JobRecordState::Terminal { .. }) {
                job.state = JobRecordState::Forwarded {
                    worker: worker.to_string(),
                    remote,
                };
            }
        }
    }

    /// Record a known, unfinished job's terminal state and evict beyond
    /// the retention cap.
    fn set_terminal(
        &mut self,
        id: JobId,
        state: &str,
        worker: Option<String>,
        remote: Option<JobId>,
    ) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if matches!(job.state, JobRecordState::Terminal { .. }) {
            return;
        }
        job.state = JobRecordState::Terminal {
            state: state.to_string(),
            worker,
            remote,
        };
        for old in self.finished.retire(id) {
            self.jobs.remove(&old);
        }
    }

    /// Journal a graph intern (its GFA spill just landed in the vault
    /// directory), fsync'd so by-reference jobs never outlive their
    /// graph's metadata.
    pub fn graph_vaulted(&mut self, rec: &GraphRecord) {
        let line = format!(
            "G {} {} {} {} {}\n",
            rec.id.hex(),
            rec.nodes,
            rec.paths,
            rec.steps,
            rec.bytes
        );
        self.graphs.insert(rec.id, rec.clone());
        self.append(&line, true);
    }

    /// Journal a graph deletion or vault-cap eviction.
    pub fn graph_deleted(&mut self, id: ContentHash) {
        self.graphs.remove(&id);
        self.append(&format!("D {}\n", id.hex()), false);
    }

    fn append(&mut self, line: &str, sync: bool) {
        self.log_lines += 1;
        self.stats.appends += 1;
        if self.log_lines > 4 * (self.jobs.len() + self.graphs.len()) + COMPACT_SLACK {
            let _ = self.snapshot();
            return;
        }
        if self.file.is_none() {
            self.file = OpenOptions::new().append(true).open(&self.path).ok();
        }
        if let Some(f) = &mut self.file {
            if f.write_all(line.as_bytes()).is_ok() {
                self.bytes += line.len() as u64;
                if sync {
                    self.stats.syncs += 1;
                    let _ = f.sync_data();
                }
            }
        }
    }

    /// Rewrite the log as a compact snapshot (temp + rename): header,
    /// live graphs, then each retained job's accept plus its latest
    /// state, in [`Journal::live_jobs`] order.
    fn snapshot(&mut self) -> std::io::Result<()> {
        self.stats.snapshots += 1;
        let mut text = header(self.epoch);
        let mut lines = 0usize;
        if self.max_id > 0 {
            text.push_str(&format!("N {}\n", self.max_id));
            lines += 1;
        }
        for g in self.live_graphs() {
            text.push_str(&format!(
                "G {} {} {} {} {}\n",
                g.id.hex(),
                g.nodes,
                g.paths,
                g.steps,
                g.bytes
            ));
            lines += 1;
        }
        for j in self.live_jobs() {
            text.push_str(&format!("A {} {}\n", j.id, j.query));
            lines += 1;
            match &j.state {
                JobRecordState::Queued => {}
                JobRecordState::Forwarded { worker, remote } => {
                    text.push_str(&format!("F {} {worker} {remote}\n", j.id));
                    lines += 1;
                }
                JobRecordState::Terminal {
                    state,
                    worker,
                    remote,
                } => {
                    let tail = match (worker, remote) {
                        (Some(w), Some(r)) => format!(" {w} {r}"),
                        _ => String::new(),
                    };
                    text.push_str(&format!("T {} {state}{tail}\n", j.id));
                    lines += 1;
                }
            }
        }
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        let write = std::fs::write(&tmp, &text).and_then(|()| {
            // fsync through the rename so the compacted log (and the
            // bumped epoch at open) is as durable as the records were.
            File::open(&tmp).and_then(|f| f.sync_data())?;
            std::fs::rename(&tmp, &self.path)
        });
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.file = None; // reopen lazily against the new inode
        self.log_lines = lines;
        self.bytes = text.len() as u64;
        self.last_snapshot = Instant::now();
        Ok(())
    }
}

/// Path of a graph's raw-GFA spill inside the vault directory. The
/// vault spills **GFA bytes** (not `.lean`): the graph's identity is
/// the content hash of its GFA, and push-on-miss re-uploads those same
/// bytes to workers, so both sides keep agreeing on the id by
/// construction. Parse-derived counts ride in the journal's `G`
/// records instead, so a restart never re-parses.
pub fn vault_path(dir: &Path, id: ContentHash) -> PathBuf {
    dir.join(format!("{}.gfa", id.hex()))
}

/// Atomically write a graph's GFA bytes into the vault directory
/// ([`write_atomic`]: concurrent identical uploads each get their own
/// temp file, and the last rename wins with the same bytes).
pub fn write_vault_gfa(dir: &Path, id: ContentHash, gfa: &str) -> bool {
    write_atomic(&vault_path(dir, id), gfa.as_bytes())
}

/// Reload a graph's GFA bytes from the vault, verifying the content
/// hash so a corrupt or truncated spill surfaces as absent rather than
/// as a wrong graph pushed to workers.
pub fn read_vault_gfa(dir: &Path, id: ContentHash) -> Option<String> {
    let text = std::fs::read_to_string(vault_path(dir, id)).ok()?;
    (pangraph::store::content_hash(text.as_bytes()) == id).then_some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MAX_FINISHED_JOBS;
    use pangraph::store::content_hash;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "pgl_journal_{tag}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn accepted_jobs_and_graphs_survive_reopen() {
        let dir = TempDir::new("roundtrip");
        let graph = GraphRecord {
            id: content_hash(b"g1"),
            nodes: 10,
            paths: 2,
            steps: 40,
            bytes: 123,
        };
        {
            let mut j = Journal::open(&dir.0).unwrap();
            assert_eq!(j.epoch(), 1);
            j.graph_vaulted(&graph);
            j.accept(1, "engine=cpu&graph=00ff&iters=5");
            j.accept(2, "engine=cpu&graph=00ff&iters=9");
            j.forwarded(2, "127.0.0.1:9999", 7);
            j.accept(3, "engine=cpu&graph=00ff");
            j.terminal(3, "done", Some("127.0.0.1:9999"), Some(8));
        }
        let j = Journal::open(&dir.0).unwrap();
        assert_eq!(j.epoch(), 2, "epoch bumps on every open");
        assert_eq!(j.replayed(), 3);
        assert_eq!(j.live_graphs(), vec![graph]);
        let jobs = j.live_jobs();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].state, JobRecordState::Queued);
        assert_eq!(jobs[0].query, "engine=cpu&graph=00ff&iters=5");
        assert_eq!(
            jobs[1].state,
            JobRecordState::Forwarded {
                worker: "127.0.0.1:9999".into(),
                remote: 7
            }
        );
        assert_eq!(
            jobs[2].state,
            JobRecordState::Terminal {
                state: "done".into(),
                worker: Some("127.0.0.1:9999".into()),
                remote: Some(8)
            }
        );
    }

    #[test]
    fn deleted_graphs_do_not_replay() {
        let dir = TempDir::new("deleted");
        {
            let mut j = Journal::open(&dir.0).unwrap();
            j.graph_vaulted(&GraphRecord {
                id: content_hash(b"a"),
                nodes: 1,
                paths: 1,
                steps: 1,
                bytes: 1,
            });
            j.graph_vaulted(&GraphRecord {
                id: content_hash(b"b"),
                nodes: 2,
                paths: 1,
                steps: 2,
                bytes: 1,
            });
            j.graph_deleted(content_hash(b"a"));
        }
        let j = Journal::open(&dir.0).unwrap();
        let live = j.live_graphs();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, content_hash(b"b"));
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let dir = TempDir::new("torn");
        {
            let mut j = Journal::open(&dir.0).unwrap();
            j.accept(1, "engine=cpu");
        }
        // Simulate a crash mid-append: garbage + a truncated record.
        {
            use std::io::Write;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.0.join(JOURNAL_FILE))
                .unwrap();
            write!(f, "A 2 engine=cpu\nA 9").unwrap();
        }
        let j = Journal::open(&dir.0).unwrap();
        let jobs = j.live_jobs();
        assert_eq!(
            jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2],
            "complete tail records replay, the torn one is dropped"
        );
    }

    #[test]
    fn log_compacts_past_the_threshold() {
        let dir = TempDir::new("compact");
        let mut j = Journal::open(&dir.0).unwrap();
        let snapshots_before = j.stats().snapshots;
        // One live job, hammered with state flips: far more log lines
        // than live records, so compaction must kick in.
        j.accept(1, "engine=cpu");
        for i in 0..200u64 {
            j.forwarded(1, "127.0.0.1:1", i);
        }
        assert!(j.stats().snapshots > snapshots_before, "compaction ran");
        let text = std::fs::read_to_string(dir.0.join(JOURNAL_FILE)).unwrap();
        let live_records = 1;
        assert!(
            text.lines().count() <= 4 * live_records + COMPACT_SLACK + 2,
            "log stays bounded by the live set: {} lines",
            text.lines().count()
        );
        // The compacted log still replays to the latest state.
        drop(j);
        let j = Journal::open(&dir.0).unwrap();
        assert_eq!(
            j.live_jobs()[0].state,
            JobRecordState::Forwarded {
                worker: "127.0.0.1:1".into(),
                remote: 199
            }
        );
    }

    #[test]
    fn vault_spill_roundtrip_verifies_hashes() {
        let dir = TempDir::new("vault");
        let gfa = "H\tVN:Z:1.0\nS\t1\tACGT\n";
        let id = content_hash(gfa.as_bytes());
        assert!(write_vault_gfa(&dir.0, id, gfa));
        assert_eq!(read_vault_gfa(&dir.0, id).as_deref(), Some(gfa));
        // A corrupt spill reads as absent, never as a wrong graph.
        std::fs::write(vault_path(&dir.0, id), "S\t9\tTTTT\n").unwrap();
        assert_eq!(read_vault_gfa(&dir.0, id), None);
    }

    /// The ids of a log's `T` records, in file order.
    fn terminal_ids(dir: &Path) -> Vec<JobId> {
        std::fs::read_to_string(dir.join(JOURNAL_FILE))
            .unwrap()
            .lines()
            .filter_map(|l| l.strip_prefix("T ")?.split(' ').next()?.parse().ok())
            .collect()
    }

    #[test]
    fn snapshots_keep_at_most_the_retention_cap_of_terminal_jobs() {
        let dir = TempDir::new("retention");
        let total = MAX_FINISHED_JOBS as JobId + 76;
        {
            let mut j = Journal::open(&dir.0).unwrap();
            for id in 1..=total {
                j.accept(id, "engine=cpu");
                j.terminal(id, "cancelled", None, None);
            }
            j.accept(total + 1, "engine=cpu");
            let terminal = j
                .live_jobs()
                .iter()
                .filter(|r| matches!(r.state, JobRecordState::Terminal { .. }))
                .count();
            assert_eq!(terminal, MAX_FINISHED_JOBS);
        }
        // Reopening writes a snapshot: only the newest terminal jobs, in
        // retirement order, and the queued job.
        let j = Journal::open(&dir.0).unwrap();
        let kept = terminal_ids(&dir.0);
        assert_eq!(kept, (77..=total).collect::<Vec<_>>());
        let jobs = j.live_jobs();
        assert_eq!(jobs.len(), MAX_FINISHED_JOBS + 1);
        assert_eq!(jobs[0].id, total + 1, "unfinished jobs come first");
        assert_eq!(jobs[0].state, JobRecordState::Queued);
        assert_eq!(j.max_job_id(), total + 1);
    }

    #[test]
    fn an_uncapped_log_replays_its_newest_terminal_jobs() {
        // A log written before terminal jobs were capped: every job ever
        // accepted, no `N` record. The newest terminal jobs survive, and
        // the highest id is remembered past the evictions.
        let dir = TempDir::new("uncapped");
        let total = MAX_FINISHED_JOBS as JobId + 100;
        let mut text = header(3);
        for id in 1..=total {
            text.push_str(&format!("A {id} engine=cpu\n"));
        }
        // Retire in reverse id order, so retirement order differs from
        // id order: the lowest ids retired last and are the ones kept.
        for id in (1..=total).rev() {
            text.push_str(&format!("T {id} done 127.0.0.1:9 {id}\n"));
        }
        std::fs::write(dir.0.join(JOURNAL_FILE), text).unwrap();
        let j = Journal::open(&dir.0).unwrap();
        assert_eq!(j.epoch(), 4);
        let ids: Vec<JobId> = j.live_jobs().iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            (1..=MAX_FINISHED_JOBS as JobId).rev().collect::<Vec<_>>()
        );
        assert_eq!(j.max_job_id(), total);
        drop(j);
        let j = Journal::open(&dir.0).unwrap();
        assert_eq!(j.max_job_id(), total, "the N record survives a snapshot");
        assert_eq!(j.live_jobs().len(), MAX_FINISHED_JOBS);
    }

    #[test]
    fn a_finished_job_stays_finished_on_replay() {
        // A forward and a second outcome logged after a job finished
        // (a requeue racing its collection) change nothing on replay.
        let dir = TempDir::new("refinished");
        let log = format!(
            "{}A 1 engine=cpu\nT 1 done 127.0.0.1:9 5\nF 1 127.0.0.1:8 6\nT 1 failed\n",
            header(1)
        );
        std::fs::write(dir.0.join(JOURNAL_FILE), log).unwrap();
        let j = Journal::open(&dir.0).unwrap();
        let done = JobRecordState::Terminal {
            state: "done".into(),
            worker: Some("127.0.0.1:9".into()),
            remote: Some(5),
        };
        let jobs = j.live_jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, done);
        assert_eq!(terminal_ids(&dir.0), vec![1]);
    }

    #[test]
    fn foreign_header_starts_fresh() {
        let dir = TempDir::new("foreign");
        std::fs::write(dir.0.join(JOURNAL_FILE), "not-a-journal\nA 1 engine=cpu\n").unwrap();
        let j = Journal::open(&dir.0).unwrap();
        assert_eq!(j.epoch(), 1);
        assert!(j.live_jobs().is_empty());
    }
}
