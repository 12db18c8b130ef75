//! Job model: what a layout request looks like, how its lifecycle is
//! reported, and the per-job event log that feeds streaming clients.

use crate::spec::{JobSpec, Priority};
use layout_core::{LayoutConfig, LayoutControl};
use pangraph::store::ContentHash;
use pangraph::{Layout2D, LeanGraph};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic job identifier, unique within one service instance.
pub type JobId = u64;

/// Lifecycle of a job: `Queued → Running → Done | Failed | Cancelled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is laying the graph out.
    Running,
    /// Finished; the result is available.
    Done,
    /// Parse or engine failure — or a queue TTL expiry; see the error
    /// message.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Lower-case wire name, used in JSON and TSV reports.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// How a layout request names its graph.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// Inline GFA text (the back-compat upload-per-request form). The
    /// service interns it into the graph store at submit time, so even
    /// inline graphs are parsed at most once.
    Gfa(Arc<String>),
    /// Reference to a graph previously interned in the service's graph
    /// store (`POST /graphs`): no text, no re-hash, no re-parse.
    Stored(ContentHash),
}

/// What happened, as recorded in a job's event log.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Lifecycle transition into `JobState`.
    State(JobState),
    /// Progress advanced to this fraction.
    Progress(f64),
    /// Periodic live engine telemetry sample (only while running; cached
    /// jobs never emit these).
    Metrics {
        /// Attractive/repulsive terms applied so far.
        terms_applied: u64,
        /// Update throughput since the previous sample.
        updates_per_sec: f64,
        /// Engine iteration the sample was taken at.
        iteration: u32,
        /// Total iterations scheduled.
        iteration_max: u32,
    },
}

/// One phase of a job's lifecycle, as wall-clock offsets from
/// submission. `dur_us` is `None` while the phase is still open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Phase name (`queue_wait`, `layout`, ...).
    pub phase: &'static str,
    /// Microseconds from job submission to phase start.
    pub start_us: u64,
    /// Phase duration in microseconds; `None` while in flight.
    pub dur_us: Option<u64>,
}

/// Ordered span timeline of one job: submitted → graph resolution →
/// cache probe → queue wait → layout → spill. Recording sites append in
/// chronological order, so `spans()` *is* the timeline. Exposed via
/// `GET /v1/jobs/<id>/trace` and summarized in the job status JSON.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    spans: Vec<TraceSpan>,
}

impl JobTrace {
    /// Append a completed span.
    pub(crate) fn record(&mut self, phase: &'static str, start_us: u64, dur_us: u64) {
        self.spans.push(TraceSpan {
            phase,
            start_us,
            dur_us: Some(dur_us),
        });
    }

    /// Open a span; [`JobTrace::end`] closes it.
    pub(crate) fn begin(&mut self, phase: &'static str, start_us: u64) {
        self.spans.push(TraceSpan {
            phase,
            start_us,
            dur_us: None,
        });
    }

    /// Close the most recent open span named `phase` at `end_us` and
    /// return its duration. No-op (returning `None`) when no such span
    /// is open.
    pub(crate) fn end(&mut self, phase: &'static str, end_us: u64) -> Option<u64> {
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.phase == phase && s.dur_us.is_none())?;
        let dur = end_us.saturating_sub(span.start_us);
        span.dur_us = Some(dur);
        Some(dur)
    }

    /// The timeline, in chronological order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Duration of the most recent *closed* span named `phase`.
    pub fn phase_us(&self, phase: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.phase == phase)
            .and_then(|s| s.dur_us)
    }

    /// Sum of all closed span durations.
    pub fn total_us(&self) -> u64 {
        self.spans.iter().filter_map(|s| s.dur_us).sum()
    }
}

/// One sequence-numbered entry in a job's event log. Sequence numbers
/// start at 0 and are dense, so a streaming client that saw seq `n`
/// resumes with `from=n+1` losslessly.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Position in this job's log (0-based, dense).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Progress events are coalesced to this granularity so a million-
/// iteration run logs ~100 events, not a million.
const PROGRESS_EVENT_STEP: f64 = 0.01;

/// Internal job record, owned by the service's job table. Jobs never
/// hold GFA text: the graph rides along as a shared parsed artifact and
/// is dropped the moment the job reaches a terminal state.
pub(crate) struct Job {
    pub id: JobId,
    pub engine: String,
    pub config: LayoutConfig,
    pub batch_size: usize,
    /// Scheduling band the job was submitted under.
    pub priority: Priority,
    /// Fair-share key the scheduler grouped this job by.
    pub client: String,
    /// Queue deadline (`submitted + queue_ttl`): a job still queued past
    /// this instant is failed instead of run.
    pub deadline: Option<Instant>,
    /// Identity of the graph (content hash of its source GFA bytes).
    pub graph_hash: ContentHash,
    /// The parsed graph, shared with the store and any sibling jobs.
    /// `Some` while queued/running; dropped once terminal so retained
    /// job records cost metadata, not graph payloads. Deleting the
    /// graph from the store does not invalidate this.
    pub graph: Option<Arc<LeanGraph>>,
    /// Content hash computed once at submit; reused when the finished
    /// layout is inserted into the cache.
    pub cache_key: crate::cache::CacheKey,
    pub state: JobState,
    pub error: Option<String>,
    pub result: Option<Arc<Layout2D>>,
    /// Served from the layout cache without recomputation.
    pub cached: bool,
    pub control: Arc<LayoutControl>,
    pub submitted: Instant,
    pub finished: Option<Instant>,
    /// Node count, known from submit time (graphs are parsed before
    /// jobs are enqueued).
    pub nodes: usize,
    /// Sequence-numbered log of state transitions and (coalesced)
    /// progress updates; what `GET /v1/jobs/<id>/events` streams.
    pub events: Vec<JobEvent>,
    /// Progress value of the last logged progress event (coalescing).
    last_progress_event: f64,
    /// Phase timeline (`GET /v1/jobs/<id>/trace`).
    pub trace: JobTrace,
}

impl Job {
    /// A record in its initial state. Pushes no events; the service
    /// logs the birth state (`Queued`, or `Done` for cache hits) so the
    /// log always starts with a state event at seq 0.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: JobId,
        spec: &JobSpec,
        client: String,
        graph_hash: ContentHash,
        graph: Option<Arc<LeanGraph>>,
        cache_key: crate::cache::CacheKey,
        state: JobState,
        nodes: usize,
        result: Option<Arc<Layout2D>>,
        now: Instant,
    ) -> Self {
        let cached = state == JobState::Done;
        Self {
            id,
            engine: spec.engine.clone(),
            config: spec.config.clone(),
            batch_size: spec.batch_size,
            priority: spec.priority,
            client,
            deadline: spec.queue_ttl.map(|ttl| now + ttl),
            graph_hash,
            graph,
            cache_key,
            state,
            error: None,
            result,
            cached,
            control: Arc::new(LayoutControl::new()),
            submitted: now,
            finished: cached.then_some(now),
            nodes,
            events: Vec::new(),
            last_progress_event: 0.0,
            trace: JobTrace::default(),
        }
    }

    /// Fail the job if it is still queued past its queue TTL: set the
    /// state, the expiry error and the finish time, drop the graph and
    /// log the state event. Returns whether it expired.
    pub(crate) fn expire_if_overdue(&mut self, now: Instant) -> bool {
        let overdue =
            self.state == JobState::Queued && self.deadline.is_some_and(|deadline| now > deadline);
        if overdue {
            self.state = JobState::Failed;
            self.error = Some(format!(
                "expired in queue after {} ms (queue TTL exceeded)",
                now.duration_since(self.submitted).as_millis()
            ));
            self.finished = Some(now);
            self.graph = None;
            self.push_state_event(JobState::Failed);
        }
        overdue
    }

    /// Append a state-transition event.
    pub(crate) fn push_state_event(&mut self, state: JobState) {
        let seq = self.events.len() as u64;
        self.events.push(JobEvent {
            seq,
            kind: EventKind::State(state),
        });
    }

    /// Append a progress event if it advances at least
    /// [`PROGRESS_EVENT_STEP`] past the last one (completion always
    /// logs). Returns whether an event was appended.
    pub(crate) fn push_progress_event(&mut self, progress: f64) -> bool {
        let significant = progress >= self.last_progress_event + PROGRESS_EVENT_STEP
            || (progress >= 1.0 && self.last_progress_event < 1.0);
        if !significant {
            return false;
        }
        self.last_progress_event = progress;
        let seq = self.events.len() as u64;
        self.events.push(JobEvent {
            seq,
            kind: EventKind::Progress(progress),
        });
        true
    }

    /// Append a live-telemetry sample. Time gating is the caller's job
    /// (the service's worker observer samples at most a few per second).
    pub(crate) fn push_metrics_event(
        &mut self,
        terms_applied: u64,
        updates_per_sec: f64,
        iteration: u32,
        iteration_max: u32,
    ) {
        let seq = self.events.len() as u64;
        self.events.push(JobEvent {
            seq,
            kind: EventKind::Metrics {
                terms_applied,
                updates_per_sec,
                iteration,
                iteration_max,
            },
        });
    }

    pub(crate) fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            state: self.state,
            progress: match self.state {
                JobState::Done => 1.0,
                JobState::Queued => 0.0,
                _ => self.control.progress(),
            },
            engine: self.engine.clone(),
            priority: self.priority,
            client: self.client.clone(),
            cached: self.cached,
            error: self.error.clone(),
            nodes: self.nodes,
            graph: self.graph_hash,
            wall_ms: self
                .finished
                .unwrap_or_else(Instant::now)
                .duration_since(self.submitted)
                .as_millis(),
            trace: self.trace.clone(),
        }
    }
}

/// Point-in-time public view of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job identifier.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Fraction complete in `[0, 1]` (1.0 exactly when `Done`).
    pub progress: f64,
    /// Requested engine name.
    pub engine: String,
    /// Scheduling band.
    pub priority: Priority,
    /// Fair-share key the job was scheduled under.
    pub client: String,
    /// Whether the result came from the layout cache.
    pub cached: bool,
    /// Failure message when `state == Failed` (engine errors and queue
    /// TTL expiries); `None` in every other state, including
    /// `Cancelled`.
    pub error: Option<String>,
    /// Graph node count.
    pub nodes: usize,
    /// Content hash identifying the graph.
    pub graph: ContentHash,
    /// Milliseconds from submission to completion (or to now).
    pub wall_ms: u128,
    /// Phase timeline recorded so far (see [`JobTrace`]).
    pub trace: JobTrace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states_are_terminal() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }

    #[test]
    fn wire_names_are_lower_case() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(s.as_str(), s.as_str().to_lowercase());
        }
    }

    #[test]
    fn request_constructors_pick_the_right_graph_spec() {
        assert!(matches!(
            JobSpec::new("cpu", "S\t1\tA\n").graph,
            GraphSpec::Gfa(_)
        ));
        let id = pangraph::store::content_hash(b"g");
        match JobSpec::by_ref("gpu", id).graph {
            GraphSpec::Stored(h) => assert_eq!(h, id),
            other => panic!("expected Stored, got {other:?}"),
        }
    }

    fn bare_job() -> Job {
        let spec = JobSpec::new("cpu", "S\t1\tA\n");
        Job::new(
            1,
            &spec,
            "anon".into(),
            pangraph::store::content_hash(b"g"),
            None,
            crate::cache::cache_key(
                "cpu",
                &LayoutConfig::default(),
                1024,
                pangraph::store::content_hash(b"g"),
            ),
            JobState::Queued,
            0,
            None,
            Instant::now(),
        )
    }

    #[test]
    fn event_log_sequences_are_dense_and_ordered() {
        let mut job = bare_job();
        job.push_state_event(JobState::Queued);
        job.push_state_event(JobState::Running);
        assert!(job.push_progress_event(0.5));
        job.push_state_event(JobState::Done);
        let seqs: Vec<u64> = job.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn progress_events_are_coalesced() {
        let mut job = bare_job();
        assert!(job.push_progress_event(0.02));
        assert!(!job.push_progress_event(0.021), "sub-step delta coalesced");
        assert!(!job.push_progress_event(0.025));
        assert!(job.push_progress_event(0.04), "full step logs");
        assert!(job.push_progress_event(1.0), "completion always logs");
        assert!(!job.push_progress_event(1.0), "but only once");
        assert_eq!(job.events.len(), 3);
    }

    #[test]
    fn traces_order_spans_and_close_the_right_one() {
        let mut t = JobTrace::default();
        t.record("graph_parse", 0, 1_500);
        t.record("cache_probe", 1_500, 40);
        t.begin("queue_wait", 1_540);
        assert_eq!(t.phase_us("queue_wait"), None, "still open");
        assert_eq!(t.end("queue_wait", 9_540), Some(8_000));
        assert_eq!(t.end("queue_wait", 10_000), None, "already closed");
        t.begin("layout", 9_540);
        assert_eq!(t.end("layout", 1_009_540), Some(1_000_000));
        assert_eq!(t.phase_us("graph_parse"), Some(1_500));
        assert_eq!(t.total_us(), 1_500 + 40 + 8_000 + 1_000_000);
        // Recording order is the timeline: starts are non-decreasing.
        let starts: Vec<u64> = t.spans().iter().map(|s| s.start_us).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn metrics_events_extend_the_dense_sequence() {
        let mut job = bare_job();
        job.push_state_event(JobState::Queued);
        job.push_metrics_event(5_000, 2.5e6, 3, 30);
        job.push_state_event(JobState::Done);
        assert_eq!(job.events.len(), 3);
        assert_eq!(job.events[1].seq, 1);
        match &job.events[1].kind {
            EventKind::Metrics {
                terms_applied,
                updates_per_sec,
                iteration,
                iteration_max,
            } => {
                assert_eq!(*terms_applied, 5_000);
                assert!((updates_per_sec - 2.5e6).abs() < 1.0);
                assert_eq!((*iteration, *iteration_max), (3, 30));
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn status_carries_scheduling_identity() {
        let mut spec = JobSpec::new("cpu", "S\t1\tA\n").priority(Priority::Bulk);
        spec.client = Some("ignored-here".into());
        let job = Job::new(
            7,
            &spec,
            "carol".into(),
            pangraph::store::content_hash(b"g"),
            None,
            crate::cache::cache_key(
                "cpu",
                &LayoutConfig::default(),
                1024,
                pangraph::store::content_hash(b"g"),
            ),
            JobState::Queued,
            0,
            None,
            Instant::now(),
        );
        let status = job.status();
        assert_eq!(status.priority, Priority::Bulk);
        assert_eq!(status.client, "carol");
        assert_eq!(status.error, None);
    }
}
