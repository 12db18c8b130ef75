//! # pgl-service — multi-graph layout orchestration and serving
//!
//! The paper treats path-guided SGD as a batch computation over one
//! graph; pangenome pipelines do not. A release lays out dozens of
//! chromosome-scale graphs, dashboards re-request the same layouts, and
//! exploratory runs get abandoned halfway. This crate turns the
//! workspace's interchangeable engines (`layout_core::LayoutEngine`:
//! Hogwild CPU and PyTorch-style batch) into a **serving subsystem**:
//!
//! ```text
//!                 ┌─────────────────────────────────────────────────┐
//! POST /v1/graphs►│ graph store: content hash ─► parse ONCE ─►      │
//!                 │   Arc<LeanGraph>  (LRU + .lean disk tier)       │
//!                 │        ▲ shared by every job referencing it     │
//! POST /v1/jobs ─►│ LayoutService                                   │
//!  pgl batch ────►│  submit ──► layout cache (LRU + .lay disk tier) │
//!                 │     │ miss     keyed on graph hash + config     │
//!                 │     ▼                                           │
//!                 │  job queue ──► worker pool ──► EngineRegistry   │
//!                 │  (Queued →      (N threads)     cpu | batch     │
//!                 │   Running →                                     │
//!                 │   Done/Failed/Cancelled)                        │
//!                 └─────────────────────────────────────────────────┘
//! ```
//!
//! Layers, composable independently:
//!
//! * [`registry::EngineRegistry`] — engines addressable by name; one
//!   fresh engine per job, so jobs never share mutable state.
//! * [`cache::TieredStore`] — the one two-tier content-addressed store,
//!   an LRU over an optional disk tier of spill files, driven through
//!   one [`cache::get`] / [`cache::put`] pair that keeps file I/O
//!   outside its lock. The service owns two:
//!   - the **graph store** ([`cache::GraphStore`]): graphs are
//!     **upload-once, content-addressed artifacts**. `POST /v1/graphs`
//!     interns the GFA (hash → parse → `Arc<LeanGraph>`), and every
//!     subsequent layout request — across engines, configs, and even
//!     server restarts via the `.lean` disk tier — shares the single
//!     parsed form. Jobs carry graph references, never GFA text.
//!   - the **layout cache** ([`cache::LayoutCache`]), keyed on
//!     `(graph hash, engine, config)` ([`cache::cache_key`]): repeated
//!     requests are answered without recomputation, and by-reference
//!     requests are keyed without rehashing graph text.
//!
//!   With `ServiceConfig::cache_dir` both write through to disk
//!   (`.lay` files, and `.lean` files under `graphs/`), so a restarted
//!   server keeps hitting on old work; each disk tier is bounded by
//!   `ServiceConfig::cache_max_bytes` (oldest spills evicted first)
//!   and `ServiceConfig::cache_ttl`.
//! * [`spec::JobSpec`] — the typed `/v1` submission surface: engine,
//!   graph, layout overrides, a [`spec::Priority`] class
//!   (`interactive | normal | bulk`), a client identity, and an
//!   optional queue TTL, parsed and validated in one place
//!   ([`spec::parse_job_spec`]) with typed errors. It is the one type
//!   [`service::LayoutService::submit`] takes.
//! * [`service::LayoutService`] — the scheduled queue and worker pool
//!   with full lifecycle (`queued → running → done|failed|cancelled`),
//!   a per-job sequence-numbered event log (state transitions +
//!   coalesced progress, fed by a [`layout_core::LayoutControl`]
//!   observer) for streaming clients, and cancellation that stops
//!   engines at iteration boundaries. Malformed and zero-segment GFA
//!   is rejected at submit time, before a queue slot is spent. The
//!   queue itself is a [`sched::FairScheduler`]: strict priority
//!   bands, deficit round-robin across client keys within each band —
//!   one client's bulk flood cannot starve another's interactive job.
//! * [`http`] — the one dependency-free HTTP/1.1 server over
//!   `std::net`. It serves a route table supplied by its caller: the
//!   layout service's ([`http::HttpServer`], wired into the CLI as
//!   `pgl serve`) or the coordinator's. The API is `/v1` only
//!   (`POST /v1/jobs`, `GET /v1/jobs/<id>`, chunked
//!   `GET /v1/jobs/<id>/events` streaming, `POST /v1/graphs`,
//!   `GET /v1/result/<id>`, …); any other path is a `404`. Hardened for
//!   real traffic: a bounded connection queue drained by a fixed
//!   handler pool (overload ⇒ `503` + `Retry-After`), HTTP/1.1
//!   keep-alive, per-client token-bucket rate limiting
//!   ([`ratelimit::RateLimiter`], over-budget ⇒ `429`), and per-route
//!   latency histograms ([`httpmetrics::HttpMetrics`]). JSON goes
//!   through `pgio`'s one codec: every string written into an answer,
//!   event or log line is escaped by [`pgio::quote`], and every answer
//!   the coordinator, heartbeat and CLI read back is parsed with
//!   [`pgio::Json`].
//!   [`batchrun::run_batch`] is the same pool driven
//!   filesystem-to-filesystem as `pgl batch` — parsing each input
//!   exactly once even when fanned across multiple engines.
//! * [`cluster`] — multi-node scale-out: `pgl coordinator` speaks the
//!   same `/v1` surface through the same server (answering every
//!   request with `Connection: close`) and routes each job to the
//!   `pgl serve --join` worker that owns its graph under rendezvous
//!   hashing ([`cluster::HashRing`]), pushing graph bodies on first miss,
//!   heartbeat-detecting dead workers, and requeueing their jobs.
//!   With `--journal-dir` the coordinator is **durable**: accepted
//!   jobs and vaulted graphs are written to an fsync'd append-only
//!   journal ([`cluster::Journal`]) and replayed on restart, with a
//!   monotonic epoch advertised to workers so restarts are visible
//!   fleet-wide. A seeded fault-injection harness
//!   ([`cluster::FaultPlan`], armed via `PGL_FAULT_PLAN`) plus
//!   jittered-exponential retry ([`cluster::client::Backoff`]) make
//!   the failure paths deterministically testable.
//!
//! ## Example
//!
//! ```
//! use pgl_service::{JobSpec, JobState, LayoutService};
//! use std::time::Duration;
//!
//! let gfa = "H\tVN:Z:1.0\nS\t1\tACGT\nS\t2\tC\nL\t1\t+\t2\t+\t0M\nP\tp\t1+,2+\t*\n";
//! let service = LayoutService::with_defaults();
//! let mut spec = JobSpec::new("cpu", gfa);
//! spec.config.iter_max = 4;
//! spec.config.threads = 1;
//! let ticket = service.submit(spec).unwrap();
//! let status = service.wait(ticket.id, Duration::from_secs(30)).unwrap();
//! assert_eq!(status.state, JobState::Done);
//! assert!(service.result(ticket.id).unwrap().all_finite());
//! ```

pub mod batchrun;
pub mod cache;
pub mod cluster;
pub mod http;
pub mod httpmetrics;
pub mod job;
pub mod obs;
pub mod ratelimit;
pub mod registry;
pub mod sched;
pub mod service;
pub mod spec;

pub use batchrun::{run_batch, BatchOptions, BatchOutcome, BatchReport};
pub use cache::{
    cache_key, CacheKey, GraphMeta, GraphStore, LayoutCache, TierStats, TierValue, TieredStore,
};
pub use cluster::{
    spawn_heartbeat, ClusterRole, Coordinator, CoordinatorConfig, CoordinatorHandle, FaultPlan,
    HashRing, Journal,
};
pub use http::{HttpConfig, HttpServer, ServerHandle};
pub use httpmetrics::{
    validate_exposition, HistogramSnapshot, HttpMetrics, HttpStatsSnapshot, WindowedHistogram,
};
pub use job::{EventKind, GraphSpec, JobEvent, JobId, JobState, JobStatus, JobTrace, TraceSpan};
pub use obs::LogLevel;
pub use pangraph::store::ContentHash;
pub use ratelimit::RateLimiter;
pub use registry::{EngineRegistry, EngineRequest};
pub use sched::FairScheduler;
pub use service::{
    GraphUpload, LayoutService, PreloadReport, ServiceConfig, ServiceStats, SubmitError,
    SubmitTicket, ANONYMOUS_CLIENT,
};
pub use spec::{parse_job_spec, JobSpec, Priority, SpecError};
