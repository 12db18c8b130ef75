//! The one HTTP/1.1 server of the system: a dependency-free front end
//! over `std::net::TcpListener`, hardened for sustained traffic. It
//! serves a route table its caller supplies (a `Router`): `pgl serve`
//! plugs in the layout service's routes ([`HttpServer`]), and
//! `pgl coordinator` plugs in the fleet's
//! ([`crate::cluster::Coordinator`]). Both answer one versioned surface:
//!
//! | Method & `/v1` path          | Meaning                                        |
//! |------------------------------|------------------------------------------------|
//! | `POST /v1/jobs`              | submit a job: body = GFA (or `?graph=<id>`); query = typed `JobSpec` params → ticket |
//! | `GET /v1/jobs/<id>`          | job status JSON (state, progress, priority, …) |
//! | `GET /v1/jobs/<id>/events`   | **chunked stream** of the job's event log      |
//! | `GET /v1/jobs/<id>/trace`    | phase timeline: span offsets + durations       |
//! | `POST /v1/jobs/<id>/cancel`  | request cancellation (also `DELETE /v1/jobs/<id>`) |
//! | `GET /v1/result/<id>`        | finished layout as TSV (`?format=lay` binary)  |
//! | `POST /v1/graphs`            | body = GFA; parse once → `{graph_id, nodes, …}`|
//! | `GET /v1/graphs`             | list stored graphs (`ETag` / `If-None-Match`)  |
//! | `DELETE /v1/graphs/<id>`     | delete a stored graph                          |
//! | `GET /v1/stats`              | service + cache + graph-store + HTTP counters  |
//! | `GET /v1/metrics`            | Prometheus-style text exposition               |
//! | `GET /v1/engines`            | registered engine names                        |
//! | `GET /v1/healthz`            | liveness probe                                 |
//! | `POST /v1/cluster/<op>`      | worker `join` / `heartbeat` (coordinator only) |
//!
//! Only `/v1/...` paths answer; every other path is a `404`. The server
//! resolves each request to an `Endpoint` before the route table sees
//! it, so the `/v1` prefix, the path-id checks and the unknown-parameter
//! allowlist exist once, here: a typo like `?frm=5` is a `400` on every
//! route instead of being silently ignored.
//!
//! Submission query parameters (parsed into one validated
//! [`crate::spec::JobSpec`]): `engine` (default `cpu`), `iters`,
//! `threads`, `seed`, `batch`, `precision`, `graph=<id>` (lay out a stored
//! graph by reference — the **upload-once** flow), plus the scheduling
//! dimensions `priority=interactive|normal|bulk`, `client=<key>` (the
//! fair-share identity; defaults to the peer IP the rate limiter also
//! uses), and `ttl_ms=<n>` (fail the job if still queued after `n` ms).
//!
//! `GET /v1/jobs/<id>/events?from=<seq>` answers with
//! `Transfer-Encoding: chunked` and writes one NDJSON line per job
//! event (state transitions and coalesced progress), blocking until new
//! events arrive and closing the stream after the terminal event —
//! clients watch a job without polling. Heartbeat lines
//! (`{"event":"heartbeat"}`) flow during long gaps so dead clients are
//! detected. A stream pins its handler thread for the job's lifetime,
//! so at most half the handler pool may stream concurrently
//! (`max_event_streams`); excess watchers are shed with `503 +
//! Retry-After`.
//!
//! ## Traffic model
//!
//! One acceptor thread feeds a **bounded queue** drained by a fixed pool
//! of [`HttpConfig::max_conns`] handler threads. When the queue is full
//! the acceptor answers `503 Service Unavailable` with a `Retry-After`
//! header instead of spawning unboundedly or hanging the client — an
//! overloaded server stays responsive and sheds load explicitly. A
//! request whose handler panics gets a `500` and loses its connection;
//! the handler thread keeps serving.
//!
//! Handlers speak **HTTP/1.1 keep-alive**: sequential requests are
//! served on one connection until the client sends `Connection: close`,
//! the idle timeout [`HttpConfig::keep_alive`] expires, or a per-
//! connection request cap is reached. `pgl batch`-style clients thus pay
//! one TCP handshake for a whole polling session, not one per request.
//! A zero idle timeout closes after every response, which is how the
//! coordinator runs.
//!
//! Every answered request lands in [`HttpMetrics`]: per-route counters
//! plus log2-bucketed latency histograms, surfaced through both
//! `GET /v1/stats` (JSON) and `GET /v1/metrics` (Prometheus text).
//!
//! With [`HttpConfig::rate_limit`] set, a per-client-IP token bucket
//! ([`crate::ratelimit::RateLimiter`]) throttles request processing:
//! clients over their budget get `429 Too Many Requests` +
//! `Retry-After`, counted in `/v1/metrics` as
//! `pgl_http_rate_limited_total`.

use crate::cache::GraphMeta;
use crate::cluster::ClusterRole;
use crate::httpmetrics::{route_index, HttpMetrics, OTHER_ROUTE};
use crate::job::{EventKind, JobEvent, JobId};
use crate::obs;
use crate::ratelimit::RateLimiter;
use crate::service::{GraphUpload, LayoutService, SubmitError, SubmitTicket};
use crate::spec::{parse_job_spec, JobSpec, SpecError};
use pangraph::store::{content_hash, ContentHash};
use pgio::{layout_to_tsv, quote, write_lay};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Largest accepted request body (a chromosome-scale GFA fits well
/// inside this).
const MAX_BODY: usize = 1 << 30;

/// Longest accepted request/header line and maximum header count —
/// generous for real clients, fatal for memory-exhaustion abuse.
const MAX_HEADER_LINE: usize = 16 * 1024;
const MAX_HEADERS: usize = 128;

/// Deadline for reading the rest of a request once its first line has
/// arrived, and for writing responses.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Requests served on one connection before the server forces a close —
/// a backstop so a single client cannot pin a handler thread forever.
const MAX_REQUESTS_PER_CONN: u64 = 1000;

/// Plain requests slower than this are logged at `warn` with their
/// route and status — the structured-log counterpart of the latency
/// histogram's tail. Event streams are exempt (they block by design).
const SLOW_REQUEST_WARN: Duration = Duration::from_secs(1);

/// How long an event stream waits for new events before emitting a
/// heartbeat line (which doubles as dead-client detection: the write
/// fails once the peer is gone).
const EVENT_HEARTBEAT: Duration = Duration::from_secs(15);

/// Seconds advertised in the `Retry-After` header of 429s and 503s.
const RETRY_AFTER_SECS: u32 = 1;

/// Content type of the Prometheus text exposition.
pub(crate) const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4";

/// Ceiling on concurrent event streams as a fraction of the handler
/// pool: streams pin handler threads for a job's whole lifetime, so
/// without a cap a handful of watchers could exhaust `max_conns` and
/// 503 every other request. At most half the pool may stream; the
/// excess is shed with `503 + Retry-After`.
fn max_event_streams(cfg: &HttpConfig) -> usize {
    (cfg.max_conns / 2).max(1)
}

/// Tuning knobs for the HTTP front end.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Handler threads; also the bound of the pending-connection queue,
    /// so at most `2 × max_conns` connections are admitted at once
    /// (half being served, half waiting). Beyond that: `503`.
    pub max_conns: usize,
    /// Keep-alive idle timeout between requests on one connection.
    /// Zero disables connection reuse (every response closes).
    pub keep_alive: Duration,
    /// Sustained requests per second allowed per client IP (burst of
    /// about one second's worth). `0.0` disables rate limiting.
    pub rate_limit: f64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            keep_alive: Duration::from_secs(5),
            rate_limit: 0.0,
        }
    }
}

/// A route table served by [`Server`]. Requests reach it parsed, past
/// the rate limiter, and resolved to one [`Endpoint`].
pub(crate) trait Router: Send + Sync + 'static {
    /// Answer one request: a plain response, or a job event stream.
    fn route(&self, endpoint: Endpoint, req: &mut Request) -> Routed;

    /// Write `job`'s event log from sequence `from` to `out`, one NDJSON
    /// line per chunk, until the job is terminal or `stop` is set. Only
    /// called after [`Router::route`] answered [`Routed::Events`].
    fn stream_events(
        &self,
        job: JobId,
        from: u64,
        out: &mut EventStream<'_>,
        stop: &AtomicBool,
    ) -> std::io::Result<()>;

    /// Wake the streams parked in [`Router::stream_events`], so they see
    /// the stop flag the server has just set.
    fn wake_streams(&self) {}
}

/// One `/v1` endpoint, its path ids already parsed (see [`resolve`]).
/// Both route tables answer the same set; only the coordinator answers
/// `Join` and `Heartbeat`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Endpoint {
    /// `POST /v1/jobs`
    Submit,
    /// `GET /v1/jobs/<id>`
    Status(JobId),
    /// `POST /v1/jobs/<id>/cancel` or `DELETE /v1/jobs/<id>`
    Cancel(JobId),
    /// `GET /v1/jobs/<id>/events?from=<seq>`
    Events { job: JobId, from: u64 },
    /// `GET /v1/jobs/<id>/trace`
    Trace(JobId),
    /// `GET /v1/result/<id>`
    Result(JobId),
    /// `POST /v1/graphs`
    UploadGraph,
    /// `GET /v1/graphs`
    ListGraphs,
    /// `DELETE /v1/graphs/<id>`
    DeleteGraph(ContentHash),
    /// `GET /v1/stats`
    Stats,
    /// `GET /v1/metrics`
    Metrics,
    /// `GET /v1/engines`
    Engines,
    /// `GET /v1/healthz`
    Healthz,
    /// `POST /v1/cluster/join`
    Join,
    /// `POST /v1/cluster/heartbeat`
    Heartbeat,
}

/// Resolve a request to its endpoint, or to the error that answers it:
/// a path outside `/v1` or an unknown route is a `404` (`405` for an
/// unsupported method), a malformed path id a `400`, and so is a query
/// parameter the endpoint does not define. Submissions are the one
/// exception: [`parse_job_spec`] checks their parameters against the
/// spec's own list.
fn resolve(req: &Request) -> Result<Endpoint, Response> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let ["v1", segments @ ..] = segments.as_slice() else {
        return Err(Response::error(404, "no such route"));
    };
    let job = |id: &str| {
        id.parse::<JobId>()
            .map_err(|_| Response::error(400, "job id must be a number"))
    };
    let endpoint = match (req.method.as_str(), segments) {
        ("POST", ["jobs"]) => return Ok(Endpoint::Submit),
        ("GET", ["jobs", id]) => Endpoint::Status(job(id)?),
        ("POST", ["jobs", id, "cancel"]) | ("DELETE", ["jobs", id]) => Endpoint::Cancel(job(id)?),
        ("GET", ["jobs", id, "events"]) => Endpoint::Events {
            job: job(id)?,
            from: match req.param("from").map(str::parse) {
                None => 0,
                Some(Ok(n)) => n,
                Some(Err(_)) => return Err(Response::error(400, "from must be a sequence number")),
            },
        },
        ("GET", ["jobs", id, "trace"]) => Endpoint::Trace(job(id)?),
        ("GET", ["result", id]) => Endpoint::Result(job(id)?),
        ("POST", ["graphs"]) => Endpoint::UploadGraph,
        ("GET", ["graphs"]) => Endpoint::ListGraphs,
        ("DELETE", ["graphs", id]) => match ContentHash::from_hex(id) {
            Some(id) => Endpoint::DeleteGraph(id),
            None => return Err(Response::error(400, "graph id must be 32 hex digits")),
        },
        ("GET", ["stats"]) => Endpoint::Stats,
        ("GET", ["metrics"]) => Endpoint::Metrics,
        ("GET", ["engines"]) => Endpoint::Engines,
        ("GET", ["healthz"]) => Endpoint::Healthz,
        ("POST", ["cluster", "join"]) => Endpoint::Join,
        ("POST", ["cluster", "heartbeat"]) => Endpoint::Heartbeat,
        ("GET" | "POST" | "DELETE", _) => return Err(Response::error(404, "no such route")),
        _ => return Err(Response::error(405, "method not supported")),
    };
    let allowed: &[&str] = match endpoint {
        Endpoint::Events { .. } => &["from"],
        Endpoint::Result(_) => &["format"],
        Endpoint::Join | Endpoint::Heartbeat => &["addr"],
        _ => &[],
    };
    match req
        .query
        .iter()
        .find(|(k, _)| !allowed.contains(&k.as_str()))
    {
        Some((k, _)) => Err(Response::error(400, &format!("unknown parameter {k:?}"))),
        None => Ok(endpoint),
    }
}

/// One parsed request, as a [`Router`] sees it.
pub(crate) struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    /// Client-side keep-alive verdict (version default + `Connection`).
    keep_alive: bool,
    /// `If-None-Match` value, for `ETag` revalidation on `GET /v1/graphs`.
    pub(crate) if_none_match: Option<String>,
    /// The peer's IP: the rate limiter's bucket and the default
    /// fair-share client key.
    peer: IpAddr,
}

impl Request {
    /// The value of query parameter `name`, if present.
    pub(crate) fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Move the body out: cloning would double peak memory for large
    /// GFA uploads.
    pub(crate) fn take_body(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.body)
    }

    /// The submission this request carries (`POST /v1/jobs`), parsed
    /// strictly. The fair-share client key defaults to the peer IP, the
    /// same identity the rate limiter buckets by.
    pub(crate) fn job_spec(&mut self) -> Result<JobSpec, SpecError> {
        let mut spec = parse_job_spec(&self.query, std::mem::take(&mut self.body))?;
        if spec.client.is_none() {
            spec.client = Some(self.peer.to_string());
        }
        Ok(spec)
    }
}

/// A plain (non-streaming) answer.
pub(crate) struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    /// Send a `Retry-After` header (429s and stream-cap 503s).
    retry_after: bool,
    /// `ETag` header value (already quoted), when the resource has one.
    etag: Option<String>,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Self {
        Self::bytes(status, "application/json", body.into_bytes())
    }

    pub(crate) fn bytes(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            body,
            retry_after: false,
            etag: None,
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":{}}}", quote(message)))
    }
}

/// How a [`Router`] wants a request answered: a plain response, or a
/// long-lived chunked event stream that takes over the connection.
pub(crate) enum Routed {
    Plain(Response),
    /// Stream `job`'s event log from sequence `from` until terminal.
    Events {
        job: JobId,
        from: u64,
    },
}

/// The body of a chunked NDJSON event stream, handed to
/// [`Router::stream_events`].
pub(crate) struct EventStream<'a>(&'a mut TcpStream);

impl EventStream<'_> {
    /// Send one NDJSON line as its own chunk.
    pub(crate) fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        write_chunk(self.0, line)
    }
}

/// A bound listener with its traffic configuration, request metrics and
/// stop flag: everything a served route table runs behind. Both
/// [`HttpServer`] and the coordinator wrap one.
pub(crate) struct Server {
    listener: TcpListener,
    cfg: HttpConfig,
    metrics: Arc<HttpMetrics>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind to `addr`; serving stops once `stop` is set (and a
    /// connection wakes the acceptor).
    pub(crate) fn bind(
        addr: &str,
        cfg: HttpConfig,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<Self> {
        let mut server = Self {
            listener: TcpListener::bind(addr)?,
            cfg: HttpConfig::default(),
            metrics: Arc::new(HttpMetrics::new()),
            stop,
        };
        server.set_config(cfg);
        Ok(server)
    }

    fn set_config(&mut self, cfg: HttpConfig) {
        self.cfg = HttpConfig {
            max_conns: cfg.max_conns.max(1),
            ..cfg
        };
    }

    /// The server's request metrics (shared with the handler pool).
    pub(crate) fn metrics(&self) -> Arc<HttpMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The bound address (useful with port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Serve `router` until the stop flag is set: accept on this thread,
    /// answer on the handler pool, then sever live connections and join
    /// the pool.
    pub(crate) fn serve(self, router: Arc<dyn Router>) {
        let Self {
            listener,
            cfg,
            metrics,
            stop,
        } = self;
        let pool = Arc::new(Pool {
            router,
            limiter: RateLimiter::maybe(cfg.rate_limit),
            queue: ConnQueue::new(cfg.max_conns),
            active: (0..cfg.max_conns).map(|_| Mutex::new(None)).collect(),
            streams: AtomicUsize::new(0),
            cfg,
            metrics,
            stop,
        });
        let handlers: Vec<_> = (0..pool.cfg.max_conns)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("pgl-http-{i}"))
                    .spawn(move || pool.run_handler(i))
                    .expect("spawn http handler")
            })
            .collect();
        for stream in listener.incoming() {
            if pool.stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            match pool.queue.try_push(stream) {
                Ok(()) => pool.metrics.record_accepted(),
                Err(stream) => {
                    pool.metrics.record_rejected();
                    reject_overloaded(stream);
                }
            }
        }
        pool.queue.close();
        pool.router.wake_streams();
        for slot in pool.active.iter() {
            if let Some(stream) = slot.lock().unwrap().as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// What every handler thread of one serving [`Server`] shares.
struct Pool {
    router: Arc<dyn Router>,
    cfg: HttpConfig,
    metrics: Arc<HttpMetrics>,
    limiter: Option<RateLimiter>,
    stop: Arc<AtomicBool>,
    queue: ConnQueue,
    /// One slot per handler holding a clone of the connection it is
    /// serving, so shutdown can sever blocked reads instead of waiting
    /// out keep-alive idle timeouts.
    active: Vec<Mutex<Option<TcpStream>>>,
    /// Live event streams (see [`max_event_streams`]).
    streams: AtomicUsize,
}

impl Pool {
    /// Handler `i`: serve queued connections until the queue closes.
    fn run_handler(&self, i: usize) {
        while let Some(stream) = self.queue.pop() {
            *self.active[i].lock().unwrap() = stream.try_clone().ok();
            // Re-check stop after publishing the slot: the sever pass
            // may have scanned it in the instant before this connection
            // landed.
            if self.stop.load(Ordering::Relaxed) {
                *self.active[i].lock().unwrap() = None;
                break;
            }
            self.handle_connection(stream);
            *self.active[i].lock().unwrap() = None;
        }
    }

    /// Serve sequential requests on one connection until the client
    /// closes, goes idle past the keep-alive timeout, asks to close, or
    /// the server is stopping.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
        // Rate limiting keys on the peer IP; an unreadable peer address
        // (vanishingly rare) shares one fallback bucket rather than
        // bypassing the limiter. The same identity is the default
        // fair-share client key for submissions.
        let peer = stream
            .peer_addr()
            .map(|a| a.ip())
            .unwrap_or(IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED));
        let mut reader = BufReader::new(stream);
        let idle = if self.cfg.keep_alive.is_zero() {
            REQUEST_TIMEOUT
        } else {
            self.cfg.keep_alive
        };
        for served in 0..MAX_REQUESTS_PER_CONN {
            if reader.get_ref().set_read_timeout(Some(idle)).is_err() {
                return;
            }
            let Some((response, keep)) = self.answer(&mut reader, peer, served) else {
                return;
            };
            if write_response(reader.get_mut(), &response, keep, &self.cfg).is_err() || !keep {
                return;
            }
        }
    }

    /// Read and answer one request: the response to write and whether
    /// the connection stays open after it. `None` when the connection is
    /// finished with nothing left to write — the peer closed or idled
    /// out, an event stream ran, or a throttled upload was refused.
    fn answer(
        &self,
        reader: &mut BufReader<TcpStream>,
        peer: IpAddr,
        served: u64,
    ) -> Option<(Response, bool)> {
        let head = match read_request_head(reader) {
            Ok(None) => return None, // clean close or idle timeout
            Ok(Some(head)) => head,
            Err(msg) => return Some((self.bad_request(&msg), false)),
        };
        if served > 0 {
            self.metrics.record_keepalive_reuse();
        }
        let started = Instant::now();
        let route_idx = route_index(&head.path);
        let keep = |client_keep_alive: bool| {
            client_keep_alive
                && !self.cfg.keep_alive.is_zero()
                && served + 1 < MAX_REQUESTS_PER_CONN
                && !self.stop.load(Ordering::Relaxed)
        };
        // The rate limiter is consulted *before* the body is read, so a
        // throttled client cannot make the server receive (and buffer) a
        // multi-gigabyte upload just to be told 429.
        if self.limiter.as_ref().is_some_and(|l| !l.allow(peer)) {
            self.metrics.record_rate_limited();
            self.metrics.observe_idx(route_idx, 429, started.elapsed());
            let response = self.retry_later(429, "rate limit exceeded; retry later");
            if head.content_length <= RATE_LIMIT_DRAIN_MAX
                && read_request_body(reader, head.content_length).is_ok()
            {
                // Small body consumed: the connection stays usable for
                // the client's retry.
                return Some((response, keep(head.keep_alive)));
            }
            // A payload not worth receiving just to refuse: answer, FIN
            // our side, drain a bounded amount so the kernel does not RST
            // the 429 away, and close.
            let stream = reader.get_mut();
            let _ = write_response(stream, &response, false, &self.cfg);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            drain_briefly(stream);
            return None;
        }
        let body = match read_request_body(reader, head.content_length) {
            Ok(body) => body,
            Err(msg) => return Some((self.bad_request(&msg), false)),
        };
        let mut req = Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
            keep_alive: head.keep_alive,
            if_none_match: head.if_none_match,
            peer,
        };
        // A panicking handler costs its request a 500 and its
        // connection, never the handler thread.
        let routed = match resolve(&req) {
            Ok(endpoint) => {
                catch_unwind(AssertUnwindSafe(|| self.router.route(endpoint, &mut req)))
            }
            Err(response) => Ok(Routed::Plain(response)),
        };
        let response = match routed {
            Ok(Routed::Plain(response)) => response,
            Ok(Routed::Events { job, from }) => {
                // Streams pin this handler thread until the job's log
                // completes; shed beyond the pool-share cap.
                if self.streams.fetch_add(1, Ordering::Relaxed) < max_event_streams(&self.cfg) {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        self.stream_events(reader.get_mut(), job, from)
                    }));
                    self.streams.fetch_sub(1, Ordering::Relaxed);
                    match outcome {
                        Ok(result) => {
                            let status = if result.is_ok() { 200 } else { 408 };
                            self.metrics
                                .observe_idx(route_idx, status, started.elapsed());
                        }
                        Err(_) => self.handler_panicked(&req, route_idx, started),
                    }
                    // The connection closes after a stream (Connection:
                    // close sent); a panicked one ends unterminated.
                    return None;
                }
                self.streams.fetch_sub(1, Ordering::Relaxed);
                self.retry_later(503, "too many concurrent event streams; retry later")
            }
            Err(_) => {
                self.handler_panicked(&req, route_idx, started);
                return Some((
                    Response::error(500, "internal error: handler panicked"),
                    false,
                ));
            }
        };
        let elapsed = started.elapsed();
        self.metrics
            .observe_idx(route_idx, response.status, elapsed);
        if elapsed >= SLOW_REQUEST_WARN {
            obs::warn(
                "http",
                "slow request",
                &[
                    ("method", req.method.clone()),
                    ("path", req.path.clone()),
                    ("status", response.status.to_string()),
                    ("ms", elapsed.as_millis().to_string()),
                ],
            );
        }
        Some((response, keep(req.keep_alive)))
    }

    /// Log a request whose handler panicked and count it as a 500.
    fn handler_panicked(&self, req: &Request, route_idx: usize, started: Instant) {
        obs::error(
            "http",
            "request handler panicked",
            &[("method", req.method.clone()), ("path", req.path.clone())],
        );
        self.metrics.observe_idx(route_idx, 500, started.elapsed());
    }

    /// A malformed request: counted, then answered `400` and closed.
    fn bad_request(&self, msg: &str) -> Response {
        self.metrics.record_bad_request();
        self.metrics.observe_idx(OTHER_ROUTE, 400, Duration::ZERO);
        Response::error(400, msg)
    }

    /// A refusal the client should retry: `status` + `Retry-After`.
    fn retry_later(&self, status: u16, msg: &str) -> Response {
        let mut response = Response::error(status, msg);
        response.retry_after = true;
        response
    }

    /// Answer with `job`'s event stream: the chunked head, the router's
    /// lines, then the terminating chunk.
    fn stream_events(&self, stream: &mut TcpStream, job: JobId, from: u64) -> std::io::Result<()> {
        stream.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
              Transfer-Encoding: chunked\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
        )?;
        self.router
            .stream_events(job, from, &mut EventStream(stream), &self.stop)?;
        stream.write_all(b"0\r\n\r\n")?;
        stream.flush()
    }
}

/// The layout service's HTTP server, as `pgl serve` runs it: a bound
/// `Server` with the service's route table.
pub struct HttpServer {
    server: Server,
    service: Arc<LayoutService>,
    role: Arc<ClusterRole>,
}

impl HttpServer {
    /// Bind to `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) with
    /// the default [`HttpConfig`].
    pub fn bind(addr: &str, service: Arc<LayoutService>) -> std::io::Result<Self> {
        Ok(Self {
            server: Server::bind(addr, HttpConfig::default(), Arc::default())?,
            service,
            role: ClusterRole::standalone(),
        })
    }

    /// Set the cluster role surfaced in `/v1/healthz` (chainable).
    /// Defaults to standalone; `pgl serve --join` passes a worker role.
    pub fn with_role(mut self, role: Arc<ClusterRole>) -> Self {
        self.role = role;
        self
    }

    /// Replace the traffic configuration (chainable).
    pub fn with_config(mut self, cfg: HttpConfig) -> Self {
        self.server.set_config(cfg);
        self
    }

    /// The server's request metrics (shared with the handler pool).
    pub fn metrics(&self) -> Arc<HttpMetrics> {
        self.server.metrics()
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Serve until [`ServerHandle::stop`] is called (or forever).
    pub fn serve(self) {
        let routes = LayoutRoutes {
            metrics: self.server.metrics(),
            service: self.service,
            role: self.role,
        };
        self.server.serve(Arc::new(routes));
    }

    /// Serve on a background thread; the returned handle stops it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let stop = Arc::clone(&self.server.stop);
        let handle = std::thread::Builder::new()
            .name("pgl-http-accept".into())
            .spawn(move || self.serve())
            .expect("spawn accept loop");
        ServerHandle {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

/// Bounded handoff between the acceptor and the handler pool.
struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

struct QueueState {
    pending: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue, or hand the stream back when the queue is full/closed so
    /// the caller can shed it with a 503.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.pending.len() >= self.cap {
            return Err(stream);
        }
        st.pending.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until a connection arrives; `None` once closed.
    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return None;
            }
            if let Some(s) = st.pending.pop_front() {
                return Some(s);
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Close the queue, dropping (and thereby resetting) any still-
    /// pending connections: the server is shutting down, and handing
    /// them to handlers now would only delay the join.
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.pending.clear();
        self.cv.notify_all();
    }
}

/// Controls a background [`HttpServer`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reason phrases for every status the server can emit. Unknown codes
/// fall back to a neutral `"Error"` — never a misleading
/// `"Internal Server Error"` on, say, an overload 503.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Ceiling on concurrent shed threads; beyond it connections are
/// dropped outright (still load shedding, minus the courtesy note).
const MAX_CONCURRENT_REJECTS: usize = 32;

/// Shed one connection with `503` + `Retry-After` without occupying a
/// handler thread — and without stalling the acceptor: the write and
/// the drain below run on a short-lived, count-bounded thread.
fn reject_overloaded(stream: TcpStream) {
    static ACTIVE_REJECTS: AtomicUsize = AtomicUsize::new(0);
    if ACTIVE_REJECTS.fetch_add(1, Ordering::Relaxed) >= MAX_CONCURRENT_REJECTS {
        ACTIVE_REJECTS.fetch_sub(1, Ordering::Relaxed);
        return; // flood: drop without ceremony
    }
    let spawned = std::thread::Builder::new()
        .name("pgl-http-shed".into())
        .spawn(move || {
            write_503(stream);
            ACTIVE_REJECTS.fetch_sub(1, Ordering::Relaxed);
        });
    if spawned.is_err() {
        ACTIVE_REJECTS.fetch_sub(1, Ordering::Relaxed);
    }
}

fn write_503(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let body = b"{\"error\":\"server overloaded; retry later\"}";
    let head = format!(
        "HTTP/1.1 503 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Retry-After: {RETRY_AFTER_SECS}\r\nConnection: close\r\n\r\n",
        reason_phrase(503),
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
    // FIN our side, then briefly drain whatever request the client
    // already sent, so the kernel cannot RST the 503 away.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    drain_briefly(&mut stream);
}

/// Briefly drain whatever the client already sent (bounded in bytes and
/// time): closing a socket with unread bytes in the receive buffer makes
/// the kernel send RST, which can destroy the response in flight.
fn drain_briefly(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8192];
    let mut drained = 0usize;
    while drained < 1 << 20 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Write one response: the head, then the body. Two writes with Nagle
/// on cost a small answer one delayed-ACK round trip (≈44 ms on
/// loopback, see the findings in `perfbench/README.md`); the fix waits
/// for a benchmark that can observe it.
fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep: bool,
    cfg: &HttpConfig,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    if response.retry_after {
        head.push_str(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n"));
    }
    if let Some(etag) = &response.etag {
        head.push_str(&format!("ETag: {etag}\r\n"));
    }
    if keep {
        head.push_str(&format!(
            "Connection: keep-alive\r\nKeep-Alive: timeout={}\r\n",
            cfg.keep_alive.as_secs().max(1)
        ));
    } else {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Write one chunk of a `Transfer-Encoding: chunked` response.
fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Read one CRLF-terminated line with a hard length cap, so an endless
/// header cannot grow memory without bound. `Ok(None)` means the peer
/// closed, timed out, or otherwise went away — nothing to answer.
fn read_capped_line(
    reader: &mut BufReader<TcpStream>,
    what: &str,
) -> Result<Option<String>, String> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_HEADER_LINE as u64);
    match limited.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => {
            if line.len() >= MAX_HEADER_LINE && !line.ends_with('\n') {
                return Err(format!("{what} exceeds {MAX_HEADER_LINE} bytes"));
            }
            Ok(Some(line))
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(format!("{what} is not valid UTF-8"))
        }
        // Timeouts and resets: the connection is dead, close quietly.
        Err(_) => Ok(None),
    }
}

/// Request line + headers, parsed before any body byte is read — the
/// point where rate limiting can refuse cheaply.
struct RequestHead {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    keep_alive: bool,
    content_length: usize,
    if_none_match: Option<String>,
}

/// Largest body still drained (rather than the connection closed) when
/// its request is refused by the rate limiter.
const RATE_LIMIT_DRAIN_MAX: usize = 64 * 1024;

/// Read one request's line and headers. `Ok(None)` = connection closed /
/// idle timeout before a request arrived; `Err` = malformed (answer 400).
fn read_request_head(reader: &mut BufReader<TcpStream>) -> Result<Option<RequestHead>, String> {
    let Some(line) = read_capped_line(reader, "request line")? else {
        return Ok(None);
    };
    // A request is in flight: switch from the idle timeout to the
    // (longer) per-request deadline for the rest of it.
    let _ = reader.get_ref().set_read_timeout(Some(REQUEST_TIMEOUT));
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 (and anything odd) to
    // close. The Connection header below overrides either way.
    let mut keep_alive = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.1"));
    let (path, query_str) = target.split_once('?').unwrap_or((target, ""));
    let mut content_length: Option<usize> = None;
    let mut if_none_match: Option<String> = None;
    let mut headers_done = false;
    for _ in 0..MAX_HEADERS {
        let header = read_capped_line(reader, "header")?.ok_or("connection closed mid-headers")?;
        let header = header.trim_end();
        if header.is_empty() {
            headers_done = true;
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // With keep-alive, conflicting Content-Length values are
                // a request-smuggling vector (RFC 9112 §6.3): the server
                // and any intermediary may disagree on where the next
                // request starts. Reject unless all values agree.
                for piece in value.split(',') {
                    let parsed: usize = piece
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?;
                    match content_length {
                        Some(prev) if prev != parsed => {
                            return Err("conflicting Content-Length headers".into());
                        }
                        _ => content_length = Some(parsed),
                    }
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Same smuggling class: we never emit or consume chunked
                // bodies, so any Transfer-Encoding is an error here.
                return Err("Transfer-Encoding is not supported".into());
            } else if name.eq_ignore_ascii_case("connection") {
                let v = value.trim().to_ascii_lowercase();
                if v.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("if-none-match") {
                if_none_match = Some(value.trim().to_string());
            }
        }
    }
    if !headers_done {
        // Falling through here and treating the rest of the header
        // block as body bytes would corrupt the request.
        return Err(format!("more than {MAX_HEADERS} headers"));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    Ok(Some(RequestHead {
        method,
        path: path.to_string(),
        query: split_query(query_str),
        keep_alive,
        content_length,
        if_none_match,
    }))
}

/// Read the announced body. Read via `take` so memory grows with bytes
/// actually received, not with whatever Content-Length a client merely
/// claims.
fn read_request_body(
    reader: &mut BufReader<TcpStream>,
    content_length: usize,
) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    reader
        .take(content_length as u64)
        .read_to_end(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    if body.len() < content_length {
        return Err(format!(
            "body truncated: got {} of {content_length} bytes",
            body.len()
        ));
    }
    Ok(body)
}

// ─── the layout service's routes ────────────────────────────────────

/// What `pgl serve` answers: a [`LayoutService`] plus the process's
/// cluster role.
struct LayoutRoutes {
    service: Arc<LayoutService>,
    role: Arc<ClusterRole>,
    metrics: Arc<HttpMetrics>,
}

impl Router for LayoutRoutes {
    fn route(&self, endpoint: Endpoint, req: &mut Request) -> Routed {
        let service = &*self.service;
        Routed::Plain(match endpoint {
            Endpoint::Submit => post_layout(req, service),
            Endpoint::Status(id) => job_status(id, service),
            Endpoint::Cancel(id) => cancel_job(id, service),
            Endpoint::Events { job, from } => match service.status(job) {
                Some(_) => return Routed::Events { job, from },
                None => Response::error(404, &format!("no such job {job}")),
            },
            Endpoint::Trace(id) => job_trace(id, service),
            Endpoint::Result(id) => job_result(id, req.param("format").unwrap_or("tsv"), service),
            Endpoint::UploadGraph => post_graph(req, service),
            Endpoint::ListGraphs => graph_listing(&service.graphs(), req.if_none_match.as_deref()),
            Endpoint::DeleteGraph(id) => delete_graph(id, service),
            Endpoint::Stats => stats(service, &self.metrics),
            Endpoint::Metrics => {
                // One exposition: HTTP front-end families followed by the
                // service's job/engine/cache families.
                let mut text = self.metrics.render_prometheus();
                text.push_str(&service.metrics_prometheus());
                Response::bytes(200, PROMETHEUS_TEXT, text.into_bytes())
            }
            Endpoint::Engines => {
                let names: Vec<String> = service.engine_names().iter().map(|n| quote(n)).collect();
                Response::json(200, format!("{{\"engines\":[{}]}}", names.join(",")))
            }
            Endpoint::Healthz => healthz(service, &self.role),
            // Fleet membership is the coordinator's business.
            Endpoint::Join | Endpoint::Heartbeat => Response::error(404, "no such route"),
        })
    }

    /// The job's event log from the service: blocks for new events and
    /// ends once the job is terminal, evicted, or the server stops.
    fn stream_events(
        &self,
        job: JobId,
        mut from: u64,
        out: &mut EventStream<'_>,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        let mut last_activity = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            // Job evicted from the retention window mid-stream: its log
            // is gone, so the stream honestly ends.
            let Some((events, terminal)) =
                self.service.wait_events(job, from, EVENT_HEARTBEAT, stop)
            else {
                break;
            };
            for event in &events {
                out.send(event_json(&self.service, job, event).as_bytes())?;
                from = event.seq + 1;
                last_activity = Instant::now();
            }
            if terminal {
                break;
            }
            if events.is_empty() && last_activity.elapsed() >= EVENT_HEARTBEAT {
                // Nothing new within the heartbeat window: emit a
                // keep-alive line (and learn whether the client is still
                // there — a dead peer fails this write).
                out.send(b"{\"event\":\"heartbeat\"}\n")?;
                last_activity = Instant::now();
            }
        }
        Ok(())
    }

    /// A stream parks on the service's condvar, which severing its
    /// socket cannot interrupt.
    fn wake_streams(&self) {
        self.service.wake_event_waiters();
    }
}

/// One NDJSON line for a job event. Failed-state events carry the
/// job's error message when it is still available.
fn event_json(service: &LayoutService, job: JobId, event: &JobEvent) -> String {
    match &event.kind {
        EventKind::State(state) => {
            let error = match state {
                crate::job::JobState::Failed => service
                    .status(job)
                    .and_then(|s| s.error)
                    .map(|e| format!(",\"error\":{}", quote(&e)))
                    .unwrap_or_default(),
                _ => String::new(),
            };
            format!(
                "{{\"job\":{},\"seq\":{},\"event\":\"state\",\"state\":\"{}\"{}}}\n",
                job,
                event.seq,
                state.as_str(),
                error
            )
        }
        EventKind::Progress(p) => format!(
            "{{\"job\":{},\"seq\":{},\"event\":\"progress\",\"progress\":{:.3}}}\n",
            job, event.seq, p
        ),
        EventKind::Metrics {
            terms_applied,
            updates_per_sec,
            iteration,
            iteration_max,
        } => format!(
            "{{\"job\":{},\"seq\":{},\"event\":\"metrics\",\"terms_applied\":{},\
             \"updates_per_sec\":{:.1},\"iteration\":{},\"iteration_max\":{}}}\n",
            job, event.seq, terms_applied, updates_per_sec, iteration, iteration_max
        ),
    }
}

/// `POST /v1/graphs` — intern one GFA document as a server-side artifact.
fn post_graph(req: &mut Request, service: &LayoutService) -> Response {
    let gfa = match String::from_utf8(req.take_body()) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "GFA body must be UTF-8"),
    };
    match service.upload_graph(&gfa) {
        Ok(up) => graph_uploaded(&up),
        Err(SubmitError::ShuttingDown) => Response::error(503, "service is shutting down"),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// The answer to `POST /v1/graphs` on both front ends: `201` for a new
/// graph, `200` when the same bytes were already interned.
pub(crate) fn graph_uploaded(up: &GraphUpload) -> Response {
    Response::json(
        if up.dedup { 200 } else { 201 },
        format!(
            "{{\"graph_id\":{},\"nodes\":{},\"paths\":{},\"steps\":{},\"dedup\":{}}}",
            quote(&up.id.hex()),
            up.nodes,
            up.paths,
            up.steps,
            up.dedup
        ),
    )
}

/// The answer to `GET /v1/graphs` on both front ends, with an `ETag`
/// over the listing so pollers revalidate with `If-None-Match` → `304`
/// instead of re-downloading an unchanged catalog.
pub(crate) fn graph_listing(graphs: &[GraphMeta], if_none_match: Option<&str>) -> Response {
    let rows: Vec<String> = graphs
        .iter()
        .map(|m| {
            format!(
                "{{\"graph_id\":{},\"nodes\":{},\"paths\":{},\"steps\":{},\"bytes\":{},\
                 \"resident\":{}}}",
                quote(&m.id.hex()),
                m.nodes,
                m.paths,
                m.steps,
                m.bytes,
                m.resident
            )
        })
        .collect();
    let body = format!(
        "{{\"count\":{},\"graphs\":[{}]}}",
        rows.len(),
        rows.join(",")
    );
    let etag = format!("\"{}\"", content_hash(body.as_bytes()).hex());
    let mut response = if if_none_match.is_some_and(|header| etag_matches(header, &etag)) {
        Response::bytes(304, "application/json", Vec::new())
    } else {
        Response::json(200, body)
    };
    response.etag = Some(etag);
    response
}

/// Does an `If-None-Match` header match this entity tag? Accepts `*`,
/// comma-separated lists, and weak validators (`W/"…"` compares equal
/// to its strong form — byte-identical JSON is the only way we ever
/// reuse a tag).
fn etag_matches(header: &str, etag: &str) -> bool {
    header.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate == etag || candidate.strip_prefix("W/") == Some(etag)
    })
}

/// The answer to a successful `DELETE /v1/graphs/<id>` on both front
/// ends.
pub(crate) fn graph_deleted(id: ContentHash) -> Response {
    Response::json(200, format!("{{\"deleted\":{}}}", quote(&id.hex())))
}

/// `DELETE /v1/graphs/<id>` — drop a stored graph from every tier.
fn delete_graph(id: ContentHash, service: &LayoutService) -> Response {
    if service.delete_graph(id) {
        graph_deleted(id)
    } else {
        Response::error(404, &format!("no such graph {}", id.hex()))
    }
}

/// `POST /v1/jobs` — parse the query + body into one typed
/// [`crate::spec::JobSpec`] (see [`Request::job_spec`]) and submit it.
fn post_layout(req: &mut Request, service: &LayoutService) -> Response {
    let spec = match req.job_spec() {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    match service.submit(spec) {
        Ok(ticket) => job_ticket(&ticket),
        Err(SubmitError::Rejected(msg)) => Response::error(400, &msg),
        Err(SubmitError::Invalid(e)) => Response::error(400, &e.to_string()),
        Err(SubmitError::NoSuchGraph(msg)) => Response::error(404, &msg),
        Err(SubmitError::ShuttingDown) => Response::error(503, "service is shutting down"),
    }
}

/// The `202` answer to `POST /v1/jobs` on both front ends.
pub(crate) fn job_ticket(ticket: &SubmitTicket) -> Response {
    Response::json(
        202,
        format!(
            "{{\"job\":{},\"cached\":{},\"state\":\"{}\",\"graph\":{},\"priority\":\"{}\"}}",
            ticket.id,
            ticket.cached,
            if ticket.cached { "done" } else { "queued" },
            quote(&ticket.graph.hex()),
            ticket.priority.as_str()
        ),
    )
}

fn job_status(id: JobId, service: &LayoutService) -> Response {
    match service.status(id) {
        Some(s) => Response::json(200, status_json(&s)),
        None => Response::error(404, &format!("no such job {id}")),
    }
}

/// `GET /v1/jobs/<id>/trace` — the job's phase timeline: ordered spans
/// with offsets from submission and wall-clock durations. A span still
/// open (the job is mid-phase) reports `"dur_us":null`.
fn job_trace(id: JobId, service: &LayoutService) -> Response {
    let Some(s) = service.status(id) else {
        return Response::error(404, &format!("no such job {id}"));
    };
    let spans: Vec<String> = s
        .trace
        .spans()
        .iter()
        .map(|span| {
            format!(
                "{{\"phase\":{},\"start_us\":{},\"dur_us\":{}}}",
                quote(span.phase),
                span.start_us,
                match span.dur_us {
                    Some(us) => us.to_string(),
                    None => "null".into(),
                }
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"job\":{},\"state\":\"{}\",\"wall_ms\":{},\"total_us\":{},\"spans\":[{}]}}",
            s.id,
            s.state.as_str(),
            s.wall_ms,
            s.trace.total_us(),
            spans.join(",")
        ),
    )
}

/// The feature axes this build serves: registered engines and the
/// precisions the layout kernels support. Shared by `/v1/healthz` and
/// `/v1/stats` so probes and dashboards see one truth.
fn features_json(service: &LayoutService) -> String {
    let engines: Vec<String> = service.engine_names().iter().map(|n| quote(n)).collect();
    format!(
        "{{\"engines\":[{}],\"precisions\":[\"f32\",\"f64\"]}}",
        engines.join(",")
    )
}

/// `GET /v1/healthz` — liveness plus enough identity for a probe log:
/// version, uptime, feature axes, and the process's cluster role
/// (workers also report their coordinator and last-heartbeat age).
fn healthz(service: &LayoutService, role: &ClusterRole) -> Response {
    let s = service.stats();
    Response::json(
        200,
        format!(
            "{{\"ok\":true,{},\"version\":{},\"uptime_s\":{},\"features\":{}}}",
            role.json_fields(),
            quote(env!("CARGO_PKG_VERSION")),
            s.uptime_ms / 1000,
            features_json(service)
        ),
    )
}

fn cancel_job(id: JobId, service: &LayoutService) -> Response {
    match service.cancel(id) {
        Ok(_) => job_status(id, service),
        Err(msg) => Response::error(404, &msg),
    }
}

fn job_result(id: JobId, format: &str, service: &LayoutService) -> Response {
    let Some(status) = service.status(id) else {
        return Response::error(404, &format!("no such job {id}"));
    };
    let Some(layout) = service.result(id) else {
        return Response::error(
            409,
            &format!("job {id} is {}, not done", status.state.as_str()),
        );
    };
    match format {
        "tsv" => Response::bytes(
            200,
            "text/tab-separated-values",
            layout_to_tsv(&layout).into_bytes(),
        ),
        "lay" => Response::bytes(200, "application/octet-stream", write_lay(&layout)),
        other => Response::error(400, &format!("unknown format {other:?} (tsv, lay)")),
    }
}

fn stats(service: &LayoutService, metrics: &HttpMetrics) -> Response {
    let s = service.stats();
    let h = metrics.snapshot();
    Response::json(
        200,
        format!(
            "{{\"version\":{version},\"uptime_s\":{uptime_s},\"features\":{features},\
             \"jobs\":{{\"submitted\":{},\"queued\":{},\"running\":{},\"done\":{},\
             \"failed\":{},\"cancelled\":{},\"expired\":{},\
             \"queued_interactive\":{},\"queued_normal\":{},\"queued_bulk\":{},\
             \"active_clients\":{}}},\
             \"cache\":{{\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"insertions\":{},\"disk_hits\":{},\"disk_writes\":{},\
             \"disk_errors\":{},\"disk_cap_evictions\":{},\"disk_ttl_evictions\":{}}},\
             \"graphs\":{{\"resident\":{},\"bytes\":{},\"parses\":{},\"hits\":{},\
             \"disk_hits\":{},\"misses\":{},\"evictions\":{},\"deletes\":{},\
             \"disk_writes\":{},\"disk_errors\":{},\"disk_cap_evictions\":{},\
             \"disk_ttl_evictions\":{},\"preloaded\":{}}},\
             \"http\":{{\"accepted\":{},\"rejected_503\":{},\"keepalive_reuses\":{},\
             \"bad_requests\":{},\"rate_limited_429\":{},\"requests\":{}}},\
             \"workers\":{},\"uptime_ms\":{}}}",
            s.submitted,
            s.queued,
            s.running,
            s.done,
            s.failed,
            s.cancelled,
            s.expired,
            s.queued_by_band[0],
            s.queued_by_band[1],
            s.queued_by_band[2],
            s.active_clients,
            s.cache_entries,
            s.cache_bytes,
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache.insertions,
            s.cache.disk_hits,
            s.cache.disk_writes,
            s.cache.disk_errors,
            s.cache.disk_cap_evictions,
            s.cache.disk_ttl_evictions,
            s.graph_entries,
            s.graph_bytes,
            s.parses,
            s.graphs.hits,
            s.graphs.disk_hits,
            s.graphs.misses,
            s.graphs.evictions,
            s.graphs.deletes,
            s.graphs.disk_writes,
            s.graphs.disk_errors,
            s.graphs.disk_cap_evictions,
            s.graphs.disk_ttl_evictions,
            s.preloaded,
            h.accepted,
            h.rejected_503,
            h.keepalive_reuses,
            h.bad_requests,
            h.rate_limited_429,
            h.requests,
            s.workers,
            s.uptime_ms,
            version = quote(env!("CARGO_PKG_VERSION")),
            uptime_s = s.uptime_ms / 1000,
            features = features_json(service),
        ),
    )
}

fn status_json(s: &crate::job::JobStatus) -> String {
    // Per-phase summary of the trace: closed spans only, keyed by phase
    // name (the full timeline lives at `/v1/jobs/<id>/trace`).
    let phases: Vec<String> = s
        .trace
        .spans()
        .iter()
        .filter_map(|span| span.dur_us.map(|us| format!("{}:{us}", quote(span.phase))))
        .collect();
    format!(
        "{{\"job\":{},\"state\":\"{}\",\"progress\":{:.3},\"engine\":{},\
         \"priority\":\"{}\",\"client\":{},\"cached\":{},\
         \"nodes\":{},\"graph\":{},\"wall_ms\":{},\"phases_us\":{{{}}}{}}}",
        s.id,
        s.state.as_str(),
        s.progress,
        quote(&s.engine),
        s.priority.as_str(),
        quote(&s.client),
        s.cached,
        s.nodes,
        quote(&s.graph.hex()),
        s.wall_ms,
        phases.join(","),
        match &s.error {
            Some(e) => format!(",\"error\":{}", quote(e)),
            None => String::new(),
        }
    )
}

// ─── the `/v1` query codec ──────────────────────────────────────────

/// Percent-encode one query component: unreserved characters (RFC 3986
/// §2.3) pass through and every other byte becomes `%XX`, `+` included,
/// so the server's query decoder reads the component back unchanged.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decode one query component: `%XX` escapes, and `+` as a space.
/// Malformed escapes pass through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |i: usize| bytes.get(i).and_then(|&b| (b as char).to_digit(16));
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match (bytes[i], hex(i + 1), hex(i + 2)) {
            (b'%', Some(hi), Some(lo)) => {
                out.push((hi * 16 + lo) as u8);
                i += 2;
            }
            (b'+', ..) => out.push(b' '),
            (b, ..) => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a query string into decoded `(key, value)` pairs; a key with
/// no `=` gets an empty value.
pub(crate) fn split_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_basics() {
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("%zz"), "%zz", "bad escapes pass through");
        assert_eq!(percent_decode("trail%2"), "trail%2");
        assert_eq!(percent_decode("%+5%é"), "% 5%é", "only hex digits escape");
        assert_eq!(percent_encode("a+b c"), "a%2Bb%20c");
        assert_eq!(percent_decode(&percent_encode("a+b c/…")), "a+b c/…");
        let pairs = [("a", "1"), ("flag", ""), ("c", "x=y"), ("d", "e=f")];
        assert_eq!(
            split_query("a=1&&flag&c=x%3Dy&d=e=f"),
            pairs.map(|(k, v)| (k.to_string(), v.to_string()))
        );
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        assert_eq!(reason_phrase(200), "OK");
        assert_eq!(reason_phrase(304), "Not Modified");
        assert_eq!(reason_phrase(429), "Too Many Requests");
        assert_eq!(reason_phrase(503), "Service Unavailable");
        assert_eq!(reason_phrase(500), "Internal Server Error");
        // Unknown codes stay neutral rather than claiming a server error.
        assert_eq!(reason_phrase(599), "Error");
        assert_eq!(reason_phrase(302), "Error");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = HttpConfig::default();
        assert!(cfg.max_conns >= 1);
        assert!(!cfg.keep_alive.is_zero());
    }

    /// Answers every route with 200, except `/v1/stats`, which panics.
    struct PanickingStats;

    impl Router for PanickingStats {
        fn route(&self, endpoint: Endpoint, _: &mut Request) -> Routed {
            match endpoint {
                Endpoint::Stats => panic!("stats handler failed"),
                _ => Routed::Plain(Response::json(200, "{\"ok\":true}".into())),
            }
        }

        fn stream_events(
            &self,
            _: JobId,
            _: u64,
            _: &mut EventStream<'_>,
            _: &AtomicBool,
        ) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_panicking_handler_answers_500_and_keeps_its_thread() {
        let cfg = HttpConfig {
            max_conns: 1,
            ..HttpConfig::default()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let server = Server::bind("127.0.0.1:0", cfg, Arc::clone(&stop)).unwrap();
        let addr = server.local_addr();
        let metrics = server.metrics();
        let serving = std::thread::spawn(move || server.serve(Arc::new(PanickingStats)));
        let get = |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            let mut answer = String::new();
            let _ = stream.read_to_string(&mut answer);
            answer
        };
        let stats = get("/v1/stats");
        assert!(stats.starts_with("HTTP/1.1 500"), "{stats:?}");
        assert!(stats.contains("Connection: close") && stats.contains("\"error\""));
        // The pool's one handler thread survived to serve a new connection.
        let health = get("/v1/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health:?}");
        let exposition = metrics.render_prometheus();
        assert!(exposition.contains("pgl_http_requests_total{route=\"/v1/stats\",class=\"5xx\"} 1"));
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr);
        serving.join().unwrap();
    }

    #[test]
    fn etag_matching_covers_lists_stars_and_weak_forms() {
        let tag = "\"abc\"";
        assert!(etag_matches("\"abc\"", tag));
        assert!(etag_matches("*", tag));
        assert!(etag_matches("\"x\", \"abc\"", tag));
        assert!(etag_matches("W/\"abc\"", tag));
        assert!(!etag_matches("\"abd\"", tag));
        assert!(!etag_matches("", tag));
    }
}
