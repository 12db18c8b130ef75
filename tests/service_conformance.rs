//! Conformance of the two `/v1` front ends: one conversation replayed
//! against a standalone `pgl serve`-shaped server and against a
//! coordinator fronting one worker must get the same status codes, an
//! `"error"` field on every 4xx, byte-identical results for a
//! deterministic job, graph listings of one shape that revalidate to a
//! 304, and the same error text for a job whose engine panics. The coordinator's own extras — its metrics exposition,
//! overload shedding and `Connection: close` answers — are checked
//! alone.

use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    spawn_heartbeat, validate_exposition, ClusterRole, Coordinator, CoordinatorConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One blocking HTTP/1.1 exchange; returns (status, head, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    http_with(addr, method, path, "", body)
}

/// [`http`] with extra header lines (each ending in CRLF).
fn http_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
    body: &[u8],
) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{headers}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete header");
    let head = String::from_utf8_lossy(&response[..header_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, response[header_end + 4..].to_vec())
}

fn text(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

/// Parse a JSON answer body (or event line); malformed JSON fails the
/// test.
fn json(body: &[u8]) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("malformed JSON ({e}): {}", text(body)))
}

/// Every line of a chunked NDJSON event stream, parsed.
fn event_lines(mut chunked: &[u8]) -> Vec<Json> {
    let mut payload = Vec::new();
    loop {
        let eol = chunked
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size");
        let size = usize::from_str_radix(text(&chunked[..eol]).trim(), 16).expect("hex size");
        if size == 0 {
            break;
        }
        payload.extend_from_slice(&chunked[eol + 2..eol + 2 + size]);
        chunked = &chunked[eol + 2 + size + 2..];
    }
    text(&payload).lines().map(|l| json(l.as_bytes())).collect()
}

/// The `state` of a job status answer.
fn job_state(front: SocketAddr, status_path: &str) -> String {
    let status = json(&http(front, "GET", status_path, b"").2);
    status
        .get("state")
        .and_then(Json::str)
        .expect("state")
        .into()
}

/// Poll a job's status until it reports `state`.
fn wait_state(front: SocketAddr, status_path: &str, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while job_state(front, status_path) != state {
        assert!(
            Instant::now() < deadline,
            "{status_path} never reported {state}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A test engine that always panics.
struct Boom;

impl LayoutEngine for Boom {
    fn name(&self) -> &str {
        "boom"
    }

    fn layout(&self, _: &LeanGraph) -> Layout2D {
        panic!("boom");
    }
}

/// How a job whose engine panics reports its failure.
const BOOM_ERROR: &str = "engine \"boom\" panicked";

/// What one front end answered to the conversation.
struct Transcript {
    /// `(step, status)` in conversation order.
    statuses: Vec<(&'static str, u16)>,
    /// The finished job's `?format=lay` bytes.
    lay: Vec<u8>,
    /// The uploaded graph's row in `GET /v1/graphs`.
    listed: Json,
}

/// Replay the conversation against `front`. Every 4xx must carry an
/// `"error"` field.
fn converse(front: SocketAddr) -> Transcript {
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("conform", 40, 3, 5)));
    let mut statuses = Vec::new();
    let mut step_with =
        |name: &'static str, method: &str, path: &str, headers: &str, body: &[u8]| {
            let (status, head, body) = http_with(front, method, path, headers, body);
            if (400..500).contains(&status) {
                assert!(
                    json(&body).get("error").and_then(Json::str).is_some(),
                    "{name}: a {status} without an error field: {}",
                    text(&body)
                );
            }
            statuses.push((name, status));
            (head, body)
        };

    let upload = json(&step_with("upload", "POST", "/v1/graphs", "", gfa.as_bytes()).1);
    let graph = upload
        .get("graph_id")
        .and_then(Json::str)
        .expect("graph id");
    step_with("upload again", "POST", "/v1/graphs", "", gfa.as_bytes());
    // The listing carries an ETag; sending it back revalidates to a 304.
    let (head, listing) = step_with("list graphs", "GET", "/v1/graphs", "", b"");
    let listed = json(&listing)
        .get("graphs")
        .and_then(Json::arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("graph_id").and_then(Json::str) == Some(graph))
        })
        .cloned()
        .expect("the uploaded graph is listed");
    let etag = head
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .expect("an ETag on the listing");
    let revalidate = format!("If-None-Match: {etag}\r\n");
    step_with("revalidate graphs", "GET", "/v1/graphs", &revalidate, b"");
    let mut step = |name: &'static str, method: &str, path: &str, body: &[u8]| {
        step_with(name, method, path, "", body).1
    };
    // Graphs with nothing to lay out are refused, never laid out `done`.
    for (name, body, why) in [
        ("upload without segments", "H\tVN:Z:1.0\n", "no segments"),
        (
            "upload without a path",
            "S\t1\tACGT\nS\t2\tGG\nP\tp\t1+\t*\n",
            "no path with two or more steps",
        ),
    ] {
        let error = json(&step(name, "POST", "/v1/graphs", body.as_bytes()));
        let error = error.get("error").and_then(Json::str).unwrap_or_default();
        assert!(error.contains(why), "{name}: {error}");
    }
    let submit = format!("/v1/jobs?graph={graph}&engine=cpu&iters=5&threads=1&seed=7");
    let ticket = json(&step("submit by reference", "POST", &submit, b""));
    let job = ticket.get("job").and_then(Json::u64).expect("job id");
    let status_path = format!("/v1/jobs/{job}");
    step("status", "GET", &status_path, b"");
    // The stream blocks until the job is terminal; its last state is done.
    let events = event_lines(&step(
        "events",
        "GET",
        &format!("/v1/jobs/{job}/events"),
        b"",
    ));
    let last_state = events
        .iter()
        .filter_map(|e| e.get("state")?.str())
        .next_back();
    assert_eq!(last_state, Some("done"), "{events:?}");
    // A coordinator serves the result once its status says done, which
    // can trail the stream's last line by one monitor poll.
    wait_state(front, &status_path, "done");
    step("trace", "GET", &format!("/v1/jobs/{job}/trace"), b"");
    let lay = step(
        "result as lay",
        "GET",
        &format!("/v1/result/{job}?format=lay"),
        b"",
    );
    step(
        "bad format",
        "GET",
        &format!("/v1/result/{job}?format=svg"),
        b"",
    );
    step("unknown job", "GET", "/v1/jobs/999999", b"");
    step("non-numeric id", "GET", "/v1/jobs/banana", b"");
    step(
        "unknown parameter",
        "POST",
        &format!("{submit}&bogus=1"),
        b"",
    );
    let unknown_graph = "/v1/jobs?graph=00000000000000000000000000000000&engine=cpu";
    step("unknown graph", "POST", unknown_graph, b"");
    step("retired /v1/layout", "POST", "/v1/layout", gfa.as_bytes());
    step("unversioned healthz", "GET", "/healthz", b"");
    step("unversioned job", "GET", &format!("/jobs/{job}"), b"");
    step("PUT", "PUT", &status_path, b"");

    // A job whose engine panics: once its status says failed, the
    // status and the stream's terminal line carry the same error text.
    let boom = format!("/v1/jobs?graph={graph}&engine=boom&threads=1");
    let ticket = json(&step("submit a panicking engine", "POST", &boom, b""));
    let job = ticket.get("job").and_then(Json::u64).expect("job id");
    let status_path = format!("/v1/jobs/{job}");
    wait_state(front, &status_path, "failed");
    let status = json(&http(front, "GET", &status_path, b"").2);
    assert_eq!(status.get("error").and_then(Json::str), Some(BOOM_ERROR));
    let events = event_lines(&step(
        "events of a failed job",
        "GET",
        &format!("/v1/jobs/{job}/events"),
        b"",
    ));
    let terminal = events.last().expect("a terminal event");
    assert_eq!(terminal.get("job").and_then(Json::u64), Some(job));
    assert_eq!(terminal.get("state").and_then(Json::str), Some("failed"));
    assert_eq!(
        terminal.get("error").and_then(Json::str),
        Some(BOOM_ERROR),
        "{events:?}"
    );
    Transcript {
        statuses,
        lay,
        listed,
    }
}

const EXPECTED: [(&str, u16); 22] = [
    ("upload", 201),
    ("upload again", 200),
    ("list graphs", 200),
    ("revalidate graphs", 304),
    ("upload without segments", 400),
    ("upload without a path", 400),
    ("submit by reference", 202),
    ("status", 200),
    ("events", 200),
    ("trace", 200),
    ("result as lay", 200),
    ("bad format", 400),
    ("unknown job", 404),
    ("non-numeric id", 400),
    ("unknown parameter", 400),
    ("unknown graph", 404),
    ("retired /v1/layout", 404),
    ("unversioned healthz", 404),
    ("unversioned job", 404),
    ("PUT", 405),
    ("submit a panicking engine", 202),
    ("events of a failed job", 200),
];

fn one_worker_service() -> Arc<LayoutService> {
    let mut engines = EngineRegistry::with_default_engines();
    engines.register("boom", |_| Box::new(Boom));
    Arc::new(LayoutService::start(
        engines,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ))
}

#[test]
fn standalone_server_and_coordinator_answer_the_same_conversation() {
    let standalone = HttpServer::bind("127.0.0.1:0", one_worker_service())
        .expect("bind server")
        .spawn();
    let alone = converse(standalone.addr());
    standalone.stop();

    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            heartbeat: Duration::from_millis(100),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let coord = coordinator.local_addr();
    let coordinator = coordinator.spawn();
    let role = ClusterRole::worker(coord.to_string());
    let worker = HttpServer::bind("127.0.0.1:0", one_worker_service())
        .expect("bind worker")
        .with_role(Arc::clone(&role))
        .spawn();
    let beat_stop = Arc::new(AtomicBool::new(false));
    let beat = spawn_heartbeat(
        coord.to_string(),
        worker.addr().to_string(),
        Duration::from_millis(100),
        role,
        Arc::clone(&beat_stop),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while json(&http(coord, "GET", "/v1/healthz", b"").2)
        .get("workers_alive")
        .and_then(Json::u64)
        != Some(1)
    {
        assert!(Instant::now() < deadline, "worker never joined");
        std::thread::sleep(Duration::from_millis(20));
    }
    let fleet = converse(coord);
    beat_stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    worker.stop();
    coordinator.stop();

    assert_eq!(alone.statuses, EXPECTED, "standalone server");
    assert_eq!(fleet.statuses, alone.statuses, "coordinator vs server");
    assert!(!alone.lay.is_empty());
    assert!(
        fleet.lay == alone.lay,
        "the same deterministic job gives the same .lay bytes"
    );
    // Both listings have one shape; `bytes` is each store's own size.
    let keys = |row: &Json| match row {
        Json::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("a graph row must be an object: {other:?}"),
    };
    assert_eq!(keys(&fleet.listed), keys(&alone.listed));
    for key in ["graph_id", "nodes", "paths", "steps"] {
        assert_eq!(fleet.listed.get(key), alone.listed.get(key), "{key}");
    }
}

#[test]
fn coordinator_metrics_shedding_and_connection_close() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            max_conns: 1,
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr();
    let handle = coordinator.spawn();

    // Every answer closes its connection, even when the client asks to
    // keep it open.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("read to EOF");
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
    assert!(answer.contains("Connection: close"), "{answer}");

    // The HTTP server's families lead the coordinator's own counters.
    let (status, _, body) = http(addr, "GET", "/v1/metrics", b"");
    assert_eq!(status, 200);
    let metrics = text(&body);
    validate_exposition(&metrics).unwrap_or_else(|e| panic!("{e}\n{metrics}"));
    assert!(
        metrics.contains("pgl_http_requests_total{route=\"/v1/healthz\",class=\"2xx\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("pgl_coord_jobs_submitted_total 0"),
        "{metrics}"
    );

    // One handler and a one-slot queue: A holds the handler mid-upload,
    // B waits in the queue, and C is shed with 503 + Retry-After.
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("shed", 30, 2, 4)));
    let (first_half, second_half) = gfa.as_bytes().split_at(gfa.len() / 2);
    let mut a = TcpStream::connect(addr).expect("connect A");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    a.write_all(
        format!(
            "POST /v1/graphs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            gfa.len()
        )
        .as_bytes(),
    )
    .unwrap();
    a.write_all(first_half).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // the handler takes A
    let b = TcpStream::connect(addr).expect("connect B");
    std::thread::sleep(Duration::from_millis(150)); // B fills the queue
    let (status, head, body) = {
        let mut c = TcpStream::connect(addr).expect("connect C");
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut answer = Vec::new();
        c.read_to_end(&mut answer).expect("read 503");
        let answer = text(&answer);
        let (head, body) = answer.split_once("\r\n\r\n").expect("complete answer");
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, head.to_string(), body.to_string())
    };
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(
        json(body.as_bytes())
            .get("error")
            .and_then(Json::str)
            .is_some(),
        "{body}"
    );

    // A finishes its upload and is served normally.
    a.write_all(second_half).unwrap();
    let mut answer = String::new();
    a.read_to_string(&mut answer).expect("read A");
    assert!(answer.starts_with("HTTP/1.1 201"), "{answer}");
    drop(b);
    handle.stop();
}
