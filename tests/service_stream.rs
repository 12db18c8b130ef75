//! Streaming-progress integration tests: `GET /v1/jobs/<id>/events`
//! delivers the job's event log as a chunked NDJSON stream — ordered
//! sequence numbers, monotonic progress, terminal state last, stream
//! closed on terminal — without the client ever polling.

use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{EngineRegistry, HttpServer, LayoutService, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_gfa(seed: u64) -> String {
    write_gfa(&generate(&PangenomeSpec::basic("stream", 50, 3, seed)))
}

fn spawn_http(
    workers: usize,
) -> (
    Arc<LayoutService>,
    rapid_pangenome_layout::service::ServerHandle,
) {
    let svc = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers,
            cache_entries: 16,
            ..ServiceConfig::default()
        },
    ));
    let handle = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc))
        .expect("bind")
        .spawn();
    (svc, handle)
}

/// One plain HTTP exchange (Connection: close); returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
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
    (status, response[header_end + 4..].to_vec())
}

fn text(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

/// Parse a JSON answer body or event line; malformed JSON fails the
/// test.
fn json(body: impl AsRef<[u8]>) -> Json {
    let body = body.as_ref();
    Json::parse(body).unwrap_or_else(|e| panic!("malformed JSON ({e}): {}", text(body)))
}

/// The `job` id of a submit answer.
fn job_id(body: &[u8]) -> u64 {
    json(body).get("job").and_then(Json::u64).expect("job id")
}

/// The `state` of a status answer or event line (`None` for events
/// that carry none).
fn state(line: impl AsRef<[u8]>) -> Option<String> {
    Some(json(line).get("state")?.str()?.to_string())
}

/// Open the event stream for `job` and read it to completion: returns
/// `(status, head, ndjson lines)` after the server ends the chunked
/// stream. One request, no polling.
fn read_event_stream(addr: SocketAddr, path: &str) -> (u16, String, Vec<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header line");
        if line.trim_end().is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    if status != 200 {
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        return (status, head, vec![text(&rest)]);
    }
    assert!(
        head.to_lowercase().contains("transfer-encoding: chunked"),
        "stream is chunked: {head}"
    );
    // Decode chunks until the 0-chunk; collect complete NDJSON lines.
    let mut payload = String::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).expect("chunk size");
        let size_line = size_line.trim();
        if size_line.is_empty() {
            continue;
        }
        let size = usize::from_str_radix(size_line, 16)
            .unwrap_or_else(|_| panic!("bad chunk size {size_line:?}"));
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk).expect("chunk body");
        payload.push_str(&String::from_utf8_lossy(&chunk));
    }
    // After the 0-chunk the server closes: nothing but the trailing
    // CRLF may follow.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after 0-chunk");
    assert!(
        rest.iter().all(|b| *b == b'\r' || *b == b'\n'),
        "no data after the terminating chunk"
    );
    let lines = payload
        .lines()
        .map(str::to_string)
        .filter(|l| !l.is_empty() && json(l).get("event").and_then(Json::str) != Some("heartbeat"))
        .collect();
    (status, head, lines)
}

/// Acceptance: a multi-iteration CPU job streams ≥ 3 ordered progress
/// events plus its state transitions over one chunked response, and the
/// stream closes on the terminal state. The client never polls.
#[test]
fn events_stream_ordered_progress_and_close_on_done() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(1);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=800&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202, "{}", text(&body));
    let job = job_id(&body);

    let (status, _, lines) = read_event_stream(addr, &format!("/v1/jobs/{job}/events"));
    assert_eq!(status, 200);
    assert!(lines.len() >= 5, "events: {lines:?}");

    // Sequence numbers are present, unique, and strictly increasing.
    let seqs: Vec<u64> = lines
        .iter()
        .map(|l| {
            json(l)
                .get("seq")
                .and_then(Json::u64)
                .unwrap_or_else(|| panic!("no seq in {l}"))
        })
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "ordered seqs: {seqs:?}"
    );
    assert_eq!(seqs[0], 0, "stream starts at the birth event");

    // The log begins with queued, runs, and ends with done.
    assert_eq!(state(&lines[0]).as_deref(), Some("queued"), "{}", lines[0]);
    assert!(
        lines.iter().any(|l| state(l).as_deref() == Some("running")),
        "{lines:?}"
    );
    assert_eq!(
        state(lines.last().unwrap()).as_deref(),
        Some("done"),
        "terminal state closes the stream: {lines:?}"
    );

    // At least 3 progress events, monotonically increasing, ending at 1.
    let progress: Vec<f64> = lines
        .iter()
        .map(json)
        .filter(|e| e.get("event").and_then(Json::str) == Some("progress"))
        .map(|e| e.get("progress").and_then(Json::f64).unwrap())
        .collect();
    assert!(progress.len() >= 3, "progress events: {progress:?}");
    assert!(
        progress.windows(2).all(|w| w[0] < w[1]),
        "monotonic progress: {progress:?}"
    );
    assert_eq!(*progress.last().unwrap(), 1.0);

    // Every event names the job.
    assert!(lines
        .iter()
        .all(|l| json(l).get("job").and_then(Json::u64) == Some(job)));

    handle.stop();
}

/// `?from=<seq>` resumes mid-log: a reconnecting client sees exactly
/// the tail it missed.
#[test]
fn from_cursor_resumes_where_a_dropped_client_left_off() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(2);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=300&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let job = job_id(&body);

    let (_, _, all) = read_event_stream(addr, &format!("/v1/jobs/{job}/events"));
    assert!(all.len() >= 3);
    let resume_at = all.len() as u64 - 2;
    let (status, _, tail) =
        read_event_stream(addr, &format!("/v1/jobs/{job}/events?from={resume_at}"));
    assert_eq!(status, 200);
    assert_eq!(tail.len(), 2, "only the tail replays: {tail:?}");
    assert_eq!(
        json(&tail[0]).get("seq").and_then(Json::u64),
        Some(resume_at)
    );
    assert_eq!(tail.last(), all.last());

    handle.stop();
}

/// Cancelling a streaming job ends its stream with the cancelled state
/// event — the watcher learns the outcome without polling.
#[test]
fn cancellation_closes_the_stream_with_a_cancelled_event() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(3);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=100000&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let job = job_id(&body);

    // Cancel from a second connection once the job is running.
    let canceller = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
            if state(&body).as_deref() == Some("running") {
                break;
            }
            assert!(Instant::now() < deadline, "job never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (status, _) = http(addr, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
        assert_eq!(status, 200);
    });
    let (status, _, lines) = read_event_stream(addr, &format!("/v1/jobs/{job}/events"));
    canceller.join().unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        state(lines.last().unwrap()).as_deref(),
        Some("cancelled"),
        "stream ends with the cancellation: {lines:?}"
    );
    assert!(
        !lines.iter().any(|l| state(l).as_deref() == Some("done")),
        "{lines:?}"
    );

    handle.stop();
}

/// A cache-hit job is born done: its stream replays the single `done`
/// event and closes immediately. Unknown jobs are a plain 404. Failed
/// jobs stream their error message.
#[test]
fn streams_for_cached_unknown_and_failed_jobs() {
    let (svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(4);

    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let first = job_id(&body);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{first}"), b"");
        if state(&body).as_deref() == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }

    // The identical submission is served from the layout cache.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    assert_eq!(json(&body).get("cached"), Some(&Json::Bool(true)));
    let cached = job_id(&body);
    let (status, _, lines) = read_event_stream(addr, &format!("/v1/jobs/{cached}/events"));
    assert_eq!(status, 200);
    assert_eq!(lines.len(), 1, "born-done log: {lines:?}");
    assert_eq!(state(&lines[0]).as_deref(), Some("done"));

    // Unknown job: 404 before any stream starts.
    let (status, _, lines) = read_event_stream(addr, "/v1/jobs/99999/events");
    assert_eq!(status, 404, "{lines:?}");

    // A TTL-expired job streams failed + its error.
    let (_, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=100000&threads=1&seed=8",
        gfa.as_bytes(),
    );
    let blocker = job_id(&body);
    let (_, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=3&threads=1&seed=9&ttl_ms=30",
        gfa.as_bytes(),
    );
    let doomed = job_id(&body);
    std::thread::sleep(Duration::from_millis(60));
    let (status, _) = http(addr, "POST", &format!("/v1/jobs/{blocker}/cancel"), b"");
    assert_eq!(status, 200);
    svc.wait(doomed, Duration::from_secs(60)).unwrap();
    let (status, _, lines) = read_event_stream(addr, &format!("/v1/jobs/{doomed}/events"));
    assert_eq!(status, 200);
    let last = json(lines.last().unwrap());
    assert_eq!(
        last.get("state").and_then(Json::str),
        Some("failed"),
        "{lines:?}"
    );
    assert!(
        last.get("error")
            .and_then(Json::str)
            .is_some_and(|e| e.contains("expired in queue")),
        "{last:?}"
    );

    handle.stop();
}

/// Streams pin handler threads, so only half the pool may stream at
/// once: with `max_conns = 4` the third concurrent watcher is shed
/// with `503 + Retry-After` instead of exhausting the pool.
#[test]
fn excess_concurrent_streams_are_shed_with_503() {
    let svc = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 16,
            ..ServiceConfig::default()
        },
    ));
    let handle = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc))
        .expect("bind")
        .with_config(rapid_pangenome_layout::service::HttpConfig {
            max_conns: 4,
            ..Default::default()
        })
        .spawn();
    let addr = handle.addr();
    let gfa = small_gfa(6);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=100000&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let job = job_id(&body);

    // Two watchers occupy the stream budget (max_conns/2 = 2): open
    // them and confirm each got its 200 + chunked header.
    let mut watchers = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(
            format!("GET /v1/jobs/{job}/events HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("200"), "watcher admitted: {line}");
        watchers.push(reader);
    }

    // The third stream is shed, with Retry-After, not hung.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!("GET /v1/jobs/{job}/events HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )
    .unwrap();
    let mut response = Vec::new();
    s.read_to_end(&mut response).unwrap();
    let response = text(&response);
    assert!(response.contains("503"), "{response}");
    assert!(response.contains("Retry-After:"), "{response}");
    assert!(response.contains("event streams"), "{response}");

    // Other routes still answer while both streams are live.
    let (status, _) = http(addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);

    // Cancel the job: both admitted watchers see the terminal event and
    // their streams close, freeing the budget.
    let (status, _) = http(addr, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
    assert_eq!(status, 200);
    for mut reader in watchers {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("stream drains");
        assert!(rest.contains("\"state\":\"cancelled\""), "{rest}");
    }
    let (status, _, lines) = read_event_stream(addr, &format!("/v1/jobs/{job}/events"));
    assert_eq!(status, 200, "budget freed: {lines:?}");

    handle.stop();
}

/// Open an event stream for a job queued behind a long one: the queued
/// job generates no events, so its stream parks. Returns once the
/// stream is admitted (its 200 head read); the reader holds it open.
fn park_an_event_stream(addr: SocketAddr) -> BufReader<TcpStream> {
    let gfa = small_gfa(7);
    // A long job occupies the worker; a second queued job generates no
    // events, so its watcher parks.
    let (status, _) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=100000&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1&seed=2",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let quiet = job_id(&body);

    let mut watcher = TcpStream::connect(addr).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    watcher
        .write_all(
            format!("GET /v1/jobs/{quiet}/events HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    // Wait for the stream to be admitted (200 + first replayed event).
    let mut reader = BufReader::new(watcher);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("200"), "{line}");
    reader
}

/// Stopping the server is prompt even while an event stream is parked
/// waiting for a quiet job — the stream notices the stop flag instead
/// of waiting out its heartbeat interval.
#[test]
fn stop_is_prompt_with_an_active_event_stream() {
    let (_svc, handle) = spawn_http(1);
    let _stream = park_an_event_stream(handle.addr());

    let t0 = Instant::now();
    handle.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop() blocked {:?} behind a parked event stream",
        t0.elapsed()
    );
}

/// Stopping a server wakes a parked event stream at once, rather than
/// at the end of a wait slice: five servers, each stopped with one
/// stream parked, each stop well under the slice it used to wait.
#[test]
fn stop_wakes_a_parked_event_stream_within_100_ms() {
    for round in 0..5 {
        let (_svc, handle) = spawn_http(1);
        let _stream = park_an_event_stream(handle.addr());
        let t0 = Instant::now();
        handle.stop();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "round {round}: stop() took {took:?} with a parked event stream"
        );
    }
}

/// The retired unversioned alias `GET /jobs/<id>/events` is gone: only
/// the `/v1` path streams a job's event log.
#[test]
fn unversioned_events_path_is_not_found() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(5);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let job = job_id(&body);
    let (status, _, lines) = read_event_stream(addr, &format!("/jobs/{job}/events"));
    assert_eq!(status, 404, "{lines:?}");
    let (status, _, lines) = read_event_stream(addr, &format!("/v1/jobs/{job}/events"));
    assert_eq!(status, 200);
    assert_eq!(
        state(lines.last().unwrap()).as_deref(),
        Some("done"),
        "{lines:?}"
    );

    handle.stop();
}
