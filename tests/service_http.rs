//! End-to-end tests of the layout service's HTTP API: job round trips
//! and cache hits, plus the traffic-hardening behaviors — overload
//! shedding (503 + Retry-After from the bounded connection queue),
//! HTTP/1.1 keep-alive reuse, request metrics, duplicate-Content-Length
//! rejection, disk-tier cache hits across a server restart, and a
//! request-head parser that survives arbitrary bytes.

use proptest::prelude::*;
use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    EngineRegistry, HttpConfig, HttpServer, LayoutService, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One blocking HTTP/1.1 exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
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

fn body_text(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

/// Parse a JSON answer body; a malformed body fails the test.
fn json(body: &[u8]) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("malformed JSON ({e}): {}", body_text(body)))
}

/// The `job` id of a submit answer.
fn job_id(body: &[u8]) -> u64 {
    json(body).get("job").and_then(Json::u64).expect("job id")
}

/// The `state` of a job status answer.
fn state(body: &[u8]) -> String {
    json(body)
        .get("state")
        .and_then(Json::str)
        .expect("state")
        .into()
}

#[test]
fn layout_jobs_round_trip_over_http_and_hit_the_cache() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 8,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind ephemeral");
    let handle = server.spawn();
    let addr = handle.addr();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("http", 50, 3, 7)));
    let post_path = "/v1/jobs?engine=cpu&iters=4&threads=1&seed=42";

    // Health and stats respond before any work.
    let (status, body) = http(addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200, "{}", body_text(&body));
    let (status, _) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(status, 200);

    // Submit the first job.
    let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
    let text = body_text(&body);
    assert_eq!(status, 202, "{text}");
    assert_eq!(
        json(&body).get("cached"),
        Some(&Json::Bool(false)),
        "first request computes: {text}"
    );
    let job = job_id(&body);

    // Poll to completion.
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_status = loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
        assert_eq!(status, 200);
        let text = body_text(&body);
        match state(&body).as_str() {
            "done" => break text,
            "failed" | "cancelled" => panic!("job should succeed: {text}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "timed out polling job: {text}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        final_status.contains("\"progress\":1.000"),
        "{final_status}"
    );

    // Fetch the TSV result.
    let (status, tsv_bytes) = http(addr, "GET", &format!("/v1/result/{job}"), b"");
    assert_eq!(status, 200);
    let tsv = body_text(&tsv_bytes);
    assert!(
        tsv.starts_with("#idx"),
        "TSV header expected, got: {}",
        &tsv[..tsv.len().min(60)]
    );
    assert!(tsv.lines().count() > 1, "TSV has coordinate rows");

    // The identical request is served from the cache, already done.
    let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
    let text = body_text(&body);
    assert_eq!(status, 202);
    assert_eq!(
        json(&body).get("cached"),
        Some(&Json::Bool(true)),
        "second request hits the cache: {text}"
    );
    assert_eq!(state(&body), "done", "{text}");
    let job2 = job_id(&body);
    assert_ne!(job, job2);
    let (status, body2) = http(addr, "GET", &format!("/v1/result/{job2}"), b"");
    assert_eq!(status, 200);
    assert_eq!(tsv_bytes, body2, "cached layout is byte-identical");

    // A *different* config misses the cache.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=5&threads=1&seed=42",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    assert_eq!(json(&body).get("cached"), Some(&Json::Bool(false)));

    // Stats agree: one hit so far.
    let (status, body) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    let stats = json(&body);
    assert_eq!(
        stats.at("cache.hits").and_then(Json::u64),
        Some(1),
        "{stats:?}"
    );
    assert!(
        stats.at("jobs.submitted").and_then(Json::u64).unwrap() >= 3,
        "{stats:?}"
    );

    // Error paths: unknown job, result of unknown job, bad engine, 404s.
    let (status, _) = http(addr, "GET", "/v1/jobs/99999", b"");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/result/99999", b"");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "POST", "/v1/jobs?engine=quantum", gfa.as_bytes());
    assert_eq!(status, 400);
    assert!(body_text(&body).contains("quantum"));
    let (status, _) = http(addr, "GET", "/no/such/route", b"");
    assert_eq!(status, 404);

    handle.stop();
}

#[test]
fn http_cancellation_stops_a_running_job() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 4,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("cancel", 120, 4, 3)));
    // Enough iterations that only cancellation ends the job promptly.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=100000&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let job = job_id(&body);

    // Wait until it is running, cancel, then confirm the terminal state.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
        if state(&body) == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = http(addr, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
        if state(&body) == "cancelled" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancel never landed: {}",
            body_text(&body)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // No result for a cancelled job.
    let (status, _) = http(addr, "GET", &format!("/v1/result/{job}"), b"");
    assert_eq!(status, 409);

    handle.stop();
}

/// Read exactly one HTTP response (status line + headers + a
/// Content-Length body) without consuming bytes of the next one, so a
/// connection can be reused. Returns (status, raw head, body).
fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read header byte");
        head.push(byte[0]);
        assert!(head.len() < 64 * 1024, "runaway response head");
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status code in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, body)
}

/// Write one request on an existing connection (keep-alive by default).
fn send_request(stream: &mut TcpStream, method: &str, path: &str, extra: &str, body: &[u8]) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{extra}\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
}

fn spawn_server(
    service: &Arc<LayoutService>,
    http_cfg: HttpConfig,
) -> rapid_pangenome_layout::service::ServerHandle {
    HttpServer::bind("127.0.0.1:0", Arc::clone(service))
        .expect("bind ephemeral")
        .with_config(http_cfg)
        .spawn()
}

fn small_service(workers: usize) -> Arc<LayoutService> {
    Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers,
            cache_entries: 8,
            ..ServiceConfig::default()
        },
    ))
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let service = small_service(1);
    let handle = spawn_server(
        &service,
        HttpConfig {
            max_conns: 4,
            keep_alive: Duration::from_secs(5),
            ..HttpConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Three requests ride the same TCP connection.
    for _ in 0..3 {
        send_request(&mut stream, "GET", "/v1/healthz", "", b"");
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{}", body_text(&body));
        assert!(
            head.to_lowercase().contains("connection: keep-alive"),
            "server advertises reuse: {head}"
        );
        assert!(head.to_lowercase().contains("keep-alive: timeout="));
    }

    // The metrics endpoint (request 4 on the same socket) has seen the
    // reuses and the per-route histogram.
    send_request(&mut stream, "GET", "/v1/metrics", "", b"");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert!(text.contains("pgl_http_keepalive_reuses_total 3"), "{text}");
    assert!(
        text.contains("pgl_http_requests_total{route=\"/v1/healthz\",class=\"2xx\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("pgl_http_request_duration_us_bucket{route=\"/v1/healthz\",le=\"+Inf\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("quantile=\"0.99\""),
        "quantiles derivable: {text}"
    );

    // `Connection: close` is honored: the server answers and hangs up.
    send_request(
        &mut stream,
        "GET",
        "/v1/healthz",
        "Connection: close\r\n",
        b"",
    );
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.to_lowercase().contains("connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "nothing follows a closed response");

    drop(stream);
    handle.stop();
}

#[test]
fn overloaded_server_sheds_load_with_503_and_retry_after() {
    let service = small_service(1);
    // One handler thread and a one-slot queue: the third concurrent
    // connection must be shed.
    let handle = spawn_server(
        &service,
        HttpConfig {
            max_conns: 1,
            keep_alive: Duration::from_secs(1),
            ..HttpConfig::default()
        },
    );
    let addr = handle.addr();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("load", 40, 2, 5)));
    let (first_half, second_half) = gfa.as_bytes().split_at(gfa.len() / 2);

    // Connection A occupies the only handler: full headers, half a body.
    let mut a = TcpStream::connect(addr).expect("connect A");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    a.write_all(
        format!(
            "POST /v1/jobs?engine=cpu&iters=2&threads=1 HTTP/1.1\r\nHost: x\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            gfa.len()
        )
        .as_bytes(),
    )
    .unwrap();
    a.write_all(first_half).unwrap();
    a.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300)); // handler takes A

    // Connection B fills the single queue slot.
    let b = TcpStream::connect(addr).expect("connect B");
    std::thread::sleep(Duration::from_millis(150));

    // Connection C: queue full → immediate 503 from the acceptor, with
    // Retry-After, instead of hanging.
    let mut c = TcpStream::connect(addr).expect("connect C");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (status, head, body) = read_response(&mut c);
    assert_eq!(status, 503, "{}", body_text(&body));
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body_text(&body).contains("overloaded"));

    // A finishes its upload and is served normally.
    a.write_all(second_half).unwrap();
    a.flush().unwrap();
    let (status, _, body) = read_response(&mut a);
    assert_eq!(status, 202, "{}", body_text(&body));
    assert!(json(&body).get("job").and_then(Json::u64).is_some());

    drop(a);
    drop(b);
    drop(c);
    // The shed connection shows up in the stats.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(addr, "GET", "/v1/stats", b"");
        assert_eq!(status, 200);
        if json(&body).at("http.rejected_503").and_then(Json::u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "503 never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
}

#[test]
fn disk_cache_hit_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("pgl_http_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServiceConfig {
        workers: 1,
        cache_entries: 8,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("disk", 50, 3, 9)));
    let post_path = "/v1/jobs?engine=cpu&iters=4&threads=1&seed=7";

    // First server computes the layout and spills it to the disk tier.
    let first_tsv = {
        let service = Arc::new(LayoutService::start(
            EngineRegistry::with_default_engines(),
            cfg(),
        ));
        let handle = spawn_server(&service, HttpConfig::default());
        let addr = handle.addr();
        let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
        assert_eq!(status, 202);
        assert_eq!(json(&body).get("cached"), Some(&Json::Bool(false)));
        let job = job_id(&body);
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
            if state(&body) == "done" {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "job never finished: {}",
                body_text(&body)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, tsv) = http(addr, "GET", &format!("/v1/result/{job}"), b"");
        assert_eq!(status, 200);
        handle.stop();
        tsv
    }; // the whole first service (and its in-memory cache) is dropped here

    // A freshly started server answers the same request from the disk
    // tier without recomputation: the ticket is born cached.
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        cfg(),
    ));
    let handle = spawn_server(&service, HttpConfig::default());
    let addr = handle.addr();
    let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
    assert_eq!(status, 202);
    let ticket = json(&body);
    assert!(
        ticket.get("cached") == Some(&Json::Bool(true))
            && ticket.get("state").and_then(Json::str) == Some("done"),
        "restarted server hits the disk tier: {ticket:?}"
    );
    let job = job_id(&body);
    let (status, tsv) = http(addr, "GET", &format!("/v1/result/{job}"), b"");
    assert_eq!(status, 200);
    assert_eq!(tsv, first_tsv, "disk tier serves the identical layout");
    let (_, stats) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(
        json(&stats).at("cache.disk_hits").and_then(Json::u64),
        Some(1)
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_is_prompt_even_with_idle_keep_alive_connections() {
    let service = small_service(1);
    // A long idle timeout: stop() must not wait it out.
    let handle = spawn_server(
        &service,
        HttpConfig {
            max_conns: 2,
            keep_alive: Duration::from_secs(30),
            ..HttpConfig::default()
        },
    );
    let idle = TcpStream::connect(handle.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(200)); // handler picks it up
    let t0 = Instant::now();
    handle.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop() blocked for {:?} behind an idle connection",
        t0.elapsed()
    );
    drop(idle);
}

#[test]
fn conflicting_content_length_headers_are_rejected() {
    let service = small_service(1);
    let handle = spawn_server(&service, HttpConfig::default());
    let addr = handle.addr();

    // Conflicting values: a request-smuggling probe → 400, no body read.
    let mut probe = TcpStream::connect(addr).expect("connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    probe
        .write_all(
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\
              Content-Length: 6\r\nConnection: close\r\n\r\nabcd",
        )
        .unwrap();
    let (status, _, body) = read_response(&mut probe);
    assert_eq!(status, 400, "{}", body_text(&body));
    assert!(
        body_text(&body).contains("Content-Length"),
        "{}",
        body_text(&body)
    );

    // Identical duplicates are harmless and accepted (RFC 9112 §6.3).
    let gfa = "S\t1\tAC\nS\t2\tGT\nL\t1\t+\t2\t+\t0M\nP\tp\t1+,2+\t*\n";
    let mut dup = TcpStream::connect(addr).expect("connect");
    dup.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    dup.write_all(
        format!(
            "POST /v1/jobs?iters=2&threads=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\
             Content-Length: {len}\r\nConnection: close\r\n\r\n{gfa}",
            len = gfa.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let (status, _, _) = read_response(&mut dup);
    assert_eq!(status, 202, "identical duplicates behave as one header");

    // Transfer-Encoding (the other smuggling vector) is refused too.
    let mut te = TcpStream::connect(addr).expect("connect");
    te.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    te.write_all(
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\
          Connection: close\r\n\r\n0\r\n\r\n",
    )
    .unwrap();
    let (status, _, _) = read_response(&mut te);
    assert_eq!(status, 400);

    handle.stop();
}

/// Send `soup` as a whole connection (write it, then close the write
/// half) to a server with one handler, let the server finish with it,
/// then require `GET /v1/healthz` on a fresh connection to answer
/// within 10 s: a soup that kills the handler leaves no one to answer.
fn server_survives(soup: &[u8]) -> Result<(), TestCaseError> {
    let one_handler = HttpConfig {
        max_conns: 1,
        ..HttpConfig::default()
    };
    let handle = spawn_server(&small_service(1), one_handler);
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may answer and close before reading it all.
    let _ = conn.write_all(soup);
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let _ = conn.read_to_end(&mut Vec::new());
    let mut probe = TcpStream::connect(handle.addr()).expect("connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_request(
        &mut probe,
        "GET",
        "/v1/healthz",
        "Connection: close\r\n",
        b"",
    );
    let mut answer = Vec::new();
    let read = probe.read_to_end(&mut answer);
    handle.stop();
    prop_assert!(
        read.is_ok() && answer.starts_with(b"HTTP/1.1 200"),
        "no healthz answer after soup {:?}: {read:?} {:?}",
        body_text(soup),
        body_text(&answer)
    );
    Ok(())
}

/// Request tokens the head parser branches on, for soups that get past
/// the request line more often than uniform bytes do.
const TOKENS: [&[u8]; 30] = [
    b"GET ",
    b"POST ",
    b"DELETE ",
    b"PUT ",
    b"/v1/jobs",
    b"/v1/jobs/1",
    b"/v1/jobs/1/events",
    b"/v1/graphs",
    b"/v1/healthz",
    b"/v1/result/1",
    b"?from=",
    b"&",
    b"=",
    b"%",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b"Content-Length:",
    b"Transfer-Encoding:",
    b"Connection:",
    b" keep-alive",
    b" close",
    b"0",
    b"7",
    b"18446744073709551616",
    b",",
    b" ",
    b"\r\n",
    b"\n",
    b":",
    b"\xFF",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform bytes never cost the server its handler thread.
    #[test]
    fn request_heads_of_arbitrary_bytes_never_kill_a_handler(
        soup in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        server_survives(&soup)?;
    }
}

proptest! {
    // About one soup in 80 reaches a malformed Content-Length value, so
    // many cases are needed; each costs well under a millisecond.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Neither do lines of request tokens. Each line starts a header
    /// name afresh; an empty line ends the head.
    #[test]
    fn request_heads_of_token_soup_never_kill_a_handler(
        lines in prop::collection::vec(
            prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..6),
            0..12,
        )
    ) {
        let lines: Vec<Vec<u8>> = lines.iter().map(|line| line.concat()).collect();
        server_survives(&lines.join(&b"\r\n"[..]))?;
    }
}
