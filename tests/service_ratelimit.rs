//! End-to-end tests of per-client HTTP rate limiting: over-budget
//! clients get `429 Too Many Requests` + `Retry-After`, the rejections
//! are visible in `/metrics` and `/stats`, and a server without
//! `--rate-limit` never throttles.

use rapid_pangenome_layout::service::{
    EngineRegistry, HttpConfig, HttpServer, LayoutService, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn small_service() -> Arc<LayoutService> {
    Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 4,
            ..ServiceConfig::default()
        },
    ))
}

fn spawn(
    service: &Arc<LayoutService>,
    cfg: HttpConfig,
) -> rapid_pangenome_layout::service::ServerHandle {
    HttpServer::bind("127.0.0.1:0", Arc::clone(service))
        .expect("bind ephemeral")
        .with_config(cfg)
        .spawn()
}

/// Read one HTTP response (status + raw head + Content-Length body)
/// from a keep-alive connection.
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
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, body)
}

fn send_get(stream: &mut TcpStream, path: &str) {
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    stream.flush().unwrap();
}

#[test]
fn over_budget_clients_get_429_with_retry_after() {
    let service = small_service();
    let handle = spawn(
        &service,
        HttpConfig {
            rate_limit: 5.0, // 5 req/s per IP, burst of 5
            ..HttpConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let mut ok = 0usize;
    let mut limited = 0usize;
    let mut saw_retry_after = false;
    for _ in 0..15 {
        send_get(&mut stream, "/v1/healthz");
        let (status, head, body) = read_response(&mut stream);
        match status {
            200 => ok += 1,
            429 => {
                limited += 1;
                saw_retry_after |= head.contains("Retry-After:");
                assert!(
                    String::from_utf8_lossy(&body).contains("rate limit"),
                    "429 explains itself"
                );
            }
            other => panic!("unexpected status {other}: {head}"),
        }
    }
    assert!(ok >= 5, "the burst allowance passes ({ok} ok)");
    assert!(limited >= 5, "the flood is throttled ({limited} limited)");
    assert!(saw_retry_after, "429s advertise Retry-After");

    // After a refill pause, the same client is served again — and the
    // rejections are visible in /metrics and /stats.
    std::thread::sleep(Duration::from_millis(1200));
    send_get(&mut stream, "/v1/metrics");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200, "bucket refilled");
    let metrics = String::from_utf8_lossy(&body).into_owned();
    let counted: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("pgl_http_rate_limited_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("rate-limited counter exposed");
    assert_eq!(counted, limited as u64, "{metrics}");

    std::thread::sleep(Duration::from_millis(400));
    send_get(&mut stream, "/v1/stats");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    let stats = String::from_utf8_lossy(&body).into_owned();
    assert!(
        stats.contains(&format!("\"rate_limited_429\":{limited}")),
        "{stats}"
    );
    drop(stream);
    handle.stop();
}

#[test]
fn rate_limited_requests_keep_the_connection_alive() {
    let service = small_service();
    let handle = spawn(
        &service,
        HttpConfig {
            rate_limit: 1.0,
            ..HttpConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_get(&mut stream, "/v1/healthz");
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    // The throttled request is answered on the same connection, which
    // stays usable for the client's (eventual) retry.
    send_get(&mut stream, "/v1/healthz");
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 429);
    assert!(
        head.to_lowercase().contains("connection: keep-alive"),
        "429 does not hang up: {head}"
    );
    std::thread::sleep(Duration::from_millis(1100));
    send_get(&mut stream, "/v1/healthz");
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200, "retry on the same connection succeeds");
    drop(stream);
    handle.stop();
}

#[test]
fn disabled_rate_limit_never_throttles() {
    let service = small_service();
    let handle = spawn(&service, HttpConfig::default()); // rate_limit: 0.0
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..20 {
        send_get(&mut stream, "/v1/healthz");
        let (status, _, _) = read_response(&mut stream);
        assert_eq!(status, 200);
    }
    send_get(&mut stream, "/v1/metrics");
    let (_, _, body) = read_response(&mut stream);
    assert!(
        String::from_utf8_lossy(&body).contains("pgl_http_rate_limited_total 0"),
        "nothing was throttled"
    );
    drop(stream);
    handle.stop();
}
