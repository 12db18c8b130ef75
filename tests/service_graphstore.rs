//! End-to-end tests of the upload-once graph store workflow over HTTP:
//! `POST /v1/graphs` parses a GFA exactly once, `POST /v1/jobs?graph=<id>`
//! lays it out by reference (sub-kilobyte requests, any engine),
//! `DELETE /v1/graphs/<id>` drops it without sinking in-flight jobs, and
//! the `.lean` disk tier serves references across server restarts
//! without a single re-parse.

use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    EngineRegistry, HttpConfig, HttpServer, LayoutService, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One blocking HTTP/1.1 exchange; returns (status, body) and the total
/// bytes that went over the wire for the request.
fn http_sized(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>, usize) {
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
    let request_bytes = head.len() + body.len();
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
    (status, response[header_end + 4..].to_vec(), request_bytes)
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let (status, body, _) = http_sized(addr, method, path, body);
    (status, body)
}

fn body_text(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

/// Parse a JSON answer body; a malformed body fails the test.
fn json(body: &[u8]) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("malformed JSON ({e}): {}", body_text(body)))
}

/// The `graph_id` of an upload answer.
fn graph_id(body: &[u8]) -> String {
    json(body)
        .get("graph_id")
        .and_then(Json::str)
        .expect("graph id")
        .into()
}

/// The `job` id of a submit answer.
fn job_id(body: &[u8]) -> u64 {
    json(body).get("job").and_then(Json::u64).expect("job id")
}

fn poll_done(addr: SocketAddr, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
        assert_eq!(status, 200);
        let text = body_text(&body);
        match json(&body).get("state").and_then(Json::str) {
            Some("done") => return,
            Some("failed" | "cancelled") => panic!("job should succeed: {text}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "timed out polling job: {text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn(service: &Arc<LayoutService>) -> rapid_pangenome_layout::service::ServerHandle {
    HttpServer::bind("127.0.0.1:0", Arc::clone(service))
        .expect("bind ephemeral")
        .with_config(HttpConfig::default())
        .spawn()
}

/// The acceptance-criterion test: a GFA uploaded once via `POST /graphs`
/// is parsed exactly once (the `parses` counter in `/stats`) while
/// serving four subsequent by-reference layout requests across three
/// engines — and every by-reference request is under 1 KB on the wire
/// regardless of graph size.
#[test]
fn upload_once_serves_many_layouts_across_engines_with_one_parse() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 2,
            cache_entries: 16,
            ..ServiceConfig::default()
        },
    ));
    let handle = spawn(&service);
    let addr = handle.addr();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("store", 60, 3, 11)));
    assert!(gfa.len() > 1024, "graph text is itself larger than 1 KB");

    // Upload once: 201 Created with the parsed metadata.
    let (status, body) = http(addr, "POST", "/v1/graphs", gfa.as_bytes());
    let text = body_text(&body);
    assert_eq!(status, 201, "{text}");
    let upload = json(&body);
    let id = graph_id(&body);
    assert_eq!(id.len(), 32);
    assert!(upload.get("nodes").and_then(Json::u64).unwrap() > 0);
    assert!(upload.get("steps").and_then(Json::u64).unwrap() > 0);
    assert_eq!(upload.get("dedup"), Some(&Json::Bool(false)));

    // Re-upload dedupes without a parse.
    let (status, body) = http(addr, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("dedup"), Some(&Json::Bool(true)));

    // The store lists it.
    let (status, body) = http(addr, "GET", "/v1/graphs", b"");
    assert_eq!(status, 200);
    let listing = json(&body);
    assert_eq!(
        listing.at("graphs.0.graph_id").and_then(Json::str),
        Some(id.as_str())
    );
    assert_eq!(listing.get("count").and_then(Json::u64), Some(1));

    // Four by-reference layout requests across both engines. Every
    // request (line + headers + empty body) stays under 1 KB.
    let mut tsvs = Vec::new();
    for (engine, iters) in [("cpu", 4), ("cpu", 5), ("batch", 4), ("batch", 3)] {
        let path = format!("/v1/jobs?graph={id}&engine={engine}&iters={iters}&threads=1");
        let (status, body, request_bytes) = http_sized(addr, "POST", &path, b"");
        let text = body_text(&body);
        assert_eq!(status, 202, "{text}");
        assert!(
            request_bytes < 1024,
            "by-reference request must be < 1 KB, was {request_bytes}"
        );
        assert_eq!(
            json(&body).get("graph").and_then(Json::str),
            Some(id.as_str())
        );
        let job = job_id(&body);
        poll_done(addr, job);
        let (status, tsv) = http(addr, "GET", &format!("/v1/result/{job}"), b"");
        assert_eq!(status, 200);
        tsvs.push(tsv);
    }
    assert_ne!(
        tsvs[0], tsvs[1],
        "different iters produce different layouts"
    );

    // The whole exchange parsed the GFA exactly once.
    let (status, body) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    let stats = json(&body);
    assert_eq!(stats.at("graphs.parses").and_then(Json::u64), Some(1));
    assert!(
        stats.at("graphs.resident").and_then(Json::u64).unwrap() >= 1,
        "graph resident: {stats:?}"
    );
    handle.stop();
}

#[test]
fn identical_by_reference_requests_hit_the_layout_cache() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 8,
            ..ServiceConfig::default()
        },
    ));
    let handle = spawn(&service);
    let addr = handle.addr();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("cache", 40, 2, 13)));
    let (_, body) = http(addr, "POST", "/v1/graphs", gfa.as_bytes());
    let id = graph_id(&body);

    let path = format!("/v1/jobs?graph={id}&engine=cpu&iters=4&threads=1");
    let (_, body) = http(addr, "POST", &path, b"");
    poll_done(addr, job_id(&body));
    // The identical reference request is born done from the cache.
    let (status, body) = http(addr, "POST", &path, b"");
    assert_eq!(status, 202);
    let ticket = json(&body);
    assert_eq!(ticket.get("cached"), Some(&Json::Bool(true)), "{ticket:?}");
    assert_eq!(ticket.get("state").and_then(Json::str), Some("done"));
    handle.stop();
}

#[test]
fn delete_of_an_in_use_graph_does_not_sink_the_running_job() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 4,
            ..ServiceConfig::default()
        },
    ));
    let handle = spawn(&service);
    let addr = handle.addr();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("del", 120, 4, 17)));
    let (_, body) = http(addr, "POST", "/v1/graphs", gfa.as_bytes());
    let id = graph_id(&body);

    // A long-running by-reference job…
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/jobs?graph={id}&engine=cpu&iters=100000&threads=1"),
        b"",
    );
    assert_eq!(status, 202);
    let job = job_id(&body);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
        if json(&body).get("state").and_then(Json::str) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }

    // …survives deletion of its graph (shared Arc keeps the data),
    let (status, body) = http(addr, "DELETE", &format!("/v1/graphs/{id}"), b"");
    assert_eq!(status, 200, "{}", body_text(&body));
    let (_, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
    assert_eq!(
        json(&body).get("state").and_then(Json::str),
        Some("running"),
        "job unaffected by delete"
    );

    // …while new references 404 and double deletes 404.
    let (status, _) = http(
        addr,
        "POST",
        &format!("/v1/jobs?graph={id}&engine=cpu&iters=2"),
        b"",
    );
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", &format!("/v1/graphs/{id}"), b"");
    assert_eq!(status, 404);
    // Bad ids are 400, unknown well-formed ids are 404.
    let (status, _) = http(addr, "DELETE", "/v1/graphs/nothex", b"");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "POST", "/v1/jobs?graph=zzz&engine=cpu", b"");
    assert_eq!(status, 400);

    let (status, _) = http(addr, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
    assert_eq!(status, 200);
    handle.stop();
}

#[test]
fn graph_disk_tier_serves_references_across_restart_without_reparsing() {
    let dir = std::env::temp_dir().join(format!("pgl_graphstore_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServiceConfig {
        workers: 1,
        cache_entries: 8,
        graph_entries: 4,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("disk", 50, 3, 19)));

    // First server: upload only (no layout at all).
    let id = {
        let service = Arc::new(LayoutService::start(
            EngineRegistry::with_default_engines(),
            cfg(),
        ));
        let handle = spawn(&service);
        let (status, body) = http(handle.addr(), "POST", "/v1/graphs", gfa.as_bytes());
        assert_eq!(status, 201);
        let id = graph_id(&body);
        handle.stop();
        id
    };

    // Second server: the graph comes back from the `.lean` disk tier;
    // the GFA text never crosses the wire again and is never re-parsed.
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        cfg(),
    ));
    let handle = spawn(&service);
    let addr = handle.addr();
    let (status, body) = http(addr, "GET", "/v1/graphs", b"");
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).get("count").and_then(Json::u64),
        Some(0),
        "fresh store catalog is empty until referenced"
    );
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/jobs?graph={id}&engine=cpu&iters=4&threads=1"),
        b"",
    );
    assert_eq!(status, 202, "{}", body_text(&body));
    poll_done(addr, job_id(&body));
    let (_, body) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(
        json(&body).at("graphs.parses").and_then(Json::u64),
        Some(0),
        "no re-parse: {}",
        body_text(&body)
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_segment_inline_bodies_are_rejected_before_enqueueing() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let handle = spawn(&service);
    let addr = handle.addr();

    // Text that "parses" into an empty graph is refused with 400 at
    // submit — it never occupies a queue slot or reaches a worker.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu",
        b"H\tVN:Z:1.0\nnot a record\n",
    );
    assert_eq!(status, 400);
    assert!(
        body_text(&body).contains("no segments"),
        "{}",
        body_text(&body)
    );
    // Same for POST /graphs.
    let (status, _) = http(addr, "POST", "/v1/graphs", b"only garbage\n");
    assert_eq!(status, 400);

    let (_, body) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(
        json(&body).at("jobs.submitted").and_then(Json::u64),
        Some(0),
        "no job was ever created: {}",
        body_text(&body)
    );
    handle.stop();
}
