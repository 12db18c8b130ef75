//! End-to-end observability tests: the per-job trace endpoint (ordered
//! phase timeline whose durations account for the job's wall time),
//! live engine-telemetry events in the job stream, the merged
//! Prometheus exposition (HTTP + service families, checked with the
//! offline validator), and the enriched `/healthz` / `/stats` identity
//! fields.

use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    validate_exposition, EngineRegistry, EventKind, HttpServer, LayoutService, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
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

/// The phase names of a trace answer's spans, in order.
fn span_phases(trace: &Json) -> Vec<&str> {
    let spans = trace.get("spans").and_then(Json::arr).expect("spans");
    spans
        .iter()
        .map(|s| s.get("phase").and_then(Json::str).expect("phase"))
        .collect()
}

fn start_server() -> (
    Arc<LayoutService>,
    rapid_pangenome_layout::service::ServerHandle,
) {
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
    (service, handle)
}

fn poll_done(addr: SocketAddr, job: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{job}"), b"");
        assert_eq!(status, 200);
        let text = body_text(&body);
        match json(&body).get("state").and_then(Json::str) {
            Some("done") => return text,
            Some("failed" | "cancelled") => panic!("job should succeed: {text}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "timed out polling job: {text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn trace_endpoint_returns_an_ordered_timeline_that_accounts_for_wall_time() {
    let (_service, handle) = start_server();
    let addr = handle.addr();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("obs-trace", 400, 4, 7)));

    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=20&threads=1&seed=42",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202, "{}", body_text(&body));
    let job = job_id(&body);
    let final_status = poll_done(addr, job);

    // The status JSON carries a per-phase summary of closed spans.
    assert!(final_status.contains("\"phases_us\":{"), "{final_status}");
    assert!(final_status.contains("\"layout\":"), "{final_status}");

    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{job}/trace"), b"");
    assert_eq!(status, 200);
    let trace = body_text(&body);
    let doc = json(&body);
    let phases = span_phases(&doc);

    // Lifecycle phases appear in submission order.
    let pos = |phase: &str| {
        phases
            .iter()
            .position(|p| *p == phase)
            .unwrap_or_else(|| panic!("missing {phase} span in {trace}"))
    };
    assert!(pos("cache_probe") < pos("queue_wait"), "{trace}");
    assert!(pos("queue_wait") < pos("layout"), "{trace}");
    assert!(pos("layout") < pos("spill"), "{trace}");
    assert!(
        phases.contains(&"graph_parse"),
        "fresh GFA body is parsed: {trace}"
    );
    let spans = doc.get("spans").and_then(Json::arr).unwrap();
    assert!(
        spans
            .iter()
            .all(|s| s.get("dur_us").and_then(Json::u64).is_some()),
        "all spans closed on a done job: {trace}"
    );

    // The closed spans account for the job's wall clock: they cannot
    // exceed it (modulo rounding), and on a job of any substance they
    // cover most of it.
    let wall_ms = doc.get("wall_ms").and_then(Json::u64).expect("wall_ms");
    let total_us = doc.get("total_us").and_then(Json::u64).expect("total_us");
    assert!(total_us > 0, "{trace}");
    assert!(
        total_us <= (wall_ms + 150) * 1000,
        "span durations exceed wall time: {trace}"
    );
    if wall_ms >= 100 {
        assert!(
            total_us >= wall_ms * 1000 / 2,
            "span durations cover too little of the wall time: {trace}"
        );
    }

    // A missing job 404s, a malformed id 400s.
    let (status, _) = http(addr, "GET", "/v1/jobs/999999/trace", b"");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/jobs/banana/trace", b"");
    assert_eq!(status, 400);

    // A cached resubmission is born done: probe span only, no layout.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=20&threads=1&seed=42",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202, "{}", body_text(&body));
    assert_eq!(json(&body).get("cached"), Some(&Json::Bool(true)));
    let cached_job = job_id(&body);
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{cached_job}/trace"), b"");
    assert_eq!(status, 200);
    let trace = json(&body);
    let phases = span_phases(&trace);
    assert!(phases.contains(&"cache_probe"), "{phases:?}");
    assert!(!phases.contains(&"layout"), "{phases:?}");

    handle.stop();
}

#[test]
fn metrics_exposition_merges_http_and_service_families_and_validates() {
    let (_service, handle) = start_server();
    let addr = handle.addr();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("obs-metrics", 300, 4, 9)));

    let (status, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=10&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    poll_done(addr, job_id(&body));

    let (status, _) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 404, "only the /v1 surface answers");
    let path = "/v1/metrics";
    let (status, body) = http(addr, "GET", path, b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    validate_exposition(&text).unwrap_or_else(|e| panic!("{path}: {e}\n{text}"));
    // HTTP families.
    assert!(text.contains("pgl_http_requests_total"), "{path}");
    assert!(
        text.contains("pgl_http_request_duration_us_bucket"),
        "{path}"
    );
    // Service families: phase + queue-wait histograms, engine
    // gauges, scheduler and cache-tier gauges.
    assert!(text.contains("pgl_job_phase_us_bucket"), "{path}");
    assert!(text.contains("pgl_job_queue_wait_us_bucket"), "{path}");
    assert!(text.contains("pgl_engine_terms_applied_total"), "{path}");
    assert!(text.contains("pgl_engine_updates_per_sec"), "{path}");
    assert!(text.contains("pgl_engine_running_jobs"), "{path}");
    assert!(
        text.contains("pgl_queue_depth{band=\"interactive\"}"),
        "{path}"
    );
    assert!(text.contains("pgl_jobs_total{outcome=\"done\"}"), "{path}");
    assert!(
        text.contains("pgl_cache_hit_ratio{tier=\"layout\"}"),
        "{path}"
    );
    assert!(text.contains("pgl_cache_entries{tier=\"graph\"}"), "{path}");

    // The finished job's work is visible in the counters: a layout
    // phase observation and a nonzero terms-applied total.
    let (_, body) = http(addr, "GET", "/v1/metrics", b"");
    let text = body_text(&body);
    let phase_count = text
        .lines()
        .find(|l| l.starts_with("pgl_job_phase_us_count{phase=\"layout\"}"))
        .and_then(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .expect("layout phase count");
    assert!(phase_count >= 1, "{text}");
    let terms = text
        .lines()
        .find(|l| l.starts_with("pgl_engine_terms_applied_total"))
        .and_then(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .expect("terms applied total");
    assert!(terms > 0, "{text}");

    handle.stop();
}

#[test]
fn long_jobs_stream_periodic_metrics_events() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 4,
            ..ServiceConfig::default()
        },
    ));
    // Chunky enough to run well past the 200 ms sampling period even on
    // a fast machine.
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("obs-long", 1500, 6, 11)));
    let mut request = JobSpec::new("cpu", &gfa);
    request.config.iter_max = 120;
    request.config.threads = 1;
    let ticket = service.submit(request).unwrap();
    let status = service
        .wait(ticket.id, Duration::from_secs(300))
        .expect("job finishes");
    assert_eq!(status.state, JobState::Done);

    let (events, terminal) = service
        .wait_events(
            ticket.id,
            0,
            Duration::from_secs(5),
            &AtomicBool::new(false),
        )
        .expect("event log");
    assert!(terminal);
    let metrics: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Metrics {
                terms_applied,
                updates_per_sec,
                iteration,
                iteration_max,
            } => Some((*terms_applied, *updates_per_sec, *iteration, *iteration_max)),
            _ => None,
        })
        .collect();
    assert!(
        !metrics.is_empty(),
        "a multi-second job emits live telemetry events; wall_ms={} events={}",
        status.wall_ms,
        events.len()
    );
    for (terms, ups, iteration, iteration_max) in &metrics {
        assert!(*terms > 0);
        assert!(*ups >= 0.0);
        assert!(iteration <= iteration_max);
        assert_eq!(*iteration_max, 120);
    }
    // Live counters are monotone across successive samples.
    for pair in metrics.windows(2) {
        assert!(
            pair[1].0 >= pair[0].0,
            "terms_applied regressed: {metrics:?}"
        );
    }
    // The final telemetry matches what the trace recorded as finished
    // work: the job's terms land in the service total.
    let trace_status = service.status(ticket.id).expect("status");
    assert!(trace_status.trace.phase_us("layout").unwrap() > 0);
}

#[test]
fn healthz_and_stats_expose_version_uptime_and_features() {
    let (_service, handle) = start_server();
    let addr = handle.addr();

    let (status, _) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 404, "only the /v1 surface answers");
    let path = "/v1/healthz";
    let (status, body) = http(addr, "GET", path, b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert!(text.contains("\"ok\":true"), "{text}");
    assert!(text.contains("\"version\":\""), "{text}");
    assert!(text.contains("\"uptime_s\":"), "{text}");
    assert!(text.contains("\"engines\":["), "{text}");
    assert!(text.contains("\"cpu\""), "{text}");
    assert!(text.contains("\"precisions\":[\"f32\",\"f64\"]"), "{text}");

    let (status, body) = http(addr, "GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert!(text.contains("\"version\":\""), "{text}");
    assert!(text.contains("\"uptime_s\":"), "{text}");
    assert!(text.contains("\"features\":{"), "{text}");
    assert!(
        text.contains("\"jobs\":{"),
        "stats keeps its job block: {text}"
    );

    handle.stop();
}
