//! Scheduler-facing integration tests: priority bands beat FIFO order,
//! per-client fair share holds under a dogpile, queue TTLs expire stale
//! work, and the `/v1` job API's terminal-state reporting is audited
//! end to end (a cancelled-while-queued job is `cancelled`, never
//! `failed`).

use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{EngineRegistry, HttpServer, LayoutService, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_gfa(seed: u64) -> String {
    write_gfa(&generate(&PangenomeSpec::basic("sched", 40, 3, seed)))
}

fn service(workers: usize) -> LayoutService {
    LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers,
            cache_entries: 256,
            ..ServiceConfig::default()
        },
    )
}

/// A spec for `gfa` with per-job distinct `seed` so the layout cache
/// never collapses two jobs into one.
fn spec_for(engine: &str, gfa: &str, seed: u64, iters: u32) -> JobSpec {
    let mut spec = JobSpec::new(engine, gfa);
    spec.config.iter_max = iters;
    spec.config.threads = 1;
    spec.config.seed = seed;
    spec.batch_size = 256;
    spec
}

/// Acceptance: a bulk client floods 50 jobs; an interactive client then
/// submits one. The interactive job completes while at least 45 of the
/// bulk jobs are still waiting — the priority band preempts the flood.
#[test]
fn interactive_job_overtakes_a_bulk_flood_of_fifty() {
    let svc = service(1);
    let gfa = small_gfa(1);
    let bulk_ids: Vec<u64> = (0..50)
        .map(|i| {
            let mut spec = spec_for("cpu", &gfa, 1000 + i, 4).priority(Priority::Bulk);
            spec.client = Some("bulk-bot".into());
            svc.submit(spec).unwrap().id
        })
        .collect();
    let mut interactive = spec_for("cpu", &gfa, 9999, 4).priority(Priority::Interactive);
    interactive.client = Some("human".into());
    let ticket = svc.submit(interactive).unwrap();
    assert!(!ticket.cached);

    let status = svc
        .wait(ticket.id, Duration::from_secs(300))
        .expect("interactive job finishes");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.client, "human");

    let still_waiting = bulk_ids
        .iter()
        .filter(|&&id| !svc.status(id).unwrap().state.is_terminal())
        .count();
    assert!(
        still_waiting >= 45,
        "interactive completed before only {} of 50 bulk jobs",
        50 - still_waiting
    );
    // The backlog still drains to completion afterwards.
    for id in bulk_ids {
        assert_eq!(
            svc.wait(id, Duration::from_secs(300)).unwrap().state,
            JobState::Done
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.done, 51);
    assert_eq!(stats.failed + stats.cancelled, 0);
}

/// Within one band, three clients submitting in adversarial order
/// (all of A, then all of B, then all of C) complete interleaved: in
/// every prefix of the completion order no client leads another by more
/// than the deficit round-robin allows (tolerance 2 for poll batching).
#[test]
fn clients_share_one_band_fairly_under_a_dogpile() {
    let svc = service(1);
    let gfa = small_gfa(2);
    // Hold the worker so all 18 jobs are queued before any is popped.
    let blocker = svc.submit(spec_for("cpu", &gfa, 7, 1200)).unwrap();
    let clients = ["alice", "bob", "carol"];
    let mut jobs: Vec<(usize, u64)> = Vec::new(); // (client idx, job id)
    for (ci, client) in clients.iter().enumerate() {
        for j in 0..6 {
            let mut spec = spec_for("cpu", &gfa, 100 * (ci as u64 + 1) + j, 60);
            spec.client = Some(client.to_string());
            jobs.push((ci, svc.submit(spec).unwrap().id));
        }
    }
    // alice, bob, carol queued (+ the anonymous blocker if not yet popped)
    assert!(svc.stats().active_clients >= 3);
    svc.wait(blocker.id, Duration::from_secs(300)).unwrap();

    // Record completion order by polling; jobs are slow enough (60
    // iterations) that 1 ms polling rarely batches more than one
    // completion, and the prefix assertion tolerates batching anyway.
    let mut order: Vec<usize> = Vec::new();
    let mut seen = vec![false; jobs.len()];
    let deadline = Instant::now() + Duration::from_secs(300);
    while order.len() < jobs.len() {
        for (slot, &(ci, id)) in jobs.iter().enumerate() {
            if !seen[slot] && svc.status(id).unwrap().state.is_terminal() {
                seen[slot] = true;
                order.push(ci);
            }
        }
        assert!(Instant::now() < deadline, "dogpile never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut counts = [0i64; 3];
    for (pos, &ci) in order.iter().enumerate() {
        counts[ci] += 1;
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(
            max - min <= 2,
            "fair share violated at completion {pos}: counts {counts:?} (order {order:?})"
        );
    }
    for (_, id) in jobs {
        assert_eq!(svc.status(id).unwrap().state, JobState::Done);
    }
}

/// With more workers than any single client's fair share, no client
/// holds more in-flight (running) jobs than its share plus one.
#[test]
fn no_client_exceeds_its_fair_share_of_workers_by_more_than_one() {
    let workers = 3;
    let clients = ["a", "b", "c"];
    let fair_share = workers / clients.len(); // 1
    let svc = service(workers);
    let gfa = small_gfa(3);
    // Occupy every worker with a long job first, so all three clients'
    // jobs are queued before any of them can start: otherwise the
    // workers take a's jobs while b's and c's are still being submitted,
    // and those dispatches were never contended.
    let blockers: Vec<u64> = (0..workers as u64)
        .map(|i| {
            let mut spec = spec_for("cpu", &gfa, 90 + i, 1_000_000);
            spec.client = Some("blocker".into());
            svc.submit(spec).unwrap().id
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !blockers
        .iter()
        .all(|&id| svc.status(id).unwrap().state == JobState::Running)
    {
        assert!(Instant::now() < deadline, "blockers never all ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    for (ci, client) in clients.iter().enumerate() {
        for j in 0..6 {
            let mut spec = spec_for("cpu", &gfa, 500 * (ci as u64 + 1) + j, 300);
            spec.client = Some(client.to_string());
            jobs.push((ci, svc.submit(spec).unwrap().id));
        }
    }
    for id in blockers {
        svc.cancel(id).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let mut running = [0usize; 3];
        let mut queued = [0usize; 3];
        let mut all_terminal = true;
        for &(ci, id) in &jobs {
            match svc.status(id).unwrap().state {
                JobState::Running => {
                    running[ci] += 1;
                    all_terminal = false;
                }
                JobState::Queued => {
                    queued[ci] += 1;
                    all_terminal = false;
                }
                s if !s.is_terminal() => all_terminal = false,
                _ => {}
            }
        }
        // The fair-share bound is a *contention* property: once some
        // client's backlog has drained, the surplus workers are
        // supposed to go to whoever still has work, so only check the
        // bound while every client still has jobs waiting.
        if queued.iter().all(|&q| q > 0) {
            for (ci, &n) in running.iter().enumerate() {
                assert!(
                    n <= fair_share + 1,
                    "client {} holds {n} workers (fair share {fair_share} + 1)",
                    clients[ci]
                );
            }
        }
        if all_terminal {
            break;
        }
        assert!(Instant::now() < deadline, "jobs never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One blocking HTTP/1.1 exchange; returns (status, head, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
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
    (status, head, response[header_end + 4..].to_vec())
}

fn http_with_header(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_header: &str,
) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n{extra_header}\r\nConnection: close\r\n\r\n",
    );
    stream.write_all(head.as_bytes()).unwrap();
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

/// Parse a JSON answer body; a malformed body fails the test.
fn json(body: &[u8]) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("malformed JSON ({e}): {}", text(body)))
}

/// The `job` id of a submit answer.
fn job_id(body: &[u8]) -> u64 {
    json(body).get("job").and_then(Json::u64).expect("job id")
}

fn spawn_http(
    workers: usize,
) -> (
    Arc<LayoutService>,
    rapid_pangenome_layout::service::ServerHandle,
) {
    let svc = Arc::new(service(workers));
    let handle = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc))
        .expect("bind")
        .spawn();
    (svc, handle)
}

/// Terminal-state JSON audit over the wire: cancelled-while-queued is
/// `cancelled` with no error field; TTL expiry is `failed` with an
/// `expired in queue` error; done carries progress 1.000 and no error.
#[test]
fn terminal_states_report_truthfully_over_http() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(11);

    // Occupy the worker with a slow job.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=100000&threads=1&client=blocker",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202, "{}", text(&body));
    let blocker = job_id(&body);

    // Job A queues, then is cancelled while still queued.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1&seed=2",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let cancelled_job = job_id(&body);
    // Job B queues with a tiny TTL: it must expire, not run.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1&seed=3&ttl_ms=40",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let expired_job = job_id(&body);

    let (status, _, _) = http(
        addr,
        "POST",
        &format!("/v1/jobs/{cancelled_job}/cancel"),
        b"",
    );
    assert_eq!(status, 200);
    let (status, _, _) = http(addr, "GET", &format!("/jobs/{cancelled_job}"), b"");
    assert_eq!(status, 404, "only the /v1 surface answers");
    let path = format!("/v1/jobs/{cancelled_job}");
    let (status, _, body) = http(addr, "GET", &path, b"");
    assert_eq!(status, 200);
    let status = json(&body);
    assert_eq!(
        status.get("state").and_then(Json::str),
        Some("cancelled"),
        "cancelled-while-queued must report cancelled ({path}): {status:?}"
    );
    assert_eq!(
        status.get("error"),
        None,
        "a cancel is not an error ({path}): {status:?}"
    );
    assert_eq!(status.get("progress"), Some(&Json::Num("0.000".into())));

    // Let the TTL lapse, then free the worker; the expired job fails
    // without running.
    std::thread::sleep(Duration::from_millis(80));
    let (status, _, _) = http(addr, "POST", &format!("/v1/jobs/{blocker}/cancel"), b"");
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    let expired_json = loop {
        let (_, _, body) = http(addr, "GET", &format!("/v1/jobs/{expired_job}"), b"");
        let status = json(&body);
        match status.get("state").and_then(Json::str) {
            Some("failed") => break status,
            Some("done") => panic!("expired job must not run: {status:?}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "expiry never landed: {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        expired_json
            .get("error")
            .and_then(Json::str)
            .is_some_and(|e| e.contains("expired in queue")),
        "expiry names its cause: {expired_json:?}"
    );

    // A successful job: done, progress 1.000, no error, priority echoed.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=4&threads=1&seed=9&priority=interactive",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let ticket = json(&body);
    assert_eq!(
        ticket.get("priority").and_then(Json::str),
        Some("interactive")
    );
    let done_job = job_id(&body);
    let deadline = Instant::now() + Duration::from_secs(120);
    let done_json = loop {
        let (_, _, body) = http(addr, "GET", &format!("/v1/jobs/{done_job}"), b"");
        let status = json(&body);
        if status.get("state").and_then(Json::str) == Some("done") {
            break status;
        }
        assert!(Instant::now() < deadline, "job never finished: {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(done_json.get("progress"), Some(&Json::Num("1.000".into())));
    assert_eq!(done_json.get("error"), None, "{done_json:?}");
    assert_eq!(
        done_json.get("priority").and_then(Json::str),
        Some("interactive")
    );

    // Stats surface the scheduling counters.
    let (_, _, body) = http(addr, "GET", "/v1/stats", b"");
    let stats = json(&body);
    assert_eq!(
        stats.at("jobs.expired").and_then(Json::u64),
        Some(1),
        "{stats:?}"
    );
    assert_eq!(
        stats.at("jobs.cancelled").and_then(Json::u64),
        Some(2),
        "{stats:?}"
    );

    handle.stop();
}

/// `/v1` is strict about unknown parameters, and it is the only
/// surface: the retired unversioned aliases answer 404.
#[test]
fn v1_is_strict_and_legacy_aliases_are_gone() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(21);

    // Typo under /v1: rejected with the parameter named.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=2&threads=1&prioritiy=bulk",
        gfa.as_bytes(),
    );
    assert_eq!(status, 400, "{}", text(&body));
    assert!(text(&body).contains("prioritiy"), "{}", text(&body));

    // The retired aliases are not routes, and neither is the retired
    // second name for submission.
    for (method, path) in [
        ("POST", "/layout?engine=cpu&iters=2&threads=1"),
        ("POST", "/v1/layout?engine=cpu&iters=2&threads=1"),
        ("POST", "/jobs"),
        ("GET", "/jobs/1"),
        ("GET", "/stats"),
    ] {
        let (status, _, body) = http(addr, method, path, gfa.as_bytes());
        assert_eq!(status, 404, "{method} {path}: {}", text(&body));
    }

    // Bad priority value is a typed 400.
    let (status, _, body) = http(addr, "POST", "/v1/jobs?priority=urgent", gfa.as_bytes());
    assert_eq!(status, 400);
    assert!(text(&body).contains("priority"), "{}", text(&body));

    // The read-side routes answer.
    for path in ["/v1/healthz", "/v1/stats", "/v1/engines", "/v1/metrics"] {
        let (status, _, _) = http(addr, "GET", path, b"");
        assert_eq!(status, 200, "{path}");
    }
    // /v1 prefix alone is not a route.
    let (status, _, _) = http(addr, "GET", "/v1", b"");
    assert_eq!(status, 404);

    // Strictness covers every /v1 route, not just submission: typo'd
    // params on events/result/read routes are 400s too.
    let (status, _, body) = http(addr, "GET", "/v1/jobs/1/events?frm=5", b"");
    assert_eq!(status, 400, "{}", text(&body));
    assert!(text(&body).contains("frm"), "{}", text(&body));
    let (status, _, body) = http(addr, "GET", "/v1/result/1?fromat=lay", b"");
    assert_eq!(status, 400, "{}", text(&body));
    let (status, _, _) = http(addr, "GET", "/v1/stats?pretty=1", b"");
    assert_eq!(status, 400);

    handle.stop();
}

/// `GET /v1/graphs` emits an `ETag` and honors
/// `If-None-Match` with `304 Not Modified`; mutations change the tag.
#[test]
fn graph_listing_revalidates_with_etags() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();

    let (status, head, body) = http(addr, "GET", "/v1/graphs", b"");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("count").and_then(Json::u64), Some(0));
    let etag = head
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .expect("listing carries an ETag")
        .trim()
        .to_string();

    // Revalidation with the current tag: 304, empty body, tag echoed.
    let (status, head, body) =
        http_with_header(addr, "GET", "/v1/graphs", &format!("If-None-Match: {etag}"));
    assert_eq!(status, 304, "{}", text(&body));
    assert!(body.is_empty(), "304 carries no body");
    assert!(head.contains(&etag));

    // A stale (different) tag still gets the full listing.
    let (status, _, body) =
        http_with_header(addr, "GET", "/v1/graphs", "If-None-Match: \"feedfeed\"");
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    // Uploading a graph changes the listing and therefore the tag.
    let gfa = small_gfa(31);
    let (status, _, _) = http(addr, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201);
    let (status, head2, _) =
        http_with_header(addr, "GET", "/v1/graphs", &format!("If-None-Match: {etag}"));
    assert_eq!(status, 200, "stale tag after mutation re-serves");
    let etag2 = head2
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .unwrap()
        .trim()
        .to_string();
    assert_ne!(etag, etag2, "mutation rotated the ETag");
    // The rotated tag revalidates in turn.
    let (status, _, _) = http_with_header(
        addr,
        "GET",
        "/v1/graphs",
        &format!("If-None-Match: {etag2}"),
    );
    assert_eq!(status, 304);

    handle.stop();
}

/// The fair-share client key defaults to the peer identity, and
/// `?client=` overrides it — visible in the status JSON.
#[test]
fn client_identity_defaults_to_peer_and_is_overridable() {
    let (_svc, handle) = spawn_http(1);
    let addr = handle.addr();
    let gfa = small_gfa(41);

    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=2&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let anon = job_id(&body);
    let (_, _, body) = http(addr, "GET", &format!("/v1/jobs/{anon}"), b"");
    assert_eq!(
        json(&body).get("client").and_then(Json::str),
        Some("127.0.0.1"),
        "peer IP is the default fair-share key"
    );

    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/jobs?engine=cpu&iters=2&threads=1&seed=5&client=alice",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let named = job_id(&body);
    let (_, _, body) = http(addr, "GET", &format!("/v1/jobs/{named}"), b"");
    assert_eq!(json(&body).get("client").and_then(Json::str), Some("alice"));

    handle.stop();
}
