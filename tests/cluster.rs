//! End-to-end tests of the cluster tier: a coordinator routing jobs
//! across two in-process `pgl serve`-shaped workers.
//!
//! The two load-bearing claims, verified over real sockets:
//!
//! * **Consistent-hash routing keeps caches hot** — repeated
//!   by-reference submits for one graph land on the same worker, so
//!   the fleet-wide parse count stays at 1 no matter how many jobs run.
//! * **Worker death is drain-and-requeue, never silent loss** — kill
//!   the worker that owns the graph and every accepted job still
//!   reaches a terminal state, completing on the survivor.
//! * **Coordinator death loses no accepted work** — with a journal
//!   armed, kill the coordinator with jobs still queued, restart it on
//!   the same `--journal-dir`, and every accepted job replays and
//!   reaches a terminal state once workers join.
//! * **A coordinator stops in milliseconds** — its parked loops wake on
//!   stop, and the worker streams it relays are severed rather than
//!   waited on.
//! * **Its memory stays bounded** — finished jobs beyond the retention
//!   cap are evicted, oldest first.

use rapid_pangenome_layout::io::Json;
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    spawn_heartbeat, ClusterRole, Coordinator, CoordinatorConfig, CoordinatorHandle, ServerHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Poll `check` until it returns `Some` or the deadline passes.
fn wait_for<T>(what: &str, timeout: Duration, mut check: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = check() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// An in-process worker: a one-thread layout service behind an HTTP
/// front end, enrolled in the fleet at `coordinator`.
struct Worker {
    addr: SocketAddr,
    server: Option<ServerHandle>,
    beat_stop: Arc<AtomicBool>,
}

fn spawn_worker(coordinator: SocketAddr) -> Worker {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let role = ClusterRole::worker(coordinator.to_string());
    let server = HttpServer::bind("127.0.0.1:0", service)
        .expect("bind worker")
        .with_config(HttpConfig {
            max_conns: 4,
            ..HttpConfig::default()
        })
        .with_role(Arc::clone(&role));
    let handle = server.spawn();
    let addr = handle.addr();
    let beat_stop = Arc::new(AtomicBool::new(false));
    let _ = spawn_heartbeat(
        coordinator.to_string(),
        addr.to_string(),
        Duration::from_millis(100),
        role,
        Arc::clone(&beat_stop),
    );
    Worker {
        addr,
        server: Some(handle),
        beat_stop,
    }
}

impl Worker {
    /// Kill the worker outright: stop heartbeating, stop serving.
    fn kill(&mut self) {
        self.beat_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.server.take() {
            handle.stop();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

fn submit_by_ref(coord: SocketAddr, graph: &str) -> u64 {
    let path = format!("/v1/jobs?graph={graph}&engine=cpu&iters=4&threads=1&seed=7");
    let (status, body) = http(coord, "POST", &path, b"");
    assert_eq!(status, 202, "{}", body_text(&body));
    json(&body)
        .get("job")
        .and_then(Json::u64)
        .expect("job ticket")
}

/// Poll a job on the coordinator until it is terminal; returns its
/// final state.
fn wait_terminal(coord: SocketAddr, job: u64) -> String {
    wait_for(
        &format!("job {job} terminal"),
        Duration::from_secs(30),
        || {
            let (status, body) = http(coord, "GET", &format!("/v1/jobs/{job}"), b"");
            assert_eq!(status, 200, "{}", body_text(&body));
            let status = json(&body);
            let state = status
                .get("state")
                .and_then(Json::str)
                .expect("state field");
            ["done", "failed", "cancelled", "expired"]
                .contains(&state)
                .then(|| state.to_string())
        },
    )
}

#[test]
fn fleet_routes_by_graph_hash_and_survives_worker_death() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            heartbeat: Duration::from_millis(100),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let coord = coordinator.local_addr();
    let _coord_handle = coordinator.spawn();

    let mut workers = [spawn_worker(coord), spawn_worker(coord)];

    // Both workers register and report as workers in their own healthz.
    wait_for("both workers alive", Duration::from_secs(10), || {
        let (status, body) = http(coord, "GET", "/v1/healthz", b"");
        assert_eq!(status, 200);
        let health = json(&body);
        assert_eq!(health.get("role").and_then(Json::str), Some("coordinator"));
        (health.get("workers_alive").and_then(Json::u64) == Some(2)).then_some(())
    });
    let (status, body) = http(workers[0].addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    let health = json(&body);
    assert_eq!(health.get("role").and_then(Json::str), Some("worker"));
    assert_eq!(
        health.get("coordinator").and_then(Json::str),
        Some(coord.to_string().as_str())
    );

    // Upload once to the coordinator; every submit below is by-reference.
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("cluster", 40, 3, 5)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json(&body)
        .get("graph_id")
        .and_then(Json::str)
        .expect("graph id")
        .to_string();

    // Same graph hash ⇒ same ring owner ⇒ one worker parses, once.
    let jobs: Vec<u64> = (0..3).map(|_| submit_by_ref(coord, &graph)).collect();
    for &job in &jobs {
        assert_eq!(wait_terminal(coord, job), "done");
    }
    let (status, body) = http(coord, "GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).at("fleet.parses").and_then(Json::u64),
        Some(1),
        "all same-graph jobs must land on one worker: {}",
        body_text(&body)
    );

    // A finished job's event stream replays through the proxy and ends
    // with the terminal state under the coordinator's job id.
    let (status, body) = http(coord, "GET", &format!("/v1/jobs/{}/events", jobs[0]), b"");
    assert_eq!(status, 200);
    let events = body_text(&body);
    assert!(events.contains("\"state\":\"done\""), "{events}");
    assert!(events.contains(&format!("\"job\":{}", jobs[0])), "{events}");

    // Kill the worker that owns the graph (the one that parsed it).
    let owner = wait_for("finding the parsing worker", Duration::from_secs(5), || {
        workers.iter().position(|w| {
            let (status, body) = http(w.addr, "GET", "/v1/stats", b"");
            status == 200 && json(&body).at("graphs.parses").and_then(Json::u64) == Some(1)
        })
    });
    workers[owner].kill();

    // The next submit must still complete — requeued and re-routed to
    // the survivor, which parses the pushed graph itself.
    let failover_job = submit_by_ref(coord, &graph);
    assert_eq!(wait_terminal(coord, failover_job), "done");

    // No accepted job may be lost: everything submitted is terminal.
    for &job in jobs.iter().chain([&failover_job]) {
        let (status, body) = http(coord, "GET", &format!("/v1/jobs/{job}"), b"");
        assert_eq!(status, 200);
        let status = json(&body);
        let state = status.get("state").and_then(Json::str).expect("state");
        assert!(
            ["done", "failed", "cancelled", "expired"].contains(&state),
            "job {job} stuck in {state}"
        );
    }

    // The death was observed and the fleet shrank to one alive worker.
    let (status, body) = http(coord, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).get("workers_alive").and_then(Json::u64),
        Some(1),
        "{}",
        body_text(&body)
    );
}

#[test]
fn coordinator_restart_recovers_journaled_jobs() {
    let journal_dir = std::env::temp_dir().join(format!(
        "pgl_cluster_journal_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&journal_dir);

    let config = || CoordinatorConfig {
        heartbeat: Duration::from_millis(100),
        journal_dir: Some(journal_dir.clone()),
        ..CoordinatorConfig::default()
    };

    // First life: accept a graph and three jobs, with no workers to
    // run them — everything is queued when the coordinator dies.
    let coordinator = Coordinator::bind("127.0.0.1:0", config()).expect("bind coordinator");
    let coord = coordinator.local_addr();
    let handle = coordinator.spawn();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("journal", 40, 3, 5)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json(&body)
        .get("graph_id")
        .and_then(Json::str)
        .expect("graph id")
        .to_string();
    let jobs: Vec<u64> = (0..3).map(|_| submit_by_ref(coord, &graph)).collect();
    let (status, body) = http(coord, "GET", &format!("/v1/jobs/{}", jobs[0]), b"");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("state").and_then(Json::str), Some("queued"));
    handle.stop();

    // Second life, same journal dir, fresh port: the journal replays.
    let coordinator = Coordinator::bind("127.0.0.1:0", config()).expect("rebind coordinator");
    let coord = coordinator.local_addr();
    let _handle = coordinator.spawn();

    let (status, body) = http(coord, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    let health = json(&body);
    assert_eq!(health.at("journal.epoch").and_then(Json::u64), Some(2));
    assert_eq!(health.at("journal.replayed").and_then(Json::u64), Some(3));

    // The graph catalog survived too: by-reference submits need no
    // re-upload (the GFA reloads from the vault spill on demand).
    let extra = submit_by_ref(coord, &graph);

    // Workers join the new incarnation and drain everything accepted
    // by either life of the coordinator.
    let _workers = [spawn_worker(coord), spawn_worker(coord)];
    for &job in jobs.iter().chain([&extra]) {
        assert_eq!(wait_terminal(coord, job), "done", "job {job}");
    }

    let (status, body) = http(coord, "GET", "/v1/metrics", b"");
    assert_eq!(status, 200);
    let metrics = body_text(&body);
    assert!(
        metrics.contains("pgl_coord_journal_recovered_jobs_total 3"),
        "{metrics}"
    );
    assert!(metrics.contains("pgl_coord_journal_epoch 2"), "{metrics}");

    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn jobs_queue_without_workers_and_cancel_cleanly() {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("bind coordinator");
    let coord = coordinator.local_addr();
    let _handle = coordinator.spawn();

    // By-reference submits for unknown graphs are refused up front.
    let (status, body) = http(
        coord,
        "POST",
        "/v1/jobs?graph=00000000000000000000000000000000&engine=cpu",
        b"",
    );
    assert_eq!(status, 404, "{}", body_text(&body));

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("queue", 30, 2, 4)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json(&body)
        .get("graph_id")
        .and_then(Json::str)
        .unwrap()
        .to_string();

    // Uploading the same bytes again dedups.
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("dedup"), Some(&Json::Bool(true)));

    // With no workers the job waits (queued), then cancels locally.
    let job = submit_by_ref(coord, &graph);
    let (status, body) = http(coord, "GET", &format!("/v1/jobs/{job}"), b"");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("state").and_then(Json::str), Some("queued"));
    let (status, _) = http(coord, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
    assert_eq!(status, 200);
    assert_eq!(wait_terminal(coord, job), "cancelled");

    // Unknown query parameters fail loudly, like the worker /v1 surface.
    let (status, body) = http(
        coord,
        "POST",
        &format!("/v1/jobs?graph={graph}&bogus=1"),
        b"",
    );
    assert_eq!(status, 400, "{}", body_text(&body));
}

#[test]
fn concurrent_identical_uploads_to_a_journaled_coordinator_all_succeed() {
    let journal_dir = std::env::temp_dir().join(format!(
        "pgl_cluster_upload_race_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            journal_dir: Some(journal_dir.clone()),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let coord = coordinator.local_addr();
    let handle = coordinator.spawn();

    // Each round races six uploads of one fresh graph. All of them spill
    // into the vault before the catalog decides which one was first, so
    // every upload must succeed and exactly one may report it created
    // the graph.
    for round in 0..20 {
        let gfa = write_gfa(&generate(&PangenomeSpec::basic(
            "upload-race",
            1500,
            4,
            100 + round,
        )));
        let answers: Vec<(u16, Vec<u8>)> = std::thread::scope(|scope| {
            let uploads: Vec<_> = (0..6)
                .map(|_| scope.spawn(|| http(coord, "POST", "/v1/graphs", gfa.as_bytes())))
                .collect();
            uploads.into_iter().map(|u| u.join().unwrap()).collect()
        });
        for (status, body) in &answers {
            assert!(
                matches!(status, 200 | 201),
                "round {round}: {status} {}",
                body_text(body)
            );
        }
        let created = answers.iter().filter(|(status, _)| *status == 201).count();
        assert_eq!(created, 1, "round {round}: one upload creates the graph");
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Stop a coordinator through its handle; returns how long `stop` took.
fn timed_stop(handle: CoordinatorHandle) -> Duration {
    let started = Instant::now();
    handle.stop();
    started.elapsed()
}

#[test]
fn a_coordinator_stops_in_milliseconds_after_spawn() {
    // Its dispatcher and monitor park between rounds; stopping must wake
    // them rather than wait out their pause. Each coordinator answers
    // one request first, so its loops are running when it stops.
    let mut stops: Vec<Duration> = (0..5)
        .map(|_| {
            let handle = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
                .expect("bind coordinator")
                .spawn();
            let (status, _) = http(handle.addr(), "GET", "/v1/healthz", b"");
            assert_eq!(status, 200);
            timed_stop(handle)
        })
        .collect();
    stops.sort();
    assert!(
        stops[2] < Duration::from_millis(50),
        "median stop took {:?} (all: {stops:?})",
        stops[2]
    );
}

#[test]
fn stopping_a_coordinator_severs_the_worker_streams_it_relays() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            heartbeat: Duration::from_millis(100),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let coord = coordinator.local_addr();
    let handle = coordinator.spawn();
    let _worker = spawn_worker(coord);
    wait_for("the worker to join", Duration::from_secs(10), || {
        let (_, body) = http(coord, "GET", "/v1/healthz", b"");
        (json(&body).get("workers_alive").and_then(Json::u64) == Some(1)).then_some(())
    });
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("relay-stop", 60, 3, 11)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json(&body)
        .get("graph_id")
        .and_then(Json::str)
        .expect("graph id")
        .to_string();

    // A long job holds the worker's one engine thread, so the second
    // job waits in the worker's queue: its event stream says `queued`
    // and then nothing until the worker's 15 s heartbeat line.
    let submit = |iters: u32| {
        let path = format!("/v1/jobs?graph={graph}&engine=cpu&iters={iters}&threads=1");
        let (status, body) = http(coord, "POST", &path, b"");
        assert_eq!(status, 202, "{}", body_text(&body));
        json(&body).get("job").and_then(Json::u64).expect("job id")
    };
    let long = submit(1_000_000);
    let queued = submit(5);
    wait_for("the long job to run", Duration::from_secs(10), || {
        let (_, body) = http(coord, "GET", &format!("/v1/jobs/{long}"), b"");
        (json(&body).get("state").and_then(Json::str) == Some("running")).then_some(())
    });
    wait_for("both jobs forwarded", Duration::from_secs(10), || {
        let (_, body) = http(coord, "GET", "/v1/stats", b"");
        (json(&body).at("coordinator.forwarded").and_then(Json::u64) == Some(2)).then_some(())
    });

    // Watch the queued job through the coordinator until its relayed
    // `queued` line arrives: the relay is now blocked on the worker.
    let mut watcher = TcpStream::connect(coord).expect("connect");
    watcher
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        watcher,
        "GET /v1/jobs/{queued}/events HTTP/1.1\r\nHost: localhost\r\n\r\n"
    )
    .unwrap();
    let mut seen = Vec::new();
    let mut buf = [0u8; 512];
    while !body_text(&seen).contains("\"state\":\"queued\"") {
        let n = watcher.read(&mut buf).expect("read the relayed stream");
        assert!(n > 0, "stream ended early: {}", body_text(&seen));
        seen.extend_from_slice(&buf[..n]);
    }

    let took = timed_stop(handle);
    assert!(
        took < Duration::from_secs(2),
        "stop waited {took:?} on a relayed worker stream"
    );
}

#[test]
fn a_coordinator_keeps_a_bounded_number_of_finished_jobs() {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("bind coordinator");
    let coord = coordinator.local_addr();
    let _handle = coordinator.spawn();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("retention", 20, 2, 3)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json(&body)
        .get("graph_id")
        .and_then(Json::str)
        .expect("graph id")
        .to_string();

    // No workers: every job stays queued until it is cancelled.
    let jobs: Vec<u64> = (0..1100)
        .map(|_| {
            let job = submit_by_ref(coord, &graph);
            let (status, body) = http(coord, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
            assert_eq!(status, 200, "{}", body_text(&body));
            job
        })
        .collect();
    let retained: Vec<u64> = jobs
        .iter()
        .copied()
        .filter(|job| {
            let (status, body) = http(coord, "GET", &format!("/v1/jobs/{job}"), b"");
            match status {
                200 => {
                    let state = json(&body)
                        .get("state")
                        .and_then(Json::str)
                        .map(String::from);
                    assert_eq!(state.as_deref(), Some("cancelled"), "job {job}");
                    true
                }
                404 => false,
                other => panic!("job {job}: {other} {}", body_text(&body)),
            }
        })
        .collect();
    assert!(
        retained.len() <= 1024,
        "{} terminal jobs retained",
        retained.len()
    );
    // The oldest went first: the newest job is still there, and an
    // evicted id answers 404 on every route, as on a worker.
    assert_eq!(retained.last(), jobs.last());
    let (status, _) = http(coord, "GET", &format!("/v1/jobs/{}", jobs[0]), b"");
    assert_eq!(status, 404);
    let (status, _) = http(coord, "GET", &format!("/v1/result/{}", jobs[0]), b"");
    assert_eq!(status, 404);
}
