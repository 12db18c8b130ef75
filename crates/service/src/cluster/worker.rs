//! Worker-side cluster membership: the role a serving process plays
//! (surfaced in `/v1/healthz`) and the join/heartbeat loop behind
//! `pgl serve --join <coordinator>`.
//!
//! A worker is an ordinary `pgl serve` process. Joining a fleet adds
//! exactly one background thread: it `POST`s `/v1/cluster/join` once,
//! then `POST`s `/v1/cluster/heartbeat` on the interval the coordinator
//! advertised in the join response. Heartbeats double as registration —
//! a coordinator that restarts (and forgets the fleet) re-learns this
//! worker on its next beat, and a worker that was declared dead during
//! a network blip is resurrected the same way. Missed beats cost
//! nothing here; the *coordinator* owns death detection.

use super::client;
use crate::http::percent_encode;
use crate::obs;
use pgio::{quote, Json};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What this serving process is, for `/v1/healthz`: a standalone server
/// (the default), a fleet worker (knows its coordinator and when it
/// last heartbeated), or the coordinator itself.
pub struct ClusterRole {
    inner: Mutex<RoleInner>,
}

struct RoleInner {
    role: &'static str,
    coordinator: Option<String>,
    last_beat: Option<Instant>,
    /// The coordinator's journal epoch, from heartbeat replies. A bump
    /// means the coordinator restarted from its journal.
    coordinator_epoch: Option<u64>,
}

impl ClusterRole {
    /// The default role: a server answering for itself.
    pub fn standalone() -> Arc<Self> {
        Self::with_role("standalone", None)
    }

    /// The coordinator's own role.
    pub fn coordinator() -> Arc<Self> {
        Self::with_role("coordinator", None)
    }

    /// A worker registered with (and heartbeating to) `coordinator`.
    pub fn worker(coordinator: String) -> Arc<Self> {
        Self::with_role("worker", Some(coordinator))
    }

    fn with_role(role: &'static str, coordinator: Option<String>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(RoleInner {
                role,
                coordinator,
                last_beat: None,
                coordinator_epoch: None,
            }),
        })
    }

    /// Record a successfully acknowledged heartbeat. Returns the
    /// previously observed coordinator epoch when `epoch` differs from
    /// it — i.e. the coordinator restarted since the last beat.
    pub fn beat(&self, epoch: Option<u64>) -> Option<u64> {
        let mut inner = self.inner.lock().unwrap();
        inner.last_beat = Some(Instant::now());
        match (inner.coordinator_epoch, epoch) {
            (Some(prev), Some(now)) if prev != now => {
                inner.coordinator_epoch = Some(now);
                Some(prev)
            }
            (_, Some(now)) => {
                inner.coordinator_epoch = Some(now);
                None
            }
            _ => None,
        }
    }

    /// The role name (`standalone` | `coordinator` | `worker`).
    pub fn name(&self) -> &'static str {
        self.inner.lock().unwrap().role
    }

    /// JSON fields describing the role, without surrounding braces —
    /// spliced into `/v1/healthz` next to `"ok"`. Workers also report
    /// their coordinator and the age of the last acknowledged
    /// heartbeat (`null` until the first one lands).
    pub fn json_fields(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = format!("\"role\":{}", quote(inner.role));
        if let Some(coordinator) = &inner.coordinator {
            out.push_str(&format!(
                ",\"coordinator\":{},\"last_heartbeat_s\":{},\"coordinator_epoch\":{}",
                quote(coordinator),
                match inner.last_beat {
                    Some(at) => at.elapsed().as_secs().to_string(),
                    None => "null".into(),
                },
                match inner.coordinator_epoch {
                    Some(e) => e.to_string(),
                    None => "null".into(),
                }
            ));
        }
        out
    }
}

/// Slice between stop-flag checks while waiting out a heartbeat
/// interval, so shutdown is prompt even with long intervals.
const STOP_CHECK: Duration = Duration::from_millis(50);

/// Start the join/heartbeat thread for a worker serving at `advertise`
/// (the address the *coordinator* will forward jobs to — it must be
/// reachable from the coordinator's host). `interval` is the initial
/// beat cadence; the coordinator's `heartbeat_ms` answer overrides it
/// so the fleet agrees on one clock. The thread runs until `stop` is
/// set; failures log a warning and retry on the next beat (which, on
/// the coordinator side, doubles as re-registration).
pub fn spawn_heartbeat(
    coordinator: String,
    advertise: String,
    interval: Duration,
    role: Arc<ClusterRole>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("pgl-heartbeat".into())
        .spawn(move || {
            let mut interval = interval.max(STOP_CHECK);
            let mut endpoint = "join";
            while !stop.load(Ordering::Relaxed) {
                let path = format!("/v1/cluster/{endpoint}?addr={}", percent_encode(&advertise));
                match client::request(&coordinator, "POST", &path, b"") {
                    Ok((200, body)) => {
                        let reply = Json::parse(&body).ok();
                        let field = |key| reply.as_ref()?.get(key)?.u64();
                        let epoch = field("epoch");
                        if let Some(prev) = role.beat(epoch) {
                            obs::warn(
                                "cluster",
                                "coordinator restarted (journal epoch bumped)",
                                &[
                                    ("coordinator", coordinator.clone()),
                                    ("previous_epoch", prev.to_string()),
                                    ("epoch", epoch.map(|e| e.to_string()).unwrap_or_default()),
                                ],
                            );
                        }
                        if let Some(ms) = field("heartbeat_ms") {
                            interval = Duration::from_millis(ms.max(50));
                        }
                        if endpoint == "join" {
                            obs::info(
                                "cluster",
                                "joined fleet",
                                &[
                                    ("coordinator", coordinator.clone()),
                                    ("advertise", advertise.clone()),
                                    ("heartbeat_ms", interval.as_millis().to_string()),
                                ],
                            );
                        }
                        endpoint = "heartbeat";
                    }
                    Ok((status, _)) => obs::warn(
                        "cluster",
                        "heartbeat refused",
                        &[
                            ("coordinator", coordinator.clone()),
                            ("status", status.to_string()),
                        ],
                    ),
                    Err(e) => obs::warn(
                        "cluster",
                        "heartbeat failed",
                        &[("coordinator", coordinator.clone()), ("error", e)],
                    ),
                }
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(STOP_CHECK.min(deadline - Instant::now()));
                }
            }
        })
        .expect("spawn heartbeat thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_json_shapes() {
        let standalone = ClusterRole::standalone();
        assert_eq!(standalone.json_fields(), "\"role\":\"standalone\"");
        assert_eq!(standalone.name(), "standalone");

        let coord = ClusterRole::coordinator();
        assert_eq!(coord.json_fields(), "\"role\":\"coordinator\"");

        let worker = ClusterRole::worker("127.0.0.1:7979".into());
        let fields = worker.json_fields();
        assert!(fields.contains("\"role\":\"worker\""), "{fields}");
        assert!(
            fields.contains("\"coordinator\":\"127.0.0.1:7979\""),
            "{fields}"
        );
        assert!(fields.contains("\"last_heartbeat_s\":null"), "{fields}");
        assert!(fields.contains("\"coordinator_epoch\":null"), "{fields}");

        assert_eq!(worker.beat(Some(1)), None, "first epoch is not a restart");
        let fields = worker.json_fields();
        assert!(fields.contains("\"last_heartbeat_s\":0"), "{fields}");
        assert!(fields.contains("\"coordinator_epoch\":1"), "{fields}");

        assert_eq!(worker.beat(Some(1)), None, "same epoch, no restart");
        assert_eq!(worker.beat(None), None, "journal-less reply keeps state");
        assert_eq!(
            worker.beat(Some(2)),
            Some(1),
            "epoch bump reports the previous epoch"
        );
        assert!(worker.json_fields().contains("\"coordinator_epoch\":2"));
    }
}
