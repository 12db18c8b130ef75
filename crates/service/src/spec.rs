//! The typed submission surface of the `/v1` job API.
//!
//! Everything a client can say about a layout job lives in one validated
//! type, [`JobSpec`]: the engine, the graph (inline or by reference),
//! layout overrides, and the three scheduling dimensions introduced with
//! the fair-share queue — a [`Priority`] class, a client identity (the
//! fair-share key), and an optional queue TTL. [`parse_job_spec`] builds
//! a `JobSpec` from an HTTP request's query parameters and body in one
//! place, returning a typed [`SpecError`] instead of the scattered
//! per-parameter parsing the front end used to do; the CLI and
//! `batchrun` construct specs directly.
//!
//! Requests are parsed **strictly** — an unknown parameter is a `400`,
//! so typos like `?prioritiy=bulk` fail loudly instead of silently
//! running at the default priority.

use crate::http::{percent_encode, split_query};
use crate::job::GraphSpec;
use layout_core::{LayoutConfig, Precision};
use pangraph::store::ContentHash;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Scheduling class of a job. Bands are strict: a queued job in a
/// higher band always runs before any job in a lower band, and within
/// one band clients share the workers fairly (deficit round-robin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Priority {
    /// A human is waiting (dashboards, previews). Highest band.
    Interactive,
    /// The default for API submissions.
    #[default]
    Normal,
    /// Batch/backfill traffic that must never starve the other bands.
    Bulk,
}

impl Priority {
    /// All priorities, highest band first (also the band index order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Bulk];

    /// Band index: 0 = interactive … 2 = bulk.
    pub fn band(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }

    /// Lower-case wire name (`?priority=` values and status JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }

    /// Parse a wire name (`None` for anything unrecognized).
    pub fn parse_name(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "normal" => Some(Priority::Normal),
            "bulk" => Some(Priority::Bulk),
            _ => None,
        }
    }
}

impl std::str::FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Priority::parse_name(s)
            .ok_or_else(|| format!("bad priority {s:?} (interactive, normal, bulk)"))
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One fully-specified layout job: what to lay out, how, and how the
/// scheduler should treat it. This is the one submission type
/// ([`crate::LayoutService::submit`]).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Engine registry key (`cpu`, `batch`, ...).
    pub engine: String,
    /// The graph to lay out (inline GFA or stored reference).
    pub graph: GraphSpec,
    /// Full layout configuration.
    pub config: LayoutConfig,
    /// Mini-batch size, used only by the `batch` engine.
    pub batch_size: usize,
    /// Scheduling band.
    pub priority: Priority,
    /// Fair-share key. `None` ⇒ the transport identity (the HTTP front
    /// end uses the rate limiter's peer IP; embedded callers share one
    /// anonymous key).
    pub client: Option<String>,
    /// Maximum time the job may wait in the queue. A job still queued
    /// when its TTL expires is failed (`expired in queue`) instead of
    /// run — stale interactive work is worthless by definition.
    pub queue_ttl: Option<Duration>,
}

impl JobSpec {
    /// A spec with default configuration and scheduling for an inline
    /// GFA document.
    pub fn new(engine: impl Into<String>, gfa: impl Into<String>) -> Self {
        Self::with_graph(engine, GraphSpec::Gfa(Arc::new(gfa.into())))
    }

    /// A spec with default configuration and scheduling referencing a
    /// stored graph.
    pub fn by_ref(engine: impl Into<String>, graph: ContentHash) -> Self {
        Self::with_graph(engine, GraphSpec::Stored(graph))
    }

    /// A spec with default configuration and scheduling.
    pub fn with_graph(engine: impl Into<String>, graph: GraphSpec) -> Self {
        Self {
            engine: engine.into(),
            graph,
            config: LayoutConfig::default(),
            batch_size: 1024,
            priority: Priority::default(),
            client: None,
            queue_ttl: None,
        }
    }

    /// Builder-style priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Builder-style client identity.
    pub fn client(mut self, c: impl Into<String>) -> Self {
        self.client = Some(c.into());
        self
    }

    /// Serialize the spec back to its `/v1` query-string form — the
    /// inverse of [`parse_job_spec`] over the wire-representable
    /// surface (`KNOWN_PARAMS`). The cluster coordinator forwards
    /// jobs to workers with exactly this string, so the typed spec *is*
    /// the wire format.
    ///
    /// A [`GraphSpec::Stored`] graph appears as `graph=<hex>`; an
    /// inline GFA does not appear at all — the caller sends the
    /// document as the request body, exactly as an origin client would.
    /// Config fields with no query parameter (`eps`, `cooling_start`,
    /// …) are not representable and are dropped; specs built from HTTP
    /// requests never set them, so coordinator forwarding is lossless.
    pub fn to_query(&self) -> String {
        let mut q = String::new();
        let mut push = |k: &str, v: &str| {
            if !q.is_empty() {
                q.push('&');
            }
            q.push_str(k);
            q.push('=');
            q.push_str(&percent_encode(v));
        };
        push("engine", &self.engine);
        if let GraphSpec::Stored(id) = &self.graph {
            push("graph", &id.hex());
        }
        push("iters", &self.config.iter_max.to_string());
        push("threads", &self.config.threads.to_string());
        push("seed", &self.config.seed.to_string());
        push("precision", self.config.precision.label());
        push("batch", &self.batch_size.to_string());
        push("priority", self.priority.as_str());
        if let Some(client) = &self.client {
            push("client", client);
        }
        if let Some(ttl) = self.queue_ttl {
            push("ttl_ms", &ttl.as_millis().max(1).to_string());
        }
        q
    }

    /// Parse a [`JobSpec::to_query`] string back into a spec — the
    /// round-trip the coordinator's write-ahead journal relies on: an
    /// accepted job is journaled as its wire form and rebuilt from it
    /// at crash recovery. Strict parsing, no body: journaled jobs are
    /// always by-reference (`graph=<hex>`). The string is split and
    /// decoded exactly as the HTTP server decodes a request's query, so
    /// a `+` reads back as a space; [`JobSpec::to_query`] has always
    /// escaped every `+`, so older journals replay unchanged.
    ///
    /// Journals written before `/v1` lost its `simd`, `write_shard`,
    /// `soa` and `term_block` knobs carry some of those keys (for
    /// example `term_block=256&simd=auto&write_shard=auto`). They are
    /// dropped here, and only here, so those records still replay
    /// instead of being skipped as unreplayable; a `/v1/jobs` request
    /// that sends them is still a [`SpecError::UnknownParam`].
    pub fn from_query(query: &str) -> Result<Self, SpecError> {
        let mut params = split_query(query);
        params.retain(|(k, _)| !RETIRED_PARAMS.contains(&k.as_str()));
        parse_job_spec(&params, Vec::new())
    }
}

/// Why a request failed to parse into a [`JobSpec`]. Every variant maps
/// to HTTP `400`; the distinction is for clients and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A query parameter the submission API does not define.
    UnknownParam(String),
    /// A parameter's value failed to parse.
    BadValue {
        /// Parameter name.
        param: &'static str,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// `?graph=` was not a 32-hex-digit content hash.
    BadGraphId(String),
    /// Both an inline GFA body and `?graph=<id>` were supplied.
    InlineAndReference,
    /// The GFA body was not valid UTF-8.
    BodyNotUtf8,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownParam(p) => write!(f, "unknown parameter {p:?}"),
            SpecError::BadValue {
                param,
                value,
                expected,
            } => write!(f, "bad {param} value {value:?} (expected {expected})"),
            SpecError::BadGraphId(v) => {
                write!(f, "bad graph id {v:?} (expected 32 hex digits)")
            }
            SpecError::InlineAndReference => {
                write!(f, "send either an inline GFA body or ?graph=<id>, not both")
            }
            SpecError::BodyNotUtf8 => write!(f, "GFA body must be UTF-8"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Query parameters the job-submission route defines. Anything else is
/// a [`SpecError::UnknownParam`].
const KNOWN_PARAMS: [&str; 10] = [
    "engine",
    "iters",
    "threads",
    "seed",
    "batch",
    "precision",
    "graph",
    "priority",
    "client",
    "ttl_ms",
];

/// Knobs `/v1` no longer defines that older journal records carry; only
/// [`JobSpec::from_query`] drops them. `soa` and `term_block` changed
/// no single-thread layout.
const RETIRED_PARAMS: [&str; 4] = ["simd", "write_shard", "soa", "term_block"];

/// Build a validated [`JobSpec`] from a request's query parameters and
/// body. A parameter outside `KNOWN_PARAMS` is rejected.
pub fn parse_job_spec(params: &[(String, String)], body: Vec<u8>) -> Result<JobSpec, SpecError> {
    if let Some((k, _)) = params
        .iter()
        .find(|(k, _)| !KNOWN_PARAMS.contains(&k.as_str()))
    {
        return Err(SpecError::UnknownParam(k.clone()));
    }
    let get = |name: &str| {
        params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };

    let graph = match get("graph") {
        Some(hex) => {
            if !body.is_empty() {
                return Err(SpecError::InlineAndReference);
            }
            match ContentHash::from_hex(hex) {
                Some(id) => GraphSpec::Stored(id),
                None => return Err(SpecError::BadGraphId(hex.to_string())),
            }
        }
        None => match String::from_utf8(body) {
            Ok(s) => GraphSpec::Gfa(Arc::new(s)),
            Err(_) => return Err(SpecError::BodyNotUtf8),
        },
    };

    let mut config = LayoutConfig::default();
    macro_rules! parse_param {
        ($name:literal, $field:expr, $expected:literal) => {
            if let Some(v) = get($name) {
                match v.parse() {
                    Ok(x) => $field = x,
                    Err(_) => {
                        return Err(SpecError::BadValue {
                            param: $name,
                            value: v.to_string(),
                            expected: $expected,
                        })
                    }
                }
            }
        };
    }
    parse_param!("iters", config.iter_max, "a non-negative integer");
    parse_param!("threads", config.threads, "a non-negative integer");
    parse_param!("seed", config.seed, "a non-negative integer");
    if let Some(v) = get("precision") {
        config.precision = Precision::parse_name(v).ok_or(SpecError::BadValue {
            param: "precision",
            value: v.to_string(),
            expected: "f32 | f64",
        })?;
    }
    let mut batch_size = 1024usize;
    parse_param!("batch", batch_size, "a positive integer");

    let priority = match get("priority") {
        None => Priority::default(),
        Some(v) => Priority::parse_name(v).ok_or(SpecError::BadValue {
            param: "priority",
            value: v.to_string(),
            expected: "interactive | normal | bulk",
        })?,
    };
    let queue_ttl = match get("ttl_ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
            _ => {
                return Err(SpecError::BadValue {
                    param: "ttl_ms",
                    value: v.to_string(),
                    expected: "a positive integer of milliseconds",
                })
            }
        },
    };

    Ok(JobSpec {
        engine: get("engine").unwrap_or("cpu").to_string(),
        graph,
        config,
        batch_size,
        priority,
        client: get("client").map(str::to_string).filter(|c| !c.is_empty()),
        queue_ttl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use layout_core::DataLayout;

    fn q(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn priorities_round_trip_and_order_by_band() {
        for p in Priority::ALL {
            assert_eq!(Priority::parse_name(p.as_str()), Some(p));
            assert_eq!(p.as_str().parse::<Priority>(), Ok(p));
        }
        assert!(Priority::Interactive.band() < Priority::Normal.band());
        assert!(Priority::Normal.band() < Priority::Bulk.band());
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::parse_name("URGENT"), None);
        assert!("URGENT".parse::<Priority>().is_err());
    }

    #[test]
    fn full_query_parses_into_a_spec() {
        let id = pangraph::store::content_hash(b"g");
        let params = q(&[
            ("engine", "gpu"),
            ("iters", "12"),
            ("threads", "2"),
            ("seed", "7"),
            ("batch", "256"),
            ("precision", "f32"),
            ("graph", &id.hex()),
            ("priority", "interactive"),
            ("client", "alice"),
            ("ttl_ms", "1500"),
        ]);
        let spec = parse_job_spec(&params, Vec::new()).unwrap();
        assert_eq!(spec.engine, "gpu");
        assert_eq!(spec.config.iter_max, 12);
        assert_eq!(spec.config.threads, 2);
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.precision, Precision::F32);
        assert_eq!(spec.batch_size, 256);
        assert!(matches!(spec.graph, GraphSpec::Stored(h) if h == id));
        assert_eq!(spec.priority, Priority::Interactive);
        assert_eq!(spec.client.as_deref(), Some("alice"));
        assert_eq!(spec.queue_ttl, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn defaults_match_the_legacy_surface() {
        let spec = parse_job_spec(&[], b"S\t1\tA\n".to_vec()).unwrap();
        assert_eq!(spec.engine, "cpu");
        assert_eq!(spec.batch_size, 1024);
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.client, None);
        assert_eq!(spec.queue_ttl, None);
        assert!(matches!(spec.graph, GraphSpec::Gfa(_)));
    }

    #[test]
    fn unknown_params_are_rejected() {
        let params = q(&[("prioritiy", "bulk")]); // the typo strictness exists for
        match parse_job_spec(&params, Vec::new()).unwrap_err() {
            SpecError::UnknownParam(p) => assert_eq!(p, "prioritiy"),
            other => panic!("expected UnknownParam, got {other:?}"),
        }
    }

    #[test]
    fn bad_values_are_typed_errors() {
        for (name, value) in [
            ("iters", "banana"),
            ("priority", "urgent"),
            ("ttl_ms", "0"),
            ("ttl_ms", "-4"),
            ("batch", "x"),
            ("precision", "f16"),
        ] {
            let err = parse_job_spec(&q(&[(name, value)]), Vec::new()).unwrap_err();
            match err {
                SpecError::BadValue {
                    param, value: v, ..
                } => {
                    assert_eq!(param, name);
                    assert_eq!(v, value);
                }
                other => panic!("expected BadValue for {name}, got {other:?}"),
            }
        }
        assert!(matches!(
            parse_job_spec(&q(&[("graph", "zz")]), Vec::new()).unwrap_err(),
            SpecError::BadGraphId(_)
        ));
        assert_eq!(
            parse_job_spec(
                &q(&[("graph", &pangraph::store::content_hash(b"g").hex())]),
                b"S\t1\tA\n".to_vec(),
            )
            .unwrap_err(),
            SpecError::InlineAndReference
        );
        assert_eq!(
            parse_job_spec(&[], vec![0xff, 0xfe]).unwrap_err(),
            SpecError::BodyNotUtf8
        );
    }

    #[test]
    fn to_query_round_trips_through_parse_job_spec() {
        let id = pangraph::store::content_hash(b"rt");
        let mut spec = JobSpec::by_ref("gpu", id)
            .priority(Priority::Bulk)
            .client("team a&b=c/…");
        spec.config.iter_max = 17;
        spec.config.threads = 3;
        spec.config.seed = 99;
        spec.config.precision = Precision::F32;
        spec.batch_size = 512;
        spec.queue_ttl = Some(Duration::from_millis(2500));
        let back = JobSpec::from_query(&spec.to_query()).unwrap();
        assert_eq!(back.engine, spec.engine);
        assert!(matches!(back.graph, GraphSpec::Stored(h) if h == id));
        assert_eq!(back.config.iter_max, 17);
        assert_eq!(back.config.threads, 3);
        assert_eq!(back.config.seed, 99);
        assert_eq!(back.config.precision, Precision::F32);
        assert_eq!(back.batch_size, 512);
        assert_eq!(back.priority, Priority::Bulk);
        assert_eq!(back.client.as_deref(), Some("team a&b=c/…"));
        assert_eq!(back.queue_ttl, Some(Duration::from_millis(2500)));
    }

    #[test]
    fn to_query_defaults_round_trip_and_inline_bodies_stay_out() {
        let spec = JobSpec::new("cpu", "S\t1\tA\n");
        let q = spec.to_query();
        assert!(!q.contains("graph="), "inline GFA travels as the body");
        assert!(!q.contains("client="), "absent client stays absent");
        assert!(!q.contains("ttl_ms="), "absent TTL stays absent");
        assert!(!q.contains("soa"), "default layout emits no flag");
        let back = JobSpec::from_query(&q).unwrap();
        assert_eq!(back.engine, "cpu");
        assert_eq!(back.batch_size, spec.batch_size);
        assert_eq!(back.priority, Priority::Normal);
        assert_eq!(back.config.iter_max, spec.config.iter_max);
    }

    #[test]
    fn from_query_round_trips_the_journal_form() {
        let id = pangraph::store::content_hash(b"journal");
        let mut spec = JobSpec::by_ref("cpu", id)
            .priority(Priority::Interactive)
            .client("alice & bob");
        spec.config.iter_max = 9;
        spec.config.seed = 3;
        spec.queue_ttl = Some(Duration::from_millis(750));
        let back = JobSpec::from_query(&spec.to_query()).expect("journal form reparses");
        assert!(matches!(back.graph, GraphSpec::Stored(h) if h == id));
        assert_eq!(back.config.iter_max, 9);
        assert_eq!(back.config.seed, 3);
        assert_eq!(back.priority, Priority::Interactive);
        assert_eq!(back.client.as_deref(), Some("alice & bob"));
        assert_eq!(back.queue_ttl, Some(Duration::from_millis(750)));
        // Corrupt journal lines surface as typed errors, not panics.
        assert!(JobSpec::from_query("engine=cpu&bogus=1").is_err());
        assert!(JobSpec::from_query("iters=banana").is_err());
    }

    #[test]
    fn journal_records_with_retired_kernel_knobs_still_replay() {
        let old = "engine=cpu&graph=7a0ede822d68d9254c8d4222300ed296&iters=30&threads=2&seed=93992202&precision=f64&term_block=256&simd=auto&write_shard=auto&batch=1024&priority=normal";
        let spec = JobSpec::from_query(old).expect("a parent-format journal record replays");
        assert_eq!(spec.config.iter_max, 30);
        assert_eq!(spec.config.threads, 2);
        assert!(!spec.to_query().contains("simd"), "{}", spec.to_query());
        // The submission API still rejects both keys.
        for key in ["simd", "write_shard"] {
            assert_eq!(
                parse_job_spec(&q(&[(key, "auto")]), Vec::new()).unwrap_err(),
                SpecError::UnknownParam(key.into())
            );
        }
    }

    #[test]
    fn retired_layout_knobs_are_unknown_params_but_journals_replay() {
        for (key, value) in [("soa", "1"), ("term_block", "64")] {
            assert_eq!(
                parse_job_spec(&q(&[(key, value)]), Vec::new()).unwrap_err(),
                SpecError::UnknownParam(key.into())
            );
        }
        let old = "engine=cpu&graph=7a0ede822d68d9254c8d4222300ed296&iters=30&threads=1&seed=93992202&soa=1&precision=f64&term_block=64&batch=1024&priority=normal";
        let spec = JobSpec::from_query(old).expect("a parent-format journal record replays");
        assert_eq!(spec.config.data_layout, DataLayout::CacheFriendlyAos);
        assert_eq!(spec.config.threads, 1);
        let q = spec.to_query();
        assert!(!q.contains("soa") && !q.contains("term_block"), "{q}");
    }

    #[test]
    fn empty_client_param_means_transport_identity() {
        let spec = parse_job_spec(&q(&[("client", "")]), Vec::new()).unwrap();
        assert_eq!(spec.client, None);
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(SpecError::UnknownParam("x".into())
            .to_string()
            .contains("x"));
        let e = SpecError::BadValue {
            param: "ttl_ms",
            value: "0".into(),
            expected: "a positive integer of milliseconds",
        };
        assert!(e.to_string().contains("ttl_ms") && e.to_string().contains("positive"));
    }
}
