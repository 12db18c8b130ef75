//! Request-level observability for the HTTP front end: per-route
//! counters and **sliding-window** log2-bucketed latency histograms.
//!
//! Everything is relaxed atomics so the hot path costs a handful of
//! uncontended increments per request; there are no locks to convoy
//! under load. Latencies land in power-of-two microsecond buckets
//! (1 µs, 2 µs, 4 µs, … ~0.5 s, +Inf), which is enough resolution to
//! derive p50/p90/p99 while keeping each histogram a fixed 21-slot
//! array.
//!
//! Histograms are windowed: each is a ring of [`WINDOW_SLOTS`]
//! sub-histograms, one per [`SLOT_SECS`]-second interval, merged at
//! scrape time. A slot is lazily zeroed the first time an observation
//! (or scrape) lands in a new interval, so samples older than the
//! window age out of the reported buckets and quantiles — percentiles
//! describe the last ~[`WINDOW_SECS`] seconds of traffic, not
//! everything since boot. Status-class request counters remain
//! cumulative (Prometheus counter semantics). Counters are exposed two
//! ways:
//!
//! * `GET /v1/stats` — a compact JSON block (via [`HttpMetrics::snapshot`]),
//! * `GET /v1/metrics` — a Prometheus-style text exposition
//!   (via [`HttpMetrics::render_prometheus`]), validated by
//!   [`validate_exposition`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Normalized route labels. Parameterized segments collapse
/// (`/v1/jobs/17` and `/v1/jobs/99` are the same route), so cardinality
/// stays fixed no matter what clients request; `"other"` catches every
/// path the API does not define. This table and [`route_index`] are the
/// single authority on route naming.
pub const ROUTES: [&str; 14] = [
    "/v1/graphs",
    "/v1/graphs/{id}",
    "/v1/jobs",
    "/v1/jobs/{id}",
    "/v1/jobs/{id}/cancel",
    "/v1/jobs/{id}/events",
    "/v1/jobs/{id}/trace",
    "/v1/result/{id}",
    "/v1/stats",
    "/v1/metrics",
    "/v1/engines",
    "/v1/healthz",
    "/v1/cluster/{op}",
    "other",
];

/// Index of the catch-all `"other"` route.
pub const OTHER_ROUTE: usize = ROUTES.len() - 1;

/// Collapse a request path to its [`ROUTES`] index (fixed cardinality).
pub fn route_index(path: &str) -> usize {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let label = match segments.as_slice() {
        ["v1", "graphs"] => "/v1/graphs",
        ["v1", "graphs", _] => "/v1/graphs/{id}",
        ["v1", "jobs"] => "/v1/jobs",
        ["v1", "jobs", _, "cancel"] => "/v1/jobs/{id}/cancel",
        ["v1", "jobs", _, "events"] => "/v1/jobs/{id}/events",
        ["v1", "jobs", _, "trace"] => "/v1/jobs/{id}/trace",
        ["v1", "jobs", _] => "/v1/jobs/{id}",
        ["v1", "result", _] => "/v1/result/{id}",
        ["v1", "stats"] => "/v1/stats",
        ["v1", "metrics"] => "/v1/metrics",
        ["v1", "engines"] => "/v1/engines",
        ["v1", "healthz"] => "/v1/healthz",
        ["v1", "cluster", _] => "/v1/cluster/{op}",
        _ => return OTHER_ROUTE,
    };
    ROUTES
        .iter()
        .position(|r| *r == label)
        .unwrap_or(OTHER_ROUTE)
}

/// Histogram buckets: bucket `i < LAST` holds latencies `≤ 2^i` µs; the
/// last bucket is the +Inf overflow.
pub(crate) const BUCKETS: usize = 21;
const LAST: usize = BUCKETS - 1;

/// Sub-histograms per windowed histogram.
pub const WINDOW_SLOTS: usize = 6;
/// Seconds covered by each sub-histogram.
pub const SLOT_SECS: u64 = 10;
/// Nominal window width in seconds (the merge spans the current slot
/// plus the previous `WINDOW_SLOTS - 1` full ones).
pub const WINDOW_SECS: u64 = WINDOW_SLOTS as u64 * SLOT_SECS;

/// The bucket a latency of `us` microseconds falls into: the smallest
/// `i` with `us ≤ 2^i`, capped at the overflow bucket.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        return 0;
    }
    let i = (u64::BITS - (us - 1).leading_zeros()) as usize;
    i.min(LAST)
}

/// The upper bound of bucket `i` in microseconds (`u64::MAX` ⇒ +Inf).
fn bucket_bound_us(i: usize) -> u64 {
    if i >= LAST {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// The `le="..."` label text for bucket `i`.
pub(crate) fn bucket_le(i: usize) -> String {
    if i >= LAST {
        "+Inf".to_string()
    } else {
        bucket_bound_us(i).to_string()
    }
}

/// One interval's sub-histogram. `epoch` is the slot timestamp (slot
/// index since the owner's start); a mismatch means the ring entry is
/// stale and is zeroed before reuse.
#[derive(Default)]
struct Slot {
    epoch: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Slot {
    /// Claim this ring entry for `slot`, zeroing stale contents. Races
    /// between claimants can drop a handful of concurrent samples into
    /// a just-zeroed slot — acceptable for telemetry, and only at slot
    /// boundaries.
    fn claim(&self, slot: u64) {
        let seen = self.epoch.load(Ordering::Acquire);
        if seen == slot {
            return;
        }
        if self
            .epoch
            .compare_exchange(seen, slot, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.count.store(0, Ordering::Relaxed);
            self.sum_us.store(0, Ordering::Relaxed);
        }
    }
}

/// A merged, point-in-time view of one windowed histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts.
    pub counts: [u64; BUCKETS],
    /// Total observations in the window.
    pub count: u64,
    /// Sum of observed values (µs) in the window.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// The quantile `q ∈ (0, 1]`, estimated as the upper bound of the
    /// bucket containing the rank (capped at the last finite bound).
    /// `None` when the window holds no observations.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bound_us(i).min(1 << LAST));
            }
        }
        Some(1 << LAST)
    }
}

/// A sliding-window histogram: a ring of per-interval sub-histograms
/// merged at read time. Time is injected as a *slot index*
/// (`elapsed_secs / SLOT_SECS` against the owner's start instant), so
/// the structure itself is clock-free and deterministic to test.
#[derive(Default)]
pub struct WindowedHistogram {
    slots: [Slot; WINDOW_SLOTS],
}

impl WindowedHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `us` microseconds in slot `slot`.
    pub fn observe(&self, slot: u64, us: u64) {
        let s = &self.slots[(slot % WINDOW_SLOTS as u64) as usize];
        s.claim(slot);
        s.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Merge every slot still inside the window ending at `slot`.
    pub fn merged(&self, slot: u64) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        let oldest = slot.saturating_sub(WINDOW_SLOTS as u64 - 1);
        for s in &self.slots {
            let epoch = s.epoch.load(Ordering::Acquire);
            if epoch < oldest || epoch > slot {
                continue; // aged out (or from a future scrape race)
            }
            for (i, b) in s.buckets.iter().enumerate() {
                snap.counts[i] += b.load(Ordering::Relaxed);
            }
            snap.count += s.count.load(Ordering::Relaxed);
            snap.sum_us += s.sum_us.load(Ordering::Relaxed);
        }
        snap
    }
}

/// Per-route counters: request count by status class (cumulative) plus
/// the windowed latency histogram.
#[derive(Default)]
struct RouteMetrics {
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    latency: WindowedHistogram,
}

impl RouteMetrics {
    fn requests(&self) -> u64 {
        self.status_2xx.load(Ordering::Relaxed)
            + self.status_4xx.load(Ordering::Relaxed)
            + self.status_5xx.load(Ordering::Relaxed)
    }
}

/// Point-in-time connection-level counters for `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStatsSnapshot {
    /// Connections accepted and handed to a handler (or queued).
    pub accepted: u64,
    /// Connections turned away with `503` because the queue was full.
    pub rejected_503: u64,
    /// Requests served on an already-open connection (keep-alive reuse).
    pub keepalive_reuses: u64,
    /// Requests that failed to parse (answered `400`).
    pub bad_requests: u64,
    /// Requests refused by the per-client rate limiter (answered `429`).
    pub rate_limited_429: u64,
    /// Requests routed and answered, across all routes.
    pub requests: u64,
}

/// Shared metrics for one HTTP server (a worker's or the coordinator's).
pub struct HttpMetrics {
    routes: [RouteMetrics; ROUTES.len()],
    accepted: AtomicU64,
    rejected: AtomicU64,
    keepalive_reuses: AtomicU64,
    bad_requests: AtomicU64,
    rate_limited: AtomicU64,
    started: Instant,
}

impl Default for HttpMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpMetrics {
    /// Fresh, all-zero metrics; the latency window starts now.
    pub fn new() -> Self {
        Self {
            routes: Default::default(),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The current window slot index.
    fn slot_now(&self) -> u64 {
        self.started.elapsed().as_secs() / SLOT_SECS
    }

    fn route(&self, label: &str) -> &RouteMetrics {
        let idx = ROUTES
            .iter()
            .position(|r| *r == label)
            .unwrap_or(OTHER_ROUTE);
        &self.routes[idx]
    }

    /// Record one answered request by route label (linear label lookup;
    /// the serving hot path uses [`HttpMetrics::observe_idx`]).
    pub fn observe(&self, label: &str, status: u16, latency: Duration) {
        let idx = ROUTES
            .iter()
            .position(|r| *r == label)
            .unwrap_or(OTHER_ROUTE);
        self.observe_idx(idx, status, latency);
    }

    /// Record one answered request by [`ROUTES`] index (see
    /// [`route_index`]); out-of-range indices land in `"other"`.
    pub fn observe_idx(&self, idx: usize, status: u16, latency: Duration) {
        self.observe_idx_at(idx, status, latency, self.slot_now());
    }

    /// [`HttpMetrics::observe_idx`] with an explicit window slot —
    /// the injection point for windowed-decay tests.
    pub fn observe_idx_at(&self, idx: usize, status: u16, latency: Duration, slot: u64) {
        let route = &self.routes[idx.min(OTHER_ROUTE)];
        let counter = match status / 100 {
            2 | 3 => &route.status_2xx,
            4 => &route.status_4xx,
            _ => &route.status_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        route.latency.observe(slot, us);
    }

    /// A connection was accepted and enqueued for a handler.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was turned away with `503` (queue full).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request arrived on an already-open (kept-alive) connection.
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// A request failed to parse.
    pub fn record_bad_request(&self) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused by the per-client rate limiter (`429`).
    pub fn record_rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Connection-level counters for the `/stats` JSON.
    pub fn snapshot(&self) -> HttpStatsSnapshot {
        HttpStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_503: self.rejected.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            rate_limited_429: self.rate_limited.load(Ordering::Relaxed),
            requests: self.routes.iter().map(|r| r.requests()).sum(),
        }
    }

    /// The latency quantile `q ∈ (0, 1]` for one route over the current
    /// window. `None` when the window has no observations.
    pub fn quantile_us(&self, label: &str, q: f64) -> Option<u64> {
        self.quantile_us_at(label, q, self.slot_now())
    }

    /// [`HttpMetrics::quantile_us`] with an explicit window slot.
    pub fn quantile_us_at(&self, label: &str, q: f64, slot: u64) -> Option<u64> {
        self.route(label).latency.merged(slot).quantile_us(q)
    }

    /// Prometheus-style text exposition for `GET /metrics`. Routes with
    /// no traffic are omitted to keep the payload proportional to use;
    /// latency buckets/quantiles cover the sliding window only.
    pub fn render_prometheus(&self) -> String {
        let slot = self.slot_now();
        let mut out = String::with_capacity(2048);
        let snap = self.snapshot();
        for (name, help, v) in [
            (
                "pgl_http_connections_accepted_total",
                "Connections accepted and handed to a handler.",
                snap.accepted,
            ),
            (
                "pgl_http_connections_rejected_total",
                "Connections shed with 503 because the queue was full.",
                snap.rejected_503,
            ),
            (
                "pgl_http_keepalive_reuses_total",
                "Requests served on an already-open connection.",
                snap.keepalive_reuses,
            ),
            (
                "pgl_http_bad_requests_total",
                "Requests that failed to parse (answered 400).",
                snap.bad_requests,
            ),
            (
                "pgl_http_rate_limited_total",
                "Requests refused by the per-client rate limiter (429).",
                snap.rate_limited_429,
            ),
        ] {
            family(&mut out, name, "counter", help);
            out.push_str(&format!("{name} {v}\n"));
        }

        family(
            &mut out,
            "pgl_http_requests_total",
            "counter",
            "Requests answered, by route and status class.",
        );
        for (i, label) in ROUTES.iter().enumerate() {
            let r = &self.routes[i];
            for (class, counter) in [
                ("2xx", &r.status_2xx),
                ("4xx", &r.status_4xx),
                ("5xx", &r.status_5xx),
            ] {
                let n = counter.load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "pgl_http_requests_total{{route=\"{label}\",class=\"{class}\"}} {n}\n"
                    ));
                }
            }
        }

        family(
            &mut out,
            "pgl_http_request_duration_us",
            "histogram",
            "Request latency over the sliding window, by route.",
        );
        for (i, label) in ROUTES.iter().enumerate() {
            let snap = self.routes[i].latency.merged(slot);
            if snap.count == 0 {
                continue;
            }
            render_histogram(
                &mut out,
                "pgl_http_request_duration_us",
                &format!("route=\"{label}\""),
                &snap,
            );
        }
        out
    }
}

/// Push a family header: `# HELP` and `# TYPE`, in that order. Every
/// family this process emits goes through here, which is what the
/// exposition validator asserts.
pub(crate) fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Render one merged histogram as Prometheus `_bucket`/`_sum`/`_count`
/// lines plus p50/p90/p99 quantile gauges, under `labels` (without
/// braces; may be empty).
pub(crate) fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    snap: &HistogramSnapshot,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (b, &c) in snap.counts.iter().enumerate() {
        cumulative += c;
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}\n",
            bucket_le(b)
        ));
    }
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", snap.sum_us));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", snap.count));
    for q in [0.5, 0.9, 0.99] {
        if let Some(v) = snap.quantile_us(q) {
            out.push_str(&format!("{name}{{{labels}{sep}quantile=\"{q}\"}} {v}\n"));
        }
    }
}

/// Is `name` a valid Prometheus metric name?
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strip histogram/summary suffixes to recover the family name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            return stem;
        }
    }
    name
}

/// Offline structural validation of a Prometheus text exposition — what
/// the metrics tests and the CI scrape check run against `/metrics`.
/// Asserts that:
///
/// * every sample's family is declared with both `# HELP` and `# TYPE`
///   before its first sample,
/// * every metric name is well-formed,
/// * every sample's value parses as a number,
/// * within each label-set of a histogram, `_bucket` counts are
///   monotone non-decreasing in `le` order and end at `+Inf` with a
///   count equal to the family's `_count` sample.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut helped: std::collections::HashSet<String> = Default::default();
    let mut typed: HashMap<String, String> = Default::default();
    // (family, labels-minus-le) -> ordered (le, cumulative count).
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = Default::default();
    let mut counts: HashMap<(String, String), f64> = Default::default();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
            }
            helped.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("line {n}: unknown TYPE {kind:?} for {name}"));
            }
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {n}: no value: {line:?}")),
        };
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {n}: unparseable value {v:?}"))?,
        };
        let (name, labels) = match name_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated labels: {line:?}"))?;
                (name, labels)
            }
            None => (name_labels, ""),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let fam = family_of(name);
        if !helped.contains(fam) {
            return Err(format!("line {n}: family {fam} has no # HELP"));
        }
        if !typed.contains_key(fam) {
            return Err(format!("line {n}: family {fam} has no # TYPE"));
        }

        if name.ends_with("_bucket") {
            // Split out the le label; keep the rest as the series key.
            let mut le: Option<f64> = None;
            let mut rest_labels: Vec<&str> = Vec::new();
            for part in split_labels(labels) {
                match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
                    Some(v) if le.is_none() => {
                        le = Some(if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse().map_err(|_| format!("line {n}: bad le {v:?}"))?
                        });
                    }
                    _ => rest_labels.push(part),
                }
            }
            let le = le.ok_or_else(|| format!("line {n}: bucket without le label"))?;
            buckets
                .entry((fam.to_string(), rest_labels.join(",")))
                .or_default()
                .push((le, value));
        } else if name.ends_with("_count")
            && typed.get(fam).map(String::as_str) == Some("histogram")
        {
            counts.insert((fam.to_string(), labels.to_string()), value);
        }
    }

    for ((fam, labels), series) in &buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = 0.0;
        for &(le, count) in series {
            if le <= prev_le {
                return Err(format!("{fam}{{{labels}}}: le values not increasing"));
            }
            if count < prev_count {
                return Err(format!(
                    "{fam}{{{labels}}}: bucket counts not monotone ({count} < {prev_count})"
                ));
            }
            prev_le = le;
            prev_count = count;
        }
        match series.last() {
            Some(&(le, last)) if le.is_infinite() => {
                if let Some(&total) = counts.get(&(fam.clone(), labels.to_string())) {
                    if (total - last).abs() > 1e-9 {
                        return Err(format!(
                            "{fam}{{{labels}}}: +Inf bucket {last} != _count {total}"
                        ));
                    }
                }
            }
            _ => {
                return Err(format!("{fam}{{{labels}}}: histogram must end at +Inf"));
            }
        }
    }
    Ok(())
}

/// Split a label body on top-level commas (values are quoted; commas
/// inside quotes don't split).
fn split_labels(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let bytes = labels.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_quotes = !in_quotes,
            b',' if !in_quotes => {
                if start < i {
                    out.push(&labels[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_ceiling() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), LAST);
    }

    #[test]
    fn observe_classifies_status_and_counts() {
        let m = HttpMetrics::new();
        m.observe("/v1/jobs", 202, Duration::from_micros(3));
        m.observe("/v1/jobs", 400, Duration::from_micros(100));
        m.observe("/v1/jobs", 503, Duration::from_micros(9));
        m.observe("/no-such-route", 200, Duration::ZERO); // falls into "other"
        assert_eq!(m.snapshot().requests, 4);
        let text = m.render_prometheus();
        assert!(text.contains("pgl_http_requests_total{route=\"/v1/jobs\",class=\"2xx\"} 1"));
        assert!(text.contains("pgl_http_requests_total{route=\"/v1/jobs\",class=\"4xx\"} 1"));
        assert!(text.contains("pgl_http_requests_total{route=\"/v1/jobs\",class=\"5xx\"} 1"));
        assert!(text.contains("pgl_http_requests_total{route=\"other\",class=\"2xx\"} 1"));
    }

    #[test]
    fn quantiles_come_from_bucket_bounds() {
        let m = HttpMetrics::new();
        // 9 fast requests, 1 slow one: p50 is small, p99 is the outlier.
        for _ in 0..9 {
            m.observe("/v1/healthz", 200, Duration::from_micros(2));
        }
        m.observe("/v1/healthz", 200, Duration::from_micros(5000));
        assert_eq!(m.quantile_us("/v1/healthz", 0.5), Some(2));
        assert_eq!(m.quantile_us("/v1/healthz", 0.99), Some(8192));
        assert_eq!(
            m.quantile_us("/v1/stats", 0.5),
            None,
            "no traffic, no value"
        );
    }

    #[test]
    fn histogram_is_cumulative_and_ends_at_inf() {
        let m = HttpMetrics::new();
        m.observe("/v1/stats", 200, Duration::from_micros(1));
        m.observe("/v1/stats", 200, Duration::from_micros(1_000_000_000));
        let text = m.render_prometheus();
        assert!(
            text.contains("pgl_http_request_duration_us_bucket{route=\"/v1/stats\",le=\"1\"} 1")
        );
        assert!(
            text.contains("pgl_http_request_duration_us_bucket{route=\"/v1/stats\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("pgl_http_request_duration_us_count{route=\"/v1/stats\"} 2"));
    }

    #[test]
    fn old_samples_age_out_of_the_window() {
        let m = HttpMetrics::new();
        let idx = route_index("/v1/healthz");
        // A burst of slow requests in slot 0 dominates p99...
        for _ in 0..20 {
            m.observe_idx_at(idx, 200, Duration::from_micros(100_000), 0);
        }
        assert_eq!(m.quantile_us_at("/v1/healthz", 0.99, 0), Some(131_072));
        // ...and stays pinned on the p99 for as long as slot 0 is inside
        // the sliding window.
        assert_eq!(
            m.quantile_us_at("/v1/healthz", 0.99, WINDOW_SLOTS as u64 - 1),
            Some(131_072),
            "stale burst still in window"
        );
        // Then only fast traffic arrives, one full window later: the ring
        // entry holding the burst is reclaimed and the percentile recovers.
        let later = WINDOW_SLOTS as u64; // slot 0 just aged out
        for _ in 0..20 {
            m.observe_idx_at(idx, 200, Duration::from_micros(4), later);
        }
        assert_eq!(
            m.quantile_us_at("/v1/healthz", 0.99, later),
            Some(4),
            "burst aged out; p99 reflects current traffic"
        );
        // Cumulative request counters never decay.
        assert_eq!(m.snapshot().requests, 40);
    }

    #[test]
    fn ring_slots_are_reused_after_wraparound() {
        let h = WindowedHistogram::new();
        h.observe(0, 10);
        // Same ring entry, much later epoch: the stale contents are
        // zeroed, not merged.
        h.observe(WINDOW_SLOTS as u64 * 3, 1000);
        let snap = h.merged(WINDOW_SLOTS as u64 * 3);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum_us, 1000);
    }

    #[test]
    fn route_index_matches_the_route_table() {
        assert_eq!(ROUTES[route_index("/v1/graphs")], "/v1/graphs");
        assert_eq!(ROUTES[route_index("/v1/graphs/abc123")], "/v1/graphs/{id}");
        assert_eq!(ROUTES[route_index("/v1/jobs")], "/v1/jobs");
        assert_eq!(ROUTES[route_index("/v1/jobs/17")], "/v1/jobs/{id}");
        assert_eq!(
            ROUTES[route_index("/v1/jobs/99/cancel")],
            "/v1/jobs/{id}/cancel"
        );
        assert_eq!(
            ROUTES[route_index("/v1/jobs/99/events")],
            "/v1/jobs/{id}/events"
        );
        assert_eq!(
            ROUTES[route_index("/v1/jobs/99/trace")],
            "/v1/jobs/{id}/trace"
        );
        assert_eq!(ROUTES[route_index("/v1/result/3")], "/v1/result/{id}");
        assert_eq!(ROUTES[route_index("/v1/stats")], "/v1/stats");
        assert_eq!(ROUTES[route_index("/v1/metrics")], "/v1/metrics");
        assert_eq!(ROUTES[route_index("/v1/engines")], "/v1/engines");
        assert_eq!(ROUTES[route_index("/v1/healthz")], "/v1/healthz");
        assert_eq!(
            ROUTES[route_index("/v1/cluster/heartbeat")],
            "/v1/cluster/{op}"
        );
        assert_eq!(route_index("/v1/jobs/1/2/3"), OTHER_ROUTE);
        assert_eq!(route_index("/"), OTHER_ROUTE);
        assert_eq!(route_index("/v1"), OTHER_ROUTE);
    }

    #[test]
    fn v1_routes_resolve_to_their_own_labels() {
        // Every label but "other" is reachable, and only under /v1.
        for label in &ROUTES[..OTHER_ROUTE] {
            let path = label.replace("{id}", "7").replace("{op}", "join");
            assert_eq!(ROUTES[route_index(&path)], *label, "{path}");
            let unversioned = path.strip_prefix("/v1").unwrap();
            assert_eq!(route_index(unversioned), OTHER_ROUTE, "{unversioned}");
        }
        // The retired second name for job submission is not a route.
        assert_eq!(route_index("/v1/layout"), OTHER_ROUTE);
        assert_eq!(route_index("/v1/no/such"), OTHER_ROUTE);
    }

    #[test]
    fn observe_by_index_and_by_label_agree() {
        let m = HttpMetrics::new();
        m.observe_idx(route_index("/v1/jobs"), 202, Duration::from_micros(2));
        m.observe("/v1/jobs", 202, Duration::from_micros(2));
        m.observe_idx(usize::MAX, 200, Duration::ZERO); // clamps to "other"
        let text = m.render_prometheus();
        assert!(text.contains("pgl_http_requests_total{route=\"/v1/jobs\",class=\"2xx\"} 2"));
        assert!(text.contains("pgl_http_requests_total{route=\"other\",class=\"2xx\"} 1"));
    }

    #[test]
    fn connection_counters_round_trip() {
        let m = HttpMetrics::new();
        m.record_accepted();
        m.record_accepted();
        m.record_rejected();
        m.record_keepalive_reuse();
        m.record_bad_request();
        m.record_rate_limited();
        m.record_rate_limited();
        let s = m.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.rejected_503, 1);
        assert_eq!(s.keepalive_reuses, 1);
        assert_eq!(s.bad_requests, 1);
        assert_eq!(s.rate_limited_429, 2);
        assert!(m
            .render_prometheus()
            .contains("pgl_http_rate_limited_total 2"));
    }

    #[test]
    fn rendered_exposition_passes_the_validator() {
        let m = HttpMetrics::new();
        m.record_accepted();
        m.observe("/v1/jobs", 202, Duration::from_micros(3));
        m.observe("/v1/jobs/17", 200, Duration::from_micros(900));
        m.observe("/v1/metrics", 200, Duration::from_micros(40));
        m.observe("/v1/healthz", 200, Duration::from_micros(1));
        validate_exposition(&m.render_prometheus()).unwrap();
    }

    #[test]
    fn validator_rejects_broken_expositions() {
        // Sample without HELP/TYPE.
        assert!(validate_exposition("orphan_metric 1\n").is_err());
        // HELP but no TYPE.
        assert!(validate_exposition("# HELP x about x\nx 1\n").is_err());
        // Bad metric name.
        assert!(validate_exposition("# HELP 9x y\n# TYPE 9x counter\n9x 1\n").is_err());
        // Unparseable value.
        assert!(validate_exposition("# HELP x y\n# TYPE x counter\nx banana\n").is_err());
        // Non-monotone histogram buckets.
        let bad = "# HELP h y\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                   h_sum 9\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // Histogram not ending at +Inf.
        let no_inf = "# HELP h y\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\n";
        assert!(validate_exposition(no_inf).is_err());
        // +Inf bucket disagreeing with _count.
        let off = "# HELP h y\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 6\n";
        assert!(validate_exposition(off).is_err());
        // A correct document passes.
        let good = "# HELP h y\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 6\nh_sum 9\nh_count 6\n";
        validate_exposition(good).unwrap();
    }
}
