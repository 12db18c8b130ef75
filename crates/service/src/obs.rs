//! Zero-dependency structured logging for the service.
//!
//! One global logger, configured once at startup (`pgl serve
//! --log-level/--log-json`), writing single-line records to stderr in
//! either a human `ts LEVEL target msg key=value ...` form or JSON
//! (one object per line, ready for log shippers). Levels gate at an
//! atomic load, so disabled calls cost one relaxed read.
//!
//! Records carry structured fields (`job=17`, `path=/x/y.gfa`) instead
//! of interpolating everything into the message, so an operator can
//! grep/aggregate on them — the reason the scattered `eprintln!`s in
//! `service.rs` moved here.

use crate::httpmetrics::{family, render_histogram, WindowedHistogram, SLOT_SECS};
use pgio::quote;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Log severities, least to most severe. `Off` disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Per-request / per-job details.
    Debug = 0,
    /// Normal operational events (startup, preload summary).
    Info = 1,
    /// Degraded but running (disk tier unavailable, slow request).
    Warn = 2,
    /// A job or subsystem failed (worker panic).
    Error = 3,
    /// Nothing is logged.
    Off = 4,
}

impl LogLevel {
    /// Lower-case wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
            LogLevel::Off => "off",
        }
    }

    /// Parse a CLI name (`debug|info|warn|error|off`).
    pub fn parse_name(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "debug" => LogLevel::Debug,
            "info" => LogLevel::Info,
            "warn" | "warning" => LogLevel::Warn,
            "error" => LogLevel::Error,
            "off" | "none" => LogLevel::Off,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => LogLevel::Debug,
            1 => LogLevel::Info,
            2 => LogLevel::Warn,
            3 => LogLevel::Error,
            _ => LogLevel::Off,
        }
    }
}

/// Minimum severity that gets written. Default: `Info`.
static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);
/// Emit JSON lines instead of the human format.
static JSON: AtomicBool = AtomicBool::new(false);

/// Configure the global logger (idempotent; callable before or after
/// threads start — both knobs are plain atomics).
pub fn init(level: LogLevel, json: bool) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    JSON.store(json, Ordering::Relaxed);
}

/// The currently configured minimum level.
pub fn level() -> LogLevel {
    LogLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Would a record at `lvl` be written right now?
pub fn enabled(lvl: LogLevel) -> bool {
    lvl != LogLevel::Off && lvl >= level()
}

/// One structured field: a key and its already-rendered value.
pub type Field<'a> = (&'a str, String);

/// Write one record, if the level passes the gate. Fields keep their
/// insertion order.
pub fn log(lvl: LogLevel, target: &str, msg: &str, fields: &[Field<'_>]) {
    if !enabled(lvl) {
        return;
    }
    let now_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let line = render_line(
        lvl,
        target,
        msg,
        fields,
        JSON.load(Ordering::Relaxed),
        now_ms,
    );
    eprintln!("{line}");
}

/// `error`-level record.
pub fn error(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(LogLevel::Error, target, msg, fields);
}

/// `warn`-level record.
pub fn warn(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(LogLevel::Warn, target, msg, fields);
}

/// `info`-level record.
pub fn info(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(LogLevel::Info, target, msg, fields);
}

/// `debug`-level record.
pub fn debug(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(LogLevel::Debug, target, msg, fields);
}

/// Render one record — pure, so tests can assert on exact output. The
/// timestamp is UTC milliseconds since the epoch, formatted ISO-8601.
pub fn render_line(
    lvl: LogLevel,
    target: &str,
    msg: &str,
    fields: &[Field<'_>],
    json: bool,
    now_ms: u128,
) -> String {
    let ts = format_utc_ms(now_ms);
    let mut out = String::with_capacity(96);
    if json {
        let _ = write!(
            out,
            "{{\"ts\":\"{ts}\",\"level\":\"{}\",\"target\":{},\"msg\":{}",
            lvl.as_str(),
            quote(target),
            quote(msg)
        );
        for (k, v) in fields {
            let _ = write!(out, ",{}:{}", quote(k), quote(v));
        }
        out.push('}');
    } else {
        let _ = write!(
            out,
            "{ts} {:<5} {target}: {msg}",
            lvl.as_str().to_ascii_uppercase()
        );
        for (k, v) in fields {
            if v.contains([' ', '"', '=']) {
                let _ = write!(out, " {k}={:?}", v);
            } else {
                let _ = write!(out, " {k}={v}");
            }
        }
    }
    out
}

/// Queue band labels, indexed by [`crate::spec::Priority::band`].
pub const QUEUE_BANDS: [&str; 3] = ["interactive", "normal", "bulk"];

/// Job lifecycle phases with their own `/metrics` latency histograms.
/// `graph_parse` and `graph_lookup` are distinct phases on purpose: the
/// parse-once architecture exists to turn the former into the latter.
pub const PHASES: [&str; 5] = [
    "cache_probe",
    "graph_parse",
    "graph_lookup",
    "layout",
    "spill",
];

/// Service-level telemetry aggregates: sliding-window latency
/// histograms for queue wait (per band) and each job phase, plus the
/// engine-level counters behind the `/metrics` live gauges. One
/// instance lives in the service's shared state; workers and the submit
/// path feed it, the `/metrics` scrape renders it.
pub struct ServiceMetrics {
    started: Instant,
    queue_wait: [WindowedHistogram; QUEUE_BANDS.len()],
    phases: [WindowedHistogram; PHASES.len()],
    /// Terms applied by jobs that already finished (any outcome);
    /// running jobs' live counters are added at scrape time.
    terms_finished: AtomicU64,
    /// Previous scrape's (instant, total terms), for the updates/s
    /// gauge.
    last_rate: Mutex<(Instant, u64)>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Fresh aggregates; windows start now.
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            started: now,
            queue_wait: Default::default(),
            phases: Default::default(),
            terms_finished: AtomicU64::new(0),
            last_rate: Mutex::new((now, 0)),
        }
    }

    fn slot(&self) -> u64 {
        self.started.elapsed().as_secs() / SLOT_SECS
    }

    /// Record one job's queue wait in band `band` (see
    /// [`crate::spec::Priority::band`]).
    pub fn observe_queue_wait(&self, band: usize, us: u64) {
        if let Some(h) = self.queue_wait.get(band) {
            h.observe(self.slot(), us);
        }
    }

    /// Record one completed phase duration (phase names from
    /// [`PHASES`]; unknown names are dropped).
    pub fn observe_phase(&self, phase: &str, us: u64) {
        if let Some(i) = PHASES.iter().position(|p| *p == phase) {
            self.phases[i].observe(self.slot(), us);
        }
    }

    /// Fold a finished job's applied-terms total into the cumulative
    /// counter (its live contribution stops being scraped).
    pub fn add_terms_finished(&self, n: u64) {
        if n > 0 {
            self.terms_finished.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Render the service-level families. `running` and `live_terms`
    /// are sampled by the caller from the job table (terms applied by
    /// currently-running jobs keep `pgl_engine_terms_applied_total`
    /// live between completions).
    pub fn render_prometheus(&self, running: u64, live_terms: u64) -> String {
        let slot = self.slot();
        let mut out = String::with_capacity(1024);

        family(
            &mut out,
            "pgl_job_queue_wait_us",
            "histogram",
            "Queue wait over the sliding window, by priority band.",
        );
        for (i, band) in QUEUE_BANDS.iter().enumerate() {
            let snap = self.queue_wait[i].merged(slot);
            if snap.count > 0 {
                render_histogram(
                    &mut out,
                    "pgl_job_queue_wait_us",
                    &format!("band=\"{band}\""),
                    &snap,
                );
            }
        }

        family(
            &mut out,
            "pgl_job_phase_us",
            "histogram",
            "Job phase duration over the sliding window, by phase.",
        );
        for (i, phase) in PHASES.iter().enumerate() {
            let snap = self.phases[i].merged(slot);
            if snap.count > 0 {
                render_histogram(
                    &mut out,
                    "pgl_job_phase_us",
                    &format!("phase=\"{phase}\""),
                    &snap,
                );
            }
        }

        let total_terms = self.terms_finished.load(Ordering::Relaxed) + live_terms;
        family(
            &mut out,
            "pgl_engine_running_jobs",
            "gauge",
            "Jobs currently running on a worker.",
        );
        let _ = writeln!(out, "pgl_engine_running_jobs {running}");
        family(
            &mut out,
            "pgl_engine_terms_applied_total",
            "counter",
            "Attractive/repulsive terms applied across all jobs (finished + live).",
        );
        let _ = writeln!(out, "pgl_engine_terms_applied_total {total_terms}");

        // Updates/s: terms delta since the previous scrape. The first
        // scrape (and any scrape after a counter-free idle stretch)
        // reports 0.
        let ups = {
            let mut last = self.last_rate.lock().unwrap();
            let dt = last.0.elapsed().as_secs_f64();
            let delta = total_terms.saturating_sub(last.1);
            *last = (Instant::now(), total_terms);
            if dt > 0.0 {
                delta as f64 / dt
            } else {
                0.0
            }
        };
        family(
            &mut out,
            "pgl_engine_updates_per_sec",
            "gauge",
            "Update throughput since the previous /metrics scrape.",
        );
        let _ = writeln!(out, "pgl_engine_updates_per_sec {ups:.1}");
        out
    }
}

/// Epoch milliseconds → `YYYY-MM-DDTHH:MM:SS.mmmZ`, via the classic
/// days-to-civil conversion (no date dependency).
fn format_utc_ms(ms: u128) -> String {
    let secs = (ms / 1000) as i64;
    let millis = (ms % 1000) as u32;
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let (year, month, day) = civil_from_days(days);
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for lvl in [
            LogLevel::Debug,
            LogLevel::Info,
            LogLevel::Warn,
            LogLevel::Error,
            LogLevel::Off,
        ] {
            assert_eq!(LogLevel::parse_name(lvl.as_str()), Some(lvl));
        }
        assert_eq!(LogLevel::parse_name("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse_name("verbose"), None);
    }

    #[test]
    fn gating_respects_the_level_order() {
        init(LogLevel::Warn, false);
        assert!(!enabled(LogLevel::Debug));
        assert!(!enabled(LogLevel::Info));
        assert!(enabled(LogLevel::Warn));
        assert!(enabled(LogLevel::Error));
        init(LogLevel::Off, false);
        assert!(!enabled(LogLevel::Error));
        // Restore the default for sibling tests (the logger is global).
        init(LogLevel::Info, false);
    }

    #[test]
    fn text_lines_carry_fields_and_quote_spaces() {
        let line = render_line(
            LogLevel::Warn,
            "service",
            "preload failed",
            &[
                ("path", "/graphs/x.gfa".into()),
                ("error", "bad header line".into()),
            ],
            false,
            1_700_000_000_123,
        );
        assert_eq!(
            line,
            "2023-11-14T22:13:20.123Z WARN  service: preload failed \
             path=/graphs/x.gfa error=\"bad header line\""
        );
    }

    #[test]
    fn json_lines_are_valid_objects() {
        let line = render_line(
            LogLevel::Error,
            "service",
            "worker \"panicked\"",
            &[("job", "17".into()), ("engine", "gpu".into())],
            true,
            0,
        );
        assert_eq!(
            line,
            "{\"ts\":\"1970-01-01T00:00:00.000Z\",\"level\":\"error\",\
             \"target\":\"service\",\"msg\":\"worker \\\"panicked\\\"\",\
             \"job\":\"17\",\"engine\":\"gpu\"}"
        );
        let doc = pgio::Json::parse(&line).unwrap();
        assert_eq!(
            doc.get("msg").and_then(pgio::Json::str),
            Some("worker \"panicked\"")
        );
    }

    #[test]
    fn service_metrics_render_valid_windowed_families() {
        let m = ServiceMetrics::new();
        m.observe_queue_wait(0, 1_500);
        m.observe_queue_wait(2, 90_000);
        m.observe_queue_wait(99, 1); // out-of-range band: dropped
        m.observe_phase("layout", 2_000_000);
        m.observe_phase("cache_probe", 12);
        m.observe_phase("not-a-phase", 1); // dropped
        m.add_terms_finished(10_000);
        let text = m.render_prometheus(2, 5_000);
        crate::httpmetrics::validate_exposition(&text).unwrap();
        assert!(text.contains("pgl_job_queue_wait_us_count{band=\"interactive\"} 1"));
        assert!(text.contains("pgl_job_queue_wait_us_count{band=\"bulk\"} 1"));
        assert!(!text.contains("band=\"normal\""), "empty band omitted");
        assert!(text.contains("pgl_job_phase_us_count{phase=\"layout\"} 1"));
        assert!(!text.contains("not-a-phase"));
        assert!(text.contains("pgl_engine_running_jobs 2"));
        assert!(text.contains("pgl_engine_terms_applied_total 15000"));
        assert!(text.contains("pgl_engine_updates_per_sec"));
    }

    #[test]
    fn civil_dates_are_correct_around_epoch_and_leap_years() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        // 2000-02-29 (leap): 11016 days after the epoch.
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        // 2024-03-01 follows 2024-02-29.
        assert_eq!(format_utc_ms(1_709_251_200_000), "2024-03-01T00:00:00.000Z");
    }
}
