//! `pgl bench` — the reproducible SGD-throughput harness.
//!
//! The repository's north star is making the hot path measurably faster
//! every time it is touched; this module is the measuring stick. It lays
//! out a bundled workload preset across the hot-path axes (engine ×
//! precision × memory layout), records applied updates per second for
//! each combination, and emits a small self-describing JSON document
//! (`BENCH_<n>.json` is committed per perf PR, so the repo carries its
//! own performance trajectory).
//!
//! Everything is deterministic — generated graphs, seeds, iteration
//! counts — except wall time itself, so two runs on one machine are
//! directly comparable and `--baseline` (a prior run's updates/sec)
//! turns the report into a speedup statement.
//!
//! Schema `pgl-bench/3` (`/2` without the per-record `simd` and
//! `write_shard` booleans, which named kernel shapes the CPU engine no
//! longer has), additive over `/1`:
//!
//! * per-record run statistics over `--repeat` timings — `wall_s_mean`,
//!   `wall_s_stddev`, `cv`, `updates_per_sec_mean` — alongside the
//!   historical best-of `wall_s`/`updates_per_sec`,
//! * multi-thread rows from `--threads-sweep`, plus a top-level
//!   `host.cores` so scaling rows are interpretable,
//! * optional `anchor_ratio` per record from `--ab` mode: each row's
//!   repeats are interleaved with a fixed in-process *anchor* workload
//!   (cpu / f64 / aos / 1 thread — present in every committed
//!   baseline), and the row is summarized as its throughput relative to
//!   the anchor's. Gating on the ratio makes multiplicative machine
//!   drift (VM performance regimes, thermal state) cancel between a
//!   baseline recorded yesterday and a candidate run today.

use layout_core::{BatchEngine, CpuEngine, DataLayout, LayoutConfig, Precision, TERM_BLOCK};
use pangraph::lean::LeanGraph;
use pgio::{quote, Json};
use workloads::{generate, PangenomeSpec};

/// JSON schema tag; bump when the document shape changes.
pub const BENCH_SCHEMA: &str = "pgl-bench/3";
/// Previous schema tags, still accepted by [`validate_json`] and
/// [`guard_against_baseline`] so older committed baselines keep working.
pub const BENCH_SCHEMA_V2: &str = "pgl-bench/2";
/// See [`BENCH_SCHEMA_V2`].
pub const BENCH_SCHEMA_V1: &str = "pgl-bench/1";

/// What to measure.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Workload preset: `small`, `medium` or `large`.
    pub preset: String,
    /// Worker threads per run (0 ⇒ all cores). Keep fixed across runs
    /// you intend to compare. Ignored when `threads_sweep` is set.
    pub threads: usize,
    /// Thread counts to sweep; each produces its own headline rows.
    /// Empty ⇒ just `threads`.
    pub threads_sweep: Vec<usize>,
    /// Schedule length per run.
    pub iters: u32,
    /// Timed repetitions per configuration; the document reports both
    /// the best repetition and mean/stddev across all of them.
    pub repeat: usize,
    /// Interleaved A/B mode: alternate each row's repeats with anchor
    /// runs and record the row:anchor throughput ratio.
    pub ab: bool,
    /// CI smoke mode: a tiny graph, three iterations, and only the two
    /// headline configurations.
    pub quick: bool,
    /// A reference updates/sec (e.g. the previous release's headline
    /// number on this machine); each record then carries its speedup.
    pub baseline_updates_per_sec: Option<f64>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            preset: "medium".into(),
            threads: 1,
            threads_sweep: Vec::new(),
            iters: 15,
            repeat: 2,
            ab: false,
            quick: false,
            baseline_updates_per_sec: None,
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Engine (`cpu` or `batch`).
    pub engine: String,
    /// Coordinate precision label (`f64` / `f32`).
    pub precision: String,
    /// Memory layout label (`aos` / `soa`).
    pub layout: String,
    /// Worker threads used.
    pub threads: usize,
    /// Term-block size of the hot loop ([`TERM_BLOCK`] for `cpu` rows;
    /// the batch size for `batch` rows).
    pub term_block: usize,
    /// Mini-batch size (batch engine only; 0 otherwise).
    pub batch: usize,
    /// Iterations run.
    pub iters: u32,
    /// Terms actually applied.
    pub terms_applied: u64,
    /// Wall seconds of the best repetition.
    pub wall_s: f64,
    /// Applied updates per second of the best repetition (the headline
    /// metric, schema-stable since `pgl-bench/1`).
    pub updates_per_sec: f64,
    /// Mean wall seconds across all repetitions.
    pub wall_s_mean: f64,
    /// Wall-second standard deviation across repetitions.
    pub wall_s_stddev: f64,
    /// Coefficient of variation (`wall_s_stddev / wall_s_mean`) — the
    /// run-to-run noise the guard folds into its tolerance.
    pub cv: f64,
    /// Mean applied updates per second (`terms_applied / wall_s_mean`;
    /// the term count is deterministic per configuration).
    pub updates_per_sec_mean: f64,
    /// `--ab` mode: this row's mean throughput relative to the
    /// interleaved anchor workload's mean throughput.
    pub anchor_ratio: Option<f64>,
}

/// A full harness run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Preset name.
    pub preset: String,
    /// Graph shape, so numbers are interpretable later.
    pub nodes: usize,
    /// Path count.
    pub paths: usize,
    /// Total path steps (updates per iteration = 10 × this).
    pub steps: usize,
    /// Quick (CI smoke) mode?
    pub quick: bool,
    /// Timed repetitions per configuration.
    pub repeat: usize,
    /// Logical cores on the measuring host (thread-scaling rows beyond
    /// this count measure oversubscription, not scaling).
    pub host_cores: usize,
    /// Interleaved A/B mode?
    pub ab: bool,
    /// Reference updates/sec, when provided.
    pub baseline_updates_per_sec: Option<f64>,
    /// One record per measured configuration.
    pub results: Vec<BenchRecord>,
}

impl BenchReport {
    /// The fastest measured configuration.
    pub fn best(&self) -> Option<&BenchRecord> {
        self.results.iter().max_by(|a, b| {
            a.updates_per_sec
                .partial_cmp(&b.updates_per_sec)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// The preset graph the harness measures on. `small`/`medium`/`large`
/// are fixed, seeded generator specs; `quick` substitutes a tiny graph
/// so CI smoke runs finish in seconds.
pub fn bench_spec(preset: &str, quick: bool) -> Result<PangenomeSpec, String> {
    // Validate the preset name even in quick mode, so a typoed
    // `--preset` fails loudly instead of silently benchmarking the
    // quick graph.
    let full = match preset {
        "small" => workloads::hla_drb1(),
        "medium" => workloads::mhc_like(0.05),
        "large" => workloads::mhc_like(0.25),
        other => return Err(format!("unknown preset {other:?} (small, medium, large)")),
    };
    if quick {
        return Ok(PangenomeSpec::basic("bench-quick", 150, 4, 0xBE7C));
    }
    Ok(full)
}

fn layout_label(l: DataLayout) -> &'static str {
    match l {
        DataLayout::CacheFriendlyAos => "aos",
        DataLayout::OriginalSoa => "soa",
    }
}

/// Best/mean/stddev of a set of wall timings.
fn wall_stats(walls: &[f64]) -> (f64, f64, f64) {
    let best = walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    let var = walls.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / walls.len() as f64;
    (best, mean, var.sqrt())
}

/// Run the harness: generate the preset, sweep the hot-path axes (and
/// the thread counts of `threads_sweep`), and return the measured
/// records. Progress lines go to stderr.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchReport, String> {
    let spec = bench_spec(&opts.preset, opts.quick)?;
    eprintln!("pgl bench: generating {} ...", spec.name);
    let lean = LeanGraph::from_graph(&generate(&spec));
    let iters = if opts.quick { 3 } else { opts.iters };
    let repeat = opts.repeat.max(1);
    let sweep: Vec<usize> = if opts.threads_sweep.is_empty() {
        vec![opts.threads]
    } else {
        opts.threads_sweep.clone()
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let base_cfg = |precision, data_layout, threads| LayoutConfig {
        iter_max: iters,
        threads,
        precision,
        data_layout,
        seed: 0xBE9C_5EED,
        ..LayoutConfig::default()
    };
    // The `--ab` anchor: the one configuration every committed baseline
    // carries (cpu / f64 / aos / 1 thread).
    let anchor_engine = CpuEngine::new(base_cfg(Precision::F64, DataLayout::CacheFriendlyAos, 1));

    // Time one runner `repeat` times; in `--ab` mode alternate with
    // anchor runs so candidate and anchor sample the same machine
    // regime, and summarize the row as a ratio against the anchor.
    let measure = |run: &dyn Fn() -> (f64, u64)| -> (Vec<f64>, u64, Option<f64>) {
        let mut walls = Vec::new();
        let mut anchor_walls = Vec::new();
        let mut terms = 0u64;
        let mut anchor_terms = 0u64;
        for _ in 0..repeat {
            let (w, t) = run();
            walls.push(w);
            terms = t;
            if opts.ab {
                let (_, rep) = anchor_engine.run(&lean);
                anchor_walls.push(rep.wall.as_secs_f64());
                anchor_terms = rep.terms_applied;
            }
        }
        let anchor_ratio = (!anchor_walls.is_empty()).then(|| {
            let (_, a_mean, _) = wall_stats(&anchor_walls);
            let (_, c_mean, _) = wall_stats(&walls);
            (terms as f64 / c_mean.max(1e-12)) / (anchor_terms as f64 / a_mean.max(1e-12))
        });
        (walls, terms, anchor_ratio)
    };

    let finish_record = |mut rec: BenchRecord, walls: &[f64]| -> BenchRecord {
        let (best, mean, stddev) = wall_stats(walls);
        rec.wall_s = best;
        rec.updates_per_sec = rec.terms_applied as f64 / best.max(1e-12);
        rec.wall_s_mean = mean;
        rec.wall_s_stddev = stddev;
        rec.cv = stddev / mean.max(1e-12);
        rec.updates_per_sec_mean = rec.terms_applied as f64 / mean.max(1e-12);
        eprintln!(
            "  {:<5} {:>3} {:>3} {:>2}t  {:>8.2} ms  {:>6.2} M updates/s  (cv {:.1}%{})",
            rec.engine,
            rec.precision,
            rec.layout,
            rec.threads,
            rec.wall_s_mean * 1e3,
            rec.updates_per_sec_mean / 1e6,
            rec.cv * 100.0,
            rec.anchor_ratio
                .map(|r| format!(", {r:.3}x anchor"))
                .unwrap_or_default()
        );
        rec
    };

    let mut results = Vec::new();
    for (ti, &threads) in sweep.iter().enumerate() {
        // The headline rows at every thread count (the f64 baseline and
        // the f32 fast path, both cache-friendly); the SoA ablation rows
        // only once, at the sweep's first thread count, and never in
        // quick mode.
        let mut cpu_rows = vec![
            (Precision::F64, DataLayout::CacheFriendlyAos),
            (Precision::F32, DataLayout::CacheFriendlyAos),
        ];
        if ti == 0 && !opts.quick {
            cpu_rows.push((Precision::F64, DataLayout::OriginalSoa));
            cpu_rows.push((Precision::F32, DataLayout::OriginalSoa));
        }
        for (precision, data_layout) in cpu_rows {
            let cfg = base_cfg(precision, data_layout, threads);
            let engine = CpuEngine::new(cfg.clone());
            let (walls, terms, anchor_ratio) = measure(&|| {
                let (_, report) = engine.run(&lean);
                (report.wall.as_secs_f64(), report.terms_applied)
            });
            results.push(finish_record(
                BenchRecord {
                    engine: "cpu".into(),
                    precision: precision.label().into(),
                    layout: layout_label(data_layout).into(),
                    threads: cfg.resolved_threads(),
                    term_block: TERM_BLOCK,
                    batch: 0,
                    iters,
                    terms_applied: terms,
                    wall_s: 0.0,
                    updates_per_sec: 0.0,
                    wall_s_mean: 0.0,
                    wall_s_stddev: 0.0,
                    cv: 0.0,
                    updates_per_sec_mean: 0.0,
                    anchor_ratio,
                },
                &walls,
            ));
        }
    }

    if !opts.quick {
        let cfg = base_cfg(Precision::F64, DataLayout::CacheFriendlyAos, 1);
        let batch_size = 1024;
        let engine = BatchEngine::new(cfg.clone(), batch_size);
        let (walls, terms, anchor_ratio) = measure(&|| {
            let (_, report) = engine.run(&lean);
            (report.wall.as_secs_f64(), report.terms_applied)
        });
        results.push(finish_record(
            BenchRecord {
                engine: "batch".into(),
                precision: Precision::F64.label().into(),
                layout: layout_label(DataLayout::CacheFriendlyAos).into(),
                threads: 1,
                term_block: batch_size,
                batch: batch_size,
                iters,
                terms_applied: terms,
                wall_s: 0.0,
                updates_per_sec: 0.0,
                wall_s_mean: 0.0,
                wall_s_stddev: 0.0,
                cv: 0.0,
                updates_per_sec_mean: 0.0,
                anchor_ratio,
            },
            &walls,
        ));
    }

    Ok(BenchReport {
        preset: if opts.quick {
            "quick".into()
        } else {
            opts.preset.clone()
        },
        nodes: lean.node_count(),
        paths: lean.path_count(),
        steps: lean.total_steps(),
        quick: opts.quick,
        repeat,
        host_cores,
        ab: opts.ab,
        baseline_updates_per_sec: opts.baseline_updates_per_sec,
        results,
    })
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Render a report as the committed `BENCH_*.json` document.
pub fn to_json(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"preset\": {},\n", quote(&report.preset)));
    out.push_str(&format!(
        "  \"graph\": {{\"nodes\": {}, \"paths\": {}, \"steps\": {}}},\n",
        report.nodes, report.paths, report.steps
    ));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"repeat\": {},\n", report.repeat));
    out.push_str(&format!(
        "  \"host\": {{\"cores\": {}}},\n",
        report.host_cores
    ));
    out.push_str(&format!("  \"ab\": {},\n", report.ab));
    match report.baseline_updates_per_sec {
        Some(b) => out.push_str(&format!(
            "  \"baseline_updates_per_sec\": {},\n",
            json_f64(b)
        )),
        None => out.push_str("  \"baseline_updates_per_sec\": null,\n"),
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in report.results.iter().enumerate() {
        let speedup = report
            .baseline_updates_per_sec
            .map(|b| json_f64(r.updates_per_sec / b))
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{\"engine\": {}, \"precision\": {}, \"layout\": {}, \
             \"threads\": {}, \"term_block\": {}, \"batch\": {}, \"iters\": {}, \
             \"terms_applied\": {}, \"wall_s\": {}, \"updates_per_sec\": {}, \
             \"wall_s_mean\": {}, \"wall_s_stddev\": {}, \"cv\": {}, \
             \"updates_per_sec_mean\": {}, \"anchor_ratio\": {}, \
             \"speedup_vs_baseline\": {}}}{}\n",
            quote(&r.engine),
            quote(&r.precision),
            quote(&r.layout),
            r.threads,
            r.term_block,
            r.batch,
            r.iters,
            r.terms_applied,
            json_f64(r.wall_s),
            json_f64(r.updates_per_sec),
            json_f64(r.wall_s_mean),
            json_f64(r.wall_s_stddev),
            json_f64(r.cv),
            json_f64(r.updates_per_sec_mean),
            r.anchor_ratio
                .map(json_f64)
                .unwrap_or_else(|| "null".into()),
            speedup,
            if i + 1 == report.results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validate a `BENCH_*.json` document — what the CI smoke job runs
/// against the artifact it just produced. The document must parse as
/// JSON, carry a schema tag (`pgl-bench/3`, or `/2` and `/1` for older
/// committed baselines) and at least one result record, and every
/// record must carry the required keys — the statistics keys from `/2`
/// on, and the `simd`/`write_shard` keys in `/2` documents — with a
/// positive `updates_per_sec`. Returns the parsed document.
pub fn validate_json(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("not a JSON document: {e}"))?;
    let (stats, kernel_keys) = match doc.get("schema").and_then(Json::str) {
        Some(BENCH_SCHEMA) => (true, false),
        Some(BENCH_SCHEMA_V2) => (true, true),
        Some(BENCH_SCHEMA_V1) => (false, false),
        _ => {
            return Err(format!(
                "missing schema tag ({BENCH_SCHEMA:?}, {BENCH_SCHEMA_V2:?} or {BENCH_SCHEMA_V1:?})"
            ))
        }
    };
    let records = doc.get("results").and_then(Json::arr).unwrap_or_default();
    if records.is_empty() {
        return Err("no result records".into());
    }
    let mut required = vec![
        "engine",
        "precision",
        "layout",
        "threads",
        "term_block",
        "iters",
        "wall_s",
        "updates_per_sec",
    ];
    if stats {
        required.extend(["wall_s_mean", "wall_s_stddev", "cv", "updates_per_sec_mean"]);
    }
    if kernel_keys {
        required.extend(["simd", "write_shard"]);
    }
    for (i, rec) in records.iter().enumerate() {
        if let Some(key) = required.iter().find(|key| rec.get(key).is_none()) {
            return Err(format!("record {i} missing {key:?}"));
        }
        let ups = rec
            .get("updates_per_sec")
            .and_then(Json::f64)
            .ok_or_else(|| format!("record {i}: unparseable updates_per_sec"))?;
        if ups.is_nan() || ups <= 0.0 {
            return Err(format!("record {i}: non-positive updates_per_sec {ups}"));
        }
    }
    Ok(doc)
}

/// Default relative regression tolerated by [`guard_against_baseline`]:
/// 2% — the budget the observability hooks (telemetry counters, trace
/// spans) are allowed to cost the hot path.
pub const GUARD_DEFAULT_TOLERANCE: f64 = 0.02;

/// One baseline row as parsed from a committed `BENCH_*.json`.
struct BaselineRow {
    engine: String,
    precision: String,
    layout: String,
    threads: usize,
    iters: u32,
    term_block: usize,
    /// Best-of updates/sec (present since `pgl-bench/1`).
    ups_best: f64,
    /// Mean updates/sec (since `pgl-bench/2`).
    ups_mean: Option<f64>,
    /// Coefficient of variation (since `pgl-bench/2`).
    cv: Option<f64>,
    /// Anchor-relative throughput (since `pgl-bench/2`, `--ab` runs).
    anchor_ratio: Option<f64>,
}

/// Whether a row measures the `--ab` anchor configuration itself.
fn is_anchor_row(r: &BenchRecord) -> bool {
    r.engine == "cpu" && r.precision == "f64" && r.layout == "aos" && r.threads == 1
}

/// Compare a fresh run against a committed `BENCH_*.json` baseline and
/// fail when any matching configuration (same engine, precision, memory
/// layout, thread count, iterations and term block) has regressed
/// beyond tolerance. The baseline must measure the same preset as the
/// run; another preset is an error. Configurations present on only one
/// side are reported but never fail the guard — sweeps may legitimately
/// grow between PRs. Returns a human-readable comparison table on
/// success.
///
/// The comparison is statistics-aware where the documents allow:
///
/// * **means over best-of** — when both sides carry `/2` statistics the
///   guard compares `updates_per_sec_mean`, falling back to the
///   best-of numbers against `/1` baselines;
/// * **noise-widened tolerance** — the effective tolerance per row is
///   `tolerance + 2·√(cv_candidate² + cv_baseline²)`: two runs whose
///   difference is within two standard deviations of their combined
///   run-to-run noise cannot fail the gate;
/// * **anchor ratios** (`--ab` runs) — when both sides recorded an
///   `anchor_ratio`, the gate compares those ratios instead of raw
///   throughput, so a machine-wide performance-regime shift between
///   baseline time and candidate time cancels out. A change that moves
///   every row alike, the anchor included, cancels out too; so the
///   anchor row (cpu / f64 / aos / 1 thread) is also held to its raw
///   mean rate.
pub fn guard_against_baseline(
    report: &BenchReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<String, String> {
    let doc =
        validate_json(baseline_json).map_err(|e| format!("baseline document invalid: {e}"))?;
    let preset = doc.get("preset").and_then(Json::str).unwrap_or_default();
    if preset != report.preset {
        return Err(format!(
            "baseline measures preset {preset:?}, this run preset {:?}; \
             guard against a baseline of the same preset",
            report.preset
        ));
    }
    let baseline: Vec<BaselineRow> = doc
        .get("results")
        .and_then(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|rec| {
            let text = |key| Some(rec.get(key)?.str()?.to_string());
            let num = |key| rec.get(key)?.f64();
            Some(BaselineRow {
                engine: text("engine")?,
                precision: text("precision")?,
                layout: text("layout")?,
                threads: usize::try_from(rec.get("threads")?.u64()?).ok()?,
                iters: u32::try_from(rec.get("iters")?.u64()?).ok()?,
                term_block: usize::try_from(rec.get("term_block")?.u64()?).ok()?,
                ups_best: num("updates_per_sec")?,
                ups_mean: num("updates_per_sec_mean"),
                cv: num("cv"),
                anchor_ratio: num("anchor_ratio"),
            })
        })
        .collect();
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for r in &report.results {
        let key = format!("{}/{}/{}/{}t", r.engine, r.precision, r.layout, r.threads);
        let Some(base) = baseline.iter().find(|b| {
            b.engine == r.engine
                && b.precision == r.precision
                && b.layout == r.layout
                && b.threads == r.threads
                && b.iters == r.iters
                && b.term_block == r.term_block
        }) else {
            lines.push(format!("  {key:<20} no baseline row (skipped)"));
            continue;
        };
        // Means when both sides have them, else the v1 best-of numbers.
        let (cand_val, base_val) = match base.ups_mean {
            Some(bm) if r.updates_per_sec_mean > 0.0 => (r.updates_per_sec_mean, bm),
            _ => (r.updates_per_sec, base.ups_best),
        };
        // Widen the gate by the combined run-to-run noise of both sides.
        let noise = (r.cv.powi(2) + base.cv.unwrap_or(0.0).powi(2)).sqrt();
        let tol_eff = tolerance + 2.0 * noise;
        let raw = cand_val / base_val.max(1e-12);
        let checks = match (r.anchor_ratio, base.anchor_ratio) {
            (Some(c), Some(b)) if b > 0.0 && is_anchor_row(r) => {
                vec![(c / b, "anchor-paired"), (raw, "raw anchor")]
            }
            (Some(c), Some(b)) if b > 0.0 => vec![(c / b, "anchor-paired")],
            _ => vec![(raw, "raw")],
        };
        for (ratio, mode) in checks {
            lines.push(format!(
                "  {key:<20} {:>7.2}M vs {:>7.2}M updates/s  ({:+.1}% {mode}, tol {:.1}%)",
                cand_val / 1e6,
                base_val / 1e6,
                (ratio - 1.0) * 100.0,
                tol_eff * 100.0
            ));
            if ratio < 1.0 - tol_eff {
                regressions.push(format!(
                    "{key}: {:.2}M vs baseline {:.2}M updates/s \
                     ({:.1}% below via {mode} comparison, tolerance {:.1}%)",
                    cand_val / 1e6,
                    base_val / 1e6,
                    (1.0 - ratio) * 100.0,
                    tol_eff * 100.0
                ));
            }
        }
    }
    if !regressions.is_empty() {
        return Err(format!(
            "performance regression:\n{}",
            regressions.join("\n")
        ));
    }
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> BenchOptions {
        BenchOptions {
            quick: true,
            threads: 1,
            repeat: 1,
            ..BenchOptions::default()
        }
    }

    #[test]
    fn quick_bench_produces_valid_json() {
        let report = run_bench(&quick_opts()).unwrap();
        assert_eq!(report.results.len(), 2, "quick mode: two headline rows");
        assert!(report.results.iter().all(|r| r.updates_per_sec > 0.0));
        assert!(report.best().is_some());
        let json = to_json(&report);
        validate_json(&json).unwrap();
        assert!(json.contains("\"preset\": \"quick\""));
    }

    #[test]
    fn baseline_adds_speedups() {
        let mut opts = quick_opts();
        opts.baseline_updates_per_sec = Some(1.0);
        let report = run_bench(&opts).unwrap();
        let json = to_json(&report);
        validate_json(&json).unwrap();
        assert!(json.contains("\"baseline_updates_per_sec\": 1.000000"));
        assert!(!json.contains("\"speedup_vs_baseline\": null"));
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let opts = BenchOptions {
            preset: "galactic".into(),
            ..BenchOptions::default()
        };
        assert!(run_bench(&opts).is_err());
        assert!(bench_spec("galactic", false).is_err());
        assert!(bench_spec("medium", false).is_ok());
    }

    #[test]
    fn guard_passes_against_its_own_run_and_catches_regressions() {
        let report = run_bench(&quick_opts()).unwrap();
        let json = to_json(&report);
        // A run guarded against its own document is exactly at ratio 1.0.
        let summary = guard_against_baseline(&report, &json, GUARD_DEFAULT_TOLERANCE).unwrap();
        assert!(summary.contains("cpu/f64/aos/1t"), "{summary}");
        assert!(!summary.contains("no baseline row"), "{summary}");
        // Inflate the baseline far past tolerance: the same run now reads
        // as a massive regression.
        let mut inflated = report.clone();
        for r in &mut inflated.results {
            r.updates_per_sec *= 10.0;
            r.updates_per_sec_mean *= 10.0;
        }
        let err = guard_against_baseline(&report, &to_json(&inflated), GUARD_DEFAULT_TOLERANCE)
            .unwrap_err();
        assert!(err.contains("regression"), "{err}");
        // Rows without a baseline counterpart are skipped, not failed.
        let mut renamed = report.clone();
        for r in &mut renamed.results {
            r.engine = "exotic".into();
        }
        let summary = guard_against_baseline(&renamed, &json, GUARD_DEFAULT_TOLERANCE).unwrap();
        assert!(summary.contains("no baseline row"), "{summary}");
        // A broken baseline document is an error, not a silent pass.
        assert!(guard_against_baseline(&report, "{}", GUARD_DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_json("{}").is_err(), "no schema");
        let good = to_json(&run_bench(&quick_opts()).unwrap());
        assert!(validate_json(&good).is_ok());
        let truncated = &good[..good.len() - 4];
        assert!(validate_json(truncated).is_err(), "unbalanced");
        let zeroed = good.replace("\"updates_per_sec\": ", "\"updates_per_sec\": -");
        assert!(validate_json(&zeroed).is_err(), "non-positive rate");
        let missing = good.replace("\"wall_s\":", "\"wall\":");
        assert!(validate_json(&missing).is_err(), "missing key");
        // A /3 document must carry the statistics keys.
        let no_stats = good.replace("\"wall_s_mean\":", "\"wall_mean\":");
        assert!(validate_json(&no_stats).is_err(), "missing /3 key");
    }

    #[test]
    fn v2_baselines_still_need_their_kernel_keys() {
        let committed = include_str!("../../../BENCH_8.json");
        assert!(validate_json(committed).is_ok());
        let no_simd = committed.replace("\"simd\":", "\"lanes\":");
        assert!(validate_json(&no_simd).is_err(), "a /2 row lacks simd");
        let good = to_json(&run_bench(&quick_opts()).unwrap());
        assert!(!good.contains("\"simd\""), "/3 rows carry no kernel keys");
    }

    /// A hand-written `pgl-bench/1` document, as committed by older PRs.
    fn v1_doc(ups: f64) -> String {
        format!(
            "{{\n  \"schema\": \"pgl-bench/1\",\n  \"preset\": \"quick\",\n  \
             \"results\": [\n    {{\"engine\": \"cpu\", \"precision\": \"f64\", \
             \"layout\": \"aos\", \"threads\": 1, \"term_block\": 256, \"batch\": 0, \
             \"iters\": 3, \"terms_applied\": 100, \"wall_s\": 0.01, \
             \"updates_per_sec\": {ups:.1}}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn v1_baselines_are_still_accepted() {
        assert!(validate_json(&v1_doc(1e6)).is_ok());
        let report = run_bench(&quick_opts()).unwrap();
        // A tiny v1 baseline: the matching row passes via the raw
        // (best-of) fallback; the rest are skipped.
        let summary = guard_against_baseline(&report, &v1_doc(1.0), 0.02).unwrap();
        assert!(summary.contains("raw"), "{summary}");
        assert!(summary.contains("no baseline row"), "{summary}");
        // An absurdly fast v1 baseline still fails the gate.
        let err = guard_against_baseline(&report, &v1_doc(1e15), 0.02).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn threads_sweep_emits_rows_per_thread_count() {
        let mut opts = quick_opts();
        opts.threads_sweep = vec![1, 2];
        let report = run_bench(&opts).unwrap();
        let counts: Vec<usize> = report.results.iter().map(|r| r.threads).collect();
        assert_eq!(counts, vec![1, 1, 2, 2], "two headline rows per count");
        assert!(report.host_cores >= 1);
        let json = to_json(&report);
        validate_json(&json).unwrap();
        assert!(json.contains("\"host\": {\"cores\":"));
    }

    #[test]
    fn record_statistics_are_consistent() {
        let mut opts = quick_opts();
        opts.repeat = 3;
        let report = run_bench(&opts).unwrap();
        for r in &report.results {
            assert!(r.wall_s <= r.wall_s_mean, "best-of cannot exceed the mean");
            assert!(r.wall_s_stddev >= 0.0);
            assert!((r.cv - r.wall_s_stddev / r.wall_s_mean).abs() < 1e-12);
            assert!(r.updates_per_sec_mean <= r.updates_per_sec * (1.0 + 1e-9));
            assert!(r.anchor_ratio.is_none(), "no anchor outside --ab");
        }
    }

    #[test]
    fn ab_mode_records_anchor_ratios_and_guard_pairs_them() {
        let mut opts = quick_opts();
        opts.ab = true;
        let report = run_bench(&opts).unwrap();
        assert!(report.ab);
        for r in &report.results {
            let ratio = r.anchor_ratio.expect("--ab records a ratio");
            assert!(ratio > 0.0);
        }
        let json = to_json(&report);
        validate_json(&json).unwrap();
        // Against its own document the paired ratio is exactly 1.0.
        let summary = guard_against_baseline(&report, &json, GUARD_DEFAULT_TOLERANCE).unwrap();
        assert!(summary.contains("anchor-paired"), "{summary}");
        // A row whose raw throughput drifts 3x while its paired ratio
        // holds passes: only the anchor row is held to its raw rate.
        let mut drifted = report.clone();
        for r in drifted.results.iter_mut().filter(|r| !is_anchor_row(r)) {
            r.updates_per_sec /= 3.0;
            r.updates_per_sec_mean /= 3.0;
            // anchor_ratio unchanged: the anchor runs interleaved with
            // this row drifted alike.
        }
        let summary = guard_against_baseline(&drifted, &json, GUARD_DEFAULT_TOLERANCE).unwrap();
        assert!(summary.contains("anchor-paired"), "{summary}");
        assert!(summary.contains("raw anchor"), "{summary}");
        // A genuine relative regression (ratio drop) still fails even
        // though raw throughput looks fine.
        let mut slower = report.clone();
        for r in &mut slower.results {
            r.anchor_ratio = r.anchor_ratio.map(|x| x * 0.5);
        }
        let err = guard_against_baseline(&slower, &json, GUARD_DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("anchor-paired"), "{err}");
    }

    #[test]
    fn a_slowdown_of_every_row_alike_fails_on_the_anchor_rows_raw_rate() {
        let mut opts = quick_opts();
        opts.ab = true;
        let mut baseline = run_bench(&opts).unwrap();
        for r in &mut baseline.results {
            r.cv = 0.0;
        }
        // 30% slower on every row, the anchor included: every
        // row:anchor ratio is unchanged.
        let mut slower = baseline.clone();
        for r in &mut slower.results {
            r.updates_per_sec *= 0.7;
            r.updates_per_sec_mean *= 0.7;
        }
        let err = guard_against_baseline(&slower, &to_json(&baseline), GUARD_DEFAULT_TOLERANCE)
            .unwrap_err();
        assert!(err.contains("cpu/f64/aos/1t"), "{err}");
        assert!(err.contains("raw anchor"), "{err}");
        assert!(!err.contains("anchor-paired"), "{err}");
    }

    #[test]
    fn the_guard_keys_on_preset_iterations_and_term_block() {
        let report = run_bench(&quick_opts()).unwrap();
        // A baseline of another preset is refused outright, naming both.
        let err = guard_against_baseline(
            &report,
            include_str!("../../../BENCH_8.json"),
            GUARD_DEFAULT_TOLERANCE,
        )
        .unwrap_err();
        assert!(
            err.contains("\"medium\"") && err.contains("\"quick\""),
            "{err}"
        );
        // Rows of another schedule or term block are not comparable.
        for change in [
            |r: &mut BenchRecord| r.iters += 1,
            |r: &mut BenchRecord| r.term_block *= 2,
        ] {
            let mut other = report.clone();
            other.results.iter_mut().for_each(change);
            let summary =
                guard_against_baseline(&report, &to_json(&other), GUARD_DEFAULT_TOLERANCE).unwrap();
            assert!(!summary.contains("raw"), "{summary}");
            assert!(summary.contains("no baseline row"), "{summary}");
        }
    }

    #[test]
    fn noisy_runs_widen_the_gate() {
        let report = run_bench(&quick_opts()).unwrap();
        // Baseline 8% faster than the candidate with zero recorded
        // noise: a clear regression at a 2% gate.
        let mut faster = report.clone();
        for r in &mut faster.results {
            r.updates_per_sec_mean *= 1.08;
            r.updates_per_sec *= 1.08;
            r.cv = 0.0;
        }
        let mut quiet = report.clone();
        for r in &mut quiet.results {
            r.cv = 0.0;
        }
        assert!(guard_against_baseline(&quiet, &to_json(&faster), 0.02).is_err());
        // The same gap with 5% run-to-run noise on the baseline side is
        // within 2σ of the combined noise: the gate must not fail.
        let mut noisy = faster.clone();
        for r in &mut noisy.results {
            r.cv = 0.05;
        }
        let summary = guard_against_baseline(&quiet, &to_json(&noisy), 0.02).unwrap();
        assert!(summary.contains("tol"), "{summary}");
    }
}
