//! The `pgl` subcommand implementations.

use crate::args::ArgParser;
use draw::{rasterize, to_svg, DrawOptions};
use gpu_sim::{GpuEngine, GpuSpec, KernelConfig};
use layout_core::batch::BatchEngine;
use layout_core::coords::Precision;
use layout_core::cpu::CpuEngine;
use layout_core::LayoutConfig;
use pangraph::lean::LeanGraph;
use pangraph::stats::GraphStats;
use pangraph::{parse_gfa_reader, write_gfa, VariationGraph};
use pgio::{layout_to_tsv, load_lay, save_lay, Json};
use pgl_service::cluster::client;
use pgl_service::http::percent_encode;
use pgl_service::{
    run_batch, BatchOptions, EngineRegistry, HttpConfig, HttpServer, JobState, LayoutService,
    Priority, ServiceConfig,
};
use pgmetrics::{path_stress, sampled_path_stress, SamplingConfig};
use std::path::Path;
use std::sync::Arc;
use workloads::hprc_catalog;

type CmdResult = Result<(), String>;

/// Per-subcommand usage text for `pgl <cmd> --help`.
pub fn usage(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "gen" => {
            "pgl gen --preset <hla|mhc|chr1..chr22|chrX|chrY> [--scale F] [--seed N] -o <out.gfa>\n\
             Synthesize an HPRC-like pangenome graph."
        }
        "stats" => "pgl stats <in.gfa>\nPrint Table I-style graph properties.",
        "sort" => {
            "pgl sort <in.gfa> -o <out.gfa> [--iters N] [--seed N]\n\
             1D path-SGD node sort (odgi `sort -p Y` analog); run before `layout`\n\
             on graphs whose node numbering does not follow the backbone."
        }
        "layout" => {
            "pgl layout <in.gfa> -o <out.lay> [--gpu | --gpu-a100 | --batch <size>]\n\
             \u{20}          [--threads N] [--iters N] [--seed N] [--f32]\n\
             Run path-guided SGD layout with the chosen engine.\n\
             --f32 stores and computes coordinates in single precision (the paper's\n\
             GPU coordinate format; half the memory traffic, stress parity within\n\
             5%)."
        }
        "stress" => {
            "pgl stress <in.gfa> <in.lay> [--exact] [--samples-per-node N] [--seed N]\n\
             Score a layout with sampled (and optionally exact) path stress."
        }
        "draw" => {
            "pgl draw <in.gfa> <in.lay> -o <out.svg|out.ppm> [--width N] [--links] [--ppm]\n\
             Render a layout."
        }
        "tsv" => "pgl tsv <in.lay> -o <out.tsv>\nExport layout coordinates as TSV.",
        "serve" => {
            "pgl serve [--addr HOST] [--port N] [--workers N] [--cache N] [--graphs N]\n\
             \u{20}         [--cache-dir DIR] [--cache-max-bytes N] [--cache-ttl SECS]\n\
             \u{20}         [--preload-graphs DIR] [--graph-quota N]\n\
             \u{20}         [--max-conns N] [--keep-alive SECS] [--rate-limit REQ_PER_SEC]\n\
             \u{20}         [--join COORD_ADDR] [--advertise HOST:PORT] [--heartbeat-ms N]\n\
             \u{20}         [--log-level debug|info|warn|error|off] [--log-json]\n\
             Serve layouts over HTTP. The API is versioned under /v1 (any other\n\
             path answers 404). Upload-once workflow: POST\n\
             /v1/graphs (GFA body) parses the graph once and returns {graph_id,...};\n\
             then POST /v1/jobs?graph=<id> lays it out by reference (engine=cpu|\n\
             batch, iters, threads, seed, batch, precision=f32|f64) with no\n\
             re-upload or re-parse — plus scheduling params priority=interactive|normal|bulk,\n\
             client=<key> (fair-share identity, default: peer IP), ttl_ms=<n> (fail\n\
             if still queued after n ms). Jobs are scheduled by priority band with\n\
             deficit round-robin across clients inside each band, so one client's\n\
             bulk flood cannot starve another's interactive job.\n\
             GET /v1/jobs/<id> polls status; GET /v1/jobs/<id>/events streams the\n\
             job's event log (chunked NDJSON: state transitions + progress) until\n\
             the job is terminal — no polling. GET /v1/graphs lists stored graphs\n\
             with an ETag (If-None-Match => 304), DELETE /v1/graphs/<id> drops one.\n\
             POST /v1/jobs/<id>/cancel, GET /v1/result/<id>[?format=lay],\n\
             GET /v1/stats, /v1/metrics, /v1/engines, /v1/healthz as before.\n\
             --preload-graphs DIR interns every .gfa/.lean in DIR at startup so a\n\
             fresh server answers by-reference requests immediately (counted in\n\
             /v1/stats as graphs.preloaded). Identical requests are answered from the\n\
             content-addressed layout cache (capacity --cache, default 64); --graphs\n\
             bounds resident parsed graphs (default 16, 0 = unbounded); --cache-dir\n\
             adds disk tiers for both that survive restarts, each capped at\n\
             --cache-max-bytes (oldest spills evicted first; 0 = unbounded) and\n\
             aged out by --cache-ttl seconds (0 = keep forever; expiries are\n\
             counted in /v1/stats as disk_ttl_evictions). --graph-quota N caps\n\
             concurrently running jobs per graph (0 = unlimited), so one hot\n\
             graph cannot monopolize the worker pool.\n\
             Connections are bounded: --max-conns handler threads (default 64) plus\n\
             an equal-sized queue; beyond that the server sheds load with 503 +\n\
             Retry-After. --rate-limit N throttles each client IP to N req/s (429\n\
             beyond a one-second burst; 0 = off). HTTP/1.1 keep-alive is on by\n\
             default (idle timeout --keep-alive seconds, default 5; 0 closes after\n\
             every response).\n\
             Observability: structured logs go to stderr (--log-level, default\n\
             info; --log-json emits one JSON object per line for collectors).\n\
             GET /v1/jobs/<id>/trace returns the job's phase timeline (queue wait,\n\
             parse, layout, spill — offsets + durations); /v1/metrics serves\n\
             Prometheus text with sliding-window latency/phase histograms, queue\n\
             and cache gauges, and live engine updates/s.\n\
             --join COORD_ADDR enrolls this server as a worker in a pgl\n\
             coordinator fleet: it registers, heartbeats on the coordinator's\n\
             interval (--heartbeat-ms is only the initial cadence), and reports\n\
             role/coordinator/last-heartbeat age in /healthz. --advertise is the\n\
             address the coordinator forwards jobs to (default: 127.0.0.1 with\n\
             the bound port — set it when workers are on other hosts)."
        }
        "coordinator" => {
            "pgl coordinator [--addr HOST] [--port N] [--heartbeat-ms N] [--max-conns N]\n\
             \u{20}               [--graph-quota N] [--journal-dir DIR] [--vault-max-bytes N]\n\
             \u{20}               [--log-level debug|info|warn|error|off] [--log-json]\n\
             Run the cluster coordinator: speaks the same /v1 surface as pgl serve,\n\
             through the same HTTP server (--max-conns handler threads; every\n\
             response closes its connection), and routes each job across a\n\
             fleet of pgl serve --join workers.\n\
             Placement is rendezvous (consistent) hashing on the job's graph\n\
             content hash, so every job for a graph lands on the worker whose\n\
             caches already hold it, and membership changes remap only ~1/N of\n\
             graphs. POST /v1/graphs interns GFA at the coordinator; job bodies\n\
             are forwarded by reference and the graph is pushed to the owning\n\
             worker on its first miss. Inline-GFA submissions are interned\n\
             transparently. Workers heartbeat every --heartbeat-ms (default\n\
             2000); after 3 missed intervals a worker is declared dead, its\n\
             in-flight jobs are requeued and re-routed to the next worker in the\n\
             ring order (at-least-once; a job is failed after 5 attempts).\n\
             Queueing is the same fair scheduler as a single server — priority\n\
             bands, deficit round-robin across clients, optional --graph-quota\n\
             cap on concurrently forwarded jobs per graph — now fleet-wide.\n\
             GET /v1/jobs/<id>, /events, /trace, /result/<id> proxy to the\n\
             owning worker with ids rewritten; an event stream held across a\n\
             worker death re-attaches to the replacement, resuming from the\n\
             last relayed sequence for the same run and deduplicating replays.\n\
             GET /v1/stats aggregates per-worker queue depth, cache hit\n\
             ratios, and pgl_engine_* telemetry into a fleet rollup;\n\
             /v1/metrics exposes pgl_coord_* counters; /v1/healthz reports\n\
             role=coordinator plus alive/total worker counts.\n\
             Durability: --journal-dir DIR arms a write-ahead job journal —\n\
             every accepted job is fsync'd before its 202, uploaded graphs\n\
             spill to DIR/vault (LRU-capped by --vault-max-bytes; 0 = no cap),\n\
             and a restart on the same DIR replays the journal: queued jobs\n\
             re-enter the scheduler, in-flight jobs are adopted or requeued by\n\
             probing their recorded worker (at-least-once), and finished jobs\n\
             keep answering GET /v1/jobs/<id>. Each boot bumps a journal epoch\n\
             advertised in heartbeat replies, so workers log coordinator\n\
             restarts. PGL_FAULT_PLAN=\"seed=S,refuse=N,drop=N,delay=N:MS,\n\
             err500=N\" arms deterministic fault injection on outbound cluster\n\
             requests (testing only); retries use jittered exponential backoff."
        }
        "bench" => {
            "pgl bench [-o <out.json>] [--preset small|medium|large] [--threads N]\n\
             \u{20}         [--threads-sweep 1,2,4] [--iters N] [--repeat N] [--quick] [--ab]\n\
             \u{20}         [--baseline UPDATES_PER_SEC] [--validate <bench.json>]\n\
             \u{20}         [--guard <bench.json>] [--tolerance F]\n\
             Reproducible SGD-throughput harness over the bundled workload presets.\n\
             Sweeps the hot-path axes (engine x precision x memory layout), reports\n\
             applied updates/sec per configuration, and writes a pgl-bench/3 JSON\n\
             document (committed as BENCH_<n>.json per perf PR, so the repository\n\
             records its own performance trajectory). --threads-sweep repeats the\n\
             headline rows at each listed thread count (the multi-core scaling\n\
             trajectory; host core count is recorded in the document).\n\
             --quick is the CI smoke mode: a tiny graph, 3 iterations, only the\n\
             headline rows. --repeat N runs each configuration N times; records\n\
             carry both the best repetition and mean/stddev/cv. --ab interleaves\n\
             every row's repeats with a fixed anchor workload (cpu f64 aos 1t)\n\
             and records the row:anchor ratio, so machine-wide performance\n\
             drift cancels when gating. --baseline takes a previous run's\n\
             updates/sec and adds speedup_vs_baseline to every record. --validate\n\
             parses an existing document, checks its schema and rows, and exits\n\
             (accepts pgl-bench/1, /2 and /3). --guard <bench.json> compares this run's\n\
             records against a committed baseline of the same preset (another\n\
             preset is an error) per (engine, precision, layout, threads, iters,\n\
             term_block) row and fails on regression beyond --tolerance (default\n\
             0.02 = 2%) widened by 2 sigma of the two runs' combined cv; with --ab\n\
             and an --ab baseline the gate compares anchor ratios instead of raw\n\
             throughput, and holds the anchor row to its raw rate as well."
        }
        "batch" => {
            "pgl batch <dir> -o <outdir> [--engine cpu|batch[,more...]]\n\
             \u{20}         [--workers N] [--iters N] [--threads N] [--seed N] [--tsv]\n\
             \u{20}         [--timeout SECS] [--resume] [--priority P] [--client KEY]\n\
             Lay out every .gfa in <dir> concurrently through the service worker pool,\n\
             writing <outdir>/<stem>.lay (and .tsv with --tsv), then print a summary.\n\
             --engine accepts a comma-separated list; each input is parsed exactly\n\
             once and fanned across all engines (outputs <stem>.<engine>.lay).\n\
             --resume skips inputs whose .lay in <outdir> is already up to date.\n\
             --priority interactive|normal|bulk and --client KEY set the scheduling\n\
             identity of the submitted jobs (matters when sharing a service)."
        }
        "submit" => {
            "pgl submit <in.gfa> [--addr HOST] [--port N] [--engine E] [--iters N]\n\
             \u{20}          [--threads N] [--seed N] [--batch N] [--f32]\n\
             \u{20}          [--priority interactive|normal|bulk] [--client KEY]\n\
             \u{20}          [--ttl-ms N] [--watch]\n\
             Submit one layout job to a running `pgl serve` (POST /v1/jobs) and print\n\
             the ticket. --priority/--client/--ttl-ms set the typed JobSpec's\n\
             scheduling fields; --watch then streams the job's event log (like\n\
             `pgl watch`) until it reaches a terminal state."
        }
        "watch" => {
            "pgl watch <job-id> [--addr HOST] [--port N] [--from SEQ]\n\
             Stream a job's event log from a running `pgl serve`\n\
             (GET /v1/jobs/<id>/events): one line per state transition or progress\n\
             update, no polling; exits when the job reaches a terminal state.\n\
             --from resumes mid-log after a dropped connection."
        }
        _ => return None,
    })
}

fn load_graph(path: &str) -> Result<VariationGraph, String> {
    // Stream the file through the parser: ingestion never holds both
    // the raw GFA text and the parsed graph at peak.
    let file = std::fs::File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_gfa_reader(std::io::BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

/// `pgl gen` — synthesize a pangenome graph.
pub fn gen(p: ArgParser) -> CmdResult {
    let preset = p.value("--preset").unwrap_or("hla").to_lowercase();
    let scale: f64 = p.parse_or("--scale", 0.001)?;
    let seed: u64 = p.parse_or("--seed", 0)?;
    let out = p.out()?;

    let mut spec = if preset == "hla" || preset == "hla-drb1" {
        workloads::hla_drb1()
    } else if preset == "mhc" {
        workloads::mhc_like(scale.clamp(1e-4, 1.0))
    } else {
        let entry = hprc_catalog()
            .into_iter()
            .find(|c| c.name.eq_ignore_ascii_case(&preset))
            .ok_or_else(|| format!("unknown preset {preset:?} (hla, mhc, chr1..chrY)"))?;
        entry.spec(scale.clamp(1e-6, 1.0))
    };
    if seed != 0 {
        spec.seed = seed;
    }
    let graph = workloads::generate(&spec);
    std::fs::write(out, write_gfa(&graph)).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!(
        "generated {}: {} nodes, {} edges, {} paths → {out}",
        spec.name,
        graph.node_count(),
        graph.edge_count(),
        graph.path_count()
    );
    Ok(())
}

/// `pgl stats` — Table I-style properties.
pub fn stats(p: ArgParser) -> CmdResult {
    let g = load_graph(p.pos(0, "in.gfa")?)?;
    let s = GraphStats::measure(&g);
    println!("{s}");
    println!(
        "total path steps: {}   total path length: {} bp   longest path: {} bp",
        s.total_path_steps,
        s.total_path_nuc,
        LeanGraph::from_graph(&g).max_path_nuc_len()
    );
    Ok(())
}

/// `pgl sort` — 1D path-SGD node sorting (odgi `sort -p Y` analog); run
/// before `layout` on graphs whose node numbering does not follow the
/// backbone.
pub fn sort(p: ArgParser) -> CmdResult {
    let g = load_graph(p.pos(0, "in.gfa")?)?;
    let out = p.out()?;
    let lean = LeanGraph::from_graph(&g);
    let lcfg = LayoutConfig {
        iter_max: p.parse_or("--iters", 20u32)?,
        seed: p.parse_or("--seed", 0x1D50u64)?,
        ..LayoutConfig::default()
    };
    let before = layout_core::sort1d::order_quality(&lean);
    let order = layout_core::sort1d::path_sgd_order(&lean, &lcfg);
    let sorted = g.permute_nodes(&order);
    let after = layout_core::sort1d::order_quality(&LeanGraph::from_graph(&sorted));
    std::fs::write(out, write_gfa(&sorted)).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("order quality {before:.3} → {after:.3}; wrote {out}");
    Ok(())
}

/// `pgl layout` — run PG-SGD with the chosen engine.
pub fn layout(p: ArgParser) -> CmdResult {
    let g = load_graph(p.pos(0, "in.gfa")?)?;
    let out = p.out()?;
    let lean = LeanGraph::from_graph(&g);

    let lcfg = LayoutConfig {
        iter_max: p.parse_or("--iters", 30u32)?,
        threads: p.parse_or("--threads", 0usize)?,
        seed: p.parse_or("--seed", LayoutConfig::default().seed)?,
        precision: if p.has("--f32") {
            Precision::F32
        } else {
            Precision::F64
        },
        ..LayoutConfig::default()
    };

    let (layout, label) = if p.has("--gpu") || p.has("--gpu-a100") {
        let spec = if p.has("--gpu-a100") {
            GpuSpec::a100()
        } else {
            GpuSpec::a6000()
        };
        let name = spec.name;
        // Cache scale: assume the graph is a scaled chromosome; ratio of
        // its node count to Chr.1's full size is the best default.
        let mem_scale = (g.node_count() as f64 / 1.1e7).clamp(1e-6, 1.0);
        let engine = GpuEngine::new(spec, lcfg, KernelConfig::optimized(mem_scale));
        let (l, r) = engine.run(&lean);
        eprintln!(
            "simulated {name}: modeled {:.3}s on device ({} launches, {:.1} sectors/req), \
             {:.2?} host simulation",
            r.modeled_s(),
            r.launches,
            r.mem.sectors_per_request(),
            r.sim_wall
        );
        (l, "gpu-sim")
    } else if let Some(b) = p.value("--batch") {
        let batch: usize = b.parse().map_err(|_| format!("bad --batch {b:?}"))?;
        let engine = BatchEngine::new(lcfg, batch);
        let (l, r) = engine.run(&lean);
        eprintln!(
            "batch engine: {:.2?} host, {} kernels, modeled API share {:.1}%",
            r.wall,
            r.kernels_launched,
            r.api_time_pct()
        );
        (l, "batch")
    } else {
        let engine = CpuEngine::new(lcfg);
        let (l, r) = engine.run(&lean);
        eprintln!(
            "cpu engine: {:.2?} on {} threads ({:.1}M updates/s)",
            r.wall,
            r.threads,
            r.updates_per_sec() / 1e6
        );
        (l, "cpu")
    };

    save_lay(&layout, Path::new(out)).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("[{label}] wrote {out}");
    Ok(())
}

/// `pgl stress` — score a layout.
pub fn stress(p: ArgParser) -> CmdResult {
    let g = load_graph(p.pos(0, "in.gfa")?)?;
    let lay = load_lay(Path::new(p.pos(1, "in.lay")?)).map_err(|e| e.to_string())?;
    let lean = LeanGraph::from_graph(&g);
    if lay.node_count() != lean.node_count() {
        return Err(format!(
            "layout has {} nodes but graph has {}",
            lay.node_count(),
            lean.node_count()
        ));
    }
    let cfg = SamplingConfig {
        samples_per_node: p.parse_or("--samples-per-node", 100u32)?,
        seed: p.parse_or("--seed", 0x5EED_5EEDu64)?,
    };
    let s = sampled_path_stress(&lay, &lean, cfg);
    println!(
        "sampled path stress: {:.6}  CI95 [{:.6}, {:.6}]  (n = {})",
        s.mean, s.ci_lo, s.ci_hi, s.n
    );
    if p.has("--exact") {
        let e = path_stress(&lay, &lean);
        println!(
            "exact path stress:   {:.6}  ({} node pairs)",
            e.stress, e.pairs
        );
    }
    Ok(())
}

/// `pgl draw` — render a layout to SVG or PPM.
pub fn draw_cmd(p: ArgParser) -> CmdResult {
    let g = load_graph(p.pos(0, "in.gfa")?)?;
    let lay = load_lay(Path::new(p.pos(1, "in.lay")?)).map_err(|e| e.to_string())?;
    let lean = LeanGraph::from_graph(&g);
    let out = p.out()?;
    let width: u32 = p.parse_or("--width", 1200u32)?;
    if p.has("--ppm") || out.ends_with(".ppm") {
        rasterize(&lay, &lean, width)
            .write_ppm(Path::new(out))
            .map_err(|e| format!("write {out}: {e}"))?;
    } else {
        let opts = DrawOptions {
            width,
            path_links: p.has("--links"),
            ..DrawOptions::default()
        };
        std::fs::write(out, to_svg(&lay, &lean, &opts)).map_err(|e| format!("write {out}: {e}"))?;
    }
    eprintln!("wrote {out}");
    Ok(())
}

/// `pgl serve` — run the layout service behind its HTTP front end.
pub fn serve(p: ArgParser) -> CmdResult {
    let level = match p.value("--log-level") {
        None => pgl_service::LogLevel::Info,
        Some(v) => pgl_service::LogLevel::parse_name(v)
            .ok_or_else(|| format!("bad --log-level {v:?} (debug, info, warn, error, off)"))?,
    };
    pgl_service::obs::init(level, p.has("--log-json"));
    let addr = format!(
        "{}:{}",
        p.value("--addr").unwrap_or("127.0.0.1"),
        p.parse_or("--port", 7878u16)?
    );
    let cache_ttl_secs = p.parse_or("--cache-ttl", 0u64)?;
    let cfg = ServiceConfig {
        workers: p.parse_or("--workers", 0usize)?,
        cache_entries: p.parse_or("--cache", 64usize)?,
        graph_entries: p.parse_or("--graphs", 16usize)?,
        cache_dir: p.value("--cache-dir").map(std::path::PathBuf::from),
        cache_max_bytes: p.parse_or("--cache-max-bytes", 0u64)?,
        cache_ttl: (cache_ttl_secs > 0).then(|| std::time::Duration::from_secs(cache_ttl_secs)),
        graph_quota: p.parse_or("--graph-quota", 0usize)?,
    };
    let http_defaults = HttpConfig::default();
    let http_cfg = HttpConfig {
        max_conns: p.parse_or("--max-conns", http_defaults.max_conns)?,
        keep_alive: std::time::Duration::from_secs(
            p.parse_or("--keep-alive", http_defaults.keep_alive.as_secs())?,
        ),
        rate_limit: p.parse_or("--rate-limit", 0.0f64)?,
    };
    let workers = cfg.resolved_workers();
    let cache_note = cfg
        .cache_dir
        .as_ref()
        .map(|d| format!(", disk cache {}", d.display()))
        .unwrap_or_default();
    let limit_note = if http_cfg.rate_limit > 0.0 {
        format!(", rate limit {}/s per client", http_cfg.rate_limit)
    } else {
        String::new()
    };
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        cfg,
    ));
    let preload_note = match p.value("--preload-graphs") {
        None => String::new(),
        Some(dir) => {
            let report = service
                .preload_dir(Path::new(dir))
                .map_err(|e| format!("preload {dir}: {e}"))?;
            format!(
                ", preloaded {} graph(s) from {dir} ({} dedup, {} failed)",
                report.loaded, report.dedup, report.failed
            )
        }
    };
    let mut server = HttpServer::bind(&addr, Arc::clone(&service))
        .map_err(|e| format!("bind {addr}: {e}"))?
        .with_config(http_cfg.clone());
    // --join: enroll as a fleet worker — a cluster role in /healthz plus
    // a background join/heartbeat loop against the coordinator. The
    // advertised address is what the coordinator forwards jobs to.
    let mut cluster_note = String::new();
    if let Some(coordinator) = p.value("--join") {
        let advertise = match p.value("--advertise") {
            Some(a) => a.to_string(),
            None => format!("127.0.0.1:{}", server.local_addr().port()),
        };
        let role = pgl_service::ClusterRole::worker(coordinator.to_string());
        server = server.with_role(Arc::clone(&role));
        cluster_note = format!(", worker in fleet at {coordinator} (advertising {advertise})");
        // Runs for the life of the process; `pgl serve` stops via signal.
        let never_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let _ = pgl_service::spawn_heartbeat(
            coordinator.to_string(),
            advertise,
            std::time::Duration::from_millis(p.parse_or("--heartbeat-ms", 2000u64)?.max(50)),
            role,
            never_stop,
        );
    }
    pgl_service::obs::info(
        "serve",
        &format!(
            "listening on http://{} ({} workers, {} conns max, keep-alive {}s{}{}{}{}, engines: {})",
            server.local_addr(),
            workers,
            http_cfg.max_conns,
            http_cfg.keep_alive.as_secs(),
            cache_note,
            limit_note,
            preload_note,
            cluster_note,
            service.engine_names().join(", ")
        ),
        &[],
    );
    server.serve();
    Ok(())
}

/// `pgl coordinator` — run the cluster coordinator tier.
pub fn coordinator(p: ArgParser) -> CmdResult {
    let level = match p.value("--log-level") {
        None => pgl_service::LogLevel::Info,
        Some(v) => pgl_service::LogLevel::parse_name(v)
            .ok_or_else(|| format!("bad --log-level {v:?} (debug, info, warn, error, off)"))?,
    };
    pgl_service::obs::init(level, p.has("--log-json"));
    let addr = format!(
        "{}:{}",
        p.value("--addr").unwrap_or("127.0.0.1"),
        p.parse_or("--port", 7979u16)?
    );
    let defaults = pgl_service::CoordinatorConfig::default();
    let cfg = pgl_service::CoordinatorConfig {
        heartbeat: std::time::Duration::from_millis(
            p.parse_or("--heartbeat-ms", defaults.heartbeat.as_millis() as u64)?
                .max(50),
        ),
        graph_quota: p.parse_or("--graph-quota", defaults.graph_quota)?,
        max_conns: p.parse_or("--max-conns", defaults.max_conns)?.max(1),
        journal_dir: p.value("--journal-dir").map(std::path::PathBuf::from),
        vault_max_bytes: p.parse_or("--vault-max-bytes", defaults.vault_max_bytes)?,
    };
    let heartbeat_ms = cfg.heartbeat.as_millis();
    let max_conns = cfg.max_conns;
    let coordinator =
        pgl_service::Coordinator::bind(&addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    pgl_service::obs::info(
        "coordinator",
        &format!(
            "coordinating on http://{} (heartbeat {heartbeat_ms}ms, {max_conns} conns max); \
             workers join with: pgl serve --join {}",
            coordinator.local_addr(),
            coordinator.local_addr()
        ),
        &[],
    );
    coordinator.serve();
    Ok(())
}

/// Parse `--priority` into the typed scheduling class.
fn parse_priority(p: &ArgParser) -> Result<Priority, String> {
    match p.value("--priority") {
        None => Ok(Priority::Normal),
        Some(v) => Priority::parse_name(v)
            .ok_or_else(|| format!("bad --priority {v:?} (interactive, normal, bulk)")),
    }
}

/// Server address from `--addr` / `--port`.
fn server_addr(p: &ArgParser) -> Result<String, String> {
    Ok(format!(
        "{}:{}",
        p.value("--addr").unwrap_or("127.0.0.1"),
        p.parse_or("--port", 7878u16)?
    ))
}

/// Read/write deadline for `pgl submit`'s upload: the server parses an
/// inline GFA before it answers `202`, far longer than a control-plane
/// round trip may take.
const SUBMIT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// `pgl submit` — send one job to a running server over the /v1 API.
pub fn submit(p: ArgParser) -> CmdResult {
    let input = p.pos(0, "in.gfa")?;
    let addr = server_addr(&p)?;
    let gfa = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let mut query = vec![format!(
        "engine={}",
        percent_encode(p.value("--engine").unwrap_or("cpu"))
    )];
    for flag in ["--iters", "--threads", "--seed", "--batch"] {
        if let Some(v) = p.value(flag) {
            query.push(format!("{}={}", &flag[2..], percent_encode(v)));
        }
    }
    if p.has("--f32") {
        query.push("precision=f32".into());
    }
    query.push(format!("priority={}", parse_priority(&p)?.as_str()));
    if let Some(client) = p.value("--client") {
        query.push(format!("client={}", percent_encode(client)));
    }
    if let Some(ttl) = p.value("--ttl-ms") {
        query.push(format!("ttl_ms={}", percent_encode(ttl)));
    }
    let path = format!("/v1/jobs?{}", query.join("&"));
    let (status, body) = client::request_with_timeout(&addr, "POST", &path, &gfa, SUBMIT_TIMEOUT)?;
    let text = String::from_utf8_lossy(&body);
    if status != 202 {
        return Err(format!("server answered {status}: {}", text.trim()));
    }
    println!("{}", text.trim());
    if p.has("--watch") {
        let job = Json::parse(&body)
            .ok()
            .and_then(|ticket| ticket.get("job")?.u64())
            .ok_or_else(|| format!("no job id in response: {text}"))?;
        return watch_job(&addr, job, 0);
    }
    Ok(())
}

/// `pgl watch` — stream a job's event log from a running server.
pub fn watch(p: ArgParser) -> CmdResult {
    let job: u64 = p
        .pos(0, "job-id")?
        .parse()
        .map_err(|_| format!("bad job id {:?}", p.pos(0, "job-id").unwrap_or("")))?;
    let addr = server_addr(&p)?;
    watch_job(&addr, job, p.parse_or("--from", 0u64)?)
}

fn watch_job(addr: &str, job: u64, from: u64) -> CmdResult {
    let path = format!("/v1/jobs/{job}/events?from={from}");
    let mut last_state = String::new();
    client::stream_lines(addr, &path, &mut |line| {
        let event = Json::parse(line).ok();
        let field = |key: &str| event.as_ref()?.get(key)?.str();
        if field("event") != Some("heartbeat") {
            println!("{line}");
        }
        if let Some(state) = field("state") {
            last_state = state.to_string();
        }
        true
    })?;
    if last_state.is_empty() {
        // The stream replayed nothing — e.g. a --from cursor past the
        // terminal event after a dropped connection. The job's status
        // still knows how it ended.
        let (status, body) = client::request(addr, "GET", &format!("/v1/jobs/{job}"), b"")?;
        let text = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(format!("server answered {status}: {}", text.trim()));
        }
        println!("{}", text.trim());
        last_state = Json::parse(&body)
            .ok()
            .and_then(|status| Some(status.get("state")?.str()?.to_string()))
            .unwrap_or_default();
    }
    match last_state.as_str() {
        "done" => Ok(()),
        "" => Err(format!("could not determine job {job}'s state")),
        other => Err(format!("job {job} ended {other}")),
    }
}

/// `pgl batch` — lay out a directory of graphs through the worker pool.
pub fn batch_cmd(p: ArgParser) -> CmdResult {
    let dir = p.pos(0, "dir")?;
    let out = p.out()?;
    let engines: Vec<String> = p
        .value("--engine")
        .unwrap_or("cpu")
        .split(',')
        .map(|e| e.trim().to_string())
        .filter(|e| !e.is_empty())
        .collect();
    let multi = engines.len() > 1;
    let opts = BatchOptions {
        engines,
        config: LayoutConfig {
            iter_max: p.parse_or("--iters", 30u32)?,
            threads: p.parse_or("--threads", 0usize)?,
            seed: p.parse_or("--seed", LayoutConfig::default().seed)?,
            precision: if p.has("--f32") {
                Precision::F32
            } else {
                Precision::F64
            },
            ..LayoutConfig::default()
        },
        batch_size: p.parse_or("--batch", 1024usize)?,
        workers: p.parse_or("--workers", 0usize)?,
        write_tsv: p.has("--tsv"),
        timeout: std::time::Duration::from_secs(p.parse_or("--timeout", 3600u64)?),
        resume: p.has("--resume"),
        priority: parse_priority(&p)?,
        client: p.value("--client").map(str::to_string),
    };
    let report = run_batch(Path::new(dir), Path::new(out), &opts)?;
    for o in &report.outcomes {
        let label = if multi {
            format!("{} [{}]", o.name, o.engine)
        } else {
            o.name.clone()
        };
        match o.state {
            JobState::Done if o.skipped => {
                eprintln!(
                    "  {label:<30} skip   (up-to-date)  → {}",
                    o.output
                        .as_ref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_default()
                );
            }
            JobState::Done => eprintln!(
                "  {label:<30} done   {:>8} nodes  {:>7} ms{}  → {}",
                o.nodes,
                o.wall_ms,
                if o.cached { "  (cached)" } else { "" },
                o.output
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default()
            ),
            _ => {
                eprintln!(
                    "  {label:<30} {}  {}",
                    o.state.as_str(),
                    o.error.as_deref().unwrap_or("")
                );
            }
        }
    }
    let failed = report.failed();
    let skipped = report.skipped();
    eprintln!(
        "pgl batch: {}/{} layouts done, {} GFA parse(s){}",
        report.outcomes.len() - failed,
        report.outcomes.len(),
        report.graph_parses,
        if skipped > 0 {
            format!(" ({skipped} skipped, up-to-date)")
        } else {
            String::new()
        }
    );
    if failed > 0 {
        return Err(format!("{failed} layout(s) failed"));
    }
    Ok(())
}

/// `pgl bench` — the SGD-throughput harness (see `crates/bench`).
pub fn bench(p: ArgParser) -> CmdResult {
    if let Some(path) = p.value("--validate") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = pgl_bench::validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let schema = doc.get("schema").and_then(Json::str).unwrap_or_default();
        eprintln!("{path}: valid {schema} document");
        return Ok(());
    }
    let threads_sweep = match p.value("--threads-sweep") {
        None => Vec::new(),
        Some(list) => {
            let counts: Result<Vec<usize>, _> =
                list.split(',').map(|s| s.trim().parse::<usize>()).collect();
            let counts =
                counts.map_err(|_| format!("bad --threads-sweep {list:?} (e.g. 1,2,4)"))?;
            if counts.is_empty() || counts.contains(&0) {
                return Err(format!(
                    "bad --threads-sweep {list:?} (counts must be >= 1)"
                ));
            }
            counts
        }
    };
    let opts = pgl_bench::BenchOptions {
        preset: p.value("--preset").unwrap_or("medium").to_string(),
        threads: p.parse_or("--threads", 1usize)?,
        threads_sweep,
        iters: p.parse_or("--iters", 15u32)?,
        repeat: p.parse_or("--repeat", 2usize)?,
        ab: p.has("--ab"),
        quick: p.has("--quick"),
        baseline_updates_per_sec: match p.value("--baseline") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("bad --baseline {v:?} (updates/sec)"))?,
            ),
        },
    };
    let report = pgl_bench::run_bench(&opts)?;
    if let Some(best) = report.best() {
        let speedup = opts
            .baseline_updates_per_sec
            .map(|b| format!(" ({:.2}x vs baseline)", best.updates_per_sec / b))
            .unwrap_or_default();
        eprintln!(
            "pgl bench: best {:.2}M updates/s — {} {} {}{}",
            best.updates_per_sec / 1e6,
            best.engine,
            best.precision,
            best.layout,
            speedup
        );
    }
    let json = pgl_bench::to_json(&report);
    match p.value("-o") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{json}"),
    }
    if let Some(baseline) = p.value("--guard") {
        let tolerance = p.parse_or("--tolerance", pgl_bench::GUARD_DEFAULT_TOLERANCE)?;
        let text =
            std::fs::read_to_string(baseline).map_err(|e| format!("read {baseline}: {e}"))?;
        let summary = pgl_bench::guard_against_baseline(&report, &text, tolerance)
            .map_err(|e| format!("{baseline}: {e}"))?;
        eprintln!(
            "pgl bench: guard vs {baseline} passed (tolerance {:.1}%)\n{summary}",
            tolerance * 100.0
        );
    }
    Ok(())
}

/// `pgl tsv` — export layout coordinates.
pub fn tsv(p: ArgParser) -> CmdResult {
    let lay = load_lay(Path::new(p.pos(0, "in.lay")?)).map_err(|e| e.to_string())?;
    let out = p.out()?;
    std::fs::write(out, layout_to_tsv(&lay)).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgParser;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pgl_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn parser(s: &str) -> ArgParser {
        ArgParser::new(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn full_pipeline_through_commands() {
        let gfa = tmp("p.gfa");
        let lay = tmp("p.lay");
        let svg = tmp("p.svg");
        let tsv_out = tmp("p.tsv");

        gen(parser(&format!("--preset chr21 --scale 0.0001 -o {gfa}"))).unwrap();
        stats(parser(&gfa)).unwrap();
        sort(parser(&format!("{gfa} --iters 4 -o {gfa}"))).unwrap();
        layout(parser(&format!("{gfa} --iters 6 --threads 2 -o {lay}"))).unwrap();
        stress(parser(&format!("{gfa} {lay} --samples-per-node 20"))).unwrap();
        draw_cmd(parser(&format!("{gfa} {lay} -o {svg}"))).unwrap();
        tsv(parser(&format!("{lay} -o {tsv_out}"))).unwrap();

        assert!(std::fs::read_to_string(&svg).unwrap().contains("<svg"));
        assert!(std::fs::read_to_string(&tsv_out)
            .unwrap()
            .starts_with("#idx"));
    }

    #[test]
    fn gpu_and_batch_engines_reachable() {
        let gfa = tmp("q.gfa");
        let lay = tmp("q.lay");
        gen(parser(&format!("--preset hla -o {gfa}"))).unwrap();
        layout(parser(&format!("{gfa} --iters 3 --gpu -o {lay}"))).unwrap();
        layout(parser(&format!("{gfa} --iters 3 --batch 512 -o {lay}"))).unwrap();
        stress(parser(&format!(
            "{gfa} {lay} --samples-per-node 10 --exact"
        )))
        .unwrap();
    }

    #[test]
    fn batch_command_lays_out_a_directory() {
        let dir = std::env::temp_dir().join(format!("pgl_cli_batch_{}", std::process::id()));
        let out_dir = dir.join("out");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let gfa = dir.join("g1.gfa");
        gen(parser(&format!("--preset hla -o {}", gfa.display()))).unwrap();
        batch_cmd(parser(&format!(
            "{} --iters 3 --threads 1 --workers 1 --tsv -o {}",
            dir.display(),
            out_dir.display()
        )))
        .unwrap();
        assert!(out_dir.join("g1.lay").exists());
        assert!(out_dir.join("g1.tsv").exists());
        // A resumed run finds everything up to date and still succeeds.
        batch_cmd(parser(&format!(
            "{} --iters 3 --threads 1 --workers 1 --resume -o {}",
            dir.display(),
            out_dir.display()
        )))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_command_has_usage_text() {
        for cmd in [
            "gen",
            "stats",
            "sort",
            "layout",
            "stress",
            "draw",
            "tsv",
            "serve",
            "coordinator",
            "batch",
            "bench",
            "submit",
            "watch",
        ] {
            let text = usage(cmd).expect(cmd);
            assert!(text.contains(cmd), "{cmd} usage names itself");
        }
        assert!(usage("no-such-command").is_none());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(load_graph("/nonexistent/x.gfa").is_err());
        assert!(gen(parser("--preset marschromosome -o /tmp/x.gfa")).is_err());
        assert!(layout(parser("/nonexistent/x.gfa -o /tmp/x.lay")).is_err());
        // Mismatched layout/graph sizes:
        let gfa = tmp("r.gfa");
        let lay = tmp("r.lay");
        gen(parser(&format!("--preset chrY --scale 0.0001 -o {gfa}"))).unwrap();
        layout(parser(&format!("{gfa} --iters 2 -o {lay}"))).unwrap();
        let gfa2 = tmp("r2.gfa");
        gen(parser(&format!(
            "--preset chrY --scale 0.0002 --seed 9 -o {gfa2}"
        )))
        .unwrap();
        assert!(stress(parser(&format!("{gfa2} {lay}"))).is_err());
    }
}
