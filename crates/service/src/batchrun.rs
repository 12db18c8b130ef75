//! Directory batch mode: lay out every `.gfa` in a directory through the
//! service's worker pool — the multi-chromosome release workflow
//! (`pgl batch haplotypes/ -o layouts/`).
//!
//! **Parse-once fan-out:** each input file is read and interned into the
//! service's graph store exactly once, then submitted by reference to
//! every requested engine (`--engine cpu,batch` compares engines without
//! paying ingestion twice). With one engine, outputs are
//! `<stem>.lay` as before; with several, `<stem>.<engine>.lay`.

use crate::job::JobState;
use crate::registry::EngineRegistry;
use crate::service::{LayoutService, ServiceConfig, SubmitTicket};
use crate::spec::{JobSpec, Priority};
use layout_core::LayoutConfig;
use pgio::{layout_to_tsv, save_lay};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What to run over the directory.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Engine registry keys to fan each graph across (every input is
    /// parsed once and laid out per engine).
    pub engines: Vec<String>,
    /// Layout configuration for every graph.
    pub config: LayoutConfig,
    /// Mini-batch size (batch engine only).
    pub batch_size: usize,
    /// Concurrent layout workers (0 ⇒ one per core).
    pub workers: usize,
    /// Also write a `.tsv` next to each `.lay`.
    pub write_tsv: bool,
    /// Per-graph completion timeout.
    pub timeout: Duration,
    /// Resume mode: skip any (input, engine) whose `.lay` already
    /// exists in the output directory and is at least as new as the
    /// input `.gfa`, so an interrupted batch restarts where it left
    /// off. An input is not even read (let alone parsed) when every
    /// engine's output is up to date.
    pub resume: bool,
    /// Scheduling band for every submitted job (`pgl batch --priority`).
    /// Matters when the batch shares a service with other traffic.
    pub priority: Priority,
    /// Fair-share client key for every submitted job; `None` uses the
    /// service's anonymous key.
    pub client: Option<String>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            engines: vec!["cpu".into()],
            config: LayoutConfig::default(),
            batch_size: 1024,
            workers: 0,
            write_tsv: false,
            timeout: Duration::from_secs(3600),
            resume: false,
            priority: Priority::Normal,
            client: None,
        }
    }
}

/// Outcome for one (input graph, engine) pair.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Input file name (without directory).
    pub name: String,
    /// Engine this outcome belongs to.
    pub engine: String,
    /// Terminal job state.
    pub state: JobState,
    /// Node count (0 when the graph never parsed).
    pub nodes: usize,
    /// Submission-to-completion wall time.
    pub wall_ms: u128,
    /// Where the layout was written, when successful.
    pub output: Option<PathBuf>,
    /// Failure message, when failed.
    pub error: Option<String>,
    /// Served from the layout cache.
    pub cached: bool,
    /// Skipped by resume mode (output already up to date; not recomputed).
    pub skipped: bool,
}

/// Everything one batch run produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per (input, engine), inputs sorted by name.
    pub outcomes: Vec<BatchOutcome>,
    /// GFA documents actually parsed — at most one per input, however
    /// many engines fanned out over it.
    pub graph_parses: u64,
}

impl BatchReport {
    /// Outcomes that did not finish `Done`.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state != JobState::Done)
            .count()
    }

    /// Outcomes skipped by resume mode.
    pub fn skipped(&self) -> usize {
        self.outcomes.iter().filter(|o| o.skipped).count()
    }
}

/// Output stem for one (input, engine): single-engine runs keep the
/// historical `<stem>.lay`, multi-engine runs disambiguate with
/// `<stem>.<engine>.lay`.
fn output_stem(input: &Path, engine: &str, multi: bool) -> String {
    let stem = input
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "graph".into());
    if multi {
        format!("{stem}.{engine}")
    } else {
        stem
    }
}

/// Resume check: does `out_dir` already hold a `.lay` for this
/// (input, engine) that is at least as new as the input itself (and
/// likewise a `.tsv`, when the run is supposed to produce one)?
fn up_to_date_output(input: &Path, out_dir: &Path, stem: &str, need_tsv: bool) -> Option<PathBuf> {
    let input_mtime = std::fs::metadata(input).and_then(|m| m.modified()).ok()?;
    let fresh = |path: &Path| {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .is_ok_and(|m| m >= input_mtime)
    };
    let lay = out_dir.join(format!("{stem}.lay"));
    if !fresh(&lay) {
        return None;
    }
    if need_tsv && !fresh(&out_dir.join(format!("{stem}.tsv"))) {
        return None;
    }
    Some(lay)
}

/// How one (input, engine) leg is resolved before the collection phase.
enum Pending {
    /// Resume mode found an up-to-date output; nothing to compute.
    Skipped(PathBuf),
    /// Read, upload, or submit failed before a job existed.
    Failed(String),
    Submitted(SubmitTicket),
}

/// One (input, engine) leg awaiting collection.
struct Leg {
    engine: String,
    stem: String,
    pending: Pending,
}

/// Lay out every `*.gfa` under `dir` (sorted by name) into `out_dir`,
/// once per engine in `opts.engines`.
///
/// Returns one outcome per (input, engine) plus run-level counters; an
/// `Err` is returned only for setup problems (unreadable directory, no
/// inputs, no engines, unwritable output).
pub fn run_batch(dir: &Path, out_dir: &Path, opts: &BatchOptions) -> Result<BatchReport, String> {
    if opts.engines.is_empty() {
        return Err("no engines requested".into());
    }
    let mut inputs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "gfa"))
        .collect();
    inputs.sort();
    if inputs.is_empty() {
        return Err(format!("no .gfa files in {}", dir.display()));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let service = LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: opts.workers,
            // A batch's graphs are its working set: keep every parsed
            // graph resident so multi-engine legs share one artifact.
            graph_entries: 0,
            ..ServiceConfig::default()
        },
    );
    let multi = opts.engines.len() > 1;

    // Fan everything out first so the pool stays busy…
    let mut submitted: Vec<(String, Vec<Leg>)> = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        // Per-engine resume decisions before touching the file.
        let mut legs: Vec<Leg> = Vec::with_capacity(opts.engines.len());
        let mut needs_compute = Vec::new();
        for engine in &opts.engines {
            let stem = output_stem(path, engine, multi);
            if opts.resume {
                if let Some(existing) = up_to_date_output(path, out_dir, &stem, opts.write_tsv) {
                    legs.push(Leg {
                        engine: engine.clone(),
                        stem,
                        pending: Pending::Skipped(existing),
                    });
                    continue;
                }
            }
            needs_compute.push((engine.clone(), stem));
        }
        if !needs_compute.is_empty() {
            // Read + intern exactly once for every engine that needs it;
            // the text is dropped as soon as the store holds the graph.
            let upload = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))
                .and_then(|gfa| service.upload_graph(&gfa).map_err(|e| e.to_string()));
            match upload {
                Err(msg) => {
                    for (engine, stem) in needs_compute {
                        legs.push(Leg {
                            engine,
                            stem,
                            pending: Pending::Failed(msg.clone()),
                        });
                    }
                }
                Ok(up) => {
                    for (engine, stem) in needs_compute {
                        let ticket = service.submit(JobSpec {
                            engine: engine.clone(),
                            config: opts.config.clone(),
                            batch_size: opts.batch_size,
                            graph: crate::job::GraphSpec::Stored(up.id),
                            priority: opts.priority,
                            client: opts.client.clone(),
                            queue_ttl: None,
                        });
                        legs.push(Leg {
                            engine,
                            stem,
                            pending: match ticket {
                                Ok(t) => Pending::Submitted(t),
                                Err(e) => Pending::Failed(e.to_string()),
                            },
                        });
                    }
                }
            }
        }
        submitted.push((name, legs));
    }

    // …then collect in input order.
    let mut outcomes = Vec::new();
    for (name, legs) in submitted {
        for Leg {
            engine,
            stem,
            pending,
        } in legs
        {
            let outcome = match pending {
                Pending::Skipped(existing) => BatchOutcome {
                    name: name.clone(),
                    engine,
                    state: JobState::Done,
                    nodes: 0,
                    wall_ms: 0,
                    output: Some(existing),
                    error: None,
                    cached: false,
                    skipped: true,
                },
                Pending::Failed(msg) => BatchOutcome {
                    name: name.clone(),
                    engine,
                    state: JobState::Failed,
                    nodes: 0,
                    wall_ms: 0,
                    output: None,
                    error: Some(msg),
                    cached: false,
                    skipped: false,
                },
                Pending::Submitted(ticket) => {
                    collect_one(&service, &name, engine, &stem, out_dir, ticket, opts)
                }
            };
            outcomes.push(outcome);
        }
    }
    let graph_parses = service.stats().parses;
    Ok(BatchReport {
        outcomes,
        graph_parses,
    })
}

/// Wait for one submitted job and write its outputs.
fn collect_one(
    service: &LayoutService,
    name: &str,
    engine: String,
    stem: &str,
    out_dir: &Path,
    ticket: SubmitTicket,
    opts: &BatchOptions,
) -> BatchOutcome {
    let Some(status) = service.wait(ticket.id, opts.timeout) else {
        // Free the worker: a hung job must not serialize every
        // remaining graph into its own timeout.
        let _ = service.cancel(ticket.id);
        return BatchOutcome {
            name: name.to_string(),
            engine,
            state: JobState::Failed,
            nodes: 0,
            wall_ms: opts.timeout.as_millis(),
            output: None,
            error: Some(format!("timed out after {:?}", opts.timeout)),
            cached: ticket.cached,
            skipped: false,
        };
    };
    let mut outcome = BatchOutcome {
        name: name.to_string(),
        engine,
        state: status.state,
        nodes: status.nodes,
        wall_ms: status.wall_ms,
        output: None,
        error: status.error.clone(),
        cached: status.cached,
        skipped: false,
    };
    if status.state == JobState::Done {
        if let Some(layout) = service.result(ticket.id) {
            let lay_path = out_dir.join(format!("{stem}.lay"));
            match save_lay(&layout, &lay_path) {
                Ok(()) => {
                    if opts.write_tsv {
                        let tsv = out_dir.join(format!("{stem}.tsv"));
                        let _ = std::fs::write(tsv, layout_to_tsv(&layout));
                    }
                    outcome.output = Some(lay_path);
                }
                Err(e) => {
                    outcome.state = JobState::Failed;
                    outcome.error = Some(format!("write {}: {e}", lay_path.display()));
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::write_gfa;
    use workloads::{generate, PangenomeSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgl_batchrun_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_opts() -> BatchOptions {
        BatchOptions {
            config: LayoutConfig {
                iter_max: 3,
                threads: 1,
                ..LayoutConfig::default()
            },
            workers: 2,
            ..BatchOptions::default()
        }
    }

    #[test]
    fn lays_out_a_directory_of_graphs() {
        let dir = tmp_dir("in");
        let out = tmp_dir("out");
        for (i, name) in ["b.gfa", "a.gfa"].iter().enumerate() {
            let g = generate(&PangenomeSpec::basic("b", 30, 2, i as u64 + 1));
            std::fs::write(dir.join(name), write_gfa(&g)).unwrap();
        }
        std::fs::write(dir.join("ignored.txt"), "not a graph").unwrap();

        let opts = BatchOptions {
            write_tsv: true,
            ..quick_opts()
        };
        let report = run_batch(&dir, &out, &opts).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(
            report.outcomes[0].name, "a.gfa",
            "inputs are processed in sorted order"
        );
        for o in &report.outcomes {
            assert_eq!(o.state, JobState::Done, "{:?}", o.error);
            assert!(o.nodes > 0);
            assert!(o.output.as_ref().unwrap().exists());
        }
        assert!(out.join("a.tsv").exists());
        assert_eq!(report.graph_parses, 2, "one parse per input");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn multi_engine_fan_out_parses_each_input_once() {
        let dir = tmp_dir("fan");
        let out = tmp_dir("fanout");
        for (i, name) in ["x.gfa", "y.gfa"].iter().enumerate() {
            let g = generate(&PangenomeSpec::basic("f", 30, 2, i as u64 + 1));
            std::fs::write(dir.join(name), write_gfa(&g)).unwrap();
        }
        let opts = BatchOptions {
            engines: vec!["cpu".into(), "batch".into()],
            ..quick_opts()
        };
        let report = run_batch(&dir, &out, &opts).unwrap();
        assert_eq!(report.outcomes.len(), 4, "2 inputs × 2 engines");
        assert_eq!(report.failed(), 0, "{:?}", report.outcomes);
        assert_eq!(
            report.graph_parses, 2,
            "each input parsed once across both engines"
        );
        // Multi-engine outputs are disambiguated per engine.
        for stem in ["x", "y"] {
            assert!(out.join(format!("{stem}.cpu.lay")).exists());
            assert!(out.join(format!("{stem}.batch.lay")).exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn bad_graphs_fail_without_sinking_the_batch() {
        let dir = tmp_dir("mixed");
        let out = tmp_dir("mixedout");
        let g = generate(&PangenomeSpec::basic("ok", 25, 2, 3));
        std::fs::write(dir.join("good.gfa"), write_gfa(&g)).unwrap();
        std::fs::write(dir.join("bad.gfa"), "garbage\n").unwrap();

        let opts = BatchOptions {
            workers: 1,
            ..quick_opts()
        };
        let report = run_batch(&dir, &out, &opts).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        let bad = report
            .outcomes
            .iter()
            .find(|o| o.name == "bad.gfa")
            .unwrap();
        assert_eq!(bad.state, JobState::Failed);
        assert!(bad.error.is_some());
        let good = report
            .outcomes
            .iter()
            .find(|o| o.name == "good.gfa")
            .unwrap();
        assert_eq!(good.state, JobState::Done);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_skips_up_to_date_outputs_and_redoes_stale_ones() {
        let dir = tmp_dir("resume");
        let out = tmp_dir("resumeout");
        for (i, name) in ["x.gfa", "y.gfa"].iter().enumerate() {
            let g = generate(&PangenomeSpec::basic("r", 30, 2, i as u64 + 1));
            std::fs::write(dir.join(name), write_gfa(&g)).unwrap();
        }
        let opts = BatchOptions {
            workers: 1,
            resume: true,
            ..quick_opts()
        };
        // First run computes everything (nothing to resume from).
        let first = run_batch(&dir, &out, &opts).unwrap();
        assert!(first
            .outcomes
            .iter()
            .all(|o| o.state == JobState::Done && !o.skipped));
        // Second run skips everything: outputs are newer than inputs —
        // and skipped inputs are never even parsed.
        let second = run_batch(&dir, &out, &opts).unwrap();
        assert!(second.outcomes.iter().all(|o| o.skipped), "{second:?}");
        assert!(second
            .outcomes
            .iter()
            .all(|o| o.output.as_ref().unwrap().exists()));
        assert_eq!(second.graph_parses, 0, "skipped inputs are not parsed");
        // Asking for a .tsv that was never produced defeats the skip…
        let tsv_opts = BatchOptions {
            write_tsv: true,
            ..opts.clone()
        };
        let with_tsv = run_batch(&dir, &out, &tsv_opts).unwrap();
        assert!(
            with_tsv
                .outcomes
                .iter()
                .all(|o| !o.skipped && o.state == JobState::Done),
            "{with_tsv:?}"
        );
        // …and once it exists, the tsv-aware resume skips again.
        let tsv_resume = run_batch(&dir, &out, &tsv_opts).unwrap();
        assert!(
            tsv_resume.outcomes.iter().all(|o| o.skipped),
            "{tsv_resume:?}"
        );
        // Make one input newer than its output: only it is recomputed.
        let future = std::time::SystemTime::now() + Duration::from_secs(3600);
        std::fs::File::options()
            .append(true)
            .open(dir.join("x.gfa"))
            .unwrap()
            .set_modified(future)
            .unwrap();
        let third = run_batch(&dir, &out, &opts).unwrap();
        let x = third.outcomes.iter().find(|o| o.name == "x.gfa").unwrap();
        let y = third.outcomes.iter().find(|o| o.name == "y.gfa").unwrap();
        assert!(!x.skipped, "stale input is recomputed");
        assert_eq!(x.state, JobState::Done);
        assert!(y.skipped, "fresh input stays skipped");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn empty_directory_is_a_setup_error() {
        let dir = tmp_dir("empty");
        let out = tmp_dir("emptyout");
        assert!(run_batch(&dir, &out, &BatchOptions::default()).is_err());
        assert!(
            run_batch(
                &dir,
                &out,
                &BatchOptions {
                    engines: vec![],
                    ..BatchOptions::default()
                }
            )
            .is_err(),
            "no engines is a setup error"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
    }
}
