//! The multithreaded Hogwild! CPU engine — a faithful port of
//! `odgi-layout`'s path-guided SGD (the paper's CPU baseline).
//!
//! Execution structure mirrors both the original and the paper's GPU
//! design: one *iteration* = one learning-rate value = one parallel sweep
//! of `N_steps` update steps, with a barrier between iterations (odgi
//! joins its worker pool per iteration; the GPU port launches one CUDA
//! kernel per iteration and synchronizes between launches). Within an
//! iteration, worker threads perform steps independently:
//!
//! * each thread owns a Xoshiro256+ stream placed 2¹²⁸ draws apart,
//! * steps are processed in *term blocks* of [`TERM_BLOCK`] terms:
//!   a thread samples a block of terms, then applies it through one
//!   monomorphized straight-line pass
//!   ([`CoordStore::apply_block`]) — the block hoists the layout ×
//!   precision dispatch out of the per-term path and lets the sampler
//!   overlap the block's step reads ([`PairSampler::sample_block`]),
//!   mirroring the paper's batched term updates (Sec. V-B),
//! * coordinate updates are relaxed-atomic read-modify-writes with **no**
//!   synchronization (Hogwild!), racing exactly as the original does,
//! * the shared [`PairSampler`] and [`LeanGraph`] are read-only.
//!
//! Because sampling never reads coordinates, block application is
//! bit-identical to interleaved sample/apply on a single thread.

use crate::config::{LayoutConfig, TERM_BLOCK};
use crate::control::LayoutControl;
use crate::coords::CoordStore;
use crate::init::init_linear;
use crate::sampler::{PairSampler, Term};
use crate::schedule::Schedule;
use crate::LayoutEngine;
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgrng::Xoshiro256Plus;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Statistics from one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock time of the SGD loop (excludes graph flattening).
    pub wall: Duration,
    /// Steps attempted (`N_iters × N_steps`).
    pub steps_attempted: u64,
    /// Terms actually applied (attempted minus rejected draws).
    pub terms_applied: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Iterations executed.
    pub iters: u32,
}

impl RunReport {
    /// Applied updates per second of wall time.
    pub fn updates_per_sec(&self) -> f64 {
        self.terms_applied as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// A completed run with optional per-iteration snapshots.
pub struct CpuRun {
    /// Final layout.
    pub layout: Layout2D,
    /// Run statistics.
    pub report: RunReport,
    /// `(iteration, layout-after-that-iteration)` snapshots.
    pub snapshots: Vec<(u32, Layout2D)>,
}

/// The Hogwild CPU layout engine.
pub struct CpuEngine {
    cfg: LayoutConfig,
}

impl CpuEngine {
    /// Create an engine with the given configuration.
    pub fn new(cfg: LayoutConfig) -> Self {
        Self { cfg }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LayoutConfig {
        &self.cfg
    }

    /// Run the full schedule; returns the layout and statistics.
    pub fn run(&self, lean: &LeanGraph) -> (Layout2D, RunReport) {
        let r = self.run_with_snapshots(lean, &[]);
        (r.layout, r.report)
    }

    /// Run the full schedule from a caller-provided initial layout.
    pub fn run_from(&self, lean: &LeanGraph, initial: &Layout2D) -> (Layout2D, RunReport) {
        let r = self.run_inner(lean, Some(initial), &[], None);
        (r.layout, r.report)
    }

    /// Run, capturing layout snapshots after the listed iterations
    /// (used by the Fig. 12 quality-progression experiment).
    pub fn run_with_snapshots(&self, lean: &LeanGraph, snapshot_iters: &[u32]) -> CpuRun {
        self.run_inner(lean, None, snapshot_iters, None)
    }

    /// Run under a [`LayoutControl`]: progress is published after every
    /// iteration and cancellation is honored at the next iteration
    /// barrier. Returns `None` when the run was cancelled (the partial
    /// layout is discarded).
    pub fn run_controlled(
        &self,
        lean: &LeanGraph,
        ctl: &LayoutControl,
    ) -> Option<(Layout2D, RunReport)> {
        if ctl.is_cancelled() {
            return None;
        }
        let r = self.run_inner(lean, None, &[], Some(ctl));
        if ctl.is_cancelled() {
            None
        } else {
            ctl.finish();
            Some((r.layout, r.report))
        }
    }

    fn run_inner(
        &self,
        lean: &LeanGraph,
        initial: Option<&Layout2D>,
        snapshot_iters: &[u32],
        ctl: Option<&LayoutControl>,
    ) -> CpuRun {
        let cfg = &self.cfg;
        let store = CoordStore::with_precision(cfg.data_layout, cfg.precision, lean);
        match initial {
            Some(l) => store.load_from(l),
            None => store.load_from(&init_linear(lean, cfg.init_jitter, cfg.seed)),
        }

        let total_steps = lean.total_steps() as u64;
        let d_max = (lean.max_path_nuc_len() as f64).max(1.0);
        if total_steps == 0 || lean.max_path_steps() < 2 {
            // Degenerate graph: nothing to optimize.
            return CpuRun {
                layout: store.to_layout(),
                report: RunReport {
                    wall: Duration::ZERO,
                    steps_attempted: 0,
                    terms_applied: 0,
                    threads: cfg.resolved_threads(),
                    iters: 0,
                },
                snapshots: Vec::new(),
            };
        }

        let schedule = Schedule::new(cfg, d_max);
        let sampler = PairSampler::new(lean, cfg);
        let threads = cfg.resolved_threads();
        let steps_per_iter = cfg.steps_per_iter(total_steps);
        let applied = AtomicU64::new(0);
        let iters_done = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let barrier = Barrier::new(threads);
        let rngs = Xoshiro256Plus::split_streams(cfg.seed, threads);
        let snapshots: std::sync::Mutex<Vec<(u32, Layout2D)>> = std::sync::Mutex::new(Vec::new());

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (tid, mut rng) in rngs.into_iter().enumerate() {
                let store = &store;
                let sampler = &sampler;
                let schedule = &schedule;
                let applied = &applied;
                let barrier = &barrier;
                let snapshots = &snapshots;
                // Split N_steps across threads; thread 0 takes the slack.
                let base = steps_per_iter / threads as u64;
                let my_steps = if tid == 0 {
                    base + steps_per_iter % threads as u64
                } else {
                    base
                };
                let iters_done = &iters_done;
                let stop = &stop;
                scope.spawn(move || {
                    let mut my_applied = 0u64;
                    // Applied terms already flushed to the control's
                    // telemetry counters (controlled runs only).
                    let mut my_flushed = 0u64;
                    let mut block: Vec<Term> =
                        Vec::with_capacity(TERM_BLOCK.min(my_steps as usize));
                    for iter in 0..cfg.iter_max {
                        let eta = schedule.eta(iter);
                        // Sample a block of terms, then apply it in one
                        // monomorphized pass: the layout × precision
                        // dispatch runs once per block, not per term.
                        let mut left = my_steps;
                        while left > 0 {
                            let want = left.min(TERM_BLOCK as u64) as usize;
                            left -= want as u64;
                            let got = sampler.sample_block(lean, &mut rng, iter, want, &mut block);
                            store.apply_block(&block, eta);
                            my_applied += got as u64;
                        }
                        // Iteration barrier (odgi's join; the GPU's kernel
                        // boundary).
                        barrier.wait();
                        if snapshot_iters.contains(&iter) {
                            if tid == 0 {
                                snapshots.lock().unwrap().push((iter, store.to_layout()));
                            }
                            barrier.wait();
                        }
                        if let Some(ctl) = ctl {
                            // Flush this thread's applied-terms delta to
                            // the live telemetry counter: one relaxed
                            // fetch_add per thread per iteration, never
                            // per term, so the hot loop stays untouched.
                            ctl.telemetry().add_applied(my_applied - my_flushed);
                            my_flushed = my_applied;
                            // Thread 0 publishes progress and folds the
                            // cancel flag into `stop`; the second barrier
                            // guarantees every thread reads the same
                            // decision, so all break at the same
                            // iteration and nobody deadlocks waiting.
                            if tid == 0 {
                                iters_done.store(iter as u64 + 1, Ordering::Relaxed);
                                ctl.telemetry().set_iteration(iter + 1, cfg.iter_max);
                                ctl.set_progress(iter as u64 + 1, cfg.iter_max as u64);
                                if ctl.is_cancelled() {
                                    stop.store(true, Ordering::Relaxed);
                                }
                            }
                            barrier.wait();
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                    }
                    applied.fetch_add(my_applied, Ordering::Relaxed);
                });
            }
        });
        let wall = t0.elapsed();

        let executed = match ctl {
            Some(_) => iters_done.load(Ordering::Relaxed) as u32,
            None => cfg.iter_max,
        };
        CpuRun {
            layout: store.to_layout(),
            report: RunReport {
                wall,
                steps_attempted: steps_per_iter * executed as u64,
                terms_applied: applied.load(Ordering::Relaxed),
                threads,
                iters: executed,
            },
            snapshots: snapshots.into_inner().unwrap(),
        }
    }
}

impl LayoutEngine for CpuEngine {
    fn name(&self) -> &str {
        "cpu-hogwild"
    }

    fn layout(&self, lean: &LeanGraph) -> Layout2D {
        self.run(lean).0
    }

    fn layout_controlled(&self, lean: &LeanGraph, ctl: &LayoutControl) -> Option<Layout2D> {
        self.run_controlled(lean, ctl).map(|(layout, _)| layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PairSelection;
    use crate::coords::DataLayout;
    use pgmetrics::{sampled_path_stress, SamplingConfig};
    use workloads::{generate, PangenomeSpec};

    fn test_graph(sites: usize, haps: usize, seed: u64) -> LeanGraph {
        LeanGraph::from_graph(&generate(&PangenomeSpec::basic("t", sites, haps, seed)))
    }

    fn quality(layout: &Layout2D, lean: &LeanGraph) -> f64 {
        sampled_path_stress(
            layout,
            lean,
            SamplingConfig {
                samples_per_node: 30,
                seed: 11,
            },
        )
        .mean
    }

    #[test]
    fn layout_improves_over_random_init() {
        let lean = test_graph(300, 6, 1);
        let cfg = LayoutConfig {
            iter_max: 20,
            threads: 2,
            ..LayoutConfig::default()
        };
        let engine = CpuEngine::new(cfg);
        let total: f64 = lean.node_len.iter().map(|&l| l as f64).sum();
        let random = crate::init::init_random(&lean, total, 5);
        let before = quality(&random, &lean);
        let (after_layout, report) = engine.run_from(&lean, &random);
        let after = quality(&after_layout, &lean);
        assert!(
            after < before / 5.0,
            "stress should drop sharply: before {before}, after {after}"
        );
        assert!(report.terms_applied > 0);
        assert!(after_layout.all_finite());
    }

    #[test]
    fn single_thread_run_is_deterministic() {
        let lean = test_graph(150, 4, 2);
        let cfg = LayoutConfig {
            threads: 1,
            iter_max: 8,
            ..LayoutConfig::default()
        };
        let a = CpuEngine::new(cfg.clone()).run(&lean).0;
        let b = CpuEngine::new(cfg).run(&lean).0;
        assert_eq!(a, b, "single-threaded runs must be bit-identical");
    }

    #[test]
    fn multithreaded_quality_matches_single_thread() {
        // Hogwild races change bits but not quality (paper Sec. III-A).
        let lean = test_graph(400, 8, 3);
        let mk = |threads| LayoutConfig {
            threads,
            iter_max: 15,
            ..LayoutConfig::default()
        };
        let (l1, _) = CpuEngine::new(mk(1)).run(&lean);
        let (l4, _) = CpuEngine::new(mk(4)).run(&lean);
        let q1 = quality(&l1, &lean);
        let q4 = quality(&l4, &lean);
        assert!(
            q4 < q1 * 3.0 + 0.05,
            "4-thread quality {q4} should be comparable to 1-thread {q1}"
        );
    }

    #[test]
    fn f32_runs_are_deterministic_and_converge() {
        use crate::coords::Precision;
        let lean = test_graph(250, 5, 14);
        let cfg = LayoutConfig {
            threads: 1,
            iter_max: 12,
            precision: Precision::F32,
            ..LayoutConfig::default()
        };
        let (a, report) = CpuEngine::new(cfg.clone()).run(&lean);
        let (b, _) = CpuEngine::new(cfg).run(&lean);
        assert_eq!(a, b, "single-threaded f32 runs must be bit-identical");
        assert!(report.terms_applied > 0);
        assert!(a.all_finite());
        let q = quality(&a, &lean);
        assert!(q < 1.0, "f32 quality {q}");
    }

    #[test]
    fn both_data_layouts_converge() {
        let lean = test_graph(250, 5, 4);
        for layout_kind in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            let cfg = LayoutConfig {
                data_layout: layout_kind,
                threads: 2,
                iter_max: 12,
                ..LayoutConfig::default()
            };
            let (l, _) = CpuEngine::new(cfg).run(&lean);
            let q = quality(&l, &lean);
            assert!(q < 1.0, "{layout_kind:?} quality {q}");
        }
    }

    #[test]
    fn fixed_hop_selection_converges_worse() {
        // Paper Fig. 6: forcing all pairs 10 hops apart kills convergence.
        let lean = test_graph(300, 6, 5);
        let total: f64 = lean.node_len.iter().map(|&l| l as f64).sum();
        let random = crate::init::init_random(&lean, total, 7);
        let mk = |sel| LayoutConfig {
            pair_selection: sel,
            threads: 2,
            iter_max: 15,
            ..LayoutConfig::default()
        };
        let (good, _) = CpuEngine::new(mk(PairSelection::PgSgd)).run_from(&lean, &random);
        let (bad, _) = CpuEngine::new(mk(PairSelection::FixedHop(10))).run_from(&lean, &random);
        let qg = quality(&good, &lean);
        let qb = quality(&bad, &lean);
        assert!(
            qb > 3.0 * qg,
            "fixed-hop stress {qb} should be far above pg-sgd stress {qg}"
        );
    }

    #[test]
    fn snapshots_are_captured_in_order() {
        let lean = test_graph(100, 4, 6);
        let cfg = LayoutConfig {
            threads: 2,
            iter_max: 10,
            ..LayoutConfig::default()
        };
        let run = CpuEngine::new(cfg).run_with_snapshots(&lean, &[0, 4, 9]);
        assert_eq!(run.snapshots.len(), 3);
        assert_eq!(
            run.snapshots.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 4, 9]
        );
        // The last snapshot equals the final layout (iteration 9 is last).
        assert_eq!(run.snapshots[2].1, run.layout);
    }

    #[test]
    fn snapshot_quality_improves_monotonically_ish() {
        let lean = test_graph(300, 6, 7);
        let cfg = LayoutConfig {
            threads: 2,
            iter_max: 16,
            ..LayoutConfig::default()
        };
        // Start from random so there is headroom to improve.
        let engine = CpuEngine::new(cfg);
        let total: f64 = lean.node_len.iter().map(|&l| l as f64).sum();
        let random = crate::init::init_random(&lean, total, 8);
        // run_from doesn't capture snapshots; emulate by comparing a short
        // run against a long run.
        let short = CpuEngine::new(LayoutConfig {
            threads: 2,
            iter_max: 3,
            ..LayoutConfig::default()
        });
        let (l_short, _) = short.run_from(&lean, &random);
        let (l_long, _) = engine.run_from(&lean, &random);
        assert!(quality(&l_long, &lean) <= quality(&l_short, &lean) * 1.5);
    }

    #[test]
    fn report_counts_are_consistent() {
        let lean = test_graph(120, 4, 9);
        let cfg = LayoutConfig {
            threads: 3,
            iter_max: 5,
            ..LayoutConfig::default()
        };
        let (_, report) = CpuEngine::new(cfg.clone()).run(&lean);
        assert_eq!(
            report.steps_attempted,
            cfg.steps_per_iter(lean.total_steps() as u64) * 5
        );
        assert!(report.terms_applied <= report.steps_attempted);
        assert!(report.terms_applied > report.steps_attempted / 2);
        assert_eq!(report.threads, 3);
        assert!(report.updates_per_sec() > 0.0);
    }

    #[test]
    fn controlled_run_completes_with_full_progress() {
        let lean = test_graph(80, 3, 10);
        let ctl = LayoutControl::new();
        let (layout, report) = CpuEngine::new(LayoutConfig::for_tests(2))
            .run_controlled(&lean, &ctl)
            .expect("uncancelled run completes");
        assert!(layout.all_finite());
        assert_eq!(ctl.progress(), 1.0);
        assert_eq!(report.iters, LayoutConfig::for_tests(2).iter_max);
    }

    #[test]
    fn controlled_run_publishes_live_telemetry() {
        let lean = test_graph(80, 3, 15);
        let ctl = LayoutControl::new();
        let cfg = LayoutConfig::for_tests(2);
        let (_, report) = CpuEngine::new(cfg.clone())
            .run_controlled(&lean, &ctl)
            .expect("uncancelled run completes");
        // Every applied term was flushed by the final iteration barrier.
        assert_eq!(ctl.telemetry().terms_applied(), report.terms_applied);
        assert_eq!(ctl.telemetry().iteration(), (report.iters, cfg.iter_max));
    }

    #[test]
    fn cancel_before_start_runs_nothing() {
        let lean = test_graph(50, 3, 11);
        let ctl = LayoutControl::new();
        ctl.cancel();
        assert!(CpuEngine::new(LayoutConfig::for_tests(1))
            .run_controlled(&lean, &ctl)
            .is_none());
    }

    #[test]
    fn cancel_mid_run_stops_at_an_iteration_boundary() {
        let lean = test_graph(200, 5, 12);
        // Far more iterations than we are willing to wait for: the test
        // only terminates promptly because cancellation works.
        let cfg = LayoutConfig {
            iter_max: 100_000,
            threads: 2,
            ..LayoutConfig::default()
        };
        let engine = CpuEngine::new(cfg);
        let ctl = LayoutControl::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                while ctl.progress() == 0.0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                ctl.cancel();
            });
            assert!(engine.run_controlled(&lean, &ctl).is_none());
        });
    }

    #[test]
    fn degenerate_graph_returns_init() {
        use pangraph::model::{GraphBuilder, Handle};
        let mut b = GraphBuilder::new();
        let a = b.add_node_len(5);
        b.add_path("single", vec![Handle::forward(a)]);
        let lean = LeanGraph::from_graph(&b.build());
        let (layout, report) = CpuEngine::new(LayoutConfig::for_tests(2)).run(&lean);
        assert_eq!(report.terms_applied, 0);
        assert!(layout.all_finite());
    }
}
