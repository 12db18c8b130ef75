//! The PyTorch-style batched implementation (paper Sec. IV).
//!
//! The paper's first GPU attempt casts Alg. 1 as neural-network training:
//! a *batch* of node pairs is sampled, their coordinates are **gathered**
//! into dense tensors (`index` kernels), the stress gradient is computed
//! with elementwise tensor kernels (`pow`, `mul`, `where`, `add`), and the
//! results are **scattered** back. This engine reproduces that design in
//! CPU tensor form, with the three instruments the paper reads off it:
//!
//! * per-op kernel timers — Fig. 7's breakdown, where `index` (the random
//!   gather/scatter) dominates;
//! * a kernel-launch counter and a launch-overhead model (`8 µs`/launch,
//!   the canonical CUDA launch cost) — Table IV's API-overhead trend;
//! * batch-size–dependent quality: a batch's gradients are all computed
//!   from the batch-start snapshot, so giant batches violate the Hogwild
//!   sparsity assumption and degrade the layout — Table III's
//!   Good/Satisfying/Poor column.
//!
//! Updates within a batch are synchronous: gather → compute → scatter,
//! with last-write-wins on duplicate indices (exactly the stale-gradient
//! behaviour of the tensor implementation).

use crate::config::LayoutConfig;
use crate::control::LayoutControl;
use crate::coords::Precision;
use crate::init::init_linear;
use crate::sampler::{PairSampler, Term};
use crate::schedule::Schedule;
use crate::LayoutEngine;
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgrng::Xoshiro256Plus;
use std::time::{Duration, Instant};

/// Modeled cost of one CUDA kernel launch (paper Sec. IV-A attributes the
/// small-batch collapse to launch overhead; 8 µs is the canonical figure).
pub const LAUNCH_COST_S: f64 = 8e-6;

/// Kernel-op categories, matching the paper's Fig. 7 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelOp {
    /// Gather/scatter of coordinates (the random-access memory op).
    Index,
    /// Squares and square roots.
    Pow,
    /// Multiplications (weights, step sizes).
    Mul,
    /// Selects/clamps (the μ cap, zero-distance masking).
    Where,
    /// Additions (coordinate updates).
    Add,
    /// Everything else (sampling, buffer management).
    Other,
}

/// All ops in display order.
pub const ALL_OPS: [KernelOp; 6] = [
    KernelOp::Index,
    KernelOp::Pow,
    KernelOp::Mul,
    KernelOp::Where,
    KernelOp::Add,
    KernelOp::Other,
];

/// Kernel launches charged per batch per op (gather+scatter, two pow
/// kernels, three muls, two selects, four adds, one sampler transfer).
const LAUNCHES_PER_BATCH: [(KernelOp, u64); 6] = [
    (KernelOp::Index, 2),
    (KernelOp::Pow, 2),
    (KernelOp::Mul, 3),
    (KernelOp::Where, 2),
    (KernelOp::Add, 4),
    (KernelOp::Other, 1),
];

/// Statistics from one batch-engine run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Wall-clock time of the optimization loop.
    pub wall: Duration,
    /// Accumulated time per kernel-op category (indexed like [`ALL_OPS`]).
    pub op_time: [Duration; 6],
    /// Total kernel launches.
    pub kernels_launched: u64,
    /// Batches executed.
    pub batches: u64,
    /// Terms applied (batch slots with a valid sampled term).
    pub terms_applied: u64,
    /// Iterations executed.
    pub iters: u32,
}

impl BatchReport {
    fn op_index(op: KernelOp) -> usize {
        ALL_OPS.iter().position(|&o| o == op).unwrap()
    }

    /// Time spent in one op category.
    pub fn time_in(&self, op: KernelOp) -> Duration {
        self.op_time[Self::op_index(op)]
    }

    /// Fraction of total kernel time spent in one op category.
    pub fn op_fraction(&self, op: KernelOp) -> f64 {
        let total: f64 = self.op_time.iter().map(|d| d.as_secs_f64()).sum();
        if total == 0.0 {
            0.0
        } else {
            self.time_in(op).as_secs_f64() / total
        }
    }

    /// Modeled CUDA-API launch overhead in seconds
    /// (`launches × LAUNCH_COST_S`).
    pub fn launch_overhead_s(&self) -> f64 {
        self.kernels_launched as f64 * LAUNCH_COST_S
    }

    /// Modeled percentage of time spent in the CUDA API (Table IV):
    /// launch overhead relative to launch overhead + kernel time.
    pub fn api_time_pct(&self) -> f64 {
        let kernel: f64 = self.op_time.iter().map(|d| d.as_secs_f64()).sum();
        let api = self.launch_overhead_s();
        100.0 * api / (api + kernel).max(1e-12)
    }

    /// Total modeled GPU-side time: kernel time + launch overhead.
    pub fn modeled_total_s(&self) -> f64 {
        self.op_time.iter().map(|d| d.as_secs_f64()).sum::<f64>() + self.launch_overhead_s()
    }
}

/// The batched (PyTorch-style) layout engine.
pub struct BatchEngine {
    cfg: LayoutConfig,
    batch_size: usize,
}

impl BatchEngine {
    /// Create an engine with the given batch size.
    pub fn new(cfg: LayoutConfig, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { cfg, batch_size }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Run the full schedule; returns the layout and instrumentation.
    pub fn run(&self, lean: &LeanGraph) -> (Layout2D, BatchReport) {
        self.run_inner(lean, None)
            .expect("uncontrolled run cannot be cancelled")
    }

    /// Run under a [`LayoutControl`]: progress is published after every
    /// batch and cancellation is honored at batch boundaries (the batch
    /// is this engine's synchronization unit, as the iteration barrier
    /// is the Hogwild CPU engine's). Returns `None` when cancelled.
    pub fn run_controlled(
        &self,
        lean: &LeanGraph,
        ctl: &LayoutControl,
    ) -> Option<(Layout2D, BatchReport)> {
        if ctl.is_cancelled() {
            return None;
        }
        let result = self.run_inner(lean, Some(ctl));
        if result.is_some() {
            ctl.finish();
        }
        result
    }

    fn run_inner(
        &self,
        lean: &LeanGraph,
        ctl: Option<&LayoutControl>,
    ) -> Option<(Layout2D, BatchReport)> {
        let cfg = &self.cfg;
        let n = lean.node_count();
        let init = init_linear(lean, cfg.init_jitter, cfg.seed);
        let mut xs: Vec<f64> = init.xs().to_vec();
        let mut ys: Vec<f64> = init.ys().to_vec();
        // The fp32 axis for this engine is *storage* precision, like the
        // paper's GPU coordinate tensors: every value written back to
        // the coordinate arrays is narrowed through f32. (The tensor
        // arithmetic itself stays f64 — this engine's job is modeling
        // kernel structure, not FPU throughput.)
        let quantize = cfg.precision == Precision::F32;
        let store = |v: f64| if quantize { v as f32 as f64 } else { v };
        if quantize {
            for v in xs.iter_mut().chain(ys.iter_mut()) {
                *v = *v as f32 as f64;
            }
        }

        let total_steps = lean.total_steps() as u64;
        let d_max = (lean.max_path_nuc_len() as f64).max(1.0);
        let mut op_time = [Duration::ZERO; 6];
        let mut kernels = 0u64;
        let mut batches = 0u64;
        let mut applied = 0u64;
        // Applied terms already flushed to the control's telemetry.
        let mut flushed = 0u64;

        if total_steps == 0 || lean.max_path_steps() < 2 {
            return Some((
                Layout2D::from_flat(xs, ys),
                BatchReport {
                    wall: Duration::ZERO,
                    op_time,
                    kernels_launched: 0,
                    batches: 0,
                    terms_applied: 0,
                    iters: 0,
                },
            ));
        }

        let schedule = Schedule::new(cfg, d_max);
        let sampler = PairSampler::new(lean, cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(cfg.seed);
        let steps_per_iter = cfg.steps_per_iter(total_steps);

        // Reusable workhorse buffers.
        let cap = (self.batch_size as u64).min(steps_per_iter) as usize;
        let mut terms: Vec<Term> = Vec::with_capacity(cap);
        let mut gx_i = vec![0.0f64; cap];
        let mut gy_i = vec![0.0f64; cap];
        let mut gx_j = vec![0.0f64; cap];
        let mut gy_j = vec![0.0f64; cap];
        let mut d_ref = vec![0.0f64; cap];
        let mut dist = vec![0.0f64; cap];
        let mut rx = vec![0.0f64; cap];
        let mut ry = vec![0.0f64; cap];

        // Progress is published in units of batches: the finest-grained
        // synchronous boundary this engine has.
        let batches_per_iter = steps_per_iter.div_ceil(self.batch_size as u64).max(1);
        let total_batches = batches_per_iter * cfg.iter_max as u64;

        let t0 = Instant::now();
        for iter in 0..cfg.iter_max {
            let eta = schedule.eta(iter);
            let mut remaining = steps_per_iter;
            while remaining > 0 {
                if let Some(ctl) = ctl {
                    ctl.set_progress(batches, total_batches);
                    // Batches are this engine's iteration unit: publish
                    // the live counters at the same boundary.
                    ctl.telemetry().add_applied(applied - flushed);
                    flushed = applied;
                    ctl.telemetry().set_iteration(iter, cfg.iter_max);
                    if ctl.is_cancelled() {
                        return None;
                    }
                }
                let b = (self.batch_size as u64).min(remaining) as usize;
                remaining -= b as u64;
                batches += 1;
                for &(_, l) in &LAUNCHES_PER_BATCH {
                    kernels += l;
                }

                // -- Other: host-side sampling ("dataloader") ------------
                let t = Instant::now();
                let m = sampler.sample_block(lean, &mut rng, iter, b, &mut terms);
                op_time[5] += t.elapsed();
                applied += m as u64;
                if m == 0 {
                    continue;
                }

                // -- Index: gather -------------------------------------
                let t = Instant::now();
                for (k, term) in terms.iter().enumerate() {
                    let ii = 2 * term.node_i as usize + term.end_i as usize;
                    let jj = 2 * term.node_j as usize + term.end_j as usize;
                    gx_i[k] = xs[ii];
                    gy_i[k] = ys[ii];
                    gx_j[k] = xs[jj];
                    gy_j[k] = ys[jj];
                    d_ref[k] = term.d_ref;
                }
                op_time[0] += t.elapsed();

                // -- Pow: squared distance and sqrt --------------------
                let t = Instant::now();
                elementwise(m, &mut dist, |k, out| {
                    let dx = gx_i[k] - gx_j[k];
                    let dy = gy_i[k] - gy_j[k];
                    *out = (dx * dx + dy * dy).sqrt();
                });
                op_time[1] += t.elapsed();

                // -- Mul: weights and step magnitude --------------------
                // r = μ·(dist − d)/2 / dist with μ = η/d² (cap applied in
                // the Where phase).
                let t = Instant::now();
                elementwise(m, &mut rx, |k, out| {
                    let w = 1.0 / (d_ref[k] * d_ref[k]);
                    *out = eta * w; // carries μ pre-cap
                });
                op_time[2] += t.elapsed();

                // -- Where: μ cap and zero-distance masking --------------
                let t = Instant::now();
                elementwise(m, &mut ry, |k, out| {
                    let mu = rx[k].min(1.0);
                    let dd = if dist[k] < 1e-12 { 1e-9 } else { dist[k] };
                    *out = mu * (dd - d_ref[k]) / 2.0 / dd; // scalar r
                });
                op_time[3] += t.elapsed();

                // -- Add: displacement vectors --------------------------
                let t = Instant::now();
                // rx ← r·dx, ry stays r (reused), then deltas applied in
                // the scatter.
                for k in 0..m {
                    let r = ry[k];
                    let dx = gx_i[k] - gx_j[k];
                    let dy = gy_i[k] - gy_j[k];
                    rx[k] = r * dx;
                    ry[k] = r * dy;
                }
                op_time[4] += t.elapsed();

                // -- Index: scatter (last write wins on duplicates) ------
                let t = Instant::now();
                for (k, term) in terms.iter().enumerate() {
                    let ii = 2 * term.node_i as usize + term.end_i as usize;
                    let jj = 2 * term.node_j as usize + term.end_j as usize;
                    xs[ii] = store(gx_i[k] - rx[k]);
                    ys[ii] = store(gy_i[k] - ry[k]);
                    xs[jj] = store(gx_j[k] + rx[k]);
                    ys[jj] = store(gy_j[k] + ry[k]);
                }
                op_time[0] += t.elapsed();
            }
        }
        let wall = t0.elapsed();
        if let Some(ctl) = ctl {
            ctl.telemetry().add_applied(applied - flushed);
            ctl.telemetry().set_iteration(cfg.iter_max, cfg.iter_max);
        }

        debug_assert_eq!(xs.len(), 2 * n);
        Some((
            Layout2D::from_flat(xs, ys),
            BatchReport {
                wall,
                op_time,
                kernels_launched: kernels,
                batches,
                terms_applied: applied,
                iters: cfg.iter_max,
            },
        ))
    }
}

/// Run an elementwise "kernel" over `m` slots.
///
/// Deliberately serial: the per-op timers feed the Fig. 7 breakdown, and
/// thread-pool dispatch overhead would be billed to whichever op ran
/// first rather than reflecting the op's own cost.
#[inline]
fn elementwise<F>(m: usize, out: &mut [f64], f: F)
where
    F: Fn(usize, &mut f64),
{
    for (k, o) in out[..m].iter_mut().enumerate() {
        f(k, o);
    }
}

impl LayoutEngine for BatchEngine {
    fn name(&self) -> &str {
        "batch-pytorch-style"
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
                seed: 21,
            },
        )
        .mean
    }

    #[test]
    fn converges_with_moderate_batches() {
        let lean = test_graph(300, 6, 1);
        let cfg = LayoutConfig {
            iter_max: 20,
            ..LayoutConfig::default()
        };
        let engine = BatchEngine::new(cfg, 256);
        let (layout, report) = engine.run(&lean);
        assert!(layout.all_finite());
        assert!(report.terms_applied > 0);
        let q = quality(&layout, &lean);
        assert!(q < 1.0, "stress {q}");
    }

    #[test]
    fn batch_count_matches_formula() {
        let lean = test_graph(100, 4, 2);
        let cfg = LayoutConfig {
            iter_max: 4,
            ..LayoutConfig::default()
        };
        let steps = cfg.steps_per_iter(lean.total_steps() as u64);
        let b = 300usize;
        let (_, report) = BatchEngine::new(cfg, b).run(&lean);
        let per_iter = steps.div_ceil(b as u64);
        assert_eq!(report.batches, per_iter * 4);
        let per_batch: u64 = LAUNCHES_PER_BATCH.iter().map(|&(_, l)| l).sum();
        assert_eq!(report.kernels_launched, report.batches * per_batch);
    }

    #[test]
    fn larger_batches_launch_fewer_kernels() {
        let lean = test_graph(200, 4, 3);
        let cfg = LayoutConfig {
            iter_max: 3,
            ..LayoutConfig::default()
        };
        let (_, small) = BatchEngine::new(cfg.clone(), 64).run(&lean);
        let (_, large) = BatchEngine::new(cfg, 4096).run(&lean);
        assert!(small.kernels_launched > 10 * large.kernels_launched);
        assert!(small.api_time_pct() > large.api_time_pct());
    }

    #[test]
    fn whole_iteration_batches_degrade_quality() {
        // Table III: batches at the scale of the whole step budget violate
        // the sparse-update assumption and converge worse.
        let lean = test_graph(400, 8, 4);
        let cfg = LayoutConfig {
            iter_max: 15,
            ..LayoutConfig::default()
        };
        let steps = cfg.steps_per_iter(lean.total_steps() as u64) as usize;
        let (small_l, _) = BatchEngine::new(cfg.clone(), steps / 64).run(&lean);
        let (huge_l, _) = BatchEngine::new(cfg, steps).run(&lean);
        let q_small = quality(&small_l, &lean);
        let q_huge = quality(&huge_l, &lean);
        assert!(
            q_huge > q_small,
            "huge-batch stress {q_huge} should exceed small-batch {q_small}"
        );
    }

    #[test]
    fn f32_storage_converges_and_stays_f32_representable() {
        let lean = test_graph(200, 5, 11);
        let cfg = LayoutConfig {
            iter_max: 12,
            precision: Precision::F32,
            ..LayoutConfig::default()
        };
        let (layout, _) = BatchEngine::new(cfg, 256).run(&lean);
        assert!(layout.all_finite());
        for node in 0..layout.node_count() as u32 {
            for end in [false, true] {
                let (x, y) = layout.get(node, end);
                assert_eq!(x, x as f32 as f64, "x of {node} not f32-representable");
                assert_eq!(y, y as f32 as f64);
            }
        }
        let q = quality(&layout, &lean);
        assert!(q < 1.0, "f32 batch stress {q}");
    }

    #[test]
    fn deterministic_per_seed() {
        let lean = test_graph(150, 4, 5);
        let cfg = LayoutConfig {
            iter_max: 5,
            ..LayoutConfig::default()
        };
        let (a, _) = BatchEngine::new(cfg.clone(), 128).run(&lean);
        let (b, _) = BatchEngine::new(cfg, 128).run(&lean);
        assert_eq!(a, b);
    }

    #[test]
    fn op_fractions_sum_to_one_and_index_is_significant() {
        let lean = test_graph(400, 8, 6);
        let cfg = LayoutConfig {
            iter_max: 8,
            ..LayoutConfig::default()
        };
        let (_, report) = BatchEngine::new(cfg, 1024).run(&lean);
        let total: f64 = ALL_OPS.iter().map(|&op| report.op_fraction(op)).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
        // Fig. 7: the index (gather/scatter) kernel is the largest memory
        // op. On CPU tensors it must at least be a visible share.
        assert!(
            report.op_fraction(KernelOp::Index) > 0.10,
            "index fraction {}",
            report.op_fraction(KernelOp::Index)
        );
    }

    #[test]
    fn report_helpers_are_consistent() {
        let lean = test_graph(100, 4, 7);
        let cfg = LayoutConfig {
            iter_max: 2,
            ..LayoutConfig::default()
        };
        let (_, report) = BatchEngine::new(cfg, 512).run(&lean);
        assert!(report.launch_overhead_s() > 0.0);
        assert!((0.0..=100.0).contains(&report.api_time_pct()));
        assert!(report.modeled_total_s() >= report.launch_overhead_s());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = BatchEngine::new(LayoutConfig::default(), 0);
    }

    #[test]
    fn controlled_run_completes_with_full_progress() {
        let lean = test_graph(80, 3, 8);
        let ctl = LayoutControl::new();
        let (layout, report) = BatchEngine::new(LayoutConfig::for_tests(1), 128)
            .run_controlled(&lean, &ctl)
            .expect("uncancelled run completes");
        assert!(layout.all_finite());
        assert_eq!(ctl.progress(), 1.0);
        assert!(report.batches > 0);
        // The terminal flush published every applied term.
        assert_eq!(ctl.telemetry().terms_applied(), report.terms_applied);
        let cfg = LayoutConfig::for_tests(1);
        assert_eq!(ctl.telemetry().iteration(), (cfg.iter_max, cfg.iter_max));
    }

    #[test]
    fn cancel_before_start_runs_nothing() {
        let lean = test_graph(50, 3, 9);
        let ctl = LayoutControl::new();
        ctl.cancel();
        assert!(BatchEngine::new(LayoutConfig::for_tests(1), 128)
            .run_controlled(&lean, &ctl)
            .is_none());
    }

    #[test]
    fn cancel_mid_run_stops_at_a_batch_boundary() {
        let lean = test_graph(200, 5, 10);
        // Far more iterations than we are willing to wait for: the test
        // only terminates promptly because cancellation works.
        let cfg = LayoutConfig {
            iter_max: 1_000_000,
            ..LayoutConfig::default()
        };
        let engine = BatchEngine::new(cfg, 64);
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
        assert!(ctl.progress() < 1.0, "cancelled run never reports done");
    }
}
