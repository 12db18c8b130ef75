//! # layout-core — path-guided SGD pangenome graph layout
//!
//! The paper's primary algorithm (Alg. 1), implemented as a small family of
//! engines over the same sampling and update-step machinery:
//!
//! * [`cpu::CpuEngine`] — a faithful port of the `odgi-layout`
//!   multithreaded CPU baseline: Hogwild! lock-free updates on relaxed
//!   atomics, Xoshiro256+ per-thread streams, Zipf-cooled pair selection,
//!   and a per-iteration barrier (mirroring odgi's iteration structure and
//!   the GPU port's one-kernel-per-iteration design). Supports both the
//!   original struct-of-arrays coordinate layout and the paper's
//!   cache-friendly array-of-structs layout ([`coords::DataLayout`]),
//!   which is the CPU half of the Table IX ablation, in `f64` or `f32`
//!   ([`coords::Precision`]). Every run applies its term blocks through
//!   one scalar Hogwild loop, [`coords::CoordStore::apply_block`].
//! * [`batch::BatchEngine`] — the PyTorch-style implementation of paper
//!   Sec. IV: synchronous mini-batch SGD assembled from tensor-like
//!   "kernel ops" (`index` gather/scatter, `pow`, `mul`, `where`, `add`),
//!   with per-op timing (Fig. 7), kernel-launch accounting (Table IV) and
//!   the batch-size/quality trade-off of Table III.
//!
//! The GPU-simulator engines (crate `gpu-sim`) reuse [`sampler`],
//! [`schedule`] and [`step`] so all engines optimize the identical
//! objective.

pub mod atomicf;
pub mod batch;
pub mod config;
pub mod control;
pub mod coords;
pub mod cpu;
pub mod init;
pub mod sampler;
pub mod scalar;
pub mod schedule;
pub mod sort1d;
pub mod step;

pub use batch::{BatchEngine, BatchReport, KernelOp};
pub use config::{LayoutConfig, PairSelection, TERM_BLOCK};
pub use control::{EngineTelemetry, LayoutControl};
pub use coords::{CoordStore, DataLayout, Precision};
pub use cpu::{CpuEngine, RunReport};
pub use init::{init_linear, init_random};
pub use sampler::{PairSampler, Term};
pub use schedule::Schedule;
pub use sort1d::{order_quality, path_sgd_order};

use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;

/// Common engine interface: consume a lean graph, produce a 2D layout.
pub trait LayoutEngine {
    /// Engine name for reports.
    fn name(&self) -> &str;
    /// Run the full layout schedule and return the result.
    fn layout(&self, lean: &LeanGraph) -> Layout2D;
    /// Progress- and cancellation-aware entry point, used by schedulers
    /// such as `pgl-service`. Returns `None` when the run was cancelled.
    ///
    /// The default implementation wraps [`LayoutEngine::layout`]: it
    /// honors a cancel requested *before* the run starts and reports
    /// completion afterwards, so engines keep working unmodified.
    /// Engines that can do better (see `CpuEngine`) override this to
    /// publish per-iteration progress and stop at iteration boundaries.
    fn layout_controlled(
        &self,
        lean: &LeanGraph,
        ctl: &control::LayoutControl,
    ) -> Option<Layout2D> {
        if ctl.is_cancelled() {
            return None;
        }
        let layout = self.layout(lean);
        ctl.finish();
        if ctl.is_cancelled() {
            None
        } else {
            Some(layout)
        }
    }
}

#[cfg(test)]
mod engine_trait_tests {
    use super::*;
    use workloads::{generate, PangenomeSpec};

    #[test]
    fn cpu_engine_implements_layout_engine() {
        let g = generate(&PangenomeSpec::basic("t", 60, 4, 1));
        let lean = LeanGraph::from_graph(&g);
        let cfg = LayoutConfig::for_tests(2);
        let engine = CpuEngine::new(cfg);
        let e: &dyn LayoutEngine = &engine;
        assert_eq!(e.name(), "cpu-hogwild");
        let layout = e.layout(&lean);
        assert!(layout.all_finite());
    }

    #[test]
    fn default_layout_controlled_works_for_unmodified_engines() {
        // An engine that only implements `layout`: the trait default
        // must run it to completion and honor pre-cancellation.
        struct PlainEngine(CpuEngine);
        impl LayoutEngine for PlainEngine {
            fn name(&self) -> &str {
                "plain"
            }
            fn layout(&self, lean: &LeanGraph) -> Layout2D {
                self.0.layout(lean)
            }
        }
        let g = generate(&PangenomeSpec::basic("t", 40, 3, 2));
        let lean = LeanGraph::from_graph(&g);
        let engine = PlainEngine(CpuEngine::new(LayoutConfig::for_tests(1)));
        let e: &dyn LayoutEngine = &engine;

        let ctl = LayoutControl::new();
        let layout = e.layout_controlled(&lean, &ctl).expect("completes");
        assert!(layout.all_finite());
        assert_eq!(ctl.progress(), 1.0);

        let cancelled = LayoutControl::new();
        cancelled.cancel();
        assert!(e.layout_controlled(&lean, &cancelled).is_none());
    }

    #[test]
    fn batch_and_gpu_overrides_report_real_progress() {
        // The service-facing satellite of the progress/cancel extension:
        // both engines publish fractional progress and honor
        // mid-run cancellation instead of the before/after-only default.
        let g = generate(&PangenomeSpec::basic("t", 60, 3, 3));
        let lean = LeanGraph::from_graph(&g);
        let engine = BatchEngine::new(LayoutConfig::for_tests(1), 64);
        let e: &dyn LayoutEngine = &engine;
        let ctl = LayoutControl::new();
        assert!(e.layout_controlled(&lean, &ctl).is_some());
        assert_eq!(ctl.progress(), 1.0);
    }
}
