//! Hot-path acceptance tests for the zero-CAS / f32 / term-block SGD
//! kernel: bitwise determinism of single-threaded runs across the
//! batched kernel, and quality parity of the fast paths (f32 storage,
//! multi-threaded Hogwild) against the faithful f64 single-thread
//! baseline on a bundled workload preset.

use layout_core::{CpuEngine, LayoutConfig, Precision};
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgmetrics::{sampled_path_stress, SamplingConfig};
use workloads::generate;

fn preset_graph() -> LeanGraph {
    // The MHC preset at small scale: a real workload shape (variant
    // sites, SVs, loops, ~7 haplotype paths) that still converges in
    // seconds under the debug profile.
    LeanGraph::from_graph(&generate(&workloads::mhc_like(0.005)))
}

fn parity_graph() -> LeanGraph {
    // Table I's HLA-DRB1 preset at full scale: dense variant sites over
    // 12 haplotype paths. Its full 30-iteration schedule converges
    // tightly (run-to-run sampled stress varies ~2%), which is what a
    // 5% parity bar needs — the sparser MHC preset's stress estimator
    // is heavy-tailed and seed-dominated at test scale.
    LeanGraph::from_graph(&generate(&workloads::hla_drb1()))
}

fn cfg(threads: usize, precision: Precision) -> LayoutConfig {
    LayoutConfig {
        threads,
        precision,
        iter_max: 20,
        ..LayoutConfig::default()
    }
}

fn stress(layout: &Layout2D, lean: &LeanGraph) -> f64 {
    sampled_path_stress(
        layout,
        lean,
        SamplingConfig {
            samples_per_node: 50,
            seed: 0xACCE,
        },
    )
    .mean
}

#[test]
fn single_thread_runs_are_bitwise_deterministic_across_the_batched_kernel() {
    let lean = preset_graph();
    for precision in [Precision::F64, Precision::F32] {
        let a = CpuEngine::new(cfg(1, precision)).run(&lean).0;
        let b = CpuEngine::new(cfg(1, precision)).run(&lean).0;
        assert_eq!(
            a, b,
            "{precision:?}: single-thread runs must be bit-identical"
        );
        assert!(a.all_finite());
    }
}

#[test]
fn term_block_size_is_invisible_to_single_thread_results() {
    // Sampling never reads coordinates, so the block boundary cannot
    // change which terms are drawn or the order they are applied in.
    let lean = preset_graph();
    let mut small = cfg(1, Precision::F64);
    small.term_block = 3;
    small.iter_max = 5;
    let mut big = small.clone();
    big.term_block = 4096;
    let a = CpuEngine::new(small).run(&lean).0;
    let b = CpuEngine::new(big).run(&lean).0;
    assert_eq!(a, b, "term block is purely a performance knob");
}

#[test]
fn fast_paths_reach_stress_parity_with_the_f64_single_thread_baseline() {
    // The acceptance bar of the hot-path overhaul: racing threads and
    // fp32 coordinates are performance axes, not quality axes. Each
    // fast configuration must land within 5% of the faithful baseline's
    // sampled path stress on a workload preset (HLA-DRB1, full
    // schedule).
    let lean = parity_graph();
    let full = |threads, precision| LayoutConfig {
        threads,
        precision,
        ..LayoutConfig::default()
    };
    let baseline = {
        let layout = CpuEngine::new(full(1, Precision::F64)).run(&lean).0;
        stress(&layout, &lean)
    };
    assert!(baseline.is_finite() && baseline > 0.0);
    for (label, config) in [
        ("f32 single-thread", full(1, Precision::F32)),
        // The `layout-cache` benchmark's configuration.
        ("f64 two-thread", full(2, Precision::F64)),
        ("f64 four-thread", full(4, Precision::F64)),
        ("f32 four-thread", full(4, Precision::F32)),
    ] {
        let layout = CpuEngine::new(config).run(&lean).0;
        let s = stress(&layout, &lean);
        assert!(
            s <= baseline * 1.05,
            "{label}: stress {s:.6} exceeds 105% of baseline {baseline:.6}"
        );
    }
}
