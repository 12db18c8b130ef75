//! Hot-path acceptance tests for the zero-CAS / f32 / term-block SGD
//! kernel: bitwise determinism of single-threaded runs across the
//! batched kernel, and quality parity of the fast paths (f32 storage,
//! multi-threaded Hogwild) against the faithful f64 single-thread
//! baseline on a bundled workload preset.

use layout_core::{BatchEngine, CpuEngine, DataLayout, LayoutConfig, Precision};
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pangraph::store::content_hash;
use pgio::write_lay;
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
    // The `layout-cache` benchmark's configuration, held to 1-thread
    // layouts of the same seeds. At the default seed the 1-thread
    // baseline sits low and the 2-thread run-to-run spread straddles
    // the bar; the median paired ratio over three seeds does not.
    let default_seed = LayoutConfig::default().seed;
    let mut ratios: Vec<f64> = [default_seed, 1, 2]
        .into_iter()
        .map(|seed| {
            let run = |threads| {
                let config = LayoutConfig {
                    seed,
                    ..full(threads, Precision::F64)
                };
                stress(&CpuEngine::new(config).run(&lean).0, &lean)
            };
            let one = if seed == default_seed {
                baseline
            } else {
                run(1)
            };
            run(2) / one
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    assert!(
        ratios[1] <= 1.05,
        "f64 two-thread: median stress ratio {:.4} to 1-thread layouts of the same seeds \
         exceeds 1.05 (ratios {ratios:?})",
        ratios[1]
    );
    // The small-graph row, held to its own 1-thread layout: this 2.2k-node
    // MHC slice once laid out 4-5x worse at 2 threads than at 1, and the
    // two now score within about 1.2x of each other. The bar leaves room
    // for Hogwild's run-to-run spread, not for that loss. It runs last,
    // so it adds no load while the rows above run.
    let small = LeanGraph::from_graph(&generate(&workloads::mhc_like(0.01)));
    let small_stress = |threads| {
        let layout = CpuEngine::new(full(threads, Precision::F64)).run(&small).0;
        let config = SamplingConfig {
            samples_per_node: 100,
            seed: 0xACCE,
        };
        sampled_path_stress(&layout, &small, config).mean
    };
    let (one, two) = (small_stress(1), small_stress(2));
    assert!(one.is_finite() && one > 0.0);
    assert!(
        two <= one * 1.5,
        "small graph: 2-thread stress {two:.6} exceeds 1.5x the 1-thread {one:.6}"
    );
}

#[test]
fn single_thread_layouts_match_their_golden_digests() {
    // Pins the random stream end to end: which terms are drawn, in which
    // order, and their reference distances. HLA-DRB1's paths (~3.2k
    // steps) are longer than the 1,000-entry exact Zipf table, so the
    // quantized ζ/η lookup is covered too. The digests were recorded
    // before the sampler was split into a draw pass and a gather pass;
    // any change to how terms are sampled changes them.
    let lean = parity_graph();
    let base = LayoutConfig {
        threads: 1,
        iter_max: 10,
        ..LayoutConfig::default()
    };
    let digest = |layout: &Layout2D| content_hash(&write_lay(layout)).hex();
    let cpu = |cfg: LayoutConfig| digest(&CpuEngine::new(cfg).run(&lean).0);
    let got = [
        ("cpu f64 AoS", cpu(base.clone())),
        (
            "cpu f32",
            cpu(LayoutConfig {
                precision: Precision::F32,
                ..base.clone()
            }),
        ),
        (
            "cpu SoA",
            cpu(LayoutConfig {
                data_layout: DataLayout::OriginalSoa,
                ..base.clone()
            }),
        ),
        (
            "batch 256",
            digest(&BatchEngine::new(base, 256).run(&lean).0),
        ),
    ];
    // f64 AoS and SoA run the same arithmetic, so they share a digest.
    let want = [
        ("cpu f64 AoS", "992ecc88898b782635103fba3e279f2d"),
        ("cpu f32", "7b34bce205ec2e4b26f89ecf2081e494"),
        ("cpu SoA", "992ecc88898b782635103fba3e279f2d"),
        ("batch 256", "6e694f2fc47435771877c4bad9752a18"),
    ];
    assert_eq!(got, want.map(|(label, d)| (label, d.to_string())));
}
