//! Design-choice ablation benchmarks — the alternatives this
//! repository's data structures were chosen over.
//!
//! * O(1) alias-table path selection vs the naive O(P) cumulative scan
//!   (Alg. 1 line 5 runs billions of times; this is why the alias table
//!   exists).
//! * Precomputed ("dirty") ζ tables vs exact ζ summation per Zipf draw
//!   (odgi's quantized-zeta trick).
//! * AoS vs SoA coordinate loads at the single-access level (the
//!   microcost behind the Table IX CPU rows).
//! * The full per-term sampling cost, which bounds the engines' step
//!   throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use layout_core::coords::{CoordStore, DataLayout};
use layout_core::sampler::PairSampler;
use layout_core::LayoutConfig;
use pangraph::lean::LeanGraph;
use pgrng::{zipf, AliasTable, Rng64, Xoshiro256Plus, ZipfTable};
use workloads::{generate, PangenomeSpec};

/// Naive length-proportional path selection: linear scan of cumulative
/// weights (what the alias table replaces).
fn linear_scan_select(cum: &[f64], total: f64, rng: &mut Xoshiro256Plus) -> usize {
    let u = rng.next_f64() * total;
    cum.iter().position(|&c| c >= u).unwrap_or(cum.len() - 1)
}

fn bench_path_selection(c: &mut Criterion) {
    let mut grp = c.benchmark_group("ablation/path_selection");
    grp.throughput(Throughput::Elements(1));
    for n_paths in [48usize, 1024] {
        let weights: Vec<f64> = (1..=n_paths).map(|i| (i % 200 + 5) as f64).collect();
        let alias = AliasTable::new(&weights);
        let mut rng = Xoshiro256Plus::seed_from_u64(1);
        grp.bench_function(format!("alias_table_{n_paths}"), |b| {
            b.iter(|| black_box(alias.sample(&mut rng)))
        });
        let mut cum = Vec::with_capacity(n_paths);
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cum.push(acc);
        }
        grp.bench_function(format!("linear_scan_{n_paths}"), |b| {
            b.iter(|| black_box(linear_scan_select(&cum, acc, &mut rng)))
        });
    }
    grp.finish();
}

fn bench_zeta_strategy(c: &mut Criterion) {
    let mut grp = c.benchmark_group("ablation/zipf_zeta");
    grp.throughput(Throughput::Elements(1));
    let table = ZipfTable::with_defaults(50_000);
    let mut rng = Xoshiro256Plus::seed_from_u64(2);
    grp.bench_function("precomputed_dirty_zeta", |b| {
        b.iter(|| black_box(table.sample(&mut rng, 50_000)))
    });
    grp.bench_function("exact_zeta_per_draw_n2000", |b| {
        // Exact ζ is O(n) per draw — benchmark at a reduced n so the
        // comparison completes; the gap only grows with n.
        b.iter(|| {
            let zetan = zipf::zeta(2000, 0.99);
            black_box(zipf::sample_zipf(&mut rng, 2000, 0.99, zetan))
        })
    });
    grp.finish();
}

fn bench_coord_loads(c: &mut Criterion) {
    let g = generate(&PangenomeSpec::basic("a", 2000, 6, 3));
    let lean = LeanGraph::from_graph(&g);
    let n = lean.node_count() as u32;
    let mut grp = c.benchmark_group("ablation/coord_load");
    grp.throughput(Throughput::Elements(1));
    for (name, layout) in [
        ("soa", DataLayout::OriginalSoa),
        ("aos", DataLayout::CacheFriendlyAos),
    ] {
        let store = CoordStore::new(layout, &lean);
        let mut rng = Xoshiro256Plus::seed_from_u64(4);
        grp.bench_function(name, |b| {
            b.iter(|| {
                let node = rng.gen_below(n as u64) as u32;
                let end = rng.flip();
                black_box((store.node_len(node), store.load(node, end)))
            })
        });
    }
    grp.finish();
}

fn bench_term_sampling(c: &mut Criterion) {
    let g = generate(&PangenomeSpec::basic("a", 2000, 6, 5));
    let lean = LeanGraph::from_graph(&g);
    let cfg = LayoutConfig::default();
    let sampler = PairSampler::new(&lean, &cfg);
    let mut rng = Xoshiro256Plus::seed_from_u64(6);
    let mut grp = c.benchmark_group("ablation/term_sampling");
    grp.throughput(Throughput::Elements(1));
    grp.bench_function("uniform_phase_iter0", |b| {
        b.iter(|| black_box(sampler.sample(&lean, &mut rng, 0)))
    });
    grp.bench_function("cooling_phase_last_iter", |b| {
        b.iter(|| black_box(sampler.sample(&lean, &mut rng, cfg.iter_max - 1)))
    });
    grp.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_path_selection, bench_zeta_strategy, bench_coord_loads, bench_term_sampling
}
criterion_main!(benches);
