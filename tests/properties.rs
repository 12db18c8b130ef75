//! Property-based integration tests (proptest) on cross-crate invariants.

use proptest::prelude::*;
use rapid_pangenome_layout::core::PairSampler;
use rapid_pangenome_layout::graph::layout2d::Layout2D;
use rapid_pangenome_layout::graph::store::content_hash;
use rapid_pangenome_layout::io::{read_lay, write_lay};
use rapid_pangenome_layout::metrics::{path_stress, sampled_path_stress, SamplingConfig};
use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::rng::{Rng64, SplitMix64, StatePool, Xoshiro256Plus};
use rapid_pangenome_layout::workloads::{generate as gen_graph, PangenomeSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated graph round-trips through GFA bit-identically at the
    /// lean-structure level.
    #[test]
    fn gfa_round_trip_any_graph(sites in 5usize..120, haps in 1usize..6, seed in 0u64..1000) {
        let g = gen_graph(&PangenomeSpec::basic("p", sites, haps, seed));
        let again = parse_gfa(&write_gfa(&g)).unwrap();
        let a = LeanGraph::from_graph(&g);
        let b = LeanGraph::from_graph(&again);
        prop_assert_eq!(a.node_len, b.node_len);
        prop_assert_eq!(a.step_node, b.step_node);
        prop_assert_eq!(a.step_pos, b.step_pos);
        prop_assert_eq!(a.step_rev, b.step_rev);
    }

    /// Any layout round-trips through the .lay binary format exactly.
    #[test]
    fn lay_round_trip_any_layout(coords in prop::collection::vec(-1e12f64..1e12, 0..64)) {
        let n = coords.len() / 2 * 2; // even prefix
        let xs: Vec<f64> = coords[..n].to_vec();
        let ys: Vec<f64> = coords[..n].iter().map(|v| -v).collect();
        let layout = Layout2D::from_flat(xs, ys);
        prop_assert_eq!(read_lay(&write_lay(&layout)).unwrap(), layout);
    }

    /// Path-index positions are strictly increasing prefix sums along
    /// every path, ending at the path's nucleotide length.
    #[test]
    fn path_positions_are_prefix_sums(sites in 5usize..100, seed in 0u64..500) {
        let g = gen_graph(&PangenomeSpec::basic("p", sites, 3, seed));
        let idx = PathIndex::build(&g);
        for p in 0..g.path_count() as u32 {
            let mut expect = 0u64;
            for (i, h) in idx.handles(p).iter().enumerate() {
                prop_assert_eq!(idx.pos_at(p, i), expect);
                expect += g.node_len(h.id()) as u64;
            }
            prop_assert_eq!(idx.path_nuc_len(p), expect);
        }
    }

    /// Scaling a perfect single-path line embedding by s yields exact
    /// path stress (s−1)² — for both the exact and sampled metrics.
    #[test]
    fn stress_scaling_identity(s in 0.25f64..4.0, n in 5usize..40) {
        use rapid_pangenome_layout::graph::model::{GraphBuilder, Handle};
        let mut b = GraphBuilder::new();
        let ids: Vec<u32> = (0..n).map(|i| b.add_node_len(1 + (i as u32 % 4))).collect();
        b.add_path("p", ids.iter().map(|&i| Handle::forward(i)).collect());
        b.ensure_path_edges();
        let lean = LeanGraph::from_graph(&b.build());
        let mut layout = Layout2D::zeros(lean.node_count());
        for i in 0..lean.steps_in(0) {
            let st = lean.flat_step(0, i);
            let node = lean.node_of_flat(st);
            layout.set(node, false, lean.endpoint_pos_of_flat(st, false) as f64 * s, 0.0);
            layout.set(node, true, lean.endpoint_pos_of_flat(st, true) as f64 * s, 0.0);
        }
        let expect = (s - 1.0) * (s - 1.0);
        let exact = path_stress(&layout, &lean).stress;
        prop_assert!((exact - expect).abs() < 1e-9, "exact {} vs {}", exact, expect);
        let sampled = sampled_path_stress(&layout, &lean, SamplingConfig::default()).mean;
        prop_assert!((sampled - expect).abs() < 1e-9, "sampled {} vs {}", sampled, expect);
    }

    /// State pools in both layouts generate identical streams for any
    /// (size, seed) — the coalesced-random-states functional invariant.
    #[test]
    fn state_pool_layout_equivalence(n in 1usize..80, seed in 0u64..1000, draws in 1usize..40) {
        let mut aos = StatePool::aos(n, seed);
        let mut soa = StatePool::coalesced(n, seed);
        for _ in 0..draws {
            for i in 0..n {
                prop_assert_eq!(aos.next_u32(i), soa.next_u32(i));
            }
        }
    }

    /// gen_below never exceeds its bound and hits both halves of the
    /// range for non-trivial bounds.
    #[test]
    fn gen_below_bounds(seed in 0u64..1000, bound in 2u64..1_000_000) {
        let mut rng = Xoshiro256Plus::seed_from_u64(seed);
        let mut low = false;
        let mut high = false;
        for _ in 0..256 {
            let x = rng.gen_below(bound);
            prop_assert!(x < bound);
            if x < bound / 2 { low = true; } else { high = true; }
        }
        prop_assert!(low && high, "256 draws should cover both halves");
    }

    /// SplitMix64 streams from distinct seeds differ somewhere early.
    #[test]
    fn splitmix_seed_sensitivity(a in 0u64..10_000, b in 0u64..10_000) {
        prop_assume!(a != b);
        let mut ra = SplitMix64::new(a);
        let mut rb = SplitMix64::new(b);
        let same = (0..8).all(|_| ra.next() == rb.next());
        prop_assert!(!same);
    }
}

/// `lean` with two more paths: one of a single step, which every draw
/// that picks it must reject, and one of two steps, whose cooled draws
/// take the Zipf sampler's one-rank space.
fn with_short_paths(mut lean: LeanGraph) -> LeanGraph {
    for nodes in [&[0u32][..], &[0, 1]] {
        let mut pos = 0u64;
        for &node in nodes {
            lean.step_node.push(node);
            lean.step_rev.push(false);
            lean.step_pos.push(pos);
            pos += lean.node_len[node as usize] as u64;
        }
        lean.step_offset.push(lean.step_node.len() as u32);
        lean.path_nuc_len.push(pos);
    }
    lean
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block sampler returns exactly the terms that `want` calls of
    /// the per-term sampler return, and leaves the generator where they
    /// leave it: for any graph, block size, both sides of the cooling
    /// point and both pair-selection schemes. A small exact Zipf table
    /// puts most path lengths in its quantized range.
    #[test]
    fn block_sampling_equals_per_term_sampling(
        sites in 5usize..120,
        haps in 1usize..6,
        seed in 0u64..1000,
        want in 1usize..601,
        zipf_space_max in 2u64..200,
        fixed_hop in any::<bool>(),
        hop in 1u32..40,
        short_paths in any::<bool>(),
    ) {
        let lean = LeanGraph::from_graph(&gen_graph(&PangenomeSpec::basic("p", sites, haps, seed)));
        let lean = if short_paths { with_short_paths(lean) } else { lean };
        let cfg = LayoutConfig {
            iter_max: 10,
            zipf_space_max,
            zipf_quant: 7,
            pair_selection: if fixed_hop { PairSelection::FixedHop(hop) } else { PairSelection::PgSgd },
            ..LayoutConfig::default()
        };
        let sampler = PairSampler::new(&lean, &cfg);
        let cooling = sampler.first_cooling_iter();
        let mut per_term = Xoshiro256Plus::seed_from_u64(seed);
        let mut block_rng = Xoshiro256Plus::seed_from_u64(seed);
        let mut block = Vec::new();
        for iter in [cooling - 1, cooling] {
            let expect: Vec<_> = (0..want)
                .filter_map(|_| sampler.sample(&lean, &mut per_term, iter))
                .collect();
            let got = sampler.sample_block(&lean, &mut block_rng, iter, want, &mut block);
            prop_assert_eq!(got, block.len());
            prop_assert_eq!(&block, &expect, "iter {}", iter);
            prop_assert_eq!(per_term.next_u64(), block_rng.next_u64());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The CPU engine never produces non-finite coordinates, for any
    /// small graph and any seed.
    #[test]
    fn cpu_engine_always_finite(sites in 10usize..80, seed in 0u64..200) {
        let g = gen_graph(&PangenomeSpec::basic("p", sites, 3, seed));
        let lean = LeanGraph::from_graph(&g);
        let cfg = LayoutConfig { iter_max: 6, threads: 2, seed, ..Default::default() };
        let (layout, _) = CpuEngine::new(cfg).run(&lean);
        prop_assert!(layout.all_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A client key survives the `/v1` query form unchanged: `%`, `+`,
    /// `&`, `=`, spaces and multi-byte characters included.
    #[test]
    fn client_keys_round_trip_the_query_form(key in "[a-zA-Z0-9%+&= ~._/é…中🧬-]{1,24}") {
        let spec = JobSpec::by_ref("cpu", content_hash(b"g")).client(key.clone());
        let back = JobSpec::from_query(&spec.to_query()).unwrap();
        prop_assert_eq!(back.client, Some(key));
    }
}
