//! 1D path-guided SGD node sorting.
//!
//! The PG-SGD paper the layout algorithm comes from (Heumos et al.,
//! *Bioinformatics* 2024 — the SC paper's reference \[20\]) defines the
//! method in both one and two dimensions: the 1D variant orders the
//! graph's nodes along a line so that node rank approximates path
//! position, and odgi pipelines run it (`odgi sort -p Ygs`) **before**
//! 2D layout — the linear initialization (`init_linear`) places nodes by
//! id, so a well-sorted graph starts the 2D optimization near the
//! backbone solution.
//!
//! The implementation reuses the 2D machinery: the same [`PairSampler`]
//! term selection and learning-rate [`Schedule`], with scalar positions
//! and the 1D update `x ← x ∓ μ·(|Δ| − d)/2`.

use crate::config::{LayoutConfig, TERM_BLOCK};
use crate::sampler::PairSampler;
use crate::schedule::Schedule;
use pangraph::lean::LeanGraph;
use pangraph::NodeId;
use pgrng::Xoshiro256Plus;

/// Run 1D path-guided SGD and return the permutation `new_id_of[old]`.
///
/// Single-threaded and bit-deterministic for a given seed (sorting is a
/// preprocessing step; its cost is a small fraction of 2D layout).
pub fn path_sgd_order(lean: &LeanGraph, cfg: &LayoutConfig) -> Vec<NodeId> {
    let n = lean.node_count();
    if n == 0 {
        return Vec::new();
    }
    // Initial 1D positions: current id order (node midpoints).
    let mut x = vec![0.0f64; n];
    let mut offset = 0.0;
    for (i, &len) in lean.node_len.iter().enumerate() {
        x[i] = offset + len as f64 / 2.0;
        offset += len as f64;
    }

    if lean.max_path_steps() >= 2 {
        let sampler = PairSampler::new(lean, cfg);
        let schedule = Schedule::new(cfg, (lean.max_path_nuc_len() as f64).max(1.0));
        let mut rng = Xoshiro256Plus::seed_from_u64(cfg.seed ^ 0x1D50);
        let steps_per_iter = cfg.steps_per_iter(lean.total_steps() as u64);
        let mut block = Vec::with_capacity(TERM_BLOCK.min(steps_per_iter as usize));
        for iter in 0..cfg.iter_max {
            let eta = schedule.eta(iter);
            // Sampling never reads positions, so sampling a block before
            // applying it draws and applies the same terms in the same
            // order as interleaving them.
            let mut left = steps_per_iter;
            while left > 0 {
                let want = left.min(TERM_BLOCK as u64) as usize;
                left -= want as u64;
                sampler.sample_block(lean, &mut rng, iter, want, &mut block);
                for t in &block {
                    let (i, j) = (t.node_i as usize, t.node_j as usize);
                    let w = 1.0 / (t.d_ref * t.d_ref);
                    let mu = (eta * w).min(1.0);
                    let delta = x[i] - x[j];
                    let mag = delta.abs().max(1e-9);
                    let r = mu * (mag - t.d_ref) / 2.0 * (delta / mag);
                    x[i] -= r;
                    x[j] += r;
                }
            }
        }
    }

    // The 1D solution is unique only up to reflection; canonicalize so
    // node positions correlate positively with path positions.
    let mean_pos = mean_path_positions(lean);
    let mut corr_terms = (Vec::new(), Vec::new());
    for (i, mp) in mean_pos.iter().enumerate() {
        if let Some(p) = mp {
            corr_terms.0.push(x[i]);
            corr_terms.1.push(*p);
        }
    }
    if pearson(&corr_terms.0, &corr_terms.1) < 0.0 {
        for v in &mut x {
            *v = -*v;
        }
    }

    // Rank nodes by final position (stable on ties by old id).
    let mut by_pos: Vec<NodeId> = (0..n as NodeId).collect();
    by_pos.sort_by(|&a, &b| x[a as usize].total_cmp(&x[b as usize]).then(a.cmp(&b)));
    let mut new_id_of = vec![0 as NodeId; n];
    for (rank, &old) in by_pos.iter().enumerate() {
        new_id_of[old as usize] = rank as NodeId;
    }
    new_id_of
}

/// Mean path position per node (`None` for nodes no path visits, e.g.
/// rare alleles no sampled haplotype carries).
fn mean_path_positions(lean: &LeanGraph) -> Vec<Option<f64>> {
    let n = lean.node_count();
    let mut pos_sum = vec![0.0f64; n];
    let mut pos_cnt = vec![0u32; n];
    for s in 0..lean.total_steps() {
        let node = lean.node_of_flat(s) as usize;
        pos_sum[node] += lean.pos_of_flat(s) as f64;
        pos_cnt[node] += 1;
    }
    (0..n)
        .map(|i| (pos_cnt[i] > 0).then(|| pos_sum[i] / pos_cnt[i] as f64))
        .collect()
}

/// Spearman-style order quality: the correlation between node id and
/// mean path position, over path-visited nodes. 1.0 = nodes numbered
/// exactly in path order. Used to verify sorting (and exposed for
/// pipeline diagnostics).
pub fn order_quality(lean: &LeanGraph) -> f64 {
    let mean_pos = mean_path_positions(lean);
    let mut ids = Vec::new();
    let mut pos = Vec::new();
    for (i, mp) in mean_pos.iter().enumerate() {
        if let Some(p) = mp {
            ids.push(i as f64);
            pos.push(*p);
        }
    }
    pearson(&ids, &pos)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in xs.iter().zip(ys) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::lean::LeanGraph;
    use pgrng::Rng64;
    use workloads::{generate, PangenomeSpec};

    fn shuffled_graph(seed: u64) -> (pangraph::VariationGraph, pangraph::VariationGraph) {
        let g = generate(&PangenomeSpec::basic("sort", 300, 5, seed));
        // Shuffle node ids with a Fisher-Yates permutation.
        let n = g.node_count() as u32;
        let mut perm: Vec<u32> = (0..n).collect();
        let mut rng = Xoshiro256Plus::seed_from_u64(seed ^ 0xFFFF);
        for i in (1..n as usize).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let shuffled = g.permute_nodes(&perm);
        (g, shuffled)
    }

    fn sort_cfg() -> LayoutConfig {
        LayoutConfig {
            iter_max: 20,
            ..LayoutConfig::default()
        }
    }

    #[test]
    fn sorting_recovers_path_order_from_a_shuffle() {
        let (_, shuffled) = shuffled_graph(3);
        let lean = LeanGraph::from_graph(&shuffled);
        let before = order_quality(&lean);
        let order = path_sgd_order(&lean, &sort_cfg());
        let sorted = shuffled.permute_nodes(&order);
        let after = order_quality(&LeanGraph::from_graph(&sorted));
        assert!(
            after > 0.95,
            "sorted order quality {after:.3} (was {before:.3})"
        );
        assert!(after > before.abs());
    }

    #[test]
    fn generated_graphs_are_already_near_sorted() {
        // The generator emits nodes in backbone order, so quality starts
        // high — and sorting must not destroy it.
        let g = generate(&PangenomeSpec::basic("s2", 200, 4, 9));
        let lean = LeanGraph::from_graph(&g);
        assert!(order_quality(&lean) > 0.95);
        let order = path_sgd_order(&lean, &sort_cfg());
        let sorted = g.permute_nodes(&order);
        assert!(order_quality(&LeanGraph::from_graph(&sorted)) > 0.95);
    }

    #[test]
    fn sorting_improves_2d_layout_convergence() {
        // The pipeline motivation: linear init on a sorted graph starts
        // the 2D optimization near the solution.
        use crate::cpu::CpuEngine;
        use pgmetrics::{sampled_path_stress, SamplingConfig};
        let (_, shuffled) = shuffled_graph(11);
        let lean_bad = LeanGraph::from_graph(&shuffled);
        let order = path_sgd_order(&lean_bad, &sort_cfg());
        let lean_good = LeanGraph::from_graph(&shuffled.permute_nodes(&order));

        // Few iterations: the head start must show.
        let cfg = LayoutConfig {
            iter_max: 3,
            threads: 1,
            ..LayoutConfig::default()
        };
        let q_bad = {
            let (layout, _) = CpuEngine::new(cfg.clone()).run(&lean_bad);
            sampled_path_stress(&layout, &lean_bad, SamplingConfig::default()).mean
        };
        let q_good = {
            let (layout, _) = CpuEngine::new(cfg.clone()).run(&lean_good);
            sampled_path_stress(&layout, &lean_good, SamplingConfig::default()).mean
        };
        assert!(
            q_good < q_bad,
            "sorted graph should converge faster: {q_good} vs {q_bad}"
        );
    }

    #[test]
    fn order_is_a_permutation_and_deterministic() {
        let (_, shuffled) = shuffled_graph(5);
        let lean = LeanGraph::from_graph(&shuffled);
        let a = path_sgd_order(&lean, &sort_cfg());
        let b = path_sgd_order(&lean, &sort_cfg());
        assert_eq!(a, b);
        let mut seen = vec![false; a.len()];
        for &v in &a {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn empty_and_degenerate_graphs_are_safe() {
        use pangraph::model::{GraphBuilder, Handle};
        let mut b = GraphBuilder::new();
        let a = b.add_node_len(3);
        b.add_path("p", vec![Handle::forward(a)]);
        let lean = LeanGraph::from_graph(&b.build());
        let order = path_sgd_order(&lean, &sort_cfg());
        assert_eq!(order, vec![0]);
    }
}
