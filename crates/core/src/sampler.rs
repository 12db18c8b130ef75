//! Term sampling — Alg. 1 lines 5–13, shared by every engine.
//!
//! One *term* is a pair of visualization points on the same path:
//!
//! 1. pick a path with probability ∝ |p| (alias table, O(1));
//! 2. pick the first step uniformly;
//! 3. *cooling* (unconditionally in the second half of the schedule, by
//!    coin flip before): pick the second step at a Zipf-distributed rank
//!    distance — this refines local structure; otherwise pick it
//!    uniformly — this establishes global structure;
//! 4. flip a coin per node for which segment endpoint to move;
//! 5. compute the reference distance from the path index.
//!
//! Terms with `d_ref = 0` (coincident endpoints) are rejected, as in
//! odgi-layout.
//!
//! Steps 1–4 are the *draw*: they consume the random stream and read
//! only the alias table and a small per-path record (step offset, step
//! count, and the Zipf parameters of the path's space). Step 5 is the
//! *gather*: it reads step positions, node ids and node lengths — the
//! graph-sized arrays, which miss cache on large graphs. A block is
//! sampled in two passes, all draws first and then all gathers, so the
//! gathers of a block do not wait on each other and the core keeps many
//! of those reads in flight.

use crate::config::{LayoutConfig, PairSelection};
use pangraph::lean::LeanGraph;
use pgrng::{AliasTable, Rng64, ZipfParams, ZipfTable};

/// One sampled SGD term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// Flat step index of the first node's step.
    pub s_i: usize,
    /// Flat step index of the second node's step.
    pub s_j: usize,
    /// Node ids (cached to save a lookup in the hot loop).
    pub node_i: u32,
    /// Second node id.
    pub node_j: u32,
    /// Chosen endpoint of node i (`true` = segment end).
    pub end_i: bool,
    /// Chosen endpoint of node j.
    pub end_j: bool,
    /// Reference distance (positive).
    pub d_ref: f64,
}

/// What the draw reads about one path.
#[derive(Debug, Clone, Copy)]
struct PathRecord {
    /// Flat index of the path's first step.
    offset: u32,
    /// Steps on the path.
    steps: u32,
    /// The Zipf parameters of the path's rank-distance space,
    /// `steps − 1` (unused below two steps).
    zipf: ZipfParams,
}

/// Shared, read-only sampler state.
#[derive(Debug)]
pub struct PairSampler {
    alias: AliasTable,
    zipf: ZipfTable,
    paths: Vec<PathRecord>,
    first_cooling: u32,
    selection: PairSelection,
}

impl PairSampler {
    /// Build the sampler for a graph under a config.
    pub fn new(lean: &LeanGraph, cfg: &LayoutConfig) -> Self {
        let weights = lean.path_weights();
        let max_space = (lean.max_path_steps() as u64).max(2);
        let zipf = ZipfTable::new(
            cfg.zipf_theta,
            cfg.zipf_space_max.min(max_space).max(2),
            cfg.zipf_quant,
            max_space,
        );
        let paths = (0..lean.path_count() as u32)
            .map(|p| {
                let steps = lean.steps_in(p);
                PathRecord {
                    offset: lean.step_offset[p as usize],
                    steps: steps as u32,
                    zipf: if steps >= 2 {
                        zipf.params(steps as u64 - 1)
                    } else {
                        ZipfParams::default()
                    },
                }
            })
            .collect();
        Self {
            alias: AliasTable::new(&weights),
            zipf,
            paths,
            first_cooling: cfg.first_cooling_iter(),
            selection: cfg.pair_selection,
        }
    }

    /// The iteration at which cooling becomes unconditional.
    pub fn first_cooling_iter(&self) -> u32 {
        self.first_cooling
    }

    /// Draw one term for iteration `iter`, or `None` when the draw is
    /// rejected (single-step path, out-of-range fixed hop, or zero
    /// reference distance). The per-term reference of
    /// [`PairSampler::sample_block`], which runs the same draw and the
    /// same gather.
    #[inline]
    pub fn sample<R: Rng64>(&self, lean: &LeanGraph, rng: &mut R, iter: u32) -> Option<Term> {
        gather(lean, self.draw(rng, iter)?)
    }

    /// Draw `want` times for iteration `iter`, collecting the accepted
    /// terms into `out` (cleared first). One call per hot-loop block —
    /// the engines sample a block, then apply it in a single
    /// monomorphized pass ([`crate::coords::CoordStore::apply_block`]).
    /// Returns the number accepted; RNG consumption and the accepted
    /// terms are identical to `want` calls of [`PairSampler::sample`],
    /// so block size never changes the random stream.
    ///
    /// Two passes: the draw pass fills `out` with every drawn pair's
    /// steps and endpoint bits, then the gather pass reads their
    /// positions, nodes and lengths and compacts the zero-distance
    /// pairs out in place.
    #[inline]
    pub fn sample_block<R: Rng64>(
        &self,
        lean: &LeanGraph,
        rng: &mut R,
        iter: u32,
        want: usize,
        out: &mut Vec<Term>,
    ) -> usize {
        out.clear();
        // A plain loop: behind `extend(filter_map(..))` the draw stayed
        // out of line, with the generator state stored and reloaded on
        // every call, and the engine ran about a third slower.
        for _ in 0..want {
            if let Some(t) = self.draw(rng, iter) {
                out.push(t);
            }
        }
        let mut kept = 0;
        for k in 0..out.len() {
            if let Some(t) = gather(lean, out[k]) {
                out[kept] = t;
                kept += 1;
            }
        }
        out.truncate(kept);
        kept
    }

    /// The draw of one term: its two flat steps and endpoint bits, with
    /// `node_i`, `node_j` and `d_ref` left for [`gather`]. `None` when
    /// the path has one step or no second step fits.
    #[inline(always)]
    fn draw<R: Rng64>(&self, rng: &mut R, iter: u32) -> Option<Term> {
        let path = self.paths[self.alias.sample(rng)];
        let n = path.steps as usize;
        if n < 2 {
            return None;
        }
        let i = rng.gen_below(n as u64) as usize;
        // One draw covers all four per-term coins (cooling, direction,
        // endpoint i, endpoint j), taken from the generator's highest
        // bits — xoshiro+'s best-equidistributed ones. Four separate
        // `flip()` draws would spend three extra generator steps per
        // term on single bits.
        let coins = rng.next_u64();
        let (coin_cool, coin_dir) = (coins >> 63 == 1, coins >> 62 & 1 == 1);
        let (end_i, end_j) = (coins >> 61 & 1 == 1, coins >> 60 & 1 == 1);
        let j = match self.selection {
            PairSelection::PgSgd => {
                let cooling = iter >= self.first_cooling || coin_cool;
                if cooling {
                    let z = self.zipf.sample_with(rng, n as u64 - 1, path.zipf) as usize;
                    // Random direction, falling back to the feasible side.
                    if coin_dir {
                        if i + z < n {
                            i + z
                        } else if i >= z {
                            i - z
                        } else {
                            return None;
                        }
                    } else if i >= z {
                        i - z
                    } else if i + z < n {
                        i + z
                    } else {
                        return None;
                    }
                } else {
                    // Uniform j ≠ i.
                    let mut j = rng.gen_below(n as u64 - 1) as usize;
                    if j >= i {
                        j += 1;
                    }
                    j
                }
            }
            PairSelection::FixedHop(k) => {
                let k = k as usize;
                if i + k < n {
                    i + k
                } else if i >= k {
                    i - k
                } else {
                    return None;
                }
            }
        };
        debug_assert_ne!(i, j);
        let offset = path.offset as usize;
        Some(Term {
            s_i: offset + i,
            s_j: offset + j,
            node_i: 0,
            node_j: 0,
            end_i,
            end_j,
            d_ref: 0.0,
        })
    }
}

/// The gather of one drawn term: its node ids and reference distance
/// from the step and node arrays, or `None` when its endpoints coincide
/// (`d_ref = 0`).
#[inline(always)]
fn gather(lean: &LeanGraph, t: Term) -> Option<Term> {
    let d_ref = lean.d_ref_endpoints(t.s_i, t.end_i, t.s_j, t.end_j);
    if d_ref <= 0.0 {
        return None;
    }
    Some(Term {
        node_i: lean.node_of_flat(t.s_i),
        node_j: lean.node_of_flat(t.s_j),
        d_ref,
        ..t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::model::fig1_graph;
    use pgrng::Xoshiro256Plus;
    use workloads::{generate, PangenomeSpec};

    fn test_lean() -> LeanGraph {
        LeanGraph::from_graph(&generate(&PangenomeSpec::basic("s", 200, 6, 3)))
    }

    #[test]
    fn sampled_terms_are_valid() {
        let lean = test_lean();
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(1);
        let mut accepted = 0;
        for iter in [0u32, 10, 20, 29] {
            for _ in 0..2000 {
                if let Some(t) = sampler.sample(&lean, &mut rng, iter) {
                    accepted += 1;
                    assert!(t.d_ref > 0.0);
                    assert_ne!(t.s_i, t.s_j);
                    assert!(t.s_i < lean.total_steps());
                    assert!(t.s_j < lean.total_steps());
                    assert_eq!(t.node_i, lean.node_of_flat(t.s_i));
                    assert_eq!(t.node_j, lean.node_of_flat(t.s_j));
                    // Same path: both flat steps in one path's range.
                    let in_same_path = (0..lean.path_count() as u32).any(|p| {
                        let lo = lean.flat_step(p, 0);
                        let hi = lo + lean.steps_in(p);
                        (lo..hi).contains(&t.s_i) && (lo..hi).contains(&t.s_j)
                    });
                    assert!(in_same_path);
                }
            }
        }
        assert!(accepted > 6000, "acceptance too low: {accepted}");
    }

    #[test]
    fn cooling_shrinks_rank_distance() {
        // After the cooling point the mean |i−j| in *steps* should be much
        // smaller than during the uniform phase.
        let lean = test_lean();
        let cfg = LayoutConfig {
            cooling_start: 0.5,
            ..LayoutConfig::default()
        };
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(2);
        let mean_gap = |iter: u32, rng: &mut Xoshiro256Plus| {
            let mut tot = 0f64;
            let mut cnt = 0f64;
            for _ in 0..20_000 {
                if let Some(t) = sampler.sample(&lean, rng, iter) {
                    tot += (t.s_i as f64 - t.s_j as f64).abs();
                    cnt += 1.0;
                }
            }
            tot / cnt
        };
        // iter 0: ~50% cooling (coin); iter 29: 100% cooling.
        let early = mean_gap(0, &mut rng);
        let late = mean_gap(29, &mut rng);
        assert!(
            late < 0.7 * early,
            "late gap {late} should be well below early gap {early}"
        );
    }

    #[test]
    fn fixed_hop_selection_has_constant_gap() {
        let lean = test_lean();
        let cfg = LayoutConfig {
            pair_selection: PairSelection::FixedHop(10),
            ..LayoutConfig::default()
        };
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(3);
        for _ in 0..5000 {
            if let Some(t) = sampler.sample(&lean, &mut rng, 0) {
                let gap = (t.s_i as i64 - t.s_j as i64).unsigned_abs();
                assert_eq!(gap, 10);
            }
        }
    }

    #[test]
    fn single_step_paths_are_rejected() {
        use pangraph::model::{GraphBuilder, Handle};
        let mut b = GraphBuilder::new();
        let a = b.add_node_len(5);
        b.add_path("single", vec![Handle::forward(a)]);
        let lean = LeanGraph::from_graph(&b.build());
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(4);
        for _ in 0..100 {
            assert!(sampler.sample(&lean, &mut rng, 0).is_none());
        }
    }

    #[test]
    fn path_selection_is_length_weighted() {
        // fig1: paths of 6/5/7 steps. Count which path each term lands in.
        let lean = LeanGraph::from_graph(&fig1_graph());
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(5);
        let mut counts = [0usize; 3];
        let ranges: Vec<(usize, usize)> = (0..3u32)
            .map(|p| {
                let lo = lean.flat_step(p, 0);
                (lo, lo + lean.steps_in(p))
            })
            .collect();
        let draws = 60_000;
        for _ in 0..draws {
            if let Some(t) = sampler.sample(&lean, &mut rng, 0) {
                for (pi, &(lo, hi)) in ranges.iter().enumerate() {
                    if (lo..hi).contains(&t.s_i) {
                        counts[pi] += 1;
                    }
                }
            }
        }
        let total: usize = counts.iter().sum();
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        for (pi, expect) in [(0usize, 6.0 / 18.0), (1, 5.0 / 18.0), (2, 7.0 / 18.0)] {
            assert!(
                (freq[pi] - expect).abs() < 0.04,
                "path {pi}: {} vs {expect}",
                freq[pi]
            );
        }
    }

    #[test]
    fn block_sampling_consumes_the_same_stream_as_scalar_sampling() {
        let lean = test_lean();
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut scalar_rng = Xoshiro256Plus::seed_from_u64(9);
        let mut block_rng = Xoshiro256Plus::seed_from_u64(9);
        let mut block = Vec::new();
        for iter in [0u32, 20] {
            let n = sampler.sample_block(&lean, &mut block_rng, iter, 300, &mut block);
            assert_eq!(n, block.len());
            let scalar: Vec<Term> = (0..300)
                .filter_map(|_| sampler.sample(&lean, &mut scalar_rng, iter))
                .collect();
            assert_eq!(block, scalar, "iter {iter}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let lean = test_lean();
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut a = Xoshiro256Plus::seed_from_u64(6);
        let mut b = Xoshiro256Plus::seed_from_u64(6);
        for iter in 0..8 {
            assert_eq!(
                sampler.sample(&lean, &mut a, iter),
                sampler.sample(&lean, &mut b, iter)
            );
        }
    }
}
