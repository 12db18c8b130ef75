//! Layout configuration — the knobs of Alg. 1 with odgi-layout's defaults.

use crate::coords::{DataLayout, Precision};

/// Ceiling on [`LayoutConfig::term_block`]: each worker thread keeps a
/// term buffer of this many entries (40 B each ⇒ ≤ 40 MiB/thread at the
/// cap), so a hostile or fat-fingered block size cannot turn into a
/// terabyte allocation.
pub const MAX_TERM_BLOCK: usize = 1 << 20;

/// How node pairs are selected within a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSelection {
    /// The paper's scheme: uniform pairs before cooling, Zipf-distance
    /// pairs during cooling (Alg. 1 lines 6–11).
    PgSgd,
    /// The degenerate scheme of paper Fig. 6: the second node is always a
    /// fixed number of hops away. Kills randomness; used to demonstrate
    /// why randomness matters for convergence.
    FixedHop(u32),
}

/// Full configuration of a layout run.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Total iterations `N_iters` (paper default: 30).
    pub iter_max: u32,
    /// Per-iteration step budget factor: `N_steps = factor × Σ|p|`
    /// (Alg. 1 line 1 uses 10).
    pub steps_per_path_node: f64,
    /// Learning-rate floor ε (odgi default 0.01); `η_min = ε`.
    pub eps: f64,
    /// Optional explicit `η_max`; default `(max d_ref)²` per Zheng et al.
    pub eta_max: Option<f64>,
    /// Fraction of iterations before cooling always applies (Alg. 1 line 6
    /// uses 0.5).
    pub cooling_start: f64,
    /// Zipf exponent θ for cooled pair selection (odgi default 0.99).
    pub zipf_theta: f64,
    /// Zipf exact-table bound (odgi default 1000).
    pub zipf_space_max: u64,
    /// Zipf quantization step beyond the bound (odgi default 100).
    pub zipf_quant: u64,
    /// Worker threads for the Hogwild engine (0 ⇒ all available cores).
    pub threads: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Coordinate-store memory layout (the Table IX CDL axis).
    pub data_layout: DataLayout,
    /// Coordinate precision: `f64` (odgi's CPU baseline) or `f32` (the
    /// paper's GPU coordinates; half the memory traffic per update).
    pub precision: Precision,
    /// Terms sampled per hot-loop block: worker threads draw this many
    /// terms, then apply them in one monomorphized straight-line pass.
    /// Amortizes sampler dispatch; larger blocks coarsen Hogwild
    /// interleaving but do not change the objective.
    pub term_block: usize,
    /// Pair-selection scheme.
    pub pair_selection: PairSelection,
    /// Initial-placement jitter amplitude relative to graph length.
    pub init_jitter: f64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        Self {
            iter_max: 30,
            steps_per_path_node: 10.0,
            eps: 0.01,
            eta_max: None,
            cooling_start: 0.5,
            zipf_theta: 0.99,
            zipf_space_max: 1000,
            zipf_quant: 100,
            threads: 0,
            seed: 93_992_202,
            data_layout: DataLayout::CacheFriendlyAos,
            precision: Precision::F64,
            term_block: 256,
            pair_selection: PairSelection::PgSgd,
            init_jitter: 0.01,
        }
    }
}

impl LayoutConfig {
    /// A small, fast configuration for unit tests: few iterations, the
    /// given thread count, deterministic seed.
    pub fn for_tests(threads: usize) -> Self {
        Self {
            iter_max: 12,
            steps_per_path_node: 5.0,
            threads,
            ..Self::default()
        }
    }

    /// Resolved worker-thread count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The first iteration at which cooling is unconditional
    /// (`iter ≥ N_iters/2` in Alg. 1 line 6).
    pub fn first_cooling_iter(&self) -> u32 {
        (self.iter_max as f64 * self.cooling_start).floor() as u32
    }

    /// Steps per iteration for a graph with `total_path_steps` path nodes.
    pub fn steps_per_iter(&self, total_path_steps: u64) -> u64 {
        (self.steps_per_path_node * total_path_steps as f64).ceil() as u64
    }

    /// The term-block size, clamped to `1..=`[`MAX_TERM_BLOCK`]: a zero
    /// block would stall the hot loop, and an absurd one is a per-thread
    /// allocation request (the service accepts this field from the
    /// network).
    pub fn resolved_term_block(&self) -> usize {
        self.term_block.clamp(1, MAX_TERM_BLOCK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LayoutConfig::default();
        assert_eq!(c.iter_max, 30);
        assert_eq!(c.steps_per_path_node, 10.0);
        assert_eq!(c.zipf_theta, 0.99);
        assert_eq!(c.cooling_start, 0.5);
        assert_eq!(c.first_cooling_iter(), 15);
    }

    #[test]
    fn steps_per_iter_is_factor_times_path_nodes() {
        let c = LayoutConfig::default();
        assert_eq!(c.steps_per_iter(1000), 10_000);
        let mut c2 = c.clone();
        c2.steps_per_path_node = 2.5;
        assert_eq!(c2.steps_per_iter(1000), 2_500);
    }

    #[test]
    fn resolved_threads_nonzero() {
        let mut c = LayoutConfig::default();
        assert!(c.resolved_threads() >= 1);
        c.threads = 3;
        assert_eq!(c.resolved_threads(), 3);
    }

    #[test]
    fn test_config_is_small() {
        let c = LayoutConfig::for_tests(2);
        assert!(c.iter_max <= 16);
        assert_eq!(c.threads, 2);
    }

    #[test]
    fn hot_path_axes_default_to_the_faithful_baseline() {
        let c = LayoutConfig::default();
        assert_eq!(c.precision, Precision::F64);
        assert!(c.term_block >= 1);
        assert_eq!(c.resolved_term_block(), c.term_block);
        let zero = LayoutConfig {
            term_block: 0,
            ..LayoutConfig::default()
        };
        assert_eq!(zero.resolved_term_block(), 1);
        let huge = LayoutConfig {
            term_block: usize::MAX,
            ..LayoutConfig::default()
        };
        assert_eq!(
            huge.resolved_term_block(),
            MAX_TERM_BLOCK,
            "network-supplied block sizes must not become giant allocations"
        );
    }
}
