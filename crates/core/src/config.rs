//! Layout configuration — the knobs of Alg. 1 with odgi-layout's defaults.

use crate::coords::{DataLayout, Precision};

/// Terms sampled per hot-loop block: a worker thread draws this many
/// terms, then applies them in one monomorphized straight-line pass.
/// Sampling never reads coordinates, so a single-thread layout is the
/// same at any block size; no measured regime favoured another size.
pub const TERM_BLOCK: usize = 256;

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
    }
}
