//! # pgmetrics — quantitative layout-quality metrics
//!
//! Implements the paper's Sec. VI:
//!
//! * [`stress`] — the per-term and per-node-pair stress
//!   `((‖v_i − v_j‖ − d_ref) / d_ref)²` (Alg. 1 line 14), with the paper's
//!   four-endpoint-combination average for node pairs.
//! * [`mod@path_stress`] — **path stress** (Eq. 1): the exact average over all
//!   node pairs on all paths. Quadratic in path length; parallelized with
//!   a Rayon reduction (the paper uses a GPU reduction-tree kernel).
//! * [`sampled`] — **sampled path stress** (Eq. 2): the scalable
//!   estimator drawing `100·|p|` endpoint pairs per path, with its 95%
//!   confidence interval `μ ± 1.96σ/√n`; linear in total path length.
//!
//! The crate also exposes [`pearson`], used by the Fig. 13 correlation
//! experiment (sampled vs exact stress, r = 0.995 in the paper).

pub mod path_stress;
pub mod sampled;
pub mod stress;

pub use path_stress::{path_stress, path_stress_serial, PathStressReport};
pub use sampled::{sampled_path_stress, SampledStress, SamplingConfig};
pub use stress::{node_pair_stress, term_stress};

/// Pearson correlation coefficient between two equal-length samples.
///
/// Used to validate that sampled path stress tracks exact path stress
/// (paper Fig. 13 reports r = 0.995 over 1824 layouts).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs paired samples");
    assert!(xs.len() >= 2, "pearson needs at least two pairs");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_returns_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn pearson_rejects_mismatched() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }
}
