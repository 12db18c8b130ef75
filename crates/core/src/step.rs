//! The SGD update step (Alg. 1 lines 14–15, Fig. 3).
//!
//! For a term with visualization points `v_i`, `v_j` and reference
//! distance `d`, path-guided SGD (following Zheng et al.'s SGD² and the
//! odgi-layout implementation) moves both points along the line joining
//! them:
//!
//! ```text
//! w  = d⁻²                      (term weight)
//! μ  = min(η·w, 1)              (capped step size)
//! Δ  = μ · (‖v_i − v_j‖ − d)/2  (half the residual, shared by both ends)
//! v_i ← v_i − Δ·û,   v_j ← v_j + Δ·û     with û = (v_i−v_j)/‖v_i−v_j‖
//! ```
//!
//! The μ cap is what lets the schedule start at `η_max = d_max²`: the very
//! first updates snap even the farthest pairs to their reference distance
//! without overshooting.

use crate::scalar::LayoutScalar;

/// Coordinate deltas for the two points of one term: `(Δv_i, Δv_j)`.
pub type TermDeltas = ((f64, f64), (f64, f64));

/// Precision-generic update step: the same arithmetic as [`term_deltas`],
/// monomorphized per [`LayoutScalar`] so the `f32` hot path computes —
/// not just stores — in single precision, exactly like the paper's CUDA
/// kernel. The `f64` instantiation is bit-identical to [`term_deltas`].
#[inline]
pub fn term_deltas_t<T: LayoutScalar>(
    vi: (T, T),
    vj: (T, T),
    d_ref: T,
    eta: T,
) -> ((T, T), (T, T)) {
    debug_assert!(d_ref > T::ZERO, "term deltas require positive d_ref");
    let w = T::ONE / (d_ref * d_ref);
    let mu = (eta * w).min_s(T::ONE);
    let mut dx = vi.0 - vj.0;
    let mut dy = vi.1 - vj.1;
    let mut mag = (dx * dx + dy * dy).sqrt();
    if mag < T::MAG_EPS {
        dx = T::MAG_FALLBACK;
        dy = T::ZERO;
        mag = T::MAG_FALLBACK;
    }
    let delta = mu * (mag - d_ref) / T::TWO;
    let r = delta / mag;
    let rx = r * dx;
    let ry = r * dy;
    ((-rx, -ry), (rx, ry))
}

/// Compute the Hogwild deltas for one update step. `d_ref` must be
/// positive (callers skip zero-distance terms).
///
/// When the two points coincide, a deterministic infinitesimal x-offset
/// stands in for the direction (odgi perturbs randomly; determinism aids
/// testing and changes nothing statistically).
#[inline]
pub fn term_deltas(vi: (f64, f64), vj: (f64, f64), d_ref: f64, eta: f64) -> TermDeltas {
    term_deltas_t::<f64>(vi, vj, d_ref, eta)
}

/// Convenience: the stress of a term after hypothetically applying the
/// deltas (used by convergence tests).
pub fn post_update_residual(vi: (f64, f64), vj: (f64, f64), d_ref: f64, eta: f64) -> f64 {
    let ((dix, diy), (djx, djy)) = term_deltas(vi, vj, d_ref, eta);
    let ni = (vi.0 + dix, vi.1 + diy);
    let nj = (vj.0 + djx, vj.1 + djy);
    let dist = ((ni.0 - nj.0).powi(2) + (ni.1 - nj.1).powi(2)).sqrt();
    (dist - d_ref).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_move_when_distance_is_exact() {
        let (di, dj) = term_deltas((0.0, 0.0), (5.0, 0.0), 5.0, 10.0);
        assert_eq!(di, (0.0, 0.0));
        assert_eq!(dj, (0.0, 0.0));
    }

    #[test]
    fn attraction_when_too_far() {
        // Points 10 apart, reference 5: vi moves toward vj.
        let (di, dj) = term_deltas((0.0, 0.0), (10.0, 0.0), 5.0, 1e9);
        assert!(di.0 > 0.0, "vi moves right (toward vj): {di:?}");
        assert!(dj.0 < 0.0, "vj moves left (toward vi): {dj:?}");
        assert_eq!(di.1, 0.0);
    }

    #[test]
    fn repulsion_when_too_close() {
        let (di, dj) = term_deltas((0.0, 0.0), (1.0, 0.0), 5.0, 1e9);
        assert!(di.0 < 0.0, "vi moves away: {di:?}");
        assert!(dj.0 > 0.0, "vj moves away: {dj:?}");
    }

    #[test]
    fn full_mu_snaps_to_reference_distance() {
        // With μ capped at 1 the update halves the residual on each side:
        // the post-update distance equals d_ref exactly.
        let res = post_update_residual((0.0, 0.0), (10.0, 0.0), 4.0, 1e12);
        assert!(res < 1e-9, "residual {res}");
    }

    #[test]
    fn small_eta_takes_partial_step() {
        // μ = η/d² = 0.01·25⁻¹... pick η so μ = 0.5: η = 0.5·d² = 12.5.
        let d = 5.0;
        let (di, dj) = term_deltas((0.0, 0.0), (10.0, 0.0), d, 0.5 * d * d);
        // Δ = 0.5·(10−5)/2 = 1.25 on each side.
        assert!((di.0 - 1.25).abs() < 1e-12);
        assert!((dj.0 + 1.25).abs() < 1e-12);
        let res = post_update_residual((0.0, 0.0), (10.0, 0.0), d, 0.5 * d * d);
        assert!((res - 2.5).abs() < 1e-12, "half the residual remains");
    }

    #[test]
    fn deltas_are_antisymmetric() {
        let (di, dj) = term_deltas((1.0, 2.0), (4.0, 6.0), 3.0, 2.0);
        assert!((di.0 + dj.0).abs() < 1e-15);
        assert!((di.1 + dj.1).abs() < 1e-15);
    }

    #[test]
    fn update_is_along_the_joining_line() {
        let vi = (0.0, 0.0);
        let vj = (3.0, 4.0);
        let (di, _) = term_deltas(vi, vj, 2.0, 1e9);
        // Direction must be parallel to (vi - vj) = (-3, -4).
        let cross = di.0 * (-4.0) - di.1 * (-3.0);
        assert!(cross.abs() < 1e-12, "cross product {cross}");
    }

    #[test]
    fn coincident_points_separate_deterministically() {
        let (di, dj) = term_deltas((1.0, 1.0), (1.0, 1.0), 2.0, 1e9);
        assert_ne!(di, (0.0, 0.0));
        assert_ne!(dj, (0.0, 0.0));
        // And both calls agree.
        let (di2, _) = term_deltas((1.0, 1.0), (1.0, 1.0), 2.0, 1e9);
        assert_eq!(di, di2);
    }

    #[test]
    fn mu_cap_prevents_overshoot() {
        // Even with a huge eta the post-update residual never flips sign
        // past the reference distance (monotone approach).
        for eta in [1.0, 1e3, 1e6, 1e12] {
            let res = post_update_residual((0.0, 0.0), (100.0, 0.0), 30.0, eta);
            assert!(res <= 70.0 + 1e-9, "eta {eta}: residual {res}");
        }
    }

    #[test]
    fn f32_instantiation_tracks_f64_within_single_precision() {
        for (vi, vj, d, eta) in [
            ((0.0, 0.0), (10.0, 0.0), 5.0, 1e3),
            ((1.0, 2.0), (4.0, 6.0), 3.0, 2.0),
            ((0.0, 0.0), (1.0, 0.0), 5.0, 1e9),
            ((1.0, 1.0), (1.0, 1.0), 2.0, 1e9), // coincident fallback
        ] {
            let (di, dj) = term_deltas(vi, vj, d, eta);
            let (si, sj) = term_deltas_t::<f32>(
                (vi.0 as f32, vi.1 as f32),
                (vj.0 as f32, vj.1 as f32),
                d as f32,
                eta as f32,
            );
            for (a, b) in [(di.0, si.0), (di.1, si.1), (dj.0, sj.0), (dj.1, sj.1)] {
                let tol = (a.abs() * 1e-5).max(1e-6);
                assert!(
                    (a - b as f64).abs() <= tol,
                    "f64 {a} vs f32 {b} for {vi:?} {vj:?} d={d} eta={eta}"
                );
            }
        }
    }

    #[test]
    fn repeated_updates_converge_to_reference() {
        let mut vi = (0.0, 0.0);
        let mut vj = (1.0, 0.0);
        let d = 10.0;
        for _ in 0..200 {
            let (di, dj) = term_deltas(vi, vj, d, 20.0); // μ = 0.2
            vi = (vi.0 + di.0, vi.1 + di.1);
            vj = (vj.0 + dj.0, vj.1 + dj.1);
        }
        let dist = ((vi.0 - vj.0).powi(2) + (vi.1 - vj.1).powi(2)).sqrt();
        assert!((dist - d).abs() < 1e-6, "converged distance {dist}");
    }
}
