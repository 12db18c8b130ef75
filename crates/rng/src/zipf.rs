//! Power-law ("dirty Zipfian") sampling of node-pair rank distances.
//!
//! During the cooling phase of path-guided SGD (Alg. 1 line 8) the second
//! node of a pair is chosen close to the first with a Zipf-distributed rank
//! distance, which refines local structure. `odgi-layout` implements this
//! with a "dirty" variant of the classic Gray et al. bounded Zipfian
//! generator ("Quickly generating billion-record synthetic databases",
//! SIGMOD'94): the ζ(n, θ) normalizer is precomputed for a *quantized* set
//! of space sizes and the nearest precomputed value is used for any actual
//! path length — trading an imperceptible distribution error for O(1)
//! sampling. We reproduce that scheme here, including odgi's default
//! parameters (θ = 0.99, `space_max` = 1000, quantization step = 100).

use crate::Rng64;

/// odgi-layout's default Zipf exponent θ.
pub const DEFAULT_THETA: f64 = 0.99;
/// odgi-layout's default exactly-tabulated space bound.
pub const DEFAULT_SPACE_MAX: u64 = 1000;
/// odgi-layout's default quantization step beyond `space_max`.
pub const DEFAULT_QUANT_STEP: u64 = 100;

/// Generalized harmonic number ζ(n, θ) = Σ_{k=1..n} k^-θ, computed by
/// direct summation. O(n); used only for table construction and tests.
pub fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for k in 1..=n {
        sum += (k as f64).powf(-theta);
    }
    sum
}

/// Bounded Zipf sample in `[1, n]` via Gray et al.'s inverse-CDF
/// approximation, given a (possibly approximate) ζ(n, θ).
///
/// `theta` must be in (0, 1); `n ≥ 1`.
#[inline]
pub fn sample_zipf<R: Rng64>(rng: &mut R, n: u64, theta: f64, zetan: f64) -> u64 {
    debug_assert!(n >= 1);
    debug_assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
    if n == 1 {
        // Still consume one draw so call counts stay layout-independent.
        let _ = rng.next_f64();
        return 1;
    }
    let nf = n as f64;
    let eta = zipf_eta(nf, theta, zetan);
    let u = rng.next_f64();
    let uz = u * zetan;
    if uz < 1.0 {
        return 1;
    }
    if uz < 1.0 + 0.5f64.powf(theta) {
        return 2;
    }
    let tail = TailPow::new(1.0 / (1.0 - theta));
    let v = 1 + (nf * tail.pow(eta * u - eta + 1.0)) as u64;
    v.min(n)
}

/// Precomputed ζ table over quantized space sizes (odgi's "dirty" scheme).
///
/// For spaces `s ≤ space_max` the exact ζ(s, θ) is tabulated; beyond that,
/// ζ is tabulated at `space_max + k·quant_step` and lookups round *down* to
/// the nearest tabulated point, underestimating the normalizer by a
/// vanishing relative amount (ζ grows ~log n for θ near 1).
///
/// The table also pre-evaluates everything in Gray et al.'s inverse CDF
/// that depends only on `(θ, space)` — the `η` coefficient and the
/// rank-2 threshold — because they cost several `powf` calls each and the
/// layout hot loop draws one Zipf sample per cooled term. With the table,
/// [`ZipfTable::sample`] performs one power of the tail base. Beyond
/// `space_max` the pre-evaluated `η` is the one of the rounded-down
/// tabulated space ("dirty η", same spirit and error regime as the dirty
/// ζ). A caller that draws many times over the same space looks its
/// [`ZipfParams`] up once ([`ZipfTable::params`]) and draws with
/// [`ZipfTable::sample_with`].
#[derive(Debug, Clone)]
pub struct ZipfTable {
    theta: f64,
    space_max: u64,
    quant_step: u64,
    /// `exact[s]` = the parameters of space s, for s in 0..=space_max
    /// (0 unused).
    exact: Vec<ZipfParams>,
    /// `quantized[k]` = the same at `space_max + (k+1)·quant_step`.
    quantized: Vec<ZipfParams>,
    /// `x^α` with `α = 1 / (1 − θ)` — the inverse-CDF exponent.
    tail: TailPow,
    /// `1 + 0.5^θ` — the rank-2 acceptance threshold.
    two_threshold: f64,
}

/// The tabulated inverse-CDF parameters of one space size.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZipfParams {
    /// The normalizer ζ(s, θ).
    pub zeta: f64,
    /// Gray et al.'s `η` coefficient for the same space and ζ.
    pub eta: f64,
}

/// The `η` coefficient of Gray et al.'s inverse CDF for a space of `n`
/// with normalizer `zetan`. Kept textually identical to the expression in
/// [`sample_zipf`] so tabulated draws are bit-identical to direct ones.
fn zipf_eta(n: f64, theta: f64, zetan: f64) -> f64 {
    (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan)
}

/// `x^α` for the inverse CDF's tail, with the exponent's kind fixed when
/// the table is built. For θ = 0.99 (odgi's default) α is 100 up to the
/// floating-point representation of θ, and every cooled draw pays this
/// power: binary exponentiation (`powi`) is several times cheaper than
/// the transcendental `powf`, so when α is within rounding of a small
/// integer the integer exponent is used. The relative exponent
/// perturbation (≤ 1e-9) is far below the "dirty" scheme's own
/// quantization error. Shared by [`sample_zipf`] and [`ZipfTable`] so
/// both stay bit-identical to each other.
#[derive(Debug, Clone, Copy)]
enum TailPow {
    /// α rounds to 100: a literal exponent, which the compiler expands
    /// into the same square-and-multiply sequence that a runtime
    /// exponent runs in a library loop — the same bits, without the
    /// call.
    Hundred,
    /// α rounds to another integer in `1..=512`.
    Int(i32),
    /// Any other α.
    Real(f64),
}

impl TailPow {
    fn new(alpha: f64) -> Self {
        let k = alpha.round();
        if (alpha - k).abs() < 1e-9 * k.max(1.0) && (1.0..=512.0).contains(&k) {
            if k == 100.0 {
                Self::Hundred
            } else {
                Self::Int(k as i32)
            }
        } else {
            Self::Real(alpha)
        }
    }

    #[inline]
    fn pow(self, x: f64) -> f64 {
        match self {
            Self::Hundred => x.powi(100),
            Self::Int(k) => x.powi(k),
            Self::Real(alpha) => x.powf(alpha),
        }
    }
}

impl ZipfTable {
    /// Build a table covering spaces up to `max_space`, with odgi's scheme.
    pub fn new(theta: f64, space_max: u64, quant_step: u64, max_space: u64) -> Self {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        assert!(space_max >= 2 && quant_step >= 1);
        let params = |space: u64, zeta: f64| ZipfParams {
            zeta,
            eta: zipf_eta(space as f64, theta, zeta),
        };
        let mut exact = Vec::with_capacity(space_max as usize + 1);
        exact.push(ZipfParams::default());
        let mut acc = 0.0;
        for k in 1..=space_max {
            acc += (k as f64).powf(-theta);
            exact.push(params(k, acc));
        }
        let mut quantized = Vec::new();
        if max_space > space_max {
            let mut k = space_max;
            let mut z = acc;
            while k < max_space {
                let next = k + quant_step;
                for j in (k + 1)..=next {
                    z += (j as f64).powf(-theta);
                }
                quantized.push(params(next, z));
                k = next;
            }
        }
        Self {
            theta,
            space_max,
            quant_step,
            exact,
            quantized,
            tail: TailPow::new(1.0 / (1.0 - theta)),
            two_threshold: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Build with odgi's default parameters, covering `max_space`.
    pub fn with_defaults(max_space: u64) -> Self {
        Self::new(
            DEFAULT_THETA,
            DEFAULT_SPACE_MAX,
            DEFAULT_QUANT_STEP,
            max_space,
        )
    }

    /// The Zipf exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The tabulated parameters of the largest tabulated s' ≤ `space`
    /// (exact when `space ≤ space_max`). `space` must be ≥ 1.
    #[inline]
    pub fn params(&self, space: u64) -> ZipfParams {
        debug_assert!(space >= 1);
        if space <= self.space_max {
            self.exact[space as usize]
        } else {
            let k = (space - self.space_max) / self.quant_step;
            if k == 0 || self.quantized.is_empty() {
                self.exact[self.space_max as usize]
            } else {
                let idx = (k as usize - 1).min(self.quantized.len() - 1);
                self.quantized[idx]
            }
        }
    }

    /// ζ(s', θ) for the largest tabulated s' ≤ `space` (exact when
    /// `space ≤ space_max`). `space` must be ≥ 1.
    #[inline]
    pub fn zeta_for(&self, space: u64) -> f64 {
        self.params(space).zeta
    }

    /// Draw a Zipf-distributed rank distance in `[1, space]`.
    ///
    /// One power per call: the normalizer, the `η` coefficient and the
    /// small-rank thresholds all come from the table. For spaces within
    /// the exact range this returns bit-identical draws to
    /// [`sample_zipf`]; beyond it, `η` is quantized like ζ.
    #[inline]
    pub fn sample<R: Rng64>(&self, rng: &mut R, space: u64) -> u64 {
        self.sample_with(rng, space, self.params(space))
    }

    /// [`ZipfTable::sample`] with the space's parameters already looked
    /// up: `params` must be [`ZipfTable::params`]`(space)`.
    #[inline]
    pub fn sample_with<R: Rng64>(&self, rng: &mut R, space: u64, params: ZipfParams) -> u64 {
        debug_assert!(space >= 1);
        if space == 1 {
            // Still consume one draw so call counts stay layout-independent.
            let _ = rng.next_f64();
            return 1;
        }
        let ZipfParams { zeta, eta } = params;
        let u = rng.next_f64();
        let uz = u * zeta;
        if uz < 1.0 {
            return 1;
        }
        if uz < self.two_threshold {
            return 2;
        }
        let v = 1 + ((space as f64) * self.tail.pow(eta * u - eta + 1.0)) as u64;
        v.min(space)
    }
}

/// A small convenience wrapper bundling a table with a fixed space (used in
/// micro-benchmarks where the path length is constant).
#[derive(Debug, Clone)]
pub struct ZipfGen {
    table: ZipfTable,
    space: u64,
}

impl ZipfGen {
    /// Build a generator for distances in `[1, space]`.
    pub fn new(theta: f64, space: u64) -> Self {
        Self {
            table: ZipfTable::new(
                theta,
                DEFAULT_SPACE_MAX.min(space.max(2)),
                DEFAULT_QUANT_STEP,
                space,
            ),
            space,
        }
    }

    /// Draw a sample in `[1, space]`.
    #[inline]
    pub fn sample<R: Rng64>(&self, rng: &mut R) -> u64 {
        self.table.sample(rng, self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256Plus;

    #[test]
    fn zeta_small_values() {
        assert!((zeta(1, 0.99) - 1.0).abs() < 1e-12);
        let z2 = 1.0 + 0.5f64.powf(0.99);
        assert!((zeta(2, 0.99) - z2).abs() < 1e-12);
    }

    #[test]
    fn zeta_is_monotone_in_n() {
        let mut prev = 0.0;
        for n in 1..200 {
            let z = zeta(n, 0.99);
            assert!(z > prev);
            prev = z;
        }
    }

    #[test]
    fn samples_are_within_bounds() {
        let mut rng = Xoshiro256Plus::seed_from_u64(1);
        let table = ZipfTable::with_defaults(100_000);
        for &space in &[1u64, 2, 3, 10, 999, 1000, 1001, 5000, 100_000] {
            for _ in 0..500 {
                let x = table.sample(&mut rng, space);
                assert!((1..=space).contains(&x), "x={x} space={space}");
            }
        }
    }

    #[test]
    fn rank_one_has_expected_mass() {
        // P(X = 1) = 1/zeta(n); check empirically within loose tolerance.
        let n = 1000u64;
        let zetan = zeta(n, 0.99);
        let expect = 1.0 / zetan;
        let mut rng = Xoshiro256Plus::seed_from_u64(7);
        let draws = 200_000;
        let ones = (0..draws)
            .filter(|_| sample_zipf(&mut rng, n, 0.99, zetan) == 1)
            .count();
        let freq = ones as f64 / draws as f64;
        assert!(
            (freq - expect).abs() < 0.01,
            "freq={freq:.4} expect={expect:.4}"
        );
    }

    #[test]
    fn distribution_is_heavily_skewed_to_small_ranks() {
        let mut rng = Xoshiro256Plus::seed_from_u64(11);
        let gen = ZipfGen::new(0.99, 10_000);
        let draws = 50_000;
        let small = (0..draws).filter(|_| gen.sample(&mut rng) <= 10).count();
        // For theta=0.99 over [1,10000], zeta(10)/zeta(10000) ≈ 0.28 of the
        // mass sits on ranks <= 10 — orders of magnitude above the uniform
        // mass of 0.001.
        let frac = small as f64 / draws as f64;
        assert!((0.2..0.45).contains(&frac), "small-rank mass = {frac}");
    }

    #[test]
    fn quantized_zeta_rounds_down() {
        let t = ZipfTable::new(0.99, 100, 10, 1000);
        // Inside the exact range.
        assert!((t.zeta_for(50) - zeta(50, 0.99)).abs() < 1e-9);
        assert!((t.zeta_for(100) - zeta(100, 0.99)).abs() < 1e-9);
        // Just past space_max: rounds down to zeta(100).
        assert!((t.zeta_for(105) - zeta(100, 0.99)).abs() < 1e-9);
        // At the first quantization point.
        assert!((t.zeta_for(110) - zeta(110, 0.99)).abs() < 1e-9);
        // Between points: rounds down.
        assert!((t.zeta_for(119) - zeta(110, 0.99)).abs() < 1e-9);
        // Relative error of the dirty scheme stays tiny.
        let approx = t.zeta_for(995);
        let exact = zeta(995, 0.99);
        assert!((exact - approx) / exact < 0.01);
    }

    #[test]
    fn space_one_always_returns_one() {
        let mut rng = Xoshiro256Plus::seed_from_u64(3);
        let table = ZipfTable::with_defaults(10);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng, 1), 1);
        }
    }

    #[test]
    fn table_sampling_is_bit_identical_to_direct_in_the_exact_range() {
        // The pre-evaluated (ζ, η) fast path must not change a single
        // draw where the table is exact.
        let table = ZipfTable::with_defaults(5000);
        for space in [2u64, 3, 10, 137, 999, 1000] {
            let mut a = Xoshiro256Plus::seed_from_u64(space);
            let mut b = Xoshiro256Plus::seed_from_u64(space);
            let zetan = zeta(space, DEFAULT_THETA);
            for _ in 0..500 {
                assert_eq!(
                    table.sample(&mut a, space),
                    sample_zipf(&mut b, space, DEFAULT_THETA, zetan),
                    "space {space}"
                );
            }
        }
    }

    #[test]
    fn quantized_spaces_stay_in_bounds_and_skewed() {
        // Past space_max the η coefficient is quantized like ζ; the
        // distribution must remain a bounded, small-rank-heavy Zipf.
        let table = ZipfTable::with_defaults(50_000);
        let mut rng = Xoshiro256Plus::seed_from_u64(17);
        let draws = 20_000;
        let mut small = 0usize;
        for _ in 0..draws {
            let x = table.sample(&mut rng, 37_123);
            assert!((1..=37_123).contains(&x));
            if x <= 10 {
                small += 1;
            }
        }
        let frac = small as f64 / draws as f64;
        assert!((0.2..0.5).contains(&frac), "small-rank mass {frac}");
    }

    #[test]
    fn literal_hundredth_power_is_bit_identical_to_a_runtime_exponent() {
        // The default θ's tail power uses a literal exponent; the draws
        // keep their bits only if the compiler's expansion matches the
        // runtime square-and-multiply loop exactly.
        let mut rng = Xoshiro256Plus::seed_from_u64(100);
        for _ in 0..1_000_000 {
            let x = rng.next_f64();
            assert_eq!(
                x.powi(100).to_bits(),
                x.powi(std::hint::black_box(100)).to_bits(),
                "x = {x:e}"
            );
        }
    }

    #[test]
    fn default_theta_takes_the_literal_power() {
        assert!(matches!(
            TailPow::new(1.0 / (1.0 - DEFAULT_THETA)),
            TailPow::Hundred
        ));
        assert!(matches!(TailPow::new(2.0), TailPow::Int(2)));
        assert!(matches!(TailPow::new(2.5), TailPow::Real(_)));
    }

    #[test]
    fn deterministic_given_seed() {
        let table = ZipfTable::with_defaults(5000);
        let mut a = Xoshiro256Plus::seed_from_u64(42);
        let mut b = Xoshiro256Plus::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut a, 5000), table.sample(&mut b, 5000));
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn theta_out_of_range_rejected() {
        let _ = ZipfTable::new(1.0, 100, 10, 100);
    }

    #[test]
    fn mean_rank_grows_with_space() {
        // Sanity: the expected sampled distance grows (slowly) with space.
        let mut rng = Xoshiro256Plus::seed_from_u64(5);
        let table = ZipfTable::with_defaults(100_000);
        let mean = |space: u64, rng: &mut Xoshiro256Plus| {
            let n = 20_000;
            (0..n).map(|_| table.sample(rng, space) as f64).sum::<f64>() / n as f64
        };
        let m_small = mean(100, &mut rng);
        let m_large = mean(100_000, &mut rng);
        assert!(
            m_large > 2.0 * m_small,
            "m_small={m_small:.2} m_large={m_large:.2}"
        );
    }
}
