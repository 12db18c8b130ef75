//! # pgrng — PRNG substrate for pangenome graph layout
//!
//! The paper ("Rapid GPU-Based Pangenome Graph Layout", SC 2024) leans on two
//! pseudo-random number generator families:
//!
//! * **Xoshiro256+** — the LFSR-style generator used by the `odgi-layout`
//!   multithreaded CPU baseline (paper Sec. III-B).
//! * **XORWOW** — the xorshift-family generator used by NVIDIA's cuRAND
//!   library, whose six-word per-thread state is the subject of the paper's
//!   *coalesced random states* optimization (Sec. V-B2).
//!
//! This crate implements both from scratch, together with:
//!
//! * [`SplitMix64`] seeding (the recommended seeder for xoshiro),
//! * [`states`] — per-thread random-state pools in both the original
//!   array-of-structs layout and the paper's coalesced struct-of-arrays
//!   layout, exposing the *addresses* of every state word so the GPU
//!   simulator can replay their memory traffic,
//! * [`zipf`] — the power-law ("dirty Zipfian") node-pair distance sampler
//!   used during the cooling phase of path-guided SGD,
//! * [`alias`] — an alias table for O(1) path selection with probability
//!   proportional to path length (Alg. 1 line 5).
//!
//! Everything is allocation-free in the hot paths, deterministic, and
//! exhaustively unit- and property-tested.

pub mod alias;
pub mod splitmix;
pub mod states;
pub mod xorwow;
pub mod xoshiro;
pub mod zipf;

pub use alias::AliasTable;
pub use splitmix::SplitMix64;
pub use states::{CoalescedStatePool, SoaOrAos, StateLayout, StatePool};
pub use xorwow::XorWow;
pub use xoshiro::{Xoshiro256Plus, Xoshiro256StarStar};
pub use zipf::{ZipfGen, ZipfParams, ZipfTable};

/// A 64-bit pseudo-random number generator.
///
/// All layout engines are generic over this trait so the CPU engine can use
/// [`Xoshiro256Plus`] (matching odgi) while the GPU simulator uses
/// [`XorWow`] (matching cuRAND).
pub trait Rng64 {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Next `f64` uniformly distributed in `[0, 1)`.
    ///
    /// Uses the top 53 bits, the standard unbiased construction.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 bit mantissa: (x >> 11) * 2^-53
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next `f32` uniformly distributed in `[0, 1)` (24 significant bits).
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Unbiased integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method. `bound` must be nonzero.
    #[inline]
    fn gen_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_below bound must be > 0");
        // Fast path for power-of-two bounds.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Unbiased integer in the inclusive-exclusive range `[lo, hi)`.
    #[inline]
    fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "gen_range requires lo < hi");
        lo + self.gen_below(hi - lo)
    }

    /// Fair coin flip (Alg. 1 lines 6, 12, 13).
    #[inline]
    fn flip(&mut self) -> bool {
        // Use the top bit: for weak low-bit generators (xoshiro+) the top
        // bits have the best equidistribution.
        self.next_u64() >> 63 == 1
    }
}

/// A 32-bit generator (cuRAND XORWOW produces 32-bit outputs natively).
pub trait Rng32 {
    /// Next raw 32-bit output.
    fn next_u32(&mut self) -> u32;

    /// Next `f32` in `[0, 1)` from the top 24 bits.
    #[inline]
    fn next_f32_from_u32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Adapter: any [`Rng32`] is an [`Rng64`] by concatenating two outputs,
/// mirroring how device code widens `curand()` results.
impl<T: Rng32> Rng64 for T {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl Rng64 for Counter {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            self.0
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = Counter(0);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f32_is_in_unit_interval() {
        let mut r = Counter(7);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn gen_below_respects_bound() {
        let mut r = Counter(3);
        for bound in [1u64, 2, 3, 7, 10, 100, 1 << 20, u64::MAX / 3] {
            for _ in 0..200 {
                assert!(r.gen_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_below_power_of_two_uses_mask() {
        let mut r = Counter(11);
        for _ in 0..1000 {
            assert!(r.gen_below(64) < 64);
        }
    }

    #[test]
    fn gen_range_is_in_range() {
        let mut r = Counter(5);
        for _ in 0..1000 {
            let x = r.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gen_below_covers_small_range() {
        // A weak smoke test of uniformity: every value of a small range
        // appears within a reasonable number of draws.
        let mut r = super::xoshiro::Xoshiro256Plus::seed_from_u64(42);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn flip_is_roughly_fair() {
        let mut r = super::xoshiro::Xoshiro256Plus::seed_from_u64(1);
        let heads = (0..10_000).filter(|_| r.flip()).count();
        assert!((4000..6000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn rng32_widening_adapter_concatenates() {
        struct Fixed(Vec<u32>, usize);
        impl Rng32 for Fixed {
            fn next_u32(&mut self) -> u32 {
                let v = self.0[self.1 % self.0.len()];
                self.1 += 1;
                v
            }
        }
        let mut f = Fixed(vec![0xDEADBEEF, 0x12345678], 0);
        assert_eq!(f.next_u64(), 0xDEADBEEF_12345678);
    }
}
