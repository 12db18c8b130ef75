//! Relaxed atomic `f64` cells — the Hogwild! substrate.
//!
//! `odgi-layout` stores layout coordinates in atomic doubles and lets all
//! threads update them without locks or compare-and-swap loops (Recht et
//! al.'s Hogwild! scheme, paper Sec. III-A): races occasionally lose an
//! update, but pangenome graphs are sparse enough that quality is
//! unaffected. On x86-64 a relaxed atomic load/store compiles to a plain
//! `mov`, so this faithfully reproduces both the semantics *and* the cost
//! model of the original.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An `f64` stored in an `AtomicU64` with relaxed ordering.
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// New cell holding `v`.
    #[inline]
    pub fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Hogwild add: load, add, store — deliberately *not* a CAS loop, so
    /// concurrent updates may race exactly as in odgi-layout.
    #[inline]
    pub fn hogwild_add(&self, delta: f64) {
        self.store(self.load() + delta);
    }
}

impl Default for AtomicF64 {
    fn default() -> Self {
        Self::new(0.0)
    }
}

/// An `f32` stored in an `AtomicU32` with relaxed ordering — the paper's
/// GPU coordinate precision (fp32, Sec. V-B) on the CPU side. Halves the
/// coordinate slab's memory traffic relative to [`AtomicF64`].
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// New cell holding `v`.
    #[inline]
    pub fn new(v: f32) -> Self {
        Self(AtomicU32::new(v.to_bits()))
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f32) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Hogwild add: load, add, store — racy by design, like
    /// [`AtomicF64::hogwild_add`].
    #[inline]
    pub fn hogwild_add(&self, delta: f32) {
        self.store(self.load() + delta);
    }
}

impl Default for AtomicF32 {
    fn default() -> Self {
        Self::new(0.0)
    }
}

/// Allocate a zeroed atomic coordinate slab.
pub fn zeroed_slab(n: usize) -> Vec<AtomicF64> {
    std::iter::repeat_with(AtomicF64::default).take(n).collect()
}

/// Allocate a zeroed single-precision atomic coordinate slab.
pub fn zeroed_slab32(n: usize) -> Vec<AtomicF32> {
    std::iter::repeat_with(AtomicF32::default).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
        a.store(f64::MAX);
        assert_eq!(a.load(), f64::MAX);
    }

    #[test]
    fn hogwild_add_single_thread_is_exact() {
        let a = AtomicF64::new(10.0);
        a.hogwild_add(2.5);
        a.hogwild_add(-0.5);
        assert_eq!(a.load(), 12.0);
    }

    #[test]
    fn special_values_round_trip_bits() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY] {
            let a = AtomicF64::new(v);
            assert_eq!(a.load().to_bits(), v.to_bits());
        }
        let a = AtomicF64::new(f64::NAN);
        assert!(a.load().is_nan());
    }

    #[test]
    fn zeroed_slab_is_zero() {
        let slab = zeroed_slab(100);
        assert_eq!(slab.len(), 100);
        assert!(slab.iter().all(|a| a.load() == 0.0));
    }

    #[test]
    fn f32_cells_round_trip_and_accumulate() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
        a.hogwild_add(0.75);
        assert_eq!(a.load(), -1.5);
        for v in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY] {
            let c = AtomicF32::new(v);
            assert_eq!(c.load().to_bits(), v.to_bits());
        }
        let slab = zeroed_slab32(10);
        assert!(slab.iter().all(|c| c.load() == 0.0));
    }

    #[test]
    fn concurrent_hogwild_adds_mostly_land() {
        // Hogwild loses some updates under contention by design, and how
        // many depends on the scheduler, so no floor beyond one add holds.
        // What the race does guarantee: every store writes a loaded value
        // plus 1.0, and sums of 1.0 stay exact, so the final value is a
        // whole number between 1 and the ideal sum. A lone thread loses
        // nothing. Both cell widths race alike (f32 sums of 1.0 stay exact
        // far past 80,000).
        use std::sync::Arc;
        const PER_THREAD: usize = 10_000;
        fn race<C: Send + Sync + 'static>(threads: usize, cell: &Arc<C>, add: fn(&C)) {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cell = Arc::clone(cell);
                    std::thread::spawn(move || (0..PER_THREAD).for_each(|_| add(&cell)))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        for threads in [1, 8] {
            let wide = Arc::new(AtomicF64::new(0.0));
            let narrow = Arc::new(AtomicF32::new(0.0));
            race(threads, &wide, |c| c.hogwild_add(1.0));
            race(threads, &narrow, |c| c.hogwild_add(1.0));
            let ideal = (threads * PER_THREAD) as f64;
            for (cell, v) in [("f64", wide.load()), ("f32", narrow.load() as f64)] {
                assert!(
                    (1.0..=ideal).contains(&v) && v.fract() == 0.0,
                    "{cell}, {threads} threads: v = {v}, ideal = {ideal}"
                );
                if threads == 1 {
                    assert_eq!(v, ideal, "a lone thread loses no adds");
                }
            }
        }
    }
}
