//! CPU memory-hierarchy simulation — the stand-in for the paper's Linux
//! `perf` / Intel VTune characterization (Sec. III, Tables II & IX,
//! Fig. 5).
//!
//! A single representative worker's access trace of the Hogwild CPU
//! engine is replayed through an L2 → LLC hierarchy with CPU-style
//! 64-byte lines. From the counters we derive the quantities the paper
//! profiles:
//!
//! * **LLC loads / LLC misses** (Table II's miss rate, Table IX's CDL
//!   effect),
//! * **memory stall cycle percentage** and the top-down **memory-bound
//!   fraction** (Fig. 5) via a documented latency model,
//! * a **modeled CPU run time**, used for the modeled-vs-modeled speedup
//!   columns of Table VII (see README, *Substitutions*, on calibration).
//!
//! Cache capacities are scaled with the dataset (the same
//! ratio-preserving substitution as the GPU side).

use crate::addrmap::AddrMap;
use crate::cache::{Cache, CacheConfig};
use layout_core::config::LayoutConfig;
use layout_core::coords::DataLayout;
use layout_core::sampler::PairSampler;
use layout_core::schedule::Schedule;
use layout_core::step::term_deltas;
use pangraph::lean::LeanGraph;
use pgrng::Xoshiro256Plus;

/// Latency/throughput constants of the CPU model (Skylake-class Xeon,
/// matching the paper's Xeon Gold 6246R).
pub mod cpu_model {
    /// Core clock, Hz.
    pub const CLOCK_HZ: f64 = 3.4e9;
    /// L2 hit latency, cycles.
    pub const L2_LAT: f64 = 14.0;
    /// LLC hit latency, cycles.
    pub const LLC_LAT: f64 = 44.0;
    /// DRAM latency, cycles.
    pub const DRAM_LAT: f64 = 260.0;
    /// ALU cycles per update step (address math, PRNG, gradient).
    pub const COMPUTE_CYCLES: f64 = 90.0;
    /// Memory-level parallelism per core (outstanding misses overlapped).
    pub const MLP: f64 = 2.5;
    /// Baseline thread count of the paper's CPU (32-core Xeon).
    pub const THREADS: f64 = 32.0;
    /// Full-scale L2 per core / LLC capacities.
    pub const L2_BYTES: u64 = 1024 * 1024;
    /// Shared LLC capacity (35.75 MB on the 6246R, rounded).
    pub const LLC_BYTES: u64 = 36 * 1024 * 1024;
    /// Data-structure overhead of `odgi-layout` relative to this repo's
    /// lean port: ODGI's succinct containers (rank/select bit vectors,
    /// packed integer vectors) touch roughly this many cache levels'
    /// worth of extra work per logical access. **Calibration constant**,
    /// anchored to the paper's Chr.1 CPU baseline (9158 s ⇒ ~5600
    /// cycles/step across 32 threads, vs ~700 modeled for the lean
    /// structures). Table IX's own CPU numbers (3×10¹² LLC loads for
    /// 1.8×10¹¹ updates ⇒ ~17 LLC loads per update where the lean port
    /// needs ~6 scalar accesses) independently corroborates the factor.
    pub const ODGI_STRUCT_FACTOR: f64 = 8.0;
}

/// Counters and derived metrics from a CPU trace.
#[derive(Debug, Clone, Copy)]
pub struct CpuMemReport {
    /// Loads presented to the LLC (= L2 misses).
    pub llc_loads: u64,
    /// LLC misses (DRAM fetches).
    pub llc_misses: u64,
    /// Scalar memory accesses traced.
    pub accesses: u64,
    /// Update steps traced.
    pub steps: u64,
    /// Modeled cycles per traced step.
    pub cycles_per_step: f64,
    /// Modeled memory-stall cycles per traced step.
    pub stall_cycles_per_step: f64,
}

impl CpuMemReport {
    /// LLC load miss rate (Table II).
    pub fn llc_miss_rate(&self) -> f64 {
        if self.llc_loads == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_loads as f64
        }
    }

    /// Memory-stall cycle percentage (Table II).
    pub fn stall_pct(&self) -> f64 {
        100.0 * self.stall_cycles_per_step / self.cycles_per_step.max(1e-12)
    }

    /// Top-down memory-bound fraction (Fig. 5): stall share damped by the
    /// fraction of slots that still retire work (front-end/speculation
    /// take a fixed small share in this model).
    pub fn memory_bound_pct(&self) -> f64 {
        // 12% of slots modeled as front-end + bad speculation, as in the
        // paper's pies; the rest split between memory and core by stalls.
        88.0 * self.stall_cycles_per_step / self.cycles_per_step.max(1e-12)
    }

    /// Modeled run time for `total_steps` update steps on `threads`
    /// ideally scaling cores (paper Fig. 4 shows linear scaling).
    pub fn modeled_time_s(&self, total_steps: u64, threads: f64) -> f64 {
        total_steps as f64 * self.cycles_per_step / cpu_model::CLOCK_HZ / threads
    }
}

/// Replay a sampled single-thread trace of the CPU engine through the
/// cache model. `trace_steps` bounds the traced steps (the access pattern
/// is stationary after warm-up; counts are per-step).
pub fn characterize_cpu(
    lean: &LeanGraph,
    lcfg: &LayoutConfig,
    data_layout: DataLayout,
    mem_scale: f64,
    trace_steps: u64,
) -> CpuMemReport {
    let amap = AddrMap::new(data_layout);
    let mut l2 = Cache::new(CacheConfig::cpu(
        ((cpu_model::L2_BYTES as f64 * mem_scale) as u64).max(4096),
    ));
    let mut llc = Cache::new(CacheConfig::cpu(
        ((cpu_model::LLC_BYTES as f64 * mem_scale) as u64).max(16 * 1024),
    ));

    let sampler = PairSampler::new(lean, lcfg);
    let schedule = Schedule::new(lcfg, (lean.max_path_nuc_len() as f64).max(1.0));
    let mut rng = Xoshiro256Plus::seed_from_u64(lcfg.seed ^ 0xC7A);
    // Functional coordinates so the trace follows a realistic trajectory.
    let mut layout = layout_core::init::init_linear(lean, lcfg.init_jitter, lcfg.seed);

    let mut accesses = 0u64;
    let mut llc_loads_0 = llc.stats.accesses;
    let mut llc_miss_0 = llc.stats.misses;
    let mut l2_hits = 0u64;
    let mut steps = 0u64;

    // Warm-up: a slice of the first iteration, after which counters are
    // rebased so compulsory misses don't skew the steady-state rates.
    let per_iter = (trace_steps / lcfg.iter_max.max(1) as u64).max(1);
    let warmup = (per_iter / 10).min(per_iter.saturating_sub(1));

    let touch = |l2: &mut Cache,
                 llc: &mut Cache,
                 addr: u64,
                 bytes: u32,
                 accesses: &mut u64,
                 l2_hits: &mut u64| {
        *accesses += 1;
        if l2.access_range(addr, bytes) == 0 {
            *l2_hits += 1;
        } else {
            // L2 miss escalates to LLC; Cache::access_range already
            // counted the LLC-side stats when we call it on llc below.
            let _ = llc.access_range(addr, bytes);
        }
    };

    for iter in 0..lcfg.iter_max {
        let eta = schedule.eta(iter);
        for s in 0..per_iter {
            if let Some(t) = sampler.sample(lean, &mut rng, iter) {
                // Step records.
                for &(a, b) in amap.step_read(t.s_i as u64).as_slice() {
                    touch(&mut l2, &mut llc, a, b, &mut accesses, &mut l2_hits);
                }
                for &(a, b) in amap.step_read(t.s_j as u64).as_slice() {
                    touch(&mut l2, &mut llc, a, b, &mut accesses, &mut l2_hits);
                }
                // Node records (read then write).
                for &(a, b) in amap.node_read(t.node_i, t.end_i).as_slice() {
                    touch(&mut l2, &mut llc, a, b, &mut accesses, &mut l2_hits);
                }
                for &(a, b) in amap.node_read(t.node_j, t.end_j).as_slice() {
                    touch(&mut l2, &mut llc, a, b, &mut accesses, &mut l2_hits);
                }
                let vi = layout.get(t.node_i, t.end_i);
                let vj = layout.get(t.node_j, t.end_j);
                let (di, dj) = term_deltas(vi, vj, t.d_ref, eta);
                layout.set(t.node_i, t.end_i, vi.0 + di.0, vi.1 + di.1);
                layout.set(t.node_j, t.end_j, vj.0 + dj.0, vj.1 + dj.1);
                for &(a, b) in amap.node_write(t.node_i, t.end_i).as_slice() {
                    touch(&mut l2, &mut llc, a, b, &mut accesses, &mut l2_hits);
                }
                for &(a, b) in amap.node_write(t.node_j, t.end_j).as_slice() {
                    touch(&mut l2, &mut llc, a, b, &mut accesses, &mut l2_hits);
                }
            }
            steps += 1;
            if iter == 0 && s == warmup {
                // Rebase counters after warm-up.
                llc_loads_0 = llc.stats.accesses;
                llc_miss_0 = llc.stats.misses;
                accesses = 0;
                l2_hits = 0;
                steps = 0;
            }
        }
    }

    let llc_loads = llc.stats.accesses - llc_loads_0;
    let llc_misses = llc.stats.misses - llc_miss_0;
    let steps = steps.max(1);

    // Latency model → cycles per step, inflated by the odgi
    // succinct-structure factor (the paper baseline is odgi, not the
    // lean port; see `cpu_model::ODGI_STRUCT_FACTOR`).
    let llc_hits = llc_loads.saturating_sub(llc_misses);
    let stall = (l2_hits as f64 * cpu_model::L2_LAT
        + llc_hits as f64 * cpu_model::LLC_LAT
        + llc_misses as f64 * cpu_model::DRAM_LAT)
        / cpu_model::MLP
        / steps as f64
        * cpu_model::ODGI_STRUCT_FACTOR;
    let cycles = cpu_model::COMPUTE_CYCLES * cpu_model::ODGI_STRUCT_FACTOR + stall;

    CpuMemReport {
        llc_loads,
        llc_misses,
        accesses,
        steps,
        cycles_per_step: cycles,
        stall_cycles_per_step: stall,
    }
}

/// Convenience: modeled CPU time for the whole schedule of a graph.
pub fn modeled_cpu_time_s(
    lean: &LeanGraph,
    lcfg: &LayoutConfig,
    report: &CpuMemReport,
    threads: f64,
) -> f64 {
    let total = lcfg.steps_per_iter(lean.total_steps() as u64) * lcfg.iter_max as u64;
    report.modeled_time_s(total, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate, PangenomeSpec};

    fn lean(sites: usize) -> LeanGraph {
        LeanGraph::from_graph(&generate(&PangenomeSpec::basic("c", sites, 6, 1)))
    }

    fn lcfg() -> LayoutConfig {
        LayoutConfig {
            iter_max: 10,
            ..LayoutConfig::default()
        }
    }

    #[test]
    fn bigger_graphs_miss_more() {
        // Fig. 5 / Table II shape: LLC miss rate and memory-bound share
        // grow with graph size (at fixed cache scale; the cache scale is
        // chosen so the small graph fits the scaled LLC and the large one
        // does not, which is the relation the full-size system has).
        let small = characterize_cpu(&lean(300), &lcfg(), DataLayout::OriginalSoa, 0.001, 40_000);
        let large = characterize_cpu(&lean(8000), &lcfg(), DataLayout::OriginalSoa, 0.001, 40_000);
        assert!(
            large.llc_miss_rate() > small.llc_miss_rate(),
            "large {} vs small {}",
            large.llc_miss_rate(),
            small.llc_miss_rate()
        );
        assert!(large.memory_bound_pct() >= small.memory_bound_pct());
    }

    #[test]
    fn cdl_reduces_llc_loads() {
        // Table IX: AoS repacking cuts LLC loads by ~3x.
        let g = lean(3000);
        let soa = characterize_cpu(&g, &lcfg(), DataLayout::OriginalSoa, 0.02, 40_000);
        let aos = characterize_cpu(&g, &lcfg(), DataLayout::CacheFriendlyAos, 0.02, 40_000);
        let ratio = soa.llc_loads as f64 / aos.llc_loads.max(1) as f64;
        assert!(
            ratio > 1.5,
            "SoA {} vs AoS {} (ratio {ratio})",
            soa.llc_loads,
            aos.llc_loads
        );
        // And modeled time improves.
        assert!(aos.cycles_per_step < soa.cycles_per_step);
    }

    #[test]
    fn memory_bound_fraction_is_in_papers_regime() {
        // Paper Fig. 5: 53–71% memory bound; accept a generous band.
        let r = characterize_cpu(&lean(3000), &lcfg(), DataLayout::OriginalSoa, 0.02, 40_000);
        let mb = r.memory_bound_pct();
        assert!((30.0..88.0).contains(&mb), "memory-bound {mb}%");
        assert!(r.stall_pct() > 30.0);
    }

    #[test]
    fn modeled_time_scales_with_steps_and_threads() {
        let g = lean(500);
        let r = characterize_cpu(&g, &lcfg(), DataLayout::OriginalSoa, 0.05, 20_000);
        let t1 = r.modeled_time_s(1_000_000, 1.0);
        let t32 = r.modeled_time_s(1_000_000, 32.0);
        assert!((t1 / t32 - 32.0).abs() < 1e-9);
        let t2x = r.modeled_time_s(2_000_000, 1.0);
        assert!((t2x / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counters_are_consistent() {
        let g = lean(800);
        let r = characterize_cpu(&g, &lcfg(), DataLayout::CacheFriendlyAos, 0.05, 20_000);
        assert!(r.llc_misses <= r.llc_loads);
        assert!(r.llc_loads <= r.accesses);
        assert!(r.steps > 0);
        assert!(r.cycles_per_step > cpu_model::COMPUTE_CYCLES);
    }
}
