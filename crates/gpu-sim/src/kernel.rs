//! The GPU layout kernel, simulated.
//!
//! This is the paper's Sec. V CUDA kernel run on the simulator: warps of
//! 32 lanes execute Alg. 1's update steps in lockstep, one kernel launch
//! per iteration (`N_iters + 1` launches total, Sec. V-A). The simulation
//! is **functionally complete** — every step is executed and produces the
//! real layout — while the memory system and warp accounting record the
//! events behind the paper's Tables IX–XI and the timing model of
//! Table VII / Fig. 16:
//!
//! * node/step data placement: [`DataLayout`] (cache-friendly data
//!   layout ablation),
//! * random-state placement: [`StateLayout`] (coalesced random states),
//! * branch handling: [`KernelConfig::warp_merging`] (warp merging),
//! * warp-shuffle data reuse: [`ReuseScheme`] (the Fig. 17 DRF/SRF
//!   design-space exploration).
//!
//! Simulated SMs run in parallel (Rayon), each owning its L1, its L2
//! slice and its lanes' XORWOW states; coordinates are shared Hogwild
//! atomics exactly as on the device.

use crate::addrmap::{AddrMap, STATE_BASE};
use crate::coords32::device_coords;
use crate::device::GpuSpec;
use crate::memsys::{MemReport, SmMem};
use crate::timing::TimingModel;
use crate::warp::{cost, WarpStats};
use layout_core::config::LayoutConfig;
use layout_core::coords::{CoordStore, DataLayout};
use layout_core::init::init_linear;
use layout_core::schedule::Schedule;
use layout_core::step::term_deltas;
use layout_core::LayoutEngine;
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgrng::{AliasTable, Rng32, Rng64, StateLayout, StatePool, ZipfTable};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Warp-shuffle data-reuse scheme (paper Sec. VII-D): each selected pair
/// performs `drf` updates (partner nodes shuffled in from other lanes),
/// and the step count is divided by `srf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseScheme {
    /// Data reuse factor (updates per selection).
    pub drf: u32,
    /// Step reduction factor.
    pub srf: f64,
}

/// Kernel build configuration — the ablation axes.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Node/step data placement (CDL off = `OriginalSoa`).
    pub data_layout: DataLayout,
    /// Random-state placement (CRS off = `ArrayOfStructs`).
    pub state_layout: StateLayout,
    /// Warp merging (WM).
    pub warp_merging: bool,
    /// Optional DRF/SRF data-reuse scheme.
    pub reuse: Option<ReuseScheme>,
    /// Dataset scale, used to shrink the L2 with the data (the
    /// capacity-ratio-preserving substitution in README, *Substitutions*).
    pub mem_scale: f64,
    /// Fraction of each thread's steps that are memory-traced; counts are
    /// extrapolated. 1.0 = trace everything.
    pub trace_fraction: f64,
}

impl KernelConfig {
    /// The base CUDA kernel of paper Fig. 16: no kernel optimizations.
    pub fn base(mem_scale: f64) -> Self {
        Self {
            data_layout: DataLayout::OriginalSoa,
            state_layout: StateLayout::ArrayOfStructs,
            warp_merging: false,
            reuse: None,
            mem_scale,
            trace_fraction: 1.0,
        }
    }

    /// The fully optimized kernel (CDL + CRS + WM).
    pub fn optimized(mem_scale: f64) -> Self {
        Self::base(mem_scale).with_cdl().with_crs().with_wm()
    }

    /// Enable the cache-friendly data layout.
    pub fn with_cdl(mut self) -> Self {
        self.data_layout = DataLayout::CacheFriendlyAos;
        self
    }

    /// Enable coalesced random states.
    pub fn with_crs(mut self) -> Self {
        self.state_layout = StateLayout::Coalesced;
        self
    }

    /// Enable warp merging.
    pub fn with_wm(mut self) -> Self {
        self.warp_merging = true;
        self
    }

    /// Attach a data-reuse scheme.
    pub fn with_reuse(mut self, drf: u32, srf: f64) -> Self {
        assert!(drf >= 1 && srf >= 1.0, "reuse scheme must not inflate work");
        self.reuse = Some(ReuseScheme { drf, srf });
        self
    }

    /// Set the traced fraction of steps.
    pub fn with_trace_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0);
        self.trace_fraction = f;
        self
    }

    /// Short label for reports, e.g. `"base"`, `"CDL+CRS+WM"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.data_layout == DataLayout::CacheFriendlyAos {
            parts.push("CDL");
        }
        if self.state_layout == StateLayout::Coalesced {
            parts.push("CRS");
        }
        if self.warp_merging {
            parts.push("WM");
        }
        let mut s = if parts.is_empty() {
            "base".to_string()
        } else {
            parts.join("+")
        };
        if let Some(r) = self.reuse {
            s.push_str(&format!("+reuse({},{})", r.drf, r.srf));
        }
        s
    }
}

/// Result of a simulated GPU run.
#[derive(Debug, Clone)]
pub struct GpuReport {
    /// Warp instruction/divergence counters (whole run).
    pub warp: WarpStats,
    /// Memory-system counters (extrapolated if sampled).
    pub mem: MemReport,
    /// Kernel launches (`N_iters + 1`, Sec. V-A).
    pub launches: u64,
    /// The roofline evaluation.
    pub timing: TimingModel,
    /// Lane-level steps executed.
    pub steps_executed: u64,
    /// Terms actually applied (incl. reuse updates).
    pub terms_applied: u64,
    /// Host wall time spent simulating (not the modeled GPU time).
    pub sim_wall: Duration,
}

impl GpuReport {
    /// The modeled GPU run time in seconds.
    pub fn modeled_s(&self) -> f64 {
        self.timing.total_s()
    }
}

/// The simulated-GPU layout engine.
pub struct GpuEngine {
    spec: GpuSpec,
    lcfg: LayoutConfig,
    kcfg: KernelConfig,
}

/// Per-lane working registers for one warp step.
#[derive(Clone, Copy, Default)]
struct Lane {
    valid: bool,
    cooling: bool,
    path: u32,
    /// Local step index of the first node until `s_j` is resolved.
    idx_i: usize,
    s_i: usize,
    s_j: usize,
    node_i: u32,
    node_j: u32,
    end_i: bool,
    end_j: bool,
    d_ref: f64,
    /// Endpoint position of v_i within its path (for shuffle reuse).
    pos_i: u64,
    pos_j: u64,
    vi: (f64, f64),
    vj: (f64, f64),
}

/// Per-SM simulation state, persisted across iterations.
struct SmState {
    mem: SmMem,
    states: StatePool,
    warp: WarpStats,
    applied: u64,
    lane_steps: u64,
    scratch: Vec<(u64, u32)>,
}

impl GpuEngine {
    /// Build an engine.
    pub fn new(spec: GpuSpec, lcfg: LayoutConfig, kcfg: KernelConfig) -> Self {
        Self { spec, lcfg, kcfg }
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Kernel configuration.
    pub fn kernel_config(&self) -> &KernelConfig {
        &self.kcfg
    }

    /// Run the full layout schedule on the simulated device.
    pub fn run(&self, lean: &LeanGraph) -> (Layout2D, GpuReport) {
        let lcfg = &self.lcfg;
        let kcfg = &self.kcfg;
        let spec = &self.spec;
        let init = init_linear(lean, lcfg.init_jitter, lcfg.seed);
        let coords = device_coords(kcfg.data_layout, lean, &init);

        let total_steps = lean.total_steps() as u64;
        if total_steps == 0 || lean.max_path_steps() < 2 {
            return (
                coords.to_layout(),
                GpuReport {
                    warp: WarpStats::default(),
                    mem: MemReport::default(),
                    launches: 1,
                    timing: TimingModel::evaluate(
                        spec,
                        &WarpStats::default(),
                        &MemReport::default(),
                        1,
                    ),
                    steps_executed: 0,
                    terms_applied: 0,
                    sim_wall: Duration::ZERO,
                },
            );
        }

        let d_max = (lean.max_path_nuc_len() as f64).max(1.0);
        let schedule = Schedule::new(lcfg, d_max);
        let alias = AliasTable::new(&lean.path_weights());
        let max_space = (lean.max_path_steps() as u64).max(2);
        let zipf = ZipfTable::new(
            lcfg.zipf_theta,
            lcfg.zipf_space_max.min(max_space).max(2),
            lcfg.zipf_quant,
            max_space,
        );
        let amap = AddrMap::new(kcfg.data_layout);
        let first_cooling = lcfg.first_cooling_iter();

        let srf = kcfg.reuse.map(|r| r.srf).unwrap_or(1.0);
        let drf = kcfg.reuse.map(|r| r.drf).unwrap_or(1);
        let steps_per_iter = ((lcfg.steps_per_iter(total_steps) as f64) / srf).ceil() as u64;
        let total_threads = spec.total_threads();
        let steps_per_thread = steps_per_iter.div_ceil(total_threads).max(1);
        let traced_steps = ((steps_per_thread as f64 * kcfg.trace_fraction).ceil() as u64)
            .max(1)
            .min(steps_per_thread);
        let trace_factor = steps_per_thread as f64 / traced_steps as f64;

        let warps_per_sm = spec.sim_warps_per_sm as usize;
        let pool_bytes = (warps_per_sm * 32 * 24) as u64;
        let mut sms: Vec<SmState> = (0..spec.sm_count as usize)
            .map(|sm| SmState {
                mem: SmMem::new(spec, kcfg.mem_scale),
                states: StatePool::with_base_addr(
                    kcfg.state_layout,
                    warps_per_sm * 32,
                    lcfg.seed ^ (sm as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
                    STATE_BASE + sm as u64 * pool_bytes,
                ),
                warp: WarpStats::default(),
                applied: 0,
                lane_steps: 0,
                scratch: Vec::with_capacity(256),
            })
            .collect();

        let t0 = Instant::now();
        for iter in 0..lcfg.iter_max {
            let eta = schedule.eta(iter);
            // One kernel launch: SMs in parallel; within an SM the
            // resident warps interleave step by step (round-robin), so
            // one warp's graph traffic contends with its neighbours'
            // random states in the shared caches — the paper's stated
            // eviction mechanism (Sec. V-B2).
            sms.par_iter_mut().for_each(|sm| {
                for step in 0..steps_per_thread {
                    let traced = step < traced_steps;
                    for w in 0..warps_per_sm {
                        warp_step(
                            sm,
                            w,
                            lean,
                            &coords,
                            &alias,
                            &zipf,
                            &amap,
                            kcfg,
                            eta,
                            iter,
                            first_cooling,
                            traced,
                            drf,
                        );
                    }
                }
            });
        }
        let sim_wall = t0.elapsed();

        // Merge per-SM counters.
        let mut warp = WarpStats::default();
        let mut mem = MemReport::default();
        let mut applied = 0u64;
        let mut lane_steps = 0u64;
        for sm in &sms {
            warp.merge(&sm.warp);
            mem.merge(&sm.mem.report());
            applied += sm.applied;
            lane_steps += sm.lane_steps;
        }
        let mem = mem.scaled(trace_factor);
        let launches = lcfg.iter_max as u64 + 1;
        let timing = TimingModel::evaluate(spec, &warp, &mem, launches);

        (
            coords.to_layout(),
            GpuReport {
                warp,
                mem,
                launches,
                timing,
                steps_executed: lane_steps,
                terms_applied: applied,
                sim_wall,
            },
        )
    }
}

/// Adapter: one pooled XORWOW state as an `Rng32`/`Rng64` stream.
struct PoolRng<'a> {
    pool: &'a mut StatePool,
    idx: usize,
}

impl Rng32 for PoolRng<'_> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.pool.next_u32(self.idx)
    }
}

/// Issue one warp-level memory request built from per-lane access slots.
#[inline]
fn trace_slot(
    sm_scratch: &mut Vec<(u64, u32)>,
    mem: &mut SmMem,
    accesses: impl Iterator<Item = (u64, u32)>,
) {
    sm_scratch.clear();
    sm_scratch.extend(accesses);
    if !sm_scratch.is_empty() {
        mem.warp_request(sm_scratch);
    }
}

/// Execute one lockstep warp step (32 lanes).
#[allow(clippy::too_many_arguments)]
fn warp_step(
    sm: &mut SmState,
    warp_idx: usize,
    lean: &LeanGraph,
    coords: &CoordStore,
    alias: &AliasTable,
    zipf: &ZipfTable,
    amap: &AddrMap,
    kcfg: &KernelConfig,
    eta: f64,
    iter: u32,
    first_cooling: u32,
    traced: bool,
    drf: u32,
) {
    const LANES: usize = 32;
    let base_state = warp_idx * LANES;
    let mut lanes = [Lane::default(); LANES];
    sm.lane_steps += LANES as u64;

    // ---- random-state load (6 words, one warp request per word) --------
    if traced {
        for w in 0..6 {
            let states = &sm.states;
            // Collect addresses first to avoid borrowing conflicts.
            let addrs: Vec<(u64, u32)> = (0..LANES)
                .map(|l| (states.word_addr(base_state + l, w), 4))
                .collect();
            trace_slot(&mut sm.scratch, &mut sm.mem, addrs.into_iter());
        }
    }
    sm.warp.issue(cost::LDST_OVERHEAD, 32);

    // ---- path + first-node selection ------------------------------------
    for (l, lane) in lanes.iter_mut().enumerate() {
        let mut rng = PoolRng {
            pool: &mut sm.states,
            idx: base_state + l,
        };
        let p = alias.sample(&mut rng) as u32;
        let n = lean.steps_in(p);
        if n < 2 {
            lane.valid = false;
            continue;
        }
        let i = rng.gen_below(n as u64) as usize;
        lane.valid = true;
        lane.path = p;
        lane.idx_i = i;
        lane.s_i = lean.flat_step(p, i);
    }
    sm.warp.issue(cost::PATH_PICK + 2 * cost::RNG_DRAW, 32);
    if traced {
        let amap_alias: Vec<(u64, u32)> = lanes
            .iter()
            .filter(|lane| lane.valid)
            .map(|lane| amap.alias_read(lane.path as u64))
            .collect();
        trace_slot(&mut sm.scratch, &mut sm.mem, amap_alias.into_iter());
    }
    sm.warp.issue(cost::RNG_DRAW, 32); // first-index draw

    // ---- cooling decision ------------------------------------------------
    if kcfg.warp_merging {
        // Control lane flips once for the whole warp.
        let cool = iter >= first_cooling || {
            let mut rng = PoolRng {
                pool: &mut sm.states,
                idx: base_state,
            };
            rng.flip()
        };
        for lane in lanes.iter_mut() {
            lane.cooling = cool;
        }
        sm.warp.issue(cost::WM_BROADCAST + cost::RNG_DRAW, 32);
    } else {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let mut rng = PoolRng {
                pool: &mut sm.states,
                idx: base_state + l,
            };
            lane.cooling = iter >= first_cooling || rng.flip();
        }
        sm.warp.issue(cost::RNG_DRAW, 32);
    }

    // ---- second-node selection (divergent branch without WM) ------------
    let mut n_cool = 0u32;
    let mut n_uni = 0u32;
    for (l, lane) in lanes.iter_mut().enumerate() {
        if !lane.valid {
            continue;
        }
        let p = lane.path;
        let i = lane.idx_i;
        let n = lean.steps_in(p);
        let mut rng = PoolRng {
            pool: &mut sm.states,
            idx: base_state + l,
        };
        let j = if lane.cooling {
            n_cool += 1;
            let z = zipf.sample(&mut rng, (n - 1) as u64) as usize;
            if rng.flip() {
                if i + z < n {
                    i + z
                } else if i >= z {
                    i - z
                } else {
                    lane.valid = false;
                    continue;
                }
            } else if i >= z {
                i - z
            } else if i + z < n {
                i + z
            } else {
                lane.valid = false;
                continue;
            }
        } else {
            n_uni += 1;
            let mut j = rng.gen_below(n as u64 - 1) as usize;
            if j >= i {
                j += 1;
            }
            j
        };
        lane.s_j = lean.flat_step(p, j);
        lane.s_i = lean.flat_step(p, i);
    }
    // Branch issue accounting: both sides serialize when mixed.
    sm.warp.issue(cost::ZIPF_PAIR, n_cool);
    sm.warp.issue(cost::UNIFORM_PAIR, n_uni);
    if traced && n_cool > 0 {
        let reads: Vec<(u64, u32)> = lanes
            .iter()
            .filter(|l| l.valid && l.cooling)
            .map(|l| amap.zipf_read(l.s_i as u64 % 4096))
            .collect();
        trace_slot(&mut sm.scratch, &mut sm.mem, reads.into_iter());
    }

    // ---- endpoints, step decode, d_ref ----------------------------------
    for (l, lane) in lanes.iter_mut().enumerate() {
        if !lane.valid {
            continue;
        }
        let mut rng = PoolRng {
            pool: &mut sm.states,
            idx: base_state + l,
        };
        lane.end_i = rng.flip();
        lane.end_j = rng.flip();
        lane.node_i = lean.node_of_flat(lane.s_i);
        lane.node_j = lean.node_of_flat(lane.s_j);
        lane.pos_i = lean.endpoint_pos_of_flat(lane.s_i, lane.end_i);
        lane.pos_j = lean.endpoint_pos_of_flat(lane.s_j, lane.end_j);
        lane.d_ref = lane.pos_i.abs_diff(lane.pos_j) as f64;
        if lane.d_ref <= 0.0 {
            lane.valid = false;
        }
    }
    let n_valid = lanes.iter().filter(|l| l.valid).count() as u32;
    sm.warp.issue(
        cost::RNG_DRAW + 2 * cost::STEP_DECODE,
        n_valid.max(n_cool + n_uni),
    );
    if traced {
        for pick_j in [false, true] {
            // Step records of node i then node j, slot-by-slot.
            let max_slots = amap.step_read(0).len();
            for slot in 0..max_slots {
                let reads: Vec<(u64, u32)> = lanes
                    .iter()
                    .filter(|l| l.valid)
                    .map(|l| {
                        let s = if pick_j { l.s_j } else { l.s_i };
                        amap.step_read(s as u64).as_slice()[slot]
                    })
                    .collect();
                trace_slot(&mut sm.scratch, &mut sm.mem, reads.into_iter());
            }
        }
    }

    // ---- node data loads --------------------------------------------------
    for lane in lanes.iter_mut() {
        if !lane.valid {
            continue;
        }
        lane.vi = coords.load(lane.node_i, lane.end_i);
        lane.vj = coords.load(lane.node_j, lane.end_j);
    }
    sm.warp.issue(2 * cost::LDST_OVERHEAD, n_valid);
    if traced {
        for pick_j in [false, true] {
            let max_slots = amap.node_read(0, false).len();
            for slot in 0..max_slots {
                let reads: Vec<(u64, u32)> = lanes
                    .iter()
                    .filter(|l| l.valid)
                    .map(|l| {
                        let (n, e) = if pick_j {
                            (l.node_j, l.end_j)
                        } else {
                            (l.node_i, l.end_i)
                        };
                        amap.node_read(n, e).as_slice()[slot]
                    })
                    .collect();
                trace_slot(&mut sm.scratch, &mut sm.mem, reads.into_iter());
            }
        }
    }

    // ---- update math + store ---------------------------------------------
    for lane in lanes.iter() {
        if !lane.valid {
            continue;
        }
        let (di, dj) = term_deltas(lane.vi, lane.vj, lane.d_ref, eta);
        coords.add(lane.node_i, lane.end_i, di.0, di.1);
        coords.add(lane.node_j, lane.end_j, dj.0, dj.1);
        sm.applied += 1;
    }
    sm.warp.issue(cost::UPDATE_MATH, n_valid);
    sm.warp.issue(2 * cost::LDST_OVERHEAD, n_valid);
    if traced {
        for pick_j in [false, true] {
            let max_slots = amap.node_write(0, false).len();
            for slot in 0..max_slots {
                let writes: Vec<(u64, u32)> = lanes
                    .iter()
                    .filter(|l| l.valid)
                    .map(|l| {
                        let (n, e) = if pick_j {
                            (l.node_j, l.end_j)
                        } else {
                            (l.node_i, l.end_i)
                        };
                        amap.node_write(n, e).as_slice()[slot]
                    })
                    .collect();
                trace_slot(&mut sm.scratch, &mut sm.mem, writes.into_iter());
            }
        }
    }

    // ---- warp-shuffle data reuse (Fig. 17) --------------------------------
    if drf > 1 {
        for r in 1..drf {
            let mut n_reuse = 0u32;
            // Snapshot partner registers before mutating.
            let partners = lanes;
            for (l, lane) in lanes.iter_mut().enumerate() {
                if !lane.valid {
                    continue;
                }
                let partner = &partners[(l + r as usize) % LANES];
                // A shuffled pair is meaningful only when both lanes are
                // walking the same path (d_ref is a within-path distance);
                // cross-path shuffles are discarded, which is part of why
                // aggressive DRF schemes lose quality (Sec. VII-D).
                if !partner.valid || partner.path != lane.path {
                    continue;
                }
                let d_ref = lane.pos_i.abs_diff(partner.pos_j) as f64;
                if d_ref <= 0.0 {
                    continue;
                }
                // Register-level reuse: stale register copies of both
                // points, no memory traffic for the new pair.
                let (di, dj) = term_deltas(lane.vi, partner.vj, d_ref, eta);
                coords.add(lane.node_i, lane.end_i, di.0, di.1);
                coords.add(partner.node_j, partner.end_j, dj.0, dj.1);
                sm.applied += 1;
                n_reuse += 1;
            }
            sm.warp.issue(cost::SHUFFLE_UPDATE, n_reuse);
        }
    }

    // ---- random-state store ------------------------------------------------
    if traced {
        for w in 0..6 {
            let states = &sm.states;
            let addrs: Vec<(u64, u32)> = (0..LANES)
                .map(|l| (states.word_addr(base_state + l, w), 4))
                .collect();
            trace_slot(&mut sm.scratch, &mut sm.mem, addrs.into_iter());
        }
    }
    sm.warp.issue(cost::LDST_OVERHEAD, 32);
}

impl LayoutEngine for GpuEngine {
    fn name(&self) -> &str {
        "gpu-sim"
    }

    fn layout(&self, lean: &LeanGraph) -> Layout2D {
        self.run(lean).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmetrics::{sampled_path_stress, SamplingConfig};
    use workloads::{generate, PangenomeSpec};

    fn test_graph(sites: usize, haps: usize, seed: u64) -> LeanGraph {
        LeanGraph::from_graph(&generate(&PangenomeSpec::basic("t", sites, haps, seed)))
    }

    fn quality(layout: &Layout2D, lean: &LeanGraph) -> f64 {
        sampled_path_stress(
            layout,
            lean,
            SamplingConfig {
                samples_per_node: 30,
                seed: 77,
            },
        )
        .mean
    }

    fn fast_lcfg() -> LayoutConfig {
        LayoutConfig {
            iter_max: 10,
            steps_per_path_node: 4.0,
            ..LayoutConfig::default()
        }
    }

    #[test]
    fn gpu_layout_converges() {
        let lean = test_graph(200, 5, 1);
        let engine = GpuEngine::new(GpuSpec::a6000(), fast_lcfg(), KernelConfig::optimized(0.01));
        let (layout, report) = engine.run(&lean);
        assert!(layout.all_finite());
        assert!(report.terms_applied > 0);
        let q = quality(&layout, &lean);
        assert!(q < 1.0, "stress {q}");
    }

    #[test]
    fn launches_are_iters_plus_one() {
        let lean = test_graph(80, 4, 2);
        let engine = GpuEngine::new(GpuSpec::a6000(), fast_lcfg(), KernelConfig::base(0.01));
        let (_, report) = engine.run(&lean);
        assert_eq!(report.launches, 11);
    }

    #[test]
    fn crs_reduces_sectors_per_request() {
        let lean = test_graph(300, 6, 3);
        let run = |kcfg: KernelConfig| {
            GpuEngine::new(GpuSpec::a6000(), fast_lcfg(), kcfg)
                .run(&lean)
                .1
        };
        let base = run(KernelConfig::base(0.01));
        let crs = run(KernelConfig::base(0.01).with_crs());
        assert!(
            crs.mem.sectors_per_request() < 0.7 * base.mem.sectors_per_request(),
            "CRS {} vs base {}",
            crs.mem.sectors_per_request(),
            base.mem.sectors_per_request()
        );
        // Fewer wavefronts through L1 (the paper's Table X "L1 cache
        // access" row) and a faster modeled kernel.
        assert!(crs.mem.l1_bytes() < base.mem.l1_bytes());
        assert!(crs.modeled_s() < base.modeled_s());
    }

    #[test]
    fn cdl_reduces_dram_traffic() {
        let lean = test_graph(300, 6, 4);
        let run = |kcfg: KernelConfig| {
            GpuEngine::new(GpuSpec::a6000(), fast_lcfg(), kcfg)
                .run(&lean)
                .1
        };
        let base = run(KernelConfig::base(0.01));
        let cdl = run(KernelConfig::base(0.01).with_cdl());
        assert!(
            cdl.mem.dram_bytes() < base.mem.dram_bytes(),
            "CDL {} vs base {}",
            cdl.mem.dram_bytes(),
            base.mem.dram_bytes()
        );
    }

    #[test]
    fn wm_reduces_instructions_and_raises_occupancy() {
        let lean = test_graph(300, 6, 5);
        // Only the pre-cooling half diverges; use a schedule that spends
        // time there.
        let lcfg = LayoutConfig {
            iter_max: 8,
            steps_per_path_node: 4.0,
            cooling_start: 1.0,
            ..LayoutConfig::default()
        };
        let run = |kcfg: KernelConfig| {
            GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg)
                .run(&lean)
                .1
        };
        let base = run(KernelConfig::base(0.01));
        let wm = run(KernelConfig::base(0.01).with_wm());
        assert!(
            wm.warp.warp_instructions < base.warp.warp_instructions,
            "WM {} vs base {}",
            wm.warp.warp_instructions,
            base.warp.warp_instructions
        );
        assert!(
            wm.warp.avg_active_threads() > base.warp.avg_active_threads(),
            "WM {} vs base {}",
            wm.warp.avg_active_threads(),
            base.warp.avg_active_threads()
        );
    }

    #[test]
    fn optimized_kernel_is_modeled_faster_than_base() {
        let lean = test_graph(400, 6, 6);
        let run = |kcfg: KernelConfig| {
            GpuEngine::new(GpuSpec::a6000(), fast_lcfg(), kcfg)
                .run(&lean)
                .1
        };
        let base = run(KernelConfig::base(0.01));
        let opt = run(KernelConfig::optimized(0.01));
        assert!(
            opt.modeled_s() < base.modeled_s(),
            "optimized {} vs base {}",
            opt.modeled_s(),
            base.modeled_s()
        );
    }

    #[test]
    fn a100_is_modeled_faster_than_a6000() {
        let lean = test_graph(300, 6, 7);
        let run = |spec: GpuSpec| {
            GpuEngine::new(spec, fast_lcfg(), KernelConfig::optimized(0.01))
                .run(&lean)
                .1
        };
        let a6000 = run(GpuSpec::a6000());
        let a100 = run(GpuSpec::a100());
        assert!(a100.modeled_s() < a6000.modeled_s());
    }

    #[test]
    fn reuse_scheme_speeds_up_but_degrades_quality() {
        let lean = test_graph(400, 8, 8);
        let lcfg = LayoutConfig {
            iter_max: 12,
            steps_per_path_node: 5.0,
            ..LayoutConfig::default()
        };
        let run =
            |kcfg: KernelConfig| GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg).run(&lean);
        let (l_base, r_base) = run(KernelConfig::optimized(0.01));
        let (l_reuse, r_reuse) = run(KernelConfig::optimized(0.01).with_reuse(8, 2.5));
        assert!(
            r_reuse.modeled_s() < r_base.modeled_s(),
            "reuse {} vs base {}",
            r_reuse.modeled_s(),
            r_base.modeled_s()
        );
        let q_base = quality(&l_base, &lean);
        let q_reuse = quality(&l_reuse, &lean);
        assert!(
            q_reuse > q_base,
            "aggressive reuse must cost quality: {q_reuse} vs {q_base}"
        );
    }

    #[test]
    fn trace_sampling_extrapolates_counts() {
        let lean = test_graph(300, 6, 9);
        let lcfg = LayoutConfig {
            iter_max: 6,
            steps_per_path_node: 8.0,
            ..LayoutConfig::default()
        };
        let full = GpuEngine::new(
            GpuSpec::a6000(),
            lcfg.clone(),
            KernelConfig::optimized(0.01),
        )
        .run(&lean)
        .1;
        let sampled = GpuEngine::new(
            GpuSpec::a6000(),
            lcfg,
            KernelConfig::optimized(0.01).with_trace_fraction(0.25),
        )
        .run(&lean)
        .1;
        let ratio = sampled.mem.l1_sectors as f64 / full.mem.l1_sectors as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "extrapolated sectors off: ratio {ratio}"
        );
    }

    #[test]
    fn gpu_quality_matches_cpu_quality() {
        // The Table VIII claim: SPS ratio GPU/CPU ≈ 1.
        let lean = test_graph(400, 8, 10);
        let lcfg = LayoutConfig {
            iter_max: 15,
            threads: 4,
            ..LayoutConfig::default()
        };
        let (cpu_layout, _) = layout_core::cpu::CpuEngine::new(lcfg.clone()).run(&lean);
        let (gpu_layout, _) =
            GpuEngine::new(GpuSpec::a6000(), lcfg, KernelConfig::optimized(0.01)).run(&lean);
        let qc = quality(&cpu_layout, &lean);
        let qg = quality(&gpu_layout, &lean);
        let ratio = qg / qc.max(1e-12);
        assert!(
            (0.3..3.0).contains(&ratio),
            "GPU/CPU stress ratio {ratio} (gpu {qg}, cpu {qc})"
        );
    }

    #[test]
    fn labels_describe_configs() {
        assert_eq!(KernelConfig::base(1.0).label(), "base");
        assert_eq!(KernelConfig::optimized(1.0).label(), "CDL+CRS+WM");
        assert_eq!(
            KernelConfig::base(1.0).with_reuse(4, 2.0).label(),
            "base+reuse(4,2)"
        );
    }

    #[test]
    #[should_panic(expected = "inflate")]
    fn bad_reuse_scheme_rejected() {
        let _ = KernelConfig::base(1.0).with_reuse(0, 1.0);
    }
}
