//! # gpu-sim — a GPU microarchitecture simulator for pangenome layout
//!
//! The paper's headline contribution is a CUDA implementation of
//! path-guided SGD whose performance comes from three memory-system and
//! control-flow optimizations. With no GPU in this environment, this
//! crate substitutes a **functional, instrumented GPU simulator** (see
//! README, *Substitutions*): the paper's kernels run lane-by-lane in 32-wide lockstep
//! warps across simulated SMs, producing *real layouts* while counting
//! exactly the events NVIDIA Nsight would report:
//!
//! * [`cache`] / [`memsys`] — sectored L1/L2 caches, per-warp coalescing,
//!   DRAM sector counters (Tables IX & X);
//! * [`coords32`] — the device's `float` coordinates, held in core's
//!   coordinate store;
//! * [`warp`] — issued warp instructions and active-lane divergence
//!   accounting (Table XI);
//! * [`device`] — RTX A6000 / A100 specs and a calibrated
//!   effective-bandwidth figure (one constant per device anchored to the
//!   paper's base-kernel run time; everything else is counted);
//! * [`timing`] — the roofline model converting counts into modeled
//!   seconds (Table VII, Fig. 16);
//! * [`kernel`] — the layout kernel with the three optimizations as
//!   toggles (cache-friendly data layout, coalesced random states, warp
//!   merging) plus the DRF/SRF warp-shuffle reuse schemes of Fig. 17;
//! * [`cpusim`] — the CPU-side cache/top-down characterization standing
//!   in for Linux perf / VTune (Fig. 5, Tables II & IX).

pub mod addrmap;
pub mod cache;
pub mod coords32;
pub mod cpusim;
pub mod device;
pub mod kernel;
pub mod memsys;
pub mod multigpu;
pub mod timing;
pub mod warp;

pub use addrmap::{Access, AccessList, AddrMap};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use cpusim::{characterize_cpu, modeled_cpu_time_s, CpuMemReport};
pub use device::GpuSpec;
pub use kernel::{GpuEngine, GpuReport, KernelConfig, ReuseScheme};
pub use memsys::{MemReport, SmMem};
pub use multigpu::{project as project_multi_gpu, Interconnect, MultiGpuPoint};
pub use timing::TimingModel;
pub use warp::WarpStats;
