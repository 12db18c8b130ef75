//! # rapid-pangenome-layout
//!
//! A from-scratch Rust reproduction of **"Rapid GPU-Based Pangenome Graph
//! Layout"** (Li et al., SC 2024): path-guided stochastic-gradient-descent
//! layout of variation graphs, the paper's three GPU kernel optimizations
//! evaluated on a purpose-built GPU microarchitecture simulator, and the
//! *sampled path stress* layout-quality metric.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Crate | Role |
//! |---|---|
//! | [`graph`] (`pangraph`) | variation graphs, GFA I/O, path index, lean layout structure |
//! | [`rng`] (`pgrng`) | Xoshiro256+, XORWOW, Zipf sampling, coalesced state pools |
//! | [`core`] (`layout-core`) | Hogwild CPU engine + PyTorch-style batch engine |
//! | [`gpu`] (`gpu-sim`) | warp-accurate GPU simulator and kernels |
//! | [`metrics`] (`pgmetrics`) | path stress and sampled path stress |
//! | [`workloads`] | synthetic HPRC-like pangenome generators |
//! | [`render`] (`draw`) | SVG / PPM rendering |
//! | [`io`] (`pgio`) | `.lay` files and TSV export |
//! | [`service`] (`pgl-service`) | multi-graph job orchestration, layout cache, HTTP serving |
//!
//! ## Quickstart
//!
//! ```
//! use rapid_pangenome_layout::prelude::*;
//!
//! // Build the paper's Fig. 1 toy graph, lay it out, and score it.
//! let graph = fig1_graph();
//! let lean = LeanGraph::from_graph(&graph);
//! let engine = CpuEngine::new(LayoutConfig { threads: 2, ..Default::default() });
//! let (layout, _report) = engine.run(&lean);
//! let quality = sampled_path_stress(&layout, &lean, SamplingConfig::default());
//! assert!(quality.mean.is_finite());
//! ```

pub use draw as render;
pub use gpu_sim as gpu;
pub use layout_core as core;
pub use pangraph as graph;
pub use pgio as io;
pub use pgl_service as service;
pub use pgmetrics as metrics;
pub use pgrng as rng;
pub use workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use draw::{rasterize, to_svg, DrawOptions};
    pub use gpu_sim::{GpuEngine, GpuSpec, KernelConfig};
    pub use layout_core::{
        order_quality, path_sgd_order, BatchEngine, CpuEngine, DataLayout, LayoutConfig,
        LayoutControl, LayoutEngine, PairSelection,
    };
    pub use pangraph::{
        fig1_graph, parse_gfa, write_gfa, GraphBuilder, Handle, Layout2D, LeanGraph, PathIndex,
        VariationGraph,
    };
    pub use pgio::{layout_to_tsv, read_lay, write_lay};
    pub use pgl_service::{
        ContentHash, EngineRegistry, EventKind, GraphSpec, GraphStore, HttpConfig, HttpServer,
        JobSpec, JobState, LayoutService, Priority, ServiceConfig,
    };
    pub use pgmetrics::{path_stress, sampled_path_stress, SampledStress, SamplingConfig};
    pub use workloads::{generate, hla_drb1, hprc_catalog, mhc_like, PangenomeSpec};
}

#[cfg(test)]
mod facade_tests {
    use super::prelude::*;

    #[test]
    fn prelude_names_resolve_and_compose() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let cfg = LayoutConfig {
            threads: 1,
            iter_max: 4,
            ..Default::default()
        };
        let engine = CpuEngine::new(cfg);
        let (layout, _) = engine.run(&lean);
        assert!(layout.all_finite());
        let svg = to_svg(&layout, &lean, &DrawOptions::default());
        assert!(svg.contains("<svg"));
    }
}
