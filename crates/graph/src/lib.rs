//! # pangraph — variation-graph substrate
//!
//! A from-scratch Rust stand-in for the parts of the ODGI framework that
//! `odgi-layout` (and therefore the paper's GPU port) depends on:
//!
//! * [`model`] — the variation graph `G = (P, V, E)` of paper Sec. II-A:
//!   nodes carrying nucleotide sequences, edges connecting oriented node
//!   *handles*, and paths describing walks that embed each input genome.
//! * [`gfa`] — a GFA v1 parser/writer, the interchange format the HPRC
//!   pangenomes ship in.
//! * [`pathindex`] — the XP-style path index: per-step nucleotide offsets
//!   (prefix sums of node lengths along every path) providing the O(1)
//!   reference distance `d_ref` lookups that dominate Alg. 1's memory
//!   traffic.
//! * [`lean`] — the paper's *lean data structure* (Sec. V-A): the layout
//!   kernel needs only node lengths and flat per-step records
//!   `(node id, path id, position, orientation)`, not sequences or dynamic
//!   containers; this module is that flattened form, shared by the CPU
//!   engine and the GPU simulator.
//! * [`stats`] — graph property reports (the quantities of paper
//!   Tables I and VI: #nucleotides, #nodes, #edges, #paths, degree,
//!   density).
//! * [`store`] — building blocks for content-addressed storage: the
//!   128-bit [`ContentHash`] identity, a binary codec for the lean
//!   structure, atomic spill writes and spill-directory eviction, from
//!   which the service's two-tier store lets a multi-gigabyte GFA be
//!   parsed exactly once no matter how many layout requests reference
//!   it.

pub mod gfa;
pub mod layout2d;
pub mod lean;
pub mod model;
pub mod pathindex;
pub mod stats;
pub mod store;

pub use gfa::{parse_gfa, parse_gfa_reader, write_gfa, GfaError};
pub use layout2d::Layout2D;
pub use lean::LeanGraph;
pub use model::{fig1_graph, GraphBuilder, Handle, NodeId, Path, PathId, VariationGraph};
pub use pathindex::PathIndex;
pub use stats::{AggregateStats, GraphStats};
pub use store::{content_hash, content_hash_parts, evict_dir, ContentHash};
