//! # workloads — synthetic pangenome graphs standing in for HPRC data
//!
//! The paper evaluates on the 24 human chromosome pangenomes of the Human
//! Pangenome Reference Consortium — ~250 GB of graphs that are not
//! available in this environment. This crate synthesizes variation graphs
//! with the same *structural regime*:
//!
//! * a **linear backbone** (genomes are linear; paper Sec. II-A notes the
//!   resulting near-linear graph structure, average node degree ≈ 1.4 and
//!   density ~3.5×10⁻⁷),
//! * **variant sites** layered on the backbone — SNVs, insertions,
//!   deletions, large structural variants (including inversions) and
//!   tandem-duplication loops: exactly the feature classes the paper's
//!   Fig. 2 layout is expected to reveal,
//! * **haplotype walks** over the sites, fragmented into multiple path
//!   contigs per haplotype (HPRC paths are assembly contigs, which is why
//!   chromosome graphs carry hundreds to thousands of paths).
//!
//! [`presets`] pins down the three representative graphs of paper Table I
//! (HLA-DRB1 at full scale; MHC and Chr.1 scaled down), and [`hprc`]
//! provides a 24-chromosome catalog whose *relative* sizes follow the
//! paper's per-chromosome measurements, so the Table VI/VII/VIII
//! experiments preserve between-chromosome shape.
//!
//! Layout cost is Θ(total path length) per iteration (paper Fig. 15), so
//! scaling every graph by a factor `s` scales all runtimes by `s` without
//! changing who wins — the substitution README's *Substitutions*
//! paragraph documents.

pub mod generator;
pub mod hprc;
pub mod presets;

pub use generator::{generate, PangenomeSpec, SiteMix};
pub use hprc::{hprc_catalog, ChromEntry};
pub use presets::{chr1_like, hla_drb1, mhc_like, small_graph_family};
