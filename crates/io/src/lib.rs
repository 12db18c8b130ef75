//! # pgio — layout persistence, report export, and the JSON codec
//!
//! * [`lay`] — a binary layout format mirroring the role of odgi's
//!   `.lay` files (the artifact ships `layouts_cpu/chr*.lay` /
//!   `layouts_gpu/chr*.lay`): magic + node count + both endpoints' f64
//!   coordinates, little-endian, with integrity checks on read.
//! * [`tsv`] — plain-text exports: per-endpoint layout tables (odgi's
//!   `layout -T` equivalent) and generic report tables used by the
//!   benchmark harness.
//! * [`json`] — the workspace's one JSON codec: [`json::quote`] escapes
//!   every string the service, CLI and bench write into JSON, and
//!   [`Json::parse`] reads every JSON answer, event line and bench
//!   document they read back, by key or dotted path.

pub mod json;
pub mod lay;
pub mod tsv;

pub use json::{quote, Json, JsonError};
pub use lay::{load_lay, read_lay, save_lay, write_lay, LayError};
pub use tsv::{layout_to_tsv, Table};
