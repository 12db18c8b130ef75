//! Coordinate stores across the paper's two performance axes:
//!
//! * **Memory layout** ([`DataLayout`], Sec. V-B1, Fig. 9) —
//!   odgi's struct-of-arrays placement vs. the paper's cache-friendly
//!   array-of-structs repacking (`[len, sx, sy, ex, ey]` per node), the
//!   Table IX ablation.
//! * **Precision** ([`Precision`]) — odgi's `f64` coordinates vs. the
//!   paper's GPU-style `f32` coordinates (Sec. V-B), which halve the
//!   slab's memory traffic.
//!
//! All four combinations expose identical operations over relaxed-atomic
//! cells (Hogwild!), so engines are axis-agnostic and both choices are
//! purely performance knobs. The hot path is [`CoordStore::apply_block`]:
//! it resolves the layout × precision dispatch **once per term block**,
//! then runs a monomorphized straight-line loop — load, update step,
//! racy accumulate — with no per-access branching, which is what lets
//! the compiler keep the loop tight.
//!
//! **Bounds-check policy:** the hot loop indexes slabs with ordinary
//! checked indexing, never `get_unchecked` — measured on this kernel,
//! unchecked indexing was 10–18% *slower* (it defeats LLVM's alias and
//! vectorization reasoning), while the checked form's bounds tests are
//! hoisted.

use crate::sampler::Term;
use crate::scalar::LayoutScalar;
use crate::step::term_deltas_t;
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;

/// Memory placement of node records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLayout {
    /// Separate length/x/y arrays (odgi's layout; Fig. 9a).
    OriginalSoa,
    /// Packed per-node records (the paper's layout; Fig. 9b).
    CacheFriendlyAos,
}

impl DataLayout {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DataLayout::OriginalSoa => "original SoA",
            DataLayout::CacheFriendlyAos => "cache-friendly AoS",
        }
    }
}

/// Coordinate precision of a layout run (the paper's fp32-vs-fp64 axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision — odgi's CPU coordinates. The default.
    #[default]
    F64,
    /// Single precision — the paper's GPU coordinates; half the memory
    /// traffic per update.
    F32,
}

impl Precision {
    /// Lower-case wire/report name (`f64` / `f32`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Parse a wire name (`None` for anything unrecognized).
    pub fn parse_name(s: &str) -> Option<Self> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            _ => None,
        }
    }
}

/// AoS record stride in scalar words: `[len, sx, sy, ex, ey]`.
const AOS_STRIDE: usize = 5;

/// The accessor surface a term block is applied through. Implementations
/// are `#[inline]` leaf functions so `apply_block_scalar` monomorphizes
/// into one branch-free loop per layout × precision combination.
trait SlabOps<T: LayoutScalar> {
    fn load(&self, node: u32, end: bool) -> (T, T);
    fn store(&self, node: u32, end: bool, x: T, y: T);
    fn node_len(&self, node: u32) -> T;
}

/// odgi-style struct-of-arrays: lengths, x and y in separate slabs.
struct SoaSlab<T: LayoutScalar> {
    len: Vec<T>,
    xs: Vec<T::Cell>,
    ys: Vec<T::Cell>,
}

impl<T: LayoutScalar> SoaSlab<T> {
    fn new(lean: &LeanGraph) -> Self {
        let n = lean.node_count();
        Self {
            len: lean
                .node_len
                .iter()
                .map(|&l| T::from_f64(l as f64))
                .collect(),
            xs: zeroed_cells::<T>(2 * n),
            ys: zeroed_cells::<T>(2 * n),
        }
    }
}

impl<T: LayoutScalar> SlabOps<T> for SoaSlab<T> {
    #[inline]
    fn load(&self, node: u32, end: bool) -> (T, T) {
        let i = 2 * node as usize + end as usize;
        (T::cell_load(&self.xs[i]), T::cell_load(&self.ys[i]))
    }

    #[inline]
    fn store(&self, node: u32, end: bool, x: T, y: T) {
        let i = 2 * node as usize + end as usize;
        T::cell_store(&self.xs[i], x);
        T::cell_store(&self.ys[i], y);
    }

    #[inline]
    fn node_len(&self, node: u32) -> T {
        self.len[node as usize]
    }
}

/// The paper's array-of-structs record: node `i` at `5i`.
struct AosSlab<T: LayoutScalar> {
    rec: Vec<T::Cell>,
}

impl<T: LayoutScalar> AosSlab<T> {
    fn new(lean: &LeanGraph) -> Self {
        let rec = zeroed_cells::<T>(AOS_STRIDE * lean.node_count());
        for (i, &l) in lean.node_len.iter().enumerate() {
            T::cell_store(&rec[AOS_STRIDE * i], T::from_f64(l as f64));
        }
        Self { rec }
    }
}

impl<T: LayoutScalar> SlabOps<T> for AosSlab<T> {
    #[inline]
    fn load(&self, node: u32, end: bool) -> (T, T) {
        let base = AOS_STRIDE * node as usize + 1 + 2 * end as usize;
        (
            T::cell_load(&self.rec[base]),
            T::cell_load(&self.rec[base + 1]),
        )
    }

    #[inline]
    fn store(&self, node: u32, end: bool, x: T, y: T) {
        let base = AOS_STRIDE * node as usize + 1 + 2 * end as usize;
        T::cell_store(&self.rec[base], x);
        T::cell_store(&self.rec[base + 1], y);
    }

    #[inline]
    fn node_len(&self, node: u32) -> T {
        T::cell_load(&self.rec[AOS_STRIDE * node as usize])
    }
}

fn zeroed_cells<T: LayoutScalar>(n: usize) -> Vec<T::Cell> {
    std::iter::repeat_with(|| T::cell_new(T::ZERO))
        .take(n)
        .collect()
}

/// Hogwild-accumulate one endpoint: racy relaxed load → add → store.
#[inline]
fn hogwild_add_on<T: LayoutScalar, S: SlabOps<T>>(slab: &S, node: u32, end: bool, dx: T, dy: T) {
    let (x, y) = slab.load(node, end);
    slab.store(node, end, x + dx, y + dy);
}

/// The hot loop: apply a sampled term block with fully inlined,
/// branch-free accessors, Hogwild-adding each term's two endpoint deltas
/// (the `i` side first). Called once per block, so the layout ×
/// precision dispatch cost is amortized over the block.
#[inline]
fn apply_block_scalar<T, S>(slab: &S, terms: &[Term], eta: T)
where
    T: LayoutScalar,
    S: SlabOps<T>,
{
    for t in terms {
        let vi = slab.load(t.node_i, t.end_i);
        let vj = slab.load(t.node_j, t.end_j);
        let (di, dj) = term_deltas_t(vi, vj, T::from_f64(t.d_ref), eta);
        hogwild_add_on(slab, t.node_i, t.end_i, di.0, di.1);
        hogwild_add_on(slab, t.node_j, t.end_j, dj.0, dj.1);
    }
}

/// The four slab instantiations (layout × precision).
enum Slabs {
    SoaF64(SoaSlab<f64>),
    AosF64(AosSlab<f64>),
    SoaF32(SoaSlab<f32>),
    AosF32(AosSlab<f32>),
}

/// Hoist the slab dispatch once, then run `$body` with `$slab` bound to
/// the concrete monomorphized slab.
macro_rules! with_slab {
    ($self:expr, $slab:ident, $body:expr) => {
        match &$self.slabs {
            Slabs::SoaF64($slab) => $body,
            Slabs::AosF64($slab) => $body,
            Slabs::SoaF32($slab) => $body,
            Slabs::AosF32($slab) => $body,
        }
    };
}

/// A thread-shared coordinate store for one layout run.
pub struct CoordStore {
    layout: DataLayout,
    precision: Precision,
    n_nodes: usize,
    slabs: Slabs,
}

impl CoordStore {
    /// Allocate a zeroed double-precision store (the historical default;
    /// see [`CoordStore::with_precision`] for the full axis).
    pub fn new(layout: DataLayout, lean: &LeanGraph) -> Self {
        Self::with_precision(layout, Precision::F64, lean)
    }

    /// Allocate a zeroed store for the graph's nodes, recording node
    /// lengths (the AoS layout packs them with the coordinates, which is
    /// the point of that optimization).
    pub fn with_precision(layout: DataLayout, precision: Precision, lean: &LeanGraph) -> Self {
        let slabs = match (layout, precision) {
            (DataLayout::OriginalSoa, Precision::F64) => Slabs::SoaF64(SoaSlab::new(lean)),
            (DataLayout::CacheFriendlyAos, Precision::F64) => Slabs::AosF64(AosSlab::new(lean)),
            (DataLayout::OriginalSoa, Precision::F32) => Slabs::SoaF32(SoaSlab::new(lean)),
            (DataLayout::CacheFriendlyAos, Precision::F32) => Slabs::AosF32(AosSlab::new(lean)),
        };
        Self {
            layout,
            precision,
            n_nodes: lean.node_count(),
            slabs,
        }
    }

    /// The store's layout.
    #[inline]
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// The store's coordinate precision.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Node length as stored (used by kernels needing `pos + len`).
    #[inline]
    pub fn node_len(&self, node: u32) -> f64 {
        with_slab!(self, s, s.node_len(node).to_f64())
    }

    /// Load one endpoint's coordinates (relaxed).
    #[inline]
    pub fn load(&self, node: u32, end: bool) -> (f64, f64) {
        with_slab!(self, s, {
            let (x, y) = s.load(node, end);
            (x.to_f64(), y.to_f64())
        })
    }

    /// Store one endpoint's coordinates (relaxed).
    #[inline]
    pub fn store(&self, node: u32, end: bool, x: f64, y: f64) {
        with_slab!(self, s, s.store(node, end, from64(s, x), from64(s, y)))
    }

    /// Hogwild-accumulate a delta onto one endpoint.
    #[inline]
    pub fn add(&self, node: u32, end: bool, dx: f64, dy: f64) {
        with_slab!(
            self,
            s,
            hogwild_add_on(s, node, end, from64(s, dx), from64(s, dy))
        )
    }

    /// Apply a block of sampled terms — the engines' hot path. The slab
    /// dispatch happens once here; the per-term loop is monomorphized
    /// straight-line code in the store's native precision. This scalar
    /// path is bit-compatible with prior releases.
    #[inline]
    pub fn apply_block(&self, terms: &[Term], eta: f64) {
        with_slab!(self, s, {
            let eta = from64(s, eta);
            apply_block_scalar(s, terms, eta)
        })
    }

    /// Snapshot into a plain [`Layout2D`].
    pub fn to_layout(&self) -> Layout2D {
        let mut out = Layout2D::zeros(self.n_nodes);
        for node in 0..self.n_nodes as u32 {
            for end in [false, true] {
                let (x, y) = self.load(node, end);
                out.set(node, end, x, y);
            }
        }
        out
    }

    /// Initialize every endpoint from a plain layout.
    pub fn load_from(&self, layout: &Layout2D) {
        assert_eq!(layout.node_count(), self.n_nodes, "node count mismatch");
        for node in 0..self.n_nodes as u32 {
            for end in [false, true] {
                let (x, y) = layout.get(node, end);
                self.store(node, end, x, y);
            }
        }
    }
}

/// Narrow an `f64` to a slab's native scalar (type inference helper).
#[inline]
fn from64<T: LayoutScalar, S: SlabOps<T>>(_slab: &S, v: f64) -> T {
    T::from_f64(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::model::fig1_graph;

    fn all_stores() -> Vec<CoordStore> {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let mut out = Vec::new();
        for layout in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            for precision in [Precision::F64, Precision::F32] {
                out.push(CoordStore::with_precision(layout, precision, &lean));
            }
        }
        out
    }

    #[test]
    fn default_constructor_is_f64() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let store = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        assert_eq!(store.precision(), Precision::F64);
    }

    #[test]
    fn node_lengths_are_recorded_in_all_variants() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        for store in all_stores() {
            for (i, &l) in lean.node_len.iter().enumerate() {
                assert_eq!(
                    store.node_len(i as u32),
                    l as f64,
                    "{:?}/{:?}",
                    store.layout(),
                    store.precision()
                );
            }
        }
    }

    #[test]
    fn load_store_round_trip_all_variants() {
        for store in all_stores() {
            store.store(3, false, 1.5, -2.5);
            store.store(3, true, 7.0, 8.0);
            assert_eq!(store.load(3, false), (1.5, -2.5));
            assert_eq!(store.load(3, true), (7.0, 8.0));
            // Neighbours untouched.
            assert_eq!(store.load(2, false), (0.0, 0.0));
            assert_eq!(store.load(4, true), (0.0, 0.0));
            // Length word untouched by coordinate stores (AoS packing).
            assert_eq!(store.node_len(3), 1.0);
        }
    }

    #[test]
    fn add_accumulates() {
        for store in all_stores() {
            store.store(1, true, 10.0, 20.0);
            store.add(1, true, -1.0, 2.0);
            store.add(1, true, 0.5, 0.5);
            let (x, y) = store.load(1, true);
            assert!((x - 9.5).abs() < 1e-6, "{:?}", store.precision());
            assert!((y - 22.5).abs() < 1e-6);
        }
    }

    #[test]
    fn layouts_are_functionally_identical() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let a = CoordStore::new(DataLayout::OriginalSoa, &lean);
        let b = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        for node in 0..lean.node_count() as u32 {
            for end in [false, true] {
                let v = (node as f64 * 2.0 + end as u8 as f64, -(node as f64));
                a.store(node, end, v.0, v.1);
                b.store(node, end, v.0, v.1);
            }
        }
        assert_eq!(a.to_layout(), b.to_layout());
    }

    #[test]
    fn apply_block_matches_scalar_updates_exactly_in_f64() {
        use crate::step::term_deltas;
        let lean = LeanGraph::from_graph(&fig1_graph());
        let terms: Vec<Term> = vec![
            Term {
                s_i: 0,
                s_j: 3,
                node_i: 0,
                node_j: 3,
                end_i: false,
                end_j: true,
                d_ref: 4.0,
            },
            Term {
                s_i: 1,
                s_j: 2,
                node_i: 1,
                node_j: 2,
                end_i: true,
                end_j: false,
                d_ref: 2.0,
            },
            // Touches node 0 again: block application must accumulate.
            Term {
                s_i: 0,
                s_j: 4,
                node_i: 0,
                node_j: 4,
                end_i: false,
                end_j: false,
                d_ref: 1.5,
            },
        ];
        for layout in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            let block = CoordStore::with_precision(layout, Precision::F64, &lean);
            let scalar = CoordStore::with_precision(layout, Precision::F64, &lean);
            for node in 0..lean.node_count() as u32 {
                for end in [false, true] {
                    let v = (node as f64 * 3.0, end as u8 as f64 - 0.5);
                    block.store(node, end, v.0, v.1);
                    scalar.store(node, end, v.0, v.1);
                }
            }
            let eta = 7.5;
            block.apply_block(&terms, eta);
            for t in &terms {
                let vi = scalar.load(t.node_i, t.end_i);
                let vj = scalar.load(t.node_j, t.end_j);
                let (di, dj) = term_deltas(vi, vj, t.d_ref, eta);
                scalar.add(t.node_i, t.end_i, di.0, di.1);
                scalar.add(t.node_j, t.end_j, dj.0, dj.1);
            }
            assert_eq!(block.to_layout(), scalar.to_layout(), "{layout:?}");
        }
    }

    #[test]
    fn f32_apply_block_tracks_f64_within_single_precision() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let terms = vec![Term {
            s_i: 0,
            s_j: 3,
            node_i: 0,
            node_j: 3,
            end_i: false,
            end_j: true,
            d_ref: 4.0,
        }];
        let wide = CoordStore::with_precision(DataLayout::CacheFriendlyAos, Precision::F64, &lean);
        let narrow =
            CoordStore::with_precision(DataLayout::CacheFriendlyAos, Precision::F32, &lean);
        for s in [&wide, &narrow] {
            s.store(0, false, 0.0, 0.0);
            s.store(3, true, 10.0, 0.0);
        }
        wide.apply_block(&terms, 1e3);
        narrow.apply_block(&terms, 1e3);
        for node in [0u32, 3] {
            for end in [false, true] {
                let (xw, yw) = wide.load(node, end);
                let (xn, yn) = narrow.load(node, end);
                assert!((xw - xn).abs() < 1e-4, "node {node}: {xw} vs {xn}");
                assert!((yw - yn).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn to_layout_and_load_from_round_trip() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        for store in all_stores() {
            let mut l = Layout2D::zeros(lean.node_count());
            for node in 0..lean.node_count() as u32 {
                l.set(node, false, node as f64, 1.0);
                l.set(node, true, node as f64 + 0.5, -1.0);
            }
            store.load_from(&l);
            assert_eq!(store.to_layout(), l, "{:?}", store.precision());
            // Values past f32's 24-bit mantissa narrow as `as f32` does.
            l.set(1, true, 1.0e6 + 0.1, -3.0e-7);
            store.load_from(&l);
            let narrow = |v: f64| match store.precision() {
                Precision::F64 => v,
                Precision::F32 => v as f32 as f64,
            };
            assert_eq!(store.load(1, true), (narrow(1.0e6 + 0.1), narrow(-3.0e-7)));
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn load_from_rejects_wrong_size() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let store = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        store.load_from(&Layout2D::zeros(3));
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            DataLayout::OriginalSoa.label(),
            DataLayout::CacheFriendlyAos.label()
        );
        assert_ne!(Precision::F64.label(), Precision::F32.label());
        assert_eq!(Precision::parse_name("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse_name("f64"), Some(Precision::F64));
        assert_eq!(Precision::parse_name("f128"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }
}
