//! The device's single-precision coordinates.
//!
//! The paper's CUDA implementation keeps layout coordinates as `float`s
//! and updates them Hogwild-style from thousands of threads. The simulated
//! device keeps them in core's [`CoordStore`] with [`Precision::F32`]
//! (relaxed bit-cast atomic cells). The CPU engine uses `f64` like odgi;
//! the quality comparison between the two is part of the Table VIII
//! reproduction.

use layout_core::coords::{CoordStore, DataLayout, Precision};
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;

/// Allocate the device store for `lean` in `data_layout` and copy `init`
/// into it (the host-to-device copy). Coordinates narrow as `as f32` does.
pub fn device_coords(data_layout: DataLayout, lean: &LeanGraph, init: &Layout2D) -> CoordStore {
    let coords = CoordStore::with_precision(data_layout, Precision::F32, lean);
    coords.load_from(init);
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate, PangenomeSpec};

    const LAYOUTS: [DataLayout; 2] = [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos];

    fn lean() -> LeanGraph {
        let lean = LeanGraph::from_graph(&generate(&PangenomeSpec::basic("c32", 8, 3, 1)));
        assert!(lean.node_count() >= 2);
        lean
    }

    fn zeroed(data_layout: DataLayout, lean: &LeanGraph) -> CoordStore {
        device_coords(data_layout, lean, &Layout2D::zeros(lean.node_count()))
    }

    #[test]
    fn round_trip_through_f32() {
        let lean = lean();
        for dl in LAYOUTS {
            let c = zeroed(dl, &lean);
            assert_eq!(c.precision(), Precision::F32);
            c.store(1, true, 1.5, -2.25);
            assert_eq!(c.load(1, true), (1.5, -2.25), "{dl:?}");
            assert_eq!(c.load(1, false), (0.0, 0.0), "{dl:?}");
            c.store(0, false, 0.1, 1.0e6 + 0.1);
            let narrow = |v: f64| v as f32 as f64;
            assert_eq!(
                c.load(0, false),
                (narrow(0.1), narrow(1.0e6 + 0.1)),
                "{dl:?}"
            );
        }
    }

    #[test]
    fn add_accumulates() {
        let lean = lean();
        for dl in LAYOUTS {
            let c = zeroed(dl, &lean);
            c.add(0, false, 1.0, 2.0);
            c.add(0, false, 0.5, -1.0);
            assert_eq!(c.load(0, false), (1.5, 1.0), "{dl:?}");
        }
    }

    #[test]
    fn layout_round_trip_loses_only_f32_precision() {
        let lean = lean();
        let mut l = Layout2D::zeros(lean.node_count());
        l.set(0, false, 1.0e6 + 0.25, -3.0);
        l.set(1, true, 7.125, 9.5);
        l.set(1, false, 0.1, -1.0e-7);
        for dl in LAYOUTS {
            let back = device_coords(dl, &lean, &l).to_layout();
            for node in 0..lean.node_count() as u32 {
                for end in [false, true] {
                    let (x0, y0) = l.get(node, end);
                    let (x1, y1) = back.get(node, end);
                    assert!((x0 - x1).abs() <= (x0.abs() * 1e-6).max(1e-6), "{dl:?}");
                    assert!((y0 - y1).abs() <= (y0.abs() * 1e-6).max(1e-6), "{dl:?}");
                }
            }
        }
    }

    #[test]
    fn concurrent_hogwild_updates_survive() {
        // Hogwild rests on sparse updates: threads that race through one
        // store on different endpoints lose none of their adds. (Racing
        // adds to a single cell are checked in core's `atomicf` tests.)
        let lean = lean();
        let ends = [(0, false), (0, true), (1, false), (1, true)];
        for dl in LAYOUTS {
            let c = zeroed(dl, &lean);
            std::thread::scope(|s| {
                for (node, end) in ends {
                    let c = &c;
                    s.spawn(move || {
                        for _ in 0..10_000 {
                            c.add(node, end, 1.0, -1.0);
                        }
                    });
                }
            });
            for (node, end) in ends {
                assert_eq!(
                    c.load(node, end),
                    (10_000.0, -10_000.0),
                    "{dl:?} {node}/{end}"
                );
            }
        }
    }
}
