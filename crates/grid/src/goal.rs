//! Admissible, consistent goal bound for the goal-directed grid searches.
//!
//! Three searches order their frontier by `d + h` with this bound: the
//! Mr.TPL colour-state search (`mrtpl-core`, at its `alpha`, on negotiation
//! reroutes, in its own loop), and the two node spaces of the shared
//! [`ExactSearch`](crate::ExactSearch), the Dr.CU-like maze (`tpl-drcu`)
//! and the DAC'12 baseline's 2-pin search (`tpl-dac12`), both at
//! `alpha = 1`.  Those two return the target and path of a plain Dijkstra
//! (see the kernel docs).

use crate::{CostParams, GridGraph, PinCoverage, VertexId};
use tpl_design::PinId;

/// Admissible lower bound to the nearest unreached pin.
///
/// Each unreached pin contributes the bounding box of its coverage vertices
/// in track coordinates plus its layer range; `h(v)` is the cheapest
/// conceivable cost of closing the Manhattan gap to the nearest box: planar
/// track gaps cost at least the minimum planar step and layer gaps at least
/// one via each, both scaled by `alpha`.  A search whose step cost is
/// `alpha` times [`CostParams::move_cost`] plus non-negative extras never
/// undercuts these minima, so the bound is admissible; one grid move changes
/// each gap by at most one step, so it is also consistent.
#[derive(Clone, Debug)]
pub struct GoalBound {
    boxes: Vec<(i32, i32, i32, i32, i32, i32)>,
    step: f64,
    via: f64,
}

impl GoalBound {
    /// Builds the bound to the coverage boxes of `unreached`, or `None` when
    /// no pin covers any vertex.
    pub fn build(
        grid: &GridGraph,
        coverage: &PinCoverage,
        cost: &CostParams,
        alpha: f64,
        unreached: &[PinId],
    ) -> Option<Self> {
        // Conservative minima: honour configs where the wrong-way or
        // base-layer multipliers dip below 1.
        let mult = cost
            .wrong_way_mult
            .min(1.0)
            .min(cost.base_layer_mult.min(1.0));
        let step = (alpha * cost.wire_cost(grid.pitch()) * mult).max(0.0);
        let via = (alpha * cost.via).max(0.0);
        let mut boxes = Vec::with_capacity(unreached.len());
        for &pin in unreached {
            let mut bbox: Option<(i32, i32, i32, i32, i32, i32)> = None;
            for &v in coverage.vertices(pin) {
                let (layer, ix, iy) = grid.coords(v);
                let (l, x, y) = (layer as i32, ix as i32, iy as i32);
                bbox = Some(match bbox {
                    None => (x, x, y, y, l, l),
                    Some((x0, x1, y0, y1, l0, l1)) => (
                        x0.min(x),
                        x1.max(x),
                        y0.min(y),
                        y1.max(y),
                        l0.min(l),
                        l1.max(l),
                    ),
                });
            }
            if let Some(b) = bbox {
                boxes.push(b);
            }
        }
        if boxes.is_empty() {
            return None;
        }
        Some(Self { boxes, step, via })
    }

    /// The lower bound from `v` to the nearest box (0 inside a box).
    #[inline]
    pub fn h(&self, grid: &GridGraph, v: VertexId) -> f64 {
        let (layer, ix, iy) = grid.coords(v);
        let (l, x, y) = (layer as i32, ix as i32, iy as i32);
        let mut best = f64::INFINITY;
        for &(x0, x1, y0, y1, l0, l1) in &self.boxes {
            let dx = (x0 - x).max(x - x1).max(0);
            let dy = (y0 - y).max(y - y1).max(0);
            let dl = (l0 - l).max(l - l1).max(0);
            let h = (dx + dy) as f64 * self.step + dl as f64 * self.via;
            if h < best {
                best = h;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;

    #[test]
    fn bound_is_zero_on_the_pin_and_never_exceeds_a_move_per_step() {
        let mut b = DesignBuilder::new(
            "goal",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 1, Rect::from_coords(366, 186, 374, 214));
        b.add_net("n0", vec![p0, p1]);
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        let cost = CostParams::default();
        let bound = GoalBound::build(&grid, &coverage, &cost, 1.0, &[PinId::new(1)]).unwrap();
        for &v in coverage.vertices(PinId::new(1)) {
            assert_eq!(bound.h(&grid, v), 0.0);
        }
        // Consistency: across every edge the bound drops by at most the
        // cheapest conceivable cost of that move.
        for v in grid.iter_vertices() {
            let layer = grid.layer_of(v);
            for (dir, n) in grid.neighbors(v) {
                let step = cost.move_cost(dir, layer, grid.layer_axis(layer), grid.pitch());
                assert!(bound.h(&grid, v) <= step + bound.h(&grid, n));
            }
        }
        assert!(GoalBound::build(&grid, &coverage, &cost, 1.0, &[]).is_none());
    }
}
