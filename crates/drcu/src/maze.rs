//! Multi-source maze search shared by the colour-blind router.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tpl_design::{Design, LayerId, NetId, PinId};
use tpl_grid::{CostParams, DenseBitSet, GridGraph, GridState, PinCoverage, VertexId};

/// Reusable per-search buffers with epoch-based invalidation, so routing one
/// net does not reallocate O(V) memory for every pin connection.
#[derive(Clone, Debug)]
pub struct SearchBuffers {
    epoch: u32,
    visit_epoch: Vec<u32>,
    dist: Vec<f64>,
    prev: Vec<u32>,
}

impl SearchBuffers {
    /// Creates buffers for a grid with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            epoch: 0,
            visit_epoch: vec![0; num_vertices],
            dist: vec![f64::INFINITY; num_vertices],
            prev: vec![u32::MAX; num_vertices],
        }
    }

    /// Starts a fresh search; previously written distances become stale
    /// without clearing memory.
    pub fn begin(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn is_fresh(&self, v: usize) -> bool {
        self.visit_epoch[v] == self.epoch
    }

    /// The tentative distance of a vertex in the current search.
    #[inline]
    pub fn dist(&self, v: VertexId) -> f64 {
        if self.is_fresh(v.index()) {
            self.dist[v.index()]
        } else {
            f64::INFINITY
        }
    }

    /// Sets the tentative distance and predecessor of a vertex.
    #[inline]
    pub fn relax(&mut self, v: VertexId, dist: f64, prev: Option<VertexId>) {
        let i = v.index();
        self.visit_epoch[i] = self.epoch;
        self.dist[i] = dist;
        self.prev[i] = prev.map(|p| p.0).unwrap_or(u32::MAX);
    }

    /// The predecessor of a vertex in the current search, if any.
    #[inline]
    pub fn prev(&self, v: VertexId) -> Option<VertexId> {
        if self.is_fresh(v.index()) && self.prev[v.index()] != u32::MAX {
            Some(VertexId::new(self.prev[v.index()]))
        } else {
            None
        }
    }
}

/// Everything a maze search needs to evaluate expansion costs for one net.
pub struct MazeContext<'a> {
    /// The routing grid.
    pub grid: &'a GridGraph,
    /// Blockage / occupancy / history state.
    pub state: &'a GridState,
    /// Pin-to-vertex coverage.
    pub coverage: &'a PinCoverage,
    /// The design being routed.
    pub design: &'a Design,
    /// Cost parameters.
    pub cost: &'a CostParams,
    /// The net being routed.
    pub net: NetId,
    /// Whether each vertex lies inside the net's route guide.
    pub in_guide: &'a DenseBitSet,
}

impl<'a> MazeContext<'a> {
    /// The traditional (colour-free) cost of stepping in direction `dir`
    /// from a vertex on `from_layer` onto `to`, or `None` if the step is
    /// forbidden (blocked vertex).
    #[inline]
    pub fn step_cost(&self, from_layer: LayerId, to: VertexId, dir: tpl_geom::Dir) -> Option<f64> {
        if self.state.is_blocked(to) {
            return None;
        }
        let axis = self.grid.layer_axis(from_layer);
        let mut cost = self
            .cost
            .move_cost(dir, from_layer, axis, self.grid.pitch());
        if !self.in_guide.get(to.index()) {
            cost += self.cost.out_of_guide * self.grid.pitch() as f64;
        }
        if self.state.is_occupied_by_other(to, self.net) {
            cost += self.cost.occupied;
        }
        if let Some(pin) = self.coverage.pin_at(to) {
            if self.design.pin(pin).net() != self.net {
                cost += self.cost.occupied;
            }
        }
        cost += self.cost.history_weight * self.state.history(to);
        Some(cost)
    }

    /// Runs a multi-source Dijkstra from `sources` until it pops a vertex
    /// covered by a pin of the net listed in `unreached`, returning that
    /// vertex and the pin.  Returns `None` when no unreached pin can be
    /// reached at all.
    pub fn search(
        &self,
        buffers: &mut SearchBuffers,
        sources: &[VertexId],
        unreached: &[PinId],
    ) -> Option<(VertexId, PinId)> {
        buffers.begin();
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let key = |c: f64| (c * 256.0) as u64;
        for &s in sources {
            if self.state.is_blocked(s) {
                continue;
            }
            buffers.relax(s, 0.0, None);
            heap.push(Reverse((0, s.0)));
        }
        let is_target = |v: VertexId| -> Option<PinId> {
            let pin = self.coverage.pin_at(v)?;
            if self.design.pin(pin).net() == self.net && unreached.contains(&pin) {
                Some(pin)
            } else {
                None
            }
        };

        while let Some(Reverse((k, raw))) = heap.pop() {
            let v = VertexId::new(raw);
            let d = buffers.dist(v);
            if (key(d)) < k {
                continue; // stale heap entry
            }
            if let Some(pin) = is_target(v) {
                return Some((v, pin));
            }
            let layer = self.grid.layer_of(v);
            for (dir, n) in self.grid.neighbors(v) {
                if let Some(step) = self.step_cost(layer, n, dir) {
                    let nd = d + step;
                    if nd < buffers.dist(n) {
                        buffers.relax(n, nd, Some(v));
                        heap.push(Reverse((key(nd), n.0)));
                    }
                }
            }
        }
        None
    }

    /// Walks predecessors from `dst` back to a source (a vertex with no
    /// predecessor), returning the path source-first.
    pub fn backtrace(&self, buffers: &SearchBuffers, dst: VertexId) -> Vec<VertexId> {
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = buffers.prev(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, RouteGuides, Technology};
    use tpl_geom::Rect;

    fn setup() -> (Design, GridGraph, GridState, PinCoverage) {
        let mut b = DesignBuilder::new(
            "maze",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(366, 366, 374, 374));
        b.add_net("n0", vec![p0, p1]);
        // A wall of obstacle across the middle on layer 0 and 1, with a gap.
        b.add_obstacle(1, Rect::from_coords(0, 180, 300, 220));
        let d = b.build().unwrap();
        let g = GridGraph::build(&d);
        let s = GridState::new(&g, &d);
        let c = PinCoverage::build(&g, &d);
        (d, g, s, c)
    }

    #[test]
    fn search_connects_two_pins_around_obstacles() {
        let (d, g, s, c) = setup();
        let guides = RouteGuides::new(1);
        let in_guide = g.guide_membership(&guides, NetId::new(0));
        let cost = CostParams::default();
        let ctx = MazeContext {
            grid: &g,
            state: &s,
            coverage: &c,
            design: &d,
            cost: &cost,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut buffers = SearchBuffers::new(g.num_vertices());
        let sources = c.vertices(PinId::new(0)).to_vec();
        let unreached = vec![PinId::new(1)];
        let (dst, pin) = ctx
            .search(&mut buffers, &sources, &unreached)
            .expect("path exists");
        assert_eq!(pin, PinId::new(1));
        let path = ctx.backtrace(&buffers, dst);
        assert!(path.len() >= 2);
        // The path starts at a source vertex and ends at the destination.
        assert!(sources.contains(&path[0]));
        assert_eq!(*path.last().unwrap(), dst);
        // No vertex on the path is blocked.
        assert!(path.iter().all(|v| !s.is_blocked(*v)));
        // Consecutive path vertices are grid neighbours.
        for w in path.windows(2) {
            assert!(g.neighbors(w[0]).any(|(_, n)| n == w[1]));
        }
    }

    #[test]
    fn searching_with_no_unreached_pins_returns_none() {
        let (d, g, s, c) = setup();
        let guides = RouteGuides::new(1);
        let in_guide = g.guide_membership(&guides, NetId::new(0));
        let cost = CostParams::default();
        let ctx = MazeContext {
            grid: &g,
            state: &s,
            coverage: &c,
            design: &d,
            cost: &cost,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut buffers = SearchBuffers::new(g.num_vertices());
        let sources = c.vertices(PinId::new(0)).to_vec();
        assert!(ctx.search(&mut buffers, &sources, &[]).is_none());
    }

    #[test]
    fn occupied_vertices_are_avoided_when_a_detour_exists() {
        let (d, g, mut s, c) = setup();
        // Occupy a straight wall between the pins on every layer except one
        // column, by another net.
        let other = NetId::new(7);
        for layer in 0..g.num_layers() {
            for ix in 0..g.nx() {
                if ix == g.nx() - 1 {
                    continue; // leave a gap at the right edge
                }
                s.occupy(g.vertex(layer, ix, g.ny() / 2), other);
            }
        }
        let guides = RouteGuides::new(1);
        let in_guide = g.guide_membership(&guides, NetId::new(0));
        let cost = CostParams::default();
        let ctx = MazeContext {
            grid: &g,
            state: &s,
            coverage: &c,
            design: &d,
            cost: &cost,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut buffers = SearchBuffers::new(g.num_vertices());
        let sources = c.vertices(PinId::new(0)).to_vec();
        let (dst, _) = ctx
            .search(&mut buffers, &sources, &[PinId::new(1)])
            .unwrap();
        let path = ctx.backtrace(&buffers, dst);
        // The path never steps on an occupied vertex because the detour
        // through the gap is cheaper than the occupancy penalty.
        assert!(path
            .iter()
            .all(|v| !s.is_occupied_by_other(*v, NetId::new(0))));
    }
}
