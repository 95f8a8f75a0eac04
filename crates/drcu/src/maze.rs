//! Goal-directed multi-source maze search of the colour-blind router.
//!
//! The search is A* on the shared `tpl-grid` kernel pieces (epoch-stamped
//! distances, the [`GoalBound`] Manhattan bound, one reused binary heap), and
//! it returns exactly the target and path that a plain Dijkstra ordered by
//! `(key(dist), id)` would return, where `key` quantises a cost to 1/256.
//! Three rules make that so:
//!
//! 1. **Bound.** The frontier is ordered by `key(d + h)` with the
//!    admissible, consistent bound `h` to the nearest unreached pin's
//!    coverage box.
//! 2. **Drain.** With `g` the least key of any target popped so far, the
//!    search keeps popping through `g + 1` (one quantum of float slack).
//!    Targets are never expanded.  Among the popped targets it returns the
//!    one with the least `(key(final dist), id)`.
//! 3. **Canonical backtrace.** From the target, each step goes to the
//!    neighbour `u` with `dist(u) + step_cost(u → cur) == dist(cur)` (the
//!    same f64 operations as the forward pass) and the least
//!    `(key(dist(u)), id(u))`, until distance 0.
//!
//! Precondition: every step costs at least one key quantum.  Then Dijkstra
//! expands each vertex once, at its final distance, in `(key(dist), id)`
//! order, so its first target is the least `(key, id)` target and a
//! vertex's predecessor is the optimal neighbour it expanded first — the
//! least `(key, id)` one.  Every optimal predecessor of a path vertex pops
//! before the target, and under a consistent bound every vertex on an
//! optimal path to the target has `d + h` no greater than the target's
//! distance, so the drain settles all of them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tpl_design::{Design, LayerId, NetId, PinId};
use tpl_grid::{
    CostParams, DenseBitSet, EpochStamps, GoalBound, GridGraph, GridState, PinCoverage, VertexId,
};

/// Search keys per cost unit.
const KEY_RESOLUTION: f64 = 256.0;

/// Quantises a cost to its search key.
#[inline]
fn key(cost: f64) -> u64 {
    (cost * KEY_RESOLUTION) as u64
}

/// Reusable search state with epoch-based invalidation, so routing one net
/// does not reallocate or clear O(V) memory for every pin connection.
#[derive(Clone, Debug)]
pub struct SearchBuffers {
    /// Guards `dist`.
    search: EpochStamps,
    dist: Vec<f64>,
    /// Membership in the current net's routed tree.
    tree: EpochStamps,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Targets the current search popped, in pop order.
    popped_targets: Vec<VertexId>,
    nodes_popped: usize,
}

impl SearchBuffers {
    /// Creates buffers for a grid with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            search: EpochStamps::new(num_vertices),
            dist: vec![f64::INFINITY; num_vertices],
            tree: EpochStamps::new(num_vertices),
            heap: BinaryHeap::new(),
            popped_targets: Vec::new(),
            nodes_popped: 0,
        }
    }

    /// Starts routing a new net: the routed tree becomes empty.
    pub(crate) fn begin_net(&mut self) {
        self.tree.begin();
    }

    /// Adds a vertex to the current net's routed tree; `false` if it was
    /// already there.
    #[inline]
    pub(crate) fn add_tree(&mut self, v: VertexId) -> bool {
        let fresh = self.tree.is_fresh(v.index());
        self.tree.touch(v.index());
        !fresh
    }

    /// True when the vertex belongs to the current net's routed tree.
    #[inline]
    pub(crate) fn in_tree(&self, v: VertexId) -> bool {
        self.tree.is_fresh(v.index())
    }

    /// The distance of a vertex in the latest search (infinite if unreached).
    #[inline]
    pub fn dist(&self, v: VertexId) -> f64 {
        if self.search.is_fresh(v.index()) {
            self.dist[v.index()]
        } else {
            f64::INFINITY
        }
    }

    /// Frontier pops of every search so far (search effort).
    pub fn search_nodes(&self) -> usize {
        self.nodes_popped
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

    /// Runs the goal-directed multi-source search from `sources` to the
    /// vertices covered by the net's pins listed in `unreached`, returning
    /// the target vertex and its pin: the target Dijkstra would pop first
    /// (see the module docs).  Returns `None` when no unreached pin can be
    /// reached at all.
    pub fn search(
        &self,
        buffers: &mut SearchBuffers,
        sources: &[VertexId],
        unreached: &[PinId],
    ) -> Option<(VertexId, PinId)> {
        let bound = GoalBound::build(self.grid, self.coverage, self.cost, 1.0, unreached)?;
        let is_target = |v: VertexId| {
            self.coverage.pin_at(v).is_some_and(|pin| {
                self.design.pin(pin).net() == self.net && unreached.contains(&pin)
            })
        };
        let b = buffers;
        b.search.begin();
        b.heap.clear();
        b.popped_targets.clear();

        for &s in sources {
            if self.state.is_blocked(s) {
                continue;
            }
            let i = s.index();
            b.search.touch(i);
            b.dist[i] = 0.0;
            b.heap.push(Reverse((key(bound.h(self.grid, s)), s.0)));
        }

        let mut goal_key: Option<u64> = None;
        while let Some(Reverse((k, raw))) = b.heap.pop() {
            if goal_key.is_some_and(|g| k > g.saturating_add(1)) {
                break; // drained one quantum past the best popped target
            }
            b.nodes_popped += 1;
            let v = VertexId::new(raw);
            let d = b.dist[v.index()];
            if key(d + bound.h(self.grid, v)) < k {
                continue; // stale entry: the vertex improved since
            }
            if is_target(v) {
                goal_key = Some(goal_key.map_or(k, |g| g.min(k)));
                b.popped_targets.push(v);
                continue;
            }
            let layer = self.grid.layer_of(v);
            for (dir, n) in self.grid.neighbors(v) {
                let Some(step) = self.step_cost(layer, n, dir) else {
                    continue;
                };
                let nd = d + step;
                if nd < b.dist(n) {
                    b.search.touch(n.index());
                    b.dist[n.index()] = nd;
                    b.heap.push(Reverse((key(nd + bound.h(self.grid, n)), n.0)));
                }
            }
        }
        let dst = b
            .popped_targets
            .iter()
            .copied()
            .min_by_key(|t| (key(b.dist[t.index()]), t.0))?;
        Some((dst, self.coverage.pin_at(dst)?))
    }

    /// The canonical path from a source to `dst`, source-first: each step
    /// back takes the neighbour whose distance plus the connecting step
    /// reproduces the current distance bit for bit, least
    /// `(key(dist), id)` first, until a source (distance 0).
    ///
    /// # Panics
    ///
    /// Panics if `dst` was not returned by the latest [`search`](Self::search)
    /// with these buffers.
    pub fn backtrace(&self, buffers: &SearchBuffers, dst: VertexId) -> Vec<VertexId> {
        let mut path = vec![dst];
        let mut cur = dst;
        loop {
            let d = buffers.dist(cur);
            if d == 0.0 {
                break;
            }
            let mut best: Option<(u64, u32)> = None;
            for (dir, u) in self.grid.neighbors(cur) {
                let du = buffers.dist(u);
                let Some(step) = self.step_cost(self.grid.layer_of(u), cur, dir.opposite()) else {
                    continue;
                };
                let cand = (key(du), u.0);
                if du + step == d && best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let (_, raw) = best.expect("a settled vertex has an optimal predecessor");
            cur = VertexId::new(raw);
            path.push(cur);
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
        // Goal direction pops a fraction of the grid.
        assert!(buffers.search_nodes() > 0);
        assert!(buffers.search_nodes() < g.num_vertices());
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

    /// The plain Dijkstra and `prev` walk this maze replaced: the reference
    /// the goal-directed search must reproduce target, pin and path of.
    fn reference_route(
        ctx: &MazeContext<'_>,
        sources: &[VertexId],
        unreached: &[PinId],
    ) -> Option<(VertexId, PinId, Vec<VertexId>)> {
        let n = ctx.grid.num_vertices();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![u32::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for &s in sources {
            if ctx.state.is_blocked(s) {
                continue;
            }
            dist[s.index()] = 0.0;
            heap.push(Reverse((0, s.0)));
        }
        let is_target = |v: VertexId| -> Option<PinId> {
            let pin = ctx.coverage.pin_at(v)?;
            if ctx.design.pin(pin).net() == ctx.net && unreached.contains(&pin) {
                Some(pin)
            } else {
                None
            }
        };
        while let Some(Reverse((k, raw))) = heap.pop() {
            let v = VertexId::new(raw);
            let d = dist[v.index()];
            if key(d) < k {
                continue; // stale heap entry
            }
            if let Some(pin) = is_target(v) {
                let mut path = vec![v];
                let mut cur = v;
                while prev[cur.index()] != u32::MAX {
                    cur = VertexId::new(prev[cur.index()]);
                    path.push(cur);
                }
                path.reverse();
                return Some((v, pin, path));
            }
            let layer = ctx.grid.layer_of(v);
            for (dir, n) in ctx.grid.neighbors(v) {
                if let Some(step) = ctx.step_cost(layer, n, dir) {
                    let nd = d + step;
                    if nd < dist[n.index()] {
                        dist[n.index()] = nd;
                        prev[n.index()] = v.0;
                        heap.push(Reverse((key(nd), n.0)));
                    }
                }
            }
        }
        None
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// What a random instance puts on the grid besides the routed net 0.
    #[derive(Clone, Copy, Default)]
    struct Mix {
        /// Pins of net 0 (at least 2).
        pins: usize,
        /// Random obstacle rectangles.
        obstacles: usize,
        /// Vertices occupied by net 1, per mille.
        occupied_per_mille: u64,
        /// Pins of net 1, which net 0 pays to cross.
        foreign_pins: usize,
        /// Fractional history on an eighth of the vertices, weighted by a
        /// fractional `history_weight`: small enough that many distinct
        /// distances share a key with the integer costs of history-free
        /// paths.
        history: bool,
    }

    struct Instance {
        design: Design,
        grid: GridGraph,
        state: GridState,
        coverage: PinCoverage,
        in_guide: DenseBitSet,
        cost: CostParams,
    }

    fn random_instance(seed: u64, mix: Mix) -> Instance {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut r = move |m: u64| xorshift(&mut s) % m;
        let mut b = DesignBuilder::new(
            "rand",
            Technology::ispd_like(4),
            Rect::from_coords(0, 0, 400, 400),
        );
        let pin = |b: &mut DesignBuilder, name: String, r: &mut dyn FnMut(u64) -> u64| {
            let (x, y) = (6 + r(360) as i64, 6 + r(360) as i64);
            let (w, h) = (8 + r(48) as i64, 8 + r(48) as i64);
            b.add_pin_shape(name, r(2) as u32, Rect::from_coords(x, y, x + w, y + h))
        };
        let pins: Vec<PinId> = (0..mix.pins)
            .map(|i| pin(&mut b, format!("p{i}"), &mut r))
            .collect();
        b.add_net("n0", pins);
        if mix.foreign_pins > 0 {
            let foreign: Vec<PinId> = (0..mix.foreign_pins)
                .map(|i| pin(&mut b, format!("f{i}"), &mut r))
                .collect();
            b.add_net("n1", foreign);
        }
        for _ in 0..mix.obstacles {
            let (x, y) = (r(380) as i64, r(380) as i64);
            let (w, h) = (10 + r(120) as i64, 10 + r(40) as i64);
            let (w, h) = if r(2) == 0 { (w, h) } else { (h, w) };
            b.add_obstacle(r(4) as u32, Rect::from_coords(x, y, x + w, y + h));
        }
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        let mut state = GridState::new(&grid, &design);
        let coverage = PinCoverage::build(&grid, &design);
        for v in grid.iter_vertices() {
            if r(1000) < mix.occupied_per_mille {
                state.occupy(v, NetId::new(1));
            }
            if mix.history && r(8) == 0 {
                state.add_history(v, r(40) as f64 / 97.0);
            }
        }
        // Half the instances confine the net to a random guide window.
        let mut in_guide = DenseBitSet::full(grid.num_vertices());
        if r(2) == 0 {
            let (x0, y0) = (r(10) as usize, r(10) as usize);
            let (x1, y1) = (x0 + 8 + r(10) as usize, y0 + 8 + r(10) as usize);
            for v in grid.iter_vertices() {
                let (_, ix, iy) = grid.coords(v);
                if !(x0..=x1).contains(&ix) || !(y0..=y1).contains(&iy) {
                    in_guide.remove(v.index());
                }
            }
        }
        let cost = CostParams {
            history_weight: if mix.history { 0.37 } else { 1.0 },
            ..CostParams::default()
        };
        Instance {
            design,
            grid,
            state,
            coverage,
            in_guide,
            cost,
        }
    }

    /// Routes net 0 pin by pin the way the router does, checking that every
    /// search returns the reference's `(target, pin, path)`.  Returns the
    /// buffers of the last search and the number of searches compared.
    fn assert_matches_reference(inst: &Instance, label: &str) -> (SearchBuffers, usize) {
        let ctx = MazeContext {
            grid: &inst.grid,
            state: &inst.state,
            coverage: &inst.coverage,
            design: &inst.design,
            cost: &inst.cost,
            net: NetId::new(0),
            in_guide: &inst.in_guide,
        };
        let mut buffers = SearchBuffers::new(inst.grid.num_vertices());
        buffers.begin_net();
        let pins = inst.design.net(NetId::new(0)).pins();
        let mut tree: Vec<VertexId> = Vec::new();
        for &v in inst.coverage.vertices(pins[0]) {
            if buffers.add_tree(v) {
                tree.push(v);
            }
        }
        let mut unreached = pins[1..].to_vec();
        let mut searches = 0;
        while !unreached.is_empty() {
            let want = reference_route(&ctx, &tree, &unreached);
            let got = ctx
                .search(&mut buffers, &tree, &unreached)
                .map(|(dst, pin)| (dst, pin, ctx.backtrace(&buffers, dst)));
            searches += 1;
            assert_eq!(got, want, "{label}, search {searches}");
            let Some((_, pin, path)) = want else {
                break;
            };
            for &v in path.iter().chain(inst.coverage.vertices(pin)) {
                if buffers.add_tree(v) {
                    tree.push(v);
                }
            }
            unreached.retain(|p| *p != pin);
            unreached.retain(|p| {
                !inst
                    .coverage
                    .vertices(*p)
                    .iter()
                    .any(|v| buffers.in_tree(*v))
            });
        }
        (buffers, searches)
    }

    #[test]
    fn random_blockages_match_reference_dijkstra() {
        for seed in 1..=100 {
            let mix = Mix {
                pins: 2,
                obstacles: 8,
                ..Mix::default()
            };
            assert_matches_reference(&random_instance(seed, mix), &format!("seed {seed}"));
        }
    }

    #[test]
    fn other_nets_match_reference_dijkstra() {
        for seed in 1..=100 {
            let mix = Mix {
                pins: 2,
                occupied_per_mille: 150,
                foreign_pins: 6,
                ..Mix::default()
            };
            assert_matches_reference(&random_instance(seed, mix), &format!("seed {seed}"));
        }
    }

    #[test]
    fn fractional_history_matches_reference_dijkstra() {
        let mut shared_keys = 0;
        for seed in 1..=100 {
            let mix = Mix {
                pins: 2,
                history: true,
                ..Mix::default()
            };
            let (buffers, _) =
                assert_matches_reference(&random_instance(seed, mix), &format!("seed {seed}"));
            // The instance is only a test of the tie-breaks if distinct
            // distances really share a key.
            let mut dists: Vec<f64> = buffers
                .dist
                .iter()
                .enumerate()
                .filter(|&(i, _)| buffers.search.is_fresh(i))
                .map(|(_, d)| *d)
                .collect();
            dists.sort_by(f64::total_cmp);
            shared_keys += dists
                .windows(2)
                .filter(|w| w[0] != w[1] && key(w[0]) == key(w[1]))
                .count();
        }
        assert!(shared_keys > 0, "no two distinct distances shared a key");
    }

    #[test]
    fn several_unreached_pins_match_reference_dijkstra() {
        let mut searches = 0;
        for seed in 1..=100 {
            let mix = Mix {
                pins: 3 + (seed % 4) as usize,
                obstacles: 4,
                occupied_per_mille: 50,
                foreign_pins: 3,
                history: true,
            };
            searches +=
                assert_matches_reference(&random_instance(seed, mix), &format!("seed {seed}")).1;
        }
        assert!(searches > 200, "only {searches} searches compared");
    }

    /// Two unreached pins at the same distance 240 from the source on an
    /// empty grid.  The lower-id one lies 5 tracks west and 3 south: its
    /// optimal paths cross on layer 2 (horizontal), whose vertices sort
    /// after every layer-1 vertex of the same key.  The higher-id one lies
    /// 12 tracks north along layer 1.  So A* pops the higher-id target
    /// first, and Dijkstra returns the lower-id one, entered by the via from
    /// above (distance 200) rather than from its layer-1 neighbour to the
    /// north (distance 220), which comes first in direction order.
    #[test]
    fn equal_distance_pins_match_reference_dijkstra() {
        let mut b = DesignBuilder::new(
            "tie",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 600, 600),
        );
        // Track (ix, iy) sits at (10 + 20 ix, 10 + 20 iy).
        let at = |ix: i64, iy: i64| {
            let (x, y) = (10 + 20 * ix, 10 + 20 * iy);
            Rect::from_coords(x - 4, y - 4, x + 4, y + 4)
        };
        let source = b.add_pin_shape("s", 1, at(10, 10));
        let low = b.add_pin_shape("low", 1, at(5, 7));
        let high = b.add_pin_shape("high", 1, at(10, 22));
        b.add_net("n0", vec![source, low, high]);
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        let state = GridState::new(&grid, &design);
        let coverage = PinCoverage::build(&grid, &design);
        let in_guide = DenseBitSet::full(grid.num_vertices());
        let cost = CostParams::default();
        let ctx = MazeContext {
            grid: &grid,
            state: &state,
            coverage: &coverage,
            design: &design,
            cost: &cost,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let (t_low, t_high) = (grid.vertex(1, 5, 7), grid.vertex(1, 10, 22));
        assert_eq!(coverage.vertices(low), &[t_low]);
        assert_eq!(coverage.vertices(high), &[t_high]);

        let sources = coverage.vertices(source).to_vec();
        let unreached = [low, high];
        let mut buffers = SearchBuffers::new(grid.num_vertices());
        let got = ctx.search(&mut buffers, &sources, &unreached);
        assert_eq!(buffers.popped_targets.first(), Some(&t_high));
        assert_eq!(buffers.dist(t_low), 240.0);
        assert_eq!(buffers.dist(t_high), 240.0);
        assert_eq!(got, Some((t_low, low)));
        let path = ctx.backtrace(&buffers, t_low);
        assert_eq!(path[path.len() - 2], grid.vertex(2, 5, 7));
        let want = reference_route(&ctx, &sources, &unreached);
        assert_eq!(Some((t_low, low, path)), want);
    }
}
