//! Goal-directed multi-source maze search of the colour-blind router.
//!
//! The maze is the grid-vertex [`NodeSpace`] of the shared exact kernel: it
//! prices moves with [`StepPrice::trad`], bounds them with the
//! [`GoalBound`] to the unreached pins' coverage boxes at `alpha = 1`, and
//! [`ExactSearch`] returns exactly the target and path that a plain Dijkstra
//! ordered by `(key(dist), id)` would return (see `tpl_grid`'s kernel docs).

use tpl_design::PinId;
use tpl_grid::{
    EpochStamps, ExactSearch, GoalBound, NodeQueue, NodeSpace, RouteBudget, SearchPops, StepPrice,
    VertexId,
};

/// Reusable search state with epoch-based invalidation, so routing one net
/// does not reallocate or clear O(V) memory for every pin connection.
#[derive(Clone, Debug)]
pub struct SearchBuffers {
    /// Guards `dist`.
    search: EpochStamps,
    dist: Vec<f64>,
    /// Membership in the current net's routed tree.
    tree: EpochStamps,
    exact: ExactSearch,
    pops: SearchPops,
}

impl SearchBuffers {
    /// Creates buffers for a grid with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            search: EpochStamps::new(num_vertices),
            dist: vec![f64::INFINITY; num_vertices],
            tree: EpochStamps::new(num_vertices),
            exact: ExactSearch::new(),
            pops: SearchPops::default(),
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

    /// Frontier pops of every search so far, stale ones included (search
    /// effort).
    pub fn search_nodes(&self) -> usize {
        self.pops.settled + self.pops.stale
    }

    /// Searches from `sources` to the vertices covered by the net's pins
    /// listed in `unreached` and returns the canonical path, source first,
    /// to the target Dijkstra would pop first, with that target's pin.
    /// Returns `None` when no unreached pin can be reached at all.
    pub fn search(
        &mut self,
        price: &StepPrice<'_>,
        sources: &[VertexId],
        unreached: &[PinId],
    ) -> Option<(Vec<VertexId>, PinId)> {
        let bound = GoalBound::build(price.grid, price.coverage, price.cost, 1.0, unreached)?;
        self.search.begin();
        let mut maze = Maze {
            price,
            bound: &bound,
            unreached,
            search: &mut self.search,
            dist: &mut self.dist,
        };
        let queue = self.exact.begin();
        for &s in sources {
            if price.state.is_blocked(s) {
                continue;
            }
            maze.relax(s.index(), 0.0);
            queue.push(bound.h(price.grid, s), s.index());
        }
        let dst = self
            .exact
            .run(&mut maze, &mut self.pops, &RouteBudget::default())
            .expect("an unlimited budget never stops")?;
        let path = ExactSearch::backtrace(&maze, dst)
            .into_iter()
            .map(|n| VertexId::new(n as u32))
            .collect();
        Some((path, price.coverage.pin_at(VertexId::new(dst as u32))?))
    }
}

/// The grid-vertex node space of one maze search.
struct Maze<'s, 'a> {
    price: &'s StepPrice<'a>,
    bound: &'s GoalBound,
    unreached: &'s [PinId],
    search: &'s mut EpochStamps,
    dist: &'s mut [f64],
}

impl Maze<'_, '_> {
    #[inline]
    fn relax(&mut self, n: usize, d: f64) {
        self.search.touch(n);
        self.dist[n] = d;
    }
}

impl NodeSpace for Maze<'_, '_> {
    #[inline]
    fn bound(&self, node: usize) -> f64 {
        self.bound.h(self.price.grid, VertexId::new(node as u32))
    }

    #[inline]
    fn dist(&self, node: usize) -> f64 {
        if self.search.is_fresh(node) {
            self.dist[node]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn is_target(&self, node: usize) -> bool {
        let p = self.price;
        p.coverage
            .pin_at(VertexId::new(node as u32))
            .is_some_and(|pin| p.design.pin(pin).net() == p.net && self.unreached.contains(&pin))
    }

    #[inline]
    fn expand(&mut self, node: usize, d: f64, queue: &mut NodeQueue) {
        let grid = self.price.grid;
        let v = VertexId::new(node as u32);
        let layer = grid.layer_of(v);
        for (dir, n) in grid.neighbors(v) {
            let Some(step) = self.price.trad(layer, dir, n) else {
                continue;
            };
            let nd = d + step;
            if nd < self.dist(n.index()) {
                self.relax(n.index(), nd);
                queue.push(nd + self.bound.h(grid, n), n.index());
            }
        }
    }

    fn predecessors(&self, node: usize, mut visit: impl FnMut(usize, f64)) {
        let grid = self.price.grid;
        let cur = VertexId::new(node as u32);
        for (dir, u) in grid.neighbors(cur) {
            if let Some(step) = self.price.trad(grid.layer_of(u), dir.opposite(), cur) {
                visit(u.index(), step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use tpl_design::{Design, DesignBuilder, NetId, RouteGuides, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{key, CostParams, DenseBitSet, GridGraph, GridState, PinCoverage};

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
        let ctx = StepPrice {
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
        let (path, pin) = buffers
            .search(&ctx, &sources, &unreached)
            .expect("path exists");
        assert_eq!(pin, PinId::new(1));
        assert!(path.len() >= 2);
        // The path starts at a source vertex and ends on the pin.
        assert!(sources.contains(&path[0]));
        assert_eq!(c.pin_at(*path.last().unwrap()), Some(pin));
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
        let ctx = StepPrice {
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
        assert!(buffers.search(&ctx, &sources, &[]).is_none());
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
        let ctx = StepPrice {
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
        let (path, _) = buffers.search(&ctx, &sources, &[PinId::new(1)]).unwrap();
        // The path never steps on an occupied vertex because the detour
        // through the gap is cheaper than the occupancy penalty.
        assert!(path
            .iter()
            .all(|v| !s.is_occupied_by_other(*v, NetId::new(0))));
    }

    /// The plain Dijkstra and `prev` walk this maze replaced: the reference
    /// the goal-directed search must reproduce target, pin and path of.
    fn reference_route(
        ctx: &StepPrice<'_>,
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
                if let Some(step) = ctx.trad(layer, dir, n) {
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
        let ctx = StepPrice {
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
            let got = buffers
                .search(&ctx, &tree, &unreached)
                .map(|(path, pin)| (*path.last().unwrap(), pin, path));
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
        let ctx = StepPrice {
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
        let (path, pin) = buffers.search(&ctx, &sources, &unreached).unwrap();
        assert_eq!(
            buffers.exact.popped_targets().first(),
            Some(&t_high.index())
        );
        assert_eq!(buffers.dist(t_low), 240.0);
        assert_eq!(buffers.dist(t_high), 240.0);
        assert_eq!((path.last(), pin), (Some(&t_low), low));
        assert_eq!(path[path.len() - 2], grid.vertex(2, 5, 7));
        let want = reference_route(&ctx, &sources, &unreached);
        assert_eq!(Some((t_low, low, path)), want);
    }
}
