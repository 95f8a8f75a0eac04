//! The DAC'12 baseline router: expanded-graph search over 2-pin connections.

use crate::ExpandedGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use tpl_color::{ColorCostCache, ColorMap, ColoredLayout, Feature, Mask};
use tpl_design::{
    Design, NetId, PinId, RouteGuides, RouteSegment, RoutedNet, RoutingSolution, ViaInstance,
};
use tpl_geom::{Dir, Segment};
use tpl_grid::{CostParams, DenseBitSet, EpochStamps, GridGraph, GridState, PinCoverage, VertexId};

/// Configuration of the DAC'12 baseline router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dac12Config {
    /// Traditional cost parameters (shared with the other routers).
    pub cost: CostParams,
    /// Cost of a stitch (mask change along a path).
    pub stitch_cost: f64,
    /// Cost per conflicting same-mask neighbour within `Dcolor`.
    pub color_conflict_cost: f64,
    /// Maximum number of rip-up-and-reroute iterations on colour conflicts.
    pub max_rrr_iterations: usize,
    /// History cost added to vertices in conflict regions when ripping up.
    pub history_increment: f64,
}

impl Default for Dac12Config {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            stitch_cost: 20.0,
            color_conflict_cost: 350.0,
            max_rrr_iterations: 5,
            history_increment: 60.0,
        }
    }
}

/// Statistics of a DAC'12 baseline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dac12Stats {
    /// Colour conflicts remaining in the final layout.
    pub conflicts: usize,
    /// Stitches in the final layout.
    pub stitches: usize,
    /// Rip-up-and-reroute iterations executed.
    pub rrr_iterations: usize,
    /// Nets that could not be fully connected.
    pub failed_nets: usize,
    /// Number of 2-pin connections routed (MST edges over all nets).
    pub two_pin_connections: usize,
    /// Expanded (non-stale) frontier pops over all 2-pin searches.
    pub search_nodes: usize,
    /// Frontier pops discarded because their node had improved since.
    pub stale_pops: usize,
    /// Expanded pops whose planar moves dominance pruning skipped.
    pub pruned_planar: usize,
    /// Wall-clock routing time in seconds.
    pub runtime_seconds: f64,
}

/// The outcome of a DAC'12 baseline run.
#[derive(Clone, Debug)]
pub struct Dac12Result {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Per-net, per-segment mask assignment.
    pub segment_masks: Vec<Vec<Option<Mask>>>,
    /// The final coloured layout used for evaluation.
    pub layout: ColoredLayout,
    /// Run statistics.
    pub stats: Dac12Stats,
}

/// The DAC'12 vertex-splitting TPL-aware router.
#[derive(Clone, Debug)]
pub struct Dac12Router {
    config: Dac12Config,
}

const SLOTS: usize = ExpandedGraph::SLOTS;
const MASKS: usize = Mask::ALL.len();

/// Search buffers over the expanded node space.
///
/// One epoch stamp guards a whole grid vertex: its [`SLOTS`] node distances
/// and predecessors and its per-mask dominance distances are reset together
/// the first time a search reaches the vertex.
struct NodeBuffers {
    stamps: EpochStamps,
    dist: Vec<f64>,
    /// The move that reached each node, packed by [`pack_move`]
    /// ([`NO_MOVE`] at a source): a byte instead of a node id.
    came_by: Vec<u8>,
    /// Per `(vertex, mask)`: the least distance at which any direction
    /// class of it had its planar moves relaxed in this search.
    planar_done: Vec<f64>,
    /// Goal vertices of the current search.
    target: EpochStamps,
    /// Frontier entries `(key << 64) | node`: the `u128` order is exactly
    /// the `(key, node)` order, decided by one comparison.
    heap: BinaryHeap<Reverse<u128>>,
}

impl NodeBuffers {
    fn new(num_vertices: usize) -> Self {
        // Slots are reset when a search first reaches their vertex, so the
        // payload starts zeroed and only pages of reached vertices get
        // resident.
        Self {
            stamps: EpochStamps::new(num_vertices),
            dist: vec![0.0; num_vertices * SLOTS],
            came_by: vec![0; num_vertices * SLOTS],
            planar_done: vec![0.0; num_vertices * MASKS],
            target: EpochStamps::new(num_vertices),
            heap: BinaryHeap::new(),
        }
    }

    fn begin(&mut self) {
        self.stamps.begin();
        self.target.begin();
        self.heap.clear();
    }

    #[inline]
    fn dist(&self, n: usize) -> f64 {
        if self.stamps.is_fresh(n / SLOTS) {
            self.dist[n]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn relax(&mut self, n: usize, d: f64, came_by: u8) {
        let v = n / SLOTS;
        if !self.stamps.is_fresh(v) {
            self.stamps.touch(v);
            self.dist[v * SLOTS..(v + 1) * SLOTS].fill(f64::INFINITY);
            self.came_by[v * SLOTS..(v + 1) * SLOTS].fill(NO_MOVE);
            self.planar_done[v * MASKS..(v + 1) * MASKS].fill(f64::INFINITY);
        }
        self.dist[n] = d;
        self.came_by[n] = came_by;
    }

    /// The predecessor of node `n`: reverse the move that reached it.
    fn prev(&self, grid: &GridGraph, expanded: &ExpandedGraph, n: usize) -> Option<usize> {
        let code = self.came_by[n];
        if !self.stamps.is_fresh(n / SLOTS) || code == NO_MOVE {
            return None;
        }
        let (v, _, _) = expanded.unpack(n);
        let dir = Dir::ALL[usize::from(code >> 4)];
        let from = grid
            .neighbor(v, dir.opposite())
            .expect("a relaxed node's predecessor is on the grid");
        let (mask, class) = (usize::from(code >> 2 & 3), usize::from(code & 3));
        Some(expanded.node(from, Mask::from_index(mask), class))
    }
}

/// [`NodeBuffers::came_by`] of a source node.
const NO_MOVE: u8 = u8::MAX;

/// Packs a move in direction `dir` out of the node with `mask` and
/// direction class `class`.
#[inline]
fn pack_move(dir: Dir, mask: Mask, class: usize) -> u8 {
    (dir as u8) << 4 | (mask.index() as u8) << 2 | class as u8
}

/// Mutable state shared by every net of one run.
struct RunState {
    expanded: ExpandedGraph,
    gstate: GridState,
    map: ColorMap,
    buffers: NodeBuffers,
    pressure: ColorCostCache,
    solution: RoutingSolution,
    segment_masks: Vec<Vec<Option<Mask>>>,
    net_vertices: Vec<Vec<VertexId>>,
    stats: Dac12Stats,
}

impl Dac12Router {
    /// Creates a router with the given configuration.
    pub fn new(config: Dac12Config) -> Self {
        Self { config }
    }

    /// Routes and colours every net of the design inside the given guides.
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> Dac12Result {
        let _route_span = tpl_trace::span!("dac12.route", nets = design.nets().len());
        let start = Instant::now();
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut run = RunState {
            expanded: ExpandedGraph::new(&grid),
            gstate: GridState::new(&grid, design),
            map: ColorMap::new(
                design.die(),
                design.tech().num_layers(),
                design.tech().dcolor(),
            ),
            buffers: NodeBuffers::new(grid.num_vertices()),
            pressure: ColorCostCache::new(&grid),
            solution: RoutingSolution::new(design.nets().len()),
            segment_masks: vec![Vec::new(); design.nets().len()],
            net_vertices: vec![Vec::new(); design.nets().len()],
            stats: Dac12Stats::default(),
        };

        let mut order: Vec<NetId> = design.nets().iter().map(|n| n.id()).collect();
        order.sort_by_key(|id| {
            (
                design
                    .net_bbox(*id)
                    .map(|b| b.half_perimeter())
                    .unwrap_or(0),
                id.index(),
            )
        });

        let mut to_route: Vec<NetId> = order.clone();
        for iteration in 0..=self.config.max_rrr_iterations {
            let _iter_span = tpl_trace::span!("dac12.rrr_iteration", iteration = iteration);
            run.stats.rrr_iterations = iteration;
            run.stats.failed_nets = 0;
            for &net_id in &to_route {
                let vertices = std::mem::take(&mut run.net_vertices[net_id.index()]);
                run.gstate.release_vertices(&vertices, net_id);
                run.map.remove_net(net_id);
                run.solution.rip_up(net_id);
                run.segment_masks[net_id.index()].clear();

                if !self.route_net(design, &grid, &coverage, &mut run, guides, net_id) {
                    run.stats.failed_nets += 1;
                }
            }

            let detect_span = tpl_trace::span!("dac12.conflict_detect");
            let layout = self.build_layout(design, &run.map);
            let conflicts = layout.conflicts();
            drop(detect_span);
            if conflicts.is_empty() || iteration == self.config.max_rrr_iterations {
                break;
            }
            let features = layout.features();
            let mut victims: Vec<NetId> = Vec::new();
            for c in &conflicts {
                let fa = &features[c.a];
                let fb = &features[c.b];
                let (Some(na), Some(nb)) = (fa.net, fb.net) else {
                    continue;
                };
                let a_is_wire = fa.kind == tpl_color::FeatureKind::Wire;
                let b_is_wire = fb.kind == tpl_color::FeatureKind::Wire;
                let victim = match (a_is_wire, b_is_wire) {
                    (true, false) => na,
                    (false, true) => nb,
                    _ => {
                        if na.index() >= nb.index() {
                            na
                        } else {
                            nb
                        }
                    }
                };
                victims.push(victim);
                for rect in [fa.rect, fb.rect] {
                    for v in grid.vertices_in_rect(c.layer, &rect) {
                        run.gstate.add_history(v, self.config.history_increment);
                    }
                }
            }
            victims.sort_unstable_by_key(|id| id.index());
            victims.dedup();
            if victims.is_empty() {
                break;
            }
            to_route = victims;
        }

        let layout = self.build_layout(design, &run.map);
        let layout_stats = layout.stats();
        let mut stats = run.stats;
        stats.conflicts = layout_stats.conflicts;
        stats.stitches = layout_stats.stitches;
        stats.runtime_seconds = start.elapsed().as_secs_f64();

        Dac12Result {
            solution: run.solution,
            segment_masks: run.segment_masks,
            layout,
            stats,
        }
    }

    fn build_layout(&self, design: &Design, map: &ColorMap) -> ColoredLayout {
        let mut layout = ColoredLayout::new(
            design.die(),
            design.tech().num_layers(),
            design.tech().dcolor(),
        );
        for f in map.live_features() {
            layout.add(*f);
        }
        layout
    }

    /// Routes one net as independent 2-pin connections along its MST.
    fn route_net(
        &self,
        design: &Design,
        grid: &GridGraph,
        coverage: &PinCoverage,
        run: &mut RunState,
        guides: &RouteGuides,
        net_id: NetId,
    ) -> bool {
        let _net_span = tpl_trace::span!("dac12.route_net", net = net_id.index());
        let net = design.net(net_id);
        let in_guide = grid.guide_membership(guides, net_id);
        run.pressure.begin_net();
        let before = (
            run.stats.search_nodes,
            run.stats.stale_pops,
            run.stats.pruned_planar,
        );

        // MST over the pins (Prim, Manhattan distance of pin centres).
        let centers: Vec<(PinId, tpl_geom::Point)> = net
            .pins()
            .iter()
            .filter_map(|p| design.pin(*p).bbox().map(|b| (*p, b.center())))
            .collect();
        let mst = pin_mst(&centers);
        run.stats.two_pin_connections += mst.len();

        let mut routed = RoutedNet::new();
        let mut masks: Vec<Option<Mask>> = Vec::new();
        let mut vertices: Vec<VertexId> = Vec::new();
        let mut complete = true;

        for (a, b) in mst {
            let (pin_a, _) = centers[a];
            let (pin_b, _) = centers[b];
            match self.route_two_pin(design, grid, coverage, run, &in_guide, net_id, pin_a, pin_b) {
                Some(path) => {
                    // Commit this connection immediately: later connections of
                    // the same net do not get to revise its colours (the
                    // fundamental limitation of 2-pin methods).
                    emit_colored_path(grid, &path, &mut routed, &mut masks);
                    for &(v, _) in &path {
                        vertices.push(v);
                        run.gstate.occupy(v, net_id);
                    }
                }
                None => {
                    complete = false;
                }
            }
        }
        tpl_trace::counter!("dac12.search_nodes", run.stats.search_nodes - before.0);
        tpl_trace::counter!("dac12.stale_pops", run.stats.stale_pops - before.1);
        tpl_trace::counter!("dac12.pruned_planar", run.stats.pruned_planar - before.2);

        // Pin colours: inherit the mask of the touching wire; if that mask
        // already collides with a coloured neighbour of another net, pick the
        // least conflicting candidate (same post-processing as Mr.TPL so the
        // comparison isolates the routing strategy).
        let map = &mut run.map;
        for (seg, mask) in routed.segments.iter().zip(masks.iter()) {
            map.insert(Feature::wire(net_id, seg.layer, seg.rect(), *mask));
        }
        for &pin in net.pins() {
            let preferred = pin_wire_mask(design, pin, &routed, &masks);
            let mask = match preferred {
                None => None,
                Some(m) => {
                    let mut pressure = [0usize; 3];
                    for (layer, rect) in design.pin(pin).shapes() {
                        let p = map.mask_pressure(net_id, *layer, rect);
                        for i in 0..3 {
                            pressure[i] += p[i];
                        }
                    }
                    if pressure[m.index()] == 0 {
                        Some(m)
                    } else {
                        Mask::ALL
                            .into_iter()
                            .min_by_key(|c| (pressure[c.index()], (*c != m) as usize, c.index()))
                            .map(Some)
                            .unwrap_or(None)
                    }
                }
            };
            for (layer, rect) in design.pin(pin).shapes() {
                map.insert(Feature::pin(net_id, *layer, *rect, mask));
            }
        }

        run.segment_masks[net_id.index()] = masks;
        run.net_vertices[net_id.index()] = vertices;
        run.solution.set(net_id, routed);
        complete
    }

    /// Dijkstra over the expanded (vertex, mask, direction) graph from one
    /// pin to another.  Returns the path as `(vertex, mask)` pairs from
    /// source to destination.
    ///
    /// **Dominance pruning.**  A planar move's successor node and step cost
    /// depend on the vertex, the mask and the direction moved, never on the
    /// direction class the node was entered with.  So once some class of a
    /// `(vertex, mask)` pair has relaxed its planar moves at distance `d'`,
    /// a sibling popped later at `d >= d'` would only offer distances
    /// `d + step >= d' + step` to nodes that already hold at most
    /// `d' + step`; under the strict `<` relax every one of those
    /// relaxations is a no-op, and the search skips them.  Via moves keep
    /// the incoming class and are always relaxed, and the goal test runs
    /// first, so the result is identical to the unpruned search.
    #[allow(clippy::too_many_arguments)]
    fn route_two_pin(
        &self,
        design: &Design,
        grid: &GridGraph,
        coverage: &PinCoverage,
        run: &mut RunState,
        in_guide: &DenseBitSet,
        net_id: NetId,
        from: PinId,
        to: PinId,
    ) -> Option<Vec<(VertexId, Mask)>> {
        let RunState {
            expanded,
            gstate,
            map,
            buffers,
            pressure: pressure_cache,
            stats,
            ..
        } = run;
        buffers.begin();
        let key = |c: f64| (c * 256.0) as u64;
        let mut heap = std::mem::take(&mut buffers.heap);

        for &v in coverage.vertices(from) {
            if gstate.is_blocked(v) {
                continue;
            }
            for mask in Mask::ALL {
                let n = expanded.node(v, mask, 0);
                buffers.relax(n, 0.0, NO_MOVE);
                heap.push(Reverse(n as u128));
            }
        }
        for &v in coverage.vertices(to) {
            buffers.target.touch(v.index());
        }

        let cost = &self.config.cost;
        let out_of_guide = cost.out_of_guide * grid.pitch() as f64;

        let mut goal: Option<usize> = None;
        while let Some(Reverse(entry)) = heap.pop() {
            let (k, node) = ((entry >> 64) as u64, entry as u64 as usize);
            let d = buffers.dist(node);
            if key(d) < k {
                stats.stale_pops += 1;
                continue;
            }
            stats.search_nodes += 1;
            let (v, mask, dir_class) = expanded.unpack(node);
            if buffers.target.is_fresh(v.index()) {
                goal = Some(node);
                break;
            }
            let done = &mut buffers.planar_done[v.index() * MASKS + mask.index()];
            let planar = d < *done;
            if planar {
                *done = d;
            } else {
                stats.pruned_planar += 1;
            }
            let layer = grid.layer_of(v);
            let axis = grid.layer_axis(layer);
            for (dir, n) in grid.neighbors(v) {
                let next_class = match dir.axis() {
                    Some(_) if !planar => continue,
                    Some(_) => ExpandedGraph::dir_class(dir),
                    None => dir_class,
                };
                if gstate.is_blocked(n) {
                    continue;
                }
                let mut trad = cost.move_cost(dir, layer, axis, grid.pitch());
                if !in_guide.get(n.index()) {
                    trad += out_of_guide;
                }
                if gstate.is_occupied_by_other(n, net_id) {
                    trad += cost.occupied;
                }
                if let Some(pin) = coverage.pin_at(n) {
                    if design.pin(pin).net() != net_id {
                        trad += cost.occupied;
                    }
                }
                trad += cost.history_weight * gstate.history(n);

                let pressure = pressure_cache.pressure(grid, map, net_id, n);
                for next_mask in Mask::ALL {
                    let mut step =
                        trad + self.config.color_conflict_cost * pressure[next_mask.index()] as f64;
                    if dir.is_planar() && next_mask != mask {
                        step += self.config.stitch_cost;
                    }
                    let nn = expanded.node(n, next_mask, next_class);
                    let nd = d + step;
                    if nd < buffers.dist(nn) {
                        buffers.relax(nn, nd, pack_move(dir, mask, dir_class));
                        heap.push(Reverse((key(nd) as u128) << 64 | nn as u128));
                    }
                }
            }
        }
        buffers.heap = heap;

        let goal = goal?;
        let mut path = Vec::new();
        let mut cur = goal;
        loop {
            let (v, mask, _) = expanded.unpack(cur);
            path.push((v, mask));
            match buffers.prev(grid, expanded, cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        path.reverse();
        Some(path)
    }
}

/// Prim MST over pin centres; returns index pairs into the input slice.
fn pin_mst(centers: &[(PinId, tpl_geom::Point)]) -> Vec<(usize, usize)> {
    let n = centers.len();
    if n < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![i64::MAX; n];
    let mut parent = vec![0usize; n];
    in_tree[0] = true;
    for i in 1..n {
        best[i] = centers[0].1.manhattan(&centers[i].1);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = i64::MAX;
        for i in 0..n {
            if !in_tree[i] && best[i] < pick_d {
                pick = i;
                pick_d = best[i];
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        edges.push((parent[pick], pick));
        for i in 0..n {
            if !in_tree[i] {
                let d = centers[pick].1.manhattan(&centers[i].1);
                if d < best[i] {
                    best[i] = d;
                    parent[i] = pick;
                }
            }
        }
    }
    edges
}

/// Emits a `(vertex, mask)` path as coloured wire segments and vias.
fn emit_colored_path(
    grid: &GridGraph,
    path: &[(VertexId, Mask)],
    routed: &mut RoutedNet,
    masks: &mut Vec<Option<Mask>>,
) {
    if path.len() < 2 {
        return;
    }
    let mut run_start = path[0].0;
    let mut run_end = path[0].0;
    let mut run_mask = path[0].1;

    let flush = |start: VertexId,
                 end: VertexId,
                 mask: Mask,
                 routed: &mut RoutedNet,
                 masks: &mut Vec<Option<Mask>>| {
        if start == end {
            return;
        }
        let layer = grid.layer_of(start);
        routed.segments.push(RouteSegment::new(
            layer,
            Segment::new(grid.point_of(start), grid.point_of(end)),
            grid.wire_width(layer),
        ));
        masks.push(Some(mask));
    };

    for i in 1..path.len() {
        let (pv, _) = path[i - 1];
        let (cv, cmask) = path[i];
        let (pl, px, py) = grid.coords(pv);
        let (cl, cx, cy) = grid.coords(cv);
        if pl != cl {
            flush(run_start, run_end, run_mask, routed, masks);
            routed.vias.push(ViaInstance::new(
                tpl_design::LayerId::from(pl.min(cl)),
                grid.point_of(pv),
            ));
            run_start = cv;
            run_end = cv;
            run_mask = cmask;
            continue;
        }
        let collinear = {
            let (_, sx, sy) = grid.coords(run_start);
            (sx == px && px == cx) || (sy == py && py == cy)
        };
        if cmask == run_mask && collinear {
            run_end = cv;
        } else {
            flush(run_start, run_end, run_mask, routed, masks);
            run_start = pv;
            run_end = cv;
            run_mask = cmask;
        }
    }
    flush(run_start, run_end, run_mask, routed, masks);
}

/// The mask of the wire touching a pin, if any (nearest segment wins).
fn pin_wire_mask(
    design: &Design,
    pin: PinId,
    routed: &RoutedNet,
    masks: &[Option<Mask>],
) -> Option<Mask> {
    let bbox = design.pin(pin).bbox()?;
    routed
        .segments
        .iter()
        .zip(masks.iter())
        .filter_map(|(seg, mask)| Some((bbox.spacing_to(&seg.rect()), (*mask)?)))
        .min_by_key(|(d, _)| *d)
        .map(|(_, m)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::ColorState;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_ispd::CaseParams;

    fn small_case(scale: f64) -> (Design, RouteGuides) {
        let design = CaseParams::ispd18_like(1).scaled(scale).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        (design, guides)
    }

    #[test]
    fn routes_every_net_and_colors_every_segment() {
        let (design, guides) = small_case(0.3);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        assert_eq!(result.solution.routed_count(), design.nets().len());
        assert_eq!(result.stats.failed_nets, 0);
        for (net_id, routed) in result.solution.iter() {
            let masks = &result.segment_masks[net_id.index()];
            assert_eq!(masks.len(), routed.segments.len());
            assert!(masks.iter().all(|m| m.is_some()));
        }
        // Multi-pin nets produce at least pins-1 two-pin connections.
        let expected_edges: usize = design.nets().iter().map(|n| n.pin_count() - 1).sum();
        assert!(result.stats.two_pin_connections >= expected_edges);
    }

    #[test]
    fn every_net_is_electrically_connected() {
        let (design, guides) = small_case(0.3);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        for net in design.nets() {
            let routed = result.solution.get(net.id()).expect("routed");
            assert!(
                routed.connects_all_pins(&design, net.id()),
                "net {} broken",
                net.name()
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (design, guides) = small_case(0.25);
        let a = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        let b = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.stitches, b.stats.stitches);
        assert_eq!(a.solution.total_wirelength(), b.solution.total_wirelength());
    }

    #[test]
    fn search_effort_is_counted() {
        let (design, guides) = small_case(0.3);
        let s = Dac12Router::new(Dac12Config::default())
            .route(&design, &guides)
            .stats;
        assert!(s.search_nodes > 0 && s.stale_pops > 0);
        // Every direction class of a (vertex, mask) after the first is
        // pruned, so pruning is common but never exceeds the expansions.
        assert!(s.pruned_planar > 0 && s.pruned_planar < s.search_nodes);
    }

    #[test]
    fn mst_spans_all_pins() {
        let pts = vec![
            (PinId::new(0), tpl_geom::Point::new(0, 0)),
            (PinId::new(1), tpl_geom::Point::new(100, 0)),
            (PinId::new(2), tpl_geom::Point::new(0, 100)),
            (PinId::new(3), tpl_geom::Point::new(100, 100)),
        ];
        let mst = pin_mst(&pts);
        assert_eq!(mst.len(), 3);
    }

    #[test]
    fn color_state_is_unused_but_masks_are_single_valued() {
        // Sanity: the baseline never produces multi-candidate colour states;
        // every committed segment has exactly one mask.
        let (design, guides) = small_case(0.3);
        let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
        for masks in &result.segment_masks {
            for m in masks.iter().flatten() {
                assert!(ColorState::from_mask(*m).len() == 1);
            }
        }
    }
}
