//! The DAC'12 baseline router: expanded-graph search over 2-pin connections.

use crate::ExpandedGraph;
use std::time::Instant;
use tpl_color::{rip_up_conflicts, ColorMap, ColoredLayout, Feature, Mask};
use tpl_design::{
    Design, NetId, PinId, RouteGuides, RouteSegment, RoutedNet, RoutingSolution, ViaInstance,
};
use tpl_geom::Segment;
use tpl_grid::{
    CostParams, DenseBitSet, EpochStamps, ExactSearch, GoalBound, GridGraph, GridState, NodeQueue,
    NodeSpace, Outcome, PinCoverage, RouteBudget, SearchPops, StepPrice, StopReason, VertexId,
};

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

impl Dac12Config {
    /// The full price of a step with colour-free price `trad` onto a mask
    /// under `pressure` same-mask neighbours, plus a stitch if it changes
    /// mask along a planar move.
    #[inline]
    fn step(&self, trad: f64, pressure: u16, stitch: bool) -> f64 {
        let mut step = trad + self.color_conflict_cost * pressure as f64;
        if stitch {
            step += self.stitch_cost;
        }
        step
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
    /// Non-stale frontier pops over all 2-pin searches: expanded nodes
    /// plus every target pop, including those of the drain past the first
    /// target.  A search-node budget caps this count.
    pub search_nodes: usize,
    /// Frontier pops discarded because their node had improved since.
    pub stale_pops: usize,
    /// Expanded pops whose planar moves dominance pruning skipped.
    pub pruned_planar: usize,
    /// Wall-clock routing time in seconds.
    pub runtime_seconds: f64,
    /// How the run ended: `Complete` without a budget, `Degraded` after a
    /// search-node budget trip, `Aborted` on deadline or cancellation.
    pub outcome: Outcome,
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
/// and its per-mask dominance distances are reset together the first time
/// a search reaches the vertex.
struct NodeBuffers {
    stamps: EpochStamps,
    dist: Vec<f64>,
    /// Per `(vertex, mask)`: the least distance at which any direction
    /// class of it had its planar moves relaxed in this search.
    planar_done: Vec<f64>,
    /// Goal vertices of the current search.
    target: EpochStamps,
}

impl NodeBuffers {
    fn new(num_vertices: usize) -> Self {
        // Slots are reset when a search first reaches their vertex, so the
        // payload starts zeroed and only pages of reached vertices get
        // resident.
        Self {
            stamps: EpochStamps::new(num_vertices),
            dist: vec![0.0; num_vertices * SLOTS],
            planar_done: vec![0.0; num_vertices * MASKS],
            target: EpochStamps::new(num_vertices),
        }
    }

    fn begin(&mut self) {
        self.stamps.begin();
        self.target.begin();
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
    fn relax(&mut self, n: usize, d: f64) {
        let v = n / SLOTS;
        if !self.stamps.is_fresh(v) {
            self.stamps.touch(v);
            self.dist[v * SLOTS..(v + 1) * SLOTS].fill(f64::INFINITY);
            self.planar_done[v * MASKS..(v + 1) * MASKS].fill(f64::INFINITY);
        }
        self.dist[n] = d;
    }
}

/// Mutable state shared by every net of one run.
struct RunState {
    expanded: ExpandedGraph,
    gstate: GridState,
    map: ColorMap,
    buffers: NodeBuffers,
    exact: ExactSearch,
    solution: RoutingSolution,
    segment_masks: Vec<Vec<Option<Mask>>>,
    net_vertices: Vec<Vec<VertexId>>,
    stats: Dac12Stats,
    budget: RouteBudget,
    /// Why the run stopped early, once a budget limit was hit.
    stop: Option<StopReason>,
}

impl RunState {
    fn new(design: &Design, grid: &GridGraph, budget: &RouteBudget) -> Self {
        Self {
            expanded: ExpandedGraph::new(grid),
            gstate: GridState::new(grid, design),
            map: ColorMap::new(grid, design.tech().dcolor()),
            buffers: NodeBuffers::new(grid.num_vertices()),
            exact: ExactSearch::new(),
            solution: RoutingSolution::new(design.nets().len()),
            segment_masks: vec![Vec::new(); design.nets().len()],
            net_vertices: vec![Vec::new(); design.nets().len()],
            stats: Dac12Stats::default(),
            budget: budget.clone(),
            stop: None,
        }
    }

    /// The budget check between nets: the search-node cap, then the
    /// deadline and cancel token.
    fn budget_stop(&self) -> Option<StopReason> {
        if self.budget.remaining_nodes(self.stats.search_nodes as u64) == 0 {
            return Some(StopReason::SearchNodes);
        }
        self.budget.interrupted()
    }
}

impl Dac12Router {
    /// Creates a router with the given configuration.
    pub fn new(config: Dac12Config) -> Self {
        Self { config }
    }

    /// Routes and colours every net of the design inside the given guides.
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> Dac12Result {
        self.route_with_budget(design, guides, &RouteBudget::default())
    }

    /// Like [`route`](Dac12Router::route), under a [`RouteBudget`].
    ///
    /// Nets route one at a time, so the search-node count is charged per
    /// frontier pop and where the cap trips is a pure function of the
    /// input.  The cap is checked before each net and on every pop; a
    /// limited budget's deadline and cancel token are checked before each
    /// net and every few thousand pops.  On a stop the router keeps every
    /// committed route, including the stopped net's finished connections,
    /// and returns with `stats.outcome` [`Outcome::Degraded`] (node cap) or
    /// [`Outcome::Aborted`] (deadline, cancellation).  The stopped net and
    /// the queued nets left without a route count in `stats.failed_nets`.
    pub fn route_with_budget(
        &self,
        design: &Design,
        guides: &RouteGuides,
        budget: &RouteBudget,
    ) -> Dac12Result {
        let _route_span = tpl_trace::span!("dac12.route", nets = design.nets().len());
        let start = Instant::now();
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut run = RunState::new(design, &grid, budget);

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
        'rrr: for iteration in 0..=self.config.max_rrr_iterations {
            let _iter_span = tpl_trace::span!("dac12.rrr_iteration", iteration = iteration);
            run.stats.rrr_iterations = iteration;
            run.stats.failed_nets = 0;
            for (i, &net_id) in to_route.iter().enumerate() {
                if run.stop.is_none() {
                    run.stop = run.budget_stop();
                }
                if run.stop.is_some() {
                    // Nets not reached in this iteration keep the route of
                    // the previous one, if they have one.
                    run.stats.failed_nets += to_route[i..]
                        .iter()
                        .filter(|id| run.solution.get(**id).is_none())
                        .count();
                    break 'rrr;
                }
                let vertices = std::mem::take(&mut run.net_vertices[net_id.index()]);
                run.gstate.release_vertices(&vertices, net_id);
                run.map.remove_net(net_id);
                run.solution.rip_up(net_id);
                run.segment_masks[net_id.index()].clear();

                if !self.route_net(design, &grid, &coverage, &mut run, guides, net_id) {
                    run.stats.failed_nets += 1;
                }
            }
            if run.stop.is_some() {
                break;
            }

            let detect_span = tpl_trace::span!("dac12.conflict_detect");
            let layout = ColoredLayout::from_map(design, &run.map);
            let conflicts = layout.conflicts();
            drop(detect_span);
            if conflicts.is_empty() || iteration == self.config.max_rrr_iterations {
                break;
            }
            let victims = rip_up_conflicts(
                &layout,
                &conflicts,
                &grid,
                &mut run.gstate,
                self.config.history_increment,
            );
            if victims.is_empty() {
                break;
            }
            to_route = victims;
        }

        let layout = ColoredLayout::from_map(design, &run.map);
        let layout_stats = layout.stats();
        let mut stats = run.stats;
        stats.conflicts = layout_stats.conflicts;
        stats.stitches = layout_stats.stitches;
        stats.runtime_seconds = start.elapsed().as_secs_f64();
        stats.outcome = run.stop.map_or(Outcome::Complete, Outcome::from_stop);

        Dac12Result {
            solution: run.solution,
            segment_masks: run.segment_masks,
            layout,
            stats,
        }
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
        // The searches read the map's pressure field, which counts every
        // net's features; it equals this net's "other nets" pressure only
        // because the net was ripped up before rerouting.
        debug_assert!(!run.map.has_live_features(net_id));
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
                    if run.stop.is_some() {
                        break;
                    }
                }
            }
        }
        tpl_trace::counter!("dac12.search_nodes", run.stats.search_nodes - before.0);
        tpl_trace::counter!("dac12.stale_pops", run.stats.stale_pops - before.1);
        tpl_trace::counter!("dac12.pruned_planar", run.stats.pruned_planar - before.2);

        // Commit the net's features: its wires, then its pins.  Pin colours:
        // inherit the mask of the touching wire; if that mask already
        // collides with a coloured neighbour of another net, pick the least
        // conflicting candidate (same post-processing as Mr.TPL so the
        // comparison isolates the routing strategy).
        let _commit_span = tpl_trace::span!("dac12.commit", net = net_id.index());
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

    /// The least-cost path over the expanded (vertex, mask, direction)
    /// graph from one pin to another, as `(vertex, mask)` pairs from source
    /// to destination.  `None` when no path exists or the budget stopped
    /// the search (then `run.stop` says why).
    ///
    /// The search is the shared [`ExactSearch`] over [`TwoPinSpace`] with
    /// the [`GoalBound`] to the target pin at `alpha = 1`, admissible and
    /// consistent because the colour, stitch, guide, occupancy and history
    /// terms are all `>= 0`.  So it returns exactly the target and path of a
    /// plain Dijkstra over `(key(dist), node)` that stops at its first
    /// target and walks back the move that first reached each node at its
    /// final distance.  Its frontier pops count in `search_nodes` and
    /// `stale_pops`, and the budget caps and probes the run-wide
    /// `search_nodes`.
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
            exact,
            stats,
            budget,
            stop,
            ..
        } = run;
        let bound = GoalBound::build(grid, coverage, &self.config.cost, 1.0, &[to])?;
        buffers.begin();
        let queue = exact.begin();
        for &v in coverage.vertices(from) {
            if gstate.is_blocked(v) {
                continue;
            }
            let h = bound.h(grid, v);
            for mask in Mask::ALL {
                let n = expanded.node(v, mask, 0);
                buffers.relax(n, 0.0);
                queue.push(h, n);
            }
        }
        for &v in coverage.vertices(to) {
            buffers.target.touch(v.index());
        }

        let mut space = TwoPinSpace {
            price: StepPrice {
                grid,
                state: gstate,
                coverage,
                design,
                cost: &self.config.cost,
                net: net_id,
                in_guide,
            },
            config: &self.config,
            expanded,
            map,
            bound: &bound,
            buffers,
            pruned_planar: &mut stats.pruned_planar,
        };
        let mut pops = SearchPops {
            settled: stats.search_nodes,
            stale: stats.stale_pops,
        };
        let found = exact.run(&mut space, &mut pops, budget);
        stats.search_nodes = pops.settled;
        stats.stale_pops = pops.stale;
        let goal = match found {
            Ok(goal) => goal?,
            Err(reason) => {
                *stop = Some(reason);
                return None;
            }
        };
        let path = ExactSearch::backtrace(&space, goal)
            .into_iter()
            .map(|n| {
                let (v, mask, _) = expanded.unpack(n);
                (v, mask)
            })
            .collect();
        Some(path)
    }
}

/// The expanded `(vertex, mask, direction class)` node space of one 2-pin
/// search.
///
/// **Dominance pruning.**  A planar move's successor node and step cost
/// depend on the vertex, the mask and the direction moved, never on the
/// direction class the node was entered with.  So once some class of a
/// `(vertex, mask)` pair has relaxed its planar moves at distance `d'`, a
/// sibling expanded later at `d >= d'` would only offer distances
/// `d + step >= d' + step` to nodes that already hold at most `d' + step`;
/// under the strict `<` relax every one of those relaxations is a no-op,
/// and the space skips them.  Via moves keep the incoming class and are
/// always relaxed.  The canonical backtrace never picks a sibling that
/// Dijkstra pruned either: that sibling's earlier-expanded twin, with a
/// smaller `(key, node)`, reaches the node at the same distance.  Siblings
/// share `h`, so neither rule depends on which of them the bound orders
/// first.
struct TwoPinSpace<'a> {
    price: StepPrice<'a>,
    config: &'a Dac12Config,
    expanded: &'a ExpandedGraph,
    map: &'a ColorMap,
    bound: &'a GoalBound,
    buffers: &'a mut NodeBuffers,
    /// Expanded nodes whose planar moves dominance pruning skipped.
    pruned_planar: &'a mut usize,
}

impl NodeSpace for TwoPinSpace<'_> {
    #[inline]
    fn bound(&self, node: usize) -> f64 {
        let (v, _, _) = self.expanded.unpack(node);
        self.bound.h(self.price.grid, v)
    }

    #[inline]
    fn dist(&self, node: usize) -> f64 {
        self.buffers.dist(node)
    }

    #[inline]
    fn is_target(&self, node: usize) -> bool {
        self.buffers.target.is_fresh(node / SLOTS)
    }

    #[inline]
    fn expand(&mut self, node: usize, d: f64, queue: &mut NodeQueue) {
        let grid = self.price.grid;
        let (v, mask, dir_class) = self.expanded.unpack(node);
        let done = &mut self.buffers.planar_done[v.index() * MASKS + mask.index()];
        let planar = d < *done;
        if planar {
            *done = d;
        } else {
            *self.pruned_planar += 1;
        }
        let layer = grid.layer_of(v);
        for (dir, n) in grid.neighbors(v) {
            let next_class = match dir.axis() {
                Some(_) if !planar => continue,
                Some(_) => ExpandedGraph::dir_class(dir),
                None => dir_class,
            };
            let Some(trad) = self.price.trad(layer, dir, n) else {
                continue;
            };
            let pressure = self.map.vertex_pressure(n);
            let h = self.bound.h(grid, n);
            for next_mask in Mask::ALL {
                let step = self.config.step(
                    trad,
                    pressure[next_mask.index()],
                    dir.is_planar() && next_mask != mask,
                );
                let nn = self.expanded.node(n, next_mask, next_class);
                let nd = d + step;
                if nd < self.buffers.dist(nn) {
                    self.buffers.relax(nn, nd);
                    queue.push(nd + h, nn);
                }
            }
        }
    }

    /// A node of class `c` entered by a planar move comes from the
    /// neighbour against the move, with any mask and class if the move's
    /// class is `c`.  One entered by a via comes from the vertex across it,
    /// with any mask and the same class `c`.  Target vertices are skipped:
    /// neither search expands them, and none lies closer than the returned
    /// target.
    fn predecessors(&self, node: usize, mut visit: impl FnMut(usize, f64)) {
        let grid = self.price.grid;
        let (v, mask, class) = self.expanded.unpack(node);
        let pressure = self.map.vertex_pressure(v)[mask.index()];
        for (back, u) in grid.neighbors(v) {
            let dir = back.opposite();
            let classes = match dir.axis() {
                Some(_) if ExpandedGraph::dir_class(dir) != class => continue,
                Some(_) => 0..4,
                None => class..class + 1,
            };
            if self.buffers.target.is_fresh(u.index()) {
                continue;
            }
            let Some(trad) = self.price.trad(grid.layer_of(u), dir, v) else {
                continue;
            };
            for from_mask in Mask::ALL {
                let step = self
                    .config
                    .step(trad, pressure, dir.is_planar() && from_mask != mask);
                for c in classes.clone() {
                    visit(self.expanded.node(u, from_mask, c), step);
                }
            }
        }
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

    /// Stats of a run with the wall clock zeroed, for comparing runs.
    fn timeless(result: &Dac12Result) -> Dac12Stats {
        Dac12Stats {
            runtime_seconds: 0.0,
            ..result.stats.clone()
        }
    }

    #[test]
    fn unbudgeted_runs_report_complete() {
        let (design, guides) = small_case(0.25);
        let router = Dac12Router::new(Dac12Config::default());
        let plain = router.route(&design, &guides);
        let limited = router.route_with_budget(
            &design,
            &guides,
            &RouteBudget::with_max_search_nodes(u64::MAX),
        );
        assert_eq!(plain.stats.outcome, Outcome::Complete);
        assert_eq!(timeless(&plain), timeless(&limited));
        assert!(plain.solution.iter().eq(limited.solution.iter()));
    }

    #[test]
    fn a_node_budget_degrades_deterministically() {
        let (design, guides) = small_case(0.25);
        let router = Dac12Router::new(Dac12Config::default());
        let full = router.route(&design, &guides).stats;
        let cap = full.search_nodes as u64 / 2;
        let budget = RouteBudget::with_max_search_nodes(cap);
        let a = router.route_with_budget(&design, &guides, &budget);
        let b = router.route_with_budget(&design, &guides, &budget);
        assert_eq!(a.stats.outcome, Outcome::Degraded(StopReason::SearchNodes));
        assert_eq!(a.stats.search_nodes as u64, cap);
        assert!(a.stats.failed_nets > 0);
        assert_eq!(timeless(&a), timeless(&b));
        assert!(a.solution.iter().eq(b.solution.iter()));
        // Every committed connection is a whole path: the routed part of
        // a stopped net is still made of coloured segments.
        for (net_id, routed) in a.solution.iter() {
            assert_eq!(a.segment_masks[net_id.index()].len(), routed.segments.len());
        }
    }

    #[test]
    fn a_zero_budget_routes_nothing() {
        let (design, guides) = small_case(0.25);
        let result = Dac12Router::new(Dac12Config::default()).route_with_budget(
            &design,
            &guides,
            &RouteBudget::with_max_search_nodes(0),
        );
        assert_eq!(
            result.stats.outcome,
            Outcome::Degraded(StopReason::SearchNodes)
        );
        assert_eq!(result.stats.search_nodes, 0);
        assert_eq!(result.stats.failed_nets, design.nets().len());
        assert_eq!(result.solution.routed_count(), 0);
    }

    #[test]
    fn cancellation_and_a_passed_deadline_abort() {
        let (design, guides) = small_case(0.25);
        let router = Dac12Router::new(Dac12Config::default());
        let token = tpl_grid::CancelToken::new();
        token.cancel();
        let cancelled = RouteBudget {
            cancel: Some(token),
            ..RouteBudget::default()
        };
        let passed = RouteBudget {
            deadline: Some(Instant::now()),
            ..RouteBudget::default()
        };
        for (budget, reason) in [
            (cancelled, StopReason::Cancelled),
            (passed, StopReason::Deadline),
        ] {
            let result = router.route_with_budget(&design, &guides, &budget);
            assert_eq!(result.stats.outcome, Outcome::Aborted(reason));
            assert_eq!(result.stats.search_nodes, 0);
        }
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

/// The goal-directed search against the plain Dijkstra it replaced.
#[cfg(test)]
mod reference_dijkstra {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use tpl_design::{DesignBuilder, LayerId, Technology};
    use tpl_geom::{Axis, Dir, Rect};
    use tpl_grid::key;

    /// The plain Dijkstra and predecessor walk `route_two_pin` replaced:
    /// frontier order `(key(dist), node)`, dominance pruning, stop at the
    /// first popped target, and each node's predecessor the node whose
    /// strict relaxation last improved it.
    #[allow(clippy::too_many_arguments)]
    fn reference_route(
        router: &Dac12Router,
        design: &Design,
        grid: &GridGraph,
        coverage: &PinCoverage,
        run: &RunState,
        in_guide: &DenseBitSet,
        net: NetId,
        from: PinId,
        to: PinId,
    ) -> Option<Vec<(VertexId, Mask)>> {
        let price = StepPrice {
            grid,
            state: &run.gstate,
            coverage,
            design,
            cost: &router.config.cost,
            net,
            in_guide,
        };
        let expanded = &run.expanded;
        let mut dist = vec![f64::INFINITY; expanded.num_nodes()];
        let mut prev = vec![usize::MAX; expanded.num_nodes()];
        let mut planar_done = vec![f64::INFINITY; grid.num_vertices() * MASKS];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for &v in coverage.vertices(from) {
            if run.gstate.is_blocked(v) {
                continue;
            }
            for mask in Mask::ALL {
                let n = expanded.node(v, mask, 0);
                dist[n] = 0.0;
                heap.push(Reverse((0, n)));
            }
        }
        while let Some(Reverse((k, node))) = heap.pop() {
            let d = dist[node];
            if key(d) < k {
                continue; // stale entry
            }
            let (v, mask, dir_class) = expanded.unpack(node);
            if coverage.vertices(to).contains(&v) {
                let mut path = Vec::new();
                let mut cur = node;
                loop {
                    let (v, mask, _) = expanded.unpack(cur);
                    path.push((v, mask));
                    if prev[cur] == usize::MAX {
                        break;
                    }
                    cur = prev[cur];
                }
                path.reverse();
                return Some(path);
            }
            let done = &mut planar_done[v.index() * MASKS + mask.index()];
            let planar = d < *done;
            if planar {
                *done = d;
            }
            let layer = grid.layer_of(v);
            for (dir, n) in grid.neighbors(v) {
                let next_class = match dir.axis() {
                    Some(_) if !planar => continue,
                    Some(_) => ExpandedGraph::dir_class(dir),
                    None => dir_class,
                };
                let Some(trad) = price.trad(layer, dir, n) else {
                    continue;
                };
                let pressure = run.map.vertex_pressure(n);
                for next_mask in Mask::ALL {
                    let step = router.config.step(
                        trad,
                        pressure[next_mask.index()],
                        dir.is_planar() && next_mask != mask,
                    );
                    let nn = expanded.node(n, next_mask, next_class);
                    let nd = d + step;
                    if nd < dist[nn] {
                        dist[nn] = nd;
                        prev[nn] = node;
                        heap.push(Reverse((key(nd), nn)));
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
        /// Live masked wires of net 1 in the colour map, which give nearby
        /// vertices colour pressure.
        colored_wires: usize,
        /// Fractional history on an eighth of the vertices, weighted by a
        /// fractional `history_weight`: small enough that many distinct
        /// distances share a key with the integer costs of history-free
        /// paths.
        history: bool,
    }

    struct Instance {
        design: Design,
        grid: GridGraph,
        coverage: PinCoverage,
        in_guide: DenseBitSet,
        router: Dac12Router,
        run: RunState,
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
        let coverage = PinCoverage::build(&grid, &design);
        let config = Dac12Config {
            cost: CostParams {
                history_weight: if mix.history { 0.37 } else { 1.0 },
                ..CostParams::default()
            },
            ..Dac12Config::default()
        };
        let router = Dac12Router::new(config);
        let mut run = RunState::new(&design, &grid, &RouteBudget::default());
        for v in grid.iter_vertices() {
            if r(1000) < mix.occupied_per_mille {
                run.gstate.occupy(v, NetId::new(1));
            }
            if mix.history && r(8) == 0 {
                run.gstate.add_history(v, r(40) as f64 / 97.0);
            }
        }
        for _ in 0..mix.colored_wires {
            let layer = LayerId::new(r(4) as u32);
            let (x, y, len) = (r(400) as i64, r(400) as i64, 20 + r(160) as i64);
            let rect = match grid.layer_axis(layer) {
                Axis::Horizontal => Rect::from_coords(x, y - 4, x + len, y + 4),
                Axis::Vertical => Rect::from_coords(x - 4, y, x + 4, y + len),
            };
            let mask = Mask::from_index(r(3) as usize);
            run.map
                .insert(Feature::wire(NetId::new(1), layer, rect, Some(mask)));
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
        Instance {
            design,
            grid,
            coverage,
            in_guide,
            router,
            run,
        }
    }

    impl Instance {
        fn search(&mut self, from: PinId, to: PinId) -> Option<Vec<(VertexId, Mask)>> {
            self.router.route_two_pin(
                &self.design,
                &self.grid,
                &self.coverage,
                &mut self.run,
                &self.in_guide,
                NetId::new(0),
                from,
                to,
            )
        }

        fn reference(&self, from: PinId, to: PinId) -> Option<Vec<(VertexId, Mask)>> {
            reference_route(
                &self.router,
                &self.design,
                &self.grid,
                &self.coverage,
                &self.run,
                &self.in_guide,
                NetId::new(0),
                from,
                to,
            )
        }

        /// Distinct distances of the latest search that share a key.
        fn shared_keys(&self) -> usize {
            let b = &self.run.buffers;
            let mut dists: Vec<f64> = (0..b.dist.len())
                .map(|n| b.dist(n))
                .filter(|d| d.is_finite())
                .collect();
            dists.sort_by(f64::total_cmp);
            dists
                .windows(2)
                .filter(|w| w[0] != w[1] && key(w[0]) == key(w[1]))
                .count()
        }
    }

    /// Searches from net 0's first pin to each other pin and back, checking
    /// that every search returns the reference's path.  Returns the number
    /// of searches that found a path and the distinct distances that shared
    /// a key over all searches.
    fn assert_matches_reference(inst: &mut Instance, label: &str) -> (usize, usize) {
        let pins = inst.design.net(NetId::new(0)).pins().to_vec();
        let (mut found, mut shared) = (0, 0);
        for &other in &pins[1..] {
            for (from, to) in [(pins[0], other), (other, pins[0])] {
                let want = inst.reference(from, to);
                let got = inst.search(from, to);
                assert_eq!(got, want, "{label}, {from:?} -> {to:?}");
                found += usize::from(got.is_some());
                shared += inst.shared_keys();
            }
        }
        (found, shared)
    }

    #[test]
    fn random_blockages_match_reference_dijkstra() {
        let mut found = 0;
        for seed in 1..=60 {
            let mix = Mix {
                pins: 2,
                obstacles: 8,
                ..Mix::default()
            };
            let mut inst = random_instance(seed, mix);
            found += assert_matches_reference(&mut inst, &format!("seed {seed}")).0;
        }
        assert!(found > 60, "only {found} searches found a path");
    }

    #[test]
    fn other_nets_and_colour_pressure_match_reference_dijkstra() {
        for seed in 1..=60 {
            let mix = Mix {
                pins: 2,
                occupied_per_mille: 150,
                foreign_pins: 6,
                colored_wires: 40,
                ..Mix::default()
            };
            let mut inst = random_instance(seed, mix);
            assert!(inst
                .grid
                .iter_vertices()
                .any(|v| inst.run.map.vertex_pressure(v) != [0; 3]));
            assert_matches_reference(&mut inst, &format!("seed {seed}"));
        }
    }

    #[test]
    fn fractional_history_matches_reference_dijkstra() {
        let mut shared_keys = 0;
        for seed in 1..=60 {
            let mix = Mix {
                pins: 2,
                colored_wires: 20,
                history: true,
                ..Mix::default()
            };
            let mut inst = random_instance(seed, mix);
            shared_keys += assert_matches_reference(&mut inst, &format!("seed {seed}")).1;
        }
        // The instances only test the tie-breaks if distinct distances
        // really share a key.
        assert!(shared_keys > 0, "no two distinct distances shared a key");
    }

    #[test]
    fn mixed_multi_pin_nets_match_reference_dijkstra() {
        let mut found = 0;
        for seed in 1..=40 {
            let mix = Mix {
                pins: 3 + (seed % 3) as usize,
                obstacles: 4,
                occupied_per_mille: 50,
                foreign_pins: 3,
                colored_wires: 30,
                history: true,
            };
            let mut inst = random_instance(seed, mix);
            found += assert_matches_reference(&mut inst, &format!("seed {seed}")).0;
        }
        assert!(found > 200, "only {found} searches found a path");
    }

    /// The exactness argument needs every step to cost at least one key
    /// quantum: every term a step adds to the move price is non-negative,
    /// and the cheapest move of the default costs is a 20-unit wire.
    #[test]
    fn every_default_step_costs_at_least_one_key_quantum() {
        let config = Dac12Config::default();
        let cost = &config.cost;
        for extra in [
            cost.out_of_guide,
            cost.occupied,
            cost.history_weight,
            config.stitch_cost,
            config.color_conflict_cost,
        ] {
            assert!(extra >= 0.0);
        }
        for pitch in [1, 20] {
            for layer in [LayerId::new(0), LayerId::new(1)] {
                for axis in [Axis::Horizontal, Axis::Vertical] {
                    for dir in Dir::ALL {
                        let step = cost.move_cost(dir, layer, axis, pitch);
                        assert!(key(step) >= 1, "{dir:?} on {layer:?} costs {step}");
                    }
                }
            }
        }
    }

    /// A target pin with two one-vertex shapes on layer 1 (vertical), both
    /// at distance 240 from the source.  The high one lies 12 tracks north
    /// along layer 1.  The low one lies 5 tracks west and 3 south; with its
    /// northern neighbour taken by another net, its one optimal approach is
    /// the via down from layer 2, whose nodes have `h` = one via and sort
    /// after every layer-1 node of the same key.  So A* pops the high
    /// target first, and Dijkstra returns the low one, whose node ids are
    /// smaller.
    #[test]
    fn equal_distance_targets_match_reference_dijkstra() {
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
        let layer1 = LayerId::new(1);
        let target = b.add_pin("t", vec![(layer1, at(5, 7)), (layer1, at(10, 22))]);
        b.add_net("n0", vec![source, target]);
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        let (t_low, t_high) = (grid.vertex(1, 5, 7), grid.vertex(1, 10, 22));
        assert_eq!(coverage.vertices(target), &[t_low, t_high]);
        let mut inst = Instance {
            in_guide: DenseBitSet::full(grid.num_vertices()),
            router: Dac12Router::new(Dac12Config::default()),
            run: RunState::new(&design, &grid, &RouteBudget::default()),
            design,
            grid,
            coverage,
        };
        inst.run
            .gstate
            .occupy(inst.grid.vertex(1, 5, 8), NetId::new(1));

        let path = inst.search(source, target).expect("a path exists");
        let b = &inst.run.buffers;
        let popped: Vec<VertexId> = inst
            .run
            .exact
            .popped_targets()
            .iter()
            .map(|&n| inst.run.expanded.unpack(n).0)
            .collect();
        assert_eq!(popped.first(), Some(&t_high));
        assert!(popped.contains(&t_low));
        let (low, high) = (
            inst.run.expanded.node(t_low, Mask::Red, 1),
            inst.run.expanded.node(t_high, Mask::Red, 2),
        );
        assert_eq!((b.dist(low), b.dist(high)), (240.0, 240.0));
        assert_eq!(path.last(), Some(&(t_low, Mask::Red)));
        assert_eq!(path[path.len() - 2], (inst.grid.vertex(2, 5, 7), Mask::Red));
        assert_eq!(Some(path), inst.reference(source, target));
    }
}
