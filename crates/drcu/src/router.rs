//! The full-design colour-blind detailed router (rip-up & reroute loop).

use crate::SearchBuffers;
use tpl_design::{Design, NetId, PinId, RouteGuides, RoutedNet, RoutingSolution};
use tpl_grid::{
    path_to_routed_net, CostParams, GridGraph, GridState, PinCoverage, StepPrice, VertexId,
};

/// Configuration of the Dr.CU-like router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrCuConfig {
    /// Traditional cost parameters.
    pub cost: CostParams,
    /// Maximum number of rip-up-and-reroute iterations after the initial
    /// routing pass.
    pub max_rrr_iterations: usize,
    /// History cost added to every vertex involved in an overlap when a net
    /// is ripped up.
    pub history_increment: f64,
}

impl Default for DrCuConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            max_rrr_iterations: 3,
            history_increment: 30.0,
        }
    }
}

/// Statistics of a detailed-routing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrCuStats {
    /// Number of rip-up-and-reroute iterations actually executed.
    pub rrr_iterations: usize,
    /// Nets that could not be fully connected (no path found for some pin).
    pub failed_nets: usize,
    /// Vertices still shared by two different nets after the final pass.
    pub remaining_overlaps: usize,
    /// Maze-search frontier pops over all nets and iterations.
    pub search_nodes: usize,
}

/// The outcome of a routing run.
#[derive(Clone, Debug)]
pub struct DrCuResult {
    /// The routed geometry of every net.
    pub solution: RoutingSolution,
    /// Run statistics.
    pub stats: DrCuStats,
    /// The grid paths (vertex lists) per net, kept for downstream colouring.
    pub net_vertices: Vec<Vec<VertexId>>,
}

/// The TPL-unaware detailed router.
#[derive(Clone, Debug)]
pub struct DrCuRouter {
    config: DrCuConfig,
}

impl DrCuRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: DrCuConfig) -> Self {
        Self { config }
    }

    /// Routes every net of the design inside the given guides.
    pub fn route(&self, design: &Design, guides: &RouteGuides) -> DrCuResult {
        let _route_span = tpl_trace::span!("drcu.route", nets = design.nets().len());
        let grid = GridGraph::build(design);
        let coverage = PinCoverage::build(&grid, design);
        let mut state = GridState::new(&grid, design);
        let mut buffers = SearchBuffers::new(grid.num_vertices());
        let mut solution = RoutingSolution::new(design.nets().len());
        let mut net_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); design.nets().len()];
        let mut stats = DrCuStats::default();

        // Net ordering: short nets first (they are hardest to detour later),
        // deterministic tie-break on the id.
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
            let _iter_span = tpl_trace::span!("drcu.rrr_iteration", iteration = iteration);
            stats.rrr_iterations = iteration;
            stats.failed_nets = 0;
            for &net_id in &to_route {
                // Rip up any stale geometry of this net.
                state.release_vertices(&net_vertices[net_id.index()], net_id);
                solution.rip_up(net_id);
                net_vertices[net_id.index()].clear();

                let (routed, vertices, complete) = self.route_net(
                    design,
                    &grid,
                    &coverage,
                    &mut buffers,
                    &state,
                    guides,
                    net_id,
                );
                if !complete {
                    stats.failed_nets += 1;
                }
                for &v in &vertices {
                    state.occupy(v, net_id);
                }
                solution.set(net_id, routed);
                net_vertices[net_id.index()] = vertices;
            }

            // Find overlap victims: nets whose vertices are also claimed by
            // an earlier-committed net are detectable by re-walking every
            // net's vertex list and checking the final occupant.
            let victims = self.collect_overlap_victims(design, &state, &net_vertices);
            if victims.is_empty() || iteration == self.config.max_rrr_iterations {
                stats.remaining_overlaps = victims.len();
                break;
            }
            // Rip up the victims and try again.
            let mut next: Vec<NetId> = victims.iter().map(|(net, _)| *net).collect();
            next.sort_unstable_by_key(|id| id.index());
            next.dedup();
            for &(_, vertex) in &victims {
                state.add_history(vertex, self.config.history_increment);
            }
            for &net in &next {
                state.release_vertices(&net_vertices[net.index()], net);
            }
            to_route = next;
        }

        stats.search_nodes = buffers.search_nodes();
        DrCuResult {
            solution,
            stats,
            net_vertices,
        }
    }

    /// Routes one (multi-pin) net; returns its geometry, the grid vertices it
    /// uses, and whether every pin was connected.
    #[allow(clippy::too_many_arguments)]
    fn route_net(
        &self,
        design: &Design,
        grid: &GridGraph,
        coverage: &PinCoverage,
        buffers: &mut SearchBuffers,
        state: &GridState,
        guides: &RouteGuides,
        net_id: NetId,
    ) -> (RoutedNet, Vec<VertexId>, bool) {
        let _net_span = tpl_trace::span!("drcu.route_net", net = net_id.index());
        let nodes_before = buffers.search_nodes();
        let net = design.net(net_id);
        let in_guide = grid.guide_membership(guides, net_id);
        let price = StepPrice {
            grid,
            state,
            coverage,
            design,
            cost: &self.config.cost,
            net: net_id,
            in_guide: &in_guide,
        };

        let mut routed = RoutedNet::new();
        let mut tree: Vec<VertexId> = Vec::new();
        buffers.begin_net();

        let start_pin = net.pins()[0];
        for &v in coverage.vertices(start_pin) {
            if buffers.add_tree(v) {
                tree.push(v);
            }
        }
        let mut unreached: Vec<PinId> = net.pins()[1..].to_vec();
        let mut complete = true;

        while !unreached.is_empty() {
            match buffers.search(&price, &tree, &unreached) {
                Some((path, pin)) => {
                    path_to_routed_net(grid, &path, &mut routed);
                    // The reached pin's own access vertices join the tree so
                    // later connections can start from them.
                    for &v in path.iter().chain(coverage.vertices(pin)) {
                        if buffers.add_tree(v) {
                            tree.push(v);
                        }
                    }
                    unreached.retain(|p| *p != pin);
                    // Any other pin covered by the path is also reached.
                    unreached
                        .retain(|p| !coverage.vertices(*p).iter().any(|v| buffers.in_tree(*v)));
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        tpl_trace::counter!("drcu.search_nodes", buffers.search_nodes() - nodes_before);
        (routed, tree, complete)
    }

    /// Returns `(net, vertex)` pairs where a net's committed vertex is now
    /// occupied by a different net (an overlap/short created because the
    /// occupancy penalty was paid during search).
    fn collect_overlap_victims(
        &self,
        design: &Design,
        state: &GridState,
        net_vertices: &[Vec<VertexId>],
    ) -> Vec<(NetId, VertexId)> {
        let mut victims = Vec::new();
        for net in design.nets() {
            for &v in &net_vertices[net.id().index()] {
                if state.is_occupied_by_other(v, net.id()) {
                    victims.push((net.id(), v));
                }
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_ispd::CaseParams;

    fn small_case() -> (Design, RouteGuides) {
        let design = CaseParams::ispd18_like(1).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        (design, guides)
    }

    #[test]
    fn routes_every_net_of_a_small_benchmark() {
        let (design, guides) = small_case();
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        assert_eq!(result.solution.routed_count(), design.nets().len());
        assert_eq!(result.stats.failed_nets, 0);
        assert!(result.solution.total_wirelength() > 0);
    }

    #[test]
    fn every_routed_net_connects_its_pins() {
        let (design, guides) = small_case();
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        for net in design.nets() {
            let routed = result.solution.get(net.id()).expect("net routed");
            assert!(
                routed.connects_all_pins(&design, net.id()),
                "net {} is electrically broken",
                net.name()
            );
        }
    }

    #[test]
    fn rrr_resolves_or_reports_overlaps() {
        let (design, guides) = small_case();
        let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        // With negotiation the small case should end up with no overlaps.
        assert_eq!(result.stats.remaining_overlaps, 0);
    }

    #[test]
    fn zero_rrr_iterations_still_produces_a_full_solution() {
        let (design, guides) = small_case();
        let config = DrCuConfig {
            max_rrr_iterations: 0,
            ..DrCuConfig::default()
        };
        let result = DrCuRouter::new(config).route(&design, &guides);
        assert_eq!(result.solution.routed_count(), design.nets().len());
    }

    #[test]
    fn deterministic_across_runs() {
        let (design, guides) = small_case();
        let a = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let b = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        assert_eq!(a.solution.total_wirelength(), b.solution.total_wirelength());
        assert_eq!(a.solution.total_vias(), b.solution.total_vias());
    }
}
