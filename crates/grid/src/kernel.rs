//! The shared shortest-path search kernel of the grid routers.
//!
//! The detailed routers quantise `f64` path costs to integer frontier keys
//! with one [`key`] (256 key units per cost unit) and price their colour-free
//! moves with one [`StepPrice`](crate::StepPrice).  Who runs which loop:
//!
//! * The Dr.CU-like maze (`tpl-drcu`, node = grid vertex) and the DAC'12
//!   baseline's 2-pin search (`tpl-dac12`, node = vertex × mask × direction
//!   class) run [`ExactSearch`] over their own [`NodeSpace`].  It returns
//!   exactly the target and path of a plain Dijkstra from a goal-directed
//!   search (see *Exactness* below).
//! * The Mr.TPL colour-state search (`mrtpl-core`) keeps its own loop over a
//!   [`BucketQueue`] from [`frontier`].  It stops at the first popped target
//!   and backtraces through `prev`, because a vertex's colour state is the
//!   one carried along its `prev` chain: a canonical backtrace over
//!   equal-cost predecessors could step to a predecessor whose state does
//!   not match.  It orders its frontier by `key(d + h)` with an admissible,
//!   consistent [`GoalBound`](crate::GoalBound) on negotiation reroutes only,
//!   which preserves path cost but may pick a different equal-cost path than
//!   plain Dijkstra order.
//! * The global maze (`tpl-global`) keeps its own loop over a
//!   [`BucketQueue`] on the coarse GCell grid, at 1024 keys per cost unit,
//!   and backtraces in a fixed W/E/S/N neighbour order rather than the
//!   least `(key, id)` one.  Moving it onto [`ExactSearch`] could change
//!   which of several equal-cost guides it picks, and with them the
//!   detailed routes downstream.
//!
//! The [`BucketQueue`] pops in exactly ascending `(key, id)` order (see
//! [`crate::bucket`]), so its expansion order is that of a binary heap over
//! the same keys.
//!
//! # Exactness of [`ExactSearch`]
//!
//! A plain Dijkstra ordered by `(key(dist), node)`, stopping at its first
//! popped target and walking back the move that first reached each node at
//! its final distance, is reproduced by a goal-directed search under three
//! rules:
//!
//! 1. **Bound.** The frontier is ordered by `key(d + h)`, with `h` an
//!    admissible, consistent lower bound to the nearest target, equal for
//!    all nodes of one grid vertex (the [`GoalBound`](crate::GoalBound) at
//!    `alpha = 1`: every step price is [`CostParams::move_cost`](crate::CostParams::move_cost) plus
//!    non-negative terms).  An entry is stale when `key(d + h) < k` for the
//!    node's current distance `d`.
//! 2. **Drain.** With `g` the least key of any target popped so far, the
//!    search keeps popping through `g + 1` (one quantum of float slack).
//!    Targets are never expanded.  Among the popped targets it returns the
//!    one with the least `(key(dist), node)`.
//! 3. **Canonical backtrace.** From the target, each step goes to the node
//!    `u` with `dist(u) + step(u → cur) == dist(cur)`, priced with the
//!    forward pass's `f64` operations, with the least `(key(dist(u)), u)`,
//!    until distance 0.
//!
//! Precondition: every step costs at least one key quantum.  Then Dijkstra
//! expands each node once, at its final distance, in `(key(dist), node)`
//! order, so its first target is the least `(key, node)` target, and a
//! node's predecessor is the optimal one it expanded first, which made the
//! strict relaxation: the least `(key, node)` one.  Every optimal
//! predecessor of a path node pops before the target.  Under a consistent
//! bound every node on an optimal path to the target has `d + h` no greater
//! than the target's distance, so the drain settles all of them.
//!
//! A node space may skip relaxations that cannot improve anything (the
//! DAC'12 space's dominance pruning of planar moves): skipping no-ops leaves
//! every distance and frontier entry unchanged, in this search and in the
//! reference Dijkstra alike.

use crate::bucket::BucketQueue;
use crate::{RouteBudget, StopReason};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets a search frontier keeps addressable before entries spill to the
/// overflow heap.
const BUCKET_SPAN: usize = 1024;

/// Frontier key units per cost unit of the detailed routers.
const KEY_RESOLUTION: f64 = 256.0;

/// A limited budget's deadline and cancel token are probed whenever the
/// settled-pop count is a multiple of this mask plus one.
const INTERRUPT_PROBE_MASK: usize = 0x0FFF;

/// Quantises a path cost to its frontier key: 256 key units per cost unit.
#[inline]
pub fn key(cost: f64) -> u64 {
    (cost * KEY_RESOLUTION) as u64
}

/// Builds the frontier of one search: `1 << bucket_shift` key units per
/// bucket and `BUCKET_SPAN` buckets.  Every search frontier is built here,
/// which makes this the `grid.frontier` fault-injection site.
pub fn frontier(bucket_shift: u32) -> BucketQueue {
    tpl_fault::point!("grid.frontier");
    BucketQueue::new(bucket_shift, BUCKET_SPAN)
}

/// The graph an [`ExactSearch`] runs over.  Nodes are dense `usize` ids and
/// the space owns their distances.
pub trait NodeSpace {
    /// The admissible, consistent lower bound `h` from `node` to the nearest
    /// target.
    fn bound(&self, node: usize) -> f64;

    /// The distance of `node` in the current search (infinite if unreached).
    fn dist(&self, node: usize) -> f64;

    /// `true` when `node` is a target of the current search.
    fn is_target(&self, node: usize) -> bool;

    /// Relaxes the moves out of the non-target `node`, settled at `dist`:
    /// every successor whose distance strictly improves takes the new
    /// distance `nd` and is queued at `nd + h`.
    fn expand(&mut self, node: usize, dist: f64, queue: &mut NodeQueue);

    /// Calls `visit(u, step)` for every node `u` a move into `node` can come
    /// from, with the move's price computed as [`expand`](Self::expand)
    /// computes it.
    fn predecessors(&self, node: usize, visit: impl FnMut(usize, f64));
}

/// The frontier of an [`ExactSearch`]: a binary heap of `(key << 64) | node`
/// entries, whose `u128` order is exactly the `(key, node)` order, decided
/// by one comparison.
#[derive(Clone, Debug, Default)]
pub struct NodeQueue {
    heap: BinaryHeap<Reverse<u128>>,
}

impl NodeQueue {
    /// Queues `node` at `priority` (its `d + h`), quantised by [`key`].
    #[inline]
    pub fn push(&mut self, priority: f64, node: usize) {
        self.heap
            .push(Reverse((key(priority) as u128) << 64 | node as u128));
    }
}

/// Frontier pops of [`ExactSearch`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchPops {
    /// Pops that were not stale: expanded nodes plus every target pop,
    /// including those of the drain.  A search-node budget caps this count.
    pub settled: usize,
    /// Pops discarded because their node had improved since.
    pub stale: usize,
}

/// The exact goal-directed search loop (see the module docs), with its
/// reusable frontier and popped-target list.
#[derive(Clone, Debug, Default)]
pub struct ExactSearch {
    queue: NodeQueue,
    popped_targets: Vec<usize>,
}

impl ExactSearch {
    /// An empty search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a search and returns its emptied frontier, into which the
    /// caller queues the sources (at distance 0, priority `h`).
    pub fn begin(&mut self) -> &mut NodeQueue {
        self.queue.heap.clear();
        self.popped_targets.clear();
        &mut self.queue
    }

    /// The targets the latest search popped, in pop order.
    pub fn popped_targets(&self) -> &[usize] {
        &self.popped_targets
    }

    /// Runs the search seeded since [`begin`](Self::begin) and returns the
    /// target plain Dijkstra would pop first, or `None` when no target is
    /// reachable.  Every pop is counted in `pops`.  The budget caps
    /// `pops.settled` (checked on every settled pop) and, when limited, has
    /// its deadline and cancel token probed every few thousand settled pops;
    /// a stop returns its reason.
    pub fn run<S: NodeSpace>(
        &mut self,
        space: &mut S,
        pops: &mut SearchPops,
        budget: &RouteBudget,
    ) -> Result<Option<usize>, StopReason> {
        let node_cap = budget.max_search_nodes.unwrap_or(u64::MAX);
        let probe = !budget.is_unlimited();
        let mut goal_key: Option<u64> = None;
        while let Some(Reverse(entry)) = self.queue.heap.pop() {
            let (k, node) = ((entry >> 64) as u64, entry as u64 as usize);
            if goal_key.is_some_and(|g| k > g.saturating_add(1)) {
                break; // drained one quantum past the best popped target
            }
            let d = space.dist(node);
            if key(d + space.bound(node)) < k {
                pops.stale += 1;
                continue; // the node improved since this entry was queued
            }
            if pops.settled as u64 >= node_cap {
                return Err(StopReason::SearchNodes);
            }
            if probe && pops.settled & INTERRUPT_PROBE_MASK == 0 {
                if let Some(reason) = budget.interrupted() {
                    return Err(reason);
                }
            }
            pops.settled += 1;
            if space.is_target(node) {
                goal_key = Some(goal_key.map_or(k, |g| g.min(k)));
                self.popped_targets.push(node);
                continue;
            }
            space.expand(node, d, &mut self.queue);
        }
        Ok(self
            .popped_targets
            .iter()
            .copied()
            .min_by_key(|&t| (key(space.dist(t)), t)))
    }

    /// The canonical path from a source to `target`, source first: each step
    /// back goes to the predecessor whose distance plus the connecting step
    /// reproduces the current distance bit for bit, least
    /// `(key(dist), node)` first, until a source (distance 0).
    ///
    /// # Panics
    ///
    /// Panics if `target` was not settled by the latest search of `space`.
    pub fn backtrace<S: NodeSpace>(space: &S, target: usize) -> Vec<usize> {
        let mut path = vec![target];
        let mut cur = target;
        loop {
            let d = space.dist(cur);
            if d == 0.0 {
                break;
            }
            let mut best: Option<(u64, usize)> = None;
            space.predecessors(cur, |u, step| {
                let du = space.dist(u);
                let cand = (key(du), u);
                if du + step == d && best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            });
            cur = best.expect("a settled node has an optimal predecessor").1;
            path.push(cur);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_match_the_historical_quantisation() {
        assert_eq!(key(1.0), 256);
        assert_eq!(key(20.0), 5120);
        assert_eq!(key(0.0), 0);
        assert_eq!(key(1.0 / 512.0), 0);
    }

    /// A weighted digraph on `0..n` with a given bound, for driving the
    /// loop directly.
    struct Graph {
        edges: Vec<(usize, usize, f64)>,
        h: Vec<f64>,
        targets: Vec<usize>,
        dist: Vec<f64>,
    }

    impl Graph {
        fn new(n: usize, edges: &[(usize, usize, f64)], targets: &[usize]) -> Self {
            Self {
                edges: edges.to_vec(),
                h: vec![0.0; n],
                targets: targets.to_vec(),
                dist: vec![f64::INFINITY; n],
            }
        }

        fn search(&mut self, sources: &[usize]) -> (Option<Vec<usize>>, SearchPops) {
            let mut search = ExactSearch::new();
            let queue = search.begin();
            for &s in sources {
                self.dist[s] = 0.0;
                queue.push(self.h[s], s);
            }
            let mut pops = SearchPops::default();
            let target = search
                .run(self, &mut pops, &RouteBudget::default())
                .expect("unlimited");
            (target.map(|t| ExactSearch::backtrace(self, t)), pops)
        }
    }

    impl NodeSpace for Graph {
        fn bound(&self, node: usize) -> f64 {
            self.h[node]
        }

        fn dist(&self, node: usize) -> f64 {
            self.dist[node]
        }

        fn is_target(&self, node: usize) -> bool {
            self.targets.contains(&node)
        }

        fn expand(&mut self, node: usize, dist: f64, queue: &mut NodeQueue) {
            for &(a, b, w) in &self.edges {
                if a == node && dist + w < self.dist[b] {
                    self.dist[b] = dist + w;
                    queue.push(dist + w + self.h[b], b);
                }
            }
        }

        fn predecessors(&self, node: usize, mut visit: impl FnMut(usize, f64)) {
            for &(a, b, w) in &self.edges {
                if b == node {
                    visit(a, w);
                }
            }
        }
    }

    /// Two optimal paths 0 → {1, 2} → 3: the canonical backtrace takes the
    /// lower-id middle node whatever order the edges relax in.
    #[test]
    fn backtrace_takes_the_least_optimal_predecessor() {
        for edges in [
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            [(0, 2, 1.0), (0, 1, 1.0), (2, 3, 1.0), (1, 3, 1.0)],
        ] {
            let mut g = Graph::new(4, &edges, &[3]);
            assert_eq!(g.search(&[0]).0, Some(vec![0, 1, 3]));
        }
    }

    /// Targets 4 and 5 at equal distance 2, reached through 6 and 1: the
    /// bound pops 5 first, and the drain still returns 4, the target
    /// Dijkstra pops first.
    #[test]
    fn the_drain_returns_the_least_equal_distance_target() {
        let edges = [(0, 6, 1.0), (0, 1, 1.0), (6, 4, 1.0), (1, 5, 1.0)];
        let mut g = Graph::new(7, &edges, &[4, 5]);
        g.h = vec![1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0];
        let mut search = ExactSearch::new();
        g.dist[0] = 0.0;
        search.begin().push(g.h[0], 0);
        let got = search.run(&mut g, &mut SearchPops::default(), &RouteBudget::default());
        assert_eq!(search.popped_targets(), &[5, 4]);
        assert_eq!(got, Ok(Some(4)));
        assert_eq!(ExactSearch::backtrace(&g, 4), vec![0, 6, 4]);
    }

    /// An improvement queues a second entry; the first one pops stale.
    #[test]
    fn superseded_entries_count_as_stale() {
        let edges = [(0, 1, 3.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 2.0)];
        let mut g = Graph::new(4, &edges, &[3]);
        let (path, pops) = g.search(&[0]);
        assert_eq!(path, Some(vec![0, 2, 1, 3]));
        assert_eq!((pops.settled, pops.stale), (4, 1));
    }

    #[test]
    fn a_node_budget_stops_at_its_cap() {
        let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)];
        let mut g = Graph::new(4, &edges, &[3]);
        let mut search = ExactSearch::new();
        g.dist[0] = 0.0;
        search.begin().push(0.0, 0);
        let mut pops = SearchPops::default();
        let budget = RouteBudget::with_max_search_nodes(2);
        assert_eq!(
            search.run(&mut g, &mut pops, &budget),
            Err(StopReason::SearchNodes)
        );
        assert_eq!(pops.settled, 2);
    }

    #[test]
    fn unreachable_targets_give_none() {
        let mut g = Graph::new(3, &[(0, 1, 1.0)], &[2]);
        assert_eq!(g.search(&[0]).0, None);
    }
}
