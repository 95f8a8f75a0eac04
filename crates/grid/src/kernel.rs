//! The shared frontier of the shortest-path search kernels.
//!
//! Both routers on this kernel — the colour-state search in `mrtpl-core` and
//! the maze fallback in `tpl-global` — quantise costs to integer keys with
//! their own fixed resolution and expand a best-first [`BucketQueue`] built
//! by [`frontier`].  The queue pops in exactly ascending `(key, id)` order
//! (see [`crate::bucket`]), so expansion order is that of a binary heap over
//! the same keys.
//!
//! # Determinism contract
//!
//! * The Mr.TPL colour search orders its frontier by `key(d + h)` with an
//!   admissible, consistent goal bound `h` on negotiation reroutes only;
//!   the bound preserves path cost but may pick a different equal-cost path
//!   than plain Dijkstra order where tie-breaking depends on expansion order.
//! * The global maze always searches goal-directed, drains the frontier
//!   through the goal key and rebuilds the path with a canonical backtrace,
//!   so its paths are a pure function of the edge costs.
//! * The Dr.CU-like maze in `tpl-drcu` and the DAC'12 baseline's 2-pin
//!   search in `tpl-dac12` apply the same two rules, with a `(key, id)`
//!   tie-break, to return exactly Dijkstra's target and path from a
//!   goal-directed search.  Both order a binary heap by the
//!   [`GoalBound`](crate::GoalBound) at `alpha = 1`.

use crate::bucket::BucketQueue;

/// Buckets a search frontier keeps addressable before entries spill to the
/// overflow heap.
const BUCKET_SPAN: usize = 1024;

/// Builds the frontier of one search: `1 << bucket_shift` key units per
/// bucket and `BUCKET_SPAN` buckets.  Every search frontier is built here,
/// which makes this the `grid.frontier` fault-injection site.
pub fn frontier(bucket_shift: u32) -> BucketQueue {
    tpl_fault::point!("grid.frontier");
    BucketQueue::new(bucket_shift, BUCKET_SPAN)
}
