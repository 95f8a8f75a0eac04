//! DAC'12-style TPL-aware routing baseline (Ma, Zhang and Wong, DAC 2012).
//!
//! This is the state-of-the-art baseline the paper compares against in
//! Table II.  The method differs from Mr.TPL in two essential ways:
//!
//! 1. **Vertex splitting instead of colour states.**  The routing graph is
//!    expanded so that every grid vertex becomes `3 masks × 4 incoming
//!    directions = 12` search nodes; a path through the expanded graph
//!    simultaneously chooses the geometry *and* a single concrete mask per
//!    vertex.  The expansion makes every search proportionally more
//!    expensive, which is where the paper's runtime gap comes from.
//! 2. **2-pin decomposition.**  Multi-pin nets are broken into 2-pin
//!    connections along a minimum spanning tree and each connection is routed
//!    (and coloured) independently.  Because an already-coloured connection
//!    can never change its mask, junctions between connections frequently
//!    force stitches — exactly the behaviour of Fig. 1(c) in the paper.
//!
//! The cost model (the shared `tpl_grid::StepPrice`, colour-conflict
//! pressure, stitch cost) and the rip-up policy
//! (`tpl_color::rip_up_conflicts`) are shared with Mr.TPL so the comparison
//! isolates the colour-handling strategy.  The search is the Dr.CU-like
//! maze's: the shared exact A\* loop `tpl_grid::ExactSearch`, over this
//! crate's expanded node space, which returns exactly the path a plain
//! Dijkstra would, and it honours a `tpl_grid::RouteBudget`
//! ([`Dac12Router::route_with_budget`]).
//!
//! # Examples
//!
//! ```
//! use tpl_dac12::{Dac12Config, Dac12Router};
//! use tpl_global::{GlobalConfig, GlobalRouter};
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.25).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! let result = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
//! assert_eq!(result.solution.routed_count(), design.nets().len());
//! ```

#![warn(missing_docs)]

mod expanded;
mod router;

pub use expanded::ExpandedGraph;
pub use router::{Dac12Config, Dac12Result, Dac12Router, Dac12Stats};
