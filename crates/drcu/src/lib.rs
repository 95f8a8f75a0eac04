//! TPL-unaware, Dr.CU-like negotiation-based detailed router.
//!
//! This crate reproduces the part of Dr.CU 2.0 that the paper builds on: a
//! guide-driven, track-based multi-pin maze router with PathFinder-style
//! negotiation (rip-up and reroute with history cost).  It is deliberately
//! colour-blind: it is the router whose output the OpenMPL-like layout
//! decomposition baseline (`tpl-decompose`) colours after the fact, giving
//! the Table III comparison.  Its maze is a node space of the shared exact
//! search kernel in `tpl-grid`.
//!
//! # Examples
//!
//! ```
//! use tpl_drcu::{DrCuConfig, DrCuRouter};
//! use tpl_global::{GlobalConfig, GlobalRouter};
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd18_like(1).scaled(0.25).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! let result = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
//! assert_eq!(result.solution.routed_count(), design.nets().len());
//! ```

#![warn(missing_docs)]

mod maze;
mod router;

pub use maze::SearchBuffers;
pub use router::{DrCuConfig, DrCuResult, DrCuRouter, DrCuStats};
