//! Colour state, mask model, conflict and stitch machinery for triple
//! patterning lithography.
//!
//! The crate provides the building blocks Mr.TPL and the baselines share:
//!
//! * [`Mask`] — the three TPL masks (red, green, blue).
//! * [`ColorState`] — the paper's 3-bit candidate set (Table I): during path
//!   search a wire segment may still be printable on several masks at once.
//! * [`ColorSetArena`], [`VerSetId`], [`SegSetId`] — the vertice colour-set /
//!   segment colour-set structures of Algorithm 3 (backtrace); a `segSet`
//!   is a stitch-free region whose colour state is the intersection of its
//!   members, and a stitch is exactly a boundary between two `segSet`s.
//! * [`ColorMap`] — an incremental spatial map of already-coloured features,
//!   answering "how many features of another net with mask *m* lie within
//!   `Dcolor` of this rectangle?", the quantity behind `Cost_color` in
//!   Eq. (1).  It keeps that quantity for every grid vertex up to date as
//!   features are inserted and ripped up, so the grid searches read it in
//!   O(1) ([`ColorMap::vertex_pressure`]).
//! * [`ColoredLayout`] — a finished, fully coloured layout on which colour
//!   conflicts and stitches are counted for the evaluation tables.
//! * [`rip_up_conflicts`] — the one colour rip-up policy of the TPL-aware
//!   routers: one victim net per conflict and history cost under it.
//!
//! # Examples
//!
//! ```
//! use tpl_color::{ColorState, Mask};
//!
//! let s = ColorState::all();
//! let t = s.without(Mask::Green);
//! assert_eq!(t.to_string(), "101");
//! assert_eq!(t.candidates().count(), 2);
//! assert_eq!(t.intersect(ColorState::from_mask(Mask::Red)).single(), Some(Mask::Red));
//! ```

#![warn(missing_docs)]

mod colormap;
mod layout;
mod mask;
mod ripup;
mod sets;
mod state;

pub use colormap::{ColorMap, Feature, FeatureKind};
pub use layout::{ColoredLayout, ConflictPair, LayoutStats, StitchSite};
pub use mask::Mask;
pub use ripup::rip_up_conflicts;
pub use sets::{ColorSetArena, SegSetId, VerSetId};
pub use state::ColorState;
