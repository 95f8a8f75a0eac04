//! Incremental spatial map of coloured features and the per-vertex colour
//! pressure field the grid searches read.

use crate::Mask;
use tpl_design::{LayerId, NetId};
use tpl_geom::{BinIndex, Dbu, Point, Rect};
use tpl_grid::{GridGraph, VertexId};

/// What kind of layout object a feature represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureKind {
    /// A routed wire segment.
    Wire,
    /// A pin shape.
    Pin,
    /// A pre-placed obstacle.
    Obstacle,
}

/// A coloured (or not-yet-coloured) rectangle on one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Feature {
    /// The owning net; `None` for obstacles.
    pub net: Option<NetId>,
    /// The layer the feature sits on.
    pub layer: LayerId,
    /// The feature geometry.
    pub rect: Rect,
    /// The mask the feature is printed on, if decided.
    pub mask: Option<Mask>,
    /// The feature kind.
    pub kind: FeatureKind,
}

impl Feature {
    /// A wire feature.
    pub fn wire(net: NetId, layer: LayerId, rect: Rect, mask: Option<Mask>) -> Self {
        Feature {
            net: Some(net),
            layer,
            rect,
            mask,
            kind: FeatureKind::Wire,
        }
    }

    /// A pin feature.
    pub fn pin(net: NetId, layer: LayerId, rect: Rect, mask: Option<Mask>) -> Self {
        Feature {
            net: Some(net),
            layer,
            rect,
            mask,
            kind: FeatureKind::Pin,
        }
    }

    /// An obstacle feature.
    pub fn obstacle(layer: LayerId, rect: Rect, mask: Option<Mask>) -> Self {
        Feature {
            net: None,
            layer,
            rect,
            mask,
            kind: FeatureKind::Obstacle,
        }
    }
}

/// Half the side of the square footprint a route through a grid vertex
/// occupies: the vertex point expanded by this on every side.
const FOOTPRINT_HALF_WIDTH: Dbu = 4;

/// An incremental spatial index of coloured features.
///
/// Routers insert each net's coloured wires as they commit them and query the
/// map while routing later nets: [`ColorMap::mask_pressure`] answers "how
/// many features of *other* nets printed on mask *m* lie within `Dcolor` of
/// this rectangle?" — the per-mask colour cost of Eq. (1).  Rip-up removes a
/// net's features again.
///
/// The map also keeps that answer for every grid vertex up to date: the
/// *pressure field* counts, per vertex and mask, the live masked features
/// within `Dcolor` of the vertex [`footprint`](Self::footprint).  Every
/// [`insert`](Self::insert) and [`remove_net`](Self::remove_net) adjusts
/// exactly the vertices whose count it changes, so the grid searches read
/// [`vertex_pressure`](Self::vertex_pressure) in O(1).  The field counts
/// the features of *every* net; it equals the search's "other nets"
/// pressure because a net never has live features while it is searched —
/// both routers rip a net up before rerouting it and commit its features
/// only after search and mask assignment.
#[derive(Clone, Debug)]
pub struct ColorMap {
    dcolor: Dbu,
    grid: GridGraph,
    per_layer: Vec<BinIndex>,
    features: Vec<Feature>,
    alive: Vec<bool>,
    /// Ids of each net's live features, by net index (grown on demand).
    net_features: Vec<Vec<u32>>,
    /// Number of live features.
    live: usize,
    /// Per grid vertex and mask: live masked features within `dcolor` of
    /// the vertex footprint.
    pressure: Vec<[u32; 3]>,
}

impl ColorMap {
    /// Creates an empty map over `grid` (its die and layers) with the given
    /// colour-spacing distance.
    ///
    /// # Panics
    ///
    /// Panics if `dcolor` is not positive.
    pub fn new(grid: &GridGraph, dcolor: Dbu) -> Self {
        assert!(dcolor > 0, "dcolor must be positive");
        let bin = (4 * dcolor).max(64);
        Self {
            dcolor,
            grid: grid.clone(),
            per_layer: (0..grid.num_layers())
                .map(|_| BinIndex::new(grid.die(), bin))
                .collect(),
            features: Vec::new(),
            alive: Vec::new(),
            net_features: Vec::new(),
            live: 0,
            pressure: vec![[0; 3]; grid.num_vertices()],
        }
    }

    /// The colour-spacing distance the map was built with.
    #[inline]
    pub fn dcolor(&self) -> Dbu {
        self.dcolor
    }

    /// Number of live features.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the map holds no live features.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a feature and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the feature's layer is out of range.
    pub fn insert(&mut self, feature: Feature) -> usize {
        assert!(
            feature.layer.index() < self.per_layer.len(),
            "feature layer {} out of range",
            feature.layer
        );
        let id = self.features.len();
        self.per_layer[feature.layer.index()].insert(id as u64, feature.rect);
        if let Some(net) = feature.net {
            if self.net_features.len() <= net.index() {
                self.net_features.resize_with(net.index() + 1, Vec::new);
            }
            self.net_features[net.index()].push(id as u32);
        }
        self.features.push(feature);
        self.alive.push(true);
        self.live += 1;
        self.update_field(&feature, true);
        id
    }

    /// Removes every live feature of the given net (rip-up).  Returns how
    /// many features were removed.
    pub fn remove_net(&mut self, net: NetId) -> usize {
        let Some(ids) = self.net_features.get_mut(net.index()) else {
            return 0;
        };
        let mut ids = std::mem::take(ids);
        let removed = ids.len();
        for &id in &ids {
            let feature = self.features[id as usize];
            self.alive[id as usize] = false;
            self.per_layer[feature.layer.index()].remove(u64::from(id), feature.rect);
            self.update_field(&feature, false);
        }
        self.live -= removed;
        // Keep the allocation for the net's next commit.
        ids.clear();
        self.net_features[net.index()] = ids;
        removed
    }

    /// Adds (`add`) or subtracts one for `feature`'s mask at every vertex of
    /// its layer whose footprint lies within `dcolor` of it.
    fn update_field(&mut self, feature: &Feature, add: bool) {
        let Some(mask) = feature.mask else {
            return;
        };
        let grid = &self.grid;
        // Rounding to the nearest track over-covers the exact track box of
        // the reach; the spacing test below makes the count exact.
        let reach = feature
            .rect
            .expanded(self.dcolor - 1 + FOOTPRINT_HALF_WIDTH);
        let layer = feature.layer.index();
        for iy in grid.iy_near(reach.lo.y)..=grid.iy_near(reach.hi.y) {
            for ix in grid.ix_near(reach.lo.x)..=grid.ix_near(reach.hi.x) {
                let at = Point::new(grid.x_of(ix), grid.y_of(iy));
                if feature.rect.spacing_to(&footprint_at(at)) < self.dcolor {
                    let count =
                        &mut self.pressure[grid.vertex(layer, ix, iy).index()][mask.index()];
                    if add {
                        *count += 1;
                    } else {
                        *count -= 1;
                    }
                }
            }
        }
    }

    /// `true` when `net` has at least one live feature in the map.
    #[inline]
    pub fn has_live_features(&self, net: NetId) -> bool {
        self.net_features
            .get(net.index())
            .is_some_and(|ids| !ids.is_empty())
    }

    /// The wire footprint a route through vertex `v` would occupy.
    #[inline]
    pub fn footprint(&self, v: VertexId) -> Rect {
        footprint_at(self.grid.point_of(v))
    }

    /// Per-mask pressure at vertex `v`: `result[m]` is the number of live
    /// features printed on mask `m` within `dcolor` of
    /// [`footprint(v)`](Self::footprint), clamped to `u16::MAX`.  For a net
    /// without live features this is exactly
    /// [`mask_pressure`](Self::mask_pressure)`(net, layer_of(v), &footprint(v))`.
    #[inline]
    pub fn vertex_pressure(&self, v: VertexId) -> [u16; 3] {
        self.pressure[v.index()].map(|n| n.min(u32::from(u16::MAX)) as u16)
    }

    /// Per-mask pressure around a rectangle: `result[m]` is the number of
    /// live features of *other* nets printed on mask `m` within `dcolor`.
    /// Features belonging to `net` itself are excluded (a net never conflicts
    /// with itself), as are features without an assigned mask.  Visits each
    /// stored rectangle near `rect` once, without allocating.
    pub fn mask_pressure(&self, net: NetId, layer: LayerId, rect: &Rect) -> [usize; 3] {
        let mut pressure = [0usize; 3];
        let window = rect.expanded(self.dcolor - 1);
        self.per_layer[layer.index()].for_each_intersecting(&window, |id, r| {
            let f = &self.features[id as usize];
            if let Some(mask) = f.mask {
                if f.net != Some(net) && r.spacing_to(rect) < self.dcolor {
                    pressure[mask.index()] += 1;
                }
            }
        });
        pressure
    }

    /// All live features in insertion order (mostly for building the final
    /// [`crate::ColoredLayout`]).
    pub fn live_features(&self) -> impl Iterator<Item = &Feature> {
        self.features
            .iter()
            .zip(&self.alive)
            .filter(|(_, alive)| **alive)
            .map(|(f, _)| f)
    }
}

/// The footprint of a route through the grid vertex at `at`.
#[inline]
fn footprint_at(at: Point) -> Rect {
    Rect::from_point(at).expanded(FOOTPRINT_HALF_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};

    fn grid() -> GridGraph {
        let design = DesignBuilder::new(
            "map",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        )
        .build()
        .unwrap();
        GridGraph::build(&design)
    }

    fn map() -> ColorMap {
        ColorMap::new(&grid(), 45)
    }

    #[test]
    fn insert_and_query_pressure() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(1),
            Rect::from_coords(100, 100, 200, 108),
            Some(Mask::Red),
        ));
        m.insert(Feature::wire(
            NetId::new(1),
            LayerId::new(1),
            Rect::from_coords(100, 120, 200, 128),
            Some(Mask::Green),
        ));
        // Query as net 2 near the two wires.
        let p = m.mask_pressure(
            NetId::new(2),
            LayerId::new(1),
            &Rect::from_coords(100, 140, 200, 148),
        );
        // The green wire is 12 dbu away (< 45); the red one is 32 away (< 45).
        assert_eq!(p, [1, 1, 0]);
        // Far away there is no pressure.
        let p = m.mask_pressure(
            NetId::new(2),
            LayerId::new(1),
            &Rect::from_coords(600, 600, 700, 608),
        );
        assert_eq!(p, [0, 0, 0]);
        // On a different layer there is no pressure either.
        let p = m.mask_pressure(
            NetId::new(2),
            LayerId::new(2),
            &Rect::from_coords(100, 140, 200, 148),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn own_net_features_are_ignored() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 8),
            Some(Mask::Blue),
        ));
        let p = m.mask_pressure(
            NetId::new(0),
            LayerId::new(0),
            &Rect::from_coords(0, 20, 100, 28),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn uncolored_features_exert_no_pressure() {
        let mut m = map();
        m.insert(Feature::pin(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 10, 10),
            None,
        ));
        let p = m.mask_pressure(
            NetId::new(1),
            LayerId::new(0),
            &Rect::from_coords(0, 20, 10, 30),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn remove_net_erases_its_features() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(3),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 8),
            Some(Mask::Red),
        ));
        m.insert(Feature::wire(
            NetId::new(4),
            LayerId::new(0),
            Rect::from_coords(0, 30, 100, 38),
            Some(Mask::Green),
        ));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove_net(NetId::new(3)), 1);
        assert_eq!(m.len(), 1);
        let p = m.mask_pressure(
            NetId::new(9),
            LayerId::new(0),
            &Rect::from_coords(0, 10, 100, 18),
        );
        assert_eq!(p, [0, 1, 0]);
    }

    #[test]
    fn exactly_dcolor_away_is_not_a_neighbor() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(0),
            Rect::from_coords(0, 0, 100, 10),
            Some(Mask::Red),
        ));
        // Spacing exactly dcolor (45) is legal: rule is `< dcolor`.
        let p = m.mask_pressure(
            NetId::new(1),
            LayerId::new(0),
            &Rect::from_coords(0, 55, 100, 65),
        );
        assert_eq!(p, [0, 0, 0]);
        // One dbu closer violates.
        let p = m.mask_pressure(
            NetId::new(1),
            LayerId::new(0),
            &Rect::from_coords(0, 54, 100, 64),
        );
        assert_eq!(p, [1, 0, 0]);
    }

    #[test]
    fn vertex_pressure_reflects_nearby_colored_features() {
        let grid = grid();
        let mut m = ColorMap::new(&grid, 45);
        // A red wire of net 5 along y=110 on layer 0.
        m.insert(Feature::wire(
            NetId::new(5),
            LayerId::new(0),
            Rect::from_coords(0, 106, 1000, 114),
            Some(Mask::Red),
        ));
        // One track away (within dcolor) there is pressure; three tracks
        // away (70 dbu) and on another layer there is none.
        let near = grid.vertex(0, 5, grid.iy_near(130));
        assert_eq!(m.vertex_pressure(near), [1, 0, 0]);
        assert_eq!(
            m.vertex_pressure(grid.vertex(0, 5, grid.iy_near(190))),
            [0, 0, 0]
        );
        assert_eq!(
            m.vertex_pressure(grid.vertex(1, 5, grid.iy_near(130))),
            [0, 0, 0]
        );
        assert_eq!(m.remove_net(NetId::new(5)), 1);
        assert_eq!(m.vertex_pressure(near), [0, 0, 0]);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inserting_on_a_missing_layer_panics() {
        let mut m = map();
        m.insert(Feature::wire(
            NetId::new(0),
            LayerId::new(9),
            Rect::from_coords(0, 0, 10, 10),
            Some(Mask::Red),
        ));
    }
}
