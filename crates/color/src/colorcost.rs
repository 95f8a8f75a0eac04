//! Cached colour-conflict pressure per grid vertex.

use crate::ColorMap;
use tpl_design::NetId;
use tpl_geom::Rect;
use tpl_grid::{EpochStamps, GridGraph, VertexId};

/// Marks a slot whose value may not be reused by another net.
const NOT_SHARED: u32 = 0;

/// A cache of per-vertex, per-mask colour pressure for the grid searches.
///
/// The pressure of a vertex is the number of already-coloured features of
/// *other* nets within `Dcolor` of the wire footprint a route through that
/// vertex would create, split by mask.  This is the quantity the paper
/// pre-computes "by GR guide" before routing a net.
///
/// Two levels answer a lookup without asking the map:
///
/// * **Per net.** Within one [`begin_net`](Self::begin_net) epoch a vertex
///   is computed once; later lookups return the stored value.
/// * **Across nets.** A value stays exact while no bin of the
///   [`ColorMap`] that its query reads has changed since it was computed
///   ([`ColorMap::pressure_generation`]).  A net never has live features in
///   the map while it is searched — it is ripped up before rerouting and
///   commits its features afterwards — so "features of other nets" is then
///   simply "all features", whoever asks.  Values computed for, or looked up
///   by, a net that does have live features bypass this level.
///
/// A cache serves one grid and one [`ColorMap`] for its whole life.
#[derive(Clone, Debug)]
pub struct ColorCostCache {
    stamps: EpochStamps,
    pressure: Vec<[u16; 3]>,
    /// One more than the layer version of the map the value was computed
    /// at, or [`NOT_SHARED`] (also once versions outgrow `u32`).
    shared_until: Vec<u32>,
    half_width: i64,
}

impl ColorCostCache {
    /// Creates a cache for a grid.
    pub fn new(grid: &GridGraph) -> Self {
        Self {
            stamps: EpochStamps::new(grid.num_vertices()),
            pressure: vec![[0; 3]; grid.num_vertices()],
            shared_until: vec![NOT_SHARED; grid.num_vertices()],
            half_width: 4,
        }
    }

    /// Starts a new per-net epoch; call when starting a new net.
    pub fn begin_net(&mut self) {
        self.stamps.begin();
    }

    /// The wire footprint a route through vertex `v` would occupy.
    fn footprint(&self, grid: &GridGraph, v: VertexId) -> Rect {
        Rect::from_point(grid.point_of(v)).expanded(self.half_width)
    }

    /// The per-mask pressure of routing net `net` through vertex `v`.
    pub fn pressure(
        &mut self,
        grid: &GridGraph,
        map: &ColorMap,
        net: NetId,
        v: VertexId,
    ) -> [u16; 3] {
        let i = v.index();
        if self.stamps.is_fresh(i) {
            return self.pressure[i];
        }
        self.stamps.touch(i);
        let layer = grid.layer_of(v);
        let rect = self.footprint(grid, v);
        let shareable = !map.has_live_features(net);
        if shareable && map.pressure_generation(layer, &rect) < u64::from(self.shared_until[i]) {
            return self.pressure[i];
        }
        let raw = map.mask_pressure(net, layer, &rect);
        let clamped = [
            raw[0].min(u16::MAX as usize) as u16,
            raw[1].min(u16::MAX as usize) as u16,
            raw[2].min(u16::MAX as usize) as u16,
        ];
        self.pressure[i] = clamped;
        self.shared_until[i] = if shareable {
            u32::try_from(map.version(layer) + 1).unwrap_or(NOT_SHARED)
        } else {
            NOT_SHARED
        };
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Feature, Mask};
    use tpl_design::{DesignBuilder, LayerId, Technology};
    use tpl_geom::Rect as GRect;

    fn setup() -> (tpl_design::Design, GridGraph, ColorMap) {
        let mut b = DesignBuilder::new(
            "cc",
            Technology::ispd_like(3),
            GRect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, GRect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, GRect::from_coords(366, 366, 374, 374));
        b.add_net("n0", vec![p0, p1]);
        let d = b.build().unwrap();
        let g = GridGraph::build(&d);
        let map = ColorMap::new(d.die(), d.tech().num_layers(), d.tech().dcolor());
        (d, g, map)
    }

    #[test]
    fn pressure_reflects_nearby_colored_features() {
        let (_, grid, mut map) = setup();
        // A red wire of another net along y=110 on layer 0.
        map.insert(Feature::wire(
            NetId::new(5),
            LayerId::new(0),
            GRect::from_coords(0, 106, 400, 114),
            Some(Mask::Red),
        ));
        let mut cache = ColorCostCache::new(&grid);
        cache.begin_net();
        // Vertex on layer 0 at y=130 (one track away, within dcolor=45).
        let v_near = grid.vertex(0, 5, grid.iy_near(130));
        let p = cache.pressure(&grid, &map, NetId::new(0), v_near);
        assert_eq!(p, [1, 0, 0]);
        // Vertex three tracks away (70 dbu) sees nothing.
        let v_far = grid.vertex(0, 5, grid.iy_near(190));
        let p = cache.pressure(&grid, &map, NetId::new(0), v_far);
        assert_eq!(p, [0, 0, 0]);
        // The owning net itself feels no pressure from its own wire.
        let p = cache.pressure(
            &grid,
            &map,
            NetId::new(5),
            grid.vertex(0, 7, grid.iy_near(130)),
        );
        assert_eq!(p, [0, 0, 0]);
    }

    #[test]
    fn cache_is_invalidated_between_nets() {
        let (_, grid, mut map) = setup();
        let mut cache = ColorCostCache::new(&grid);
        cache.begin_net();
        let v = grid.vertex(0, 5, 5);
        assert_eq!(cache.pressure(&grid, &map, NetId::new(0), v), [0, 0, 0]);
        // A green wire appears right next to the vertex.
        let p = grid.point_of(v);
        map.insert(Feature::wire(
            NetId::new(9),
            LayerId::new(0),
            GRect::from_coords(p.x - 4, p.y + 16, p.x + 100, p.y + 24),
            Some(Mask::Green),
        ));
        // Same epoch: stale (still cached as zero).
        assert_eq!(cache.pressure(&grid, &map, NetId::new(0), v), [0, 0, 0]);
        // New net epoch: fresh value.
        cache.begin_net();
        assert_eq!(cache.pressure(&grid, &map, NetId::new(0), v), [0, 1, 0]);
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Random rip-up/commit sequences: every lookup of the cross-net cache
    /// equals a fresh `mask_pressure` call at that moment.
    #[test]
    fn cross_net_values_match_fresh_pressure_after_random_edits() {
        let mut b = DesignBuilder::new(
            "edits",
            Technology::ispd_like(3),
            GRect::from_coords(0, 0, 800, 800),
        );
        let p0 = b.add_pin_shape("a", 0, GRect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, GRect::from_coords(766, 766, 774, 774));
        b.add_net("n0", vec![p0, p1]);
        let d = b.build().unwrap();
        let grid = GridGraph::build(&d);
        let mut map = ColorMap::new(d.die(), d.tech().num_layers(), d.tech().dcolor());
        let mut cache = ColorCostCache::new(&grid);
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut reused = 0usize;
        for round in 0..40 {
            let net = NetId::new((xorshift(&mut s) % 6) as u32);
            // Rip up, search, commit — the order every router follows.
            map.remove_net(net);
            cache.begin_net();
            // Every fourth round asks for a net that still has features
            // (bypass), the rest for the ripped-up net.
            let asker = if round % 4 == 3 {
                NetId::new((net.index() as u32 + 1) % 6)
            } else {
                net
            };
            for v in grid.iter_vertices() {
                let rect = Rect::from_point(grid.point_of(v)).expanded(4);
                let fresh = map.mask_pressure(asker, grid.layer_of(v), &rect);
                let fresh = [fresh[0] as u16, fresh[1] as u16, fresh[2] as u16];
                let was_shared = !cache.stamps.is_fresh(v.index())
                    && cache.shared_until[v.index()] != NOT_SHARED;
                assert_eq!(
                    cache.pressure(&grid, &map, asker, v),
                    fresh,
                    "round {round} {v}"
                );
                reused += was_shared as usize;
            }
            for _ in 0..1 + xorshift(&mut s) % 4 {
                let layer = (xorshift(&mut s) % 3) as u32;
                let x = (xorshift(&mut s) % 780) as i64;
                let y = (xorshift(&mut s) % 780) as i64;
                let len = 20 + (xorshift(&mut s) % 200) as i64;
                let rect = if xorshift(&mut s).is_multiple_of(2) {
                    GRect::from_coords(x, y, x + len, y + 8)
                } else {
                    GRect::from_coords(x, y, x + 8, y + len)
                };
                let mask = Mask::from_index((xorshift(&mut s) % 3) as usize);
                map.insert(Feature::wire(net, LayerId::new(layer), rect, Some(mask)));
            }
        }
        assert!(reused > 0, "the cross-net level never answered");
    }
}
