//! The shared cost model: its parameters and the colour-free step price.

use crate::{DenseBitSet, GridGraph, GridState, PinCoverage, VertexId};
use tpl_design::{Design, LayerId, NetId};
use tpl_geom::{Axis, Dbu, Dir};

/// Parameters of the traditional (non-colour) part of the routing cost.
///
/// These correspond to `Cost_trad` in Eq. (1) of the paper and are shared by
/// the TPL-unaware baseline, the DAC'12 baseline and Mr.TPL so that runtime
/// and quality comparisons isolate the colour-handling strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Cost per database unit of preferred-direction wire.
    pub unit_wire: f64,
    /// Multiplier applied to wrong-way (non-preferred axis) wire.
    pub wrong_way_mult: f64,
    /// Cost of one via.
    pub via: f64,
    /// Additional cost per database unit of wire outside the route guide.
    pub out_of_guide: f64,
    /// Cost of stepping onto a vertex already occupied by another net.
    /// Kept finite so negotiation-based rip-up and reroute can resolve it.
    pub occupied: f64,
    /// Cost of stepping onto a blocked (obstacle) vertex.  Effectively
    /// infinite.
    pub blocked: f64,
    /// Multiplier for accumulated history cost during negotiation.
    pub history_weight: f64,
    /// Extra multiplier applied to planar wire on the lowest layer (M1).
    /// Real detailed routers keep M1 for pin access; through-routing on M1
    /// runs straight past foreign pins and is the main source of
    /// wire-to-pin colour conflicts, so it is discouraged.
    pub base_layer_mult: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            unit_wire: 1.0,
            wrong_way_mult: 2.0,
            via: 40.0,
            out_of_guide: 1.0,
            occupied: 5_000.0,
            blocked: 1.0e12,
            history_weight: 1.0,
            base_layer_mult: 4.0,
        }
    }
}

impl CostParams {
    /// The cost of `len` database units of wire, preferred direction.
    #[inline]
    pub fn wire_cost(&self, len: Dbu) -> f64 {
        self.unit_wire * len as f64
    }

    /// The cost of `len` database units of wrong-way wire.
    #[inline]
    pub fn wrong_way_cost(&self, len: Dbu) -> f64 {
        self.unit_wire * self.wrong_way_mult * len as f64
    }

    /// The base cost of one grid move in direction `dir` out of a vertex on
    /// `layer`, whose preferred axis is `axis`: a via, or one `pitch` of
    /// preferred or wrong-way wire, which stays on `layer` and pays
    /// `base_layer_mult` there when `layer` is the lowest.
    #[inline]
    pub fn move_cost(&self, dir: Dir, layer: LayerId, axis: Axis, pitch: Dbu) -> f64 {
        let mut c = match dir.axis() {
            None => self.via,
            Some(a) if a != axis => self.wrong_way_cost(pitch),
            Some(_) => self.wire_cost(pitch),
        };
        if dir.is_planar() && layer.index() == 0 {
            c *= self.base_layer_mult;
        }
        c
    }
}

/// Everything that prices one net's colour-free grid moves: `Cost_trad` of
/// Eq. (1), the one step price of every detailed router.
#[derive(Clone, Copy)]
pub struct StepPrice<'a> {
    /// The routing grid.
    pub grid: &'a GridGraph,
    /// Blockage / occupancy / history state.
    pub state: &'a GridState,
    /// Pin-to-vertex coverage.
    pub coverage: &'a PinCoverage,
    /// The design being routed.
    pub design: &'a Design,
    /// Cost parameters.
    pub cost: &'a CostParams,
    /// The net being routed.
    pub net: NetId,
    /// Whether each vertex lies inside the net's route guide.
    pub in_guide: &'a DenseBitSet,
}

impl StepPrice<'_> {
    /// The colour-free price of a move in `dir` from a vertex on
    /// `from_layer` onto `to`, or `None` when `to` is blocked: the move cost,
    /// then out-of-guide wire, occupancy by another net, another net's pin
    /// and history, added in that order.  The caller decodes the layer of
    /// the vertex it expands once for all of its neighbours.
    #[inline]
    pub fn trad(&self, from_layer: LayerId, dir: Dir, to: VertexId) -> Option<f64> {
        if self.state.is_blocked(to) {
            return None;
        }
        let cost = self.cost;
        let pitch = self.grid.pitch();
        let mut c = cost.move_cost(dir, from_layer, self.grid.layer_axis(from_layer), pitch);
        if !self.in_guide.get(to.index()) {
            c += cost.out_of_guide * pitch as f64;
        }
        if self.state.is_occupied_by_other(to, self.net) {
            c += cost.occupied;
        }
        if let Some(pin) = self.coverage.pin_at(to) {
            if self.design.pin(pin).net() != self.net {
                c += cost.occupied;
            }
        }
        c += cost.history_weight * self.state.history(to);
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_way_is_more_expensive() {
        let p = CostParams::default();
        assert!(p.wrong_way_cost(20) > p.wire_cost(20));
        assert_eq!(p.wire_cost(20), 20.0);
    }

    #[test]
    fn move_cost_prices_vias_wrong_way_and_the_base_layer() {
        let p = CostParams::default();
        let (m1, m2) = (LayerId::new(0), LayerId::new(1));
        assert_eq!(p.move_cost(Dir::Up, m1, Axis::Horizontal, 20), p.via);
        assert_eq!(p.move_cost(Dir::East, m2, Axis::Horizontal, 20), 20.0);
        assert_eq!(p.move_cost(Dir::North, m2, Axis::Horizontal, 20), 40.0);
        assert_eq!(p.move_cost(Dir::East, m1, Axis::Horizontal, 20), 80.0);
    }

    #[test]
    fn blocked_dwarfs_everything_else() {
        let p = CostParams::default();
        assert!(p.blocked > p.occupied * 1000.0);
    }
}
