//! The colour rip-up policy the TPL-aware routers share.
//!
//! Mr.TPL and the DAC'12 baseline run the same negotiation step after each
//! routing pass: build the evaluation layout from the live colour map
//! ([`ColoredLayout::from_map`]), pick one victim net per colour conflict
//! and raise the history cost under the conflict, so the Table II
//! comparison differs in routing strategy only.

use crate::{ColoredLayout, ConflictPair, Feature, FeatureKind};
use tpl_design::NetId;
use tpl_grid::{GridGraph, GridState};

/// The net a conflict between features `a` and `b` rips up, or `None` when
/// either belongs to no net.  Pins cannot move, so a wire loses to a pin.
/// Otherwise the larger net id loses, which is deterministic.  For two pins
/// that still helps: rerouting either net re-colours its pin with full
/// knowledge of the other, which resolves the conflict unless three
/// differently coloured neighbours surround the pin.
fn conflict_victim(a: &Feature, b: &Feature) -> Option<NetId> {
    let (na, nb) = (a.net?, b.net?);
    Some(
        match (a.kind == FeatureKind::Wire, b.kind == FeatureKind::Wire) {
            (true, false) => na,
            (false, true) => nb,
            _ => na.max(nb),
        },
    )
}

/// Picks the victim net of every conflict of `layout` (a wire loses to a
/// pin, otherwise the larger net id loses) and adds
/// `history_increment` to every grid vertex under both features of each
/// conflict that has one, so the reroute avoids the region.  Returns the
/// victims sorted by id, without duplicates.
pub fn rip_up_conflicts(
    layout: &ColoredLayout,
    conflicts: &[ConflictPair],
    grid: &GridGraph,
    state: &mut GridState,
    history_increment: f64,
) -> Vec<NetId> {
    let features = layout.features();
    let mut victims = Vec::new();
    for c in conflicts {
        let (fa, fb) = (&features[c.a], &features[c.b]);
        let Some(victim) = conflict_victim(fa, fb) else {
            continue;
        };
        victims.push(victim);
        for rect in [fa.rect, fb.rect] {
            for v in grid.vertices_in_rect(c.layer, &rect) {
                state.add_history(v, history_increment);
            }
        }
    }
    victims.sort_unstable_by_key(|id| id.index());
    victims.dedup();
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::LayerId;
    use tpl_geom::Rect;

    #[test]
    fn wires_lose_to_pins_and_larger_ids_lose_otherwise() {
        let (lo, hi) = (NetId::new(1), NetId::new(2));
        let (layer, rect) = (LayerId::new(0), Rect::from_coords(0, 0, 8, 8));
        let wire = |n| Feature::wire(n, layer, rect, None);
        let pin = |n| Feature::pin(n, layer, rect, None);
        assert_eq!(conflict_victim(&wire(lo), &pin(hi)), Some(lo));
        assert_eq!(conflict_victim(&pin(hi), &wire(lo)), Some(lo));
        assert_eq!(conflict_victim(&wire(lo), &wire(hi)), Some(hi));
        assert_eq!(conflict_victim(&pin(hi), &pin(lo)), Some(hi));
        let obstacle = Feature::obstacle(layer, rect, None);
        assert_eq!(conflict_victim(&wire(lo), &obstacle), None);
    }
}
