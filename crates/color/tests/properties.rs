//! Property-based tests for the colour substrate.

use proptest::prelude::*;
use tpl_color::{ColorMap, ColorState, ColoredLayout, Feature, Mask};
use tpl_design::{DesignBuilder, LayerId, NetId, Technology};
use tpl_geom::Rect;
use tpl_grid::GridGraph;

/// The grid of an empty design on `die` with `layers` canonical layers
/// (pitch 20, first track at offset 10).
fn grid(die: Rect, layers: usize) -> GridGraph {
    let design = DesignBuilder::new("grid", Technology::ispd_like(layers), die)
        .build()
        .expect("an empty design is valid");
    GridGraph::build(&design)
}

fn arb_state() -> impl Strategy<Value = ColorState> {
    (0u8..8).prop_map(ColorState::from_bits)
}

fn arb_mask() -> impl Strategy<Value = Mask> {
    (0usize..3).prop_map(Mask::from_index)
}

proptest! {
    #[test]
    fn intersection_is_subset_of_both(a in arb_state(), b in arb_state()) {
        let i = a.intersect(b);
        for m in i.candidates() {
            prop_assert!(a.contains(m));
            prop_assert!(b.contains(m));
        }
        prop_assert!(i.len() <= a.len().min(b.len()));
    }

    #[test]
    fn union_contains_both(a in arb_state(), b in arb_state()) {
        let u = a.union(b);
        for m in a.candidates().chain(b.candidates()) {
            prop_assert!(u.contains(m));
        }
        prop_assert_eq!(a.shares_color(b), !a.intersect(b).is_empty());
    }

    #[test]
    fn with_and_without_are_inverse(a in arb_state(), m in arb_mask()) {
        prop_assert!(a.with(m).contains(m));
        prop_assert!(!a.without(m).contains(m));
        prop_assert_eq!(a.with(m).without(m), a.without(m));
    }

    #[test]
    fn single_agrees_with_len(a in arb_state()) {
        match a.single() {
            Some(m) => {
                prop_assert_eq!(a.len(), 1);
                prop_assert!(a.contains(m));
            }
            None => prop_assert!(a.len() != 1),
        }
    }

    #[test]
    fn display_roundtrips_through_bits(a in arb_state()) {
        let text = a.to_string();
        let bits = u8::from_str_radix(&text, 2).unwrap();
        prop_assert_eq!(ColorState::from_bits(bits), a);
    }

    /// Random wire soup: the number of conflicts counted by ColoredLayout
    /// equals a brute-force O(n^2) recount, and colouring every wire with a
    /// distinct-mask greedy scheme never *increases* conflicts relative to
    /// all-same-mask colouring.
    #[test]
    fn conflict_count_matches_bruteforce(
        wires in prop::collection::vec(
            (0u32..6, 0i64..30, 0i64..30, 1i64..10, any::<bool>(), 0usize..3),
            1..25
        )
    ) {
        let die = Rect::from_coords(0, 0, 2000, 2000);
        let dcolor = 45;
        let mut layout = ColoredLayout::new(die, 2, dcolor);
        let mut features = Vec::new();
        for (net, gx, gy, len, horizontal, mask) in wires {
            let x = gx * 20;
            let y = gy * 20;
            let rect = if horizontal {
                Rect::from_coords(x, y, x + len * 20, y + 8)
            } else {
                Rect::from_coords(x, y, x + 8, y + len * 20)
            };
            let f = Feature::wire(NetId::new(net), LayerId::new(0), rect, Some(Mask::from_index(mask)));
            features.push(f);
            layout.add(f);
        }
        // Brute force recount.
        let mut expected = 0;
        for i in 0..features.len() {
            for j in (i + 1)..features.len() {
                let (a, b) = (&features[i], &features[j]);
                if a.net != b.net
                    && a.mask == b.mask
                    && a.rect.spacing_to(&b.rect) < dcolor
                {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(layout.count_conflicts(), expected);
    }

    /// The ColorMap's mask pressure around a rectangle equals a brute-force
    /// recount over the inserted features.
    #[test]
    fn mask_pressure_matches_bruteforce(
        wires in prop::collection::vec(
            (0u32..5, 0i64..40, 0i64..40, 1i64..8, 0usize..3),
            1..20
        ),
        query in (0i64..40, 0i64..40, 1i64..8),
    ) {
        let die = Rect::from_coords(0, 0, 2000, 2000);
        let dcolor = 45;
        let mut map = ColorMap::new(&grid(die, 2), dcolor);
        let mut features = Vec::new();
        for (net, gx, gy, len, mask) in wires {
            let rect = Rect::from_coords(gx * 20, gy * 20, gx * 20 + len * 20, gy * 20 + 8);
            let f = Feature::wire(NetId::new(net), LayerId::new(0), rect, Some(Mask::from_index(mask)));
            features.push(f);
            map.insert(f);
        }
        let qrect = Rect::from_coords(query.0 * 20, query.1 * 20, query.0 * 20 + query.2 * 20, query.1 * 20 + 8);
        let qnet = NetId::new(99);
        let pressure = map.mask_pressure(qnet, LayerId::new(0), &qrect);
        let mut expected = [0usize; 3];
        for f in &features {
            if f.rect.spacing_to(&qrect) < dcolor {
                expected[f.mask.unwrap().index()] += 1;
            }
        }
        prop_assert_eq!(pressure, expected);
    }

    /// Removing a net from the ColorMap removes exactly its features.
    #[test]
    fn remove_net_is_exact(
        wires in prop::collection::vec((0u32..4, 0i64..40, 0i64..40, 0usize..3), 1..30),
        victim in 0u32..4,
    ) {
        let die = Rect::from_coords(0, 0, 2000, 2000);
        let mut map = ColorMap::new(&grid(die, 1), 45);
        let mut victim_count = 0;
        for (net, gx, gy, mask) in &wires {
            let rect = Rect::from_coords(gx * 20, gy * 20, gx * 20 + 20, gy * 20 + 8);
            map.insert(Feature::wire(NetId::new(*net), LayerId::new(0), rect, Some(Mask::from_index(*mask))));
            if *net == victim {
                victim_count += 1;
            }
        }
        let before = map.len();
        let removed = map.remove_net(NetId::new(victim));
        prop_assert_eq!(removed, victim_count);
        prop_assert_eq!(map.len(), before - victim_count);
        // No live feature of the victim remains.
        prop_assert!(map.live_features().all(|f| f.net != Some(NetId::new(victim))));
    }
    /// Random `insert`/`remove_net` sequences: after every step the
    /// incrementally kept pressure field equals a fresh `mask_pressure`
    /// query, asked by the last ripped-up net, at every vertex.  Wires reach
    /// past the die edge, and the offsets put wire edges exactly `dcolor`
    /// and `dcolor - 1` away from vertex footprints.
    #[test]
    fn vertex_pressure_matches_mask_pressure_after_random_edits(
        steps in prop::collection::vec(
            (0u32..24, 0u32..3, -3i64..22, -3i64..22, 0i64..6, any::<bool>(), 0usize..5, 0usize..6),
            1..30
        ),
    ) {
        let die = Rect::from_coords(0, 0, 400, 400);
        let dcolor = 45;
        let grid = grid(die, 3);
        let mut map = ColorMap::new(&grid, dcolor);
        let mut ripped = NetId::new(99);
        for (op, layer, gx, gy, len, horizontal, mask, offset) in steps {
            let net = NetId::new(op % 6);
            if op >= 18 {
                let live = map.live_features().filter(|f| f.net == Some(net)).count();
                prop_assert_eq!(map.remove_net(net), live);
                prop_assert!(!map.has_live_features(net));
                ripped = net;
            } else {
                // Footprints span 6..14 (mod 20).  A wire starting at 19
                // (mod 20) is exactly dcolor past a footprint's high edge,
                // at 18 one dbu closer; a wire 8 wide starting at 13 ends
                // exactly dcolor before a footprint's low edge, at 14 one
                // dbu closer.
                let shift = [0, 3, 19, 18, 13, 14][offset];
                let (x, y) = (gx * 20 + shift, gy * 20 + shift);
                let rect = if horizontal {
                    Rect::from_coords(x, y, x + 20 + len * 20, y + 8)
                } else {
                    Rect::from_coords(x, y, x + 8, y + 20 + len * 20)
                };
                let mask = (mask < 3).then(|| Mask::from_index(mask));
                map.insert(Feature::wire(net, LayerId::new(layer), rect, mask));
            }
            let asker = if map.has_live_features(ripped) { NetId::new(99) } else { ripped };
            for v in grid.iter_vertices() {
                let fresh = map.mask_pressure(asker, grid.layer_of(v), &map.footprint(v));
                prop_assert_eq!(map.vertex_pressure(v), fresh.map(|n| n as u16));
            }
        }
    }
}
