//! Layer microbench of the colour map: [`ColorMap::insert`],
//! [`ColorMap::remove_net`] and the per-vertex pressure lookup the grid
//! searches make, next to the window query it replaces.
//!
//! The layout is 5,000 track-aligned wires of 500 nets on a 4-layer,
//! 200 × 200-track grid, with pseudo-random masks.  `insert` and
//! `remove_net` start from a clone of an empty or a full map; the `clone`
//! rows time those clones alone.
//!
//! ```bash
//! cargo bench --offline -p tpl-color --bench colormap
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpl_color::{ColorMap, Feature, Mask};
use tpl_design::{DesignBuilder, LayerId, NetId, Technology};
use tpl_geom::{Axis, Rect};
use tpl_grid::GridGraph;

const NETS: u32 = 500;
const WIRES_PER_NET: u32 = 10;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Wires on the canonical tracks (pitch 20, offset 10, width 8) along each
/// layer's preferred axis.
fn layout(grid: &GridGraph) -> Vec<Feature> {
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let mut features = Vec::new();
    for net in 0..NETS {
        for _ in 0..WIRES_PER_NET {
            let layer = LayerId::new((xorshift(&mut seed) % grid.num_layers() as u64) as u32);
            let track = 10 + 20 * (xorshift(&mut seed) % 200) as i64;
            let start = 20 * (xorshift(&mut seed) % 190) as i64;
            let len = 20 * (1 + xorshift(&mut seed) % 20) as i64;
            let rect = if grid.layer_axis(layer) == Axis::Horizontal {
                Rect::from_coords(start, track - 4, start + len, track + 4)
            } else {
                Rect::from_coords(track - 4, start, track + 4, start + len)
            };
            let mask = Mask::from_index((xorshift(&mut seed) % 3) as usize);
            features.push(Feature::wire(NetId::new(net), layer, rect, Some(mask)));
        }
    }
    features
}

fn colormap(c: &mut Criterion) {
    let design = DesignBuilder::new(
        "bench",
        Technology::ispd_like(4),
        Rect::from_coords(0, 0, 4000, 4000),
    )
    .build()
    .expect("an empty design is valid");
    let grid = GridGraph::build(&design);
    let dcolor = design.tech().dcolor();
    let features = layout(&grid);
    let empty = ColorMap::new(&grid, dcolor);
    let mut full = empty.clone();
    for f in &features {
        full.insert(*f);
    }
    let n = features.len();

    let mut group = c.benchmark_group("colormap");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("clone_empty", n), &n, |b, _| {
        b.iter(|| empty.clone())
    });
    group.bench_with_input(BenchmarkId::new("insert", n), &features, |b, features| {
        b.iter(|| {
            let mut map = empty.clone();
            for f in features {
                map.insert(*f);
            }
            map
        })
    });
    group.bench_with_input(BenchmarkId::new("clone_full", n), &n, |b, _| {
        b.iter(|| full.clone())
    });
    group.bench_with_input(BenchmarkId::new("remove_net", n), &n, |b, _| {
        b.iter(|| {
            let mut map = full.clone();
            for net in 0..NETS {
                map.remove_net(NetId::new(net));
            }
            map
        })
    });
    // One lookup per grid vertex, as a search expanding the whole grid
    // would make, from the field and from a fresh window query.
    let asker = NetId::new(NETS);
    group.bench_with_input(
        BenchmarkId::new("vertex_pressure", grid.num_vertices()),
        &grid,
        |b, grid| {
            b.iter(|| {
                grid.iter_vertices()
                    .map(|v| u64::from(full.vertex_pressure(v)[0]))
                    .sum::<u64>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("mask_pressure", grid.num_vertices()),
        &grid,
        |b, grid| {
            b.iter(|| {
                grid.iter_vertices()
                    .map(|v| {
                        full.mask_pressure(asker, grid.layer_of(v), &full.footprint(v))[0] as u64
                    })
                    .sum::<u64>()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, colormap);
criterion_main!(benches);
