//! Layer microbench of the search frontier: [`BucketQueue`] push/pop over a
//! recorded Dijkstra key stream, next to a `BinaryHeap` replaying the same
//! stream.
//!
//! The stream comes from a plain Dijkstra on a 256 × 256 grid: an x step
//! costs 5120 key units (one 20-unit wire step at the detailed router's 256
//! key units per cost unit), a y step twice that, and entering a vertex adds
//! a deterministic pseudo-random history term in multiples of 256.  With
//! lazy deletion the stream holds stale entries and equal-key ties like a
//! real detailed-routing search.  Both queues pop the same sequence, which
//! setup checks once.
//!
//! ```bash
//! cargo bench --offline -p tpl-grid --bench bucket_queue
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tpl_grid::BucketQueue;

/// One queue operation of the recorded stream.
#[derive(Clone, Copy)]
enum Op {
    Push(u64, u32),
    Pop,
}

const SIDE: u32 = 256;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Records the push/pop stream of a Dijkstra from the grid centre.
fn record_stream() -> Vec<Op> {
    let n = (SIDE * SIDE) as usize;
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let history: Vec<u64> = (0..n).map(|_| 256 * (xorshift(&mut seed) % 16)).collect();
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut ops = Vec::new();
    let source = SIDE / 2 * SIDE + SIDE / 2;
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    ops.push(Op::Push(0, source));
    while let Some(Reverse((d, v))) = heap.pop() {
        ops.push(Op::Pop);
        if d > dist[v as usize] {
            continue;
        }
        let (x, y) = (v % SIDE, v / SIDE);
        let neighbours = [
            (x + 1 < SIDE).then(|| (v + 1, 5120)),
            (x > 0).then(|| (v - 1, 5120)),
            (y + 1 < SIDE).then(|| (v + SIDE, 10240)),
            (y > 0).then(|| (v - SIDE, 10240)),
        ];
        for (u, step) in neighbours.into_iter().flatten() {
            let nd = d + step + history[u as usize];
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
                ops.push(Op::Push(nd, u));
            }
        }
    }
    ops
}

/// Replays the stream on the detailed router's frontier shape (4096 key
/// units per bucket, 1024 buckets) and returns a checksum of the pops.
fn replay_bucket(queue: &mut BucketQueue, ops: &[Op]) -> u64 {
    queue.clear();
    let mut sum = 0u64;
    for op in ops {
        match *op {
            Op::Push(key, id) => queue.push(key, id),
            Op::Pop => {
                let (key, id) = queue.pop().expect("the stream never pops empty");
                sum = sum.wrapping_mul(31).wrapping_add(key ^ u64::from(id));
            }
        }
    }
    sum
}

fn replay_heap(heap: &mut BinaryHeap<Reverse<(u64, u32)>>, ops: &[Op]) -> u64 {
    heap.clear();
    let mut sum = 0u64;
    for op in ops {
        match *op {
            Op::Push(key, id) => heap.push(Reverse((key, id))),
            Op::Pop => {
                let Reverse((key, id)) = heap.pop().expect("the stream never pops empty");
                sum = sum.wrapping_mul(31).wrapping_add(key ^ u64::from(id));
            }
        }
    }
    sum
}

fn bucket_queue(c: &mut Criterion) {
    let ops = record_stream();
    let mut queue = BucketQueue::new(12, 1024);
    let mut heap = BinaryHeap::new();
    assert_eq!(
        replay_bucket(&mut queue, &ops),
        replay_heap(&mut heap, &ops),
        "the bucket queue must pop the binary heap's sequence"
    );
    let mut group = c.benchmark_group("bucket_queue");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("bucket", ops.len()), &ops, |b, ops| {
        b.iter(|| replay_bucket(&mut queue, black_box(ops)))
    });
    group.bench_with_input(
        BenchmarkId::new("binary_heap", ops.len()),
        &ops,
        |b, ops| b.iter(|| replay_heap(&mut heap, black_box(ops))),
    );
    group.finish();
}

criterion_group!(benches, bucket_queue);
criterion_main!(benches);
