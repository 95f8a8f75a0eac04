//! Shared configuration and frontier for the shortest-path search kernels.
//!
//! Both routers — the colour-state search in `mrtpl-core` and the maze
//! fallback in `tpl-global` — quantise costs to integer keys and expand a
//! best-first frontier.  [`SearchConfig`] carries the kernel knobs (goal
//! direction, queue choice, key resolution, bucket geometry) and
//! [`Frontier`] dispatches between the exact-order [`BucketQueue`] and a
//! plain binary heap.
//!
//! # Determinism contract
//!
//! * `bucket_queue` on/off never changes results: the bucket queue pops in
//!   exactly the binary heap's `(key, id)` order (see [`crate::bucket`]).
//! * `a_star` on/off preserves path cost (the heuristic is admissible and
//!   consistent) but may pick a different equal-cost path where tie-breaking
//!   depends on expansion order; kernels that need knob-independent output
//!   (the global maze) drain the frontier through the goal key and rebuild
//!   the path with a canonical backtrace instead of trusting `prev` order.
//!   The Dr.CU-like maze in `tpl-drcu` applies the same two rules, with a
//!   `(key, id)` tie-break, to return exactly Dijkstra's target and path
//!   from a goal-directed search, so it has no knob to read.

use crate::bucket::BucketQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tuning knobs for the shortest-path search kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Goal-directed search: add an admissible Manhattan lower bound to the
    /// nearest target when ordering the frontier.  Routers may scope when
    /// goal direction engages (the Mr.TPL router keeps its initial pass in
    /// pure-Dijkstra order and steers only negotiation reroutes).
    pub a_star: bool,
    /// Use the monotone bucket queue instead of a binary heap.
    pub bucket_queue: bool,
    /// Key units per cost unit when quantising `f64` costs to `u64` keys.
    pub key_resolution: f64,
    /// `log2` key units per bucket of the bucket queue.
    pub bucket_shift: u32,
    /// Buckets kept addressable before entries spill to the overflow heap.
    pub bucket_span: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            a_star: true,
            bucket_queue: true,
            // Matches the historical `(cost * 256.0) as u64` quantisation of
            // the detailed router.
            key_resolution: 256.0,
            // One bucket ≈ 4096 key units; the minimum planar step of the
            // detailed grid is ~5120 key units, so consecutive expansions
            // land a bucket or so apart and cursor scans stay short.
            bucket_shift: 12,
            bucket_span: 1024,
        }
    }
}

impl SearchConfig {
    /// Quantises a cost to its integer search key.
    #[inline]
    pub fn key(&self, cost: f64) -> u64 {
        (cost * self.key_resolution) as u64
    }
}

/// Best-first frontier: bucket queue or binary heap, identical pop order.
#[derive(Debug)]
pub enum Frontier {
    /// Monotone bucket queue (exact `(key, id)` order).
    Bucket(BucketQueue),
    /// Plain binary heap over `Reverse<(key, id)>`.
    Heap {
        /// The heap itself.
        heap: BinaryHeap<Reverse<(u64, u32)>>,
        /// High-water mark of live entries since the last clear.
        max_len: usize,
    },
}

impl Frontier {
    /// Builds the frontier the config asks for.
    pub fn for_config(config: &SearchConfig) -> Self {
        tpl_fault::point!("grid.frontier");
        if config.bucket_queue {
            Frontier::Bucket(BucketQueue::new(config.bucket_shift, config.bucket_span))
        } else {
            Frontier::Heap {
                heap: BinaryHeap::new(),
                max_len: 0,
            }
        }
    }

    /// Pushes a `(key, id)` entry.
    #[inline]
    pub fn push(&mut self, key: u64, id: u32) {
        match self {
            Frontier::Bucket(q) => q.push(key, id),
            Frontier::Heap { heap, max_len } => {
                heap.push(Reverse((key, id)));
                *max_len = (*max_len).max(heap.len());
            }
        }
    }

    /// Pops the smallest `(key, id)` entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        match self {
            Frontier::Bucket(q) => q.pop(),
            Frontier::Heap { heap, .. } => heap.pop().map(|Reverse(e)| e),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match self {
            Frontier::Bucket(q) => q.len(),
            Frontier::Heap { heap, .. } => heap.len(),
        }
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all entries and resets statistics, keeping allocations.
    pub fn clear(&mut self) {
        match self {
            Frontier::Bucket(q) => q.clear(),
            Frontier::Heap { heap, max_len } => {
                heap.clear();
                *max_len = 0;
            }
        }
    }

    /// High-water mark of live entries since the last clear.
    pub fn max_len(&self) -> usize {
        match self {
            Frontier::Bucket(q) => q.max_len(),
            Frontier::Heap { max_len, .. } => *max_len,
        }
    }

    /// Pushes that spilled to the bucket queue's overflow heap (0 for the
    /// binary-heap frontier).
    pub fn overflow_pushes(&self) -> u64 {
        match self {
            Frontier::Bucket(q) => q.overflow_pushes(),
            Frontier::Heap { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_key_matches_historical_quantisation() {
        let config = SearchConfig::default();
        assert_eq!(config.key(1.0), 256);
        assert_eq!(config.key(20.0), 5120);
        assert_eq!(config.key(0.0), 0);
    }

    #[test]
    fn both_frontiers_pop_in_identical_order() {
        let bucket_cfg = SearchConfig::default();
        let heap_cfg = SearchConfig {
            bucket_queue: false,
            ..bucket_cfg
        };
        let mut a = Frontier::for_config(&bucket_cfg);
        let mut b = Frontier::for_config(&heap_cfg);
        let entries = [(512u64, 4u32), (512, 1), (8, 2), (4096, 0), (8, 9)];
        for (k, id) in entries {
            a.push(k, id);
            b.push(k, id);
        }
        for _ in 0..entries.len() {
            assert_eq!(a.pop(), b.pop());
        }
        assert_eq!(a.pop(), None);
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn clear_resets_both_variants() {
        for bucket in [true, false] {
            let cfg = SearchConfig {
                bucket_queue: bucket,
                ..SearchConfig::default()
            };
            let mut f = Frontier::for_config(&cfg);
            f.push(10, 1);
            f.push(20, 2);
            assert_eq!(f.max_len(), 2);
            f.clear();
            assert!(f.is_empty());
            assert_eq!(f.max_len(), 0);
        }
    }
}
