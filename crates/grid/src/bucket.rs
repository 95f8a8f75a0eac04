//! Monotone bucket (Dial) priority queue for quantised search keys.
//!
//! Shortest-path search over the routing grid pushes entries whose keys are
//! already quantised integers (`cost * resolution`).  A binary heap pays
//! O(log n) per operation and churns one allocation-heavy `Vec` behind the
//! scenes; Dial's bucket queue exploits the bounded key step of grid search
//! to make push and pop O(1) amortised.
//!
//! # Exact pop-order equivalence
//!
//! [`BucketQueue`] is a drop-in replacement for
//! `BinaryHeap<Reverse<(u64, u32)>>`: it pops live entries in exactly
//! ascending `(key, id)` order, *unconditionally*.  Three mechanisms make the
//! order exact rather than merely bucket-approximate:
//!
//! * every bucket is a plain `Vec` that pushes append to; the first pop from
//!   a bucket sorts it descending by `(key, id)` and every pop takes the
//!   back, so ties and sub-bucket ordering match the global heap.  A push
//!   into the bucket being popped (the *cursor* bucket, once sorted) is an
//!   ordered insert, which keeps it sorted;
//! * a push whose bucket lies at or below the pop cursor is clamped into the
//!   cursor bucket — its key is smaller than every entry in later buckets, so
//!   the cursor bucket's order still pops it in exact global order;
//! * entries beyond the `span`-bucket window go to an overflow binary heap
//!   whose keys are all `≥ (window_base + span) << shift`, i.e. strictly
//!   after every window entry; when the window drains the queue re-bases on
//!   the overflow minimum and migrates the now-in-range entries.
//!
//! So a search on the bucket queue expands vertices in exactly the order a
//! binary heap over the same keys would; only the constants differ.  Each
//! bucket is sorted once instead of paying a heap sift per push and pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A `(key, id)` entry; smaller keys pop first, ids break ties ascending.
type Entry = (u64, u32);

/// Windowed Dial queue with sort-once buckets and binary-heap overflow.
///
/// See the module docs for the exact-order argument.  `shift` sets the key
/// width of one bucket (`1 << shift` key units) and `span` the number of
/// buckets kept addressable before entries spill to the overflow heap.
#[derive(Debug)]
pub struct BucketQueue {
    shift: u32,
    span: u64,
    /// Ring of buckets; absolute bucket `b` lives at `slots[b % span]`.
    slots: Vec<Vec<Entry>>,
    /// Absolute bucket index of the window start.
    window_base: u64,
    /// Absolute bucket index the next pop scans from (≥ `window_base`).
    cursor: u64,
    /// True while the cursor bucket is sorted descending (pops take the
    /// back); every other bucket is unsorted.
    cursor_sorted: bool,
    /// Live entries currently stored in `slots`.
    in_window: usize,
    /// Entries whose bucket fell outside the window at push time.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// True once the window has been based on the first pushed key.
    primed: bool,
    /// Statistics: high-water mark of total live entries.
    max_len: usize,
    /// Statistics: pushes that landed in the overflow heap.
    overflow_pushes: u64,
}

impl BucketQueue {
    /// Creates an empty queue with `1 << shift` key units per bucket and a
    /// window of `span` buckets before the overflow heap takes over.
    pub fn new(shift: u32, span: usize) -> Self {
        let span = span.max(1);
        Self {
            shift,
            span: span as u64,
            slots: vec![Vec::new(); span],
            window_base: 0,
            cursor: 0,
            cursor_sorted: false,
            in_window: 0,
            overflow: BinaryHeap::new(),
            primed: false,
            max_len: 0,
            overflow_pushes: 0,
        }
    }

    /// Total number of live entries.
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of live entries since the last [`BucketQueue::clear`].
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of pushes that spilled to the overflow heap since the last
    /// [`BucketQueue::clear`].
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Removes all entries and resets statistics, keeping allocations.
    pub fn clear(&mut self) {
        if self.in_window > 0 {
            for slot in &mut self.slots {
                slot.clear();
            }
        }
        self.overflow.clear();
        self.window_base = 0;
        self.cursor = 0;
        self.cursor_sorted = false;
        self.in_window = 0;
        self.primed = false;
        self.max_len = 0;
        self.overflow_pushes = 0;
    }

    /// Pushes an entry.  O(1) amortised for in-window keys.
    pub fn push(&mut self, key: u64, id: u32) {
        let bucket = key >> self.shift;
        if !self.primed {
            // Base the window on the first key so searches whose costs start
            // high (e.g. A* lower bounds) still use the buckets.
            self.primed = true;
            self.window_base = bucket;
            self.cursor = bucket;
        }
        // Clamp at the cursor: a key below the cursor bucket is smaller than
        // every entry in later buckets, so the cursor bucket's order pops it
        // in exact global order anyway.
        let bucket = bucket.max(self.cursor);
        let entry = (key, id);
        if bucket - self.window_base >= self.span {
            self.overflow.push(Reverse(entry));
            self.overflow_pushes += 1;
        } else {
            let slot = &mut self.slots[(bucket % self.span) as usize];
            if bucket == self.cursor && self.cursor_sorted {
                // Descending order: the entry goes after every larger one.
                let at = slot.partition_point(|e| *e > entry);
                slot.insert(at, entry);
            } else {
                slot.push(entry);
            }
            self.in_window += 1;
        }
        self.max_len = self.max_len.max(self.len());
    }

    /// Pops the live entry with the smallest `(key, id)`.
    pub fn pop(&mut self) -> Option<Entry> {
        if self.in_window == 0 && !self.migrate() {
            return None;
        }
        while self.slots[(self.cursor % self.span) as usize].is_empty() {
            self.cursor += 1;
            self.cursor_sorted = false;
        }
        let slot = &mut self.slots[(self.cursor % self.span) as usize];
        if !self.cursor_sorted {
            slot.sort_unstable_by(|a, b| b.cmp(a));
            self.cursor_sorted = true;
        }
        let entry = slot.pop();
        debug_assert!(entry.is_some());
        self.in_window -= 1;
        entry
    }

    /// Re-bases the window on the overflow minimum and pulls every overflow
    /// entry that now fits.  Returns false when the queue is exhausted.
    fn migrate(&mut self) -> bool {
        let Some(Reverse((min_key, _))) = self.overflow.peek() else {
            return false;
        };
        let base = min_key >> self.shift;
        self.window_base = base;
        self.cursor = base;
        self.cursor_sorted = false;
        while let Some(&Reverse((key, _))) = self.overflow.peek() {
            let bucket = key >> self.shift;
            if bucket - base >= self.span {
                break;
            }
            let Some(Reverse(entry)) = self.overflow.pop() else {
                unreachable!("peeked entry vanished");
            };
            self.slots[(bucket % self.span) as usize].push(entry);
            self.in_window += 1;
        }
        self.in_window > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the comparison test needs no external RNG.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Drives the bucket queue and a binary heap with the same interleaved
    /// push/pop sequence and demands identical pop order.
    fn check_equivalence(shift: u32, span: usize, seed: u64, ops: usize, key_range: u64) {
        let mut bq = BucketQueue::new(shift, span);
        let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        let mut rng = XorShift(seed);
        let mut floor = 0u64; // keep keys loosely monotone like a real search
        for i in 0..ops {
            let roll = rng.next();
            if !roll.is_multiple_of(3) || heap.is_empty() {
                let key = floor + rng.next() % key_range;
                let id = (rng.next() % 97) as u32;
                bq.push(key, id);
                heap.push(Reverse((key, id)));
            } else {
                let expected = heap.pop().map(|Reverse(e)| e);
                let got = bq.pop();
                assert_eq!(got, expected, "divergence at op {i} (seed {seed})");
                if let Some((k, _)) = got {
                    floor = k;
                }
            }
        }
        while let Some(Reverse(expected)) = heap.pop() {
            assert_eq!(bq.pop(), Some(expected), "drain divergence (seed {seed})");
        }
        assert_eq!(bq.pop(), None);
    }

    #[test]
    fn pop_order_matches_binary_heap() {
        for seed in 1..8 {
            check_equivalence(4, 16, seed, 2000, 1 << 9);
        }
    }

    #[test]
    fn pop_order_matches_binary_heap_with_heavy_overflow() {
        // Tiny window + huge key range: almost everything spills to the
        // overflow heap and must still pop in exact order.
        for seed in 1..8 {
            check_equivalence(2, 4, seed, 1500, 1 << 20);
        }
    }

    #[test]
    fn pop_order_matches_binary_heap_when_pushes_hit_the_cursor_bucket() {
        // A*-style: equal-f successors land on or just above the popped key,
        // so most pushes go into the already-sorted cursor bucket (a bucket
        // is 64 keys wide, a push at most 15 above the last pop).
        for seed in 1..8 {
            check_equivalence(6, 16, seed, 3000, 16);
        }
    }

    #[test]
    fn pushes_right_after_migrate_pop_in_order() {
        let mut bq = BucketQueue::new(2, 4);
        let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        for (key, id) in [(0, 1), (1001, 3), (1000, 2), (1004, 4), (5000, 6)] {
            bq.push(key, id);
            heap.push(Reverse((key, id)));
        }
        assert!(bq.overflow_pushes() > 0);
        assert_eq!(heap.pop(), Some(Reverse((0, 1))));
        assert_eq!(bq.pop(), Some((0, 1)));
        // The window is empty: this pop migrates, re-bases on key 1000 and
        // sorts the new cursor bucket.
        assert_eq!(heap.pop(), Some(Reverse((1000, 2))));
        assert_eq!(bq.pop(), Some((1000, 2)));
        // Into the sorted cursor bucket, below the cursor, in a later window
        // bucket and beyond the new window.
        for (key, id) in [
            (1000, 0),
            (1001, 1),
            (999, 5),
            (1006, 7),
            (1003, 9),
            (9000, 8),
        ] {
            bq.push(key, id);
            heap.push(Reverse((key, id)));
        }
        while let Some(Reverse(expected)) = heap.pop() {
            assert_eq!(bq.pop(), Some(expected));
        }
        assert_eq!(bq.pop(), None);
    }

    #[test]
    fn non_monotone_pushes_still_pop_in_order() {
        // Push far below the cursor after popping: the clamp rule must keep
        // the global order exact.
        let mut bq = BucketQueue::new(4, 8);
        bq.push(1000, 1);
        bq.push(2000, 2);
        assert_eq!(bq.pop(), Some((1000, 1)));
        bq.push(5, 3); // way below the cursor bucket
        bq.push(1500, 4);
        assert_eq!(bq.pop(), Some((5, 3)));
        assert_eq!(bq.pop(), Some((1500, 4)));
        assert_eq!(bq.pop(), Some((2000, 2)));
        assert_eq!(bq.pop(), None);
    }

    #[test]
    fn equal_keys_pop_in_id_order() {
        let mut bq = BucketQueue::new(4, 8);
        for id in [7u32, 3, 9, 1] {
            bq.push(64, id);
        }
        assert_eq!(bq.pop(), Some((64, 1)));
        assert_eq!(bq.pop(), Some((64, 3)));
        assert_eq!(bq.pop(), Some((64, 7)));
        assert_eq!(bq.pop(), Some((64, 9)));
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut bq = BucketQueue::new(4, 8);
        bq.push(10, 1);
        bq.push(1 << 30, 2); // overflow
        assert!(bq.overflow_pushes() > 0);
        bq.clear();
        assert!(bq.is_empty());
        assert_eq!(bq.max_len(), 0);
        assert_eq!(bq.overflow_pushes(), 0);
        bq.push(3, 5);
        assert_eq!(bq.pop(), Some((3, 5)));
        assert_eq!(bq.pop(), None);
    }

    #[test]
    fn occupancy_high_water_mark_is_tracked() {
        let mut bq = BucketQueue::new(4, 8);
        bq.push(1, 1);
        bq.push(2, 2);
        bq.push(3, 3);
        bq.pop();
        bq.pop();
        assert_eq!(bq.max_len(), 3);
        assert_eq!(bq.len(), 1);
    }
}
