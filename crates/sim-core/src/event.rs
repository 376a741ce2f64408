//! Stable, deterministic event queue.
//!
//! A discrete-event simulation is only reproducible if simultaneous events
//! pop in a defined order. [`EventQueue`] therefore tags every pushed event
//! with a monotonically increasing sequence number and orders by
//! `(time, seq)`: earlier times first, and among equal times, earlier
//! insertions first (FIFO). The key is a total order, so runs are
//! bit-for-bit identical across platforms and heap implementations.
//!
//! ## Cancellation
//!
//! Cancellation uses a slot/generation tombstone scheme instead of a
//! hash set of cancelled handles: each pushed event borrows a slot from a
//! small slab (recycled once the event pops or is cancelled) and its
//! handle packs `(slot, generation)`. Cancelling bumps the slot's
//! generation, so the stale heap entry is recognized and skipped when it
//! reaches the front — O(1) cancel with no per-event allocation, and an
//! exact live count at all times.

use crate::time::SimTime;

/// An event with its scheduled time.
#[derive(Debug, Clone)]
pub struct QueuedEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The payload delivered to the simulation.
    pub event: E,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    /// Packed `(generation << 32) | slot` identifying the slab slot this
    /// entry was live in when pushed.
    handle: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Heap ordering key: earlier time first, then insertion order.
    /// `seq` is unique, so this is a total order and any correct heap
    /// pops entries in exactly the same sequence.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A 4-ary min-heap on `Entry::key()`. Replaces `std`'s binary
/// `BinaryHeap`: the wider node fits one cache line of keys, halves the
/// tree depth, and benches ~25% faster on the engine's push/pop mix.
/// Pop order is identical — the key is a total order.
struct MinHeap<E> {
    data: Vec<Entry<E>>,
}

const ARITY: usize = 4;

impl<E> MinHeap<E> {
    fn with_capacity(capacity: usize) -> Self {
        MinHeap {
            data: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, entry: Entry<E>) {
        self.data.push(entry);
        // Sift up.
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.data[i].key() < self.data[parent].key() {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.data.is_empty() {
            return None;
        }
        let root = self.data.swap_remove(0);
        // Sift the relocated tail element down.
        let len = self.data.len();
        let mut i = 0;
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut min_child = first_child;
            for c in first_child + 1..last_child {
                if self.data[c].key() < self.data[min_child].key() {
                    min_child = c;
                }
            }
            if self.data[min_child].key() < self.data[i].key() {
                self.data.swap(i, min_child);
                i = min_child;
            } else {
                break;
            }
        }
        Some(root)
    }
}

fn unpack(handle: u64) -> (usize, u32) {
    ((handle & 0xFFFF_FFFF) as usize, (handle >> 32) as u32)
}

fn pack(slot: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | slot as u64
}

/// A deterministic min-priority queue of simulation events: earlier
/// times pop first, and equal times pop in push order.
pub struct EventQueue<E> {
    heap: MinHeap<E>,
    next_seq: u64,
    /// Current generation per slot. A heap entry whose packed generation
    /// differs from its slot's current generation is a tombstone.
    generations: Vec<u32>,
    free_slots: Vec<u32>,
    /// Exact number of live (pushed, not cancelled, not popped) events.
    live: usize,
    /// Events returned by [`EventQueue::pop`] over the queue's lifetime.
    processed: u64,
    /// Events ever pushed.
    pushed: u64,
    /// Events cancelled before firing (each leaves a heap tombstone).
    cancelled: u64,
    /// High-water mark of the live event count.
    depth_hwm: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-reserving room for `capacity` concurrently
    /// pending events (heap and slab), so steady-state pushes never
    /// reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: MinHeap::with_capacity(capacity),
            next_seq: 0,
            generations: Vec::with_capacity(capacity),
            free_slots: Vec::with_capacity(capacity),
            live: 0,
            processed: 0,
            pushed: 0,
            cancelled: 0,
            depth_hwm: 0,
        }
    }

    /// Schedule `event` at `time`. Returns a handle that can later be passed
    /// to [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s as usize,
            None => {
                self.generations.push(0);
                self.generations.len() - 1
            }
        };
        let handle = pack(slot, self.generations[slot]);
        self.heap.push(Entry {
            time,
            seq,
            handle,
            event,
        });
        self.live += 1;
        self.pushed += 1;
        if self.live > self.depth_hwm {
            self.depth_hwm = self.live;
        }
        handle
    }

    /// Cancel a previously scheduled event by handle. The slot's
    /// generation is bumped immediately (making the heap entry a
    /// tombstone dropped when it reaches the front) and the live count is
    /// decremented, so [`EventQueue::len`] stays exact. Cancelling an
    /// unknown or already-fired handle is a no-op.
    pub fn cancel(&mut self, handle: u64) {
        let (slot, generation) = unpack(handle);
        if let Some(current) = self.generations.get_mut(slot) {
            if *current == generation {
                *current = current.wrapping_add(1);
                self.free_slots.push(slot as u32);
                self.live -= 1;
                self.cancelled += 1;
            }
        }
    }

    /// Remove and return the earliest live event, or `None` if empty.
    pub fn pop(&mut self) -> Option<QueuedEvent<E>> {
        while let Some(entry) = self.heap.pop() {
            let (slot, generation) = unpack(entry.handle);
            if self.generations[slot] != generation {
                continue; // tombstone of a cancelled event
            }
            self.generations[slot] = generation.wrapping_add(1);
            self.free_slots.push(slot as u32);
            self.live -= 1;
            self.processed += 1;
            return Some(QueuedEvent {
                time: entry.time,
                event: entry.event,
            });
        }
        None
    }

    /// Exact number of live events (cancelled entries are not counted).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events this queue has dispatched (popped live, ever) — the
    /// simulator's work metric, e.g. for events-per-second throughput.
    pub fn processed_total(&self) -> u64 {
        self.processed
    }

    /// Total events ever pushed.
    pub fn pushed_total(&self) -> u64 {
        self.pushed
    }

    /// Total events cancelled before firing. Each cancellation leaves a
    /// heap tombstone, so `cancelled_total / pushed_total` is the fraction
    /// of heap traffic wasted on dead entries.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled
    }

    /// Highest number of simultaneously live events the queue ever held.
    pub fn depth_high_water(&self) -> usize {
        self.depth_hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), 3);
        q.push(SimTime(10), 1);
        q.push(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        q.cancel(a);
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), "a");
        q.cancel(pack(999, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "a");
    }

    #[test]
    fn cancel_already_popped_handle_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        assert_eq!(q.pop().unwrap().event, "a");
        q.cancel(a); // slot was recycled at pop; stale handle must not match
        let b = q.push(SimTime(2), "b");
        q.cancel(a); // still stale even while the slot is live again
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "b");
        let _ = b;
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        let b = q.push(SimTime(2), "b");
        q.push(SimTime(3), "c");
        assert_eq!(q.len(), 3);
        q.cancel(a);
        assert_eq!(q.len(), 2);
        q.cancel(a); // double-cancel must not double-count
        assert_eq!(q.len(), 2);
        q.cancel(b);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            let h = q.push(SimTime(round), round);
            if round % 2 == 0 {
                q.cancel(h);
            } else {
                q.pop();
            }
        }
        // One slot (recycled every round) plus at most a handful of
        // tombstone-displaced ones — not one per push.
        assert!(
            q.generations.len() <= 2,
            "slab grew to {}",
            q.generations.len()
        );
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn lifetime_counters_track_push_cancel_pop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        q.push(SimTime(3), "c");
        assert_eq!(q.depth_high_water(), 3);
        q.cancel(a);
        q.cancel(a); // double-cancel must not double-count
        while q.pop().is_some() {}
        assert_eq!(q.pushed_total(), 3);
        assert_eq!(q.cancelled_total(), 1);
        assert_eq!(q.processed_total(), 2);
        assert_eq!(q.depth_high_water(), 3, "high water survives draining");
    }

    #[test]
    fn with_capacity_does_not_change_behavior() {
        let mut q = EventQueue::with_capacity(64);
        q.push(SimTime(2), "b");
        q.push(SimTime(1), "a");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
    }

    proptest! {
        /// Whatever is pushed pops back in nondecreasing time order with
        /// FIFO tie-breaking — the invariant determinism rests on.
        #[test]
        fn prop_stable_time_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some(ev) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(ev.time >= lt);
                    if ev.time == lt {
                        prop_assert!(ev.event > li, "FIFO violated on tie");
                    }
                }
                last = Some((ev.time, ev.event));
            }
        }

        /// Cancelling an arbitrary subset removes exactly that subset, and
        /// `len()` tracks the live count exactly throughout.
        #[test]
        fn prop_cancellation_exact(n in 1usize..100, cancel_mask in proptest::collection::vec(any::<bool>(), 100)) {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            for i in 0..n {
                handles.push((q.push(SimTime((i % 7) as u64), i), i));
            }
            let mut expect: Vec<usize> = Vec::new();
            for (h, i) in &handles {
                if cancel_mask[*i] {
                    q.cancel(*h);
                } else {
                    expect.push(*i);
                }
            }
            prop_assert_eq!(q.len(), expect.len());
            let mut got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            prop_assert_eq!(q.len(), 0);
            got.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
