//! The event queue of the simulator: a calendar (bucket) queue over exact
//! [`SimTime`] ticks with a binary-heap fallback for far-future events.
//!
//! Discrete-event traffic simulation schedules almost everything one link
//! traversal (= one tick) ahead, so a ring of per-tick buckets covering the
//! window `[cur, cur + W)` turns push and pop into O(1) vector operations —
//! no sift-up/down, no comparator, no moving payloads around a heap. Only
//! genuinely far-future events (deep service-queue backlogs, reschedules
//! more than [`WINDOW`] ticks ahead) overflow into a conventional heap and
//! migrate into the ring as the window advances. Scheduled injections are
//! not among them: the simulator keeps those in its injection schedule and
//! hands each packet over when simulated time reaches it, so the queue
//! holds events in flight, not the workload.
//!
//! # Ordering contract
//!
//! Pops are ordered by time, then FIFO within a tick — exactly the
//! `(at, seq)` order of the `BinaryHeap<Reverse<Queued>>` implementation
//! this replaces (property-tested against it in `tests/proptests.rs`).
//! The FIFO argument: the coverage window end `cur + W` only grows, and it
//! crosses any tick `t` exactly once. Every push for `t` made *before* the
//! crossing goes to the heap (and carries a smaller sequence number than
//! any later push); every push after goes to the bucket. Migration drains
//! the heap in `(at, seq)` order into the bucket tail at the moment of the
//! crossing, before any bucket push for `t` can occur — so bucket append
//! order equals global push order for every tick.
//!
//! # Memory
//!
//! A bucket's buffer grows to the most events its tick ever held, and a
//! tick's slot is not visited again for [`WINDOW`] ticks. Left in place,
//! the buffers would add up to the *sum of per-tick peaks* over every slot
//! ever touched. Instead a bucket gives its buffer up the moment the queue
//! moves past its tick, and the next push into an empty slot takes one
//! over: the buffers in circulation are as many as there were ticks with
//! events pending at once, so capacity follows the peak number of live
//! events, not the number of slots touched.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::engine::SimTime;

/// Number of exact-tick buckets in the ring. Schedules within this many
/// ticks of the current time (virtually all simulation traffic) never touch
/// the heap.
const WINDOW: u64 = 1024;

struct FarEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A time-ordered, FIFO-within-tick event queue (see module docs).
pub struct CalendarQueue<T> {
    /// Ring of buckets; bucket `t % WINDOW` holds events for tick `t` when
    /// `t` lies inside `[cur, cur + WINDOW)`.
    buckets: Vec<VecDeque<T>>,
    /// The tick currently being drained; never decreases.
    cur: u64,
    /// Buffers of exhausted ticks, waiting for the next push into a slot
    /// without one (see the module docs on memory).
    spare: Vec<VecDeque<T>>,
    /// Events currently stored in the ring.
    ring_len: usize,
    /// Far-future events, ordered by `(at, seq)`.
    far: BinaryHeap<Reverse<FarEntry<T>>>,
    /// Monotonic push counter, recorded for heap entries so equal-time
    /// entries pop in push order.
    seq: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..WINDOW).map(|_| VecDeque::new()).collect(),
            cur: 0,
            spare: Vec::new(),
            ring_len: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of events stored.
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Whether no events are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at `at`.
    ///
    /// `at` must not lie before the last popped time (the simulated past);
    /// this is debug-asserted, mirroring the engine's invariant.
    pub fn push(&mut self, at: SimTime, item: T) {
        debug_assert!(at.0 >= self.cur, "cannot schedule into the simulated past");
        let seq = self.seq;
        self.seq += 1;
        if at.0 < self.cur + WINDOW {
            self.push_ring(at.0, item);
        } else {
            self.far.push(Reverse(FarEntry { at: at.0, seq, item }));
        }
    }

    /// Removes and returns the earliest event, FIFO within a tick.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.ring_len == 0 {
            // Nothing inside the window: jump straight to the heap's next
            // event time (skipping the empty gap) and refill the ring.
            let next_at = self.far.peek()?.0.at;
            self.advance_to(next_at);
        }
        loop {
            let bucket = &mut self.buckets[(self.cur % WINDOW) as usize];
            if let Some(item) = bucket.pop_front() {
                self.ring_len -= 1;
                return Some((SimTime(self.cur), item));
            }
            // This tick is exhausted; advancing uncovers exactly one new
            // tick (cur + WINDOW - 1 after the increment) at the window's
            // far end — pull any heap events that now fit.
            self.advance_to(self.cur + 1);
        }
    }

    /// Drains up to `max` events of the **earliest** tick into `out`
    /// (appending) and returns that tick, or `None` when the queue is
    /// empty.
    ///
    /// The drain never crosses a tick boundary: even if fewer than `max`
    /// events exist at the earliest tick, events of later ticks stay
    /// queued. This is what makes batched execution equivalent to scalar
    /// execution — processing a drained batch may schedule *new* events at
    /// the same tick (they land behind the batch in the bucket, exactly
    /// where scalar FIFO would pop them), and a subsequent call continues
    /// the same tick until it is truly exhausted.
    ///
    /// `pop_tick_batch(1, …)` pops exactly what [`CalendarQueue::pop`]
    /// would.
    ///
    /// # Example
    ///
    /// ```
    /// use sdm_netsim::{CalendarQueue, SimTime};
    ///
    /// let mut q = CalendarQueue::new();
    /// q.push(SimTime(3), "a");
    /// q.push(SimTime(3), "b");
    /// q.push(SimTime(7), "later");
    /// let mut batch = Vec::new();
    /// assert_eq!(q.pop_tick_batch(16, &mut batch), Some(SimTime(3)));
    /// assert_eq!(batch, vec!["a", "b"]); // tick 7 not touched
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn pop_tick_batch(&mut self, max: usize, out: &mut Vec<T>) -> Option<SimTime> {
        if max == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Same window jump as `pop`: skip the empty gap to the heap's
            // earliest event and refill the ring.
            let next_at = self.far.peek()?.0.at;
            self.advance_to(next_at);
        }
        loop {
            let bucket = &mut self.buckets[(self.cur % WINDOW) as usize];
            if !bucket.is_empty() {
                let n = bucket.len().min(max);
                out.extend(bucket.drain(..n));
                self.ring_len -= n;
                return Some(SimTime(self.cur));
            }
            self.advance_to(self.cur + 1);
        }
    }

    /// The tick the next pop would return, without popping and without
    /// moving the window: the caller may still push at any tick from the
    /// last popped one on. A scan of at most 1024 (the ring size) bucket
    /// headers; in a running simulation the next event is a tick or two
    /// ahead.
    pub fn peek_tick(&self) -> Option<SimTime> {
        if self.ring_len == 0 {
            return self.far.peek().map(|e| SimTime(e.0.at));
        }
        (self.cur..self.cur + WINDOW)
            .find(|t| !self.buckets[(t % WINDOW) as usize].is_empty())
            .map(SimTime)
    }

    /// Appends `item` to the bucket of tick `at` (inside the window). A
    /// slot without a buffer takes over a spare one before allocating.
    fn push_ring(&mut self, at: u64, item: T) {
        let bucket = &mut self.buckets[(at % WINDOW) as usize];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push_back(item);
        self.ring_len += 1;
    }

    /// Leaves the exhausted tick `cur` for `next`, giving the tick's
    /// buffer up for reuse, and refills the ring for the new window.
    fn advance_to(&mut self, next: u64) {
        let bucket = &mut self.buckets[(self.cur % WINDOW) as usize];
        debug_assert!(bucket.is_empty(), "left a tick with events pending");
        if bucket.capacity() > 0 {
            self.spare.push(std::mem::take(bucket));
        }
        self.cur = next;
        self.migrate();
    }

    /// Moves every heap event inside `[cur, cur + WINDOW)` into the ring,
    /// in `(at, seq)` order.
    fn migrate(&mut self) {
        loop {
            let Some(top) = self.far.peek_mut() else {
                break;
            };
            if top.0.at >= self.cur + WINDOW {
                break;
            }
            let Reverse(e) = PeekMut::pop(top);
            debug_assert!(e.at >= self.cur, "heap held a past event");
            self.push_ring(e.at, e.item);
        }
    }

    /// Capacity held across all bucket and spare buffers, in events.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.buckets
            .iter()
            .chain(&self.spare)
            .map(VecDeque::capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_then_fifo_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(5), "a");
        q.push(SimTime(1), "b");
        q.push(SimTime(5), "c");
        q.push(SimTime(1), "d");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            vec![
                (SimTime(1), "b"),
                (SimTime(1), "d"),
                (SimTime(5), "a"),
                (SimTime(5), "c"),
            ]
        );
    }

    #[test]
    fn far_future_events_survive_and_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(3), 1u32);
        q.push(SimTime(WINDOW * 10), 2); // far beyond the window
        q.push(SimTime(WINDOW * 10), 3);
        q.push(SimTime(WINDOW + 5), 4); // just beyond
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime(3), 1)));
        assert_eq!(q.pop(), Some((SimTime(WINDOW + 5), 4)));
        assert_eq!(q.pop(), Some((SimTime(WINDOW * 10), 2)));
        assert_eq!(q.pop(), Some((SimTime(WINDOW * 10), 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_at_current_tick_is_fifo() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(2), 1u32);
        q.push(SimTime(2), 2);
        assert_eq!(q.pop(), Some((SimTime(2), 1)));
        // processing event 1 schedules another event at the same tick
        q.push(SimTime(2), 3);
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
        assert_eq!(q.pop(), Some((SimTime(2), 3)));
    }

    #[test]
    fn heap_to_ring_migration_preserves_fifo_per_tick() {
        let mut q = CalendarQueue::new();
        let t = WINDOW + 50; // starts outside the window
        q.push(SimTime(t), 1u32); // heap-bound
        q.push(SimTime(0), 0);
        q.push(SimTime(60), 9);
        assert_eq!(q.pop(), Some((SimTime(0), 0)));
        // advancing to 60 slides the window across t, migrating entry 1
        assert_eq!(q.pop(), Some((SimTime(60), 9)));
        // these now land in t's bucket directly, behind the migrated entry
        q.push(SimTime(t), 2);
        q.push(SimTime(t), 3);
        assert_eq!(q.pop(), Some((SimTime(t), 1)));
        assert_eq!(q.pop(), Some((SimTime(t), 2)));
        assert_eq!(q.pop(), Some((SimTime(t), 3)));
    }

    #[test]
    fn peek_names_the_next_tick_without_moving_the_window() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_tick(), None);
        q.push(SimTime(WINDOW * 4), 1u32); // far heap only
        assert_eq!(q.peek_tick(), Some(SimTime(WINDOW * 4)));
        q.push(SimTime(700), 2);
        assert_eq!(q.peek_tick(), Some(SimTime(700)));
        // The window did not move: an earlier tick is still schedulable
        // (the engine releases injections due before the queue's next).
        q.push(SimTime(5), 3);
        assert_eq!(q.peek_tick(), Some(SimTime(5)));
        assert_eq!(q.pop(), Some((SimTime(5), 3)));
        assert_eq!(q.pop(), Some((SimTime(700), 2)));
        assert_eq!(q.peek_tick(), Some(SimTime(WINDOW * 4)));
        assert_eq!(q.pop(), Some((SimTime(WINDOW * 4), 1)));
        assert_eq!(q.peek_tick(), None);
    }

    #[test]
    fn tick_batch_drains_one_tick_only() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(2), 1u32);
        q.push(SimTime(2), 2);
        q.push(SimTime(2), 3);
        q.push(SimTime(4), 9);
        let mut out = Vec::new();
        assert_eq!(q.pop_tick_batch(2, &mut out), Some(SimTime(2)));
        assert_eq!(out, vec![1, 2], "capped at max");
        out.clear();
        assert_eq!(q.pop_tick_batch(8, &mut out), Some(SimTime(2)));
        assert_eq!(out, vec![3], "finishes the tick, does not cross into t4");
        out.clear();
        assert_eq!(q.pop_tick_batch(8, &mut out), Some(SimTime(4)));
        assert_eq!(out, vec![9]);
        assert_eq!(q.pop_tick_batch(8, &mut out), None);
        assert_eq!(q.pop_tick_batch(0, &mut out), None, "zero max drains nothing");
    }

    #[test]
    fn tick_batch_sees_events_pushed_mid_tick() {
        // Processing a drained batch may schedule new work at the same
        // tick; the next drain must return the same tick, FIFO-continuing.
        let mut q = CalendarQueue::new();
        q.push(SimTime(5), 1u32);
        q.push(SimTime(5), 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_tick_batch(16, &mut out), Some(SimTime(5)));
        q.push(SimTime(5), 3); // "emitted" while handling the batch
        out.clear();
        assert_eq!(q.pop_tick_batch(16, &mut out), Some(SimTime(5)));
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn tick_batch_crosses_heap_spill_boundary_in_order() {
        // Events at the same tick split across ring and heap (pushed
        // before vs after the window crossed the tick) must drain in
        // global push order, exactly like scalar pop.
        let mut q = CalendarQueue::new();
        let t = WINDOW + 50;
        q.push(SimTime(t), 1u32); // heap-bound (outside the window)
        q.push(SimTime(0), 0);
        q.push(SimTime(60), 9); // popping this slides the window across t
        let mut out = Vec::new();
        assert_eq!(q.pop_tick_batch(16, &mut out), Some(SimTime(0)));
        assert_eq!(q.pop_tick_batch(16, &mut out), Some(SimTime(60)));
        q.push(SimTime(t), 2); // now ring-bound, behind the migrated entry
        q.push(SimTime(t), 3);
        out.clear();
        assert_eq!(q.pop_tick_batch(16, &mut out), Some(SimTime(t)));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn tick_batch_skips_empty_gap_to_far_future() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(WINDOW * 3 + 7), 42u32);
        q.push(SimTime(WINDOW * 3 + 7), 43);
        let mut out = Vec::new();
        assert_eq!(q.pop_tick_batch(16, &mut out), Some(SimTime(WINDOW * 3 + 7)));
        assert_eq!(out, vec![42, 43]);
        assert!(q.is_empty());
    }

    #[test]
    fn retained_capacity_follows_live_events_not_ticks_touched() {
        // K events a tick, each scheduling its successor one tick ahead
        // (the simulator's steady state), through five laps of the ring,
        // with one 100×K burst tick on the way. Buffers that stayed with
        // their slots would end up holding ≥ WINDOW × K.
        const K: usize = 64;
        let ticks = 5 * WINDOW;
        let burst_at = 2 * WINDOW + 17;
        let mut q = CalendarQueue::new();
        for i in 0..K {
            q.push(SimTime(0), i);
        }
        let mut batch = Vec::new();
        let mut popped = 0usize;
        let mut peak_live = 0usize;
        while let Some(at) = q.pop_tick_batch(usize::MAX, &mut batch) {
            popped += batch.len();
            if at.0 + 1 < ticks {
                let copies = if at.0 + 1 == burst_at { 100 } else { 1 };
                for &i in batch.iter().take(K) {
                    for _ in 0..copies {
                        q.push(SimTime(at.0 + 1), i);
                    }
                }
            }
            batch.clear();
            peak_live = peak_live.max(q.len());
        }
        assert_eq!(popped, (ticks as usize - 1) * K + 100 * K);
        assert_eq!(peak_live, 100 * K);
        let held = q.retained_capacity();
        assert!(
            held <= 4 * peak_live,
            "{held} event slots held for a peak of {peak_live} live events \
             (one buffer per slot would hold ≥ {})",
            WINDOW as usize * K
        );
        // an idle jump across the far heap gives the old tick's buffer up too
        q.push(SimTime(ticks + 10 * WINDOW), 0);
        assert!(q.pop().is_some());
        assert!(q.retained_capacity() <= 4 * peak_live);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past")]
    fn pushing_into_the_past_is_rejected() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(10), ());
        let _ = q.pop();
        q.push(SimTime(3), ());
    }
}
