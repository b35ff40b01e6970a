//! Deterministic discrete-event engine: a bucketed calendar queue.
//!
//! The engine is intentionally policy-free: it orders `(cycle, event)` pairs
//! and hands them back as whole same-cycle batches
//! ([`EventQueue::drain_cycle`]), its only delivery path. The architecture
//! model (the `spacea-arch` crate) owns all machine state and interprets the
//! events. Events scheduled for the same cycle are delivered in scheduling
//! (FIFO) order, which makes every simulation bit-for-bit reproducible.
//!
//! # Layout
//!
//! The queue is a timing wheel of [`WHEEL_BUCKETS`] one-cycle buckets
//! covering the near future `[now, now + WHEEL_BUCKETS)`, an occupancy
//! bitmap (one bit per bucket, scanned a 64-bucket word at a time), a
//! next-cycle lane, and a sorted overflow tree for events beyond the
//! horizon (watchdog-scale timers, far-future retries, deeply backlogged
//! banks). Every wheel event sits in one slot of a single slab, and each
//! bucket is a FIFO list threaded through that slab (a head and a tail
//! slot index); freed slots go on a free list and are reused before the
//! slab grows. The wheel's memory is therefore its peak pending count, not
//! one buffer per bucket touched. Scheduling and draining inside the
//! horizon cost O(1) per event — a list append or unlink and a bitmap
//! probe — versus the O(log n) sift of the previous `BinaryHeap` engine
//! (kept as [`reference::HeapQueue`], the one-at-a-time oracle the
//! equivalence proptests and `engine_bench` compare against).
//!
//! Most events are scheduled exactly one cycle ahead (a PE stepping again
//! at `L_p = 1`), so those skip the slab: an event for `now + 1` is pushed
//! onto the lane, a `Vec` reused across cycles, and
//! [`EventQueue::drain_cycle`] appends the lane behind the bucket's list
//! when that cycle comes due.
//!
//! # Tie-break contract
//!
//! Within one cycle, events are delivered in scheduling order — exactly
//! the order `schedule` was called. Each cycle's events sit in FIFOs that
//! only ever append at their tail, and a drain empties them in the order
//! they were filled, so no per-event sequence number is needed:
//!
//! - every wheel event for cycle `c` was scheduled while the clock read
//!   `c − 2` or earlier, or migrated from the overflow tree; overflow
//!   events migrate into their (empty) bucket before any later wheel
//!   insert at their cycle;
//! - every lane event for `c` was scheduled while the clock read `c − 1`;
//! - an event scheduled *while* draining cycle `c` for cycle `c` lands in
//!   the emptied bucket, after everything already delivered at `c`, and
//!   comes out in the next drain of `c`.
//!
//! So delivering the bucket, then the lane, then the same-cycle follow-ups
//! *is* scheduling order. Which slab slot an event occupies never matters:
//! only the list links order delivery. A drain therefore hands back exactly
//! the events a one-at-a-time heap would pop at that cycle, in the same
//! order: the batch boundary is invisible to the model.

use crate::slab::{List, Slab};
use crate::Cycle;
use std::collections::{BTreeMap, VecDeque};

/// Buckets in the timing wheel (one cycle each, a power of two).
///
/// Sized to cover the common latency scale of the machine model (CAM/TSV
/// latencies, DRAM timings, NoC hop chains, the stall-retry bounce) without
/// touching the overflow tree; only genuinely far-future events (deeply
/// backlogged banks, fault-plan delays) pay the tree's O(log n).
pub const WHEEL_BUCKETS: usize = 4096;
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;

/// The queue operations every engine implementation provides.
///
/// The `engine_bench` workloads drive both [`EventQueue`] and
/// [`reference::HeapQueue`] through this trait, so a schedule replays
/// identically on either engine.
pub trait DesQueue<E> {
    /// Schedules `event` at absolute cycle `at` (clamped to `now`).
    fn schedule(&mut self, at: Cycle, event: E);
    /// Moves every event pending at the next occupied cycle into `sink`
    /// (appending, in scheduling order) and returns that cycle.
    fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle>;
    /// The cycle of the most recently delivered event.
    fn now(&self) -> Cycle;
    /// Number of events currently pending.
    fn len(&self) -> usize;
    /// Returns `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic calendar queue of timed events.
///
/// # Example
///
/// Events come back one whole cycle at a time; scheduling order is
/// preserved, and follow-up events scheduled for the drained cycle surface
/// on the next drain of that cycle:
///
/// ```
/// use spacea_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(9, "c");
/// q.schedule(7, "a");
/// q.schedule(7, "b");
/// let mut batch = Vec::new();
/// assert_eq!(q.drain_cycle(&mut batch), Some(7));
/// assert_eq!(batch, vec!["a", "b"]);
/// assert_eq!(q.now(), 7);
/// batch.clear();
/// assert_eq!(q.drain_cycle(&mut batch), Some(9));
/// assert_eq!(batch, vec!["c"]);
/// ```
///
/// # Counter invariant
///
/// At every point in the queue's lifetime,
///
/// ```text
/// scheduled_count() − processed_count() == len()
/// ```
///
/// Every scheduled event is either still pending or has been delivered
/// exactly once — events are never dropped, duplicated, or conjured. Run
/// telemetry (the `spacea-harness` manifest) relies on this to report
/// events-processed counts that reconcile with queue occupancy; see
/// [`EventQueue::try_check_counters`] and the `counter_invariant_*` tests.
///
/// ```
/// use spacea_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(3, "a");
/// q.schedule(5, "b");
/// q.drain_cycle(&mut Vec::new());
/// assert_eq!(q.scheduled_count() - q.processed_count(), q.len() as u64);
/// assert!(q.try_check_counters().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// One slot list per wheel bucket; bucket `c % WHEEL_BUCKETS` holds
    /// only events at cycle `c` (the horizon is shorter than the wheel, so
    /// two distinct pending cycles never share a bucket).
    buckets: Vec<List>,
    /// The slab every wheel event lives in.
    slab: Slab<E>,
    /// One occupancy bit per bucket, scanned 64 buckets per probe.
    occupied: [u64; WHEEL_WORDS],
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Events beyond the horizon, keyed by cycle; each deque is in
    /// scheduling order. Invariant: every key is `>= now + WHEEL_BUCKETS`.
    overflow: BTreeMap<Cycle, VecDeque<E>>,
    /// Events currently in the overflow tree.
    overflow_len: usize,
    /// The next-cycle lane: events for `now + 1` scheduled while the clock
    /// read `now`, in scheduling order. Whenever it is non-empty its events
    /// are due at `now + 1`, since the clock cannot pass that cycle without
    /// delivering them.
    lane: Vec<E>,
    now: Cycle,
    scheduled: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![List::EMPTY; WHEEL_BUCKETS],
            slab: Slab::new(),
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            overflow: BTreeMap::new(),
            overflow_len: 0,
            lane: Vec::new(),
            now: 0,
            scheduled: 0,
            processed: 0,
        }
    }

    /// The cycle of the most recently delivered event (0 before the first).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow_len + self.lane.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered over the queue's lifetime.
    pub fn processed_count(&self) -> u64 {
        self.processed
    }

    #[inline]
    fn bucket_of(at: Cycle) -> usize {
        (at % WHEEL_BUCKETS as Cycle) as usize
    }

    #[inline]
    fn set_bit(&mut self, bucket: usize) {
        self.occupied[bucket / 64] |= 1u64 << (bucket % 64);
    }

    #[inline]
    fn clear_bit(&mut self, bucket: usize) {
        self.occupied[bucket / 64] &= !(1u64 << (bucket % 64));
    }

    #[inline]
    fn bit(&self, bucket: usize) -> bool {
        self.occupied[bucket / 64] & (1u64 << (bucket % 64)) != 0
    }

    /// Schedules `event` to fire at absolute cycle `at`.
    ///
    /// Scheduling in the past is clamped to `now`: a component reacting to an
    /// event at cycle `t` may trigger follow-up work "immediately", which
    /// lands at `t` and is delivered after all earlier-scheduled cycle-`t`
    /// events. An event for the next cycle goes to the lane, every other
    /// one inside the horizon to its wheel bucket.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let at = at.max(self.now);
        self.scheduled += 1;
        let ahead = at - self.now;
        if ahead == 1 {
            self.lane.push(event);
        } else if ahead < WHEEL_BUCKETS as Cycle {
            let bucket = Self::bucket_of(at);
            self.slab.push_back(&mut self.buckets[bucket], event);
            self.set_bit(bucket);
            self.wheel_len += 1;
        } else {
            self.overflow.entry(at).or_default().push_back(event);
            self.overflow_len += 1;
        }
    }

    /// The earliest occupied cycle in the wheel, scanning the occupancy
    /// bitmap from `now` forward (with wrap). `None` when the wheel is
    /// empty.
    fn next_wheel_cycle(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = Self::bucket_of(self.now);
        let mut word_ix = start / 64;
        // First probe masks off buckets before `now` within the word.
        let mut word = self.occupied[word_ix] & (!0u64 << (start % 64));
        for _ in 0..=WHEEL_WORDS {
            if word != 0 {
                let bucket = word_ix * 64 + word.trailing_zeros() as usize;
                let offset = (bucket + WHEEL_BUCKETS - start) % WHEEL_BUCKETS;
                return Some(self.now + offset as Cycle);
            }
            word_ix = (word_ix + 1) % WHEEL_WORDS;
            // On wrap-around the start word is re-probed unmasked: its low
            // bits map to cycles just under one full wheel ahead.
            word = self.occupied[word_ix];
        }
        None
    }

    /// Advances the clock to `to` and migrates every overflow entry that
    /// the move brought inside the horizon into the wheel. Called only with
    /// `to` at or before the earliest pending event, so migrated events are
    /// always strictly in the future.
    fn advance_to(&mut self, to: Cycle) {
        self.now = to;
        let horizon = to.saturating_add(WHEEL_BUCKETS as Cycle);
        while let Some((&at, _)) = self.overflow.first_key_value() {
            if at >= horizon {
                break;
            }
            let Some(events) = self.overflow.remove(&at) else { break };
            self.overflow_len -= events.len();
            self.wheel_len += events.len();
            let bucket = Self::bucket_of(at);
            // Wheel events lie in `[to, old horizon)` and migrating cycles
            // in `[old horizon, horizon)`: one window of WHEEL_BUCKETS
            // cycles, so no two of them share a bucket.
            debug_assert!(
                self.buckets[bucket].is_empty(),
                "an overflow cycle migrates into an empty bucket"
            );
            self.set_bit(bucket);
            for event in events {
                self.slab.push_back(&mut self.buckets[bucket], event);
            }
        }
    }

    /// The earliest cycle pending in the wheel or the lane. A non-empty
    /// lane is due at `now + 1`, so then only bucket `now` needs a look.
    fn next_near_cycle(&self) -> Option<Cycle> {
        if self.lane.is_empty() {
            self.next_wheel_cycle()
        } else if self.bit(Self::bucket_of(self.now)) {
            Some(self.now)
        } else {
            Some(self.now + 1)
        }
    }

    /// Moves every event pending at the next occupied cycle into `sink`
    /// (appending, in scheduling order), advances the clock to that cycle,
    /// and returns it. The bucket's list comes first, then a due lane. When
    /// the wheel and the lane are empty, the next cycle comes from the
    /// overflow tree.
    ///
    /// Events scheduled *for the drained cycle* while the batch is being
    /// processed are not lost: they land in the (now empty) bucket and the
    /// next `drain_cycle` call returns the same cycle again with just those
    /// follow-ups — they were scheduled after every drained event, so
    /// scheduling order holds across the two batches.
    pub fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
        if self.wheel_len == 0 && self.lane.is_empty() {
            let (&at, _) = self.overflow.first_key_value()?;
            self.advance_to(at);
        }
        let at = self.next_near_cycle()?;
        let mut lane_due = false;
        if at != self.now {
            // A non-empty lane is due at `now + 1` and nothing pending lies
            // before it, so the clock moves exactly onto the lane's cycle.
            lane_due = !self.lane.is_empty();
            self.advance_to(at);
        }
        let bucket = Self::bucket_of(at);
        let start = sink.len();
        let list = &mut self.buckets[bucket];
        while let Some(event) = self.slab.pop_front(list) {
            sink.push(event);
        }
        self.clear_bit(bucket);
        self.wheel_len -= sink.len() - start;
        if lane_due {
            sink.append(&mut self.lane);
        }
        self.processed += (sink.len() - start) as u64;
        Some(at)
    }

    /// The cycle of the next pending event without delivering it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.next_near_cycle().or_else(|| self.overflow.first_key_value().map(|(&at, _)| at))
    }

    /// Checks the counter invariant `scheduled − processed == len`,
    /// returning the violation as a message — the machine's run path
    /// surfaces it as a structured error. A violation would be a bug in the
    /// queue itself (events lost or double-delivered).
    ///
    /// # Errors
    ///
    /// Returns a message naming all three counters when the invariant does
    /// not hold.
    pub fn try_check_counters(&self) -> Result<(), String> {
        if self.scheduled.checked_sub(self.processed) == Some(self.len() as u64) {
            Ok(())
        } else {
            Err(format!(
                "event-queue counter invariant violated: scheduled {} - processed {} != pending {}",
                self.scheduled,
                self.processed,
                self.len()
            ))
        }
    }
}

impl<E> DesQueue<E> for EventQueue<E> {
    fn schedule(&mut self, at: Cycle, event: E) {
        EventQueue::schedule(self, at, event);
    }
    fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
        EventQueue::drain_cycle(self, sink)
    }
    fn now(&self) -> Cycle {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

pub mod reference {
    //! The previous `BinaryHeap`-backed engine, kept as the reference
    //! implementation. It still delivers one event at a time through its
    //! inherent [`HeapQueue::pop`]: the heap-vs-calendar equivalence
    //! proptests replay arbitrary schedules on both engines and demand that
    //! every calendar drain equal the heap's pops at that cycle, and
    //! `engine_bench` measures the calendar queue's speedup against this
    //! baseline.

    use super::DesQueue;
    use crate::Cycle;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        at: Cycle,
        seq: u64,
    }

    /// Wrapper so the heap never compares payloads: ordering is fully
    /// determined by the key, and `E` needs no `Ord` bound.
    #[derive(Debug, Clone)]
    struct EventSlot<E>(E);

    impl<E> PartialEq for EventSlot<E> {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }
    impl<E> Eq for EventSlot<E> {}
    impl<E> PartialOrd for EventSlot<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for EventSlot<E> {
        fn cmp(&self, _: &Self) -> std::cmp::Ordering {
            std::cmp::Ordering::Equal
        }
    }

    /// The O(log n) binary-heap event queue (pre-calendar engine).
    #[derive(Debug, Clone)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(Key, EventSlot<E>)>>,
        seq: u64,
        now: Cycle,
        scheduled: u64,
        processed: u64,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty queue at cycle 0.
        pub fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), seq: 0, now: 0, scheduled: 0, processed: 0 }
        }

        /// The cycle of the most recently popped event.
        pub fn now(&self) -> Cycle {
            self.now
        }

        /// Number of events currently pending.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Returns `true` if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Total events scheduled over the queue's lifetime.
        pub fn scheduled_count(&self) -> u64 {
            self.scheduled
        }

        /// Total events popped over the queue's lifetime.
        pub fn processed_count(&self) -> u64 {
            self.processed
        }

        /// Schedules `event` at absolute cycle `at` (clamped to `now`).
        pub fn schedule(&mut self, at: Cycle, event: E) {
            let at = at.max(self.now);
            let key = Key { at, seq: self.seq };
            self.seq += 1;
            self.scheduled += 1;
            self.heap.push(Reverse((key, EventSlot(event))));
        }

        /// Pops the next event, advancing the clock to its cycle.
        pub fn pop(&mut self) -> Option<(Cycle, E)> {
            let Reverse((key, EventSlot(ev))) = self.heap.pop()?;
            debug_assert!(key.at >= self.now, "event queue time went backwards");
            self.now = key.at;
            self.processed += 1;
            Some((key.at, ev))
        }

        /// Drains every event at the next pending cycle into `sink`
        /// (appending), returning that cycle — the batch API mirror.
        pub fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
            let (at, first) = self.pop()?;
            sink.push(first);
            while self.heap.peek().is_some_and(|Reverse((k, _))| k.at == at) {
                if let Some(Reverse((_, EventSlot(ev)))) = self.heap.pop() {
                    self.processed += 1;
                    sink.push(ev);
                }
            }
            Some(at)
        }

        /// The cycle of the next pending event without popping it.
        pub fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|Reverse((k, _))| k.at)
        }
    }

    impl<E> DesQueue<E> for HeapQueue<E> {
        fn schedule(&mut self, at: Cycle, event: E) {
            HeapQueue::schedule(self, at, event);
        }
        fn drain_cycle(&mut self, sink: &mut Vec<E>) -> Option<Cycle> {
            HeapQueue::drain_cycle(self, sink)
        }
        fn now(&self) -> Cycle {
            HeapQueue::now(self)
        }
        fn len(&self) -> usize {
            HeapQueue::len(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next cycle's batch, with its cycle.
    fn drain<E>(q: &mut EventQueue<E>) -> Option<(Cycle, Vec<E>)> {
        let mut batch = Vec::new();
        q.drain_cycle(&mut batch).map(|t| (t, batch))
    }

    /// Every pending event as `(cycle, event)`, drained a cycle at a time.
    fn drain_all<E>(q: &mut EventQueue<E>) -> Vec<(Cycle, E)> {
        let mut out = Vec::new();
        while let Some((t, batch)) = drain(q) {
            out.extend(batch.into_iter().map(|e| (t, e)));
        }
        out
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(drain_all(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(drain(&mut q), None);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        assert_eq!(drain(&mut q), Some((7, (0..100).collect())));
    }

    #[test]
    fn now_advances_with_drains() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(5, ());
        drain(&mut q);
        assert_eq!(q.now(), 5);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        drain(&mut q);
        q.schedule(3, "late");
        assert_eq!(drain(&mut q), Some((10, vec!["late"])));
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        drain(&mut q);
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.processed_count(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counter_invariant_holds_throughout_lifetime() {
        let mut q = EventQueue::new();
        assert_eq!(q.try_check_counters(), Ok(()));
        for i in 0..50 {
            q.schedule(i % 7, i);
            assert_eq!(q.try_check_counters(), Ok(()));
            assert_eq!(q.scheduled_count() - q.processed_count(), q.len() as u64);
        }
        while drain(&mut q).is_some() {
            assert_eq!(q.try_check_counters(), Ok(()));
            assert_eq!(q.scheduled_count() - q.processed_count(), q.len() as u64);
        }
        assert_eq!(q.scheduled_count(), 50);
        assert_eq!(q.processed_count(), 50);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn counter_invariant_survives_interleaving() {
        // Schedule-from-drain interleaving (the machine's actual usage
        // pattern): follow-up events created while draining, one cycle
        // ahead on the lane and two ahead in the wheel.
        let mut q = EventQueue::new();
        q.schedule(0, 0u64);
        let mut processed = 0u64;
        while let Some((t, batch)) = drain(&mut q) {
            for ev in batch {
                processed += 1;
                if ev < 20 {
                    q.schedule(t + 1, ev + 1);
                    q.schedule(t + 2, ev + 2);
                }
            }
            assert_eq!(q.try_check_counters(), Ok(()));
        }
        assert_eq!(q.processed_count(), processed);
        assert_eq!(q.scheduled_count(), processed, "drained queue: all scheduled were processed");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(9, ());
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.now(), 0);
    }

    #[test]
    fn payload_needs_no_ord() {
        // f64 is not Ord; the queue must still work.
        let mut q = EventQueue::new();
        q.schedule(1, 2.5f64);
        assert_eq!(drain(&mut q), Some((1, vec![2.5])));
    }

    #[test]
    fn far_future_events_route_through_overflow_and_back() {
        let mut q = EventQueue::new();
        let far = WHEEL_BUCKETS as Cycle * 37 + 11;
        q.schedule(far, "far");
        q.schedule(2, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(drain(&mut q), Some((2, vec!["near"])));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(drain(&mut q), Some((far, vec!["far"])));
        assert_eq!(q.now(), far);
        assert_eq!(q.try_check_counters(), Ok(()));
    }

    #[test]
    fn overflow_preserves_fifo_against_later_wheel_inserts() {
        // An event parked in overflow for cycle c must still precede an
        // event scheduled for c *later*, even though the latter may be
        // inserted directly into the wheel after the horizon has moved.
        let mut q = EventQueue::new();
        let c = WHEEL_BUCKETS as Cycle + 100;
        q.schedule(c, "first");
        q.schedule(c - WHEEL_BUCKETS as Cycle, "mover");
        assert_eq!(drain(&mut q), Some((c - WHEEL_BUCKETS as Cycle, vec!["mover"])));
        // Horizon now covers c; this insert goes straight to the wheel.
        q.schedule(c, "second");
        assert_eq!(drain(&mut q), Some((c, vec!["first", "second"])));
    }

    #[test]
    fn drain_cycle_hands_back_whole_batches() {
        let mut q = EventQueue::new();
        q.schedule(4, 1);
        q.schedule(4, 2);
        q.schedule(4, 3);
        q.schedule(9, 4);
        let mut sink = Vec::new();
        assert_eq!(q.drain_cycle(&mut sink), Some(4));
        assert_eq!(sink, vec![1, 2, 3]);
        assert_eq!(q.now(), 4);
        assert_eq!(q.try_check_counters(), Ok(()));
        sink.clear();
        assert_eq!(q.drain_cycle(&mut sink), Some(9));
        assert_eq!(sink, vec![4]);
        assert_eq!(q.drain_cycle(&mut sink), None);
    }

    #[test]
    fn drain_cycle_resurfaces_same_cycle_followups() {
        let mut q = EventQueue::new();
        q.schedule(5, "a");
        q.schedule(5, "b");
        let mut sink = Vec::new();
        assert_eq!(q.drain_cycle(&mut sink), Some(5));
        // The model reacts to the batch by scheduling more work at cycle 5.
        q.schedule(5, "c");
        q.schedule(5, "d");
        sink.clear();
        assert_eq!(q.drain_cycle(&mut sink), Some(5), "same cycle drains again");
        assert_eq!(sink, vec!["c", "d"]);
        assert_eq!(q.try_check_counters(), Ok(()));
    }

    #[test]
    fn wheel_wraparound_keeps_order() {
        // March the clock across several full wheel revolutions with a
        // stride that exercises bucket reuse and the bitmap wrap scan.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0u64..200 {
            let at = i * 97; // crosses the 4096 boundary repeatedly
            q.schedule(at, i);
            expect.push((at, i));
        }
        assert_eq!(drain_all(&mut q), expect);
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_schedule() {
        // A quick inline cross-check (the full property test lives in
        // tests/engine_equivalence.rs): interleaved schedules and drains
        // with bursts and far-future outliers deliver, cycle by cycle,
        // exactly what the heap pops one at a time.
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: reference::HeapQueue<u64> = reference::HeapQueue::new();
        let heap_batch = |heap: &mut reference::HeapQueue<u64>| {
            let (t, first) = heap.pop()?;
            let mut batch = vec![first];
            while heap.peek_time() == Some(t) {
                batch.extend(heap.pop().map(|(_, e)| e));
            }
            Some((t, batch))
        };
        let mut state = 0x9E37_79B9u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..5_000u64 {
            let r = step();
            match r % 4 {
                0 | 1 => {
                    let delay = match r % 97 {
                        0 => 100_000, // overflow territory
                        d => d,
                    };
                    cal.schedule(cal.now() + delay, i);
                    heap.schedule(heap.now() + delay, i);
                }
                2 => {
                    // Same-cycle burst.
                    let at = cal.now() + (r % 16);
                    for b in 0..(r % 7) {
                        cal.schedule(at, i + b);
                        heap.schedule(at, i + b);
                    }
                }
                _ => assert_eq!(drain(&mut cal), heap_batch(&mut heap)),
            }
        }
        loop {
            let (a, b) = (drain(&mut cal), heap_batch(&mut heap));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.processed_count(), heap.processed_count());
    }
}
