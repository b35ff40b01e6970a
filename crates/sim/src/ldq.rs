//! Load queues (LDQ) with request deduplication.
//!
//! Both CAM levels pair with a load queue (Sections III-B and III-C) whose
//! job is to "remove the duplication of data requests": when several
//! non-zeros (or several bank groups) need the same input-vector block, only
//! the first lookup sends a request downstream; later requestors are parked
//! as waiters and woken when the response arrives.
//!
//! The queues are fully associative with a fixed capacity (512 entries for
//! L1, 8192 for L2 in the default configuration). The requestor never
//! waits for room: the non-blocking PE control unit has already moved on
//! when it misses, so a key that arrives at a full queue is still admitted
//! and the overflow is counted in
//! [`rejected_full`](crate::stats::LdqCounters::rejected_full).
//!
//! An ordered map from key to entry slot is the associative search (D1
//! keeps hash maps out of the model). Entries and their waiters live in
//! two slabs, each entry's waiters as a FIFO list, so admitting a key or
//! parking a waiter reuses a freed slot instead of allocating, and
//! [`LoadQueue::complete`] hands the waiters to a buffer the caller keeps.

use crate::slab::{List, Slab};
use crate::stats::LdqCounters;
use std::collections::{btree_map, BTreeMap};

/// Outcome of pushing a request into a load queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdqPush {
    /// The key was not pending: a new downstream request must be sent.
    NewRequest,
    /// The key is already in flight: the waiter was parked, no new request.
    Deduplicated,
}

/// A fully-associative load queue tracking in-flight keys and their waiters.
///
/// `W` identifies a waiter (a PE queue slot, a bank-group id, a vault id…)
/// and is returned verbatim by [`LoadQueue::complete`].
///
/// # Example
///
/// ```
/// use spacea_sim::ldq::{LdqPush, LoadQueue};
///
/// let mut ldq: LoadQueue<&str> = LoadQueue::new(2);
/// assert_eq!(ldq.push_forced_at(10, "pe0", 0), LdqPush::NewRequest);
/// assert_eq!(ldq.push_forced_at(10, "pe1", 3), LdqPush::Deduplicated);
/// let mut woken = Vec::new();
/// ldq.complete(10, &mut woken);
/// assert_eq!(woken, ["pe0", "pe1"]);
/// ```
#[derive(Debug, Clone)]
pub struct LoadQueue<W> {
    capacity: usize,
    /// Each in-flight key's slot in `entries`.
    index: BTreeMap<u64, usize>,
    entries: Slab<Entry>,
    /// Every parked waiter, in its entry's list.
    waiters: Slab<W>,
    counters: LdqCounters,
}

/// One in-flight key: the simulated cycle it was admitted at (the
/// latency-probe timestamp behind the `queue-age` gauge) and its waiters
/// in arrival order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    since: u64,
    waiters: List,
}

impl<W> LoadQueue<W> {
    /// Creates an empty queue holding at most `capacity` distinct keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "load queue capacity must be positive");
        LoadQueue {
            capacity,
            index: BTreeMap::new(),
            entries: Slab::new(),
            waiters: Slab::new(),
            counters: LdqCounters::default(),
        }
    }

    /// Maximum number of distinct in-flight keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no keys are in flight.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns `true` if `key` is currently in flight.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Activity counters accumulated so far.
    pub fn counters(&self) -> &LdqCounters {
        &self.counters
    }

    /// Registers `waiter` for `key` at simulated cycle `now`, admitting the
    /// key even when the queue is at capacity.
    ///
    /// Returns [`LdqPush::NewRequest`] if this is the first request for the
    /// key (the caller must send it downstream; `now` is recorded so
    /// [`oldest_age`](LoadQueue::oldest_age) can report how long the key
    /// waits) or [`LdqPush::Deduplicated`] if the key was already pending.
    /// A new key admitted while `capacity` keys are in flight counts in
    /// [`rejected_full`](crate::stats::LdqCounters::rejected_full): the
    /// structural overflow a blocking requestor would have retried.
    pub fn push_forced_at(&mut self, key: u64, waiter: W, now: u64) -> LdqPush {
        let in_flight = self.index.len();
        match self.index.entry(key) {
            btree_map::Entry::Occupied(slot) => {
                let entry = self.entries.get_mut(*slot.get());
                debug_assert!(entry.is_some(), "an in-flight key names a live entry");
                if let Some(entry) = entry {
                    self.waiters.push_back(&mut entry.waiters, waiter);
                }
                self.counters.deduplicated += 1;
                LdqPush::Deduplicated
            }
            btree_map::Entry::Vacant(slot) => {
                if in_flight >= self.capacity {
                    self.counters.rejected_full += 1;
                }
                let mut waiters = List::EMPTY;
                self.waiters.push_back(&mut waiters, waiter);
                slot.insert(self.entries.insert(Entry { since: now, waiters }));
                self.counters.new_requests += 1;
                LdqPush::NewRequest
            }
        }
    }

    /// Completes `key`, removing it and appending its waiters to `woken` in
    /// arrival order. Appends nothing if the key was not pending.
    pub fn complete(&mut self, key: u64, woken: &mut Vec<W>) {
        let Some(mut entry) = self.index.remove(&key).and_then(|ix| self.entries.remove(ix)) else {
            return;
        };
        while let Some(waiter) = self.waiters.pop_front(&mut entry.waiters) {
            woken.push(waiter);
        }
        self.counters.completed += 1;
    }

    /// Age in cycles of the longest-waiting in-flight key at cycle `now`,
    /// or 0 when the queue is empty. A *growing* age under steady
    /// occupancy is the signature of a stuck (not merely deep) queue —
    /// the stall-diagnosis signal occupancy gauges cannot provide.
    pub fn oldest_age(&self, now: u64) -> u64 {
        self.index
            .values()
            .filter_map(|&ix| self.entries.get(ix))
            .map(|e| now.saturating_sub(e.since))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_push_is_new_request() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        assert_eq!(q.push_forced_at(1, 100, 0), LdqPush::NewRequest);
        assert!(q.contains(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn duplicate_pushes_dedupe() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        q.push_forced_at(1, 100, 0);
        assert_eq!(q.push_forced_at(1, 101, 0), LdqPush::Deduplicated);
        assert_eq!(q.push_forced_at(1, 102, 0), LdqPush::Deduplicated);
        assert_eq!(q.len(), 1, "dedup must not consume capacity");
        assert_eq!(q.counters().deduplicated, 2);
    }

    #[test]
    fn complete_appends_waiters_in_order() {
        let mut q: LoadQueue<&str> = LoadQueue::new(4);
        q.push_forced_at(9, "a", 0);
        q.push_forced_at(9, "b", 0);
        let mut woken = vec!["kept"];
        q.complete(9, &mut woken);
        assert_eq!(woken, ["kept", "a", "b"]);
        assert!(!q.contains(9));
        q.complete(9, &mut woken);
        assert_eq!(woken.len(), 3, "completing an idle key appends nothing");
        assert_eq!(q.counters().completed, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: LoadQueue<()> = LoadQueue::new(0);
    }

    #[test]
    fn oldest_age_tracks_the_longest_waiting_key() {
        let mut q: LoadQueue<u32> = LoadQueue::new(4);
        let mut woken = Vec::new();
        assert_eq!(q.oldest_age(100), 0, "empty queue has no age");
        q.push_forced_at(1, 0, 10);
        q.push_forced_at(2, 0, 30);
        assert_eq!(q.oldest_age(50), 40);
        // Deduplicated waiters do not reset the admission stamp.
        q.push_forced_at(1, 1, 45);
        assert_eq!(q.oldest_age(50), 40);
        // Completing the oldest key leaves the younger one's age.
        q.complete(1, &mut woken);
        assert_eq!(q.oldest_age(50), 20);
        q.push_forced_at(3, 0, 48);
        assert_eq!(q.oldest_age(50), 20);
        q.complete(2, &mut woken);
        assert_eq!(q.oldest_age(50), 2);
    }

    #[test]
    fn push_forced_overflows_but_registers() {
        let mut q: LoadQueue<u32> = LoadQueue::new(1);
        assert_eq!(q.push_forced_at(1, 0, 0), LdqPush::NewRequest);
        assert_eq!(q.push_forced_at(2, 0, 0), LdqPush::NewRequest);
        assert_eq!(q.len(), 2, "forced push admits over capacity");
        assert_eq!(q.counters().rejected_full, 1);
        let mut woken = Vec::new();
        q.complete(2, &mut woken);
        assert_eq!(woken, [0]);
    }
}
