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
//! The associative search is a small open-addressed table from key to
//! entry slot: a fixed multiplicative hash, linear probing and
//! backward-shift deletion, allocated on the first admission and doubled
//! at half load. It is not a `HashMap` (D1 keeps those out of the model):
//! it has no per-process hash seed, so its layout depends only on the keys
//! and the order they arrived in, and its one iteration
//! ([`LoadQueue::oldest_age`]) takes a maximum, which no order can change.
//! Entries and their waiters live in two slabs, each entry's waiters as a
//! FIFO list, so admitting a key or parking a waiter reuses a freed slot
//! instead of allocating, and [`LoadQueue::complete`] hands the waiters to
//! a buffer the caller keeps.

use crate::slab::{List, Slab};
use crate::stats::LdqCounters;

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
    index: KeyIndex,
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
            index: KeyIndex::default(),
            entries: Slab::new(),
            waiters: Slab::new(),
            counters: LdqCounters::default(),
        }
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no keys are in flight.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Returns `true` if `key` is currently in flight.
    pub fn contains(&self, key: u64) -> bool {
        self.index.get(key).is_some()
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
        if let Some(ix) = self.index.get(key) {
            let entry = self.entries.get_mut(ix);
            debug_assert!(entry.is_some(), "an in-flight key names a live entry");
            if let Some(entry) = entry {
                self.waiters.push_back(&mut entry.waiters, waiter);
            }
            self.counters.deduplicated += 1;
            return LdqPush::Deduplicated;
        }
        if self.index.len() >= self.capacity {
            self.counters.rejected_full += 1;
        }
        let mut waiters = List::EMPTY;
        self.waiters.push_back(&mut waiters, waiter);
        let ix = self.entries.insert(Entry { since: now, waiters });
        self.index.insert(key, ix);
        self.counters.new_requests += 1;
        LdqPush::NewRequest
    }

    /// Completes `key`, removing it and appending its waiters to `woken` in
    /// arrival order. Appends nothing if the key was not pending.
    pub fn complete(&mut self, key: u64, woken: &mut Vec<W>) {
        let Some(mut entry) = self.index.remove(key).and_then(|ix| self.entries.remove(ix)) else {
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
            .slots()
            .filter_map(|ix| self.entries.get(ix))
            .map(|e| now.saturating_sub(e.since))
            .max()
            .unwrap_or(0)
    }
}

/// Marks a vacant cell of a [`KeyIndex`]. No slab holds `usize::MAX`
/// slots, so no entry slot is ever this value, and every `u64` stays
/// usable as a key.
const VACANT: usize = usize::MAX;

/// Cells a [`KeyIndex`] allocates on its first insert (a power of two).
const FIRST_CELLS: usize = 16;

/// One cell of a [`KeyIndex`]: a key and its entry slot, or [`VACANT`].
#[derive(Debug, Clone, Copy)]
struct Cell {
    key: u64,
    slot: usize,
}

/// An open-addressed table from in-flight key to entry slot.
///
/// A key's probe chain starts at its multiplicative (Fibonacci) hash and
/// runs forward to the first vacant cell. The table stays at most half
/// full, so every chain ends. Deleting shifts the rest of the chain back
/// into the hole, so no tombstones build up. A queue that never misses
/// never allocates the table.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    /// A power-of-two number of cells, or none before the first insert.
    cells: Vec<Cell>,
    len: usize,
}

impl KeyIndex {
    /// Number of keys held.
    fn len(&self) -> usize {
        self.len
    }

    /// The cell `key`'s probe chain starts at. The table must have cells.
    fn home(&self, key: u64) -> usize {
        let bits = self.cells.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// `Ok` with the cell holding `key`, or `Err` with the vacant cell
    /// that ends its probe chain. The table must have cells.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.cells.len() - 1;
        let mut ix = self.home(key);
        loop {
            let cell = self.cells[ix];
            if cell.slot == VACANT {
                return Err(ix);
            }
            if cell.key == key {
                return Ok(ix);
            }
            ix = (ix + 1) & mask;
        }
    }

    /// The entry slot of `key`, if it is held.
    fn get(&self, key: u64) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        self.find(key).ok().map(|ix| self.cells[ix].slot)
    }

    /// Adds `key` with entry slot `slot`. The key must not be held.
    fn insert(&mut self, key: u64, slot: usize) {
        if 2 * (self.len + 1) > self.cells.len() {
            self.grow();
        }
        let found = self.find(key);
        debug_assert!(found.is_err(), "key {key} is already held");
        if let Err(ix) = found {
            self.cells[ix] = Cell { key, slot };
            self.len += 1;
        }
    }

    /// Doubles the table (or allocates it) and re-inserts every key in
    /// cell order.
    fn grow(&mut self) {
        let cells = (2 * self.cells.len()).max(FIRST_CELLS);
        let old = std::mem::replace(&mut self.cells, vec![Cell { key: 0, slot: VACANT }; cells]);
        for cell in old.into_iter().filter(|c| c.slot != VACANT) {
            if let Err(ix) = self.find(cell.key) {
                self.cells[ix] = cell;
            }
        }
    }

    /// Removes `key` and returns its entry slot, if it was held.
    fn remove(&mut self, key: u64) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mut hole = self.find(key).ok()?;
        let slot = self.cells[hole].slot;
        let mask = self.cells.len() - 1;
        let mut ix = (hole + 1) & mask;
        while self.cells[ix].slot != VACANT {
            // The cell may move back into the hole unless its chain starts
            // after the hole: probe distance from its home at least the
            // distance from the hole.
            let home = self.home(self.cells[ix].key);
            if ix.wrapping_sub(home) & mask >= ix.wrapping_sub(hole) & mask {
                self.cells[hole] = self.cells[ix];
                hole = ix;
            }
            ix = (ix + 1) & mask;
        }
        self.cells[hole].slot = VACANT;
        self.len -= 1;
        Some(slot)
    }

    /// Every held entry slot, in cell order.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells.iter().map(|c| c.slot).filter(|&slot| slot != VACANT)
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
