//! Set-associative content-addressable memory (CAM).
//!
//! SpaceA integrates an L1 CAM per bank group and an L2 CAM per vault
//! controller (Sections III-B and III-C) as key-value stores from input-vector
//! block index to block contents. Both levels share this implementation:
//! configurable set count and associativity, with LRU replacement inside a
//! set. The model keeps tags only — which blocks are resident — and never
//! the block contents: the machine reads `X` from the input vector itself,
//! so a CAM decides timing, not values.
//!
//! Each way holds one block of `X`: 32 bytes, four double-precision
//! elements, a fixed parameter of the machine (`spacea_arch::BLOCK_BYTES`).
//! The CAM caches *blocks*, so spatial locality across neighbouring column
//! indices turns into CAM hits.

use crate::stats::CamCounters;

/// Geometry of a CAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CamConfig {
    /// Number of sets (paper defaults: 32 for L1, 2048 for L2).
    pub sets: usize,
    /// Ways per set (default 4).
    pub ways: usize,
}

impl CamConfig {
    /// The paper's default L1 CAM: 32 sets × 4 ways of 32-byte blocks = 4 KB.
    pub fn l1_default() -> Self {
        CamConfig { sets: 32, ways: 4 }
    }

    /// The paper's default L2 CAM: 2048 sets × 4 ways of 32-byte blocks =
    /// 256 KB.
    pub fn l2_default() -> Self {
        CamConfig { sets: 2048, ways: 4 }
    }
}

/// The most ways a set may have: the per-set fill count is a `u8`.
pub const MAX_WAYS: usize = u8::MAX as usize;

/// A set-associative, tag-only CAM with LRU replacement.
///
/// Keys are block indices (`u64`); a lookup answers whether the block is
/// resident.
///
/// # Layout
///
/// Every way lives in one set-major `sets × ways` table of `(key, last
/// use)` tags, allocated zeroed in one piece, plus a per-set fill count
/// saying how many ways of the set are resident. Building a CAM therefore
/// costs the same two allocations whatever its geometry, but not the same
/// time: the zeroing is only free when the allocator maps fresh pages from
/// the OS. A long-lived process that builds machine after machine gets
/// freed heap back, which the allocator clears with `memset`, so every
/// build writes all `16 · sets · ways` tag bytes, untouched sets included.
/// Ways fill in order and are only replaced in place, so the resident ways
/// of a set are always its first `fill` slots.
///
/// # Example
///
/// ```
/// use spacea_sim::cam::{Cam, CamConfig};
///
/// let mut cam = Cam::new(CamConfig::l1_default());
/// assert!(!cam.lookup(7));
/// assert_eq!(cam.insert(7), None);
/// assert!(cam.lookup(7));
/// ```
#[derive(Debug, Clone)]
pub struct Cam {
    config: CamConfig,
    /// `(key, last_use)` per way; set `s` owns slots `s·ways .. (s+1)·ways`.
    /// `last_use` is a monotone timestamp for LRU ordering.
    tags: Vec<(u64, u64)>,
    /// Resident ways per set (at most [`MAX_WAYS`]).
    fill: Vec<u8>,
    tick: u64,
    counters: CamCounters,
}

impl Cam {
    /// Creates an empty CAM with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `ways` exceeds [`MAX_WAYS`].
    pub fn new(config: CamConfig) -> Self {
        assert!(config.sets > 0, "CAM needs at least one set");
        assert!(config.ways > 0, "CAM needs at least one way");
        assert!(config.ways <= MAX_WAYS, "CAM sets hold at most {MAX_WAYS} ways");
        Cam {
            config,
            tags: vec![(0, 0); config.sets * config.ways],
            fill: vec![0; config.sets],
            tick: 0,
            counters: CamCounters::default(),
        }
    }

    /// Hit/miss counters accumulated so far.
    pub fn counters(&self) -> &CamCounters {
        &self.counters
    }

    /// The set `key` maps to.
    fn set_index(&self, key: u64) -> usize {
        (key % self.config.sets as u64) as usize
    }

    /// The table slot holding `key`, if it is resident.
    fn find(&self, key: u64) -> Option<usize> {
        let set = self.set_index(key);
        let base = set * self.config.ways;
        let resident = &self.tags[base..base + self.fill[set] as usize];
        resident.iter().position(|&(k, _)| k == key).map(|way| base + way)
    }

    /// Whether `key` is resident, updating LRU state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> bool {
        self.tick += 1;
        match self.find(key) {
            Some(slot) => {
                self.tags[slot].1 = self.tick;
                self.counters.hits += 1;
                true
            }
            None => {
                self.counters.misses += 1;
                false
            }
        }
    }

    /// Whether `key` is resident, without disturbing LRU order or counters.
    pub fn peek(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts or refreshes `key`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        self.counters.fills += 1;
        let set = self.set_index(key);
        let base = set * self.config.ways;
        let fill = self.fill[set] as usize;
        let resident = &self.tags[base..base + fill];
        let (slot, evicted) = match resident.iter().position(|&(k, _)| k == key) {
            Some(way) => (base + way, None),
            None if fill < self.config.ways => {
                self.fill[set] += 1;
                (base + fill, None)
            }
            None => {
                // The set is full: evict the least recently used way.
                // Stamps are unique, so the victim is too.
                let mut victim = base;
                for slot in base + 1..base + fill {
                    if self.tags[slot].1 < self.tags[victim].1 {
                        victim = slot;
                    }
                }
                self.counters.evictions += 1;
                (victim, Some(self.tags[victim].0))
            }
        };
        self.tags[slot] = (key, self.tick);
        evicted
    }

    /// Number of currently resident entries.
    pub fn len(&self) -> usize {
        self.fill.iter().map(|&f| f as usize).sum()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cam {
        Cam::new(CamConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn miss_then_hit() {
        let mut cam = tiny();
        assert!(!cam.lookup(4));
        cam.insert(4);
        assert!(cam.lookup(4));
        assert_eq!(cam.counters().hits, 1);
        assert_eq!(cam.counters().misses, 1);
    }

    #[test]
    fn keys_map_to_sets_by_modulo() {
        let mut cam = tiny();
        // Keys 0 and 2 share set 0; keys 1 and 3 share set 1.
        cam.insert(0);
        cam.insert(2);
        cam.insert(1);
        cam.insert(3);
        assert_eq!(cam.len(), 4);
        // A fifth key in set 0 must evict.
        let evicted = cam.insert(4);
        assert!(evicted.is_some());
        assert_eq!(cam.len(), 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cam = tiny();
        cam.insert(0);
        cam.insert(2);
        cam.lookup(0); // refresh key 0 → key 2 is now LRU
        assert_eq!(cam.insert(4), Some(2));
        assert!(cam.lookup(0));
        assert!(cam.lookup(4));
        assert!(!cam.peek(2));
    }

    #[test]
    fn insert_refreshes_existing() {
        let mut cam = tiny();
        cam.insert(0);
        assert!(cam.insert(0).is_none());
        assert!(cam.lookup(0));
        assert_eq!(cam.len(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut cam = tiny();
        cam.insert(0);
        assert!(cam.peek(0));
        assert!(!cam.peek(1));
        assert_eq!(cam.counters().hits, 0);
        assert_eq!(cam.counters().misses, 0);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = Cam::new(CamConfig { sets: 0, ways: 1 });
    }

    #[test]
    #[should_panic(expected = "at most 255 ways")]
    fn more_ways_than_the_fill_count_holds_panics() {
        let _ = Cam::new(CamConfig { sets: 1, ways: MAX_WAYS + 1 });
    }

    #[test]
    fn widest_set_fills_and_evicts() {
        let mut cam = Cam::new(CamConfig { sets: 1, ways: MAX_WAYS });
        for k in 0..MAX_WAYS as u64 {
            assert!(cam.insert(k).is_none());
        }
        assert_eq!(cam.len(), MAX_WAYS);
        assert_eq!(cam.insert(999), Some(0));
        assert_eq!(cam.len(), MAX_WAYS);
    }
}
