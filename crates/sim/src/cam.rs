//! Set-associative content-addressable memory (CAM).
//!
//! SpaceA integrates an L1 CAM per bank group and an L2 CAM per vault
//! controller (Sections III-B and III-C) as key-value stores from input-vector
//! block index to block contents. Both levels share this implementation:
//! configurable set count, associativity and way size, with LRU replacement
//! inside a set.
//!
//! The paper's default configuration gives each way 32 bytes — four
//! double-precision elements of the input vector — so the CAM caches
//! *blocks* of `X`, and spatial locality across neighbouring column indices
//! turns into CAM hits.

use crate::stats::CamCounters;

/// Geometry of a CAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CamConfig {
    /// Number of sets (paper defaults: 32 for L1, 2048 for L2).
    pub sets: usize,
    /// Ways per set (default 4).
    pub ways: usize,
    /// Bytes per way (default 32 B = 4 × f64 input-vector elements).
    pub way_bytes: usize,
}

impl CamConfig {
    /// The paper's default L1 CAM: 32 sets × 4 ways × 32 B = 4 KB.
    pub fn l1_default() -> Self {
        CamConfig { sets: 32, ways: 4, way_bytes: 32 }
    }

    /// The paper's default L2 CAM: 2048 sets × 4 ways × 32 B = 256 KB.
    pub fn l2_default() -> Self {
        CamConfig { sets: 2048, ways: 4, way_bytes: 32 }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.way_bytes
    }

    /// Vector elements (f64) per way.
    pub fn elements_per_way(&self) -> usize {
        self.way_bytes / 8
    }
}

/// The most ways a set may have: the per-set fill count is a `u8`.
pub const MAX_WAYS: usize = u8::MAX as usize;

/// A set-associative CAM with LRU replacement.
///
/// Keys are block indices (`u64`); values are the cached block payloads.
///
/// # Layout
///
/// Every way lives in one set-major `sets × ways` table of `(key, last
/// use)` tags, allocated zeroed in one piece, plus a per-set fill count
/// saying how many ways of the set are resident. Building a CAM therefore
/// costs the same two allocations whatever its geometry, and sets that are
/// never touched never reach physical memory. Ways fill in order and are
/// only replaced in place, so the resident ways of a set are always its
/// first `fill` slots. Payloads sit in a parallel table sized on the first
/// insert; for a zero-sized `V` (the machine's presence-only CAMs) that
/// table never allocates.
///
/// # Example
///
/// ```
/// use spacea_sim::cam::{Cam, CamConfig};
///
/// let mut cam: Cam<[f64; 4]> = Cam::new(CamConfig::l1_default());
/// assert!(cam.lookup(7).is_none());
/// cam.insert(7, [1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cam.lookup(7), Some([1.0, 2.0, 3.0, 4.0]));
/// ```
#[derive(Debug, Clone)]
pub struct Cam<V> {
    config: CamConfig,
    /// `(key, last_use)` per way; set `s` owns slots `s·ways .. (s+1)·ways`.
    /// `last_use` is a monotone timestamp for LRU ordering.
    tags: Vec<(u64, u64)>,
    /// Resident ways per set (at most [`MAX_WAYS`]).
    fill: Vec<u8>,
    /// Payloads, slot for slot with `tags`; empty until the first insert.
    values: Vec<V>,
    tick: u64,
    counters: CamCounters,
}

impl<V: Copy> Cam<V> {
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
            values: Vec::new(),
            tick: 0,
            counters: CamCounters::default(),
        }
    }

    /// The geometry this CAM was built with.
    pub fn config(&self) -> &CamConfig {
        &self.config
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

    /// Searches for `key`, updating LRU state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> Option<V> {
        self.tick += 1;
        match self.find(key) {
            Some(slot) => {
                self.tags[slot].1 = self.tick;
                self.counters.hits += 1;
                Some(self.values[slot])
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Searches for `key` without disturbing LRU order or counters (used by
    /// tests and by response paths that only need presence information).
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.find(key).map(|slot| &self.values[slot])
    }

    /// Inserts or refreshes `key`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        self.tick += 1;
        self.counters.fills += 1;
        if self.values.is_empty() {
            self.values = vec![value; self.tags.len()];
        }
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
                (victim, Some((self.tags[victim].0, self.values[victim])))
            }
        };
        self.tags[slot] = (key, self.tick);
        self.values[slot] = value;
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

    fn tiny() -> Cam<u32> {
        Cam::new(CamConfig { sets: 2, ways: 2, way_bytes: 32 })
    }

    #[test]
    fn miss_then_hit() {
        let mut cam = tiny();
        assert_eq!(cam.lookup(4), None);
        cam.insert(4, 44);
        assert_eq!(cam.lookup(4), Some(44));
        assert_eq!(cam.counters().hits, 1);
        assert_eq!(cam.counters().misses, 1);
    }

    #[test]
    fn keys_map_to_sets_by_modulo() {
        let mut cam = tiny();
        // Keys 0 and 2 share set 0; keys 1 and 3 share set 1.
        cam.insert(0, 0);
        cam.insert(2, 2);
        cam.insert(1, 1);
        cam.insert(3, 3);
        assert_eq!(cam.len(), 4);
        // A fifth key in set 0 must evict.
        let evicted = cam.insert(4, 4);
        assert!(evicted.is_some());
        assert_eq!(cam.len(), 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cam = tiny();
        cam.insert(0, 10);
        cam.insert(2, 20);
        cam.lookup(0); // refresh key 0 → key 2 is now LRU
        let evicted = cam.insert(4, 40).expect("set full");
        assert_eq!(evicted, (2, 20));
        assert_eq!(cam.lookup(0), Some(10));
        assert_eq!(cam.lookup(4), Some(40));
    }

    #[test]
    fn insert_refreshes_existing() {
        let mut cam = tiny();
        cam.insert(0, 1);
        assert!(cam.insert(0, 2).is_none());
        assert_eq!(cam.lookup(0), Some(2));
        assert_eq!(cam.len(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut cam = tiny();
        cam.insert(0, 5);
        assert_eq!(cam.peek(0), Some(&5));
        assert_eq!(cam.peek(1), None);
        assert_eq!(cam.counters().hits, 0);
        assert_eq!(cam.counters().misses, 0);
    }

    #[test]
    fn paper_default_capacities() {
        assert_eq!(CamConfig::l1_default().capacity_bytes(), 4 * 1024);
        assert_eq!(CamConfig::l2_default().capacity_bytes(), 256 * 1024);
        assert_eq!(CamConfig::l1_default().elements_per_way(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _: Cam<u8> = Cam::new(CamConfig { sets: 0, ways: 1, way_bytes: 8 });
    }

    #[test]
    #[should_panic(expected = "at most 255 ways")]
    fn more_ways_than_the_fill_count_holds_panics() {
        let _: Cam<()> = Cam::new(CamConfig { sets: 1, ways: MAX_WAYS + 1, way_bytes: 32 });
    }

    #[test]
    fn widest_set_fills_and_evicts() {
        let mut cam: Cam<u32> = Cam::new(CamConfig { sets: 1, ways: MAX_WAYS, way_bytes: 32 });
        for k in 0..MAX_WAYS as u64 {
            assert!(cam.insert(k, k as u32).is_none());
        }
        assert_eq!(cam.len(), MAX_WAYS);
        assert_eq!(cam.insert(999, 9), Some((0, 0)));
        assert_eq!(cam.len(), MAX_WAYS);
    }
}
