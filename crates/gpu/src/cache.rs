//! A minimal set-associative cache simulator.
//!
//! Used to estimate the GPU's L2 behaviour on input-vector gathers: every
//! miss becomes a 32-byte DRAM transaction. The model only needs hit/miss
//! accounting, so lines carry no data.

/// A set-associative LRU cache over byte addresses.
///
/// # Example
///
/// ```
/// use spacea_gpu::cache::CacheSim;
///
/// let mut c = CacheSim::new(1024, 4, 32);
/// assert!(!c.access(0));  // cold miss
/// assert!(c.access(8));   // same 32 B line
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    sets: Vec<Vec<(u64, u64)>>, // (tag, last_use)
    num_sets: usize,
    ways: usize,
    line_bytes: usize,
    tick: u64,
    misses: u64,
}

impl CacheSim {
    /// Creates a cache of `capacity_bytes` with the given associativity and
    /// line size.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the capacity is smaller than one
    /// way of lines.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_bytes > 0,
            "cache parameters must be positive"
        );
        let num_sets = (capacity_bytes / (ways * line_bytes)).max(1);
        CacheSim {
            sets: vec![Vec::with_capacity(ways); num_sets],
            num_sets,
            ways,
            line_bytes,
            tick: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr / self.line_bytes as u64;
        let set_ix = (line % self.num_sets as u64) as usize;
        let tag = line / self.num_sets as u64;
        let set = &mut self.sets[set_ix];
        if let Some(way) = set.iter_mut().find(|(t, _)| *t == tag) {
            way.1 = self.tick;
            return true;
        }
        self.misses += 1;
        // On a full set the LRU way is replaced; an empty ways list (never
        // built by `new`) degrades to a plain insert rather than a panic.
        let lru = set.iter().enumerate().min_by_key(|(_, (_, lu))| *lu).map(|(i, _)| i);
        match lru {
            Some(victim) if set.len() >= self.ways => set[victim] = (tag, self.tick),
            _ => set.push((tag, self.tick)),
        }
        false
    }

    /// Miss traffic in bytes (misses × line size).
    pub fn miss_bytes(&self) -> u64 {
        self.misses * self.line_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_locality_hits() {
        let mut c = CacheSim::new(4096, 4, 32);
        assert!(!c.access(100)); // cold miss, line 3
        assert!(c.access(101)); // same line
        assert!(c.access(96)); // still line 3 (96..128)
        assert!(!c.access(31)); // line 0: cold miss
        assert_eq!(c.miss_bytes(), 2 * 32);
    }

    #[test]
    fn capacity_evictions() {
        // 2 sets × 1 way × 32 B = tiny cache; alternating lines thrash.
        let mut c = CacheSim::new(64, 1, 32);
        assert!(!c.access(0));
        assert!(!c.access(64)); // same set (line 2 % 2 = 0), evicts line 0
        assert!(!c.access(0)); // thrashed
        assert_eq!(c.miss_bytes(), 3 * 32);
    }

    #[test]
    fn lru_within_set() {
        // 1 set × 2 ways.
        let mut c = CacheSim::new(64, 2, 32);
        c.access(0); // line 0
        c.access(32); // line 1
        c.access(0); // refresh line 0
        c.access(64); // evicts line 1 (LRU)
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(32), "line 1 was evicted");
    }

    #[test]
    fn miss_bytes_counts_lines() {
        let mut c = CacheSim::new(4096, 4, 32);
        c.access(0);
        c.access(4096);
        assert_eq!(c.miss_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_ways_panics() {
        CacheSim::new(1024, 0, 32);
    }
}
