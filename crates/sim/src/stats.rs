//! Activity counters shared by the simulator components.
//!
//! The paper's simulator "logs a detailed event trace including read/write
//! transactions to DRAM banks and on-chip SRAM, TSV data transfer, and FPU
//! computation" (Section V-A) and feeds those counts into CACTI-3DD-style
//! energy tables. These counter types cover the *aggregate* half of that:
//! whole-run totals that the `spacea-model` crate turns into joules. For
//! the time-resolved half — when the activity happened, not just how much —
//! an observed run of the machine (`spacea-arch`) keeps the opening of its
//! event trace and samples gauge series into a `spacea-obs` timeline.

use std::ops::AddAssign;

/// Hit/miss counters of a CAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CamCounters {
    /// Successful searches.
    pub hits: u64,
    /// Failed searches.
    pub misses: u64,
    /// Insertions (including refreshes of resident keys).
    pub fills: u64,
    /// LRU evictions caused by insertions into full sets.
    pub evictions: u64,
}

impl CamCounters {
    /// Searches performed (hits + misses).
    pub fn searches(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate over all searches, or 0 when no search happened.
    pub fn hit_rate(&self) -> f64 {
        if self.searches() == 0 {
            0.0
        } else {
            self.hits as f64 / self.searches() as f64
        }
    }
}

impl AddAssign for CamCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.fills += rhs.fills;
        self.evictions += rhs.evictions;
    }
}

/// Activity counters of a load queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LdqCounters {
    /// Pushes that created a new downstream request.
    pub new_requests: u64,
    /// Pushes absorbed by an already-pending key.
    pub deduplicated: u64,
    /// Keys completed by a response.
    pub completed: u64,
    /// New keys admitted while the queue was already at capacity: the
    /// pushes a blocking requestor would have had to retry.
    pub rejected_full: u64,
}

impl LdqCounters {
    /// Total search operations against the queue's CAM structure.
    pub fn searches(&self) -> u64 {
        self.new_requests + self.deduplicated + self.rejected_full + self.completed
    }
}

impl AddAssign for LdqCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.new_requests += rhs.new_requests;
        self.deduplicated += rhs.deduplicated;
        self.completed += rhs.completed;
        self.rejected_full += rhs.rejected_full;
    }
}

/// Read/write counters of an SRAM structure (PE queue, register file, update
/// buffer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SramCounters {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
}

impl SramCounters {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl AddAssign for SramCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cam_hit_rate() {
        let c = CamCounters { hits: 3, misses: 1, fills: 0, evictions: 0 };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CamCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn cam_add_assign() {
        let mut a = CamCounters { hits: 1, misses: 2, fills: 3, evictions: 4 };
        a += CamCounters { hits: 10, misses: 20, fills: 30, evictions: 40 };
        assert_eq!(a, CamCounters { hits: 11, misses: 22, fills: 33, evictions: 44 });
    }

    #[test]
    fn ldq_searches() {
        let c = LdqCounters { new_requests: 1, deduplicated: 2, completed: 1, rejected_full: 1 };
        assert_eq!(c.searches(), 5);
    }

    #[test]
    fn sram_totals() {
        let mut s = SramCounters { reads: 5, writes: 3 };
        s += SramCounters { reads: 1, writes: 1 };
        assert_eq!(s.total(), 10);
    }
}
