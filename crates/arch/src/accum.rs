//! Accumulation-PE state (paper Section III-B, "Accumulation-PE").
//!
//! Bank groups on the vector die serve two purposes: answering `X_j`
//! requests (via their L1 CAM, then the bank) and accumulating partial `Y_i`
//! results. The PE-queue SRAM is repurposed as an *update buffer* caching
//! DRAM rows of the output vector; a full buffer writes back its LRU row.

/// Outcome of touching an output DRAM row in the update buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The row was resident.
    Hit,
    /// The row was loaded; an LRU victim may need writing back first.
    Miss {
        /// A dirty row that must be written back to the bank.
        writeback: Option<u64>,
    },
}

/// The update buffer: an LRU cache of output-vector DRAM rows.
#[derive(Debug, Clone)]
pub struct UpdateBuffer {
    rows: Vec<(u64, u64)>, // (dram_row, last_use); all resident rows are dirty
    capacity: usize,
    tick: u64,
    misses: u64,
    writebacks: u64,
}

impl UpdateBuffer {
    /// Creates an empty buffer holding at most `capacity` DRAM rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "update buffer needs at least one row");
        UpdateBuffer {
            rows: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Touches `dram_row` for an accumulation; returns whether a bank load /
    /// writeback is needed. Every accumulated row is dirty, so every
    /// eviction writes back.
    pub fn touch(&mut self, dram_row: u64) -> UpdateOutcome {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.rows.iter_mut().find(|(r, _)| *r == dram_row) {
            e.1 = tick;
            return UpdateOutcome::Hit;
        }
        self.misses += 1;
        if self.rows.len() < self.capacity {
            self.rows.push((dram_row, tick));
            return UpdateOutcome::Miss { writeback: None };
        }
        // The buffer is full (the non-full case returned above), so a
        // victim always exists; an empty buffer degrades to a plain insert.
        let Some(victim_ix) =
            self.rows.iter().enumerate().min_by_key(|(_, (_, lu))| *lu).map(|(i, _)| i)
        else {
            self.rows.push((dram_row, tick));
            return UpdateOutcome::Miss { writeback: None };
        };
        let victim = self.rows[victim_ix].0;
        self.rows[victim_ix] = (dram_row, tick);
        self.writebacks += 1;
        UpdateOutcome::Miss { writeback: Some(victim) }
    }

    /// Rows still resident (all dirty), for the final flush.
    pub fn resident_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.iter().map(|&(r, _)| r)
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions that required a writeback.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_on_resident_row() {
        let mut b = UpdateBuffer::new(2);
        assert_eq!(b.touch(5), UpdateOutcome::Miss { writeback: None });
        assert_eq!(b.touch(5), UpdateOutcome::Hit);
        assert_eq!(b.misses(), 1);
    }

    #[test]
    fn full_buffer_writes_back_lru() {
        let mut b = UpdateBuffer::new(2);
        b.touch(1);
        b.touch(2);
        b.touch(1); // refresh 1; LRU is 2
        assert_eq!(b.touch(3), UpdateOutcome::Miss { writeback: Some(2) });
        assert_eq!(b.writebacks(), 1);
    }

    #[test]
    fn resident_rows_for_final_flush() {
        let mut b = UpdateBuffer::new(4);
        b.touch(7);
        b.touch(9);
        let mut rows: Vec<u64> = b.resident_rows().collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![7, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_capacity_panics() {
        UpdateBuffer::new(0);
    }
}
