//! DRAM bank timing model.
//!
//! Section II-C: each memory bank reads or writes 256 bits per `tCCD` cycles
//! once the target row is in the row buffer; opening a row costs `tRAS`
//! cycles. The bank is a serial resource — a new access cannot begin until
//! the previous one finishes. This module models exactly that: open-row
//! tracking, activation latency, per-beat column access latency, and the
//! access counters the energy model consumes.

use crate::Cycle;

/// DRAM bank timing parameters, in cycles of the 1 GHz internal clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTiming {
    /// Row activation latency: cycles from ACT until the row is usable in the
    /// row buffer (the paper's `tRAS` in Section III-B).
    pub t_ras: Cycle,
    /// Column access latency per 256-bit beat with an open row (`tCCD`,
    /// "as small as 4 cycles").
    pub t_ccd: Cycle,
    /// Precharge latency before a different row can be activated.
    pub t_rp: Cycle,
    /// Bytes transferred per beat (256 bits).
    pub beat_bytes: usize,
    /// Row buffer size in bytes (2 Kb = 256 B).
    pub row_bytes: usize,
}

/// Whether a bank access read or wrote the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read columns from the row buffer.
    Read,
    /// Write columns through the row buffer.
    Write,
}

/// Counters of bank activity, consumed by the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// Row activations (row-buffer misses).
    pub activates: u64,
    /// Row-buffer hits (access to the already-open row).
    pub row_hits: u64,
    /// 256-bit beats read.
    pub read_beats: u64,
    /// 256-bit beats written.
    pub write_beats: u64,
}

/// Timing state of one DRAM bank.
///
/// The bank serializes accesses: [`DramBank::access`] returns the completion
/// cycle of the request given the earliest cycle it could start, accounting
/// for a still-busy data bus, a row-buffer miss (precharge + activate), and
/// the burst length.
///
/// # Example
///
/// ```
/// use spacea_sim::dram::{AccessKind, DramBank, DramTiming};
///
/// let timing = DramTiming { t_ras: 27, t_ccd: 4, t_rp: 13, beat_bytes: 32, row_bytes: 256 };
/// let mut bank = DramBank::new(timing);
/// // First access activates row 3 and streams a full row.
/// let done = bank.access(0, 3, timing.row_bytes, AccessKind::Read);
/// // Second access to the same row is a row-buffer hit.
/// let done2 = bank.access(done, 3, 32, AccessKind::Read);
/// assert_eq!(done2 - done, timing.t_ccd);
/// ```
#[derive(Debug, Clone)]
pub struct DramBank {
    timing: DramTiming,
    open_row: Option<u64>,
    busy_until: Cycle,
    busy_cycles: u64,
    counters: BankCounters,
}

impl DramBank {
    /// Creates an idle bank with no open row.
    pub fn new(timing: DramTiming) -> Self {
        DramBank {
            timing,
            open_row: None,
            busy_until: 0,
            busy_cycles: 0,
            counters: BankCounters::default(),
        }
    }

    /// Activity counters accumulated so far.
    pub fn counters(&self) -> &BankCounters {
        &self.counters
    }

    /// Total cycles the bank spent servicing accesses (activation +
    /// precharge + burst). Utilization = `busy_cycles / elapsed`.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Performs an access of `bytes` bytes to DRAM row `row`, starting no
    /// earlier than `earliest`, and returns the completion cycle.
    ///
    /// A row-buffer miss pays precharge (if another row was open) plus
    /// activation; a hit streams immediately. `bytes` is rounded up to whole
    /// 256-bit beats.
    pub fn access(&mut self, earliest: Cycle, row: u64, bytes: usize, kind: AccessKind) -> Cycle {
        let start = earliest.max(self.busy_until);
        let mut t = start;
        match self.open_row {
            Some(open) if open == row => {
                self.counters.row_hits += 1;
            }
            Some(_) => {
                t += self.timing.t_rp + self.timing.t_ras;
                self.counters.activates += 1;
                self.open_row = Some(row);
            }
            None => {
                t += self.timing.t_ras;
                self.counters.activates += 1;
                self.open_row = Some(row);
            }
        }
        let beats = bytes.div_ceil(self.timing.beat_bytes) as u64;
        t += beats * self.timing.t_ccd;
        match kind {
            AccessKind::Read => self.counters.read_beats += beats,
            AccessKind::Write => self.counters.write_beats += beats,
        }
        self.busy_cycles += t - start;
        self.busy_until = t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming { t_ras: 27, t_ccd: 4, t_rp: 13, beat_bytes: 32, row_bytes: 256 }
    }

    #[test]
    fn first_access_activates() {
        let mut bank = DramBank::new(timing());
        let done = bank.access(0, 0, 32, AccessKind::Read);
        assert_eq!(done, timing().t_ras + timing().t_ccd);
        assert_eq!(bank.counters().activates, 1);
        assert_eq!(bank.counters().row_hits, 0);
    }

    #[test]
    fn row_hit_skips_activation() {
        let mut bank = DramBank::new(timing());
        let d1 = bank.access(0, 5, 32, AccessKind::Read);
        let d2 = bank.access(d1, 5, 32, AccessKind::Read);
        assert_eq!(d2 - d1, timing().t_ccd);
        assert_eq!(bank.counters().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut bank = DramBank::new(timing());
        let d1 = bank.access(0, 5, 32, AccessKind::Read);
        let d2 = bank.access(d1, 9, 32, AccessKind::Read);
        assert_eq!(d2 - d1, timing().t_rp + timing().t_ras + timing().t_ccd);
        assert_eq!(bank.counters().activates, 2);
        // Row 9 is now the open row: a third access to it is a row hit.
        let d3 = bank.access(d2, 9, 32, AccessKind::Read);
        assert_eq!(d3 - d2, timing().t_ccd);
        assert_eq!(bank.counters().row_hits, 1);
        assert_eq!(bank.counters().activates, 2);
    }

    #[test]
    fn bank_serializes_accesses() {
        let mut bank = DramBank::new(timing());
        let d1 = bank.access(0, 0, 256, AccessKind::Read);
        // Request arriving earlier than the bank frees must queue.
        let d2 = bank.access(0, 0, 32, AccessKind::Read);
        assert_eq!(d2, d1 + timing().t_ccd);
    }

    #[test]
    fn full_row_stream_takes_eight_beats() {
        let t = timing();
        let mut bank = DramBank::new(t);
        let done = bank.access(0, 0, t.row_bytes, AccessKind::Read);
        assert_eq!(done, t.t_ras + 8 * t.t_ccd);
        assert_eq!(bank.counters().read_beats, 8);
    }

    #[test]
    fn bandwidth_matches_paper() {
        // 256 bits / 4 cycles @ 1 GHz = 8 GB/s per bank (Section II-C).
        let t = timing();
        let bytes_per_cycle = t.beat_bytes as f64 / t.t_ccd as f64;
        assert!((bytes_per_cycle - 8.0).abs() < 1e-12);
    }

    #[test]
    fn write_counts_separately() {
        let mut bank = DramBank::new(timing());
        bank.access(0, 0, 64, AccessKind::Write);
        assert_eq!(bank.counters().write_beats, 2);
        assert_eq!(bank.counters().read_beats, 0);
    }

    #[test]
    fn partial_beat_rounds_up() {
        let mut bank = DramBank::new(timing());
        bank.access(0, 0, 1, AccessKind::Read);
        assert_eq!(bank.counters().read_beats, 1);
    }
}
