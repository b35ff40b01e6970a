//! Product-PE state (paper Section III-B).
//!
//! A Product-PE streams DRAM rows of packed non-zeros from its local bank
//! into a cyclic PE queue (scratchpad), scans queue entries at one element
//! per `L_p` cycles, checks the input-vector value in the register file /
//! L1 CAM, issues non-blocking remote requests on misses, and accumulates
//! partial `Y_i` results that are flushed when a matrix row completes.
//!
//! These structures are passive: the event handlers in
//! [`machine`](crate::machine) drive them.

use std::collections::VecDeque;
use std::ops::Range;

/// One packed matrix DRAM row: a row-index header plus up to
/// `nnz_per_dram_row` non-zeros of a single matrix row (Section III-B's
/// alignment rule). The non-zeros are not copied: the spec is a range into
/// the `col_idx`/`vals` arrays of the CSR matrix the run borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRowSpec {
    /// The matrix row index all entries in this DRAM row belong to.
    pub matrix_row: u32,
    /// Index of the first packed entry in the CSR `col_idx`/`vals` arrays.
    pub start: usize,
    /// Number of packed entries (at most `nnz_per_dram_row`).
    pub len: usize,
}

impl DramRowSpec {
    /// The packed entries' positions in the CSR `col_idx`/`vals` arrays.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// Packs the CSR rows assigned to one PE into DRAM rows.
///
/// Rows are laid out in assignment order; a matrix row longer than one DRAM
/// row spans several consecutive DRAM rows, each carrying the same header.
/// Empty matrix rows occupy no DRAM space.
pub fn pack_rows(
    csr: &spacea_matrix::Csr,
    assigned_rows: &[u32],
    nnz_per_dram_row: usize,
) -> Vec<DramRowSpec> {
    assert!(nnz_per_dram_row > 0, "DRAM row must hold at least one non-zero");
    let row_ptr = csr.row_ptr();
    let mut out = Vec::new();
    for &r in assigned_rows {
        let (first, end) = (row_ptr[r as usize], row_ptr[r as usize + 1]);
        for start in (first..end).step_by(nnz_per_dram_row) {
            let len = nnz_per_dram_row.min(end - start);
            out.push(DramRowSpec { matrix_row: r, start, len });
        }
    }
    out
}

/// An entry travelling through the PE pipeline. It carries no value: a
/// finished row is reduced from the CSR matrix in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeEntry {
    /// Id of the loaded DRAM row this entry came from.
    pub row_id: u32,
    /// Matrix row index.
    pub matrix_row: u32,
    /// Column index (selects `X_col`).
    pub col: u32,
}

/// A DRAM row resident in the PE queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedRow {
    /// Per-PE sequence id.
    pub id: u32,
    /// Entries not yet processed.
    pub remaining: usize,
}

/// Full state of one Product-PE.
#[derive(Debug, Clone, Default)]
pub struct ProductPe {
    /// Packed DRAM rows to stream, in order.
    pub dram_rows: Vec<DramRowSpec>,
    /// Next DRAM row index to load.
    pub next_load: usize,
    /// Whether a row load is outstanding at the bank.
    pub load_in_flight: bool,
    /// Rows resident in the PE queue (front pops first, paper's cyclic
    /// queue at DRAM-row granularity).
    pub queue: VecDeque<LoadedRow>,
    /// Entries loaded but not yet scanned.
    pub fresh: VecDeque<PeEntry>,
    /// Entries whose X value arrived (response-satisfied).
    pub ready: VecDeque<PeEntry>,
    /// Entries waiting on an outstanding X request.
    pub pending: usize,
    /// Slot in `row_remaining` of each DRAM row's matrix row, parallel to
    /// `dram_rows`, so a computed entry finds its row's count through its
    /// [`PeEntry::row_id`] without a search.
    pub row_slots: Vec<u32>,
    /// Non-zeros of each owned (non-empty) matrix row not yet multiplied,
    /// one slot per row in DRAM-row order. A whole matrix row belongs to
    /// exactly one PE, so when a count reaches zero the machine flushes
    /// that row's dot product, computed in canonical CSR entry order —
    /// which makes the result independent of the arrival order of X
    /// responses and bitwise-identical to the software oracle.
    pub row_remaining: Vec<usize>,
    /// Whether a `PeStep` event is scheduled.
    pub step_scheduled: bool,
    /// Non-zeros processed so far (workload metric).
    pub work: u64,
    /// Control-unit scan steps executed (busy-time metric; each step
    /// occupies the PE for `L_p` cycles).
    pub steps: u64,
}

impl ProductPe {
    /// Creates a PE with its packed work list.
    pub fn new(dram_rows: Vec<DramRowSpec>) -> Self {
        // DRAM rows of one matrix row are consecutive (`pack_rows` packs
        // each assigned row before moving on), so a new matrix row opens a
        // new slot and one pass accumulates every row's non-zero total.
        let mut row_slots = Vec::with_capacity(dram_rows.len());
        let mut row_remaining: Vec<usize> = Vec::new();
        for (i, spec) in dram_rows.iter().enumerate() {
            if i == 0 || dram_rows[i - 1].matrix_row != spec.matrix_row {
                row_remaining.push(0);
            }
            let slot = row_remaining.len() - 1;
            row_remaining[slot] += spec.len;
            row_slots.push(slot as u32);
        }
        ProductPe { dram_rows, row_slots, row_remaining, ..Default::default() }
    }

    /// Mutable remaining-count slot of the matrix row that DRAM row
    /// `row_id` belongs to, or `None` when this PE has no such DRAM row.
    pub fn row_remaining_mut(&mut self, row_id: u32) -> Option<&mut usize> {
        let slot = *self.row_slots.get(row_id as usize)?;
        self.row_remaining.get_mut(slot as usize)
    }

    /// Total non-zeros this PE must process.
    pub fn total_nnz(&self) -> usize {
        self.dram_rows.iter().map(|r| r.len).sum()
    }

    /// Whether the PE has scan work available right now.
    pub fn has_work(&self) -> bool {
        !self.fresh.is_empty() || !self.ready.is_empty()
    }

    /// Whether everything is processed and streamed.
    pub fn finished(&self) -> bool {
        self.next_load >= self.dram_rows.len()
            && !self.load_in_flight
            && self.queue.is_empty()
            && self.fresh.is_empty()
            && self.ready.is_empty()
            && self.pending == 0
    }

    /// Marks one entry of loaded row `row_id` complete; pops finished rows
    /// from the queue front and returns how many were popped, or `None`
    /// when the row is not resident (a completion for a row the queue never
    /// loaded — the caller decides whether that is an invariant breach).
    ///
    /// Rows load one at a time in id order and pop only from the front, so
    /// the resident ids are consecutive and row `row_id` sits at position
    /// `row_id - front.id`.
    pub fn complete_entry(&mut self, row_id: u32) -> Option<usize> {
        let front = self.queue.front()?.id;
        let ix = row_id.checked_sub(front)? as usize;
        let row = self.queue.get_mut(ix).filter(|r| r.id == row_id)?;
        debug_assert!(row.remaining > 0);
        row.remaining -= 1;
        self.work += 1;
        let mut popped = 0;
        while self.queue.front().is_some_and(|r| r.remaining == 0) {
            self.queue.pop_front();
            popped += 1;
        }
        Some(popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;
    use spacea_matrix::Csr;

    fn csr() -> Csr {
        // row 0: 3 nnz; row 1: 0 nnz; row 2: 2 nnz
        Csr::from_parts(3, 5, vec![0, 3, 3, 5], vec![0, 1, 2, 3, 4], vec![1.0; 5]).unwrap()
    }

    #[test]
    fn pack_respects_row_capacity() {
        let rows = pack_rows(&csr(), &[0, 2], 2);
        // row 0 (3 nnz) → 2 DRAM rows; row 2 (2 nnz) → 1 DRAM row.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], DramRowSpec { matrix_row: 0, start: 0, len: 2 });
        assert_eq!(rows[1], DramRowSpec { matrix_row: 0, start: 2, len: 1 });
        assert_eq!(rows[2], DramRowSpec { matrix_row: 2, start: 3, len: 2 });
    }

    proptest! {
        /// Over random matrices, row subsets and DRAM-row capacities, the
        /// packed ranges of each assigned row concatenate to exactly
        /// `Csr::row(r)`, in assignment order, and no chunk overflows its
        /// DRAM row. Each non-empty row gets the next count slot, every one
        /// of its DRAM rows points at that slot, and the slot starts at the
        /// row's non-zero count.
        #[test]
        fn packed_ranges_concatenate_to_each_assigned_row(
            (rows, cols, triples) in (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
                let entry = (0..rows, 0..cols, -8i32..8);
                (Just(rows), Just(cols), proptest::collection::vec(entry, 0..120))
            }),
            pick in proptest::collection::vec(any::<bool>(), 24),
            cap in 1usize..8,
        ) {
            let mut coo = spacea_matrix::Coo::new(rows, cols);
            for (r, c, v) in triples {
                coo.push(r, c, f64::from(v)).unwrap();
            }
            let a = coo.to_csr();
            let assigned: Vec<u32> = (0..rows as u32).filter(|&r| pick[r as usize]).rev().collect();
            let packed = pack_rows(&a, &assigned, cap);
            let pe = ProductPe::new(packed.clone());
            prop_assert_eq!(pe.row_slots.len(), packed.len());
            let mut next = packed.iter().zip(&pe.row_slots).peekable();
            let mut slot = 0;
            for &r in &assigned {
                let mut got = Vec::new();
                while let Some((spec, &spec_slot)) = next.next_if(|(s, _)| s.matrix_row == r) {
                    prop_assert!(spec.len >= 1 && spec.len <= cap, "{spec:?}");
                    prop_assert_eq!(spec_slot as usize, slot, "{:?}", spec);
                    let range = spec.range();
                    got.extend(a.col_idx()[range.clone()].iter().copied().zip(a.vals()[range].iter().copied()));
                }
                if !got.is_empty() {
                    prop_assert_eq!(pe.row_remaining[slot], a.row_nnz(r as usize), "row {}", r);
                    slot += 1;
                }
                prop_assert_eq!(got, a.row(r as usize).collect::<Vec<_>>());
            }
            prop_assert!(next.next().is_none(), "chunks for unassigned rows");
            prop_assert_eq!(pe.row_remaining.len(), slot, "one slot per non-empty row");
        }
    }

    #[test]
    fn pack_skips_empty_rows() {
        let rows = pack_rows(&csr(), &[1], 4);
        assert!(rows.is_empty());
    }

    #[test]
    fn pack_ranges_address_the_csr_entries() {
        let a = csr();
        let rows = pack_rows(&a, &[2], 4);
        let r = rows[0].range();
        assert_eq!((&a.col_idx()[r.clone()], &a.vals()[r]), (&[3, 4][..], &[1.0, 1.0][..]));
    }

    #[test]
    fn total_nnz_sums_entries() {
        let pe = ProductPe::new(pack_rows(&csr(), &[0, 2], 2));
        assert_eq!(pe.total_nnz(), 5);
    }

    #[test]
    fn complete_entry_pops_front_rows_in_order() {
        let mut pe = ProductPe::default();
        pe.queue.push_back(LoadedRow { id: 0, remaining: 1 });
        pe.queue.push_back(LoadedRow { id: 1, remaining: 1 });
        // Completing the *second* row first must not pop anything.
        assert_eq!(pe.complete_entry(1), Some(0));
        assert_eq!(pe.queue.len(), 2);
        // Completing the front row pops both (cascade).
        assert_eq!(pe.complete_entry(0), Some(2));
        assert!(pe.queue.is_empty());
        assert_eq!(pe.work, 2);
        // A completion for a row the queue never loaded is reported, not
        // silently counted.
        assert_eq!(pe.complete_entry(7), None);
        assert_eq!(pe.work, 2);
    }

    #[test]
    fn complete_entry_finds_rows_after_the_queue_has_moved_on() {
        // A two-row PE queue streams rows 0..6, popping each front row
        // once it is done, so rows 4 and 5 are resident at the end.
        const QUEUE_ROWS: usize = 2;
        let mut pe = ProductPe::default();
        for id in 0..6 {
            if pe.queue.len() == QUEUE_ROWS {
                let front = pe.queue[0].id;
                assert_eq!(pe.complete_entry(front), Some(0));
                assert_eq!(pe.complete_entry(front), Some(1), "row {front} pops when done");
            }
            pe.queue.push_back(LoadedRow { id, remaining: 2 });
        }
        assert_eq!(pe.queue.iter().map(|r| r.id).collect::<Vec<_>>(), [4, 5]);
        // Popped and not-yet-loaded rows are not resident.
        assert_eq!(pe.complete_entry(3), None);
        assert_eq!(pe.complete_entry(6), None);
        // The back row finishes first without touching the front row.
        assert_eq!(pe.complete_entry(5), Some(0));
        assert_eq!(pe.complete_entry(5), Some(0));
        assert_eq!(pe.queue[0].remaining, 2);
        assert_eq!(pe.complete_entry(4), Some(0));
        assert_eq!(pe.complete_entry(4), Some(2), "finishing the front pops both");
        assert!(pe.queue.is_empty());
        assert_eq!(pe.work, 12);
    }

    #[test]
    fn finished_requires_everything_drained() {
        let mut pe = ProductPe::new(vec![]);
        assert!(pe.finished());
        pe.pending = 1;
        assert!(!pe.finished());
    }
}
