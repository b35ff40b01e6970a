//! The sparse-format subsystem: one trait, four storage layouts.
//!
//! SparseP's evaluation shows the best (format × partitioning) choice for a
//! PIM system is matrix-dependent across its CSR/COO/BCSR taxonomy, and
//! Kreutzer et al.'s SELL-C-σ is the unified SIMD-friendly layout that
//! spans architectures. This module makes those layouts first-class so the
//! harness can sweep them as an axis:
//!
//! * [`CsrFormat`] — wraps the canonical [`Csr`];
//! * [`CooFormat`] — coordinate triplets in row-major order;
//! * [`BcsrFormat`] — blocked CSR (SparseP-style `BCSR`): dense `R×C`
//!   value blocks plus an occupancy bitmask per block, so explicit stored
//!   zeros survive the round trip;
//! * [`SellFormat`] — SELL-C-σ: rows sorted by length inside windows of
//!   σ, packed into slices of C lanes, values column-major per slice.
//!
//! # Contracts
//!
//! Every implementation upholds three invariants the rest of the system
//! builds on (property-tested in `tests/format_props.rs`):
//!
//! 1. **Lossless round trip** — `to_csr()` of a format built from a
//!    canonical CSR (rows with strictly ascending columns, as every
//!    generator and the MatrixMarket reader produce) reproduces that CSR
//!    exactly, including nnz order.
//! 2. **Bitwise reference SpMV** — [`SparseFormat::spmv`] accumulates each
//!    output row in the same order as [`Csr::spmv`] and *skips* padding
//!    slots (never computes `0.0 * x[c]`, which could mint `-0.0` or NaN),
//!    so the result is bit-identical to the CSR reference.
//! 3. **Storage model** — [`SparseFormat::bytes`] reports the on-device
//!    footprint so experiments can compare bytes-per-nnz across formats.
//!
//! [`SparseFormat::stream_rows`] additionally exposes the order in which a
//! streaming engine emits stored slots (output-row id per slot, [`PAD`]
//! for padding). The Serpens-style HBM backend derives its reorder-window
//! stall model from this stream — which is exactly where SELL-C-σ's
//! C-way row interleaving pays off.

use crate::Csr;

/// Stream marker for a padding slot: occupies storage and stream
/// bandwidth but accumulates into no output row.
pub const PAD: u32 = u32::MAX;

/// The four storage layouts the scenario matrix sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FormatKind {
    /// Compressed sparse row (the canonical baseline).
    Csr,
    /// Coordinate triplets, row-major.
    Coo,
    /// Blocked CSR with dense value blocks and occupancy masks.
    Bcsr,
    /// Sorted sliced ELLPACK (SELL-C-σ).
    Sell,
}

impl FormatKind {
    /// Every format, in sweep order.
    pub const ALL: [FormatKind; 4] =
        [FormatKind::Csr, FormatKind::Coo, FormatKind::Bcsr, FormatKind::Sell];

    /// Short name used in CLI axes, CSV cells and job labels.
    pub fn label(self) -> &'static str {
        match self {
            FormatKind::Csr => "csr",
            FormatKind::Coo => "coo",
            FormatKind::Bcsr => "bcsr",
            FormatKind::Sell => "sell",
        }
    }

    /// Parses a [`FormatKind::label`] string.
    pub fn parse(s: &str) -> Option<FormatKind> {
        FormatKind::ALL.into_iter().find(|f| f.label() == s)
    }

    /// Builds this format's representation of `a`.
    ///
    /// `a` should be canonical (strictly ascending columns per row) for
    /// the lossless round-trip and bitwise-SpMV guarantees to hold; see
    /// the module docs.
    pub fn build(self, a: &Csr) -> Box<dyn SparseFormat> {
        match self {
            FormatKind::Csr => Box::new(CsrFormat::from_csr(a)),
            FormatKind::Coo => Box::new(CooFormat::from_csr(a)),
            FormatKind::Bcsr => Box::new(BcsrFormat::from_csr(a)),
            FormatKind::Sell => Box::new(SellFormat::from_csr(a)),
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A sparse-matrix storage layout with a bitwise reference SpMV and a
/// storage/size model. See the module docs for the contracts.
pub trait SparseFormat {
    /// Which layout this is.
    fn kind(&self) -> FormatKind;
    /// Row count.
    fn rows(&self) -> usize;
    /// Column count.
    fn cols(&self) -> usize;
    /// Logical non-zeros (excluding padding slots).
    fn nnz(&self) -> usize;
    /// Converts back to canonical CSR, losslessly (see module docs).
    fn to_csr(&self) -> Csr;
    /// Reference SpMV, bitwise-equal to [`Csr::spmv`] on the same matrix.
    fn spmv(&self, x: &[f64]) -> Vec<f64>;
    /// Total storage footprint in bytes (indices + values + padding +
    /// per-format side tables).
    fn bytes(&self) -> usize;
    /// Stored slots including padding (each slot holds one value).
    fn stored_slots(&self) -> usize;
    /// Output-row id of each stored slot in the format's streaming order;
    /// [`PAD`] marks padding slots.
    fn stream_rows(&self) -> Vec<u32>;
    /// The coordinate footprint the format *stores* (block padding
    /// included), as a pattern matrix with unit values. The mapping phase
    /// partitions this, so a format that inflates a row's footprint also
    /// inflates its share of PE work.
    fn storage_pattern(&self) -> Csr;

    /// Storage bytes per logical non-zero.
    fn bytes_per_nnz(&self) -> f64 {
        self.bytes() as f64 / self.nnz().max(1) as f64
    }
}

/// Converts between any two formats via the canonical CSR intermediate.
pub fn convert(from: &dyn SparseFormat, to: FormatKind) -> Box<dyn SparseFormat> {
    to.build(&from.to_csr())
}

/// The unit-valued pattern matrix of `a`'s stored coordinates.
fn pattern_of(a: &Csr) -> Csr {
    let ones = vec![1.0; a.nnz()];
    Csr::from_parts(a.rows(), a.cols(), a.row_ptr().to_vec(), a.col_idx().to_vec(), ones)
        // lint:allow(R1) arrays come from a validated Csr, so rebuilding them cannot fail
        .expect("pattern of a valid Csr is a valid Csr")
}

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

/// The canonical CSR layout, wrapping [`Csr`] itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrFormat {
    inner: Csr,
}

impl CsrFormat {
    /// Wraps (a clone of) the canonical CSR.
    pub fn from_csr(a: &Csr) -> Self {
        CsrFormat { inner: a.clone() }
    }
}

impl SparseFormat for CsrFormat {
    fn kind(&self) -> FormatKind {
        FormatKind::Csr
    }
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn to_csr(&self) -> Csr {
        self.inner.clone()
    }
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        self.inner.spmv(x)
    }
    fn bytes(&self) -> usize {
        self.inner.csr_bytes()
    }
    fn stored_slots(&self) -> usize {
        self.inner.nnz()
    }
    fn stream_rows(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.inner.nnz());
        for i in 0..self.inner.rows() {
            out.extend(std::iter::repeat_n(i as u32, self.inner.row_nnz(i)));
        }
        out
    }
    fn storage_pattern(&self) -> Csr {
        pattern_of(&self.inner)
    }
}

// ---------------------------------------------------------------------------
// COO
// ---------------------------------------------------------------------------

/// Coordinate triplets in row-major (CSR entry) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CooFormat {
    rows: usize,
    cols: usize,
    row_idx: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CooFormat {
    /// Flattens a CSR into row-major triplets (entry order preserved).
    pub fn from_csr(a: &Csr) -> Self {
        let mut row_idx = Vec::with_capacity(a.nnz());
        for i in 0..a.rows() {
            row_idx.extend(std::iter::repeat_n(i as u32, a.row_nnz(i)));
        }
        CooFormat {
            rows: a.rows(),
            cols: a.cols(),
            row_idx,
            col_idx: a.col_idx().to_vec(),
            vals: a.vals().to_vec(),
        }
    }
}

impl SparseFormat for CooFormat {
    fn kind(&self) -> FormatKind {
        FormatKind::Coo
    }
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.vals.len()
    }
    fn to_csr(&self) -> Csr {
        // Entries are row-major already; rebuild row_ptr by counting.
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &r in &self.row_idx {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr::from_parts(self.rows, self.cols, row_ptr, self.col_idx.clone(), self.vals.clone())
            // lint:allow(R1) arrays were derived from a valid Csr, so the rebuild cannot fail
            .expect("COO derived from a valid Csr converts back")
    }
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        // Row-major entry order makes the per-row accumulation sequence
        // identical to Csr::spmv (y[i] starts at 0.0 either way).
        let mut y = vec![0.0; self.rows];
        for ((&r, &c), &v) in self.row_idx.iter().zip(&self.col_idx).zip(&self.vals) {
            y[r as usize] += v * x[c as usize];
        }
        y
    }
    fn bytes(&self) -> usize {
        // 4 B row + 4 B col + 8 B value per entry.
        16 * self.vals.len()
    }
    fn stored_slots(&self) -> usize {
        self.vals.len()
    }
    fn stream_rows(&self) -> Vec<u32> {
        self.row_idx.clone()
    }
    fn storage_pattern(&self) -> Csr {
        pattern_of(&self.to_csr())
    }
}

// ---------------------------------------------------------------------------
// BCSR
// ---------------------------------------------------------------------------

/// Default block shape (rows × cols per block).
pub const BCSR_BLOCK: (usize, usize) = (4, 4);

/// Blocked CSR: dense `R×C` value blocks addressed by a block-level CSR,
/// with an occupancy bitmask per block so explicit stored zeros are
/// distinguishable from block padding (that is what makes the round trip
/// lossless even for matrices that store a 0.0).
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrFormat {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    nnz: usize,
    block_row_ptr: Vec<usize>,
    block_col: Vec<u32>,
    mask: Vec<u64>,
    vals: Vec<f64>,
}

impl BcsrFormat {
    /// Blocks a CSR with the default [`BCSR_BLOCK`] shape.
    pub fn from_csr(a: &Csr) -> Self {
        BcsrFormat::with_block(a, BCSR_BLOCK.0, BCSR_BLOCK.1)
    }

    /// Blocks a CSR with an explicit block shape. Block shapes are capped
    /// at 64 cells so the occupancy mask fits one `u64`; larger requests
    /// fall back to the default shape.
    pub fn with_block(a: &Csr, br: usize, bc: usize) -> Self {
        let (br, bc) = if br == 0 || bc == 0 || br * bc > 64 { BCSR_BLOCK } else { (br, bc) };
        let block_rows = a.rows().div_ceil(br).max(1);
        let mut block_row_ptr = vec![0usize; block_rows + 1];
        let mut block_col = Vec::new();
        let mut mask = Vec::new();
        let mut vals = Vec::new();
        // Scratch over block columns: the index of a block column's block in
        // `block_col` while its block row is being filled (re-indexed once
        // the row's block columns are sorted), `NONE` otherwise.
        const NONE: usize = usize::MAX;
        let mut block_of = vec![NONE; a.cols().div_ceil(bc)];
        for bi in 0..block_rows {
            let base = bi * br;
            let rows = base..(base + br).min(a.rows());
            let first = block_col.len();
            for r in rows.clone() {
                for &c in a.row_cols(r) {
                    let bj = c as usize / bc;
                    if block_of[bj] == NONE {
                        block_of[bj] = block_col.len();
                        block_col.push(bj as u32);
                    }
                }
            }
            block_col[first..].sort_unstable();
            for (b, &bj) in block_col.iter().enumerate().skip(first) {
                block_of[bj as usize] = b;
            }
            mask.resize(block_col.len(), 0u64);
            vals.resize(block_col.len() * br * bc, 0.0);
            for r in rows {
                for (c, v) in a.row(r) {
                    let b = block_of[c as usize / bc];
                    let slot = (r - base) * bc + (c as usize % bc);
                    mask[b] |= 1u64 << slot;
                    vals[b * br * bc + slot] = v;
                }
            }
            for &bj in &block_col[first..] {
                block_of[bj as usize] = NONE;
            }
            block_row_ptr[bi + 1] = block_col.len();
        }
        BcsrFormat {
            rows: a.rows(),
            cols: a.cols(),
            br,
            bc,
            nnz: a.nnz(),
            block_row_ptr,
            block_col,
            mask,
            vals,
        }
    }

    /// The block shape (rows, cols).
    pub fn block(&self) -> (usize, usize) {
        (self.br, self.bc)
    }

    /// Stored blocks.
    pub fn blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Iterates one matrix row's stored entries in ascending-column order.
    fn row_entries(&self, r: usize, mut f: impl FnMut(u32, f64)) {
        let bi = r / self.br;
        let rr = r % self.br;
        for b in self.block_row_ptr[bi]..self.block_row_ptr[bi + 1] {
            let m = self.mask[b];
            for cc in 0..self.bc {
                let slot = rr * self.bc + cc;
                if m & (1u64 << slot) != 0 {
                    let c = self.block_col[b] * self.bc as u32 + cc as u32;
                    f(c, self.vals[b * self.br * self.bc + slot]);
                }
            }
        }
    }
}

impl SparseFormat for BcsrFormat {
    fn kind(&self) -> FormatKind {
        FormatKind::Bcsr
    }
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn to_csr(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for r in 0..self.rows {
            self.row_entries(r, |c, v| {
                col_idx.push(c);
                vals.push(v);
            });
            row_ptr[r + 1] = col_idx.len();
        }
        Csr::from_parts(self.rows, self.cols, row_ptr, col_idx, vals)
            // lint:allow(R1) the traversal emits in-range ascending columns per row
            .expect("BCSR traversal yields a valid Csr")
    }
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        // Masked traversal in ascending-column order reproduces the CSR
        // accumulation sequence exactly; padding slots are never touched.
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            self.row_entries(r, |c, v| acc += v * x[c as usize]);
            *out = acc;
        }
        y
    }
    fn bytes(&self) -> usize {
        let per_block = 4 + (self.br * self.bc).div_ceil(8) + 8 * self.br * self.bc;
        4 * (self.block_row_ptr.len()) + per_block * self.blocks()
    }
    fn stored_slots(&self) -> usize {
        self.blocks() * self.br * self.bc
    }
    fn stream_rows(&self) -> Vec<u32> {
        // A block engine streams whole blocks, row-major within each.
        let mut out = Vec::with_capacity(self.stored_slots());
        for bi in 0..self.block_row_ptr.len() - 1 {
            let base = bi * self.br;
            for b in self.block_row_ptr[bi]..self.block_row_ptr[bi + 1] {
                let m = self.mask[b];
                for slot in 0..self.br * self.bc {
                    let r = base + slot / self.bc;
                    if m & (1u64 << slot) != 0 && r < self.rows {
                        out.push(r as u32);
                    } else {
                        out.push(PAD);
                    }
                }
            }
        }
        out
    }
    fn storage_pattern(&self) -> Csr {
        // The full footprint of every stored block, padding included:
        // blocking a row widens its stored footprint, and the mapping
        // phase should see that. A block row's blocks are in ascending
        // column order, so each matrix row's cells come out in CSR order.
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        for bi in 0..self.block_row_ptr.len() - 1 {
            let blocks = &self.block_col[self.block_row_ptr[bi]..self.block_row_ptr[bi + 1]];
            for _ in (bi * self.br)..((bi + 1) * self.br).min(self.rows) {
                for &bj in blocks {
                    let c0 = bj as usize * self.bc;
                    col_idx.extend((c0..(c0 + self.bc).min(self.cols)).map(|c| c as u32));
                }
                row_ptr.push(col_idx.len());
            }
        }
        let ones = vec![1.0; col_idx.len()];
        Csr::from_parts(self.rows, self.cols, row_ptr, col_idx, ones)
            // lint:allow(R1) whole in-bounds block cells in ascending columns form a valid Csr
            .expect("BCSR footprint is a valid Csr")
    }
}

// ---------------------------------------------------------------------------
// SELL-C-σ
// ---------------------------------------------------------------------------

/// Default slice height C (lanes per slice).
pub const SELL_CHUNK: usize = 8;
/// Default sorting window σ (rows sorted by length within each window).
pub const SELL_SIGMA: usize = 64;

/// SELL-C-σ (Kreutzer et al.): rows are sorted by descending length
/// inside windows of σ, packed into slices of C lanes, and each slice
/// stores its values column-major padded to the slice's longest row. The
/// row permutation is kept so outputs land back in original order.
#[derive(Debug, Clone, PartialEq)]
pub struct SellFormat {
    rows: usize,
    cols: usize,
    chunk: usize,
    sigma: usize,
    nnz: usize,
    /// `perm[k]` = original row stored at sorted lane position `k`.
    perm: Vec<u32>,
    /// Stored length of the row at lane position `k`.
    row_len: Vec<usize>,
    /// Slot offset of each slice (`len = slices + 1`).
    slice_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl SellFormat {
    /// Packs a CSR with the default C=[`SELL_CHUNK`], σ=[`SELL_SIGMA`].
    pub fn from_csr(a: &Csr) -> Self {
        SellFormat::with_shape(a, SELL_CHUNK, SELL_SIGMA)
    }

    /// Packs a CSR with explicit C and σ (both clamped to ≥ 1).
    pub fn with_shape(a: &Csr, chunk: usize, sigma: usize) -> Self {
        let chunk = chunk.max(1);
        let sigma = sigma.max(1);
        let rows = a.rows();
        // Sort rows by descending length within σ-windows; the stable sort
        // keeps equal-length rows in original order (deterministic).
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| std::cmp::Reverse(a.row_nnz(r as usize)));
        }
        let row_len: Vec<usize> = perm.iter().map(|&r| a.row_nnz(r as usize)).collect();
        let slices = rows.div_ceil(chunk);
        let mut slice_ptr = vec![0usize; slices + 1];
        for s in 0..slices {
            let lanes = s * chunk..((s + 1) * chunk).min(rows);
            let width = lanes.clone().map(|k| row_len[k]).max().unwrap_or(0);
            slice_ptr[s + 1] = slice_ptr[s] + width * chunk;
        }
        let total = slice_ptr[slices];
        let mut col_idx = vec![0u32; total];
        let mut vals = vec![0.0f64; total];
        for (s, &slice_base) in slice_ptr.iter().enumerate().take(slices) {
            for lane in 0..chunk {
                let k = s * chunk + lane;
                if k >= rows {
                    continue;
                }
                let r = perm[k] as usize;
                for (j, (c, v)) in a.row(r).enumerate() {
                    let slot = slice_base + j * chunk + lane;
                    col_idx[slot] = c;
                    vals[slot] = v;
                }
            }
        }
        SellFormat {
            rows,
            cols: a.cols(),
            chunk,
            sigma,
            nnz: a.nnz(),
            perm,
            row_len,
            slice_ptr,
            col_idx,
            vals,
        }
    }

    /// The slice height C.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The sorting window σ.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of slices.
    pub fn slices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Iterates the stored entries of lane position `k` in CSR order.
    fn lane_entries(&self, k: usize, mut f: impl FnMut(u32, f64)) {
        let s = k / self.chunk;
        let lane = k % self.chunk;
        for j in 0..self.row_len[k] {
            let slot = self.slice_ptr[s] + j * self.chunk + lane;
            f(self.col_idx[slot], self.vals[slot]);
        }
    }
}

impl SparseFormat for SellFormat {
    fn kind(&self) -> FormatKind {
        FormatKind::Sell
    }
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn to_csr(&self) -> Csr {
        // Scatter lanes back through the permutation, preserving each
        // row's entry order.
        let mut per_row: Vec<(Vec<u32>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); self.rows];
        for k in 0..self.rows {
            let r = self.perm[k] as usize;
            let (cols, vals) = &mut per_row[r];
            self.lane_entries(k, |c, v| {
                cols.push(c);
                vals.push(v);
            });
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for (i, (c, v)) in per_row.into_iter().enumerate() {
            col_idx.extend(c);
            vals.extend(v);
            row_ptr[i + 1] = col_idx.len();
        }
        Csr::from_parts(self.rows, self.cols, row_ptr, col_idx, vals)
            // lint:allow(R1) lanes were packed from a valid Csr, so the unpack cannot fail
            .expect("SELL unpack yields a valid Csr")
    }
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        // Each lane accumulates its row in stored (= CSR) order and writes
        // through the permutation; padding slots are never read.
        let mut y = vec![0.0; self.rows];
        for k in 0..self.rows {
            let mut acc = 0.0;
            self.lane_entries(k, |c, v| acc += v * x[c as usize]);
            y[self.perm[k] as usize] = acc;
        }
        y
    }
    fn bytes(&self) -> usize {
        // 12 B per stored slot (padding included) + slice offsets + the
        // permutation and per-lane lengths.
        12 * self.stored_slots() + 4 * self.slice_ptr.len() + 8 * self.rows
    }
    fn stored_slots(&self) -> usize {
        *self.slice_ptr.last().unwrap_or(&0)
    }
    fn stream_rows(&self) -> Vec<u32> {
        // Column-major within each slice: consecutive slots belong to C
        // *different* output rows, which is the interleaving that dodges
        // read-after-write accumulator stalls in a streaming engine.
        let mut out = Vec::with_capacity(self.stored_slots());
        for s in 0..self.slices() {
            let width = (self.slice_ptr[s + 1] - self.slice_ptr[s]) / self.chunk;
            for j in 0..width {
                for lane in 0..self.chunk {
                    let k = s * self.chunk + lane;
                    if k < self.rows && j < self.row_len[k] {
                        out.push(self.perm[k]);
                    } else {
                        out.push(PAD);
                    }
                }
            }
        }
        out
    }
    fn storage_pattern(&self) -> Csr {
        // Padding slots read no input element, so the access footprint is
        // the matrix's own pattern.
        pattern_of(&self.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{banded, rmat, BandedConfig, RmatConfig};
    use crate::suite;
    use crate::Coo;

    fn sample() -> Csr {
        banded(&BandedConfig { n: 97, mean_row_nnz: 7.0, seed: 3, ..Default::default() })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in FormatKind::ALL {
            assert_eq!(FormatKind::parse(k.label()), Some(k), "{k}");
        }
        assert_eq!(FormatKind::parse("ellpack"), None);
    }

    #[test]
    fn every_format_round_trips_the_sample() {
        let a = sample();
        for k in FormatKind::ALL {
            let f = k.build(&a);
            assert_eq!(f.kind(), k);
            assert_eq!((f.rows(), f.cols(), f.nnz()), (a.rows(), a.cols(), a.nnz()), "{k}");
            assert_eq!(f.to_csr(), a, "{k} must round-trip losslessly");
        }
    }

    #[test]
    fn every_format_spmv_is_bitwise_csr() {
        let a = sample();
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let want = bits(&a.spmv(&x));
        for k in FormatKind::ALL {
            assert_eq!(bits(&k.build(&a).spmv(&x)), want, "{k}");
        }
    }

    #[test]
    fn conversions_between_all_pairs_are_lossless() {
        let a = rmat(&RmatConfig { n: 120, edges: 700, seed: 9, ..Default::default() });
        for from in FormatKind::ALL {
            let f = from.build(&a);
            for to in FormatKind::ALL {
                assert_eq!(convert(f.as_ref(), to).to_csr(), a, "{from} -> {to}");
            }
        }
    }

    #[test]
    fn bcsr_mask_preserves_explicit_zeros() {
        // A stored 0.0 must survive the round trip (it is not padding).
        let mut coo = Coo::new(6, 6);
        coo.push(0, 0, 0.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(5, 5, -0.0).unwrap();
        let a = coo.to_csr();
        let b = BcsrFormat::from_csr(&a);
        assert_eq!(b.to_csr(), a);
        assert_eq!(b.to_csr().vals()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(b.to_csr().vals()[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn sell_sorts_within_sigma_windows_only() {
        let e = suite::entry_by_id(13).unwrap(); // power-law: wide length spread
        let a = e.generate(512);
        let s = SellFormat::with_shape(&a, 4, 16);
        // Within each window, lengths are non-increasing.
        for w in 0..a.rows().div_ceil(16) {
            let lo = w * 16;
            let hi = ((w + 1) * 16).min(a.rows());
            for k in lo..hi - 1 {
                assert!(s.row_len[k] >= s.row_len[k + 1], "window {w} not sorted at {k}");
            }
            // And every lane in the window is a row from the same window.
            for k in lo..hi {
                let r = s.perm[k] as usize;
                assert!((lo..hi).contains(&r), "perm leaked across the sigma window");
            }
        }
        assert_eq!(s.to_csr(), a);
    }

    #[test]
    fn sell_stream_interleaves_rows() {
        let a = sample();
        let s = SellFormat::from_csr(&a);
        let stream = s.stream_rows();
        assert_eq!(stream.len(), s.stored_slots());
        // Consecutive non-padding slots inside a slice never repeat a row
        // within a C-window: same-row slots are exactly `chunk` apart.
        for (i, &r) in stream.iter().enumerate() {
            if r == PAD {
                continue;
            }
            for d in 1..s.chunk().min(stream.len() - i) {
                assert_ne!(stream[i + d], r, "row {r} repeats within a C-window at slot {i}");
            }
        }
    }

    #[test]
    fn storage_models_are_ordered_sanely() {
        let a = sample();
        let csr = FormatKind::Csr.build(&a);
        let coo = FormatKind::Coo.build(&a);
        assert!(coo.bytes() > csr.bytes(), "COO stores a row index per entry");
        for k in FormatKind::ALL {
            let f = k.build(&a);
            assert!(f.bytes() > 0);
            assert!(f.bytes_per_nnz() >= 8.0, "{k}: a value alone is 8 B");
            assert!(f.stored_slots() >= f.nnz(), "{k}");
            assert_eq!(f.stream_rows().len(), f.stored_slots(), "{k}");
        }
    }

    #[test]
    fn storage_pattern_covers_the_matrix_pattern() {
        let a = sample();
        for k in FormatKind::ALL {
            let p = k.build(&a).storage_pattern();
            assert_eq!((p.rows(), p.cols()), (a.rows(), a.cols()), "{k}");
            assert!(p.nnz() >= a.nnz(), "{k} pattern must cover every stored entry");
            // BCSR inflates the footprint with block padding; the others
            // match the matrix pattern exactly.
            if k != FormatKind::Bcsr {
                assert_eq!(p.nnz(), a.nnz(), "{k}");
            }
        }
        let b = FormatKind::Bcsr.build(&a).storage_pattern();
        assert!(b.nnz() > a.nnz(), "block padding must widen the BCSR footprint");
    }

    #[test]
    fn empty_and_single_row_matrices_work() {
        let empty = Coo::new(3, 5).to_csr();
        let single = {
            let mut c = Coo::new(1, 4);
            c.push(0, 2, 1.5).unwrap();
            c.to_csr()
        };
        for a in [empty, single] {
            let x = vec![1.0; a.cols()];
            let want = bits(&a.spmv(&x));
            for k in FormatKind::ALL {
                let f = k.build(&a);
                assert_eq!(f.to_csr(), a, "{k}");
                assert_eq!(bits(&f.spmv(&x)), want, "{k}");
            }
        }
    }
}
