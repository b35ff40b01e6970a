use crate::{Coo, MatrixError, MatrixStats};

/// A sparse matrix in Compressed Sparse Row (CSR) format (paper Section II-A,
/// Figure 1).
///
/// CSR stores three arrays: `row_ptr` (length `rows + 1`), `col_idx` and
/// `vals` (both length `nnz`). Row `i`'s non-zeros occupy the half-open range
/// `row_ptr[i]..row_ptr[i + 1]` of `col_idx`/`vals`. SpaceA consumes CSR
/// directly: its mapping algorithm partitions CSR rows across processing
/// elements and its DRAM layout packs `(col_idx, value)` pairs per DRAM row.
///
/// # Example
///
/// ```
/// use spacea_matrix::Csr;
///
/// # fn main() -> Result<(), spacea_matrix::MatrixError> {
/// // [ 1 0 2 ]
/// // [ 0 3 0 ]
/// let csr = Csr::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(csr.spmv(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays, validating their consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::MalformedCsr`] when the arrays are inconsistent:
    /// wrong `row_ptr` length, non-monotone `row_ptr`, mismatched
    /// `col_idx`/`vals` lengths, or a column index out of range.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self, MatrixError> {
        if row_ptr.len() != rows + 1 {
            return Err(MatrixError::MalformedCsr(format!(
                "row_ptr has length {} but expected {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != vals.len() {
            return Err(MatrixError::MalformedCsr(format!(
                "col_idx length {} != vals length {}",
                col_idx.len(),
                vals.len()
            )));
        }
        if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&col_idx.len()) {
            return Err(MatrixError::MalformedCsr(
                "row_ptr must start at 0 and end at nnz".to_string(),
            ));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(MatrixError::MalformedCsr("row_ptr must be non-decreasing".to_string()));
        }
        if let Some(&bad) = col_idx.iter().find(|&&c| c as usize >= cols) {
            return Err(MatrixError::MalformedCsr(format!(
                "column index {bad} out of range for {cols} columns"
            )));
        }
        Ok(Csr { rows, cols, row_ptr, col_idx, vals })
    }

    /// Parses a MatrixMarket (`.mtx`) document.
    ///
    /// Convenience wrapper over [`crate::mmio::read_str`]: accepts the
    /// `coordinate real/integer/pattern general/symmetric` subset, expands
    /// symmetric storage, and returns the canonical CSR every
    /// [`SparseFormat`](crate::formats::SparseFormat) builds from.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Parse`] for headers or entries outside the
    /// supported subset.
    pub fn from_mtx(text: &str) -> Result<Self, MatrixError> {
        crate::mmio::read_str(text)
    }

    /// Converts from COO, sorting by `(row, col)` and summing duplicates.
    pub fn from_coo(coo: &Coo) -> Self {
        let mut entries: Vec<(u32, u32, f64)> = coo.entries().to_vec();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; coo.rows() + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());

        let mut prev: Option<(u32, u32)> = None;
        for &(r, c, v) in &entries {
            if prev == Some((r, c)) {
                // Duplicate coordinate: sum values (Matrix Market
                // convention). A previous entry exists whenever `prev` is
                // set, so the fold never misses.
                if let Some(last) = vals.last_mut() {
                    *last += v;
                    continue;
                }
            }
            prev = Some((r, c));
            col_idx.push(c);
            vals.push(v);
            row_ptr[r as usize + 1] += 1;
        }
        // Prefix-sum the per-row counts into offsets.
        for i in 0..coo.rows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr { rows: coo.rows(), cols: coo.cols(), row_ptr, col_idx, vals }
    }

    /// Number of rows (the paper's `m`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the paper's `n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero elements (`nnz`).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Returns `true` if the matrix stores no non-zeros.
    pub fn is_empty(&self) -> bool {
        self.col_idx.is_empty()
    }

    /// The `row_ptr` array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The `col_idx` array (`nnz` entries).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The `vals` array (`nnz` entries).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Number of non-zeros in row `i` (the paper's `N_i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// The `(col_idx, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()].iter().copied().zip(self.vals[range].iter().copied())
    }

    /// The column indices of row `i` (the paper's set `C_i`, possibly with
    /// duplicates if the matrix was built with them).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Reference SpMV: computes `y = A x`.
    ///
    /// This is the software oracle used to validate every simulated run
    /// (Section V-A: "the correctness of the event triggering mechanism is
    /// validated by the values of the output vector").
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[allow(clippy::needless_range_loop)] // indexed kernels read clearer
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "input vector length must equal matrix columns");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for (c, v) in self.row(i) {
                acc += v * x[c as usize];
            }
            y[i] = acc;
        }
        y
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// Graph algorithms formulated as SpMV (Section V-F) multiply by the
    /// transpose of the adjacency matrix to gather over in-edges.
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let dst = cursor[c as usize];
                col_idx[dst] = r as u32;
                vals[dst] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, row_ptr, col_idx, vals }
    }

    /// Converts back to COO (entries emitted in row-major order).
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        coo.reserve(self.nnz());
        for i in 0..self.rows {
            for (c, v) in self.row(i) {
                // lint:allow(R1) CSR invariants keep entries in bounds
                coo.push(i, c as usize, v).expect("CSR entries are in bounds");
            }
        }
        coo
    }

    /// Computes the Table I statistics (`nnz`, mean row length μ, standard
    /// deviation σ) for this matrix.
    pub fn stats(&self) -> MatrixStats {
        MatrixStats::from_csr(self)
    }

    /// Bytes occupied by the CSR arrays (row_ptr as 4-byte offsets, 4-byte
    /// column indices, 8-byte values) — the traffic a streaming csrmv reads.
    pub fn csr_bytes(&self) -> usize {
        4 * (self.rows + 1) + 4 * self.nnz() + 8 * self.nnz()
    }

    /// Sparse matrix × dense multi-vector: `Y = A X` for `k` right-hand
    /// sides stored column-wise (`x_block[j]` is the j-th input vector).
    ///
    /// Iterative methods with multiple right-hand sides amortize the matrix
    /// stream across vectors; on SpaceA the same property amortizes the
    /// mapping and the DRAM row traffic.
    ///
    /// # Panics
    ///
    /// Panics if any input vector's length differs from `self.cols()`.
    pub fn spmm(&self, x_block: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x_block.iter().map(|x| self.spmv(x)).collect()
    }

    /// Builds a CSR matrix from a dense row-major table, skipping zeros.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_dense(dense: &[Vec<f64>]) -> Csr {
        let rows = dense.len();
        let cols = dense.first().map_or(0, Vec::len);
        let mut coo = Coo::new(rows, cols);
        for (i, row) in dense.iter().enumerate() {
            assert_eq!(row.len(), cols, "dense rows must all have the same length");
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    // lint:allow(R1) dense loop indices are in bounds
                    coo.push(i, j, v).expect("dense coordinate in bounds");
                }
            }
        }
        coo.to_csr()
    }

    /// Expands to a dense row-major table (intended for small matrices in
    /// tests and examples; allocates `rows × cols` values).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.cols]; self.rows];
        for (i, dst) in out.iter_mut().enumerate() {
            for (j, v) in self.row(i) {
                dst[j as usize] += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn from_parts_validates_row_ptr_len() {
        let err = Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, MatrixError::MalformedCsr(_)));
    }

    #[test]
    fn from_parts_validates_monotonicity() {
        let err = Csr::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MatrixError::MalformedCsr(_)));
    }

    #[test]
    fn from_parts_validates_last_ptr() {
        let err = Csr::from_parts(1, 2, vec![0, 3], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MatrixError::MalformedCsr(_)));
    }

    #[test]
    fn from_parts_validates_col_range() {
        let err = Csr::from_parts(1, 2, vec![0, 1], vec![2], vec![1.0]).unwrap_err();
        assert!(matches!(err, MatrixError::MalformedCsr(_)));
    }

    #[test]
    fn spmv_matches_dense() {
        let csr = sample();
        assert_eq!(csr.spmv(&[1.0, 1.0, 1.0]), vec![3.0, 0.0, 7.0]);
        assert_eq!(csr.spmv(&[1.0, 0.0, 0.0]), vec![1.0, 0.0, 3.0]);
    }

    #[test]
    fn from_coo_sorts_rows() {
        let mut coo = Coo::new(2, 2);
        coo.push(1, 0, 4.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.row_ptr(), &[0, 2, 3]);
        assert_eq!(csr.col_idx(), &[0, 1, 0]);
        assert_eq!(csr.vals(), &[1.0, 2.0, 4.0]);
    }

    #[test]
    fn from_coo_merges_duplicates() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 1, 3.0).unwrap();
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.vals(), &[5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let csr = sample();
        let t = csr.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.spmv(&[1.0, 0.0, 1.0]), vec![4.0, 4.0, 2.0]);
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn coo_roundtrip() {
        let csr = sample();
        assert_eq!(Csr::from_coo(&csr.to_coo()), csr);
    }

    #[test]
    fn row_accessors() {
        let csr = sample();
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_cols(2), &[0, 1]);
        let row0: Vec<_> = csr.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn csr_bytes_counts_arrays() {
        let csr = sample();
        // 4 row_ptr entries * 4B + 4 nnz * (4 + 8)B
        assert_eq!(csr.csr_bytes(), 16 + 48);
    }

    #[test]
    fn spmm_matches_per_vector_spmv() {
        let csr = sample();
        let xs = vec![vec![1.0, 0.0, 2.0], vec![0.5, 0.5, 0.5]];
        let ys = csr.spmm(&xs);
        assert_eq!(ys.len(), 2);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(y, &csr.spmv(x));
        }
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 0.0], vec![0.0, 3.0, 0.0]];
        let csr = Csr::from_dense(&dense);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_dense_rejects_ragged() {
        Csr::from_dense(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert!(csr.is_empty());
        assert_eq!(csr.spmv(&[]), Vec::<f64>::new());
    }
}
