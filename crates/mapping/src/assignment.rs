/// Phase I output: the rows of the matrix each logical PE processes.
///
/// Invariant: every matrix row appears in exactly one PE's list (validated by
/// [`RowAssignment::validate`] and by property tests).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowAssignment {
    rows_of: Vec<Vec<u32>>,
    total_rows: usize,
}

impl RowAssignment {
    /// Builds an assignment from per-PE row lists.
    ///
    /// `total_rows` is the row count of the matrix being mapped, used by
    /// [`RowAssignment::validate`].
    pub fn new(rows_of: Vec<Vec<u32>>, total_rows: usize) -> Self {
        RowAssignment { rows_of, total_rows }
    }

    /// Number of logical PEs.
    pub fn num_pes(&self) -> usize {
        self.rows_of.len()
    }

    /// Rows assigned to logical PE `pid`, in assignment order.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.num_pes()`.
    pub fn rows_of(&self, pid: usize) -> &[u32] {
        &self.rows_of[pid]
    }

    /// Row count of the matrix this assignment partitions.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Checks the partition invariant: every row in `0..total_rows` assigned
    /// to exactly one PE. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.total_rows];
        for (pid, rows) in self.rows_of.iter().enumerate() {
            for &r in rows {
                let r = r as usize;
                if r >= self.total_rows {
                    return Err(format!("PE {pid} holds out-of-range row {r}"));
                }
                if seen[r] {
                    return Err(format!("row {r} assigned to more than one PE"));
                }
                seen[r] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("row {missing} not assigned to any PE"));
        }
        Ok(())
    }

    /// Per-PE workload (non-zeros) given the matrix row lengths.
    pub fn workloads(&self, row_nnz: impl Fn(usize) -> usize) -> Vec<usize> {
        self.rows_of.iter().map(|rows| rows.iter().map(|&r| row_nnz(r as usize)).sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_partition() {
        let a = RowAssignment::new(vec![vec![0, 2], vec![1]], 3);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate() {
        let a = RowAssignment::new(vec![vec![0, 1], vec![1]], 2);
        assert!(a.validate().unwrap_err().contains("more than one"));
    }

    #[test]
    fn validate_rejects_missing() {
        let a = RowAssignment::new(vec![vec![0], vec![]], 2);
        assert!(a.validate().unwrap_err().contains("not assigned"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let a = RowAssignment::new(vec![vec![5]], 2);
        assert!(a.validate().unwrap_err().contains("out-of-range"));
    }

    #[test]
    fn workloads_sum_row_lengths() {
        let a = RowAssignment::new(vec![vec![0, 1], vec![2]], 3);
        let w = a.workloads(|r| r + 1); // rows have 1, 2, 3 nnz
        assert_eq!(w, vec![3, 3]);
    }
}
