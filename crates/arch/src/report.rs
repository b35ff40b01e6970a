//! Simulation report: everything the evaluation section consumes.

use spacea_model::ActivitySummary;

/// The result of simulating one SpMV on a SpaceA machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Execution time in cycles (1 GHz clock).
    pub cycles: u64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Aggregated component activity (input to the energy model).
    pub activity: ActivitySummary,
    /// L1 CAM hit rate over all product bank groups (Figure 6(b)).
    pub l1_hit_rate: f64,
    /// L2 CAM hit rate over all vault controllers (Figure 6(c)).
    pub l2_hit_rate: f64,
    /// Bytes moved over TSVs (Figure 6(d)'s TSV traffic metric).
    pub tsv_bytes: u64,
    /// NoC traffic in bytes × hops (Figure 6(d)'s NoC traffic metric).
    pub noc_byte_hops: u64,
    /// Per-PE processed non-zero counts.
    pub pe_work: Vec<u64>,
    /// The paper's normalized workload: mean PE work / max PE work
    /// (Figure 6(a)).
    pub normalized_workload: f64,
    /// Mean fraction of cycles Product-PEs spent actively scanning (the
    /// complement is idle/stalled time — the paper's Figure 8 discussion
    /// notes "DRAM banks and PEs are idle in most of the cycles" for the
    /// poorly-behaved matrices).
    pub pe_busy_fraction: f64,
    /// Mean busy fraction of the matrix banks.
    pub matrix_bank_busy_fraction: f64,
    /// Mean busy fraction of the vector banks.
    pub vector_bank_busy_fraction: f64,
    /// The simulated output vector of a single-vector run, equal to
    /// `Csr::spmv` bit for bit (a run whose output differs is an error, not
    /// a report). Empty for fused runs, whose vectors are in
    /// [`crate::RunOutput::outputs`].
    ///
    /// May be empty on reports rehydrated from the harness disk cache (the
    /// vector is large and nothing downstream of validation reads it); see
    /// `spacea-harness`.
    pub output: Vec<f64>,
    /// Discrete events processed over the simulation (telemetry). A report
    /// is built only on a drained queue whose counters hold the engine's
    /// invariant (`scheduled − processed == pending`), so this is also the
    /// number of events scheduled.
    pub events_processed: u64,
}

impl SimReport {
    /// Computes the normalized workload from a work vector.
    pub fn normalized_workload_of(work: &[u64]) -> f64 {
        let max = work.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = work.iter().sum::<u64>() as f64 / work.len() as f64;
        mean / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_workload_balanced() {
        assert!((SimReport::normalized_workload_of(&[5, 5, 5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_workload_skewed() {
        // mean 4, max 8 → 0.5
        assert!((SimReport::normalized_workload_of(&[8, 4, 0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_workload_empty() {
        assert_eq!(SimReport::normalized_workload_of(&[]), 1.0);
        assert_eq!(SimReport::normalized_workload_of(&[0, 0]), 1.0);
    }
}
