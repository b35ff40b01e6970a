//! Simulation report: everything the evaluation section consumes.

use spacea_model::ActivitySummary;

/// The result of simulating one SpMV on a SpaceA machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Execution time in cycles (1 GHz clock).
    pub cycles: u64,
    /// Aggregated component activity (input to the energy model). Its
    /// `tsv_bytes` and `noc_byte_hops` are Figure 6(d)'s TSV and NoC
    /// traffic, and `l2_cam.hit_rate()` is the L2 CAM hit rate over all
    /// vault controllers (Figure 6(c)).
    pub activity: ActivitySummary,
    /// L1 CAM hit rate over all product bank groups (Figure 6(b)).
    pub l1_hit_rate: f64,
    /// Per-PE processed non-zero counts.
    pub pe_work: Vec<u64>,
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
    /// Execution time in seconds (1 GHz clock).
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 * 1e-9
    }

    /// The paper's normalized workload: mean PE work / max PE work
    /// (Figure 6(a)).
    pub fn normalized_workload(&self) -> f64 {
        normalized_workload_of(&self.pe_work)
    }
}

/// Mean over max of a work vector; 1 when no PE did any work.
fn normalized_workload_of(work: &[u64]) -> f64 {
    let max = work.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    let mean = work.iter().sum::<u64>() as f64 / work.len() as f64;
    mean / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_workload_balanced() {
        assert!((normalized_workload_of(&[5, 5, 5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_workload_skewed() {
        // mean 4, max 8 → 0.5
        assert!((normalized_workload_of(&[8, 4, 0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_workload_empty() {
        assert_eq!(normalized_workload_of(&[]), 1.0);
        assert_eq!(normalized_workload_of(&[0, 0]), 1.0);
    }
}
