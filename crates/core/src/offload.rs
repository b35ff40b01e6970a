//! The offload execution model (paper Section VII, "System and programming
//! interface").
//!
//! SpaceA is a standalone accelerator on the PCIe bus: a host program
//! allocates device memory, copies the sparse matrix and input vector in,
//! invokes SpMV, and copies the output vector back. The sparse matrix is
//! pre-processed on the CPU (the mapping) before transfer. This module
//! models that pipeline and quantifies the paper's amortization argument:
//! the one-time preprocessing + transfer cost is recovered over the many
//! iterations these applications run ("the overhead of offline preprocessing
//! is well-amortized").

use crate::accelerator::{AccelRun, Accelerator};
use spacea_arch::SimError;
use spacea_matrix::Csr;

/// A PCIe interconnect model for host ↔ accelerator transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Sustained transfer bandwidth in bytes/s (PCIe 3.0 x16 ≈ 12.8 GB/s
    /// effective).
    pub bandwidth: f64,
    /// Per-transfer latency in seconds (driver + DMA setup).
    pub latency_s: f64,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel { bandwidth: 12.8e9, latency_s: 10e-6 }
    }
}

impl PcieModel {
    /// Time to move `bytes` across the bus.
    pub fn transfer_s(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth
    }
}

/// The cost breakdown of one offloaded SpMV workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadReport {
    /// Host preprocessing (mapping) wall time, seconds.
    pub preprocess_s: f64,
    /// Matrix + input vector transfer time, seconds.
    pub transfer_in_s: f64,
    /// Simulated device time for ONE SpMV iteration, seconds.
    pub iteration_s: f64,
    /// Output vector transfer time, seconds.
    pub transfer_out_s: f64,
    /// The device run of the measured iteration.
    pub run: AccelRun,
}

impl OffloadReport {
    /// One-time setup cost (preprocessing + input transfer).
    pub fn setup_s(&self) -> f64 {
        self.preprocess_s + self.transfer_in_s
    }

    /// Iterations needed before the setup overhead drops below `fraction` of
    /// total time. Returns `None` if a single iteration already satisfies it.
    pub fn amortization_iterations(&self, fraction: f64) -> Option<usize> {
        assert!(fraction > 0.0 && fraction < 1.0, "fraction must be in (0, 1)");
        // setup <= fraction * (setup + iters * iter_s)  =>
        // iters >= setup * (1 - fraction) / (fraction * iter_s)
        let need = self.setup_s() * (1.0 - fraction) / (fraction * self.iteration_s);
        if need <= 1.0 {
            None
        } else {
            Some(need.ceil() as usize)
        }
    }
}

/// Runs the full offload pipeline: host preprocessing (measured), transfers
/// (modelled), and one simulated device iteration.
///
/// # Errors
///
/// Propagates simulation errors from the device run.
pub fn offload_spmv(
    accel: &Accelerator,
    pcie: &PcieModel,
    a: &Csr,
    x: &[f64],
) -> Result<OffloadReport, SimError> {
    // lint:allow(D2) measures real host preprocessing time; sim cycles are unaffected
    let t0 = std::time::Instant::now();
    let mapping = accel.map(a);
    let preprocess_s = t0.elapsed().as_secs_f64();
    let run = accel.spmv_mapped(a, x, &mapping)?;
    // The device image of the matrix: packed DRAM rows (4 B header + 12 B
    // per non-zero, padded to row granularity) — slightly larger than CSR.
    let matrix_bytes = a.csr_bytes() + a.rows() * 4;
    let vec_bytes = a.cols() * 8;
    Ok(OffloadReport {
        preprocess_s,
        transfer_in_s: pcie.transfer_s(matrix_bytes + vec_bytes),
        iteration_s: run.report.seconds(),
        transfer_out_s: pcie.transfer_s(a.rows() * 8),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_arch::HwConfig;
    use spacea_matrix::gen::{banded, BandedConfig};

    fn setup() -> (Accelerator, Csr, Vec<f64>) {
        let a = banded(&BandedConfig { n: 256, ..Default::default() });
        let x = vec![1.0; a.cols()];
        let accel = Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap();
        (accel, a, x)
    }

    #[test]
    fn pipeline_produces_positive_costs() {
        let (accel, a, x) = setup();
        let r = offload_spmv(&accel, &PcieModel::default(), &a, &x).unwrap();
        assert!(r.preprocess_s >= 0.0);
        assert!(r.transfer_in_s > 0.0);
        assert!(r.iteration_s > 0.0);
        assert!(r.transfer_out_s > 0.0);
    }

    #[test]
    fn amortization_threshold_monotone() {
        let (accel, a, x) = setup();
        let r = offload_spmv(&accel, &PcieModel::default(), &a, &x).unwrap();
        // Setup dominates one simulated iteration by orders of magnitude,
        // so amortizing to 10% takes more iterations than to 50%.
        let strict = r.amortization_iterations(0.1).unwrap_or(1);
        let loose = r.amortization_iterations(0.5).unwrap_or(1);
        assert!(strict >= loose);
    }

    #[test]
    fn pcie_transfer_time_model() {
        let p = PcieModel { bandwidth: 1e9, latency_s: 1e-6 };
        assert!((p.transfer_s(1_000_000) - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn bad_fraction_panics() {
        let (accel, a, x) = setup();
        let r = offload_spmv(&accel, &PcieModel::default(), &a, &x).unwrap();
        r.amortization_iterations(1.5);
    }
}
