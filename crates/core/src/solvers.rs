//! Iterative linear solvers on SpaceA.
//!
//! The paper's motivating applications in scientific computing "can be
//! formulated as iterations of matrix-vector multiplication where the matrix
//! is sparse and is reused across multiple runs" (Section I). This module
//! provides the classic examples — Jacobi and power iteration — driving
//! every iteration through the simulated accelerator, with the mapping
//! computed once and amortized.

use crate::accelerator::Accelerator;
use spacea_arch::SimError;
use spacea_matrix::{Coo, Csr, MatrixError};
use std::error::Error;
use std::fmt;

/// Errors from an accelerated solver.
#[derive(Debug)]
#[non_exhaustive]
pub enum SolverError {
    /// The system matrix is unsuitable (non-square, zero diagonal…).
    BadSystem(String),
    /// Dimension mismatch between the matrix and a vector.
    Dimensions(MatrixError),
    /// A device simulation failed.
    Sim(SimError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::BadSystem(msg) => write!(f, "unsuitable system: {msg}"),
            SolverError::Dimensions(e) => write!(f, "dimension mismatch: {e}"),
            SolverError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for SolverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolverError::BadSystem(_) => None,
            SolverError::Dimensions(e) => Some(e),
            SolverError::Sim(e) => Some(e),
        }
    }
}

impl From<SimError> for SolverError {
    fn from(e: SimError) -> Self {
        SolverError::Sim(e)
    }
}

/// Result of an accelerated iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The solution (or dominant eigenvector for power iteration).
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Total simulated device time over all iterations, seconds.
    pub device_seconds: f64,
    /// Total simulated device energy over all iterations, joules.
    pub device_energy_j: f64,
}

/// Solves `A x = b` by Jacobi iteration on the accelerator.
///
/// Splits `A = D + R` and iterates `x' = D⁻¹ (b − R x)`; the `R x` product
/// is the SpMV each iteration offloads. Converges for strictly diagonally
/// dominant systems.
///
/// # Errors
///
/// Returns [`SolverError::BadSystem`] for non-square matrices or zero
/// diagonal entries, and propagates device simulation errors.
pub fn jacobi(
    accel: &Accelerator,
    a: &Csr,
    b: &[f64],
    tolerance: f64,
    max_iterations: usize,
) -> Result<SolveResult, SolverError> {
    #![allow(clippy::needless_range_loop)] // indexed kernels read clearer
    if a.rows() != a.cols() {
        return Err(SolverError::BadSystem("matrix must be square".into()));
    }
    if b.len() != a.rows() {
        return Err(SolverError::BadSystem(format!(
            "rhs has length {} but the system has {} rows",
            b.len(),
            a.rows()
        )));
    }
    let n = a.rows();

    // Split out the diagonal; R keeps the off-diagonal entries.
    let mut diag = vec![0.0f64; n];
    let mut off = Coo::new(n, n);
    off.reserve(a.nnz());
    for i in 0..n {
        for (j, v) in a.row(i) {
            if j as usize == i {
                diag[i] += v;
            } else {
                // lint:allow(R1) indices come from a validated Csr
                off.push(i, j as usize, v).expect("entry in bounds");
            }
        }
    }
    if let Some(i) = diag.iter().position(|d| d.abs() < 1e-300) {
        return Err(SolverError::BadSystem(format!("zero diagonal at row {i}")));
    }
    let r = off.to_csr();
    let mapping = accel.map(&r);

    let mut x = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut device_seconds = 0.0;
    let mut device_energy = 0.0;
    while iterations < max_iterations {
        iterations += 1;
        let run = accel.spmv_mapped(&r, &x, &mapping)?;
        device_seconds += run.report.seconds();
        device_energy += run.energy.total_j();
        let mut delta = 0.0f64;
        for i in 0..n {
            let next = (b[i] - run.report.output[i]) / diag[i];
            delta = delta.max((next - x[i]).abs());
            x[i] = next;
        }
        if delta < tolerance {
            converged = true;
            break;
        }
    }
    Ok(SolveResult { x, iterations, converged, device_seconds, device_energy_j: device_energy })
}

/// Power iteration: the dominant eigenvector of `A`, normalized to unit
/// 2-norm, every multiply running on the accelerator.
///
/// # Errors
///
/// Returns [`SolverError::BadSystem`] for non-square or empty matrices, and
/// propagates device simulation errors.
pub fn power_iteration(
    accel: &Accelerator,
    a: &Csr,
    tolerance: f64,
    max_iterations: usize,
) -> Result<SolveResult, SolverError> {
    if a.rows() != a.cols() {
        return Err(SolverError::BadSystem("matrix must be square".into()));
    }
    if a.rows() == 0 {
        return Err(SolverError::BadSystem("matrix is empty".into()));
    }
    let n = a.rows();
    let mapping = accel.map(a);

    let mut x = vec![1.0 / (n as f64).sqrt(); n];
    let mut iterations = 0;
    let mut converged = false;
    let mut device_seconds = 0.0;
    let mut device_energy = 0.0;
    while iterations < max_iterations {
        iterations += 1;
        let run = accel.spmv_mapped(a, &x, &mapping)?;
        device_seconds += run.report.seconds();
        device_energy += run.energy.total_j();
        let y = run.report.output;
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return Err(SolverError::BadSystem("matrix annihilated the iterate".into()));
        }
        let next: Vec<f64> = y.iter().map(|v| v / norm).collect();
        let delta: f64 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        x = next;
        if delta < tolerance {
            converged = true;
            break;
        }
    }
    Ok(SolveResult { x, iterations, converged, device_seconds, device_energy_j: device_energy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_arch::HwConfig;
    use spacea_matrix::Coo;

    fn accel() -> Accelerator {
        Accelerator::builder().hw_config(HwConfig::tiny()).build().unwrap()
    }

    /// A strictly diagonally dominant tridiagonal system.
    fn tridiag(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn jacobi_solves_dominant_system() {
        let a = tridiag(64);
        let x_true: Vec<f64> = (0..64).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = a.spmv(&x_true);
        let r = jacobi(&accel(), &a, &b, 1e-10, 200).unwrap();
        assert!(r.converged, "jacobi must converge on a dominant system");
        for (got, want) in r.x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
        assert!(r.device_seconds > 0.0);
        assert!(r.device_energy_j > 0.0);
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let err = jacobi(&accel(), &coo.to_csr(), &[1.0, 1.0], 1e-9, 10).unwrap_err();
        assert!(matches!(err, SolverError::BadSystem(_)));
    }

    #[test]
    fn jacobi_rejects_bad_rhs() {
        let a = tridiag(8);
        assert!(jacobi(&accel(), &a, &[1.0; 3], 1e-9, 10).is_err());
    }

    #[test]
    fn power_iteration_finds_dominant_eigenvector() {
        // Diagonal matrix: dominant eigenvector is e_0.
        let mut coo = Coo::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, if i == 0 { 10.0 } else { 1.0 }).unwrap();
        }
        let r = power_iteration(&accel(), &coo.to_csr(), 1e-10, 300).unwrap();
        assert!(r.converged);
        assert!(r.x[0].abs() > 0.999, "e0 component {}", r.x[0]);
    }

    #[test]
    fn iteration_cap_respected() {
        let a = tridiag(32);
        let b = vec![1.0; 32];
        let r = jacobi(&accel(), &a, &b, 0.0, 3).unwrap();
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }
}
