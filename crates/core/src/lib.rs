//! High-level API and evaluation framework for the SpaceA reproduction.
//!
//! This crate ties the substrates together:
//!
//! * [`Accelerator`] — the one-stop public API: configure a machine, map a
//!   matrix, run SpMV, get timing + energy.
//! * [`experiments`] — one module per table/figure in the paper's evaluation
//!   (Section V), each producing the same rows/series the paper reports,
//!   and one per study behind a side claim.
//! * [`offload`] — the Section VII execution model: PCIe transfers, host
//!   preprocessing, and the preprocessing-amortization analysis.
//! * [`solvers`] — Jacobi and power iteration driven through the
//!   accelerator (the Section I scientific-computing motivation).
//! * [`table`] — plain-text table rendering shared by the harness binaries.
//!
//! # Example
//!
//! ```
//! use spacea_core::Accelerator;
//! use spacea_matrix::gen::{banded, BandedConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = banded(&BandedConfig { n: 256, ..Default::default() });
//! let x = vec![1.0; a.cols()];
//! let accel = Accelerator::builder().build()?;
//! let run = accel.spmv(&a, &x)?;
//! assert_eq!(run.report.output, a.spmv(&x)); // checked bit for bit by the run
//! assert!(run.energy.total_j() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod accelerator;
pub mod experiments;
pub mod offload;
pub mod solvers;
pub mod table;

pub use accelerator::{AccelRun, Accelerator, AcceleratorBuilder};
