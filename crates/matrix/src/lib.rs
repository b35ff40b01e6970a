//! Sparse-matrix substrate for the SpaceA reproduction.
//!
//! This crate provides the storage formats the paper builds on (Section II-A):
//! [Coordinate list](Coo) (COO) and [Compressed Sparse Row](Csr) (CSR),
//! together with
//!
//! * a reference (software) SpMV used to validate every simulator run,
//! * [Matrix Market](mmio) I/O for interoperability with SuiteSparse dumps,
//! * deterministic synthetic [generators](gen) that reproduce the row-length
//!   and column-locality *shape* of the paper's Table I matrices, and
//! * the [evaluation suite](suite) itself: all fifteen Table I entries with
//!   their published statistics and scaled synthetic stand-ins.
//!
//! # Example
//!
//! ```
//! use spacea_matrix::{Coo, Csr};
//!
//! # fn main() -> Result<(), spacea_matrix::MatrixError> {
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 0, 2.0)?;
//! coo.push(1, 2, -1.0)?;
//! coo.push(2, 1, 0.5)?;
//! let csr = Csr::from_coo(&coo);
//! let y = csr.spmv(&[1.0, 2.0, 3.0]);
//! assert_eq!(y, vec![2.0, -3.0, 1.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod coo;
mod csr;
mod error;
pub mod formats;
pub mod gen;
pub mod mmio;
pub mod reduce;
pub mod reorder;
pub mod stats;
pub mod suite;

pub use coo::Coo;
pub use csr::Csr;
pub use error::MatrixError;
pub use formats::{FormatKind, SparseFormat};
pub use reorder::Permutation;
pub use stats::MatrixStats;
