//! The SpaceA mapping method (paper Section IV).
//!
//! The mapping pipeline distributes the rows of a sparse matrix across the
//! Product-PEs of the machine in two phases (Figure 4):
//!
//! 1. **Row assignment to logical PEs** ([`algorithm1`], the paper's
//!    Algorithm 1): greedily assigns each row to the PE with the highest
//!    score, preferring PEs whose already-assigned rows share column indices
//!    with the row (intra-PE locality) while penalizing PEs that would exceed
//!    the balanced budget `nnz / #PEs`.
//! 2. **Logical PE placement** ([`placement`], the Formula 1 heuristic):
//!    clusters logical PEs into bank groups, bank groups into vaults (and
//!    vaults into cubes for multi-cube machines), minimizing the maximum
//!    number of unique column indexes per group so that the shared L1/L2 CAMs
//!    see correlated requests.
//!
//! The naive baseline of Section V-B ([`naive`]) assigns rows to PEs at
//! random and places PEs in id order.
//!
//! # Example
//!
//! ```
//! use spacea_mapping::{MappingStrategy, LocalityMapping, MachineShape};
//! use spacea_matrix::gen::{banded, BandedConfig};
//!
//! let a = banded(&BandedConfig { n: 256, ..Default::default() });
//! let shape = MachineShape { cubes: 1, vaults_per_cube: 4, product_bgs_per_vault: 2, banks_per_bg: 2 };
//! let mapping = LocalityMapping::default().map(&a, &shape);
//! assert_eq!(mapping.assignment.num_pes(), shape.product_pes());
//! // Every row of the matrix is assigned to exactly one PE.
//! let assigned: usize = (0..shape.product_pes()).map(|p| mapping.assignment.rows_of(p).len()).sum();
//! assert_eq!(assigned, 256);
//! ```

#![warn(missing_docs)]

pub mod algorithm1;
mod assignment;
pub mod chunked;
pub mod metrics;
pub mod naive;
pub mod placement;
mod shape;

pub use algorithm1::LocalityMapping;
pub use assignment::RowAssignment;
pub use chunked::ChunkedMapping;
pub use naive::NaiveMapping;
pub use placement::Placement;
pub use shape::MachineShape;

use spacea_matrix::Csr;

/// A complete mapping: which rows each logical PE processes, and where each
/// logical PE sits in the machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Phase I output: rows per logical PE.
    pub assignment: RowAssignment,
    /// Phase II output: logical PE → physical slot.
    pub placement: Placement,
}

/// A strategy that produces a complete [`Mapping`] for a matrix on a machine
/// shape. Implemented by [`LocalityMapping`] (the paper's method),
/// [`NaiveMapping`] (the Section V-B baseline) and [`ChunkedMapping`].
///
/// **Contract: a strategy reads only the pattern.** `map` depends on the
/// matrix's dimensions, row pointers and column indices, never on its
/// values, so two matrices with one sparsity pattern map identically. The
/// harness's mapping store relies on this: it keys persisted mappings by
/// pattern, so a matrix and the unit-valued footprint of its CSR, COO or
/// SELL layout share one Phase I/II run.
pub trait MappingStrategy {
    /// Maps `matrix` onto a machine of the given shape, reading only its
    /// sparsity pattern.
    fn map(&self, matrix: &Csr, shape: &MachineShape) -> Mapping;

    /// A short human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Which of the paper's two mappings an experiment or harness job uses.
///
/// This is the evaluation-facing selector between [`NaiveMapping`] and
/// [`LocalityMapping`]; it lives here (rather than in the experiments crate)
/// so that job descriptions in `spacea-harness` can name a mapping without
/// depending on experiment code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Random row assignment (Section V-B baseline).
    Naive,
    /// The proposed two-phase mapping.
    Proposed,
}

impl MapKind {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            MapKind::Naive => "naive",
            MapKind::Proposed => "proposed",
        }
    }

    /// The strategy this kind selects.
    pub fn strategy(&self) -> &'static dyn MappingStrategy {
        const NAIVE: NaiveMapping = NaiveMapping::with_seed(naive::DEFAULT_SEED);
        const LOCALITY: LocalityMapping = LocalityMapping::paper_defaults();
        match self {
            MapKind::Naive => &NAIVE,
            MapKind::Proposed => &LOCALITY,
        }
    }
}
