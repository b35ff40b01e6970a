//! The SpaceA architecture model (paper Section III), built on the
//! event-driven substrate of `spacea-sim`.
//!
//! A [`Machine`] is a set of 3D-stacked memory cubes connected in a memory
//! network. Every memory bank has a processing element: banks on the matrix
//! layers run **Product-PEs** that stream non-zeros out of their local bank
//! and compute partial dot products; banks on the vector layer run
//! **Accumulation-PEs** that serve input-vector blocks and accumulate partial
//! results into the output vector. Bank groups share an L1 CAM + load queue;
//! each vault controller adds an L2 CAM + load queue on the base die; vaults
//! communicate over TSVs (uniform latency) and a 2D-mesh NoC, cubes over a
//! SerDes mesh.
//!
//! The simulation is validated the same way the paper validates its
//! simulator: "the correctness of the event triggering mechanism is validated
//! by the values of the output vector" — every run checks the simulated `y`
//! against the software SpMV oracle bit for bit, so a run that returns `Ok`
//! computed exactly `Csr::spmv`.
//!
//! # Example
//!
//! ```
//! use spacea_arch::{HwConfig, Machine, RunSpec};
//! use spacea_mapping::{LocalityMapping, MappingStrategy};
//! use spacea_matrix::gen::{banded, BandedConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = HwConfig::tiny();
//! let a = banded(&BandedConfig { n: 128, ..Default::default() });
//! let x = vec![1.0; a.cols()];
//! let mapping = LocalityMapping::default().map(&a, &cfg.shape);
//! let report = Machine::new(cfg).run(RunSpec::spmv(&a, &x, &mapping))?.into_report();
//! assert_eq!(report.output, a.spmv(&x));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod accum;
mod config;
mod layout;
mod machine;
mod packet;
mod pe;
mod report;
pub mod trace;

pub use config::{
    HwConfig, BLOCK_BYTES, DRAM_TIMING, FPU_LATENCY, L1_CAM_LATENCY, L1_LDQ_ENTRIES,
    L2_CAM_LATENCY, L2_LDQ_ENTRIES, L_P, NNZ_PER_DRAM_ROW, NOC_BYTES_PER_CYCLE, NOC_HOP_LATENCY,
    PE_QUEUE_ROWS, SERDES_BYTES_PER_CYCLE, SERDES_HOP_LATENCY, STALL_WINDOW, UPDATE_BUFFER_ROWS,
};
pub use layout::{DataLayout, SlotId};
pub use machine::{Machine, RunOutput, RunSpec, SimError};
pub use packet::Requester;
pub use report::SimReport;
pub use spacea_sim::fault;
pub use spacea_sim::fault::{FaultPlan, OccupancyHistory, OccupancySample, StallDiagnosis};
pub use trace::{TraceEvent, TraceRecord};
