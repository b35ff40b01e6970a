//! GPU and CPU baseline models for the SpaceA reproduction.
//!
//! The paper baselines SpMV against cuSPARSE `csrmv()` on an NVIDIA Titan Xp
//! (Section II-B, Figure 2) and graph analytics against the GAP benchmark on
//! a DGX-1 host CPU (Section V-F). Neither platform is available here, so
//! this crate models them at the transaction level (see DESIGN.md §4):
//!
//! * [`csrmv`] — a Titan Xp csrmv model: the matrix stream plus the
//!   input-vector gathers an L2 misses, a bandwidth/ALU roofline, and an
//!   efficiency term derived from row-length statistics (warp
//!   underutilization on short rows, divergence on skewed rows). The L2 is
//!   a [`spacea_sim::cam::Cam`], the same tag-only set-associative LRU
//!   as SpaceA's CAMs, keyed by 32-byte line.
//! * [`cpu`] — a bandwidth-bound analytic model of the DGX-1's Xeon host for
//!   PageRank and SSSP iterations.
//!
//! The models are deterministic and reproduce the *shape* of Figure 2: high
//! DRAM utilization on structural matrices, poor utilization on the social /
//! web graphs (matrices 12–14), and single-digit ALU utilization everywhere.

#![warn(missing_docs)]

pub mod cpu;
pub mod csrmv;
pub mod spec;

pub use csrmv::{simulate_csrmv, simulate_csrmv_with_stream, GpuRun};
pub use spec::TitanXpSpec;
