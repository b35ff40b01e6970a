//! Event-driven simulation substrate for the SpaceA reproduction.
//!
//! The paper evaluates SpaceA with an "event-based in-house simulator"
//! (Section V-A): hardware behaviour is modelled as events triggered after
//! deterministic latencies derived from per-component latency models. This
//! crate is that substrate, reusable by any component-level architecture
//! model:
//!
//! * [`engine`] — a deterministic calendar-queue event engine that delivers
//!   whole cycles at a time, simultaneous events in stable FIFO order.
//! * [`dram`] — DRAM bank timing (row buffer, tRCD/tRAS/tCCD) and access
//!   accounting.
//! * [`cam`] — the set-associative content-addressable memories (L1/L2 CAM)
//!   SpaceA integrates to cache input-vector blocks.
//! * [`ldq`] — load queues that deduplicate outstanding requests and track
//!   waiters.
//! * [`link`] — bandwidth-limited shared links (TSV, SerDes).
//! * [`noc`] — 2D-mesh network-on-chip with X-Y routing and the paper's
//!   bytes×hops traffic metric.
//! * [`stats`] — the event ledger consumed by the energy model.
//! * [`fault`] — deterministic fault-injection plans and the
//!   forward-progress watchdog configuration/diagnosis types.
//! * [`workload`] — seeded synthetic schedules (hold model, same-cycle
//!   bursts, far-future overflow) with checksummed replay for engine
//!   benchmarking and equivalence testing.
//!
//! # Example
//!
//! ```
//! use spacea_sim::engine::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(5, "b");
//! q.schedule(3, "a");
//! q.schedule(5, "c"); // same cycle as "b": FIFO order preserved
//! let mut batch = Vec::new();
//! assert_eq!(q.drain_cycle(&mut batch), Some(3));
//! assert_eq!(batch, vec!["a"]);
//! batch.clear();
//! assert_eq!(q.drain_cycle(&mut batch), Some(5));
//! assert_eq!(batch, vec!["b", "c"]);
//! assert_eq!(q.drain_cycle(&mut batch), None);
//! ```

#![warn(missing_docs)]

pub mod cam;
pub mod dram;
pub mod engine;
pub mod fault;
pub mod ldq;
pub mod link;
pub mod noc;
mod slab;
pub mod stats;
pub mod trace;
pub mod workload;

/// Simulation time in clock cycles (the machine runs at 1 GHz, Section II-C).
pub type Cycle = u64;
