//! SpMV as a long-lived service: a resident matrix registry, a persistent
//! warm-mapping cache, and multi-vector request batching.
//!
//! Every experiment binary in this workspace pays the Phase I/II mapping
//! precompute (`spacea-mapping`) from scratch and exits. A production
//! accelerator amortizes exactly the opposite way: the matrix is resident,
//! its mapping is computed once, and *vectors* stream through (Serpens
//! frames SpMV as such a service; SparseP reuses one matrix across many
//! kernel invocations on real PIM). This crate is that deployment shape for
//! the SpaceA simulator:
//!
//! * [`engine::ServeEngine`] — a matrix registry keyed by content hash
//!   ([`spacea_harness::mapstore::matrix_key`]) whose mappings persist under
//!   `<cache-dir>/mappings/<key>.json`, keyed by sparsity pattern
//!   ([`spacea_harness::mapstore::pattern_key`]), so Phase I/II is paid once
//!   per pattern *ever*, not once per process. Restarting the daemon
//!   performs zero mapping computations for previously seen matrices.
//! * [`service::Service`] — a bounded admission queue plus a dispatcher
//!   thread that fuses concurrent requests against the same matrix into
//!   one simulated SpMM pass ([`spacea_arch::RunSpec::spmm`]), and a
//!   persistent pool of one batch worker per core that runs those passes,
//!   so batches for different matrices simulate concurrently. Fusing is
//!   safe because each fused output vector is bitwise-identical to the
//!   corresponding solo SpMV result, independent of batch composition
//!   and arrival order.
//! * [`protocol`] / [`server`] / [`client`] — a tiny line/JSON protocol
//!   (`spacea_obs::json`: floats travel as IEEE-754 bit patterns; line
//!   length and nesting are capped, a breach is a coded `bad-request`) over
//!   localhost TCP, with `serve start/submit/stat/shutdown` CLI verbs in
//!   `spacea-bench`. Both ends set `TCP_NODELAY` and send each line with
//!   one write, so a round trip never waits on a delayed ACK.
//!
//! Per-request telemetry — queue wait, fused batch width, cycles per
//! request, queue depth, plus the shed/retry/deadline fault counters — is
//! recorded under registered `spacea-obs` metric keys and exported as a
//! Chrome-trace timeline both periodically and on shutdown, next to a
//! `serve-manifest.json` whose `mappings.computed` counter is the
//! warm-cache acceptance check.
//!
//! # Robustness
//!
//! The service layer carries the PR 3 fault-injection philosophy up from
//! the simulator: [`chaos::ChaosPlan`] is a deterministic, seed-replayable
//! fault plan (dropped/delayed connections, killed or wedged batches,
//! stalled requests, corrupted mapping artifacts) injected via
//! `serve start --chaos`, and the request-lifecycle guarantees in
//! [`service::Service`] — explicit [`error::ServeError`] codes for
//! overload and deadline rejection, bounded jittered retry of transient
//! faults, and the write-ahead [`journal::AckJournal`] — are what make
//! every fault survivable. The `serve_chaos` bench bin soaks seeded plans
//! against a live daemon and enforces the core invariant: an acknowledged
//! request is bitwise-correct and journaled; an accepted request is never
//! silently lost.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod engine;
pub mod error;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod service;

pub use chaos::{ChaosPlan, ChaosState};
pub use client::{CallError, Client, CompactReply};
pub use engine::{EngineStats, RegisterInfo, ServeConfig, ServeEngine};
pub use error::ServeError;
pub use journal::{vec_hash, AckJournal, AckRecord, CompactionStats, JournalLoad};
pub use protocol::{seeded_vector, Request, MAX_LINE_BYTES, PORT_FILE};
pub use server::run_daemon;
pub use service::{Service, SubmitReply};
