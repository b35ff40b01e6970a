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
//! * [`service::Service`] — a bounded admission queue plus a persistent
//!   pool of one batch worker per core. A free worker fuses concurrent
//!   requests against the same matrix into one SpMM pass
//!   ([`spacea_arch::RunSpec::spmm`]) and runs it itself, so batches for
//!   different matrices run concurrently. Fusing is safe because each
//!   fused output vector is bitwise-identical to the corresponding solo
//!   SpMV result, independent of batch composition and arrival order.
//! * A run memo ([`spacea_harness::RunMemo`], keyed by matrix and batch
//!   width): a pass's report depends only on the matrix, its mapping, the
//!   machine and the batch width, never on the vectors' values. So a
//!   daemon simulates each (matrix, width) once, and repeat passes of that
//!   width reuse that report ([`engine::ServeEngine::run_batch`]). Every
//!   pass answers with [`spacea_matrix::Csr::spmv`], which the stored
//!   run's oracle check proved equal to the simulated values bit for bit. The memo lives in
//!   memory only, so a restarted daemon simulates again.
//! * [`protocol`] / [`server`] / [`client`] — a tiny line/JSON protocol
//!   (`spacea_obs::json`: a reply vector travels as one string of
//!   IEEE-754 bit patterns in hex; line length and nesting are capped, a
//!   breach is a coded `bad-request`) over
//!   localhost TCP, with `serve start/submit/stat/shutdown` CLI verbs in
//!   `spacea-bench`. Both ends set `TCP_NODELAY` and send each line with
//!   one write, so a round trip never waits on a delayed ACK.
//!
//! Per-request telemetry — queue wait, fused batch width, cycles per
//! request, queue depth, plus the shed/retry/deadline fault counters — is
//! recorded under `spacea_obs::Metric` gauge keys and exported as a
//! Chrome-trace timeline at the first answered batch, then at most once a
//! second ([`engine::FLUSH_INTERVAL`]), and on shutdown. The `stat`
//! verb answers the live counters. The daemon writes the same counters to
//! `serve-manifest.json` only at startup and at shutdown: its
//! `mappings.computed` counter is the warm-cache acceptance check, and its
//! `simulations` object counts the passes simulated (`run`) and answered
//! from the memo (`reused`).
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
//! faults, and the write-ahead [`journal::AckJournal`], one appended line
//! per acknowledged batch in `<cache-dir>/journal/acks.jsonl`, each record
//! naming its vectors by [`journal::vec_hash`] — are what
//! make every fault survivable. The `serve_chaos` bench bin soaks seeded
//! plans against a live daemon and enforces the core invariant: an
//! acknowledged request is bitwise-correct and journaled; an accepted
//! request is never silently lost.

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

/// The splitmix64 increment, 2⁶⁴ divided by the golden ratio.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output mixer. Request vectors, backoff jitter and seeded
/// chaos plans all derive from it, and each is a replay contract: clients
/// and daemons derive vectors independently, a batch retries on the same
/// schedule in every process, and `serve_chaos --seed K` re-runs K's plan.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Locks a mutex, recovering the data from a poisoned lock. Every mutex in
/// this crate guards state that is valid between any two of its updates:
/// the matrix registry, the telemetry series, the admission sender, the
/// worker handles, the workers' shared admission queue and the journal's
/// append handle (an append takes it out while it writes; a missing one is
/// reopened). A thread that panicked while holding one therefore leaves
/// nothing torn, and the daemon keeps answering instead of failing every
/// later request on the poison.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
