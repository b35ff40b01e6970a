//! Experiment orchestration: content-addressed jobs, a worker pool, a
//! persistent result cache, and run telemetry.
//!
//! The evaluation section of the paper is a pile of independent simulation
//! and model runs (one per matrix × mapping × hardware configuration) that
//! the experiment modules then render into tables. This crate factors that
//! pile out into an explicit job model:
//!
//! * [`JobSpec`] names one unit of work — a SpaceA simulation or a GPU
//!   baseline model run — by *content*: the matrix source, mapping kind,
//!   hardware configuration and energy parameters. [`JobSpec::key`] hashes
//!   all of it into a stable 64-bit [`JobKey`], so two jobs with the same
//!   key compute the same result.
//! * [`run_jobs`] shards a job list across `std::thread` workers. Results
//!   land in a shared [`ResultStore`] keyed by [`JobKey`]; because rendering
//!   reads results from the store (serially), table output is bit-for-bit
//!   identical whatever the worker count or completion order. Each job runs
//!   once behind a panic guard, with the sim watchdog cutting off hung
//!   simulations, and ends with an explicit [`JobStatus`], so one bad job
//!   never takes a sweep down; a job's failure follows from its inputs, so
//!   it is not retried. Given a [`TimelineConfig`], it also writes one
//!   Perfetto timeline per sim job.
//! * [`ResultStore`] optionally persists every result as one JSON file per
//!   key (default directory `target/spacea-cache/`), so a re-run only
//!   simulates what changed. Floats are stored as IEEE-754 bit patterns and
//!   round-trip exactly.
//! * [`RunManifest`] records per-job telemetry — wall time, simulated
//!   cycles, events processed, cache hit/miss — as JSON plus a
//!   human-readable summary, with the run's mapping and simulation counts.
//! * [`JobCtx`] shares what jobs have in common within one process:
//!   matrices, mappings, reference SpMVs, and single-vector simulations,
//!   which it keys by mapping content so that scenario cells differing only
//!   in a format that maps the same way share one run.
//! * [`SweepSpec`] names a grid over the design space (matrices, scales,
//!   mappings, machine variants, cube counts, CAM sizes, the GPU baseline,
//!   and backend × format × partitioning scenario cells) and enumerates it
//!   deterministically into deduped job lists;
//!   [`shard_range`] splits the grid across cooperating processes, and
//!   [`ResultStore::gc`] keeps the shared disk cache within size/age
//!   budgets, reading each entry's size and recency from its own file.
//!
//! The crate sits *below* the experiment definitions: it knows how to
//! execute a job, not which jobs a figure needs (that enumeration lives
//! with each experiment in `spacea-core`).

#![warn(missing_docs)]

pub mod exec;
pub mod job;
pub mod mapstore;
pub mod store;
pub mod sweep;
pub mod telemetry;
pub mod timeline;

pub use exec::{dedup_jobs, input_vector, run_jobs, ExecFailure, JobCtx, RunMemo, SimulationStats};
pub use job::{GraphOperand, JobKey, JobSpec, MatrixSource};
pub use mapstore::{MappingStats, MappingStore};
pub use store::{
    write_atomic, CacheOutcome, CacheStats, GcPolicy, GcReport, JobResult, ResultStore, ScenarioRec,
};
// The benchmark package (`perf/`) still imports `spacea_harness::json`.
pub use spacea_obs::json;
pub use sweep::{dedup_points, shard_range, SweepBase, SweepPoint, SweepSpec};
pub use telemetry::{JobRecord, JobStatus, RunManifest};
pub use timeline::TimelineConfig;

// The fault-injection plan, re-exported so harness users (the sweep binary)
// need not depend on the arch crate directly.
pub use spacea_arch::FaultPlan;

/// The default on-disk cache location, relative to the workspace root.
pub const DEFAULT_CACHE_DIR: &str = "target/spacea-cache";

/// Locks a mutex, recovering the data from a poisoned lock. Every critical
/// section in this crate changes its state in one step: one map insert, one
/// pushed record or path, or one memo slot that only a finished
/// computation fills. A worker that panicked while holding a lock therefore
/// leaves nothing torn, and the surviving workers of a supervised sweep
/// keep going.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
