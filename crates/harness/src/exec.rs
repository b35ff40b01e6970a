//! Job execution: shared in-process caches and the supervised worker pool.
//!
//! Workers never let one bad job take down a sweep: every attempt runs under
//! [`std::panic::catch_unwind`], hangs are cut off by the sim watchdog or an
//! optional per-attempt wall-clock budget, and transient errors are retried
//! with exponential backoff. [`run_jobs_supervised`] always returns one
//! [`JobRecord`] per submitted job — failed jobs carry a
//! [`JobStatus`] explaining what happened instead of a result.

use crate::job::{Fnv, JobSpec, MatrixSource};
use crate::mapstore::{MappingStats, MappingStore};
use crate::store::{CacheOutcome, JobResult, ResultStore, ScenarioRec};
use crate::telemetry::{JobRecord, JobStatus};
use crate::timeline::{ChunkSink, TimelineConfig};
use spacea_arch::{Machine, RunSpec, SampleFlush, SimError};
use spacea_backend::hbm::hbm_timeline;
use spacea_backend::{BackendKind, HbmBackend, ScenarioSpec};
use spacea_gpu::simulate_csrmv;
use spacea_mapping::{MachineShape, MapKind, Mapping};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::Csr;
use spacea_obs::Timeline;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Locks a memo mutex, recovering from poisoning: the maps only hold
/// [`OnceLock`] cells (an interrupted init leaves the cell empty and
/// retryable), so a worker that panicked cannot leave torn state behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The deterministic input vector used by every SpMV experiment.
///
/// Lives here (not in the experiment config) because it is part of a sim
/// job's semantics: a cached [`crate::JobResult`] is only valid if every
/// run uses the same input.
pub fn input_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
}

type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>;

/// Shared in-process memoization of the *inputs* to jobs: generated
/// matrices and computed mappings.
///
/// These are not part of the [`ResultStore`] because they are intermediate
/// artifacts, re-derivable and often large; but they must be shared across
/// workers so that two jobs on the same matrix don't generate it twice.
/// Each entry is a [`OnceLock`]: the first worker to need an artifact
/// computes it while later workers block on that entry only (not on the
/// whole map).
///
/// Mapping computation goes through a [`MappingStore`]: with
/// [`JobCtx::with_mapping_dir`], the in-process memo warms from persisted
/// artifacts, so Phase I/II runs once per matrix content *ever*, not once
/// per process.
#[derive(Default)]
pub struct JobCtx {
    matrices: Memo<MatrixSource, Csr>,
    mappings: Memo<(MatrixSource, MapKind, MachineShape), Mapping>,
    format_mappings: Memo<(MatrixSource, FormatKind, MapKind, MachineShape), Mapping>,
    mapstore: MappingStore,
}

impl JobCtx {
    /// An empty context with no mapping persistence.
    pub fn new() -> Self {
        JobCtx::default()
    }

    /// A context whose mappings persist under `dir` (one JSON artifact per
    /// matrix-content × kind × shape key).
    pub fn with_mapping_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        JobCtx { mapstore: MappingStore::with_dir(dir), ..JobCtx::default() }
    }

    /// The mapping cache (serve registers content-addressed matrices
    /// directly against it, bypassing [`MatrixSource`]).
    pub fn mapstore(&self) -> &MappingStore {
        &self.mapstore
    }

    /// How many mappings this context computed versus warmed from disk.
    pub fn mapping_stats(&self) -> MappingStats {
        self.mapstore.stats()
    }

    /// The (memoized) matrix for a source.
    ///
    /// Graph operands are derived from the memoized adjacency matrix, so one
    /// generated graph serves its PageRank operand, its transpose, and the
    /// iteration-count analysis.
    pub fn matrix(&self, source: &MatrixSource) -> Arc<Csr> {
        use crate::job::GraphOperand;
        let cell = Arc::clone(lock(&self.matrices).entry(*source).or_default());
        Arc::clone(cell.get_or_init(|| match source {
            // Adjacency falls through to plain generation below; the two
            // derived operands reuse the memoized adjacency matrix.
            MatrixSource::Graph { graph, scale, operand: GraphOperand::PageRank } => {
                let adjacency = self.matrix(&MatrixSource::Graph {
                    graph: *graph,
                    scale: *scale,
                    operand: GraphOperand::Adjacency,
                });
                Arc::new(spacea_graph::pr_operand(&adjacency))
            }
            MatrixSource::Graph { graph, scale, operand: GraphOperand::Transpose } => {
                let adjacency = self.matrix(&MatrixSource::Graph {
                    graph: *graph,
                    scale: *scale,
                    operand: GraphOperand::Adjacency,
                });
                Arc::new(adjacency.transpose())
            }
            _ => Arc::new(source.generate()),
        }))
    }

    /// The (memoized) mapping of a source's matrix onto a machine shape.
    pub fn mapping(
        &self,
        source: &MatrixSource,
        kind: MapKind,
        shape: MachineShape,
    ) -> Arc<Mapping> {
        let cell = Arc::clone(lock(&self.mappings).entry((*source, kind, shape)).or_default());
        Arc::clone(cell.get_or_init(|| {
            let a = self.matrix(source);
            Arc::new(self.mapstore.get_or_compute(&a, kind, &shape))
        }))
    }

    /// The (memoized) *format-aware* mapping: Phase I/II runs over the
    /// format's stored footprint ([`spacea_matrix::SparseFormat::storage_pattern`])
    /// rather than the logical pattern, so padding-heavy layouts (BCSR
    /// block fill) place the traffic they actually generate. Persists
    /// through the same [`MappingStore`] as plain mappings — the pattern
    /// matrix is content-addressed like any other operand.
    pub fn format_mapping(
        &self,
        source: &MatrixSource,
        format: FormatKind,
        kind: MapKind,
        shape: MachineShape,
    ) -> Arc<Mapping> {
        let cell = Arc::clone(
            lock(&self.format_mappings).entry((*source, format, kind, shape)).or_default(),
        );
        Arc::clone(cell.get_or_init(|| {
            let a = self.matrix(source);
            let pattern = format.build(&a).storage_pattern();
            Arc::new(self.mapstore.get_or_compute(&pattern, kind, &shape))
        }))
    }
}

/// Why one execution attempt produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecFailure {
    /// The attempt hung — the sim watchdog tripped (deadlock, livelock, or
    /// cycle budget) or the wall-clock budget expired. Hangs are
    /// deterministic for a fixed job, so the supervisor never retries them.
    Hang {
        /// The watchdog's diagnosis, or the wall-budget message.
        diagnosis: String,
    },
    /// The attempt failed with an error or a panic; possibly transient.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl ExecFailure {
    fn from_sim(e: SimError) -> Self {
        if e.is_hang() {
            ExecFailure::Hang { diagnosis: e.to_string() }
        } else {
            ExecFailure::Error { message: e.to_string() }
        }
    }
}

impl std::fmt::Display for ExecFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecFailure::Hang { diagnosis } => write!(f, "hang: {diagnosis}"),
            ExecFailure::Error { message } => write!(f, "{message}"),
        }
    }
}

/// Executes one job (no cache involvement, no panic guard).
///
/// Untrusted inputs — the matrix source and the hardware config (validated
/// inside [`Machine::run`]) — are checked up front and reported as
/// [`ExecFailure::Error`] rather than panicking the worker.
pub fn execute(spec: &JobSpec, ctx: &JobCtx) -> Result<JobResult, ExecFailure> {
    execute_observed(spec, ctx, None).map(|(result, _)| result)
}

/// [`execute`] with optional observation. With a [`TimelineConfig`], sim
/// jobs run under [`RunSpec::observed`] at its cadence and return the
/// collected [`Timeline`] alongside the result; every completed sampler
/// window also appends one chunk to `timelines/<key>.d/` through a
/// [`ChunkSink`] (O(gauges) per window; the chunk index commits by atomic
/// rename), so a run killed mid-flight leaves a replayable truncated
/// timeline instead of nothing. The final artifact — with duration slices
/// attached — is written by the caller from the returned [`Timeline`],
/// which also clears the chunk set. HBM scenario cells return their
/// per-channel timeline; other jobs have no event loop to sample and
/// return `None`. Observation is timing-neutral, so the [`JobResult`] is
/// identical either way — cached results stay valid whether or not the run
/// was observed.
pub fn execute_observed(
    spec: &JobSpec,
    ctx: &JobCtx,
    timeline: Option<&TimelineConfig>,
) -> Result<(JobResult, Option<Timeline>), ExecFailure> {
    let source = spec.source();
    source.validate().map_err(|message| ExecFailure::Error { message })?;
    match spec {
        JobSpec::Gpu { source, spec } => {
            let a = ctx.matrix(source);
            Ok((JobResult::Gpu(simulate_csrmv(spec, &a)), None))
        }
        JobSpec::Sim { source, kind, hw, .. } => {
            let a = ctx.matrix(source);
            let mapping = ctx.mapping(source, *kind, hw.shape);
            let x = input_vector(a.cols());
            let machine = Machine::new(hw.clone());
            match timeline {
                Some(cfg) => {
                    let mut sink = ChunkSink::new(cfg, spec.key());
                    let mut flush = |f: &SampleFlush<'_>| sink.append(f);
                    let run = RunSpec::spmv(&a, &x, &mapping).observed(cfg.observe);
                    let out =
                        machine.run(run.flushing(&mut flush)).map_err(ExecFailure::from_sim)?;
                    Ok((JobResult::Sim(Arc::new(out.report)), out.timeline))
                }
                None => {
                    let out = machine
                        .run(RunSpec::spmv(&a, &x, &mapping))
                        .map_err(ExecFailure::from_sim)?;
                    Ok((JobResult::Sim(Arc::new(out.report)), None))
                }
            }
        }
        JobSpec::Scenario { source, backend, format, partition, kind, hw, gpu, hbm } => {
            let a = ctx.matrix(source);
            let built = format.build(&a);
            let mapping = backend
                .needs_mapping()
                .then(|| ctx.format_mapping(source, *format, *kind, hw.shape));
            let x = input_vector(a.cols());
            let scenario = ScenarioSpec {
                a: &a,
                format: built.as_ref(),
                partition: *partition,
                x: &x,
                mapping: mapping.as_deref(),
            };
            // The HBM backend is run through its detailed entrypoint so an
            // observed job can hand back the per-channel timeline; the other
            // backends have no event stream to sample.
            let (run, tl) = match backend {
                BackendKind::Hbm => {
                    let (run, detail) = HbmBackend { spec: *hbm }
                        .run_detailed(&scenario)
                        .map_err(|message| ExecFailure::Error { message })?;
                    (run, timeline.map(|_| hbm_timeline(&detail)))
                }
                _ => {
                    let run = backend
                        .build(hw, gpu, hbm)
                        .run(&scenario)
                        .map_err(|message| ExecFailure::Error { message })?;
                    (run, None)
                }
            };
            // Every cell must reproduce the CSR reference bit for bit; a
            // divergent cell is a failed job (never cached), so any cached
            // ScenarioRec proves its backend × format pair was verified.
            let reference = a.spmv(&x);
            let bitwise_ok = run.y.len() == reference.len()
                && run.y.iter().zip(&reference).all(|(l, r)| l.to_bits() == r.to_bits());
            if !bitwise_ok {
                return Err(ExecFailure::Error {
                    message: format!(
                        "scenario {}: output diverges bitwise from the CSR reference",
                        spec.label()
                    ),
                });
            }
            let mut h = Fnv::new();
            for v in &run.y {
                h.f64(*v);
            }
            Ok((
                JobResult::Scenario(ScenarioRec {
                    cycles: run.cycles,
                    time_s: run.time_s,
                    stream_bytes: run.stream_bytes,
                    effective_bw: run.effective_bw,
                    bytes_per_nnz: run.bytes_per_nnz,
                    reorder_stalls: run.reorder_stalls,
                    y_hash: h.finish(),
                    bitwise_ok: true,
                }),
                tl,
            ))
        }
    }
}

/// [`execute_observed`] behind a panic guard: a panicking job becomes an
/// [`ExecFailure::Error`] instead of unwinding through the worker pool.
fn guarded_execute(
    spec: &JobSpec,
    ctx: &JobCtx,
    timeline: Option<&TimelineConfig>,
) -> Result<(JobResult, Option<Timeline>), ExecFailure> {
    // AssertUnwindSafe: the only state shared across the boundary is the
    // JobCtx memo (poison-tolerant locks over OnceLock cells; an interrupted
    // init leaves the cell empty and retryable) and the panic payload itself.
    match catch_unwind(AssertUnwindSafe(|| execute_observed(spec, ctx, timeline))) {
        Ok(r) => r,
        Err(payload) => Err(ExecFailure::Error {
            message: format!("job panicked: {}", panic_message(payload.as_ref())),
        }),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One execution attempt, optionally bounded by a wall-clock budget.
///
/// With a budget, the job runs on its own (named) thread and the worker
/// waits at most `limit`; on expiry the attempt is reported as a
/// [`ExecFailure::Hang`] and the thread is abandoned (detached) — it keeps
/// the CPU it already holds but can no longer block the sweep.
fn attempt(
    spec: &JobSpec,
    ctx: &Arc<JobCtx>,
    wall_budget: Option<Duration>,
    timeline: Option<&TimelineConfig>,
) -> Result<(JobResult, Option<Timeline>), ExecFailure> {
    let Some(limit) = wall_budget else { return guarded_execute(spec, ctx, timeline) };
    let (tx, rx) = mpsc::channel();
    let thread_spec = spec.clone();
    let thread_ctx = Arc::clone(ctx);
    let thread_timeline = timeline.cloned();
    let handle =
        std::thread::Builder::new().name(format!("spacea-job:{}", spec.label())).spawn(move || {
            let _ = tx.send(guarded_execute(&thread_spec, &thread_ctx, thread_timeline.as_ref()));
        });
    let handle = match handle {
        Ok(h) => h,
        Err(e) => {
            return Err(ExecFailure::Error { message: format!("failed to spawn job thread: {e}") })
        }
    };
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(_) => Err(ExecFailure::Hang {
            diagnosis: format!(
                "wall-clock budget of {:.3}s exceeded; attempt abandoned on its detached thread",
                limit.as_secs_f64()
            ),
        }),
    }
}

/// Retry and budget policy for supervised job execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// Wall-clock budget per attempt; `None` runs attempts inline on the
    /// worker with no budget (the sim watchdog still bounds simulations).
    pub wall_budget: Option<Duration>,
    /// How many times a failed (not hung) attempt is retried.
    pub max_retries: u32,
    /// Backoff slept before the first retry; doubled for each further one.
    pub backoff: Duration,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy { wall_budget: None, max_retries: 1, backoff: Duration::from_millis(20) }
    }
}

/// Deterministic backoff jitter in `[0.5, 1.5)`, derived from the job key
/// and the attempt number (splitmix64-style bit mixing — no wall-clock
/// randomness, so a given job retries on the same schedule in every
/// process). Cooperating shards sweep disjoint grid ranges, so their
/// concurrently-retrying jobs have different keys and therefore different
/// backoff phases instead of racing in lockstep. The serve daemon's batch
/// retries use it too, keyed by matrix.
pub fn jitter_factor(key: u64, attempt: u32) -> f64 {
    let mut z = key ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Top 53 bits give a uniform f64 in [0, 1).
    0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs attempts under `policy` until one succeeds, the retry budget is
/// spent, or the job hangs (hangs are deterministic: never retried).
fn supervise(
    spec: &JobSpec,
    ctx: &Arc<JobCtx>,
    policy: &SupervisionPolicy,
    timeline: Option<&TimelineConfig>,
) -> (Option<(JobResult, Option<Timeline>)>, JobStatus) {
    let key = spec.key();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match attempt(spec, ctx, policy.wall_budget, timeline) {
            Ok(result) => {
                let status =
                    if attempts == 1 { JobStatus::Ok } else { JobStatus::Retried { attempts } };
                return (Some(result), status);
            }
            Err(ExecFailure::Hang { diagnosis }) => {
                return (None, JobStatus::TimedOut { diagnosis });
            }
            Err(ExecFailure::Error { message }) => {
                if attempts > policy.max_retries {
                    return (None, JobStatus::Failed { error: message });
                }
                let base = policy.backoff.saturating_mul(1u32 << (attempts - 1).min(16));
                std::thread::sleep(base.mul_f64(jitter_factor(key.0, attempts)));
            }
        }
    }
}

/// Removes jobs whose key already appeared earlier in the list, preserving
/// order. Experiments share work (fig5 and fig6 need the same sims), so the
/// concatenated job list routinely contains duplicates; deduplicating up
/// front keeps workers from computing the same result twice concurrently.
pub fn dedup_jobs(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    let mut seen = HashSet::new();
    jobs.into_iter().filter(|j| seen.insert(j.key())).collect()
}

/// What [`run_jobs_supervised`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// One record per submitted job, in input order. Failed jobs are
    /// present with a failure [`JobStatus`], not dropped.
    pub records: Vec<JobRecord>,
    /// Labels of jobs whose worker could not deliver its record (the result
    /// channel closed under it) — the record is still in `records`, this
    /// list flags that the delivery path broke.
    pub abandoned: Vec<String>,
}

/// Runs a job list on `workers` threads with the default
/// [`SupervisionPolicy`], filling `store`.
///
/// Returns one [`JobRecord`] per job **in input order**, regardless of which
/// worker ran what when — combined with results living in the content-keyed
/// store, parallel runs are observationally identical to serial ones.
pub fn run_jobs(
    jobs: &[JobSpec],
    store: &ResultStore,
    ctx: &Arc<JobCtx>,
    workers: usize,
) -> Vec<JobRecord> {
    run_jobs_supervised(jobs, store, ctx, workers, &SupervisionPolicy::default(), None).records
}

/// [`run_jobs`] with an explicit [`SupervisionPolicy`] and optional per-job
/// timeline artifacts.
///
/// A panicking, erroring, or hung job never takes the sweep down: its record
/// carries a failure [`JobStatus`] and every other job still runs. Workers
/// that cannot deliver a record (channel closed) park it in a side buffer
/// instead of dropping it; any job that still ends up without a record gets
/// a synthesized failure record so the accounting is always complete.
///
/// With a [`TimelineConfig`], sim jobs run observed (gauge sampling + trace
/// slices) and each success writes a Chrome-trace JSON next to the cached
/// result. A cache hit whose artifact is missing re-runs the job observed
/// to regenerate it — observation is timing-neutral and sims deterministic,
/// so the regenerated timeline matches what the original run would have
/// produced, and the cached result is returned untouched.
pub fn run_jobs_supervised(
    jobs: &[JobSpec],
    store: &ResultStore,
    ctx: &Arc<JobCtx>,
    workers: usize,
    policy: &SupervisionPolicy,
    timeline: Option<&TimelineConfig>,
) -> RunOutput {
    let workers = workers.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobRecord)>();
    let stranded: Mutex<Vec<(usize, JobRecord)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let stranded = &stranded;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let record = run_one(i, &jobs[i], store, ctx, policy, timeline);
                if let Err(e) = tx.send((i, record)) {
                    // The receiver is gone. Keep the record instead of
                    // dropping the evidence; the merge below logs it.
                    lock(stranded).push(e.0);
                    break;
                }
            });
        }
        drop(tx);
    });

    let mut ordered: Vec<Option<JobRecord>> = (0..jobs.len()).map(|_| None).collect();
    for (i, record) in rx {
        ordered[i] = Some(record);
    }
    let mut abandoned = Vec::new();
    for (i, record) in lock(&stranded).drain(..) {
        abandoned.push(record.label.clone());
        ordered[i] = Some(record);
    }
    let mut records = Vec::with_capacity(jobs.len());
    for (i, slot) in ordered.into_iter().enumerate() {
        records.push(match slot {
            Some(r) => r,
            None => {
                // A worker died without reporting at all (should be
                // impossible — attempts are panic-guarded). Synthesize a
                // failure so the sweep's accounting stays complete.
                let label = jobs[i].label();
                eprintln!("spacea-harness: job {label} abandoned by its worker");
                abandoned.push(label.clone());
                JobRecord {
                    index: i,
                    label,
                    key: jobs[i].key(),
                    outcome: CacheOutcome::Computed,
                    status: JobStatus::Failed {
                        error: "worker abandoned the job without reporting".into(),
                    },
                    wall_ms: 0.0,
                    cycles: None,
                    events: None,
                }
            }
        });
    }
    RunOutput { records, abandoned }
}

/// Writes a collected timeline artifact, logging (not failing) on I/O
/// errors: a missing timeline never costs a sweep its results.
fn write_timeline(cfg: &TimelineConfig, key: crate::job::JobKey, spec: &JobSpec, tl: &Timeline) {
    if let Err(e) = cfg.write(key, tl) {
        eprintln!("spacea-harness: job {}: could not write timeline: {e}", spec.label());
    }
}

fn run_one(
    index: usize,
    spec: &JobSpec,
    store: &ResultStore,
    ctx: &Arc<JobCtx>,
    policy: &SupervisionPolicy,
    timeline: Option<&TimelineConfig>,
) -> JobRecord {
    let key = spec.key();
    let started = Instant::now();
    let (result, outcome, status) = match store.lookup(key) {
        Some((result, outcome)) => {
            // A hit with its timeline artifact missing (older sweep, pruned
            // directory): re-run observed purely for the artifact, keeping
            // the cached result authoritative.
            if let Some(cfg) = timeline {
                if matches!(spec, JobSpec::Sim { .. }) && !cfg.path_for(key).exists() {
                    if let (Some((_, Some(tl))), _) = supervise(spec, ctx, policy, timeline) {
                        write_timeline(cfg, key, spec, &tl);
                    }
                }
            }
            (Some(result), outcome, JobStatus::Ok)
        }
        None => {
            let (outcome, status) = supervise(spec, ctx, policy, timeline);
            let result = match outcome {
                Some((r, tl)) => {
                    // Only successes are cached: a failure must be
                    // re-attempted (and its cause visible) on every run
                    // that needs it.
                    store.insert(key, r.clone());
                    if let (Some(cfg), Some(tl)) = (timeline, &tl) {
                        write_timeline(cfg, key, spec, tl);
                    }
                    Some(r)
                }
                None => {
                    let reason = status.failure().unwrap_or("unknown");
                    eprintln!("spacea-harness: job {} {}: {reason}", spec.label(), status.tag());
                    None
                }
            };
            (result, CacheOutcome::Computed, status)
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (cycles, events) = match &result {
        Some(JobResult::Sim(report)) => (Some(report.cycles), Some(report.events_processed)),
        Some(JobResult::Scenario(rec)) => (Some(rec.cycles), None),
        _ => (None, None),
    };
    JobRecord { index, label: spec.label(), key, outcome, status, wall_ms, cycles, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::GraphOperand;
    use spacea_arch::HwConfig;
    use spacea_graph::workloads::CaseStudyGraph;
    use spacea_model::EnergyParams;

    fn quick_sim(id: u8) -> JobSpec {
        JobSpec::Sim {
            source: MatrixSource::Suite { id, scale: 256 },
            kind: MapKind::Proposed,
            hw: HwConfig::tiny(),
            energy: EnergyParams::default(),
        }
    }

    fn quick_scenario(backend: BackendKind, format: FormatKind) -> JobSpec {
        JobSpec::Scenario {
            source: MatrixSource::Suite { id: 1, scale: 256 },
            backend,
            format,
            partition: spacea_backend::Partition::NnzSplit,
            kind: MapKind::Proposed,
            hw: HwConfig::tiny(),
            gpu: spacea_gpu::TitanXpSpec::default(),
            hbm: spacea_backend::HbmSpec::default(),
        }
    }

    #[test]
    fn scenario_cells_execute_verified_and_cache() {
        let ctx = Arc::new(JobCtx::new());
        let store = ResultStore::in_memory();
        let jobs: Vec<JobSpec> = BackendKind::ALL
            .iter()
            .flat_map(|b| FormatKind::ALL.iter().map(|f| quick_scenario(*b, *f)))
            .collect();
        let records = run_jobs(&jobs, &store, &ctx, 4);
        for r in &records {
            assert_eq!(r.status, JobStatus::Ok, "{} failed", r.label);
            assert!(r.cycles.unwrap() > 0, "{}: no cycle count", r.label);
        }
        // Every cell's output hashed identically: all backends reproduce the
        // same bitwise CSR reference on the same operand.
        let mut hashes = HashSet::new();
        for job in &jobs {
            let (result, _) = store.lookup(job.key()).unwrap();
            let JobResult::Scenario(rec) = result else { panic!("wrong result kind") };
            assert!(rec.bitwise_ok);
            assert!(rec.time_s > 0.0);
            hashes.insert(rec.y_hash);
        }
        assert_eq!(hashes.len(), 1, "backends disagree on the output vector");
        // Second pass hits the cache for every cell.
        let records = run_jobs(&jobs, &store, &ctx, 2);
        assert!(records.iter().all(|r| r.outcome == CacheOutcome::MemoryHit));
    }

    #[test]
    fn observed_hbm_scenario_returns_a_registered_timeline() {
        let ctx = JobCtx::new();
        let spec = quick_scenario(BackendKind::Hbm, FormatKind::Sell);
        let cfg = TimelineConfig::new(&std::env::temp_dir().join("spacea-exec-hbm-unused"));
        let (result, tl) = execute_observed(&spec, &ctx, Some(&cfg)).unwrap();
        assert!(matches!(result, JobResult::Scenario(_)));
        let tl = tl.expect("observed HBM scenario collects a timeline");
        assert!(!tl.series.is_empty());
        for (key, _) in &tl.series {
            assert!(
                spacea_obs::registry::is_known(&key.component, &key.name),
                "{key:?} not in the metric registry"
            );
        }
    }

    #[test]
    fn format_mapping_is_memoized_per_format() {
        let ctx = JobCtx::new();
        let src = MatrixSource::Suite { id: 1, scale: 256 };
        let a = ctx.format_mapping(&src, FormatKind::Bcsr, MapKind::Proposed, MachineShape::tiny());
        let b = ctx.format_mapping(&src, FormatKind::Bcsr, MapKind::Proposed, MachineShape::tiny());
        assert!(Arc::ptr_eq(&a, &b));
        // BCSR's padded footprint may map differently from CSR's — the memo
        // must keep them distinct either way.
        let c = ctx.format_mapping(&src, FormatKind::Csr, MapKind::Proposed, MachineShape::tiny());
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn ctx_memoizes_matrices_and_mappings() {
        let ctx = JobCtx::new();
        let src = MatrixSource::Suite { id: 1, scale: 256 };
        let a = ctx.matrix(&src);
        let b = ctx.matrix(&src);
        assert!(Arc::ptr_eq(&a, &b));
        let m1 = ctx.mapping(&src, MapKind::Proposed, MachineShape::tiny());
        let m2 = ctx.mapping(&src, MapKind::Proposed, MachineShape::tiny());
        assert!(Arc::ptr_eq(&m1, &m2));
    }

    #[test]
    fn graph_source_executes() {
        let ctx = JobCtx::new();
        let src = MatrixSource::Graph {
            graph: CaseStudyGraph::Wiki,
            scale: 4096,
            operand: GraphOperand::PageRank,
        };
        let a = ctx.matrix(&src);
        assert!(a.rows() > 0);
        assert_eq!(a.rows(), a.cols());
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let jobs = vec![quick_sim(1), quick_sim(2), quick_sim(1), quick_sim(3), quick_sim(2)];
        let deduped = dedup_jobs(jobs);
        let labels: Vec<String> = deduped.iter().map(|j| j.label()).collect();
        assert_eq!(
            labels,
            vec!["sim:m1/256:proposed", "sim:m2/256:proposed", "sim:m3/256:proposed"]
        );
    }

    #[test]
    fn parallel_records_in_input_order_and_store_filled() {
        let jobs: Vec<JobSpec> = (1..=4).map(quick_sim).collect();
        let store = ResultStore::in_memory();
        let ctx = Arc::new(JobCtx::new());
        let records = run_jobs(&jobs, &store, &ctx, 4);
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.key, jobs[i].key());
            assert_eq!(r.outcome, CacheOutcome::Computed);
            assert_eq!(r.status, JobStatus::Ok);
            assert!(r.cycles.unwrap() > 0);
        }
        assert_eq!(store.len(), 4);
        // Second pass: everything hits.
        let records = run_jobs(&jobs, &store, &ctx, 2);
        assert!(records.iter().all(|r| r.outcome == CacheOutcome::MemoryHit));
    }

    #[test]
    fn invalid_source_is_a_failed_record_not_a_crash() {
        let mut jobs = vec![quick_sim(1)];
        if let JobSpec::Sim { source, .. } = &mut jobs[0] {
            *source = MatrixSource::Suite { id: 99, scale: 256 };
        }
        let store = ResultStore::in_memory();
        let records = run_jobs(&jobs, &store, &Arc::new(JobCtx::new()), 1);
        assert_eq!(records[0].status.tag(), "failed");
        assert!(records[0].status.failure().unwrap().contains("99"), "{:?}", records[0].status);
        assert!(store.is_empty(), "failures must never be cached");
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let jobs: Vec<JobSpec> = (1..=6).map(quick_sim).collect();
        let serial_store = ResultStore::in_memory();
        run_jobs(&jobs, &serial_store, &Arc::new(JobCtx::new()), 1);
        let parallel_store = ResultStore::in_memory();
        run_jobs(&jobs, &parallel_store, &Arc::new(JobCtx::new()), 4);
        for job in &jobs {
            let (a, _) = serial_store.lookup(job.key()).unwrap();
            let (b, _) = parallel_store.lookup(job.key()).unwrap();
            assert_eq!(a, b, "parallel result differs for {}", job.label());
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            for attempt in 1..=5u32 {
                let a = jitter_factor(key, attempt);
                let b = jitter_factor(key, attempt);
                assert_eq!(a, b, "same (key, attempt) must jitter identically");
                assert!((0.5..1.5).contains(&a), "factor {a} out of range");
            }
        }
        // Distinct keys and distinct attempts should not all collapse onto
        // one factor — that would defeat the point of jitter.
        let across_keys: Vec<f64> = (0..8).map(|k| jitter_factor(k, 1)).collect();
        assert!(across_keys.windows(2).any(|w| w[0] != w[1]));
        let across_attempts: Vec<f64> = (1..=8).map(|a| jitter_factor(42, a)).collect();
        assert!(across_attempts.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn observed_runs_write_artifacts_and_backfill_cache_hits() {
        let dir = std::env::temp_dir().join(format!("spacea-exec-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TimelineConfig::new(&dir);
        let jobs = vec![quick_sim(1), quick_sim(2)];
        let store = ResultStore::in_memory();
        let ctx = Arc::new(JobCtx::new());
        let policy = SupervisionPolicy::default();
        let out = run_jobs_supervised(&jobs, &store, &ctx, 2, &policy, Some(&cfg));
        assert!(out.records.iter().all(|r| r.status == JobStatus::Ok));
        for job in &jobs {
            let path = cfg.path_for(job.key());
            let text = std::fs::read_to_string(&path).unwrap();
            let summary = spacea_obs::json::validate_chrome_trace(&text).unwrap();
            assert!(summary.counter_events > 0, "{}: no counter events", job.label());
        }
        // A cache hit with its artifact missing regenerates it without
        // disturbing the cached result.
        let key = jobs[0].key();
        let (cached, _) = store.lookup(key).unwrap();
        std::fs::remove_file(cfg.path_for(key)).unwrap();
        let out = run_jobs_supervised(&jobs, &store, &ctx, 1, &policy, Some(&cfg));
        assert!(out.records.iter().all(|r| r.outcome == CacheOutcome::MemoryHit));
        assert!(cfg.path_for(key).exists(), "missing artifact not regenerated");
        let (after, _) = store.lookup(key).unwrap();
        assert_eq!(cached, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_flush_leaves_a_valid_artifact_without_the_final_write() {
        let dir = std::env::temp_dir().join(format!("spacea-exec-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A small sampling window so several flush boundaries fire during
        // even the tiny smoke simulation.
        let cfg = TimelineConfig::new(&dir).with_every(64);
        let spec = quick_sim(1);
        let key = spec.key();
        let ctx = JobCtx::new();
        let (result, timeline) = execute_observed(&spec, &ctx, Some(&cfg)).unwrap();
        assert!(matches!(result, JobResult::Sim(_)));
        let live = timeline.expect("observed run collects a timeline");
        // The crash-safety contract: this caller never wrote the final
        // artifact, yet the chunk set on disk replays into exactly the
        // series the live sampler held — minus only the end-of-run
        // snapshot, which no window boundary ever flushed.
        let replayed = cfg.load_chunks(key).expect("chunk set must replay");
        assert!(!replayed.series.is_empty(), "no windows were flushed");
        assert_eq!(replayed.series.len(), live.series.len());
        for (metric, series) in &replayed.series {
            let live_s = live.series(metric).expect("replayed gauge must exist live");
            assert_eq!(
                series.total_count() + 1,
                live_s.total_count(),
                "{metric}: replay must hold every window except the final snapshot"
            );
        }
        // The replay exports like any finished timeline.
        let summary = spacea_obs::json::validate_chrome_trace(&replayed.to_chrome_trace()).unwrap();
        assert!(summary.counter_events > 0, "flushed chunks have no samples");
        // The final artifact write supersedes and clears the chunks.
        cfg.write(key, &live).unwrap();
        assert!(!cfg.chunk_dir(key).exists(), "final write must clear the chunk set");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
