//! Job execution: shared in-process caches and the worker pool.
//!
//! Workers never let one bad job take down a sweep: every job runs once
//! under [`std::panic::catch_unwind`], and the sim watchdog cuts off hangs.
//! A job's failure follows from its inputs — the simulator is deterministic
//! and every output is checked — so a failed job is not retried.
//! [`run_jobs`] always returns one [`JobRecord`] per submitted job — failed
//! jobs carry a [`JobStatus`] explaining what happened instead of a result.

use crate::job::{Fnv, JobSpec, MatrixSource};
use crate::lock;
use crate::mapstore::{MappingStats, MappingStore};
use crate::store::{CacheOutcome, JobResult, ResultStore, ScenarioRec};
use crate::telemetry::{JobRecord, JobStatus};
use crate::timeline::TimelineConfig;
use spacea_arch::{HwConfig, Machine, RunSpec, SimError, SimReport};
use spacea_backend::hbm::hbm_timeline;
use spacea_backend::{BackendKind, HbmBackend, ScenarioSpec, SpaceaBackend};
use spacea_gpu::simulate_csrmv;
use spacea_mapping::{MachineShape, MapKind, Mapping};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::{Csr, SparseFormat};
use spacea_obs::Timeline;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The deterministic input vector used by every SpMV experiment.
///
/// Lives here (not in the experiment config) because it is part of a sim
/// job's semantics: a cached [`crate::JobResult`] is only valid if every
/// run uses the same input.
pub fn input_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
}

/// A memo map of one cell per key, each behind its own `Arc`: a caller
/// holds the map's lock only to find its key's cell, and computes or waits
/// on that cell alone.
type Memo<K, Cell> = Mutex<HashMap<K, Arc<Cell>>>;

/// What decides an unobserved single-vector run of [`input_vector`]: the
/// operand, the mapping's *content* and the whole machine, fault plan
/// included — the inputs a sim job's key hashes, with the mapping's content
/// in place of its kind, so a run is only lent to a job that would run the
/// same simulation to the same outcome.
type RunKey = (MatrixSource, Arc<Mapping>, HwConfig);

/// How many simulations a [`RunMemo`] ran versus answered from a stored
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimulationStats {
    /// `Machine::run` calls made, failed runs included.
    pub run: u64,
    /// Runs answered from the memo instead of simulated again.
    pub reused: u64,
}

/// A memo of simulation reports by key: the first caller of a key runs
/// the simulation, and later callers of that key get its report.
///
/// The caller's key must decide the run's outcome. The harness's
/// [`JobCtx`] keys by operand, mapping content and machine; the serve
/// daemon keys by matrix and batch width. Three rules hold:
///
/// - only a successful run fills a slot: a failed run is not kept, so the
///   next caller of that key runs it again (a machine with a fault plan
///   fails every time);
/// - a second caller of a run in flight waits on that slot's lock, never
///   on the whole map, so runs of other keys go on at the same time;
/// - the memo lives in memory only, so a model change can never answer
///   with an older model's report.
///
/// A run is counted before it starts, so failed runs count too.
pub struct RunMemo<K> {
    slots: Memo<K, Mutex<Option<Arc<SimReport>>>>,
    run: AtomicU64,
    reused: AtomicU64,
}

impl<K> Default for RunMemo<K> {
    fn default() -> Self {
        RunMemo { slots: Mutex::default(), run: AtomicU64::default(), reused: AtomicU64::default() }
    }
}

impl<K: Eq + Hash> RunMemo<K> {
    /// The stored report of `key`, or the report `run` returns, which is
    /// stored if the run succeeds.
    ///
    /// # Errors
    ///
    /// Whatever `run` returns; the slot stays empty.
    pub fn get_or_run(
        &self,
        key: K,
        run: impl FnOnce() -> Result<SimReport, SimError>,
    ) -> Result<Arc<SimReport>, SimError> {
        let slot = Arc::clone(lock(&self.slots).entry(key).or_default());
        let mut slot = lock(&slot);
        if let Some(report) = slot.as_ref() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(report));
        }
        self.note_run();
        let report = Arc::new(run()?);
        *slot = Some(Arc::clone(&report));
        Ok(report)
    }

    /// How many runs this memo made and reused so far.
    pub fn stats(&self) -> SimulationStats {
        SimulationStats {
            run: self.run.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }

    /// Counts a run made outside the memo (an observed run, whose timeline
    /// cannot be shared).
    pub(crate) fn note_run(&self) {
        self.run.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared in-process memoization of the *inputs* to jobs (generated
/// matrices, computed mappings, reference SpMVs) and of the single-vector
/// simulations several jobs share.
///
/// These are not part of the [`ResultStore`] because they are intermediate
/// artifacts, re-derivable and often large; but they must be shared across
/// workers so that two jobs on the same matrix don't generate it twice.
/// Each entry is a [`OnceLock`] (a run, a [`RunMemo`] slot): the first
/// worker to need an artifact computes it while later workers block on that
/// entry only (not on the whole map).
///
/// Mapping computation goes through a [`MappingStore`]: with
/// [`JobCtx::with_mapping_dir`], the in-process memo warms from persisted
/// artifacts, so Phase I/II runs once per sparsity pattern *ever*, not once
/// per process.
#[derive(Default)]
pub struct JobCtx {
    matrices: Memo<MatrixSource, OnceLock<Arc<Csr>>>,
    references: Memo<MatrixSource, OnceLock<Arc<Vec<f64>>>>,
    mappings: Memo<(MatrixSource, MapKind, MachineShape), OnceLock<Arc<Mapping>>>,
    format_mappings:
        Memo<(MatrixSource, FormatKind, MapKind, MachineShape), OnceLock<Arc<Mapping>>>,
    runs: RunMemo<RunKey>,
    mapstore: MappingStore,
}

impl JobCtx {
    /// An empty context with no mapping persistence.
    pub fn new() -> Self {
        JobCtx::default()
    }

    /// A context whose mappings persist under `dir` (one JSON artifact per
    /// sparsity-pattern × kind × shape key).
    pub fn with_mapping_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        JobCtx { mapstore: MappingStore::with_dir(dir), ..JobCtx::default() }
    }

    /// How many mappings this context computed versus warmed from disk.
    pub fn mapping_stats(&self) -> MappingStats {
        self.mapstore.stats()
    }

    /// The mapping artifacts this context found damaged and rewrote.
    pub fn healed_mapping_paths(&self) -> Vec<std::path::PathBuf> {
        self.mapstore.healed_paths()
    }

    /// How many single-vector simulations this context ran versus reused.
    pub fn simulation_stats(&self) -> SimulationStats {
        self.runs.stats()
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

    /// The (memoized) *format-aware* mapping of `format`, a built format
    /// of `source`'s matrix, memoized by its [`SparseFormat::kind`]: Phase
    /// I/II runs over the format's stored footprint
    /// ([`SparseFormat::storage_pattern`]) rather than the logical pattern,
    /// so padding-heavy layouts (BCSR block fill) place the traffic they
    /// actually generate. Persists through the same [`MappingStore`] as
    /// plain mappings, which keys by pattern: a footprint equal to the
    /// logical pattern (CSR, COO, SELL) shares the plain mapping's
    /// artifact.
    pub fn format_mapping(
        &self,
        source: &MatrixSource,
        format: &dyn SparseFormat,
        kind: MapKind,
        shape: MachineShape,
    ) -> Arc<Mapping> {
        let key = (*source, format.kind(), kind, shape);
        let cell = Arc::clone(lock(&self.format_mappings).entry(key).or_default());
        Arc::clone(cell.get_or_init(|| {
            Arc::new(self.mapstore.get_or_compute(&format.storage_pattern(), kind, &shape))
        }))
    }

    /// The (memoized) reference `Csr::spmv` of a source's matrix on
    /// [`input_vector`]: the bitwise oracle of every scenario cell.
    pub fn reference(&self, source: &MatrixSource) -> Arc<Vec<f64>> {
        let cell = Arc::clone(lock(&self.references).entry(*source).or_default());
        Arc::clone(cell.get_or_init(|| {
            let a = self.matrix(source);
            Arc::new(a.spmv(&input_vector(a.cols())))
        }))
    }

    /// The (memoized) unobserved single-vector run of a source's matrix on
    /// [`input_vector`] under `mapping` on `hw`.
    ///
    /// Runs are keyed by mapping content (see `RunKey`), so a matrix's
    /// plain simulation point and every scenario cell whose format maps it
    /// the same way share one run ([`RunMemo`]).
    ///
    /// # Errors
    ///
    /// Whatever [`Machine::run`] reports.
    pub fn spmv_report(
        &self,
        source: &MatrixSource,
        mapping: &Arc<Mapping>,
        hw: &HwConfig,
    ) -> Result<Arc<SimReport>, SimError> {
        self.runs.get_or_run((*source, Arc::clone(mapping), hw.clone()), || {
            let a = self.matrix(source);
            let x = input_vector(a.cols());
            Ok(Machine::new(hw.clone()).run(RunSpec::spmv(&a, &x, mapping))?.report)
        })
    }
}

/// Why executing a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecFailure {
    /// The job hung: the simulation deadlocked, or nothing retired for
    /// [`spacea_arch::STALL_WINDOW`] cycles (a livelock).
    Hang {
        /// The hang's stall diagnosis.
        diagnosis: String,
    },
    /// The job failed with an error or a panic.
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
/// jobs run under [`RunSpec::observed`] with its sampler config and return
/// the collected [`Timeline`] (gauge series plus duration slices) alongside
/// the result. Nothing is written while the run is in flight: the caller
/// writes the one artifact from the returned [`Timeline`]. HBM scenario
/// cells return their per-channel timeline; other jobs have no event loop
/// to sample and return `None`. Observation is timing-neutral, so the
/// [`JobResult`] is identical either way — cached results stay valid
/// whether or not the run was observed.
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
            let mapping = ctx.mapping(source, *kind, hw.shape);
            match timeline {
                Some(cfg) => {
                    let a = ctx.matrix(source);
                    let x = input_vector(a.cols());
                    ctx.runs.note_run();
                    let out = Machine::new(hw.clone())
                        .run(RunSpec::spmv(&a, &x, &mapping).observed(cfg.observe))
                        .map_err(ExecFailure::from_sim)?;
                    Ok((JobResult::Sim(Arc::new(out.report)), out.timeline))
                }
                None => {
                    let report =
                        ctx.spmv_report(source, &mapping, hw).map_err(ExecFailure::from_sim)?;
                    Ok((JobResult::Sim(report), None))
                }
            }
        }
        JobSpec::Scenario { source, backend, format, partition, kind, hw, gpu, hbm } => {
            let a = ctx.matrix(source);
            let built = format.build(&a);
            let mapping = backend
                .needs_mapping()
                .then(|| ctx.format_mapping(source, built.as_ref(), *kind, hw.shape));
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
            let (run, tl) = match (backend, &mapping) {
                (BackendKind::Hbm, _) => {
                    let (run, detail) = HbmBackend { spec: *hbm }
                        .run_detailed(&scenario)
                        .map_err(|message| ExecFailure::Error { message })?;
                    (run, timeline.map(|_| hbm_timeline(&detail)))
                }
                // A SpaceA cell takes its run from the memo, keyed by the
                // shared `Arc` of the very mapping `run_with` hands over.
                (BackendKind::Spacea, Some(mapping)) => {
                    let run = SpaceaBackend::run_with(&scenario, |_| {
                        ctx.spmv_report(source, mapping, hw).map_err(|e| e.to_string())
                    })
                    .map_err(|message| ExecFailure::Error { message })?;
                    (run, None)
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
            let reference = ctx.reference(source);
            let bitwise_ok = run.y.len() == reference.len()
                && run.y.iter().zip(reference.iter()).all(|(l, r)| l.to_bits() == r.to_bits());
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
    // JobCtx memo (poison-tolerant locks over cells an interrupted
    // computation leaves empty for the next caller to fill) and the panic
    // payload itself.
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

/// Removes jobs whose key already appeared earlier in the list, preserving
/// order. Experiments share work (fig5 and fig6 need the same sims), so the
/// concatenated job list routinely contains duplicates; deduplicating up
/// front keeps workers from computing the same result twice concurrently.
pub fn dedup_jobs(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    let mut seen = HashSet::new();
    jobs.into_iter().filter(|j| seen.insert(j.key())).collect()
}

/// Runs a job list on `workers` threads, filling `store`.
///
/// Returns one [`JobRecord`] per job **in input order**, regardless of which
/// worker ran what when — combined with results living in the content-keyed
/// store, parallel runs are observationally identical to serial ones.
///
/// Each job runs once. A panicking, erroring, or hung job never takes the
/// sweep down: its record carries a failure [`JobStatus`] and every other job
/// still runs. Running a failed job again would fail it the same way, since
/// its failure follows from its inputs; it is not cached either, so the next
/// run that needs it attempts it afresh.
///
/// With a [`TimelineConfig`], sim jobs run observed (gauge sampling + trace
/// slices) and each success writes a Chrome-trace JSON next to the cached
/// result. A cache hit whose artifact is missing re-runs the job observed
/// to regenerate it — observation is timing-neutral and sims deterministic,
/// so the regenerated timeline matches what the original run would have
/// produced, and the cached result is returned untouched.
pub fn run_jobs(
    jobs: &[JobSpec],
    store: &ResultStore,
    ctx: &JobCtx,
    workers: usize,
    timeline: Option<&TimelineConfig>,
) -> Vec<JobRecord> {
    let workers = workers.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = jobs.get(i) else { break };
                let record = run_one(i, spec, store, ctx, timeline);
                lock(&records).push(record);
            });
        }
    });
    let mut records = records.into_inner().unwrap_or_else(PoisonError::into_inner);
    records.sort_by_key(|r| r.index);
    records
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
    ctx: &JobCtx,
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
                    if let Ok((_, Some(tl))) = guarded_execute(spec, ctx, timeline) {
                        write_timeline(cfg, key, spec, &tl);
                    }
                }
            }
            (Some(result), outcome, JobStatus::Ok)
        }
        None => {
            let (result, status) = match guarded_execute(spec, ctx, timeline) {
                Ok((r, tl)) => {
                    // Only successes are cached: a failure must be
                    // re-attempted (and its cause visible) on every run
                    // that needs it.
                    store.insert(key, r.clone());
                    if let (Some(cfg), Some(tl)) = (timeline, &tl) {
                        write_timeline(cfg, key, spec, tl);
                    }
                    (Some(r), JobStatus::Ok)
                }
                Err(ExecFailure::Hang { diagnosis }) => (None, JobStatus::TimedOut { diagnosis }),
                Err(ExecFailure::Error { message }) => (None, JobStatus::Failed { error: message }),
            };
            if let Some(reason) = status.failure() {
                eprintln!("spacea-harness: job {} {}: {reason}", spec.label(), status.tag());
            }
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
    fn input_vector_deterministic() {
        // Cached sim results depend on every run using this exact input.
        assert_eq!(input_vector(10), input_vector(10));
        assert_eq!(input_vector(3).len(), 3);
    }

    #[test]
    fn scenario_cells_execute_verified_and_cache() {
        let ctx = JobCtx::new();
        let store = ResultStore::in_memory();
        let jobs: Vec<JobSpec> = BackendKind::ALL
            .iter()
            .flat_map(|b| FormatKind::ALL.iter().map(|f| quick_scenario(*b, *f)))
            .collect();
        let records = run_jobs(&jobs, &store, &ctx, 4, None);
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
        let records = run_jobs(&jobs, &store, &ctx, 2, None);
        assert!(records.iter().all(|r| r.outcome == CacheOutcome::MemoryHit));
    }

    #[test]
    fn observed_hbm_scenario_returns_a_timeline() {
        let ctx = JobCtx::new();
        let spec = quick_scenario(BackendKind::Hbm, FormatKind::Sell);
        let cfg = TimelineConfig::new(&std::env::temp_dir().join("spacea-exec-hbm-unused"));
        let (result, tl) = execute_observed(&spec, &ctx, Some(&cfg)).unwrap();
        assert!(matches!(result, JobResult::Scenario(_)));
        let tl = tl.expect("observed HBM scenario collects a timeline");
        assert!(!tl.series.is_empty());
    }

    #[test]
    fn format_mapping_is_memoized_per_format() {
        let ctx = JobCtx::new();
        let src = MatrixSource::Suite { id: 1, scale: 256 };
        let matrix = ctx.matrix(&src);
        let map = |format: FormatKind| {
            let built = format.build(&matrix);
            ctx.format_mapping(&src, built.as_ref(), MapKind::Proposed, MachineShape::tiny())
        };
        // A second build of the same format is answered from the memo.
        let a = map(FormatKind::Bcsr);
        let b = map(FormatKind::Bcsr);
        assert!(Arc::ptr_eq(&a, &b));
        // BCSR's padded footprint may map differently from CSR's — the memo
        // must keep them distinct either way.
        let c = map(FormatKind::Csr);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn spmv_reports_are_shared_by_mapping_content() {
        let ctx = JobCtx::new();
        let src = MatrixSource::Suite { id: 1, scale: 256 };
        let hw = HwConfig::tiny();
        let report = |m: &Arc<Mapping>, hw: &HwConfig| ctx.spmv_report(&src, m, hw).unwrap();
        let matrix = ctx.matrix(&src);
        let map = |format: FormatKind| {
            ctx.format_mapping(&src, format.build(&matrix).as_ref(), MapKind::Proposed, hw.shape)
        };
        let plain_mapping = ctx.mapping(&src, MapKind::Proposed, hw.shape);
        let plain = report(&plain_mapping, &hw);
        // CSR, COO and SELL store exactly the matrix pattern, so their
        // footprint mappings equal the plain one and lend it their run.
        for format in [FormatKind::Csr, FormatKind::Coo, FormatKind::Sell] {
            let m = map(format);
            assert!(!Arc::ptr_eq(&m, &plain_mapping), "{format}: a separate memo entry");
            assert!(Arc::ptr_eq(&report(&m, &hw), &plain), "{format} must reuse the plain run");
        }
        let bcsr_mapping = map(FormatKind::Bcsr);
        let bcsr = report(&bcsr_mapping, &hw);
        assert!(!Arc::ptr_eq(&bcsr, &plain), "block padding maps BCSR differently");
        let mut other = hw.clone();
        other.l2_cam.sets *= 2;
        let third = report(&plain_mapping, &other);
        assert!(!Arc::ptr_eq(&third, &plain) && !Arc::ptr_eq(&third, &bcsr));
        assert_eq!(ctx.simulation_stats(), SimulationStats { run: 3, reused: 3 });
        // A scenario cell serves the memoised output, still bitwise-checked.
        let cell = quick_scenario(BackendKind::Spacea, FormatKind::Sell);
        let JobResult::Scenario(rec) = execute(&cell, &ctx).unwrap() else { panic!() };
        assert_eq!(rec.cycles, plain.cycles);
        assert_eq!(ctx.simulation_stats(), SimulationStats { run: 3, reused: 4 });
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
        let ctx = JobCtx::new();
        let records = run_jobs(&jobs, &store, &ctx, 4, None);
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
        let records = run_jobs(&jobs, &store, &ctx, 2, None);
        assert!(records.iter().all(|r| r.outcome == CacheOutcome::MemoryHit));
    }

    #[test]
    fn invalid_source_is_a_failed_record_not_a_crash() {
        let mut jobs = vec![quick_sim(1)];
        if let JobSpec::Sim { source, .. } = &mut jobs[0] {
            *source = MatrixSource::Suite { id: 99, scale: 256 };
        }
        let store = ResultStore::in_memory();
        let records = run_jobs(&jobs, &store, &JobCtx::new(), 1, None);
        assert_eq!(records[0].status.tag(), "failed");
        assert!(records[0].status.failure().unwrap().contains("99"), "{:?}", records[0].status);
        assert!(store.is_empty(), "failures must never be cached");
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let jobs: Vec<JobSpec> = (1..=6).map(quick_sim).collect();
        let serial_store = ResultStore::in_memory();
        run_jobs(&jobs, &serial_store, &JobCtx::new(), 1, None);
        let parallel_store = ResultStore::in_memory();
        run_jobs(&jobs, &parallel_store, &JobCtx::new(), 4, None);
        for job in &jobs {
            let (a, _) = serial_store.lookup(job.key()).unwrap();
            let (b, _) = parallel_store.lookup(job.key()).unwrap();
            assert_eq!(a, b, "parallel result differs for {}", job.label());
        }
    }

    #[test]
    fn observed_runs_write_artifacts_and_backfill_cache_hits() {
        let dir = std::env::temp_dir().join(format!("spacea-exec-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TimelineConfig::new(&dir);
        // Two healthy jobs and one whose vault 0 wedges at cycle 100, which
        // trips the stall window.
        let mut stalled = quick_sim(1);
        if let JobSpec::Sim { hw, .. } = &mut stalled {
            hw.faults.stall_vault = Some((0, 100));
        }
        let jobs = vec![quick_sim(1), quick_sim(2), stalled];
        let ok = &jobs[..2];
        let store = ResultStore::in_memory();
        let ctx = JobCtx::new();
        let records = run_jobs(&jobs, &store, &ctx, 2, Some(&cfg));
        assert!(records[..2].iter().all(|r| r.status == JobStatus::Ok));
        assert_eq!(records[2].status.tag(), "timed-out", "{:?}", records[2].status);
        for job in ok {
            let path = cfg.path_for(job.key());
            let text = std::fs::read_to_string(&path).unwrap();
            let summary = spacea_obs::json::validate_chrome_trace(&text).unwrap();
            assert!(summary.counter_events > 0, "{}: no counter events", job.label());
        }
        // The ok jobs' artifacts are the only files: the failed job leaves
        // nothing behind.
        let mut files: Vec<String> = std::fs::read_dir(cfg.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut want: Vec<String> = ok.iter().map(|j| format!("{}.json", j.key())).collect();
        want.sort();
        assert_eq!(files, want);
        // A cache hit with its artifact missing regenerates it without
        // disturbing the cached result.
        let key = jobs[0].key();
        let (cached, _) = store.lookup(key).unwrap();
        std::fs::remove_file(cfg.path_for(key)).unwrap();
        let records = run_jobs(ok, &store, &ctx, 1, Some(&cfg));
        assert!(records.iter().all(|r| r.outcome == CacheOutcome::MemoryHit));
        assert!(cfg.path_for(key).exists(), "missing artifact not regenerated");
        let (after, _) = store.lookup(key).unwrap();
        assert_eq!(cached, after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
