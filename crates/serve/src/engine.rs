//! The serve engine: content-addressed matrix registry, warm-mapping
//! cache, fused-batch execution with a run memo by matrix and width, and
//! per-request telemetry.
//!
//! The engine owns everything the daemon shares across connections. It is
//! deliberately free of any transport: `serve_bench` and the unit tests
//! drive it directly, the TCP [`crate::server`] drives it through
//! [`crate::service::Service`]. It also owns the robustness state the
//! service layer hangs off: the [`ChaosState`] runtime of the configured
//! fault plan, the write-ahead [`AckJournal`], and the shed and deadline
//! counters the `stat` verb and the manifest expose.
//!
//! The telemetry series live in memory. The timeline artifact is
//! rewritten whole only on a clock, at the first answered batch and then
//! at most once per [`FLUSH_INTERVAL`], after that batch's replies have
//! gone out.

use crate::chaos::{ChaosPlan, ChaosState};
use crate::error::ServeError;
use crate::journal::AckJournal;
use crate::lock;
use spacea_arch::{HwConfig, Machine, RunOutput, RunSpec};
use spacea_harness::mapstore::matrix_key;
use spacea_harness::{
    write_atomic, MappingStats, MappingStore, MatrixSource, RunMemo, SimulationStats,
};
use spacea_mapping::{MapKind, Mapping};
use spacea_matrix::Csr;
use spacea_obs::json::Json;
use spacea_obs::{Metric, MetricKey, Series, Timeline};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The daemon's on-disk manifest file name (under the cache directory).
pub const MANIFEST_FILE: &str = "serve-manifest.json";

/// The daemon's telemetry export file name (under the cache directory).
pub const TIMELINE_FILE: &str = "serve-timeline.json";

/// While requests complete, the telemetry timeline is rewritten at most
/// once per this interval: the first answered batch writes it, and so does
/// the first batch answered this long after the last write. A killed
/// daemon therefore leaves a loadable artifact at most this stale (the
/// shutdown flush writes the final one).
pub const FLUSH_INTERVAL: Duration = Duration::from_secs(1);

/// Configuration of one serve engine / daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cache directory: mappings persist under `<cache_dir>/mappings/`,
    /// the acknowledgment journal under `<cache_dir>/journal/`, the port
    /// file, manifest and telemetry export in its root.
    pub cache_dir: PathBuf,
    /// The machine every request is simulated on.
    pub hw: HwConfig,
    /// Load-shedding high-water mark: a submit that finds this many
    /// requests already admitted and unanswered is rejected with an
    /// explicit `overloaded` error instead of queued.
    pub shed_mark: usize,
    /// How long a free worker waits after the first request of a batch for
    /// concurrent requests to arrive and fuse — when more work is
    /// already queued behind it.
    pub gather_window: Duration,
    /// The gather window used when the first request arrived to an idle
    /// queue: there is nothing to fuse with, so waiting the full window
    /// only adds latency.
    pub gather_idle: Duration,
    /// The service-layer fault plan (empty outside chaos testing).
    pub chaos: ChaosPlan,
}

impl ServeConfig {
    /// The default configuration over `cache_dir`: the paper machine,
    /// proposed mapping, shedding at a full admission queue.
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            cache_dir: cache_dir.into(),
            hw: HwConfig::default(),
            shed_mark: 64,
            gather_window: Duration::from_millis(2),
            gather_idle: Duration::from_micros(100),
            chaos: ChaosPlan::default(),
        }
    }

    /// The smoke-test variant: the tiny machine (fast simulation).
    pub fn quick(cache_dir: impl Into<PathBuf>) -> Self {
        ServeConfig { hw: HwConfig::tiny(), ..ServeConfig::new(cache_dir) }
    }
}

/// What registering a matrix returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterInfo {
    /// Content hash of the matrix — the handle requests refer to.
    pub key: u64,
    /// Row count.
    pub rows: usize,
    /// Column count (the length submitted vectors must have).
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
}

/// A snapshot of the engine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Distinct matrices in the registry.
    pub registered: u64,
    /// Requests answered (one per submitted vector).
    pub requests: u64,
    /// Fused SpMM passes executed.
    pub batches: u64,
    /// Widest fused batch seen.
    pub fused_max: u64,
    /// Requests rejected at admission because the queue crossed the
    /// shed mark.
    pub shed: u64,
    /// Requests cancelled because their deadline elapsed.
    pub deadline_miss: u64,
    /// Acknowledgments journaled by this engine instance.
    pub acked: u64,
    /// Highest admission-queue depth observed (the high-water mark).
    pub queue_hwm: u64,
    /// Phase I/II computed-vs-warmed counters; `computed == 0` after a
    /// restart over a warm cache is the acceptance check.
    pub mappings: MappingStats,
    /// Fused passes simulated (`Machine::run` calls, failed ones included)
    /// versus answered from a stored run of the same matrix and width.
    pub simulations: SimulationStats,
}

impl EngineStats {
    /// The counters as JSON fields, in the order `serve-manifest.json`
    /// writes them: the mapping compute/warm/heal split nested under
    /// `mappings` (`mappings.computed == 0` on a restarted daemon is the
    /// warm-cache guarantee) and the simulated/reused pass split under
    /// `simulations`. The `stat` verb answers these fields plus the live
    /// queue depth and journal footprint.
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("registered", Json::U64(self.registered)),
            ("requests", Json::U64(self.requests)),
            ("batches", Json::U64(self.batches)),
            ("fused_max", Json::U64(self.fused_max)),
            ("shed", Json::U64(self.shed)),
            ("deadline_miss", Json::U64(self.deadline_miss)),
            ("acked", Json::U64(self.acked)),
            ("queue_hwm", Json::U64(self.queue_hwm)),
            (
                "mappings",
                Json::obj(vec![
                    ("computed", Json::U64(self.mappings.computed)),
                    ("disk_hits", Json::U64(self.mappings.disk_hits)),
                    ("healed", Json::U64(self.mappings.healed)),
                ]),
            ),
            (
                "simulations",
                Json::obj(vec![
                    ("run", Json::U64(self.simulations.run)),
                    ("reused", Json::U64(self.simulations.reused)),
                ]),
            ),
        ]
    }
}

/// Per-request gauge series, one per `serve` [`Metric`].
/// The "cycle" axis is the request ordinal (or the event ordinal for the
/// fault counters), so the exported timeline reads as request history.
struct Telemetry {
    next: u64,
    /// When a batch last claimed the periodic timeline write.
    flushed: Option<Instant>,
    queue_wait_us: Series,
    batch_size: Series,
    cycles_per_request: Series,
    queue_depth: Series,
    shed: Series,
    deadline_miss: Series,
    queue_age_us: Series,
}

impl Telemetry {
    fn new() -> Self {
        let series = || Series::new(256, 1);
        Telemetry {
            next: 0,
            flushed: None,
            queue_wait_us: series(),
            batch_size: series(),
            cycles_per_request: series(),
            queue_depth: series(),
            shed: series(),
            deadline_miss: series(),
            queue_age_us: series(),
        }
    }
}

/// One registered matrix and its mapping. The first caller to need the
/// mapping runs (or warms) Phase I/II; concurrent callers wait for that one
/// computation instead of starting their own.
struct Entry {
    a: Arc<Csr>,
    mapping: OnceLock<Mapping>,
}

/// The shared state of one serve instance. See the crate docs for the
/// registry / warm-mapping / batching semantics.
pub struct ServeEngine {
    cfg: ServeConfig,
    machine: Machine,
    store: MappingStore,
    chaos: ChaosState,
    journal: AckJournal,
    /// The registry, by matrix content key.
    matrices: Mutex<BTreeMap<u64, Arc<Entry>>>,
    /// Fused-pass reports by matrix key and batch width: a pass's report
    /// depends only on the matrix, its mapping, the machine and the width
    /// ([`RunSpec::spmm`]), never on the vectors' values.
    runs: RunMemo<(u64, usize)>,
    requests: AtomicU64,
    batches: AtomicU64,
    fused_max: AtomicU64,
    shed: AtomicU64,
    deadline_miss: AtomicU64,
    queue_hwm: AtomicU64,
    telemetry: Mutex<Telemetry>,
}

impl ServeEngine {
    /// A fresh engine over `cfg`; mappings persist under
    /// `<cache_dir>/mappings/` and warm from whatever a previous instance
    /// left there; the acknowledgment journal continues after whatever a
    /// previous life proved.
    pub fn new(cfg: ServeConfig) -> Self {
        let store = MappingStore::with_dir(cfg.cache_dir.join("mappings"));
        let journal = AckJournal::open(cfg.cache_dir.join(AckJournal::DIR));
        let machine = Machine::new(cfg.hw.clone());
        let chaos = ChaosState::new(cfg.chaos);
        ServeEngine {
            cfg,
            machine,
            store,
            chaos,
            journal,
            matrices: Mutex::new(BTreeMap::new()),
            runs: RunMemo::default(),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            fused_max: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_miss: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            telemetry: Mutex::new(Telemetry::new()),
        }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The runtime state of the configured chaos plan.
    pub fn chaos(&self) -> &ChaosState {
        &self.chaos
    }

    /// The write-ahead acknowledgment journal.
    pub fn journal(&self) -> &AckJournal {
        &self.journal
    }

    /// Registers a matrix by content: hashes it, stores it under its key,
    /// and warms its mapping (loaded from disk when a previous process —
    /// or a previous life of this daemon — already computed it).
    /// Re-registering the same content is an idempotent cheap no-op.
    pub fn register(&self, a: Csr) -> RegisterInfo {
        let key = matrix_key(&a);
        let entry = Arc::clone(
            lock(&self.matrices)
                .entry(key)
                .or_insert_with(|| Arc::new(Entry { a: Arc::new(a), mapping: OnceLock::new() })),
        );
        // Registration pays (or warms) Phase I/II, so submits never do.
        self.mapping(&entry);
        let a = &entry.a;
        RegisterInfo { key, rows: a.rows(), cols: a.cols(), nnz: a.nnz() }
    }

    /// Registers a Table I suite matrix by id and down-scale factor.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an unknown id or a zero
    /// scale.
    pub fn register_suite(&self, id: u8, scale: usize) -> Result<RegisterInfo, ServeError> {
        let source = MatrixSource::Suite { id, scale };
        source.validate().map_err(ServeError::BadRequest)?;
        Ok(self.register(source.generate()))
    }

    /// The registered matrix under `key`, if any.
    pub fn matrix(&self, key: u64) -> Option<Arc<Csr>> {
        lock(&self.matrices).get(&key).map(|entry| Arc::clone(&entry.a))
    }

    /// The (disk-warmed) mapping of a registered matrix: the paper's
    /// proposed two-phase mapping, the only one the daemon serves.
    fn mapping<'e>(&self, entry: &'e Entry) -> &'e Mapping {
        entry.mapping.get_or_init(|| {
            self.store.get_or_compute(&entry.a, MapKind::Proposed, &self.cfg.hw.shape)
        })
    }

    /// Runs one fused SpMM pass over `xs` against the registered matrix
    /// `key`, returning its report and one output vector per input. Each
    /// output vector is [`Csr::spmv`] of its input, bit for bit, so callers
    /// may fuse freely.
    ///
    /// The machine simulates each (matrix, batch width) once: the first
    /// successful pass of a width stores its report in a [`RunMemo`], and
    /// later passes of that width return it without simulating. Every
    /// pass, stored or not, answers with [`Csr::spmv`]; the stored run's
    /// oracle check proved those bits equal to the simulated ones. The
    /// returned output carries no trace or timeline.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for an unregistered key,
    /// [`ServeError::Sim`] for preflight and simulator failures
    /// (mismatched vector lengths, empty batches, hangs). The machine's
    /// preflight runs on every pass, so a stored run never answers a
    /// request the machine would refuse.
    pub fn run_batch(&self, key: u64, xs: &[Vec<f64>]) -> Result<RunOutput, ServeError> {
        let entry =
            lock(&self.matrices).get(&key).cloned().ok_or(ServeError::UnknownMatrix(key))?;
        let mapping = self.mapping(&entry);
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        self.machine.preflight(&entry.a, &refs, mapping)?;
        let report = self.runs.get_or_run((key, xs.len()), || {
            Ok(self.machine.run(RunSpec::spmm(&entry.a, xs, mapping))?.report)
        })?;
        let outputs = xs.iter().map(|x| entry.a.spmv(x)).collect();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(xs.len() as u64, Ordering::Relaxed);
        self.fused_max.fetch_max(xs.len() as u64, Ordering::Relaxed);
        Ok(RunOutput { report: (*report).clone(), outputs, trace: None, timeline: None })
    }

    /// Records the requests one batch answered — one queue wait each, the
    /// batch's `cycles`, and the queue `depth` behind it — into the
    /// telemetry series, and writes the timeline artifact when it is due
    /// (crash safety): at the first batch, then at most once per
    /// [`FLUSH_INTERVAL`]. The batch claims the write under the telemetry
    /// lock, so concurrent workers write at most once per interval between
    /// them. The service calls this after the batch's replies have gone
    /// out, so the write delays none of them.
    ///
    /// The batch's largest wait is also its queue age, recorded at the
    /// batch ordinal: the admission-queue analogue of the machine's
    /// per-vault LDQ `queue-age` gauge, where a growing age under a steady
    /// depth means the queue is stuck, not merely deep.
    pub fn note_requests(&self, queue_waits_us: &[u64], cycles: u64, depth: usize) {
        let batch = queue_waits_us.len();
        let batch_ordinal = self.batches.load(Ordering::Relaxed);
        let now = Instant::now();
        let flush = {
            let mut t = lock(&self.telemetry);
            if let Some(&age) = queue_waits_us.iter().max() {
                t.queue_age_us.record(batch_ordinal, age as f64);
            }
            for &wait in queue_waits_us {
                let at = t.next;
                t.next += 1;
                t.queue_wait_us.record(at, wait as f64);
                t.batch_size.record(at, batch as f64);
                t.cycles_per_request.record(at, cycles as f64 / batch.max(1) as f64);
                t.queue_depth.record(at, depth as f64);
            }
            let due = t.flushed.is_none_or(|at| now.duration_since(at) >= FLUSH_INTERVAL);
            if due {
                t.flushed = Some(now);
            }
            due
        };
        if flush {
            if let Err(e) = self.write_timeline() {
                eprintln!("serve: periodic timeline flush failed: {e}");
            }
        }
    }

    /// Records one shed (admission rejection) at `depth`.
    pub fn note_shed(&self, depth: usize) {
        let at = self.shed.fetch_add(1, Ordering::Relaxed);
        lock(&self.telemetry).shed.record(at, depth as f64);
    }

    /// Records one deadline cancellation after `waited_ms`.
    pub fn note_deadline_miss(&self, waited_ms: u64) {
        let at = self.deadline_miss.fetch_add(1, Ordering::Relaxed);
        lock(&self.telemetry).deadline_miss.record(at, waited_ms as f64);
    }

    /// Folds an observed admission-queue depth into the high-water mark.
    pub fn note_depth(&self, depth: usize) {
        self.queue_hwm.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            registered: lock(&self.matrices).len() as u64,
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fused_max: self.fused_max.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_miss: self.deadline_miss.load(Ordering::Relaxed),
            acked: self.journal.acked(),
            queue_hwm: self.queue_hwm.load(Ordering::Relaxed),
            mappings: self.store.stats(),
            simulations: self.runs.stats(),
        }
    }

    /// The collected per-request telemetry as an exportable timeline (the
    /// x-axis is the request ordinal, not a simulated cycle).
    pub fn timeline(&self) -> Timeline {
        let t = lock(&self.telemetry);
        Timeline {
            series: vec![
                (MetricKey::global(Metric::ServeQueueWaitUs), t.queue_wait_us.clone()),
                (MetricKey::global(Metric::ServeBatchSize), t.batch_size.clone()),
                (MetricKey::global(Metric::ServeCyclesPerRequest), t.cycles_per_request.clone()),
                (MetricKey::global(Metric::ServeQueueDepth), t.queue_depth.clone()),
                (MetricKey::global(Metric::ServeShed), t.shed.clone()),
                (MetricKey::global(Metric::ServeDeadlineMiss), t.deadline_miss.clone()),
                (MetricKey::global(Metric::ServeQueueAgeUs), t.queue_age_us.clone()),
            ],
            slices: Vec::new(),
        }
    }

    /// The manifest JSON: [`EngineStats::json_fields`] of a fresh snapshot.
    pub fn manifest_json(&self) -> String {
        Json::obj(self.stats().json_fields()).to_text()
    }

    /// Writes the manifest to `<cache_dir>/serve-manifest.json` (tmp-file +
    /// atomic rename, so a concurrent reader never sees a torn file). The
    /// daemon writes it at startup and at shutdown; the `stat` verb answers
    /// the live counters in between.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_manifest(&self) -> std::io::Result<PathBuf> {
        let path = self.cfg.cache_dir.join(MANIFEST_FILE);
        write_atomic(&path, &self.manifest_json())?;
        Ok(path)
    }

    /// Writes the telemetry timeline to `<cache_dir>/serve-timeline.json`
    /// as Chrome trace JSON (loads in Perfetto). Called both periodically
    /// (at the first answered batch, then at most once per
    /// [`FLUSH_INTERVAL`]) and on shutdown, always via tmp+rename, so the
    /// artifact is loadable at every instant — even after a SIGKILL between
    /// flushes.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_timeline(&self) -> std::io::Result<PathBuf> {
        let path = self.cfg.cache_dir.join(TIMELINE_FILE);
        write_atomic(&path, &self.timeline().to_chrome_trace())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::seeded_vector;
    use spacea_obs::json::parse;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spacea-serve-engine-{tag}-{}", std::process::id()))
    }

    #[test]
    fn register_is_idempotent_and_content_addressed() {
        let dir = tmp_dir("reg");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let a = engine.register_suite(1, 256).unwrap();
        let b = engine.register_suite(1, 256).unwrap();
        assert_eq!(a, b, "same content, same key");
        let c = engine.register_suite(2, 256).unwrap();
        assert_ne!(a.key, c.key);
        assert_eq!(engine.stats().registered, 2);
        let e = engine.register_suite(99, 256).unwrap_err();
        assert_eq!(e.code(), "bad-request");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_registrations_compute_one_mapping() {
        // Eight threads register one matrix at once: one registry entry,
        // and one Phase I/II run the other seven wait for. A registry that
        // let two of them compute loses the race only sometimes, so four
        // fresh engines each run it.
        let a = MatrixSource::Suite { id: 1, scale: 256 }.generate();
        for round in 0..4 {
            let dir = tmp_dir(&format!("race{round}"));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = ServeEngine::new(ServeConfig::quick(&dir));
            let barrier = std::sync::Barrier::new(8);
            let infos: Vec<RegisterInfo> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let a = a.clone();
                        let (engine, barrier) = (&engine, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            engine.register(a)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(infos.iter().all(|info| *info == infos[0]));
            let stats = engine.stats();
            assert_eq!(stats.registered, 1);
            assert_eq!(stats.mappings.computed, 1, "round {round}: {:?}", stats.mappings);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn batched_outputs_match_the_reference_spmv_bitwise() {
        let dir = tmp_dir("batch");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let info = engine.register_suite(1, 256).unwrap();
        let a = engine.matrix(info.key).unwrap();
        let xs: Vec<Vec<f64>> = (0..4).map(|s| seeded_vector(info.cols, s)).collect();
        let rep = engine.run_batch(info.key, &xs).unwrap();
        assert_eq!(rep.outputs.len(), 4);
        for (x, y) in xs.iter().zip(&rep.outputs) {
            let expect = a.spmv(x);
            let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "fused output must be bitwise the reference SpMV");
        }
        let s = engine.stats();
        assert_eq!((s.requests, s.batches, s.fused_max), (4, 1, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn bits(ys: &[Vec<f64>]) -> Vec<Vec<u64>> {
        ys.iter().map(|y| y.iter().map(|v| v.to_bits()).collect()).collect()
    }

    #[test]
    fn a_repeat_pass_of_one_width_reuses_the_stored_run() {
        let dir = tmp_dir("memo");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let info = engine.register_suite(1, 256).unwrap();
        let a = engine.matrix(info.key).unwrap();
        let first: Vec<Vec<f64>> = (0..2).map(|s| seeded_vector(info.cols, s)).collect();
        let other: Vec<Vec<f64>> = (2..4).map(|s| seeded_vector(info.cols, s)).collect();
        engine.run_batch(info.key, &first).unwrap();
        let reused = engine.run_batch(info.key, &other).unwrap();
        assert_eq!(engine.stats().simulations, SimulationStats { run: 1, reused: 1 });
        assert!(reused.trace.is_none() && reused.timeline.is_none());
        let want: Vec<Vec<f64>> = other.iter().map(|x| a.spmv(x)).collect();
        assert_eq!(bits(&reused.outputs), bits(&want), "a reused pass answers with Csr::spmv");

        // A fresh engine simulates the other vectors and reports the same
        // run, bit for bit.
        let fresh_dir = tmp_dir("memo-fresh");
        let _ = std::fs::remove_dir_all(&fresh_dir);
        let fresh = ServeEngine::new(ServeConfig::quick(&fresh_dir));
        fresh.register_suite(1, 256).unwrap();
        let simulated = fresh.run_batch(info.key, &other).unwrap();
        assert_eq!(fresh.stats().simulations, SimulationStats { run: 1, reused: 0 });
        assert_eq!(reused.report, simulated.report);
        assert_eq!(bits(&reused.outputs), bits(&simulated.outputs));

        // Another width is another run.
        engine.run_batch(info.key, &other[..1]).unwrap();
        assert_eq!(engine.stats().simulations, SimulationStats { run: 2, reused: 1 });
        let s = engine.stats();
        assert_eq!((s.requests, s.batches, s.fused_max), (5, 3, 2));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn concurrent_passes_of_one_width_simulate_once() {
        // Eight threads submit a solo pass of one matrix at once: one
        // simulation, which the other seven wait for and reuse. Four fresh
        // engines each run the race.
        for round in 0..4 {
            let dir = tmp_dir(&format!("memo-race{round}"));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = ServeEngine::new(ServeConfig::quick(&dir));
            let info = engine.register_suite(1, 256).unwrap();
            let barrier = std::sync::Barrier::new(8);
            let cycles: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|seed| {
                        let (engine, barrier) = (&engine, &barrier);
                        s.spawn(move || {
                            let x = [seeded_vector(info.cols, seed)];
                            barrier.wait();
                            engine.run_batch(info.key, &x).unwrap().report.cycles
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(cycles.iter().all(|&c| c == cycles[0]));
            let sims = engine.stats().simulations;
            assert_eq!(sims, SimulationStats { run: 1, reused: 7 }, "round {round}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_stored_run_still_refuses_bad_batches() {
        let dir = tmp_dir("memo-bad");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let info = engine.register_suite(1, 256).unwrap();
        engine.run_batch(info.key, &[seeded_vector(info.cols, 0)]).unwrap();
        let e = engine.run_batch(info.key, &[]).unwrap_err();
        assert_eq!(e.code(), "bad-request", "empty batch: {e}");
        let e = engine.run_batch(info.key, &[vec![1.0; info.cols + 1]]).unwrap_err();
        assert_eq!(e.code(), "bad-request", "wrong length: {e}");
        let s = engine.stats();
        assert_eq!(s.simulations, SimulationStats { run: 1, reused: 0 });
        assert_eq!((s.requests, s.batches), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_faulted_machine_fails_every_pass_and_stores_nothing() {
        let dir = tmp_dir("memo-fault");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig::quick(&dir);
        cfg.hw.faults.flip_accum_update = Some(0);
        let engine = ServeEngine::new(cfg);
        let info = engine.register_suite(1, 256).unwrap();
        let x = [seeded_vector(info.cols, 0)];
        for pass in 0..3 {
            let e = engine.run_batch(info.key, &x).unwrap_err();
            assert!(
                matches!(e, ServeError::Sim(spacea_arch::SimError::ValidationFailed { .. })),
                "pass {pass}: {e}"
            );
        }
        let s = engine.stats();
        assert_eq!(s.simulations, SimulationStats { run: 3, reused: 0 });
        assert_eq!((s.requests, s.batches), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_performs_zero_mapping_computations() {
        let dir = tmp_dir("warm");
        let _ = std::fs::remove_dir_all(&dir);
        let first = ServeEngine::new(ServeConfig::quick(&dir));
        first.register_suite(1, 256).unwrap();
        first.register_suite(2, 256).unwrap();
        assert_eq!(first.stats().mappings, MappingStats { computed: 2, disk_hits: 0, healed: 0 });

        // The "restarted daemon": a fresh engine over the same cache dir.
        let second = ServeEngine::new(ServeConfig::quick(&dir));
        let info = second.register_suite(1, 256).unwrap();
        second.register_suite(2, 256).unwrap();
        assert_eq!(
            second.stats().mappings,
            MappingStats { computed: 0, disk_hits: 2, healed: 0 },
            "a warm restart must not re-run Phase I/II"
        );
        // And a submit on the warmed mapping still answers correctly.
        let x = seeded_vector(info.cols, 9);
        let rep = second.run_batch(info.key, std::slice::from_ref(&x)).unwrap();
        let a = second.matrix(info.key).unwrap();
        assert_eq!(rep.outputs[0], a.spmv(&x));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_mapping_artifacts_are_healed_by_the_mapping_store() {
        let dir = tmp_dir("heal");
        let _ = std::fs::remove_dir_all(&dir);
        let first = ServeEngine::new(ServeConfig::quick(&dir));
        first.register_suite(1, 256).unwrap();
        first.register_suite(2, 256).unwrap();

        // Between lives one artifact is overwritten with garbage and the
        // other cut to half its bytes; the restarted engine must recompute
        // both, heal the files, and still answer correctly.
        let mut artifacts: Vec<PathBuf> =
            std::fs::read_dir(dir.join("mappings")).unwrap().map(|e| e.unwrap().path()).collect();
        artifacts.sort();
        assert_eq!(artifacts.len(), 2, "{artifacts:?}");
        std::fs::write(&artifacts[0], "{ garbage").unwrap();
        let bytes = std::fs::read(&artifacts[1]).unwrap();
        std::fs::write(&artifacts[1], &bytes[..bytes.len() / 2]).unwrap();
        let second = ServeEngine::new(ServeConfig::quick(&dir));
        let info = second.register_suite(1, 256).unwrap();
        second.register_suite(2, 256).unwrap();
        let m = second.stats().mappings;
        assert_eq!((m.computed, m.healed), (2, 2), "{m:?}");
        let x = seeded_vector(info.cols, 3);
        let rep = second.run_batch(info.key, std::slice::from_ref(&x)).unwrap();
        let a = second.matrix(info.key).unwrap();
        assert_eq!(rep.outputs[0], a.spmv(&x));

        // Healed on disk: a third engine warms cleanly again.
        let third = ServeEngine::new(ServeConfig::quick(&dir));
        third.register_suite(1, 256).unwrap();
        third.register_suite(2, 256).unwrap();
        assert_eq!(third.stats().mappings, MappingStats { computed: 0, disk_hits: 2, healed: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_and_counts_requests() {
        let dir = tmp_dir("manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let info = engine.register_suite(1, 256).unwrap();
        let xs = vec![seeded_vector(info.cols, 0), seeded_vector(info.cols, 1)];
        engine.run_batch(info.key, &xs).unwrap();
        engine.note_requests(&[12, 3], 1000, 0);
        engine.note_shed(7);
        engine.note_deadline_miss(250);
        engine.note_depth(5);
        let path = engine.write_manifest().unwrap();
        let v = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("batches").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("shed").unwrap().as_u64(), Some(1));
        assert!(v.get("retries").is_none(), "the manifest has no retry counter");
        assert_eq!(v.get("deadline_miss").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("queue_hwm").unwrap().as_u64(), Some(5));
        let maps = v.get("mappings").unwrap();
        assert_eq!(maps.get("computed").unwrap().as_u64(), Some(1));
        assert_eq!(maps.get("healed").unwrap().as_u64(), Some(0));
        let sims = v.get("simulations").unwrap();
        assert_eq!(sims.get("run").unwrap().as_u64(), Some(1));
        assert_eq!(sims.get("reused").unwrap().as_u64(), Some(0));
        let tl = engine.timeline();
        assert_eq!(tl.series.len(), 7);
        let count = |metric| tl.series(&MetricKey::global(metric)).map_or(0, Series::total_count);
        assert_eq!(count(Metric::ServeQueueWaitUs), 2);
        assert_eq!(count(Metric::ServeShed), 1);
        assert_eq!(count(Metric::ServeDeadlineMiss), 1);
        assert_eq!(count(Metric::ServeQueueAgeUs), 1);
        engine.write_timeline().unwrap();
        let text = std::fs::read_to_string(dir.join(TIMELINE_FILE)).unwrap();
        spacea_obs::json::validate_chrome_trace(&text).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_first_batch_writes_the_timeline_and_later_ones_wait_out_the_interval() {
        let dir = tmp_dir("flush");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let path = dir.join(TIMELINE_FILE);
        let read = || std::fs::read_to_string(&path).expect("the timeline was written");
        let started = Instant::now();
        engine.note_requests(&[7], 1000, 0);
        let first = read();
        let first_events = spacea_obs::json::validate_chrome_trace(&first).unwrap().counter_events;
        for wait in 0..100 {
            engine.note_requests(&[wait], 1000, 0);
        }
        // The claim is made after `started`, so these 100 ran inside one
        // interval when this holds (it does unless the host stalls a second).
        if started.elapsed() < FLUSH_INTERVAL {
            assert_eq!(read(), first, "no rewrite within the interval");
        }
        std::thread::sleep(FLUSH_INTERVAL);
        engine.note_requests(&[9, 9], 1000, 0);
        let later = spacea_obs::json::validate_chrome_trace(&read()).unwrap();
        assert!(
            later.counter_events > first_events,
            "the next batch after the interval rewrote it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_matrix_and_bad_batch_are_errors() {
        let dir = tmp_dir("err");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ServeEngine::new(ServeConfig::quick(&dir));
        let e = engine.run_batch(42, &[vec![1.0]]).unwrap_err();
        assert_eq!(e.code(), "unknown-matrix");
        let info = engine.register_suite(1, 256).unwrap();
        let e = engine.run_batch(info.key, &[]).unwrap_err();
        assert_eq!(e.code(), "bad-request", "empty batch: {e}");
        let e = engine.run_batch(info.key, &[vec![1.0; 3]]).unwrap_err();
        assert_eq!(e.code(), "bad-request", "wrong length: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
