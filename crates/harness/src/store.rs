//! The shared result store: in-memory map plus optional on-disk JSON cache,
//! one file per key.
//!
//! The cache directory is its own index. Each result file is written as
//! its job finishes, which sets the file's mtime, and a disk hit refreshes
//! that mtime, so [`ResultStore::gc`] reads an entry's size and recency from
//! the entry's own file. The store writes nothing else, so processes sharing
//! one directory (sweep shards) never overwrite each other's bookkeeping.
//!
//! A corrupt entry is healed in place: [`ResultStore::lookup`] reports it
//! and misses, and the recompute's [`ResultStore::insert`] replaces the file
//! by tmp file and rename. `read_artifact` reads this store's entries and
//! the mapping store's artifacts alike, so both tell a missing file from a
//! damaged one the same way.

use crate::job::JobKey;
use crate::lock;
use spacea_arch::SimReport;
use spacea_gpu::GpuRun;
use spacea_model::ActivitySummary;
use spacea_obs::json::{self, Json};
use spacea_sim::stats::{CamCounters, LdqCounters, SramCounters};
use std::collections::HashMap;
use std::fs::{File, Metadata};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// A finished job's result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// A SpaceA simulation report.
    Sim(Arc<SimReport>),
    /// A GPU baseline model run.
    Gpu(GpuRun),
    /// A scenario-matrix cell run through a `spacea-backend` backend.
    Scenario(ScenarioRec),
}

/// The cached record of one scenario-matrix cell. The backend / format /
/// partition axes live in the job spec (and its key); the record carries
/// only what the backend measured, plus the bitwise verdict against the
/// CSR reference SpMV.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRec {
    /// Modelled execution time in cycles of the backend's own clock.
    pub cycles: u64,
    /// Modelled execution time in seconds.
    pub time_s: f64,
    /// Bytes of matrix storage streamed (the format's footprint).
    pub stream_bytes: u64,
    /// Useful-payload throughput, bytes/s.
    pub effective_bw: f64,
    /// The format's storage bytes per logical non-zero.
    pub bytes_per_nnz: f64,
    /// Accumulator reorder-window stalls (HBM backend; 0 elsewhere).
    pub reorder_stalls: u64,
    /// FNV-1a over the output vector's IEEE-754 bits.
    pub y_hash: u64,
    /// Whether the output was bit-identical to `Csr::spmv`. Always true
    /// for cached records — a mismatch fails the job and is never cached —
    /// but persisted so tables can prove the check ran.
    pub bitwise_ok: bool,
}

/// Where a job's result came from when it was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Already in the in-memory map (computed or loaded earlier this run).
    MemoryHit,
    /// Loaded from the on-disk cache.
    DiskHit,
    /// Not cached anywhere; the caller computed it.
    Computed,
}

impl CacheOutcome {
    /// Short JSON/display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::MemoryHit => "hit",
            CacheOutcome::DiskHit => "disk-hit",
            CacheOutcome::Computed => "computed",
        }
    }
}

/// Aggregate cache counters for one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub mem_hits: u64,
    /// Lookups answered from disk.
    pub disk_hits: u64,
    /// Lookups that found nothing (the caller computed the result).
    pub misses: u64,
    /// On-disk entries that existed but could not be decoded. Every corrupt
    /// entry is also counted as a miss (the caller recomputes); this counter
    /// makes the damage visible instead of silently swallowed. The offending
    /// paths are in [`ResultStore::corrupt_paths`].
    pub corrupt: u64,
}

/// Eviction budgets for [`ResultStore::gc`]. `None` disables that budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Keep the cache directory at or below this many bytes of entries.
    pub max_bytes: Option<u64>,
    /// Evict entries whose last hit is older than this many seconds.
    pub max_age_secs: Option<u64>,
}

/// What one [`ResultStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Cache entries found on disk.
    pub scanned: usize,
    /// Their total size in bytes.
    pub scanned_bytes: u64,
    /// Entries removed.
    pub evicted: usize,
    /// Bytes removed.
    pub evicted_bytes: u64,
    /// Entries kept.
    pub kept: usize,
    /// Bytes kept.
    pub kept_bytes: u64,
    /// Entries exempt from eviction because this process hit or wrote them.
    pub protected: usize,
}

impl GcReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "gc: scanned {} entries ({} B), evicted {} ({} B), kept {} ({} B), {} protected",
            self.scanned,
            self.scanned_bytes,
            self.evicted,
            self.evicted_bytes,
            self.kept,
            self.kept_bytes,
            self.protected
        )
    }
}

/// Job results keyed by content hash, shared by every worker and every
/// experiment in a process; optionally persisted to a directory with one
/// JSON file per key, whose size and mtime [`ResultStore::gc`] reads.
pub struct ResultStore {
    /// Every result this process computed or loaded. Its keys are the
    /// entries `gc` never evicts in this run.
    mem: Mutex<HashMap<u64, JobResult>>,
    disk: Option<PathBuf>,
    corrupt_paths: Mutex<Vec<PathBuf>>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

fn now_secs() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// A file's mtime in whole unix seconds, or `now` if it has none.
fn mtime_secs(meta: &Metadata, now: u64) -> u64 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_secs())
        .unwrap_or(now)
}

/// One entry [`ResultStore::gc`] may remove. The derived order is the
/// eviction order: oldest mtime first, then key.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct GcFile {
    mtime: u64,
    key: u64,
    bytes: u64,
    protected: bool,
}

impl ResultStore {
    /// A store with no disk persistence (`--no-cache`).
    pub fn in_memory() -> Self {
        ResultStore {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            corrupt_paths: Mutex::new(Vec::new()),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A store persisting results under `dir` (created if missing).
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore { disk: Some(dir), ..ResultStore::in_memory() })
    }

    /// Looks up a result, recording a hit or miss in the stats.
    ///
    /// A disk hit is promoted into the in-memory map so later lookups are
    /// memory hits. A corrupt on-disk entry is reported on stderr and counts
    /// as a miss *and* in [`CacheStats::corrupt`], recording the offending
    /// path. The file stays where it is: the caller's recompute heals it,
    /// because [`ResultStore::insert`] replaces it. A job that then fails is
    /// never cached, so its corrupt entry stays on disk and the next lookup
    /// reports it again.
    pub fn lookup(&self, key: JobKey) -> Option<(JobResult, CacheOutcome)> {
        if let Some(r) = lock(&self.mem).get(&key.0) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some((r.clone(), CacheOutcome::MemoryHit));
        }
        if let Some(dir) = &self.disk {
            let path = cache_path(dir, key);
            match read_artifact(&path, decode_result) {
                Artifact::Valid(r) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    lock(&self.mem).insert(key.0, r.clone());
                    return Some((r, CacheOutcome::DiskHit));
                }
                Artifact::Corrupt(reason) => {
                    eprintln!(
                        "spacea-harness: corrupt cache entry {} ({reason}); recomputing",
                        path.display()
                    );
                    lock(&self.corrupt_paths).push(path);
                }
                Artifact::Absent => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a computed result, persisting it if a disk cache is enabled.
    /// The key enters the in-memory map before the file is written, so a
    /// concurrent [`ResultStore::gc`] never finds the new file unprotected.
    ///
    /// Disk write failures are reported on stderr and otherwise ignored: the
    /// cache is an accelerator, not a correctness dependency.
    pub fn insert(&self, key: JobKey, result: JobResult) {
        lock(&self.mem).insert(key.0, result.clone());
        if let Some(dir) = &self.disk {
            if let Err(e) = write_atomic(&cache_path(dir, key), &encode_result(&result).to_text()) {
                eprintln!("spacea-harness: failed to persist job {key}: {e}");
            }
        }
    }

    /// Paths of on-disk entries that failed to decode this run.
    pub fn corrupt_paths(&self) -> Vec<PathBuf> {
        lock(&self.corrupt_paths).clone()
    }

    /// Enforces `policy` on the disk cache: evicts entries past the age
    /// budget, then least-recently-hit entries until the directory fits the
    /// size budget. Eviction stops as soon as the budget is met (never
    /// over-evicts), and entries this process hit or wrote are never removed
    /// — a running sweep cannot lose its own results. In-memory copies are
    /// untouched (they stay valid; gc manages the disk footprint only).
    ///
    /// An entry's size is its file's length and its last hit is its file's
    /// mtime in whole seconds (ties broken by key). Only `<16-hex>.json`
    /// files are entries; anything else in the directory is ignored, and
    /// gc enters no subdirectory.
    pub fn gc(&self, policy: &GcPolicy) -> std::io::Result<GcReport> {
        let Some(dir) = &self.disk else { return Ok(GcReport::default()) };
        let now = now_secs();
        let mut files: Vec<GcFile> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".json") else { continue };
            if stem.len() != 16 {
                continue; // last-run.json, foreign files
            }
            let Ok(key) = u64::from_str_radix(stem, 16) else { continue };
            let meta = entry.metadata()?;
            let (mtime, bytes) = (mtime_secs(&meta, now), meta.len());
            files.push(GcFile { mtime, key, bytes, protected: false });
        }
        // Protection is read after the scan: `insert` puts a key in `mem`
        // before it writes the file, so every file this process wrote that
        // the scan saw is protected.
        let mem = lock(&self.mem);
        for f in &mut files {
            f.protected = mem.contains_key(&f.key);
        }
        drop(mem);
        files.sort_unstable();

        let mut report = GcReport {
            scanned: files.len(),
            scanned_bytes: files.iter().map(|f| f.bytes).sum(),
            protected: files.iter().filter(|f| f.protected).count(),
            ..GcReport::default()
        };
        let mut total = report.scanned_bytes;
        let mut evict = vec![false; files.len()];
        if let Some(max_age) = policy.max_age_secs {
            for (f, e) in files.iter().zip(&mut evict) {
                if now.saturating_sub(f.mtime) > max_age && !f.protected {
                    *e = true;
                    total -= f.bytes;
                }
            }
        }
        if let Some(max_bytes) = policy.max_bytes {
            for (f, e) in files.iter().zip(&mut evict) {
                if total <= max_bytes {
                    break; // budget met: never evict more than needed
                }
                if !f.protected && !*e {
                    *e = true;
                    total -= f.bytes;
                }
            }
        }

        for (f, &e) in files.iter().zip(&evict) {
            if e {
                std::fs::remove_file(cache_path(dir, JobKey(f.key)))?;
                report.evicted += 1;
                report.evicted_bytes += f.bytes;
            } else {
                report.kept += 1;
                report.kept_bytes += f.bytes;
            }
        }
        Ok(report)
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: lock(&self.corrupt_paths).len() as u64,
        }
    }

    /// Number of results currently held in memory.
    pub fn len(&self) -> usize {
        lock(&self.mem).len()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writes `text` to `path` via a tmp file in the same directory (created if
/// missing) and a rename, so a concurrent reader never sees a torn file. The
/// tmp name is unique per write (pid + sequence), so two writers of one path
/// never rename each other's tmp file away.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

fn cache_path(dir: &Path, key: JobKey) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// What [`read_artifact`] found at a path.
pub(crate) enum Artifact<T> {
    /// No file exists there.
    Absent,
    /// The file read as UTF-8, parsed as JSON and decoded.
    Valid(T),
    /// The file exists but failed one of those steps, for this reason.
    Corrupt(String),
}

/// Reads one persisted JSON file and decodes it with `decode`. Only a file
/// that does not exist is absent. A valid read refreshes the file's mtime
/// through the handle it read, since the mtime is a result entry's recency
/// for [`ResultStore::gc`]; a failure to set it is ignored.
pub(crate) fn read_artifact<T>(
    path: &Path,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Artifact<T> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Artifact::Absent,
        Err(e) => return Artifact::Corrupt(e.to_string()),
    };
    let text = std::io::read_to_string(&file).map_err(|e| e.to_string());
    match text.and_then(|text| json::parse(&text)).and_then(|v| decode(&v)) {
        Ok(value) => {
            let _ = file.set_modified(SystemTime::now());
            Artifact::Valid(value)
        }
        Err(reason) => Artifact::Corrupt(reason),
    }
}

// --- serialization -------------------------------------------------------
//
// One JSON object per result. Floats are stored as IEEE-754 bit patterns
// (see `spacea_obs::json`), so a rehydrated result is bit-identical to the
// computed one — with one deliberate exception: `SimReport::output` (the
// simulated result vector, ~rows × 8 bytes) is elided, because nothing
// downstream of validation reads it and it dominates the file size. The
// per-PE work vector, which tables do read, is kept.

fn encode_result(r: &JobResult) -> Json {
    match r {
        JobResult::Sim(report) => {
            Json::obj(vec![("kind", Json::Str("sim".into())), ("report", encode_sim(report))])
        }
        JobResult::Gpu(run) => {
            Json::obj(vec![("kind", Json::Str("gpu".into())), ("run", encode_gpu(run))])
        }
        JobResult::Scenario(rec) => {
            Json::obj(vec![("kind", Json::Str("scenario".into())), ("rec", encode_scenario(rec))])
        }
    }
}

fn decode_result(v: &Json) -> Result<JobResult, String> {
    match v.get("kind").and_then(Json::as_str) {
        Some("sim") => {
            let report = v.get("report").ok_or("missing 'report'")?;
            Ok(JobResult::Sim(Arc::new(decode_sim(report)?)))
        }
        Some("gpu") => {
            let run = v.get("run").ok_or("missing 'run'")?;
            Ok(JobResult::Gpu(decode_gpu(run)?))
        }
        Some("scenario") => {
            let rec = v.get("rec").ok_or("missing 'rec'")?;
            Ok(JobResult::Scenario(decode_scenario(rec)?))
        }
        other => Err(format!("unknown result kind {other:?}")),
    }
}

fn encode_scenario(r: &ScenarioRec) -> Json {
    Json::obj(vec![
        ("cycles", Json::U64(r.cycles)),
        ("time_s", Json::f64_bits(r.time_s)),
        ("stream_bytes", Json::U64(r.stream_bytes)),
        ("effective_bw", Json::f64_bits(r.effective_bw)),
        ("bytes_per_nnz", Json::f64_bits(r.bytes_per_nnz)),
        ("reorder_stalls", Json::U64(r.reorder_stalls)),
        ("y_hash", Json::U64(r.y_hash)),
        ("bitwise_ok", Json::Bool(r.bitwise_ok)),
    ])
}

fn decode_scenario(v: &Json) -> Result<ScenarioRec, String> {
    Ok(ScenarioRec {
        cycles: u64_field(v, "cycles")?,
        time_s: f64_field(v, "time_s")?,
        stream_bytes: u64_field(v, "stream_bytes")?,
        effective_bw: f64_field(v, "effective_bw")?,
        bytes_per_nnz: f64_field(v, "bytes_per_nnz")?,
        reorder_stalls: u64_field(v, "reorder_stalls")?,
        y_hash: u64_field(v, "y_hash")?,
        bitwise_ok: v.get("bitwise_ok").and_then(Json::as_bool).ok_or("missing 'bitwise_ok'")?,
    })
}

fn encode_gpu(r: &GpuRun) -> Json {
    Json::obj(vec![
        ("time_s", Json::f64_bits(r.time_s)),
        ("dram_bytes", Json::U64(r.dram_bytes)),
        ("dram_read_throughput", Json::f64_bits(r.dram_read_throughput)),
        ("effective_read_throughput", Json::f64_bits(r.effective_read_throughput)),
        ("bw_utilization", Json::f64_bits(r.bw_utilization)),
        ("alu_utilization", Json::f64_bits(r.alu_utilization)),
        ("energy_j", Json::f64_bits(r.energy_j)),
        ("bw_efficiency", Json::f64_bits(r.bw_efficiency)),
    ])
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing u64 '{key}'"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64_bits).ok_or_else(|| format!("missing f64 '{key}'"))
}

fn decode_gpu(v: &Json) -> Result<GpuRun, String> {
    Ok(GpuRun {
        time_s: f64_field(v, "time_s")?,
        dram_bytes: u64_field(v, "dram_bytes")?,
        dram_read_throughput: f64_field(v, "dram_read_throughput")?,
        effective_read_throughput: f64_field(v, "effective_read_throughput")?,
        bw_utilization: f64_field(v, "bw_utilization")?,
        alu_utilization: f64_field(v, "alu_utilization")?,
        energy_j: f64_field(v, "energy_j")?,
        bw_efficiency: f64_field(v, "bw_efficiency")?,
    })
}

fn encode_sim(r: &SimReport) -> Json {
    Json::obj(vec![
        ("cycles", Json::U64(r.cycles)),
        ("activity", encode_activity(&r.activity)),
        ("l1_hit_rate", Json::f64_bits(r.l1_hit_rate)),
        ("pe_work", Json::Arr(r.pe_work.iter().map(|&w| Json::U64(w)).collect())),
        ("pe_busy_fraction", Json::f64_bits(r.pe_busy_fraction)),
        ("matrix_bank_busy_fraction", Json::f64_bits(r.matrix_bank_busy_fraction)),
        ("vector_bank_busy_fraction", Json::f64_bits(r.vector_bank_busy_fraction)),
        ("events_processed", Json::U64(r.events_processed)),
    ])
}

fn decode_sim(v: &Json) -> Result<SimReport, String> {
    let pe_work = v
        .get("pe_work")
        .and_then(Json::as_arr)
        .ok_or("missing 'pe_work'")?
        .iter()
        .map(|w| w.as_u64().ok_or_else(|| "bad pe_work entry".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(SimReport {
        cycles: u64_field(v, "cycles")?,
        activity: decode_activity(v.get("activity").ok_or("missing 'activity'")?)?,
        l1_hit_rate: f64_field(v, "l1_hit_rate")?,
        pe_work,
        pe_busy_fraction: f64_field(v, "pe_busy_fraction")?,
        matrix_bank_busy_fraction: f64_field(v, "matrix_bank_busy_fraction")?,
        vector_bank_busy_fraction: f64_field(v, "vector_bank_busy_fraction")?,
        output: Vec::new(), // elided on disk; see module comment
        events_processed: u64_field(v, "events_processed")?,
    })
}

fn encode_activity(a: &ActivitySummary) -> Json {
    let sram = |c: &SramCounters| {
        Json::obj(vec![("reads", Json::U64(c.reads)), ("writes", Json::U64(c.writes))])
    };
    let cam = |c: &CamCounters| {
        Json::obj(vec![
            ("hits", Json::U64(c.hits)),
            ("misses", Json::U64(c.misses)),
            ("fills", Json::U64(c.fills)),
            ("evictions", Json::U64(c.evictions)),
        ])
    };
    let ldq = |c: &LdqCounters| {
        Json::obj(vec![
            ("new_requests", Json::U64(c.new_requests)),
            ("deduplicated", Json::U64(c.deduplicated)),
            ("completed", Json::U64(c.completed)),
            ("rejected_full", Json::U64(c.rejected_full)),
        ])
    };
    Json::obj(vec![
        ("dram_activates", Json::U64(a.dram_activates)),
        ("dram_read_beats", Json::U64(a.dram_read_beats)),
        ("dram_write_beats", Json::U64(a.dram_write_beats)),
        ("fpu_ops", Json::U64(a.fpu_ops)),
        ("pe_queue", sram(&a.pe_queue)),
        ("register_file", sram(&a.register_file)),
        ("l1_cam", cam(&a.l1_cam)),
        ("l2_cam", cam(&a.l2_cam)),
        ("l1_ldq", ldq(&a.l1_ldq)),
        ("l2_ldq", ldq(&a.l2_ldq)),
        ("tsv_bytes", Json::U64(a.tsv_bytes)),
        ("noc_byte_hops", Json::U64(a.noc_byte_hops)),
    ])
}

fn decode_activity(v: &Json) -> Result<ActivitySummary, String> {
    let sram = |key: &str| -> Result<SramCounters, String> {
        let c = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        Ok(SramCounters { reads: u64_field(c, "reads")?, writes: u64_field(c, "writes")? })
    };
    let cam = |key: &str| -> Result<CamCounters, String> {
        let c = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        Ok(CamCounters {
            hits: u64_field(c, "hits")?,
            misses: u64_field(c, "misses")?,
            fills: u64_field(c, "fills")?,
            evictions: u64_field(c, "evictions")?,
        })
    };
    let ldq = |key: &str| -> Result<LdqCounters, String> {
        let c = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        Ok(LdqCounters {
            new_requests: u64_field(c, "new_requests")?,
            deduplicated: u64_field(c, "deduplicated")?,
            completed: u64_field(c, "completed")?,
            rejected_full: u64_field(c, "rejected_full")?,
        })
    };
    Ok(ActivitySummary {
        dram_activates: u64_field(v, "dram_activates")?,
        dram_read_beats: u64_field(v, "dram_read_beats")?,
        dram_write_beats: u64_field(v, "dram_write_beats")?,
        fpu_ops: u64_field(v, "fpu_ops")?,
        pe_queue: sram("pe_queue")?,
        register_file: sram("register_file")?,
        l1_cam: cam("l1_cam")?,
        l2_cam: cam("l2_cam")?,
        l1_ldq: ldq("l1_ldq")?,
        l2_ldq: ldq("l2_ldq")?,
        tsv_bytes: u64_field(v, "tsv_bytes")?,
        noc_byte_hops: u64_field(v, "noc_byte_hops")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gpu() -> GpuRun {
        GpuRun {
            time_s: 1.0 / 3.0,
            dram_bytes: 123,
            dram_read_throughput: 1e9,
            effective_read_throughput: 0.5e9,
            bw_utilization: 0.27,
            alu_utilization: 0.0268,
            energy_j: 0.125,
            bw_efficiency: 0.9,
        }
    }

    #[test]
    fn gpu_round_trips_exactly_and_ignores_retired_members() {
        let want = JobResult::Gpu(sample_gpu());
        let text = encode_result(&want).to_text();
        assert_eq!(decode_result(&json::parse(&text).unwrap()).unwrap(), want);
        // Entries written by older builds also hold the read traffic, the
        // achieved GFLOP/s and the L2 hit rate on X gathers, members nothing
        // read; they still decode to the same run.
        let older = text
            .replacen(
                "\"dram_read_throughput\"",
                "\"dram_read_bytes\":100,\"dram_read_throughput\"",
                1,
            )
            .replacen(
                "\"alu_utilization\"",
                &format!("\"gflops\":{},\"alu_utilization\"", 1.5f64.to_bits()),
                1,
            )
            .replacen("}}", &format!(",\"x_l2_hit_rate\":{}}}}}", 0.75f64.to_bits()), 1);
        for member in ["dram_read_bytes", "gflops", "x_l2_hit_rate"] {
            assert!(older.contains(&format!("\"{member}\":")), "{older}");
        }
        assert_eq!(decode_result(&json::parse(&older).unwrap()).unwrap(), want);
    }

    fn sample_scenario() -> ScenarioRec {
        ScenarioRec {
            cycles: 9001,
            time_s: 2.0e-5 / 3.0,
            stream_bytes: 65_536,
            effective_bw: 345.6e9 / 7.0,
            bytes_per_nnz: 12.75,
            reorder_stalls: 42,
            y_hash: 0xdead_beef_cafe_f00d,
            bitwise_ok: true,
        }
    }

    #[test]
    fn scenario_round_trips_exactly() {
        let rec = sample_scenario();
        let back = decode_result(
            &json::parse(&encode_result(&JobResult::Scenario(rec.clone())).to_text()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, JobResult::Scenario(rec));
    }

    #[test]
    fn sim_round_trips_exactly_and_ignores_retired_members() {
        let report = SimReport {
            cycles: 1234,
            activity: ActivitySummary {
                fpu_ops: 77,
                l2_cam: CamCounters { hits: 1, misses: 2, ..Default::default() },
                tsv_bytes: 4096,
                noc_byte_hops: 99,
                ..Default::default()
            },
            l1_hit_rate: 0.5,
            pe_work: vec![3, 1, 4],
            pe_busy_fraction: 0.125,
            matrix_bank_busy_fraction: 0.0625,
            vector_bank_busy_fraction: 0.031_25,
            output: Vec::new(),
            events_processed: 555,
        };
        let want = JobResult::Sim(Arc::new(report));
        let text = encode_result(&want).to_text();
        assert_eq!(decode_result(&json::parse(&text).unwrap()).unwrap(), want);
        // Entries written by older builds also hold an update-buffer hit rate,
        // a scheduled-event count and a `validated` flag, and copies of facts
        // the report keeps once: the time in seconds, the activity's cycle
        // count, L2 hit rate and TSV and NoC traffic, and the normalized
        // workload. They still decode to the same report.
        let bits = |v: f64| v.to_bits().to_string();
        let older = text
            .replacen("\"activity\":{", "\"activity\":{\"cycles\":1234,", 1)
            .replacen(
                "\"activity\"",
                &format!("\"seconds\":{},\"activity\"", bits(1234.0 * 1e-9)),
                1,
            )
            .replacen(
                "\"pe_work\"",
                &format!(
                    "\"l2_hit_rate\":{},\"tsv_bytes\":4096,\"noc_byte_hops\":99,\"pe_work\"",
                    bits(1.0 / 3.0)
                ),
                1,
            )
            .replacen(
                "\"pe_busy_fraction\"",
                &format!(
                    "\"normalized_workload\":{},\"update_buffer_hit_rate\":{},\"pe_busy_fraction\"",
                    bits(2.0 / 3.0),
                    bits(0.25)
                ),
                1,
            )
            .replacen(
                "\"events_processed\"",
                "\"validated\":true,\"events_scheduled\":555,\"events_processed\"",
                1,
            );
        for member in [
            "\"seconds\":",
            "\"activity\":{\"cycles\":1234,",
            "\"l2_hit_rate\":",
            "\"tsv_bytes\":4096,\"noc_byte_hops\":99,\"pe_work\"",
            "\"normalized_workload\":",
            "\"update_buffer_hit_rate\":",
            "\"validated\":",
            "\"events_scheduled\":",
        ] {
            assert!(older.contains(member), "{older}");
        }
        assert_eq!(decode_result(&json::parse(&older).unwrap()).unwrap(), want);
    }

    #[test]
    fn memory_store_counts_hits_and_misses() {
        let store = ResultStore::in_memory();
        let key = JobKey(42);
        assert!(store.lookup(key).is_none());
        store.insert(key, JobResult::Gpu(sample_gpu()));
        let (_, outcome) = store.lookup(key).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        let stats = store.stats();
        assert_eq!((stats.mem_hits, stats.disk_hits, stats.misses), (1, 0, 1));
    }

    #[test]
    fn disk_store_survives_process_restart() {
        let dir = std::env::temp_dir().join(format!("spacea-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = JobKey(7);
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(key, JobResult::Gpu(sample_gpu()));
        }
        // A fresh store (fresh memory) must find the entry on disk.
        let store = ResultStore::with_disk(&dir).unwrap();
        let (result, outcome) = store.lookup(key).unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(result, JobResult::Gpu(sample_gpu()));
        // Promoted to memory: second lookup is a memory hit.
        assert_eq!(store.lookup(key).unwrap().1, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_counted_miss() {
        let dir = std::env::temp_dir().join(format!("spacea-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::with_disk(&dir).unwrap();
        let key = JobKey(9);
        std::fs::write(dir.join(format!("{key}.json")), "{not json").unwrap();
        assert!(store.lookup(key).is_none());
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.corrupt, 1, "corrupt entries must be counted, not swallowed");
        let paths = store.corrupt_paths();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with(format!("{key}.json")), "{paths:?}");
        // A plain missing entry is a miss but NOT corrupt.
        assert!(store.lookup(JobKey(10)).is_none());
        assert_eq!(store.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spacea-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry_bytes(dir: &Path, key: JobKey) -> u64 {
        std::fs::metadata(dir.join(format!("{key}.json"))).unwrap().len()
    }

    #[test]
    fn gc_never_evicts_below_the_byte_budget() {
        let dir = tmp_dir("gc-budget");
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            for k in 1..=4u64 {
                store.insert(JobKey(k), JobResult::Gpu(sample_gpu()));
            }
        }
        // Fresh process (nothing touched): all four entries are fair game.
        let store = ResultStore::with_disk(&dir).unwrap();
        let per_entry = entry_bytes(&dir, JobKey(1));
        // Budget for exactly two entries: gc must evict two, not three.
        let budget = 2 * per_entry;
        let report = store.gc(&GcPolicy { max_bytes: Some(budget), max_age_secs: None }).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.evicted, 2, "{report:?}");
        assert_eq!(report.kept, 2);
        assert!(report.kept_bytes <= budget);
        // Survivors still load from a fresh store: the cache round-trips.
        let fresh = ResultStore::with_disk(&dir).unwrap();
        let served: usize = (1..=4u64)
            .filter(|&k| {
                fresh
                    .lookup(JobKey(k))
                    .map(|(r, o)| {
                        assert_eq!(o, CacheOutcome::DiskHit);
                        assert_eq!(r, JobResult::Gpu(sample_gpu()));
                        true
                    })
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(served, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_spares_entries_touched_this_run() {
        let dir = tmp_dir("gc-touched");
        let store = ResultStore::with_disk(&dir).unwrap();
        store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
        store.insert(JobKey(2), JobResult::Gpu(sample_gpu()));
        // A zero-byte budget would evict everything — but both entries were
        // written by this process, so they are protected.
        let report = store.gc(&GcPolicy { max_bytes: Some(0), max_age_secs: None }).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(report.protected, 2);
        assert_eq!(report.kept, 2);
        // A fresh process with no touches evicts them all.
        let fresh = ResultStore::with_disk(&dir).unwrap();
        let report = fresh.gc(&GcPolicy { max_bytes: Some(0), max_age_secs: None }).unwrap();
        assert_eq!(report.evicted, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sets `path`'s mtime `secs` seconds into the past.
    fn backdate(path: &Path, secs: u64) {
        let old = SystemTime::now() - std::time::Duration::from_secs(secs);
        File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
    }

    #[test]
    fn gc_age_budget_dates_entries_by_mtime_and_a_disk_hit_refreshes_it() {
        let dir = tmp_dir("gc-age");
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
            store.insert(JobKey(2), JobResult::Gpu(sample_gpu()));
        }
        backdate(&cache_path(&dir, JobKey(1)), 7200);
        backdate(&cache_path(&dir, JobKey(2)), 7200);
        // A later run's disk hit makes entry 2 recent again.
        let hit = ResultStore::with_disk(&dir).unwrap();
        assert_eq!(hit.lookup(JobKey(2)).unwrap().1, CacheOutcome::DiskHit);
        drop(hit);
        // A fresh store protects nothing, so only recency decides.
        let fresh = ResultStore::with_disk(&dir).unwrap();
        let report = fresh.gc(&GcPolicy { max_bytes: None, max_age_secs: Some(3600) }).unwrap();
        assert_eq!((report.evicted, report.kept, report.protected), (1, 1, 0), "{report:?}");
        assert!(!cache_path(&dir, JobKey(1)).exists());
        assert!(cache_path(&dir, JobKey(2)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_without_budgets_is_a_no_op() {
        let dir = tmp_dir("gc-noop");
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
        }
        let store = ResultStore::with_disk(&dir).unwrap();
        let report = store.gc(&GcPolicy::default()).unwrap();
        assert_eq!((report.scanned, report.evicted, report.kept), (1, 0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_healed_in_place() {
        let dir = tmp_dir("heal");
        let store = ResultStore::with_disk(&dir).unwrap();
        let key = JobKey(11);
        std::fs::write(cache_path(&dir, key), "garbage").unwrap();
        assert!(store.lookup(key).is_none());
        assert_eq!(store.stats().corrupt, 1);
        // The recompute's insert replaces the damaged file where it lies.
        store.insert(key, JobResult::Gpu(sample_gpu()));
        let fresh = ResultStore::with_disk(&dir).unwrap();
        let hit = fresh.lookup(key);
        assert_eq!(hit, Some((JobResult::Gpu(sample_gpu()), CacheOutcome::DiskHit)));
        assert_eq!(fresh.stats().corrupt, 0);
        assert!(!dir.join("quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_or_negative_counters_are_corrupt() {
        // The parser reads `1.5` and `-3` as numbers; only the decoders'
        // `as_u64` rejects them, which must still make the entry corrupt.
        // So must bytes that are not UTF-8 in front of valid JSON.
        let dir = tmp_dir("non-u64");
        let store = ResultStore::with_disk(&dir).unwrap();
        let good = encode_result(&JobResult::Scenario(sample_scenario())).to_text();
        assert!(good.contains("\"cycles\":9001"), "{good}");
        let mut inputs: Vec<Vec<u8>> = ["1.5", "-3"]
            .into_iter()
            .map(|bad| good.replace("\"cycles\":9001", &format!("\"cycles\":{bad}")).into_bytes())
            .collect();
        inputs.push([&[0xff, 0xfe], good.as_bytes()].concat());
        for (i, bytes) in inputs.iter().enumerate() {
            let key = JobKey(0x100 + i as u64);
            std::fs::write(cache_path(&dir, key), bytes).unwrap();
            assert!(store.lookup(key).is_none(), "input {i} must not decode");
        }
        assert_eq!(store.stats().corrupt, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_foreign_files() {
        let dir = tmp_dir("gc-foreign");
        let store = ResultStore::with_disk(&dir).unwrap();
        // `index.json` is what older versions of the store kept here.
        // So is a `quarantine/` directory, where they moved corrupt entries.
        let foreign =
            ["last-run.json", "index.json", "notes.txt", "quarantine/0000000000000001.json"];
        std::fs::create_dir_all(dir.join("quarantine")).unwrap();
        for name in foreign {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let report = store.gc(&GcPolicy { max_bytes: Some(0), max_age_secs: Some(0) }).unwrap();
        assert_eq!(report.scanned, 0);
        for name in foreign {
            assert!(dir.join(name).exists(), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
