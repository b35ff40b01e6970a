//! The shared result store: in-memory map plus optional on-disk JSON cache,
//! with a persisted per-key index (`index.json`) driving cache GC.
//!
//! Result files are written as they are computed; the index is not.
//! Inserts and disk hits update the in-memory index and mark it dirty, and
//! the file is written at the store's commit points: an explicit
//! [`ResultStore::persist_index`] (the harness calls it when it writes the
//! run manifest), every [`ResultStore::gc`] pass, and the store's drop if
//! the index is still dirty. The index is advisory bookkeeping for GC, so
//! a run killed before its commit leaves the previous index; result files
//! it does not list are sized and dated from file metadata by the next
//! `gc`, which rewrites the index to exactly the files on disk.

use crate::job::JobKey;
use spacea_arch::SimReport;
use spacea_gpu::GpuRun;
use spacea_model::ActivitySummary;
use spacea_obs::json::{self, Json};
use spacea_sim::stats::{CamCounters, LdqCounters, SramCounters};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// Locks a mutex, recovering the data from a poisoned lock. Every mutation
/// under these locks is a single map/vec operation, so a worker that panicked
/// mid-update can at worst leave a stale counter — never a torn result. The
/// store must keep serving the surviving workers of a supervised sweep.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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

impl CacheStats {
    /// Hits (memory + disk) as a fraction of all lookups.
    pub fn hit_fraction(&self) -> f64 {
        let total = self.mem_hits + self.disk_hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        (self.mem_hits + self.disk_hits) as f64 / total as f64
    }
}

/// Per-key bookkeeping persisted as `index.json` next to the cached
/// results: entry size plus creation and last-hit times (unix seconds).
/// [`ResultStore::gc`] reads it to order evictions by recency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Size of the persisted entry in bytes.
    pub bytes: u64,
    /// When the entry was first persisted (unix seconds).
    pub created: u64,
    /// When the entry was last served from disk or (re)written.
    pub last_hit: u64,
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
    /// Quarantined (corrupt) files removed by this pass. Also counted in
    /// `evicted`/`evicted_bytes`; this breaks out how many were quarantine
    /// sweepings rather than live cache entries.
    pub quarantined: usize,
}

impl GcReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "gc: scanned {} entries ({} B), evicted {} ({} B, {} from quarantine), \
             kept {} ({} B), {} protected",
            self.scanned,
            self.scanned_bytes,
            self.evicted,
            self.evicted_bytes,
            self.quarantined,
            self.kept,
            self.kept_bytes,
            self.protected
        )
    }
}

/// Job results keyed by content hash, shared by every worker and every
/// experiment in a process; optionally persisted to a directory with one
/// JSON file per key plus an `index.json` recording per-entry size and
/// recency for [`ResultStore::gc`] (written at the commit points the module
/// docs list, not per insert).
pub struct ResultStore {
    mem: Mutex<HashMap<u64, JobResult>>,
    disk: Option<PathBuf>,
    index: Mutex<HashMap<u64, IndexEntry>>,
    /// The index changed since it was last written. Set and cleared only
    /// while the `index` lock is held, so a write never loses a change.
    index_dirty: AtomicBool,
    /// Keys this process hit or wrote — never evicted by `gc` in this run.
    touched: Mutex<HashSet<u64>>,
    corrupt_paths: Mutex<Vec<PathBuf>>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

fn now_secs() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

impl ResultStore {
    /// A store with no disk persistence (`--no-cache`).
    pub fn in_memory() -> Self {
        ResultStore {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            index: Mutex::new(HashMap::new()),
            index_dirty: AtomicBool::new(false),
            touched: Mutex::new(HashSet::new()),
            corrupt_paths: Mutex::new(Vec::new()),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// A store persisting results under `dir` (created if missing). A
    /// pre-existing `index.json` is loaded; a missing or unreadable one is
    /// rebuilt over time from file metadata.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut store = ResultStore::in_memory();
        store.index = Mutex::new(load_index(&dir));
        store.disk = Some(dir);
        Ok(store)
    }

    /// Looks up a result, recording a hit or miss in the stats.
    ///
    /// A disk hit is promoted into the in-memory map so later lookups are
    /// memory hits. A corrupt on-disk entry counts as a miss *and* bumps
    /// [`CacheStats::corrupt`], recording the offending path.
    pub fn lookup(&self, key: JobKey) -> Option<(JobResult, CacheOutcome)> {
        if let Some(r) = lock(&self.mem).get(&key.0) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            lock(&self.touched).insert(key.0);
            return Some((r.clone(), CacheOutcome::MemoryHit));
        }
        if let Some(dir) = &self.disk {
            match load_from_disk(dir, key) {
                DiskRead::Hit(r) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    lock(&self.touched).insert(key.0);
                    lock(&self.mem).insert(key.0, r.clone());
                    self.note_hit(key);
                    return Some((r, CacheOutcome::DiskHit));
                }
                DiskRead::Corrupt(reason) => {
                    let path = cache_path(dir, key);
                    match quarantine_entry(dir, key) {
                        Ok(dest) => eprintln!(
                            "spacea-harness: corrupt cache entry {} ({reason}); \
                             quarantined to {} and recomputing",
                            path.display(),
                            dest.display()
                        ),
                        Err(e) => eprintln!(
                            "spacea-harness: corrupt cache entry {} ({reason}); \
                             quarantine failed ({e}); recomputing",
                            path.display()
                        ),
                    }
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    lock(&self.corrupt_paths).push(path);
                    let mut index = lock(&self.index);
                    if index.remove(&key.0).is_some() {
                        self.index_dirty.store(true, Ordering::Relaxed);
                    }
                }
                DiskRead::Missing => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a computed result, persisting it if a disk cache is enabled.
    /// The index records the entry in memory; the file follows at the next
    /// commit point.
    ///
    /// Disk write failures are reported on stderr and otherwise ignored: the
    /// cache is an accelerator, not a correctness dependency.
    pub fn insert(&self, key: JobKey, result: JobResult) {
        lock(&self.touched).insert(key.0);
        if let Some(dir) = &self.disk {
            match save_to_disk(dir, key, &result) {
                Ok(bytes) => {
                    let now = now_secs();
                    let mut index = lock(&self.index);
                    let created = index.get(&key.0).map(|e| e.created).unwrap_or(now);
                    index.insert(key.0, IndexEntry { bytes, created, last_hit: now });
                    self.index_dirty.store(true, Ordering::Relaxed);
                }
                Err(e) => eprintln!("spacea-harness: failed to persist job {key}: {e}"),
            }
        }
        lock(&self.mem).insert(key.0, result);
    }

    fn note_hit(&self, key: JobKey) {
        let now = now_secs();
        let mut index = lock(&self.index);
        let entry = index.entry(key.0).or_insert(IndexEntry {
            bytes: self
                .disk
                .as_ref()
                .and_then(|d| std::fs::metadata(cache_path(d, key)).ok())
                .map(|m| m.len())
                .unwrap_or(0),
            created: now,
            last_hit: now,
        });
        entry.last_hit = now;
        self.index_dirty.store(true, Ordering::Relaxed);
    }

    /// Writes `index.json` (sorted by key, write-then-rename) and clears the
    /// dirty mark. No-op for in-memory stores. The index stays locked until
    /// the rename, so concurrent commits land in the order they read the
    /// index and the file never goes back to an older snapshot.
    pub fn persist_index(&self) -> std::io::Result<()> {
        let Some(dir) = &self.disk else { return Ok(()) };
        let index = lock(&self.index);
        let mut entries: Vec<(u64, IndexEntry)> = index.iter().map(|(&k, &e)| (k, e)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let rows: Vec<Json> = entries
            .iter()
            .map(|(k, e)| {
                Json::obj(vec![
                    ("key", Json::Str(JobKey(*k).to_string())),
                    ("bytes", Json::U64(e.bytes)),
                    ("created", Json::U64(e.created)),
                    ("last_hit", Json::U64(e.last_hit)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("schema", Json::Str("spacea-cache-index-v1".into())),
            ("entries", Json::Arr(rows)),
        ]);
        let written = write_atomic(&dir.join(INDEX_FILE), &doc.to_text());
        // A failed write leaves the index dirty, so the drop retries it.
        self.index_dirty.store(written.is_err(), Ordering::Relaxed);
        written
    }

    /// The current index, sorted by key (tests and doctors).
    pub fn index_snapshot(&self) -> Vec<(JobKey, IndexEntry)> {
        let index = lock(&self.index);
        let mut entries: Vec<(JobKey, IndexEntry)> =
            index.iter().map(|(&k, &e)| (JobKey(k), e)).collect();
        entries.sort_unstable_by_key(|(k, _)| k.0);
        entries
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
    /// The index is rewritten to exactly the surviving files, so a gc pass
    /// also repairs a stale or missing `index.json`.
    ///
    /// Files under [`QUARANTINE_DIR`] (corrupt entries moved aside by
    /// [`ResultStore::lookup`]) count against the same budgets: the age pass
    /// removes old ones by file mtime, and the size pass evicts them before
    /// any live entry — corrupt bytes never outcompete real results.
    pub fn gc(&self, policy: &GcPolicy) -> std::io::Result<GcReport> {
        let Some(dir) = self.disk.clone() else { return Ok(GcReport::default()) };
        let now = now_secs();
        // Snapshot the disk contents: (key, bytes, last_hit), recency from
        // the index with file mtime as the fallback for unindexed entries.
        let mut on_disk: Vec<(u64, u64, u64)> = Vec::new();
        {
            let index = lock(&self.index);
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(stem) = name.strip_suffix(".json") else { continue };
                if stem.len() != 16 {
                    continue; // index.json, last-run.json, foreign files
                }
                let Ok(key) = u64::from_str_radix(stem, 16) else { continue };
                let meta = entry.metadata()?;
                let last_hit = index.get(&key).map(|e| e.last_hit).unwrap_or_else(|| {
                    meta.modified()
                        .ok()
                        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                        .map(|d| d.as_secs())
                        .unwrap_or(now)
                });
                on_disk.push((key, meta.len(), last_hit));
            }
        }
        // Deterministic LRU order: oldest hit first, key as the tie-break.
        on_disk.sort_unstable_by_key(|&(key, _, last_hit)| (last_hit, key));
        let touched = lock(&self.touched).clone();

        // Quarantined (corrupt) files live under the same budgets: recency is
        // their file mtime, they are never protected, and the size pass
        // removes them before any live entry.
        let mut quarantined: Vec<(PathBuf, u64, u64)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir.join(QUARANTINE_DIR)) {
            for entry in entries.flatten() {
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let mtime = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                    .map(|d| d.as_secs())
                    .unwrap_or(now);
                quarantined.push((entry.path(), meta.len(), mtime));
            }
        }
        quarantined.sort_unstable_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));

        let mut report = GcReport {
            scanned: on_disk.len() + quarantined.len(),
            scanned_bytes: on_disk.iter().map(|&(_, b, _)| b).sum::<u64>()
                + quarantined.iter().map(|&(_, b, _)| b).sum::<u64>(),
            protected: on_disk.iter().filter(|&&(k, _, _)| touched.contains(&k)).count(),
            ..GcReport::default()
        };
        let mut total = report.scanned_bytes;
        let mut evict: HashSet<u64> = HashSet::new();
        let mut q_evict: HashSet<usize> = HashSet::new();
        if let Some(max_age) = policy.max_age_secs {
            for (i, &(_, bytes, mtime)) in quarantined.iter().enumerate() {
                if now.saturating_sub(mtime) > max_age {
                    q_evict.insert(i);
                    total -= bytes;
                }
            }
            for &(key, bytes, last_hit) in &on_disk {
                if now.saturating_sub(last_hit) > max_age && !touched.contains(&key) {
                    evict.insert(key);
                    total -= bytes;
                }
            }
        }
        if let Some(max_bytes) = policy.max_bytes {
            for (i, &(_, bytes, _)) in quarantined.iter().enumerate() {
                if total <= max_bytes {
                    break;
                }
                if q_evict.contains(&i) {
                    continue;
                }
                q_evict.insert(i);
                total -= bytes;
            }
            for &(key, bytes, _) in &on_disk {
                if total <= max_bytes {
                    break; // budget met: never evict more than needed
                }
                if touched.contains(&key) || evict.contains(&key) {
                    continue;
                }
                evict.insert(key);
                total -= bytes;
            }
        }

        for (i, (path, bytes, _)) in quarantined.iter().enumerate() {
            if q_evict.contains(&i) {
                std::fs::remove_file(path)?;
                report.evicted += 1;
                report.evicted_bytes += bytes;
                report.quarantined += 1;
            } else {
                report.kept += 1;
                report.kept_bytes += bytes;
            }
        }
        for &(key, bytes, _) in &on_disk {
            if evict.contains(&key) {
                std::fs::remove_file(cache_path(&dir, JobKey(key)))?;
                report.evicted += 1;
                report.evicted_bytes += bytes;
            } else {
                report.kept += 1;
                report.kept_bytes += bytes;
            }
        }

        // Rewrite the index to exactly the surviving files.
        {
            let mut index = lock(&self.index);
            let survivors: HashMap<u64, (u64, u64)> = on_disk
                .iter()
                .filter(|(k, _, _)| !evict.contains(k))
                .map(|&(k, b, lh)| (k, (b, lh)))
                .collect();
            index.retain(|k, _| survivors.contains_key(k));
            for (&key, &(bytes, last_hit)) in &survivors {
                let entry =
                    index.entry(key).or_insert(IndexEntry { bytes, created: last_hit, last_hit });
                entry.bytes = bytes;
            }
        }
        self.persist_index()?;
        Ok(report)
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
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

impl Drop for ResultStore {
    /// The last commit point: writes the index if anything changed since
    /// the last write. A write failure is reported, never raised.
    fn drop(&mut self) {
        if *self.index_dirty.get_mut() {
            if let Err(e) = self.persist_index() {
                eprintln!("spacea-harness: could not write the cache index: {e}");
            }
        }
    }
}

/// The index file name inside a cache directory.
pub const INDEX_FILE: &str = "index.json";

/// Subdirectory of a cache directory holding corrupt entries moved aside by
/// [`ResultStore::lookup`]. Swept by [`ResultStore::gc`] under the same
/// budgets as live entries (quarantined files are evicted first and are
/// never protected).
pub const QUARANTINE_DIR: &str = "quarantine";

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

/// Moves a corrupt cache entry into `<dir>/quarantine/` so later runs do not
/// keep re-parsing (and re-reporting) the same damaged file, while keeping
/// the bytes around for a post-mortem.
fn quarantine_entry(dir: &Path, key: JobKey) -> std::io::Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    let dest = qdir.join(format!("{key}.json"));
    std::fs::rename(cache_path(dir, key), &dest)?;
    Ok(dest)
}

enum DiskRead {
    /// No file for this key.
    Missing,
    /// The file decoded cleanly.
    Hit(JobResult),
    /// The file exists but cannot be decoded.
    Corrupt(String),
}

fn load_from_disk(dir: &Path, key: JobKey) -> DiskRead {
    let Ok(text) = std::fs::read_to_string(cache_path(dir, key)) else {
        return DiskRead::Missing;
    };
    match json::parse(&text).and_then(|v| decode_result(&v)) {
        Ok(r) => DiskRead::Hit(r),
        Err(e) => DiskRead::Corrupt(e),
    }
}

fn save_to_disk(dir: &Path, key: JobKey, result: &JobResult) -> std::io::Result<u64> {
    let text = encode_result(result).to_text();
    write_atomic(&cache_path(dir, key), &text)?;
    Ok(text.len() as u64)
}

fn load_index(dir: &Path) -> HashMap<u64, IndexEntry> {
    let mut out = HashMap::new();
    let Ok(text) = std::fs::read_to_string(dir.join(INDEX_FILE)) else { return out };
    let Ok(doc) = json::parse(&text) else { return out };
    let Some(rows) = doc.get("entries").and_then(Json::as_arr) else { return out };
    for row in rows {
        let Some(key) =
            row.get("key").and_then(Json::as_str).and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let field = |name: &str| row.get(name).and_then(Json::as_u64).unwrap_or(0);
        out.insert(
            key,
            IndexEntry {
                bytes: field("bytes"),
                created: field("created"),
                last_hit: field("last_hit"),
            },
        );
    }
    out
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
        ("dram_read_bytes", Json::U64(r.dram_read_bytes)),
        ("dram_read_throughput", Json::f64_bits(r.dram_read_throughput)),
        ("effective_read_throughput", Json::f64_bits(r.effective_read_throughput)),
        ("bw_utilization", Json::f64_bits(r.bw_utilization)),
        ("gflops", Json::f64_bits(r.gflops)),
        ("alu_utilization", Json::f64_bits(r.alu_utilization)),
        ("energy_j", Json::f64_bits(r.energy_j)),
        ("bw_efficiency", Json::f64_bits(r.bw_efficiency)),
        ("x_l2_hit_rate", Json::f64_bits(r.x_l2_hit_rate)),
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
        dram_read_bytes: u64_field(v, "dram_read_bytes")?,
        dram_read_throughput: f64_field(v, "dram_read_throughput")?,
        effective_read_throughput: f64_field(v, "effective_read_throughput")?,
        bw_utilization: f64_field(v, "bw_utilization")?,
        gflops: f64_field(v, "gflops")?,
        alu_utilization: f64_field(v, "alu_utilization")?,
        energy_j: f64_field(v, "energy_j")?,
        bw_efficiency: f64_field(v, "bw_efficiency")?,
        x_l2_hit_rate: f64_field(v, "x_l2_hit_rate")?,
    })
}

fn encode_sim(r: &SimReport) -> Json {
    Json::obj(vec![
        ("cycles", Json::U64(r.cycles)),
        ("seconds", Json::f64_bits(r.seconds)),
        ("activity", encode_activity(&r.activity)),
        ("l1_hit_rate", Json::f64_bits(r.l1_hit_rate)),
        ("l2_hit_rate", Json::f64_bits(r.l2_hit_rate)),
        ("tsv_bytes", Json::U64(r.tsv_bytes)),
        ("noc_byte_hops", Json::U64(r.noc_byte_hops)),
        ("pe_work", Json::Arr(r.pe_work.iter().map(|&w| Json::U64(w)).collect())),
        ("normalized_workload", Json::f64_bits(r.normalized_workload)),
        ("update_buffer_hit_rate", Json::f64_bits(r.update_buffer_hit_rate)),
        ("pe_busy_fraction", Json::f64_bits(r.pe_busy_fraction)),
        ("matrix_bank_busy_fraction", Json::f64_bits(r.matrix_bank_busy_fraction)),
        ("vector_bank_busy_fraction", Json::f64_bits(r.vector_bank_busy_fraction)),
        ("validated", Json::Bool(r.validated)),
        ("events_scheduled", Json::U64(r.events_scheduled)),
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
        seconds: f64_field(v, "seconds")?,
        activity: decode_activity(v.get("activity").ok_or("missing 'activity'")?)?,
        l1_hit_rate: f64_field(v, "l1_hit_rate")?,
        l2_hit_rate: f64_field(v, "l2_hit_rate")?,
        tsv_bytes: u64_field(v, "tsv_bytes")?,
        noc_byte_hops: u64_field(v, "noc_byte_hops")?,
        pe_work,
        normalized_workload: f64_field(v, "normalized_workload")?,
        update_buffer_hit_rate: f64_field(v, "update_buffer_hit_rate")?,
        pe_busy_fraction: f64_field(v, "pe_busy_fraction")?,
        matrix_bank_busy_fraction: f64_field(v, "matrix_bank_busy_fraction")?,
        vector_bank_busy_fraction: f64_field(v, "vector_bank_busy_fraction")?,
        output: Vec::new(), // elided on disk; see module comment
        validated: v.get("validated").and_then(Json::as_bool).ok_or("missing 'validated'")?,
        events_scheduled: u64_field(v, "events_scheduled")?,
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
        ("cycles", Json::U64(a.cycles)),
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
        cycles: u64_field(v, "cycles")?,
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
            dram_read_bytes: 100,
            dram_read_throughput: 1e9,
            effective_read_throughput: 0.5e9,
            bw_utilization: 0.27,
            gflops: 1.5,
            alu_utilization: 0.0268,
            energy_j: 0.125,
            bw_efficiency: 0.9,
            x_l2_hit_rate: 0.75,
        }
    }

    #[test]
    fn gpu_round_trips_exactly() {
        let run = sample_gpu();
        let back =
            decode_result(&json::parse(&encode_result(&JobResult::Gpu(run)).to_text()).unwrap())
                .unwrap();
        assert_eq!(back, JobResult::Gpu(run));
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
    fn memory_store_counts_hits_and_misses() {
        let store = ResultStore::in_memory();
        let key = JobKey(42);
        assert!(store.lookup(key).is_none());
        store.insert(key, JobResult::Gpu(sample_gpu()));
        let (_, outcome) = store.lookup(key).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        let stats = store.stats();
        assert_eq!((stats.mem_hits, stats.disk_hits, stats.misses), (1, 0, 1));
        assert!((stats.hit_fraction() - 0.5).abs() < 1e-12);
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
    fn index_round_trips_across_stores() {
        let dir = tmp_dir("index-rt");
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
            store.insert(JobKey(2), JobResult::Gpu(sample_gpu()));
        }
        let store = ResultStore::with_disk(&dir).unwrap();
        let snap = store.index_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, JobKey(1));
        assert_eq!(snap[0].1.bytes, entry_bytes(&dir, JobKey(1)));
        assert!(snap[0].1.created > 0 && snap[0].1.last_hit >= snap[0].1.created);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn indexed_keys(dir: &Path) -> Vec<u64> {
        let mut keys: Vec<u64> = load_index(dir).into_keys().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn index_is_written_at_drop_not_per_insert_or_disk_hit() {
        let dir = tmp_dir("index-commit");
        let index_path = dir.join(INDEX_FILE);
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            for k in 1..=3u64 {
                store.insert(JobKey(k), JobResult::Gpu(sample_gpu()));
            }
            assert!(!index_path.exists(), "inserts must not write the index");
        }
        // The drop wrote it, with every entry.
        assert_eq!(indexed_keys(&dir), [1, 2, 3]);

        let store = ResultStore::with_disk(&dir).unwrap();
        std::fs::remove_file(&index_path).unwrap();
        for k in 1..=3u64 {
            assert_eq!(store.lookup(JobKey(k)).unwrap().1, CacheOutcome::DiskHit);
        }
        assert!(!index_path.exists(), "disk hits must not write the index");
        drop(store);
        assert_eq!(indexed_keys(&dir), [1, 2, 3], "the drop writes the hits' entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_clears_the_index_so_the_drop_writes_nothing() {
        let dir = tmp_dir("index-commit-once");
        let index_path = dir.join(INDEX_FILE);
        let store = ResultStore::with_disk(&dir).unwrap();
        store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
        // What the harness does when it writes the run manifest.
        store.persist_index().unwrap();
        assert_eq!(indexed_keys(&dir), [1]);
        std::fs::remove_file(&index_path).unwrap();
        drop(store);
        assert!(!index_path.exists(), "a clean store must not write the index again");
        // A gc pass is a commit point too, even with nothing to evict.
        let store = ResultStore::with_disk(&dir).unwrap();
        store.gc(&GcPolicy::default()).unwrap();
        assert_eq!(indexed_keys(&dir), [1]);
        std::fs::remove_file(&index_path).unwrap();
        drop(store);
        assert!(!index_path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_killed_run_leaves_the_previous_index_and_gc_repairs_it() {
        let dir = tmp_dir("index-killed");
        let index_path = dir.join(INDEX_FILE);
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
        }
        let previous = std::fs::read_to_string(&index_path).unwrap();
        // A run that dies before any commit point (SIGKILL): its result
        // files are on disk, its index never is.
        let killed = ResultStore::with_disk(&dir).unwrap();
        killed.insert(JobKey(2), JobResult::Gpu(sample_gpu()));
        killed.insert(JobKey(3), JobResult::Gpu(sample_gpu()));
        std::mem::forget(killed);
        assert_eq!(std::fs::read_to_string(&index_path).unwrap(), previous);

        let fresh = ResultStore::with_disk(&dir).unwrap();
        assert_eq!(fresh.index_snapshot().len(), 1);
        let report = fresh.gc(&GcPolicy::default()).unwrap();
        let bytes: u64 = (1..=3u64).map(|k| entry_bytes(&dir, JobKey(k))).sum();
        assert_eq!((report.scanned, report.kept, report.evicted), (3, 3, 0), "{report:?}");
        assert_eq!(report.kept_bytes, bytes);
        for (key, entry) in fresh.index_snapshot() {
            assert_eq!(entry.bytes, entry_bytes(&dir, key), "{key} is sized from its file");
        }
        assert_eq!(indexed_keys(&dir), [1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
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
        // Index lists exactly the surviving files.
        assert_eq!(store.index_snapshot().len(), 2);
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
        assert_eq!(fresh.index_snapshot().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_age_budget_uses_index_recency() {
        let dir = tmp_dir("gc-age");
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
            store.insert(JobKey(2), JobResult::Gpu(sample_gpu()));
        }
        // Backdate entry 1 in the index: last hit in 1970.
        let store = ResultStore::with_disk(&dir).unwrap();
        {
            let mut index = store.index.lock().unwrap();
            index.get_mut(&1).unwrap().last_hit = 1;
        }
        store.persist_index().unwrap();
        let reopened = ResultStore::with_disk(&dir).unwrap();
        let report = reopened.gc(&GcPolicy { max_bytes: None, max_age_secs: Some(3600) }).unwrap();
        assert_eq!(report.evicted, 1, "{report:?}");
        assert!(reopened.lookup(JobKey(1)).is_none());
        assert!(reopened.lookup(JobKey(2)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_without_budgets_is_a_no_op_and_repairs_the_index() {
        let dir = tmp_dir("gc-noop");
        {
            let store = ResultStore::with_disk(&dir).unwrap();
            store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
        }
        // Lose the index; gc must rebuild it from the directory.
        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let store = ResultStore::with_disk(&dir).unwrap();
        let report = store.gc(&GcPolicy::default()).unwrap();
        assert_eq!((report.scanned, report.evicted, report.kept), (1, 0, 1));
        assert_eq!(store.index_snapshot().len(), 1);
        assert!(dir.join(INDEX_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_reparsed() {
        let dir = tmp_dir("quarantine");
        let store = ResultStore::with_disk(&dir).unwrap();
        let key = JobKey(11);
        std::fs::write(cache_path(&dir, key), "{not json").unwrap();
        assert!(store.lookup(key).is_none());
        // The damaged file moved aside...
        assert!(!cache_path(&dir, key).exists());
        assert!(dir.join(QUARANTINE_DIR).join(format!("{key}.json")).exists());
        // ...so the next lookup is a plain miss, not another corrupt parse.
        assert!(store.lookup(key).is_none());
        assert_eq!(store.stats().corrupt, 1);
        // And the slot is usable again.
        store.insert(key, JobResult::Gpu(sample_gpu()));
        assert_eq!(store.lookup(key).unwrap().1, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_or_negative_counters_are_quarantined_as_corrupt() {
        // The parser reads `1.5` and `-3` as numbers; only the decoders'
        // `as_u64` rejects them, which must still make the entry corrupt.
        let dir = tmp_dir("non-u64");
        let store = ResultStore::with_disk(&dir).unwrap();
        let good = encode_result(&JobResult::Scenario(sample_scenario())).to_text();
        assert!(good.contains("\"cycles\":9001"), "{good}");
        for (i, bad) in ["1.5", "-3"].into_iter().enumerate() {
            let key = JobKey(0x100 + i as u64);
            let text = good.replace("\"cycles\":9001", &format!("\"cycles\":{bad}"));
            std::fs::write(cache_path(&dir, key), text).unwrap();
            assert!(store.lookup(key).is_none(), "{bad} must not decode as a u64");
            assert!(dir.join(QUARANTINE_DIR).join(format!("{key}.json")).exists(), "{bad}");
        }
        assert_eq!(store.stats().corrupt, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_byte_budget_sweeps_quarantine_before_live_entries() {
        let dir = tmp_dir("gc-quarantine");
        let store = ResultStore::with_disk(&dir).unwrap();
        store.insert(JobKey(1), JobResult::Gpu(sample_gpu()));
        let bad = JobKey(0x2222);
        std::fs::write(cache_path(&dir, bad), "{not json").unwrap();
        assert!(store.lookup(bad).is_none());
        let qfile = dir.join(QUARANTINE_DIR).join(format!("{bad}.json"));
        assert!(qfile.exists());
        // Byte budget 0: the entry written by this run is protected, but the
        // quarantined file never is — it must go.
        let report = store.gc(&GcPolicy { max_bytes: Some(0), max_age_secs: None }).unwrap();
        assert_eq!(report.quarantined, 1, "{report:?}");
        assert_eq!(report.scanned, 2);
        assert!(!qfile.exists());
        assert!(cache_path(&dir, JobKey(1)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_age_budget_sweeps_old_quarantined_files() {
        let dir = tmp_dir("gc-quarantine-age");
        let store = ResultStore::with_disk(&dir).unwrap();
        let bad = JobKey(0x3333);
        std::fs::write(cache_path(&dir, bad), "{not json").unwrap();
        assert!(store.lookup(bad).is_none());
        let qfile = dir.join(QUARANTINE_DIR).join(format!("{bad}.json"));
        // Backdate the quarantined file two hours; a one-hour age budget
        // must sweep it while leaving a fresh one alone.
        let old = SystemTime::now() - std::time::Duration::from_secs(7200);
        std::fs::File::options()
            .write(true)
            .open(&qfile)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
        let fresh = JobKey(0x4444);
        std::fs::write(cache_path(&dir, fresh), "{not json").unwrap();
        assert!(store.lookup(fresh).is_none());
        let report = store.gc(&GcPolicy { max_bytes: None, max_age_secs: Some(3600) }).unwrap();
        assert_eq!(report.quarantined, 1, "{report:?}");
        assert!(!qfile.exists());
        assert!(dir.join(QUARANTINE_DIR).join(format!("{fresh}.json")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_foreign_files() {
        let dir = tmp_dir("gc-foreign");
        let store = ResultStore::with_disk(&dir).unwrap();
        std::fs::write(dir.join("last-run.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "keep me").unwrap();
        let report = store.gc(&GcPolicy { max_bytes: Some(0), max_age_secs: Some(0) }).unwrap();
        assert_eq!(report.scanned, 0);
        assert!(dir.join("last-run.json").exists());
        assert!(dir.join("notes.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
