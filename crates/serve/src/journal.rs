//! The write-ahead acknowledgment journal: proof of every answered
//! request that survives a daemon crash.
//!
//! Before the batcher sends a success reply to any submitter, it appends
//! one journal entry per fused member to `<cache-dir>/journal/` — a
//! single `ack-<seq>.json` file per batch, written tmp-file + atomic
//! rename. The ordering is the contract: **journal first, acknowledge
//! second**, so the set of journaled requests is always a superset of the
//! acknowledged ones. A daemon that is SIGKILLed mid-batch therefore
//! leaves a journal from which a restarted daemon (or the chaos soak's
//! invariant checker) can prove exactly which requests were answered, and
//! — because each entry carries FNV content hashes of the input and
//! output vectors — *what* was answered, bitwise.
//!
//! Each record holds `(matrix, x_hash, y_hash, batch, cycles)`. The
//! checker recomputes the offline [`spacea_matrix::Csr::spmv`] for the
//! request whose input hashes to `x_hash` and fails if the journaled
//! `y_hash` differs: a journal can prove an answer lost, late, or
//! rejected, but never wrong.

use spacea_harness::job::Fnv;
use spacea_harness::write_atomic;
use spacea_obs::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV content hash of a float vector over exact IEEE-754 bit patterns —
/// the identity requests and responses are journaled under.
pub fn vec_hash(v: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.str("spacea-vec-v1");
    h.usize(v.len());
    for &x in v {
        h.f64(x);
    }
    h.finish()
}

/// One acknowledged request: what was asked, what was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecord {
    /// Content key of the matrix the request ran against.
    pub matrix: u64,
    /// [`vec_hash`] of the input vector.
    pub x_hash: u64,
    /// [`vec_hash`] of the output vector that was acknowledged.
    pub y_hash: u64,
    /// Width of the fused batch that answered this request.
    pub batch: usize,
    /// Simulated cycles of that batch.
    pub cycles: u64,
}

impl AckRecord {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("matrix", Json::U64(self.matrix)),
            ("x_hash", Json::U64(self.x_hash)),
            ("y_hash", Json::U64(self.y_hash)),
            ("batch", Json::U64(self.batch as u64)),
            ("cycles", Json::U64(self.cycles)),
        ])
    }

    fn from_json(v: &Json) -> Option<AckRecord> {
        let field = |name: &str| v.get(name).and_then(Json::as_u64);
        Some(AckRecord {
            matrix: field("matrix")?,
            x_hash: field("x_hash")?,
            y_hash: field("y_hash")?,
            batch: field("batch")? as usize,
            cycles: field("cycles")?,
        })
    }
}

/// What loading a journal directory found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalLoad {
    /// Every decodable record, in batch-sequence order.
    pub records: Vec<AckRecord>,
    /// Files that were present but unreadable or undecodable. A nonzero
    /// count after a *graceful* shutdown is a bug; after a crash it can
    /// only be 0 — torn writes never survive the tmp+rename protocol.
    pub corrupt_files: usize,
    /// Records dropped by prior compaction passes (carried in the
    /// watermark file, so the all-time acknowledgment count is
    /// `dropped + records.len()` even after retention kicked in).
    pub dropped: u64,
}

/// What one [`AckJournal::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Journal files removed by this pass.
    pub dropped_files: usize,
    /// Acknowledgment records inside the removed files.
    pub dropped_records: usize,
    /// Journal files still on disk after the pass.
    pub retained_files: usize,
}

/// An append-only acknowledgment journal over one directory.
#[derive(Debug)]
pub struct AckJournal {
    dir: PathBuf,
    seq: AtomicU64,
    acked: AtomicU64,
}

impl AckJournal {
    /// Name of the journal directory under the daemon's cache directory.
    pub const DIR: &'static str = "journal";

    /// Name of the compaction watermark file inside the journal directory.
    /// It records the highest sequence number dropped by compaction (and
    /// how many records went with it); loaders skip any `ack-*.json` file
    /// at or below the watermark, which is what makes compaction
    /// crash-safe — the watermark is written atomically *before* any file
    /// is unlinked.
    pub const COMPACTED_FILE: &'static str = "compacted.json";

    /// Opens (or starts) a journal in `dir`, continuing after the highest
    /// existing sequence number — or the compaction watermark, whichever
    /// is higher — so restarts never overwrite prior proof, even when
    /// compaction emptied the directory.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let floor = watermark(&dir).map_or(0, |(seq, _)| seq + 1);
        let next = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| seq_of(&e.path()))
                .max()
                .map_or(0, |max| max + 1),
            Err(_) => 0,
        };
        AckJournal { dir, seq: AtomicU64::new(next.max(floor)), acked: AtomicU64::new(0) }
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records acknowledged through this handle (restart-local; the disk
    /// journal itself accumulates across lives).
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// Appends one batch worth of acknowledgments as a single atomic
    /// file. Call this *before* sending any of the batch's replies.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures; on error nothing
    /// was journaled (the tmp file never became visible).
    pub fn append(&self, records: &[AckRecord]) -> std::io::Result<PathBuf> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("ack-{seq:08}.json"));
        let body = Json::obj(vec![
            ("version", Json::U64(1)),
            ("seq", Json::U64(seq)),
            ("acks", Json::Arr(records.iter().map(|r| r.to_json()).collect())),
        ]);
        write_atomic(&path, &body.to_text())?;
        self.acked.fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(path)
    }

    /// Loads every live journal file under `dir`, in sequence order.
    /// Missing directory means an empty journal, not an error. Files at
    /// or below the compaction watermark are skipped (a crash between
    /// the watermark write and the unlinks can leave some behind) and
    /// their records are already accounted for in [`JournalLoad::dropped`].
    pub fn load(dir: &Path) -> JournalLoad {
        let mut out = JournalLoad::default();
        let wm = watermark(dir);
        out.dropped = wm.map_or(0, |(_, records)| records);
        let floor = wm.map(|(seq, _)| seq);
        let Ok(entries) = std::fs::read_dir(dir) else { return out };
        let mut files: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| seq_of(&p).map(|seq| (seq, p)))
            .filter(|&(seq, _)| floor.is_none_or(|through| seq > through))
            .collect();
        files.sort();
        for (_, path) in files {
            match std::fs::read_to_string(&path).ok().and_then(|t| decode_file(&t)) {
                Some(mut records) => out.records.append(&mut records),
                None => out.corrupt_files += 1,
            }
        }
        out
    }

    /// The live journal footprint on disk: `(records, files)` past the
    /// compaction watermark — what the `stat` verb reports.
    pub fn disk_counts(&self) -> (u64, u64) {
        let load = AckJournal::load(&self.dir);
        let floor = watermark(&self.dir).map(|(seq, _)| seq);
        let files = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| seq_of(&e.path()))
                .filter(|&seq| floor.is_none_or(|through| seq > through))
                .count(),
            Err(_) => 0,
        };
        (load.records.len() as u64, files as u64)
    }

    /// Drops acked journal files beyond a retention budget, keeping the
    /// newest `retain` files. Crash-safe ordering: the watermark file is
    /// written (tmp + atomic rename) *first*, the stale `ack-*.json`
    /// files are unlinked *second* — a crash in between leaves files that
    /// [`AckJournal::load`] already skips and that the next compaction
    /// sweeps without recounting.
    ///
    /// # Errors
    ///
    /// Propagates the watermark write failure; on error no journal file
    /// was removed.
    pub fn compact(&self, retain: usize) -> std::io::Result<CompactionStats> {
        let prior = watermark(&self.dir);
        let floor = prior.map(|(seq, _)| seq);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Ok(CompactionStats::default());
        };
        let mut files: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| seq_of(&p).map(|seq| (seq, p)))
            .collect();
        files.sort();
        // Leftovers from a crashed pass sit at or below the old watermark:
        // already counted there, so sweep them without recounting.
        let live_from =
            files.partition_point(|&(seq, _)| floor.is_some_and(|through| seq <= through));
        let (leftovers, live) = files.split_at(live_from);
        let keep_from = live.len().saturating_sub(retain);
        let (stale, kept) = live.split_at(keep_from);
        let mut stats = CompactionStats {
            dropped_files: stale.len(),
            dropped_records: 0,
            retained_files: kept.len(),
        };
        if let Some(&(through, _)) = stale.last() {
            for (_, path) in stale {
                if let Some(records) =
                    std::fs::read_to_string(path).ok().and_then(|t| decode_file(&t))
                {
                    stats.dropped_records += records.len();
                }
            }
            let carried = prior.map_or(0, |(_, records)| records);
            let body = Json::obj(vec![
                ("version", Json::U64(1)),
                ("dropped_through_seq", Json::U64(through)),
                ("dropped_records", Json::U64(carried + stats.dropped_records as u64)),
            ]);
            write_atomic(&self.dir.join(Self::COMPACTED_FILE), &body.to_text())?;
            for (_, path) in stale {
                let _ = std::fs::remove_file(path);
            }
        }
        for (_, path) in leftovers {
            let _ = std::fs::remove_file(path);
        }
        Ok(stats)
    }
}

/// The compaction watermark of a journal directory, if one was ever
/// written: `(dropped_through_seq, dropped_records)`.
fn watermark(dir: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(dir.join(AckJournal::COMPACTED_FILE)).ok()?;
    let v = parse(&text).ok()?;
    if v.get("version")?.as_u64()? != 1 {
        return None;
    }
    Some((v.get("dropped_through_seq")?.as_u64()?, v.get("dropped_records")?.as_u64()?))
}

/// The sequence number of an `ack-<seq>.json` path, if it is one.
fn seq_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("ack-")?.strip_suffix(".json")?;
    digits.parse().ok()
}

fn decode_file(text: &str) -> Option<Vec<AckRecord>> {
    let v = parse(text).ok()?;
    if v.get("version")?.as_u64()? != 1 {
        return None;
    }
    v.get("acks")?.as_arr()?.iter().map(AckRecord::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spacea-journal-{tag}-{}", std::process::id()))
    }

    fn rec(matrix: u64, x: u64) -> AckRecord {
        AckRecord { matrix, x_hash: x, y_hash: x ^ 0xABCD, batch: 2, cycles: 1000 + x }
    }

    #[test]
    fn append_then_load_round_trips_in_order() {
        let dir = tmp_dir("rt");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        j.append(&[rec(1, 10), rec(1, 11)]).unwrap();
        j.append(&[rec(2, 20)]).unwrap();
        assert_eq!(j.acked(), 3);
        let load = AckJournal::load(&dir);
        assert_eq!(load.corrupt_files, 0);
        assert_eq!(load.records, vec![rec(1, 10), rec(1, 11), rec(2, 20)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_continues_the_sequence() {
        let dir = tmp_dir("seq");
        let _ = std::fs::remove_dir_all(&dir);
        let first = AckJournal::open(&dir);
        first.append(&[rec(1, 1)]).unwrap();
        first.append(&[rec(1, 2)]).unwrap();
        // A restarted daemon must append after, never over, prior proof.
        let second = AckJournal::open(&dir);
        second.append(&[rec(9, 9)]).unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records.len(), 3);
        assert_eq!(load.records[2], rec(9, 9));
        assert_eq!(second.acked(), 1, "acked counter is restart-local");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_counted_not_fatal() {
        let dir = tmp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        j.append(&[rec(1, 1)]).unwrap();
        std::fs::write(dir.join("ack-00000099.json"), "{ torn").unwrap();
        std::fs::write(dir.join("not-a-journal.txt"), "ignored").unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 1)]);
        assert_eq!(load.corrupt_files, 1);
        // And open() skips past the corrupt file's sequence number.
        let next = AckJournal::open(&dir);
        let path = next.append(&[rec(2, 2)]).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().contains("00000100"), "{path:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_the_newest_files_and_restart_respects_the_watermark() {
        let dir = tmp_dir("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        for i in 0..5 {
            j.append(&[rec(1, i), rec(1, 100 + i)]).unwrap();
        }
        assert_eq!(j.disk_counts(), (10, 5));

        let stats = j.compact(2).unwrap();
        assert_eq!(
            stats,
            CompactionStats { dropped_files: 3, dropped_records: 6, retained_files: 2 }
        );
        assert_eq!(j.disk_counts(), (4, 2));
        let load = AckJournal::load(&dir);
        assert_eq!(load.dropped, 6, "the watermark carries the dropped-record count");
        assert_eq!(load.records, vec![rec(1, 3), rec(1, 103), rec(1, 4), rec(1, 104)]);

        // A second pass over an already-tight journal is a no-op.
        let again = j.compact(2).unwrap();
        assert_eq!(
            again,
            CompactionStats { dropped_files: 0, dropped_records: 0, retained_files: 2 }
        );

        // Compacting everything away must not let a restart reuse seqs.
        j.compact(0).unwrap();
        assert_eq!(j.disk_counts(), (0, 0));
        let restarted = AckJournal::open(&dir);
        let path = restarted.append(&[rec(7, 7)]).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().contains("00000005"), "{path:?}");
        let load = AckJournal::load(&dir);
        assert_eq!((load.dropped, load.records.len()), (10, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_between_watermark_and_unlink_is_harmless() {
        let dir = tmp_dir("crash");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        for i in 0..4 {
            j.append(&[rec(1, i)]).unwrap();
        }
        // Simulate the crash: write the watermark covering seqs 0..=1 by
        // hand and leave their files on disk.
        std::fs::write(
            dir.join(AckJournal::COMPACTED_FILE),
            "{\"version\":1,\"dropped_through_seq\":1,\"dropped_records\":2}",
        )
        .unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 2), rec(1, 3)], "stale files are skipped");
        assert_eq!(load.dropped, 2);
        assert_eq!(j.disk_counts(), (2, 2));

        // The next pass sweeps the leftovers without recounting them.
        let stats = j.compact(1).unwrap();
        assert_eq!(
            stats,
            CompactionStats { dropped_files: 1, dropped_records: 1, retained_files: 1 }
        );
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 3)]);
        assert_eq!(load.dropped, 3, "2 carried + 1 newly dropped");
        assert!(!dir.join("ack-00000000.json").exists(), "leftover swept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_journal() {
        let dir = tmp_dir("absent").join("never-created");
        let load = AckJournal::load(&dir);
        assert_eq!(load, JournalLoad::default());
    }

    #[test]
    fn vec_hash_tracks_bit_content() {
        assert_eq!(vec_hash(&[1.0, -0.0]), vec_hash(&[1.0, -0.0]));
        assert_ne!(vec_hash(&[1.0, -0.0]), vec_hash(&[1.0, 0.0]), "negative zero is distinct");
        assert_ne!(vec_hash(&[]), vec_hash(&[0.0]));
    }
}
