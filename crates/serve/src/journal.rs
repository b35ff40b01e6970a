//! The write-ahead acknowledgment journal: proof of every answered
//! request that survives a daemon crash.
//!
//! Before a batch worker sends a success reply to any submitter, it appends
//! one line per batch, holding one record per fused member, to the single
//! JSON-lines file `<cache-dir>/journal/acks.jsonl`. The ordering is the
//! contract: **journal first, acknowledge second**, so the set of journaled
//! requests is always a superset of the acknowledged ones. A daemon that
//! is SIGKILLed mid-batch therefore leaves a journal from which a
//! restarted daemon (or the chaos soak's invariant checker) can prove
//! exactly which requests were answered, and — because each entry carries
//! content hashes ([`vec_hash`]) of the input and output vectors — *what*
//! was answered, bitwise.
//!
//! Each record holds `(matrix, x_hash, y_hash, batch, cycles)`. The
//! checker recomputes the offline [`spacea_matrix::Csr::spmv`] for the
//! request whose input hashes to `x_hash` and fails if the journaled
//! `y_hash` differs: a journal can prove an answer lost, late, or
//! rejected, but never wrong.
//!
//! Each complete line is one batch, `{"acks":[…]}`, or the compaction line
//! `{"dropped":N}`, which counts the records compaction removed. An append
//! is one write of one newline-terminated line, so a kill mid-append can
//! leave only an unterminated last line. That batch was never
//! acknowledged: it is not a record, and the next append cuts it off
//! before writing.

use crate::{lock, splitmix64, GOLDEN_GAMMA};
use spacea_harness::job::Fnv;
use spacea_harness::write_atomic;
use spacea_obs::json::{parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Content hash of a float vector over exact IEEE-754 bit patterns — the
/// identity requests and responses are journaled under.
///
/// FNV-1a over the tag `spacea-vec-v2` and the length seeds a word-wise
/// fold: each element's 64-bit pattern is xor-ed into the state and
/// multiplied, one step per element. A multiply carries bits only
/// upwards, so each step also folds the high half down: without that, a
/// difference in an element's sign bit would leave the state differing in
/// its sign bit alone, and flipping the signs of any two elements would
/// cancel. Every step is a bijection of the state for a fixed element and
/// of the element for a fixed state, so vectors of one length that differ
/// in one element never collide. The crate's `splitmix64` finishes the
/// hash, so every input bit reaches the low output bits.
pub fn vec_hash(v: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.str("spacea-vec-v2");
    h.usize(v.len());
    let folded = v.iter().fold(h.finish(), |state, x| {
        let state = (state ^ x.to_bits()).wrapping_mul(GOLDEN_GAMMA);
        state ^ state >> 32
    });
    splitmix64(folded)
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

/// What loading a journal found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalLoad {
    /// Every decodable record, in append order.
    pub records: Vec<AckRecord>,
    /// Batch lines on disk, corrupt ones included.
    pub batches: usize,
    /// Complete lines that do not decode. A nonzero count is a bug: a kill
    /// can only leave an unterminated last line, which is no line at all.
    pub corrupt_lines: usize,
    /// Records dropped by prior compaction passes (carried in the
    /// compaction line, so the all-time acknowledgment count is
    /// `dropped + records.len()` even after retention kicked in).
    pub dropped: u64,
}

/// What one [`AckJournal::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Batch lines removed by this pass.
    pub dropped_batches: usize,
    /// Acknowledgment records inside the removed batches.
    pub dropped_records: usize,
    /// Batch lines still on disk after the pass.
    pub retained_batches: usize,
}

/// An append-only acknowledgment journal: one JSON-lines file in one
/// directory.
///
/// Appends and compaction passes hold one mutex, so a pass never rewrites
/// the file under an append, and two passes never count the same batches.
#[derive(Debug)]
pub struct AckJournal {
    dir: PathBuf,
    acked: AtomicU64,
    /// The append handle, opened by the first append after [`open`] or
    /// after a compaction pass replaced the file.
    ///
    /// [`open`]: AckJournal::open
    file: Mutex<Option<File>>,
}

impl AckJournal {
    /// Name of the journal directory under the daemon's cache directory.
    pub const DIR: &'static str = "journal";

    /// Name of the journal file inside the journal directory.
    pub const FILE: &'static str = "acks.jsonl";

    /// A journal in `dir`. Nothing is read or written until the first
    /// append, which continues after whatever a previous life proved.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        AckJournal { dir: dir.into(), acked: AtomicU64::new(0), file: Mutex::new(None) }
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

    /// Appends one batch worth of acknowledgments as one line. Call this
    /// *before* sending any of the batch's replies.
    ///
    /// # Errors
    ///
    /// Propagates open and write failures. On error nothing was journaled:
    /// a partial line is cut off again, and if even that fails, the next
    /// append cuts it off before writing.
    pub fn append(&self, records: &[AckRecord]) -> std::io::Result<()> {
        let acks = Json::Arr(records.iter().map(|r| r.to_json()).collect());
        let mut line = Json::obj(vec![("acks", acks)]).to_text();
        line.push('\n');
        let mut handle = lock(&self.file);
        // Taken out so that a failed append drops it.
        let mut file = match handle.take() {
            Some(file) => file,
            None => open_for_append(&self.dir.join(Self::FILE))?,
        };
        let start = file.metadata()?.len();
        if let Err(e) = file.write_all(line.as_bytes()) {
            let _ = file.set_len(start);
            return Err(e);
        }
        *handle = Some(file);
        self.acked.fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Loads the journal under `dir`, in append order. A missing or
    /// unreadable file is an empty journal, not an error.
    pub fn load(dir: &Path) -> JournalLoad {
        let bytes = read_complete(&dir.join(Self::FILE)).unwrap_or_default();
        let mut out = JournalLoad::default();
        for line in String::from_utf8_lossy(&bytes).lines() {
            match Line::decode(line) {
                Line::Dropped(n) => out.dropped += n,
                Line::Batch(records) => {
                    out.batches += 1;
                    match records {
                        Some(mut records) => out.records.append(&mut records),
                        None => out.corrupt_lines += 1,
                    }
                }
            }
        }
        out
    }

    /// Drops the oldest batches beyond a retention budget, keeping the
    /// newest `retain`. The file is rewritten whole, tmp file + atomic
    /// rename, as the compaction line (carrying every record dropped so
    /// far) followed by the kept batch lines: a crash leaves either the
    /// old file or the new one.
    ///
    /// # Errors
    ///
    /// Propagates read and rewrite failures; on error the file is as it
    /// was.
    pub fn compact(&self, retain: usize) -> std::io::Result<CompactionStats> {
        let mut handle = lock(&self.file);
        let path = self.dir.join(Self::FILE);
        let bytes = match read_complete(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut dropped = 0;
        let mut batches = Vec::new();
        for line in text.lines() {
            match Line::decode(line) {
                Line::Dropped(n) => dropped += n,
                Line::Batch(records) => batches.push((line, records.map_or(0, |r| r.len()))),
            }
        }
        let (stale, kept) = batches.split_at(batches.len().saturating_sub(retain));
        let stats = CompactionStats {
            dropped_batches: stale.len(),
            dropped_records: stale.iter().map(|&(_, n)| n).sum(),
            retained_batches: kept.len(),
        };
        if !stale.is_empty() {
            let dropped = dropped + stats.dropped_records as u64;
            let mut body = Json::obj(vec![("dropped", Json::U64(dropped))]).to_text();
            for (line, _) in kept {
                body.push('\n');
                body.push_str(line);
            }
            body.push('\n');
            write_atomic(&path, &body)?;
            *handle = None;
        }
        Ok(stats)
    }
}

/// One complete line of the journal file.
enum Line {
    /// The compaction line: records dropped by earlier passes.
    Dropped(u64),
    /// One acknowledged batch; `None` when the line does not decode.
    Batch(Option<Vec<AckRecord>>),
}

impl Line {
    fn decode(text: &str) -> Line {
        let Ok(v) = parse(text) else { return Line::Batch(None) };
        match v.get("dropped").and_then(Json::as_u64) {
            Some(n) => Line::Dropped(n),
            None => Line::Batch(
                v.get("acks")
                    .and_then(Json::as_arr)
                    .and_then(|acks| acks.iter().map(AckRecord::from_json).collect()),
            ),
        }
    }
}

/// The complete lines of the journal file at `path`: its bytes through the
/// last newline. The bytes after it are an append a kill interrupted,
/// never acknowledged, so they are left out.
fn read_complete(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    bytes.truncate(bytes.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1));
    Ok(bytes)
}

/// Opens the journal file for appending, creating it and its directory as
/// needed, and cuts off an unterminated last line (an append a kill
/// interrupted) so that the next line starts on a line of its own. It
/// reads the file once, as [`AckJournal::load`] does.
fn open_for_append(path: &Path) -> std::io::Result<File> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    file.set_len(read_complete(path)?.len() as u64)?;
    Ok(file)
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

    /// `(records, batches)` on disk: what the `stat` verb reports.
    fn disk_counts(dir: &Path) -> (usize, usize) {
        let load = AckJournal::load(dir);
        (load.records.len(), load.batches)
    }

    /// Appends raw bytes to the journal file, as a torn or foreign write would.
    fn append_raw(dir: &Path, bytes: &str) {
        let mut f = OpenOptions::new().append(true).open(dir.join(AckJournal::FILE)).unwrap();
        f.write_all(bytes.as_bytes()).unwrap();
    }

    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
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
        assert_eq!(load.corrupt_lines, 0);
        assert_eq!(load.batches, 2);
        assert_eq!(load.records, vec![rec(1, 10), rec(1, 11), rec(2, 20)]);
        assert_eq!(files_in(&dir), vec![AckJournal::FILE], "one file holds every batch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_appends_after_prior_proof() {
        let dir = tmp_dir("restart");
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
    fn corrupt_lines_are_counted_not_fatal() {
        let dir = tmp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        j.append(&[rec(1, 1)]).unwrap();
        append_raw(&dir, "{ torn\n");
        std::fs::write(dir.join("not-a-journal.txt"), "ignored").unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 1)]);
        assert_eq!(load.corrupt_lines, 1);
        // And the next append lands after the corrupt line.
        let next = AckJournal::open(&dir);
        next.append(&[rec(2, 2)]).unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 1), rec(2, 2)]);
        assert_eq!((load.batches, load.corrupt_lines), (3, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_last_line_is_no_record_and_the_next_append_starts_a_line_of_its_own() {
        let dir = tmp_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        j.append(&[rec(1, 1)]).unwrap();
        // A kill mid-append: half a batch line, no newline.
        append_raw(&dir, "{\"acks\":[{\"matrix\":1,\"x_hash\":2");
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 1)], "a torn line is not a record");
        assert_eq!((load.batches, load.corrupt_lines), (1, 0), "nor a corrupt line");

        let reopened = AckJournal::open(&dir);
        reopened.append(&[rec(2, 2)]).unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 1), rec(2, 2)]);
        assert_eq!((load.batches, load.corrupt_lines), (2, 0));
        let text = std::fs::read_to_string(dir.join(AckJournal::FILE)).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().count(), 2, "the torn tail was cut off: {text:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_the_newest_batches_and_restart_keeps_the_dropped_count() {
        let dir = tmp_dir("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        for i in 0..5 {
            j.append(&[rec(1, i), rec(1, 100 + i)]).unwrap();
        }
        assert_eq!(disk_counts(&dir), (10, 5));

        let stats = j.compact(2).unwrap();
        assert_eq!(
            stats,
            CompactionStats { dropped_batches: 3, dropped_records: 6, retained_batches: 2 }
        );
        assert_eq!(disk_counts(&dir), (4, 2));
        let load = AckJournal::load(&dir);
        assert_eq!(load.dropped, 6, "the compaction line carries the dropped-record count");
        assert_eq!(load.records, vec![rec(1, 3), rec(1, 103), rec(1, 4), rec(1, 104)]);
        assert_eq!(files_in(&dir), vec![AckJournal::FILE], "compaction leaves one file");

        // A second pass over an already-tight journal is a no-op.
        let again = j.compact(2).unwrap();
        assert_eq!(
            again,
            CompactionStats { dropped_batches: 0, dropped_records: 0, retained_batches: 2 }
        );

        // Appends after a pass land in the rewritten file.
        j.append(&[rec(1, 5)]).unwrap();
        assert_eq!(disk_counts(&dir), (5, 3));

        // Compacting everything away keeps the count, and a restart
        // appends after it.
        let all = j.compact(0).unwrap();
        assert_eq!((all.dropped_batches, all.dropped_records), (3, 5));
        assert_eq!(disk_counts(&dir), (0, 0));
        let restarted = AckJournal::open(&dir);
        restarted.append(&[rec(7, 7)]).unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!((load.dropped, load.records.len()), (11, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stray_compaction_tmp_file_is_ignored_by_load_and_append() {
        let dir = tmp_dir("stray");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        for i in 0..2 {
            j.append(&[rec(1, i)]).unwrap();
        }
        // A pass killed before its rename leaves its tmp file behind; an
        // older daemon's per-batch files are no journal either.
        let stray = format!(
            "{{\"dropped\":1}}\n{}\n",
            Json::obj(vec![("acks", Json::Arr(vec![rec(1, 1).to_json()]))]).to_text()
        );
        let tmp = dir.join(format!(".{}.4242.0.tmp", AckJournal::FILE));
        std::fs::write(&tmp, &stray).unwrap();
        std::fs::write(dir.join("ack-00000000.json"), "{\"version\":1,\"seq\":0,\"acks\":[]}")
            .unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 0), rec(1, 1)]);
        assert_eq!((load.dropped, load.corrupt_lines), (0, 0));

        let next = AckJournal::open(&dir);
        next.append(&[rec(1, 2)]).unwrap();
        let load = AckJournal::load(&dir);
        assert_eq!(load.records, vec![rec(1, 0), rec(1, 1), rec(1, 2)]);
        assert_eq!(load.dropped, 0);
        assert_eq!(std::fs::read_to_string(&tmp).unwrap(), stray, "the stray file is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_and_compactions_account_for_every_record() {
        let dir = tmp_dir("race");
        let _ = std::fs::remove_dir_all(&dir);
        let j = AckJournal::open(&dir);
        let (appenders, per_thread) = (4u64, 100u64);
        let appending = std::sync::atomic::AtomicU64::new(appenders);
        std::thread::scope(|scope| {
            for t in 0..appenders {
                let (j, appending) = (&j, &appending);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        j.append(&[rec(t, i), rec(t, 1000 + i)]).unwrap();
                    }
                    appending.fetch_sub(1, Ordering::SeqCst);
                });
            }
            for retain in [0, 3] {
                let (j, appending) = (&j, &appending);
                scope.spawn(move || {
                    while appending.load(Ordering::SeqCst) > 0 {
                        j.compact(retain).unwrap();
                    }
                });
            }
        });
        let load = AckJournal::load(&dir);
        assert_eq!(load.corrupt_lines, 0);
        assert_eq!(
            load.dropped + load.records.len() as u64,
            appenders * per_thread * 2,
            "dropped {} + live {}",
            load.dropped,
            load.records.len()
        );
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

    #[test]
    fn vec_hash_has_a_fixed_value() {
        // A restarted daemon and the chaos checker read journals that
        // another process wrote: the value is part of the journal format.
        let v = crate::protocol::seeded_vector(8, 42);
        assert_eq!(vec_hash(&v), 16_983_787_013_784_028_682);
    }

    #[test]
    fn flipping_any_one_or_two_bits_changes_vec_hash() {
        let base = [1.5f64, -0.0, f64::MIN_POSITIVE];
        let bits: Vec<u64> = base.iter().map(|v| v.to_bits()).collect();
        let hash_with = |flips: &[usize]| {
            let mut v = bits.clone();
            for &f in flips {
                v[f / 64] ^= 1 << (f % 64);
            }
            vec_hash(&v.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>())
        };
        let want = vec_hash(&base);
        for i in 0..192 {
            assert_ne!(hash_with(&[i]), want, "bit {i}");
            for j in i + 1..192 {
                assert_ne!(hash_with(&[i, j]), want, "bits {i} and {j}");
            }
        }
        assert_ne!(vec_hash(&[1.0, 1.0]), vec_hash(&[-1.0, -1.0]), "two sign flips do not cancel");
    }
}
