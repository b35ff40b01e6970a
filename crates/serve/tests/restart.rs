//! End-to-end acceptance test of the daemon: concurrent mixed-matrix
//! requests over real localhost TCP match the offline reference SpMV
//! bitwise, and a restarted daemon performs zero Phase I/II mapping
//! computations for previously registered matrices.

use spacea_serve::{run_daemon, seeded_vector, AckJournal, Client, ServeConfig, PORT_FILE};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spacea-serve-restart-{tag}-{}", std::process::id()))
}

/// Starts a daemon thread over `dir` and waits for its port file.
fn start_daemon(dir: &Path) -> std::thread::JoinHandle<()> {
    let cfg = ServeConfig::quick(dir);
    let handle = std::thread::spawn(move || run_daemon(cfg, 0).expect("daemon runs"));
    let port_path = dir.join(PORT_FILE);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !port_path.exists() {
        assert!(Instant::now() < deadline, "daemon never published its port");
        assert!(!handle.is_finished(), "daemon died before publishing its port");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle
}

/// The names of the files in the journal directory under `dir`.
fn journal_files(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir.join(AckJournal::DIR)).expect("journal directory exists");
    let mut names: Vec<String> =
        entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    names
}

fn manifest_counts(dir: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(dir.join("serve-manifest.json")).expect("manifest exists");
    let v = spacea_obs::json::parse(&text).expect("manifest parses");
    let maps = v.get("mappings").expect("mappings field");
    (
        maps.get("computed").and_then(|j| j.as_u64()).expect("computed"),
        maps.get("disk_hits").and_then(|j| j.as_u64()).expect("disk_hits"),
    )
}

#[test]
fn mtx_registration_and_journal_compaction_over_the_wire() {
    let dir = tmp_dir("compact");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);
    let mut client = Client::connect_dir(&dir).unwrap();

    // A MatrixMarket body registers like a suite matrix and answers
    // bitwise-correct submits against the offline parse.
    let text = include_str!("../../matrix/tests/fixtures/bar5.mtx");
    let reply = client.register_mtx(text).unwrap();
    let a = spacea_matrix::Csr::from_mtx(text).unwrap();
    assert_eq!((reply.rows, reply.cols, reply.nnz), (a.rows(), a.cols(), a.nnz()));
    let e = client.register_mtx("not a matrix").unwrap_err();
    assert_eq!(e.code, "bad-request");

    for seed in 0..3u64 {
        let out = client.submit(reply.matrix, seed).unwrap();
        let want = a.spmv(&seeded_vector(a.cols(), seed));
        let got: Vec<u64> = out.y.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "seed {seed}: mtx-registered reply diverged");
    }

    // Three sequential submits journal three single-record batches; stat
    // reports the journal's size and compact trims it to the budget.
    let stat = client.stat().unwrap();
    assert_eq!(stat.get("journal_records").and_then(|j| j.as_u64()), Some(3));
    assert_eq!(stat.get("journal_batches").and_then(|j| j.as_u64()), Some(3));
    let c = client.compact(1).unwrap();
    assert_eq!((c.dropped_batches, c.dropped_records, c.retained_batches), (2, 2, 1));
    let stat = client.stat().unwrap();
    assert_eq!(stat.get("journal_records").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(stat.get("journal_batches").and_then(|j| j.as_u64()), Some(1));
    let load = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!((load.records.len(), load.dropped, load.corrupt_lines), (1, 2, 0));

    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert_eq!(journal_files(&dir), vec![AckJournal::FILE], "one journal file per life");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_requests_match_reference_and_restart_is_warm() {
    let dir = tmp_dir("e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // --- Cold daemon: registration pays Phase I/II. ---
    let daemon = start_daemon(&dir);
    let mut admin = Client::connect_dir(&dir).unwrap();
    admin.ping().unwrap();
    let m1 = admin.register(1, 256).unwrap();
    let m2 = admin.register(2, 256).unwrap();
    assert_ne!(m1.matrix, m2.matrix);

    // Offline references, computed without the daemon.
    let a1 = spacea_matrix::suite::entry_by_id(1).unwrap().generate(256);
    let a2 = spacea_matrix::suite::entry_by_id(2).unwrap().generate(256);

    // 8 concurrent clients, mixed matrices: every reply must be bitwise
    // the offline SpMV regardless of how the batcher fused them.
    let mut workers = Vec::new();
    for t in 0..8u64 {
        let dir = dir.clone();
        let (key, reference) = if t % 2 == 0 {
            (m1.matrix, a1.spmv(&seeded_vector(a1.cols(), t)))
        } else {
            (m2.matrix, a2.spmv(&seeded_vector(a2.cols(), t)))
        };
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_dir(&dir).unwrap();
            let out = client.submit(key, t).unwrap();
            let got: Vec<u64> = out.y.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "client {t}: daemon reply diverged from offline SpMV");
            assert!(out.batch >= 1);
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let stat = admin.stat().unwrap();
    assert_eq!(stat.get("requests").and_then(|j| j.as_u64()), Some(8));
    assert_eq!(stat.get("registered").and_then(|j| j.as_u64()), Some(2));
    admin.shutdown().unwrap();
    daemon.join().unwrap();

    let (computed, _) = manifest_counts(&dir);
    assert_eq!(computed, 2, "cold run computes each mapping exactly once");
    assert!(!dir.join(PORT_FILE).exists(), "port file removed on shutdown");
    assert!(dir.join("serve-timeline.json").exists(), "telemetry flushed on shutdown");

    // Every acknowledged request left a journal record proving its answer.
    let journal = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!(journal.corrupt_lines, 0, "graceful shutdown leaves no corrupt journal line");
    assert_eq!(journal.records.len(), 8, "one acknowledgment record per answered request");

    // --- Restarted daemon over the same cache dir: zero computations. ---
    let daemon = start_daemon(&dir);
    let mut client = Client::connect_dir(&dir).unwrap();
    let m1b = client.register(1, 256).unwrap();
    client.register(2, 256).unwrap();
    assert_eq!(m1b.matrix, m1.matrix, "content addressing is stable across restarts");
    let out = client.submit(m1b.matrix, 99).unwrap();
    let want = a1.spmv(&seeded_vector(a1.cols(), 99));
    assert_eq!(out.y, want);
    client.shutdown().unwrap();
    daemon.join().unwrap();

    let (computed, disk_hits) = manifest_counts(&dir);
    assert_eq!(computed, 0, "a warm restart must not re-run Phase I/II mapping");
    assert_eq!(disk_hits, 2, "both mappings loaded from the persistent cache");
    assert_eq!(journal_files(&dir), vec![AckJournal::FILE], "one journal file per life");

    let _ = std::fs::remove_dir_all(&dir);
}
