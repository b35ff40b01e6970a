//! Crash-consistency acceptance test: SIGKILL the daemon process in the
//! middle of a fused batch and prove that nothing persisted is torn —
//! the mapping artifacts and telemetry timeline still load, the
//! acknowledgment journal proves exactly the answers that were actually
//! given, and a restarted daemon over the same cache answers replayed
//! requests bitwise-correctly without recomputing a single mapping.
//!
//! The daemon runs in a separate OS process (this same test binary,
//! re-invoked on an `#[ignore]`d helper) so `Child::kill` delivers a real
//! SIGKILL: no destructors, no flush-on-drop. Only the write discipline
//! stands between the daemon and a torn artifact: tmp+rename for the
//! mapping artifacts and the timeline, one whole line per append for the
//! journal, whose loader skips an unterminated last line.

use spacea_serve::{seeded_vector, AckJournal, Client, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const DIR_ENV: &str = "SPACEA_KILL_DIR";
const STALL_MS: u64 = 30_000;

/// The admission ordinal (and seed) of the request the kill lands on:
/// requests `0..STALLED` are acknowledged before it.
const STALLED: u64 = 8;

fn tmp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("spacea-serve-kill-{}", std::process::id()))
}

/// Not a test: the daemon half of the kill scenario. `#[ignore]`d so a
/// plain `cargo test` skips it; the real test re-invokes this binary with
/// `--ignored --exact` and the cache directory in the environment, then
/// SIGKILLs the whole process mid-batch.
#[test]
#[ignore = "helper process for sigkill_mid_batch; runs only when re-invoked"]
fn daemon_process_helper() {
    let Ok(dir) = std::env::var(DIR_ENV) else { return };
    let mut cfg = ServeConfig::quick(&dir);
    // Request `STALLED` wedges inside the batcher for far longer than the
    // parent waits — the kill lands mid-batch by construction. The first
    // acknowledged request flushed the telemetry timeline, so the file on
    // disk is mid-flight state, not a shutdown artifact.
    cfg.chaos = spacea_serve::ChaosPlan {
        stall_req: Some((STALLED, STALL_MS)),
        ..spacea_serve::ChaosPlan::default()
    };
    spacea_serve::run_daemon(cfg, 0).expect("daemon runs until killed");
}

/// Starts the helper daemon as a real child process over `dir`.
fn spawn_daemon_process(dir: &Path) -> std::process::Child {
    std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "daemon_process_helper", "--ignored", "--nocapture"])
        .env(DIR_ENV, dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("helper daemon spawns")
}

#[test]
fn sigkill_mid_batch_leaves_mappings_journal_and_timeline_loadable() {
    let dir = tmp_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = spawn_daemon_process(&dir);
    let mut admin = Client::connect_dir_within(&dir, Duration::from_secs(30)).unwrap();
    let m = admin.register(1, 256).unwrap();
    let a = spacea_matrix::suite::entry_by_id(1).unwrap().generate(256);

    // Requests 0..STALLED complete and are acknowledged before the crash;
    // the first of them flushed the timeline.
    let want: Vec<Vec<f64>> =
        (0..=STALLED).map(|seed| a.spmv(&seeded_vector(a.cols(), seed))).collect();
    for seed in 0..STALLED {
        let out = admin.submit(m.matrix, seed).unwrap();
        assert_eq!(out.y, want[seed as usize], "pre-crash answer diverges from offline SpMV");
    }

    // Request STALLED stalls inside the batcher (chaos stall-req);
    // SIGKILL lands while it is mid-batch. Its client must see a dead
    // transport, never a fabricated answer.
    let stalled = {
        let dir = dir.clone();
        let key = m.matrix;
        std::thread::spawn(move || {
            let mut client = Client::connect_dir(&dir).unwrap();
            client.submit(key, STALLED)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while admin.stat().unwrap().get("queue_depth").and_then(|j| j.as_u64()) == Some(0) {
        assert!(Instant::now() < deadline, "stalled request never entered the queue");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100)); // let it reach the stall
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    let crashed = stalled.join().unwrap();
    let e = crashed.expect_err("a request in flight at SIGKILL cannot have been answered");
    assert!(e.is_transport(), "in-flight request died with {e}, expected a transport failure");

    // --- Post-mortem: everything persisted must still load. ---
    // The journal proves exactly the pre-crash acknowledgments, in order,
    // with the right hashes.
    let journal = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!(journal.corrupt_lines, 0, "SIGKILL tore a journal line");
    assert_eq!(journal.records.len() as u64, STALLED, "exactly the pre-crash acks are journaled");
    for (record, y) in journal.records.iter().zip(&want) {
        assert_eq!(record.matrix, m.matrix);
        assert_eq!(record.y_hash, spacea_serve::vec_hash(y));
    }

    // The telemetry timeline flushed mid-flight is a valid Chrome trace.
    let trace = std::fs::read_to_string(dir.join("serve-timeline.json"))
        .expect("timeline flushed before the crash");
    spacea_obs::json::validate_chrome_trace(&trace).expect("timeline is a valid Chrome trace");

    // The mapping artifact survives: a restarted daemon warms from disk
    // (zero recomputes) and answers both the acknowledged request and the
    // one that died mid-batch, bitwise-correctly.
    let cfg = ServeConfig::quick(&dir);
    let daemon = std::thread::spawn(move || spacea_serve::run_daemon(cfg, 0));
    let mut client = Client::connect_dir_within(&dir, Duration::from_secs(30)).unwrap();
    let m2 = client.register(1, 256).unwrap();
    assert_eq!(m2.matrix, m.matrix);
    for seed in [0, STALLED] {
        let out = client.submit(m.matrix, seed).unwrap();
        assert_eq!(out.y, want[seed as usize], "post-restart replay of seed {seed} diverged");
    }
    let stat = client.stat().unwrap();
    assert_eq!(
        stat.get("mappings").and_then(|m| m.get("computed")).and_then(|j| j.as_u64()),
        Some(0),
        "the mapping artifact written before the crash must be loadable as-is"
    );
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    // The second life appended its two answers after the first life's,
    // in the same one file.
    let journal = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!((journal.records.len() as u64, journal.corrupt_lines), (STALLED + 2, 0));
    let files = std::fs::read_dir(dir.join(AckJournal::DIR)).unwrap().count();
    assert_eq!(files, 1, "the journal is one file");

    let _ = std::fs::remove_dir_all(&dir);
}
