//! Chaos soak for the `spacea-serve` daemon: N seeded fault plans, one
//! live daemon each, and a lost/wrong-answer invariant checker.
//!
//! Each seed derives a deterministic [`ChaosPlan`] (exactly the one
//! `serve start --chaos-seed N` arms), boots a real daemon over a fresh
//! cache directory with a shed mark of 4, and fires concurrent client
//! traffic through whatever the plan does to it — wedged batches, stalled
//! requests, shed admissions. The soak then enforces the core serving
//! invariant, which no chaos plan may ever break:
//!
//! * every request the client saw **succeed** is bitwise equal to the
//!   offline [`spacea_matrix::Csr::spmv`] reference AND present in the
//!   write-ahead acknowledgment journal;
//! * every journal record hashes to the correct output — a record can
//!   prove an answer was given, never a wrong one;
//! * every request that did **not** succeed carries an explicit coded
//!   rejection (`overloaded`, `deadline-exceeded`, `internal`) — a
//!   transport failure means a request was silently lost and fails the
//!   soak;
//! * between the two lives the soak damages the mapping artifacts on disk,
//!   as ci.sh does to a sweep cache: it overwrites the first in sorted
//!   order with garbage and cuts the second to half its bytes. The
//!   **second life**, with no plan armed, must report exactly those 2
//!   artifacts healed and answer every journaled request correctly again;
//! * in **both lives**, hostile request lines get their coded reply and a
//!   clean close, a slow client's request split by a pause is answered,
//!   and the next request is still acked bitwise;
//! * after **each life**, the journal directory holds one file,
//!   `acks.jsonl`.
//!
//! `serve_chaos --seeds 8` runs seeds 0..8 (the CI smoke);
//! `serve_chaos --seed K` re-runs one seed in full: its plan
//! (`ChaosPlan::from_seed(K)`), the damage between the lives, and the
//! invariants checked against both. `serve start --chaos-seed K` replays
//! only the plan's in-daemon faults. The per-seed acked, rejected and
//! journaled counts can differ from run to run: which of the concurrent
//! requests find 4 others admitted and are shed depends on thread
//! scheduling.

use spacea_matrix::mmio::MAX_MTX_DIM;
use spacea_matrix::Csr;
use spacea_obs::json::{parse, Json};
use spacea_serve::client::read_port;
use spacea_serve::protocol::{code_of, is_ok};
use spacea_serve::{
    run_daemon, seeded_vector, vec_hash, AckJournal, CallError, ChaosPlan, Client, Request,
    ServeConfig, MAX_LINE_BYTES,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

const MATRICES: [(u8, usize); 2] = [(1, 256), (2, 256)];
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);

fn main() {
    let mut seeds: Vec<u64> = Vec::new();
    let mut count = 8u64;
    let mut requests = 6usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut need = |what: &str| {
            args.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| {
                eprintln!("serve_chaos: {what} needs an unsigned integer");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seeds" => count = need("--seeds"),
            "--seed" => seeds.push(need("--seed")),
            "--requests" => requests = need("--requests") as usize,
            other => {
                eprintln!(
                    "serve_chaos: unknown flag '{other}' \
                     (flags: --seeds N | --seed K | --requests R)"
                );
                std::process::exit(2);
            }
        }
    }
    if seeds.is_empty() {
        seeds = (0..count).collect();
    }
    let root = PathBuf::from("target/spacea-serve-chaos");

    let mut failed = Vec::new();
    for &seed in &seeds {
        let plan = ChaosPlan::from_seed(seed);
        match soak_seed(seed, requests.max(1), &root) {
            Ok(summary) => println!("seed {seed:>3} [{plan}]: {summary}"),
            Err(e) => {
                eprintln!("seed {seed:>3} [{plan}]: FAILED: {e}");
                failed.push(seed);
            }
        }
    }
    if failed.is_empty() {
        println!(
            "serve_chaos: {} seeded plan(s), zero lost, zero wrong-but-successful",
            seeds.len()
        );
    } else {
        for seed in &failed {
            eprintln!("serve_chaos: re-run the same plan with: serve_chaos --seed {seed}");
        }
        std::process::exit(1);
    }
}

/// The offline answer to one request: `(matrix key, y)`.
type Answer = (u64, Vec<f64>);

/// One request the soak fired: enough to recompute the offline truth.
#[derive(Debug, Clone)]
struct Shot {
    matrix: u64,
    req_seed: u64,
    x_hash: u64,
    y_hash: u64,
}

/// Runs one seed's full scenario; `Ok` carries a one-line summary.
fn soak_seed(seed: u64, requests: usize, root: &Path) -> Result<String, String> {
    let plan = ChaosPlan::from_seed(seed);
    let dir = root.join(format!("seed-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Life 1: the plan against concurrent traffic. ------------------
    let cfg = ServeConfig {
        chaos: plan,
        // Small enough that concurrent clients can actually cross it.
        shed_mark: 4,
        ..ServeConfig::quick(&dir)
    };
    let daemon = std::thread::Builder::new()
        .name(format!("chaos-daemon-{seed}"))
        .spawn({
            let cfg = cfg.clone();
            move || run_daemon(cfg, 0)
        })
        .map_err(|e| format!("cannot spawn daemon thread: {e}"))?;

    let mut truth: BTreeMap<u64, Answer> = BTreeMap::new(); // keyed by x_hash
    let mut keys = Vec::new();
    let mut offline = Vec::new();
    for (id, scale) in MATRICES {
        let reply = call(&dir, |c| c.register(id, scale))
            .map_err(|e| format!("register m{id}/{scale}: {e}"))?;
        let a = spacea_matrix::suite::entry_by_id(id)
            .ok_or_else(|| format!("suite id {id} vanished"))?
            .generate(scale);
        keys.push((reply.matrix, reply.cols));
        offline.push(a);
    }
    let mut shots = Vec::new();
    for i in 0..requests {
        let (key, cols) = keys[i % keys.len()];
        let req_seed = i as u64;
        let x = seeded_vector(cols, req_seed);
        let y = offline[i % keys.len()].spmv(&x);
        let shot = Shot { matrix: key, req_seed, x_hash: vec_hash(&x), y_hash: vec_hash(&y) };
        truth.insert(shot.x_hash, (key, y));
        shots.push(shot);
    }

    // Fire all requests concurrently so batching, shedding and the plan's
    // ordinal faults all see real contention.
    let outcomes: Vec<(Shot, Result<Vec<f64>, CallError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shots
            .iter()
            .map(|shot| {
                let shot = shot.clone();
                let dir = &dir;
                scope.spawn(move || {
                    let out = call(dir, |c| c.submit_within(shot.matrix, shot.req_seed, 2_000));
                    (shot, out.map(|o| o.y))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let dead = Shot { matrix: 0, req_seed: 0, x_hash: 0, y_hash: 0 };
                    (
                        dead,
                        Err(CallError {
                            code: "panic".into(),
                            message: "client thread panicked".into(),
                        }),
                    )
                })
            })
            .collect()
    });

    // The probes' submits are journaled like any other request.
    truth.extend(hostile_lines(&dir, keys[0].0, &offline[0])?);
    call(&dir, Client::shutdown).map_err(|e| format!("shutdown: {e}"))?;
    join_daemon(daemon)?;

    // ---- Invariant check over life 1. ----------------------------------
    let mut acked = 0usize;
    let mut rejected = 0usize;
    let mut ok_hashes = Vec::new();
    for (shot, outcome) in &outcomes {
        match outcome {
            Ok(y) => {
                if vec_hash(y) != shot.y_hash {
                    return Err(format!(
                        "request (m={:016x}, seed={}) acknowledged WRONG: output diverges \
                         from the offline SpMV",
                        shot.matrix, shot.req_seed
                    ));
                }
                ok_hashes.push(shot.x_hash);
                acked += 1;
            }
            Err(e)
                if matches!(e.code.as_str(), "overloaded" | "deadline-exceeded" | "internal") =>
            {
                rejected += 1; // explicit coded rejection: allowed
            }
            Err(e) => {
                return Err(format!(
                    "request (m={:016x}, seed={}) was LOST: no acknowledgment and no \
                     coded rejection ({e})",
                    shot.matrix, shot.req_seed
                ));
            }
        }
    }
    let load = AckJournal::load(&dir.join(AckJournal::DIR));
    if load.corrupt_lines != 0 {
        return Err(format!(
            "{} corrupt journal line(s) after a graceful shutdown",
            load.corrupt_lines
        ));
    }
    for rec in &load.records {
        match truth.get(&rec.x_hash) {
            Some((key, y)) if *key == rec.matrix => {
                if vec_hash(y) != rec.y_hash {
                    return Err(format!(
                        "journal claims a WRONG answer for x_hash {:016x}",
                        rec.x_hash
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "journal holds a record for a request never sent (x_hash {:016x})",
                    rec.x_hash
                ));
            }
        }
    }
    for x_hash in &ok_hashes {
        if !load.records.iter().any(|r| r.x_hash == *x_hash) {
            return Err(format!(
                "acknowledged request (x_hash {x_hash:016x}) missing from the journal: \
                 the write-ahead contract was violated"
            ));
        }
    }
    one_journal_file(&dir)?;

    // ---- Life 2: restart over damaged mapping artifacts, no plan. ------
    damage_mappings(&dir)?;
    let life2 = ServeConfig::quick(&dir);
    let daemon = std::thread::Builder::new()
        .name(format!("chaos-daemon-{seed}-life2"))
        .spawn(move || run_daemon(life2, 0))
        .map_err(|e| format!("cannot spawn life-2 daemon thread: {e}"))?;
    for (id, scale) in MATRICES {
        call(&dir, |c| c.register(id, scale))
            .map_err(|e| format!("life 2 register m{id}/{scale}: {e}"))?;
    }
    let stat = call(&dir, Client::stat).map_err(|e| format!("life 2 stat: {e}"))?;
    let healed = stat.get("mappings").and_then(|m| m.get("healed")).and_then(Json::as_u64);
    if healed != Some(2) {
        return Err(format!("life 2 healed {healed:?} mapping artifacts, not the 2 damaged"));
    }
    // Replay every journaled request: the restarted daemon must reproduce
    // each acknowledged answer bitwise from the healed cache.
    let mut replayed = 0usize;
    for shot in &shots {
        if !load.records.iter().any(|r| r.x_hash == shot.x_hash) {
            continue;
        }
        let out = call(&dir, |c| c.submit_within(shot.matrix, shot.req_seed, 5_000))
            .map_err(|e| format!("life 2 replay (seed {}): {e}", shot.req_seed))?;
        if vec_hash(&out.y) != shot.y_hash {
            return Err(format!(
                "life 2 replay (seed {}) diverges from the journaled answer",
                shot.req_seed
            ));
        }
        replayed += 1;
    }
    hostile_lines(&dir, keys[0].0, &offline[0]).map_err(|e| format!("life 2 {e}"))?;
    call(&dir, Client::shutdown).map_err(|e| format!("life 2 shutdown: {e}"))?;
    join_daemon(daemon)?;
    one_journal_file(&dir).map_err(|e| format!("life 2: {e}"))?;

    Ok(format!(
        "{acked} acked, {rejected} rejected (coded), {} journaled; after restart 2 mappings \
         healed, {replayed} replayed bitwise",
        load.records.len()
    ))
}

/// Damages the mapping artifacts under `dir` between the lives: the first
/// in sorted order is overwritten with garbage, the second cut to half its
/// bytes (a torn write). Each of the soak's two matrices has one artifact.
fn damage_mappings(dir: &Path) -> Result<(), String> {
    let mappings = dir.join("mappings");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&mappings)
        .map_err(|e| format!("{}: {e}", mappings.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let [garbled, torn] = files.as_slice() else {
        return Err(format!("expected 2 mapping artifacts after life 1, found {files:?}"));
    };
    std::fs::write(garbled, "{ chaos: corrupted")
        .and_then(|()| std::fs::read(torn))
        .and_then(|bytes| std::fs::write(torn, &bytes[..bytes.len() / 2]))
        .map_err(|e| format!("damaging the mapping artifacts: {e}"))
}

/// Checks that the journal directory under `dir` holds exactly the one
/// journal file: a daemon life appends to it and creates nothing else.
fn one_journal_file(dir: &Path) -> Result<(), String> {
    let names: Vec<_> = std::fs::read_dir(dir.join(AckJournal::DIR))
        .map_err(|e| format!("journal directory: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .collect();
    if names != [AckJournal::FILE] {
        return Err(format!("the journal directory holds {names:?}, not one {}", AckJournal::FILE));
    }
    Ok(())
}

/// Sends hostile request lines, each raw on its own connection: a
/// 100,000-deep `[` nest, a line past [`MAX_LINE_BYTES`] and a
/// `register-mtx` whose MatrixMarket header declares a matrix far past
/// [`MAX_MTX_DIM`] must get a coded `bad-request`, a request split by a
/// pause longer than the daemon's 200 ms read timeout an answer. After
/// each, a submit on a fresh connection must be acked bitwise; returns
/// those submits as `(x_hash, (key, y))`.
fn hostile_lines(dir: &Path, key: u64, a: &Csr) -> Result<Vec<(u64, Answer)>, String> {
    let (deep, long) = ("[".repeat(100_000) + "\n", "x".repeat(MAX_LINE_BYTES + 1));
    let huge = 1_000_000 * MAX_MTX_DIM;
    let text = format!("%%MatrixMarket matrix coordinate real general\n{huge} {huge} 1\n1 1 1\n");
    let false_header = Request::RegisterMtx { text }.to_line() + "\n";
    let cases: [(&str, &[&str], &str); 4] = [
        ("100,000-deep nesting", &[&deep], "bad-request"),
        ("over-long line", &[&long], "bad-request"),
        ("false MatrixMarket header", &[&false_header], "bad-request"),
        ("request split by a 500 ms pause", &["{\"cmd\":", "\"ping\"}\n"], "ok"),
    ];
    let mut probes = Vec::new();
    for (i, (what, parts, want)) in cases.into_iter().enumerate() {
        match send_raw(dir, parts) {
            Ok(got) if got == want => {}
            other => return Err(format!("{what}: expected a {want} reply, got {other:?}")),
        }
        let seed = (1 << 32) + i as u64;
        let x = seeded_vector(a.cols(), seed);
        let y = a.spmv(&x);
        // A life-1 plan may still hold a one-shot batch fault, which
        // rejects with a code; the retry runs clean.
        let out = (0..4)
            .find_map(|_| call(dir, |c| c.submit_within(key, seed, 5_000)).ok())
            .ok_or_else(|| format!("no request acknowledged after {what}"))?;
        if vec_hash(&out.y) != vec_hash(&y) {
            return Err(format!("request after {what} acknowledged WRONG"));
        }
        probes.push((vec_hash(&x), (key, y)));
    }
    Ok(probes)
}

/// Writes `parts`, 500 ms apart, on a fresh connection. Returns the reply's
/// `ok` or error code once the daemon has closed the connection cleanly.
fn send_raw(dir: &Path, parts: &[&str]) -> Result<String, String> {
    let port = read_port(dir).map_err(|e| e.to_string())?;
    let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let mut conn = BufReader::new(stream);
    for (i, part) in parts.iter().enumerate() {
        std::thread::sleep(Duration::from_millis(if i > 0 { 500 } else { 0 }));
        conn.get_mut().write_all(part.as_bytes()).map_err(|e| e.to_string())?;
    }
    let (mut reply, mut rest) = (String::new(), String::new());
    conn.read_line(&mut reply).map_err(|e| e.to_string())?;
    let _ = conn.get_ref().shutdown(Shutdown::Write);
    if conn.read_line(&mut rest).map_err(|e| e.to_string())? != 0 {
        return Err(format!("no clean close after the reply: {rest:?}"));
    }
    let v = parse(reply.trim())?;
    Ok(if is_ok(&v) { "ok".into() } else { code_of(&v).to_string() })
}

/// Runs one call on a fresh connection. Connecting waits out the port-file
/// race of a starting daemon; the call's outcome is final. A coded
/// rejection is the explicit outcome the soak classifies, and a transport
/// failure on a connection the daemon accepted is a lost request.
fn call<T>(
    dir: &Path,
    op: impl FnOnce(&mut Client) -> Result<T, CallError>,
) -> Result<T, CallError> {
    Client::connect_dir_within(dir, CONNECT_PATIENCE).and_then(|mut client| op(&mut client))
}

fn join_daemon(handle: std::thread::JoinHandle<std::io::Result<()>>) -> Result<(), String> {
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon exited with error: {e}")),
        Err(_) => Err("daemon thread panicked".to_string()),
    }
}
