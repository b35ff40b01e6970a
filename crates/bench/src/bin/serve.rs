//! CLI front end of the SpMV daemon (`spacea-serve`).
//!
//! Verbs:
//!
//! * `serve start [--port N] [--chaos SPEC|--chaos-seed N]`
//!   — run the daemon in the foreground over `--cache-dir` (default
//!   `target/spacea-cache`); `--quick` serves the tiny machine. It fuses up
//!   to `spacea_serve::service::MAX_BATCH` (16) same-matrix requests into
//!   one pass. The bound port is published to `<cache-dir>/serve.port`
//!   once the listener is up. `--chaos` arms a deterministic fault plan in
//!   the batch path, `wedge-batch=N` and `stall-req=N@MS` (see the
//!   `spacea_serve::chaos` grammar); `--chaos-seed K` derives one from a
//!   seed exactly as the `serve_chaos` soak does. That replays only the
//!   in-daemon faults of seed K: `serve_chaos --seed K` is the full replay,
//!   mapping-artifact damage between two daemon lives included.
//! * `serve submit --matrix 1/256,2/256 --seeds 0,1,2 [--check]
//!   [--deadline-ms N]` — one concurrent client thread per seed,
//!   round-robined over the matrix list; `--check` recomputes each result
//!   offline and fails on any bitwise divergence; `--deadline-ms` attaches
//!   a per-request deadline.
//! * `serve register --mtx PATH` — register a MatrixMarket file with the
//!   daemon and print its content key; `submit` then works against that
//!   key the same way it does for suite matrices.
//! * `serve compact [--retain N]` — drop journaled batches beyond the
//!   newest N (default 8); the journal file is rewritten atomically.
//! * `serve stat` — print the daemon's counters as JSON: the fields of
//!   `serve-manifest.json`, with `mappings` (`computed`, `disk_hits`,
//!   `healed`) and `simulations` (`run`, `reused`: passes simulated versus
//!   answered from a stored run of the same matrix and batch width) nested,
//!   plus the live `queue_depth`, `journal_records` and `journal_batches`.
//! * `serve shutdown` — stop the daemon (it flushes manifest + timeline).

use spacea_bench::{ArgError, HarnessOptions};
use spacea_serve::{run_daemon, seeded_vector, CallError, ChaosPlan, Client, ServeConfig};

const SERVE_USAGE: &str = "serve: start|submit|register|compact|stat|shutdown | --port N | \
     --chaos SPEC | --chaos-seed N | \
     --matrix ID/SCALE[,ID/SCALE...] | --seeds N[,N...] | --deadline-ms N | --check | \
     --mtx PATH | --retain N";

fn main() {
    let mut verb: Option<String> = None;
    let mut port = 0u16;
    let mut matrices = vec![(1u8, 256usize)];
    let mut seeds: Vec<u64> = (0..8).collect();
    let mut check = false;
    let mut chaos = ChaosPlan::default();
    let mut deadline_ms: Option<u64> = None;
    let mut mtx_path: Option<String> = None;
    let mut retain = 8usize;
    let opts = HarnessOptions::from_args_with(std::env::args().skip(1), |flag, args| {
        match flag {
            "start" | "submit" | "register" | "compact" | "stat" | "shutdown" if verb.is_none() => {
                verb = Some(flag.to_string());
            }
            "--port" => {
                port = args
                    .usize_value("--port")?
                    .try_into()
                    .map_err(|_| ArgError::new("--port needs a TCP port (fits in 16 bits)"))?;
            }
            "--chaos" => {
                chaos = ChaosPlan::parse(&args.value("--chaos")?)
                    .map_err(|e| ArgError::new(format!("--chaos: {e}")))?;
            }
            "--chaos-seed" => {
                chaos = ChaosPlan::from_seed(args.usize_value("--chaos-seed")? as u64);
            }
            "--matrix" => matrices = parse_matrices(&args.value("--matrix")?)?,
            "--seeds" => seeds = parse_seeds(&args.value("--seeds")?)?,
            "--deadline-ms" => deadline_ms = Some(args.usize_value("--deadline-ms")? as u64),
            "--check" => check = true,
            "--mtx" => mtx_path = Some(args.value("--mtx")?),
            "--retain" => retain = args.usize_value("--retain")?,
            _ => return Ok(false),
        }
        Ok(true)
    })
    .unwrap_or_else(|e| e.exit_with_usage(SERVE_USAGE));

    match verb.as_deref() {
        Some("start") => start(&opts, port, chaos),
        Some("submit") => submit(&opts, &matrices, &seeds, check, deadline_ms),
        Some("register") => register_mtx(&opts, mtx_path.as_deref()),
        Some("compact") => compact(&opts, retain),
        Some("stat") => stat(&opts),
        Some("shutdown") => shutdown(&opts),
        _ => {
            ArgError::new("serve needs a verb: start, submit, register, compact, stat or shutdown")
                .exit_with_usage(SERVE_USAGE)
        }
    }
}

fn parse_matrices(spec: &str) -> Result<Vec<(u8, usize)>, ArgError> {
    let err = || ArgError::new("--matrix needs ID/SCALE[,ID/SCALE...], e.g. 1/256,2/256");
    spec.split(',')
        .map(|part| {
            let (id, scale) = part.split_once('/').ok_or_else(err)?;
            Ok((id.parse().map_err(|_| err())?, scale.parse().map_err(|_| err())?))
        })
        .collect()
}

fn parse_seeds(spec: &str) -> Result<Vec<u64>, ArgError> {
    spec.split(',')
        .map(|s| s.parse().map_err(|_| ArgError::new("--seeds needs N[,N...]")))
        .collect()
}

fn start(opts: &HarnessOptions, port: u16, chaos: ChaosPlan) {
    let mut cfg = ServeConfig::new(opts.cache_dir());
    cfg.hw = opts.cfg.hw.clone();
    cfg.chaos = chaos;
    if let Err(e) = run_daemon(cfg, port) {
        eprintln!("serve: daemon failed: {e}");
        std::process::exit(1);
    }
}

fn connect(opts: &HarnessOptions) -> Client {
    Client::connect_dir(&opts.cache_dir()).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    })
}

fn submit(
    opts: &HarnessOptions,
    matrices: &[(u8, usize)],
    seeds: &[u64],
    check: bool,
    deadline_ms: Option<u64>,
) {
    let mut admin = connect(opts);
    let mut keys = Vec::new();
    for &(id, scale) in matrices {
        let reply = admin.register(id, scale).unwrap_or_else(|e| {
            eprintln!("serve: register {id}/{scale} failed: {e}");
            std::process::exit(1);
        });
        println!("registered m{id}/{scale}: key {:016x}, {} nnz", reply.matrix, reply.nnz);
        keys.push((id, scale, reply.matrix, reply.cols));
    }

    // One client thread per seed, round-robined over the matrices, so the
    // daemon sees genuinely concurrent mixed-matrix traffic.
    let cache_dir = opts.cache_dir();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let (id, scale, key, cols) = keys[i % keys.len()];
                let dir = cache_dir.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_dir(&dir)?;
                    let out = match deadline_ms {
                        Some(ms) => client.submit_within(key, seed, ms)?,
                        None => client.submit(key, seed)?,
                    };
                    Ok::<_, CallError>((id, scale, seed, cols, out))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(CallError {
                        code: "transport".into(),
                        message: "client thread panicked".into(),
                    })
                })
            })
            .collect()
    });

    let mut failures = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok((id, scale, seed, cols, out)) => {
                println!(
                    "m{id}/{scale} seed {seed}: batch {} | {} cycles | queued {}us",
                    out.batch, out.cycles, out.queue_wait_us
                );
                if check && !matches_reference(id, scale, cols, seed, &out.y) {
                    eprintln!("serve: m{id}/{scale} seed {seed} DIVERGED from offline SpMV");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("serve: submit failed: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("serve: {failures} request(s) failed");
        std::process::exit(1);
    }
    if check {
        println!("all {} responses bitwise-match the offline reference SpMV", seeds.len());
    }
}

/// Recomputes the request offline and compares bitwise.
fn matches_reference(id: u8, scale: usize, cols: usize, seed: u64, y: &[f64]) -> bool {
    let Some(entry) = spacea_matrix::suite::entry_by_id(id) else { return false };
    let a = entry.generate(scale);
    let want = a.spmv(&seeded_vector(cols, seed));
    y.len() == want.len() && y.iter().zip(&want).all(|(got, want)| got.to_bits() == want.to_bits())
}

fn register_mtx(opts: &HarnessOptions, mtx_path: Option<&str>) {
    let Some(path) = mtx_path else {
        ArgError::new("serve register needs --mtx PATH").exit_with_usage(SERVE_USAGE)
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("serve: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut client = connect(opts);
    match client.register_mtx(&text) {
        Ok(reply) => println!(
            "registered {path}: key {:016x}, {}x{}, {} nnz",
            reply.matrix, reply.rows, reply.cols, reply.nnz
        ),
        Err(e) => {
            eprintln!("serve: register {path} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn compact(opts: &HarnessOptions, retain: usize) {
    let mut client = connect(opts);
    match client.compact(retain) {
        Ok(c) => println!(
            "journal compacted: dropped {} batch(es) / {} record(s), {} batch(es) retained",
            c.dropped_batches, c.dropped_records, c.retained_batches
        ),
        Err(e) => {
            eprintln!("serve: compact failed: {e}");
            std::process::exit(1);
        }
    }
}

fn stat(opts: &HarnessOptions) {
    let mut client = connect(opts);
    match client.stat() {
        Ok(v) => println!("{}", v.to_text()),
        Err(e) => {
            eprintln!("serve: stat failed: {e}");
            std::process::exit(1);
        }
    }
}

fn shutdown(opts: &HarnessOptions) {
    let mut client = connect(opts);
    match client.shutdown() {
        Ok(()) => println!("daemon stopping"),
        Err(e) => {
            eprintln!("serve: shutdown failed: {e}");
            std::process::exit(1);
        }
    }
}
