//! Service throughput benchmark: cycles/request and requests/sec as a
//! function of fused batch width.
//!
//! Drives the [`spacea_serve::ServeEngine`] directly (no TCP, no queue
//! jitter) so the cycle numbers are exactly the simulator's and therefore
//! deterministic: `BENCH_serve.json` snapshots them exactly. Run:
//!
//! * `serve_bench` — print the table and assert batching amortizes
//!   (cycles/request at batch 16 below batch 1).
//! * `serve_bench --write` — refresh `BENCH_serve.json`.
//! * `serve_bench --check BENCH_serve.json` — fail on any cycle regression
//!   against the snapshot; improvements also fail, with a "refresh with
//!   --write" hint, so the snapshot always matches HEAD (CI runs this).
//!
//! Entries pair up by `matrix` and `batch`; the flags, file format and
//! exact-match rule are [`spacea_bench::snapshot`]'s, shared with
//! `engine_bench`.

use spacea_bench::snapshot::Ratchet;
use spacea_obs::json::Json;
use spacea_serve::{seeded_vector, ServeConfig, ServeEngine};
use std::time::Instant;

const MATRICES: [(u8, usize); 2] = [(1, 256), (3, 256)];
const BATCHES: [usize; 3] = [1, 4, 16];

fn main() {
    Ratchet { bin: "serve_bench", file: "BENCH_serve.json", identity: &["matrix", "batch"] }
        .run(measure);
}

/// Runs the grid and prints the table; asserts batching amortizes.
fn measure() -> Vec<Json> {
    let cache_dir = std::path::PathBuf::from("target/spacea-serve-bench");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let engine = ServeEngine::new(ServeConfig::quick(&cache_dir));
    let mut entries = Vec::new();
    println!(
        "{:<8} {:>6} {:>12} {:>14} {:>12}",
        "matrix", "batch", "cycles", "cycles/req", "req/s"
    );
    for (id, scale) in MATRICES {
        let info = engine.register_suite(id, scale).unwrap_or_else(|e| {
            eprintln!("serve_bench: register m{id}/{scale} failed: {e}");
            std::process::exit(1);
        });
        let label = format!("m{id}/{scale}");
        let mut cpr_first = f64::NAN;
        let mut cpr_last = f64::NAN;
        for batch in BATCHES {
            let xs: Vec<Vec<f64>> =
                (0..batch as u64).map(|s| seeded_vector(info.cols, s)).collect();
            let wall = Instant::now();
            let rep = engine.run_batch(info.key, &xs).unwrap_or_else(|e| {
                eprintln!("serve_bench: {label} batch {batch} failed: {e}");
                std::process::exit(1);
            });
            let elapsed = wall.elapsed().as_secs_f64();
            let cycles = rep.report.cycles;
            let cpr = cycles as f64 / batch as f64;
            // requests/sec is host wall clock — informational only, never
            // part of the deterministic snapshot.
            let rps = batch as f64 / elapsed.max(1e-9);
            println!("{label:<8} {batch:>6} {cycles:>12} {cpr:>14.1} {rps:>12.1}");
            if batch == BATCHES[0] {
                cpr_first = cpr;
            }
            cpr_last = cpr;
            entries.push(Json::obj(vec![
                ("matrix", Json::Str(label.clone())),
                ("batch", Json::U64(batch as u64)),
                ("cycles", Json::U64(cycles)),
            ]));
        }
        if cpr_last >= cpr_first {
            eprintln!(
                "serve_bench: {label}: batching failed to amortize \
                 ({cpr_last:.1} cycles/req fused vs {cpr_first:.1} solo)"
            );
            std::process::exit(1);
        }
    }
    entries
}
