//! Runs every experiment in paper order and prints all tables plus a final
//! paper-vs-measured summary — the data behind EXPERIMENTS.md.
//!
//! All expensive work (GPU model runs, SpaceA simulations) is enumerated via
//! the experiment registry, computed in parallel on `--jobs` workers into
//! the persistent result cache, and rendered from cache afterwards — so the
//! tables are byte-identical for any worker count, and a second invocation
//! is answered almost entirely from `target/spacea-cache/`.
//!
//! Run: `cargo run --release -p spacea-bench --bin all_experiments
//! [--scale N] [--graph-scale N] [--cubes N] [--quick] [--jobs N]
//! [--no-cache] [--csv]`

use std::time::Instant;

fn main() {
    let mut session = spacea_bench::harness();
    let started = Instant::now();

    let jobs = spacea_core::experiments::all_jobs(&session.opts.cfg);
    let manifest = session.prewarm(jobs);

    let outputs = spacea_core::experiments::run_all(&mut session.cache);
    for out in &outputs {
        session.emit(out);
        println!();
    }
    if !session.opts.csv {
        println!("## Paper vs measured summary");
        for out in &outputs {
            for (name, paper, measured) in &out.headline {
                println!("  [{}] {name}: paper {paper:.3} | measured {measured:.3}", out.id);
            }
        }
    }
    eprint!("{}", manifest.summary());
    match session.write_manifest(&manifest) {
        Ok(path) => eprintln!("harness: run manifest written to {}", path.display()),
        Err(e) => eprintln!("harness: could not write run manifest: {e}"),
    }
    eprintln!("total harness time: {:.1}s", started.elapsed().as_secs_f64());
}
