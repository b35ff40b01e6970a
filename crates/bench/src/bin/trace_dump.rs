//! Dump the opening of a simulation's event trace — the paper's "detailed
//! event trace", human-readable.
//!
//! Run: `cargo run --release -p spacea-bench --bin trace_dump [--scale N]`

use spacea_arch::{Machine, RunSpec};
use spacea_core::experiments::MapKind;

fn main() {
    let mut session = spacea_bench::harness();
    let cache = &mut session.cache;
    let id = 1u8; // bcsstk32
    let a = cache.matrix(id);
    let mapping = cache.mapping(id, MapKind::Proposed);
    let x = spacea_harness::input_vector(a.cols());
    let machine = Machine::new(cache.cfg.hw.clone());
    let out = machine.run(RunSpec::spmv(&a, &x, &mapping).traced(120)).unwrap_or_else(|e| {
        eprintln!("trace_dump: traced simulation failed: {e}");
        std::process::exit(1)
    });
    let report = &out.report;
    let Some(log) = out.trace else {
        eprintln!("trace_dump: traced run yielded no trace");
        std::process::exit(1)
    };

    println!(
        "bcsstk32 (scaled): {} cycles total; showing the first {} of {} events",
        report.cycles,
        log.records().len(),
        log.offered()
    );
    for record in log.records() {
        println!("{record}");
    }
}
