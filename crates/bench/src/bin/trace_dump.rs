//! Dump the opening of a simulation's event trace — the paper's "detailed
//! event trace", human-readable.
//!
//! Run: `cargo run --release -p spacea-bench --bin trace_dump [--scale N]`

use spacea_arch::{Machine, RunSpec};
use spacea_core::experiments::MapKind;
use spacea_obs::SamplerConfig;

/// How many of the observed run's trace records to print.
const SHOWN: usize = 120;

fn main() {
    let mut session = spacea_bench::harness();
    let cache = &mut session.cache;
    let id = 1u8; // bcsstk32
    let a = cache.matrix(id);
    let mapping = cache.mapping(id, MapKind::Proposed);
    let x = spacea_harness::input_vector(a.cols());
    let machine = Machine::new(cache.cfg.hw.clone());
    let spec = RunSpec::spmv(&a, &x, &mapping).observed(SamplerConfig::default());
    let out = machine.run(spec).unwrap_or_else(|e| {
        eprintln!("trace_dump: observed simulation failed: {e}");
        std::process::exit(1)
    });
    let report = &out.report;
    let Some(trace) = out.trace else {
        eprintln!("trace_dump: observed run yielded no trace");
        std::process::exit(1)
    };
    let shown = &trace[..trace.len().min(SHOWN)];

    println!(
        "bcsstk32 (scaled): {} cycles total; showing the first {} of {} events",
        report.cycles,
        shown.len(),
        report.events_processed
    );
    for record in shown {
        println!("{record}");
    }
}
