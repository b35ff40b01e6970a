//! Render one simulation's observability timeline — or validate an exported
//! artifact.
//!
//! Run mode: `cargo run --release -p spacea-bench --bin timeline --
//! [--id N] [--kind naive|proposed] [--scale N] [--every CYCLES]
//! [--capacity WINDOWS] [--out FILE]` runs one Table I matrix observed (the
//! machine samples its gauges every `--every` cycles), writes the
//! Chrome-trace JSON (default `timeline.json`), and prints a per-gauge
//! sparkline summary to stdout, then the run's first 120 trace records —
//! the paper's "detailed event trace", human-readable.
//! Load the JSON at <https://ui.perfetto.dev>: one thread track per vault,
//! one counter track per gauge, duration slices for X/Y traffic.
//!
//! Validate mode: `timeline -- --validate FILE` parses an exported artifact
//! and checks it is well-formed Chrome trace-event JSON (exit 1 if not),
//! printing the event and track counts — the CI smoke test runs this over
//! every artifact a sweep produced.

use spacea_arch::{Machine, RunSpec};
use spacea_bench::{ArgError, HarnessOptions};
use spacea_core::experiments::MapKind;
use spacea_matrix::suite;
use spacea_obs::json::validate_chrome_trace;
use spacea_obs::{Cycle, SamplerConfig};

/// How many of the observed run's trace records to print.
const SHOWN: usize = 120;

const TIMELINE_USAGE: &str = "timeline: --validate FILE | --id N | --kind naive|proposed | \
     --every CYCLES | --capacity WINDOWS | --out FILE";

fn main() {
    let mut validate: Option<String> = None;
    let mut id = 1u8;
    let mut kind = MapKind::Proposed;
    let mut observe = SamplerConfig::default();
    let mut out_path = String::from("timeline.json");
    let opts = HarnessOptions::from_args_with(std::env::args().skip(1), |flag, args| {
        match flag {
            "--validate" => validate = Some(args.value("--validate")?),
            "--id" => {
                let v = args.usize_value("--id")?;
                id = u8::try_from(v)
                    .ok()
                    .filter(|&id| suite::entry_by_id(id).is_some())
                    .ok_or_else(|| {
                        ArgError::new(format!("--id needs a Table I matrix id, got {v}"))
                    })?;
            }
            "--kind" => {
                kind = match args.value("--kind")?.as_str() {
                    "naive" => MapKind::Naive,
                    "proposed" => MapKind::Proposed,
                    other => {
                        return Err(ArgError::new(format!(
                            "--kind needs naive or proposed, got '{other}'"
                        )))
                    }
                };
            }
            "--every" => observe.every = args.usize_value("--every")? as Cycle,
            "--capacity" => observe.capacity = args.usize_value("--capacity")?.max(2),
            "--out" => out_path = args.value("--out")?,
            _ => return Ok(false),
        }
        Ok(true)
    })
    .unwrap_or_else(|e| e.exit_with_usage(TIMELINE_USAGE));

    if let Some(path) = validate {
        validate_file(&path);
        return;
    }

    let mut session = spacea_bench::HarnessSession::from_opts(opts);
    let cache = &mut session.cache;
    let a = cache.matrix(id);
    let mapping = cache.mapping(id, kind);
    let x = spacea_harness::input_vector(a.cols());
    let machine = Machine::new(cache.cfg.hw.clone());
    let out = machine.run(RunSpec::spmv(&a, &x, &mapping).observed(observe)).unwrap_or_else(|e| {
        eprintln!("timeline: observed run failed: {e}");
        std::process::exit(1)
    });
    let report = &out.report;
    let (Some(timeline), Some(trace)) = (out.timeline, out.trace) else {
        eprintln!("timeline: observed run yielded no timeline or trace");
        std::process::exit(1)
    };

    std::fs::write(&out_path, timeline.to_chrome_trace()).unwrap_or_else(|e| {
        eprintln!("timeline: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "matrix m{id} ({}) {}: {} cycles, sampled every {} cycles into ≤{} windows/series",
        a.rows(),
        kind.label(),
        report.cycles,
        observe.every,
        observe.capacity,
    );
    println!("wrote {out_path} — load it at https://ui.perfetto.dev");
    println!();
    print!("{}", timeline.summary());
    let shown = &trace[..trace.len().min(SHOWN)];
    println!();
    println!("the first {} of {} events:", shown.len(), report.events_processed);
    for record in shown {
        println!("{record}");
    }
}

/// Parses and validates one exported artifact, printing its shape; exits
/// non-zero on malformed input so CI can gate on it.
fn validate_file(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("timeline: cannot read {path}: {e}");
        std::process::exit(1);
    });
    match validate_chrome_trace(&text) {
        Ok(summary) => {
            println!(
                "{path}: valid Chrome trace ({} counter events on {} tracks, {} slices, \
                 {} metadata records)",
                summary.counter_events,
                summary.counter_tracks.len(),
                summary.duration_events,
                summary.metadata_events,
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID Chrome trace: {e}");
            std::process::exit(1);
        }
    }
}
