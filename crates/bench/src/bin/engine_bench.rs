//! Event-engine throughput benchmark: events/sec of the calendar-queue
//! engine versus the reference `BinaryHeap` engine, plus a full-machine
//! suite-matrix run, ratcheted like `BENCH_serve.json`.
//!
//! Two kinds of numbers come out of a run:
//!
//! * **Deterministic** — per-workload event counts and replay checksums
//!   (and the suite run's cycles / events-processed), identical on every
//!   host. These are the snapshot in `BENCH_engine.json`.
//! * **Wall clock** — events/sec per engine and the calendar/heap speedup
//!   ratio. Host-dependent, so never snapshotted; every mode still asserts
//!   the calendar engine clears the [`MIN_SPEEDUP`] bar on the synthetic
//!   workloads.
//!
//! Run:
//!
//! * `engine_bench` — print the table, assert checksums agree between
//!   engines and the speedup bar holds.
//! * `engine_bench --write` — refresh `BENCH_engine.json`.
//! * `engine_bench --check BENCH_engine.json` — fail on any drift from the
//!   snapshot (regressions and improvements alike, with a "refresh with
//!   --write" hint), so the snapshot always matches HEAD (CI runs this).

use spacea_arch::{HwConfig, Machine, RunSpec};
use spacea_mapping::{LocalityMapping, MappingStrategy};
use spacea_obs::json::{parse, Json};
use spacea_sim::engine::reference::HeapQueue;
use spacea_sim::engine::EventQueue;
use spacea_sim::workload::{run_workload, standard_workloads, Workload};
use std::time::Instant;

/// The ratchet bar: aggregate calendar events/sec must be at least this
/// multiple of the heap engine's on the synthetic workloads.
const MIN_SPEEDUP: f64 = 1.5;

/// The suite matrix driven through the whole machine (id, down-scale).
const SUITE: (u8, usize) = (1, 256);

/// How often each timed measurement repeats; the fastest run counts, which
/// filters scheduler noise out of the speedup ratio.
const REPS: usize = 3;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    workload: String,
    events: u64,
    checksum: u64,
}

fn main() {
    let mut write = false;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write = true,
            "--check" => {
                check = Some(args.next().unwrap_or_else(|| {
                    eprintln!("engine_bench: --check needs a snapshot file");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("engine_bench: unknown flag '{other}' (flags: --write | --check FILE)");
                std::process::exit(2);
            }
        }
    }

    let entries = measure();
    if let Some(path) = check {
        check_snapshot(&entries, &path);
        println!("engine_bench: snapshot {path} matches");
        return;
    }
    if write {
        std::fs::write("BENCH_engine.json", snapshot_json(&entries)).unwrap_or_else(|e| {
            eprintln!("engine_bench: cannot write BENCH_engine.json: {e}");
            std::process::exit(1);
        });
        println!("engine_bench: BENCH_engine.json refreshed");
    }
}

/// Fastest-of-[`REPS`] wall time for one workload on one engine,
/// cross-checking that every repetition replays the same event count and
/// checksum.
fn time_workload<Q, F>(w: &Workload, mut fresh: F) -> (u64, u64, f64)
where
    Q: spacea_sim::engine::DesQueue<u64>,
    F: FnMut() -> Q,
{
    let (mut events, mut checksum, mut best) = (0u64, 0u64, f64::INFINITY);
    for rep in 0..REPS {
        let mut q = fresh();
        let wall = Instant::now();
        let r = run_workload(w, &mut q);
        let secs = wall.elapsed().as_secs_f64();
        if rep == 0 {
            (events, checksum) = (r.events, r.checksum);
        } else if (events, checksum) != (r.events, r.checksum) {
            eprintln!("engine_bench: {} replays diverged across repetitions", w.name);
            std::process::exit(1);
        }
        best = best.min(secs);
    }
    (events, checksum, best)
}

/// Runs the synthetic grid on both engines plus the suite-matrix machine
/// run; prints the table and asserts the speedup bar.
fn measure() -> Vec<Entry> {
    println!(
        "{:<12} {:>10} {:>18} {:>14} {:>14} {:>8}",
        "workload", "events", "checksum", "cal Mev/s", "heap Mev/s", "speedup"
    );
    let mut entries = Vec::new();
    let (mut cal_events, mut cal_secs, mut heap_secs) = (0u64, 0.0f64, 0.0f64);
    for w in standard_workloads() {
        let (events, checksum, cal) = time_workload(&w, EventQueue::new);
        let (heap_events, heap_checksum, heap) = time_workload(&w, HeapQueue::new);
        if (events, checksum) != (heap_events, heap_checksum) {
            eprintln!(
                "engine_bench: {}: calendar and heap engines disagree \
                 ({events} ev {checksum:016x} vs {heap_events} ev {heap_checksum:016x})",
                w.name
            );
            std::process::exit(1);
        }
        println!(
            "{:<12} {events:>10} {checksum:>18x} {:>14.2} {:>14.2} {:>7.2}x",
            w.name,
            events as f64 / cal / 1e6,
            events as f64 / heap / 1e6,
            heap / cal
        );
        cal_events += events;
        cal_secs += cal;
        heap_secs += heap;
        entries.push(Entry { workload: w.name.to_string(), events, checksum });
    }
    let speedup = heap_secs / cal_secs;
    println!(
        "{:<12} {cal_events:>10} {:>18} {:>14.2} {:>14.2} {:>7.2}x",
        "aggregate",
        "-",
        cal_events as f64 / cal_secs / 1e6,
        cal_events as f64 / heap_secs / 1e6,
        speedup
    );
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "engine_bench: calendar engine speedup {speedup:.2}x is below the \
             {MIN_SPEEDUP}x bar over the BinaryHeap reference"
        );
        std::process::exit(1);
    }

    entries.push(suite_entry());
    entries
}

/// The full-machine workload: one suite-matrix SpMV through `Machine::run`.
/// Cycles and events-processed are deterministic; events/sec is printed for
/// context only.
fn suite_entry() -> Entry {
    let (id, scale) = SUITE;
    let source = spacea_harness::MatrixSource::Suite { id, scale };
    if let Err(e) = source.validate() {
        eprintln!("engine_bench: bad suite source: {e}");
        std::process::exit(1);
    }
    let a = source.generate();
    let hw = HwConfig::tiny();
    let mapping = LocalityMapping::default().map(&a, &hw.shape);
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let machine = Machine::new(hw);
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..REPS {
        let wall = Instant::now();
        let r = machine.run(RunSpec::spmv(&a, &x, &mapping)).unwrap_or_else(|e| {
            eprintln!("engine_bench: suite run failed: {e}");
            std::process::exit(1);
        });
        best = best.min(wall.elapsed().as_secs_f64());
        report = Some(r.into_report());
    }
    let report = report.unwrap_or_else(|| {
        eprintln!("engine_bench: suite run produced no report");
        std::process::exit(1);
    });
    let label = format!("suite-m{id}/{scale}");
    println!(
        "{label:<12} {:>10} {:>18} {:>14.2} {:>14} {:>8}",
        report.events_processed,
        format!("{} cyc", report.cycles),
        report.events_processed as f64 / best / 1e6,
        "-",
        "-"
    );
    // The suite row rides the same exact-match ratchet: `events` is the
    // machine's events-processed count and `checksum` its cycle count.
    Entry { workload: label, events: report.events_processed, checksum: report.cycles }
}

fn snapshot_json(entries: &[Entry]) -> String {
    let arr = entries
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("workload", Json::Str(e.workload.clone())),
                ("events", Json::U64(e.events)),
                ("checksum", Json::U64(e.checksum)),
            ])
        })
        .collect();
    let mut text =
        Json::obj(vec![("version", Json::U64(1)), ("entries", Json::Arr(arr))]).to_text();
    text.push('\n');
    text
}

fn load_snapshot(path: &str) -> Vec<Entry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("engine_bench: cannot read {path}: {e} (generate it with --write)");
        std::process::exit(1);
    });
    let v = parse(&text).unwrap_or_else(|e| {
        eprintln!("engine_bench: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let Some(arr) = v.get("entries").and_then(Json::as_arr) else {
        eprintln!("engine_bench: {path} has no \"entries\" array");
        std::process::exit(1);
    };
    arr.iter()
        .filter_map(|e| {
            Some(Entry {
                workload: e.get("workload")?.as_str()?.to_string(),
                events: e.get("events")?.as_u64()?,
                checksum: e.get("checksum")?.as_u64()?,
            })
        })
        .collect()
}

/// The ratchet: HEAD's deterministic numbers must match the snapshot
/// exactly; any drift (either direction) fails with a refresh hint so the
/// committed snapshot always documents the current behaviour.
fn check_snapshot(entries: &[Entry], path: &str) {
    let old = load_snapshot(path);
    let mut failures = 0usize;
    for e in entries {
        let Some(prev) = old.iter().find(|o| o.workload == e.workload) else {
            eprintln!("engine_bench: {path} lacks workload {} — refresh with --write", e.workload);
            failures += 1;
            continue;
        };
        if (e.events, e.checksum) != (prev.events, prev.checksum) {
            eprintln!(
                "engine_bench: DRIFT {}: {} events / {:016x}, snapshot {} / {:016x} — \
                 refresh with --write if intended",
                e.workload, e.events, e.checksum, prev.events, prev.checksum
            );
            failures += 1;
        }
    }
    if entries.len() != old.len() {
        eprintln!(
            "engine_bench: entry count changed ({} vs {}) — refresh with --write",
            entries.len(),
            old.len()
        );
        failures += 1;
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
