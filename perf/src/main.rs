//! `perf`: the host-time benchmark of the SpaceA reproduction.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perf --smoke
//! perf record --out FILE [--runs N] [--seconds S] [--first-seed N] [--workloads A,B] [--trace 0|1]
//! perf compare A.jsonl B.jsonl
//! ```
//!
//! A run builds the release binaries, measures one workload untraced
//! (`--trace 0`: the end-to-end metrics) or replays it traced (`--trace 1`:
//! the per-layer metrics, plus a Chrome trace under `target/perf/`), checks
//! every output, prints each metric with its unit and sample count, and
//! ends with one JSON line. It exits non-zero when an output is wrong.
//! `record` runs sets of such runs into a JSON-lines file and reports their
//! spread; `compare` judges one set against another by the bounds in
//! `BENCHMARK.json`. See README.md for the workloads and metrics.

mod compare;
mod daemon;
mod metrics;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workloads;

use compare::{record_line, RunSet};
use metrics::{Measured, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::{Kind, Outcome, Plan};

const USAGE: &str = "usage: perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
     perf --smoke\n       \
     perf record --out FILE [--runs N] [--seconds S] [--first-seed N] [--workloads A,B] [--trace 0|1]\n       \
     perf compare A.jsonl B.jsonl\n\
     workloads: experiments-cold, experiments-warm, sweep-formats-cold, serve-mixed";

/// Where traces and scratch caches go, under the checkout's `target/`.
const OUT_DIR: &str = "target/perf";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("record") => record_cmd(&args[1..]),
        _ if args.iter().any(|a| a == "--smoke") => smoke(),
        _ => run_cmd(&args),
    };
    std::process::exit(code);
}

fn usage(message: &str) -> i32 {
    eprintln!("perf: {message}\n{USAGE}");
    2
}

/// Parsed `--flag value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument '{flag}'"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.push((flag.clone(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.0.iter().rev().find(|(f, _)| f == flag) {
            Some((_, v)) => v.parse().map_err(|_| format!("{flag}: bad value '{v}'")),
            None => default.ok_or_else(|| format!("{flag} is required")),
        }
    }
}

/// The trace switch: 0 or 1.
fn trace_flag(flags: &Flags) -> Result<bool, String> {
    match flags.get::<u8>("--trace", Some(0))? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(format!("--trace must be 0 or 1, not {t}")),
    }
}

fn seconds_flag(flags: &Flags) -> Result<f64, String> {
    let s: f64 = flags.get("--seconds", Some(10.0))?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err("--seconds must be a positive number".into())
    }
}

/// Builds the release binaries the workloads run and returns their
/// directory. Cargo's own output goes to stderr, so stdout stays ours.
fn build_binaries() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "spacea-bench"])
        .args(["--bin", "all_experiments", "--bin", "sweep", "--bin", "serve"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the release binaries failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(target.join("release"))
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(OUT_DIR).join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run's result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value and its unit.
fn result_json(out: &Outcome, values: &[(&Metric, f64, usize)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v, _)| format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit))
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run_cmd(args: &[String]) -> i32 {
    let parsed =
        Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"]).and_then(|f| {
            let name: String = f.get("--workload", None)?;
            let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            Ok((kind, f.get("--seed", Some(1u64))?, seconds_flag(&f)?, trace_flag(&f)?))
        });
    let (kind, seed, seconds, traced) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let run = || -> Result<(Outcome, Measured), String> {
        let bins = build_binaries()?;
        let work = WorkDir::new(kind.name())?;
        let plan = Plan::measure(seed, seconds);
        let out = if traced {
            let trace_path = Path::new(OUT_DIR).join(format!("{}.trace.json", kind.name()));
            replay::per_layer(kind, &plan, &bins, &work.0, &trace_path)?
        } else {
            workloads::end_to_end(kind, &plan, &bins, &work.0)?
        };
        let values = out.values.finish()?;
        Ok((out, values))
    };
    match run() {
        Ok((out, values)) => {
            for (m, v, n) in &values {
                println!("{} {} = {v} {} (n = {n})", kind.name(), m.name, m.unit);
            }
            for p in &out.problems {
                eprintln!("perf: {}: {p}", kind.name());
            }
            println!("{}", result_json(&out, &values));
            i32::from(!out.correct())
        }
        Err(e) => {
            eprintln!("perf: {}: {e}", kind.name());
            1
        }
    }
}

fn smoke() -> i32 {
    let started = Instant::now();
    let bins = match build_binaries() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf: {e}");
            return 1;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let result = WorkDir::new(kind.name()).and_then(|work| {
            let out = workloads::end_to_end(kind, &Plan::smoke(1), &bins, &work.0)?;
            let values = out.values.finish()?;
            Ok((out, values))
        });
        match result {
            Ok((out, values)) => {
                let shown: Vec<String> =
                    values.iter().map(|(m, v, _)| format!("{}={v:.4}{}", m.name, m.unit)).collect();
                println!("smoke {}: correct={} {}", kind.name(), out.correct(), shown.join(" "));
                for p in &out.problems {
                    eprintln!("perf: {}: {p}", kind.name());
                }
                ok &= out.correct();
            }
            Err(e) => {
                eprintln!("perf: {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    println!(
        "smoke: {} in {:.1} s",
        if ok { "all workloads correct" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    i32::from(!ok)
}

/// Runs each workload `--runs` times, each as its own `perf` process with
/// the next seed, appends the result lines to `--out`, and prints the
/// spread of every metric.
fn record_cmd(args: &[String]) -> i32 {
    let known = ["--out", "--runs", "--seconds", "--first-seed", "--workloads", "--trace"];
    let parsed = Flags::parse(args, &known).and_then(|f| {
        let out: PathBuf = f.get("--out", None)?;
        let names: String = f.get("--workloads", Some(String::new()))?;
        let kinds = match names.as_str() {
            "" => Kind::ALL.to_vec(),
            list => list
                .split(',')
                .map(|n| Kind::parse(n).ok_or_else(|| format!("unknown workload '{n}'")))
                .collect::<Result<_, _>>()?,
        };
        let runs: usize = f.get("--runs", Some(10))?;
        let first: u64 = f.get("--first-seed", Some(1))?;
        Ok((out, kinds, runs, first, seconds_flag(&f)?, trace_flag(&f)?))
    });
    let (out_path, kinds, runs, first_seed, seconds, traced) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perf: cannot locate the perf binary: {e}");
            return 1;
        }
    };
    let mut lines = Vec::new();
    let mut failures = 0;
    for kind in kinds {
        for seed in first_seed..first_seed + runs as u64 {
            let output = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let last = output.as_ref().ok().and_then(|o| {
                String::from_utf8_lossy(&o.stdout).lines().last().map(str::to_string)
            });
            match (output.as_ref().map(|o| o.status.success()), last) {
                (Ok(true), Some(line)) => {
                    eprintln!("perf record: {} seed {seed}: {line}", kind.name());
                    lines.push(record_line(kind.name(), seed, &line));
                }
                (status, last) => {
                    failures += 1;
                    eprintln!(
                        "perf record: {} seed {seed} failed ({status:?}, {last:?})",
                        kind.name()
                    );
                }
            }
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    if let Err(e) = std::fs::write(&out_path, text) {
        eprintln!("perf: cannot write {}: {e}", out_path.display());
        return 1;
    }
    match RunSet::load(&out_path) {
        Ok(set) => {
            let unsteady = compare::summarize(&set);
            println!(
                "{} runs recorded to {}; {failures} failed; {unsteady} unsteady metrics",
                lines.len(),
                out_path.display()
            );
            i32::from(failures > 0 || set.incorrect > 0)
        }
        Err(e) => {
            eprintln!("perf: {e}");
            1
        }
    }
}

fn compare_cmd(args: &[String]) -> i32 {
    let [a, b] = args else { return usage("compare needs two record files") };
    match (RunSet::load(Path::new(a)), RunSet::load(Path::new(b))) {
        (Ok(a), Ok(b)) => {
            let flagged = compare::compare(&a, &b);
            println!("{flagged} metric(s) worse or unresolved");
            i32::from(flagged > 0)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf: {e}");
            1
        }
    }
}
