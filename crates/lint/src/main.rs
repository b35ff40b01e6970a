//! The `spacea-lint` command-line driver.
//!
//! ```text
//! spacea-lint --check [--root DIR]              # lint the workspace
//! spacea-lint --graph dot|json [--root DIR]     # export the call graph
//! spacea-lint --why SYMBOL [--root DIR]         # trace a call chain
//! spacea-lint --explain RULE                    # contributor docs
//! spacea-lint --list                            # enumerate rules
//! ```
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error. Every
//! report goes to stdout through one locked handle; a reader that closes
//! the pipe early (`| grep -q`, `| head`) ends the run with exit `0`.

use spacea_lint::rules::RuleId;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
spacea-lint: determinism & robustness static analysis for the SpaceA workspace

USAGE:
  spacea-lint --check [--root DIR]
  spacea-lint --graph dot|json [--root DIR]
  spacea-lint --why SYMBOL [--root DIR]
  spacea-lint --explain RULE
  spacea-lint --list

Rules: D1 D2 D3 D4 D5 R1 (see --explain). Suppress a deliberate site
inline with `// lint:allow(RULE) reason` on the offending line or the line
above; --check fails on every other violation.

--graph exports the deterministic workspace call graph (the D5 substrate)
as GraphViz DOT or JSON on stdout. --why SYMBOL (`name`, `Type::name`, or
`module::name`) prints, for every matching function, whether it is
reachable from the PDES roots (Machine::run, the DesQueue impls, the
Backend::run impls) and the full call chain when it is.";

enum Mode {
    Check,
    Graph { format: String },
    Why { symbol: String },
    Explain { rule: String },
    List,
    Help,
}

struct Args {
    root: PathBuf,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut mode: Option<Mode> = None;
    let mut it = std::env::args().skip(1);
    let set = |m: Mode, mode: &mut Option<Mode>| -> Result<(), String> {
        if mode.is_some() {
            return Err("more than one mode flag given".into());
        }
        *mode = Some(m);
        Ok(())
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => set(Mode::Check, &mut mode)?,
            "--graph" => {
                let format = it.next().ok_or("--graph needs a FORMAT (dot|json)")?;
                if format != "dot" && format != "json" {
                    return Err(format!("--graph FORMAT must be dot or json, got {format:?}"));
                }
                set(Mode::Graph { format }, &mut mode)?;
            }
            "--why" => {
                let symbol = it.next().ok_or("--why needs a SYMBOL")?;
                set(Mode::Why { symbol }, &mut mode)?;
            }
            "--explain" => {
                let rule = it.next().ok_or("--explain needs a RULE")?;
                set(Mode::Explain { rule }, &mut mode)?;
            }
            "--list" => set(Mode::List, &mut mode)?,
            "--root" => root = it.next().ok_or("--root needs a DIR")?.into(),
            "--help" | "-h" => return Ok(Args { root, mode: Mode::Help }),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = mode.ok_or("no mode given")?;
    Ok(Args { root, mode })
}

fn run(args: Args, out: &mut impl Write) -> io::Result<bool> {
    match args.mode {
        Mode::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(true)
        }
        Mode::List => {
            for r in RuleId::ALL {
                writeln!(out, "{}  {}", r.name(), r.summary())?;
            }
            Ok(true)
        }
        Mode::Explain { rule } => {
            let r = RuleId::parse(&rule)
                .ok_or_else(|| io::Error::other(format!("unknown rule {rule:?} (try --list)")))?;
            writeln!(out, "{}", r.explain())?;
            Ok(true)
        }
        Mode::Graph { format } => {
            let scans = spacea_lint::scan_workspace(&args.root)?;
            let g = spacea_lint::build_graph(&scans);
            if format == "dot" {
                write!(out, "{}", g.to_dot())?;
            } else {
                write!(out, "{}", g.to_json())?;
            }
            Ok(true)
        }
        Mode::Why { symbol } => {
            let scans = spacea_lint::scan_workspace(&args.root)?;
            let g = spacea_lint::build_graph(&scans);
            let ids = g.find(&symbol);
            if ids.is_empty() {
                return Err(io::Error::other(format!(
                    "no function named {symbol:?} in the graphed crates (try Type::name)"
                )));
            }
            for id in ids {
                let d = &g.defs[id];
                writeln!(out, "{} ({}:{})", d.qualified(), d.file, d.line)?;
                if g.roots.contains(&id) {
                    writeln!(out, "  PDES root")?;
                }
                match g.chain_to(id) {
                    Some(chain) => writeln!(out, "  reachable: {}", chain.join(" -> "))?,
                    None => writeln!(out, "  not reachable from any PDES root")?,
                }
                for sink in &g.sinks[id] {
                    writeln!(out, "  sink at line {}: {}", sink.line, sink.what)?;
                }
            }
            Ok(true)
        }
        Mode::Check => {
            let violations = spacea_lint::lint_workspace(&args.root)?;
            for v in &violations {
                eprintln!("{}:{}: {} [{}]", v.file, v.line, v.what, v.rule.name());
            }
            if violations.is_empty() {
                writeln!(out, "spacea-lint: ok (no violations)")?;
            } else {
                eprintln!("spacea-lint: FAIL ({} violation(s))", violations.len());
                eprintln!("fix them, suppress with `// lint:allow(RULE) reason`, or see --explain");
            }
            Ok(violations.is_empty())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    let verdict = run(args, &mut out).and_then(|ok| {
        out.flush()?;
        Ok(ok)
    });
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        // The reader has everything it wanted: a closed pipe is not a
        // failure of the analysis.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
