//! The exact-match ratchet behind `BENCH_engine.json` and
//! `BENCH_serve.json`.
//!
//! A ratchet binary measures deterministic numbers (event counts, replay
//! checksums, simulated cycles) as one JSON object per entry and hands
//! them to [`Ratchet::run`]. A snapshot file is
//! `{"version":1,"entries":[…]}` plus a newline. `--check FILE` pairs the
//! measured entries with the snapshot's on the binary's identity fields
//! and fails on any missing, added, malformed or changed entry, in either
//! direction, so the committed file always documents HEAD; `--write`
//! refreshes it when the simulator legitimately changes.

use spacea_obs::json::{parse, Json};
use std::path::PathBuf;

/// One ratchet binary: its name, its snapshot file and the fields that
/// identify an entry.
#[derive(Debug)]
pub struct Ratchet {
    /// The binary's name, prefixed to every message.
    pub bin: &'static str,
    /// The snapshot file `--write` refreshes (relative to the working
    /// directory).
    pub file: &'static str,
    /// The fields that pair a measured entry with a snapshot entry.
    pub identity: &'static [&'static str],
}

impl Ratchet {
    /// Parses the process arguments (nothing, `--write` or `--check FILE`;
    /// anything else prints usage and exits 2), runs `measure`, then
    /// writes or checks its entries. A failed write, an unreadable
    /// snapshot or any difference exits 1.
    pub fn run(&self, measure: impl FnOnce() -> Vec<Json>) {
        let bin = self.bin;
        let mode = parse_mode(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{bin}: {e} (flags: --write | --check FILE)");
            std::process::exit(2)
        });
        let entries = measure();
        match mode {
            Mode::Print => {}
            Mode::Write => {
                if let Err(e) = std::fs::write(self.file, render(&entries)) {
                    eprintln!("{bin}: cannot write {}: {e}", self.file);
                    std::process::exit(1);
                }
                println!("{bin}: {} refreshed", self.file);
            }
            Mode::Check(file) => {
                let path = file.display();
                let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                    eprintln!("{bin}: cannot read {path}: {e} (generate it with --write)");
                    std::process::exit(1);
                });
                let problems = check(&text, &entries, self.identity);
                if problems.is_empty() {
                    println!("{bin}: snapshot {path} matches");
                    return;
                }
                for p in &problems {
                    eprintln!("{bin}: {path}: {p}");
                }
                eprintln!("{bin}: refresh with --write if the change is intended");
                std::process::exit(1);
            }
        }
    }
}

#[derive(Debug, PartialEq)]
enum Mode {
    Print,
    Write,
    Check(PathBuf),
}

fn parse_mode(args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let args: Vec<String> = args.collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => Ok(Mode::Print),
        ["--write"] => Ok(Mode::Write),
        ["--check", file] => Ok(Mode::Check(PathBuf::from(file))),
        ["--check"] => Err("--check needs a snapshot file".into()),
        _ => Err(format!("unexpected arguments '{}'", args.join(" "))),
    }
}

fn render(entries: &[Json]) -> String {
    let doc = Json::obj(vec![("version", Json::U64(1)), ("entries", Json::Arr(entries.to_vec()))]);
    doc.to_text() + "\n"
}

fn parse_entries(text: &str) -> Result<Vec<Json>, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("version").and_then(Json::as_u64) != Some(1) {
        return Err("not a version 1 snapshot".into());
    }
    doc.get("entries")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| "no \"entries\" array".into())
}

/// Every difference between a snapshot's text and the measured entries;
/// empty when they agree exactly.
fn check(snapshot: &str, measured: &[Json], identity: &[&str]) -> Vec<String> {
    let old = match parse_entries(snapshot) {
        Ok(old) => old,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    // Each snapshot entry pairs with at most one measured entry; a
    // malformed one (not an object, or lacking an identity field) with none.
    let mut used = vec![false; old.len()];
    for (i, o) in old.iter().enumerate() {
        if !matches!(o, Json::Obj(_)) || identity.iter().any(|k| o.get(k).is_none()) {
            used[i] = true;
            problems.push(format!("malformed entry {}", o.to_text()));
        }
    }
    for e in measured {
        let found = (0..old.len())
            .find(|&i| !used[i] && identity.iter().all(|k| old[i].get(k) == e.get(k)));
        match found {
            None => problems.push(format!("lacks {}", label(e, identity))),
            Some(i) => {
                used[i] = true;
                if old[i] != *e {
                    problems.push(format!(
                        "DRIFT {}: snapshot {}, measured {}",
                        label(e, identity),
                        old[i].to_text(),
                        e.to_text()
                    ));
                }
            }
        }
    }
    for (o, _) in old.iter().zip(&used).filter(|(_, used)| !**used) {
        problems.push(format!("has {}, which is no longer measured", label(o, identity)));
    }
    problems
}

/// `matrix m1/256, batch 1`: an entry's identity fields, for messages.
fn label(entry: &Json, identity: &[&str]) -> String {
    let field = |k: &&str| match entry.get(k) {
        Some(Json::Str(s)) => format!("{k} {s}"),
        Some(v) => format!("{k} {}", v.to_text()),
        None => format!("no {k}"),
    };
    identity.iter().map(field).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: &[&str] = &["matrix", "batch"];

    fn entry(matrix: &str, batch: u64, cycles: u64) -> Json {
        Json::obj(vec![
            ("matrix", Json::Str(matrix.into())),
            ("batch", Json::U64(batch)),
            ("cycles", Json::U64(cycles)),
        ])
    }

    fn committed() -> Vec<Json> {
        vec![entry("m1/256", 1, 2018), entry("m1/256", 4, 2285), entry("m3/256", 1, 5135)]
    }

    fn problems(measured: &[Json]) -> Vec<String> {
        check(&render(&committed()), measured, ID)
    }

    #[test]
    fn an_unchanged_snapshot_passes() {
        assert_eq!(problems(&committed()), Vec::<String>::new());
    }

    #[test]
    fn a_raised_or_lowered_value_fails() {
        for cycles in [2019, 2017] {
            let mut measured = committed();
            measured[0] = entry("m1/256", 1, cycles);
            let p = problems(&measured);
            assert_eq!(p.len(), 1, "{p:?}");
            assert!(p[0].starts_with("DRIFT matrix m1/256, batch 1: snapshot"), "{}", p[0]);
            assert!(p[0].ends_with(&format!("\"cycles\":{cycles}}}")), "{}", p[0]);
        }
    }

    #[test]
    fn a_missing_or_extra_entry_fails() {
        let mut measured = committed();
        measured.pop();
        let p = problems(&measured);
        assert_eq!(p, vec!["has matrix m3/256, batch 1, which is no longer measured"]);

        let mut measured = committed();
        measured.push(entry("m3/256", 4, 5736));
        assert_eq!(problems(&measured), vec!["lacks matrix m3/256, batch 4"]);
    }

    #[test]
    fn a_malformed_entry_fails() {
        let mut old = committed();
        old.push(Json::obj(vec![("matrix", Json::Str("m1/256".into()))]));
        old.push(Json::U64(7));
        let p = check(&render(&old), &committed(), ID);
        assert_eq!(p.len(), 2, "{p:?}");
        assert!(p.iter().all(|m| m.starts_with("malformed entry")), "{p:?}");

        // A snapshot entry missing a value field drifts.
        let mut old = committed();
        old[0] = Json::obj(vec![("matrix", Json::Str("m1/256".into())), ("batch", Json::U64(1))]);
        let p = check(&render(&old), &committed(), ID);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].starts_with("DRIFT matrix m1/256, batch 1"), "{}", p[0]);
    }

    #[test]
    fn a_broken_envelope_fails() {
        for text in ["", "{\"version\":2,\"entries\":[]}\n", "{\"version\":1}\n", "[1]"] {
            assert_eq!(check(text, &committed(), ID).len(), 1, "{text:?}");
        }
    }

    #[test]
    fn committed_snapshots_render_back_to_their_bytes() {
        for file in ["BENCH_engine.json", "BENCH_serve.json"] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("the committed snapshot exists");
            let entries = parse_entries(&text).expect("the committed snapshot parses");
            assert!(!entries.is_empty(), "{file}");
            assert_eq!(render(&entries), text, "{file}");
        }
    }

    #[test]
    fn flags_parse_strictly() {
        let mode = |args: &[&str]| parse_mode(args.iter().map(|s| s.to_string()));
        assert_eq!(mode(&[]), Ok(Mode::Print));
        assert_eq!(mode(&["--write"]), Ok(Mode::Write));
        assert_eq!(mode(&["--check", "B.json"]), Ok(Mode::Check(PathBuf::from("B.json"))));
        for bad in [&["--check"][..], &["--warp"], &["--write", "--check", "B.json"], &["x"]] {
            assert!(mode(bad).is_err(), "{bad:?}");
        }
    }
}
