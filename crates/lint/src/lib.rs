//! `spacea-lint` — determinism & robustness static analysis for the SpaceA
//! workspace.
//!
//! The simulator's claims (Section V tables/figures) rest on bit-exact
//! reproducibility, and the harness stack (content-addressed cache, shard
//! merges, deterministic fault injection) silently assumes nothing
//! nondeterministic ever leaks into a model run. This crate enforces that
//! statically, with no external dependencies: a hand-rolled token
//! [`scanner`] (comments, raw strings, lifetimes) feeds a [`rules`] engine
//! over every workspace crate. A deliberate site carries an inline
//! `// lint:allow(RULE) reason`; `spacea-lint --check` fails on any other
//! violation.
//!
//! Since the PDES-readiness work, the per-site rules are joined by a
//! workspace-level [`graph`] pass: item structure is parsed on top of the
//! token stream, calls are resolved into a deterministic cross-crate call
//! graph, and transitive taint is traced from the event-loop roots.
//!
//! Rules (see `spacea-lint --explain RULE`):
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1 | no `HashMap`/`HashSet` in `sim`/`arch`/`mapping`/`matrix`/`model` |
//! | D2 | no `Instant::now`/`SystemTime::now`/ambient RNG outside `harness`/`bench`/`serve` |
//! | D3 | no shared-mutable-state primitives in the PDES crates |
//! | D4 | no raw float iterator reductions outside `spacea_matrix::reduce` |
//! | D5 | nothing reachable from `Machine::run`/`DesQueue`/`Backend::run` touches the outside world |
//! | R1 | no `unwrap`/`expect`/`panic!` family in non-test code |

pub mod graph;
pub mod rules;
pub mod scanner;

use rules::{FileKind, FileMeta, Violation};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints one in-memory source file. This is the whole pipeline minus I/O —
/// scan, mask test regions, run every applicable rule, apply `lint:allow`.
pub fn check_source(meta: &FileMeta, src: &str) -> Vec<Violation> {
    rules::check_file(meta, &scanner::scan(src))
}

/// Recursively collects `.rs` files under `dir` in sorted order, skipping
/// directories that are out of scope (`tests`, `benches`, build output).
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<fs::DirEntry> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    // read_dir order is filesystem-dependent; the lint itself must be
    // deterministic, so sort by name.
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let file_type = e.file_type()?;
        let name = e.file_name();
        let name = name.to_string_lossy();
        if file_type.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "target" | ".git") {
                continue;
            }
            walk(&e.path(), out)?;
        } else if name.ends_with(".rs") {
            out.push(e.path());
        }
    }
    Ok(())
}

fn rel_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Workspace-relative, '/'-separated — stable report paths on any host.
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Enumerates every lintable source file of the workspace rooted at `root`:
/// each `crates/<name>` member's `src/` and `examples/`, plus the root
/// package's. `vendor/` (third-party stand-ins), `tests/`, and `benches/`
/// are out of scope.
pub fn collect_files(root: &Path) -> io::Result<Vec<(PathBuf, FileMeta)>> {
    let mut out = Vec::new();
    let push_tree =
        |out: &mut Vec<(PathBuf, FileMeta)>, dir: PathBuf, krate: &str, kind: FileKind| {
            if !dir.is_dir() {
                return Ok::<(), io::Error>(());
            }
            let mut files = Vec::new();
            walk(&dir, &mut files)?;
            for path in files {
                let rel = rel_to(root, &path);
                let kind = if kind == FileKind::Lib && rel.contains("/src/bin/") {
                    FileKind::Bin
                } else {
                    kind
                };
                out.push((path, FileMeta { rel, krate: krate.to_string(), kind }));
            }
            Ok(())
        };

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<fs::DirEntry> =
            fs::read_dir(&crates_dir)?.collect::<io::Result<_>>()?;
        members.sort_by_key(|e| e.file_name());
        for m in members {
            if !m.file_type()?.is_dir() {
                continue;
            }
            let name = m.file_name().to_string_lossy().into_owned();
            push_tree(&mut out, m.path().join("src"), &name, FileKind::Lib)?;
            push_tree(&mut out, m.path().join("examples"), &name, FileKind::Example)?;
        }
    }
    push_tree(&mut out, root.join("src"), "spacea", FileKind::Lib)?;
    push_tree(&mut out, root.join("examples"), "spacea", FileKind::Example)?;
    Ok(out)
}

/// Scans every workspace source file under `root` once; the scans feed
/// both the per-file rules and the call-graph pass.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<(FileMeta, scanner::ScanOutput)>> {
    let mut out = Vec::new();
    for (path, meta) in collect_files(root)? {
        let src = fs::read_to_string(&path)?;
        out.push((meta, scanner::scan(&src)));
    }
    Ok(out)
}

/// Builds the deterministic workspace call graph (the D5 substrate and the
/// `--graph`/`--why` export) from pre-scanned files.
pub fn build_graph(scans: &[(FileMeta, scanner::ScanOutput)]) -> graph::CallGraph {
    graph::CallGraph::build(scans)
}

/// Lints every workspace source file under `root`: the per-file rules
/// (D1–D4, R1) plus the graph-level transitive-taint rule (D5).
/// Violations come back sorted by `(file, line, rule)`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let scans = scan_workspace(root)?;
    Ok(lint_scans(&scans))
}

/// The I/O-free core of [`lint_workspace`]: per-file rules plus D5 over
/// pre-scanned files.
pub fn lint_scans(scans: &[(FileMeta, scanner::ScanOutput)]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut allows: BTreeMap<String, Vec<scanner::Allow>> = BTreeMap::new();
    for (meta, scan) in scans {
        violations.extend(rules::check_file(meta, scan));
        allows.insert(meta.rel.clone(), scan.allows.clone());
    }
    let call_graph = graph::CallGraph::build(scans);
    violations.extend(graph::check_taint(&call_graph, &allows));
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_finds_this_crate_and_skips_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root).expect("workspace walk");
        assert!(files.iter().any(|(_, m)| m.rel == "crates/lint/src/lib.rs"));
        assert!(files.iter().any(|(_, m)| m.krate == "sim"));
        assert!(files.iter().all(|(_, m)| !m.rel.starts_with("vendor/")));
        assert!(files.iter().all(|(_, m)| !m.rel.contains("/tests/")));
        // Sorted and duplicate-free: required for a deterministic report.
        let rels: Vec<&str> = files.iter().map(|(_, m)| m.rel.as_str()).collect();
        let mut sorted = rels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(rels.len(), sorted.len());
    }

    #[test]
    fn bin_files_are_classified() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root).expect("workspace walk");
        for (_, m) in &files {
            if m.rel.contains("/src/bin/") {
                assert_eq!(m.kind, rules::FileKind::Bin, "{}", m.rel);
            }
        }
    }

    #[test]
    fn workspace_graph_has_the_pdes_roots() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scans = scan_workspace(&root).expect("workspace scan");
        let g = build_graph(&scans);
        assert!(!g.defs.is_empty());

        // Machine::run is a root.
        let runs = g.find("Machine::run");
        assert!(!runs.is_empty(), "Machine::run must exist in the graph");
        assert!(runs.iter().any(|id| g.roots.contains(id)), "Machine::run must be a root");

        // The event-queue engines are roots (trait decl + >=2 impls).
        let desqueue_roots = g
            .roots
            .iter()
            .filter(|&&id| g.defs[id].trait_name.as_deref() == Some("DesQueue"))
            .count();
        assert!(desqueue_roots >= 2, "expected DesQueue impl roots, got {desqueue_roots}");

        // The Backend executors are roots (>=4 impls: spacea/gpu/cpu/hbm).
        let backend_roots = g
            .roots
            .iter()
            .filter(|&&id| {
                g.defs[id].trait_name.as_deref() == Some("Backend") && g.defs[id].name == "run"
            })
            .count();
        assert!(backend_roots >= 4, "expected Backend::run roots, got {backend_roots}");
    }

    #[test]
    fn workspace_graph_chains_are_complete() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scans = scan_workspace(&root).expect("workspace scan");
        let g = build_graph(&scans);
        // A known event-loop symbol is reachable with a chain that starts
        // at a root and ends at the symbol itself.
        let ids = g.find("EventQueue::schedule");
        assert!(!ids.is_empty(), "EventQueue::schedule must exist");
        let reachable =
            ids.iter().copied().find(|&id| g.reachable(id)).expect("schedule must be reachable");
        let chain = g.chain_to(reachable).expect("chain");
        assert_eq!(chain.last().map(String::as_str), Some("EventQueue::schedule"));
        let first = g.find(&chain[0]);
        assert!(
            first.iter().any(|id| g.roots.contains(id)),
            "chain must start at a root: {chain:?}"
        );
    }

    #[test]
    fn workspace_lint_is_deterministic_across_runs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = lint_workspace(&root).expect("lint");
        let b = lint_workspace(&root).expect("lint");
        assert_eq!(a, b);
    }
}
