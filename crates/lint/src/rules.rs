//! The rule engine: walks a scanned token stream and reports violations.
//!
//! Six repo-specific invariants are enforced (see [`RuleId::explain`] for
//! the contributor-facing docs):
//!
//! - **D1** — no hash-ordered collections in the deterministic crates,
//! - **D2** — no wall clock / ambient randomness outside supervision code,
//! - **D3** — no shared-mutable-state primitives in the PDES crates,
//! - **D4** — no raw float iterator reductions in the PDES crates (order
//!   must be canonical: route through `spacea_matrix::reduce`),
//! - **D5** — transitive taint: nothing reachable from the event-loop
//!   roots touches I/O, wall clock, RNG, or threads (see [`crate::graph`]),
//! - **R1** — no `unwrap`/`expect`/`panic!` family in non-test library code.
//!
//! Test code never counts: `#[cfg(test)]` / `#[test]` items are masked out
//! of the token stream, and `tests/` / `benches/` directories are not
//! walked at all. Remaining deliberate sites carry
//! `// lint:allow(RULE) reason`.

use crate::scanner::{is_float_literal, Allow, ScanOutput, TokKind, Token};

/// The rules `spacea-lint` knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Hash-ordered collections in deterministic crates.
    D1,
    /// Wall clock / ambient randomness outside supervision code.
    D2,
    /// Shared-mutable-state primitives in PDES crates.
    D3,
    /// Raw float iterator reductions in PDES crates.
    D4,
    /// Transitive taint from the event-loop roots.
    D5,
    /// `unwrap`/`expect`/`panic!` family in non-test code.
    R1,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 6] =
        [RuleId::D1, RuleId::D2, RuleId::D3, RuleId::D4, RuleId::D5, RuleId::R1];

    /// The rule's short name as used in reports and `lint:allow(...)`
    /// directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::R1 => "R1",
        }
    }

    /// Parses a rule name (case-sensitive).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line summary for report headers.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => "hash-ordered collection in a deterministic crate",
            RuleId::D2 => "wall clock or ambient randomness outside supervision code",
            RuleId::D3 => "shared-mutable-state primitive in a PDES crate",
            RuleId::D4 => "raw float reduction outside the canonical helper",
            RuleId::D5 => "event-loop-reachable function touches the outside world",
            RuleId::R1 => "unwrap/expect/panic in non-test code",
        }
    }

    /// The contributor-facing documentation shown by `--explain`.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "D1: no HashMap/HashSet in deterministic crates\n\
                 \n\
                 The simulator's results must be bit-reproducible: the harness's\n\
                 content-addressed cache, shard merges, and fault injection all assume\n\
                 two runs of the same JobSpec produce identical cycles and stats.\n\
                 HashMap/HashSet iteration order is randomized per process, so any\n\
                 iteration over them inside the model can silently reorder event\n\
                 processing or float accumulation. Statically deciding whether a given\n\
                 map is ever iterated is not tractable for a token scanner, so the rule\n\
                 bans the types outright in the deterministic crates (sim, arch,\n\
                 mapping, matrix, model).\n\
                 \n\
                 Fix: use BTreeMap/BTreeSet, or collect-and-sort before iterating.\n\
                 If a hash container is genuinely order-safe (e.g. only get/insert,\n\
                 never iterated), suppress with `// lint:allow(D1) reason`."
            }
            RuleId::D2 => {
                "D2: no wall clock or ambient randomness outside harness/bench/serve\n\
                 \n\
                 Instant::now / SystemTime::now / thread_rng / from_entropy make a\n\
                 run's outputs depend on when and where it executed. Inside the model\n\
                 and solver crates that breaks reproducibility; timing and entropy\n\
                 belong to the supervision layer (harness, bench) and the service\n\
                 layer (serve), which measure real runs, own seeds, and time real\n\
                 sockets and queues.\n\
                 \n\
                 Fix: thread simulated time (Cycle) or an explicit seed through the\n\
                 API instead. Deliberate host-time measurements outside the exempt\n\
                 crates carry `// lint:allow(D2) reason`."
            }
            RuleId::D3 => {
                "D3: no shared-mutable-state primitives in PDES crates\n\
                 \n\
                 The parallel simulation engine will run per-vault step code on\n\
                 worker threads with conservative lookahead; that is only safe if\n\
                 the deterministic crates (sim, arch, mapping, matrix, model,\n\
                 backend, gpu, graph) are free of shared mutable state by\n\
                 construction. The rule bans the primitives that create it:\n\
                 `static mut`, Mutex/RwLock/RefCell/Condvar, Atomic* types,\n\
                 thread::spawn, and mpsc/sync_channel channels. Interior\n\
                 mutability also hides ordering effects the determinism suite\n\
                 cannot see.\n\
                 \n\
                 Fix: pass &mut state explicitly, or move the concurrency into\n\
                 the supervision layer (harness, serve). A genuinely local,\n\
                 never-shared cell carries `// lint:allow(D3) reason`."
            }
            RuleId::D4 => {
                "D4: no raw f32/f64 iterator reductions in PDES crates\n\
                 \n\
                 Float addition is not associative: `.sum()`, `.product()`, and\n\
                 float-seeded `.fold(..)` produce answers that depend on the\n\
                 iteration order of the container feeding them. Under the\n\
                 parallel engine, per-vault partial results arrive in worker\n\
                 order, so every float reduction in the deterministic crates\n\
                 must go through spacea_matrix::reduce, whose helpers fix a\n\
                 canonical (index-ascending) order regardless of source.\n\
                 \n\
                 Fix: route through spacea_matrix::reduce::{sum_f64, max_f64}\n\
                 (crates/matrix/src/reduce.rs is the one file exempt from this\n\
                 rule); a new float reduction adds its helper there. Integer\n\
                 reductions are exact and out of scope. A provably order-free\n\
                 site carries `// lint:allow(D4) reason`."
            }
            RuleId::D5 => {
                "D5: transitive taint from the event-loop roots\n\
                 \n\
                 Everything reachable from Machine::run, the DesQueue impls, and\n\
                 the Backend::run impls must be a pure function of its inputs:\n\
                 no file or socket I/O, no wall clock, no ambient RNG, no console\n\
                 output, no thread APIs. D2 checks sites; D5 checks *reachability*\n\
                 — a pure-looking helper that calls into fs::read is caught here,\n\
                 with the full call chain from the root in the report. The graph\n\
                 is name-resolved (methods over-approximate to every same-named\n\
                 impl fn), so it errs toward reporting; see DESIGN.md for the\n\
                 resolution limits.\n\
                 \n\
                 Fix: hoist the effect out of the reachable path (load files\n\
                 before run, write artifacts after), or break the false edge by\n\
                 renaming the colliding method. A deliberate boundary crossing\n\
                 carries `// lint:allow(D5) reason` on the sink line."
            }
            RuleId::R1 => {
                "R1: no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented!\n\
                 in non-test code\n\
                 \n\
                 A panic in library code kills the whole sweep worker and poisons\n\
                 shared locks; the harness already has SimError/Result plumbing and a\n\
                 crash-isolated supervisor, so recoverable errors must flow through\n\
                 Result. Test modules (#[cfg(test)], #[test]) are exempt, and so are\n\
                 examples/ demos, whose error reporting *is* a loud panic.\n\
                 \n\
                 Fix: propagate with `?` and a SimError (or a local error enum).\n\
                 By-construction invariants that genuinely cannot fail carry\n\
                 `// lint:allow(R1) reason`."
            }
        }
    }
}

/// Where a file lives, for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/`.
    Lib,
    /// A `src/bin/*.rs` binary.
    Bin,
    /// An `examples/*.rs` program.
    Example,
}

/// Per-file metadata the rules scope on.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path, `/`-separated (stable across platforms).
    pub rel: String,
    /// Short crate name: the `crates/<name>` directory, or `spacea` for the
    /// root crate.
    pub krate: String,
    /// File role.
    pub kind: FileKind,
}

/// Crates whose model state must be iteration-order deterministic (D1).
pub const DETERMINISTIC_CRATES: [&str; 5] = ["sim", "arch", "mapping", "matrix", "model"];

/// Crates the parallel-simulation readiness rules (D3/D4) and the call
/// graph behind D5 cover: the D1 set plus the executors layered on it.
/// The Cargo dependency direction already prevents these crates from
/// calling into the supervision layer, so the graph is closed over them.
pub const PDES_CRATES: [&str; 8] =
    ["sim", "arch", "mapping", "matrix", "model", "backend", "gpu", "graph"];

/// The one file exempt from D4: the canonical-order reduction helpers
/// themselves.
pub const D4_HELPER_FILE: &str = "crates/matrix/src/reduce.rs";

/// Crates allowed to read the wall clock / ambient entropy (D2 exempt).
///
/// `serve` is exempt for the same reason `harness` is: it lives at the
/// boundary with the real world. Socket read timeouts, queue-wait
/// telemetry, and the batcher's gather window are *measurements of host
/// time*, not simulation inputs — every simulated result it returns is
/// still a pure function of (matrix, vector, mapping, hw).
pub const SUPERVISION_CRATES: [&str; 3] = ["harness", "bench", "serve"];

/// One rule violation at a specific site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Short description of the offending token(s).
    pub what: String,
}

/// Marks every token that belongs to a test region: an item annotated
/// `#[test]` / `#[cfg(test)]` (including everything nested inside, so one
/// `#[cfg(test)] mod tests { … }` masks the whole module).
pub fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = test_attr_end(tokens, i) {
            // Skip any further attributes stacked on the same item.
            let mut j = attr_end;
            loop {
                if tokens.get(j).map(|t| &t.kind) == Some(&TokKind::Punct('#'))
                    && tokens.get(j + 1).map(|t| &t.kind) == Some(&TokKind::Punct('['))
                {
                    j = match matching(tokens, j + 1, '[', ']') {
                        Some(end) => end + 1,
                        None => tokens.len(),
                    };
                } else {
                    break;
                }
            }
            // The item body runs to the matching `}` of its first top-level
            // brace, or to a `;` for body-less items.
            let mut depth = 0i32;
            let mut k = j;
            while k < tokens.len() {
                match tokens[k].kind {
                    TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 && tokens[k].kind == TokKind::Punct('}') {
                            break;
                        }
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let end = k.min(tokens.len().saturating_sub(1));
            for flag in masked.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = k + 1;
        } else {
            i += 1;
        }
    }
    masked
}

/// If tokens starting at `i` form a `#[test]`-like attribute (`#[test]`,
/// `#[cfg(test)]`, `#[tokio::test]`, `#[cfg(all(test, …))]`), returns the
/// index one past the closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.kind != TokKind::Punct('#') || tokens.get(i + 1)?.kind != TokKind::Punct('[')
    {
        return None;
    }
    let close = matching(tokens, i + 1, '[', ']')?;
    let inner = &tokens[i + 2..close];
    // Path segments of the attribute head, before any `(` arguments.
    let mut head: Vec<&str> = Vec::new();
    for t in inner {
        match &t.kind {
            TokKind::Punct('(') => break,
            TokKind::Ident(n) => head.push(n.as_str()),
            _ => {}
        }
    }
    let has_ident =
        |name: &str| inner.iter().any(|t| matches!(&t.kind, TokKind::Ident(n) if n == name));
    let is_test = if head.first() == Some(&"cfg") {
        // #[cfg(test)] / #[cfg(all(test, …))] — but NOT #[cfg(not(test))],
        // which marks code compiled only *outside* tests.
        has_ident("test") && !has_ident("not")
    } else {
        // #[test], #[tokio::test], #[should_panic(…)].
        matches!(head.last(), Some(&"test") | Some(&"should_panic"))
    };
    if is_test {
        Some(close + 1)
    } else {
        None
    }
}

/// Index of the token closing the bracket opened at `open_ix` (whose kind
/// must be `Punct(open)`).
fn matching(tokens: &[Token], open_ix: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open_ix) {
        if t.kind == TokKind::Punct(open) {
            depth += 1;
        } else if t.kind == TokKind::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).map(|t| &t.kind) == Some(&TokKind::Punct(c))
}

/// True when `allows` suppresses `rule` at `line` (directive on the same
/// line or the line directly above).
fn allowed(allows: &[Allow], rule: RuleId, line: u32) -> bool {
    allows
        .iter()
        .any(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule.name()))
}

/// Runs every applicable rule over one scanned file.
pub fn check_file(meta: &FileMeta, scan: &ScanOutput) -> Vec<Violation> {
    let tokens = &scan.tokens;
    let masked = mark_test_regions(tokens);
    let mut out = Vec::new();

    let d1_applies =
        meta.kind == FileKind::Lib && DETERMINISTIC_CRATES.contains(&meta.krate.as_str());
    let d2_applies =
        meta.kind != FileKind::Example && !SUPERVISION_CRATES.contains(&meta.krate.as_str());
    let d3_applies = meta.kind != FileKind::Example && PDES_CRATES.contains(&meta.krate.as_str());
    let d4_applies = d3_applies && meta.rel != D4_HELPER_FILE;
    let r1_applies = meta.kind != FileKind::Example;

    let mut push = |allows: &[Allow], rule: RuleId, line: u32, what: String| {
        if !allowed(allows, rule, line) {
            out.push(Violation { rule, file: meta.rel.clone(), line, what });
        }
    };

    for (i, t) in tokens.iter().enumerate() {
        if masked[i] {
            continue;
        }
        let TokKind::Ident(name) = &t.kind else { continue };
        match name.as_str() {
            // D1: the hash-ordered types themselves. Iteration is not
            // statically decidable for a token scanner, so the types are
            // banned outright in deterministic crates (see --explain D1).
            "HashMap" | "HashSet" if d1_applies => {
                push(&scan.allows, RuleId::D1, t.line, name.clone());
            }
            // D2: wall clock.
            "Instant" | "SystemTime"
                if d2_applies
                    && punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("now") =>
            {
                push(&scan.allows, RuleId::D2, t.line, format!("{name}::now"));
            }
            // D2: ambient randomness.
            "thread_rng" | "from_entropy" if d2_applies => {
                push(&scan.allows, RuleId::D2, t.line, name.clone());
            }
            // D3: shared-mutable-state primitives.
            "static" if d3_applies && ident_at(tokens, i + 1) == Some("mut") => {
                push(&scan.allows, RuleId::D3, t.line, "static mut".into());
            }
            "Mutex" | "RwLock" | "RefCell" | "Condvar" if d3_applies => {
                push(&scan.allows, RuleId::D3, t.line, name.clone());
            }
            "mpsc" | "sync_channel" if d3_applies => {
                push(&scan.allows, RuleId::D3, t.line, format!("{name} channel"));
            }
            "thread"
                if d3_applies
                    && punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("spawn") =>
            {
                push(&scan.allows, RuleId::D3, t.line, "thread::spawn".into());
            }
            // D4: `.sum::<f32|f64>()` / `.product::<f32|f64>()` turbofish.
            "sum" | "product"
                if d4_applies
                    && i > 0
                    && punct_at(tokens, i - 1, '.')
                    && punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && punct_at(tokens, i + 3, '<')
                    && matches!(ident_at(tokens, i + 4), Some("f32") | Some("f64"))
                    && punct_at(tokens, i + 5, '>')
                    && punct_at(tokens, i + 6, '(') =>
            {
                let ty = ident_at(tokens, i + 4).unwrap_or_default();
                push(&scan.allows, RuleId::D4, t.line, format!(".{name}::<{ty}>()"));
            }
            // D4: `.fold(<float seed>, ..)` — the seed type fixes the
            // accumulator type, so a float literal (or `f64::NEG_INFINITY`
            // style constant) marks a float reduction.
            "fold"
                if d4_applies
                    && i > 0
                    && punct_at(tokens, i - 1, '.')
                    && punct_at(tokens, i + 1, '(') =>
            {
                let mut k = i + 2;
                if punct_at(tokens, k, '-') {
                    k += 1;
                }
                let float_seed = match tokens.get(k).map(|t| &t.kind) {
                    Some(TokKind::Num(text)) => is_float_literal(text),
                    Some(TokKind::Ident(ty)) if ty == "f32" || ty == "f64" => {
                        punct_at(tokens, k + 1, ':') && punct_at(tokens, k + 2, ':')
                    }
                    _ => false,
                };
                if float_seed {
                    push(&scan.allows, RuleId::D4, t.line, ".fold(<float seed>, ..)".into());
                }
            }
            // R1: `.unwrap(` / `.expect(` method calls.
            "unwrap" | "expect"
                if r1_applies
                    && i > 0
                    && punct_at(tokens, i - 1, '.')
                    && punct_at(tokens, i + 1, '(') =>
            {
                push(&scan.allows, RuleId::R1, t.line, format!(".{name}()"));
            }
            // R1: panicking macros.
            "panic" | "unreachable" | "todo" | "unimplemented"
                if r1_applies && punct_at(tokens, i + 1, '!') =>
            {
                push(&scan.allows, RuleId::R1, t.line, format!("{name}!"));
            }
            n if d3_applies && n.starts_with("Atomic") => {
                push(&scan.allows, RuleId::D3, t.line, n.to_string());
            }
            _ => {}
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn meta(rel: &str, krate: &str, kind: FileKind) -> FileMeta {
        FileMeta { rel: rel.into(), krate: krate.into(), kind }
    }

    fn run(krate: &str, kind: FileKind, src: &str) -> Vec<Violation> {
        check_file(&meta("x.rs", krate, kind), &scan(src))
    }

    #[test]
    fn d1_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }";
        let v = run("sim", FileKind::Lib, src);
        assert_eq!(v.iter().filter(|v| v.rule == RuleId::D1).count(), 3);
        assert!(run("harness", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D1));
        assert!(run("obs", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D1));
    }

    #[test]
    fn d1_skips_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n #[test]\n fn t() { let _ = HashSet::<u32>::new(); }\n}";
        assert!(run("arch", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn d2_fires_outside_supervision_crates_only() {
        let src = "fn f() -> u128 { let t = std::time::Instant::now(); t.elapsed().as_nanos() }";
        let v = run("core", FileKind::Lib, src);
        assert_eq!(v.iter().filter(|v| v.rule == RuleId::D2).count(), 1);
        assert!(run("harness", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D2));
        assert!(run("bench", FileKind::Bin, src).iter().all(|v| v.rule != RuleId::D2));
        // Examples measure wall time legitimately (user-facing demos).
        assert!(run("core", FileKind::Example, src).iter().all(|v| v.rule != RuleId::D2));
    }

    #[test]
    fn d2_exempts_the_serve_crate() {
        // Pins the exemption rationale: serve times real sockets and queues
        // (read timeouts, queue-wait telemetry, the gather window), which
        // are measurements of host time, not simulation inputs.
        let src = "fn f() -> u128 { let t = std::time::Instant::now(); t.elapsed().as_nanos() }";
        assert!(run("serve", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D2));
        assert!(SUPERVISION_CRATES.contains(&"serve"), "exemption list must name serve");
    }

    #[test]
    fn d2_requires_the_now_call() {
        let src = "fn f(i: std::time::Instant) -> std::time::Instant { i }";
        assert!(run("core", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D2));
    }

    #[test]
    fn r1_method_calls_and_macros() {
        let src =
            "fn f(x: Option<u32>) -> u32 { let a = x.unwrap(); if a > 3 { panic!(\"no\"); } a }";
        let v = run("graph", FileKind::Lib, src);
        let rules: Vec<&str> = v.iter().map(|v| v.what.as_str()).collect();
        assert_eq!(rules, vec![".unwrap()", "panic!"]);
    }

    #[test]
    fn r1_ignores_lookalikes() {
        // unwrap_or / expect_err are different idents; a bare `panic` ident
        // without `!` (e.g. std::panic::catch_unwind paths) is not a macro.
        let src = "fn f(x: Option<u32>) -> u32 { std::panic::catch_unwind(|| x.unwrap_or(0)).unwrap_or(1) }";
        assert!(run("graph", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn r1_exempts_examples() {
        let src = "fn main() { std::fs::read(\"x\").expect(\"demo input\"); }";
        assert!(run("core", FileKind::Example, src).is_empty());
        assert_eq!(run("core", FileKind::Bin, src).len(), 1);
    }

    #[test]
    fn r1_skips_test_fns_but_not_neighbors() {
        let src = "#[test]\nfn t() { Some(1).unwrap(); }\nfn live(x: Option<u32>) { x.unwrap(); }";
        let v = run("core", FileKind::Lib, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn should_panic_attr_masks_its_fn() {
        let src = "#[should_panic(expected = \"boom\")]\nfn t() { panic!(\"boom\"); }";
        assert!(run("core", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(R1) by construction";
        assert!(run("core", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "// lint:allow(R1) by construction\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(run("core", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn allow_names_only_its_rule() {
        let src = "// lint:allow(D1) wrong rule\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let v = run("core", FileKind::Lib, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::R1);
    }

    #[test]
    fn allow_two_lines_above_does_not_reach() {
        let src = "// lint:allow(R1) too far\n\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(run("core", FileKind::Lib, src).len(), 1);
    }

    #[test]
    fn d3_fires_on_shared_state_primitives_in_pdes_crates() {
        let src = "use std::sync::Mutex;\n\
                   static mut GLOBAL: u32 = 0;\n\
                   fn f() { let _ = std::sync::atomic::AtomicUsize::new(0); }\n\
                   fn g() { let (_tx, _rx) = std::sync::mpsc::channel::<u32>(); }\n\
                   fn h() { let _ = std::thread::spawn(|| 1); }";
        let v = run("backend", FileKind::Lib, src);
        let whats: Vec<&str> =
            v.iter().filter(|v| v.rule == RuleId::D3).map(|v| v.what.as_str()).collect();
        assert_eq!(
            whats,
            vec!["Mutex", "static mut", "AtomicUsize", "mpsc channel", "thread::spawn"],
            "{v:?}"
        );
        // Supervision crates own their concurrency.
        assert!(run("serve", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D3));
        assert!(run("harness", FileKind::Lib, src).iter().all(|v| v.rule != RuleId::D3));
    }

    #[test]
    fn d3_covers_the_executor_crates_d1_does_not() {
        let src = "fn f() { let _ = std::cell::RefCell::new(0u32); }";
        for krate in ["gpu", "graph", "backend", "sim"] {
            let v = run(krate, FileKind::Lib, src);
            assert_eq!(v.iter().filter(|v| v.rule == RuleId::D3).count(), 1, "{krate}");
        }
    }

    #[test]
    fn d3_respects_allow_and_test_masking() {
        let src = "// lint:allow(D3) local, never shared\nfn f() { let _ = std::cell::RefCell::new(0u32); }";
        assert!(run("sim", FileKind::Lib, src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests { use std::sync::Mutex; fn t() { let _ = Mutex::new(0); } }";
        assert!(run("sim", FileKind::Lib, test_src).is_empty());
    }

    #[test]
    fn d4_fires_on_float_turbofish_reductions() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n\
                   fn g(xs: &[f32]) -> f32 { xs.iter().product::<f32>() }\n\
                   fn h(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }";
        let v = run("model", FileKind::Lib, src);
        let whats: Vec<&str> =
            v.iter().filter(|v| v.rule == RuleId::D4).map(|v| v.what.as_str()).collect();
        assert_eq!(whats, vec![".sum::<f64>()", ".product::<f32>()"], "{v:?}");
    }

    #[test]
    fn d4_fires_on_float_seeded_folds_only() {
        let float = "fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }";
        assert_eq!(run("model", FileKind::Lib, float).len(), 1);
        let negative = "fn f(xs: &[f64]) -> f64 { xs.iter().fold(-1.5, f64::max) }";
        assert_eq!(run("model", FileKind::Lib, negative).len(), 1);
        let constant =
            "fn f(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) }";
        assert_eq!(run("model", FileKind::Lib, constant).len(), 1);
        let integer = "fn f(xs: &[u64]) -> u64 { xs.iter().fold(0u64, |a, b| a + b) }";
        assert!(run("model", FileKind::Lib, integer).is_empty());
    }

    #[test]
    fn d4_exempts_the_canonical_helper_file() {
        let src = "pub fn sum_f64(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        let v = check_file(&meta(D4_HELPER_FILE, "matrix", FileKind::Lib), &scan(src));
        assert!(v.is_empty(), "{v:?}");
        // The same code anywhere else in the crate is a violation.
        assert_eq!(run("matrix", FileKind::Lib, src).len(), 1);
    }

    #[test]
    fn explain_exists_for_all_rules() {
        for r in RuleId::ALL {
            assert!(r.explain().contains(r.name()));
            assert!(RuleId::parse(r.name()) == Some(r));
        }
        assert!(RuleId::parse("Z9").is_none());
    }
}
