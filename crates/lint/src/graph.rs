//! Workspace symbol graph: item structure, call resolution, and the
//! transitive-taint analysis behind rules D3/D4/D5.
//!
//! The token [`crate::scanner`] is enough for the per-site rules (D1–D4),
//! but the PDES proof obligation — *nothing reachable from the event loop
//! touches the outside world* — needs to see **through** calls. This module
//! parses item structure (`mod` / `impl` / `trait` / `fn` spans) on top of
//! the token stream, resolves calls into a deterministic cross-crate call
//! graph over the deterministic crates ([`crate::rules::PDES_CRATES`]), and
//! runs reachability from the parallel-engine roots:
//!
//! - `Machine::run` (the simulator entry point in `arch`),
//! - every `impl DesQueue` method (the event-queue engines in `sim`),
//! - every `Backend::run` impl (the scenario-matrix executors in `backend`).
//!
//! Any function reachable from a root that uses a *taint sink* — file or
//! socket I/O, wall clock, ambient RNG, console output, or thread APIs —
//! is a D5 violation, reported with the full call chain from the root.
//!
//! # Call-resolution limits (documented, deliberate)
//!
//! This is a name-level resolver, not a type checker:
//!
//! - **Method calls** (`x.f()`) resolve to *every* `impl`/`trait` function
//!   named `f` in the graphed crates — an over-approximation that errs
//!   toward reporting (more reachability, never less).
//! - **Bare calls** (`f()`) prefer free functions in the caller's module,
//!   then its crate, then anywhere in the graphed crates.
//! - **Qualified calls** (`T::f()`, `m::f()`) match the last path segment
//!   against impl types, trait names, module names, and crate names;
//!   `Self::f()` uses the enclosing `impl`'s type. Unresolvable qualifiers
//!   (`Vec::new`) produce no edge.
//! - **Dynamic dispatch through closures and `dyn` trait objects is not
//!   traced.** The graph attributes a closure's body to the function that
//!   builds it, which is where the closure runs when it goes straight to an
//!   iterator adapter. A closure stored and called later would run on a
//!   path the graph cannot see. The event loop stores none: `Machine::run`
//!   takes no closure from its caller, and an observed run reads its gauges
//!   in a plain method (`Sim::sample_gauges`).
//! - Macro-generated code is invisible; the workspace bans such codegen in
//!   deterministic crates anyway.

use crate::rules::{FileMeta, RuleId, Violation, PDES_CRATES};
use crate::scanner::{Allow, ScanOutput, TokKind, Token};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One function (free, inherent, trait decl, or trait impl) found in the
/// graphed source set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Short crate name (`sim`, `arch`, …).
    pub krate: String,
    /// Module path inside the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// The `impl` block's type, when this is an inherent or trait-impl fn.
    pub self_ty: Option<String>,
    /// The trait being implemented (or declared), when any.
    pub trait_name: Option<String>,
    /// The function's own name.
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
}

impl FnDef {
    /// Short display name: `Type::name`, `Trait::name`, or `name`.
    pub fn display(&self) -> String {
        match (&self.self_ty, &self.trait_name) {
            (Some(ty), _) => format!("{ty}::{}", self.name),
            (None, Some(tr)) => format!("{tr}::{}", self.name),
            (None, None) => self.name.clone(),
        }
    }

    /// Fully qualified name: `crate::module::Type::name`.
    pub fn qualified(&self) -> String {
        let mut parts: Vec<&str> = vec![self.krate.as_str()];
        parts.extend(self.module.iter().map(String::as_str));
        let owner = self.self_ty.as_deref().or(self.trait_name.as_deref());
        if let Some(o) = owner {
            parts.push(o);
        }
        parts.push(self.name.as_str());
        parts.join("::")
    }
}

/// One taint-sink use inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkUse {
    /// What was touched, e.g. `Instant::now (wall clock)`.
    pub what: String,
    /// 1-based line of the sink token.
    pub line: u32,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    /// `f(..)`.
    Bare,
    /// `Q::f(..)` with a known last qualifier segment.
    Qualified,
    /// `x.f(..)` or `<T as Tr>::f(..)` — name-only resolution.
    Method,
}

#[derive(Debug, Clone)]
struct RawCall {
    kind: CallKind,
    qualifier: Option<String>,
    name: String,
    line: u32,
}

/// The resolved, deterministic workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function definition, in (file, line) order.
    pub defs: Vec<FnDef>,
    /// Outgoing edges per def: `(callee def index, call-site line)`,
    /// deduplicated and sorted.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Taint-sink uses per def.
    pub sinks: Vec<Vec<SinkUse>>,
    /// Root def indices (PDES entry points), sorted.
    pub roots: Vec<usize>,
    /// BFS parent (`defs` index) for every root-reachable def; roots map
    /// to themselves.
    parent: BTreeMap<usize, usize>,
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 18] = [
    "as", "box", "const", "dyn", "else", "fn", "for", "if", "impl", "in", "let", "loop", "match",
    "move", "mut", "ref", "return", "while",
];

fn is_keyword(name: &str) -> bool {
    NON_CALL_KEYWORDS.contains(&name)
}

/// Module path derived from a workspace-relative file path:
/// `crates/sim/src/ldq.rs` → `["ldq"]`, `crates/matrix/src/gen/mod.rs` →
/// `["gen"]`, `crates/sim/src/lib.rs` → `[]`.
fn module_of(rel: &str) -> Vec<String> {
    let Some(pos) = rel.find("/src/") else { return Vec::new() };
    let tail = &rel[pos + "/src/".len()..];
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let mut parts: Vec<&str> = tail.split('/').collect();
    match parts.last().copied() {
        Some("lib") | Some("main") | Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts.into_iter().map(str::to_string).collect()
}

/// What one file contributes before cross-file resolution.
#[derive(Debug, Default)]
struct FileItems {
    defs: Vec<FnDef>,
    calls: Vec<Vec<RawCall>>,
    sinks: Vec<Vec<SinkUse>>,
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

/// If `i` sits on a `::` turbofish opener (`:: < … >`), returns the index
/// one past the closing `>` (arrow-aware: `->` never closes).
fn skip_turbofish(tokens: &[Token], i: usize) -> Option<usize> {
    if !(punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':') && punct_at(tokens, i + 2, '<')) {
        return None;
    }
    let mut depth = 0i32;
    let mut j = i + 2;
    while j < tokens.len() {
        if punct_at(tokens, j, '<') {
            depth += 1;
        } else if punct_at(tokens, j, '>') && !punct_at(tokens, j - 1, '-') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Parses one `impl`/`trait` header starting at the keyword token; returns
/// `(self_ty, trait_name, index of the body '{' or terminating ';')`.
fn parse_impl_header(tokens: &[Token], kw: usize) -> (Option<String>, Option<String>, usize) {
    let is_trait_decl = ident_at(tokens, kw) == Some("trait");
    let mut j = kw + 1;
    let mut angle = 0i32;
    let mut before_for: Vec<&str> = Vec::new();
    let mut after_for: Vec<&str> = Vec::new();
    let mut saw_for = false;
    let mut in_where = false;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('{') | TokKind::Punct(';') if angle == 0 => break,
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !punct_at(tokens, j - 1, '-') => angle -= 1,
            TokKind::Ident(name) if angle == 0 => match name.as_str() {
                "for" => saw_for = true,
                "where" => in_where = true,
                n if !in_where => {
                    if saw_for {
                        after_for.push(n);
                    } else {
                        before_for.push(n);
                    }
                }
                _ => {}
            },
            _ => {}
        }
        j += 1;
    }
    if is_trait_decl {
        // `trait Name { … }`: the name is the first header ident.
        (None, before_for.first().map(|s| s.to_string()), j)
    } else if saw_for {
        // `impl Trait for Type`: last segment on each side.
        (after_for.last().map(|s| s.to_string()), before_for.last().map(|s| s.to_string()), j)
    } else {
        // `impl Type`.
        (before_for.last().map(|s| s.to_string()), None, j)
    }
}

/// Matches taint-sink token patterns at `i`; returns the sink label.
fn sink_at(tokens: &[Token], i: usize) -> Option<String> {
    let name = ident_at(tokens, i)?;
    let path_next = |k: usize| -> Option<&str> {
        if punct_at(tokens, k + 1, ':') && punct_at(tokens, k + 2, ':') {
            ident_at(tokens, k + 3)
        } else {
            None
        }
    };
    match name {
        "Instant" | "SystemTime" if path_next(i) == Some("now") => {
            Some(format!("{name}::now (wall clock)"))
        }
        "thread_rng" | "from_entropy" => Some(format!("{name} (ambient RNG)")),
        "fs" => path_next(i).map(|f| format!("fs::{f} (file I/O)")),
        "File" if matches!(path_next(i), Some("open" | "create" | "options")) => {
            Some(format!("File::{} (file I/O)", path_next(i).unwrap_or_default()))
        }
        "OpenOptions" => Some("OpenOptions (file I/O)".into()),
        "TcpStream" | "TcpListener" | "UdpSocket" => Some(format!("{name} (socket I/O)")),
        "stdin" | "stdout" | "stderr" if punct_at(tokens, i + 1, '(') => {
            Some(format!("{name}() (console I/O)"))
        }
        "println" | "print" | "eprintln" | "eprint" | "dbg" if punct_at(tokens, i + 1, '!') => {
            Some(format!("{name}! (console I/O)"))
        }
        "thread" if matches!(path_next(i), Some("spawn")) => {
            Some("thread::spawn (thread API)".into())
        }
        "JoinHandle" => Some("JoinHandle (thread API)".into()),
        "mpsc" => Some("mpsc channel (thread API)".into()),
        "env" if matches!(path_next(i), Some("var" | "vars" | "var_os")) => {
            Some(format!("env::{} (ambient environment)", path_next(i).unwrap_or_default()))
        }
        _ => None,
    }
}

/// Parses one file's items, raw call candidates, and sink uses.
fn parse_file(meta: &FileMeta, scan: &ScanOutput) -> FileItems {
    let tokens = &scan.tokens;
    let masked = crate::rules::mark_test_regions(tokens);
    let base_module = module_of(&meta.rel);

    #[derive(Debug, Clone)]
    enum Scope {
        Mod(String),
        Container { self_ty: Option<String>, trait_name: Option<String> },
        Fn,
        Block,
    }
    #[derive(Debug, Clone)]
    enum Pend {
        Mod(String),
        Container { self_ty: Option<String>, trait_name: Option<String> },
        Fn(usize),
    }

    let mut out = FileItems::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut pending: Option<Pend> = None;
    // Bracket depth while a pending item waits for its body: a `;` inside
    // `fn f(x: [u8; 4])`'s brackets must not cancel the pending fn.
    let mut pend_depth = 0i32;

    let mut i = 0usize;
    while i < tokens.len() {
        if masked[i] {
            i += 1;
            continue;
        }
        let in_fn = fn_stack.last().copied();

        // Item structure.
        match &tokens[i].kind {
            TokKind::Ident(kw) if kw == "mod" && in_fn.is_none() => {
                if let Some(name) = ident_at(tokens, i + 1) {
                    if punct_at(tokens, i + 2, '{') {
                        pending = Some(Pend::Mod(name.to_string()));
                        pend_depth = 0;
                    }
                    i += 2;
                    continue;
                }
            }
            TokKind::Ident(kw) if (kw == "impl" || kw == "trait") && in_fn.is_none() => {
                let (self_ty, trait_name, body) = parse_impl_header(tokens, i);
                if punct_at(tokens, body, '{') {
                    pending = Some(Pend::Container { self_ty, trait_name });
                    pend_depth = 0;
                }
                i = body;
                continue;
            }
            TokKind::Ident(kw) if kw == "fn" => {
                if let Some(name) = ident_at(tokens, i + 1) {
                    // Owner context: the nearest Container unless a Fn
                    // intervenes (a nested fn is free-standing).
                    let mut self_ty = None;
                    let mut trait_name = None;
                    let mut module = base_module.clone();
                    for s in &stack {
                        if let Scope::Mod(m) = s {
                            module.push(m.clone());
                        }
                    }
                    for s in stack.iter().rev() {
                        match s {
                            Scope::Container { self_ty: ty, trait_name: tr } => {
                                self_ty = ty.clone();
                                trait_name = tr.clone();
                                break;
                            }
                            Scope::Fn => break,
                            _ => {}
                        }
                    }
                    let id = out.defs.len();
                    out.defs.push(FnDef {
                        krate: meta.krate.clone(),
                        module,
                        self_ty,
                        trait_name,
                        name: name.to_string(),
                        file: meta.rel.clone(),
                        line: tokens[i + 1].line,
                    });
                    out.calls.push(Vec::new());
                    out.sinks.push(Vec::new());
                    pending = Some(Pend::Fn(id));
                    pend_depth = 0;
                    i += 2;
                    continue;
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') if pending.is_some() => pend_depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') if pending.is_some() => pend_depth -= 1,
            TokKind::Punct(';') if pending.is_some() && pend_depth == 0 => {
                // Declaration without a body (trait method, `mod x;`).
                pending = None;
            }
            TokKind::Punct('{') => {
                let scope = match pending.take() {
                    Some(Pend::Mod(m)) => Scope::Mod(m),
                    Some(Pend::Container { self_ty, trait_name }) => {
                        Scope::Container { self_ty, trait_name }
                    }
                    Some(Pend::Fn(id)) => {
                        fn_stack.push(id);
                        Scope::Fn
                    }
                    None => Scope::Block,
                };
                stack.push(scope);
            }
            TokKind::Punct('}') => {
                if let Some(Scope::Fn) = stack.last() {
                    fn_stack.pop();
                }
                stack.pop();
            }
            _ => {}
        }

        // Call candidates and sink uses inside function bodies.
        if let Some(def) = in_fn {
            if let Some(what) = sink_at(tokens, i) {
                out.sinks[def].push(SinkUse { what, line: tokens[i].line });
            }
            if let TokKind::Ident(name) = &tokens[i].kind {
                if !is_keyword(name) {
                    let after = skip_turbofish(tokens, i + 1).unwrap_or(i + 1);
                    if punct_at(tokens, after, '(') {
                        let call = if punct_at(tokens, i.wrapping_sub(1), '.') {
                            Some(RawCall {
                                kind: CallKind::Method,
                                qualifier: None,
                                name: name.clone(),
                                line: tokens[i].line,
                            })
                        } else if punct_at(tokens, i.wrapping_sub(1), ':')
                            && punct_at(tokens, i.wrapping_sub(2), ':')
                        {
                            match ident_at(tokens, i.wrapping_sub(3)) {
                                Some(q) => Some(RawCall {
                                    kind: CallKind::Qualified,
                                    qualifier: Some(q.to_string()),
                                    name: name.clone(),
                                    line: tokens[i].line,
                                }),
                                // `<T as Tr>::f(..)` — name-only resolution.
                                None => Some(RawCall {
                                    kind: CallKind::Method,
                                    qualifier: None,
                                    name: name.clone(),
                                    line: tokens[i].line,
                                }),
                            }
                        } else {
                            Some(RawCall {
                                kind: CallKind::Bare,
                                qualifier: None,
                                name: name.clone(),
                                line: tokens[i].line,
                            })
                        };
                        if let Some(c) = call {
                            out.calls[def].push(c);
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

impl CallGraph {
    /// Builds the graph over the given scanned files. Only files from
    /// [`PDES_CRATES`] contribute (the Cargo dependency direction already
    /// prevents deterministic crates from calling into supervision crates,
    /// so graphing the supervision layer would only add resolution noise).
    pub fn build(files: &[(FileMeta, ScanOutput)]) -> CallGraph {
        let mut defs: Vec<FnDef> = Vec::new();
        let mut raw_calls: Vec<Vec<RawCall>> = Vec::new();
        let mut sinks: Vec<Vec<SinkUse>> = Vec::new();
        for (meta, scan) in files {
            if !PDES_CRATES.contains(&meta.krate.as_str()) {
                continue;
            }
            let items = parse_file(meta, scan);
            for ((d, c), s) in items.defs.into_iter().zip(items.calls).zip(items.sinks) {
                defs.push(d);
                raw_calls.push(c);
                sinks.push(s);
            }
        }

        // Name indexes for resolution, all deterministic.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, d) in defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(id);
        }

        let resolve = |caller: &FnDef, call: &RawCall| -> Vec<usize> {
            let Some(cands) = by_name.get(call.name.as_str()) else { return Vec::new() };
            match call.kind {
                CallKind::Bare => {
                    let free: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&id| defs[id].self_ty.is_none() && defs[id].trait_name.is_none())
                        .collect();
                    let same_mod: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&id| {
                            defs[id].krate == caller.krate && defs[id].module == caller.module
                        })
                        .collect();
                    if !same_mod.is_empty() {
                        return same_mod;
                    }
                    let same_crate: Vec<usize> =
                        free.iter().copied().filter(|&id| defs[id].krate == caller.krate).collect();
                    if !same_crate.is_empty() {
                        return same_crate;
                    }
                    free
                }
                CallKind::Qualified => {
                    let q = call.qualifier.as_deref().unwrap_or_default();
                    let q = if q == "Self" { caller.self_ty.as_deref().unwrap_or(q) } else { q };
                    cands
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let d = &defs[id];
                            d.self_ty.as_deref() == Some(q)
                                || d.trait_name.as_deref() == Some(q)
                                || d.module.last().map(String::as_str) == Some(q)
                                || d.krate == q
                                || format!("spacea_{}", d.krate) == q
                        })
                        .collect()
                }
                CallKind::Method => cands
                    .iter()
                    .copied()
                    .filter(|&id| defs[id].self_ty.is_some() || defs[id].trait_name.is_some())
                    .collect(),
            }
        };

        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); defs.len()];
        for (id, calls) in raw_calls.iter().enumerate() {
            let mut out: BTreeMap<usize, u32> = BTreeMap::new();
            for call in calls {
                for target in resolve(&defs[id], call) {
                    if target != id {
                        out.entry(target).or_insert(call.line);
                    }
                }
            }
            edges[id] = out.into_iter().collect();
        }

        // Roots: Machine::run, every DesQueue impl/decl method, every
        // Backend::run impl.
        let mut roots: Vec<usize> = defs
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                (d.krate == "arch" && d.self_ty.as_deref() == Some("Machine") && d.name == "run")
                    || d.trait_name.as_deref() == Some("DesQueue")
                    || (d.trait_name.as_deref() == Some("Backend") && d.name == "run")
            })
            .map(|(id, _)| id)
            .collect();
        roots.sort_unstable();
        roots.dedup();

        // BFS with first-discovered parents (deterministic: sorted roots,
        // sorted adjacency).
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in &roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(r);
                queue.push_back(r);
            }
        }
        while let Some(at) = queue.pop_front() {
            for &(next, _) in &edges[at] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(at);
                    queue.push_back(next);
                }
            }
        }

        CallGraph { defs, edges, sinks, roots, parent }
    }

    /// True when `def` is reachable from any root.
    pub fn reachable(&self, def: usize) -> bool {
        self.parent.contains_key(&def)
    }

    /// The call chain from a root to `def` (inclusive), as display names.
    /// `None` when `def` is unreachable.
    pub fn chain_to(&self, def: usize) -> Option<Vec<String>> {
        self.parent.get(&def)?;
        let mut chain = vec![def];
        let mut at = def;
        while self.parent[&at] != at {
            at = self.parent[&at];
            chain.push(at);
        }
        chain.reverse();
        Some(chain.into_iter().map(|id| self.defs[id].display()).collect())
    }

    /// Def indices whose name (or `Owner::name`) matches `symbol`.
    pub fn find(&self, symbol: &str) -> Vec<usize> {
        let (owner, name) = match symbol.rsplit_once("::") {
            Some((o, n)) => (Some(o), n),
            None => (None, symbol),
        };
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.name == name
                    && owner.is_none_or(|o| {
                        d.self_ty.as_deref() == Some(o)
                            || d.trait_name.as_deref() == Some(o)
                            || d.module.last().map(String::as_str) == Some(o)
                            || d.krate == o
                    })
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Exports the graph as GraphViz DOT. Roots are boxes, sink-bearing
    /// defs are shaded, reachable defs carry the `reachable` class.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph spacea_calls {\n  rankdir=LR;\n  node [fontsize=9];\n");
        for (id, d) in self.defs.iter().enumerate() {
            let mut attrs = vec![format!("label=\"{}\"", d.qualified())];
            if self.roots.contains(&id) {
                attrs.push("shape=box".into());
                attrs.push("style=bold".into());
            }
            if !self.sinks[id].is_empty() {
                attrs.push("style=filled".into());
                attrs.push("fillcolor=lightcoral".into());
            } else if self.reachable(id) {
                attrs.push("color=blue".into());
            }
            let _ = writeln!(out, "  n{id} [{}];", attrs.join(", "));
        }
        for (from, outs) in self.edges.iter().enumerate() {
            for &(to, _) in outs {
                let _ = writeln!(out, "  n{from} -> n{to};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Exports the graph as JSON (nodes with reachability and sinks, then
    /// edges), parseable by `spacea_obs::json`.
    pub fn to_json(&self) -> String {
        use spacea_obs::json::escape;
        let mut out = String::from("{\n  \"schema\": \"spacea-lint-graph-v1\",\n");
        let _ = writeln!(out, "  \"nodes\": {},", self.defs.len());
        out.push_str("  \"defs\": [\n");
        for (id, d) in self.defs.iter().enumerate() {
            let sinks: Vec<String> =
                self.sinks[id].iter().map(|s| format!("\"{}\"", escape(&s.what))).collect();
            let _ = write!(
                out,
                "    {{\"id\": {id}, \"name\": \"{}\", \"crate\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"root\": {}, \"reachable\": {}, \"sinks\": [{}]}}",
                escape(&d.qualified()),
                escape(&d.krate),
                escape(&d.file),
                d.line,
                self.roots.contains(&id),
                self.reachable(id),
                sinks.join(", ")
            );
            out.push_str(if id + 1 < self.defs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"edges\": [\n");
        let flat: Vec<(usize, usize)> = self
            .edges
            .iter()
            .enumerate()
            .flat_map(|(from, outs)| outs.iter().map(move |&(to, _)| (from, to)))
            .collect();
        for (i, (from, to)) in flat.iter().enumerate() {
            let _ = write!(out, "    {{\"from\": {from}, \"to\": {to}}}");
            out.push_str(if i + 1 < flat.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the D5 transitive-taint rule: every sink use in a root-reachable
/// function is a violation carrying the full call chain. `allows` maps each
/// file's workspace-relative path to its `lint:allow` directives.
pub fn check_taint(graph: &CallGraph, allows: &BTreeMap<String, Vec<Allow>>) -> Vec<Violation> {
    let empty: Vec<Allow> = Vec::new();
    let mut out = Vec::new();
    for (id, def) in graph.defs.iter().enumerate() {
        if graph.sinks[id].is_empty() || !graph.reachable(id) {
            continue;
        }
        let chain = graph.chain_to(id).unwrap_or_default().join(" -> ");
        let file_allows = allows.get(&def.file).unwrap_or(&empty);
        for sink in &graph.sinks[id] {
            let suppressed = file_allows.iter().any(|a| {
                (a.line == sink.line || a.line + 1 == sink.line)
                    && a.rules.iter().any(|r| r == RuleId::D5.name())
            });
            if !suppressed {
                out.push(Violation {
                    rule: RuleId::D5,
                    file: def.file.clone(),
                    line: sink.line,
                    what: format!("{} reachable via {chain}", sink.what),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileKind;
    use crate::scanner::scan;

    fn meta(rel: &str, krate: &str) -> FileMeta {
        FileMeta { rel: rel.into(), krate: krate.into(), kind: FileKind::Lib }
    }

    fn graph_of(files: &[(&str, &str, &str)]) -> CallGraph {
        let scanned: Vec<(FileMeta, ScanOutput)> =
            files.iter().map(|(rel, krate, src)| (meta(rel, krate), scan(src))).collect();
        CallGraph::build(&scanned)
    }

    const ENGINE_SRC: &str = "
        pub trait DesQueue<E> {
            fn schedule(&mut self, t: u64, e: E);
        }
        pub struct EventQueue;
        impl<E> DesQueue<E> for EventQueue {
            fn schedule(&mut self, t: u64, e: E) { helper(t); }
        }
        fn helper(t: u64) -> u64 { t + 1 }
    ";

    #[test]
    fn defs_and_owners_are_parsed() {
        let g = graph_of(&[("crates/sim/src/engine.rs", "sim", ENGINE_SRC)]);
        let names: Vec<String> = g.defs.iter().map(FnDef::display).collect();
        assert_eq!(
            names,
            vec!["DesQueue::schedule", "EventQueue::schedule", "helper"],
            "{:?}",
            g.defs
        );
        assert_eq!(g.defs[1].self_ty.as_deref(), Some("EventQueue"));
        assert_eq!(g.defs[1].trait_name.as_deref(), Some("DesQueue"));
        assert_eq!(g.defs[2].qualified(), "sim::engine::helper");
    }

    #[test]
    fn desqueue_impls_are_roots_and_reach_helpers() {
        let g = graph_of(&[("crates/sim/src/engine.rs", "sim", ENGINE_SRC)]);
        // The trait decl (no body) and the impl method are both roots.
        assert_eq!(g.roots.len(), 2, "{:?}", g.roots);
        let helper = g.find("helper")[0];
        assert!(g.reachable(helper));
        assert_eq!(
            g.chain_to(helper).unwrap(),
            vec!["EventQueue::schedule".to_string(), "helper".to_string()]
        );
    }

    #[test]
    fn machine_run_is_a_root_and_taint_flows_through_methods() {
        let machine = "
            pub struct Machine;
            impl Machine {
                pub fn run(&self) { let s = Sim::new(); s.go(); }
            }
            pub struct Sim;
            impl Sim {
                pub fn new() -> Sim { Sim }
                pub fn go(&self) { let t = std::time::Instant::now(); let _ = t; }
            }
        ";
        let g = graph_of(&[("crates/arch/src/machine.rs", "arch", machine)]);
        let run = g.find("Machine::run");
        assert_eq!(run.len(), 1);
        assert!(g.roots.contains(&run[0]));
        let violations = check_taint(&g, &BTreeMap::new());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, RuleId::D5);
        assert!(violations[0].what.contains("Instant::now"), "{}", violations[0].what);
        assert!(
            violations[0].what.contains("Machine::run -> Sim::go"),
            "chain must be complete: {}",
            violations[0].what
        );
    }

    #[test]
    fn unreachable_sinks_are_not_violations() {
        let src = "
            pub struct Machine;
            impl Machine { pub fn run(&self) {} }
            pub fn offline_loader() -> String { fs::read_to_string(\"x\") }
        ";
        let g = graph_of(&[("crates/arch/src/machine.rs", "arch", src)]);
        let loader = g.find("offline_loader")[0];
        assert!(!g.sinks[loader].is_empty(), "sink must be detected");
        assert!(!g.reachable(loader));
        assert!(check_taint(&g, &BTreeMap::new()).is_empty());
    }

    #[test]
    fn lint_allow_d5_suppresses_at_the_sink_line() {
        let src = "
pub struct Machine;
impl Machine {
    pub fn run(&self) {
        // lint:allow(D5) documented measurement
        let t = std::time::Instant::now();
        let _ = t;
    }
}
";
        let m = meta("crates/arch/src/machine.rs", "arch");
        let scanned = scan(src);
        let mut allows = BTreeMap::new();
        allows.insert(m.rel.clone(), scanned.allows.clone());
        let g = CallGraph::build(&[(m, scanned)]);
        assert!(check_taint(&g, &allows).is_empty());
        // Without the allow table the same graph reports it.
        assert_eq!(check_taint(&g, &BTreeMap::new()).len(), 1);
    }

    #[test]
    fn backend_run_impls_are_roots() {
        let backend = "
            pub trait Backend {
                fn run(&self, spec: &u32) -> Result<u32, String>;
            }
            pub struct GpuBackend;
            impl Backend for GpuBackend {
                fn run(&self, spec: &u32) -> Result<u32, String> { Ok(*spec) }
            }
        ";
        let g = graph_of(&[("crates/backend/src/lib.rs", "backend", backend)]);
        let ids = g.find("Backend::run");
        assert!(!ids.is_empty());
        for id in g.find("GpuBackend::run") {
            assert!(g.roots.contains(&id), "impl Backend::run must be a root");
        }
    }

    #[test]
    fn test_code_contributes_no_defs() {
        let src = "
            pub struct Machine;
            impl Machine { pub fn run(&self) {} }
            #[cfg(test)]
            mod tests {
                fn helper_with_clock() { let _ = std::time::Instant::now(); }
            }
        ";
        let g = graph_of(&[("crates/arch/src/machine.rs", "arch", src)]);
        assert!(g.find("helper_with_clock").is_empty());
    }

    #[test]
    fn qualified_and_turbofish_calls_resolve() {
        let src = "
            pub struct Machine;
            impl Machine {
                pub fn run(&self) {
                    reduce::canon::<u64>(3);
                    Helper::assist();
                }
            }
            pub struct Helper;
            impl Helper { pub fn assist() {} }
            pub mod reduce { pub fn canon<T>(x: T) -> T { x } }
        ";
        let g = graph_of(&[("crates/arch/src/machine.rs", "arch", src)]);
        let canon = g.find("canon")[0];
        let assist = g.find("assist")[0];
        assert!(g.reachable(canon), "turbofish module call must resolve");
        assert!(g.reachable(assist), "Type::assoc call must resolve");
    }

    #[test]
    fn cross_crate_method_calls_link() {
        let sim = "
            pub struct LoadQueue;
            impl LoadQueue {
                pub fn push_stamped(&mut self) { let _ = std::time::Instant::now(); }
            }
        ";
        let arch = "
            pub struct Machine;
            impl Machine {
                pub fn run(&self, q: &mut u32) { q.push_stamped(); }
            }
        ";
        let g = graph_of(&[
            ("crates/sim/src/ldq.rs", "sim", sim),
            ("crates/arch/src/machine.rs", "arch", arch),
        ]);
        let v = check_taint(&g, &BTreeMap::new());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/sim/src/ldq.rs");
        assert!(v[0].what.contains("Machine::run -> LoadQueue::push_stamped"), "{}", v[0].what);
    }

    #[test]
    fn non_pdes_crates_are_out_of_scope() {
        let g = graph_of(&[(
            "crates/harness/src/exec.rs",
            "harness",
            "pub fn run_jobs() { let _ = std::time::Instant::now(); }",
        )]);
        assert!(g.defs.is_empty());
    }

    #[test]
    fn dot_and_json_exports_are_well_formed() {
        let g = graph_of(&[("crates/sim/src/engine.rs", "sim", ENGINE_SRC)]);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph spacea_calls {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("n1 -> n2;"), "{dot}");
        let json = g.to_json();
        let parsed = spacea_obs::json::parse(&json).expect("graph JSON must parse");
        assert_eq!(
            parsed.get("schema").and_then(spacea_obs::json::Json::as_str),
            Some("spacea-lint-graph-v1")
        );
        let defs = parsed.get("defs").and_then(spacea_obs::json::Json::as_arr).unwrap();
        assert_eq!(defs.len(), g.defs.len());
    }

    #[test]
    fn module_paths_derive_from_file_layout() {
        assert_eq!(module_of("crates/sim/src/ldq.rs"), vec!["ldq".to_string()]);
        assert_eq!(module_of("crates/matrix/src/gen/mod.rs"), vec!["gen".to_string()]);
        assert!(module_of("crates/sim/src/lib.rs").is_empty());
        assert_eq!(
            module_of("crates/core/src/experiments/fig2.rs"),
            vec!["experiments".to_string(), "fig2".to_string()]
        );
    }
}
