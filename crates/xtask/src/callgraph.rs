//! Workspace call graph and per-function site extraction.
//!
//! Nodes are the `fn` items the symbol parser recovered; edges are
//! name-resolved call sites (class-hierarchy-analysis style: a call
//! resolves to *every* workspace function with a matching name, to the
//! container-matching subset when the call is `Type::name(..)`
//! qualified, and — as in Rust — to the caller file's own free `fn`
//! when a plain `name(..)` call has one to find). The graph
//! deliberately over-approximates — a phantom edge can only make a
//! pass report a chain that a human then justifies or refutes with a
//! per-site allow; a missing edge would silently hide a real one.
//!
//! Alongside the edges, each node records the *sites* the
//! interprocedural passes reason about: panic/indexing sites (P3),
//! determinism-taint sources (D5), lock acquisitions with their held
//! ranges, and I/O calls (L2).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{self, Tok, TokKind};
use crate::rules;
use crate::symbols::FileSymbols;

/// A source span, 1-based.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub line: u32,
    pub col: u32,
    pub len: usize,
}

fn span_of(t: &Tok) -> Span {
    Span {
        line: t.line,
        col: t.col,
        len: t.text.chars().count().max(1),
    }
}

/// A `panic!`/`unwrap`/`expect`/`unreachable!`/`[i]` site.
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub span: Span,
    /// Human label (`` `.unwrap()` ``, `` `panic!` ``, `indexing`).
    pub what: String,
    /// Whether this is a slice-indexing site (covered by P2 allows)
    /// rather than a panic-family site (covered by P1 allows).
    pub index: bool,
}

/// What kind of nondeterminism a taint source injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaintKind {
    Clock,
    Env,
    Rng,
    Hash,
}

/// A determinism-taint source site.
#[derive(Clone, Debug)]
pub struct TaintSite {
    pub span: Span,
    pub kind: TaintKind,
    pub what: String,
}

/// A lock acquisition (`recv.lock()` or a `lock(&recv)` helper call).
#[derive(Clone, Debug)]
pub struct LockSite {
    pub span: Span,
    /// The lock's identity: the receiver's last path segment. A
    /// heuristic — two different mutexes behind the same field name
    /// unify — but chosen so the acquisition-order graph stays small
    /// and reviewable.
    pub name: String,
    /// Half-open code-token range over which the guard is considered
    /// held: to the end of the enclosing block for `let`-bound guards
    /// (cut early by `drop(binding)`), to the end of the statement for
    /// temporaries.
    pub held: (usize, usize),
}

/// An I/O call (`PersistIo` method, socket constructor, or a generic
/// read/write on an I/O-ish receiver).
#[derive(Clone, Debug)]
pub struct IoSite {
    pub span: Span,
    /// Code-token index of the call, for held-range coverage checks.
    pub idx: usize,
    pub what: String,
}

/// How a call site names its callee.
#[derive(Clone, Debug)]
pub enum CallKind {
    /// `name(..)`: no path and no receiver.
    Plain,
    /// `recv.name(..)`.
    Method,
    /// `Type::name(..)` or `module::name(..)`, with the segment before
    /// the name.
    Path(String),
}

/// An outgoing call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    pub line: u32,
    /// Code-token index of the callee identifier.
    pub idx: usize,
}

/// Everything extracted from one function body.
#[derive(Clone, Debug, Default)]
pub struct FnSites {
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub taints: Vec<TaintSite>,
    pub locks: Vec<LockSite>,
    pub ios: Vec<IoSite>,
}

/// One call-graph node (a function item with a body).
#[derive(Clone, Debug)]
pub struct Node {
    /// Index of the owning file in the engine's file list.
    pub file: usize,
    pub name: String,
    pub qual: String,
    pub container: Option<String>,
    pub is_pub: bool,
    pub line: u32,
    pub col: u32,
    pub sites: FnSites,
}

/// An edge with the call site that induced it.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub callee: usize,
    pub line: u32,
    /// Code-token index of the callee identifier at the call site, so
    /// passes can match an edge to an exact site (two calls can share a
    /// line).
    pub idx: usize,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub nodes: Vec<Node>,
    pub edges: Vec<Vec<Edge>>,
}

/// A borrowed view of one prepared file, supplied by the engine.
pub struct FileView<'a> {
    pub rel: &'a str,
    pub code: &'a [&'a Tok],
    pub symbols: &'a FileSymbols,
    pub test_regions: &'a [(u32, u32)],
}

/// The I/O vocabulary the L2 pass matches call names against.
#[derive(Clone, Debug, Default)]
pub struct IoCatalog {
    /// Unambiguous method names (`exchange`, `write_tmp`, `sync_dir`).
    pub distinct: BTreeSet<String>,
    /// Generic names (`read`, `remove`) that only count on an I/O-ish
    /// receiver (`io`, `stream`, `socket`, ...).
    pub generic: BTreeSet<String>,
}

/// Call names too generic to mean I/O without receiver evidence.
const GENERIC_IO_NAMES: &[&str] = &["read", "write", "remove", "rename", "flush"];

/// Receiver last-segments that make a generic read/write an I/O call.
const IOISH_RECEIVERS: &[&str] = &["io", "stream", "socket", "conn", "listener", "sock"];

/// Builds the I/O vocabulary from the `PersistIo` trait found in the
/// workspace, plus the socket-constructor names.
#[must_use]
pub fn io_catalog(files: &[FileView<'_>]) -> IoCatalog {
    let mut cat = IoCatalog::default();
    for f in files {
        for t in &f.symbols.traits {
            if t.name == "PersistIo" {
                for m in &t.methods {
                    if GENERIC_IO_NAMES.contains(&m.as_str()) {
                        cat.generic.insert(m.clone());
                    } else {
                        cat.distinct.insert(m.clone());
                    }
                }
            }
        }
    }
    for m in ["accept", "bind", "connect", "connect_timeout"] {
        cat.distinct.insert(m.to_owned());
    }
    cat
}

/// Builds the workspace call graph.
#[must_use]
pub fn build(files: &[FileView<'_>], io: &IoCatalog) -> Graph {
    let mut graph = Graph::default();
    for (file_idx, f) in files.iter().enumerate() {
        let braces = match_braces(f.code);
        for item in &f.symbols.fns {
            let Some(body) = item.body else { continue };
            // Items gated to test builds are out of scope for every
            // interprocedural pass, exactly like the token rules.
            if lexer::in_regions(f.test_regions, item.line) {
                continue;
            }
            let sites = extract_sites(f.code, body, f.symbols, io, &braces);
            graph.nodes.push(Node {
                file: file_idx,
                name: item.name.clone(),
                qual: item.qual.clone(),
                container: item.container.clone(),
                is_pub: item.is_pub,
                line: item.line,
                col: item.col,
                sites,
            });
        }
    }
    // Name resolution: container-qualified first, the caller file's own
    // free fn for a plain call, bare name fallback.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free_in_file: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
    let mut containers: BTreeSet<&str> = BTreeSet::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
        if let Some(c) = &n.container {
            by_qual
                .entry((c.as_str(), n.name.as_str()))
                .or_default()
                .push(i);
            containers.insert(c.as_str());
        } else {
            free_in_file.entry((n.file, &n.name)).or_default().push(i);
        }
    }
    for n in &graph.nodes {
        let mut out: Vec<Edge> = Vec::new();
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for call in &n.sites.calls {
            let by_bare_name = || {
                by_name
                    .get(call.name.as_str())
                    .map_or(&[][..], Vec::as_slice)
            };
            let targets: &[usize] = match &call.kind {
                // A file that defines the name shadows every other
                // workspace function of that name.
                CallKind::Plain => free_in_file
                    .get(&(n.file, call.name.as_str()))
                    .map_or_else(by_bare_name, Vec::as_slice),
                CallKind::Method => by_bare_name(),
                CallKind::Path(q) => {
                    if let Some(v) = by_qual.get(&(q.as_str(), call.name.as_str())) {
                        v
                    } else if containers.contains(q.as_str())
                        || q.chars().next().is_some_and(char::is_uppercase)
                    {
                        // A known container without this method, or a
                        // type-like qualifier no workspace impl block
                        // mentions (`BTreeMap::new`): the call goes out
                        // of workspace (std, vendored). No edge — a
                        // bare-name fallback here would wire every
                        // `::new(..)` to every workspace constructor.
                        &[]
                    } else {
                        // Qualifier is a module path segment (possibly
                        // aliased): fall back to the bare name.
                        by_bare_name()
                    }
                }
            };
            for &t in targets {
                if seen.insert((t, call.idx)) {
                    out.push(Edge {
                        callee: t,
                        line: call.line,
                        idx: call.idx,
                    });
                }
            }
        }
        graph.edges.push(out);
    }
    graph
}

/// For each `{` token index, the index of its matching `}`.
fn match_braces(code: &[&Tok]) -> BTreeMap<usize, usize> {
    let mut map = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                map.insert(open, i);
            }
        }
    }
    map
}

/// Keywords that look like `ident (` but are not calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "as", "in", "move", "else", "let",
    "mut", "ref", "unsafe", "use", "pub", "where", "impl", "dyn", "break", "continue", "crate",
    "super", "struct", "enum", "union", "trait", "mod", "static", "const", "type", "extern",
    "true", "false", "await", "box", "yield",
];

/// Extracts calls and pass-relevant sites from one body range.
fn extract_sites(
    code: &[&Tok],
    body: (usize, usize),
    symbols: &FileSymbols,
    io: &IoCatalog,
    braces: &BTreeMap<usize, usize>,
) -> FnSites {
    let (start, end) = body;
    let end = end.min(code.len());
    let mut sites = FnSites::default();
    for i in start..end {
        let t = code[i];
        if t.kind != TokKind::Ident {
            if rules::is_index_site(code, i) {
                sites.panics.push(PanicSite {
                    span: span_of(t),
                    what: "indexing".to_owned(),
                    index: true,
                });
            }
            continue;
        }
        // Panic-family sites (same predicates as rule P1).
        if let Some(what) = rules::unwrap_like(code, i) {
            sites.panics.push(PanicSite {
                span: span_of(t),
                what: format!("`.{what}()`"),
                index: false,
            });
        } else if let Some(what) = rules::panic_macro(code, i) {
            sites.panics.push(PanicSite {
                span: span_of(t),
                what: format!("`{what}!`"),
                index: false,
            });
        }
        // Determinism-taint sources: the D2 clock/env predicate
        // (alias-aware), plus RNG and hash-container sources.
        if let Some(what) = rules::clock_env_what(code, i, symbols) {
            let kind = if what.contains("environment") {
                TaintKind::Env
            } else {
                TaintKind::Clock
            };
            sites.taints.push(TaintSite {
                span: span_of(t),
                kind,
                what,
            });
        } else if let Some(what) = rng_taint(code, i, symbols) {
            sites.taints.push(TaintSite {
                span: span_of(t),
                kind: TaintKind::Rng,
                what,
            });
        } else if let Some(what) = hash_taint(code, i, symbols) {
            sites.taints.push(TaintSite {
                span: span_of(t),
                kind: TaintKind::Hash,
                what,
            });
        }
        // Lock acquisitions.
        if t.text == "lock" && code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let method = i > 0 && code[i - 1].is_punct('.');
            let is_def = i > 0 && code[i - 1].is_ident("fn");
            if !is_def {
                let name = if method {
                    receiver_name(code, i - 1)
                } else {
                    last_ident_in_args(code, i + 1)
                };
                if let Some(name) = name {
                    let held = held_range(code, i, braces, start, end);
                    sites.locks.push(LockSite {
                        span: span_of(t),
                        name,
                        held,
                    });
                }
            }
        }
        // Calls (after the site classification so a `lock()` call is
        // both a lock site and an edge to any workspace `lock` fn).
        if let Some(call) = call_at(code, i) {
            // I/O classification by callee name.
            if io.distinct.contains(&call.name) {
                sites.ios.push(IoSite {
                    span: span_of(t),
                    idx: i,
                    what: format!("`{}(..)`", call.name),
                });
            } else if io.generic.contains(&call.name)
                && i > 0
                && code[i - 1].is_punct('.')
                && receiver_name(code, i - 1).is_some_and(|r| ioish(&r))
            {
                sites.ios.push(IoSite {
                    span: span_of(t),
                    idx: i,
                    what: format!("`{}(..)` on an I/O receiver", call.name),
                });
            }
            // Socket constructors (the D4 vocabulary) are I/O sites too:
            // `TcpStream::connect(..)` has callee `connect` qualified by
            // the socket type.
            if let CallKind::Path(q) = &call.kind {
                if rules::SOCKET_TYPES.contains(&q.as_str())
                    && rules::SOCKET_CONSTRUCTORS.contains(&call.name.as_str())
                {
                    sites.ios.push(IoSite {
                        span: span_of(t),
                        idx: i,
                        what: format!("`{q}::{}` socket construction", call.name),
                    });
                }
            }
            sites.calls.push(call);
        }
    }
    sites
}

/// Recognizes a call whose *callee identifier* is at `i`: plain
/// `name(..)`, qualified `Type::name(..)`, or method `.name(..)`.
fn call_at(code: &[&Tok], i: usize) -> Option<CallSite> {
    let t = code[i];
    if !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    if CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    let prev = i.checked_sub(1).map(|p| code[p]);
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return None; // definition, not call
    }
    let kind = if prev.is_some_and(|p| p.is_punct('.')) {
        CallKind::Method
    } else if i >= 3 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':') {
        let q = code[i - 3];
        if q.kind != TokKind::Ident {
            return None;
        }
        CallKind::Path(q.text.clone())
    } else {
        CallKind::Plain
    };
    Some(CallSite {
        name: t.text.clone(),
        kind,
        line: t.line,
        idx: i,
    })
}

/// RNG taint: entropy-seeded randomness by name or through an alias of
/// the `rand` crate.
fn rng_taint(code: &[&Tok], i: usize, symbols: &FileSymbols) -> Option<String> {
    let t = code[i];
    match t.text.as_str() {
        "thread_rng" | "from_entropy" => {
            if code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                return Some(format!("`{}()` entropy source", t.text));
            }
            None
        }
        "RandomState" => Some("`RandomState` (per-process hash seed)".to_owned()),
        _ => {
            let target = symbols.alias_target(&t.text, t.line)?;
            if (target == "rand" || target.starts_with("rand::"))
                && code
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
            {
                return Some(format!("`{}` (aliases `{target}`)", t.text));
            }
            None
        }
    }
}

/// Hash-container taint: `HashMap`/`HashSet` by name or alias.
fn hash_taint(code: &[&Tok], i: usize, symbols: &FileSymbols) -> Option<String> {
    let t = code[i];
    if t.text == "HashMap" || t.text == "HashSet" {
        return Some(format!("`{}` (hash iteration order)", t.text));
    }
    let target = symbols.alias_target(&t.text, t.line)?;
    if target.ends_with("::HashMap") || target.ends_with("::HashSet") {
        return Some(format!("`{}` (aliases `{target}`)", t.text));
    }
    None
}

fn ioish(receiver: &str) -> bool {
    IOISH_RECEIVERS.contains(&receiver) || receiver.ends_with("_io")
}

/// The receiver's last path segment for a method call whose `.` is at
/// `dot`: `self.state.lock()` → `state`; `cache(store).lock()` →
/// `cache`.
fn receiver_name(code: &[&Tok], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    // Skip a call's argument list to the callee name.
    if code[j].is_punct(')') {
        let mut depth = 0i32;
        loop {
            if code[j].is_punct(')') {
                depth += 1;
            } else if code[j].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    if code[j].kind == TokKind::Ident {
        Some(code[j].text.clone())
    } else {
        None
    }
}

/// The last identifier inside the argument list opening at `open`
/// (`lock(&self.queue)` → `queue`).
fn last_ident_in_args(code: &[&Tok], open: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut last: Option<String> = None;
    for t in code.iter().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident && t.text != "self" && t.text != "mut" {
            last = Some(t.text.clone());
        }
    }
    last
}

/// The token range over which the guard acquired at `i` is held.
fn held_range(
    code: &[&Tok],
    i: usize,
    braces: &BTreeMap<usize, usize>,
    body_start: usize,
    body_end: usize,
) -> (usize, usize) {
    // Find the statement start and whether the guard is `let`-bound.
    let mut j = i;
    let mut binding: Option<String> = None;
    let mut bound = false;
    while j > body_start {
        j -= 1;
        let t = code[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            bound = true;
            // First ident after `let`, skipping `mut`.
            let mut k = j + 1;
            while k < i {
                let n = code[k];
                if n.kind == TokKind::Ident && n.text != "mut" {
                    binding = Some(n.text.clone());
                    break;
                }
                if n.kind != TokKind::Ident {
                    break; // destructuring: bound, no drop tracking
                }
                k += 1;
            }
            break;
        }
    }
    // The innermost block enclosing `i`.
    let mut block_end = body_end;
    let mut best_open = None;
    for (&open, &close) in braces {
        if open < i && close > i {
            match best_open {
                None => {
                    best_open = Some(open);
                    block_end = close;
                }
                Some(b) if open > b => {
                    best_open = Some(open);
                    block_end = close;
                }
                _ => {}
            }
        }
    }
    let block_end = block_end.min(body_end);
    if bound {
        // Held to the end of the enclosing block, cut by an explicit
        // `drop(binding)`.
        if let Some(bind) = binding {
            let mut k = i;
            while k < block_end {
                if code[k].is_ident("drop")
                    && code.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && code.get(k + 2).is_some_and(|t| t.is_ident(&bind))
                    && code.get(k + 3).is_some_and(|t| t.is_punct(')'))
                {
                    return (i, k);
                }
                k += 1;
            }
        }
        (i, block_end)
    } else {
        // A temporary guard: held to the end of the statement (`;` or a
        // match-arm `,` at the same depth), bounded by the block.
        let mut depth = 0i32;
        let mut k = i;
        while k < block_end {
            let t = code[k];
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(';') | TokKind::Punct(',') if depth <= 0 => return (i, k),
                _ => {}
            }
            k += 1;
        }
        (i, block_end)
    }
}

/// Renders the graph as sorted `caller -> callee` lines (or Graphviz
/// DOT with `dot = true`) for `cargo xtask graph`.
#[must_use]
pub fn dump(graph: &Graph, rels: &[String], dot: bool) -> String {
    let mut out = String::new();
    let label = |i: usize| {
        let n = &graph.nodes[i];
        let rel = rels.get(n.file).map_or("?", String::as_str);
        format!("{} ({rel}:{})", n.qual, n.line)
    };
    if dot {
        out.push_str("digraph calls {\n");
        for i in 0..graph.nodes.len() {
            out.push_str(&format!("  \"{}\";\n", label(i)));
        }
        for (i, edges) in graph.edges.iter().enumerate() {
            for e in edges {
                out.push_str(&format!("  \"{}\" -> \"{}\";\n", label(i), label(e.callee)));
            }
        }
        out.push_str("}\n");
    } else {
        out.push_str(&format!(
            "{} function(s), {} edge(s)\n",
            graph.nodes.len(),
            graph.edges.iter().map(Vec::len).sum::<usize>()
        ));
        let mut lines: Vec<String> = Vec::new();
        for (i, edges) in graph.edges.iter().enumerate() {
            for e in edges {
                lines.push(format!("{} -> {}", label(i), label(e.callee)));
            }
        }
        lines.sort();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
    }
    out
}
