//! The domain-specific lint rules.
//!
//! Every rule protects an invariant the decision pipeline's correctness
//! argument leans on (see `DESIGN.md` §9):
//!
//! | id | name        | invariant |
//! |----|-------------|-----------|
//! | D1 | hash-order  | no hash-ordered container on the verdict path |
//! | D2 | clock-env   | no wall-clock / environment reads in pure decision code (alias-aware) |
//! | D3 | fs-confine  | filesystem access on the verdict path lives in `stages/persist.rs` |
//! | D4 | net-confine | socket construction lives in `cli/src/serve.rs` + `cli/src/chaos.rs` |
//! | D5 | digest-taint| no clock/env/RNG/hash-order source reachable from a determinism root |
//! | P1 | panic       | library code degrades structurally, it does not panic |
//! | P2 | index       | (advisory) prefer `get` over panicking indexing |
//! | P3 | panic-reach | no panic/indexing site reachable from public verdict-path APIs |
//! | L1 | lock-unwrap | lock poisoning is recovered, never unwrapped |
//! | L2 | lock-order  | no acquisition-order cycles, no lock held across I/O |
//! | A1 | bad-allow   | escape hatches carry a justification |
//! | U1 | unused-allow| stale escape hatches are removed (error under `-D all`) |
//!
//! D1–L1 and A1/U1 are token-pattern rules over one file; D5/P3/L2 are
//! *interprocedural* — they run over the workspace call graph
//! (`symbols.rs` + `callgraph.rs` + `passes.rs`) and render the call
//! chain they followed in the diagnostic's `note:` lines. Allow
//! coverage composes: a justified `allow(P1)` at a panic site also
//! silences the P3 chain ending there (same claim — "this site cannot
//! fire"), `allow(P2)` covers a P3 indexing site, and `allow(D1)`
//! covers a D5 hash finding. `allow(D2)` does **not** cover D5: D2's
//! claim is "this read is locally sound", D5's is "this read cannot
//! leak into a digest" — a site may satisfy one and not the other.
//!
//! Rules are token-pattern based and deliberately *over-approximate*:
//! they may flag a use that is in fact sound (a key-addressed map that is
//! never iterated, a slice index guarded by an invariant). The escape
//! hatch for those is a justified
//! `// chromata-lint: allow(<rule>): <why>` annotation — the
//! justification requirement turns every suppression into reviewable
//! documentation.

use crate::allow;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{self, Tok, TokKind};
use crate::symbols::{self, FileSymbols};

/// All rule identifiers the allow parser accepts.
pub const KNOWN_RULES: &[&str] = &[
    "D1", "D2", "D3", "D4", "D5", "P1", "P2", "P3", "L1", "L2", "A1", "U1",
];

/// The rules enforced with `-D all` (the advisory rule P2 stays at warn
/// unless denied individually; U1 is advisory by default but a stale
/// allow is an error in CI mode).
pub const PRIMARY_RULES: &[&str] = &[
    "D1", "D2", "D3", "D4", "D5", "P1", "P3", "L1", "L2", "A1", "U1",
];

/// Crates whose code can influence a `Verdict`: canonicalization,
/// subdivision, the algebraic tiers and the pipeline itself.
pub const VERDICT_PATH_CRATES: &[&str] = &["topology", "subdivision", "algebra", "core", "task"];

/// Crates held to the panic-freedom contract (everything a caller links
/// against; the CLI binary and the bench harness are exempt).
pub const LIBRARY_CRATES: &[&str] = &[
    "topology",
    "subdivision",
    "algebra",
    "core",
    "task",
    "runtime",
];

/// How the rules see one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct Role {
    /// D1 applies (verdict-path crate).
    pub verdict_path: bool,
    /// P1/P2 apply (library crate).
    pub library: bool,
    /// D2 does not apply (`govern.rs`, the bench crate).
    pub clock_exempt: bool,
    /// L1 does not apply (the poison-recovery module).
    pub lock_exempt: bool,
    /// D3 does not apply (the durable persistence module).
    pub fs_exempt: bool,
    /// D4 does not apply (the verdict-service module).
    pub net_exempt: bool,
}

/// Classifies a workspace-relative path, `None` if out of lint scope
/// (vendored crates, fixtures, integration tests, benches, examples,
/// the xtask tool itself).
#[must_use]
pub fn role_for(rel: &str) -> Option<Role> {
    let rel = rel.replace('\\', "/");
    let mut parts = rel.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    let krate = parts.next()?;
    if krate == "xtask" || krate == "bench" {
        return None;
    }
    // Only `src/` trees are linted: integration tests, benches and
    // examples may panic and measure time freely.
    if parts.next() != Some("src") {
        return None;
    }
    Some(Role {
        verdict_path: VERDICT_PATH_CRATES.contains(&krate),
        library: LIBRARY_CRATES.contains(&krate),
        // The chaos campaign driver (`cli/src/chaos.rs`) times recovery
        // deadlines and abuses real sockets by design, so it joins the
        // clock and socket exemptions; the match is path-exact, so any
        // other chaos-named file stays fully confined.
        clock_exempt: rel.ends_with("src/govern.rs") || rel == "crates/cli/src/chaos.rs",
        lock_exempt: rel == "crates/core/src/stages/cache.rs",
        fs_exempt: rel == "crates/core/src/stages/persist.rs",
        net_exempt: rel == "crates/cli/src/serve.rs" || rel == "crates/cli/src/chaos.rs",
    })
}

/// A raw rule finding before allow/test filtering.
pub(crate) struct Finding {
    pub(crate) rule: &'static str,
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) len: usize,
    pub(crate) message: String,
    pub(crate) help: String,
    /// Extra `note:` lines (interprocedural passes render call chains).
    pub(crate) notes: Vec<String>,
    /// A second rule whose allow also silences this finding: an
    /// interprocedural finding is covered by the per-site rule making
    /// the same claim (P3 panic by P1, P3 indexing by P2, D5 hash by
    /// D1).
    pub(crate) covered_by: Option<&'static str>,
}

impl Finding {
    pub(crate) fn new(
        rule: &'static str,
        line: u32,
        col: u32,
        len: usize,
        message: String,
        help: String,
    ) -> Self {
        Finding {
            rule,
            line,
            col,
            len,
            message,
            help,
            notes: Vec::new(),
            covered_by: None,
        }
    }
}

/// Severity configuration for a run.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// `(rule, severity)` pairs; rules absent here keep their default.
    pub overrides: Vec<(String, Severity)>,
}

impl Config {
    /// The run where every primary rule denies (CI mode).
    #[must_use]
    pub fn deny_all() -> Self {
        Config {
            overrides: PRIMARY_RULES
                .iter()
                .map(|r| ((*r).to_owned(), Severity::Deny))
                .collect(),
        }
    }

    fn severity(&self, rule: &str) -> Severity {
        for (r, s) in self.overrides.iter().rev() {
            if r == rule || r == "all" {
                return *s;
            }
        }
        match rule {
            // Advisory by default: indexing is pervasive in simplicial
            // code with structural length invariants, and unused allows
            // should nag, not block.
            "P2" | "U1" => Severity::Warn,
            _ => Severity::Deny,
        }
    }
}

/// Lints one file's source text with the *local* (single-file) rules.
/// `rel` is the workspace-relative path used in diagnostics; `role`
/// decides which rules apply. The interprocedural rules (P3/D5/L2) need
/// the whole workspace and run in [`crate::lint_sources`].
#[must_use]
pub fn lint_source(rel: &str, src: &str, role: Role, config: &Config) -> Vec<Diagnostic> {
    let tokens = lexer::lex(src);
    let test_regions = lexer::test_regions(&tokens);
    let (mut allows, allow_errors) = allow::collect(&tokens);
    let code: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let syms = symbols::parse(&code);
    let mut findings = a1_findings(&allow_errors);
    local_rules(&code, &syms, role, &mut findings);
    finalize(rel, src, findings, &test_regions, &mut allows, config)
}

/// Converts the allow parser's errors into A1 findings.
pub(crate) fn a1_findings(errors: &[allow::AllowError]) -> Vec<Finding> {
    errors
        .iter()
        .map(|e| {
            Finding::new(
                "A1",
                e.line,
                e.col,
                MARKER_LEN,
                e.message.clone(),
                "write `// chromata-lint: allow(<rule>): <justification>` — \
                 the justification is required"
                    .to_owned(),
            )
        })
        .collect()
}

/// Runs every single-file rule over one file's code tokens.
pub(crate) fn local_rules(
    code: &[&Tok],
    syms: &FileSymbols,
    role: Role,
    findings: &mut Vec<Finding>,
) {
    rule_d1(code, role, findings);
    rule_d2(code, syms, role, findings);
    rule_d3(code, role, findings);
    rule_d4(code, role, findings);
    rule_p1(code, role, findings);
    rule_p2(code, role, findings);
    rule_l1(code, role, findings);
}

/// Applies test-region and allow filtering plus severity configuration,
/// turning raw findings into rendered diagnostics (including the U1
/// unused-allow pass, which must run after every rule has had its
/// chance to mark an allow used).
pub(crate) fn finalize(
    rel: &str,
    src: &str,
    findings: Vec<Finding>,
    test_regions: &[(u32, u32)],
    allows: &mut [allow::AllowEntry],
    config: &Config,
) -> Vec<Diagnostic> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for f in findings {
        // Test-gated code is out of scope for every rule except A1: a
        // malformed annotation is wrong wherever it sits.
        if f.rule != "A1" && lexer::in_regions(test_regions, f.line) {
            continue;
        }
        if f.rule != "A1" {
            let covered = allow::covers(allows, f.rule, f.line)
                || f.covered_by
                    .is_some_and(|r| allow::covers(allows, r, f.line));
            if covered {
                continue;
            }
        }
        let severity = config.severity(f.rule);
        if severity == Severity::Allow {
            continue;
        }
        out.push(Diagnostic {
            rule: f.rule,
            severity,
            path: rel.to_owned(),
            line: f.line,
            col: f.col,
            len: f.len,
            message: f.message,
            help: f.help,
            notes: f.notes,
            source_line: lines
                .get(f.line as usize - 1)
                .map_or(String::new(), |s| (*s).to_owned()),
        });
    }
    // Unused allows: stale escape hatches rot into misdocumentation.
    for a in allows.iter().filter(|a| !a.used) {
        let severity = config.severity("U1");
        if severity == Severity::Allow {
            continue;
        }
        out.push(Diagnostic {
            rule: "U1",
            severity,
            path: rel.to_owned(),
            line: a.comment_line,
            col: 1,
            len: MARKER_LEN,
            message: format!(
                "unused allow({}) — nothing on its target line triggers the rule",
                a.rules.join(", ")
            ),
            help: "remove the stale annotation".to_owned(),
            notes: Vec::new(),
            source_line: lines
                .get(a.comment_line as usize - 1)
                .map_or(String::new(), |s| (*s).to_owned()),
        });
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

const MARKER_LEN: usize = "chromata-lint:".len();

/// D1: `HashMap`/`HashSet` on the verdict path. Hash iteration order is
/// seeded per process (`RandomState`) or, even with a fixed hasher,
/// depends on insertion/capacity history — either way it is not part of
/// the task's semantics, and the reproducibility contract
/// (`tests/golden/batch_digests.txt`) requires byte-identical verdicts
/// and traces across runs and thread counts.
fn rule_d1(code: &[&Tok], role: Role, findings: &mut Vec<Finding>) {
    if !role.verdict_path {
        return;
    }
    for t in code {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            findings.push(Finding::new(
                "D1",
                t.line,
                t.col,
                t.text.chars().count(),
                format!(
                    "`{}` in a verdict-path crate: iteration order is not \
                     deterministic task semantics",
                    t.text
                ),
                "use BTreeMap/BTreeSet or sort before iterating; if the \
                 container is never iterated (or the order provably cannot \
                 escape), annotate `// chromata-lint: allow(D1): <why>`"
                    .to_owned(),
            ));
        }
    }
}

/// The `std::env` functions that read the process environment.
const ENV_FNS: &[&str] = &[
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "temp_dir",
    "home_dir",
];

/// The shared D2/D5 predicate: whether the identifier at `code[i]` is a
/// clock or environment read, *including through a `use ... as` alias*
/// (`use std::time::Instant as Clock; Clock::now()`). Returns a short
/// description of the read, or `None`.
pub(crate) fn clock_env_what(code: &[&Tok], i: usize, syms: &FileSymbols) -> Option<String> {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "SystemTime" => return Some("`SystemTime`".to_owned()),
        // `Instant::now` only: passing an `Instant` value around
        // (e.g. `Budget.deadline`) is pure.
        "Instant" => {
            return path_call(code, i, &["now"]).then(|| "`Instant::now()`".to_owned());
        }
        // `std::env::...` / `env::var(...)`: any read of the process
        // environment.
        "env" => {
            return path_call(code, i, ENV_FNS).then(|| "process-environment read".to_owned());
        }
        _ => {}
    }
    // Alias resolution: the token itself looks innocent, but the `use`
    // table says it names a clock or environment item. The alias's own
    // declaration line is skipped — the rules police uses, not imports.
    let target = syms.alias_target(&t.text, t.line)?;
    if target == "std::time::Instant" || target == "time::Instant" {
        return path_call(code, i, &["now"])
            .then(|| format!("`{}::now()` (aliasing `std::time::Instant`)", t.text));
    }
    if target == "std::time::SystemTime" || target == "time::SystemTime" {
        return Some(format!("`{}` (aliasing `std::time::SystemTime`)", t.text));
    }
    if target == "std::env" {
        return path_call(code, i, ENV_FNS)
            .then(|| "process-environment read (via an aliased `std::env`)".to_owned());
    }
    if let Some(f) = target.strip_prefix("std::env::") {
        if ENV_FNS.contains(&f) && code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            return Some(format!("`{}()` (aliasing `std::env::{f}`)", t.text));
        }
    }
    None
}

/// D2: wall-clock and environment reads outside the governance module.
/// A pure decision procedure may consult its *budget* (which `govern.rs`
/// derives from the clock), never the clock itself — otherwise verdicts
/// and traces can differ between runs that should be byte-identical.
fn rule_d2(code: &[&Tok], syms: &FileSymbols, role: Role, findings: &mut Vec<Finding>) {
    if role.clock_exempt {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if let Some(what) = clock_env_what(code, i, syms) {
            findings.push(Finding::new(
                "D2",
                t.line,
                t.col,
                t.text.chars().count(),
                format!(
                    "{what} outside `govern.rs`/`cli/src/chaos.rs`: pure \
                     decision code must not observe the clock or the \
                     environment"
                ),
                "route the read through `chromata_topology::govern` (budgets, \
                 deadlines, stopwatches) or annotate \
                 `// chromata-lint: allow(D2): <why>`"
                    .to_owned(),
            ));
        }
    }
}

/// D3: filesystem access in verdict-path crates outside the durable
/// persistence module. Snapshot I/O is confined to
/// `core/src/stages/persist.rs`, where every failure mode is classified
/// and recovered (PR 5); a file read or write anywhere else on the
/// verdict path would let on-disk state influence a verdict without
/// passing through that corruption-tolerant layer.
fn rule_d3(code: &[&Tok], role: Role, findings: &mut Vec<Finding>) {
    if !role.verdict_path || role.fs_exempt {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            // `fs::read(..)` / `std::fs::write(..)`: any call through the
            // filesystem module. Naming a type (`fs::File` in a `use` or
            // a signature) is not itself an access.
            "fs" => {
                if any_path_call(code, i) {
                    Some("`std::fs` call")
                } else {
                    None
                }
            }
            "File" => {
                if path_call(code, i, &["open", "create", "create_new", "options"]) {
                    Some("`File` constructor")
                } else {
                    None
                }
            }
            "OpenOptions" => {
                if path_call(code, i, &["new"]) {
                    Some("`OpenOptions` builder")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = flagged {
            findings.push(Finding::new(
                "D3",
                t.line,
                t.col,
                t.text.chars().count(),
                format!(
                    "{what} in a verdict-path crate outside `stages/persist.rs`: \
                     durable state must pass through the corruption-tolerant \
                     persistence layer"
                ),
                "route snapshot I/O through `core::stages::persist` (checksummed, \
                 atomically renamed, recovery-classified) or annotate \
                 `// chromata-lint: allow(D3): <why>`"
                    .to_owned(),
            ));
        }
    }
}

/// D4: socket construction outside the verdict-service modules. Network
/// I/O — like clocks (D2) and the filesystem (D3) — is a nondeterminism
/// source the decision pipeline must never observe directly. The
/// sanctioned homes are `crates/cli/src/serve.rs` (every request framed,
/// budgeted, and admission-controlled before it can reach
/// `analyze_governed`) and `crates/cli/src/chaos.rs` (the fault campaign
/// abuses sockets on purpose). Naming a socket type (in a signature or a
/// `use`) is fine; *constructing* one (`bind`, `connect`, …) is the
/// access.
fn rule_d4(code: &[&Tok], role: Role, findings: &mut Vec<Finding>) {
    if role.net_exempt {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !SOCKET_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        if path_call(code, i, SOCKET_CONSTRUCTORS) {
            findings.push(Finding::new(
                "D4",
                t.line,
                t.col,
                t.text.chars().count(),
                format!(
                    "`{}` constructor outside `cli/src/serve.rs`/`cli/src/chaos.rs`: \
                     sockets are confined to the verdict-service modules",
                    t.text
                ),
                "route network I/O through `chromata_cli::serve` (framed, \
                 budgeted, admission-controlled) or annotate \
                 `// chromata-lint: allow(D4): <why>`"
                    .to_owned(),
            ));
        }
    }
}

/// The socket types whose construction D4 confines (also the L2 pass's
/// socket-I/O vocabulary).
pub(crate) const SOCKET_TYPES: &[&str] = &[
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "UnixListener",
    "UnixStream",
    "UnixDatagram",
];

/// The associated functions that actually construct a socket.
pub(crate) const SOCKET_CONSTRUCTORS: &[&str] =
    &["bind", "connect", "connect_timeout", "pair", "unbound"];

/// Whether `code[i]` is followed by `:: <ident> (` — a call through the
/// module or type at `i` (the trailing paren distinguishes a call from a
/// path segment in a `use` item or type position).
pub(crate) fn any_path_call(code: &[&Tok], i: usize) -> bool {
    let Some(c1) = code.get(i + 1) else {
        return false;
    };
    let Some(c2) = code.get(i + 2) else {
        return false;
    };
    let Some(callee) = code.get(i + 3) else {
        return false;
    };
    let Some(paren) = code.get(i + 4) else {
        return false;
    };
    c1.is_punct(':') && c2.is_punct(':') && callee.kind == TokKind::Ident && paren.is_punct('(')
}

/// Whether `code[i]` is followed by `:: <one of names> (`.
pub(crate) fn path_call(code: &[&Tok], i: usize, names: &[&str]) -> bool {
    let Some(c1) = code.get(i + 1) else {
        return false;
    };
    let Some(c2) = code.get(i + 2) else {
        return false;
    };
    let Some(callee) = code.get(i + 3) else {
        return false;
    };
    c1.is_punct(':')
        && c2.is_punct(':')
        && callee.kind == TokKind::Ident
        && names.contains(&callee.text.as_str())
}

/// P1: panicking constructs in library crates. The degradation ladder
/// (PR 2) exists so that exhaustion and invalid input surface as
/// `ExploreError` / `Verdict::Unknown`; an `unwrap()` reachable from
/// `decide`/`explore` re-opens the abort path it closed.
fn rule_p1(code: &[&Tok], role: Role, findings: &mut Vec<Finding>) {
    if !role.library {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        let finding = if let Some(name) = unwrap_like(code, i) {
            Some((
                format!("`.{name}()` in library code can panic"),
                "return a structured error (`ExploreError`, `TaskError`) or \
                 degrade to `Verdict::Unknown`; for invariant-guarded uses \
                 annotate `// chromata-lint: allow(P1): <invariant>`",
            ))
        } else {
            panic_macro(code, i).map(|name| {
                (
                    format!("`{name}!` in library code aborts the caller"),
                    "convert to a structured error; if the branch is provably \
                     dead, annotate `// chromata-lint: allow(P1): <proof sketch>`",
                )
            })
        };
        if let Some((message, help)) = finding {
            findings.push(Finding::new(
                "P1",
                t.line,
                t.col,
                t.text.chars().count(),
                message,
                help.to_owned(),
            ));
        }
    }
}

/// Whether `code[i]` is an `.unwrap()` / `.expect(..)` method call;
/// returns the method name. Shared by rule P1 and the P3 site extractor.
pub(crate) fn unwrap_like(code: &[&Tok], i: usize) -> Option<&'static str> {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let name: &'static str = match t.text.as_str() {
        "unwrap" => "unwrap",
        "expect" => "expect",
        _ => return None,
    };
    let method_call =
        i > 0 && code[i - 1].is_punct('.') && code.get(i + 1).is_some_and(|n| n.is_punct('('));
    method_call.then_some(name)
}

/// Whether `code[i]` is a panic-family macro invocation; returns the
/// macro name. Shared by rule P1 and the P3 site extractor.
pub(crate) fn panic_macro(code: &[&Tok], i: usize) -> Option<&'static str> {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let name: &'static str = match t.text.as_str() {
        "panic" => "panic",
        "unreachable" => "unreachable",
        "todo" => "todo",
        "unimplemented" => "unimplemented",
        _ => return None,
    };
    code.get(i + 1)
        .is_some_and(|n| n.is_punct('!'))
        .then_some(name)
}

/// P2 (advisory): `expr[...]` indexing in library crates. Indexing
/// panics on out-of-bounds; simplicial code has many structural length
/// invariants, so this stays a warning rather than a denial.
fn rule_p2(code: &[&Tok], role: Role, findings: &mut Vec<Finding>) {
    if !role.library {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if is_index_site(code, i) {
            findings.push(Finding::new(
                "P2",
                t.line,
                t.col,
                1,
                "indexing can panic on out-of-bounds".to_owned(),
                "prefer `.get(..)` with structured handling, or annotate \
                 `// chromata-lint: allow(P2): <length invariant>`"
                    .to_owned(),
            ));
        }
    }
}

/// Whether `code[i]` is a `[` opening an index expression (vs a slice
/// type, an attribute, an array literal). Shared by rule P2 and the P3
/// site extractor.
pub(crate) fn is_index_site(code: &[&Tok], i: usize) -> bool {
    if !code[i].is_punct('[') || i == 0 {
        return false;
    }
    let prev = code[i - 1];
    match prev.kind {
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            "as" | "break"
                | "const"
                | "continue"
                | "crate"
                | "dyn"
                | "else"
                | "enum"
                | "extern"
                | "fn"
                | "for"
                | "if"
                | "impl"
                | "in"
                | "let"
                | "loop"
                | "match"
                | "mod"
                | "move"
                | "mut"
                | "pub"
                | "ref"
                | "return"
                | "static"
                | "struct"
                | "trait"
                | "type"
                | "unsafe"
                | "use"
                | "where"
                | "while"
        ),
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        _ => false,
    }
}

/// L1: `.lock().unwrap()` / `.lock().expect(..)`. A panicking worker
/// must not cascade: every lock acquisition outside the poison-recovery
/// module either recovers (`unwrap_or_else(PoisonError::into_inner)`
/// plus invariant validation) or propagates a structured error.
fn rule_l1(code: &[&Tok], role: Role, findings: &mut Vec<Finding>) {
    if role.lock_exempt {
        return;
    }
    // Pattern: . lock ( ) . unwrap|expect (
    for (i, t) in code.iter().enumerate() {
        if !(t.is_ident("lock") && i > 0 && code[i - 1].is_punct('.')) {
            continue;
        }
        let rest = &code[i + 1..];
        if rest.len() >= 4
            && rest[0].is_punct('(')
            && rest[1].is_punct(')')
            && rest[2].is_punct('.')
            && rest[3].kind == TokKind::Ident
            && (rest[3].text == "unwrap" || rest[3].text == "expect")
        {
            findings.push(Finding::new(
                "L1",
                t.line,
                t.col,
                "lock".len(),
                "`.lock().unwrap()` turns one panicked worker into a \
                 process-wide cascade"
                    .to_owned(),
                "recover with `unwrap_or_else(PoisonError::into_inner)` plus \
                 invariant re-validation (see `core::pipeline::lock_cache`), \
                 or annotate `// chromata-lint: allow(L1): <why poisoning is \
                 impossible here>`"
                    .to_owned(),
            ));
        }
    }
}
