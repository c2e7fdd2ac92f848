//! `chromata-xtask`: workspace-aware static analysis for the chromata
//! decision pipeline.
//!
//! The pipeline's contract is that verdicts are *reproducible*: the same
//! task yields the same `Verdict`, the same subdivision and
//! byte-identical traces on every run and at every thread count. That
//! property is defended dynamically by goldens
//! (`tests/golden/batch_digests.txt`, `tests/batch_parity.rs`) and
//! statically by this tool: `cargo xtask lint` parses every workspace
//! source file (with a purpose-built lexer — the workspace builds
//! offline, so `syn` is not available) and enforces determinism,
//! panic-freedom and concurrency-hygiene rules with rustc-style
//! diagnostics; `cargo xtask deny` covers the supply chain (licenses,
//! duplicate dependencies, an offline advisory snapshot).
//!
//! Two analysis layers run over the same token stream:
//!
//! 1. the **local** token-pattern rules (D1–D4, P1/P2, L1, A1/U1),
//!    one file at a time;
//! 2. the **interprocedural** passes (P3 panic-reachability, D5
//!    determinism taint, L2 lock-order), which parse every file into a
//!    symbol table (`symbols.rs`), link a workspace call graph
//!    (`callgraph.rs`) and chase reachability through it (`passes.rs`).
//!
//! `cargo xtask graph [--dot]` dumps the call graph; `--format json`
//! emits the diagnostics as a stable machine-readable document. See
//! `DESIGN.md` §9 for the rule table and the escape-hatch policy.

pub mod allow;
pub mod callgraph;
pub mod deny;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod symbols;
pub mod toml_lite;
pub mod workspace;

use std::path::Path;

use lexer::Tok;

pub use diag::{Diagnostic, Report, Severity};
pub use rules::{role_for, Config, Role};

/// One source file handed to the engine.
pub struct SourceFile {
    /// Workspace-relative path (used for role classification and in
    /// diagnostics).
    pub rel: String,
    /// Full source text.
    pub src: String,
}

/// Lints a set of source files with both analysis layers: the local
/// token rules per file, then the interprocedural passes over the call
/// graph linked across *exactly these files*. Files whose path has no
/// lint role (vendored code, fixtures, the xtask tool itself) are
/// skipped.
#[must_use]
pub fn lint_sources(files: &[SourceFile], config: &Config) -> Report {
    // Per-file preparation. Parallel vectors keep the borrows simple:
    // `codes` borrows `tokens_v` immutably while `allows_v` stays
    // independently mutable for the allow-usage bookkeeping.
    let mut rels: Vec<&str> = Vec::new();
    let mut srcs: Vec<&str> = Vec::new();
    let mut roles: Vec<Role> = Vec::new();
    let mut tokens_v: Vec<Vec<Tok>> = Vec::new();
    for f in files {
        let Some(role) = rules::role_for(&f.rel) else {
            continue;
        };
        rels.push(&f.rel);
        srcs.push(&f.src);
        roles.push(role);
        tokens_v.push(lexer::lex(&f.src));
    }
    let test_regions_v: Vec<Vec<(u32, u32)>> =
        tokens_v.iter().map(|t| lexer::test_regions(t)).collect();
    let mut allows_v = Vec::new();
    let mut allow_errors_v = Vec::new();
    for t in &tokens_v {
        let (a, e) = allow::collect(t);
        allows_v.push(a);
        allow_errors_v.push(e);
    }
    let codes: Vec<Vec<&Tok>> = tokens_v
        .iter()
        .map(|t| t.iter().filter(|x| !x.is_comment()).collect())
        .collect();
    let symbols_v: Vec<symbols::FileSymbols> = codes.iter().map(|c| symbols::parse(c)).collect();

    // Local rules.
    let mut findings_v: Vec<Vec<rules::Finding>> = Vec::new();
    for i in 0..rels.len() {
        let mut findings = rules::a1_findings(&allow_errors_v[i]);
        rules::local_rules(&codes[i], &symbols_v[i], roles[i], &mut findings);
        findings_v.push(findings);
    }

    // Interprocedural passes over the linked call graph.
    let views: Vec<callgraph::FileView<'_>> = (0..rels.len())
        .map(|i| callgraph::FileView {
            rel: rels[i],
            code: &codes[i],
            symbols: &symbols_v[i],
            test_regions: &test_regions_v[i],
        })
        .collect();
    let io = callgraph::io_catalog(&views);
    let graph = callgraph::build(&views, &io);
    drop(views);
    let infos: Vec<passes::FileInfo> = (0..rels.len())
        .map(|i| passes::FileInfo {
            rel: rels[i].to_owned(),
            role: roles[i],
        })
        .collect();
    for (file_idx, finding) in passes::run(&graph, &infos) {
        findings_v[file_idx].push(finding);
    }

    // Filtering and rendering, per file (U1 must see every pass's
    // allow-usage marks, so this runs last).
    let mut report = Report {
        files_scanned: rels.len(),
        ..Report::default()
    };
    for (i, findings) in findings_v.into_iter().enumerate() {
        report.diagnostics.extend(rules::finalize(
            rels[i],
            srcs[i],
            findings,
            &test_regions_v[i],
            &mut allows_v[i],
            config,
        ));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
}

/// Reads the files named by `rels` under `root` into [`SourceFile`]s,
/// keeping only those with a lint role.
fn read_sources(root: &Path, rels: &[String]) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for rel in rels {
        if rules::role_for(rel).is_none() {
            continue;
        }
        files.push(SourceFile {
            rel: rel.clone(),
            src: std::fs::read_to_string(root.join(rel))?,
        });
    }
    Ok(files)
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns an I/O error if the source tree cannot be walked or read.
pub fn lint_workspace(root: &Path, config: &Config) -> std::io::Result<Report> {
    let rels = workspace::lintable_files(root)?;
    Ok(lint_sources(&read_sources(root, &rels)?, config))
}

/// Builds the workspace call graph and renders it for `cargo xtask
/// graph` (sorted `caller -> callee` lines, or Graphviz DOT).
///
/// # Errors
///
/// Returns an I/O error if the source tree cannot be walked or read.
pub fn graph_workspace(root: &Path, dot: bool) -> std::io::Result<String> {
    let rels = workspace::lintable_files(root)?;
    let files = read_sources(root, &rels)?;
    let mut tokens_v: Vec<Vec<Tok>> = Vec::new();
    for f in &files {
        tokens_v.push(lexer::lex(&f.src));
    }
    let test_regions_v: Vec<Vec<(u32, u32)>> =
        tokens_v.iter().map(|t| lexer::test_regions(t)).collect();
    let codes: Vec<Vec<&Tok>> = tokens_v
        .iter()
        .map(|t| t.iter().filter(|x| !x.is_comment()).collect())
        .collect();
    let symbols_v: Vec<symbols::FileSymbols> = codes.iter().map(|c| symbols::parse(c)).collect();
    let views: Vec<callgraph::FileView<'_>> = (0..files.len())
        .map(|i| callgraph::FileView {
            rel: &files[i].rel,
            code: &codes[i],
            symbols: &symbols_v[i],
            test_regions: &test_regions_v[i],
        })
        .collect();
    let io = callgraph::io_catalog(&views);
    let graph = callgraph::build(&views, &io);
    let rel_names: Vec<String> = files.iter().map(|f| f.rel.clone()).collect();
    Ok(callgraph::dump(&graph, &rel_names, dot))
}
