//! Fixture regressions for the interprocedural layer: the symbol table,
//! the call graph, and the P3/D5/L2 passes that run over it.
//!
//! Fixtures use the same `//~ RULE` trailing markers as the local-rule
//! suite, but are linted through [`lint_sources`] under a crafted
//! workspace-relative path so they pick up the role (and, for L2, the
//! scope-file suffix) of the subsystem they stand in for.

use chromata_xtask::diag::Severity;
use chromata_xtask::{lint_sources, Config, Diagnostic, SourceFile};

/// `(line, rule)` pairs declared by `//~` markers, sorted.
fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(at) = line.find("//~") {
            for rule in line[at + 3..].split_whitespace() {
                out.push((i as u32 + 1, rule.to_owned()));
            }
        }
    }
    out.sort();
    out
}

/// Lints one fixture under `rel` with both layers and asserts its
/// diagnostics match the markers exactly.
fn check(rel: &str, src: &str, config: &Config) -> Vec<Diagnostic> {
    let files = vec![SourceFile {
        rel: rel.to_owned(),
        src: src.to_owned(),
    }];
    let report = lint_sources(&files, config);
    let mut actual: Vec<(u32, String)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule.to_owned()))
        .collect();
    actual.sort();
    assert_eq!(actual, expected_markers(src), "fixture {rel}");
    report.diagnostics
}

#[test]
fn p3_panic_reachability_fixture() {
    let src = include_str!("../fixtures/p3_chain.rs");
    let diags = check("crates/core/src/p3_chain.rs", src, &Config::default());
    // The chain note walks the shortest path from the public root to
    // the panic site: solve -> descend -> classify -> finish.
    let p3 = diags
        .iter()
        .find(|d| d.rule == "P3" && d.message.contains("unwrap"))
        .expect("P3 unwrap finding");
    let note = &p3.notes[0];
    for hop in ["`solve`", "`descend`", "`classify`", "`finish`"] {
        assert!(note.contains(hop), "{note}");
    }
    // The indexing flavour names the other public root and is advisory
    // per-site (P2) but an error as a chain (P3).
    let p3_index = diags
        .iter()
        .find(|d| d.rule == "P3" && d.message.contains("indexing"))
        .expect("P3 indexing finding");
    assert!(
        p3_index.notes[0].contains("`lookup`"),
        "{:?}",
        p3_index.notes
    );
    assert_eq!(p3_index.severity, Severity::Deny);
    // Outside a verdict-path crate the same file raises no P3 at all.
    let other = lint_sources(
        &[SourceFile {
            rel: "crates/cli/src/p3_chain.rs".to_owned(),
            src: src.to_owned(),
        }],
        &Config::default(),
    );
    assert!(
        other.diagnostics.iter().all(|d| d.rule != "P3"),
        "{:?}",
        other.diagnostics
    );
}

#[test]
fn d5_determinism_taint_fixture() {
    let src = include_str!("../fixtures/d5_taint.rs");
    let diags = check("crates/runtime/src/d5_taint.rs", src, &Config::default());
    // Each taint flavour is present and chained to the digest root.
    for source in ["Clock", "thread_rng", "Table"] {
        let d = diags
            .iter()
            .find(|d| d.rule == "D5" && d.message.contains(source))
            .unwrap_or_else(|| panic!("no D5 finding for {source}"));
        assert!(
            d.notes[0].contains("`deterministic_digest`"),
            "{:?}",
            d.notes
        );
        assert!(
            d.message.contains("reachable from determinism root"),
            "{}",
            d.message
        );
    }
}

#[test]
fn d5_fires_from_stage_run_roots() {
    // A stage's `run()` under `crates/core/src/stages/` is a digest
    // root even though it is not named `deterministic_digest`.
    let src = "\
use std::time::Instant as Clock;
pub struct S;
impl S {
    pub fn run(&self) -> u64 {
        sample()
    }
}
fn sample() -> u64 {
    let t = Clock::now();
    drop(t);
    0
}
";
    let files = vec![SourceFile {
        rel: "crates/core/src/stages/probe.rs".to_owned(),
        src: src.to_owned(),
    }];
    let report = lint_sources(&files, &Config::default());
    let d5 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "D5")
        .expect("D5 fires from run()");
    assert!(d5.notes[0].contains("`S::run`"), "{:?}", d5.notes);
}

#[test]
fn l2_lock_order_fixture() {
    let src = include_str!("../fixtures/l2_locks.rs");
    let diags = check("crates/fixture/src/serve.rs", src, &Config::default());
    let cycle = diags
        .iter()
        .find(|d| d.message.contains("cycle"))
        .expect("cycle finding");
    assert!(
        cycle.message.contains("`alpha`") && cycle.message.contains("`beta`"),
        "{}",
        cycle.message
    );
    // Both directions of the cycle are cited.
    assert_eq!(cycle.notes.len(), 2, "{:?}", cycle.notes);
    let held = diags
        .iter()
        .find(|d| d.message.contains("held across"))
        .expect("held-across-I/O finding");
    assert!(held.message.contains("`write_tmp(..)`"), "{}", held.message);
    // The same file outside the L2 scope list raises nothing: the pass
    // only analyzes the concurrency-bearing modules.
    let other = lint_sources(
        &[SourceFile {
            rel: "crates/fixture/src/quiet.rs".to_owned(),
            src: src.to_owned(),
        }],
        &Config::default(),
    );
    assert!(
        other.diagnostics.iter().all(|d| d.rule != "L2"),
        "{:?}",
        other.diagnostics
    );
}

#[test]
fn symbol_table_scopes_nested_items() {
    let src = include_str!("../fixtures/symbols_scoping.rs");
    let tokens = chromata_xtask::lexer::lex(src);
    let code: Vec<&chromata_xtask::lexer::Tok> =
        tokens.iter().filter(|t| !t.is_comment()).collect();
    let syms = chromata_xtask::symbols::parse(&code);
    let fn_named = |n: &str| {
        syms.fns
            .iter()
            .find(|f| f.name == n)
            .unwrap_or_else(|| panic!("fn {n}"))
    };
    // Inherent impl method: qualified by its container type.
    let build = fn_named("build");
    assert_eq!(build.qual, "Widget::build");
    assert_eq!(build.container.as_deref(), Some("Widget"));
    // A nested fn sits inside its parent's body, is not public, and is
    // qualified by the module chain (its parent fn is not a container).
    let helper = fn_named("helper");
    assert_eq!(helper.qual, "outer::helper");
    assert!(!helper.is_pub);
    let (bs, be) = build.body.expect("build body");
    let (hs, he) = helper.body.expect("helper body");
    assert!(bs < hs && he <= be, "helper nests in build");
    // Trait decl methods: the defaulted one has a body, the required
    // one does not; both are listed under the trait.
    let render_trait = syms
        .traits
        .iter()
        .find(|t| t.name == "Render")
        .expect("trait Render");
    assert_eq!(render_trait.methods, vec!["render", "tag"]);
    assert!(fn_named("tag").body.is_some());
    // The required trait method is recorded bodyless under the trait;
    // the trait-for-type impl's copy is qualified by the *type*.
    let renders: Vec<_> = syms.fns.iter().filter(|f| f.name == "render").collect();
    assert_eq!(renders.len(), 2);
    assert_eq!(renders[0].qual, "Render::render");
    assert!(renders[0].body.is_none());
    assert_eq!(renders[1].qual, "Widget::render");
    assert!(renders[1].body.is_some());
    // `-> impl Render` does not open an impl scope: `make` stays at
    // module level, and the deeper module chain is tracked.
    assert_eq!(fn_named("make").qual, "outer::make");
    assert_eq!(fn_named("leaf").qual, "outer::inner::leaf");
}

/// A seeded interprocedural violation must fail a `-D all` run, proving
/// the new rules are *primary* (CI's static-analysis job relies on it).
#[test]
fn p3_is_primary_under_deny_all() {
    let src = "\
pub fn api() -> u32 {
    helper()
}
fn helper() -> u32 {
    inner()
}
fn inner() -> u32 {
    std::process::id().checked_mul(2).unwrap()
}
";
    let report = lint_sources(
        &[SourceFile {
            rel: "crates/topology/src/seeded.rs".to_owned(),
            src: src.to_owned(),
        }],
        &Config::deny_all(),
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "P3" && d.severity == Severity::Deny),
        "{:?}",
        report.diagnostics
    );
    assert!(report.failed());
}

/// One rendered diagnostic per interprocedural rule is pinned
/// byte-for-byte, chain note included — the P3 one with a three-hop
/// chain below the public root.
#[test]
fn rendered_interprocedural_diagnostics() {
    let p3 = check_one(
        "crates/core/src/p3_chain.rs",
        include_str!("../fixtures/p3_chain.rs"),
        |d| d.rule == "P3" && d.message.contains("unwrap"),
    );
    assert_eq!(
        p3,
        "\
error[P3]: `.unwrap()` reachable from public verdict-path API `solve`
  --> crates/core/src/p3_chain.rs:19:22
   |
19 |     n.checked_mul(2).unwrap() //~ P1 P3
   |                      ^^^^^^
   = note: call chain: `solve` (crates/core/src/p3_chain.rs:6) -> `descend` (crates/core/src/p3_chain.rs:10) -> `classify` (crates/core/src/p3_chain.rs:14) -> `finish` (crates/core/src/p3_chain.rs:18)
   = help: break the chain with a structured error along the path, or annotate the site `// chromata-lint: allow(P3): <why this site cannot fire>`
"
    );
    let d5 = check_one(
        "crates/runtime/src/d5_taint.rs",
        include_str!("../fixtures/d5_taint.rs"),
        |d| d.rule == "D5" && d.message.contains("Clock"),
    );
    assert_eq!(
        d5,
        "\
error[D5]: `Clock::now()` (aliasing `std::time::Instant`) reachable from determinism root `deterministic_digest`: digests and verdicts must not observe nondeterministic state
  --> crates/runtime/src/d5_taint.rs:18:13
   |
18 |     let t = Clock::now(); //~ D2 D5
   |             ^^^^^
   = note: call chain: `deterministic_digest` (crates/runtime/src/d5_taint.rs:9) -> `mix` (crates/runtime/src/d5_taint.rs:13) -> `salt` (crates/runtime/src/d5_taint.rs:17)
   = help: hoist the nondeterminism out of the digest path (`govern.rs` is the sanctioned clock boundary) or annotate the site `// chromata-lint: allow(D5): <why the value cannot reach a digest>`
"
    );
    let l2 = check_one(
        "crates/fixture/src/serve.rs",
        include_str!("../fixtures/l2_locks.rs"),
        |d| d.rule == "L2" && d.message.contains("cycle"),
    );
    assert_eq!(
        l2,
        "\
error[L2]: lock acquisition-order cycle among `alpha`, `beta`: two threads taking them in opposite order deadlock
  --> crates/fixture/src/serve.rs:27:20
   |
27 |     let b = s.beta.lock().unwrap_or_else(PoisonError::into_inner); //~ L2
   |                    ^^^^
   = note: `beta` acquired at crates/fixture/src/serve.rs:27 while `alpha` (acquired at line 26) is still held, in `forward`
   = note: `alpha` acquired at crates/fixture/src/serve.rs:34 while `beta` (acquired at line 33) is still held, in `backward`
   = help: acquire the locks in one global order everywhere, or annotate the acquisition `// chromata-lint: allow(L2): <why the cycle cannot deadlock>`
"
    );
}

/// Renders the single diagnostic matching `pick` from linting `src`
/// under `rel`.
fn check_one(rel: &str, src: &str, pick: impl Fn(&Diagnostic) -> bool) -> String {
    let report = lint_sources(
        &[SourceFile {
            rel: rel.to_owned(),
            src: src.to_owned(),
        }],
        &Config::default(),
    );
    let matches: Vec<&Diagnostic> = report.diagnostics.iter().filter(|d| pick(d)).collect();
    assert_eq!(matches.len(), 1, "{matches:?}");
    matches[0].to_string()
}

/// A workspace function holding a D5 source, sharing its name with a
/// private helper elsewhere.
const RUNTIME_EXPLORE: &str = "\
use std::collections::HashMap;

pub fn explore() -> usize {
    let seen: HashMap<u32, u32> = HashMap::new();
    seen.len()
}
";

/// The D5 findings of linting `caller` as the stage engine's module
/// together with [`RUNTIME_EXPLORE`].
fn d5_with_runtime_explore(caller: &str) -> Vec<Diagnostic> {
    let files = [
        ("crates/core/src/stages/mod.rs", caller),
        ("crates/runtime/src/explore.rs", RUNTIME_EXPLORE),
    ]
    .map(|(rel, src)| SourceFile {
        rel: rel.to_owned(),
        src: src.to_owned(),
    });
    lint_sources(&files, &Config::deny_all())
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == "D5")
        .collect()
}

#[test]
fn a_plain_call_resolves_to_the_callers_own_fn_first() {
    // As in Rust, `explore()` here names this file's private `explore`,
    // not the runtime's: no chain reaches the runtime's `HashMap`.
    let caller = "\
pub fn analyze_governed() -> usize {
    explore()
}

fn explore() -> usize {
    0
}
";
    let d5 = d5_with_runtime_explore(caller);
    assert!(d5.is_empty(), "{d5:?}");
}

#[test]
fn a_plain_call_without_a_local_fn_still_reaches_every_namesake() {
    let caller = "\
pub fn analyze_governed() -> usize {
    explore()
}
";
    let d5 = d5_with_runtime_explore(caller);
    assert!(
        d5.iter().any(|d| d.message.contains("HashMap")
            && d.notes[0].contains("`analyze_governed`")
            && d.notes[0].contains("`explore`")),
        "{d5:?}"
    );
}
