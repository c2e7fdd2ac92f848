//! Fixture regression tests: every lint rule is pinned to an exact set
//! of diagnostics on a purpose-built source file.
//!
//! Each fixture under `fixtures/` marks its expected findings with
//! `//~ RULE` trailing comments (one rule id per expected diagnostic on
//! that line, space-separated when a line triggers several). The harness
//! runs `lint_source` and requires the `(line, rule)` multisets to match
//! exactly — a rule that over- or under-fires fails the suite, so rule
//! behaviour cannot drift silently.

use chromata_xtask::diag::Severity;
use chromata_xtask::rules::{lint_source, Config, Role};
use chromata_xtask::Diagnostic;

fn role(verdict_path: bool, library: bool) -> Role {
    Role {
        verdict_path,
        library,
        clock_exempt: false,
        lock_exempt: false,
        fs_exempt: false,
        net_exempt: false,
    }
}

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

/// Lints a fixture and asserts its diagnostics match the markers.
fn check(name: &str, src: &str, role: Role) -> Vec<Diagnostic> {
    let rel = format!("crates/fixture/src/{name}.rs");
    let diags = lint_source(&rel, src, role, &Config::default());
    let mut actual: Vec<(u32, String)> =
        diags.iter().map(|d| (d.line, d.rule.to_owned())).collect();
    actual.sort();
    assert_eq!(actual, expected_markers(src), "fixture {name}");
    diags
}

#[test]
fn d1_hash_iteration_fixture() {
    let diags = check(
        "d1_iteration",
        include_str!("../fixtures/d1_iteration.rs"),
        role(true, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    // The same file outside a verdict-path crate is clean.
    let other = lint_source(
        "crates/fixture/src/d1_iteration.rs",
        include_str!("../fixtures/d1_iteration.rs"),
        role(false, false),
        &Config::default(),
    );
    assert!(other.is_empty(), "{other:?}");
}

#[test]
fn d1_stage_cache_fixture() {
    // The staged verdict engine's cache module is the main in-tree D1
    // surface: justified allows on the sanctioned map+queue shape stay
    // clean, unjustified hash containers still fire, test modules are
    // exempt.
    let diags = check(
        "d1_stages",
        include_str!("../fixtures/d1_stages.rs"),
        role(true, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        diags.iter().any(|d| d.message.contains("HashSet")),
        "{diags:?}"
    );
    // Outside a verdict-path crate D1 never fires — so the justified
    // allows themselves degrade to U1 stale-annotation warnings, and
    // nothing else remains.
    let other = lint_source(
        "crates/fixture/src/d1_stages.rs",
        include_str!("../fixtures/d1_stages.rs"),
        role(false, false),
        &Config::default(),
    );
    assert!(
        other
            .iter()
            .all(|d| d.rule == "U1" && d.severity == Severity::Warn),
        "{other:?}"
    );
    assert_eq!(other.len(), 2, "{other:?}");
}

#[test]
fn d2_clock_and_env_fixture() {
    let diags = check(
        "d2_clock",
        include_str!("../fixtures/d2_clock.rs"),
        role(false, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    // govern.rs is the sanctioned home for these reads: exempt.
    let exempt = Role {
        clock_exempt: true,
        ..role(false, false)
    };
    let none = lint_source(
        "crates/topology/src/govern.rs",
        include_str!("../fixtures/d2_clock.rs"),
        exempt,
        &Config::default(),
    );
    assert!(none.is_empty(), "{none:?}");
}

#[test]
fn d3_fs_confinement_fixture() {
    let diags = check(
        "d3_fs",
        include_str!("../fixtures/d3_fs.rs"),
        role(true, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        diags.iter().any(|d| d.message.contains("`std::fs` call")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`File` constructor")),
        "{diags:?}"
    );
    // The persistence module itself is the sanctioned home: exempt.
    let exempt = Role {
        fs_exempt: true,
        ..role(true, false)
    };
    let none = lint_source(
        "crates/core/src/stages/persist.rs",
        include_str!("../fixtures/d3_fs.rs"),
        exempt,
        &Config::default(),
    );
    assert!(
        none.iter()
            .all(|d| d.rule == "U1" && d.severity == Severity::Warn),
        "{none:?}"
    );
    // Outside a verdict-path crate D3 never fires (the CLI loads task
    // files from disk legitimately); the justified allow degrades to a
    // U1 stale-annotation warning, nothing else remains.
    let other = lint_source(
        "crates/fixture/src/d3_fs.rs",
        include_str!("../fixtures/d3_fs.rs"),
        role(false, false),
        &Config::default(),
    );
    assert!(
        other
            .iter()
            .all(|d| d.rule == "U1" && d.severity == Severity::Warn),
        "{other:?}"
    );
    assert_eq!(other.len(), 1, "{other:?}");
}

#[test]
fn d4_net_confinement_fixture() {
    let diags = check(
        "d4_net",
        include_str!("../fixtures/d4_net.rs"),
        role(false, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`TcpListener` constructor")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`TcpStream` constructor")),
        "{diags:?}"
    );
    // The verdict-service module itself is the sanctioned home: exempt,
    // and its justified allow degrades to a U1 stale-annotation warning.
    let exempt = Role {
        net_exempt: true,
        ..role(false, false)
    };
    let none = lint_source(
        "crates/cli/src/serve.rs",
        include_str!("../fixtures/d4_net.rs"),
        exempt,
        &Config::default(),
    );
    assert!(
        none.iter()
            .all(|d| d.rule == "U1" && d.severity == Severity::Warn),
        "{none:?}"
    );
    assert_eq!(none.len(), 1, "{none:?}");
}

#[test]
fn chaos_exemptions_are_path_exact() {
    use chromata_xtask::role_for;
    // The chaos campaign driver is exempt from clock (D2) and socket
    // (D4) confinement — it times recoveries and abuses real sockets on
    // purpose…
    let driver = role_for("crates/cli/src/chaos.rs").unwrap();
    assert!(driver.clock_exempt && driver.net_exempt);
    // …but the exemption is path-exact: any other chaos-named file, in
    // the verdict engine or elsewhere, stays fully confined.
    let core = role_for("crates/core/src/stages/chaos.rs").unwrap();
    assert!(!core.clock_exempt && !core.net_exempt);
    let src = "pub fn probe() {\n    \
               let _ = std::net::TcpStream::connect(\"127.0.0.1:1\"); //~ D4\n}\n";
    let diags = lint_source(
        "crates/core/src/stages/chaos.rs",
        src,
        core,
        &Config::default(),
    );
    let actual: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(actual, vec![(2, "D4")], "{diags:?}");
    let stray = role_for("crates/task/src/chaos.rs").unwrap();
    assert!(!stray.clock_exempt && !stray.net_exempt);
}

#[test]
fn p1_panic_freedom_fixture() {
    let diags = check(
        "p1_panic_freedom",
        include_str!("../fixtures/p1_panic_freedom.rs"),
        role(false, true),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
}

#[test]
fn p2_indexing_fixture_is_advisory() {
    let diags = check(
        "p2_indexing",
        include_str!("../fixtures/p2_indexing.rs"),
        role(false, true),
    );
    // P2 warns by default *and* stays a warning under `-D all`: `all`
    // covers the primary rules only.
    assert!(diags.iter().all(|d| d.severity == Severity::Warn));
    let under_deny_all = lint_source(
        "crates/fixture/src/p2_indexing.rs",
        include_str!("../fixtures/p2_indexing.rs"),
        role(false, true),
        &Config::deny_all(),
    );
    assert!(under_deny_all.iter().all(|d| d.severity == Severity::Warn));
}

#[test]
fn l1_lock_unwrap_fixture() {
    let diags = check(
        "l1_lock_unwrap",
        include_str!("../fixtures/l1_lock_unwrap.rs"),
        role(false, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    // The poison-recovery module itself is exempt.
    let exempt = Role {
        lock_exempt: true,
        ..role(false, false)
    };
    let none = lint_source(
        "crates/core/src/stages/cache.rs",
        include_str!("../fixtures/l1_lock_unwrap.rs"),
        exempt,
        &Config::default(),
    );
    assert!(none.is_empty(), "{none:?}");
}

#[test]
fn allow_without_justification_is_itself_an_error() {
    let diags = check(
        "a1_allow_grammar",
        include_str!("../fixtures/a1_allow_grammar.rs"),
        role(false, false),
    );
    // A1 denies by default: a bare `allow(D1)` fails the run rather than
    // silencing anything.
    assert!(diags
        .iter()
        .all(|d| d.rule == "A1" && d.severity == Severity::Deny));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("without a justification")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("unknown rule `Z9`")));
}

#[test]
fn unused_allow_warns() {
    let diags = check(
        "u1_unused_allow",
        include_str!("../fixtures/u1_unused_allow.rs"),
        role(true, false),
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warn);
    assert!(diags[0].message.contains("unused allow(D1)"));
}

#[test]
fn justified_allows_suppress_their_target_lines() {
    // No markers in this fixture: it must lint perfectly clean, with no
    // finding AND no unused-allow residue.
    check(
        "allow_suppression",
        include_str!("../fixtures/allow_suppression.rs"),
        role(true, true),
    );
}

/// The CI `static-analysis` job runs `cargo xtask lint -D all`; a seeded
/// violation must fail that run (non-zero exit via `Report::failed`).
#[test]
fn seeded_violation_fails_a_deny_all_run() {
    let diags = lint_source(
        "crates/fixture/src/seeded.rs",
        "use std::collections::HashMap;\n",
        role(true, false),
        &Config::deny_all(),
    );
    let report = chromata_xtask::Report {
        diagnostics: diags,
        files_scanned: 1,
    };
    assert_eq!(report.errors(), 1);
    assert!(report.failed());
}

/// One representative diagnostic is pinned byte-for-byte: rustc-style
/// header, `file:line:col` arrow, source excerpt with carets, and the
/// actionable help line naming the escape hatch.
#[test]
fn rendered_diagnostic_is_rustc_style() {
    let src = "use std::collections::HashMap;\n";
    let diags = lint_source(
        "crates/topology/src/seeded.rs",
        src,
        role(true, false),
        &Config::default(),
    );
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    let expected = "\
error[D1]: `HashMap` in a verdict-path crate: iteration order is not deterministic task semantics
  --> crates/topology/src/seeded.rs:1:23
  |
1 | use std::collections::HashMap;
  |                       ^^^^^^^
  = help: use BTreeMap/BTreeSet or sort before iterating; if the container is never iterated (or the order provably cannot escape), annotate `// chromata-lint: allow(D1): <why>`
";
    assert_eq!(rendered, expected);
}

/// Regression for the alias evasion gap: `use std::time::Instant as
/// Clock;` used to hide the clock read from D2's token patterns. The
/// symbol table's alias map closes it.
#[test]
fn d2_alias_evasion_fixture() {
    let diags = check(
        "d2_alias",
        include_str!("../fixtures/d2_alias.rs"),
        role(false, false),
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        diags.iter().any(|d| d
            .message
            .contains("`Clock::now()` (aliasing `std::time::Instant`)")),
        "{diags:?}"
    );
    // govern.rs remains the sanctioned boundary, alias or not.
    let exempt = Role {
        clock_exempt: true,
        ..role(false, false)
    };
    let none = lint_source(
        "crates/topology/src/govern.rs",
        include_str!("../fixtures/d2_alias.rs"),
        exempt,
        &Config::default(),
    );
    assert!(none.is_empty(), "{none:?}");
}
