//! The contracts of the `cargo xtask` commands that CI relies on: the
//! workspace lints clean under `-D all`, the JSON report keeps its
//! documented shape, and `graph` and `lint` end quietly when their
//! reader closes the pipe early (`cargo xtask graph | head`).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use chromata_xtask::{lint_sources, lint_workspace, workspace, Config, SourceFile};

fn root() -> PathBuf {
    workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("a workspace root")
}

#[test]
fn the_workspace_lints_clean_under_deny_all() {
    let report = lint_workspace(&root(), &Config::deny_all()).expect("the tree reads");
    assert!(!report.failed(), "workspace must lint clean: {report}");
}

#[test]
fn a_clean_file_reports_zero_errors_in_both_formats() {
    let rel = "crates/topology/src/govern.rs";
    let src = std::fs::read_to_string(root().join(rel)).expect("read");
    let report = lint_sources(
        &[SourceFile {
            rel: rel.to_owned(),
            src,
        }],
        &Config::deny_all(),
    );
    let human = report.to_string();
    assert!(human.contains("1 file(s) scanned: 0 error(s)"), "{human}");
    // The machine format carries the same verdict and is a flat JSON
    // object with the documented top-level keys.
    let json = report.to_json();
    assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
    assert!(json.contains("\"errors\":0"), "{json}");
    assert!(json.contains("\"diagnostics\":["), "{json}");
}

/// Runs `xtask <args>` from `dir`, reads one line of its output, closes
/// the pipe, and returns that line once the command exits successfully.
/// Each output read this way is far larger than a pipe buffer, so the
/// command is still writing when the reader goes away.
fn first_line_then_close(args: &[&str], dir: &Path) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xtask");
    let mut first = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("read one line");
    }
    let output = child.wait_with_output().expect("wait");
    assert!(
        output.status.success(),
        "{args:?}: {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    first
}

#[test]
fn graph_exits_zero_when_its_reader_closes_early() {
    let first = first_line_then_close(&["graph"], Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(first.ends_with("edge(s)\n"), "{first}");
}

#[test]
fn lint_exits_zero_when_its_reader_closes_early() {
    // The human report under `-D all` lists every advisory warning.
    let first = first_line_then_close(&["lint", "-D", "all"], &root());
    assert!(first.starts_with("warning["), "{first}");
}
