//! The contracts of the `cargo xtask` commands that CI relies on: the
//! workspace lints clean under `-D all`, the JSON report keeps its
//! documented shape, and `graph` ends quietly when its reader closes
//! the pipe early (`cargo xtask graph | head`).

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

#[test]
fn graph_exits_zero_when_its_reader_closes_early() {
    // The dump is far larger than a pipe buffer, so the command is still
    // writing when the reader goes away after one line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("graph")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
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
    assert!(first.ends_with("edge(s)\n"), "{first}");
    let output = child.wait_with_output().expect("wait");
    assert!(
        output.status.success(),
        "{:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}
