//! Contracts of the `chromata` binary that scripts rely on beyond its
//! output: a reader that closes the pipe early (`chromata export … |
//! head`) ends the output, not the command.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn export_exits_zero_when_its_reader_closes_early() {
    // The export is far larger than a pipe buffer, so the command is
    // still writing when the reader goes away after one line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_chromata"))
        .args(["export", "loop-klein-squared"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn chromata");
    let mut first = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("read one line");
    }
    assert_eq!(first, "{\n");
    let output = child.wait_with_output().expect("wait");
    assert!(
        output.status.success(),
        "{:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}
