//! Pins the whole library's verdicts and evidence digests.
//!
//! `tests/golden/batch_digests.txt` is the output of
//!
//! ```text
//! chromata batch --act-fallback 1 --digests
//! ```
//!
//! one line per registry task: name, evidence digest, deciding stage and
//! verdict. This test produces the same lines in-process, through the
//! registry and the CLI's own `batch` command, and compares them byte for
//! byte. A change to the decision path that moves any verdict, any stage's
//! detail or work count, or the deciding stage fails here.
//!
//! Evidence digests hash native `usize` values, so the file pins x86_64
//! Linux, the platform CI runs on. Regenerate it only for an intended
//! change of evidence, with the command above.

use chromata_cli::{parse, run};

const GOLDEN: &str = include_str!("../../../tests/golden/batch_digests.txt");

#[test]
fn library_batch_digests_match_golden() {
    let args: Vec<String> = ["batch", "--act-fallback", "1", "--digests"]
        .into_iter()
        .map(str::to_owned)
        .collect();
    let out = run(parse(&args).expect("valid batch arguments")).expect("batch runs");
    for (actual, expected) in out.lines().zip(GOLDEN.lines()) {
        assert_eq!(actual, expected, "batch line drifted from the golden");
    }
    assert_eq!(out, GOLDEN, "batch output drifted from the golden file");
}
