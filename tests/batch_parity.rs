//! Golden batch parity: `analyze_batch` must be observationally
//! identical to per-task `analyze` on the whole task library — same
//! verdict `Display` bytes and the same evidence-chain digests — whether
//! `par_map` fans the batch out over threads or, pinned to one CPU, maps
//! it serially:
//!
//! ```text
//! cargo test -p chromata --test batch_parity
//! taskset -c 0 cargo test -p chromata --test batch_parity
//! ```
//!
//! The evidence digest covers `(stage, detail, work)` for every stage
//! plus the deciding stage, and is cold/warm-stable by construction
//! (cache replays reproduce the recorded traces), so parity holds no
//! matter how the batch fan-out interleaves with the per-task runs.

use chromata::{analyze, analyze_batch, stage_cache_stats, ArtifactKind, PipelineOptions, Verdict};
use chromata_task::library::{
    adaptive_renaming, approximate_agreement, consensus, constant_task, disk_complex, hourglass,
    identity_task, klein_bottle_doubled_loop, klein_bottle_single_loop, leader_election,
    loop_agreement, majority_consensus, multi_valued_consensus, pinwheel, projective_plane_complex,
    renaming, simple_example_task, sphere_complex, torus_complex, two_process_consensus,
    two_process_leader_election, two_set_agreement,
};
use chromata_task::Task;

/// The full task library: every registry entry plus the small-arity
/// controls `serde_determinism` pins.
fn library() -> Vec<Task> {
    vec![
        identity_task(1),
        identity_task(2),
        identity_task(3),
        constant_task(3),
        simple_example_task(),
        hourglass(),
        pinwheel(),
        consensus(2),
        consensus(3),
        two_process_consensus(),
        multi_valued_consensus(3),
        majority_consensus(),
        two_set_agreement(),
        leader_election(),
        two_process_leader_election(),
        renaming(4),
        renaming(5),
        adaptive_renaming(),
        approximate_agreement(2),
        approximate_agreement(3),
        loop_agreement("loop-disk", disk_complex()),
        loop_agreement("loop-sphere", sphere_complex()),
        loop_agreement("loop-torus", torus_complex()),
        loop_agreement("loop-rp2", projective_plane_complex()),
        loop_agreement("loop-klein-torsion", klein_bottle_single_loop()),
        loop_agreement("loop-klein-squared", klein_bottle_doubled_loop()),
    ]
}

#[test]
fn batch_verdicts_and_evidence_match_sequential_analysis() {
    let tasks = library();
    let options = PipelineOptions::default();
    let batch = analyze_batch(&tasks, options);
    assert_eq!(batch.len(), tasks.len());
    for (task, batched) in tasks.iter().zip(&batch) {
        let solo = analyze(task, options);
        assert_eq!(
            format!("{}", batched.verdict),
            format!("{}", solo.verdict),
            "verdict drift on {}",
            task.name()
        );
        assert_eq!(
            batched.evidence.deterministic_digest(),
            solo.evidence.deterministic_digest(),
            "evidence drift on {}",
            task.name()
        );
        assert_eq!(
            batched.evidence.decided_by,
            solo.evidence.decided_by,
            "deciding-stage drift on {}",
            task.name()
        );
    }
}

#[test]
fn batch_with_act_fallback_matches_sequential_analysis() {
    // The Klein-bottle doubled loop is the library's undecidable residue:
    // homology is inconclusive, so the ACT exploration ladder runs. The
    // fallback path must be batch/sequential-identical too.
    let tasks = vec![
        loop_agreement("loop-klein-squared", klein_bottle_doubled_loop()),
        identity_task(3),
        consensus(3),
    ];
    let options = PipelineOptions {
        act_fallback_rounds: 1,
    };
    let batch = analyze_batch(&tasks, options);
    for (task, batched) in tasks.iter().zip(&batch) {
        let solo = analyze(task, options);
        assert_eq!(
            format!("{}", batched.verdict),
            format!("{}", solo.verdict),
            "verdict drift on {}",
            task.name()
        );
        assert_eq!(
            batched.evidence.deterministic_digest(),
            solo.evidence.deterministic_digest(),
            "evidence drift on {}",
            task.name()
        );
    }
}

#[test]
fn batch_reruns_share_artifacts_through_the_stage_caches() {
    // A second pass over the same batch must be answered from the verdict
    // cache: hits strictly increase while the evidence digests (which
    // exclude cache events by design) stay fixed.
    let tasks = vec![identity_task(3), hourglass(), consensus(3)];
    let options = PipelineOptions::default();
    let first = analyze_batch(&tasks, options);
    let hits_before: u64 = stage_cache_stats()
        .iter()
        .filter(|(kind, _)| *kind == ArtifactKind::Verdict)
        .map(|(_, stats)| stats.hits)
        .sum();
    let second = analyze_batch(&tasks, options);
    let hits_after: u64 = stage_cache_stats()
        .iter()
        .filter(|(kind, _)| *kind == ArtifactKind::Verdict)
        .map(|(_, stats)| stats.hits)
        .sum();
    assert!(
        hits_after >= hits_before + tasks.len() as u64,
        "expected at least {} new verdict-cache hits, got {hits_before} -> {hits_after}",
        tasks.len()
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.evidence.deterministic_digest(),
            b.evidence.deterministic_digest()
        );
        assert_eq!(format!("{}", a.verdict), format!("{}", b.verdict));
    }
}

#[test]
fn batch_covers_every_verdict_class() {
    // Sanity: the library exercises all three verdicts, so parity above
    // is not vacuous for any class.
    let tasks = library();
    let batch = analyze_batch(&tasks, PipelineOptions::default());
    let has = |want: fn(&Verdict) -> bool| batch.iter().any(|a| want(&a.verdict));
    assert!(has(|v| matches!(v, Verdict::Solvable { .. })));
    assert!(has(|v| matches!(v, Verdict::Unsolvable { .. })));
    assert!(has(|v| matches!(v, Verdict::Unknown { .. })));
}
