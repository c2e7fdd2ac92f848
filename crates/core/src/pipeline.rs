//! The end-to-end solvability pipeline (paper, Theorem 5.1).
//!
//! ```text
//! T ──validate──▶ restrict to reachable ──§3──▶ T* ──§4──▶ T' ──§5──▶ verdict
//! ```
//!
//! For three-process tasks the pipeline canonicalizes, eliminates local
//! articulation points, and checks the continuous-map condition on the
//! link-connected result. Two-process tasks are decided directly by
//! Proposition 5.4 (no splitting; the continuous check on a 1-dimensional
//! input is exact). One-process tasks are trivially solvable.
//!
//! Since PR 4 the decision tiers run as a *staged verdict engine* (see
//! [`crate::stages`]): each tier is a [`Stage`](crate::stages::Stage)
//! with its own bounded, fingerprint-keyed cache in the process-wide
//! [`ArtifactStore`](crate::stages::cache::ArtifactStore), and every
//! [`Analysis`] carries the [`EvidenceChain`] of the stages that
//! produced its verdict. One public entry point per job: [`analyze`],
//! [`analyze_governed`] (under a budget) and [`analyze_batch`] (a task
//! slice sharing artifacts). Durable caches are loaded and saved around
//! them ([`load_cache_dir`](crate::load_cache_dir),
//! [`persist_now`](crate::persist_now)).
//!
//! Because loop contractibility is undecidable in general (§7), the
//! pipeline can return [`Verdict::Unknown`]; callers may enable the
//! bounded ACT fallback to turn some unknowns into `Solvable`.

use std::fmt;

use chromata_task::Task;
use chromata_topology::{par_map, Budget, CancelToken};

use crate::splitting::SplitOutcome;
use crate::stages::EvidenceChain;

pub use crate::stages::cache::DecisionCacheStats;

/// The pipeline's answer.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The task is wait-free solvable.
    Solvable {
        /// How solvability was certified.
        certificate: String,
    },
    /// The task is not wait-free solvable.
    Unsolvable {
        /// The obstruction class.
        obstruction: Obstruction,
    },
    /// The decidable tiers were exhausted without an answer.
    Unknown {
        /// Why the outcome is undetermined.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict is `Solvable`.
    #[must_use]
    pub fn is_solvable(&self) -> bool {
        matches!(self, Verdict::Solvable { .. })
    }

    /// Whether the verdict is `Unsolvable`.
    #[must_use]
    pub fn is_unsolvable(&self) -> bool {
        matches!(self, Verdict::Unsolvable { .. })
    }
}

/// The two obstruction classes the paper exposes (§7).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Obstruction {
    /// After splitting, the skeleton conditions fail: some input edge's
    /// solo choices cannot be connected in the split output — the
    /// *chromatic* obstruction created by local articulation points.
    ArticulationPoints {
        /// Human-readable witness description.
        witness: String,
    },
    /// The colorless obstruction: the triangle boundary loop is
    /// non-contractible at the homology level.
    Contractibility {
        /// Human-readable witness description.
        witness: String,
    },
}

impl fmt::Display for Obstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obstruction::ArticulationPoints { witness } => {
                write!(f, "local-articulation-point obstruction: {witness}")
            }
            Obstruction::Contractibility { witness } => {
                write!(f, "contractibility obstruction: {witness}")
            }
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Solvable { certificate } => write!(f, "SOLVABLE — {certificate}"),
            Verdict::Unsolvable { obstruction } => write!(f, "UNSOLVABLE — {obstruction}"),
            Verdict::Unknown { reason } => write!(f, "UNKNOWN — {reason}"),
        }
    }
}

/// A full analysis record: the intermediate tasks, the verdict, and the
/// evidence chain of the stages that produced it.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The canonical task `T*` (§3).
    pub canonical: Task,
    /// The split, link-connected task `T'` and the splitting steps (§4).
    pub split: SplitOutcome,
    /// The pipeline verdict (§5).
    pub verdict: Verdict,
    /// Per-stage evidence: which stages ran (or were replayed from the
    /// verdict cache), what they concluded, and what they cost.
    pub evidence: EvidenceChain,
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "canonical |O*| = {} facets; {} split step(s); O' = {} facets in {} component(s)",
            self.canonical.output().facet_count(),
            self.split.steps.len(),
            self.split.task.output().facet_count(),
            self.split.task.output().connected_components().len(),
        )?;
        write!(f, "{}", self.verdict)
    }
}

/// Options controlling the pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOptions {
    /// If the continuous tier is undetermined, run the bounded ACT search
    /// with this many rounds (0 disables the fallback).
    pub act_fallback_rounds: usize,
}

/// Runs the full pipeline on a (1-, 2- or 3-process) task.
///
/// # Panics
///
/// Panics if the task has more than three processes — the splitting
/// deformation is specific to three processes (paper, §7).
///
/// # Examples
///
/// ```
/// use chromata::{analyze, PipelineOptions};
/// use chromata_task::library::{hourglass, identity_task};
///
/// assert!(analyze(&identity_task(3), PipelineOptions::default()).verdict.is_solvable());
/// assert!(analyze(&hourglass(), PipelineOptions::default()).verdict.is_unsolvable());
/// ```
#[must_use]
pub fn analyze(task: &Task, options: PipelineOptions) -> Analysis {
    analyze_governed(task, options, &Budget::unlimited(), &CancelToken::new())
}

/// Rejects a task the characterization does not cover — one with more
/// than three processes — with the message every entry point reports
/// (the CLI commands, the `analyze` op and the `stage` op alike).
///
/// # Errors
///
/// Names the task and its process count.
pub fn check_process_count(task: &Task) -> Result<(), String> {
    if task.process_count() > 3 {
        return Err(format!(
            "task `{}` has {} processes; the characterization covers at most three",
            task.name(),
            task.process_count()
        ));
    }
    Ok(())
}

/// [`analyze`] under a [`Budget`] and [`CancelToken`]: the ACT fallback
/// respects the wall-clock deadline and cooperative cancellation, and —
/// when a deadline is set — escalates its round cap through a doubling
/// ladder (`configured, 2×, 4×, …` up to `budget.max_act_rounds`) while
/// time remains. Exhaustion and interruption degrade to
/// [`Verdict::Unknown`] with a reason recording how far the analysis
/// got; interrupted verdicts are **not** cached, so a later run with a
/// larger budget re-decides from scratch.
#[must_use]
pub fn analyze_governed(
    task: &Task,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
) -> Analysis {
    assert!(
        task.process_count() <= 3,
        "the characterization is specific to at most three processes"
    );
    // The entire decision path lives in the stage layer since PR 9 (the
    // former monolith remnants — canonicalization evidence, the skip-split
    // shortcut, verdict-cache replay and the tier walk — were folded into
    // `stages::run_engine`); this entry point only validates and delegates.
    crate::stages::run_engine(task, options, budget, cancel)
}

/// [`analyze`] over a batch of tasks, fanned out with the workspace's
/// panic-safe scoped-thread `par_map` (sequential without the `parallel`
/// feature). All analyses share the process-wide
/// [`ArtifactStore`](crate::ArtifactStore), so
/// tasks with a common canonical form — or merely common split/link
/// artifacts — are decided once; verdicts and evidence digests are
/// byte-identical to running [`analyze`] per task.
#[must_use]
pub fn analyze_batch(tasks: &[Task], options: PipelineOptions) -> Vec<Analysis> {
    par_map(tasks, |t| analyze(t, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::cache::{self, clear_stage_caches, stage_cache_stats, ArtifactKind};
    use crate::stages::CacheEvent;
    use chromata_task::library::{
        adaptive_renaming, approximate_agreement, consensus, constant_task, disk_complex,
        hourglass, identity_task, leader_election, loop_agreement, majority_consensus, pinwheel,
        projective_plane_complex, renaming, sphere_complex, torus_complex, two_process_consensus,
        two_process_leader_election, two_set_agreement,
    };

    fn verdict(t: &Task) -> Verdict {
        analyze(t, PipelineOptions::default()).verdict
    }

    #[test]
    fn solvable_controls() {
        assert!(verdict(&identity_task(3)).is_solvable());
        assert!(verdict(&constant_task(3)).is_solvable());
        assert!(verdict(&identity_task(2)).is_solvable());
    }

    #[test]
    fn hourglass_unsolvable_via_articulation() {
        let a = analyze(&hourglass(), PipelineOptions::default());
        assert_eq!(a.split.steps.len(), 1);
        match a.verdict {
            Verdict::Unsolvable {
                obstruction: Obstruction::ArticulationPoints { .. },
            } => {}
            other => panic!("expected LAP obstruction, got {other:?}"),
        }
    }

    #[test]
    fn pinwheel_unsolvable() {
        let a = analyze(&pinwheel(), PipelineOptions::default());
        assert!(a.verdict.is_unsolvable());
        assert!(!a.split.steps.is_empty());
    }

    #[test]
    fn majority_consensus_unsolvable() {
        assert!(verdict(&majority_consensus()).is_unsolvable());
    }

    #[test]
    fn consensus_unsolvable_three_and_two() {
        assert!(verdict(&consensus(3)).is_unsolvable());
        assert!(verdict(&two_process_consensus()).is_unsolvable());
    }

    #[test]
    fn two_set_agreement_unsolvable_via_contractibility() {
        match verdict(&two_set_agreement()) {
            Verdict::Unsolvable {
                obstruction: Obstruction::Contractibility { .. },
            } => {}
            other => panic!("expected contractibility obstruction, got {other:?}"),
        }
    }

    #[test]
    fn klein_bottle_loops_span_the_verdict_spectrum() {
        use chromata_task::library::{klein_bottle_doubled_loop, klein_bottle_single_loop};
        // Torsion loop: exactly refuted by the H1 tier.
        let single = loop_agreement("klein-single", klein_bottle_single_loop());
        match verdict(&single) {
            Verdict::Unsolvable {
                obstruction: Obstruction::Contractibility { .. },
            } => {}
            other => panic!("expected torsion refutation, got {other:?}"),
        }
        // Doubled loop: null-homologous but not null-homotopic in the
        // infinite non-abelian π1 — the genuinely undecidable residue
        // (§7); the pipeline must answer Unknown, not guess.
        let doubled = loop_agreement("klein-doubled", klein_bottle_doubled_loop());
        match verdict(&doubled) {
            Verdict::Unknown { reason } => {
                assert!(reason.contains("contractibility undecided"), "{reason}");
            }
            other => panic!("expected the honest Unknown, got {other:?}"),
        }
    }

    #[test]
    fn loop_agreement_verdicts_match_contractibility() {
        // Contractible loops: solvable.
        assert!(verdict(&loop_agreement("disk", disk_complex())).is_solvable());
        assert!(verdict(&loop_agreement("sphere", sphere_complex())).is_solvable());
        // Essential loops: unsolvable (torus: free abelian class; RP²:
        // torsion class — both caught by the H1 tier exactly).
        assert!(verdict(&loop_agreement("torus", torus_complex())).is_unsolvable());
        assert!(verdict(&loop_agreement("rp2", projective_plane_complex())).is_unsolvable());
    }

    #[test]
    fn renaming_family_verdicts() {
        // Task solvability admits identifier-based symmetry breaking, so
        // every finite renaming task here is solvable.
        assert!(verdict(&adaptive_renaming()).is_solvable());
        assert!(verdict(&renaming(5)).is_solvable());
        assert!(verdict(&renaming(4)).is_solvable());
        assert!(verdict(&renaming(3)).is_solvable());
    }

    #[test]
    fn leader_election_unsolvable_via_articulation() {
        let a = analyze(&leader_election(), PipelineOptions::default());
        match a.verdict {
            Verdict::Unsolvable {
                obstruction: Obstruction::ArticulationPoints { .. },
            } => {}
            other => panic!("expected LAP obstruction, got {other:?}"),
        }
        assert_eq!(a.split.steps.len(), 3, "the three loser vertices split");
        // The two-process variant is 2-consensus in disguise.
        assert!(verdict(&two_process_leader_election()).is_unsolvable());
    }

    #[test]
    fn approximate_agreement_solvable_at_all_resolutions() {
        for k in 1..=3 {
            assert!(
                verdict(&approximate_agreement(k)).is_solvable(),
                "resolution {k}"
            );
        }
    }

    fn verdict_cache_stats() -> DecisionCacheStats {
        let all = stage_cache_stats();
        let verdict = all.iter().find(|(k, _)| *k == ArtifactKind::Verdict);
        verdict.expect("the store has a verdict cache").1
    }

    #[test]
    fn repeated_analysis_hits_the_decision_cache() {
        // Prime the cache, then re-analyze the identical task: the second
        // run must be served from the cache. Other tests run concurrently
        // and also touch the process-wide counters, so assert monotone
        // deltas rather than absolute values.
        let _store = cache::store_test_guard();
        let task = two_set_agreement();
        let options = PipelineOptions::default();
        let first = analyze(&task, options);
        let primed = verdict_cache_stats();
        let second = analyze(&task, options);
        let after = verdict_cache_stats();
        assert!(
            after.hits > primed.hits,
            "expected a cache hit: {primed:?} -> {after:?}"
        );
        // The cached verdict is the one the tiers computed.
        assert_eq!(format!("{}", first.verdict), format!("{}", second.verdict));
    }

    #[test]
    fn clearing_the_decision_cache_is_transparent() {
        // Clearing mid-flight must not change any verdict, only force the
        // tiers to re-run; verdicts repopulate on the next analysis.
        let _store = cache::store_test_guard();
        let before = verdict(&hourglass());
        clear_stage_caches();
        let after = verdict(&hourglass());
        assert!(before.is_unsolvable() && after.is_unsolvable());
    }

    #[test]
    fn panicked_worker_poisons_then_cache_recovers_and_redecides() {
        // Regression: a worker that panics while holding the verdict-cache
        // lock (mid-decision bookkeeping) poisons the mutex. Every later
        // analysis must transparently recover — re-validating the cache —
        // and identical calls must still decide correctly.
        let _store = cache::store_test_guard();
        let before = verdict(&hourglass());
        let _ = std::thread::spawn(|| {
            let _guard = cache::store().verdict.lock();
            panic!("worker dies mid-decision");
        })
        .join();
        let after = verdict(&hourglass());
        assert!(before.is_unsolvable() && after.is_unsolvable());
        assert_eq!(format!("{before}"), format!("{after}"));
    }

    #[test]
    fn starved_analysis_degrades_to_uncached_unknown() {
        // A cancelled analysis answers Unknown instead of panicking, and
        // the circumstantial verdict is NOT cached: the same call with an
        // unlimited budget re-decides and gets the real answer. (Task
        // names participate in the cache key, so the unique name keeps
        // this test independent of concurrently cached verdicts.)
        let task = loop_agreement("starved-probe", torus_complex());
        let cancel = CancelToken::new();
        cancel.cancel();
        let starved = analyze_governed(
            &task,
            PipelineOptions::default(),
            &Budget::unlimited(),
            &cancel,
        );
        match &starved.verdict {
            Verdict::Unknown { reason } => {
                assert!(reason.contains("cancelled"), "{reason}");
            }
            other => panic!("expected a graceful Unknown, got {other:?}"),
        }
        assert_eq!(starved.evidence.decided_by, "budget");
        let recovered = analyze(&task, PipelineOptions::default());
        assert!(recovered.verdict.is_unsolvable(), "re-decided from scratch");
    }

    #[test]
    fn deadline_escalation_ladder_reports_progress() {
        use chromata_task::library::{klein_bottle_doubled_loop, loop_agreement};
        // The doubled Klein loop hits the undecidable residue, so the ACT
        // fallback actually runs; an already-elapsed deadline interrupts
        // it and the reason records the partial progress.
        let task = loop_agreement("klein-doubled-governed", klein_bottle_doubled_loop());
        let budget = Budget::unlimited()
            .with_max_act_rounds(4)
            .with_deadline_in(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let a = analyze_governed(
            &task,
            PipelineOptions {
                act_fallback_rounds: 1,
            },
            &budget,
            &CancelToken::new(),
        );
        match &a.verdict {
            Verdict::Unknown { reason } => {
                assert!(reason.contains("deadline exceeded"), "{reason}");
            }
            other => panic!("expected budget-limited Unknown, got {other:?}"),
        }
        // The elapsed deadline trips the pre-tier budget check, so the
        // budget guard is the deciding "stage".
        assert_eq!(a.evidence.decided_by, "budget");
    }

    #[test]
    fn verdict_predicates() {
        let v = Verdict::Unknown { reason: "x".into() };
        assert!(!v.is_solvable());
        assert!(!v.is_unsolvable());
        assert!(format!("{v}").contains("UNKNOWN"));
    }

    #[test]
    fn analysis_display_summarizes() {
        let a = analyze(&hourglass(), PipelineOptions::default());
        let text = format!("{a}");
        assert!(text.contains("1 split step(s)"), "{text}");
        assert!(text.contains("UNSOLVABLE"), "{text}");
    }

    #[test]
    fn evidence_chain_names_the_deciding_stage() {
        // The solvable control decides at the homology tier, and the
        // chain records every stage the engine ran, in order.
        let a = analyze(&identity_task(3), PipelineOptions::default());
        assert_eq!(a.evidence.decided_by, "homology");
        let names: Vec<&str> = a.evidence.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            names,
            [
                "canonicalize",
                "split",
                "link-graphs",
                "presentations",
                "homology"
            ],
            "unexpected stage order"
        );
        // Two-process tasks skip splitting but still record the stage.
        let two = analyze(&identity_task(2), PipelineOptions::default());
        assert!(two
            .evidence
            .stages
            .iter()
            .any(|s| s.stage == "split" && s.detail.contains("Proposition 5.4")));
    }

    #[test]
    fn cached_analysis_replays_identical_evidence() {
        // A verdict-cache hit replays the deterministic traces, so the
        // digest matches the cold run exactly. (The unique task name
        // keeps this probe independent of concurrently cached verdicts.)
        let _store = cache::store_test_guard();
        let task = loop_agreement("evidence-replay-probe", torus_complex());
        let first = analyze(&task, PipelineOptions::default());
        let second = analyze(&task, PipelineOptions::default());
        assert_eq!(
            first.evidence.deterministic_digest(),
            second.evidence.deterministic_digest()
        );
        assert_eq!(first.evidence.decided_by, second.evidence.decided_by);
        assert!(
            second
                .evidence
                .stages
                .iter()
                .any(|s| s.cache == CacheEvent::Replayed),
            "second run should replay from the verdict cache"
        );
    }

    #[test]
    fn analyze_batch_matches_sequential() {
        let tasks = vec![identity_task(3), hourglass(), two_set_agreement()];
        let batch = analyze_batch(&tasks, PipelineOptions::default());
        assert_eq!(batch.len(), tasks.len());
        for (t, b) in tasks.iter().zip(&batch) {
            let solo = analyze(t, PipelineOptions::default());
            assert_eq!(format!("{}", solo.verdict), format!("{}", b.verdict));
            assert_eq!(
                solo.evidence.deterministic_digest(),
                b.evidence.deterministic_digest(),
                "evidence diverged for {}",
                t.name()
            );
        }
    }
}
