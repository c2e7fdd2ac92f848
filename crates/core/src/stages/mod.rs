//! The verdict engine (architecture layer under [`crate::analyze`]).
//!
//! The decision procedure is staged — canonicalize, split (§4), build
//! link graphs, derive π₁ presentations, run the homology/word-problem
//! tiers (§5), fall back to the bounded ACT exploration — and one cache
//! sits between canonicalization and everything after it:
//!
//! ```text
//! canonicalize ─▶ verdict record of (T*, ACT bound)?
//!    (live)         │ hit: replay every recorded stage trace, run nothing
//!                   │ miss:
//!                   ▼
//!                 split ─▶ link-graphs ─▶ presentations ─▶ homology ─▶ explore
//! ```
//!
//! The verdict cache of the [`ArtifactStore`](cache::ArtifactStore) is
//! the engine's only cache. A hit replays the deterministic traces of
//! the run that decided the task, the split included. A miss runs the
//! stages as plain function calls: each is timed and leaves a
//! [`StageEvidence`] record (detail, work counter, cache event, wall
//! clock) in the [`EvidenceChain`] every [`crate::Analysis`] carries,
//! which is what `chromata explain` prints. Every stage takes
//! milliseconds, so keying a cache on a whole task costs more than
//! recomputing an intermediate artifact (EXPERIMENTS.md, E15); only the
//! verdict record pays.

pub mod artifacts;
pub mod cache;
pub mod persist;

use std::fmt;
use std::time::Duration;

use chromata_task::{canonicalize, Task};
use chromata_topology::{structural_fingerprint, Budget, CancelToken, Stopwatch};

use crate::act::solve_act_governed_with_stats;
use crate::act::ActOutcome;
use crate::continuous::{continuous_map_exists_with, ContinuousOutcome, ImpossibilityReason};
use crate::pipeline::{Analysis, Obstruction, PipelineOptions, Verdict};
use crate::splitting::{split_all, SplitOutcome};

use artifacts::{ExplorationReport, LinkGraphs, Presentations};
use cache::ArtifactKind;

/// How a stage's evidence came about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheEvent {
    /// Computed because the verdict lookup missed.
    Miss,
    /// Computed before the verdict lookup, on every analysis
    /// (canonicalization, whose result is the lookup key).
    Uncached,
    /// Replayed from a cached verdict record (the stage did not run).
    Replayed,
}

impl CacheEvent {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheEvent::Miss => "miss",
            CacheEvent::Uncached => "uncached",
            CacheEvent::Replayed => "replay",
        }
    }
}

impl fmt::Display for CacheEvent {
    /// The label, honouring width and alignment (`{:<8}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.label())
    }
}

/// One stage's contribution to an analysis: what it concluded, how much
/// work it did, and whether it ran or was replayed.
#[derive(Clone, Debug)]
pub struct StageEvidence {
    /// Stage name (one of the engine's fixed stage names).
    pub stage: &'static str,
    /// Deterministic human-readable summary of the artifact.
    pub detail: String,
    /// Deterministic work counter (facets, assignments, search nodes …).
    pub work: u64,
    /// Whether the stage ran or was replayed in this run.
    pub cache: CacheEvent,
    /// Wall-clock time the stage took in this run (zero when replayed).
    /// Excluded from [`EvidenceChain::deterministic_digest`].
    pub wall: Duration,
}

/// The full evidence chain of one analysis: every stage that ran (or
/// was replayed from the verdict cache) plus the stage that decided.
#[derive(Clone, Debug)]
pub struct EvidenceChain {
    /// Per-stage evidence, in execution order.
    pub stages: Vec<StageEvidence>,
    /// Name of the stage whose answer became the verdict.
    pub decided_by: &'static str,
}

impl EvidenceChain {
    pub(crate) fn new() -> Self {
        EvidenceChain {
            stages: Vec::new(),
            decided_by: "unknown",
        }
    }

    /// A fingerprint over the *deterministic* parts of the chain — stage
    /// names, details, work counters and the deciding stage — excluding
    /// wall-clock and cache events, which legitimately differ between a
    /// cold and a warm run of the same analysis. Two analyses of the
    /// same task under the same options always agree on this digest,
    /// whether run alone, repeated, or inside [`crate::analyze_batch`].
    #[must_use]
    pub fn deterministic_digest(&self) -> u64 {
        let parts: Vec<(&str, &str, u64)> = self
            .stages
            .iter()
            .map(|s| (s.stage, s.detail.as_str(), s.work))
            .collect();
        structural_fingerprint(&(parts, self.decided_by))
    }
}

impl fmt::Display for EvidenceChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "decided by: {}", self.decided_by)?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<13} {:<8} work {:>8}  {:>9.3}ms  {}",
                s.stage,
                s.cache,
                s.work,
                s.wall.as_secs_f64() * 1e3,
                s.detail,
            )?;
        }
        Ok(())
    }
}

/// The compact, replayable form of a stage's evidence stored in the
/// verdict cache: everything deterministic, nothing circumstantial.
#[derive(Clone, Debug)]
pub(crate) struct StageTrace {
    pub stage: &'static str,
    pub detail: String,
    pub work: u64,
}

impl StageTrace {
    pub(crate) fn of(ev: &StageEvidence) -> Self {
        StageTrace {
            stage: ev.stage,
            detail: ev.detail.clone(),
            work: ev.work,
        }
    }

    pub(crate) fn replay(&self) -> StageEvidence {
        StageEvidence {
            stage: self.stage,
            detail: self.detail.clone(),
            work: self.work,
            cache: CacheEvent::Replayed,
            wall: Duration::ZERO,
        }
    }
}

/// What the verdict cache stores: the verdict, the deciding stage, and
/// the deterministic traces of every stage after canonicalization that
/// produced it, so a cache hit replays the identical evidence chain.
#[derive(Clone, Debug)]
pub(crate) struct DecisionRecord {
    pub verdict: Verdict,
    pub decided_by: &'static str,
    pub stages: Vec<StageTrace>,
}

/// The evidence of one analysis as its stages run: the live chain, and
/// the traces of the stages after canonicalization, which the verdict
/// record keeps for replay.
struct Recorder {
    chain: EvidenceChain,
    traces: Vec<StageTrace>,
}

impl Recorder {
    /// Runs one stage as a plain function call: times `compute`, records
    /// the evidence of its artifact (`describe` gives the detail and
    /// the work counter), and returns the artifact.
    fn stage<A>(
        &mut self,
        kind: ArtifactKind,
        compute: impl FnOnce() -> A,
        describe: impl FnOnce(&A) -> (String, u64),
    ) -> A {
        let clock = Stopwatch::start();
        let artifact = compute();
        let (detail, work) = describe(&artifact);
        let evidence = StageEvidence {
            stage: kind.name(),
            detail,
            work,
            cache: CacheEvent::Miss,
            wall: clock.elapsed(),
        };
        self.traces.push(StageTrace::of(&evidence));
        self.chain.stages.push(evidence);
        artifact
    }
}

fn describe_split(split: &SplitOutcome) -> (String, u64) {
    let detail = match &split.degenerate {
        Some(x) => format!(
            "{} split step(s); degenerate at input vertex {x}",
            split.steps.len()
        ),
        None => format!(
            "{} split step(s); O' = {} facet(s)",
            split.steps.len(),
            split.task.output().facet_count()
        ),
    };
    (detail, split.steps.len() as u64)
}

fn describe_links(links: &LinkGraphs) -> (String, u64) {
    let detail = format!(
        "{} vertex domain(s), {} edge graph(s), {} triangle(s)",
        links.vertices.len(),
        links.edges.len(),
        links.triangles.len()
    );
    let work = links.vertices.len() + links.edges.len() + links.triangles.len();
    (detail, work as u64)
}

fn describe_presentations(presentations: &Presentations) -> (String, u64) {
    let detail = format!(
        "{} component presentation(s) across {} triangle(s); {} fully simply connected",
        presentations.component_count(),
        presentations.per_triangle.len(),
        presentations.simply_connected_triangles()
    );
    (detail, presentations.component_count() as u64)
}

fn describe_homology((outcome, assignments): &(ContinuousOutcome, u64)) -> (String, u64) {
    let detail = match outcome {
        ContinuousOutcome::Exists {
            assignment,
            certificates,
        } => format!(
            "carried map exists: {} vertex assignment(s), {} certificate(s)",
            assignment.len(),
            certificates.len()
        ),
        ContinuousOutcome::Impossible { reason } => match reason {
            ImpossibilityReason::EmptyVertexImage(x) => {
                format!("impossible: empty image at input vertex {x}")
            }
            ImpossibilityReason::SkeletonDisconnected { edge } => {
                format!("impossible: skeleton disconnected across input edge {edge}")
            }
            ImpossibilityReason::HomologyObstruction { triangle } => {
                format!("impossible: H1 obstruction at input triangle {triangle}")
            }
        },
        ContinuousOutcome::Undetermined { reason } => format!("undetermined: {reason}"),
    };
    (detail, *assignments)
}

fn describe_explore(report: &ExplorationReport) -> (String, u64) {
    let kind = match &report.verdict {
        Verdict::Solvable { .. } => "found a decision map",
        Verdict::Unsolvable { .. } => "refuted",
        Verdict::Unknown { .. } => "exhausted",
    };
    // The detail is hashed into every evidence digest, and so into
    // `tests/golden/batch_digests.txt`: its wording ("ACT ladder", the
    // rounds `0..=cap` searched in order) stays byte-identical until a
    // change that re-pins the golden rewords it.
    let detail = format!(
        "ACT ladder {kind} at round cap {}; {} node(s) expanded",
        report.rounds_cap, report.nodes
    );
    (detail, report.nodes)
}

/// The bounded ACT exploration (the paper's superseded baseline, the
/// fallback for the undecidable residue): one governed search over the
/// rounds `0..=cap`, where `cap` is the configured bound clamped by
/// `budget.max_act_rounds`. A budget only truncates the search — the
/// clamp lowers the cap, a deadline or a cancellation interrupts it —
/// and never raises the cap, so a budget-independent answer is a
/// function of the task and the configured bound alone.
fn act_ladder(
    task: &Task,
    reason: &str,
    configured_rounds: usize,
    budget: &Budget,
    cancel: &CancelToken,
) -> ExplorationReport {
    let cap = configured_rounds.min(budget.max_act_rounds);
    let (outcome, nodes) =
        solve_act_governed_with_stats(task, &budget.with_max_act_rounds(cap), cancel);
    let (verdict, budget_independent) = match outcome {
        // A witness is budget-independent: always cacheable.
        ActOutcome::Solvable { rounds, .. } => (
            Verdict::Solvable {
                certificate: format!("ACT fallback found a decision map at {rounds} round(s)"),
            },
            true,
        ),
        ActOutcome::Interrupted {
            rounds_completed,
            interrupt,
        } => (
            Verdict::Unknown {
                reason: format!(
                    "{reason}; ACT fallback {interrupt} after ruling out \
                     {rounds_completed} of {cap} round(s)"
                ),
            },
            false,
        ),
        // Exhaustion depends on the budget unless the budget left the
        // configured bound as it was.
        ActOutcome::Exhausted { .. } => (
            Verdict::Unknown {
                reason: format!("{reason}; ACT fallback exhausted {cap} round(s)"),
            },
            cap == configured_rounds,
        ),
    };
    ExplorationReport {
        verdict,
        nodes,
        rounds_cap: cap,
        budget_independent,
    }
}

/// Decides a canonical task by running its stages, after a verdict
/// lookup missed. Returns the verdict, the name of the deciding stage,
/// and whether the verdict is budget-independent and therefore safe to
/// memoize.
fn decide(
    canonical: &Task,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
    rec: &mut Recorder,
) -> (Verdict, &'static str, bool) {
    let processes = canonical.process_count();
    let split = if processes == 3 {
        Some(rec.stage(ArtifactKind::Split, || split_all(canonical), describe_split))
    } else {
        // Proposition 5.4: two-process tasks are decided unsplit;
        // one-process tasks trivially.
        rec.stage(
            ArtifactKind::Split,
            || None,
            |_| {
                let detail =
                    format!("splitting skipped for a {processes}-process task (Proposition 5.4)");
                (detail, 0)
            },
        )
    };
    if let Err(interrupt) = budget.check(cancel) {
        return (
            Verdict::Unknown {
                reason: format!("analysis {interrupt} before the decision tiers ran"),
            },
            "budget",
            false,
        );
    }
    let (t, split_steps) = match &split {
        Some(SplitOutcome {
            degenerate: Some(x),
            ..
        }) => {
            return (
                Verdict::Unsolvable {
                    obstruction: Obstruction::ArticulationPoints {
                        witness: format!(
                            "splitting emptied the solo image of input vertex {x}: \
                             the incident edges force incompatible link components"
                        ),
                    },
                },
                "split",
                true,
            );
        }
        Some(split) => (&split.task, split.steps.len()),
        None => (canonical, 0),
    };
    let links = rec.stage(
        ArtifactKind::LinkGraphs,
        || LinkGraphs::build(t),
        describe_links,
    );
    let presentations = rec.stage(
        ArtifactKind::Presentations,
        || Presentations::build(t, &links),
        describe_presentations,
    );
    let (outcome, _) = rec.stage(
        ArtifactKind::Homology,
        || continuous_map_exists_with(&links, &presentations),
        describe_homology,
    );
    match outcome {
        ContinuousOutcome::Exists { certificates, .. } => (
            Verdict::Solvable {
                certificate: if certificates.is_empty() {
                    "continuous carried map exists (vertex/edge tiers)".to_owned()
                } else {
                    certificates.join("; ")
                },
            },
            "homology",
            true,
        ),
        ContinuousOutcome::Impossible { reason } => {
            let obstruction = match reason {
                ImpossibilityReason::SkeletonDisconnected { edge } => {
                    Obstruction::ArticulationPoints {
                        witness: format!(
                            "after {split_steps} split step(s), no choice of solo outputs is connected across input edge {edge}"
                        ),
                    }
                }
                ImpossibilityReason::HomologyObstruction { triangle } => {
                    Obstruction::Contractibility {
                        witness: format!(
                            "the boundary loop of input triangle {triangle} is non-contractible (H1 certificate)"
                        ),
                    }
                }
                ImpossibilityReason::EmptyVertexImage(x) => Obstruction::ArticulationPoints {
                    witness: format!("input vertex {x} has an empty image"),
                },
            };
            (Verdict::Unsolvable { obstruction }, "homology", true)
        }
        ContinuousOutcome::Undetermined { reason } => {
            if options.act_fallback_rounds == 0 {
                return (Verdict::Unknown { reason }, "homology", true);
            }
            let report = rec.stage(
                ArtifactKind::Exploration,
                || act_ladder(t, &reason, options.act_fallback_rounds, budget, cancel),
                describe_explore,
            );
            (report.verdict, "explore", report.budget_independent)
        }
    }
}

/// The engine behind [`crate::analyze_governed`]: live
/// canonicalization, then the verdict lookup; a hit replays the record,
/// a miss runs the stages and records a budget-independent verdict.
pub(crate) fn run_engine(
    task: &Task,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
) -> Analysis {
    let store = cache::store();
    let mut rec = Recorder {
        chain: EvidenceChain::new(),
        traces: Vec::new(),
    };

    // Canonicalization is a cheap pure quotient and yields the lookup
    // key — always run live, so every chain starts with it.
    let clock = Stopwatch::start();
    let canonical = canonicalize(&task.restricted_to_reachable());
    rec.chain.stages.push(StageEvidence {
        stage: "canonicalize",
        detail: format!(
            "|I| = {} facet(s); canonical |O*| = {} facet(s)",
            canonical.input().facet_count(),
            canonical.output().facet_count()
        ),
        work: canonical.output().facet_count() as u64,
        cache: CacheEvent::Uncached,
        wall: clock.elapsed(),
    });

    let key = (canonical, options.act_fallback_rounds);
    let cached = store.verdict.lock().get(&key);
    // Decide outside the lock; a racing miss recomputes the same verdict.
    let verdict = match cached {
        Some(record) => {
            // Replay the deterministic traces: the evidence chain of a
            // cache hit matches the chain that built it.
            rec.chain
                .stages
                .extend(record.stages.iter().map(StageTrace::replay));
            rec.chain.decided_by = record.decided_by;
            record.verdict
        }
        None => {
            let (verdict, decided_by, cacheable) =
                decide(&key.0, options, budget, cancel, &mut rec);
            rec.chain.decided_by = decided_by;
            // Budget-induced answers are circumstantial — never poison the
            // cache with them; a later unstarved run must re-decide.
            if cacheable {
                store.verdict.lock().insert(
                    key.clone(),
                    DecisionRecord {
                        verdict: verdict.clone(),
                        decided_by,
                        stages: rec.traces,
                    },
                );
            }
            verdict
        }
    };
    Analysis {
        canonical: key.0,
        verdict,
        evidence: rec.chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_task::library::{identity_task, torus_complex, two_process_consensus};

    #[test]
    fn repeat_analysis_replays_every_stage_after_canonicalize() {
        // The guard keeps a concurrent clear from landing between the
        // two analyses; the unique name keeps the first one a miss.
        let _store = cache::store_test_guard();
        let task = chromata_task::library::loop_agreement("replay-every-stage", torus_complex());
        let options = PipelineOptions::default();
        let first = crate::analyze(&task, options);
        let second = crate::analyze(&task, options);
        let events = |a: &Analysis| {
            a.evidence
                .stages
                .iter()
                .map(|s| s.cache)
                .collect::<Vec<_>>()
        };
        let ran = events(&first);
        assert_eq!(ran[0], CacheEvent::Uncached, "canonicalize always runs");
        assert!(ran[1..].iter().all(|e| *e == CacheEvent::Miss), "{ran:?}");
        // The hit runs no stage: everything after canonicalize, the
        // split included, is replayed from the record with zero wall.
        let replayed = events(&second);
        assert_eq!(replayed[0], CacheEvent::Uncached);
        assert!(
            replayed[1..].iter().all(|e| *e == CacheEvent::Replayed),
            "{replayed:?}"
        );
        assert!(second.evidence.stages[1..]
            .iter()
            .all(|s| s.wall == Duration::ZERO));
        let trace = |a: &Analysis| {
            a.evidence
                .stages
                .iter()
                .map(|s| (s.stage, s.detail.clone(), s.work))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(&first), trace(&second));
        assert_eq!(trace(&second)[1].0, "split");
        assert_eq!(first.evidence.decided_by, second.evidence.decided_by);
    }

    #[test]
    fn evidence_digest_ignores_wall_and_cache_events() {
        let mut a = EvidenceChain::new();
        a.decided_by = "homology";
        a.stages.push(StageEvidence {
            stage: "split",
            detail: "0 split step(s); O' = 3 facet(s)".into(),
            work: 0,
            cache: CacheEvent::Miss,
            wall: Duration::from_millis(7),
        });
        let mut b = a.clone();
        b.stages[0].cache = CacheEvent::Replayed;
        b.stages[0].wall = Duration::ZERO;
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        // But the deterministic parts do matter.
        b.stages[0].work = 1;
        assert_ne!(a.deterministic_digest(), b.deterministic_digest());
        let mut c = a.clone();
        c.decided_by = "explore";
        assert_ne!(a.deterministic_digest(), c.deterministic_digest());
        // The text table pads the event column.
        assert_eq!(format!("[{:<8}]", CacheEvent::Replayed), "[replay  ]");
    }

    #[test]
    fn explore_stage_is_uncacheable_when_budget_dependent() {
        let cancel = CancelToken::new();
        // Two-process consensus has no decision map: the ladder exhausts.
        let task = two_process_consensus();
        // Cut short of the configured 2 rounds by the budget: the answer
        // depends on the budget and must not be recorded.
        let truncated = act_ladder(
            &task,
            "r",
            2,
            &Budget::unlimited().with_max_act_rounds(1),
            &cancel,
        );
        assert!(matches!(truncated.verdict, Verdict::Unknown { .. }));
        assert_eq!(truncated.rounds_cap, 1);
        assert!(!truncated.budget_independent);
        // Exhausted exactly at the configured bound: budget-independent.
        let bounded = act_ladder(&task, "r", 1, &Budget::unlimited(), &cancel);
        assert!(bounded.budget_independent);
        // A witness always is.
        let witness = act_ladder(&identity_task(2), "r", 1, &Budget::unlimited(), &cancel);
        assert!(witness.verdict.is_solvable());
        assert!(witness.budget_independent);
    }

    #[test]
    fn a_deadline_never_raises_the_round_cap() {
        // Path agreement of length 4 has a decision map at 2 rounds and
        // none at 1 or fewer. Configured for 1 round, the search must
        // exhaust at cap 1 whether or not time is left over: were the
        // deadline to raise the cap, both answers would be recorded as
        // budget-independent under the same key `(T*, 1)`.
        let task = crate::two_process::tests::path_agreement(4);
        let cancel = CancelToken::new();
        let plain = act_ladder(&task, "r", 1, &Budget::unlimited(), &cancel);
        let timed = act_ladder(
            &task,
            "r",
            1,
            &Budget::unlimited().with_deadline_in(Duration::from_secs(60)),
            &cancel,
        );
        assert_eq!(format!("{plain:?}"), format!("{timed:?}"));
        assert!(matches!(plain.verdict, Verdict::Unknown { .. }));
        assert_eq!(plain.rounds_cap, 1);
        assert!(plain.budget_independent);
    }

    #[test]
    fn a_deadline_leaves_the_explored_verdict_and_its_record_alone() {
        // loop-klein-squared reaches the ACT fallback. Analyzed first
        // under a deadline, it explores and records the budget-free
        // verdict; the unbudgeted call then replays that record. (The
        // unique name keeps the first call a miss.)
        let _store = cache::store_test_guard();
        let task = chromata_task::library::loop_agreement(
            "klein-squared-under-a-deadline",
            chromata_task::library::klein_bottle_doubled_loop(),
        );
        let options = PipelineOptions {
            act_fallback_rounds: 1,
        };
        let cancel = CancelToken::new();
        let budget = Budget::unlimited().with_deadline_in(Duration::from_secs(2));
        let timed = crate::analyze_governed(&task, options, &budget, &cancel);
        let plain = crate::analyze_governed(&task, options, &Budget::unlimited(), &cancel);
        let explore = timed
            .evidence
            .stages
            .iter()
            .find(|s| s.stage == "explore")
            .expect("the ACT fallback ran");
        assert_eq!(explore.cache, CacheEvent::Miss);
        assert_eq!(timed.verdict.to_string(), plain.verdict.to_string());
        // The golden digest of loop-klein-squared at `--act-fallback 1`.
        for analysis in [&timed, &plain] {
            assert_eq!(
                analysis.evidence.deterministic_digest(),
                0x5ef3_0125_6d3c_d9f4
            );
        }
        assert!(plain.evidence.stages[1..]
            .iter()
            .all(|s| s.cache == CacheEvent::Replayed));
    }
}
