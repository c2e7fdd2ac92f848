//! End-to-end verification of the Figure 7 algorithm against a task
//! specification (the executable content of Lemma 5.3).
//!
//! One verifier, [`verify_figure7_with_crashes`], runs the crate's model
//! checker ([`crate::fault::explore_crash`]) over every participant set,
//! every interleaving, every adversarial-oracle branch and every crash
//! pattern with up to `max_crashes` crash faults, machine-checking
//! *wait-freedom*: survivors must decide, and their outputs must form a
//! simplex of `Δ(participants)` where the participating set excludes
//! processes that crashed before announcing their input.
//! [`verify_figure7`] is its failure-free case (`max_crashes = 0`): every
//! outcome is then complete and the participating set is the whole
//! participant set, so the same checks are exactly Lemma 5.3's.
//!
//! Specification violations are structured [`VerifyError::Violation`]s
//! (carrying the participant set and the offending outcome), not panics,
//! so callers can degrade gracefully and report partial diagnostics.

use chromata_task::Task;
use chromata_topology::{Budget, CancelToken, Simplex};

use crate::color_fix::{initial_memory, processes_for, Fig7Config};
use crate::explore::ExploreError;
use crate::fault::explore_crash;

/// Aggregate statistics from exhaustively verifying Figure 7 on a task.
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// Participant sets exercised (faces of the input facets).
    pub participant_sets: usize,
    /// Distinct terminal (possibly partial) outcomes observed, all
    /// verified.
    pub outcomes: usize,
    /// Outcomes in which at least one process crashed (0 when no crash
    /// was injected).
    pub crashed_outcomes: usize,
    /// Total distinct (process states, crash set, memory) states.
    pub states: usize,
}

/// Why verification failed: either the exploration could not finish, or
/// an outcome actually violates the specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// Exploration failed (budget, cancellation, stuck process, panic) —
    /// carries a replayable trace where one exists.
    Explore(ExploreError),
    /// An execution produced a specification-violating outcome: Lemma 5.3
    /// fails empirically on this task.
    Violation {
        /// The task under verification.
        task: String,
        /// The participant set (and, for crash runs, the participating
        /// subset) the outcome was checked against.
        participants: String,
        /// What was wrong.
        detail: String,
    },
}

impl From<ExploreError> for VerifyError {
    fn from(e: ExploreError) -> Self {
        VerifyError::Explore(e)
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Explore(e) => write!(f, "verification did not finish: {e}"),
            VerifyError::Violation {
                task,
                participants,
                detail,
            } => write!(
                f,
                "specification violation on task {task}, participants {participants}: {detail}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Explore(e) => Some(e),
            VerifyError::Violation { .. } => None,
        }
    }
}

/// Exhaustively runs Figure 7 on every face of every input facet of
/// `task`, over every interleaving and every adversarial-oracle branch —
/// and checks that each terminal outcome is a simplex of
/// `Δ(participants)` with every process deciding a vertex of its own
/// color: [`verify_figure7_with_crashes`] with no crash injected, a
/// 500-step bound and no deadline.
///
/// # Errors
///
/// [`VerifyError::Explore`] if the state budget is exhausted;
/// [`VerifyError::Violation`] if Lemma 5.3 fails empirically.
pub fn verify_figure7(task: &Task, max_states: usize) -> Result<VerificationReport, VerifyError> {
    verify_figure7_with_crashes(
        task,
        &Budget::unlimited()
            .with_max_states(max_states)
            .with_max_steps(500),
        &CancelToken::new(),
        0,
    )
}

/// Machine-checks *wait-freedom* of Figure 7 (Lemma 5.3 under crashes):
/// for every participant set and every crash pattern with at most
/// `max_crashes` crash faults injected at every possible point, every
/// surviving process decides, and the survivors' outputs form a simplex
/// of `Δ(π)` where `π` is the *participating* set — the processes that
/// announced their input before crashing (a process crashed before its
/// first step is indistinguishable from one that never arrived).
///
/// This subsumes checking every explicit "crash `p` after step `k`"
/// [`crate::fault::FaultPlan`]: crashes only remove future steps, so
/// branching the crash decision at every scheduling point reaches
/// exactly the same partial executions.
///
/// # Errors
///
/// [`VerifyError::Explore`] on budget exhaustion / interruption (with a
/// replayable trace where one exists); [`VerifyError::Violation`] if a
/// survivor is undecided or the surviving outputs escape the carrier.
pub fn verify_figure7_with_crashes(
    task: &Task,
    budget: &Budget,
    cancel: &CancelToken,
    max_crashes: usize,
) -> Result<VerificationReport, VerifyError> {
    let mut report = VerificationReport::default();
    for sigma in task.input().facets() {
        for tau in sigma.faces() {
            report.participant_sets += 1;
            let config = Fig7Config::new(task.clone());
            let explored = explore_crash(
                processes_for(&tau),
                initial_memory(),
                &config,
                budget,
                cancel,
                max_crashes,
            )?;
            report.states += explored.states;
            let inputs: Vec<_> = tau.iter().collect();
            for outcome in &explored.outcomes {
                report.outcomes += 1;
                if !outcome.crashed.is_empty() {
                    report.crashed_outcomes += 1;
                }
                // Wait-freedom: every non-crashed process decided.
                for (i, input) in inputs.iter().enumerate() {
                    if !outcome.crashed.contains(&i) && outcome.decisions[i].is_none() {
                        return Err(violation(
                            task,
                            &tau,
                            format!(
                                "survivor {} is undecided in terminal outcome {outcome:?}",
                                input.color()
                            ),
                        ));
                    }
                }
                let decided = outcome.decided();
                if decided.is_empty() {
                    continue; // everyone crashed undecided; nothing to check
                }
                // Own colors.
                for &(i, v) in &decided {
                    if inputs[i].color() != v.color() {
                        return Err(violation(
                            task,
                            &tau,
                            format!(
                                "process {} decided a foreign-colored vertex {v}",
                                inputs[i].color()
                            ),
                        ));
                    }
                }
                // Carrier: decisions form a simplex of Δ(participating).
                let participating =
                    Simplex::from_iter(outcome.participating.iter().map(|&i| inputs[i].clone()));
                let s = Simplex::from_iter(decided.iter().map(|(_, v)| (*v).clone()));
                if !task.delta().carries(&participating, &s) {
                    return Err(VerifyError::Violation {
                        task: task.name().to_owned(),
                        participants: format!("{tau} (participating: {participating})"),
                        detail: format!(
                            "surviving outputs {s} escape Δ({participating}) \
                             [crashed: {:?}]",
                            outcome.crashed
                        ),
                    });
                }
            }
        }
    }
    Ok(report)
}

fn violation(task: &Task, tau: &Simplex, detail: String) -> VerifyError {
    VerifyError::Violation {
        task: task.name().to_owned(),
        participants: tau.to_string(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_task::library::{constant_task, identity_task};

    #[test]
    fn identity_fully_verified() {
        let r = verify_figure7(&identity_task(3), 2_000_000).expect("budget");
        assert_eq!(r.participant_sets, 7, "all faces of the input triangle");
        assert!(r.outcomes >= 1);
    }

    #[test]
    fn constant_fully_verified() {
        let r = verify_figure7(&constant_task(3), 2_000_000).expect("budget");
        assert!(r.outcomes >= 1);
        assert!(r.states > 0);
    }

    #[test]
    fn starved_budget_surfaces_a_structured_error() {
        let err = verify_figure7(&identity_task(3), 5).expect_err("5 states cannot suffice");
        match err {
            VerifyError::Explore(ExploreError::StateBudgetExceeded { max_states: 5, .. }) => {}
            other => panic!("expected a state-budget error, got {other:?}"),
        }
        assert!(err.to_string().contains("did not finish"));
    }

    #[test]
    fn constant_task_wait_free_under_one_crash() {
        // Solo + pair participant sets with a single injected crash: fast
        // enough for a unit test; the full 2-crash sweeps live in the
        // fault-injection integration tests.
        let t = constant_task(3);
        let r = verify_figure7_with_crashes(
            &t,
            &Budget::unlimited()
                .with_max_states(2_000_000)
                .with_max_steps(500),
            &CancelToken::new(),
            1,
        )
        .expect("constant task is wait-free under crashes");
        assert_eq!(r.participant_sets, 7);
        assert!(r.crashed_outcomes > 0, "crash branches were explored");
        assert!(r.outcomes > r.crashed_outcomes, "crash-free outcomes too");
    }
}
