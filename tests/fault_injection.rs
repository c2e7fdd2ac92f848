//! Crash-fault injection end-to-end: machine-checked wait-freedom of the
//! Figure 7 algorithm under every crash pattern, byte-for-byte replay of
//! seeded faulted schedules, and graceful degradation when the resource
//! budget is starved.

use chromata::{Budget, CancelToken};
use chromata_runtime::{
    explore_crash, initial_memory, processes_for, replay_trace, run_random_faulted,
    verify_figure7_with_crashes, ExploreError, FaultPlan, Fig7Config, Trace, VerifyError,
};
use chromata_task::library::{constant_task, identity_task, two_set_agreement};
use chromata_task::Task;
use chromata_topology::Simplex;

/// The solvable, link-connected library tasks small enough for
/// exhaustive crash-injected exploration.
fn solvable_tasks() -> Vec<Task> {
    vec![identity_task(3), constant_task(3)]
}

fn generous_budget() -> Budget {
    Budget::unlimited()
        .with_max_states(20_000_000)
        .with_max_steps(500)
}

#[test]
fn solvable_tasks_wait_free_under_one_crash() {
    // Wait-freedom is a claim about *every* crash pattern: survivors of
    // any single crash must still decide, and their decisions must form
    // a simplex of Δ applied to the participating inputs.
    for t in solvable_tasks() {
        let r = verify_figure7_with_crashes(&t, &generous_budget(), &CancelToken::new(), 1)
            .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
        assert!(
            r.crashed_outcomes > 0,
            "{}: crash branches must be exercised",
            t.name()
        );
        assert!(
            r.outcomes > r.crashed_outcomes,
            "{}: failure-free outcomes must survive alongside crashed ones",
            t.name()
        );
    }
}

#[test]
fn solvable_tasks_wait_free_under_two_crashes() {
    // With two of three processes crashed the lone survivor must still
    // decide solo — the strongest form of the wait-freedom claim.
    for t in solvable_tasks() {
        let one = verify_figure7_with_crashes(&t, &generous_budget(), &CancelToken::new(), 1)
            .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
        let two = verify_figure7_with_crashes(&t, &generous_budget(), &CancelToken::new(), 2)
            .unwrap_or_else(|e| panic!("{}: {e}", t.name()));
        assert!(
            two.crashed_outcomes > one.crashed_outcomes,
            "{}: two-crash exploration must reach strictly more crashed outcomes",
            t.name()
        );
        assert!(two.states >= one.states, "{}", t.name());
        if t.name() == "identity-3" {
            // Exact counts, as `chromata decide identity` prints them.
            assert_eq!(two.participant_sets, 7);
            assert_eq!(two.outcomes, 55);
            assert_eq!(two.crashed_outcomes, 48);
            assert_eq!(two.states, 385_299);
        }
    }
}

#[test]
fn every_enumerated_fault_plan_leaves_survivors_deciding() {
    // Plan-driven (rather than branch-driven) coverage: for every
    // explicit (process, crash point) plan with at most 2 crashes, run
    // seeded schedules and check the survivors' decisions against Δ of
    // the participating inputs.
    for t in solvable_tasks() {
        let sigma: Simplex = t.input().facets().next().unwrap().clone();
        let config = Fig7Config::new(t.clone());
        let inputs: Vec<_> = sigma.vertices().to_vec();
        for plan in FaultPlan::enumerate(3, 2, 3) {
            for seed in 0..5 {
                let (_, outcome) = run_random_faulted(
                    processes_for(&sigma),
                    initial_memory(),
                    &config,
                    seed,
                    2_000,
                    &plan,
                )
                .unwrap_or_else(|e| panic!("{}: plan [{plan}] seed {seed}: {e}", t.name()));
                let decided: Vec<_> = outcome.decided();
                for (pid, _) in &decided {
                    assert!(
                        !outcome.crashed.contains(pid),
                        "{}: crashed process {pid} decided",
                        t.name()
                    );
                }
                if decided.is_empty() {
                    continue;
                }
                let participating =
                    Simplex::from_iter(outcome.participating.iter().map(|&i| inputs[i].clone()));
                let s = Simplex::from_iter(decided.into_iter().map(|(_, v)| v.clone()));
                assert!(
                    t.delta().carries(&participating, &s),
                    "{}: plan [{plan}] seed {seed}: {s} outside Δ({participating})",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn seeded_fault_plans_replay_byte_for_byte() {
    // A faulted schedule serialized to its one-line form must replay to
    // the identical partial outcome after a full format round-trip.
    let t = two_set_agreement();
    let sigma: Simplex = t.input().facets().next().unwrap().clone();
    let config = Fig7Config::new(t);
    for seed in 0..40 {
        let plan = FaultPlan::sample(seed, 3, 2, 4);
        let (trace, outcome) = run_random_faulted(
            processes_for(&sigma),
            initial_memory(),
            &config,
            seed,
            2_000,
            &plan,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: plan [{plan}]: {e}"));
        let line = trace.to_string();
        let parsed: Trace = line.parse().expect("trace line round-trips");
        assert_eq!(parsed, trace, "seed {seed}: parse({line}) != original");
        let replayed = replay_trace(processes_for(&sigma), initial_memory(), &config, &parsed)
            .unwrap_or_else(|e| panic!("seed {seed}: replay of `{line}`: {e}"));
        assert_eq!(
            replayed, outcome,
            "seed {seed}: replay of `{line}` diverged"
        );
    }
}

#[test]
fn starved_state_budget_degrades_to_replayable_diagnostic() {
    // A state budget far below what two-set agreement needs must surface
    // a structured error whose trace replays to a live frontier state —
    // partial diagnostics, not a panic.
    let t = two_set_agreement();
    let sigma: Simplex = t.input().facets().next().unwrap().clone();
    let config = Fig7Config::new(t);
    let budget = Budget::unlimited().with_max_states(50).with_max_steps(500);
    match explore_crash(
        processes_for(&sigma),
        initial_memory(),
        &config,
        &budget,
        &CancelToken::new(),
        1,
    ) {
        Err(ExploreError::StateBudgetExceeded { max_states, trace }) => {
            assert_eq!(max_states, 50);
            let partial = replay_trace(processes_for(&sigma), initial_memory(), &config, &trace)
                .expect("diagnostic trace replays");
            assert!(
                partial.decided().len() < 3,
                "a starved frontier state cannot be terminal"
            );
        }
        other => panic!("expected a state-budget diagnostic, got {other:?}"),
    }
}

#[test]
fn starved_verification_reports_structured_unknown() {
    // The same starvation through the verification facade: the caller
    // sees `VerifyError::Explore` (the "don't know" verdict), never a
    // claimed violation and never a panic.
    let budget = Budget::unlimited().with_max_states(50).with_max_steps(500);
    match verify_figure7_with_crashes(&two_set_agreement(), &budget, &CancelToken::new(), 1) {
        Err(VerifyError::Explore(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("state budget"), "unhelpful diagnostic: {msg}");
        }
        other => panic!("expected a budget error, got {other:?}"),
    }
}

#[test]
fn cancelled_verification_reports_interrupt() {
    let cancel = CancelToken::new();
    cancel.cancel();
    match verify_figure7_with_crashes(&two_set_agreement(), &generous_budget(), &cancel, 1) {
        Err(VerifyError::Explore(ExploreError::Interrupted { interrupt, .. })) => {
            assert_eq!(interrupt.to_string(), "cancelled");
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
}
