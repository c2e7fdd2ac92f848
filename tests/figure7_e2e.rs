//! End-to-end verification of the Figure 7 algorithm (Lemma 5.3) under
//! the exhaustive scheduler and the adversarial color-agnostic oracle.

use chromata_runtime::{
    explore, explore_crash, find_violation, initial_memory, processes_for, run_random,
    verify_figure7, Budget, CancelToken, ExploreError, Fig7Config,
};
use chromata_task::library::{
    constant_task, identity_task, simple_example_task, two_set_agreement,
};
use chromata_task::Task;
use chromata_topology::Simplex;

#[test]
fn identity_exhaustive() {
    let r = verify_figure7(&identity_task(3), 5_000_000).expect("budget");
    assert_eq!(r.participant_sets, 7);
    // Exact counts, as `chromata verify-fig7 identity` prints them.
    assert_eq!(r.outcomes, 7);
    assert_eq!(r.crashed_outcomes, 0);
    assert_eq!(r.states, 85_311);
}

#[test]
fn constant_exhaustive() {
    let r = verify_figure7(&constant_task(3), 5_000_000).expect("budget");
    assert!(r.outcomes >= 1);
}

#[test]
fn two_set_agreement_exhaustive() {
    // The flagship: link-connected, wait-free unsolvable, yet Figure 7
    // correctly chromatizes every adversarial A_C behaviour — Lemma 5.3
    // is about the transformation, not about realizing A_C.
    let r = verify_figure7(&two_set_agreement(), 20_000_000).expect("budget");
    // Exact counts, as `chromata verify-fig7 2-set-agreement` prints them.
    assert_eq!(r.participant_sets, 7);
    assert_eq!(r.outcomes, 36);
    assert_eq!(r.states, 1_306_047);
}

#[test]
fn fig3_example_exhaustive() {
    // Two input facets: every face of each is a participant set.
    let r = verify_figure7(&simple_example_task(), 5_000_000).expect("budget");
    // Exact counts, as `chromata verify-fig7 fig3-example` prints them.
    assert_eq!(r.participant_sets, 14);
    assert_eq!(r.outcomes, 18);
    assert_eq!(r.states, 254_922);
}

#[test]
fn searches_keep_the_first_schedule_in_breadth_first_order() {
    // The model checker reports, for every state, the first schedule
    // that reaches it in breadth-first order: level by level, process by
    // process, branch by branch, each crash after the branches.
    let t = two_set_agreement();
    let sigma = t.input().facets().next().unwrap().clone();
    let config = Fig7Config::new(t);
    match explore(
        processes_for(&sigma),
        initial_memory(),
        &config,
        100_000,
        500,
    ) {
        Err(ExploreError::StateBudgetExceeded { trace, .. }) => assert_eq!(
            trace.to_string(),
            "0.0 0.0 1.0 1.0 1.2 1.0 2.0 2.0 0.3 2.0 2.0 1.0 0.0 1.0 2.0 2.0"
        ),
        other => panic!("expected a state-budget error, got {other:?}"),
    }
    match explore_crash(
        processes_for(&sigma),
        initial_memory(),
        &config,
        &Budget::unlimited()
            .with_max_states(300_000)
            .with_max_steps(500),
        &CancelToken::new(),
        2,
    ) {
        Err(ExploreError::StateBudgetExceeded { trace, .. }) => assert_eq!(
            trace.to_string(),
            "0.0 0.0 !0 1.0 1.0 2.0 2.0 1.1 2.4 2.0 2.0 1.0 1.0 2.0 2.0 2.0"
        ),
        other => panic!("expected a state-budget error, got {other:?}"),
    }
    let (trace, outcome) = find_violation(
        processes_for(&sigma),
        initial_memory(),
        &config,
        20_000_000,
        500,
        |o| o.iter().all(|v| v.value() == o[0].value()),
    )
    .expect("budget")
    .expect("2-set agreement lets processes disagree");
    assert_eq!(
        trace.to_string(),
        "0.0 0.0 0.0 0.0 0.0 1.0 1.0 1.0 1.0 1.0 2.0 2.0 2.1 2.0 2.0 2.0 2.0 1.0 1.0 0.0 0.0"
    );
    assert_eq!(Simplex::new(outcome).to_string(), "{P0:1, P1:2, P2:1}");
}

#[test]
fn pivots_exist_in_every_two_set_outcome() {
    // Claim 2: in every terminal outcome at least one process decided a
    // vertex of its own color *from the core* — observable as: the
    // decided simplex always has full dimension ≤ 2 and respects Δ, and
    // runs never deadlock (checked by explore's termination).
    let t = two_set_agreement();
    let sigma = t.input().facets().next().unwrap().clone();
    let config = Fig7Config::new(t.clone());
    let explored = explore(
        processes_for(&sigma),
        initial_memory(),
        &config,
        20_000_000,
        500,
    )
    .expect("budget");
    for outcome in &explored.outcomes {
        let s = Simplex::new(outcome.clone());
        assert!(t.delta().carries(&sigma, &s), "outcome {s} outside Δ(σ)");
        // ≤ 2 distinct values decided (the task's safety property).
        let mut vals: Vec<_> = outcome
            .iter()
            .map(|v| v.value().as_int().expect("int outputs"))
            .collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(vals.len() <= 2, "2-set agreement violated: {vals:?}");
    }
}

#[test]
fn termination_bound_is_respected() {
    // Fig. 7 terminates within a number of steps proportional to the
    // longest link path; for these tasks a generous constant suffices on
    // every random schedule.
    for t in [identity_task(3), two_set_agreement()] {
        let sigma: Simplex = t.input().facets().next().unwrap().clone();
        let config = Fig7Config::new(t.clone());
        for seed in 0..200 {
            let outcome = run_random(
                processes_for(&sigma),
                initial_memory(),
                &config,
                seed,
                2_000,
            )
            .unwrap_or_else(|e| panic!("{}: seed {seed}: {e}", t.name()));
            assert!(t.delta().carries(&sigma, &Simplex::new(outcome)));
        }
    }
}

#[test]
fn large_tasks_verified_on_random_schedules() {
    // Exhaustive exploration of adaptive renaming exceeds memory budgets
    // (60 facets × late-binding oracle); seeded random schedules provide
    // broad coverage instead.
    for t in [
        chromata_task::library::adaptive_renaming(),
        chromata_task::library::approximate_agreement(1),
    ] {
        let sigma: Simplex = t.input().facets().next().unwrap().clone();
        let config = Fig7Config::new(t.clone());
        for seed in 0..500 {
            let outcome = run_random(
                processes_for(&sigma),
                initial_memory(),
                &config,
                seed,
                100_000,
            )
            .unwrap_or_else(|e| panic!("{}: seed {seed}: {e}", t.name()));
            let s = Simplex::new(outcome);
            assert!(
                t.delta().carries(&sigma, &s),
                "{}: outcome {s} violates Δ(σ)",
                t.name()
            );
        }
    }
}

#[test]
fn link_connectivity_hypothesis_is_necessary() {
    // Running Fig. 7 on the (not link-connected) hourglass must fail:
    // some schedule drives the negotiation into a disconnected link. The
    // worker's diagnostic panic is caught by the scheduler and surfaced
    // as a structured error with a replayable schedule — which we
    // assert, demonstrating that Lemma 5.3's hypothesis is not
    // incidental.
    let t: Task = chromata_task::library::hourglass();
    let sigma = t.input().facets().next().unwrap().clone();
    let config = Fig7Config::new(t);
    let result = explore(
        processes_for(&sigma),
        initial_memory(),
        &config,
        20_000_000,
        500,
    );
    match result {
        Err(ExploreError::WorkerPanicked { message, trace }) => {
            assert!(
                message.contains("not link-connected"),
                "unexpected panic message: {message}"
            );
            assert!(
                message.contains("anchors P1:1 and P2:0"),
                "unexpected anchors: {message}"
            );
            // The offending schedule is replayable evidence, not noise:
            // the first one in breadth-first order.
            assert_eq!(
                trace.to_string(),
                "0.0 0.0 1.0 1.0 1.1 2.0 2.0 2.3 2.0 2.0 1.0 1.0 2.0 2.0 1.0 1.0 1.0 1.0 2.0 2.0 1.0"
            );
        }
        Err(other) => panic!("expected a worker panic diagnostic, got {other}"),
        Ok(_) => {
            // If no schedule hits the disconnection the adversary was not
            // strong enough — that would weaken the test, so fail loudly.
            panic!("hourglass negotiation unexpectedly survived all schedules");
        }
    }
}
