//! End-to-end verification of the Figure 7 algorithm (Lemma 5.3) under
//! the exhaustive scheduler and the adversarial color-agnostic oracle.

use chromata_runtime::{
    explore, initial_memory, processes_for, run_random, verify_figure7, ExploreError, Fig7Config,
};
use chromata_task::library::{constant_task, identity_task, two_set_agreement};
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
    assert!(r.outcomes > 10, "rich outcome variety expected");
    assert!(r.states > 100_000, "non-trivial exploration expected");
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
            // The offending schedule is replayable evidence, not noise.
            assert!(!trace.is_empty(), "diagnostic trace must be non-empty");
        }
        Err(other) => panic!("expected a worker panic diagnostic, got {other}"),
        Ok(_) => {
            // If no schedule hits the disconnection the adversary was not
            // strong enough — that would weaken the test, so fail loudly.
            panic!("hourglass negotiation unexpectedly survived all schedules");
        }
    }
}
