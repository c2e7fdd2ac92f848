//! Soundness fuzzing: on random three-process tasks, the pipeline verdict
//! and the ACT baseline must never *contradict* each other.
//!
//! * If the bounded ACT search finds a decision map, the task is solvable
//!   — the pipeline must not say `Unsolvable`.
//! * If the pipeline says `Unsolvable`, no ACT search at any budget may
//!   succeed — checked at the affordable budget.
//!
//! (The converse — pipeline `Solvable` implies ACT finds a map — needs an
//! unbounded round budget and is checked on curated tasks in
//! `pipeline_vs_act.rs`.)

use proptest::prelude::*;

use chromata::{analyze, solve_act, split_all, PipelineOptions};
use chromata_task::Task;
use chromata_topology::{Complex, Simplex, Vertex};

fn task_from_triples(triples: &[(i64, i64, i64)]) -> Option<Task> {
    if triples.is_empty() {
        return None;
    }
    let facet = Simplex::from_iter((0..3).map(|i| Vertex::of(i, 0)));
    let input = Complex::from_facets([facet]);
    let triangles: Vec<Simplex> = triples
        .iter()
        .map(|(a, b, c)| {
            Simplex::from_iter([Vertex::of(0, *a), Vertex::of(1, *b), Vertex::of(2, *c)])
        })
        .collect();
    Task::from_facet_delta("random", input, move |_| triangles.clone()).ok()
}

/// A variant with pinned solos: each process must decide the designated
/// vertex (when it exists in the derived image), making unsolvable
/// samples much more likely.
fn pinned_task(triples: &[(i64, i64, i64)], pins: (usize, usize, usize)) -> Option<Task> {
    let base = task_from_triples(triples)?;
    let pick = |color: u8, idx: usize| -> Option<Simplex> {
        let img = base.delta().image_of(&Simplex::vertex(
            base.input()
                .vertices()
                .find(|v| v.color().index() == color)?
                .clone(),
        ));
        let verts: Vec<Vertex> = img.vertices().cloned().collect();
        Some(Simplex::vertex(verts[idx % verts.len()].clone()))
    };
    let p0 = pick(0, pins.0)?;
    let p1 = pick(1, pins.1)?;
    let p2 = pick(2, pins.2)?;
    let triangles: Vec<Simplex> = base
        .delta()
        .image_of(base.input().facets().next()?)
        .facets()
        .cloned()
        .collect();
    let edges: std::collections::BTreeMap<Simplex, Vec<Simplex>> = base
        .input()
        .simplices_of_dim(1)
        .map(|e| {
            (
                e.clone(),
                base.delta().image_of(e).facets().cloned().collect(),
            )
        })
        .collect();
    Task::from_delta_fn(
        "random-pinned",
        base.input().clone(),
        move |tau| match tau.dimension() {
            2 => triangles.clone(),
            1 => edges[tau].clone(),
            _ => match tau.vertices()[0].color().index() {
                0 => vec![p0.clone()],
                1 => vec![p1.clone()],
                _ => vec![p2.clone()],
            },
        },
    )
    .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn verdicts_never_contradict_act(triples in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 1..7)) {
        let Some(t) = task_from_triples(&triples) else { return Ok(()); };
        let verdict = analyze(&t, PipelineOptions::default()).verdict;
        let act_found = solve_act(&t, 1).is_solvable();
        if act_found {
            prop_assert!(
                !verdict.is_unsolvable(),
                "ACT found a map but the pipeline says unsolvable"
            );
        }
        if verdict.is_unsolvable() {
            prop_assert!(!act_found, "contradiction");
        }
    }

    #[test]
    fn pinned_verdicts_never_contradict_act(
        triples in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 1..7),
        pins in (0usize..4, 0usize..4, 0usize..4),
    ) {
        let Some(t) = pinned_task(&triples, pins) else { return Ok(()); };
        let verdict = analyze(&t, PipelineOptions::default()).verdict;
        let act_found = solve_act(&t, 1).is_solvable();
        if act_found {
            prop_assert!(!verdict.is_unsolvable(), "contradiction on pinned task");
        }
        if verdict.is_unsolvable() {
            prop_assert!(!act_found, "contradiction on pinned task");
        }
    }

    #[test]
    fn degenerate_splits_are_truly_unsolvable(
        triples in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 1..7),
        pins in (0usize..4, 0usize..4, 0usize..4),
    ) {
        // Whenever the splitting reports a degenerate solo image, the
        // ACT baseline must not find a map.
        let Some(t) = pinned_task(&triples, pins) else { return Ok(()); };
        let analysis = analyze(&t, PipelineOptions::default());
        if split_all(&analysis.canonical).degenerate.is_some() {
            prop_assert!(analysis.verdict.is_unsolvable());
            prop_assert!(!solve_act(&t, 1).is_solvable());
        }
    }
}
