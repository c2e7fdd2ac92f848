//! Baseline solvability check via the Herlihy–Shavit ACT (paper, §1.1,
//! §2.4, §5.1).
//!
//! A task is solvable iff for *some* `r` there is a chromatic simplicial
//! map `Ch^r(I) → O` carried by `Δ`. Checking this requires picking an `r`
//! a priori — the very difficulty the paper's characterization removes.
//! This module implements the check as a backtracking constraint search;
//! it serves as the comparison baseline for the benchmark suite and as a
//! cross-validation oracle for the pipeline (a found map certifies
//! solvability; exhausting the round budget is inconclusive).
//!
//! chromata-lint: allow(P3): indexing follows the carrier/chromatic arity invariants of subdivision simplices established at construction; every site is advisory-flagged by P2 for per-site review

use std::collections::BTreeMap;

use chromata_subdivision::{iterated_chromatic_subdivision, Subdivision};
use chromata_task::Task;
use chromata_topology::{Budget, CancelToken, Interrupt, Simplex, SimplicialMap, Vertex};

/// How many backtracking nodes the search expands between cooperative
/// [`Budget::check`] calls.
const CHECK_INTERVAL: usize = 4096;

/// Outcome of the bounded ACT search.
#[derive(Clone, Debug)]
pub enum ActOutcome {
    /// A chromatic simplicial map `Ch^r(I) → O` carried by `Δ` was found:
    /// the task is solvable by an `r`-round immediate-snapshot protocol.
    Solvable {
        /// Number of subdivision rounds used.
        rounds: usize,
        /// The decision map (a solvability witness).
        map: SimplicialMap,
    },
    /// No map exists for any `r ≤ max_rounds`; inconclusive (the paper's
    /// point: the original characterization is only semi-decidable).
    Exhausted {
        /// The round budget that was exhausted.
        max_rounds: usize,
    },
    /// The governed search was cancelled or ran out of wall-clock time
    /// before the round budget was exhausted.
    Interrupted {
        /// Rounds fully searched (without finding a map) before the
        /// interruption — partial diagnostics for the caller's report.
        rounds_completed: usize,
        /// Whether cancellation or the deadline fired.
        interrupt: Interrupt,
    },
}

impl ActOutcome {
    /// Whether a solvability witness was found.
    #[must_use]
    pub fn is_solvable(&self) -> bool {
        matches!(self, ActOutcome::Solvable { .. })
    }
}

/// Searches for a chromatic simplicial decision map from `Ch^r(I)` for
/// `r = 0, 1, …, max_rounds`.
///
/// # Examples
///
/// ```
/// use chromata::solve_act;
/// use chromata_task::library::{constant_task, consensus};
///
/// assert!(solve_act(&constant_task(3), 1).is_solvable());
/// assert!(!solve_act(&consensus(2), 2).is_solvable()); // FLP
/// ```
#[must_use]
pub fn solve_act(task: &Task, max_rounds: usize) -> ActOutcome {
    solve_act_governed_with_stats(
        task,
        &Budget::unlimited().with_max_act_rounds(max_rounds),
        &CancelToken::new(),
    )
    .0
}

/// [`solve_act`] under a [`Budget`] and [`CancelToken`]: rounds
/// `0..=budget.max_act_rounds` are searched in order (the search is
/// inherently escalating — each round is an order of magnitude larger
/// than the last), with the deadline and the token checked every few
/// thousand backtracking nodes. Interruption degrades to
/// [`ActOutcome::Interrupted`] carrying the number of rounds already
/// ruled out. Also reports the total number of backtracking nodes
/// expanded across every round searched — the state counter the verdict
/// engine's evidence chains record for the exploration stage.
#[must_use]
pub fn solve_act_governed_with_stats(
    task: &Task,
    budget: &Budget,
    cancel: &CancelToken,
) -> (ActOutcome, u64) {
    let max_rounds = budget.max_act_rounds;
    let mut total_nodes = 0u64;
    for rounds in 0..=max_rounds {
        if let Err(interrupt) = budget.check(cancel) {
            return (
                ActOutcome::Interrupted {
                    rounds_completed: rounds,
                    interrupt,
                },
                total_nodes,
            );
        }
        let sub = iterated_chromatic_subdivision(task.input(), rounds);
        let (found, nodes) = find_decision_map_counted(&sub, task, budget, cancel);
        total_nodes += nodes;
        match found {
            Ok(Some(map)) => return (ActOutcome::Solvable { rounds, map }, total_nodes),
            Ok(None) => {}
            Err(interrupt) => {
                return (
                    ActOutcome::Interrupted {
                        rounds_completed: rounds,
                        interrupt,
                    },
                    total_nodes,
                )
            }
        }
    }
    (ActOutcome::Exhausted { max_rounds }, total_nodes)
}

/// Searches for a chromatic simplicial map `sub.complex → task.output()`
/// carried by `Δ` relative to the subdivision's carrier map.
///
/// Backtracking over protocol-complex vertices with incremental
/// consistency checks: a partial assignment survives only while the image
/// of every constrained simplex's assigned part stays inside the
/// corresponding `Δ(τ)`.
#[must_use]
pub fn find_decision_map(sub: &Subdivision, task: &Task) -> Option<SimplicialMap> {
    // An unlimited budget with a fresh token can never interrupt.
    find_decision_map_counted(sub, task, &Budget::unlimited(), &CancelToken::new())
        .0
        .ok()
        .flatten()
}

/// [`find_decision_map`] with cooperative interruption — the deadline
/// and the token are checked every [`CHECK_INTERVAL`] backtracking
/// nodes, and an interruption is returned as the [`Interrupt`] —
/// additionally reporting the number of backtracking nodes the search
/// expanded (even when interrupted).
pub(crate) fn find_decision_map_counted(
    sub: &Subdivision,
    task: &Task,
    budget: &Budget,
    cancel: &CancelToken,
) -> (Result<Option<SimplicialMap>, Interrupt>, u64) {
    let vertices: Vec<Vertex> = sub.complex.vertices().cloned().collect();
    let vindex: BTreeMap<&Vertex, usize> =
        vertices.iter().enumerate().map(|(i, v)| (v, i)).collect();

    // Domains: vertices of Δ(carrier(v)) with matching color.
    let mut domains: Vec<Vec<Vertex>> = Vec::with_capacity(vertices.len());
    for v in &vertices {
        let Some(tau) = sub.carrier.minimal_carrier_of_vertex(v) else {
            return (Ok(None), 0);
        };
        let Some(img) = task.delta().get(tau) else {
            return (Ok(None), 0);
        };
        let dom: Vec<Vertex> = img
            .vertices()
            .filter(|w| w.color() == v.color())
            .cloned()
            .collect();
        if dom.is_empty() {
            return (Ok(None), 0);
        }
        domains.push(dom);
    }

    // Constraints: for every input simplex τ and every facet ξ of the
    // subdivision of τ, f(ξ) must be a simplex of Δ(τ).
    struct Constraint {
        vars: Vec<usize>,
        tau: Simplex,
    }
    let mut constraints: Vec<Constraint> = Vec::new();
    for (tau, part) in sub.carrier.iter() {
        for xi in part.facets() {
            constraints.push(Constraint {
                vars: xi.iter().map(|v| vindex[v]).collect(),
                tau: tau.clone(),
            });
        }
    }
    // For fast lookup: constraints touching each variable.
    let mut touching: Vec<Vec<usize>> = vec![Vec::new(); vertices.len()];
    for (ci, c) in constraints.iter().enumerate() {
        for &v in &c.vars {
            touching[v].push(ci);
        }
    }

    // Order variables by ascending domain size (fail-first).
    let mut order: Vec<usize> = (0..vertices.len()).collect();
    order.sort_by_key(|&i| domains[i].len());
    let mut position = vec![usize::MAX; vertices.len()];
    for (k, &i) in order.iter().enumerate() {
        position[i] = k;
    }

    let mut assignment: Vec<Option<Vertex>> = vec![None; vertices.len()];

    fn consistent(
        assignment: &[Option<Vertex>],
        constraints: &[Constraint],
        touching: &[Vec<usize>],
        task: &Task,
        var: usize,
    ) -> bool {
        for &ci in &touching[var] {
            let c = &constraints[ci];
            let assigned: Vec<Vertex> = c
                .vars
                .iter()
                .filter_map(|&v| assignment[v].clone())
                .collect();
            let img = Simplex::new(assigned);
            if !task.delta().carries(&c.tau, &img) {
                return false;
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        k: usize,
        order: &[usize],
        domains: &[Vec<Vertex>],
        assignment: &mut Vec<Option<Vertex>>,
        constraints: &[Constraint],
        touching: &[Vec<usize>],
        task: &Task,
        nodes: &mut usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<bool, Interrupt> {
        if k == order.len() {
            return Ok(true);
        }
        // Cooperative checkpoint: cheap counter, rare clock read.
        *nodes += 1;
        if nodes.is_multiple_of(CHECK_INTERVAL) {
            budget.check(cancel)?;
        }
        let var = order[k];
        for cand in &domains[var] {
            assignment[var] = Some(cand.clone());
            if consistent(assignment, constraints, touching, task, var)
                && search(
                    k + 1,
                    order,
                    domains,
                    assignment,
                    constraints,
                    touching,
                    task,
                    nodes,
                    budget,
                    cancel,
                )?
            {
                return Ok(true);
            }
            assignment[var] = None;
        }
        Ok(false)
    }

    let mut nodes = 0usize;
    let found = search(
        0,
        &order,
        &domains,
        &mut assignment,
        &constraints,
        &touching,
        task,
        &mut nodes,
        budget,
        cancel,
    );
    let expanded = nodes as u64;
    match found {
        Err(interrupt) => (Err(interrupt), expanded),
        Ok(true) => (
            Ok(Some(
                vertices
                    .into_iter()
                    .zip(assignment)
                    .map(|(v, w)| (v, w.expect("search completed"))) // chromata-lint: allow(P1): the backtracking search reports success only with a full assignment
                    .collect(),
            )),
            expanded,
        ),
        Ok(false) => (Ok(None), expanded),
    }
}

/// Independently re-validates a witness returned by [`solve_act`]: the map
/// must be total, chromatic, simplicial into the output complex, and
/// carried by `Δ` on every subdivided input simplex.
#[must_use]
pub fn validate_witness(sub: &Subdivision, task: &Task, map: &SimplicialMap) -> bool {
    if !map.is_total_on(&sub.complex) || !map.is_chromatic() {
        return false;
    }
    if !map.is_simplicial(&sub.complex, task.output()) {
        return false;
    }
    for (tau, part) in sub.carrier.iter() {
        for xi in part.facets() {
            let Some(img) = map.apply(xi) else {
                return false;
            };
            if !task.delta().carries(tau, &img) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_subdivision::iterated_chromatic_subdivision;
    use chromata_task::library::{
        consensus, constant_task, hourglass, identity_task, majority_consensus,
        two_process_consensus,
    };

    #[test]
    fn trivial_tasks_solvable_at_zero_rounds() {
        for t in [identity_task(3), constant_task(3)] {
            match solve_act(&t, 0) {
                ActOutcome::Solvable { rounds, map } => {
                    assert_eq!(rounds, 0);
                    let sub = iterated_chromatic_subdivision(t.input(), 0);
                    assert!(validate_witness(&sub, &t, &map));
                }
                other => panic!("{} must be solvable, got {other:?}", t.name()),
            }
        }
    }

    #[test]
    fn two_process_consensus_unsolvable() {
        // FLP: no map at any round; we check a small budget.
        assert!(!solve_act(&two_process_consensus(), 2).is_solvable());
    }

    #[test]
    fn three_process_consensus_unsolvable() {
        assert!(!solve_act(&consensus(3), 1).is_solvable());
    }

    #[test]
    fn hourglass_unsolvable_at_small_rounds() {
        assert!(!solve_act(&hourglass(), 1).is_solvable());
    }

    #[test]
    fn majority_consensus_unsolvable_at_small_rounds() {
        assert!(!solve_act(&majority_consensus(), 1).is_solvable());
    }

    #[test]
    fn cancelled_act_search_degrades_to_interrupted() {
        let cancel = CancelToken::new();
        cancel.cancel();
        match solve_act_governed_with_stats(
            &consensus(3),
            &Budget::unlimited().with_max_act_rounds(2),
            &cancel,
        )
        .0
        {
            ActOutcome::Interrupted {
                rounds_completed: 0,
                interrupt: Interrupt::Cancelled,
            } => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn elapsed_deadline_degrades_to_interrupted() {
        let budget = Budget::unlimited()
            .with_max_act_rounds(2)
            .with_deadline_in(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        match solve_act_governed_with_stats(&consensus(3), &budget, &CancelToken::new()).0 {
            ActOutcome::Interrupted {
                interrupt: Interrupt::DeadlineExceeded,
                ..
            } => {}
            other => panic!("expected deadline interruption, got {other:?}"),
        }
    }

    #[test]
    fn witness_validation_rejects_corruption() {
        let t = constant_task(3);
        let ActOutcome::Solvable { rounds, map } = solve_act(&t, 0) else {
            panic!("constant task is solvable");
        };
        let sub = iterated_chromatic_subdivision(t.input(), rounds);
        assert!(validate_witness(&sub, &t, &map));
        // Corrupt one assignment's color.
        let mut bad = map.clone();
        let (v, _) = bad
            .iter()
            .next()
            .map(|(a, b)| (a.clone(), b.clone()))
            .unwrap();
        bad.insert(v.clone(), Vertex::of((v.color().index() + 1) % 3, 0));
        assert!(!validate_witness(&sub, &t, &bad));
    }
}
