//! Complete decidability for two-process tasks (Proposition 5.4).
//!
//! For two processes a task is solvable iff there is a continuous map
//! `|I| → |O|` carried by `Δ` — no splitting, no contractibility: input
//! complexes are 1-dimensional, so the continuous tier (vertex choices +
//! edge connectivity) is a complete decision procedure.
//!
//! chromata-lint: allow(P3): indexing follows the two-color restriction invariants (pairs drawn from the task's own color set); every site is advisory-flagged by P2 for per-site review

use chromata_task::Task;

use crate::continuous::{continuous_map_exists, ContinuousOutcome};

/// Decides a two-process task completely (Proposition 5.4).
///
/// # Panics
///
/// Panics if the task does not have exactly two processes.
///
/// # Examples
///
/// ```
/// use chromata::decide_two_process;
/// use chromata_task::library::{identity_task, two_process_consensus};
///
/// assert!(decide_two_process(&identity_task(2)));
/// assert!(!decide_two_process(&two_process_consensus()));
/// ```
#[must_use]
pub fn decide_two_process(task: &Task) -> bool {
    assert_eq!(
        task.process_count(),
        2,
        "decide_two_process expects a two-process task"
    );
    match continuous_map_exists(task) {
        ContinuousOutcome::Exists { .. } => true,
        ContinuousOutcome::Impossible { .. } => false,
        ContinuousOutcome::Undetermined { reason } => {
            // chromata-lint: allow(P1): dimension <= 1 inputs carry no triangle conditions by construction
            unreachable!("1-dimensional inputs have no triangle conditions: {reason}")
        }
    }
}

/// Synthesizes an explicit solvability witness for a solvable two-process
/// task — the *constructive* content of Proposition 5.4, with no search:
///
/// 1. the continuous tier picks solo outputs `g(x)` and, for each input
///    edge, a walk between them in `Δ(edge)`;
/// 2. the subdivided input edge `Ch^r(e)` is a path of `3^r` segments
///    whose vertex colors alternate, exactly like the walk's; choosing
///    the least `r` with `3^r ≥ walk length` (both odd, so parities
///    agree), the path is folded onto the walk — forward to the end,
///    then zig-zagging in place;
/// 3. the resulting vertex map is simplicial, chromatic and carried by
///    `Δ` by construction, and is re-validated before being returned.
///
/// Returns `None` if the task is unsolvable.
///
/// # Panics
///
/// Panics if the task does not have exactly two processes.
///
/// # Examples
///
/// ```
/// use chromata::synthesize_two_process;
/// use chromata_task::library::{identity_task, two_process_consensus};
///
/// assert!(synthesize_two_process(&identity_task(2)).is_some());
/// assert!(synthesize_two_process(&two_process_consensus()).is_none());
/// ```
#[must_use]
pub fn synthesize_two_process(task: &Task) -> Option<(usize, chromata_topology::SimplicialMap)> {
    use chromata_subdivision::iterated_chromatic_subdivision;
    use chromata_topology::{Graph, Simplex, SimplicialMap, Vertex};

    assert_eq!(
        task.process_count(),
        2,
        "synthesize_two_process expects a two-process task"
    );
    let ContinuousOutcome::Exists { assignment, .. } = continuous_map_exists(task) else {
        return None;
    };

    // Walks per input edge and the required subdivision depth.
    let edges: Vec<Simplex> = task.input().simplices_of_dim(1).cloned().collect();
    let mut walks: Vec<Vec<Vertex>> = Vec::with_capacity(edges.len());
    let mut max_len = 1usize;
    for e in &edges {
        let vs = e.vertices();
        let g = Graph::from_complex(task.delta().image_of(e));
        let walk = g
            .shortest_path(&assignment[&vs[0]], &assignment[&vs[1]])
            .expect("the continuous tier verified connectivity"); // chromata-lint: allow(P1): the continuous tier verified connectivity before this tier runs
        max_len = max_len.max(walk.len() - 1);
        walks.push(walk);
    }
    let mut rounds = 0usize;
    let mut segments = 1usize;
    while segments < max_len {
        rounds += 1;
        segments *= 3;
    }

    let sub = iterated_chromatic_subdivision(task.input(), rounds);
    let mut map = SimplicialMap::new();
    // Solo corners first (also covers isolated input vertices).
    for x in task.input().vertices() {
        let part = sub.carrier.image_of(&Simplex::vertex(x.clone()));
        for corner in part.vertices() {
            map.insert(corner.clone(), assignment[x].clone());
        }
    }
    // Fold each subdivided edge path onto its walk.
    for (e, walk) in edges.iter().zip(&walks) {
        let vs = e.vertices();
        let part = sub.carrier.image_of(e);
        let graph = Graph::from_complex(part);
        // The subdivided edge is a path; orient it from x0's corner.
        let start = sub
            .carrier
            .image_of(&Simplex::vertex(vs[0].clone()))
            .vertices()
            .next()
            .expect("corner exists") // chromata-lint: allow(P1): a nontrivial path complex has exactly two degree-1 corners
            .clone();
        let end = sub
            .carrier
            .image_of(&Simplex::vertex(vs[1].clone()))
            .vertices()
            .next()
            .expect("corner exists") // chromata-lint: allow(P1): a nontrivial path complex has exactly two degree-1 corners
            .clone();
        let path = graph
            .shortest_path(&start, &end)
            .expect("Ch^r of an edge is a connected path"); // chromata-lint: allow(P1): the continuous tier verified connectivity before this tier runs
        let m = path.len() - 1; // 3^rounds segments
        let l = walk.len() - 1;
        debug_assert!(m >= l && (m - l).is_multiple_of(2), "parity argument");
        for (i, p) in path.iter().enumerate() {
            let phi = if i <= l {
                i
            } else {
                // Zig-zag tail: alternate l, l-1, l, …
                l - ((i - l) % 2)
            };
            map.insert(p.clone(), walk[phi].clone());
        }
    }
    debug_assert!(crate::act::validate_witness(&sub, task, &map));
    Some((rounds, map))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::act::solve_act;
    use chromata_task::library::{constant_task, identity_task, two_process_consensus};
    use chromata_task::Task;
    use chromata_topology::{Complex, Simplex, Value, Vertex};

    #[test]
    fn basic_verdicts() {
        assert!(decide_two_process(&identity_task(2)));
        assert!(decide_two_process(&constant_task(2)));
        assert!(!decide_two_process(&two_process_consensus()));
    }

    /// A solvable "path agreement" task: both processes decide vertices of
    /// a path, adjacent or equal, endpoints pinned by solo executions.
    pub(crate) fn path_agreement(len: i64) -> Task {
        let e = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 0)]);
        let input = Complex::from_facets([e]);
        Task::from_delta_fn("path-agreement", input, move |tau| {
            let colors: Vec<u8> = tau.iter().map(|u| u.color().index()).collect();
            match colors.as_slice() {
                [0] => vec![Simplex::vertex(Vertex::of(0, 0))],
                [1] => vec![Simplex::vertex(Vertex::of(1, len))],
                [0, 1] => {
                    let mut out = Vec::new();
                    for k in 0..len {
                        out.push(Simplex::from_iter([Vertex::of(0, k), Vertex::of(1, k + 1)]));
                        out.push(Simplex::from_iter([Vertex::of(0, k + 1), Vertex::of(1, k)]));
                    }
                    for k in 0..=len {
                        out.push(Simplex::from_iter([Vertex::of(0, k), Vertex::of(1, k)]));
                    }
                    out
                }
                other => unreachable!("{other:?}"),
            }
        })
        .expect("valid")
    }

    #[test]
    fn path_agreement_solvable_and_act_agrees() {
        let t = path_agreement(3);
        assert!(decide_two_process(&t));
        // Cross-validate with the ACT baseline: a few subdivision rounds
        // suffice for a path of length 3.
        assert!(solve_act(&t, 3).is_solvable());
    }

    #[test]
    fn disconnected_path_unsolvable() {
        // Solo outputs pinned at the two ends of a path with a missing
        // middle edge: no continuous carried map.
        let e = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 0)]);
        let input = Complex::from_facets([e]);
        let t = Task::from_delta_fn("broken-path", input, |tau| {
            let colors: Vec<u8> = tau.iter().map(|u| u.color().index()).collect();
            match colors.as_slice() {
                [0] => vec![Simplex::vertex(Vertex::of(0, 0))],
                [1] => vec![Simplex::vertex(Vertex::of(1, 9))],
                [0, 1] => vec![
                    Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1)]),
                    Simplex::from_iter([Vertex::of(0, 8), Vertex::of(1, 9)]),
                ],
                other => unreachable!("{other:?}"),
            }
        })
        .expect("valid");
        assert!(!decide_two_process(&t));
        assert!(!solve_act(&t, 2).is_solvable());
        let _ = Value::Int(0);
    }
}
