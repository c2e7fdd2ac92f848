//! Existence of a continuous map `|I| → |O'|` carried by `Δ'` (paper, §5).
//!
//! For a link-connected (split) three-process task the paper's Theorem 5.1
//! reduces solvability to the existence of a continuous carried map. For
//! 2-dimensional complexes that existence decomposes as:
//!
//! 1. **vertices** — choose `g(x) ∈ Δ'(x)` for every input vertex (the
//!    image of a point is a point of the 0-dimensional `|Δ'(x)|`);
//! 2. **edges** — for each input edge `e = {x, x'}`, `g(x)` and `g(x')`
//!    must lie in one connected component of `Δ'(e)` (the image of `|e|`
//!    is a path);
//! 3. **triangles** — for each input triangle `σ`, the boundary loop
//!    (concatenated edge paths) must be null-homotopic in `Δ'(σ)`, with
//!    the *same* path used by the two triangles sharing an edge.
//!
//! Steps 1–2 are decidable outright. Step 3 is the undecidable residue
//! (§7); it is attacked in two exact tiers and one sound tier:
//!
//! * if every relevant `Δ'(σ)` component is simply connected (Tietze-
//!   trivial edge-path group), any paths work — exact **yes**;
//! * the joint abelianized system — "can boundary corrections and
//!   path re-routings cancel every triangle loop in H₁?" — is an integer
//!   linear feasibility problem; infeasibility is a sound **no**, and
//!   feasibility is exact when every `Δ'(σ)`'s fundamental group is
//!   evidently abelian;
//! * otherwise **unknown**.
//!
//! chromata-lint: allow(P3): indexing throughout follows the 2-dimensional complex structure (vertex/edge/triangle tables are built together and indices are cross-derived from their lengths); every site is advisory-flagged by P2 for per-site review

use std::collections::BTreeMap;

use chromata_algebra::{is_feasible, EdgePathGroup, IntMatrix};
use chromata_task::Task;
use chromata_topology::{Graph, Simplex, Vertex};

use crate::stages::artifacts::{LinkGraphs, Presentations};

/// The three-valued outcome of the continuous-map existence check.
#[derive(Clone, Debug)]
pub enum ContinuousOutcome {
    /// A carried continuous map exists; the witness records the vertex
    /// assignment `g` and how each triangle condition was discharged.
    Exists {
        /// Chosen output vertex for each input vertex.
        assignment: BTreeMap<Vertex, Vertex>,
        /// Human-readable note on which tier certified each triangle.
        certificates: Vec<String>,
    },
    /// No carried continuous map exists (sound certificate).
    Impossible {
        /// Why every vertex assignment fails.
        reason: ImpossibilityReason,
    },
    /// Some assignments could be neither certified nor refuted.
    Undetermined {
        /// Description of the first undetermined assignment's obstacle.
        reason: String,
    },
}

/// Why no assignment can yield a carried continuous map.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ImpossibilityReason {
    /// Some input vertex has an empty `Δ'(x)` (cannot happen for valid
    /// tasks; defensive).
    EmptyVertexImage(Vertex),
    /// Every vertex assignment violates an edge-connectivity constraint;
    /// the recorded edge fails for all choices (Corollary 5.5 / 5.6
    /// situations).
    SkeletonDisconnected {
        /// An input edge witnessing the failure of the last assignment
        /// tried.
        edge: Simplex,
    },
    /// Edge conditions are satisfiable but every assignment fails the
    /// abelianized (H₁) triangle condition.
    HomologyObstruction {
        /// An input triangle witnessing the failure of the last
        /// assignment tried.
        triangle: Simplex,
    },
}

/// Decides (as far as the tiers allow) whether a continuous map
/// `|I| → |O'|` carried by the task's `Δ` exists.
///
/// The task should be link-connected (post-splitting) for the paper's
/// Theorem 5.1 to equate the outcome with solvability; the function itself
/// is meaningful for any task of dimension ≤ 2 (for the *colorless*
/// reading of the hourglass gap, it is also run pre-splitting).
#[must_use]
pub fn continuous_map_exists(task: &Task) -> ContinuousOutcome {
    let links = LinkGraphs::build(task);
    let presentations = Presentations::build(task, &links);
    continuous_map_exists_with(&links, &presentations).0
}

/// [`continuous_map_exists`] against precomputed stage artifacts, also
/// returning how many full vertex assignments were triangle-checked.
/// The engine's homology stage calls this; the artifacts are pure
/// functions of `task`, so the outcome is identical to the plain entry
/// point.
pub(crate) fn continuous_map_exists_with(
    links: &LinkGraphs,
    presentations: &Presentations,
) -> (ContinuousOutcome, u64) {
    // Vertex domains, in vertex order: the artifact keeps empty domains
    // (it is a total function of the task), so the defensive first-empty
    // return happens here.
    if let Some(x) = links.first_empty_domain() {
        return (
            ContinuousOutcome::Impossible {
                reason: ImpossibilityReason::EmptyVertexImage(x.clone()),
            },
            0,
        );
    }

    let vindex: BTreeMap<&Vertex, usize> = links
        .vertices
        .iter()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();

    let mut ctx = SearchCtx {
        links,
        presentations,
        vindex: &vindex,
        edge_failure: None,
        homology_failure: None,
        undetermined: None,
        assignments_checked: 0,
    };
    let mut assignment: Vec<Option<Vertex>> = vec![None; links.vertices.len()];
    let found = ctx.search(0, &mut assignment);
    let checked = ctx.assignments_checked;

    let outcome = match found {
        Some((assignment, certificates)) => ContinuousOutcome::Exists {
            assignment,
            certificates,
        },
        None => {
            if let Some(reason) = ctx.undetermined {
                ContinuousOutcome::Undetermined { reason }
            } else if let Some(triangle) = ctx.homology_failure {
                ContinuousOutcome::Impossible {
                    reason: ImpossibilityReason::HomologyObstruction { triangle },
                }
            } else if let Some(edge) = ctx.edge_failure {
                ContinuousOutcome::Impossible {
                    reason: ImpossibilityReason::SkeletonDisconnected { edge },
                }
            } else {
                // No vertices at all: the empty map exists.
                ContinuousOutcome::Exists {
                    assignment: BTreeMap::new(),
                    certificates: Vec::new(),
                }
            }
        }
    };
    (outcome, checked)
}

/// Search state for the assignment enumeration.
struct SearchCtx<'a> {
    links: &'a LinkGraphs,
    presentations: &'a Presentations,
    vindex: &'a BTreeMap<&'a Vertex, usize>,
    edge_failure: Option<Simplex>,
    homology_failure: Option<Simplex>,
    undetermined: Option<String>,
    assignments_checked: u64,
}

impl SearchCtx<'_> {
    /// Depth-first enumeration with edge pruning; returns the first
    /// assignment whose triangle conditions are certified.
    fn search(
        &mut self,
        k: usize,
        assignment: &mut Vec<Option<Vertex>>,
    ) -> Option<(BTreeMap<Vertex, Vertex>, Vec<String>)> {
        if k == self.links.vertices.len() {
            if self.links.vertices.is_empty() {
                return None;
            }
            let g: BTreeMap<Vertex, Vertex> = self
                .links
                .vertices
                .iter()
                .zip(assignment.iter())
                .map(|(x, w)| (x.clone(), w.clone().expect("full assignment"))) // chromata-lint: allow(P1): the search succeeds only once every vertex is assigned
                .collect();
            self.assignments_checked += 1;
            return match check_triangles(self.links, self.presentations, &g) {
                TriangleCheck::Pass(certs) => Some((g, certs)),
                TriangleCheck::HomologyFail(t) => {
                    self.homology_failure = Some(t);
                    None
                }
                TriangleCheck::Unknown(msg) => {
                    if self.undetermined.is_none() {
                        self.undetermined = Some(msg);
                    }
                    None
                }
            };
        }
        'candidates: for cand in &self.links.domains[k] {
            assignment[k] = Some(cand.clone());
            // Edge pruning: every fully assigned edge must connect.
            for (e, graph) in self.links.edges.iter().zip(&self.links.edge_graphs) {
                let vs = e.vertices();
                let (Some(a), Some(b)) = (
                    assignment[self.vindex[&vs[0]]].as_ref(),
                    assignment[self.vindex[&vs[1]]].as_ref(),
                ) else {
                    continue;
                };
                if !graph.connected(a, b) {
                    self.edge_failure = Some(e.clone());
                    assignment[k] = None;
                    continue 'candidates;
                }
            }
            if let Some(r) = self.search(k + 1, assignment) {
                assignment[k] = None;
                return Some(r);
            }
            assignment[k] = None;
        }
        None
    }
}

enum TriangleCheck {
    Pass(Vec<String>),
    HomologyFail(Simplex),
    Unknown(String),
}

/// Checks the triangle (contractibility) conditions for a full vertex
/// assignment, consulting the precomputed presentation artifacts.
fn check_triangles(
    links: &LinkGraphs,
    presentations: &Presentations,
    g: &BTreeMap<Vertex, Vertex>,
) -> TriangleCheck {
    let triangles = &links.triangles;
    let edges = &links.edges;
    let edge_graphs = &links.edge_graphs;
    if triangles.is_empty() {
        return TriangleCheck::Pass(vec!["1-dimensional input: no triangle conditions".into()]);
    }

    // Per-triangle, two direct tiers: (a) the image component is simply
    // connected (any path choice works); (b) the base-path boundary loop
    // is certified contractible by the tiered word problem (exact e.g. in
    // free groups — the specific loop may contract even when some loop
    // does not). Tier (b) commits to the base paths everywhere, so it is
    // only usable when *every* non-simply-connected triangle passes it;
    // otherwise re-routing a shared edge for one triangle could break
    // another's certificate, and we fall through to the joint abelianized
    // system over all triangles.
    let mut certs = Vec::new();
    let mut nontrivial: Vec<usize> = Vec::new();
    let mut base_certs = Vec::new();
    let mut all_base_ok = true;
    let mut abelian_ok = true;
    for (ti, sigma) in triangles.iter().enumerate() {
        let summary = presentations.per_triangle[ti].summary_for(&g[&sigma.vertices()[0]]);
        if summary.is_trivial() {
            certs.push(format!(
                "triangle {sigma}: image component simply connected"
            ));
            continue;
        }
        nontrivial.push(ti);
        if !summary.is_evidently_abelian() {
            abelian_ok = false;
        }
        let base_trivial = base_loop_word(sigma, edges, edge_graphs, g, summary.group())
            .is_some_and(|word| {
                summary.word_triviality(&word) == chromata_algebra::Triviality::Trivial
            });
        if base_trivial {
            base_certs.push(format!(
                "triangle {sigma}: base boundary loop contractible (word problem)"
            ));
        } else {
            all_base_ok = false;
        }
    }
    if nontrivial.is_empty() {
        return TriangleCheck::Pass(certs);
    }
    if all_base_ok {
        certs.extend(base_certs);
        return TriangleCheck::Pass(certs);
    }
    let needs_h1 = nontrivial;

    // Joint H1 system over all triangles with non-trivial π1 components.
    match joint_h1_feasible(links, presentations, g) {
        false => TriangleCheck::HomologyFail(triangles[needs_h1[0]].clone()),
        true if abelian_ok => {
            certs.push(format!(
                "joint H1 system feasible; {} non-simply-connected triangle image(s) all evidently abelian",
                needs_h1.len()
            ));
            TriangleCheck::Pass(certs)
        }
        true => TriangleCheck::Unknown(format!(
            "H1 feasible but π1 of {} triangle image(s) not certified abelian — contractibility undecided",
            needs_h1.len()
        )),
    }
}

/// The boundary loop of `sigma` along the base (shortest) paths, as a
/// word in the edge-path group of its image component. `None` if a path
/// is missing or leaves the component (cannot happen after edge pruning).
fn base_loop_word(
    sigma: &Simplex,
    edges: &[Simplex],
    edge_graphs: &[Graph],
    g: &BTreeMap<Vertex, Vertex>,
    group: &EdgePathGroup,
) -> Option<Vec<i32>> {
    let vs = sigma.vertices();
    let path = |a: usize, b: usize| -> Option<Vec<Vertex>> {
        let e = Simplex::from_iter([vs[a].clone(), vs[b].clone()]);
        let ei = edges.iter().position(|x| *x == e)?;
        edge_graphs[ei].shortest_path(&g[&vs[a]], &g[&vs[b]])
    };
    let mut walk = path(0, 1)?;
    walk.extend(path(1, 2)?.into_iter().skip(1));
    let mut back = path(0, 2)?;
    back.reverse();
    walk.extend(back.into_iter().skip(1));
    group.word_of_walk(&walk)
}

/// Joint integer feasibility of the abelianized triangle conditions:
/// unknowns are re-routing multiples of each input edge's attachable cycle
/// basis and per-triangle 2-chain corrections; the system demands that
/// every triangle's boundary loop become a boundary.
///
/// The assignment-independent ingredients — fundamental-cycle walks per
/// edge graph and chain complexes per triangle — come precomputed from
/// the [`LinkGraphs`] and [`Presentations`] artifacts; only the base
/// paths and the component filter depend on the assignment `g`.
fn joint_h1_feasible(
    links: &LinkGraphs,
    presentations: &Presentations,
    g: &BTreeMap<Vertex, Vertex>,
) -> bool {
    let triangles = &links.triangles;
    let edges = &links.edges;
    let edge_graphs = &links.edge_graphs;
    // Base paths and attachable cycles per input edge.
    struct EdgeEnv {
        base: Vec<Vertex>,        // walk g(x) → g(x')
        cycles: Vec<Vec<Vertex>>, // closed walks (attachable basis)
    }
    let mut envs: BTreeMap<&Simplex, EdgeEnv> = BTreeMap::new();
    for (ei, (e, graph)) in edges.iter().zip(edge_graphs).enumerate() {
        let vs = e.vertices();
        let (a, b) = (&g[&vs[0]], &g[&vs[1]]);
        let Some(base) = graph.shortest_path(a, b) else {
            return false; // edge condition failed (caller prunes earlier)
        };
        // Fundamental cycles of the component containing the base path:
        // the closed walks were precomputed per non-tree edge; only the
        // attachability filter depends on the assignment.
        let cycles: Vec<Vec<Vertex>> = links.edge_cycles[ei]
            .iter()
            .filter(|(u, _)| graph.connected(u, a))
            .map(|(_, walk)| walk.clone())
            .collect();
        envs.insert(e, EdgeEnv { base, cycles });
    }

    // Column layout: one column per (edge, cycle) + one per (triangle,
    // image 2-simplex). Rows: one block per triangle, sized by its image's
    // edge count.
    let mut col_of_cycle: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut ncols = 0usize;
    for (ei, e) in edges.iter().enumerate() {
        for ci in 0..envs[e].cycles.len() {
            col_of_cycle.insert((ei, ci), ncols);
            ncols += 1;
        }
    }
    // Triangle chain complexes, precomputed in the presentations artifact.
    let chain_complexes: Vec<&chromata_algebra::ChainComplex> = presentations
        .per_triangle
        .iter()
        .map(|tp| &tp.chain)
        .collect();
    let tri_col_start: Vec<usize> = chain_complexes
        .iter()
        .map(|cc| {
            let s = ncols;
            ncols += cc.triangles().len();
            s
        })
        .collect();

    let total_rows: usize = chain_complexes.iter().map(|cc| cc.edges().len()).sum();
    let mut a = IntMatrix::zeros(total_rows, ncols);
    let mut b = vec![0i64; total_rows];
    let mut row0 = 0usize;
    for (ti, sigma) in triangles.iter().enumerate() {
        let cc = &chain_complexes[ti];
        let nrows = cc.edges().len();
        // Boundary loop from base paths: x0 → x1 → x2 → x0 with signs.
        let vs = sigma.vertices();
        let tri_edges = [
            (Simplex::from_iter([vs[0].clone(), vs[1].clone()]), 1i64),
            (Simplex::from_iter([vs[1].clone(), vs[2].clone()]), 1),
            (Simplex::from_iter([vs[0].clone(), vs[2].clone()]), -1),
        ];
        for (e, sign) in &tri_edges {
            let ei = edges.iter().position(|x| x == e).expect("edge of input"); // chromata-lint: allow(P1): e is drawn from `edges` by the enclosing iteration
            let env = &envs[e];
            let Some(chain) = cc.walk_to_chain(&env.base) else {
                return false; // base path uses an edge outside Δ'(σ): impossible
            };
            for (r, val) in chain.iter().enumerate() {
                b[row0 + r] -= sign * val;
            }
            // Cycle re-routing columns (same sign as the path's use).
            for (ci, cyc) in env.cycles.iter().enumerate() {
                let Some(cchain) = cc.walk_to_chain(cyc) else {
                    return false;
                };
                let col = col_of_cycle[&(ei, ci)];
                for (r, val) in cchain.iter().enumerate() {
                    a.add_to(row0 + r, col, sign * val);
                }
            }
        }
        // 2-chain correction columns: −∂₂.
        for tcol in 0..cc.triangles().len() {
            for r in 0..nrows {
                let val = cc.boundary2.get(r, tcol);
                if val != 0 {
                    a.add_to(row0 + r, tri_col_start[ti] + tcol, -val);
                }
            }
        }
        row0 += nrows;
    }
    is_feasible(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitting::split_all;
    use chromata_task::canonicalize;
    use chromata_task::library::{
        constant_task, hourglass, identity_task, two_process_consensus, two_set_agreement,
    };

    #[test]
    fn identity_and_constant_admit_maps() {
        for t in [identity_task(3), constant_task(3)] {
            assert!(matches!(
                continuous_map_exists(&t),
                ContinuousOutcome::Exists { .. }
            ));
        }
    }

    #[test]
    fn hourglass_admits_colorless_map_before_splitting() {
        // The motivating gap (§1.1): the raw hourglass has a continuous
        // carried map |I| → |O| …
        let t = hourglass();
        assert!(matches!(
            continuous_map_exists(&t),
            ContinuousOutcome::Exists { .. }
        ));
    }

    #[test]
    fn hourglass_split_has_no_map() {
        // … but after splitting, the skeleton disconnects (Corollary 5.5).
        let out = split_all(&canonicalize(&hourglass()));
        match continuous_map_exists(&out.task) {
            ContinuousOutcome::Impossible {
                reason: ImpossibilityReason::SkeletonDisconnected { .. },
            } => {}
            other => panic!("expected skeleton disconnection, got {other:?}"),
        }
    }

    #[test]
    fn two_set_agreement_blocked_by_homology() {
        // Link-connected already; the annulus loop is the obstruction.
        let t = canonicalize(&two_set_agreement());
        let out = split_all(&t);
        assert!(out.steps.is_empty(), "2-set agreement has no LAPs");
        match continuous_map_exists(&out.task) {
            ContinuousOutcome::Impossible {
                reason: ImpossibilityReason::HomologyObstruction { .. },
            } => {}
            other => panic!("expected homology obstruction, got {other:?}"),
        }
    }

    #[test]
    fn majority_consensus_blocked_even_pre_split() {
        // Stronger than the paper needs: with identities kept, the
        // coupled H1 system across the 8 input facets is already
        // infeasible before any splitting.
        let t = chromata_task::library::majority_consensus();
        assert!(matches!(
            continuous_map_exists(&t),
            ContinuousOutcome::Impossible {
                reason: ImpossibilityReason::HomologyObstruction { .. }
            }
        ));
    }

    #[test]
    fn base_loop_word_tier_certifies_renaming_four() {
        // Δ(σ) of 4-renaming is not simply connected, but the boundary
        // loop along the base paths contracts — the word-problem tier
        // certifies it where the abelian tier cannot (free π1 of rank ≥ 2).
        let t = chromata_task::library::renaming(4);
        match continuous_map_exists(&t) {
            ContinuousOutcome::Exists { certificates, .. } => {
                assert!(
                    certificates.iter().any(|c| c.contains("word problem")),
                    "expected the word-problem certificate, got {certificates:?}"
                );
            }
            other => panic!("renaming-4 should admit a map, got {other:?}"),
        }
    }

    #[test]
    fn approximate_agreement_certified_simply_connected() {
        let t = chromata_task::library::approximate_agreement(2);
        match continuous_map_exists(&t) {
            ContinuousOutcome::Exists { certificates, .. } => {
                assert!(certificates.iter().all(|c| c.contains("simply connected")));
            }
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn two_process_consensus_skeleton_disconnected() {
        let t = two_process_consensus();
        match continuous_map_exists(&t) {
            ContinuousOutcome::Impossible {
                reason: ImpossibilityReason::SkeletonDisconnected { .. },
            } => {}
            other => panic!("expected skeleton disconnection, got {other:?}"),
        }
    }
}
