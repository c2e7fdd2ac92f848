//! The splitting deformation (paper, §4).
//!
//! Splitting replaces a local articulation point `y ∈ Δ(σ)` by one copy
//! `y_i` per connected component of its link, re-targeting `Δ` so that:
//!
//! * facets of `Δ(τ)` for `τ ⊆ σ` move to the *single* copy of the
//!   component shared by their residual vertices (§4.1);
//! * facets of `Δ(τ)` for `τ ⊄ σ` fan out to *all* copies;
//! * the vertex-level image `{y} ∈ Δ(x)` for `x ∈ σ` receives the copies
//!   consistent with *every* input edge `x ⊂ e ⊆ σ` — the component
//!   indices realized by `y`'s partners in each `Δ(e)`, intersected.
//!   (This is forced by monotonicity of `Δ_y`, matches the neighbor
//!   argument in the proof of Lemma 4.2, and yields §6.2's "one copy per
//!   connected component" fan-out for the pinwheel.) If the intersection
//!   is empty and `{y}` was the only facet of `Δ(x)`, a solo execution of
//!   `id(x)` has no legal output in `T_y`: the split is *degenerate*, and
//!   the original task is unsolvable by the same neighbor argument.
//!
//! Lemma 4.2: splitting preserves solvability. Theorem 4.3: iterating
//! until no LAP remains yields a link-connected task `T'`.
//!
//! A split step touches only `y`'s star: images without `y` are shared
//! with the previous task, and in the other images and in `O` the star of
//! `y` is replaced in place ([`split_once`] says why that is exact). Each
//! step still validates its result as a [`Task`], the Lemma 4.1 check.

use std::sync::Arc;

use chromata_task::{is_canonical, Task};
use chromata_topology::{Simplex, Value, Vertex};

use crate::lap::{first_lap_of_facet, Lap};

/// The outcome of iterated LAP elimination (Theorem 4.3): the
/// link-connected task `T'` and the sequence of splits performed.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    /// The link-connected task `T' = (I, O', Δ')` (the last well-formed
    /// task if the elimination became degenerate).
    pub task: Task,
    /// The splitting steps, in the order performed.
    pub steps: Vec<Lap>,
    /// If a split emptied some solo image, the input vertex concerned:
    /// the original task is unsolvable outright.
    pub degenerate: Option<Vertex>,
}

/// Splits one local articulation point, producing `T_y = (I, O_y, Δ_y)`.
///
/// The step touches only `y`'s star. Images that do not contain `y` are
/// shared with `task`, not rebuilt. In an image that does, and in `O`,
/// the star of `y` is replaced in place by the substituted facets:
/// `Δ_y(τ) = (Δ(τ) ∖ st(y)) ∪ new facets`. That is exact, because every
/// removed facet `ρ ∋ y` with `|ρ| ≥ 2` gets at least one replacement,
/// and each replacement still covers `ρ ∖ {y}`. Replacing the star of `y`
/// in `O` by every new facet then yields `O_y = ⋃ Δ_y(σ)`, given the
/// precondition `O = ⋃ Δ(σ)`.
///
/// # Errors
///
/// Returns the input vertex whose image became empty when the split is
/// degenerate (see the module docs) — a sound unsolvability certificate.
///
/// # Panics
///
/// Panics if the task does not have exactly three processes (the
/// deformation is specific to 2-dimensional output complexes, paper §7),
/// if `lap` does not identify a current articulation point of the task, or
/// (in debug builds) if the task is not canonical or its output complex is
/// not exactly `⋃ Δ(σ)`. Every [`canonicalize`](chromata_task::canonicalize)
/// output and every split result meets both preconditions.
pub fn split_once(task: &Task, lap: &Lap) -> Result<Task, Vertex> {
    assert_eq!(
        task.process_count(),
        3,
        "the splitting deformation is specific to three-process tasks"
    );
    debug_assert!(is_canonical(task), "splitting requires a canonical task");
    debug_assert!(
        *task.output() == task.delta().full_image(),
        "splitting requires O = ⋃ Δ(σ) (paper, §4)"
    );
    assert!(
        lap.component_count() >= 2,
        "vertex {} is not articulated",
        lap.vertex
    );
    let y = &lap.vertex;
    let y_simplex = Simplex::vertex(y.clone());
    let copies: Vec<Vertex> = (0..lap.component_count())
        .map(|i| y.with_value(Value::split(y.value().clone(), i as u32)))
        .collect();

    // Untouched images stay shared; touched ones are replaced below.
    let mut delta = task.delta().clone();
    let mut added: Vec<Simplex> = Vec::new();
    for (tau, img) in task.delta().iter() {
        if !img.contains(&y_simplex) {
            continue;
        }
        let mut replacements: Vec<Simplex> = Vec::new();
        for rho in img.facets().filter(|rho| rho.contains(y)) {
            if tau.is_face_of(&lap.facet) {
                // Single-copy rule: the copy is determined by the residual
                // vertices' link component.
                match rho.iter().find(|z| *z != y) {
                    Some(z) => {
                        let copy = lap
                            .component_of(z)
                            .and_then(|i| copies.get(i))
                            .unwrap_or_else(|| {
                                // chromata-lint: allow(P1): guaranteed by Lemma 4.1; a violation is a soundness bug worth aborting on
                                panic!(
                                    "residual vertex {z} of {rho} not in any link component of {y}"
                                )
                            });
                        replacements.push(rho.substituted(y, copy.clone()));
                    }
                    None => {
                        // ρ = {y} at the vertex level: intersection rule.
                        for i in allowed_copies_for_solo(task, lap, tau) {
                            let copy = copies.get(i).expect("allowed copy index in range"); // chromata-lint: allow(P1): allowed_copies_for_solo draws indices from 0..component_count = copies.len()
                            replacements.push(Simplex::vertex(copy.clone()));
                        }
                    }
                }
            } else {
                // Fan-out rule for simplices not under σ.
                for c in &copies {
                    replacements.push(rho.substituted(y, c.clone()));
                }
            }
        }
        let mut next = img.clone();
        next.replace_star(y, &replacements);
        if next.is_empty() {
            // Degenerate: a solo image vanished; the original task is
            // unsolvable (module docs).
            let x = tau
                .vertices()
                .first()
                .expect("carrier-map domains are non-empty simplices") // chromata-lint: allow(P1): Δ is keyed by simplices, which have at least one vertex
                .clone();
            return Err(x);
        }
        added.extend(replacements);
        delta.insert_shared(tau.clone(), Arc::new(next));
    }
    let mut output = task.output().clone();
    output.replace_star(y, &added);
    Ok(
        Task::new(task.name().to_owned(), task.input().clone(), output, delta)
            .expect("splitting preserves task validity (Claim 1 / Lemma 4.1)"), // chromata-lint: allow(P1): guaranteed by Claim 1 / Lemma 4.1; a violation is a soundness bug worth aborting on
    )
}

/// The component indices a solo decision `{y} ∈ Δ(x)` may keep after the
/// split: those realized by `y`'s partners in `Δ(e)` for *every* input
/// edge `x ⊂ e ⊆ σ` (intersection over incident edges under σ).
fn allowed_copies_for_solo(task: &Task, lap: &Lap, x: &Simplex) -> Vec<usize> {
    let mut allowed: Vec<usize> = (0..lap.component_count()).collect();
    for e in task.input().simplices_of_dim(1) {
        if !x.is_face_of(e) || !e.is_face_of(&lap.facet) {
            continue;
        }
        let img = task.delta().image_of(e);
        if !img.contains_vertex(&lap.vertex) {
            continue;
        }
        let mut local: Vec<usize> = img
            .link(&lap.vertex)
            .vertices()
            .filter_map(|z| lap.component_of(z))
            .collect();
        local.sort_unstable();
        local.dedup();
        allowed.retain(|i| local.contains(i));
    }
    allowed
}

/// Eliminates every local articulation point (Theorem 4.3): processes the
/// input facets in sorted order, repeatedly splitting the first LAP of the
/// current facet until none remains, then moving on. Lemma 4.1 guarantees
/// termination and that processed facets stay clean.
///
/// # Panics
///
/// Panics if the task does not have exactly three processes or (in debug
/// builds) is not canonical.
///
/// # Examples
///
/// ```
/// use chromata::split_all;
/// use chromata_task::{canonicalize, library::hourglass};
///
/// let out = split_all(&canonicalize(&hourglass()));
/// assert_eq!(out.steps.len(), 1);
/// assert!(out.task.is_link_connected());
/// // Splitting the pinch disconnects the hourglass output.
/// assert_eq!(out.task.output().connected_components().len(), 2);
/// ```
#[must_use]
pub fn split_all(task: &Task) -> SplitOutcome {
    let mut current = task.clone();
    let mut steps = Vec::new();
    let facets: Vec<Simplex> = task.input().facets().cloned().collect();
    for sigma in facets {
        while let Some(lap) = first_lap_of_facet(&current, &sigma) {
            match split_once(&current, &lap) {
                Ok(next) => current = next,
                Err(x) => {
                    steps.push(lap);
                    return SplitOutcome {
                        task: current,
                        steps,
                        degenerate: Some(x),
                    };
                }
            }
            steps.push(lap);
        }
    }
    debug_assert!(current.is_link_connected());
    SplitOutcome {
        task: current,
        steps,
        degenerate: None,
    }
}

/// Transports a solvability witness across a split — the constructive
/// content of Lemma 4.2's hard direction: given a decision map
/// `δ : Ch^r(I) → O` for the pre-split task, build `δ_y` for `T_y` by
/// sending each protocol vertex `w` with `δ(w) = y` to the copy `y_i`
/// of the component its `P(σ)`-neighbors map into (or `y_1` outside
/// `P(σ)`), exactly as in the paper's proof.
///
/// The result should be re-validated against the split task with
/// `validate_witness` — which is what the tests do, turning the proof of
/// Lemma 4.2 into an executable check.
///
/// # Panics
///
/// Panics if `map` is not total on the subdivision, or if a protocol
/// vertex mapping to `y` has no differently-colored neighbor inside
/// `P(σ)` (impossible for genuine protocol complexes, §10.2.11 of HKR).
#[must_use]
pub fn transport_witness(
    lap: &Lap,
    sub: &chromata_subdivision::Subdivision,
    map: &chromata_topology::SimplicialMap,
) -> chromata_topology::SimplicialMap {
    let p_sigma = sub.carrier.image_of(&lap.facet);
    let mut out = chromata_topology::SimplicialMap::new();
    for v in sub.complex.vertices() {
        let img = map.get(v).expect("witness must be total"); // chromata-lint: allow(P1): the witness map is validated total before verification starts
        if img != &lap.vertex {
            out.insert(v.clone(), img.clone());
            continue;
        }
        let copy_index = if p_sigma.contains_vertex(v) {
            // Any differently-colored neighbor in P(σ): chromatic maps
            // send it into lk(y), and link-connectivity of P(σ) makes the
            // choice immaterial (proof of Lemma 4.2).
            let neighbor = p_sigma
                .simplices_of_dim(1)
                .filter(|e| e.contains(v))
                .flat_map(chromata_topology::Simplex::iter)
                .find(|w| w.color() != v.color())
                .unwrap_or_else(|| panic!("{v} has no neighbor in P(σ)")) // chromata-lint: allow(P1): every vertex of P(sigma) has a neighbor by construction of the split complex
                .clone();
            let w_img = map.get(&neighbor).expect("witness must be total"); // chromata-lint: allow(P1): the witness map is validated total before verification starts
            lap.component_of(w_img)
                // chromata-lint: allow(P1): a chromatic simplicial map sends neighbors of y's preimage into lk(y)
                .unwrap_or_else(|| panic!("neighbor image {w_img} not in lk(y)"))
        } else {
            0
        };
        out.insert(
            v.clone(),
            lap.vertex
                .with_value(Value::split(lap.vertex.value().clone(), copy_index as u32)),
        );
    }
    out
}

/// Projects a decision vertex of a split task back to the original
/// (pre-splitting) vertex — the easy direction of Lemma 4.2: an algorithm
/// for `T_y` yields one for `T` by outputting `y` instead of `y_i`.
#[must_use]
pub fn unsplit_vertex(v: &Vertex) -> Vertex {
    v.with_value(v.value().unsplit().clone())
}

/// Projects a whole decided simplex of a split task back to the original
/// task's output complex.
#[must_use]
pub fn unsplit_simplex(s: &Simplex) -> Simplex {
    Simplex::from_iter(s.iter().map(unsplit_vertex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lap::laps;
    use chromata_task::canonicalize;
    use chromata_task::library::{hourglass, majority_consensus, pinwheel};

    #[test]
    fn hourglass_split_shape() {
        // The hourglass is already canonical (single facet, injective Δ at
        // the vertex level) — canonicalize anyway as the pipeline does.
        let t = canonicalize(&hourglass());
        let out = split_all(&t);
        assert_eq!(out.steps.len(), 1);
        let t2 = &out.task;
        assert!(t2.is_link_connected());
        // One vertex became two: 8 + 1 = 9 vertices, two components.
        assert_eq!(t2.output().vertex_count(), 9);
        assert_eq!(t2.output().connected_components().len(), 2);
        assert_eq!(t2.output().facet_count(), 5, "facet count unchanged");
    }

    #[test]
    fn split_is_canonical_and_valid() {
        // Claim 1: canonicity is preserved by each step.
        let t = canonicalize(&hourglass());
        let out = split_all(&t);
        assert!(is_canonical(&out.task));
        out.task
            .delta()
            .validate_chromatic(out.task.input())
            .expect("Δ' is a valid carrier map");
    }

    #[test]
    fn lemma_4_1_monotone_progress() {
        // Splitting strictly reduces the LAP count w.r.t. the split facet
        // and never adds LAPs to clean facets.
        let t = canonicalize(&pinwheel());
        let mut current = t;
        let mut last_count = laps(&current).len();
        assert!(last_count > 0);
        while let Some(lap) = laps(&current).first().cloned() {
            let next = split_once(&current, &lap).expect("pinwheel splits are non-degenerate");
            let next_count = laps(&next).len();
            assert!(
                next_count < last_count,
                "LAP count must strictly decrease: {last_count} -> {next_count}"
            );
            current = next;
            last_count = next_count;
        }
        assert!(current.is_link_connected());
    }

    #[test]
    fn pinwheel_splits_into_disjoint_components() {
        // The paper's Fig. 8 triangulation (available only graphically)
        // splits into 3 components; our rotation-symmetric reconstruction
        // splits into 6 — the same obstruction (strictly more than one
        // component, with every solo output trapped away from some
        // process's outputs), recorded in EXPERIMENTS.md.
        let out = split_all(&canonicalize(&pinwheel()));
        assert!(out.degenerate.is_none());
        assert!(out.task.is_link_connected());
        let comps = out.task.output().connected_components().len();
        assert_eq!(comps, 6, "measured component count changed: {comps}");
        assert!(comps >= 3);
    }

    #[test]
    fn majority_consensus_splits_clean() {
        let out = split_all(&canonicalize(&majority_consensus()));
        assert!(out.task.is_link_connected());
        assert!(!out.steps.is_empty());
    }

    #[test]
    fn vertex_level_fanout_matches_section_6_2() {
        // After splitting the pinwheel, each solo input vertex may decide
        // multiple copies — one per link component (§6.2).
        let out = split_all(&canonicalize(&pinwheel()));
        // The input vertex of P0 is (0, 1) — inputs are untouched by
        // canonicalization and splitting.
        let solo = Simplex::vertex(Vertex::of(0, 1));
        let img = out.task.delta().image_of(&solo);
        assert!(
            img.vertex_count() >= 2,
            "solo decision fans out to one copy per component, got {img}"
        );
    }

    #[test]
    fn lemma_4_2_witness_transport() {
        // Renaming with 3 names is solvable *and* has LAPs: find a
        // witness, split one LAP, transport the witness per the proof of
        // Lemma 4.2, and re-validate it against the split task.
        use crate::act::{find_decision_map, validate_witness};
        use chromata_subdivision::iterated_chromatic_subdivision;

        let t = canonicalize(&chromata_task::library::renaming(3));
        let lap = crate::lap::laps(&t).into_iter().next().expect("has LAPs");
        let split = split_once(&t, &lap).expect("non-degenerate");
        for rounds in 0..=2usize {
            let sub = iterated_chromatic_subdivision(t.input(), rounds);
            let Some(map) = find_decision_map(&sub, &t) else {
                continue;
            };
            assert!(validate_witness(&sub, &t, &map));
            let transported = transport_witness(&lap, &sub, &map);
            assert!(
                validate_witness(&sub, &split, &transported),
                "transported witness invalid at {rounds} round(s)"
            );
            return;
        }
        panic!("no witness found for renaming-3 within 2 rounds");
    }

    #[test]
    fn unsplit_roundtrip() {
        let out = split_all(&canonicalize(&hourglass()));
        for (tau, img) in out.task.delta().iter() {
            for f in img.facets() {
                let back = unsplit_simplex(f);
                // The original canonical task must carry the projected
                // simplex (Lemma 4.2, easy direction).
                let orig = canonicalize(&hourglass());
                assert!(
                    orig.delta().carries(tau, &back),
                    "unsplit image {back} escapes Δ({tau})"
                );
            }
        }
    }
}
