//! Property-based tests of the splitting deformation (paper, §4) over
//! randomly generated canonical three-process tasks.
//!
//! Random tasks are built by sampling a pure 2-dimensional chromatic
//! output complex over a bounded vertex pool for a single input facet and
//! deriving the face-level relation as the maximal monotone extension;
//! canonicalization then makes them amenable to splitting. The invariants
//! checked are the paper's Claim 1 (canonicity preserved), Lemma 4.1
//! (monotone LAP elimination, no regression), and Theorem 4.3
//! (termination with a link-connected task).
//!
//! The in-place split step is also checked against the rebuild-everything
//! step it replaced, on every registry task and on random one- and
//! two-facet tasks, some with pinned solos that make degenerate splits.

use proptest::prelude::*;

use chromata::{first_lap_of_facet, laps, split_all, split_once, Lap};
use chromata_task::library as lib;
use chromata_task::{canonicalize, is_canonical, Task};
use chromata_topology::{Complex, Simplex, Vertex};

/// The split step as it was before it worked in place, kept verbatim as
/// the oracle: every `Δ(τ)` rebuilt from its facets, and `O` recomputed as
/// the union of the images.
mod rebuilt {
    use chromata::Lap;
    use chromata_task::Task;
    use chromata_topology::{CarrierMap, Complex, Simplex, Value, Vertex};

    pub fn split_once(task: &Task, lap: &Lap) -> Result<Task, Vertex> {
        let y = &lap.vertex;
        let copies: Vec<Vertex> = (0..lap.component_count())
            .map(|i| y.with_value(Value::split(y.value().clone(), i as u32)))
            .collect();
        let mut delta = CarrierMap::new();
        for (tau, img) in task.delta().iter() {
            let mut facets: Vec<Simplex> = Vec::new();
            for rho in img.facets() {
                if !rho.contains(y) {
                    facets.push(rho.clone());
                    continue;
                }
                if tau.is_face_of(&lap.facet) {
                    match rho.iter().find(|z| *z != y) {
                        Some(z) => {
                            let copy = &copies[lap.component_of(z).unwrap()];
                            facets.push(rho.substituted(y, copy.clone()));
                        }
                        None => {
                            for i in allowed_copies_for_solo(task, lap, tau) {
                                facets.push(Simplex::vertex(copies[i].clone()));
                            }
                        }
                    }
                } else {
                    for c in &copies {
                        facets.push(rho.substituted(y, c.clone()));
                    }
                }
            }
            if facets.is_empty() {
                return Err(tau.vertices()[0].clone());
            }
            delta.insert(tau.clone(), Complex::from_facets(facets));
        }
        let output = delta.full_image();
        Ok(Task::new(task.name().to_owned(), task.input().clone(), output, delta).unwrap())
    }

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
}

/// Both views of `k` as ordered lists: equal complexes with an inexact
/// facet view would still differ here.
fn views(k: &Complex) -> (Vec<Simplex>, Vec<Simplex>) {
    (
        k.simplices().cloned().collect(),
        k.facets().cloned().collect(),
    )
}

fn assert_same_task(fast: &Task, slow: &Task, context: &str) {
    assert!(fast == slow, "{context}: tasks differ");
    assert_eq!(views(fast.output()), views(slow.output()), "{context}: O");
    for ((tau, a), (_, b)) in fast.delta().iter().zip(slow.delta().iter()) {
        assert_eq!(views(a), views(b), "{context}: Δ({tau})");
    }
}

/// Splits `task` to the end with the in-place step and the rebuilding
/// oracle side by side, in `split_all`'s order, requiring the same outcome
/// at every step (degenerate ones included); then requires `split_all` to
/// reproduce that sequence.
fn assert_split_matches_rebuild(task: &Task) {
    let name = task.name();
    let mut current = task.clone();
    let mut steps: Vec<Lap> = Vec::new();
    let mut degenerate = None;
    'facets: for sigma in task.input().facets() {
        while let Some(lap) = first_lap_of_facet(&current, sigma) {
            let context = format!("{name}, step {}", steps.len() + 1);
            let outcome = (
                split_once(&current, &lap),
                rebuilt::split_once(&current, &lap),
            );
            steps.push(lap);
            match outcome {
                (Ok(fast), Ok(slow)) => {
                    assert_same_task(&fast, &slow, &context);
                    current = fast;
                }
                (Err(x), Err(y)) => {
                    assert_eq!(x, y, "{context}: degenerate vertex");
                    degenerate = Some(x);
                    break 'facets;
                }
                (fast, slow) => panic!(
                    "{context}: in place ok = {}, rebuilt ok = {}",
                    fast.is_ok(),
                    slow.is_ok()
                ),
            }
        }
    }
    let out = split_all(task);
    assert_eq!(out.steps, steps, "{name}: steps");
    assert_eq!(out.degenerate, degenerate, "{name}: degenerate");
    assert_same_task(&out.task, &current, name);
}

/// A task over one input triangle, or two sharing the edge
/// `{P1:0, P2:0}`, whose facets may output the triangles of the given
/// value triples, with the maximal monotone extension on faces. The
/// second triangle may output everything the first may, plus `extra`, so
/// the shared edge keeps a pure image. With `pins = (solos, mask)`, each
/// solo is pinned to one vertex of its derived image, and each edge image
/// keeps the edges `mask` selects plus one edge through each pinned end:
/// solos whose partners fall in different link components make degenerate
/// splits. `None` when the sample is not a valid task.
fn random_task(
    triples: &[(i64, i64, i64)],
    extra: Option<&[(i64, i64, i64)]>,
    pins: Option<([usize; 4], u16)>,
) -> Option<Task> {
    let sigma = |x: i64| Simplex::from_iter([Vertex::of(0, x), Vertex::of(1, 0), Vertex::of(2, 0)]);
    let triangles = |triples: &[(i64, i64, i64)]| -> Vec<Simplex> {
        triples
            .iter()
            .map(|(a, b, c)| {
                Simplex::from_iter([Vertex::of(0, *a), Vertex::of(1, *b), Vertex::of(2, *c)])
            })
            .collect()
    };
    let first = triangles(triples);
    let mut input = Complex::from_facets([sigma(0)]);
    let mut second = first.clone();
    if let Some(extra) = extra {
        input.add_simplex(sigma(1));
        second.extend(triangles(extra));
    }
    let base = Task::from_facet_delta("random", input.clone(), |s| {
        if *s == sigma(0) {
            first.clone()
        } else {
            second.clone()
        }
    })
    .ok()?;
    let Some((solos, mask)) = pins else {
        return Some(base);
    };
    let pinned: Vec<(Vertex, Vertex)> = input
        .vertices()
        .zip(solos)
        .map(|(x, pick)| {
            let img = base.delta().image_of(&Simplex::vertex(x.clone()));
            let verts: Vec<&Vertex> = img.vertices().collect();
            (x.clone(), verts[pick % verts.len()].clone())
        })
        .collect();
    let pin_of = |x: &Vertex| pinned.iter().find(|(v, _)| v == x).map(|(_, p)| p.clone());
    Task::from_delta_fn("random-pinned", input, |tau| {
        let img = base.delta().image_of(tau);
        match tau.dimension() {
            0 => pin_of(&tau.vertices()[0])
                .map(Simplex::vertex)
                .into_iter()
                .collect(),
            1 => {
                let edges: Vec<&Simplex> = img.facets().collect();
                let mut keep: Vec<Simplex> = edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> (i % 16) & 1 == 1)
                    .map(|(_, e)| (*e).clone())
                    .collect();
                for p in tau.iter().filter_map(pin_of) {
                    if !keep.iter().any(|e| e.contains(&p)) {
                        keep.extend(edges.iter().find(|e| e.contains(&p)).map(|e| (*e).clone()));
                    }
                }
                keep
            }
            _ => img.facets().cloned().collect(),
        }
    })
    .ok()
}

fn triples_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 1..9)
}

#[test]
fn in_place_split_matches_rebuild_on_every_registry_task() {
    let registry = [
        lib::identity_task(3),
        lib::constant_task(3),
        lib::consensus(3),
        lib::majority_consensus(),
        lib::hourglass(),
        lib::pinwheel(),
        lib::two_set_agreement(),
        lib::adaptive_renaming(),
        lib::renaming(5),
        lib::leader_election(),
        lib::approximate_agreement(3),
        lib::loop_agreement("loop-disk", lib::disk_complex()),
        lib::loop_agreement("loop-sphere", lib::sphere_complex()),
        lib::loop_agreement("loop-torus", lib::torus_complex()),
        lib::loop_agreement("loop-rp2", lib::projective_plane_complex()),
        lib::loop_agreement("loop-klein-torsion", lib::klein_bottle_single_loop()),
        lib::loop_agreement("loop-klein-squared", lib::klein_bottle_doubled_loop()),
        lib::simple_example_task(),
    ];
    // The registry's two-process `consensus-2` has no split stage.
    for task in &registry {
        assert_split_matches_rebuild(&canonicalize(&task.restricted_to_reachable()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_split_matches_rebuild_on_random_tasks(
        triples in triples_strategy(),
        extra in triples_strategy(),
        shape in 0u8..4,
        solos in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
        mask in 0u16..u16::MAX,
    ) {
        let extra = (shape & 1 == 1).then_some(&extra[..]);
        let pins = (shape & 2 == 2).then_some(([solos.0, solos.1, solos.2, solos.3], mask));
        if let Some(task) = random_task(&triples, extra, pins) {
            assert_split_matches_rebuild(&canonicalize(&task));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn splitting_terminates_link_connected(triples in triples_strategy()) {
        let Some(task) = random_task(&triples, None, None) else {
            return Ok(());
        };
        let canonical = canonicalize(&task);
        let out = split_all(&canonical);
        if out.degenerate.is_none() {
            prop_assert!(out.task.is_link_connected());
            prop_assert!(laps(&out.task).is_empty());
        }
    }

    #[test]
    fn claim_1_canonicity_preserved(triples in triples_strategy()) {
        let Some(task) = random_task(&triples, None, None) else {
            return Ok(());
        };
        let canonical = canonicalize(&task);
        prop_assert!(is_canonical(&canonical));
        let out = split_all(&canonical);
        if out.degenerate.is_none() {
            prop_assert!(is_canonical(&out.task));
        }
    }

    #[test]
    fn lemma_4_1_lap_count_strictly_decreases(triples in triples_strategy()) {
        let Some(task) = random_task(&triples, None, None) else {
            return Ok(());
        };
        let mut current = canonicalize(&task);
        let mut count = laps(&current).len();
        while let Some(lap) = laps(&current).first().cloned() {
            match split_once(&current, &lap) {
                Ok(next) => {
                    let next_count = laps(&next).len();
                    prop_assert!(
                        next_count < count,
                        "LAP count did not decrease: {} -> {}", count, next_count
                    );
                    current = next;
                    count = next_count;
                }
                Err(_) => return Ok(()), // degenerate: covered elsewhere
            }
        }
    }

    #[test]
    fn splitting_preserves_carrier_validity(triples in triples_strategy()) {
        let Some(task) = random_task(&triples, None, None) else {
            return Ok(());
        };
        let out = split_all(&canonicalize(&task));
        if out.degenerate.is_none() {
            prop_assert!(out.task.delta().validate_chromatic(out.task.input()).is_ok());
            // Reachability: O' is exactly the union of the images.
            prop_assert_eq!(
                out.task.output(),
                &out.task.delta().full_image()
            );
        }
    }

    #[test]
    fn unsplit_projects_back_into_original_delta(triples in triples_strategy()) {
        let Some(task) = random_task(&triples, None, None) else {
            return Ok(());
        };
        let canonical = canonicalize(&task);
        let out = split_all(&canonical);
        if out.degenerate.is_some() {
            return Ok(());
        }
        for (tau, img) in out.task.delta().iter() {
            for f in img.facets() {
                let back = chromata::unsplit_simplex(f);
                prop_assert!(
                    canonical.delta().carries(tau, &back),
                    "unsplit image {} escapes Δ({})", back, tau
                );
            }
        }
    }

    #[test]
    fn verdict_is_stable_under_canonicalization(triples in triples_strategy()) {
        use chromata::{analyze, PipelineOptions};
        let Some(task) = random_task(&triples, None, None) else {
            return Ok(());
        };
        let v1 = analyze(&task, PipelineOptions::default()).verdict;
        let v2 = analyze(&canonicalize(&task), PipelineOptions::default()).verdict;
        prop_assert_eq!(v1.is_solvable(), v2.is_solvable());
        prop_assert_eq!(v1.is_unsolvable(), v2.is_unsolvable());
    }
}

#[test]
fn regression_single_triangle_output() {
    // Smallest case: Δ(σ) a single triangle — no LAPs, trivially
    // link-connected, solvable.
    let t = random_task(&[(0, 0, 0)], None, None).unwrap();
    let out = split_all(&canonicalize(&t));
    assert!(out.steps.is_empty());
    assert!(chromata::analyze(&t, chromata::PipelineOptions::default())
        .verdict
        .is_solvable());
}

#[test]
fn regression_two_disjoint_triangles() {
    // Two disjoint output triangles: solo processes cannot agree on a
    // component — unsolvable via the skeleton tier.
    let t = random_task(&[(0, 0, 0), (1, 1, 1)], None, None).unwrap();
    let verdict = chromata::analyze(&t, chromata::PipelineOptions::default()).verdict;
    // Both triangles are available to everyone, so each solo may pick
    // either component and the edges stay consistent within a component:
    // actually solvable (decide all-0 always).
    assert!(verdict.is_solvable());
}

#[test]
fn regression_bowtie_output() {
    // A bow-tie Δ(σ): two triangles sharing one articulated vertex. After
    // splitting the shared vertex the components separate; solvability
    // depends on solo images, which the maximal extension keeps broad —
    // every solo may decide either side, so the task is solvable.
    let t = random_task(&[(0, 0, 0), (0, 1, 1)], None, None).unwrap();
    let canonical = canonicalize(&t);
    assert_eq!(laps(&canonical).len(), 1);
    let out = split_all(&canonical);
    assert!(out.degenerate.is_none());
    assert_eq!(out.task.output().connected_components().len(), 2);
    assert!(chromata::analyze(&t, chromata::PipelineOptions::default())
        .verdict
        .is_solvable());
}
