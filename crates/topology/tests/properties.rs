//! Property-based tests for the chromatic-complex substrate.

use proptest::prelude::*;

use chromata_topology::{Complex, Graph, Simplex, Vertex};

/// Strategy: a random chromatic 2-complex over a bounded vertex pool,
/// given as triangles (color i gets value vals[i]).
fn triangles_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..5, 0i64..5), 1..12)
}

fn build(triples: &[(i64, i64, i64)]) -> Complex {
    Complex::from_facets(triples.iter().map(|(a, b, c)| {
        Simplex::from_iter([Vertex::of(0, *a), Vertex::of(1, *b), Vertex::of(2, *c)])
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn complexes_are_face_closed(triples in triangles_strategy()) {
        let k = build(&triples);
        for s in k.simplices() {
            for f in s.proper_faces() {
                prop_assert!(k.contains(&f), "face {} of {} missing", f, s);
            }
        }
    }

    #[test]
    fn facets_are_maximal_and_cover(triples in triangles_strategy()) {
        let k = build(&triples);
        for m in k.facets() {
            prop_assert!(
                !k.simplices().any(|s| m != s && m.is_face_of(s)),
                "facet {} is not maximal", m
            );
        }
        for s in k.simplices() {
            prop_assert!(
                k.facets().any(|m| s.is_face_of(m)),
                "simplex {} not under any facet", s
            );
        }
    }

    #[test]
    fn link_characterization(triples in triangles_strategy()) {
        let k = build(&triples);
        for v in k.vertices() {
            let lk = k.link(v);
            // σ ∈ lk(v) ⟺ v ∉ σ and σ ∪ {v} ∈ K.
            for s in lk.simplices() {
                prop_assert!(!s.contains(v));
                let mut verts: Vec<Vertex> = s.vertices().to_vec();
                verts.push(v.clone());
                prop_assert!(k.contains(&Simplex::new(verts)));
            }
            // And conversely for the edges through v.
            for e in k.simplices_of_dim(1) {
                if let Some(w) = e.without_vertex(v) {
                    prop_assert!(lk.contains(&w));
                }
            }
        }
    }

    #[test]
    fn components_partition_vertices(triples in triangles_strategy()) {
        let k = build(&triples);
        let comps = k.connected_components();
        let total: usize = comps.iter().map(std::collections::BTreeSet::len).sum();
        prop_assert_eq!(total, k.vertex_count());
        // Pairwise disjoint.
        for (i, a) in comps.iter().enumerate() {
            for b in &comps[i + 1..] {
                prop_assert!(a.intersection(b).next().is_none());
            }
        }
    }

    #[test]
    fn euler_characteristic_consistency(triples in triangles_strategy()) {
        let k = build(&triples);
        let v = k.vertex_count() as i64;
        let e = k.simplices_of_dim(1).count() as i64;
        let f = k.simplices_of_dim(2).count() as i64;
        prop_assert_eq!(k.euler_characteristic(), v - e + f);
    }

    #[test]
    fn skeleton_is_monotone(triples in triangles_strategy()) {
        let k = build(&triples);
        let s1 = k.skeleton(1);
        let s0 = k.skeleton(0);
        prop_assert!(s0.is_subcomplex_of(&s1));
        prop_assert!(s1.is_subcomplex_of(&k));
        prop_assert_eq!(s1.vertex_count(), k.vertex_count());
    }

    #[test]
    fn union_and_intersection_laws(
        a in triangles_strategy(),
        b in triangles_strategy(),
    ) {
        let ka = build(&a);
        let kb = build(&b);
        let u = ka.union(&kb);
        let i = ka.intersection(&kb);
        prop_assert!(ka.is_subcomplex_of(&u));
        prop_assert!(kb.is_subcomplex_of(&u));
        prop_assert!(i.is_subcomplex_of(&ka));
        prop_assert!(i.is_subcomplex_of(&kb));
        // Inclusion–exclusion on simplex counts.
        prop_assert_eq!(
            u.simplices().count() + i.simplices().count(),
            ka.simplices().count() + kb.simplices().count()
        );
    }

    #[test]
    fn graph_paths_are_real_paths(triples in triangles_strategy()) {
        let k = build(&triples);
        let g = Graph::from_complex(&k);
        let verts: Vec<Vertex> = k.vertices().cloned().collect();
        for a in verts.iter().take(4) {
            for b in verts.iter().take(4) {
                if let Some(p) = g.shortest_path(a, b) {
                    prop_assert_eq!(p.first(), Some(a));
                    prop_assert_eq!(p.last(), Some(b));
                    for w in p.windows(2) {
                        prop_assert!(g.has_edge(&w[0], &w[1]));
                    }
                    // Lex-smallest shortest path has the same length.
                    let lex = g.lex_smallest_shortest_path(a, b).expect("connected");
                    prop_assert_eq!(lex.len(), p.len());
                } else {
                    prop_assert!(!g.connected(a, b) || a == b);
                }
            }
        }
    }

    #[test]
    fn spanning_forest_spans(triples in triangles_strategy()) {
        let k = build(&triples);
        let g = Graph::from_complex(&k);
        let forest = g.spanning_forest();
        prop_assert_eq!(
            forest.len() + g.components().len(),
            g.vertex_count()
        );
        prop_assert_eq!(
            g.non_tree_edges().len(),
            g.edge_count() - forest.len()
        );
    }

    #[test]
    fn serde_roundtrip_preserves_complexes(triples in triangles_strategy()) {
        let k = build(&triples);
        let json = serde_json::to_string(&k).expect("serialize");
        let back: Complex = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, k);
    }
}

/// Strategy: a random complex of mixed dimension over a pool of 3 colors ×
/// 3 values — triangles, edge-only facets and isolated vertices. Simplices
/// need not be chromatic.
fn mixed_simplices() -> impl Strategy<Value = Vec<Vec<(u8, i64)>>> {
    proptest::collection::vec(proptest::collection::vec((0u8..3, 0i64..3), 1..4), 0..10)
}

fn simplices_of(raw: &[Vec<(u8, i64)>]) -> Vec<Simplex> {
    raw.iter()
        .map(|s| Simplex::new(s.iter().map(|&(c, x)| Vertex::of(c, x)).collect()))
        .collect()
}

/// The definition the one-pass LAP scan replaced: build `lk(v)` for every
/// vertex and test it for connectivity.
fn per_vertex_disconnected_links(k: &Complex) -> Vec<Vertex> {
    k.vertices()
        .filter(|v| {
            let lk = k.link(v);
            !lk.is_empty() && !lk.is_connected()
        })
        .cloned()
        .collect()
}

/// Both views of `k` as ordered lists, for comparing facet views exactly.
fn views(k: &Complex) -> (Vec<Simplex>, Vec<Simplex>) {
    (
        k.simplices().cloned().collect(),
        k.facets().cloned().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_lap_scan_matches_per_vertex_links(raw in mixed_simplices()) {
        let k = Complex::from_facets(simplices_of(&raw));
        let expected = per_vertex_disconnected_links(&k);
        prop_assert_eq!(k.disconnected_link_vertices(), expected.clone());
        prop_assert_eq!(k.is_link_connected(), expected.is_empty());
    }

    #[test]
    fn replace_star_matches_a_rebuild(
        raw in mixed_simplices(),
        pick in 0usize..9,
        replacements in mixed_simplices(),
    ) {
        let k = Complex::from_facets(simplices_of(&raw));
        let Some(v) = k.vertices().nth(pick % k.vertex_count().max(1)).cloned() else {
            return Ok(());
        };
        let replacements = simplices_of(&replacements);
        let mut in_place = k.clone();
        in_place.replace_star(&v, &replacements);
        // (K ∖ st(v)) ∪ closure(replacements), rebuilt by `from_facets`.
        let rebuilt = Complex::from_facets(
            k.simplices()
                .filter(|s| !s.contains(&v))
                .chain(&replacements)
                .cloned(),
        );
        prop_assert_eq!(&in_place, &rebuilt);
        prop_assert_eq!(views(&in_place), views(&rebuilt));
    }
}

#[test]
fn replace_star_restores_faces_that_lose_their_last_coface() {
    // A triangle {a, b, v} and an edge {b, c}: removing v's star leaves
    // the edge {a, b} with no coface, so it must become a facet again.
    let (a, b, c, v) = (
        Vertex::of(0, 0),
        Vertex::of(1, 0),
        Vertex::of(2, 1),
        Vertex::of(2, 0),
    );
    let mut k = Complex::from_facets([
        Simplex::from_iter([a.clone(), b.clone(), v.clone()]),
        Simplex::from_iter([b.clone(), c.clone()]),
    ]);
    k.replace_star(&v, &[]);
    assert!(!k.contains_vertex(&v));
    let expected = Complex::from_facets([
        Simplex::from_iter([a, b.clone()]),
        Simplex::from_iter([b, c]),
    ]);
    assert_eq!(views(&k), views(&expected), "{{a, b}} lost its last coface");
}
