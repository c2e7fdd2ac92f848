//! Edge-path fundamental groups of 2-dimensional complexes.
//!
//! For a connected complex `K`, the edge-path group is presented with one
//! generator per non-tree edge of a spanning tree of the 1-skeleton and one
//! relator per triangle. A loop in `K` is contractible iff its word is
//! trivial in this group — the residual (generally undecidable) obstruction
//! of the paper's characterization (§5, §7).
//!
//! chromata-lint: allow(P3): edge and word indices are derived from the lengths of the same spanning-tree tables; every site is advisory-flagged by P2 for per-site review

use std::collections::BTreeMap;

use chromata_topology::{Complex, Graph, Vertex};

use crate::decide::{decide_tiers, Triviality, DEFAULT_COSET_BUDGET};
use crate::presentation::Presentation;
use crate::word::{free_reduce, Word};

/// The edge-path group presentation of (one component of) a complex,
/// remembering enough structure to translate vertex walks into words.
#[derive(Clone, Debug)]
pub struct EdgePathGroup {
    presentation: Presentation,
    /// Non-tree edges, oriented `(min, max)`; generator `k+1` corresponds
    /// to `edges[k]` traversed min→max.
    generator_edges: Vec<(Vertex, Vertex)>,
    generator_index: BTreeMap<(Vertex, Vertex), i32>,
    graph: Graph,
}

impl EdgePathGroup {
    /// Builds the edge-path group of `k`.
    ///
    /// The complex must be connected for the result to be π₁(|k|); for a
    /// disconnected complex the construction yields the free product over
    /// components, which is still sound for word-triviality of loops that
    /// stay within one component.
    ///
    /// # Panics
    ///
    /// Panics if `k` has dimension greater than 2.
    #[must_use]
    pub fn new(k: &Complex) -> Self {
        assert!(
            k.dimension().unwrap_or(0) <= 2,
            "edge-path groups are implemented for dimension ≤ 2"
        );
        let graph = Graph::from_complex(k);
        let mut generator_index: BTreeMap<(Vertex, Vertex), i32> = BTreeMap::new();
        let mut generator_edges = Vec::new();
        for (a, b) in graph.non_tree_edges() {
            let g = generator_edges.len() as i32 + 1;
            generator_index.insert((a.clone(), b.clone()), g);
            generator_edges.push((a, b));
        }
        // One relator per triangle: the word of its boundary loop.
        let mut relators = Vec::new();
        for t in k.simplices_of_dim(2) {
            let vs = t.vertices();
            let walk = [vs[0].clone(), vs[1].clone(), vs[2].clone(), vs[0].clone()];
            let w = word_of_walk_raw(&generator_index, &walk)
                .expect("triangle edges are edges of the complex"); // chromata-lint: allow(P1): triangle boundary edges are faces of a face-closed complex
            relators.push(w);
        }
        let presentation = Presentation::new(generator_edges.len(), relators);
        EdgePathGroup {
            presentation,
            generator_edges,
            generator_index,
            graph,
        }
    }

    /// The group presentation (generators = non-tree edges, relators =
    /// triangle boundaries).
    #[must_use]
    pub fn presentation(&self) -> &Presentation {
        &self.presentation
    }

    /// The oriented edges serving as generators.
    #[must_use]
    pub fn generator_edges(&self) -> &[(Vertex, Vertex)] {
        &self.generator_edges
    }

    /// Translates a closed (or open) walk into a word: tree edges map to
    /// the identity, non-tree edges to their generator (sign by traversal
    /// direction).
    ///
    /// Returns `None` if some step of the walk is not an edge of the
    /// complex. Note: for *open* walks the word is only meaningful relative
    /// to the spanning tree (tree paths are implicit); closed walks give
    /// genuine conjugacy-well-defined group elements.
    #[must_use]
    pub fn word_of_walk(&self, walk: &[Vertex]) -> Option<Word> {
        for pair in walk.windows(2) {
            if pair[0] != pair[1] && !self.graph.has_edge(&pair[0], &pair[1]) {
                return None;
            }
        }
        word_of_walk_raw(&self.generator_index, walk)
    }

    /// The underlying 1-skeleton graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// Precomputed contractibility facts about (one component of) a complex:
/// the edge-path group together with its Tietze-simplified presentation
/// and the two flags the decision tiers branch on. Built once per image
/// component and shared across vertex assignments by the pipeline's
/// presentation stage, so the (potentially expensive) simplification runs
/// once instead of once per assignment.
#[derive(Clone, Debug)]
pub struct PresentationSummary {
    group: EdgePathGroup,
    simplified: Presentation,
    trivial: bool,
    evidently_abelian: bool,
}

impl PresentationSummary {
    /// Builds the summary of `k` (see [`EdgePathGroup::new`] for the
    /// connectivity caveat).
    ///
    /// # Panics
    ///
    /// Panics if `k` has dimension greater than 2.
    #[must_use]
    pub fn of(k: &Complex) -> Self {
        let group = EdgePathGroup::new(k);
        let simplified = group.presentation().simplified();
        let trivial = simplified.is_trivial_group();
        let evidently_abelian = simplified.has_all_commutators();
        PresentationSummary {
            group,
            simplified,
            trivial,
            evidently_abelian,
        }
    }

    /// The underlying edge-path group (for walk-to-word translation and
    /// the word-problem tier, which runs on the *unsimplified*
    /// presentation).
    #[must_use]
    pub fn group(&self) -> &EdgePathGroup {
        &self.group
    }

    /// The Tietze-simplified presentation.
    #[must_use]
    pub fn simplified(&self) -> &Presentation {
        &self.simplified
    }

    /// Whether the simplified presentation is evidently the trivial group
    /// (the component is simply connected as far as Tietze moves can
    /// tell).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.trivial
    }

    /// Whether the (unsimplified) presentation is evidently abelian, the
    /// condition under which H₁ feasibility is exact.
    #[must_use]
    pub fn is_evidently_abelian(&self) -> bool {
        self.evidently_abelian
    }

    /// [`crate::word_triviality`] on the group's (unsimplified)
    /// presentation, reusing this summary's simplification instead of
    /// running Tietze moves again.
    #[must_use]
    pub fn word_triviality(&self, w: &[i32]) -> Triviality {
        decide_tiers(self.group.presentation(), w, DEFAULT_COSET_BUDGET, || {
            (self.trivial, self.evidently_abelian)
        })
    }
}

/// Decides (as far as the tiered word problem allows) whether a closed
/// walk is contractible in `|k|`.
///
/// Convenience wrapper: builds the edge-path group of the component
/// containing the walk and runs [`crate::word_triviality`] on the walk's
/// word.
///
/// Returns `None` if the walk is not a closed edge-walk of `k`.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{loop_contractible, Triviality};
/// use chromata_topology::{Complex, Simplex, Vertex};
///
/// let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0)]);
/// let walk = [Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0), Vertex::of(0, 0)];
/// // On the filled triangle the boundary contracts…
/// let disk = Complex::from_facets([tri.clone()]);
/// assert_eq!(loop_contractible(&disk, &walk), Some(Triviality::Trivial));
/// // …on the hollow triangle it does not.
/// let circle = disk.skeleton(1);
/// assert_eq!(loop_contractible(&circle, &walk), Some(Triviality::Nontrivial));
/// ```
#[must_use]
pub fn loop_contractible(k: &Complex, walk: &[Vertex]) -> Option<Triviality> {
    if walk.is_empty() || walk.first() != walk.last() {
        return None;
    }
    let group = EdgePathGroup::new(k);
    let word = group.word_of_walk(walk)?;
    Some(crate::decide::word_triviality(group.presentation(), &word))
}

/// Word of a walk assuming every step is an edge of the complex (callers
/// validate edge existence); tree edges contribute the identity.
fn word_of_walk_raw(index: &BTreeMap<(Vertex, Vertex), i32>, walk: &[Vertex]) -> Option<Word> {
    let mut w: Word = Vec::new();
    for pair in walk.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a == b {
            continue;
        }
        let (key, sign) = if a < b {
            ((a.clone(), b.clone()), 1)
        } else {
            ((b.clone(), a.clone()), -1)
        };
        if let Some(&g) = index.get(&key) {
            w.push(sign * g);
        }
    }
    Some(free_reduce(&w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_topology::Simplex;

    fn v(c: u8, x: i64) -> Vertex {
        Vertex::of(c, x)
    }

    fn tri(a: Vertex, b: Vertex, c: Vertex) -> Simplex {
        Simplex::from_iter([a, b, c])
    }

    #[test]
    fn disk_has_trivial_group() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]);
        let g = EdgePathGroup::new(&k);
        let p = g.presentation().simplified();
        assert!(p.is_trivial_group());
    }

    #[test]
    fn circle_has_free_rank_one() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]).skeleton(1);
        let g = EdgePathGroup::new(&k);
        let p = g.presentation().simplified();
        assert!(p.is_free());
        assert_eq!(p.generator_count(), 1);
        // Boundary walk is the generator (up to sign).
        let w = g
            .word_of_walk(&[v(0, 0), v(1, 0), v(2, 0), v(0, 0)])
            .unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn filled_triangle_kills_boundary_word() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]);
        let g = EdgePathGroup::new(&k);
        let w = g
            .word_of_walk(&[v(0, 0), v(1, 0), v(2, 0), v(0, 0)])
            .unwrap();
        // With a spanning tree of the triangle, the single non-tree edge is
        // the generator and the triangle relator kills it.
        let p = g.presentation();
        // The word is a product of relator conjugates; verify at the
        // abelianized level here (full tier testing lives in decide.rs).
        let m = p.relator_matrix();
        let e = crate::word::exponent_vector(&w, p.generator_count());
        assert!(crate::linear::is_feasible(&m.transpose(), &e));
    }

    #[test]
    fn wedge_of_two_circles_is_free_rank_two() {
        // Two hollow triangles sharing one vertex.
        let a = v(0, 0);
        let k1 = Complex::from_facets([tri(a.clone(), v(1, 0), v(2, 0))]).skeleton(1);
        let k2 = Complex::from_facets([tri(a.clone(), v(1, 1), v(2, 1))]).skeleton(1);
        let k = k1.union(&k2);
        let g = EdgePathGroup::new(&k);
        let p = g.presentation().simplified();
        assert!(p.is_free());
        assert_eq!(p.generator_count(), 2);
    }

    #[test]
    fn stuttering_walk_is_identity() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]).skeleton(1);
        let g = EdgePathGroup::new(&k);
        let w = g.word_of_walk(&[v(0, 0), v(0, 0), v(0, 0)]).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn summary_matches_direct_computation() {
        // Filled triangle: trivial. Hollow triangle: free rank 1, which is
        // evidently abelian but not trivial.
        let disk = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]);
        let s = PresentationSummary::of(&disk);
        assert!(s.is_trivial());
        let circle = disk.skeleton(1);
        let s = PresentationSummary::of(&circle);
        assert!(!s.is_trivial());
        assert!(s.is_evidently_abelian());
        assert_eq!(s.simplified().generator_count(), 1);
        assert_eq!(
            s.group().presentation().generator_count(),
            EdgePathGroup::new(&circle).presentation().generator_count()
        );
        // The empty complex presents the trivial group — the fallback the
        // presentation stage uses for seeds outside every component.
        let s = PresentationSummary::of(&Complex::new());
        assert!(s.is_trivial());
        assert!(s.is_evidently_abelian());
    }

    #[test]
    fn loop_contractible_detects_open_walks() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]);
        assert_eq!(loop_contractible(&k, &[v(0, 0), v(1, 0)]), None);
        assert_eq!(loop_contractible(&k, &[]), None);
    }

    #[test]
    fn back_and_forth_cancels() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]).skeleton(1);
        let g = EdgePathGroup::new(&k);
        let w = g.word_of_walk(&[v(0, 0), v(1, 0), v(0, 0)]).unwrap();
        assert!(w.is_empty(), "w = {w:?}");
    }
}
