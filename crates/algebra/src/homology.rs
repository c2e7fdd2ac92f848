//! Simplicial homology of complexes of dimension ≤ 2.
//!
//! The solvability pipeline uses H1 in two ways (paper, §5–6): torsion and
//! Betti numbers characterize the output complexes of the example tasks
//! (annulus, torus, projective plane), and "is this 1-cycle a boundary?"
//! is the abelianized contractibility obstruction — a *sound* certificate
//! of unsolvability, exact whenever the fundamental group is abelian.
//!
//! chromata-lint: allow(P3): row/column indices are bounded by the boundary-matrix shape computed from the same complex; every site is advisory-flagged by P2 for per-site review

use std::collections::BTreeMap;

use chromata_topology::{Complex, Simplex, Vertex};

use crate::linear::in_column_lattice;
use crate::matrix::IntMatrix;
use crate::smith::smith_normal_form;

/// Indexed bases for the chain groups of a complex (dimensions 0, 1, 2)
/// together with its boundary matrices.
#[derive(Clone, Debug)]
pub struct ChainComplex {
    vertices: Vec<Vertex>,
    edges: Vec<Simplex>,
    triangles: Vec<Simplex>,
    /// ∂₁ : C₁ → C₀, shape `|V| × |E|`.
    pub boundary1: IntMatrix,
    /// ∂₂ : C₂ → C₁, shape `|E| × |T|`.
    pub boundary2: IntMatrix,
}

impl ChainComplex {
    /// Builds the chain complex of `k` with the orientation induced by the
    /// global sorted vertex order.
    ///
    /// # Panics
    ///
    /// Panics if `k` has simplices of dimension greater than 2 (the paper's
    /// setting is at most 2-dimensional: three processes).
    #[must_use]
    pub fn new(k: &Complex) -> Self {
        assert!(
            k.dimension().unwrap_or(0) <= 2,
            "chain complexes are implemented for dimension ≤ 2"
        );
        let vertices: Vec<Vertex> = k.vertices().cloned().collect();
        let edges: Vec<Simplex> = k.simplices_of_dim(1).cloned().collect();
        let triangles: Vec<Simplex> = k.simplices_of_dim(2).cloned().collect();
        let vindex: BTreeMap<&Vertex, usize> =
            vertices.iter().enumerate().map(|(i, v)| (v, i)).collect();
        let eindex: BTreeMap<&Simplex, usize> =
            edges.iter().enumerate().map(|(i, e)| (e, i)).collect();

        let mut b1 = IntMatrix::zeros(vertices.len(), edges.len());
        for (j, e) in edges.iter().enumerate() {
            let vs = e.vertices();
            // ∂[v0, v1] = v1 - v0 (vertices sorted).
            b1.set(vindex[&vs[1]], j, 1);
            b1.set(vindex[&vs[0]], j, -1);
        }

        let mut b2 = IntMatrix::zeros(edges.len(), triangles.len());
        for (j, t) in triangles.iter().enumerate() {
            let vs = t.vertices();
            // ∂[v0,v1,v2] = [v1,v2] - [v0,v2] + [v0,v1].
            let faces = [
                (Simplex::from_iter([vs[1].clone(), vs[2].clone()]), 1),
                (Simplex::from_iter([vs[0].clone(), vs[2].clone()]), -1),
                (Simplex::from_iter([vs[0].clone(), vs[1].clone()]), 1),
            ];
            for (f, sign) in faces {
                b2.set(eindex[&f], j, sign);
            }
        }

        ChainComplex {
            vertices,
            edges,
            triangles,
            boundary1: b1,
            boundary2: b2,
        }
    }

    /// The ordered edge basis.
    #[must_use]
    pub fn edges(&self) -> &[Simplex] {
        &self.edges
    }

    /// The ordered vertex basis.
    #[must_use]
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// The ordered triangle basis.
    #[must_use]
    pub fn triangles(&self) -> &[Simplex] {
        &self.triangles
    }

    /// Encodes a closed walk `w0, w1, …, wk (= w0)` as a 1-chain over the
    /// edge basis.
    ///
    /// Returns `None` if some consecutive pair is not an edge of the
    /// complex.
    #[must_use]
    pub fn walk_to_chain(&self, walk: &[Vertex]) -> Option<Vec<i64>> {
        let mut chain = vec![0i64; self.edges.len()];
        for pair in walk.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a == b {
                continue; // stuttering step contributes nothing
            }
            let e = Simplex::from_iter([a.clone(), b.clone()]);
            // The edge basis is strictly sorted (read off the complex's
            // ordered simplex set; deserialization rejects anything else),
            // so it is its own index.
            let j = self.edges.binary_search(&e).ok()?;
            // Orientation: edge stored as [min, max] with ∂ = max - min;
            // traversing min→max counts +1, max→min counts −1.
            let sign = if a < b { 1 } else { -1 };
            chain[j] += sign;
        }
        Some(chain)
    }

    /// Whether a 1-chain is a cycle (`∂₁ z = 0`).
    #[must_use]
    pub fn is_cycle(&self, chain: &[i64]) -> bool {
        self.boundary1.mul_vec(chain).iter().all(|&x| x == 0)
    }

    /// Whether a 1-cycle is a boundary (`z ∈ im ∂₂`), i.e. null-homologous.
    /// Answered by the sparse lattice test of [`in_column_lattice`]; only
    /// [`homology`]'s torsion needs a Smith normal form.
    #[must_use]
    pub fn is_boundary(&self, chain: &[i64]) -> bool {
        in_column_lattice(&self.boundary2, chain)
    }
}

/// Betti numbers and torsion of a ≤2-dimensional complex.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HomologyReport {
    /// `b₀`: number of connected components.
    pub betti0: usize,
    /// `b₁`: rank of the first homology group.
    pub betti1: usize,
    /// `b₂`: rank of the second homology group.
    pub betti2: usize,
    /// Torsion coefficients of H₁ (e.g. `[2]` for the projective plane).
    pub torsion1: Vec<i64>,
}

/// Computes H₀, H₁ and H₂ of `k` over ℤ.
///
/// # Examples
///
/// ```
/// use chromata_algebra::homology;
/// use chromata_topology::{Complex, Simplex, Vertex};
///
/// // A hollow triangle (circle): b0 = 1, b1 = 1.
/// let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0)]);
/// let circle = Complex::from_facets([tri]).skeleton(1);
/// let h = homology(&circle);
/// assert_eq!((h.betti0, h.betti1), (1, 1));
/// ```
#[must_use]
pub fn homology(k: &Complex) -> HomologyReport {
    let cc = ChainComplex::new(k);
    let n_v = cc.vertices.len();
    let n_e = cc.edges.len();
    let n_t = cc.triangles.len();
    let s1 = smith_normal_form(&cc.boundary1);
    let s2 = smith_normal_form(&cc.boundary2);
    let rank1 = s1.rank();
    let rank2 = s2.rank();
    HomologyReport {
        betti0: n_v - rank1,
        betti1: n_e - rank1 - rank2,
        betti2: n_t - rank2,
        torsion1: s2.torsion(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: u8, x: i64) -> Vertex {
        Vertex::of(c, x)
    }

    fn tri(a: Vertex, b: Vertex, c: Vertex) -> Simplex {
        Simplex::from_iter([a, b, c])
    }

    #[test]
    fn disk_homology() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]);
        let h = homology(&k);
        assert_eq!(
            h,
            HomologyReport {
                betti0: 1,
                betti1: 0,
                betti2: 0,
                torsion1: vec![]
            }
        );
    }

    #[test]
    fn circle_homology_and_winding() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]).skeleton(1);
        let h = homology(&k);
        assert_eq!((h.betti0, h.betti1, h.betti2), (1, 1, 0));
        let cc = ChainComplex::new(&k);
        let walk = [v(0, 0), v(1, 0), v(2, 0), v(0, 0)];
        let z = cc.walk_to_chain(&walk).unwrap();
        assert!(cc.is_cycle(&z));
        assert!(!cc.is_boundary(&z), "the generator of H1 is not a boundary");
    }

    #[test]
    fn filled_boundary_becomes_trivial() {
        let k = Complex::from_facets([tri(v(0, 0), v(1, 0), v(2, 0))]);
        let cc = ChainComplex::new(&k);
        let walk = [v(0, 0), v(1, 0), v(2, 0), v(0, 0)];
        let z = cc.walk_to_chain(&walk).unwrap();
        assert!(cc.is_cycle(&z));
        assert!(cc.is_boundary(&z));
    }

    #[test]
    fn two_components() {
        let k = Complex::from_facets([
            Simplex::from_iter([v(0, 0), v(1, 0)]),
            Simplex::from_iter([v(0, 9), v(1, 9)]),
        ]);
        assert_eq!(homology(&k).betti0, 2);
    }

    #[test]
    fn sphere_homology() {
        // Boundary of a tetrahedron: b0=1, b1=0, b2=1. Colors don't matter
        // for homology; use 4 distinct colors to keep simplices chromatic.
        let vs = [v(0, 0), v(1, 0), v(2, 0), v(3, 0)];
        let mut k = Complex::new();
        for skip in 0..4 {
            let face: Vec<Vertex> = (0..4)
                .filter(|&i| i != skip)
                .map(|i| vs[i].clone())
                .collect();
            k.add_simplex(Simplex::new(face));
        }
        let h = homology(&k);
        assert_eq!((h.betti0, h.betti1, h.betti2), (1, 0, 1));
        assert!(h.torsion1.is_empty());
    }

    #[test]
    fn annulus_has_betti1_one() {
        // Triangulated annulus: two concentric triangles (inner i0,i1,i2 /
        // outer o0,o1,o2) with 6 triangles between them.
        let i = [v(0, 0), v(1, 0), v(2, 0)];
        let o = [v(0, 1), v(1, 1), v(2, 1)];
        let mut k = Complex::new();
        for a in 0..3 {
            let b = (a + 1) % 3;
            k.add_simplex(tri(i[a].clone(), i[b].clone(), o[b].clone()));
            k.add_simplex(tri(i[a].clone(), o[a].clone(), o[b].clone()));
        }
        let h = homology(&k);
        assert_eq!((h.betti0, h.betti1, h.betti2), (1, 1, 0));
        // Inner boundary circle is not null-homologous.
        let cc = ChainComplex::new(&k);
        let z = cc
            .walk_to_chain(&[i[0].clone(), i[1].clone(), i[2].clone(), i[0].clone()])
            .unwrap();
        assert!(cc.is_cycle(&z) && !cc.is_boundary(&z));
    }

    #[test]
    fn projective_plane_torsion() {
        // Minimal 6-vertex triangulation of RP^2 (antipodally identified
        // icosahedron, Kühnel's RP²₆): every pair of vertices is an edge,
        // each edge lies in exactly two of the ten faces.
        let faces = [
            [1, 2, 3],
            [1, 2, 4],
            [1, 3, 5],
            [1, 4, 6],
            [1, 5, 6],
            [2, 3, 6],
            [2, 4, 5],
            [2, 5, 6],
            [3, 4, 5],
            [3, 4, 6],
        ];
        let mut k = Complex::new();
        for f in faces {
            k.add_simplex(Simplex::from_iter(
                f.iter().map(|&x| Vertex::of(0, i64::from(x))),
            ));
        }
        let h = homology(&k);
        assert_eq!((h.betti0, h.betti1, h.betti2), (1, 0, 0));
        assert_eq!(h.torsion1, vec![2], "H1(RP²) = Z/2");
    }

    #[test]
    fn walk_with_missing_edge_is_none() {
        let k = Complex::from_facets([Simplex::from_iter([v(0, 0), v(1, 0)])]);
        let cc = ChainComplex::new(&k);
        assert!(cc.walk_to_chain(&[v(0, 0), v(2, 2)]).is_none());
        // Stuttering contributes nothing.
        let z = cc.walk_to_chain(&[v(0, 0), v(0, 0)]).unwrap();
        assert!(z.iter().all(|&x| x == 0));
    }
}
