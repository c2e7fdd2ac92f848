//! Simplicial complexes: face-closed collections of simplices.
//!
//! A complex closes each new simplex under faces through the boundaries
//! every interned [`Simplex`] stores: it descends from the simplex to its
//! boundary faces and stops at faces already present (whose own faces
//! are then present too), demoting them from the facets. Adding a
//! triangle whose edges already exist costs three membership probes and
//! no interning.
//!
//! chromata-lint: allow(P3): simplex vertex indices are bounded by the arity invariants the constructors enforce; every site is advisory-flagged by P2 for per-site review

// chromata-lint: allow(D1): imported for membership/lookup-only containers; every use is justified at its site
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::color::ColorSet;
use crate::intern::BuildStructuralHasher;
use crate::simplex::Simplex;
use crate::vertex::Vertex;

/// A simplicial complex: a collection of simplices closed under taking
/// non-empty faces (paper, §2.2).
///
/// The complex maintains three synchronized views: a hash set of all
/// simplices (O(1) membership), the simplices bucketed by dimension (for
/// ordered iteration and O(1) per-dimension counts), and the *facets*
/// (simplices maximal under inclusion), also bucketed by dimension. All
/// views are kept consistent by every mutator.
///
/// Because the simplex set is face-closed at all times, a simplex being
/// inserted for the first time is necessarily maximal (any existing
/// coface would already have forced it into the set), so facet
/// maintenance never scans the facet set: it only demotes the faces of
/// the new simplex where the descent through its boundaries stops.
///
/// # Examples
///
/// ```
/// use chromata_topology::{Complex, Simplex, Vertex};
///
/// let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1), Vertex::of(2, 2)]);
/// let k = Complex::from_facets([tri.clone()]);
/// assert_eq!(k.dimension(), Some(2));
/// assert_eq!(k.simplices().count(), 7); // 3 vertices + 3 edges + 1 triangle
/// assert!(k.contains(&tri));
/// assert!(k.is_pure());
/// ```
#[derive(Clone, Default, Debug)]
pub struct Complex {
    /// Every simplex of the complex; always face-closed. Membership-only:
    /// all iteration goes through the ordered `by_dim` view.
    // chromata-lint: allow(D1): never iterated — `simplices()`/`facets()` walk the BTreeSet views
    all: HashSet<Simplex, BuildStructuralHasher>,
    /// `by_dim[d]` holds the simplices of dimension `d`, ordered.
    by_dim: Vec<BTreeSet<Simplex>>,
    /// `facets_by_dim[d]` holds the maximal simplices of dimension `d`.
    facets_by_dim: Vec<BTreeSet<Simplex>>,
}

fn dim_entry(v: &mut Vec<BTreeSet<Simplex>>, d: usize) -> &mut BTreeSet<Simplex> {
    if v.len() <= d {
        v.resize_with(d + 1, BTreeSet::new);
    }
    &mut v[d]
}

impl Complex {
    /// Creates an empty complex.
    #[must_use]
    pub fn new() -> Self {
        Complex::default()
    }

    /// Creates a complex generated by the given simplices (closing under
    /// faces). The generators need not be maximal; facets are recomputed.
    #[must_use]
    pub fn from_facets<I: IntoIterator<Item = Simplex>>(generators: I) -> Self {
        let mut k = Complex::new();
        for s in generators {
            k.add_simplex(s);
        }
        k
    }

    /// Adds a simplex and all its faces. Returns `true` if the simplex was
    /// not already present.
    pub fn add_simplex(&mut self, s: Simplex) -> bool {
        if self.all.contains(&s) {
            return false;
        }
        self.close_under_faces(&s);
        // Face-closure guarantees no existing simplex has `s` as a proper
        // face (it would have inserted `s` already), so `s` is maximal.
        self.all.insert(s.clone());
        dim_entry(&mut self.by_dim, s.dimension()).insert(s.clone());
        dim_entry(&mut self.facets_by_dim, s.dimension()).insert(s);
        true
    }

    /// Inserts the missing faces of a simplex being added, through the
    /// stored boundaries. A face already present has all its faces
    /// present, so the descent stops there; it just became a proper face
    /// of the new simplex and stops being a facet (no-op if it already
    /// wasn't).
    fn close_under_faces(&mut self, s: &Simplex) {
        for f in s.boundary() {
            if self.all.contains(f) {
                if let Some(set) = self.facets_by_dim.get_mut(f.dimension()) {
                    set.remove(f);
                }
            } else {
                // A brand-new face of `s` cannot be maximal.
                self.all.insert(f.clone());
                dim_entry(&mut self.by_dim, f.dimension()).insert(f.clone());
                self.close_under_faces(f);
            }
        }
    }

    /// Replaces the star of `v` in place: removes every simplex containing
    /// `v`, then adds `replacements` and all their faces. The result is
    /// `(K ∖ st(v)) ∪ closure(replacements)`, with every view exact.
    ///
    /// This is the splitting deformation's `Δ_y(τ) = (Δ(τ) ∖ st(y)) ∪ new
    /// facets` (paper, §4.1). Beyond one scan of the facets for the star,
    /// it touches only the star and the replacements. A face that loses
    /// its last coface becomes a facet again; finding out costs one more
    /// scan of the facets, unless a replacement covers the face.
    pub fn replace_star(&mut self, v: &Vertex, replacements: &[Simplex]) {
        let star: Vec<Simplex> = self.facets().filter(|m| m.contains(v)).cloned().collect();
        for m in &star {
            for f in m.faces() {
                if f.contains(v) && self.all.remove(&f) {
                    for view in [&mut self.by_dim, &mut self.facets_by_dim] {
                        if let Some(set) = view.get_mut(f.dimension()) {
                            set.remove(&f);
                        }
                    }
                }
            }
        }
        for r in replacements {
            self.add_simplex(r.clone());
        }
        // `m ∖ {v}` stays in the complex; it is a facet now unless some
        // simplex still strictly contains it. Two such faces never nest
        // (the facets they came from would), so the facet view, which
        // lacks them, still answers for both.
        for exposed in star.iter().filter_map(|m| m.without_vertex(v)) {
            let d = exposed.dimension();
            let strictly_in = |s: &Simplex| s.dimension() > d && exposed.is_face_of(s);
            let covered = replacements.iter().any(strictly_in)
                || self
                    .facets_by_dim
                    .iter()
                    .skip(d + 1)
                    .flatten()
                    .any(strictly_in);
            if !covered {
                dim_entry(&mut self.facets_by_dim, d).insert(exposed);
            }
        }
    }

    /// Whether the complex contains simplex `s`.
    #[must_use]
    pub fn contains(&self, s: &Simplex) -> bool {
        self.all.contains(s)
    }

    /// Whether the complex contains the vertex `v`.
    #[must_use]
    pub fn contains_vertex(&self, v: &Vertex) -> bool {
        self.all.contains(&Simplex::vertex(v.clone()))
    }

    /// Whether the complex has no simplices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Iterator over all simplices, by ascending dimension and in simplex
    /// order within each dimension.
    pub fn simplices(&self) -> impl Iterator<Item = &Simplex> + Clone {
        self.by_dim.iter().flat_map(BTreeSet::iter)
    }

    /// Iterator over simplices of the given dimension.
    pub fn simplices_of_dim(&self, dim: usize) -> impl Iterator<Item = &Simplex> + Clone {
        self.by_dim.get(dim).into_iter().flat_map(BTreeSet::iter)
    }

    /// Number of simplices of the given dimension.
    #[must_use]
    pub fn count_of_dim(&self, dim: usize) -> usize {
        self.by_dim.get(dim).map_or(0, BTreeSet::len)
    }

    /// Total number of simplices, all dimensions.
    #[must_use]
    pub fn simplex_count(&self) -> usize {
        self.all.len()
    }

    /// Iterator over the facets (maximal simplices), by ascending
    /// dimension and in simplex order within each dimension.
    pub fn facets(&self) -> impl Iterator<Item = &Simplex> + Clone {
        self.facets_by_dim.iter().flat_map(BTreeSet::iter)
    }

    /// Number of facets.
    #[must_use]
    pub fn facet_count(&self) -> usize {
        self.facets_by_dim.iter().map(BTreeSet::len).sum()
    }

    /// Iterator over the vertices of the complex.
    pub fn vertices(&self) -> impl Iterator<Item = &Vertex> + Clone {
        self.simplices_of_dim(0).map(|s| &s.vertices()[0])
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.count_of_dim(0)
    }

    /// The dimension of the complex (max facet dimension), or `None` if
    /// empty.
    #[must_use]
    pub fn dimension(&self) -> Option<usize> {
        self.by_dim.iter().rposition(|set| !set.is_empty())
    }

    /// Whether all facets have the same dimension.
    #[must_use]
    pub fn is_pure(&self) -> bool {
        self.facets_by_dim
            .iter()
            .filter(|set| !set.is_empty())
            .count()
            <= 1
    }

    /// Whether every simplex is chromatic (distinct colors per simplex).
    /// It suffices to check facets.
    #[must_use]
    pub fn is_chromatic(&self) -> bool {
        self.facets().all(Simplex::is_chromatic)
    }

    /// The union of the color sets of all simplices.
    #[must_use]
    pub fn colors(&self) -> ColorSet {
        self.facets()
            .fold(ColorSet::new(), |acc, s| acc.union(s.colors()))
    }

    /// The `k`-skeleton: all simplices of dimension at most `k`
    /// (`Skel^k` in the paper, §5.3).
    #[must_use]
    pub fn skeleton(&self, k: usize) -> Complex {
        // Maximal simplices of the skeleton: every simplex of dimension
        // exactly `k`, plus the facets of smaller dimension.
        let low_facets = self
            .facets_by_dim
            .iter()
            .take(k)
            .flat_map(BTreeSet::iter)
            .cloned();
        Complex::from_facets(self.simplices_of_dim(k).cloned().chain(low_facets))
    }

    /// The link of vertex `v`: `lk(v) = { σ ∌ v : σ ∪ {v} ∈ K }`
    /// (paper, §2.2). For a 2-dimensional complex this is a graph.
    #[must_use]
    pub fn link(&self, v: &Vertex) -> Complex {
        // Every simplex of lk(v) is a face of `m \ {v}` for some facet
        // `m` containing `v`, so generating from facets suffices.
        let mut lk = Complex::new();
        for m in self.facets() {
            if m.contains(v) {
                if let Some(f) = m.without_vertex(v) {
                    lk.add_simplex(f);
                }
            }
        }
        lk
    }

    /// The star of vertex `v`: all simplices containing `v`, closed under
    /// faces.
    #[must_use]
    pub fn star(&self, v: &Vertex) -> Complex {
        // Every simplex containing `v` is a face of a facet containing
        // `v`, so the star is generated by those facets.
        Complex::from_facets(self.facets().filter(|m| m.contains(v)).cloned())
    }

    /// The subcomplex induced by a predicate on simplices: all simplices
    /// satisfying the predicate (the caller must ensure face-closure of the
    /// predicate, e.g. "does not contain vertex y"; otherwise the result is
    /// the closure of the selected simplices' faces).
    #[must_use]
    pub fn filtered<F: Fn(&Simplex) -> bool>(&self, keep: F) -> Complex {
        Complex::from_facets(self.simplices().filter(|s| keep(s)).cloned())
    }

    /// Whether every simplex of `self` is a simplex of `other`.
    #[must_use]
    pub fn is_subcomplex_of(&self, other: &Complex) -> bool {
        // Facets suffice: faces of contained simplices are contained.
        self.facets().all(|s| other.contains(s))
    }

    /// Union of two complexes.
    #[must_use]
    pub fn union(&self, other: &Complex) -> Complex {
        let mut k = self.clone();
        for s in other.facets() {
            k.add_simplex(s.clone());
        }
        k
    }

    /// Intersection of two complexes (simplices present in both).
    #[must_use]
    pub fn intersection(&self, other: &Complex) -> Complex {
        Complex::from_facets(self.simplices().filter(|s| other.contains(s)).cloned())
    }

    /// Connected components of the complex, as sets of vertices. Two
    /// vertices are connected if joined by a path of edges; components are
    /// returned sorted by their minimum vertex.
    #[must_use]
    pub fn connected_components(&self) -> Vec<BTreeSet<Vertex>> {
        let verts: Vec<Vertex> = self.vertices().cloned().collect();
        // chromata-lint: allow(D1): key-addressed DSU index lookup; never iterated
        let index: HashMap<&Vertex, usize, BuildStructuralHasher> =
            verts.iter().enumerate().map(|(i, v)| (v, i)).collect();
        let mut dsu = DisjointSets::new(verts.len());
        for e in self.simplices_of_dim(1) {
            let vs = e.vertices();
            dsu.union(index[&vs[0]], index[&vs[1]]);
        }
        // Grouped in a BTreeMap so even the pre-sort traversal order is
        // deterministic (rule D1).
        let mut groups: BTreeMap<usize, BTreeSet<Vertex>> = BTreeMap::new();
        for (i, v) in verts.iter().enumerate() {
            groups.entry(dsu.find(i)).or_default().insert(v.clone());
        }
        let mut out: Vec<BTreeSet<Vertex>> = groups.into_values().collect();
        out.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
        out
    }

    /// Whether the complex is connected (and non-empty).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() == 1
    }

    /// Whether the link of every vertex is a connected graph
    /// (link-connectivity, §2.2).
    #[must_use]
    pub fn is_link_connected(&self) -> bool {
        self.disconnected_link_vertices().is_empty()
    }

    /// The vertices of this complex whose link (in this complex) is
    /// non-empty and disconnected — the *local articulation points* when
    /// the complex is some `Δ(σ)` (paper, §4) — in [`Complex::vertices`]
    /// order.
    ///
    /// `lk(v)` is generated by the pieces `m ∖ {v}` over the facets
    /// `m ∋ v`, and each piece is connected, so `lk(v)` is connected iff
    /// its pieces chain together. One pass over the facets collects the
    /// pieces of every vertex; a union-find over vertex indices then
    /// chains each vertex's pieces, and is reset before the next vertex.
    #[must_use]
    pub fn disconnected_link_vertices(&self) -> Vec<Vertex> {
        let verts: Vec<&Vertex> = self.vertices().collect();
        // chromata-lint: allow(D1): key-addressed vertex index lookup; never iterated
        let index: HashMap<&Vertex, usize, BuildStructuralHasher> =
            verts.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let facets: Vec<Vec<usize>> = self
            .facets()
            .map(|m| m.iter().map(|w| index[w]).collect())
            .collect();
        let mut incident: Vec<Vec<&[usize]>> = vec![Vec::new(); verts.len()];
        for m in &facets {
            for &w in m {
                incident[w].push(m);
            }
        }
        let mut dsu = DisjointSets::new(verts.len());
        let mut out = Vec::new();
        let mut members = Vec::new();
        for (v, (vertex, cofacets)) in verts.iter().zip(&incident).enumerate() {
            members.clear();
            for m in cofacets {
                let piece = m.iter().copied().filter(|&w| w != v);
                let mut prev = None;
                for w in piece {
                    members.push(w);
                    if let Some(p) = prev {
                        dsu.union(p, w);
                    }
                    prev = Some(w);
                }
            }
            if let Some((&first, rest)) = members.split_first() {
                let root = dsu.find(first);
                if rest.iter().any(|&w| dsu.find(w) != root) {
                    out.push((*vertex).clone());
                }
            }
            // Unions and path compression only rewrote members' parents.
            for &w in &members {
                dsu.parent[w] = w;
            }
        }
        out
    }

    /// Euler characteristic `Σ (-1)^dim · #simplices_of_dim`.
    #[must_use]
    pub fn euler_characteristic(&self) -> i64 {
        self.by_dim
            .iter()
            .enumerate()
            .map(|(d, set)| {
                let n = set.len() as i64;
                if d % 2 == 0 {
                    n
                } else {
                    -n
                }
            })
            .sum()
    }

    /// Rewrites every vertex of the complex through `f`, returning the image
    /// complex. `f` must be injective on vertices to preserve structure
    /// faithfully, but non-injective maps are allowed (they quotient).
    #[must_use]
    pub fn map_vertices<F: Fn(&Vertex) -> Vertex>(&self, f: F) -> Complex {
        Complex::from_facets(self.facets().map(|s| Simplex::from_iter(s.iter().map(&f))))
    }
}

impl PartialEq for Complex {
    fn eq(&self, other: &Self) -> bool {
        self.all == other.all
    }
}

impl Eq for Complex {}

impl Hash for Complex {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.all.len());
        // `simplices()` iterates in a deterministic order, so equal
        // complexes hash equally.
        for s in self.simplices() {
            s.hash(state);
        }
    }
}

impl FromIterator<Simplex> for Complex {
    fn from_iter<I: IntoIterator<Item = Simplex>>(iter: I) -> Self {
        Complex::from_facets(iter)
    }
}

impl Extend<Simplex> for Complex {
    fn extend<I: IntoIterator<Item = Simplex>>(&mut self, iter: I) {
        for s in iter {
            self.add_simplex(s);
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Complex(dim={:?}, {} vertices, {} facets)",
            self.dimension(),
            self.vertex_count(),
            self.facet_count()
        )?;
        for s in self.facets() {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// Minimal union-find used by connectivity queries.
#[derive(Debug)]
struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: u8, x: i64) -> Vertex {
        Vertex::of(c, x)
    }

    fn tri(a: (u8, i64), b: (u8, i64), c: (u8, i64)) -> Simplex {
        Simplex::from_iter([v(a.0, a.1), v(b.0, b.1), v(c.0, c.1)])
    }

    #[test]
    fn closure_and_facets() {
        let t = tri((0, 0), (1, 1), (2, 2));
        let k = Complex::from_facets([t.clone()]);
        assert_eq!(k.simplices().count(), 7);
        assert_eq!(k.facet_count(), 1);
        // Adding a face of an existing facet changes nothing.
        let mut k2 = k.clone();
        let edge = Simplex::from_iter([v(0, 0), v(1, 1)]);
        assert!(!k2.add_simplex(edge));
        assert_eq!(k2, k);
    }

    #[test]
    fn facets_updated_on_enlargement() {
        let mut k = Complex::new();
        let edge = Simplex::from_iter([v(0, 0), v(1, 1)]);
        k.add_simplex(edge.clone());
        assert_eq!(k.facet_count(), 1);
        let t = tri((0, 0), (1, 1), (2, 2));
        k.add_simplex(t.clone());
        assert_eq!(k.facet_count(), 1);
        assert_eq!(k.facets().next(), Some(&t));
        assert!(k.contains(&edge));
    }

    #[test]
    fn purity_and_dimension() {
        let mut k = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        assert!(k.is_pure());
        assert_eq!(k.dimension(), Some(2));
        k.add_simplex(Simplex::from_iter([v(0, 5), v(1, 5)]));
        assert!(!k.is_pure());
        assert!(Complex::new().is_pure());
        assert_eq!(Complex::new().dimension(), None);
    }

    #[test]
    fn skeleton() {
        let k = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        let sk1 = k.skeleton(1);
        assert_eq!(sk1.dimension(), Some(1));
        assert_eq!(sk1.facet_count(), 3);
        assert_eq!(sk1.simplices().count(), 6);
        let sk0 = k.skeleton(0);
        assert_eq!(sk0.facet_count(), 3);
    }

    #[test]
    fn skeleton_keeps_low_dimensional_facets() {
        // A triangle plus a disjoint edge: the 0-skeleton keeps all five
        // vertices, the 1-skeleton keeps the stray edge as a facet.
        let mut k = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        k.add_simplex(Simplex::from_iter([v(0, 7), v(1, 7)]));
        let sk1 = k.skeleton(1);
        assert_eq!(sk1.facet_count(), 4, "3 triangle edges + stray edge");
        assert_eq!(k.skeleton(0).facet_count(), 5);
    }

    #[test]
    fn link_of_interior_vertex_of_two_triangles() {
        // Two triangles sharing edge {a, b}: link of a = path c - b - d.
        let a = v(0, 0);
        let b = v(1, 0);
        let c = v(2, 0);
        let d = v(2, 1);
        let k = Complex::from_facets([
            Simplex::from_iter([a.clone(), b.clone(), c.clone()]),
            Simplex::from_iter([a.clone(), b.clone(), d.clone()]),
        ]);
        let lk = k.link(&a);
        assert_eq!(lk.vertex_count(), 3);
        assert_eq!(lk.facet_count(), 2, "edges {{b,c}} and {{b,d}}");
        assert!(lk.is_connected());
        assert!(k.is_link_connected());
    }

    #[test]
    fn disconnected_link_detection() {
        // Bow-tie: two triangles sharing only the vertex w -> lk(w) has two
        // components. This is the shape of a local articulation point.
        let w = v(0, 0);
        let k = Complex::from_facets([
            Simplex::from_iter([w.clone(), v(1, 0), v(2, 0)]),
            Simplex::from_iter([w.clone(), v(1, 1), v(2, 1)]),
        ]);
        let lk = k.link(&w);
        assert_eq!(lk.connected_components().len(), 2);
        assert!(!k.is_link_connected());
        assert_eq!(k.disconnected_link_vertices(), vec![w]);
    }

    #[test]
    fn connectivity() {
        let k = Complex::from_facets([
            Simplex::from_iter([v(0, 0), v(1, 0)]),
            Simplex::from_iter([v(0, 1), v(1, 1)]),
        ]);
        assert_eq!(k.connected_components().len(), 2);
        assert!(!k.is_connected());
        let joined = k.union(&Complex::from_facets([Simplex::from_iter([
            v(1, 0),
            v(0, 1),
        ])]));
        assert!(joined.is_connected());
    }

    #[test]
    fn isolated_vertex_is_its_own_component() {
        let mut k = Complex::from_facets([Simplex::from_iter([v(0, 0), v(1, 0)])]);
        k.add_simplex(Simplex::vertex(v(2, 7)));
        assert_eq!(k.connected_components().len(), 2);
    }

    #[test]
    fn subcomplex_and_set_ops() {
        let big = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        let small = big.skeleton(1);
        assert!(small.is_subcomplex_of(&big));
        assert!(!big.is_subcomplex_of(&small));
        assert_eq!(big.intersection(&small), small);
        assert_eq!(small.union(&big), big);
    }

    #[test]
    fn euler_characteristic_of_disk_and_circle() {
        let disk = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        assert_eq!(disk.euler_characteristic(), 1);
        assert_eq!(disk.skeleton(1).euler_characteristic(), 0);
    }

    #[test]
    fn chromatic_validation() {
        let k = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        assert!(k.is_chromatic());
        let bad = Complex::from_facets([Simplex::from_iter([v(0, 0), v(0, 1)])]);
        assert!(!bad.is_chromatic());
        assert_eq!(k.colors().len(), 3);
    }

    #[test]
    fn map_vertices_relabel() {
        let k = Complex::from_facets([tri((0, 0), (1, 1), (2, 2))]);
        let shifted = k.map_vertices(|u| u.with_value(crate::value::Value::Int(9)));
        assert_eq!(shifted.vertex_count(), 3);
        assert_eq!(shifted.facet_count(), 1);
    }

    #[test]
    fn star_contains_all_cofaces() {
        let t = tri((0, 0), (1, 1), (2, 2));
        let k = Complex::from_facets([t.clone()]);
        let st = k.star(&v(0, 0));
        assert!(st.contains(&t));
        assert_eq!(st.facet_count(), 1);
        assert!(st.contains(&Simplex::vertex(v(0, 0))));
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        fn h(k: &Complex) -> u64 {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        }
        // Same complex built in different insertion orders.
        let t = tri((0, 0), (1, 1), (2, 2));
        let a = Complex::from_facets([t.clone()]);
        let mut b = Complex::new();
        for f in t.proper_faces() {
            b.add_simplex(f);
        }
        b.add_simplex(t);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }
}
