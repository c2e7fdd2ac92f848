//! Simplices: finite non-empty sets of vertices in canonical sorted form.
//!
//! An interned simplex carries its boundary: when a simplex is first
//! interned, its codimension-1 faces are interned too and stored with it
//! (`boundary[i]` is the face without vertex `i`). Every face query
//! ([`Simplex::proper_faces`], [`Simplex::faces`],
//! [`Simplex::boundary_faces`], [`Simplex::without_vertex`]) walks these
//! stored boundaries instead of interning vertex subsets again, and
//! [`Complex`](crate::Complex) closes new simplices under faces through
//! them.
//!
//! chromata-lint: allow(P3): vertex indices are bounded by the simplex dimension invariant the type maintains; every site is advisory-flagged by P2 for per-site review

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::color::ColorSet;
use crate::intern::{Interner, StructuralHasher};
use crate::vertex::Vertex;

/// A simplex: a non-empty set of [`Vertex`]es, stored sorted and
/// deduplicated (paper, §2.2).
///
/// The *dimension* of a simplex is its cardinality minus one; vertices are
/// 0-dimensional, edges 1-dimensional, triangles 2-dimensional. A simplex is
/// *chromatic* if all its vertices have pairwise-distinct colors; all
/// simplices of the complexes in the paper are chromatic, but the type does
/// not force this so that intermediate colorless constructions can reuse it.
///
/// Simplices are interned: structurally-equal simplices share one
/// allocation, so cloning is a reference-count bump, equality a pointer
/// comparison and hashing a precomputed fingerprint. The color set is
/// computed once at construction. The `Ord` instance compares the
/// deterministic structural fingerprint first (falling back to the
/// lexicographic vertex order only on fingerprint collisions), so ordered
/// containers of simplices stay cheap; the resulting order is stable
/// across runs, builds and thread interleavings, but it is **not** the
/// lexicographic order of the vertex lists.
///
/// # Examples
///
/// ```
/// use chromata_topology::{Simplex, Vertex};
///
/// let edge = Simplex::from_iter([Vertex::of(0, 1), Vertex::of(1, 0)]);
/// assert_eq!(edge.dimension(), 1);
/// assert!(edge.is_chromatic());
/// assert!(Simplex::vertex(Vertex::of(0, 1)).is_face_of(&edge));
/// ```
#[derive(Clone)]
pub struct Simplex(Arc<SimplexInner>);

#[derive(Debug)]
pub(crate) struct SimplexInner {
    vertices: Vec<Vertex>,
    colors: ColorSet,
    hash: u64,
    /// `boundary[i]` is the face without vertex `i`; empty for a vertex.
    boundary: Box<[Simplex]>,
}

static SIMPLICES: OnceLock<Interner<SimplexInner>> = OnceLock::new();

pub(crate) fn interner() -> &'static Interner<SimplexInner> {
    SIMPLICES.get_or_init(Interner::new)
}

/// The interning key of a sorted vertex list.
fn fingerprint(vertices: &[Vertex]) -> u64 {
    let mut h = StructuralHasher::default();
    h.write_usize(vertices.len());
    for v in vertices {
        h.write_u64(v.fingerprint());
    }
    h.finish()
}

impl SimplexInner {
    /// Builds the entry for a sorted vertex list, interning its boundary
    /// faces into `table` (with no shard lock held).
    fn build(table: &Interner<SimplexInner>, vertices: Vec<Vertex>, hash: u64) -> Self {
        let boundary = if vertices.len() == 1 {
            Box::default()
        } else {
            (0..vertices.len())
                .map(|i| {
                    let mut face = vertices.clone();
                    face.remove(i);
                    Simplex::intern_in(table, face)
                })
                .collect()
        };
        SimplexInner {
            colors: vertices.iter().map(Vertex::color).collect(),
            vertices,
            hash,
            boundary,
        }
    }
}

impl Simplex {
    /// Interns an already-sorted, deduplicated, non-empty vertex list.
    fn intern(vertices: Vec<Vertex>) -> Self {
        Simplex::intern_in(interner(), vertices)
    }

    /// [`Simplex::intern`] into a given table: look the simplex up; on a
    /// miss, intern its boundary, then insert it or take the entry a
    /// racing thread inserted first.
    fn intern_in(table: &Interner<SimplexInner>, vertices: Vec<Vertex>) -> Self {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
        let hash = fingerprint(&vertices);
        Simplex(table.intern(
            hash,
            |inner| inner.vertices == vertices,
            || SimplexInner::build(table, vertices.clone(), hash),
        ))
    }

    /// Creates the 0-dimensional simplex `{v}`.
    #[must_use]
    pub fn vertex(v: Vertex) -> Self {
        Simplex::intern(vec![v])
    }

    /// Creates a simplex from vertices, sorting and deduplicating.
    ///
    /// # Panics
    ///
    /// Panics if the vertex collection is empty (the empty simplex is not a
    /// simplex in the paper's convention).
    #[must_use]
    pub fn new(vertices: Vec<Vertex>) -> Self {
        let mut v = vertices;
        v.sort();
        v.dedup();
        assert!(!v.is_empty(), "a simplex must have at least one vertex");
        Simplex::intern(v)
    }

    /// The vertices of the simplex, in sorted order.
    #[must_use]
    pub fn vertices(&self) -> &[Vertex] {
        &self.0.vertices
    }

    /// Number of vertices (`|σ|`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.vertices.len()
    }

    /// Always `false`: simplices are non-empty by construction. Provided for
    /// API completeness alongside [`Simplex::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dimension `|σ| - 1`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.0.vertices.len() - 1
    }

    /// Whether `v` is a vertex of this simplex.
    #[must_use]
    pub fn contains(&self, v: &Vertex) -> bool {
        self.0.vertices.binary_search(v).is_ok()
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_face_of(&self, other: &Simplex) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        if self.len() > other.len() || !self.colors().is_subset_of(other.colors()) {
            return false;
        }
        self.0.vertices.iter().all(|v| other.contains(v))
    }

    /// The set of colors `id(σ)` of the simplex (precomputed).
    #[must_use]
    pub fn colors(&self) -> ColorSet {
        self.0.colors
    }

    /// Whether all vertices have pairwise-distinct colors.
    #[must_use]
    pub fn is_chromatic(&self) -> bool {
        self.0.colors.len() == self.0.vertices.len()
    }

    /// The vertex of the given color, if the simplex is chromatic enough to
    /// have at most one.
    #[must_use]
    pub fn vertex_of_color(&self, c: crate::color::Color) -> Option<&Vertex> {
        if !self.0.colors.contains(c) {
            return None;
        }
        self.0.vertices.iter().find(|v| v.color() == c)
    }

    /// All non-empty proper faces of this simplex (excluding itself),
    /// sorted.
    ///
    /// For a triangle this returns its three edges and three vertices.
    #[must_use]
    pub fn proper_faces(&self) -> Vec<Simplex> {
        // Walk the stored boundaries one dimension down at a time; each
        // level is sorted and deduplicated before its own boundaries are
        // read.
        let mut out = Vec::new();
        let mut level = self.0.boundary.to_vec();
        while !level.is_empty() {
            level.sort();
            level.dedup();
            let next = level
                .iter()
                .flat_map(|f| f.0.boundary.iter().cloned())
                .collect();
            out.append(&mut level);
            level = next;
        }
        out.sort();
        out
    }

    /// All non-empty faces of this simplex, including itself, sorted.
    #[must_use]
    pub fn faces(&self) -> Vec<Simplex> {
        let mut out = self.proper_faces();
        out.push(self.clone());
        out.sort();
        out
    }

    /// The codimension-1 faces (facets of the boundary); the `i`-th is
    /// the face without the `i`-th vertex. Empty for a vertex.
    #[must_use]
    pub fn boundary_faces(&self) -> Vec<Simplex> {
        self.0.boundary.to_vec()
    }

    /// The stored boundary, as [`Simplex::boundary_faces`] without a copy.
    pub(crate) fn boundary(&self) -> &[Simplex] {
        &self.0.boundary
    }

    /// The face obtained by removing vertex `v`, or `None` if `v` is not a
    /// vertex or the simplex would become empty.
    #[must_use]
    pub fn without_vertex(&self, v: &Vertex) -> Option<Simplex> {
        let i = self.0.vertices.binary_search(v).ok()?;
        self.0.boundary.get(i).cloned()
    }

    /// The simplex with vertex `from` replaced by `to`.
    ///
    /// Used by the splitting deformation (§4.1) to re-target facets from a
    /// local articulation point `y` to one of its copies `y_i`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a vertex of this simplex.
    #[must_use]
    pub fn substituted(&self, from: &Vertex, to: Vertex) -> Simplex {
        let i = self
            .0
            .vertices
            .binary_search(from)
            .unwrap_or_else(|_| panic!("substituted: {from} not in {self}")); // chromata-lint: allow(P1): documented # Panics contract of substitute
        let mut v = self.0.vertices.clone();
        v[i] = to;
        Simplex::new(v)
    }

    /// The union `self ∪ other` as a simplex.
    #[must_use]
    pub fn union(&self, other: &Simplex) -> Simplex {
        if Arc::ptr_eq(&self.0, &other.0) {
            return self.clone();
        }
        let mut v = self.0.vertices.clone();
        v.extend(other.0.vertices.iter().cloned());
        Simplex::new(v)
    }

    /// The intersection `self ∩ other`, or `None` if disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Simplex) -> Option<Simplex> {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Some(self.clone());
        }
        let v: Vec<Vertex> = self
            .0
            .vertices
            .iter()
            .filter(|x| other.contains(x))
            .cloned()
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(Simplex::intern(v))
        }
    }

    /// Iterator over the vertices.
    pub fn iter(&self) -> std::slice::Iter<'_, Vertex> {
        self.0.vertices.iter()
    }
}

impl PartialEq for Simplex {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes structural equality coincide with identity.
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Simplex {}

impl Hash for Simplex {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for Simplex {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Simplex {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        // Fingerprint first: one integer comparison decides almost always,
        // deterministically; ties fall back to the structural order.
        self.0
            .hash
            .cmp(&other.0.hash)
            .then_with(|| self.0.vertices.cmp(&other.0.vertices))
    }
}

impl fmt::Debug for Simplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Simplex").field(&self.0.vertices).finish()
    }
}

impl FromIterator<Vertex> for Simplex {
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    fn from_iter<I: IntoIterator<Item = Vertex>>(iter: I) -> Self {
        Simplex::new(iter.into_iter().collect())
    }
}

impl From<Vertex> for Simplex {
    fn from(v: Vertex) -> Self {
        Simplex::vertex(v)
    }
}

impl<'a> IntoIterator for &'a Simplex {
    type Item = &'a Vertex;
    type IntoIter = std::slice::Iter<'a, Vertex>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.vertices.iter()
    }
}

impl IntoIterator for Simplex {
    type Item = Vertex;
    type IntoIter = std::vec::IntoIter<Vertex>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.vertices.clone().into_iter()
    }
}

impl fmt::Display for Simplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, v) in self.0.vertices.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Simplex {
        Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1), Vertex::of(2, 2)])
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = Simplex::new(vec![Vertex::of(2, 0), Vertex::of(0, 0), Vertex::of(2, 0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dimension(), 1);
        assert_eq!(s.vertices()[0], Vertex::of(0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_simplex_panics() {
        let _ = Simplex::new(vec![]);
    }

    #[test]
    fn interning_shares_allocations() {
        let a = tri();
        let b = tri();
        assert!(Arc::ptr_eq(&a.0, &b.0), "equal simplices share storage");
        assert_eq!(a, b);
    }

    #[test]
    fn faces_of_triangle() {
        let t = tri();
        assert_eq!(t.proper_faces().len(), 6, "3 vertices + 3 edges");
        assert_eq!(t.faces().len(), 7);
        assert_eq!(t.boundary_faces().len(), 3);
        for e in t.boundary_faces() {
            assert_eq!(e.dimension(), 1);
            assert!(e.is_face_of(&t));
        }
        assert!(t.is_face_of(&t));
    }

    #[test]
    fn chromaticity() {
        assert!(tri().is_chromatic());
        let bad = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(0, 1)]);
        assert!(!bad.is_chromatic());
        assert_eq!(bad.colors().len(), 1);
    }

    #[test]
    fn vertex_of_color() {
        let t = tri();
        assert_eq!(
            t.vertex_of_color(crate::color::Color::new(1)),
            Some(&Vertex::of(1, 1))
        );
        assert_eq!(t.vertex_of_color(crate::color::Color::new(5)), None);
    }

    #[test]
    fn substitution() {
        let t = tri();
        let y = Vertex::of(1, 1);
        let y0 = Vertex::of(1, 99);
        let s = t.substituted(&y, y0.clone());
        assert!(s.contains(&y0));
        assert!(!s.contains(&y));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_intersection() {
        let e1 = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1)]);
        let e2 = Simplex::from_iter([Vertex::of(1, 1), Vertex::of(2, 2)]);
        assert_eq!(e1.union(&e2), tri());
        assert_eq!(
            e1.intersection(&e2),
            Some(Simplex::vertex(Vertex::of(1, 1)))
        );
        let v = Simplex::vertex(Vertex::of(2, 2));
        assert_eq!(e1.intersection(&v), None);
    }

    #[test]
    fn without_vertex() {
        let t = tri();
        let f = t.without_vertex(&Vertex::of(0, 0)).unwrap();
        assert_eq!(f.dimension(), 1);
        assert!(Simplex::vertex(Vertex::of(0, 0))
            .without_vertex(&Vertex::of(0, 0))
            .is_none());
        assert!(t.without_vertex(&Vertex::of(5, 5)).is_none());
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut xs = vec![
            tri(),
            Simplex::vertex(Vertex::of(0, 0)),
            Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1)]),
        ];
        xs.sort();
        let once: Vec<Simplex> = xs.clone();
        xs.sort();
        assert_eq!(xs, once, "sorting is stable and deterministic");
        xs.dedup();
        assert_eq!(xs.len(), 3);
    }

    #[test]
    fn colliding_fingerprints_are_both_canonical_and_counted() {
        // Two distinct simplices forced under one fingerprint into the
        // global table: the second lands in its shard's side table. Values
        // no other test uses keep the forged entries out of their way.
        let forged = 0x00c0_111d_ed00_0001;
        let (_, before) = crate::interner_stats();
        let intern = |vertices: &[Vertex]| {
            interner().intern(
                forged,
                |inner| inner.vertices == vertices,
                || SimplexInner::build(interner(), vertices.to_vec(), forged),
            )
        };
        let a = [Vertex::of(0, -40_001)];
        let b = [Vertex::of(1, -40_001)];
        let (first, second) = (intern(&a), intern(&b));
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(
            Arc::ptr_eq(&intern(&a), &first),
            "first entry stays canonical"
        );
        assert!(
            Arc::ptr_eq(&intern(&b), &second),
            "side-table entry stays canonical"
        );
        let (_, after) = crate::interner_stats();
        // Other tests only ever add entries concurrently.
        assert!(after >= before + 2, "both entries counted");
    }

    #[test]
    fn first_time_interning_interleavings_keep_one_canonical_arc() {
        use crate::interleave::{depth_budget, for_each_interleaving, max_threads};
        // Every thread interns the same new triangle through the steps of
        // `Simplex::intern_in`: a lookup, the boundary faces in
        // `depth_budget() - 2` chunks, then insert-or-take-the-winner. A
        // thread whose lookup hits is done. Each schedule replays against
        // a fresh table, so the triangle is new every time.
        let tri = vec![Vertex::of(0, 0), Vertex::of(1, 0), Vertex::of(2, 0)];
        let hash = fingerprint(&tri);
        let matches = |inner: &SimplexInner| inner.vertices == tri;
        let faces: Vec<Vec<Vertex>> = (0..tri.len())
            .map(|i| {
                let mut face = tri.clone();
                face.remove(i);
                face
            })
            .collect();
        let chunks = (depth_budget() - 2).min(faces.len());
        let ops = chunks + 2;
        let mut schedules = 0;
        for_each_interleaving(&vec![ops; max_threads()], |schedule| {
            schedules += 1;
            let table: Interner<SimplexInner> = Interner::new();
            let mut step = vec![0; max_threads()];
            let mut boundary: Vec<Vec<Simplex>> = vec![Vec::new(); max_threads()];
            let mut result: Vec<Option<Arc<SimplexInner>>> = vec![None; max_threads()];
            for &t in schedule {
                let k = step[t];
                step[t] += 1;
                if result[t].is_some() {
                    continue;
                }
                if k == 0 {
                    result[t] = table.get(hash, matches);
                } else if k <= chunks {
                    let range = (k - 1) * faces.len() / chunks..k * faces.len() / chunks;
                    for face in &faces[range] {
                        boundary[t].push(Simplex::intern_in(&table, face.clone()));
                    }
                } else {
                    let inner = SimplexInner {
                        vertices: tri.clone(),
                        colors: tri.iter().map(Vertex::color).collect(),
                        hash,
                        boundary: std::mem::take(&mut boundary[t]).into_boxed_slice(),
                    };
                    result[t] = Some(table.insert(hash, matches, inner));
                }
                // The triangle, 3 edges and 3 vertices, never twice.
                assert!(table.len() <= 7, "duplicate entry in {schedule:?}");
            }
            let winner = result[0].clone().expect("thread 0 finished");
            for r in &result {
                let r = r.as_ref().expect("every thread finished");
                assert!(
                    Arc::ptr_eq(r, &winner),
                    "two canonical triangles in {schedule:?}"
                );
            }
            assert_eq!(table.len(), 7, "{schedule:?}");
            for (stored, face) in winner.boundary.iter().zip(&faces) {
                let canonical = table
                    .get(fingerprint(face), |inner| inner.vertices == *face)
                    .expect("boundary face interned");
                assert!(Arc::ptr_eq(&stored.0, &canonical), "{schedule:?}");
            }
            assert_eq!(winner.boundary.len(), faces.len());
        });
        assert_eq!(
            schedules,
            crate::interleave::interleaving_count(&vec![ops; max_threads()])
        );
    }
}
