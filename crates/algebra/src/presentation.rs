//! Finite group presentations and Tietze simplification.
//!
//! The edge-path fundamental groups of the output complexes (paper, §5) are
//! handed to this module as presentations `⟨ g₁ … gₙ | r₁ … rₘ ⟩`. Tietze
//! moves shrink them enough to *recognize* the decidable regimes: trivial
//! groups, free groups, and evidently-abelian groups.
//!
//! chromata-lint: allow(P3): generator/relator indices are bounded by the presentation tables built in the same pass; every site is advisory-flagged by P2 for per-site review

use crate::matrix::IntMatrix;
use crate::word::{
    cyclic_reduce, delete_generator, exponent_vector, free_reduce, invert, substitute, Word,
};

/// A finite presentation of a group.
///
/// # Examples
///
/// ```
/// use chromata_algebra::Presentation;
///
/// // ⟨ a | a² ⟩ = Z/2.
/// let p = Presentation::new(1, vec![vec![1, 1]]);
/// assert!(!p.simplified().is_trivial_group());
/// // ⟨ a | a ⟩ = 1.
/// let q = Presentation::new(1, vec![vec![1]]);
/// assert!(q.simplified().is_trivial_group());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Presentation {
    generators: usize,
    relators: Vec<Word>,
}

impl Presentation {
    /// Creates a presentation with `generators` generators and the given
    /// relators (freely and cyclically reduced on construction).
    #[must_use]
    pub fn new(generators: usize, relators: Vec<Word>) -> Self {
        Presentation {
            generators,
            relators: normalized(relators),
        }
    }

    /// Number of generators.
    #[must_use]
    pub fn generator_count(&self) -> usize {
        self.generators
    }

    /// The relators (freely and cyclically reduced, deduplicated).
    #[must_use]
    pub fn relators(&self) -> &[Word] {
        &self.relators
    }

    /// Whether the presentation has no generators (the trivial group,
    /// syntactically).
    #[must_use]
    pub fn is_trivial_group(&self) -> bool {
        self.generators == 0
    }

    /// Whether the presentation has no relators (a free group of rank
    /// [`Presentation::generator_count`]).
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.relators.is_empty()
    }

    /// The exponent matrix of the relators (rows = abelianized relators,
    /// columns = generators): presentation matrix of H₁ = Gᵃᵇ.
    #[must_use]
    pub fn relator_matrix(&self) -> IntMatrix {
        let mut m = IntMatrix::zeros(self.relators.len(), self.generators);
        for (i, r) in self.relators.iter().enumerate() {
            for (j, e) in exponent_vector(r, self.generators).into_iter().enumerate() {
                m.set(i, j, e);
            }
        }
        m
    }

    /// Applies Tietze simplification until a fixed point (or a size guard):
    /// eliminates generators that occur exactly once in a single relator,
    /// substitutes length-1 and length-2 relators, and re-normalizes.
    /// The result presents an isomorphic group.
    ///
    /// Each elimination costs time linear in the total relator length:
    /// only the relators that mention the eliminated generator are
    /// rewritten and re-canonicalized. Renumbering the others is
    /// order-preserving and commutes with inversion, so they stay
    /// canonical and sorted, and a merge restores the normal form.
    #[must_use]
    pub fn simplified(&self) -> Presentation {
        const MAX_TOTAL_LENGTH: usize = 100_000;
        // `new` and deserialization both normalize, so `self` is clean.
        let mut p = self.clone();
        let mut counts = vec![0u32; p.generators + 1];
        loop {
            let Some((gen, rep, ridx)) = p.find_elimination(&mut counts) else {
                return p;
            };
            // Substitute gen := rep in every other relator that mentions
            // it; the untouched ones keep their length.
            let mentions = |r: &Word| r.iter().any(|&x| x.abs() == gen);
            let mut total = 0usize;
            let mut touched = Vec::new();
            for (i, r) in p.relators.iter().enumerate() {
                if i == ridx {
                    continue;
                }
                if mentions(r) {
                    let s = substitute(r, gen, &rep);
                    total += s.len();
                    touched.push(s);
                } else {
                    total += r.len();
                }
            }
            if total > MAX_TOTAL_LENGTH {
                return p; // size guard: give up on further elimination
            }
            let mut kept = Vec::with_capacity(p.relators.len());
            for (i, mut r) in std::mem::take(&mut p.relators).into_iter().enumerate() {
                if i != ridx && !mentions(&r) {
                    renumber_after_deletion(&mut r, gen);
                    kept.push(r);
                }
            }
            let fresh = normalized(touched.iter().map(|s| delete_generator(s, gen)));
            p.generators -= 1;
            p.relators = merge_dedup(kept, fresh);
        }
    }

    /// Finds a generator eliminable by a Tietze move: a relator in which
    /// some generator occurs exactly once (so the relator can be solved for
    /// it). Returns `(generator, replacement word, relator index)` for the
    /// first such relator and, within it, the smallest such generator.
    ///
    /// `counts` is zeroed scratch space indexed by generator; it is zeroed
    /// again on return.
    fn find_elimination(&self, counts: &mut [u32]) -> Option<(i32, Word, usize)> {
        for (ridx, r) in self.relators.iter().enumerate() {
            for &x in r {
                counts[x.unsigned_abs() as usize] += 1;
            }
            let unique = r
                .iter()
                .map(|&x| x.abs())
                .filter(|&g| counts[g as usize] == 1)
                .min();
            for &x in r {
                counts[x.unsigned_abs() as usize] = 0;
            }
            let Some(g) = unique else {
                continue;
            };
            // Rotate r so the unique occurrence of ±g is first:
            // r = g^ε · w  ⇒  g^ε = w⁻¹  ⇒  g = w⁻¹ (ε=1) or w (ε=-1).
            let pos = r.iter().position(|&x| x.abs() == g).expect("present"); // chromata-lint: allow(P1): g was drawn from the letters of r, so the position exists
            let mut rot = r[pos..].to_vec();
            rot.extend_from_slice(&r[..pos]);
            let eps = rot[0].signum();
            let w = &rot[1..];
            let rep = if eps > 0 { invert(w) } else { free_reduce(w) };
            return Some((g, rep, ridx));
        }
        None
    }

    /// Whether the presented *group* is certifiably abelian: after Tietze
    /// simplification the presentation has at most one generator, or every
    /// pair of generators has its commutator among the relators. Sufficient
    /// but not necessary ("evidently abelian").
    #[must_use]
    pub fn is_evidently_abelian(&self) -> bool {
        self.simplified().has_all_commutators()
    }

    /// The test behind [`Presentation::is_evidently_abelian`], applied to
    /// this presentation as it stands (no simplification): at most one
    /// generator, or every pairwise commutator among the relators. Call it
    /// on an already-simplified presentation to avoid simplifying twice.
    #[must_use]
    pub fn has_all_commutators(&self) -> bool {
        if self.generators <= 1 {
            return true;
        }
        // Relators are sorted, so membership is a binary search.
        (1..=self.generators as i32).all(|a| {
            (a + 1..=self.generators as i32).all(|b| {
                let comm = canonical_cyclic(&[a, b, -a, -b]);
                self.relators.binary_search(&comm).is_ok()
            })
        })
    }
}

/// Normalizes relators: free+cyclic reduction, drop empties, dedup up to
/// rotation and inversion (canonical representatives, sorted, so duplicates
/// in disguise collapse).
fn normalized<W: AsRef<[i32]>>(words: impl IntoIterator<Item = W>) -> Vec<Word> {
    let mut rs: Vec<Word> = words
        .into_iter()
        .map(|w| canonical_cyclic(w.as_ref()))
        .filter(|r| !r.is_empty())
        .collect();
    rs.sort();
    rs.dedup();
    rs
}

/// [`delete_generator`] in place, for a word that does not mention `g`.
fn renumber_after_deletion(w: &mut [i32], g: i32) {
    for x in w {
        if x.abs() > g {
            *x -= x.signum();
        }
    }
}

/// Merges two sorted, duplicate-free lists into one.
fn merge_dedup(a: Vec<Word>, b: Vec<Word>) -> Vec<Word> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.into_iter().peekable();
    for x in a {
        while let Some(y) = b.next_if(|y| *y < x) {
            out.push(y);
        }
        b.next_if(|y| *y == x);
        out.push(x);
    }
    out.extend(b);
    out
}

/// Canonical representative of a cyclic word up to rotation and inversion:
/// the least rotation of the cyclically reduced word or of its inverse.
/// Rotations are compared in place; only the winner is copied out.
fn canonical_cyclic(w: &[i32]) -> Word {
    let w = cyclic_reduce(w);
    if w.is_empty() {
        return w;
    }
    let inv = invert(&w);
    fn rotation(v: &[i32], k: usize) -> impl Iterator<Item = &i32> {
        v[k..].iter().chain(&v[..k])
    }
    let mut best: (&[i32], usize) = (&w, 0);
    for cand in [&w[..], &inv[..]] {
        for k in 0..cand.len() {
            if rotation(cand, k).lt(rotation(best.0, best.1)) {
                best = (cand, k);
            }
        }
    }
    rotation(best.0, best.1).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanup_dedups_rotations_and_inverses() {
        let p = Presentation::new(2, vec![vec![1, 2], vec![2, 1], vec![-2, -1], vec![1, -1]]);
        assert_eq!(p.relators().len(), 1);
    }

    #[test]
    fn trivial_group_recognized() {
        // ⟨ a, b | a, b ⟩ = 1.
        let p = Presentation::new(2, vec![vec![1], vec![2]]);
        assert!(p.simplified().is_trivial_group());
        // ⟨ a, b | ab, b ⟩ = 1.
        let q = Presentation::new(2, vec![vec![1, 2], vec![2]]);
        assert!(q.simplified().is_trivial_group());
    }

    #[test]
    fn free_group_stays_free() {
        let p = Presentation::new(3, vec![]);
        let s = p.simplified();
        assert!(s.is_free());
        assert_eq!(s.generator_count(), 3);
    }

    #[test]
    fn z2_is_not_trivial_but_is_abelian() {
        let p = Presentation::new(1, vec![vec![1, 1]]);
        let s = p.simplified();
        assert!(!s.is_trivial_group());
        assert_eq!(s.generator_count(), 1);
        assert!(p.is_evidently_abelian());
    }

    #[test]
    fn torus_presentation_is_abelian() {
        // ⟨ a, b | [a,b] ⟩ = Z².
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2]]);
        assert!(p.is_evidently_abelian());
        assert!(!p.simplified().is_trivial_group());
    }

    #[test]
    fn surface_genus2_not_evidently_abelian() {
        // ⟨ a,b,c,d | [a,b][c,d] ⟩: not abelian; our sufficient check must
        // not claim otherwise.
        let p = Presentation::new(4, vec![vec![1, 2, -1, -2, 3, 4, -3, -4]]);
        assert!(!p.is_evidently_abelian());
    }

    #[test]
    fn elimination_collapses_chain() {
        // ⟨ a, b, c | a b⁻¹, b c⁻¹ ⟩ ≅ Z (one generator, free).
        let p = Presentation::new(3, vec![vec![1, -2], vec![2, -3]]);
        let s = p.simplified();
        assert_eq!(s.generator_count(), 1);
        assert!(s.is_free());
    }

    #[test]
    fn relator_matrix_abelianization() {
        // ⟨ a, b | a²b ⟩ abelianized: ±[2, 1] (canonicalization may invert
        // the relator, which spans the same lattice).
        let p = Presentation::new(2, vec![vec![1, 1, 2]]);
        let m = p.relator_matrix();
        let row = (m.get(0, 0), m.get(0, 1));
        assert!(row == (2, 1) || row == (-2, -1), "got {row:?}");
    }
}
