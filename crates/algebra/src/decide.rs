//! Tiered word-problem decision for edge-path groups.
//!
//! Loop contractibility in 2-complexes is undecidable in general
//! (Gafni–Koutsoupias; paper §7), so the pipeline uses a tier of sound,
//! partial deciders and reports `Unknown` honestly when all tiers pass:
//!
//! 1. free reduction (syntactic identity);
//! 2. group triviality via Tietze simplification (decides *all* words);
//! 3. free groups: reduced word empty or not (exact);
//! 4. abelianization: exponent vector in the relator lattice — a sound
//!    `Nontrivial` certificate, and exact when the group is evidently
//!    abelian (annulus ℤ, torus ℤ², projective plane ℤ/2);
//! 5. bounded Todd–Coxeter: exact whenever the group is small enough to
//!    enumerate. Skipped when tier 4's relator lattice has rank below the
//!    generator count: then `G^ab` has a ℤ summand, `G` is infinite, and
//!    the enumeration could never close.

use crate::linear::EchelonBasis;
use crate::presentation::Presentation;
use crate::todd_coxeter::{coset_enumeration, Enumeration};
use crate::word::{exponent_vector, free_reduce};

/// Three-valued answer to "does this word represent the identity?".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Triviality {
    /// The word is certainly the identity (the loop is contractible).
    Trivial,
    /// The word is certainly not the identity.
    Nontrivial,
    /// None of the decidable tiers applied.
    Unknown,
}

/// Default coset budget for the Todd–Coxeter tier.
pub const DEFAULT_COSET_BUDGET: usize = 4096;

/// Decides whether `w` represents the identity in the group presented by
/// `p`, using the tiered strategy described in the module docs.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{word_triviality, Presentation, Triviality};
///
/// // Z/2 = ⟨ a | a² ⟩.
/// let p = Presentation::new(1, vec![vec![1, 1]]);
/// assert_eq!(word_triviality(&p, &[1, 1]), Triviality::Trivial);
/// assert_eq!(word_triviality(&p, &[1]), Triviality::Nontrivial);
/// ```
#[must_use]
pub fn word_triviality(p: &Presentation, w: &[i32]) -> Triviality {
    word_triviality_with_budget(p, w, DEFAULT_COSET_BUDGET)
}

/// [`word_triviality`] with an explicit Todd–Coxeter coset budget.
#[must_use]
pub fn word_triviality_with_budget(p: &Presentation, w: &[i32], coset_budget: usize) -> Triviality {
    decide_tiers(p, w, coset_budget, || {
        let simplified = p.simplified();
        (
            simplified.is_trivial_group(),
            simplified.has_all_commutators(),
        )
    })
}

/// The tiers behind [`word_triviality_with_budget`] and
/// [`PresentationSummary::word_triviality`](crate::PresentationSummary::word_triviality).
///
/// `facts` yields `(trivial, evidently_abelian)` for `p`'s Tietze-simplified
/// form. It runs at most once, and only for words that survive free
/// reduction, so callers that hold the flags already pay nothing.
pub(crate) fn decide_tiers(
    p: &Presentation,
    w: &[i32],
    coset_budget: usize,
    facts: impl FnOnce() -> (bool, bool),
) -> Triviality {
    // Tier 1: syntactic identity.
    let w = free_reduce(w);
    if w.is_empty() {
        return Triviality::Trivial;
    }

    // Tier 2: the whole group is trivial (isomorphism-invariant, so the
    // simplified copy certifies the original).
    let (trivial, evidently_abelian) = facts();
    if trivial {
        return Triviality::Trivial;
    }

    // Tier 3: free group — reduced non-empty word is non-trivial. This is
    // only sound on the *original* presentation (same generators as `w`).
    if p.is_free() {
        return Triviality::Nontrivial;
    }

    // Tier 4: abelianization. If the exponent vector is outside the
    // relator lattice, the word is non-trivial in G^ab, hence in G.
    let e = exponent_vector(&w, p.generator_count());
    let lattice = EchelonBasis::of_columns(&p.relator_matrix().transpose()); // columns = relators
    if !lattice.contains(&e) {
        return Triviality::Nontrivial;
    }
    // Exact when the group is certifiably abelian.
    if evidently_abelian {
        return Triviality::Trivial;
    }

    // Tier 5: bounded coset enumeration (exact for small finite groups).
    // It closes only when G is finite. A relator lattice of rank below the
    // generator count leaves a ℤ summand in G^ab, so G is infinite and no
    // budget would close it.
    if lattice.rank() < p.generator_count() {
        return Triviality::Unknown;
    }
    if let Enumeration::Finite(t) = coset_enumeration(p, coset_budget) {
        return if t.is_identity(&w) {
            Triviality::Trivial
        } else {
            Triviality::Nontrivial
        };
    }

    Triviality::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_reduction_tier() {
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2]]);
        assert_eq!(word_triviality(&p, &[1, -1]), Triviality::Trivial);
    }

    #[test]
    fn trivial_group_tier() {
        // ⟨ a, b | a, ab ⟩ = 1: every word trivial.
        let p = Presentation::new(2, vec![vec![1], vec![1, 2]]);
        assert_eq!(word_triviality(&p, &[2, 1, 2]), Triviality::Trivial);
    }

    #[test]
    fn free_group_tier() {
        let p = Presentation::new(2, vec![]);
        assert_eq!(word_triviality(&p, &[1, 2]), Triviality::Nontrivial);
        assert_eq!(word_triviality(&p, &[1, 2, -2, -1]), Triviality::Trivial);
    }

    #[test]
    fn abelian_tier_torus() {
        // Z² = ⟨ a, b | [a,b] ⟩.
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2]]);
        assert_eq!(word_triviality(&p, &[1]), Triviality::Nontrivial);
        assert_eq!(word_triviality(&p, &[2, 1, -2, -1]), Triviality::Trivial);
        assert_eq!(
            word_triviality(&p, &[1, 1, 2, -1, -1]),
            Triviality::Nontrivial
        );
    }

    #[test]
    fn torsion_tier_projective_plane() {
        // Z/2 = ⟨ a | a² ⟩: a is in the abelianized lattice only with even
        // exponent.
        let p = Presentation::new(1, vec![vec![1, 1]]);
        assert_eq!(word_triviality(&p, &[1]), Triviality::Nontrivial);
        assert_eq!(word_triviality(&p, &[1, 1]), Triviality::Trivial);
        assert_eq!(word_triviality(&p, &[1, 1, 1]), Triviality::Nontrivial);
    }

    #[test]
    fn coset_tier_nonabelian_finite() {
        // S3: commutator [a, b] is non-trivial but dies in H1 — only the
        // Todd–Coxeter tier can certify Nontrivial.
        let p = Presentation::new(2, vec![vec![1, 1], vec![2, 2], vec![1, 2, 1, 2, 1, 2]]);
        assert_eq!(word_triviality(&p, &[1, 2, -1, -2]), Triviality::Nontrivial);
        assert_eq!(
            word_triviality(&p, &[1, 2, 1, 2, 1, 2]),
            Triviality::Trivial
        );
    }

    #[test]
    fn unknown_for_hard_cases() {
        // Genus-2 surface group: infinite, non-abelian; the commutator
        // product relator puts the test word in the H1 lattice, TC cannot
        // close, so we must answer Unknown (with a tiny budget to keep the
        // test fast).
        let p = Presentation::new(4, vec![vec![1, 2, -1, -2, 3, 4, -3, -4]]);
        assert_eq!(
            word_triviality_with_budget(&p, &[1, 2, -1, -2], 64),
            Triviality::Unknown
        );
    }
}
