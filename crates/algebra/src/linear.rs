//! Integer linear systems: feasibility by a sparse echelon basis, solving
//! by Smith normal form.
//!
//! The H1-level contractibility obstruction of the solvability pipeline
//! reduces to feasibility of `A·x = b` over the integers: "can the boundary
//! of some 2-chain, plus integer combinations of cycle-basis shifts, equal
//! the given loop?" (paper, §5 and §6.2). That is a yes/no question about
//! lattice membership, so [`is_feasible`] and [`in_column_lattice`] answer
//! it without a Smith normal form: they reduce `A`'s columns to an echelon
//! basis of sparse vectors (unimodular extended-gcd steps keep the lattice
//! unchanged), then reduce `b` against it. [`solve_integer`], which must
//! produce `x`, still goes through [`smith_normal_form`] and its `U`, `V`.
//!
//! chromata-lint: allow(P3): row/column indices are bounded by the matrix shape checked at entry; every site is advisory-flagged by P2 for per-site review

use std::collections::BTreeMap;

use crate::matrix::IntMatrix;
use crate::smith::smith_normal_form;

/// Solves `a · x = b` over the integers.
///
/// Returns a solution vector if one exists, `None` otherwise.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{solve_integer, IntMatrix};
///
/// let a = IntMatrix::from_rows(2, 2, vec![2, 0, 0, 3]);
/// assert_eq!(solve_integer(&a, &[4, 9]), Some(vec![2, 3]));
/// assert_eq!(solve_integer(&a, &[1, 0]), None); // 2 ∤ 1
/// ```
#[must_use]
pub fn solve_integer(a: &IntMatrix, b: &[i64]) -> Option<Vec<i64>> {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let s = smith_normal_form(a);
    // a x = b  ⟺  d y = u b with x = v y.
    let c = s.u.mul_vec(b);
    let n = a.cols();
    let mut y = vec![0i64; n];
    let diag = a.rows().min(n);
    for i in 0..diag {
        let d = s.d.get(i, i);
        if d == 0 {
            if c[i] != 0 {
                return None;
            }
        } else {
            if c[i] % d != 0 {
                return None;
            }
            y[i] = c[i] / d;
        }
    }
    if c.iter().skip(diag).any(|&ci| ci != 0) {
        return None;
    }
    Some(s.v.mul_vec(&y))
}

/// Whether `a · x = b` has an integer solution.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`, or on overflow.
#[must_use]
pub fn is_feasible(a: &IntMatrix, b: &[i64]) -> bool {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    EchelonBasis::of_columns(a).contains(b)
}

/// Whether the vector `b` lies in the integer column span (lattice) of `a`.
///
/// This is the same predicate as [`is_feasible`], provided under the name
/// used by the homology code ("is this cycle a boundary?").
#[must_use]
pub fn in_column_lattice(a: &IntMatrix, b: &[i64]) -> bool {
    is_feasible(a, b)
}

/// A sparse integer vector: `(row, value)` pairs with strictly increasing
/// rows and non-zero values.
type SparseVec = Vec<(usize, i64)>;

/// Keeps the non-zero entries of a dense `(row, value)` sequence.
fn sparse(entries: impl Iterator<Item = (usize, i64)>) -> SparseVec {
    entries.filter(|&(_, v)| v != 0).collect()
}

/// Unwraps a checked arithmetic result.
fn checked(v: Option<i64>) -> i64 {
    v.expect("integer overflow") // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
}

/// `-(n / d)` for an exact quotient.
fn negated_quotient(n: i64, d: i64) -> i64 {
    checked(checked(n.checked_div(d)).checked_neg())
}

/// `x·a + y·b` for sparse vectors.
fn combine(x: i64, a: &[(usize, i64)], y: i64, b: &[(usize, i64)]) -> SparseVec {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (row, v) = match (a.get(i), b.get(j)) {
            (Some(&(ra, va)), Some(&(rb, _))) if ra < rb => {
                i += 1;
                (ra, checked(va.checked_mul(x)))
            }
            (Some(&(ra, va)), Some(&(rb, vb))) if ra == rb => {
                i += 1;
                j += 1;
                let sum = checked(va.checked_mul(x)).checked_add(checked(vb.checked_mul(y)));
                (ra, checked(sum))
            }
            (_, Some(&(rb, vb))) => {
                j += 1;
                (rb, checked(vb.checked_mul(y)))
            }
            (Some(&(ra, va)), None) => {
                i += 1;
                (ra, checked(va.checked_mul(x)))
            }
            (None, None) => break,
        };
        if v != 0 {
            out.push((row, v));
        }
    }
    out
}

/// `(g, s, t)` with `s·a + t·b = g` and `|g| = gcd(a, b)`.
fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    let (mut r0, mut r1) = (a, b);
    let (mut s0, mut s1) = (1i64, 0i64);
    let (mut t0, mut t1) = (0i64, 1i64);
    while r1 != 0 {
        let q = checked(r0.checked_div(r1));
        (r0, r1) = (r1, checked(r0.checked_sub(checked(q.checked_mul(r1)))));
        (s0, s1) = (s1, checked(s0.checked_sub(checked(q.checked_mul(s1)))));
        (t0, t1) = (t1, checked(t0.checked_sub(checked(q.checked_mul(t1)))));
    }
    (r0, s0, t0)
}

/// An echelon basis of an integer lattice: linearly independent sparse
/// columns with pairwise distinct pivots, keyed by pivot (the row of the
/// first non-zero entry).
///
/// A lattice vector's first non-zero row is then the least pivot among
/// the basis columns it uses, and its entry there fixes that column's
/// coefficient. Membership is therefore a greedy reduction.
#[derive(Default)]
pub(crate) struct EchelonBasis {
    columns: BTreeMap<usize, SparseVec>,
}

impl EchelonBasis {
    /// The echelon basis of the lattice spanned by `a`'s columns.
    pub(crate) fn of_columns(a: &IntMatrix) -> Self {
        let mut basis = EchelonBasis::default();
        for c in 0..a.cols() {
            basis.insert(sparse((0..a.rows()).map(|r| (r, a.get(r, c)))));
        }
        basis
    }

    /// The rank of the lattice: its basis columns are linearly
    /// independent, having distinct pivots.
    pub(crate) fn rank(&self) -> usize {
        self.columns.len()
    }

    /// Adds a generator to the lattice.
    fn insert(&mut self, mut col: SparseVec) {
        while let Some(&(row, v)) = col.first() {
            let Some(pivot) = self.columns.get_mut(&row) else {
                self.columns.insert(row, col);
                return;
            };
            let p = pivot[0].1;
            if checked(v.checked_rem(p)) == 0 {
                col = combine(1, &col, negated_quotient(v, p), pivot);
            } else {
                // Replace the pair by a unimodular combination: one column
                // with pivot gcd(p, v), one with a zero entry at `row`.
                let (g, s, t) = extended_gcd(p, v);
                let merged = combine(s, pivot, t, &col);
                col = combine(
                    checked(v.checked_div(g)),
                    pivot,
                    negated_quotient(p, g),
                    &col,
                );
                *pivot = merged;
            }
        }
    }

    /// Whether the dense vector `b` lies in the lattice.
    pub(crate) fn contains(&self, b: &[i64]) -> bool {
        let mut b = sparse(b.iter().copied().enumerate());
        while let Some(&(row, v)) = b.first() {
            let Some(pivot) = self.columns.get(&row) else {
                return false;
            };
            let p = pivot[0].1;
            if checked(v.checked_rem(p)) != 0 {
                return false;
            }
            b = combine(1, &b, negated_quotient(v, p), pivot);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_solution_verified() {
        let a = IntMatrix::from_rows(3, 2, vec![1, 2, 3, 4, 5, 6]);
        let b = vec![5, 11, 17];
        let x = solve_integer(&a, &b).expect("feasible");
        assert_eq!(a.mul_vec(&x), b);
    }

    #[test]
    fn infeasible_parity() {
        // x + y even can't hit odd targets with the doubled matrix.
        let a = IntMatrix::from_rows(1, 2, vec![2, 2]);
        assert!(!is_feasible(&a, &[3]));
        assert!(is_feasible(&a, &[4]));
    }

    #[test]
    fn underdetermined_system() {
        let a = IntMatrix::from_rows(1, 3, vec![3, 5, 7]);
        let x = solve_integer(&a, &[1]).expect("gcd(3,5,7)=1 so all targets reachable");
        assert_eq!(a.mul_vec(&x), vec![1]);
    }

    #[test]
    fn overdetermined_inconsistent() {
        let a = IntMatrix::from_rows(2, 1, vec![1, 1]);
        assert!(!is_feasible(&a, &[1, 2]));
        assert!(is_feasible(&a, &[2, 2]));
    }

    #[test]
    fn zero_matrix_cases() {
        let a = IntMatrix::zeros(2, 2);
        assert_eq!(solve_integer(&a, &[0, 0]), Some(vec![0, 0]));
        assert!(!is_feasible(&a, &[0, 1]));
    }

    #[test]
    fn lattice_membership() {
        // Columns (2,0) and (0,2) span the even lattice.
        let a = IntMatrix::from_rows(2, 2, vec![2, 0, 0, 2]);
        assert!(in_column_lattice(&a, &[4, -6]));
        assert!(!in_column_lattice(&a, &[1, 0]));
    }
}
