//! Smith normal form of integer matrices.
//!
//! The Smith normal form `D = U · A · V` (with `U`, `V` unimodular) is the
//! workhorse behind homology computation (torsion coefficients) and integer
//! linear-system solving, both of which feed the contractibility checks of
//! the solvability pipeline (paper, §5). Feasibility alone needs neither
//! `U` nor `V`; `linear` answers it with a sparse echelon basis instead.

use crate::matrix::IntMatrix;

/// The result of a Smith normal form computation: `d = u · a · v` with `u`
/// and `v` unimodular and `d` diagonal with `d[0] | d[1] | …`.
#[derive(Clone, Debug)]
pub struct SmithForm {
    /// The diagonal matrix `D`.
    pub d: IntMatrix,
    /// Unimodular row-transformation matrix `U` (`rows × rows`).
    pub u: IntMatrix,
    /// Unimodular column-transformation matrix `V` (`cols × cols`).
    pub v: IntMatrix,
}

impl SmithForm {
    /// The non-zero diagonal entries (the invariant factors), normalized
    /// positive.
    #[must_use]
    pub fn invariant_factors(&self) -> Vec<i64> {
        let n = self.d.rows().min(self.d.cols());
        (0..n)
            .map(|i| self.d.get(i, i).abs())
            .filter(|&x| x != 0)
            .collect()
    }

    /// The rank of the matrix (number of non-zero invariant factors).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.invariant_factors().len()
    }

    /// The invariant factors greater than 1 — the torsion coefficients of
    /// the cokernel.
    #[must_use]
    pub fn torsion(&self) -> Vec<i64> {
        self.invariant_factors()
            .into_iter()
            .filter(|&x| x > 1)
            .collect()
    }
}

/// Computes the Smith normal form of `a`.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{smith_normal_form, IntMatrix};
///
/// let a = IntMatrix::from_rows(2, 2, vec![2, 4, 6, 8]);
/// let s = smith_normal_form(&a);
/// assert_eq!(s.invariant_factors(), vec![2, 4]);
/// assert_eq!(s.u.mul(&a).mul(&s.v), s.d);
/// ```
#[must_use]
pub fn smith_normal_form(a: &IntMatrix) -> SmithForm {
    let mut d = a.clone();
    let mut u = IntMatrix::identity(a.rows());
    let mut v = IntMatrix::identity(a.cols());
    let n = a.rows().min(a.cols());

    for t in 0..n {
        // Find a pivot: the entry of minimal non-zero absolute value in the
        // remaining submatrix.
        let Some((pr, pc)) = pivot(&d, t) else {
            break; // remaining submatrix is zero
        };
        d.swap_rows(t, pr);
        u.swap_rows(t, pr);
        d.swap_cols(t, pc);
        v.swap_cols(t, pc);

        // Eliminate the pivot row and column; re-pivot when remainders
        // appear (standard SNF loop).
        loop {
            let mut clean = true;
            for r in (t + 1)..d.rows() {
                let q = div_round(d.get(r, t), d.get(t, t));
                if q != 0 {
                    d.add_row_multiple(r, t, -q);
                    u.add_row_multiple(r, t, -q);
                }
                if d.get(r, t) != 0 {
                    // Remainder smaller than pivot: swap up and restart.
                    d.swap_rows(t, r);
                    u.swap_rows(t, r);
                    clean = false;
                }
            }
            for c in (t + 1)..d.cols() {
                let q = div_round(d.get(t, c), d.get(t, t));
                if q != 0 {
                    d.add_col_multiple(c, t, -q);
                    v.add_col_multiple(c, t, -q);
                }
                if d.get(t, c) != 0 {
                    d.swap_cols(t, c);
                    v.swap_cols(t, c);
                    clean = false;
                }
            }
            if clean {
                break;
            }
        }

        // Divisibility fix-up: ensure d[t][t] divides every remaining entry.
        'divis: loop {
            let p = d.get(t, t);
            for r in (t + 1)..d.rows() {
                for c in (t + 1)..d.cols() {
                    if d.get(r, c) % p != 0 {
                        // Add row r to row t and re-eliminate.
                        d.add_row_multiple(t, r, 1);
                        u.add_row_multiple(t, r, 1);
                        loop {
                            let mut clean = true;
                            for cc in (t + 1)..d.cols() {
                                let q = div_round(d.get(t, cc), d.get(t, t));
                                if q != 0 {
                                    d.add_col_multiple(cc, t, -q);
                                    v.add_col_multiple(cc, t, -q);
                                }
                                if d.get(t, cc) != 0 {
                                    d.swap_cols(t, cc);
                                    v.swap_cols(t, cc);
                                    clean = false;
                                }
                            }
                            for rr in (t + 1)..d.rows() {
                                let q = div_round(d.get(rr, t), d.get(t, t));
                                if q != 0 {
                                    d.add_row_multiple(rr, t, -q);
                                    u.add_row_multiple(rr, t, -q);
                                }
                                if d.get(rr, t) != 0 {
                                    d.swap_rows(t, rr);
                                    u.swap_rows(t, rr);
                                    clean = false;
                                }
                            }
                            if clean {
                                break;
                            }
                        }
                        continue 'divis;
                    }
                }
            }
            break;
        }

        if d.get(t, t) < 0 {
            d.negate_row(t);
            u.negate_row(t);
        }
    }
    SmithForm { d, u, v }
}

/// Rounded division used for elimination steps: quotient minimizing the
/// remainder's absolute value.
fn div_round(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    let q = a / b;
    let r = a - q * b;
    if 2 * r.abs() > b.abs() {
        q + r.signum() * b.signum()
    } else {
        q
    }
}

fn pivot(d: &IntMatrix, t: usize) -> Option<(usize, usize)> {
    let mut best: Option<(i64, usize, usize)> = None;
    for r in t..d.rows() {
        for c in t..d.cols() {
            let x = d.get(r, c).abs();
            if x != 0 && best.is_none_or(|(bx, _, _)| x < bx) {
                best = Some((x, r, c));
            }
        }
    }
    best.map(|(_, r, c)| (r, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &IntMatrix) -> SmithForm {
        let s = smith_normal_form(a);
        // D = U A V must hold exactly.
        assert_eq!(s.u.mul(a).mul(&s.v), s.d, "U·A·V != D for\n{a}");
        // D diagonal with divisibility chain.
        let n = s.d.rows().min(s.d.cols());
        for r in 0..s.d.rows() {
            for c in 0..s.d.cols() {
                if r != c {
                    assert_eq!(s.d.get(r, c), 0, "off-diagonal non-zero");
                }
            }
        }
        let f = s.invariant_factors();
        for w in f.windows(2) {
            assert_eq!(w[1] % w[0], 0, "divisibility chain broken: {f:?}");
        }
        let _ = n;
        s
    }

    #[test]
    fn diagonal_already() {
        let a = IntMatrix::from_rows(2, 2, vec![3, 0, 0, 6]);
        let s = check(&a);
        assert_eq!(s.invariant_factors(), vec![3, 6]);
    }

    #[test]
    fn classic_example() {
        let a = IntMatrix::from_rows(3, 3, vec![2, 4, 4, -6, 6, 12, 10, 4, 16]);
        let s = check(&a);
        assert_eq!(s.invariant_factors(), vec![2, 2, 156]);
    }

    #[test]
    fn rank_deficient() {
        let a = IntMatrix::from_rows(2, 3, vec![1, 2, 3, 2, 4, 6]);
        let s = check(&a);
        assert_eq!(s.rank(), 1);
        assert_eq!(s.invariant_factors(), vec![1]);
    }

    #[test]
    fn zero_matrix() {
        let a = IntMatrix::zeros(3, 2);
        let s = check(&a);
        assert_eq!(s.rank(), 0);
        assert!(s.torsion().is_empty());
    }

    #[test]
    fn torsion_detection() {
        // Boundary matrix giving Z/2 cokernel: [2].
        let a = IntMatrix::from_rows(1, 1, vec![2]);
        let s = check(&a);
        assert_eq!(s.torsion(), vec![2]);
    }

    #[test]
    fn negative_entries_normalized() {
        let a = IntMatrix::from_rows(2, 2, vec![-2, 0, 0, -3]);
        let s = check(&a);
        assert_eq!(s.invariant_factors(), vec![1, 6]);
    }

    #[test]
    fn random_small_matrices_satisfy_decomposition() {
        // Deterministic pseudo-random sweep (LCG) over small matrices.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as i64 % 7) - 3
        };
        for _ in 0..50 {
            let (r, c) = (3, 4);
            let data: Vec<i64> = (0..r * c).map(|_| next()).collect();
            check(&IntMatrix::from_rows(r, c, data));
        }
    }
}
