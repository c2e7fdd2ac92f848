//! Dense integer matrices with checked arithmetic.
//!
//! Boundary operators of small simplicial complexes and exponent matrices
//! of group presentations are tiny, so a straightforward dense
//! representation with `i64` entries (and overflow checks on every
//! arithmetic operation) is both simple and safe.
//!
//! Dense matrices carry the Smith normal form, which `homology` needs for
//! torsion and `solve_integer` for its transforms. Yes/no feasibility
//! (`is_feasible`, `in_column_lattice`) only reads the columns out of an
//! `IntMatrix` and works on a sparse echelon basis instead (see `linear`).

use std::fmt;

/// A dense `rows × cols` integer matrix.
///
/// # Examples
///
/// ```
/// use chromata_algebra::IntMatrix;
///
/// let mut m = IntMatrix::zeros(2, 3);
/// m.set(0, 0, 1);
/// m.set(1, 2, -4);
/// assert_eq!(m.get(1, 2), -4);
/// assert_eq!(m.transpose().get(2, 1), -4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IntMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMatrix {
    /// Creates a zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IntMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = IntMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        IntMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> i64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data
            .get(r * self.cols + c)
            .copied()
            .expect("entry in bounds") // chromata-lint: allow(P1): r*cols+c < rows*cols = data.len() by the assert above
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: i64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let idx = r * self.cols + c;
        let slot = self.data.get_mut(idx).expect("entry in bounds"); // chromata-lint: allow(P1): r*cols+c < rows*cols = data.len() by the assert above
        *slot = v;
    }

    /// Adds `v` to the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on overflow or out-of-bounds access.
    pub fn add_to(&mut self, r: usize, c: usize, v: i64) {
        let cur = self.get(r, c);
        self.set(r, c, cur.checked_add(v).expect("integer overflow")); // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> IntMatrix {
        let mut t = IntMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or overflow.
    #[must_use]
    pub fn mul(&self, other: &IntMatrix) -> IntMatrix {
        assert_eq!(self.cols, other.rows, "shape mismatch in matrix product");
        let mut out = IntMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..other.cols {
                    let b = other.get(k, c);
                    if b != 0 {
                        // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
                        out.add_to(r, c, a.checked_mul(b).expect("integer overflow"));
                    }
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or overflow.
    #[must_use]
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(
            self.cols,
            v.len(),
            "shape mismatch in matrix-vector product"
        );
        (0..self.rows)
            .map(|r| {
                v.iter().enumerate().fold(0i64, |acc, (c, &x)| {
                    acc.checked_add(self.get(r, c).checked_mul(x).expect("integer overflow")) // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
                        .expect("integer overflow") // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
                })
            })
            .collect()
    }

    /// Swaps two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let (x, y) = (self.get(a, c), self.get(b, c));
            self.set(a, c, y);
            self.set(b, c, x);
        }
    }

    /// Swaps two columns.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for r in 0..self.rows {
            let (x, y) = (self.get(r, a), self.get(r, b));
            self.set(r, a, y);
            self.set(r, b, x);
        }
    }

    /// Row operation `row[a] += k · row[b]`.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn add_row_multiple(&mut self, a: usize, b: usize, k: i64) {
        for c in 0..self.cols {
            let delta = self.get(b, c).checked_mul(k).expect("integer overflow"); // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
            self.add_to(a, c, delta);
        }
    }

    /// Column operation `col[a] += k · col[b]`.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn add_col_multiple(&mut self, a: usize, b: usize, k: i64) {
        for r in 0..self.rows {
            let delta = self.get(r, b).checked_mul(k).expect("integer overflow"); // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
            self.add_to(r, a, delta);
        }
    }

    /// Negates a row.
    pub fn negate_row(&mut self, r: usize) {
        for c in 0..self.cols {
            let v = self.get(r, c);
            self.set(r, c, v.checked_neg().expect("integer overflow")); // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
        }
    }

    /// Negates a column.
    pub fn negate_col(&mut self, c: usize) {
        for r in 0..self.rows {
            let v = self.get(r, c);
            self.set(r, c, v.checked_neg().expect("integer overflow")); // chromata-lint: allow(P1): checked arithmetic: coefficient overflow is a hard internal error; wrapping would corrupt homology verdicts
        }
    }

    /// Stacks `self` on top of `other` (same column count).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    #[must_use]
    pub fn vstack(&self, other: &IntMatrix) -> IntMatrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        IntMatrix::from_rows(self.rows + other.rows, self.cols, data)
    }

    /// Concatenates `self` with `other` side by side (same row count).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    #[must_use]
    pub fn hstack(&self, other: &IntMatrix) -> IntMatrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = IntMatrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c));
            }
            for c in 0..other.cols {
                out.set(r, self.cols + c, other.get(r, c));
            }
        }
        out
    }

    /// Whether all entries are zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&x| x == 0)
    }
}

impl fmt::Display for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>3}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let m = IntMatrix::from_rows(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(m.mul(&IntMatrix::identity(2)), m);
        assert_eq!(IntMatrix::identity(2).mul(&m), m);
    }

    #[test]
    fn product_and_vec() {
        let a = IntMatrix::from_rows(2, 3, vec![1, 0, 2, -1, 3, 1]);
        let b = IntMatrix::from_rows(3, 2, vec![3, 1, 2, 1, 1, 0]);
        let c = a.mul(&b);
        assert_eq!(c, IntMatrix::from_rows(2, 2, vec![5, 1, 4, 2]));
        assert_eq!(a.mul_vec(&[1, 1, 1]), vec![3, 3]);
    }

    #[test]
    fn row_col_ops() {
        let mut m = IntMatrix::from_rows(2, 2, vec![1, 2, 3, 4]);
        m.swap_rows(0, 1);
        assert_eq!(m, IntMatrix::from_rows(2, 2, vec![3, 4, 1, 2]));
        m.add_row_multiple(0, 1, -3);
        assert_eq!(m, IntMatrix::from_rows(2, 2, vec![0, -2, 1, 2]));
        m.negate_row(0);
        assert_eq!(m.get(0, 1), 2);
        m.swap_cols(0, 1);
        assert_eq!(m.get(0, 0), 2);
        m.add_col_multiple(1, 0, 1);
        assert_eq!(m.get(0, 1), 2);
        m.negate_col(0);
        assert_eq!(m.get(0, 0), -2);
    }

    #[test]
    fn stacking() {
        let a = IntMatrix::from_rows(1, 2, vec![1, 2]);
        let b = IntMatrix::from_rows(1, 2, vec![3, 4]);
        assert_eq!(a.vstack(&b), IntMatrix::from_rows(2, 2, vec![1, 2, 3, 4]));
        let c = a.hstack(&b);
        assert_eq!(c, IntMatrix::from_rows(1, 4, vec![1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = IntMatrix::zeros(2, 3);
        let _ = a.mul(&IntMatrix::zeros(2, 2));
    }

    #[test]
    fn zero_detection() {
        assert!(IntMatrix::zeros(3, 3).is_zero());
        assert!(!IntMatrix::identity(1).is_zero());
    }
}
