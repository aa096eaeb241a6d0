//! Dense rational matrices and Gaussian elimination.

use crate::QVector;
use lcdb_arith::Rational;
use std::fmt;

/// A dense matrix over the rationals, stored row-major.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

/// Outcome of reduced-row-echelon-form computation.
#[derive(Clone, Debug)]
pub struct RrefResult {
    /// The matrix in reduced row echelon form.
    pub rref: Matrix,
    /// Column index of the pivot in each nonzero row, in order.
    pub pivots: Vec<usize>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Rational::zero(); rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            *m.at_mut(i, i) = Rational::one();
        }
        m
    }

    /// Build from rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: Vec<QVector>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Element accessor.
    pub fn at(&self, r: usize, c: usize) -> &Rational {
        &self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut Rational {
        &mut self.data[r * self.cols + c]
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[Rational] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: &[Rational]) -> QVector {
        assert_eq!(self.cols, v.len());
        (0..self.rows)
            .map(|r| crate::dot(self.row(r), v))
            .collect()
    }

    /// Matrix-matrix product.
    pub fn mul_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                *out.at_mut(i, j) = Rational::dot((0..self.cols).map(|k| (self.at(i, k), other.at(k, j))));
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                *out.at_mut(j, i) = self.at(i, j).clone();
            }
        }
        out
    }

    /// Reduced row echelon form with pivot columns.
    pub fn rref(&self) -> RrefResult {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut row = 0;
        for col in 0..m.cols {
            if row >= m.rows {
                break;
            }
            // Find a pivot in this column at or below `row`.
            let Some(p) = (row..m.rows).find(|&r| !m.at(r, col).is_zero()) else {
                continue;
            };
            m.swap_rows(row, p);
            // Normalize pivot row.
            let inv = m.at(row, col).recip();
            for j in col..m.cols {
                let v = m.at(row, j) * &inv;
                *m.at_mut(row, j) = v;
            }
            // Eliminate in all other rows.
            for r in 0..m.rows {
                if r == row || m.at(r, col).is_zero() {
                    continue;
                }
                let factor = m.at(r, col).clone();
                for j in col..m.cols {
                    let delta = m.at(row, j) * &factor;
                    let v = m.at(r, j) - &delta;
                    *m.at_mut(r, j) = v;
                }
            }
            pivots.push(col);
            row += 1;
        }
        RrefResult { rref: m, pivots }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Rank of the matrix.
    pub fn rank(&self) -> usize {
        self.rref().pivots.len()
    }

    /// Determinant via fraction-free-ish Gaussian elimination (square only).
    ///
    /// # Panics
    /// Panics if not square.
    pub fn determinant(&self) -> Rational {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        let mut m = self.clone();
        let mut det = Rational::one();
        for col in 0..n {
            let Some(p) = (col..n).find(|&r| !m.at(r, col).is_zero()) else {
                return Rational::zero();
            };
            if p != col {
                m.swap_rows(col, p);
                det = -det;
            }
            let pivot = m.at(col, col).clone();
            det *= &pivot;
            let inv = pivot.recip();
            for r in col + 1..n {
                if m.at(r, col).is_zero() {
                    continue;
                }
                let factor = m.at(r, col) * &inv;
                for j in col..n {
                    let delta = m.at(col, j) * &factor;
                    let v = m.at(r, j) - &delta;
                    *m.at_mut(r, j) = v;
                }
            }
        }
        det
    }

    /// Solve `A x = b`; returns one solution if the system is consistent.
    pub fn solve(&self, b: &[Rational]) -> Option<QVector> {
        assert_eq!(self.rows, b.len());
        // Augment and reduce.
        let mut aug = Matrix::zeros(self.rows, self.cols + 1);
        for (i, bi) in b.iter().enumerate() {
            for j in 0..self.cols {
                *aug.at_mut(i, j) = self.at(i, j).clone();
            }
            *aug.at_mut(i, self.cols) = bi.clone();
        }
        let RrefResult { rref, pivots } = aug.rref();
        // Inconsistent iff a pivot lands in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        let mut x = vec![Rational::zero(); self.cols];
        for (row, &col) in pivots.iter().enumerate() {
            x[col] = rref.at(row, self.cols).clone();
        }
        Some(x)
    }

    /// A basis for the nullspace `{x : A x = 0}`.
    pub fn nullspace(&self) -> Vec<QVector> {
        let RrefResult { rref, pivots } = self.rref();
        let free: Vec<usize> = (0..self.cols).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &f in &free {
            let mut v = vec![Rational::zero(); self.cols];
            v[f] = Rational::one();
            for (row, &p) in pivots.iter().enumerate() {
                v[p] = -rref.at(row, f).clone();
            }
            basis.push(v);
        }
        basis
    }

    /// Matrix inverse, if it exists.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut aug = Matrix::zeros(n, 2 * n);
        for i in 0..n {
            for j in 0..n {
                *aug.at_mut(i, j) = self.at(i, j).clone();
            }
            *aug.at_mut(i, n + i) = Rational::one();
        }
        let RrefResult { rref, pivots } = aug.rref();
        if pivots.len() < n || pivots.iter().take(n).enumerate().any(|(i, &p)| p != i) {
            return None;
        }
        let mut inv = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                *inv.at_mut(i, j) = rref.at(i, n + j).clone();
            }
        }
        Some(inv)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self.at(i, j))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_arith::rat;

    fn m(rows: &[&[i64]]) -> Matrix {
        Matrix::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|&v| rat(v, 1)).collect())
                .collect(),
        )
    }

    #[test]
    fn rref_identity() {
        let a = m(&[&[2, 0], &[0, 3]]);
        let r = a.rref();
        assert_eq!(r.rref, Matrix::identity(2));
        assert_eq!(r.pivots, vec![0, 1]);
    }

    #[test]
    fn rank_deficient() {
        let a = m(&[&[1, 2], &[2, 4]]);
        assert_eq!(a.rank(), 1);
        assert_eq!(m(&[&[0, 0], &[0, 0]]).rank(), 0);
        assert_eq!(Matrix::identity(3).rank(), 3);
    }

    #[test]
    fn determinant_cases() {
        assert_eq!(m(&[&[1, 2], &[3, 4]]).determinant(), rat(-2, 1));
        assert_eq!(m(&[&[1, 2], &[2, 4]]).determinant(), rat(0, 1));
        assert_eq!(
            m(&[&[2, 0, 1], &[1, 1, 0], &[0, 3, 1]]).determinant(),
            rat(5, 1)
        );
        // Row swap sign: permutation matrix has det -1.
        assert_eq!(m(&[&[0, 1], &[1, 0]]).determinant(), rat(-1, 1));
    }

    #[test]
    fn solve_unique() {
        let a = m(&[&[2, 1], &[1, -1]]);
        let b = vec![rat(3, 1), rat(0, 1)];
        let x = a.solve(&b).unwrap();
        assert_eq!(a.mul_vec(&x), b);
        assert_eq!(x, vec![rat(1, 1), rat(1, 1)]);
    }

    #[test]
    fn solve_inconsistent() {
        let a = m(&[&[1, 1], &[1, 1]]);
        assert!(a.solve(&[rat(1, 1), rat(2, 1)]).is_none());
    }

    #[test]
    fn solve_underdetermined() {
        let a = m(&[&[1, 1, 1]]);
        let b = vec![rat(6, 1)];
        let x = a.solve(&b).unwrap();
        assert_eq!(a.mul_vec(&x), b);
    }

    #[test]
    fn nullspace_basis() {
        let a = m(&[&[1, 2, 3]]);
        let ns = a.nullspace();
        assert_eq!(ns.len(), 2);
        for v in &ns {
            assert!(a.mul_vec(v).iter().all(|x| x.is_zero()));
        }
        // Full-rank square matrix has trivial nullspace.
        assert!(Matrix::identity(3).nullspace().is_empty());
    }

    #[test]
    fn inverse_roundtrip() {
        let a = m(&[&[2, 1], &[1, 1]]);
        let inv = a.inverse().unwrap();
        assert_eq!(a.mul_mat(&inv), Matrix::identity(2));
        assert_eq!(inv.mul_mat(&a), Matrix::identity(2));
        assert!(m(&[&[1, 2], &[2, 4]]).inverse().is_none());
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().nrows(), 3);
    }

    #[test]
    fn mul_mat_associative() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[0, 1], &[1, 0]]);
        let c = m(&[&[2, 0], &[0, 2]]);
        assert_eq!(a.mul_mat(&b).mul_mat(&c), a.mul_mat(&b.mul_mat(&c)));
    }
}
