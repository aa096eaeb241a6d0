//! Affine subspaces ("flats") of `Q^d` in canonical form.
//!
//! The faces of a hyperplane arrangement live on flats: intersections of the
//! hyperplanes that contain them (their affine support, §3 of the paper).
//! A canonical representation lets flats be deduplicated by equality/hash.

use crate::{dot, dot_sign, Matrix, QVector};
use lcdb_arith::{Rational, Sign};

/// An affine subspace of `Q^d`, canonicalized as the reduced row echelon form
/// of its defining equation system `A x = b`.
///
/// Two [`Flat`]s are equal (and hash equal) iff they are the same point set.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Flat {
    dim_ambient: usize,
    /// RREF rows of the augmented system `[A | b]`, pivots leading.
    rows: Vec<QVector>,
}

impl Flat {
    /// The whole space `Q^d`.
    pub fn whole_space(d: usize) -> Self {
        Flat {
            dim_ambient: d,
            rows: Vec::new(),
        }
    }

    /// Build the flat `{x : a_i · x = b_i for all i}`.
    ///
    /// Returns `None` if the system is inconsistent (empty intersection).
    pub fn from_equations(d: usize, eqs: &[(QVector, Rational)]) -> Option<Self> {
        let mut aug_rows = Vec::with_capacity(eqs.len());
        for (a, b) in eqs {
            assert_eq!(a.len(), d, "equation arity mismatch");
            let mut row = a.clone();
            row.push(b.clone());
            aug_rows.push(row);
        }
        if aug_rows.is_empty() {
            return Some(Flat::whole_space(d));
        }
        let m = Matrix::from_rows(aug_rows);
        let res = m.rref();
        // Inconsistent iff a pivot lands in the augmented column.
        if res.pivots.contains(&d) {
            return None;
        }
        let rows = res
            .pivots
            .iter()
            .enumerate()
            .map(|(i, _)| res.rref.row(i).to_vec())
            .collect();
        Some(Flat {
            dim_ambient: d,
            rows,
        })
    }

    /// Ambient dimension `d`.
    pub fn ambient_dim(&self) -> usize {
        self.dim_ambient
    }

    /// Dimension of the flat (`d` minus the rank of the equation system).
    pub fn dim(&self) -> usize {
        self.dim_ambient - self.rows.len()
    }

    /// The canonical equations `(a, b)` with `a · x = b`.
    pub fn equations(&self) -> Vec<(QVector, Rational)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    r[..self.dim_ambient].to_vec(),
                    r[self.dim_ambient].clone(),
                )
            })
            .collect()
    }

    /// Does the flat contain the given point?
    pub fn contains(&self, x: &[Rational]) -> bool {
        assert_eq!(x.len(), self.dim_ambient);
        let d = self.dim_ambient;
        self.rows.iter().all(|r| {
            let affine = r[..d].iter().zip(x).chain(std::iter::once((&r[d], &Rational::MINUS_ONE)));
            Rational::dot_sign(affine) == Sign::Zero
        })
    }

    /// A particular point on the flat.
    pub fn point(&self) -> QVector {
        let d = self.dim_ambient;
        let mut x = vec![Rational::zero(); d];
        // RREF rows: pivot variable = b - (free-variable terms); free vars 0.
        for row in &self.rows {
            let pivot = (0..d)
                .find(|&j| !row[j].is_zero())
                .expect("canonical row has a pivot");
            x[pivot] = row[d].clone();
        }
        debug_assert!(self.contains(&x));
        x
    }

    /// A basis of the flat's direction space (the nullspace of `A`).
    pub fn basis(&self) -> Vec<QVector> {
        if self.rows.is_empty() {
            return (0..self.dim_ambient)
                .map(|i| {
                    let mut v = vec![Rational::zero(); self.dim_ambient];
                    v[i] = Rational::one();
                    v
                })
                .collect();
        }
        let a = Matrix::from_rows(
            self.rows
                .iter()
                .map(|r| r[..self.dim_ambient].to_vec())
                .collect(),
        );
        a.nullspace()
    }

    /// Intersect with the hyperplane `a · x = b`.
    ///
    /// Returns `None` if empty; otherwise the (possibly unchanged) flat.
    pub fn intersect_hyperplane(&self, a: &[Rational], b: &Rational) -> Option<Flat> {
        let mut eqs = self.equations();
        eqs.push((a.to_vec(), b.clone()));
        Flat::from_equations(self.dim_ambient, &eqs)
    }

    /// Affine hull of a nonempty set of points.
    pub fn affine_hull(points: &[QVector]) -> Flat {
        assert!(!points.is_empty(), "affine hull of empty set");
        let d = points[0].len();
        let p0 = &points[0];
        // Direction space spanned by p_i - p_0; equations = orthogonal
        // complement of the direction space, anchored at p_0.
        let dirs: Vec<QVector> = points[1..]
            .iter()
            .map(|p| crate::vec_sub(p, p0))
            .collect();
        if dirs.is_empty() {
            // A single point: x = p0.
            let eqs: Vec<(QVector, Rational)> = (0..d)
                .map(|i| {
                    let mut a = vec![Rational::zero(); d];
                    a[i] = Rational::one();
                    (a, p0[i].clone())
                })
                .collect();
            return Flat::from_equations(d, &eqs).expect("consistent by construction");
        }
        let dir_mat = Matrix::from_rows(dirs);
        // Normals = nullspace of the direction matrix.
        let normals = dir_mat.nullspace();
        let eqs: Vec<(QVector, Rational)> = normals
            .into_iter()
            .map(|n| {
                let b = dot(&n, p0);
                (n, b)
            })
            .collect();
        Flat::from_equations(d, &eqs).expect("consistent by construction")
    }

    /// Does this flat contain the other one as a subset?
    pub fn contains_flat(&self, other: &Flat) -> bool {
        assert_eq!(self.dim_ambient, other.dim_ambient);
        // self ⊇ other iff every equation of self holds on other:
        // the anchor point satisfies it and every basis direction annuls it.
        let p = other.point();
        if !self.contains(&p) {
            return false;
        }
        let basis = other.basis();
        self.rows.iter().all(|r| {
            basis
                .iter()
                .all(|v| dot_sign(&r[..self.dim_ambient], v) == Sign::Zero)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_arith::rat;

    fn v(vals: &[i64]) -> QVector {
        vals.iter().map(|&x| rat(x, 1)).collect()
    }

    #[test]
    fn whole_space() {
        let f = Flat::whole_space(3);
        assert_eq!(f.dim(), 3);
        assert!(f.contains(&v(&[1, 2, 3])));
        assert_eq!(f.basis().len(), 3);
    }

    #[test]
    fn line_in_plane() {
        // x + y = 1 in R^2: a line.
        let f = Flat::from_equations(2, &[(v(&[1, 1]), rat(1, 1))]).unwrap();
        assert_eq!(f.dim(), 1);
        assert!(f.contains(&v(&[1, 0])));
        assert!(f.contains(&v(&[0, 1])));
        assert!(!f.contains(&v(&[1, 1])));
        let p = f.point();
        assert!(f.contains(&p));
        let b = f.basis();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn point_flat() {
        let f = Flat::from_equations(
            2,
            &[(v(&[1, 0]), rat(2, 1)), (v(&[0, 1]), rat(3, 1))],
        )
        .unwrap();
        assert_eq!(f.dim(), 0);
        assert_eq!(f.point(), v(&[2, 3]));
        assert!(f.basis().is_empty());
    }

    #[test]
    fn inconsistent_system() {
        assert!(Flat::from_equations(
            2,
            &[(v(&[1, 1]), rat(1, 1)), (v(&[1, 1]), rat(2, 1))]
        )
        .is_none());
    }

    #[test]
    fn redundant_equations_canonicalize() {
        let f1 = Flat::from_equations(2, &[(v(&[1, 1]), rat(1, 1))]).unwrap();
        let f2 = Flat::from_equations(
            2,
            &[(v(&[2, 2]), rat(2, 1)), (v(&[3, 3]), rat(3, 1))],
        )
        .unwrap();
        assert_eq!(f1, f2);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |f: &Flat| {
            let mut s = DefaultHasher::new();
            f.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&f1), h(&f2));
    }

    #[test]
    fn intersect_hyperplane_reduces_dim() {
        let f = Flat::whole_space(2);
        let l = f.intersect_hyperplane(&v(&[1, 0]), &rat(1, 1)).unwrap();
        assert_eq!(l.dim(), 1);
        let p = l.intersect_hyperplane(&v(&[0, 1]), &rat(2, 1)).unwrap();
        assert_eq!(p.dim(), 0);
        assert_eq!(p.point(), v(&[1, 2]));
        // Parallel inconsistent hyperplane yields empty.
        assert!(l.intersect_hyperplane(&v(&[1, 0]), &rat(5, 1)).is_none());
        // Same hyperplane leaves the flat unchanged.
        assert_eq!(l.intersect_hyperplane(&v(&[1, 0]), &rat(1, 1)).unwrap(), l);
    }

    #[test]
    fn affine_hull_of_points() {
        // Two points span a line.
        let f = Flat::affine_hull(&[v(&[0, 0]), v(&[1, 1])]);
        assert_eq!(f.dim(), 1);
        assert!(f.contains(&v(&[2, 2])));
        assert!(!f.contains(&v(&[1, 0])));
        // One point is a 0-flat.
        let p = Flat::affine_hull(&[v(&[3, 4])]);
        assert_eq!(p.dim(), 0);
        // Three affinely independent points span the plane.
        let s = Flat::affine_hull(&[v(&[0, 0]), v(&[1, 0]), v(&[0, 1])]);
        assert_eq!(s.dim(), 2);
        // Collinear points still span a line.
        let c = Flat::affine_hull(&[v(&[0, 0]), v(&[1, 1]), v(&[2, 2])]);
        assert_eq!(c.dim(), 1);
    }

    #[test]
    fn contains_flat_poset() {
        let plane = Flat::whole_space(2);
        let line = Flat::from_equations(2, &[(v(&[0, 1]), rat(0, 1))]).unwrap();
        let origin = Flat::affine_hull(&[v(&[0, 0])]);
        assert!(plane.contains_flat(&line));
        assert!(plane.contains_flat(&origin));
        assert!(line.contains_flat(&origin));
        assert!(!line.contains_flat(&plane));
        assert!(!origin.contains_flat(&line));
        let other_line = Flat::from_equations(2, &[(v(&[0, 1]), rat(1, 1))]).unwrap();
        assert!(!line.contains_flat(&other_line));
        assert!(!other_line.contains_flat(&origin));
    }
}
