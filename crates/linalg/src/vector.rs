//! Rational vectors and elementary operations.

use lcdb_arith::{Rational, Sign};

/// A point or direction in `Q^d`, represented densely.
pub type QVector = Vec<Rational>;

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[Rational], b: &[Rational]) -> Rational {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    Rational::dot(a.iter().zip(b))
}

/// The sign of [`dot`], found without normalizing a sum.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot_sign(a: &[Rational], b: &[Rational]) -> Sign {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    Rational::dot_sign(a.iter().zip(b))
}

/// Component-wise sum.
pub fn vec_add(a: &[Rational], b: &[Rational]) -> QVector {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Component-wise difference.
pub fn vec_sub(a: &[Rational], b: &[Rational]) -> QVector {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scalar multiple.
pub fn scale(a: &[Rational], c: &Rational) -> QVector {
    a.iter().map(|x| x * c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_arith::rat;

    #[test]
    fn dot_basic() {
        let a = vec![rat(1, 2), rat(3, 1)];
        let b = vec![rat(4, 1), rat(1, 3)];
        assert_eq!(dot(&a, &b), rat(3, 1));
    }

    #[test]
    fn add_sub_scale() {
        let a = vec![rat(1, 1), rat(2, 1)];
        let b = vec![rat(3, 1), rat(-1, 1)];
        assert_eq!(vec_add(&a, &b), vec![rat(4, 1), rat(1, 1)]);
        assert_eq!(vec_sub(&a, &b), vec![rat(-2, 1), rat(3, 1)]);
        assert_eq!(scale(&a, &rat(1, 2)), vec![rat(1, 2), rat(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch() {
        let _ = dot(&[rat(1, 1)], &[rat(1, 1), rat(2, 1)]);
    }
}
