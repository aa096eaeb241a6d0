//! Exact rational numbers with a tagged fixed-width fast path.
//!
//! The representation is decided **once, at construction**: a normalized
//! fraction whose numerator and denominator both fit an `i64` is stored as
//! [`Repr::Small`] — two machine words, no heap allocation, `Copy`-cheap
//! clones — and everything else as [`Repr::Big`], a boxed pair of
//! [`BigInt`]s. Every constructor demotes to `Small` whenever the
//! normalized components fit, so the representation is *canonical*: equal
//! values always have identical tags, and the derived `Eq`/`Hash` are
//! value-correct without cross-variant comparisons.
//!
//! Arithmetic between two `Small` values runs entirely in overflow-free
//! `i128` cross-products (products of `i64`s fit `i128` with a bit to
//! spare, and one addition of two such products still fits), normalizes
//! with a word-sized gcd, and only *promotes* to `Big` when the checked
//! conversion of the normalized result back to `i64` fails. Mixed and
//! `Big`/`Big` operations fall back to arbitrary precision and demote on
//! the way out.

use crate::{BigInt, BigUint, ParseNumError, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive, `gcd(|num|, den) == 1`,
/// zero is represented as `0/1`, and the value is stored as `Small` iff both
/// normalized components fit an `i64` (canonical representation).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num/den` with `den > 0`, `gcd(|num|, den) == 1`.
    Small(i64, i64),
    /// Boxed so the enum stays two words + tag; the big path is already
    /// paying for limb allocations, one more indirection is noise.
    Big(Box<(BigInt, BigInt)>),
}

impl Rational {
    /// The value zero.
    pub const ZERO: Rational = Rational(Repr::Small(0, 1));

    /// The value one.
    pub const ONE: Rational = Rational(Repr::Small(1, 1));

    /// An integer value, constructed without normalization work.
    pub const fn from_int(n: i64) -> Rational {
        Rational(Repr::Small(n, 1))
    }

    /// The value zero.
    pub fn zero() -> Self {
        Rational::ZERO
    }

    /// The value one.
    pub fn one() -> Self {
        Rational::ONE
    }

    /// Construct `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        // Fault-injection site: stands in for a (hypothetical) overflow in
        // the normalization below. Rational construction is infallible, so
        // the fault is deferred and surfaces at the next interrupt check.
        #[cfg(feature = "faults")]
        lcdb_budget::faults::hit("arith.overflow");
        if num.is_zero() {
            return Rational::ZERO;
        }
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return from_i128_frac_unfaulted(n as i128, d as i128);
        }
        let g = num.gcd(&den);
        let mut num = &num / &g;
        let mut den = &den / &g;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rational::from_normalized(num, den)
    }

    /// Wrap an already-normalized pair (den > 0, gcd 1), demoting to the
    /// fixed-width representation when both components fit.
    fn from_normalized(num: BigInt, den: BigInt) -> Self {
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            Rational(Repr::Small(n, d))
        } else {
            Rational(Repr::Big(Box::new((num, den))))
        }
    }

    /// Construct from an integer.
    pub fn from_integer(n: BigInt) -> Self {
        match n.to_i64() {
            Some(v) => Rational(Repr::Small(v, 1)),
            None => Rational(Repr::Big(Box::new((n, BigInt::one())))),
        }
    }

    /// The (normalized) numerator.
    pub fn numer(&self) -> BigInt {
        match &self.0 {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(b) => b.0.clone(),
        }
    }

    /// The (normalized, positive) denominator.
    pub fn denom(&self) -> BigInt {
        match &self.0 {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(b) => b.1.clone(),
        }
    }

    /// Magnitude of the numerator, for bit-level access (`rBIT`).
    pub fn numer_magnitude(&self) -> BigUint {
        match &self.0 {
            Repr::Small(n, _) => BigUint::from(n.unsigned_abs()),
            Repr::Big(b) => b.0.magnitude().clone(),
        }
    }

    /// Magnitude of the denominator, for bit-level access (`rBIT`).
    pub fn denom_magnitude(&self) -> BigUint {
        match &self.0 {
            Repr::Small(_, d) => BigUint::from(d.unsigned_abs()),
            Repr::Big(b) => b.1.magnitude().clone(),
        }
    }

    /// Is this zero?
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0, _))
    }

    /// Is this one?
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1, 1))
    }

    /// Is this an integer (denominator one)?
    pub fn is_integer(&self) -> bool {
        match &self.0 {
            Repr::Small(_, d) => *d == 1,
            Repr::Big(b) => b.1.is_one(),
        }
    }

    /// Is this strictly negative?
    #[inline]
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small(n, _) => *n < 0,
            Repr::Big(b) => b.0.is_negative(),
        }
    }

    /// Is this strictly positive?
    #[inline]
    pub fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Small(n, _) => *n > 0,
            Repr::Big(b) => b.0.is_positive(),
        }
    }

    /// The sign of the value.
    #[inline]
    pub fn sign(&self) -> Sign {
        match &self.0 {
            Repr::Small(n, _) => match n.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Repr::Big(b) => b.0.sign(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        match &self.0 {
            Repr::Small(n, d) => match n.checked_abs() {
                Some(a) => Rational(Repr::Small(a, *d)),
                // |i64::MIN| needs the big representation.
                None => Rational(Repr::Big(Box::new((
                    BigInt::from(n.unsigned_abs()),
                    BigInt::from(*d),
                )))),
            },
            Repr::Big(b) => Rational::from_normalized(b.0.abs(), b.1.clone()),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if this is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Repr::Small(n, d) => {
                // Negating i64::MIN overflows; route through i128.
                from_i128_frac_unfaulted(*d as i128, *n as i128)
            }
            Repr::Big(b) => {
                let (num, den) = if b.0.is_negative() {
                    (-&b.1, -&b.0)
                } else {
                    (b.1.clone(), b.0.clone())
                };
                Rational::from_normalized(num, den)
            }
        }
    }

    /// Greatest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        match &self.0 {
            Repr::Small(n, d) => BigInt::from(n.div_euclid(*d)),
            Repr::Big(b) => b.0.div_floor(&b.1),
        }
    }

    /// Least integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        match &self.0 {
            // den > 0, so ceiling = -floor(-n/d) = -((-n).div_euclid(d));
            // compute in i128 to survive n = i64::MIN.
            Repr::Small(n, d) => BigInt::from(-((-(*n as i128)).div_euclid(*d as i128))),
            Repr::Big(b) => b.0.div_ceil(&b.1),
        }
    }

    /// Raise to an integer power (negative powers require nonzero value).
    pub fn pow(&self, e: i32) -> Rational {
        if e >= 0 {
            Rational::new(self.numer().pow(e as u32), self.denom().pow(e as u32))
        } else {
            self.recip().pow(-e)
        }
    }

    /// Approximate `f64` value (for display and benchmarks only).
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            Repr::Small(n, d) => *n as f64 / *d as f64,
            Repr::Big(b) => b.0.to_f64() / b.1.to_f64(),
        }
    }

    /// Exact conversion from an `f64` that is a small dyadic rational is
    /// deliberately *not* provided; parse decimal strings instead to keep the
    /// computation model exact.
    ///
    /// Construct from an `i64` numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn from_i64s(num: i64, den: i64) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        #[cfg(feature = "faults")]
        lcdb_budget::faults::hit("arith.overflow");
        from_i128_frac_unfaulted(num as i128, den as i128)
    }

    /// Midpoint of two rationals.
    pub fn midpoint(a: &Rational, b: &Rational) -> Rational {
        (a + b) / Rational(Repr::Small(2, 1))
    }

    /// Minimum of two values (by value, cloning the smaller).
    pub fn min_val(a: &Rational, b: &Rational) -> Rational {
        if a <= b {
            a.clone()
        } else {
            b.clone()
        }
    }

    /// Maximum of two values (by value, cloning the larger).
    pub fn max_val(a: &Rational, b: &Rational) -> Rational {
        if a >= b {
            a.clone()
        } else {
            b.clone()
        }
    }

    /// Total size in bits of numerator plus denominator; the paper's measure
    /// of coefficient size on the Turing tape.
    pub fn bit_size(&self) -> u64 {
        match &self.0 {
            Repr::Small(n, d) => {
                let nb = 64 - u64::from(n.unsigned_abs().leading_zeros());
                let db = 64 - u64::from(d.unsigned_abs().leading_zeros());
                nb + db
            }
            Repr::Big(b) => b.0.bit_len() + b.1.bit_len(),
        }
    }

    /// Both components as machine integers, when the value is in the
    /// fixed-width representation — the gate for the primitive-arithmetic
    /// fast paths. By the canonicity invariant this is `Some` exactly when
    /// the normalized components fit `i64`.
    #[inline]
    fn small(&self) -> Option<(i64, i64)> {
        match &self.0 {
            Repr::Small(n, d) => Some((*n, *d)),
            Repr::Big(_) => None,
        }
    }

    /// Promote to a `(numerator, denominator)` pair of big integers.
    fn to_big(&self) -> (BigInt, BigInt) {
        match &self.0 {
            Repr::Small(n, d) => (BigInt::from(*n), BigInt::from(*d)),
            Repr::Big(b) => (b.0.clone(), b.1.clone()),
        }
    }

    /// The positive factor scaling `values` to coprime integers (`None` if all
    /// are zero), in `i128` unless a value is `Big` or a step overflows.
    pub fn primitive_factor(values: &[&Rational]) -> Option<Rational> {
        primitive_factor_small(values).unwrap_or_else(|| primitive_factor_big(values))
    }
}

fn primitive_factor_small(values: &[&Rational]) -> Option<Option<Rational>> {
    let lcm = values.iter().try_fold(1i128, |f, c| {
        let d = i128::from(c.small()?.1);
        (f / gcd_u128(f as u128, d as u128) as i128).checked_mul(d)
    })?;
    let gcd = values.iter().try_fold(0u128, |g, c| {
        let (n, d) = c.small()?;
        Some(gcd_u128(g, i128::from(n).checked_mul(lcm / i128::from(d))?.unsigned_abs()))
    })?;
    i128::try_from(gcd).ok().map(|gcd| (gcd != 0).then(|| from_i128_frac(lcm, gcd)))
}

fn primitive_factor_big(values: &[&Rational]) -> Option<Rational> {
    let f = values.iter().fold(BigInt::one(), |f, c| &(&f * &c.denom()) / &f.gcd(&c.denom()));
    let g = values.iter().fold(BigInt::zero(), |g, c| g.gcd(&(c.numer() * &(&f / &c.denom()))));
    (!g.is_zero()).then(|| Rational::new(f, g))
}

/// Word-sized binary gcd used by the fixed-width fast path. Total on all
/// inputs including zeros (`gcd(0, b) = b`, `gcd(a, 0) = a`), so callers at
/// the `i64::MIN` boundary can pass `unsigned_abs()` products directly.
#[inline]
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Normalize an `i128` fraction without allocating limb vectors, demoting to
/// the fixed-width representation when the normalized components fit `i64`
/// and promoting to `Big` (checked, never wrapping) when they do not.
///
/// Inputs are cross-products of `i64` components, so they fit `i128` with
/// headroom (`|num| ≤ 2^127 - 2^64`, never `i128::MIN`) and `den` is nonzero
/// whenever the caller's denominators were.
pub(crate) fn from_i128_frac(num: i128, den: i128) -> Rational {
    // Same deferred fault-injection site as `Rational::new`, so the fast
    // path does not change which operations can be made to fail.
    #[cfg(feature = "faults")]
    lcdb_budget::faults::hit("arith.overflow");
    from_i128_frac_unfaulted(num, den)
}

fn from_i128_frac_unfaulted(num: i128, den: i128) -> Rational {
    debug_assert!(den != 0, "normalizing a fraction with zero denominator");
    if num == 0 {
        return Rational::ZERO;
    }
    // Work in magnitudes: negating `i128::MIN`-adjacent values is handled by
    // `unsigned_abs`, and the sign is reapplied after reduction.
    let negative = (num < 0) != (den < 0);
    let (mut un, mut ud) = (num.unsigned_abs(), den.unsigned_abs());
    let g = gcd_u128(un, ud);
    un /= g;
    ud /= g;
    let fits = |m: u128, neg: bool| -> Option<i64> {
        if neg {
            if m <= i64::MIN.unsigned_abs() as u128 {
                Some((m as i128).wrapping_neg() as i64)
            } else {
                None
            }
        } else {
            i64::try_from(m).ok()
        }
    };
    match (fits(un, negative), fits(ud, false)) {
        (Some(n), Some(d)) => Rational(Repr::Small(n, d)),
        _ => {
            let num = BigInt::from_sign_mag(
                if negative { Sign::Negative } else { Sign::Positive },
                BigUint::from(un),
            );
            Rational(Repr::Big(Box::new((num, BigInt::from_biguint(BigUint::from(ud))))))
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational(Repr::Small(v, 1))
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational(Repr::Small(v as i64, 1))
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_integer(v)
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        if let (Some((an, ad)), Some((bn, bd))) = (self.small(), other.small()) {
            return (an as i128 * bd as i128).cmp(&(bn as i128 * ad as i128));
        }
        let (an, ad) = self.to_big();
        let (bn, bd) = other.to_big();
        (&an * &bd).cmp(&(&bn * &ad))
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match &self.0 {
            Repr::Small(n, d) => match n.checked_neg() {
                Some(m) => Rational(Repr::Small(m, *d)),
                None => Rational(Repr::Big(Box::new((
                    BigInt::from(n.unsigned_abs()),
                    BigInt::from(*d),
                )))),
            },
            Repr::Big(b) => Rational::from_normalized(-&b.0, b.1.clone()),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -&self
    }
}

macro_rules! forward_binop_rational {
    ($trait:ident, $method:ident, $impl_fn:expr) => {
        impl $trait<&Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                let f: fn(&Rational, &Rational) -> Rational = $impl_fn;
                f(self, rhs)
            }
        }
        impl $trait<Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

fn add_big(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::new(&an * &bd + &bn * &ad, &ad * &bd)
}

forward_binop_rational!(Add, add, |a: &Rational, b: &Rational| {
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        return from_i128_frac(
            an as i128 * bd as i128 + bn as i128 * ad as i128,
            ad as i128 * bd as i128,
        );
    }
    add_big(a, b)
});
forward_binop_rational!(Sub, sub, |a: &Rational, b: &Rational| {
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        return from_i128_frac(
            an as i128 * bd as i128 - bn as i128 * ad as i128,
            ad as i128 * bd as i128,
        );
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::new(&an * &bd - &bn * &ad, &ad * &bd)
});
forward_binop_rational!(Mul, mul, |a: &Rational, b: &Rational| {
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        return from_i128_frac(an as i128 * bn as i128, ad as i128 * bd as i128);
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::new(&an * &bn, &ad * &bd)
});
forward_binop_rational!(Div, div, |a: &Rational, b: &Rational| {
    assert!(!b.is_zero(), "rational division by zero");
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        return from_i128_frac(an as i128 * bd as i128, ad as i128 * bn as i128);
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::new(&an * &bd, &ad * &bn)
});

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small(n, 1) => write!(f, "{}", n),
            Repr::Small(n, d) => write!(f, "{}/{}", n, d),
            Repr::Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Repr::Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl FromStr for Rational {
    type Err = ParseNumError;

    /// Parses `"a"`, `"a/b"`, and decimal `"a.b"` forms, with optional sign.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // In its range `i64` accepts exactly the strings `BigInt` does.
        if let Ok(n) = s.parse::<i64>() {
            return Ok(Rational::from_int(n));
        }
        if let Some((numer, denom)) = s.split_once('/') {
            let n: BigInt = numer.trim().parse()?;
            let d: BigInt = denom.trim().parse()?;
            if d.is_zero() {
                return Err(ParseNumError::new("zero denominator"));
            }
            return Ok(Rational::new(n, d));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let i: BigInt = if int_part.is_empty() || int_part == "-" || int_part == "+" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseNumError::new(format!(
                    "invalid decimal fraction '{}'",
                    s
                )));
            }
            let f: BigInt = frac_part.parse()?;
            let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
            let frac = Rational::new(f, scale);
            let int_rat = Rational::from_integer(i);
            return Ok(if negative {
                int_rat - frac
            } else {
                int_rat + frac
            });
        }
        Ok(Rational::from_integer(s.parse()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;
    use proptest::prelude::*;

    /// The canonicity invariant: a value is `Small` exactly when its
    /// normalized components fit `i64`.
    fn assert_canonical(q: &Rational) {
        let fits = q.numer().to_i64().is_some() && q.denom().to_i64().is_some();
        assert_eq!(
            matches!(q.0, Repr::Small(..)),
            fits,
            "non-canonical representation for {q}"
        );
    }

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, 5), Rational::zero());
        assert!(rat(2, -4).denom().is_positive());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(1, 2) / rat(1, 4), rat(2, 1));
        assert_eq!(-rat(1, 2), rat(-1, 2));
    }

    #[test]
    fn comparison() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(-1, 2) < rat(1, 100));
        assert_eq!(rat(3, 9), rat(1, 3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat(7, 2).floor(), BigInt::from(3));
        assert_eq!(rat(7, 2).ceil(), BigInt::from(4));
        assert_eq!(rat(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(rat(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(rat(4, 2).floor(), BigInt::from(2));
        assert_eq!(rat(4, 2).ceil(), BigInt::from(2));
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(rat(2, 3).recip(), rat(3, 2));
        assert_eq!(rat(-2, 3).recip(), rat(-3, 2));
        assert!(rat(-2, 3).recip().denom().is_positive());
        assert_eq!(rat(2, 3).pow(2), rat(4, 9));
        assert_eq!(rat(2, 3).pow(-2), rat(9, 4));
        assert_eq!(rat(5, 7).pow(0), Rational::one());
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3".parse::<Rational>().unwrap(), rat(3, 1));
        assert_eq!("-3/6".parse::<Rational>().unwrap(), rat(-1, 2));
        assert_eq!("1.25".parse::<Rational>().unwrap(), rat(5, 4));
        assert_eq!("-1.25".parse::<Rational>().unwrap(), rat(-5, 4));
        assert_eq!("-0.5".parse::<Rational>().unwrap(), rat(-1, 2));
        assert_eq!("0.1".parse::<Rational>().unwrap(), rat(1, 10));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("1.".parse::<Rational>().is_err());
        assert!("a/b".parse::<Rational>().is_err());
    }

    /// A literal that fits a word takes the `i64` route; every integer
    /// literal, fitting or not, reads as it did through `BigInt` alone, and
    /// the other forms are untouched.
    #[test]
    fn integer_literals_parse_as_through_bigint() {
        let (min, max) = (i64::MIN.to_string(), i64::MAX.to_string());
        for s in ["+5", "-0", "007", &min, &max, "9223372036854775808", "-", "", "+", "-+1"] {
            let through_bigint = s.parse::<BigInt>().map(Rational::from_integer);
            assert_eq!(s.parse::<Rational>(), through_bigint, "{s:?}");
        }
        assert_eq!("+5".parse::<Rational>(), Ok(rat(5, 1)));
        assert_eq!("-0".parse::<Rational>(), Ok(Rational::ZERO));
        assert_eq!("007".parse::<Rational>(), Ok(rat(7, 1)));
        assert_eq!(min.parse::<Rational>(), Ok(Rational::from_int(i64::MIN)));
        assert_eq!("9223372036854775808".parse::<Rational>(), Ok(-Rational::from_int(i64::MIN)));
        assert_eq!("-".parse::<Rational>(), Err(ParseNumError::new("empty string")));
        assert_eq!("".parse::<Rational>(), Err(ParseNumError::new("empty string")));
        assert_eq!("1/0".parse::<Rational>(), Err(ParseNumError::new("zero denominator")));
        assert_eq!("1.5".parse::<Rational>(), Ok(rat(3, 2)));
    }

    fn refs(values: &[Rational]) -> Vec<&Rational> {
        values.iter().collect()
    }

    /// The `i128` route of `primitive_factor` is the `BigInt` loop wherever
    /// it answers, and it answers up to the `i64` boundary.
    #[test]
    fn primitive_factor_at_the_word_boundary() {
        let (min, max) = (Rational::from_int(i64::MIN), Rational::from_int(i64::MAX));
        let cases = [
            vec![rat(1, i64::MAX), rat(1, i64::MAX - 1)],
            vec![min.clone(), max.clone()],
            vec![rat(i64::MIN, i64::MAX), rat(i64::MAX, 2)],
            vec![rat(6, 4), rat(-9, 2), Rational::ZERO],
            vec![Rational::ZERO, Rational::ZERO],
            vec![],
        ];
        for values in &cases {
            let small = primitive_factor_small(&refs(values)).expect("every step fits i128");
            assert_eq!(small, primitive_factor_big(&refs(values)), "{values:?}");
        }
        assert_eq!(Rational::primitive_factor(&refs(&cases[3])), Some(rat(2, 3)));
        assert_eq!(Rational::primitive_factor(&refs(&cases[4])), None);
        // Three word-sized denominators whose lcm passes i128, and a value
        // past i64: the BigInt loop answers.
        let past = [rat(1, i64::MAX), rat(1, i64::MAX - 1), rat(1, i64::MAX - 2), -&min];
        for values in [&past[..3], &past[2..]] {
            assert!(primitive_factor_small(&refs(values)).is_none());
            assert!(Rational::primitive_factor(&refs(values)).is_some());
        }
    }

    /// Components near zero, at the `i64` boundary and just past it.
    fn boundary_component(positive: bool) -> impl Strategy<Value = i128> {
        let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
        let near = prop_oneof![-9i128..10, max - 3..max + 4, min - 3..min + 4];
        near.prop_map(move |v| if positive { v.abs().max(1) } else { v })
    }

    proptest! {
        #[test]
        fn primitive_factor_routes_agree(
            parts in proptest::collection::vec(
                (boundary_component(false), boundary_component(true)),
                0..5,
            ),
        ) {
            let values: Vec<Rational> = parts
                .iter()
                .map(|&(n, d)| Rational::new(BigInt::from(n), BigInt::from(d)))
                .collect();
            let values = refs(&values);
            let big = primitive_factor_big(&values);
            if let Some(small) = primitive_factor_small(&values) {
                prop_assert_eq!(&small, &big);
            }
            prop_assert_eq!(Rational::primitive_factor(&values), big);
        }
    }

    #[test]
    fn display() {
        assert_eq!(rat(1, 2).to_string(), "1/2");
        assert_eq!(rat(4, 2).to_string(), "2");
        assert_eq!(rat(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn midpoint_between() {
        let m = Rational::midpoint(&rat(1, 3), &rat(1, 2));
        assert!(rat(1, 3) < m && m < rat(1, 2));
        assert_eq!(m, rat(5, 12));
    }

    #[test]
    fn bit_size_grows() {
        assert!(rat(1, 3).bit_size() < rat(123456789, 987654321).bit_size());
    }

    #[test]
    fn constants_and_from_int() {
        assert_eq!(Rational::ZERO, Rational::zero());
        assert_eq!(Rational::ONE, Rational::one());
        assert!(Rational::ZERO.is_zero() && Rational::ONE.is_one());
        assert_eq!(Rational::from_int(-7), rat(-7, 1));
        assert_eq!(Rational::from_int(i64::MIN), rat(i64::MIN, 1));
        assert_canonical(&Rational::from_int(i64::MIN));
    }

    #[test]
    fn representation_is_canonical_across_constructors_and_ops() {
        let edge = Rational::from_integer(BigInt::from(i64::MAX));
        let big = &edge + &Rational::ONE;
        let min = Rational::from_int(i64::MIN);
        for q in [
            rat(6, -4),
            edge.clone(),
            big.clone(),
            min.clone(),
            &big - &Rational::ONE,     // demotes back to Small
            &min - &Rational::ONE,     // promotes past i64::MIN
            -&min,                     // |i64::MIN| does not fit i64
            min.abs(),
            min.recip(),
            &big * &big,
            (&big * &big) / &big,      // demotes after cancellation
            "123456789123456789123456789/3".parse::<Rational>().unwrap(),
        ] {
            assert_canonical(&q);
        }
    }

    #[test]
    fn promotion_at_the_i64_min_boundary() {
        let min = Rational::from_int(i64::MIN);
        // -i64::MIN and |i64::MIN| exceed i64::MAX: checked promotion, no wrap.
        assert_eq!(-&min, "9223372036854775808".parse::<Rational>().unwrap());
        assert_eq!(min.abs(), -&min);
        assert!(min.abs().numer().to_i64().is_none());
        // recip of i64::MIN flips the sign onto the (fitting) numerator.
        assert_eq!(min.recip(), Rational::new(BigInt::from(-1i64), -&BigInt::from(i64::MIN)));
        assert_canonical(&min.recip());
        // i64::MIN/i64::MIN normalizes to one on the fast path.
        assert_eq!(Rational::from_i64s(i64::MIN, i64::MIN), Rational::ONE);
        // i64::MIN over -1 must promote, not wrap.
        assert_eq!(
            Rational::from_i64s(i64::MIN, -1),
            "9223372036854775808".parse::<Rational>().unwrap()
        );
        // floor/ceil at the boundary stay exact.
        assert_eq!(min.floor(), BigInt::from(i64::MIN));
        assert_eq!(min.ceil(), BigInt::from(i64::MIN));
        assert_eq!(Rational::from_i64s(i64::MIN, 2).ceil(), BigInt::from(i64::MIN / 2));
    }

    #[test]
    fn from_i128_frac_cross_products_near_the_limit() {
        // The largest cross products Small operands can produce: numerators
        // reach magnitude i64::MIN * i64::MAX per product (denominators are
        // positive, so ≤ i64::MAX), and the add path sums two of them —
        // just under i128::MAX. They must reduce without wrapping.
        let m = i64::MIN as i128;
        let dmax = i64::MAX as i128;
        let q = from_i128_frac(m * dmax, m * dmax);
        assert_eq!(q, Rational::ONE);
        // The add path's worst case: |an·bd + bn·ad| with an = bn = i64::MIN
        // and ad = bd = i64::MAX, over ad·bd.
        let two = from_i128_frac(m * dmax + m * dmax, dmax * dmax);
        assert_eq!(two, Rational::from_i64s(i64::MIN, i64::MAX) * rat(2, 1));
        assert_canonical(&two);
        // Irreducible huge fraction promotes to Big with exact components.
        let p = from_i128_frac(dmax * dmax + 1, dmax * dmax);
        assert!(p.numer().to_i64().is_none());
        assert_eq!(&p.numer() - &p.denom(), BigInt::one());
        // i64::MIN numerators with coprime denominators stay Small.
        let q = from_i128_frac(m, 3);
        assert_eq!(q, Rational::from_i64s(i64::MIN, 3));
        assert_canonical(&q);
        // Normalized magnitude exactly |i64::MIN| fits Small as a numerator
        // but not as a denominator (which must be positive).
        let dmin = from_i128_frac(1, m);
        assert!(dmin.denom().to_i64().is_none());
        assert_eq!(dmin, -from_i128_frac(-1, m));
        assert_eq!(dmin.abs(), from_i128_frac(-1, m));
    }

    #[test]
    fn gcd_u128_boundaries() {
        assert_eq!(gcd_u128(0, 5), 5);
        assert_eq!(gcd_u128(5, 0), 5);
        assert_eq!(gcd_u128(0, 0), 0);
        let min_mag = i64::MIN.unsigned_abs() as u128;
        assert_eq!(gcd_u128(min_mag, min_mag), min_mag);
        assert_eq!(gcd_u128(min_mag, 3), 1);
        assert_eq!(gcd_u128(min_mag * min_mag, min_mag), min_mag);
        assert_eq!(gcd_u128(u128::MAX, u128::MAX - 1), 1);
    }

    #[test]
    fn mixed_small_big_arithmetic_agrees_with_big_big() {
        let big = "123456789123456789123456789/7".parse::<Rational>().unwrap();
        let small = rat(3, 7);
        let sum = &big + &small;
        assert_eq!(&sum - &small, big);
        assert_eq!(&big * &Rational::ONE, big);
        assert_eq!(&big - &big, Rational::ZERO);
        assert_canonical(&(&big - &big));
        assert!(small < big);
        assert_eq!((&big / &big), Rational::ONE);
    }

    #[test]
    fn fast_path_agrees_with_bigint_path_at_the_i64_boundary() {
        // Values straddling the i64 gate: `big` exceeds i64 (slow path),
        // `edge` sits exactly on the boundary (fast path), and their
        // mixtures exercise one-side-fast/one-side-slow.
        let big = Rational::from_integer(BigInt::from(i64::MAX)) + Rational::one();
        let edge = Rational::from_integer(BigInt::from(i64::MAX));
        let min = Rational::from_integer(BigInt::from(i64::MIN));
        assert_eq!((&big - &Rational::one()), edge);
        assert_eq!((&edge + &Rational::one()), big);
        assert_eq!(&edge - &edge, Rational::zero());
        assert_eq!(&min + &edge, -Rational::one());
        assert!(min < edge && edge < big);
        // Products that overflow i64 but not the normalized result.
        let h = Rational::from_i64s(i64::MAX, 2);
        assert_eq!(&h + &h, edge);
        assert_eq!(&h * &rat(2, 1), edge);
        assert_eq!(&edge / &rat(1, 2), &edge * &rat(2, 1));
        // Normalization still applies on the fast path.
        let q = Rational::from_i64s(6 * (1 << 40), 4 * (1 << 40));
        assert_eq!(q, rat(3, 2));
        assert_eq!((&rat(1, 3) + &rat(1, 6)), rat(1, 2));
    }

    #[test]
    fn fast_path_ordering_matches_cross_multiplication() {
        let cases = [
            (rat(1, 3), rat(1, 2)),
            (rat(-7, 5), rat(-3, 2)),
            (
                Rational::from_i64s(i64::MAX, 3),
                Rational::from_i64s(i64::MAX, 2),
            ),
            (
                Rational::from_i64s(i64::MIN, 7),
                Rational::from_i64s(i64::MIN, 9),
            ),
        ];
        for (a, b) in cases {
            let slow = (a.numer() * b.denom()).cmp(&(b.numer() * a.denom()));
            assert_eq!(a.cmp(&b), slow, "{a} vs {b}");
        }
    }
}
