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
//! `i128` (products of `i64`s fit `i128` with a bit to spare, and one
//! addition of two such products still fits) and only *promotes* to `Big`
//! when the checked conversion of the normalized result back to `i64`
//! fails. Operands over one denominator (integers among them) add their
//! numerators; others add through the cross products. A product or quotient
//! cancels across first (`gcd(a, d)` and `gcd(c, b)` of `a/b · c/d`, Knuth
//! 4.5.1), which leaves it in lowest terms, so its gcds stay on words. A
//! gcd runs Euclid on the hardware `u64` remainder whenever both operands
//! fit a word, and the `u128` loop only while one does not. Mixed and
//! `Big`/`Big` operations fall back to arbitrary precision and demote on
//! the way out.
//!
//! An inner product `Σ xᵢ·yᵢ` is one operation, not a fold of them:
//! [`Rational::dot`] keeps a running `num/den` in `i128` while every operand
//! is `Small`, adds numerators over equal or dividing denominators and
//! cross-multiplies (checked) otherwise, and normalizes once at the end;
//! [`Rational::dot_sign`] reads the sign of that running fraction and
//! normalizes nothing. An affine form `a·x − b` is the inner product with
//! one more pair `(b, −1)`. A `Big` operand or an overflowing step hands the
//! partial sum and the rest of the terms to the per-term operators, so the
//! value (and, the representation being canonical, the tag) is the fold's.

use lcdb_budget::work::{self, Work};
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

    /// The value minus one: the second entry of an affine form's constant
    /// pair `(b, −1)` in [`Rational::dot`] and [`Rational::dot_sign`].
    pub const MINUS_ONE: Rational = Rational(Repr::Small(-1, 1));

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
        overflow_site();
        Rational::normalize(num, den)
    }

    /// `num / den` (den nonzero) in lowest terms with a positive
    /// denominator: [`Rational::new`] without its fault site.
    fn normalize(num: BigInt, den: BigInt) -> Self {
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
        overflow_site();
        from_i128_frac_unfaulted(num as i128, den as i128)
    }

    /// The exact inner product `Σ xᵢ·yᵢ` of `pairs`, normalized once. Pass
    /// an affine form's constant `b` as one more pair `(b, −1)`.
    pub fn dot<'a>(pairs: impl IntoIterator<Item = (&'a Rational, &'a Rational)>) -> Rational {
        match InnerProduct::of(pairs) {
            InnerProduct::Words(num, den) => from_i128_frac_unfaulted(num, den),
            InnerProduct::Folded(sum) => sum,
        }
    }

    /// The sign of [`Rational::dot`] of `pairs`, found without normalizing
    /// anything: `dot_sign(a·x, (b, −1))` is the side of `a·x = b` that `x`
    /// is on.
    pub fn dot_sign<'a>(pairs: impl IntoIterator<Item = (&'a Rational, &'a Rational)>) -> Sign {
        match InnerProduct::of(pairs) {
            InnerProduct::Words(num, _) => match num.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            InnerProduct::Folded(sum) => sum.sign(),
        }
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

/// The deferred `arith.overflow` fault-injection site, one hit per
/// operation: it stands in for a (hypothetical) overflow in normalization.
/// Rational arithmetic is infallible, so the fault surfaces at the work
/// ledger's next charge.
#[inline]
fn overflow_site() {
    #[cfg(feature = "faults")]
    lcdb_budget::faults::hit("arith.overflow");
}

/// The running sum of an inner product.
enum InnerProduct {
    /// `num/den`, `den > 0`, not reduced: every term so far was `Small`
    /// and every step fit `i128`.
    Words(i128, i128),
    /// The per-term fold's sum, once a term was `Big` or a step overflowed.
    Folded(Rational),
}

impl InnerProduct {
    /// Accumulate `pairs`, skipping those with a zero entry. Each `Small`
    /// term's `an·bn / ad·bd` fits `i128`; it joins the sum over a shared
    /// denominator when one of the two divides the other and through the
    /// cross products otherwise, every step checked. The first `Big` entry
    /// or overflow normalizes the partial sum and folds the rest term by
    /// term. One fault-site hit, whichever way it goes.
    fn of<'a>(pairs: impl IntoIterator<Item = (&'a Rational, &'a Rational)>) -> InnerProduct {
        overflow_site();
        let mut pairs = pairs.into_iter();
        let (mut num, mut den) = (0i128, 1i128);
        while let Some((x, y)) = pairs.next() {
            if x.is_zero() || y.is_zero() {
                continue;
            }
            if let (Some((an, ad)), Some((bn, bd))) = (x.small(), y.small()) {
                let term = (i128::from(an) * i128::from(bn), i128::from(ad) * i128::from(bd));
                if let Some(sum) = add_words((num, den), term) {
                    (num, den) = sum;
                    continue;
                }
            }
            let mut sum = from_i128_frac_unfaulted(num, den);
            for (x, y) in std::iter::once((x, y)).chain(pairs) {
                if !x.is_zero() && !y.is_zero() {
                    sum = add_unfaulted(&sum, &mul_unfaulted(x, y));
                }
            }
            return InnerProduct::Folded(sum);
        }
        InnerProduct::Words(num, den)
    }
}

/// `an/ad + bn/bd` unreduced (denominators positive): over the larger
/// denominator when the smaller divides it, else over their product; `None`
/// when a step overflows `i128`.
fn add_words((an, ad): (i128, i128), (bn, bd): (i128, i128)) -> Option<(i128, i128)> {
    if ad == bd {
        return Some((an.checked_add(bn)?, ad));
    }
    if let Some(k) = quotient(ad, bd) {
        return Some((an.checked_add(bn.checked_mul(k)?)?, ad));
    }
    if let Some(k) = quotient(bd, ad) {
        return Some((an.checked_mul(k)?.checked_add(bn)?, bd));
    }
    Some((an.checked_mul(bd)?.checked_add(bn.checked_mul(ad)?)?, ad.checked_mul(bd)?))
}

/// `n / d` when `d` divides `n` (both positive), on the hardware `u64`
/// division when both fit a word.
#[inline]
fn quotient(n: i128, d: i128) -> Option<i128> {
    if d == 1 {
        return Some(n);
    }
    match (u64::try_from(n), u64::try_from(d)) {
        (Ok(n), Ok(d)) => (n % d == 0).then(|| i128::from(n / d)),
        _ => (n % d == 0).then(|| n / d),
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

/// Euclid on the hardware `u64` remainder; a 0 or 1 answers at once.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a <= 1 || b <= 1 {
        return if a == 0 { b } else if b == 0 { a } else { 1 };
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The gcd of the fixed-width fast path. Total on all inputs including
/// zeros (`gcd(0, b) = b`, `gcd(a, 0) = a`), so callers at the `i64::MIN`
/// boundary can pass `unsigned_abs()` products directly. Operands that fit
/// a word go straight to [`gcd_u64`]; a wider one takes `u128` remainder
/// steps until both fit.
#[inline]
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    const WORD: u128 = u64::MAX as u128;
    if a <= 1 || b <= 1 {
        return if a == 0 { b } else if b == 0 { a } else { 1 };
    }
    if a > WORD || b > WORD {
        work::add(Work::ArithWideGcds, 1);
        while a > WORD || b > WORD {
            (a, b) = (b, a % b);
            if b == 0 {
                return a;
            }
        }
    }
    u128::from(gcd_u64(a as u64, b as u64))
}

/// Normalize an `i128` fraction without allocating limb vectors, demoting to
/// the fixed-width representation when the normalized components fit `i64`
/// and promoting to `Big` (checked, never wrapping) when they do not.
///
/// Every `i128` numerator is accepted, `i128::MIN` included: an inner
/// product's running sum reaches `±2¹²⁷`, and the reduction works on
/// `unsigned_abs` magnitudes. `den` must be nonzero.
pub(crate) fn from_i128_frac(num: i128, den: i128) -> Rational {
    // The same fault site as `Rational::new`, so the fast path does not
    // change which operations can be made to fail.
    overflow_site();
    from_i128_frac_unfaulted(num, den)
}

fn from_i128_frac_unfaulted(num: i128, den: i128) -> Rational {
    debug_assert!(den != 0, "normalizing a fraction with zero denominator");
    if num == 0 {
        return Rational::ZERO;
    }
    if den == 1 {
        if let Ok(n) = i64::try_from(num) {
            return Rational(Repr::Small(n, 1));
        }
    }
    // Work in magnitudes: negating `i128::MIN`-adjacent values is handled by
    // `unsigned_abs`, and the sign is reapplied after reduction.
    let negative = (num < 0) != (den < 0);
    let (mut un, mut ud) = (num.unsigned_abs(), den.unsigned_abs());
    let g = gcd_u128(un, ud);
    if g != 1 {
        un /= g;
        ud /= g;
    }
    from_reduced(negative, un, ud)
}

/// `an/ad + bn/bd` of two fixed-width values, `bn` already negated for a
/// difference (hence `i128`). One denominator — two integers, say — adds
/// the numerators over it; two go through the cross products.
fn add_small(an: i128, ad: i64, bn: i128, bd: i64) -> Rational {
    if ad == bd {
        return from_i128_frac_unfaulted(an + bn, i128::from(ad));
    }
    let (ad, bd) = (i128::from(ad), i128::from(bd));
    from_i128_frac_unfaulted(an * bd + bn * ad, ad * bd)
}

/// `±(an/ad)·(bn/bd)` over magnitudes of two fixed-width values, each in
/// lowest terms: with `gcd(an, bd)` and `gcd(bn, ad)` cancelled first the
/// product is in lowest terms too (Knuth, TAOCP 4.5.1), so no gcd runs on a
/// 128-bit product. A quotient passes the divisor's magnitudes swapped.
fn mul_small(negative: bool, an: u64, ad: u64, bn: u64, bd: u64) -> Rational {
    if an == 0 || bn == 0 {
        return Rational::ZERO;
    }
    let (g, h) = (gcd_u64(an, bd), gcd_u64(bn, ad));
    let num = u128::from(an / g) * u128::from(bn / h);
    from_reduced(negative, num, u128::from(ad / h) * u128::from(bd / g))
}

/// `±un/ud`, already in lowest terms: `Small` when both components fit,
/// else `Big` (counted as a promotion).
fn from_reduced(negative: bool, un: u128, ud: u128) -> Rational {
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
            work::add(Work::ArithPromotions, 1);
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

/// `a + b` without the operator's fault site.
fn add_unfaulted(a: &Rational, b: &Rational) -> Rational {
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        return add_small(i128::from(an), ad, i128::from(bn), bd);
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::normalize(&an * &bd + &bn * &ad, &ad * &bd)
}

/// `a · b` without the operator's fault site.
fn mul_unfaulted(a: &Rational, b: &Rational) -> Rational {
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        let (ad, bd) = (ad.unsigned_abs(), bd.unsigned_abs());
        return mul_small((an < 0) != (bn < 0), an.unsigned_abs(), ad, bn.unsigned_abs(), bd);
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::normalize(&an * &bn, &ad * &bd)
}

// Each operator is one hit of the fault site.
forward_binop_rational!(Add, add, |a: &Rational, b: &Rational| {
    overflow_site();
    add_unfaulted(a, b)
});
forward_binop_rational!(Sub, sub, |a: &Rational, b: &Rational| {
    overflow_site();
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        return add_small(i128::from(an), ad, -i128::from(bn), bd);
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::normalize(&an * &bd - &bn * &ad, &ad * &bd)
});
forward_binop_rational!(Mul, mul, |a: &Rational, b: &Rational| {
    overflow_site();
    mul_unfaulted(a, b)
});
forward_binop_rational!(Div, div, |a: &Rational, b: &Rational| {
    assert!(!b.is_zero(), "rational division by zero");
    overflow_site();
    if let (Some((an, ad)), Some((bn, bd))) = (a.small(), b.small()) {
        let (ad, bd) = (ad.unsigned_abs(), bd.unsigned_abs());
        return mul_small((an < 0) != (bn < 0), an.unsigned_abs(), ad, bd, bn.unsigned_abs());
    }
    let (an, ad) = a.to_big();
    let (bn, bd) = b.to_big();
    Rational::normalize(&an * &bd, &ad * &bn)
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
    use crate::{int, rat};
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

    /// The `u128` Euclid loop every fixed-width gcd once ran.
    fn gcd_u128_euclid(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    /// The fixed-width operators before equal denominators and cancelling
    /// across: the full `i128` cross products, reduced by the `u128` loop.
    fn cross_product_oracle(op: char, (an, ad): (i64, i64), (bn, bd): (i64, i64)) -> Rational {
        let (an, ad, bn, bd) = (i128::from(an), i128::from(ad), i128::from(bn), i128::from(bd));
        let (num, den) = match op {
            '+' => (an * bd + bn * ad, ad * bd),
            '-' => (an * bd - bn * ad, ad * bd),
            '*' => (an * bn, ad * bd),
            _ => (an * bd, ad * bn),
        };
        if num == 0 {
            return Rational::ZERO;
        }
        let (un, ud) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u128_euclid(un, ud);
        from_reduced((num < 0) != (den < 0), un / g, ud / g)
    }

    /// Numerators at the hard cases: 0, ±1, the `i64` ends, powers of two,
    /// shared small factors, and anything.
    fn hard_numerator() -> impl Strategy<Value = i64> {
        prop_oneof![
            prop_oneof![Just(0i64), Just(1), Just(-1), Just(i64::MIN), Just(i64::MAX)],
            (0u32..63, any::<bool>()).prop_map(|(k, neg)| if neg { -(1i64 << k) } else { 1 << k }),
            (-36i64..37).prop_map(|k| k * 30),
            any::<i64>(),
        ]
    }

    /// Denominators: 1, `i64::MAX`, powers of two, multiples of 30 (shared
    /// factors), odd primes (coprime), and anything positive.
    fn hard_denominator() -> impl Strategy<Value = i64> {
        prop_oneof![
            prop_oneof![Just(1i64), Just(i64::MAX), Just(3), Just(7), Just(1_000_003)],
            (0u32..63).prop_map(|k| 1i64 << k),
            (1i64..37).prop_map(|k| k * 30),
            1i64..=i64::MAX,
        ]
    }

    /// A fixed-width operand, normalized, and a second one that shares its
    /// denominator half the time.
    fn operand_pair() -> impl Strategy<Value = (Rational, Rational)> {
        let part = || (hard_numerator(), hard_denominator());
        (part(), part(), any::<bool>()).prop_map(|((an, ad), (bn, bd), same)| {
            let a = Rational::from_i64s(an, ad);
            let b = match (same, a.small()) {
                (true, Some((_, d))) => Rational::from_i64s(bn, d),
                _ => Rational::from_i64s(bn, bd),
            };
            (a, b)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Equal denominators and cancelling across give the old cross
        /// products' value and representation.
        #[test]
        fn word_paths_equal_the_cross_product_oracle(pair in operand_pair()) {
            let (a, b) = pair;
            let (Some(x), Some(y)) = (a.small(), b.small()) else { return Ok(()) };
            let mut ops = vec![('+', &a + &b), ('-', &a - &b), ('*', &a * &b)];
            if !b.is_zero() {
                ops.push(('/', &a / &b));
            }
            for (op, got) in ops {
                let want = cross_product_oracle(op, x, y);
                prop_assert_eq!(&got, &want, "{} {} {}", a, op, b);
                prop_assert_eq!(got.small().is_some(), want.small().is_some());
                assert_canonical(&got);
            }
        }

        /// The word-sized gcd equals the `u128` loop on operands on either
        /// side of 2⁶⁴.
        #[test]
        fn gcd_equals_the_u128_loop(
            a in prop_oneof![0u128..1 << 64, (1u128 << 64)..=u128::MAX, (1u128 << 63)..(1u128 << 65)],
            b in prop_oneof![0u128..4, 0u128..1 << 64, (1u128 << 64)..=u128::MAX, (1u128 << 63)..(1u128 << 65)],
            k in 0u128..1 << 40,
        ) {
            prop_assert_eq!(gcd_u128(a, b), gcd_u128_euclid(a, b));
            // A shared factor, so the answer is not always 1.
            let (ka, kb) = (a.checked_mul(k), b.checked_mul(k));
            if let (Some(ka), Some(kb)) = (ka, kb) {
                prop_assert_eq!(gcd_u128(ka, kb), gcd_u128_euclid(ka, kb));
            }
        }
    }

    /// Every `i128` numerator normalizes, the two ends included, over a
    /// word, an odd and a wider-than-word denominator.
    #[test]
    fn from_i128_frac_accepts_every_numerator() {
        for num in [i128::MIN, i128::MAX] {
            for den in [1, 3, (1i128 << 64) + 1] {
                let q = from_i128_frac(num, den);
                assert_eq!(q, Rational::new(BigInt::from(num), BigInt::from(den)), "{num}/{den}");
                assert_canonical(&q);
            }
        }
    }

    /// The per-term fold every inner product once ran: a `Rational`
    /// product and sum per term with a zero entry skipped.
    fn fold(pairs: &[(Rational, Rational)]) -> Rational {
        let mut acc = Rational::ZERO;
        for (x, y) in pairs {
            if !x.is_zero() && !y.is_zero() {
                acc += &(x * y);
            }
        }
        acc
    }

    fn pair_refs(pairs: &[(Rational, Rational)]) -> impl Iterator<Item = (&Rational, &Rational)> {
        pairs.iter().map(|(x, y)| (x, y))
    }

    fn sign_of(ord: Ordering) -> Sign {
        match ord {
            Ordering::Less => Sign::Negative,
            Ordering::Equal => Sign::Zero,
            Ordering::Greater => Sign::Positive,
        }
    }

    /// Which way the kernel went: `true` when it kept to words.
    fn stays_on_words(pairs: &[(Rational, Rational)]) -> bool {
        matches!(InnerProduct::of(pair_refs(pairs)), InnerProduct::Words(..))
    }

    /// Inner-product entries: zeros, small values, `i64::MIN` and
    /// `i64::MAX` numerators, denominators near 2⁶³ and `Big` values.
    fn kernel_entry() -> impl Strategy<Value = Rational> {
        let near_top = || (i64::MAX - 64)..=i64::MAX;
        prop_oneof![
            Just(Rational::ZERO),
            (-9i64..10, 1i64..10).prop_map(|(n, d)| Rational::from_i64s(n, d)),
            (prop_oneof![Just(i64::MIN), Just(i64::MAX)], hard_denominator())
                .prop_map(|(n, d)| Rational::from_i64s(n, d)),
            (hard_numerator(), near_top()).prop_map(|(n, d)| Rational::from_i64s(n, d)),
            (hard_numerator(), hard_denominator()).prop_map(|(n, d)| Rational::from_i64s(n, d)),
            (hard_numerator(), 1u32..4).prop_map(|(n, k)| {
                let big = BigInt::from(n) * BigInt::from(i64::MAX).pow(k) + BigInt::one();
                Rational::new(big, BigInt::from(3))
            }),
        ]
    }

    /// Up to eight pairs, each with whether its coefficient stays in the
    /// sparse row, and a constant to compare with.
    fn kernel_case() -> impl Strategy<Value = (Vec<(Rational, Rational, bool)>, Rational)> {
        let term = (kernel_entry(), kernel_entry(), any::<bool>());
        (proptest::collection::vec(term, 0..9), kernel_entry())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The kernel is the per-term fold: `dot` in value and tag, the sign
        /// finish against a constant passed as `(c, −1)`, and a sparse row
        /// (its support only) against the dense one.
        #[test]
        fn the_kernel_equals_the_per_term_fold(case in kernel_case()) {
            let (terms, c) = case;
            let pairs: Vec<(Rational, Rational)> = terms.iter().map(|(x, y, _)| (x.clone(), y.clone())).collect();
            let want = fold(&pairs);
            let got = Rational::dot(pair_refs(&pairs));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got.small().is_some(), want.small().is_some());
            assert_canonical(&got);
            let affine = pair_refs(&pairs).chain(std::iter::once((&c, &Rational::MINUS_ONE)));
            prop_assert_eq!(Rational::dot_sign(affine), sign_of(want.cmp(&c)));
            // A dense row with the unkept coefficients zeroed, and its support.
            let dense: Vec<(Rational, Rational)> = terms
                .iter()
                .map(|(x, y, keep)| (if *keep { x.clone() } else { Rational::ZERO }, y.clone()))
                .collect();
            let support = || pair_refs(&dense).filter(|(x, _)| !x.is_zero());
            prop_assert_eq!(Rational::dot(support()), Rational::dot(pair_refs(&dense)));
            prop_assert_eq!(Rational::dot_sign(support()), Rational::dot_sign(pair_refs(&dense)));
        }
    }

    /// The kernel's three ways: words throughout, an overflowing step that
    /// hands the rest to the fold, and a `Big` entry. Each equals the fold.
    #[test]
    fn the_kernel_falls_back_on_overflow_and_on_big() {
        let (p, q) = (i64::MAX - 24, i64::MAX - 58); // coprime, near 2⁶³
        let words = vec![(rat(1, 2), rat(3, 1)), (rat(1, 6), rat(5, 7)), (int(4), rat(-1, 3))];
        let overflow = vec![(rat(1, p), rat(1, q)), (rat(1, q), rat(1, p - 2)), (int(1), int(1))];
        let past = &int(i64::MAX) + &Rational::ONE;
        let big = vec![(int(2), int(3)), (past.clone(), rat(1, 2)), (int(1), int(-1))];
        assert!(stays_on_words(&words));
        assert!(!stays_on_words(&overflow));
        assert!(!stays_on_words(&big));
        for pairs in [&words, &overflow, &big] {
            assert_eq!(Rational::dot(pair_refs(pairs)), fold(pairs));
            assert_eq!(Rational::dot_sign(pair_refs(pairs)), fold(pairs).sign());
        }
        // An i64::MIN² term twice over one denominator: 2¹²⁷ is past i128.
        let min = int(i64::MIN);
        let edge = vec![(min.clone(), min.clone()), (min.clone(), min.clone())];
        assert!(!stays_on_words(&edge));
        assert_eq!(Rational::dot(pair_refs(&edge)), fold(&edge));
        assert_eq!(Rational::dot(pair_refs(&[])), Rational::ZERO);
    }

    /// The counters move on the two rare branches only.
    #[test]
    fn counters_pin_promotions_and_wide_gcds() {
        let before = work::snapshot();
        let max = Rational::from_int(i64::MAX);
        let _ = &max + &Rational::ONE; // integer add past i64: a promotion
        let _ = &rat(1, 3) + &rat(2, 3); // equal denominators: neither
        let _ = &max * &max; // cancelled across, then too wide: a promotion
        let _ = &rat(3, 4) / &rat(9, 8); // cancelled across: neither
        let p = (1i64 << 40) + 1;
        let _ = &rat(1, p) + &rat(1, p + 2); // an 81-bit denominator: both
        let _ = &rat(5, 6) - &rat(1, 10); // cross products on words: neither
        let spent = before.since();
        assert_eq!(spent[Work::ArithPromotions], 3);
        assert_eq!(spent[Work::ArithWideGcds], 1);
    }
}

#[cfg(all(test, feature = "faults"))]
mod fault_tests {
    use super::*;
    use crate::{int, rat};
    use lcdb_budget::faults::{take_pending, FaultPlan};

    /// Each fast path hits `arith.overflow` exactly once: a plan armed on the
    /// first hit trips, one armed on the second does not.
    #[test]
    fn every_fast_path_is_one_fault_site() {
        let (two, third, half) = (Rational::from_int(2), rat(1, 3), rat(3, 4));
        let paths = [
            ("integer add", &two, &two, '+'),
            ("equal-denominator add", &third, &third, '+'),
            ("cross-product add", &third, &half, '+'),
            ("cancelled mul", &third, &half, '*'),
            ("cancelled div", &half, &third, '/'),
        ];
        for (name, a, b, op) in paths {
            for (nth, trips) in [(1, true), (2, false)] {
                let _armed = FaultPlan::new().fail_on("arith.overflow", nth).arm();
                let _ = match op {
                    '+' => a + b,
                    '*' => a * b,
                    _ => a / b,
                };
                assert_eq!(take_pending().is_some(), trips, "{name}, fault on hit {nth}");
            }
        }
    }

    /// An inner product is one fault site too, whichever way the kernel
    /// goes and whichever finish reads it.
    #[test]
    fn an_inner_product_is_one_fault_site() {
        let p = i64::MAX - 24;
        let words = [(rat(1, 3), rat(3, 4)), (int(2), rat(1, 5))];
        let overflow = [(rat(1, p), rat(1, p - 34)), (rat(1, p - 2), rat(1, p)), (int(1), int(1))];
        let big = [(rat(1, 3), int(2)), (&int(i64::MAX) + &Rational::ONE, rat(1, 2))];
        for (name, pairs) in [("words", &words[..]), ("overflow", &overflow), ("big", &big)] {
            for sign in [false, true] {
                for (nth, trips) in [(1, true), (2, false)] {
                    let _armed = FaultPlan::new().fail_on("arith.overflow", nth).arm();
                    let terms = pairs.iter().map(|(x, y)| (x, y));
                    if sign {
                        let _ = Rational::dot_sign(terms);
                    } else {
                        let _ = Rational::dot(terms);
                    }
                    assert_eq!(take_pending().is_some(), trips, "{name}, sign {sign}, fault on hit {nth}");
                }
            }
        }
    }
}
