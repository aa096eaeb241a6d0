//! Hyperplanes induced by a linear constraint relation (the set `𝔥(S)` of §3).

use lcdb_arith::{BigInt, Rational, Sign};
use lcdb_exec::Interner;
use lcdb_linalg::QVector;
use lcdb_logic::{Atom, Relation};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The canonical payload of a hyperplane: integer coefficients with gcd 1
/// and positive leading coefficient, so two atoms inducing the same point
/// set produce identical data.
#[derive(PartialEq, Eq, Hash, Debug)]
struct HyperplaneData {
    coeffs: QVector,
    rhs: Rational,
}

/// Process-wide hash-cons table for canonical hyperplane payloads. Growth is
/// bounded by the number of *distinct* hyperplanes ever constructed, which
/// the paper bounds by the atom count of the database — entries are tiny and
/// shared across every arrangement, region decomposition, and catalog
/// decode, so the table is deliberately never evicted.
fn interner() -> &'static Interner<HyperplaneData> {
    static INTERNER: OnceLock<Interner<HyperplaneData>> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

/// The positive factor scaling the given rationals (not all zero) to
/// integers with gcd 1: the lcm of the denominators over the gcd of the
/// numerators so scaled.
pub(crate) fn primitive_factor<'a>(values: impl Iterator<Item = &'a Rational> + Clone) -> Rational {
    let mut f = BigInt::one();
    for c in values.clone() {
        let d = c.denom();
        let g = f.gcd(&d);
        f = &(&f * &d) / &g;
    }
    let mut g = BigInt::zero();
    for c in values {
        let n = c.numer() * &(&f / &c.denom());
        g = g.gcd(&n);
    }
    Rational::new(f, g)
}

/// A hyperplane `coeffs · x = rhs` in `ℝ^d`, stored in canonical primitive
/// form: integer coefficients with gcd 1 and positive leading coefficient.
/// Two atoms inducing the same point set yield equal (and hash-equal) values.
///
/// The canonical payload is hash-consed in a process-wide [`Interner`]:
/// equal hyperplanes share one allocation no matter where they were
/// constructed, `clone` is a reference-count bump, and equality is a pointer
/// comparison on the shared `Arc` — the arrangement refinement loop compares
/// and re-keys hyperplanes constantly, and identity comparison replaces deep
/// exact-rational comparison on that path.
#[derive(Clone, Debug)]
pub struct Hyperplane {
    inner: Arc<HyperplaneData>,
}

impl PartialEq for Hyperplane {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes value equality and identity coincide.
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for Hyperplane {}

impl std::hash::Hash for Hyperplane {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
    }
}

impl Hyperplane {
    /// Construct from a normal vector and offset, canonicalizing.
    ///
    /// # Panics
    /// Panics if all coefficients are zero (not a hyperplane).
    pub fn new(coeffs: QVector, rhs: Rational) -> Self {
        assert!(
            coeffs.iter().any(|c| !c.is_zero()),
            "degenerate hyperplane with zero normal"
        );
        let mut factor = primitive_factor(coeffs.iter().chain(std::iter::once(&rhs)));
        let leading = coeffs
            .iter()
            .find(|c| !c.is_zero())
            .expect("asserted above: some coefficient is nonzero");
        if leading.is_negative() {
            factor = -factor;
        }
        Hyperplane {
            inner: interner().intern(HyperplaneData {
                coeffs: coeffs.iter().map(|c| c * &factor).collect(),
                rhs: &rhs * &factor,
            }),
        }
    }

    /// The hyperplane induced by an atom `expr REL 0` (replacing the relation
    /// by equality, §3). Returns `None` for constant atoms.
    pub fn from_atom(atom: &Atom, var_order: &[String]) -> Option<Hyperplane> {
        if atom.expr.is_constant() {
            return None;
        }
        let coeffs: QVector = var_order.iter().map(|v| atom.expr.coeff(v)).collect();
        if coeffs.iter().all(|c| c.is_zero()) {
            return None;
        }
        // expr = a·x + c REL 0  ⇒  hyperplane a·x = -c.
        Some(Hyperplane::new(coeffs, -atom.expr.constant_term().clone()))
    }

    /// Normal vector (canonical primitive integers).
    pub fn coeffs(&self) -> &[Rational] {
        &self.inner.coeffs
    }

    /// Right-hand side.
    pub fn rhs(&self) -> &Rational {
        &self.inner.rhs
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.inner.coeffs.len()
    }

    /// Which side of the hyperplane is the point on? (`Positive` = above,
    /// `Zero` = on, `Negative` = below, matching `v_i(p)` of §3.)
    pub fn side_of(&self, p: &[Rational]) -> Sign {
        Rational::dot_sign(self.affine(p))
    }

    /// The value `coeffs · p - rhs`.
    pub fn eval(&self, p: &[Rational]) -> Rational {
        Rational::dot(self.affine(p))
    }

    /// The pairs of the inner product `coeffs · p − rhs`.
    fn affine<'a>(&'a self, p: &'a [Rational]) -> impl Iterator<Item = (&'a Rational, &'a Rational)> {
        assert_eq!(p.len(), self.dim(), "dot product of unequal lengths");
        let rhs = std::iter::once((&self.inner.rhs, &Rational::MINUS_ONE));
        self.inner.coeffs.iter().zip(p).chain(rhs)
    }
}

impl fmt::Display for Hyperplane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.inner.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if first {
                if c.is_one() {
                    write!(f, "x{}", i + 1)?;
                } else {
                    write!(f, "{}*x{}", c, i + 1)?;
                }
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}*x{}", -c, i + 1)?;
            } else {
                write!(f, " + {}*x{}", c, i + 1)?;
            }
        }
        write!(f, " = {}", self.inner.rhs)
    }
}

/// Extract the deduplicated hyperplane set `𝔥(S)` from a relation's DNF
/// representation (§3): one hyperplane per non-constant atom, with the
/// (in)equality replaced by equality.
pub fn extract_hyperplanes(relation: &Relation) -> Vec<Hyperplane> {
    let order: Vec<String> = relation.var_names().to_vec();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for conj in &relation.dnf().disjuncts {
        for atom in conj {
            if let Some(h) = Hyperplane::from_atom(atom, &order) {
                if seen.insert(h.clone()) {
                    out.push(h);
                }
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};
    use lcdb_logic::parse_formula;

    fn v(vals: &[i64]) -> QVector {
        vals.iter().map(|&x| int(x)).collect()
    }

    #[test]
    fn canonical_form_dedups() {
        // 2x + 2y = 4  ==  x + y = 2  ==  -x - y = -2.
        let a = Hyperplane::new(v(&[2, 2]), int(4));
        let b = Hyperplane::new(v(&[1, 1]), int(2));
        let c = Hyperplane::new(v(&[-1, -1]), int(-2));
        assert_eq!(a, b);
        assert_eq!(b, c);
        // Fractions scale to integers.
        let d = Hyperplane::new(vec![rat(1, 2), rat(1, 2)], int(1));
        assert_eq!(d, b);
    }

    #[test]
    fn side_of_matches_definition() {
        // x + y = 2: (2,2) above, (1,1) on, (0,0) below.
        let h = Hyperplane::new(v(&[1, 1]), int(2));
        assert_eq!(h.side_of(&v(&[2, 2])), Sign::Positive);
        assert_eq!(h.side_of(&v(&[1, 1])), Sign::Zero);
        assert_eq!(h.side_of(&v(&[0, 0])), Sign::Negative);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_normal_rejected() {
        let _ = Hyperplane::new(v(&[0, 0]), int(1));
    }

    #[test]
    fn extraction_dedups_and_skips_constants() {
        // Both disjuncts mention (scaled copies of) the same two hyperplanes.
        let f = parse_formula("(x < 1 and 2*x < 2 and y >= x) or (y = x and 0 < 1)").unwrap();
        let r = Relation::new(vec!["x".into(), "y".into()], f);
        let hs = extract_hyperplanes(&r);
        assert_eq!(hs.len(), 2); // x = 1 and y - x = 0 (sign-canonical)
    }

    #[test]
    fn from_atom_orientation() {
        // Atom `x - y < 0` induces hyperplane x - y = 0 with positive leading.
        let f = parse_formula("x - y < 0").unwrap();
        let r = Relation::new(vec!["x".into(), "y".into()], f);
        let hs = extract_hyperplanes(&r);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].coeffs()[0], int(1));
        assert_eq!(hs[0].coeffs()[1], int(-1));
    }

    #[test]
    fn display_readable() {
        let h = Hyperplane::new(v(&[1, -2]), int(3));
        assert_eq!(h.to_string(), "x1 - 2*x2 = 3");
    }
}
