//! The two-sorted region logic: syntax.
//!
//! `RegFO` (Definition 4.2) is first-order logic over the region extension
//! `B^Reg`, with element variables ranging over ℝ and region variables over
//! the finite region sort. `RegLFP`/`RegIFP`/`RegPFP` (Definition 5.1) add
//! fixed-point operators whose set variables hold sets of region tuples, plus
//! the technical `rBIT` operator; `RegTC`/`RegDTC` (Definition 7.2) add
//! (deterministic) transitive closure over region tuples. One AST covers the
//! whole family; evaluators reject the fragments they do not support.

use lcdb_logic::{Atom, LinExpr, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A region variable name (`R`, `X`, `Y`, … in the paper).
pub type RegionVar = String;

/// A set variable name (`M` in the paper), holding sets of region tuples.
pub type SetVar = String;

pub use lcdb_plan::FixMode;

/// A formula of the region logic family.
///
/// Children below a negation, a quantifier or an operator body are held
/// through `Arc`, so a formula may be a DAG: a clone copies the top layer
/// down to its `Arc`s, and [`crate::compile`] lowers each shared child once.
/// `Display`, `Eq`, `Hash` and the tree queries below still walk the whole
/// tree, and on a DAG that is the unfolded tree, exponential in its depth:
/// do not call them on a heavily shared formula.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RegFormula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// A linear constraint over element variables.
    Lin(Atom),
    /// Database relation applied to element terms: `S(t̄)`.
    Pred(String, Vec<LinExpr>),
    /// Containment `t̄ ∈ R` between a point and a region.
    In(Vec<LinExpr>, RegionVar),
    /// Region adjacency `adj(R, R')`.
    Adj(RegionVar, RegionVar),
    /// Region equality `R = R'`.
    RegionEq(RegionVar, RegionVar),
    /// `R ⊆ T` for a database relation `T` (the paper's `R ⊆ S`; definable
    /// in RegFO, provided as a primitive).
    SubsetOf(RegionVar, String),
    /// `dim(R) = k` (first-order definable by [21; 22; 2]; primitive here).
    DimEq(RegionVar, usize),
    /// Is the region bounded (definable; primitive here).
    Bounded(RegionVar),
    /// Conjunction.
    And(Vec<RegFormula>),
    /// Disjunction.
    Or(Vec<RegFormula>),
    /// Negation.
    Not(Arc<RegFormula>),
    /// `∃x` over the reals.
    ExistsElem(Var, Arc<RegFormula>),
    /// `∀x` over the reals.
    ForallElem(Var, Arc<RegFormula>),
    /// `∃R` over the regions.
    ExistsRegion(RegionVar, Arc<RegFormula>),
    /// `∀R` over the regions.
    ForallRegion(RegionVar, Arc<RegFormula>),
    /// Set-variable application `M R₁ … R_k`.
    SetApp(SetVar, Vec<RegionVar>),
    /// Fixed-point operator `[FP_{M, X̄} φ](R̄)`.
    Fix {
        /// LFP, IFP, or PFP semantics.
        mode: FixMode,
        /// The set variable `M` bound by the operator.
        set_var: SetVar,
        /// The tuple variables `X̄` bound in the body.
        vars: Vec<RegionVar>,
        /// The body `φ(M, X̄)`; must have no free element variables.
        body: Arc<RegFormula>,
        /// The argument regions `R̄` tested against the fixed point.
        args: Vec<RegionVar>,
    },
    /// The `rBIT` operator `[rBIT φ](R_n, R_d)` (Definition 5.1): if
    /// `φ(x, P̄)` is satisfied by exactly one rational `a`, relate the
    /// 0-dimensional regions indexing the set bits of `a`'s numerator and
    /// denominator (with the `a = 0` diagonal case on higher-dim regions).
    Rbit {
        /// The free element variable of the body.
        var: Var,
        /// The body `φ(x, P̄)`.
        body: Arc<RegFormula>,
        /// Region variable tested against the numerator bits.
        rn: RegionVar,
        /// Region variable tested against the denominator bits.
        rd: RegionVar,
    },
    /// Transitive closure `[TC_{R̄,R̄'} φ](X̄, Ȳ)`; `deterministic` selects
    /// DTC (only unique `φ`-successors are followed).
    Tc {
        /// DTC if true, TC otherwise.
        deterministic: bool,
        /// Bound left tuple `R̄`.
        left: Vec<RegionVar>,
        /// Bound right tuple `R̄'`.
        right: Vec<RegionVar>,
        /// The step formula `φ(R̄, R̄')`; no free element variables.
        body: Arc<RegFormula>,
        /// Source tuple `X̄`.
        arg_left: Vec<RegionVar>,
        /// Target tuple `Ȳ`.
        arg_right: Vec<RegionVar>,
    },
}

impl RegFormula {
    /// Smart conjunction (flattens, short-circuits).
    pub fn and(parts: Vec<RegFormula>) -> RegFormula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                RegFormula::True => {}
                RegFormula::False => return RegFormula::False,
                RegFormula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => RegFormula::True,
            1 => out.pop().expect("len checked: exactly one part"),
            _ => RegFormula::And(out),
        }
    }

    /// Smart disjunction.
    pub fn or(parts: Vec<RegFormula>) -> RegFormula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                RegFormula::False => {}
                RegFormula::True => return RegFormula::True,
                RegFormula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => RegFormula::False,
            1 => out.pop().expect("len checked: exactly one part"),
            _ => RegFormula::Or(out),
        }
    }

    /// Smart negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: RegFormula) -> RegFormula {
        match f {
            RegFormula::True => RegFormula::False,
            RegFormula::False => RegFormula::True,
            RegFormula::Not(inner) => Arc::try_unwrap(inner).unwrap_or_else(|f| (*f).clone()),
            other => RegFormula::Not(Arc::new(other)),
        }
    }

    /// Implication `self → other`.
    pub fn implies(self, other: RegFormula) -> RegFormula {
        RegFormula::or(vec![RegFormula::not(self), other])
    }

    /// `∃R` convenience constructor.
    pub fn exists_region(v: impl Into<RegionVar>, body: RegFormula) -> RegFormula {
        RegFormula::ExistsRegion(v.into(), Arc::new(body))
    }

    /// `∀R` convenience constructor.
    pub fn forall_region(v: impl Into<RegionVar>, body: RegFormula) -> RegFormula {
        RegFormula::ForallRegion(v.into(), Arc::new(body))
    }

    /// `∃x` convenience constructor.
    pub fn exists_elem(v: impl Into<Var>, body: RegFormula) -> RegFormula {
        RegFormula::ExistsElem(v.into(), Arc::new(body))
    }

    /// `∀x` convenience constructor.
    pub fn forall_elem(v: impl Into<Var>, body: RegFormula) -> RegFormula {
        RegFormula::ForallElem(v.into(), Arc::new(body))
    }

    /// Free set variables.
    pub fn free_set_vars(&self) -> BTreeSet<SetVar> {
        match self {
            RegFormula::SetApp(m, _) => [m.clone()].into(),
            RegFormula::And(fs) | RegFormula::Or(fs) => {
                fs.iter().flat_map(|f| f.free_set_vars()).collect()
            }
            RegFormula::Not(f)
            | RegFormula::ExistsElem(_, f)
            | RegFormula::ForallElem(_, f)
            | RegFormula::ExistsRegion(_, f)
            | RegFormula::ForallRegion(_, f) => f.free_set_vars(),
            RegFormula::Fix { set_var, body, .. } => {
                let mut s = body.free_set_vars();
                s.remove(set_var);
                s
            }
            RegFormula::Rbit { body, .. } | RegFormula::Tc { body, .. } => body.free_set_vars(),
            _ => BTreeSet::new(),
        }
    }

    /// Syntactic positivity of a set variable: every free occurrence is under
    /// an even number of negations. Required for LFP (Definition 5.1).
    pub fn positive_in(&self, m: &str) -> bool {
        self.polarity_check(m, true)
    }

    fn polarity_check(&self, m: &str, positive: bool) -> bool {
        match self {
            RegFormula::SetApp(name, _) if name == m => positive,
            RegFormula::And(fs) | RegFormula::Or(fs) => {
                fs.iter().all(|f| f.polarity_check(m, positive))
            }
            RegFormula::Not(f) => f.polarity_check(m, !positive),
            RegFormula::ExistsElem(_, f)
            | RegFormula::ForallElem(_, f)
            | RegFormula::ExistsRegion(_, f)
            | RegFormula::ForallRegion(_, f) => f.polarity_check(m, positive),
            RegFormula::Fix { set_var, body, .. } => {
                if set_var == m {
                    true // shadowed
                } else {
                    body.polarity_check(m, positive)
                }
            }
            RegFormula::Rbit { body, .. } | RegFormula::Tc { body, .. } => {
                // Conservative: occurrences under these operators must not
                // depend on polarity (require absence).
                !body.free_set_vars().contains(m)
            }
            _ => true,
        }
    }

    /// Does the formula use fixed-point, rBIT, or TC operators? (False means
    /// the formula is plain `RegFO`.)
    pub fn is_regfo(&self) -> bool {
        match self {
            RegFormula::SetApp(..) | RegFormula::Fix { .. } | RegFormula::Rbit { .. }
            | RegFormula::Tc { .. } => false,
            RegFormula::And(fs) | RegFormula::Or(fs) => fs.iter().all(|f| f.is_regfo()),
            RegFormula::Not(f)
            | RegFormula::ExistsElem(_, f)
            | RegFormula::ForallElem(_, f)
            | RegFormula::ExistsRegion(_, f)
            | RegFormula::ForallRegion(_, f) => f.is_regfo(),
            _ => true,
        }
    }
}

impl fmt::Display for RegFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegFormula::True => write!(f, "true"),
            RegFormula::False => write!(f, "false"),
            RegFormula::Lin(a) => write!(f, "{}", a),
            RegFormula::Pred(name, args) => {
                write!(f, "{}(", name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                write!(f, ")")
            }
            RegFormula::In(args, r) => {
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                write!(f, ") in {}", r)
            }
            RegFormula::Adj(a, b) => write!(f, "adj({}, {})", a, b),
            RegFormula::RegionEq(a, b) => write!(f, "{} = {}", a, b),
            RegFormula::SubsetOf(r, s) => write!(f, "{} subset {}", r, s),
            RegFormula::DimEq(r, k) => write!(f, "dim({}) = {}", r, k),
            RegFormula::Bounded(r) => write!(f, "bounded({})", r),
            RegFormula::And(fs) => {
                write!(f, "(")?;
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{}", sub)?;
                }
                write!(f, ")")
            }
            RegFormula::Or(fs) => {
                write!(f, "(")?;
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{}", sub)?;
                }
                write!(f, ")")
            }
            RegFormula::Not(inner) => write!(f, "not {}", inner),
            RegFormula::ExistsElem(v, inner) => write!(f, "exists {}. {}", v, inner),
            RegFormula::ForallElem(v, inner) => write!(f, "forall {}. {}", v, inner),
            RegFormula::ExistsRegion(v, inner) => write!(f, "existsR {}. {}", v, inner),
            RegFormula::ForallRegion(v, inner) => write!(f, "forallR {}. {}", v, inner),
            RegFormula::SetApp(m, vars) => write!(f, "{} {}", m, vars.join(" ")),
            RegFormula::Fix {
                mode,
                set_var,
                vars,
                body,
                args,
            } => {
                let op = match mode {
                    FixMode::Lfp => "LFP",
                    FixMode::Ifp => "IFP",
                    FixMode::Pfp => "PFP",
                };
                write!(
                    f,
                    "[{}_{{{}, {}}} {}]({})",
                    op,
                    set_var,
                    vars.join(", "),
                    body,
                    args.join(", ")
                )
            }
            RegFormula::Rbit { var, body, rn, rd } => {
                write!(f, "[rBIT_{} {}]({}, {})", var, body, rn, rd)
            }
            RegFormula::Tc {
                deterministic,
                left,
                right,
                body,
                arg_left,
                arg_right,
            } => {
                write!(
                    f,
                    "[{}_{{{}; {}}} {}]({}; {})",
                    if *deterministic { "DTC" } else { "TC" },
                    left.join(", "),
                    right.join(", "),
                    body,
                    arg_left.join(", "),
                    arg_right.join(", ")
                )
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn setapp(m: &str, vars: &[&str]) -> RegFormula {
        RegFormula::SetApp(m.into(), vars.iter().map(|v| v.to_string()).collect())
    }

    /// Free variables are facts of the compiled plan.
    fn free_region_vars(f: &RegFormula) -> Vec<String> {
        let (plan, root) = crate::lower::compile(f);
        plan.facts(root).free_regions.to_vec()
    }

    #[test]
    fn smart_constructors() {
        assert_eq!(RegFormula::and(vec![]), RegFormula::True);
        assert_eq!(RegFormula::or(vec![]), RegFormula::False);
        assert_eq!(
            RegFormula::and(vec![RegFormula::False, setapp("M", &["R"])]),
            RegFormula::False
        );
        assert_eq!(
            RegFormula::not(RegFormula::not(setapp("M", &["R"]))),
            setapp("M", &["R"])
        );
    }

    #[test]
    fn free_region_vars_binding() {
        let f = RegFormula::exists_region(
            "R",
            RegFormula::and(vec![
                RegFormula::Adj("R".into(), "Q".into()),
                RegFormula::Bounded("R".into()),
            ]),
        );
        assert_eq!(free_region_vars(&f), ["Q"]);
    }

    #[test]
    fn fix_binds_set_and_tuple_vars() {
        let f = RegFormula::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into(), "Y".into()],
            body: Arc::new(RegFormula::or(vec![
                RegFormula::RegionEq("X".into(), "Y".into()),
                setapp("M", &["X", "Y"]),
            ])),
            args: vec!["A".into(), "B".into()],
        };
        assert_eq!(free_region_vars(&f), ["A", "B"]);
        assert!(f.free_set_vars().is_empty());
        assert!(!f.is_regfo());
    }

    #[test]
    fn positivity() {
        let pos = RegFormula::or(vec![
            setapp("M", &["X"]),
            RegFormula::Bounded("X".into()),
        ]);
        assert!(pos.positive_in("M"));
        let neg = RegFormula::not(setapp("M", &["X"]));
        assert!(!neg.positive_in("M"));
        let double_neg = RegFormula::Not(Arc::new(RegFormula::Not(Arc::new(setapp(
            "M",
            &["X"],
        )))));
        assert!(double_neg.positive_in("M"));
        // Shadowing: inner Fix rebinds M.
        let shadowed = RegFormula::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: Arc::new(RegFormula::not(setapp("M", &["X"]))),
            args: vec!["A".into()],
        };
        assert!(shadowed.positive_in("M"));
        // Absence is positive.
        assert!(RegFormula::True.positive_in("M"));
    }

    #[test]
    fn display_shapes() {
        let f = RegFormula::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: Arc::new(setapp("M", &["X"])),
            args: vec!["R".into()],
        };
        assert_eq!(f.to_string(), "[LFP_{M, X} M X](R)");
        assert_eq!(
            RegFormula::Adj("A".into(), "B".into()).to_string(),
            "adj(A, B)"
        );
    }

    #[test]
    fn regfo_detection() {
        assert!(RegFormula::Adj("A".into(), "B".into()).is_regfo());
        assert!(!setapp("M", &["X"]).is_regfo());
        let nested = RegFormula::exists_region("R", setapp("M", &["R"]));
        assert!(!nested.is_regfo());
    }
}
