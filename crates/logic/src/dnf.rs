//! Disjunctive normal form for quantifier-free, predicate-free formulas.
//!
//! The paper requires database relations in DNF (§2); the quantifier
//! elimination of [`crate::qe`] also works disjunct by disjunct.
//!
//! Every converter shares one front end (`Interner`): the variable order
//! is fixed once per conversion, each distinct atom is interned once as its
//! sparse row in one arena, and negations are pushed to the atoms. What
//! keeps the conversions polynomial is that unsatisfiable disjuncts are
//! dropped as they arise; what keeps that cheap is that every live disjunct
//! is a `Cell` — a conjunct that carries a point satisfying it — so that
//! most feasibility questions are answered without a linear program.

use crate::expr::negations;
use crate::{Atom, Database, Formula, LinExpr, Relation, Var};
use lcdb_arith::Rational;
use lcdb_budget::work::{self, Work};
use lcdb_budget::BudgetError;
use lcdb_lp::{FeasibilityBatch, LinConstraint, Rel};
use std::cell::OnceCell;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// A conjunction of atoms.
pub type Conjunct = Vec<Atom>;

/// A formula in disjunctive normal form: a disjunction of conjunctions of
/// atoms. No disjuncts means *false*; an empty conjunct means *true*.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Dnf {
    /// The disjuncts.
    pub disjuncts: Vec<Conjunct>,
}

impl Dnf {
    /// The false DNF.
    pub fn falsity() -> Dnf {
        Dnf {
            disjuncts: Vec::new(),
        }
    }

    /// The true DNF.
    pub fn truth() -> Dnf {
        Dnf {
            disjuncts: vec![Vec::new()],
        }
    }

    /// Convert back into a [`Formula`].
    pub fn to_formula(&self) -> Formula {
        Formula::or(
            self.disjuncts
                .iter()
                .map(|c| Formula::and(c.iter().cloned().map(Formula::Atom).collect()))
                .collect(),
        )
    }

    /// Evaluate at a point.
    pub fn eval(&self, env: &BTreeMap<Var, Rational>) -> bool {
        self.disjuncts
            .iter()
            .any(|c| c.iter().all(|a| a.eval(env)))
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut s = BTreeSet::new();
        for a in self.disjuncts.iter().flatten() {
            note_vars(&a.expr, &mut s);
        }
        s
    }

    /// Is some disjunct satisfiable over the reals? (Exact, via LP.)
    pub fn is_satisfiable(&self) -> bool {
        self.disjuncts.iter().any(conjunct_satisfiable)
    }

    /// A satisfying point, if any, together with the variable order used.
    pub fn witness(&self) -> Option<(Vec<Var>, Vec<Rational>)> {
        let order: Vec<Var> = self.vars().into_iter().collect();
        for c in &self.disjuncts {
            let cons = conjunct_to_constraints(c, &order);
            if let Some(w) = lcdb_lp::feasible(order.len(), &cons) {
                return Some((order, w));
            }
        }
        None
    }

    /// Light simplification: canonicalize and deduplicate atoms, drop
    /// constant-true atoms, drop disjuncts with constant-false atoms, drop
    /// infeasible disjuncts, deduplicate disjuncts.
    pub fn simplify(&self) -> Dnf {
        let mut cells = Cells::from_dnf(self);
        work::deferred(|| cells.simplify());
        cells.into_dnf()
    }

    /// Strong simplification: [`Dnf::simplify`] plus removal of redundant
    /// atoms within each disjunct (an atom is redundant if the rest of the
    /// conjunct already implies it — decided exactly by LP: `rest ∧ ¬atom`
    /// must be unsatisfiable) and removal of disjuncts absorbed by another
    /// disjunct. Quadratic in the representation size but produces minimal,
    /// human-readable output formulas.
    pub fn simplify_strong(&self) -> Dnf {
        work::deferred(|| Cells::from_dnf(self).simplify_strong())
    }
}

/// Does conjunct `a` imply conjunct `b` (as point sets, `a ⊆ b`)?
pub fn conjunct_implies(a: &Conjunct, b: &Conjunct) -> bool {
    let mut vars = BTreeSet::new();
    for atom in a.iter().chain(b) {
        note_vars(&atom.expr, &mut vars);
    }
    let mut atoms = Interner::new(vars);
    let ids = |atoms: &mut Interner, c: &Conjunct| -> Vec<AtomId> {
        c.iter().map(|atom| atoms.intern(atom)).collect()
    };
    let (a, b) = (ids(&mut atoms, a), ids(&mut atoms, b));
    work::deferred(|| match atoms.extend(&atoms.root(), &a, None)? {
        Some(cell) => atoms.implies(&cell, &b),
        None => Ok(true),
    })
}

/// Is a single conjunct satisfiable over the reals?
pub fn conjunct_satisfiable(c: &Conjunct) -> bool {
    let mut vars = BTreeSet::new();
    for a in c {
        note_vars(&a.expr, &mut vars);
    }
    let order: Vec<Var> = vars.into_iter().collect();
    let cons = conjunct_to_constraints(c, &order);
    lcdb_lp::feasible(order.len(), &cons).is_some()
}

/// Translate a conjunct to LP constraints over an explicit variable order.
pub fn conjunct_to_constraints(c: &Conjunct, order: &[Var]) -> Vec<LinConstraint> {
    c.iter().map(|a| a.to_constraint(order)).collect()
}

/// Convert a quantifier-free, predicate-free formula to DNF.
///
/// Negations are pushed to the atoms first (`¬(e = 0)` splits into two
/// strict atoms), then conjunctions distribute over disjunctions. A formula
/// that already is an `Or` of conjunctions of atoms is read as it stands.
///
/// # Panics
/// Panics if the formula contains quantifiers or relation symbols.
pub fn to_dnf(f: &Formula) -> Dnf {
    if dnf_shaped(f) {
        read_dnf(f.clone())
    } else {
        to_dnf_interned(f)
    }
}

/// Is `f` an `Or` of (`And` of `Atom` | `Atom`), an `And` of atoms or an
/// atom?
pub(crate) fn dnf_shaped(f: &Formula) -> bool {
    let atom = |g: &Formula| matches!(g, Formula::Atom(_));
    let conjunct = |g: &Formula| match g {
        Formula::And(parts) => parts.iter().all(atom),
        g => atom(g),
    };
    match f {
        Formula::Or(parts) => parts.iter().all(conjunct),
        f => conjunct(f),
    }
}

/// The atoms of a [`dnf_shaped`] formula, moved out: what [`to_dnf_interned`]
/// makes of it, as an atom rebuilt from its row is itself (no zero
/// coefficient is stored).
pub(crate) fn read_dnf(f: Formula) -> Dnf {
    let atom = |g| if let Formula::Atom(a) = g { Some(a) } else { None };
    let conjunct = |g| match g {
        Formula::And(parts) => parts.into_iter().filter_map(atom).collect(),
        g => atom(g).into_iter().collect(),
    };
    let disjuncts = match f {
        Formula::Or(parts) => parts.into_iter().map(conjunct).collect(),
        f => vec![conjunct(f)],
    };
    Dnf { disjuncts }
}

/// [`to_dnf`] through the interner, whatever the formula's shape.
pub(crate) fn to_dnf_interned(f: &Formula) -> Dnf {
    let (atoms, nnf) = work::deferred(|| Interner::lower_formula(f, &Database::new(), false));
    Dnf {
        disjuncts: nnf.distribute().iter().map(|c| atoms.conjunct(c)).collect(),
    }
}

/// DNF conversion with *feasibility pruning*: partial conjuncts that are
/// unsatisfiable over the reals are discarded as soon as they arise, so the
/// number of live disjuncts never exceeds the number of realizable sign
/// cells of the formula's atoms. This is what keeps the quantifier
/// elimination underlying Theorem 4.3 polynomial in the database size — a
/// naive distribution of `⋀ᵢ ⋁ⱼ` shapes is exponential in the number of
/// clauses, almost all branches being empty cells.
///
/// A formula that already is an `Or` of conjunctions of atoms costs one
/// feasibility decision per disjunct.
///
/// Each feasibility decision is charged to the thread's work ledger; under
/// an armed budget a verdict waits for the caller's next charge.
pub fn to_dnf_pruned(f: &Formula) -> Dnf {
    work::deferred(|| try_to_dnf_pruned(f))
}

/// [`to_dnf_pruned`] under the thread's armed budget: a charge's verdict
/// abandons the conversion.
pub fn try_to_dnf_pruned(f: &Formula) -> Result<Dnf, BudgetError> {
    Ok(Cells::convert(f, &Database::new(), false, Strategy::Pruned)?.into_dnf())
}

/// `to_dnf_pruned(f).simplify_strong()` under the thread's armed budget, on
/// one list of cells: no disjunct is decided twice. The redundancy and
/// absorption passes charge their implications' decisions too.
pub fn try_to_dnf_strong(f: &Formula) -> Result<Dnf, BudgetError> {
    Cells::convert(f, &Database::new(), false, Strategy::Pruned)?.simplify_strong()
}

/// DNF conversion by *cell enumeration*: compute the canonical hyperplanes of
/// all atoms in the formula, enumerate the realizable sign cells of their
/// arrangement (in the spirit of §3 of the paper), and keep the cells whose
/// witness point satisfies the formula. Every atom has constant sign on every
/// cell, so witness evaluation is exact.
///
/// The disjunct count is bounded by the number of faces of the atom
/// arrangement — `O(m^k)` for `m` hyperplanes and `k` variables — which is
/// *independent of the formula's boolean structure*. Use this instead of
/// [`to_dnf_pruned`] for deeply redundant formulas (e.g. the expansions of
/// region quantifiers), where path-based distribution explodes even with
/// feasibility pruning.
pub fn to_dnf_cells(f: &Formula) -> Dnf {
    work::deferred(|| Cells::convert(f, &Database::new(), false, Strategy::SignCells)).into_dnf()
}

/// Adaptive DNF conversion. A formula that cannot blow up — structural
/// estimate ≤ 32, or an `Or` of conjunctions already — is plainly
/// distributed (like [`to_dnf`]). Otherwise the bounds of the other two
/// converters are compared: pruned distribution produces at most as many
/// disjuncts as the structural estimate, cell enumeration at most `mᵏ` for
/// `m` distinct hyperplanes in `k` variables; cells are enumerated only
/// when `mᵏ` is the smaller.
pub fn to_dnf_auto(f: &Formula) -> Dnf {
    work::deferred(|| Cells::convert(f, &Database::new(), false, Strategy::Auto)).into_dnf()
}

/// How [`Cells::convert`] turns a formula into cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Strategy {
    /// Feasibility-pruned distribution ([`to_dnf_pruned`]).
    Pruned,
    /// Sign-cell enumeration ([`to_dnf_cells`]).
    SignCells,
    /// The choice of [`to_dnf_auto`]; a plainly distributed conjunct stays
    /// undecided until [`Cells::simplify`].
    Auto,
}

/// Saturation point of [`Nnf::estimate`].
const ESTIMATE_CAP: usize = 1 << 20;

fn note_vars(expr: &LinExpr, out: &mut BTreeSet<Var>) {
    for (v, _) in expr.terms() {
        if !out.contains(v) {
            out.insert(v.clone());
        }
    }
}

/// The applications of relation symbols that are not [`renaming`]s, by the
/// address of their `Pred` node: each is expanded once, for its variables
/// and its atoms alike.
type Applied = HashMap<*const Formula, Formula>;

/// The variables of `f`'s atoms, a relation symbol's those of its
/// application over `db`, which is kept in `applied` unless a renaming
/// gives it.
fn formula_vars(f: &Formula, db: &Database, applied: &mut Applied, out: &mut BTreeSet<Var>) {
    match f {
        Formula::Atom(a) => note_vars(&a.expr, out),
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter().for_each(|g| formula_vars(g, db, applied, out))
        }
        Formula::Not(g) => formula_vars(g, db, applied, out),
        Formula::Pred(name, args) => {
            let rel = relation(db, name);
            match renaming(rel, args) {
                Some(renaming) => {
                    let used = renaming.into_iter().zip(&rel.rows().used);
                    for (arg, _) in used.filter(|(_, &used)| used) {
                        if !out.contains(arg) {
                            out.insert(arg.clone());
                        }
                    }
                }
                None => {
                    let expansion = rel.apply(args);
                    formula_vars(&expansion, db, applied, out);
                    applied.insert(f, expansion);
                }
            }
        }
        _ => {}
    }
}

/// The relation `name` of `db`.
///
/// # Panics
/// Panics if `db` has no relation of that name.
fn relation<'a>(db: &'a Database, name: &str) -> &'a Relation {
    db.relation(name).unwrap_or_else(|| panic!("unknown relation '{name}'"))
}

/// The argument of each designated variable of `rel`, in the head's order,
/// when `rel(args)` is a renaming of the stored DNF: every argument a
/// distinct bare variable, every stored atom over designated variables only
/// ([`StoredRows`]), and the relation not constant
/// ([`Relation::constant_truth`]). Then an atom of the application is the
/// stored row with its coefficients moved to their arguments' columns, and
/// its nesting is that of the stored disjuncts.
fn renaming<'a>(rel: &Relation, args: &'a [LinExpr]) -> Option<Vec<&'a Var>> {
    if args.len() != rel.arity() || rel.constant_truth().is_some() {
        return None;
    }
    let mut out: Vec<&Var> = Vec::with_capacity(args.len());
    for arg in args {
        let arg = arg.as_var()?;
        if out.contains(&arg) {
            return None;
        }
        out.push(arg);
    }
    rel.rows().designated.then_some(out)
}

/// Where a relation's stored atoms put their coefficients: for each term
/// of each atom, its column (the position of its variable in the head).
/// With the atoms' own coefficients, each is a sparse row over the
/// relation's columns, which lowering a [`renaming`] of the relation moves
/// to the arguments' columns. Built once per relation ([`Relation::rows`]).
#[derive(Clone)]
pub(crate) struct StoredRows {
    /// The column of every term, atom after atom, disjunct after disjunct.
    columns: Vec<usize>,
    /// Per atom, the end of its columns.
    ends: Vec<usize>,
    /// The columns some stored atom mentions.
    used: Vec<bool>,
    /// Does every stored atom mention designated variables only? Nothing
    /// else is filled in when one does not.
    designated: bool,
}

impl StoredRows {
    pub(crate) fn new(var_names: &[Var], dnf: &Dnf) -> StoredRows {
        let mut out = StoredRows {
            columns: Vec::new(),
            ends: Vec::new(),
            used: vec![false; var_names.len()],
            designated: true,
        };
        for a in dnf.disjuncts.iter().flatten() {
            for (v, _) in a.expr.terms() {
                let Some(k) = var_names.iter().position(|x| x == v) else {
                    out.designated = false;
                    return out;
                };
                out.used[k] = true;
                out.columns.push(k);
            }
            out.ends.push(out.columns.len());
        }
        out
    }

    /// The columns of stored atom `i`'s terms.
    fn columns(&self, i: usize) -> &[usize] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.columns[start..self.ends[i]]
    }
}

#[cfg(test)]
thread_local! {
    /// Test-side switch: decide by single-variable box and LP alone (no
    /// sweep, no point), the conversion the shortcuts must agree with.
    static LP_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Always, outside this crate's own tests.
fn propagating() -> bool {
    #[cfg(test)]
    return !LP_ONLY.with(std::cell::Cell::get);
    #[cfg(not(test))]
    true
}

/// Index of an atom in its [`Interner`].
type AtomId = usize;

/// A formula in negation normal form over interned atoms.
enum Nnf {
    /// A conjunction of atoms (*true* when empty).
    Run(Vec<AtomId>),
    /// A conjunction; adjacent runs are merged and nested `And`s flattened.
    And(Vec<Nnf>),
    /// A disjunction (*false* when empty); nested `Or`s are flattened.
    Or(Vec<Nnf>),
}

impl Nnf {
    fn and(parts: Vec<Nnf>) -> Nnf {
        let mut out: Vec<Nnf> = Vec::with_capacity(parts.len());
        let mut push = |part: Nnf| match (out.last_mut(), part) {
            (Some(Nnf::Run(run)), Nnf::Run(more)) => run.extend(more),
            (_, part) => out.push(part),
        };
        for part in parts {
            match part {
                Nnf::And(inner) => inner.into_iter().for_each(&mut push),
                other => push(other),
            }
        }
        if out
            .iter()
            .any(|p| matches!(p, Nnf::Or(alts) if alts.is_empty()))
        {
            return Nnf::Or(Vec::new());
        }
        match out.len() {
            0 => Nnf::Run(Vec::new()),
            1 => out.remove(0),
            _ => Nnf::And(out),
        }
    }

    fn or(parts: Vec<Nnf>) -> Nnf {
        let mut out = Vec::with_capacity(parts.len());
        for part in parts {
            match part {
                Nnf::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            return out.remove(0);
        }
        Nnf::Or(out)
    }

    /// The number of disjuncts [`Nnf::distribute`] produces, saturating at
    /// [`ESTIMATE_CAP`].
    fn estimate(&self) -> usize {
        match self {
            Nnf::Run(_) => 1,
            Nnf::And(parts) => parts.iter().fold(1usize, |n, p| {
                n.saturating_mul(p.estimate()).min(ESTIMATE_CAP)
            }),
            Nnf::Or(parts) => parts.iter().fold(0usize, |n, p| {
                n.saturating_add(p.estimate()).min(ESTIMATE_CAP)
            }),
        }
    }

    /// Is this an `Or` of conjunctions of atoms already?
    fn is_dnf(&self) -> bool {
        match self {
            Nnf::Run(_) => true,
            Nnf::And(_) => false,
            Nnf::Or(parts) => parts.iter().all(|p| matches!(p, Nnf::Run(_))),
        }
    }

    /// Plain distribution of conjunctions over disjunctions.
    fn distribute(&self) -> Vec<Vec<AtomId>> {
        match self {
            Nnf::Run(run) => vec![run.clone()],
            Nnf::Or(parts) => parts.iter().flat_map(Nnf::distribute).collect(),
            Nnf::And(parts) => {
                let mut acc = vec![Vec::new()];
                for part in parts {
                    let right = part.distribute();
                    let mut next = Vec::with_capacity(acc.len() * right.len());
                    for left in &acc {
                        for r in &right {
                            next.push(left.iter().chain(r).copied().collect());
                        }
                    }
                    acc = next;
                }
                acc
            }
        }
    }

    /// Truth at a point given in the interner's variable order.
    fn holds(&self, atoms: &Interner, point: &[Rational]) -> bool {
        match self {
            Nnf::Run(run) => run.iter().all(|&id| atoms.row(id).satisfied_by(point)),
            Nnf::And(parts) => parts.iter().all(|p| p.holds(atoms, point)),
            Nnf::Or(parts) => parts.iter().any(|p| p.holds(atoms, point)),
        }
    }
}

/// One interned atom: the row `Σᵢ coeffs[i]·x[support[i]] rel rhs` over
/// the interner's variable order, `i` in `start..end` of its arena.
struct Entry {
    start: u32,
    end: u32,
    rel: Rel,
    /// The truth value of a variable-free atom.
    truth: Option<bool>,
    rhs: Rational,
    /// The atom itself, rebuilt from the row when first asked for: most
    /// atoms of a large conversion are only ever rows.
    atom: OnceCell<Box<Atom>>,
    /// The entry of [`Atom::canonicalize`], once asked for.
    canon: Option<AtomId>,
    /// The entry interned before this one under the same row hash.
    collision: Option<AtomId>,
}

/// An interned atom's row, read in place from the arena:
/// `Σᵢ coeffs[i]·x[support[i]] rel rhs`, its columns increasing and none of
/// its coefficients zero.
#[derive(Clone, Copy)]
struct Row<'a> {
    support: &'a [usize],
    coeffs: &'a [Rational],
    rel: Rel,
    rhs: &'a Rational,
}

impl Row<'_> {
    /// Does the point satisfy the row? (Exact: `LinConstraint::satisfied_by`
    /// over the support only.)
    fn satisfied_by(&self, point: &[Rational]) -> bool {
        let terms = self.support.iter().zip(self.coeffs).map(|(&k, c)| (c, &point[k]));
        let rhs = std::iter::once((self.rhs, &Rational::MINUS_ONE));
        self.rel.admits(Rational::dot_sign(terms.chain(rhs)))
    }

    /// The row as a linear program's constraint over `width` columns.
    fn constraint(&self, width: usize) -> LinConstraint {
        let mut coeffs = vec![Rational::ZERO; width];
        for (&k, c) in self.support.iter().zip(self.coeffs) {
            coeffs[k] = c.clone();
        }
        LinConstraint::new(coeffs, self.rel, self.rhs.clone())
    }
}

/// The hasher of [`Interner::ids`], whose keys are row hashes already:
/// SipHash under the interner's random keys, so a row crafted in client
/// text cannot aim at a bucket.
#[derive(Default)]
struct RowHash(u64);

impl Hasher for RowHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the keys of the row index are row hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The front end of every conversion: a variable order fixed once, and each
/// distinct atom stored once with everything later steps ask of it. The
/// rows live in one arena, so interning an atom allocates nothing.
struct Interner {
    order: Vec<Var>,
    /// Every entry's row: its columns and their non-zero coefficients,
    /// entry after entry; a row being interned is on the end.
    support: Vec<usize>,
    coeffs: Vec<Rational>,
    entries: Vec<Entry>,
    /// The last entry of each row hash, hashed once by `state`.
    ids: HashMap<u64, AtomId, BuildHasherDefault<RowHash>>,
    state: RandomState,
}

/// An interval of the real line; `true` marks a strict end.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Interval {
    /// The lower end, if there is one.
    pub lo: Option<(Rational, bool)>,
    /// The upper end, if there is one.
    pub hi: Option<(Rational, bool)>,
}

impl Interval {
    /// Is `x` inside?
    pub fn contains(&self, x: &Rational) -> bool {
        let above = |(lo, strict): &(Rational, bool)| x > lo || (x == lo && !strict);
        let below = |(hi, strict): &(Rational, bool)| x < hi || (x == hi && !strict);
        self.lo.as_ref().is_none_or(above) && self.hi.as_ref().is_none_or(below)
    }

    /// Intersect with `x ≤ value` (`≥` unless `upper`; `<`, `>` if `strict`);
    /// `false` once nothing is left.
    fn tighten(&mut self, upper: bool, value: Rational, strict: bool) -> bool {
        let end = if upper { &mut self.hi } else { &mut self.lo };
        let tighter = end.as_ref().is_none_or(|(old, old_strict)| {
            (if upper { value < *old } else { value > *old })
                || (value == *old && strict && !old_strict)
        });
        if tighter {
            *end = Some((value, strict));
        }
        match (&self.lo, &self.hi) {
            (Some((lo, lo_strict)), Some((hi, hi_strict))) => {
                lo < hi || (lo == hi && !lo_strict && !hi_strict)
            }
            _ => true,
        }
    }
}

/// How often the rows of one feasibility decision are swept. Rows are read
/// in order, so one sweep already carries a bound along a chain that runs
/// with the order; the second carries it back. Measured: of the 16 242
/// infeasible systems of `tests/propagation_oracle.rs`, sweeps 1, 2, 3, 4, 8
/// refute 14 093, 14 551, 14 632, 14 662, 14 679 — the second is the knee,
/// and the tail never closes (bounds can converge without arriving, so a
/// loop to the fixpoint need not end); of the 2 289 infeasible systems that
/// used to reach the simplex in a `qe_alibi` batch they refute 2 011, 2 015,
/// 2 029, 2 029.
const SWEEPS: usize = 2;

/// Exact bound propagation: tighten `bounds` by what each row of `rows`
/// implies, [`SWEEPS`] times over. `false` means the rows have no common
/// point inside `bounds`; `true` decides nothing, and `bounds` then still
/// contains every such point.
fn sweep<'a>(rows: impl Iterator<Item = Row<'a>> + Clone, bounds: &mut [Interval]) -> bool {
    (0..SWEEPS).all(|_| rows.clone().all(|row| tighten(bounds, row)))
}

/// The bound propagation that runs in front of every LP of a conversion, on
/// plain rows: `false` means the rows have no common point inside `bounds`
/// (exactly — an LP would say the same); otherwise `bounds`, tightened,
/// still holds every such point. The entry the test-side oracle judges.
pub fn propagate(rows: &[&LinConstraint], bounds: &mut [Interval]) -> bool {
    let sparse: Vec<(Vec<usize>, Vec<Rational>)> = rows
        .iter()
        .map(|row| {
            let nonzero = row.coeffs.iter().enumerate().filter(|(_, c)| !c.is_zero());
            nonzero.map(|(k, c)| (k, c.clone())).unzip()
        })
        .collect();
    let rows = rows.iter().zip(&sparse).map(|(row, (support, coeffs))| Row {
        support,
        coeffs,
        rel: row.rel,
        rhs: &row.rhs,
    });
    sweep(rows, bounds)
}

/// Intersect `bounds` with what one row says about each variable of its
/// support, given the bounds of the others; `false` once an interval is
/// empty. Read as `Σ aₖxₖ ≤ b` (`≥` from the other side, `=` from both):
/// with every other `aₖxₖ` at the finite end that makes it smallest,
/// `aⱼxⱼ ≤ b − Σₖ≠ⱼ inf(aₖxₖ)` bounds `xⱼ`, strictly if the row is strict or
/// one of those ends is not attained. When every variable has that end the
/// bound empties `xⱼ`'s interval exactly if `Σ inf > b` (or `= b`, strictly),
/// so refuting the row inside the box and tightening the box are one step,
/// and a single-variable row is the case without others.
fn tighten(bounds: &mut [Interval], row: Row) -> bool {
    let sides: &[bool] = match row.rel {
        Rel::Lt | Rel::Le => &[false],
        Rel::Gt | Rel::Ge => &[true],
        Rel::Eq => &[false, true],
    };
    let terms = || row.support.iter().copied().zip(row.coeffs);
    sides.iter().all(|&above| {
        terms().all(|(j, a_j)| {
            let mut rest = row.rhs.clone();
            let mut strict = row.rel.is_strict();
            for (k, a) in terms().filter(|&(k, _)| k != j) {
                let interval = &bounds[k];
                let end = if a.is_negative() == above { &interval.lo } else { &interval.hi };
                let Some((value, open)) = end else {
                    return true;
                };
                rest -= &(a * value);
                strict |= open;
            }
            bounds[j].tighten(above == a_j.is_negative(), &rest / a_j, strict)
        })
    })
}

/// A conjunct of interned atoms with what is known about its points: a
/// witness satisfying every atom — `None` only for a conjunct of a plain
/// distribution, which waits for its one feasibility decision until
/// [`Cells::simplify`] — and a box containing all of them (tightened by the
/// single-variable atoms the cell was extended with and, where a linear
/// program decided it, by the propagation that ran in front of it).
#[derive(Clone)]
struct Cell {
    atoms: Vec<AtomId>,
    witness: Option<Vec<Rational>>,
    bounds: Vec<Interval>,
}

impl Cell {
    fn new(
        interner: &Interner,
        atoms: Vec<AtomId>,
        witness: Option<Vec<Rational>>,
        bounds: Vec<Interval>,
    ) -> Cell {
        debug_assert!(
            witness
                .iter()
                .all(|point| atoms.iter().all(|&id| interner.row(id).satisfied_by(point))),
            "cell witness violates one of its atoms"
        );
        debug_assert!(
            witness
                .iter()
                .all(|point| bounds.iter().zip(point).all(|(b, x)| b.contains(x))),
            "cell witness lies outside the cell's box"
        );
        Cell {
            atoms,
            witness,
            bounds,
        }
    }
}

impl Interner {
    fn new(vars: BTreeSet<Var>) -> Interner {
        Interner {
            order: vars.into_iter().collect(),
            support: Vec::new(),
            coeffs: Vec::new(),
            entries: Vec::new(),
            ids: HashMap::default(),
            state: RandomState::new(),
        }
    }

    /// Intern `(¬)f`'s atoms and push its negations to them. A relation
    /// symbol is read from `db`: from its stored atoms as rows where its
    /// application is a [`renaming`], and through [`Relation::apply`]
    /// otherwise — to the same order, atom ids and [`Nnf`] either way.
    /// Each stored disjunct read as rows is charged to the thread's work
    /// ledger (`logic.rows_lowered`, one unit a row) before it is lowered.
    ///
    /// # Panics
    /// Panics if the formula contains quantifiers, or relation symbols that
    /// `db` lacks or that are applied with the wrong arity.
    fn lower_formula(
        f: &Formula,
        db: &Database,
        negated: bool,
    ) -> Result<(Interner, Nnf), BudgetError> {
        let (mut applied, mut vars) = (Applied::new(), BTreeSet::new());
        formula_vars(f, db, &mut applied, &mut vars);
        let mut atoms = Interner::new(vars);
        let nnf = atoms.lower(f, db, &applied, negated)?;
        Ok((atoms, nnf))
    }

    fn lower(
        &mut self,
        f: &Formula,
        db: &Database,
        applied: &Applied,
        negated: bool,
    ) -> Result<Nnf, BudgetError> {
        Ok(match f {
            Formula::True | Formula::False => {
                if matches!(f, Formula::True) != negated {
                    Nnf::Run(Vec::new())
                } else {
                    Nnf::Or(Vec::new())
                }
            }
            Formula::Atom(a) if negated => Nnf::or(
                a.negate()
                    .iter()
                    .map(|n| Nnf::Run(vec![self.intern(n)]))
                    .collect(),
            ),
            Formula::Atom(a) => Nnf::Run(vec![self.intern(a)]),
            Formula::Not(inner) => self.lower(inner, db, applied, !negated)?,
            Formula::And(fs) | Formula::Or(fs) => {
                let parts = fs.iter().map(|g| self.lower(g, db, applied, negated));
                let parts = parts.collect::<Result<_, _>>()?;
                if matches!(f, Formula::And(_)) != negated {
                    Nnf::and(parts)
                } else {
                    Nnf::or(parts)
                }
            }
            Formula::Exists(..) | Formula::Forall(..) => {
                panic!("DNF conversion requires a quantifier-free formula")
            }
            Formula::Pred(name, args) => {
                let rel = relation(db, name);
                let Some(renaming) = renaming(rel, args) else {
                    work::add(Work::QePredApplied, 1);
                    return self.lower(&applied[&(f as *const Formula)], db, applied, negated);
                };
                work::add(Work::QePredRows, 1);
                let column = |arg| self.order.binary_search(arg).unwrap_or(usize::MAX);
                let columns: Vec<usize> = renaming.into_iter().map(column).collect();
                let (rows, disjuncts) = (rel.rows(), &rel.dnf().disjuncts);
                // Nested as lowering the `Or` of `And`s that `apply` builds
                // would nest it, negated: `¬⋁ⱼ⋀ₖ aⱼₖ` as `⋀ⱼ⋁ₖ ¬aⱼₖ`.
                let mut parts = Vec::with_capacity(disjuncts.len());
                let mut first = 0;
                for conjunct in disjuncts {
                    work::charge(Work::RowsLowered, conjunct.len() as u64)?;
                    let atoms = conjunct.iter().zip(first..);
                    first += conjunct.len();
                    let mut row = |a, i, rel| self.intern_stored(a, rel, rows.columns(i), &columns);
                    parts.push(match negated {
                        false => Nnf::Run(atoms.map(|(a, i)| row(a, i, a.rel)).collect()),
                        true => {
                            let mut runs = Vec::new();
                            for (a, i) in atoms {
                                for &rel in negations(a.rel) {
                                    runs.push(Nnf::Run(vec![row(a, i, rel)]));
                                }
                            }
                            Nnf::or(runs)
                        }
                    });
                }
                if negated {
                    Nnf::and(parts)
                } else {
                    Nnf::or(parts)
                }
            }
        })
    }

    fn intern(&mut self, atom: &Atom) -> AtomId {
        let start = self.support.len();
        for (v, c) in atom.expr.terms() {
            if let (Ok(k), false) = (self.order.binary_search(v), c.is_zero()) {
                self.support.push(k);
                self.coeffs.push(c.clone());
            }
        }
        self.commit(start, atom.rel, -atom.expr.constant_term().clone())
    }

    /// Intern the stored atom `a` with relation `rel`, each coefficient in
    /// the column `columns` gives its relation column (`stored`), as `apply`
    /// and [`Interner::intern`] would intern the renamed atom.
    fn intern_stored(&mut self, a: &Atom, rel: Rel, stored: &[usize], columns: &[usize]) -> AtomId {
        let start = self.support.len();
        for ((_, c), &k) in a.expr.terms().zip(stored).filter(|((_, c), _)| !c.is_zero()) {
            // Into place among the columns already on the end: at most an
            // arity's worth of them.
            let column = columns[k];
            let mut at = self.support.len();
            self.support.push(column);
            self.coeffs.push(c.clone());
            while at > start && self.support[at - 1] > column {
                self.support.swap(at - 1, at);
                self.coeffs.swap(at - 1, at);
                at -= 1;
            }
        }
        self.commit(start, rel, -a.expr.constant_term().clone())
    }

    /// The entry of the row on the end of the arena from `start`, with
    /// relation `rel` and right-hand side `rhs`: a known one (and the end
    /// taken off again) or a new one.
    fn commit(&mut self, start: usize, rel: Rel, rhs: Rational) -> AtomId {
        let (support, coeffs) = (&self.support[start..], &self.coeffs[start..]);
        let hash = self.hash(Row { support, coeffs, rel, rhs: &rhs });
        let head = self.ids.get(&hash).copied();
        let mut known = head;
        while let Some(id) = known {
            let e = &self.entries[id];
            let span = e.start as usize..e.end as usize;
            if e.rel == rel
                && e.rhs == rhs
                && self.support[span.clone()] == *support
                && self.coeffs[span] == *coeffs
            {
                self.support.truncate(start);
                self.coeffs.truncate(start);
                return id;
            }
            known = e.collision;
        }
        let id = self.entries.len();
        let end = self.support.len();
        let offset = |k: usize| u32::try_from(k).expect("an arena of fewer than 2³² terms");
        self.entries.push(Entry {
            truth: (start == end).then(|| rel.admits(rhs.sign().flip())),
            start: offset(start),
            end: offset(end),
            rel,
            rhs,
            atom: OnceCell::new(),
            canon: None,
            collision: head,
        });
        self.ids.insert(hash, id);
        id
    }

    /// The key of a row in [`Interner::ids`].
    fn hash(&self, row: Row) -> u64 {
        self.state.hash_one((row.rel, row.rhs, row.support, row.coeffs))
    }

    /// The row of an entry, read in place.
    fn row(&self, id: AtomId) -> Row<'_> {
        let Entry { start, end, rel, ref rhs, .. } = self.entries[id];
        let span = start as usize..end as usize;
        Row {
            support: &self.support[span.clone()],
            coeffs: &self.coeffs[span],
            rel,
            rhs,
        }
    }

    /// The row of an entry as a linear program's constraint.
    fn constraint(&self, id: AtomId) -> LinConstraint {
        self.row(id).constraint(self.order.len())
    }

    fn atom(&self, id: AtomId) -> &Atom {
        self.entries[id].atom.get_or_init(|| {
            let row = self.row(id);
            let terms = row.support.iter().zip(row.coeffs);
            Box::new(Atom {
                expr: LinExpr::from_terms(
                    terms.map(|(&k, c)| (self.order[k].clone(), c.clone())),
                    -row.rhs.clone(),
                ),
                rel: row.rel,
            })
        })
    }

    /// The entry of the atom's canonical form (computed once per atom).
    fn canonical(&mut self, id: AtomId) -> AtomId {
        if let Some(canon) = self.entries[id].canon {
            return canon;
        }
        let canon = self.intern(&self.atom(id).canonicalize());
        self.entries[canon].canon = Some(canon);
        self.entries[id].canon = Some(canon);
        canon
    }

    /// Canonicalize and deduplicate the atoms of a conjunct and drop the
    /// constant-true ones; `None` if one is constant-false.
    fn normalize(&mut self, atoms: &[AtomId]) -> Option<Vec<AtomId>> {
        let mut out = Vec::with_capacity(atoms.len());
        for &id in atoms {
            let id = self.canonical(id);
            match self.entries[id].truth {
                Some(true) => {}
                Some(false) => return None,
                None if out.contains(&id) => {}
                None => out.push(id),
            }
        }
        Some(out)
    }

    fn conjunct(&self, atoms: &[AtomId]) -> Conjunct {
        atoms.iter().map(|&id| self.atom(id).clone()).collect()
    }

    /// The box of a conjunct without single-variable atoms: all of space.
    fn unbounded(&self) -> Vec<Interval> {
        vec![Interval::default(); self.order.len()]
    }

    /// The cell of the empty conjunct.
    fn root(&self) -> Cell {
        Cell {
            atoms: Vec::new(),
            witness: Some(vec![Rational::zero(); self.order.len()]),
            bounds: self.unbounded(),
        }
    }

    /// A conjunct whose feasibility decision is still to come.
    fn undecided(&self, atoms: Vec<AtomId>) -> Cell {
        Cell {
            atoms,
            witness: None,
            bounds: self.unbounded(),
        }
    }

    /// The rows of `ids`: the single-variable ones, or the others.
    fn rows<'a>(
        &'a self,
        ids: &'a [AtomId],
        single: bool,
    ) -> impl Iterator<Item = Row<'a>> + Clone {
        let rows = ids.iter().map(|&id| self.row(id));
        rows.filter(move |row| (row.support.len() == 1) == single)
    }

    /// The one feasibility decision: is `partial ∧ run` satisfiable, and at
    /// which point? Cheapest test first — constant atoms, the partial's own
    /// witness (if it has one), the interval box of the single-variable
    /// atoms, and only for what those leave undecided: exact bound
    /// propagation through the multi-variable rows ([`sweep`]), a point of the
    /// propagated box ([`Interner::probe`]), then an exact LP over borrowed
    /// rows. Propagation only refutes an infeasible system and the point only
    /// accepts a feasible one, so verdicts are the LP's alone (witnesses may
    /// differ). Sibling extensions of one partial (`warm`) share a
    /// [`FeasibilityBatch`] over its rows, built at the first that needs one.
    fn extend(
        &self,
        partial: &Cell,
        run: &[AtomId],
        warm: Option<&mut Option<FeasibilityBatch>>,
    ) -> Result<Option<Cell>, BudgetError> {
        work::charge(Work::DnfDecisions, 1)?;
        let mut fresh = Vec::with_capacity(run.len());
        for &id in run {
            match self.entries[id].truth {
                Some(true) => {}
                Some(false) => return Ok(None),
                None => fresh.push(id),
            }
        }
        let holds = partial
            .witness
            .as_ref()
            .is_some_and(|point| fresh.iter().all(|&id| self.row(id).satisfied_by(point)));
        let mut bounds = partial.bounds.clone();
        let boxed = self.rows(&fresh, true).all(|row| tighten(&mut bounds, row));
        let witness = if holds {
            work::add(Work::DnfWitnessHits, 1);
            partial.witness.clone()
        } else if !boxed
            || (propagating()
                && !sweep(
                    self.rows(&fresh, false).chain(self.rows(&partial.atoms, false)),
                    &mut bounds,
                ))
        {
            work::add(Work::DnfBoxRefuted, 1);
            return Ok(None);
        } else if let Some(point) = self.probe(partial, &fresh, &bounds) {
            work::add(Work::DnfPointHits, 1);
            Some(point)
        } else {
            work::add(Work::DnfLpDecided, 1);
            // The only rows built as `LinConstraint`s: those an LP reads.
            let d = self.order.len();
            let constraints = |ids: &[AtomId]| -> Vec<LinConstraint> {
                ids.iter().map(|&id| self.constraint(id)).collect()
            };
            let point = match warm {
                Some(batch) => batch
                    .get_or_insert_with(|| {
                        FeasibilityBatch::new(d, &constraints(&partial.atoms).iter().collect::<Vec<_>>())
                    })
                    .probe_all(&constraints(&fresh).iter().collect::<Vec<_>>()),
                None => lcdb_lp::feasible(d, &constraints(&[&partial.atoms[..], &fresh].concat())),
            };
            let Some(point) = point else {
                return Ok(None);
            };
            Some(point)
        };
        let atoms = partial.atoms.iter().copied().chain(fresh).collect();
        Ok(Some(Cell::new(self, atoms, witness, bounds)))
    }

    /// One point of `bounds` (per coordinate the midpoint, one inside a lone
    /// end, or else the partial's witness coordinate or 0) if it satisfies
    /// every row of `partial` and of `run`, checked exactly.
    fn probe(&self, partial: &Cell, run: &[AtomId], bounds: &[Interval]) -> Option<Vec<Rational>> {
        let point: Vec<Rational> = bounds.iter().enumerate().map(|(k, b)| match (&b.lo, &b.hi) {
            (Some((lo, _)), Some((hi, _))) => Rational::midpoint(lo, hi),
            (Some((lo, _)), None) => lo + &Rational::ONE,
            (None, Some((hi, _))) => hi - &Rational::ONE,
            (None, None) => partial.witness.as_ref().map_or(Rational::ZERO, |w| w[k].clone()),
        }).collect();
        let holds = |&id: &AtomId| self.row(id).satisfied_by(&point);
        (propagating() && partial.atoms.iter().chain(run).all(holds)).then_some(point)
    }

    /// All satisfiable disjuncts of `partial ∧ nnf`, in the order plain
    /// distribution lists them. A partial is extended by a whole run of
    /// atoms per feasibility decision, and is dropped the moment it becomes
    /// unsatisfiable.
    fn dist(&self, nnf: &Nnf, partial: Cell) -> Result<Vec<Cell>, BudgetError> {
        Ok(match nnf {
            Nnf::Run(run) => self.extend(&partial, run, None)?.into_iter().collect(),
            Nnf::And(parts) => {
                let mut acc = vec![partial];
                for part in parts {
                    let mut next = Vec::new();
                    for cell in acc {
                        next.extend(self.dist(part, cell)?);
                    }
                    acc = next;
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Nnf::Or(parts) => {
                let mut warm = None;
                let mut out = Vec::new();
                for part in parts {
                    match part {
                        Nnf::Run(run) => out.extend(self.extend(&partial, run, Some(&mut warm))?),
                        other => out.extend(self.dist(other, partial.clone())?),
                    }
                }
                out
            }
        })
    }

    /// The distinct hyperplanes of the interned atoms, each as its
    /// canonical expression, in order of first occurrence; the search stops
    /// once `enough` of them are known.
    fn hyperplanes(&self, enough: impl Fn(usize) -> bool) -> Vec<LinExpr> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for id in (0..self.entries.len()).filter(|&id| self.entries[id].truth.is_none()) {
            if enough(out.len()) {
                break;
            }
            let plane = Atom {
                expr: self.atom(id).expr.clone(),
                rel: Rel::Eq,
            }
            .canonicalize()
            .expr;
            if seen.insert(plane.clone()) {
                out.push(plane);
            }
        }
        out
    }

    /// The realizable sign cells of `planes` on which `nnf` holds: the
    /// pruned distribution of `⋀ₕ (h < 0 ∨ h = 0 ∨ h > 0)`, filtered at
    /// the witnesses (every atom has constant sign on every cell).
    fn sign_cells(&mut self, nnf: &Nnf, planes: Vec<LinExpr>) -> Result<Vec<Cell>, BudgetError> {
        let arrangement = Nnf::And(
            planes
                .into_iter()
                .map(|expr| {
                    let sign = |rel| Atom {
                        expr: expr.clone(),
                        rel,
                    };
                    Nnf::Or(
                        [Rel::Lt, Rel::Eq, Rel::Gt]
                            .iter()
                            .map(|&rel| Nnf::Run(vec![self.intern(&sign(rel))]))
                            .collect(),
                    )
                })
                .collect(),
        );
        let mut cells = self.dist(&arrangement, self.root())?;
        cells.retain(|cell| {
            let point = cell
                .witness
                .as_ref()
                .expect("distribution decides every cell");
            nnf.holds(self, point)
        });
        Ok(cells)
    }

    /// Does every point of `cell` satisfy every atom of `atoms`? Exact: the
    /// cell's witness refutes most non-inclusions, the rest ask whether
    /// `cell ∧ ¬atom` is satisfiable for some branch of the negation.
    fn implies(&mut self, cell: &Cell, atoms: &[AtomId]) -> Result<bool, BudgetError> {
        for &id in atoms {
            let refuted = cell
                .witness
                .as_ref()
                .is_some_and(|point| !self.row(id).satisfied_by(point));
            if refuted {
                return Ok(false);
            }
            for negated in self.atom(id).negate() {
                let negated = self.intern(&negated);
                if self.extend(cell, &[negated], None)?.is_some() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// A DNF whose disjuncts are [`Cell`]s over one [`Interner`]: the working
/// form of quantifier elimination. A disjunct known satisfiable stays known
/// satisfiable through a projection (the witness of `C` minus the
/// eliminated coordinate is a witness of `∃x. C`).
pub(crate) struct Cells {
    atoms: Interner,
    cells: Vec<Cell>,
}

impl Cells {
    /// The satisfiable disjuncts of `(¬)f`.
    ///
    /// # Panics
    /// Panics if the formula contains quantifiers or relation symbols.
    pub(crate) fn convert(
        f: &Formula,
        db: &Database,
        negated: bool,
        strategy: Strategy,
    ) -> Result<Cells, BudgetError> {
        let (mut atoms, nnf) = Interner::lower_formula(f, db, negated)?;
        let estimate = nnf.estimate();
        let dimension = u32::try_from(atoms.order.len()).unwrap_or(u32::MAX);
        let outgrown = |planes: usize| planes.saturating_pow(dimension) >= estimate;
        let planes = match strategy {
            Strategy::Pruned => None,
            Strategy::SignCells => Some(atoms.hyperplanes(|_| false)),
            Strategy::Auto if estimate <= 32 || nnf.is_dnf() => {
                // Nothing to prune: each conjunct waits for `simplify`.
                let cells = nnf.distribute().into_iter();
                let cells = cells.map(|conjunct| atoms.undecided(conjunct)).collect();
                return Ok(Cells { atoms, cells });
            }
            Strategy::Auto => {
                let planes = atoms.hyperplanes(outgrown);
                (!outgrown(planes.len())).then_some(planes)
            }
        };
        let cells = match planes {
            Some(planes) => atoms.sign_cells(&nnf, planes)?,
            None => atoms.dist(&nnf, atoms.root())?,
        };
        Ok(Cells { atoms, cells })
    }

    /// The disjuncts of a DNF as they are, undecided.
    pub(crate) fn from_dnf(dnf: &Dnf) -> Cells {
        let mut atoms = Interner::new(dnf.vars());
        let cells = dnf
            .disjuncts
            .iter()
            .map(|conjunct| {
                let ids = conjunct.iter().map(|a| atoms.intern(a)).collect();
                atoms.undecided(ids)
            })
            .collect();
        Cells { atoms, cells }
    }

    pub(crate) fn into_dnf(self) -> Dnf {
        Dnf {
            disjuncts: self
                .cells
                .iter()
                .map(|cell| self.atoms.conjunct(&cell.atoms))
                .collect(),
        }
    }

    /// Replace, in every cell, the atoms mentioning `var` by what `combine`
    /// makes of them — a conjunction equivalent to their `∃ var` — and
    /// simplify. A cell that has a witness keeps it, so no LP runs for it.
    pub(crate) fn project(
        &mut self,
        var: &str,
        combine: impl Fn(&[&Atom]) -> Vec<Atom>,
    ) -> Result<(), BudgetError> {
        if let Some(position) = self.atoms.order.iter().position(|v| v == var) {
            for cell in &mut self.cells {
                let atoms = &self.atoms;
                let (with_var, mut rest): (Vec<AtomId>, Vec<AtomId>) = cell
                    .atoms
                    .iter()
                    .partition(|&&id| atoms.row(id).support.binary_search(&position).is_ok());
                if with_var.is_empty() {
                    continue;
                }
                let with_var: Vec<&Atom> = with_var.iter().map(|&id| self.atoms.atom(id)).collect();
                let combined = combine(&with_var);
                rest.extend(combined.iter().map(|atom| self.atoms.intern(atom)));
                cell.atoms = rest;
                cell.bounds[position] = Interval::default();
            }
        }
        self.simplify()
    }

    /// [`Dnf::simplify`] on cells; the one place an undecided cell is decided.
    pub(crate) fn simplify(&mut self) -> Result<(), BudgetError> {
        let mut seen = HashSet::new();
        for mut cell in std::mem::take(&mut self.cells) {
            let Some(atoms) = self.atoms.normalize(&cell.atoms) else {
                continue;
            };
            if !seen.insert(atoms.clone()) {
                continue;
            }
            if cell.witness.is_some() {
                cell.atoms = atoms;
                self.cells.push(cell);
            } else {
                let decided = self.atoms.extend(&self.atoms.root(), &atoms, None)?;
                self.cells.extend(decided);
            }
        }
        Ok(())
    }

    /// [`Dnf::simplify_strong`] on cells.
    fn simplify_strong(mut self) -> Result<Dnf, BudgetError> {
        self.simplify()?;
        self.drop_redundant_atoms()?;
        self.absorb()?;
        Ok(self.into_dnf())
    }

    /// Drop every atom the rest of its cell implies.
    fn drop_redundant_atoms(&mut self) -> Result<(), BudgetError> {
        let Cells { atoms, cells } = self;
        for cell in cells {
            let mut i = 0;
            while i < cell.atoms.len() {
                let atom = cell.atoms.remove(i);
                // The rest is a weaker conjunct: its box is not the cell's.
                let rest = Cell {
                    bounds: atoms.unbounded(),
                    ..cell.clone()
                };
                if !atoms.implies(&rest, &[atom])? {
                    cell.atoms.insert(i, atom);
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Drop every cell contained in another; of two equal cells the
    /// earlier stays.
    fn absorb(&mut self) -> Result<(), BudgetError> {
        let Cells { atoms, cells } = self;
        let mut keep = vec![true; cells.len()];
        for i in 0..cells.len() {
            for j in 0..cells.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if !atoms.implies(&cells[i], &cells[j].atoms)? {
                    continue;
                }
                if j > i && atoms.implies(&cells[j], &cells[i].atoms)? {
                    continue;
                }
                keep[i] = false;
                break;
            }
        }
        let mut keep = keep.into_iter();
        cells.retain(|_| keep.next().unwrap_or(true));
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::LinExpr;
    use lcdb_arith::int;
    use std::time::Duration;

    fn atom(var: &str, rel: Rel, c: i64) -> Formula {
        Formula::Atom(Atom::new(
            LinExpr::var(var),
            rel,
            LinExpr::constant(int(c)),
        ))
    }

    fn env(pairs: &[(&str, i64)]) -> BTreeMap<Var, Rational> {
        pairs
            .iter()
            .map(|&(v, val)| (v.to_string(), int(val)))
            .collect()
    }

    #[test]
    fn dnf_of_disjunction_of_conjunctions_is_identity_shape() {
        let f = Formula::or(vec![
            Formula::and(vec![atom("x", Rel::Gt, 0), atom("x", Rel::Lt, 1)]),
            atom("x", Rel::Eq, 5),
        ]);
        let d = to_dnf(&f);
        assert_eq!(d.disjuncts.len(), 2);
        assert_eq!(d.disjuncts[0].len(), 2);
        assert_eq!(d.disjuncts[1].len(), 1);
    }

    #[test]
    fn dnf_distributes() {
        // (a or b) and (c or d) has four disjuncts.
        let f = Formula::and(vec![
            Formula::or(vec![atom("x", Rel::Lt, 0), atom("x", Rel::Gt, 1)]),
            Formula::or(vec![atom("y", Rel::Lt, 0), atom("y", Rel::Gt, 1)]),
        ]);
        let d = to_dnf(&f);
        assert_eq!(d.disjuncts.len(), 4);
        for (vx, vy, expect) in [(-1, -1, true), (-1, 2, true), (0, 0, false), (2, 2, true)] {
            assert_eq!(d.eval(&env(&[("x", vx), ("y", vy)])), expect);
        }
    }

    #[test]
    fn negation_of_equality_splits() {
        let f = Formula::not(atom("x", Rel::Eq, 3));
        let d = to_dnf(&f);
        assert_eq!(d.disjuncts.len(), 2);
        assert!(d.eval(&env(&[("x", 2)])));
        assert!(d.eval(&env(&[("x", 4)])));
        assert!(!d.eval(&env(&[("x", 3)])));
    }

    #[test]
    fn de_morgan() {
        // not (x < 0 and y < 0) == x >= 0 or y >= 0.
        let f = Formula::not(Formula::and(vec![
            atom("x", Rel::Lt, 0),
            atom("y", Rel::Lt, 0),
        ]));
        let d = to_dnf(&f);
        assert!(d.eval(&env(&[("x", 1), ("y", -1)])));
        assert!(d.eval(&env(&[("x", -1), ("y", 1)])));
        assert!(!d.eval(&env(&[("x", -1), ("y", -1)])));
    }

    #[test]
    fn satisfiability_checks() {
        let sat = to_dnf(&Formula::and(vec![
            atom("x", Rel::Gt, 0),
            atom("x", Rel::Lt, 1),
        ]));
        assert!(sat.is_satisfiable());
        let unsat = to_dnf(&Formula::and(vec![
            atom("x", Rel::Lt, 0),
            atom("x", Rel::Gt, 0),
        ]));
        assert!(!unsat.is_satisfiable());
        let (order, w) = sat.witness().unwrap();
        assert_eq!(order, vec!["x".to_string()]);
        assert!(w[0] > int(0) && w[0] < int(1));
        assert!(unsat.witness().is_none());
    }

    #[test]
    fn simplify_prunes_and_dedups() {
        let f = Formula::or(vec![
            // Unsatisfiable disjunct.
            Formula::and(vec![atom("x", Rel::Lt, 0), atom("x", Rel::Gt, 1)]),
            // Two copies of the same satisfiable disjunct (different scaling).
            atom("x", Rel::Lt, 2),
            Formula::Atom(Atom::new(
                LinExpr::var("x").scale(&int(3)),
                Rel::Lt,
                LinExpr::constant(int(6)),
            )),
        ]);
        let d = to_dnf(&f).simplify();
        assert_eq!(d.disjuncts.len(), 1);
        assert_eq!(d.disjuncts[0].len(), 1);
    }

    #[test]
    fn simplify_strong_removes_redundant_atoms() {
        // x > 0 and x > 1 and x < 5 and x < 9: two atoms are redundant.
        let f = Formula::and(vec![
            atom("x", Rel::Gt, 0),
            atom("x", Rel::Gt, 1),
            atom("x", Rel::Lt, 5),
            atom("x", Rel::Lt, 9),
        ]);
        let d = to_dnf(&f).simplify_strong();
        assert_eq!(d.disjuncts.len(), 1);
        assert_eq!(d.disjuncts[0].len(), 2, "{:?}", d);
        // Semantics preserved.
        for v in [0i64, 1, 2, 5, 7, 10] {
            assert_eq!(
                d.eval(&env(&[("x", v)])),
                f.eval(&env(&[("x", v)])),
                "at {}",
                v
            );
        }
    }

    #[test]
    fn simplify_strong_absorbs_disjuncts() {
        // (0 < x < 5) or (1 < x < 2): the second is contained in the first.
        let f = Formula::or(vec![
            Formula::and(vec![atom("x", Rel::Gt, 0), atom("x", Rel::Lt, 5)]),
            Formula::and(vec![atom("x", Rel::Gt, 1), atom("x", Rel::Lt, 2)]),
        ]);
        let d = to_dnf(&f).simplify_strong();
        assert_eq!(d.disjuncts.len(), 1, "{:?}", d);
    }

    #[test]
    fn conjunct_implication() {
        let narrow = to_dnf(&Formula::and(vec![
            atom("x", Rel::Gt, 1),
            atom("x", Rel::Lt, 2),
        ]))
        .disjuncts[0]
            .clone();
        let wide = to_dnf(&Formula::and(vec![
            atom("x", Rel::Gt, 0),
            atom("x", Rel::Lt, 5),
        ]))
        .disjuncts[0]
            .clone();
        assert!(conjunct_implies(&narrow, &wide));
        assert!(!conjunct_implies(&wide, &narrow));
        assert!(conjunct_implies(&narrow, &narrow));
    }

    #[test]
    fn truth_and_falsity() {
        assert!(to_dnf(&Formula::True).eval(&BTreeMap::new()));
        assert!(!to_dnf(&Formula::False).eval(&BTreeMap::new()));
        assert!(to_dnf(&Formula::not(Formula::False)).eval(&BTreeMap::new()));
    }

    /// Differential tests of the witness-carrying conversion.
    mod differential {
        use super::super::{
            conjunct_satisfiable, dnf_shaped, sweep, tighten, to_dnf,
            to_dnf_interned, to_dnf_pruned, AtomId, Cells, Conjunct, Database, Dnf, Formula,
            Interner, StoredRows, Strategy as Conversion, LP_ONLY,
        };
        use crate::arb::{arb_atom, arb_formula};
        use crate::{Atom, LinExpr, Relation, Var};
        use lcdb_arith::{int, Rational};
        use lcdb_lp::LinConstraint;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// The interner before its arena, kept as the arena's oracle: each
        /// distinct dense row, by value, under the next id.
        #[derive(Default)]
        struct RowMap {
            ids: HashMap<LinConstraint, AtomId>,
            rows: Vec<LinConstraint>,
        }

        impl RowMap {
            fn intern(&mut self, row: LinConstraint) -> AtomId {
                let next = self.rows.len();
                *self.ids.entry(row).or_insert_with_key(|row| {
                    self.rows.push(row.clone());
                    next
                })
            }
        }

        /// Streams of atoms over `x`, `y`, `z` that come back: each is a
        /// fresh atom, or an earlier one as it was, with another constant,
        /// with another relation, with one coefficient set to or from zero,
        /// or without its variables.
        fn arb_stream() -> impl Strategy<Value = Vec<Atom>> {
            let step = (arb_atom(), 0..6usize, 0..64usize, 0..3usize);
            proptest::collection::vec(step, 1..40).prop_map(|steps| {
                let mut out: Vec<Atom> = Vec::new();
                for (fresh, kind, pick, var) in steps {
                    if out.is_empty() || kind == 0 {
                        out.push(fresh);
                        continue;
                    }
                    let Atom { expr, rel } = out[pick % out.len()].clone();
                    let (v, shift) = (["x", "y", "z"][var], LinExpr::constant(int(1)));
                    let toggled = match expr.coeff(v).is_zero() {
                        true => Rational::ONE,
                        false => -expr.coeff(v),
                    };
                    out.push(match kind {
                        1 => Atom { expr, rel },
                        2 => Atom { expr: expr.add(&shift), rel },
                        3 => Atom { expr, rel: fresh.rel },
                        4 => Atom { expr: expr.add(&LinExpr::var(v).scale(&toggled)), rel },
                        _ => Atom { expr: LinExpr::constant(expr.constant_term().clone()), rel },
                    });
                }
                out
            })
        }

        /// Relations over atoms in `x`, `y`, `z`, of every shape `apply`
        /// tells apart: no disjunct, an empty disjunct, `=` atoms, designated
        /// variables with zero coefficients, and heads `(x, y, z, w)` (`w`
        /// never used) or `(x, y, w, v)` (`z` not designated).
        fn arb_relation() -> impl Strategy<Value = Relation> {
            let conjunct = proptest::collection::vec(arb_atom(), 0..4);
            let disjuncts = proptest::collection::vec(conjunct, 0..4);
            (disjuncts, 0..4usize).prop_map(|(disjuncts, head)| {
                let head = if head == 0 { ["x", "y", "w", "v"] } else { ["x", "y", "z", "w"] };
                Relation::from_dnf(head.map(String::from).to_vec(), Dnf { disjuncts })
            })
        }

        /// Four arguments: distinct variables in any order, over the
        /// relation's own names and others, or such a list with a repeated
        /// variable, a constant or an affine term in one place.
        fn arb_args() -> impl Strategy<Value = Vec<LinExpr>> {
            (0..120usize, 0..8usize, 0..3usize, -2i64..=2).prop_map(|(pick, at, kind, k)| {
                let mut names = vec!["x", "y", "z", "u", "v"];
                let mut pick = pick;
                let mut args: Vec<LinExpr> = (0..4)
                    .map(|i| {
                        let name = names.remove(pick % (5 - i));
                        pick /= 5 - i;
                        LinExpr::var(name)
                    })
                    .collect();
                if at < 4 {
                    let other = args[(at + 1) % 4].clone();
                    args[at] = match kind {
                        0 => other,
                        1 => LinExpr::constant(int(k)),
                        _ => other.scale(&int(2)).add(&LinExpr::constant(int(k))),
                    };
                }
                args
            })
        }

        /// The reference simplification: canonical atoms, constants folded,
        /// and — unless the input is trusted to be pruned already — one plain
        /// LP per conjunct, with none of the cell shortcuts.
        fn reference(dnf: &Dnf, check: bool) -> Vec<Conjunct> {
            let mut out: Vec<Conjunct> = Vec::new();
            'conjunct: for c in &dnf.disjuncts {
                let mut atoms: Conjunct = Vec::new();
                for a in c {
                    let a = a.canonicalize();
                    match a.constant_truth() {
                        Some(true) => continue,
                        Some(false) => continue 'conjunct,
                        None if atoms.contains(&a) => {}
                        None => atoms.push(a),
                    }
                }
                if (!check || conjunct_satisfiable(&atoms)) && !out.contains(&atoms) {
                    out.push(atoms);
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Witness test, interval box and warm probes decide exactly what a
            /// plain LP per conjunct decides, in the same order.
            #[test]
            fn pruned_conversion_matches_lp_per_conjunct(f in arb_formula(24)) {
                let expect = reference(&to_dnf(&f), true);
                prop_assert_eq!(reference(&to_dnf_pruned(&f), false), expect.clone());
                prop_assert_eq!(to_dnf(&f).simplify().disjuncts, expect);
            }

            /// Every cell any strategy produces carries a point of itself.
            #[test]
            fn cell_witnesses_satisfy_their_atoms(f in arb_formula(24), negated in 0..2usize) {
                for strategy in [Conversion::Pruned, Conversion::SignCells, Conversion::Auto] {
                    let db = Database::new();
                    let mut cells = Cells::convert(&f, &db, negated == 1, strategy).unwrap();
                    // Under `Auto` a small formula is plainly distributed and
                    // its conjuncts are decided here.
                    cells.simplify().unwrap();
                    for cell in &cells.cells {
                        let point = cell.witness.as_ref().expect("decided by now");
                        for &id in &cell.atoms {
                            prop_assert!(cells.atoms.row(id).satisfied_by(point));
                        }
                    }
                }
            }

            /// An empty interval box means an infeasible conjunct — after the
            /// single-variable rows and after the sweeps alike —, a feasible
            /// one keeps its witness inside the box, and the whole decision
            /// agrees with the LP.
            #[test]
            fn box_rejects_only_infeasible_conjuncts(
                conjunct in proptest::collection::vec(arb_atom(), 1..7),
            ) {
                let vars = ["x", "y", "z"].iter().map(|v| v.to_string()).collect();
                let mut atoms = Interner::new(vars);
                let ids: Vec<AtomId> = conjunct.iter().map(|a| atoms.intern(a)).collect();
                let live: Vec<AtomId> =
                    ids.iter().copied().filter(|&id| atoms.entries[id].truth.is_none()).collect();
                let mut bounds = atoms.unbounded();
                let boxed = atoms
                    .rows(&live, true)
                    .all(|row| tighten(&mut bounds, row))
                    && sweep(atoms.rows(&live, false), &mut bounds);
                let feasible = conjunct_satisfiable(&conjunct);
                prop_assert!(boxed || !feasible, "box rejected a feasible conjunct");
                let decided = atoms.extend(&atoms.root(), &ids, None).unwrap();
                prop_assert_eq!(decided.is_some(), feasible);
                if let (true, Some(point)) = (boxed, decided.and_then(|cell| cell.witness)) {
                    prop_assert!(bounds.iter().zip(&point).all(|(b, x)| b.contains(x)));
                }
            }

            /// Propagation and the point change no verdict, no order and no
            /// atom: the conversion equals the one that decides by box and LP
            /// alone. A cell the point decided keeps that point rather than
            /// the LP's, so witnesses are compared by what they must be — a
            /// point of the cell's rows inside the cell's box — not by value.
            #[test]
            fn propagated_conversion_equals_lp_only(f in arb_formula(24), negated in 0..2usize) {
                let convert = |lp_only: bool| {
                    LP_ONLY.with(|flag| flag.set(lp_only));
                    let db = Database::new();
                    let cells = Cells::convert(&f, &db, negated == 1, Conversion::Pruned).unwrap();
                    LP_ONLY.with(|flag| flag.set(false));
                    for cell in &cells.cells {
                        let point = cell.witness.as_ref().expect("pruned cells are decided");
                        for &id in &cell.atoms {
                            assert!(cells.atoms.row(id).satisfied_by(point));
                        }
                        assert!(cell.bounds.iter().zip(point).all(|(b, x)| b.contains(x)));
                    }
                    cells.into_dnf()
                };
                prop_assert_eq!(convert(false), convert(true));
            }

            /// A relation symbol lowered over its database — from its stored
            /// rows when the arguments rename it, through `apply` otherwise —
            /// gives what lowering its application gives: the same variable
            /// order, the same rows under the same ids, the same `Nnf`, alone
            /// or beside other atoms, in either polarity.
            #[test]
            fn a_relation_lowers_from_rows_as_its_application(
                rel in arb_relation(),
                args in arb_args(),
                g in arb_formula(8),
                shape in 0..3usize,
                negated in 0..2usize,
            ) {
                // Built as they stand: the smart constructors would fold a
                // constant application, and the symbol is no constant.
                let in_context = |r: Formula| match shape {
                    0 => r,
                    1 => Formula::And(vec![g.clone(), r]),
                    _ => Formula::Or(vec![r, Formula::Not(Box::new(g.clone()))]),
                };
                let lowered = |f: &Formula, db: &Database| {
                    let (atoms, nnf) = Interner::lower_formula(f, db, negated == 1).unwrap();
                    let rows: Vec<_> = (0..atoms.entries.len())
                        .map(|id| (atoms.constraint(id), atoms.entries[id].truth))
                        .collect();
                    (atoms.order, rows, nnf.distribute())
                };
                let mut db = Database::new();
                db.insert("R", rel.clone());
                let pred = Formula::Pred("R".into(), args.clone());
                let want = lowered(&in_context(rel.apply(&args)), &Database::new());
                prop_assert_eq!(lowered(&in_context(pred), &db), want);
            }

            /// Reading a DNF-shaped formula as it stands gives what the
            /// interner makes of it, and any other shape still goes there.
            #[test]
            fn read_dnf_equals_the_interner(f in arb_formula(24), shaped in 0..2usize) {
                let f = if shaped == 1 { to_dnf_interned(&f).to_formula() } else { f };
                let constant = matches!(f, Formula::True | Formula::False);
                prop_assert!(shaped == 0 || constant || dnf_shaped(&f));
                prop_assert_eq!(to_dnf(&f), to_dnf_interned(&f));
            }

            /// The arena interns what a map from dense rows to ids interns —
            /// the same ids, rows, supports and truth values —, whether an
            /// atom comes as itself or as the stored row of a relation over
            /// `(z, x, y)` renamed to its own variables, and rebuilds each
            /// atom as it came.
            #[test]
            fn the_arena_interner_agrees_with_a_map_of_rows(
                stream in arb_stream(),
                routes in proptest::collection::vec(any::<bool>(), 40),
            ) {
                let vars = ["x", "y", "z"].iter().map(|v| v.to_string()).collect();
                let mut atoms = Interner::new(vars);
                let mut reference = RowMap::default();
                let head: Vec<Var> = ["z", "x", "y"].map(String::from).to_vec();
                let mut first: Vec<Atom> = Vec::new();
                for (a, stored) in stream.iter().zip(routes) {
                    let id = if stored {
                        let rows = StoredRows::new(&head, &Dnf { disjuncts: vec![vec![a.clone()]] });
                        atoms.intern_stored(a, a.rel, rows.columns(0), &[2, 0, 1])
                    } else {
                        atoms.intern(a)
                    };
                    prop_assert_eq!(id, reference.intern(a.to_constraint(&atoms.order)));
                    if id == first.len() {
                        first.push(a.clone());
                    }
                }
                prop_assert_eq!(atoms.entries.len(), reference.rows.len());
                for (id, row) in reference.rows.iter().enumerate() {
                    prop_assert_eq!(&atoms.constraint(id), row);
                    let support: Vec<usize> =
                        (0..row.coeffs.len()).filter(|&k| !row.coeffs[k].is_zero()).collect();
                    prop_assert_eq!(atoms.row(id).support, &support[..]);
                    let truth = support.is_empty().then(|| row.satisfied_by(&vec![Rational::ZERO; row.coeffs.len()]));
                    prop_assert_eq!(atoms.entries[id].truth, truth);
                    prop_assert_eq!(atoms.atom(id), &first[id]);
                }
            }
        }
    }

    #[test]
    fn dnf_shaped_input_is_distributed_whatever_its_size() {
        // 40 overlapping intervals: 79 hyperplanes-to-the-1 would undercut no
        // estimate, but 40 disjuncts over 2 distinct planes would.
        let f = Formula::or(
            (0..40)
                .map(|_| Formula::and(vec![atom("x", Rel::Gt, 0), atom("x", Rel::Lt, 1)]))
                .collect(),
        );
        assert_eq!(to_dnf_auto(&f).disjuncts.len(), 40);
        assert_eq!(to_dnf_auto(&f), to_dnf(&f));
    }

    #[test]
    fn auto_enumerates_cells_only_when_they_are_fewer() {
        let interval =
            |v: &str, k: i64| Formula::or(vec![atom(v, Rel::Lt, k), atom(v, Rel::Gt, k + 1)]);
        // 2⁶ = 64 structural disjuncts over 12 planes on one line: cells.
        let line = Formula::and((0..6).map(|k| interval("x", 3 * k)).collect());
        assert_eq!(to_dnf_auto(&line), to_dnf_cells(&line));
        // The same estimate over three variables (12³ cells): distribution.
        let space = Formula::and(
            (0..6)
                .map(|k| interval(["x", "y", "z"][k as usize % 3], 3 * k))
                .collect(),
        );
        assert_eq!(to_dnf_auto(&space), to_dnf_pruned(&space));
        assert_ne!(to_dnf_auto(&space), to_dnf_cells(&space));
    }

    /// Two rows under one hash are told apart by their slices: the entry
    /// interned later heads the chain, and a lookup walks past it.
    #[test]
    fn rows_under_one_hash_stay_apart() {
        let mut atoms = Interner::new(["x".to_string()].into());
        let lt = |k| Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::constant(int(k)));
        let (a, b) = (atoms.intern(&lt(0)), atoms.intern(&lt(1)));
        // Make `a`'s hash lead to `b` first, as a collision would.
        let hash = atoms.hash(atoms.row(a));
        atoms.ids.insert(hash, b);
        atoms.entries[b].collision = Some(a);
        assert_eq!((atoms.intern(&lt(0)), atoms.intern(&lt(1))), (a, b));
        assert_eq!((atoms.entries.len(), atoms.support.len()), (2, 2));
    }

    /// Arm a budget whose clock trips the budget at the `n`-th charge from
    /// now (`1 ≤ n ≤ PERIOD`): its deadline has passed, and the clock is
    /// next read `n` units into the period.
    fn tripping_at(n: u64) -> work::Armed {
        let budget = lcdb_budget::EvalBudget::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let armed = work::arm(&budget, [0, 0]);
        work::charge(Work::NodeVisits, work::PERIOD - n).unwrap();
        armed
    }

    /// The decisions `stage` charges, and what came of it.
    fn decided<T>(stage: impl FnOnce() -> Result<T, BudgetError>) -> (Result<T, BudgetError>, u64) {
        let before = work::snapshot();
        let out = stage();
        (out, before.since()[Work::DnfDecisions])
    }

    #[test]
    fn conversion_polls_once_per_decision_and_stops_on_error() {
        let f = Formula::and(
            (0..6)
                .map(|k| Formula::or(vec![atom("x", Rel::Lt, k), atom("y", Rel::Gt, k)]))
                .collect(),
        );
        let (full, decisions) = decided(|| try_to_dnf_pruned(&f));
        assert_eq!(full, Ok(to_dnf_pruned(&f)));
        assert!(decisions >= 12, "decided {decisions} times");
        let _armed = tripping_at(6);
        let (cut, decisions) = decided(|| try_to_dnf_pruned(&f));
        assert!(matches!(cut, Err(BudgetError::DeadlineExceeded { .. })), "{cut:?}");
        assert_eq!(decisions, 6, "no decision after the one that tripped the budget");
    }

    #[test]
    fn strong_simplification_polls_in_both_of_its_passes() {
        let f = Formula::and(
            (0..3)
                .map(|k| Formula::or(vec![atom("x", Rel::Lt, k), atom("y", Rel::Gt, k)]))
                .collect(),
        );
        // How many decisions each stage charges when nothing interrupts it.
        let (cells, convert) = decided(|| Cells::convert(&f, &Database::new(), false, Strategy::Pruned));
        let mut cells = cells.unwrap();
        let (_, simplification) = decided(|| cells.simplify());
        let (_, redundancy) = decided(|| cells.drop_redundant_atoms());
        let (_, absorption) = decided(|| cells.absorb());
        assert!(redundancy > 0 && absorption > 0);
        assert_eq!(cells.into_dnf(), to_dnf_pruned(&f).simplify_strong());

        let convert = convert + simplification;
        let cut_after = |allowed: u64| {
            let _armed = tripping_at(allowed + 1);
            let (out, decisions) = decided(|| try_to_dnf_strong(&f));
            (out.map_err(|_| "interrupted"), decisions)
        };
        // The conversion completes and the redundancy pass is interrupted at
        // its first implication, then at its last; so is absorption.
        for allowed in [
            convert,
            convert + redundancy - 1,
            convert + redundancy,
            convert + redundancy + absorption - 1,
        ] {
            assert_eq!(cut_after(allowed), (Err("interrupted"), allowed + 1));
        }
        let all = convert + redundancy + absorption;
        assert_eq!(cut_after(all), (Ok(to_dnf_pruned(&f).simplify_strong()), all));
    }

    /// `n` space-time prisms (beads of speed 1, four time units each) along a
    /// fixed walk from `start`, as source text.
    fn prisms(n: usize, start: (i64, i64)) -> Vec<String> {
        const STEPS: [(i64, i64); 6] = [(1, 2), (-2, 1), (2, -1), (0, -2), (-1, 0), (2, 1)];
        let (mut x0, mut y0) = start;
        let mut prisms = Vec::new();
        for (i, (dx, dy)) in STEPS.iter().cycle().take(n).enumerate() {
            let (t0, t1) = (4 * i as i64, 4 * i as i64 + 4);
            let (x1, y1) = (x0 + dx, y0 + dy);
            prisms.push(format!(
                "({t0} <= t and t <= {t1} \
                 and {} <= t + x and t + x <= {} and t - x <= {} and {} <= t - x \
                 and {} <= t + y and t + y <= {} and t - y <= {} and {} <= t - y)",
                x0 + t0,
                x1 + t1,
                t1 - x1,
                t0 - x0,
                y0 + t0,
                y1 + t1,
                t1 - y1,
                t0 - y0,
            ));
            (x0, y0) = (x1, y1);
        }
        prisms
    }

    /// `¬A ∨ box` for `A` a union of `n` space-time prisms along a fixed walk
    /// (the matrix of the benchmark's containment sentence).
    fn outside_prisms_or_in_box(n: usize) -> Formula {
        let source = format!(
            "not ({}) or (-8 <= x and x <= 8 and -8 <= y and y <= 8)",
            prisms(n, (0, 0)).join(" or ")
        );
        crate::parse_formula(&source).unwrap()
    }

    /// The centre of a bead's propagated box lies in the bead, so a union of
    /// beads (none through the origin, the root's witness) is decided one
    /// point per bead and without a linear program.
    #[test]
    fn a_bead_is_decided_at_the_centre_of_its_box() {
        let union = crate::parse_formula(&prisms(8, (1, 1)).join(" or ")).unwrap();
        let before = work::snapshot();
        let db = Database::new();
        let cells = Cells::convert(&union, &db, false, Strategy::Pruned).unwrap();
        let spent = before.since();
        assert_eq!(cells.cells.len(), 8);
        assert_eq!(spent[Work::DnfPointHits], 8);
        assert_eq!(spent[Work::DnfLpDecided], 0);
        for cell in &cells.cells {
            let centre = cell.bounds.iter().map(|b| match (&b.lo, &b.hi) {
                (Some((lo, _)), Some((hi, _))) => Rational::midpoint(lo, hi),
                _ => panic!("a bead's box is bounded"),
            });
            assert_eq!(cell.witness, Some(centre.collect()));
        }
    }

    /// Benchmark hazard 2: pruned distribution walks the choice *paths* of
    /// `⋀ᵢ ¬prismᵢ`, ten atoms to a prism, and they outnumber the non-empty
    /// cells by orders of magnitude from six prisms on. What bounds the
    /// conversion (and the memory of its partial disjuncts) is its charge.
    #[test]
    fn negated_prism_union_stops_at_its_poll() {
        let decisions = |n: usize, allowed: u64| {
            let f = outside_prisms_or_in_box(n);
            let db = Database::new();
            let _armed = tripping_at(allowed + 1);
            let (out, decisions) = decided(|| Cells::convert(&f, &db, false, Strategy::Auto));
            (out.map(|cells| cells.cells.len()).map_err(|_| "interrupted"), decisions)
        };
        let allowed = work::PERIOD - 1;
        let (small, calls) = decisions(2, allowed);
        assert!(small.is_ok() && calls < allowed, "two prisms took {calls} decisions");
        assert_eq!(decisions(6, allowed), (Err("interrupted"), allowed + 1));
    }
}
