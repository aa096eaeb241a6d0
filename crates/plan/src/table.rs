//! Dense region tables: the set-at-a-time kernel of the plan executor.
//!
//! The region sort of `B^Reg` is finite, so an element-free plan node with
//! free region variables `X₁ … X_k` denotes a subset of
//! `D₁ × … × D_k` for the quantifier domains `D_i` — a point of the finite
//! lattice `P(Reg^k)` that Definition 5.1 iterates over. A [`Table`] stores
//! such a subset as a bitset in row-major order: the last variable of its
//! [`Layout`] is the *lane*, one bit per domain position, padded to whole
//! words; every combination of the other variables is one *row*. Padding
//! bits are always zero, so equality of tables is equality of words.
//!
//! Everything the executor does to tables is one of four kernels:
//!
//! * [`zip`] — n-ary conjunction or disjunction of tables over subsets of
//!   the output variables, optionally fused with the reduction of one more
//!   variable (`∃v ⋀ᵢ Aᵢ`, `∀v ⋁ᵢ Aᵢ`): the join-project of a region
//!   quantifier. A row of a child that shares the output's lane is combined
//!   a word at a time; a child that lacks the lane contributes one bit per
//!   row. The reduced variable is never materialized, so the widest table
//!   is the output's.
//! * [`Table::complement`] — negation.
//! * [`Table::gather`] — renaming, repetition and domain conversion of
//!   variables (set-variable and fixed-point applications), bit by bit.
//! * [`Table::close`] — reflexive-transitive closure of a bit matrix
//!   (`TC`/`DTC`).
//!
//! The kernel knows nothing about plans or decompositions: variables are
//! opaque [`Var`] ids and domains are just sizes. Callers keep one global
//! variable order, so that the variables of any two tables that meet in a
//! [`zip`] appear in the same relative order.

use lcdb_budget::work::{self, Work};
use lcdb_budget::BudgetError;

/// A region variable, resolved to a slot once per query.
pub type Var = u16;

/// Rows a kernel charges to the work ledger as one `eval.table_steps` unit.
const CHECK_ROWS: usize = 4096;

/// The variables of a table and the sizes of their domains; the last
/// variable is the lane.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Layout {
    vars: Vec<Var>,
    sizes: Vec<usize>,
}

impl Layout {
    /// A layout over `vars` with the given domain sizes.
    ///
    /// # Panics
    /// Panics if the two lists differ in length or a variable repeats.
    pub fn new(vars: Vec<Var>, sizes: Vec<usize>) -> Self {
        assert_eq!(vars.len(), sizes.len());
        for (i, v) in vars.iter().enumerate() {
            assert!(!vars[..i].contains(v), "variable {v} repeats in a layout");
        }
        Layout { vars, sizes }
    }

    /// The variables, outermost first.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The domain sizes, in variable order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Position of `v` among the variables.
    pub fn index_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    fn lane(&self) -> usize {
        self.sizes.last().copied().unwrap_or(1)
    }

    /// Words per row.
    fn wpr(&self) -> usize {
        words_for(self.lane())
    }

    /// Number of rows, `None` on overflow.
    fn rows(&self) -> Option<usize> {
        let outer = self.sizes.len().saturating_sub(1);
        self.sizes[..outer]
            .iter()
            .try_fold(1usize, |acc, &s| acc.checked_mul(s))
    }

    /// Bytes a table of this layout occupies; `None` when the size does not
    /// fit a `usize`. Callers check this against their memory ceiling
    /// before allocating.
    pub fn bytes(&self) -> Option<usize> {
        self.rows()?.checked_mul(self.wpr())?.checked_mul(8)
    }

    /// Number of cells (tuples of domain positions); saturating.
    pub fn cells(&self) -> usize {
        self.sizes
            .iter()
            .fold(1usize, |acc, &s| acc.saturating_mul(s))
    }

    /// Bit strides of the variables: the distance in bits between the
    /// cells of two consecutive positions of each variable.
    fn strides(&self) -> Vec<usize> {
        let k = self.vars.len();
        let mut out = vec![1usize; k];
        let mut rows = 64 * self.wpr();
        for i in (0..k.saturating_sub(1)).rev() {
            out[i] = rows;
            rows *= self.sizes[i];
        }
        out
    }
}

fn words_for(lane: usize) -> usize {
    lane.div_ceil(64).max(1)
}

/// The valid bits of word `w` of a row whose lane holds `lane` positions.
fn lane_mask(lane: usize, w: usize) -> u64 {
    let lo = w * 64;
    if lane >= lo + 64 {
        u64::MAX
    } else if lane <= lo {
        0
    } else {
        (1u64 << (lane - lo)) - 1
    }
}

/// A set of tuples of domain positions, as a dense bitset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    layout: Layout,
    bits: Vec<u64>,
}

/// What [`zip`] reduces away, fused into the combination of its children.
#[derive(Clone, Copy, Debug)]
pub struct Reduce {
    /// The quantified variable.
    pub var: Var,
    /// The size of its domain.
    pub size: usize,
    /// `∀` (a row survives when every position does) or `∃`.
    pub universal: bool,
    /// True when the variable follows every output variable in the global
    /// order, so it is the lane of each child that mentions it.
    pub last: bool,
}

/// Where [`Table::gather`] reads one variable of its source.
#[derive(Clone, Copy, Debug)]
pub enum Pick<'a> {
    /// At the position of the output's variable of this index, converted
    /// through the table (output position → source position).
    Var(usize, &'a [Option<usize>]),
    /// At a fixed position.
    At(usize),
}

impl Table {
    /// The empty set. The caller has checked `layout.bytes()` against its
    /// memory ceiling.
    ///
    /// # Panics
    /// Panics if the size of the layout overflows.
    pub fn empty(layout: Layout) -> Self {
        let words = layout.bytes().expect("table size overflows") / 8;
        Table {
            layout,
            bits: vec![0; words],
        }
    }

    /// The full product of the domains.
    pub fn full(layout: Layout) -> Self {
        let mut t = Table::empty(layout);
        t.complement();
        t
    }

    /// The layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The words, row-major; for checkpoint hashing and tests.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    fn addr(&self, pos: &[usize]) -> usize {
        debug_assert_eq!(pos.len(), self.layout.vars.len());
        let outer = pos.len().saturating_sub(1);
        let row = pos[..outer]
            .iter()
            .zip(&self.layout.sizes)
            .fold(0usize, |row, (&p, &size)| {
                debug_assert!(p < size);
                row * size + p
            });
        row * 64 * self.layout.wpr() + pos.last().copied().unwrap_or(0)
    }

    /// Is the tuple of domain positions in the set?
    pub fn get(&self, pos: &[usize]) -> bool {
        bit(&self.bits, self.addr(pos))
    }

    /// Add or remove one tuple.
    pub fn set(&mut self, pos: &[usize], value: bool) {
        let a = self.addr(pos);
        if value {
            self.bits[a / 64] |= 1 << (a % 64);
        } else {
            self.bits[a / 64] &= !(1 << (a % 64));
        }
    }

    /// Number of tuples in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Replace the set by its complement within the domain product.
    pub fn complement(&mut self) {
        let (lane, wpr) = (self.layout.lane(), self.layout.wpr());
        for row in self.bits.chunks_mut(wpr) {
            for (w, word) in row.iter_mut().enumerate() {
                *word = !*word & lane_mask(lane, w);
            }
        }
    }

    /// Union with a table of the same layout.
    pub fn union_with(&mut self, other: &Table) {
        assert_eq!(self.layout, other.layout);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Call `f` with the positions of every tuple in the set, in row-major
    /// order.
    pub fn for_each(&self, mut f: impl FnMut(&[usize])) {
        let k = self.layout.vars.len();
        let wpr = self.layout.wpr();
        let mut pos = vec![0usize; k];
        for (row, words) in self.bits.chunks(wpr).enumerate() {
            if words.iter().all(|&w| w == 0) {
                continue;
            }
            let mut r = row;
            for i in (0..k.saturating_sub(1)).rev() {
                pos[i] = r % self.layout.sizes[i];
                r /= self.layout.sizes[i];
            }
            for (w, &word) in words.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if k > 0 {
                        pos[k - 1] = w * 64 + b;
                    }
                    f(&pos);
                }
            }
        }
    }

    /// Intersect with (`conj`) or add (`!conj`) a relation that is only
    /// known through a per-tuple oracle, asking it about as few tuples as
    /// the set allows: the members when intersecting, the non-members when
    /// adding. This is how lazily filled leaves join a conjunction after
    /// the cheaper conjuncts have been combined.
    pub fn refine<E>(
        &mut self,
        conj: bool,
        mut oracle: impl FnMut(&[usize]) -> Result<bool, E>,
    ) -> Result<(), E> {
        let k = self.layout.vars.len();
        let (lane, wpr) = (self.layout.lane(), self.layout.wpr());
        let mut pos = vec![0usize; k];
        for row in 0..self.bits.len() / wpr {
            let mut r = row;
            for i in (0..k.saturating_sub(1)).rev() {
                pos[i] = r % self.layout.sizes[i];
                r /= self.layout.sizes[i];
            }
            for w in 0..wpr {
                let word = self.bits[row * wpr + w];
                let mut ask = if conj {
                    word
                } else {
                    !word & lane_mask(lane, w)
                };
                while ask != 0 {
                    let b = ask.trailing_zeros() as usize;
                    ask &= ask - 1;
                    if k > 0 {
                        pos[k - 1] = w * 64 + b;
                    }
                    if oracle(&pos)? != conj {
                        self.bits[row * wpr + w] ^= 1 << b;
                    }
                }
            }
        }
        Ok(())
    }

    /// The table over `out` whose cell at positions `q` is this table's
    /// cell at the positions `picks` selects, one per variable of this
    /// table — and absent where a conversion is `None`. Covers renaming
    /// (`M(Z, Rp)` read from a table over `(R, Rp)`), repeated arguments,
    /// pinned dependencies, and moving between domains of different
    /// guards. Bit by bit: the tables it is applied to are fixed-point
    /// stages and closures, narrower than the joins around them.
    pub fn gather(&self, out: Layout, picks: &[Pick]) -> Table {
        assert_eq!(picks.len(), self.layout.vars.len());
        let mut t = Table::empty(out);
        if self.is_empty() {
            return t;
        }
        let strides = self.layout.strides();
        let k = t.layout.vars.len();
        let wpr = t.layout.wpr();
        let lane = t.layout.lane();
        let mut pos = vec![0usize; k];
        for row in 0..t.bits.len() / wpr {
            let mut r = row;
            for i in (0..k.saturating_sub(1)).rev() {
                pos[i] = r % t.layout.sizes[i];
                r /= t.layout.sizes[i];
            }
            for p in 0..lane {
                if k > 0 {
                    pos[k - 1] = p;
                }
                let src = picks
                    .iter()
                    .zip(&strides)
                    .try_fold(0usize, |a, (pick, st)| {
                        Some(
                            a + st
                                * match pick {
                                    Pick::Var(o, conv) => conv[pos[*o]]?,
                                    Pick::At(fixed) => *fixed,
                                },
                        )
                    });
                if src.is_some_and(|a| bit(&self.bits, a)) {
                    t.bits[row * wpr + p / 64] |= 1 << (p % 64);
                }
            }
        }
        t
    }

    /// Overwrite block `at` of the rows with `sub`: a table over the same
    /// variables in which the first variable with more than one value has
    /// been pinned to one (its `at`-th), so that `sub`'s rows are one
    /// contiguous block of this table's.
    pub fn write_slab(&mut self, at: usize, sub: &Table) {
        assert_eq!(self.layout.vars, sub.layout.vars);
        assert_eq!(
            self.layout.lane(),
            sub.layout.lane(),
            "the lane is not sliced"
        );
        let n = sub.bits.len();
        self.bits[at * n..(at + 1) * n].copy_from_slice(&sub.bits);
    }

    /// The concatenation of equally laid out tables as one table with
    /// `outer` prepended to their variables — slab `i` is `parts[i]`.
    pub fn stack(outer: &Layout, inner: &Layout, parts: &[std::sync::Arc<Table>]) -> Table {
        let mut vars = outer.vars.clone();
        vars.extend(&inner.vars);
        let mut sizes = outer.sizes.clone();
        sizes.extend(&inner.sizes);
        let layout = Layout::new(vars, sizes);
        if inner.vars.is_empty() {
            // Scalars have no row of their own to concatenate.
            let mut t = Table::empty(layout);
            let mut i = 0;
            Table::full(outer.clone()).for_each(|pos| {
                t.set(pos, parts[i].get(&[]));
                i += 1;
            });
            return t;
        }
        let mut bits = Vec::with_capacity(parts.iter().map(|p| p.bits.len()).sum());
        for p in parts {
            debug_assert_eq!(&p.layout, inner);
            bits.extend_from_slice(&p.bits);
        }
        Table { layout, bits }
    }

    /// Read this table over `2m` variables as the edge relation of a graph
    /// on `m`-tuples (first half source, second half target) and replace
    /// it by its reflexive-transitive closure; with `deterministic`, edges
    /// out of a tuple with more than one successor are dropped first
    /// (`DTC`, Definition 7.2). Each round charges one table step.
    pub fn close(&mut self, deterministic: bool) -> Result<(), BudgetError> {
        let k = self.layout.vars.len();
        assert!(
            k.is_multiple_of(2),
            "closure needs source and target tuples"
        );
        let m = k / 2;
        assert_eq!(self.layout.sizes[..m], self.layout.sizes[m..]);
        if m == 0 {
            // One empty tuple, reachable from itself.
            self.bits[0] = 1;
            return Ok(());
        }
        let n: usize = self.layout.sizes[..m].iter().product();
        let (lane, wpr) = (self.layout.lane(), self.layout.wpr());
        // All targets of one source are one block of words.
        let block = self.bits.len().checked_div(n).unwrap_or(0);
        let target = |t: usize| (t / lane) * wpr * 64 + t % lane;
        for s in 0..n {
            let row = &mut self.bits[s * block..(s + 1) * block];
            if deterministic && row.iter().map(|w| w.count_ones()).sum::<u32>() != 1 {
                row.fill(0);
            }
            let a = target(s);
            row[a / 64] |= 1 << (a % 64);
        }
        // Warshall: after round `via`, paths through tuples `0..=via`.
        for via in 0..n {
            work::charge(Work::TableSteps, 1)?;
            let a = target(via);
            let via_row = self.bits[via * block..(via + 1) * block].to_vec();
            for s in 0..n {
                if s != via && bit(&self.bits[s * block..], a) {
                    for (x, y) in self.bits[s * block..(s + 1) * block]
                        .iter_mut()
                        .zip(&via_row)
                    {
                        *x |= y;
                    }
                }
            }
        }
        Ok(())
    }
}

fn bit(words: &[u64], addr: usize) -> bool {
    words[addr / 64] >> (addr % 64) & 1 == 1
}

/// How one child of a [`zip`] is addressed from the output's row walk.
struct Source<'a> {
    bits: &'a [u64],
    /// Bit stride per output row variable (0 when the child lacks it).
    steps: Vec<usize>,
    /// Bit stride of the inner loop's variable.
    inner: usize,
    /// The child shares the lane: combine words. Otherwise test one bit.
    row: bool,
}

/// Combine `children` over the variables of `out`, a conjunction when
/// `conj` and a disjunction otherwise, reducing `reduce.var` away on the
/// fly. Every child's variables must be among `out`'s plus the reduced
/// one, in the same relative order.
///
/// Each block of [`CHECK_ROWS`] rows charges one table step, whose budget
/// verdict aborts the kernel.
pub fn zip(
    out: Layout,
    reduce: Option<Reduce>,
    children: &[&Table],
    conj: bool,
) -> Result<Table, BudgetError> {
    let k = out.vars.len();
    let outer = k.saturating_sub(1);
    // The inner loop runs over the reduced variable, or over the output's
    // own lane when the reduced variable is the children's lane.
    let (lane_var, lane, inner_var, inner_size) = match reduce {
        None => (out.vars.last().copied(), out.lane(), None, 1),
        Some(r) if r.last => (Some(r.var), r.size, out.vars.last().copied(), out.lane()),
        Some(r) => (out.vars.last().copied(), out.lane(), Some(r.var), r.size),
    };
    let wpr = words_for(lane);
    let mut sources: Vec<Source> = children
        .iter()
        .map(|c| {
            let strides = c.layout.strides();
            let stride_of = |v: Option<Var>| {
                v.and_then(|v| c.layout.index_of(v))
                    .map_or(0, |i| strides[i])
            };
            debug_assert!(c
                .layout
                .vars
                .iter()
                .all(|&v| { out.vars.contains(&v) || reduce.is_some_and(|r| r.var == v) }));
            Source {
                bits: &c.bits,
                steps: out.vars[..outer]
                    .iter()
                    .map(|&v| stride_of(Some(v)))
                    .collect(),
                inner: stride_of(inner_var),
                row: lane_var.is_some() && c.layout.vars.last().copied() == lane_var,
            }
        })
        .collect();
    // Bit tests first: they can decide a row without touching a word.
    sources.sort_by_key(|s| s.row);
    let rows = out.rows().expect("caller checked the output size");
    let out_wpr = out.wpr();
    let universal = reduce.is_some_and(|r| r.universal);
    let by_bits = reduce.is_some_and(|r| r.last);

    let mut bits = vec![0u64; rows * out_wpr];
    if rows == 0 {
        return Ok(Table { layout: out, bits });
    }
    if by_bits && universal {
        for row in bits.chunks_mut(out_wpr) {
            for (w, word) in row.iter_mut().enumerate() {
                *word = lane_mask(inner_size, w);
            }
        }
    }
    // One pass per word of the lane, so the hot loop combines single words
    // whatever the lane's width.
    for w in 0..wpr {
        let mask = lane_mask(lane, w);
        let mut pos = vec![0usize; outer];
        let mut base = vec![0usize; sources.len()];
        for row in 0..rows {
            if row.is_multiple_of(CHECK_ROWS) {
                work::charge(Work::TableSteps, 1)?;
            }
            let dst_row = &mut bits[row * out_wpr..(row + 1) * out_wpr];
            let mut acc = if universal { mask } else { 0 };
            for p in 0..inner_size {
                // One point of the walk: combine the children's words.
                let mut t = if conj { mask } else { 0 };
                for (s, b) in sources.iter().zip(&base) {
                    let a = b + p * s.inner;
                    if s.row {
                        let word = s.bits[a / 64 + w];
                        t = if conj { t & word } else { t | word };
                    } else if bit(s.bits, a) != conj {
                        t = if conj { 0 } else { mask };
                        break;
                    }
                }
                if by_bits {
                    // ∃: some word of the lane is non-zero; ∀: every
                    // word is full.
                    if universal && t != mask {
                        dst_row[p / 64] &= !(1 << (p % 64));
                    } else if !universal && t != 0 {
                        dst_row[p / 64] |= 1 << (p % 64);
                    }
                } else if universal {
                    acc &= t;
                } else {
                    acc |= t;
                }
            }
            if !by_bits {
                // Without a reduction the inner loop ran once.
                dst_row[w] = acc;
            }
            // Advance the odometer over the output's row variables.
            for i in (0..outer).rev() {
                pos[i] += 1;
                for (b, s) in base.iter_mut().zip(&sources) {
                    *b += s.steps[i];
                }
                if pos[i] < out.sizes[i] {
                    break;
                }
                for (b, s) in base.iter_mut().zip(&sources) {
                    *b -= s.steps[i] * out.sizes[i];
                }
                pos[i] = 0;
            }
        }
    }
    Ok(Table { layout: out, bits })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitmix64: the tests' own source of tables.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Domain sizes of the test variables 0..6; 0 and 70 cover the empty
    /// domain and a lane of two words.
    const SIZES: [usize; 6] = [3, 70, 2, 0, 5, 1];

    fn layout(vars: &[Var]) -> Layout {
        Layout::new(
            vars.to_vec(),
            vars.iter().map(|&v| SIZES[v as usize]).collect(),
        )
    }

    fn random(rng: &mut Rng, vars: &[Var]) -> Table {
        let mut t = Table::empty(layout(vars));
        let mut cells = Vec::new();
        Table::full(layout(vars)).for_each(|p| cells.push(p.to_vec()));
        for p in cells {
            t.set(&p, rng.next().is_multiple_of(3));
        }
        t
    }

    /// Every tuple of positions over `vars`, in row-major order.
    fn tuples(vars: &[Var]) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new()];
        for &v in vars {
            out = out
                .into_iter()
                .flat_map(|t| {
                    (0..SIZES[v as usize]).map(move |p| {
                        let mut t = t.clone();
                        t.push(p);
                        t
                    })
                })
                .collect();
        }
        out
    }

    fn project(pos: &[usize], from: &[Var], to: &[Var]) -> Vec<usize> {
        to.iter()
            .map(|v| pos[from.iter().position(|x| x == v).expect("subset")])
            .collect()
    }

    /// Subsets of `vars` in order, by bitmask.
    fn subset(vars: &[Var], mask: u64) -> Vec<Var> {
        vars.iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect()
    }

    #[test]
    fn full_empty_complement_and_padding() {
        for vars in [
            &[][..],
            &[0],
            &[1],
            &[0, 1],
            &[1, 0],
            &[3],
            &[0, 3],
            &[3, 0],
        ] {
            let full = Table::full(layout(vars));
            assert_eq!(full.count(), layout(vars).cells(), "{vars:?}");
            let mut t = full.clone();
            t.complement();
            assert!(t.is_empty());
            assert_eq!(t, Table::empty(layout(vars)));
            let mut seen = 0;
            full.for_each(|p| {
                assert!(full.get(p));
                seen += 1;
            });
            assert_eq!(seen, full.count());
        }
    }

    #[test]
    fn join_matches_brute_force_for_widths_0_to_4() {
        let mut rng = Rng(7);
        for out_vars in [
            &[][..],
            &[2],
            &[1],
            &[0, 2],
            &[2, 1],
            &[0, 2, 4],
            &[0, 4, 1],
            &[0, 2, 4, 5],
            &[0, 3],
            &[0, 2, 3, 4],
        ] {
            for round in 0..6 {
                let children: Vec<(Vec<Var>, Table)> = (0..1 + round % 3)
                    .map(|_| {
                        let vars = subset(out_vars, rng.next());
                        let t = random(&mut rng, &vars);
                        (vars, t)
                    })
                    .collect();
                let refs: Vec<&Table> = children.iter().map(|(_, t)| t).collect();
                for conj in [true, false] {
                    let got = zip(layout(out_vars), None, &refs, conj).unwrap();
                    for pos in tuples(out_vars) {
                        let mut vals = children
                            .iter()
                            .map(|(vars, t)| t.get(&project(&pos, out_vars, vars)));
                        let want = if conj {
                            vals.all(|b| b)
                        } else {
                            vals.any(|b| b)
                        };
                        assert_eq!(got.get(&pos), want, "{out_vars:?} {pos:?} conj={conj}");
                    }
                    assert_eq!(
                        got.count(),
                        tuples(out_vars).iter().filter(|p| got.get(p)).count()
                    );
                }
            }
        }
    }

    #[test]
    fn join_project_matches_brute_force() {
        let mut rng = Rng(11);
        // (all variables in global order, index of the reduced one)
        let cases: &[(&[Var], usize)] = &[
            (&[1], 0),
            (&[0, 1], 1),
            (&[0, 1], 0),
            (&[0, 2, 1], 2),
            (&[0, 2, 1], 1),
            (&[0, 2, 4, 1], 0),
            (&[0, 2, 4, 1], 3),
            (&[0, 2, 4, 5, 1], 2),
            (&[0, 3], 1),
            (&[3, 0], 0),
            (&[0, 3, 2], 1),
        ];
        for &(all, at) in cases {
            let v = all[at];
            let out_vars: Vec<Var> = all.iter().copied().filter(|&x| x != v).collect();
            for round in 0..8 {
                let children: Vec<(Vec<Var>, Table)> = (0..1 + round % 3)
                    .map(|_| {
                        let vars = subset(all, rng.next() | 1 << at);
                        let t = random(&mut rng, &vars);
                        (vars, t)
                    })
                    .collect();
                let refs: Vec<&Table> = children.iter().map(|(_, t)| t).collect();
                for universal in [false, true] {
                    let reduce = Reduce {
                        var: v,
                        size: SIZES[v as usize],
                        universal,
                        last: at == all.len() - 1,
                    };
                    let conj = !universal;
                    let got =
                        zip(layout(&out_vars), Some(reduce), &refs, conj).unwrap();
                    for pos in tuples(&out_vars) {
                        let mut points = (0..SIZES[v as usize]).map(|a| {
                            let mut full = pos.clone();
                            full.insert(at, a);
                            let mut vals = children
                                .iter()
                                .map(|(vars, t)| t.get(&project(&full, all, vars)));
                            if conj {
                                vals.all(|b| b)
                            } else {
                                vals.any(|b| b)
                            }
                        });
                        let want = if universal {
                            points.all(|b| b)
                        } else {
                            points.any(|b| b)
                        };
                        assert_eq!(
                            got.get(&pos),
                            want,
                            "{all:?} reduce {v} at {pos:?} ∀={universal}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_check_aborts_mid_table() {
        let mut rng = Rng(5);
        let a = random(&mut rng, &[1, 4]);
        let token = lcdb_budget::CancelToken::new();
        token.cancel();
        let budget = lcdb_budget::EvalBudget::unlimited().with_cancel_token(token);
        let _armed = work::arm(&budget, [0, 0]);
        let before = work::snapshot();
        let r = zip(layout(&[1, 4]), None, &[&a], true);
        assert_eq!(r.err(), Some(BudgetError::Cancelled));
        assert_eq!(before.since()[Work::TableSteps], 0, "refused at its first step");
    }

    #[test]
    fn refine_asks_only_where_the_answer_matters() {
        let mut rng = Rng(13);
        for vars in [&[][..], &[1], &[0, 1], &[0, 2, 4]] {
            let base = random(&mut rng, vars);
            let other = random(&mut rng, vars);
            for conj in [true, false] {
                let mut t = base.clone();
                let mut asked = 0;
                t.refine(conj, |p| {
                    asked += 1;
                    assert_eq!(base.get(p), conj, "asked about a decided tuple");
                    Ok::<bool, ()>(other.get(p))
                })
                .unwrap();
                let decided = if conj {
                    base.count()
                } else {
                    layout(vars).cells() - base.count()
                };
                assert_eq!(asked, decided);
                for p in tuples(vars) {
                    let want = if conj {
                        base.get(&p) && other.get(&p)
                    } else {
                        base.get(&p) || other.get(&p)
                    };
                    assert_eq!(t.get(&p), want);
                }
            }
        }
    }

    #[test]
    fn gather_renames_repeats_and_converts_domains() {
        let mut rng = Rng(17);
        // Source over (x, y) with sizes (3, 5); read as M(b, a), M(a, a)
        // and from a larger domain where only even positions map back.
        let src = random(&mut rng, &[0, 4]);
        let ident = |n: usize| (0..n).map(Some).collect::<Vec<_>>();
        let (i3, i5) = (ident(3), ident(5));
        let out = Layout::new(vec![7, 8], vec![5, 3]); // a: 5, b: 3
        let swapped = src.gather(out, &[Pick::Var(1, &i3), Pick::Var(0, &i5)]);
        for a in 0..5 {
            for b in 0..3 {
                assert_eq!(swapped.get(&[a, b]), src.get(&[b, a]));
            }
        }
        let diag = src.gather(
            Layout::new(vec![7], vec![3]),
            &[Pick::Var(0, &i3), Pick::Var(0, &i3)],
        );
        for a in 0..3 {
            assert_eq!(diag.get(&[a]), src.get(&[a, a]));
        }
        let pinned = src.gather(
            Layout::new(vec![8], vec![5]),
            &[Pick::At(2), Pick::Var(0, &i5)],
        );
        for b in 0..5 {
            assert_eq!(pinned.get(&[b]), src.get(&[2, b]));
        }
        let even = |n: usize| {
            (0..n)
                .map(|p| (p % 2 == 0).then_some(p / 2))
                .collect::<Vec<_>>()
        };
        let (e6, e10) = (even(6), even(10));
        let wide = src.gather(
            Layout::new(vec![7, 8], vec![6, 10]),
            &[Pick::Var(0, &e6), Pick::Var(1, &e10)],
        );
        for a in 0..6 {
            for b in 0..10 {
                let want = a % 2 == 0 && b % 2 == 0 && src.get(&[a / 2, b / 2]);
                assert_eq!(wide.get(&[a, b]), want);
            }
        }
        // Scalars gather to scalars.
        let one = Table::full(Layout::default());
        assert!(one.gather(Layout::default(), &[]).get(&[]));
    }

    #[test]
    fn closure_matches_breadth_first_search() {
        let mut rng = Rng(19);
        for (m, n) in [(1usize, 70usize), (1, 5), (2, 3), (1, 0)] {
            let vars: Vec<Var> = (0..2 * m as Var).collect();
            let lay = Layout::new(vars, vec![n; 2 * m]);
            let count = n.pow(m as u32);
            let index = |t: usize| -> Vec<usize> {
                let mut digits = vec![0; m];
                let mut r = t;
                for d in digits.iter_mut().rev() {
                    *d = r.checked_rem(n).unwrap_or(0);
                    r = r.checked_div(n).unwrap_or(0);
                }
                digits
            };
            for deterministic in [false, true] {
                let mut edges = Table::empty(lay.clone());
                let mut adj = vec![Vec::new(); count];
                for (s, succ) in adj.iter_mut().enumerate() {
                    for t in 0..count {
                        if rng.next().is_multiple_of(count as u64 + 1) {
                            edges.set(&[index(s), index(t)].concat(), true);
                            succ.push(t);
                        }
                    }
                }
                if deterministic {
                    for succ in adj.iter_mut() {
                        if succ.len() != 1 {
                            succ.clear();
                        }
                    }
                }
                edges.close(deterministic).unwrap();
                for s in 0..count {
                    let mut seen = vec![false; count];
                    let mut stack = vec![s];
                    seen[s] = true;
                    while let Some(c) = stack.pop() {
                        for &t in &adj[c] {
                            if !seen[t] {
                                seen[t] = true;
                                stack.push(t);
                            }
                        }
                    }
                    for (t, &reached) in seen.iter().enumerate() {
                        assert_eq!(
                            edges.get(&[index(s), index(t)].concat()),
                            reached,
                            "m={m} n={n} {s}->{t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slabs_and_stacks_compose() {
        let mut rng = Rng(23);
        let whole = random(&mut rng, &[0, 2, 1]);
        let mut rebuilt = Table::empty(layout(&[0, 2, 1]));
        let mut parts = Vec::new();
        for a in 0..SIZES[0] {
            let mut sub = Table::empty(Layout::new(vec![0, 2, 1], vec![1, SIZES[2], SIZES[1]]));
            let mut inner = Table::empty(layout(&[2, 1]));
            for p in tuples(&[2, 1]) {
                sub.set(&[0, p[0], p[1]], whole.get(&[a, p[0], p[1]]));
                inner.set(&p, whole.get(&[a, p[0], p[1]]));
            }
            rebuilt.write_slab(a, &sub);
            parts.push(std::sync::Arc::new(inner));
        }
        assert_eq!(rebuilt, whole);
        assert_eq!(Table::stack(&layout(&[0]), &layout(&[2, 1]), &parts), whole);
        // Scalar parts stack into a one-variable table.
        let scalars: Vec<_> = [true, false, true]
            .iter()
            .map(|&b| {
                let mut t = Table::empty(Layout::default());
                t.set(&[], b);
                std::sync::Arc::new(t)
            })
            .collect();
        let s = Table::stack(&layout(&[0]), &Layout::default(), &scalars);
        assert_eq!((s.get(&[0]), s.get(&[1]), s.get(&[2])), (true, false, true));
    }
}
