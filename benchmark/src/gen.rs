//! Seeded input generators. Everything here is plain data — integers and
//! formula text — so the generated inputs can be compared byte for byte
//! across runs and no engine type leaks out of `engine.rs`.
//!
//! The seed changes *where* things are (offsets, scales, coefficients,
//! phases of the request schedule), never *how many* there are: every seed
//! gives the same number of databases, hyperplanes, prisms and requests of
//! each kind, so one seed's run costs what another's does and the spread
//! between seeds stays inside the metric bounds.

use crate::oracle;
use crate::rng::Rng;

// ---------------------------------------------------------------------
// Formula text helpers
// ---------------------------------------------------------------------

/// Render `Σ cᵢ·vᵢ` with explicit signs (`2*x - y`); the engine's parser
/// does not accept `x - -1`.
pub fn lin(terms: &[(i64, &str)]) -> String {
    let mut out = String::new();
    for &(c, v) in terms.iter().filter(|(c, _)| *c != 0) {
        if out.is_empty() {
            if c < 0 {
                out.push('-');
            }
        } else {
            out.push_str(if c < 0 { " - " } else { " + " });
        }
        if c.abs() != 1 {
            out.push_str(&format!("{}*", c.abs()));
        }
        out.push_str(v);
    }
    if out.is_empty() {
        out.push('0');
    }
    out
}

// ---------------------------------------------------------------------
// Databases with facts known by construction
// ---------------------------------------------------------------------

/// What the benchmark knows about a database without asking the engine.
/// Every served or cold verdict on the database is checked against these.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Facts {
    /// Connected components of `S`.
    pub components: usize,
    /// Does `S` have an isolated point?
    pub isolated_point: bool,
    /// Does `S` contain a region of dimension `k`?
    pub dims: [bool; 3],
    /// Verdict of the printed (order-insensitive) river query.
    pub river_literal: bool,
    /// Verdict of the flow-ordered river query (1-D maps only).
    pub river_ordered: bool,
    /// Supremum over `S` of `x` (1-D) or `x + y` (2-D).
    pub sup: i64,
    /// Do `S` and `chem1` share a point?
    pub chem1_in_s: bool,
}

/// A database as the `Define` lines that build it.
#[derive(Clone, Debug, PartialEq)]
pub struct DbSpec {
    pub name: String,
    pub dim: usize,
    /// `NAME(vars) := formula` lines; the first defines the spatial `S`.
    pub defines: Vec<String>,
    pub facts: Facts,
}

/// A union of unit-grid cells in the plane, mapped by `x ↦ ox + s·x`.
/// `boxes(k)` and `corner_chain(k)` of the reproduction harness and the
/// zoning maps are all instances.
struct Grid {
    cells: Vec<(i64, i64)>,
    closed: bool,
    ox: i64,
    oy: i64,
    s: i64,
    chem2: bool,
}

fn grid_db(name: String, g: &Grid) -> DbSpec {
    let (lt, x_of, y_of) = (
        if g.closed { "<=" } else { "<" },
        |i: i64| g.ox + g.s * i,
        |j: i64| g.oy + g.s * j,
    );
    let cell = |&(i, j): &(i64, i64)| {
        format!(
            "({} {lt} x and x {lt} {} and {} {lt} y and y {lt} {})",
            x_of(i),
            x_of(i + 1),
            y_of(j),
            y_of(j + 1)
        )
    };
    let s_body: Vec<String> = g.cells.iter().map(cell).collect();
    // The river relations live on the first cell and reuse its grid lines,
    // so they add no hyperplane to the arrangement: spring is the lower-left
    // corner, the river the closed cell, chem1 the open bottom edge and
    // chem2 the open interior (or nothing).
    let (i0, j0) = g.cells[0];
    let (xa, xb, ya, yb) = (x_of(i0), x_of(i0 + 1), y_of(j0), y_of(j0 + 1));
    let chem2 = if g.chem2 {
        format!("{xa} < x and x < {xb} and {ya} < y and y < {yb}")
    } else {
        format!("{xb} < x and x < {xb} and {ya} < y and y < {yb}")
    };
    let defines = vec![
        format!("S(x, y) := {}", s_body.join(" or ")),
        format!("river(x, y) := {xa} <= x and x <= {xb} and {ya} <= y and y <= {yb}"),
        format!("spring(x, y) := x = {xa} and y = {ya}"),
        format!("chem1(x, y) := {xa} < x and x < {xb} and y = {ya}"),
        format!("chem2(x, y) := {chem2}"),
    ];
    // Closed cells touch along edges and at corners; open cells never touch.
    let components = if g.closed {
        let n = g.cells.len();
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], i: usize) -> usize {
            if root[i] != i {
                let r = find(root, root[i]);
                root[i] = r;
            }
            root[i]
        }
        for a in 0..n {
            for b in a + 1..n {
                let (da, db) = (g.cells[a].0 - g.cells[b].0, g.cells[a].1 - g.cells[b].1);
                if da.abs() <= 1 && db.abs() <= 1 {
                    let (ra, rb) = (find(&mut root, a), find(&mut root, b));
                    root[ra] = rb;
                }
            }
        }
        (0..n).filter(|&i| find(&mut root, i) == i).count()
    } else {
        g.cells.len()
    };
    let facts = Facts {
        components,
        isolated_point: false,
        dims: [g.closed, g.closed, true],
        river_literal: g.chem2,
        river_ordered: false,
        sup: g
            .cells
            .iter()
            .map(|&(i, j)| x_of(i + 1) + y_of(j + 1))
            .max()
            .expect("cells"),
        // chem1 is the bottom edge of the first cell: in S iff cells are closed.
        chem1_in_s: g.closed,
    };
    DbSpec {
        name,
        dim: 2,
        defines,
        facts,
    }
}

/// One piece of a 1-D relation: an interval with its endpoint closedness,
/// or a point (`lo == hi`, both closed).
#[derive(Clone, Copy)]
struct Piece {
    lo: i64,
    hi: i64,
    lo_closed: bool,
    hi_closed: bool,
}

impl Piece {
    fn point(p: i64) -> Piece {
        Piece {
            lo: p,
            hi: p,
            lo_closed: true,
            hi_closed: true,
        }
    }
    fn open(lo: i64, hi: i64) -> Piece {
        Piece {
            lo,
            hi,
            lo_closed: false,
            hi_closed: false,
        }
    }
    fn closed(lo: i64, hi: i64) -> Piece {
        Piece {
            lo,
            hi,
            lo_closed: true,
            hi_closed: true,
        }
    }
    fn is_point(&self) -> bool {
        self.lo == self.hi
    }
    fn contains(&self, p: i64) -> bool {
        (self.lo < p || (self.lo == p && self.lo_closed))
            && (p < self.hi || (p == self.hi && self.hi_closed))
    }
    fn text(&self) -> String {
        if self.is_point() {
            return format!("x = {}", self.lo);
        }
        format!(
            "({} {} x and x {} {})",
            self.lo,
            if self.lo_closed { "<=" } else { "<" },
            if self.hi_closed { "<=" } else { "<" },
            self.hi
        )
    }
}

fn pieces_text(pieces: &[Piece]) -> String {
    pieces
        .iter()
        .map(Piece::text)
        .collect::<Vec<_>>()
        .join(" or ")
}

/// A 1-D map: `S` is a union of pieces separated by gaps (so components are
/// pieces), the river is the closed hull with the spring at its source.
/// `chem1`/`chem2` are open stretches; `None` renders an empty stretch.
fn line_db(
    name: String,
    s: &[Piece],
    hull: (i64, i64),
    chem1: Option<(i64, i64)>,
    chem2: Option<(i64, i64)>,
) -> DbSpec {
    let stretch = |c: Option<(i64, i64)>| match c {
        Some((a, b)) => format!("{a} < x and x < {b}"),
        None => format!("{0} < x and x < {0}", hull.1),
    };
    let defines = vec![
        format!("S(x) := {}", pieces_text(s)),
        format!("river(x) := {} <= x and x <= {}", hull.0, hull.1),
        format!("spring(x) := x = {}", hull.0),
        format!("chem1(x) := {}", stretch(chem1)),
        format!("chem2(x) := {}", stretch(chem2)),
    ];
    // Every endpoint of every relation is a 0-dimensional region; S holds a
    // 0-dimensional region iff one of them lies in S.
    let mut breaks: Vec<i64> = s.iter().flat_map(|p| [p.lo, p.hi]).collect();
    breaks.extend([hull.0, hull.1]);
    for (a, b) in [chem1, chem2].into_iter().flatten() {
        breaks.extend([a, b]);
    }
    let in_s = |p: i64| s.iter().any(|piece| piece.contains(p));
    let facts = Facts {
        components: s.len(),
        isolated_point: s.iter().any(Piece::is_point),
        dims: [
            breaks.iter().any(|&b| in_s(b)),
            s.iter().any(|p| !p.is_point()),
            false,
        ],
        // The printed formula fires for any coexisting chem1 and chem2
        // stretch; the ordered one needs chem2 to reach beyond chem1's start.
        river_literal: chem1.is_some() && chem2.is_some(),
        river_ordered: matches!((chem1, chem2), (Some((a, _)), Some((_, d))) if d > a),
        sup: s.iter().map(|p| p.hi).max().expect("pieces"),
        chem1_in_s: chem1.is_some_and(|(a, b)| {
            s.iter().any(|p| !p.is_point() && p.lo.max(a) < p.hi.min(b))
                || s.iter().any(|p| p.is_point() && a < p.lo && p.lo < b)
        }),
    };
    DbSpec {
        name,
        dim: 1,
        defines,
        facts,
    }
}

/// The structural kinds of the popular served databases: rank `r` gets
/// `KINDS[r % KINDS.len()]`. Two thirds are *two closed zones sharing an
/// edge* (35 regions): connectivity and two-components cost the same
/// 17–18 ms on every one of them, so their cache misses — about a tenth of
/// all requests — form one cost plateau, and `lat_p95_ms` sits inside it
/// rather than on a boundary between request classes. The rest are 1-D
/// river maps, whose fixed points cost a few milliseconds.
const KINDS: [&str; 12] = [
    "zones_h",
    "river_c1_up",
    "zones_v",
    "zones_h",
    "scattered",
    "zones_v",
    "zones_h",
    "river_c2_up",
    "zones_v",
    "zones_h",
    "river_no_chem2",
    "zones_v",
];

/// The unpopular tail (6 % of visits) carries the variety: `boxes(k)`,
/// a corner chain, open zones, the remaining 1-D maps.
const TAIL: [&str; 12] = [
    "boxes2",
    "intervals",
    "boxes3",
    "chain2",
    "river_no_chem1",
    "zones_open",
    "boxes4",
    "scattered",
    "boxes2",
    "chain2",
    "intervals",
    "boxes3",
];

/// The served databases, most popular first.
pub fn served_databases(seed: u64, count: usize) -> Vec<DbSpec> {
    let mut rng = Rng::fork(seed, "served-databases");
    (0..count)
        .map(|rank| {
            let kind = match (rank + TAIL.len()).checked_sub(count) {
                Some(i) => TAIL[i],
                None => KINDS[rank % KINDS.len()],
            };
            let name = format!("db{rank:02}-{kind}");
            let (ox, oy, s) = (rng.range(0, 8), rng.range(0, 8), rng.range(1, 3));
            // Structure goes by rank, never by seed: which databases lack
            // chem2 is the same in every run, so every seed's mix costs the
            // same.
            let chem2 = rank % 3 != 1;
            let grid = |cells: Vec<(i64, i64)>, closed: bool| Grid {
                cells,
                closed,
                ox,
                oy,
                s,
                chem2,
            };
            match kind {
                "boxes2" | "boxes3" | "boxes4" => {
                    let k = kind[5..].parse::<i64>().expect("digit");
                    grid_db(name, &grid((0..k).map(|i| (2 * i, 0)).collect(), false))
                }
                "chain2" => grid_db(name, &grid(vec![(0, 0), (1, 1)], true)),
                "zones_h" => grid_db(name, &grid(vec![(0, 0), (1, 0)], true)),
                "zones_v" => grid_db(name, &grid(vec![(0, 0), (0, 1)], true)),
                "zones_open" => grid_db(name, &grid(vec![(0, 0), (1, 1)], false)),
                _ => {
                    // 1-D maps on a river of length 10·s from ox.
                    let at = |p: i64| ox + s * p;
                    let hull = (at(0), at(10));
                    let whole = [Piece::closed(at(0), at(10))];
                    match kind {
                        "river_c1_up" => line_db(
                            name,
                            &whole,
                            hull,
                            Some((at(1), at(2))),
                            Some((at(4), at(5))),
                        ),
                        "river_c2_up" => line_db(
                            name,
                            &whole,
                            hull,
                            Some((at(4), at(5))),
                            Some((at(1), at(2))),
                        ),
                        "river_no_chem2" => line_db(name, &whole, hull, Some((at(1), at(2))), None),
                        "river_no_chem1" => line_db(name, &whole, hull, None, Some((at(1), at(2)))),
                        "scattered" => line_db(
                            name,
                            &[
                                Piece {
                                    lo: at(0),
                                    hi: at(1),
                                    lo_closed: true,
                                    hi_closed: false,
                                },
                                Piece::point(at(3)),
                                Piece::open(at(5), at(6)),
                                Piece::point(at(8)),
                            ],
                            hull,
                            Some((at(0), at(1))),
                            Some((at(5), at(6))),
                        ),
                        "intervals" => line_db(
                            name,
                            &[Piece::closed(at(1), at(3)), Piece::closed(at(6), at(9))],
                            hull,
                            Some((at(4), at(5))),
                            Some((at(7), at(8))),
                        ),
                        other => unreachable!("unknown kind {other}"),
                    }
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Served query slots
// ---------------------------------------------------------------------

/// Which request a slot sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Sentence,
    Query,
    Explain,
}

/// One of the 16 served query texts. Region-only queries are the same text
/// in every dimension; element-quantifier queries have one text per
/// dimension because `S` changes arity.
pub struct Slot {
    pub name: &'static str,
    pub op: Op,
    pub text_1d: &'static str,
    pub text_2d: &'static str,
}

pub const CONN: &str = "forall Rx. forall Ry. (Rx subset S and Ry subset S) -> [lfp $M, R, Rp. (R = Rp and R subset S) or (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";
pub const TWO_COMPONENTS: &str = "exists C0. exists C1. C0 subset S and C1 subset S and not [lfp $M, R, Rp. (R = Rp and R subset S) or (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](C0, C1)";
pub const RIVER_LITERAL: &str = "exists R1. exists R2. not R1 = R2 and [lfp $M, R, Rp. (R subset spring and R = Rp) or (exists Z. exists Zp. $M(Z, Zp) and R subset river and adj(Z, R) and R = Rp) or (exists Z. exists Zp. $M(Z, Zp) and Z subset chem1 and R subset chem2 and Rp = Z)](R1, R2)";
pub const RIVER_ORDERED: &str = "exists R. [lfp $M2, Y. ([lfp $M1, X. X subset spring or (exists W. $M1(W) and adj(W, X) and (exists dx. exists dy. dx in W and dy in X and dx < dy) and X subset river)](Y) and Y subset chem1) or (exists V. $M2(V) and adj(V, Y) and (exists ex. exists ey. ex in V and ey in Y and ex < ey) and Y subset river)](R) and R subset chem2";
const ISOLATED: &str =
    "exists R. R subset S and dim(R) = 0 and (forall Q. adj(R, Q) -> not Q subset S)";
const BOUNDED: &str = "forall R. R subset S -> bounded(R)";
const DIM0: &str = "exists R. R subset S and dim(R) = 0";
const DIM1: &str = "exists R. R subset S and dim(R) = 1";
const DIM2: &str = "exists R. R subset S and dim(R) = 2";
const NONEMPTY: &str = "exists R. R subset S";

/// Threshold of the element-quantifier sentences. Databases are placed so
/// that some have `sup` above it and some below.
pub const SUP_THRESHOLD: i64 = 18;

pub const SLOTS: [Slot; 16] = [
    Slot {
        name: "conn",
        op: Op::Sentence,
        text_1d: CONN,
        text_2d: CONN,
    },
    Slot {
        name: "bounded",
        op: Op::Sentence,
        text_1d: BOUNDED,
        text_2d: BOUNDED,
    },
    Slot {
        name: "river_literal",
        op: Op::Sentence,
        text_1d: RIVER_LITERAL,
        text_2d: RIVER_LITERAL,
    },
    Slot {
        name: "exists_above",
        op: Op::Sentence,
        text_1d: "exists x. S(x) and x > 18",
        text_2d: "exists x. exists y. S(x, y) and x + y > 18",
    },
    Slot {
        name: "nonempty",
        op: Op::Sentence,
        text_1d: NONEMPTY,
        text_2d: NONEMPTY,
    },
    Slot {
        name: "project",
        op: Op::Query,
        text_1d: "exists y. S(y) and y < x and x < y + 2",
        text_2d: "exists y. S(x, y) and y > x",
    },
    Slot {
        name: "river_ordered",
        op: Op::Sentence,
        text_1d: RIVER_ORDERED,
        text_2d: TWO_COMPONENTS,
    },
    Slot {
        name: "dim1",
        op: Op::Sentence,
        text_1d: DIM1,
        text_2d: DIM1,
    },
    Slot {
        name: "explain_conn",
        op: Op::Explain,
        text_1d: CONN,
        text_2d: CONN,
    },
    Slot {
        name: "isolated",
        op: Op::Sentence,
        text_1d: ISOLATED,
        text_2d: ISOLATED,
    },
    Slot {
        name: "forall_below",
        op: Op::Sentence,
        text_1d: "forall x. S(x) -> x <= 18",
        text_2d: "forall x. forall y. S(x, y) -> x + y <= 18",
    },
    Slot {
        name: "difference",
        op: Op::Query,
        text_1d: "S(x) and not chem1(x)",
        text_2d: "S(x, y) and not river(x, y)",
    },
    Slot {
        name: "dim0",
        op: Op::Sentence,
        text_1d: DIM0,
        text_2d: DIM0,
    },
    Slot {
        name: "chem1_in_s",
        op: Op::Sentence,
        text_1d: "exists x. S(x) and chem1(x)",
        text_2d: "exists x. exists y. S(x, y) and chem1(x, y)",
    },
    Slot {
        name: "two_components",
        op: Op::Sentence,
        text_1d: TWO_COMPONENTS,
        text_2d: DIM2,
    },
    Slot {
        name: "explain_river",
        op: Op::Explain,
        text_1d: RIVER_LITERAL,
        text_2d: RIVER_LITERAL,
    },
];

impl Slot {
    pub fn text(&self, dim: usize) -> &'static str {
        if dim == 1 {
            self.text_1d
        } else {
            self.text_2d
        }
    }

    /// The verdict known by construction, where there is one. Open queries
    /// and plans are checked against the library answer instead.
    pub fn expected(&self, dim: usize, f: &Facts) -> Option<bool> {
        Some(match (self.name, dim) {
            ("conn", _) => f.components <= 1,
            ("bounded", _) => true,
            ("river_literal", _) => f.river_literal,
            ("exists_above", _) => f.sup > SUP_THRESHOLD,
            ("nonempty", _) => f.components > 0,
            ("river_ordered", 1) => f.river_ordered,
            ("river_ordered", _) | ("two_components", 1) => f.components >= 2,
            ("dim1", _) => f.dims[1],
            ("isolated", _) => f.isolated_point,
            ("forall_below", _) => f.sup <= SUP_THRESHOLD,
            ("dim0", _) => f.dims[0],
            ("chem1_in_s", _) => f.chem1_in_s,
            ("two_components", _) => f.dims[2],
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------
// Request schedule
// ---------------------------------------------------------------------

/// Zipf weights `1/(r+1)^s`, normalised.
pub fn zipf(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// A cycle of `len` draws in which item `i` appears `round(len·wᵢ)` times
/// (at least once), spread evenly: occurrence `k` of item `i` is due at
/// `(k + φᵢ)/countᵢ` with a seeded phase `φᵢ`. Every window of the cycle
/// then holds close to its Zipf share of each item, whatever the seed —
/// a seeded i.i.d. draw would make one seed's run heavier than another's.
pub fn stride_schedule(rng: &mut Rng, weights: &[f64], len: usize) -> Vec<usize> {
    let mut due: Vec<(f64, usize)> = Vec::with_capacity(len + weights.len());
    for (i, w) in weights.iter().enumerate() {
        let count = ((w * len as f64).round() as usize).max(1);
        let phase = rng.below(1 << 20) as f64 / (1u64 << 20) as f64;
        due.extend((0..count).map(|k| ((k as f64 + phase) / count as f64, i)));
    }
    due.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    due.into_iter().map(|(_, i)| i).collect()
}

/// One visit: connect, define database `db`, send the `slots`, disconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct Visit {
    pub db: usize,
    pub slots: Vec<usize>,
}

pub const REQUESTS_PER_VISIT: usize = 8;

/// The visit cycle both clients loop over (each from its own offset).
pub fn visit_cycle(seed: u64, databases: usize, len: usize) -> Vec<Visit> {
    let mut rng = Rng::fork(seed, "visit-cycle");
    let dbs = stride_schedule(&mut rng, &zipf(databases, 1.0), len);
    let slots = stride_schedule(
        &mut rng,
        &zipf(SLOTS.len(), 1.0),
        dbs.len() * REQUESTS_PER_VISIT,
    );
    dbs.iter()
        .enumerate()
        .map(|(v, &db)| Visit {
            db,
            slots: (0..REQUESTS_PER_VISIT)
                .map(|k| slots[(v * REQUESTS_PER_VISIT + k) % slots.len()])
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/// The fixed base map of the churn workload: three closed zones of a 3×2
/// block (an L), placed by the seed.
pub struct BaseMap {
    pub defines: Vec<String>,
    /// Lower-left corner and scale of the block.
    pub ox: i64,
    pub oy: i64,
    pub s: i64,
    pub facts: Facts,
}

pub fn churn_base(seed: u64) -> BaseMap {
    let mut rng = Rng::fork(seed, "churn-base");
    // Only the position is seeded: a translation leaves every cycle's
    // arrangement combinatorially the same, a change of scale would not
    // (the wedges' offsets are absolute).
    let (ox, oy, s) = (rng.range(0, 12), rng.range(0, 12), 2);
    let spec = grid_db(
        "base".into(),
        &Grid {
            cells: vec![(0, 0), (1, 0), (2, 1)],
            closed: true,
            ox,
            oy,
            s,
            chem2: true,
        },
    );
    BaseMap {
        // The churn sessions only need S; the river relations would add
        // nothing but Define traffic.
        defines: spec.defines[..1].to_vec(),
        ox,
        oy,
        s,
        facts: spec.facts,
    }
}

/// One churn cycle: a never-before-seen pair of half-planes `P`, and whether
/// it was planted over a point of `S` or pushed clear of the whole map.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnCycle {
    pub define: String,
    pub meets_s: bool,
    /// The planted point (interior of the first zone), when `meets_s`.
    pub planted: (i64, i64),
}

/// Oblique normal pairs; no two normals are parallel to each other or to a
/// grid line, so every `P` is an unbounded wedge.
const WEDGES: [[(i64, i64); 2]; 6] = [
    [(1, 2), (2, -1)],
    [(2, 1), (1, -3)],
    [(3, 1), (1, 3)],
    [(1, 1), (3, -2)],
    [(2, 3), (3, -1)],
    [(1, 4), (4, 1)],
];

/// Cycle `i` of the churn stream. The map `i ↦ (wedge, k1, k2)` is
/// injective, so no two cycles define the same pair of lines.
pub fn churn_cycle(base: &BaseMap, i: u64) -> ChurnCycle {
    let [(a1, b1), (a2, b2)] = WEDGES[(i % 6) as usize];
    let (k1, k2) = (1 + ((i / 6) % 40) as i64, 1 + (i / 240) as i64);
    // Twice the centre of the first zone, so the planted point is integral
    // after doubling both sides of each inequality.
    let (px2, py2) = (2 * base.ox + base.s, 2 * base.oy + base.s);
    let meets_s = i.is_multiple_of(2);
    let lhs1 = lin(&[(2 * a1, "x"), (2 * b1, "y")]);
    let first = if meets_s {
        // Holds strictly at the planted point.
        format!("{} <= {}", lhs1, a1 * px2 + b1 * py2 + k1)
    } else {
        // Beyond the far corner of the block in the direction of the first
        // normal (both components positive): no point of S satisfies it.
        let far = 2 * (a1 * (base.ox + 3 * base.s) + b1 * (base.oy + 2 * base.s));
        format!("{} >= {}", lhs1, far + k1)
    };
    let c2 = a2 * px2 + b2 * py2 - k2;
    ChurnCycle {
        define: format!(
            "P(x, y) := {} and {} >= {}",
            first,
            lin(&[(2 * a2, "x"), (2 * b2, "y")]),
            c2
        ),
        meets_s,
        planted: (px2, py2),
    }
}

/// Reads of a churn cycle, with the verdict known from the plant.
pub const CHURN_READS: [(&str, Op); 4] = [
    ("exists R. R subset P and R subset S", Op::Sentence),
    ("exists x. exists y. P(x, y) and S(x, y)", Op::Sentence),
    ("exists y. P(x, y) and S(x, y)", Op::Query),
    ("exists R. R subset P", Op::Sentence),
];

/// Sentences read from the unchanging base map beside the writes.
pub const BASE_READS: [&str; 8] = [
    CONN,
    BOUNDED,
    DIM0,
    DIM1,
    DIM2,
    ISOLATED,
    NONEMPTY,
    "exists x. exists y. S(x, y) and x + y > 18",
];

pub fn base_read_expected(i: usize, f: &Facts) -> bool {
    match i {
        0 => f.components <= 1,
        1 | 6 => true,
        2 => f.dims[0],
        3 => f.dims[1],
        4 => f.dims[2],
        5 => f.isolated_point,
        _ => f.sup > SUP_THRESHOLD,
    }
}

// ---------------------------------------------------------------------
// fixpoint_batch
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    AnyOne,
    AllOnes,
    Parity,
}

#[derive(Clone, Debug, PartialEq)]
pub enum FixKind {
    /// Compiled Turing machine vs its direct run (Theorem 6.4).
    Capture(Machine),
    Conn,
    TwoComponents,
    RiverLiteral,
    RiverOrdered,
    /// RegTC connectivity over the NC¹ decomposition.
    TcConn,
}

#[derive(Clone, Debug, PartialEq)]
pub struct FixItem {
    pub kind: FixKind,
    pub db: DbSpec,
}

impl FixItem {
    /// Verdict by construction; `None` for capture items, whose oracle is
    /// the direct machine run.
    pub fn expected(&self) -> Option<bool> {
        let f = &self.db.facts;
        match self.kind {
            FixKind::Capture(_) => None,
            FixKind::Conn | FixKind::TcConn => Some(f.components <= 1),
            FixKind::TwoComponents => Some(f.components >= 2),
            FixKind::RiverLiteral => Some(f.river_literal),
            FixKind::RiverOrdered => Some(f.river_ordered),
        }
    }
}

/// A 1-D database with `S` only (the capture and TC items need no river).
fn bare_line_db(name: &str, pieces: &[Piece]) -> DbSpec {
    let hull = (pieces[0].lo, pieces.last().expect("pieces").hi);
    let mut spec = line_db(name.to_string(), pieces, hull, None, None);
    spec.defines.truncate(1);
    spec
}

/// A 2-D database with `S` only, placed by the seed.
fn bare_grid_db(rng: &mut Rng, name: &str, cells: Vec<(i64, i64)>, closed: bool) -> DbSpec {
    let mut spec = grid_db(
        name.to_string(),
        &Grid {
            cells,
            closed,
            ox: rng.range(-9, 9),
            oy: rng.range(-9, 9),
            s: rng.range(1, 4),
            chem2: true,
        },
    );
    spec.defines.truncate(1);
    spec
}

/// `(lo, hi, lo_closed, hi_closed)` in the database's own frame.
type PieceShape = (i64, i64, bool, bool);

/// The three capture databases of the reproduction harness (E10), each
/// paired with one machine.
const CAPTURE: [(&str, Machine, &[PieceShape]); 3] = [
    (
        "capture-a",
        Machine::AnyOne,
        &[
            (0, 1, true, false),
            (3, 3, true, true),
            (5, 6, false, false),
            (8, 8, true, true),
            (10, 10, true, true),
        ],
    ),
    (
        "capture-b",
        Machine::AllOnes,
        &[
            (0, 1, true, true),
            (2, 2, true, true),
            (4, 6, false, false),
            (7, 7, true, true),
            (9, 9, true, true),
        ],
    ),
    (
        "capture-c",
        Machine::Parity,
        &[
            (0, 1, false, false),
            (2, 3, false, false),
            (4, 5, false, false),
            (7, 7, true, true),
        ],
    ),
];

/// `(chem1, chem2)` stretches of the five river scenarios on a river of
/// length 10: the four of the reproduction harness (E7) and one with chem2
/// upstream of a longer chem1.
type Stretch = Option<(i64, i64)>;
const RIVERS: [(Stretch, Stretch); 5] = [
    (Some((1, 2)), Some((4, 5))),
    (Some((4, 5)), Some((1, 2))),
    (Some((1, 2)), None),
    (None, Some((1, 2))),
    (Some((6, 8)), Some((2, 3))),
];

/// One batch of the cold fixed-point workload. The seed moves every
/// database (offset, scale) without changing its region structure.
pub fn fixpoint_items(seed: u64) -> Vec<FixItem> {
    let mut rng = Rng::fork(seed, "fixpoint-items");
    let mut items = Vec::new();
    for (name, machine, shapes) in CAPTURE {
        let (o, s) = (rng.range(-20, 20), rng.range(1, 4));
        let pieces: Vec<Piece> = shapes
            .iter()
            .map(|&(lo, hi, lo_closed, hi_closed)| Piece {
                lo: o + s * lo,
                hi: o + s * hi,
                lo_closed,
                hi_closed,
            })
            .collect();
        items.push(FixItem {
            kind: FixKind::Capture(machine),
            db: bare_line_db(name, &pieces),
        });
    }
    for (kind, cells, closed, name) in [
        (
            FixKind::Conn,
            vec![(0, 0), (1, 1), (2, 2)],
            true,
            "corner-chain-3",
        ),
        (
            FixKind::Conn,
            vec![(0, 0), (1, 0), (2, 1)],
            true,
            "zoning-L",
        ),
        (
            FixKind::Conn,
            (0..5).map(|i| (2 * i, 0)).collect(),
            false,
            "boxes-5",
        ),
        (
            FixKind::TwoComponents,
            (0..3).map(|i| (2 * i, 0)).collect(),
            false,
            "boxes-3",
        ),
    ] {
        items.push(FixItem {
            kind,
            db: bare_grid_db(&mut rng, name, cells, closed),
        });
    }
    for (i, (c1, c2)) in RIVERS.into_iter().enumerate() {
        let (o, s) = (rng.range(-20, 20), rng.range(1, 4));
        let at = |p: i64| o + s * p;
        let map = |c: Stretch| c.map(|(a, b)| (at(a), at(b)));
        let db = line_db(
            format!("river-{i}"),
            &[Piece::closed(at(0), at(10))],
            (at(0), at(10)),
            map(c1),
            map(c2),
        );
        items.push(FixItem {
            kind: FixKind::RiverLiteral,
            db: db.clone(),
        });
        items.push(FixItem {
            kind: FixKind::RiverOrdered,
            db,
        });
    }
    // RegTC reachability over the NC¹ decomposition: one connected and one
    // disconnected map.
    items.push(FixItem {
        kind: FixKind::TcConn,
        db: bare_grid_db(&mut rng, "tc-corner-chain-2", vec![(0, 0), (1, 1)], true),
    });
    let (o, s) = (rng.range(-9, 9), rng.range(1, 4));
    items.push(FixItem {
        kind: FixKind::TcConn,
        db: bare_line_db(
            "tc-two-intervals",
            &[Piece::closed(o, o + s), Piece::closed(o + 3 * s, o + 4 * s)],
        ),
    });
    items
}

// ---------------------------------------------------------------------
// geom_build
// ---------------------------------------------------------------------

/// A family of hyperplanes `a·x = b` in `ℝ^d`, rows `[a_1..a_d, b]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    pub d: usize,
    pub planes: Vec<Vec<i64>>,
}

/// `n` hyperplanes in general position, verified in the benchmark's own
/// integer arithmetic (`oracle::general_position`) as each one is added.
pub fn general_family(rng: &mut Rng, d: usize, n: usize) -> Family {
    let mut planes: Vec<Vec<i64>> = Vec::with_capacity(n);
    while planes.len() < n {
        let mut row: Vec<i64> = (0..d).map(|_| rng.range(-9, 9)).collect();
        if d == 1 {
            // Points on the line: keep the normal 1 so the seed only moves them.
            row[0] = 1;
        }
        row.push(rng.range(-60, 60));
        planes.push(row);
        if !oracle::general_position(d, &planes) {
            planes.pop();
        }
    }
    Family { d, planes }
}

/// A convex polygon with `k` edges as half-planes `a·x + b·y ≥ c`, plus a
/// point strictly inside it. Built from `k/2` pairwise non-parallel edge
/// vectors and their negatives, sorted by angle: the edges close up and
/// the polygon is centrally symmetric, so it has exactly `k` vertices.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    pub k: usize,
    pub halfplanes: Vec<[i64; 3]>,
    /// Twice an interior point (the centre of symmetry), kept doubled so it
    /// stays integral.
    pub centre2: (i64, i64),
}

pub fn convex_polygon(rng: &mut Rng, k: usize) -> Polygon {
    assert!(k >= 4 && k.is_multiple_of(2));
    let mut dirs: Vec<(i64, i64)> = Vec::new();
    while dirs.len() < k / 2 {
        // Upper half-plane directions, pairwise non-parallel.
        let v = (rng.range(-12, 12), rng.range(0, 12));
        if v == (0, 0) || (v.1 == 0 && v.0 < 0) {
            continue;
        }
        if dirs.iter().all(|u| u.0 * v.1 - u.1 * v.0 != 0) {
            dirs.push(v);
        }
    }
    // Counter-clockwise by angle in the upper half-plane: cross product order.
    dirs.sort_by(|u, v| (v.0 * u.1 - v.1 * u.0).cmp(&0));
    let edges: Vec<(i64, i64)> = dirs
        .iter()
        .copied()
        .chain(dirs.iter().map(|&(x, y)| (-x, -y)))
        .collect();
    let start = (rng.range(-20, 20), rng.range(-20, 20));
    let mut vertices = vec![start];
    for e in &edges[..k - 1] {
        let last = *vertices.last().expect("start");
        vertices.push((last.0 + e.0, last.1 + e.1));
    }
    // Interior lies to the left of each counter-clockwise edge p → q:
    // -(qy-py)·x + (qx-px)·y ≥ -(qy-py)·px + (qx-px)·py.
    let halfplanes = (0..k)
        .map(|i| {
            let (p, q) = (vertices[i], vertices[(i + 1) % k]);
            let (a, b) = (-(q.1 - p.1), q.0 - p.0);
            [a, b, a * p.0 + b * p.1]
        })
        .collect();
    let opposite = vertices[k / 2];
    Polygon {
        k,
        halfplanes,
        centre2: (start.0 + opposite.0, start.1 + opposite.1),
    }
}

impl Polygon {
    pub fn define(&self) -> String {
        let atoms: Vec<String> = self
            .halfplanes
            .iter()
            .map(|&[a, b, c]| format!("{} >= {}", lin(&[(a, "x"), (b, "y")]), c))
            .collect();
        format!("S(x, y) := {}", atoms.join(" and "))
    }
}

/// An edit of the base arrangement: insert a new line or remove line `i`.
#[derive(Clone, Debug, PartialEq)]
pub enum Edit {
    Insert(Vec<i64>),
    Remove(usize),
}

pub struct GeomBatch {
    pub families: Vec<Family>,
    pub polygons: Vec<Polygon>,
    /// Index into `families` of the arrangement the edits apply to.
    pub edit_base: usize,
    pub edits: Vec<Edit>,
}

pub const GEOM_SIZES: [(usize, &[usize]); 3] =
    [(1, &[8, 16, 32]), (2, &[8, 10, 12]), (3, &[5, 6, 7])];
pub const POLYGON_SIZES: [usize; 3] = [8, 12, 16];
pub const EDIT_BASE: (usize, usize) = (2, 12);
pub const INSERTS: usize = 2;
pub const REMOVES: usize = 9;

/// The seed of every generated *shape*: the hyperplane families, polygons
/// and trajectories are the same for every `--seed`; the run's seed only
/// moves them (see [`Motion`]). Exact-arithmetic cost depends on the
/// combinatorics and bit lengths of an instance, and two random instances
/// of one size differ by 10–20 % — more than the regression bounds. A moved
/// copy of one instance costs the same and is still a different input.
const SHAPES: u64 = 0x5ca1_ab1e;

/// An invertible integer map of `ℝ^d`: permute the axes, flip some, scale
/// by a positive integer and translate. It keeps general position, face
/// censuses, convexity and every verdict, and changes every coefficient.
struct Motion {
    perm: Vec<usize>,
    flip: Vec<i64>,
    scale: i64,
    shift: Vec<i64>,
}

impl Motion {
    fn seeded(rng: &mut Rng, d: usize, max_scale: i64, max_shift: i64) -> Motion {
        let mut perm: Vec<usize> = (0..d).collect();
        rng.shuffle(&mut perm);
        Motion {
            perm,
            flip: (0..d)
                .map(|_| if rng.below(2) == 0 { 1 } else { -1 })
                .collect(),
            scale: rng.range(1, max_scale),
            shift: (0..d).map(|_| rng.range(-max_shift, max_shift)).collect(),
        }
    }

    /// Image of the point `x`: `y_i = flip_i · scale · x_perm(i) + shift_i`.
    fn point(&self, x: &[i64]) -> Vec<i64> {
        (0..x.len())
            .map(|i| self.flip[i] * self.scale * x[self.perm[i]] + self.shift[i])
            .collect()
    }

    /// Image of the hyperplane (or half-space) `a·x ⋈ b`, as `[a'.., b']`
    /// with `a'_i = flip_i · a_perm(i)` and `b' = scale·b + a'·shift`.
    fn plane(&self, row: &[i64]) -> Vec<i64> {
        let d = row.len() - 1;
        let mut out: Vec<i64> = (0..d).map(|i| self.flip[i] * row[self.perm[i]]).collect();
        let b = self.scale * row[d] + out.iter().zip(&self.shift).map(|(a, t)| a * t).sum::<i64>();
        out.push(b);
        out
    }
}

pub fn geom_batch(seed: u64) -> GeomBatch {
    let mut shape = Rng::fork(SHAPES, "geom-shapes");
    let mut rng = Rng::fork(seed, "geom-motion");
    let mut families = Vec::new();
    let mut edit_base = 0;
    let mut edits = Vec::new();
    for (d, ns) in GEOM_SIZES {
        for &n in ns {
            let base = general_family(&mut shape, d, n);
            let motion = Motion::seeded(&mut rng, d, 1, 6);
            if (d, n) == EDIT_BASE {
                edit_base = families.len();
                // Each edit applies to the base arrangement on its own, so
                // every batch costs the same. An inserted line keeps the
                // family in general position.
                while edits.len() < INSERTS {
                    let row = vec![shape.range(-9, 9), shape.range(-9, 9), shape.range(-60, 60)];
                    let mut extended = base.planes.clone();
                    extended.push(row.clone());
                    if oracle::general_position(d, &extended) {
                        edits.push(Edit::Insert(motion.plane(&row)));
                    }
                }
                let mut victims: Vec<usize> = (0..n).collect();
                shape.shuffle(&mut victims);
                edits.extend(victims[..REMOVES].iter().map(|&i| Edit::Remove(i)));
            }
            families.push(Family {
                d,
                planes: base.planes.iter().map(|row| motion.plane(row)).collect(),
            });
        }
    }
    let polygons = POLYGON_SIZES
        .iter()
        .map(|&k| {
            let base = convex_polygon(&mut shape, k);
            let motion = Motion::seeded(&mut rng, 2, 1, 9);
            let centre = motion.point(&[base.centre2.0, base.centre2.1]);
            Polygon {
                k,
                halfplanes: base
                    .halfplanes
                    .iter()
                    .map(|h| {
                        let moved = motion.plane(h);
                        [moved[0], moved[1], moved[2]]
                    })
                    .collect(),
                // The doubled centre moves with twice the shift.
                centre2: (centre[0] + motion.shift[0], centre[1] + motion.shift[1]),
            }
        })
        .collect();
    GeomBatch {
        families,
        polygons,
        edit_base,
        edits,
    }
}

// ---------------------------------------------------------------------
// qe_alibi
// ---------------------------------------------------------------------

/// Time step between trajectory samples; with speed bound 1 and steps of at
/// most 2 per axis every bead has room to spare.
const DT: i64 = 4;

/// Two moving objects as unions of L∞ space-time prisms ("beads") along
/// piecewise-linear trajectories, and what is known about them.
#[derive(Clone, Debug, PartialEq)]
pub struct AlibiPair {
    pub n: usize,
    /// `T(t)`, `A(t, x, y)`, `B(t, x, y)`.
    pub defines: Vec<String>,
    /// A sample point shared by both trajectories, or `None` when the two
    /// are separated by a gap in `x`.
    pub planted: Option<(i64, i64, i64)>,
    /// Box sentence `forall t,x,y. A(t,x,y) -> box` and whether A fits.
    pub box_sentence: String,
    pub box_holds: bool,
    /// Every sample time (for probing the "when" answer of separated pairs).
    pub sample_times: Vec<i64>,
    /// The prisms of A and B as atom rows `[ct, cx, cy, c]` meaning
    /// `ct·t + cx·x + cy·y ≤ c`, ten per prism, for the benchmark-side
    /// substitution check.
    pub prisms_a: Vec<Vec<[i64; 4]>>,
    pub prisms_b: Vec<Vec<[i64; 4]>>,
}

fn walk(rng: &mut Rng, n: usize, x0: i64) -> Vec<(i64, i64, i64)> {
    let mut pts = vec![(0, x0, 0)];
    for i in 1..=n {
        let (_, x, y) = pts[i - 1];
        pts.push((DT * i as i64, x + rng.range(-2, 2), y + rng.range(-2, 2)));
    }
    pts
}

/// The ten atoms of the bead between two samples, in light-cone form: the
/// object left `(x0, y0)` at `t0` and reaches `(x1, y1)` at `t1` with speed
/// at most 1 on each axis.
fn bead(p: (i64, i64, i64), q: (i64, i64, i64)) -> Vec<[i64; 4]> {
    let ((t0, x0, y0), (t1, x1, y1)) = (p, q);
    vec![
        [-1, 0, 0, -t0],
        [1, 0, 0, t1],
        [-1, -1, 0, -(x0 + t0)],
        [1, 1, 0, x1 + t1],
        [1, -1, 0, -(x1 - t1)],
        [-1, 1, 0, x0 - t0],
        [-1, 0, -1, -(y0 + t0)],
        [1, 0, 1, y1 + t1],
        [1, 0, -1, -(y1 - t1)],
        [-1, 0, 1, y0 - t0],
    ]
}

fn prisms_define(name: &str, prisms: &[Vec<[i64; 4]>]) -> String {
    let body: Vec<String> = prisms
        .iter()
        .map(|atoms| {
            let parts: Vec<String> = atoms
                .iter()
                .map(|&[ct, cx, cy, c]| {
                    format!("{} <= {}", lin(&[(ct, "t"), (cx, "x"), (cy, "y")]), c)
                })
                .collect();
            format!("({})", parts.join(" and "))
        })
        .collect();
    format!("{}(t, x, y) := {}", name, body.join(" or "))
}

/// Does the point satisfy every atom of some prism? Plain integer
/// arithmetic: this is the substitution the planted-point oracle rests on.
pub fn in_prisms(prisms: &[Vec<[i64; 4]>], (t, x, y): (i64, i64, i64)) -> bool {
    prisms.iter().any(|atoms| {
        atoms
            .iter()
            .all(|&[ct, cx, cy, c]| ct * t + cx * x + cy * y <= c)
    })
}

/// One pair of objects: the shape (both walks, where they meet or how far
/// apart they are, whether the box fits) comes from `rng`; `motion` then
/// moves both objects rigidly in the plane (speed bounds need scale 1).
fn alibi_pair(rng: &mut Rng, motion: &Motion, n: usize, meet: bool) -> AlibiPair {
    let mut a = walk(rng, n, 0);
    let mut b = walk(rng, n, 0);
    let planted = if meet {
        // Translate B so both pass through A's sample at a seeded index.
        let k = rng.range(1, n as i64 - 1) as usize;
        let (dx, dy) = (a[k].1 - b[k].1, a[k].2 - b[k].2);
        for p in b.iter_mut() {
            p.1 += dx;
            p.2 += dy;
        }
        Some(k)
    } else {
        // A bead reaches at most DT beyond its samples on either axis; push
        // B clear of A in x.
        let a_max = a.iter().map(|p| p.1).max().expect("samples") + DT;
        let b_min = b.iter().map(|p| p.1).min().expect("samples") - DT;
        let shift = a_max - b_min + rng.range(1, 6);
        for p in b.iter_mut() {
            p.1 += shift;
        }
        None
    };
    let box_holds = rng.below(2) == 0;
    for p in a.iter_mut().chain(b.iter_mut()) {
        let moved = motion.point(&[p.1, p.2]);
        (p.1, p.2) = (moved[0], moved[1]);
    }
    let planted = planted.map(|k| a[k]);
    let beads = |pts: &[(i64, i64, i64)]| -> Vec<Vec<[i64; 4]>> {
        pts.windows(2).map(|w| bead(w[0], w[1])).collect()
    };
    let (prisms_a, prisms_b) = (beads(&a), beads(&b));
    // A bead's extent on an axis is [(x0+x1-DT)/2, (x0+x1+DT)/2]; doubled
    // bounds stay integral. The box either fits A exactly or cuts one unit
    // off its top in x.
    let ext = |sel: fn(&(i64, i64, i64)) -> i64| {
        let sums: Vec<i64> = a.windows(2).map(|w| sel(&w[0]) + sel(&w[1])).collect();
        (
            sums.iter().min().expect("beads") - DT,
            sums.iter().max().expect("beads") + DT,
        )
    };
    let ((xlo2, xhi2), (ylo2, yhi2)) = (ext(|p| p.1), ext(|p| p.2));
    let xhi2 = if box_holds { xhi2 } else { xhi2 - 1 };
    AlibiPair {
        n,
        defines: vec![
            format!("T(t) := 0 <= t and t <= {}", DT * n as i64),
            prisms_define("A", &prisms_a),
            prisms_define("B", &prisms_b),
        ],
        planted,
        box_sentence: format!(
            "forall t. forall x. forall y. A(t, x, y) -> ({xlo2} <= 2*x and 2*x <= {xhi2} and {ylo2} <= 2*y and 2*y <= {yhi2})"
        ),
        box_holds,
        sample_times: a.iter().map(|p| p.0).collect(),
        prisms_a,
        prisms_b,
    }
}

pub const ALIBI_SENTENCE: &str = "exists t. exists x. exists y. A(t, x, y) and B(t, x, y)";
pub const ALIBI_WHEN: &str = "exists x. exists y. A(t, x, y) and B(t, x, y)";
pub const ALIBI_SIZES: [usize; 3] = [8, 16, 32];
/// Pairs per size and kind in one batch.
pub const ALIBI_REPEATS: usize = 2;

/// One batch: for each size, `ALIBI_REPEATS` meeting and as many separated
/// pairs.
pub fn alibi_batch(seed: u64) -> Vec<AlibiPair> {
    let mut shape = Rng::fork(SHAPES, "alibi-shapes");
    let mut rng = Rng::fork(seed, "alibi-motion");
    let mut pairs = Vec::new();
    for n in ALIBI_SIZES {
        for _ in 0..ALIBI_REPEATS {
            for meet in [true, false] {
                let motion = Motion::seeded(&mut rng, 2, 1, 40);
                pairs.push(alibi_pair(&mut shape, &motion, n, meet));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lin_renders_signs() {
        assert_eq!(lin(&[(2, "x"), (-1, "y")]), "2*x - y");
        assert_eq!(lin(&[(-1, "x"), (0, "y"), (3, "z")]), "-x + 3*z");
        assert_eq!(lin(&[(0, "x")]), "0");
    }

    #[test]
    fn same_seed_same_bytes() {
        // Debug renderings cover every generated field.
        let all = |seed: u64| {
            format!(
                "{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
                served_databases(seed, 48),
                visit_cycle(seed, 48, 240),
                (0..50)
                    .map(|i| churn_cycle(&churn_base(seed), i))
                    .collect::<Vec<_>>(),
                fixpoint_items(seed),
                {
                    let g = geom_batch(seed);
                    (g.families, g.polygons, g.edits)
                },
                alibi_batch(seed),
                churn_base(seed).defines,
            )
        };
        assert_eq!(all(7), all(7));
        assert_ne!(all(7), all(8));
    }

    #[test]
    fn schedule_counts_do_not_depend_on_the_seed() {
        let count = |seed: u64| {
            let cycle = visit_cycle(seed, 48, 240);
            let mut dbs = vec![0usize; 48];
            let mut slots = vec![0usize; SLOTS.len()];
            for v in &cycle {
                dbs[v.db] += 1;
                assert_eq!(v.slots.len(), REQUESTS_PER_VISIT);
                for &s in &v.slots {
                    slots[s] += 1;
                }
            }
            (cycle.len(), dbs, slots)
        };
        assert_eq!(count(1), count(99));
        let (len, dbs, _) = count(1);
        assert!(dbs.iter().all(|&c| c >= 1) && dbs[0] > 10 * dbs[47]);
        assert!((230..=260).contains(&len));
    }

    #[test]
    fn churn_cycles_are_distinct_and_planted() {
        let base = churn_base(3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3000 {
            let c = churn_cycle(&base, i);
            assert!(seen.insert(c.define.clone()), "cycle {i} repeats");
            assert_eq!(c.meets_s, i % 2 == 0);
        }
    }

    #[test]
    fn planted_points_lie_in_both_objects() {
        // Doubled extent of a bead on an axis, read back from its atoms
        // (`col` 1 is x, 2 is y): t + x ≤ c and -t + x ≤ c' give 2x ≤ c + c'.
        let extent2 = |bead: &[[i64; 4]], col: usize| {
            let sum = |sign_t: i64, sign_x: i64| {
                bead.iter()
                    .find(|a| a[0] == sign_t && a[col] == sign_x)
                    .expect("light-cone atom")[3]
            };
            (-(sum(-1, -1) + sum(1, -1)), sum(1, 1) + sum(-1, 1))
        };
        for pair in alibi_batch(5) {
            assert_eq!(pair.prisms_a.len(), pair.n);
            assert!(pair.prisms_a.iter().all(|p| p.len() == 10));
            match pair.planted {
                Some(p) => assert!(in_prisms(&pair.prisms_a, p) && in_prisms(&pair.prisms_b, p)),
                None => {
                    // Some axis separates every bead of A from every bead of B.
                    let separated = (1..=2).any(|col| {
                        let a_hi = pair
                            .prisms_a
                            .iter()
                            .map(|b| extent2(b, col).1)
                            .max()
                            .unwrap();
                        let a_lo = pair
                            .prisms_a
                            .iter()
                            .map(|b| extent2(b, col).0)
                            .min()
                            .unwrap();
                        let b_hi = pair
                            .prisms_b
                            .iter()
                            .map(|b| extent2(b, col).1)
                            .max()
                            .unwrap();
                        let b_lo = pair
                            .prisms_b
                            .iter()
                            .map(|b| extent2(b, col).0)
                            .min()
                            .unwrap();
                        a_hi < b_lo || b_hi < a_lo
                    });
                    assert!(separated);
                }
            }
        }
    }

    #[test]
    fn motions_keep_general_position_and_move_everything() {
        let (one, two) = (geom_batch(1), geom_batch(2));
        for (f, g) in one.families.iter().zip(&two.families) {
            assert!(oracle::general_position(f.d, &f.planes));
            assert_eq!(f.planes.len(), g.planes.len());
            assert_ne!(f.planes, g.planes);
        }
        // An inserted line keeps the moved family in general position.
        for batch in [&one, &two] {
            let base = &batch.families[batch.edit_base];
            for e in &batch.edits {
                if let Edit::Insert(row) = e {
                    let mut extended = base.planes.clone();
                    extended.push(row.clone());
                    assert!(oracle::general_position(base.d, &extended));
                }
            }
        }
    }

    #[test]
    fn polygons_are_convex_with_k_edges() {
        let mut rng = Rng::new(11);
        let fresh: Vec<Polygon> = POLYGON_SIZES
            .iter()
            .map(|&k| convex_polygon(&mut rng, k))
            .collect();
        for p in fresh
            .iter()
            .chain(&geom_batch(3).polygons)
            .chain(&geom_batch(4).polygons)
        {
            assert_eq!(p.halfplanes.len(), p.k);
            // The centre satisfies every half-plane strictly.
            for [a, b, c] in p.halfplanes.iter().copied() {
                assert!(a * p.centre2.0 + b * p.centre2.1 > 2 * c);
            }
        }
    }

    #[test]
    fn families_are_in_general_position() {
        let g = geom_batch(2);
        for f in &g.families {
            assert!(oracle::general_position(f.d, &f.planes));
        }
        assert_eq!(g.families[g.edit_base].planes.len(), EDIT_BASE.1);
        assert_eq!(g.edits.len(), INSERTS + REMOVES);
    }
}
