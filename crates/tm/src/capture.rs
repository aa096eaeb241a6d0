//! The capture experiment for Theorem 6.4.
//!
//! The theorem's hard direction compiles a Turing machine into a fixed-point
//! sentence `φ_M = START ∧ COMPUTE ∧ END` whose region tuples index time
//! steps and tape positions; as in the paper's proof, all quantification
//! effectively ranges over the 0-dimensional regions. We make the
//! construction executable for *linear-time, linear-space* machines: one
//! 0-dimensional region per time step and per tape cell. The input
//! convention mirrors the tape encoding: cell `r` (rank `r` in the
//! 0-dimensional region order) carries `1` iff the `r`-th 0-dimensional
//! region is contained in `S`, and the last cell carries the end marker `E`,
//! so a machine can decide a property of the membership bit-vector in a
//! single left-to-right pass.
//!
//! Everything is expressed *inside the logic*: the order on 0-dimensional
//! regions is the paper's lexicographic order, defined with element
//! quantifiers, and the run is an inflationary fixed point over 4-tuples of
//! regions `(kind, time, position, value)` where `kind` distinguishes tape
//! facts from head facts.

use crate::machine::{Move, Tm, TmOutcome};
use lcdb_core::{Evaluator, FixMode, RegFormula};
use lcdb_logic::{Atom, LinExpr, Rel};
use std::collections::HashMap;
use std::sync::Arc;

/// `dim(P) = 0` — `P` is a point region.
pub fn zero_dim(p: &str) -> RegFormula {
    RegFormula::DimEq(p.to_string(), 0)
}

/// Lexicographic order on point regions, defined with element quantifiers
/// exactly as in §6: `P < Q` iff the points they contain compare
/// lexicographically. `d` is the ambient dimension.
pub fn lex_less(d: usize, p: &str, q: &str) -> RegFormula {
    Order::new(d).lex_less(p, q)
}

/// `P` is the first point region in the order.
pub fn first(d: usize, p: &str) -> RegFormula {
    Order::new(d).first(p)
}

/// `P` is the last point region in the order.
pub fn last(d: usize, p: &str) -> RegFormula {
    Order::new(d).last(p, "__q")
}

/// `Q` is the immediate successor of `P` in the order.
pub fn succ(d: usize, p: &str, q: &str) -> RegFormula {
    Order::new(d).succ(p, q)
}

/// `P` is the `k`-th point region, `k ≥ 1` (a chain of successors).
pub fn rank_is(d: usize, p: &str, k: usize) -> RegFormula {
    Order::new(d).rank_is(p, k)
}

/// The order formulas of one sentence, each built once per argument tuple.
/// A reuse is a clone, which copies the top layer and shares the rest
/// through `Arc`, so `compile` lowers it once. Owned by one call.
struct Order {
    d: usize,
    built: HashMap<String, RegFormula>,
}

impl Order {
    fn new(d: usize) -> Self {
        Order {
            d,
            built: HashMap::new(),
        }
    }

    fn memo(&mut self, key: String, build: impl FnOnce(&mut Self) -> RegFormula) -> RegFormula {
        if let Some(f) = self.built.get(&key) {
            return f.clone();
        }
        let f = build(self);
        self.built.insert(key, f.clone());
        f
    }

    fn lex_less(&mut self, p: &str, q: &str) -> RegFormula {
        self.memo(format!("lex {p} {q}"), |o| {
            let xs: Vec<String> = (0..o.d).map(|i| format!("__lx{}", i)).collect();
            let ys: Vec<String> = (0..o.d).map(|i| format!("__ly{}", i)).collect();
            // lex(x̄ < ȳ) = ⋁_i (x_1 = y_1 ∧ … ∧ x_{i-1} = y_{i-1} ∧ x_i < y_i)
            let mut lex = Vec::new();
            for i in 0..o.d {
                let mut conj = Vec::new();
                for j in 0..i {
                    conj.push(RegFormula::Lin(Atom::new(
                        LinExpr::var(xs[j].clone()),
                        Rel::Eq,
                        LinExpr::var(ys[j].clone()),
                    )));
                }
                conj.push(RegFormula::Lin(Atom::new(
                    LinExpr::var(xs[i].clone()),
                    Rel::Lt,
                    LinExpr::var(ys[i].clone()),
                )));
                lex.push(RegFormula::and(conj));
            }
            let mut body = RegFormula::and(vec![
                RegFormula::In(
                    xs.iter().map(|v| LinExpr::var(v.clone())).collect(),
                    p.to_string(),
                ),
                RegFormula::In(
                    ys.iter().map(|v| LinExpr::var(v.clone())).collect(),
                    q.to_string(),
                ),
                RegFormula::or(lex),
            ]);
            for v in xs.iter().chain(ys.iter()).rev() {
                body = RegFormula::exists_elem(v.clone(), body);
            }
            RegFormula::and(vec![zero_dim(p), zero_dim(q), body])
        })
    }

    fn first(&mut self, p: &str) -> RegFormula {
        self.memo(format!("first {p}"), |o| {
            let below = o.lex_less("__q", p);
            RegFormula::and(vec![
                zero_dim(p),
                RegFormula::not(RegFormula::exists_region("__q", below)),
            ])
        })
    }

    /// `P` is the last point region; `q` names the bound witness.
    fn last(&mut self, p: &str, q: &str) -> RegFormula {
        self.memo(format!("last {p} {q}"), |o| {
            let above = o.lex_less(p, q);
            RegFormula::and(vec![
                zero_dim(p),
                RegFormula::not(RegFormula::exists_region(q, above)),
            ])
        })
    }

    fn succ(&mut self, p: &str, q: &str) -> RegFormula {
        self.memo(format!("succ {p} {q}"), |o| {
            let between = RegFormula::and(vec![o.lex_less(p, "__z"), o.lex_less("__z", q)]);
            RegFormula::and(vec![
                o.lex_less(p, q),
                RegFormula::not(RegFormula::exists_region("__z", between)),
            ])
        })
    }

    fn rank_is(&mut self, p: &str, k: usize) -> RegFormula {
        assert!(k >= 1);
        if k == 1 {
            return self.first(p);
        }
        self.memo(format!("rank {p} {k}"), |o| {
            let prev = format!("__r{}", k - 1);
            let chain = RegFormula::and(vec![o.rank_is(&prev, k - 1), o.succ(&prev, p)]);
            RegFormula::exists_region(prev, chain)
        })
    }
}

/// Symbols a compiled machine's tape may carry.
const SYMBOLS: [u8; 3] = [b'0', b'1', b'E'];

fn symbol_rank(sym: u8) -> usize {
    match sym {
        b'0' => 1,
        b'1' => 2,
        b'E' => 3,
        other => panic!(
            "compiled machines use the alphabet {{0, 1, E}}, got '{}'",
            other as char
        ),
    }
}

fn state_rank(q: usize) -> usize {
    SYMBOLS.len() + q + 1
}

/// Compile a linear-time machine over the alphabet `{0, 1, E}` into a region
/// fixed-point sentence (the `φ_M` of Theorem 6.4, restricted to one region
/// per time step / tape cell).
///
/// Tag regions: the `k`-th point region encodes symbol index `k` (1..=3) and
/// state `q` as rank `4 + q`. The database must therefore have at least
/// `3 + num_states` 0-dimensional regions — checked by [`capture_agreement`].
///
/// The single inflationary fixed point ranges over 4-tuples `(K, T, P, A)`:
/// with `K` the first point region the fact reads "cell `P` holds symbol `A`
/// at time `T`"; with `K` the second, "the head is at `P` in state `A` at
/// time `T`".
///
/// The sentence is a DAG: the fixpoint body is built once and shared by its
/// three applications, and each order formula once per argument tuple.
pub fn compile_linear_tm(tm: &Tm, d: usize) -> RegFormula {
    let mut o = Order::new(d);
    let m_app = |k: &str, t: &str, p: &str, a: &str| {
        RegFormula::SetApp(
            "M".into(),
            vec![k.to_string(), t.to_string(), p.to_string(), a.to_string()],
        )
    };
    // Input symbol of cell P: 'E' on the last cell, else the membership bit.
    let is_last = o.last("P", "__n");
    let not_last = RegFormula::not(is_last.clone());
    let sym_init = RegFormula::or(vec![
        RegFormula::and(vec![is_last, o.rank_is("A", symbol_rank(b'E'))]),
        RegFormula::and(vec![
            not_last.clone(),
            RegFormula::SubsetOf("P".into(), "S".into()),
            o.rank_is("A", symbol_rank(b'1')),
        ]),
        RegFormula::and(vec![
            not_last,
            RegFormula::not(RegFormula::SubsetOf("P".into(), "S".into())),
            o.rank_is("A", symbol_rank(b'0')),
        ]),
    ]);

    // SYM rules (K = K1): the tape over time.
    let sym_base = RegFormula::and(vec![o.first("T"), sym_init]);
    let sym_copy = RegFormula::exists_region(
        "T0",
        RegFormula::and(vec![
            o.succ("T0", "T"),
            m_app("K1", "T0", "P", "A"),
            RegFormula::exists_region(
                "P0",
                RegFormula::exists_region(
                    "A0",
                    RegFormula::and(vec![
                        m_app("K2", "T0", "P0", "A0"),
                        RegFormula::not(RegFormula::RegionEq("P0".into(), "P".into())),
                    ]),
                ),
            ),
        ]),
    );
    let mut sym_writes = Vec::new();
    for (&(q, s), &(_, w, _)) in &tm.delta {
        sym_writes.push(RegFormula::exists_region(
            "T0",
            RegFormula::and(vec![
                o.succ("T0", "T"),
                RegFormula::exists_region(
                    "A0",
                    RegFormula::and(vec![
                        m_app("K2", "T0", "P", "A0"),
                        o.rank_is("A0", state_rank(q)),
                    ]),
                ),
                RegFormula::exists_region(
                    "S0",
                    RegFormula::and(vec![
                        m_app("K1", "T0", "P", "S0"),
                        o.rank_is("S0", symbol_rank(s)),
                    ]),
                ),
                o.rank_is("A", symbol_rank(w)),
            ]),
        ));
    }
    let sym_rule = RegFormula::and(vec![
        RegFormula::RegionEq("K".into(), "K1".into()),
        RegFormula::or(
            std::iter::once(sym_base)
                .chain(std::iter::once(sym_copy))
                .chain(sym_writes)
                .collect(),
        ),
    ]);

    // HEAD rules (K = K2): position and state over time.
    let head_base = RegFormula::and(vec![
        o.first("T"),
        o.first("P"),
        o.rank_is("A", state_rank(0)),
    ]);
    let mut head_steps = Vec::new();
    for (&(q, s), &(q2, _, mv)) in &tm.delta {
        let pos_rel = match mv {
            Move::Right => o.succ("P0", "P"),
            Move::Left => o.succ("P", "P0"),
            Move::Stay => RegFormula::RegionEq("P0".into(), "P".into()),
        };
        head_steps.push(RegFormula::exists_region(
            "T0",
            RegFormula::and(vec![
                o.succ("T0", "T"),
                RegFormula::exists_region(
                    "P0",
                    RegFormula::and(vec![
                        RegFormula::exists_region(
                            "A0",
                            RegFormula::and(vec![
                                m_app("K2", "T0", "P0", "A0"),
                                o.rank_is("A0", state_rank(q)),
                            ]),
                        ),
                        RegFormula::exists_region(
                            "S0",
                            RegFormula::and(vec![
                                m_app("K1", "T0", "P0", "S0"),
                                o.rank_is("S0", symbol_rank(s)),
                            ]),
                        ),
                        pos_rel,
                    ]),
                ),
                o.rank_is("A", state_rank(q2)),
            ]),
        ));
    }
    let head_rule = RegFormula::and(vec![
        RegFormula::RegionEq("K".into(), "K2".into()),
        RegFormula::or(std::iter::once(head_base).chain(head_steps).collect()),
    ]);

    // The body: cheap sort guards first, then the tag bindings, then rules.
    let body = Arc::new(RegFormula::and(vec![
        zero_dim("K"),
        zero_dim("T"),
        zero_dim("P"),
        zero_dim("A"),
        RegFormula::exists_region(
            "K1",
            RegFormula::and(vec![
                o.first("K1"),
                RegFormula::exists_region(
                    "K2",
                    RegFormula::and(vec![
                        o.succ("K1", "K2"),
                        RegFormula::or(vec![sym_rule, head_rule]),
                    ]),
                ),
            ]),
        ),
    ]));

    // END: the machine accepts within the time horizon, detected either
    // directly (a head fact in the accepting state) or one step ahead (a
    // reachable configuration whose transition enters the accepting state —
    // needed because a machine that decides on the last cell would enter
    // `accept` at time n+1, one past the last time tag). The lookahead reads
    // the symbol under the head with a second application of the same fixed
    // point (the evaluator computes it once and answers both).
    let fix = |args: [&str; 4]| RegFormula::Fix {
        mode: FixMode::Ifp,
        set_var: "M".into(),
        vars: vec!["K".into(), "T".into(), "P".into(), "A".into()],
        body: body.clone(),
        args: args.iter().map(|a| a.to_string()).collect(),
    };
    let direct_accept = RegFormula::and(vec![
        o.rank_is("Aa", state_rank(tm.accept)),
        fix(["Ka", "Ta", "Pa", "Aa"]),
    ]);
    let mut lookahead_cases = Vec::new();
    for (&(q, sym), &(q2, _, _)) in &tm.delta {
        if q2 == tm.accept {
            lookahead_cases.push(RegFormula::and(vec![
                o.rank_is("Aa", state_rank(q)),
                RegFormula::exists_region(
                    "Ks",
                    RegFormula::and(vec![
                        o.first("Ks"),
                        RegFormula::exists_region(
                            "Sa",
                            RegFormula::and(vec![
                                fix(["Ks", "Ta", "Pa", "Sa"]),
                                o.rank_is("Sa", symbol_rank(sym)),
                            ]),
                        ),
                    ]),
                ),
            ]));
        }
    }
    let lookahead = RegFormula::and(vec![
        fix(["Ka", "Ta", "Pa", "Aa"]),
        RegFormula::or(lookahead_cases),
    ]);
    RegFormula::exists_region(
        "Ka",
        RegFormula::and(vec![
            o.rank_is("Ka", 2),
            RegFormula::exists_region(
                "Ta",
                RegFormula::and(vec![
                    zero_dim("Ta"),
                    RegFormula::exists_region(
                        "Pa",
                        RegFormula::and(vec![
                            zero_dim("Pa"),
                            RegFormula::exists_region(
                                "Aa",
                                RegFormula::and(vec![
                                    zero_dim("Aa"),
                                    RegFormula::or(vec![direct_accept, lookahead]),
                                ]),
                            ),
                        ]),
                    ),
                ]),
            ),
        ]),
    )
}

/// Direct side of the experiment: build the machine's input word from the
/// region order — one bit per point region (is it in `S`?), the last cell
/// replaced by the end marker.
pub fn input_word(ev: &Evaluator) -> Vec<u8> {
    let ext = ev.extension();
    let order = ev.zero_dim_order();
    let mut word: Vec<u8> = order
        .iter()
        .map(|&r| {
            if ext.subset_of(r, ext.spatial_relation()) {
                b'1'
            } else {
                b'0'
            }
        })
        .collect();
    if let Some(last) = word.last_mut() {
        *last = b'E';
    }
    word
}

/// Run both sides of the capture experiment on one database: the direct
/// simulation of `tm` on the region-order input word, and the compiled
/// `RegIFP` sentence. Returns `(direct, logical)` — Theorem 6.4 says they
/// must agree.
///
/// # Panics
/// Panics if the database has too few point regions to carry the machine's
/// state/symbol tags, or if the machine is not linear-time.
pub fn capture_agreement(tm: &Tm, ev: &Evaluator) -> (bool, bool) {
    let n = ev.zero_dim_order().len();
    let needed = SYMBOLS.len() + tm.num_states;
    assert!(
        n >= needed,
        "capture experiment needs ≥ {} point regions, database has {}",
        needed,
        n
    );
    let word = input_word(ev);
    let direct = match tm.run(&word, n + 2) {
        TmOutcome::Accept => true,
        TmOutcome::Reject => false,
        TmOutcome::OutOfSteps => {
            panic!("capture experiment requires linear-time machines")
        }
    };
    let sentence = compile_linear_tm(tm, ev.extension().ambient_dim());
    let logical = ev.eval_sentence(&sentence);
    (direct, logical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_core::RegionExtension;
    use lcdb_logic::{parse_formula, Relation};

    fn ext(src: &str) -> RegionExtension {
        let rel = Relation::new(vec!["x".into()], parse_formula(src).unwrap());
        RegionExtension::arrangement(rel)
    }

    #[test]
    fn order_formulas_match_evaluator_order() {
        let e = ext("(0 < x and x < 1) or x = 3 or (5 < x and x < 6)");
        let ev = Evaluator::new(&e);
        let order = ev.zero_dim_order();
        assert!(order.len() >= 4);
        // first
        let f = RegFormula::exists_region(
            "P",
            RegFormula::and(vec![
                first(1, "P"),
                RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(0))], "P".into()),
            ]),
        );
        assert!(ev.eval_sentence(&f), "0 is the first point region");
        // last
        let l = RegFormula::exists_region(
            "P",
            RegFormula::and(vec![
                last(1, "P"),
                RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(6))], "P".into()),
            ]),
        );
        assert!(ev.eval_sentence(&l), "6 is the last point region");
        // succ: 0 -> 1
        let s = RegFormula::exists_region(
            "P",
            RegFormula::exists_region(
                "Q",
                RegFormula::and(vec![
                    succ(1, "P", "Q"),
                    RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(0))], "P".into()),
                    RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(1))], "Q".into()),
                ]),
            ),
        );
        assert!(ev.eval_sentence(&s));
        // non-successor: 0 -> 3 (1 lies between).
        let ns = RegFormula::exists_region(
            "P",
            RegFormula::exists_region(
                "Q",
                RegFormula::and(vec![
                    succ(1, "P", "Q"),
                    RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(0))], "P".into()),
                    RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(3))], "Q".into()),
                ]),
            ),
        );
        assert!(!ev.eval_sentence(&ns));
        // rank_is: rank 3 is the point 3.
        let r = RegFormula::exists_region(
            "P",
            RegFormula::and(vec![
                rank_is(1, "P", 3),
                RegFormula::In(vec![LinExpr::constant(lcdb_arith::int(3))], "P".into()),
            ]),
        );
        assert!(ev.eval_sentence(&r));
    }

    /// φ_M's plan fingerprint is a constant of the machine: the same in
    /// every process (DESIGN §7), so a stored snapshot of it resumes.
    #[test]
    fn sentence_fingerprints_are_pinned() {
        for (tm, pinned) in [
            (Tm::any_one(), 0xc54b_5bdd_9aca_b5bd_u64),
            (Tm::all_ones(), 0x069f_7a7b_cb48_2a78),
            (Tm::parity(), 0x36e9_df88_7a33_1c1f),
        ] {
            let fp = lcdb_core::query_fingerprint(&compile_linear_tm(&tm, 1));
            assert_eq!(fp, pinned, "{fp:016x}\n{tm}");
        }
    }

    #[test]
    fn input_word_reflects_membership() {
        let e = ext("(0 <= x and x < 1) or x = 3 or (5 < x and x < 6)");
        let ev = Evaluator::new(&e);
        // Point regions in order: 0 (in S), 1 (not), 3 (in), 5 (not), 6 (last→E).
        assert_eq!(input_word(&ev), b"1010E");
    }

    #[test]
    fn capture_any_one_agrees() {
        for src in [
            // word 10100E -> any_one accepts
            "(0 <= x and x < 1) or x = 3 or (5 < x and x < 6) or x = 8",
            // word 00000E -> rejects (6 interval endpoints, none in S)
            "(0 < x and x < 1) or (2 < x and x < 3) or (4 < x and x < 5)",
        ] {
            let e = ext(src);
            let ev = Evaluator::new(&e);
            let (direct, logical) = capture_agreement(&Tm::any_one(), &ev);
            assert_eq!(direct, logical, "capture mismatch on {}", src);
        }
    }

    #[test]
    fn capture_parity_agrees() {
        for src in [
            // 7 points: 0,1,3,5,6,8,10 -> word 101001E (three 1s: odd -> accept)
            "(0 <= x and x < 1) or x = 3 or (5 < x and x < 6) or x = 8 or x = 10",
            // 7 points: 0,1,2,4,6,7,9 -> word 111001E (four 1s: even -> reject)
            "(0 <= x and x <= 1) or x = 2 or (4 < x and x < 6) or x = 7 or x = 9",
        ] {
            let e = ext(src);
            let ev = Evaluator::new(&e);
            let (direct, logical) = capture_agreement(&Tm::parity(), &ev);
            assert_eq!(direct, logical, "capture mismatch on {}", src);
        }
    }
}
