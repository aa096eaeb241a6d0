//! The database tape encoding β(B) of §6.
//!
//! The capture proof orders the regions of `B^Reg` — bounded before
//! unbounded, by dimension, 0-dimensional regions lexicographically by the
//! point they contain, higher-dimensional regions by tuples of incident
//! 0-dimensional regions — and writes the database onto a Turing tape:
//! binary coordinates of the 0-dimensional regions with their membership
//! flags, then one membership bit per higher-dimensional region.
//!
//! Only databases with the *small coordinate property* (Definition 6.2) can
//! be encoded: coordinates must fit in `O(n)` bits for `n` regions.

use lcdb_arith::{BigInt, Rational, Sign};
use lcdb_core::Decomposition;

/// The total region order used by the encoding.
///
/// Bounded regions precede unbounded ones; within each group regions are
/// ordered by dimension; 0-dimensional regions lexicographically by their
/// point; higher-dimensional regions by the sorted ranks of their adjacent
/// 0-dimensional regions (the paper's tuple order), with the witness point
/// as a final tie-break.
pub fn region_order(ext: &dyn Decomposition) -> Vec<usize> {
    // Ranks of 0-dim regions (for the higher-dimensional keys).
    let mut zero_dim: Vec<usize> = ext
        .region_ids()
        .filter(|&r| ext.region(r).dim == 0)
        .collect();
    zero_dim.sort_by(|&a, &b| ext.region(a).witness.cmp(&ext.region(b).witness));
    let rank_of = |id: usize| zero_dim.iter().position(|&z| z == id);

    let key = |id: usize| {
        let data = ext.region(id);
        let adj_zero_ranks: Vec<usize> = zero_dim
            .iter()
            .enumerate()
            .filter(|(_, &z)| z != id && ext.adjacent(id, z))
            .map(|(rank, _)| rank)
            .collect();
        (
            !data.bounded, // bounded first
            data.dim,
            if data.dim == 0 {
                vec![rank_of(id).expect("0-dim region has a rank")]
            } else {
                adj_zero_ranks
            },
            data.witness.clone(),
        )
    };
    let mut order: Vec<usize> = ext.region_ids().collect();
    order.sort_by_key(|&a| key(a));
    order
}

/// Does the database satisfy the small coordinate property (Definition 6.2)
/// with the given linear factor: every coordinate of every 0-dimensional
/// region has numerator and denominator of at most `factor · n` bits, where
/// `n` is the number of regions?
pub fn small_coordinate_property(ext: &dyn Decomposition, factor: u64) -> bool {
    let n = ext.num_regions() as u64;
    ext.region_ids()
        .filter(|&r| ext.region(r).dim == 0)
        .all(|r| {
            ext.region(r)
                .witness
                .iter()
                .all(|c| c.numer().bit_len().max(c.denom().bit_len()) <= factor * n)
        })
}

/// Binary encoding of an integer: sign prefix then magnitude bits, MSB first.
fn encode_int(v: &BigInt, out: &mut String) {
    if v.sign() == Sign::Negative {
        out.push('-');
    }
    let mag = v.magnitude();
    if mag.is_zero() {
        out.push('0');
        return;
    }
    for i in (0..mag.bit_len()).rev() {
        out.push(if mag.bit(i) { '1' } else { '0' });
    }
}

/// Binary encoding of a rational as `numerator/denominator`.
fn encode_rational(v: &Rational, out: &mut String) {
    encode_int(&v.numer(), out);
    out.push('/');
    encode_int(&v.denom(), out);
}

/// The tape encoding β(B): deterministic, injective on region extensions up
/// to region-order isomorphism. Layout (matching §6's figure):
///
/// ```text
/// bounded:   [coord|…|coord|c] ; … #  d¹…  #  d²…  # …  (per dimension)
/// unbounded: @  [witness coords|c] ; … #  d¹… # …
/// ```
///
/// where `c`/`dⁱ` are `1` iff the region is contained in `S`.
pub fn encode(ext: &dyn Decomposition) -> String {
    let order = region_order(ext);
    let spatial = ext.spatial_relation().to_string();
    let mut out = String::new();
    let emit_group = |out: &mut String, bounded: bool| {
        let d = ext.ambient_dim();
        for dim in 0..=d {
            if dim > 0 {
                out.push('#');
            }
            for &id in &order {
                let data = ext.region(id);
                if data.bounded != bounded || data.dim != dim {
                    continue;
                }
                if dim == 0 {
                    out.push('[');
                    for (i, c) in data.witness.iter().enumerate() {
                        if i > 0 {
                            out.push('|');
                        }
                        encode_rational(c, out);
                    }
                    out.push('|');
                    out.push(if ext.subset_of(id, &spatial) { '1' } else { '0' });
                    out.push(']');
                } else if bounded {
                    out.push(if ext.subset_of(id, &spatial) { '1' } else { '0' });
                } else {
                    // Unbounded 1-dimensional regions carry their witness
                    // point (the paper's (p, q) pair is abbreviated to the
                    // interior witness); higher dimensions carry flags only.
                    if dim == 1 {
                        out.push('[');
                        for (i, c) in data.witness.iter().enumerate() {
                            if i > 0 {
                                out.push('|');
                            }
                            encode_rational(c, out);
                        }
                        out.push('|');
                        out.push(if ext.subset_of(id, &spatial) { '1' } else { '0' });
                        out.push(']');
                    } else {
                        out.push(if ext.subset_of(id, &spatial) { '1' } else { '0' });
                    }
                }
            }
        }
    };
    emit_group(&mut out, true);
    out.push('@');
    emit_group(&mut out, false);
    out
}

/// A structural summary decoded back from a β(B) string — the inverse
/// direction shows the encoding is information-preserving (injective up to
/// region order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTape {
    /// Per bounded 0-dim region: its coordinates and membership flag.
    pub bounded_points: Vec<(Vec<Rational>, bool)>,
    /// Membership flags of the bounded higher-dimensional regions, by
    /// increasing dimension (flattened in order).
    pub bounded_flags: Vec<bool>,
    /// Per unbounded 1-dim region: witness coordinates and membership flag.
    pub unbounded_witnesses: Vec<(Vec<Rational>, bool)>,
    /// Membership flags of the remaining unbounded regions.
    pub unbounded_flags: Vec<bool>,
}

/// Parse a β(B) string produced by [`encode`].
///
/// # Panics
/// Panics on malformed input (the encoding grammar is fixed).
pub fn decode(tape: &str) -> DecodedTape {
    fn parse_int(s: &str) -> BigInt {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let mut mag = lcdb_arith::BigUint::zero();
        for c in digits.chars() {
            let bit = match c {
                '0' => 0u64,
                '1' => 1,
                other => panic!("bad binary digit '{}'", other),
            };
            mag = &(&mag << 1u64) + &lcdb_arith::BigUint::from(bit);
        }
        let v = BigInt::from_biguint(mag);
        if neg {
            -v
        } else {
            v
        }
    }
    fn parse_rational(s: &str) -> Rational {
        let (n, d) = s.split_once('/').expect("rational has a '/'");
        Rational::new(parse_int(n), parse_int(d))
    }
    fn parse_group(part: &str) -> (Vec<(Vec<Rational>, bool)>, Vec<bool>) {
        let mut points = Vec::new();
        let mut flags = Vec::new();
        let mut rest = part;
        while !rest.is_empty() {
            match rest.as_bytes()[0] {
                b'[' => {
                    let end = rest.find(']').expect("closing bracket");
                    let fields: Vec<&str> = rest[1..end].split('|').collect();
                    let (coord_fields, flag) = fields.split_at(fields.len() - 1);
                    let coords = coord_fields.iter().map(|f| parse_rational(f)).collect();
                    points.push((coords, flag[0] == "1"));
                    rest = &rest[end + 1..];
                }
                b'#' => rest = &rest[1..],
                b'0' => {
                    flags.push(false);
                    rest = &rest[1..];
                }
                b'1' => {
                    flags.push(true);
                    rest = &rest[1..];
                }
                other => panic!("unexpected byte '{}' in tape", other as char),
            }
        }
        (points, flags)
    }
    let (bounded, unbounded) = tape.split_once('@').expect("group separator '@'");
    let (bounded_points, bounded_flags) = parse_group(bounded);
    let (unbounded_witnesses, unbounded_flags) = parse_group(unbounded);
    DecodedTape {
        bounded_points,
        bounded_flags,
        unbounded_witnesses,
        unbounded_flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_core::RegionExtension;
    use lcdb_logic::{parse_formula, Relation};

    fn ext(src: &str, vars: &[&str]) -> RegionExtension {
        let rel = Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            parse_formula(src).unwrap(),
        );
        RegionExtension::arrangement(rel)
    }

    #[test]
    fn order_is_total_and_stable() {
        let e = ext("(0 < x and x < 2) or x = 5", &["x"]);
        let order = region_order(&e);
        assert_eq!(order.len(), e.num_regions());
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, (0..e.num_regions()).collect::<Vec<_>>());
        // Deterministic.
        assert_eq!(order, region_order(&e));
        // Bounded regions come first.
        let first_unbounded = order
            .iter()
            .position(|&r| !e.region(r).bounded)
            .unwrap();
        assert!(order[first_unbounded..]
            .iter()
            .all(|&r| !e.region(r).bounded));
        // Within bounded: dimensions ascend.
        let dims: Vec<usize> = order[..first_unbounded]
            .iter()
            .map(|&r| e.region(r).dim)
            .collect();
        let mut sorted_dims = dims.clone();
        sorted_dims.sort();
        assert_eq!(dims, sorted_dims);
    }

    #[test]
    fn zero_dim_lexicographic() {
        let e = ext("x = 3 or x = 1 or x = 2", &["x"]);
        let order = region_order(&e);
        let zero_points: Vec<String> = order
            .iter()
            .filter(|&&r| e.region(r).dim == 0)
            .map(|&r| e.region(r).witness[0].to_string())
            .collect();
        assert_eq!(zero_points, vec!["1", "2", "3"]);
    }

    #[test]
    fn small_coordinates() {
        let e = ext("0 < x and x < 2", &["x"]);
        assert!(small_coordinate_property(&e, 1));
        // A huge coordinate violates a tight budget.
        let big = ext("x = 170141183460469231731687303715884105727", &["x"]);
        assert!(!small_coordinate_property(&big, 1));
        assert!(small_coordinate_property(&big, 100));
    }

    #[test]
    fn encoding_shape_and_determinism() {
        let e = ext("0 < x and x < 2", &["x"]);
        let s = encode(&e);
        assert_eq!(s, encode(&e));
        // Contains the two 0-dim coordinates 0 and 10 (binary for 2).
        assert!(s.contains("[0/1|0]"), "{}", s);
        assert!(s.contains("[10/1|0]"), "{}", s);
        // One bounded 1-dim region inside S.
        assert!(s.contains("#1#") || s.contains("#1@") || s.contains("#1"), "{}", s);
        assert!(s.contains('@'));
    }

    #[test]
    fn encoding_distinguishes_databases() {
        let a = encode(&ext("0 < x and x < 2", &["x"]));
        let b = encode(&ext("0 < x and x < 3", &["x"]));
        let c = encode(&ext("(0 < x and x < 2) or x = 2", &["x"]));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn negative_coordinates_encode_sign() {
        let e = ext("x = -3", &["x"]);
        let s = encode(&e);
        assert!(s.contains("[-11/1|1]"), "{}", s);
    }

    #[test]
    fn decode_roundtrips_structure() {
        use lcdb_core::Decomposition;
        let e = ext("(0 < x and x < 2) or x = -3 or x = 7/2", &["x"]);
        let tape = encode(&e);
        let dec = decode(&tape);
        // All bounded point regions come back with their exact coordinates.
        let order = region_order(&e);
        let expected: Vec<(Vec<lcdb_arith::Rational>, bool)> = order
            .iter()
            .filter(|&&r| e.region(r).dim == 0 && e.region(r).bounded)
            .map(|&r| (e.region(r).witness.clone(), e.subset_of(r, "S")))
            .collect();
        assert_eq!(dec.bounded_points, expected);
        // Flag counts match the region census.
        let bounded_higher = order
            .iter()
            .filter(|&&r| e.region(r).dim > 0 && e.region(r).bounded)
            .count();
        assert_eq!(dec.bounded_flags.len(), bounded_higher);
        // Decoding is injective on these databases: different S flips a flag.
        let e2 = ext("(0 <= x and x < 2) or x = -3 or x = 7/2", &["x"]);
        assert_ne!(decode(&encode(&e2)), dec);
    }

    #[test]
    fn decode_rejects_garbage() {
        let result = std::panic::catch_unwind(|| decode("not a tape"));
        assert!(result.is_err());
    }
}
