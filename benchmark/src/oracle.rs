//! Independent oracles in the benchmark's own integer arithmetic. Nothing
//! here calls the engine: an answer checked against this file was derived
//! twice, by two programs that share no code.

/// Binomial coefficient (0 when `k > n`).
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: u64 = 1;
    for i in 0..k {
        c = c * (n - i) / (i + 1);
    }
    c
}

/// Zaslavsky's face census of `n` hyperplanes in general position in `ℝ^d`:
/// the number of `k`-dimensional faces, indexed by `k = 0..=d`, is
/// `f_k = Σ_{i=d-k}^{d} C(i, d-k) · C(n, i)`.
pub fn zaslavsky_census(n: u64, d: u64) -> Vec<u64> {
    (0..=d)
        .map(|k| {
            (d - k..=d)
                .map(|i| binomial(i, d - k) * binomial(n, i))
                .sum()
        })
        .collect()
}

/// Determinant of a small square integer matrix by cofactor expansion.
pub fn det(m: &[Vec<i128>]) -> i128 {
    let n = m.len();
    match n {
        0 => 1,
        1 => m[0][0],
        2 => m[0][0] * m[1][1] - m[0][1] * m[1][0],
        _ => (0..n)
            .map(|c| {
                if m[0][c] == 0 {
                    return 0;
                }
                let minor: Vec<Vec<i128>> = m[1..]
                    .iter()
                    .map(|row| (0..n).filter(|&j| j != c).map(|j| row[j]).collect())
                    .collect();
                let sign = if c % 2 == 0 { 1 } else { -1 };
                sign * m[0][c] * det(&minor)
            })
            .sum(),
    }
}

/// Visit every `k`-subset of `0..n` in lexicographic order; stop early when
/// `f` returns false. Returns whether every call returned true.
fn all_subsets(n: usize, k: usize, f: &mut impl FnMut(&[usize]) -> bool) -> bool {
    fn rec(
        start: usize,
        n: usize,
        k: usize,
        cur: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]) -> bool,
    ) -> bool {
        if cur.len() == k {
            return f(cur);
        }
        for i in start..n {
            cur.push(i);
            let ok = rec(i + 1, n, k, cur, f);
            cur.pop();
            if !ok {
                return false;
            }
        }
        true
    }
    rec(0, n, k, &mut Vec::with_capacity(k), f)
}

/// Are the hyperplanes `a·x = b` (rows `[a_1..a_d, b]`) in general
/// position? Every `d` normals must be independent (so every `d` planes
/// meet in one point) and no `d+1` planes may share a point (the augmented
/// determinant is non-zero). That is the hypothesis of Zaslavsky's census.
pub fn general_position(d: usize, planes: &[Vec<i64>]) -> bool {
    assert!(planes.iter().all(|p| p.len() == d + 1));
    let row = |i: usize, cols: usize| -> Vec<i128> {
        planes[i][..cols].iter().map(|&v| v as i128).collect()
    };
    let n = planes.len();
    let normals_ok = all_subsets(n, d.min(n), &mut |s| {
        if s.len() < d {
            return true;
        }
        det(&s.iter().map(|&i| row(i, d)).collect::<Vec<_>>()) != 0
    });
    normals_ok
        && all_subsets(n, d + 1, &mut |s| {
            det(&s.iter().map(|&i| row(i, d + 1)).collect::<Vec<_>>()) != 0
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zaslavsky_matches_known_censuses() {
        // Three lines in general position (the paper's Fig. 3).
        assert_eq!(zaslavsky_census(3, 2), vec![3, 9, 7]);
        // n points on a line: n points, n+1 open intervals.
        assert_eq!(zaslavsky_census(5, 1), vec![5, 6]);
        // Four planes in general position bound one tetrahedron:
        // 4 vertices, 18 edges, 28 polygons, 15 cells.
        assert_eq!(zaslavsky_census(4, 3), vec![4, 18, 28, 15]);
        // Euler characteristic of ℝ^d is (-1)^d.
        for (n, d) in [(7u64, 2u64), (6, 3), (9, 1), (12, 2)] {
            let chi: i64 = zaslavsky_census(n, d)
                .iter()
                .enumerate()
                .map(|(k, &f)| if k % 2 == 0 { f as i64 } else { -(f as i64) })
                .sum();
            assert_eq!(chi, if d % 2 == 0 { 1 } else { -1 });
        }
    }

    #[test]
    fn determinant_and_general_position() {
        assert_eq!(det(&[vec![2, 0, 0], vec![0, 3, 0], vec![0, 0, 4]]), 24);
        assert_eq!(det(&[vec![1, 2], vec![2, 4]]), 0);
        // x = 0, y = 0, x + y = 1: general. Adding x + y = 2: parallel normals.
        let mut planes = vec![vec![1, 0, 0], vec![0, 1, 0], vec![1, 1, 1]];
        assert!(general_position(2, &planes));
        planes.push(vec![1, 1, 2]);
        assert!(!general_position(2, &planes));
        // Three lines through the origin: concurrent.
        assert!(!general_position(
            2,
            &[vec![1, 0, 0], vec![0, 1, 0], vec![1, 1, 0]]
        ));
        // Repeated point on the line.
        assert!(!general_position(1, &[vec![1, 2], vec![2, 4]]));
        assert!(general_position(1, &[vec![1, 2], vec![2, 5]]));
    }
}
