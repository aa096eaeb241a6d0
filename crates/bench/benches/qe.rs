//! E18: Fourier-Motzkin elimination cost and the DNF conversion strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcdb_logic::{dnf, parse_formula, qe};
use std::time::Duration;

fn chain_formula(k: usize) -> lcdb_logic::Formula {
    let mut parts = Vec::new();
    for i in 0..k {
        parts.push(format!("3*v{} - 2*v{} <= {}", i, i + 1, i + 1));
        parts.push(format!("5*v{} + 7*v{} >= -{}", i + 1, i, i + 2));
    }
    parse_formula(&parts.join(" and ")).unwrap()
}

fn bench_fm(c: &mut Criterion) {
    let mut group = c.benchmark_group("fourier_motzkin_chain");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for k in [3usize, 5, 7] {
        let f = chain_formula(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &f, |b, f| {
            b.iter(|| {
                let mut d = dnf::to_dnf(f);
                for i in 0..k {
                    d = qe::eliminate_exists_dnf(&d, &format!("v{}", i)).simplify();
                }
                d
            })
        });
    }
    group.finish();
}

fn bench_dnf_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("dnf_strategies");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    // A moderately redundant disjunction of overlapping boxes.
    let parts: Vec<String> = (0..4)
        .map(|i| format!("(x >= {i} and x <= {} and y >= 0 and y <= 2)", i + 2))
        .collect();
    let f = lcdb_logic::Formula::not(parse_formula(&parts.join(" or ")).unwrap());
    group.bench_function("pruned", |b| b.iter(|| dnf::to_dnf_pruned(&f)));
    group.bench_function("cells", |b| b.iter(|| dnf::to_dnf_cells(&f)));
    group.finish();
}

/// The `perf_gate` `qe_us` shape: the three alibi queries over one 16-bead
/// pair, through the evaluator.
fn bench_alibi(c: &mut Criterion) {
    use lcdb_bench::{alibi_extension, ALIBI_BOX, ALIBI_SENTENCE, ALIBI_WHEN};
    use lcdb_core::{parse_regformula, Evaluator};
    let mut group = c.benchmark_group("alibi");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let ext = alibi_extension(16, 11, true);
    for (name, src) in [("sentence", ALIBI_SENTENCE), ("box", ALIBI_BOX)] {
        let q = parse_regformula(src).unwrap();
        group.bench_function(name, |b| b.iter(|| Evaluator::new(&ext).eval_sentence(&q)));
    }
    let when = parse_regformula(ALIBI_WHEN).unwrap();
    group.bench_function("when", |b| {
        b.iter(|| Evaluator::new(&ext).eval_query(&when))
    });
    group.finish();
}

criterion_group!(benches, bench_fm, bench_dnf_strategies, bench_alibi);
criterion_main!(benches);
