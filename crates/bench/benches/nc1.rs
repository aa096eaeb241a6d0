//! E14: NC1 decomposition scaling (Lemma A.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcdb_bench::convex_polygon;
use std::time::Duration;

fn bench_nc1(c: &mut Criterion) {
    let mut group = c.benchmark_group("nc1_decompose");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for k in [4usize, 6, 8] {
        let r = convex_polygon(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &r, |b, r| {
            b.iter(|| lcdb_geom::nc1::decompose_relation(r))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nc1);
criterion_main!(benches);
