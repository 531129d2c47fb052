//! k-NN query latency (k = 10) as the database grows: with pruning the
//! curve should grow sublinearly on clustered data, unlike a linear scan.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_queries, make_store};

fn query_vs_dbsize(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_vs_dbsize");
    for size in [100usize, 300, 900] {
        let store = make_store(size);
        let queries = make_queries(&store, 8);
        let session = traj_index::Session::build(store);
        group.bench_with_input(BenchmarkId::new("knn_k10", size), &size, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(session.query(q).knn(10))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, query_vs_dbsize);
criterion_main!(benches);
