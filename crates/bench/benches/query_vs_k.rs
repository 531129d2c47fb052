//! k-NN query latency on a fixed database as `k` grows: larger k weakens
//! the pruning threshold, so latency should rise smoothly with k. Each k is
//! measured under both metrics — the length-normalised rows show what the
//! per-node `max_len` bound costs relative to raw EDwP.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_queries, make_store};
use traj_index::Metric;

fn query_vs_k(c: &mut Criterion) {
    let store = make_store(400);
    let queries = make_queries(&store, 8);
    let session = traj_index::Session::build(store);
    let mut group = c.benchmark_group("query_vs_k");
    for k in [1usize, 5, 10, 25] {
        for (label, metric) in [("knn", Metric::Edwp), ("knn_norm", Metric::EdwpNormalized)] {
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, &k| {
                let mut i = 0usize;
                b.iter(|| {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    black_box(session.query(q).metric(metric).knn(k))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, query_vs_k);
criterion_main!(benches);
