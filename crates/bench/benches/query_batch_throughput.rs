//! Batch k-NN throughput: one fixed workload of 32 queries answered by a
//! sequential session loop (pooled scratch) versus the batch builder at
//! growing worker counts. On a multi-core runner the batch rows should
//! beat the sequential row roughly linearly until the core count is
//! exhausted; per-query work is identical (results are bitwise equal), so
//! any gap is pure fan-out overhead.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_queries, make_store};

fn query_batch_throughput(c: &mut Criterion) {
    let store = make_store(400);
    let queries = make_queries(&store, 32);
    let session = traj_index::Session::build(store);
    let k = 10;
    let mut group = c.benchmark_group("query_batch_throughput");
    group.bench_function("sequential_knn", |b| {
        b.iter(|| {
            let total: usize = queries
                .iter()
                .map(|q| session.query(q).knn(k).neighbors.len())
                .sum();
            black_box(total)
        });
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("batch_knn", threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(session.batch(&queries).threads(threads).knn(k)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, query_batch_throughput);
criterion_main!(benches);
