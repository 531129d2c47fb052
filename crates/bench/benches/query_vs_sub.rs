//! Whole-trajectory vs sub-trajectory matching on the same database and
//! the same partial-trip probes — the cost of the new query mode and the
//! value of its index path. Four rows:
//!
//! * `whole_knn` — the partial probes answered end-to-end (`edwp`): the
//!   baseline a partial-trip lookup would have to settle for without the
//!   mode;
//! * `sub_knn` — the same probes through `.sub().knn(k)`: best-first over
//!   the TrajTree pruned by the admissible sub-trajectory box bound;
//! * `sub_knn_brute` — `.sub().brute_force()`: the linear `edwp_sub` scan
//!   the index path is measured against (expect the index to win by the
//!   pruning ratio);
//! * `sub_batch_t4` — the whole probe set as one 4-worker batch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_store, make_sub_queries};
use traj_index::Session;

fn query_vs_sub(c: &mut Criterion) {
    let store = make_store(400);
    let queries = make_sub_queries(&store, 16);
    let session = Session::build(store);
    let mut group = c.benchmark_group("query_vs_sub");
    let k = 10usize;

    group.bench_with_input(BenchmarkId::new("whole_knn", k), &k, |b, _| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(session.query(q).knn(k))
        });
    });
    group.bench_with_input(BenchmarkId::new("sub_knn", k), &k, |b, _| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(session.query(q).sub().knn(k))
        });
    });
    group.bench_with_input(BenchmarkId::new("sub_knn_brute", k), &k, |b, _| {
        let mut i = 0usize;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(session.query(q).sub().brute_force().knn(k))
        });
    });
    group.bench_with_input(BenchmarkId::new("sub_batch_t4", k), &k, |b, _| {
        b.iter(|| black_box(session.batch(&queries).sub().threads(4).knn(k)));
    });
    group.finish();
}

criterion_group!(benches, query_vs_sub);
criterion_main!(benches);
