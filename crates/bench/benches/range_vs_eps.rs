//! Range-query latency as the ε-ball widens: ε is calibrated from the
//! workload itself (multiples of a probe query's 10th-neighbour distance),
//! so tight balls should stay near the pruned-k-NN cost while ε → ∞
//! degrades towards a full linear scan.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_queries, make_store};

fn range_vs_eps(c: &mut Criterion) {
    let store = make_store(400);
    let queries = make_queries(&store, 8);
    let session = traj_index::Session::build(store);
    // Calibrate: the 10th-neighbour distance of the first probe query.
    let d10 = session.query(&queries[0]).knn(10).neighbors[9].distance;
    let mut group = c.benchmark_group("range_vs_eps");
    for (label, scale) in [("quarter_d10", 0.25), ("d10", 1.0), ("4x_d10", 4.0)] {
        let eps = d10 * scale;
        group.bench_with_input(BenchmarkId::new("range", label), &eps, |b, &eps| {
            // The session's pooled scratch serves every call, like a
            // serving loop would — the eps-scaling curve should not
            // include per-call allocation overhead.
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(session.query(q).range(eps))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, range_vs_eps);
criterion_main!(benches);
