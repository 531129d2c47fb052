//! Distance-kernel microbenchmarks: the EDwP dynamic program at several
//! trajectory sizes, the box bounds that let the index avoid it, and the
//! tBoxSeq merge that builds every TrajTree node summary.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_queries, make_store};
use traj_dist::simd::edwp_lower_bound_boxes_bounded_isa;
use traj_dist::{
    edwp, edwp_lower_bound_boxes, edwp_lower_bound_trajectory, BoxSeq, Cutoff, EdwpScratch, Isa,
};
use traj_gen::TrajGen;

fn edwp_scaling(c: &mut Criterion) {
    let mut g = TrajGen::new(5);
    let mut group = c.benchmark_group("edwp");
    for n in [8usize, 16, 32] {
        let a = g.random_walk(n);
        let b = g.random_walk(n);
        group.bench_with_input(BenchmarkId::new("full_dp", n), &(a, b), |bench, (a, b)| {
            bench.iter(|| black_box(edwp(a, b)));
        });
    }
    group.finish();
}

fn bounds_vs_full(c: &mut Criterion) {
    let store = make_store(50);
    let queries = make_queries(&store, 4);
    let member = store.get(0);
    let seq = {
        let mut s = BoxSeq::from_trajectory(member);
        s.coalesce(Some(12));
        s
    };
    let q = &queries[0];
    let mut group = c.benchmark_group("bounds");
    group.bench_function("edwp_lower_bound_boxes", |b| {
        b.iter(|| black_box(edwp_lower_bound_boxes(q, &seq)));
    });
    group.bench_function("edwp_lower_bound_trajectory", |b| {
        b.iter(|| black_box(edwp_lower_bound_trajectory(q, member)));
    });
    group.bench_function("edwp_full", |b| {
        b.iter(|| black_box(edwp(q, member)));
    });

    // Scalar vs SIMD on the same box-bound workload, pinned per row via
    // the explicit-ISA entry points so neither `TRAJ_FORCE_SCALAR` nor
    // the cached dispatch can mix the two. The dispatched row above
    // (`edwp_lower_bound_boxes`) uses whatever `Isa::current()` picked.
    println!(
        "distance_ops: runtime dispatch resolved to `{}` (avx2 available: {})",
        Isa::current().name(),
        Isa::available() == Isa::Avx2
    );
    let mut scratch = EdwpScratch::new();
    group.bench_function("boxes_bounded_scalar", |b| {
        b.iter(|| {
            black_box(edwp_lower_bound_boxes_bounded_isa(
                Isa::Scalar,
                q,
                &seq,
                Cutoff::constant(f64::INFINITY),
                &mut scratch,
            ))
        });
    });
    if Isa::available() == Isa::Avx2 {
        group.bench_function("boxes_bounded_simd", |b| {
            b.iter(|| {
                black_box(edwp_lower_bound_boxes_bounded_isa(
                    Isa::Avx2,
                    q,
                    &seq,
                    Cutoff::constant(f64::INFINITY),
                    &mut scratch,
                ))
            });
        });
    } else {
        println!("distance_ops: avx2 unavailable — skipping bounds/boxes_bounded_simd");
    }
    group.finish();
}

/// The construction kernel (`createTBoxSeq`, Sec. V): one trip merged into
/// a node summary built at the default TrajTree budgets — a leaf summary
/// (at most 24 boxes) over 8 members and an internal summary (at most 12)
/// over 64. Bulk loads and Alg. 1 inserts spend their time here.
fn merge_trajectory(c: &mut Criterion) {
    let store = make_store(80);
    let summary = |members: usize, max_boxes: usize| {
        BoxSeq::from_trajectories((0..members as u32).map(|id| store.get(id)), Some(max_boxes))
            .expect("at least one member")
    };
    let leaf = summary(8, 24);
    let internal = summary(64, 12);
    let t = store.get(79);
    let mut group = c.benchmark_group("merge_trajectory");
    group.bench_function("leaf", |b| {
        b.iter(|| black_box(leaf.merge_trajectory(t)));
    });
    group.bench_function("internal", |b| {
        b.iter(|| black_box(internal.merge_trajectory(t)));
    });
    group.finish();
}

criterion_group!(benches, edwp_scaling, bounds_vs_full, merge_trajectory);
criterion_main!(benches);
