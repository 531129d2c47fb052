//! `knn_static`: one closed-loop client sends distinct single k-NN
//! queries (k = 10) to an in-memory 10k-trajectory, 2-shard session,
//! alternating raw and length-normalised EDwP. Each query is a member
//! resampled to 50% and perturbed — the paper's "same trip, different
//! sampling rate" lookup. All the work is in the query path.

use crate::kernels::{self, KernelSample};
use crate::memdb::{self, same_answers, K};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::{data::QueryStream, trace, Ctx};
use std::time::{Duration, Instant};
use traj_core::Trajectory;
use traj_index::{Metric, Neighbor, QueryMode, QueryStats};

/// Every `CHECK_EVERY`-th query is kept for the brute-force check.
const CHECK_EVERY: u64 = 25;
const MAX_CHECKS: usize = 16;
/// Checked queries whose pairs also feed the kernel timings.
const KERNEL_SAMPLES: usize = 16;

pub fn metric_of(i: u64) -> Metric {
    if i.is_multiple_of(2) {
        Metric::Edwp
    } else {
        Metric::EdwpNormalized
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut session, mut db) = memdb::Setup::start(ctx);
    let mut stream = QueryStream::new(ctx.seed, 2);
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut stats = QueryStats::default();
    let mut answers = 0;
    let mut kept: Vec<(Trajectory, Metric, Vec<Neighbor>)> = Vec::new();

    // Query time excludes the set-ups that run between queries.
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut i = 0u64;
    loop {
        let queried = start.elapsed() - paused;
        if queried >= ctx.seconds {
            break;
        }
        if setup.due(ctx, queried) {
            let (s, new_db, d) = setup.again(ctx, (session, db));
            (session, db) = (s, new_db);
            paused += d;
            continue;
        }
        let target = stream.pick(db.len());
        let q = stream.resampled(&db[target]);
        let metric = metric_of(i);
        // In a traced run every other pair of queries is traced, so both
        // metrics are measured with and without tracing.
        let res = if ctx.trace && (i / 2) % 2 == 1 {
            let _op = trace::span("op.knn");
            let t0 = Instant::now();
            let r = {
                let _s = trace::span("index.Session::query.knn");
                session.query(&q).metric(metric).collect_stats().knn(K)
            };
            traced.push(t0.elapsed());
            stats.merge(r.stats.as_ref().expect("stats requested"));
            answers += r.neighbors.len();
            r
        } else {
            let t0 = Instant::now();
            let r = session.query(&q).metric(metric).knn(K);
            plain.push(t0.elapsed());
            r
        };
        out.attempted += 1;
        if i.is_multiple_of(CHECK_EVERY) && kept.len() < MAX_CHECKS {
            kept.push((q, metric, res.neighbors));
        }
        i += 1;
    }
    let wall = (start.elapsed() - paused).as_secs_f64();
    setup.report(&mut out);

    // Correctness, outside the timed region: the index answer must equal
    // the linear scan bit for bit.
    let mut sample_stats = QueryStats::default();
    for (q, metric, got) in &kept {
        let brute = session.query(q).metric(*metric).brute_force().knn(K);
        out.check(same_answers(got, &brute.neighbors), || {
            format!("knn ({}) differs from brute force", metric.name())
        });
        let again = session.query(q).metric(*metric).collect_stats().knn(K);
        sample_stats.merge(again.stats.as_ref().expect("stats requested"));
    }
    out.meta("checked_queries", kept.len());
    out.meta(
        "checked_edwp_calls_per_query",
        sample_stats.mean_edwp_evaluations(),
    );
    out.meta(
        "checked_bound_evals_per_query",
        sample_stats.bound_evaluations as f64 / sample_stats.queries.max(1) as f64,
    );

    out.e2e("query_p50_ms", plain.quantile(0.5), "ms");
    out.e2e("op_tail_ms", plain.quantile(0.95), "ms");
    out.e2e(
        "query_per_s",
        (plain.len() + traced.len()) as f64 / wall,
        "1/s",
    );
    out.e2e("knn_p50_ms", plain.quantile(0.5), "ms");
    out.e2e("knn_p99_ms", plain.quantile(0.99), "ms");
    out.meta("knn_samples", plain.len());
    out.meta("knn_p99_samples_beyond", plain.beyond(0.99));

    if ctx.trace {
        out.query_counters(&stats, answers);
        out.layer(
            "trace.overhead_p50_ms",
            traced.quantile(0.5) - plain.quantile(0.5),
        );
        // Single queries fan out over one worker per shard.
        out.query_cpu_ms = traced.mean_ms() * memdb::SHARDS as f64;
        let snap = session.snapshot();
        let samples: Vec<KernelSample> = kept
            .iter()
            .take(KERNEL_SAMPLES)
            .map(|(q, metric, got)| KernelSample {
                query: q.clone(),
                metric: *metric,
                mode: QueryMode::Whole,
                threshold: memdb::threshold(got),
            })
            .collect();
        kernels::time_kernels(&snap, &samples);
        memdb::tree_layer(&snap, &mut out);
    }
    out
}
