//! `batch_mixed`: the `knn_static` database queried through
//! `Session::batch(..).threads(2)` in batches of 32, rotating whole-trip
//! k-NN, `.sub()` k-NN on partial trips, and `range(eps)`, alternating
//! the metric every rotation. A quarter of each batch repeats other
//! queries of the same batch exactly (popular routes), the only case the
//! per-batch bound cache can hit.

use crate::kernels::{self, KernelSample};
use crate::memdb::{self, same_answers, K};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::{data::QueryStream, trace, Ctx};
use std::time::{Duration, Instant};
use traj_core::Trajectory;
use traj_index::{BatchQueryResult, Metric, Neighbor, QueryMode, QueryStats, Snapshot};

const BATCH: usize = 32;
/// Exact repeats per batch (25%).
const DUPLICATES: usize = 8;
const THREADS: usize = 2;
/// Every `CHECK_EVERY`-th batch is sampled for checks, up to `MAX_CHECKED`.
const CHECK_EVERY: u64 = 10;
const MAX_CHECKED: usize = 6;
/// Distinct queries of a sampled batch compared with brute force.
const CHECKED_PER_BATCH: usize = 3;
/// Range radius per metric: about the median 10th-neighbour distance of
/// a lookup on this data shape, so a range query returns about `K`
/// answers. Fixed rather than measured per run: a radius estimated from a
/// few lookups varied by nearly 2× between seeds, and range cost with it.
const RANGE_EPS_EDWP: f64 = 600.0;
const RANGE_EPS_EDWP_NORM: f64 = 8.5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Knn,
    SubKnn,
    Range,
}

impl Kind {
    fn of(i: u64) -> Kind {
        [Kind::Knn, Kind::SubKnn, Kind::Range][(i % 3) as usize]
    }

    fn mode(self) -> QueryMode {
        match self {
            Kind::SubKnn => QueryMode::Sub,
            _ => QueryMode::Whole,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Knn => "knn",
            Kind::SubKnn => "sub-knn",
            Kind::Range => "range",
        }
    }
}

fn metric_of(i: u64) -> Metric {
    if (i / 3).is_multiple_of(2) {
        Metric::Edwp
    } else {
        Metric::EdwpNormalized
    }
}

/// One batch: 24 distinct lookups plus 8 exact repeats of them, shuffled;
/// `origin[j]` is the first position holding the same query as `j`.
struct Batch {
    queries: Vec<Trajectory>,
    origin: Vec<usize>,
}

fn make_batch(stream: &mut QueryStream, db: &[Trajectory], kind: Kind) -> Batch {
    let distinct = BATCH - DUPLICATES;
    let mut queries: Vec<Trajectory> = (0..distinct)
        .map(|_| {
            let t = &db[stream.pick(db.len())];
            match kind {
                Kind::SubKnn => stream.partial(t),
                _ => stream.resampled(t),
            }
        })
        .collect();
    let mut src: Vec<usize> = (0..distinct).collect();
    for _ in 0..DUPLICATES {
        let j = stream.rng().usize_in(0, distinct - 1);
        queries.push(queries[j].clone());
        src.push(j);
    }
    // Fisher–Yates over (query, source) pairs, then map each source to
    // the first position its query landed on.
    for i in (1..BATCH).rev() {
        let j = stream.rng().usize_in(0, i);
        queries.swap(i, j);
        src.swap(i, j);
    }
    let mut first = vec![usize::MAX; distinct];
    let origin = src
        .iter()
        .enumerate()
        .map(|(pos, &s)| {
            if first[s] == usize::MAX {
                first[s] = pos;
            }
            first[s]
        })
        .collect();
    Batch { queries, origin }
}

fn run_batch(
    snap: &Snapshot,
    b: &Batch,
    kind: Kind,
    metric: Metric,
    eps: f64,
    stats: bool,
) -> BatchQueryResult {
    let mut q = snap
        .batch(&b.queries)
        .threads(THREADS)
        .metric(metric)
        .mode(kind.mode());
    if stats {
        q = q.collect_stats();
    }
    match kind {
        Kind::Range => q.range(eps),
        _ => q.knn(K),
    }
}

/// Single query of the same shape, optionally brute force.
fn run_single(
    snap: &Snapshot,
    query: &Trajectory,
    kind: Kind,
    metric: Metric,
    eps: f64,
    brute: bool,
) -> traj_index::QueryResult {
    let mut q = snap.query(query).metric(metric).mode(kind.mode());
    if brute {
        q = q.brute_force();
    } else {
        // One query per worker, like a batch of whole queries.
        q = q.parallel_scatter(false).collect_stats();
    }
    match kind {
        Kind::Range => q.range(eps),
        _ => q.knn(K),
    }
}

struct Checked {
    batch: Batch,
    kind: Kind,
    metric: Metric,
    answers: Vec<Vec<Neighbor>>,
    stats: Option<QueryStats>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut session, mut db) = memdb::Setup::start(ctx);
    let eps_of = |m: Metric| match m {
        Metric::Edwp => RANGE_EPS_EDWP,
        Metric::EdwpNormalized => RANGE_EPS_EDWP_NORM,
    };

    let mut stream = QueryStream::new(ctx.seed, 4);
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut stats = QueryStats::default();
    let mut answers = 0;
    let mut queries = 0usize;
    let mut checked: Vec<Checked> = Vec::new();

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
        let kind = Kind::of(i);
        let metric = metric_of(i);
        let b = make_batch(&mut stream, &db, kind);
        // Traced runs trace every other full rotation of kinds × metrics.
        let trace_it = ctx.trace && (i / 6) % 2 == 1;
        let res = if trace_it {
            let _op = trace::span("op.batch");
            let t0 = Instant::now();
            let snap = {
                let _s = trace::span("index.Session::snapshot");
                session.snapshot()
            };
            let r = {
                let _s = trace::span("index.Snapshot::batch");
                run_batch(&snap, &b, kind, metric, eps_of(metric), true)
            };
            traced.push(t0.elapsed());
            stats.merge(r.stats.as_ref().expect("stats requested"));
            answers += r.neighbors.iter().map(Vec::len).sum::<usize>();
            r
        } else {
            let t0 = Instant::now();
            let r = run_batch(&session.snapshot(), &b, kind, metric, eps_of(metric), false);
            plain.push(t0.elapsed());
            r
        };
        queries += BATCH;
        out.attempted += 1;
        // Outside the timed region: repeats must get identical answers.
        for (j, &o) in b.origin.iter().enumerate() {
            if o != j {
                out.check(same_answers(&res.neighbors[j], &res.neighbors[o]), || {
                    format!("duplicate {} query answered differently", kind.name())
                });
            }
        }
        if i.is_multiple_of(CHECK_EVERY) && checked.len() < MAX_CHECKED {
            checked.push(Checked {
                batch: b,
                kind,
                metric,
                answers: res.neighbors,
                stats: res.stats,
            });
        }
        i += 1;
    }
    let wall = (start.elapsed() - paused).as_secs_f64();
    setup.report(&mut out);

    // Sampled answers against brute force; in a traced run also the same
    // queries one at a time, to see what the batch's bound cache saved.
    let snap = session.snapshot();
    let (mut batch_bounds, mut single_bounds) = (0usize, 0usize);
    let mut samples = Vec::new();
    for c in &checked {
        let eps = eps_of(c.metric);
        let distinct = c.batch.origin.iter().enumerate().filter(|&(j, &o)| o == j);
        for (j, _) in distinct.take(CHECKED_PER_BATCH) {
            let q = &c.batch.queries[j];
            let brute = run_single(&snap, q, c.kind, c.metric, eps, true);
            out.check(same_answers(&c.answers[j], &brute.neighbors), || {
                format!(
                    "batch {} ({}) differs from brute force",
                    c.kind.name(),
                    c.metric.name()
                )
            });
            samples.push(KernelSample {
                query: q.clone(),
                metric: c.metric,
                mode: c.kind.mode(),
                threshold: match c.kind {
                    Kind::Range => eps,
                    _ => memdb::threshold(&c.answers[j]),
                },
            });
        }
        if let Some(s) = &c.stats {
            batch_bounds += s.bound_evaluations;
            for q in &c.batch.queries {
                let r = run_single(&snap, q, c.kind, c.metric, eps, false);
                single_bounds += r.stats.expect("stats requested").bound_evaluations;
            }
        }
    }
    out.meta("checked_batches", checked.len());
    out.meta("batches", plain.len() + traced.len());

    out.e2e("query_p50_ms", plain.quantile(0.5), "ms");
    out.e2e("op_tail_ms", plain.quantile(0.9), "ms");
    out.e2e("query_per_s", queries as f64 / wall, "1/s");
    out.e2e("batch_qps", queries as f64 / wall, "queries/s");
    out.e2e("batch_p90_ms", plain.quantile(0.9), "ms");
    out.meta("batch_p90_samples_beyond", plain.beyond(0.9));

    if ctx.trace {
        out.query_counters(&stats, answers);
        out.layer(
            "trace.overhead_p50_ms",
            traced.quantile(0.5) - plain.quantile(0.5),
        );
        if single_bounds > 0 {
            out.layer(
                "index.cache.bound_evals_saved_frac",
                1.0 - batch_bounds as f64 / single_bounds as f64,
            );
        }
        out.query_cpu_ms = traced.mean_ms() * THREADS as f64 / BATCH as f64;
        kernels::time_kernels(&snap, &samples);
        memdb::tree_layer(&snap, &mut out);
    }
    out
}
