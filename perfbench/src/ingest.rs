//! `ingest_live`: a durable 2-shard session (`FsyncPolicy::Always`,
//! default compaction trigger and delta-merge threshold) in three phases.
//!
//! * **Bulk** (part of set-up): 5k trips through `insert_batch(64)`.
//! * **Live**: one writer runs open-loop at the fixed `--writer-rate` —
//!   90% single `insert`, 10% `remove` of a live id — while one
//!   closed-loop reader runs k-NN on fresh `Session::snapshot()`s.
//!   Writes are timed from their due time.
//! * **Reopen**: the session is dropped and the directory reopened
//!   several times; each reopen is checked against a model of the live
//!   ids and against answers taken before the close.
//!
//! It is the only workload that touches the WAL, fsync, folds,
//! tombstones, compaction, the epoch lock and recovery.

use crate::data::{self, QueryStream};
use crate::kernels::{self, KernelSample};
use crate::memdb::{self, same_answers, K, SHARDS};
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::{persist_layer, trace, Ctx};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use traj_core::{TrajId, Trajectory};
use traj_index::{DurabilityConfig, FsyncPolicy, Metric, Neighbor, QueryMode, Session, Snapshot};

/// Trips loaded before the live phase.
const BULK: usize = 5_000;
/// Trips per `insert_batch` call in the bulk phase.
const BULK_BATCH: usize = 64;
/// Share of live writes that remove a live trajectory.
const REMOVE_FRAC: f64 = 0.10;
/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Reopens per run (`build_s` is their median).
const REOPENS: usize = 7;
/// Every `READER_CHECK_EVERY`-th reader query is kept for a brute-force
/// check against the snapshot it ran on, up to `READER_CHECKS`.
const READER_CHECK_EVERY: u64 = 100;
const READER_CHECKS: usize = 8;
/// Lookups answered before the close and compared after each reopen.
const CLOSE_CHECKS: usize = 8;

/// The durability policy of the workload.
pub fn durability() -> DurabilityConfig {
    DurabilityConfig::default().fsync(FsyncPolicy::Always)
}

/// One write of the stream, in the order the session saw it.
pub enum WriteOp {
    /// One `insert_batch` call of the bulk phase.
    Batch(Vec<Trajectory>),
    Insert(Trajectory),
    Remove(TrajId),
}

/// The live ids and their trajectories, as the writer believes them.
#[derive(Default)]
pub struct Model {
    trajs: Vec<Option<Trajectory>>,
    live: Vec<TrajId>,
}

impl Model {
    fn insert(&mut self, t: Trajectory) -> TrajId {
        let id = self.trajs.len() as TrajId;
        self.trajs.push(Some(t));
        self.live.push(id);
        id
    }

    fn remove_random(&mut self, pick: usize) -> TrajId {
        let id = self.live.swap_remove(pick % self.live.len());
        self.trajs[id as usize] = None;
        id
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Live `(id, trajectory)` pairs in ascending id order.
    pub fn pairs(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        self.trajs
            .iter()
            .enumerate()
            .filter_map(|(id, t)| t.as_ref().map(|t| (id as TrajId, t)))
    }

    fn user_bytes(&self) -> u64 {
        data::user_bytes(self.pairs().map(|(_, t)| t))
    }
}

/// Fold bookkeeping for the traced run: a write call during which a
/// shard's delta buffer drained folded it into the tree.
#[derive(Default)]
struct Folds {
    delta: Vec<usize>,
    count: usize,
    ms: Samples,
    occupancy: Vec<f64>,
}

impl Folds {
    fn observe(&mut self, session: &Session, call: Duration, inserted: bool) {
        let sizes = {
            let _s = trace::span("index.Snapshot::shard_sizes");
            session.snapshot().shard_sizes()
        };
        let delta: Vec<usize> = sizes.iter().map(|s| s.delta).collect();
        if inserted && self.delta.len() == delta.len() {
            let drained = delta
                .iter()
                .zip(&self.delta)
                .filter(|(now, before)| now < before);
            let n = drained.count();
            if n > 0 {
                self.count += n;
                self.ms.push(call);
            }
        }
        self.occupancy.push(delta.iter().sum::<usize>() as f64);
        self.delta = delta;
    }
}

fn open(dir: &Path) -> Result<Session, traj_core::TrajError> {
    Session::builder()
        .shards(SHARDS)
        .durability(durability())
        .open(dir)
}

/// Total size of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|es| {
            es.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

struct WriterResult {
    model: Model,
    log: Vec<WriteOp>,
    inserts: Samples,
    removes: Samples,
    lag_ms: f64,
    folds: Folds,
}

struct ReaderResult {
    latencies: Samples,
    traced: Samples,
    stats: traj_index::QueryStats,
    answers: usize,
    kept: Vec<(Snapshot, Trajectory, Metric, Vec<Neighbor>)>,
}

fn metric_of(i: u64) -> Metric {
    crate::knn::metric_of(i)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.out_dir.join(format!("ingest-{}", std::process::id()));
    let result = run_in(ctx, &dir, &mut out);
    if let Err(e) = result {
        out.check(false, || format!("ingest_live: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn fresh(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    dir.to_path_buf()
}

fn run_in(ctx: &Ctx, dir: &Path, out: &mut Outcome) -> Result<(), traj_core::TrajError> {
    let live_writes = (ctx.writer_rate * ctx.seconds.as_secs_f64()).ceil() as usize;

    // Set-up: generate, open a fresh directory, bulk-load it.
    let mut setups = Vec::new();
    let mut bulk_times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let (bulk, pool) = {
            let _s = trace::span("traj_gen::TrajGen::database");
            (
                data::trips(ctx.seed, 5, BULK),
                data::trips(ctx.seed, 6, live_writes),
            )
        };
        let session = {
            let _s = trace::span("index.SessionBuilder::open");
            open(&fresh(dir))?
        };
        let batches: Vec<Vec<Trajectory>> = bulk.chunks(BULK_BATCH).map(<[_]>::to_vec).collect();
        let mut model = Model::default();
        let mut log = Vec::new();
        let t_bulk = Instant::now();
        for b in batches {
            let ids = {
                let _op = trace::span("op.bulk_batch");
                let (ids, _) = trace::timed("index.Session::insert_batch", || {
                    session.insert_batch(b.clone())
                });
                ids?
            };
            let expect: Vec<TrajId> = b.iter().map(|t| model.insert(t.clone())).collect();
            out.check(ids == expect, || {
                "insert_batch returned unexpected ids".into()
            });
            log.push(WriteOp::Batch(b));
        }
        bulk_times.push(t_bulk.elapsed().as_secs_f64());
        setups.push(t0.elapsed().as_secs_f64());
        state = Some((session, bulk, pool, model, log));
    }
    let (session, bulk, pool, model, log) = state.expect("at least one set-up");
    out.e2e("setup_s", median(&setups), "s");
    out.e2e(
        "bulk_ingest_rec_per_s",
        BULK as f64 / median(&bulk_times),
        "records/s",
    );
    out.meta("bulk_trips", BULK);
    out.meta("shards", SHARDS);
    out.meta("fsync_policy", "Always");

    // Live: this thread writes open-loop, a second thread reads.
    let stop = AtomicBool::new(false);
    let live_start = Instant::now();
    let (w, r) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(ctx, &session, &bulk, &stop));
        let w = writer(ctx, &session, pool, model, log, live_writes, out);
        stop.store(true, Ordering::Relaxed);
        (w, reader.join().expect("reader thread panicked"))
    });
    let live_s = live_start.elapsed().as_secs_f64();
    let writer = w;
    out.attempted += (r.latencies.len() + r.traced.len()) as u64;
    for (snap, q, metric, got) in &r.kept {
        let brute = snap.query(q).metric(*metric).brute_force().knn(K);
        out.check(same_answers(got, &brute.neighbors), || {
            "reader knn under the writer differs from brute force".into()
        });
    }
    drop(r.kept);
    out.e2e("query_p50_ms", r.latencies.quantile(0.5), "ms");
    out.e2e("op_tail_ms", writer.inserts.quantile(0.95), "ms");
    out.e2e("insert_p50_ms", writer.inserts.quantile(0.5), "ms");
    out.e2e("insert_p99_ms", writer.inserts.quantile(0.99), "ms");
    out.e2e("remove_p50_ms", writer.removes.quantile(0.5), "ms");
    out.e2e("reader_knn_p50_ms", r.latencies.quantile(0.5), "ms");
    out.e2e("reader_knn_p99_ms", r.latencies.quantile(0.99), "ms");
    out.e2e(
        "query_per_s",
        (r.latencies.len() + r.traced.len()) as f64 / live_s,
        "1/s",
    );
    out.meta("live_inserts", writer.inserts.len());
    out.meta("live_removes", writer.removes.len());
    out.meta("insert_p99_samples_beyond", writer.inserts.beyond(0.99));
    out.meta("writer_lag_ms_max", writer.lag_ms);
    out.meta("reader_p99_samples_beyond", r.latencies.beyond(0.99));

    // Answers before the close, checked against brute force here and
    // against every reopen below.
    let mut stream = QueryStream::new(ctx.seed, 8);
    let snap = session.snapshot();
    let live_ids: Vec<(TrajId, &Trajectory)> = writer.model.pairs().collect();
    let mut before = Vec::new();
    for i in 0..CLOSE_CHECKS as u64 {
        let (_, t) = live_ids[stream.pick(live_ids.len())];
        let q = stream.resampled(t);
        let metric = metric_of(i);
        let got = snap.query(&q).metric(metric).knn(K).neighbors;
        let brute = snap.query(&q).metric(metric).brute_force().knn(K).neighbors;
        out.check(same_answers(&got, &brute), || {
            "pre-close knn differs from brute force".into()
        });
        before.push((q, metric, got));
    }
    out.check(session.len() == writer.model.len(), || {
        format!(
            "session holds {} live, model {}",
            session.len(),
            writer.model.len()
        )
    });
    if ctx.trace {
        let samples: Vec<KernelSample> = before
            .iter()
            .map(|(q, metric, got)| KernelSample {
                query: q.clone(),
                metric: *metric,
                mode: QueryMode::Whole,
                threshold: memdb::threshold(got),
            })
            .collect();
        kernels::time_kernels(&snap, &samples);
    }
    drop(snap);
    drop(session);

    // Reopen several times; nothing writes, so every reopen sees the same
    // directory.
    let mut reopen_s = Vec::new();
    for rep in 0..REOPENS {
        let (s, d) = trace::timed("index.SessionBuilder::open", || {
            Session::builder().durability(durability()).open(dir)
        });
        let s = s?;
        reopen_s.push(d.as_secs_f64());
        out.check(s.len() == writer.model.len(), || {
            format!(
                "reopen holds {} live, model {}",
                s.len(),
                writer.model.len()
            )
        });
        let snap = s.snapshot();
        for (q, metric, got) in &before {
            let again = snap.query(q).metric(*metric).knn(K).neighbors;
            out.check(same_answers(got, &again), || {
                "reopened knn differs from pre-close".into()
            });
        }
        if rep == 0 {
            let same = snap.iter().eq(writer.model.pairs());
            out.check(same, || "reopened live set differs from the model".into());
            if ctx.trace {
                out.layer("index.tree.height", snap.tree_height() as f64);
                out.layer("index.tree.node_count", snap.node_count() as f64);
            }
        }
    }
    out.e2e("build_s", median(&reopen_s), "s");
    out.e2e("reopen_s", median(&reopen_s), "s");
    let disk = dir_bytes(dir);
    let user = writer.model.user_bytes();
    out.e2e(
        "disk_bytes_per_user_byte",
        disk as f64 / user.max(1) as f64,
        "ratio",
    );
    out.meta("live_after_run", writer.model.len());

    if ctx.trace {
        let folds = &writer.folds;
        out.layer("index.shard.folds", folds.count as f64);
        out.layer("index.shard.fold_ms.p50", folds.ms.quantile(0.5));
        out.layer("index.shard.fold_ms.p99", folds.ms.quantile(0.99));
        out.layer("index.shard.delta_occupancy_mean", mean(&folds.occupancy));
        out.layer("load.writer_lag_ms.max", writer.lag_ms);
        out.layer(
            "load.reader_queries",
            (r.latencies.len() + r.traced.len()) as f64,
        );
        out.layer(
            "trace.overhead_p50_ms",
            r.traced.quantile(0.5) - r.latencies.quantile(0.5),
        );
        out.query_counters(&r.stats, r.answers);
        // The reader runs each query on one thread.
        out.query_cpu_ms = r.traced.mean_ms();
        persist_layer::recovery(dir, out);
        let replay_dir = fresh(&dir.with_extension("replay"));
        persist_layer::replay(&replay_dir, &writer.log, out);
        let _ = std::fs::remove_dir_all(&replay_dir);
    }
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The open-loop writer: `writes` operations, one every `1 / rate`
/// seconds, each timed from its due time.
fn writer(
    ctx: &Ctx,
    session: &Session,
    pool: Vec<Trajectory>,
    mut model: Model,
    mut log: Vec<WriteOp>,
    writes: usize,
    out: &mut Outcome,
) -> WriterResult {
    let mut folds = Folds::default();
    if ctx.trace {
        folds.observe(session, Duration::ZERO, false);
    }
    let mut pick = traj_gen::Rng::new(data::stream_seed(ctx.seed, 9));
    let mut pool = pool.into_iter();
    let interval = Duration::from_secs_f64(1.0 / ctx.writer_rate);
    let mut inserts = Samples::default();
    let mut removes = Samples::default();
    let mut lag_ms: f64 = 0.0;
    let t0 = Instant::now();
    for j in 0..writes {
        let remove = pick.uniform() < REMOVE_FRAC && model.len() > 0;
        let op = if remove {
            WriteOp::Remove(model.remove_random(pick.next_u64() as usize))
        } else {
            let t = pool.next().expect("one pool trip per write");
            WriteOp::Insert(t)
        };
        let due = t0 + interval * j as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let started = Instant::now();
        lag_ms = lag_ms.max(started.saturating_duration_since(due).as_secs_f64() * 1e3);
        let _op = trace::span("op.write");
        match &op {
            WriteOp::Insert(t) => {
                let (res, d) = trace::timed("index.Session::insert", || session.insert(t.clone()));
                inserts.push(Instant::now() - due);
                let expect = model.insert(t.clone());
                out.check(matches!(res, Ok(id) if id == expect), || {
                    format!("insert returned {res:?}, expected id {expect}")
                });
                if ctx.trace {
                    folds.observe(session, d, true);
                }
            }
            WriteOp::Remove(id) => {
                let (res, _) = trace::timed("index.Session::remove", || session.remove(*id));
                removes.push(Instant::now() - due);
                out.check(res.is_ok(), || {
                    format!("remove of live id {id} failed: {res:?}")
                });
                if ctx.trace {
                    folds.observe(session, Duration::ZERO, false);
                }
            }
            WriteOp::Batch(_) => unreachable!("live writes are singles"),
        }
        log.push(op);
    }
    WriterResult {
        model,
        log,
        inserts,
        removes,
        lag_ms,
        folds,
    }
}

/// The closed-loop reader: one k-NN on a fresh snapshot at a time, until
/// the writer is done.
fn reader(ctx: &Ctx, session: &Session, bulk: &[Trajectory], stop: &AtomicBool) -> ReaderResult {
    let mut stream = QueryStream::new(ctx.seed, 7);
    let mut res = ReaderResult {
        latencies: Samples::default(),
        traced: Samples::default(),
        stats: Default::default(),
        answers: 0,
        kept: Vec::new(),
    };
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let target = stream.pick(bulk.len());
        let q = stream.resampled(&bulk[target]);
        let metric = metric_of(i);
        let (snap, got) = if ctx.trace && (i / 2) % 2 == 1 {
            let _op = trace::span("op.reader_knn");
            let t0 = Instant::now();
            let snap = {
                let _s = trace::span("index.Session::snapshot");
                session.snapshot()
            };
            let r = {
                let _s = trace::span("index.Snapshot::query.knn");
                snap.query(&q)
                    .metric(metric)
                    .parallel_scatter(false)
                    .collect_stats()
                    .knn(K)
            };
            res.traced.push(t0.elapsed());
            res.stats.merge(r.stats.as_ref().expect("stats requested"));
            res.answers += r.neighbors.len();
            (snap, r.neighbors)
        } else {
            let t0 = Instant::now();
            let snap = session.snapshot();
            let r = snap.query(&q).metric(metric).parallel_scatter(false).knn(K);
            res.latencies.push(t0.elapsed());
            (snap, r.neighbors)
        };
        if i.is_multiple_of(READER_CHECK_EVERY) && res.kept.len() < READER_CHECKS {
            res.kept.push((snap, q, metric, got));
        }
        i += 1;
    }
    res
}
