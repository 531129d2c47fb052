//! The in-memory 10k-trajectory database shared by `knn_static` and
//! `batch_mixed`, and helpers both workloads use.

use crate::report::Outcome;
use crate::stats::median;
use crate::{data, trace, Ctx};
use std::time::{Duration, Instant};
use traj_core::Trajectory;
use traj_index::{Neighbor, Session, Snapshot, TrajStore, TrajTree, TrajTreeConfig};

/// Database size of the in-memory workloads.
pub const DB_SIZE: usize = 10_000;
/// Shard count of every workload.
pub const SHARDS: usize = 2;
/// Answers per k-NN query.
pub const K: usize = 10;
/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Set-up of the in-memory workloads: generate the database and
/// bulk-load a 2-shard session, [`SETUP_REPS`] times per run. The first
/// set-up runs before the queries; the others run a third and two thirds
/// of the way through the query time (see [`Setup::due`]), so that the
/// medians span the whole run rather than its first seconds, and a few
/// seconds of host contention move them less. Builds are deterministic,
/// so every set-up yields the same session.
pub struct Setup {
    times: Vec<f64>,
    builds: Vec<f64>,
}

impl Setup {
    /// Runs the first set-up.
    pub fn start(ctx: &Ctx) -> (Setup, Session, Vec<Trajectory>) {
        let mut setup = Setup {
            times: Vec::new(),
            builds: Vec::new(),
        };
        let (session, db) = setup.once(ctx);
        (setup, session, db)
    }

    /// Whether the next set-up is due after `queried` of the run's query
    /// time.
    pub fn due(&self, ctx: &Ctx, queried: Duration) -> bool {
        let done = self.times.len();
        done < SETUP_REPS && queried >= ctx.seconds * done as u32 / SETUP_REPS as u32
    }

    /// Drops the session and its database and runs the set-up again, so
    /// that only one database is alive at a time; returns the new pair and
    /// how long the pause took, which the caller keeps out of its query
    /// time.
    pub fn again(
        &mut self,
        ctx: &Ctx,
        old: (Session, Vec<Trajectory>),
    ) -> (Session, Vec<Trajectory>, Duration) {
        let t0 = Instant::now();
        drop(old);
        let (session, db) = self.once(ctx);
        (session, db, t0.elapsed())
    }

    /// Generates the database and builds the session once; records the
    /// whole set-up time and the build alone.
    fn once(&mut self, ctx: &Ctx) -> (Session, Vec<Trajectory>) {
        let t0 = Instant::now();
        let db = {
            let _s = trace::span("traj_gen::TrajGen::database");
            data::trips(ctx.seed, 1, DB_SIZE)
        };
        let store = TrajStore::from(db.clone());
        let (session, d) = trace::timed("index.SessionBuilder::build", || {
            Session::builder().shards(SHARDS).build(store)
        });
        self.builds.push(d.as_secs_f64());
        self.times.push(t0.elapsed().as_secs_f64());
        (session, db)
    }

    /// Records `setup_s` (median whole set-up) and `build_s` (median
    /// session build).
    pub fn report(self, out: &mut Outcome) {
        out.e2e("setup_s", median(&self.times), "s");
        out.e2e("build_s", median(&self.builds), "s");
        out.meta("setup_reps", self.times.len());
        out.meta("db_size", DB_SIZE);
        out.meta("shards", SHARDS);
    }
}

/// Bitwise answer equality: same ids, same distance bits, same order.
pub fn same_answers(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

/// Times `TrajTree::bulk_load` over each shard's members (the id-hash
/// router's `gid mod shards` split, ascending ids) and records the tree
/// shape the snapshot reports.
pub fn tree_layer(snap: &Snapshot, out: &mut Outcome) {
    let n = snap.num_shards().max(1);
    let mut stores: Vec<TrajStore> = (0..n).map(|_| TrajStore::new()).collect();
    for (gid, t) in snap.iter() {
        stores[gid as usize % n].insert(t.clone());
    }
    let mut total_ms = 0.0;
    for store in &stores {
        let (tree, d) = trace::timed("index.TrajTree::bulk_load", || {
            TrajTree::bulk_load(store, TrajTreeConfig::default())
        });
        total_ms += d.as_secs_f64() * 1e3;
        std::hint::black_box(tree.len());
    }
    out.layer("index.tree.bulk_load_ms", total_ms);
    out.layer("index.tree.height", snap.tree_height() as f64);
    out.layer("index.tree.node_count", snap.node_count() as f64);
}

/// The pruning threshold an answer list ended with: its last distance,
/// or unbounded for an empty list.
pub fn threshold(ns: &[Neighbor]) -> f64 {
    ns.last().map_or(f64::INFINITY, |n| n.distance)
}
