//! Layer replays for the storage work a `Session` call hides.
//!
//! * [`replay`] re-issues `ingest_live`'s exact write stream against a
//!   bare `traj_persist::StorageEngine` in a throwaway directory, timing
//!   `append`/`append_group`, `append_tombstones`, `sync` and `compact`
//!   apart, and counting WAL bytes and fsyncs. The session's
//!   `FsyncPolicy::Always` issues one `fsync` per write call right after
//!   the write; the replay opens the engine with `FsyncPolicy::OsManaged`
//!   and calls `sync` after every write call instead, which issues the
//!   same system calls in the same order while timing the write and the
//!   `fsync` separately.
//! * [`recovery`] times the three steps of a cold open on the reopened
//!   directory: `load_snapshot`, `replay_wal` and one
//!   `TrajTree::bulk_load` per shard.

use crate::data;
use crate::ingest::WriteOp;
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace;
use std::collections::BTreeMap;
use std::path::Path;
use traj_core::{TrajId, Trajectory};
use traj_index::{TrajStore, TrajTree, TrajTreeConfig};
use traj_persist::{
    load_snapshot, replay_wal, snapshot_file_name, wal_file_name, DurabilityConfig, FsyncPolicy,
    PersistError, StorageEngine, WalRecord,
};

/// The newest snapshot generation in `dir`.
fn newest_generation(dir: &Path) -> Option<u64> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let g: u64 = name
                .strip_prefix("snapshot-")?
                .strip_suffix(".snap")?
                .parse()
                .ok()?;
            (snapshot_file_name(g) == name).then_some(g)
        })
        .max()
}

/// Live trajectories by id per shard section, as the engine's
/// `compact` wants them.
fn sections<'a>(
    live: &'a BTreeMap<TrajId, &'a Trajectory>,
    shards: usize,
) -> Vec<Vec<(TrajId, &'a Trajectory)>> {
    let mut out: Vec<Vec<(TrajId, &Trajectory)>> = (0..shards).map(|_| Vec::new()).collect();
    for (&id, &t) in live {
        out[id as usize % shards].push((id, t));
    }
    out
}

/// Times `load_snapshot`, `replay_wal` and the shard bulk loads of a
/// cold open of `dir`.
pub fn recovery(dir: &Path, out: &mut Outcome) {
    let res = (|| -> Result<(), PersistError> {
        let g = newest_generation(dir).ok_or_else(|| PersistError::StateMismatch {
            detail: "no snapshot in the reopened directory".into(),
        })?;
        let (snap, d_load) = trace::timed("persist.load_snapshot", || {
            load_snapshot(&dir.join(snapshot_file_name(g)))
        });
        let snap = snap?;
        let (wal, d_replay) = trace::timed("persist.replay_wal", || {
            replay_wal(&dir.join(wal_file_name(g)))
        });
        let wal = wal?;
        out.layer("persist.snapshot.load_ms", d_load.as_secs_f64() * 1e3);
        out.layer("persist.wal.replay_ms", d_replay.as_secs_f64() * 1e3);

        let mut shards = snap.sections.len().max(1);
        let mut live: BTreeMap<TrajId, Trajectory> = snap.sections.into_iter().flatten().collect();
        let mut next = snap.next_id as TrajId;
        for r in wal.records {
            match r {
                WalRecord::Insert(t) => {
                    live.insert(next, t);
                    next += 1;
                }
                WalRecord::Tombstone(id) => {
                    live.remove(&id);
                }
                WalRecord::Reshard(n) => shards = n as usize,
            }
        }
        let mut stores: Vec<TrajStore> = (0..shards).map(|_| TrajStore::new()).collect();
        for (id, t) in live {
            stores[id as usize % shards].insert(t);
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
        Ok(())
    })();
    out.check(res.is_ok(), || {
        format!("recovery layer replay failed: {res:?}")
    });
}

/// Replays `log` against a fresh storage engine in `dir` (see the module
/// docs for the fsync policy), then reopens it and checks the recovered
/// live set.
pub fn replay(dir: &Path, log: &[WriteOp], out: &mut Outcome) {
    let res = replay_inner(dir, log, out);
    out.check(res.is_ok(), || format!("storage replay failed: {res:?}"));
}

fn replay_inner(dir: &Path, log: &[WriteOp], out: &mut Outcome) -> Result<(), PersistError> {
    let cfg = DurabilityConfig::default().fsync(FsyncPolicy::OsManaged);
    let shards = crate::memdb::SHARDS;
    let (_, mut engine) = StorageEngine::open(dir, cfg)?;
    let wal_len = |e: &StorageEngine| {
        std::fs::metadata(dir.join(wal_file_name(e.generation()))).map_or(0, |m| m.len())
    };
    let mut live: BTreeMap<TrajId, &Trajectory> = BTreeMap::new();
    let mut next: TrajId = 0;
    let (mut append_us, mut sync_us, mut compact_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut records, mut fsyncs, mut wal_bytes, mut user_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut live_compactions = 0;
    let mut wal_before = wal_len(&engine);
    for w in log {
        // The session compacts before appending once the log is due.
        if engine.needs_compaction() {
            let secs = sections(&live, shards);
            let (r, d) = trace::timed("persist.StorageEngine::compact", || engine.compact(&secs));
            r?;
            compact_ms.push(d);
            live_compactions += usize::from(!matches!(w, WriteOp::Batch(_)));
            wal_before = wal_len(&engine);
        }
        let (r, d) = match w {
            WriteOp::Batch(b) => {
                for t in b {
                    live.insert(next, t);
                    next += 1;
                }
                records += b.len() as u64;
                user_bytes += data::user_bytes(b);
                trace::timed("persist.StorageEngine::append_group", || {
                    engine.append_group(b)
                })
            }
            WriteOp::Insert(t) => {
                live.insert(next, t);
                next += 1;
                records += 1;
                user_bytes += data::user_bytes([t]);
                trace::timed("persist.StorageEngine::append", || engine.append(t))
            }
            WriteOp::Remove(id) => {
                live.remove(id);
                records += 1;
                trace::timed("persist.StorageEngine::append_tombstones", || {
                    engine.append_tombstones(std::slice::from_ref(id))
                })
            }
        };
        r?;
        append_us.push(d);
        let (r, d) = trace::timed("persist.StorageEngine::sync", || engine.sync());
        r?;
        sync_us.push(d);
        fsyncs += 1;
        let now = wal_len(&engine);
        wal_bytes += now.saturating_sub(wal_before);
        wal_before = now;
    }
    drop(engine);
    let (recovered, _) = StorageEngine::open(dir, cfg)?;
    let same = recovered
        .trajs
        .iter()
        .map(|(id, t)| (*id, t))
        .eq(live.iter().map(|(id, t)| (*id, *t)));
    out.check(same, || {
        "storage replay recovered a different live set".into()
    });

    // Samples hold milliseconds; these two layers report microseconds.
    out.layer("persist.wal.append_us.p50", append_us.quantile(0.5) * 1e3);
    out.layer("persist.wal.append_us.p99", append_us.quantile(0.99) * 1e3);
    out.layer("persist.wal.sync_us.p50", sync_us.quantile(0.5) * 1e3);
    out.layer("persist.wal.sync_us.p99", sync_us.quantile(0.99) * 1e3);
    out.layer(
        "persist.wal.fsyncs_per_record",
        fsyncs as f64 / records.max(1) as f64,
    );
    out.layer(
        "persist.wal.bytes_per_user_byte",
        wal_bytes as f64 / user_bytes.max(1) as f64,
    );
    out.layer("persist.engine.compactions", compact_ms.len() as f64);
    out.meta("live_phase_compactions", live_compactions);
    out.layer("persist.engine.compact_ms.max", compact_ms.max_ms());
    Ok(())
}
