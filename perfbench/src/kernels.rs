//! Per-call kernel timings on a workload's own query × candidate pairs.
//!
//! The engine calls its kernels internally, so a `Session` call cannot
//! say how long one call took. This module replays the public kernel
//! entry points of `traj-dist` on pairs the workload actually produced
//! (each sampled query against its nearest members: its answers and the
//! near misses an index search refines),
//! under whatever instruction-set path the process dispatches to. Each
//! timed loop is one span whose item count is the number of calls, so a
//! kernel's `ns_per_call` is its spans' time divided by their items.

use crate::trace;
use traj_core::{StBox, Trajectory};
use traj_dist::{
    edwp_avg_lower_bound_boxes_with_scratch, edwp_avg_lower_bound_trajectory_with_scratch,
    edwp_avg_with_scratch, edwp_lower_bound_aabb_batch, edwp_lower_bound_boxes_with_scratch,
    edwp_lower_bound_trajectory_with_scratch, edwp_sub_avg_with_scratch,
    edwp_sub_lower_bound_boxes_with_scratch, edwp_sub_lower_bound_trajectory_with_scratch,
    edwp_sub_with_scratch, edwp_with_scratch, BoxSeq, Cutoff, EdwpScratch, Metric, QueryMode,
};
use traj_index::{Snapshot, TrajTreeConfig};

/// Span names of the kernel loops.
pub const EDWP: &str = "dist.edwp";
pub const BOX_BOUND: &str = "dist.boxes.box_bound";
pub const SUB_BOUND: &str = "dist.boxes.sub_bound";
pub const TRAJ_BOUND: &str = "dist.boxes.traj_bound";
pub const PRESCREEN: &str = "dist.boxes.prescreen";
/// The engine's own forms of the two dominant kernels — cut off at the
/// query's final threshold, as a search calls them — which feed the
/// kernel-share estimate.
pub const EDWP_CUT: &str = "dist.edwp.cutoff";
pub const TRAJ_BOUND_CUT: &str = "dist.boxes.traj_bound.cutoff";

/// One sampled lookup of the workload: the query, how it was asked, and
/// its final pruning threshold (the k-th distance, or a range radius).
pub struct KernelSample {
    pub query: Trajectory,
    pub metric: Metric,
    pub mode: QueryMode,
    pub threshold: f64,
}

/// Candidates per sample: the query's nearest members under its metric.
const CANDIDATES: usize = 24;

/// How many times each pair loop is repeated, so one span covers enough
/// calls to time well above the clock's resolution.
const REPS: usize = 20;

/// Times every kernel on `samples` against `snap`, one span per
/// (sample, kernel) loop.
pub fn time_kernels(snap: &Snapshot, samples: &[KernelSample]) {
    let cfg = TrajTreeConfig::default();
    let mut scratch = EdwpScratch::new();
    let mut out = Vec::new();
    for s in samples {
        let near = snap
            .query(&s.query)
            .metric(s.metric)
            .mode(s.mode)
            .knn(CANDIDATES)
            .neighbors;
        let cands: Vec<&Trajectory> = near.iter().map(|n| snap.get(n.id)).collect();
        if cands.is_empty() {
            continue;
        }
        // Leaf-sized groups summarised the way the tree summarises a leaf,
        // and a fan-out's worth of group boxes as the children of one
        // internal node.
        let groups: Vec<(BoxSeq, f64)> = cands
            .chunks(cfg.leaf_capacity)
            .filter_map(|g| {
                let seq = BoxSeq::from_trajectories(g.iter().copied(), Some(cfg.leaf_boxes))?;
                let max_len = g.iter().map(|t| t.length()).fold(0.0, f64::max);
                Some((seq, max_len))
            })
            .collect();
        let children: Vec<StBox> = cands
            .chunks(cands.len().div_ceil(cfg.fanout))
            .map(|g| {
                g.iter()
                    .map(|t| t.bounding_box())
                    .reduce(|a, b| a.union(&b))
                    .expect("chunks are non-empty")
            })
            .collect();
        let q = &s.query;
        scratch.set_query(q);
        let mut sink = 0.0;
        let mut run = |name: &'static str, calls: usize, f: &mut dyn FnMut() -> f64| {
            let mut g = trace::span(name);
            g.items((calls * REPS) as u64);
            for _ in 0..REPS {
                sink += f();
            }
        };
        run(EDWP, cands.len(), &mut || {
            cands
                .iter()
                .map(|c| match (s.metric, s.mode) {
                    (Metric::Edwp, QueryMode::Whole) => edwp_with_scratch(q, c, &mut scratch),
                    (Metric::Edwp, QueryMode::Sub) => edwp_sub_with_scratch(q, c, &mut scratch),
                    (Metric::EdwpNormalized, QueryMode::Whole) => {
                        edwp_avg_with_scratch(q, c, &mut scratch)
                    }
                    (Metric::EdwpNormalized, QueryMode::Sub) => {
                        edwp_sub_avg_with_scratch(q, c, &mut scratch)
                    }
                })
                .sum()
        });
        run(EDWP_CUT, cands.len(), &mut || {
            cands
                .iter()
                .map(|c| {
                    let cut = Cutoff::constant(s.threshold);
                    s.metric.distance_bounded(s.mode, q, c, cut, &mut scratch)
                })
                .sum()
        });
        let name = match s.mode {
            QueryMode::Whole => BOX_BOUND,
            QueryMode::Sub => SUB_BOUND,
        };
        run(name, groups.len(), &mut || {
            groups
                .iter()
                .map(|(seq, max_len)| match (s.metric, s.mode) {
                    (_, QueryMode::Sub) => {
                        edwp_sub_lower_bound_boxes_with_scratch(q, seq, &mut scratch)
                    }
                    (Metric::Edwp, _) => edwp_lower_bound_boxes_with_scratch(q, seq, &mut scratch),
                    (Metric::EdwpNormalized, _) => {
                        edwp_avg_lower_bound_boxes_with_scratch(q, seq, *max_len, &mut scratch)
                    }
                })
                .sum()
        });
        run(TRAJ_BOUND, cands.len(), &mut || {
            cands
                .iter()
                .map(|c| match (s.metric, s.mode) {
                    (_, QueryMode::Sub) => {
                        edwp_sub_lower_bound_trajectory_with_scratch(q, c, &mut scratch)
                    }
                    (Metric::Edwp, _) => {
                        edwp_lower_bound_trajectory_with_scratch(q, c, &mut scratch)
                    }
                    (Metric::EdwpNormalized, _) => {
                        edwp_avg_lower_bound_trajectory_with_scratch(q, c, &mut scratch)
                    }
                })
                .sum()
        });
        // The sweep compares raw sums, so a normalised threshold is lifted
        // to raw scale with the widest candidate, as the engine does.
        let cutoff = match s.metric {
            Metric::Edwp => s.threshold,
            Metric::EdwpNormalized => {
                s.threshold * (q.length() + cands.iter().map(|t| t.length()).fold(0.0, f64::max))
            }
        };
        run(TRAJ_BOUND_CUT, cands.len(), &mut || {
            cands
                .iter()
                .map(|c| {
                    let cut = Cutoff::constant(s.threshold);
                    s.metric
                        .lower_bound_trajectory(s.mode, q, c, cut, &mut scratch)
                })
                .sum()
        });
        run(PRESCREEN, 1, &mut || {
            edwp_lower_bound_aabb_batch(q, &children, cutoff, &mut scratch, &mut out);
            out.iter().sum()
        });
        std::hint::black_box(sink);
    }
}
