//! Trajectory box sequences (tBoxSeq, Definitions 4–5) and the generalised
//! `EDwP_sub` between a trajectory and a tBoxSeq (Sec. IV-B).
//!
//! A [`BoxSeq`] summarises a *set* of whole trajectories as an ordered
//! sequence of spatio-temporal boxes. It is built incrementally: the first
//! trajectory contributes one (degenerate) box per segment; every further
//! trajectory is aligned against the running sequence with
//! [`align_boxes`] — the box-mode `EDwP_sub` dynamic program with
//! traceback — and every box the alignment consumed is grown to cover the
//! pieces matched to it: one output box per consumed input box, never one
//! per replace operation (see [`BoxSeq::merge_trajectory`] for why).
//!
//! [`edwp_sub_boxes`] is the value-only variant of the alignment cost; the
//! TrajTree index prunes with [`edwp_lower_bound_boxes`] instead.
//!
//! # Lower-bound posture
//!
//! Replacement costs use point-to-box distances (never larger than the
//! distance to any enclosed trajectory point) and the paper's
//! `Coverage(T.e, B.b) = length(e) + b.minL`. When a box is consumed by
//! several query segments (the box-split `ins(B, T)` edit), the `minL` term
//! is charged only on the step that advances past the box — charging it on
//! every stay-step can exceed the coverage of the corresponding true
//! alignment, which would break admissibility (the `ins` into B relaxation
//! in `run_box_dp`).
//!
//! Even so, [`edwp_sub_boxes`] is only *approximately* admissible: its
//! interpolated DP anchors are canonical (the point of a segment closest to
//! the last consumed box), and once boxes are coarsened by
//! [`BoxSeq::coalesce`] those anchors can drift far enough from the true
//! optimum's split points that the DP value exceeds `EDwP(Q, T)` for a
//! summarised member `T` (property testing observed >40% overshoot on
//! aggressively coalesced sequences). Exact index pruning therefore uses
//! the strictly admissible relaxation [`edwp_lower_bound_boxes`];
//! `edwp_sub_boxes` remains the construction-time alignment cost for
//! [`BoxSeq::merge_trajectory`], where admissibility is irrelevant.

use crate::cutoff::Cutoff;
use crate::edwp::EdwpScratch;
use crate::matrix::Matrix;
use traj_core::{Segment, StBox, StPoint, Trajectory};

/// A trajectory box sequence (tBoxSeq, Definition 5): an ordered sequence
/// of [`StBox`]es summarising a set of trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxSeq {
    boxes: Vec<StBox>,
}

/// One replace operation recovered from the box-mode alignment traceback:
/// the piece of the trajectory (a straight sub-segment) that was matched to
/// the box at `box_idx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepOp {
    /// Index of the matched box in the [`BoxSeq`].
    pub box_idx: usize,
    /// Matched piece of the trajectory.
    pub piece: Segment,
}

/// The full result of aligning a trajectory against a [`BoxSeq`]: the
/// `EDwP_sub` cost and the sequence of replace operations.
#[derive(Debug, Clone)]
pub struct BoxAlignment {
    /// Alignment cost (identical to [`edwp_sub_boxes`]).
    pub cost: f64,
    /// Replace operations in trajectory order.
    pub ops: Vec<RepOp>,
}

impl BoxSeq {
    /// `createTBoxSeq(T)`: one tight box per segment of `t`.
    pub fn from_trajectory(t: &Trajectory) -> Self {
        BoxSeq {
            boxes: t.segments().map(|e| StBox::from_segment(&e)).collect(),
        }
    }

    /// Builds a tBoxSeq over a set of trajectories with the paper's
    /// iterative procedure: seed with the first, then merge each remaining
    /// trajectory via its alignment. `max_boxes` optionally coalesces the
    /// sequence to bound its length (`None` leaves it unbounded).
    pub fn from_trajectories<'a, I>(mut trajs: I, max_boxes: Option<usize>) -> Option<Self>
    where
        I: Iterator<Item = &'a Trajectory>,
    {
        let first = trajs.next()?;
        let mut seq = BoxSeq::from_trajectory(first);
        seq.coalesce(max_boxes);
        for t in trajs {
            seq = seq.merge_trajectory(t);
            seq.coalesce(max_boxes);
        }
        Some(seq)
    }

    /// Builds a tBoxSeq directly from a box sequence — the roll-up
    /// constructor for summaries-of-summaries. Every admissible lower
    /// bound over a tBoxSeq ([`edwp_lower_bound_boxes`] and friends)
    /// depends only on the *coverage* invariant — each summarised
    /// trajectory's polyline lies inside the union of the boxes — and
    /// takes a minimum over all boxes per query segment, so concatenating
    /// the box sequences of several child summaries (and optionally
    /// [`BoxSeq::coalesce`]-ing, which only unions boxes) yields a valid
    /// summary of their combined member sets without re-aligning a single
    /// trajectory. The sequence *order* only matters to the construction
    /// alignment ([`BoxSeq::merge_trajectory`] / [`edwp_sub_boxes`]),
    /// where a coarser order costs summary quality, never correctness.
    pub fn from_boxes(boxes: Vec<StBox>) -> Self {
        BoxSeq { boxes }
    }

    /// The boxes in sequence order.
    #[inline]
    pub fn boxes(&self) -> &[StBox] {
        &self.boxes
    }

    /// Number of boxes (`|B|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// `true` when the sequence has no boxes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// `Vol(B)`: the sum of box volumes (Definition 5).
    pub fn volume(&self) -> f64 {
        self.boxes.iter().map(|b| b.volume()).sum()
    }

    /// `createTBoxSeq(T, B)`: merges trajectory `t` into this sequence.
    /// The `EDwP_sub` alignment is computed and each *consumed* box is
    /// grown to the union of itself and every trajectory piece matched to
    /// it; skipped prefix/suffix boxes are kept as-is.
    ///
    /// One output box is emitted per consumed input box — never one per
    /// replace operation. Duplicating a box once per operation would force
    /// previously merged trajectories to pay extra `ins` edits to traverse
    /// the copies, which can push the sequence's `EDwP_sub` above the true
    /// `EDwP` of a member and break the Theorem 2 lower bound (observed as
    /// large admissibility violations in the property tests).
    pub fn merge_trajectory(&self, t: &Trajectory) -> BoxSeq {
        self.grow_by_ops(&align_boxes(t, self).ops)
    }

    /// The merge step of [`BoxSeq::merge_trajectory`]: grows every box an
    /// alignment consumed by the pieces matched to it.
    fn grow_by_ops(&self, ops: &[RepOp]) -> BoxSeq {
        let first_used = ops.iter().map(|o| o.box_idx).min();
        let last_used = ops.iter().map(|o| o.box_idx).max();
        let (first_used, last_used) = match (first_used, last_used) {
            (Some(f), Some(l)) => (f, l),
            _ => return self.clone(), // no ops: nothing aligned, keep as-is
        };
        let mut out = Vec::with_capacity(self.boxes.len());
        out.extend_from_slice(&self.boxes[..first_used]);
        let mut current: Option<(usize, StBox)> = None;
        for op in ops {
            match &mut current {
                Some((idx, grown)) if *idx == op.box_idx => grown.expand_to_segment(&op.piece),
                _ => {
                    if let Some((idx, grown)) = current.take() {
                        out.push(grown);
                        // Preserve any in-range boxes the alignment stepped
                        // past without recording an op (defensive: advances
                        // are one box at a time, so this is normally empty).
                        out.extend_from_slice(&self.boxes[idx + 1..op.box_idx]);
                    }
                    let mut grown = self.boxes[op.box_idx];
                    grown.expand_to_segment(&op.piece);
                    current = Some((op.box_idx, grown));
                }
            }
        }
        if let Some((_, grown)) = current {
            out.push(grown);
        }
        out.extend_from_slice(&self.boxes[last_used + 1..]);
        BoxSeq { boxes: out }
    }

    /// The growth in total volume that merging `t` would cause — the
    /// insertion criterion of Alg. 1 (line 11).
    pub fn merge_volume_delta(&self, t: &Trajectory) -> f64 {
        self.merge_trajectory(t).volume() - self.volume()
    }

    /// Greedily unions adjacent boxes until at most `max` remain, choosing
    /// at each step the neighbouring pair whose union grows total volume
    /// least. Keeps tBoxSeqs bounded as more trajectories merge in (the
    /// paper leaves this engineering concern open).
    pub fn coalesce(&mut self, max: Option<usize>) {
        let Some(max) = max else { return };
        let max = max.max(1);
        while self.boxes.len() > max {
            let mut best = (0usize, f64::INFINITY);
            for i in 0..self.boxes.len() - 1 {
                let grown = self.boxes[i].union(&self.boxes[i + 1]).volume()
                    - self.boxes[i].volume()
                    - self.boxes[i + 1].volume();
                if grown < best.1 {
                    best = (i, grown);
                }
            }
            let merged = self.boxes[best.0].union(&self.boxes[best.0 + 1]);
            self.boxes[best.0] = merged;
            self.boxes.remove(best.0 + 1);
        }
    }
}

/// Provably admissible lower bound on `EDwP(t, T)` for every trajectory `T`
/// summarised by `seq` — the bound that drives TrajTree's exact k-NN search.
///
/// Derivation (a relaxation of the Theorem 2 construction): every replace
/// operation in an optimal EDwP alignment costs
/// `(dist(a, b) + dist(e1, e2)) · (len(q_piece) + len(t_piece))` where `b`
/// and `e2` lie on `T`, and `T`'s polyline is contained in the union of
/// `seq`'s boxes (the coverage invariant maintained by
/// [`BoxSeq::merge_trajectory`] and [`BoxSeq::coalesce`]). Both distance
/// terms are therefore at least the minimum distance from the query piece's
/// segment to the nearest box, and the query pieces of each segment tile its
/// length, giving `EDwP(t, T) ≥ Σ_i 2 · len(e_i) · min_b dist(e_i, b)`.
///
/// Unlike [`edwp_sub_boxes`] — whose canonical interpolated anchors can
/// overshoot the true optimum and break admissibility once boxes are
/// coarsened — this bound never exceeds the true distance, so best-first
/// search pruned with it stays exact. It is correspondingly looser when the
/// query runs close to the boxes, which only costs extra refinement work.
pub fn edwp_lower_bound_boxes(t: &Trajectory, seq: &BoxSeq) -> f64 {
    if seq.is_empty() {
        return f64::INFINITY;
    }
    t.segments()
        .map(|e| {
            let d = seq
                .boxes()
                .iter()
                .map(|b| b.closest_param_on_segment(&e).1)
                .fold(f64::INFINITY, f64::min);
            2.0 * d * e.length()
        })
        .sum()
}

/// [`edwp_lower_bound_boxes`] with caller-pooled working memory: the query's
/// `(segment, length)` pieces come from `scratch`, so a query pinned with
/// [`EdwpScratch::set_query`] is decomposed once per search instead of once
/// per bound evaluation. Identical value to the plain function.
pub fn edwp_lower_bound_boxes_with_scratch(
    t: &Trajectory,
    seq: &BoxSeq,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_lower_bound_boxes_bounded(t, seq, f64::INFINITY.into(), scratch)
}

/// Early-exit variant of [`edwp_lower_bound_boxes_with_scratch`] for search
/// pruning: the per-segment accumulation bails as soon as the partial sum
/// *strictly* exceeds the cutoff's current value (the collector's pruning
/// threshold), returning the partial sum.
///
/// `cutoff` is a [`Cutoff`]: a plain constant (`threshold.into()`), or a
/// live [`Cutoff::shared`] atomic re-loaded at every accumulation step, so
/// a threshold another search worker tightens mid-kernel deepens this
/// kernel's early exit immediately.
///
/// Every partial sum is itself an admissible lower bound (all terms are
/// non-negative), so the returned value can be used as a priority-queue key
/// unchanged. The contract callers rely on:
///
/// * `result <= cutoff.current()` (evaluated after the call; shared
///   cutoffs only ever tighten) implies the accumulation ran to
///   completion, so `result` equals the full bound bit-for-bit;
/// * a bailed result implies the full bound also exceeds the cutoff value
///   the bail compared against (the partial sum never overshoots the
///   total), so the pruning decision is identical — only cheaper.
///
/// The comparison is strict so a bound that lands exactly *on* the
/// threshold is still returned in full: the engine keeps expanding ties to
/// preserve id-order tie-breaking against the brute-force reference.
///
/// # Dispatch
///
/// This entry point runs on the instruction-set path
/// [`crate::simd::Isa::current`] resolves to: the scalar kernel (bit-for-bit
/// the historical code) or a 4-wide AVX2 kernel evaluating four boxes per
/// iteration. Both are admissible and honour the cutoff contract above;
/// their values agree to rounding, not to the bit (the AVX2 kernel computes
/// the same segment-to-box minimum through a different exact
/// decomposition — see [`crate::simd`]). Use
/// [`crate::simd::edwp_lower_bound_boxes_bounded_isa`] to pin a path
/// explicitly.
pub fn edwp_lower_bound_boxes_bounded(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    match crate::simd::Isa::current() {
        crate::simd::Isa::Scalar => boxes_bounded_scalar(t, seq, cutoff, scratch),
        crate::simd::Isa::Avx2 => boxes_bounded_simd(t, seq, cutoff, scratch),
    }
}

/// Scalar body of [`edwp_lower_bound_boxes_bounded`] — bit-for-bit the
/// pre-SIMD kernel, and the dispatch target under `TRAJ_FORCE_SCALAR`.
pub(crate) fn boxes_bounded_scalar(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    if seq.is_empty() {
        return f64::INFINITY;
    }
    let boxes = seq.boxes();
    let mut sum = 0.0;
    for (e, len) in scratch.query_pieces(t) {
        // The minimum over boxes is computed with a cheap prescreen: the
        // axis-aligned distance between the segment's bounding box and a
        // summary box never exceeds the true segment-to-box distance, so a
        // box whose prescreen already matches or exceeds the running
        // minimum cannot improve it — the exact edge computation is
        // skipped without changing the minimum (compared squared, no
        // sqrt). A zero minimum ends the sweep: distances are
        // non-negative.
        let (exlo, exhi) = minmax(e.a.p.x, e.b.p.x);
        let (eylo, eyhi) = minmax(e.a.p.y, e.b.p.y);
        let mut d = f64::INFINITY;
        let mut d2 = f64::INFINITY;
        for b in boxes {
            let dx = (b.lo.x - exhi).max(exlo - b.hi.x).max(0.0);
            let dy = (b.lo.y - eyhi).max(eylo - b.hi.y).max(0.0);
            if dx * dx + dy * dy >= d2 {
                continue;
            }
            let v = b.closest_param_on_segment(e).1;
            if v < d {
                d = v;
                d2 = v * v;
                if v == 0.0 {
                    break;
                }
            }
        }
        sum += 2.0 * d * len;
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// AVX2 body of [`edwp_lower_bound_boxes_bounded`]: mirrors the box
/// sequence into the scratch's SoA buffers once per call, then evaluates
/// each query piece's segment-to-box minimum four boxes per iteration
/// (lane-wise AABB prescreen, vectorised clip test, exact corner/endpoint
/// decomposition — see [`crate::simd::seg_min_dist_sq_avx2`]). Same
/// admissibility and cutoff contract as the scalar body.
#[cfg(target_arch = "x86_64")]
pub(crate) fn boxes_bounded_simd(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    if seq.is_empty() {
        return f64::INFINITY;
    }
    let (pieces, soa) = scratch.pieces_and_soa(t);
    soa.fill(seq.boxes());
    let mut sum = 0.0;
    for &(e, len) in pieces {
        // Safety: this path is only dispatched to when AVX2 is available
        // (runtime detection in `Isa`, or `force_isa` which refuses the
        // request on unsupported CPUs).
        let d2 =
            unsafe { crate::simd::seg_min_dist_sq_avx2(soa, e.a.p.x, e.a.p.y, e.b.p.x, e.b.p.y) };
        sum += 2.0 * d2.sqrt() * len;
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// Cross-architecture stand-in: without `x86_64` there is no AVX2 path, so
/// an explicit [`crate::simd::Isa::Avx2`] request falls back to scalar.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn boxes_bounded_simd(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    boxes_bounded_scalar(t, seq, cutoff, scratch)
}

/// Batched AABB prescreen against a set of candidate boxes: writes into
/// `out[c]` the admissible lower bound
/// `Σ_e 2 · len(e) · aabb_dist(bbox(e), children[c])` over `t`'s segments —
/// [`edwp_lower_bound_boxes_bounded`]'s cheap prescreen distance, but
/// evaluated for *all* candidates in one dense sweep instead of one branchy
/// loop per candidate. The engine uses this to prescreen every child of an
/// expanded index node before paying for exact per-child bounds.
///
/// Admissibility: the axis-aligned distance between `e`'s bounding box and
/// `children[c]` never exceeds the true segment-to-box distance to *any*
/// box contained in `children[c]`, so when `children[c]` encloses a node's
/// summary boxes, `out[c]` never exceeds that node's
/// [`edwp_lower_bound_boxes`] — and hence never exceeds the EDwP (or
/// `EDwP_sub`; the relaxation is one-sided, see
/// [`edwp_sub_lower_bound_boxes`]) distance to any summarised trajectory.
///
/// The accumulation stops early once **every** candidate's running sum
/// strictly exceeds `cutoff`; partial sums are admissible per candidate, so
/// `out` is usable either way. Both dispatch paths compute the identical
/// accumulation in the identical order and produce bitwise-equal sums
/// (pinned by the property tests).
pub fn edwp_lower_bound_aabb_batch(
    t: &Trajectory,
    children: &[StBox],
    cutoff: f64,
    scratch: &mut EdwpScratch,
    out: &mut Vec<f64>,
) {
    aabb_batch_dispatch(
        crate::simd::Isa::current(),
        t,
        children,
        cutoff,
        scratch,
        out,
    );
}

/// Dispatch-pinned body of [`edwp_lower_bound_aabb_batch`].
pub(crate) fn aabb_batch_dispatch(
    isa: crate::simd::Isa,
    t: &Trajectory,
    children: &[StBox],
    cutoff: f64,
    scratch: &mut EdwpScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    if children.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if isa == crate::simd::Isa::Avx2 {
        let (pieces, soa) = scratch.pieces_and_soa(t);
        soa.fill(children);
        out.resize(soa.padded_len(), 0.0);
        // Safety: dispatched only when AVX2 is available (see
        // `boxes_bounded_simd`); `out` was just sized to the SoA's padded
        // length.
        unsafe { crate::simd::aabb_batch_avx2(soa, pieces, cutoff, out) };
        out.truncate(children.len());
        return;
    }
    let _ = isa;
    out.resize(children.len(), 0.0);
    for &(e, len) in scratch.query_pieces(t) {
        // Zero-length pieces contribute exactly zero to every sum; both
        // paths skip them (in the AVX2 path a zero weight would turn the
        // +inf padding lanes into NaN and disable the early exit).
        if len == 0.0 {
            continue;
        }
        let (exlo, exhi) = minmax(e.a.p.x, e.b.p.x);
        let (eylo, eyhi) = minmax(e.a.p.y, e.b.p.y);
        let w = 2.0 * len;
        let mut all_over = true;
        for (sum, b) in out.iter_mut().zip(children) {
            let dx = (b.lo.x - exhi).max(exlo - b.hi.x).max(0.0);
            let dy = (b.lo.y - eyhi).max(eylo - b.hi.y).max(0.0);
            *sum += w * (dx * dx + dy * dy).sqrt();
            all_over &= *sum > cutoff;
        }
        if all_over {
            return;
        }
    }
}

/// `(min, max)` of two floats, compared directly (inputs are coordinates,
/// never NaN).
#[inline]
fn minmax(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Admissible lower bound on the *length-normalised* EDwP (Eq. 4)
/// `edwp_avg(t, T) = EDwP(t, T) / (length(t) + length(T))` for every
/// trajectory `T` summarised by `seq`, given `max_len` — an upper bound on
/// the spatial length of every summarised trajectory (the per-node
/// bookkeeping TrajTree maintains).
///
/// Derivation: [`edwp_lower_bound_boxes`] never exceeds `EDwP(t, T)`, and
/// `length(T) <= max_len`, so dividing the raw bound by the *largest*
/// possible denominator `length(t) + max_len` never exceeds
/// `EDwP(t, T) / (length(t) + length(T))`. A non-positive denominator
/// (stationary query and members) yields 0, matching
/// [`crate::edwp_avg`]'s convention.
pub fn edwp_avg_lower_bound_boxes(t: &Trajectory, seq: &BoxSeq, max_len: f64) -> f64 {
    normalize_bound(edwp_lower_bound_boxes(t, seq), t.length() + max_len)
}

/// [`edwp_avg_lower_bound_boxes`] with caller-pooled working memory (see
/// [`edwp_lower_bound_boxes_with_scratch`]). Identical value to the plain
/// function.
pub fn edwp_avg_lower_bound_boxes_with_scratch(
    t: &Trajectory,
    seq: &BoxSeq,
    max_len: f64,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_avg_lower_bound_boxes_bounded(t, seq, max_len, f64::INFINITY.into(), scratch)
}

/// Early-exit variant of [`edwp_avg_lower_bound_boxes_with_scratch`]:
/// `cutoff` is in the *normalised* metric's scale and is rescaled by the
/// bound's denominator before driving the raw accumulation (a shared
/// cutoff is rescaled at every load, see [`Cutoff::scaled`]).
///
/// Unlike the raw [`edwp_lower_bound_boxes_bounded`], the
/// "`result <= cutoff` implies full bound" guarantee does **not** carry
/// over: the `cutoff * denom` / `raw / denom` rounding round trip can
/// return a truncated partial at — or strictly below — `cutoff`. Partial
/// sums remain admissible lower bounds, so using the value as a pruning
/// key is always sound (worst case one extra tie-expansion), but do not
/// cache a normalised bounded result as if it were the full bound.
pub fn edwp_avg_lower_bound_boxes_bounded(
    t: &Trajectory,
    seq: &BoxSeq,
    max_len: f64,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    let denom = t.length() + max_len;
    if denom <= 0.0 {
        // Stationary query and members: edwp_avg is defined as 0 here, and
        // the raw accumulation is irrelevant.
        return 0.0;
    }
    normalize_bound(
        edwp_lower_bound_boxes_bounded(t, seq, cutoff.scaled(denom), scratch),
        denom,
    )
}

/// Provably admissible lower bound on the **sub-trajectory** distance
/// `EDwP_sub(t, T)` (Sec. IV-B, Eq. 6) for every trajectory `T` summarised
/// by `seq` — the bound that makes index-backed sub-trajectory search
/// exact.
///
/// Numerically this is [`edwp_lower_bound_boxes`] — and that identity *is*
/// the theorem: the Theorem 2 relaxation is one-sided. Every edit of an
/// optimal `EDwP_sub` alignment still consumes a piece of the query (the
/// query is fully consumed in sub mode; only `T`'s prefix and suffix are
/// skipped, and skipped pieces appear in **no** cost term), and every
/// stored-side anchor of a costed edit lies on `T`, inside the union of
/// `seq`'s boxes. Each edit therefore costs at least
/// `2 · min_b dist(piece, b) · len(piece)`, and the pieces of each query
/// segment tile its length:
/// `EDwP_sub(t, T) ≥ Σ_i 2 · len(e_i) · min_b dist(e_i, b)`. Since the
/// derivation never charges the stored side's coverage, discarding `T`'s
/// unmatched portions costs the bound nothing.
///
/// Contrast with [`edwp_sub_boxes`]: that DP's canonical interpolated
/// anchors can overshoot the true optimum on coalesced boxes (>40%
/// observed), so it is only *approximately* admissible and stays
/// construction-only. This bound never exceeds `EDwP_sub(t, T)`
/// (property-tested, including after incremental merges), so best-first
/// sub-trajectory search pruned with it returns exactly the brute-force
/// `edwp_sub` scan.
pub fn edwp_sub_lower_bound_boxes(t: &Trajectory, seq: &BoxSeq) -> f64 {
    edwp_lower_bound_boxes(t, seq)
}

/// [`edwp_sub_lower_bound_boxes`] with caller-pooled working memory (see
/// [`edwp_lower_bound_boxes_with_scratch`]). Identical value to the plain
/// function.
pub fn edwp_sub_lower_bound_boxes_with_scratch(
    t: &Trajectory,
    seq: &BoxSeq,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_sub_lower_bound_boxes_bounded(t, seq, f64::INFINITY.into(), scratch)
}

/// Early-exit variant of [`edwp_sub_lower_bound_boxes_with_scratch`] —
/// the same accumulation and therefore the exact cutoff contract of
/// [`edwp_lower_bound_boxes_bounded`]: partial sums are admissible against
/// `EDwP_sub` (every term under-counts one costed edit), bailing happens
/// strictly above `cutoff`, and a returned value `<= cutoff` is the full
/// bound bit-for-bit.
pub fn edwp_sub_lower_bound_boxes_bounded(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_lower_bound_boxes_bounded(t, seq, cutoff, scratch)
}

/// The per-candidate refinement of [`edwp_sub_lower_bound_boxes`]:
/// admissible against `EDwP_sub(t, s)` with exact segment-to-polyline
/// distances, tighter than the box bound. Numerically
/// [`edwp_lower_bound_trajectory`] — the same one-sided derivation applies
/// verbatim with `s`'s polyline in place of the box union.
pub fn edwp_sub_lower_bound_trajectory(t: &Trajectory, s: &Trajectory) -> f64 {
    edwp_lower_bound_trajectory(t, s)
}

/// [`edwp_sub_lower_bound_trajectory`] with caller-pooled working memory.
/// Identical value to the plain function.
pub fn edwp_sub_lower_bound_trajectory_with_scratch(
    t: &Trajectory,
    s: &Trajectory,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_sub_lower_bound_trajectory_bounded(t, s, f64::INFINITY.into(), scratch)
}

/// Early-exit variant of [`edwp_sub_lower_bound_trajectory_with_scratch`];
/// same cutoff contract as [`edwp_sub_lower_bound_boxes_bounded`].
pub fn edwp_sub_lower_bound_trajectory_bounded(
    t: &Trajectory,
    s: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_lower_bound_trajectory_bounded(t, s, cutoff, scratch)
}

/// Divides a raw lower bound by a normalisation denominator, preserving
/// admissibility at the edges: a non-positive denominator means both sides
/// are stationary, where `edwp_avg` is defined as 0.
fn normalize_bound(raw: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        raw / denom
    } else {
        0.0
    }
}

/// The trajectory-to-trajectory analogue of [`edwp_lower_bound_boxes`]:
/// `EDwP(t, s) ≥ Σ_i 2 · len(e_i) · dist(e_i, s)` with exact
/// segment-to-polyline distances instead of box distances. Tighter than the
/// box bound (boxes enclose the segments they summarise), and used to
/// refine leaf candidates before paying for a full EDwP evaluation.
pub fn edwp_lower_bound_trajectory(t: &Trajectory, s: &Trajectory) -> f64 {
    t.segments()
        .map(|e| {
            let d = s
                .segments()
                .map(|f| e.closest_params(&f).2)
                .fold(f64::INFINITY, f64::min);
            2.0 * d * e.length()
        })
        .sum()
}

/// [`edwp_lower_bound_trajectory`] with caller-pooled working memory; the
/// query-side pieces come from `scratch` (see
/// [`edwp_lower_bound_boxes_with_scratch`]). Identical value to the plain
/// function.
pub fn edwp_lower_bound_trajectory_with_scratch(
    t: &Trajectory,
    s: &Trajectory,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_lower_bound_trajectory_bounded(t, s, f64::INFINITY.into(), scratch)
}

/// Early-exit variant of [`edwp_lower_bound_trajectory_with_scratch`] —
/// same contract as [`edwp_lower_bound_boxes_bounded`]: bails (strictly)
/// above the cutoff's current value with an admissible partial sum, and a
/// returned value `<= cutoff` is the full bound bit-for-bit.
pub fn edwp_lower_bound_trajectory_bounded(
    t: &Trajectory,
    s: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    let mut sum = 0.0;
    for (e, len) in scratch.query_pieces(t) {
        // Same prescreen as [`edwp_lower_bound_boxes_bounded`]: the
        // axis-aligned distance between the two segments' bounding boxes
        // lower-bounds their true distance, so candidates that cannot
        // improve the running minimum skip the exact closest-point
        // computation without changing the result.
        let (exlo, exhi) = minmax(e.a.p.x, e.b.p.x);
        let (eylo, eyhi) = minmax(e.a.p.y, e.b.p.y);
        let mut d = f64::INFINITY;
        let mut d2 = f64::INFINITY;
        for f in s.segments() {
            let (fxlo, fxhi) = minmax(f.a.p.x, f.b.p.x);
            let (fylo, fyhi) = minmax(f.a.p.y, f.b.p.y);
            let dx = (fxlo - exhi).max(exlo - fxhi).max(0.0);
            let dy = (fylo - eyhi).max(eylo - fyhi).max(0.0);
            if dx * dx + dy * dy >= d2 {
                continue;
            }
            let v = e.closest_params(&f).2;
            if v < d {
                d = v;
                d2 = v * v;
                if v == 0.0 {
                    break;
                }
            }
        }
        sum += 2.0 * d * len;
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// Admissible lower bound on the length-normalised EDwP between two
/// concrete trajectories: [`edwp_lower_bound_trajectory`] divided by the
/// exact denominator `length(t) + length(s)` — no slack beyond the raw
/// bound's, since both lengths are known.
pub fn edwp_avg_lower_bound_trajectory(t: &Trajectory, s: &Trajectory) -> f64 {
    normalize_bound(edwp_lower_bound_trajectory(t, s), t.length() + s.length())
}

/// [`edwp_avg_lower_bound_trajectory`] with caller-pooled working memory
/// (see [`edwp_lower_bound_trajectory_with_scratch`]). Identical value to
/// the plain function.
pub fn edwp_avg_lower_bound_trajectory_with_scratch(
    t: &Trajectory,
    s: &Trajectory,
    scratch: &mut EdwpScratch,
) -> f64 {
    edwp_avg_lower_bound_trajectory_bounded(t, s, f64::INFINITY.into(), scratch)
}

/// Early-exit variant of [`edwp_avg_lower_bound_trajectory_with_scratch`]
/// (see [`edwp_avg_lower_bound_boxes_bounded`] for the rescaled-cutoff
/// contract).
pub fn edwp_avg_lower_bound_trajectory_bounded(
    t: &Trajectory,
    s: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    let denom = t.length() + s.length();
    if denom <= 0.0 {
        return 0.0;
    }
    normalize_bound(
        edwp_lower_bound_trajectory_bounded(t, s, cutoff.scaled(denom), scratch),
        denom,
    )
}

/// DP state kinds for the box-mode alignment.
const AT_SAMPLE: usize = 0;
const INTERP: usize = 1;

/// Index into flattened `(j, k)` matrices.
#[inline]
fn col(j: usize, k: usize) -> usize {
    j * 2 + k
}

/// The interpolated anchors of the box-mode DP, one per (segment, box)
/// pair: `anchors[i · |B| + j]` is the point of segment `i` of `t` closest
/// to box `j` (the generalised reverse projection of Sec. IV-A).
///
/// State `(i, j, INTERP)` is anchored at entry `(i, j − 1)` — the point
/// closest to the last consumed box — and the `ins` split of state
/// `(i, j, ·)` is entry `(i, j)`. Each pair is needed by up to three DP
/// relaxations and again by the traceback, so it is computed once here.
fn anchor_table(t: &Trajectory, boxes: &[StBox]) -> Vec<StPoint> {
    let mut anchors = Vec::with_capacity(t.num_segments() * boxes.len());
    for seg in t.segments() {
        anchors.extend(
            boxes
                .iter()
                .map(|b| seg.point_at(b.closest_param_on_segment(&seg).0)),
        );
    }
    anchors
}

/// Value-only `EDwP_sub(t, B)` between a trajectory and a box sequence —
/// the TrajTree lower bound. Runs in `O(|t| · |B|)`.
pub fn edwp_sub_boxes(t: &Trajectory, seq: &BoxSeq) -> f64 {
    run_box_dp(t, seq, &anchor_table(t, seq.boxes()), None)
}

/// `EDwP_sub(t, B)` with traceback: returns the cost and the replace
/// operations of an optimal alignment.
pub fn align_boxes(t: &Trajectory, seq: &BoxSeq) -> BoxAlignment {
    let anchors = anchor_table(t, seq.boxes());
    let mut trace = TraceTable::new(t.num_points(), seq.len());
    let cost = run_box_dp(t, seq, &anchors, Some(&mut trace));
    let ops = trace.reconstruct(t, seq.len(), &anchors);
    BoxAlignment { cost, ops }
}

/// Encodes the DP op that produced a state, for traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    None,
    Start,
    /// rep: consume segment `i` (from its anchor) and box `j`.
    Rep,
    /// ins into `t`: consume box `j` against a split piece of segment `i`.
    InsT,
    /// ins into the box sequence: consume segment `i`, stay on box `j`.
    InsB,
}

struct TraceTable {
    cols: usize,
    /// Per state: (op, predecessor i, predecessor j, predecessor k).
    from: Vec<(Op, u32, u32, u8)>,
    /// Terminal state chosen by the DP (set by `run_box_dp`).
    terminal: (usize, usize, usize),
}

impl TraceTable {
    fn new(n: usize, kboxes: usize) -> Self {
        let cols = (kboxes + 1) * 2;
        TraceTable {
            cols,
            from: vec![(Op::None, 0, 0, 0); n * cols],
            terminal: (0, 0, AT_SAMPLE),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, k: usize, v: (Op, u32, u32, u8)) {
        self.from[i * self.cols + col(j, k)] = v;
    }

    #[inline]
    fn get(&self, i: usize, j: usize, k: usize) -> (Op, u32, u32, u8) {
        self.from[i * self.cols + col(j, k)]
    }

    /// Walks parents back from the best terminal state (recorded by
    /// `run_box_dp`), emitting the rep pieces in forward order. `anchors`
    /// is the [`anchor_table`] the DP ran with.
    fn reconstruct(&self, t: &Trajectory, kboxes: usize, anchors: &[StPoint]) -> Vec<RepOp> {
        let (mut i, mut j, mut k) = self.terminal;
        let mut ops_rev = Vec::new();
        loop {
            let (op, pi, pj, pk) = self.get(i, j, k);
            match op {
                Op::Start | Op::None => break,
                Op::Rep | Op::InsB => {
                    // Piece: from predecessor anchor to p[i] (i advanced).
                    let (pi_, pj_, pk_) = (pi as usize, pj as usize, pk as usize);
                    let from_pt = anchor_point(t, kboxes, anchors, pi_, pj_, pk_);
                    let to_pt = t.points()[i];
                    ops_rev.push(RepOp {
                        box_idx: if op == Op::Rep { j - 1 } else { j },
                        piece: Segment::new(from_pt, to_pt),
                    });
                    i = pi_;
                    j = pj_;
                    k = pk_;
                }
                Op::InsT => {
                    let (pi_, pj_, pk_) = (pi as usize, pj as usize, pk as usize);
                    let from_pt = anchor_point(t, kboxes, anchors, pi_, pj_, pk_);
                    let to_pt = anchor_point(t, kboxes, anchors, i, j, k);
                    ops_rev.push(RepOp {
                        box_idx: j - 1,
                        piece: Segment::new(from_pt, to_pt),
                    });
                    i = pi_;
                    j = pj_;
                    k = pk_;
                }
            }
        }
        ops_rev.reverse();
        ops_rev
    }
}

/// The anchor st-point of DP state `(i, j, k)`, read from its
/// [`anchor_table`].
#[inline]
fn anchor_point(
    t: &Trajectory,
    kboxes: usize,
    anchors: &[StPoint],
    i: usize,
    j: usize,
    k: usize,
) -> StPoint {
    if k == AT_SAMPLE {
        t.points()[i]
    } else {
        anchors[i * kboxes + j - 1]
    }
}

/// Shared box-mode DP over a precomputed [`anchor_table`]; fills `trace`
/// when provided.
fn run_box_dp(
    t: &Trajectory,
    seq: &BoxSeq,
    anchors: &[StPoint],
    mut trace: Option<&mut TraceTable>,
) -> f64 {
    let n = t.num_points();
    let kboxes = seq.len();
    if kboxes == 0 {
        return f64::INFINITY;
    }
    let boxes = seq.boxes();
    let p = t.points();
    let inf = f64::INFINITY;
    // Full table (traceback needs it); j ∈ [0, kboxes], k ∈ {AT_SAMPLE, INTERP}.
    let cols = (kboxes + 1) * 2;
    let mut dp = Matrix::filled(n, cols, inf);
    for j in 0..kboxes {
        dp.set(0, col(j, AT_SAMPLE), 0.0);
        if let Some(tr) = trace.as_deref_mut() {
            tr.set(0, j, AT_SAMPLE, (Op::Start, 0, 0, 0));
        }
    }

    for i in 0..n {
        let has_seg = i + 1 < n;
        for j in 0..=kboxes {
            for k in [AT_SAMPLE, INTERP] {
                let base = dp.get(i, col(j, k));
                if !base.is_finite() {
                    continue;
                }
                if j >= kboxes || !has_seg {
                    continue; // terminal or dead-end state
                }
                let a = anchor_point(t, kboxes, anchors, i, j, k);
                let b = &boxes[j];
                let e1 = p[i + 1];
                let bd_a = b.dist_to_point(a.p);
                let bd_e1 = b.dist_to_point(e1.p);
                // rep: consume segment i and box j.
                let rep = (bd_a + bd_e1) * (a.dist(e1) + b.min_len);
                if dp.relax(i + 1, col(j + 1, AT_SAMPLE), base + rep) {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.set(
                            i + 1,
                            j + 1,
                            AT_SAMPLE,
                            (Op::Rep, i as u32, j as u32, k as u8),
                        );
                    }
                }
                // ins into t: split segment i at its closest point to box
                // j; consume the box against the split piece.
                let pi_pt = anchors[i * kboxes + j];
                let bd_pi = b.dist_to_point(pi_pt.p);
                let ins_t = (bd_a + bd_pi) * (a.dist(pi_pt) + b.min_len);
                if dp.relax(i, col(j + 1, INTERP), base + ins_t) {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.set(i, j + 1, INTERP, (Op::InsT, i as u32, j as u32, k as u8));
                    }
                }
                // ins into B: consume segment i, stay on box j. The minL
                // coverage term is charged only on advancing steps (see
                // module docs).
                let ins_b = (bd_a + bd_e1) * a.dist(e1);
                if dp.relax(i + 1, col(j, AT_SAMPLE), base + ins_b) {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.set(i + 1, j, AT_SAMPLE, (Op::InsB, i as u32, j as u32, k as u8));
                    }
                }
            }
        }
    }

    // Terminal: `t` consumed (row n-1), any box progress, any anchor kind.
    let mut best = inf;
    let mut best_state = (n - 1, 0, AT_SAMPLE);
    for j in 0..=kboxes {
        for k in [AT_SAMPLE, INTERP] {
            let v = dp.get(n - 1, col(j, k));
            if v < best {
                best = v;
                best_state = (n - 1, j, k);
            }
        }
    }
    if let Some(tr) = trace {
        tr.terminal = best_state;
    }
    best
}

/// The box-mode DP as it ran before the [`anchor_table`]: every relaxation
/// and every traceback step recomputes its interpolated anchors. Kept as
/// the bitwise reference the table-driven DP is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    /// The anchor st-point of state `(i, j, INTERP)`: the point on segment
    /// `i` of `t` closest to box `j - 1` (the last consumed box).
    fn interp_anchor(t: &Trajectory, boxes: &[StBox], i: usize, j: usize) -> StPoint {
        let seg = t.segment(i);
        let (param, _) = boxes[j - 1].closest_param_on_segment(&seg);
        seg.point_at(param)
    }

    /// The anchor st-point of a DP state.
    fn anchor_point(t: &Trajectory, seq: &BoxSeq, i: usize, j: usize, k: usize) -> StPoint {
        if k == AT_SAMPLE {
            t.points()[i]
        } else {
            interp_anchor(t, seq.boxes(), i, j)
        }
    }

    /// Reference [`align_boxes`].
    pub(super) fn align_boxes(t: &Trajectory, seq: &BoxSeq) -> BoxAlignment {
        let mut trace = TraceTable::new(t.num_points(), seq.len());
        let cost = run_box_dp(t, seq, Some(&mut trace));
        let ops = reconstruct(&trace, t, seq);
        BoxAlignment { cost, ops }
    }

    /// Reference [`BoxSeq::merge_trajectory`].
    pub(super) fn merge_trajectory(seq: &BoxSeq, t: &Trajectory) -> BoxSeq {
        seq.grow_by_ops(&align_boxes(t, seq).ops)
    }

    /// Reference [`BoxSeq::from_trajectories`].
    pub(super) fn from_trajectories(trajs: &[Trajectory], max_boxes: Option<usize>) -> BoxSeq {
        let mut seq = BoxSeq::from_trajectory(&trajs[0]);
        seq.coalesce(max_boxes);
        for t in &trajs[1..] {
            seq = merge_trajectory(&seq, t);
            seq.coalesce(max_boxes);
        }
        seq
    }

    fn reconstruct(trace: &TraceTable, t: &Trajectory, seq: &BoxSeq) -> Vec<RepOp> {
        let (mut i, mut j, mut k) = trace.terminal;
        let mut ops_rev = Vec::new();
        loop {
            let (op, pi, pj, pk) = trace.get(i, j, k);
            match op {
                Op::Start | Op::None => break,
                Op::Rep | Op::InsB => {
                    let (pi_, pj_, pk_) = (pi as usize, pj as usize, pk as usize);
                    let from_pt = anchor_point(t, seq, pi_, pj_, pk_);
                    let to_pt = t.points()[i];
                    ops_rev.push(RepOp {
                        box_idx: if op == Op::Rep { j - 1 } else { j },
                        piece: Segment::new(from_pt, to_pt),
                    });
                    i = pi_;
                    j = pj_;
                    k = pk_;
                }
                Op::InsT => {
                    let (pi_, pj_, pk_) = (pi as usize, pj as usize, pk as usize);
                    let from_pt = anchor_point(t, seq, pi_, pj_, pk_);
                    let to_pt = anchor_point(t, seq, i, j, k);
                    ops_rev.push(RepOp {
                        box_idx: j - 1,
                        piece: Segment::new(from_pt, to_pt),
                    });
                    i = pi_;
                    j = pj_;
                    k = pk_;
                }
            }
        }
        ops_rev.reverse();
        ops_rev
    }

    fn run_box_dp(t: &Trajectory, seq: &BoxSeq, mut trace: Option<&mut TraceTable>) -> f64 {
        let n = t.num_points();
        let kboxes = seq.len();
        if kboxes == 0 {
            return f64::INFINITY;
        }
        let boxes = seq.boxes();
        let p = t.points();
        let inf = f64::INFINITY;
        let cols = (kboxes + 1) * 2;
        let mut dp = Matrix::filled(n, cols, inf);
        for j in 0..kboxes {
            dp.set(0, col(j, AT_SAMPLE), 0.0);
            if let Some(tr) = trace.as_deref_mut() {
                tr.set(0, j, AT_SAMPLE, (Op::Start, 0, 0, 0));
            }
        }

        for i in 0..n {
            let has_seg = i + 1 < n;
            for j in 0..=kboxes {
                for k in [AT_SAMPLE, INTERP] {
                    let base = dp.get(i, col(j, k));
                    if !base.is_finite() {
                        continue;
                    }
                    if j >= kboxes || !has_seg {
                        continue;
                    }
                    let a = anchor_point(t, seq, i, j, k);
                    let b = &boxes[j];
                    let e1 = p[i + 1];
                    let bd_a = b.dist_to_point(a.p);
                    let bd_e1 = b.dist_to_point(e1.p);
                    let rep = (bd_a + bd_e1) * (a.dist(e1) + b.min_len);
                    if dp.relax(i + 1, col(j + 1, AT_SAMPLE), base + rep) {
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.set(
                                i + 1,
                                j + 1,
                                AT_SAMPLE,
                                (Op::Rep, i as u32, j as u32, k as u8),
                            );
                        }
                    }
                    let pi_pt = interp_anchor(t, boxes, i, j + 1);
                    let bd_pi = b.dist_to_point(pi_pt.p);
                    let ins_t = (bd_a + bd_pi) * (a.dist(pi_pt) + b.min_len);
                    if dp.relax(i, col(j + 1, INTERP), base + ins_t) {
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.set(i, j + 1, INTERP, (Op::InsT, i as u32, j as u32, k as u8));
                        }
                    }
                    let ins_b = (bd_a + bd_e1) * a.dist(e1);
                    if dp.relax(i + 1, col(j, AT_SAMPLE), base + ins_b) {
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.set(i + 1, j, AT_SAMPLE, (Op::InsB, i as u32, j as u32, k as u8));
                        }
                    }
                }
            }
        }

        let mut best = inf;
        let mut best_state = (n - 1, 0, AT_SAMPLE);
        for j in 0..=kboxes {
            for k in [AT_SAMPLE, INTERP] {
                let v = dp.get(n - 1, col(j, k));
                if v < best {
                    best = v;
                    best_state = (n - 1, j, k);
                }
            }
        }
        if let Some(tr) = trace {
            tr.terminal = best_state;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edwp;
    use traj_core::approx_eq;

    fn t(pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(pts)
    }

    #[test]
    fn from_trajectory_one_box_per_segment() {
        let a = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0)]);
        let seq = BoxSeq::from_trajectory(&a);
        assert_eq!(seq.len(), 2);
        assert!(seq.boxes()[0].contains_point(traj_core::Point::new(1.0, 1.0)));
    }

    #[test]
    fn own_boxseq_has_zero_distance() {
        let a = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0), (7.0, 1.0)]);
        let seq = BoxSeq::from_trajectory(&a);
        let d = edwp_sub_boxes(&a, &seq);
        assert!(approx_eq(d, 0.0), "got {d}");
    }

    #[test]
    fn lower_bounds_member_trajectories() {
        // Theorem 2 on a concrete pair.
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        let q = t(&[(1.0, 1.0), (1.0, 6.0), (6.0, 6.0)]);
        let lb = edwp_sub_boxes(&q, &seq);
        assert!(lb <= edwp(&q, &t1) + 1e-9, "lb {lb} > {}", edwp(&q, &t1));
        assert!(lb <= edwp(&q, &t2) + 1e-9, "lb {lb} > {}", edwp(&q, &t2));
    }

    #[test]
    fn alignment_cost_matches_value_only_dp() {
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let seq = BoxSeq::from_trajectory(&t1);
        let al = align_boxes(&t2, &seq);
        assert!(approx_eq(al.cost, edwp_sub_boxes(&t2, &seq)));
        assert!(!al.ops.is_empty());
        // Ops must be monotone in box index and cover t2 from start to end.
        for w in al.ops.windows(2) {
            assert!(w[0].box_idx <= w[1].box_idx);
        }
        let first = al.ops.first().unwrap();
        let last = al.ops.last().unwrap();
        assert!(approx_eq(first.piece.a.dist(t2.first()), 0.0));
        assert!(approx_eq(last.piece.b.dist(t2.last()), 0.0));
    }

    #[test]
    fn merge_expands_boxes_to_cover_new_trajectory() {
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let seq = BoxSeq::from_trajectory(&t1).merge_trajectory(&t2);
        // Every point of both trajectories must be inside some box.
        for tr in [&t1, &t2] {
            for s in tr.points() {
                assert!(
                    seq.boxes().iter().any(|b| b.contains_point(s.p)),
                    "point {:?} not covered",
                    s.p
                );
            }
        }
        // And the merged volume is at least the original.
        assert!(seq.volume() >= BoxSeq::from_trajectory(&t1).volume() - 1e-9);
    }

    #[test]
    fn merge_keeps_sequence_order() {
        let t1 = t(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let t2 = t(&[(0.0, 1.0), (15.0, 1.0), (30.0, 1.0)]);
        let seq = BoxSeq::from_trajectory(&t1).merge_trajectory(&t2);
        // Box x-extents should be (weakly) ordered left to right.
        for w in seq.boxes().windows(2) {
            assert!(w[0].lo.x <= w[1].hi.x + 1e-9);
        }
    }

    #[test]
    fn coalesce_caps_length() {
        let t1 = t(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
            (4.0, 0.0),
            (5.0, 0.0),
        ]);
        let mut seq = BoxSeq::from_trajectory(&t1);
        assert_eq!(seq.len(), 5);
        seq.coalesce(Some(2));
        assert_eq!(seq.len(), 2);
        // Coverage preserved.
        for s in t1.points() {
            assert!(seq.boxes().iter().any(|b| b.contains_point(s.p)));
        }
    }

    #[test]
    fn empty_boxseq_is_infinitely_far() {
        let q = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let seq = BoxSeq { boxes: vec![] };
        assert!(edwp_sub_boxes(&q, &seq).is_infinite());
    }

    #[test]
    fn lower_bound_boxes_is_admissible_on_members() {
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let mut seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        seq.coalesce(Some(2));
        let q = t(&[(1.0, 1.0), (1.0, 6.0), (6.0, 6.0)]);
        let lb = edwp_lower_bound_boxes(&q, &seq);
        assert!(lb <= edwp(&q, &t1) + 1e-9);
        assert!(lb <= edwp(&q, &t2) + 1e-9);
    }

    #[test]
    fn lower_bound_boxes_is_positive_when_far() {
        let far = t(&[(100.0, 100.0), (110.0, 100.0)]);
        let seq = BoxSeq::from_trajectory(&t(&[(0.0, 0.0), (10.0, 0.0)]));
        // Separation ≥ ~134, query length 10: bound ≥ 2 · 10 · 134.
        let lb = edwp_lower_bound_boxes(&far, &seq);
        assert!(lb > 2.0 * 10.0 * 130.0, "lb too weak: {lb}");
        assert!(lb <= edwp(&far, &t(&[(0.0, 0.0), (10.0, 0.0)])) + 1e-9);
    }

    #[test]
    fn lower_bound_trajectory_tighter_than_boxes() {
        let q = t(&[(5.0, 5.0), (9.0, 9.0)]);
        let s = t(&[(0.0, 0.0), (1.0, 4.0), (4.0, 1.0)]);
        let via_boxes = edwp_lower_bound_boxes(&q, &BoxSeq::from_trajectory(&s));
        let via_polyline = edwp_lower_bound_trajectory(&q, &s);
        assert!(via_boxes <= via_polyline + 1e-9);
        assert!(via_polyline <= edwp(&q, &s) + 1e-9);
    }

    #[test]
    fn lower_bound_zero_for_own_boxes() {
        let a = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0)]);
        let seq = BoxSeq::from_trajectory(&a);
        assert!(approx_eq(edwp_lower_bound_boxes(&a, &seq), 0.0));
        assert!(approx_eq(edwp_lower_bound_trajectory(&a, &a), 0.0));
    }

    #[test]
    fn sub_lower_bound_is_admissible_against_edwp_sub() {
        // The sub-mode bound must stay below EDwP_sub — a strictly smaller
        // target than EDwP, which edwp_sub_boxes misses on coarse boxes.
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let mut seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        seq.coalesce(Some(2));
        // A short probe matching only a *portion* of the members.
        let q = t(&[(1.0, 1.0), (1.0, 5.0)]);
        let lb = edwp_sub_lower_bound_boxes(&q, &seq);
        for member in [&t1, &t2] {
            let d = crate::edwp_sub(&q, member);
            assert!(lb <= d + 1e-9, "sub box bound {lb} > edwp_sub {d}");
            let poly = edwp_sub_lower_bound_trajectory(&q, member);
            assert!(poly <= d + 1e-9, "sub polyline bound {poly} > edwp_sub {d}");
        }
    }

    #[test]
    fn sub_lower_bound_matches_whole_bound_accumulation() {
        // The identity the admissibility proof rests on: the one-sided
        // Theorem 2 relaxation never charges stored-side coverage, so the
        // sub-mode entry points evaluate the same accumulation bitwise.
        let q = t(&[(5.0, 5.0), (9.0, 9.0)]);
        let s = t(&[(0.0, 0.0), (1.0, 4.0), (4.0, 1.0)]);
        let seq = BoxSeq::from_trajectory(&s);
        assert_eq!(
            edwp_sub_lower_bound_boxes(&q, &seq),
            edwp_lower_bound_boxes(&q, &seq)
        );
        assert_eq!(
            edwp_sub_lower_bound_trajectory(&q, &s),
            edwp_lower_bound_trajectory(&q, &s)
        );
    }

    #[test]
    fn query_inside_boxes_costs_nothing() {
        // A query fully inside a fat box sequence must have lower bound 0.
        let t1 = t(&[(0.0, 0.0), (10.0, 10.0)]);
        let t2 = t(&[(10.0, 0.0), (0.0, 10.0)]);
        let seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        let q = t(&[(4.0, 5.0), (5.0, 5.0), (6.0, 5.0)]);
        assert!(approx_eq(edwp_sub_boxes(&q, &seq), 0.0));
    }

    /// The bits of an st-point, so `-0.0` and `0.0` (equal as floats)
    /// count as different.
    fn pt_bits(p: StPoint) -> [u64; 3] {
        [p.p.x.to_bits(), p.p.y.to_bits(), p.t.to_bits()]
    }

    fn ops_bits(ops: &[RepOp]) -> Vec<(usize, [u64; 3], [u64; 3])> {
        ops.iter()
            .map(|o| (o.box_idx, pt_bits(o.piece.a), pt_bits(o.piece.b)))
            .collect()
    }

    fn seq_bits(seq: &BoxSeq) -> Vec<[u64; 5]> {
        seq.boxes()
            .iter()
            .map(|b| {
                [
                    b.lo.x.to_bits(),
                    b.lo.y.to_bits(),
                    b.hi.x.to_bits(),
                    b.hi.y.to_bits(),
                    b.min_len.to_bits(),
                ]
            })
            .collect()
    }

    /// One trip of a cluster: the shared base path (grid units) plus this
    /// trip's per-point jitter, rendered in one of four shapes, with one
    /// sample optionally repeated (a zero-length segment).
    fn cluster_trip(
        base: &[(i32, i32)],
        jitter: &[(i32, i32)],
        repeat: usize,
        shape: u32,
    ) -> Trajectory {
        let mut pts: Vec<(f64, f64)> = base
            .iter()
            .zip(jitter.iter().cycle())
            .map(|(&(x, y), &(jx, jy))| {
                let (x, y, jx, jy) = (x as f64, y as f64, jx as f64, jy as f64);
                match shape {
                    // On the grid: pieces run along, touch and cross box
                    // edges exactly.
                    0 => (5.0 * x + jx, 5.0 * y + jy),
                    // Off the grid: the generic position.
                    1 => (5.0 * x + 0.37 * jx, 5.0 * y - 0.61 * jy),
                    // Straight along x: collinear boxes and pieces.
                    2 => (5.0 * x + jx, 5.0 * base[0].1 as f64),
                    // Stationary: every segment has zero length.
                    _ => (5.0 * base[0].0 as f64, 5.0 * base[0].1 as f64),
                }
            })
            .collect();
        if repeat < pts.len() {
            pts.insert(repeat, pts[repeat]);
        }
        t(&pts)
    }

    /// Asserts the table-driven alignment equals the reference bit for bit.
    fn assert_alignment_matches(q: &Trajectory, seq: &BoxSeq) -> Result<(), TestCaseError> {
        let fast = align_boxes(q, seq);
        let slow = reference::align_boxes(q, seq);
        prop_assert_eq!(fast.cost.to_bits(), slow.cost.to_bits());
        prop_assert_eq!(ops_bits(&fast.ops), ops_bits(&slow.ops));
        prop_assert_eq!(edwp_sub_boxes(q, seq).to_bits(), slow.cost.to_bits());
        prop_assert_eq!(
            seq_bits(&seq.merge_trajectory(q)),
            seq_bits(&reference::merge_trajectory(seq, q))
        );
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The anchor table changes no alignment, merge or built sequence:
        /// clustered trips against their own bulk, coalesced, merged and
        /// point-box sequences. The DP has no ISA-dispatched step, so the
        /// result is the same under both kernel dispatches (the suite runs
        /// under each).
        #[test]
        fn anchor_table_dp_matches_per_state_reference(
            base in prop::collection::vec((0i32..=12, 0i32..=12), 2..=30),
            trips in prop::collection::vec(
                (prop::collection::vec((-2i32..=2, -2i32..=2), 1..=7), 0usize..40, 0u32..4),
                1..=5,
            ),
        ) {
            let trips: Vec<Trajectory> = trips
                .iter()
                .map(|(jitter, repeat, shape)| cluster_trip(&base, jitter, *repeat, *shape))
                .collect();
            let first = &trips[0];
            let mut coalesced = BoxSeq::from_trajectory(first);
            coalesced.coalesce(Some(4));
            let point_boxes = BoxSeq::from_boxes(
                first.points().iter().map(|s| StBox::from_point(s.p)).collect(),
            );
            let seqs = [
                BoxSeq::from_trajectory(first),
                coalesced,
                point_boxes,
                reference::from_trajectories(&trips, None),
                reference::from_trajectories(&trips, Some(3)),
            ];
            for q in &trips {
                for seq in &seqs {
                    assert_alignment_matches(q, seq)?;
                }
            }
            for max in [None, Some(3), Some(12), Some(24)] {
                let built = BoxSeq::from_trajectories(trips.iter(), max).unwrap();
                prop_assert_eq!(
                    seq_bits(&built),
                    seq_bits(&reference::from_trajectories(&trips, max))
                );
            }
        }
    }
}
