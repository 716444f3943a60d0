//! Multi-source frontier fusion: K-lane batched traversals.
//!
//! A fused traversal co-runs up to 64 point queries ("lanes") over one
//! graph. Per-vertex frontier state is a single `u64` lane word
//! ([`LaneBitmap`] / sparse `(vertex, mask)` pairs), and the per-edge
//! operator ([`MultiSourceOp`]) advances every lane at once:
//! `new_lanes = src_lanes & !dst_lanes`. One edge scan therefore serves
//! all K queries — the batching lever that amortises CSR/CSC edge reads
//! across concurrent requests, exactly as an inference server batches
//! requests to amortise weight reads.
//!
//! ## Two more kernels for the one driver
//!
//! Fusing changes *state width*, not the executor. A fused round hands the
//! [partitioned driver](crate::partitioned) its **union frontier** (bit
//! `v` set iff any lane has `v` active) — so planning, chunking, hub
//! splitting and task claiming are the scalar round's over the same
//! active set, and a partition is dense exactly when the union frontier is
//! dense there — plus one of two `ChunkKernel`s defined here:
//!
//! * `FusedExclusive` runs a [`MultiSourceOp`] (the fused [`EdgeOp`]):
//!   `update` returns the lanes newly activated by one edge and may mutate
//!   destination-indexed state under the single-writer guarantee. A split
//!   mega-hub's slices collect their active `(source, weight, src_lanes)`
//!   contributions and the driver replays them in CSC scan order.
//! * `FusedQuantum` runs a [`MultiSourceReduce`] (the fused
//!   [`EdgeMapReduce`]): destination scans fold per fixed
//!   [`REDUCE_QUANTUM`]-edge run into a per-lane accumulator, so f64
//!   grouping is a property of the destination alone. A split hub's
//!   slices ship raw fragments that re-fold per quantum.
//!
//! Both emit the fused analogues of the scalar typed buffers
//! ([`FusedOutput`]: sparse `(vertex, mask)` lists or range-aligned
//! [`LaneSegment`]s) and merge them in `(partition, chunk)` order
//! ([`FusedFrontier::from_outputs`]), so fused rounds are bit-identical
//! across partition counts, thread counts and chunk caps for the same
//! reasons scalar rounds are. Without the partitioned executor the same
//! two kernels run over the engine's destination ranges, unplanned.
//!
//! ## Deliverable-lane prefilter
//!
//! A naive fused pull keeps every destination's scan open until **all**
//! lanes reach it, so a vertex whose lanes arrive over a window of W
//! rounds pays W full in-edge scans — the dominant cost when sources are
//! spread (their BFS waves hit each vertex at different depths). Each
//! fused round therefore first derives per-destination **deliverable
//! masks**: the OR of frontier lane words over each destination's
//! in-neighbours, computed from the same out-vertex index that sparse
//! candidate discovery walks (and, like discovery, counted as frontier
//! preprocessing, not edge traversal). The kernels then skip any
//! destination none of whose open lanes are deliverable this round, and
//! the exclusive kernel stops a scan as soon as every deliverable lane
//! has activated — the fused analogue of the scalar pull's first-claim
//! early exit. The masks depend only on the frontier, never on the
//! schedule, so every configuration makes identical skip decisions and
//! fused rounds stay bit-identical.
//!
//! [`EdgeOp`]: crate::edge_map::EdgeOp
//! [`EdgeMapReduce`]: crate::edge_map::EdgeMapReduce

use std::sync::atomic::{AtomicU64, Ordering};

use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr};
use gg_graph::lanes::{LaneBitmap, LaneSegment};
use gg_graph::types::VertexId;
use gg_runtime::counters::{LocalTally, WorkCounters};
use gg_runtime::pool::Pool;

use crate::edge_map::REDUCE_QUANTUM;
use crate::frontier::{Frontier, FrontierView};
use crate::partitioned::{pull_chunk, ChunkKernel, RoundCtx};
use crate::plan::{self, OutputRepr};
use crate::store::GraphStore;

/// A user-supplied fused edge operator: the K-lane analogue of
/// [`EdgeOp`](crate::edge_map::EdgeOp).
///
/// `update` applies the edge `(src, dst)` for every lane set in
/// `src_lanes` and returns the lanes in which `dst` was **newly**
/// activated (for a visited-set traversal, `src_lanes & !dst_lanes`). The
/// engine guarantees a single writer per `dst` (partitioning by
/// destination), so implementations may mutate destination-indexed state
/// with plain relaxed stores.
///
/// # Exclusive-update contract
///
/// The deliverable-lane prefilter (module docs) is sound only for
/// operators with exclusive-update semantics, which every
/// `MultiSourceOp` must honour:
///
/// * `update` returns a subset of `src_lanes`;
/// * once a lane is active at `dst`, further `update` calls carrying that
///   lane neither re-activate it nor observably change state for it (the
///   engine may skip such calls entirely);
/// * `cond(dst)` covers every lane `update` could still activate at
///   `dst`: lanes outside `cond` are never activated nor mutated.
///
/// Operators that accumulate per-edge state (where a skipped edge would
/// change the result) belong on the [`MultiSourceReduce`] path, whose
/// scans are never truncated.
pub trait MultiSourceOp: Sync {
    /// Applies edge `(src, dst)` with weight `w` for the lanes in
    /// `src_lanes`; returns the newly-activated lanes of `dst`.
    /// Single-writer guarantee on `dst`.
    fn update(&self, src: VertexId, dst: VertexId, w: f32, src_lanes: u64) -> u64;

    /// The lanes in which `dst` still wants updates. A zero mask skips
    /// (pre-check) or stops (mid-scan early exit) the destination's scan —
    /// the fused form of [`EdgeOp::cond`](crate::edge_map::EdgeOp::cond):
    /// fused BFS returns the not-yet-visited lanes, so a destination
    /// claimed in all lanes costs no further edge reads.
    #[inline]
    fn cond(&self, _dst: VertexId) -> u64 {
        u64::MAX
    }
}

/// The associative fused variant: the K-lane analogue of
/// [`EdgeMapReduce`](crate::edge_map::EdgeMapReduce).
///
/// Destination scans fold in fixed [`REDUCE_QUANTUM`]-edge runs with
/// boundaries at absolute quantum multiples within the scan, exactly like
/// the scalar reduce path, so the per-lane f64 grouping is fixed by the
/// destination alone. `apply` runs under the single-writer guarantee and
/// returns the lanes newly activated by the folded quantum.
///
/// Reduce scans accumulate per-edge state, so the engine never truncates
/// them mid-scan: the deliverable-lane prefilter skips a reduce
/// destination only when **no** in-neighbour is active in any lane — a
/// scan that would have folded nothing. The inherited
/// [`MultiSourceOp::update`] is the operator's single-edge specification,
/// exempt from the skip clause because the reduce kernels never call it.
pub trait MultiSourceReduce: MultiSourceOp {
    /// The per-quantum accumulator (per-lane state; e.g. `[f64; 64]` plus
    /// a touched-lane mask).
    type Acc;

    /// The unit accumulator.
    fn identity(&self) -> Self::Acc;

    /// Folds one in-edge `(src, w)` carrying `src_lanes` into `acc`.
    fn accumulate(&self, acc: &mut Self::Acc, src: VertexId, w: f32, src_lanes: u64);

    /// Applies a folded quantum to `dst` (single-writer guarantee);
    /// returns the newly-activated lanes.
    fn apply(&self, dst: VertexId, acc: &Self::Acc) -> u64;
}

/// The storage behind a [`FusedFrontier`]: parallel sparse
/// `(vertex, mask)` lists, or one lane word per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FusedData {
    /// Ascending active vertices and their (parallel) non-zero lane masks.
    Sparse {
        /// Active vertices, ascending.
        verts: Vec<VertexId>,
        /// `masks[i]` is the lane word of `verts[i]` (never zero).
        masks: Vec<u64>,
    },
    /// One lane word per vertex.
    Dense(LaneBitmap),
}

/// A borrowed view of a fused frontier, cheap to copy into kernels.
#[derive(Clone, Copy, Debug)]
pub enum FusedView<'a> {
    /// Sorted active vertices plus parallel lane masks.
    Sparse {
        /// Active vertices, ascending.
        verts: &'a [VertexId],
        /// Parallel lane masks.
        masks: &'a [u64],
    },
    /// One lane word per vertex.
    Dense(&'a LaneBitmap),
}

impl FusedView<'_> {
    /// The lane word of `v` (zero when `v` is inactive in every lane).
    #[inline]
    pub fn lanes_of(&self, v: VertexId) -> u64 {
        match self {
            FusedView::Sparse { verts, masks } => match verts.binary_search(&v) {
                Ok(i) => masks[i],
                Err(_) => 0,
            },
            FusedView::Dense(lanes) => lanes.get(v as usize),
        }
    }
}

/// The lane-mask frontier of a fused K-query traversal: per-vertex `u64`
/// lane words in a sparse or dense representation, chosen by the planner
/// exactly as for scalar frontiers (on the **union** frontier's density).
#[derive(Clone, Debug)]
pub struct FusedFrontier {
    n: usize,
    k: u32,
    data: FusedData,
    /// Vertices active in at least one lane (the union count).
    count: usize,
    /// Total set lane bits (Σ popcount) — the fused work volume.
    lane_bits: u64,
}

impl FusedFrontier {
    /// An empty fused frontier over `n` vertices with `k` lanes.
    pub fn empty(n: usize, k: u32) -> Self {
        FusedFrontier {
            n,
            k,
            data: FusedData::Sparse {
                verts: Vec::new(),
                masks: Vec::new(),
            },
            count: 0,
            lane_bits: 0,
        }
    }

    /// The initial frontier of a K-query batch: lane `i` holds
    /// `seeds[i]` (duplicate seeds OR into one vertex's mask).
    ///
    /// # Panics
    /// Panics if more than 64 seeds are given or a seed is out of range.
    pub fn from_seeds(seeds: &[VertexId], n: usize) -> Self {
        assert!(seeds.len() <= 64, "at most 64 fused lanes");
        let k = seeds.len() as u32;
        let mut pairs: Vec<(VertexId, u64)> = Vec::with_capacity(seeds.len());
        for (i, &s) in seeds.iter().enumerate() {
            assert!((s as usize) < n, "seed {s} out of range");
            pairs.push((s, 1u64 << i));
        }
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let mut verts: Vec<VertexId> = Vec::with_capacity(pairs.len());
        let mut masks: Vec<u64> = Vec::with_capacity(pairs.len());
        for (v, m) in pairs {
            if verts.last() == Some(&v) {
                *masks
                    .last_mut()
                    .expect("masks parallels the non-empty verts") |= m;
            } else {
                verts.push(v);
                masks.push(m);
            }
        }
        let count = verts.len();
        let lane_bits = masks.iter().map(|m| m.count_ones() as u64).sum();
        FusedFrontier {
            n,
            k,
            data: FusedData::Sparse { verts, masks },
            count,
            lane_bits,
        }
    }

    /// Merges per-chunk fused outputs (in task order) into the next fused
    /// frontier — the K-lane analogue of
    /// [`Frontier::from_partition_outputs`]. A split hub's partials are a
    /// different type, resolved before the merge. Outputs sort by range start
    /// (chunk ranges are disjoint), all-sparse rounds concatenate in
    /// ascending order with no `O(|V|)` work, and any dense output routes
    /// the merge through a whole-graph [`LaneBitmap`] splice whose word
    /// cost lands in [`WorkCounters::lane_union_words`]. The newly set
    /// lane bits of the round land in [`WorkCounters::fused_lanes`].
    pub fn from_outputs(
        mut outputs: Vec<FusedOutput>,
        n: usize,
        k: u32,
        counters: &WorkCounters,
    ) -> Self {
        outputs.sort_by_key(|o| o.range.start);
        let any_dense = outputs
            .iter()
            .any(|o| matches!(o.data, FusedOutputData::Dense(_)));
        let next = if !any_dense {
            let mut verts: Vec<VertexId> = Vec::new();
            let mut masks: Vec<u64> = Vec::new();
            for o in outputs {
                if let FusedOutputData::Sparse { verts: v, masks: m } = o.data {
                    // Resolved hub chunks that activated nothing are empty.
                    if v.is_empty() {
                        continue;
                    }
                    debug_assert!(verts.last().is_none_or(|&last| v.first() > Some(&last)));
                    verts.extend_from_slice(&v);
                    masks.extend_from_slice(&m);
                }
            }
            let count = verts.len();
            let lane_bits = masks.iter().map(|m| m.count_ones() as u64).sum();
            FusedFrontier {
                n,
                k,
                data: FusedData::Sparse { verts, masks },
                count,
                lane_bits,
            }
        } else {
            let mut lanes = LaneBitmap::new(n);
            let mut union_words = 0u64;
            for o in outputs {
                match o.data {
                    FusedOutputData::Sparse { verts, masks } => {
                        for (v, m) in verts.iter().zip(&masks) {
                            lanes.or(*v as usize, *m);
                        }
                    }
                    FusedOutputData::Dense(segment) => {
                        union_words += segment.num_words() as u64;
                        segment.splice_into(&mut lanes);
                    }
                }
            }
            counters.add_lane_union_words(union_words);
            let count = lanes.count_nonzero();
            let lane_bits = lanes.lane_bits();
            FusedFrontier {
                n,
                k,
                data: FusedData::Dense(lanes),
                count,
                lane_bits,
            }
        };
        counters.add_fused_lanes(next.lane_bits);
        next
    }

    /// Number of vertices in the frontier's universe.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of lanes (concurrent queries) in the batch.
    pub fn num_lanes(&self) -> u32 {
        self.k
    }

    /// The mask covering every lane of the batch.
    pub fn lane_mask(&self) -> u64 {
        lane_mask(self.k)
    }

    /// Vertices active in at least one lane (the union frontier size).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no lane has any active vertex.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total set lane bits (Σ popcount over active vertices).
    pub fn lane_bits(&self) -> u64 {
        self.lane_bits
    }

    /// The underlying representation.
    pub fn data(&self) -> &FusedData {
        &self.data
    }

    /// A borrowed view for kernels.
    pub fn view(&self) -> FusedView<'_> {
        match &self.data {
            FusedData::Sparse { verts, masks } => FusedView::Sparse { verts, masks },
            FusedData::Dense(lanes) => FusedView::Dense(lanes),
        }
    }

    /// The lane word of `v`.
    pub fn lanes_of(&self, v: VertexId) -> u64 {
        self.view().lanes_of(v)
    }

    /// Calls `f(v, mask)` for every active vertex, ascending.
    pub fn for_each<F: FnMut(VertexId, u64)>(&self, mut f: F) {
        match &self.data {
            FusedData::Sparse { verts, masks } => {
                for (v, m) in verts.iter().zip(masks) {
                    f(*v, *m);
                }
            }
            FusedData::Dense(lanes) => lanes.for_each_nonzero(|v, m| f(v as VertexId, m)),
        }
    }

    /// Densifies the lane state into one word per vertex (used when a
    /// round's sparse lane list is long enough that indexed lane lookups
    /// beat binary searches).
    pub fn to_lane_bitmap(&self) -> LaneBitmap {
        match &self.data {
            FusedData::Sparse { verts, masks } => {
                let mut lanes = LaneBitmap::new(self.n);
                for (v, m) in verts.iter().zip(masks) {
                    lanes.set(*v as usize, *m);
                }
                lanes
            }
            FusedData::Dense(lanes) => lanes.clone(),
        }
    }

    /// OR of every active vertex's lane word: bit `k` set iff lane `k`
    /// still has at least one active vertex. A pure function of the
    /// frontier (never of the schedule), so retirement decisions driven
    /// by it are identical across partitions, threads and chunk caps.
    pub fn live_lanes(&self) -> u64 {
        match &self.data {
            FusedData::Sparse { masks, .. } => masks.iter().fold(0, |acc, &m| acc | m),
            FusedData::Dense(lanes) => lanes.live_lanes(),
        }
    }

    /// A copy of this frontier with only the lanes in `keep` retained —
    /// how a batch frees the bits of retired lanes while it keeps
    /// running. Vertices whose masks become zero drop out of the sparse
    /// list (order preserved), so for lanes that are already empty this
    /// is structurally a no-op and results cannot change; for lanes
    /// dropped while still live it is the capped-rounds escape's
    /// hand-off point.
    pub fn retain_lanes(&self, keep: u64) -> FusedFrontier {
        match &self.data {
            FusedData::Sparse { verts, masks } => {
                let mut kept_verts: Vec<VertexId> = Vec::with_capacity(verts.len());
                let mut kept_masks: Vec<u64> = Vec::with_capacity(masks.len());
                for (&v, &m) in verts.iter().zip(masks) {
                    let m = m & keep;
                    if m != 0 {
                        kept_verts.push(v);
                        kept_masks.push(m);
                    }
                }
                let count = kept_verts.len();
                let lane_bits = kept_masks.iter().map(|m| m.count_ones() as u64).sum();
                FusedFrontier {
                    n: self.n,
                    k: self.k,
                    data: FusedData::Sparse {
                        verts: kept_verts,
                        masks: kept_masks,
                    },
                    count,
                    lane_bits,
                }
            }
            FusedData::Dense(lanes) => {
                let mut lanes = lanes.clone();
                lanes.retain_lanes(keep);
                let count = lanes.count_nonzero();
                let lane_bits = lanes.lane_bits();
                FusedFrontier {
                    n: self.n,
                    k: self.k,
                    data: FusedData::Dense(lanes),
                    count,
                    lane_bits,
                }
            }
        }
    }

    /// The union frontier (bit `v` set iff any lane has `v` active), in
    /// the representation matching this fused frontier's — what the
    /// traversal planner classifies. Fusing changes *state width*, not
    /// the planner: a partition is dense exactly when the union frontier
    /// is dense there.
    pub fn union_frontier(&self, out_degrees: &[u32], pool: &Pool) -> Frontier {
        match &self.data {
            FusedData::Sparse { verts, .. } => {
                Frontier::from_sorted(verts.clone(), self.n, out_degrees)
            }
            FusedData::Dense(lanes) => {
                Frontier::from_dense(lanes.union_bitmap(), out_degrees, pool)
            }
        }
    }
}

/// The mask covering lanes `0..k`.
#[inline]
pub fn lane_mask(k: u32) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Per-lane early-retirement bookkeeping for one fused batch: which lanes
/// are still running and the round at which each retired lane quiesced.
///
/// Driven exclusively by [`FusedFrontier::live_lanes`] — a pure function
/// of the per-round frontier — so the retirement round of every lane is
/// identical across partition counts, thread counts, chunk caps and claim
/// schedules whenever the rounds themselves are bit-identical (which the
/// fused differential suite pins).
#[derive(Clone, Debug)]
pub struct LaneRetirement {
    active: u64,
    retired_round: [u32; 64],
}

impl LaneRetirement {
    /// Starts tracking the lanes in `initial`.
    pub fn new(initial: u64) -> Self {
        LaneRetirement {
            active: initial,
            retired_round: [u32::MAX; 64],
        }
    }

    /// Records the post-round live mask: lanes active before but absent
    /// from `live` retire at `round`. Returns the newly retired lanes.
    pub fn observe(&mut self, round: u32, live: u64) -> u64 {
        let newly = self.active & !live;
        if newly != 0 {
            let mut m = newly;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                self.retired_round[k] = round;
                m &= m - 1;
            }
            self.active &= live;
        }
        newly
    }

    /// Force-retires every still-active lane at `round` (batch end).
    pub fn finish(&mut self, round: u32) -> u64 {
        let remaining = self.active;
        self.observe(round, 0);
        remaining
    }

    /// The lanes still running.
    #[inline]
    pub fn active(&self) -> u64 {
        self.active
    }

    /// The round at which lane `k` retired, if it has.
    pub fn retired_round(&self, k: u32) -> Option<u32> {
        let r = self.retired_round[k as usize];
        (r != u32::MAX).then_some(r)
    }
}

/// One fused chunk task's typed output buffer, merged in task order.
#[derive(Debug)]
pub struct FusedOutput {
    /// The destination sub-range this output covers.
    pub range: std::ops::Range<VertexId>,
    /// The payload.
    pub data: FusedOutputData,
}

/// The payload variants of a fused chunk output.
#[derive(Debug)]
pub enum FusedOutputData {
    /// Ascending activated vertices plus parallel newly-set lane masks.
    Sparse {
        /// Activated vertices, ascending.
        verts: Vec<VertexId>,
        /// Parallel newly-set lane masks.
        masks: Vec<u64>,
    },
    /// Range-aligned dense lane segment.
    Dense(LaneSegment),
}

/// Where fused kernels record activated destinations and their
/// newly-set lane masks (at most one call per destination).
pub(crate) trait FusedSink {
    /// Records that `v` joins the next fused frontier in `lanes`.
    fn activate(&mut self, v: VertexId, lanes: u64);
}

/// The typed fused output sink matching the planner's per-partition
/// output choice — sparse `(vertex, mask)` lists or a range-aligned
/// [`LaneSegment`]. Owned by exactly one pool task: plain stores.
#[derive(Debug)]
pub(crate) enum FusedPartSink {
    /// Sorted parallel lists (destinations are pulled ascending).
    Sparse {
        /// The emitting chunk's destination range.
        range: std::ops::Range<VertexId>,
        /// Activated destinations, ascending.
        verts: Vec<VertexId>,
        /// Parallel newly-set lane masks.
        masks: Vec<u64>,
    },
    /// Range-aligned dense lane segment.
    Dense {
        /// The segment, covering exactly the chunk's range.
        segment: LaneSegment,
    },
}

impl FusedPartSink {
    /// An empty sink of the planned representation over `range`.
    pub fn new(repr: OutputRepr, range: std::ops::Range<VertexId>) -> Self {
        match repr {
            OutputRepr::Sparse => FusedPartSink::Sparse {
                range,
                verts: Vec::new(),
                masks: Vec::new(),
            },
            OutputRepr::Dense => FusedPartSink::Dense {
                segment: LaneSegment::new(range.start as usize..range.end as usize),
            },
        }
    }

    /// Finishes the task, yielding the typed output buffer for the merge.
    pub fn into_output(self) -> FusedOutput {
        match self {
            FusedPartSink::Sparse {
                range,
                verts,
                masks,
            } => FusedOutput {
                range,
                data: FusedOutputData::Sparse { verts, masks },
            },
            FusedPartSink::Dense { segment } => {
                let r = segment.range();
                FusedOutput {
                    range: r.start as VertexId..r.end as VertexId,
                    data: FusedOutputData::Dense(segment),
                }
            }
        }
    }
}

impl FusedSink for FusedPartSink {
    #[inline]
    fn activate(&mut self, v: VertexId, lanes: u64) {
        debug_assert!(lanes != 0);
        match self {
            FusedPartSink::Sparse {
                range,
                verts,
                masks,
            } => {
                debug_assert!(range.contains(&v));
                debug_assert!(verts.last().is_none_or(|&last| last < v));
                verts.push(v);
                masks.push(lanes);
            }
            FusedPartSink::Dense { segment } => {
                segment.or(v as usize, lanes);
            }
        }
    }
}

/// Per-destination **deliverable-lane masks** for one fused round: entry
/// `v` is the OR of the frontier lane words over `v`'s in-neighbours —
/// exactly the lanes one more pull of `v` could activate.
///
/// Built from the out-vertex indexes (the full [`Csr`] or the
/// per-partition pruned CSRs) by ORing each active vertex's lane word
/// into its out-neighbours, the same index walk as sparse candidate
/// discovery ([`discover_candidates`]) and, like it, frontier
/// preprocessing rather than edge traversal — no
/// [`WorkCounters::add_edges`] tally. The masks are a pure function of
/// the frontier, so every schedule derives the same filter and the skip
/// decisions cannot break cross-configuration bit-identity. Entries are
/// atomics only so partitions (and, within the full-CSR build, frontier
/// chunks) can OR concurrently; `fetch_or` commutes, so the result is
/// deterministic. [`or_lanes`](Self::or_lanes) loads an entry before it ORs
/// and skips the RMW when the lanes are already there, which leaves the
/// same masks.
///
/// [`discover_candidates`]: crate::partitioned::discover_candidates
/// [`WorkCounters::add_edges`]: gg_runtime::counters::WorkCounters
pub(crate) struct PossibleMasks {
    masks: Vec<AtomicU64>,
}

impl PossibleMasks {
    fn zeroed(n: usize) -> Self {
        PossibleMasks {
            masks: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// ORs lane word `m` into every entry of `targets`, paying a locked RMW
    /// only where it adds a lane.
    #[inline]
    fn or_lanes(&self, targets: &[VertexId], m: u64) {
        for &v in targets {
            let entry = &self.masks[v as usize];
            if m & !entry.load(Ordering::Relaxed) != 0 {
                entry.fetch_or(m, Ordering::Relaxed);
            }
        }
    }

    /// Builds the masks from the whole-graph out-index (the monolithic
    /// fused fallback).
    pub fn build(csr: &Csr, fused: &FusedFrontier) -> Self {
        let pm = Self::zeroed(csr.num_vertices());
        fused.for_each(|u, m| pm.or_lanes(csr.neighbors(u), m));
        pm
    }

    /// Builds the masks partition-parallel from the pruned per-partition
    /// out-indexes: partition `p` contributes exactly the edges whose
    /// destinations it owns, so tasks write disjoint entries. The same
    /// walk as [`discover_candidates`]: a sparse frontier joins each
    /// partition's stored sources through
    /// [`PrunedCsr::for_each_stored`](gg_graph::csr::PrunedCsr::for_each_stored)
    /// (clipped to their id span, galloped); dense lane words are read
    /// once per stored source.
    ///
    /// [`discover_candidates`]: crate::partitioned::discover_candidates
    pub fn build_partitioned(
        pcsr: &PartitionedCsr,
        fused: &FusedFrontier,
        pool: &Pool,
        n: usize,
    ) -> Self {
        let pm = Self::zeroed(n);
        let parts = pcsr.partition_set().num_partitions();
        pool.for_each_index(parts, |p| {
            let part = pcsr.part(p);
            match fused.data() {
                FusedData::Sparse { verts, masks } => {
                    part.for_each_stored(verts, |k, j| pm.or_lanes(part.neighbors_at(j), masks[k]))
                }
                FusedData::Dense(lanes) => {
                    for (j, &u) in part.vertex_ids().iter().enumerate() {
                        let m = lanes.get(u as usize);
                        if m != 0 {
                            pm.or_lanes(part.neighbors_at(j), m);
                        }
                    }
                }
            }
        });
        pm
    }

    /// The deliverable mask of destination `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> u64 {
        self.masks[v as usize].load(Ordering::Relaxed)
    }
}

/// The frontier-derived state both fused kernels read during one round:
/// the lane words as kernels probe them and the deliverable-lane masks,
/// built once by the engine before the round's kernel.
pub(crate) struct FusedRound<'a> {
    csc: &'a Csc,
    fused: &'a FusedFrontier,
    /// The lane words densified, when the driver densifies the union view.
    dense_lanes: Option<LaneBitmap>,
    possible: PossibleMasks,
}

impl<'a> FusedRound<'a> {
    /// Prepares `fused` (whose union frontier is `union`) for one round
    /// on the partitioned executor, or on the monolithic fallback.
    pub fn new(
        store: &'a GraphStore,
        pool: &Pool,
        fused: &'a FusedFrontier,
        union: &Frontier,
        partitioned: bool,
    ) -> Self {
        // Lane lookups binary-search a sparse `(vertex, mask)` list once
        // per in-edge; past |F| ≥ |V| / 64 one indexed lane word per
        // vertex is cheaper than those searches.
        let densify = partitioned && union.wants_probe_bitmap();
        let dense_lanes = densify.then(|| fused.to_lane_bitmap());
        let possible = if partitioned {
            let pcsr = store.partitioned_csr().expect("partitioned store");
            PossibleMasks::build_partitioned(pcsr, fused, pool, store.num_vertices())
        } else {
            PossibleMasks::build(store.csr(), fused)
        };
        FusedRound {
            csc: store.csc(),
            fused,
            dense_lanes,
            possible,
        }
    }

    #[inline]
    fn lanes(&self) -> FusedView<'_> {
        match &self.dense_lanes {
            Some(lanes) => FusedView::Dense(lanes),
            None => self.fused.view(),
        }
    }

    fn merge(&self, outputs: Vec<FusedOutput>, ctx: &RoundCtx<'_>) -> FusedFrontier {
        let (n, k) = (self.fused.universe(), self.fused.num_lanes());
        FusedFrontier::from_outputs(outputs, n, k, ctx.counters)
    }
}

/// A resolved split hub's buffer: `[(v, new)]` when the replay activated
/// any lane.
fn hub_output(v: VertexId, new: u64) -> FusedOutput {
    let (verts, masks) = if new != 0 {
        (vec![v], vec![new])
    } else {
        (Vec::new(), Vec::new())
    };
    FusedOutput {
        range: v..v + 1,
        data: FusedOutputData::Sparse { verts, masks },
    }
}

/// The exclusive-update fused kernel: any [`MultiSourceOp`] (fused BFS,
/// reachability).
pub(crate) struct FusedExclusive<'a, O> {
    pub round: FusedRound<'a>,
    pub op: &'a O,
}

impl<O: MultiSourceOp> FusedExclusive<'_, O> {
    /// The lanes one more pull of `v` could activate this round: open at
    /// `v` and active at some in-neighbour. Frontier-derived (`v`'s state
    /// is frozen until its one writer runs), so an unsplit scan, every
    /// slice of a split one and the replay all see the same mask.
    #[inline]
    fn deliverable(&self, v: VertexId) -> u64 {
        self.round.possible.get(v) & self.op.cond(v)
    }

    /// Applies one lane-active in-edge `(u, v)` and says whether `v`'s
    /// scan goes on — the kernel's one exit rule: stop once every
    /// deliverable lane has activated (sound by the [`MultiSourceOp`]
    /// exclusive-update contract). Shared by the unsplit scan and the hub
    /// replay.
    #[inline]
    fn step(
        &self,
        (u, w, src_lanes): (VertexId, f32, u64),
        v: VertexId,
        deliverable: u64,
        new: &mut u64,
    ) -> bool {
        *new |= self.op.update(u, v, w, src_lanes) & deliverable;
        deliverable & !*new != 0
    }

    /// Applies the in-edges of destination `v` (CSC adjacency order) for
    /// every source active in any lane. A destination with no deliverable
    /// lane is skipped without touching an edge; newly-activated lanes are
    /// masked by the scan-start deliverable set and the destination
    /// activates at most once.
    #[inline]
    fn pull_vertex<S: FusedSink>(&self, v: VertexId, sink: &mut S, tally: &mut LocalTally<'_>) {
        tally.vertex();
        let deliverable = self.deliverable(v);
        if deliverable == 0 {
            return;
        }
        let (csc, lanes) = (self.round.csc, self.round.lanes());
        let mut new = 0u64;
        for e in csc.edge_range(v) {
            tally.edge();
            let u = csc.sources()[e];
            let src_lanes = lanes.lanes_of(u);
            if src_lanes != 0
                && !self.step((u, csc.weight_at(e), src_lanes), v, deliverable, &mut new)
            {
                break;
            }
        }
        if new != 0 {
            sink.activate(v, new);
        }
    }
}

impl<O: MultiSourceOp> ChunkKernel for FusedExclusive<'_, O> {
    type Sink = FusedPartSink;
    type Resolved = FusedOutput;
    /// The slice's active `(source, weight, src_lanes)` contributions, in
    /// scan order.
    type HubPart = Vec<(VertexId, f32, u64)>;
    type Out = FusedFrontier;

    // `FusedPartSink::Sparse` streams ascending `(vertex, mask)` pairs
    // unsorted, so destinations must be pulled ascending. (Sorting pairs
    // to follow the layout order is a perf question, not a refactor.)
    const PERMUTED_VISIT: bool = false;
    const PROBES_FRONTIER: bool = false;

    fn sink(repr: OutputRepr, range: std::ops::Range<VertexId>) -> FusedPartSink {
        FusedPartSink::new(repr, range)
    }

    #[inline]
    fn pull(
        &self,
        _union: FrontierView<'_>,
        v: VertexId,
        sink: &mut FusedPartSink,
        tally: &mut LocalTally<'_>,
    ) {
        self.pull_vertex(v, sink, tally);
    }

    fn finish(sink: FusedPartSink) -> FusedOutput {
        sink.into_output()
    }

    fn collect_hub(
        &self,
        _union: FrontierView<'_>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart {
        // Count the destination visit once, on its first slice.
        if sub.lo == 0 {
            tally.vertex();
        }
        let mut actives = Vec::new();
        if self.deliverable(v) != 0 {
            let (csc, lanes) = (self.round.csc, self.round.lanes());
            let base = csc.offsets()[v as usize];
            for e in base + sub.lo as usize..base + sub.hi as usize {
                tally.edge();
                let u = csc.sources()[e];
                let src_lanes = lanes.lanes_of(u);
                if src_lanes != 0 {
                    actives.push((u, csc.weight_at(e), src_lanes));
                }
            }
        }
        actives
    }

    /// The replay once masked new lanes by `cond(v)` alone and stopped at
    /// `cond(v) == 0`; [`step`](Self::step)'s rule is equivalent. Every
    /// contribution's `src_lanes` lies inside `v`'s deliverable mask or is
    /// closed at `v`, so masking by `deliverable` drops nothing `cond`
    /// kept; and once every deliverable lane has activated, the remaining
    /// contributions carry only lanes already active at `v` — calls the
    /// exclusive-update contract makes no-ops, which the unsplit scan
    /// already skips.
    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> FusedOutput {
        let deliverable = self.deliverable(v);
        let mut new = 0u64;
        if deliverable != 0 {
            for &edge in parts.iter().flatten() {
                if !self.step(edge, v, deliverable, &mut new) {
                    break;
                }
            }
        }
        hub_output(v, new)
    }

    fn merge(&self, outputs: Vec<FusedOutput>, ctx: &RoundCtx<'_>) -> FusedFrontier {
        self.round.merge(outputs, ctx)
    }
}

/// The associative fused kernel: any [`MultiSourceReduce`] (fused PPR).
/// Scans fold in fixed [`REDUCE_QUANTUM`]-edge runs (absolute quantum
/// boundaries within the scan), one `apply` per non-empty quantum,
/// ascending. `cond` is checked once per destination, and scans are never
/// truncated — per-edge accumulation stays complete — so the prefilter
/// skips a destination only when **no** in-neighbour is active in any
/// lane: a scan that would have folded nothing.
pub(crate) struct FusedQuantum<'a, O> {
    pub round: FusedRound<'a>,
    pub op: &'a O,
}

impl<O: MultiSourceReduce> FusedQuantum<'_, O> {
    /// The lanes `apply` may newly activate at `v`; zero skips the scan.
    #[inline]
    fn open(&self, v: VertexId) -> u64 {
        if self.round.possible.get(v) == 0 {
            return 0;
        }
        self.op.cond(v)
    }

    /// The quantum-folded scan of destination `v`.
    #[inline]
    fn pull_vertex<S: FusedSink>(&self, v: VertexId, sink: &mut S, tally: &mut LocalTally<'_>) {
        tally.vertex();
        let open = self.open(v);
        if open == 0 {
            return;
        }
        let (csc, lanes) = (self.round.csc, self.round.lanes());
        let base = csc.offsets()[v as usize];
        let deg = csc.offsets()[v as usize + 1] - base;
        let mut new = 0u64;
        let mut lo = 0usize;
        while lo < deg {
            let hi = (lo + REDUCE_QUANTUM).min(deg);
            let mut acc = self.op.identity();
            let mut any = false;
            for e in base + lo..base + hi {
                tally.edge();
                let u = csc.sources()[e];
                let src_lanes = lanes.lanes_of(u);
                if src_lanes != 0 {
                    self.op.accumulate(&mut acc, u, csc.weight_at(e), src_lanes);
                    any = true;
                }
            }
            if any {
                new |= self.op.apply(v, &acc) & open;
            }
            lo = hi;
        }
        if new != 0 {
            sink.activate(v, new);
        }
    }
}

impl<O: MultiSourceReduce> ChunkKernel for FusedQuantum<'_, O> {
    type Sink = FusedPartSink;
    type Resolved = FusedOutput;
    /// The slice's active `(quantum, source, weight, src_lanes)`
    /// fragments, in scan order (quantum indices from absolute scan
    /// positions, ascending). Unlike the scalar `Quantum` kernel, fused
    /// slices do not pre-fold covered quanta: the resolver's
    /// `O(active slice edges)` folds are the same order as the exclusive
    /// replay.
    type HubPart = Vec<(u64, VertexId, f32, u64)>;
    type Out = FusedFrontier;

    // As for `FusedExclusive`: the sparse sink streams ascending pairs.
    const PERMUTED_VISIT: bool = false;
    const PROBES_FRONTIER: bool = false;

    fn sink(repr: OutputRepr, range: std::ops::Range<VertexId>) -> FusedPartSink {
        FusedPartSink::new(repr, range)
    }

    #[inline]
    fn pull(
        &self,
        _union: FrontierView<'_>,
        v: VertexId,
        sink: &mut FusedPartSink,
        tally: &mut LocalTally<'_>,
    ) {
        self.pull_vertex(v, sink, tally);
    }

    fn finish(sink: FusedPartSink) -> FusedOutput {
        sink.into_output()
    }

    fn collect_hub(
        &self,
        _union: FrontierView<'_>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart {
        if sub.lo == 0 {
            tally.vertex();
        }
        let mut fragments = Vec::new();
        if self.open(v) != 0 {
            let (csc, lanes) = (self.round.csc, self.round.lanes());
            let base = csc.offsets()[v as usize];
            for r in sub.lo as usize..sub.hi as usize {
                tally.edge();
                let u = csc.sources()[base + r];
                let src_lanes = lanes.lanes_of(u);
                if src_lanes != 0 {
                    let q = (r / REDUCE_QUANTUM) as u64;
                    fragments.push((q, u, csc.weight_at(base + r), src_lanes));
                }
            }
        }
        fragments
    }

    /// Re-folds the fragments per quantum from the identity, in scan
    /// order — a quantum may straddle two slices, so the fold carries
    /// across part boundaries — matching the unsplit grouping bit for bit.
    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> FusedOutput {
        let op = self.op;
        let open = self.open(v);
        let mut new = 0u64;
        if open != 0 {
            let mut pending: Option<(u64, O::Acc)> = None;
            for &(q, u, w, src_lanes) in parts.iter().flatten() {
                match &mut pending {
                    Some((fq, acc)) if *fq == q => op.accumulate(acc, u, w, src_lanes),
                    _ => {
                        if let Some((_, acc)) = pending.take() {
                            new |= op.apply(v, &acc) & open;
                        }
                        let mut acc = op.identity();
                        op.accumulate(&mut acc, u, w, src_lanes);
                        pending = Some((q, acc));
                    }
                }
            }
            if let Some((_, acc)) = pending {
                new |= op.apply(v, &acc) & open;
            }
        }
        hub_output(v, new)
    }

    fn merge(&self, outputs: Vec<FusedOutput>, ctx: &RoundCtx<'_>) -> FusedFrontier {
        self.round.merge(outputs, ctx)
    }
}

/// The monolithic fused fallback, for an engine without the partitioned
/// executor: pull every destination range through `kernel`, one pool task
/// per range, sparse outputs merged in range order. Deterministic
/// (exclusive per range, CSC scan order per destination) but unplanned —
/// the deliverable prefilter is the only thing standing between every
/// round and a full `|V|` destination scan. The partitioned executor is
/// the production fused path.
pub(crate) fn monolithic_round<K: ChunkKernel>(
    ctx: &RoundCtx<'_>,
    ranges: &[std::ops::Range<VertexId>],
    union: &Frontier,
    kernel: &K,
) -> K::Out {
    let outputs = ctx.pool.map_indices(ranges.len(), |i| {
        let mut tally = LocalTally::new(ctx.counters);
        let range = ranges[i].clone();
        let repr = OutputRepr::Sparse;
        pull_chunk(kernel, union.view(), repr, range.clone(), range, &mut tally)
    });
    kernel.merge(outputs, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_build_a_sorted_deduped_sparse_frontier() {
        let f = FusedFrontier::from_seeds(&[9, 2, 9, 5], 12);
        assert_eq!(f.num_lanes(), 4);
        assert_eq!(f.lane_mask(), 0b1111);
        assert_eq!(f.len(), 3);
        assert_eq!(f.lane_bits(), 4);
        let mut seen = Vec::new();
        f.for_each(|v, m| seen.push((v, m)));
        // Lane 0 and 2 share vertex 9.
        assert_eq!(seen, vec![(2, 0b0010), (5, 0b1000), (9, 0b0101)]);
        assert_eq!(f.lanes_of(9), 0b0101);
        assert_eq!(f.lanes_of(0), 0);
    }

    #[test]
    fn lane_mask_covers_full_width() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(64), u64::MAX);
    }

    #[test]
    fn sparse_outputs_concatenate_without_dense_work() {
        let counters = WorkCounters::new();
        let outputs = vec![
            FusedOutput {
                range: 8..16,
                data: FusedOutputData::Sparse {
                    verts: vec![9, 15],
                    masks: vec![0b10, 0b1],
                },
            },
            FusedOutput {
                range: 0..8,
                data: FusedOutputData::Sparse {
                    verts: vec![3],
                    masks: vec![0b11],
                },
            },
        ];
        let f = FusedFrontier::from_outputs(outputs, 16, 2, &counters);
        assert!(matches!(f.data(), FusedData::Sparse { .. }));
        let mut seen = Vec::new();
        f.for_each(|v, m| seen.push((v, m)));
        assert_eq!(seen, vec![(3, 0b11), (9, 0b10), (15, 0b1)]);
        assert_eq!(counters.fused_lanes(), 4);
        assert_eq!(counters.lane_union_words(), 0);
    }

    #[test]
    fn dense_outputs_splice_and_count_union_words() {
        let counters = WorkCounters::new();
        let mut seg = LaneSegment::new(4..10);
        seg.or(5, 0b100);
        let outputs = vec![
            FusedOutput {
                range: 4..10,
                data: FusedOutputData::Dense(seg),
            },
            FusedOutput {
                range: 0..4,
                data: FusedOutputData::Sparse {
                    verts: vec![1],
                    masks: vec![0b1],
                },
            },
        ];
        let f = FusedFrontier::from_outputs(outputs, 10, 3, &counters);
        assert!(matches!(f.data(), FusedData::Dense(_)));
        assert_eq!(f.len(), 2);
        assert_eq!(f.lanes_of(5), 0b100);
        assert_eq!(f.lanes_of(1), 0b1);
        assert_eq!(counters.lane_union_words(), 6);
        assert_eq!(counters.fused_lanes(), 2);
    }

    #[test]
    fn hub_replay_matches_inline_updates_and_respects_early_exit() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A claim-once op: each lane claims dst at most once.
        struct Claim {
            visited: Vec<AtomicU64>,
        }
        impl MultiSourceOp for Claim {
            fn update(&self, _s: VertexId, d: VertexId, _w: f32, src_lanes: u64) -> u64 {
                let prev = self.visited[d as usize].fetch_or(src_lanes, Ordering::Relaxed);
                src_lanes & !prev
            }
            fn cond(&self, d: VertexId) -> u64 {
                lane_mask(2) & !self.visited[d as usize].load(Ordering::Relaxed)
            }
        }
        let op = Claim {
            visited: (0..4).map(|_| AtomicU64::new(0)).collect(),
        };
        // Both lanes are deliverable at destination 2.
        let csc = gg_graph::csc::Csc::from_edge_list(&gg_graph::edge_list::EdgeList::new(4));
        let fused = FusedFrontier::empty(4, 2);
        let possible = PossibleMasks::zeroed(4);
        possible.masks[2].store(0b11, Ordering::Relaxed);
        let kernel = FusedExclusive {
            round: round_with(&csc, &fused, possible),
            op: &op,
        };
        let parts = [vec![(0, 1.0, 0b01), (1, 1.0, 0b11)], vec![(3, 1.0, 0b11)]];
        let reduced = kernel.resolve_hub(2, &parts);
        assert_eq!(reduced.range, 2..3);
        match &reduced.data {
            FusedOutputData::Sparse { verts, masks } => {
                assert_eq!(verts, &vec![2]);
                // Lane 0 claimed by src 0, lane 1 by src 1; src 3 adds
                // nothing (early exit already fired: both lanes closed).
                assert_eq!(masks, &vec![0b11]);
            }
            other => panic!("expected sparse, got {other:?}"),
        }
        assert_eq!(op.visited[2].load(Ordering::Relaxed), 0b11);
    }

    /// A claim-once visit op over `k` lanes, the BFS update shape.
    struct Visit {
        visited: Vec<std::sync::atomic::AtomicU64>,
        k: u32,
    }
    impl Visit {
        fn new(n: usize, k: u32) -> Self {
            Visit {
                visited: (0..n).map(|_| AtomicU64::new(0)).collect(),
                k,
            }
        }
    }
    impl MultiSourceOp for Visit {
        fn update(&self, _s: VertexId, d: VertexId, _w: f32, src_lanes: u64) -> u64 {
            let prev = self.visited[d as usize].fetch_or(src_lanes, Ordering::Relaxed);
            src_lanes & !prev
        }
        fn cond(&self, d: VertexId) -> u64 {
            lane_mask(self.k) & !self.visited[d as usize].load(Ordering::Relaxed)
        }
    }

    /// A round over `fused` with hand-picked deliverable masks.
    fn round_with<'a>(
        csc: &'a Csc,
        fused: &'a FusedFrontier,
        possible: PossibleMasks,
    ) -> FusedRound<'a> {
        FusedRound {
            csc,
            fused,
            dense_lanes: None,
            possible,
        }
    }

    struct VecSink(Vec<(VertexId, u64)>);
    impl FusedSink for VecSink {
        fn activate(&mut self, v: VertexId, lanes: u64) {
            self.0.push((v, lanes));
        }
    }

    #[test]
    fn zero_deliverable_mask_skips_the_scan_without_touching_an_edge() {
        use gg_graph::edge_list::EdgeList;
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let csc = gg_graph::csc::Csc::from_edge_list(&el);
        let fused = FusedFrontier::from_seeds(&[1], 6);
        let op = Visit::new(6, 1);
        let counters = WorkCounters::new();
        let mut sink = VecSink(Vec::new());
        {
            let mut tally = LocalTally::new(&counters);
            // `possible == 0`: no in-neighbour can deliver a lane.
            let round = round_with(&csc, &fused, PossibleMasks::zeroed(6));
            FusedExclusive { round, op: &op }.pull_vertex(5, &mut sink, &mut tally);
        }
        assert_eq!(counters.edges(), 0, "skipped destination must not scan");
        assert!(sink.0.is_empty());
    }

    #[test]
    fn scan_breaks_once_every_deliverable_lane_is_claimed() {
        use gg_graph::edge_list::EdgeList;
        // Destination 5's in-list is [0, 1, 2, 3, 4] in CSC order; only
        // source 1 is active (lane 0), so the scan must stop right after
        // edge (1, 5) claims the lone deliverable lane.
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let csc = gg_graph::csc::Csc::from_edge_list(&el);
        let fused = FusedFrontier::from_seeds(&[1], 6);
        let op = Visit::new(6, 1);
        let csr = gg_graph::csr::Csr::from_edge_list(&el);
        let possible = PossibleMasks::build(&csr, &fused);
        let counters = WorkCounters::new();
        let mut sink = VecSink(Vec::new());
        {
            let mut tally = LocalTally::new(&counters);
            let round = round_with(&csc, &fused, possible);
            FusedExclusive { round, op: &op }.pull_vertex(5, &mut sink, &mut tally);
        }
        assert_eq!(counters.edges(), 2, "scan stops at the claiming edge");
        assert_eq!(sink.0, vec![(5, 0b1)]);
    }

    #[test]
    fn live_lanes_and_retain_track_sparse_and_dense_alike() {
        let sparse = FusedFrontier::from_seeds(&[9, 2, 9, 5], 12);
        assert_eq!(sparse.live_lanes(), 0b1111);
        // Retire lanes 0 and 3; vertex 5 (lane 3 only) drops out.
        let kept = sparse.retain_lanes(0b0110);
        assert_eq!(kept.live_lanes(), 0b0110);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.lane_bits(), 2);
        let mut seen = Vec::new();
        kept.for_each(|v, m| seen.push((v, m)));
        assert_eq!(seen, vec![(2, 0b0010), (9, 0b0100)]);
        assert_eq!(kept.num_lanes(), sparse.num_lanes());

        // Dense path: same result through a LaneBitmap.
        let counters = WorkCounters::new();
        let mut seg = LaneSegment::new(0..12);
        sparse.for_each(|v, m| {
            seg.or(v as usize, m);
        });
        let dense = FusedFrontier::from_outputs(
            vec![FusedOutput {
                range: 0..12,
                data: FusedOutputData::Dense(seg),
            }],
            12,
            4,
            &counters,
        );
        assert_eq!(dense.live_lanes(), 0b1111);
        let dkept = dense.retain_lanes(0b0110);
        assert!(matches!(dkept.data(), FusedData::Dense(_)));
        let mut dseen = Vec::new();
        dkept.for_each(|v, m| dseen.push((v, m)));
        assert_eq!(dseen, seen);
        assert_eq!(dkept.len(), 2);
        assert_eq!(dkept.lane_bits(), 2);

        // Retaining every live lane is a structural no-op.
        let all = sparse.retain_lanes(u64::MAX);
        let mut aseen = Vec::new();
        all.for_each(|v, m| aseen.push((v, m)));
        let mut oseen = Vec::new();
        sparse.for_each(|v, m| oseen.push((v, m)));
        assert_eq!(aseen, oseen);
    }

    #[test]
    fn lane_retirement_records_rounds_and_force_finishes() {
        let mut r = LaneRetirement::new(0b1011);
        assert_eq!(r.active(), 0b1011);
        assert_eq!(r.retired_round(0), None);
        // Round 2: lane 0 quiesces.
        assert_eq!(r.observe(2, 0b1010), 0b0001);
        assert_eq!(r.active(), 0b1010);
        assert_eq!(r.retired_round(0), Some(2));
        // Re-observing a dead lane changes nothing.
        assert_eq!(r.observe(3, 0b1010), 0);
        assert_eq!(r.retired_round(0), Some(2));
        // Round 5: lanes 1 and 3 quiesce together.
        assert_eq!(r.observe(5, 0), 0b1010);
        assert_eq!(r.active(), 0);
        assert_eq!(r.retired_round(1), Some(5));
        assert_eq!(r.retired_round(3), Some(5));
        // Lane 2 was never in the batch.
        assert_eq!(r.retired_round(2), None);

        let mut f = LaneRetirement::new(0b11);
        f.observe(1, 0b10);
        assert_eq!(f.finish(7), 0b10);
        assert_eq!(f.retired_round(0), Some(1));
        assert_eq!(f.retired_round(1), Some(7));
        assert_eq!(f.active(), 0);
    }

    /// The partition-parallel build (one join per pruned partition) equals
    /// the whole-CSR build mask for mask, for sparse and dense lane words
    /// at K = 1 and K = 64.
    #[test]
    fn partitioned_possible_masks_match_the_whole_csr_build() {
        use gg_graph::csr::PartitionedCsr;
        use gg_graph::generators::{rmat, RmatParams};
        use gg_graph::partition::{PartitionBy, PartitionSet};
        let el = rmat(9, 3000, RmatParams::skewed(), 11);
        let n = el.num_vertices();
        let csr = Csr::from_edge_list(&el);
        let pool = Pool::new(2);
        let counters = WorkCounters::new();
        let whole_range = 0..n as VertexId;
        for parts in [1, 7, 16] {
            let set =
                PartitionSet::edge_balanced(&el.in_degrees(), parts, PartitionBy::Destination);
            let pcsr = PartitionedCsr::new(&el, &set);
            for k in [1u32, 64] {
                for stride in [1, 5, 97] {
                    // Lane words hashed from the vertex id, zeros dropped.
                    let (verts, masks): (Vec<VertexId>, Vec<u64>) = whole_range
                        .clone()
                        .step_by(stride)
                        .map(|v| (v, (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                        .map(|(v, m)| (v, m & lane_mask(k)))
                        .filter(|&(_, m)| m != 0)
                        .unzip();
                    let mut segment = LaneSegment::new(0..n);
                    for (&v, &m) in verts.iter().zip(&masks) {
                        segment.or(v as usize, m);
                    }
                    let as_output = |data| FusedOutput {
                        range: whole_range.clone(),
                        data,
                    };
                    let reprs = [
                        ("sparse", FusedOutputData::Sparse { verts, masks }),
                        ("dense", FusedOutputData::Dense(segment)),
                    ];
                    for (repr, data) in reprs {
                        let fused =
                            FusedFrontier::from_outputs(vec![as_output(data)], n, k, &counters);
                        let whole = PossibleMasks::build(&csr, &fused);
                        let split = PossibleMasks::build_partitioned(&pcsr, &fused, &pool, n);
                        for v in whole_range.clone() {
                            let what = format!("P={parts} K={k} stride={stride} {repr} v={v}");
                            assert_eq!(split.get(v), whole.get(v), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn possible_masks_union_frontier_lanes_over_out_neighbors() {
        use gg_graph::edge_list::EdgeList;
        let el = EdgeList::from_edges(5, &[(0, 2), (1, 2), (1, 3), (4, 3)]);
        let csr = gg_graph::csr::Csr::from_edge_list(&el);
        // Lane 0 seeds at 0, lane 1 at 1; vertex 4 inactive.
        let fused = FusedFrontier::from_seeds(&[0, 1], 5);
        let pm = PossibleMasks::build(&csr, &fused);
        assert_eq!(pm.get(2), 0b11);
        assert_eq!(pm.get(3), 0b10);
        assert_eq!(pm.get(4), 0);
        assert_eq!(pm.get(0), 0);
    }
}
