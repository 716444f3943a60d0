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
//! ## The scalar kernels over a 64-lane word
//!
//! Fusing changes *state width*, not the executor. A fused round hands the
//! [partitioned driver](crate::partitioned) its **union frontier** (bit
//! `v` set iff any lane has `v` active) — so planning, chunking, hub
//! splitting and task claiming are the scalar round's over the same
//! active set, and a partition is dense exactly when the union frontier is
//! dense there — plus the scalar round's own two kernels, run on the `u64`
//! lane word of the round state defined here (`FusedRound`) instead of the
//! scalar `bool`:
//!
//! * `Exclusive` runs a [`MultiSourceOp`] (the fused [`EdgeOp`]):
//!   `update` returns the lanes newly activated by one edge and may mutate
//!   destination-indexed state under the single-writer guarantee. A split
//!   mega-hub's slices collect their active `(source, weight, src_lanes)`
//!   contributions and the driver replays them in CSC scan order.
//! * `Quantum` runs a [`MultiSourceReduce`] (the fused
//!   [`EdgeMapReduce`]): destination scans fold per fixed
//!   [`REDUCE_QUANTUM`]-edge run into a per-lane accumulator, so f64
//!   grouping is a property of the destination alone. A split hub's
//!   slices fold the quanta they cover and ship the edges of the quanta
//!   they straddle raw, to be re-folded per quantum.
//!
//! The lane word's sink emits the fused analogues of the scalar typed
//! buffers ([`FusedOutput`]: sparse `(vertex, mask)` lists or
//! range-aligned [`LaneSegment`]s), merged in `(partition, chunk)` order
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
//! the exclusive kernel stops a scan as soon as `cond` holds no
//! deliverable lane — for a visited-set operator, once every deliverable
//! lane has activated: the fused form of the scalar pull's first-claim
//! early exit. The masks depend only on the frontier, never on the
//! schedule, so every configuration makes identical skip decisions and
//! fused rounds stay bit-identical.
//!
//! [`EdgeOp`]: crate::edge_map::EdgeOp
//! [`EdgeMapReduce`]: crate::edge_map::EdgeMapReduce
//! [`REDUCE_QUANTUM`]: crate::edge_map::REDUCE_QUANTUM

use gg_graph::csr::Csr;
use gg_graph::lanes::{LaneBitmap, LaneSegment};
use gg_graph::types::VertexId;
use gg_runtime::counters::{LocalTally, WorkCounters};
use gg_runtime::pool::Pool;

use crate::frontier::{Frontier, FrontierView};
use crate::partitioned::{pull_chunk, ChunkKernel, LaneOp, LaneReduce, Lanes, Out, RoundCtx};
use crate::plan::OutputRepr;
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

    /// The lanes in which `dst` still wants updates — the fused form of
    /// [`EdgeOp::cond`](crate::edge_map::EdgeOp::cond). A destination
    /// whose `cond` holds no deliverable lane is skipped before its scan,
    /// and the scan stops after the first applied update that leaves
    /// `cond` without one: the early exit engages only when `cond` drops a
    /// lane once it is active at `dst`. Fused BFS returns the
    /// not-yet-visited lanes, so a destination claimed in every lane that
    /// can reach it costs no further edge reads. The default `u64::MAX`
    /// is still correct, but every scan runs in full.
    #[inline]
    fn cond(&self, _dst: VertexId) -> u64 {
        u64::MAX
    }
}

/// The associative fused variant: the K-lane analogue of
/// [`EdgeMapReduce`](crate::edge_map::EdgeMapReduce).
///
/// Destination scans fold in fixed
/// [`REDUCE_QUANTUM`](crate::edge_map::REDUCE_QUANTUM)-edge runs with
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
    /// a touched-lane mask). `Send`, because a split hub's slices fold
    /// their covered quanta on the workers and ship them to the resolver.
    type Acc: Send;

    /// The accumulator every quantum's fold starts from.
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
/// fused rows of `tests/contract.rs` pin).
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

/// Per-destination **deliverable-lane masks** for one fused round: entry
/// `v` is the OR of the frontier lane words over `v`'s in-neighbours —
/// exactly the lanes one more pull of `v` could activate.
///
/// Built by ORing each active vertex's lane word into its out-neighbours
/// in the whole [`Csr`] — the out-edges sparse candidate discovery walks,
/// and like it frontier preprocessing rather than edge traversal, so no
/// [`WorkCounters::add_edges`] tally. The masks are a pure function of
/// the frontier, so every schedule derives the same filter and the skip
/// decisions cannot break cross-configuration bit-identity.
///
/// [`WorkCounters::add_edges`]: gg_runtime::counters::WorkCounters
pub(crate) struct PossibleMasks {
    masks: Vec<u64>,
}

impl PossibleMasks {
    /// Builds the masks from the whole-graph out-index, on both executors.
    pub fn build(csr: &Csr, fused: &FusedFrontier) -> Self {
        let mut masks = vec![0u64; csr.num_vertices()];
        fused.for_each(|u, m| {
            for &v in csr.neighbors(u) {
                masks[v as usize] |= m;
            }
        });
        PossibleMasks { masks }
    }

    /// The deliverable mask of destination `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> u64 {
        self.masks[v as usize]
    }
}

/// The lanes of a fused round: the frontier's lane words as the kernels
/// probe them and the deliverable-lane masks, built once by the engine
/// before the round's kernel.
pub(crate) struct FusedRound<'a> {
    fused: &'a FusedFrontier,
    /// The lane words densified, when the driver densifies the union view.
    dense_lanes: Option<LaneBitmap>,
    possible: PossibleMasks,
}

impl<'a> FusedRound<'a> {
    /// Prepares `fused` (whose union frontier is `union`) for one round
    /// on the partitioned executor, or on the monolithic fallback.
    pub fn new(
        store: &GraphStore,
        fused: &'a FusedFrontier,
        union: &Frontier,
        partitioned: bool,
    ) -> Self {
        // Lane lookups binary-search a sparse `(vertex, mask)` list once
        // per in-edge; past |F| ≥ |V| / 64 one indexed lane word per
        // vertex is cheaper than those searches.
        let densify = partitioned && union.wants_probe_bitmap();
        let dense_lanes = densify.then(|| fused.to_lane_bitmap());
        let possible = PossibleMasks::build(store.csr(), fused);
        FusedRound {
            fused,
            dense_lanes,
            possible,
        }
    }
}

impl Lanes for FusedRound<'_> {
    type Word = u64;
    type View<'a>
        = FusedView<'a>
    where
        Self: 'a;
    type Sink = FusedPartSink;
    type Resolved = FusedOutput;
    type Out = FusedFrontier;

    // `FusedPartSink::Sparse` streams ascending `(vertex, mask)` pairs
    // unsorted, so an inline round must pull its candidates ascending.
    const PERMUTED_VISIT: bool = false;
    const PROBES_FRONTIER: bool = false;

    #[inline]
    fn view<'a>(&'a self, _union: FrontierView<'a>) -> FusedView<'a> {
        match &self.dense_lanes {
            Some(lanes) => FusedView::Dense(lanes),
            None => self.fused.view(),
        }
    }

    #[inline]
    fn lanes_of(view: FusedView<'_>, u: VertexId) -> u64 {
        view.lanes_of(u)
    }

    #[inline]
    fn possible(&self, v: VertexId) -> u64 {
        self.possible.get(v)
    }

    fn sink(repr: OutputRepr, range: std::ops::Range<VertexId>) -> FusedPartSink {
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

    #[inline]
    fn activate(sink: &mut FusedPartSink, v: VertexId, lanes: u64) {
        debug_assert!(lanes != 0);
        match sink {
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

    fn finish(sink: FusedPartSink) -> FusedOutput {
        match sink {
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

    fn merge(&self, outputs: Vec<FusedOutput>, ctx: &RoundCtx<'_>) -> FusedFrontier {
        let (n, k) = (self.fused.universe(), self.fused.num_lanes());
        FusedFrontier::from_outputs(outputs, n, k, ctx.counters)
    }
}

impl<O: MultiSourceOp> LaneOp<u64> for O {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: f32, lanes: u64) -> u64 {
        MultiSourceOp::update(self, src, dst, w, lanes)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> u64 {
        MultiSourceOp::cond(self, dst)
    }
}

impl<O: MultiSourceReduce> LaneReduce<u64> for O {
    type Acc = O::Acc;

    #[inline]
    fn identity(&self) -> O::Acc {
        MultiSourceReduce::identity(self)
    }

    #[inline]
    fn accumulate(&self, acc: &mut O::Acc, src: VertexId, w: f32, lanes: u64) {
        MultiSourceReduce::accumulate(self, acc, src, w, lanes);
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: &O::Acc) -> u64 {
        MultiSourceReduce::apply(self, dst, acc)
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
) -> Out<K> {
    let outputs = ctx.pool.map_indices(ranges.len(), |i| {
        let mut tally = LocalTally::new(ctx.counters);
        let range = ranges[i].clone();
        let repr = OutputRepr::Sparse;
        pull_chunk(kernel, union.view(), repr, range.clone(), range, &mut tally)
    });
    kernel.lanes().merge(outputs, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::Exclusive;
    use gg_graph::csc::Csc;
    use gg_graph::edge_list::EdgeList;
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let possible = PossibleMasks {
            masks: vec![0, 0, 0b11, 0],
        };
        let kernel = Exclusive {
            csc: &csc,
            lanes: round_with(&fused, possible),
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
    fn round_with(fused: &FusedFrontier, possible: PossibleMasks) -> FusedRound<'_> {
        FusedRound {
            fused,
            dense_lanes: None,
            possible,
        }
    }

    /// Pulls destination 5 of `el` through the exclusive kernel on
    /// `round`; returns the edges scanned and the activations.
    fn pull_5(el: &EdgeList, round: FusedRound<'_>, op: &Visit) -> (u64, Vec<(VertexId, u64)>) {
        let csc = Csc::from_edge_list(el);
        let kernel = Exclusive {
            csc: &csc,
            lanes: round,
            op,
        };
        let counters = WorkCounters::new();
        let mut sink = FusedRound::sink(OutputRepr::Sparse, 0..6);
        let mut tally = LocalTally::new(&counters);
        kernel.pull(FrontierView::Sparse(&[]), 5, &mut sink, &mut tally);
        drop(tally);
        let mut activated = Vec::new();
        FusedFrontier::from_outputs(vec![FusedRound::finish(sink)], 6, 1, &counters)
            .for_each(|v, m| activated.push((v, m)));
        (counters.edges(), activated)
    }

    #[test]
    fn zero_deliverable_mask_skips_the_scan_without_touching_an_edge() {
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let fused = FusedFrontier::from_seeds(&[1], 6);
        // `possible == 0`: no in-neighbour can deliver a lane.
        let round = round_with(&fused, PossibleMasks { masks: vec![0; 6] });
        let (edges, activated) = pull_5(&el, round, &Visit::new(6, 1));
        assert_eq!(edges, 0, "skipped destination must not scan");
        assert!(activated.is_empty());
    }

    #[test]
    fn scan_breaks_once_every_deliverable_lane_is_claimed() {
        // Destination 5's in-list is [0, 1, 2, 3, 4] in CSC order; only
        // source 1 is active (lane 0), so the scan must stop right after
        // edge (1, 5) claims the lone deliverable lane.
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let fused = FusedFrontier::from_seeds(&[1], 6);
        let possible = PossibleMasks::build(&Csr::from_edge_list(&el), &fused);
        let (edges, activated) = pull_5(&el, round_with(&fused, possible), &Visit::new(6, 1));
        assert_eq!(edges, 2, "scan stops at the claiming edge");
        assert_eq!(activated, vec![(5, 0b1)]);
    }

    #[test]
    fn live_lanes_track_sparse_and_dense_alike() {
        let sparse = FusedFrontier::from_seeds(&[9, 2, 9, 5], 12);
        assert_eq!(sparse.live_lanes(), 0b1111);

        // Dense path, through a LaneBitmap holding only lanes 1 and 2:
        // lanes 0 and 3 have no bits, so they read as not live.
        let counters = WorkCounters::new();
        let mut seg = LaneSegment::new(0..12);
        sparse.for_each(|v, m| {
            seg.or(v as usize, m & 0b0110);
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
        assert!(matches!(dense.data(), FusedData::Dense(_)));
        assert_eq!(dense.live_lanes(), 0b0110);
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

    /// The whole-CSR build matches the masks' definition — the OR of the
    /// frontier lane words over each vertex's CSC in-neighbours — for
    /// sparse and dense lane words at K = 1 and K = 64.
    #[test]
    fn possible_masks_are_the_or_over_in_neighbour_lanes() {
        use gg_graph::generators::{rmat, RmatParams};
        let el = rmat(9, 3000, RmatParams::skewed(), 11);
        let n = el.num_vertices();
        let (csr, csc) = (Csr::from_edge_list(&el), Csc::from_edge_list(&el));
        let counters = WorkCounters::new();
        let whole_range = 0..n as VertexId;
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
                let mut lanes = vec![0u64; n];
                let mut segment = LaneSegment::new(0..n);
                for (&v, &m) in verts.iter().zip(&masks) {
                    lanes[v as usize] = m;
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
                    let fused = FusedFrontier::from_outputs(vec![as_output(data)], n, k, &counters);
                    let built = PossibleMasks::build(&csr, &fused);
                    for v in whole_range.clone() {
                        let want = csc
                            .edge_range(v)
                            .fold(0, |acc, e| acc | lanes[csc.sources()[e] as usize]);
                        assert_eq!(built.get(v), want, "K={k} stride={stride} {repr} v={v}");
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
