//! The traversal planner: one place that turns frontier statistics into
//! (kernel, output-representation) decisions and splits the planned work
//! into edge-balanced, schedulable chunks.
//!
//! * [`classify`] is the single Algorithm 2 classifier (`|F| + Σ deg_out(F)`
//!   against `|E| / 2` and `|E| / 20`).
//! * [`plan_edge_map`] is the monolithic planning entry point: one
//!   [`EdgeKind`] per edge map from the global frontier metric.
//! * [`plan_partitions`] is the partitioned planning entry point: for every
//!   non-empty partition, a [`PartStep`] pairing the locally decided kernel
//!   with the locally decided **output representation** — a sorted sparse
//!   vertex list for sparse-kernel partitions, a range-aligned dense bitmap
//!   segment for dense-kernel partitions (overridable by
//!   [`OutputMode`]). Under [`OutputMode::Auto`] a dense-kernel partition
//!   with a *provably small* output — bounded by the count of its
//!   destinations with any in-edge, [`PartitionView::distinct_dsts`] —
//!   still emits a sorted list
//!   (see [`output_for`]). A whole round of sparse steps therefore merges
//!   in `O(output)` with no `O(|V| / 64)` dense-bitmap floor.
//! * [`resolve_cap`] turns the configured
//!   [`ChunkCap`] policy into a concrete
//!   per-partition edge cap: `Fixed(n)` passes through, `Auto` derives
//!   `max(MIN_CHUNK_EDGES, |E_partition| / (CHUNK_OVERSUBSCRIPTION ·
//!   threads))` clamped to the partition's own edge count, so every heavy
//!   partition splits into roughly `CHUNK_OVERSUBSCRIPTION × threads`
//!   claimable chunks regardless of graph scale while near-empty
//!   partitions plan a single chunk.
//! * [`chunk_dense_range`] / [`chunk_candidates`] split one planned
//!   partition's work into **edge-balanced chunks** capped by the resolved
//!   cap: a dense kernel's destination range splits at CSC-offset
//!   boundaries, a sparse kernel's candidate list splits into slices, both
//!   greedily closing a chunk as soon as it reaches the cap. A
//!   **mega-hub** destination whose in-degree alone exceeds the cap may be
//!   split further: its in-edge scan becomes several *sub-chunks*
//!   ([`Chunk::sub`]), each scanning a slice of the hub's CSC adjacency
//!   and emitting a partial accumulator that the executor reduces in
//!   ascending `(partition, chunk, sub-chunk)` order (see
//!   [`partitioned`](crate::partitioned)). Whether a hub splits is the
//!   [`HubSplit`] policy's call: `Fixed` caps split every over-cap hub
//!   unconditionally (every chunk then carries fewer than
//!   `cap + min(max_degree, cap)` edges), while the `Auto` cap uses a
//!   **cost model** — split only when the predicted imbalance (in-degree
//!   minus cap) exceeds the per-chunk scheduling overhead
//!   [`HUB_SPLIT_OVERHEAD_EDGES`], so balanced graphs are not shredded
//!   into overhead-dominated sub-chunks for a balance win that cannot pay
//!   for itself.
//!
//! The planner is deterministic and pool-free: decisions (and chunk
//! boundaries) depend only on the frontier statistics and the static
//! partition metadata, never on scheduling, so the executor's bit-identity
//! contract extends to the plan itself (`tests/contract.rs` replays every
//! configuration's recorded plans against a one-thread recording).

use gg_graph::types::{EdgeId, VertexId};

use crate::config::{ChunkCap, OutputMode, Thresholds};
use crate::edge_map::EdgeKind;
use crate::frontier::{Frontier, LaneWord};
use crate::partitioned::{PartKernel, PartitionView};

/// Physical representation a partition's next-frontier output buffer uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutputRepr {
    /// Sorted vertex list, merged by partition-order concatenation.
    Sparse,
    /// Range-aligned dense bitmap segment, merged by word-level splicing.
    Dense,
}

/// One partition's planned work for one edge map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartStep {
    /// Partition index in the engine's `PartitionSet`.
    pub partition: usize,
    /// Locally selected traversal kernel.
    pub kernel: PartKernel,
    /// Locally selected output representation.
    pub output: OutputRepr,
}

/// The planner's product for one partitioned edge map: per-partition steps
/// in pool submission (partition index) order, plus the selection tallies
/// recorded into `KernelCounts`.
#[derive(Clone, Debug, Default)]
pub struct TraversalPlan {
    /// Steps in submission order (empty partitions never appear).
    pub steps: Vec<PartStep>,
}

impl TraversalPlan {
    /// `(sparse, dense)` kernel selections in this plan.
    pub fn kernel_tally(&self) -> (u64, u64) {
        let sparse = self
            .steps
            .iter()
            .filter(|s| s.kernel == PartKernel::Sparse)
            .count() as u64;
        (sparse, self.steps.len() as u64 - sparse)
    }

    /// `(sparse, dense)` output-representation selections in this plan.
    pub fn output_tally(&self) -> (u64, u64) {
        let sparse = self
            .steps
            .iter()
            .filter(|s| s.output == OutputRepr::Sparse)
            .count() as u64;
        (sparse, self.steps.len() as u64 - sparse)
    }
}

/// Algorithm 2's classification: compares `metric = |F| + Σ deg_out(F)`
/// against `|E| / dense_divisor` and `|E| / sparse_divisor`. The single
/// classifier behind every decision in the engine.
pub fn classify(metric: u64, num_edges: u64, th: &Thresholds) -> EdgeKind {
    if metric > num_edges / th.dense_divisor {
        EdgeKind::Dense
    } else if metric > num_edges / th.sparse_divisor {
        EdgeKind::Medium
    } else {
        EdgeKind::Sparse
    }
}

/// Monolithic planning: one kernel per edge map from the global frontier
/// density (Algorithm 2 as published).
pub fn plan_edge_map<W: LaneWord>(
    frontier: &Frontier<W>,
    num_edges: u64,
    th: &Thresholds,
) -> EdgeKind {
    classify(frontier.density_metric(), num_edges, th)
}

/// The output representation for a partition that selected `kernel`, under
/// `mode`, given a proof that the partition can activate at most
/// `est_outputs` destinations out of a range of `range_len`.
///
/// The `Auto` rule follows the kernel — a sparse-kernel partition's output
/// is bounded by the frontier's footprint in the partition, so a sorted
/// list keeps the merge output-proportional; a dense-kernel partition
/// already scans its whole range, so a range-aligned segment adds only
/// `O(range / 64)` to work that is `O(range)` anyway — **except** when the
/// output is provably small: `est_outputs` (the number of range
/// destinations with any in-edge) bounds the output for *every* frontier,
/// so when the sorted list cannot outgrow the segment's word count
/// (`est_outputs ≤ range_len / 64`, division so huge estimates cannot
/// saturate into looking small) even a dense-kernel partition emits a
/// list and keeps the merge off the dense floor.
pub fn output_for(
    kernel: PartKernel,
    mode: OutputMode,
    est_outputs: u64,
    range_len: u64,
) -> OutputRepr {
    match mode {
        OutputMode::ForceSparse => OutputRepr::Sparse,
        OutputMode::ForceDense => OutputRepr::Dense,
        OutputMode::Auto => match kernel {
            PartKernel::Sparse => OutputRepr::Sparse,
            PartKernel::Dense if est_outputs <= range_len / 64 => OutputRepr::Sparse,
            PartKernel::Dense => OutputRepr::Dense,
        },
    }
}

/// Partitioned planning: classify the frontier *locally* per partition
/// (`|F ∩ R_p| + Σ deg_out(F ∩ R_p)` against the partition's own edge
/// count) and pair each kernel with an output representation. `order` is
/// the submission order — the partitions with edges, ascending; the
/// returned steps preserve it. An all-active frontier's
/// statistics are static — `(|R_p|, `[`PartitionView::out_degree_sum`]`)` —
/// so a full round walks no bitmap.
pub fn plan_partitions<W: LaneWord>(
    frontier: &Frontier<W>,
    views: &[PartitionView],
    order: &[usize],
    out_degrees: &[u32],
    th: &Thresholds,
    mode: OutputMode,
) -> TraversalPlan {
    let all_active = frontier.len() == frontier.universe();
    let steps = order
        .iter()
        .map(|&p| {
            let view = &views[p];
            let (count, degree_sum) = if all_active {
                (view.dst_range.len(), view.out_degree_sum)
            } else {
                frontier.range_stats(view.dst_range.clone(), out_degrees)
            };
            let metric = count as u64 + degree_sum;
            let kernel = match classify(metric, view.num_edges, th) {
                EdgeKind::Sparse => PartKernel::Sparse,
                EdgeKind::Medium | EdgeKind::Dense => PartKernel::Dense,
            };
            PartStep {
                partition: p,
                kernel,
                output: output_for(
                    kernel,
                    mode,
                    view.distinct_dsts,
                    view.dst_range.len() as u64,
                ),
            }
        })
        .collect();
    TraversalPlan { steps }
}

/// Minimum adaptive chunk cap: below this, per-chunk scheduling overhead
/// dominates the work the chunk carries.
pub const MIN_CHUNK_EDGES: usize = 64;

/// How many chunks per thread the adaptive cap aims for within one planned
/// partition: enough slack to keep every worker fed on a skewed plan, few
/// enough that per-chunk overhead stays noise. Two per thread rather than
/// the classic 4–8× oversubscription because mega-hub splitting — not
/// fine chunking — is what rebalances skew here: on the star-hub
/// powerlaw scenario (`gg_bench::datasets::powerlaw_scenario`) the 8×
/// schedule's extra chunks cost wall-clock without improving balance
/// beyond what the hub split (and its cost model) already bought.
pub const CHUNK_OVERSUBSCRIPTION: usize = 2;

/// Per-chunk scheduling overhead expressed in edge-scan-equivalents: the
/// cost of claiming and merging one extra chunk is taken to be roughly
/// what scanning this many CSC edges costs. The value was calibrated
/// against the deleted deque dispatch (one no-op chunk through it cost as
/// much as ≈4k edges of a PR-style indexed gather on the reference host)
/// and is deliberately unchanged: re-calibrating against the cursor claim
/// changes which hubs split, i.e. changes plans, and must be its own PR
/// with its own chunk-count baseline.
///
/// The [`HubSplit::CostModel`] policy splits a hub only when the
/// *imbalance* it causes — its in-degree above the cap, i.e. how far the
/// top chunk would sit above the per-chunk mean — exceeds this constant.
/// Splitting a hub that is barely over the cap buys balance worth less
/// than the sub-chunk scheduling it costs.
///
/// Its second use is the partitioned executor's **inline floor**: a round
/// whose frontier metric `|F| + Σ deg_out(F)` — the edges its discovery
/// walks — is at most this constant, and whose plan is all `(Sparse,
/// Sparse)`, costs less than dispatching even one chunk, so it runs on the
/// dispatcher as one chunk with no per-partition work and no epoch (see
/// [`partitioned`](crate::partitioned)). Re-calibrating the constant moves
/// that floor too; a floor move changes chunk tallies, not plans or
/// results.
pub const HUB_SPLIT_OVERHEAD_EDGES: u64 = 4096;

/// When to split a mega-hub destination (in-degree > cap) into sub-chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HubSplit {
    /// Split every over-cap hub unconditionally — the policy for
    /// [`ChunkCap::Fixed`], where the cap is an explicit bound the caller
    /// asked the schedule to respect.
    Always,
    /// Split only when the predicted imbalance (hub in-degree minus the
    /// cap) exceeds [`HUB_SPLIT_OVERHEAD_EDGES`] — the policy for
    /// [`ChunkCap::Auto`], where the cap is a balance heuristic and
    /// over-splitting costs wall-clock. An unsplit hub still gets a chunk
    /// of its own.
    CostModel,
}

impl HubSplit {
    /// The policy a [`ChunkCap`] implies.
    pub fn for_cap(cap: ChunkCap) -> Self {
        match cap {
            ChunkCap::Fixed(_) => HubSplit::Always,
            ChunkCap::Auto => HubSplit::CostModel,
        }
    }

    /// Whether a destination of weight `w` should split under cap `cap`.
    #[inline]
    fn splits(self, w: u64, cap: u64) -> bool {
        w > cap
            && match self {
                HubSplit::Always => true,
                HubSplit::CostModel => w - cap > HUB_SPLIT_OVERHEAD_EDGES,
            }
    }
}

/// Resolves the configured [`ChunkCap`] policy into a concrete edge cap
/// for one planned partition: `Fixed(n)` passes through, `Auto` derives
/// `max(MIN_CHUNK_EDGES, partition_edges / (CHUNK_OVERSUBSCRIPTION ·
/// threads))`, clamped to the partition's own edge count so a near-empty
/// partition plans a single chunk instead of inheriting the global floor.
/// The result depends only on static partition metadata and the
/// configured thread count, so the plan stays deterministic.
pub fn resolve_cap(cap: ChunkCap, partition_edges: u64, threads: usize) -> usize {
    match cap {
        ChunkCap::Fixed(n) => n.max(1),
        ChunkCap::Auto => {
            let denom = (CHUNK_OVERSUBSCRIPTION * threads.max(1)) as u64;
            let derived = (partition_edges / denom)
                .max(MIN_CHUNK_EDGES as u64)
                .min(partition_edges.max(1));
            usize::try_from(derived).unwrap_or(usize::MAX)
        }
    }
}

/// The sub-chunk descriptor of a mega-hub split: which slice of the single
/// destination's CSC in-edge scan this chunk covers, as offsets **within**
/// that destination's adjacency list (`0..in_degree`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubSpan {
    /// First in-edge offset (inclusive) of the slice.
    pub lo: u64,
    /// One past the last in-edge offset of the slice.
    pub hi: u64,
}

/// One edge-balanced schedulable unit of a planned partition: either a
/// contiguous destination sub-range (dense kernel) or a slice of the
/// partition's sorted candidate list (sparse kernel), plus its planned CSC
/// edge count. A mega-hub sub-chunk covers a *single* destination
/// (`span.len() == 1`) with [`sub`](Self::sub) naming the slice of that
/// destination's in-edge scan it owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Dense kernel: the destination sub-range. Sparse kernel: the
    /// candidate-list index span (`candidates[span]` are the destinations).
    pub span: std::ops::Range<usize>,
    /// Planned CSC edge count of the chunk (sum of in-degrees of its
    /// destinations; for a sub-chunk, the slice length).
    pub edges: u64,
    /// `Some` when this chunk is one slice of a mega-hub destination's
    /// in-edge scan. Sub-chunks of one destination are emitted
    /// consecutively in ascending slice order and tile `0..in_degree`
    /// exactly.
    pub sub: Option<SubSpan>,
}

/// Greedy edge-balanced splitter shared by both chunk shapes: walk `items`,
/// accumulating `weight(item)`, and close a chunk as soon as the
/// accumulated weight reaches `cap`. An item whose weight *alone* exceeds
/// the cap (a mega-hub destination) is split into sub-chunks of at most
/// `cap` edges each ([`Chunk::sub`]), emitted in ascending slice order —
/// when the `hub_split` policy says splitting pays; otherwise the hub
/// becomes a single over-cap chunk of its own. Under [`HubSplit::Always`]
/// every chunk carries fewer than `cap + min(max_degree, cap)` edges; under
/// [`HubSplit::CostModel`] an unsplit hub may carry up to
/// `cap + HUB_SPLIT_OVERHEAD_EDGES`. Either way the chunks (with their
/// sub-slices) tile `items` exactly, so chunking can never change which
/// destinations run or which edges are scanned — only how the scans are
/// scheduled.
fn chunk_by_weight(
    len: usize,
    cap: usize,
    hub_split: HubSplit,
    weight: impl Fn(usize) -> u64,
) -> Vec<Chunk> {
    let cap = cap.max(1) as u64;
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..len {
        let w = weight(i);
        if w > cap {
            // Mega-hub: close the open chunk, then slice this item's scan
            // (or, when the cost model says splitting doesn't pay, give the
            // hub one over-cap chunk of its own).
            if start < i {
                chunks.push(Chunk {
                    span: start..i,
                    edges: acc,
                    sub: None,
                });
            }
            if hub_split.splits(w, cap) {
                let mut lo = 0u64;
                while lo < w {
                    let hi = (lo + cap).min(w);
                    chunks.push(Chunk {
                        span: i..i + 1,
                        edges: hi - lo,
                        sub: Some(SubSpan { lo, hi }),
                    });
                    lo = hi;
                }
            } else {
                chunks.push(Chunk {
                    span: i..i + 1,
                    edges: w,
                    sub: None,
                });
            }
            start = i + 1;
            acc = 0;
            continue;
        }
        acc += w;
        if acc >= cap {
            chunks.push(Chunk {
                span: start..i + 1,
                edges: acc,
                sub: None,
            });
            start = i + 1;
            acc = 0;
        }
    }
    if start < len {
        chunks.push(Chunk {
            span: start..len,
            edges: acc,
            sub: None,
        });
    }
    chunks
}

/// Splits a dense kernel's destination range into CSC-offset-balanced
/// sub-ranges of fewer than `cap + min(max_degree, cap)` edges each
/// (mega-hub destinations split into per-scan sub-chunks, see
/// [`Chunk::sub`], subject to the `hub_split` policy). `offsets` is the
/// whole-graph CSC offset array; the returned spans are **global vertex
/// ranges** tiling `range` exactly. With `cap == usize::MAX` the whole
/// range is one chunk.
pub fn chunk_dense_range(
    offsets: &[EdgeId],
    range: std::ops::Range<VertexId>,
    cap: usize,
    hub_split: HubSplit,
) -> Vec<Chunk> {
    let (start, end) = (range.start as usize, range.end as usize);
    if start >= end {
        return Vec::new();
    }
    if cap == usize::MAX {
        return vec![Chunk {
            span: start..end,
            edges: (offsets[end] - offsets[start]) as u64,
            sub: None,
        }];
    }
    let mut chunks = chunk_by_weight(end - start, cap, hub_split, |i| {
        (offsets[start + i + 1] - offsets[start + i]) as u64
    });
    for c in &mut chunks {
        c.span = c.span.start + start..c.span.end + start;
    }
    chunks
}

/// Splits a sparse kernel's sorted candidate list into edge-balanced
/// slices of fewer than `cap + min(max_degree, cap)` edges each (mega-hub
/// candidates split into per-scan sub-chunks, see [`Chunk::sub`], subject
/// to the `hub_split` policy), weighting every candidate by its
/// whole-graph CSC in-degree (the pull kernel scans the full in-adjacency
/// of each candidate). The returned spans are **index ranges into
/// `candidates`** tiling the list exactly.
pub fn chunk_candidates(
    candidates: &[VertexId],
    offsets: &[EdgeId],
    cap: usize,
    hub_split: HubSplit,
) -> Vec<Chunk> {
    if candidates.is_empty() {
        return Vec::new();
    }
    if cap == usize::MAX {
        let edges = candidates
            .iter()
            .map(|&v| (offsets[v as usize + 1] - offsets[v as usize]) as u64)
            .sum();
        return vec![Chunk {
            span: 0..candidates.len(),
            edges,
            sub: None,
        }];
    }
    chunk_by_weight(candidates.len(), cap, hub_split, |i| {
        let v = candidates[i] as usize;
        (offsets[v + 1] - offsets[v]) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::partitioned::PartitionedExec;
    use crate::store::GraphStore;

    #[test]
    fn classify_uses_paper_thresholds() {
        let th = Thresholds::default();
        assert_eq!(classify(5, 100, &th), EdgeKind::Sparse);
        assert_eq!(classify(6, 100, &th), EdgeKind::Medium);
        assert_eq!(classify(50, 100, &th), EdgeKind::Medium);
        assert_eq!(classify(51, 100, &th), EdgeKind::Dense);
    }

    #[test]
    fn output_follows_kernel_under_auto_and_obeys_forces() {
        // A large estimate relative to the range: the pre-estimate rules.
        let (est, len) = (100, 100);
        for kernel in [PartKernel::Sparse, PartKernel::Dense] {
            assert_eq!(
                output_for(kernel, OutputMode::ForceSparse, est, len),
                OutputRepr::Sparse
            );
            assert_eq!(
                output_for(kernel, OutputMode::ForceDense, est, len),
                OutputRepr::Dense
            );
        }
        assert_eq!(
            output_for(PartKernel::Sparse, OutputMode::Auto, est, len),
            OutputRepr::Sparse
        );
        assert_eq!(
            output_for(PartKernel::Dense, OutputMode::Auto, est, len),
            OutputRepr::Dense
        );
    }

    /// The distinct-destination estimate: a dense-kernel partition whose
    /// provable output bound is tiny relative to its range emits a sorted
    /// list under `Auto` — but forces still win, and a large estimate
    /// leaves the kernel-following rule intact.
    #[test]
    fn provably_small_outputs_go_sparse_under_auto() {
        // 2 candidate destinations over a 1000-vertex range: 2*64 ≤ 1000.
        assert_eq!(
            output_for(PartKernel::Dense, OutputMode::Auto, 2, 1000),
            OutputRepr::Sparse
        );
        // Boundary: est * 64 == range_len still counts as provably small.
        assert_eq!(
            output_for(PartKernel::Dense, OutputMode::Auto, 2, 128),
            OutputRepr::Sparse
        );
        assert_eq!(
            output_for(PartKernel::Dense, OutputMode::Auto, 2, 127),
            OutputRepr::Dense
        );
        // Forces override the estimate.
        assert_eq!(
            output_for(PartKernel::Dense, OutputMode::ForceDense, 2, 1000),
            OutputRepr::Dense
        );
        // No overflow on huge estimates.
        assert_eq!(
            output_for(PartKernel::Dense, OutputMode::Auto, u64::MAX, u64::MAX),
            OutputRepr::Dense
        );
    }

    #[test]
    fn dense_chunks_tile_the_range_and_respect_the_cap() {
        // Degrees: vertex i has in-degree i % 5 over 40 vertices.
        let mut offsets = vec![0usize];
        for i in 0..40usize {
            offsets.push(offsets[i] + i % 5);
        }
        let total = (offsets[35] - offsets[3]) as u64;
        let chunks = chunk_dense_range(&offsets, 3..35, 6, HubSplit::Always);
        assert!(chunks.len() > 1, "the cap must split this range");
        // Tile exactly.
        assert_eq!(chunks[0].span.start, 3);
        assert_eq!(chunks.last().unwrap().span.end, 35);
        for w in chunks.windows(2) {
            assert_eq!(w[0].span.end, w[1].span.start);
        }
        assert_eq!(chunks.iter().map(|c| c.edges).sum::<u64>(), total);
        // Edge counts match the offsets, and the cap + max-degree bound
        // holds (max in-degree here is 4).
        for c in &chunks {
            assert_eq!(
                c.edges,
                (offsets[c.span.end] - offsets[c.span.start]) as u64
            );
            assert!(c.edges <= 6 + 4, "chunk {c:?} exceeds cap + max degree");
        }
        // Unbounded: one chunk, whole range.
        let whole = chunk_dense_range(&offsets, 3..35, usize::MAX, HubSplit::Always);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].span, 3..35);
        assert_eq!(whole[0].edges, total);
        // Empty range: no chunks.
        assert!(chunk_dense_range(&offsets, 7..7, 6, HubSplit::Always).is_empty());
        // Cap 1: degrees > 1 become mega-hub sub-chunks of exactly 1 edge.
        for c in chunk_dense_range(&offsets, 3..35, 1, HubSplit::Always) {
            assert!(c.edges <= 1);
            if c.sub.is_some() {
                assert_eq!(c.span.len(), 1);
            }
        }
    }

    /// The adaptive cap: fixed passes through, auto derives
    /// `|E_p| / (k · threads)` floored at `MIN_CHUNK_EDGES` and clamped to
    /// the partition's own edge count.
    #[test]
    fn resolve_cap_derives_from_partition_edges_and_threads() {
        assert_eq!(resolve_cap(ChunkCap::Fixed(7), 1_000_000, 4), 7);
        assert_eq!(resolve_cap(ChunkCap::Fixed(usize::MAX), 10, 4), usize::MAX);
        // 1M edges / (2 · 4 threads) = 125000.
        assert_eq!(resolve_cap(ChunkCap::Auto, 1_000_000, 4), 125_000);
        // Small partitions floor at the minimum cap — up to their own
        // edge count, so one chunk covers the whole partition.
        assert_eq!(
            resolve_cap(ChunkCap::Auto, 100, 4),
            MIN_CHUNK_EDGES,
            "tiny partitions must not produce overhead-dominated chunks"
        );
        // The floor is clamped to the partition's edge count: a partition
        // below MIN_CHUNK_EDGES plans exactly one chunk, never several.
        assert_eq!(
            resolve_cap(ChunkCap::Auto, 63, 1),
            63,
            "the floor must not exceed the partition's own edges"
        );
        assert_eq!(resolve_cap(ChunkCap::Auto, 64, 1), 64);
        assert_eq!(resolve_cap(ChunkCap::Auto, 1, 4), 1);
        // Empty partitions still get a non-zero cap.
        assert_eq!(resolve_cap(ChunkCap::Auto, 0, 1), 1);
        // Degenerate thread counts are clamped to 1: 640 / (2 · 1) = 320.
        assert_eq!(resolve_cap(ChunkCap::Auto, 640, 0), 320);
        assert_eq!(resolve_cap(ChunkCap::Fixed(0), 640, 1), 1);
    }

    /// The hub-split cost model: `Fixed` caps split every over-cap hub;
    /// the `Auto` policy splits only hubs whose imbalance over the cap
    /// exceeds the per-chunk overhead constant — a hub barely above the
    /// cap stays whole, in a chunk of its own.
    #[test]
    fn cost_model_leaves_marginal_hubs_unsplit() {
        assert_eq!(HubSplit::for_cap(ChunkCap::Fixed(64)), HubSplit::Always);
        assert_eq!(HubSplit::for_cap(ChunkCap::Auto), HubSplit::CostModel);

        // Degree-100 hub at vertex 2, cap 64: over the cap by 36, far
        // below HUB_SPLIT_OVERHEAD_EDGES.
        let mut offsets = vec![0usize];
        for i in 0..6usize {
            let d = if i == 2 { 100 } else { 8 };
            offsets.push(offsets[i] + d);
        }
        let split = chunk_dense_range(&offsets, 0..6, 64, HubSplit::Always);
        assert!(
            split.iter().any(|c| c.sub.is_some()),
            "fixed caps must keep unconditional splitting"
        );
        let unsplit = chunk_dense_range(&offsets, 0..6, 64, HubSplit::CostModel);
        assert!(
            unsplit.iter().all(|c| c.sub.is_none()),
            "a marginal hub must not split under the cost model"
        );
        // The unsplit hub is isolated in its own chunk, so it can still be
        // stolen independently of its neighbours.
        let hub = unsplit.iter().find(|c| c.span.contains(&2)).unwrap();
        assert_eq!(hub.span, 2..3);
        assert_eq!(hub.edges, 100);
        // Coverage is unchanged either way.
        let total = offsets[6] as u64;
        assert_eq!(split.iter().map(|c| c.edges).sum::<u64>(), total);
        assert_eq!(unsplit.iter().map(|c| c.edges).sum::<u64>(), total);

        // A hub whose excess clears the overhead constant splits even
        // under the cost model.
        let mut big = vec![0usize];
        let hub_deg = 64 + HUB_SPLIT_OVERHEAD_EDGES as usize + 1;
        for i in 0..3usize {
            let d = if i == 1 { hub_deg } else { 8 };
            big.push(big[i] + d);
        }
        assert!(
            chunk_dense_range(&big, 0..3, 64, HubSplit::CostModel)
                .iter()
                .any(|c| c.sub.is_some()),
            "an imbalance above the overhead constant must split"
        );
        // Candidate-list chunking obeys the same policy.
        let cands: Vec<VertexId> = vec![0, 2, 4];
        assert!(chunk_candidates(&cands, &offsets, 64, HubSplit::CostModel)
            .iter()
            .all(|c| c.sub.is_none()));
    }

    /// A mega-hub destination (in-degree ≫ cap) splits into sub-chunks of
    /// at most `cap` edges that tile its in-edge scan exactly, emitted in
    /// ascending slice order between the ordinary chunks around it.
    #[test]
    fn mega_hub_destination_splits_into_subchunks() {
        // Vertices 0..10 with degree 2 each, vertex 10 a hub of degree
        // 100, vertices 11..20 with degree 2 again.
        let mut offsets = vec![0usize];
        for i in 0..20usize {
            let d = if i == 10 { 100 } else { 2 };
            offsets.push(offsets[i] + d);
        }
        let cap = 8usize;
        let chunks = chunk_dense_range(&offsets, 0..20, cap, HubSplit::Always);
        let total = offsets[20] as u64;
        assert_eq!(chunks.iter().map(|c| c.edges).sum::<u64>(), total);
        // Every chunk respects the hub-split bound (< 2 · cap).
        for c in &chunks {
            assert!(c.edges < 2 * cap as u64, "chunk {c:?} exceeds 2 x cap");
        }
        // The hub produced ceil(100 / 8) = 13 consecutive sub-chunks
        // tiling 0..100.
        let subs: Vec<&Chunk> = chunks.iter().filter(|c| c.sub.is_some()).collect();
        assert_eq!(subs.len(), 13);
        let mut cursor = 0u64;
        for s in &subs {
            assert_eq!(s.span, 10..11, "sub-chunks cover only the hub");
            let sub = s.sub.as_ref().unwrap();
            assert_eq!(sub.lo, cursor, "sub-chunks must tile the scan");
            assert!(sub.hi > sub.lo && sub.hi - sub.lo <= cap as u64);
            assert_eq!(s.edges, sub.hi - sub.lo);
            cursor = sub.hi;
        }
        assert_eq!(cursor, 100);
        // Non-hub chunks still tile the remaining destinations.
        let spans: Vec<_> = chunks
            .iter()
            .filter(|c| c.sub.is_none())
            .map(|c| c.span.clone())
            .collect();
        assert!(spans.iter().all(|s| !s.contains(&10)));
        // max chunk edges dropped below the hub's degree — the
        // load-balance acceptance check in miniature.
        let max = chunks.iter().map(|c| c.edges).max().unwrap();
        assert!(max < 100, "hub splitting must beat the hub degree: {max}");
    }

    /// Candidate-list chunking splits hub candidates the same way.
    #[test]
    fn mega_hub_candidate_splits_into_subchunks() {
        let mut offsets = vec![0usize];
        for i in 0..12usize {
            let d = if i == 5 { 40 } else { 3 };
            offsets.push(offsets[i] + d);
        }
        let candidates: Vec<VertexId> = vec![1, 5, 9];
        let chunks = chunk_candidates(&candidates, &offsets, 10, HubSplit::Always);
        assert_eq!(chunks.iter().map(|c| c.edges).sum::<u64>(), 3 + 40 + 3);
        let subs: Vec<&Chunk> = chunks.iter().filter(|c| c.sub.is_some()).collect();
        assert_eq!(subs.len(), 4, "40-edge hub at cap 10 → 4 sub-chunks");
        for s in &subs {
            assert_eq!(s.span, 1..2, "the hub is candidate index 1");
        }
        // Unbounded cap never splits.
        assert!(
            chunk_candidates(&candidates, &offsets, usize::MAX, HubSplit::Always)
                .iter()
                .all(|c| c.sub.is_none())
        );
    }

    #[test]
    fn candidate_chunks_tile_the_list_and_respect_the_cap() {
        let mut offsets = vec![0usize];
        for i in 0..50usize {
            offsets.push(offsets[i] + (i % 7));
        }
        let candidates: Vec<VertexId> = (0..50).step_by(3).collect();
        let deg = |v: VertexId| (offsets[v as usize + 1] - offsets[v as usize]) as u64;
        let total: u64 = candidates.iter().map(|&v| deg(v)).sum();
        let chunks = chunk_candidates(&candidates, &offsets, 8, HubSplit::Always);
        assert!(chunks.len() > 1);
        assert_eq!(chunks[0].span.start, 0);
        assert_eq!(chunks.last().unwrap().span.end, candidates.len());
        for w in chunks.windows(2) {
            assert_eq!(w[0].span.end, w[1].span.start);
        }
        assert_eq!(chunks.iter().map(|c| c.edges).sum::<u64>(), total);
        for c in &chunks {
            let want: u64 = candidates[c.span.clone()].iter().map(|&v| deg(v)).sum();
            assert_eq!(c.edges, want);
            assert!(c.edges <= 8 + 6, "chunk {c:?} exceeds cap + max degree");
        }
        // Unbounded and empty cases.
        let whole = chunk_candidates(&candidates, &offsets, usize::MAX, HubSplit::Always);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].span, 0..candidates.len());
        assert_eq!(whole[0].edges, total);
        assert!(chunk_candidates(&[], &offsets, 8, HubSplit::Always).is_empty());
    }

    /// A dense block plus a sparse tail: with the block active, the plan
    /// must mix kernels *and* output representations in one edge map.
    #[test]
    fn skewed_frontier_produces_a_mixed_plan() {
        let mut el = gg_graph::edge_list::EdgeList::new(64);
        for i in 0..16u32 {
            for j in 0..16u32 {
                if i != j {
                    el.push(i, j);
                }
            }
        }
        for i in 16..63u32 {
            el.push(i, i + 1);
        }
        let config = Config {
            num_partitions: 4,
            domains: 1,
            ..Config::for_tests()
        };
        let store = GraphStore::build(&el, &config);
        let exec = PartitionedExec::new(&store);
        let views = exec.views();
        let order: Vec<usize> = (0..views.len())
            .filter(|&p| views[p].num_edges > 0)
            .collect();
        let frontier = Frontier::from_sparse((0..8).collect(), 64, store.out_degrees());
        let plan = plan_partitions(
            &frontier,
            views,
            &order,
            store.out_degrees(),
            &config.thresholds,
            OutputMode::Auto,
        );
        let (ks, kd) = plan.kernel_tally();
        let (os, od) = plan.output_tally();
        assert!(ks >= 1 && kd >= 1, "kernels must mix: {ks}/{kd}");
        assert!(os >= 1 && od >= 1, "outputs must mix: {os}/{od}");
        assert_eq!(ks + kd, plan.steps.len() as u64);
        // Deterministic: planning twice yields the same steps.
        let again = plan_partitions(
            &frontier,
            views,
            &order,
            store.out_degrees(),
            &config.thresholds,
            OutputMode::Auto,
        );
        assert_eq!(plan.steps, again.steps);
    }

    /// The plan `plan_partitions` makes from the frontier's walked
    /// per-partition statistics, for any frontier.
    fn walked_plan(
        frontier: &Frontier,
        views: &[PartitionView],
        order: &[usize],
        out_degrees: &[u32],
        th: &Thresholds,
    ) -> Vec<PartStep> {
        let step = |p: usize| {
            let view = &views[p];
            let (count, sum) = frontier.range_stats(view.dst_range.clone(), out_degrees);
            let kernel = match classify(count as u64 + sum, view.num_edges, th) {
                EdgeKind::Sparse => PartKernel::Sparse,
                EdgeKind::Medium | EdgeKind::Dense => PartKernel::Dense,
            };
            let len = view.dst_range.len() as u64;
            PartStep {
                partition: p,
                kernel,
                output: output_for(kernel, OutputMode::Auto, view.distinct_dsts, len),
            }
        };
        order.iter().map(|&p| step(p)).collect()
    }

    /// Every view's `out_degree_sum` is the walked degree sum of the full
    /// frontier over its range, and the static all-active plan is the
    /// walked plan — for the full bitmap and for a list of all `n`
    /// vertices, at one, sixteen and 384 partitions, on graphs with empty
    /// partitions, and under thresholds that plan some partitions sparse.
    #[test]
    fn the_static_full_frontier_plan_is_the_walked_plan() {
        use gg_graph::generators::{grid_road, rmat, RmatParams};
        let mut isolated = gg_graph::edge_list::EdgeList::new(200);
        for v in 0..20 {
            isolated.push(v, (v + 1) % 20);
        }
        let graphs = [
            ("rmat", rmat(10, 9000, RmatParams::skewed(), 3)),
            ("grid", grid_road(30, 30, 0.05, 2)),
            ("isolated", isolated),
            (
                "triangle",
                gg_graph::edge_list::EdgeList::from_edges(3, &[(0, 1), (1, 2), (2, 0)]),
            ),
        ];
        let thresholds = [
            Thresholds::default(),
            Thresholds {
                dense_divisor: 1,
                sparse_divisor: 1,
            },
        ];
        let mut sparse_steps = 0;
        for (name, el) in &graphs {
            let n = el.num_vertices();
            for parts in [1, 16, 384] {
                let config = Config {
                    num_partitions: parts,
                    domains: 1,
                    ..Config::for_tests()
                };
                let store = GraphStore::build(el, &config);
                let exec = PartitionedExec::new(&store);
                let (views, degrees) = (exec.views(), store.out_degrees());
                let order: Vec<usize> = (0..views.len())
                    .filter(|&p| views[p].num_edges > 0)
                    .collect();
                let full = Frontier::all(n, store.num_edges() as u64);
                let list = Frontier::from_sparse((0..n as VertexId).collect(), n, degrees);
                assert!(list.is_sparse_repr() && list.len() == n);
                for view in views {
                    let walked = full.range_stats(view.dst_range.clone(), degrees).1;
                    assert_eq!(
                        view.out_degree_sum, walked,
                        "{name} P={parts} p={}",
                        view.index
                    );
                }
                for th in &thresholds {
                    let want = walked_plan(&full, views, &order, degrees, th);
                    sparse_steps += want
                        .iter()
                        .filter(|s| s.kernel == PartKernel::Sparse)
                        .count();
                    for frontier in [&full, &list] {
                        let got =
                            plan_partitions(frontier, views, &order, degrees, th, OutputMode::Auto);
                        assert_eq!(got.steps, want, "{name} P={parts} {th:?}");
                    }
                }
            }
        }
        assert!(sparse_steps > 0, "some full-frontier step must plan sparse");
    }

    /// A fused frontier's cached statistics are its union's: `len`,
    /// `degree_sum`, `density_metric` and every partition's `range_stats`
    /// equal those of [`Frontier::from_sparse`] over its union vertex list,
    /// in sparse and in dense form, so `plan_edge_map` and
    /// `plan_partitions` plan it exactly as they plan that list.
    #[test]
    fn a_fused_frontier_plans_as_its_union() {
        use crate::frontier::PartitionOutput;
        use gg_graph::generators::{rmat, RmatParams};
        use gg_runtime::counters::WorkCounters;
        let el = rmat(9, 4000, RmatParams::skewed(), 5);
        let (n, m) = (el.num_vertices(), el.num_edges() as u64);
        let config = Config {
            num_partitions: 7,
            domains: 1,
            ..Config::for_tests()
        };
        let store = GraphStore::build(&el, &config);
        let exec = PartitionedExec::new(&store);
        let (views, degrees, th) = (exec.views(), store.out_degrees(), &config.thresholds);
        let order: Vec<usize> = (0..views.len())
            .filter(|&p| views[p].num_edges > 0)
            .collect();
        let counters = WorkCounters::new();
        // Every vertex (the static all-active plan), a third, a sprinkle.
        for stride in [1, 3, 40] {
            let words: Vec<(VertexId, u64)> = (0..n as VertexId)
                .step_by(stride)
                .map(|v| (v, (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
                .collect();
            let list = words.iter().map(|&(v, _)| v).collect();
            let union = Frontier::from_sparse(list, n, degrees);
            for repr in [OutputRepr::Sparse, OutputRepr::Dense] {
                let mut out = PartitionOutput::new(repr, 0..n as VertexId);
                for &(v, word) in &words {
                    out.push(v, word);
                }
                let fused =
                    Frontier::from_partition_outputs(vec![out], n, 64, degrees, &counters, None);
                let what = format!("stride {stride} {repr:?}");
                assert_eq!(fused.is_sparse_repr(), repr == OutputRepr::Sparse, "{what}");
                let stats = (fused.len(), fused.degree_sum(), fused.density_metric());
                let want = (union.len(), union.degree_sum(), union.density_metric());
                assert_eq!(stats, want, "{what}");
                for view in views {
                    let range = view.dst_range.clone();
                    let want = union.range_stats(range.clone(), degrees);
                    assert_eq!(fused.range_stats(range, degrees), want, "{what}");
                }
                let edge_kind = plan_edge_map(&fused, m, th);
                assert_eq!(edge_kind, plan_edge_map(&union, m, th), "{what}");
                let mode = OutputMode::Auto;
                let plan = plan_partitions(&fused, views, &order, degrees, th, mode);
                let want = plan_partitions(&union, views, &order, degrees, th, mode);
                assert_eq!(plan.steps, want.steps, "{what}");
            }
        }
    }
}
