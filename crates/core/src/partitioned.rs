//! The partition-parallel execution path: **one driver, two kernels**.
//!
//! [`GraphGrind2`](crate::engine::GraphGrind2) with
//! [`ExecutorKind::Partitioned`](crate::config::ExecutorKind) routes every
//! edge map — scalar or [fused](crate::fused), exclusive-update or
//! associative — through one crate-private driver, `PartitionedExec::run`,
//! generic over a `ChunkKernel`. The driver owns everything the edge-map
//! flavours share: the [traversal plan](crate::plan) (kernel **and output
//! representation** per non-empty partition), candidate discovery, the
//! frontier probe bitmap, the **inline** path for tiny rounds,
//! edge-balanced chunking under the resolved
//! [`ChunkCap`] with **mega-hub** in-edge
//! splitting, the single chunk-task epoch, hub resolution and the
//! merge. A kernel supplies only what differs by operator shape: its
//! per-destination inner loop, how one slice of a split hub is collected
//! and how a hub's slices resolve. What differs by lane word — one `bool`
//! for a scalar round, a `u64` of up to 64 query lanes for a fused one —
//! is the kernel's `Lanes` parameter: how a source's lanes are read and
//! which lanes can reach a destination. The output buffer, the frontier
//! and the merge are one type each, generic over the word
//! ([`frontier`](crate::frontier)).
//!
//! ```text
//!            frontier F ──────▶ TraversalPlan (gg_core::plan)
//!                │     per-partition |F ∩ R_p| + Σdeg(F ∩ R_p):
//!                │     (kernel, output-repr) per non-empty partition
//!                ▼
//!   |F| + Σdeg(F) ≤ HUB_SPLIT_OVERHEAD_EDGES and every step
//!   (Sparse, Sparse)? ── yes ──▶ run_inline, on the dispatcher, into
//!                │        one sparse buffer over 0..|V| — no chunks, no
//!                │        task list, no epoch, no hub split:
//!                │        scalar Exclusive: push F's CSR out-edges in
//!                │          ascending source order, cond(v) before each
//!                │          update; sort + dedup the activations
//!                │        other kernels: walk the CSR forward from F and
//!                │          pull each first-seen destination (pooled
//!                │          mark bitmap) from the CSC
//!                no       then the merge of one buffer (WorkCounters: 1 chunk)
//!                ▼
//!   any sparse step? ── yes ──▶ the same walk, sorted once; each sparse
//!                │        step's candidates = the slice inside its range
//!                ▼
//!   ┌────────────┼──────────────────────────────┐
//!   ▼            ▼                              ▼
//! ┌────────┐ ┌──────────────────┐ ┌────────┐ ┌──────┐
//! │ P0     │ │ P1 (heavy, dense)│ │ P_k    │ │ P_e  │ (empty: skipped,
//! │sparse/ │ │ CSC offsets split│ │sparse/ │ │  ∅   │  never planned)
//! │ list   │ │ the dst range    │ │ list   │ └──────┘
//! └──┬─────┘ └───┬────┬────┬────┘ └──┬─────┘
//!    │ candidate │    │    │         │  chunking (gg_core::plan):
//!    │ slices    ▼    ▼    ▼         │  cap = resolve_cap(ChunkCap);
//!    ▼        ┌────┐┌────┐┌────┐     ▼  a hub with deg > cap splits
//!  chunk(s)   │c1,0││c1,1││c1,2│  chunk(s)   into per-scan sub-chunks
//!    └──────────┴─────┴──┬──┴────────┘       (< 2·cap edges per chunk)
//!                        ▼
//!     Pool::run_tasks — ONE EPOCH of the persistent crew (parked
//!     workers wake, claim, arrive at the completion latch): the task
//!     list is in (partition, chunk) order and each worker
//!     claims the next unclaimed chunk from one shared atomic cursor
//!     (WorkCounters: chunks, hub sub-chunks, max/mean chunk edges)
//!                        ▼
//!  per-chunk ChunkOut<K>: Done(resolved buffer: list | segment)
//!                       | Hub { v, part } — one slice of split hub v's
//!                         scan, collected but not applied (K::HubPart)
//!                        ▼
//!  resolve_hubs — the one hub walker: consecutive Hub parts of a
//!    destination arrive in (partition, chunk, sub-chunk) = CSC scan
//!    order and resolve sequentially through K::resolve_hub — one writer
//!    per destination, bit-identical to the unsplit scan
//!                        ▼
//!  merge — (partition, chunk)-order concat of resolved buffers
//!    all sparse → sorted list, O(Σ outputs), no |V|-proportional work
//!    any dense  → splice into one word per vertex (scalar: a bitmap
//!                 recycled through BufferPool, cost in merge_words();
//!                 fused: a lane array, cost in lane_union_words())
//! ```
//!
//! * **Views** — `Engine::new` materialises one [`PartitionView`] per
//!   partition of the edge-balanced destination `PartitionSet`
//!   (Equation 1). Partitions with no edges (including the empty trailing
//!   ranges produced when partitions outnumber vertices) are excluded from
//!   the task list up front, so they never touch the pool.
//! * **Planning** — [`plan_partitions`](crate::plan::plan_partitions)
//!   classifies the frontier *locally* per partition (Algorithm 2 on
//!   `|F ∩ R_p| + Σ deg_out(F ∩ R_p)` against the partition's own edge
//!   count) and pairs each kernel with an output representation; both
//!   selections are recorded in [`KernelCounts`]. A fused frontier's
//!   statistics are its **union**'s (the vertices active in some lane), so
//!   fused rounds chunk and schedule exactly like a scalar round over the
//!   same active set.
//! * **Discovery** — a chunked round with a sparse step (and a pulling
//!   inline round) walks the frontier's
//!   out-edges in the whole CSR once, on the dispatcher, marking each
//!   destination the first time it is seen in a bitmap from the engine's
//!   [`BufferPool`] (tested before it is set, so marking is
//!   order-insensitive and dedup costs the destinations reached, not
//!   `|V|`). Sorted once, the reached list cuts at each sparse step's
//!   destination range into that partition's ascending candidates. The
//!   engine's store therefore holds the CSR and the CSC only: no layout
//!   replicates a vertex, so it stays under twice Ligra's CSR + CSC at
//!   every partition count (§III.B).
//! * **Inline rounds** — a round whose frontier metric `|F| + Σ deg_out(F)`
//!   is at most [`plan::HUB_SPLIT_OVERHEAD_EDGES`] (one chunk's scheduling
//!   overhead in edge equivalents) and whose plan is all `(Sparse,
//!   Sparse)` runs on the dispatcher as one chunk — Algorithm 2's sparse
//!   class, into one sparse buffer. The scalar `Exclusive` kernel (BFS,
//!   CC, BC, …) runs it as the paper does, a **push**: the frontier's
//!   sources ascending, each one's CSR out-edges in order, `cond(v)`
//!   checked before each `update`, no discovery pass, no probe and no CSC
//!   read. Because the CSC is the CSR's transpose, every in-list ascends
//!   by source, so a pull of `v` applies its active in-neighbours in the
//!   order the push reaches it: the push is bit-identical to the chunked
//!   round's pull. The other kernels keep the pull (`Quantum` folds need
//!   CSC quantum positions, and a fused word needs each destination's
//!   lanes gathered in one place): the same discovery walk, its
//!   destinations pulled in discovery order when the word lets the buffer
//!   be sorted afterwards ([`LaneWord::PERMUTED_VISIT`]), ascending
//!   otherwise; they are the union of the partitions' candidates and a hub
//!   is pulled whole, so the updates are the chunked round's. The gate
//!   reads only the frontier and the static views, so every thread count
//!   and chunk cap takes the same path.
//! * **Chunking** — a dense step splits its destination range at
//!   CSC-offset boundaries ([`plan::chunk_dense_range`], memoised per
//!   partition); a sparse step slices its candidate list
//!   ([`plan::chunk_candidates`]). A destination whose
//!   in-degree alone exceeds the cap splits into per-scan sub-chunks
//!   ([`plan::Chunk::sub`]) when the planner's
//!   [`HubSplit`](crate::plan::HubSplit) cost model says splitting pays.
//!   Chunks of one partition own disjoint destinations, and a sub-chunk
//!   defers its writes, so every destination keeps exactly one writer.
//! * **Kernels** — two `ChunkKernel`s, each generic over the round's lane
//!   word, all destination-major in CSC adjacency order (ascending source),
//!   so the applied update sequence is independent of the planned kernel,
//!   the output representation, and the partition, chunk and thread
//!   counts, and equals the scalar inline push's:
//!
//!   | kernel | lane word: operator | per-destination scan | split-hub slice → resolution |
//!   |---|---|---|---|
//!   | `Exclusive` | `bool`: [`EdgeOp`]; `u64`: [`MultiSourceOp`](crate::fused::MultiSourceOp) | skip unless `possible(v) & cond(v)` (the deliverable lanes) is non-empty; apply lane-active in-edges, masked to the deliverable lanes, while `cond(v)` still holds one | active `(src, w, lanes)` → sequential replay, same exit rule |
//!   | `Quantum` | `bool`: [`EdgeMapReduce`]; `u64`: [`MultiSourceReduce`](crate::fused::MultiSourceReduce) | skip unless `possible(v)` and `cond(v)` are non-empty; fold per [`REDUCE_QUANTUM`]-edge run, apply per non-empty quantum, masked by `cond(v)` | covered quanta pre-folded, straddled ones raw → re-fold in scan order |
//!
//!   On the `bool` word `possible(v)` is always set, so the gates are the
//!   scalar `cond(v)`; on the `u64` word it is the fused round's
//!   deliverable-lane prefilter (see [`fused`](crate::fused)). Quantum
//!   boundaries sit at absolute multiples of the quantum within a
//!   destination's scan, so the f64 grouping — hence the result, bit for
//!   bit — is a property of the destination alone, whether the scan ran
//!   whole or split at any cap. Scalar rounds test source membership with
//!   one bit read per in-edge: a dense frontier lends its bitmap, a sparse
//!   one sets its bits in a buffer from the engine's [`BufferPool`] for the
//!   epoch (`O(|F|)` to build and to clean). Fused rounds read a source's
//!   lane word from the frontier too, from a fresh dense copy once a list
//!   holds `|F| ≥ |V| / 64` vertices. All-active rounds run on
//!   `AllActive` lanes and read none: every source is active, so the
//!   engine's `edge_map_reduce` picks those lanes when `|F| = |V|` and
//!   monomorphisation drops the probe from the fold, the hub slices and
//!   the driver alike. A
//!   `Quantum` fold counts its edges and resolves the CSC weights once per
//!   fold, not per edge.
//! * **Visit order** — a dense chunk pulls its destination range in
//!   ascending order. The COO's edge layout never reaches this executor:
//!   it reads the CSR and the CSC, so the layout shapes only the
//!   monolithic dense COO scan.
//! * **Deterministic merge** — resolved buffers concatenate in
//!   `(partition, chunk)` order, which over disjoint ascending destination
//!   ranges *is* ascending vertex order, so the merged frontier (and every
//!   operator value) is bit-identical across partition counts, chunk
//!   sizes, thread counts, claim schedules, kernel choices and output
//!   representations. Operators whose `update` reads only
//!   destination-local state or state frozen during the edge map (BFS, PR,
//!   SPMV, BC) are bit-identical across *all* partitioned configurations;
//!   operators that read concurrently-updated source-side state (CC's
//!   label reads) converge to the same fixpoint but may take different
//!   round counts under concurrency.

use std::sync::Arc;

use gg_graph::bitmap::Bitmap;
use gg_graph::csc::Csc;
use gg_graph::types::{EdgeId, VertexId};
use gg_runtime::buffer::BufferPool;
use gg_runtime::counters::{LocalTally, WorkCounters};
use gg_runtime::pool::Pool;

use crate::config::{ChunkCap, Config};
use crate::edge_map::{EdgeMapReduce, EdgeOp, REDUCE_QUANTUM};
use crate::engine::KernelCounts;
use crate::frontier::{Frontier, FrontierView, LaneWord, PartitionOutput};
use crate::plan::{self, OutputRepr};
use crate::store::GraphStore;

/// Which per-partition kernel a partition selected for one edge map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartKernel {
    /// CSR-walk candidate discovery + CSC-ordered pull of candidates.
    Sparse,
    /// Full CSC-ordered pull of the partition's destination range.
    Dense,
}

/// A materialised per-partition subgraph view: the partition's destination
/// range plus the metadata the executor consults per iteration. The edge
/// storage itself is the store's whole-graph CSR and CSC; views add no
/// per-partition edge copies.
#[derive(Clone, Debug)]
pub struct PartitionView {
    /// Partition index in the engine's `PartitionSet`.
    pub index: usize,
    /// Destinations owned by this partition (Equation 1).
    pub dst_range: std::ops::Range<VertexId>,
    /// In-edges homed to this partition.
    pub num_edges: u64,
    /// Destinations in the range with at least one in-edge, counted from
    /// the in-degrees — a frontier-independent upper bound on the
    /// partition's output size. The planner's `Auto` output rule uses it
    /// to emit sparse lists from dense-kernel partitions whose output is
    /// provably small (see [`plan::output_for`]).
    pub distinct_dsts: u64,
    /// `Σ deg_out` over the destination range: the degree half of an
    /// all-active frontier's per-partition metric, so the planner reads
    /// full rounds' statistics here instead of walking the bitmap.
    pub out_degree_sum: u64,
}

/// The partition-parallel executor: per-partition views plus the pool
/// submission order (index order, empty partitions dropped).
#[derive(Debug)]
pub(crate) struct PartitionedExec {
    views: Vec<PartitionView>,
    /// Partitions with at least one edge, in index order.
    edge_order: Vec<usize>,
    /// Lazily memoised dense chunk decompositions, one slot per partition.
    /// A dense kernel's chunking depends only on the CSC offsets, the
    /// partition's destination range, the resolved cap and the hub-split
    /// policy — all fixed for an engine's lifetime — so the `O(|V_p|)`
    /// offset scan in `chunk_by_weight` runs once per partition instead of
    /// once per round (on a 10-iteration PageRank that scan was the whole
    /// wall-clock gap between finite caps and partition-granular plans).
    dense_plans: Vec<std::sync::OnceLock<Arc<Vec<plan::Chunk>>>>,
}

impl PartitionedExec {
    /// Builds the views from the store's edge-balanced destination
    /// partitions.
    pub fn new(store: &GraphStore) -> Self {
        let parts = store.edge_parts();
        let (in_degrees, out_degrees) = (store.in_degrees(), store.out_degrees());
        let per_part = parts.edges_per_partition(in_degrees);
        let views: Vec<PartitionView> = (0..parts.num_partitions())
            .map(|p| {
                let dst_range = parts.range(p);
                let slots = dst_range.start as usize..dst_range.end as usize;
                let distinct_dsts = in_degrees[slots.clone()].iter().filter(|&&d| d > 0).count();
                let out_degree_sum = out_degrees[slots].iter().map(|&d| d as u64).sum();
                PartitionView {
                    index: p,
                    dst_range,
                    num_edges: per_part[p],
                    distinct_dsts: distinct_dsts as u64,
                    out_degree_sum,
                }
            })
            .collect();
        let edge_order = (0..views.len())
            .filter(|&p| views[p].num_edges > 0)
            .collect();
        let dense_plans = (0..views.len())
            .map(|_| std::sync::OnceLock::new())
            .collect();
        PartitionedExec {
            views,
            edge_order,
            dense_plans,
        }
    }

    /// The partition's dense chunk decomposition under the cap and
    /// hub-split policy `chunk_edges` resolves to at `threads` workers,
    /// memoised on first use: dense chunking is frontier-independent, and
    /// an engine's config and pool width never change after construction,
    /// so every subsequent round reuses the cached plan. One
    /// `PartitionedExec` therefore serves one `(chunk_edges, threads)`.
    fn dense_chunks(
        &self,
        offsets: &[EdgeId],
        partition: usize,
        chunk_edges: ChunkCap,
        threads: usize,
    ) -> Arc<Vec<plan::Chunk>> {
        let cached = self.dense_plans[partition].get_or_init(|| {
            let view = &self.views[partition];
            let cap = plan::resolve_cap(chunk_edges, view.num_edges, threads);
            let hub_split = plan::HubSplit::for_cap(chunk_edges);
            Arc::new(plan::chunk_dense_range(
                offsets,
                view.dst_range.clone(),
                cap,
                hub_split,
            ))
        });
        Arc::clone(cached)
    }

    /// All per-partition views, indexed by partition.
    pub fn views(&self) -> &[PartitionView] {
        &self.views
    }

    /// One partition-parallel edge map, for any [`ChunkKernel`]: plan
    /// `(kernel, output)` per partition on `frontier` (a fused frontier's
    /// statistics are its union's) and record the plan, then run the round
    /// [inline](Self::run_inline) when it is tiny and all-sparse, or
    /// [chunked](Self::run_chunked) otherwise.
    ///
    /// The gate is a pure function of the frontier and the static views —
    /// never of the thread count, chunk cap or schedule — so every
    /// configuration takes the same path on the same round.
    pub fn run<K: ChunkKernel>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<Word<K>>,
        kernel: &K,
    ) -> Frontier<Word<K>> {
        if self.edge_order.is_empty() {
            // No partition has edges: nothing to traverse, pool untouched.
            return merge(ctx, frontier, Vec::new());
        }
        let traversal = self.plan(ctx, frontier);
        if runs_inline(frontier, &traversal) {
            self.run_inline(ctx, frontier, kernel)
        } else {
            self.run_chunked(ctx, frontier, kernel, &traversal)
        }
    }

    /// The tiny-round half of [`run`](Self::run), executed on the
    /// dispatcher with no task list and no epoch — Algorithm 2's sparse
    /// class, as the kernel runs it ([`ChunkKernel::inline_round`]), into
    /// one sparse buffer over `0..|V|`, then the merge of that one buffer.
    /// The scalar exclusive kernel pushes along the CSR; the others pull
    /// every destination the frontier reaches. Either applies the same
    /// per-destination updates as [`run_chunked`](Self::run_chunked) and
    /// counts as one chunk.
    fn run_inline<K: ChunkKernel>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<Word<K>>,
        kernel: &K,
    ) -> Frontier<Word<K>> {
        let out = kernel.inline_round(ctx, frontier);
        merge(ctx, frontier, vec![out])
    }

    /// The chunked half of [`run`](Self::run): split every planned
    /// partition into edge-balanced chunks, execute the chunks as one
    /// epoch of cursor-claimed tasks, resolve split hubs, and merge the
    /// typed buffers in `(partition, chunk)` order.
    fn run_chunked<K: ChunkKernel>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<Word<K>>,
        kernel: &K,
        traversal: &plan::TraversalPlan,
    ) -> Frontier<Word<K>> {
        let prep = self.prepare(ctx, frontier, traversal);
        let probe = probe_for::<K>(ctx, frontier);
        let current = probe.as_ref().unwrap_or(frontier).view();
        let outputs = ctx.pool.run_tasks(prep.tasks.len(), |t| {
            let (k, ci) = prep.tasks[t];
            let repr = traversal.steps[k].output;
            let mut tally = LocalTally::new(ctx.counters);
            // A chunk is a destination range (dense kernel) or a slice
            // of the candidate list (sparse kernel); a sub-chunk spans
            // the one destination whose scan it slices.
            let (chunk, range, candidates) = match &prep.step_work[k] {
                StepChunks::Dense { chunks } => {
                    let span = &chunks[ci].span;
                    (
                        &chunks[ci],
                        span.start as VertexId..span.end as VertexId,
                        None,
                    )
                }
                StepChunks::Sparse { candidates, chunks } => {
                    // A candidate slice is sorted, so it spans exactly
                    // [first, last]: disjoint from its sibling chunks.
                    let slice = &prep.reached[candidates.clone()][chunks[ci].span.clone()];
                    let range = slice[0]..slice[slice.len() - 1] + 1;
                    (&chunks[ci], range, Some(slice))
                }
            };
            if let Some(sub) = &chunk.sub {
                let v = range.start;
                let part = kernel.collect_hub(current, v, sub, &mut tally);
                return ChunkOut::Hub {
                    v,
                    lo: sub.lo,
                    part,
                };
            }
            ChunkOut::Done(match candidates {
                Some(list) => {
                    let dsts = list.iter().copied();
                    pull_chunk(kernel, current, repr, range, dsts, &mut tally)
                }
                None => pull_chunk(kernel, current, repr, range.clone(), range, &mut tally),
            })
        });
        // Back to the pool before the merge, which may take the buffer.
        drop(probe);
        merge(ctx, frontier, resolve_hubs(kernel, outputs))
    }

    /// The per-partition `(kernel, output)` plan [`run`](Self::run)
    /// executes on `frontier` — the one `plan_partitions` call, which
    /// [`plan`](Self::plan) records. Also used by the engine's round
    /// recorder: the planner is deterministic and pool-free, so recording
    /// can recompute the plan instead of threading it out of the
    /// execution path.
    pub(crate) fn round_plan<W: LaneWord>(
        &self,
        store: &GraphStore,
        config: &Config,
        frontier: &Frontier<W>,
    ) -> plan::TraversalPlan {
        plan::plan_partitions(
            frontier,
            &self.views,
            &self.edge_order,
            store.out_degrees(),
            &config.thresholds,
            config.output_mode,
        )
    }

    /// The round's plan — `(kernel, output)` per partition, cheap,
    /// deterministic and pool-free — recorded once in [`KernelCounts`]
    /// whichever half of [`run`](Self::run) executes it.
    fn plan<W: LaneWord>(&self, ctx: &RoundCtx<'_>, frontier: &Frontier<W>) -> plan::TraversalPlan {
        let traversal = self.round_plan(ctx.store, ctx.config, frontier);
        let (ks, kd) = traversal.kernel_tally();
        let (os, od) = traversal.output_tally();
        ctx.kernel_counts.record_partitioned(ks, kd);
        ctx.kernel_counts.record_outputs(os, od);
        traversal
    }

    /// The chunking step of [`run_chunked`](Self::run_chunked): split
    /// every planned step into edge-balanced chunks under the resolved cap
    /// and the [`HubSplit`](crate::plan::HubSplit) policy, and flatten the
    /// chunks into the deterministic task list whose index is the merge
    /// key.
    fn prepare<W: LaneWord>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<W>,
        traversal: &plan::TraversalPlan,
    ) -> PreparedEdgeMap {
        let RoundCtx {
            store,
            pool,
            config,
            counters,
            ..
        } = *ctx;

        let csc = store.csc();

        // Discovery: one walk of the frontier's CSR out-edges, sorted once
        // and cut at each sparse step's destination range — the same
        // sorted, deduplicated candidates whichever partition count cuts
        // it. Rounds with no sparse step skip the walk.
        let steps = &traversal.steps;
        let mut reached = Vec::new();
        if steps.iter().any(|s| s.kernel == PartKernel::Sparse) {
            for_each_reached(ctx, frontier, |v| reached.push(v));
            reached.sort_unstable();
        }

        // Chunking: split each planned step into edge-balanced chunks —
        // CSC-offset-balanced destination sub-ranges for dense kernels,
        // candidate-list slices for sparse kernels, and per-scan
        // sub-chunks for mega-hub destinations when the hub-split policy
        // says splitting pays (`Fixed` caps always split; `Auto` applies
        // the cost model). The cap itself is resolved per partition
        // (`ChunkCap::Auto` derives it from `|E_partition|` and the thread
        // count).
        let hub_split = plan::HubSplit::for_cap(config.chunk_edges);
        let step_work: Vec<StepChunks> = pool.map_indices(steps.len(), |k| {
            let step = steps[k];
            match step.kernel {
                PartKernel::Dense => StepChunks::Dense {
                    chunks: self.dense_chunks(
                        csc.offsets(),
                        step.partition,
                        config.chunk_edges,
                        pool.threads(),
                    ),
                },
                PartKernel::Sparse => {
                    let view = &self.views[step.partition];
                    let cap = plan::resolve_cap(config.chunk_edges, view.num_edges, pool.threads());
                    let range = &view.dst_range;
                    let lo = reached.partition_point(|&v| v < range.start);
                    let hi = lo + reached[lo..].partition_point(|&v| v < range.end);
                    let chunks =
                        plan::chunk_candidates(&reached[lo..hi], csc.offsets(), cap, hub_split);
                    StepChunks::Sparse {
                        candidates: lo..hi,
                        chunks,
                    }
                }
            }
        });

        // Flatten to the deterministic task list: steps in submission
        // order, chunks in range order within each step. The task index is
        // the merge key, so scheduling can never reorder results.
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        let (mut edge_sum, mut edge_max) = (0u64, 0u64);
        let mut hub_subchunks = 0u64;
        for (k, work) in step_work.iter().enumerate() {
            for (ci, chunk) in work.chunks().iter().enumerate() {
                tasks.push((k, ci));
                edge_sum += chunk.edges;
                edge_max = edge_max.max(chunk.edges);
                hub_subchunks += chunk.sub.is_some() as u64;
            }
        }
        counters.add_chunks(tasks.len() as u64, edge_sum, edge_max);
        counters.add_hub_subchunks(hub_subchunks);

        PreparedEdgeMap {
            reached,
            step_work,
            tasks,
        }
    }
}

/// The shared output of [`PartitionedExec::prepare`]: the round's
/// reached destinations, the per-step chunk decompositions and the
/// flattened deterministic task list.
struct PreparedEdgeMap {
    /// Every destination the frontier reaches, ascending (empty when no
    /// step is sparse); sparse steps index into it.
    reached: Vec<VertexId>,
    step_work: Vec<StepChunks>,
    /// `(step, chunk)` pairs in submission order — the task index is the
    /// merge key.
    tasks: Vec<(usize, usize)>,
}

/// One planned step's chunk decomposition: the dense kernel's sub-ranges,
/// or the sparse kernel's candidate list plus its slices.
#[derive(Debug)]
enum StepChunks {
    /// Dense kernel: CSC-offset-balanced destination sub-ranges, shared
    /// with the executor's per-partition memo (see
    /// [`PartitionedExec::dense_chunks`]).
    Dense { chunks: Arc<Vec<plan::Chunk>> },
    /// Sparse kernel: the partition's candidates, as the index range of
    /// [`PreparedEdgeMap::reached`] inside its destination range, and the
    /// edge-balanced index slices over them.
    Sparse {
        candidates: std::ops::Range<usize>,
        chunks: Vec<plan::Chunk>,
    },
}

impl StepChunks {
    fn chunks(&self) -> &[plan::Chunk] {
        match self {
            StepChunks::Dense { chunks } => chunks,
            StepChunks::Sparse { chunks, .. } => chunks,
        }
    }
}

/// Everything one edge-map round borrows from its engine, built once per
/// round by [`GraphGrind2`](crate::engine::GraphGrind2).
#[derive(Clone, Copy)]
pub(crate) struct RoundCtx<'a> {
    pub store: &'a GraphStore,
    pub pool: &'a Pool,
    pub config: &'a Config,
    pub counters: &'a WorkCounters,
    pub kernel_counts: &'a KernelCounts,
    /// Recycles the word buffers behind dense scalar merges, the scalar
    /// kernels' membership probes and every round's discovery marks.
    pub scratch: &'a Arc<BufferPool>,
}

/// What one operator shape plugs into [`PartitionedExec::run`]: the
/// per-destination scan, how one slice of a split hub is collected and how
/// a hub's slices resolve. How source lanes are read and which lanes can
/// reach a destination is the kernel's [`Lanes`]; the output buffer and
/// the merge follow from their word. Everything else — plan, chunks, the
/// chunk-task epoch, hub grouping — is the driver's.
///
/// `current` is the frontier the round was planned on. For lanes with
/// [`PROBES_FRONTIER`](Lanes::PROBES_FRONTIER) it is dense whenever the
/// word's probe policy ([`LaneWord::wants_probe`]) asks — the frontier's
/// own, or a sparse list's words in a dense copy — so the per-edge reads
/// do not binary-search a list.
pub(crate) trait ChunkKernel: Sync {
    /// How the round reads source lanes.
    type Lanes: Lanes;
    /// One slice of a split mega-hub's scan, collected but not applied.
    type HubPart: Send;

    /// Scans destination `v`'s in-edges (CSC adjacency order), applies
    /// the operator under the single-writer guarantee and records `v`'s
    /// activation in `out`.
    fn pull(
        &self,
        current: FrontierView<'_, Word<Self>>,
        v: VertexId,
        out: &mut PartitionOutput<Word<Self>>,
        tally: &mut LocalTally<'_>,
    );

    /// Executes one mega-hub sub-chunk: scans the slice `sub` of `v`'s
    /// in-edge list and **collects** its active contributions without
    /// applying the operator. `v`'s state is frozen for the whole parallel
    /// phase (every write to it is deferred to
    /// [`resolve_hub`](Self::resolve_hub)), so the pre-check here reads
    /// exactly what the unsplit scan would have seen.
    fn collect_hub(
        &self,
        current: FrontierView<'_, Word<Self>>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart;

    /// Applies split hub `v`'s collected slices, given in ascending slice
    /// (= CSC scan) order, sequentially on the dispatcher — so the applied
    /// sequence is bit-identical to never having split the destination.
    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> PartitionOutput<Word<Self>>;

    /// The whole of an [inline](PartitionedExec::run_inline) round on
    /// `frontier`, on the dispatcher: one finished sparse buffer over
    /// `0..|V|`, its work tallied as one chunk. The default discovers the
    /// destinations the frontier reaches and pulls each
    /// ([`pull_reached`]); the scalar [`Exclusive`] kernel pushes along
    /// the CSR instead ([`push_scalar`]).
    fn inline_round(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<Word<Self>>,
    ) -> PartitionOutput<Word<Self>>
    where
        Self: Sized,
    {
        pull_reached(self, ctx, frontier)
    }
}

/// The lane word of a kernel's round.
pub(crate) type Word<K> = <<K as ChunkKernel>::Lanes as Lanes>::Word;

/// What one chunk task returns.
enum ChunkOut<K: ChunkKernel> {
    /// A finished chunk's buffer — the merge input. Sparse or dense only:
    /// a split hub's partials are [`HubPart`](ChunkKernel::HubPart)s, a
    /// different type, so "partials are resolved before the merge" holds
    /// by construction.
    Done(PartitionOutput<Word<K>>),
    /// The slice starting at in-edge offset `lo` of split hub `v`'s scan.
    Hub {
        v: VertexId,
        lo: u64,
        part: K::HubPart,
    },
}

/// Whether a round runs [inline](PartitionedExec::run_inline): the
/// frontier's Algorithm 2 metric `|F| + Σ deg_out(F)` — the out-edges the
/// inline walk reads — is at most one chunk's scheduling overhead
/// ([`plan::HUB_SPLIT_OVERHEAD_EDGES`]), and every planned step is
/// `(Sparse, Sparse)`: the inline buffer is one sparse list, and a dense
/// step pulls its whole range, not just the candidates.
fn runs_inline<W: LaneWord>(frontier: &Frontier<W>, traversal: &plan::TraversalPlan) -> bool {
    frontier.density_metric() <= plan::HUB_SPLIT_OVERHEAD_EDGES
        && traversal
            .steps
            .iter()
            .all(|s| s.kernel == PartKernel::Sparse && s.output == OutputRepr::Sparse)
}

/// The dense copy a kernel whose lanes [probe the
/// frontier](Lanes::PROBES_FRONTIER) reads when `frontier` is a list the
/// word's policy ([`LaneWord::wants_probe`]) densifies (`None` otherwise).
/// A pooled word's copy goes back to the pool on drop — drop it before the
/// merge, which may take the buffer.
fn probe_for<K: ChunkKernel>(
    ctx: &RoundCtx<'_>,
    frontier: &Frontier<Word<K>>,
) -> Option<Frontier<Word<K>>> {
    let wanted = <K::Lanes as Lanes>::PROBES_FRONTIER
        && Word::<K>::wants_probe(frontier.len(), frontier.universe());
    let scratch = Word::<K>::POOLED.then_some(ctx.scratch);
    wanted.then(|| frontier.densified(scratch)).flatten()
}

/// Merges a round's resolved buffers (task order) into the next frontier
/// over `frontier`'s lanes, recycling through the engine's pool when the
/// word is pooled.
fn merge<W: LaneWord>(
    ctx: &RoundCtx<'_>,
    frontier: &Frontier<W>,
    outputs: Vec<PartitionOutput<W>>,
) -> Frontier<W> {
    let (n, out_degrees) = (ctx.store.num_vertices(), ctx.store.out_degrees());
    let scratch = W::POOLED.then_some(ctx.scratch);
    let lanes = frontier.num_lanes();
    Frontier::from_partition_outputs(outputs, n, lanes, out_degrees, ctx.counters, scratch)
}

/// Pulls the ascending destinations `dsts` (all inside `range`) into a
/// fresh buffer of representation `repr`: the body of every non-hub chunk
/// task.
fn pull_chunk<K: ChunkKernel>(
    kernel: &K,
    current: FrontierView<'_, Word<K>>,
    repr: OutputRepr,
    range: std::ops::Range<VertexId>,
    dsts: impl Iterator<Item = VertexId>,
    tally: &mut LocalTally<'_>,
) -> PartitionOutput<Word<K>> {
    let mut out = PartitionOutput::new(repr, range);
    for v in dsts {
        kernel.pull(current, v, &mut out, tally);
    }
    out
}

/// The one hub walker. `outputs` is in task-index order (what
/// [`Pool::run_tasks`] returns), so a split destination's parts arrive
/// consecutively in ascending slice order; each such run resolves to one
/// buffer in the run's place, finished buffers pass through.
fn resolve_hubs<K: ChunkKernel>(
    kernel: &K,
    outputs: Vec<ChunkOut<K>>,
) -> Vec<PartitionOutput<Word<K>>> {
    let mut resolved = Vec::with_capacity(outputs.len());
    let mut run: Option<(VertexId, u64, Vec<K::HubPart>)> = None;
    for out in outputs {
        match (out, &mut run) {
            (ChunkOut::Hub { v, lo, part }, Some((hub, last, parts))) if *hub == v => {
                debug_assert!(
                    *last < lo,
                    "sub-chunks must arrive in ascending slice order"
                );
                *last = lo;
                parts.push(part);
            }
            (out, run) => {
                if let Some((hub, _, parts)) = run.take() {
                    resolved.push(kernel.resolve_hub(hub, &parts));
                }
                match out {
                    ChunkOut::Hub { v, lo, part } => *run = Some((v, lo, vec![part])),
                    ChunkOut::Done(buffer) => resolved.push(buffer),
                }
            }
        }
    }
    if let Some((hub, _, parts)) = run {
        resolved.push(kernel.resolve_hub(hub, &parts));
    }
    resolved
}

/// What a kernel's scan depends on besides its operator: the round's lane
/// word, how a source's lanes are read and which lanes can reach a
/// destination this round. [`Scalar`] and [`AllActive`] rounds carry a
/// `bool`; fused rounds ([`FusedRound`](crate::fused::FusedRound)) a `u64`
/// of up to 64 query lanes. The output buffer ([`PartitionOutput`]) and the
/// merge ([`Frontier::from_partition_outputs`]) follow from the word.
pub(crate) trait Lanes: Sync {
    /// The lane word.
    type Word: LaneWord;
    /// How one destination's scan reads source lanes.
    type View<'a>: Copy
    where
        Self: 'a;

    /// Whether [`view`](Self::view) reads source lanes from `current`, so
    /// the driver densifies it when the word's probe policy asks.
    const PROBES_FRONTIER: bool;

    /// The source-lane view of one scan over the planned frontier.
    fn view<'a>(&'a self, current: FrontierView<'a, Self::Word>) -> Self::View<'a>;

    /// The lanes in which source `u` is active.
    fn lanes_of(view: Self::View<'_>, u: VertexId) -> Self::Word;

    /// The lanes active at some in-neighbour of `v` — every lane a pull of
    /// `v` could deliver this round. A pure function of the frontier.
    fn possible(&self, v: VertexId) -> Self::Word;

    /// The inline round of an [`Exclusive`] kernel on these lanes
    /// ([`ChunkKernel::inline_round`]): discovery and pull
    /// ([`pull_reached`]) unless the lanes override it.
    fn exclusive_inline<O: LaneOp<Self::Word>>(
        kernel: &Exclusive<'_, Self, O>,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<Self::Word>,
    ) -> PartitionOutput<Self::Word>
    where
        Self: Sized,
    {
        pull_reached(kernel, ctx, frontier)
    }
}

/// A resolved split hub's buffer: `v` in `lanes` if any.
fn single<W: LaneWord>(v: VertexId, lanes: W) -> PartitionOutput<W> {
    let mut out = PartitionOutput::new(OutputRepr::Sparse, v..v + 1);
    if lanes.any() {
        out.push(v, lanes);
    }
    out
}

/// The lanes of a scalar round: one `bool`, source membership read from
/// the planned frontier (always a bitmap by the word's probe policy), every
/// destination open.
pub(crate) struct Scalar;

impl Lanes for Scalar {
    type Word = bool;
    type View<'a> = FrontierView<'a>;

    const PROBES_FRONTIER: bool = true;

    #[inline]
    fn view<'a>(&'a self, current: FrontierView<'a>) -> FrontierView<'a> {
        current
    }

    #[inline]
    fn lanes_of(view: FrontierView<'_>, u: VertexId) -> bool {
        view.get(u)
    }

    #[inline]
    fn possible(&self, _v: VertexId) -> bool {
        true
    }

    /// A scalar exclusive round pushes ([`push_scalar`]).
    fn exclusive_inline<O: LaneOp<bool>>(
        kernel: &Exclusive<'_, Scalar, O>,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier,
    ) -> PartitionOutput {
        push_scalar(kernel.op, ctx, frontier)
    }
}

/// The lanes of a scalar round whose frontier holds every vertex: each
/// source is active, so a scan reads no frontier bit and the driver builds
/// no probe. A round on these lanes is a [`Scalar`] round over
/// [`Frontier::all`] with the per-edge membership test compiled out.
pub(crate) struct AllActive;

impl Lanes for AllActive {
    type Word = bool;
    type View<'a> = ();

    const PROBES_FRONTIER: bool = false;

    #[inline]
    fn view(&self, _current: FrontierView<'_>) {}

    #[inline]
    fn lanes_of(_view: (), _u: VertexId) -> bool {
        true
    }

    #[inline]
    fn possible(&self, _v: VertexId) -> bool {
        true
    }
}

/// An exclusive-update operator as the kernels call it on lane word `W`:
/// [`EdgeOp`] on `bool`, [`MultiSourceOp`](crate::fused::MultiSourceOp)
/// on `u64`.
pub(crate) trait LaneOp<W>: Sync {
    /// Applies edge `(src, dst)` for the lanes `lanes`; returns the lanes
    /// `dst` joins the next frontier in.
    fn update(&self, src: VertexId, dst: VertexId, w: f32, lanes: W) -> W;

    /// The lanes in which `dst` still wants updates.
    fn cond(&self, dst: VertexId) -> W;
}

/// An associative operator as the kernels call it on lane word `W`:
/// [`EdgeMapReduce`] on `bool`,
/// [`MultiSourceReduce`](crate::fused::MultiSourceReduce) on `u64`.
pub(crate) trait LaneReduce<W>: LaneOp<W> {
    /// The per-quantum accumulator.
    type Acc: Send;

    /// The accumulator every quantum's fold starts from.
    fn identity(&self) -> Self::Acc;

    /// Folds one in-edge `(src, w)` carrying `lanes` into `acc`.
    fn accumulate(&self, acc: &mut Self::Acc, src: VertexId, w: f32, lanes: W);

    /// Applies a folded quantum to `dst`; returns the activated lanes.
    fn apply(&self, dst: VertexId, acc: &Self::Acc) -> W;
}

impl<O: EdgeOp> LaneOp<bool> for O {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: f32, _lanes: bool) -> bool {
        EdgeOp::update(self, src, dst, w)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        EdgeOp::cond(self, dst)
    }
}

impl<O: EdgeMapReduce> LaneReduce<bool> for O {
    type Acc = f64;

    #[inline]
    fn identity(&self) -> f64 {
        EdgeMapReduce::identity(self)
    }

    #[inline]
    fn accumulate(&self, acc: &mut f64, src: VertexId, w: f32, _lanes: bool) {
        *acc = EdgeMapReduce::accumulate(self, *acc, src, w);
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: &f64) -> bool {
        EdgeMapReduce::apply(self, dst, *acc)
    }
}

/// One lane-active in-edge of a scan: `(source, weight, lanes)`.
type LaneEdge<W> = (VertexId, f32, W);

/// The CSC slots of scan positions `lo..hi` of `v`'s in-edge list.
#[inline]
fn slots(csc: &Csc, v: VertexId, (lo, hi): (usize, usize)) -> std::ops::Range<usize> {
    let base = csc.offsets()[v as usize];
    base + lo..base + hi
}

/// The exclusive-update kernel: any [`EdgeOp`] (BFS, CC, BC, …) on
/// [`Scalar`] lanes, any [`MultiSourceOp`](crate::fused::MultiSourceOp)
/// (fused BFS, reachability) on fused ones.
pub(crate) struct Exclusive<'a, L, O> {
    pub csc: &'a Csc,
    pub lanes: L,
    pub op: &'a O,
}

impl<L: Lanes, O: LaneOp<L::Word>> Exclusive<'_, L, O> {
    /// The lanes one more pull of `v` could activate this round: open at
    /// `v` and active at some in-neighbour. `v`'s state is frozen until its
    /// one writer runs, so an unsplit scan, every slice of a split one and
    /// the replay all see the same mask.
    #[inline]
    fn deliverable(&self, v: VertexId) -> L::Word {
        self.lanes.possible(v) & self.op.cond(v)
    }

    /// Applies one lane-active in-edge `(u, v)`, masked to the
    /// `deliverable` lanes, and says whether `v`'s scan goes on — the
    /// kernel's one exit rule: while `cond(v)` still holds a deliverable
    /// lane. Shared by the unsplit scan and the hub replay.
    #[inline]
    fn step(
        &self,
        (u, w, lanes): LaneEdge<L::Word>,
        v: VertexId,
        deliverable: L::Word,
        new: &mut L::Word,
    ) -> bool {
        *new |= self.op.update(u, v, w, lanes) & deliverable;
        (self.op.cond(v) & deliverable).any()
    }
}

impl<L: Lanes, O: LaneOp<L::Word>> ChunkKernel for Exclusive<'_, L, O> {
    type Lanes = L;
    /// The slice's active `(source, weight, lanes)` contributions, in scan
    /// order.
    type HubPart = Vec<LaneEdge<L::Word>>;

    /// Applies the in-edges of `v` (CSC adjacency order) for every source
    /// active in a lane, honouring the exit rule. A destination with no
    /// deliverable lane is skipped without touching an edge; it activates
    /// at most once, after its scan.
    #[inline]
    fn pull(
        &self,
        current: FrontierView<'_, L::Word>,
        v: VertexId,
        out: &mut PartitionOutput<L::Word>,
        tally: &mut LocalTally<'_>,
    ) {
        tally.vertex();
        let deliverable = self.deliverable(v);
        if !deliverable.any() {
            return;
        }
        let mut new = L::Word::default();
        let view = self.lanes.view(current);
        // The kernels write their scan loops out: routed through a shared
        // closure-taking or iterator helper, the same loop measured 6-25 %
        // slower on single-threaded PageRank and road BFS.
        for e in self.csc.edge_range(v) {
            tally.edge();
            let u = self.csc.sources()[e];
            let lanes = L::lanes_of(view, u);
            if lanes.any()
                && !self.step((u, self.csc.weight_at(e), lanes), v, deliverable, &mut new)
            {
                break;
            }
        }
        if new.any() {
            out.push(v, new);
        }
    }

    fn collect_hub(
        &self,
        current: FrontierView<'_, L::Word>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart {
        // Count the destination visit once, on its first slice.
        if sub.lo == 0 {
            tally.vertex();
        }
        if !self.deliverable(v).any() {
            return Vec::new();
        }
        let (view, mut actives) = (self.lanes.view(current), Vec::new());
        for e in slots(self.csc, v, (sub.lo as usize, sub.hi as usize)) {
            tally.edge();
            let u = self.csc.sources()[e];
            let lanes = L::lanes_of(view, u);
            if lanes.any() {
                actives.push((u, self.csc.weight_at(e), lanes));
            }
        }
        actives
    }

    fn inline_round(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier<L::Word>,
    ) -> PartitionOutput<L::Word> {
        L::exclusive_inline(self, ctx, frontier)
    }

    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> PartitionOutput<L::Word> {
        let deliverable = self.deliverable(v);
        let mut new = L::Word::default();
        if deliverable.any() {
            for &edge in parts.iter().flatten() {
                if !self.step(edge, v, deliverable, &mut new) {
                    break;
                }
            }
        }
        single(v, new)
    }
}

/// One slice of a split hub's scan, pre-reduced for the [`Quantum`]
/// kernel. Quanta fully inside the slice arrive **folded**; quanta
/// straddling a slice boundary arrive as raw edges so the resolver can
/// re-fold the whole quantum edge-wise — keeping the f64 grouping
/// identical to an unsplit scan. Quanta with no active edge are omitted.
pub(crate) struct QuantumPart<A, W> {
    /// Accumulators of the fully-covered non-empty quanta, in scan order.
    folded: Vec<A>,
    /// `(quantum index, entry)` in scan order: `None` takes the next
    /// `folded` accumulator, `Some((source, weight, lanes))` is one active
    /// edge of a straddled quantum.
    entries: Vec<(u64, Option<LaneEdge<W>>)>,
}

/// The associative kernel: any [`EdgeMapReduce`] (PR, SpMV, BF, BP) on
/// [`Scalar`] or [`AllActive`] lanes, any
/// [`MultiSourceReduce`](crate::fused::MultiSourceReduce) (fused PPR) on
/// fused ones. *Every* destination's scan — split or not — folds in fixed
/// [`REDUCE_QUANTUM`]-edge runs with boundaries at absolute multiples of
/// the quantum, one `apply` per non-empty quantum in ascending order.
/// `cond` is checked once per destination and scans are never truncated,
/// so per-edge accumulation stays complete; a destination is skipped only
/// when it is closed or no in-neighbour is active in any lane — a scan
/// that would have folded nothing.
pub(crate) struct Quantum<'a, L, O> {
    pub csc: &'a Csc,
    pub lanes: L,
    pub op: &'a O,
}

impl<L: Lanes, O: LaneReduce<L::Word>> Quantum<'_, L, O> {
    /// The lanes `apply` may activate at `v`; none skips the scan.
    #[inline]
    fn open(&self, v: VertexId) -> L::Word {
        if self.lanes.possible(v).any() {
            self.op.cond(v)
        } else {
            L::Word::default()
        }
    }

    /// Folds the active edges among CSC slots `slots` and hands the
    /// accumulator to `then` when any was active — empty quanta are never
    /// applied, so activation means at least one active in-edge, exactly
    /// as on the exclusive-update path. Out of line, with the accumulator
    /// its own and lent to `then`: a scalar `f64` then stays in a
    /// register, a fused per-lane array is never copied.
    #[inline(never)]
    fn fold(
        &self,
        view: L::View<'_>,
        slots: std::ops::Range<usize>,
        tally: &mut LocalTally<'_>,
        then: impl FnOnce(&mut O::Acc),
    ) {
        let (mut acc, mut any) = (self.op.identity(), false);
        // A fold never stops early, so counting its slots up front is the
        // per-edge count; the weights resolve once per fold, not per edge.
        tally.edges_n(slots.len() as u64);
        let sources = &self.csc.sources()[slots.clone()];
        match self.csc.weights() {
            Some(weights) => {
                for (&u, &w) in sources.iter().zip(&weights[slots]) {
                    let lanes = L::lanes_of(view, u);
                    if lanes.any() {
                        self.op.accumulate(&mut acc, u, w, lanes);
                        any = true;
                    }
                }
            }
            None => {
                for &u in sources {
                    let lanes = L::lanes_of(view, u);
                    if lanes.any() {
                        self.op.accumulate(&mut acc, u, 1.0, lanes);
                        any = true;
                    }
                }
            }
        }
        if any {
            then(&mut acc);
        }
    }
}

impl<L: Lanes, O: LaneReduce<L::Word>> ChunkKernel for Quantum<'_, L, O> {
    type Lanes = L;
    type HubPart = QuantumPart<O::Acc, L::Word>;

    /// The quantum-folded scan of destination `v`, each quantum's
    /// activations masked by `cond(v)` at scan start.
    #[inline]
    fn pull(
        &self,
        current: FrontierView<'_, L::Word>,
        v: VertexId,
        out: &mut PartitionOutput<L::Word>,
        tally: &mut LocalTally<'_>,
    ) {
        tally.vertex();
        let open = self.open(v);
        if !open.any() {
            return;
        }
        let view = self.lanes.view(current);
        let edges = self.csc.edge_range(v);
        let mut new = L::Word::default();
        let mut lo = edges.start;
        while lo < edges.end {
            let hi = (lo + REDUCE_QUANTUM).min(edges.end);
            self.fold(view, lo..hi, tally, |acc| {
                new |= self.op.apply(v, acc) & open;
            });
            lo = hi;
        }
        if new.any() {
            out.push(v, new);
        }
    }

    /// Folds the quanta the slice fully covers into one accumulator each
    /// and ships raw edges only for the (at most two) quanta it straddles,
    /// so the dispatcher pays one `apply` per quantum instead of one fold
    /// step per edge.
    fn collect_hub(
        &self,
        current: FrontierView<'_, L::Word>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart {
        // Count the destination visit once, on its first slice.
        if sub.lo == 0 {
            tally.vertex();
        }
        // Pre-size for the slice: one entry per covered quantum plus at
        // most two straddled quanta's worth of raw edges — growing these
        // from empty re-allocates several times per sub-chunk, which is
        // pure overhead on the hub-heavy dense rounds.
        let (lo, hi) = (sub.lo as usize, sub.hi as usize);
        let covered = (hi - lo) / REDUCE_QUANTUM + 1;
        let mut part = QuantumPart {
            folded: Vec::with_capacity(covered),
            entries: Vec::with_capacity(covered + 2 * (REDUCE_QUANTUM - 1)),
        };
        if !self.open(v).any() {
            return part;
        }
        let view = self.lanes.view(current);
        let deg = self.csc.edge_range(v).len();
        let mut r = lo;
        while r < hi {
            let q = r / REDUCE_QUANTUM;
            // The quantum's absolute end: the scan's final quantum is
            // truncated at the in-degree.
            let q_hi = ((q + 1) * REDUCE_QUANTUM).min(deg);
            let seg_hi = q_hi.min(hi);
            if r == q * REDUCE_QUANTUM && q_hi <= hi {
                // Fully covered quantum: fold it locally.
                let quantum = slots(self.csc, v, (r, seg_hi));
                self.fold(view, quantum, tally, |acc| {
                    part.folded.push(std::mem::replace(acc, self.op.identity()));
                    part.entries.push((q as u64, None));
                });
            } else {
                // Straddled quantum: ship the active edges raw.
                for e in slots(self.csc, v, (r, seg_hi)) {
                    tally.edge();
                    let u = self.csc.sources()[e];
                    let lanes = L::lanes_of(view, u);
                    if lanes.any() {
                        let edge = (u, self.csc.weight_at(e), lanes);
                        part.entries.push((q as u64, Some(edge)));
                    }
                }
            }
            r = seg_hi;
        }
        part
    }

    /// Walks the slices' entries in scan order: applies each folded
    /// quantum, re-folds the raw edges of a straddled quantum — which may
    /// continue across slices — from the identity, and applies it when the
    /// next quantum starts. Per quantum either exactly one slice folded it
    /// or ≥ 1 slices shipped raw edges — never both, since slices tile the
    /// scan disjointly.
    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> PartitionOutput<L::Word> {
        let (op, open) = (self.op, self.open(v));
        let mut new = L::Word::default();
        if open.any() {
            let mut apply = |acc: &O::Acc| new |= op.apply(v, acc) & open;
            // The straddled quantum being re-folded, if any.
            let mut pending: Option<(u64, O::Acc)> = None;
            for part in parts {
                let mut folded = part.folded.iter();
                for &(q, edge) in &part.entries {
                    if let Some((_, acc)) = pending.take_if(|(pq, _)| *pq != q) {
                        apply(&acc);
                    }
                    match edge {
                        Some((u, w, lanes)) => {
                            let (_, acc) = pending.get_or_insert_with(|| (q, op.identity()));
                            op.accumulate(acc, u, w, lanes);
                        }
                        None => {
                            debug_assert!(pending.is_none(), "quantum {q} is folded and raw");
                            apply(folded.next().expect("one accumulator per folded entry"));
                        }
                    }
                }
            }
            if let Some((_, acc)) = pending {
                apply(&acc);
            }
        }
        single(v, new)
    }
}

/// Algorithm 2's sparse class by discovery and pull, the default
/// [`ChunkKernel::inline_round`]: pull every destination the frontier
/// reaches ([`for_each_reached`]) into one sparse buffer over `0..|V|`.
/// Kernels whose word lets the buffer be sorted afterwards
/// ([`LaneWord::PERMUTED_VISIT`]) pull in discovery order; the others pull
/// the sorted list. A hub is pulled whole, which is bit-identical to its
/// split scan by the hub contract. The destinations are exactly the union
/// of the planned partitions' candidate slices in
/// [`PartitionedExec::prepare`], so the round applies the chunked round's
/// per-destination updates; it counts as one chunk of `Σ in-degree` edges.
fn pull_reached<K: ChunkKernel>(
    kernel: &K,
    ctx: &RoundCtx<'_>,
    frontier: &Frontier<Word<K>>,
) -> PartitionOutput<Word<K>> {
    let n = ctx.store.num_vertices();
    let in_degrees = ctx.store.in_degrees();
    let probe = probe_for::<K>(ctx, frontier);
    let current = probe.as_ref().unwrap_or(frontier).view();
    let mut out = PartitionOutput::new(OutputRepr::Sparse, 0..n as VertexId);
    let mut tally = LocalTally::new(ctx.counters);
    let mut sorted = Vec::new();
    let mut edges = 0u64;
    for_each_reached(ctx, frontier, |v| {
        edges += in_degrees[v as usize] as u64;
        if Word::<K>::PERMUTED_VISIT {
            kernel.pull(current, v, &mut out, &mut tally);
        } else {
            sorted.push(v);
        }
    });
    sorted.sort_unstable();
    for &v in &sorted {
        kernel.pull(current, v, &mut out, &mut tally);
    }
    out.finish();
    drop(tally);
    ctx.counters.add_chunks(1, edges, edges);
    // The probe goes back to the pool here, before the caller's merge,
    // which may take the buffer.
    out
}

/// Algorithm 2's sparse class as the paper runs it — a forward push over
/// the whole CSR — and the inline round of the scalar [`Exclusive`]
/// kernel: the frontier's sources in ascending order, each one's
/// out-edges in CSR order, `cond(v)` checked before each `update(u, v,
/// w)`. An activated `v` is recorded, and the one buffer sorted and
/// deduplicated once at the end ([`PartitionOutput::finish`]). No
/// discovery pass, no probe bitmap and no CSC read.
///
/// Bit-identical to pulling the reached destinations, because the CSC is
/// the CSR's transpose ([`Csc::from_csr`]): a pull of `v` applies its
/// active in-neighbours in ascending source order while `cond(v)` holds,
/// and the push reaches `v` from them in that same order under the same
/// rule. Between two updates of `v` the push updates other destinations
/// only, and a scalar operator's `update` reads `v`'s own state and state
/// frozen for the round, so each destination sees the pull's sequence.
///
/// Tallies, functions of the frontier alone: `|F|` vertices and
/// `Σ deg_out(F)` edges, one chunk of `Σ deg_out(F)` edges. The pull
/// counted the reached destinations and the in-edges it scanned up to each
/// early exit instead.
fn push_scalar<O: LaneOp<bool>>(
    op: &O,
    ctx: &RoundCtx<'_>,
    frontier: &Frontier,
) -> PartitionOutput {
    let (n, csr) = (ctx.store.num_vertices(), ctx.store.csr());
    let targets = csr.targets();
    let mut out = PartitionOutput::new(OutputRepr::Sparse, 0..n as VertexId);
    let mut tally = LocalTally::new(ctx.counters);
    frontier.for_each(|u, _| {
        tally.vertex();
        let edges = csr.edge_range(u);
        tally.edges_n(edges.len() as u64);
        for e in edges {
            let v = targets[e];
            if op.cond(v) && op.update(u, v, csr.weight_at(e), true) {
                out.push(v, true);
            }
        }
    });
    out.finish();
    drop(tally);
    let edges = frontier.degree_sum();
    ctx.counters.add_chunks(1, edges, edges);
    out
}

/// Algorithm 2's sparse-class discovery, the one walk of the chunked
/// round's sparse steps and the default inline round ([`pull_reached`]):
/// calls `first(v)` for every destination `v` that `frontier` reaches
/// through the whole CSR, once each, in discovery order. Dedup is a mark
/// bit in a [`BufferPool`] buffer, tested before it is set and handed back
/// with its touched words, so it costs the destinations reached, not
/// `|V|`; the set is a function of the frontier alone. Inlined, so the
/// default inline round's pull sits in the walk's loop.
#[inline(always)]
fn for_each_reached<W: LaneWord>(
    ctx: &RoundCtx<'_>,
    frontier: &Frontier<W>,
    mut first: impl FnMut(VertexId),
) {
    let (n, csr) = (ctx.store.num_vertices(), ctx.store.csr());
    let (words, mut touched) = ctx.scratch.take(n.div_ceil(64));
    let mut seen = Bitmap::from_zeroed_words(words, n);
    frontier.for_each(|u, _| {
        for &v in csr.neighbors(u) {
            if !seen.get(v as usize) {
                seen.set(v as usize);
                touched.push(v / 64);
                first(v);
            }
        }
    });
    ctx.scratch.put(seen.take_words(), Some(touched));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChunkCap, Config};
    use crate::frontier::FrontierData;
    use gg_graph::csr::{PartitionedCsr, PrunedCsr};
    use gg_graph::edge_list::EdgeList;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    struct TouchCount {
        hits: Vec<AtomicU32>,
    }

    impl TouchCount {
        fn new(n: usize) -> Self {
            TouchCount {
                hits: gg_runtime::atomics::atomic_u32_vec(n, 0),
            }
        }
        fn total(&self) -> u32 {
            self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
        }
    }

    impl EdgeOp for TouchCount {
        fn update(&self, _s: u32, d: u32, _w: f32) -> bool {
            self.hits[d as usize].fetch_add(1, Ordering::Relaxed);
            true
        }
        fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
            EdgeOp::update(self, s, d, w)
        }
    }

    /// The destinations one scalar chunk activates: `dsts` pulled through
    /// `kernel` into a fresh buffer of `repr` over `range`, checked to cover
    /// exactly `range`.
    fn activated<K: ChunkKernel<Lanes = Scalar>>(
        kernel: &K,
        current: FrontierView<'_>,
        (repr, range): (OutputRepr, std::ops::Range<VertexId>),
        dsts: impl Iterator<Item = VertexId>,
        counters: &WorkCounters,
    ) -> Vec<VertexId> {
        let mut tally = LocalTally::new(counters);
        let out = pull_chunk(kernel, current, repr, range.clone(), dsts, &mut tally);
        assert_eq!(out.range, range, "{repr:?}");
        assert_eq!(out.is_sparse(), repr == OutputRepr::Sparse);
        merged(vec![out], range.end as usize).to_vertex_list()
    }

    /// `outputs` merged over `n` vertices and their word's lanes.
    fn merged<W: LaneWord>(outputs: Vec<PartitionOutput<W>>, n: usize) -> Frontier<W> {
        let (deg, counters) = (vec![0; n], WorkCounters::new());
        Frontier::from_partition_outputs(outputs, n, W::LANES, &deg, &counters, None)
    }

    /// Runs every sub-chunk of `chunks` (all slices of destination 0)
    /// through `collect_hub`, as the driver's hub tasks do.
    fn collect_all<K: ChunkKernel>(
        kernel: &K,
        view: FrontierView<'_, Word<K>>,
        chunks: &[plan::Chunk],
        counters: &WorkCounters,
    ) -> Vec<ChunkOut<K>> {
        chunks
            .iter()
            .map(|c| {
                let sub = c.sub.as_ref().unwrap();
                let mut tally = LocalTally::new(counters);
                ChunkOut::Hub {
                    v: 0,
                    lo: sub.lo,
                    part: kernel.collect_hub(view, 0, sub, &mut tally),
                }
            })
            .collect()
    }

    fn build(el: &EdgeList, partitions: usize) -> (GraphStore, PartitionedExec) {
        let config = Config {
            num_partitions: partitions,
            domains: 1,
            ..Config::for_tests()
        };
        let store = GraphStore::build(el, &config);
        let exec = PartitionedExec::new(&store);
        (store, exec)
    }

    /// Runs `f` on a fresh round context over `store` — a two-worker
    /// pool, fresh counters and scratch — and returns its result with the
    /// counters.
    fn with_ctx<R>(
        store: &GraphStore,
        config: &Config,
        f: impl FnOnce(&RoundCtx<'_>) -> R,
    ) -> (R, WorkCounters) {
        let (pool, counters, kernel_counts) =
            (Pool::new(2), WorkCounters::new(), KernelCounts::default());
        let scratch = Arc::new(BufferPool::new());
        let ctx = RoundCtx {
            store,
            pool: &pool,
            config,
            counters: &counters,
            kernel_counts: &kernel_counts,
            scratch: &scratch,
        };
        (f(&ctx), counters)
    }

    /// The candidates `prepare` cuts for each partition on `frontier`,
    /// keyed by partition, under a plan that runs every partition with
    /// edges `(Sparse, Sparse)`.
    fn candidates(
        store: &GraphStore,
        exec: &PartitionedExec,
        frontier: &Frontier,
    ) -> Vec<(usize, Vec<VertexId>)> {
        let steps = exec.edge_order.iter().map(|&partition| plan::PartStep {
            partition,
            kernel: PartKernel::Sparse,
            output: OutputRepr::Sparse,
        });
        let traversal = plan::TraversalPlan {
            steps: steps.collect(),
        };
        let (cut, _) = with_ctx(store, &Config::for_tests(), |ctx| {
            let prep = exec.prepare(ctx, frontier, &traversal);
            let work = traversal.steps.iter().zip(&prep.step_work);
            work.map(|(step, work)| match work {
                StepChunks::Sparse { candidates, .. } => {
                    (step.partition, prep.reached[candidates.clone()].to_vec())
                }
                StepChunks::Dense { .. } => unreachable!("every step is sparse"),
            })
            .collect()
        });
        cut
    }

    /// Discovery's reference: scan every stored source of one partition
    /// of the pruned CSR, test membership by binary search of the list,
    /// sort, dedup.
    fn naive_candidates(part: &PrunedCsr, list: &[VertexId]) -> Vec<VertexId> {
        let mut candidates = Vec::new();
        for (j, u) in part.vertex_ids().iter().enumerate() {
            if list.binary_search(u).is_ok() {
                candidates.extend_from_slice(part.neighbors_at(j));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// The whole-CSR walk, cut at each partition's destination range,
    /// finds exactly the reference candidates of that partition's pruned
    /// CSR — for list and bitmap frontiers, on grid, power-law and R-MAT
    /// graphs, for partition counts from one to more than there are
    /// vertices. Partitions without edges are never planned, and their
    /// reference is empty.
    #[test]
    fn discovery_matches_a_full_stored_source_scan() {
        use gg_graph::generators::{chung_lu, grid_road, rmat, RmatParams};
        let graphs = [
            ("grid", grid_road(18, 18, 0.05, 3)),
            ("powerlaw", chung_lu(300, 1800, 2.1, 5)),
            ("rmat", rmat(8, 1500, RmatParams::skewed(), 7)),
        ];
        let pool = Pool::new(1);
        for (name, el) in &graphs {
            let n = el.num_vertices();
            let m = n as VertexId;
            // Nothing, one vertex, a contiguous band (a grid BFS wave),
            // scattered strides, everything.
            let lists: Vec<Vec<VertexId>> = vec![
                vec![],
                vec![m / 2],
                (m / 3..m / 3 + 25).collect(),
                (0..m).step_by(7).collect(),
                (0..m).collect(),
            ];
            for parts in [1, 2, 7, 16, n + 3] {
                let (store, exec) = build(el, parts);
                let pcsr = PartitionedCsr::from_csr(store.csr(), store.edge_parts());
                for list in &lists {
                    let out_degrees = store.out_degrees();
                    let bitmap = Bitmap::from_indices(n, list);
                    let frontiers = [
                        ("list", Frontier::from_sparse(list.clone(), n, out_degrees)),
                        ("bitmap", Frontier::from_dense(bitmap, out_degrees, &pool)),
                    ];
                    for (repr, frontier) in &frontiers {
                        assert_eq!(frontier.is_sparse_repr(), *repr == "list");
                        let mut cut = candidates(&store, &exec, frontier).into_iter().peekable();
                        for p in 0..pcsr.num_partitions() {
                            let want = naive_candidates(pcsr.part(p), list);
                            let what = format!("{name} P={parts} p={p} |F|={} {repr}", list.len());
                            match cut.next_if(|(q, _)| *q == p) {
                                Some((_, got)) => assert_eq!(got, want, "{what}"),
                                None => assert!(want.is_empty(), "{what}: not planned"),
                            }
                        }
                        assert!(cut.next().is_none(), "{name} P={parts}: steps out of order");
                    }
                }
            }
        }
    }

    /// What one driven round left behind: its next frontier, the
    /// operator's state, and its `WorkCounters` tallies.
    #[derive(Debug, PartialEq)]
    struct Driven {
        out: Vec<(VertexId, u64)>,
        state: Vec<u64>,
        edges: u64,
        vertices: u64,
        /// Planned chunk edges (Σ in-degree of the pulled destinations).
        planned: u64,
        chunks: u64,
        hub_subchunks: u64,
    }

    /// A BFS-shaped exclusive op: claim once, early exit once claimed.
    struct Claim(Vec<AtomicU32>);

    impl EdgeOp for Claim {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
            let open = EdgeOp::cond(self, d);
            if open {
                self.0[d as usize].store(s, Ordering::Relaxed);
            }
            open
        }
        fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
            EdgeOp::update(self, s, d, w)
        }
        fn cond(&self, d: u32) -> bool {
            self.0[d as usize].load(Ordering::Relaxed) == u32::MAX
        }
    }

    /// A fused BFS-shaped op over four lanes.
    struct LaneClaim(Vec<AtomicU64>);

    impl crate::fused::MultiSourceOp for LaneClaim {
        fn update(&self, _s: u32, d: u32, _w: f32, src_lanes: u64) -> u64 {
            src_lanes & !self.0[d as usize].fetch_or(src_lanes, Ordering::Relaxed)
        }
        fn cond(&self, d: u32) -> u64 {
            0b1111 & !self.0[d as usize].load(Ordering::Relaxed)
        }
    }

    /// A fused reduce op over up to four lanes: per destination and lane,
    /// the f64 sum of `1 / (src + 1 + lane)` over the in-edges active in
    /// that lane — inexact, so any change in the grouping of the fold
    /// shows in the bits — and the lanes that ever arrived.
    struct LaneSum {
        /// `sum[4 * d + k]`: lane `k` of destination `d`.
        sum: Vec<gg_runtime::atomics::AtomicF64>,
        seen: Vec<AtomicU64>,
    }

    impl LaneSum {
        fn new(n: usize) -> Self {
            LaneSum {
                sum: gg_runtime::atomics::atomic_f64_vec(4 * n, 0.0),
                seen: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }
        }

        /// Every lane sum's bits, then the seen mask, per destination.
        fn state(&self) -> Vec<u64> {
            let lanes = self.sum.chunks(4).zip(&self.seen);
            lanes
                .flat_map(|(sums, seen)| {
                    let bits = sums.iter().map(|x| x.load().to_bits());
                    bits.chain([seen.load(Ordering::Relaxed)])
                })
                .collect()
        }
    }

    impl crate::fused::MultiSourceOp for LaneSum {
        fn update(&self, _s: u32, _d: u32, _w: f32, _lanes: u64) -> u64 {
            unreachable!("reduce kernels never call update")
        }
    }

    impl crate::fused::MultiSourceReduce for LaneSum {
        type Acc = ([f64; 4], u64);
        fn identity(&self) -> ([f64; 4], u64) {
            ([0.0; 4], 0)
        }
        fn accumulate(&self, acc: &mut ([f64; 4], u64), s: u32, _w: f32, lanes: u64) {
            for (k, sum) in acc.0.iter_mut().enumerate() {
                if lanes >> k & 1 != 0 {
                    *sum += 1.0 / (s as usize + 1 + k) as f64;
                }
            }
            acc.1 |= lanes;
        }
        fn apply(&self, d: u32, acc: &([f64; 4], u64)) -> u64 {
            for (k, &sum) in acc.0.iter().enumerate() {
                self.sum[4 * d as usize + k].add_exclusive(sum);
            }
            acc.1 & !self.seen[d as usize].fetch_or(acc.1, Ordering::Relaxed)
        }
    }

    /// Runs one round of `kernel` through the inline or the chunked half
    /// of `run` (the plan is the one `run` would make) with fresh
    /// counters and scratch.
    fn drive<K: ChunkKernel>(
        store: &GraphStore,
        exec: &PartitionedExec,
        config: &Config,
        frontier: &Frontier<Word<K>>,
        kernel: &K,
        inline: bool,
    ) -> (Frontier<Word<K>>, WorkCounters) {
        with_ctx(store, config, |ctx| {
            if inline {
                exec.run_inline(ctx, frontier, kernel)
            } else {
                exec.run_chunked(ctx, frontier, kernel, &exec.plan(ctx, frontier))
            }
        })
    }

    fn driven<W: LaneWord>(out: &Frontier<W>, state: Vec<u64>, c: &WorkCounters) -> Driven {
        let mut words = Vec::new();
        out.for_each(|v, w| words.push((v, w.bits())));
        Driven {
            out: words,
            state,
            edges: c.edges(),
            vertices: c.vertices(),
            planned: (c.mean_chunk_edges() * c.chunks() as f64).round() as u64,
            chunks: c.chunks(),
            hub_subchunks: c.hub_subchunks(),
        }
    }

    /// One round of each kernel on each lane word on `frontier` through
    /// one half of `run`, each on freshly initialised operator state.
    fn drive_all(
        store: &GraphStore,
        exec: &PartitionedExec,
        config: &Config,
        frontier: &Frontier,
        inline: bool,
    ) -> [Driven; 4] {
        let n = store.num_vertices();
        let csc = store.csc();
        // Every third vertex starts claimed, so `cond` skips some pulls.
        let claimed = |v: usize| v.is_multiple_of(3);

        let op = Claim(
            (0..n)
                .map(|v| AtomicU32::new(if claimed(v) { 0 } else { u32::MAX }))
                .collect(),
        );
        let (out, c) = drive(
            store,
            exec,
            config,
            frontier,
            &Exclusive {
                csc,
                lanes: Scalar,
                op: &op,
            },
            inline,
        );
        let state =
            op.0.iter()
                .map(|x| x.load(Ordering::Relaxed) as u64)
                .collect();
        let exclusive = driven(&out, state, &c);

        let op = SumInto::new(n);
        let (out, c) = drive(
            store,
            exec,
            config,
            frontier,
            &Quantum {
                csc,
                lanes: Scalar,
                op: &op,
            },
            inline,
        );
        let state = (0..n).map(|v| op.at(v).to_bits()).collect();
        let quantum = driven(&out, state, &c);

        // Lane words hashed from the vertex id: one to four lanes each.
        let mut words = PartitionOutput::new(OutputRepr::Sparse, 0..n as VertexId);
        frontier.for_each(|v, _| words.push(v, 1 + (v as u64 * 0x9E37) % 15));
        let (deg, counters) = (store.out_degrees(), WorkCounters::new());
        let fused = Frontier::from_partition_outputs(vec![words], n, 4, deg, &counters, None);
        let round = || crate::fused::FusedRound::new(store.csr(), &fused);

        let op = LaneClaim(
            (0..n)
                .map(|v| AtomicU64::new(if claimed(v) { 0b0101 } else { 0 }))
                .collect(),
        );
        let kernel = Exclusive {
            csc,
            lanes: round(),
            op: &op,
        };
        let (out, c) = drive(store, exec, config, &fused, &kernel, inline);
        let state = op.0.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        let fused_exclusive = driven(&out, state, &c);

        let op = LaneSum::new(n);
        let kernel = Quantum {
            csc,
            lanes: round(),
            op: &op,
        };
        let (out, c) = drive(store, exec, config, &fused, &kernel, inline);
        let state = op.state();
        let fused_quantum = driven(&out, state, &c);

        [exclusive, quantum, fused_exclusive, fused_quantum]
    }

    /// The inline round is the chunked round: over grid / power-law /
    /// R-MAT graphs, P from one to more than there are vertices, frontiers
    /// just below and just above the floor plus one whose candidate hub
    /// outweighs the cap, the `Auto` and a tiny fixed cap, and both
    /// kernels on both lane words, both halves of `run` produce the same
    /// next frontier and the same operator state — for the scalar
    /// exclusive kernel, a push along the CSR against a pull over the CSC.
    /// That push tallies one chunk of `Σ deg_out(F)` edges, `|F|` vertices
    /// and `Σ deg_out(F)` scanned edges. The pulling inline rounds, where
    /// the plan is all `(Sparse, Sparse)` — the only rounds `run` takes
    /// inline — also pull the same destinations (vertex tallies), plan the
    /// same edges (one inline chunk of Σ in-degree) and, when no hub was
    /// split, scan the same edges; a split hub's slices scan in full, the
    /// whole pull stops at its early exit, so there the inline round scans
    /// at most as many.
    #[test]
    fn inline_round_matches_the_chunked_round() {
        use gg_graph::generators::{chung_lu, grid_road, rmat, RmatParams};
        let floor = plan::HUB_SPLIT_OVERHEAD_EDGES;
        let graphs = [
            ("grid", grid_road(150, 150, 0.05, 3)),
            ("powerlaw", chung_lu(6000, 90_000, 2.1, 5)),
            ("rmat", rmat(13, 90_000, RmatParams::skewed(), 7)),
        ];
        for (name, el) in &graphs {
            let n = el.num_vertices();
            let (out_deg, in_deg) = (el.out_degrees(), el.in_degrees());
            // A contiguous band (a BFS wave) grown to the last vertex that
            // keeps |F| + Σ deg_out(F) within the floor, and one past it.
            let mut below: Vec<VertexId> = Vec::new();
            let mut metric = 0u64;
            let mut v = n / 3;
            while metric + 1 + out_deg[v] as u64 <= floor {
                metric += 1 + out_deg[v] as u64;
                below.push(v as VertexId);
                v = (v + 1) % n;
            }
            let mut above = below.clone();
            above.push(v as VertexId);
            // A few in-neighbours of the heaviest destination.
            let hub = (0..n).max_by_key(|&v| in_deg[v]).unwrap();
            assert!(
                in_deg[hub] > 4,
                "{name}: the hub must outweigh the fixed cap"
            );
            let (src, dst) = (el.srcs(), el.dsts());
            let feeders: Vec<VertexId> = (0..el.num_edges())
                .filter(|&e| dst[e] as usize == hub)
                .map(|e| src[e])
                .take(3)
                .collect();
            let frontiers = [("below", below), ("above", above), ("hub", feeders)];

            for parts in [1, 2, 7, 16, n + 3] {
                let (store, exec) = build(el, parts);
                // One executor per cap: each memoises its own dense plans.
                let per_cap = [ChunkCap::Auto, ChunkCap::Fixed(4)]
                    .map(|cap| (cap, PartitionedExec::new(&store)));
                for (fname, list) in &frontiers {
                    let frontier = Frontier::from_sparse(list.clone(), n, store.out_degrees());
                    match *fname {
                        "below" => assert!(frontier.density_metric() <= floor),
                        "above" => assert!(frontier.density_metric() > floor),
                        _ => {}
                    }
                    let traversal = exec.round_plan(&store, &Config::for_tests(), &frontier);
                    let all_sparse = traversal
                        .steps
                        .iter()
                        .all(|s| s.kernel == PartKernel::Sparse && s.output == OutputRepr::Sparse);
                    // One partition of ~90k edges plans every frontier
                    // here sparse: the floor, not the plan, decides.
                    assert!(all_sparse || parts > 1, "{name} {fname}: P=1 plan");
                    assert_eq!(
                        runs_inline(&frontier, &traversal),
                        all_sparse && *fname != "above",
                        "{name} P={parts} {fname}: the gate"
                    );
                    for (cap, exec) in &per_cap {
                        let cap = *cap;
                        let config = Config {
                            chunk_edges: cap,
                            ..Config::for_tests()
                        };
                        let inline = drive_all(&store, exec, &config, &frontier, true);
                        let chunked = drive_all(&store, exec, &config, &frontier, false);
                        let kernels = [
                            "Exclusive<bool>",
                            "Quantum<bool>",
                            "Exclusive<u64>",
                            "Quantum<u64>",
                        ];
                        for ((k, a), b) in kernels.iter().zip(&inline).zip(&chunked) {
                            let what = format!("{name} P={parts} {fname} {cap:?} {k}");
                            assert_eq!(a.out, b.out, "{what}: next frontier");
                            assert!(a.state == b.state, "{what}: operator state");
                            assert_eq!((a.chunks, a.hub_subchunks), (1, 0), "{what}");
                            if *k == "Exclusive<bool>" {
                                // The push's tallies: every source and
                                // every out-edge, whatever `cond` says.
                                let pushed = (frontier.len() as u64, frontier.degree_sum());
                                assert_eq!((a.vertices, a.edges), pushed, "{what}: pushed");
                                assert_eq!(a.planned, pushed.1, "{what}: planned edges");
                                continue;
                            }
                            if !all_sparse {
                                continue;
                            }
                            assert_eq!(a.vertices, b.vertices, "{what}: pulls");
                            assert_eq!(a.planned, b.planned, "{what}: planned edges");
                            if b.hub_subchunks == 0 {
                                assert_eq!(a.edges, b.edges, "{what}: scanned edges");
                            } else {
                                assert!(a.edges <= b.edges, "{what}: scanned edges");
                            }
                        }
                        if *fname == "hub" && cap == ChunkCap::Fixed(4) {
                            assert!(chunked[0].hub_subchunks > 0, "{name} P={parts}: no split");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn views_cover_all_partitions_and_edges() {
        let el = gg_graph::generators::rmat(7, 900, gg_graph::generators::RmatParams::skewed(), 3);
        let (store, exec) = build(&el, 6);
        assert_eq!(exec.views().len(), store.num_partitions());
        let total: u64 = exec.views().iter().map(|v| v.num_edges).sum();
        assert_eq!(total, 900);
        // Edge order lists the partitions with edges, ascending.
        let with_edges: Vec<usize> = (0..store.num_partitions())
            .filter(|&p| exec.views()[p].num_edges > 0)
            .collect();
        assert_eq!(exec.edge_order, with_edges);
    }

    #[test]
    fn empty_partitions_never_enter_the_order() {
        // 3 vertices spread over 10 partitions: 7+ empty trailing views.
        let el = EdgeList::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let (store, exec) = build(&el, 10);
        assert_eq!(store.num_partitions(), 10);
        assert!(exec.edge_order.as_slice().len() <= 3);
        let empties = store.edge_parts().empty_partitions();
        assert!(!empties.is_empty());
        for p in empties {
            assert!(!exec.edge_order.as_slice().contains(&p));
        }
    }

    /// Per partition, the dense kernel pulling the whole range against a
    /// bitmap and the sparse kernel pulling only the candidates `prepare`
    /// cuts for it from the whole-CSR walk apply the same updates and
    /// activate the same destinations.
    #[test]
    fn both_kernels_apply_identical_updates() {
        let el = gg_graph::generators::rmat(7, 700, gg_graph::generators::RmatParams::skewed(), 8);
        let n = el.num_vertices();
        let (store, exec) = build(&el, 4);
        let actives: Vec<u32> = (0..n as u32).step_by(5).collect();
        let bitmap = Bitmap::from_indices(n, &actives);
        let frontier = Frontier::from_sparse(actives.clone(), n, store.out_degrees());
        let counters = WorkCounters::new();
        let csc = store.csc();

        for (p, candidates) in candidates(&store, &exec, &frontier) {
            let range = exec.views()[p].dst_range.clone();
            // The dense partition kernel: pull every destination of the
            // range against the bitmap.
            let op_dense = TouchCount::new(n);
            let dense = activated(
                &Exclusive {
                    csc,
                    lanes: Scalar,
                    op: &op_dense,
                },
                FrontierView::Dense(&bitmap),
                (OutputRepr::Dense, range.clone()),
                range.clone(),
                &counters,
            );
            // The sparse partition kernel: pull exactly the partition's
            // candidates, ascending.
            let op_sparse = TouchCount::new(n);
            let sparse = activated(
                &Exclusive {
                    csc,
                    lanes: Scalar,
                    op: &op_sparse,
                },
                frontier.view(),
                (OutputRepr::Sparse, range),
                candidates.into_iter(),
                &counters,
            );
            assert_eq!(op_dense.total(), op_sparse.total(), "partition {p}");
            assert_eq!(dense, sparse, "partition {p}");
        }
    }

    /// Splitting a mega-hub's in-edge scan into collected partials and
    /// replaying them through `resolve_hubs` applies exactly the updates
    /// the unsplit scan applies, and resolves to the same activation.
    #[test]
    fn hub_partial_collect_and_reduce_match_unsplit_pull() {
        // A star: 200 sources all pointing at destination 0.
        let n = 201usize;
        let mut el = EdgeList::new(n);
        for s in 1..201u32 {
            el.push(s, 0);
        }
        let (store, _exec) = build(&el, 1);
        let csc = store.csc();
        let counters = WorkCounters::new();
        let actives: Vec<u32> = (1..201).step_by(3).collect();
        let frontier = Frontier::from_sorted(actives, n, &vec![0; n]);
        let view = frontier.view();

        // Unsplit reference.
        let op_ref = TouchCount::new(n);
        let kernel = Exclusive {
            csc,
            lanes: Scalar,
            op: &op_ref,
        };
        let want = activated(
            &kernel,
            view,
            (OutputRepr::Sparse, 0..1),
            [0].into_iter(),
            &counters,
        );

        // Split into sub-chunks of 16 edges, collect, then reduce.
        let chunks = plan::chunk_dense_range(csc.offsets(), 0..1, 16, plan::HubSplit::Always);
        assert!(chunks.len() > 1 && chunks.iter().all(|c| c.sub.is_some()));
        let op_split = TouchCount::new(n);
        let kernel = Exclusive {
            csc,
            lanes: Scalar,
            op: &op_split,
        };
        let outputs = collect_all(&kernel, view, &chunks, &counters);
        assert_eq!(
            op_split.total(),
            0,
            "collection must not apply the operator"
        );
        let reduced = resolve_hubs(&kernel, outputs);
        assert_eq!(reduced.len(), 1, "one resolved output per split hub");
        assert_eq!(op_split.total(), op_ref.total(), "same applied updates");
        match &reduced[0].data {
            FrontierData::Sparse { verts: list, .. } => assert_eq!(list, &want),
            other => panic!("expected a resolved sparse output, got {other:?}"),
        }
        assert_eq!(reduced[0].range, 0..1);
    }

    /// The replay honours `cond` early exit exactly like the unsplit scan:
    /// a claim-once operator applies one update no matter how many active
    /// contributions the sub-chunks collected past the claim.
    #[test]
    fn hub_partial_reduce_honours_cond_early_exit() {
        struct ClaimOnce {
            claimed: AtomicU32,
            applied: AtomicU32,
        }
        impl EdgeOp for ClaimOnce {
            fn update(&self, _s: u32, _d: u32, _w: f32) -> bool {
                self.applied.fetch_add(1, Ordering::Relaxed);
                self.claimed.store(1, Ordering::Relaxed);
                true
            }
            fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
                EdgeOp::update(self, s, d, w)
            }
            fn cond(&self, _d: u32) -> bool {
                self.claimed.load(Ordering::Relaxed) == 0
            }
        }
        let n = 101usize;
        let mut el = EdgeList::new(n);
        for s in 1..101u32 {
            el.push(s, 0);
        }
        let (store, _exec) = build(&el, 1);
        let csc = store.csc();
        let counters = WorkCounters::new();
        let actives: Vec<u32> = (1..101).collect();
        let frontier = Frontier::from_sorted(actives, n, &vec![0; n]);
        let view = frontier.view();

        let chunks = plan::chunk_dense_range(csc.offsets(), 0..1, 10, plan::HubSplit::Always);
        let op = ClaimOnce {
            claimed: AtomicU32::new(0),
            applied: AtomicU32::new(0),
        };
        let kernel = Exclusive {
            csc,
            lanes: Scalar,
            op: &op,
        };
        let outputs = collect_all(&kernel, view, &chunks, &counters);
        let reduced = resolve_hubs(&kernel, outputs);
        assert_eq!(
            op.applied.load(Ordering::Relaxed),
            1,
            "cond early exit must stop the replay after the claim"
        );
        match &reduced[0].data {
            FrontierData::Sparse { verts: list, .. } => assert_eq!(list, &vec![0u32]),
            other => panic!("the claimed hub must activate, got {other:?}"),
        }
    }

    /// Both planned output representations record exactly the
    /// destinations with an active in-neighbour (every update of
    /// `TouchCount` activates).
    #[test]
    fn typed_outputs_record_every_activated_destination() {
        let el = gg_graph::generators::rmat(7, 700, gg_graph::generators::RmatParams::skewed(), 4);
        let n = el.num_vertices();
        let (store, exec) = build(&el, 4);
        let csc = store.csc();
        let actives: Vec<u32> = (0..n as u32).step_by(3).collect();
        let frontier = Frontier::from_sorted(actives, n, &vec![0; n]);
        let view = frontier.view();
        let counters = WorkCounters::new();

        for &p in exec.edge_order.as_slice() {
            let range = exec.views()[p].dst_range.clone();
            let want: Vec<u32> = range
                .clone()
                .filter(|&v| csc.edge_range(v).any(|e| view.contains(csc.sources()[e])))
                .collect();
            for repr in [OutputRepr::Sparse, OutputRepr::Dense] {
                let op = TouchCount::new(n);
                let kernel = Exclusive {
                    csc,
                    lanes: Scalar,
                    op: &op,
                };
                let got = activated(
                    &kernel,
                    view,
                    (repr, range.clone()),
                    range.clone(),
                    &counters,
                );
                assert_eq!(got, want, "partition {p} {repr:?}");
            }
        }
    }

    /// A sum operator on the reduce path: accumulates `src + 1` so the
    /// f64 grouping of the fold is observable.
    struct SumInto {
        acc: Vec<gg_runtime::atomics::AtomicF64>,
    }

    impl SumInto {
        fn new(n: usize) -> Self {
            SumInto {
                acc: gg_runtime::atomics::atomic_f64_vec(n, 0.0),
            }
        }
        fn at(&self, v: usize) -> f64 {
            self.acc[v].load()
        }
    }

    impl EdgeOp for SumInto {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
            self.acc[d as usize].add_exclusive((s + 1) as f64);
            true
        }
        fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
            EdgeOp::update(self, s, d, w)
        }
    }

    impl EdgeMapReduce for SumInto {
        fn identity(&self) -> f64 {
            0.0
        }
        fn accumulate(&self, acc: f64, src: u32, _w: f32) -> f64 {
            acc + (src + 1) as f64
        }
        fn apply(&self, dst: u32, acc: f64) -> bool {
            self.acc[dst as usize].add_exclusive(acc);
            true
        }
    }

    /// Pre-reducing a split hub through `Quantum::collect_hub` +
    /// `resolve_hubs` is bit-identical to the unsplit quantum-folded scan,
    /// for sub-chunk caps both smaller and larger than the quantum and for
    /// caps not aligned to it — on the scalar word, and on a two-lane
    /// fused word whose per-lane sums are inexact, so folding any quantum
    /// in a different grouping shows in the bits.
    #[test]
    fn hub_reduce_partials_match_unsplit_quantum_fold() {
        let n = 301usize;
        let mut el = EdgeList::new(n);
        for s in 1..301u32 {
            el.push(s, 0);
        }
        let (store, _exec) = build(&el, 1);
        let csc = store.csc();
        let counters = WorkCounters::new();
        let actives: Vec<u32> = (1..301).step_by(2).collect();
        let frontier = Frontier::from_sorted(actives, n, &vec![0; n]);
        let view = frontier.view();
        // Sources active in lane 0 (odd ids), lane 1 (multiples of 3) or
        // both; the rest are inactive.
        let mut words = PartitionOutput::new(OutputRepr::Sparse, 0..n as VertexId);
        for s in 1..301u32 {
            let m = (s % 2) as u64 | ((s % 3 == 0) as u64) << 1;
            if m != 0 {
                words.push(s, m);
            }
        }
        let fused = merged(vec![words], n);
        let fused_view = fused.view();
        let lanes = || crate::fused::FusedRound::new(store.csr(), &fused);
        let fused_out = |out: PartitionOutput<u64>| {
            let mut got = Vec::new();
            merged(vec![out], n).for_each(|v, m| got.push((v, m)));
            got
        };

        // Unsplit references: one quantum-folded scan per word.
        let op_ref = SumInto::new(n);
        let kernel = Quantum {
            csc,
            lanes: Scalar,
            op: &op_ref,
        };
        let one = (OutputRepr::Sparse, 0..1);
        let want = activated(&kernel, view, one.clone(), [0].into_iter(), &counters);
        assert_eq!(want, vec![0]);
        let lane_ref = LaneSum::new(n);
        let kernel = Quantum {
            csc,
            lanes: lanes(),
            op: &lane_ref,
        };
        let mut tally = LocalTally::new(&counters);
        let out = pull_chunk(
            &kernel,
            fused_view,
            one.0,
            one.1,
            [0].into_iter(),
            &mut tally,
        );
        drop(tally);
        let lane_want = fused_out(out);
        assert_eq!(lane_want, vec![(0, 0b11)]);

        // Caps below, above and misaligned with REDUCE_QUANTUM.
        for cap in [7usize, 16, 64, 100, 250] {
            let chunks = plan::chunk_dense_range(csc.offsets(), 0..1, cap, plan::HubSplit::Always);
            assert!(chunks.iter().all(|c| c.sub.is_some()), "cap {cap}");
            let op = SumInto::new(n);
            let kernel = Quantum {
                csc,
                lanes: Scalar,
                op: &op,
            };
            let outputs = collect_all(&kernel, view, &chunks, &counters);
            assert_eq!(op.at(0).to_bits(), 0f64.to_bits(), "collect must defer");
            let reduced = resolve_hubs(&kernel, outputs);
            assert_eq!(reduced.len(), 1, "cap {cap}");
            assert_eq!(
                op.at(0).to_bits(),
                op_ref.at(0).to_bits(),
                "cap {cap}: split fold must be bit-identical to unsplit"
            );
            match &reduced[0].data {
                FrontierData::Sparse { verts: list, .. } => assert_eq!(list, &want, "cap {cap}"),
                other => panic!("expected resolved sparse output, got {other:?}"),
            }

            let op = LaneSum::new(n);
            let kernel = Quantum {
                csc,
                lanes: lanes(),
                op: &op,
            };
            let outputs = collect_all(&kernel, fused_view, &chunks, &counters);
            assert_eq!(op.state(), LaneSum::new(n).state(), "collect must defer");
            let mut reduced = resolve_hubs(&kernel, outputs);
            assert_eq!(reduced.len(), 1, "cap {cap}");
            assert_eq!(
                op.state(),
                lane_ref.state(),
                "cap {cap}: per-lane split folds must be bit-identical to unsplit"
            );
            assert_eq!(
                fused_out(reduced.pop().unwrap()),
                lane_want,
                "cap {cap}: lanes"
            );
        }
    }

    /// One chunked round of the quantum (inexact sum) kernel on `lanes`
    /// over the all-active frontier, on fresh operator state and a fresh
    /// executor under `cap`.
    fn full_round<L: Lanes<Word = bool>>(store: &GraphStore, cap: ChunkCap, lanes: L) -> Driven {
        let (n, csc) = (store.num_vertices(), store.csc());
        let frontier = Frontier::all(n, store.num_edges() as u64);
        let config = Config {
            chunk_edges: cap,
            ..Config::for_tests()
        };
        let op = SumInto::new(n);
        let kernel = Quantum {
            csc,
            lanes,
            op: &op,
        };
        let (out, c) = drive(
            store,
            &PartitionedExec::new(store),
            &config,
            &frontier,
            &kernel,
            false,
        );
        let state = (0..n).map(|v| op.at(v).to_bits()).collect();
        driven(&out, state, &c)
    }

    /// On the all-active frontier, `AllActive` lanes are `Scalar` lanes
    /// reading the full bitmap: the quantum kernel activates the same
    /// vertices, leaves bitwise-identical sums and tallies the same edges,
    /// vertices and chunks — at caps below, above and misaligned with
    /// `REDUCE_QUANTUM`, where the star hub's scan splits, and unbounded.
    #[test]
    fn all_active_lanes_match_scalar_on_a_full_frontier() {
        use gg_graph::generators::{rmat, RmatParams};
        let mut el = rmat(9, 4000, RmatParams::skewed(), 11);
        for s in 1..el.num_vertices() as VertexId {
            el.push(s, 0);
        }
        let caps = [7, 16, 64, 100, 250, usize::MAX].map(ChunkCap::Fixed);
        for parts in [1, 4] {
            let (store, _) = build(&el, parts);
            for cap in caps.into_iter().chain([ChunkCap::Auto]) {
                let scalar = full_round(&store, cap, Scalar);
                let all = full_round(&store, cap, AllActive);
                let what = format!("P={parts} {cap:?}");
                assert_eq!(all.out, scalar.out, "{what}: activated");
                assert!(all.state == scalar.state, "{what}: sums");
                assert_eq!(all, scalar, "{what}: tallies");
                assert!(!all.out.is_empty(), "{what}: nothing activated");
                if matches!(cap, ChunkCap::Fixed(c) if c < 500) {
                    assert!(all.hub_subchunks > 0, "{what}: the hub did not split");
                }
            }
        }
    }
}
