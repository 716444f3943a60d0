//! The partition-parallel execution path: **one driver, four kernels**.
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
//! [`ChunkCap`](crate::config::ChunkCap) with **mega-hub** in-edge
//! splitting, the single chunk-task epoch, hub resolution and the
//! merge. A kernel supplies only what differs: its sink, its
//! per-destination inner loop, how one slice of a split hub is collected
//! and how a hub's slices resolve, and the merge into its frontier type.
//!
//! ```text
//!            frontier F ──────▶ TraversalPlan (gg_core::plan)
//!                │     per-partition |F ∩ R_p| + Σdeg(F ∩ R_p):
//!                │     (kernel, output-repr) per non-empty partition
//!                ▼
//!   |F| + Σdeg(F) ≤ HUB_SPLIT_OVERHEAD_EDGES and every step
//!   (Sparse, Sparse)? ── yes ──▶ run_inline, on the dispatcher: walk
//!                │        the whole CSR forward from F, pull each first-
//!                │        seen destination (pooled mark bitmap) into one
//!                │        sparse sink over 0..|V| — no discovery per
//!                │        partition, no chunks, no task list, no epoch,
//!                │        no hub split — then K::merge of one buffer
//!                no                                 (WorkCounters: 1 chunk)
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
//!     list is in (domain-major partition, chunk) order and each worker
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
//!  K::merge — (partition, chunk)-order concat of resolved buffers
//!    all sparse → sorted list, O(Σ outputs), no |V|-proportional work
//!    any dense  → splice into a whole-graph bitmap (scalar: recycled
//!                 through BufferPool, cost in merge_words()) or lane
//!                 bitmap (fused: cost in lane_union_words())
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
//!   selections are recorded in [`KernelCounts`]. Fused rounds plan on
//!   the **union** frontier, so they chunk and schedule exactly like a
//!   scalar round over the same active set.
//! * **Inline rounds** — a round whose frontier metric `|F| + Σ deg_out(F)`
//!   is at most [`plan::HUB_SPLIT_OVERHEAD_EDGES`] (one chunk's scheduling
//!   overhead in edge equivalents) and whose plan is all `(Sparse,
//!   Sparse)` runs on the dispatcher as one chunk — Algorithm 2's sparse
//!   class: a forward walk of the whole CSR, destinations deduplicated in
//!   a mark bitmap from the engine's [`BufferPool`] and pulled into one
//!   sparse sink, in discovery order when the kernel's sink sorts
//!   ([`PERMUTED_VISIT`](ChunkKernel::PERMUTED_VISIT)), ascending
//!   otherwise. The candidates are the union of the partitions'
//!   discovered sets and a hub is pulled whole, so the updates are the
//!   chunked round's. The gate reads only the frontier and the static
//!   views, so every thread count and chunk cap takes the same path.
//! * **Chunking** — a dense step splits its destination range at
//!   CSC-offset boundaries ([`plan::chunk_dense_range`], memoised per
//!   partition); a sparse step first discovers the destinations reachable
//!   from the frontier ([`discover_candidates`]) and slices that sorted
//!   list ([`plan::chunk_candidates`]). Discovery joins a sparse frontier
//!   list with the partition's pruned-CSR stored sources, clipped to their
//!   id span and galloped, so a partition costs the frontier vertices that
//!   fall inside its span rather than a search per frontier vertex; a
//!   dense frontier is tested once per stored source. A destination whose
//!   in-degree alone exceeds the cap splits into per-scan sub-chunks
//!   ([`plan::Chunk::sub`]) when the planner's
//!   [`HubSplit`](crate::plan::HubSplit) cost model says splitting pays.
//!   Chunks of one partition own disjoint destinations, and a sub-chunk
//!   defers its writes, so every destination keeps exactly one writer.
//! * **Kernels** — four `ChunkKernel`s, all destination-major in CSC
//!   adjacency order, so the applied update sequence is independent of the
//!   planned kernel, the output representation, and the partition, chunk
//!   and thread counts:
//!
//!   | kernel | operator | per-destination scan | split-hub slice → resolution |
//!   |---|---|---|---|
//!   | `Exclusive` | [`EdgeOp`] | apply active in-edges while `cond` holds | active `(src, w)` → sequential replay, same exit rule |
//!   | `Quantum` | [`EdgeMapReduce`] | fold per [`REDUCE_QUANTUM`]-edge run, apply per non-empty quantum | covered quanta pre-folded, straddled ones raw → merge by quantum index |
//!   | `FusedExclusive` | [`MultiSourceOp`](crate::fused::MultiSourceOp) | K-lane update until every deliverable lane activated | active `(src, w, lanes)` → sequential replay, same exit rule |
//!   | `FusedQuantum` | [`MultiSourceReduce`](crate::fused::MultiSourceReduce) | per-lane fold per quantum | raw `(quantum, src, w, lanes)` → re-fold per quantum |
//!
//!   Quantum boundaries sit at absolute multiples of the quantum within a
//!   destination's scan, so the f64 grouping — hence the result, bit for
//!   bit — is a property of the destination alone, whether the scan ran
//!   whole or split at any cap. The scalar kernels test source membership
//!   with one bit read per in-edge: a dense frontier lends its bitmap, a
//!   sparse one sets its bits in a buffer from the engine's
//!   [`BufferPool`] for the epoch (`O(|F|)` to build and to clean).
//! * **Visit order** — a dense chunk may visit its destinations in the
//!   partition's layout-derived order (first appearance in its COO edge
//!   array) instead of ascending; `ChunkKernel::PERMUTED_VISIT` says
//!   whether a kernel's sink tolerates that.
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

use gg_graph::bitmap::{Bitmap, BitmapSegment};
use gg_graph::csc::Csc;
use gg_graph::csr::PrunedCsr;
use gg_graph::reorder::EdgeOrder;
use gg_graph::types::{EdgeId, VertexId};
use gg_runtime::buffer::BufferPool;
use gg_runtime::counters::{LocalTally, WorkCounters};
use gg_runtime::pool::Pool;
use gg_runtime::schedule::PartitionSchedule;

use crate::config::Config;
use crate::edge_map::{EdgeMapReduce, EdgeOp, REDUCE_QUANTUM};
use crate::engine::KernelCounts;
use crate::frontier::{Frontier, FrontierData, FrontierView, PartitionOutput, PartitionOutputData};
use crate::plan::{self, OutputRepr};
use crate::store::GraphStore;

/// Which per-partition kernel a partition selected for one edge map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartKernel {
    /// CSR-indexed candidate discovery + CSC-ordered pull of candidates.
    Sparse,
    /// Full CSC-ordered pull of the partition's destination range.
    Dense,
}

/// A materialised per-partition subgraph view: the partition's destination
/// range plus the metadata the executor consults per iteration. The edge
/// storage itself is shared (whole-graph CSC) or owned by the store's
/// partitioned CSR; views add no per-partition edge copies.
#[derive(Clone, Debug)]
pub struct PartitionView {
    /// Partition index in the engine's `PartitionSet`.
    pub index: usize,
    /// Destinations owned by this partition (Equation 1).
    pub dst_range: std::ops::Range<VertexId>,
    /// In-edges homed to this partition.
    pub num_edges: u64,
    /// Simulated NUMA domain owning the partition.
    pub domain: usize,
    /// Destinations in the range with at least one in-edge — the pruned
    /// CSR's distinct-target count, and therefore a frontier-independent
    /// upper bound on the partition's output size. The planner's `Auto`
    /// output rule uses it to emit sparse lists from dense-kernel
    /// partitions whose output is provably small (see
    /// [`plan::output_for`]).
    pub distinct_dsts: u64,
    /// The partition's effective COO edge layout — fixed globally by
    /// [`LayoutPolicy::Fixed`](crate::config::LayoutPolicy) or chosen per
    /// partition by the memsim layout advisor. The dense kernel visits its
    /// destinations in this order (see [`PartitionedExec::visit_orders`]).
    pub layout: EdgeOrder,
}

/// The partition-parallel executor: per-partition views plus the pool
/// submission order (domain-major, empty partitions dropped).
#[derive(Debug)]
pub(crate) struct PartitionedExec {
    views: Vec<PartitionView>,
    /// Partitions with at least one edge, in NUMA-domain-major order.
    edge_order: Vec<usize>,
    /// Partitions with a non-empty vertex range, in NUMA-domain-major
    /// order (vertex maps have work even in edge-free partitions).
    vertex_order: Vec<usize>,
    /// Lazily memoised dense chunk decompositions, one slot per partition.
    /// A dense kernel's chunking depends only on the CSC offsets, the
    /// partition's destination range, the resolved cap and the hub-split
    /// policy — all fixed for an engine's lifetime — so the `O(|V_p|)`
    /// offset scan in `chunk_by_weight` runs once per partition instead of
    /// once per round (on a 10-iteration PageRank that scan was the whole
    /// wall-clock gap between finite caps and partition-granular plans).
    /// Each slot records the `(cap, policy)` it was computed under and is
    /// bypassed, not invalidated, if a caller ever plans with different
    /// settings.
    dense_plans: Vec<std::sync::OnceLock<DensePlan>>,
    /// Per-partition destination **visit order** for the dense kernel,
    /// derived from the partition's COO layout: the first-appearance order
    /// of destinations in the layout-sorted edge array (zero-in-degree
    /// destinations appended ascending). `None` means ascending — the
    /// natural CSC range scan — which is always the case for
    /// [`EdgeOrder::Destination`]. Permuting the visit order is
    /// bit-identity-safe: each destination's in-edge scan stays
    /// CSC-ordered and self-contained, and the executor already runs
    /// destinations in arbitrary temporal order across chunks (see the
    /// determinism contract above).
    visit_orders: Vec<Option<Arc<Vec<VertexId>>>>,
}

/// A partition's dense chunk list plus optional per-chunk destination
/// visit lists (see [`DensePlan::visit`]).
type DenseChunks = (Arc<Vec<plan::Chunk>>, Option<Arc<Vec<Vec<VertexId>>>>);

/// One partition's cached dense chunk decomposition plus the settings it
/// was planned under (see [`PartitionedExec::dense_plans`]).
#[derive(Debug)]
struct DensePlan {
    cap: usize,
    hub_split: plan::HubSplit,
    chunks: Arc<Vec<plan::Chunk>>,
    /// Per-chunk destination visit lists (parallel to `chunks`), present
    /// only when the partition's layout permutes the visit order: the
    /// partition visit order bucketed by non-sub chunk span. Sub-chunk
    /// (split-hub) slots are empty — a hub's scan is span-defined.
    visit: Option<Arc<Vec<Vec<VertexId>>>>,
}

impl PartitionedExec {
    /// Builds the views from the store's edge-balanced destination
    /// partitions and the NUMA schedule.
    pub fn new(store: &GraphStore, schedule: &PartitionSchedule) -> Self {
        let parts = store.edge_parts();
        let in_degrees = store.in_degrees();
        let per_part = parts.edges_per_partition(in_degrees);
        let views: Vec<PartitionView> = (0..parts.num_partitions())
            .map(|p| {
                let dst_range = parts.range(p);
                let distinct_dsts = in_degrees[dst_range.start as usize..dst_range.end as usize]
                    .iter()
                    .filter(|&&d| d > 0)
                    .count() as u64;
                PartitionView {
                    index: p,
                    dst_range,
                    num_edges: per_part[p],
                    domain: schedule.domain_of(p),
                    distinct_dsts,
                    layout: store.coo().part_order(p),
                }
            })
            .collect();
        let edge_order = schedule.order_filtered(|p| views[p].num_edges > 0);
        let vertex_order = schedule.order_filtered(|p| !views[p].dst_range.is_empty());
        let dense_plans = (0..views.len())
            .map(|_| std::sync::OnceLock::new())
            .collect();
        let visit_orders = views
            .iter()
            .map(|view| visit_order_for(store, view))
            .collect();
        PartitionedExec {
            views,
            edge_order,
            vertex_order,
            dense_plans,
            visit_orders,
        }
    }

    /// The partition's dense chunk decomposition under `(cap, hub_split)`,
    /// memoised on first use: dense chunking is frontier-independent, so
    /// every subsequent round reuses the cached plan. A call with settings
    /// other than the cached ones (a config change mid-engine) plans fresh
    /// without touching the cache.
    fn dense_chunks(
        &self,
        offsets: &[EdgeId],
        partition: usize,
        cap: usize,
        hub_split: plan::HubSplit,
    ) -> DenseChunks {
        let range = self.views[partition].dst_range.clone();
        let cached = self.dense_plans[partition].get_or_init(|| {
            let chunks = plan::chunk_dense_range(offsets, range.clone(), cap, hub_split);
            let visit = self.visit_orders[partition]
                .as_ref()
                .map(|order| Arc::new(bucket_visit_order(&chunks, order)));
            DensePlan {
                cap,
                hub_split,
                chunks: Arc::new(chunks),
                visit,
            }
        });
        if cached.cap == cap && cached.hub_split == hub_split {
            (Arc::clone(&cached.chunks), cached.visit.clone())
        } else {
            let chunks = plan::chunk_dense_range(offsets, range, cap, hub_split);
            let visit = self.visit_orders[partition]
                .as_ref()
                .map(|order| Arc::new(bucket_visit_order(&chunks, order)));
            (Arc::new(chunks), visit)
        }
    }

    /// All per-partition views, indexed by partition.
    pub fn views(&self) -> &[PartitionView] {
        &self.views
    }

    /// One partition-parallel edge map, for any [`ChunkKernel`]: plan
    /// `(kernel, output)` per partition on `frontier` (a fused round
    /// passes its union frontier) and record the plan, then run the round
    /// [inline](Self::run_inline) when it is tiny and all-sparse, or
    /// [chunked](Self::run_chunked) otherwise.
    ///
    /// The gate is a pure function of the frontier and the static views —
    /// never of the thread count, chunk cap or schedule — so every
    /// configuration takes the same path on the same round.
    pub fn run<K: ChunkKernel>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier,
        kernel: &K,
    ) -> K::Out {
        if self.edge_order.is_empty() {
            // No partition has edges: nothing to traverse, pool untouched.
            return kernel.merge(Vec::new(), ctx);
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
    /// class: walk the whole CSR forward from every frontier vertex, and
    /// pull each destination the first time it is seen (a mark bit in a
    /// [`BufferPool`] buffer, touched words returned, so dedup costs the
    /// candidates, not `|V|`) into one sparse sink over `0..|V|`. Kernels
    /// whose sink tolerates unordered pushes
    /// ([`PERMUTED_VISIT`](ChunkKernel::PERMUTED_VISIT)) pull in discovery
    /// order; the others pull the sorted candidate list. A hub is pulled
    /// whole, which is bit-identical to its split scan by the hub
    /// contract. The candidates are exactly the union of the planned
    /// partitions' [`discover_candidates`] sets, so the round applies the
    /// same per-destination updates as [`run_chunked`](Self::run_chunked);
    /// it counts as one chunk of `Σ in-degree` edges.
    fn run_inline<K: ChunkKernel>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier,
        kernel: &K,
    ) -> K::Out {
        let n = ctx.store.num_vertices();
        let (csr, in_degrees) = (ctx.store.csr(), ctx.store.in_degrees());
        let probe = probe_for::<K>(ctx, frontier);
        let current = probe.as_ref().unwrap_or(frontier).view();
        let (words, mut touched) = ctx.scratch.take(n.div_ceil(64));
        let mut seen = Bitmap::from_zeroed_words(words, n);
        let mut sink = K::sink(OutputRepr::Sparse, 0..n as VertexId);
        let mut tally = LocalTally::new(ctx.counters);
        let mut sorted = Vec::new();
        let mut edges = 0u64;
        for u in frontier.iter() {
            for &v in csr.neighbors(u) {
                if seen.get(v as usize) {
                    continue;
                }
                seen.set(v as usize);
                touched.push(v / 64);
                edges += in_degrees[v as usize] as u64;
                if K::PERMUTED_VISIT {
                    kernel.pull(current, v, &mut sink, &mut tally);
                } else {
                    sorted.push(v);
                }
            }
        }
        ctx.scratch.put(seen.take_words(), Some(touched));
        sorted.sort_unstable();
        for &v in &sorted {
            kernel.pull(current, v, &mut sink, &mut tally);
        }
        drop(tally);
        ctx.counters.add_chunks(1, edges, edges);
        // Back to the pool before the merge, which may take the buffer.
        drop(probe);
        kernel.merge(vec![K::finish(sink)], ctx)
    }

    /// The chunked half of [`run`](Self::run): split every planned
    /// partition into edge-balanced chunks, execute the chunks as one
    /// epoch of cursor-claimed tasks, resolve split hubs, and merge the
    /// typed buffers in `(partition, chunk)` order.
    fn run_chunked<K: ChunkKernel>(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier,
        kernel: &K,
        traversal: &plan::TraversalPlan,
    ) -> K::Out {
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
            let (chunk, range, visit) = match &prep.step_work[k] {
                StepChunks::Dense { chunks, visit } => {
                    let span = &chunks[ci].span;
                    let range = span.start as VertexId..span.end as VertexId;
                    let visit = match visit {
                        Some(lists) if K::PERMUTED_VISIT => Some(lists[ci].as_slice()),
                        _ => None,
                    };
                    (&chunks[ci], range, visit)
                }
                StepChunks::Sparse { candidates, chunks } => {
                    // A candidate slice is sorted, so it spans exactly
                    // [first, last]: disjoint from its sibling chunks.
                    let slice = &candidates[chunks[ci].span.clone()];
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
            ChunkOut::Done(match visit {
                Some(list) => {
                    let dsts = list.iter().copied();
                    pull_chunk(kernel, current, repr, range, dsts, &mut tally)
                }
                None => pull_chunk(kernel, current, repr, range.clone(), range, &mut tally),
            })
        });
        // Back to the pool before the merge, which may take the buffer.
        drop(probe);
        kernel.merge(resolve_hubs(kernel, outputs), ctx)
    }

    /// The per-partition `(kernel, output)` plan [`run`](Self::run)
    /// executes on `frontier` — the one `plan_partitions` call, which
    /// [`plan`](Self::plan) records. Also used by the engine's round
    /// recorder: the planner is deterministic and pool-free, so recording
    /// can recompute the plan instead of threading it out of the
    /// execution path.
    pub(crate) fn round_plan(
        &self,
        store: &GraphStore,
        config: &Config,
        frontier: &Frontier,
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
    fn plan(&self, ctx: &RoundCtx<'_>, frontier: &Frontier) -> plan::TraversalPlan {
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
    fn prepare(
        &self,
        ctx: &RoundCtx<'_>,
        frontier: &Frontier,
        traversal: &plan::TraversalPlan,
    ) -> PreparedEdgeMap {
        let RoundCtx {
            store,
            pool,
            config,
            counters,
            ..
        } = *ctx;

        let pcsr = store
            .partitioned_csr()
            .expect("partitioned executor requires the partitioned CSR layout");
        let csc = store.csc();

        // Chunking: split each planned step into edge-balanced chunks —
        // CSC-offset-balanced destination sub-ranges for dense kernels,
        // candidate-list slices for sparse kernels, and per-scan
        // sub-chunks for mega-hub destinations when the hub-split policy
        // says splitting pays (`Fixed` caps always split; `Auto` applies
        // the cost model). The cap itself is resolved per partition
        // (`ChunkCap::Auto` derives it from `|E_partition|` and the thread
        // count). Candidate discovery is a deterministic function of the
        // frontier and the pruned CSR, so fanning it out per step (keyed
        // by index) keeps the plan deterministic.
        let hub_split = plan::HubSplit::for_cap(config.chunk_edges);
        let steps = &traversal.steps;
        let step_work: Vec<StepChunks> = pool.map_indices(steps.len(), |k| {
            let step = steps[k];
            let view = &self.views[step.partition];
            let cap = plan::resolve_cap(config.chunk_edges, view.num_edges, pool.threads());
            match step.kernel {
                PartKernel::Dense => {
                    let (chunks, visit) =
                        self.dense_chunks(csc.offsets(), step.partition, cap, hub_split);
                    StepChunks::Dense { chunks, visit }
                }
                PartKernel::Sparse => {
                    let part = pcsr.part(step.partition);
                    let candidates = discover_candidates(part, frontier.view());
                    let chunks = plan::chunk_candidates(&candidates, csc.offsets(), cap, hub_split);
                    StepChunks::Sparse { candidates, chunks }
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

        PreparedEdgeMap { step_work, tasks }
    }

    /// Partition-parallel `vertex_map_all`: every vertex range fans out as
    /// one pool task, in NUMA-domain-major order.
    pub fn vertex_map_all<F: Fn(VertexId) + Sync>(&self, pool: &Pool, f: F) {
        pool.for_each_in_order(&self.vertex_order, |p| {
            for v in self.views[p].dst_range.clone() {
                f(v);
            }
        });
    }

    /// Partition-parallel `vertex_map`: each partition visits the active
    /// vertices inside its range, in ascending order.
    pub fn vertex_map<F: Fn(VertexId) + Sync>(&self, pool: &Pool, frontier: &Frontier, f: F) {
        if frontier.is_empty() {
            return;
        }
        match frontier.data() {
            FrontierData::Sparse(list) => {
                pool.for_each_in_order(&self.vertex_order, |p| {
                    let range = &self.views[p].dst_range;
                    let lo = list.partition_point(|&v| v < range.start);
                    let hi = list.partition_point(|&v| v < range.end);
                    for &v in &list[lo..hi] {
                        f(v);
                    }
                });
            }
            FrontierData::Dense(bitmap) => {
                pool.for_each_in_order(&self.vertex_order, |p| {
                    let range = self.views[p].dst_range.clone();
                    bitmap.for_each_one_in_range(range.start as usize..range.end as usize, |v| {
                        f(v as VertexId)
                    });
                });
            }
        }
    }
}

/// Derives one partition's dense-kernel destination **visit order** from
/// its COO layout: destinations in first-appearance order of the
/// layout-sorted edge array (so a Hilbert partition's pull scan follows
/// the same space-filling curve its COO scan does), with zero-in-degree
/// destinations appended ascending so every range destination is visited
/// exactly once. Returns `None` when the derived order is plain ascending
/// — always the case for [`EdgeOrder::Destination`] — so the common path
/// keeps the allocation-free range scan.
fn visit_order_for(store: &GraphStore, view: &PartitionView) -> Option<Arc<Vec<VertexId>>> {
    let range = &view.dst_range;
    if view.layout == EdgeOrder::Destination || range.is_empty() || view.num_edges == 0 {
        return None;
    }
    let len = range.len();
    let mut seen = vec![false; len];
    let mut order: Vec<VertexId> = Vec::with_capacity(len);
    for &v in store.coo().part_dsts(view.index) {
        let i = (v - range.start) as usize;
        if !seen[i] {
            seen[i] = true;
            order.push(v);
        }
    }
    for (i, taken) in seen.iter().enumerate() {
        if !taken {
            order.push(range.start + i as VertexId);
        }
    }
    debug_assert_eq!(order.len(), len);
    if order.windows(2).all(|w| w[0] < w[1]) {
        None
    } else {
        Some(Arc::new(order))
    }
}

/// Buckets one partition's visit order by the non-sub chunks of its dense
/// decomposition: each chunk's slot receives exactly the destinations of
/// its span, in partition visit order. Split-hub destinations are skipped
/// (a hub's scan is defined by its sub-chunk spans, not a visit list), so
/// sub-chunk slots stay empty.
fn bucket_visit_order(chunks: &[plan::Chunk], order: &[VertexId]) -> Vec<Vec<VertexId>> {
    let spans: Vec<(VertexId, VertexId, usize)> = chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| c.sub.is_none())
        .map(|(i, c)| (c.span.start as VertexId, c.span.end as VertexId, i))
        .collect();
    let mut visit: Vec<Vec<VertexId>> = vec![Vec::new(); chunks.len()];
    for &v in order {
        let slot = spans.binary_search_by(|&(s, e, _)| {
            if v < s {
                std::cmp::Ordering::Greater
            } else if v >= e {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        });
        if let Ok(k) = slot {
            visit[spans[k].2].push(v);
        }
    }
    debug_assert!(chunks
        .iter()
        .zip(&visit)
        .all(|(c, l)| c.sub.is_some() || l.len() == c.span.len()));
    visit
}

/// The shared output of [`PartitionedExec::prepare`]: the per-step chunk
/// decompositions and the flattened deterministic task list.
struct PreparedEdgeMap {
    step_work: Vec<StepChunks>,
    /// `(step, chunk)` pairs in submission order — the task index is the
    /// merge key.
    tasks: Vec<(usize, usize)>,
}

/// One planned step's chunk decomposition: the dense kernel's sub-ranges,
/// or the sparse kernel's discovered candidate list plus its slices.
#[derive(Debug)]
enum StepChunks {
    /// Dense kernel: CSC-offset-balanced destination sub-ranges, shared
    /// with the executor's per-partition memo (see
    /// [`PartitionedExec::dense_chunks`]), plus the layout-derived
    /// per-chunk visit lists when the partition's order is not ascending.
    Dense {
        chunks: Arc<Vec<plan::Chunk>>,
        visit: Option<Arc<Vec<Vec<VertexId>>>>,
    },
    /// Sparse kernel: the partition's sorted candidate list and the
    /// edge-balanced index slices over it.
    Sparse {
        candidates: Vec<VertexId>,
        chunks: Vec<plan::Chunk>,
    },
}

impl StepChunks {
    fn chunks(&self) -> &[plan::Chunk] {
        match self {
            StepChunks::Dense { chunks, .. } => chunks,
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
    /// kernels' membership probes and inline rounds' mark bitmaps.
    pub scratch: &'a Arc<BufferPool>,
}

/// What one edge-map flavour plugs into [`PartitionedExec::run`]: the
/// parts of a round that depend on the operator's shape. Everything else —
/// plan, chunks, the chunk-task epoch, hub grouping — is the driver's.
///
/// `current` is the frontier the round was planned on. For a kernel with
/// [`PROBES_FRONTIER`](Self::PROBES_FRONTIER) it is always a bitmap — the
/// frontier's own, or a sparse list's bits in a pooled buffer — so no
/// per-edge membership test binary-searches a list. The fused kernels read
/// their own lane words, ignore it, and get the frontier as it is.
pub(crate) trait ChunkKernel: Sync {
    /// The per-chunk output sink, owned by exactly one pool task.
    type Sink;
    /// A finished chunk's typed buffer — the merge input. Sparse or dense
    /// only: a split hub's partials are [`HubPart`](Self::HubPart)s, a
    /// different type, so "partials are resolved before the merge" holds
    /// by construction.
    type Resolved: Send;
    /// One slice of a split mega-hub's scan, collected but not applied.
    type HubPart: Send;
    /// The merged next frontier.
    type Out;

    /// Whether [`Sink`](Self::Sink) tolerates unordered pushes, so a dense
    /// chunk may visit its destinations in the partition's layout-derived
    /// order and an inline round in discovery order rather than ascending.
    const PERMUTED_VISIT: bool;

    /// Whether the kernel tests source membership in `current`, so the
    /// driver must hand it a bitmap.
    const PROBES_FRONTIER: bool;

    /// An empty sink of the planned representation over `range`.
    fn sink(repr: OutputRepr, range: std::ops::Range<VertexId>) -> Self::Sink;

    /// Scans destination `v`'s in-edges (CSC adjacency order) and applies
    /// the operator under the single-writer guarantee.
    fn pull(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sink: &mut Self::Sink,
        tally: &mut LocalTally<'_>,
    );

    /// Finishes a chunk, yielding its typed buffer.
    fn finish(sink: Self::Sink) -> Self::Resolved;

    /// Executes one mega-hub sub-chunk: scans the slice `sub` of `v`'s
    /// in-edge list and **collects** its active contributions without
    /// applying the operator. `v`'s state is frozen for the whole parallel
    /// phase (every write to it is deferred to
    /// [`resolve_hub`](Self::resolve_hub)), so the pre-check here reads
    /// exactly what the unsplit scan would have seen.
    fn collect_hub(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart;

    /// Applies split hub `v`'s collected slices, given in ascending slice
    /// (= CSC scan) order, sequentially on the dispatcher — so the applied
    /// sequence is bit-identical to never having split the destination.
    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> Self::Resolved;

    /// Merges the resolved buffers (task order) into the next frontier.
    fn merge(&self, outputs: Vec<Self::Resolved>, ctx: &RoundCtx<'_>) -> Self::Out;
}

/// What one chunk task returns.
enum ChunkOut<K: ChunkKernel> {
    /// A finished chunk's buffer.
    Done(K::Resolved),
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
/// `(Sparse, Sparse)`: the inline sink is one sparse list, and a dense
/// step pulls its whole range, not just the candidates.
fn runs_inline(frontier: &Frontier, traversal: &plan::TraversalPlan) -> bool {
    frontier.density_metric() <= plan::HUB_SPLIT_OVERHEAD_EDGES
        && traversal
            .steps
            .iter()
            .all(|s| s.kernel == PartKernel::Sparse && s.output == OutputRepr::Sparse)
}

/// The bitmap a [`PROBES_FRONTIER`](ChunkKernel::PROBES_FRONTIER) kernel
/// probes when `frontier` is a list (`None` otherwise): its bits in a
/// pooled buffer, handed back on drop — drop it before the merge, which
/// may take the buffer.
fn probe_for<K: ChunkKernel>(ctx: &RoundCtx<'_>, frontier: &Frontier) -> Option<Frontier> {
    K::PROBES_FRONTIER
        .then(|| frontier.to_pooled_bitmap(ctx.scratch))
        .flatten()
}

/// Pulls the destinations `dsts` (all inside `range`) into a fresh sink of
/// representation `repr`: the body of every non-hub chunk task, and of the
/// monolithic fused fallback's per-range tasks.
pub(crate) fn pull_chunk<K: ChunkKernel>(
    kernel: &K,
    current: FrontierView<'_>,
    repr: OutputRepr,
    range: std::ops::Range<VertexId>,
    dsts: impl Iterator<Item = VertexId>,
    tally: &mut LocalTally<'_>,
) -> K::Resolved {
    let mut sink = K::sink(repr, range);
    for v in dsts {
        kernel.pull(current, v, &mut sink, tally);
    }
    K::finish(sink)
}

/// The one hub walker. `outputs` is in task-index order (what
/// [`Pool::run_tasks`] returns), so a split destination's parts arrive
/// consecutively in ascending slice order; each such run resolves to one
/// buffer in the run's place, finished buffers pass through.
fn resolve_hubs<K: ChunkKernel>(kernel: &K, outputs: Vec<ChunkOut<K>>) -> Vec<K::Resolved> {
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

/// Where a scalar kernel records activated destinations. Kernels call
/// [`activate`](Self::activate) at most once per destination (pull-based
/// traversal visits each destination once), so sinks need no deduplication.
pub(crate) trait FrontierSink {
    /// Records that destination `v` joins the next frontier.
    fn activate(&mut self, v: VertexId);
}

/// The typed per-chunk output sink the planner selects: a sorted vertex
/// list or a range-aligned dense bitmap segment. Owned by exactly one pool
/// task — plain stores, no atomics.
#[derive(Debug)]
pub(crate) enum PartSink {
    /// Sorted list. Kernels may push in any visit order (the dense kernel
    /// follows its partition's layout-derived permutation);
    /// [`into_output`](Self::into_output) sorts, which is `O(k)` for the
    /// already-ascending sparse-kernel and range-scan pushes.
    Sparse {
        /// The emitting chunk's destination range.
        range: std::ops::Range<VertexId>,
        /// Activated destinations, in visit order until finished.
        list: Vec<VertexId>,
    },
    /// Range-aligned dense segment.
    Dense {
        /// The segment, covering exactly the chunk's range.
        segment: BitmapSegment,
    },
}

impl PartSink {
    /// An empty sink of the planned representation over `range`.
    pub fn new(repr: OutputRepr, range: std::ops::Range<VertexId>) -> Self {
        match repr {
            OutputRepr::Sparse => PartSink::Sparse {
                range,
                list: Vec::new(),
            },
            OutputRepr::Dense => PartSink::Dense {
                segment: BitmapSegment::new(range.start as usize..range.end as usize),
            },
        }
    }

    /// Finishes the task, yielding the typed output buffer for the merge.
    pub fn into_output(self) -> PartitionOutput {
        match self {
            PartSink::Sparse { range, mut list } => {
                // The merge contract wants ascending lists; restore it
                // here so a permuted dense visit order stays invisible
                // downstream (pattern-defeating quicksort makes this a
                // single detection pass when the pushes were ascending).
                list.sort_unstable();
                PartitionOutput {
                    range,
                    data: PartitionOutputData::Sparse(list),
                }
            }
            PartSink::Dense { segment } => {
                let r = segment.range();
                PartitionOutput {
                    range: r.start as VertexId..r.end as VertexId,
                    data: PartitionOutputData::Dense(segment),
                }
            }
        }
    }
}

impl FrontierSink for PartSink {
    #[inline]
    fn activate(&mut self, v: VertexId) {
        match self {
            PartSink::Sparse { list, range } => {
                debug_assert!(range.contains(&v));
                list.push(v);
            }
            PartSink::Dense { segment } => segment.set(v as usize),
        }
    }
}

/// A resolved split hub's buffer: the one-destination list `[v]` when the
/// replay activated it.
fn hub_output(v: VertexId, activated: bool) -> PartitionOutput {
    PartitionOutput {
        range: v..v + 1,
        data: PartitionOutputData::Sparse(if activated { vec![v] } else { Vec::new() }),
    }
}

/// The scalar kernels' merge: [`Frontier::from_partition_outputs`] over
/// the engine's recycled scratch bitmap.
fn merge_frontier(outputs: Vec<PartitionOutput>, ctx: &RoundCtx<'_>) -> Frontier {
    let (n, out_degrees) = (ctx.store.num_vertices(), ctx.store.out_degrees());
    Frontier::from_partition_outputs(outputs, n, out_degrees, ctx.counters, Some(ctx.scratch))
}

/// The exclusive-update scalar kernel: any [`EdgeOp`] (BFS, CC, BC, …).
pub(crate) struct Exclusive<'a, O> {
    pub csc: &'a Csc,
    pub op: &'a O,
}

impl<O: EdgeOp> Exclusive<'_, O> {
    /// Applies one frontier-active in-edge `(u, v)` and says whether `v`'s
    /// scan goes on — the kernel's one exit rule (`cond` re-checked after
    /// every applied update), shared by the unsplit scan and the hub
    /// replay.
    #[inline]
    fn step(&self, u: VertexId, v: VertexId, w: f32, activated: &mut bool) -> bool {
        *activated |= self.op.update(u, v, w);
        self.op.cond(v)
    }

    /// Applies the in-edges of destination `v` (CSC adjacency order) for
    /// every active source, honouring the `cond` pre-check and early exit.
    /// The destination is activated at most once, after its scan.
    #[inline]
    fn pull_vertex<S: FrontierSink>(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sink: &mut S,
        tally: &mut LocalTally<'_>,
    ) {
        tally.vertex();
        if !self.op.cond(v) {
            return;
        }
        let mut activated = false;
        for e in self.csc.edge_range(v) {
            tally.edge();
            let u = self.csc.sources()[e];
            if current.contains(u) && !self.step(u, v, self.csc.weight_at(e), &mut activated) {
                break;
            }
        }
        if activated {
            sink.activate(v);
        }
    }
}

impl<O: EdgeOp> ChunkKernel for Exclusive<'_, O> {
    type Sink = PartSink;
    type Resolved = PartitionOutput;
    /// The slice's active `(source, weight)` contributions, in scan order.
    type HubPart = Vec<(VertexId, f32)>;
    type Out = Frontier;

    // `PartSink::Sparse` sorts when finished, so pushes may come unordered.
    const PERMUTED_VISIT: bool = true;
    const PROBES_FRONTIER: bool = true;

    fn sink(repr: OutputRepr, range: std::ops::Range<VertexId>) -> PartSink {
        PartSink::new(repr, range)
    }

    #[inline]
    fn pull(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sink: &mut PartSink,
        tally: &mut LocalTally<'_>,
    ) {
        self.pull_vertex(current, v, sink, tally);
    }

    fn finish(sink: PartSink) -> PartitionOutput {
        sink.into_output()
    }

    fn collect_hub(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> Self::HubPart {
        // Count the destination visit once, on its first slice.
        if sub.lo == 0 {
            tally.vertex();
        }
        let mut actives = Vec::new();
        if self.op.cond(v) {
            let base = self.csc.offsets()[v as usize];
            for e in base + sub.lo as usize..base + sub.hi as usize {
                tally.edge();
                let u = self.csc.sources()[e];
                if current.contains(u) {
                    actives.push((u, self.csc.weight_at(e)));
                }
            }
        }
        actives
    }

    fn resolve_hub(&self, v: VertexId, parts: &[Self::HubPart]) -> PartitionOutput {
        let mut activated = false;
        if self.op.cond(v) {
            for &(u, w) in parts.iter().flatten() {
                if !self.step(u, v, w, &mut activated) {
                    break;
                }
            }
        }
        hub_output(v, activated)
    }

    fn merge(&self, outputs: Vec<PartitionOutput>, ctx: &RoundCtx<'_>) -> Frontier {
        merge_frontier(outputs, ctx)
    }
}

/// One slice of a split hub's scan, pre-reduced for the [`Quantum`]
/// kernel. Quanta fully inside the slice arrive **folded**; quanta
/// straddling a slice boundary arrive as raw **fragments** so the resolver
/// can re-fold the whole quantum edge-wise — keeping the f64 grouping
/// identical to an unsplit scan. Quanta with no active edge are omitted.
pub(crate) struct QuantumPart {
    /// `(quantum index, accumulator)` of fully-covered non-empty quanta,
    /// ascending.
    folded: Vec<(u64, f64)>,
    /// `(quantum index, source, weight)` of straddled quanta, in CSC scan
    /// order.
    fragments: Vec<(u64, VertexId, f32)>,
}

/// The associative scalar kernel: any [`EdgeMapReduce`] (PR, SpMV, BF,
/// BP). *Every* destination's scan — split or not — folds in fixed
/// [`REDUCE_QUANTUM`]-edge runs with boundaries at absolute multiples of
/// the quantum, one `apply` per non-empty quantum in ascending order.
/// `cond` is checked once per destination (reduce-capable operators are
/// frontier-driven; none uses a mid-scan early exit).
pub(crate) struct Quantum<'a, O> {
    pub csc: &'a Csc,
    pub op: &'a O,
}

impl<O: EdgeMapReduce> Quantum<'_, O> {
    /// Folds the active edges among scan positions `lo..hi` of the
    /// in-edge list starting at `base`; `None` when none is active —
    /// empty quanta are never applied, so activation means at least one
    /// active in-edge, exactly as on the exclusive-update path.
    #[inline]
    fn fold(
        &self,
        current: FrontierView<'_>,
        base: usize,
        (lo, hi): (usize, usize),
        tally: &mut LocalTally<'_>,
    ) -> Option<f64> {
        let mut acc = self.op.identity();
        let mut any = false;
        for e in base + lo..base + hi {
            tally.edge();
            let u = self.csc.sources()[e];
            if current.contains(u) {
                acc = self.op.accumulate(acc, u, self.csc.weight_at(e));
                any = true;
            }
        }
        any.then_some(acc)
    }

    /// The quantum-folded scan of destination `v`.
    #[inline]
    fn pull_vertex<S: FrontierSink>(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sink: &mut S,
        tally: &mut LocalTally<'_>,
    ) {
        tally.vertex();
        if !self.op.cond(v) {
            return;
        }
        let base = self.csc.offsets()[v as usize];
        let deg = self.csc.offsets()[v as usize + 1] - base;
        let mut activated = false;
        let mut lo = 0usize;
        while lo < deg {
            let hi = (lo + REDUCE_QUANTUM).min(deg);
            if let Some(acc) = self.fold(current, base, (lo, hi), tally) {
                activated |= self.op.apply(v, acc);
            }
            lo = hi;
        }
        if activated {
            sink.activate(v);
        }
    }
}

impl<O: EdgeMapReduce> ChunkKernel for Quantum<'_, O> {
    type Sink = PartSink;
    type Resolved = PartitionOutput;
    type HubPart = QuantumPart;
    type Out = Frontier;

    // Quantum grouping is fixed by the destination alone, and the sink
    // sorts: the visit permutation is invisible.
    const PERMUTED_VISIT: bool = true;
    const PROBES_FRONTIER: bool = true;

    fn sink(repr: OutputRepr, range: std::ops::Range<VertexId>) -> PartSink {
        PartSink::new(repr, range)
    }

    #[inline]
    fn pull(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sink: &mut PartSink,
        tally: &mut LocalTally<'_>,
    ) {
        self.pull_vertex(current, v, sink, tally);
    }

    fn finish(sink: PartSink) -> PartitionOutput {
        sink.into_output()
    }

    /// Folds the quanta the slice fully covers into one accumulator each
    /// and ships raw fragments only for the (at most two) quanta it
    /// straddles, so the dispatcher pays one `apply` per quantum instead
    /// of one update per edge.
    fn collect_hub(
        &self,
        current: FrontierView<'_>,
        v: VertexId,
        sub: &plan::SubSpan,
        tally: &mut LocalTally<'_>,
    ) -> QuantumPart {
        // Count the destination visit once, on its first slice.
        if sub.lo == 0 {
            tally.vertex();
        }
        // Pre-size for the slice: one folded entry per covered quantum, and
        // at most two straddled quanta's worth of raw fragments — growing
        // these from empty re-allocates several times per sub-chunk, which
        // is pure overhead on the hub-heavy dense rounds.
        let span = (sub.hi - sub.lo) as usize;
        let mut part = QuantumPart {
            folded: Vec::with_capacity(span / REDUCE_QUANTUM + 1),
            fragments: Vec::with_capacity(2 * (REDUCE_QUANTUM - 1)),
        };
        if self.op.cond(v) {
            let base = self.csc.offsets()[v as usize];
            let deg = self.csc.offsets()[v as usize + 1] - base;
            let (lo, hi) = (sub.lo as usize, sub.hi as usize);
            let mut r = lo;
            while r < hi {
                let q = r / REDUCE_QUANTUM;
                let q_lo = q * REDUCE_QUANTUM;
                // The quantum's absolute end: the scan's final quantum is
                // truncated at the in-degree.
                let q_hi = (q_lo + REDUCE_QUANTUM).min(deg);
                let seg_hi = q_hi.min(hi);
                if r == q_lo && q_hi <= hi {
                    // Fully covered quantum: fold it locally.
                    if let Some(acc) = self.fold(current, base, (r, seg_hi), tally) {
                        part.folded.push((q as u64, acc));
                    }
                } else {
                    // Straddled quantum: ship the active edges raw.
                    for e in base + r..base + seg_hi {
                        tally.edge();
                        let u = self.csc.sources()[e];
                        if current.contains(u) {
                            part.fragments.push((q as u64, u, self.csc.weight_at(e)));
                        }
                    }
                }
                r = seg_hi;
            }
        }
        part
    }

    /// Merges the slices' per-quantum entries by quantum index (ascending
    /// — slices arrive in scan order, so the concatenated entries already
    /// are), re-folds fragment runs of straddled quanta edge-wise from the
    /// identity, and applies one value per non-empty quantum. Per quantum
    /// either exactly one slice folded it or ≥ 1 slices shipped fragments
    /// — never both, since slices tile the scan disjointly.
    fn resolve_hub(&self, v: VertexId, parts: &[QuantumPart]) -> PartitionOutput {
        let op = self.op;
        let mut activated = false;
        if op.cond(v) {
            // The straddled quantum being re-folded, if any.
            let mut pending: Option<(u64, f64)> = None;
            let mut apply = |quantum: &mut Option<(u64, f64)>| {
                if let Some((_, acc)) = quantum.take() {
                    activated |= op.apply(v, acc);
                }
            };
            for p in parts {
                let (mut fi, mut gi) = (0usize, 0usize);
                while fi < p.folded.len() || gi < p.fragments.len() {
                    let next_is_fold = match (p.folded.get(fi), p.fragments.get(gi)) {
                        (Some(&(fq, _)), Some(&(gq, _, _))) => fq < gq,
                        (Some(_), None) => true,
                        _ => false,
                    };
                    if next_is_fold {
                        let (q, acc) = p.folded[fi];
                        fi += 1;
                        debug_assert!(
                            pending.is_none_or(|(fq, _)| fq < q),
                            "a folded quantum cannot also have fragments"
                        );
                        apply(&mut pending);
                        apply(&mut Some((q, acc)));
                    } else {
                        let (q, u, w) = p.fragments[gi];
                        gi += 1;
                        match &mut pending {
                            Some((fq, acc)) if *fq == q => *acc = op.accumulate(*acc, u, w),
                            _ => {
                                apply(&mut pending);
                                pending = Some((q, op.accumulate(op.identity(), u, w)));
                            }
                        }
                    }
                }
            }
            apply(&mut pending);
        }
        hub_output(v, activated)
    }

    fn merge(&self, outputs: Vec<PartitionOutput>, ctx: &RoundCtx<'_>) -> Frontier {
        merge_frontier(outputs, ctx)
    }
}

/// Discovers the destinations reachable from the frontier through one
/// partition's pruned-CSR source index, as a sorted, deduplicated list —
/// the unit the planner slices into candidate chunks.
///
/// `frontier` is the frontier's own representation. A sorted list joins
/// the stored sources through [`PrunedCsr::for_each_stored`], which clips
/// the list to the partition's stored-source span and gallops, so a small
/// frontier costs what falls inside that span, not `|F| · log(stored)`. A
/// bitmap is tested once per stored source. The candidate set is a
/// function of the frontier alone, whichever path found it.
pub fn discover_candidates(part: &PrunedCsr, frontier: FrontierView<'_>) -> Vec<VertexId> {
    let mut candidates: Vec<VertexId> = Vec::new();
    match frontier {
        FrontierView::Sparse(list) => part.for_each_stored(list, |_, j| {
            candidates.extend_from_slice(part.neighbors_at(j));
        }),
        FrontierView::Dense(bitmap) => {
            for (j, &u) in part.vertex_ids().iter().enumerate() {
                if bitmap.get(u as usize) {
                    candidates.extend_from_slice(part.neighbors_at(j));
                }
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChunkCap, Config};
    use gg_graph::bitmap::AtomicBitmap;
    use gg_graph::edge_list::EdgeList;
    use gg_runtime::numa::NumaTopology;
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
            self.update(s, d, w)
        }
    }

    /// Adapter writing activations into a shared [`AtomicBitmap`] — the
    /// shape the pre-planner executor used, kept as the kernels'
    /// sink-independent reference.
    struct AtomicSink<'a>(&'a AtomicBitmap);

    impl FrontierSink for AtomicSink<'_> {
        fn activate(&mut self, v: VertexId) {
            self.0.set(v as usize);
        }
    }

    /// Dense partition kernel, unchunked: pull every destination of
    /// `range`.
    fn pull_range<O: EdgeOp, S: FrontierSink>(
        kernel: &Exclusive<'_, O>,
        current: FrontierView<'_>,
        range: std::ops::Range<VertexId>,
        sink: &mut S,
        tally: &mut LocalTally<'_>,
    ) {
        for v in range {
            kernel.pull_vertex(current, v, sink, tally);
        }
    }

    /// Sparse partition kernel, unchunked: discover the destinations
    /// reachable from the frontier through the partition's pruned-CSR
    /// source index, then pull exactly those, ascending.
    fn pull_candidates<O: EdgeOp, S: FrontierSink>(
        kernel: &Exclusive<'_, O>,
        part: &PrunedCsr,
        current: FrontierView<'_>,
        sink: &mut S,
        tally: &mut LocalTally<'_>,
    ) {
        for v in discover_candidates(part, current) {
            kernel.pull_vertex(current, v, sink, tally);
        }
    }

    /// Runs every sub-chunk of `chunks` (all slices of destination 0)
    /// through `collect_hub`, as the driver's hub tasks do.
    fn collect_all<K: ChunkKernel>(
        kernel: &K,
        view: FrontierView<'_>,
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
            numa: NumaTopology::new(1),
            build_partitioned_csr: true,
            ..Config::for_tests()
        };
        let store = GraphStore::build(el, &config);
        let schedule = PartitionSchedule::new(store.num_partitions(), config.numa);
        let exec = PartitionedExec::new(&store, &schedule);
        (store, exec)
    }

    /// Discovery's reference: scan every stored source, test membership
    /// by binary search of the list, sort, dedup.
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

    /// The clipped galloping join (list frontiers) and the stored-source
    /// scan (bitmap frontiers) both find exactly the reference candidate
    /// set, on grid, power-law and R-MAT graphs, for partition counts from
    /// one to more than there are vertices.
    #[test]
    fn discovery_matches_a_full_stored_source_scan() {
        use gg_graph::generators::{chung_lu, grid_road, rmat, RmatParams};
        let graphs = [
            ("grid", grid_road(18, 18, 0.05, 3)),
            ("powerlaw", chung_lu(300, 1800, 2.1, 5)),
            ("rmat", rmat(8, 1500, RmatParams::skewed(), 7)),
        ];
        for (name, el) in &graphs {
            let n = el.num_vertices() as VertexId;
            // Nothing, one vertex, a contiguous band (a grid BFS wave),
            // scattered strides, everything.
            let frontiers: Vec<Vec<VertexId>> = vec![
                vec![],
                vec![n / 2],
                (n / 3..n / 3 + 25).collect(),
                (0..n).step_by(7).collect(),
                (0..n).collect(),
            ];
            for parts in [1, 2, 7, 16, n as usize + 3] {
                let (store, _exec) = build(el, parts);
                let pcsr = store.partitioned_csr().unwrap();
                for list in &frontiers {
                    let bitmap = Bitmap::from_indices(n as usize, list);
                    for p in 0..pcsr.num_partitions() {
                        let part = pcsr.part(p);
                        let want = naive_candidates(part, list);
                        let what = format!("{name} P={parts} p={p} |F|={}", list.len());
                        let got = discover_candidates(part, FrontierView::Sparse(list));
                        assert_eq!(got, want, "{what}, list");
                        let got = discover_candidates(part, FrontierView::Dense(&bitmap));
                        assert_eq!(got, want, "{what}, bitmap");
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
            let open = self.cond(d);
            if open {
                self.0[d as usize].store(s, Ordering::Relaxed);
            }
            open
        }
        fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
            self.update(s, d, w)
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

    /// A fused reduce op: per destination, the f64 sum of `src + 1` over
    /// active in-edges (bits in `sum`), and the lanes that ever arrived.
    struct LaneSum {
        sum: Vec<gg_runtime::atomics::AtomicF64>,
        seen: Vec<AtomicU64>,
    }

    impl crate::fused::MultiSourceOp for LaneSum {
        fn update(&self, _s: u32, _d: u32, _w: f32, _lanes: u64) -> u64 {
            unreachable!("reduce kernels never call update")
        }
    }

    impl crate::fused::MultiSourceReduce for LaneSum {
        type Acc = (f64, u64);
        fn identity(&self) -> (f64, u64) {
            (0.0, 0)
        }
        fn accumulate(&self, acc: &mut (f64, u64), s: u32, _w: f32, lanes: u64) {
            acc.0 += (s + 1) as f64;
            acc.1 |= lanes;
        }
        fn apply(&self, d: u32, acc: &(f64, u64)) -> u64 {
            self.sum[d as usize].add_exclusive(acc.0);
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
        frontier: &Frontier,
        kernel: &K,
        inline: bool,
    ) -> (K::Out, WorkCounters) {
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
        let out = if inline {
            exec.run_inline(&ctx, frontier, kernel)
        } else {
            exec.run_chunked(&ctx, frontier, kernel, &exec.plan(&ctx, frontier))
        };
        (out, counters)
    }

    fn driven(out: Vec<(VertexId, u64)>, state: Vec<u64>, c: &WorkCounters) -> Driven {
        Driven {
            out,
            state,
            edges: c.edges(),
            vertices: c.vertices(),
            planned: (c.mean_chunk_edges() * c.chunks() as f64).round() as u64,
            chunks: c.chunks(),
            hub_subchunks: c.hub_subchunks(),
        }
    }

    /// One round of each of the four kernels on `frontier` through one
    /// half of `run`, each on freshly initialised operator state.
    fn drive_all(
        store: &GraphStore,
        exec: &PartitionedExec,
        config: &Config,
        frontier: &Frontier,
        inline: bool,
    ) -> [Driven; 4] {
        let n = store.num_vertices();
        let csc = store.csc();
        let pool = Pool::new(1);
        // Every third vertex starts claimed, so `cond` skips some pulls.
        let claimed = |v: usize| v.is_multiple_of(3);
        let list = |f: &Frontier| f.iter().map(|v| (v, 1)).collect::<Vec<_>>();
        let lanes = |f: &crate::fused::FusedFrontier| {
            let mut out = Vec::new();
            f.for_each(|v, m| out.push((v, m)));
            out
        };

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
            &Exclusive { csc, op: &op },
            inline,
        );
        let state =
            op.0.iter()
                .map(|x| x.load(Ordering::Relaxed) as u64)
                .collect();
        let exclusive = driven(list(&out), state, &c);

        let op = SumInto::new(n);
        let (out, c) = drive(
            store,
            exec,
            config,
            frontier,
            &Quantum { csc, op: &op },
            inline,
        );
        let state = (0..n).map(|v| op.at(v).to_bits()).collect();
        let quantum = driven(list(&out), state, &c);

        // Lane words hashed from the vertex id: one to four lanes each.
        let fused = crate::fused::FusedFrontier::from_outputs(
            vec![crate::fused::FusedOutput {
                range: 0..n as VertexId,
                data: crate::fused::FusedOutputData::Sparse {
                    verts: frontier.to_vertex_list(),
                    masks: frontier
                        .iter()
                        .map(|v| 1 + (v as u64 * 0x9E37) % 15)
                        .collect(),
                },
            }],
            n,
            4,
            &WorkCounters::new(),
        );
        let union = fused.union_frontier(store.out_degrees(), &pool);
        let round = || crate::fused::FusedRound::new(store, &pool, &fused, &union, true);

        let op = LaneClaim(
            (0..n)
                .map(|v| AtomicU64::new(if claimed(v) { 0b0101 } else { 0 }))
                .collect(),
        );
        let kernel = crate::fused::FusedExclusive {
            round: round(),
            op: &op,
        };
        let (out, c) = drive(store, exec, config, &union, &kernel, inline);
        let state = op.0.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        let fused_exclusive = driven(lanes(&out), state, &c);

        let op = LaneSum {
            sum: gg_runtime::atomics::atomic_f64_vec(n, 0.0),
            seen: (0..n).map(|_| AtomicU64::new(0)).collect(),
        };
        let kernel = crate::fused::FusedQuantum {
            round: round(),
            op: &op,
        };
        let (out, c) = drive(store, exec, config, &union, &kernel, inline);
        let state = (0..n)
            .flat_map(|v| {
                [
                    op.sum[v].load().to_bits(),
                    op.seen[v].load(Ordering::Relaxed),
                ]
            })
            .collect();
        let fused_quantum = driven(lanes(&out), state, &c);

        [exclusive, quantum, fused_exclusive, fused_quantum]
    }

    /// The inline round is the chunked round: over grid / power-law /
    /// R-MAT graphs, P from one to more than there are vertices, frontiers
    /// just below and just above the floor plus one whose candidate hub
    /// outweighs the cap, the `Auto` and a tiny fixed cap, and all four
    /// kernels, both halves of `run` produce the same next frontier and
    /// the same operator state. Where the plan is all `(Sparse, Sparse)`
    /// — the only rounds `run` takes inline — they also pull the same
    /// destinations (vertex tallies), plan the same edges (one inline
    /// chunk of Σ in-degree) and, when no hub was split, scan the same
    /// edges; a split hub's slices scan in full, the whole pull stops at
    /// its early exit, so there the inline round scans at most as many.
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
                    for cap in [ChunkCap::Auto, ChunkCap::Fixed(4)] {
                        let config = Config {
                            chunk_edges: cap,
                            ..Config::for_tests()
                        };
                        let inline = drive_all(&store, &exec, &config, &frontier, true);
                        let chunked = drive_all(&store, &exec, &config, &frontier, false);
                        let kernels = ["Exclusive", "Quantum", "FusedExclusive", "FusedQuantum"];
                        for ((k, a), b) in kernels.iter().zip(&inline).zip(&chunked) {
                            let what = format!("{name} P={parts} {fname} {cap:?} {k}");
                            assert_eq!(a.out, b.out, "{what}: next frontier");
                            assert!(a.state == b.state, "{what}: operator state");
                            assert_eq!((a.chunks, a.hub_subchunks), (1, 0), "{what}");
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
        // Edge order only lists partitions with edges, domain-major.
        for &p in exec.edge_order.as_slice() {
            assert!(exec.views()[p].num_edges > 0);
        }
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

    #[test]
    fn both_kernels_apply_identical_updates() {
        let el = gg_graph::generators::rmat(7, 700, gg_graph::generators::RmatParams::skewed(), 8);
        let n = el.num_vertices();
        let (store, exec) = build(&el, 4);
        let pcsr = store.partitioned_csr().unwrap();
        let actives: Vec<u32> = (0..n as u32).step_by(5).collect();
        let bitmap = Bitmap::from_indices(n, &actives);
        let counters = WorkCounters::new();

        for &p in exec.edge_order.as_slice() {
            let view = &exec.views()[p];
            let csc = store.csc();
            let op_dense = TouchCount::new(n);
            let next_dense = AtomicBitmap::new(n);
            let mut tally = LocalTally::new(&counters);
            pull_range(
                &Exclusive { csc, op: &op_dense },
                FrontierView::Dense(&bitmap),
                view.dst_range.clone(),
                &mut AtomicSink(&next_dense),
                &mut tally,
            );
            drop(tally);

            let op_sparse = TouchCount::new(n);
            let next_sparse = AtomicBitmap::new(n);
            let mut tally = LocalTally::new(&counters);
            pull_candidates(
                &Exclusive {
                    csc,
                    op: &op_sparse,
                },
                pcsr.part(p),
                FrontierView::Sparse(&actives),
                &mut AtomicSink(&next_sparse),
                &mut tally,
            );
            drop(tally);

            assert_eq!(op_dense.total(), op_sparse.total(), "partition {p}");
            assert_eq!(
                next_dense.into_bitmap(),
                next_sparse.into_bitmap(),
                "partition {p}"
            );
        }
    }

    /// Splitting a mega-hub's in-edge scan into collected partials and
    /// replaying them through `resolve_hubs` applies exactly the updates
    /// the unsplit `pull_vertex` scan applies, and resolves to the same
    /// activation.
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
        let view = FrontierView::Sparse(&actives);

        // Unsplit reference.
        let op_ref = TouchCount::new(n);
        let next_ref = AtomicBitmap::new(n);
        let mut tally = LocalTally::new(&counters);
        Exclusive { csc, op: &op_ref }.pull_vertex(view, 0, &mut AtomicSink(&next_ref), &mut tally);
        drop(tally);

        // Split into sub-chunks of 16 edges, collect, then reduce.
        let chunks = plan::chunk_dense_range(csc.offsets(), 0..1, 16, plan::HubSplit::Always);
        assert!(chunks.len() > 1 && chunks.iter().all(|c| c.sub.is_some()));
        let op_split = TouchCount::new(n);
        let kernel = Exclusive { csc, op: &op_split };
        let outputs = collect_all(&kernel, view, &chunks, &counters);
        assert_eq!(
            op_split.total(),
            0,
            "collection must not apply the operator"
        );
        let reduced = resolve_hubs(&kernel, outputs);
        assert_eq!(reduced.len(), 1, "one resolved output per split hub");
        assert_eq!(op_split.total(), op_ref.total(), "same applied updates");
        let want: Vec<u32> = next_ref
            .into_bitmap()
            .iter_ones()
            .map(|i| i as u32)
            .collect();
        match &reduced[0].data {
            PartitionOutputData::Sparse(list) => assert_eq!(list, &want),
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
                self.update(s, d, w)
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
        let view = FrontierView::Sparse(&actives);

        let chunks = plan::chunk_dense_range(csc.offsets(), 0..1, 10, plan::HubSplit::Always);
        let op = ClaimOnce {
            claimed: AtomicU32::new(0),
            applied: AtomicU32::new(0),
        };
        let kernel = Exclusive { csc, op: &op };
        let outputs = collect_all(&kernel, view, &chunks, &counters);
        let reduced = resolve_hubs(&kernel, outputs);
        assert_eq!(
            op.applied.load(Ordering::Relaxed),
            1,
            "cond early exit must stop the replay after the claim"
        );
        match &reduced[0].data {
            PartitionOutputData::Sparse(list) => assert_eq!(list, &vec![0u32]),
            other => panic!("the claimed hub must activate, got {other:?}"),
        }
    }

    /// The typed sinks record the same activation set as the shared atomic
    /// bitmap, for both planned representations, and round-trip through
    /// `PartitionOutput`.
    #[test]
    fn typed_sinks_match_the_atomic_bitmap() {
        let el = gg_graph::generators::rmat(7, 700, gg_graph::generators::RmatParams::skewed(), 4);
        let n = el.num_vertices();
        let (store, exec) = build(&el, 4);
        let actives: Vec<u32> = (0..n as u32).step_by(3).collect();
        let view_of = FrontierView::Sparse(&actives);
        let counters = WorkCounters::new();

        for &p in exec.edge_order.as_slice() {
            let range = exec.views()[p].dst_range.clone();
            let op = TouchCount::new(n);
            let next = AtomicBitmap::new(n);
            let mut tally = LocalTally::new(&counters);
            pull_range(
                &Exclusive {
                    csc: store.csc(),
                    op: &op,
                },
                view_of,
                range.clone(),
                &mut AtomicSink(&next),
                &mut tally,
            );
            drop(tally);
            let want: Vec<u32> = next.into_bitmap().iter_ones().map(|i| i as u32).collect();

            for repr in [OutputRepr::Sparse, OutputRepr::Dense] {
                let op = TouchCount::new(n);
                let mut sink = PartSink::new(repr, range.clone());
                let mut tally = LocalTally::new(&counters);
                pull_range(
                    &Exclusive {
                        csc: store.csc(),
                        op: &op,
                    },
                    view_of,
                    range.clone(),
                    &mut sink,
                    &mut tally,
                );
                drop(tally);
                let out = sink.into_output();
                assert_eq!(out.range, range, "partition {p} {repr:?}");
                let got: Vec<u32> = match &out.data {
                    PartitionOutputData::Sparse(list) => list.clone(),
                    PartitionOutputData::Dense(seg) => seg.to_indices(),
                };
                assert_eq!(got, want, "partition {p} {repr:?}");
                assert_eq!(out.count(), want.len(), "partition {p} {repr:?}");
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
            self.update(s, d, w)
        }
    }

    impl EdgeMapReduce for SumInto {
        fn identity(&self) -> f64 {
            0.0
        }
        fn accumulate(&self, acc: f64, src: u32, _w: f32) -> f64 {
            acc + (src + 1) as f64
        }
        fn combine(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, dst: u32, acc: f64) -> bool {
            self.acc[dst as usize].add_exclusive(acc);
            true
        }
    }

    /// Pre-reducing a split hub through `Quantum::collect_hub` +
    /// `resolve_hubs` is bit-identical to the unsplit
    /// `Quantum::pull_vertex` scan, for sub-chunk caps both smaller and
    /// larger than the quantum and for caps not aligned to it.
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
        let view = FrontierView::Sparse(&actives);

        // Unsplit reference: one quantum-folded scan.
        let op_ref = SumInto::new(n);
        let next_ref = AtomicBitmap::new(n);
        let mut tally = LocalTally::new(&counters);
        Quantum { csc, op: &op_ref }.pull_vertex(view, 0, &mut AtomicSink(&next_ref), &mut tally);
        drop(tally);
        assert!(next_ref.into_bitmap().get(0));

        // Caps below, above and misaligned with REDUCE_QUANTUM.
        for cap in [7usize, 16, 64, 100, 250] {
            let chunks = plan::chunk_dense_range(csc.offsets(), 0..1, cap, plan::HubSplit::Always);
            assert!(chunks.iter().all(|c| c.sub.is_some()), "cap {cap}");
            let op = SumInto::new(n);
            let kernel = Quantum { csc, op: &op };
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
                PartitionOutputData::Sparse(list) => assert_eq!(list, &vec![0u32], "cap {cap}"),
                other => panic!("expected resolved sparse output, got {other:?}"),
            }
        }
    }
}
