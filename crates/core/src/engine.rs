//! The [`Engine`] abstraction and [`GraphGrind2`], the paper's engine.
//!
//! Algorithms in `gg-algorithms` are generic over [`Engine`], so the same
//! algorithm source runs on GraphGrind-v2 and on the one baseline engine
//! of `gg-baselines` (Ligra / Polymer / GraphGrind-v1 as three
//! constructors) — exactly how the paper's Figure 9 compares *traversal
//! policies* rather than unrelated codebases. Every monolithic round, on
//! GraphGrind-v2 and on the baselines alike, picks one [`Pass`] and runs
//! it; GraphGrind-v2 picks it from Algorithm 2's class or the forced
//! kernel of Figures 5 and 6.
//!
//! [`EdgeMapSpec`] carries the per-algorithm metadata from Table II:
//! vertex- vs edge-orientation (selects the load-balancing ranges, §III.D)
//! and the traversal direction the *baselines* would prefer for dense
//! frontiers. GraphGrind-v2 deliberately ignores the direction hint — the
//! paper's point is that the frontier-density decision subsumes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gg_graph::edge_list::EdgeList;
use gg_graph::types::VertexId;
use gg_runtime::buffer::BufferPool;
use gg_runtime::counters::{CounterSnapshot, WorkCounters};
use gg_runtime::pool::Pool;

use crate::config::{Config, ExecutorKind, ForcedKernel};
use crate::edge_map::{EdgeKind, EdgeMapReduce, EdgeOp, Pass};
use crate::frontier::{Frontier, LaneWord};
use crate::fused::{FusedFrontier, FusedRound, MultiSourceOp, MultiSourceReduce};
use crate::partitioned::{
    AllActive, ChunkKernel, Exclusive, PartitionView, PartitionedExec, Quantum, RoundCtx, Scalar,
    Word,
};
use crate::store::GraphStore;
use crate::trace::{frontier_digest, lane_digests, RoundKernel, RoundRecord, StepRecord};

/// Dense-traversal direction preferred by an algorithm (Table II). Only
/// baseline engines honour it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Push along out-edges (CSR-ordered).
    Forward,
    /// Pull along in-edges (CSC-ordered).
    Backward,
}

/// Whether the algorithm does near-constant work per vertex or per edge
/// (§III.D); selects vertex- vs edge-balanced computation ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Near-constant work per vertex (BFS, BC, Bellman-Ford).
    Vertex,
    /// Near-constant work per edge (CC, PR, PRDelta, SPMV, BP).
    Edge,
}

/// Per-edge-map metadata supplied by the algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeMapSpec {
    /// Vertex- or edge-oriented load balancing.
    pub orientation: Orientation,
    /// Direction a direction-choosing baseline would use on dense
    /// frontiers.
    pub preferred: Direction,
}

impl EdgeMapSpec {
    /// Vertex-oriented, backward-preferring (BFS/BC-style).
    pub fn vertex_oriented() -> Self {
        EdgeMapSpec {
            orientation: Orientation::Vertex,
            preferred: Direction::Backward,
        }
    }

    /// Edge-oriented, forward-preferring (PRDelta/SPMV-style).
    pub fn edge_oriented() -> Self {
        EdgeMapSpec {
            orientation: Orientation::Edge,
            preferred: Direction::Forward,
        }
    }

    /// Overrides the preferred dense direction (builder style).
    pub fn with_direction(mut self, d: Direction) -> Self {
        self.preferred = d;
        self
    }
}

/// Counts of edge-map invocations per traversal class — the per-algorithm
/// mix reported alongside Table II.
///
/// The monolithic path records one count per edge map
/// ([`snapshot`](Self::snapshot)); the partitioned executor records one
/// count per *partition* per edge map plus the number of iterations that
/// mixed kernels ([`partition_snapshot`](Self::partition_snapshot)).
#[derive(Debug, Default)]
pub struct KernelCounts {
    sparse: AtomicU64,
    medium: AtomicU64,
    dense: AtomicU64,
    /// Partitions that selected the sparse kernel (partitioned executor).
    part_sparse: AtomicU64,
    /// Partitions that selected the dense kernel (partitioned executor).
    part_dense: AtomicU64,
    /// Edge maps in which different partitions selected different kernels.
    mixed_iterations: AtomicU64,
    /// Partitions whose planned output buffer was a sorted vertex list.
    out_sparse: AtomicU64,
    /// Partitions whose planned output buffer was a dense bitmap segment.
    out_dense: AtomicU64,
    /// Edge maps in which different partitions planned different output
    /// representations.
    mixed_output_iterations: AtomicU64,
}

impl KernelCounts {
    fn bump(&self, kind: EdgeKind) {
        match kind {
            EdgeKind::Sparse => self.sparse.fetch_add(1, Ordering::Relaxed),
            EdgeKind::Medium => self.medium.fetch_add(1, Ordering::Relaxed),
            EdgeKind::Dense => self.dense.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records one partitioned edge map's per-partition kernel selections.
    pub(crate) fn record_partitioned(&self, sparse_parts: u64, dense_parts: u64) {
        self.part_sparse.fetch_add(sparse_parts, Ordering::Relaxed);
        self.part_dense.fetch_add(dense_parts, Ordering::Relaxed);
        if sparse_parts > 0 && dense_parts > 0 {
            self.mixed_iterations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one partitioned edge map's planned output representations.
    pub(crate) fn record_outputs(&self, sparse_outputs: u64, dense_outputs: u64) {
        self.out_sparse.fetch_add(sparse_outputs, Ordering::Relaxed);
        self.out_dense.fetch_add(dense_outputs, Ordering::Relaxed);
        if sparse_outputs > 0 && dense_outputs > 0 {
            self.mixed_output_iterations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(sparse, medium, dense)` invocation counts (monolithic path).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.sparse.load(Ordering::Relaxed),
            self.medium.load(Ordering::Relaxed),
            self.dense.load(Ordering::Relaxed),
        )
    }

    /// `(sparse partitions, dense partitions, mixed iterations)` recorded
    /// by the partitioned executor: the first two count per-partition
    /// kernel selections summed over edge maps; the third counts edge maps
    /// in which at least two partitions disagreed on the kernel.
    pub fn partition_snapshot(&self) -> (u64, u64, u64) {
        (
            self.part_sparse.load(Ordering::Relaxed),
            self.part_dense.load(Ordering::Relaxed),
            self.mixed_iterations.load(Ordering::Relaxed),
        )
    }

    /// `(sparse outputs, dense outputs, mixed-output iterations)` recorded
    /// by the partitioned executor's planner: how many partitions emitted a
    /// sorted vertex list vs a dense bitmap segment, and how many edge maps
    /// mixed the two representations. Lets tests pin
    /// mixed-representation iterations the same way
    /// [`partition_snapshot`](Self::partition_snapshot) pins mixed-kernel
    /// iterations.
    pub fn output_snapshot(&self) -> (u64, u64, u64) {
        (
            self.out_sparse.load(Ordering::Relaxed),
            self.out_dense.load(Ordering::Relaxed),
            self.mixed_output_iterations.load(Ordering::Relaxed),
        )
    }

    /// Resets all counts.
    pub fn reset(&self) {
        self.sparse.store(0, Ordering::Relaxed);
        self.medium.store(0, Ordering::Relaxed);
        self.dense.store(0, Ordering::Relaxed);
        self.part_sparse.store(0, Ordering::Relaxed);
        self.part_dense.store(0, Ordering::Relaxed);
        self.mixed_iterations.store(0, Ordering::Relaxed);
        self.out_sparse.store(0, Ordering::Relaxed);
        self.out_dense.store(0, Ordering::Relaxed);
        self.mixed_output_iterations.store(0, Ordering::Relaxed);
    }
}

/// A graph-analytics engine: a graph bound to a traversal policy.
pub trait Engine: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of edges.
    fn num_edges(&self) -> usize;

    /// Out-degree array (drives frontier statistics).
    fn out_degrees(&self) -> &[u32];

    /// The engine's thread pool.
    fn pool(&self) -> &Pool;

    /// Work counters accumulated across edge maps.
    fn work_counters(&self) -> &WorkCounters;

    /// Short display name ("Ligra", "Polymer", "GG-v1", "GG-v2").
    fn name(&self) -> &'static str;

    /// Applies `op` to the out-edges of the active vertices of `frontier`,
    /// returning the next frontier (the set of destinations for which an
    /// update returned `true`, deduplicated).
    ///
    /// Edge maps parallelise internally; the engine itself is **not
    /// reentrant** — issue one `edge_map` at a time per engine (the sparse
    /// path shares a deduplication scratch bitmap across calls).
    fn edge_map<O: EdgeOp>(&self, frontier: &Frontier, op: &O, spec: EdgeMapSpec) -> Frontier;

    /// Like [`edge_map`](Self::edge_map), for operators whose
    /// per-destination update is an associative fold
    /// ([`EdgeMapReduce`]: PR, SpMV, BF, BP). Engines that can exploit
    /// the associativity — pre-reducing hub sub-chunk contributions
    /// instead of replaying them — override this; the default simply runs
    /// the exclusive-update `edge_map` path, which every correct
    /// `EdgeMapReduce` implementation must agree with.
    fn edge_map_reduce<O: EdgeMapReduce>(
        &self,
        frontier: &Frontier,
        op: &O,
        spec: EdgeMapSpec,
    ) -> Frontier {
        self.edge_map(frontier, op, spec)
    }

    /// The all-active frontier.
    fn frontier_all(&self) -> Frontier {
        Frontier::all(self.num_vertices(), self.num_edges() as u64)
    }

    /// A single-vertex frontier.
    fn frontier_single(&self, v: VertexId) -> Frontier {
        Frontier::single(v, self.num_vertices(), self.out_degrees())
    }

    /// A frontier from an explicit vertex list.
    fn frontier_sparse(&self, vertices: Vec<VertexId>) -> Frontier {
        Frontier::from_sparse(vertices, self.num_vertices(), self.out_degrees())
    }

    /// Applies `f` to every vertex `0..n` in parallel.
    fn vertex_map_all<F: Fn(VertexId) + Sync>(&self, f: F) {
        crate::vertex_map::vertex_map_all(self.num_vertices(), self.pool(), f);
    }

    /// Applies `f` to every active vertex of `frontier` in parallel.
    fn vertex_map<F: Fn(VertexId) + Sync>(&self, frontier: &Frontier, f: F) {
        crate::vertex_map::vertex_map(frontier, self.pool(), f);
    }
}

/// The partitions `0..P` of an engine, in the index order both executors
/// run them in.
#[derive(Clone, Copy, Debug)]
pub struct PartitionOrder {
    num_partitions: usize,
}

impl PartitionOrder {
    /// The partitions `keep` accepts, ascending.
    pub fn order_filtered(&self, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        (0..self.num_partitions).filter(|&p| keep(p)).collect()
    }
}

/// The paper's engine: composite 3-layout store + Algorithm 2.
#[derive(Debug)]
pub struct GraphGrind2 {
    store: GraphStore,
    config: Config,
    pool: Pool,
    counters: WorkCounters,
    kernel_counts: KernelCounts,
    scratch: gg_graph::bitmap::AtomicBitmap,
    /// Recycles the word buffers behind dense frontier merges
    /// (partitioned executor only).
    merge_scratch: Arc<BufferPool>,
    /// Destination ranges per orientation, precomputed from the store.
    edge_ranges: Vec<std::ops::Range<VertexId>>,
    vertex_ranges: Vec<std::ops::Range<VertexId>>,
    /// Per-partition subgraph views + edge-map submission order
    /// ([`ExecutorKind::Partitioned`] only).
    partitioned: Option<PartitionedExec>,
    /// The rounds recorded so far while recording (record/replay
    /// harness), in execution order; `None` when idle. Behind
    /// a mutex because edge maps take `&self`; locked twice per round
    /// while recording, never contended (recording runs are
    /// single-algorithm), and checked-then-dropped once per round when
    /// idle.
    recorder: Mutex<Option<Vec<RoundRecord>>>,
}

/// The recorder lock's invariant: nothing that can panic runs under it.
const RECORDER_LOCK: &str = "the recorder lock is never held across a panic";

/// Why a fused edge map refuses an engine without the partitioned executor.
const FUSED_PARTITIONED: &str = "fused rounds run on the partitioned executor";

/// The dense COO scan's invariant: only the monolithic path runs it, and
/// only a partitioned store goes without the COO.
const MONOLITHIC_COO: &str = "the dense COO scan runs on a monolithic store, which builds the COO";

impl GraphGrind2 {
    /// Builds the engine (the layouts its executor reads, partition sets
    /// and — for [`ExecutorKind::Partitioned`] — the per-partition
    /// subgraph views) from an edge list.
    pub fn new(el: &EdgeList, config: Config) -> Self {
        let store = GraphStore::build(el, &config);
        let pool = Pool::new(config.threads);
        let p = store.num_partitions();
        let scratch = gg_graph::bitmap::AtomicBitmap::new(store.num_vertices());
        let edge_ranges = (0..p).map(|i| store.edge_parts().range(i)).collect();
        let vertex_ranges = (0..p).map(|i| store.vertex_parts().range(i)).collect();
        let partitioned =
            (config.executor == ExecutorKind::Partitioned).then(|| PartitionedExec::new(&store));
        GraphGrind2 {
            store,
            config,
            pool,
            counters: WorkCounters::new(),
            kernel_counts: KernelCounts::default(),
            scratch,
            merge_scratch: Arc::new(BufferPool::new()),
            edge_ranges,
            vertex_ranges,
            partitioned,
            recorder: Mutex::new(None),
        }
    }

    /// Starts per-round trace recording: every subsequent non-empty edge
    /// map appends one [`RoundRecord`] (plan for its input frontier, digest
    /// of its output frontier, counter deltas) until
    /// [`take_recording`](Self::take_recording). Restarting discards any
    /// rounds recorded since the last take.
    pub fn start_recording(&self) {
        *self.recorder.lock().expect(RECORDER_LOCK) = Some(Vec::new());
    }

    /// Stops recording and returns the rounds recorded since
    /// [`start_recording`](Self::start_recording) (empty if recording was
    /// never started).
    pub fn take_recording(&self) -> Vec<RoundRecord> {
        self.recorder
            .lock()
            .expect(RECORDER_LOCK)
            .take()
            .unwrap_or_default()
    }

    /// The contract half of a round record: the planned kernel choice(s)
    /// for `frontier` as this round's input. For the partitioned executor
    /// the plan is *recomputed* via [`PartitionedExec::round_plan`] — the
    /// planner is deterministic and pool-free, so this is exactly the plan
    /// the executor derives internally, without threading recording state
    /// through the execution path.
    fn round_kernel_for<W: LaneWord>(&self, frontier: &Frontier<W>) -> RoundKernel {
        if let Some(exec) = &self.partitioned {
            let plan = exec.round_plan(&self.store, &self.config, frontier);
            RoundKernel::Partitioned(
                plan.steps
                    .iter()
                    .map(|s| StepRecord {
                        partition: s.partition as u64,
                        kernel: s.kernel,
                        output: s.output,
                    })
                    .collect(),
            )
        } else if self.config.force.is_some() {
            RoundKernel::Forced
        } else {
            RoundKernel::Monolithic(crate::plan::plan_edge_map(
                frontier,
                self.store.num_edges() as u64,
                &self.config.thresholds,
            ))
        }
    }

    /// If recording, captures the round's plan and the counter baseline
    /// before execution. The matching [`finish_round`](Self::finish_round)
    /// call digests the output.
    fn begin_round<W: LaneWord>(
        &self,
        frontier: &Frontier<W>,
    ) -> Option<(RoundKernel, CounterSnapshot)> {
        if self.recorder.lock().expect(RECORDER_LOCK).is_none() {
            return None;
        }
        Some((self.round_kernel_for(frontier), self.counters.snapshot()))
    }

    /// Completes a round begun by [`begin_round`](Self::begin_round) with
    /// the merged output frontier (a fused one is digested per lane too).
    fn finish_round<W: LaneWord>(
        &self,
        begun: Option<(RoundKernel, CounterSnapshot)>,
        output: &Frontier<W>,
    ) {
        if let Some((kernel, pre)) = begun {
            let sched = self.counters.snapshot().delta_since(&pre);
            if let Some(rounds) = self.recorder.lock().expect(RECORDER_LOCK).as_mut() {
                rounds.push(RoundRecord {
                    round: rounds.len() as u64,
                    frontier_len: output.len() as u64,
                    frontier_hash: frontier_digest(output),
                    kernel,
                    lanes: (W::LANES > 1).then(|| lane_digests(output)),
                    sched,
                });
            }
        }
    }

    /// The initial fused frontier of a K-query batch: lane `i` holds
    /// `seeds[i]` (K ≤ 64).
    pub fn fused_frontier(&self, seeds: &[VertexId]) -> FusedFrontier {
        FusedFrontier::from_seeds(seeds, self.store.num_vertices(), self.store.out_degrees())
    }

    /// One fused edge map: advance all K lanes of `frontier` in a single
    /// edge pass. Planning (sparse/dense kernel and output representation
    /// per partition) reads the frontier's **union** statistics through the
    /// scalar planner; chunking, hub splitting and task claiming are the scalar
    /// paths unchanged, so fused rounds are bit-identical across partition
    /// counts, thread counts and chunk caps.
    ///
    /// # Panics
    /// Panics with "fused rounds run on the partitioned executor" on a
    /// non-empty `frontier` when the engine was not built with
    /// [`ExecutorKind::Partitioned`]: fused rounds are planned per
    /// partition, and the monolithic path has no partitions to plan.
    pub fn fused_edge_map<O: MultiSourceOp>(
        &self,
        frontier: &FusedFrontier,
        op: &O,
    ) -> FusedFrontier {
        self.fused_round(frontier, |lanes| Exclusive {
            csc: self.store.csc(),
            lanes,
            op,
        })
    }

    /// The fused associative edge map ([`MultiSourceReduce`]): identical
    /// planning and scheduling to [`fused_edge_map`](Self::fused_edge_map),
    /// with per-destination scans folded in fixed quantum-width runs so
    /// per-lane f64 results stay bit-identical across configurations.
    ///
    /// # Panics
    /// As [`fused_edge_map`](Self::fused_edge_map), without the
    /// partitioned executor.
    pub fn fused_edge_map_reduce<O: MultiSourceReduce>(
        &self,
        frontier: &FusedFrontier,
        op: &O,
    ) -> FusedFrontier {
        self.fused_round(frontier, |lanes| Quantum {
            csc: self.store.csc(),
            lanes,
            op,
        })
    }

    /// One recorded fused round: derive the round's deliverable-lane
    /// masks once, then run `kernel` through the partitioned driver.
    fn fused_round<K: ChunkKernel<Lanes = FusedRound>>(
        &self,
        frontier: &FusedFrontier,
        kernel: impl FnOnce(FusedRound) -> K,
    ) -> FusedFrontier {
        if frontier.is_empty() {
            return frontier.empty_like();
        }
        let exec = self.partitioned.as_ref().expect(FUSED_PARTITIONED);
        let kernel = kernel(FusedRound::new(self.store.csr(), frontier));
        self.partitioned_round(exec, frontier, &kernel)
    }

    /// One recorded round on the partitioned executor.
    fn partitioned_round<K: ChunkKernel>(
        &self,
        exec: &PartitionedExec,
        frontier: &Frontier<Word<K>>,
        kernel: &K,
    ) -> Frontier<Word<K>> {
        let begun = self.begin_round(frontier);
        let next = exec.run(&self.round_ctx(), frontier, kernel);
        self.finish_round(begun, &next);
        next
    }

    /// What an edge-map round borrows from this engine.
    fn round_ctx(&self) -> RoundCtx<'_> {
        RoundCtx {
            store: &self.store,
            pool: &self.pool,
            config: &self.config,
            counters: &self.counters,
            kernel_counts: &self.kernel_counts,
            scratch: &self.merge_scratch,
        }
    }

    /// The composite store.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Per-class edge-map invocation counts.
    pub fn kernel_counts(&self) -> &KernelCounts {
        &self.kernel_counts
    }

    /// The partitions in index order. Only the frozen benchmark's
    /// planner replay reads this; the benchmark item of ROADMAP.md moves
    /// that replay onto [`partition_views`](Self::partition_views) and
    /// deletes this accessor with [`PartitionOrder`].
    pub fn schedule(&self) -> PartitionOrder {
        PartitionOrder {
            num_partitions: self.store.num_partitions(),
        }
    }

    /// The buffer pool recycling dense-merge scratch bitmaps (partitioned
    /// executor only) — exposed so tests and benches can observe recycling.
    pub fn merge_scratch(&self) -> &Arc<BufferPool> {
        &self.merge_scratch
    }

    /// The materialised per-partition subgraph views, indexed by
    /// partition. Empty unless the engine was built with
    /// [`ExecutorKind::Partitioned`].
    pub fn partition_views(&self) -> &[PartitionView] {
        self.partitioned.as_ref().map_or(&[], |e| e.views())
    }

    /// The monolithic pass for `frontier`: Algorithm 2's class, or the
    /// forced kernel. Each call bumps one class count; a forced kernel
    /// counts as Dense, except CSC + na, which counts as Medium.
    fn monolithic_pass(&self, frontier: &Frontier, spec: EdgeMapSpec) -> Pass<'_> {
        let kind = match self.config.force {
            None => crate::plan::plan_edge_map(
                frontier,
                self.num_edges() as u64,
                &self.config.thresholds,
            ),
            Some(ForcedKernel::CscNoAtomic) => EdgeKind::Medium,
            Some(_) => EdgeKind::Dense,
        };
        self.kernel_counts.bump(kind);
        match (kind, self.config.force) {
            (EdgeKind::Sparse, _) => Pass::Sparse {
                csr: self.store.csr(),
                scratch: &self.scratch,
            },
            (EdgeKind::Medium, _) => Pass::Csc {
                csc: self.store.csc(),
                ranges: match spec.orientation {
                    Orientation::Edge => &self.edge_ranges,
                    Orientation::Vertex => &self.vertex_ranges,
                },
            },
            (EdgeKind::Dense, Some(ForcedKernel::CsrAtomic)) => Pass::PartitionedCsr(
                self.store
                    .partitioned_csr()
                    .expect("CsrAtomic requires build_partitioned_csr"),
            ),
            (EdgeKind::Dense, force) => Pass::Coo {
                coo: self.store.coo().expect(MONOLITHIC_COO),
                atomics: force == Some(ForcedKernel::CooAtomic),
            },
        }
    }
}

impl Engine for GraphGrind2 {
    fn num_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    fn out_degrees(&self) -> &[u32] {
        self.store.out_degrees()
    }

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn work_counters(&self) -> &WorkCounters {
        &self.counters
    }

    fn name(&self) -> &'static str {
        "GG-v2"
    }

    fn edge_map<O: EdgeOp>(&self, frontier: &Frontier, op: &O, spec: EdgeMapSpec) -> Frontier {
        if frontier.is_empty() {
            return Frontier::empty(self.num_vertices());
        }
        if let Some(exec) = &self.partitioned {
            let csc = self.store.csc();
            let kernel = Exclusive {
                csc,
                lanes: Scalar,
                op,
            };
            return self.partitioned_round(exec, frontier, &kernel);
        }
        let begun = self.begin_round(frontier);
        let next = self.monolithic_pass(frontier, spec).run(
            frontier,
            op,
            &self.pool,
            &self.counters,
            self.store.out_degrees(),
        );
        self.finish_round(begun, &next);
        next
    }

    /// The partitioned executor routes reduce-capable operators through
    /// the associative pre-reduction path; monolithic configurations fall
    /// back to the exclusive-update kernels.
    fn edge_map_reduce<O: EdgeMapReduce>(
        &self,
        frontier: &Frontier,
        op: &O,
        spec: EdgeMapSpec,
    ) -> Frontier {
        if frontier.is_empty() {
            return Frontier::empty(self.num_vertices());
        }
        match &self.partitioned {
            Some(exec) if frontier.len() == self.num_vertices() => {
                let csc = self.store.csc();
                let kernel = Quantum {
                    csc,
                    lanes: AllActive,
                    op,
                };
                self.partitioned_round(exec, frontier, &kernel)
            }
            Some(exec) => {
                let csc = self.store.csc();
                let kernel = Quantum {
                    csc,
                    lanes: Scalar,
                    op,
                };
                self.partitioned_round(exec, frontier, &kernel)
            }
            None => self.edge_map(frontier, op, spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_graph::generators;
    use std::sync::atomic::AtomicU32;

    /// CC-style operator: propagate minimum label.
    struct MinLabel {
        labels: Vec<AtomicU32>,
    }

    impl MinLabel {
        fn new(n: usize) -> Self {
            MinLabel {
                labels: (0..n as u32).map(AtomicU32::new).collect(),
            }
        }
        fn snapshot(&self) -> Vec<u32> {
            self.labels
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .collect()
        }
    }

    impl EdgeOp for MinLabel {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
            let sl = self.labels[s as usize].load(Ordering::Relaxed);
            let dl = self.labels[d as usize].load(Ordering::Relaxed);
            if sl < dl {
                self.labels[d as usize].store(sl, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
        fn update_atomic(&self, s: u32, d: u32, _w: f32) -> bool {
            let sl = self.labels[s as usize].load(Ordering::Relaxed);
            gg_runtime::atomics::fetch_min_u32(&self.labels[d as usize], sl)
        }
    }

    fn engine_with(el: &gg_graph::edge_list::EdgeList, cfg: Config) -> GraphGrind2 {
        GraphGrind2::new(el, cfg)
    }

    fn run_cc<E: Engine>(engine: &E) -> Vec<u32> {
        let op = MinLabel::new(engine.num_vertices());
        let mut frontier = engine.frontier_all();
        let mut rounds = 0;
        while !frontier.is_empty() && rounds < 100 {
            frontier = engine.edge_map(&frontier, &op, EdgeMapSpec::edge_oriented());
            rounds += 1;
        }
        op.snapshot()
    }

    #[test]
    fn label_propagation_converges_identically_across_layouts() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            8,
            1500,
            generators::RmatParams::skewed(),
            11,
        ));
        let reference = run_cc(&engine_with(&el, Config::for_tests()));

        for forced in [
            ForcedKernel::CscNoAtomic,
            ForcedKernel::CooAtomic,
            ForcedKernel::CooNoAtomic,
            ForcedKernel::CsrAtomic,
        ] {
            let cfg = Config::for_tests().with_forced(forced);
            let got = run_cc(&engine_with(&el, cfg));
            assert_eq!(got, reference, "forced = {forced:?}");
        }
    }

    #[test]
    fn partition_count_does_not_change_results() {
        let el = gg_graph::ops::symmetrize(&generators::erdos_renyi(120, 700, 3));
        let reference = run_cc(&engine_with(&el, Config::for_tests().with_partitions(2)));
        for p in [4usize, 16, 64] {
            let got = run_cc(&engine_with(&el, Config::for_tests().with_partitions(p)));
            assert_eq!(got, reference, "P = {p}");
        }
    }

    #[test]
    fn empty_frontier_short_circuits() {
        let el = generators::erdos_renyi(50, 200, 1);
        let engine = engine_with(&el, Config::for_tests());
        let op = MinLabel::new(50);
        let empty = Frontier::empty(50);
        let next = engine.edge_map(&empty, &op, EdgeMapSpec::edge_oriented());
        assert!(next.is_empty());
        let (s, m, d) = engine.kernel_counts().snapshot();
        assert_eq!((s, m, d), (0, 0, 0));
    }

    #[test]
    fn decision_records_kernel_mix() {
        let el = generators::rmat(8, 4000, generators::RmatParams::skewed(), 5);
        let engine = engine_with(&el, Config::for_tests());
        let op = MinLabel::new(engine.num_vertices());

        // Dense call.
        engine.edge_map(&engine.frontier_all(), &op, EdgeMapSpec::edge_oriented());
        // Sparse call: one low-degree vertex.
        let v = (0..engine.num_vertices() as u32)
            .min_by_key(|&v| engine.out_degrees()[v as usize])
            .unwrap();
        engine.edge_map(
            &engine.frontier_single(v),
            &op,
            EdgeMapSpec::edge_oriented(),
        );

        let (s, _m, d) = engine.kernel_counts().snapshot();
        assert_eq!(d, 1);
        assert_eq!(s, 1);
    }

    #[test]
    fn partitioned_executor_matches_monolithic_cc() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            8,
            1800,
            generators::RmatParams::skewed(),
            21,
        ));
        let reference = run_cc(&engine_with(&el, Config::for_tests()));
        for p in [2usize, 8, 32] {
            let cfg = Config::partitioned_for_tests().with_partitions(p);
            let engine = engine_with(&el, cfg);
            assert!(!engine.partition_views().is_empty());
            assert_eq!(run_cc(&engine), reference, "P = {p}");
        }
    }

    /// A dense block on low ids plus a sparse path tail: with the block
    /// fully active, block partitions go dense while tail partitions go
    /// sparse — one edge map, mixed kernels.
    fn density_skewed_graph() -> gg_graph::edge_list::EdgeList {
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
        el
    }

    #[test]
    fn partitioned_executor_mixes_kernels_within_one_iteration() {
        let el = density_skewed_graph();
        let engine = engine_with(&el, Config::partitioned_for_tests().with_partitions(4));
        let op = MinLabel::new(engine.num_vertices());
        // Activate the lower half of the dense block: block partitions see
        // a locally dense frontier, tail partitions see zero local actives.
        let block: Vec<u32> = (0..8).collect();
        let frontier = engine.frontier_sparse(block);
        let _ = engine.edge_map(&frontier, &op, EdgeMapSpec::edge_oriented());
        let (s, d, mixed) = engine.kernel_counts().partition_snapshot();
        assert!(s >= 1, "no partition selected the sparse kernel: {s}/{d}");
        assert!(d >= 1, "no partition selected the dense kernel: {s}/{d}");
        assert_eq!(mixed, 1, "the iteration must be recorded as mixed");
        // The monolithic counters stay untouched on the partitioned path.
        assert_eq!(engine.kernel_counts().snapshot(), (0, 0, 0));
    }

    #[test]
    fn partitioned_executor_skips_empty_partitions() {
        // 3 vertices over 16 requested partitions: most views are empty.
        let el = gg_graph::edge_list::EdgeList::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let engine = engine_with(&el, Config::partitioned_for_tests().with_partitions(16));
        let nonempty = engine
            .partition_views()
            .iter()
            .filter(|v| v.num_edges > 0)
            .count() as u64;
        assert!(nonempty <= 3);
        let op = MinLabel::new(3);
        let _ = engine.edge_map(&engine.frontier_all(), &op, EdgeMapSpec::edge_oriented());
        let (s, d, _) = engine.kernel_counts().partition_snapshot();
        assert_eq!(s + d, nonempty, "only non-empty partitions get a kernel");
    }

    /// BFS-shaped operator: claim an unvisited destination once.
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

    /// A road-grid BFS whose every round is tiny and all-sparse runs each
    /// round inline on the dispatcher: at four threads the crew never
    /// wakes, and every round is exactly one chunk.
    #[test]
    fn tiny_partitioned_rounds_dispatch_no_epoch() {
        let el = generators::grid_road(100, 100, 0.05, 1);
        let cfg = Config {
            threads: 4,
            ..Config::partitioned_for_tests().with_partitions(4)
        };
        let engine = engine_with(&el, cfg);
        let n = engine.num_vertices();
        let op = Claim((0..n).map(|_| AtomicU32::new(u32::MAX)).collect());
        op.0[0].store(0, Ordering::Relaxed);
        let (epochs, chunks) = (engine.pool().epochs(), engine.work_counters().chunks());
        let mut frontier = engine.frontier_single(0);
        let mut rounds = 0u64;
        while !frontier.is_empty() {
            frontier = engine.edge_map(&frontier, &op, EdgeMapSpec::vertex_oriented());
            rounds += 1;
        }
        assert!(rounds > 100, "a grid BFS takes many rounds: {rounds}");
        assert!(op.0.iter().all(|p| p.load(Ordering::Relaxed) != u32::MAX));
        assert_eq!(engine.pool().epochs(), epochs, "no round may wake the crew");
        assert_eq!(engine.work_counters().chunks() - chunks, rounds);
    }

    #[test]
    fn partitioned_executor_with_no_edges_never_touches_the_pool() {
        let el = gg_graph::edge_list::EdgeList::new(8);
        let engine = engine_with(&el, Config::partitioned_for_tests().with_partitions(4));
        let before = engine.pool().jobs_run();
        let op = MinLabel::new(8);
        let next = engine.edge_map(&engine.frontier_all(), &op, EdgeMapSpec::edge_oriented());
        assert!(next.is_empty());
        assert_eq!(
            engine.pool().jobs_run(),
            before,
            "edgeless graph: no pool work"
        );
        assert_eq!(engine.kernel_counts().partition_snapshot(), (0, 0, 0));
    }

    /// The partitioned engine's vertex maps are the trait's generic ones:
    /// at P = 4, T = 2 each active vertex is visited exactly once, for all
    /// vertices and for sparse and dense frontiers.
    #[test]
    fn partitioned_vertex_maps_visit_each_active_once() {
        let el = density_skewed_graph();
        let engine = engine_with(&el, Config::partitioned_for_tests().with_partitions(4));
        assert_eq!(engine.pool().threads(), 2);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let visit = |v: VertexId| {
            hits[v as usize].fetch_add(1, Ordering::Relaxed);
        };
        let take = || -> Vec<u32> { hits.iter().map(|h| h.swap(0, Ordering::Relaxed)).collect() };

        engine.vertex_map_all(visit);
        assert_eq!(take(), vec![1; 64]);

        let actives: Vec<u32> = (0..64).step_by(3).collect();
        let expected: Vec<u32> = (0..64).map(|v| u32::from(v % 3 == 0)).collect();
        engine.vertex_map(&engine.frontier_sparse(actives.clone()), visit);
        assert_eq!(take(), expected, "sparse frontier");

        let dense = Frontier::from_dense(
            gg_graph::bitmap::Bitmap::from_indices(64, &actives),
            engine.out_degrees(),
            engine.pool(),
        );
        engine.vertex_map(&dense, visit);
        assert_eq!(take(), expected, "dense frontier");
    }

    /// Intra-partition chunking is invisible in results: a tiny chunk cap
    /// splits partitions into many more chunk tasks, with every
    /// chunk within the `cap + max_degree` bound, and converges to the
    /// same labels as unbounded (one chunk per partition) execution.
    #[test]
    fn chunk_cap_changes_scheduling_but_not_results() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            8,
            1800,
            generators::RmatParams::skewed(),
            21,
        ));
        let unbounded = engine_with(
            &el,
            Config::partitioned_for_tests()
                .with_partitions(4)
                .with_chunk_edges(usize::MAX),
        );
        let reference = run_cc(&unbounded);
        let baseline_chunks = unbounded.work_counters().chunks();
        assert!(baseline_chunks > 0);

        let cap = 8usize;
        let chunked = engine_with(
            &el,
            Config::partitioned_for_tests()
                .with_partitions(4)
                .with_chunk_edges(cap),
        );
        assert_eq!(run_cc(&chunked), reference);
        let counters = chunked.work_counters();
        assert!(
            counters.chunks() > baseline_chunks,
            "cap {cap} must split partitions: {} vs {baseline_chunks}",
            counters.chunks()
        );
        let max_in_degree = chunked
            .store()
            .in_degrees()
            .iter()
            .copied()
            .max()
            .unwrap_or(0) as u64;
        assert!(
            counters.max_chunk_edges() <= cap as u64 + max_in_degree,
            "chunk bound violated: {} > {cap} + {max_in_degree}",
            counters.max_chunk_edges()
        );
        assert!(counters.mean_chunk_edges() <= counters.max_chunk_edges() as f64);
    }

    /// The dense-merge scratch bitmap is recycled through the engine's
    /// buffer pool: steady-state rounds reuse a dead frontier's words
    /// instead of allocating, and at most two buffers (the in-flight input
    /// and output frontiers) ever exist.
    #[test]
    fn dense_merge_scratch_is_recycled_across_rounds() {
        // PR-style usage: every round is a dense edge map over the full
        // frontier whose output frontier dies before the next round — the
        // exact pattern the pooled scratch bitmap exists for.
        struct AlwaysActivate;
        impl EdgeOp for AlwaysActivate {
            fn update(&self, _s: u32, _d: u32, _w: f32) -> bool {
                true
            }
            fn update_atomic(&self, _s: u32, _d: u32, _w: f32) -> bool {
                true
            }
        }
        let el = generators::rmat(8, 1800, generators::RmatParams::skewed(), 21);
        let cfg = Config {
            output_mode: crate::config::OutputMode::ForceDense,
            ..Config::partitioned_for_tests().with_partitions(4)
        };
        let engine = engine_with(&el, cfg);
        for _ in 0..6 {
            let next = engine.edge_map(
                &engine.frontier_all(),
                &AlwaysActivate,
                EdgeMapSpec::edge_oriented(),
            );
            assert!(!next.is_empty());
        }
        let pool = engine.merge_scratch();
        assert_eq!(
            pool.recycled(),
            5,
            "every round after the first must recycle the scratch bitmap"
        );
        assert_eq!(
            pool.allocated(),
            1,
            "only the first round may allocate fresh"
        );
    }

    /// The engine's persistent pool: a full CC run dispatches many epochs
    /// but spawns the worker crew exactly once, and a star hub under a
    /// tiny fixed cap splits into sub-chunks without changing the labels.
    #[test]
    fn engine_reuses_one_crew_and_splits_star_hubs() {
        // A star into vertex 0 plus a connecting ring.
        let mut el = gg_graph::edge_list::EdgeList::new(64);
        for s in 1..64u32 {
            el.push(s, 0);
            el.push(s - 1, s);
        }
        el.push(63, 0);
        let reference = run_cc(&engine_with(&el, Config::for_tests()));

        let cfg = Config::partitioned_for_tests()
            .with_partitions(4)
            .with_chunk_edges(4);
        let engine = engine_with(&el, cfg);
        assert_eq!(engine.pool().spawns(), 0, "no crew before the first map");
        assert_eq!(run_cc(&engine), reference);
        assert_eq!(run_cc(&engine), reference, "reused crew, same labels");
        assert_eq!(
            engine.pool().spawns(),
            2,
            "two runs must spawn the 2-thread crew exactly once"
        );
        assert!(
            engine.pool().epochs() > engine.pool().spawns(),
            "epochs ({}) must outnumber spawns ({})",
            engine.pool().epochs(),
            engine.pool().spawns()
        );
        let c = engine.work_counters();
        assert!(
            c.hub_subchunks() > 0,
            "the 64-in-degree star centre must split under cap 4"
        );
        assert!(
            c.max_chunk_edges() < 64,
            "max chunk ({}) must drop below the hub's in-degree",
            c.max_chunk_edges()
        );
    }

    #[test]
    fn engine_reports_metadata() {
        let el = generators::erdos_renyi(64, 256, 9);
        let engine = engine_with(&el, Config::for_tests());
        assert_eq!(engine.num_vertices(), 64);
        assert_eq!(engine.num_edges(), 256);
        assert_eq!(engine.name(), "GG-v2");
        assert_eq!(engine.pool().threads(), 2);
        assert_eq!(engine.frontier_all().len(), 64);
        assert_eq!(engine.frontier_single(3).to_vertex_list(), vec![3]);
    }

    /// Fused rounds are planned per partition: a monolithic engine refuses
    /// them by name instead of running an unplanned pull.
    #[test]
    #[should_panic(expected = "fused rounds run on the partitioned executor")]
    fn a_fused_edge_map_needs_the_partitioned_executor() {
        struct Visit;
        impl MultiSourceOp for Visit {
            fn update(&self, _s: VertexId, _d: VertexId, _w: f32, src_lanes: u64) -> u64 {
                src_lanes
            }
        }
        let el = generators::erdos_renyi(64, 256, 9);
        let engine = engine_with(&el, Config::for_tests());
        engine.fused_edge_map(&engine.fused_frontier(&[0, 5]), &Visit);
    }
}
