//! Instrumented traversals feeding `gg-memsim`, plus the deterministic
//! execution **record/replay** harness.
//!
//! The first half replays the framework's traversal orders while emitting
//! every memory reference into an [`AccessSink`] — the portable substitute
//! for the paper's hardware measurements:
//!
//! * [`fig2_reuse_profile`] reproduces Figure 2: the reuse distances of
//!   next-array updates during a PRDelta-style dense push over the
//!   destination-partitioned CSR, for a given partition count;
//! * [`run_traced`] / [`run_traced_parallel`] reproduce the access streams
//!   behind Figure 8: full executions of PR / Bellman-Ford / BFS against
//!   the composite store (with Algorithm 2's decision logic), streamed
//!   into a cache simulator to obtain MPKI.
//!
//! Figure 2's replay is sequential in partition order (reuse distance is
//! defined on a serial reference stream; partitioning shortens the
//! distances regardless of which thread runs which partition). Figure 8's
//! replay interleaves the streams of `threads` concurrent workers, because
//! the paper's MPKI effect comes from the *aggregate* working set of the
//! partitions running at the same time competing for the shared LLC.
//!
//! ## Record/replay
//!
//! The engine's core contract is bit-identity across partition counts,
//! thread counts, chunk caps and claim schedules. When that contract
//! breaks, a differential test's terminal "bits differ" starts a bisect
//! marathon; the record/replay harness turns the same regression into a
//! one-command diagnosis. [`GraphGrind2`](crate::engine::GraphGrind2) can
//! record, per edge-map round, a [`RoundRecord`]:
//!
//! * **contract fields** — the digest of the round's merged output
//!   frontier ([`frontier_digest`]: length + order-sensitive FNV-1a over
//!   the active vertices, identical for sparse and dense representations)
//!   and the planned kernel / output-representation choices
//!   ([`RoundKernel`]) — these must match bit-for-bit between a recording
//!   and any replay of the same scenario, whatever the thread count or
//!   chunk cap;
//! * **schedule fields** — per-round [`CounterSnapshot`] deltas (chunks,
//!   hub sub-chunks, …) — informational context for a diagnosis, never
//!   compared, because they legitimately change with the thread count and
//!   chunk cap. The retired deque scheduler's `steals` /
//!   `cross_domain_steals` are neither written nor read (format version
//!   4); a parsed snapshot holds 0 in both.
//!
//! A recording plus its header ([`TraceHeader`]) round-trips through a
//! versioned JSON-lines file ([`RoundTrace::to_jsonl`] /
//! [`RoundTrace::from_jsonl`]; no external serializer), and
//! [`first_divergence`] compares two traces round by round, reporting the
//! **first diverging round** — round index, partition, field, expected vs
//! got — instead of a terminal mismatch. `repro record` / `repro replay`
//! (in `gg-bench`) drive this end to end, and
//! [`ThreadVaryingMinLabel`] is the fault-injection operator that proves
//! the diagnosis localizes a real thread-dependent divergence.

use gg_graph::coo::PartitionedCoo;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};
use gg_graph::reorder::EdgeOrder;
use gg_memsim::layout::{ArrayHandle, MemoryLayout};
use gg_memsim::reuse::ReuseProfile;
use gg_memsim::trace::{AccessSink, AddressTrace};

use crate::config::Thresholds;
use crate::edge_map::{decide, EdgeKind};

/// Operation counts of a traced execution (for the instruction proxy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracedWork {
    /// Edges examined.
    pub edges: u64,
    /// Vertices visited (including replicas / range scans).
    pub vertices: u64,
}

/// Figure 2: reuse-distance profile of the writes to the next-value array
/// during one full dense forward traversal of the `num_partitions`-way
/// destination-partitioned CSR (the PRDelta update stream).
pub fn fig2_reuse_profile(el: &EdgeList, num_partitions: usize) -> ReuseProfile {
    let set =
        PartitionSet::edge_balanced(&el.in_degrees(), num_partitions, PartitionBy::Destination);
    let pcsr = PartitionedCsr::new(el, &set);
    let mut layout = MemoryLayout::new();
    // PRDelta accumulates 8-byte deltas per destination vertex.
    let next_data = layout.array(el.num_vertices(), 8);
    let mut trace = AddressTrace::with_capacity(el.num_edges());
    for p in 0..pcsr.num_partitions() {
        let part = pcsr.part(p);
        for i in 0..part.num_stored_vertices() {
            for &v in part.neighbors_at(i) {
                next_data.touch(&mut trace, v as usize);
            }
        }
    }
    ReuseProfile::from_trace(&trace)
}

/// Algorithms traced for the Figure 8 MPKI sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracedAlgorithm {
    /// 10 power-method iterations; every iteration dense (edge-oriented).
    PageRank,
    /// Bellman-Ford from vertex 0; frontier-driven, mostly dense on social
    /// graphs (requires edge weights; unit weights are substituted if the
    /// input is unweighted).
    BellmanFord,
    /// BFS from vertex 0; vertex-oriented, mostly sparse/medium — the
    /// paper's example of an algorithm partitioning does *not* help.
    Bfs,
}

/// Synthetic address-space handles for the traced data structures.
struct Arrays {
    coo_srcs: ArrayHandle,
    coo_dsts: ArrayHandle,
    coo_weights: ArrayHandle,
    csr_targets: ArrayHandle,
    csr_weights: ArrayHandle,
    csc_sources: ArrayHandle,
    csc_weights: ArrayHandle,
    cur_bitmap: ArrayHandle,
    /// 8-byte per-vertex value array A (rank / ping).
    data_a: ArrayHandle,
    /// 8-byte per-vertex value array B (next rank / pong).
    data_b: ArrayHandle,
    /// 4-byte per-vertex array (BFS parent / BF distance).
    small_data: ArrayHandle,
}

impl Arrays {
    fn new(n: usize, m: usize) -> Self {
        let mut layout = MemoryLayout::new();
        Arrays {
            coo_srcs: layout.array(m, 4),
            coo_dsts: layout.array(m, 4),
            coo_weights: layout.array(m, 4),
            csr_targets: layout.array(m, 4),
            csr_weights: layout.array(m, 4),
            csc_sources: layout.array(m, 4),
            csc_weights: layout.array(m, 4),
            cur_bitmap: layout.bitmap(n),
            data_a: layout.array(n, 8),
            data_b: layout.array(n, 8),
            small_data: layout.array(n, 4),
        }
    }
}

/// The traced composite store.
struct TracedStore {
    coo: PartitionedCoo,
    csr: Csr,
    csc: Csc,
    out_degrees: Vec<u32>,
    arrays: Arrays,
    thresholds: Thresholds,
}

impl TracedStore {
    fn new(el: &EdgeList, num_partitions: usize, order: EdgeOrder, thresholds: Thresholds) -> Self {
        let set =
            PartitionSet::edge_balanced(&el.in_degrees(), num_partitions, PartitionBy::Destination);
        TracedStore {
            coo: PartitionedCoo::new(el, &set, order),
            csr: Csr::from_edge_list(el),
            csc: Csc::from_edge_list(el),
            out_degrees: el.out_degrees(),
            arrays: Arrays::new(el.num_vertices(), el.num_edges()),
            thresholds,
        }
    }

    fn n(&self) -> usize {
        self.csr.num_vertices()
    }

    fn m(&self) -> usize {
        self.csr.num_edges()
    }

    /// Emits the accesses of one edge of partition `p` at local index `i`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn emit_edge<S, F>(
        &self,
        sink: &mut S,
        p: usize,
        i: usize,
        active: &[bool],
        use_small_data: bool,
        flip: bool,
        work: &mut TracedWork,
        visit: &mut F,
    ) where
        S: AccessSink,
        F: FnMut(u32, u32, f32),
    {
        let a = &self.arrays;
        let (src_arr, dst_arr) = if flip {
            (&a.data_b, &a.data_a)
        } else {
            (&a.data_a, &a.data_b)
        };
        let range = self.coo.part_range(p);
        let srcs = self.coo.part_srcs(p);
        let dsts = self.coo.part_dsts(p);
        let weights = self.coo.part_weights(p);
        let e = range.start + i;
        work.edges += 1;
        a.coo_srcs.touch(sink, e);
        a.coo_dsts.touch(sink, e);
        a.cur_bitmap.touch_bit(sink, srcs[i] as usize);
        if active[srcs[i] as usize] {
            let w = weights.map_or(1.0, |w| w[i]);
            a.coo_weights.touch(sink, e);
            if use_small_data {
                a.small_data.touch(sink, srcs[i] as usize);
                a.small_data.touch(sink, dsts[i] as usize);
            } else {
                src_arr.touch(sink, srcs[i] as usize);
                dst_arr.touch(sink, dsts[i] as usize);
            }
            visit(srcs[i], dsts[i], w);
        }
    }

    /// One dense COO pass over every edge.
    ///
    /// With `threads > 1` the reference stream models the paper's parallel
    /// execution: each worker owns a contiguous block of partitions (the
    /// domain-major schedule) and the workers' streams are interleaved in
    /// small chunks, so the *aggregate* working set of all concurrent
    /// partitions competes for the simulated cache — the effect that makes
    /// MPKI fall as partitions shrink (Figure 8). `threads == 1` is the
    /// plain sequential order.
    #[allow(clippy::too_many_arguments)]
    fn dense_pass<S, F>(
        &self,
        sink: &mut S,
        active: &[bool],
        use_small_data: bool,
        flip: bool,
        threads: usize,
        work: &mut TracedWork,
        mut visit: F,
    ) where
        S: AccessSink,
        F: FnMut(u32, u32, f32),
    {
        const CHUNK: usize = 16;
        let num_parts = self.coo.num_partitions();
        let t = threads.clamp(1, num_parts);
        // Worker w owns partitions [w * P / t, (w+1) * P / t).
        // Cursor per worker: (current partition, edge offset inside it).
        let mut cursor: Vec<(usize, usize)> = (0..t).map(|w| (w * num_parts / t, 0)).collect();
        let limit: Vec<usize> = (0..t).map(|w| (w + 1) * num_parts / t).collect();
        let mut live = t;
        while live > 0 {
            live = 0;
            for w in 0..t {
                let (ref mut p, ref mut off) = cursor[w];
                let mut budget = CHUNK;
                while budget > 0 && *p < limit[w] {
                    let part_len = self.coo.part_range(*p).len();
                    if *off >= part_len {
                        *p += 1;
                        *off = 0;
                        continue;
                    }
                    self.emit_edge(
                        sink,
                        *p,
                        *off,
                        active,
                        use_small_data,
                        flip,
                        work,
                        &mut visit,
                    );
                    *off += 1;
                    budget -= 1;
                }
                if *p < limit[w] {
                    live += 1;
                }
            }
        }
    }

    /// One sparse CSR pass over the active list.
    fn sparse_pass<S, F>(
        &self,
        sink: &mut S,
        active_list: &[u32],
        work: &mut TracedWork,
        mut visit: F,
    ) where
        S: AccessSink,
        F: FnMut(u32, u32, f32),
    {
        let a = &self.arrays;
        for &u in active_list {
            work.vertices += 1;
            a.small_data.touch(sink, u as usize);
            for e in self.csr.edge_range(u) {
                work.edges += 1;
                a.csr_targets.touch(sink, e);
                a.csr_weights.touch(sink, e);
                let v = self.csr.targets()[e];
                a.small_data.touch(sink, v as usize);
                visit(u, v, self.csr.weight_at(e));
            }
        }
    }

    /// One medium CSC (pull) pass with per-destination early exit driven by
    /// `cond`.
    #[allow(clippy::too_many_arguments)]
    fn medium_pass<S, C, F>(
        &self,
        sink: &mut S,
        active: &[bool],
        work: &mut TracedWork,
        cond: C,
        mut visit: F,
    ) where
        S: AccessSink,
        C: Fn(u32) -> bool,
        F: FnMut(u32, u32, f32),
    {
        let a = &self.arrays;
        for v in 0..self.n() as u32 {
            work.vertices += 1;
            if !cond(v) {
                continue;
            }
            a.small_data.touch(sink, v as usize);
            for e in self.csc.edge_range(v) {
                work.edges += 1;
                a.csc_sources.touch(sink, e);
                let u = self.csc.sources()[e];
                a.cur_bitmap.touch_bit(sink, u as usize);
                if active[u as usize] {
                    a.csc_weights.touch(sink, e);
                    a.small_data.touch(sink, u as usize);
                    visit(u, v, self.csc.weight_at(e));
                    if !cond(v) {
                        break;
                    }
                }
            }
        }
    }
}

/// Replays `algo` on the composite store with `num_partitions` partitions,
/// streaming every memory reference into `sink` as a single sequential
/// stream. Returns the op counts for the MPKI instruction proxy.
pub fn run_traced<S: AccessSink>(
    el: &EdgeList,
    num_partitions: usize,
    order: EdgeOrder,
    algo: TracedAlgorithm,
    sink: &mut S,
) -> TracedWork {
    run_traced_parallel(el, num_partitions, order, algo, 1, sink)
}

/// Like [`run_traced`], but models `threads` concurrent workers sharing
/// the cache during dense passes: each worker owns a contiguous block of
/// partitions (the domain-major schedule) and the workers' reference
/// streams are interleaved in small chunks — the configuration behind
/// Figure 8's MPKI-vs-partitions sweep.
pub fn run_traced_parallel<S: AccessSink>(
    el: &EdgeList,
    num_partitions: usize,
    order: EdgeOrder,
    algo: TracedAlgorithm,
    threads: usize,
    sink: &mut S,
) -> TracedWork {
    let store = TracedStore::new(el, num_partitions, order, Thresholds::default());
    match algo {
        TracedAlgorithm::PageRank => trace_pagerank(&store, threads, sink),
        TracedAlgorithm::BellmanFord => trace_bellman_ford(&store, threads, sink),
        TracedAlgorithm::Bfs => trace_bfs(&store, sink),
    }
}

fn trace_pagerank<S: AccessSink>(store: &TracedStore, threads: usize, sink: &mut S) -> TracedWork {
    let n = store.n();
    let mut work = TracedWork::default();
    let mut rank = vec![1.0f64 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let active = vec![true; n];
    let deg = store.out_degrees.clone();
    for iter in 0..10 {
        next.fill(0.0);
        let flip = iter % 2 == 1;
        store.dense_pass(
            sink,
            &active,
            false,
            flip,
            threads,
            &mut work,
            |u, v, _w| {
                let d = deg[u as usize].max(1) as f64;
                next[v as usize] += rank[u as usize] / d;
            },
        );
        for x in next.iter_mut() {
            *x = 0.15 / n as f64 + 0.85 * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    work
}

fn trace_bfs<S: AccessSink>(store: &TracedStore, sink: &mut S) -> TracedWork {
    let n = store.n();
    let m = store.m() as u64;
    let mut work = TracedWork::default();
    let mut parent = vec![u32::MAX; n];
    parent[0] = 0;
    let mut frontier = vec![0u32];
    while !frontier.is_empty() {
        let metric: u64 = frontier.len() as u64
            + frontier
                .iter()
                .map(|&v| store.out_degrees[v as usize] as u64)
                .sum::<u64>();
        let kind = decide(metric, m, &store.thresholds);
        let mut next_frontier: Vec<u32> = Vec::new();
        match kind {
            EdgeKind::Sparse => {
                store.sparse_pass(sink, &frontier, &mut work, |u, v, _w| {
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        next_frontier.push(v);
                    }
                });
            }
            EdgeKind::Medium | EdgeKind::Dense => {
                // BFS pull (the direction-optimized dense phase).
                let mut active = vec![false; n];
                for &v in &frontier {
                    active[v as usize] = true;
                }
                let parent_snapshot = parent.clone();
                store.medium_pass(
                    sink,
                    &active,
                    &mut work,
                    |v| parent_snapshot[v as usize] == u32::MAX,
                    |u, v, _w| {
                        if parent[v as usize] == u32::MAX {
                            parent[v as usize] = u;
                            next_frontier.push(v);
                        }
                    },
                );
            }
        }
        next_frontier.sort_unstable();
        next_frontier.dedup();
        frontier = next_frontier;
    }
    work
}

fn trace_bellman_ford<S: AccessSink>(
    store: &TracedStore,
    threads: usize,
    sink: &mut S,
) -> TracedWork {
    let n = store.n();
    let m = store.m() as u64;
    let mut work = TracedWork::default();
    let mut dist = vec![f32::INFINITY; n];
    dist[0] = 0.0;
    let mut frontier = vec![0u32];
    let mut rounds = 0usize;
    while !frontier.is_empty() && rounds <= n {
        rounds += 1;
        let metric: u64 = frontier.len() as u64
            + frontier
                .iter()
                .map(|&v| store.out_degrees[v as usize] as u64)
                .sum::<u64>();
        let kind = decide(metric, m, &store.thresholds);
        let mut changed = vec![false; n];
        match kind {
            EdgeKind::Sparse => {
                store.sparse_pass(sink, &frontier, &mut work, |u, v, w| {
                    let cand = dist[u as usize] + w;
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                        changed[v as usize] = true;
                    }
                });
            }
            EdgeKind::Medium | EdgeKind::Dense => {
                let mut active = vec![false; n];
                for &v in &frontier {
                    active[v as usize] = true;
                }
                store.dense_pass(sink, &active, true, false, threads, &mut work, |u, v, w| {
                    let cand = dist[u as usize] + w;
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                        changed[v as usize] = true;
                    }
                });
            }
        }
        frontier = (0..n as u32).filter(|&v| changed[v as usize]).collect();
    }
    work
}

// ---------------------------------------------------------------------------
// Record/replay: per-round execution traces
// ---------------------------------------------------------------------------

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use gg_runtime::counters::CounterSnapshot;

use crate::config::{ChunkCap, Config, ExecutorKind, ForcedKernel, OutputMode};
use crate::edge_map::EdgeOp;
use crate::frontier::Frontier;
use crate::fused::FusedFrontier;
use crate::partitioned::PartKernel;
use crate::plan::{kernel_from_label, kernel_label, OutputRepr};

/// Version stamp of the JSON-lines trace format. Bumped on any change to
/// the line schema; [`RoundTrace::from_jsonl`] refuses other versions.
/// Version 2 added the fused-traversal fields: optional per-lane digests
/// (`lanes`) and the `fused_lanes` / `lane_union_words` sched counters.
/// Version 3 added the header's `layout` policy label and a per-step
/// edge-layout label (`l`). Version 4 dropped the per-step `l` (the
/// partitioned executor no longer depends on the layout) and the
/// always-zero `steals` / `cross_domain_steals` sched counters.
pub const TRACE_FORMAT_VERSION: u64 = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive digest of a frontier: FNV-1a over the active vertices
/// in ascending order. [`Frontier::iter`] yields ascending vertex ids for
/// both the sparse-list and the dense-bitmap representation, so the digest
/// is representation-independent — a round that merged sparse outputs and
/// a round that merged bitmap segments hash identically iff they activated
/// the same vertex set. Pair it with [`Frontier::len`] (recorded
/// separately) for a cheap first-level check.
///
/// Byte-wise FNV-1a is part of the trace format: recorded traces store
/// these values, so the scheme stays even where a faster word-wise hash
/// would do (the query server's result digests use one).
pub fn frontier_digest(frontier: &Frontier) -> u64 {
    let mut h = FNV_OFFSET;
    for v in frontier.iter() {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Per-lane digests of a fused frontier: entry `k` is the FNV-1a digest
/// (same scheme as [`frontier_digest`]) of the vertices active in lane
/// `k`, in ascending order. Lane `k` of a fused round and the matching
/// round of a single-source recording therefore hash identically iff they
/// activated the same vertex set — which lets `repro replay` localize a
/// fused divergence to one query of the batch.
pub fn lane_digests(fused: &FusedFrontier) -> Vec<u64> {
    let mut hs = vec![FNV_OFFSET; fused.num_lanes() as usize];
    let mask = fused.lane_mask();
    fused.for_each(|v, lanes| {
        let mut m = lanes & mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let mut h = hs[lane];
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            hs[lane] = h;
        }
    });
    hs
}

/// [`frontier_digest`] of a fused frontier's **union** (any-lane) vertex
/// set — identical to digesting the materialised union [`Frontier`].
pub fn fused_union_digest(fused: &FusedFrontier) -> u64 {
    let mut h = FNV_OFFSET;
    fused.for_each(|v, _| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    });
    h
}

/// Run-level metadata of a recorded trace: what was executed and under
/// which configuration. Replays compare contract fields of the per-round
/// records whenever the headers are *plan-comparable* (see
/// [`first_divergence`]); the header also makes a trace self-describing
/// for offline reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// [`TRACE_FORMAT_VERSION`] at recording time.
    pub version: u64,
    /// Algorithm label (e.g. `bfs`, `pr`).
    pub algorithm: String,
    /// Scenario / dataset label.
    pub scenario: String,
    /// Worker threads of the recording run.
    pub threads: u64,
    /// Partition count of the recording run.
    pub partitions: u64,
    /// Executor label: `monolithic` or `partitioned`.
    pub executor: String,
    /// Output-mode label: `auto`, `force_sparse` or `force_dense`.
    pub output_mode: String,
    /// Chunk-cap label: `auto`, `max` or a fixed edge count.
    pub chunk: String,
    /// Forced-kernel label: `none`, `csr_a`, `csc_na`, `coo_a`, `coo_na`.
    pub force: String,
    /// Layout-policy label
    /// ([`LayoutPolicy::label`](crate::config::LayoutPolicy::label)):
    /// `fixed:<order>`. Informational: the layout never changes a round's
    /// plan or result, so [`first_divergence`] does not compare it.
    pub layout: String,
    /// True when the run used the fault-injection operator
    /// ([`ThreadVaryingMinLabel`]).
    pub fault: bool,
}

impl TraceHeader {
    /// Builds a header describing a run of `algorithm` on `scenario` under
    /// `config`.
    pub fn new(algorithm: &str, scenario: &str, config: &Config, fault: bool) -> Self {
        TraceHeader {
            version: TRACE_FORMAT_VERSION,
            algorithm: algorithm.to_string(),
            scenario: scenario.to_string(),
            threads: config.threads as u64,
            partitions: config.num_partitions as u64,
            executor: match config.executor {
                ExecutorKind::Monolithic => "monolithic",
                ExecutorKind::Partitioned => "partitioned",
            }
            .to_string(),
            output_mode: match config.output_mode {
                OutputMode::Auto => "auto",
                OutputMode::ForceSparse => "force_sparse",
                OutputMode::ForceDense => "force_dense",
            }
            .to_string(),
            chunk: match config.chunk_edges {
                ChunkCap::Auto => "auto".to_string(),
                ChunkCap::Fixed(n) if n == usize::MAX => "max".to_string(),
                ChunkCap::Fixed(n) => n.to_string(),
            },
            force: match config.force {
                None => "none",
                Some(ForcedKernel::CsrAtomic) => "csr_a",
                Some(ForcedKernel::CscNoAtomic) => "csc_na",
                Some(ForcedKernel::CooAtomic) => "coo_a",
                Some(ForcedKernel::CooNoAtomic) => "coo_na",
            }
            .to_string(),
            layout: config.layout.label(),
            fault,
        }
    }
}

/// One partition's planned (kernel, output-representation) pair inside a
/// [`RoundKernel::Partitioned`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Partition index.
    pub partition: u64,
    /// Locally selected kernel.
    pub kernel: PartKernel,
    /// Locally selected output representation.
    pub output: OutputRepr,
}

/// The planned kernel choice(s) of one recorded round — a contract field:
/// the planner is a deterministic function of the input frontier and the
/// static partition metadata, so two runs of the same scenario under a
/// plan-comparable configuration must record identical values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundKernel {
    /// Monolithic executor: the single Algorithm 2 class for the round.
    Monolithic(EdgeKind),
    /// Monolithic executor with a forced kernel (Figure 5/6 ablations) —
    /// no decision was made, so there is nothing to compare; the forced
    /// label lives in the header.
    Forced,
    /// Partitioned executor: per-partition steps in submission order
    /// (empty partitions absent), as planned from the round's *input*
    /// frontier.
    Partitioned(Vec<StepRecord>),
}

/// One edge-map round of a recorded run.
///
/// `frontier_len` / `frontier_hash` digest the round's merged **output**
/// frontier; `kernel` is the plan for the round's **input** frontier
/// (the previous round's output, or the algorithm's initial frontier for
/// round 0). `sched` holds the round's [`CounterSnapshot`] delta —
/// schedule diagnostics, never compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// 0-based round index within the run.
    pub round: u64,
    /// Active-vertex count of the round's output frontier.
    pub frontier_len: u64,
    /// [`frontier_digest`] of the round's output frontier.
    pub frontier_hash: u64,
    /// Planned kernel choice(s) for the round's input frontier.
    pub kernel: RoundKernel,
    /// Per-lane digests of the round's output ([`lane_digests`]) when the
    /// round was a fused multi-source edge map; `None` for scalar rounds.
    /// A contract field: lane `k` must be bit-identical across
    /// partition/thread/chunk configurations.
    pub lanes: Option<Vec<u64>>,
    /// Work attributable to this round (counter deltas). Informational:
    /// `chunks` / `hub_subchunks` legitimately change with the thread
    /// count and chunk cap; the retired `steals` / `cross_domain_steals`
    /// are not serialized.
    pub sched: CounterSnapshot,
}

/// Accumulates [`RoundRecord`]s during an engine run. Owned by
/// [`GraphGrind2`](crate::engine::GraphGrind2) behind a mutex; algorithms
/// never see it — `engine.start_recording()` before the run and
/// `engine.take_recording()` after are the whole interface.
#[derive(Debug, Default)]
pub struct RoundRecorder {
    rounds: Vec<RoundRecord>,
}

impl RoundRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the record of one completed round: the plan made for its
    /// input frontier, its merged output frontier, and its counter delta.
    pub fn record(&mut self, kernel: RoundKernel, output: &Frontier, sched: CounterSnapshot) {
        self.rounds.push(RoundRecord {
            round: self.rounds.len() as u64,
            frontier_len: output.len() as u64,
            frontier_hash: frontier_digest(output),
            kernel,
            lanes: None,
            sched,
        });
    }

    /// The fused counterpart of [`record`](Self::record): digests the
    /// union frontier into `frontier_hash` and each lane separately into
    /// `lanes`, so replay comparisons localize a fused divergence to one
    /// query of the batch.
    pub fn record_fused(
        &mut self,
        kernel: RoundKernel,
        output: &FusedFrontier,
        sched: CounterSnapshot,
    ) {
        self.rounds.push(RoundRecord {
            round: self.rounds.len() as u64,
            frontier_len: output.len() as u64,
            frontier_hash: fused_union_digest(output),
            kernel,
            lanes: Some(lane_digests(output)),
            sched,
        });
    }

    /// Consumes the recorder, yielding the rounds in execution order.
    pub fn into_rounds(self) -> Vec<RoundRecord> {
        self.rounds
    }
}

/// A complete recorded run: header + per-round records. Serializes to a
/// versioned JSON-lines file (one header line, one line per round).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// Run-level metadata.
    pub header: TraceHeader,
    /// Per-round records in execution order.
    pub rounds: Vec<RoundRecord>,
}

fn edge_kind_label(k: EdgeKind) -> &'static str {
    match k {
        EdgeKind::Sparse => "sparse",
        EdgeKind::Medium => "medium",
        EdgeKind::Dense => "dense",
    }
}

fn edge_kind_from_label(s: &str) -> Option<EdgeKind> {
    match s {
        "sparse" => Some(EdgeKind::Sparse),
        "medium" => Some(EdgeKind::Medium),
        "dense" => Some(EdgeKind::Dense),
        _ => None,
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl RoundTrace {
    /// Serializes the trace to JSON lines: a header line, then one line
    /// per round. The frontier hash is written as a hex *string* — a JSON
    /// number would round-trip through f64 in sloppy readers and silently
    /// lose low bits, which for a digest means false matches.
    pub fn to_jsonl(&self) -> String {
        let h = &self.header;
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"header\",\"version\":{},\"algorithm\":",
            h.version
        ));
        push_json_str(&mut out, &h.algorithm);
        out.push_str(",\"scenario\":");
        push_json_str(&mut out, &h.scenario);
        out.push_str(&format!(
            ",\"threads\":{},\"partitions\":{},\"executor\":",
            h.threads, h.partitions
        ));
        push_json_str(&mut out, &h.executor);
        out.push_str(",\"output_mode\":");
        push_json_str(&mut out, &h.output_mode);
        out.push_str(",\"chunk\":");
        push_json_str(&mut out, &h.chunk);
        out.push_str(",\"force\":");
        push_json_str(&mut out, &h.force);
        out.push_str(",\"layout\":");
        push_json_str(&mut out, &h.layout);
        out.push_str(&format!(",\"fault\":{}}}\n", h.fault));
        for r in &self.rounds {
            out.push_str(&format!(
                "{{\"type\":\"round\",\"round\":{},\"frontier_len\":{},\
                 \"frontier_hash\":\"{:#018x}\",\"kernel\":",
                r.round, r.frontier_len, r.frontier_hash
            ));
            match &r.kernel {
                RoundKernel::Monolithic(kind) => {
                    out.push_str(&format!(
                        "{{\"kind\":\"monolithic\",\"edge_kind\":\"{}\"}}",
                        edge_kind_label(*kind)
                    ));
                }
                RoundKernel::Forced => out.push_str("{\"kind\":\"forced\"}"),
                RoundKernel::Partitioned(steps) => {
                    out.push_str("{\"kind\":\"partitioned\",\"steps\":[");
                    for (i, s) in steps.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"p\":{},\"k\":\"{}\",\"o\":\"{}\"}}",
                            s.partition,
                            kernel_label(s.kernel),
                            s.output.label()
                        ));
                    }
                    out.push_str("]}");
                }
            }
            if let Some(lanes) = &r.lanes {
                out.push_str(",\"lanes\":[");
                for (i, h) in lanes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{h:#018x}\""));
                }
                out.push(']');
            }
            let s = &r.sched;
            out.push_str(&format!(
                ",\"sched\":{{\"edges\":{},\"vertices\":{},\"merge_words\":{},\
                 \"chunks\":{},\"hub_subchunks\":{},\"fused_lanes\":{},\
                 \"lane_union_words\":{}}}}}\n",
                s.edges,
                s.vertices,
                s.merge_words,
                s.chunks,
                s.hub_subchunks,
                s.fused_lanes,
                s.lane_union_words
            ));
        }
        out
    }

    /// Parses a trace previously written by [`to_jsonl`](Self::to_jsonl).
    /// Rejects missing/extra-typed fields and any version other than
    /// [`TRACE_FORMAT_VERSION`] with a descriptive error.
    pub fn from_jsonl(text: &str) -> Result<RoundTrace, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (ln, first) = lines.next().ok_or("empty trace file")?;
        let head = parse_json(first).map_err(|e| format!("line {}: {e}", ln + 1))?;
        if head.get("type").and_then(Json::as_str) != Some("header") {
            return Err(format!("line {}: expected header line", ln + 1));
        }
        let version = field_u64(&head, "version", ln)?;
        if version != TRACE_FORMAT_VERSION {
            return Err(format!(
                "unsupported trace version {version} (this build reads {TRACE_FORMAT_VERSION})"
            ));
        }
        let header = TraceHeader {
            version,
            algorithm: field_str(&head, "algorithm", ln)?,
            scenario: field_str(&head, "scenario", ln)?,
            threads: field_u64(&head, "threads", ln)?,
            partitions: field_u64(&head, "partitions", ln)?,
            executor: field_str(&head, "executor", ln)?,
            output_mode: field_str(&head, "output_mode", ln)?,
            chunk: field_str(&head, "chunk", ln)?,
            force: field_str(&head, "force", ln)?,
            layout: field_str(&head, "layout", ln)?,
            fault: head
                .get("fault")
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("line {}: missing bool field `fault`", ln + 1))?,
        };
        let mut rounds = Vec::new();
        for (ln, line) in lines {
            let v = parse_json(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            if v.get("type").and_then(Json::as_str) != Some("round") {
                return Err(format!("line {}: expected round line", ln + 1));
            }
            let hash_str = field_str(&v, "frontier_hash", ln)?;
            let frontier_hash = hash_str
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("line {}: bad frontier_hash `{hash_str}`", ln + 1))?;
            let kobj = v
                .get("kernel")
                .ok_or_else(|| format!("line {}: missing field `kernel`", ln + 1))?;
            let kernel =
                match kobj.get("kind").and_then(Json::as_str) {
                    Some("monolithic") => {
                        let label = kobj
                            .get("edge_kind")
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("line {}: missing `edge_kind`", ln + 1))?;
                        RoundKernel::Monolithic(edge_kind_from_label(label).ok_or_else(|| {
                            format!("line {}: unknown edge_kind `{label}`", ln + 1)
                        })?)
                    }
                    Some("forced") => RoundKernel::Forced,
                    Some("partitioned") => {
                        let steps = kobj
                            .get("steps")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("line {}: missing `steps`", ln + 1))?;
                        let mut recs = Vec::with_capacity(steps.len());
                        for s in steps {
                            let partition = s
                                .get("p")
                                .and_then(Json::as_u64)
                                .ok_or_else(|| format!("line {}: bad step partition", ln + 1))?;
                            let k = s
                                .get("k")
                                .and_then(Json::as_str)
                                .and_then(kernel_from_label);
                            let o = s
                                .get("o")
                                .and_then(Json::as_str)
                                .and_then(OutputRepr::from_label);
                            match (k, o) {
                                (Some(kernel), Some(output)) => recs.push(StepRecord {
                                    partition,
                                    kernel,
                                    output,
                                }),
                                _ => {
                                    return Err(format!("line {}: bad step labels", ln + 1));
                                }
                            }
                        }
                        RoundKernel::Partitioned(recs)
                    }
                    other => {
                        return Err(format!("line {}: unknown kernel kind {other:?}", ln + 1));
                    }
                };
            let lanes = match v.get("lanes") {
                None => None,
                Some(arr) => {
                    let arr = arr
                        .as_arr()
                        .ok_or_else(|| format!("line {}: `lanes` must be an array", ln + 1))?;
                    let mut hs = Vec::with_capacity(arr.len());
                    for h in arr {
                        let s = h
                            .as_str()
                            .and_then(|s| s.strip_prefix("0x"))
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| format!("line {}: bad lane digest", ln + 1))?;
                        hs.push(s);
                    }
                    Some(hs)
                }
            };
            let sobj = v
                .get("sched")
                .ok_or_else(|| format!("line {}: missing field `sched`", ln + 1))?;
            let sched_field = |name: &str| -> Result<u64, String> {
                sobj.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: missing sched field `{name}`", ln + 1))
            };
            rounds.push(RoundRecord {
                round: field_u64(&v, "round", ln)?,
                frontier_len: field_u64(&v, "frontier_len", ln)?,
                frontier_hash,
                kernel,
                lanes,
                sched: CounterSnapshot {
                    edges: sched_field("edges")?,
                    vertices: sched_field("vertices")?,
                    merge_words: sched_field("merge_words")?,
                    chunks: sched_field("chunks")?,
                    hub_subchunks: sched_field("hub_subchunks")?,
                    fused_lanes: sched_field("fused_lanes")?,
                    lane_union_words: sched_field("lane_union_words")?,
                    ..CounterSnapshot::default()
                },
            });
        }
        Ok(RoundTrace { header, rounds })
    }
}

fn field_u64(v: &Json, key: &str, ln: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {}: missing integer field `{key}`", ln + 1))
}

fn field_str(v: &Json, key: &str, ln: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {}: missing string field `{key}`", ln + 1))
}

/// Minimal JSON value for the trace reader — objects, arrays, strings,
/// unsigned integers and booleans, which is the entire vocabulary
/// [`RoundTrace::to_jsonl`] emits. Hand-rolled because the workspace
/// vendors no serializer and the format is ours.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(u64),
    Bool(bool),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest. The writer emits at most 4
/// levels (round → kernel → steps → step); the parser recurses once per
/// level, so a hostile line of a million `[` would otherwise overflow the
/// stack and abort the process instead of returning `Err`.
const MAX_JSON_DEPTH: usize = 32;

fn parse_json(line: &str) -> Result<Json, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let v = parse_value(bytes, &mut i, 0)?;
    skip_ws(bytes, &mut i);
    if i != bytes.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && (b[*i] == b' ' || b[*i] == b'\t') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, i);
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, i))
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{' | b'[') if depth >= MAX_JSON_DEPTH => {
            Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {i}"))
        }
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = match parse_value(b, i, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {i}")),
                };
                expect(b, i, b':')?;
                fields.push((key, parse_value(b, i, depth + 1)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}")),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match b.get(*i) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *i += 1;
                        match b.get(*i) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*i + 1..*i + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?;
                                s.push(hex);
                                *i += 4;
                            }
                            _ => return Err(format!("bad escape at byte {i}")),
                        }
                        *i += 1;
                    }
                    Some(&c) => {
                        // Copy one whole code point, its width read off the
                        // lead byte: validating only that slice keeps a
                        // long multi-byte string linear.
                        let len = match c {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let point = b
                            .get(*i..*i + len)
                            .and_then(|p| std::str::from_utf8(p).ok())
                            .ok_or_else(|| format!("invalid utf-8 at byte {i}"))?;
                        s.push_str(point);
                        *i += len;
                    }
                }
            }
        }
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *i;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .expect("a run of ASCII digits is UTF-8")
                .parse::<u64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        other => Err(format!("unexpected token {other:?} at byte {i}")),
    }
}

/// The first point where a replayed trace departs from a recording — the
/// record/replay harness's product: instead of a terminal "bits differ",
/// the exact round (and partition, when per-partition plans are
/// comparable) where the contract broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Round index of the first divergence.
    pub round: u64,
    /// Partition whose planned step diverged, when the divergence is a
    /// per-partition field; `None` for round-global fields.
    pub partition: Option<u64>,
    /// Which contract field diverged (`frontier_len`, `frontier_hash`,
    /// `edge_kind`, `kernel`, `output`, `steps`, `rounds`).
    pub field: String,
    /// Recorded value.
    pub expected: String,
    /// Replayed value.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}", self.round)?;
        if let Some(p) = self.partition {
            write!(f, ", partition {p}")?;
        }
        write!(
            f,
            ": {} expected {}, got {}",
            self.field, self.expected, self.got
        )
    }
}

/// Whether two traces' planned kernel choices are directly comparable.
/// Frontier digests are *always* comparable (bit-identity is the whole
/// contract); the plan is only comparable when both runs asked the planner
/// the same question — same executor and forced-kernel setting, and for
/// the partitioned executor the same partition count and output-mode
/// policy. Thread count and chunk cap never enter the plan, which is
/// exactly what lets a 1-thread recording check a 4-thread replay.
pub fn plan_comparable(a: &TraceHeader, b: &TraceHeader) -> bool {
    if a.executor != b.executor || a.force != b.force {
        return false;
    }
    match a.executor.as_str() {
        "partitioned" => a.partitions == b.partitions && a.output_mode == b.output_mode,
        _ => true,
    }
}

/// Compares a replayed trace against a recording round by round and
/// returns the **first diverging round**, or `None` when every contract
/// field matches.
///
/// Within a round the plan (made from the round's *input* frontier, which
/// the previous round already validated) is checked before the output
/// digest, so the report points at the earliest broken decision. Schedule
/// fields (`sched`) are never compared. A run that produced fewer or more
/// rounds than the recording diverges at the first missing round.
pub fn first_divergence(recorded: &RoundTrace, replayed: &RoundTrace) -> Option<Divergence> {
    let plans = plan_comparable(&recorded.header, &replayed.header);
    let common = recorded.rounds.len().min(replayed.rounds.len());
    for i in 0..common {
        let a = &recorded.rounds[i];
        let b = &replayed.rounds[i];
        let round = a.round;
        if plans {
            match (&a.kernel, &b.kernel) {
                (RoundKernel::Monolithic(x), RoundKernel::Monolithic(y)) if x != y => {
                    return Some(Divergence {
                        round,
                        partition: None,
                        field: "edge_kind".to_string(),
                        expected: edge_kind_label(*x).to_string(),
                        got: edge_kind_label(*y).to_string(),
                    });
                }
                (RoundKernel::Partitioned(xs), RoundKernel::Partitioned(ys)) => {
                    for (sa, sb) in xs.iter().zip(ys) {
                        if sa.partition != sb.partition {
                            return Some(Divergence {
                                round,
                                partition: Some(sa.partition.min(sb.partition)),
                                field: "steps".to_string(),
                                expected: format!("partition {}", sa.partition),
                                got: format!("partition {}", sb.partition),
                            });
                        }
                        if sa.kernel != sb.kernel {
                            return Some(Divergence {
                                round,
                                partition: Some(sa.partition),
                                field: "kernel".to_string(),
                                expected: kernel_label(sa.kernel).to_string(),
                                got: kernel_label(sb.kernel).to_string(),
                            });
                        }
                        if sa.output != sb.output {
                            return Some(Divergence {
                                round,
                                partition: Some(sa.partition),
                                field: "output".to_string(),
                                expected: sa.output.label().to_string(),
                                got: sb.output.label().to_string(),
                            });
                        }
                    }
                    if xs.len() != ys.len() {
                        let extra = if xs.len() > ys.len() { xs } else { ys };
                        return Some(Divergence {
                            round,
                            partition: Some(extra[xs.len().min(ys.len())].partition),
                            field: "steps".to_string(),
                            expected: format!("{} steps", xs.len()),
                            got: format!("{} steps", ys.len()),
                        });
                    }
                }
                // Shape mismatch (monolithic vs partitioned vs forced) is
                // impossible when `plan_comparable` held, and not a
                // contract violation otherwise.
                _ => {}
            }
        }
        // Per-lane digests localize a fused divergence to one query of
        // the batch, so they are checked before the (coarser) union
        // digest.
        match (&a.lanes, &b.lanes) {
            (Some(xs), Some(ys)) => {
                if xs.len() != ys.len() {
                    return Some(Divergence {
                        round,
                        partition: None,
                        field: "lanes".to_string(),
                        expected: format!("{} lanes", xs.len()),
                        got: format!("{} lanes", ys.len()),
                    });
                }
                for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
                    if x != y {
                        return Some(Divergence {
                            round,
                            partition: None,
                            field: format!("lane_hash[{k}]"),
                            expected: format!("{x:#018x}"),
                            got: format!("{y:#018x}"),
                        });
                    }
                }
            }
            (Some(xs), None) => {
                return Some(Divergence {
                    round,
                    partition: None,
                    field: "lanes".to_string(),
                    expected: format!("fused ({} lanes)", xs.len()),
                    got: "scalar".to_string(),
                });
            }
            (None, Some(ys)) => {
                return Some(Divergence {
                    round,
                    partition: None,
                    field: "lanes".to_string(),
                    expected: "scalar".to_string(),
                    got: format!("fused ({} lanes)", ys.len()),
                });
            }
            (None, None) => {}
        }
        if a.frontier_len != b.frontier_len {
            return Some(Divergence {
                round,
                partition: None,
                field: "frontier_len".to_string(),
                expected: a.frontier_len.to_string(),
                got: b.frontier_len.to_string(),
            });
        }
        if a.frontier_hash != b.frontier_hash {
            return Some(Divergence {
                round,
                partition: None,
                field: "frontier_hash".to_string(),
                expected: format!("{:#018x}", a.frontier_hash),
                got: format!("{:#018x}", b.frontier_hash),
            });
        }
    }
    if recorded.rounds.len() != replayed.rounds.len() {
        return Some(Divergence {
            round: common as u64,
            partition: None,
            field: "rounds".to_string(),
            expected: format!("{} rounds", recorded.rounds.len()),
            got: format!("{} rounds", replayed.rounds.len()),
        });
    }
    None
}

/// Fault-injection operator: min-label propagation whose update rule
/// depends on **which thread** executes it. The first thread to touch the
/// operator claims lane 0 and behaves honestly (`label[d] ← min(label[d],
/// label[s])`); every later thread claims the next lane and perturbs its
/// propagated labels by `+lane`. A 1-thread run therefore produces the
/// honest fixpoint, while a multi-thread run violates the engine's
/// bit-identity contract in a schedule-dependent way — exactly the class
/// of bug the record/replay harness exists to localize, which makes this
/// the harness's positive control (`repro replay --fault`). Monotone
/// (labels only decrease), so even faulty runs terminate within `n`
/// rounds.
pub struct ThreadVaryingMinLabel {
    labels: Vec<AtomicU32>,
    lanes: Mutex<HashMap<ThreadId, u32>>,
}

impl ThreadVaryingMinLabel {
    /// Labels initialised to vertex ids (the CC convention).
    pub fn new(n: usize) -> Self {
        ThreadVaryingMinLabel {
            labels: (0..n as u32).map(AtomicU32::new).collect(),
            lanes: Mutex::new(HashMap::new()),
        }
    }

    /// The executing thread's lane: 0 for the first thread ever to call
    /// (honest), `k` for the `k`-th distinct thread (perturbed by `+k`).
    /// A mutex on the hot path is deliberate — this operator only runs in
    /// fault-injection tests, where clarity beats throughput.
    fn lane(&self) -> u32 {
        let mut lanes = self
            .lanes
            .lock()
            .expect("the lane map is never locked across a panic");
        let next = lanes.len() as u32;
        *lanes.entry(std::thread::current().id()).or_insert(next)
    }

    /// How many distinct threads executed updates.
    pub fn lanes_claimed(&self) -> usize {
        self.lanes
            .lock()
            .expect("the lane map is never locked across a panic")
            .len()
    }

    /// Current labels (quiesced readers only).
    pub fn snapshot(&self) -> Vec<u32> {
        self.labels
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }
}

impl EdgeOp for ThreadVaryingMinLabel {
    fn update(&self, s: u32, d: u32, _w: f32) -> bool {
        let sl = self.labels[s as usize]
            .load(Ordering::Relaxed)
            .saturating_add(self.lane());
        let cur = self.labels[d as usize].load(Ordering::Relaxed);
        if sl < cur {
            self.labels[d as usize].store(sl, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, s: u32, d: u32, _w: f32) -> bool {
        let sl = self.labels[s as usize]
            .load(Ordering::Relaxed)
            .saturating_add(self.lane());
        gg_runtime::atomics::fetch_min_u32(&self.labels[d as usize], sl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_graph::generators;
    use gg_memsim::cache::{Cache, CacheConfig};
    use gg_memsim::trace::CountingSink;

    fn twitterish() -> EdgeList {
        generators::rmat(10, 12_000, generators::RmatParams::skewed(), 21)
    }

    #[test]
    fn fig2_distances_contract_with_partitions() {
        // The headline claim of §II.C: more partitions => shorter worst-case
        // reuse distance of next-array updates.
        let el = twitterish();
        let p1 = fig2_reuse_profile(&el, 1);
        let p16 = fig2_reuse_profile(&el, 16);
        let p64 = fig2_reuse_profile(&el, 64);
        let q1 = p1.histogram.quantile_upper(0.95);
        let q16 = p16.histogram.quantile_upper(0.95);
        let q64 = p64.histogram.quantile_upper(0.95);
        assert!(q16 <= q1, "p95 must not grow: {q1} -> {q16}");
        assert!(q64 <= q16, "p95 must not grow: {q16} -> {q64}");
        assert!(
            q64 < q1,
            "partitioning must shorten distances: {q1} -> {q64}"
        );
        // Same number of reuses in all cases (the edge count is fixed).
        assert_eq!(
            p1.total_references, p64.total_references,
            "trace length is partition-independent"
        );
    }

    #[test]
    fn traced_pagerank_visits_all_edges_each_iteration() {
        let el = generators::erdos_renyi(200, 2000, 3);
        let mut sink = CountingSink::default();
        let work = run_traced(
            &el,
            4,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            &mut sink,
        );
        assert_eq!(work.edges, 10 * 2000);
        assert!(sink.count >= work.edges);
    }

    #[test]
    fn traced_work_is_partition_independent_for_coo() {
        // §II.F: COO work does not grow with partitioning.
        let el = twitterish();
        let mut s1 = CountingSink::default();
        let w1 = run_traced(
            &el,
            1,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            &mut s1,
        );
        let mut s64 = CountingSink::default();
        let w64 = run_traced(
            &el,
            64,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            &mut s64,
        );
        assert_eq!(w1.edges, w64.edges);
        assert_eq!(s1.count, s64.count);
    }

    #[test]
    fn traced_bfs_reaches_reachable_vertices() {
        // Path graph: BFS walks it end to end, always sparse.
        let el = generators::path(50);
        let mut sink = CountingSink::default();
        let work = run_traced(&el, 2, EdgeOrder::Source, TracedAlgorithm::Bfs, &mut sink);
        assert_eq!(work.edges, 49);
    }

    #[test]
    fn traced_bellman_ford_terminates() {
        let mut el = generators::erdos_renyi(100, 1500, 9);
        gg_graph::weights::attach_integer(&mut el, 8, 4);
        let mut sink = CountingSink::default();
        let work = run_traced(
            &el,
            4,
            EdgeOrder::Hilbert,
            TracedAlgorithm::BellmanFord,
            &mut sink,
        );
        assert!(work.edges > 0);
    }

    #[test]
    fn partitioning_reduces_llc_misses_for_pagerank() {
        // The Figure 8 effect, at test scale: feed the traced PR stream into
        // a small LLC; partitioning confines the destination range so misses
        // drop. Source (CSR) edge order isolates the partitioning effect —
        // Hilbert order already has good locality at P = 1, which is exactly
        // the Figure 7 observation that the two techniques overlap. The
        // vertex-data arrays (8 B x 2^16 = 512 KiB) must dwarf the 64 KiB
        // cache for the destination-confinement effect to be visible.
        let el = generators::rmat(16, 100_000, generators::RmatParams::skewed(), 2);
        let cfg = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 8,
            line_bytes: 64,
        };
        let mut c1 = Cache::new(cfg);
        run_traced(
            &el,
            1,
            EdgeOrder::Source,
            TracedAlgorithm::PageRank,
            &mut c1,
        );
        let mut c64 = Cache::new(cfg);
        run_traced(
            &el,
            64,
            EdgeOrder::Source,
            TracedAlgorithm::PageRank,
            &mut c64,
        );
        let m1 = c1.stats().misses;
        let m64 = c64.stats().misses;
        assert!(
            (m64 as f64) < (m1 as f64) * 0.95,
            "expected >=5% miss reduction: {m1} -> {m64}"
        );
    }

    #[test]
    fn parallel_interleaving_reproduces_fig8_contraction() {
        // With T concurrent workers, the aggregate destination working set
        // is T active partitions wide: at P ~ T it spans the whole vertex
        // array (thrashing); at larger P it shrinks to T·n/P and fits, so
        // misses fall — the Figure 8 shape. Source order isolates the
        // partitioning effect (Hilbert order already localises at P = 1,
        // the Figure 7 overlap); at reproduction scale the optimum sits
        // near P = 48 rather than the paper's 384 because the graphs are
        // three orders of magnitude smaller.
        let el = generators::rmat(14, 500_000, generators::RmatParams::skewed(), 3);
        let footprint = (el.num_vertices() * 16) as u64;
        let cfg = CacheConfig::scaled_llc(footprint, 4);
        let threads = 16;
        let miss = |p: usize| {
            let mut c = Cache::new(cfg);
            run_traced_parallel(
                &el,
                p,
                EdgeOrder::Source,
                TracedAlgorithm::PageRank,
                threads,
                &mut c,
            );
            c.stats().misses
        };
        let m4 = miss(4);
        let m48 = miss(48);
        assert!(
            (m48 as f64) < (m4 as f64) * 0.8,
            "expected >=20% miss reduction: P=4 {m4} -> P=48 {m48}"
        );
    }

    #[test]
    fn interleaved_stream_emits_every_edge_once() {
        let el = generators::erdos_renyi(300, 5000, 8);
        let mut sink = CountingSink::default();
        let work = run_traced_parallel(
            &el,
            32,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            7,
            &mut sink,
        );
        assert_eq!(work.edges, 10 * 5000);
    }

    #[test]
    fn hilbert_order_beats_source_order_unpartitioned() {
        // §IV.C / Figure 7: Hilbert edge order improves locality on its own.
        let el = generators::rmat(16, 100_000, generators::RmatParams::skewed(), 2);
        let cfg = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 8,
            line_bytes: 64,
        };
        let mut c_src = Cache::new(cfg);
        run_traced(
            &el,
            1,
            EdgeOrder::Source,
            TracedAlgorithm::PageRank,
            &mut c_src,
        );
        let mut c_hil = Cache::new(cfg);
        run_traced(
            &el,
            1,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            &mut c_hil,
        );
        assert!(
            c_hil.stats().misses < c_src.stats().misses,
            "hilbert {} vs source {}",
            c_hil.stats().misses,
            c_src.stats().misses
        );
    }

    // -- instrumented-traversal determinism (the memsim half) ------------

    /// `run_traced` is documented as exactly `run_traced_parallel` with
    /// one worker: both entry points must emit the *identical* reference
    /// stream, cache line for cache line, not merely the same counts.
    #[test]
    fn run_traced_equals_parallel_with_one_thread() {
        let el = twitterish();
        for algo in [
            TracedAlgorithm::PageRank,
            TracedAlgorithm::BellmanFord,
            TracedAlgorithm::Bfs,
        ] {
            let mut seq = AddressTrace::new();
            let w_seq = run_traced(&el, 8, EdgeOrder::Hilbert, algo, &mut seq);
            let mut par = AddressTrace::new();
            let w_par = run_traced_parallel(&el, 8, EdgeOrder::Hilbert, algo, 1, &mut par);
            assert_eq!(w_seq, w_par, "{algo:?}: op counts must match");
            assert_eq!(
                seq.lines(),
                par.lines(),
                "{algo:?}: one-thread streams must be identical"
            );
        }
    }

    /// Repeated traced runs of the same scenario are bit-identical — the
    /// property that lets a traced profile serve as a regression baseline.
    #[test]
    fn traced_runs_are_deterministic_across_calls() {
        let el = twitterish();
        let mut a = AddressTrace::new();
        let wa = run_traced_parallel(
            &el,
            16,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            4,
            &mut a,
        );
        let mut b = AddressTrace::new();
        let wb = run_traced_parallel(
            &el,
            16,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            4,
            &mut b,
        );
        assert_eq!(wa, wb);
        assert_eq!(a.lines(), b.lines());
    }

    /// `fig2_reuse_profile` is a pure function of (graph, partitions).
    #[test]
    fn fig2_profile_is_deterministic_across_calls() {
        let el = twitterish();
        for p in [1, 16] {
            let a = fig2_reuse_profile(&el, p);
            let b = fig2_reuse_profile(&el, p);
            assert_eq!(a.total_references, b.total_references);
            assert_eq!(a.cold_references, b.cold_references);
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(
                    a.histogram.quantile_upper(q),
                    b.histogram.quantile_upper(q),
                    "P = {p}, q = {q}"
                );
            }
        }
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::config::Config;
    use gg_graph::bitmap::Bitmap;

    fn sparse_frontier(vertices: Vec<u32>, n: usize) -> Frontier {
        let degrees = vec![1u32; n];
        Frontier::from_sorted(vertices, n, &degrees)
    }

    #[test]
    fn digest_is_representation_independent() {
        let n = 200;
        let verts = vec![3u32, 17, 64, 65, 130, 199];
        let sparse = sparse_frontier(verts.clone(), n);
        let mut bits = Bitmap::new(n);
        for &v in &verts {
            bits.set(v as usize);
        }
        let pool = gg_runtime::pool::Pool::new(1);
        let dense = Frontier::from_dense(bits, &vec![1u32; n], &pool);
        assert_eq!(sparse.len(), dense.len());
        assert_eq!(frontier_digest(&sparse), frontier_digest(&dense));
        // And the digest is order-sensitive in content: dropping a vertex
        // changes it.
        let shorter = sparse_frontier(vec![3, 17, 64, 65, 130], n);
        assert_ne!(frontier_digest(&sparse), frontier_digest(&shorter));
    }

    fn sample_trace() -> RoundTrace {
        let cfg = Config::partitioned_for_tests();
        RoundTrace {
            header: TraceHeader::new("cc", "unit \"quoted\" scenario", &cfg, false),
            rounds: vec![
                RoundRecord {
                    round: 0,
                    frontier_len: 42,
                    frontier_hash: 0xdead_beef_0123_4567,
                    kernel: RoundKernel::Partitioned(vec![
                        StepRecord {
                            partition: 0,
                            kernel: PartKernel::Dense,
                            output: OutputRepr::Dense,
                        },
                        StepRecord {
                            partition: 3,
                            kernel: PartKernel::Sparse,
                            output: OutputRepr::Sparse,
                        },
                    ]),
                    lanes: Some(vec![0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]),
                    sched: CounterSnapshot {
                        edges: 100,
                        vertices: 10,
                        merge_words: 4,
                        chunks: 6,
                        hub_subchunks: 1,
                        fused_lanes: 9,
                        lane_union_words: 3,
                        ..CounterSnapshot::default()
                    },
                },
                RoundRecord {
                    round: 1,
                    frontier_len: 0,
                    frontier_hash: 0xcbf2_9ce4_8422_2325,
                    kernel: RoundKernel::Monolithic(EdgeKind::Medium),
                    lanes: None,
                    sched: CounterSnapshot::default(),
                },
                RoundRecord {
                    round: 2,
                    frontier_len: 7,
                    frontier_hash: 1,
                    kernel: RoundKernel::Forced,
                    lanes: None,
                    sched: CounterSnapshot::default(),
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_every_kernel_shape() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let parsed = RoundTrace::from_jsonl(&text).expect("round trip");
        assert_eq!(trace, parsed);
    }

    #[test]
    fn jsonl_rejects_other_versions_and_garbage() {
        let text = sample_trace().to_jsonl();
        assert!(
            text.contains("\"version\":4"),
            "fixture must carry the current format version"
        );
        for other in ["3", "999"] {
            let bumped = text.replacen("\"version\":4", &format!("\"version\":{other}"), 1);
            let err = RoundTrace::from_jsonl(&bumped).unwrap_err();
            assert!(err.contains(&format!("version {other}")), "{err}");
        }
        assert!(RoundTrace::from_jsonl("").is_err());
        assert!(RoundTrace::from_jsonl("{\"type\":\"round\"}").is_err());
        assert!(RoundTrace::from_jsonl("not json at all").is_err());
    }

    /// Regression (found by `hostile_traces_never_panic`): the recursive
    /// JSON reader had no depth bound, so a line of a million `[` aborted
    /// the process with a stack overflow instead of returning `Err`.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let line = open.repeat(1_000_000);
            let err = RoundTrace::from_jsonl(&line).unwrap_err();
            assert!(err.contains("nesting deeper than 32"), "{err}");
        }
        // The nesting the writer emits stays well inside the bound.
        let text = sample_trace().to_jsonl();
        assert_eq!(RoundTrace::from_jsonl(&text), Ok(sample_trace()));
    }

    /// Regression: the string reader re-validated the whole rest of the
    /// line as UTF-8 for every non-ASCII character, so a header string of
    /// `k` two-byte characters cost `O(k²)` (80k `é` took 4.4 s; a 1 MiB
    /// line, hours). Widths now come from the lead byte.
    #[test]
    fn long_multibyte_strings_parse_in_linear_time() {
        let mut trace = sample_trace();
        trace.header.scenario = "é".repeat(1 << 19);
        let text = trace.to_jsonl();
        assert!(text.len() > 1 << 20);
        let start = std::time::Instant::now();
        assert_eq!(RoundTrace::from_jsonl(&text), Ok(trace));
        // Linear is milliseconds even in debug; quadratic is hours.
        assert!(start.elapsed().as_secs() < 20, "{:?}", start.elapsed());
        // A truncated or stray continuation byte is still an error.
        for bad in [&b"\"\xC3\""[..], b"\"\xA9\"", b"\"\xF0\x9F\""] {
            assert!(parse_value(bad, &mut 0, 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let t = sample_trace();
        assert_eq!(first_divergence(&t, &t.clone()), None);
    }

    #[test]
    fn hash_divergence_reports_first_differing_round() {
        let a = sample_trace();
        let mut b = a.clone();
        b.rounds[1].frontier_hash ^= 1;
        b.rounds[2].frontier_hash ^= 1; // later damage must not mask round 1
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 1);
        assert_eq!(d.field, "frontier_hash");
        assert_eq!(d.partition, None);
    }

    #[test]
    fn lane_divergence_reports_the_lane_index() {
        let a = sample_trace();
        let mut b = a.clone();
        if let Some(lanes) = &mut b.rounds[0].lanes {
            lanes[1] ^= 1;
        }
        // The union hash still matches, so only the per-lane digests can
        // localize the damage.
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 0);
        assert_eq!(d.field, "lane_hash[1]");
        assert_eq!(d.partition, None);

        // A fused-vs-scalar shape mismatch is reported as such.
        let mut c = a.clone();
        c.rounds[0].lanes = None;
        let d = first_divergence(&a, &c).expect("must diverge");
        assert_eq!(d.field, "lanes");
        assert!(d.expected.contains("fused"), "{}", d.expected);
        assert_eq!(d.got, "scalar");
    }

    #[test]
    fn plan_divergence_names_the_partition() {
        let a = sample_trace();
        let mut b = a.clone();
        if let RoundKernel::Partitioned(steps) = &mut b.rounds[0].kernel {
            steps[1].kernel = PartKernel::Dense;
        }
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 0);
        assert_eq!(d.partition, Some(3));
        assert_eq!(d.field, "kernel");
        assert_eq!(d.expected, "sparse");
        assert_eq!(d.got, "dense");
        // The Display form carries all four coordinates.
        let msg = d.to_string();
        assert!(
            msg.contains("round 0") && msg.contains("partition 3"),
            "{msg}"
        );
    }

    #[test]
    fn plan_comparison_is_skipped_across_partition_counts() {
        let a = sample_trace();
        let mut b = a.clone();
        b.header.partitions += 8;
        if let RoundKernel::Partitioned(steps) = &mut b.rounds[0].kernel {
            steps.pop(); // different plan shape — legitimate across counts
        }
        assert!(!plan_comparable(&a.header, &b.header));
        assert_eq!(first_divergence(&a, &b), None, "digests still match");
        // But digests are still contract: break one and it reports.
        b.rounds[2].frontier_len += 1;
        let d = first_divergence(&a, &b).expect("digest divergence survives");
        assert_eq!(d.round, 2);
        assert_eq!(d.field, "frontier_len");
    }

    #[test]
    fn missing_rounds_diverge_at_the_first_absent_round() {
        let a = sample_trace();
        let mut b = a.clone();
        b.rounds.pop();
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 2);
        assert_eq!(d.field, "rounds");
    }

    #[test]
    fn fault_op_is_honest_on_a_single_thread() {
        // One thread claims lane 0, so updates are plain min-label
        // propagation — the property that makes a 1-thread fault recording
        // a valid honest baseline.
        let op = ThreadVaryingMinLabel::new(4);
        assert!(op.update(0, 2, 1.0), "0 < 2 must propagate");
        assert!(!op.update(3, 1, 1.0), "3 > 1 must not");
        assert!(op.update_atomic(0, 3, 1.0));
        assert_eq!(op.snapshot(), vec![0, 1, 0, 0]);
        assert_eq!(op.lanes_claimed(), 1);
    }
}
