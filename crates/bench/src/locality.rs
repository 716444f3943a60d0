//! Instrumented traversals feeding `gg-memsim`: the locality measurements
//! behind Figures 2 and 8.
//!
//! The passes replay the framework's traversal orders over a borrowed
//! [`GraphStore`] while emitting every memory reference into an
//! [`AccessSink`] — the portable substitute for the paper's hardware
//! measurements:
//!
//! * [`fig2_reuse_profile`] reproduces Figure 2: the reuse distances of
//!   next-array updates during a PRDelta-style dense push over the
//!   destination-partitioned CSR split from the store's CSR;
//! * [`trace`] reproduces the access streams behind Figure 8: full
//!   executions of PR / Bellman-Ford / BFS against the store's COO, CSR
//!   and CSC, streamed into a cache simulator to obtain MPKI. Each round
//!   takes the pass the monolithic engine runs for Algorithm 2's class of
//!   its frontier: sparse → forward over the CSR, medium → pull over the
//!   CSC, dense → scan of the COO.
//!
//! The store is the **monolithic** one ([`locality_store`]): that executor
//! is the only one that streams the COO, so it is the only one the edge
//! layout reaches. Figure 2's replay is sequential in partition order
//! (reuse distance is defined on a serial reference stream). Figure 8's
//! replay interleaves the streams of `threads` concurrent workers, because
//! the paper's MPKI effect comes from the *aggregate* working set of the
//! partitions running at the same time competing for the shared LLC.

use std::cell::Cell;

use gg_core::config::{Config, ExecutorKind};
use gg_core::edge_map::EdgeKind;
use gg_core::store::GraphStore;
use gg_graph::csr::PartitionedCsr;
use gg_graph::edge_list::EdgeList;
use gg_graph::reorder::EdgeOrder;
use gg_memsim::layout::{ArrayHandle, MemoryLayout};
use gg_memsim::reuse::ReuseProfile;
use gg_memsim::trace::{AccessSink, AddressTrace};
use gg_runtime::numa::NumaTopology;

/// Operation counts of a traced execution (for the instruction proxy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracedWork {
    /// Edges examined.
    pub edges: u64,
    /// Vertices visited (including replicas / range scans).
    pub vertices: u64,
}

/// Algorithms traced for the Figure 8 MPKI sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracedAlgorithm {
    /// 10 power-method iterations; every iteration dense (edge-oriented).
    PageRank,
    /// Bellman-Ford from vertex 0; frontier-driven, mostly dense on social
    /// graphs (unit weights if the input is unweighted).
    BellmanFord,
    /// BFS from vertex 0; vertex-oriented, mostly sparse/medium — the
    /// paper's example of an algorithm partitioning does *not* help.
    Bfs,
}

/// The configuration [`locality_store`] builds from: a domain count of 1,
/// so the partition count is exactly `num_partitions` (no rounding), and
/// the monolithic executor, so the store holds the COO.
fn store_config(num_partitions: usize) -> Config {
    Config {
        num_partitions,
        numa: NumaTopology::new(1),
        ..Config::default()
    }
    .with_executor(ExecutorKind::Monolithic)
}

/// Builds the monolithic store the passes read: `num_partitions`
/// edge-balanced destination partitions, COO edges in `order`.
pub fn locality_store(el: &EdgeList, num_partitions: usize, order: EdgeOrder) -> GraphStore {
    GraphStore::build(el, &store_config(num_partitions).with_edge_order(order))
}

/// Figure 2: reuse-distance profile of the writes to the next-value array
/// during one full dense forward traversal of the store's CSR, split by
/// its edge partitions (the PRDelta update stream).
pub fn fig2_reuse_profile(store: &GraphStore) -> ReuseProfile {
    let pcsr = PartitionedCsr::from_csr(store.csr(), store.edge_parts());
    let mut layout = MemoryLayout::new();
    // PRDelta accumulates 8-byte deltas per destination vertex.
    let next_data = layout.array(store.num_vertices(), 8);
    let mut trace = AddressTrace::with_capacity(store.num_edges());
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

/// Replays `algo` on `store`, streaming every memory reference into
/// `sink`. Dense passes model `threads` concurrent workers sharing the
/// cache: each worker owns a contiguous block of partitions (in index
/// order) and the workers' reference streams are
/// interleaved in small chunks — the configuration behind Figure 8's
/// MPKI-vs-partitions sweep; `threads == 1` is the plain sequential
/// order. Returns the op counts for the MPKI instruction proxy (zero on
/// an empty graph).
///
/// # Panics
///
/// If `store` has no COO (it was not built for the monolithic executor;
/// see [`locality_store`]).
pub fn trace<S: AccessSink>(
    store: &GraphStore,
    algo: TracedAlgorithm,
    threads: usize,
    sink: &mut S,
) -> TracedWork {
    assert!(
        store.coo().is_some(),
        "locality passes read a monolithic store's COO"
    );
    if store.num_vertices() == 0 {
        return TracedWork::default();
    }
    let arrays = Arrays::new(store.num_vertices(), store.num_edges());
    match algo {
        TracedAlgorithm::PageRank => trace_pagerank(store, &arrays, threads, sink),
        TracedAlgorithm::BellmanFord => trace_bellman_ford(store, &arrays, threads, sink),
        TracedAlgorithm::Bfs => trace_bfs(store, &arrays, threads, sink),
    }
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

    /// One dense pass over every edge of the store's COO, with `threads`
    /// workers' streams interleaved (see [`trace`]). An active edge reads
    /// `src_arr` at its source and writes `dst_arr` at its destination.
    #[allow(clippy::too_many_arguments)]
    fn dense_pass<S, F>(
        &self,
        store: &GraphStore,
        sink: &mut S,
        active: &[bool],
        (src_arr, dst_arr): (&ArrayHandle, &ArrayHandle),
        threads: usize,
        work: &mut TracedWork,
        mut visit: F,
    ) where
        S: AccessSink,
        F: FnMut(u32, u32, f32),
    {
        const CHUNK: usize = 16;
        let coo = store.coo().expect("a monolithic store");
        let num_parts = coo.num_partitions();
        let t = threads.clamp(1, num_parts);
        // Worker w owns partitions [w * P / t, (w+1) * P / t).
        // Cursor per worker: (current partition, edge offset inside it).
        let mut cursor: Vec<(usize, usize)> = (0..t).map(|w| (w * num_parts / t, 0)).collect();
        let limit: Vec<usize> = (0..t).map(|w| (w + 1) * num_parts / t).collect();
        let mut live = t;
        while live > 0 {
            live = 0;
            for w in 0..t {
                let (ref mut p, ref mut i) = cursor[w];
                let mut budget = CHUNK;
                while budget > 0 && *p < limit[w] {
                    let range = coo.part_range(*p);
                    if *i >= range.len() {
                        *p += 1;
                        *i = 0;
                        continue;
                    }
                    let e = range.start + *i;
                    let (u, v) = (coo.part_srcs(*p)[*i], coo.part_dsts(*p)[*i]);
                    work.edges += 1;
                    self.coo_srcs.touch(sink, e);
                    self.coo_dsts.touch(sink, e);
                    self.cur_bitmap.touch_bit(sink, u as usize);
                    if active[u as usize] {
                        self.coo_weights.touch(sink, e);
                        src_arr.touch(sink, u as usize);
                        dst_arr.touch(sink, v as usize);
                        visit(u, v, coo.part_weights(*p).map_or(1.0, |w| w[*i]));
                    }
                    *i += 1;
                    budget -= 1;
                }
                if *p < limit[w] {
                    live += 1;
                }
            }
        }
    }

    /// One sparse pass over the active list's out-edges in the store's CSR.
    fn sparse_pass<S, F>(
        &self,
        store: &GraphStore,
        sink: &mut S,
        active_list: &[u32],
        work: &mut TracedWork,
        mut visit: F,
    ) where
        S: AccessSink,
        F: FnMut(u32, u32, f32),
    {
        let csr = store.csr();
        for &u in active_list {
            work.vertices += 1;
            self.small_data.touch(sink, u as usize);
            for e in csr.edge_range(u) {
                work.edges += 1;
                self.csr_targets.touch(sink, e);
                self.csr_weights.touch(sink, e);
                let v = csr.targets()[e];
                self.small_data.touch(sink, v as usize);
                visit(u, v, csr.weight_at(e));
            }
        }
    }

    /// One medium pull pass over the store's CSC, with per-destination
    /// early exit driven by `cond`.
    fn medium_pass<S, C, F>(
        &self,
        store: &GraphStore,
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
        let csc = store.csc();
        for v in 0..store.num_vertices() as u32 {
            work.vertices += 1;
            if !cond(v) {
                continue;
            }
            self.small_data.touch(sink, v as usize);
            for e in csc.edge_range(v) {
                work.edges += 1;
                self.csc_sources.touch(sink, e);
                let u = csc.sources()[e];
                self.cur_bitmap.touch_bit(sink, u as usize);
                if active[u as usize] {
                    self.csc_weights.touch(sink, e);
                    self.small_data.touch(sink, u as usize);
                    visit(u, v, csc.weight_at(e));
                    if !cond(v) {
                        break;
                    }
                }
            }
        }
    }
}

/// Algorithm 2's class of a round over `frontier`, against the thresholds
/// of the configuration that built the store.
fn classify(store: &GraphStore, frontier: &[u32]) -> EdgeKind {
    let deg = store.out_degrees();
    let metric = frontier.len() as u64
        + frontier
            .iter()
            .map(|&v| deg[v as usize] as u64)
            .sum::<u64>();
    let thresholds = store_config(store.num_partitions()).thresholds;
    gg_core::plan::classify(metric, store.num_edges() as u64, &thresholds)
}

/// The frontier as a dense activity mask.
fn active_mask(n: usize, frontier: &[u32]) -> Vec<bool> {
    let mut active = vec![false; n];
    for &v in frontier {
        active[v as usize] = true;
    }
    active
}

fn trace_pagerank<S: AccessSink>(
    store: &GraphStore,
    arrays: &Arrays,
    threads: usize,
    sink: &mut S,
) -> TracedWork {
    let n = store.num_vertices();
    let mut work = TracedWork::default();
    let mut rank = vec![1.0f64 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let active = vec![true; n];
    let deg = store.out_degrees();
    for iter in 0..10 {
        next.fill(0.0);
        // Rank and next rank swap address ranges with the vectors.
        let ping_pong = if iter % 2 == 1 {
            (&arrays.data_b, &arrays.data_a)
        } else {
            (&arrays.data_a, &arrays.data_b)
        };
        arrays.dense_pass(
            store,
            sink,
            &active,
            ping_pong,
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

fn trace_bfs<S: AccessSink>(
    store: &GraphStore,
    arrays: &Arrays,
    threads: usize,
    sink: &mut S,
) -> TracedWork {
    let n = store.num_vertices();
    let mut work = TracedWork::default();
    // Cells let the pull pass's early exit read the parents its own
    // visits write, as the engine's `cond` reads the live parent array.
    let parent: Vec<Cell<u32>> = vec![Cell::new(u32::MAX); n];
    parent[0].set(0);
    let unreached = |v: u32| parent[v as usize].get() == u32::MAX;
    let mut frontier = vec![0u32];
    while !frontier.is_empty() {
        let mut next_frontier: Vec<u32> = Vec::new();
        let visit = |u: u32, v: u32, _w: f32| {
            if unreached(v) {
                parent[v as usize].set(u);
                next_frontier.push(v);
            }
        };
        match classify(store, &frontier) {
            EdgeKind::Sparse => arrays.sparse_pass(store, sink, &frontier, &mut work, visit),
            EdgeKind::Medium => {
                let active = active_mask(n, &frontier);
                arrays.medium_pass(store, sink, &active, &mut work, unreached, visit);
            }
            EdgeKind::Dense => {
                let active = active_mask(n, &frontier);
                let small = (&arrays.small_data, &arrays.small_data);
                arrays.dense_pass(store, sink, &active, small, threads, &mut work, visit);
            }
        }
        next_frontier.sort_unstable();
        next_frontier.dedup();
        frontier = next_frontier;
    }
    work
}

fn trace_bellman_ford<S: AccessSink>(
    store: &GraphStore,
    arrays: &Arrays,
    threads: usize,
    sink: &mut S,
) -> TracedWork {
    let n = store.num_vertices();
    let mut work = TracedWork::default();
    let mut dist = vec![f32::INFINITY; n];
    dist[0] = 0.0;
    let mut frontier = vec![0u32];
    let mut rounds = 0usize;
    while !frontier.is_empty() && rounds <= n {
        rounds += 1;
        let mut changed = vec![false; n];
        let relax = |u: u32, v: u32, w: f32| {
            let cand = dist[u as usize] + w;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                changed[v as usize] = true;
            }
        };
        match classify(store, &frontier) {
            EdgeKind::Sparse => arrays.sparse_pass(store, sink, &frontier, &mut work, relax),
            EdgeKind::Medium => {
                let active = active_mask(n, &frontier);
                arrays.medium_pass(store, sink, &active, &mut work, |_| true, relax);
            }
            EdgeKind::Dense => {
                let active = active_mask(n, &frontier);
                let small = (&arrays.small_data, &arrays.small_data);
                arrays.dense_pass(store, sink, &active, small, threads, &mut work, relax);
            }
        }
        frontier = (0..n as u32).filter(|&v| changed[v as usize]).collect();
    }
    work
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

    /// Figure 2's profile of `el` cut into `p` partitions.
    fn fig2(el: &EdgeList, p: usize) -> ReuseProfile {
        fig2_reuse_profile(&locality_store(el, p, EdgeOrder::Source))
    }

    /// Traces `algo` over `el` cut into `p` partitions with `order`.
    fn run<S: AccessSink>(
        el: &EdgeList,
        p: usize,
        order: EdgeOrder,
        algo: TracedAlgorithm,
        threads: usize,
        sink: &mut S,
    ) -> TracedWork {
        trace(&locality_store(el, p, order), algo, threads, sink)
    }

    #[test]
    fn fig2_distances_contract_with_partitions() {
        // The headline claim of §II.C: more partitions => shorter worst-case
        // reuse distance of next-array updates.
        let el = twitterish();
        let p1 = fig2(&el, 1);
        let p16 = fig2(&el, 16);
        let p64 = fig2(&el, 64);
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
        let work = run(
            &el,
            4,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            1,
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
        let w1 = run(
            &el,
            1,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            1,
            &mut s1,
        );
        let mut s64 = CountingSink::default();
        let w64 = run(
            &el,
            64,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            1,
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
        let work = run(
            &el,
            2,
            EdgeOrder::Source,
            TracedAlgorithm::Bfs,
            1,
            &mut sink,
        );
        assert_eq!(work.edges, 49);
    }

    #[test]
    fn traced_bellman_ford_terminates() {
        let mut el = generators::erdos_renyi(100, 1500, 9);
        gg_graph::weights::attach_integer(&mut el, 8, 4);
        let mut sink = CountingSink::default();
        let work = run(
            &el,
            4,
            EdgeOrder::Hilbert,
            TracedAlgorithm::BellmanFord,
            1,
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
        run(
            &el,
            1,
            EdgeOrder::Source,
            TracedAlgorithm::PageRank,
            1,
            &mut c1,
        );
        let mut c64 = Cache::new(cfg);
        run(
            &el,
            64,
            EdgeOrder::Source,
            TracedAlgorithm::PageRank,
            1,
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
            run(
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
        let work = run(
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
        run(
            &el,
            1,
            EdgeOrder::Source,
            TracedAlgorithm::PageRank,
            1,
            &mut c_src,
        );
        let mut c_hil = Cache::new(cfg);
        run(
            &el,
            1,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            1,
            &mut c_hil,
        );
        assert!(
            c_hil.stats().misses < c_src.stats().misses,
            "hilbert {} vs source {}",
            c_hil.stats().misses,
            c_src.stats().misses
        );
    }

    /// Repeated traced runs of the same scenario are bit-identical — the
    /// property that lets a traced profile serve as a regression baseline.
    #[test]
    fn traced_runs_are_deterministic_across_calls() {
        let el = twitterish();
        let mut a = AddressTrace::new();
        let wa = run(
            &el,
            16,
            EdgeOrder::Hilbert,
            TracedAlgorithm::PageRank,
            4,
            &mut a,
        );
        let mut b = AddressTrace::new();
        let wb = run(
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
            let a = fig2(&el, p);
            let b = fig2(&el, p);
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

    /// The whole reference stream of every pass, pinned: FNV-1a over the
    /// little-endian cache-line numbers. The PageRank entries were
    /// recorded when the passes still built their own layouts from the
    /// edge list; the Bellman-Ford and BFS entries when their rounds began
    /// to take the engine's pass per class (medium → CSC pull, dense → COO
    /// scan), which gave BFS's dense round the COO's edge order. A change
    /// to which array a pass touches, or in which order, fails here even
    /// where Figure 8's two-decimal MPKI does not move.
    #[test]
    fn traced_streams_match_recorded_digests() {
        let mut el = twitterish();
        gg_graph::weights::attach_integer(&mut el, 16, 0xF16);
        let expected = [
            (
                TracedAlgorithm::PageRank,
                EdgeOrder::Source,
                120_000,
                0,
                0x9447_4a8f_2052_22c9,
            ),
            (
                TracedAlgorithm::PageRank,
                EdgeOrder::Hilbert,
                120_000,
                0,
                0xcc96_2106_e9bf_9111,
            ),
            (
                TracedAlgorithm::BellmanFord,
                EdgeOrder::Source,
                48_060,
                2_065,
                0xd440_f001_204a_d1a6,
            ),
            (
                TracedAlgorithm::BellmanFord,
                EdgeOrder::Hilbert,
                48_057,
                2_065,
                0x46e0_00c4_d641_c995,
            ),
            (
                TracedAlgorithm::Bfs,
                EdgeOrder::Source,
                16_484,
                2_065,
                0xd2b9_00f5_b965_3cb8,
            ),
            (
                TracedAlgorithm::Bfs,
                EdgeOrder::Hilbert,
                16_484,
                2_065,
                0x90ff_b011_c526_d999,
            ),
        ];
        for (algo, order, edges, vertices, digest) in expected {
            let mut t = AddressTrace::new();
            let work = run(&el, 16, order, algo, 4, &mut t);
            let got = t
                .lines()
                .iter()
                .flat_map(|l| l.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(
                (work.edges, work.vertices, got),
                (edges, vertices, digest),
                "{algo:?} / {order:?}"
            );
        }
    }

    /// A zero-vertex graph has no source vertex 0: every pass traces
    /// nothing instead of indexing past the empty per-vertex arrays.
    #[test]
    fn empty_graph_traces_nothing() {
        let el = EdgeList::new(0);
        let store = locality_store(&el, 4, EdgeOrder::Hilbert);
        for algo in [
            TracedAlgorithm::PageRank,
            TracedAlgorithm::BellmanFord,
            TracedAlgorithm::Bfs,
        ] {
            let mut sink = CountingSink::default();
            assert_eq!(
                trace(&store, algo, 2, &mut sink),
                TracedWork::default(),
                "{algo:?}"
            );
            assert_eq!(sink.count, 0, "{algo:?}");
        }
        assert_eq!(fig2_reuse_profile(&store).total_references, 0);
    }
}
