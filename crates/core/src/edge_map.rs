//! The monolithic edge traversal kernels and [`Pass`], the one place each
//! is fed its frontier and its output is wrapped as the next frontier.
//!
//! Each [`Pass`] variant names one kernel with the layout and parameters
//! it reads:
//!
//! | Variant | Layout | Direction | Parallel over | Atomics | Run by |
//! |---|---|---|---|---|---|
//! | [`Pass::Sparse`] | whole CSR | forward | active vertices | yes | every engine's sparse class |
//! | [`Pass::Csc`] | whole CSC | backward | destination ranges | no | GG-v2 medium class, Figure 5 "CSC + na", every baseline's backward pass |
//! | [`Pass::Coo`] | partitioned COO | forward | partitions (or edge chunks) | configurable | GG-v2 dense class, Figure 5 "COO ± a" |
//! | [`Pass::Csr`] | whole CSR | forward | all vertices | yes | Ligra's forward pass (Figure 9) |
//! | [`Pass::PartitionedCsr`] | pruned partitioned CSR | forward | stored-vertex chunks | yes | GG-v1's forward pass, Figure 5 "CSR + a" |
//! | [`Pass::UnprunedCsr`] | unpruned partitioned CSR | forward | (partition, vertex chunk) pairs | yes | Polymer's forward pass (Figure 9) |
//!
//! All kernels deduplicate next-frontier insertions through an
//! [`AtomicBitmap`], so edge operators never see duplicate activations in
//! the produced frontier.
//!
//! # Claims
//!
//! Recording an activation in a shared bitmap is a locked read-modify-write
//! (`fetch_or`) even when nothing contends, and an update that always
//! succeeds (a PageRank-like operator in a dense round) would pay one per
//! edge. So every claim site reads the bit first and calls
//! [`AtomicBitmap::set`] only when it is clear: a destination costs one RMW
//! per round (more only when threads race on a clear bit), and the bits set
//! are exactly those of an unconditional `set`. The sparse kernel's claim
//! still takes `set`'s return value as the arbiter, so each destination is
//! listed once however many threads see its bit clear.
//!
//! The dense COO kernel also tests its frontier without a branch: on a
//! partial frontier "is this edge's source active" is a coin flip per edge.
//! It walks each partition in blocks of [`COMPACT_BLOCK`] edges, writes
//! every edge offset into a stack buffer and advances the cursor by the
//! source's active bit, then applies the updates over the buffer. Update
//! order per partition, edge tallies and therefore every result are those
//! of the plain filtered scan.

use gg_graph::bitmap::{AtomicBitmap, Bitmap};
use gg_graph::coo::PartitionedCoo;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr, UnprunedPartitionedCsr};
use gg_graph::types::VertexId;
use gg_runtime::counters::{LocalTally, WorkCounters};
use gg_runtime::pool::Pool;
use std::ops::Range;

use crate::frontier::Frontier;

/// A user-supplied edge operator, the analogue of Ligra's `update` /
/// `updateAtomic` / `cond` triple.
///
/// `update` is the **exclusive** path: the engine guarantees no other
/// thread updates `dst` concurrently (partitioning-by-destination with one
/// thread per partition). `update_atomic` must be safe under concurrent
/// calls targeting the same `dst`. Both return `true` when `dst` should
/// join the next frontier.
pub trait EdgeOp: Sync {
    /// Applies the edge `(src, dst)` with weight `w`; single-writer
    /// guarantee on `dst`.
    fn update(&self, src: VertexId, dst: VertexId, w: f32) -> bool;

    /// Applies the edge under possible write contention on `dst`.
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool;

    /// Returns `false` once `dst` no longer needs updates (enables early
    /// exit in backward traversal; e.g. BFS stops once a parent is found).
    #[inline]
    fn cond(&self, _dst: VertexId) -> bool {
        true
    }
}

/// Quantum width of the associative pre-reduction (edges per fold unit).
///
/// The reduce path ([`EdgeMapReduce`]) folds each destination's in-edge
/// scan in fixed runs of `REDUCE_QUANTUM` consecutive CSC slots, with run
/// boundaries at absolute multiples of the quantum within the scan —
/// independent of chunk caps, thread counts and claim schedules. Folding
/// per fixed quantum (rather than per sub-chunk) is what makes the reduced
/// result bit-identical across every schedule: the f64 grouping of the
/// accumulation is a property of the destination alone.
pub const REDUCE_QUANTUM: usize = 64;

/// An associative-accumulator extension of [`EdgeOp`] — the analogue of
/// Ligra's `edgeMapReduce`.
///
/// Operators whose per-destination update is a fold over an associative
/// operation (PR, SpMV, Bellman-Ford, BP) implement this so the
/// partitioned executor can fold a destination's active in-edges instead
/// of replaying each through [`EdgeOp::update`]. Every scan — whole, or a
/// mega-hub's split into sub-chunks — folds in fixed runs of
/// [`REDUCE_QUANTUM`] CSC slots: each run starts from
/// [`identity`](Self::identity), takes one [`accumulate`](Self::accumulate)
/// per active in-edge in CSC order, and ends in one
/// [`apply`](Self::apply) when any edge was active. A split hub's
/// sub-chunks fold the runs they fully cover on the workers and ship the
/// edges of runs they straddle raw, so the dispatcher applies the same
/// runs, grouped the same way, as the unsplit scan. Traversal-style
/// operators with exclusive per-destination state machines (BFS, CC, BC)
/// do not implement it and keep the exclusive-update path.
///
/// Contract: `apply(dst, fold(edges))` must have the same effect as
/// updating `dst` with each edge through the exclusive path, to within
/// the f64 grouping the quantum fixes. `apply` runs under the same
/// single-writer guarantee as [`EdgeOp::update`]; `cond(dst)` gates the
/// whole scan and is never re-read mid-scan.
pub trait EdgeMapReduce: EdgeOp {
    /// The accumulator every quantum's fold starts from.
    fn identity(&self) -> f64;

    /// Folds one in-edge `(src, w)` of the destination into `acc`.
    fn accumulate(&self, acc: f64, src: VertexId, w: f32) -> f64;

    /// Applies a folded quantum to `dst` (single-writer guarantee);
    /// returns `true` when `dst` should join the next frontier.
    fn apply(&self, dst: VertexId, acc: f64) -> bool;
}

/// Which traversal class Algorithm 2 selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `metric <= |E| / 20`: forward over unpartitioned CSR.
    Sparse,
    /// `|E| / 20 < metric <= |E| / 2`: backward over unpartitioned CSC.
    Medium,
    /// `metric > |E| / 2`: partitioned COO.
    Dense,
}

/// One monolithic edge map: a kernel with the layout and parameters it
/// reads (see the module table). [`run`](Self::run) feeds it the frontier
/// in the form it reads and wraps its output as the next frontier.
#[derive(Clone, Copy, Debug)]
pub enum Pass<'a> {
    /// Push over the whole CSR from the active-vertex list; the next
    /// frontier is deduplicated through `scratch`, which the pass returns
    /// to all-zeros.
    Sparse {
        /// The whole CSR.
        csr: &'a Csr,
        /// An all-zeros bitmap over the vertices.
        scratch: &'a AtomicBitmap,
    },
    /// Pull over the whole CSC, one task per destination range.
    Csc {
        /// The whole CSC.
        csc: &'a Csc,
        /// Destination ranges covering the vertices.
        ranges: &'a [Range<VertexId>],
    },
    /// Scan of the partitioned COO.
    Coo {
        /// The partitioned COO.
        coo: &'a PartitionedCoo,
        /// Chunk the flat edge array across threads with atomic updates
        /// ("+a"), instead of one exclusive task per partition ("+na").
        atomics: bool,
    },
    /// Push over the whole CSR, every vertex scanned.
    Csr(&'a Csr),
    /// Push over the pruned partitioned CSR, every stored replica scanned.
    PartitionedCsr(&'a PartitionedCsr),
    /// Push over the unpruned partitioned CSR, all `n` vertices scanned
    /// per partition.
    UnprunedCsr(&'a UnprunedPartitionedCsr),
}

impl Pass<'_> {
    /// Applies `op` to the out-edges of `frontier`'s active vertices and
    /// returns the next frontier: a sorted vertex list from
    /// [`Pass::Sparse`], a bitmap from the others.
    pub fn run<O: EdgeOp>(
        self,
        frontier: &Frontier,
        op: &O,
        pool: &Pool,
        counters: &WorkCounters,
        out_degrees: &[u32],
    ) -> Frontier {
        let next = match self {
            Pass::Sparse { csr, scratch } => {
                let active = frontier.to_vertex_list();
                let out = sparse_forward_csr(csr, &active, op, pool, scratch, counters);
                return Frontier::from_sparse(out, out_degrees.len(), out_degrees);
            }
            Pass::Csc { csc, ranges } => {
                medium_backward_csc(csc, &frontier.to_bitmap(), op, pool, ranges, counters)
            }
            Pass::Coo { coo, atomics } => {
                dense_coo(coo, &frontier.to_bitmap(), op, pool, atomics, counters)
            }
            Pass::Csr(csr) => dense_forward_csr(csr, &frontier.to_bitmap(), op, pool, counters),
            Pass::PartitionedCsr(pcsr) => {
                dense_forward_partitioned_csr(pcsr, &frontier.to_bitmap(), op, pool, counters)
            }
            Pass::UnprunedCsr(up) => {
                dense_forward_unpruned_csr(up, &frontier.to_bitmap(), op, pool, counters)
            }
        };
        Frontier::from_dense(next.into_bitmap(), out_degrees, pool)
    }
}

/// Records `v` in `next` unless it is already there: a relaxed load instead
/// of a locked RMW for every repeat activation (see "Claims" above).
#[inline]
fn claim(next: &AtomicBitmap, v: VertexId) {
    if !next.get(v as usize) {
        next.set(v as usize);
    }
}

/// Edges per compaction block of [`Pass::Coo`]: the stack buffer of active
/// edge offsets holds one block.
pub const COMPACT_BLOCK: usize = 256;

/// Calls `f(e)` for every edge `e` in `range` whose source is in `current`,
/// in ascending order, compacting each block of [`COMPACT_BLOCK`] edges
/// without a branch on the frontier bit.
#[inline]
fn for_each_active_edge(
    srcs: &[VertexId],
    current: &Bitmap,
    range: Range<usize>,
    mut f: impl FnMut(usize),
) {
    let mut active = [0u32; COMPACT_BLOCK];
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + COMPACT_BLOCK).min(range.end);
        let mut k = 0;
        for (i, &u) in srcs[lo..hi].iter().enumerate() {
            // `k <= i`: the slot is overwritten unless `u` is active.
            active[k] = i as u32;
            k += usize::from(current.get(u as usize));
        }
        for &i in &active[..k] {
            f(lo + i as usize);
        }
        lo = hi;
    }
}

/// The dense COO scan of `range`: every active edge through `update` (which
/// includes the `cond` test), claiming the destinations it accepts. The
/// weight lookup is chosen once per call, not per edge.
#[inline]
fn coo_scan(
    srcs: &[VertexId],
    dsts: &[VertexId],
    weights: Option<&[f32]>,
    current: &Bitmap,
    range: Range<usize>,
    next: &AtomicBitmap,
    update: impl Fn(VertexId, VertexId, f32) -> bool,
) {
    let apply = |e: usize, w: f32| {
        let v = dsts[e];
        if update(srcs[e], v, w) {
            claim(next, v);
        }
    };
    match weights {
        Some(ws) => for_each_active_edge(srcs, current, range, |e| apply(e, ws[e])),
        None => for_each_active_edge(srcs, current, range, |e| apply(e, 1.0)),
    }
}

/// Sparse frontier: forward traversal of the whole CSR over active
/// vertices only. Atomic updates (arbitrary destinations), next frontier
/// deduplicated through `scratch` (which is returned to all-zeros before
/// this function returns).
fn sparse_forward_csr<O: EdgeOp>(
    csr: &Csr,
    active: &[VertexId],
    op: &O,
    pool: &Pool,
    scratch: &AtomicBitmap,
    counters: &WorkCounters,
) -> Vec<VertexId> {
    if active.is_empty() {
        return Vec::new();
    }
    let tasks = (pool.threads() * 4).min(active.len());
    let chunks: Vec<Vec<VertexId>> = pool.map_indices(tasks, |t| {
        let lo = active.len() * t / tasks;
        let hi = active.len() * (t + 1) / tasks;
        let mut tally = LocalTally::new(counters);
        let mut out = Vec::new();
        for &u in &active[lo..hi] {
            tally.vertex();
            let range = csr.edge_range(u);
            for e in range {
                tally.edge();
                let v = csr.targets()[e];
                if op.cond(v)
                    && op.update_atomic(u, v, csr.weight_at(e))
                    && !scratch.get(v as usize)
                    && scratch.set(v as usize)
                {
                    out.push(v);
                }
            }
        }
        out
    });
    let mut out: Vec<VertexId> = chunks.into_iter().flatten().collect();
    // Return the scratch bitmap to all-zeros: exactly the claimed bits are
    // listed in `out`.
    for &v in &out {
        scratch.unset(v as usize);
    }
    out.sort_unstable();
    out
}

/// Medium-dense frontier: backward (pull) traversal of the whole CSC with
/// partitioned computation ranges. One task per range; each destination is
/// updated by exactly one thread, so the exclusive `update` path is used
/// and no atomics are needed (§III.C). Early-exits a vertex's in-edge scan
/// once `op.cond` goes false.
fn medium_backward_csc<O: EdgeOp>(
    csc: &Csc,
    current: &Bitmap,
    op: &O,
    pool: &Pool,
    ranges: &[std::ops::Range<VertexId>],
    counters: &WorkCounters,
) -> AtomicBitmap {
    let n = csc.num_vertices();
    let next = AtomicBitmap::new(n);
    pool.for_each_index(ranges.len(), |r| {
        let mut tally = LocalTally::new(counters);
        for v in ranges[r].clone() {
            tally.vertex();
            if !op.cond(v) {
                continue;
            }
            let range = csc.edge_range(v);
            for e in range {
                tally.edge();
                let u = csc.sources()[e];
                if current.get(u as usize) {
                    if op.update(u, v, csc.weight_at(e)) {
                        claim(&next, v);
                    }
                    if !op.cond(v) {
                        break;
                    }
                }
            }
        }
    });
    next
}

/// Dense frontier: traversal of the partitioned COO.
///
/// * `use_atomics == false` ("+na"): one task per partition, in index
///   order; value updates take the exclusive path.
/// * `use_atomics == true` ("+a"): the flat edge array is chunked across
///   all threads irrespective of partition boundaries; updates take the
///   atomic path. This is the configuration the paper shows losing
///   6.1–23.7 % at ≥48 partitions.
///
/// Both paths scan every stored edge (and tally it) but compact each block
/// of [`COMPACT_BLOCK`] edges to the active ones before updating, in edge
/// order (see "Claims" in the module doc).
fn dense_coo<O: EdgeOp>(
    coo: &PartitionedCoo,
    current: &Bitmap,
    op: &O,
    pool: &Pool,
    use_atomics: bool,
    counters: &WorkCounters,
) -> AtomicBitmap {
    let n = coo.num_vertices();
    let next = AtomicBitmap::new(n);
    if use_atomics {
        let srcs = coo.coo().srcs();
        let dsts = coo.coo().dsts();
        let weights = coo.coo().weights();
        pool.for_each_chunk(coo.num_edges(), pool.threads() * 8, |lo, hi| {
            let mut tally = LocalTally::new(counters);
            tally.edges_n((hi - lo) as u64);
            coo_scan(srcs, dsts, weights, current, lo..hi, &next, |u, v, w| {
                op.cond(v) && op.update_atomic(u, v, w)
            });
        });
    } else {
        pool.for_each_index(coo.num_partitions(), |p| {
            let mut tally = LocalTally::new(counters);
            let srcs = coo.part_srcs(p);
            tally.edges_n(srcs.len() as u64);
            let (dsts, weights) = (coo.part_dsts(p), coo.part_weights(p));
            coo_scan(
                srcs,
                dsts,
                weights,
                current,
                0..srcs.len(),
                &next,
                |u, v, w| op.cond(v) && op.update(u, v, w),
            );
        });
    }
    next
}

/// Figure 5's "CSR + a" configuration: forward traversal of the pruned
/// partitioned CSR. Partitions are processed in parallel *and* a
/// partition's stored sources are chunked across threads, so updates are
/// atomic ("atomics are unavoidable when using CSR due to partitioning by
/// destination", §IV.A). Every stored vertex replica is visited, making
/// the §II.F work increase measurable through `counters`.
fn dense_forward_partitioned_csr<O: EdgeOp>(
    pcsr: &PartitionedCsr,
    current: &Bitmap,
    op: &O,
    pool: &Pool,
    counters: &WorkCounters,
) -> AtomicBitmap {
    const CHUNK: usize = 2048;
    let n = current.len();
    let next = AtomicBitmap::new(n);
    // Flatten (partition, stored-vertex chunk) pairs into a task list.
    let mut tasks = Vec::new();
    for p in 0..pcsr.num_partitions() {
        let sv = pcsr.part(p).num_stored_vertices();
        let mut lo = 0;
        while lo < sv {
            tasks.push((p, lo, (lo + CHUNK).min(sv)));
            lo += CHUNK;
        }
    }
    pool.for_each_index(tasks.len(), |t| {
        let (p, lo, hi) = tasks[t];
        let part = pcsr.part(p);
        let mut tally = LocalTally::new(counters);
        for i in lo..hi {
            tally.vertex();
            let u = part.vertex_ids()[i];
            if current.get(u as usize) {
                for e in part.edge_range_at(i) {
                    tally.edge();
                    let v = part.targets()[e];
                    if op.cond(v) && op.update_atomic(u, v, part.weight_at(e)) {
                        claim(&next, v);
                    }
                }
            }
        }
    });
    next
}

/// Ligra's dense forward configuration: push over the whole CSR, all
/// vertices scanned, atomic updates.
fn dense_forward_csr<O: EdgeOp>(
    csr: &Csr,
    current: &Bitmap,
    op: &O,
    pool: &Pool,
    counters: &WorkCounters,
) -> AtomicBitmap {
    let n = csr.num_vertices();
    let next = AtomicBitmap::new(n);
    pool.for_each_chunk(n, pool.threads() * 8, |lo, hi| {
        let mut tally = LocalTally::new(counters);
        for u in lo as VertexId..hi as VertexId {
            tally.vertex();
            if current.get(u as usize) {
                for e in csr.edge_range(u) {
                    tally.edge();
                    let v = csr.targets()[e];
                    if op.cond(v) && op.update_atomic(u, v, csr.weight_at(e)) {
                        claim(&next, v);
                    }
                }
            }
        }
    });
    next
}

/// Polymer's dense forward configuration: per-partition full-width CSRs
/// (zero-degree vertices *not* pruned, §II.E), so every partition scans all
/// `n` offsets — the storage and work overhead Polymer pays at higher
/// partition counts.
fn dense_forward_unpruned_csr<O: EdgeOp>(
    up: &UnprunedPartitionedCsr,
    current: &Bitmap,
    op: &O,
    pool: &Pool,
    counters: &WorkCounters,
) -> AtomicBitmap {
    const CHUNK: usize = 4096;
    let n = current.len();
    let next = AtomicBitmap::new(n);
    let mut tasks = Vec::new();
    for p in 0..up.num_partitions() {
        let mut lo = 0;
        while lo < n {
            tasks.push((p, lo, (lo + CHUNK).min(n)));
            lo += CHUNK;
        }
    }
    pool.for_each_index(tasks.len(), |t| {
        let (p, lo, hi) = tasks[t];
        let part = up.part(p);
        let mut tally = LocalTally::new(counters);
        for u in lo as VertexId..hi as VertexId {
            tally.vertex();
            if part.out_degree(u) > 0 && current.get(u as usize) {
                for e in part.edge_range(u) {
                    tally.edge();
                    let v = part.targets()[e];
                    if op.cond(v) && op.update_atomic(u, v, part.weight_at(e)) {
                        claim(&next, v);
                    }
                }
            }
        }
    });
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_graph::edge_list::EdgeList;
    use gg_graph::partition::{PartitionBy, PartitionSet};
    use gg_graph::reorder::EdgeOrder;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Mutex;

    /// Counts how many times each destination is touched.
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

    fn diamond() -> EdgeList {
        // 0 -> {1,2} -> 3, plus 3 -> 0 back edge.
        EdgeList::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn sparse_kernel_visits_out_edges_of_active() {
        let el = diamond();
        let csr = Csr::from_edge_list(&el);
        let pool = Pool::new(2);
        let scratch = AtomicBitmap::new(4);
        let counters = WorkCounters::new();
        let op = TouchCount::new(4);
        let out = sparse_forward_csr(&csr, &[0], &op, &pool, &scratch, &counters);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(op.total(), 2);
        assert_eq!(counters.edges(), 2);
        assert_eq!(counters.vertices(), 1);
        // Scratch is restored to zero.
        assert_eq!(scratch.count_ones(), 0);
    }

    #[test]
    fn sparse_kernel_dedups_next_frontier() {
        // Both 1 and 2 push to 3; 3 must appear once.
        let el = diamond();
        let csr = Csr::from_edge_list(&el);
        let pool = Pool::new(2);
        let scratch = AtomicBitmap::new(4);
        let counters = WorkCounters::new();
        let op = TouchCount::new(4);
        let out = sparse_forward_csr(&csr, &[1, 2], &op, &pool, &scratch, &counters);
        assert_eq!(out, vec![3]);
        // ... but the operator saw both updates.
        assert_eq!(op.hits[3].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn medium_kernel_matches_sparse_result() {
        let el = diamond();
        let csr = Csr::from_edge_list(&el);
        let csc = Csc::from_edge_list(&el);
        let pool = Pool::new(2);
        let counters = WorkCounters::new();

        let scratch = AtomicBitmap::new(4);
        let op1 = TouchCount::new(4);
        let sparse_next = sparse_forward_csr(&csr, &[0, 3], &op1, &pool, &scratch, &counters);

        let current = Bitmap::from_indices(4, &[0, 3]);
        let op2 = TouchCount::new(4);
        let ranges = vec![0u32..2u32, 2u32..4u32];
        let medium_next = medium_backward_csc(&csc, &current, &op2, &pool, &ranges, &counters);
        let mut medium_list: Vec<u32> = medium_next
            .into_bitmap()
            .iter_ones()
            .map(|i| i as u32)
            .collect();
        medium_list.sort_unstable();
        assert_eq!(sparse_next, medium_list);
        assert_eq!(op1.total(), op2.total());
    }

    #[test]
    fn dense_coo_exclusive_and_atomic_agree() {
        let el = gg_graph::generators::rmat(7, 800, gg_graph::generators::RmatParams::skewed(), 9);
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 4, PartitionBy::Destination);
        let coo = PartitionedCoo::new(&el, &set, EdgeOrder::Hilbert);
        let pool = Pool::new(4);
        let counters = WorkCounters::new();
        let current = Bitmap::full(el.num_vertices());

        let op_na = TouchCount::new(el.num_vertices());
        let next_na = dense_coo(&coo, &current, &op_na, &pool, false, &counters);
        let op_a = TouchCount::new(el.num_vertices());
        let next_a = dense_coo(&coo, &current, &op_a, &pool, true, &counters);

        assert_eq!(op_na.total(), 800);
        assert_eq!(op_a.total(), 800);
        assert_eq!(next_na.into_bitmap(), next_a.into_bitmap());
    }

    #[test]
    fn dense_coo_respects_current_frontier() {
        let el = diamond();
        let set = PartitionSet::whole(4, PartitionBy::Destination);
        let coo = PartitionedCoo::new(&el, &set, EdgeOrder::Source);
        let pool = Pool::new(2);
        let counters = WorkCounters::new();
        // Only vertex 3 active: its single out-edge goes to 0.
        let current = Bitmap::from_indices(4, &[3]);
        let op = TouchCount::new(4);
        let next = dense_coo(&coo, &current, &op, &pool, false, &counters);
        assert_eq!(op.total(), 1);
        let ones: Vec<usize> = next.into_bitmap().iter_ones().collect();
        assert_eq!(ones, vec![0]);
        // COO always scans all edges.
        assert_eq!(counters.edges(), 5);
    }

    #[test]
    fn partitioned_csr_kernel_counts_replicas() {
        let el = diamond();
        let set = PartitionSet::vertex_balanced(4, 2, PartitionBy::Destination);
        let pcsr = PartitionedCsr::new(&el, &set);
        let pool = Pool::new(2);
        let counters = WorkCounters::new();
        let current = Bitmap::full(4);
        let op = TouchCount::new(4);
        let next = dense_forward_partitioned_csr(&pcsr, &current, &op, &pool, &counters);
        assert_eq!(op.total(), 5);
        assert_eq!(next.count_ones(), 4);
        // Vertex visits equal total stored (replicated) vertices, > n when
        // replication occurs.
        assert_eq!(counters.vertices() as usize, pcsr.total_stored_vertices());
    }

    #[test]
    fn whole_csr_dense_kernel_equivalent() {
        let el = gg_graph::generators::erdos_renyi(80, 600, 4);
        let csr = Csr::from_edge_list(&el);
        let pool = Pool::new(2);
        let counters = WorkCounters::new();
        let current = Bitmap::full(80);
        let op = TouchCount::new(80);
        let next = dense_forward_csr(&csr, &current, &op, &pool, &counters);
        assert_eq!(op.total(), 600);
        // Every vertex with an in-edge is in the next frontier.
        let expected = el.in_degrees().iter().filter(|&&d| d > 0).count();
        assert_eq!(next.count_ones(), expected);
    }

    #[test]
    fn unpruned_kernel_scans_all_vertices_per_partition() {
        let el = diamond();
        let set = PartitionSet::vertex_balanced(4, 2, PartitionBy::Destination);
        let up = UnprunedPartitionedCsr::new(&el, &set);
        let pool = Pool::new(2);
        let counters = WorkCounters::new();
        let current = Bitmap::full(4);
        let op = TouchCount::new(4);
        let _ = dense_forward_unpruned_csr(&up, &current, &op, &pool, &counters);
        assert_eq!(op.total(), 5);
        // Work increase: 2 partitions x 4 vertices scanned.
        assert_eq!(counters.vertices(), 8);
    }

    /// SplitMix64's finaliser: a seeded pseudo-random function of one word.
    fn mix(seed: u64, x: u64) -> u64 {
        let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The four frontier shapes both kernel tests sweep.
    fn frontier_shapes(n: usize, seed: u64) -> Vec<(&'static str, Bitmap)> {
        let pick = |keep: &dyn Fn(u32) -> bool| {
            let ids: Vec<u32> = (0..n as u32).filter(|&v| keep(v)).collect();
            Bitmap::from_indices(n, &ids)
        };
        vec![
            ("empty", Bitmap::new(n)),
            ("full", Bitmap::full(n)),
            ("alternating", pick(&|v| v % 2 == 0)),
            (
                "random",
                pick(&|v| mix(seed, u64::from(v)).is_multiple_of(3)),
            ),
        ]
    }

    /// Succeeds on a seeded subset of edges (a pure function of `(src,
    /// dst)`, so every kernel sees the same subset) and records every
    /// destination with at least one successful update.
    struct SeededClaims {
        seed: u64,
        hit: Vec<AtomicBool>,
    }

    impl SeededClaims {
        fn new(n: usize, seed: u64) -> Self {
            SeededClaims {
                seed,
                hit: (0..n).map(|_| AtomicBool::new(false)).collect(),
            }
        }
        fn accepts(seed: u64, s: u32, d: u32) -> bool {
            !mix(seed, u64::from(s) << 32 | u64::from(d)).is_multiple_of(3)
        }
        fn hits(&self) -> Vec<u32> {
            (0..self.hit.len() as u32)
                .filter(|&v| self.hit[v as usize].load(Ordering::Relaxed))
                .collect()
        }
    }

    impl EdgeOp for SeededClaims {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
            let ok = Self::accepts(self.seed, s, d);
            if ok {
                self.hit[d as usize].store(true, Ordering::Relaxed);
            }
            ok
        }
        fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
            self.update(s, d, w)
        }
    }

    fn ones(next: AtomicBitmap) -> Vec<u32> {
        next.into_bitmap().iter_ones().map(|i| i as u32).collect()
    }

    /// Every claim site - the sparse kernel's scratch claim, the medium
    /// pull, both dense COO paths and the three forward variants - claims
    /// exactly the destinations with at least one successful update, and
    /// those are the sequential oracle's: destinations of an active edge
    /// the operator accepts. Repeats into one destination come from rmat's
    /// duplicate edges and the star's hub.
    #[test]
    fn every_kernel_claims_exactly_the_updated_destinations() {
        let graphs = [
            (
                "rmat",
                gg_graph::generators::rmat(8, 3000, gg_graph::generators::RmatParams::skewed(), 5),
            ),
            ("star", gg_graph::generators::star(200)),
        ];
        for (name, el) in &graphs {
            let n = el.num_vertices();
            let set = PartitionSet::edge_balanced(&el.in_degrees(), 4, PartitionBy::Destination);
            let csr = Csr::from_edge_list(el);
            let csc = Csc::from_edge_list(el);
            let coo = PartitionedCoo::new(el, &set, EdgeOrder::Hilbert);
            let pcsr = PartitionedCsr::new(el, &set);
            let up = UnprunedPartitionedCsr::new(el, &set);
            let ranges: Vec<_> = (0..4).map(|p| set.range(p)).collect();
            for (shape, current) in frontier_shapes(n, 3) {
                let seed = 17;
                let want: Vec<u32> = {
                    let mut d: Vec<u32> = (0..el.num_edges())
                        .map(|e| (el.srcs()[e], el.dsts()[e]))
                        .filter(|&(u, v)| {
                            current.get(u as usize) && SeededClaims::accepts(seed, u, v)
                        })
                        .map(|(_, v)| v)
                        .collect();
                    d.sort_unstable();
                    d.dedup();
                    d
                };
                for threads in [1, 4] {
                    let pool = Pool::new(threads);
                    let c = WorkCounters::new();
                    let at = format!("{name}/{shape} T={threads}");
                    let check = |site: &str, next: Vec<u32>, op: &SeededClaims| {
                        assert_eq!(next, op.hits(), "{site} {at}: claims != updated");
                        assert_eq!(next, want, "{site} {at}: claims != oracle");
                    };

                    let op = SeededClaims::new(n, seed);
                    let scratch = AtomicBitmap::new(n);
                    let active: Vec<u32> = current.iter_ones().map(|i| i as u32).collect();
                    let out = sparse_forward_csr(&csr, &active, &op, &pool, &scratch, &c);
                    assert!(
                        out.windows(2).all(|w| w[0] < w[1]),
                        "sparse {at}: duplicate"
                    );
                    assert_eq!(scratch.count_ones(), 0, "sparse {at}: scratch not zeroed");
                    check("sparse", out, &op);

                    let op = SeededClaims::new(n, seed);
                    let next = medium_backward_csc(&csc, &current, &op, &pool, &ranges, &c);
                    check("medium", ones(next), &op);

                    for atomics in [false, true] {
                        let op = SeededClaims::new(n, seed);
                        let next = dense_coo(&coo, &current, &op, &pool, atomics, &c);
                        check(&format!("dense_coo atomics={atomics}"), ones(next), &op);
                    }

                    let op = SeededClaims::new(n, seed);
                    let next = dense_forward_partitioned_csr(&pcsr, &current, &op, &pool, &c);
                    check("partitioned csr", ones(next), &op);

                    let op = SeededClaims::new(n, seed);
                    let next = dense_forward_csr(&csr, &current, &op, &pool, &c);
                    check("whole csr", ones(next), &op);

                    let op = SeededClaims::new(n, seed);
                    let next = dense_forward_unpruned_csr(&up, &current, &op, &pool, &c);
                    check("unpruned csr", ones(next), &op);
                }
            }
        }
    }

    /// Logs every update's `(src, dst)` in call order.
    struct UpdateLog(Mutex<Vec<(u32, u32)>>);

    impl EdgeOp for UpdateLog {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
            self.0
                .lock()
                .expect("log lock never held across a panic")
                .push((s, d));
            true
        }
        fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
            self.update(s, d, w)
        }
    }

    /// The compacted dense COO scan applies exactly the active edges of a
    /// partition, in the partition's COO order, whatever its length is
    /// relative to the compaction block, and tallies every stored edge as
    /// the plain filtered scan did. The `+a` path keeps the flat array's
    /// order at one thread and the same update multiset at four.
    #[test]
    fn dense_coo_compaction_preserves_update_order_and_tallies() {
        const B: usize = COMPACT_BLOCK;
        let counts = [0, 1, B - 1, B, B + 1, 2 * B + 1];
        let per_part = 16;
        let n = counts.len() * per_part;
        let set = PartitionSet::vertex_balanced(n, counts.len(), PartitionBy::Destination);
        let mut edges = Vec::new();
        for (p, &m) in counts.iter().enumerate() {
            let r = set.range(p);
            for i in 0..m {
                let u = (mix(p as u64, i as u64) % n as u64) as u32;
                edges.push((u, r.start + (i % per_part) as u32));
            }
        }
        let el = EdgeList::from_edges(n, &edges);
        let coo = PartitionedCoo::new(&el, &set, EdgeOrder::Hilbert);
        for (p, &m) in counts.iter().enumerate() {
            assert_eq!(coo.part_srcs(p).len(), m, "partition {p} edge count");
        }
        for (shape, current) in frontier_shapes(n, 9) {
            let active_edges = |srcs: &[u32], dsts: &[u32]| -> Vec<(u32, u32)> {
                srcs.iter()
                    .zip(dsts)
                    .filter(|(&u, _)| current.get(u as usize))
                    .map(|(&u, &v)| (u, v))
                    .collect()
            };
            let flat = active_edges(coo.coo().srcs(), coo.coo().dsts());
            for threads in [1, 4] {
                let pool = Pool::new(threads);
                let at = format!("{shape} T={threads}");

                let counters = WorkCounters::new();
                let log = UpdateLog(Mutex::new(Vec::new()));
                let next = dense_coo(&coo, &current, &log, &pool, false, &counters);
                let log = log.0.into_inner().expect("log lock never poisoned");
                for p in 0..counts.len() {
                    let got: Vec<_> = log
                        .iter()
                        .copied()
                        .filter(|&(_, v)| set.home(v) == p)
                        .collect();
                    let want = active_edges(coo.part_srcs(p), coo.part_dsts(p));
                    assert_eq!(got, want, "partition {p} {at}: update sequence");
                }
                assert_eq!(counters.edges(), el.num_edges() as u64, "{at}: tally");
                let mut dsts: Vec<u32> = flat.iter().map(|&(_, v)| v).collect();
                dsts.sort_unstable();
                dsts.dedup();
                assert_eq!(ones(next), dsts, "{at}: next frontier");

                let counters = WorkCounters::new();
                let log = UpdateLog(Mutex::new(Vec::new()));
                dense_coo(&coo, &current, &log, &pool, true, &counters);
                let mut log = log.0.into_inner().expect("log lock never poisoned");
                assert_eq!(counters.edges(), el.num_edges() as u64, "+a {at}: tally");
                if threads == 1 {
                    assert_eq!(log, flat, "+a {at}: update sequence");
                } else {
                    let mut want = flat.clone();
                    want.sort_unstable();
                    log.sort_unstable();
                    assert_eq!(log, want, "+a {at}: update multiset");
                }
            }
        }
    }

    /// BFS-style op exercising cond-based early exit.
    struct ClaimOnce {
        parent: Vec<AtomicU32>,
    }

    impl EdgeOp for ClaimOnce {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
            // Exclusive path: plain check-then-store.
            if self.parent[d as usize].load(Ordering::Relaxed) == u32::MAX {
                self.parent[d as usize].store(s, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
        fn update_atomic(&self, s: u32, d: u32, _w: f32) -> bool {
            self.parent[d as usize]
                .compare_exchange(u32::MAX, s, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        }
        fn cond(&self, d: u32) -> bool {
            self.parent[d as usize].load(Ordering::Relaxed) == u32::MAX
        }
    }

    #[test]
    fn cond_early_exit_in_pull() {
        // Star pointing at vertex 0 from many sources: pull should claim a
        // single parent and stop scanning.
        let mut el = EdgeList::new(9);
        for s in 1..9 {
            el.push(s, 0);
        }
        let csc = Csc::from_edge_list(&el);
        let pool = Pool::new(1);
        let counters = WorkCounters::new();
        let op = ClaimOnce {
            parent: gg_runtime::atomics::atomic_u32_vec(9, u32::MAX),
        };
        let current = Bitmap::full(9);
        #[allow(clippy::single_range_in_vec_init)]
        let ranges = [0u32..9u32];
        let next = medium_backward_csc(&csc, &current, &op, &pool, &ranges, &counters);
        assert_eq!(next.count_ones(), 1);
        // Early exit: only one in-edge of vertex 0 was examined.
        assert_eq!(counters.edges(), 1);
        assert_ne!(op.parent[0].load(Ordering::Relaxed), u32::MAX);
    }
}
