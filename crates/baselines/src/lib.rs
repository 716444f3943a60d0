//! # gg-baselines — comparator engines for the Figure 9/10 evaluation
//!
//! [`Baseline`] reimplements the *traversal policies* of the three systems
//! the paper compares against, behind the same [`Engine`] trait as
//! GraphGrind-v2, so every algorithm in `gg-algorithms` runs unmodified on
//! all four. The three policies share one two-way edge map: a frontier with
//! `|F| + Σ deg_out(F) <= |E| / 20` pushes sparsely over the whole CSR,
//! any other takes the *programmer-declared* dense direction (Table II):
//! a push over the policy's forward layout, or a pull over the whole CSC
//! split into the policy's destination ranges. They differ only in what
//! their constructors build:
//!
//! * [`Baseline::ligra`] — Shun & Blelloch: the whole CSR forward, and
//!   backward ranges of even *vertex* count, which is exactly the load
//!   imbalance §IV.A attributes Ligra's losses to.
//! * [`Baseline::polymer`] — Zhang et al.'s NUMA-aware Ligra derivative:
//!   one partition per NUMA domain, each an *unpruned* CSR (§II.E:
//!   "Polymer does not prune zero-degree vertices"), so every dense
//!   forward round scans all `n` offsets per partition; edge-balanced
//!   backward ranges.
//! * [`Baseline::graphgrind1`] — the authors' previous system: one
//!   *pruned* CSR partition per domain, and backward ranges balanced by
//!   vertex or by edge count per the algorithm's orientation (§III.D).
//!
//! What is *not* reproduced: physical NUMA page placement (the test
//! machine is treated as UMA), so Polymer's NUMA-locality advantage over
//! Ligra does not materialise here. The policy differences (partitioning,
//! pruning, load balancing, direction choice) are faithfully implemented,
//! and those are what GraphGrind-v2's speedups come from.

use std::ops::Range;

use gg_core::edge_map::{EdgeOp, Pass};
use gg_core::engine::{Direction, EdgeMapSpec, Engine, Orientation};
use gg_core::frontier::Frontier;
use gg_graph::bitmap::AtomicBitmap;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr, UnprunedPartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};
use gg_graph::types::VertexId;
use gg_runtime::counters::WorkCounters;
use gg_runtime::numa::NumaTopology;
use gg_runtime::pool::Pool;

/// The sparse cut-off divisor every baseline shares with Ligra: a
/// frontier is sparse while `|F| + Σ deg_out(F) <= |E| / 20`.
const SPARSE_DIVISOR: u64 = 20;

/// The layout a dense forward round pushes over.
#[derive(Debug)]
enum ForwardLayout {
    /// The whole CSR, every vertex scanned (Ligra).
    Whole,
    /// One full-width CSR per NUMA domain (Polymer).
    Unpruned(UnprunedPartitionedCsr),
    /// One pruned CSR per NUMA domain (GraphGrind-v1).
    Pruned(PartitionedCsr),
}

/// A comparator engine: one traversal policy's layouts and ranges behind
/// the shared two-way edge map (see the crate docs).
#[derive(Debug)]
pub struct Baseline {
    name: &'static str,
    pool: Pool,
    counters: WorkCounters,
    /// The sparse pass's deduplication bitmap, all-zeros between rounds.
    scratch: AtomicBitmap,
    out_degrees: Vec<u32>,
    num_edges: usize,
    csr: Csr,
    csc: Csc,
    forward: ForwardLayout,
    /// Backward destination ranges for vertex-oriented algorithms.
    vertex_ranges: Vec<Range<VertexId>>,
    /// Backward destination ranges for edge-oriented algorithms.
    edge_ranges: Vec<Range<VertexId>>,
}

impl Baseline {
    /// Ligra (Shun & Blelloch, PPoPP 2013): an unpartitioned CSR + CSC
    /// pair, dense rounds divided into `threads * 8` chunks of even vertex
    /// count.
    pub fn ligra(el: &EdgeList, threads: usize) -> Self {
        let n = el.num_vertices();
        let chunks = (threads * 8).clamp(1, n.max(1));
        let ranges = ranges(PartitionSet::vertex_balanced(
            n,
            chunks,
            PartitionBy::Destination,
        ));
        let forward = ForwardLayout::Whole;
        Self::build(el, threads, "Ligra", forward, ranges.clone(), ranges)
    }

    /// Polymer (Zhang, Chen & Chen, PPoPP 2015): one unpruned CSR
    /// partition per domain of `numa`, backward over `(threads *
    /// 4).max(domains)` edge-balanced ranges.
    pub fn polymer(el: &EdgeList, threads: usize, numa: NumaTopology) -> Self {
        let in_deg = el.in_degrees();
        let parts = PartitionSet::edge_balanced(&in_deg, numa.domains(), PartitionBy::Destination);
        let forward = ForwardLayout::Unpruned(UnprunedPartitionedCsr::new(el, &parts));
        let chunks = (threads * 4).max(numa.domains());
        let ranges = ranges(PartitionSet::edge_balanced(
            &in_deg,
            chunks,
            PartitionBy::Destination,
        ));
        Self::build(el, threads, "Polymer", forward, ranges.clone(), ranges)
    }

    /// GraphGrind-v1 (Sun, Vandierendonck & Nikolopoulos, ICS 2017): one
    /// pruned CSR partition per domain of `numa`, backward over `(threads
    /// * 4).max(domains)` ranges balanced per orientation.
    pub fn graphgrind1(el: &EdgeList, threads: usize, numa: NumaTopology) -> Self {
        let in_deg = el.in_degrees();
        let parts = PartitionSet::edge_balanced(&in_deg, numa.domains(), PartitionBy::Destination);
        let forward = ForwardLayout::Pruned(PartitionedCsr::new(el, &parts));
        let chunks = (threads * 4).max(numa.domains());
        let by = PartitionBy::Destination;
        let vertex = ranges(PartitionSet::vertex_balanced(el.num_vertices(), chunks, by));
        let edge = ranges(PartitionSet::edge_balanced(&in_deg, chunks, by));
        Self::build(el, threads, "GG-v1", forward, vertex, edge)
    }

    fn build(
        el: &EdgeList,
        threads: usize,
        name: &'static str,
        forward: ForwardLayout,
        vertex_ranges: Vec<Range<VertexId>>,
        edge_ranges: Vec<Range<VertexId>>,
    ) -> Self {
        Baseline {
            name,
            pool: Pool::new(threads),
            counters: WorkCounters::new(),
            scratch: AtomicBitmap::new(el.num_vertices()),
            out_degrees: el.out_degrees(),
            num_edges: el.num_edges(),
            csr: Csr::from_edge_list(el),
            csc: Csc::from_edge_list(el),
            forward,
            vertex_ranges,
            edge_ranges,
        }
    }
}

/// The ranges of `set`, in partition order.
fn ranges(set: PartitionSet) -> Vec<Range<VertexId>> {
    (0..set.num_partitions()).map(|p| set.range(p)).collect()
}

impl Engine for Baseline {
    fn num_vertices(&self) -> usize {
        self.out_degrees.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn work_counters(&self) -> &WorkCounters {
        &self.counters
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn edge_map<O: EdgeOp>(&self, frontier: &Frontier, op: &O, spec: EdgeMapSpec) -> Frontier {
        if frontier.is_empty() {
            return Frontier::empty(self.num_vertices());
        }
        let pass = if frontier.density_metric() <= self.num_edges as u64 / SPARSE_DIVISOR {
            Pass::Sparse {
                csr: &self.csr,
                scratch: &self.scratch,
            }
        } else {
            match (spec.preferred, &self.forward) {
                (Direction::Forward, ForwardLayout::Whole) => Pass::Csr(&self.csr),
                (Direction::Forward, ForwardLayout::Unpruned(up)) => Pass::UnprunedCsr(up),
                (Direction::Forward, ForwardLayout::Pruned(pcsr)) => Pass::PartitionedCsr(pcsr),
                (Direction::Backward, _) => Pass::Csc {
                    csc: &self.csc,
                    ranges: match spec.orientation {
                        Orientation::Vertex => &self.vertex_ranges,
                        Orientation::Edge => &self.edge_ranges,
                    },
                },
            }
        };
        pass.run(frontier, op, &self.pool, &self.counters, &self.out_degrees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// CC-style operator: propagate the minimum label.
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

    /// BFS-style operator: claim a parent once.
    struct Claim {
        parent: Vec<AtomicU32>,
    }

    impl EdgeOp for Claim {
        fn update(&self, s: u32, d: u32, _w: f32) -> bool {
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

    fn run_cc<E: Engine>(engine: &E, dir: Direction) -> Vec<u32> {
        let op = MinLabel::new(engine.num_vertices());
        let mut f = engine.frontier_all();
        let spec = EdgeMapSpec::edge_oriented().with_direction(dir);
        while !f.is_empty() {
            f = engine.edge_map(&f, &op, spec);
        }
        op.snapshot()
    }

    fn bfs_levels<E: Engine>(engine: &E, src: u32) -> Vec<u32> {
        let n = engine.num_vertices();
        let op = Claim {
            parent: gg_runtime::atomics::atomic_u32_vec(n, u32::MAX),
        };
        op.parent[src as usize].store(src, Ordering::Relaxed);
        let mut f = engine.frontier_single(src);
        let mut level = vec![u32::MAX; n];
        level[src as usize] = 0;
        let mut depth = 0;
        while !f.is_empty() {
            f = engine.edge_map(&f, &op, EdgeMapSpec::vertex_oriented());
            depth += 1;
            f.for_each(|v, _| level[v as usize] = depth);
        }
        level
    }

    fn num_partitions(engine: &Baseline) -> usize {
        match &engine.forward {
            ForwardLayout::Whole => 1,
            ForwardLayout::Unpruned(up) => up.num_partitions(),
            ForwardLayout::Pruned(pcsr) => pcsr.num_partitions(),
        }
    }

    #[test]
    fn all_four_engines_agree_on_cc() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            8,
            1800,
            generators::RmatParams::skewed(),
            23,
        ));
        let gg1 = Baseline::graphgrind1(&el, 2, NumaTopology::new(2));
        let ligra = Baseline::ligra(&el, 2);
        let polymer = Baseline::polymer(&el, 2, NumaTopology::new(2));
        let gg2 = GraphGrind2::new(&el, Config::for_tests());

        let reference = run_cc(&gg2, Direction::Forward);
        assert_eq!(run_cc(&gg1, Direction::Forward), reference);
        assert_eq!(run_cc(&gg1, Direction::Backward), reference);
        assert_eq!(run_cc(&ligra, Direction::Backward), reference);
        assert_eq!(run_cc(&polymer, Direction::Forward), reference);
    }

    #[test]
    fn ligra_dense_forward_and_backward_reach_same_fixpoint() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            7,
            700,
            generators::RmatParams::skewed(),
            3,
        ));
        let run = |dir| run_cc(&Baseline::ligra(&el, 2), dir);
        assert_eq!(run(Direction::Forward), run(Direction::Backward));
    }

    #[test]
    fn polymer_bfs_levels_match_ligra() {
        let el = generators::rmat(8, 2500, generators::RmatParams::skewed(), 17);
        let polymer = Baseline::polymer(&el, 2, NumaTopology::new(2));
        let ligra = Baseline::ligra(&el, 2);
        assert_eq!(bfs_levels(&polymer, 0), bfs_levels(&ligra, 0));
    }

    #[test]
    fn sparse_path_taken_for_small_frontiers() {
        let el = generators::erdos_renyi(300, 3000, 4);
        let engine = Baseline::ligra(&el, 2);
        let op = MinLabel::new(300);
        // Single vertex: metric ~ its degree + 1 << 3000/20.
        let next = engine.edge_map(
            &engine.frontier_single(5),
            &op,
            EdgeMapSpec::edge_oriented(),
        );
        // Sparse output is a sparse representation.
        assert!(next.is_sparse_repr());
    }

    #[test]
    fn ligra_ranges_divide_vertices_evenly_without_overlap() {
        let ligra = |n: usize, threads| {
            let el = EdgeList::new(n);
            Baseline::ligra(&el, threads).vertex_ranges
        };
        let ranges = ligra(103, 1);
        assert_eq!(ranges.len(), 8);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 103);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Never more ranges than vertices.
        assert_eq!(ligra(2, 2).len(), 2);
        let r = ligra(0, 1);
        assert_eq!(r.iter().map(|r| r.len()).sum::<usize>(), 0);
    }

    #[test]
    fn unpruned_partitions_scan_more_vertices() {
        // Polymer's dense forward scans all n vertices per partition; the
        // counters expose the §II.F work increase.
        let el = generators::erdos_renyi(100, 4000, 5);
        let polymer = Baseline::polymer(&el, 2, NumaTopology::new(4));
        let op = Claim {
            parent: gg_runtime::atomics::atomic_u32_vec(100, u32::MAX),
        };
        let spec = EdgeMapSpec::vertex_oriented().with_direction(Direction::Forward);
        let _ = polymer.edge_map(&polymer.frontier_all(), &op, spec);
        // 4 partitions x 100 vertices scanned.
        assert_eq!(polymer.work_counters().vertices(), 400);
    }

    #[test]
    fn pruned_visits_fewer_vertices_than_unpruned() {
        // GG-v1's pruning advantage over Polymer, measurable via counters.
        let el = generators::rmat(9, 800, generators::RmatParams::skewed(), 3);
        let n = el.num_vertices();
        let gg1 = Baseline::graphgrind1(&el, 2, NumaTopology::new(4));
        let polymer = Baseline::polymer(&el, 2, NumaTopology::new(4));
        let spec = EdgeMapSpec::edge_oriented().with_direction(Direction::Forward);

        let op1 = MinLabel::new(n);
        let _ = gg1.edge_map(&gg1.frontier_all(), &op1, spec);
        let op2 = MinLabel::new(n);
        let _ = polymer.edge_map(&polymer.frontier_all(), &op2, spec);

        assert!(
            gg1.work_counters().vertices() < polymer.work_counters().vertices(),
            "pruned {} vs unpruned {}",
            gg1.work_counters().vertices(),
            polymer.work_counters().vertices()
        );
    }

    #[test]
    fn reports_identity() {
        let el = generators::erdos_renyi(10, 20, 1);
        let ligra = Baseline::ligra(&el, 2);
        assert_eq!(ligra.name(), "Ligra");
        assert_eq!(ligra.num_vertices(), 10);
        assert_eq!(ligra.num_edges(), 20);

        let paper = NumaTopology::paper_machine;
        let polymer = Baseline::polymer(&el, 2, paper());
        assert_eq!(polymer.name(), "Polymer");
        assert_eq!(num_partitions(&polymer), 4);

        let el = generators::erdos_renyi(10, 30, 2);
        let gg1 = Baseline::graphgrind1(&el, 2, paper());
        assert_eq!(gg1.name(), "GG-v1");
        assert_eq!(num_partitions(&gg1), 4);
    }
}
