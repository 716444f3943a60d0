//! The GraphGrind-v1 traversal policy (Sun, Vandierendonck & Nikolopoulos,
//! ICS 2017 — "GraphGrind: Addressing Load Imbalance of Graph
//! Partitioning").
//!
//! The authors' previous system and the direct ancestor of GraphGrind-v2:
//! 4 partitions (one per NUMA domain) of **pruned** partitioned CSR (the
//! §II.E layout with explicit vertex ids), a whole-graph CSC whose
//! computation ranges are balanced per the algorithm's vertex- or
//! edge-orientation (the v1 contribution), but still:
//!
//! * a two-way sparse/dense classification (no medium class),
//! * a programmer-declared dense direction,
//! * no COO layout, so partitioning cannot scale beyond a few partitions.

use gg_core::edge_map::{self, EdgeOp};
use gg_core::engine::{Direction, EdgeMapSpec, Engine, Orientation};
use gg_core::frontier::Frontier;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};
use gg_graph::types::VertexId;
use gg_runtime::counters::WorkCounters;
use gg_runtime::numa::NumaTopology;
use gg_runtime::pool::Pool;

use crate::common::EngineBase;

/// Ligra-compatible sparse threshold divisor.
const SPARSE_DIVISOR: u64 = 20;

/// The GraphGrind-v1 baseline engine.
#[derive(Debug)]
pub struct GraphGrind1 {
    base: EngineBase,
    csr: Csr,
    csc: Csc,
    /// Pruned per-domain CSR partitions for dense forward traversal.
    pcsr: PartitionedCsr,
    /// Edge-balanced destination ranges (edge-oriented algorithms).
    edge_ranges: Vec<std::ops::Range<VertexId>>,
    /// Vertex-balanced destination ranges (vertex-oriented algorithms).
    vertex_ranges: Vec<std::ops::Range<VertexId>>,
}

impl GraphGrind1 {
    /// Builds the engine: one CSR partition per domain of `numa`, and
    /// per-thread balanced CSC ranges.
    pub fn new(el: &EdgeList, threads: usize, numa: NumaTopology) -> Self {
        let base = EngineBase::new(el.out_degrees(), el.num_edges(), threads);
        let n = el.num_vertices();
        let in_deg = el.in_degrees();
        let parts = PartitionSet::edge_balanced(&in_deg, numa.domains(), PartitionBy::Destination);
        let csr = Csr::from_edge_list(el);
        let csc = Csc::from_edge_list(el);
        let pcsr = PartitionedCsr::new(el, &parts);
        let chunks = (threads * 4).max(numa.domains());
        let e_set = PartitionSet::edge_balanced(&in_deg, chunks, PartitionBy::Destination);
        let v_set = PartitionSet::vertex_balanced(n, chunks, PartitionBy::Destination);
        GraphGrind1 {
            base,
            csr,
            csc,
            pcsr,
            edge_ranges: (0..e_set.num_partitions())
                .map(|p| e_set.range(p))
                .collect(),
            vertex_ranges: (0..v_set.num_partitions())
                .map(|p| v_set.range(p))
                .collect(),
        }
    }

    /// Builds with the paper's 4-domain topology.
    pub fn paper_default(el: &EdgeList, threads: usize) -> Self {
        Self::new(el, threads, NumaTopology::paper_machine())
    }

    /// The pruned partitioned CSR (exposed for storage accounting).
    pub fn partitioned_csr(&self) -> &PartitionedCsr {
        &self.pcsr
    }
}

impl Engine for GraphGrind1 {
    fn num_vertices(&self) -> usize {
        self.base.n
    }

    fn num_edges(&self) -> usize {
        self.base.m
    }

    fn out_degrees(&self) -> &[u32] {
        &self.base.out_degrees
    }

    fn pool(&self) -> &Pool {
        &self.base.pool
    }

    fn work_counters(&self) -> &WorkCounters {
        &self.base.counters
    }

    fn name(&self) -> &'static str {
        "GG-v1"
    }

    fn edge_map<O: EdgeOp>(&self, frontier: &Frontier, op: &O, spec: EdgeMapSpec) -> Frontier {
        if frontier.is_empty() {
            return Frontier::empty(self.base.n);
        }
        let sparse = frontier.density_metric() <= self.base.m as u64 / SPARSE_DIVISOR;
        if sparse {
            let active = frontier.to_vertex_list();
            let out = edge_map::sparse_forward_csr(
                &self.csr,
                &active,
                op,
                &self.base.pool,
                &self.base.scratch,
                &self.base.counters,
            );
            return Frontier::from_sparse(out, self.base.n, &self.base.out_degrees);
        }
        let current = frontier.to_bitmap();
        let next = match spec.preferred {
            Direction::Forward => edge_map::dense_forward_partitioned_csr(
                &self.pcsr,
                &current,
                op,
                &self.base.pool,
                &self.base.counters,
            ),
            Direction::Backward => {
                let ranges = match spec.orientation {
                    Orientation::Edge => &self.edge_ranges,
                    Orientation::Vertex => &self.vertex_ranges,
                };
                edge_map::medium_backward_csc(
                    &self.csc,
                    &current,
                    op,
                    &self.base.pool,
                    ranges,
                    &self.base.counters,
                )
            }
        };
        Frontier::from_dense(next.into_bitmap(), &self.base.out_degrees, &self.base.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;
    use std::sync::atomic::{AtomicU32, Ordering};

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

    fn run_cc<E: Engine>(engine: &E, dir: Direction) -> Vec<u32> {
        let op = MinLabel::new(engine.num_vertices());
        let mut f = engine.frontier_all();
        let spec = EdgeMapSpec::edge_oriented().with_direction(dir);
        while !f.is_empty() {
            f = engine.edge_map(&f, &op, spec);
        }
        op.snapshot()
    }

    #[test]
    fn all_four_engines_agree_on_cc() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            8,
            1800,
            generators::RmatParams::skewed(),
            23,
        ));
        let gg1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let ligra = crate::ligra::Ligra::new(&el, 2);
        let polymer = crate::polymer::Polymer::new(&el, 2, NumaTopology::new(2));
        let gg2 = GraphGrind2::new(&el, Config::for_tests());

        let reference = run_cc(&gg2, Direction::Forward);
        assert_eq!(run_cc(&gg1, Direction::Forward), reference);
        assert_eq!(run_cc(&gg1, Direction::Backward), reference);
        assert_eq!(run_cc(&ligra, Direction::Backward), reference);
        assert_eq!(run_cc(&polymer, Direction::Forward), reference);
    }

    #[test]
    fn pruned_visits_fewer_vertices_than_unpruned() {
        // GG-v1's pruning advantage over Polymer, measurable via counters.
        let el = generators::rmat(9, 800, generators::RmatParams::skewed(), 3);
        let n = el.num_vertices();
        let gg1 = GraphGrind1::new(&el, 2, NumaTopology::new(4));
        let polymer = crate::polymer::Polymer::new(&el, 2, NumaTopology::new(4));
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
        let el = generators::erdos_renyi(10, 30, 2);
        let engine = GraphGrind1::paper_default(&el, 2);
        assert_eq!(engine.name(), "GG-v1");
        assert_eq!(engine.partitioned_csr().num_partitions(), 4);
    }
}
