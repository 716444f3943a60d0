//! The Polymer traversal policy (Zhang, Chen & Chen, PPoPP 2015).
//!
//! NUMA-aware Ligra derivative: the graph is partitioned by destination
//! into one partition per NUMA domain (4 on the paper's machine). Each
//! partition stores a **full-width** CSR — §II.E: "Polymer does not prune
//! zero-degree vertices from the representation", so its storage grows as
//! `p·|V|·be + |E|·bv` and every dense forward traversal scans all `n`
//! offsets per partition. Backward traversal uses destination ranges that
//! are edge-balanced (Polymer's static work division), which handles skew
//! better than Ligra's vertex-count chunks.
//!
//! Physical page placement is not modelled (see crate docs).

use gg_core::edge_map::{self, EdgeOp};
use gg_core::engine::{Direction, EdgeMapSpec, Engine};
use gg_core::frontier::Frontier;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, UnprunedPartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};
use gg_graph::types::VertexId;
use gg_runtime::counters::WorkCounters;
use gg_runtime::numa::NumaTopology;
use gg_runtime::pool::Pool;

use crate::common::EngineBase;

/// Ligra-compatible sparse threshold divisor.
const SPARSE_DIVISOR: u64 = 20;

/// The Polymer baseline engine.
#[derive(Debug)]
pub struct Polymer {
    base: EngineBase,
    /// Whole CSR for sparse traversal.
    csr: Csr,
    /// Whole CSC for backward traversal (destination ranges partition it).
    csc: Csc,
    /// Per-NUMA-domain unpruned CSR partitions for dense forward.
    pcsr: UnprunedPartitionedCsr,
    /// Edge-balanced destination ranges for backward traversal.
    dense_ranges: Vec<std::ops::Range<VertexId>>,
}

impl Polymer {
    /// Builds the engine: one partition per domain of `numa`.
    pub fn new(el: &EdgeList, threads: usize, numa: NumaTopology) -> Self {
        let base = EngineBase::new(el.out_degrees(), el.num_edges(), threads);
        let in_deg = el.in_degrees();
        let parts = PartitionSet::edge_balanced(&in_deg, numa.domains(), PartitionBy::Destination);
        let csr = Csr::from_edge_list(el);
        let csc = Csc::from_edge_list(el);
        let pcsr = UnprunedPartitionedCsr::new(el, &parts);
        // Backward work division: edge-balanced ranges, several per thread.
        let range_set = PartitionSet::edge_balanced(
            &in_deg,
            (threads * 4).max(numa.domains()),
            PartitionBy::Destination,
        );
        let dense_ranges = (0..range_set.num_partitions())
            .map(|p| range_set.range(p))
            .collect();
        Polymer {
            base,
            csr,
            csc,
            pcsr,
            dense_ranges,
        }
    }

    /// Builds with the paper's 4-domain topology.
    pub fn paper_default(el: &EdgeList, threads: usize) -> Self {
        Self::new(el, threads, NumaTopology::paper_machine())
    }

    /// The unpruned partitioned CSR (exposed for storage accounting).
    pub fn partitioned_csr(&self) -> &UnprunedPartitionedCsr {
        &self.pcsr
    }
}

impl Engine for Polymer {
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
        "Polymer"
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
            Direction::Forward => edge_map::dense_forward_unpruned_csr(
                &self.pcsr,
                &current,
                op,
                &self.base.pool,
                &self.base.counters,
            ),
            Direction::Backward => edge_map::medium_backward_csc(
                &self.csc,
                &current,
                op,
                &self.base.pool,
                &self.dense_ranges,
                &self.base.counters,
            ),
        };
        Frontier::from_dense(next.into_bitmap(), &self.base.out_degrees, &self.base.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_graph::generators;
    use std::sync::atomic::{AtomicU32, Ordering};

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
            for v in f.iter() {
                level[v as usize] = depth;
            }
        }
        level
    }

    #[test]
    fn bfs_levels_match_ligra() {
        let el = generators::rmat(8, 2500, generators::RmatParams::skewed(), 17);
        let polymer = Polymer::new(&el, 2, NumaTopology::new(2));
        let ligra = crate::ligra::Ligra::new(&el, 2);
        assert_eq!(bfs_levels(&polymer, 0), bfs_levels(&ligra, 0));
    }

    #[test]
    fn unpruned_partitions_scan_more_vertices() {
        // Polymer's dense forward scans all n vertices per partition; the
        // counters expose the §II.F work increase.
        let el = generators::erdos_renyi(100, 4000, 5);
        let polymer = Polymer::new(&el, 2, NumaTopology::new(4));
        let op = Claim {
            parent: gg_runtime::atomics::atomic_u32_vec(100, u32::MAX),
        };
        let spec = EdgeMapSpec::vertex_oriented().with_direction(Direction::Forward);
        let _ = polymer.edge_map(&polymer.frontier_all(), &op, spec);
        // 4 partitions x 100 vertices scanned.
        assert_eq!(polymer.work_counters().vertices(), 400);
    }

    #[test]
    fn reports_identity() {
        let el = generators::erdos_renyi(10, 20, 1);
        let engine = Polymer::paper_default(&el, 2);
        assert_eq!(engine.name(), "Polymer");
        assert_eq!(engine.partitioned_csr().num_partitions(), 4);
    }
}
