//! The Ligra traversal policy (Shun & Blelloch, PPoPP 2013).
//!
//! * One unpartitioned CSR + one unpartitioned CSC (2 graph copies).
//! * Two-way frontier classification at `|F| + Σ deg_out(F) > |E| / 20`.
//! * Dense traversal direction is the **programmer's declaration**
//!   (Table II's "edge traversal" column) — forward pushes over CSR with
//!   atomics, backward pulls over CSC without atomics.
//! * Dense work division: even *vertex-count* chunks; on skewed graphs
//!   this is the load imbalance §IV.A identifies.

use gg_core::edge_map::{self, EdgeOp};
use gg_core::engine::{Direction, EdgeMapSpec, Engine};
use gg_core::frontier::Frontier;
use gg_graph::csc::Csc;
use gg_graph::csr::Csr;
use gg_graph::edge_list::EdgeList;
use gg_graph::types::VertexId;
use gg_runtime::counters::WorkCounters;
use gg_runtime::pool::Pool;

use crate::common::{even_vertex_ranges, EngineBase};

/// Ligra's sparse threshold divisor (`|E| / 20`).
const SPARSE_DIVISOR: u64 = 20;

/// The Ligra baseline engine.
#[derive(Debug)]
pub struct Ligra {
    base: EngineBase,
    csr: Csr,
    csc: Csc,
    dense_ranges: Vec<std::ops::Range<VertexId>>,
}

impl Ligra {
    /// Builds the engine with `threads` workers.
    pub fn new(el: &EdgeList, threads: usize) -> Self {
        let base = EngineBase::new(el.out_degrees(), el.num_edges(), threads);
        let csr = Csr::from_edge_list(el);
        let csc = Csc::from_edge_list(el);
        let dense_ranges = even_vertex_ranges(el.num_vertices(), threads * 8);
        Ligra {
            base,
            csr,
            csc,
            dense_ranges,
        }
    }

    /// The underlying CSR (exposed for storage accounting).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The underlying CSC.
    pub fn csc(&self) -> &Csc {
        &self.csc
    }
}

impl Engine for Ligra {
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
        "Ligra"
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
            Direction::Forward => edge_map::dense_forward_csr(
                &self.csr,
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

    struct MinLabel {
        labels: Vec<AtomicU32>,
    }

    impl MinLabel {
        fn new(n: usize) -> Self {
            MinLabel {
                labels: (0..n as u32).map(AtomicU32::new).collect(),
            }
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

    #[test]
    fn dense_forward_and_backward_reach_same_fixpoint() {
        let el = gg_graph::ops::symmetrize(&generators::rmat(
            7,
            700,
            generators::RmatParams::skewed(),
            3,
        ));
        let run = |dir: Direction| {
            let engine = Ligra::new(&el, 2);
            let op = MinLabel::new(engine.num_vertices());
            let mut f = engine.frontier_all();
            let spec = EdgeMapSpec::edge_oriented().with_direction(dir);
            while !f.is_empty() {
                f = engine.edge_map(&f, &op, spec);
            }
            op.labels
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Direction::Forward), run(Direction::Backward));
    }

    #[test]
    fn sparse_path_taken_for_small_frontiers() {
        let el = generators::erdos_renyi(300, 3000, 4);
        let engine = Ligra::new(&el, 2);
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
    fn reports_identity() {
        let el = generators::erdos_renyi(10, 20, 1);
        let engine = Ligra::new(&el, 2);
        assert_eq!(engine.name(), "Ligra");
        assert_eq!(engine.num_vertices(), 10);
        assert_eq!(engine.num_edges(), 20);
    }
}
