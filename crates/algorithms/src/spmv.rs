//! Sparse matrix-vector multiplication, one iteration (edge-oriented,
//! forward): `y[v] = Σ_{(u,v) ∈ E} w(u,v) · x[u]`, interpreting the graph
//! as its (transposed-indexed) adjacency matrix.

use gg_core::edge_map::{EdgeMapReduce, EdgeOp};
use gg_core::engine::Engine;
use gg_graph::types::VertexId;
use gg_runtime::atomics::{atomic_f64_vec, snapshot_f64, AtomicF64};

use crate::Algorithm;

struct SpmvOp<'a> {
    x: &'a [f64],
    y: &'a [AtomicF64],
}

impl EdgeOp for SpmvOp<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        self.y[dst as usize].add_exclusive(w as f64 * self.x[src as usize]);
        true
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        self.y[dst as usize].fetch_add(w as f64 * self.x[src as usize]);
        true
    }
}

/// The row dot-product is an associative sum over the frozen input
/// vector, so hub sub-chunks can pre-reduce locally.
impl EdgeMapReduce for SpmvOp<'_> {
    #[inline]
    fn identity(&self) -> f64 {
        0.0
    }

    #[inline]
    fn accumulate(&self, acc: f64, src: VertexId, w: f32) -> f64 {
        acc + w as f64 * self.x[src as usize]
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: f64) -> bool {
        self.y[dst as usize].add_exclusive(acc);
        true
    }
}

/// Computes `y = A^T x` (contributions flow along edge direction).
///
/// # Panics
/// Panics if `x.len() != engine.num_vertices()`.
pub fn spmv<E: Engine>(engine: &E, x: &[f64]) -> Vec<f64> {
    let n = engine.num_vertices();
    assert_eq!(x.len(), n, "input vector length mismatch");
    let y = atomic_f64_vec(n, 0.0);
    let op = SpmvOp { x, y: &y };
    let frontier = engine.frontier_all();
    let _ = engine.edge_map_reduce(&frontier, &op, Algorithm::Spmv.spec());
    snapshot_f64(&y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::validate::assert_close_f64;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;

    #[test]
    fn matches_reference_weighted() {
        let mut el = generators::erdos_renyi(100, 1200, 6);
        gg_graph::weights::attach_uniform(&mut el, 0.1, 2.0, 7);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let x: Vec<f64> = (0..100).map(|i| 1.0 / (i + 1) as f64).collect();
        let got = spmv(&engine, &x);
        assert_close_f64(&got, &reference::spmv(&el, &x), 1e-9, 1e-15);
    }

    #[test]
    fn unweighted_counts_in_neighbors() {
        let el = generators::complete(6);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = spmv(&engine, &[1.0; 6]);
        // Each vertex has 5 in-edges with weight 1.
        assert_eq!(got, vec![5.0; 6]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_length() {
        let el = generators::cycle(4);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let _ = spmv(&engine, &[1.0; 3]);
    }
}
