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

    /// The weighted dense floor over the engine's own CSC: per
    /// destination, one [`REDUCE_QUANTUM`]-slot fold of `w · x[u]` per run
    /// of its in-edges, each added to `y[v]` in scan order.
    ///
    /// [`REDUCE_QUANTUM`]: gg_core::edge_map::REDUCE_QUANTUM
    fn bare_spmv(csc: &gg_graph::csc::Csc, x: &[f64]) -> Vec<f64> {
        use gg_core::edge_map::REDUCE_QUANTUM;
        let weights = csc.weights().expect("a weighted graph");
        let mut y = vec![0.0; csc.num_vertices()];
        for (v, y) in y.iter_mut().enumerate() {
            let slots = csc.edge_range(v as VertexId);
            for lo in slots.clone().step_by(REDUCE_QUANTUM) {
                let hi = (lo + REDUCE_QUANTUM).min(slots.end);
                let mut q = 0.0;
                for e in lo..hi {
                    q += weights[e] as f64 * x[csc.sources()[e] as usize];
                }
                *y += q;
            }
        }
        y
    }

    /// The weighted twin of PageRank's bare-loop pin: SpMV on an
    /// integer-weighted R-MAT is the bare weighted quantum loop bit for
    /// bit, at the same (P, T, cap) points, fixed caps splitting the top
    /// hub. The graph holds destinations of in-degree 0, exactly one
    /// quantum and one quantum plus one, so the hoisted weights are read
    /// at every quantum boundary a scan can have.
    #[test]
    fn partitioned_spmv_is_the_bare_weighted_quantum_loop() {
        use gg_core::config::{ChunkCap, ExecutorKind};
        use gg_core::edge_map::REDUCE_QUANTUM;
        let mut el = generators::rmat(11, 24_000, generators::RmatParams::skewed(), 5);
        let n = el.num_vertices();
        let in_degrees = el.in_degrees();
        // Fill the two lightest destinations up to one quantum and one
        // quantum plus one in-edge.
        let mut light: Vec<usize> = (0..n).filter(|&v| in_degrees[v] > 0).collect();
        light.sort_by_key(|&v| (in_degrees[v], v));
        for (&v, want) in light.iter().zip([REDUCE_QUANTUM, REDUCE_QUANTUM + 1]) {
            for k in in_degrees[v] as usize..want {
                el.push(((k * 37 + v) % n) as VertexId, v as VertexId);
            }
        }
        gg_graph::weights::attach_integer(&mut el, 16, 9);
        let in_degrees = el.in_degrees();
        for want in [0, REDUCE_QUANTUM, REDUCE_QUANTUM + 1] {
            let has = in_degrees.iter().any(|&d| d as usize == want);
            assert!(has, "no destination of in-degree {want}");
        }
        let top_hub = *in_degrees.iter().max().unwrap() as usize;
        let x: Vec<f64> = (0..n).map(|u| 1.0 / (u + 3) as f64).collect();
        let points = [
            (1, 1, ChunkCap::Auto),
            (16, 2, ChunkCap::Auto),
            (7, 2, ChunkCap::Fixed(16)),
            (16, 1, ChunkCap::Fixed(100)),
            (384, 2, ChunkCap::Fixed(64)),
        ];
        for (parts, threads, cap) in points {
            let engine = GraphGrind2::new(
                &el,
                Config {
                    threads,
                    num_partitions: parts,
                    domains: 1,
                    executor: ExecutorKind::Partitioned,
                    chunk_edges: cap,
                    ..Config::for_tests()
                },
            );
            let got = spmv(&engine, &x);
            let want = bare_spmv(engine.store().csc(), &x);
            let at = format!("P={parts} T={threads} {cap:?}");
            for (v, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{at}: y[{v}] {g} vs {w}");
            }
            if let ChunkCap::Fixed(c) = cap {
                assert!(c < top_hub, "{at}: the cap must split the top hub");
                let split = engine.work_counters().hub_subchunks();
                assert!(split > 0, "{at}: no hub split");
            }
        }
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
