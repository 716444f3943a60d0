//! PageRank by the power method (edge-oriented; baselines prefer backward
//! dense traversal). 10 iterations by default, matching Table II.
//!
//! Every iteration is a dense edge map: contributions
//! `rank[u] / deg_out(u)` flow along out-edges into an accumulator; a
//! vertex map then applies damping. The frontier is always all-active, so
//! on GraphGrind-v2's partitioned executor every iteration is a dense pull
//! of the CSC on all-active lanes (no per-edge frontier probe), folded in
//! `REDUCE_QUANTUM`-edge runs; `Config::default()` instead streams the
//! Hilbert-ordered COO, the configuration Figure 5c and Figure 8 study.

use gg_core::edge_map::{EdgeMapReduce, EdgeOp};
use gg_core::engine::Engine;
use gg_graph::types::VertexId;
use gg_runtime::atomics::{atomic_f64_vec, snapshot_f64, AtomicF64};

use crate::Algorithm;

/// Damping factor used throughout (the paper's algorithms inherit Ligra's
/// 0.85).
pub const DAMPING: f64 = 0.85;

struct PrOp<'a> {
    contrib: &'a [AtomicF64],
    acc: &'a [AtomicF64],
}

impl EdgeOp for PrOp<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.acc[dst as usize].add_exclusive(self.contrib[src as usize].load());
        true
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.acc[dst as usize].fetch_add(self.contrib[src as usize].load());
        true
    }
}

/// The rank accumulation is an associative sum of frozen per-source
/// contributions, so hub sub-chunks can pre-reduce locally.
impl EdgeMapReduce for PrOp<'_> {
    #[inline]
    fn identity(&self) -> f64 {
        0.0
    }

    #[inline]
    fn accumulate(&self, acc: f64, src: VertexId, _w: f32) -> f64 {
        acc + self.contrib[src as usize].load()
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: f64) -> bool {
        self.acc[dst as usize].add_exclusive(acc);
        true
    }
}

/// Runs `iters` power-method iterations; returns the rank vector.
pub fn pagerank<E: Engine>(engine: &E, iters: usize) -> Vec<f64> {
    let n = engine.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let rank = atomic_f64_vec(n, 1.0 / n as f64);
    let contrib = atomic_f64_vec(n, 0.0);
    let acc = atomic_f64_vec(n, 0.0);
    let degrees = engine.out_degrees();
    let spec = Algorithm::Pr.spec();

    for _ in 0..iters {
        engine.vertex_map_all(|v| {
            let d = degrees[v as usize].max(1) as f64;
            contrib[v as usize].store(rank[v as usize].load() / d);
            acc[v as usize].store(0.0);
        });
        let op = PrOp {
            contrib: &contrib,
            acc: &acc,
        };
        let frontier = engine.frontier_all();
        let _ = engine.edge_map_reduce(&frontier, &op, spec);
        engine.vertex_map_all(|v| {
            rank[v as usize].store(0.15 / n as f64 + DAMPING * acc[v as usize].load());
        });
    }
    snapshot_f64(&rank)
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
    fn matches_reference_on_cycle() {
        let el = generators::cycle(16);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = pagerank(&engine, 10);
        assert_close_f64(&got, &reference::pagerank(&el, 10), 1e-9, 1e-15);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let el = generators::rmat(9, 6000, generators::RmatParams::skewed(), 31);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = pagerank(&engine, 10);
        assert_close_f64(&got, &reference::pagerank(&el, 10), 1e-9, 1e-15);
    }

    #[test]
    fn star_center_ranks_highest() {
        let el = generators::star(50);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let r = pagerank(&engine, 10);
        let max = r.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(r[0], max);
        assert!(r[0] > 10.0 * r[1]);
    }

    /// The dense floor, written out over the engine's own CSC: the
    /// contribution pass, one [`REDUCE_QUANTUM`]-slot fold per run of each
    /// destination's in-edges added to its accumulator in scan order, and
    /// the rank pass.
    ///
    /// [`REDUCE_QUANTUM`]: gg_core::edge_map::REDUCE_QUANTUM
    fn bare_pagerank(csc: &gg_graph::csc::Csc, degrees: &[u32], iters: usize) -> Vec<f64> {
        use gg_core::edge_map::REDUCE_QUANTUM;
        let n = csc.num_vertices();
        let mut rank = vec![1.0 / n as f64; n];
        let mut contrib = vec![0.0; n];
        for _ in 0..iters {
            for v in 0..n {
                contrib[v] = rank[v] / degrees[v].max(1) as f64;
            }
            for (v, r) in rank.iter_mut().enumerate() {
                let mut acc = 0.0;
                for quantum in csc.in_neighbors(v as VertexId).chunks(REDUCE_QUANTUM) {
                    let mut q = 0.0;
                    for &u in quantum {
                        q += contrib[u as usize];
                    }
                    acc += q;
                }
                *r = 0.15 / n as f64 + DAMPING * acc;
            }
        }
        rank
    }

    /// PageRank on the partitioned engine is the bare quantum-folded CSC
    /// loop bit for bit, at partition counts from one to many, one and two
    /// threads, the adaptive cap and fixed caps below the top hub's
    /// in-degree — so split hubs and the all-active lanes both fold
    /// exactly as the floor does.
    #[test]
    fn partitioned_pagerank_is_the_bare_quantum_loop() {
        use gg_core::config::{ChunkCap, ExecutorKind};
        let el = generators::rmat(11, 24_000, generators::RmatParams::skewed(), 5);
        let top_hub = *el.in_degrees().iter().max().unwrap() as usize;
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
            let got = pagerank(&engine, 10);
            let want = bare_pagerank(engine.store().csc(), engine.out_degrees(), 10);
            let at = format!("P={parts} T={threads} {cap:?}");
            for (v, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{at}: rank[{v}] {g} vs {w}");
            }
            if let ChunkCap::Fixed(c) = cap {
                assert!(c < top_hub, "{at}: the cap must split the top hub");
                let split = engine.work_counters().hub_subchunks();
                assert!(split > 0, "{at}: no hub split");
            }
        }
    }

    #[test]
    fn zero_iterations_returns_uniform() {
        let el = generators::cycle(4);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        assert_eq!(pagerank(&engine, 0), vec![0.25; 4]);
    }
}
