//! Simplified loopy belief propagation (edge-oriented, forward; 10
//! iterations as in Table II).
//!
//! **Substitution note (see DESIGN.md):** Polymer's BP benchmark keeps a
//! message per edge. This implementation uses a vertex-state formulation
//! with binary states in log-odds space: each round,
//!
//! ```text
//! b'[v] = phi[v] + λ · Σ_{(u,v) ∈ E} tanh(b[u])
//! ```
//!
//! where `phi` are prior logits and `λ` the coupling strength. The
//! traversal profile — 10 dense, forward, floating-point-heavy,
//! edge-oriented rounds — matches the paper's BP workload, which is what
//! the evaluation exercises; per-edge message storage would only change
//! constants.

use gg_core::edge_map::{EdgeMapReduce, EdgeOp};
use gg_core::engine::Engine;
use gg_graph::types::VertexId;
use gg_runtime::atomics::{atomic_f64_vec, snapshot_f64, AtomicF64};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Algorithm;

/// BP hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BpParams {
    /// Coupling strength λ (keep `|λ| · max_in_degree` modest for
    /// stability).
    pub lambda: f64,
    /// Number of rounds (Table II: 10).
    pub iterations: usize,
}

impl Default for BpParams {
    fn default() -> Self {
        BpParams {
            lambda: 0.05,
            iterations: 10,
        }
    }
}

/// Deterministic prior logits in `[-1, 1]`, as used by the benchmarks.
pub fn random_priors(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

struct BpOp<'a> {
    msg: &'a [AtomicF64],
    acc: &'a [AtomicF64],
}

impl EdgeOp for BpOp<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.acc[dst as usize].add_exclusive(self.msg[src as usize].load());
        true
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.acc[dst as usize].fetch_add(self.msg[src as usize].load());
        true
    }
}

/// The belief accumulation is an associative sum of frozen per-source
/// messages, so hub sub-chunks can pre-reduce locally.
impl EdgeMapReduce for BpOp<'_> {
    #[inline]
    fn identity(&self) -> f64 {
        0.0
    }

    #[inline]
    fn accumulate(&self, acc: f64, src: VertexId, _w: f32) -> f64 {
        acc + self.msg[src as usize].load()
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: f64) -> bool {
        self.acc[dst as usize].add_exclusive(acc);
        true
    }
}

/// Runs BP and returns the final belief logits.
///
/// # Panics
/// Panics if `priors.len() != engine.num_vertices()`.
pub fn bp<E: Engine>(engine: &E, priors: &[f64], params: BpParams) -> Vec<f64> {
    let n = engine.num_vertices();
    assert_eq!(priors.len(), n, "prior length mismatch");
    let belief = atomic_f64_vec(n, 0.0);
    let msg = atomic_f64_vec(n, 0.0);
    let acc = atomic_f64_vec(n, 0.0);
    engine.vertex_map_all(|v| {
        belief[v as usize].store(priors[v as usize]);
    });
    let spec = Algorithm::Bp.spec();

    for _ in 0..params.iterations {
        engine.vertex_map_all(|v| {
            msg[v as usize].store(params.lambda * belief[v as usize].load().tanh());
            acc[v as usize].store(priors[v as usize]);
        });
        let op = BpOp {
            msg: &msg,
            acc: &acc,
        };
        let frontier = engine.frontier_all();
        let _ = engine.edge_map_reduce(&frontier, &op, spec);
        engine.vertex_map_all(|v| {
            belief[v as usize].store(acc[v as usize].load());
        });
    }
    snapshot_f64(&belief)
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
    fn matches_reference() {
        let el = generators::rmat(8, 2000, generators::RmatParams::mild(), 44);
        let priors = random_priors(el.num_vertices(), 1);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bp(&engine, &priors, BpParams::default());
        let want = reference::bp(&el, &priors, 0.05, 10);
        assert_close_f64(&got, &want, 1e-9, 1e-12);
    }

    #[test]
    fn no_edges_keeps_priors() {
        let el = gg_graph::edge_list::EdgeList::new(5);
        let priors = vec![0.3, -0.7, 0.0, 1.0, -1.0];
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bp(&engine, &priors, BpParams::default());
        assert_eq!(got, priors);
    }

    #[test]
    fn positive_coupling_pulls_neighbors_together() {
        // Two vertices with opposite weak priors, strongly coupled both
        // ways: beliefs move toward each other relative to priors alone.
        let el = gg_graph::edge_list::EdgeList::from_edges(2, &[(0, 1), (1, 0)]);
        let priors = vec![0.8, -0.2];
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bp(
            &engine,
            &priors,
            BpParams {
                lambda: 0.4,
                iterations: 20,
            },
        );
        // Vertex 1 is dragged upward by its positive neighbour.
        assert!(got[1] > -0.2, "{got:?}");
    }
}
