//! k-core decomposition by parallel peeling (extension beyond the paper's
//! eight algorithms; part of the Ligra benchmark suite the compared
//! systems ship).
//!
//! Vertices are peeled in rounds of increasing `k`: whenever a vertex's
//! remaining degree drops below `k` it is removed and its neighbours'
//! degrees decrement — an edge map whose *activation* condition is a
//! threshold crossing, exercising a different update pattern
//! (`fetch_sub`-style) than the other algorithms.
//!
//! Expects a symmetric graph (like CC); the coreness of a vertex is the
//! largest `k` such that it belongs to a subgraph of minimum degree `k`.

use std::sync::atomic::{AtomicU32, Ordering};

use gg_core::edge_map::EdgeOp;
use gg_core::engine::{EdgeMapSpec, Engine};
use gg_core::vertex_map::frontier_from_predicate;
use gg_graph::bitmap::AtomicBitmap;
use gg_graph::types::VertexId;

/// k-core output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KcoreResult {
    /// Coreness per vertex.
    pub coreness: Vec<u32>,
    /// Maximum coreness (the degeneracy of the graph).
    pub degeneracy: u32,
}

struct PeelOp<'a> {
    /// Remaining degree; decremented as neighbours are peeled.
    degree: &'a [AtomicU32],
    /// Vertices already peeled.
    dead: &'a AtomicBitmap,
    /// Current peeling threshold.
    k: u32,
}

impl EdgeOp for PeelOp<'_> {
    #[inline]
    fn update(&self, _src: VertexId, dst: VertexId, _w: f32) -> bool {
        if self.dead.get(dst as usize) {
            return false;
        }
        let old = self.degree[dst as usize].load(Ordering::Relaxed);
        self.degree[dst as usize].store(old.saturating_sub(1), Ordering::Relaxed);
        // Activate exactly when the degree crosses below k.
        old == self.k
    }

    #[inline]
    fn update_atomic(&self, _src: VertexId, dst: VertexId, _w: f32) -> bool {
        if self.dead.get(dst as usize) {
            return false;
        }
        let old = self.degree[dst as usize].fetch_sub(1, Ordering::Relaxed);
        debug_assert!(old > 0, "degree underflow");
        old == self.k
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        !self.dead.get(dst as usize)
    }
}

/// Computes the k-core decomposition of a symmetric graph.
pub fn kcore<E: Engine>(engine: &E) -> KcoreResult {
    let n = engine.num_vertices();
    let degree: Vec<AtomicU32> = engine
        .out_degrees()
        .iter()
        .map(|&d| AtomicU32::new(d))
        .collect();
    let dead = AtomicBitmap::new(n);
    let mut coreness = vec![0u32; n];
    let mut alive = n;
    let mut k = 1u32;
    let spec = EdgeMapSpec::vertex_oriented();

    while alive > 0 {
        // Collect the initial peel set for this k: alive vertices whose
        // remaining degree is below k.
        let mut frontier = frontier_from_predicate(n, engine.pool(), engine.out_degrees(), |v| {
            !dead.get(v as usize) && degree[v as usize].load(Ordering::Relaxed) < k
        });
        while !frontier.is_empty() {
            frontier.for_each(|v, _| {
                coreness[v as usize] = k - 1;
                dead.set(v as usize);
                alive -= 1;
            });
            let op = PeelOp {
                degree: &degree,
                dead: &dead,
                k,
            };
            frontier = engine.edge_map(&frontier, &op, spec);
        }
        k += 1;
    }
    let degeneracy = coreness.iter().copied().max().unwrap_or(0);
    KcoreResult {
        coreness,
        degeneracy,
    }
}

/// Sequential reference: repeated minimum-degree peeling.
pub fn kcore_reference(el: &gg_graph::edge_list::EdgeList) -> Vec<u32> {
    let csr = gg_graph::csr::Csr::from_edge_list(el);
    let n = el.num_vertices();
    let mut degree: Vec<i64> = el.out_degrees().iter().map(|&d| d as i64).collect();
    let mut dead = vec![false; n];
    let mut coreness = vec![0u32; n];
    let mut alive = n;
    let mut k = 1i64;
    while alive > 0 {
        loop {
            let peel: Vec<u32> = (0..n as u32)
                .filter(|&v| !dead[v as usize] && degree[v as usize] < k)
                .collect();
            if peel.is_empty() {
                break;
            }
            for &v in &peel {
                dead[v as usize] = true;
                coreness[v as usize] = (k - 1) as u32;
                alive -= 1;
            }
            for &v in &peel {
                for &u in csr.neighbors(v) {
                    degree[u as usize] -= 1;
                }
            }
        }
        k += 1;
    }
    coreness
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;
    use gg_graph::ops::symmetrize;

    #[test]
    fn complete_graph_core() {
        // K6: every vertex has coreness 5.
        let el = generators::complete(6);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = kcore(&engine);
        assert_eq!(got.coreness, vec![5; 6]);
        assert_eq!(got.degeneracy, 5);
    }

    #[test]
    fn cycle_is_2_core() {
        let el = symmetrize(&generators::cycle(10));
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = kcore(&engine);
        assert_eq!(got.coreness, vec![2; 10]);
    }

    #[test]
    fn star_leaves_are_1_core() {
        let el = generators::star(8);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = kcore(&engine);
        assert_eq!(got.coreness, vec![1; 8]);
        assert_eq!(got.degeneracy, 1);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in [7u64, 8, 9] {
            let el = symmetrize(&generators::erdos_renyi(120, 800, seed));
            let engine = GraphGrind2::new(&el, Config::for_tests());
            let got = kcore(&engine);
            assert_eq!(got.coreness, kcore_reference(&el), "seed {seed}");
        }
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let el = gg_graph::edge_list::EdgeList::from_edges(4, &[(0, 1), (1, 0)]);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = kcore(&engine);
        assert_eq!(got.coreness, vec![1, 1, 0, 0]);
    }
}
