//! Bellman-Ford single-source shortest paths (vertex-oriented, forward).
//!
//! Frontier-driven relaxation: a vertex joins the next frontier when its
//! distance decreased this round. Non-negative weights assumed (the
//! evaluation's road networks and random weights satisfy this; negative
//! cycles would require the classic |V|-round cutoff, which is also
//! enforced as a safety net).

use gg_core::edge_map::{EdgeMapReduce, EdgeOp};
use gg_core::engine::Engine;
use gg_graph::types::VertexId;
use gg_runtime::atomics::{atomic_f32_vec, snapshot_f32, AtomicF32};

use crate::Algorithm;

/// Bellman-Ford output.
#[derive(Clone, Debug, PartialEq)]
pub struct BfResult {
    /// Distance from the source (`f32::INFINITY` = unreachable).
    pub dist: Vec<f32>,
    /// Edge-map rounds executed.
    pub rounds: usize,
}

/// One relaxation round. Source distances are read from `prev`, a
/// snapshot frozen at round start. The earlier implementation read
/// `dist` live — despite documenting the sources as "frozen for the
/// round" — so a relaxation could ride an in-round update and cascade
/// several hops wherever the schedule ran the producing edge first; the
/// record/replay harness flagged the round trajectory as
/// thread-count-dependent. With frozen sources the round is a
/// commutative `min` over candidates, bit-identical under every
/// schedule.
struct RelaxRound<'a> {
    prev: &'a [f32],
    dist: &'a [AtomicF32],
}

impl EdgeOp for RelaxRound<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        let cand = self.prev[src as usize] + w;
        self.dist[dst as usize].min_exclusive(cand)
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        let cand = self.prev[src as usize] + w;
        self.dist[dst as usize].fetch_min(cand)
    }
}

/// Relaxation is an associative `min` over candidate distances (source
/// distances are frozen for the round), so hub sub-chunks can pre-reduce
/// locally. The f32 candidate widens to f64 exactly, so folding loses no
/// precision.
impl EdgeMapReduce for RelaxRound<'_> {
    #[inline]
    fn identity(&self) -> f64 {
        f64::INFINITY
    }

    #[inline]
    fn accumulate(&self, acc: f64, src: VertexId, w: f32) -> f64 {
        acc.min((self.prev[src as usize] + w) as f64)
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: f64) -> bool {
        self.dist[dst as usize].min_exclusive(acc as f32)
    }
}

/// Runs Bellman-Ford from `source`.
pub fn bellman_ford<E: Engine>(engine: &E, source: VertexId) -> BfResult {
    let n = engine.num_vertices();
    let dist = atomic_f32_vec(n, f32::INFINITY);
    dist[source as usize].store(0.0);
    let mut frontier = engine.frontier_single(source);
    let mut rounds = 0usize;
    let spec = Algorithm::Bf.spec();
    // Safety cutoff: n rounds suffice for non-negative weights.
    while !frontier.is_empty() && rounds <= n {
        let prev = snapshot_f32(&dist);
        let op = RelaxRound {
            prev: &prev,
            dist: &dist,
        };
        frontier = engine.edge_map_reduce(&frontier, &op, spec);
        rounds += 1;
    }
    BfResult {
        dist: snapshot_f32(&dist),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::validate::assert_close_f32;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let mut el = generators::erdos_renyi(200, 2400, 12);
        gg_graph::weights::attach_integer(&mut el, 10, 5);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bellman_ford(&engine, 0);
        assert_close_f32(&got.dist, &reference::dijkstra(&el, 0), 1e-5, 1e-5);
    }

    #[test]
    fn matches_dijkstra_on_road_grid() {
        let mut el = generators::grid_road(12, 12, 0.1, 3);
        gg_graph::weights::attach_uniform(&mut el, 0.5, 2.0, 9);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bellman_ford(&engine, 0);
        assert_close_f32(&got.dist, &reference::dijkstra(&el, 0), 1e-5, 1e-5);
    }

    #[test]
    fn unweighted_distances_equal_bfs_levels() {
        let el = generators::binary_tree(31);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bellman_ford(&engine, 0);
        let levels = reference::bfs_levels(&el, 0);
        for (v, &lvl) in levels.iter().enumerate() {
            if lvl == u32::MAX {
                assert!(got.dist[v].is_infinite());
            } else {
                assert_eq!(got.dist[v], lvl as f32);
            }
        }
    }

    #[test]
    fn unreachable_stays_infinite() {
        let el = gg_graph::edge_list::EdgeList::from_edges(4, &[(0, 1), (2, 3)]);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let got = bellman_ford(&engine, 0);
        assert_eq!(got.dist[1], 1.0);
        assert!(got.dist[2].is_infinite());
        assert!(got.dist[3].is_infinite());
    }
}
