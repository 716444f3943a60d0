//! Breadth-first search (vertex-oriented; baselines prefer backward dense
//! traversal — the direction-optimizing BFS of Beamer et al.).

use std::sync::atomic::{AtomicU32, Ordering};

use gg_core::edge_map::EdgeOp;
use gg_core::engine::Engine;
use gg_graph::types::{VertexId, INVALID_VERTEX};

use crate::Algorithm;

/// BFS output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// BFS tree parent per vertex (`INVALID_VERTEX` = unreached; the
    /// source is its own parent).
    pub parent: Vec<VertexId>,
    /// BFS level per vertex (`u32::MAX` = unreached).
    pub level: Vec<u32>,
    /// Number of edge-map rounds executed.
    pub rounds: usize,
}

struct BfsOp {
    parent: Vec<AtomicU32>,
}

impl EdgeOp for BfsOp {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        // Exclusive path: no concurrent writer for dst.
        if self.parent[dst as usize].load(Ordering::Relaxed) == INVALID_VERTEX {
            self.parent[dst as usize].store(src, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.parent[dst as usize]
            .compare_exchange(INVALID_VERTEX, src, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        self.parent[dst as usize].load(Ordering::Relaxed) == INVALID_VERTEX
    }
}

/// Runs BFS from `source` on any engine.
pub fn bfs<E: Engine>(engine: &E, source: VertexId) -> BfsResult {
    let n = engine.num_vertices();
    let op = BfsOp {
        parent: gg_runtime::atomics::atomic_u32_vec(n, INVALID_VERTEX),
    };
    op.parent[source as usize].store(source, Ordering::Relaxed);

    let mut level = vec![u32::MAX; n];
    level[source as usize] = 0;
    let mut frontier = engine.frontier_single(source);
    let mut depth = 0u32;
    let mut rounds = 0usize;
    let spec = Algorithm::Bfs.spec();
    while !frontier.is_empty() {
        frontier = engine.edge_map(&frontier, &op, spec);
        depth += 1;
        rounds += 1;
        frontier.for_each(|v, _| level[v as usize] = depth);
    }
    BfsResult {
        parent: gg_runtime::atomics::snapshot_u32(&op.parent),
        level,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;

    fn check_against_reference(el: &gg_graph::edge_list::EdgeList, src: u32) {
        let engine = GraphGrind2::new(el, Config::for_tests());
        let got = bfs(&engine, src);
        let want = reference::bfs_levels(el, src);
        assert_eq!(got.level, want);
        // Parent consistency: parent is one level above, and reached <=>
        // parent set.
        for v in 0..el.num_vertices() {
            if got.level[v] == u32::MAX {
                assert_eq!(got.parent[v], INVALID_VERTEX);
            } else if v as u32 != src {
                let p = got.parent[v] as usize;
                assert_eq!(got.level[p] + 1, got.level[v], "vertex {v}");
            }
        }
    }

    #[test]
    fn bfs_on_path_and_tree() {
        check_against_reference(&generators::path(40), 0);
        check_against_reference(&generators::binary_tree(63), 0);
    }

    #[test]
    fn bfs_on_rmat() {
        check_against_reference(
            &generators::rmat(9, 4000, generators::RmatParams::skewed(), 8),
            0,
        );
    }

    #[test]
    fn bfs_on_disconnected() {
        let el = gg_graph::edge_list::EdgeList::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        check_against_reference(&el, 0);
    }

    #[test]
    fn bfs_rounds_equal_eccentricity() {
        let el = generators::path(10);
        let engine = GraphGrind2::new(&el, Config::for_tests());
        let r = bfs(&engine, 0);
        // 9 productive rounds plus the final empty-producing round.
        assert_eq!(r.rounds, 10);
    }
}
