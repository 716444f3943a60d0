//! Single-source betweenness centrality (Brandes; vertex-oriented,
//! backward-preferring — Table II).
//!
//! Two phases, as in Ligra's BC:
//!
//! 1. **Forward**: a BFS that accumulates shortest-path counts `sigma`
//!    along the level structure, storing each level's frontier;
//! 2. **Backward**: levels are replayed deepest-first over the *transposed*
//!    graph, accumulating dependencies
//!    `delta[u] += sigma[u]/sigma[v] · (1 + delta[v])` for tree-DAG edges
//!    (`level[v] == level[u] + 1`).
//!
//! The backward phase needs an engine built on the transposed edge list
//! (the analogue of the CSC copy every compared system stores); pass it as
//! `bwd`.

use std::sync::atomic::{AtomicU32, Ordering};

use gg_core::edge_map::EdgeOp;
use gg_core::engine::Engine;
use gg_core::frontier::Frontier;
use gg_graph::bitmap::AtomicBitmap;
use gg_graph::types::VertexId;
use gg_runtime::atomics::{atomic_f64_vec, snapshot_f64, AtomicF64};

use crate::Algorithm;

/// BC output.
#[derive(Clone, Debug, PartialEq)]
pub struct BcResult {
    /// Dependency (betweenness contribution) per vertex for this source.
    pub dependency: Vec<f64>,
    /// Shortest-path counts per vertex.
    pub sigma: Vec<f64>,
    /// BFS level per vertex (`u32::MAX` = unreached).
    pub level: Vec<u32>,
    /// Forward-phase rounds.
    pub rounds: usize,
}

/// Forward phase: accumulate path counts into unvisited vertices.
struct PathsOp<'a> {
    sigma: &'a [AtomicF64],
    visited: &'a AtomicBitmap,
}

impl EdgeOp for PathsOp<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        if self.visited.get(dst as usize) {
            return false;
        }
        self.sigma[dst as usize].add_exclusive(self.sigma[src as usize].load());
        true
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        if self.visited.get(dst as usize) {
            return false;
        }
        self.sigma[dst as usize].fetch_add(self.sigma[src as usize].load());
        true
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        !self.visited.get(dst as usize)
    }
}

/// Backward phase over the transpose: `src` here is the *deeper* vertex
/// `v`, `dst` its predecessor `u` in the original graph.
struct DepOp<'a> {
    sigma: &'a [AtomicF64],
    delta: &'a [AtomicF64],
    level: &'a [AtomicU32],
}

impl DepOp<'_> {
    #[inline]
    fn contribution(&self, v: VertexId, u: VertexId) -> Option<f64> {
        let lu = self.level[u as usize].load(Ordering::Relaxed);
        let lv = self.level[v as usize].load(Ordering::Relaxed);
        if lu != u32::MAX && lv != u32::MAX && lv == lu + 1 {
            Some(
                self.sigma[u as usize].load() / self.sigma[v as usize].load()
                    * (1.0 + self.delta[v as usize].load()),
            )
        } else {
            None
        }
    }
}

impl EdgeOp for DepOp<'_> {
    #[inline]
    fn update(&self, v: VertexId, u: VertexId, _w: f32) -> bool {
        match self.contribution(v, u) {
            Some(c) => {
                self.delta[u as usize].add_exclusive(c);
                true
            }
            None => false,
        }
    }

    #[inline]
    fn update_atomic(&self, v: VertexId, u: VertexId, _w: f32) -> bool {
        match self.contribution(v, u) {
            Some(c) => {
                self.delta[u as usize].fetch_add(c);
                true
            }
            None => false,
        }
    }
}

/// Runs single-source BC. `fwd` is an engine over the graph, `bwd` over
/// its transpose ([`gg_graph::ops::transpose`]).
///
/// # Panics
/// Panics if the two engines disagree on vertex or edge counts.
pub fn bc<EF: Engine, EB: Engine>(fwd: &EF, bwd: &EB, source: VertexId) -> BcResult {
    let n = fwd.num_vertices();
    assert_eq!(n, bwd.num_vertices(), "engines must cover the same graph");
    assert_eq!(
        fwd.num_edges(),
        bwd.num_edges(),
        "bwd must be the transpose of fwd"
    );

    // Forward phase.
    let sigma = atomic_f64_vec(n, 0.0);
    let visited = AtomicBitmap::new(n);
    let level: Vec<AtomicU32> = gg_runtime::atomics::atomic_u32_vec(n, u32::MAX);
    sigma[source as usize].store(1.0);
    visited.set(source as usize);
    level[source as usize].store(0, Ordering::Relaxed);

    let spec = Algorithm::Bc.spec();
    let mut levels: Vec<Frontier> = vec![fwd.frontier_single(source)];
    let mut depth = 0u32;
    loop {
        let op = PathsOp {
            sigma: &sigma,
            visited: &visited,
        };
        let next = fwd.edge_map(levels.last().unwrap(), &op, spec);
        if next.is_empty() {
            break;
        }
        depth += 1;
        next.for_each(|v, _| {
            visited.set(v as usize);
            level[v as usize].store(depth, Ordering::Relaxed);
        });
        levels.push(next);
    }

    // Backward phase: replay levels deepest-first on the transpose.
    let delta = atomic_f64_vec(n, 0.0);
    let spec_back = spec; // same orientation; direction hint unused here
    for lvl in (1..levels.len()).rev() {
        let op = DepOp {
            sigma: &sigma,
            delta: &delta,
            level: &level,
        };
        let _ = bwd.edge_map(&levels[lvl], &op, spec_back);
    }

    BcResult {
        dependency: snapshot_f64(&delta),
        sigma: snapshot_f64(&sigma),
        level: gg_runtime::atomics::snapshot_u32(&level),
        rounds: levels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::validate::assert_close_f64;
    use gg_core::config::Config;
    use gg_core::engine::GraphGrind2;
    use gg_graph::generators;
    use gg_graph::ops::transpose;

    fn engines(el: &gg_graph::edge_list::EdgeList) -> (GraphGrind2, GraphGrind2) {
        (
            GraphGrind2::new(el, Config::for_tests()),
            GraphGrind2::new(&transpose(el), Config::for_tests()),
        )
    }

    #[test]
    fn matches_brandes_on_star() {
        let el = generators::star(8);
        let (f, b) = engines(&el);
        let got = bc(&f, &b, 1);
        assert_close_f64(
            &got.dependency,
            &reference::bc_single_source(&el, 1),
            1e-9,
            1e-12,
        );
    }

    #[test]
    fn matches_brandes_on_rmat() {
        let el = generators::rmat(8, 2500, generators::RmatParams::skewed(), 19);
        let (f, b) = engines(&el);
        let got = bc(&f, &b, 0);
        assert_close_f64(
            &got.dependency,
            &reference::bc_single_source(&el, 0),
            1e-9,
            1e-12,
        );
    }

    #[test]
    fn matches_brandes_on_grid() {
        let el = generators::grid_road(6, 6, 0.0, 0);
        let (f, b) = engines(&el);
        let got = bc(&f, &b, 0);
        assert_close_f64(
            &got.dependency,
            &reference::bc_single_source(&el, 0),
            1e-9,
            1e-12,
        );
    }

    #[test]
    fn sigma_counts_shortest_paths() {
        // Diamond: two shortest paths 0->3.
        let el = gg_graph::edge_list::EdgeList::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (f, b) = engines(&el);
        let got = bc(&f, &b, 0);
        assert_eq!(got.sigma, vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(got.level, vec![0, 1, 1, 2]);
        // delta[1] = delta[2] = (1/2)(1+0); delta[0] = 1.5 + 1.5 = 3.
        assert_close_f64(&got.dependency, &[3.0, 0.5, 0.5, 0.0], 1e-12, 1e-12);
    }
}
