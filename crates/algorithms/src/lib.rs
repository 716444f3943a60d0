//! # gg-algorithms — the eight evaluated graph algorithms (Table II)
//!
//! Every algorithm is generic over [`Engine`](gg_core::Engine), so the same
//! code runs on GraphGrind-v2 and on the Ligra / Polymer / GraphGrind-v1
//! baselines — the comparison of Figure 9 is a comparison of traversal
//! policies, not of separate implementations.
//!
//! | Code | Algorithm | Orientation | Dense direction (Table II) |
//! |---|---|---|---|
//! | BC | betweenness centrality (Brandes, single source) | vertex | backward |
//! | CC | connected components (label propagation) | edge | backward |
//! | PR | PageRank, power method, 10 iterations | edge | backward |
//! | BFS | breadth-first search | vertex | backward |
//! | PRDelta | PageRank forwarding delta updates | edge | forward |
//! | SPMV | sparse matrix-vector product, 1 iteration | edge | forward |
//! | BF | Bellman-Ford single-source shortest paths | vertex | forward |
//! | BP | belief propagation, 10 iterations | edge | forward |
//!
//! The *direction* column is what the baselines use for dense frontiers;
//! GraphGrind-v2 ignores it (§III.B: the density decision subsumes the
//! direction choice).
//!
//! Beyond Table II, [`fused`] advances up to 64 BFS, reachability or
//! personalised-PageRank queries in one edge-map pass per round: the
//! serving harness batches queries into it.
//!
//! The `reference` module contains deliberately simple sequential oracles;
//! every engine × algorithm pair is validated against them in the test
//! suite.

pub mod bc;
pub mod bellman_ford;
pub mod bfs;
pub mod bp;
pub mod cc;
pub mod fused;
pub mod pr;
pub mod prdelta;
pub mod reference;
pub mod spmv;
pub mod validate;

pub use bc::bc;
pub use bellman_ford::bellman_ford;
pub use bfs::bfs;
pub use bp::{bp, BpParams};
pub use cc::cc;
pub use fused::{
    fused_bfs, fused_ppr, fused_reachability, FusedBfsResult, FusedBfsRun, FusedPprResult,
    FusedPprRun,
};
pub use pr::pagerank;
pub use prdelta::{pagerank_delta, PrDeltaParams};
pub use spmv::spmv;

/// Identifiers for the eight algorithms, in the paper's presentation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Betweenness centrality.
    Bc,
    /// Connected components.
    Cc,
    /// PageRank (power method).
    Pr,
    /// Breadth-first search.
    Bfs,
    /// PageRank with delta updates.
    PrDelta,
    /// Sparse matrix-vector multiplication.
    Spmv,
    /// Bellman-Ford shortest paths.
    Bf,
    /// Belief propagation.
    Bp,
}

impl Algorithm {
    /// All eight algorithms in Table II order.
    pub fn all() -> [Algorithm; 8] {
        [
            Algorithm::Bc,
            Algorithm::Cc,
            Algorithm::Pr,
            Algorithm::Bfs,
            Algorithm::PrDelta,
            Algorithm::Spmv,
            Algorithm::Bf,
            Algorithm::Bp,
        ]
    }

    /// Short code used in tables and figures ("BC", "CC", ...).
    pub fn code(self) -> &'static str {
        match self {
            Algorithm::Bc => "BC",
            Algorithm::Cc => "CC",
            Algorithm::Pr => "PR",
            Algorithm::Bfs => "BFS",
            Algorithm::PrDelta => "PRDelta",
            Algorithm::Spmv => "SPMV",
            Algorithm::Bf => "BF",
            Algorithm::Bp => "BP",
        }
    }

    /// Whether Table II classifies the algorithm as vertex-oriented (V)
    /// rather than edge-oriented (E).
    pub fn vertex_oriented(self) -> bool {
        matches!(self, Algorithm::Bc | Algorithm::Bfs | Algorithm::Bf)
    }

    /// The dense traversal direction Table II reports for the baselines.
    pub fn preferred_direction(self) -> gg_core::engine::Direction {
        use gg_core::engine::Direction;
        match self {
            Algorithm::Bc | Algorithm::Cc | Algorithm::Pr | Algorithm::Bfs => Direction::Backward,
            Algorithm::PrDelta | Algorithm::Spmv | Algorithm::Bf | Algorithm::Bp => {
                Direction::Forward
            }
        }
    }

    /// The [`EdgeMapSpec`](gg_core::engine::EdgeMapSpec) matching Table II.
    pub fn spec(self) -> gg_core::engine::EdgeMapSpec {
        use gg_core::engine::{EdgeMapSpec, Orientation};
        EdgeMapSpec {
            orientation: if self.vertex_oriented() {
                Orientation::Vertex
            } else {
                Orientation::Edge
            },
            preferred: self.preferred_direction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_core::engine::Direction;

    #[test]
    fn table2_classification() {
        assert_eq!(Algorithm::all().len(), 8);
        assert!(Algorithm::Bfs.vertex_oriented());
        assert!(Algorithm::Bc.vertex_oriented());
        assert!(Algorithm::Bf.vertex_oriented());
        assert!(!Algorithm::Pr.vertex_oriented());
        assert_eq!(Algorithm::Pr.preferred_direction(), Direction::Backward);
        assert_eq!(Algorithm::Spmv.preferred_direction(), Direction::Forward);
        assert_eq!(Algorithm::PrDelta.code(), "PRDelta");
        for algo in Algorithm::all() {
            let vertex = algo.spec().orientation == gg_core::engine::Orientation::Vertex;
            assert_eq!(algo.vertex_oriented(), vertex, "{algo:?}");
        }
    }
}
