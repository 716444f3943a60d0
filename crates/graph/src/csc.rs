//! Compressed Sparse Columns: the indexed backward (pull) layout.
//!
//! A key observation of §II.C: *partitioning by destination does not change
//! the edge visit order of a CSC (backward) traversal at all* — edges are
//! already grouped by destination. The paper therefore stores **one whole
//! (unpartitioned) CSC** and partitions only the *computation range*: thread
//! `p` scans destinations `set.range(p)`, which needs no per-partition copy
//! and no replication. This module provides that single whole-graph CSC.
//!
//! The CSC is the **transpose of the [`Csr`]**: each in-list holds its
//! sources in ascending order, and parallel edges keep the CSR's (= the
//! edge list's) order. A pull over an in-list therefore meets the active
//! in-neighbours in exactly the order a forward push over an ascending
//! frontier reaches the destination, so the two traversals apply the same
//! update sequence; and results depend on the edge *set*, not on the order
//! the edge list happened to arrive in (up to the order among parallel
//! edges).

use crate::csr::Csr;
use crate::edge_list::EdgeList;
use crate::types::{EdgeId, VertexId};

/// Whole-graph CSC: `offsets[v]..offsets[v+1]` indexes `sources` (and
/// `weights` when present) with the in-neighbors of `v`, in ascending
/// source order (parallel edges in edge-list order).
#[derive(Clone, Debug, PartialEq)]
pub struct Csc {
    offsets: Vec<EdgeId>,
    sources: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

impl Csc {
    /// Builds a CSC from an edge list: the transpose of its [`Csr`], built
    /// on the way. A caller that keeps the CSR too should build it once
    /// and call [`from_csr`](Self::from_csr).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Csc::from_csr(&Csr::from_edge_list(el))
    }

    /// Transposes a CSR (stable counting sort by destination over the
    /// CSR's slots): walking the rows in ascending source order fills each
    /// in-list ascending by source, parallel edges in CSR order.
    pub fn from_csr(csr: &Csr) -> Self {
        let (n, targets) = (csr.num_vertices(), csr.targets());
        let offsets = crate::csr::bucket_offsets(n, targets);
        let mut cursor = offsets[..n].to_vec();
        let mut sources = vec![0 as VertexId; targets.len()];
        let rows = csr.offsets().windows(2).enumerate();
        let weights = match csr.weights() {
            None => {
                for (u, row) in rows {
                    for &v in &targets[row[0]..row[1]] {
                        let c = &mut cursor[v as usize];
                        sources[*c] = u as VertexId;
                        *c += 1;
                    }
                }
                None
            }
            Some(w) => {
                let mut out_w = vec![0f32; targets.len()];
                for (u, row) in rows {
                    for e in row[0]..row[1] {
                        let c = &mut cursor[targets[e] as usize];
                        sources[*c] = u as VertexId;
                        out_w[*c] = w[e];
                        *c += 1;
                    }
                }
                Some(out_w)
            }
        };
        Csc {
            offsets,
            sources,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.sources.len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// In-neighbors of `v`, ascending (parallel edges in edge-list order).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.sources[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Adjacency range of `v` as indices into [`sources`](Self::sources).
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Flat sources array.
    #[inline]
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Offset array of length `n + 1`.
    #[inline]
    pub fn offsets(&self) -> &[EdgeId] {
        &self.offsets
    }

    /// Edge weights aligned with [`sources`](Self::sources), if present.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Weight of adjacency slot `e` (1.0 when unweighted).
    #[inline]
    pub fn weight_at(&self, e: EdgeId) -> f32 {
        self.weights.as_ref().map_or(1.0, |w| w[e])
    }

    /// In-degrees of all vertices.
    pub fn in_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .map(|v| self.in_degree(v as VertexId) as u32)
            .collect()
    }

    /// Heap bytes consumed (measured).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<EdgeId>()
            + self.sources.len() * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn figure1_graph() -> EdgeList {
        EdgeList::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 0),
                (5, 1),
                (5, 2),
                (5, 3),
                (5, 4),
            ],
        )
    }

    #[test]
    fn csc_matches_figure1() {
        // Figure 1 top-right: CSC indices 0 1 3 5 7 11 [14].
        let csc = Csc::from_edge_list(&figure1_graph());
        assert_eq!(csc.offsets(), &[0, 1, 3, 5, 7, 11, 14]);
        assert_eq!(csc.in_neighbors(0), &[5]);
        assert_eq!(csc.in_neighbors(1), &[0, 5]);
        assert_eq!(csc.in_neighbors(4), &[0, 2, 3, 5]);
        assert_eq!(csc.in_neighbors(5), &[0, 3, 4]);
    }

    #[test]
    fn csc_is_transpose_of_csr() {
        let el = figure1_graph();
        let csr = Csr::from_edge_list(&el);
        let csc = Csc::from_edge_list(&el);
        // (u, v) is a CSR edge iff it is a CSC edge.
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        for u in 0..el.num_vertices() as u32 {
            for &v in csr.neighbors(u) {
                fwd.push((u, v));
            }
        }
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for v in 0..el.num_vertices() as u32 {
            for &u in csc.in_neighbors(v) {
                bwd.push((u, v));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn in_lists_ascend_by_source_whatever_the_input_order() {
        // Edges into 2 arrive as 3, 0, 1, 0: the in-list is 0, 0, 1, 3,
        // and the two parallel 0 -> 2 edges keep their input order (the
        // weights tell them apart).
        let el = EdgeList::from_weighted_edges(
            4,
            &[
                (3, 2, 1.0),
                (0, 2, 2.0),
                (2, 1, 3.0),
                (1, 2, 4.0),
                (0, 2, 5.0),
            ],
        );
        let csr = Csr::from_edge_list(&el);
        let csc = Csc::from_edge_list(&el);
        assert_eq!(csc, Csc::from_csr(&csr));
        assert_eq!(csc.in_neighbors(2), &[0, 0, 1, 3]);
        let weights: Vec<f32> = csc.edge_range(2).map(|e| csc.weight_at(e)).collect();
        assert_eq!(weights, [2.0, 5.0, 4.0, 1.0]);
        assert_eq!(csc.in_neighbors(1), &[2]);
    }

    #[test]
    fn csc_weighted_alignment() {
        let el = EdgeList::from_weighted_edges(3, &[(0, 2, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
        let csc = Csc::from_edge_list(&el);
        assert_eq!(csc.in_neighbors(2), &[0, 1]);
        let r = csc.edge_range(2);
        assert_eq!(csc.weight_at(r.start), 1.0);
        assert_eq!(csc.weight_at(r.start + 1), 2.0);
        assert_eq!(csc.weight_at(csc.edge_range(0).start), 3.0);
    }

    #[test]
    fn csc_empty() {
        let csc = Csc::from_edge_list(&EdgeList::new(4));
        assert_eq!(csc.num_vertices(), 4);
        assert_eq!(csc.num_edges(), 0);
        assert_eq!(csc.in_degree(3), 0);
    }
}
