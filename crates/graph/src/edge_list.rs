//! Mutable edge-list representation used as the construction front-end for
//! every other layout.
//!
//! An [`EdgeList`] is the neutral interchange format: generators produce it,
//! I/O reads and writes it, and [`Csr`](crate::csr::Csr) /
//! [`Csc`](crate::csc::Csc) / [`Coo`](crate::coo::Coo) are built from it.
//! Edges may carry optional `f32` weights (needed by Bellman–Ford, SPMV and
//! belief propagation).

use crate::types::{Edge, VertexId};

/// A growable list of directed edges over a fixed vertex set `0..n`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeList {
    num_vertices: usize,
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        EdgeList {
            num_vertices,
            ..Default::default()
        }
    }

    /// Creates an empty edge list with capacity for `cap` edges.
    pub fn with_capacity(num_vertices: usize, cap: usize) -> Self {
        EdgeList {
            num_vertices,
            srcs: Vec::with_capacity(cap),
            dsts: Vec::with_capacity(cap),
            weights: None,
        }
    }

    /// Builds an edge list from `(src, dst)` pairs.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        let mut el = EdgeList::with_capacity(num_vertices, edges.len());
        for &(u, v) in edges {
            el.push(u, v);
        }
        el
    }

    /// Builds a weighted edge list from `(src, dst, w)` triples.
    pub fn from_weighted_edges(num_vertices: usize, edges: &[(VertexId, VertexId, f32)]) -> Self {
        let mut el = EdgeList::with_capacity(num_vertices, edges.len());
        for &(u, v, w) in edges {
            el.push_weighted(u, v, w);
        }
        el
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// True when there are no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// True when edges carry weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Appends an unweighted edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, or if the list already carries
    /// weights (mixing weighted and unweighted pushes is a logic error).
    #[inline]
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        assert!((src as usize) < self.num_vertices, "src out of range");
        assert!((dst as usize) < self.num_vertices, "dst out of range");
        assert!(self.weights.is_none(), "push on weighted edge list");
        self.srcs.push(src);
        self.dsts.push(dst);
    }

    /// Appends a weighted edge.
    #[inline]
    pub fn push_weighted(&mut self, src: VertexId, dst: VertexId, w: f32) {
        assert!((src as usize) < self.num_vertices, "src out of range");
        assert!((dst as usize) < self.num_vertices, "dst out of range");
        if self.weights.is_none() {
            assert!(
                self.srcs.is_empty(),
                "push_weighted on unweighted edge list"
            );
            self.weights = Some(Vec::new());
        }
        self.srcs.push(src);
        self.dsts.push(dst);
        self.weights
            .as_mut()
            .expect("weights were set above")
            .push(w);
    }

    /// Source endpoints, aligned with [`dsts`](Self::dsts).
    #[inline]
    pub fn srcs(&self) -> &[VertexId] {
        &self.srcs
    }

    /// Destination endpoints, aligned with [`srcs`](Self::srcs).
    #[inline]
    pub fn dsts(&self) -> &[VertexId] {
        &self.dsts
    }

    /// Edge weights if present, aligned with the endpoint arrays.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// The `i`-th edge.
    #[inline]
    pub fn edge(&self, i: usize) -> Edge {
        (self.srcs[i], self.dsts[i])
    }

    /// Weight of the `i`-th edge (1.0 when unweighted).
    #[inline]
    pub fn weight(&self, i: usize) -> f32 {
        self.weights.as_ref().map_or(1.0, |w| w[i])
    }

    /// Iterates `(src, dst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.srcs.iter().copied().zip(self.dsts.iter().copied())
    }

    /// Iterates `(src, dst, weight)` triples (weight 1.0 when unweighted).
    pub fn iter_weighted(&self) -> impl Iterator<Item = (VertexId, VertexId, f32)> + '_ {
        (0..self.num_edges()).map(move |i| (self.srcs[i], self.dsts[i], self.weight(i)))
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &u in &self.srcs {
            deg[u as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &v in &self.dsts {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Attaches uniform random weights in `[lo, hi)`, replacing any existing
    /// weights. See [`crate::weights`] for generators.
    pub fn set_weights(&mut self, weights: Vec<f32>) {
        assert_eq!(weights.len(), self.num_edges());
        self.weights = Some(weights);
    }

    /// Drops weights, making the list unweighted.
    pub fn clear_weights(&mut self) {
        self.weights = None;
    }

    /// Gathers edges by index: the edge at old position `perm[i]` moves to
    /// position `i`. `perm` may select a subset (used by dedup and
    /// self-loop removal) but every index must be in range.
    pub fn permute(&mut self, perm: &[usize]) {
        self.srcs = perm.iter().map(|&i| self.srcs[i]).collect();
        self.dsts = perm.iter().map(|&i| self.dsts[i]).collect();
        if let Some(w) = &self.weights {
            self.weights = Some(perm.iter().map(|&i| w[i]).collect());
        }
    }

    /// Sorts edges by `(src, dst)` and removes exact duplicates (keeping the
    /// first-inserted weight of each duplicate group). Self-loops are
    /// retained.
    pub fn sort_and_dedup(&mut self) {
        let m = self.num_edges();
        let mut idx: Vec<usize> = (0..m).collect();
        // Stable sort so the earliest-inserted duplicate survives dedup.
        idx.sort_by_key(|&i| (self.srcs[i], self.dsts[i]));
        idx.dedup_by_key(|i| (self.srcs[*i], self.dsts[*i]));
        self.permute(&idx);
    }

    /// Removes self-loops in place, preserving edge order.
    pub fn remove_self_loops(&mut self) {
        let keep: Vec<usize> = (0..self.num_edges())
            .filter(|&i| self.srcs[i] != self.dsts[i])
            .collect();
        self.permute(&keep);
    }

    /// Validates internal invariants; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.srcs.len() != self.dsts.len() {
            return Err("src/dst length mismatch".into());
        }
        if let Some(w) = &self.weights {
            if w.len() != self.srcs.len() {
                return Err("weight length mismatch".into());
            }
        }
        for i in 0..self.num_edges() {
            let (u, v) = self.edge(i);
            if u as usize >= self.num_vertices || v as usize >= self.num_vertices {
                return Err(format!("edge {i} = ({u},{v}) out of range"));
            }
        }
        Ok(())
    }
}

impl FromIterator<Edge> for EdgeList {
    /// Collects edges, inferring the vertex count from the maximum endpoint.
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        let edges: Vec<Edge> = iter.into_iter().collect();
        let n = crate::types::implied_vertex_count(edges.iter().copied());
        EdgeList::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    #[test]
    fn basic_accessors() {
        let el = sample();
        assert_eq!(el.num_vertices(), 4);
        assert_eq!(el.num_edges(), 5);
        assert_eq!(el.edge(4), (0, 2));
        assert_eq!(el.weight(4), 1.0);
        assert!(!el.is_weighted());
        el.validate().unwrap();
    }

    #[test]
    fn degrees() {
        let el = sample();
        assert_eq!(el.out_degrees(), vec![2, 1, 1, 1]);
        assert_eq!(el.in_degrees(), vec![1, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 2);
    }

    #[test]
    fn weighted_roundtrip() {
        let el = EdgeList::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 2.0)]);
        assert!(el.is_weighted());
        assert_eq!(el.weight(0), 0.5);
        assert_eq!(el.weight(1), 2.0);
        let triples: Vec<_> = el.iter_weighted().collect();
        assert_eq!(triples, vec![(0, 1, 0.5), (1, 2, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "weighted")]
    fn mixing_weighted_unweighted_panics() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push_weighted(1, 2, 1.0);
    }

    #[test]
    fn sort_and_dedup_removes_duplicates() {
        let mut el = EdgeList::from_edges(3, &[(1, 2), (0, 1), (1, 2), (0, 1), (2, 0)]);
        el.sort_and_dedup();
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn dedup_keeps_first_weight() {
        let mut el = EdgeList::from_weighted_edges(3, &[(1, 2, 9.0), (0, 1, 1.0), (1, 2, 7.0)]);
        el.sort_and_dedup();
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.edge(1), (1, 2));
        assert_eq!(el.weight(1), 9.0);
    }

    #[test]
    fn remove_self_loops_preserves_order() {
        let mut el = EdgeList::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2)]);
        el.remove_self_loops();
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn permute_reorders_weights() {
        let mut el = EdgeList::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
        el.permute(&[2, 0, 1]);
        assert_eq!(el.edge(0), (2, 0));
        assert_eq!(el.weight(0), 3.0);
        assert_eq!(el.weight(1), 1.0);
    }

    #[test]
    fn from_iterator_infers_n() {
        let el: EdgeList = vec![(0u32, 5u32), (3, 2)].into_iter().collect();
        assert_eq!(el.num_vertices(), 6);
        assert_eq!(el.num_edges(), 2);
    }
}
