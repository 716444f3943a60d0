//! Coordinate-list (COO) layout: the scalable dense-traversal format.
//!
//! §II.E's central storage observation: COO stores `2 |E| bv` bytes
//! **independent of the number of partitions**, because an edge carries both
//! endpoints explicitly and vertex replication adds no storage. This is the
//! only layout that scales to the paper's preferred ~384 partitions, and
//! §II.F notes its work is likewise independent of replication (each edge is
//! visited exactly once).
//!
//! [`PartitionedCoo`] stores all edges contiguously, grouped by home
//! partition (per a [`PartitionSet`], normally edge-balanced
//! partitioning-by-destination), with a per-partition offset table. Within a
//! partition edges are sorted by one configurable [`EdgeOrder`], the same
//! for every partition — source order, destination order or Hilbert order
//! (§IV.C). That order is a property of this array alone: the dense COO
//! scan that streams it is the only traversal whose visit order it shapes.
//!
//! # Building it
//!
//! [`PartitionedCoo::new`] is set-up's dominant step, so it does
//! each thing once: one pass computes every edge's home partition, a
//! counting pass buckets the edge ids by home (stable, so each bucket is
//! in edge-list order), then each partition goes through
//! [`reorder::sort_edges`] — every edge keyed once, `(key, edge)` pairs
//! radix-sorted, ties left in edge-list order — and `srcs` / `dsts` /
//! `weights` are gathered straight from the sorted pairs.
//!
//! Transient memory: edge ids and homes are `u32` (`|E| ≤ u32::MAX` is
//! checked once), 4 bytes per edge each, and the homes are freed before the
//! sort scratch is allocated; that scratch is sized by the **largest
//! partition** and reused across partitions, never by `|E|`.

use crate::edge_list::EdgeList;
use crate::partition::{PartitionBy, PartitionSet};
use crate::reorder::{self, EdgeOrder, SortScratch};
use crate::types::{EdgeId, VertexId};

/// Unpartitioned COO: parallel `srcs`/`dsts` (and optional weight) arrays.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo {
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    num_vertices: usize,
}

impl Coo {
    /// Builds a COO in the edge list's order.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Coo {
            srcs: el.srcs().to_vec(),
            dsts: el.dsts().to_vec(),
            weights: el.weights().map(|w| w.to_vec()),
            num_vertices: el.num_vertices(),
        }
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

    /// Source endpoints.
    #[inline]
    pub fn srcs(&self) -> &[VertexId] {
        &self.srcs
    }

    /// Destination endpoints.
    #[inline]
    pub fn dsts(&self) -> &[VertexId] {
        &self.dsts
    }

    /// Weights, if present.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Weight of edge slot `e` (1.0 when unweighted).
    #[inline]
    pub fn weight_at(&self, e: EdgeId) -> f32 {
        self.weights.as_ref().map_or(1.0, |w| w[e])
    }

    /// Heap bytes consumed (measured). Matches the paper's `2 |E| bv` for
    /// unweighted graphs.
    pub fn heap_bytes(&self) -> usize {
        (self.srcs.len() + self.dsts.len()) * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<f32>())
    }
}

/// COO grouped by home partition with per-partition offsets.
///
/// Partition `p` owns edge slots `part_offsets[p]..part_offsets[p+1]`.
/// Under partitioning-by-destination each partition's destination set is
/// confined to the partition set's `range(p)`, so one thread per partition can
/// update destination data without atomics (§III.C).
#[derive(Clone, Debug)]
pub struct PartitionedCoo {
    coo: Coo,
    part_offsets: Vec<EdgeId>,
    set: PartitionSet,
    order: EdgeOrder,
}

impl PartitionedCoo {
    /// Buckets `el`'s edges by home partition under `set`, sorting each
    /// partition's edges by `order`.
    pub fn new(el: &EdgeList, set: &PartitionSet, order: EdgeOrder) -> Self {
        let p = set.num_partitions();
        let n = el.num_vertices();
        let srcs = el.srcs();
        let dsts = el.dsts();
        let m = el.num_edges();
        assert!(
            u32::try_from(m.max(p)).is_ok(),
            "edge and partition ids are u32: |E| = {m}, P = {p}"
        );

        // Each edge's home, computed once and kept for the bucket pass.
        let mut part_offsets = vec![0usize; p + 1];
        let homes: Vec<u32> = (0..m)
            .map(|e| {
                let home = set.edge_home(srcs[e], dsts[e]);
                part_offsets[home + 1] += 1;
                home as u32
            })
            .collect();
        for i in 0..p {
            part_offsets[i + 1] += part_offsets[i];
        }

        // Stable bucket by home partition: ascending edge ids per bucket,
        // which is what makes the sort's tie rule "original edge order".
        let mut next = part_offsets.clone();
        let mut ids = vec![0u32; m];
        for (e, &home) in homes.iter().enumerate() {
            let slot = &mut next[home as usize];
            ids[*slot] = e as u32;
            *slot += 1;
        }
        drop((homes, next));

        // Sort within each partition and gather from the sorted pairs.
        let largest = part_offsets.windows(2).map(|w| w[1] - w[0]).max();
        let mut scratch = SortScratch::with_capacity(largest.unwrap_or(0));
        let mut coo = Coo {
            srcs: Vec::with_capacity(m),
            dsts: Vec::with_capacity(m),
            weights: el.weights().map(|_| Vec::with_capacity(m)),
            num_vertices: n,
        };
        for part in 0..p {
            let bucket = &ids[part_offsets[part]..part_offsets[part + 1]];
            let sorted = reorder::sort_edges(bucket, srcs, dsts, n, order, &mut scratch);
            let edges = sorted.iter().map(|pair| pair.edge as usize);
            coo.srcs.extend(edges.clone().map(|e| srcs[e]));
            coo.dsts.extend(edges.clone().map(|e| dsts[e]));
            if let (Some(out), Some(w)) = (coo.weights.as_mut(), el.weights()) {
                out.extend(edges.map(|e| w[e]));
            }
        }
        PartitionedCoo {
            coo,
            part_offsets,
            set: set.clone(),
            order,
        }
    }

    /// Convenience: single-partition COO over the whole graph.
    pub fn whole(el: &EdgeList, order: EdgeOrder) -> Self {
        let set = PartitionSet::whole(el.num_vertices(), PartitionBy::Destination);
        Self::new(el, &set, order)
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.part_offsets.len() - 1
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coo.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.coo.num_edges()
    }

    /// The edge-slot range owned by partition `p`.
    #[inline]
    pub fn part_range(&self, p: usize) -> std::ops::Range<EdgeId> {
        self.part_offsets[p]..self.part_offsets[p + 1]
    }

    /// Sources of partition `p`'s edges.
    #[inline]
    pub fn part_srcs(&self, p: usize) -> &[VertexId] {
        &self.coo.srcs[self.part_range(p)]
    }

    /// Destinations of partition `p`'s edges.
    #[inline]
    pub fn part_dsts(&self, p: usize) -> &[VertexId] {
        &self.coo.dsts[self.part_range(p)]
    }

    /// Weights of partition `p`'s edges, if present.
    #[inline]
    pub fn part_weights(&self, p: usize) -> Option<&[f32]> {
        self.coo.weights.as_ref().map(|w| &w[self.part_range(p)])
    }

    /// The full underlying COO (all partitions concatenated).
    #[inline]
    pub fn coo(&self) -> &Coo {
        &self.coo
    }

    /// The edge order every partition's edges are sorted by.
    #[inline]
    pub fn order(&self) -> EdgeOrder {
        self.order
    }

    /// Heap bytes consumed (measured). The per-partition offset table adds
    /// only `(P + 1) * 8` bytes to the flat `2 |E| bv` cost.
    pub fn heap_bytes(&self) -> usize {
        self.coo.heap_bytes() + self.part_offsets.len() * std::mem::size_of::<EdgeId>()
    }

    /// Validates the partition invariants: every edge's home matches the
    /// slot range it is stored in, and edge count is conserved.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_edges()
            != *self
                .part_offsets
                .last()
                .expect("the offset table holds P + 1 entries")
        {
            return Err("offset table does not cover all edges".into());
        }
        for p in 0..self.num_partitions() {
            for e in self.part_range(p) {
                let (u, v) = (self.coo.srcs[e], self.coo.dsts[e]);
                if self.set.edge_home(u, v) != p {
                    return Err(format!("edge ({u},{v}) misplaced in partition {p}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn whole_coo_roundtrip() {
        let el = figure1_graph();
        let coo = Coo::from_edge_list(&el);
        assert_eq!(coo.num_edges(), 14);
        assert_eq!(coo.num_vertices(), 6);
        assert_eq!(coo.srcs()[0], 0);
        assert_eq!(coo.dsts()[13], 4);
        // 2 |E| bv bytes for an unweighted graph, as modeled in §II.E.
        assert_eq!(coo.heap_bytes(), 2 * 14 * 4);
    }

    #[test]
    fn partitioned_groups_by_destination() {
        let el = figure1_graph();
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 2, PartitionBy::Destination);
        let pcoo = PartitionedCoo::new(&el, &set, EdgeOrder::Source);
        pcoo.validate().unwrap();
        assert_eq!(pcoo.num_edges(), 14);
        // Figure 1 splits the 14 edges 7 / 7.
        assert_eq!(pcoo.part_range(0).len(), 7);
        assert_eq!(pcoo.part_range(1).len(), 7);
        for p in 0..2 {
            let range = set.range(p);
            for &d in pcoo.part_dsts(p) {
                assert!(range.contains(&d));
            }
        }
    }

    #[test]
    fn storage_independent_of_partition_count() {
        // The paper's flat COO line in Figure 4.
        let el = figure1_graph();
        let sizes: Vec<usize> = [1usize, 2, 3, 6]
            .iter()
            .map(|&p| {
                let set =
                    PartitionSet::edge_balanced(&el.in_degrees(), p, PartitionBy::Destination);
                PartitionedCoo::new(&el, &set, EdgeOrder::Hilbert)
                    .coo()
                    .heap_bytes()
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn within_partition_order_respected() {
        let el = figure1_graph();
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 2, PartitionBy::Destination);
        let by_src = PartitionedCoo::new(&el, &set, EdgeOrder::Source);
        for p in 0..2 {
            let s = by_src.part_srcs(p);
            assert!(s.windows(2).all(|w| w[0] <= w[1]), "partition {p}: {s:?}");
        }
        let by_dst = PartitionedCoo::new(&el, &set, EdgeOrder::Destination);
        for p in 0..2 {
            let d = by_dst.part_dsts(p);
            assert!(d.windows(2).all(|w| w[0] <= w[1]), "partition {p}: {d:?}");
        }
    }

    #[test]
    fn weights_follow_edges() {
        let el =
            EdgeList::from_weighted_edges(4, &[(0, 3, 3.0), (0, 0, 0.0), (1, 2, 2.0), (2, 1, 1.0)]);
        let set = PartitionSet::vertex_balanced(4, 2, PartitionBy::Destination);
        let pcoo = PartitionedCoo::new(&el, &set, EdgeOrder::Source);
        pcoo.validate().unwrap();
        for p in 0..2 {
            let dsts = pcoo.part_dsts(p);
            let w = pcoo.part_weights(p).unwrap();
            for i in 0..dsts.len() {
                // Weight equals destination id by construction.
                assert_eq!(w[i], dsts[i] as f32);
            }
        }
    }

    /// The build `new` replaced, made stable: bucket by home, then
    /// `sort_by_key` per partition with keys recomputed on every comparison
    /// through the bit-loop Hilbert encoder. Returns `srcs`, `dsts`,
    /// `weights`, `part_offsets`.
    #[allow(clippy::type_complexity)]
    fn reference_build(
        el: &EdgeList,
        set: &PartitionSet,
        order: EdgeOrder,
    ) -> (Vec<u32>, Vec<u32>, Option<Vec<f32>>, Vec<usize>) {
        let (srcs, dsts) = (el.srcs(), el.dsts());
        let mut ids = Vec::new();
        let mut part_offsets = vec![0];
        for part in 0..set.num_partitions() {
            let mut bucket: Vec<usize> = (0..el.num_edges())
                .filter(|&e| set.edge_home(srcs[e], dsts[e]) == part)
                .collect();
            bucket.sort_by_key(|&e| {
                reorder::reference_key(order, el.num_vertices(), srcs[e], dsts[e])
            });
            ids.extend(bucket);
            part_offsets.push(ids.len());
        }
        (
            ids.iter().map(|&e| srcs[e]).collect(),
            ids.iter().map(|&e| dsts[e]).collect(),
            el.weights().map(|w| ids.iter().map(|&e| w[e]).collect()),
            part_offsets,
        )
    }

    fn assert_matches_reference(name: &str, el: &EdgeList, set: &PartitionSet) {
        let p = set.num_partitions();
        for order in EdgeOrder::all() {
            let built = PartitionedCoo::new(el, set, order);
            built.validate().unwrap();
            assert_eq!(built.order(), order);
            let (srcs, dsts, weights, part_offsets) = reference_build(el, set, order);
            let what = format!("{name}, P = {p}, order {order:?}");
            assert_eq!(built.coo().srcs(), srcs, "srcs: {what}");
            assert_eq!(built.coo().dsts(), dsts, "dsts: {what}");
            // Bit patterns, so a weight is never "equal" by accident.
            let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                built.coo().weights().map(bits),
                weights.as_deref().map(bits),
                "weights: {what}"
            );
            assert_eq!(built.part_offsets, part_offsets, "part_offsets: {what}");
        }
    }

    #[test]
    fn build_matches_reference_sort() {
        // A skewed graph with every edge repeated under a different weight
        // (the tie rule decides which weight lands where), plus a run of
        // isolated high ids so the edge-balanced cut leaves empty ranges.
        let base = crate::generators::rmat(7, 900, crate::generators::RmatParams::skewed(), 3);
        let mut dup = EdgeList::new(160);
        for round in 0..3 {
            for (e, (u, v)) in base.iter().enumerate() {
                if (e + round) % (round + 1) == 0 {
                    dup.push_weighted(u, v, (e * 3 + round) as f32);
                }
            }
        }
        let plain = EdgeList::from_edges(dup.num_vertices(), &dup.iter().collect::<Vec<_>>());
        for (name, el) in [("weighted duplicates", &dup), ("unweighted", &plain)] {
            let n = el.num_vertices();
            for p in [1, 2, 7, 384, n + 9] {
                for by in [PartitionBy::Destination, PartitionBy::Source] {
                    let degrees = match by {
                        PartitionBy::Destination => el.in_degrees(),
                        PartitionBy::Source => el.out_degrees(),
                    };
                    assert_matches_reference(
                        name,
                        el,
                        &PartitionSet::edge_balanced(&degrees, p, by),
                    );
                    assert_matches_reference(name, el, &PartitionSet::vertex_balanced(n, p, by));
                }
            }
        }
    }

    #[test]
    fn degenerate_and_extreme_graphs_match_reference_sort() {
        let by = PartitionBy::Destination;
        let single = EdgeList::from_weighted_edges(1, &[(0, 0, 2.0), (0, 0, 1.0), (0, 0, 3.0)]);
        let empty = EdgeList::from_edges(5, &[]);
        for p in [1, 2, 7] {
            assert_matches_reference(
                "single vertex",
                &single,
                &PartitionSet::vertex_balanced(1, p, by),
            );
            assert_matches_reference("no edges", &empty, &PartitionSet::vertex_balanced(5, p, by));
        }
        // Vertex ids up to the largest a `PartitionSet` can own: the
        // Hilbert grid is order 32, keys fill all 64 bits, every digit of
        // the sort is live.
        let n = u32::MAX as usize;
        let top = u32::MAX - 1;
        let ends = [0, 1, top, top - 1, 1 << 31, (1 << 31) - 1, 0x8000_0001, 77];
        let mut wide = EdgeList::new(n);
        for (i, &u) in ends.iter().enumerate() {
            for (j, &v) in ends.iter().enumerate() {
                wide.push_weighted(u, v, (i * 8 + j) as f32);
                if (i + j) % 3 == 0 {
                    wide.push_weighted(u, v, -1.0);
                }
            }
        }
        for p in [1, 2, 7, 384] {
            assert_matches_reference(
                "ids to u32::MAX",
                &wide,
                &PartitionSet::vertex_balanced(n, p, by),
            );
        }
    }

    #[test]
    fn single_partition_equals_whole() {
        let el = figure1_graph();
        let whole = PartitionedCoo::whole(&el, EdgeOrder::Hilbert);
        assert_eq!(whole.num_partitions(), 1);
        assert_eq!(whole.part_range(0), 0..14);
        whole.validate().unwrap();
    }
}
