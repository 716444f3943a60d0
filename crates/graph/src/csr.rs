//! Compressed Sparse Rows: the indexed forward (push) layout.
//!
//! Three variants, matching §II.E of the paper:
//!
//! * [`Csr`] — the whole graph, one offset per vertex. Used unpartitioned
//!   for sparse-frontier traversal (§III.A.1).
//! * [`PrunedCsr`] — a *partition's* CSR that stores only vertices with at
//!   least one edge in the partition, carrying explicit vertex identifiers
//!   ("we store the vertex ID along with the vertex data in order to save
//!   space for zero-degree vertices"). Storage grows with the replication
//!   factor `r(p)`.
//! * [`PartitionedCsr`] — `P` pruned partitions under a
//!   [`PartitionSet`]; partition `p` holds exactly the edges whose home is
//!   `p` (all edges *into* `p`'s vertex range when partitioning by
//!   destination), indexed by **source** vertex for forward traversal.
//!   It is split from a built [`Csr`] ([`PartitionedCsr::from_csr`]), so
//!   each source's adjacency keeps edge-list order.
//!
//! The unpruned per-partition layout Polymer uses (offsets over all `n`
//! vertices in every partition, §II.E) is [`UnprunedPartitionedCsr`].

use crate::edge_list::EdgeList;
use crate::partition::PartitionSet;
use crate::types::{EdgeId, VertexId};

/// Whole-graph CSR: `offsets[v]..offsets[v+1]` indexes `targets` (and
/// `weights` when present) with the out-neighbors of `v`, in input order.
///
/// ```
/// use gg_graph::prelude::*;
///
/// let el = EdgeList::from_edges(3, &[(0, 1), (0, 2), (2, 0)]);
/// let csr = Csr::from_edge_list(&el);
/// assert_eq!(csr.neighbors(0), &[1, 2]);
/// assert_eq!(csr.out_degree(1), 0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    offsets: Vec<EdgeId>,
    targets: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

/// The `num_keys + 1` bucket offsets of a counting sort by `keys`: the
/// count pass of [`Csr`]'s and [`Csc`](crate::csc::Csc)'s builds. It
/// counts in `u32`, as degrees are stored everywhere else: half the
/// footprint of `EdgeId` counters measured the pass 30-40 % faster on
/// 160k- and 137k-vertex graphs (2-vCPU x86-64).
pub(crate) fn bucket_offsets(num_keys: usize, keys: &[VertexId]) -> Vec<EdgeId> {
    let mut counts = vec![0u32; num_keys];
    for &k in keys {
        counts[k as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(num_keys + 1);
    let mut total: EdgeId = 0;
    offsets.push(total);
    for c in counts {
        total += c as EdgeId;
        offsets.push(total);
    }
    offsets
}

/// The stable counting scatter behind [`Csr`]: edge `e` goes to bucket
/// `keys[e]` carrying `vals[e]` (and `weights[e]`). Returns the
/// `num_keys + 1` bucket offsets and the scattered values and weights;
/// each bucket keeps input order.
fn scatter_by_key(
    num_keys: usize,
    keys: &[VertexId],
    vals: &[VertexId],
    weights: Option<&[f32]>,
) -> (Vec<EdgeId>, Vec<VertexId>, Option<Vec<f32>>) {
    let m = keys.len();
    let offsets = bucket_offsets(num_keys, keys);
    let mut cursor = offsets[..num_keys].to_vec();
    let mut out = vec![0 as VertexId; m];
    let out_w = match weights {
        None => {
            for (&k, &v) in keys.iter().zip(vals) {
                let c = &mut cursor[k as usize];
                out[*c] = v;
                *c += 1;
            }
            None
        }
        Some(w) => {
            let mut out_w = vec![0f32; m];
            for ((&k, &v), &w) in keys.iter().zip(vals).zip(w) {
                let c = &mut cursor[k as usize];
                out[*c] = v;
                out_w[*c] = w;
                *c += 1;
            }
            Some(out_w)
        }
    };
    (offsets, out, out_w)
}

/// Counting-sort edges into adjacency order keyed by `key(edge)`.
///
/// Returns `(offsets, order)` where `order[i]` is the input index of the
/// edge placed at adjacency position `i`. The sort is stable, so neighbors
/// retain input order.
fn bucket_edges<K: Fn(usize) -> usize>(
    num_keys: usize,
    num_edges: usize,
    key: K,
) -> (Vec<EdgeId>, Vec<usize>) {
    let mut counts = vec![0usize; num_keys + 1];
    for e in 0..num_edges {
        counts[key(e) + 1] += 1;
    }
    for i in 0..num_keys {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut order = vec![0usize; num_edges];
    for e in 0..num_edges {
        let k = key(e);
        order[counts[k]] = e;
        counts[k] += 1;
    }
    (offsets, order)
}

impl Csr {
    /// Builds a CSR from an edge list (stable counting sort by source).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let (offsets, targets, weights) =
            scatter_by_key(el.num_vertices(), el.srcs(), el.dsts(), el.weights());
        Csr {
            offsets,
            targets,
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
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of `v` in input order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Adjacency range of `v` as indices into [`targets`](Self::targets).
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Flat targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Offset array of length `n + 1`.
    #[inline]
    pub fn offsets(&self) -> &[EdgeId] {
        &self.offsets
    }

    /// Edge weights aligned with [`targets`](Self::targets), if present.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Weight of adjacency slot `e` (1.0 when unweighted).
    #[inline]
    pub fn weight_at(&self, e: EdgeId) -> f32 {
        self.weights.as_ref().map_or(1.0, |w| w[e])
    }

    /// Out-degrees of all vertices.
    pub fn out_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v as VertexId) as u32)
            .collect()
    }

    /// Heap bytes consumed by this structure (measured, not modeled).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<EdgeId>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<f32>())
    }
}

/// A pruned partition CSR: only vertices with at least one edge in the
/// partition are stored, each with an explicit identifier.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunedCsr {
    /// Identifiers of the stored (source) vertices, ascending.
    vertex_ids: Vec<VertexId>,
    /// `offsets[i]..offsets[i+1]` indexes the adjacency of `vertex_ids[i]`.
    offsets: Vec<EdgeId>,
    targets: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

impl PrunedCsr {
    /// Number of stored (non-pruned) vertices — the quantity that grows with
    /// the replication factor.
    #[inline]
    pub fn num_stored_vertices(&self) -> usize {
        self.vertex_ids.len()
    }

    /// Number of edges in this partition.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Stored vertex identifiers (ascending).
    #[inline]
    pub fn vertex_ids(&self) -> &[VertexId] {
        &self.vertex_ids
    }

    /// Adjacency of the `i`-th stored vertex.
    #[inline]
    pub fn neighbors_at(&self, i: usize) -> &[VertexId] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Adjacency range of the `i`-th stored vertex.
    #[inline]
    pub fn edge_range_at(&self, i: usize) -> std::ops::Range<EdgeId> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Flat targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Weight of adjacency slot `e` (1.0 when unweighted).
    #[inline]
    pub fn weight_at(&self, e: EdgeId) -> f32 {
        self.weights.as_ref().map_or(1.0, |w| w[e])
    }

    /// Heap bytes consumed (measured).
    pub fn heap_bytes(&self) -> usize {
        self.vertex_ids.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<EdgeId>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<f32>())
    }
}

/// `P` pruned CSR partitions under a [`PartitionSet`].
///
/// With partitioning by destination, partition `p` contains every edge whose
/// destination lies in `set.range(p)`, indexed by source: a forward traversal
/// of partition `p` touches an arbitrary subset of sources but only writes
/// destinations in `p`'s range.
#[derive(Clone, Debug)]
pub struct PartitionedCsr {
    parts: Vec<PrunedCsr>,
}

impl PartitionedCsr {
    /// Partitions `el` under `set` and builds one pruned CSR per partition:
    /// [`from_csr`](Self::from_csr) over the edge list's [`Csr`].
    pub fn new(el: &EdgeList, set: &PartitionSet) -> Self {
        Self::from_csr(&Csr::from_edge_list(el), set)
    }

    /// Splits `csr` into one pruned CSR per partition of `set`, in two
    /// passes over the CSR in CSR order: the first counts each partition's
    /// edges and stored sources, the second fills exact-capacity arrays.
    /// Stored sources come out ascending and each source's targets keep
    /// CSR order, which is edge-list order.
    pub fn from_csr(csr: &Csr, set: &PartitionSet) -> Self {
        let p = set.num_partitions();
        assert_eq!(
            set.num_vertices(),
            csr.num_vertices(),
            "partition set and CSR disagree on |V|"
        );
        let targets = csr.targets();
        // `last[q]` is one past the last source stored in partition `q`
        // (0: none yet), so a source is counted once per partition.
        let mut last = vec![0usize; p];
        let mut edges = vec![0usize; p];
        let mut sources = vec![0usize; p];
        for u in 0..csr.num_vertices() {
            for &v in csr.neighbors(u as VertexId) {
                let q = set.edge_home(u as VertexId, v);
                edges[q] += 1;
                if last[q] != u + 1 {
                    last[q] = u + 1;
                    sources[q] += 1;
                }
            }
        }

        let mut parts: Vec<PrunedCsr> = (0..p)
            .map(|q| PrunedCsr {
                vertex_ids: Vec::with_capacity(sources[q]),
                offsets: Vec::with_capacity(sources[q] + 1),
                targets: Vec::with_capacity(edges[q]),
                weights: csr.weights().map(|_| Vec::with_capacity(edges[q])),
            })
            .collect();
        last.fill(0);
        for u in 0..csr.num_vertices() {
            for e in csr.edge_range(u as VertexId) {
                let v = targets[e];
                let q = set.edge_home(u as VertexId, v);
                let part = &mut parts[q];
                if last[q] != u + 1 {
                    last[q] = u + 1;
                    part.vertex_ids.push(u as VertexId);
                    part.offsets.push(part.targets.len());
                }
                part.targets.push(v);
                if let (Some(out), Some(w)) = (&mut part.weights, csr.weights()) {
                    out.push(w[e]);
                }
            }
        }
        for part in &mut parts {
            part.offsets.push(part.targets.len());
        }
        PartitionedCsr { parts }
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// The pruned CSR of partition `p`.
    #[inline]
    pub fn part(&self, p: usize) -> &PrunedCsr {
        &self.parts[p]
    }

    /// Total number of edges across partitions.
    pub fn num_edges(&self) -> usize {
        self.parts.iter().map(|p| p.num_edges()).sum()
    }

    /// Total stored vertices across partitions (`r(p) * |V|` in the paper's
    /// §II.D terminology).
    pub fn total_stored_vertices(&self) -> usize {
        self.parts.iter().map(|p| p.num_stored_vertices()).sum()
    }

    /// Heap bytes consumed (measured).
    pub fn heap_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.heap_bytes()).sum()
    }
}

/// Unpruned partitioned CSR (Polymer's layout, §II.E): every partition keeps
/// a full `n + 1` offset array, so storage grows as `p · |V| · be + |E| · bv`.
#[derive(Clone, Debug)]
pub struct UnprunedPartitionedCsr {
    parts: Vec<Csr>,
}

impl UnprunedPartitionedCsr {
    /// Partitions `el` under `set`, building a full-width CSR per partition.
    pub fn new(el: &EdgeList, set: &PartitionSet) -> Self {
        let p = set.num_partitions();
        let n = el.num_vertices();
        let srcs = el.srcs();
        let dsts = el.dsts();
        let (offsets, order) = bucket_edges(p, el.num_edges(), |e| set.edge_home(srcs[e], dsts[e]));
        let parts = (0..p)
            .map(|i| {
                let idx = &order[offsets[i]..offsets[i + 1]];
                let mut sub = EdgeList::with_capacity(n, idx.len());
                match el.weights() {
                    None => {
                        for &e in idx {
                            sub.push(srcs[e], dsts[e]);
                        }
                    }
                    Some(w) => {
                        for &e in idx {
                            sub.push_weighted(srcs[e], dsts[e], w[e]);
                        }
                    }
                }
                Csr::from_edge_list(&sub)
            })
            .collect();
        UnprunedPartitionedCsr { parts }
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// The full-width CSR of partition `p`.
    #[inline]
    pub fn part(&self, p: usize) -> &Csr {
        &self.parts[p]
    }

    /// Heap bytes consumed (measured).
    pub fn heap_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionBy;
    use proptest::prelude::*;

    /// The example graph of Figure 1: 6 vertices, 14 edges, reconstructed
    /// from the CSR offsets `0 5 5 6 8 9 [14]` and destination array shown
    /// in the figure.
    pub(crate) fn figure1_graph() -> EdgeList {
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
    fn csr_matches_figure1() {
        // Figure 1 top-left: CSR indices 0 5 5 6 8 9 [14] for sources 0..5.
        let csr = Csr::from_edge_list(&figure1_graph());
        assert_eq!(csr.offsets(), &[0, 5, 5, 6, 8, 9, 14]);
        assert_eq!(csr.neighbors(0), &[1, 2, 3, 4, 5]);
        assert!(csr.neighbors(1).is_empty());
        assert_eq!(csr.neighbors(3), &[4, 5]);
        assert_eq!(csr.neighbors(5), &[0, 1, 2, 3, 4]);
        assert_eq!(csr.num_edges(), 14);
    }

    #[test]
    fn csr_empty_and_isolated() {
        let el = EdgeList::new(3);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.out_degree(1), 0);
        assert!(csr.neighbors(2).is_empty());
    }

    #[test]
    fn csr_weighted() {
        let el = EdgeList::from_weighted_edges(3, &[(1, 0, 5.0), (0, 2, 1.5), (0, 1, 2.5)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.neighbors(0), &[2, 1]); // stable input order
        assert_eq!(csr.weight_at(csr.edge_range(0).start), 1.5);
        assert_eq!(csr.weight_at(csr.edge_range(1).start), 5.0);
    }

    #[test]
    fn pruned_skips_zero_degree() {
        let el = EdgeList::from_edges(10, &[(9, 0), (5, 1), (5, 2)]);
        let set = PartitionSet::whole(10, PartitionBy::Destination);
        let built = PartitionedCsr::from_csr(&Csr::from_edge_list(&el), &set);
        let pc = built.part(0);
        assert_eq!(pc.num_stored_vertices(), 2);
        assert_eq!(pc.vertex_ids(), &[5, 9]);
        assert_eq!(pc.neighbors_at(0), &[1, 2]);
        assert_eq!(pc.neighbors_at(1), &[0]);
        assert_eq!(pc.num_edges(), 3);
    }

    /// The split's reference: the CSR filtered once per partition.
    fn naive_split(csr: &Csr, set: &PartitionSet) -> Vec<PrunedCsr> {
        let targets = csr.targets();
        (0..set.num_partitions())
            .map(|q| {
                let mut part = PrunedCsr {
                    vertex_ids: Vec::new(),
                    offsets: vec![0],
                    targets: Vec::new(),
                    weights: csr.weights().map(|_| Vec::new()),
                };
                for u in 0..csr.num_vertices() as VertexId {
                    let home: Vec<EdgeId> = csr
                        .edge_range(u)
                        .filter(|&e| set.edge_home(u, targets[e]) == q)
                        .collect();
                    if home.is_empty() {
                        continue;
                    }
                    part.vertex_ids.push(u);
                    for e in home {
                        part.targets.push(targets[e]);
                        if let Some(w) = &mut part.weights {
                            w.push(csr.weight_at(e));
                        }
                    }
                    part.offsets.push(part.targets.len());
                }
                part
            })
            .collect()
    }

    /// A random graph on `1..40` vertices with up to 120 edges drawn with
    /// small weights (so repeats and isolated vertices are common), its
    /// first edge repeated with another weight, under `1..48` partitions.
    /// `mode` picks the `PartitionBy` rule, the balance and whether the
    /// list carries weights.
    fn arb_split_case() -> impl Strategy<Value = (EdgeList, PartitionSet)> {
        (1u32..40, 0usize..120, 1usize..48, 0u32..8).prop_flat_map(|(n, m, p, mode)| {
            let edge = (0..n, 0..n, 0u32..4);
            proptest::collection::vec(edge, m..m + 1).prop_map(move |mut edges| {
                if let Some(&(u, v, w)) = edges.first() {
                    edges.push((u, v, w + 7));
                }
                let by = [PartitionBy::Destination, PartitionBy::Source][(mode & 1) as usize];
                let el = if mode & 4 == 0 {
                    EdgeList::from_edges(
                        n as usize,
                        &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
                    )
                } else {
                    EdgeList::from_weighted_edges(
                        n as usize,
                        &edges
                            .iter()
                            .map(|&(u, v, w)| (u, v, w as f32 + 0.5))
                            .collect::<Vec<_>>(),
                    )
                };
                let set = if mode & 2 == 0 {
                    let degrees = match by {
                        PartitionBy::Destination => el.in_degrees(),
                        PartitionBy::Source => el.out_degrees(),
                    };
                    PartitionSet::edge_balanced(&degrees, p, by)
                } else {
                    PartitionSet::vertex_balanced(n as usize, p, by)
                };
                (el, set)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_csr` equals the per-partition filter of the CSR, field by
        /// field: stored ids, offsets, targets and weight bits.
        #[test]
        fn from_csr_matches_per_partition_filter(case in arb_split_case()) {
            let (el, set) = case;
            let csr = Csr::from_edge_list(&el);
            let got = PartitionedCsr::from_csr(&csr, &set);
            let want = naive_split(&csr, &set);
            prop_assert_eq!(got.num_partitions(), want.len());
            let bits = |w: &Option<Vec<f32>>| {
                w.as_ref().map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            for (q, (g, w)) in got.parts.iter().zip(&want).enumerate() {
                prop_assert_eq!(&g.vertex_ids, &w.vertex_ids, "vertex_ids of partition {}", q);
                prop_assert_eq!(&g.offsets, &w.offsets, "offsets of partition {}", q);
                prop_assert_eq!(&g.targets, &w.targets, "targets of partition {}", q);
                prop_assert_eq!(bits(&g.weights), bits(&w.weights), "weights of partition {}", q);
            }
            prop_assert_eq!(got.num_edges(), el.num_edges());
        }
    }

    #[test]
    fn partitioned_csr_conserves_edges() {
        let el = figure1_graph();
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 2, PartitionBy::Destination);
        let pc = PartitionedCsr::new(&el, &set);
        assert_eq!(pc.num_edges(), el.num_edges());
        // Every edge in partition p has its destination in p's range.
        for p in 0..pc.num_partitions() {
            let part = pc.part(p);
            let range = set.range(p);
            for i in 0..part.num_stored_vertices() {
                for &dst in part.neighbors_at(i) {
                    assert!(range.contains(&dst), "dst {dst} outside partition {p}");
                }
            }
        }
    }

    #[test]
    fn figure1_replication_factor() {
        // The paper reports an average replication factor of 7/6 for the
        // 2-way partitioned CSR of Figure 1 — i.e. 7 stored vertices total.
        let el = figure1_graph();
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 2, PartitionBy::Destination);
        let pc = PartitionedCsr::new(&el, &set);
        assert_eq!(pc.num_partitions(), 2);
        assert_eq!(pc.total_stored_vertices(), 7);
    }

    #[test]
    fn unpruned_keeps_full_offsets() {
        let el = figure1_graph();
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 2, PartitionBy::Destination);
        let up = UnprunedPartitionedCsr::new(&el, &set);
        for p in 0..2 {
            assert_eq!(up.part(p).num_vertices(), 6);
        }
        let total: usize = (0..2).map(|p| up.part(p).num_edges()).sum();
        assert_eq!(total, 14);
    }

    #[test]
    fn heap_bytes_positive() {
        let el = figure1_graph();
        let csr = Csr::from_edge_list(&el);
        assert!(csr.heap_bytes() >= 14 * 4 + 7 * 8);
    }
}
