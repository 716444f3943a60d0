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

/// The first index `i >= from` with `s[i] >= target` in the ascending
/// slice `s` (`s.len()` if none): probes `from`, `from + 1`, `from + 3`,
/// `from + 7`, … until one reaches `target`, then binary-searches the last
/// step, so the cost is logarithmic in the distance moved, not in `s.len()`.
fn gallop(s: &[VertexId], from: usize, target: VertexId) -> usize {
    // Invariant: every element of `s[from..lo]` is below `target`.
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < s.len() && s[hi] < target {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(s.len());
    let i = lo + s[lo..hi].partition_point(|&x| x < target);
    // A short stop would stall the join's walk rather than fail it.
    debug_assert!(
        s.get(i).is_none_or(|&x| x >= target),
        "gallop stopped short"
    );
    i
}

impl Csr {
    /// Builds a CSR from an edge list (stable counting sort by source).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let n = el.num_vertices();
        let srcs = el.srcs();
        let (offsets, order) = bucket_edges(n, el.num_edges(), |e| srcs[e] as usize);
        let targets = order.iter().map(|&e| el.dsts()[e]).collect();
        let weights = el.weights().map(|w| order.iter().map(|&e| w[e]).collect());
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
    /// Builds a pruned CSR from a slice of edges (with optional aligned
    /// weights), indexing by **source**.
    pub fn from_edges(edges: &[(VertexId, VertexId)], weights: Option<&[f32]>) -> Self {
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_unstable_by_key(|&e| edges[e].0);

        let mut vertex_ids = Vec::new();
        let mut offsets = vec![0usize];
        let mut targets = Vec::with_capacity(edges.len());
        let mut out_w = weights.map(|_| Vec::with_capacity(edges.len()));
        for &e in &order {
            let (u, v) = edges[e];
            if vertex_ids.last() != Some(&u) {
                vertex_ids.push(u);
                offsets.push(targets.len());
            }
            targets.push(v);
            if let (Some(out), Some(w)) = (&mut out_w, weights) {
                out.push(w[e]);
            }
            *offsets.last_mut().expect("offsets starts at [0]") = targets.len();
        }
        PrunedCsr {
            vertex_ids,
            offsets,
            targets,
            weights: out_w,
        }
    }

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

    /// The sorted-set join of `sorted` (ascending vertex ids) with the
    /// stored sources: calls `f(k, j)` for every `k` whose `sorted[k]` is
    /// stored at index `j`, in ascending `k`. Equivalent to
    /// `vertex_ids().binary_search(&sorted[k])` for every `k`, but `sorted`
    /// is first clipped to `[vertex_ids[0], vertex_ids[last]]` and the walk
    /// then gallops through whichever side is behind from its previous
    /// position, so a short frontier costs `O(|clip| · log gap)` and never
    /// `O(|sorted| · log stored)`.
    pub fn for_each_stored<F: FnMut(usize, usize)>(&self, sorted: &[VertexId], mut f: F) {
        let ids = self.vertex_ids.as_slice();
        let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
            return;
        };
        let mut k = sorted.partition_point(|&u| u < first);
        let end = sorted.partition_point(|&u| u <= last);
        let sorted = &sorted[..end];
        let mut j = 0;
        while k < end {
            // The clip bounds every remaining `sorted[k]` by `last`, so a
            // stored id `>= sorted[k]` exists and `j` stays in bounds.
            j = gallop(ids, j, sorted[k]);
            if ids[j] == sorted[k] {
                f(k, j);
                k += 1;
            } else {
                k = gallop(sorted, k, ids[j]);
            }
        }
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
    set: PartitionSet,
}

impl PartitionedCsr {
    /// Partitions `el` under `set` and builds one pruned CSR per partition.
    pub fn new(el: &EdgeList, set: &PartitionSet) -> Self {
        let p = set.num_partitions();
        let srcs = el.srcs();
        let dsts = el.dsts();
        let (offsets, order) =
            super::csr::bucket_edges(p, el.num_edges(), |e| set.edge_home(srcs[e], dsts[e]));

        let parts = (0..p)
            .map(|i| {
                let idx = &order[offsets[i]..offsets[i + 1]];
                let edges: Vec<(VertexId, VertexId)> =
                    idx.iter().map(|&e| (srcs[e], dsts[e])).collect();
                let w: Option<Vec<f32>> = el
                    .weights()
                    .map(|wts| idx.iter().map(|&e| wts[e]).collect());
                PrunedCsr::from_edges(&edges, w.as_deref())
            })
            .collect();
        PartitionedCsr {
            parts,
            set: set.clone(),
        }
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

    /// The partition set this layout was built under.
    #[inline]
    pub fn partition_set(&self) -> &PartitionSet {
        &self.set
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
    set: PartitionSet,
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
        UnprunedPartitionedCsr {
            parts,
            set: set.clone(),
        }
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

    /// The partition set this layout was built under.
    #[inline]
    pub fn partition_set(&self) -> &PartitionSet {
        &self.set
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
        let pc = PrunedCsr::from_edges(&[(5, 1), (5, 2), (9, 0)], None);
        assert_eq!(pc.num_stored_vertices(), 2);
        assert_eq!(pc.vertex_ids(), &[5, 9]);
        assert_eq!(pc.neighbors_at(0), &[1, 2]);
        assert_eq!(pc.neighbors_at(1), &[0]);
        assert_eq!(pc.num_edges(), 3);
    }

    /// A pruned CSR storing exactly the sources `ids` (one edge each).
    fn stored(ids: &[VertexId]) -> PrunedCsr {
        let edges: Vec<(VertexId, VertexId)> = ids.iter().map(|&u| (u, 0)).collect();
        PrunedCsr::from_edges(&edges, None)
    }

    /// The join's reference: one binary search per `sorted` entry.
    fn naive_join(part: &PrunedCsr, sorted: &[VertexId]) -> Vec<(usize, usize)> {
        (0..sorted.len())
            .filter_map(|k| {
                let j = part.vertex_ids().binary_search(&sorted[k]).ok()?;
                Some((k, j))
            })
            .collect()
    }

    fn join(part: &PrunedCsr, sorted: &[VertexId]) -> Vec<(usize, usize)> {
        let mut hits = Vec::new();
        part.for_each_stored(sorted, |k, j| hits.push((k, j)));
        hits
    }

    /// A sorted, deduplicated id set of at most `max_len` draws from a
    /// window placed at 0, low, mid or the top of the id space (the
    /// largest draw is `u32::MAX - 1`).
    fn arb_set(max_len: usize) -> impl Strategy<Value = Vec<VertexId>> {
        (0u32..4, 1u32..5000, 0usize..max_len).prop_flat_map(|(at, span, len)| {
            let base = [0, 2000, u32::MAX / 2, u32::MAX - span][at as usize];
            proptest::collection::vec(base..base + span, len..len + 1).prop_map(|mut ids| {
                ids.sort_unstable();
                ids.dedup();
                ids
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The clipped galloping join reports exactly the binary-search
        /// hits, for comparable sides, empty sides and disjoint windows.
        #[test]
        fn join_matches_binary_search(ids in arb_set(400), sorted in arb_set(400)) {
            let part = stored(&ids);
            prop_assert_eq!(join(&part, &sorted), naive_join(&part, &sorted));
        }

        /// … and when either side dwarfs the other.
        #[test]
        fn join_matches_binary_search_lopsided(small in arb_set(6), big in arb_set(4000)) {
            let (few, many) = (stored(&small), stored(&big));
            prop_assert_eq!(join(&few, &big), naive_join(&few, &big));
            prop_assert_eq!(join(&many, &small), naive_join(&many, &small));
        }
    }

    #[test]
    fn join_edge_cases() {
        let top = u32::MAX - 1;
        let part = stored(&[3, 10, 11, 40, top]);
        assert_eq!(join(&part, &[]), vec![]);
        assert_eq!(join(&stored(&[]), &[1, 2, 3]), vec![]);
        assert_eq!(join(&part, &[top]), vec![(0, 4)]);
        assert_eq!(join(&part, &[0, 1, 2]), vec![], "entirely below the span");
        assert_eq!(join(&stored(&[5]), &[5]), vec![(0, 0)]);
        assert_eq!(join(&stored(&[5]), &[4, 6]), vec![]);
        // Every stored id, and ids interleaved between them.
        assert_eq!(
            join(&part, &[2, 3, 4, 11, 12, 40, top]),
            vec![(1, 0), (3, 2), (5, 3), (6, 4)]
        );
        // A repeated query id hits once per occurrence.
        assert_eq!(join(&part, &[10, 10]), vec![(0, 1), (1, 1)]);
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
