//! Frontier representations and density classification.
//!
//! A frontier is the set of active vertices of one iteration (§II.A). It
//! caches two quantities consulted by the Algorithm 2 decision: the active
//! vertex count `|F|` and the active out-degree sum `Σ_{v∈F} deg_out(v)`,
//! so classification is O(1) at edge-map time.
//!
//! Sparse frontiers store a sorted vertex list; dense frontiers store a
//! bitmap. Either representation can be materialised from the other; the
//! cached counts are representation-independent.
//!
//! The partitioned executor additionally produces frontiers from **typed
//! per-partition output buffers** ([`PartitionOutput`]): each partition
//! task returns either a sorted vertex list or a range-aligned
//! [`BitmapSegment`], and [`Frontier::from_partition_outputs`] merges them
//! in partition (= ascending vertex) order. When every buffer is sparse the
//! merge is a pure concatenation — `O(Σ outputs)`, no `|V|`-proportional
//! work — which is what removes the dense-merge floor on high-diameter
//! traversals.

use std::sync::Arc;

use gg_graph::bitmap::{AtomicBitmap, Bitmap, BitmapSegment, Ones};
use gg_graph::types::VertexId;
use gg_runtime::buffer::BufferPool;
use gg_runtime::counters::WorkCounters;
use gg_runtime::pool::Pool;

/// Physical representation of the active set.
#[derive(Clone, Debug)]
pub enum FrontierData {
    /// Sorted list of active vertex ids.
    Sparse(Vec<VertexId>),
    /// One bit per vertex.
    Dense(Bitmap),
}

/// A borrowed view of a frontier in its own representation. The
/// partitioned executor's scalar kernels, which test membership once per
/// in-edge, only ever receive the `Dense` form (a sparse frontier's bits
/// are set in a pooled buffer for the round).
#[derive(Clone, Copy, Debug)]
pub enum FrontierView<'a> {
    /// Sorted active list; `contains` binary-searches it (`O(log |F|)`).
    Sparse(&'a [VertexId]),
    /// Bitmap; membership by bit test (`O(1)`).
    Dense(&'a Bitmap),
}

impl FrontierView<'_> {
    /// True if `v` is active.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            FrontierView::Sparse(list) => list.binary_search(&v).is_ok(),
            FrontierView::Dense(b) => b.get(v as usize),
        }
    }
}

/// One partition task's typed next-frontier output buffer: the partition's
/// destination range plus either a sorted vertex list or a range-aligned
/// dense bitmap segment. Produced by the pool tasks of the partitioned
/// executor, merged by [`Frontier::from_partition_outputs`].
#[derive(Clone, Debug)]
pub struct PartitionOutput {
    /// The destination range the emitting partition owns.
    pub range: std::ops::Range<VertexId>,
    /// The activated destinations, in the planned representation.
    pub data: PartitionOutputData,
}

/// The payload of a [`PartitionOutput`].
#[derive(Clone, Debug)]
pub enum PartitionOutputData {
    /// Sorted, deduplicated vertex ids inside the partition's range.
    Sparse(Vec<VertexId>),
    /// Range-aligned bitmap covering exactly the partition's range.
    Dense(BitmapSegment),
}

impl PartitionOutput {
    /// Number of activated destinations in this buffer.
    pub fn count(&self) -> usize {
        match &self.data {
            PartitionOutputData::Sparse(list) => list.len(),
            PartitionOutputData::Dense(seg) => seg.count_ones(),
        }
    }

    /// True when the buffer is a sorted vertex list.
    pub fn is_sparse(&self) -> bool {
        matches!(self.data, PartitionOutputData::Sparse(_))
    }
}

/// A set of active vertices with cached density statistics.
///
/// ```
/// use gg_core::frontier::Frontier;
///
/// let out_degrees = [2u32, 0, 5, 1];
/// let f = Frontier::from_sparse(vec![2, 0], 4, &out_degrees);
/// assert_eq!(f.len(), 2);
/// assert_eq!(f.degree_sum(), 7);
/// assert_eq!(f.density_metric(), 9); // |F| + Σ deg_out(F), Algorithm 2
/// assert!(f.contains(2) && !f.contains(1));
/// ```
#[derive(Debug)]
pub struct Frontier {
    n: usize,
    data: FrontierData,
    count: usize,
    degree_sum: u64,
    /// When the dense storage came out of a [`BufferPool`], how to give it
    /// back on drop: the pool plus the word indices the merge (or the
    /// probe copy, [`to_pooled_bitmap`](Self::to_pooled_bitmap)) touched
    /// (`None` = untracked, the next taker zeroes the whole buffer).
    recycle: Option<Recycle>,
}

#[derive(Debug)]
struct Recycle {
    pool: Arc<BufferPool>,
    touched: Option<Vec<u32>>,
}

impl Clone for Frontier {
    fn clone(&self) -> Self {
        // The clone owns a plain allocation: recycling stays with the
        // original so the buffer is returned exactly once.
        Frontier {
            n: self.n,
            data: self.data.clone(),
            count: self.count,
            degree_sum: self.degree_sum,
            recycle: None,
        }
    }
}

impl Drop for Frontier {
    fn drop(&mut self) {
        if let Some(r) = self.recycle.take() {
            if let FrontierData::Dense(b) = &mut self.data {
                r.pool.put(b.take_words(), r.touched);
            }
        }
    }
}

impl Frontier {
    /// The empty frontier over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Frontier {
            n,
            data: FrontierData::Sparse(Vec::new()),
            count: 0,
            degree_sum: 0,
            recycle: None,
        }
    }

    /// A single-vertex frontier (the classic BFS/BC/BF starting point).
    pub fn single(v: VertexId, n: usize, out_degrees: &[u32]) -> Self {
        Frontier {
            n,
            data: FrontierData::Sparse(vec![v]),
            count: 1,
            degree_sum: out_degrees[v as usize] as u64,
            recycle: None,
        }
    }

    /// The all-vertices frontier (`m` = total edge count, so the cached
    /// degree sum needs no scan).
    pub fn all(n: usize, m: u64) -> Self {
        Frontier {
            n,
            data: FrontierData::Dense(Bitmap::full(n)),
            count: n,
            degree_sum: m,
            recycle: None,
        }
    }

    /// Builds a sparse frontier from a vertex list (sorted and deduped for
    /// deterministic iteration order).
    pub fn from_sparse(mut vertices: Vec<VertexId>, n: usize, out_degrees: &[u32]) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        let count = vertices.len();
        let degree_sum = vertices
            .iter()
            .map(|&v| out_degrees[v as usize] as u64)
            .sum();
        Frontier {
            n,
            data: FrontierData::Sparse(vertices),
            count,
            degree_sum,
            recycle: None,
        }
    }

    /// Builds a dense frontier from a bitmap, computing the statistics in
    /// parallel on `pool`.
    pub fn from_dense(bitmap: Bitmap, out_degrees: &[u32], pool: &Pool) -> Self {
        let n = bitmap.len();
        let words = bitmap.words();
        let tasks = (pool.threads() * 4).min(words.len().max(1));
        let partials: Vec<(usize, u64)> = pool.map_indices(tasks, |t| {
            let lo = words.len() * t / tasks;
            let hi = words.len() * (t + 1) / tasks;
            let mut count = 0usize;
            let mut sum = 0u64;
            for (wi, &w) in words[lo..hi].iter().enumerate() {
                let mut bits = w;
                count += w.count_ones() as usize;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    sum += out_degrees[(lo + wi) * 64 + b] as u64;
                }
            }
            (count, sum)
        });
        let (count, degree_sum) = partials
            .into_iter()
            .fold((0, 0), |(c, s), (pc, ps)| (c + pc, s + ps));
        Frontier {
            n,
            data: FrontierData::Dense(bitmap),
            count,
            degree_sum,
            recycle: None,
        }
    }

    /// Builds a dense frontier from an atomic bitmap produced by a
    /// traversal kernel.
    pub fn from_atomic(bitmap: AtomicBitmap, out_degrees: &[u32], pool: &Pool) -> Self {
        Self::from_dense(bitmap.into_bitmap(), out_degrees, pool)
    }

    /// Builds a sparse frontier from an **already sorted, deduplicated**
    /// vertex list — the no-scan constructor used by the partition-order
    /// merge, where sortedness is structural (partitions own disjoint
    /// ascending ranges).
    pub fn from_sorted(vertices: Vec<VertexId>, n: usize, out_degrees: &[u32]) -> Self {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]), "must be sorted");
        let count = vertices.len();
        let degree_sum = vertices
            .iter()
            .map(|&v| out_degrees[v as usize] as u64)
            .sum();
        Frontier {
            n,
            data: FrontierData::Sparse(vertices),
            count,
            degree_sum,
            recycle: None,
        }
    }

    /// Merges typed per-chunk output buffers into the next frontier,
    /// concatenating in `(partition, chunk)` — i.e. ascending range —
    /// order. Because chunks own disjoint ascending destination ranges,
    /// that *is* ascending vertex order, so the merge is deterministic for
    /// any submission order, partition count, chunk size, thread count,
    /// claim schedule, kernel mix and output-representation mix.
    ///
    /// * Every buffer sparse → a sparse frontier by pure concatenation:
    ///   `O(Σ outputs)` work, **no `O(|V| / 64)` dense floor**.
    /// * Any buffer dense → a dense frontier: segments splice with
    ///   word-level ORs, sparse lists set bits individually. The
    ///   `|V|`-proportional allocation plus all spliced words are recorded
    ///   in `counters.merge_words()` so tests (and the sparse-output
    ///   bench) can pin exactly when the floor is paid. When `scratch` is
    ///   given, the backing words come out of the [`BufferPool`] instead
    ///   of a fresh allocation, the touched words are tracked, and the
    ///   frontier hands the buffer back on drop — so steady-state dense
    ///   rounds recycle one buffer instead of allocating per round.
    ///
    /// `outputs` may arrive in any order; they are keyed by their
    /// disjoint ranges. A split
    /// mega-hub's sub-chunk partials never reach the merge: they are a
    /// different type, which the executor's driver resolves into one
    /// sparse buffer per hub before calling here.
    pub fn from_partition_outputs(
        mut outputs: Vec<PartitionOutput>,
        n: usize,
        out_degrees: &[u32],
        counters: &WorkCounters,
        scratch: Option<&Arc<BufferPool>>,
    ) -> Self {
        outputs.sort_unstable_by_key(|o| o.range.start);
        debug_assert!(outputs
            .windows(2)
            .all(|w| w[0].range.end <= w[1].range.start));
        let total: usize = outputs.iter().map(|o| o.count()).sum();
        if total == 0 {
            return Frontier::empty(n);
        }
        if outputs.iter().all(|o| o.is_sparse()) {
            let mut vertices = Vec::with_capacity(total);
            for o in &outputs {
                if let PartitionOutputData::Sparse(list) = &o.data {
                    vertices.extend_from_slice(list);
                }
            }
            return Frontier::from_sorted(vertices, n, out_degrees);
        }
        // At least one dense buffer: pay the dense merge, and say so.
        let (mut bitmap, mut touched) = match scratch {
            Some(pool) => {
                let (words, touched) = pool.take(n.div_ceil(64));
                (Bitmap::from_zeroed_words(words, n), Some(touched))
            }
            None => (Bitmap::new(n), None),
        };
        // Stop tracking once the touched list approaches the word count:
        // a full-buffer zero on the next take is then the cheaper cleanup.
        let track_limit = bitmap.words().len() / 2;
        let mut merge_words = bitmap.words().len() as u64;
        let mut degree_sum = 0u64;
        for o in &outputs {
            match &o.data {
                PartitionOutputData::Sparse(list) => {
                    for &v in list {
                        bitmap.set(v as usize);
                        degree_sum += out_degrees[v as usize] as u64;
                    }
                    if let Some(t) = &mut touched {
                        t.extend(list.iter().map(|&v| v / 64));
                    }
                }
                PartitionOutputData::Dense(seg) => {
                    seg.splice_into(&mut bitmap);
                    merge_words += seg.num_words() as u64;
                    seg.for_each_one(|v| degree_sum += out_degrees[v] as u64);
                    if let Some(t) = &mut touched {
                        // A shifted splice can spill into one extra word.
                        let r = seg.range();
                        let lo = (r.start / 64) as u32;
                        let hi = (r.end.div_ceil(64) as u32).max(lo + 1);
                        t.extend(lo..hi);
                    }
                }
            }
            if let Some(t) = &touched {
                if t.len() > track_limit {
                    touched = None;
                }
            }
        }
        counters.add_merge_words(merge_words);
        let recycle = scratch.map(|pool| Recycle {
            pool: Arc::clone(pool),
            touched,
        });
        Frontier {
            n,
            data: FrontierData::Dense(bitmap),
            count: total,
            degree_sum,
            recycle,
        }
    }

    /// Number of vertices in the graph (`n`), not the active count.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of active vertices `|F|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no vertex is active (the usual termination condition).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Cached `Σ_{v∈F} deg_out(v)`.
    #[inline]
    pub fn degree_sum(&self) -> u64 {
        self.degree_sum
    }

    /// The Algorithm 2 density metric `|F| + Σ deg_out(F)`.
    #[inline]
    pub fn density_metric(&self) -> u64 {
        self.count as u64 + self.degree_sum
    }

    /// The underlying representation.
    #[inline]
    pub fn data(&self) -> &FrontierData {
        &self.data
    }

    /// True if `v` is active (O(1) dense, O(log |F|) sparse).
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.data {
            FrontierData::Sparse(list) => list.binary_search(&v).is_ok(),
            FrontierData::Dense(b) => b.get(v as usize),
        }
    }

    /// Active count and out-degree sum restricted to `range` — the
    /// per-partition analogue of ([`len`](Self::len),
    /// [`degree_sum`](Self::degree_sum)), consulted by the partitioned
    /// executor's per-partition kernel decision. O(|F ∩ range|) for sparse
    /// frontiers (after an O(log |F|) bound search), O(|range| / 64) words
    /// scanned for dense ones.
    pub fn range_stats(
        &self,
        range: std::ops::Range<VertexId>,
        out_degrees: &[u32],
    ) -> (usize, u64) {
        match &self.data {
            FrontierData::Sparse(list) => {
                let lo = list.partition_point(|&v| v < range.start);
                let hi = list.partition_point(|&v| v < range.end);
                let sum = list[lo..hi]
                    .iter()
                    .map(|&v| out_degrees[v as usize] as u64)
                    .sum();
                (hi - lo, sum)
            }
            FrontierData::Dense(b) => {
                let mut count = 0usize;
                let mut sum = 0u64;
                b.for_each_one_in_range(range.start as usize..range.end as usize, |v| {
                    count += 1;
                    sum += out_degrees[v] as u64;
                });
                (count, sum)
            }
        }
    }

    /// Active vertices as a sorted list (materialises for dense input).
    pub fn to_vertex_list(&self) -> Vec<VertexId> {
        match &self.data {
            FrontierData::Sparse(list) => list.clone(),
            FrontierData::Dense(b) => b.iter_ones().map(|i| i as VertexId).collect(),
        }
    }

    /// Active vertices as a bitmap (materialises for sparse input).
    pub fn to_bitmap(&self) -> Bitmap {
        match &self.data {
            FrontierData::Sparse(list) => Bitmap::from_indices(self.n, list),
            FrontierData::Dense(b) => b.clone(),
        }
    }

    /// A sparse frontier's bits in a word buffer taken from `pool` (`None`
    /// when the frontier already is a bitmap): what the partitioned scalar
    /// kernels probe once per in-edge instead of binary-searching the list.
    /// The copy hands the buffer back on drop (unwinding included) with the
    /// words it touched, which the pool's next `take` clears, so building
    /// and cleaning up both cost `O(|F|)` and a warm pool allocates nothing.
    pub(crate) fn to_pooled_bitmap(&self, pool: &Arc<BufferPool>) -> Option<Frontier> {
        let FrontierData::Sparse(list) = &self.data else {
            return None;
        };
        let (words, mut touched) = pool.take(self.n.div_ceil(64));
        let mut bitmap = Bitmap::from_zeroed_words(words, self.n);
        for &v in list {
            bitmap.set(v as usize);
            // The list ascends, so a word repeats only consecutively.
            if touched.last() != Some(&(v / 64)) {
                touched.push(v / 64);
            }
        }
        Some(Frontier {
            n: self.n,
            data: FrontierData::Dense(bitmap),
            count: self.count,
            degree_sum: self.degree_sum,
            recycle: Some(Recycle {
                pool: Arc::clone(pool),
                touched: Some(touched),
            }),
        })
    }

    /// True when a fused round over this union frontier should densify its
    /// lane words: a sparse list long enough (`|F| ≥ |V| / 64`) that one
    /// `O(|V|)` lane-word array costs less than the per-edge binary
    /// searches of the sparse `(vertex, mask)` list it replaces. (The
    /// scalar kernels need no such rule: they always probe a bitmap, built
    /// in `O(|F|)` in a pooled buffer.)
    pub(crate) fn wants_probe_bitmap(&self) -> bool {
        match &self.data {
            FrontierData::Sparse(list) => self.n >= 64 && list.len() >= self.n / 64,
            FrontierData::Dense(_) => false,
        }
    }

    /// Iterates active vertices in ascending order.
    ///
    /// Returns the concrete [`FrontierIter`] enum — no boxing, no dynamic
    /// dispatch in per-round loops like BFS level assignment.
    pub fn iter(&self) -> FrontierIter<'_> {
        match &self.data {
            FrontierData::Sparse(list) => FrontierIter::Sparse(list.iter()),
            FrontierData::Dense(b) => FrontierIter::Dense(b.iter_ones()),
        }
    }

    /// A borrowed membership view for traversal kernels (no
    /// materialisation in either direction).
    #[inline]
    pub fn view(&self) -> FrontierView<'_> {
        match &self.data {
            FrontierData::Sparse(list) => FrontierView::Sparse(list),
            FrontierData::Dense(b) => FrontierView::Dense(b),
        }
    }

    /// True when physically sparse (vertex list).
    pub fn is_sparse_repr(&self) -> bool {
        matches!(self.data, FrontierData::Sparse(_))
    }
}

/// Concrete iterator over a [`Frontier`]'s active vertices in ascending
/// order — the allocation-free replacement for the former
/// `Box<dyn Iterator>` return of [`Frontier::iter`].
#[derive(Clone, Debug)]
pub enum FrontierIter<'a> {
    /// Walking a sorted vertex list.
    Sparse(std::slice::Iter<'a, VertexId>),
    /// Walking a bitmap's set bits.
    Dense(Ones<'a>),
}

impl Iterator for FrontierIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            FrontierIter::Sparse(it) => it.next().copied(),
            FrontierIter::Dense(it) => it.next().map(|i| i as VertexId),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            FrontierIter::Sparse(it) => it.size_hint(),
            FrontierIter::Dense(_) => (0, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(2)
    }

    #[test]
    fn empty_and_all() {
        let f = Frontier::empty(10);
        assert!(f.is_empty());
        assert_eq!(f.density_metric(), 0);

        let f = Frontier::all(10, 55);
        assert_eq!(f.len(), 10);
        assert_eq!(f.degree_sum(), 55);
        assert_eq!(f.density_metric(), 65);
        assert!(f.contains(9));
    }

    #[test]
    fn sparse_sorts_and_dedups() {
        let deg = vec![1u32, 2, 3, 4, 5];
        let f = Frontier::from_sparse(vec![3, 1, 3, 0], 5, &deg);
        assert_eq!(f.len(), 3);
        assert_eq!(f.to_vertex_list(), vec![0, 1, 3]);
        assert_eq!(f.degree_sum(), 1 + 2 + 4);
    }

    #[test]
    fn dense_statistics_match_sparse() {
        let deg: Vec<u32> = (0..200).map(|i| i % 7).collect();
        let actives: Vec<u32> = (0..200).step_by(3).collect();
        let sparse = Frontier::from_sparse(actives.clone(), 200, &deg);
        let dense = Frontier::from_dense(Bitmap::from_indices(200, &actives), &deg, &pool());
        assert_eq!(sparse.len(), dense.len());
        assert_eq!(sparse.degree_sum(), dense.degree_sum());
        assert_eq!(sparse.to_vertex_list(), dense.to_vertex_list());
    }

    #[test]
    fn conversions_roundtrip() {
        let deg = vec![1u32; 70];
        let f = Frontier::from_sparse(vec![0, 64, 69], 70, &deg);
        let b = f.to_bitmap();
        assert!(b.get(64));
        let back = Frontier::from_dense(b, &deg, &pool());
        assert_eq!(back.to_vertex_list(), vec![0, 64, 69]);
        assert!(back.contains(69));
        assert!(!back.contains(1));
    }

    #[test]
    fn single_vertex() {
        let deg = vec![4u32, 7, 9];
        let f = Frontier::single(1, 3, &deg);
        assert_eq!(f.len(), 1);
        assert_eq!(f.degree_sum(), 7);
        assert!(f.contains(1));
        assert!(!f.contains(0));
    }

    #[test]
    fn range_stats_agree_between_representations() {
        let deg: Vec<u32> = (0..300).map(|i| (i % 11) as u32).collect();
        let actives: Vec<u32> = (0..300).step_by(3).collect();
        let sparse = Frontier::from_sparse(actives.clone(), 300, &deg);
        let dense = Frontier::from_dense(Bitmap::from_indices(300, &actives), &deg, &pool());
        for range in [0u32..300, 0..64, 63..65, 64..128, 17..211, 299..300, 5..5] {
            let s = sparse.range_stats(range.clone(), &deg);
            let d = dense.range_stats(range.clone(), &deg);
            assert_eq!(s, d, "range {range:?}");
            // Brute-force check.
            let want_count = actives.iter().filter(|&&v| range.contains(&v)).count();
            let want_sum: u64 = actives
                .iter()
                .filter(|&&v| range.contains(&v))
                .map(|&v| deg[v as usize] as u64)
                .sum();
            assert_eq!(s, (want_count, want_sum), "range {range:?}");
        }
        // Whole-range stats match the cached totals.
        assert_eq!(
            sparse.range_stats(0..300, &deg),
            (sparse.len(), sparse.degree_sum())
        );
    }

    #[test]
    fn all_sparse_outputs_concatenate_without_dense_merge() {
        let deg: Vec<u32> = (0..200).map(|i| (i % 5) as u32).collect();
        let counters = WorkCounters::new();
        let outputs = vec![
            PartitionOutput {
                range: 70..200,
                data: PartitionOutputData::Sparse(vec![71, 199]),
            },
            PartitionOutput {
                range: 0..70,
                data: PartitionOutputData::Sparse(vec![3, 64]),
            },
        ];
        let f = Frontier::from_partition_outputs(outputs, 200, &deg, &counters, None);
        assert!(f.is_sparse_repr());
        assert_eq!(f.to_vertex_list(), vec![3, 64, 71, 199]);
        let want: u64 = [3u32, 64, 71, 199]
            .iter()
            .map(|&v| deg[v as usize] as u64)
            .sum();
        assert_eq!(f.degree_sum(), want);
        assert_eq!(counters.merge_words(), 0, "no dense merge may be paid");
    }

    #[test]
    fn mixed_outputs_merge_densely_and_record_the_cost() {
        let deg = vec![1u32; 200];
        let counters = WorkCounters::new();
        let seg = BitmapSegment::from_indices(70..200, &[70, 130, 199]);
        let outputs = vec![
            PartitionOutput {
                range: 0..70,
                data: PartitionOutputData::Sparse(vec![0, 69]),
            },
            PartitionOutput {
                range: 70..200,
                data: PartitionOutputData::Dense(seg),
            },
        ];
        let f = Frontier::from_partition_outputs(outputs, 200, &deg, &counters, None);
        assert!(!f.is_sparse_repr());
        assert_eq!(f.to_vertex_list(), vec![0, 69, 70, 130, 199]);
        assert_eq!(f.len(), 5);
        assert_eq!(f.degree_sum(), 5);
        assert!(counters.merge_words() > 0, "dense merge must be recorded");
    }

    #[test]
    fn empty_outputs_merge_to_the_empty_frontier() {
        let deg = vec![1u32; 64];
        let counters = WorkCounters::new();
        let outputs = vec![
            PartitionOutput {
                range: 0..32,
                data: PartitionOutputData::Sparse(Vec::new()),
            },
            PartitionOutput {
                range: 32..64,
                data: PartitionOutputData::Dense(BitmapSegment::new(32..64)),
            },
        ];
        let f = Frontier::from_partition_outputs(outputs, 64, &deg, &counters, None);
        assert!(f.is_empty());
        assert_eq!(counters.merge_words(), 0);
    }

    #[test]
    fn merging_no_outputs_yields_the_empty_frontier() {
        // The all-empty round: every planned partition produced zero
        // chunks (e.g. sparse kernels with no candidates).
        let deg = vec![1u32; 50];
        let counters = WorkCounters::new();
        let f = Frontier::from_partition_outputs(Vec::new(), 50, &deg, &counters, None);
        assert!(f.is_empty());
        assert_eq!(f.universe(), 50);
        assert_eq!(counters.merge_words(), 0);
    }

    /// Chunk-grained outputs (several disjoint sub-range buffers per
    /// partition) merge to exactly the frontier their single-chunk
    /// equivalents produce, for sparse, dense and mixed buffers.
    #[test]
    fn chunk_grained_outputs_merge_like_partition_grained() {
        let deg: Vec<u32> = (0..200).map(|i| (i % 9) as u32).collect();
        let counters = WorkCounters::new();
        // Partition [0, 128) as one sparse buffer…
        let whole = vec![
            PartitionOutput {
                range: 0..128,
                data: PartitionOutputData::Sparse(vec![3, 64, 100, 127]),
            },
            PartitionOutput {
                range: 128..200,
                data: PartitionOutputData::Dense(BitmapSegment::from_indices(
                    128..200,
                    &[130, 199],
                )),
            },
        ];
        // …vs the same sets split into chunk-sized buffers.
        let chunked = vec![
            PartitionOutput {
                range: 0..50,
                data: PartitionOutputData::Sparse(vec![3]),
            },
            PartitionOutput {
                range: 50..90,
                data: PartitionOutputData::Sparse(vec![64]),
            },
            PartitionOutput {
                range: 90..128,
                data: PartitionOutputData::Sparse(vec![100, 127]),
            },
            PartitionOutput {
                range: 128..150,
                data: PartitionOutputData::Dense(BitmapSegment::from_indices(128..150, &[130])),
            },
            PartitionOutput {
                range: 150..200,
                data: PartitionOutputData::Dense(BitmapSegment::from_indices(150..200, &[199])),
            },
        ];
        let a = Frontier::from_partition_outputs(whole, 200, &deg, &counters, None);
        let b = Frontier::from_partition_outputs(chunked, 200, &deg, &counters, None);
        assert_eq!(a.to_vertex_list(), b.to_vertex_list());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.degree_sum(), b.degree_sum());
    }

    /// A pooled dense merge is indistinguishable from an unpooled one, and
    /// the dying frontier's buffer is recycled by the next merge.
    #[test]
    fn pooled_merge_matches_unpooled_and_recycles() {
        let deg = vec![2u32; 300];
        let counters = WorkCounters::new();
        let pool = Arc::new(BufferPool::new());
        let outputs = || {
            vec![
                PartitionOutput {
                    range: 0..100,
                    data: PartitionOutputData::Sparse(vec![1, 64, 99]),
                },
                PartitionOutput {
                    range: 100..300,
                    data: PartitionOutputData::Dense(BitmapSegment::from_indices(
                        100..300,
                        &[100, 250, 299],
                    )),
                },
            ]
        };
        let plain = Frontier::from_partition_outputs(outputs(), 300, &deg, &counters, None);
        let pooled = Frontier::from_partition_outputs(outputs(), 300, &deg, &counters, Some(&pool));
        assert_eq!(pooled.to_vertex_list(), plain.to_vertex_list());
        assert_eq!(pooled.len(), plain.len());
        assert_eq!(pooled.degree_sum(), plain.degree_sum());
        assert_eq!(pool.allocated(), 1);

        // Cloning must not double-return the buffer; the drop does.
        let clone = pooled.clone();
        drop(pooled);
        assert_eq!(pool.idle_buffers(), 1);
        assert_eq!(clone.to_vertex_list(), plain.to_vertex_list());
        drop(clone);
        assert_eq!(pool.idle_buffers(), 1, "clones are not pooled");

        // The next pooled merge recycles the returned words.
        let again = Frontier::from_partition_outputs(outputs(), 300, &deg, &counters, Some(&pool));
        assert_eq!(again.to_vertex_list(), plain.to_vertex_list());
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.allocated(), 1);
    }

    /// A sparse frontier's pooled probe bitmap holds exactly the list, and
    /// its buffer goes back to the pool cleared of exactly those bits.
    #[test]
    fn pooled_probe_bitmap_matches_the_list_and_recycles() {
        let deg = vec![1u32; 300];
        let pool = Arc::new(BufferPool::new());
        let sparse = Frontier::from_sparse(vec![0, 1, 63, 64, 200, 299], 300, &deg);
        let probe = sparse.to_pooled_bitmap(&pool).expect("a list gets a probe");
        assert!(!probe.is_sparse_repr());
        assert_eq!(probe.to_vertex_list(), sparse.to_vertex_list());
        assert_eq!(probe.len(), sparse.len());
        assert_eq!(probe.degree_sum(), sparse.degree_sum());
        drop(probe);
        assert_eq!(pool.idle_buffers(), 1);

        let other = Frontier::from_sparse(vec![5], 300, &deg);
        let probe = other.to_pooled_bitmap(&pool).unwrap();
        assert_eq!(probe.to_vertex_list(), vec![5], "old bits must be cleared");
        assert_eq!((pool.allocated(), pool.recycled()), (1, 1));
        assert!(
            probe.to_pooled_bitmap(&pool).is_none(),
            "a bitmap is its own probe"
        );
    }

    #[test]
    fn views_answer_membership_without_materialising() {
        let deg = vec![1u32; 100];
        let sparse = Frontier::from_sparse(vec![5, 50, 99], 100, &deg);
        let view = sparse.view();
        assert!(view.contains(50) && !view.contains(51));
        assert!(matches!(view, FrontierView::Sparse(&[5, 50, 99])));
        let dense = Frontier::from_dense(Bitmap::from_indices(100, &[5, 50]), &deg, &pool());
        let view = dense.view();
        assert!(view.contains(5) && !view.contains(6));
        assert!(matches!(view, FrontierView::Dense(_)));
    }

    #[test]
    fn from_sorted_matches_from_sparse() {
        let deg: Vec<u32> = (0..50).collect();
        let sorted = Frontier::from_sorted(vec![1, 7, 30], 50, &deg);
        let general = Frontier::from_sparse(vec![30, 1, 7], 50, &deg);
        assert_eq!(sorted.to_vertex_list(), general.to_vertex_list());
        assert_eq!(sorted.degree_sum(), general.degree_sum());
        assert_eq!(sorted.len(), general.len());
    }

    #[test]
    fn iter_matches_list() {
        let deg = vec![0u32; 100];
        let f = Frontier::from_sparse(vec![5, 50, 99], 100, &deg);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![5, 50, 99]);
        let d = Frontier::from_dense(Bitmap::from_indices(100, &[5, 50, 99]), &deg, &pool());
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![5, 50, 99]);
    }
}
