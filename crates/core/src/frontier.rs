//! Frontier representations and density classification.
//!
//! A frontier is the set of active vertices of one iteration (§II.A). It
//! caches two quantities consulted by the Algorithm 2 decision: the active
//! vertex count `|F|` and the active out-degree sum `Σ_{v∈F} deg_out(v)`,
//! so classification is O(1) at edge-map time.
//!
//! A frontier is generic over its per-vertex [`LaneWord`]: `bool` for a
//! scalar traversal (the default, so [`Frontier`] is the scalar one), a
//! `u64` of up to 64 query lanes for a [fused](crate::fused) one. Either
//! word has the same two forms: **sparse**, ascending vertices plus their
//! parallel words (zero-sized for `bool`, so a scalar list carries no mask
//! vector), and **dense**, one word per vertex (a [`Bitmap`] for `bool`,
//! one `u64` per vertex for `u64`). The cached statistics count the
//! vertices active in at least one lane, so the planner reads a fused
//! frontier exactly as it reads a scalar one.
//!
//! The partitioned executor produces frontiers from **typed per-partition
//! output buffers** ([`PartitionOutput`]): each chunk task returns a sorted
//! list or a dense form over its destination range, and
//! [`Frontier::from_partition_outputs`] merges them in partition (=
//! ascending vertex) order. When every buffer is sparse the merge is a
//! pure concatenation — `O(Σ outputs)`, no `|V|`-proportional work — which
//! is what removes the dense-merge floor on high-diameter traversals.

use std::fmt::Debug;
use std::ops::{BitAnd, BitOrAssign, Range};
use std::sync::Arc;

use gg_graph::bitmap::Bitmap;
use gg_graph::types::VertexId;
use gg_runtime::buffer::BufferPool;
use gg_runtime::counters::WorkCounters;
use gg_runtime::pool::Pool;

use crate::plan::OutputRepr;

mod sealed {
    pub trait Sealed {}
    impl Sealed for bool {}
    impl Sealed for u64 {}
}

/// The per-vertex word of a frontier: `bool` for a scalar traversal, one
/// bit per query in a `u64` for a fused one. The default word holds no
/// lane. Sealed: the word-specific code of every frontier, output buffer
/// and merge lives in these two impls — get, or, segment splice and the
/// counting rules — and nowhere else.
pub trait LaneWord:
    sealed::Sealed
    + Copy
    + Default
    + Eq
    + Debug
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOrAssign
{
    /// Lanes one word holds, hence the bits a dense form spends per vertex.
    const LANES: u32;

    /// Whether dense forms take their words from the engine's
    /// [`BufferPool`]. Scalar bitmaps do; fused lane arrays are 64 times
    /// larger and allocate fresh.
    const POOLED: bool;

    /// Whether a sparse buffer may be filled in any order and sorted once
    /// at the end: true when the list carries no parallel words.
    const PERMUTED_VISIT: bool;

    /// A listed vertex's word as a sparse form stores it: `()` for `bool`
    /// (a listed vertex is active), the word itself for `u64`.
    type Mask: Copy + Debug + Send + Sync;

    /// One word per vertex of a vertex range, indexed from the range start.
    type Dense: Clone + Debug + Send + Sync;

    /// Whether any lane is set.
    #[inline]
    fn any(self) -> bool {
        self != Self::default()
    }

    /// The lanes as a `u64` mask (`true` is lane 0).
    fn bits(self) -> u64;

    /// The word as a sparse form stores it.
    fn pack(self) -> Self::Mask;

    /// The word a sparse form stored as `mask`.
    fn unpack(mask: Self::Mask) -> Self;

    /// Wraps all-zeros storage words (`⌈len · LANES / 64⌉` of them) as the
    /// dense form of `len` vertices.
    fn dense(words: Vec<u64>, len: usize) -> Self::Dense;

    /// Takes the storage words out of a dense form, for recycling.
    fn take_words(dense: &mut Self::Dense) -> Vec<u64>;

    /// Vertex `v`'s word.
    fn get(dense: &Self::Dense, v: usize) -> Self;

    /// ORs `word` into vertex `v`'s word.
    fn or(dense: &mut Self::Dense, v: usize, word: Self);

    /// Vertices with a non-zero word.
    fn count(dense: &Self::Dense) -> usize;

    /// Calls `f(v, word)` for every non-zero word of a vertex in `range`,
    /// ascending.
    fn for_each_in(dense: &Self::Dense, range: Range<usize>, f: impl FnMut(usize, Self));

    /// `(count, degree sum, lane bits)` over the vertices of `range` with a
    /// non-zero word, vertex `v` weighing `out_degrees[v]`: what a dense
    /// merge adds per segment and a dense frontier's
    /// [`range_stats`](Frontier::range_stats) reads.
    fn range_stats(
        dense: &Self::Dense,
        range: Range<usize>,
        out_degrees: &[u32],
    ) -> (usize, u64, u64);

    /// ORs `segment`, a dense form whose vertex 0 is `target`'s vertex
    /// `at`, into `target`.
    fn splice(target: &mut Self::Dense, at: usize, segment: &Self::Dense);

    /// Whether a round over a sparse frontier of `len` of `n` vertices
    /// reads source words from a dense copy rather than binary-searching
    /// the list once per in-edge.
    fn wants_probe(len: usize, n: usize) -> bool;

    /// Records one merge's costs in `counters`: `spliced` is the storage
    /// words of the dense outputs spliced (`None` when every output was
    /// sparse) and `merged` the merge's result.
    fn tally_merge(
        counters: &WorkCounters,
        n: usize,
        spliced: Option<u64>,
        merged: &Frontier<Self>,
    );
}

impl LaneWord for bool {
    const LANES: u32 = 1;
    const POOLED: bool = true;
    // A sorted vertex list is a sorted frontier.
    const PERMUTED_VISIT: bool = true;
    type Mask = ();
    type Dense = Bitmap;

    #[inline]
    fn bits(self) -> u64 {
        self as u64
    }

    #[inline]
    fn pack(self) {}

    #[inline]
    fn unpack((): ()) -> bool {
        true
    }

    fn dense(words: Vec<u64>, len: usize) -> Bitmap {
        Bitmap::from_zeroed_words(words, len)
    }

    fn take_words(dense: &mut Bitmap) -> Vec<u64> {
        dense.take_words()
    }

    #[inline]
    fn get(dense: &Bitmap, v: usize) -> bool {
        dense.get(v)
    }

    #[inline]
    fn or(dense: &mut Bitmap, v: usize, word: bool) {
        if word {
            dense.set(v);
        }
    }

    fn count(dense: &Bitmap) -> usize {
        dense.count_ones()
    }

    #[inline]
    fn for_each_in(dense: &Bitmap, range: Range<usize>, mut f: impl FnMut(usize, bool)) {
        dense.for_each_one_in_range(range, |v| f(v, true));
    }

    /// By the storage word: a word whose bits inside `range` are all set
    /// adds its vertices' out-degrees as one consecutive slice, any other
    /// word walks its set bits. Each word is masked to `range`, so a range
    /// may start and end mid-word.
    fn range_stats(dense: &Bitmap, range: Range<usize>, out_degrees: &[u32]) -> (usize, u64, u64) {
        let (words, mut count, mut degree_sum) = (dense.words(), 0usize, 0u64);
        let mut lo = range.start;
        while lo < range.end {
            let wi = lo / 64;
            let hi = ((wi + 1) * 64).min(range.end);
            let mask = (u64::MAX >> (64 - (hi - lo))) << (lo % 64);
            let bits = words[wi] & mask;
            if bits == mask {
                count += hi - lo;
                degree_sum += out_degrees[lo..hi].iter().map(|&d| d as u64).sum::<u64>();
            } else {
                count += bits.count_ones() as usize;
                let mut rest = bits;
                while rest != 0 {
                    degree_sum += out_degrees[wi * 64 + rest.trailing_zeros() as usize] as u64;
                    rest &= rest - 1;
                }
            }
            lo = hi;
        }
        (count, degree_sum, count as u64)
    }

    fn splice(target: &mut Bitmap, at: usize, segment: &Bitmap) {
        target.or_at(at, segment);
    }

    /// Always: the scalar kernels test membership once per in-edge, and a
    /// list's bits set in a pooled buffer cost `O(|F|)` to build and clean.
    fn wants_probe(_len: usize, _n: usize) -> bool {
        true
    }

    /// A non-empty dense merge adds its whole-bitmap allocation
    /// (`⌈n / 64⌉` words) plus the spliced segment words to
    /// [`WorkCounters::merge_words`].
    fn tally_merge(counters: &WorkCounters, n: usize, spliced: Option<u64>, merged: &Frontier) {
        if let Some(spliced) = spliced.filter(|_| !merged.is_empty()) {
            counters.add_merge_words(n.div_ceil(64) as u64 + spliced);
        }
    }
}

impl LaneWord for u64 {
    const LANES: u32 = 64;
    const POOLED: bool = false;
    // A list's masks would have to move with its vertices.
    const PERMUTED_VISIT: bool = false;
    type Mask = u64;
    type Dense = Vec<u64>;

    #[inline]
    fn bits(self) -> u64 {
        self
    }

    #[inline]
    fn pack(self) -> u64 {
        self
    }

    #[inline]
    fn unpack(mask: u64) -> u64 {
        mask
    }

    fn dense(words: Vec<u64>, len: usize) -> Vec<u64> {
        debug_assert_eq!(words.len(), len);
        debug_assert!(words.iter().all(|&w| w == 0), "buffer must be zeroed");
        words
    }

    fn take_words(dense: &mut Vec<u64>) -> Vec<u64> {
        std::mem::take(dense)
    }

    #[inline]
    fn get(dense: &Vec<u64>, v: usize) -> u64 {
        dense[v]
    }

    #[inline]
    fn or(dense: &mut Vec<u64>, v: usize, word: u64) {
        dense[v] |= word;
    }

    fn count(dense: &Vec<u64>) -> usize {
        dense.iter().filter(|&&w| w != 0).count()
    }

    #[inline]
    fn for_each_in(dense: &Vec<u64>, range: Range<usize>, mut f: impl FnMut(usize, u64)) {
        let start = range.start;
        for (i, &w) in dense[range].iter().enumerate() {
            if w != 0 {
                f(start + i, w);
            }
        }
    }

    fn range_stats(
        dense: &Vec<u64>,
        range: Range<usize>,
        out_degrees: &[u32],
    ) -> (usize, u64, u64) {
        let (mut count, mut degree_sum, mut lane_bits) = (0usize, 0u64, 0u64);
        for (&w, &d) in dense[range.clone()].iter().zip(&out_degrees[range]) {
            if w != 0 {
                count += 1;
                degree_sum += d as u64;
                lane_bits += w.count_ones() as u64;
            }
        }
        (count, degree_sum, lane_bits)
    }

    fn splice(target: &mut Vec<u64>, at: usize, segment: &Vec<u64>) {
        assert!(
            at + segment.len() <= target.len(),
            "segment {at}..{} exceeds {} vertices",
            at + segment.len(),
            target.len()
        );
        for (slot, &w) in target[at..].iter_mut().zip(segment) {
            *slot |= w;
        }
    }

    /// When the list is long enough (`|F| ≥ |V| / 64`) that one `O(|V|)`
    /// lane array costs less than the per-edge binary searches it replaces.
    fn wants_probe(len: usize, n: usize) -> bool {
        n >= 64 && len >= n / 64
    }

    /// A dense merge adds the spliced segment words (one per covered
    /// vertex) to [`WorkCounters::lane_union_words`], whatever it merged;
    /// every merge adds its lane bits to [`WorkCounters::fused_lanes`].
    fn tally_merge(
        counters: &WorkCounters,
        _n: usize,
        spliced: Option<u64>,
        merged: &Frontier<u64>,
    ) {
        if let Some(spliced) = spliced {
            counters.add_lane_union_words(spliced);
        }
        counters.add_fused_lanes(merged.lane_bits());
    }
}

/// Storage words of a dense form over `len` vertices.
#[inline]
fn dense_words<W: LaneWord>(len: usize) -> usize {
    (len * W::LANES as usize).div_ceil(64)
}

/// The storage word holding vertex `v`.
#[inline]
fn word_of<W: LaneWord>(v: usize) -> u32 {
    (v * W::LANES as usize / 64) as u32
}

/// Physical representation of an active set.
#[derive(Clone, Debug)]
pub enum FrontierData<W: LaneWord = bool> {
    /// Ascending active vertices and their parallel words.
    Sparse {
        /// Active vertices, ascending.
        verts: Vec<VertexId>,
        /// `masks[i]` is the word of `verts[i]` (never empty).
        masks: Vec<W::Mask>,
    },
    /// One word per vertex.
    Dense(W::Dense),
}

/// A borrowed view of a frontier in its own representation, cheap to copy
/// into kernels. The partitioned executor's scalar kernels, which read a
/// source's word once per in-edge, only ever receive the `Dense` form (a
/// sparse frontier's words are set in a pooled buffer for the round).
#[derive(Debug)]
pub enum FrontierView<'a, W: LaneWord = bool> {
    /// Sorted active list; `get` binary-searches it (`O(log |F|)`).
    Sparse {
        /// Active vertices, ascending.
        verts: &'a [VertexId],
        /// Their parallel words.
        masks: &'a [W::Mask],
    },
    /// One word per vertex; `get` indexes it (`O(1)`).
    Dense(&'a W::Dense),
}

// By hand: a derive would ask the dense form itself to be `Copy`.
impl<W: LaneWord> Clone for FrontierView<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W: LaneWord> Copy for FrontierView<'_, W> {}

impl<W: LaneWord> FrontierView<'_, W> {
    /// The word of `v` (empty when `v` is inactive).
    #[inline]
    pub fn get(&self, v: VertexId) -> W {
        match *self {
            FrontierView::Sparse { verts, masks } => match verts.binary_search(&v) {
                Ok(i) => W::unpack(masks[i]),
                Err(_) => W::default(),
            },
            FrontierView::Dense(dense) => W::get(dense, v as usize),
        }
    }

    /// True if `v` is active in some lane.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.get(v).any()
    }
}

/// One partition task's typed next-frontier output buffer: the destination
/// range it owns plus either a sorted list or a dense form over exactly
/// that range (indexed from `range.start`). Filled by exactly one pool task
/// of the partitioned executor — plain stores, no atomics — and merged by
/// [`Frontier::from_partition_outputs`].
#[derive(Clone, Debug)]
pub struct PartitionOutput<W: LaneWord = bool> {
    /// The destination range the emitting task owns.
    pub range: Range<VertexId>,
    /// The activated destinations, in the planned representation.
    pub data: FrontierData<W>,
}

impl<W: LaneWord> PartitionOutput<W> {
    /// An empty buffer of representation `repr` over `range`.
    pub fn new(repr: OutputRepr, range: Range<VertexId>) -> Self {
        let data = match repr {
            OutputRepr::Sparse => FrontierData::Sparse {
                verts: Vec::new(),
                masks: Vec::new(),
            },
            OutputRepr::Dense => {
                let len = range.len();
                FrontierData::Dense(W::dense(vec![0; dense_words::<W>(len)], len))
            }
        };
        PartitionOutput { range, data }
    }

    /// Records that `v` joins the next frontier in the non-empty `word`.
    /// A pull calls it at most once per destination, ascending; a sparse
    /// buffer of a [`LaneWord::PERMUTED_VISIT`] word may be filled in any
    /// order and repeat a vertex (the scalar push records every
    /// activation) until the executor's `finish` sorts and dedups it.
    #[inline]
    pub fn push(&mut self, v: VertexId, word: W) {
        debug_assert!(word.any());
        debug_assert!(self.range.contains(&v));
        match &mut self.data {
            FrontierData::Sparse { verts, masks } => {
                debug_assert!(W::PERMUTED_VISIT || verts.last().is_none_or(|&last| last < v));
                verts.push(v);
                masks.push(word.pack());
            }
            FrontierData::Dense(dense) => W::or(dense, (v - self.range.start) as usize, word),
        }
    }

    /// Restores the ascending, repeat-free order the merge expects to a
    /// sparse buffer filled in any order ([`LaneWord::PERMUTED_VISIT`]:
    /// its words carry nothing, so dropping a repeat drops no lane).
    pub(crate) fn finish(&mut self) {
        if let FrontierData::Sparse { verts, masks } = &mut self.data {
            if W::PERMUTED_VISIT {
                verts.sort_unstable();
                verts.dedup();
                masks.truncate(verts.len());
            }
        }
    }

    /// Number of activated destinations in this buffer.
    pub fn count(&self) -> usize {
        match &self.data {
            FrontierData::Sparse { verts, .. } => verts.len(),
            FrontierData::Dense(dense) => W::count(dense),
        }
    }

    /// True when the buffer is a sorted list.
    pub fn is_sparse(&self) -> bool {
        matches!(self.data, FrontierData::Sparse { .. })
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
pub struct Frontier<W: LaneWord = bool> {
    n: usize,
    /// Lanes in use (1 for a scalar frontier).
    lanes: u32,
    data: FrontierData<W>,
    /// Vertices active in at least one lane.
    count: usize,
    degree_sum: u64,
    /// Set lane bits, Σ popcount: the fused work volume.
    lane_bits: u64,
    /// When the dense storage came out of a [`BufferPool`], how to give it
    /// back on drop: the pool plus the word indices the merge (or the
    /// probe copy, `densified`) touched (`None` = untracked, the next
    /// taker zeroes the whole buffer).
    recycle: Option<Recycle>,
}

#[derive(Debug)]
struct Recycle {
    pool: Arc<BufferPool>,
    touched: Option<Vec<u32>>,
}

impl<W: LaneWord> Clone for Frontier<W> {
    fn clone(&self) -> Self {
        // The clone owns a plain allocation: recycling stays with the
        // original so the buffer is returned exactly once.
        Frontier {
            data: self.data.clone(),
            recycle: None,
            ..*self
        }
    }
}

impl<W: LaneWord> Drop for Frontier<W> {
    fn drop(&mut self) {
        if let Some(r) = self.recycle.take() {
            if let FrontierData::Dense(dense) = &mut self.data {
                r.pool.put(W::take_words(dense), r.touched);
            }
        }
    }
}

/// An all-zeros buffer of `len` words: from `scratch` with a touched-word
/// list to fill, or freshly allocated and untracked.
fn take_buffer(scratch: Option<&Arc<BufferPool>>, len: usize) -> (Vec<u64>, Option<Vec<u32>>) {
    match scratch {
        Some(pool) => {
            let (words, touched) = pool.take(len);
            (words, Some(touched))
        }
        None => (vec![0; len], None),
    }
}

impl<W: LaneWord> Frontier<W> {
    /// A sparse frontier over an **already sorted, deduplicated** list
    /// whose masks are non-empty.
    fn from_list(
        verts: Vec<VertexId>,
        masks: Vec<W::Mask>,
        n: usize,
        lanes: u32,
        out_degrees: &[u32],
    ) -> Self {
        debug_assert!(verts.windows(2).all(|w| w[0] < w[1]), "must be sorted");
        debug_assert_eq!(verts.len(), masks.len());
        let degree_sum = verts.iter().map(|&v| out_degrees[v as usize] as u64).sum();
        let lane_bits = masks
            .iter()
            .map(|&m| W::unpack(m).bits().count_ones() as u64)
            .sum();
        Frontier {
            n,
            lanes,
            count: verts.len(),
            data: FrontierData::Sparse { verts, masks },
            degree_sum,
            lane_bits,
            recycle: None,
        }
    }

    /// The empty frontier over this one's vertices and lanes.
    pub fn empty_like(&self) -> Self {
        Self::from_list(Vec::new(), Vec::new(), self.n, self.lanes, &[])
    }

    /// Merges typed per-chunk output buffers into the next frontier over
    /// `n` vertices and `lanes` lanes, concatenating in `(partition,
    /// chunk)` — i.e. ascending range — order. Because chunks own disjoint
    /// ascending destination ranges, that *is* ascending vertex order, so
    /// the merge is deterministic for any submission order, partition
    /// count, chunk size, thread count, claim schedule, kernel mix and
    /// output-representation mix.
    ///
    /// * Every buffer sparse → a sparse frontier by pure concatenation:
    ///   `O(Σ outputs)` work, **no `O(|V|)` dense floor**.
    /// * Any buffer dense → a dense frontier: dense buffers splice with
    ///   word-level ORs, lists set their words one by one. When `scratch`
    ///   is given, the storage comes out of the [`BufferPool`] instead of
    ///   a fresh allocation, the touched words are tracked, and the
    ///   frontier hands the buffer back on drop — so steady-state dense
    ///   rounds recycle one buffer instead of allocating per round.
    ///
    /// What the merge cost goes to `counters` by the word's rule
    /// ([`LaneWord::tally_merge`]), so tests can pin exactly when the
    /// floor is paid. `outputs` may arrive in any order; they are keyed by
    /// their disjoint ranges. A split mega-hub's sub-chunk partials never
    /// reach the merge: they are a different type, which the executor's
    /// driver resolves into one sparse buffer per hub before calling here.
    pub fn from_partition_outputs(
        mut outputs: Vec<PartitionOutput<W>>,
        n: usize,
        lanes: u32,
        out_degrees: &[u32],
        counters: &WorkCounters,
        scratch: Option<&Arc<BufferPool>>,
    ) -> Self {
        outputs.sort_unstable_by_key(|o| o.range.start);
        debug_assert!(outputs
            .windows(2)
            .all(|w| w[0].range.end <= w[1].range.start));
        let total: usize = outputs.iter().map(PartitionOutput::count).sum();
        let dense = outputs.iter().filter(|o| !o.is_sparse());
        let spliced = dense
            .map(|o| dense_words::<W>(o.range.len()) as u64)
            .reduce(|a, b| a + b);
        let merged = if total == 0 {
            Self::from_list(Vec::new(), Vec::new(), n, lanes, out_degrees)
        } else if spliced.is_none() {
            let (mut verts, mut masks) = (Vec::with_capacity(total), Vec::with_capacity(total));
            for o in &outputs {
                if let FrontierData::Sparse { verts: v, masks: m } = &o.data {
                    verts.extend_from_slice(v);
                    masks.extend_from_slice(m);
                }
            }
            Self::from_list(verts, masks, n, lanes, out_degrees)
        } else {
            Self::splice_outputs(&outputs, n, lanes, total, out_degrees, scratch)
        };
        W::tally_merge(counters, n, spliced, &merged);
        merged
    }

    /// The dense half of [`from_partition_outputs`](Self::from_partition_outputs)
    /// over sorted outputs activating `total` vertices.
    fn splice_outputs(
        outputs: &[PartitionOutput<W>],
        n: usize,
        lanes: u32,
        total: usize,
        out_degrees: &[u32],
        scratch: Option<&Arc<BufferPool>>,
    ) -> Self {
        let len = dense_words::<W>(n);
        let (words, mut touched) = take_buffer(scratch, len);
        let mut dense = W::dense(words, n);
        // Stop tracking once the touched list approaches the word count:
        // a full-buffer zero on the next take is then the cheaper cleanup.
        let track_limit = len / 2;
        let (mut degree_sum, mut lane_bits) = (0u64, 0u64);
        for o in outputs {
            match &o.data {
                FrontierData::Sparse { verts, masks } => {
                    for (&v, &m) in verts.iter().zip(masks) {
                        let word = W::unpack(m);
                        W::or(&mut dense, v as usize, word);
                        degree_sum += out_degrees[v as usize] as u64;
                        lane_bits += word.bits().count_ones() as u64;
                    }
                    if let Some(t) = &mut touched {
                        t.extend(verts.iter().map(|&v| word_of::<W>(v as usize)));
                    }
                }
                FrontierData::Dense(segment) => {
                    let (start, end) = (o.range.start as usize, o.range.end as usize);
                    W::splice(&mut dense, start, segment);
                    let (_, degrees, bits) =
                        W::range_stats(segment, 0..end - start, &out_degrees[start..end]);
                    degree_sum += degrees;
                    lane_bits += bits;
                    if let Some(t) = &mut touched {
                        // A shifted splice can spill into one extra word.
                        let lo = word_of::<W>(start);
                        let hi = (dense_words::<W>(end) as u32).max(lo + 1);
                        t.extend(lo..hi);
                    }
                }
            }
            if touched.as_ref().is_some_and(|t| t.len() > track_limit) {
                touched = None;
            }
        }
        Frontier {
            n,
            lanes,
            data: FrontierData::Dense(dense),
            count: total,
            degree_sum,
            lane_bits,
            recycle: scratch.map(|pool| Recycle {
                pool: Arc::clone(pool),
                touched,
            }),
        }
    }

    /// Number of vertices in the graph (`n`), not the active count.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of vertices active in some lane, `|F|`.
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

    /// Lanes in use: the queries of a fused batch, 1 for a scalar frontier.
    pub fn num_lanes(&self) -> u32 {
        self.lanes
    }

    /// The mask covering every lane in use.
    pub fn lane_mask(&self) -> u64 {
        crate::fused::lane_mask(self.lanes)
    }

    /// Total set lane bits (Σ popcount over active vertices).
    pub fn lane_bits(&self) -> u64 {
        self.lane_bits
    }

    /// The underlying representation.
    #[inline]
    pub fn data(&self) -> &FrontierData<W> {
        &self.data
    }

    /// A borrowed view for traversal kernels (no materialisation in either
    /// direction).
    #[inline]
    pub fn view(&self) -> FrontierView<'_, W> {
        match &self.data {
            FrontierData::Sparse { verts, masks } => FrontierView::Sparse { verts, masks },
            FrontierData::Dense(dense) => FrontierView::Dense(dense),
        }
    }

    /// The word of `v` (O(1) dense, O(log |F|) sparse).
    pub fn get(&self, v: VertexId) -> W {
        self.view().get(v)
    }

    /// True if `v` is active in some lane.
    pub fn contains(&self, v: VertexId) -> bool {
        self.view().contains(v)
    }

    /// True when physically sparse (vertex list).
    pub fn is_sparse_repr(&self) -> bool {
        matches!(self.data, FrontierData::Sparse { .. })
    }

    /// Calls `f(v, word)` for every active vertex, ascending.
    #[inline]
    pub fn for_each<F: FnMut(VertexId, W)>(&self, mut f: F) {
        match &self.data {
            FrontierData::Sparse { verts, masks } => {
                for (&v, &m) in verts.iter().zip(masks) {
                    f(v, W::unpack(m));
                }
            }
            FrontierData::Dense(dense) => {
                W::for_each_in(dense, 0..self.n, |v, word| f(v as VertexId, word));
            }
        }
    }

    /// OR of every active vertex's lanes: bit `k` set iff lane `k` still
    /// has at least one active vertex. A pure function of the frontier
    /// (never of the schedule), so retirement decisions driven by it are
    /// identical across partitions, threads and chunk caps.
    pub fn live_lanes(&self) -> u64 {
        let mut live = 0;
        self.for_each(|_, word| live |= word.bits());
        live
    }

    /// Active count and out-degree sum restricted to `range` — the
    /// per-partition analogue of ([`len`](Self::len),
    /// [`degree_sum`](Self::degree_sum)), consulted by the partitioned
    /// executor's per-partition kernel decision. O(|F ∩ range|) for sparse
    /// frontiers (after an O(log |F|) bound search), the range's storage
    /// words scanned for dense ones.
    pub fn range_stats(&self, range: Range<VertexId>, out_degrees: &[u32]) -> (usize, u64) {
        match &self.data {
            FrontierData::Sparse { verts, .. } => {
                let lo = verts.partition_point(|&v| v < range.start);
                let hi = verts.partition_point(|&v| v < range.end);
                let sum = verts[lo..hi]
                    .iter()
                    .map(|&v| out_degrees[v as usize] as u64)
                    .sum();
                (hi - lo, sum)
            }
            FrontierData::Dense(dense) => {
                let range = range.start as usize..range.end as usize;
                let (count, sum, _) = W::range_stats(dense, range, out_degrees);
                (count, sum)
            }
        }
    }

    /// A sparse frontier's words in a dense copy (`None` when the frontier
    /// already is dense): what the partitioned kernels read once per
    /// in-edge instead of binary-searching the list. From `scratch`, the
    /// copy hands the buffer back on drop (unwinding included) with the
    /// words it touched, which the pool's next `take` clears, so building
    /// and cleaning up both cost `O(|F|)` and a warm pool allocates
    /// nothing.
    pub(crate) fn densified(&self, scratch: Option<&Arc<BufferPool>>) -> Option<Self> {
        let FrontierData::Sparse { verts, masks } = &self.data else {
            return None;
        };
        let (words, mut touched) = take_buffer(scratch, dense_words::<W>(self.n));
        let mut dense = W::dense(words, self.n);
        for (&v, &m) in verts.iter().zip(masks) {
            W::or(&mut dense, v as usize, W::unpack(m));
            // The list ascends, so a word repeats only consecutively.
            let word = word_of::<W>(v as usize);
            if let Some(t) = touched.as_mut().filter(|t| t.last() != Some(&word)) {
                t.push(word);
            }
        }
        Some(Frontier {
            data: FrontierData::Dense(dense),
            recycle: scratch.map(|pool| Recycle {
                pool: Arc::clone(pool),
                touched,
            }),
            ..*self
        })
    }
}

impl Frontier {
    /// The empty frontier over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_sorted(Vec::new(), n, &[])
    }

    /// A single-vertex frontier (the classic BFS/BC/BF starting point).
    pub fn single(v: VertexId, n: usize, out_degrees: &[u32]) -> Self {
        Self::from_sorted(vec![v], n, out_degrees)
    }

    /// The all-vertices frontier (`m` = total edge count, so the cached
    /// degree sum needs no scan).
    pub fn all(n: usize, m: u64) -> Self {
        Frontier {
            n,
            lanes: 1,
            data: FrontierData::Dense(Bitmap::full(n)),
            count: n,
            degree_sum: m,
            lane_bits: n as u64,
            recycle: None,
        }
    }

    /// Builds a sparse frontier from a vertex list (sorted and deduped for
    /// deterministic iteration order).
    pub fn from_sparse(mut vertices: Vec<VertexId>, n: usize, out_degrees: &[u32]) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        Self::from_sorted(vertices, n, out_degrees)
    }

    /// Builds a sparse frontier from an **already sorted, deduplicated**
    /// vertex list — the no-scan constructor for lists whose sortedness is
    /// structural.
    pub fn from_sorted(vertices: Vec<VertexId>, n: usize, out_degrees: &[u32]) -> Self {
        let masks = vec![(); vertices.len()];
        Self::from_list(vertices, masks, n, 1, out_degrees)
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
            lanes: 1,
            data: FrontierData::Dense(bitmap),
            count,
            degree_sum,
            lane_bits: count as u64,
            recycle: None,
        }
    }

    /// Active vertices as a sorted list (materialises for dense input).
    pub fn to_vertex_list(&self) -> Vec<VertexId> {
        match &self.data {
            FrontierData::Sparse { verts, .. } => verts.clone(),
            FrontierData::Dense(b) => b.iter_ones().map(|i| i as VertexId).collect(),
        }
    }

    /// Active vertices as a bitmap (materialises for sparse input).
    pub fn to_bitmap(&self) -> Bitmap {
        match &self.data {
            FrontierData::Sparse { verts, .. } => Bitmap::from_indices(self.n, verts),
            FrontierData::Dense(b) => b.clone(),
        }
    }
}

impl Frontier<u64> {
    /// The initial frontier of a K-query batch: lane `i` holds `seeds[i]`
    /// (duplicate seeds OR into one vertex's word).
    ///
    /// # Panics
    /// Panics if more than 64 seeds are given or a seed is out of range.
    pub fn from_seeds(seeds: &[VertexId], n: usize, out_degrees: &[u32]) -> Self {
        assert!(seeds.len() <= 64, "at most 64 fused lanes");
        let mut pairs: Vec<(VertexId, u64)> = Vec::with_capacity(seeds.len());
        for (i, &s) in seeds.iter().enumerate() {
            assert!((s as usize) < n, "seed {s} out of range");
            pairs.push((s, 1u64 << i));
        }
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let mut verts: Vec<VertexId> = Vec::with_capacity(pairs.len());
        let mut masks: Vec<u64> = Vec::with_capacity(pairs.len());
        for (v, m) in pairs {
            match masks.last_mut() {
                Some(last) if verts.last() == Some(&v) => *last |= m,
                _ => {
                    verts.push(v);
                    masks.push(m);
                }
            }
        }
        Self::from_list(verts, masks, n, seeds.len() as u32, out_degrees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(2)
    }

    /// A sample non-empty word per vertex: `true`, or a lane pattern.
    trait Sample: LaneWord {
        fn sample(v: VertexId) -> Self;
    }

    impl Sample for bool {
        fn sample(_v: VertexId) -> bool {
            true
        }
    }

    impl Sample for u64 {
        fn sample(v: VertexId) -> u64 {
            1 << (v % 64) | 1
        }
    }

    /// A buffer of `repr` over `range` holding `verts`' sample words.
    fn output<W: Sample>(
        repr: OutputRepr,
        range: Range<VertexId>,
        verts: &[VertexId],
    ) -> PartitionOutput<W> {
        let mut out = PartitionOutput::new(repr, range);
        for &v in verts {
            out.push(v, W::sample(v));
        }
        out
    }

    fn pairs<W: LaneWord>(f: &Frontier<W>) -> Vec<(VertexId, W)> {
        let mut seen = Vec::new();
        f.for_each(|v, w| seen.push((v, w)));
        seen
    }

    fn sampled<W: Sample>(verts: &[VertexId]) -> Vec<(VertexId, W)> {
        verts.iter().map(|&v| (v, W::sample(v))).collect()
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
        assert_eq!(sparse.lane_bits(), dense.lane_bits());
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

    /// Dense segments over unaligned, word-straddling and empty ranges
    /// splice into one whole-graph dense form exactly as ORing each word
    /// in place would; a segment costs its range's words, never the
    /// universe's; ranged iteration yields global vertices in order.
    fn segments_splice_like_direct_ors<W: Sample>() {
        let n = 300;
        for cuts in [
            [0, 70, 129, 200, 300],
            [0, 63, 65, 128, 300],
            [0, 5, 5, 299, 300],
        ] {
            let mut want = W::dense(vec![0; dense_words::<W>(n)], n);
            let mut got = want.clone();
            for cut in cuts.windows(2) {
                let range = cut[0]..cut[1];
                let len = range.len();
                let mut segment = W::dense(vec![0; dense_words::<W>(len)], len);
                let verts: Vec<VertexId> =
                    range.clone().step_by(3).map(|v| v as VertexId).collect();
                for &v in &verts {
                    W::or(&mut segment, v as usize - range.start, W::sample(v));
                    W::or(&mut want, v as usize, W::sample(v));
                }
                assert_eq!(W::count(&segment), verts.len(), "{range:?}");
                W::splice(&mut got, range.start, &segment);
                let mut seen = Vec::new();
                W::for_each_in(&got, range.clone(), |v, w| seen.push((v as VertexId, w)));
                assert_eq!(seen, sampled::<W>(&verts), "{range:?}");
            }
            for v in 0..n {
                assert_eq!(W::get(&got, v), W::get(&want, v), "{cuts:?} v={v}");
            }
        }
        // 100 vertices at vertex 1000: two bitmap words, or 100 lane words.
        assert_eq!(
            dense_words::<W>(100),
            100usize.div_ceil(64 / W::LANES as usize)
        );
    }

    #[test]
    fn segments_splice_like_direct_ors_on_both_words() {
        segments_splice_like_direct_ors::<bool>();
        segments_splice_like_direct_ors::<u64>();
    }

    fn splice_rejects_a_segment_past_the_target<W: LaneWord>() {
        let mut target = W::dense(vec![0; dense_words::<W>(150)], 150);
        let segment = W::dense(vec![0; dense_words::<W>(100)], 100);
        W::splice(&mut target, 100, &segment);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn bitmap_splice_rejects_a_segment_past_the_target() {
        splice_rejects_a_segment_past_the_target::<bool>();
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn lane_splice_rejects_a_segment_past_the_target() {
        splice_rejects_a_segment_past_the_target::<u64>();
    }

    /// All-sparse outputs, handed over in any order, concatenate into a
    /// sparse frontier with their words, degree sum and lane bits, and
    /// charge no dense work on either counter.
    fn sparse_outputs_concatenate_without_dense_work<W: Sample>() {
        let deg: Vec<u32> = (0..200).map(|i| (i % 5) as u32).collect();
        let counters = WorkCounters::new();
        let outputs = vec![
            output::<W>(OutputRepr::Sparse, 70..200, &[71, 199]),
            output(OutputRepr::Sparse, 0..70, &[3, 64]),
        ];
        let f = Frontier::from_partition_outputs(outputs, 200, W::LANES, &deg, &counters, None);
        assert!(f.is_sparse_repr());
        let verts = [3, 64, 71, 199];
        assert_eq!(pairs(&f), sampled::<W>(&verts));
        let want: u64 = verts.iter().map(|&v| deg[v as usize] as u64).sum();
        assert_eq!(f.degree_sum(), want);
        let bits: u64 = sampled::<W>(&verts)
            .iter()
            .map(|(_, w)| w.bits().count_ones() as u64)
            .sum();
        assert_eq!(f.lane_bits(), bits);
        assert_eq!(counters.merge_words(), 0, "no dense merge may be paid");
        assert_eq!(counters.lane_union_words(), 0, "no dense merge may be paid");
    }

    #[test]
    fn sparse_outputs_concatenate_without_dense_work_on_both_words() {
        sparse_outputs_concatenate_without_dense_work::<bool>();
        sparse_outputs_concatenate_without_dense_work::<u64>();
    }

    /// Each word's merge-cost formula, pinned: a mixed merge over `n`
    /// vertices adds `⌈n / 64⌉ + Σ segment words` to `merge_words` on
    /// `bool` and `Σ segment words` to `lane_union_words` on `u64` (plus
    /// its lane bits to `fused_lanes`); a dense merge that activates
    /// nothing still charges the fused segments, not the scalar ones; an
    /// all-sparse merge charges neither.
    fn merge_costs_follow_each_words_formula<W: Sample>() {
        let n = 300;
        let deg = vec![1u32; n];
        // Segments of 70 and 130 vertices: 2 + 3 bitmap words, or 200
        // lane words.
        let (scalar, fused) = (300usize.div_ceil(64) as u64 + 2 + 3, 200);
        let merge = |dense: &[VertexId]| {
            let counters = WorkCounters::new();
            let outputs = vec![
                output::<W>(OutputRepr::Sparse, 0..100, &[1, 64]),
                output(OutputRepr::Dense, 100..170, dense),
                output(OutputRepr::Dense, 170..300, &[]),
            ];
            let f = Frontier::from_partition_outputs(outputs, n, W::LANES, &deg, &counters, None);
            (f, counters)
        };
        let (f, counters) = merge(&[100, 169]);
        assert!(!f.is_sparse_repr());
        assert_eq!(pairs(&f), sampled::<W>(&[1, 64, 100, 169]));
        assert_eq!((f.len(), f.degree_sum()), (4, 4));
        let want = if W::LANES == 1 {
            (scalar, 0, 0)
        } else {
            (0, fused, f.lane_bits())
        };
        let got = (
            counters.merge_words(),
            counters.lane_union_words(),
            counters.fused_lanes(),
        );
        assert_eq!(got, want);

        let counters = WorkCounters::new();
        let nothing = vec![
            output::<W>(OutputRepr::Sparse, 0..100, &[]),
            output(OutputRepr::Dense, 100..170, &[]),
        ];
        let f = Frontier::from_partition_outputs(nothing, n, W::LANES, &deg, &counters, None);
        assert!(f.is_empty());
        let want = if W::LANES == 1 { (0, 0) } else { (0, 70) };
        assert_eq!((counters.merge_words(), counters.lane_union_words()), want);

        let counters = WorkCounters::new();
        let sparse = vec![output::<W>(OutputRepr::Sparse, 0..300, &[1, 299])];
        Frontier::from_partition_outputs(sparse, n, W::LANES, &deg, &counters, None);
        assert_eq!(
            (counters.merge_words(), counters.lane_union_words()),
            (0, 0)
        );
    }

    #[test]
    fn merge_costs_follow_each_words_formula_on_both_words() {
        merge_costs_follow_each_words_formula::<bool>();
        merge_costs_follow_each_words_formula::<u64>();
    }

    #[test]
    fn merging_no_outputs_yields_the_empty_frontier() {
        // The all-empty round: every planned partition produced zero
        // chunks (e.g. sparse kernels with no candidates).
        let deg = vec![1u32; 50];
        let counters = WorkCounters::new();
        let f = Frontier::<bool>::from_partition_outputs(Vec::new(), 50, 1, &deg, &counters, None);
        assert!(f.is_empty());
        assert_eq!(f.universe(), 50);
        let fused =
            Frontier::<u64>::from_partition_outputs(Vec::new(), 50, 3, &deg, &counters, None);
        assert!(fused.is_empty());
        assert_eq!(fused.num_lanes(), 3);
        assert_eq!(counters.merge_words() + counters.lane_union_words(), 0);
    }

    /// Chunk-grained outputs (several disjoint sub-range buffers per
    /// partition) merge to exactly the frontier their single-chunk
    /// equivalents produce, for sparse, dense and mixed buffers.
    fn chunk_grained_outputs_merge_like_partition_grained<W: Sample>() {
        use OutputRepr::{Dense, Sparse};
        let deg: Vec<u32> = (0..200).map(|i| (i % 9) as u32).collect();
        let counters = WorkCounters::new();
        // Partition [0, 128) as one sparse buffer…
        let whole = vec![
            output::<W>(Sparse, 0..128, &[3, 64, 100, 127]),
            output(Dense, 128..200, &[130, 199]),
        ];
        // …vs the same sets split into chunk-sized buffers.
        let chunked = vec![
            output::<W>(Sparse, 0..50, &[3]),
            output(Sparse, 50..90, &[64]),
            output(Sparse, 90..128, &[100, 127]),
            output(Dense, 128..150, &[130]),
            output(Dense, 150..200, &[199]),
        ];
        let a = Frontier::from_partition_outputs(whole, 200, W::LANES, &deg, &counters, None);
        let b = Frontier::from_partition_outputs(chunked, 200, W::LANES, &deg, &counters, None);
        assert_eq!(pairs(&a), pairs(&b));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.degree_sum(), b.degree_sum());
        assert_eq!(a.lane_bits(), b.lane_bits());
    }

    #[test]
    fn chunk_grained_outputs_merge_like_partition_grained_on_both_words() {
        chunk_grained_outputs_merge_like_partition_grained::<bool>();
        chunk_grained_outputs_merge_like_partition_grained::<u64>();
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
                output::<bool>(OutputRepr::Sparse, 0..100, &[1, 64, 99]),
                output(OutputRepr::Dense, 100..300, &[100, 250, 299]),
            ]
        };
        let merge =
            |scratch| Frontier::from_partition_outputs(outputs(), 300, 1, &deg, &counters, scratch);
        let plain = merge(None);
        let pooled = merge(Some(&pool));
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
        let again = merge(Some(&pool));
        assert_eq!(again.to_vertex_list(), plain.to_vertex_list());
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.allocated(), 1);
    }

    /// A sparse frontier's pooled probe copy holds exactly the list, and
    /// its buffer goes back to the pool cleared of exactly those bits.
    #[test]
    fn pooled_probe_bitmap_matches_the_list_and_recycles() {
        let deg = vec![1u32; 300];
        let pool = Arc::new(BufferPool::new());
        let sparse = Frontier::from_sparse(vec![0, 1, 63, 64, 200, 299], 300, &deg);
        let probe = sparse.densified(Some(&pool)).expect("a list gets a probe");
        assert!(!probe.is_sparse_repr());
        assert_eq!(probe.to_vertex_list(), sparse.to_vertex_list());
        assert_eq!(probe.len(), sparse.len());
        assert_eq!(probe.degree_sum(), sparse.degree_sum());
        drop(probe);
        assert_eq!(pool.idle_buffers(), 1);

        let other = Frontier::from_sparse(vec![5], 300, &deg);
        let probe = other.densified(Some(&pool)).unwrap();
        assert_eq!(probe.to_vertex_list(), vec![5], "old bits must be cleared");
        assert_eq!((pool.allocated(), pool.recycled()), (1, 1));
        assert!(
            probe.densified(Some(&pool)).is_none(),
            "a bitmap is its own probe"
        );
    }

    /// A fused list's unpooled dense copy holds the same lane words and
    /// statistics; the fused probe policy densifies only from `|V| / 64`.
    #[test]
    fn fused_probe_copies_the_lane_words() {
        let deg: Vec<u32> = (0..256).map(|v| v % 5).collect();
        let fused = Frontier::from_seeds(&[9, 2, 9, 200], 256, &deg);
        let copy = fused.densified(None).expect("a list gets a copy");
        assert!(!copy.is_sparse_repr());
        assert_eq!(pairs(&copy), pairs(&fused));
        assert_eq!(copy.get(9), 0b101);
        assert_eq!(
            (
                copy.len(),
                copy.degree_sum(),
                copy.lane_bits(),
                copy.num_lanes()
            ),
            (fused.len(), fused.degree_sum(), fused.lane_bits(), 4)
        );
        assert!(!u64::wants_probe(3, 256) && u64::wants_probe(4, 256));
        assert!(!u64::wants_probe(1, 63) && bool::wants_probe(1, 63));
    }

    #[test]
    fn views_answer_membership_without_materialising() {
        let deg = vec![1u32; 100];
        let sparse = Frontier::from_sparse(vec![5, 50, 99], 100, &deg);
        let view = sparse.view();
        assert!(view.contains(50) && !view.contains(51));
        assert!(matches!(
            view,
            FrontierView::Sparse {
                verts: &[5, 50, 99],
                ..
            }
        ));
        let dense = Frontier::from_dense(Bitmap::from_indices(100, &[5, 50]), &deg, &pool());
        let view = dense.view();
        assert!(view.contains(5) && !view.contains(6));
        assert!(matches!(view, FrontierView::Dense(_)));
        let fused = Frontier::from_seeds(&[50, 5, 50], 100, &deg);
        assert_eq!(
            (fused.get(50), fused.get(5), fused.get(6)),
            (0b101, 0b10, 0)
        );
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
    fn vertex_list_matches_either_representation() {
        let deg = vec![0u32; 100];
        let f = Frontier::from_sparse(vec![5, 50, 99], 100, &deg);
        assert_eq!(f.to_vertex_list(), vec![5, 50, 99]);
        let d = Frontier::from_dense(Bitmap::from_indices(100, &[5, 50, 99]), &deg, &pool());
        assert_eq!(d.to_vertex_list(), vec![5, 50, 99]);
    }

    #[test]
    fn seeds_build_a_sorted_deduped_sparse_frontier() {
        let deg: Vec<u32> = (0..12).collect();
        let f = Frontier::from_seeds(&[9, 2, 9, 5], 12, &deg);
        assert_eq!(f.num_lanes(), 4);
        assert_eq!(f.lane_mask(), 0b1111);
        assert_eq!(f.len(), 3);
        assert_eq!(f.lane_bits(), 4);
        assert_eq!(f.degree_sum(), 2 + 5 + 9);
        // Lane 0 and 2 share vertex 9.
        assert_eq!(pairs(&f), vec![(2, 0b0010), (5, 0b1000), (9, 0b0101)]);
        assert_eq!(f.get(9), 0b0101);
        assert_eq!(f.get(0), 0);
        assert_eq!(f.empty_like().num_lanes(), 4);
    }

    #[test]
    fn live_lanes_track_sparse_and_dense_alike() {
        let deg = vec![1u32; 12];
        let sparse = Frontier::from_seeds(&[9, 2, 9, 5], 12, &deg);
        assert_eq!(sparse.live_lanes(), 0b1111);

        // Dense, holding only lanes 1 and 2: lanes 0 and 3 have no bits,
        // so they read as not live.
        let mut out = PartitionOutput::new(OutputRepr::Dense, 0..12);
        sparse.for_each(|v, m| {
            if m & 0b0110 != 0 {
                out.push(v, m & 0b0110);
            }
        });
        let counters = WorkCounters::new();
        let dense = Frontier::from_partition_outputs(vec![out], 12, 4, &deg, &counters, None);
        assert!(!dense.is_sparse_repr());
        assert_eq!(dense.live_lanes(), 0b0110);
    }
}
