//! Fixed-size bitmaps used for dense frontier representation.
//!
//! The paper represents dense and medium-dense frontiers as bitmaps (§II.A).
//! Three variants are provided:
//!
//! * [`Bitmap`] — a plain, single-owner bitmap with fast word-level scans;
//! * [`AtomicBitmap`] — a concurrently writable bitmap used as the *next*
//!   frontier while an edge map is in flight. Bits are set with relaxed
//!   `fetch_or`, which is an unconditional read-modify-write: far cheaper
//!   than the compare-and-set loops the paper's "+a" configurations need for
//!   value updates, and safe even when a 64-bit word straddles a partition
//!   boundary.
//! * [`BitmapSegment`] — a range-aligned *view-sized* bitmap covering only
//!   one partition's destination range. The partitioned executor's dense
//!   output buffers are segments: each partition task owns its segment
//!   exclusively (no atomics), sized to the range rather than to `|V|`, and
//!   segments [`splice`](BitmapSegment::splice_into) back into a whole-graph
//!   [`Bitmap`] with word-level ORs when a dense merge is required.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// A plain fixed-length bitmap over `len` bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zeros bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; word_count(len)],
            len,
        }
    }

    /// Creates an all-ones bitmap of `len` bits.
    pub fn full(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; word_count(len)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zeroes any bits beyond `len` in the final word so `count_ones` stays
    /// exact.
    fn clear_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of set bits in increasing order.
    ///
    /// Returns the concrete [`Ones`] iterator (nameable, allocation-free),
    /// so callers that embed it in their own enum iterators pay no boxing
    /// or dynamic dispatch.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones::new(&self.words)
    }

    /// Calls `f` for every set bit within `range`, in increasing order.
    /// Word-level scan with boundary-word masking — the shared primitive
    /// behind per-partition frontier statistics and vertex maps.
    pub fn for_each_one_in_range<F: FnMut(usize)>(&self, range: std::ops::Range<usize>, mut f: F) {
        let (start, end) = (range.start, range.end);
        debug_assert!(start <= end && end <= self.len);
        if start >= end {
            return;
        }
        let first = start / WORD_BITS;
        for (off, &word) in self.words[first..end.div_ceil(WORD_BITS)]
            .iter()
            .enumerate()
        {
            let wi = first + off;
            let mut bits = word;
            // Mask off bits outside [start, end) in boundary words.
            if wi == first {
                bits &= u64::MAX << (start % WORD_BITS);
            }
            if wi == end / WORD_BITS && end % WORD_BITS != 0 {
                bits &= (1u64 << (end % WORD_BITS)) - 1;
            }
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(wi * WORD_BITS + b);
            }
        }
    }

    /// Raw word storage (read-only), for bulk operations.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a bitmap of `len` bits with the given indices set.
    pub fn from_indices(len: usize, idxs: &[u32]) -> Self {
        let mut b = Bitmap::new(len);
        for &i in idxs {
            b.set(i as usize);
        }
        b
    }

    /// Wraps an **all-zeros** word buffer (for example one recycled through
    /// a buffer pool) as a bitmap of `len` bits, without allocating.
    ///
    /// # Panics
    /// Panics if `words.len()` is not exactly the word count for `len`;
    /// debug builds additionally assert the buffer is all-zeros.
    pub fn from_zeroed_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert!(words.iter().all(|&w| w == 0), "buffer must be zeroed");
        Bitmap::from_words(words, len)
    }

    /// Wraps packed words as a bitmap of `len` bits (bit `i` is bit
    /// `i % 64` of word `i / 64`), without copying.
    ///
    /// # Panics
    /// Panics if `words.len()` is not exactly the word count for `len` or a
    /// bit at or past `len` is set.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), word_count(len), "word buffer sized wrongly");
        if !len.is_multiple_of(WORD_BITS) {
            let last = words[words.len() - 1];
            assert_eq!(last >> (len % WORD_BITS), 0, "bit set past len {len}");
        }
        Bitmap { words, len }
    }

    /// Takes the word storage out of the bitmap (for recycling through a
    /// buffer pool), leaving it empty.
    pub fn take_words(&mut self) -> Vec<u64> {
        self.len = 0;
        std::mem::take(&mut self.words)
    }
}

/// Concrete iterator over the set bits of a [`Bitmap`], in increasing
/// order. Word-at-a-time with `trailing_zeros`, no allocation.
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_index: usize,
    bits: u64,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64]) -> Self {
        Ones {
            words,
            word_index: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word_index];
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word_index * WORD_BITS + b)
    }
}

/// A range-aligned dense bitmap covering one contiguous sub-range of the
/// vertex space: bit `i` of the segment corresponds to the *global* index
/// `start + i`.
///
/// This is the partitioned executor's dense output buffer: sized to the
/// partition's destination range (not `|V|`), owned by exactly one task
/// (plain stores, no atomics), and spliced back into a whole-graph
/// [`Bitmap`] with shifted word-level ORs only when a dense merge is
/// actually required.
///
/// ```
/// use gg_graph::bitmap::{Bitmap, BitmapSegment};
///
/// let mut seg = BitmapSegment::new(70..200);
/// seg.set(70);
/// seg.set(130);
/// assert!(seg.get(130) && !seg.get(131));
/// assert_eq!(seg.iter_ones().collect::<Vec<_>>(), vec![70, 130]);
///
/// let mut whole = Bitmap::new(256);
/// seg.splice_into(&mut whole);
/// assert!(whole.get(70) && whole.get(130));
/// assert_eq!(whole.count_ones(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitmapSegment {
    /// First global bit index covered by the segment.
    start: usize,
    /// Number of bits covered.
    len: usize,
    /// Local storage; local bit `i` ↔ global bit `start + i`.
    words: Vec<u64>,
}

impl BitmapSegment {
    /// An all-zeros segment covering the global index range `range`.
    pub fn new(range: std::ops::Range<usize>) -> Self {
        let len = range.end.saturating_sub(range.start);
        BitmapSegment {
            start: range.start,
            len,
            words: vec![0; word_count(len)],
        }
    }

    /// The global index range this segment covers.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }

    /// Number of bits covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the segment covers zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit for *global* index `i` (must lie inside the range).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(self.range().contains(&i), "index {i} outside segment");
        let local = i - self.start;
        self.words[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
    }

    /// Reads the bit for *global* index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(self.range().contains(&i), "index {i} outside segment");
        let local = i - self.start;
        (self.words[local / WORD_BITS] >> (local % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of backing words — the merge-work cost of splicing this
    /// segment (`O(range / 64)`, never `O(|V| / 64)`).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Calls `f` for every set bit, passing *global* indices in increasing
    /// order.
    pub fn for_each_one<F: FnMut(usize)>(&self, mut f: F) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(self.start + wi * WORD_BITS + b);
            }
        }
    }

    /// Iterates set bits as *global* indices in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let start = self.start;
        Ones::new(&self.words).map(move |i| start + i)
    }

    /// Sorted global indices of all set bits.
    pub fn to_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        self.for_each_one(|i| out.push(i as u32));
        out
    }

    /// Builds a segment over `range` with the given *global* indices set.
    pub fn from_indices(range: std::ops::Range<usize>, idxs: &[u32]) -> Self {
        let mut seg = BitmapSegment::new(range);
        for &i in idxs {
            seg.set(i as usize);
        }
        seg
    }

    /// ORs this segment into `target` at its global position with shifted
    /// word-level operations — `O(num_words)` regardless of `target.len()`.
    ///
    /// # Panics
    /// Panics if the segment's range extends beyond `target`.
    pub fn splice_into(&self, target: &mut Bitmap) {
        assert!(
            self.start + self.len <= target.len(),
            "segment {:?} exceeds bitmap of {} bits",
            self.range(),
            target.len()
        );
        if self.len == 0 {
            return;
        }
        let shift = self.start % WORD_BITS;
        let base = self.start / WORD_BITS;
        if shift == 0 {
            for (wi, &w) in self.words.iter().enumerate() {
                target.words[base + wi] |= w;
            }
        } else {
            for (wi, &w) in self.words.iter().enumerate() {
                target.words[base + wi] |= w << shift;
                let spill = w >> (WORD_BITS - shift);
                if spill != 0 {
                    target.words[base + wi + 1] |= spill;
                }
            }
        }
    }
}

/// A bitmap whose bits may be set concurrently from many threads.
///
/// Used as the *next* frontier during parallel edge traversal: partitions own
/// disjoint destination ranges but a 64-bit word may straddle two partitions,
/// so bit sets always use `fetch_or` (relaxed).
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates an all-zeros atomic bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        let mut words = Vec::with_capacity(word_count(len));
        words.resize_with(word_count(len), || AtomicU64::new(0));
        AtomicBitmap { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / WORD_BITS].load(Ordering::Relaxed) >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i`; returns `true` if this call changed it from 0 to 1.
    ///
    /// The return value lets a sparse traversal claim activation of a vertex
    /// exactly once without a separate duplicate-removal pass.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % WORD_BITS);
        let prev = self.words[i / WORD_BITS].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Clears bit `i` (atomic `fetch_and`). Used to return a shared scratch
    /// bitmap to all-zeros by unsetting exactly the bits that were claimed.
    #[inline]
    pub fn unset(&self, i: usize) {
        debug_assert!(i < self.len);
        let mask = !(1u64 << (i % WORD_BITS));
        self.words[i / WORD_BITS].fetch_and(mask, Ordering::Relaxed);
    }

    /// Clears every bit (not thread-safe with concurrent setters).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Converts into a plain [`Bitmap`] without copying word contents
    /// atomically (callers must have quiesced all writers).
    pub fn into_bitmap(self) -> Bitmap {
        let words = self.words.into_iter().map(AtomicU64::into_inner).collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Copies the current contents into a plain [`Bitmap`].
    pub fn snapshot(&self) -> Bitmap {
        Bitmap {
            words: self
                .words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            len: self.len,
        }
    }
}

impl From<Bitmap> for AtomicBitmap {
    fn from(b: Bitmap) -> Self {
        AtomicBitmap {
            words: b.words.into_iter().map(AtomicU64::new).collect(),
            len: b.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        b.unset(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn full_respects_length() {
        let b = Bitmap::full(70);
        assert_eq!(b.count_ones(), 70);
        let b = Bitmap::full(64);
        assert_eq!(b.count_ones(), 64);
        let b = Bitmap::full(0);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn from_words_wraps_packed_words() {
        let b = Bitmap::from_indices(130, &[0, 63, 64, 129]);
        assert_eq!(Bitmap::from_words(b.words().to_vec(), 130), b);
        assert_eq!(Bitmap::from_words(Vec::new(), 0), Bitmap::new(0));
    }

    #[test]
    #[should_panic(expected = "bit set past len")]
    fn from_words_refuses_a_bit_past_len() {
        Bitmap::from_words(vec![0, 1 << 2], 66);
    }

    #[test]
    fn iter_ones_in_order() {
        let b = Bitmap::from_indices(200, &[5, 64, 65, 199, 0]);
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 64, 65, 199]);
    }

    #[test]
    fn ranged_iteration_matches_filtered_iter_ones() {
        let idxs: Vec<u32> = (0..300).step_by(7).collect();
        let b = Bitmap::from_indices(300, &idxs);
        for range in [
            0usize..300,
            0..64,
            63..65,
            64..128,
            17..211,
            299..300,
            5..5,
            64..64,
        ] {
            let mut got = Vec::new();
            b.for_each_one_in_range(range.clone(), |i| got.push(i));
            let want: Vec<usize> = b.iter_ones().filter(|i| range.contains(i)).collect();
            assert_eq!(got, want, "range {range:?}");
        }
    }

    #[test]
    fn atomic_set_reports_first_setter() {
        let b = AtomicBitmap::new(100);
        assert!(b.set(42));
        assert!(!b.set(42));
        assert!(b.get(42));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn atomic_concurrent_sets() {
        use std::sync::Arc;
        let b = Arc::new(AtomicBitmap::new(10_000));
        let mut handles = Vec::new();
        for t in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut claimed = 0usize;
                for i in (t..10_000).step_by(1) {
                    if b.set(i) {
                        claimed += 1;
                    }
                }
                claimed
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Every bit is claimed by exactly one thread.
        assert_eq!(total, 10_000);
        assert_eq!(b.count_ones(), 10_000);
    }

    #[test]
    fn segment_roundtrips_unaligned_ranges() {
        // Ranges deliberately straddle word boundaries.
        for range in [0usize..300, 70..200, 63..65, 64..128, 5..5, 299..300] {
            let idxs: Vec<u32> = (range.start as u32..range.end as u32).step_by(3).collect();
            let seg = BitmapSegment::from_indices(range.clone(), &idxs);
            assert_eq!(seg.count_ones(), idxs.len(), "range {range:?}");
            assert_eq!(seg.to_indices(), idxs, "range {range:?}");
            assert_eq!(
                seg.iter_ones().map(|i| i as u32).collect::<Vec<_>>(),
                idxs,
                "range {range:?}"
            );
            let mut whole = Bitmap::new(300);
            seg.splice_into(&mut whole);
            let want: Vec<usize> = idxs.iter().map(|&i| i as usize).collect();
            assert_eq!(
                whole.iter_ones().collect::<Vec<_>>(),
                want,
                "range {range:?}"
            );
        }
    }

    #[test]
    fn segments_splice_disjointly_like_one_bitmap() {
        // Three contiguous segments sharing boundary words must OR into the
        // same bitmap a single owner would have produced.
        let idxs: Vec<u32> = (0..200).step_by(7).collect();
        let want = Bitmap::from_indices(200, &idxs);
        let mut got = Bitmap::new(200);
        for range in [0usize..70, 70..129, 129..200] {
            let local: Vec<u32> = idxs
                .iter()
                .copied()
                .filter(|&i| range.contains(&(i as usize)))
                .collect();
            BitmapSegment::from_indices(range, &local).splice_into(&mut got);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn segment_word_cost_tracks_range_not_universe() {
        let seg = BitmapSegment::new(1000..1100);
        assert_eq!(seg.num_words(), 2);
        assert!(seg.is_empty() || seg.len() == 100);
    }

    #[test]
    #[should_panic(expected = "exceeds bitmap")]
    fn segment_splice_rejects_oversized_target_range() {
        let seg = BitmapSegment::new(100..200);
        let mut small = Bitmap::new(150);
        seg.splice_into(&mut small);
    }

    #[test]
    fn snapshot_matches() {
        let ab = AtomicBitmap::new(77);
        ab.set(3);
        ab.set(76);
        let b = ab.snapshot();
        assert!(b.get(3) && b.get(76));
        assert_eq!(b.count_ones(), 2);
        let owned = ab.into_bitmap();
        assert_eq!(owned, b);
    }
}
