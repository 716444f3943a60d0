//! Fixed-size bitmaps used for dense frontier representation.
//!
//! The paper represents dense and medium-dense frontiers as bitmaps (§II.A).
//! Two variants are provided:
//!
//! * [`Bitmap`] — a plain, single-owner bitmap with fast word-level scans;
//! * [`AtomicBitmap`] — a concurrently writable bitmap used as the *next*
//!   frontier while an edge map is in flight. Bits are set with relaxed
//!   `fetch_or`, which is an unconditional read-modify-write: far cheaper
//!   than the compare-and-set loops the paper's "+a" configurations need for
//!   value updates, and safe even when a 64-bit word straddles a partition
//!   boundary.
//!
//! The partitioned executor's dense output buffers are plain bitmaps sized
//! to one partition's destination range: each task owns its buffer
//! exclusively (no atomics), and a dense merge splices it back into a
//! whole-graph bitmap at the range start ([`Bitmap::or_at`]).

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

    /// ORs `src` into this bitmap with `src`'s bit 0 at bit `at`: shifted
    /// word-level ORs, `O(src words)` whatever this bitmap's length — how
    /// a range-aligned output segment splices into a whole-graph bitmap.
    ///
    /// ```
    /// use gg_graph::bitmap::Bitmap;
    ///
    /// let mut whole = Bitmap::new(256);
    /// whole.or_at(70, &Bitmap::from_indices(130, &[0, 60]));
    /// assert_eq!(whole.iter_ones().collect::<Vec<_>>(), vec![70, 130]);
    /// ```
    ///
    /// # Panics
    /// Panics if `src` extends beyond this bitmap.
    pub fn or_at(&mut self, at: usize, src: &Bitmap) {
        assert!(
            at + src.len <= self.len,
            "segment {at}..{} exceeds bitmap of {} bits",
            at + src.len,
            self.len
        );
        if src.len == 0 {
            return;
        }
        let shift = at % WORD_BITS;
        let base = at / WORD_BITS;
        if shift == 0 {
            for (wi, &w) in src.words.iter().enumerate() {
                self.words[base + wi] |= w;
            }
        } else {
            for (wi, &w) in src.words.iter().enumerate() {
                self.words[base + wi] |= w << shift;
                let spill = w >> (WORD_BITS - shift);
                if spill != 0 {
                    self.words[base + wi + 1] |= spill;
                }
            }
        }
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
