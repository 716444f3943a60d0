//! K-lane visited/frontier state for fused multi-source traversals.
//!
//! A fused traversal co-runs up to 64 point queries ("lanes") over one
//! graph: per-vertex state is a single `u64` **lane word** whose bit `k`
//! says "query `k` has this vertex active/visited". One edge scan then
//! advances every lane at once — the batching lever that amortises the
//! CSR/CSC walk across concurrent queries.
//!
//! Two variants mirror the [`bitmap`](crate::bitmap) machinery:
//!
//! * [`LaneBitmap`] — one lane word per vertex over the whole graph, the
//!   dense representation of a fused frontier and the visited state of a
//!   fused traversal;
//! * [`LaneSegment`] — a range-aligned view-sized lane array covering one
//!   partition's destination range, the partitioned executor's dense fused
//!   output buffer. Because every vertex owns a whole word, a segment
//!   splices back into a [`LaneBitmap`] with straight word-indexed ORs —
//!   no bit shifting, and a word never straddles two partitions.

use crate::bitmap::Bitmap;

/// One 64-bit lane word per vertex: bit `k` of word `v` means vertex `v`
/// is set in lane `k`.
///
/// ```
/// use gg_graph::lanes::LaneBitmap;
///
/// let mut lanes = LaneBitmap::new(4);
/// assert_eq!(lanes.or(2, 0b101), 0b101); // newly set bits
/// assert_eq!(lanes.or(2, 0b111), 0b010); // bit 0 and 2 already set
/// assert_eq!(lanes.get(2), 0b111);
/// assert_eq!(lanes.get(0), 0);
/// assert_eq!(lanes.lane_bits(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneBitmap {
    words: Vec<u64>,
    len: usize,
}

impl LaneBitmap {
    /// All-zeros lane state over `len` vertices.
    pub fn new(len: usize) -> Self {
        LaneBitmap {
            words: vec![0; len],
            len,
        }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lane word of vertex `v`.
    #[inline]
    pub fn get(&self, v: usize) -> u64 {
        self.words[v]
    }

    /// ORs `mask` into vertex `v`'s lane word, returning the bits that
    /// were newly set (`mask & !previous`) — the fused analogue of the
    /// first-setter return of [`AtomicBitmap::set`](crate::bitmap::AtomicBitmap::set).
    #[inline]
    pub fn or(&mut self, v: usize, mask: u64) -> u64 {
        let prev = self.words[v];
        self.words[v] = prev | mask;
        mask & !prev
    }

    /// Overwrites vertex `v`'s lane word.
    #[inline]
    pub fn set(&mut self, v: usize, mask: u64) {
        self.words[v] = mask;
    }

    /// Clears every lane word.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Total set lane bits (Σ popcount) — the fused work volume.
    pub fn lane_bits(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of vertices with at least one lane set (the union count).
    pub fn count_nonzero(&self) -> usize {
        self.words.iter().filter(|&&w| w != 0).count()
    }

    /// Calls `f(v, mask)` for every vertex with a non-zero lane word, in
    /// ascending vertex order.
    pub fn for_each_nonzero<F: FnMut(usize, u64)>(&self, mut f: F) {
        for (v, &w) in self.words.iter().enumerate() {
            if w != 0 {
                f(v, w);
            }
        }
    }

    /// The union frontier as a plain [`Bitmap`]: bit `v` set iff any lane
    /// has `v` set. This is what the planner's density decision sees.
    pub fn union_bitmap(&self) -> Bitmap {
        let mut b = Bitmap::new(self.len);
        for (v, &w) in self.words.iter().enumerate() {
            if w != 0 {
                b.set(v);
            }
        }
        b
    }

    /// OR of every lane word: bit `k` set iff lane `k` still has at least
    /// one vertex set anywhere. The serving layer's quiescence probe — a
    /// lane absent from this mask has an empty frontier and can retire.
    pub fn live_lanes(&self) -> u64 {
        self.words.iter().fold(0, |acc, &w| acc | w)
    }

    /// Raw lane words (read-only), indexed by vertex.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A range-aligned lane array covering one contiguous vertex sub-range:
/// entry `i` holds the lane word of *global* vertex `start + i`.
///
/// The partitioned executor's dense fused output buffer: sized to the
/// partition's destination range, owned by exactly one chunk task (plain
/// stores, no atomics), spliced back into a whole-graph [`LaneBitmap`]
/// with word-indexed ORs.
///
/// ```
/// use gg_graph::lanes::{LaneBitmap, LaneSegment};
///
/// let mut seg = LaneSegment::new(70..200);
/// seg.or(70, 0b1);
/// seg.or(130, 0b10);
/// assert_eq!(seg.get(130), 0b10);
///
/// let mut whole = LaneBitmap::new(256);
/// seg.splice_into(&mut whole);
/// assert_eq!(whole.get(70), 0b1);
/// assert_eq!(whole.get(130), 0b10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneSegment {
    start: usize,
    words: Vec<u64>,
}

impl LaneSegment {
    /// An all-zeros segment covering the global vertex range `range`.
    pub fn new(range: std::ops::Range<usize>) -> Self {
        let len = range.end.saturating_sub(range.start);
        LaneSegment {
            start: range.start,
            words: vec![0; len],
        }
    }

    /// The global vertex range this segment covers.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.words.len()
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the segment covers zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The lane word of *global* vertex `v`.
    #[inline]
    pub fn get(&self, v: usize) -> u64 {
        debug_assert!(self.range().contains(&v), "vertex {v} outside segment");
        self.words[v - self.start]
    }

    /// ORs `mask` into *global* vertex `v`'s lane word, returning the
    /// newly set bits.
    #[inline]
    pub fn or(&mut self, v: usize, mask: u64) -> u64 {
        debug_assert!(self.range().contains(&v), "vertex {v} outside segment");
        let w = &mut self.words[v - self.start];
        let new = mask & !*w;
        *w |= mask;
        new
    }

    /// Number of vertices with at least one lane set.
    pub fn count_nonzero(&self) -> usize {
        self.words.iter().filter(|&&w| w != 0).count()
    }

    /// Total set lane bits (Σ popcount).
    pub fn lane_bits(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The merge-work cost of splicing this segment: its word count
    /// (`O(range)`, never `O(|V|)`).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Calls `f(v, mask)` for every non-zero lane word, passing *global*
    /// vertex ids in ascending order.
    pub fn for_each_nonzero<F: FnMut(usize, u64)>(&self, mut f: F) {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                f(self.start + i, w);
            }
        }
    }

    /// ORs this segment into `target` at its global position — one OR per
    /// covered vertex, no bit shifting (a vertex owns a whole word).
    ///
    /// # Panics
    /// Panics if the segment's range extends beyond `target`.
    pub fn splice_into(&self, target: &mut LaneBitmap) {
        assert!(
            self.start + self.words.len() <= target.len(),
            "segment {:?} exceeds lane bitmap of {} vertices",
            self.range(),
            target.len()
        );
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                target.words[self.start + i] |= w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_reports_newly_set_bits() {
        let mut l = LaneBitmap::new(10);
        assert_eq!(l.or(3, 0b1011), 0b1011);
        assert_eq!(l.or(3, 0b1110), 0b0100);
        assert_eq!(l.or(3, 0b1111), 0);
        assert_eq!(l.get(3), 0b1111);
        assert_eq!(l.lane_bits(), 4);
        assert_eq!(l.count_nonzero(), 1);
    }

    #[test]
    fn lane_64_round_trips() {
        let mut l = LaneBitmap::new(2);
        let top = 1u64 << 63;
        assert_eq!(l.or(1, top), top);
        assert_eq!(l.or(1, top), 0);
        assert_eq!(l.get(1), top);
        assert_eq!(l.lane_bits(), 1);
    }

    #[test]
    fn union_bitmap_and_iteration_agree() {
        let mut l = LaneBitmap::new(100);
        l.or(5, 0b1);
        l.or(64, 0b100);
        l.or(99, u64::MAX);
        let union = l.union_bitmap();
        assert_eq!(union.iter_ones().collect::<Vec<_>>(), vec![5, 64, 99]);
        let mut seen = Vec::new();
        l.for_each_nonzero(|v, m| seen.push((v, m)));
        assert_eq!(seen, vec![(5, 0b1), (64, 0b100), (99, u64::MAX)]);
        assert_eq!(l.count_nonzero(), 3);
        assert_eq!(l.lane_bits(), 1 + 1 + 64);
        l.clear();
        assert_eq!(l.count_nonzero(), 0);
    }

    #[test]
    fn segment_splices_like_direct_sets() {
        let mut want = LaneBitmap::new(300);
        let mut got = LaneBitmap::new(300);
        for range in [0usize..100, 100..163, 163..300] {
            let mut seg = LaneSegment::new(range.clone());
            for v in range.clone().step_by(7) {
                let mask = 1u64 << (v % 64) | 1;
                seg.or(v, mask);
                want.or(v, mask);
            }
            assert_eq!(seg.range(), range);
            seg.splice_into(&mut got);
        }
        assert_eq!(got, want);
        assert_eq!(got.lane_bits(), want.lane_bits());
    }

    #[test]
    fn segment_or_reports_new_bits_and_iterates_globally() {
        let mut seg = LaneSegment::new(50..80);
        assert_eq!(seg.or(51, 0b11), 0b11);
        assert_eq!(seg.or(51, 0b10), 0);
        assert_eq!(seg.or(79, 0b100), 0b100);
        assert_eq!(seg.count_nonzero(), 2);
        assert_eq!(seg.lane_bits(), 3);
        assert_eq!(seg.num_words(), 30);
        let mut seen = Vec::new();
        seg.for_each_nonzero(|v, m| seen.push((v, m)));
        assert_eq!(seen, vec![(51, 0b11), (79, 0b100)]);
    }

    #[test]
    fn live_lanes_is_or_of_words() {
        let mut l = LaneBitmap::new(8);
        assert_eq!(l.live_lanes(), 0);
        l.or(0, 0b0011);
        l.or(3, 0b0110);
        l.or(7, 1 << 63);
        assert_eq!(l.live_lanes(), 0b0111 | 1 << 63);
    }

    #[test]
    #[should_panic(expected = "exceeds lane bitmap")]
    fn segment_splice_rejects_small_target() {
        let seg = LaneSegment::new(100..200);
        let mut small = LaneBitmap::new(150);
        seg.splice_into(&mut small);
    }
}
