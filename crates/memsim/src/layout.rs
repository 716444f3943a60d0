//! Synthetic address-space model.
//!
//! The instrumented traversals in `gg-bench` do not read real pointers; they
//! describe accesses logically ("element `i` of the rank array"). This
//! module assigns each logical array a page-aligned base address in a
//! synthetic address space so that logically distinct arrays never share a
//! cache line — mirroring how the real framework allocates its frontier
//! bitmaps, vertex-data arrays and edge arrays separately.

use crate::trace::AccessSink;

const PAGE: u64 = 4096;

/// Handle to a registered array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayHandle {
    base: u64,
    elem_bytes: u64,
    len: u64,
}

impl ArrayHandle {
    /// Byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!((i as u64) < self.len, "index {i} out of bounds");
        self.base + i as u64 * self.elem_bytes
    }

    /// Byte address of bit `i` in a bit-array interpretation (used for
    /// frontier bitmaps: 8 bits per byte).
    #[inline]
    pub fn bit_addr(&self, i: usize) -> u64 {
        debug_assert!((i as u64) < self.len * 8, "bit {i} out of bounds");
        self.base + i as u64 / 8
    }

    /// Records element `i`'s access into `sink`.
    #[inline]
    pub fn touch<S: AccessSink>(&self, sink: &mut S, i: usize) {
        sink.access(self.addr(i));
    }

    /// Records bit `i`'s access into `sink`.
    #[inline]
    pub fn touch_bit<S: AccessSink>(&self, sink: &mut S, i: usize) {
        sink.access(self.bit_addr(i));
    }
}

/// Allocates logical arrays in a synthetic address space.
#[derive(Clone, Debug, Default)]
pub struct MemoryLayout {
    next_base: u64,
}

impl MemoryLayout {
    /// An empty layout starting at a non-zero base.
    pub fn new() -> Self {
        MemoryLayout { next_base: PAGE }
    }

    /// Registers an array of `len` elements of `elem_bytes` each; the base
    /// is page-aligned so arrays never share cache lines.
    pub fn array(&mut self, len: usize, elem_bytes: usize) -> ArrayHandle {
        let h = ArrayHandle {
            base: self.next_base,
            elem_bytes: elem_bytes as u64,
            len: len.max(1) as u64,
        };
        let bytes = h.len * h.elem_bytes;
        self.next_base += bytes.div_ceil(PAGE).max(1) * PAGE;
        h
    }

    /// Registers a bitmap over `bits` bits (1 byte per 8 bits).
    pub fn bitmap(&mut self, bits: usize) -> ArrayHandle {
        self.array(bits.div_ceil(8).max(1), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AddressTrace, LINE_BYTES};

    #[test]
    fn arrays_do_not_overlap() {
        let mut l = MemoryLayout::new();
        let a = l.array(1000, 4);
        let b = l.array(1000, 8);
        let a_end = a.addr(999) + 4;
        assert!(b.addr(0) >= a_end);
        // Page alignment implies line alignment.
        assert_eq!(a.addr(0) % LINE_BYTES, 0);
        assert_eq!(b.addr(0) % LINE_BYTES, 0);
    }

    #[test]
    fn element_addresses_are_contiguous() {
        let mut l = MemoryLayout::new();
        let a = l.array(16, 4);
        assert_eq!(a.addr(1) - a.addr(0), 4);
        // 16 consecutive u32s span exactly one cache line.
        assert_eq!(a.addr(0) / LINE_BYTES, a.addr(15) / LINE_BYTES);
    }

    #[test]
    fn bitmap_packs_8_bits_per_byte() {
        let mut l = MemoryLayout::new();
        let b = l.bitmap(1024);
        assert_eq!(b.bit_addr(0), b.bit_addr(7));
        assert_eq!(b.bit_addr(8) - b.bit_addr(0), 1);
        // 512 bits per 64-byte line.
        assert_eq!(b.bit_addr(0) / LINE_BYTES, b.bit_addr(511) / LINE_BYTES);
        assert_ne!(b.bit_addr(0) / LINE_BYTES, b.bit_addr(512) / LINE_BYTES);
    }

    #[test]
    fn touch_records() {
        let mut l = MemoryLayout::new();
        let a = l.array(10, 8);
        let mut t = AddressTrace::new();
        a.touch(&mut t, 0);
        a.touch(&mut t, 9);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lines()[0], a.addr(0) / LINE_BYTES);
    }

    #[test]
    fn zero_length_array_is_safe_to_register() {
        let mut l = MemoryLayout::new();
        let a = l.array(0, 4);
        let b = l.array(4, 4);
        assert!(b.addr(0) > a.addr(0));
    }
}
