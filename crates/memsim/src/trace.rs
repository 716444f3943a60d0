//! Cache-line-granular address traces.
//!
//! A trace records the sequence of cache lines a traversal touches. It is
//! the common input to both the reuse-distance profiler and the cache
//! simulator, so an experiment captures one trace and analyses it twice.

/// Cache-line size in bytes (64 B on every x86 server the paper targets).
pub const LINE_BYTES: u64 = 64;

/// Anything that can consume a stream of memory references.
///
/// Instrumented traversals are generic over the sink, so the same traversal
/// code can fill an [`AddressTrace`] (for offline reuse-distance analysis)
/// or drive a cache simulator directly (avoiding materialising multi-
/// gigabyte traces for the Figure 8 MPKI sweeps).
pub trait AccessSink {
    /// Consumes a reference to one cache line.
    fn access_line(&mut self, line: u64);

    /// Consumes a byte-address reference.
    #[inline]
    fn access(&mut self, byte_addr: u64) {
        self.access_line(byte_addr / LINE_BYTES);
    }
}

impl AccessSink for AddressTrace {
    #[inline]
    fn access_line(&mut self, line: u64) {
        self.record_line(line);
    }
}

/// A sink that discards references but counts them.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of references consumed.
    pub count: u64,
}

impl AccessSink for CountingSink {
    #[inline]
    fn access_line(&mut self, _line: u64) {
        self.count += 1;
    }
}

/// An ordered sequence of cache-line references.
#[derive(Clone, Debug, Default)]
pub struct AddressTrace {
    lines: Vec<u64>,
}

impl AddressTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with capacity for `cap` references.
    pub fn with_capacity(cap: usize) -> Self {
        AddressTrace {
            lines: Vec::with_capacity(cap),
        }
    }

    /// Records a byte-address reference (translated to its cache line).
    #[inline]
    pub fn record(&mut self, byte_addr: u64) {
        self.lines.push(byte_addr / LINE_BYTES);
    }

    /// Records a reference that is already a cache-line number.
    #[inline]
    pub fn record_line(&mut self, line: u64) {
        self.lines.push(line);
    }

    /// The recorded cache-line sequence.
    #[inline]
    pub fn lines(&self) -> &[u64] {
        &self.lines
    }

    /// Number of references.
    #[inline]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no references were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Clears the trace, retaining capacity.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_translates_to_lines() {
        let mut t = AddressTrace::new();
        t.record(0);
        t.record(63);
        t.record(64);
        t.record(128);
        assert_eq!(t.lines(), &[0, 0, 1, 2]);
        assert_eq!(t.len(), 4);
    }
}
