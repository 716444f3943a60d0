//! Set-associative LRU cache simulation.
//!
//! Substitutes for the hardware LLC miss counters behind Figure 8. The
//! LLC is sized per experiment ([`CacheConfig::scaled_llc`]) so a scaled-down
//! graph keeps the footprint:LLC ratio of the paper's 30 MiB cache.

use crate::trace::{AddressTrace, LINE_BYTES};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// An LLC sized so that `data_bytes / size == ratio` (rounded to a
    /// power of two, min 64 KiB, 16-way). The paper's Twitter-vs-30 MiB
    /// configuration has a footprint:LLC ratio around 10; scaled-down
    /// reproduction graphs keep the same ratio so the partition-count
    /// effects appear at the same relative positions.
    pub fn scaled_llc(data_bytes: u64, ratio: u64) -> Self {
        assert!(ratio > 0);
        let target = (data_bytes / ratio).max(64 * 1024);
        let size = target.next_power_of_two();
        CacheConfig {
            size_bytes: size,
            ways: 16,
            line_bytes: LINE_BYTES,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines as usize / self.ways;
        assert!(sets > 0, "cache too small for its associativity");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// A single-level set-associative LRU cache over cache-line numbers.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    set_mask: u64,
    /// Per set: resident line numbers, most recently used first.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        Cache {
            config,
            set_mask: num_sets as u64 - 1,
            sets: vec![Vec::with_capacity(config.ways); num_sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// References one cache line; returns `true` on hit. LRU replacement
    /// within the line's set.
    pub fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            // Move to MRU position.
            let l = set.remove(pos);
            set.insert(0, l);
            true
        } else {
            self.stats.misses += 1;
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, line);
            false
        }
    }

    /// References a byte address.
    pub fn access(&mut self, byte_addr: u64) -> bool {
        self.access_line(byte_addr / self.config.line_bytes)
    }

    /// Replays an entire trace; returns the stats delta for this replay.
    pub fn replay(&mut self, trace: &AddressTrace) -> CacheStats {
        let before = self.stats;
        for &line in trace.lines() {
            self.access_line(line);
        }
        CacheStats {
            accesses: self.stats.accesses - before.accesses,
            misses: self.stats.misses - before.misses,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and zeroes statistics.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

impl crate::trace::AccessSink for Cache {
    #[inline]
    fn access_line(&mut self, line: u64) {
        Cache::access_line(self, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn trace_of(lines: &[u64]) -> AddressTrace {
        let mut t = AddressTrace::new();
        for &l in lines {
            t.record_line(l);
        }
        t
    }

    /// A small L2-like cache: 256 KiB, 8-way.
    const L2_256K: CacheConfig = CacheConfig {
        size_bytes: 256 * 1024,
        ways: 8,
        line_bytes: LINE_BYTES,
    };

    /// A naive fully associative LRU reference model for validating [`Cache`]
    /// with `ways == capacity` configurations.
    fn naive_fully_associative_misses(trace: &AddressTrace, capacity_lines: usize) -> u64 {
        let mut stack: Vec<u64> = Vec::new();
        let mut misses = 0;
        for &line in trace.lines() {
            match stack.iter().position(|&l| l == line) {
                Some(pos) => {
                    let l = stack.remove(pos);
                    stack.insert(0, l);
                }
                None => {
                    misses += 1;
                    if stack.len() == capacity_lines {
                        stack.pop();
                    }
                    stack.insert(0, line);
                }
            }
        }
        misses
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8 * 64,
            ways: 2,
            line_bytes: 64,
        });
        assert!(!c.access_line(5));
        assert!(c.access_line(5));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: access a, b, a, c -> c evicts b, so b misses again.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 2 * 64,
            ways: 2,
            line_bytes: 64,
        });
        assert_eq!(c.config().num_sets(), 1);
        c.access_line(0); // miss, set = [0]
        c.access_line(1); // miss, set = [1, 0]
        assert!(c.access_line(0)); // hit, set = [0, 1]
        assert!(!c.access_line(2)); // miss, evicts LRU line 1, set = [2, 0]
        assert!(!c.access_line(1)); // miss (was evicted), set = [1, 2]
        assert!(!c.access_line(0)); // miss (evicted by line 1's refill)
        assert!(c.access_line(1)); // still resident
    }

    #[test]
    fn single_set_matches_naive_lru() {
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..10 {
            let lines: Vec<u64> = (0..500).map(|_| rng.gen_range(0..16u64) * 8).collect();
            // Map all lines to one set by making capacity = ways.
            let ways = rng.gen_range(1..8usize);
            let t = trace_of(&lines);
            let naive = naive_fully_associative_misses(&t, ways);
            let mut c = Cache::new(CacheConfig {
                size_bytes: ways as u64 * 64,
                ways,
                line_bytes: 64,
            });
            let stats = c.replay(&t);
            assert_eq!(stats.misses, naive, "ways = {ways}");
        }
    }

    #[test]
    fn streaming_misses_every_line() {
        let lines: Vec<u64> = (0..1000).collect();
        let mut c = Cache::new(L2_256K);
        let stats = c.replay(&trace_of(&lines));
        assert_eq!(stats.misses, 1000);
    }

    #[test]
    fn small_working_set_fits() {
        let mut lines = Vec::new();
        for _ in 0..100 {
            lines.extend(0..32u64);
        }
        let mut c = Cache::new(L2_256K);
        let stats = c.replay(&trace_of(&lines));
        // Only compulsory misses.
        assert_eq!(stats.misses, 32);
        assert!(stats.misses * 50 < stats.accesses);
    }

    #[test]
    fn reset_clears() {
        let mut c = Cache::new(L2_256K);
        c.access_line(1);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access_line(1));
    }
}
