//! Exact LRU reuse-distance (stack-distance) profiling — Olken's algorithm.
//!
//! The **reuse distance** of a reference is the number of *distinct* cache
//! lines referenced since the previous reference to the same line
//! (exclusive). A fully associative LRU cache of capacity `C` lines hits
//! exactly the references whose reuse distance is `< C`, which is why
//! Figure 2's contraction of the distance distribution translates directly
//! into the MPKI reductions of Figure 8.
//!
//! Olken's algorithm processes a trace in `O(m log m)`: a hash map tracks
//! each line's previous access time, and a Fenwick tree marks which time
//! positions are the *last* access of some line, so the number of distinct
//! intervening lines is a prefix-sum query.

use std::collections::HashMap;

use crate::histogram::LogHistogram;
use crate::trace::AddressTrace;

/// Fenwick (binary indexed) tree over time positions with +1/-1 updates.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Adds `delta` at position `i` (0-based).
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based inclusive).
    fn prefix(&self, i: usize) -> u32 {
        let mut i = i + 1;
        let mut s = 0u32;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of the half-open range `lo..hi` (0-based).
    fn range(&self, lo: usize, hi: usize) -> u32 {
        if hi <= lo {
            return 0;
        }
        let upper = self.prefix(hi - 1);
        if lo == 0 {
            upper
        } else {
            upper.wrapping_sub(self.prefix(lo - 1))
        }
    }
}

/// The result of profiling one trace.
///
/// ```
/// use gg_memsim::{AddressTrace, ReuseProfile};
///
/// let mut t = AddressTrace::new();
/// for line in [1u64, 2, 3, 1, 2, 3] {
///     t.record_line(line);
/// }
/// let p = ReuseProfile::from_trace(&t);
/// assert_eq!(p.cold_references, 3);
/// // Each reuse skipped 2 distinct other lines: a 4-line LRU cache hits.
/// assert!(p.hit_ratio(4) > 0.49);
/// assert_eq!(p.hit_ratio(2), 0.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReuseProfile {
    /// Histogram of finite reuse distances (log2 buckets).
    pub histogram: LogHistogram,
    /// References with no previous access (cold / compulsory).
    pub cold_references: u64,
    /// Total references profiled.
    pub total_references: u64,
}

impl ReuseProfile {
    /// Profiles a trace with Olken's algorithm.
    pub fn from_trace(trace: &AddressTrace) -> Self {
        let lines = trace.lines();
        let m = lines.len();
        let mut last: HashMap<u64, usize> = HashMap::with_capacity(m / 4 + 16);
        let mut fen = Fenwick::new(m);
        let mut profile = ReuseProfile {
            total_references: m as u64,
            ..Default::default()
        };
        for (t, &line) in lines.iter().enumerate() {
            match last.insert(line, t) {
                None => profile.cold_references += 1,
                Some(prev) => {
                    // Distinct lines whose last access falls strictly
                    // between prev and t.
                    let d = fen.range(prev + 1, t);
                    profile.histogram.add(d as u64);
                    fen.add(prev, -1);
                }
            }
            fen.add(t, 1);
        }
        profile
    }

    /// Fraction of non-cold references with reuse distance `< capacity` —
    /// the hit ratio of a fully associative LRU cache with that many lines.
    pub fn hit_ratio(&self, capacity_lines: u64) -> f64 {
        if self.total_references == 0 {
            return 0.0;
        }
        let mut hits = 0u64;
        for (upper, count) in self.histogram.series() {
            // A bucket is counted as hits when its entire range fits.
            if upper < capacity_lines {
                hits += count;
            }
        }
        hits as f64 / self.total_references as f64
    }
}

/// A deliberately naive O(m·u) reference implementation (LRU stack walk),
/// used by the test-suite to validate Olken's algorithm.
#[cfg(test)]
fn naive_reuse_distances(trace: &AddressTrace) -> Vec<Option<u64>> {
    let mut stack: Vec<u64> = Vec::new(); // most recent first
    let mut out = Vec::with_capacity(trace.len());
    for &line in trace.lines() {
        match stack.iter().position(|&l| l == line) {
            Some(depth) => {
                out.push(Some(depth as u64));
                stack.remove(depth);
            }
            None => out.push(None),
        }
        stack.insert(0, line);
    }
    out
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

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let p = ReuseProfile::from_trace(&trace_of(&[7, 7, 7]));
        assert_eq!(p.cold_references, 1);
        assert_eq!(p.histogram.count(), 2);
        assert_eq!(p.histogram.buckets()[0], 2); // two distance-0 reuses
    }

    #[test]
    fn distinct_scan_is_all_cold() {
        let p = ReuseProfile::from_trace(&trace_of(&[1, 2, 3, 4, 5]));
        assert_eq!(p.cold_references, 5);
        assert_eq!(p.histogram.count(), 0);
    }

    #[test]
    fn cyclic_scan_distance_equals_working_set() {
        // a b c a b c: each reuse skips over 2 distinct other lines.
        let p = ReuseProfile::from_trace(&trace_of(&[1, 2, 3, 1, 2, 3]));
        assert_eq!(p.cold_references, 3);
        assert_eq!(p.histogram.count(), 3);
        assert_eq!(p.histogram.buckets()[2], 3); // distance 2 -> bucket [2,3]
    }

    #[test]
    fn matches_naive_on_random_traces() {
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..20 {
            let len = rng.gen_range(1..200);
            let universe = rng.gen_range(1..30u64);
            let lines: Vec<u64> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
            let t = trace_of(&lines);
            let naive = naive_reuse_distances(&t);
            let olken = ReuseProfile::from_trace(&t);

            let naive_cold = naive.iter().filter(|d| d.is_none()).count() as u64;
            assert_eq!(olken.cold_references, naive_cold);

            let mut naive_hist = LogHistogram::new();
            for d in naive.into_iter().flatten() {
                naive_hist.add(d);
            }
            assert_eq!(olken.histogram, naive_hist);
        }
    }

    #[test]
    fn hit_ratio_reflects_capacity() {
        // Working set of 3 distinct lines cycled 100 times: distance 2.
        let mut lines = Vec::new();
        for _ in 0..100 {
            lines.extend_from_slice(&[1, 2, 3]);
        }
        let p = ReuseProfile::from_trace(&trace_of(&lines));
        // Capacity 4 lines holds the whole working set.
        assert!(p.hit_ratio(4) > 0.95);
        // Capacity 1 line cannot hold it (distance 2 >= 1).
        assert_eq!(p.hit_ratio(1), 0.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Independent restatement of the log2 bucket upper bound: distance
        /// 0 sits alone in bucket 0; a distance in `[2^(k-1), 2^k - 1]`
        /// reports upper bound `2^k - 1`.
        fn bucket_upper(d: u64) -> u64 {
            if d == 0 {
                0
            } else {
                (1u64 << (64 - d.leading_zeros())) - 1
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `hit_ratio` (histogram fast path) must equal the oracle
            /// computed from `naive_reuse_distances` (LRU stack walk):
            /// exactly the non-cold references whose bucket upper bound
            /// fits below the capacity, never a reference whose *true*
            /// distance does not fit.
            #[test]
            fn hit_ratio_matches_naive_oracle(
                tc in (1u64..40).prop_flat_map(|u| {
                    (proptest::collection::vec(0..u, 0..300), 0u64..80)
                }),
            ) {
                let (lines, capacity) = tc;
                let t = trace_of(&lines);
                let naive = naive_reuse_distances(&t);
                let p = ReuseProfile::from_trace(&t);

                let finite: Vec<u64> = naive.iter().copied().flatten().collect();
                let oracle_hits = finite.iter().filter(|&&d| bucket_upper(d) < capacity).count();
                let expect = if lines.is_empty() {
                    0.0
                } else {
                    oracle_hits as f64 / lines.len() as f64
                };
                let got = p.hit_ratio(capacity);
                prop_assert!((got - expect).abs() < 1e-12, "got {got}, expected {expect}");

                // The bucketed ratio is conservative: it never counts a
                // reference an LRU cache of this capacity would miss.
                let true_hits = finite.iter().filter(|&&d| d < capacity).count();
                prop_assert!(oracle_hits <= true_hits);
                prop_assert_eq!(
                    p.cold_references,
                    naive.iter().filter(|d| d.is_none()).count() as u64
                );
            }
        }
    }

    #[test]
    fn fenwick_range_queries() {
        let mut f = Fenwick::new(10);
        f.add(2, 1);
        f.add(5, 1);
        f.add(9, 1);
        assert_eq!(f.range(0, 10), 3);
        assert_eq!(f.range(3, 9), 1);
        assert_eq!(f.range(3, 10), 2);
        assert_eq!(f.range(5, 5), 0);
        f.add(5, -1);
        assert_eq!(f.range(0, 10), 2);
    }
}
