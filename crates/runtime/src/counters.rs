//! Work counters: edges and vertices visited by a traversal.
//!
//! §II.F observes that traversal work grows with the replication factor
//! for partitioned CSR (each replica is loaded and checked) while COO work
//! is constant. These counters make that measurable, and they feed the
//! instruction-count proxy used for MPKI normalisation (Figure 8).
//!
//! To avoid perturbing the measured traversal, workers accumulate locally
//! and flush once per partition/chunk with a single `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate visit counters: the per-round work of edge maps, summed over
/// an engine's lifetime until [`reset`](Self::reset). Batch-granular
/// serving tallies are not work counters; the serving layer keeps them in
/// its own outcome (`gg_bench::serve::ServeOutcome`).
#[derive(Debug, Default)]
pub struct WorkCounters {
    edges: AtomicU64,
    vertices: AtomicU64,
    /// 64-bit words touched by *dense* next-frontier merges (whole-bitmap
    /// allocations plus spliced segment words). Sparse-output rounds add
    /// nothing here — this is the counter that proves a tiny frontier pays
    /// no `O(|V| / 64)` merge floor.
    merge_words: AtomicU64,
    /// Chunk tasks spawned by the partitioned executor. Equals the
    /// partition-task count when `chunk_edges` is unbounded; exceeds it as
    /// soon as intra-partition chunking splits a heavy partition.
    chunks: AtomicU64,
    /// Sum of planned CSC edge counts over all spawned chunks (pairs with
    /// [`chunks`](Self::chunks) for the mean chunk size).
    chunk_edges_sum: AtomicU64,
    /// Largest planned CSC edge count of any spawned chunk. Under a fixed
    /// cap the chunking guarantee is
    /// `max_chunk_edges < cap + min(max_degree, cap)`: a chunk closes as
    /// soon as it reaches the cap, and a destination whose in-degree alone
    /// exceeds the cap is split into per-scan sub-chunks of at most `cap`
    /// edges (see [`hub_subchunks`](Self::hub_subchunks)). Under the
    /// adaptive cap a cost model keeps marginal hubs whole, loosening the
    /// bound to `cap + HUB_SPLIT_OVERHEAD_EDGES` for a hub sitting alone
    /// in its chunk.
    max_chunk_edges: AtomicU64,
    /// Mega-hub sub-chunks spawned: chunks covering one slice of a single
    /// destination's in-edge scan. Non-zero exactly when some destination's
    /// in-degree exceeded the (resolved) chunk cap — the observable proof
    /// that hub splitting engaged and `max_chunk_edges` is no longer
    /// bounded below by the top hub's degree.
    hub_subchunks: AtomicU64,
    /// Lane bits activated by fused multi-source edge maps: Σ popcount of
    /// the newly set lane masks each fused round emits. With K queries
    /// fused, one round that activates `v` vertices across `b` lane bits
    /// did the frontier work of `b` single-source activations while
    /// scanning each edge once — `fused_lanes / edges` is the fusion
    /// amortisation ratio.
    fused_lanes: AtomicU64,
    /// Lane words spliced by *dense* fused-frontier merges: one word per
    /// vertex of every dense output segment, counted even when the
    /// segments activated nothing. The merged frontier's own `|V|`-word
    /// lane array is not counted — unlike
    /// [`merge_words`](Self::merge_words), the scalar analogue, which adds
    /// its whole-bitmap allocation. Sparse fused rounds add nothing here.
    lane_union_words: AtomicU64,
}

impl WorkCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a batch of edge visits.
    #[inline]
    pub fn add_edges(&self, n: u64) {
        self.edges.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a batch of vertex visits.
    #[inline]
    pub fn add_vertices(&self, n: u64) {
        self.vertices.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a batch of dense-merge word touches.
    #[inline]
    pub fn add_merge_words(&self, n: u64) {
        self.merge_words.fetch_add(n, Ordering::Relaxed);
    }

    /// Edges visited so far.
    #[inline]
    pub fn edges(&self) -> u64 {
        self.edges.load(Ordering::Relaxed)
    }

    /// Vertices visited so far.
    #[inline]
    pub fn vertices(&self) -> u64 {
        self.vertices.load(Ordering::Relaxed)
    }

    /// Dense-merge words touched so far.
    #[inline]
    pub fn merge_words(&self) -> u64 {
        self.merge_words.load(Ordering::Relaxed)
    }

    /// Records one edge map's chunk plan: `n` chunks spawned, their planned
    /// edge counts summing to `edge_sum` with maximum `edge_max`. All three
    /// are deterministic functions of the plan. An all-empty round may
    /// record `(0, 0, 0)`; [`mean_chunk_edges`](Self::mean_chunk_edges)
    /// stays well-defined (0) in that case.
    pub fn add_chunks(&self, n: u64, edge_sum: u64, edge_max: u64) {
        self.chunks.fetch_add(n, Ordering::Relaxed);
        self.chunk_edges_sum.fetch_add(edge_sum, Ordering::Relaxed);
        self.max_chunk_edges.fetch_max(edge_max, Ordering::Relaxed);
    }

    /// Records one edge map's mega-hub sub-chunk count (sub-chunks are
    /// also counted as ordinary chunks by
    /// [`add_chunks`](Self::add_chunks)).
    pub fn add_hub_subchunks(&self, n: u64) {
        self.hub_subchunks.fetch_add(n, Ordering::Relaxed);
    }

    /// Mega-hub sub-chunks spawned so far.
    #[inline]
    pub fn hub_subchunks(&self) -> u64 {
        self.hub_subchunks.load(Ordering::Relaxed)
    }

    /// Chunk tasks spawned so far.
    #[inline]
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Largest planned edge count of any spawned chunk.
    #[inline]
    pub fn max_chunk_edges(&self) -> u64 {
        self.max_chunk_edges.load(Ordering::Relaxed)
    }

    /// Mean planned edge count per spawned chunk. Returns 0 (not NaN)
    /// before any chunk was planned — a round whose frontier is empty in
    /// every partition plans zero chunks, and reporting code divides by
    /// the chunk count unconditionally.
    pub fn mean_chunk_edges(&self) -> f64 {
        let n = self.chunks();
        if n == 0 {
            return 0.0;
        }
        self.chunk_edges_sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Adds a batch of fused lane-bit activations.
    #[inline]
    pub fn add_fused_lanes(&self, n: u64) {
        self.fused_lanes.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds a batch of dense fused-merge lane-word touches.
    #[inline]
    pub fn add_lane_union_words(&self, n: u64) {
        self.lane_union_words.fetch_add(n, Ordering::Relaxed);
    }

    /// Lane bits activated by fused edge maps so far.
    #[inline]
    pub fn fused_lanes(&self) -> u64 {
        self.fused_lanes.load(Ordering::Relaxed)
    }

    /// Dense fused-merge lane words touched so far.
    #[inline]
    pub fn lane_union_words(&self) -> u64 {
        self.lane_union_words.load(Ordering::Relaxed)
    }

    /// Reads every accumulating counter at once. `max_chunk_edges` is
    /// deliberately absent: it accumulates with `fetch_max`, so per-round
    /// deltas (`CounterSnapshot::delta_since`) are not defined for it.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            edges: self.edges(),
            vertices: self.vertices(),
            merge_words: self.merge_words(),
            chunks: self.chunks(),
            hub_subchunks: self.hub_subchunks(),
            steals: 0,
            cross_domain_steals: 0,
            fused_lanes: self.fused_lanes(),
            lane_union_words: self.lane_union_words(),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.edges.store(0, Ordering::Relaxed);
        self.vertices.store(0, Ordering::Relaxed);
        self.merge_words.store(0, Ordering::Relaxed);
        self.chunks.store(0, Ordering::Relaxed);
        self.chunk_edges_sum.store(0, Ordering::Relaxed);
        self.max_chunk_edges.store(0, Ordering::Relaxed);
        self.hub_subchunks.store(0, Ordering::Relaxed);
        self.fused_lanes.store(0, Ordering::Relaxed);
        self.lane_union_words.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time reading of every accumulating [`WorkCounters`] field,
/// taken before and after a round so the record/replay harness can
/// attribute work to individual rounds (the counters themselves are
/// cumulative across a whole run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Edges visited.
    pub edges: u64,
    /// Vertices visited.
    pub vertices: u64,
    /// Dense-merge words touched.
    pub merge_words: u64,
    /// Chunk tasks spawned.
    pub chunks: u64,
    /// Mega-hub sub-chunks spawned.
    pub hub_subchunks: u64,
    /// Retired with the deque work-stealing scheduler: always 0. Kept
    /// only because the frozen `benchmark/` package still reads it (the
    /// trace format dropped it in version 4); remove once it stops.
    pub steals: u64,
    /// Retired, always 0 — see [`steals`](Self::steals).
    pub cross_domain_steals: u64,
    /// Lane bits activated by fused multi-source edge maps.
    pub fused_lanes: u64,
    /// Dense fused-merge lane words touched.
    pub lane_union_words: u64,
}

impl CounterSnapshot {
    /// Field-wise difference `self - earlier`: the work attributable to
    /// whatever ran between the two snapshots. Saturating, so a `reset()`
    /// between snapshots degrades to zeros instead of wrapping.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            edges: self.edges.saturating_sub(earlier.edges),
            vertices: self.vertices.saturating_sub(earlier.vertices),
            merge_words: self.merge_words.saturating_sub(earlier.merge_words),
            chunks: self.chunks.saturating_sub(earlier.chunks),
            hub_subchunks: self.hub_subchunks.saturating_sub(earlier.hub_subchunks),
            steals: 0,
            cross_domain_steals: 0,
            fused_lanes: self.fused_lanes.saturating_sub(earlier.fused_lanes),
            lane_union_words: self
                .lane_union_words
                .saturating_sub(earlier.lane_union_words),
        }
    }
}

/// Per-worker local tally, flushed on drop.
pub struct LocalTally<'a> {
    counters: &'a WorkCounters,
    edges: u64,
    vertices: u64,
}

impl<'a> LocalTally<'a> {
    /// Starts a local tally against `counters`.
    pub fn new(counters: &'a WorkCounters) -> Self {
        LocalTally {
            counters,
            edges: 0,
            vertices: 0,
        }
    }

    /// Counts one edge visit.
    #[inline]
    pub fn edge(&mut self) {
        self.edges += 1;
    }

    /// Counts one vertex visit.
    #[inline]
    pub fn vertex(&mut self) {
        self.vertices += 1;
    }

    /// Counts `n` edge visits.
    #[inline]
    pub fn edges_n(&mut self, n: u64) {
        self.edges += n;
    }

    /// Counts `n` vertex visits.
    #[inline]
    pub fn vertices_n(&mut self, n: u64) {
        self.vertices += n;
    }
}

impl Drop for LocalTally<'_> {
    fn drop(&mut self) {
        if self.edges > 0 {
            self.counters.add_edges(self.edges);
        }
        if self.vertices > 0 {
            self.counters.add_vertices(self.vertices);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read() {
        let c = WorkCounters::new();
        c.add_edges(10);
        c.add_vertices(3);
        c.add_edges(5);
        c.add_merge_words(7);
        assert_eq!(c.edges(), 15);
        assert_eq!(c.vertices(), 3);
        assert_eq!(c.merge_words(), 7);
        c.reset();
        assert_eq!(c.edges(), 0);
        assert_eq!(c.merge_words(), 0);
    }

    #[test]
    fn chunk_counters_accumulate_and_reset() {
        let c = WorkCounters::new();
        assert_eq!(c.mean_chunk_edges(), 0.0);
        c.add_chunks(3, 300, 150);
        c.add_chunks(1, 100, 100);
        c.add_hub_subchunks(2);
        assert_eq!(c.chunks(), 4);
        assert_eq!(c.max_chunk_edges(), 150);
        assert_eq!(c.mean_chunk_edges(), 100.0);
        assert_eq!(c.hub_subchunks(), 2);
        c.reset();
        assert_eq!(c.chunks(), 0);
        assert_eq!(c.max_chunk_edges(), 0);
        assert_eq!(c.hub_subchunks(), 0);
    }

    #[test]
    fn fused_counters_accumulate_and_reset() {
        let c = WorkCounters::new();
        c.add_fused_lanes(5);
        c.add_fused_lanes(7);
        c.add_lane_union_words(100);
        assert_eq!(c.fused_lanes(), 12);
        assert_eq!(c.lane_union_words(), 100);
        let snap = c.snapshot();
        assert_eq!(snap.fused_lanes, 12);
        assert_eq!(snap.lane_union_words, 100);
        c.reset();
        assert_eq!(c.fused_lanes(), 0);
        assert_eq!(c.lane_union_words(), 0);
    }

    /// The all-empty round: a plan with zero chunks must keep the mean
    /// well-defined (0, not NaN from a 0/0 division) — reporting code
    /// (the benchmark, the contract harness's named tests) reads the mean
    /// unconditionally after rounds that may have planned nothing.
    #[test]
    fn mean_chunk_edges_is_zero_when_no_chunks_were_planned() {
        let c = WorkCounters::new();
        c.add_chunks(0, 0, 0);
        assert_eq!(c.chunks(), 0);
        let mean = c.mean_chunk_edges();
        assert!(!mean.is_nan(), "0/0 must not leak out as NaN");
        assert_eq!(mean, 0.0);
        // Still zero after a reset.
        c.reset();
        assert_eq!(c.mean_chunk_edges(), 0.0);
    }

    #[test]
    fn snapshot_deltas_attribute_work_between_readings() {
        let c = WorkCounters::new();
        c.add_edges(100);
        c.add_chunks(2, 50, 30);
        let before = c.snapshot();
        c.add_edges(7);
        c.add_vertices(3);
        c.add_chunks(4, 80, 40);
        c.add_hub_subchunks(1);
        c.add_fused_lanes(9);
        c.add_lane_union_words(11);
        let delta = c.snapshot().delta_since(&before);
        assert_eq!(delta.edges, 7);
        assert_eq!(delta.vertices, 3);
        assert_eq!(delta.chunks, 4);
        assert_eq!(delta.hub_subchunks, 1);
        assert_eq!(delta.fused_lanes, 9);
        assert_eq!(delta.lane_union_words, 11);
        // A reset between snapshots saturates to zero, not wraparound.
        c.reset();
        let after_reset = c.snapshot().delta_since(&before);
        assert_eq!(after_reset, CounterSnapshot::default());
    }

    #[test]
    fn tally_flushes_on_drop() {
        let c = WorkCounters::new();
        {
            let mut t = LocalTally::new(&c);
            t.edge();
            t.edge();
            t.vertex();
            t.edges_n(8);
            assert_eq!(c.edges(), 0, "not flushed yet");
        }
        assert_eq!(c.edges(), 10);
        assert_eq!(c.vertices(), 1);
    }

    #[test]
    fn concurrent_tallies() {
        let c = WorkCounters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut t = LocalTally::new(&c);
                    for _ in 0..1000 {
                        t.edge();
                    }
                });
            }
        });
        assert_eq!(c.edges(), 8000);
    }
}
