//! Automatic partition-count selection — the paper's open question.
//!
//! §IV.G: *"Our framework has a hidden parameter that determines how many
//! partitions are employed for the COO layout. … it would be convenient to
//! determine them heuristically. Our results show that graph partitioning
//! scales to about 384 partitions for all graphs and algorithms. Further
//! investigation is required…"*
//!
//! This module implements that missing heuristic from the paper's own
//! observations:
//!
//! 1. **Locality** (§II.C): the benefit comes from confining the next-array
//!    working set of one partition; choose `P` so a partition's share of
//!    per-vertex data fits comfortably inside the LLC share of one thread.
//! 2. **Atomics** (§III.C): `P >= threads` is required to drop atomics.
//! 3. **NUMA** (§III.D): `P` must be a multiple of the domain count.
//! 4. **Scheduling overhead** (§IV.A): execution time rises again around
//!    480 partitions; cap the answer at 512.

use crate::config::round_partitions;

/// Inputs to the partition-count heuristic.
#[derive(Clone, Copy, Debug)]
pub struct HeuristicInputs {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Worker threads.
    pub threads: usize,
    /// The NUMA domain count the partition count is rounded to.
    pub domains: usize,
    /// Last-level-cache capacity in bytes (per socket on the paper's
    /// machine; 30 MiB there, 32 MiB in our simulator default).
    pub llc_bytes: usize,
    /// Bytes of per-vertex algorithm state touched randomly during a dense
    /// traversal (e.g. 8 for a PageRank accumulator, plus the next-frontier
    /// bitmap's 1/8).
    pub bytes_per_vertex: usize,
}

impl HeuristicInputs {
    /// Reasonable defaults for a graph on the current configuration:
    /// 8-byte vertex state, the simulator's LLC size.
    pub fn new(num_vertices: usize, num_edges: usize, threads: usize, domains: usize) -> Self {
        HeuristicInputs {
            num_vertices,
            num_edges,
            threads,
            domains,
            llc_bytes: 32 * 1024 * 1024,
            bytes_per_vertex: 8,
        }
    }
}

/// Hard cap reflecting the §IV.A observation that scheduling overhead
/// degrades performance beyond ~480 partitions.
pub const MAX_PARTITIONS: usize = 512;

/// Suggests a COO partition count per the rules above.
pub fn suggest_partitions(inputs: &HeuristicInputs) -> usize {
    let HeuristicInputs {
        num_vertices,
        num_edges,
        threads,
        domains,
        llc_bytes,
        bytes_per_vertex,
    } = *inputs;

    // Locality target: a partition's random-access footprint should fit in
    // a quarter of one thread's LLC share (headroom for the streaming edge
    // arrays and the source-side data).
    let per_thread_cache = (llc_bytes / threads.max(1)).max(1);
    let target_footprint = (per_thread_cache / 4).max(1);
    let vertex_bytes = num_vertices.saturating_mul(bytes_per_vertex).max(1);
    let locality_p = vertex_bytes.div_ceil(target_footprint);

    // Atomics removal requires at least one partition per thread; beyond
    // that, extra partitions also smooth load imbalance, so ask for a few
    // per thread.
    let parallelism_p = threads * 4;

    // No point exceeding one partition per ~1024 edges — partitions
    // cheaper than that are pure scheduling overhead.
    let edge_cap = (num_edges / 1024).max(1);

    let p = locality_p
        .max(parallelism_p)
        .min(edge_cap.max(parallelism_p))
        .min(MAX_PARTITIONS);
    round_partitions(p, domains)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize, m: usize) -> HeuristicInputs {
        HeuristicInputs::new(n, m, 48, crate::config::PAPER_DOMAINS)
    }

    #[test]
    fn large_graph_lands_near_the_paper_sweet_spot() {
        // Twitter: 41.7M vertices, 1.47B edges, 48 threads, 32 MiB LLC.
        // Footprint 8*41.7M = 333 MiB; per-thread quarter-share = 170 KiB;
        // locality wants ~2000 partitions, capped to 512 — the same order
        // as the paper's empirical 384.
        let p = suggest_partitions(&base(41_700_000, 1_467_000_000));
        assert_eq!(p, MAX_PARTITIONS);
    }

    #[test]
    fn small_graph_stays_parallelism_bound() {
        // A graph whose state fits in cache: only the threads rule binds.
        let p = suggest_partitions(&base(10_000, 500_000));
        assert!(p >= 48, "must allow atomic-free execution: {p}");
        assert!(p <= 256, "no reason to over-partition: {p}");
    }

    #[test]
    fn respects_numa_multiples() {
        let inputs = HeuristicInputs::new(1_000_000, 10_000_000, 6, 4);
        let p = suggest_partitions(&inputs);
        assert_eq!(p % 4, 0);
    }

    #[test]
    fn tiny_graph_does_not_explode() {
        let inputs = HeuristicInputs::new(100, 1000, 2, 2);
        let p = suggest_partitions(&inputs);
        assert!((2..=64).contains(&p), "{p}");
    }

    #[test]
    fn monotone_in_vertex_count() {
        let small = suggest_partitions(&base(1 << 18, 1 << 24));
        let large = suggest_partitions(&base(1 << 24, 1 << 27));
        assert!(large >= small, "{small} -> {large}");
    }
}
