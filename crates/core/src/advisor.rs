//! Memsim-guided per-partition layout advisor.
//!
//! The paper fixes one COO edge order for the whole graph (§IV.C,
//! Hilbert). This module closes the locality loop instead: at graph-build
//! time, each partition replays a **sampled** representative dense-round
//! address trace — the edge-array scan plus frontier-bitmap and
//! vertex-data touches that one dense COO pass performs — once per
//! candidate [`EdgeOrder`], through the `gg_memsim` cache simulator, and
//! keeps the order with the lowest predicted MPKI.
//!
//! The candidates are exactly the orders `gg_graph::reorder` can build:
//! `Destination` models the CSC-style ascending-destination range scan,
//! `Hilbert` the space-filling-curve COO scan, `Source` the CSR-style
//! forward order. Because the sampled edge *set* is identical across
//! candidates (deterministic hash sampling) and the synthetic address of
//! every array element depends only on the element index, the predicted
//! costs differ only by *visit order* — which is the quantity the advisor
//! is ranking.
//!
//! Selection only permutes each partition's edge order, so results remain
//! bit-identical across all choices (see `crate::partitioned`'s
//! determinism contract); the advisor is purely a performance decision.

use gg_graph::edge_list::EdgeList;
use gg_graph::partition::PartitionSet;
use gg_graph::reorder::{self, EdgeOrder, SortScratch};
use gg_memsim::{
    AddressTrace, Cache, CacheConfig, InstructionModel, MemoryLayout, MpkiReport, ReuseProfile,
    LINE_BYTES,
};

/// Partitions whose hash sample comes out smaller than this are traced
/// whole: below a few hundred edges the sampling noise would dominate the
/// locality signal the advisor is trying to read.
pub const MIN_SAMPLED_EDGES: usize = 256;

/// Predicted cost of one `(partition, candidate-order)` pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateScore {
    /// The candidate edge order.
    pub order: EdgeOrder,
    /// Predicted LLC misses per kilo-instruction over the sampled trace.
    pub mpki: f64,
    /// Predicted fully-associative LRU hit ratio at the simulated
    /// capacity (from the reuse-distance profile of the same trace).
    pub hit_ratio: f64,
}

/// The advisor's verdict for one partition.
#[derive(Clone, Debug)]
pub struct PartitionAdvice {
    /// Partition index.
    pub partition: usize,
    /// Argmin-MPKI order (ties break in [`EdgeOrder::all`] order).
    pub chosen: EdgeOrder,
    /// Edges actually traced.
    pub sampled_edges: usize,
    /// Edges homed to this partition.
    pub total_edges: usize,
    /// Simulated cache capacity in lines (scaled to the sampled
    /// footprint so locality differences register at any graph size).
    pub cache_lines: u64,
    /// Per-candidate predictions, in [`EdgeOrder::all`] order. Empty for
    /// partitions with no edges.
    pub candidates: Vec<CandidateScore>,
}

/// The advisor's verdict for every partition of a graph.
#[derive(Clone, Debug)]
pub struct LayoutAdvice {
    /// The effective sample rate after clamping to `(0, 1]`.
    pub sample_rate: f64,
    /// One advice record per partition, in partition order.
    pub partitions: Vec<PartitionAdvice>,
}

impl LayoutAdvice {
    /// The chosen per-partition orders, ready for
    /// `PartitionedCoo::with_orders`.
    pub fn orders(&self) -> Vec<EdgeOrder> {
        self.partitions.iter().map(|a| a.chosen).collect()
    }
}

/// SplitMix64 over the packed endpoints: a deterministic per-edge coin
/// that is independent of edge-list position, so every candidate order
/// scores the exact same sampled edge set.
#[inline]
fn edge_hash(u: u32, v: u32) -> u64 {
    let mut z = (((u as u64) << 32) | v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the sampled memsim pass for every partition of `set` and returns
/// per-partition argmin-MPKI orders. Deterministic for a given
/// `(el, set, sample_rate)`.
pub fn advise(el: &EdgeList, set: &PartitionSet, sample_rate: f64) -> LayoutAdvice {
    let rate = if sample_rate.is_finite() && sample_rate > 0.0 {
        sample_rate.min(1.0)
    } else {
        1.0
    };
    let p = set.num_partitions();
    let n = el.num_vertices();
    let srcs = el.srcs();
    let dsts = el.dsts();

    // Bucket every edge by home partition, marking the hash-sampled ones.
    let threshold = (rate * u64::MAX as f64) as u64;
    let mut all: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
    let mut sampled: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
    for e in 0..el.num_edges() {
        let (u, v) = (srcs[e], dsts[e]);
        let home = set.edge_home(u, v);
        all[home].push((u, v));
        if edge_hash(u, v) <= threshold {
            sampled[home].push((u, v));
        }
    }

    let partitions = (0..p)
        .map(|part| {
            let edges = if sampled[part].len() < MIN_SAMPLED_EDGES {
                &all[part]
            } else {
                &sampled[part]
            };
            advise_partition(part, edges, all[part].len(), n, EdgeOrder::all())
        })
        .collect();
    LayoutAdvice {
        sample_rate: rate,
        partitions,
    }
}

/// Scores the `candidates` on one partition's sampled edges, in the
/// sequence given. Every candidate sorts the same ascending edge ids
/// through `reorder::sort_edges`, whose ties keep that order, so a
/// candidate's trace — and score — does not depend on which candidates
/// were scored before it.
fn advise_partition(
    part: usize,
    edges: &[(u32, u32)],
    total_edges: usize,
    n: usize,
    candidates: [EdgeOrder; 3],
) -> PartitionAdvice {
    if edges.is_empty() {
        return PartitionAdvice {
            partition: part,
            chosen: EdgeOrder::default(),
            sampled_edges: 0,
            total_edges,
            cache_lines: 0,
            candidates: Vec::new(),
        };
    }
    let k = edges.len();
    let e_srcs: Vec<u32> = edges.iter().map(|&(u, _)| u).collect();
    let e_dsts: Vec<u32> = edges.iter().map(|&(_, v)| v).collect();
    let mut distinct: Vec<u32> = e_dsts.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let distinct_dsts = distinct.len() as u64;

    // The dense-round working set: the two 4-byte endpoint arrays (read
    // sequentially in storage order), the source-frontier bitmap, and the
    // 8-byte source/destination vertex-data arrays — the same shape as
    // `crate::trace`'s instrumented dense COO pass.
    let mut layout = MemoryLayout::new();
    let a_srcs = layout.array(k, 4);
    let a_dsts = layout.array(k, 4);
    let a_frontier = layout.bitmap(n);
    let a_src_data = layout.array(n, 8);
    let a_dst_data = layout.array(n, 8);

    let ids: Vec<u32> = (0..u32::try_from(k).expect("edge ids are u32")).collect();
    let mut scratch = SortScratch::with_capacity(k);
    let mut cache_cfg: Option<CacheConfig> = None;
    let mut cache_lines = 0u64;
    let mut scores = Vec::with_capacity(candidates.len());
    for order in candidates {
        let sorted = reorder::sort_edges(&ids, &e_srcs, &e_dsts, n, order, &mut scratch);
        let mut trace = AddressTrace::new();
        for (slot, pair) in sorted.iter().enumerate() {
            let e = pair.edge as usize;
            let (u, v) = (e_srcs[e] as usize, e_dsts[e] as usize);
            // In the real layout the edge arrays are *stored* in this
            // order, so the endpoint reads walk slots sequentially.
            a_srcs.touch(&mut trace, slot);
            a_dsts.touch(&mut trace, slot);
            a_frontier.touch_bit(&mut trace, u);
            a_src_data.touch(&mut trace, u);
            a_dst_data.touch(&mut trace, v);
        }
        // Size the cache once, from the (order-independent) sampled
        // footprint: small enough that the working set does not trivially
        // fit, so visit order actually differentiates the candidates.
        let cfg = *cache_cfg.get_or_insert_with(|| {
            let lines = (trace.footprint_lines() as u64 / 4)
                .next_power_of_two()
                .max(64);
            cache_lines = lines;
            CacheConfig {
                size_bytes: lines * LINE_BYTES,
                ways: 8,
                line_bytes: LINE_BYTES,
            }
        });
        let mut cache = Cache::new(cfg);
        let stats = cache.replay(&trace);
        let mpki =
            MpkiReport::new(stats, InstructionModel::default(), k as u64, distinct_dsts).mpki();
        let hit_ratio = ReuseProfile::from_trace(&trace).hit_ratio(cache_lines);
        scores.push(CandidateScore {
            order,
            mpki,
            hit_ratio,
        });
    }

    let chosen = scores
        .iter()
        .fold(None::<CandidateScore>, |best, &c| match best {
            Some(b) if b.mpki <= c.mpki => Some(b),
            _ => Some(c),
        })
        .map(|c| c.order)
        .unwrap_or_default();
    PartitionAdvice {
        partition: part,
        chosen,
        sampled_edges: k,
        total_edges,
        cache_lines,
        candidates: scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_graph::generators;
    use gg_graph::partition::PartitionBy;

    fn setup(p: usize) -> (EdgeList, PartitionSet) {
        let el = generators::rmat(9, 6000, generators::RmatParams::skewed(), 11);
        let set = PartitionSet::edge_balanced(&el.in_degrees(), p, PartitionBy::Destination);
        (el, set)
    }

    #[test]
    fn advice_covers_every_partition_and_is_deterministic() {
        let (el, set) = setup(8);
        let a = advise(&el, &set, 0.5);
        let b = advise(&el, &set, 0.5);
        assert_eq!(a.partitions.len(), 8);
        for (part, adv) in a.partitions.iter().enumerate() {
            assert_eq!(adv.partition, part);
            if adv.total_edges > 0 {
                assert_eq!(adv.candidates.len(), 3);
                assert!(adv.sampled_edges > 0);
                assert!(adv.candidates.iter().all(|c| c.mpki.is_finite()));
                // The pick is the argmin of the predictions.
                let min = adv
                    .candidates
                    .iter()
                    .map(|c| c.mpki)
                    .fold(f64::INFINITY, f64::min);
                let picked = adv
                    .candidates
                    .iter()
                    .find(|c| c.order == adv.chosen)
                    .unwrap();
                assert_eq!(picked.mpki, min);
            }
        }
        assert_eq!(a.orders(), b.orders());
        for (x, y) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(x.candidates, y.candidates);
        }
    }

    #[test]
    fn a_candidates_score_ignores_what_was_scored_before_it() {
        // Duplicate edges give the sort ties to break; scoring the three
        // orders in every sequence must give each order the same score.
        let (el, set) = setup(2);
        let mut edges: Vec<(u32, u32)> = el.iter().filter(|&(_, v)| set.home(v) == 0).collect();
        edges.extend_from_within(..edges.len() / 2);
        let [s, h, d] = EdgeOrder::all();
        let score_of = |adv: &PartitionAdvice, order| {
            *adv.candidates.iter().find(|c| c.order == order).unwrap()
        };
        let base = advise_partition(0, &edges, edges.len(), el.num_vertices(), [s, h, d]);
        for sequence in [[s, d, h], [h, s, d], [h, d, s], [d, s, h], [d, h, s]] {
            let adv = advise_partition(0, &edges, edges.len(), el.num_vertices(), sequence);
            assert_eq!(adv.cache_lines, base.cache_lines, "{sequence:?}");
            for order in EdgeOrder::all() {
                assert_eq!(
                    score_of(&adv, order),
                    score_of(&base, order),
                    "{sequence:?}"
                );
            }
        }
    }

    #[test]
    fn sample_rate_bounds_traced_edges() {
        let (el, set) = setup(2);
        let full = advise(&el, &set, 1.0);
        let half = advise(&el, &set, 0.5);
        for (f, h) in full.partitions.iter().zip(&half.partitions) {
            assert_eq!(f.sampled_edges, f.total_edges);
            assert!(h.sampled_edges <= f.sampled_edges);
            // Sampling keeps enough edges to matter.
            assert!(h.sampled_edges >= MIN_SAMPLED_EDGES.min(h.total_edges));
        }
        // Nonsense rates clamp to full tracing rather than panicking.
        let clamped = advise(&el, &set, -3.0);
        assert_eq!(clamped.sample_rate, 1.0);
    }

    #[test]
    fn small_partitions_are_traced_whole() {
        let (el, set) = setup(64);
        let a = advise(&el, &set, 0.01);
        for adv in &a.partitions {
            if adv.total_edges < MIN_SAMPLED_EDGES {
                assert_eq!(adv.sampled_edges, adv.total_edges);
            }
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let el = EdgeList::from_edges(4, &[]);
        let set = PartitionSet::vertex_balanced(4, 2, PartitionBy::Destination);
        let a = advise(&el, &set, 0.5);
        assert_eq!(a.partitions.len(), 2);
        for adv in &a.partitions {
            assert_eq!(adv.chosen, EdgeOrder::Hilbert);
            assert!(adv.candidates.is_empty());
        }
    }
}
