//! Edge orderings for the COO layout (§IV.C).
//!
//! Within each COO partition the paper evaluates three sort orders:
//! by **source** (the order a CSR traversal visits edges), by
//! **destination** (CSC order) and by **Hilbert** space-filling-curve index.
//! Hilbert order is consistently fastest (up to 16.2 %) because it bounds
//! the working set of both endpoint arrays at every scale.
//!
//! # One keyed sort
//!
//! The three orders are three **key functions** over one sort
//! ([`sort_edges`]): `src << 32 | dst`, `dst << 32 | src`, or the Hilbert
//! distance of `(src, dst)`. Each edge's `u64` key is computed **once**,
//! stored beside its edge id, and the `(key, edge)` pairs go through a
//! stable least-significant-digit radix sort on 8-bit digits: one read
//! pass builds all eight digit histograms, a digit on which every key
//! agrees (the high bytes of small vertex ids, a narrow destination range,
//! everything in a 0- or 1-edge partition) is skipped, and each remaining
//! digit is one scatter between two buffers. No comparison ever recomputes
//! a key, and there is one code path for every input size.
//!
//! **Tie rule.** The radix is stable and callers hand edges over in
//! ascending edge-id order, so edges with equal keys — duplicate
//! `(src, dst)` pairs, which may carry different weights — keep their
//! **original edge-list order**. The result is a function of the edge
//! list alone, not of a sort's internals or of what was sorted before.
//!
//! **Memory rule.** The pairs and their ping-pong twin live in a
//! [`SortScratch`] the caller sizes by its *largest partition* and reuses
//! across partitions; nothing here is sized by `|E|`. Sorting one
//! partition reads shared arrays and writes only the scratch it is
//! handed, so partitions can be fanned out over workers, one scratch each.

use crate::hilbert;
use crate::types::VertexId;

/// Sort order of edges inside a COO partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EdgeOrder {
    /// Sorted by `(src, dst)` — the CSR traversal order.
    Source,
    /// Sorted by `(dst, src)` — the CSC traversal order.
    Destination,
    /// Sorted along the Hilbert curve of the adjacency matrix (the paper's
    /// preferred order for high partition counts).
    #[default]
    Hilbert,
}

impl EdgeOrder {
    /// Short label used in benchmark output ("Source" / "Destination" /
    /// "Hilbert", matching Figure 7's legend).
    pub fn label(self) -> &'static str {
        match self {
            EdgeOrder::Source => "Source",
            EdgeOrder::Destination => "Destination",
            EdgeOrder::Hilbert => "Hilbert",
        }
    }

    /// All orders, in Figure 7's presentation order.
    pub fn all() -> [EdgeOrder; 3] {
        [
            EdgeOrder::Source,
            EdgeOrder::Hilbert,
            EdgeOrder::Destination,
        ]
    }

    /// The `u64` edges sort by under this order; `grid` is the Hilbert
    /// curve order covering the vertex ids.
    #[inline]
    fn key(self, grid: u32, src: VertexId, dst: VertexId) -> u64 {
        match self {
            EdgeOrder::Source => u64::from(src) << 32 | u64::from(dst),
            EdgeOrder::Destination => u64::from(dst) << 32 | u64::from(src),
            EdgeOrder::Hilbert => hilbert::edge_key(grid, src, dst),
        }
    }

    /// Parses a label back into an order. Accepts the exact [`label`]
    /// strings (trace round-trip) plus the lowercase CLI spellings
    /// `source` / `dest` / `destination` / `hilbert`.
    ///
    /// [`label`]: EdgeOrder::label
    pub fn from_label(s: &str) -> Option<EdgeOrder> {
        match s {
            "Source" | "source" => Some(EdgeOrder::Source),
            "Destination" | "destination" | "dest" => Some(EdgeOrder::Destination),
            "Hilbert" | "hilbert" => Some(EdgeOrder::Hilbert),
            _ => None,
        }
    }
}

/// Bits per radix digit.
const DIGIT_BITS: u32 = 8;
/// Buckets per digit histogram.
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits in a key.
const DIGITS: usize = (u64::BITS / DIGIT_BITS) as usize;

/// An edge id beside its sort key: the unit the radix sort moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyedEdge {
    /// The edge's key under the order being sorted by.
    pub key: u64,
    /// Index of the edge in the arrays the key was computed from.
    pub edge: u32,
}

/// The two `(key, edge)` buffers [`sort_edges`] ping-pongs between.
/// Allocate one per worker, sized by the largest slice it will sort.
#[derive(Debug, Default)]
pub struct SortScratch {
    pairs: Vec<KeyedEdge>,
    spare: Vec<KeyedEdge>,
}

impl SortScratch {
    /// Scratch that sorts up to `largest` edges without reallocating.
    pub fn with_capacity(largest: usize) -> Self {
        SortScratch {
            pairs: Vec::with_capacity(largest),
            spare: vec![KeyedEdge::default(); largest],
        }
    }
}

/// Sorts the edges `edges` (ids into the parallel `srcs`/`dsts` arrays) by
/// `order`, ties in the order given, and returns them with their keys. The
/// vertex-count parameter sizes the Hilbert grid.
///
/// Hand `edges` over ascending and ties break by original edge id — the
/// tie rule of the module docs; every caller in this workspace does.
///
/// # Panics
/// Panics when `edges` holds more than `u32::MAX` ids (the digit
/// histograms count in `u32`).
pub fn sort_edges<'s>(
    edges: &[u32],
    srcs: &[VertexId],
    dsts: &[VertexId],
    num_vertices: usize,
    order: EdgeOrder,
    scratch: &'s mut SortScratch,
) -> &'s [KeyedEdge] {
    assert!(
        u32::try_from(edges.len()).is_ok(),
        "a sorted slice holds at most u32::MAX edges"
    );
    debug_assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "edge ids ascending, so ties break by original edge id"
    );
    let SortScratch { pairs, spare } = scratch;
    pairs.clear();
    let grid = hilbert::order_for(num_vertices);
    pairs.extend(edges.iter().map(|&edge| KeyedEdge {
        key: order.key(grid, srcs[edge as usize], dsts[edge as usize]),
        edge,
    }));
    if spare.len() < pairs.len() {
        spare.resize(pairs.len(), KeyedEdge::default());
    }
    radix_sort(pairs, &mut spare[..edges.len()])
}

/// Stable LSD radix sort of `src` by key, scattering between `src` and the
/// equally long `dst`; returns whichever of the two holds the result.
fn radix_sort<'a>(mut src: &'a mut [KeyedEdge], mut dst: &'a mut [KeyedEdge]) -> &'a [KeyedEdge] {
    debug_assert_eq!(src.len(), dst.len());
    let mut histograms = [[0u32; BUCKETS]; DIGITS];
    for pair in src.iter() {
        for (digit, histogram) in histograms.iter_mut().enumerate() {
            histogram[bucket(pair.key, digit)] += 1;
        }
    }
    let len = src.len() as u32;
    for (digit, histogram) in histograms.iter_mut().enumerate() {
        // A digit on which all keys agree orders nothing; this also makes
        // empty and one-edge slices free.
        if histogram.contains(&len) {
            continue;
        }
        let mut start = 0u32;
        for count in histogram.iter_mut() {
            start += std::mem::replace(count, start);
        }
        for pair in src.iter() {
            let slot = &mut histogram[bucket(pair.key, digit)];
            dst[*slot as usize] = *pair;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// The `digit`-th 8-bit digit of `key`, least significant first.
#[inline]
fn bucket(key: u64, digit: usize) -> usize {
    (key >> (digit as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1)
}

/// What the comparator sort this module's radix replaced compared by —
/// endpoint tuples, or the bit-loop Hilbert distance: the key of the
/// reference sorts the differential tests here and in `coo` check against.
#[cfg(test)]
pub(crate) fn reference_key(
    order: EdgeOrder,
    num_vertices: usize,
    src: VertexId,
    dst: VertexId,
) -> (u64, u64) {
    let (u, v) = (u64::from(src), u64::from(dst));
    match order {
        EdgeOrder::Source => (u, v),
        EdgeOrder::Destination => (v, u),
        EdgeOrder::Hilbert => {
            let grid = hilbert::order_for(num_vertices);
            (hilbert::xy_to_d_bit_loop(grid, u, v), 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// All of `srcs`/`dsts`' edges sorted by `order` through a fresh
    /// scratch, as `(src, dst, edge id)`.
    fn sorted(srcs: &[u32], dsts: &[u32], n: usize, order: EdgeOrder) -> Vec<(u32, u32, u32)> {
        let ids: Vec<u32> = (0..srcs.len() as u32).collect();
        sort_edges(&ids, srcs, dsts, n, order, &mut SortScratch::default())
            .iter()
            .map(|p| (srcs[p.edge as usize], dsts[p.edge as usize], p.edge))
            .collect()
    }

    /// The sort `sort_edges` replaced, made stable: keys recomputed per
    /// comparison with the bit-loop Hilbert encoder.
    fn reference_sorted(
        srcs: &[u32],
        dsts: &[u32],
        n: usize,
        order: EdgeOrder,
    ) -> Vec<(u32, u32, u32)> {
        let mut ids: Vec<u32> = (0..srcs.len() as u32).collect();
        ids.sort_by_key(|&e| reference_key(order, n, srcs[e as usize], dsts[e as usize]));
        ids.iter()
            .map(|&e| (srcs[e as usize], dsts[e as usize], e))
            .collect()
    }

    #[test]
    fn source_order_sorts_by_src_then_dst() {
        let sorted = sorted(&[2, 0, 2, 1], &[1, 3, 0, 2], 4, EdgeOrder::Source);
        assert_eq!(sorted, vec![(0, 3, 1), (1, 2, 3), (2, 0, 2), (2, 1, 0)]);
    }

    #[test]
    fn destination_order_sorts_by_dst_then_src() {
        let sorted = sorted(&[2, 0, 2, 1], &[1, 3, 0, 2], 4, EdgeOrder::Destination);
        assert_eq!(sorted, vec![(2, 0, 2), (2, 1, 0), (1, 2, 3), (0, 3, 1)]);
    }

    #[test]
    fn hilbert_order_is_a_permutation() {
        let srcs: Vec<u32> = (0..50).map(|i| (i * 7) % 20).collect();
        let dsts: Vec<u32> = (0..50).map(|i| (i * 13) % 20).collect();
        let ids: Vec<u32> = (0..50).collect();
        let mut scratch = SortScratch::with_capacity(50);
        let pairs = sort_edges(&ids, &srcs, &dsts, 20, EdgeOrder::Hilbert, &mut scratch);
        let mut check: Vec<u32> = pairs.iter().map(|p| p.edge).collect();
        check.sort_unstable();
        assert_eq!(check, ids);
        // Keys are the edges' own and non-decreasing along the sequence.
        let k = hilbert::order_for(20);
        for p in pairs {
            let e = p.edge as usize;
            assert_eq!(p.key, hilbert::edge_key(k, srcs[e], dsts[e]));
        }
        assert!(pairs.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn ties_break_by_original_edge_id() {
        // Edges 0, 2, 3 and 5 are the same (1, 2); 1 and 4 the same (0, 3).
        let srcs = [1, 0, 1, 1, 0, 1];
        let dsts = [2, 3, 2, 2, 3, 2];
        for order in EdgeOrder::all() {
            let ids: Vec<u32> = sorted(&srcs, &dsts, 4, order)
                .iter()
                .map(|&(_, _, e)| e)
                .collect();
            let twos: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&e| srcs[e as usize] == 1)
                .collect();
            let threes: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&e| srcs[e as usize] == 0)
                .collect();
            assert_eq!(twos, [0, 2, 3, 5], "{order:?}");
            assert_eq!(threes, [1, 4], "{order:?}");
        }
    }

    #[test]
    fn a_sub_slice_of_edges_sorts_alone_and_scratch_is_reusable() {
        let srcs = [9, 3, 7, 1, 5, 0];
        let dsts = [0, 1, 2, 3, 4, 5];
        let mut scratch = SortScratch::default();
        let of = |pairs: &[KeyedEdge]| pairs.iter().map(|p| p.edge).collect::<Vec<_>>();
        let odd = sort_edges(
            &[1, 3, 5],
            &srcs,
            &dsts,
            10,
            EdgeOrder::Source,
            &mut scratch,
        );
        assert_eq!(of(odd), [5, 3, 1]);
        let all = sort_edges(
            &[0, 1, 2, 3, 4, 5],
            &srcs,
            &dsts,
            10,
            EdgeOrder::Source,
            &mut scratch,
        );
        assert_eq!(of(all), [5, 3, 1, 4, 2, 0]);
        let none = sort_edges(&[], &srcs, &dsts, 10, EdgeOrder::Hilbert, &mut scratch);
        assert!(none.is_empty());
    }

    #[test]
    fn matches_the_reference_sort_at_every_grid_order() {
        // Vertex counts from 1 to 2^32: grid orders 1..=32, so every count
        // of live key digits from none to all eight, with duplicates (the
        // id space is sampled coarsely) to exercise the tie rule.
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for bits in 0..=32u32 {
            let n = 1usize << bits;
            let distinct = (n as u64).min(40);
            let mut pick = || {
                // Spread the few distinct ids over the whole id space.
                let slot = rng.gen_range(0..distinct);
                (slot * ((n as u64 - 1) / (distinct - 1).max(1))) as u32
            };
            let srcs: Vec<u32> = (0..300).map(|_| pick()).collect();
            let dsts: Vec<u32> = (0..300).map(|_| pick()).collect();
            for order in EdgeOrder::all() {
                assert_eq!(
                    sorted(&srcs, &dsts, n, order),
                    reference_sorted(&srcs, &dsts, n, order),
                    "n = 2^{bits}, {order:?}"
                );
            }
        }
    }

    #[test]
    fn extreme_vertex_ids_use_all_eight_digits() {
        // Order-32 grid: Hilbert keys span the full 64 bits, so every
        // digit is live and `2 * order == 64`.
        let n = 1usize << 32;
        let ends = [
            0,
            1,
            u32::MAX - 1,
            u32::MAX,
            1 << 31,
            (1 << 31) - 1,
            0x8000_0001,
        ];
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        for &u in &ends {
            for &v in &ends {
                srcs.push(u);
                dsts.push(v);
            }
        }
        for order in EdgeOrder::all() {
            let got = sorted(&srcs, &dsts, n, order);
            assert_eq!(got, reference_sorted(&srcs, &dsts, n, order), "{order:?}");
        }
        let ids: Vec<u32> = (0..srcs.len() as u32).collect();
        let mut scratch = SortScratch::default();
        let keys = sort_edges(&ids, &srcs, &dsts, n, EdgeOrder::Hilbert, &mut scratch);
        assert_eq!(keys.first().map(|p| p.key >> 56), Some(0));
        assert_eq!(keys.last().map(|p| p.key >> 56), Some(0xFF));
    }

    #[test]
    fn labels_match_figure7_legend() {
        assert_eq!(
            EdgeOrder::all().map(|o| o.label()),
            ["Source", "Hilbert", "Destination"]
        );
    }

    #[test]
    fn labels_round_trip() {
        for o in EdgeOrder::all() {
            assert_eq!(EdgeOrder::from_label(o.label()), Some(o));
        }
        assert_eq!(EdgeOrder::from_label("dest"), Some(EdgeOrder::Destination));
        assert_eq!(EdgeOrder::from_label("hilbert"), Some(EdgeOrder::Hilbert));
        assert_eq!(EdgeOrder::from_label("source"), Some(EdgeOrder::Source));
        assert_eq!(EdgeOrder::from_label("zorder"), None);
    }
}
