//! Multi-source frontier fusion: K-lane batched traversals.
//!
//! A fused traversal co-runs up to 64 point queries ("lanes") over one
//! graph. Per-vertex frontier state is a single `u64` lane word — a
//! [`FusedFrontier`] is the [`Frontier`] over that word — and the per-edge
//! operator ([`MultiSourceOp`]) advances every lane at once:
//! `new_lanes = src_lanes & !dst_lanes`. One edge scan therefore serves
//! all K queries — the batching lever that amortises CSR/CSC edge reads
//! across concurrent requests, exactly as an inference server batches
//! requests to amortise weight reads.
//!
//! ## The scalar kernels over a 64-lane word
//!
//! Fusing changes *state width*, not the executor. A fused frontier caches
//! the statistics of its **union** (the vertices active in some lane), so
//! the [partitioned driver](crate::partitioned) plans, chunks, splits hubs
//! and claims tasks exactly as for a scalar round over the same active
//! set — a partition is dense exactly when the union is dense there — and
//! runs the scalar round's own two kernels on the `u64` lane word of the
//! round state defined here (`FusedRound`) instead of the scalar `bool`:
//!
//! * `Exclusive` runs a [`MultiSourceOp`] (the fused [`EdgeOp`]):
//!   `update` returns the lanes newly activated by one edge and may mutate
//!   destination-indexed state under the single-writer guarantee. A split
//!   mega-hub's slices collect their active `(source, weight, src_lanes)`
//!   contributions and the driver replays them in CSC scan order.
//! * `Quantum` runs a [`MultiSourceReduce`] (the fused
//!   [`EdgeMapReduce`]): destination scans fold per fixed
//!   [`REDUCE_QUANTUM`]-edge run into a per-lane accumulator, so f64
//!   grouping is a property of the destination alone. A split hub's
//!   slices fold the quanta they cover and ship the edges of the quanta
//!   they straddle raw, to be re-folded per quantum.
//!
//! A fused chunk fills the scalar round's typed buffer over the `u64` word
//! ([`PartitionOutput`]: a sparse `(vertex, mask)` list or a range-aligned
//! lane array), merged in `(partition, chunk)` order by the one
//! [`Frontier::from_partition_outputs`], so fused rounds are bit-identical
//! across partition counts, thread counts and chunk caps for the same
//! reasons scalar rounds are. Fused rounds need the partitioned executor:
//! an engine built without it panics on a fused edge map rather than run
//! an unplanned pull.
//!
//! ## Deliverable-lane prefilter
//!
//! A naive fused pull keeps every destination's scan open until **all**
//! lanes reach it, so a vertex whose lanes arrive over a window of W
//! rounds pays W full in-edge scans — the dominant cost when sources are
//! spread (their BFS waves hit each vertex at different depths). Each
//! fused round therefore first derives per-destination **deliverable
//! masks**: the OR of frontier lane words over each destination's
//! in-neighbours, computed from the same out-vertex index that sparse
//! candidate discovery walks (and, like discovery, counted as frontier
//! preprocessing, not edge traversal). The kernels then skip any
//! destination none of whose open lanes are deliverable this round, and
//! the exclusive kernel stops a scan as soon as `cond` holds no
//! deliverable lane — for a visited-set operator, once every deliverable
//! lane has activated: the fused form of the scalar pull's first-claim
//! early exit. The masks depend only on the frontier, never on the
//! schedule, so every configuration makes identical skip decisions and
//! fused rounds stay bit-identical.
//!
//! [`EdgeOp`]: crate::edge_map::EdgeOp
//! [`PartitionOutput`]: crate::frontier::PartitionOutput
//! [`EdgeMapReduce`]: crate::edge_map::EdgeMapReduce
//! [`REDUCE_QUANTUM`]: crate::edge_map::REDUCE_QUANTUM

use gg_graph::csr::Csr;
use gg_graph::types::VertexId;

use crate::frontier::{Frontier, FrontierView};
use crate::partitioned::{LaneOp, LaneReduce, Lanes};

/// A user-supplied fused edge operator: the K-lane analogue of
/// [`EdgeOp`](crate::edge_map::EdgeOp).
///
/// `update` applies the edge `(src, dst)` for every lane set in
/// `src_lanes` and returns the lanes in which `dst` was **newly**
/// activated (for a visited-set traversal, `src_lanes & !dst_lanes`). The
/// engine guarantees a single writer per `dst` (partitioning by
/// destination), so implementations may mutate destination-indexed state
/// with plain relaxed stores.
///
/// # Exclusive-update contract
///
/// The deliverable-lane prefilter (module docs) is sound only for
/// operators with exclusive-update semantics, which every
/// `MultiSourceOp` must honour:
///
/// * `update` returns a subset of `src_lanes`;
/// * once a lane is active at `dst`, further `update` calls carrying that
///   lane neither re-activate it nor observably change state for it (the
///   engine may skip such calls entirely);
/// * `cond(dst)` covers every lane `update` could still activate at
///   `dst`: lanes outside `cond` are never activated nor mutated.
///
/// Operators that accumulate per-edge state (where a skipped edge would
/// change the result) belong on the [`MultiSourceReduce`] path, whose
/// scans are never truncated.
pub trait MultiSourceOp: Sync {
    /// Applies edge `(src, dst)` with weight `w` for the lanes in
    /// `src_lanes`; returns the newly-activated lanes of `dst`.
    /// Single-writer guarantee on `dst`.
    fn update(&self, src: VertexId, dst: VertexId, w: f32, src_lanes: u64) -> u64;

    /// The lanes in which `dst` still wants updates — the fused form of
    /// [`EdgeOp::cond`](crate::edge_map::EdgeOp::cond). A destination
    /// whose `cond` holds no deliverable lane is skipped before its scan,
    /// and the scan stops after the first applied update that leaves
    /// `cond` without one: the early exit engages only when `cond` drops a
    /// lane once it is active at `dst`. Fused BFS returns the
    /// not-yet-visited lanes, so a destination claimed in every lane that
    /// can reach it costs no further edge reads. The default `u64::MAX`
    /// is still correct, but every scan runs in full.
    #[inline]
    fn cond(&self, _dst: VertexId) -> u64 {
        u64::MAX
    }
}

/// The associative fused variant: the K-lane analogue of
/// [`EdgeMapReduce`](crate::edge_map::EdgeMapReduce).
///
/// Destination scans fold in fixed
/// [`REDUCE_QUANTUM`](crate::edge_map::REDUCE_QUANTUM)-edge runs with
/// boundaries at absolute quantum multiples within the scan, exactly like
/// the scalar reduce path, so the per-lane f64 grouping is fixed by the
/// destination alone. `apply` runs under the single-writer guarantee and
/// returns the lanes newly activated by the folded quantum.
///
/// Reduce scans accumulate per-edge state, so the engine never truncates
/// them mid-scan: the deliverable-lane prefilter skips a reduce
/// destination only when **no** in-neighbour is active in any lane — a
/// scan that would have folded nothing. The inherited
/// [`MultiSourceOp::update`] is the operator's single-edge specification,
/// exempt from the skip clause because the reduce kernels never call it.
pub trait MultiSourceReduce: MultiSourceOp {
    /// The per-quantum accumulator (per-lane state; e.g. `[f64; 64]` plus
    /// a touched-lane mask). `Send`, because a split hub's slices fold
    /// their covered quanta on the workers and ship them to the resolver.
    type Acc: Send;

    /// The accumulator every quantum's fold starts from.
    fn identity(&self) -> Self::Acc;

    /// Folds one in-edge `(src, w)` carrying `src_lanes` into `acc`.
    fn accumulate(&self, acc: &mut Self::Acc, src: VertexId, w: f32, src_lanes: u64);

    /// Applies a folded quantum to `dst` (single-writer guarantee);
    /// returns the newly-activated lanes.
    fn apply(&self, dst: VertexId, acc: &Self::Acc) -> u64;
}

/// The lane-word frontier of a fused K-query traversal: per-vertex `u64`
/// lane words in a sparse or dense representation, planned exactly as a
/// scalar frontier is (on the vertices active in some lane).
pub type FusedFrontier = Frontier<u64>;

/// The mask covering lanes `0..k`.
#[inline]
pub fn lane_mask(k: u32) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// The lanes of a fused round: source lane words read from the planned
/// frontier, and per-destination **deliverable-lane masks** — entry `v` is
/// the OR of the frontier lane words over `v`'s in-neighbours, exactly the
/// lanes one more pull of `v` could activate.
///
/// The masks are built by ORing each active vertex's lane word into its
/// out-neighbours in the whole [`Csr`] — the out-edges sparse candidate
/// discovery walks, and like it frontier preprocessing rather than edge
/// traversal, so no `WorkCounters::add_edges` tally. They are a pure
/// function of the frontier, so every schedule derives the same filter and
/// the skip decisions cannot break cross-configuration bit-identity.
pub(crate) struct FusedRound {
    possible: Vec<u64>,
}

impl FusedRound {
    /// Builds the deliverable-lane masks of one round over `fused` from
    /// the whole-graph out-index.
    pub fn new(csr: &Csr, fused: &FusedFrontier) -> Self {
        let mut possible = vec![0u64; csr.num_vertices()];
        fused.for_each(|u, m| {
            for &v in csr.neighbors(u) {
                possible[v as usize] |= m;
            }
        });
        FusedRound { possible }
    }
}

impl Lanes for FusedRound {
    type Word = u64;
    type View<'a> = FrontierView<'a, u64>;

    const PROBES_FRONTIER: bool = true;

    #[inline]
    fn view<'a>(&'a self, current: FrontierView<'a, u64>) -> FrontierView<'a, u64> {
        current
    }

    #[inline]
    fn lanes_of(view: FrontierView<'_, u64>, u: VertexId) -> u64 {
        view.get(u)
    }

    #[inline]
    fn possible(&self, v: VertexId) -> u64 {
        self.possible[v as usize]
    }
}

impl<O: MultiSourceOp> LaneOp<u64> for O {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: f32, lanes: u64) -> u64 {
        MultiSourceOp::update(self, src, dst, w, lanes)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> u64 {
        MultiSourceOp::cond(self, dst)
    }
}

impl<O: MultiSourceReduce> LaneReduce<u64> for O {
    type Acc = O::Acc;

    #[inline]
    fn identity(&self) -> O::Acc {
        MultiSourceReduce::identity(self)
    }

    #[inline]
    fn accumulate(&self, acc: &mut O::Acc, src: VertexId, w: f32, lanes: u64) {
        MultiSourceReduce::accumulate(self, acc, src, w, lanes);
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: &O::Acc) -> u64 {
        MultiSourceReduce::apply(self, dst, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{FrontierData, PartitionOutput};
    use crate::partitioned::{ChunkKernel, Exclusive};
    use crate::plan::OutputRepr;
    use gg_graph::csc::Csc;
    use gg_graph::edge_list::EdgeList;
    use gg_runtime::counters::{LocalTally, WorkCounters};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn lane_mask_covers_full_width() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(64), u64::MAX);
    }

    #[test]
    fn hub_replay_matches_inline_updates_and_respects_early_exit() {
        // A claim-once op: each lane claims dst at most once.
        struct Claim {
            visited: Vec<AtomicU64>,
        }
        impl MultiSourceOp for Claim {
            fn update(&self, _s: VertexId, d: VertexId, _w: f32, src_lanes: u64) -> u64 {
                let prev = self.visited[d as usize].fetch_or(src_lanes, Ordering::Relaxed);
                src_lanes & !prev
            }
            fn cond(&self, d: VertexId) -> u64 {
                lane_mask(2) & !self.visited[d as usize].load(Ordering::Relaxed)
            }
        }
        let op = Claim {
            visited: (0..4).map(|_| AtomicU64::new(0)).collect(),
        };
        // Both lanes are deliverable at destination 2.
        let csc = Csc::from_edge_list(&EdgeList::new(4));
        let kernel = Exclusive {
            csc: &csc,
            lanes: FusedRound {
                possible: vec![0, 0, 0b11, 0],
            },
            op: &op,
        };
        let parts = [vec![(0, 1.0, 0b01), (1, 1.0, 0b11)], vec![(3, 1.0, 0b11)]];
        let reduced = kernel.resolve_hub(2, &parts);
        assert_eq!(reduced.range, 2..3);
        match &reduced.data {
            FrontierData::Sparse { verts, masks } => {
                assert_eq!(verts, &vec![2]);
                // Lane 0 claimed by src 0, lane 1 by src 1; src 3 adds
                // nothing (early exit already fired: both lanes closed).
                assert_eq!(masks, &vec![0b11]);
            }
            other => panic!("expected sparse, got {other:?}"),
        }
        assert_eq!(op.visited[2].load(Ordering::Relaxed), 0b11);
    }

    /// A claim-once visit op over `k` lanes, the BFS update shape.
    struct Visit {
        visited: Vec<AtomicU64>,
        k: u32,
    }
    impl Visit {
        fn new(n: usize, k: u32) -> Self {
            Visit {
                visited: (0..n).map(|_| AtomicU64::new(0)).collect(),
                k,
            }
        }
    }
    impl MultiSourceOp for Visit {
        fn update(&self, _s: VertexId, d: VertexId, _w: f32, src_lanes: u64) -> u64 {
            let prev = self.visited[d as usize].fetch_or(src_lanes, Ordering::Relaxed);
            src_lanes & !prev
        }
        fn cond(&self, d: VertexId) -> u64 {
            lane_mask(self.k) & !self.visited[d as usize].load(Ordering::Relaxed)
        }
    }

    /// Pulls destination 5 of `el` through the exclusive kernel on
    /// `round` over `fused`; returns the edges scanned and the
    /// activations.
    fn pull_5(
        el: &EdgeList,
        fused: &FusedFrontier,
        round: FusedRound,
        op: &Visit,
    ) -> (u64, Vec<(VertexId, u64)>) {
        let csc = Csc::from_edge_list(el);
        let kernel = Exclusive {
            csc: &csc,
            lanes: round,
            op,
        };
        let counters = WorkCounters::new();
        let mut out = PartitionOutput::new(OutputRepr::Sparse, 0..6);
        let mut tally = LocalTally::new(&counters);
        kernel.pull(fused.view(), 5, &mut out, &mut tally);
        drop(tally);
        let mut activated = Vec::new();
        let deg = el.out_degrees();
        Frontier::from_partition_outputs(vec![out], 6, 1, &deg, &counters, None)
            .for_each(|v, m| activated.push((v, m)));
        (counters.edges(), activated)
    }

    #[test]
    fn zero_deliverable_mask_skips_the_scan_without_touching_an_edge() {
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let fused = FusedFrontier::from_seeds(&[1], 6, &el.out_degrees());
        // `possible == 0`: no in-neighbour can deliver a lane.
        let round = FusedRound {
            possible: vec![0; 6],
        };
        let (edges, activated) = pull_5(&el, &fused, round, &Visit::new(6, 1));
        assert_eq!(edges, 0, "skipped destination must not scan");
        assert!(activated.is_empty());
    }

    #[test]
    fn scan_breaks_once_every_deliverable_lane_is_claimed() {
        // Destination 5's in-list is [0, 1, 2, 3, 4] in CSC order; only
        // source 1 is active (lane 0), so the scan must stop right after
        // edge (1, 5) claims the lone deliverable lane.
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let fused = FusedFrontier::from_seeds(&[1], 6, &el.out_degrees());
        let round = FusedRound::new(&Csr::from_edge_list(&el), &fused);
        let (edges, activated) = pull_5(&el, &fused, round, &Visit::new(6, 1));
        assert_eq!(edges, 2, "scan stops at the claiming edge");
        assert_eq!(activated, vec![(5, 0b1)]);
    }

    /// The whole-CSR build matches the masks' definition — the OR of the
    /// frontier lane words over each vertex's CSC in-neighbours — for
    /// sparse and dense lane words at K = 1 and K = 64.
    #[test]
    fn possible_masks_are_the_or_over_in_neighbour_lanes() {
        use gg_graph::generators::{rmat, RmatParams};
        let el = rmat(9, 3000, RmatParams::skewed(), 11);
        let n = el.num_vertices();
        let (csr, csc) = (Csr::from_edge_list(&el), Csc::from_edge_list(&el));
        let deg = el.out_degrees();
        let counters = WorkCounters::new();
        let whole_range = 0..n as VertexId;
        for k in [1u32, 64] {
            for stride in [1, 5, 97] {
                // Lane words hashed from the vertex id, zeros dropped.
                let words: Vec<(VertexId, u64)> = whole_range
                    .clone()
                    .step_by(stride)
                    .map(|v| (v, (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .map(|(v, m)| (v, m & lane_mask(k)))
                    .filter(|&(_, m)| m != 0)
                    .collect();
                let mut lanes = vec![0u64; n];
                for &(v, m) in &words {
                    lanes[v as usize] = m;
                }
                for repr in [OutputRepr::Sparse, OutputRepr::Dense] {
                    let mut out = PartitionOutput::new(repr, whole_range.clone());
                    for &(v, m) in &words {
                        out.push(v, m);
                    }
                    let fused =
                        Frontier::from_partition_outputs(vec![out], n, k, &deg, &counters, None);
                    let built = FusedRound::new(&csr, &fused);
                    for v in whole_range.clone() {
                        let want = csc
                            .edge_range(v)
                            .fold(0, |acc, e| acc | lanes[csc.sources()[e] as usize]);
                        assert_eq!(
                            built.possible(v),
                            want,
                            "K={k} stride={stride} {repr:?} v={v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn possible_masks_or_seed_lanes_over_out_neighbors() {
        let el = EdgeList::from_edges(5, &[(0, 2), (1, 2), (1, 3), (4, 3)]);
        let csr = Csr::from_edge_list(&el);
        // Lane 0 seeds at 0, lane 1 at 1; vertex 4 inactive.
        let fused = FusedFrontier::from_seeds(&[0, 1], 5, &el.out_degrees());
        let round = FusedRound::new(&csr, &fused);
        assert_eq!(round.possible(2), 0b11);
        assert_eq!(round.possible(3), 0b10);
        assert_eq!(round.possible(4), 0);
        assert_eq!(round.possible(0), 0);
    }
}
