//! Fused multi-source queries: K concurrent traversals (K ≤ 64) advanced
//! by **one** edge-map pass per round.
//!
//! Each query owns a lane of the
//! [`FusedFrontier`]; one CSC scan serves
//! every lane whose source set touches the scanned edge, so K queries that
//! would each traverse the same hub edges sequentially traverse them once.
//! All three algorithms here are **lane-wise bit-identical** to running the
//! same query alone in lane 0: per-lane state never reads another lane, and
//! the executor replays hub splits and folds reduce quanta in a
//! configuration-independent order.
//!
//! * [`fused_bfs`] — per-lane BFS distance = the round at which the lane
//!   bit first reaches the vertex;
//! * [`fused_reachability`] — per-vertex bitmask of the seeds that reach
//!   it;
//! * [`fused_ppr`] — K personalized-PageRank queries sharing one residual
//!   sweep per round ([`MultiSourceReduce`] with quantum-folded f64
//!   accumulation).
//!
//! ## Stepping runners
//!
//! The drain loops above are thin wrappers over [`FusedBfsRun`] /
//! [`FusedPprRun`]: resumable runners that advance one fused round per
//! `step()` and report **per-lane early retirement** — a lane whose
//! frontier empties quiesces and its per-query result is final from that
//! round on, while sibling lanes keep running. `step()` returns the lanes
//! that left the frontier in that round, so the serving layer, which
//! steps runners directly, stamps each lane's completion at the round it
//! retires. A runner keeps one word of live lanes, the previous round's
//! [`FusedFrontier::live_lanes`] — a pure function of the frontier. A
//! retired lane holds no frontier bits (an edge map only activates lanes
//! its sources carry), so a round's output is the next frontier as it
//! stands and stepping yields bit-identical results to draining.

use std::sync::atomic::{AtomicU64, Ordering};

use gg_core::engine::GraphGrind2;
use gg_core::fused::{lane_mask, FusedFrontier, MultiSourceOp, MultiSourceReduce};
use gg_core::Engine;
use gg_graph::types::VertexId;
use gg_runtime::atomics::AtomicF64;

/// Result of a fused K-source BFS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusedBfsResult {
    /// `dist[k][v]` = BFS distance from `sources[k]` to `v`
    /// (`u32::MAX` = unreached).
    pub dist: Vec<Vec<u32>>,
    /// Number of fused edge-map rounds executed.
    pub rounds: usize,
}

/// Claim-once visitation over all lanes: one `fetch_or` both tests and
/// sets, so the exclusive (single-writer) path never double-activates.
struct FusedVisitOp {
    visited: Vec<AtomicU64>,
    mask: u64,
}

impl FusedVisitOp {
    fn new(n: usize, seeds: &[VertexId]) -> Self {
        let visited: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for (k, &s) in seeds.iter().enumerate() {
            visited[s as usize].fetch_or(1u64 << k, Ordering::Relaxed);
        }
        FusedVisitOp {
            visited,
            mask: lane_mask(seeds.len() as u32),
        }
    }
}

impl MultiSourceOp for FusedVisitOp {
    #[inline]
    fn update(&self, _src: VertexId, dst: VertexId, _w: f32, src_lanes: u64) -> u64 {
        let prev = self.visited[dst as usize].fetch_or(src_lanes, Ordering::Relaxed);
        src_lanes & !prev
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> u64 {
        self.mask & !self.visited[dst as usize].load(Ordering::Relaxed)
    }
}

/// A resumable fused BFS/reachability batch: one fused edge-map round per
/// [`step`](Self::step), with per-lane early retirement.
///
/// Constructed with or without distance tracking
/// ([`new`](Self::new) / [`reach_only`](Self::reach_only) — a
/// reachability batch over K lanes would otherwise pay `K · |V| · 4` bytes
/// of distances it never reads). Stepping to completion is exactly the
/// [`fused_bfs`] loop; a retired lane's result never changes after its
/// retirement round because the lane has no frontier bits left to expand.
pub struct FusedBfsRun<'a> {
    engine: &'a GraphGrind2,
    op: FusedVisitOp,
    frontier: FusedFrontier,
    /// `dist[k][v]`; empty when constructed reach-only.
    dist: Vec<Vec<u32>>,
    depth: u32,
    /// The lanes with frontier bits: `frontier.live_lanes()`.
    live: u64,
}

impl<'a> FusedBfsRun<'a> {
    /// A distance-tracking batch: lane `k` computes BFS levels from
    /// `sources[k]` (K ≤ 64; duplicate sources are fine, the lanes just
    /// share frontier bits).
    ///
    /// # Panics
    /// Panics if more than 64 sources are given or a source is out of
    /// range.
    pub fn new(engine: &'a GraphGrind2, sources: &[VertexId]) -> Self {
        let mut run = Self::reach_only(engine, sources);
        let n = engine.num_vertices();
        run.dist = vec![vec![u32::MAX; n]; sources.len()];
        for (k, &s) in sources.iter().enumerate() {
            run.dist[k][s as usize] = 0;
        }
        run
    }

    /// A visited-only batch for reachability queries: no per-lane
    /// distance vectors are allocated.
    ///
    /// # Panics
    /// Panics if more than 64 sources are given or a source is out of
    /// range.
    pub fn reach_only(engine: &'a GraphGrind2, sources: &[VertexId]) -> Self {
        // The frontier validates the sources before anything indexes by
        // them.
        let frontier = engine.fused_frontier(sources);
        let op = FusedVisitOp::new(engine.num_vertices(), sources);
        FusedBfsRun {
            engine,
            op,
            live: frontier.live_lanes(),
            frontier,
            dist: Vec::new(),
            depth: 0,
        }
    }

    /// Advances the batch one fused round; returns the lanes that retired
    /// this round (empty frontier ⇒ their results are final). No-op on a
    /// finished batch.
    pub fn step(&mut self) -> u64 {
        if self.is_done() {
            return 0;
        }
        let next = self.engine.fused_edge_map(&self.frontier, &self.op);
        self.depth += 1;
        if !self.dist.is_empty() {
            let depth = self.depth;
            let dist = &mut self.dist;
            next.for_each(|v, m| {
                let mut lanes = m;
                while lanes != 0 {
                    let k = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    dist[k][v as usize] = depth;
                }
            });
        }
        let live = next.live_lanes();
        debug_assert_eq!(live & !self.live, 0, "retired lane has bits");
        let retired = self.live & !live;
        self.live = live;
        self.frontier = next;
        retired
    }

    /// True when every lane has quiesced.
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Fused rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.depth as usize
    }

    /// Lane `k`'s distance vector (distance-tracking batches only).
    ///
    /// # Panics
    /// Panics on a [`reach_only`](Self::reach_only) batch.
    pub fn dist(&self, k: u32) -> &[u32] {
        &self.dist[k as usize]
    }

    /// Per-vertex reachability masks: bit `k` of entry `v` is set iff
    /// `sources[k]` has reached `v` so far.
    pub fn reach_masks(&self) -> Vec<u64> {
        self.op
            .visited
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Finishes a drained distance batch.
    pub fn into_result(self) -> FusedBfsResult {
        debug_assert!(self.is_done());
        FusedBfsResult {
            dist: self.dist,
            rounds: self.depth as usize,
        }
    }
}

/// Runs K fused BFS traversals, one per entry of `sources` (K ≤ 64).
///
/// Lane `k` of the result is bit-identical to `bfs(engine, sources[k])`
/// levels: the fused rounds advance every lane in lockstep and a lane's
/// distance is the round at which its bit first reaches the vertex.
pub fn fused_bfs(engine: &GraphGrind2, sources: &[VertexId]) -> FusedBfsResult {
    let mut run = FusedBfsRun::new(engine, sources);
    while !run.is_done() {
        run.step();
    }
    run.into_result()
}

/// Runs K fused reachability queries; returns one mask per vertex whose
/// bit `k` is set iff `sources[k]` reaches the vertex (seeds reach
/// themselves).
pub fn fused_reachability(engine: &GraphGrind2, sources: &[VertexId]) -> Vec<u64> {
    let mut run = FusedBfsRun::reach_only(engine, sources);
    while !run.is_done() {
        run.step();
    }
    run.reach_masks()
}

/// Result of a fused K-seed personalized PageRank.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedPprResult {
    /// `p[k][v]` = PPR mass of `v` for seed `sources[k]`.
    pub p: Vec<Vec<f64>>,
    /// Fused residual-sweep rounds executed (bounded by `max_rounds`).
    pub rounds: usize,
}

/// One fused residual sweep: the active vertices' residuals are frozen
/// into a sparse table before the edge map, so `accumulate` is a
/// read-only lookup and the per-quantum f64 folds are bit-identical
/// across partitions/threads/chunk caps (and across K: lane `k` folds the
/// same add sequence whether or not other lanes ride along).
struct FusedPprOp<'a> {
    /// Per vertex, its row of `push_scaled` this round (`u32::MAX` = not
    /// pushing) — one indexed load per in-edge.
    push_slot: &'a [u32],
    /// `(1 - alpha) * r / deg_out`, lane-major per active vertex.
    push_scaled: &'a [f64],
    /// Residuals, lane-major per vertex (`r[v * kk + k]`); single-writer
    /// per destination within a round.
    r: &'a [AtomicF64],
    kk: usize,
    eps: f64,
}

/// Per-quantum accumulator: one f64 per lane plus the touched-lane mask.
struct PprAcc {
    vals: [f64; 64],
    touched: u64,
}

impl FusedPprOp<'_> {
    #[inline]
    fn scaled_of(&self, src: VertexId) -> Option<&[f64]> {
        let i = self.push_slot[src as usize];
        (i != u32::MAX).then(|| {
            let i = i as usize;
            &self.push_scaled[i * self.kk..(i + 1) * self.kk]
        })
    }

    /// Adds `add` to lane `k` of `dst`'s residual; reports a threshold
    /// crossing. Exclusive: the executor guarantees one writer per `dst`.
    #[inline]
    fn deposit(&self, dst: VertexId, k: usize, add: f64) -> bool {
        let slot = &self.r[dst as usize * self.kk + k];
        let prev = slot.load();
        slot.store(prev + add);
        prev <= self.eps && prev + add > self.eps
    }
}

impl MultiSourceOp for FusedPprOp<'_> {
    /// Single-edge equivalent of one accumulate+apply; only exercised if
    /// a non-reduce path runs this op (the fused engine folds by quanta).
    fn update(&self, src: VertexId, dst: VertexId, _w: f32, src_lanes: u64) -> u64 {
        let Some(scaled) = self.scaled_of(src) else {
            return 0;
        };
        let mut new = 0u64;
        let mut lanes = src_lanes;
        while lanes != 0 {
            let k = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            if self.deposit(dst, k, scaled[k]) {
                new |= 1u64 << k;
            }
        }
        new
    }
}

impl MultiSourceReduce for FusedPprOp<'_> {
    type Acc = PprAcc;

    #[inline]
    fn identity(&self) -> PprAcc {
        PprAcc {
            vals: [0.0; 64],
            touched: 0,
        }
    }

    #[inline]
    fn accumulate(&self, acc: &mut PprAcc, src: VertexId, _w: f32, src_lanes: u64) {
        let Some(scaled) = self.scaled_of(src) else {
            return;
        };
        let mut lanes = src_lanes;
        while lanes != 0 {
            let k = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            acc.vals[k] += scaled[k];
            acc.touched |= 1u64 << k;
        }
    }

    #[inline]
    fn apply(&self, dst: VertexId, acc: &PprAcc) -> u64 {
        let mut new = 0u64;
        let mut lanes = acc.touched;
        while lanes != 0 {
            let k = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            if self.deposit(dst, k, acc.vals[k]) {
                new |= 1u64 << k;
            }
        }
        new
    }
}

/// Runs K fused personalized-PageRank queries sharing one residual sweep
/// per round (forward-push with teleport `alpha`, residual threshold
/// `eps`, at most `max_rounds` sweeps).
///
/// Each round freezes the active residuals, settles `alpha · r` into `p`,
/// and pushes `(1 - alpha) · r / deg_out` along out-edges in one fused
/// [`MultiSourceReduce`] pass; a lane re-activates a vertex when its
/// residual crosses `eps`. Mass at zero-out-degree vertices settles
/// entirely into `p` (no dangling redistribution). Lane `k` is bit-identical
/// to running the same seed alone: residual folds group by fixed quanta in
/// CSC scan order regardless of which other lanes are live.
pub fn fused_ppr(
    engine: &GraphGrind2,
    sources: &[VertexId],
    alpha: f64,
    eps: f64,
    max_rounds: usize,
) -> FusedPprResult {
    let mut run = FusedPprRun::new(engine, sources, alpha, eps, max_rounds);
    while !run.is_done() {
        run.step();
    }
    run.into_result()
}

/// A resumable fused PPR batch: one residual sweep per
/// [`step`](Self::step), with per-lane early retirement — the stepping
/// analogue of [`fused_ppr`], which is a drain loop over this runner.
///
/// A lane retires when its residual frontier empties (converged below
/// `eps`) or, together with every survivor, when the sweep budget
/// `max_rounds` runs out — the budget exhaustion force-retires the batch
/// exactly where the drain loop stops, so settled masses are identical.
pub struct FusedPprRun<'a> {
    engine: &'a GraphGrind2,
    degrees: &'a [u32],
    p: Vec<Vec<f64>>,
    r: Vec<AtomicF64>,
    kk: usize,
    alpha: f64,
    eps: f64,
    max_rounds: usize,
    frontier: FusedFrontier,
    rounds: usize,
    /// The lanes with frontier bits: `frontier.live_lanes()`.
    live: u64,
    /// This round's active vertices, in frontier order.
    push_verts: Vec<VertexId>,
    /// `(1 - alpha) * r / deg_out`, lane-major, one row per `push_verts`
    /// entry.
    push_scaled: Vec<f64>,
    /// `n` entries: a vertex's row in `push_scaled` while it pushes,
    /// `u32::MAX` otherwise. Filled by the freeze, and only the
    /// `push_verts` entries reset after the edge map — O(|F|) per round.
    push_slot: Vec<u32>,
}

impl<'a> FusedPprRun<'a> {
    /// A K-seed batch (K ≤ 64): lane `k` computes PPR from `sources[k]`
    /// with teleport `alpha` and threshold `eps`, within a shared budget
    /// of `max_rounds` sweeps.
    ///
    /// # Panics
    /// Panics if more than 64 sources are given or a source is out of
    /// range.
    pub fn new(
        engine: &'a GraphGrind2,
        sources: &[VertexId],
        alpha: f64,
        eps: f64,
        max_rounds: usize,
    ) -> Self {
        // The frontier validates the sources before anything indexes by
        // them.
        let frontier = engine.fused_frontier(sources);
        let n = engine.num_vertices();
        let kk = sources.len();
        let p = vec![vec![0.0f64; n]; kk];
        let r: Vec<AtomicF64> = (0..n * kk).map(|_| AtomicF64::new(0.0)).collect();
        for (k, &s) in sources.iter().enumerate() {
            r[s as usize * kk + k].store(1.0);
        }
        FusedPprRun {
            engine,
            degrees: engine.store().out_degrees(),
            p,
            r,
            kk,
            alpha,
            eps,
            max_rounds,
            live: frontier.live_lanes(),
            frontier,
            rounds: 0,
            push_verts: Vec::new(),
            push_scaled: Vec::new(),
            push_slot: vec![u32::MAX; n],
        }
    }

    /// Advances the batch one residual sweep; returns the lanes that
    /// retired this round (converged, or force-retired by the exhausted
    /// sweep budget). No-op on a finished batch.
    pub fn step(&mut self) -> u64 {
        if self.is_done() {
            return 0;
        }
        // Freeze: settle alpha·r into p, scale the remainder for pushing,
        // and zero the residuals of every active vertex so deposits made
        // this round start from a clean slate.
        self.push_verts.clear();
        self.push_scaled.clear();
        let FusedPprRun {
            degrees,
            p,
            r,
            kk,
            alpha,
            push_verts,
            push_scaled,
            push_slot,
            frontier,
            ..
        } = self;
        let (kk, alpha) = (*kk, *alpha);
        frontier.for_each(|v, m| {
            push_slot[v as usize] = push_verts.len() as u32;
            push_verts.push(v);
            let deg = degrees[v as usize] as f64;
            let base = push_scaled.len();
            push_scaled.resize(base + kk, 0.0);
            let mut lanes = m;
            while lanes != 0 {
                let k = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let slot = &r[v as usize * kk + k];
                let res = slot.load();
                slot.store(0.0);
                if deg > 0.0 {
                    p[k][v as usize] += alpha * res;
                    push_scaled[base + k] = (1.0 - alpha) * res / deg;
                } else {
                    p[k][v as usize] += res;
                }
            }
        });
        let op = FusedPprOp {
            push_slot: &self.push_slot,
            push_scaled: &self.push_scaled,
            r: &self.r,
            kk,
            eps: self.eps,
        };
        let next = self.engine.fused_edge_map_reduce(&self.frontier, &op);
        for &v in &self.push_verts {
            self.push_slot[v as usize] = u32::MAX;
        }
        self.rounds += 1;
        let live = next.live_lanes();
        debug_assert_eq!(live & !self.live, 0, "retired lane has bits");
        let (live, next) = if self.rounds < self.max_rounds {
            (live, next)
        } else {
            // Budget exhausted: the drain loop stops here, so every
            // survivor's settled mass is final — force-retire them.
            (0, FusedFrontier::empty(next.universe(), next.num_lanes()))
        };
        let retired = self.live & !live;
        self.live = live;
        self.frontier = next;
        retired
    }

    /// True when every lane has retired (converged or out of budget).
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Residual sweeps executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Lane `k`'s settled mass vector so far.
    pub fn mass(&self, k: u32) -> &[f64] {
        &self.p[k as usize]
    }

    /// Finishes a drained batch.
    pub fn into_result(self) -> FusedPprResult {
        debug_assert!(self.is_done());
        FusedPprResult {
            p: self.p,
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use gg_core::config::Config;
    use gg_graph::generators;

    fn engine_for(el: &gg_graph::edge_list::EdgeList) -> GraphGrind2 {
        GraphGrind2::new(el, Config::partitioned_for_tests())
    }

    #[test]
    fn fused_bfs_lanes_match_single_source_runs() {
        let el = generators::rmat(9, 4000, generators::RmatParams::skewed(), 8);
        let engine = engine_for(&el);
        let sources = [0u32, 7, 99, 311];
        let fused = fused_bfs(&engine, &sources);
        for (k, &s) in sources.iter().enumerate() {
            let solo = bfs(&engine, s);
            assert_eq!(fused.dist[k], solo.level, "lane {k} (source {s})");
        }
    }

    #[test]
    fn fused_reachability_matches_bfs_reachability() {
        let el = gg_graph::edge_list::EdgeList::from_edges(7, &[(0, 1), (1, 2), (4, 5), (5, 6)]);
        let engine = engine_for(&el);
        let reach = fused_reachability(&engine, &[0, 4]);
        assert_eq!(reach[2], 0b01); // reached by seed 0 only
        assert_eq!(reach[6], 0b10); // reached by seed 4 only
        assert_eq!(reach[3], 0); // isolated
        assert_eq!(reach[0], 0b01); // seeds reach themselves
    }

    #[test]
    fn fused_ppr_lanes_match_single_seed_runs() {
        let el = generators::rmat(8, 2500, generators::RmatParams::skewed(), 3);
        let engine = engine_for(&el);
        let sources = [3u32, 42, 100];
        let fused = fused_ppr(&engine, &sources, 0.15, 1e-4, 50);
        for (k, &s) in sources.iter().enumerate() {
            let solo = fused_ppr(&engine, &[s], 0.15, 1e-4, 50);
            assert_eq!(fused.p[k], solo.p[0], "lane {k} (seed {s})");
        }
    }

    /// Drains a runner through `step` — one round, returning the lanes it
    /// retired, the rounds run so far and the new frontier's live lanes,
    /// or `None` once done — and returns each of the `k` lanes' retirement
    /// round, read from `step()`'s return as the serving layer reads it.
    /// Checks that each lane is reported retired exactly once and never
    /// reappears in a later frontier.
    fn retire_rounds(
        k: usize,
        what: &str,
        mut step: impl FnMut() -> Option<(u64, usize, u64)>,
    ) -> Vec<u32> {
        let mut at = vec![u32::MAX; k];
        let mut retired = 0u64;
        while let Some((newly, round, live)) = step() {
            assert_eq!(newly & retired, 0, "{what} round {round}: retired twice");
            retired |= newly;
            assert_eq!(
                live & retired,
                0,
                "{what} round {round}: retired lane reappears"
            );
            for (lane, at) in at.iter_mut().enumerate() {
                if newly >> lane & 1 == 1 {
                    *at = round as u32;
                }
            }
        }
        assert_eq!(retired, lane_mask(k as u32), "{what}: a lane never retired");
        at
    }

    fn bfs_retire_rounds(run: &mut FusedBfsRun<'_>, k: usize, what: &str) -> Vec<u32> {
        retire_rounds(k, what, || {
            (!run.is_done()).then(|| (run.step(), run.rounds(), run.frontier.live_lanes()))
        })
    }

    fn ppr_retire_rounds(run: &mut FusedPprRun<'_>, k: usize, what: &str) -> Vec<u32> {
        retire_rounds(k, what, || {
            (!run.is_done()).then(|| (run.step(), run.rounds(), run.frontier.live_lanes()))
        })
    }

    /// Early retirement must be invisible in the results: lanes with very
    /// different depths retire at different rounds, yet every lane matches
    /// its solo run and the retirement round is the round after the
    /// lane's last expansion.
    #[test]
    fn bfs_runner_retires_lanes_at_their_quiescence_round() {
        // A path 0→1→…→9 plus an isolated vertex: lane depths differ.
        let edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        let el = gg_graph::edge_list::EdgeList::from_edges(11, &edges);
        let engine = engine_for(&el);
        // Lane 0: full path (9 rounds of expansion). Lane 1: tail vertex,
        // nothing to expand. Lane 2: isolated vertex 10.
        let sources = [0u32, 9, 10];
        let mut run = FusedBfsRun::new(&engine, &sources);
        // Lanes 1 and 2 have empty frontiers after round 1; lane 0 after
        // round 10 (round 10 activates nothing past vertex 9).
        assert_eq!(bfs_retire_rounds(&mut run, 3, "bfs"), [10, 1, 1]);
        for (k, &s) in sources.iter().enumerate() {
            let solo = bfs(&engine, s);
            assert_eq!(run.dist(k as u32), &solo.level[..], "lane {k}");
        }
        assert_eq!(run.rounds(), 10);
        assert_eq!(run.step(), 0, "a finished batch retires nothing");
    }

    /// Stepping a runner round by round (how the serving layer stamps
    /// each lane's completion) must be bit-identical to draining it in one
    /// go — for BFS and PPR alike.
    #[test]
    fn stepped_runners_match_drained_runs_exactly() {
        let el = generators::rmat(8, 2500, generators::RmatParams::skewed(), 5);
        let engine = engine_for(&el);
        let sources = [3u32, 42, 42, 100, 7];

        let drained = fused_bfs(&engine, &sources);
        let mut run = FusedBfsRun::new(&engine, &sources);
        // Uneven slice sizes: 1, 2, 3, 1, 2, ...
        let mut slice = 1usize;
        while !run.is_done() {
            for _ in 0..slice {
                run.step();
            }
            slice = slice % 3 + 1;
        }
        assert_eq!(run.rounds(), drained.rounds);
        let stepped = run.into_result();
        assert_eq!(stepped, drained);

        let pdrained = fused_ppr(&engine, &sources, 0.15, 1e-4, 9);
        let mut prun = FusedPprRun::new(&engine, &sources, 0.15, 1e-4, 9);
        let mut slice = 2usize;
        while !prun.is_done() {
            for _ in 0..slice {
                prun.step();
            }
            slice = slice % 3 + 1;
        }
        assert_eq!(prun.rounds(), pdrained.rounds);
        let pstepped = prun.into_result();
        assert_eq!(pstepped.p, pdrained.p);
    }

    /// The PPR budget force-retires survivors exactly where the drain
    /// loop used to stop.
    #[test]
    fn ppr_runner_budget_exhaustion_retires_survivors() {
        let n = 12usize;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let el = gg_graph::edge_list::EdgeList::from_edges(n, &edges);
        let engine = engine_for(&el);
        // eps tiny, budget small: the cycle never converges on its own.
        let mut run = FusedPprRun::new(&engine, &[0, 5], 0.2, 1e-12, 4);
        assert_eq!(ppr_retire_rounds(&mut run, 2, "ppr"), [4, 4]);
        assert_eq!(run.rounds(), 4);
        let budget_limited = run.into_result();
        let drained = fused_ppr(&engine, &[0, 5], 0.2, 1e-12, 4);
        assert_eq!(budget_limited.p, drained.p);
        assert_eq!(budget_limited.rounds, drained.rounds);
    }

    /// Each lane is reported retired exactly once, at the round its
    /// frontier empties or the budget runs out, and never reappears in a
    /// later frontier — so a round's output is the next frontier without
    /// masking retired lanes out. Lanes retire in different rounds (path
    /// plus isolated vertex), together at an exhausted budget (cycle), and
    /// with duplicate seeds sharing frontier bits.
    #[test]
    fn each_lane_retires_once_and_never_reappears() {
        let path: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        let path = engine_for(&gg_graph::edge_list::EdgeList::from_edges(11, &path));
        let cycle: Vec<(u32, u32)> = (0..12).map(|v| (v, (v + 1) % 12)).collect();
        let cycle = engine_for(&gg_graph::edge_list::EdgeList::from_edges(12, &cycle));
        let seeds = [0u32, 9, 10, 0, 9];

        for (what, mut run) in [
            ("bfs", FusedBfsRun::new(&path, &seeds)),
            ("reach", FusedBfsRun::reach_only(&path, &seeds)),
        ] {
            let rounds = bfs_retire_rounds(&mut run, seeds.len(), what);
            assert_eq!(rounds, [10, 1, 1, 10, 1], "{what}");
        }

        // Path: converged (lanes seeded at 0 retire at round 10, the
        // others at 1), then a budget of 4 force-retiring the former.
        for (budget, want) in [(30, [10, 1, 1, 10, 1]), (4, [4, 1, 1, 4, 1])] {
            let mut run = FusedPprRun::new(&path, &seeds, 0.15, 1e-4, budget);
            let what = format!("ppr path budget {budget}");
            assert_eq!(ppr_retire_rounds(&mut run, seeds.len(), &what), want);
        }
        // Cycle: every lane force-retired by the budget.
        let mut run = FusedPprRun::new(&cycle, &[0, 5, 0], 0.15, 1e-12, 4);
        assert_eq!(ppr_retire_rounds(&mut run, 3, "ppr cycle"), [4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "seed 11 out of range")]
    fn bfs_runner_refuses_an_out_of_range_source() {
        let engine = engine_for(&gg_graph::edge_list::EdgeList::from_edges(11, &[(0, 1)]));
        FusedBfsRun::new(&engine, &[0, 11]);
    }

    #[test]
    #[should_panic(expected = "at most 64 fused lanes")]
    fn bfs_runner_refuses_more_than_64_sources() {
        let engine = engine_for(&gg_graph::edge_list::EdgeList::from_edges(11, &[(0, 1)]));
        let sources: Vec<VertexId> = (0..65).map(|i| i % 11).collect();
        FusedBfsRun::reach_only(&engine, &sources);
    }

    #[test]
    #[should_panic(expected = "seed 11 out of range")]
    fn ppr_runner_refuses_an_out_of_range_source() {
        let engine = engine_for(&gg_graph::edge_list::EdgeList::from_edges(11, &[(0, 1)]));
        FusedPprRun::new(&engine, &[11], 0.15, 1e-4, 30);
    }

    #[test]
    fn fused_ppr_conserves_mass_on_a_cycle() {
        // On a cycle every vertex has out-degree 1, so no mass is lost:
        // settled p plus outstanding residual sums to 1 per lane.
        let n = 12usize;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let el = gg_graph::edge_list::EdgeList::from_edges(n, &edges);
        let engine = engine_for(&el);
        let res = fused_ppr(&engine, &[0, 5], 0.2, 1e-12, 200);
        for lane in &res.p {
            let settled: f64 = lane.iter().sum();
            assert!(settled > 0.999, "settled mass {settled}");
            assert!(settled <= 1.0 + 1e-9, "settled mass {settled}");
        }
    }
}
