//! Query serving: admission control and lane-batched execution over the
//! fused engine.
//!
//! The fused engine (PR 8) answers K ≤ 64 point queries in one K-lane
//! traversal; this module is the front-end that feeds it. Queries (BFS
//! distance, reachability, PPR-from-seed) arrive open-loop on a
//! deterministic synthetic trace ([`arrival_trace`], SplitMix64-driven
//! exponential interarrivals), wait in **per-algorithm admission queues**
//! (lanes of one batch must share an operator), and are dispatched as
//! ≤ 64-lane batches onto the shared immutable graph and persistent crew
//! under an age-vs-occupancy policy ([`AdmissionPolicy`]): a queue
//! dispatches when its oldest query has waited `max_batch_age`, or as
//! soon as a full `max_lanes` batch is waiting.
//!
//! A dispatched batch runs to quiescence on the stepping runners
//! ([`FusedBfsRun`] / [`FusedPprRun`]), so a lane whose frontier empties
//! **retires early** — its result is final and its completion is stamped
//! at that round's clock, while sibling lanes keep running. Each `step()`
//! returns the lanes that left the frontier in its round; [`serve`]
//! stamps completions from that word and counts the batch tallies of
//! [`ServeOutcome`] (batches, rounds, early retirements) itself. Batching is
//! result-invisible: per-query results stay bit-identical to standalone
//! K = 1 runs, which [`serve`] can verify in-line (`check_oracle`).
//!
//! Each completion carries a digest of its query's full result vector —
//! a word-wise hash of four interleaved streams, computed in one pass
//! per batch when the batch completes and never charged to the clock.
//! (The record/replay trace keeps its byte-wise FNV-1a digests: those are
//! part of the trace format.)
//!
//! Service time is pluggable ([`CostModel`]): `Measured` wall-clocks each
//! fused round (the benchmark mode), `Virtual` charges
//! `round_base + per_edge · edges(round)` from the deterministic work
//! counters. At a fixed chunk cap that clock is schedule-independent, so
//! a virtual-time serve run is byte-identical across thread counts
//! (`serve::tests::virtual_time_serving_is_bit_deterministic`). Under
//! `ChunkCap::Auto` the cap follows the thread count, and a split hub's
//! slices scan without the claim-once early break, so on a graph whose
//! hubs split the clock (and with it batch composition) moves with the
//! thread count; per-query results do not.

use std::collections::VecDeque;
use std::time::Instant;

use gg_algorithms::{FusedBfsRun, FusedPprRun};
use gg_core::engine::{Engine, GraphGrind2};
use gg_graph::types::VertexId;

/// SplitMix64: the 64-bit finalizer-based PRNG (public domain, Steele et
/// al.) — tiny, seedable, and identical everywhere, which is all a
/// deterministic arrival trace needs.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

/// 2^64 / φ, odd: SplitMix64's state increment and the digest's
/// multiplier.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output finalizer: a bijection on `u64` with full
/// avalanche.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        splitmix_finalize(self.0)
    }

    /// A uniform draw in `(0, 1]` — never zero, so `-ln(u)` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The query algorithms the server batches (per-algorithm queues: lanes
/// of one fused batch must share an operator).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Full BFS distance vector from the source.
    BfsDist,
    /// Reachable-vertex set of the source.
    Reach,
    /// Personalized PageRank from the seed.
    Ppr,
}

impl QueryKind {
    /// All kinds, in queue-priority order (ties in the dispatch policy
    /// resolve this way).
    pub const ALL: [QueryKind; 3] = [QueryKind::BfsDist, QueryKind::Reach, QueryKind::Ppr];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::BfsDist => "bfs",
            QueryKind::Reach => "reach",
            QueryKind::Ppr => "ppr",
        }
    }
}

/// One point query of the arrival trace.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Trace position (stable identifier).
    pub id: usize,
    /// Which algorithm answers it.
    pub kind: QueryKind,
    /// Source / seed vertex.
    pub source: VertexId,
    /// Open-loop arrival time (seconds from trace start).
    pub arrival: f64,
}

/// A deterministic open-loop arrival trace: `num_queries` queries with
/// exponential interarrivals at `rate_qps`, kinds and sources drawn
/// uniformly (SplitMix64 from `seed`). Same inputs ⇒ same trace, on any
/// machine.
pub fn arrival_trace(
    num_queries: usize,
    num_vertices: usize,
    rate_qps: f64,
    seed: u64,
    kinds: &[QueryKind],
) -> Vec<Query> {
    assert!(num_vertices > 0, "arrival trace needs a non-empty graph");
    assert!(!kinds.is_empty(), "arrival trace needs at least one kind");
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..num_queries)
        .map(|id| {
            t += -rng.next_unit().ln() / rate_qps;
            let kind = kinds[(rng.next_u64() % kinds.len() as u64) as usize];
            let source = (rng.next_u64() % num_vertices as u64) as VertexId;
            Query {
                id,
                kind,
                source,
                arrival: t,
            }
        })
        .collect()
}

/// When a per-algorithm queue dispatches, and how many lanes a batch
/// takes.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Batch width cap (1..=64). 1 is the one-traversal-per-query
    /// baseline.
    pub max_lanes: usize,
    /// A queue becomes ripe once its oldest query has waited this long
    /// (seconds) — the latency end of the age-vs-occupancy trade.
    pub max_batch_age: f64,
}

impl AdmissionPolicy {
    /// Fused batching at full width.
    pub fn fused(max_batch_age: f64) -> Self {
        AdmissionPolicy {
            max_lanes: 64,
            max_batch_age,
        }
    }

    /// The one-traversal-per-query baseline: every dispatch is a single
    /// lane, admission order.
    pub fn baseline() -> Self {
        AdmissionPolicy {
            max_lanes: 1,
            max_batch_age: 0.0,
        }
    }
}

/// How a fused round is charged against the simulated clock.
#[derive(Clone, Copy, Debug)]
pub enum CostModel {
    /// Wall-clock each round (the benchmark mode; arrivals are still
    /// simulated, so latency = queueing + measured service).
    Measured,
    /// `round_base + per_edge · edges(round)` from the deterministic
    /// work counters — a clock for differential CI runs, independent of
    /// the thread count at a fixed chunk cap (see the module docs).
    Virtual {
        /// Fixed per-round cost (planning + merge floor), seconds.
        round_base: f64,
        /// Per traversed edge, seconds.
        per_edge: f64,
    },
}

/// PPR query parameters (shared by every PPR lane the server runs).
#[derive(Clone, Copy, Debug)]
pub struct PprParams {
    /// Teleport probability.
    pub alpha: f64,
    /// Residual push threshold.
    pub eps: f64,
    /// Sweep budget per batch.
    pub max_rounds: usize,
}

impl Default for PprParams {
    fn default() -> Self {
        PprParams {
            alpha: 0.15,
            eps: 1e-4,
            max_rounds: 30,
        }
    }
}

/// Full serving configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Clock model.
    pub cost: CostModel,
    /// PPR parameters.
    pub ppr: PprParams,
    /// Re-run every distinct `(kind, source)` standalone (K = 1) after
    /// the trace drains and compare digests — the bit-identity oracle.
    pub check_oracle: bool,
}

/// One served query's outcome.
#[derive(Clone, Copy, Debug)]
pub struct QueryCompletion {
    /// Trace position.
    pub id: usize,
    /// Algorithm.
    pub kind: QueryKind,
    /// Source / seed vertex.
    pub source: VertexId,
    /// Arrival time.
    pub arrival: f64,
    /// Dispatch time of the query's batch.
    pub dispatched: f64,
    /// Completion time: the clock at the end of the round in which the
    /// query's lane retired.
    pub completed: f64,
    /// The batch's round at which the lane retired.
    pub retire_round: u32,
    /// Sequence number of the batch that served it.
    pub batch: usize,
    /// Word-wise digest of the query's full result (distance vector /
    /// ascending reachable ids / mass bit patterns) — the bit-identity
    /// witness. Computed once per batch when it completes, after its last
    /// charged round, so no cost model charges it.
    pub digest: u64,
}

impl QueryCompletion {
    /// Queueing plus service latency.
    pub fn latency(&self) -> f64 {
        self.completed - self.arrival
    }
}

/// What a serve run produced.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    /// Every query's completion, in trace order.
    pub completions: Vec<QueryCompletion>,
    /// Clock at which the last batch finished.
    pub makespan: f64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean lanes per batch.
    pub mean_lane_occupancy: f64,
    /// Fused rounds executed across all batches.
    pub batch_rounds: u64,
    /// Lanes that retired strictly before their batch's last round.
    pub lanes_retired_early: u64,
    /// Queries whose digest diverged from the standalone oracle (only
    /// populated when `check_oracle` is set).
    pub oracle_failures: usize,
}

impl ServeOutcome {
    /// Served queries per second of makespan.
    pub fn qps(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.completions.len() as f64 / self.makespan
    }

    /// Nearest-rank latency percentile (`p` in 0..=100).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.completions.iter().map(|c| c.latency()).collect();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        lat[rank.clamp(1, n) - 1]
    }
}

/// A word-wise digest of a result vector: entry `i` folds one whole `u64`
/// into stream `i % 4` as `h = ((h ^ w) · GOLDEN_GAMMA).rotate_left(29)`.
/// The step is injective in `w` and bijective in `h` (odd multiplier,
/// rotation), so changing any one entry changes its stream's final state;
/// four independent streams keep the multiply latency off the critical
/// path. Streams start at 0 and a zero entry leaves a zero stream at 0, so
/// the length folded in by [`finish`](Self::finish) is what tells
/// trailing zeros apart.
#[derive(Clone, Copy, Default)]
struct WordDigest {
    streams: [u64; 4],
    len: u64,
}

impl WordDigest {
    #[inline]
    fn step(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(GOLDEN_GAMMA).rotate_left(29)
    }

    /// Folds the next entry.
    #[inline]
    fn push(&mut self, w: u64) {
        let s = &mut self.streams[(self.len % 4) as usize];
        *s = Self::step(*s, w);
        self.len += 1;
    }

    /// The digest: the length, then each stream in order, through the
    /// SplitMix64 finalizer — every fold is bijective in the running value
    /// and injective in what it folds, so one changed stream or length
    /// changes the result.
    fn finish(&self) -> u64 {
        self.streams
            .iter()
            .fold(splitmix_finalize(self.len), |h, &s| {
                splitmix_finalize(h ^ s)
            })
    }
}

/// The digest of `vals`, each entry widened to one word by `word` (BFS
/// distances: `u64::from`; PPR masses: `f64::to_bits`).
fn digest_slice<T: Copy>(vals: &[T], word: impl Fn(T) -> u64) -> u64 {
    let mut d = WordDigest::default();
    let quads = vals.chunks_exact(4);
    let tail = quads.remainder();
    for quad in quads {
        for (s, &v) in d.streams.iter_mut().zip(quad) {
            *s = WordDigest::step(*s, word(v));
        }
    }
    d.len = (vals.len() - tail.len()) as u64;
    for &v in tail {
        d.push(word(v));
    }
    d.finish()
}

/// Every lane's reachable-set digest in one pass over the masks: vertex
/// `v` folds into lane `k`'s digest iff bit `k` of `masks[v]` is set, so
/// lane `k` digests its ascending reachable ids exactly as
/// [`digest_slice`] digests that id list.
fn reach_digests(masks: &[u64], lanes: usize) -> Vec<u64> {
    let mut ds = vec![WordDigest::default(); lanes];
    for (v, &m) in masks.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            ds[k].push(v as u64);
        }
    }
    ds.iter().map(WordDigest::finish).collect()
}

/// A dispatched batch's resumable runner.
enum Runner<'a> {
    Bfs(FusedBfsRun<'a>),
    Reach(FusedBfsRun<'a>),
    Ppr(FusedPprRun<'a>),
}

impl Runner<'_> {
    fn step(&mut self) -> u64 {
        match self {
            Runner::Bfs(r) | Runner::Reach(r) => r.step(),
            Runner::Ppr(r) => r.step(),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Runner::Bfs(r) | Runner::Reach(r) => r.is_done(),
            Runner::Ppr(r) => r.is_done(),
        }
    }

    fn rounds(&self) -> usize {
        match self {
            Runner::Bfs(r) | Runner::Reach(r) => r.rounds(),
            Runner::Ppr(r) => r.rounds(),
        }
    }

    /// Lanes `0..lanes`' result digests (final once the lanes have
    /// retired), in one call per batch: reachability reads its masks once
    /// for all lanes.
    fn digests(&self, lanes: usize) -> Vec<u64> {
        match self {
            Runner::Bfs(r) => (0..lanes as u32)
                .map(|k| digest_slice(r.dist(k), u64::from))
                .collect(),
            Runner::Reach(r) => reach_digests(&r.reach_masks(), lanes),
            Runner::Ppr(r) => (0..lanes as u32)
                .map(|k| digest_slice(r.mass(k), f64::to_bits))
                .collect(),
        }
    }
}

/// The standalone (K = 1) digest of one query — what a batch lane must
/// reproduce bit-for-bit.
pub fn standalone_digest(
    engine: &GraphGrind2,
    kind: QueryKind,
    source: VertexId,
    ppr: &PprParams,
) -> u64 {
    match kind {
        QueryKind::BfsDist => {
            let res = gg_algorithms::fused_bfs(engine, &[source]);
            digest_slice(&res.dist[0], u64::from)
        }
        QueryKind::Reach => {
            let masks = gg_algorithms::fused_reachability(engine, &[source]);
            reach_digests(&masks, 1)[0]
        }
        QueryKind::Ppr => {
            let res =
                gg_algorithms::fused_ppr(engine, &[source], ppr.alpha, ppr.eps, ppr.max_rounds);
            digest_slice(&res.p[0], f64::to_bits)
        }
    }
}

/// Serves `trace` (must be arrival-sorted) on `engine` under `cfg`.
///
/// # Panics
/// Panics if `trace` is not arrival-sorted, a query's source is not a
/// vertex of `engine`, or `max_lanes` is outside `1..=64`, in every build
/// profile.
///
/// Single-server discipline: the engine runs one batch at a time, each
/// to quiescence (parallelism lives *inside* the fused rounds, on the
/// persistent crew), and the clock interleaves simulated open-loop
/// arrivals with per-round service costs from the [`CostModel`]. The
/// batch tallies (batches, lane occupancy, rounds, early retirements) are
/// counted here and returned in the outcome. The engine's
/// [`WorkCounters`] are reset on entry only so a caller can read one
/// pass's raw work from them afterwards, as the benchmark's serving
/// workloads do.
///
/// [`WorkCounters`]: gg_runtime::counters::WorkCounters
pub fn serve(engine: &GraphGrind2, trace: &[Query], cfg: &ServeConfig) -> ServeOutcome {
    assert!(
        (1..=64).contains(&cfg.policy.max_lanes),
        "max_lanes must be 1..=64"
    );
    let in_order = |w: &[Query]| w[0].arrival <= w[1].arrival;
    assert!(
        trace.windows(2).all(in_order),
        "trace must be arrival-sorted: query {} arrives before its predecessor",
        trace
            .windows(2)
            .find(|w| !in_order(w))
            .map_or(0, |w| w[1].id)
    );
    let n = engine.num_vertices();
    if let Some(q) = trace.iter().find(|q| q.source as usize >= n) {
        panic!(
            "query {}: source {} out of range ({n} vertices)",
            q.id, q.source
        );
    }
    let counters = engine.work_counters();
    counters.reset();

    let mut queues: Vec<VecDeque<Query>> = QueryKind::ALL.iter().map(|_| VecDeque::new()).collect();
    let queue_of = |kind: QueryKind| QueryKind::ALL.iter().position(|&k| k == kind).unwrap();
    let mut completions: Vec<QueryCompletion> = Vec::new();
    let mut clock = 0.0f64;
    let mut next_arrival = 0usize;
    let mut next_batch_id = 0usize;
    let (mut batch_rounds, mut lanes_retired_early) = (0u64, 0u64);

    while completions.len() < trace.len() {
        // Admit everything that has arrived by now.
        while next_arrival < trace.len() && trace[next_arrival].arrival <= clock {
            let q = trace[next_arrival];
            queues[queue_of(q.kind)].push_back(q);
            next_arrival += 1;
        }
        let draining = next_arrival == trace.len();

        // Pick the ripe queue with the oldest head: a queue is ripe on
        // age, on a full batch, or once the trace has drained.
        let queue_pick = queues
            .iter()
            .enumerate()
            .filter_map(|(qi, q)| {
                let head = q.front()?;
                // NB: same expression as the idle-branch `expiry` below —
                // `clock - arrival >= age` can round the other way and
                // livelock the idle jump.
                let ripe = clock >= head.arrival + cfg.policy.max_batch_age
                    || q.len() >= cfg.policy.max_lanes
                    || draining;
                ripe.then_some((qi, head.arrival))
            })
            .min_by(|(_, a), (_, b)| a.total_cmp(b));
        let Some((qi, _)) = queue_pick else {
            // Nothing ripe: jump to the next arrival or the earliest age
            // expiry, whichever comes first.
            let next_t = if next_arrival < trace.len() {
                trace[next_arrival].arrival
            } else {
                f64::INFINITY
            };
            let expiry = queues
                .iter()
                .filter_map(|q| q.front())
                .map(|h| h.arrival + cfg.policy.max_batch_age)
                .fold(f64::INFINITY, f64::min);
            clock = next_t.min(expiry).max(clock);
            debug_assert!(clock.is_finite(), "idle with nothing pending");
            continue;
        };

        // Lane `k` serves `queries[k]`.
        let queue = &mut queues[qi];
        let take = queue.len().min(cfg.policy.max_lanes);
        let queries: Vec<Query> = queue.drain(..take).collect();
        let sources: Vec<VertexId> = queries.iter().map(|q| q.source).collect();
        let mut runner = match QueryKind::ALL[qi] {
            QueryKind::BfsDist => Runner::Bfs(FusedBfsRun::new(engine, &sources)),
            QueryKind::Reach => Runner::Reach(FusedBfsRun::reach_only(engine, &sources)),
            QueryKind::Ppr => Runner::Ppr(FusedPprRun::new(
                engine,
                &sources,
                cfg.ppr.alpha,
                cfg.ppr.eps,
                cfg.ppr.max_rounds,
            )),
        };
        let dispatched = clock;
        let batch_id = next_batch_id;
        next_batch_id += 1;

        // Run the batch to quiescence, stamping each lane's completion
        // clock and round when it retires.
        let mut done_at = vec![0.0f64; queries.len()];
        let mut done_round = vec![0u32; queries.len()];
        while !runner.is_done() {
            let newly = match cfg.cost {
                CostModel::Measured => {
                    let t = Instant::now();
                    let newly = runner.step();
                    clock += t.elapsed().as_secs_f64();
                    newly
                }
                CostModel::Virtual {
                    round_base,
                    per_edge,
                } => {
                    let e0 = counters.edges();
                    let newly = runner.step();
                    clock += round_base + per_edge * (counters.edges() - e0) as f64;
                    newly
                }
            };
            let round = runner.rounds() as u32;
            let mut m = newly;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                done_at[k] = clock;
                done_round[k] = round;
            }
        }
        let final_round = runner.rounds() as u32;
        batch_rounds += u64::from(final_round);
        lanes_retired_early += done_round.iter().filter(|&&r| r < final_round).count() as u64;
        // Outside the charged span: the clock stopped at the last round.
        let digests = runner.digests(queries.len());
        for (k, q) in queries.iter().enumerate() {
            completions.push(QueryCompletion {
                id: q.id,
                kind: q.kind,
                source: q.source,
                arrival: q.arrival,
                dispatched,
                completed: done_at[k],
                retire_round: done_round[k],
                batch: batch_id,
                digest: digests[k],
            });
        }
    }

    completions.sort_by_key(|c| c.id);
    // Every query rides in exactly one batch, so the lanes summed over
    // batches are the completions.
    let batches = next_batch_id as u64;
    let mean_lane_occupancy = if batches == 0 {
        0.0
    } else {
        completions.len() as f64 / batches as f64
    };
    let mut outcome = ServeOutcome {
        makespan: clock,
        batches,
        mean_lane_occupancy,
        batch_rounds,
        lanes_retired_early,
        oracle_failures: 0,
        completions,
    };

    if cfg.check_oracle {
        // Every distinct (kind, source) standalone, once — the serving
        // stats above are already captured, so the extra traversals only
        // pollute the raw visit counters.
        let mut expected: std::collections::HashMap<(QueryKind, VertexId), u64> =
            std::collections::HashMap::new();
        for c in &outcome.completions {
            let key = (c.kind, c.source);
            let want = *expected
                .entry(key)
                .or_insert_with(|| standalone_digest(engine, c.kind, c.source, &cfg.ppr));
            if want != c.digest {
                outcome.oracle_failures += 1;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_core::config::Config;
    use gg_graph::generators;

    fn engine() -> GraphGrind2 {
        engine_at(Config::partitioned_for_tests().threads)
    }

    fn engine_at(threads: usize) -> GraphGrind2 {
        let el = generators::rmat(8, 2200, generators::RmatParams::skewed(), 11);
        let cfg = Config {
            threads,
            ..Config::partitioned_for_tests()
        };
        GraphGrind2::new(&el, cfg)
    }

    #[test]
    fn splitmix_is_deterministic_and_unit_draws_are_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let u = a.next_unit();
            assert!(u > 0.0 && u <= 1.0, "unit draw {u}");
            b.next_unit();
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn arrival_traces_are_deterministic_sorted_and_rate_scaled() {
        let t1 = arrival_trace(200, 1000, 50.0, 7, &QueryKind::ALL);
        let t2 = arrival_trace(200, 1000, 50.0, 7, &QueryKind::ALL);
        assert_eq!(t1.len(), 200);
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.source, b.source);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
        }
        assert!(t1.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t1.iter().all(|q| (q.source as usize) < 1000));
        // Double the rate ⇒ roughly half the span (same exponential draws).
        let fast = arrival_trace(200, 1000, 100.0, 7, &QueryKind::ALL);
        let ratio = t1.last().unwrap().arrival / fast.last().unwrap().arrival;
        assert!((ratio - 2.0).abs() < 1e-9, "rate scaling ratio {ratio}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut o = ServeOutcome::default();
        for (i, lat) in [0.1, 0.2, 0.3, 0.4].iter().enumerate() {
            o.completions.push(QueryCompletion {
                id: i,
                kind: QueryKind::BfsDist,
                source: 0,
                arrival: 0.0,
                dispatched: 0.0,
                completed: *lat,
                retire_round: 1,
                batch: 0,
                digest: 0,
            });
        }
        assert_eq!(o.latency_percentile(50.0), 0.2);
        assert_eq!(o.latency_percentile(99.0), 0.4);
        assert_eq!(o.latency_percentile(0.0), 0.1);
    }

    /// The result digest changes for any one flipped bit, any swap of two
    /// unequal entries — adjacent ones (different streams) and ones 4
    /// apart (the same stream) — any length change, and `0.0` vs `-0.0`;
    /// the one-pass reachability digests equal per-lane digests of the
    /// ascending reachable-id lists.
    #[test]
    fn lane_digests_see_every_bit_and_position() {
        // 37 entries: nine full quads plus a tail of one.
        let u32s: Vec<u32> = (0..37u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 5)
            .collect();
        let f64s: Vec<f64> = (0..37).map(|i| (i as f64 + 0.5).sqrt()).collect();
        let du = |v: &[u32]| digest_slice(v, u64::from);
        let df = |v: &[f64]| digest_slice(v, f64::to_bits);
        let (base_u, base_f) = (du(&u32s), df(&f64s));
        let n = u32s.len();
        for i in [0, n / 2, n - 1] {
            for bit in 0..32 {
                let mut v = u32s.clone();
                v[i] ^= 1 << bit;
                assert_ne!(du(&v), base_u, "u32 entry {i} bit {bit}");
            }
            for bit in 0..64 {
                let mut v = f64s.clone();
                v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit));
                assert_ne!(df(&v), base_f, "f64 entry {i} bit {bit}");
            }
        }
        for gap in [1, 4] {
            for i in [0, n / 2, n - 1 - gap] {
                let mut v = u32s.clone();
                v.swap(i, i + gap);
                assert_ne!(du(&v), base_u, "u32 swap {i}/{}", i + gap);
                let mut v = f64s.clone();
                v.swap(i, i + gap);
                assert_ne!(df(&v), base_f, "f64 swap {i}/{}", i + gap);
            }
        }
        assert_ne!(du(&u32s[..n - 1]), base_u);
        assert_ne!(df(&f64s[..n - 1]), base_f);
        // All-zero vectors leave every stream at 0: only the length differs.
        for len in [0, 1, 3, 4, 5, 8] {
            assert_ne!(du(&vec![0; len]), du(&vec![0; len + 1]), "u32 len {len}");
            assert_ne!(
                df(&vec![0.0; len]),
                df(&vec![0.0; len + 1]),
                "f64 len {len}"
            );
        }
        assert_ne!(df(&[0.0]), df(&[-0.0]));
        assert_ne!(df(&[1.0, 0.0, 2.0]), df(&[1.0, -0.0, 2.0]));

        let engine = engine();
        let nv = engine.num_vertices();
        for k in [1usize, 7, 64] {
            let sources: Vec<VertexId> = (0..k).map(|i| (i * nv / k + 1) as VertexId).collect();
            let mut run = FusedBfsRun::reach_only(&engine, &sources);
            while !run.is_done() {
                run.step();
            }
            let masks = run.reach_masks();
            let got = Runner::Reach(run).digests(k);
            assert_eq!(got.len(), k);
            for (lane, &digest) in got.iter().enumerate() {
                let ids: Vec<u64> = (0..nv as u64)
                    .filter(|&v| masks[v as usize] >> lane & 1 == 1)
                    .collect();
                assert!(!ids.is_empty(), "K={k} lane {lane} reaches nothing");
                assert_eq!(digest, digest_slice(&ids, |w| w), "K={k} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "trace must be arrival-sorted")]
    fn an_unsorted_trace_is_refused() {
        let engine = engine();
        let mut trace = arrival_trace(5, engine.num_vertices(), 100.0, 1, &QueryKind::ALL);
        trace.swap(1, 3);
        serve(
            &engine,
            &trace,
            &ServeConfig {
                policy: AdmissionPolicy::fused(0.0),
                cost: CostModel::Virtual {
                    round_base: 1e-4,
                    per_edge: 1e-7,
                },
                ppr: PprParams::default(),
                check_oracle: false,
            },
        );
    }

    /// The serving invariant: fused batches (with early retirement) and
    /// the one-per-query baseline produce bit-identical per-query results
    /// — and they match the standalone oracle.
    #[test]
    fn fused_and_baseline_serving_agree_query_for_query() {
        let engine = engine();
        let trace = arrival_trace(40, engine.num_vertices(), 500.0, 3, &QueryKind::ALL);
        let cost = CostModel::Virtual {
            round_base: 1e-4,
            per_edge: 1e-7,
        };
        let ppr = PprParams::default();
        let fused = serve(
            &engine,
            &trace,
            &ServeConfig {
                policy: AdmissionPolicy::fused(0.02),
                cost,
                ppr,
                check_oracle: true,
            },
        );
        assert_eq!(fused.oracle_failures, 0);
        assert_eq!(fused.completions.len(), trace.len());
        assert!(fused.batches > 0);
        assert!(fused.mean_lane_occupancy >= 1.0);

        let baseline = serve(
            &engine,
            &trace,
            &ServeConfig {
                policy: AdmissionPolicy::baseline(),
                cost,
                ppr,
                check_oracle: false,
            },
        );
        for (f, b) in fused.completions.iter().zip(&baseline.completions) {
            assert_eq!(f.id, b.id);
            assert_eq!(f.digest, b.digest, "batching changed query {}", f.id);
        }
        // Baseline batches are all single-lane.
        assert!((baseline.mean_lane_occupancy - 1.0).abs() < 1e-12);
        // An empty trace dispatches nothing: occupancy reads 0, not NaN.
        let idle = serve(
            &engine,
            &[],
            &ServeConfig {
                policy: AdmissionPolicy::baseline(),
                cost,
                ppr,
                check_oracle: false,
            },
        );
        assert_eq!((idle.batches, idle.mean_lane_occupancy), (0, 0.0));
    }

    /// Batches mixing duplicate sources must serve each duplicate the
    /// same (and correct) result.
    #[test]
    fn duplicate_sources_in_one_batch_serve_identical_results() {
        let engine = engine();
        // Hand-build a burst: six queries, three of them the same source,
        // all arriving at once so they land in one batch per kind.
        let mk = |id, kind, source| Query {
            id,
            kind,
            source,
            arrival: 0.0,
        };
        let trace = vec![
            mk(0, QueryKind::BfsDist, 5),
            mk(1, QueryKind::BfsDist, 5),
            mk(2, QueryKind::BfsDist, 9),
            mk(3, QueryKind::Ppr, 7),
            mk(4, QueryKind::Ppr, 7),
            mk(5, QueryKind::Reach, 5),
        ];
        let out = serve(
            &engine,
            &trace,
            &ServeConfig {
                policy: AdmissionPolicy::fused(0.0),
                cost: CostModel::Virtual {
                    round_base: 1e-4,
                    per_edge: 1e-7,
                },
                ppr: PprParams::default(),
                check_oracle: true,
            },
        );
        assert_eq!(out.oracle_failures, 0);
        assert_eq!(out.completions[0].digest, out.completions[1].digest);
        assert_eq!(out.completions[3].digest, out.completions[4].digest);
        assert_ne!(out.completions[0].digest, out.completions[2].digest);
    }

    /// Virtual-time serving is a pure function of the trace and the graph:
    /// a rerun, and an engine with a different worker count, produce
    /// bit-identical clocks, batch assignments, retirement rounds and
    /// digests.
    #[test]
    fn virtual_time_serving_is_bit_deterministic() {
        let (one, four) = (engine_at(1), engine_at(4));
        let trace = arrival_trace(30, one.num_vertices(), 300.0, 9, &QueryKind::ALL);
        let cfg = ServeConfig {
            policy: AdmissionPolicy {
                max_lanes: 16,
                max_batch_age: 0.01,
            },
            cost: CostModel::Virtual {
                round_base: 1e-4,
                per_edge: 1e-7,
            },
            ppr: PprParams::default(),
            check_oracle: false,
        };
        let a = serve(&one, &trace, &cfg);
        assert_eq!(a.completions.len(), trace.len());
        for (engine, what) in [(&one, "rerun"), (&four, "4 threads")] {
            let b = serve(engine, &trace, &cfg);
            assert_eq!(a.completions.len(), b.completions.len(), "{what}");
            for (x, y) in a.completions.iter().zip(&b.completions) {
                assert_eq!(x.completed.to_bits(), y.completed.to_bits(), "{what}");
                assert_eq!(x.digest, y.digest, "{what}");
                assert_eq!(x.retire_round, y.retire_round, "{what}");
                assert_eq!(x.batch, y.batch, "{what}");
            }
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{what}");
            // The tallies as recorded when they were engine-wide counters:
            // 30 queries in 15 batches of 2.0 lanes on average.
            assert_eq!(b.batches, 15, "{what}");
            assert_eq!(b.batch_rounds, 164, "{what}");
            assert_eq!(b.lanes_retired_early, 5, "{what}");
            assert_eq!(b.mean_lane_occupancy.to_bits(), 2.0f64.to_bits(), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "query 3: source 256 out of range (256 vertices)")]
    fn an_out_of_range_source_is_refused() {
        let engine = engine();
        assert_eq!(engine.num_vertices(), 256);
        let mut trace = arrival_trace(5, engine.num_vertices(), 100.0, 1, &QueryKind::ALL);
        trace[3].source = 256;
        serve(
            &engine,
            &trace,
            &ServeConfig {
                policy: AdmissionPolicy::fused(0.0),
                cost: CostModel::Virtual {
                    round_base: 1e-4,
                    per_edge: 1e-7,
                },
                ppr: PprParams::default(),
                check_oracle: false,
            },
        );
    }
}
