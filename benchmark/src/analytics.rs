//! The three analytics workloads — `pr-skewed`, `bfs-road`, `suite-rmat` —
//! and the driver that sweeps, times, traces and checks them.
//!
//! A *sweep* is the workload's unit of work: one call sequence into
//! `gg-algorithms`, the same every time, so sweep times are samples of one
//! distribution and their results must be bit-identical.

use std::time::Instant;

use gg_algorithms::{reference, PrDeltaParams};
use gg_bench::datasets::powerlaw_scenario;
use gg_bench::serve::SplitMix64;
use gg_core::config::{ChunkCap, Config, ExecutorKind};
use gg_core::engine::{Engine, GraphGrind2};
use gg_graph::edge_list::EdgeList;
use gg_graph::generators::{self, RmatParams};
use gg_graph::types::VertexId;

use crate::host;
use crate::json::Value;
use crate::layers::{self, timed, BLOCKS};
use crate::report::{catching, Blocks, Fnv, RunOpts, RunReport};
use crate::stats;
use crate::timed::{SpanLog, Timed};

/// Untimed sweeps on every freshly built engine (pool spawn, page faults,
/// the memoised dense chunk plans): the first sweep on a new engine runs
/// 3-5 % slow, the second does not.
const WARMUP_SWEEPS: usize = 2;
/// Percentile each block reports as its tail, `op_tail_s` being the median
/// over the blocks: of the ≥ 90 sweeps a run times, ≥ 20 lie beyond it.
pub const TAIL_PERCENTILE: f64 = 75.0;
/// Relative difference tolerated between sweeps where a result is summed
/// in schedule-dependent order.
const ROUNDING_DRIFT: f64 = 1e-9;

/// The partitioned-executor configuration `pr-skewed` and `bfs-road`
/// share: 16 partitions, adaptive chunk cap, default layout.
pub fn partitioned_config(threads: usize) -> Config {
    Config {
        threads,
        num_partitions: 16,
        executor: ExecutorKind::Partitioned,
        chunk_edges: ChunkCap::Auto,
        ..Config::default()
    }
}

/// Seconds each algorithm of a sweep took (0 for those it does not run).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgoTimes {
    pub pr_s: f64,
    pub bfs_s: f64,
    pub cc_s: f64,
    pub bf_s: f64,
    pub prdelta_s: f64,
}

/// One analytics workload: a graph, an engine configuration, a sweep and
/// the sequential oracle that judges it.
pub trait Analytics {
    /// What a sweep returns; kept once for the oracle check, digested
    /// every time.
    type Output;

    fn edge_list(&self) -> &EdgeList;
    fn config(&self, threads: usize) -> Config;
    /// Runs one sweep on `engine`, recording the per-algorithm split.
    fn sweep<E: Engine>(&self, engine: &E, times: &mut AlgoTimes) -> Self::Output;
    /// Bit-identity witness of the part of a sweep's result that must
    /// repeat exactly.
    fn digest(out: &Self::Output) -> u64;
    /// Largest relative difference between two sweeps in whatever part of
    /// the result [`digest`](Self::digest) leaves out because it is only
    /// reproducible up to rounding; must stay below [`ROUNDING_DRIFT`].
    fn drift(_first: &Self::Output, _later: &Self::Output) -> f64 {
        0.0
    }
    /// Edge-map rounds the algorithms report for one sweep.
    fn rounds(out: &Self::Output) -> u64;
    /// Compares a sweep's result with the sequential `reference::*`
    /// oracles.
    fn verify(&self, out: &Self::Output) -> Result<(), String>;
    /// Workload-specific header entries (sources, sizes of note).
    fn describe(&self) -> Vec<(&'static str, Value)>;
}

/// `pr-skewed`: a 10-iteration PageRank on the star-hub power-law scenario.
pub struct PrSkewed {
    el: EdgeList,
}

impl PrSkewed {
    const ITERS: usize = 10;

    pub fn new(seed: u64, smoke: bool) -> Self {
        // scale 2.75 = 137.5k vertices, 1.1M edges: the working set is 4x
        // the one L2 a single-threaded run uses. Larger inputs fit the
        // contract's time cap but not its steadiness rule: at scale 6 the
        // sweep median wandered 6 % between processes on the shared
        // reference box (memory-system neighbours), at scale 2 under 3 %.
        let scale = if smoke { 0.1 } else { 2.75 };
        PrSkewed {
            el: powerlaw_scenario(scale, 2.0, 16, seed),
        }
    }
}

impl Analytics for PrSkewed {
    type Output = Vec<f64>;

    fn edge_list(&self) -> &EdgeList {
        &self.el
    }

    fn config(&self, threads: usize) -> Config {
        partitioned_config(threads)
    }

    fn sweep<E: Engine>(&self, engine: &E, times: &mut AlgoTimes) -> Vec<f64> {
        let (s, rank) = timed(|| gg_algorithms::pagerank(engine, Self::ITERS));
        times.pr_s = s;
        rank
    }

    fn digest(out: &Vec<f64>) -> u64 {
        let mut h = Fnv::new();
        h.f64s(out);
        h.finish()
    }

    fn rounds(_: &Vec<f64>) -> u64 {
        Self::ITERS as u64
    }

    fn verify(&self, out: &Vec<f64>) -> Result<(), String> {
        let want = reference::pagerank(&self.el, Self::ITERS);
        if out.len() != want.len() {
            return Err(format!(
                "pagerank: {} ranks, want {}",
                out.len(),
                want.len()
            ));
        }
        let worst = gg_algorithms::validate::max_scaled_diff_f64(out, &want, 1e-6, 1e-15);
        if worst > 1.0 {
            return Err(format!(
                "pagerank differs from reference::pagerank by {worst:.3}x the 1e-6 relative tolerance"
            ));
        }
        Ok(())
    }

    fn describe(&self) -> Vec<(&'static str, Value)> {
        vec![(
            "graph",
            Value::str("powerlaw_scenario(alpha 2.0, 16 star hubs)"),
        )]
    }
}

/// `bfs-road`: scalar BFS from two sources on a road grid.
pub struct BfsRoad {
    el: EdgeList,
    sources: [VertexId; 2],
}

impl BfsRoad {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let side: u64 = if smoke { 40 } else { 400 };
        let el = generators::grid_road(side as usize, side as usize, 0.05, seed);
        // One source near each end of the main diagonal, each drawn from a
        // window of 2 % of the side: seed-derived, yet every seed's BFS
        // runs ≈ 2·side rounds over frontiers of at most ≈ side vertices,
        // so run-to-run spread measures the engine, not the draw.
        let mut rng = SplitMix64::new(seed ^ 0xb5f5_0ad5);
        let window = (side / 50).max(1);
        let mut near = |corner: u64| {
            let mut coord = || corner.abs_diff(rng.next_u64() % window);
            let (r, c) = (coord(), coord());
            (r * side + c) as VertexId
        };
        let sources = [near(0), near(side - 1)];
        BfsRoad { el, sources }
    }
}

/// Levels per source, and the rounds the two traversals took.
pub struct BfsRoadOut {
    levels: [Vec<u32>; 2],
    rounds: u64,
}

impl Analytics for BfsRoad {
    type Output = BfsRoadOut;

    fn edge_list(&self) -> &EdgeList {
        &self.el
    }

    fn config(&self, threads: usize) -> Config {
        partitioned_config(threads)
    }

    fn sweep<E: Engine>(&self, engine: &E, times: &mut AlgoTimes) -> BfsRoadOut {
        let (s, (a, b)) = timed(|| {
            (
                gg_algorithms::bfs(engine, self.sources[0]),
                gg_algorithms::bfs(engine, self.sources[1]),
            )
        });
        times.bfs_s = s;
        BfsRoadOut {
            rounds: (a.rounds + b.rounds) as u64,
            levels: [a.level, b.level],
        }
    }

    fn digest(out: &BfsRoadOut) -> u64 {
        let mut h = Fnv::new();
        h.u32s(&out.levels[0]);
        h.u32s(&out.levels[1]);
        h.finish()
    }

    fn rounds(out: &BfsRoadOut) -> u64 {
        out.rounds
    }

    fn verify(&self, out: &BfsRoadOut) -> Result<(), String> {
        for (levels, &src) in out.levels.iter().zip(&self.sources) {
            if *levels != reference::bfs_levels(&self.el, src) {
                return Err(format!(
                    "bfs levels from {src} differ from reference::bfs_levels"
                ));
            }
        }
        Ok(())
    }

    fn describe(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("graph", Value::str("grid_road(side x side, 5 % diagonals)")),
            (
                "sources",
                Value::Arr(self.sources.iter().map(|&s| Value::Num(s as f64)).collect()),
            ),
        ]
    }
}

/// `suite-rmat`: BFS, CC, Bellman-Ford and PRDelta once each on one
/// symmetrized, integer-weighted RMAT graph under `Config::default()`.
pub struct SuiteRmat {
    el: EdgeList,
    source: VertexId,
}

impl SuiteRmat {
    /// PRDelta under a round budget, as `pr-skewed` runs PageRank under an
    /// iteration budget. Run to convergence, its sparse tail lasted 9 to
    /// 23 rounds depending on the seed's graph, and PRDelta - 60 % of the
    /// sweep - took 42-51 ms for it; twelve rounds cover the dense rounds
    /// and the first sparse ones on every seed.
    const PRDELTA: PrDeltaParams = PrDeltaParams {
        epsilon: 0.01,
        max_rounds: 12,
    };

    pub fn new(seed: u64, smoke: bool) -> Self {
        let (scale, edges) = if smoke { (10, 6_000) } else { (16, 375_000) };
        let mut el =
            gg_graph::ops::symmetrize(&generators::rmat(scale, edges, RmatParams::skewed(), seed));
        gg_graph::weights::attach_integer(&mut el, 16, seed);
        // The source is the graph's highest-degree vertex. A source drawn
        // at random from the giant component made the sweep's cost a
        // function of the draw - BFS took 4-8 ms and the whole sweep
        // 67-77 ms across ten seeds, against 1 % between runs of one seed -
        // and the acceptance check counts seed-to-seed spread as noise.
        let degrees = el.out_degrees();
        let source = (0..degrees.len())
            .max_by_key(|&v| (degrees[v], std::cmp::Reverse(v)))
            .unwrap_or(0) as VertexId;
        SuiteRmat { el, source }
    }
}

/// The four results of one suite sweep.
pub struct SuiteOut {
    bfs_level: Vec<u32>,
    cc_label: Vec<u32>,
    bf_dist: Vec<f32>,
    prdelta_rank: Vec<f64>,
    rounds: u64,
}

impl Analytics for SuiteRmat {
    type Output = SuiteOut;

    fn edge_list(&self) -> &EdgeList {
        &self.el
    }

    /// The library default — monolithic executor, 384 partitions, the
    /// paper's three-layout Algorithm 2 — with only `threads` set.
    fn config(&self, threads: usize) -> Config {
        Config {
            threads,
            ..Config::default()
        }
    }

    fn sweep<E: Engine>(&self, engine: &E, times: &mut AlgoTimes) -> SuiteOut {
        let (bfs_s, bfs) = timed(|| gg_algorithms::bfs(engine, self.source));
        let (cc_s, cc) = timed(|| gg_algorithms::cc(engine));
        let (bf_s, bf) = timed(|| gg_algorithms::bellman_ford(engine, self.source));
        let (prdelta_s, prd) = timed(|| gg_algorithms::pagerank_delta(engine, Self::PRDELTA));
        *times = AlgoTimes {
            bfs_s,
            cc_s,
            bf_s,
            prdelta_s,
            ..*times
        };
        SuiteOut {
            rounds: (bfs.rounds + cc.rounds + bf.rounds + prd.rounds) as u64,
            bfs_level: bfs.level,
            cc_label: cc.label,
            bf_dist: bf.dist,
            prdelta_rank: prd.rank,
        }
    }

    /// BFS, CC and Bellman-Ford repeat bit for bit. PRDelta does not: the
    /// monolithic sparse kernel adds `f64` deltas with atomic `fetch_add`
    /// in whatever order two threads reach a destination, so a rank can
    /// differ in its last bit from sweep to sweep (see `drift`).
    fn digest(out: &SuiteOut) -> u64 {
        let mut h = Fnv::new();
        h.u32s(&out.bfs_level);
        h.u32s(&out.cc_label);
        h.f32s(&out.bf_dist);
        h.finish()
    }

    fn drift(first: &SuiteOut, later: &SuiteOut) -> f64 {
        if first.prdelta_rank.len() != later.prdelta_rank.len() {
            return f64::INFINITY;
        }
        gg_algorithms::validate::max_scaled_diff_f64(
            &later.prdelta_rank,
            &first.prdelta_rank,
            1.0,
            f64::MIN_POSITIVE,
        )
    }

    fn rounds(out: &SuiteOut) -> u64 {
        out.rounds
    }

    fn verify(&self, out: &SuiteOut) -> Result<(), String> {
        if out.bfs_level != reference::bfs_levels(&self.el, self.source) {
            return Err("bfs levels differ from reference::bfs_levels".into());
        }
        if !same_partition(&out.cc_label, &reference::cc_labels(&self.el)) {
            return Err("cc components differ from reference::cc_labels".into());
        }
        // Integer weights: f32 path sums are exact, so equality is exact.
        if out.bf_dist != reference::dijkstra(&self.el, self.source) {
            return Err("bellman_ford distances differ from reference::dijkstra".into());
        }
        if out.prdelta_rank.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err("pagerank_delta produced a negative or non-finite rank".into());
        }
        Ok(())
    }

    fn describe(&self) -> Vec<(&'static str, Value)> {
        vec![
            (
                "graph",
                Value::str("symmetrize(rmat(skewed)), integer weights 1..=16"),
            ),
            ("sources", Value::Arr(vec![Value::Num(self.source as f64)])),
        ]
    }
}

/// Whether two labelings induce the same partition of the vertices.
fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Each a-label must map to exactly one b-label and back.
    let mut a_to_b = std::collections::HashMap::new();
    let mut b_to_a = std::collections::HashMap::new();
    a.iter()
        .zip(b)
        .all(|(&x, &y)| *a_to_b.entry(x).or_insert(y) == y && *b_to_a.entry(y).or_insert(x) == x)
}

/// One timed sweep: seconds, digest, and the result (or the panic).
struct Sample<O> {
    secs: f64,
    times: AlgoTimes,
    out: Result<O, String>,
}

fn run_sweep<W: Analytics, E: Engine>(w: &W, engine: &E) -> Sample<W::Output> {
    let mut times = AlgoTimes::default();
    let start = Instant::now();
    let out = catching("sweep", || w.sweep(engine, &mut times));
    let secs = start.elapsed().as_secs_f64();
    Sample { secs, times, out }
}

/// Sweep bookkeeping shared by both passes: the first result is kept for
/// the oracle, every later one must digest the same.
struct Sweeps<W: Analytics> {
    first: Option<(u64, W::Output)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl<W: Analytics> Sweeps<W> {
    fn new() -> Self {
        Sweeps {
            first: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one timed sweep; returns whether it completed with the
    /// expected result.
    fn record(&mut self, out: Result<W::Output, String>) -> bool {
        self.attempted += 1;
        let verdict = out.and_then(|out| {
            let digest = W::digest(&out);
            match &self.first {
                None => {
                    self.first = Some((digest, out));
                    Ok(())
                }
                Some((want, _)) if *want != digest => Err(format!(
                    "sweep digest {digest:016x} differs from the first sweep's {want:016x}"
                )),
                Some((_, first)) => {
                    let drift = W::drift(first, &out);
                    // A NaN drift is a failure too, so test for "within".
                    let within = drift <= ROUNDING_DRIFT;
                    if !within {
                        return Err(format!(
                            "sweep result drifted {drift:e} (relative) from the first sweep's"
                        ));
                    }
                    Ok(())
                }
            }
        });
        if let Err(why) = &verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why.clone());
            }
        }
        verdict.is_ok()
    }

    /// Runs the oracle on the kept result and folds everything into the
    /// report. Returns the oracle's seconds.
    fn finish(self, w: &W, report: &mut RunReport) -> f64 {
        report.attempted = self.attempted;
        report.failed = self.failed;
        report.failures = self.failures;
        let Some((_, out)) = &self.first else {
            report.fail_all("no sweep completed".into());
            return 0.0;
        };
        let (ref_s, verdict) = timed(|| w.verify(out));
        if let Err(why) = verdict {
            // Every sweep digests like the first, so all of them are wrong.
            report.fail_all(why);
        }
        ref_s
    }
}

/// Graph-shape header entries every analytics workload prints.
fn shape_header<W: Analytics>(w: &W, config: &Config, report: &mut RunReport) {
    let el = w.edge_list();
    let (n, m) = (el.num_vertices(), el.num_edges());
    let p = config.effective_partitions();
    let top_hub = el.in_degrees().into_iter().max().unwrap_or(0);
    let (l2, l3) = host::cache_bytes();
    // CSC (offsets + sources) plus three 8-byte per-vertex arrays: what a
    // dense pull round streams and updates.
    let working_set = 4 * m + 8 * (n + 1) + 24 * n;
    report.header.extend(w.describe());
    report.header.extend([
        ("vertices", Value::Num(n as f64)),
        ("edges", Value::Num(m as f64)),
        ("partitions", Value::Num(p as f64)),
        (
            "executor",
            Value::str(match config.executor {
                ExecutorKind::Partitioned => "partitioned",
                ExecutorKind::Monolithic => "monolithic",
            }),
        ),
        ("top_hub_in_degree", Value::Num(top_hub as f64)),
        ("edges_per_partition", Value::Num((m / p.max(1)) as f64)),
        ("working_set_bytes", Value::Num(working_set as f64)),
        (
            "working_set_over_l2",
            Value::Num(working_set as f64 / l2.max(1) as f64),
        ),
        (
            "working_set_exceeds_l3",
            Value::Bool(l3 > 0 && working_set as u64 > l3),
        ),
        ("tail_percentile", Value::Num(TAIL_PERCENTILE)),
    ]);
}

/// Runs one analytics workload: the untraced pass (end-to-end metrics) or
/// the traced pass (per-layer metrics), per `opts.trace`.
pub fn run<W: Analytics>(w: &W, generate_s: f64, opts: &RunOpts) -> RunReport {
    let config = w.config(opts.threads);
    let mut report = RunReport::default();
    shape_header(w, &config, &mut report);
    if opts.trace {
        report.metrics.set("graph.generate_s", generate_s);
        traced_pass(w, &config, opts, &mut report);
    } else {
        untraced_pass(w, &config, opts, &mut report);
    }
    report
}

fn warmup_sweeps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        WARMUP_SWEEPS
    }
}

fn untraced_pass<W: Analytics>(w: &W, config: &Config, opts: &RunOpts, report: &mut RunReport) {
    let block_seconds = opts.seconds / BLOCKS as f64;
    let mut sweeps = Sweeps::<W>::new();
    let mut blocks = Blocks::default();
    let mut engine = None;
    let mut peak_rss = 0.0;
    for block in 0..BLOCKS {
        let (setup_s, built) = layers::setup(w.edge_list(), config, engine.take());
        blocks.push_setup(setup_s);
        let engine = &*engine.insert(built);
        for _ in 0..warmup_sweeps(opts.smoke) {
            let _ = run_sweep(w, engine);
        }
        let (mut secs, mut tried) = (Vec::new(), 0);
        let region = Instant::now();
        while region.elapsed().as_secs_f64() < block_seconds || secs.len() < 3 {
            let sample = run_sweep(w, engine);
            tried += 1;
            if sweeps.record(sample.out) {
                secs.push(sample.secs);
            }
            if tried >= 3 && secs.is_empty() {
                break; // nothing completes: do not spin for the whole block
            }
        }
        let wall = region.elapsed().as_secs_f64();
        blocks.push(&secs, TAIL_PERCENTILE, secs.len() as f64 / wall);
        if block == 0 {
            // One engine and its sweeps. Later blocks rebuild the engine
            // on a heap the first one fragmented, which adds a few MiB
            // that differ from run to run; and the oracles' memory is not
            // the workload's either.
            peak_rss = host::peak_rss_mib();
        }
    }
    sweeps.finish(w, report);
    report.metrics.set("peak_rss_mib", peak_rss);
    blocks.emit(report);
}

fn traced_pass<W: Analytics>(w: &W, config: &Config, opts: &RunOpts, report: &mut RunReport) {
    let el = w.edge_list();
    layers::graph_layers(el, config, &mut report.metrics);
    let engine = layers::engine_new(el, config, &mut report.metrics);
    let traced_engine = Timed::new(&engine);

    for _ in 0..warmup_sweeps(opts.smoke) {
        let _ = run_sweep(w, &engine);
    }
    // Untraced and traced sweeps alternate, so both see the same machine
    // state and their ratio is the tracing overhead.
    let mut sweeps = Sweeps::<W>::new();
    let mut untraced = Vec::new();
    let mut traced: Vec<(f64, AlgoTimes, SpanLog)> = Vec::new();
    let mut counts = None;
    let region = Instant::now();
    while region.elapsed().as_secs_f64() < opts.seconds || traced.len() < 2 {
        let plain = run_sweep(w, &engine);
        if sweeps.record(plain.out) {
            untraced.push(plain.secs);
        }
        let before = counts.is_none().then(|| EngineCounts::read(&engine));
        let sample = run_sweep(w, &traced_engine);
        let log = traced_engine.take_log();
        if let Some(before) = before {
            counts = Some(EngineCounts::read(&engine).since(&before));
        }
        if sweeps.record(sample.out) {
            traced.push((sample.secs, sample.times, log));
        }
        if sweeps.attempted >= 4 && traced.is_empty() {
            break;
        }
    }

    // One more sweep with frontier capture on feeds the planner replay.
    let capturing = Timed::capturing(&engine);
    let captured = run_sweep(w, &capturing);
    let frontiers = capturing.take_log().frontiers;
    let plan_s = layers::plan_replay_s(&engine, &frontiers);
    sweeps.record(captured.out);
    drop(frontiers);

    let epochs = if opts.smoke { 500 } else { 10_000 };
    let epoch_us = layers::epoch_overhead_us(epochs);
    let rounds = sweeps.first.as_ref().map_or(0, |(_, out)| W::rounds(out));
    let ref_s = sweeps.finish(w, report);

    let m = &mut report.metrics;
    m.set("core.plan_s", plan_s);
    m.set("runtime.epoch_overhead_us", epoch_us);
    m.set("algorithms.rounds", rounds as f64);
    m.set("algorithms.ref_seq_s", ref_s);
    m.set("bench.samples", (untraced.len() + traced.len()) as f64);
    if let Some(c) = counts {
        c.emit(&engine, m);
    }
    if traced.is_empty() || untraced.is_empty() {
        return;
    }

    // Per-sweep medians over the traced sweeps.
    let med = |f: &dyn Fn(&(f64, AlgoTimes, SpanLog)) -> f64| {
        stats::median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let sweep_s = med(&|t| t.0);
    let edge_map_s = med(&|t| t.2.edge_map_s());
    let vertex_map_s = med(&|t| t.2.vertex_map_s);
    let calls: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.2.edge_map.iter().copied())
        .collect();
    m.set("core.edge_map_s", edge_map_s);
    m.set("core.vertex_map_s", vertex_map_s);
    m.set("core.edge_map_calls", traced[0].2.edge_map.len() as f64);
    if !calls.is_empty() {
        m.set("core.edge_map_us_p50", stats::median(&calls) * 1e6);
    }
    // Self-time rule: the sweep minus what its child spans cover.
    m.set("algorithms.self_s", sweep_s - edge_map_s - vertex_map_s);
    m.set("algorithms.pr_s", med(&|t| t.1.pr_s));
    m.set("algorithms.bfs_s", med(&|t| t.1.bfs_s));
    m.set("algorithms.cc_s", med(&|t| t.1.cc_s));
    m.set("algorithms.bf_s", med(&|t| t.1.bf_s));
    m.set("algorithms.prdelta_s", med(&|t| t.1.prdelta_s));
    if let Some(edges) = m.get("core.edges_traversed").filter(|&e| e > 0.0) {
        m.set("core.ns_per_edge", edge_map_s / edges * 1e9);
    }
    let untraced_p50 = stats::median(&untraced);
    m.set("bench.untraced_op_p50_s", untraced_p50);
    m.set("bench.traced_op_p50_s", sweep_s);
    m.set("bench.trace_overhead_frac", sweep_s / untraced_p50 - 1.0);
}

/// The engine's cumulative counters at one instant; `since` turns two
/// readings into the exact work of whatever ran between them.
pub struct EngineCounts {
    work: gg_runtime::counters::CounterSnapshot,
    rounds: (u64, u64, u64),
    part_steps: (u64, u64, u64),
    outputs: (u64, u64, u64),
    pool_epochs: u64,
    pool_wakes: u64,
}

impl EngineCounts {
    pub fn read(engine: &GraphGrind2) -> Self {
        let k = engine.kernel_counts();
        EngineCounts {
            work: engine.work_counters().snapshot(),
            rounds: k.snapshot(),
            part_steps: k.partition_snapshot(),
            outputs: k.output_snapshot(),
            pool_epochs: engine.pool().epochs(),
            pool_wakes: engine.pool().wakes(),
        }
    }

    /// Replaces the work-counter part — for callers that read it raw
    /// because the measured call zeroes the counters on entry.
    pub fn with_work(self, work: gg_runtime::counters::CounterSnapshot) -> EngineCounts {
        EngineCounts { work, ..self }
    }

    pub fn since(&self, earlier: &EngineCounts) -> EngineCounts {
        let sub3 = |a: (u64, u64, u64), b: (u64, u64, u64)| (a.0 - b.0, a.1 - b.1, a.2 - b.2);
        EngineCounts {
            work: self.work.delta_since(&earlier.work),
            rounds: sub3(self.rounds, earlier.rounds),
            part_steps: sub3(self.part_steps, earlier.part_steps),
            outputs: sub3(self.outputs, earlier.outputs),
            pool_epochs: self.pool_epochs - earlier.pool_epochs,
            pool_wakes: self.pool_wakes - earlier.pool_wakes,
        }
    }

    /// Emits the per-interval counts, plus the engine's cumulative
    /// readings that have no per-interval form.
    pub fn emit(&self, engine: &GraphGrind2, m: &mut crate::report::MetricSet) {
        m.set("runtime.spawns", engine.pool().spawns() as f64);
        m.set(
            "runtime.merge_buffers_allocated",
            engine.merge_scratch().allocated() as f64,
        );
        m.set(
            "runtime.max_chunk_edges",
            engine.work_counters().max_chunk_edges() as f64,
        );
        m.set(
            "runtime.mean_chunk_edges",
            engine.work_counters().mean_chunk_edges(),
        );
        m.set("core.edges_traversed", self.work.edges as f64);
        m.set("core.merge_words", self.work.merge_words as f64);
        m.set("core.rounds_sparse", self.rounds.0 as f64);
        m.set("core.rounds_medium", self.rounds.1 as f64);
        m.set("core.rounds_dense", self.rounds.2 as f64);
        m.set("core.part_steps_sparse", self.part_steps.0 as f64);
        m.set("core.part_steps_dense", self.part_steps.1 as f64);
        m.set("core.outputs_sparse", self.outputs.0 as f64);
        m.set("core.outputs_dense", self.outputs.1 as f64);
        m.set("runtime.pool_epochs", self.pool_epochs as f64);
        m.set("runtime.pool_wakes", self.pool_wakes as f64);
        m.set("runtime.chunks", self.work.chunks as f64);
        m.set("runtime.hub_subchunks", self.work.hub_subchunks as f64);
        m.set("runtime.steals", self.work.steals as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_partition_ignores_label_names_but_not_structure() {
        assert!(same_partition(&[0, 0, 2, 2], &[7, 7, 1, 1]));
        assert!(!same_partition(&[0, 0, 2, 2], &[7, 7, 7, 7]));
        assert!(!same_partition(&[0, 0, 0, 0], &[7, 7, 1, 1]));
        assert!(!same_partition(&[0], &[0, 0]));
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b, c) = (
            BfsRoad::new(5, true),
            BfsRoad::new(5, true),
            BfsRoad::new(6, true),
        );
        assert_eq!(a.el, b.el);
        assert_eq!(a.sources, b.sources);
        assert!(a.el != c.el || a.sources != c.sources);
        let (a, b) = (SuiteRmat::new(9, true), SuiteRmat::new(9, true));
        assert_eq!(a.el, b.el);
        assert_eq!(a.source, b.source);
        assert!(a.el.out_degrees()[a.source as usize] >= 8);
        assert_eq!(PrSkewed::new(3, true).el, PrSkewed::new(3, true).el);
    }

    /// Tracing must not perturb what it observes: a sweep through
    /// `Timed<E>` returns bit-identical results and leaves the engine's
    /// work and kernel counters exactly where an unwrapped sweep does.
    #[test]
    fn timed_engine_is_result_and_counter_transparent() {
        fn check<W: Analytics>(w: W) {
            let engine = GraphGrind2::new(w.edge_list(), w.config(2));
            let mut times = AlgoTimes::default();
            let c0 = EngineCounts::read(&engine);
            let plain = w.sweep(&engine, &mut times);
            let c1 = EngineCounts::read(&engine);
            let wrapped = Timed::capturing(&engine);
            let traced = w.sweep(&wrapped, &mut times);
            let c2 = EngineCounts::read(&engine);
            assert_eq!(W::digest(&plain), W::digest(&traced));
            w.verify(&traced).unwrap();
            let (d_plain, d_traced) = (c1.since(&c0), c2.since(&c1));
            // Steals depend on the schedule, by design; all else is exact.
            let exact = |c: &EngineCounts| {
                let mut work = c.work;
                work.steals = 0;
                work.cross_domain_steals = 0;
                (work, c.rounds, c.part_steps, c.outputs, c.pool_epochs)
            };
            assert_eq!(exact(&d_plain), exact(&d_traced));
            let log = wrapped.take_log();
            assert!(!log.edge_map.is_empty());
            assert_eq!(log.frontiers.len(), log.edge_map.len());
            assert!(log.edge_map_s() > 0.0);
        }
        check(PrSkewed::new(1, true));
        check(BfsRoad::new(1, true));
        check(SuiteRmat::new(1, true));
    }

    #[test]
    fn both_passes_report_their_metrics_at_smoke_scale() {
        let w = BfsRoad::new(2, true);
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 2,
                seconds: 0.05,
                trace,
                threads: 2,
                smoke: true,
            };
            let report = run(&w, 0.001, &opts);
            assert!(report.correct(), "{:?}", report.failures);
            let metrics = report.contract_metrics(trace);
            if trace {
                let get = |n: &str| report.metrics.get(n).unwrap();
                assert!(get("core.edge_map_calls") > 0.0);
                assert!(get("algorithms.rounds") > 0.0);
                assert!(get("core.rounds_sparse") + get("core.part_steps_sparse") > 0.0);
            } else {
                assert!(metrics.iter().all(|(_, v, _)| *v > 0.0), "{metrics:?}");
            }
        }
    }
}
