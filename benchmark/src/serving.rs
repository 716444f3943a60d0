//! The two serving workloads — `serve-low` and `serve-over` — one frozen
//! arrival rate each, over `gg_bench::serve::serve`.
//!
//! Open loop: `serve` simulates the arrivals on its own clock, so the
//! generator is never late (lateness 0 by construction) and a query's
//! latency is `completed − arrival`, timed from when it was due. Service
//! is wall-clocked round by round (`CostModel::Measured`). A run replays
//! *passes* — independent seed-derived traces of a fixed query count —
//! until each block of the timed region is used up, and pools a block's
//! completions.

use std::time::Instant;

use gg_algorithms::FusedBfsRun;
use gg_bench::datasets::powerlaw_scenario;
use gg_bench::serve::{
    arrival_trace, serve, standalone_digest, AdmissionPolicy, CostModel, PprParams, Query,
    QueryCompletion, QueryKind, ServeConfig, ServeOutcome, SplitMix64,
};
use gg_core::config::Config;
use gg_core::engine::{Engine, GraphGrind2};
use gg_graph::edge_list::EdgeList;
use gg_graph::types::VertexId;

use crate::analytics::{partitioned_config, EngineCounts};
use crate::host;
use crate::json::Value;
use crate::layers::{self, timed, BLOCKS};
use crate::report::{catching, Blocks, RunOpts, RunReport};
use crate::stats;

/// The frozen arrival rates, queries per second. Calibrated once against
/// the fused capacity of the reference box (see README: ≈ 0.1×, 0.5× and
/// 8× of it) and constants since — never derived from a run-time probe,
/// which would hand a faster engine more load. The low and the overload
/// rate are workloads; the middle one is a rung of the traced pass's rate
/// ladder only (a third serving workload would cost the other five a
/// sixth of their run length under the contract's time cap).
pub const RATE_LOW_QPS: f64 = 50.0;
pub const RATE_MID_QPS: f64 = 250.0;
pub const RATE_OVER_QPS: f64 = 4000.0;

/// The latency limit `serve.max_ok_rate_qps` holds the tail percentile to.
pub const LATENCY_LIMIT_S: f64 = 1.0;
/// A rate whose last-quartile mean latency exceeds its first-quartile
/// mean by this factor has a growing backlog.
pub const BACKLOG_GROWTH_LIMIT: f64 = 1.5;
/// Percentile each block reports as its tail: the highest with at least
/// ten of a block's ≥ 200 pooled queries beyond it.
pub const TAIL_PERCENTILE: f64 = 95.0;
/// `AdmissionPolicy::fused`'s age limit, seconds.
const MAX_BATCH_AGE_S: f64 = 0.25;
/// Completions re-run standalone (K = 1) after the timed region.
const ORACLE_SAMPLES: usize = 32;

/// Which of its two rates a workload serves at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rate {
    Low,
    Over,
}

impl Rate {
    pub fn qps(self) -> f64 {
        match self {
            Rate::Low => RATE_LOW_QPS,
            Rate::Over => RATE_OVER_QPS,
        }
    }

    /// Queries per pass: sized so a pass takes ≈ 1.5–2 s of wall at every
    /// rate (low-rate batches are small and cost more per query), which
    /// lets a run fit several passes yet overshoot its region by little.
    fn queries_per_pass(self, smoke: bool) -> usize {
        let full = match self {
            Rate::Low => 200,
            Rate::Over => 768,
        };
        if smoke {
            full / 8
        } else {
            full
        }
    }
}

/// One serving workload: the graph and its rate.
pub struct Serving {
    el: EdgeList,
    rate: Rate,
}

impl Serving {
    pub fn new(rate: Rate, seed: u64, smoke: bool) -> Self {
        // scale 1 = 50k vertices, 325k edges, 4 star hubs.
        let scale = if smoke { 0.05 } else { 1.0 };
        Serving {
            el: powerlaw_scenario(scale, 2.1, 4, seed),
            rate,
        }
    }

    fn config(&self, threads: usize) -> Config {
        partitioned_config(threads)
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        policy: AdmissionPolicy::fused(MAX_BATCH_AGE_S),
        cost: CostModel::Measured,
        ppr: PprParams::default(),
        check_oracle: false,
    }
}

/// One replayed trace: the real wall seconds of the `serve()` call and
/// what it returned (or why it did not).
struct Pass {
    queries: usize,
    wall_s: f64,
    outcome: Result<ServeOutcome, String>,
}

fn run_pass(engine: &GraphGrind2, trace: &[Query]) -> Pass {
    let cfg = serve_config();
    let start = Instant::now();
    let outcome = catching("serve()", || serve(engine, trace, &cfg));
    let wall_s = start.elapsed().as_secs_f64();
    Pass {
        queries: trace.len(),
        wall_s,
        outcome,
    }
}

/// The `pass`-th trace of a run: same seed, same traces. Arrival times
/// and sources are `arrival_trace`'s seed-derived draws; the kinds rotate
/// in a fixed order instead of being drawn, so every pass carries the
/// same number of each and the seed does not decide how much PPR work a
/// run happens to get.
fn pass_trace(
    engine: &GraphGrind2,
    rate_qps: f64,
    queries: usize,
    seed: u64,
    pass: u64,
) -> Vec<Query> {
    let trace_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(pass);
    let mut trace = arrival_trace(
        queries,
        engine.num_vertices(),
        rate_qps,
        trace_seed,
        &QueryKind::ALL,
    );
    for q in &mut trace {
        q.kind = QueryKind::ALL[q.id % QueryKind::ALL.len()];
    }
    trace
}

/// Replays passes at `rate_qps` for `seconds`, to the nearest whole pass
/// (at least one), appending them to `passes`; a pass's trace is numbered
/// by its place in the run.
fn run_passes(
    engine: &GraphGrind2,
    rate_qps: f64,
    queries: usize,
    seed: u64,
    seconds: f64,
    passes: &mut Vec<Pass>,
) {
    let first = passes.len();
    let region = Instant::now();
    // Another pass starts only if at least half of it fits the region, so
    // a block neither overshoots nor undershoots by more than half a pass.
    let mut half_pass_s = 0.0;
    while passes.len() == first || region.elapsed().as_secs_f64() + half_pass_s < seconds {
        let trace = pass_trace(engine, rate_qps, queries, seed, passes.len() as u64);
        let pass = run_pass(engine, &trace);
        half_pass_s = pass.wall_s / 2.0;
        passes.push(pass);
    }
}

/// Tallies attempted and failed queries over the passes and re-runs a
/// seed-sampled handful standalone: a batch lane must reproduce the K = 1
/// digest bit for bit whatever batch it rode in.
fn check_passes(engine: &GraphGrind2, passes: &[Pass], opts: &RunOpts, report: &mut RunReport) {
    let mut done: Vec<&QueryCompletion> = Vec::new();
    for pass in passes {
        report.attempted += pass.queries as u64;
        match &pass.outcome {
            Ok(o) => {
                report.failed += (pass.queries - o.completions.len().min(pass.queries)) as u64;
                done.extend(&o.completions);
            }
            Err(why) => {
                report.failed += pass.queries as u64;
                report.failures.push(why.clone());
            }
        }
    }
    if done.is_empty() {
        return;
    }
    let samples = if opts.smoke { 8 } else { ORACLE_SAMPLES };
    let mut rng = SplitMix64::new(opts.seed ^ 0x0a_c1e5);
    let ppr = PprParams::default();
    for _ in 0..samples {
        let c = done[(rng.next_u64() % done.len() as u64) as usize];
        let verdict = catching("standalone_digest", || {
            standalone_digest(engine, c.kind, c.source, &ppr)
        });
        if verdict.ok() != Some(c.digest) {
            report.failed += 1;
            report.failures.push(format!(
                "{} query from {} differs from its standalone run",
                c.kind.label(),
                c.source
            ));
        }
    }
}

fn latencies(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .filter_map(|p| p.outcome.as_ref().ok())
        .flat_map(|o| o.completions.iter().map(QueryCompletion::latency))
        .collect()
}

/// Last-quartile ÷ first-quartile mean latency, in arrival order: > 1
/// means later queries waited longer, i.e. the backlog grew.
fn backlog_growth(outcome: &ServeOutcome) -> f64 {
    let lat: Vec<f64> = outcome.completions.iter().map(|c| c.latency()).collect();
    let q = lat.len() / 4;
    if q == 0 {
        return 1.0;
    }
    let first = stats::mean(&lat[..q]);
    if first <= 0.0 {
        return 1.0;
    }
    stats::mean(&lat[lat.len() - q..]) / first
}

/// Seconds the clock was charged for: each batch's first dispatch to its
/// last lane's completion (no `round_cap`, so a batch runs through).
fn charged_s(outcome: &ServeOutcome) -> f64 {
    let mut spans = std::collections::BTreeMap::new();
    for c in &outcome.completions {
        let span = spans.entry(c.batch).or_insert((c.dispatched, c.completed));
        span.1 = f64::max(span.1, c.completed);
    }
    spans.values().map(|(from, to)| to - from).sum()
}

/// Runs one serving workload, untraced or traced per `opts.trace`.
pub fn run(w: &Serving, generate_s: f64, opts: &RunOpts) -> RunReport {
    let config = w.config(opts.threads);
    let mut report = RunReport::default();
    let (n, m) = (w.el.num_vertices(), w.el.num_edges());
    let queries = w.rate.queries_per_pass(opts.smoke);
    report.header.extend([
        (
            "graph",
            Value::str("powerlaw_scenario(alpha 2.1, 4 star hubs)"),
        ),
        ("vertices", Value::Num(n as f64)),
        ("edges", Value::Num(m as f64)),
        (
            "partitions",
            Value::Num(config.effective_partitions() as f64),
        ),
        ("executor", Value::str("partitioned")),
        ("rate_qps", Value::Num(w.rate.qps())),
        (
            "frozen_rates_qps",
            Value::Arr(
                [RATE_LOW_QPS, RATE_MID_QPS, RATE_OVER_QPS]
                    .map(Value::Num)
                    .to_vec(),
            ),
        ),
        ("queries_per_pass", Value::Num(queries as f64)),
        ("max_batch_age_s", Value::Num(MAX_BATCH_AGE_S)),
        ("latency_limit_s", Value::Num(LATENCY_LIMIT_S)),
        ("tail_percentile", Value::Num(TAIL_PERCENTILE)),
        (
            "loop",
            Value::str("open, arrivals simulated: generator lateness 0"),
        ),
    ]);

    if opts.trace {
        report.metrics.set("graph.generate_s", generate_s);
        traced_pass(w, &config, queries, opts, &mut report);
    } else {
        untraced_pass(w, &config, queries, opts, &mut report);
    }
    report
}

/// The untimed warm-up: one burst of 64 queries of each kind, all due at
/// once, so every workload starts by running one full-width batch per
/// runner. Besides spawning the crew and paging the graph in, that pins
/// the memory high-water mark to the full-lane-occupancy case whatever
/// batch sizes the rate's own traces then happen to produce.
fn warm_up(engine: &GraphGrind2, seed: u64, smoke: bool) {
    let lanes = if smoke { 8 } else { 64 };
    let mut trace = pass_trace(engine, 1.0, lanes * QueryKind::ALL.len(), seed, u64::MAX);
    for q in &mut trace {
        q.arrival = 0.0;
    }
    let _ = run_pass(engine, &trace);
}

fn untraced_pass(
    w: &Serving,
    config: &Config,
    queries: usize,
    opts: &RunOpts,
    report: &mut RunReport,
) {
    let block_seconds = opts.seconds / BLOCKS as f64;
    let mut blocks = Blocks::default();
    let mut engine = None;
    let mut passes = Vec::new();
    let mut peak_rss = 0.0;
    for block in 0..BLOCKS {
        let (setup_s, built) = layers::setup(&w.el, config, engine.take());
        blocks.push_setup(setup_s);
        let engine = &*engine.insert(built);
        warm_up(engine, opts.seed, opts.smoke);
        if block == 0 {
            // Read here, not after the timed region: the warm-up has just
            // run one full-width batch of each kind, the most memory any
            // batch needs, in a fixed order. What the timed passes add on
            // top is allocator fragmentation that follows their
            // timing-dependent batch composition (74 MiB became 81-90 MiB
            // in two runs of five at the burst rate) - noise no later
            // change should be judged on.
            peak_rss = host::peak_rss_mib();
        }
        let first = passes.len();
        run_passes(
            engine,
            w.rate.qps(),
            queries,
            opts.seed,
            block_seconds,
            &mut passes,
        );
        // The block's passes, pooled. Queries over real wall seconds of
        // the serve() calls - not the simulated makespan, which omits
        // whatever serve never charges to its clock (runner construction,
        // digests, admission bookkeeping).
        let lat = latencies(&passes[first..]);
        let wall: f64 = passes[first..].iter().map(|p| p.wall_s).sum();
        blocks.push(&lat, TAIL_PERCENTILE, lat.len() as f64 / wall);
    }
    let engine = engine.expect("BLOCKS > 0");
    check_passes(&engine, &passes, opts, report);
    report.metrics.set("peak_rss_mib", peak_rss);
    blocks.emit(report);
    report
        .header
        .push(("passes", Value::Num(passes.len() as f64)));
}

fn traced_pass(
    w: &Serving,
    config: &Config,
    queries: usize,
    opts: &RunOpts,
    report: &mut RunReport,
) {
    layers::graph_layers(&w.el, config, &mut report.metrics);
    let engine = layers::engine_new(&w.el, config, &mut report.metrics);
    warm_up(&engine, opts.seed, opts.smoke);

    // Half the region replays passes exactly as the untraced run does
    // (serve() takes the concrete engine, so nothing is wrapped and the
    // tracing overhead is 0 by construction); the rest drives the fused
    // runners and the rate ladder.
    let before = EngineCounts::read(&engine);
    let first_trace = pass_trace(&engine, w.rate.qps(), queries, opts.seed, 0);
    let first = run_pass(&engine, &first_trace);
    // serve() zeroes the work counters on entry, so read them raw.
    let work = engine.work_counters().snapshot();
    let counts = EngineCounts::read(&engine).since(&before).with_work(work);
    let mut passes = vec![first];
    let region = Instant::now();
    while region.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let trace = pass_trace(
            &engine,
            w.rate.qps(),
            queries,
            opts.seed,
            passes.len() as u64,
        );
        passes.push(run_pass(&engine, &trace));
    }
    check_passes(&engine, &passes, opts, report);

    let m = &mut report.metrics;
    counts.emit(&engine, m);
    let outcomes: Vec<&ServeOutcome> = passes
        .iter()
        .filter_map(|p| p.outcome.as_ref().ok())
        .collect();
    let done = || outcomes.iter().flat_map(|o| o.completions.iter());
    let lat = latencies(&passes);
    if let (Some(o), false) = (outcomes.first(), lat.is_empty()) {
        let waits: Vec<f64> = done().map(|c| c.dispatched - c.arrival).collect();
        let service: Vec<f64> = done().map(|c| c.completed - c.dispatched).collect();
        m.set("serve.queue_wait_p50_s", stats::median(&waits));
        m.set("serve.service_p50_s", stats::median(&service));
        // Counts of the first pass: a function of the seed and, through
        // measured service times, of batch composition.
        m.set("serve.batches", o.batches as f64);
        m.set("serve.mean_lane_occupancy", o.mean_lane_occupancy);
        m.set("serve.batch_rounds", o.batch_rounds as f64);
        m.set("serve.lanes_retired_early", o.lanes_retired_early as f64);
        m.set("serve.makespan_s", o.makespan);
        m.set("serve.wall_s", passes[0].wall_s);
        let growth: Vec<f64> = outcomes.iter().map(|o| backlog_growth(o)).collect();
        m.set("serve.backlog_growth", stats::median(&growth));
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        let charged: f64 = outcomes.iter().map(|o| charged_s(o)).sum();
        m.set("serve.uncharged_frac", (wall - charged) / wall);
    }
    m.set("bench.samples", lat.len() as f64);
    m.set("bench.trace_overhead_frac", 0.0);

    let fused = drive_fused(&engine, opts);
    fused.emit(&mut report.metrics);
    report
        .header
        .push(("fused_k1_scalar_base_s", Value::Num(fused.scalar_total_s)));
    let (max_ok, ladder) = rate_ladder(&engine, opts);
    report.metrics.set("serve.max_ok_rate_qps", max_ok);
    report.header.push(("rate_ladder", ladder));
    let epochs = if opts.smoke { 500 } else { 10_000 };
    report.metrics.set(
        "runtime.epoch_overhead_us",
        layers::epoch_overhead_us(epochs),
    );
}

/// What driving `FusedBfsRun::{new, step}` directly measured.
struct FusedDrive {
    new_s: f64,
    k64_step_s: f64,
    k1_step_s: f64,
    k1_total_s: f64,
    scalar_total_s: f64,
    fused_lanes: u64,
    lane_union_words: u64,
}

impl FusedDrive {
    fn emit(&self, m: &mut crate::report::MetricSet) {
        m.set("core.fused_new_s", self.new_s);
        m.set("core.fused_k64_step_s", self.k64_step_s);
        m.set("core.fused_k1_step_s", self.k1_step_s);
        if self.scalar_total_s > 0.0 {
            m.set(
                "core.fused_k1_over_scalar",
                self.k1_total_s / self.scalar_total_s,
            );
        }
        m.set("core.fused_lanes", self.fused_lanes as f64);
        m.set("core.lane_union_words", self.lane_union_words as f64);
    }
}

/// Steps `run` to completion; seconds spent in `step`.
fn drain(run: &mut FusedBfsRun<'_>) -> f64 {
    timed(|| {
        while !run.is_done() {
            run.step();
        }
    })
    .0
}

/// One 64-lane BFS batch over seed-derived sources, then the first
/// sixteen of them one lane at a time, then the same sixteen through the
/// scalar `bfs` — the K = 64 cost behind overload throughput and the K = 1
/// cost behind low-rate latency, with the scalar path as K = 1's base.
fn drive_fused(engine: &GraphGrind2, opts: &RunOpts) -> FusedDrive {
    let n = engine.num_vertices() as u64;
    let mut rng = SplitMix64::new(opts.seed ^ 0xf05e_d1a7);
    let sources: Vec<VertexId> = (0..64).map(|_| (rng.next_u64() % n) as VertexId).collect();
    let singles = &sources[..if opts.smoke { 4 } else { 16 }];

    let before = engine.work_counters().snapshot();
    let (new_s, mut run) = timed(|| FusedBfsRun::new(engine, &sources));
    let k64_step_s = drain(&mut run);
    drop(run);
    let work = engine.work_counters().snapshot().delta_since(&before);

    let (mut k1_new_s, mut k1_step_total) = (0.0, 0.0);
    for &s in singles {
        let (t, mut run) = timed(|| FusedBfsRun::new(engine, &[s]));
        k1_new_s += t;
        k1_step_total += drain(&mut run);
    }
    let scalar_total_s = timed(|| {
        for &s in singles {
            std::hint::black_box(gg_algorithms::bfs(engine, s));
        }
    })
    .0;
    FusedDrive {
        new_s,
        k64_step_s,
        k1_step_s: k1_step_total / singles.len() as f64,
        k1_total_s: k1_new_s + k1_step_total,
        scalar_total_s,
        fused_lanes: work.fused_lanes,
        lane_union_words: work.lane_union_words,
    }
}

/// Serves one short trace at each rung of a fixed ladder and returns the
/// highest rate whose tail latency meets the limit without a growing
/// backlog (0 if none does), plus the rungs for the header.
fn rate_ladder(engine: &GraphGrind2, opts: &RunOpts) -> (f64, Value) {
    // Rung lengths grow with the rate: a backlog only shows once a trace
    // outlasts several full batches.
    let rungs = [
        (RATE_LOW_QPS, 64),
        (RATE_MID_QPS, 128),
        (2.0 * RATE_MID_QPS, 256),
        (RATE_OVER_QPS, 512),
    ];
    let mut max_ok = 0.0;
    let mut rows = Vec::new();
    for (i, &(rate, queries)) in rungs.iter().enumerate() {
        let queries = if opts.smoke { queries / 8 } else { queries };
        let trace = pass_trace(engine, rate, queries, opts.seed, 1 << 32 | i as u64);
        let Ok(outcome) = run_pass(engine, &trace).outcome else {
            continue;
        };
        let tail = outcome.latency_percentile(TAIL_PERCENTILE);
        let growth = backlog_growth(&outcome);
        let ok = tail <= LATENCY_LIMIT_S && growth < BACKLOG_GROWTH_LIMIT;
        if ok {
            max_ok = f64::max(max_ok, rate);
        }
        rows.push(Value::obj([
            ("rate_qps", Value::Num(rate)),
            ("tail_s", Value::Num(tail)),
            ("backlog_growth", Value::Num(growth)),
            ("ok", Value::Bool(ok)),
        ]));
    }
    (max_ok, Value::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(
        id: usize,
        batch: usize,
        arrival: f64,
        dispatched: f64,
        completed: f64,
    ) -> QueryCompletion {
        QueryCompletion {
            id,
            kind: QueryKind::BfsDist,
            source: 0,
            arrival,
            dispatched,
            completed,
            retire_round: 1,
            batch,
            digest: 0,
        }
    }

    #[test]
    fn backlog_growth_and_charged_time_follow_their_definitions() {
        let outcome = ServeOutcome {
            completions: vec![
                completion(0, 0, 0.0, 0.0, 1.0),
                completion(1, 0, 0.0, 0.0, 2.0),
                completion(2, 1, 1.0, 2.0, 3.0),
                completion(3, 1, 1.0, 2.0, 5.0),
            ],
            ..ServeOutcome::default()
        };
        // Quartiles of one query each: latency 4.0 over latency 1.0.
        assert_eq!(backlog_growth(&outcome), 4.0);
        // Batch 0 ran 0..2, batch 1 ran 2..5.
        assert_eq!(charged_s(&outcome), 5.0);
        assert_eq!(backlog_growth(&ServeOutcome::default()), 1.0);
    }

    #[test]
    fn both_passes_serve_check_and_report_at_smoke_scale() {
        let w = Serving::new(Rate::Over, 4, true);
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 4,
                seconds: 0.05,
                trace,
                threads: 2,
                smoke: true,
            };
            let report = run(&w, 0.001, &opts);
            assert!(report.correct(), "{:?}", report.failures);
            assert!(report.attempted >= Rate::Over.queries_per_pass(true) as u64);
            let metrics = report.contract_metrics(trace);
            if trace {
                let get = |n: &str| report.metrics.get(n).unwrap();
                assert!(get("serve.batches") > 0.0);
                assert!(get("core.fused_lanes") > 0.0);
                assert!(get("core.fused_k1_over_scalar") > 0.0);
                assert!(get("core.edges_traversed") > 0.0);
            } else {
                assert!(metrics.iter().all(|(_, v, _)| *v > 0.0), "{metrics:?}");
            }
        }
    }

    #[test]
    fn traces_are_a_function_of_seed_and_pass() {
        let w = Serving::new(Rate::Low, 7, true);
        let engine = GraphGrind2::new(&w.el, w.config(1));
        let key = |t: &[Query]| -> Vec<(u32, u64)> {
            t.iter().map(|q| (q.source, q.arrival.to_bits())).collect()
        };
        let a = pass_trace(&engine, 30.0, 20, 7, 0);
        assert_eq!(key(&a), key(&pass_trace(&engine, 30.0, 20, 7, 0)));
        assert_ne!(key(&a), key(&pass_trace(&engine, 30.0, 20, 7, 1)));
        assert_ne!(key(&a), key(&pass_trace(&engine, 30.0, 20, 8, 0)));
    }
}
