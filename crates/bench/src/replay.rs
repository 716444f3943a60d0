//! Record/replay driver for the determinism-debugging harness.
//!
//! `repro record` runs each algorithm once with the engine's round
//! recorder armed and serializes the per-round trace (frontier digests,
//! kernel/representation plan, scheduler tallies) to a JSON-lines file.
//! `repro replay` re-executes the same workload — possibly under a
//! different thread count, chunk cap or partition count — and reports the
//! **first diverging round** via [`gg_core::trace::first_divergence`].
//!
//! The graph and workload derivation are fully deterministic (seeded
//! generators, deterministic source selection), so the only legitimate
//! cross-config differences are the schedule fields, which the comparison
//! ignores. Any contract-field divergence is a real bit-identity bug.

use gg_algorithms::Algorithm;
use gg_core::config::{Config, ExecutorKind};
use gg_core::engine::{EdgeMapSpec, Engine, GraphGrind2};
use gg_core::trace::{RoundTrace, ThreadVaryingMinLabel, TraceHeader};
use gg_graph::edge_list::EdgeList;

use crate::datasets;
use crate::runner::{self, Workload};

/// The algorithms covered by the record/replay differential: the
/// integer-output traversals whose results are bit-identical across every
/// configuration, plus PageRank whose *frontier trajectory* (though not
/// its float sums) is likewise schedule-independent.
pub fn replay_algorithms() -> [Algorithm; 4] {
    [Algorithm::Bfs, Algorithm::Pr, Algorithm::Cc, Algorithm::Bf]
}

/// Builds the deterministic input graph for `scenario` at `scale`.
///
/// `record` and `replay` both derive their input here, so recorded traces
/// and replays agree on it by construction.
pub fn scenario_graph(scenario: &str, scale: f64) -> EdgeList {
    match scenario {
        "smallworld" => {
            let n = ((200_000.0 * scale) as usize).max(1_000);
            gg_graph::generators::small_world(n, 6, 0.05, 13)
        }
        "grid" => {
            let side = ((250_000.0 * scale).sqrt() as usize).max(24);
            gg_graph::generators::grid_road(side, side, 0.05, 13)
        }
        _ => datasets::powerlaw_scenario(scale, 2.1, 4, 13),
    }
}

/// Runs `w.algo` once on a fresh engine with recording armed and returns
/// the round trace.
pub fn record_algorithm(w: &Workload, config: &Config, scenario: &str) -> RoundTrace {
    let engine = GraphGrind2::new(&w.el, config.clone());
    engine.start_recording();
    runner::run_algorithm(&engine, None, w);
    RoundTrace {
        header: TraceHeader::new(w.algo.code(), scenario, config, false),
        rounds: engine.take_recording(),
    }
}

/// Deterministic K-source selection for the fused record/replay leg:
/// sources spread across the vertex space by a fixed stride, so recordings
/// and replays agree on the batch by construction.
pub fn fused_sources(el: &EdgeList, k: usize) -> Vec<u32> {
    let n = el.num_vertices() as u32;
    let stride = (n / k as u32).max(1);
    (0..k as u32).map(|i| (i * stride + 1) % n).collect()
}

/// Number of lanes in the fused record/replay leg.
const FUSED_RECORD_LANES: usize = 8;

/// Runs one fused multi-source BFS with recording armed and returns the
/// round trace. Fused rounds carry per-lane frontier digests
/// (`RoundRecord::lanes`), so a replay divergence localizes to the first
/// differing lane of the first differing round.
///
/// Fused rounds run on the partitioned executor only, so `config`'s
/// executor is pinned to [`ExecutorKind::Partitioned`] — in the engine and
/// in the trace header — as [`Config::with_forced`] pins the monolithic
/// one.
pub fn record_multi_source(el: &EdgeList, config: &Config, scenario: &str) -> RoundTrace {
    let config = &config.clone().with_executor(ExecutorKind::Partitioned);
    let engine = GraphGrind2::new(el, config.clone());
    engine.start_recording();
    let _ = gg_algorithms::fused_bfs(&engine, &fused_sources(el, FUSED_RECORD_LANES));
    RoundTrace {
        header: TraceHeader::new("fused_bfs", scenario, config, false),
        rounds: engine.take_recording(),
    }
}

/// The honest recording of the fault-injection min-label loop:
/// [`replay_fault`] on one thread, pinned — in the engine and in the
/// trace header — whatever `config` says, as [`record_multi_source`] pins
/// the executor.
///
/// [`ThreadVaryingMinLabel`] propagates honest min-labels from whichever
/// thread first touches it and perturbed labels from every other thread,
/// so only a single-threaded run records the honest trace: at more
/// threads the baseline itself would change from run to run.
pub fn record_fault(el: &EdgeList, config: &Config, scenario: &str) -> RoundTrace {
    replay_fault(el, &config.clone().with_threads(1), scenario)
}

/// Runs the fault-injection min-label loop once with recording armed, at
/// `config`'s thread count: a multi-threaded run diverges from
/// [`record_fault`]'s trace at whichever round the second worker first
/// wins a label race. The loop is monotone (labels only decrease), so it
/// terminates within `n` rounds regardless of the perturbation.
pub fn replay_fault(el: &EdgeList, config: &Config, scenario: &str) -> RoundTrace {
    let engine = GraphGrind2::new(el, config.clone());
    let op = ThreadVaryingMinLabel::new(el.num_vertices());
    engine.start_recording();
    let mut frontier = engine.frontier_all();
    let mut rounds = 0usize;
    while !frontier.is_empty() && rounds < el.num_vertices() {
        frontier = engine.edge_map(&frontier, &op, EdgeMapSpec::edge_oriented());
        rounds += 1;
    }
    RoundTrace {
        header: TraceHeader::new("fault_minlabel", scenario, config, true),
        rounds: engine.take_recording(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fused recording under the library default (monolithic executor)
    /// runs, and says it ran, on the partitioned executor.
    #[test]
    fn a_multi_source_recording_pins_the_partitioned_executor() {
        let el = gg_graph::generators::grid_road(8, 8, 0.1, 3);
        let trace = record_multi_source(&el, &Config::default(), "grid");
        assert_eq!(trace.header.executor, "partitioned");
        assert!(!trace.rounds.is_empty());
        let first = trace.to_jsonl().lines().next().map(str::to_owned);
        assert!(first.is_some_and(|h| h.contains(r#""executor":"partitioned""#)));
    }

    /// A fault recording runs, and says it ran, on one thread whatever the
    /// config asks, so two recordings from a two-thread config are the
    /// same honest trace byte for byte.
    #[test]
    fn a_fault_recording_pins_one_thread() {
        let el = scenario_graph("powerlaw", 0.01);
        let config = Config {
            threads: 2,
            executor: ExecutorKind::Partitioned,
            chunk_edges: gg_core::config::ChunkCap::Fixed(1),
            ..Config::default()
        };
        let first = record_fault(&el, &config, "powerlaw");
        assert_eq!(first.header.threads, 1);
        assert!(!first.rounds.is_empty());
        let again = record_fault(&el, &config, "powerlaw");
        assert_eq!(first.to_jsonl(), again.to_jsonl());
    }
}
