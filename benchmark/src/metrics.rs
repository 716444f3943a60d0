//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is `gg-benchmark manifest` printed from these tables;
//! a test keeps the two in step.

use crate::json::Value;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// Workloads: name and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "pr-skewed",
        "All-dense EdgeMapReduce rounds on a star-hub power-law graph, partitioned executor: kernel, layout, chunking and hub-split changes show here; per-round overhead does not.",
    ),
    (
        "bfs-road",
        "BFS on a road grid, partitioned executor: ~1300 rounds of tiny sparse frontiers, so per-round cost (plan, chunking, frontier merge) dominates and the kernel does little.",
    ),
    (
        "suite-rmat",
        "BFS+CC+Bellman-Ford+PRDelta under Config::default() (monolithic three-layout path): bypasses the partitioned executor, so changes there must not move it.",
    ),
    (
        "serve-low",
        "Open-loop mixed queries at 0.1x fused capacity: batches of 1-3 lanes, latency is admission wait (max_batch_age) plus fused low-K cost.",
    ),
    (
        "serve-over",
        "Open-loop mixed queries in a burst at 8x fused capacity: full 64-lane batches and a growing backlog, so wall-clock throughput of fused K=64 is what is measured.",
    ),
];

/// End-to-end metrics, each with the share of the parent's median by
/// which it may worsen before a change counts as a regression. The four
/// timings sit at the contract's ceiling because the reference box itself
/// drifts by 15-20 % for minutes at a time (README, "Bounds"); a tighter
/// bound would reject innocent changes. Memory does not drift.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (lower("setup_s", "s"), 0.25),
    (lower("op_p50_s", "s"), 0.25),
    (lower("op_tail_s", "s"), 0.25),
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("peak_rss_mib", "MiB"), 0.10),
];

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, layer = crate name. A metric a workload's path never
/// reaches (the fused runners on an analytics workload, say) reads 0.
pub const PER_LAYER: [MetricDef; 63] = [
    // graph: the public constructors GraphStore::build calls, once each.
    lower("graph.generate_s", "s"),
    lower("graph.partition_s", "s"),
    lower("graph.csr_build_s", "s"),
    lower("graph.csc_build_s", "s"),
    lower("graph.coo_build_s", "s"),
    lower("graph.pcsr_build_s", "s"),
    lower("graph.heap_mib", "MiB"),
    // core: engine construction, then the Engine-trait calls of one sweep.
    lower("core.store_build_s", "s"),
    lower("core.engine_new_s", "s"),
    lower("core.edge_map_s", "s"),
    lower("core.edge_map_calls", "count"),
    lower("core.edge_map_us_p50", "us"),
    lower("core.vertex_map_s", "s"),
    lower("core.plan_s", "s"),
    lower("core.edges_traversed", "count"),
    lower("core.merge_words", "count"),
    lower("core.rounds_sparse", "count"),
    lower("core.rounds_medium", "count"),
    lower("core.rounds_dense", "count"),
    lower("core.part_steps_sparse", "count"),
    lower("core.part_steps_dense", "count"),
    lower("core.outputs_sparse", "count"),
    lower("core.outputs_dense", "count"),
    lower("core.ns_per_edge", "ns"),
    lower("core.fused_new_s", "s"),
    lower("core.fused_k64_step_s", "s"),
    lower("core.fused_k1_step_s", "s"),
    lower("core.fused_k1_over_scalar", "ratio"),
    higher("core.fused_lanes", "count"),
    lower("core.lane_union_words", "count"),
    // runtime: the pool and the work-stealing chunk plan.
    lower("runtime.epoch_overhead_us", "us"),
    lower("runtime.pool_epochs", "count"),
    lower("runtime.pool_wakes", "count"),
    lower("runtime.spawns", "count"),
    lower("runtime.chunks", "count"),
    lower("runtime.hub_subchunks", "count"),
    lower("runtime.max_chunk_edges", "count"),
    lower("runtime.mean_chunk_edges", "count"),
    lower("runtime.merge_buffers_allocated", "count"),
    lower("runtime.steals", "count"),
    // algorithms: self time and the per-algorithm split of a sweep.
    lower("algorithms.self_s", "s"),
    lower("algorithms.rounds", "count"),
    lower("algorithms.bfs_s", "s"),
    lower("algorithms.cc_s", "s"),
    lower("algorithms.bf_s", "s"),
    lower("algorithms.prdelta_s", "s"),
    lower("algorithms.pr_s", "s"),
    lower("algorithms.ref_seq_s", "s"),
    // serve: the admission loop, from QueryCompletion / ServeOutcome.
    lower("serve.queue_wait_p50_s", "s"),
    lower("serve.service_p50_s", "s"),
    lower("serve.batches", "count"),
    higher("serve.mean_lane_occupancy", "count"),
    lower("serve.batch_rounds", "count"),
    higher("serve.lanes_retired_early", "count"),
    lower("serve.wall_s", "s"),
    lower("serve.makespan_s", "s"),
    lower("serve.backlog_growth", "ratio"),
    lower("serve.uncharged_frac", "ratio"),
    higher("serve.max_ok_rate_qps", "1/s"),
    // bench: the harness itself.
    higher("bench.samples", "count"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.untraced_op_p50_s", "s"),
    lower("bench.traced_op_p50_s", "s"),
];

/// The bound of an end-to-end metric, by name.
#[cfg(test)]
pub fn bound_of(name: &str) -> Option<(MetricDef, f64)> {
    END_TO_END.iter().copied().find(|(m, _)| m.name == name)
}

/// Whether `name` is a legal metric or workload name under the benchmark
/// contract: starts with a letter or digit, then at most 63 more of
/// letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn is_legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Value {
    let metric = |m: &MetricDef| {
        vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.label())),
        ]
    };
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Value::str)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        let mut pairs = metric(m);
                        pairs.push(("bound", Value::Num(*bound)));
                        Value::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| Value::obj(metric(m))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_legal_name(name), "{name:?} is not a legal name");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!(!is_legal_name(""));
        assert!(!is_legal_name(".hidden"));
        assert!(!is_legal_name("has space"));
        assert!(!is_legal_name(&"x".repeat(65)));
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let units = END_TO_END
            .iter()
            .map(|(m, _)| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        let (setup, _) = bound_of("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().to_pretty().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is the manifest, printed: regenerate it with
    /// `cargo run --manifest-path benchmark/Cargo.toml -- manifest`.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(crate::json::parse(&text).unwrap(), manifest());
    }
}
