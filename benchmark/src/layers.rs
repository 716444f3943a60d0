//! Per-layer measurements shared by every workload's traced pass: the
//! `gg-graph` constructors behind `GraphStore::build`, the engine
//! construction split, the planner replay and the pool's epoch cost — all
//! timed from here through the crates' public functions.

use std::hint::black_box;
use std::time::Instant;

use gg_core::config::{Config, ExecutorKind, LayoutPolicy};
use gg_core::engine::{Engine, GraphGrind2};
use gg_core::frontier::Frontier;
use gg_core::plan;
use gg_core::store::GraphStore;
use gg_graph::coo::PartitionedCoo;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};
use gg_runtime::pool::Pool;

use crate::report::MetricSet;
use crate::stats;

/// Seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

const MIB: f64 = (1u64 << 20) as f64;

/// `config` as `GraphGrind2::new` adjusts it before building the store:
/// the partitioned executor implies the partitioned CSR.
fn store_config(config: &Config) -> Config {
    let mut c = config.clone();
    if c.executor == ExecutorKind::Partitioned {
        c.build_partitioned_csr = true;
    }
    c
}

/// Times each public constructor `GraphStore::build` calls, once, on the
/// workload's edge list (`graph.*`), then the store build itself
/// (`core.store_build_s`, `graph.heap_mib`). Every layout is dropped
/// before the next is built, so the traced pass's memory stays one store.
pub fn graph_layers(el: &EdgeList, config: &Config, m: &mut MetricSet) {
    let config = store_config(config);
    let p = config.effective_partitions();
    let (partition_s, edge_parts) = timed(|| {
        let in_degrees = el.in_degrees();
        black_box(el.out_degrees());
        black_box(PartitionSet::vertex_balanced(
            el.num_vertices(),
            p,
            PartitionBy::Destination,
        ));
        PartitionSet::edge_balanced(&in_degrees, p, PartitionBy::Destination)
    });
    m.set("graph.partition_s", partition_s);
    m.set("graph.csr_build_s", timed(|| Csr::from_edge_list(el)).0);
    m.set("graph.csc_build_s", timed(|| Csc::from_edge_list(el)).0);
    let LayoutPolicy::Fixed(order) = config.layout else {
        panic!("benchmark workloads use a fixed layout policy");
    };
    m.set(
        "graph.coo_build_s",
        timed(|| PartitionedCoo::new(el, &edge_parts, order)).0,
    );
    if config.build_partitioned_csr {
        m.set(
            "graph.pcsr_build_s",
            timed(|| PartitionedCsr::new(el, &edge_parts)).0,
        );
    }
    let (store_s, store) = timed(|| GraphStore::build(el, &config));
    m.set("core.store_build_s", store_s);
    m.set("graph.heap_mib", store.heap_bytes() as f64 / MIB);
}

/// Blocks an untraced run cuts its timed region into. Each block sets the
/// engine up anew (one `setup_s` sample), warms it up and operates it for
/// a fifth of the region, and every end-to-end timing is the median over
/// the blocks of the block's own statistic: the reference box slows down
/// by 15-25 % for seconds to minutes at a time, and a slow spell that
/// covers fewer than three blocks of a run then moves none of its numbers.
pub const BLOCKS: usize = 5;

/// Edge list in memory -> engine ready, once: the seconds of
/// `GraphGrind2::new` and the engine. `old`, the previous block's engine,
/// is dropped first, so peak RSS stays one engine's.
pub fn setup(el: &EdgeList, config: &Config, old: Option<GraphGrind2>) -> (f64, GraphGrind2) {
    drop(old);
    timed(|| GraphGrind2::new(el, config.clone()))
}

/// Builds the workload's engine; `core.engine_new_s` is the whole of
/// `GraphGrind2::new`, store build included. What it spends beyond
/// `core.store_build_s` (pool, schedule, partition views) is the
/// difference of the two — small, and a difference of two multi-second
/// timings, so it is left to the reader rather than reported as a number
/// that is mostly noise.
pub fn engine_new(el: &EdgeList, config: &Config, m: &mut MetricSet) -> GraphGrind2 {
    let (new_s, engine) = timed(|| GraphGrind2::new(el, config.clone()));
    m.set("core.engine_new_s", new_s);
    engine
}

/// Replays the traversal planner over the input frontiers one sweep fed
/// the engine: `plan_partitions` with the engine's own views and
/// submission order under the partitioned executor, the single
/// `plan_edge_map` classification under the monolithic one. Median of
/// three replays, seconds per sweep.
pub fn plan_replay_s(engine: &GraphGrind2, frontiers: &[Frontier]) -> f64 {
    let views = engine.partition_views();
    let order = engine
        .schedule()
        .order_filtered(|p| views.get(p).is_some_and(|v| v.num_edges > 0));
    let config = engine.config();
    let replays: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                for f in frontiers.iter().filter(|f| !f.is_empty()) {
                    if views.is_empty() {
                        black_box(plan::plan_edge_map(
                            f,
                            engine.num_edges() as u64,
                            &config.thresholds,
                        ));
                    } else {
                        black_box(plan::plan_partitions(
                            f,
                            views,
                            &order,
                            engine.out_degrees(),
                            &config.thresholds,
                            config.output_mode,
                        ));
                    }
                }
            })
            .0
        })
        .collect();
    stats::median(&replays)
}

/// Median microseconds of one no-op `Pool::for_each_index` epoch on a
/// two-wide crew (one-wide on a single-CPU machine, where the loop runs
/// inline): the wake-up and completion-latch floor every parallel round
/// would pay. Measured on a pool of its own because the workloads run at
/// one thread, where the engine's pool never dispatches.
pub fn epoch_overhead_us(epochs: usize) -> f64 {
    let pool = Pool::new(crate::host::nproc().min(2));
    let width = pool.threads();
    let samples: Vec<f64> = (0..epochs)
        .map(|_| {
            timed(|| {
                pool.for_each_index(width, |i| {
                    black_box(i);
                })
            })
            .0 * 1e6
        })
        .collect();
    stats::median(&samples)
}
