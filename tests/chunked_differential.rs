//! Differential harness for the chunk-granular executor.
//!
//! The planner splits every planned partition into edge-balanced chunks
//! (`Config::chunk_edges` / `GG_CHUNK`), and `Pool::run_tasks` lets the
//! workers claim them one at a time from a shared cursor; the merge in
//! `Frontier::from_partition_outputs` is keyed by `(partition, chunk)`
//! range order, so the promise is that **chunk size, thread count, claim
//! schedule and partition count are all invisible in results**. These
//! tests pin that promise:
//!
//! 1. **Bit-identity across chunk caps**: BFS, PR, CC and Bellman-Ford
//!    with caps {1, 64, unbounded, Auto} × 1–4 threads × 1/2/7 partitions
//!    all match the sequential engine (1 partition, 1 thread, unbounded)
//!    byte for byte — including caps small enough that mega-hub
//!    destinations split into sub-chunks reduced at merge time, and the
//!    adaptive cap derived per partition from `|E_p| / (k · threads)`.
//! 2. **Chunking actually splits the skew**: on the skewed `powerlaw`
//!    scenario (star hubs concentrated in one destination partition) every
//!    spawned chunk respects the hub-split `2 × cap` bound, and the
//!    observed `max_chunk_edges` drops below the top hub's in-degree (one
//!    vertex's scan no longer bounds a chunk). That an idle worker then
//!    picks those chunks up is a property of the pool's claim loop, pinned
//!    deterministically by `pool::tests::a_blocked_task_strands_no_other_task`.
//! 3. **Degenerate shapes survive**: single-chunk partitions (cap ≥
//!    partition edges) and per-vertex chunks (cap 1) are exercised by the
//!    cap sweep; an all-empty round and an edgeless graph terminate
//!    cleanly.

use graphgrind::algorithms;
use graphgrind::bench::datasets::powerlaw_scenario;
use graphgrind::core::config::{ChunkCap, Config, ExecutorKind};
use graphgrind::core::engine::{Engine, GraphGrind2};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::graph::ops::symmetrize;
use graphgrind::runtime::numa::NumaTopology;

const CAPS: [ChunkCap; 4] = [
    ChunkCap::Fixed(1),
    ChunkCap::Fixed(64),
    ChunkCap::Fixed(usize::MAX),
    ChunkCap::Auto,
];
const PARTITIONS: [usize; 3] = [1, 2, 7];
const THREADS: [usize; 3] = [1, 2, 4];

/// Partitioned-executor configuration with exact partition counts (UMA
/// topology: no rounding) and an explicit chunk-cap policy.
fn config(partitions: usize, threads: usize, chunk_edges: impl Into<ChunkCap>) -> Config {
    Config {
        threads,
        num_partitions: partitions,
        numa: NumaTopology::new(1),
        executor: ExecutorKind::Partitioned,
        chunk_edges: chunk_edges.into(),
        ..Config::default()
    }
}

/// The sequential engine every configuration must match: one partition on
/// one thread, one chunk per partition.
fn sequential(el: &EdgeList) -> GraphGrind2 {
    GraphGrind2::new(el, config(1, 1, usize::MAX))
}

/// Deterministic graphs covering the regimes chunking must not disturb:
/// skewed (dense rounds, uneven chunk counts) and a high-diameter grid
/// (sparse candidate slices).
fn graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat-skewed",
            generators::rmat(8, 3000, RmatParams::skewed(), 7),
        ),
        ("grid-road", generators::grid_road(12, 12, 0.1, 9)),
    ]
}

#[test]
fn bfs_bit_identical_across_chunk_caps() {
    for (name, el) in graphs() {
        let seq = algorithms::bfs(&sequential(&el), 0);
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let got = algorithms::bfs(&GraphGrind2::new(&el, config(p, t, cap)), 0);
                    assert_eq!(got.level, seq.level, "{name} cap={cap:?} P={p} T={t}");
                    assert_eq!(got.parent, seq.parent, "{name} cap={cap:?} P={p} T={t}");
                    assert_eq!(got.rounds, seq.rounds, "{name} cap={cap:?} P={p} T={t}");
                }
            }
        }
    }
}

#[test]
fn pagerank_bit_identical_across_chunk_caps() {
    for (name, el) in graphs() {
        let seq = algorithms::pagerank(&sequential(&el), 10);
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let got = algorithms::pagerank(&GraphGrind2::new(&el, config(p, t, cap)), 10);
                    // f64 accumulation order is fixed (CSC order per
                    // destination, chunks tile the destination space), so
                    // equality is exact, not approximate.
                    assert_eq!(got, seq, "{name} cap={cap:?} P={p} T={t}");
                }
            }
        }
    }
}

#[test]
fn cc_labels_identical_across_chunk_caps() {
    for (name, el) in graphs() {
        let el = symmetrize(&el);
        let want = algorithms::reference::cc_labels(&el);
        assert_eq!(algorithms::cc(&sequential(&el)).label, want, "{name}/seq");
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    // CC reads source labels another chunk may be
                    // rewriting, so round counts may vary — the converged
                    // labels are the component minima everywhere.
                    let got = algorithms::cc(&GraphGrind2::new(&el, config(p, t, cap)));
                    assert_eq!(got.label, want, "{name} cap={cap:?} P={p} T={t}");
                }
            }
        }
    }
}

#[test]
fn bellman_ford_identical_across_chunk_caps() {
    for (name, el) in graphs() {
        let mut el = el;
        graphgrind::graph::weights::attach_integer(&mut el, 12, 0xBF);
        let seq = algorithms::bellman_ford(&sequential(&el), 0);
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let got =
                        algorithms::bellman_ford(&GraphGrind2::new(&el, config(p, t, cap)), 0);
                    // f32 distances compare bitwise: every candidate is a
                    // path-prefix sum and the converged minimum is
                    // schedule-independent.
                    assert_eq!(got.dist, seq.dist, "{name} cap={cap:?} P={p} T={t}");
                }
            }
        }
    }
}

/// Acceptance check: on the skewed scale-free scenario, intra-partition
/// chunking spawns many more chunks than partitions, mega-hub splitting
/// engages (sub-chunks are spawned and the observed `max_chunk_edges`
/// drops **below the top hub's in-degree**, which without splitting would
/// be its floor) — and the results still match the sequential engine
/// exactly.
#[test]
fn skewed_scenario_splits_hubs_without_oversized_chunks() {
    let el = powerlaw_scenario(0.05, 2.0, 16, 7);
    let cap = 64usize;
    let seq = algorithms::pagerank(&sequential(&el), 10);

    let cfg = Config {
        threads: 4,
        num_partitions: 4,
        numa: NumaTopology::new(2),
        executor: ExecutorKind::Partitioned,
        chunk_edges: ChunkCap::Fixed(cap),
        ..Config::default()
    };
    let engine = GraphGrind2::new(&el, cfg);
    let got = algorithms::pagerank(&engine, 10);
    assert_eq!(got, seq, "chunked run must match the sequential engine");

    let c = engine.work_counters();
    let partitions = engine.partition_views().len() as u64;
    assert!(
        c.chunks() > 10 * partitions,
        "the hub partitions must split into many chunks: {} chunks over {partitions} partitions",
        c.chunks()
    );
    let top_hub = engine
        .store()
        .in_degrees()
        .iter()
        .copied()
        .max()
        .unwrap_or(0) as u64;
    assert!(
        top_hub > 2 * cap as u64,
        "scenario sanity: the top hub ({top_hub}) must dwarf the cap"
    );
    assert!(
        c.hub_subchunks() > 0,
        "the star hubs must have been split into sub-chunks"
    );
    assert!(
        c.max_chunk_edges() < 2 * cap as u64,
        "hub-split chunk bound violated: {} >= 2 x {cap}",
        c.max_chunk_edges()
    );
    assert!(
        c.max_chunk_edges() < top_hub,
        "max chunk ({}) must drop below the top hub's in-degree ({top_hub})",
        c.max_chunk_edges()
    );
    assert!(c.mean_chunk_edges() > 0.0);
}

/// The hub-split cost model under the adaptive cap: the balanced grid
/// scenario (every in-degree a handful of edges) must run without a single
/// hub sub-chunk. Unconditional splitting would shred any destination
/// whose in-degree marginally exceeds the derived cap into sub-chunks
/// whose dispatch cost outweighs the imbalance they remove; the cost model
/// only splits when the excess exceeds `HUB_SPLIT_OVERHEAD_EDGES`.
#[test]
fn adaptive_cap_leaves_balanced_grid_unsplit() {
    let side = (250_000.0f64 * 0.05).sqrt() as usize;
    let el = generators::grid_road(side, side, 0.05, 13);
    let seq = algorithms::pagerank(&sequential(&el), 10);
    let engine = GraphGrind2::new(&el, config(4, 4, ChunkCap::Auto));
    let got = algorithms::pagerank(&engine, 10);
    assert_eq!(got, seq, "adaptive run must match the sequential engine");
    let c = engine.work_counters();
    assert!(c.chunks() > 0, "the traversal must have planned chunks");
    assert_eq!(
        c.hub_subchunks(),
        0,
        "the balanced grid must not hub-split under the cost model"
    );
}

/// The persistent pool under the same skewed run: hundreds of epochs, one
/// crew. `spawns()` stays at the thread count while `epochs()` grows with
/// the rounds executed.
#[test]
fn skewed_scenario_reuses_one_worker_crew() {
    let el = powerlaw_scenario(0.02, 2.0, 8, 7);
    let engine = GraphGrind2::new(&el, config(4, 4, 64usize));
    for _ in 0..5 {
        let _ = algorithms::pagerank(&engine, 10);
    }
    let pool = engine.pool();
    assert_eq!(
        pool.spawns(),
        4,
        "5 PageRank runs must reuse the same 4 workers"
    );
    assert!(
        pool.epochs() > pool.spawns(),
        "epochs ({}) must outnumber spawned threads ({}) — the pre-pool \
         executor spawned threads per round",
        pool.epochs(),
        pool.spawns()
    );
}

/// Degenerate rounds: an edgeless graph plans nothing (no chunks), and a
/// traversal that dies out mid-run leaves the counters
/// consistent.
#[test]
fn empty_rounds_plan_no_chunks() {
    let el = EdgeList::new(24);
    let engine = GraphGrind2::new(&el, config(4, 2, 1));
    let r = algorithms::bfs(&engine, 0);
    assert_eq!(r.level[0], 0);
    assert_eq!(engine.work_counters().chunks(), 0);
    assert_eq!(engine.work_counters().max_chunk_edges(), 0);

    // A single isolated edge: the traversal runs one real round, then the
    // all-empty round terminates cleanly under per-vertex chunking.
    let el = EdgeList::from_edges(24, &[(0, 1)]);
    let engine = GraphGrind2::new(&el, config(4, 2, 1));
    let r = algorithms::bfs(&engine, 0);
    assert_eq!(r.level[1], 1);
    assert!(engine.work_counters().chunks() > 0);
}
