//! Differential harness for the fused multi-source traversal layer.
//!
//! The promise under test: **every lane of a fused K-query batch is
//! bit-identical to running that query alone**, under every executor
//! configuration. Fused edge maps plan on the union frontier but reuse the
//! scalar partitioning, chunking, hub splitting and work stealing, so the
//! sweep mirrors `chunked_differential.rs`: chunk caps {1, Auto, max} ×
//! 1–4 threads × 1/2/7 partitions, all compared against single-source
//! oracles computed on the sequential engine (1 partition, 1 thread,
//! unbounded chunks).
//!
//! 1. **Fused BFS**: lane `k`'s distance vector equals the scalar
//!    `bfs(sources[k])` levels in every configuration; round counts equal
//!    the maximum over lanes of the scalar round counts.
//! 2. **Fused reachability**: bit `k` of each vertex mask equals
//!    "`bfs(sources[k])` reached the vertex".
//! 3. **Fused PPR**: per-lane f64 mass vectors are *bitwise* equal to the
//!    single-seed run — residual folds group by fixed quanta in CSC scan
//!    order, so lane `k` performs the identical f64 operation sequence no
//!    matter which other lanes ride along.
//! 4. **Property sweep (proptest)**: random graphs × random source
//!    multisets × K ∈ {1, 63, 64} (duplicate seeds legal — and at K ≥ 63
//!    over ≤ 60 vertices, guaranteed by pigeonhole) agree with the
//!    single-source oracles lane-for-lane, BFS, reachability **and** PPR —
//!    including lanes the runner retires early.
//! 5. **Stepped slicing**: driving the resumable runners in uneven
//!    time-slices (the serving layer's capped-rounds mode) changes
//!    nothing — results and per-lane retirement rounds are identical to
//!    drained runs in every configuration.
//! 6. **Edge sharing**: a fused K=16 BFS traverses strictly fewer edges
//!    than the 16 single-source runs it replaces (deterministic tallies).

#![recursion_limit = "256"]

use proptest::prelude::*;

use graphgrind::algorithms::{
    self, fused_bfs, fused_ppr, fused_reachability, FusedBfsRun, FusedPprRun,
};
use graphgrind::bench::replay::fused_sources;
use graphgrind::core::config::{ChunkCap, Config, ExecutorKind};
use graphgrind::core::engine::{Engine, GraphGrind2};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::runtime::numa::NumaTopology;

const CAPS: [ChunkCap; 3] = [
    ChunkCap::Fixed(1),
    ChunkCap::Auto,
    ChunkCap::Fixed(usize::MAX),
];
const PARTITIONS: [usize; 3] = [1, 2, 7];

const THREADS: [usize; 3] = [1, 2, 4];

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

/// The sequential engine the single-source oracles run on.
fn sequential(el: &EdgeList) -> GraphGrind2 {
    GraphGrind2::new(el, config(1, 1, usize::MAX))
}

fn graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat-skewed",
            generators::rmat(8, 3000, RmatParams::skewed(), 7),
        ),
        ("grid-road", generators::grid_road(12, 12, 0.1, 9)),
    ]
}

const SOURCES: [u32; 5] = [0, 3, 17, 64, 99];

#[test]
fn fused_bfs_lanes_bit_identical_across_configs() {
    for (name, el) in graphs() {
        let seq = sequential(&el);
        let oracles: Vec<_> = SOURCES.iter().map(|&s| algorithms::bfs(&seq, s)).collect();
        let max_rounds = oracles.iter().map(|o| o.rounds).max().unwrap();
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let engine = GraphGrind2::new(&el, config(p, t, cap));
                    let fused = fused_bfs(&engine, &SOURCES);
                    for (k, oracle) in oracles.iter().enumerate() {
                        assert_eq!(
                            fused.dist[k], oracle.level,
                            "{name} lane {k} cap={cap:?} P={p} T={t}"
                        );
                    }
                    assert_eq!(fused.rounds, max_rounds, "{name} cap={cap:?} P={p} T={t}");
                    // The fusion tallies must be live in every config.
                    let c = engine.work_counters();
                    assert!(c.fused_lanes() > 0, "{name} cap={cap:?} P={p} T={t}");
                }
            }
        }
    }
}

#[test]
fn fused_reachability_lanes_bit_identical_across_configs() {
    for (name, el) in graphs() {
        let seq = sequential(&el);
        let oracles: Vec<_> = SOURCES.iter().map(|&s| algorithms::bfs(&seq, s)).collect();
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let engine = GraphGrind2::new(&el, config(p, t, cap));
                    let reach = fused_reachability(&engine, &SOURCES);
                    for (v, &mask) in reach.iter().enumerate() {
                        for (k, oracle) in oracles.iter().enumerate() {
                            let want = oracle.level[v] != u32::MAX;
                            let got = mask & (1 << k) != 0;
                            assert_eq!(got, want, "{name} v={v} lane {k} cap={cap:?} P={p} T={t}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fused_ppr_lanes_bitwise_equal_to_single_seed_runs() {
    for (name, el) in graphs() {
        let seq = sequential(&el);
        let seeds = [0u32, 17, 99];
        let solo: Vec<_> = seeds
            .iter()
            .map(|&s| fused_ppr(&seq, &[s], 0.15, 1e-4, 40))
            .collect();
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let engine = GraphGrind2::new(&el, config(p, t, cap));
                    let fused = fused_ppr(&engine, &seeds, 0.15, 1e-4, 40);
                    for (k, s) in solo.iter().enumerate() {
                        assert_eq!(
                            fused.p[k], s.p[0],
                            "{name} lane {k} cap={cap:?} P={p} T={t}"
                        );
                    }
                }
            }
        }
    }
}

/// Strategy: a random directed graph with 2..=60 vertices and 0..200 edges.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..=60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |edges| EdgeList::from_edges(n, &edges))
    })
}

/// Random source multiset of size K over the graph, with K pinned at the
/// lane-width boundaries: 1, 63 and 64 (duplicates allowed).
fn arb_graph_and_sources() -> impl Strategy<Value = (EdgeList, Vec<u32>)> {
    arb_graph().prop_flat_map(|el| {
        let n = el.num_vertices() as u32;
        (0usize..3)
            .prop_map(|i| [1usize, 63, 64][i])
            .prop_flat_map(move |k| {
                let el = el.clone();
                proptest::collection::vec(0..n, k..k + 1).prop_map(move |srcs| (el.clone(), srcs))
            })
    })
}

/// Property body (plain function: keeps the `proptest!` macro expansion
/// small). Panics — rather than `prop_assert!`s — are fine here: any
/// failure is a determinism bug worth the full backtrace.
fn check_random_sources(el: &EdgeList, sources: &[u32]) {
    let seq = sequential(el);
    let engine = GraphGrind2::new(el, config(3, 2, ChunkCap::Auto));
    let fused = fused_bfs(&engine, sources);
    let reach = fused_reachability(&engine, sources);
    let ppr = fused_ppr(&engine, sources, 0.2, 1e-3, 20);
    for (k, &s) in sources.iter().enumerate() {
        let oracle = algorithms::bfs(&seq, s);
        assert_eq!(fused.dist[k], oracle.level, "lane {k} source {s}");
        for (v, &mask) in reach.iter().enumerate() {
            let want = oracle.level[v] != u32::MAX;
            let got = mask & (1 << k) != 0;
            assert_eq!(got, want, "reach lane {k} vertex {v}");
        }
        // PPR lanes are *bitwise* equal to the single-seed run — duplicate
        // seeds included, and independent of when sibling lanes retire.
        let solo = fused_ppr(&seq, &[s], 0.2, 1e-3, 20);
        assert_eq!(ppr.p[k], solo.p[0], "ppr lane {k} seed {s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every lane of a random K-source fused BFS/reachability/PPR batch
    /// agrees with the scalar single-source oracle, on the partitioned
    /// executor.
    #[test]
    fn random_source_sets_agree_with_scalar_oracles(case in arb_graph_and_sources()) {
        let (el, sources) = case;
        check_random_sources(&el, &sources);
    }
}

/// The serving layer's capped-rounds mode drives the resumable runners in
/// arbitrary time-slices. Slicing must be invisible: results and per-lane
/// retirement rounds equal the drained run's, in every configuration —
/// and the retirement rounds themselves are config-independent (they are
/// a pure function of the per-round live-lane word).
#[test]
fn stepped_runners_are_slice_and_config_invariant() {
    // Duplicate seeds on purpose: retiring one copy must not disturb the
    // other's lane.
    let sources = [0u32, 17, 17, 99, 3, 64];
    for (name, el) in graphs() {
        let seq = sequential(&el);
        let drained = fused_bfs(&seq, &sources);
        let drained_ppr = fused_ppr(&seq, &sources, 0.15, 1e-4, 12);
        let mut retire_rounds: Option<Vec<Option<u32>>> = None;
        for cap in CAPS {
            for p in PARTITIONS {
                for t in THREADS {
                    let engine = GraphGrind2::new(&el, config(p, t, cap));
                    let mut bfs_run = FusedBfsRun::new(&engine, &sources);
                    let mut ppr_run = FusedPprRun::new(&engine, &sources, 0.15, 1e-4, 12);
                    // Uneven slices: 1, 2, 3, 1, 2, 3, ... rounds at a time.
                    let mut slice = 0usize;
                    while !bfs_run.is_done() || !ppr_run.is_done() {
                        slice = slice % 3 + 1;
                        for _ in 0..slice {
                            bfs_run.step();
                            ppr_run.step();
                        }
                    }
                    for k in 0..sources.len() {
                        assert_eq!(
                            bfs_run.dist(k as u32),
                            &drained.dist[k][..],
                            "{name} bfs lane {k} cap={cap:?} P={p} T={t}"
                        );
                        assert_eq!(
                            ppr_run.mass(k as u32),
                            &drained_ppr.p[k][..],
                            "{name} ppr lane {k} cap={cap:?} P={p} T={t}"
                        );
                    }
                    let rounds: Vec<Option<u32>> = (0..sources.len() as u32)
                        .map(|k| bfs_run.retired_round(k))
                        .collect();
                    match &retire_rounds {
                        None => retire_rounds = Some(rounds),
                        Some(want) => assert_eq!(
                            &rounds, want,
                            "{name} retirement rounds cap={cap:?} P={p} T={t}"
                        ),
                    }
                }
            }
        }
    }
}

/// The structural claim of frontier fusion: one K-lane edge scan serves
/// all K queries, so a fused K=16 BFS traverses strictly fewer edges than
/// the 16 one-query runs it replaces — scalar `bfs` runs (a 13× margin
/// here, most of it the fused kernels' deliverable-lane prefilter) and,
/// the tight comparison that isolates lane sharing, 16 fused K=1 runs
/// (under 2×). Edge tallies are deterministic (no wall-clock involved),
/// so this cannot flake.
#[test]
fn fused_k16_traverses_fewer_edges_than_sixteen_sequential_runs() {
    let el = generators::small_world(2000, 6, 0.05, 13);
    let sources = fused_sources(&el, 16);
    for t in THREADS {
        let engine = GraphGrind2::new(&el, config(7, t, ChunkCap::Auto));
        let counters = engine.work_counters();
        let mut mark = counters.snapshot();
        let mut edges_since_mark = || {
            let now = counters.snapshot();
            let edges = now.delta_since(&mark).edges;
            mark = now;
            edges
        };
        let fused = fused_bfs(&engine, &sources);
        let fused_edges = edges_since_mark();
        for (k, &s) in sources.iter().enumerate() {
            let solo = algorithms::bfs(&engine, s);
            assert_eq!(fused.dist[k], solo.level, "lane {k} T={t}");
        }
        let scalar_edges = edges_since_mark();
        for &s in &sources {
            fused_bfs(&engine, &[s]);
        }
        let single_lane_edges = edges_since_mark();
        assert!(fused_edges > 0, "fused run tallied no edges T={t}");
        assert!(
            fused_edges < scalar_edges && fused_edges < single_lane_edges,
            "fused K=16 traversed {fused_edges} edges, not fewer than 16 scalar \
             runs ({scalar_edges}) and 16 fused K=1 runs ({single_lane_edges}), T={t}"
        );
    }
}
