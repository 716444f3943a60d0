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
//! 7. **Golden digests**: fused BFS, reachability and PPR results at
//!    K ∈ {1, 7, 64} equal digests recorded before the PPR push table
//!    became an indexed slot array — PPR is otherwise only compared with
//!    itself.

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

/// FNV-1a over the fused results of one batch: every BFS distance, every
/// reachability mask, every PPR mass by bit pattern, lane-major.
fn fused_results_digest(engine: &GraphGrind2, sources: &[u32]) -> [u64; 3] {
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in words {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
    let bfs = fused_bfs(engine, sources);
    let reach = fused_reachability(engine, sources);
    let ppr = fused_ppr(engine, sources, 0.15, 1e-4, 30);
    [
        fnv(bfs.dist.iter().flatten().map(|&d| u64::from(d))),
        fnv(reach.into_iter()),
        fnv(ppr.p.iter().flatten().map(|m| m.to_bits())),
    ]
}

/// Fused BFS distances, reachability masks and PPR mass bit patterns are
/// identical to the ones the binary-searched PPR push table produced. The
/// digests were computed at commit aea5aef, the last one whose
/// `FusedPprOp::scaled_of` searched the round's sorted push list, by this
/// very function, at K in {1, 7, 64} (sources strided over the id space,
/// so K = 64 repeats none on these graphs) and partitions 1 and 16.
#[test]
fn fused_results_match_digests_recorded_before_the_push_slot_table() {
    const GOLDEN: [(&str, usize, [u64; 3]); 9] = [
        (
            "rmat",
            1,
            [0x577b5a54c2c9319b, 0xaf471b0cd0ddd0a5, 0x6e80b07172356eb6],
        ),
        (
            "rmat",
            7,
            [0xd243424dee178eb4, 0x5d2f8638b452d909, 0x4ad5d98ebf6296c0],
        ),
        (
            "rmat",
            64,
            [0xcba0576b3307a6a1, 0xf2ea2aa78abfbb91, 0x3d92d4abe37af7ff],
        ),
        (
            "chung-lu",
            1,
            [0x6f777b3f3fa50b44, 0xe85a472aaf92c825, 0x8ce546c77d6f6888],
        ),
        (
            "chung-lu",
            7,
            [0x33697e0fc40f5580, 0xe6a35e2adbabde25, 0xad27bd190b687c7c],
        ),
        (
            "chung-lu",
            64,
            [0xa62f886f04a5407a, 0xd21aedbdc95cca87, 0x74a728f7511cdc12],
        ),
        (
            "grid-road",
            1,
            [0x85c92a8795d5828b, 0x1e06b9cb16916725, 0xc5386075da5804aa],
        ),
        (
            "grid-road",
            7,
            [0x14ee5a4d7369faaf, 0xb004fe0a9c1d7f25, 0x9b94cac79ddca671],
        ),
        (
            "grid-road",
            64,
            [0x99b4d10c1f9a069c, 0x0603bb9295a44d25, 0x2d04d8f023886d44],
        ),
    ];
    let graphs = [
        ("rmat", generators::rmat(10, 8_000, RmatParams::skewed(), 7)),
        ("chung-lu", generators::chung_lu(2_000, 12_000, 2.1, 7)),
        ("grid-road", generators::grid_road(40, 40, 0.05, 7)),
    ];
    for (name, k, want) in GOLDEN {
        let el = &graphs.iter().find(|(g, _)| *g == name).unwrap().1;
        let n = el.num_vertices();
        let sources: Vec<u32> = (0..k).map(|i| ((i * n / k + 3) % n) as u32).collect();
        for p in [1, 16] {
            let engine = GraphGrind2::new(el, config(p, 2, ChunkCap::Auto));
            let got = fused_results_digest(&engine, &sources);
            assert_eq!(
                got, want,
                "{name} K={k} P={p}: {got:#018x?} != {want:#018x?}"
            );
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
