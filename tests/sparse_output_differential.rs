//! Differential harness for the representation-polymorphic frontier
//! outputs.
//!
//! The traversal planner (`gg_core::plan`) pairs every partition's kernel
//! with an output representation — a sorted sparse vertex list or a
//! range-aligned dense bitmap segment — and the partition-order merge in
//! `Frontier::from_partition_outputs` promises the choice is invisible in
//! results. These tests pin that promise three ways:
//!
//! 1. **Bit-identity across representations**: BFS and Bellman-Ford with
//!    the sparse-output path forced on must match the dense-merge path
//!    byte for byte, over 1/2/7 partitions × 1–4 threads.
//! 2. **The merge floor is gone**: a traversal whose frontiers stay tiny
//!    (`≤ √|V|` active vertices every round) performs **zero** dense-merge
//!    work under the sparse-output path — asserted through the
//!    `WorkCounters::merge_words()` counter, which counts every
//!    `|V|`-proportional merge allocation and spliced segment word.
//! 3. **Mixed-representation iterations are observable**: on the
//!    density-skewed graph, `kernel_counts().output_snapshot()` records
//!    iterations in which some partitions emitted lists while others
//!    emitted segments.

use graphgrind::algorithms;
use graphgrind::core::config::{chunk_edges_from_env, ChunkCap, Config, ExecutorKind, OutputMode};
use graphgrind::core::engine::{Engine, GraphGrind2};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::runtime::numa::NumaTopology;

const PARTITIONS: [usize; 3] = [1, 2, 7];
const THREADS: [usize; 3] = [1, 2, 4];

fn config(partitions: usize, threads: usize, output: OutputMode) -> Config {
    Config {
        threads,
        num_partitions: partitions,
        numa: NumaTopology::new(1),
        executor: ExecutorKind::Partitioned,
        output_mode: output,
        chunk_edges: chunk_edges_from_env().unwrap_or(ChunkCap::Auto),
        ..Config::default()
    }
}

/// Deterministic graphs covering the regimes the planner must handle:
/// skewed (dense rounds), high-diameter road grid (sparse rounds), and a
/// tree (pure frontier expansion).
fn graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat-skewed",
            generators::rmat(8, 3000, RmatParams::skewed(), 7),
        ),
        ("grid-road", generators::grid_road(12, 12, 0.1, 9)),
        ("small-world", generators::small_world(300, 4, 0.1, 3)),
        ("binary-tree", generators::binary_tree(127)),
    ]
}

#[test]
fn bfs_bit_identical_between_output_representations() {
    for (name, el) in graphs() {
        let reference = algorithms::bfs(
            &GraphGrind2::new(&el, config(1, 1, OutputMode::ForceDense)),
            0,
        );
        for p in PARTITIONS {
            for t in THREADS {
                for mode in [
                    OutputMode::ForceSparse,
                    OutputMode::ForceDense,
                    OutputMode::Auto,
                ] {
                    let got = algorithms::bfs(&GraphGrind2::new(&el, config(p, t, mode)), 0);
                    assert_eq!(got.level, reference.level, "{name} P={p} T={t} {mode:?}");
                    assert_eq!(got.parent, reference.parent, "{name} P={p} T={t} {mode:?}");
                    assert_eq!(got.rounds, reference.rounds, "{name} P={p} T={t} {mode:?}");
                }
            }
        }
    }
}

#[test]
fn bellman_ford_bit_identical_between_output_representations() {
    for (name, el) in graphs() {
        let mut el = el;
        graphgrind::graph::weights::attach_integer(&mut el, 12, 0xBF);
        let reference = algorithms::bellman_ford(
            &GraphGrind2::new(&el, config(1, 1, OutputMode::ForceDense)),
            0,
        );
        for p in PARTITIONS {
            for t in THREADS {
                let sparse = algorithms::bellman_ford(
                    &GraphGrind2::new(&el, config(p, t, OutputMode::ForceSparse)),
                    0,
                );
                let dense = algorithms::bellman_ford(
                    &GraphGrind2::new(&el, config(p, t, OutputMode::ForceDense)),
                    0,
                );
                // f32 distances compare bitwise: every candidate is a
                // path-prefix sum (fixed accumulation order), and the
                // converged minimum is representation-independent.
                assert_eq!(sparse.dist, dense.dist, "{name} P={p} T={t}");
                assert_eq!(sparse.dist, reference.dist, "{name} P={p} T={t} vs seq");
                // Bellman-Ford's update reads source distances another
                // partition may be rewriting mid-round, so the *round
                // count* is schedule-dependent under concurrency (like
                // CC's); it is pinned only where the schedule is serial.
                if t == 1 {
                    assert_eq!(sparse.rounds, dense.rounds, "{name} P={p} T=1");
                }
            }
        }
    }
}

/// Acceptance check: a round whose next frontier has `≤ √|V|` active
/// vertices performs no `O(|V|)`-proportional merge work. On a path graph
/// every BFS frontier is a single vertex, so under the sparse-output path
/// (forced *or* auto-planned) the entire traversal must record **zero**
/// dense-merge words, while the forced dense path pays the floor every
/// round.
#[test]
fn sparse_rounds_pay_no_dense_merge_work() {
    let el = generators::path(400);
    for mode in [OutputMode::ForceSparse, OutputMode::Auto] {
        let engine = GraphGrind2::new(&el, config(7, 2, mode));
        let r = algorithms::bfs(&engine, 0);
        assert_eq!(r.rounds, 400, "{mode:?}: path BFS runs |V| rounds");
        // Every frontier of the run had exactly 1 ≤ √400 active vertices.
        assert_eq!(
            engine.work_counters().merge_words(),
            0,
            "{mode:?}: tiny frontiers must never pay a dense merge"
        );
        let (out_sparse, out_dense, _) = engine.kernel_counts().output_snapshot();
        assert!(out_sparse > 0, "{mode:?}: sparse outputs must be planned");
        assert_eq!(out_dense, 0, "{mode:?}: no partition may emit a segment");
    }

    // The forced dense path pays the |V|-proportional floor every round —
    // the behaviour PR 2 hard-coded, kept reachable for comparison.
    let engine = GraphGrind2::new(&el, config(7, 2, OutputMode::ForceDense));
    let r = algorithms::bfs(&engine, 0);
    let words_per_round = 400u64.div_ceil(64);
    assert!(
        engine.work_counters().merge_words() >= (r.rounds as u64 - 1) * words_per_round,
        "forced dense merge must pay the floor: {} words over {} rounds",
        engine.work_counters().merge_words(),
        r.rounds
    );
}

/// On the density-skewed graph one edge map plans sparse outputs for the
/// quiet tail partitions and dense segments for the saturated block
/// partitions — a mixed-representation iteration, observable through
/// `output_snapshot`, with results still bit-identical to the sequential
/// engine.
#[test]
fn skewed_graph_mixes_output_representations_and_stays_bit_identical() {
    let mut el = EdgeList::new(64);
    for i in 0..16u32 {
        for j in 0..16u32 {
            if i != j {
                el.push(i, j);
            }
        }
    }
    el.push(8, 16);
    for i in 16..63u32 {
        el.push(i, i + 1);
    }

    let seq = algorithms::bfs(
        &GraphGrind2::new(&el, config(1, 1, OutputMode::ForceDense)),
        0,
    );
    let engine = GraphGrind2::new(&el, config(7, 2, OutputMode::Auto));
    let got = algorithms::bfs(&engine, 0);
    assert_eq!(got.level, seq.level);
    assert_eq!(got.parent, seq.parent);

    let (out_sparse, out_dense, mixed) = engine.kernel_counts().output_snapshot();
    assert!(
        out_sparse > 0 && out_dense > 0,
        "both representations must appear: sparse={out_sparse} dense={out_dense}"
    );
    assert!(
        mixed >= 1,
        "at least one iteration must mix representations, got {mixed}"
    );
    // Output selections mirror kernel selections under Auto.
    let (k_sparse, k_dense, _) = engine.kernel_counts().partition_snapshot();
    assert_eq!((out_sparse, out_dense), (k_sparse, k_dense));
}

/// The planner's output-size estimate (ROADMAP follow-up): every vertex
/// points at one hub destination, so the all-active frontier classifies
/// the hub partition *dense* — but the pruned CSR stores exactly one
/// distinct destination, a provable output bound, so under
/// `OutputMode::Auto` the partition emits a sorted list anyway and the
/// whole run stays off the dense-merge floor.
#[test]
fn provably_small_outputs_emit_sparse_lists_under_auto() {
    let mut el = EdgeList::new(512);
    for i in 0..512u32 {
        if i != 300 {
            el.push(i, 300);
        }
    }
    let seq = algorithms::pagerank(
        &GraphGrind2::new(&el, config(1, 1, OutputMode::ForceDense)),
        10,
    );
    let engine = GraphGrind2::new(&el, config(2, 2, OutputMode::Auto));
    let got = algorithms::pagerank(&engine, 10);
    assert_eq!(
        got, seq,
        "estimate-driven sparse lists must not change results"
    );

    let (_, k_dense, _) = engine.kernel_counts().partition_snapshot();
    assert!(k_dense > 0, "the hub partition must classify dense");
    let (out_sparse, out_dense, _) = engine.kernel_counts().output_snapshot();
    assert!(
        out_sparse > 0 && out_dense == 0,
        "the candidate-count estimate must emit lists: sparse={out_sparse} dense={out_dense}"
    );
    assert_eq!(
        engine.work_counters().merge_words(),
        0,
        "all-sparse rounds must never pay the dense-merge floor"
    );
}

/// Forced modes plan every partition onto one representation, whatever
/// the kernels decide.
#[test]
fn forced_modes_pin_every_partition() {
    let el = generators::rmat(8, 3000, RmatParams::skewed(), 7);
    for (mode, expect_sparse) in [
        (OutputMode::ForceSparse, true),
        (OutputMode::ForceDense, false),
    ] {
        let engine = GraphGrind2::new(&el, config(7, 2, mode));
        let _ = algorithms::bfs(&engine, 0);
        let (out_sparse, out_dense, mixed) = engine.kernel_counts().output_snapshot();
        assert_eq!(mixed, 0, "{mode:?} must never mix");
        if expect_sparse {
            assert!(out_sparse > 0 && out_dense == 0, "{mode:?}");
        } else {
            assert!(out_dense > 0 && out_sparse == 0, "{mode:?}");
        }
    }
}
