//! The three-way density classification, observed end-to-end through
//! [`GraphGrind2::kernel_counts`], plus complementary tests for the
//! partition-count heuristic.
//!
//! The graph is built so that single frontiers land *exactly on* and *one
//! past* both Algorithm 2 thresholds (`|E| / 20` and `|E| / 2`), pinning
//! the boundary semantics: a frontier is promoted only when its metric
//! strictly exceeds the threshold.

use gg_core::heuristic::{suggest_partitions, HeuristicInputs, MAX_PARTITIONS};
use gg_core::prelude::*;
use gg_graph::edge_list::EdgeList;

/// An edge operator that activates every destination.
struct Activate;

impl EdgeOp for Activate {
    fn update(&self, _s: u32, _d: u32, _w: f32) -> bool {
        true
    }
    fn update_atomic(&self, _s: u32, _d: u32, _w: f32) -> bool {
        true
    }
}

/// 40 vertices, exactly 60 edges, with out-degrees chosen so frontiers can
/// straddle both thresholds:
///
/// * vertex 0 ("hub")    — 30 out-edges (`|E| / 2`),
/// * vertex 1 ("almost") — 28 out-edges,
/// * vertex 2 ("small")  — 2 out-edges,
/// * vertex 3 ("zero")   — no out-edges.
const HUB: u32 = 0;
const ALMOST: u32 = 1;
const SMALL: u32 = 2;
const ZERO: u32 = 3;

fn threshold_graph() -> EdgeList {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for t in 0..30u32 {
        edges.push((HUB, 4 + t));
    }
    for t in 0..28u32 {
        edges.push((ALMOST, 4 + t));
    }
    edges.push((SMALL, 4));
    edges.push((SMALL, 5));
    let el = EdgeList::from_edges(40, &edges);
    assert_eq!(el.num_edges(), 60);
    el
}

fn engine() -> GraphGrind2 {
    GraphGrind2::new(&threshold_graph(), Config::for_tests())
}

#[test]
fn metric_at_sparse_threshold_stays_sparse() {
    let e = engine();
    // {SMALL}: metric = 1 + 2 = 3 = |E| / 20 — not strictly above, sparse.
    let f = e.frontier_sparse(vec![SMALL]);
    assert_eq!(f.density_metric(), 3);
    e.edge_map(&f, &Activate, EdgeMapSpec::edge_oriented());
    assert_eq!(e.kernel_counts().snapshot(), (1, 0, 0));
}

#[test]
fn metric_one_past_sparse_threshold_is_medium() {
    let e = engine();
    // {SMALL, ZERO}: metric = 2 + 2 = 4 > |E| / 20 — medium.
    let f = e.frontier_sparse(vec![SMALL, ZERO]);
    assert_eq!(f.density_metric(), 4);
    e.edge_map(&f, &Activate, EdgeMapSpec::edge_oriented());
    assert_eq!(e.kernel_counts().snapshot(), (0, 1, 0));
}

#[test]
fn metric_at_dense_threshold_stays_medium() {
    let e = engine();
    // {ALMOST, ZERO}: metric = 2 + 28 = 30 = |E| / 2 — not strictly above.
    let f = e.frontier_sparse(vec![ALMOST, ZERO]);
    assert_eq!(f.density_metric(), 30);
    e.edge_map(&f, &Activate, EdgeMapSpec::edge_oriented());
    assert_eq!(e.kernel_counts().snapshot(), (0, 1, 0));
}

#[test]
fn metric_one_past_dense_threshold_is_dense() {
    let e = engine();
    // {HUB}: metric = 1 + 30 = 31 > |E| / 2 — dense.
    let f = e.frontier_sparse(vec![HUB]);
    assert_eq!(f.density_metric(), 31);
    e.edge_map(&f, &Activate, EdgeMapSpec::edge_oriented());
    assert_eq!(e.kernel_counts().snapshot(), (0, 0, 1));
}

#[test]
fn kernel_counts_accumulate_across_calls() {
    let e = engine();
    for f in [
        e.frontier_sparse(vec![SMALL]),        // sparse
        e.frontier_sparse(vec![SMALL, ZERO]),  // medium
        e.frontier_sparse(vec![ALMOST, ZERO]), // medium
        e.frontier_sparse(vec![HUB]),          // dense
    ] {
        e.edge_map(&f, &Activate, EdgeMapSpec::edge_oriented());
    }
    assert_eq!(e.kernel_counts().snapshot(), (1, 2, 1));
    e.kernel_counts().reset();
    assert_eq!(e.kernel_counts().snapshot(), (0, 0, 0));
}

#[test]
fn all_three_kernels_produce_the_same_next_frontier() {
    // The safety claim behind the classification: kernel choice must never
    // change results. Run the same mid-density frontier through each class
    // by shifting the thresholds, and compare the produced frontiers.
    let el = threshold_graph();
    let active = vec![ALMOST, SMALL];
    let mut produced: Vec<Vec<u32>> = Vec::new();
    for thresholds in [
        // metric = 32: dense under (divisor 4 -> cut 15), medium under the
        // paper's (2, 20), sparse when the sparse cut is huge.
        Thresholds {
            dense_divisor: 4,
            sparse_divisor: 20,
        },
        Thresholds {
            dense_divisor: 2,
            sparse_divisor: 20,
        },
        Thresholds {
            dense_divisor: 1,
            sparse_divisor: 1,
        },
    ] {
        let cfg = Config {
            thresholds,
            ..Config::for_tests()
        };
        let e = GraphGrind2::new(&el, cfg);
        let next = e.edge_map(
            &e.frontier_sparse(active.clone()),
            &Activate,
            EdgeMapSpec::edge_oriented(),
        );
        produced.push(next.to_vertex_list());
    }
    // One call per engine, and the three engines chose three different
    // kernels for the same frontier...
    assert_eq!(produced.len(), 3);
    // ...yet produced identical next frontiers.
    assert_eq!(produced[0], produced[1]);
    assert_eq!(produced[1], produced[2]);
    assert!(!produced[0].is_empty());
}

// ---- heuristic ----------------------------------------------------------

#[test]
fn heuristic_gives_every_thread_a_partition() {
    // Atomics removal (§III.C) needs P >= threads regardless of graph size.
    for threads in [1usize, 3, 8, 48] {
        let p = suggest_partitions(&HeuristicInputs::new(1000, 10_000, threads, 1));
        assert!(p >= threads, "threads = {threads}, p = {p}");
    }
}

#[test]
fn heuristic_caps_at_max_partitions() {
    // Billion-edge inputs must not explode past the §IV.A scheduling cliff.
    let p = suggest_partitions(&HeuristicInputs::new(
        100_000_000,
        2_000_000_000,
        48,
        gg_core::config::PAPER_DOMAINS,
    ));
    assert_eq!(p, MAX_PARTITIONS);
}

#[test]
fn heuristic_rounds_to_numa_multiples() {
    for domains in [2usize, 3, 4] {
        let p = suggest_partitions(&HeuristicInputs::new(5_000_000, 50_000_000, 5, domains));
        assert_eq!(p % domains, 0, "domains = {domains}, p = {p}");
    }
}

#[test]
fn heuristic_asks_for_more_partitions_when_cache_shrinks() {
    let mut big_llc = HeuristicInputs::new(4_000_000, 80_000_000, 8, 2);
    big_llc.llc_bytes = 64 * 1024 * 1024;
    let mut small_llc = big_llc;
    small_llc.llc_bytes = 4 * 1024 * 1024;
    let p_big = suggest_partitions(&big_llc);
    let p_small = suggest_partitions(&small_llc);
    assert!(
        p_small >= p_big,
        "smaller LLC must not want fewer partitions: {p_big} -> {p_small}"
    );
}
