//! Cross-engine agreement: every algorithm must produce the same answer on
//! Ligra, Polymer, GraphGrind-v1 and GraphGrind-v2 — and match the
//! sequential oracles — on a variety of graph shapes.
//!
//! This is the central safety claim of the paper's design: removing
//! atomics, changing layouts, changing directions and changing partition
//! counts are pure *performance* choices and never change results.

use graphgrind::algorithms::{self, reference, validate, Algorithm, BpParams, PrDeltaParams};
use graphgrind::baselines::{GraphGrind1, Ligra, Polymer};
use graphgrind::core::{Config, GraphGrind2};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::graph::ops::{symmetrize, transpose};
use graphgrind::graph::weights;
use graphgrind::runtime::numa::NumaTopology;

fn test_graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat-skewed",
            generators::rmat(9, 5000, RmatParams::skewed(), 101),
        ),
        ("erdos-renyi", generators::erdos_renyi(400, 4000, 102)),
        ("road-grid", generators::grid_road(18, 18, 0.1, 103)),
        ("binary-tree", generators::binary_tree(255)),
    ]
}

#[test]
fn bfs_agrees_everywhere() {
    for (name, el) in test_graphs() {
        let want = reference::bfs_levels(&el, 0);
        let l = Ligra::new(&el, 2);
        let p = Polymer::new(&el, 2, NumaTopology::new(2));
        let g1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let g2 = GraphGrind2::new(&el, Config::for_tests());
        assert_eq!(algorithms::bfs(&l, 0).level, want, "{name}/Ligra");
        assert_eq!(algorithms::bfs(&p, 0).level, want, "{name}/Polymer");
        assert_eq!(algorithms::bfs(&g1, 0).level, want, "{name}/GG-v1");
        assert_eq!(algorithms::bfs(&g2, 0).level, want, "{name}/GG-v2");
    }
}

#[test]
fn cc_agrees_everywhere() {
    for (name, el) in test_graphs() {
        let el = symmetrize(&el);
        let want = reference::cc_labels(&el);
        let l = Ligra::new(&el, 2);
        let p = Polymer::new(&el, 2, NumaTopology::new(2));
        let g1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let g2 = GraphGrind2::new(&el, Config::for_tests());
        assert_eq!(algorithms::cc(&l).label, want, "{name}/Ligra");
        assert_eq!(algorithms::cc(&p).label, want, "{name}/Polymer");
        assert_eq!(algorithms::cc(&g1).label, want, "{name}/GG-v1");
        assert_eq!(algorithms::cc(&g2).label, want, "{name}/GG-v2");
    }
}

#[test]
fn pagerank_agrees_everywhere() {
    for (name, el) in test_graphs() {
        let want = reference::pagerank(&el, 10);
        let l = Ligra::new(&el, 2);
        let p = Polymer::new(&el, 2, NumaTopology::new(2));
        let g1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let g2 = GraphGrind2::new(&el, Config::for_tests());
        for (ename, got) in [
            ("Ligra", algorithms::pagerank(&l, 10)),
            ("Polymer", algorithms::pagerank(&p, 10)),
            ("GG-v1", algorithms::pagerank(&g1, 10)),
            ("GG-v2", algorithms::pagerank(&g2, 10)),
        ] {
            validate::assert_close_f64(&got, &want, 1e-9, 1e-14);
            let _ = (name, ename);
        }
    }
}

#[test]
fn bellman_ford_agrees_everywhere() {
    for (name, mut el) in test_graphs() {
        weights::attach_integer(&mut el, 9, 55);
        let want = reference::dijkstra(&el, 0);
        let l = Ligra::new(&el, 2);
        let p = Polymer::new(&el, 2, NumaTopology::new(2));
        let g1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let g2 = GraphGrind2::new(&el, Config::for_tests());
        for (ename, got) in [
            ("Ligra", algorithms::bellman_ford(&l, 0)),
            ("Polymer", algorithms::bellman_ford(&p, 0)),
            ("GG-v1", algorithms::bellman_ford(&g1, 0)),
            ("GG-v2", algorithms::bellman_ford(&g2, 0)),
        ] {
            validate::assert_close_f32(&got.dist, &want, 1e-4, 1e-4);
            let _ = (name, ename);
        }
    }
}

#[test]
fn spmv_agrees_everywhere() {
    for (name, mut el) in test_graphs() {
        weights::attach_uniform(&mut el, 0.1, 2.0, 56);
        let x: Vec<f64> = (0..el.num_vertices())
            .map(|i| ((i % 13) + 1) as f64)
            .collect();
        let want = reference::spmv(&el, &x);
        let l = Ligra::new(&el, 2);
        let p = Polymer::new(&el, 2, NumaTopology::new(2));
        let g1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let g2 = GraphGrind2::new(&el, Config::for_tests());
        for (ename, got) in [
            ("Ligra", algorithms::spmv(&l, &x)),
            ("Polymer", algorithms::spmv(&p, &x)),
            ("GG-v1", algorithms::spmv(&g1, &x)),
            ("GG-v2", algorithms::spmv(&g2, &x)),
        ] {
            validate::assert_close_f64(&got, &want, 1e-9, 1e-10);
            let _ = (name, ename);
        }
    }
}

#[test]
fn bp_agrees_everywhere() {
    for (name, el) in test_graphs() {
        let priors = algorithms::bp::random_priors(el.num_vertices(), 57);
        let want = reference::bp(&el, &priors, 0.05, 10);
        let l = Ligra::new(&el, 2);
        let p = Polymer::new(&el, 2, NumaTopology::new(2));
        let g1 = GraphGrind1::new(&el, 2, NumaTopology::new(2));
        let g2 = GraphGrind2::new(&el, Config::for_tests());
        for (ename, got) in [
            ("Ligra", algorithms::bp(&l, &priors, BpParams::default())),
            ("Polymer", algorithms::bp(&p, &priors, BpParams::default())),
            ("GG-v1", algorithms::bp(&g1, &priors, BpParams::default())),
            ("GG-v2", algorithms::bp(&g2, &priors, BpParams::default())),
        ] {
            validate::assert_close_f64(&got, &want, 1e-9, 1e-12);
            let _ = (name, ename);
        }
    }
}

#[test]
fn bc_agrees_everywhere() {
    for (name, el) in test_graphs() {
        let elt = transpose(&el);
        let want = reference::bc_single_source(&el, 0);
        let got_pairs = [
            (
                "Ligra",
                algorithms::bc(&Ligra::new(&el, 2), &Ligra::new(&elt, 2), 0),
            ),
            (
                "Polymer",
                algorithms::bc(
                    &Polymer::new(&el, 2, NumaTopology::new(2)),
                    &Polymer::new(&elt, 2, NumaTopology::new(2)),
                    0,
                ),
            ),
            (
                "GG-v1",
                algorithms::bc(
                    &GraphGrind1::new(&el, 2, NumaTopology::new(2)),
                    &GraphGrind1::new(&elt, 2, NumaTopology::new(2)),
                    0,
                ),
            ),
            (
                "GG-v2",
                algorithms::bc(
                    &GraphGrind2::new(&el, Config::for_tests()),
                    &GraphGrind2::new(&elt, Config::for_tests()),
                    0,
                ),
            ),
        ];
        for (ename, got) in got_pairs {
            validate::assert_close_f64(&got.dependency, &want, 1e-9, 1e-10);
            let _ = (name, ename);
        }
    }
}

#[test]
fn prdelta_exact_mode_agrees_everywhere() {
    let el = generators::rmat(9, 5000, RmatParams::skewed(), 104);
    let want = reference::pagerank(&el, 10);
    let params = PrDeltaParams {
        epsilon: 0.0,
        max_rounds: 10,
    };
    let l = Ligra::new(&el, 2);
    let g2 = GraphGrind2::new(&el, Config::for_tests());
    validate::assert_close_f64(
        &algorithms::pagerank_delta(&l, params).rank,
        &want,
        1e-9,
        1e-14,
    );
    validate::assert_close_f64(
        &algorithms::pagerank_delta(&g2, params).rank,
        &want,
        1e-9,
        1e-14,
    );
}

#[test]
fn orientation_metadata_consistent() {
    // Table II invariants used by the harness.
    for algo in Algorithm::all() {
        let spec = algo.spec();
        assert_eq!(
            algo.vertex_oriented(),
            spec.orientation == graphgrind::core::Orientation::Vertex
        );
    }
}

/// FNV-1a over the monolithic results on one graph under
/// `Config::default()` at one thread: BFS levels and CC labels from vertex
/// 0, Bellman-Ford distances by bit pattern, PRDelta ranks by bit pattern
/// (deterministic at one thread only: its sparse rounds add `f64` deltas
/// atomically in arrival order). The four runs together must take each of
/// Algorithm 2's three classes at least once.
fn monolithic_results_digest(el: &EdgeList) -> [u64; 4] {
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in words {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
    let engine = GraphGrind2::new(
        el,
        Config {
            threads: 1,
            ..Config::default()
        },
    );
    let bfs = algorithms::bfs(&engine, 0);
    let cc = algorithms::cc(&engine);
    let bf = algorithms::bellman_ford(&engine, 0);
    let prd = algorithms::pagerank_delta(&engine, PrDeltaParams::default());
    let (sparse, medium, dense) = engine.kernel_counts().snapshot();
    assert!(
        sparse > 0 && medium > 0 && dense > 0,
        "every class must run: {sparse} sparse, {medium} medium, {dense} dense rounds"
    );
    [
        fnv(bfs.level.iter().map(|&l| u64::from(l))),
        fnv(cc.label.iter().map(|&l| u64::from(l))),
        fnv(bf.dist.iter().map(|d| u64::from(d.to_bits()))),
        fnv(prd.rank.iter().map(|r| r.to_bits())),
    ]
}

/// The monolithic three-layout path (sparse CSR push, medium CSC pull,
/// dense partitioned COO) produces exactly the results it produced before
/// its kernels tested a next-frontier bit before setting it and before the
/// dense COO kernel compacted active edges. The digests were computed at
/// commit 0a5b9be by this very function on symmetrized, integer-weighted
/// smoke-scale graphs.
#[test]
fn monolithic_results_match_digests_recorded_before_test_before_set() {
    const GOLDEN: [(&str, [u64; 4]); 3] = [
        (
            "rmat",
            [
                0x52cb5fc6da0bf700,
                0xfffbfaf4cbec9edd,
                0xbd45015852fcd0f8,
                0x725457753e330ad3,
            ],
        ),
        (
            "chung-lu",
            [
                0xe9f023a146b15f10,
                0x8aed014424286d73,
                0xf5c5300e7a1f4e88,
                0xaf6cced84b94e38c,
            ],
        ),
        (
            "grid-road",
            [
                0xe99c83482a58cfea,
                0xbd23921f44adad25,
                0x15eb9d914839401b,
                0x50a1c59e6e98e008,
            ],
        ),
    ];
    let graphs = [
        (
            "rmat",
            generators::rmat(12, 40_000, RmatParams::skewed(), 11),
        ),
        ("chung-lu", generators::chung_lu(3_000, 24_000, 2.1, 11)),
        ("grid-road", generators::grid_road(60, 60, 0.05, 11)),
    ];
    for (name, want) in GOLDEN {
        let mut el = symmetrize(&graphs.iter().find(|(g, _)| *g == name).unwrap().1);
        weights::attach_integer(&mut el, 9, 11);
        let got = monolithic_results_digest(&el);
        assert_eq!(got, want, "{name}: {got:#018x?} != {want:#018x?}");
    }
}
