//! Differential harness for the per-partition COO edge layout.
//!
//! The layout policy — a forced uniform [`EdgeOrder`] or the memsim-guided
//! advisor's per-partition mix — only permutes each partition's edge
//! storage order and, through it, the dense kernels' destination *visit*
//! order. Every destination's in-edge fold still walks its CSC slice in
//! CSC order, and the partitioned executor already runs destinations in
//! arbitrary temporal order under work stealing, so the promise is that
//! **the layout policy is invisible in results**: BFS, PR, CC and
//! Bellman-Ford outputs are bit-identical (PR exactly, not approximately)
//! across every policy × partition count × thread count, and the recorded
//! round traces — frontier digests included — agree round for round.
//! The fused kernels keep the ascending scan under every layout (their
//! sparse sink streams ascending pairs), which the fused BFS / PPR sweep
//! pins lane for lane against single-seed runs.

use graphgrind::algorithms::{self, fused_bfs, fused_ppr};
use graphgrind::bench::datasets::powerlaw_scenario;
use graphgrind::bench::replay::{record_algorithm, replay_algorithms};
use graphgrind::bench::runner::Workload;
use graphgrind::core::config::{Config, ExecutorKind, LayoutPolicy};
use graphgrind::core::engine::GraphGrind2;
use graphgrind::core::trace::first_divergence;
use graphgrind::graph::coo::PartitionedCoo;
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::graph::ops::symmetrize;
use graphgrind::graph::partition::{PartitionBy, PartitionSet};
use graphgrind::graph::reorder::EdgeOrder;
use graphgrind::graph::weights::attach_integer;
use graphgrind::runtime::numa::NumaTopology;

const PARTITIONS: [usize; 3] = [1, 2, 7];

/// Every layout policy the engine accepts: the three forced uniform
/// orders plus the advisor at a sample rate low enough to actually skip
/// edges on these graphs.
fn policies() -> [LayoutPolicy; 4] {
    [
        LayoutPolicy::Fixed(EdgeOrder::Source),
        LayoutPolicy::Fixed(EdgeOrder::Hilbert),
        LayoutPolicy::Fixed(EdgeOrder::Destination),
        LayoutPolicy::Advised { sample_rate: 0.5 },
    ]
}

const THREADS: [usize; 3] = [1, 2, 4];

/// Partitioned-executor configuration with exact partition counts (UMA
/// topology: no rounding) under an explicit layout policy.
fn config(partitions: usize, threads: usize, layout: LayoutPolicy) -> Config {
    Config {
        threads,
        num_partitions: partitions,
        numa: NumaTopology::new(1),
        executor: ExecutorKind::Partitioned,
        layout,
        ..Config::default()
    }
}

/// The sequential engine every configuration must match: one partition on
/// one thread under the default layout.
fn sequential(el: &EdgeList) -> GraphGrind2 {
    GraphGrind2::new(el, config(1, 1, LayoutPolicy::default()))
}

/// Deterministic graphs covering the regimes the layout must not disturb:
/// skewed (dense rounds, hub splitting) and a high-diameter grid (sparse
/// candidate slices).
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
fn bfs_bit_identical_across_layouts() {
    for (name, el) in graphs() {
        let seq = algorithms::bfs(&sequential(&el), 0);
        for layout in policies() {
            for p in PARTITIONS {
                for t in THREADS {
                    let got = algorithms::bfs(&GraphGrind2::new(&el, config(p, t, layout)), 0);
                    assert_eq!(got.level, seq.level, "{name} layout={layout:?} P={p} T={t}");
                    assert_eq!(
                        got.parent, seq.parent,
                        "{name} layout={layout:?} P={p} T={t}"
                    );
                    assert_eq!(
                        got.rounds, seq.rounds,
                        "{name} layout={layout:?} P={p} T={t}"
                    );
                }
            }
        }
    }
}

#[test]
fn pagerank_bit_identical_across_layouts() {
    for (name, el) in graphs() {
        let seq = algorithms::pagerank(&sequential(&el), 10);
        for layout in policies() {
            for p in PARTITIONS {
                for t in THREADS {
                    let got =
                        algorithms::pagerank(&GraphGrind2::new(&el, config(p, t, layout)), 10);
                    // The layout permutes destination *visit* order, but
                    // each destination's f64 fold still walks its CSC
                    // slice in CSC order — equality is exact.
                    assert_eq!(got, seq, "{name} layout={layout:?} P={p} T={t}");
                }
            }
        }
    }
}

#[test]
fn cc_labels_identical_across_layouts() {
    for (name, el) in graphs() {
        let el = symmetrize(&el);
        let want = algorithms::reference::cc_labels(&el);
        assert_eq!(algorithms::cc(&sequential(&el)).label, want, "{name}/seq");
        for layout in policies() {
            for p in PARTITIONS {
                for t in THREADS {
                    let got = algorithms::cc(&GraphGrind2::new(&el, config(p, t, layout)));
                    assert_eq!(got.label, want, "{name} layout={layout:?} P={p} T={t}");
                }
            }
        }
    }
}

#[test]
fn bellman_ford_identical_across_layouts() {
    for (name, el) in graphs() {
        let mut el = el;
        graphgrind::graph::weights::attach_integer(&mut el, 12, 0xBF);
        let seq = algorithms::bellman_ford(&sequential(&el), 0);
        for layout in policies() {
            for p in PARTITIONS {
                for t in THREADS {
                    let got =
                        algorithms::bellman_ford(&GraphGrind2::new(&el, config(p, t, layout)), 0);
                    assert_eq!(got.dist, seq.dist, "{name} layout={layout:?} P={p} T={t}");
                }
            }
        }
    }
}

/// Fused rounds share the scalar plan and chunks but not the visit
/// permutation; whichever order a layout implies, every lane of a fused
/// BFS equals the scalar BFS from its source and every lane of a fused PPR
/// is bitwise the single-seed run.
#[test]
fn fused_lanes_identical_across_layouts() {
    const SOURCES: [u32; 4] = [0, 3, 17, 99];
    for (name, el) in graphs() {
        let seq = sequential(&el);
        let bfs: Vec<Vec<u32>> = SOURCES
            .iter()
            .map(|&s| algorithms::bfs(&seq, s).level)
            .collect();
        let ppr: Vec<Vec<f64>> = SOURCES
            .iter()
            .map(|&s| fused_ppr(&seq, &[s], 0.15, 1e-4, 20).p.remove(0))
            .collect();
        for layout in policies() {
            for p in PARTITIONS {
                for t in THREADS {
                    let engine = GraphGrind2::new(&el, config(p, t, layout));
                    let what = format!("{name} layout={layout:?} P={p} T={t}");
                    assert_eq!(fused_bfs(&engine, &SOURCES).dist, bfs, "{what}");
                    assert_eq!(
                        fused_ppr(&engine, &SOURCES, 0.15, 1e-4, 20).p,
                        ppr,
                        "{what}"
                    );
                }
            }
        }
    }
}

/// The determinism contract covers layout decisions: traces recorded under
/// *different* layout policies still agree on every frontier digest, every
/// kernel choice and every output representation, round for round —
/// [`first_divergence`] only compares the per-step layout field when both
/// headers declare the same policy, so a cross-policy diff must come back
/// clean.
#[test]
fn round_traces_agree_across_layouts() {
    let el = generators::rmat(8, 3000, RmatParams::skewed(), 7);
    let threads = 2;
    for algo in replay_algorithms() {
        let w = Workload::prepare(&el, algo);
        let reference = record_algorithm(&w, &config(4, threads, LayoutPolicy::default()), "rmat");
        for layout in policies() {
            let trace = record_algorithm(&w, &config(4, threads, layout), "rmat");
            assert_eq!(trace.header.layout, layout.label());
            if let Some(d) = first_divergence(&reference, &trace) {
                panic!(
                    "{:?} under {layout:?} diverged from the default layout: {d:?}",
                    algo
                );
            }
        }
    }
}

/// Same-policy recordings are fully comparable, per-step layouts included:
/// the advisor is deterministic, so two advised recordings must agree on
/// every chosen per-partition layout.
#[test]
fn advised_traces_are_reproducible() {
    let el = generators::rmat(8, 3000, RmatParams::skewed(), 7);
    let layout = LayoutPolicy::Advised { sample_rate: 0.5 };
    let w = Workload::prepare(&el, graphgrind::algorithms::Algorithm::Pr);
    let a = record_algorithm(&w, &config(4, 2, layout), "rmat");
    let b = record_algorithm(&w, &config(4, 2, layout), "rmat");
    assert_eq!(a.header.layout, layout.label());
    assert_eq!(first_divergence(&a, &b), None);
}

/// FNV-1a over the built COO's four arrays: `srcs`, `dsts`, weight bits,
/// partition offsets.
fn coo_digest(coo: &PartitionedCoo) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    coo.coo().srcs().iter().for_each(|&u| eat(u64::from(u)));
    coo.coo().dsts().iter().for_each(|&v| eat(u64::from(v)));
    for &w in coo.coo().weights().unwrap_or(&[]) {
        eat(u64::from(w.to_bits()));
    }
    for p in 0..coo.num_partitions() {
        eat(coo.part_range(p).start as u64);
        eat(coo.part_range(p).end as u64);
    }
    h
}

/// The built COO is byte-identical to the one the comparator sort built.
/// The digests were computed at commit cb39243 — the last one whose
/// `PartitionedCoo::with_orders` ran `sort_unstable_by_key` over recomputed
/// keys — by this very function, on the benchmark's three graphs at its
/// smoke scale under its 16 edge-balanced destination partitions.
/// (`symmetrize` deduplicates, so the weighted graph has no ties for the
/// two sorts to break differently.)
#[test]
fn built_coo_matches_digests_recorded_before_the_radix_sort() {
    const GOLDEN: [(&str, EdgeOrder, u64); 9] = [
        ("powerlaw", EdgeOrder::Source, 0xf8c2f1c0e9220a27),
        ("powerlaw", EdgeOrder::Hilbert, 0xd1e201752a3be3af),
        ("powerlaw", EdgeOrder::Destination, 0x9f3a15dc7c8b87bb),
        ("grid-road", EdgeOrder::Source, 0xb1ff074f7a582c07),
        ("grid-road", EdgeOrder::Hilbert, 0x74d584d004da14e3),
        ("grid-road", EdgeOrder::Destination, 0x61524400625a5c47),
        ("rmat-sym", EdgeOrder::Source, 0x30a4af2272f07c89),
        ("rmat-sym", EdgeOrder::Hilbert, 0xd91a23025f14be99),
        ("rmat-sym", EdgeOrder::Destination, 0x8d0146b4ac00fe71),
    ];
    let mut rmat = symmetrize(&generators::rmat(10, 6_000, RmatParams::skewed(), 7));
    attach_integer(&mut rmat, 16, 7);
    let graphs = [
        ("powerlaw", powerlaw_scenario(0.1, 2.0, 16, 7)),
        ("grid-road", generators::grid_road(40, 40, 0.05, 7)),
        ("rmat-sym", rmat),
    ];
    for (name, order, want) in GOLDEN {
        let el = &graphs.iter().find(|(g, _)| *g == name).unwrap().1;
        let set = PartitionSet::edge_balanced(&el.in_degrees(), 16, PartitionBy::Destination);
        let got = coo_digest(&PartitionedCoo::new(el, &set, order));
        assert_eq!(got, want, "{name} {order:?}: {got:#018x} != {want:#018x}");
    }
}
