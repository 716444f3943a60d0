//! Degenerate-input hardening: empty graphs, single vertices, self-loops,
//! duplicate edges and all-isolated graphs must flow through every layer
//! (layouts, partitioning, engines, algorithms) without panicking and with
//! sensible results.

use graphgrind::algorithms::{self, fused_bfs, fused_ppr, BpParams, PrDeltaParams};
use graphgrind::baselines::Baseline;
use graphgrind::core::config::{ChunkCap, ExecutorKind};
use graphgrind::core::{Config, Engine, GraphGrind2};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators;

fn tiny_config() -> Config {
    Config {
        threads: 2,
        num_partitions: 4,
        domains: 2,
        ..Config::default()
    }
}

#[test]
fn edgeless_graph_runs_everything() {
    let el = EdgeList::new(10);
    let engine = GraphGrind2::new(&el, tiny_config());
    assert_eq!(engine.num_edges(), 0);

    let bfs = algorithms::bfs(&engine, 3);
    assert_eq!(bfs.level[3], 0);
    assert!(bfs
        .level
        .iter()
        .enumerate()
        .all(|(v, &l)| (v == 3) == (l == 0)));

    let cc = algorithms::cc(&engine);
    assert_eq!(cc.num_components(), 10);

    let pr = algorithms::pagerank(&engine, 3);
    assert!(pr.iter().all(|&r| (r - 0.15 / 10.0).abs() < 1e-12));

    let bf = algorithms::bellman_ford(&engine, 0);
    assert_eq!(bf.dist[0], 0.0);
    assert!(bf.dist[1..].iter().all(|d| d.is_infinite()));

    let spmv = algorithms::spmv(&engine, &[1.0; 10]);
    assert_eq!(spmv, vec![0.0; 10]);

    // An edgeless graph is its own transpose.
    let bc = algorithms::bc(&engine, &engine, 3);
    assert!(bc.dependency.iter().all(|&d| d == 0.0));
    assert!(bc
        .level
        .iter()
        .enumerate()
        .all(|(v, &l)| l == if v == 3 { 0 } else { u32::MAX }));
    assert_eq!(bc.sigma[3], 1.0);
}

#[test]
fn single_vertex_graph() {
    let el = EdgeList::new(1);
    let engine = GraphGrind2::new(&el, tiny_config());
    assert_eq!(algorithms::bfs(&engine, 0).level, vec![0]);
    assert_eq!(algorithms::cc(&engine).label, vec![0]);
    // An edgeless graph is its own transpose.
    let bc = algorithms::bc(&engine, &engine, 0);
    assert_eq!(bc.dependency, vec![0.0]);
    assert_eq!(bc.sigma, vec![1.0]);
    assert_eq!(bc.level, vec![0]);
}

#[test]
fn self_loops_do_not_break_traversal() {
    // Every vertex has a self-loop plus a cycle edge.
    let mut el = EdgeList::new(6);
    for v in 0..6u32 {
        el.push(v, v);
        el.push(v, (v + 1) % 6);
    }
    let engine = GraphGrind2::new(&el, tiny_config());
    let bfs = algorithms::bfs(&engine, 0);
    assert_eq!(bfs.level, vec![0, 1, 2, 3, 4, 5]);
    let cc = algorithms::cc(&engine);
    assert!(cc.label.iter().all(|&l| l == 0));
}

#[test]
fn duplicate_edges_accumulate_in_weighted_ops() {
    // Two parallel edges 0 -> 1: SPMV must count both.
    let el = EdgeList::from_weighted_edges(2, &[(0, 1, 2.0), (0, 1, 3.0)]);
    let engine = GraphGrind2::new(&el, tiny_config());
    let y = algorithms::spmv(&engine, &[10.0, 0.0]);
    assert_eq!(y, vec![0.0, 50.0]);
}

#[test]
fn all_vertices_isolated_except_two() {
    let mut el = EdgeList::new(1000);
    el.push(0, 999);
    el.push(999, 0);
    let engine = GraphGrind2::new(&el, tiny_config());
    let bfs = algorithms::bfs(&engine, 0);
    assert_eq!(bfs.level[999], 1);
    assert_eq!(bfs.level[500], u32::MAX);
    let cc = algorithms::cc(&engine);
    assert_eq!(cc.num_components(), 999);
}

#[test]
fn source_with_no_out_edges() {
    let el = EdgeList::from_edges(3, &[(0, 1), (1, 2)]);
    let engine = GraphGrind2::new(&el, tiny_config());
    // Vertex 2 has no out-edges: BFS from it reaches only itself.
    let bfs = algorithms::bfs(&engine, 2);
    assert_eq!(bfs.level, vec![u32::MAX, u32::MAX, 0]);
    let bf = algorithms::bellman_ford(&engine, 2);
    assert!(bf.dist[0].is_infinite() && bf.dist[1].is_infinite());
}

#[test]
fn massive_partition_count_on_tiny_graph() {
    // More partitions than vertices: ranges degenerate but must stay valid.
    let el = generators::cycle(5);
    let cfg = Config {
        num_partitions: 64,
        ..tiny_config()
    };
    let engine = GraphGrind2::new(&el, cfg);
    let pr = algorithms::pagerank(&engine, 5);
    let want = algorithms::reference::pagerank(&el, 5);
    algorithms::validate::assert_close_f64(&pr, &want, 1e-12, 1e-15);
}

#[test]
fn prdelta_and_bp_on_degenerate_graphs() {
    let el = EdgeList::new(4);
    let engine = GraphGrind2::new(&el, tiny_config());
    let prd = algorithms::pagerank_delta(&engine, PrDeltaParams::default());
    assert_eq!(prd.rank.len(), 4);
    let bp = algorithms::bp(&engine, &[0.1, -0.1, 0.0, 0.5], BpParams::default());
    assert_eq!(bp, vec![0.1, -0.1, 0.0, 0.5]);
}

#[test]
fn baselines_handle_empty_frontier_chains() {
    let el = EdgeList::from_edges(4, &[(0, 1)]);
    let ligra = Baseline::ligra(&el, 2);
    let bfs = algorithms::bfs(&ligra, 1);
    assert_eq!(bfs.level, vec![u32::MAX, 0, u32::MAX, u32::MAX]);
}

#[test]
fn weighted_graph_through_all_layouts() {
    use graphgrind::core::ForcedKernel;
    let mut el = generators::erdos_renyi(80, 800, 77);
    graphgrind::graph::weights::attach_integer(&mut el, 5, 3);
    let reference = algorithms::bellman_ford(&GraphGrind2::new(&el, tiny_config()), 0).dist;
    for force in [
        ForcedKernel::CsrAtomic,
        ForcedKernel::CscNoAtomic,
        ForcedKernel::CooAtomic,
        ForcedKernel::CooNoAtomic,
    ] {
        let cfg = tiny_config().with_forced(force);
        let got = algorithms::bellman_ford(&GraphGrind2::new(&el, cfg), 0).dist;
        assert_eq!(got, reference, "{force:?}");
    }
}

/// Every degenerate graph through both kernels of the partitioned driver
/// on both lane words — scalar BFS (`Exclusive`) and PageRank (`Quantum`)
/// on `bool`, fused BFS and fused PPR on `u64` — at per-vertex,
/// adaptive and unbounded chunk caps. Per-vertex chunks split every
/// destination with two or more in-edges into hub sub-chunks, so the
/// collect/resolve halves of each kernel run too.
#[test]
fn degenerate_graphs_through_every_partitioned_kernel() {
    let mut self_loops = EdgeList::new(6);
    let mut hub = EdgeList::new(41);
    for v in 0..6u32 {
        self_loops.push(v, v);
    }
    for s in 1..41u32 {
        hub.push(s, 0);
    }
    hub.push(0, 1);
    let duplicates = EdgeList::from_edges(3, &[(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)]);
    // (name, graph, partitions); the hub's in-degree (40) exceeds |E| / P.
    let cases = [
        ("no vertices", EdgeList::new(0), 4),
        ("one vertex", EdgeList::new(1), 4),
        ("all self-loops", self_loops, 4),
        ("duplicate edges", duplicates, 2),
        ("partitions > vertices", generators::cycle(5), 64),
        ("one hub", hub, 4),
    ];
    let partitioned = |partitions: usize, chunk_edges: ChunkCap| Config {
        num_partitions: partitions,
        executor: ExecutorKind::Partitioned,
        chunk_edges,
        ..tiny_config()
    };
    for (name, el, partitions) in cases {
        let sources: Vec<u32> = (0..el.num_vertices().min(3) as u32).collect();
        let want_bfs: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| algorithms::reference::bfs_levels(&el, s))
            .collect();
        let want_pr = algorithms::reference::pagerank(&el, 5);
        // Fused PPR's per-lane oracle: the same seed alone, unchunked.
        let solo = GraphGrind2::new(&el, partitioned(1, ChunkCap::Fixed(usize::MAX)));
        let want_ppr: Vec<Vec<f64>> = sources
            .iter()
            .map(|&s| fused_ppr(&solo, &[s], 0.15, 1e-4, 20).p.remove(0))
            .collect();
        for cap in [
            ChunkCap::Fixed(1),
            ChunkCap::Auto,
            ChunkCap::Fixed(usize::MAX),
        ] {
            let engine = GraphGrind2::new(&el, partitioned(partitions, cap));
            for (k, &s) in sources.iter().enumerate() {
                let got = algorithms::bfs(&engine, s);
                assert_eq!(got.level, want_bfs[k], "{name} {cap:?} bfs from {s}");
            }
            let pr = algorithms::pagerank(&engine, 5);
            algorithms::validate::assert_close_f64(&pr, &want_pr, 1e-12, 1e-15);
            let fused = fused_bfs(&engine, &sources);
            assert_eq!(fused.dist, want_bfs, "{name} {cap:?} fused bfs");
            let ppr = fused_ppr(&engine, &sources, 0.15, 1e-4, 20);
            assert_eq!(ppr.p, want_ppr, "{name} {cap:?} fused ppr");
        }
    }
}
