//! Operator panics mid-epoch must not poison the engine.
//!
//! Every partitioned edge map — scalar or fused, exclusive or associative —
//! runs through one driver, so the unhappy path is one parameterised test:
//! for each kernel on each lane word, an operator that panics while a
//! chunk task **pulls** a chosen destination, and one that panics inside a
//! split hub's **sub-chunk collection**, at one worker and at four. The
//! panic must surface on the caller (never wedge the crew), and afterwards
//! the *same* engine must run clean traversals bit-identical to a fresh
//! engine's, with its dense-merge buffer pool still recycling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use graphgrind::algorithms::{self, fused_bfs, fused_ppr};
use graphgrind::core::config::{ChunkCap, Config, ExecutorKind};
use graphgrind::core::edge_map::{EdgeMapReduce, EdgeOp};
use graphgrind::core::engine::{EdgeMapSpec, Engine, GraphGrind2};
use graphgrind::core::fused::{MultiSourceOp, MultiSourceReduce};
use graphgrind::graph::edge_list::EdgeList;

const N: u32 = 200;
/// In-degree `N - 1`: split into sub-chunks under [`CAP`], so the chunk
/// tasks only ever *collect* its in-edges.
const HUB: u32 = 0;
/// In-degree 2: pulled whole by one chunk task.
const PLAIN: u32 = 7;
const CAP: usize = 16;
/// Fused seeds: `6 → PLAIN` and every seed `→ HUB` are first-round edges.
const SEEDS: [u32; 3] = [1, 6, 9];

/// A star into [`HUB`], a ring, and spokes back out of the hub.
fn graph() -> EdgeList {
    let mut el = EdgeList::new(N as usize);
    for v in 1..N {
        el.push(v, HUB);
        el.push(v, v % (N - 1) + 1);
        if v % 10 == 7 {
            el.push(HUB, v);
        }
    }
    el
}

fn engine(threads: usize) -> GraphGrind2 {
    let config = Config {
        threads,
        num_partitions: 4,
        domains: 1,
        executor: ExecutorKind::Partitioned,
        chunk_edges: ChunkCap::Fixed(CAP),
        ..Config::default()
    };
    GraphGrind2::new(&graph(), config)
}

/// Where the test operator panics.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Applying an update to this destination — inside `pull` for a
    /// destination whose scan is not split.
    Apply(u32),
    /// Asking this destination's `cond` — the first operator call of a
    /// split hub's `collect_hub`.
    Cond(u32),
}

/// One operator for every kernel and lane word: claim-once lane
/// visitation (scalar runs use lane 0) that panics where `fault` says.
struct Faulty {
    visited: Vec<AtomicU64>,
    fault: Fault,
}

impl Faulty {
    fn new(fault: Fault) -> Self {
        Faulty {
            visited: (0..N).map(|_| AtomicU64::new(0)).collect(),
            fault,
        }
    }

    fn claim(&self, dst: u32, lanes: u64) -> u64 {
        if matches!(self.fault, Fault::Apply(d) if d == dst) {
            panic!("injected fault: apply at {dst}");
        }
        lanes & !self.visited[dst as usize].fetch_or(lanes, Ordering::Relaxed)
    }

    fn open(&self, dst: u32) -> u64 {
        if matches!(self.fault, Fault::Cond(d) if d == dst) {
            panic!("injected fault: cond at {dst}");
        }
        !self.visited[dst as usize].load(Ordering::Relaxed)
    }
}

impl EdgeOp for Faulty {
    fn update(&self, _src: u32, dst: u32, _w: f32) -> bool {
        self.claim(dst, 1) != 0
    }
    fn update_atomic(&self, _src: u32, dst: u32, _w: f32) -> bool {
        self.claim(dst, 1) != 0
    }
    fn cond(&self, dst: u32) -> bool {
        self.open(dst) & 1 != 0
    }
}

impl EdgeMapReduce for Faulty {
    fn identity(&self) -> f64 {
        0.0
    }
    fn accumulate(&self, acc: f64, _src: u32, _w: f32) -> f64 {
        acc + 1.0
    }
    fn apply(&self, dst: u32, _acc: f64) -> bool {
        self.claim(dst, 1) != 0
    }
}

impl MultiSourceOp for Faulty {
    fn update(&self, _src: u32, dst: u32, _w: f32, src_lanes: u64) -> u64 {
        self.claim(dst, src_lanes)
    }
    fn cond(&self, dst: u32) -> u64 {
        self.open(dst)
    }
}

impl MultiSourceReduce for Faulty {
    type Acc = u64;
    fn identity(&self) -> u64 {
        0
    }
    fn accumulate(&self, acc: &mut u64, _src: u32, _w: f32, src_lanes: u64) {
        *acc |= src_lanes;
    }
    fn apply(&self, dst: u32, acc: &u64) -> u64 {
        self.claim(dst, *acc)
    }
}

/// One faulty edge map per kernel and lane word of the partitioned driver.
type FaultyMap = fn(&GraphGrind2, &Faulty);

const KERNELS: [(&str, FaultyMap); 4] = [
    ("Exclusive<bool>", |engine, op| {
        engine.edge_map(&engine.frontier_all(), op, EdgeMapSpec::vertex_oriented());
    }),
    ("Quantum<bool>", |engine, op| {
        engine.edge_map_reduce(&engine.frontier_all(), op, EdgeMapSpec::edge_oriented());
    }),
    ("Exclusive<u64>", |engine, op| {
        engine.fused_edge_map(&engine.fused_frontier(&SEEDS), op);
    }),
    ("Quantum<u64>", |engine, op| {
        engine.fused_edge_map_reduce(&engine.fused_frontier(&SEEDS), op);
    }),
];

/// One clean traversal per kernel, f64 results as bits.
#[derive(Debug, PartialEq)]
struct CleanResults {
    bfs: Vec<u32>,
    pagerank: Vec<u64>,
    fused_bfs: Vec<Vec<u32>>,
    fused_ppr: Vec<Vec<u64>>,
}

fn clean_results(engine: &GraphGrind2) -> CleanResults {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let ppr = fused_ppr(engine, &SEEDS, 0.15, 1e-4, 20);
    CleanResults {
        bfs: algorithms::bfs(engine, 1).level,
        pagerank: bits(&algorithms::pagerank(engine, 5)),
        fused_bfs: fused_bfs(engine, &SEEDS).dist,
        fused_ppr: ppr.p.iter().map(|lane| bits(lane)).collect(),
    }
}

#[test]
fn engine_survives_an_operator_panic_in_every_kernel() {
    for threads in [1, 4] {
        let fresh = engine(threads);
        let want = clean_results(&fresh);
        for (kernel, faulty_map) in KERNELS {
            for fault in [Fault::Apply(PLAIN), Fault::Cond(HUB)] {
                let what = format!("{kernel} {fault:?} T={threads}");
                let engine = engine(threads);
                let op = Faulty::new(fault);
                let outcome = catch_unwind(AssertUnwindSafe(|| faulty_map(&engine, &op)));
                assert!(outcome.is_err(), "{what}: the fault must reach the caller");
                let counters = engine.work_counters();
                assert!(counters.hub_subchunks() > 0, "{what}: the hub must split");

                assert_eq!(
                    clean_results(&engine),
                    want,
                    "{what}: results after the panic"
                );
                let (scratch, reference) = (engine.merge_scratch(), fresh.merge_scratch());
                assert!(scratch.recycled() > 0, "{what}: merge buffers must recycle");
                assert!(
                    scratch.allocated() <= reference.allocated() + 1,
                    "{what}: at most the one buffer in flight at the panic is lost"
                );
            }
        }
    }
}
