//! The bit-identity contract, checked in one place.
//!
//! Partitioning by destination, dropping atomics, chunking, the output
//! representation and the edge layout are performance choices: they never
//! change results (§III.C, §IV.C). This file holds the engine to that with
//! one harness:
//!
//! * one [`lattice`] of partitioned configurations (partitions × threads ×
//!   chunk cap × output mode, UMA topology so partition counts are used
//!   verbatim), a proptest sampling the same axes' full ranges above it,
//!   and [`monolithic_points`] for the paper's own three-layout path, the
//!   only one that streams the COO and so the one the edge order is
//!   varied on;
//! * one [`Row`] per algorithm, run on its graph families, its root result
//!   checked once against `reference::*` and on Ligra, Polymer,
//!   GraphGrind-v1 and GraphGrind-v2;
//! * one comparison, [`Case`]: a round trace recorded per (partitions,
//!   output mode) at one thread and unbounded chunks, every lattice point
//!   replayed against its recording through `first_divergence`, then its
//!   results compared word for word with the root's. A broken contract
//!   reads `"bfs/grid-road @ P=7 T=4 cap=1 out=ForceDense: round 7:
//!   frontier_hash expected 0x…, got 0x…"`. The oracle-only rows are not
//!   swept; their output modes meet at one point instead
//!   ([`Case::check_output_modes`]).
//!
//! Assertions that are not a comparison between configurations are the
//! named tests after the rows.

#![recursion_limit = "256"]

use std::fmt;

use proptest::prelude::*;

use graphgrind::algorithms::{
    self, fused_bfs, fused_ppr, fused_reachability, reference, BpParams, FusedBfsRun, FusedPprRun,
    PrDeltaParams,
};
use graphgrind::baselines::Baseline;
use graphgrind::bench::datasets::powerlaw_scenario;
use graphgrind::bench::replay::fused_sources;
use graphgrind::core::config::{ChunkCap, Config, ExecutorKind, OutputMode, PAPER_DOMAINS};
use graphgrind::core::engine::{Engine, GraphGrind2};
use graphgrind::core::trace::{first_divergence, RoundTrace, TraceHeader};
use graphgrind::core::{ForcedKernel, Thresholds};
use graphgrind::graph::coo::PartitionedCoo;
use graphgrind::graph::csr::{Csr, PartitionedCsr};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::graph::ops::{symmetrize, transpose};
use graphgrind::graph::partition::{PartitionBy, PartitionSet};
use graphgrind::graph::reorder::EdgeOrder;
use graphgrind::graph::weights;
use graphgrind::runtime::pool::Pool;

// The configuration lattice

const PARTITIONS: [usize; 3] = [1, 2, 7];
const THREADS: [usize; 3] = [1, 2, 4];
const CAPS: [ChunkCap; 4] = [
    ChunkCap::Fixed(1),
    ChunkCap::Fixed(64),
    ChunkCap::Auto,
    ChunkCap::Fixed(usize::MAX),
];
const OUTPUTS: [OutputMode; 3] = [
    OutputMode::Auto,
    OutputMode::ForceSparse,
    OutputMode::ForceDense,
];

/// How often BFS and PageRank on rmat-skewed replay at each stress point.
const STRESS_REPEATS: usize = 10;

/// One partitioned configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    partitions: usize,
    threads: usize,
    cap: ChunkCap,
    output: OutputMode,
}

impl Point {
    /// A lattice point: default output mode.
    fn new(partitions: usize, threads: usize, cap: ChunkCap) -> Self {
        Point {
            partitions,
            threads,
            cap,
            output: OutputMode::Auto,
        }
    }

    /// The point this one replays against: the same partitions and output
    /// mode at one thread and one chunk per partition.
    fn recording(&self) -> Self {
        Point {
            threads: 1,
            cap: ChunkCap::Fixed(usize::MAX),
            ..*self
        }
    }

    fn config(&self) -> Config {
        partitioned(self.partitions, self.threads)
            .with_output_mode(self.output)
            .with_chunk_edges(self.cap)
    }

    /// The lattice's widest pool on per-vertex chunks: claim order varies
    /// most between repeats here.
    fn is_stress(&self) -> bool {
        (self.partitions, self.threads, self.cap) == (7, 4, ChunkCap::Fixed(1))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={} T={} cap={} out={:?}",
            self.partitions,
            self.threads,
            cap_label(self.cap),
            self.output
        )
    }
}

fn cap_label(cap: ChunkCap) -> String {
    match cap {
        ChunkCap::Auto => "auto".to_string(),
        ChunkCap::Fixed(usize::MAX) => "max".to_string(),
        ChunkCap::Fixed(n) => n.to_string(),
    }
}

/// The partitioned executor on a UMA topology (no partition rounding) with
/// every other knob at its default.
fn partitioned(partitions: usize, threads: usize) -> Config {
    Config {
        threads,
        num_partitions: partitions,
        domains: 1,
        executor: ExecutorKind::Partitioned,
        ..Config::default()
    }
}

/// The maximally sequential point every other is compared with.
fn root() -> Point {
    Point::new(1, 1, ChunkCap::Fixed(usize::MAX))
}

/// The configuration of [`root`].
fn sequential() -> Config {
    root().config()
}

/// 36 points: every (partitions, threads) pair × 4 points. The four points
/// of pair `i` take every cap once and the output modes rotated by `i`, so
/// each pair meets every cap and output mode, and the pairs between them
/// cross the axes.
fn lattice() -> Vec<Point> {
    let pairs = PARTITIONS.iter().flat_map(|&p| THREADS.map(|t| (p, t)));
    let mut points = Vec::new();
    for (i, (partitions, threads)) in pairs.enumerate() {
        for (j, cap) in CAPS.into_iter().enumerate() {
            points.push(Point {
                output: OUTPUTS[(i + j) % OUTPUTS.len()],
                ..Point::new(partitions, threads, cap)
            });
        }
    }
    points
}

/// The stress points: the lattice's widest pool on per-vertex chunks, and
/// a machine-sized pool over 16 partitions under the adaptive cap.
fn stress_points() -> [Point; 2] {
    let widest = lattice().into_iter().find(Point::is_stress);
    let machine = Point::new(16, Pool::machine_sized().threads(), ChunkCap::Auto);
    [widest.expect("the lattice holds the stress point"), machine]
}

/// The first repeated point, or the first (partitions, threads, x) triple
/// `points` misses for x a cap or an output mode.
fn uncovered(points: &[Point]) -> Option<String> {
    if let Some(i) = (0..points.len()).find(|&i| points[..i].contains(&points[i])) {
        return Some(format!("{} repeats", points[i]));
    }
    for p in PARTITIONS {
        for t in THREADS {
            let at: Vec<&Point> = points
                .iter()
                .filter(|q| (q.partitions, q.threads) == (p, t))
                .collect();
            if let Some(&c) = CAPS.iter().find(|&&c| !at.iter().any(|q| q.cap == c)) {
                return Some(format!("no point at P={p} T={t} cap={}", cap_label(c)));
            }
            if let Some(o) = OUTPUTS.iter().find(|&&o| !at.iter().any(|q| q.output == o)) {
                return Some(format!("no point at P={p} T={t} out={o:?}"));
            }
        }
    }
    None
}

/// The monolithic path's knobs, each compared with the monolithic base
/// `Config::for_tests()` (2 threads, 8 partitions, 2 domains): partition
/// count, edge order, the four forced kernels, degenerate
/// thresholds and thread count. Floats compare to the tolerance the knob's
/// reordering of additions allows.
fn monolithic_points() -> Vec<(String, Config, (f64, f64))> {
    let base = Config::for_tests;
    let reordered = (1e-9, 1e-14);
    let mut points = Vec::new();
    for p in [2, 4, 32, 128, 512] {
        points.push((
            format!("monolithic P={p}"),
            base().with_partitions(p),
            (1e-12, 1e-16),
        ));
    }
    for order in [
        EdgeOrder::Source,
        EdgeOrder::Destination,
        EdgeOrder::Hilbert,
    ] {
        let config = base().with_edge_order(order);
        points.push((format!("monolithic order={order:?}"), config, reordered));
    }
    for force in [
        ForcedKernel::CsrAtomic,
        ForcedKernel::CscNoAtomic,
        ForcedKernel::CooAtomic,
        ForcedKernel::CooNoAtomic,
    ] {
        let config = base().with_forced(force);
        points.push((format!("monolithic force={force:?}"), config, reordered));
    }
    for (dense_divisor, sparse_divisor) in [(1, 1), (u64::MAX, u64::MAX), (2, 2)] {
        let config = Config {
            thresholds: Thresholds {
                dense_divisor,
                sparse_divisor,
            },
            ..base()
        };
        let label = format!("monolithic divisors=({dense_divisor},{sparse_divisor})");
        points.push((label, config, reordered));
    }
    for t in [1, 3, 8] {
        points.push((
            format!("monolithic T={t}"),
            base().with_threads(t),
            reordered,
        ));
    }
    points
}

// Rows: what runs, on which graphs, against which oracle

const SOURCES: [u32; 5] = [0, 3, 17, 64, 99];
const PPR_SOURCES: [u32; 3] = [0, 17, 99];
const PPR: (f64, f64, usize) = (0.15, 1e-4, 40);
const PRDELTA_EXACT: PrDeltaParams = PrDeltaParams {
    epsilon: 0.0,
    max_rounds: 10,
};

/// Declares the rows. Each is a `Row` variant and a module of the name it
/// prints as, holding one test per graph family (`Row::check_family`) and
/// one per whole-row check (the `Row` method of that name), so
/// `cargo test --test contract pr` selects a row and `bfs::grid_road` one
/// of its graphs.
macro_rules! rows {
    ($($row:ident => $test:ident [$($family:ident),*] [$($check:ident),*]),* $(,)?) => {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Row {
            $($row),*
        }

        impl fmt::Display for Row {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $(Row::$row => stringify!($test)),*
                })
            }
        }

        impl Row {
            /// The row's graph families: the ones some suite ran the
            /// algorithm on, rmat-skewed first.
            fn families(self) -> &'static [&'static str] {
                match self {
                    $(Row::$row => &[$(stringify!($family)),*]),*
                }
            }
        }

        $(
            mod $test {
                use super::*;

                $(
                    #[test]
                    fn $family() {
                        Row::$row.check_family(stringify!($family));
                    }
                )*

                $(
                    #[test]
                    fn $check() {
                        Row::$row.$check();
                    }
                )*
            }
        )*
    };
}

rows! {
    Bfs => bfs
        [rmat_skewed, grid_road, binary_tree, density_skewed, small_world]
        [engines, monolithic, stress],
    Pr => pr [rmat_skewed, grid_road, binary_tree, density_skewed] [engines, monolithic, stress],
    Cc => cc [rmat_skewed, grid_road, binary_tree, density_skewed] [engines, monolithic],
    Bf => bf [rmat_skewed, grid_road, binary_tree, small_world] [engines, monolithic],
    Bc => bc [rmat_skewed, grid_road, binary_tree, density_skewed] [engines, monolithic],
    FusedBfs => fused_bfs_lanes [rmat_skewed, grid_road] [],
    FusedReach => fused_reachability_lanes [rmat_skewed, grid_road] [],
    FusedPpr => fused_ppr_lanes [rmat_skewed, grid_road] [],
    Spmv => spmv
        [rmat_skewed, grid_road, binary_tree, density_skewed, small_world]
        [engines, monolithic],
    Bp => bp
        [rmat_skewed, grid_road, binary_tree, density_skewed, small_world]
        [engines, monolithic],
    PrDelta => prdelta_exact
        [rmat_skewed, grid_road, binary_tree, density_skewed, small_world]
        [engines, monolithic],
}

/// The larger graphs the four engines are also compared on.
const ENGINE_GRAPHS: [&str; 4] = [
    "rmat_skewed_512",
    "erdos_renyi",
    "grid_road_18",
    "binary_tree_255",
];

/// The graph the monolithic points run on: 1024 vertices, so even 512
/// partitions average two vertices each.
const MONOLITHIC_GRAPH: &str = "rmat_skewed_1024";

/// A graph family by its test name; it prints hyphenated.
fn family(name: &str) -> (String, EdgeList) {
    let skewed = RmatParams::skewed();
    let el = match name {
        "rmat_skewed" => generators::rmat(8, 3000, skewed, 7),
        "grid_road" => generators::grid_road(12, 12, 0.1, 9),
        "binary_tree" => generators::binary_tree(127),
        "density_skewed" => density_skewed(64),
        "small_world" => generators::small_world(300, 4, 0.1, 3),
        "rmat_skewed_512" => generators::rmat(9, 5000, skewed, 101),
        "erdos_renyi" => generators::erdos_renyi(400, 4000, 102),
        "grid_road_18" => generators::grid_road(18, 18, 0.1, 103),
        "binary_tree_255" => generators::binary_tree(255),
        "rmat_prdelta" => generators::rmat(9, 5000, skewed, 104),
        "rmat_skewed_1024" => generators::rmat(10, 9000, skewed, 2024),
        _ => unreachable!("no graph family {name}"),
    };
    (name.replace('_', "-"), el)
}

impl Row {
    /// Checked against its oracle on every engine; not swept, but its two
    /// forced output modes are compared at one point.
    fn oracle_only(self) -> bool {
        matches!(self, Row::Spmv | Row::Bp | Row::PrDelta)
    }

    /// The graphs the four engines agree on: the row's families, the
    /// [`ENGINE_GRAPHS`], and for PRDelta's exact mode one more R-MAT.
    fn engine_families(self) -> Vec<&'static str> {
        let mut names = self.families().to_vec();
        names.extend(ENGINE_GRAPHS);
        if self == Row::PrDelta {
            names.push("rmat_prdelta");
        }
        names
    }

    fn prepare(self, mut el: EdgeList) -> Graph {
        let mut transposed = None;
        match self {
            Row::Cc => el = symmetrize(&el),
            Row::Bf => weights::attach_integer(&mut el, 12, 0xBF),
            Row::Spmv => weights::attach_uniform(&mut el, 0.1, 2.0, 56),
            Row::Bc => transposed = Some(transpose(&el)),
            _ => {}
        }
        Graph { el, transposed }
    }
}

/// A row's input: the graph, and its transpose for BC's backward phase.
struct Graph {
    el: EdgeList,
    transposed: Option<EdgeList>,
}

/// Reciprocals, so no in-edge sum is exact in `f64`: a kernel that adds
/// in another order changes low bits of `y`.
fn spmv_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (i + 1) as f64).collect()
}

fn bp_priors(n: usize) -> Vec<f64> {
    algorithms::bp::random_priors(n, 57)
}

/// The rounds every engine's `cc` takes: synchronous label propagation,
/// each round lowering every vertex to the least round-start label among
/// its in-neighbours active that round (every vertex in the first round,
/// then the vertices the round before lowered), ending after the first
/// round that lowers nothing. A kernel that stops a destination's scan
/// before its minimum arrives leaves a label high and takes more rounds.
fn cc_rounds(el: &EdgeList) -> u32 {
    let mut label: Vec<u32> = (0..el.num_vertices() as u32).collect();
    let mut active = vec![true; label.len()];
    let mut rounds = 0;
    while active.contains(&true) {
        let prev = label.clone();
        let mut lowered = vec![false; label.len()];
        for (u, v) in el.iter() {
            let (u, v) = (u as usize, v as usize);
            if active[u] && prev[u] < label[v] {
                label[v] = prev[u];
                lowered[v] = true;
            }
        }
        active = lowered;
        rounds += 1;
    }
    rounds
}

/// One named result vector: integers as words, floats as the bits of
/// their (lossless) `f64` value.
struct Field {
    name: &'static str,
    float: bool,
    words: Vec<u64>,
    /// Depends on the order updates land (BFS parents): pinned across
    /// partitioned points, not across executors.
    order_sensitive: bool,
}

impl Field {
    fn new(name: &'static str, float: bool, words: Vec<u64>) -> Self {
        Field {
            name,
            float,
            words,
            order_sensitive: false,
        }
    }

    fn ints(name: &'static str, v: Vec<u32>) -> Self {
        Field::new(name, false, v.into_iter().map(u64::from).collect())
    }

    fn floats<T: Copy + Into<f64>>(name: &'static str, v: &[T]) -> Self {
        Field::new(name, true, v.iter().map(|&x| x.into().to_bits()).collect())
    }

    fn show(&self, w: u64) -> String {
        if self.float {
            format!("{:?} ({w:#018x})", f64::from_bits(w))
        } else {
            w.to_string()
        }
    }
}

/// The first entry where `got` departs from `want`, over `want`'s fields.
/// With a tolerance `(rtol, atol)` floats may differ by
/// `atol + rtol·|want|` and order-sensitive fields are skipped; without
/// one every word must match.
fn diff(want: &[Field], got: &[Field], tol: Option<(f64, f64)>) -> Option<String> {
    for w in want {
        if tol.is_some() && w.order_sensitive {
            continue;
        }
        let g = got
            .iter()
            .find(|g| g.name == w.name)
            .expect("outcomes carry the same fields");
        if w.words.len() != g.words.len() {
            return Some(format!(
                "{} has {} entries, expected {}",
                w.name,
                g.words.len(),
                w.words.len()
            ));
        }
        for (i, (&x, &y)) in w.words.iter().zip(&g.words).enumerate() {
            let same = x == y
                || match tol {
                    Some((rtol, atol)) if w.float => {
                        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                        (x - y).abs() <= atol + rtol * x.abs()
                    }
                    _ => false,
                };
            if !same {
                return Some(format!(
                    "{}[{i}] expected {}, got {}",
                    w.name,
                    w.show(x),
                    w.show(y)
                ));
            }
        }
    }
    None
}

/// Runs a scalar row on any engine (BC's backward phase on `bwd`).
fn scalar<E: Engine>(row: Row, fwd: &E, bwd: Option<&E>) -> Vec<Field> {
    let n = fwd.num_vertices();
    match row {
        Row::Bfs => {
            let r = algorithms::bfs(fwd, 0);
            let mut parent = Field::ints("parent", r.parent);
            parent.order_sensitive = true;
            vec![Field::ints("level", r.level), parent]
        }
        Row::Pr => vec![Field::floats("rank", &algorithms::pagerank(fwd, 10))],
        Row::Cc => {
            let r = algorithms::cc(fwd);
            vec![
                Field::ints("label", r.label),
                Field::ints("rounds", vec![r.rounds as u32]),
            ]
        }
        Row::Bf => vec![Field::floats(
            "dist",
            &algorithms::bellman_ford(fwd, 0).dist,
        )],
        Row::Bc => {
            let r = algorithms::bc(fwd, bwd.expect("BC runs on the transpose too"), 0);
            vec![
                Field::ints("level", r.level),
                Field::floats("sigma", &r.sigma),
                Field::floats("dependency", &r.dependency),
            ]
        }
        Row::Spmv => vec![Field::floats("y", &algorithms::spmv(fwd, &spmv_input(n)))],
        Row::Bp => {
            let belief = algorithms::bp(fwd, &bp_priors(n), BpParams::default());
            vec![Field::floats("belief", &belief)]
        }
        Row::PrDelta => {
            let rank = algorithms::pagerank_delta(fwd, PRDELTA_EXACT).rank;
            vec![Field::floats("rank", &rank)]
        }
        Row::FusedBfs | Row::FusedReach | Row::FusedPpr => {
            unreachable!("{row} runs on GraphGrind-v2 only")
        }
    }
}

/// Runs a scalar row on engines `build` makes from the graph (and its
/// transpose).
fn on<E: Engine>(row: Row, graph: &Graph, build: impl Fn(&EdgeList) -> E) -> Vec<Field> {
    let fwd = build(&graph.el);
    let bwd = graph.transposed.as_ref().map(&build);
    scalar(row, &fwd, bwd.as_ref())
}

/// Runs `row` on GraphGrind-v2 under `config` with the round recorder
/// armed; BC's backward rounds follow its forward rounds.
fn run(row: Row, graph: &Graph, config: &Config) -> (RoundTrace, Vec<Field>) {
    let fwd = GraphGrind2::new(&graph.el, config.clone());
    let bwd = graph
        .transposed
        .as_ref()
        .map(|el| GraphGrind2::new(el, config.clone()));
    for engine in std::iter::once(&fwd).chain(&bwd) {
        engine.start_recording();
    }
    let outcome = match row {
        Row::FusedBfs => {
            let r = fused_bfs(&fwd, &SOURCES);
            let tallied = fwd.work_counters().fused_lanes() > 0;
            vec![
                Field::ints("dist", r.dist.concat()),
                Field::ints("rounds", vec![r.rounds as u32]),
                Field::ints("fused_lanes_tallied", vec![u32::from(tallied)]),
            ]
        }
        Row::FusedReach => {
            let masks = fused_reachability(&fwd, &SOURCES);
            vec![Field::new("reach", false, masks)]
        }
        Row::FusedPpr => {
            let (alpha, eps, rounds) = PPR;
            let r = fused_ppr(&fwd, &PPR_SOURCES, alpha, eps, rounds);
            vec![Field::floats("mass", &r.p.concat())]
        }
        _ => scalar(row, &fwd, bwd.as_ref()),
    };
    let mut rounds = fwd.take_recording();
    rounds.extend(bwd.iter().flat_map(|e| e.take_recording()));
    for (i, r) in rounds.iter_mut().enumerate() {
        r.round = i as u64;
    }
    let header = TraceHeader::new(&row.to_string(), "contract", config, false);
    (RoundTrace { header, rounds }, outcome)
}

// The comparison

/// One row on one graph: its root result (checked against the oracle) and
/// the recordings points replay against.
struct Case<'g> {
    row: Row,
    family: &'g str,
    graph: &'g Graph,
    root: Vec<Field>,
    /// Recording points (see [`Point::recording`]) and their traces; the
    /// first is the root's.
    recordings: Vec<(Point, RoundTrace)>,
}

impl<'g> Case<'g> {
    fn new(row: Row, family: &'g str, graph: &'g Graph) -> Self {
        let (trace, outcome) = run(row, graph, &sequential());
        let case = Case {
            row,
            family,
            graph,
            root: outcome,
            recordings: vec![(root(), trace)],
        };
        case.check_oracle(&root(), &case.root);
        case
    }

    fn fail(&self, at: &dyn fmt::Display, what: impl fmt::Display) -> ! {
        panic!("{}/{} @ {at}: {what}", self.row, self.family)
    }

    /// The row's sequential oracle: exact for integers and fused lanes, to
    /// each float result's tolerance otherwise.
    fn check_oracle(&self, at: &dyn fmt::Display, got: &[Field]) {
        let el = &self.graph.el;
        let n = el.num_vertices();
        let (want, tol) = match self.row {
            Row::Bfs => (Field::ints("level", reference::bfs_levels(el, 0)), None),
            Row::Pr => {
                let want = Field::floats("rank", &reference::pagerank(el, 10));
                (want, Some((1e-9, 1e-14)))
            }
            Row::Cc => {
                let rounds = Field::ints("rounds", vec![cc_rounds(el)]);
                if let Some(d) = diff(&[rounds], got, None) {
                    self.fail(at, d);
                }
                (Field::ints("label", reference::cc_labels(el)), None)
            }
            Row::Bf => {
                let want = Field::floats("dist", &reference::dijkstra(el, 0));
                (want, Some((1e-4, 1e-4)))
            }
            Row::Bc => {
                let want = Field::floats("dependency", &reference::bc_single_source(el, 0));
                (want, Some((1e-9, 1e-12)))
            }
            Row::Spmv => {
                let want = Field::floats("y", &reference::spmv(el, &spmv_input(n)));
                (want, Some((1e-9, 1e-10)))
            }
            Row::Bp => {
                let lambda = BpParams::default().lambda;
                let want = Field::floats("belief", &reference::bp(el, &bp_priors(n), lambda, 10));
                (want, Some((1e-9, 1e-12)))
            }
            Row::PrDelta => {
                let want = Field::floats("rank", &reference::pagerank(el, 10));
                (want, Some((1e-9, 1e-14)))
            }
            Row::FusedBfs | Row::FusedReach | Row::FusedPpr => {
                return self.check_single_source_lanes(at, got)
            }
        };
        if let Some(d) = diff(&[want], got, tol) {
            self.fail(at, d);
        }
    }

    /// Fused rows' oracle: lane `k` equals the single-source run from
    /// source `k` on the sequential engine.
    fn check_single_source_lanes(&self, at: &dyn fmt::Display, got: &[Field]) {
        let seq = GraphGrind2::new(&self.graph.el, sequential());
        let want = match self.row {
            Row::FusedPpr => {
                let (alpha, eps, rounds) = PPR;
                let solo: Vec<f64> = PPR_SOURCES
                    .iter()
                    .flat_map(|&s| fused_ppr(&seq, &[s], alpha, eps, rounds).p.remove(0))
                    .collect();
                vec![Field::floats("mass", &solo)]
            }
            _ => {
                let solo: Vec<_> = SOURCES.iter().map(|&s| algorithms::bfs(&seq, s)).collect();
                if self.row == Row::FusedBfs {
                    let rounds = solo.iter().map(|r| r.rounds).max().unwrap_or(0);
                    let dist = solo.into_iter().flat_map(|r| r.level).collect();
                    vec![
                        Field::ints("dist", dist),
                        Field::ints("rounds", vec![rounds as u32]),
                        Field::ints("fused_lanes_tallied", vec![1]),
                    ]
                } else {
                    let masks = (0..seq.num_vertices())
                        .map(|v| {
                            (0..SOURCES.len())
                                .filter(|&k| solo[k].level[v] != u32::MAX)
                                .map(|k| 1u64 << k)
                                .sum()
                        })
                        .collect();
                    vec![Field::new("reach", false, masks)]
                }
            }
        };
        if let Some(d) = diff(&want, got, None) {
            self.fail(at, d);
        }
    }

    /// Index of the recording `point` replays against, made on first use
    /// and compared with the root's on frontier digests and results.
    fn recording(&mut self, point: &Point) -> usize {
        let point = point.recording();
        if let Some(i) = self.recordings.iter().position(|(p, _)| *p == point) {
            return i;
        }
        let (trace, got) = run(self.row, self.graph, &point.config());
        self.expect(&point, &self.recordings[0].1, &trace, &got);
        self.recordings.push((point, trace));
        self.recordings.len() - 1
    }

    /// The contract at one point: its trace replays against `recorded`
    /// (plans too, where `first_divergence` finds them comparable) and its
    /// results equal the root's word for word. CC and Bellman-Ford are no
    /// exception: each round reads sources from a round-start snapshot, so
    /// their frontiers are schedule-independent too.
    fn expect(&self, point: &Point, recorded: &RoundTrace, trace: &RoundTrace, got: &[Field]) {
        if let Some(d) = first_divergence(recorded, trace) {
            self.fail(point, d);
        }
        if let Some(d) = diff(&self.root, got, None) {
            self.fail(point, d);
        }
    }

    /// Runs `point` `repeats` times, each replayed against its recording.
    fn replay(&mut self, point: &Point, repeats: usize) {
        let i = self.recording(point);
        for _ in 0..repeats {
            let (trace, got) = run(self.row, self.graph, &point.config());
            self.expect(point, &self.recordings[i].1, &trace, &got);
        }
    }

    /// An oracle-only row's output-mode axis at one partitioned point:
    /// every partition forced to sorted vertex lists and every partition
    /// forced to bitmap segments agree bit for bit, with each other and
    /// then, trace and results, with the root.
    fn check_output_modes(&self) {
        let [sparse, dense] =
            [OutputMode::ForceSparse, OutputMode::ForceDense].map(|output| Point {
                output,
                ..Point::new(7, 1, ChunkCap::Fixed(usize::MAX))
            });
        let [(sparse_trace, sparse_got), (dense_trace, dense_got)] =
            [sparse, dense].map(|point| run(self.row, self.graph, &point.config()));
        if let Some(d) = diff(&sparse_got, &dense_got, None) {
            self.fail(&dense, format_args!("against out=ForceSparse: {d}"));
        }
        let root = &self.recordings[0].1;
        self.expect(&sparse, root, &sparse_trace, &sparse_got);
        self.expect(&dense, root, &dense_trace, &dense_got);
    }

    /// The oracle on the three comparator engines.
    fn check_engines(&self) {
        let ligra = on(self.row, self.graph, |el| Baseline::ligra(el, 2));
        self.check_oracle(&"Ligra", &ligra);
        let polymer = on(self.row, self.graph, |el| Baseline::polymer(el, 2, 2));
        self.check_oracle(&"Polymer", &polymer);
        let v1 = on(self.row, self.graph, |el| Baseline::graphgrind1(el, 2, 2));
        self.check_oracle(&"GG-v1", &v1);
    }

    /// The monolithic base, checked against the oracle and the partitioned
    /// root.
    fn monolithic_base(&self) -> Vec<Field> {
        let at = "GG-v2 monolithic";
        let base = on(self.row, self.graph, |el| {
            GraphGrind2::new(el, Config::for_tests())
        });
        self.check_oracle(&at, &base);
        if let Some(d) = diff(&self.root, &base, Some((1e-9, 1e-14))) {
            self.fail(&at, d);
        }
        base
    }
}

/// A row's tests, each on a fresh [`Case`] of one graph family.
impl Row {
    fn case<T>(self, name: &str, check: impl FnOnce(Case) -> T) -> T {
        let (family, el) = family(name);
        let graph = self.prepare(el);
        check(Case::new(self, &family, &graph))
    }

    /// The root result against the oracle, then, for a swept row, every
    /// lattice point replayed; an oracle-only row runs its output modes.
    fn check_family(self, name: &str) {
        self.case(name, |mut case| {
            if self.oracle_only() {
                case.check_output_modes();
            } else {
                for point in lattice() {
                    case.replay(&point, 1);
                }
            }
        });
    }

    /// The oracle on Ligra, Polymer, GraphGrind-v1 and the monolithic
    /// GraphGrind-v2 base, on every family and the engine graphs.
    fn engines(self) {
        for name in self.engine_families() {
            self.case(name, |case| {
                case.check_engines();
                case.monolithic_base();
            });
        }
    }

    /// Every monolithic point against the monolithic base, on
    /// [`MONOLITHIC_GRAPH`].
    fn monolithic(self) {
        self.case(MONOLITHIC_GRAPH, |case| {
            let base = case.monolithic_base();
            for (label, config, tol) in monolithic_points() {
                let got = on(self, case.graph, |el| GraphGrind2::new(el, config.clone()));
                if let Some(d) = diff(&base, &got, Some(tol)) {
                    case.fail(&label, d);
                }
            }
        });
    }

    /// Each stress point, replayed `STRESS_REPEATS` times on the first
    /// family.
    fn stress(self) {
        self.case(self.families()[0], |mut case| {
            for point in stress_points() {
                case.replay(&point, STRESS_REPEATS);
            }
        });
    }
}

#[test]
fn lattice_covers_every_axis_triple() {
    assert_eq!(uncovered(&lattice()), None);
}

/// Strategy: a random directed graph with 2..=60 vertices and 0..200 edges.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..=60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |edges| EdgeList::from_edges(n, &edges))
    })
}

/// A point anywhere on the axes' full ranges: 1..=9 partitions or three
/// more than there are vertices, 1..=4 threads, caps 1..=256, `Auto` or
/// unbounded, every output mode.
fn arb_graph_and_point() -> impl Strategy<Value = (EdgeList, Point)> {
    arb_graph().prop_flat_map(|el| {
        let n = el.num_vertices();
        ((0usize..10, 1usize..=4), 0usize..258, 0usize..3).prop_map(
            move |((p, threads), cap, o)| {
                let partitions = if p == 0 { n + 3 } else { p };
                let cap = match cap {
                    0 => ChunkCap::Auto,
                    257 => ChunkCap::Fixed(usize::MAX),
                    c => ChunkCap::Fixed(c),
                };
                let point = Point {
                    output: OUTPUTS[o],
                    ..Point::new(partitions, threads, cap)
                };
                (el.clone(), point)
            },
        )
    })
}

/// Random source multiset of size K over the graph, with K pinned at the
/// lane-width boundaries: 1, 63 and 64 (duplicates allowed, and at K ≥ 63
/// over ≤ 60 vertices guaranteed).
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

/// `row` replayed at a sampled point against its recording.
fn sampled(row: Row, (el, point): (EdgeList, Point)) {
    let family = format!("random(n={}, m={})", el.num_vertices(), el.num_edges());
    let graph = row.prepare(el);
    Case::new(row, &family, &graph).replay(&point, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Points sampled above the lattice keep the contract the lattice
    /// points keep, on random graphs: one property per row.
    #[test]
    fn sampled_points_keep_the_bfs_contract(case in arb_graph_and_point()) {
        sampled(Row::Bfs, case);
    }

    #[test]
    fn sampled_points_keep_the_pr_contract(case in arb_graph_and_point()) {
        sampled(Row::Pr, case);
    }

    #[test]
    fn sampled_points_keep_the_cc_contract(case in arb_graph_and_point()) {
        sampled(Row::Cc, case);
    }

    #[test]
    fn sampled_points_keep_the_bf_contract(case in arb_graph_and_point()) {
        sampled(Row::Bf, case);
    }

    /// Every lane of a random K-source fused BFS / reachability / PPR
    /// batch agrees with the single-source run, PPR bitwise, duplicate
    /// seeds and early-retired lanes included.
    #[test]
    fn random_source_sets_agree_with_scalar_oracles(case in arb_graph_and_sources()) {
        let (el, sources) = case;
        let seq = GraphGrind2::new(&el, sequential());
        let engine = GraphGrind2::new(&el, partitioned(3, 2));
        let fused = fused_bfs(&engine, &sources);
        let reach = fused_reachability(&engine, &sources);
        let ppr = fused_ppr(&engine, &sources, 0.2, 1e-3, 20);
        for (k, &s) in sources.iter().enumerate() {
            let oracle = algorithms::bfs(&seq, s);
            assert_eq!(fused.dist[k], oracle.level, "lane {k} source {s}");
            for (v, &mask) in reach.iter().enumerate() {
                let reached = mask & (1 << k) != 0;
                assert_eq!(reached, oracle.level[v] != u32::MAX, "reach lane {k} vertex {v}");
            }
            let solo = fused_ppr(&seq, &[s], 0.2, 1e-3, 20);
            assert_eq!(ppr.p[k], solo.p[0], "ppr lane {k} seed {s}");
        }
    }

    /// Maximal chunking can only spawn more chunks, never fewer: over BFS
    /// and PageRank, per-vertex chunks (cap 1) spawn at least as many as
    /// one chunk per partition (cap unbounded).
    #[test]
    fn cap_one_spawns_at_least_as_many_chunks_as_unbounded(el in arb_graph(), p in 1usize..8) {
        let chunks = |cap: usize| {
            let engine = GraphGrind2::new(&el, partitioned(p, 2).with_chunk_edges(cap));
            algorithms::bfs(&engine, 0);
            algorithms::pagerank(&engine, 5);
            engine.work_counters().chunks()
        };
        let (tiny, unbounded) = (chunks(1), chunks(usize::MAX));
        assert!(tiny >= unbounded, "P={p}: cap 1 spawned {tiny} chunks, unbounded {unbounded}");
    }
}

// Named tests: assertions that are not a comparison between configurations

/// A dense fully-connected block on the low quarter of the ids, bridged to
/// a sparse path tail: frontiers in the block make block partitions dense
/// while tail partitions stay sparse.
fn density_skewed(n: usize) -> EdgeList {
    assert!(n >= 8);
    let block = (n / 4) as u32;
    let mut el = EdgeList::new(n);
    for i in 0..block {
        for j in 0..block {
            if i != j {
                el.push(i, j);
            }
        }
    }
    el.push(block / 2, block);
    for i in block..(n as u32 - 1) {
        el.push(i, i + 1);
    }
    el
}

/// On the density-skewed graph, edge maps mix sparse and dense kernels
/// across partitions, and sorted lists and bitmap segments across outputs
/// (under `Auto` outputs mirror kernels), with results still equal to the
/// sequential engine's.
#[test]
fn skewed_graph_mixes_kernels_and_output_representations() {
    let el = density_skewed(64);
    let seq = algorithms::bfs(&GraphGrind2::new(&el, sequential()), 0);
    let engine = GraphGrind2::new(&el, partitioned(7, 2));
    let got = algorithms::bfs(&engine, 0);
    assert_eq!(got.level, seq.level);
    assert_eq!(got.parent, seq.parent);

    let (k_sparse, k_dense, k_mixed) = engine.kernel_counts().partition_snapshot();
    assert!(
        k_sparse > 0 && k_dense > 0,
        "expected both kernels over the run: sparse={k_sparse} dense={k_dense}"
    );
    assert!(k_mixed >= 1, "expected a mixed-kernel iteration");
    let (out_sparse, out_dense, out_mixed) = engine.kernel_counts().output_snapshot();
    assert!(
        out_sparse > 0 && out_dense > 0,
        "both representations must appear: sparse={out_sparse} dense={out_dense}"
    );
    assert!(out_mixed >= 1, "expected a mixed-representation iteration");
    assert_eq!((out_sparse, out_dense), (k_sparse, k_dense));
}

/// On a path graph every BFS frontier is one vertex (≤ √|V|), so the
/// sparse-output path, forced or auto-planned, pays zero dense-merge words
/// over the whole run, while the forced dense path pays the `|V|/64`-word
/// floor every round.
#[test]
fn sparse_rounds_pay_no_dense_merge_work() {
    let el = generators::path(400);
    let engine = |mode| GraphGrind2::new(&el, partitioned(7, 2).with_output_mode(mode));
    for mode in [OutputMode::ForceSparse, OutputMode::Auto] {
        let engine = engine(mode);
        let r = algorithms::bfs(&engine, 0);
        assert_eq!(r.rounds, 400, "{mode:?}: path BFS runs |V| rounds");
        assert_eq!(
            engine.work_counters().merge_words(),
            0,
            "{mode:?}: tiny frontiers must never pay a dense merge"
        );
        let (out_sparse, out_dense, _) = engine.kernel_counts().output_snapshot();
        assert!(out_sparse > 0, "{mode:?}: sparse outputs must be planned");
        assert_eq!(out_dense, 0, "{mode:?}: no partition may emit a segment");
    }

    let engine = engine(OutputMode::ForceDense);
    let r = algorithms::bfs(&engine, 0);
    let words_per_round = 400u64.div_ceil(64);
    assert!(
        engine.work_counters().merge_words() >= (r.rounds as u64 - 1) * words_per_round,
        "forced dense merge must pay the floor: {} words over {} rounds",
        engine.work_counters().merge_words(),
        r.rounds
    );
}

/// Every vertex points at one hub, so the all-active frontier classifies
/// the hub partition dense; but the partition has one destination with
/// any in-edge, a provable output bound, so under `Auto` it emits a
/// sorted list and the run never pays the dense-merge floor.
#[test]
fn provably_small_outputs_emit_sparse_lists_under_auto() {
    let mut el = EdgeList::new(512);
    for i in (0..512u32).filter(|&i| i != 300) {
        el.push(i, 300);
    }
    let seq = algorithms::pagerank(&GraphGrind2::new(&el, sequential()), 10);
    let engine = GraphGrind2::new(&el, partitioned(2, 2));
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
    assert_eq!(engine.work_counters().merge_words(), 0);
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
        let engine = GraphGrind2::new(&el, partitioned(7, 2).with_output_mode(mode));
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

/// On the skewed scale-free scenario a fixed cap splits the hub partitions
/// into many chunks and the star hubs into sub-chunks: every chunk stays
/// under the `2 × cap` bound and the largest drops below the top hub's
/// in-degree, with results equal to the sequential engine's.
#[test]
fn skewed_scenario_splits_hubs_without_oversized_chunks() {
    let el = powerlaw_scenario(0.05, 2.0, 16, 7);
    let cap = 64usize;
    let seq = algorithms::pagerank(&GraphGrind2::new(&el, sequential()), 10);

    let cfg = Config {
        domains: 2,
        ..partitioned(4, 4).with_chunk_edges(cap)
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
    assert!(c.hub_subchunks() > 0, "the star hubs must be split");
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

/// Under the adaptive cap the balanced grid (every in-degree a handful)
/// runs without a single hub sub-chunk: the cost model splits only when
/// the excess outweighs `HUB_SPLIT_OVERHEAD_EDGES`.
#[test]
fn adaptive_cap_leaves_balanced_grid_unsplit() {
    let side = (250_000.0f64 * 0.05).sqrt() as usize;
    let el = generators::grid_road(side, side, 0.05, 13);
    let seq = algorithms::pagerank(&GraphGrind2::new(&el, sequential()), 10);
    let engine = GraphGrind2::new(&el, partitioned(4, 4));
    let got = algorithms::pagerank(&engine, 10);
    assert_eq!(got, seq, "adaptive run must match the sequential engine");
    let c = engine.work_counters();
    assert!(c.chunks() > 0, "the traversal must have planned chunks");
    assert_eq!(c.hub_subchunks(), 0, "the balanced grid must not hub-split");
}

/// Five skewed PageRank runs reuse one crew: `spawns()` stays at the
/// thread count while `epochs()` grows with the rounds.
#[test]
fn skewed_scenario_reuses_one_worker_crew() {
    let el = powerlaw_scenario(0.02, 2.0, 8, 7);
    let engine = GraphGrind2::new(&el, partitioned(4, 4).with_chunk_edges(64));
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
        "epochs ({}) must outnumber spawned threads ({})",
        pool.epochs(),
        pool.spawns()
    );
}

/// An edgeless graph plans no chunks; a traversal that dies out after one
/// real round terminates cleanly under per-vertex chunking.
#[test]
fn empty_rounds_plan_no_chunks() {
    let config = partitioned(4, 2).with_chunk_edges(1);
    let engine = GraphGrind2::new(&EdgeList::new(24), config.clone());
    let r = algorithms::bfs(&engine, 0);
    assert_eq!(r.level[0], 0);
    assert_eq!(engine.work_counters().chunks(), 0);
    assert_eq!(engine.work_counters().max_chunk_edges(), 0);

    let engine = GraphGrind2::new(&EdgeList::from_edges(24, &[(0, 1)]), config);
    let r = algorithms::bfs(&engine, 0);
    assert_eq!(r.level[1], 1);
    assert!(engine.work_counters().chunks() > 0);
}

/// The per-partition views tile the vertex space contiguously in index
/// order, empty partitions included, and carry every edge.
#[test]
fn partition_views_expose_the_schedule() {
    let el = density_skewed(64);
    let engine = GraphGrind2::new(&el, partitioned(7, 2));
    let views = engine.partition_views();
    assert_eq!(views.len(), 7);
    assert_eq!(views[0].dst_range.start, 0);
    assert_eq!(views.last().unwrap().dst_range.end, 64);
    let total_edges: u64 = views.iter().map(|v| v.num_edges).sum();
    assert_eq!(total_edges, el.num_edges() as u64);
    for (p, view) in views.iter().enumerate() {
        assert_eq!(view.index, p, "index order");
    }
    for w in views.windows(2) {
        assert_eq!(w[0].dst_range.end, w[1].dst_range.start, "contiguous");
    }
}

/// One K-lane edge scan serves all K queries: a fused K=16 BFS traverses
/// strictly fewer edges than 16 scalar runs (a 13× margin, mostly the
/// fused prefilter) and than 16 fused K=1 runs (the tight comparison that
/// isolates lane sharing). Edge tallies are deterministic.
#[test]
fn fused_k16_traverses_fewer_edges_than_sixteen_sequential_runs() {
    let el = generators::small_world(2000, 6, 0.05, 13);
    let sources = fused_sources(&el, 16);
    for t in THREADS {
        let engine = GraphGrind2::new(&el, partitioned(7, t));
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

/// The serving layer steps the resumable runners round by round and
/// stamps each lane's completion at the round `step()` reports it retired.
/// Stepping, here in uneven groups of rounds, is invisible at every
/// lattice point: results equal the drained run's, and per-lane
/// retirement rounds, read the same way, are the same everywhere.
#[test]
fn stepped_runners_are_slice_and_config_invariant() {
    // Duplicate seeds on purpose: retiring one copy must not disturb the
    // other's lane.
    let sources = [0u32, 17, 17, 99, 3, 64];
    for &name in Row::FusedBfs.families() {
        let (name, el) = family(name);
        let seq = GraphGrind2::new(&el, sequential());
        let drained = fused_bfs(&seq, &sources);
        let drained_ppr = fused_ppr(&seq, &sources, 0.15, 1e-4, 12);
        let mut retire_rounds: Option<[Vec<usize>; 2]> = None;
        for point in lattice() {
            let engine = GraphGrind2::new(&el, point.config());
            let mut bfs_run = FusedBfsRun::new(&engine, &sources);
            let mut ppr_run = FusedPprRun::new(&engine, &sources, 0.15, 1e-4, 12);
            let mut rounds = [vec![0; sources.len()], vec![0; sources.len()]];
            let stamp = |at: &mut [usize], retired: u64, round: usize| {
                for (k, at) in at.iter_mut().enumerate() {
                    if retired >> k & 1 == 1 {
                        *at = round;
                    }
                }
            };
            // Uneven slices: 1, 2, 3, 1, 2, 3, ... rounds at a time.
            let mut slice = 0usize;
            while !bfs_run.is_done() || !ppr_run.is_done() {
                slice = slice % 3 + 1;
                for _ in 0..slice {
                    stamp(&mut rounds[0], bfs_run.step(), bfs_run.rounds());
                    stamp(&mut rounds[1], ppr_run.step(), ppr_run.rounds());
                }
            }
            for k in 0..sources.len() {
                let lane = k as u32;
                let what = format!("{name} lane {k} @ {point}");
                assert_eq!(bfs_run.dist(lane), &drained.dist[k][..], "bfs {what}");
                assert_eq!(ppr_run.mass(lane), &drained_ppr.p[k][..], "ppr {what}");
            }
            assert!(
                rounds.iter().flatten().all(|&r| r > 0),
                "{name}: a lane never retired @ {point}"
            );
            match &retire_rounds {
                None => retire_rounds = Some(rounds),
                Some(want) => assert_eq!(&rounds, want, "{name} retirement rounds @ {point}"),
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`: the digest every golden
/// constant below was computed with.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The monolithic three-layout path (sparse CSR push, medium CSC pull,
/// dense partitioned COO) at one thread under `Config::default()` produces
/// exactly the results recorded at commit 0a5b9be, before its kernels
/// tested a next-frontier bit before setting it and before the dense COO
/// kernel compacted active edges: BFS levels and CC labels from vertex 0,
/// Bellman-Ford distances and PRDelta ranks by bit pattern (PRDelta is
/// deterministic at one thread only), on symmetrized, integer-weighted
/// smoke-scale graphs. The four runs together take each of Algorithm 2's
/// three classes.
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
        let engine = GraphGrind2::new(&el, Config::default().with_threads(1));
        let bfs = algorithms::bfs(&engine, 0);
        let cc = algorithms::cc(&engine);
        let bf = algorithms::bellman_ford(&engine, 0);
        let prd = algorithms::pagerank_delta(&engine, PrDeltaParams::default());
        let (sparse, medium, dense) = engine.kernel_counts().snapshot();
        assert!(
            sparse > 0 && medium > 0 && dense > 0,
            "every class must run: {sparse} sparse, {medium} medium, {dense} dense rounds"
        );
        let got = [
            fnv_words(bfs.level.iter().map(|&l| u64::from(l))),
            fnv_words(cc.label.iter().map(|&l| u64::from(l))),
            fnv_words(bf.dist.iter().map(|d| u64::from(d.to_bits()))),
            fnv_words(prd.rank.iter().map(|r| r.to_bits())),
        ];
        assert_eq!(got, want, "{name}: {got:#018x?} != {want:#018x?}");
    }
}

/// Fused BFS distances, reachability masks and PPR mass bit patterns,
/// lane-major, equal the digests recorded at commit aea5aef, the last
/// whose `FusedPprOp::scaled_of` binary-searched the round's sorted push
/// list: K in {1, 7, 64} (sources strided over the id space, so K = 64
/// repeats none on these graphs), partitions 1 and 16. The R-MAT and
/// Chung-Lu PPR digests were re-recorded when the store's CSC became the
/// CSR's transpose, which regroups each PPR fold in ascending source
/// order: taken from the code before that change, run on each edge list
/// stably sorted by source (which builds the same CSC). The grid
/// generator already emits each in-list in ascending source order, so its
/// digests did not move.
#[test]
fn fused_results_match_digests_recorded_before_the_push_slot_table() {
    const GOLDEN: [(&str, usize, [u64; 3]); 9] = [
        (
            "rmat",
            1,
            [0x577b5a54c2c9319b, 0xaf471b0cd0ddd0a5, 0xa8fe738158bd5479],
        ),
        (
            "rmat",
            7,
            [0xd243424dee178eb4, 0x5d2f8638b452d909, 0xd9d7090b45ab9d38],
        ),
        (
            "rmat",
            64,
            [0xcba0576b3307a6a1, 0xf2ea2aa78abfbb91, 0x2ae90ce424de6ab6],
        ),
        (
            "chung-lu",
            1,
            [0x6f777b3f3fa50b44, 0xe85a472aaf92c825, 0xda88414e66ff59c6],
        ),
        (
            "chung-lu",
            7,
            [0x33697e0fc40f5580, 0xe6a35e2adbabde25, 0x0548af81d1807400],
        ),
        (
            "chung-lu",
            64,
            [0xa62f886f04a5407a, 0xd21aedbdc95cca87, 0xced72223493f11e2],
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
            let engine = GraphGrind2::new(el, partitioned(p, 2));
            let bfs = fused_bfs(&engine, &sources);
            let reach = fused_reachability(&engine, &sources);
            let ppr = fused_ppr(&engine, &sources, 0.15, 1e-4, 30);
            let got = [
                fnv_words(bfs.dist.iter().flatten().map(|&d| u64::from(d))),
                fnv_words(reach),
                fnv_words(ppr.p.iter().flatten().map(|m| m.to_bits())),
            ];
            assert_eq!(
                got, want,
                "{name} K={k} P={p}: {got:#018x?} != {want:#018x?}"
            );
        }
    }
}

/// `el` without parallel edges: the first of each `(src, dst)` group is
/// kept, and the survivors keep their input order.
fn without_parallel_edges(mut el: EdgeList) -> EdgeList {
    let key = |el: &EdgeList, i: usize| (el.srcs()[i], el.dsts()[i]);
    let mut keep: Vec<usize> = (0..el.num_edges()).collect();
    keep.sort_by_key(|&i| key(&el, i));
    keep.dedup_by_key(|i| key(&el, *i));
    keep.sort_unstable();
    el.permute(&keep);
    el
}

/// `el`'s edges (weights travelling with them) in a seeded Fisher-Yates
/// order.
fn shuffled(el: &EdgeList, seed: u64) -> EdgeList {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..el.num_edges()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut out = el.clone();
    out.permute(&order);
    out
}

/// Results are a function of the edge set, not of the edge list's order:
/// the store's CSC is the CSR's transpose, so every in-list ascends by
/// source whatever order the edges arrived in, and the partitioned
/// executor's push (along the CSR) and pulls (over the CSC) apply each
/// destination's updates in that order. BFS, PR, CC, BF and SpMV on R-MAT
/// and power-law graphs without parallel edges (the order among
/// duplicates is the one order the CSC keeps) give bit-identical results
/// on a seeded shuffle of each edge list, at three (P, T) points.
#[test]
fn results_are_a_function_of_the_edge_set() {
    let families = [
        ("rmat", generators::rmat(10, 8_000, RmatParams::skewed(), 7)),
        ("powerlaw", powerlaw_scenario(0.02, 2.1, 4, 7)),
    ];
    let rows = [Row::Bfs, Row::Pr, Row::Cc, Row::Bf, Row::Spmv];
    for (name, el) in families {
        let el = without_parallel_edges(el);
        for row in rows {
            let given = row.prepare(el.clone()).el;
            let reordered = shuffled(&given, 0x5eed);
            assert_ne!(given.srcs(), reordered.srcs(), "{name}: not shuffled");
            for (p, t) in [(1, 1), (7, 2), (16, 2)] {
                let run = |el: &EdgeList| {
                    let engine = GraphGrind2::new(el, partitioned(p, t));
                    scalar(row, &engine, None)
                };
                if let Some(d) = diff(&run(&given), &run(&reordered), None) {
                    panic!("{row}/{name} @ P={p} T={t}, shuffled edge list: {d}");
                }
            }
        }
    }
}

/// The benchmark's three graph families at its smoke scale, the graphs
/// the built-layout digests below were recorded on. `rmat-sym` is
/// symmetrized (so deduplicated) and integer-weighted.
fn layout_graphs() -> [(&'static str, EdgeList); 3] {
    let mut rmat = symmetrize(&generators::rmat(10, 6_000, RmatParams::skewed(), 7));
    weights::attach_integer(&mut rmat, 16, 7);
    [
        ("powerlaw", powerlaw_scenario(0.1, 2.0, 16, 7)),
        ("grid-road", generators::grid_road(40, 40, 0.05, 7)),
        ("rmat-sym", rmat),
    ]
}

/// The benchmark's 16 edge-balanced destination partitions of `el`.
fn layout_partitions(el: &EdgeList) -> PartitionSet {
    PartitionSet::edge_balanced(&el.in_degrees(), 16, PartitionBy::Destination)
}

/// The built COO (`srcs`, `dsts`, weight bits, partition offsets) is
/// byte-identical to the one the comparator sort built at commit cb39243,
/// the last whose COO build ran `sort_unstable_by_key`
/// over recomputed keys: the benchmark's three graphs at its smoke scale
/// under its 16 edge-balanced destination partitions. (`symmetrize`
/// deduplicates, so the weighted graph has no ties for the two sorts to
/// break differently.)
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
    let graphs = layout_graphs();
    for (name, order, want) in GOLDEN {
        let el = &graphs.iter().find(|(g, _)| *g == name).unwrap().1;
        let built = PartitionedCoo::new(el, &layout_partitions(el), order);
        let coo = built.coo();
        let offsets = (0..built.num_partitions()).flat_map(|p| {
            let r = built.part_range(p);
            [r.start as u64, r.end as u64]
        });
        let weight_bits = coo
            .weights()
            .unwrap_or(&[])
            .iter()
            .map(|w| u64::from(w.to_bits()));
        let got = fnv_words(
            coo.srcs()
                .iter()
                .chain(coo.dsts())
                .map(|&v| u64::from(v))
                .chain(weight_bits)
                .chain(offsets),
        );
        assert_eq!(got, want, "{name} {order:?}: {got:#018x} != {want:#018x}");
    }
}

/// The built pruned CSR (per partition: stored source ids, adjacency end
/// offsets, targets, weight bits) equals the digests recorded when it
/// became a split of the store's CSR, on the graphs and partitions of
/// the COO digests above. Adjacency order is each source's edge-list
/// order; a change to it must re-record these on purpose.
#[test]
fn built_pruned_csr_matches_digests_recorded_at_the_csr_split() {
    const GOLDEN: [(&str, u64); 3] = [
        ("powerlaw", 0x38fc98d76f2701bd),
        ("grid-road", 0x43b44f70a96c332b),
        ("rmat-sym", 0x16e3e08a70e0dd40),
    ];
    let graphs = layout_graphs();
    for (name, want) in GOLDEN {
        let el = &graphs.iter().find(|(g, _)| *g == name).unwrap().1;
        let built = PartitionedCsr::from_csr(&Csr::from_edge_list(el), &layout_partitions(el));
        let words = (0..built.num_partitions()).flat_map(|p| {
            let part = built.part(p);
            let ids = part.vertex_ids().iter().map(|&v| u64::from(v));
            let ends = (0..part.num_stored_vertices()).map(|i| part.edge_range_at(i).end as u64);
            let targets = part.targets().iter().map(|&v| u64::from(v));
            let weight_bits = (0..part.num_edges()).map(|e| u64::from(part.weight_at(e).to_bits()));
            ids.chain(ends).chain(targets).chain(weight_bits)
        });
        let got = fnv_words(words);
        assert_eq!(got, want, "{name}: {got:#018x} != {want:#018x}");
    }
}

/// Accepts a fixed, schedule-independent subset of edges and never stops
/// a scan early (`cond` is always true), so every kernel tallies every
/// edge it scans and the next frontier is a pure function of the current
/// one.
struct FixedAccept;

impl graphgrind::core::EdgeOp for FixedAccept {
    fn update(&self, s: u32, d: u32, _w: f32) -> bool {
        !(s.wrapping_mul(31) ^ d).is_multiple_of(3)
    }
    fn update_atomic(&self, s: u32, d: u32, w: f32) -> bool {
        self.update(s, d, w)
    }
}

/// Ligra, Polymer and GraphGrind-v1 at two threads do exactly the work
/// recorded at commit f03ed0a, when each policy was its own engine type
/// with its own copy of the two-way edge map. Per edge map on one
/// R-MAT graph (an all-active round forward, one backward, then a sparse
/// single-vertex round): edges and vertices tallied, pool jobs run (which
/// fix each policy's range and task counts), and the output frontier's
/// size and digest. Ligra divides by vertex count (16 chunks forward, 16
/// ranges back); Polymer scans 4 unpruned domains of 1024 vertices, GG-v1
/// only its 2027 pruned replicas, and both pull over 8 ranges. Each dense
/// round's output adds the 8 jobs of its degree sum.
#[test]
fn baselines_do_the_work_recorded_before_the_one_baseline_engine() {
    use graphgrind::core::engine::{Direction, EdgeMapSpec};
    use graphgrind::core::trace::frontier_digest;

    /// `[edges, vertices, jobs, |F'|, digest(F')]` per round.
    fn rounds<E: Engine>(engine: &E, src: u32) -> [[u64; 5]; 3] {
        let passes = [
            (
                engine.frontier_all(),
                EdgeMapSpec::edge_oriented().with_direction(Direction::Forward),
            ),
            (
                engine.frontier_all(),
                EdgeMapSpec::vertex_oriented().with_direction(Direction::Backward),
            ),
            (engine.frontier_single(src), EdgeMapSpec::vertex_oriented()),
        ];
        passes.map(|(frontier, spec)| {
            let c = engine.work_counters();
            let (edges, vertices, jobs) = (c.edges(), c.vertices(), engine.pool().jobs_run());
            let next = engine.edge_map(&frontier, &FixedAccept, spec);
            [
                c.edges() - edges,
                c.vertices() - vertices,
                engine.pool().jobs_run() - jobs,
                next.len() as u64,
                frontier_digest(&next),
            ]
        })
    }

    const GOLDEN: [(&str, [[u64; 5]; 3]); 3] = [
        (
            "Ligra",
            [
                [12000, 1024, 24, 690, 0x837d18205cb5d54f],
                [12000, 1024, 24, 690, 0x837d18205cb5d54f],
                [29, 1, 1, 15, 0x29fe4ca35980bee6],
            ],
        ),
        (
            "Polymer",
            [
                [12000, 4096, 12, 690, 0x837d18205cb5d54f],
                [12000, 1024, 16, 690, 0x837d18205cb5d54f],
                [29, 1, 1, 15, 0x29fe4ca35980bee6],
            ],
        ),
        (
            "GG-v1",
            [
                [12000, 2027, 12, 690, 0x837d18205cb5d54f],
                [12000, 1024, 16, 690, 0x837d18205cb5d54f],
                [29, 1, 1, 15, 0x29fe4ca35980bee6],
            ],
        ),
    ];
    let el = generators::rmat(10, 12_000, RmatParams::skewed(), 7);
    let degrees = el.out_degrees();
    let src = (0..el.num_vertices() as u32)
        .find(|&v| (1..=30).contains(&degrees[v as usize]))
        .expect("a low-degree source");
    let got = [
        rounds(&Baseline::ligra(&el, 2), src),
        rounds(&Baseline::polymer(&el, 2, PAPER_DOMAINS), src),
        rounds(&Baseline::graphgrind1(&el, 2, PAPER_DOMAINS), src),
    ];
    for ((name, want), got) in GOLDEN.iter().zip(got) {
        assert_eq!(&got, want, "{name}: {got:#x?} != {want:#x?}");
    }
}
