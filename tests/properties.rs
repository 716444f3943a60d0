//! Property-based tests (proptest) over random graphs: the structural
//! invariants of partitioning and the layouts, and end-to-end algorithm
//! agreement between GraphGrind-v2 and the sequential oracles.

use proptest::prelude::*;

use graphgrind::algorithms::{self, reference, validate};
use graphgrind::core::trace::TRACE_FORMAT_VERSION;
use graphgrind::core::{Config, GraphGrind2};
use graphgrind::graph::coo::PartitionedCoo;
use graphgrind::graph::csc::Csc;
use graphgrind::graph::csr::{Csr, PartitionedCsr};
use graphgrind::graph::edge_list::EdgeList;
use graphgrind::graph::ops::symmetrize;
use graphgrind::graph::partition::{PartitionBy, PartitionSet};
use graphgrind::graph::reorder::EdgeOrder;
use graphgrind::graph::replication;

/// Strategy: a random directed graph with 1..=60 vertices and 0..200 edges.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..=60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |edges| EdgeList::from_edges(n, &edges))
    })
}

fn small_config() -> Config {
    Config {
        threads: 2,
        num_partitions: 4,
        domains: 2,
        ..Config::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partition sets cover 0..n disjointly and route each edge to its
    /// destination's home.
    #[test]
    fn partition_set_invariants(el in arb_graph(), p in 1usize..12) {
        let set = PartitionSet::edge_balanced(&el.in_degrees(), p, PartitionBy::Destination);
        set.validate().unwrap();
        prop_assert_eq!(set.num_partitions(), p);
        let covered: usize = (0..p).map(|i| set.range(i).len()).sum();
        prop_assert_eq!(covered, el.num_vertices());
        for (u, v) in el.iter() {
            prop_assert_eq!(set.edge_home(u, v), set.home(v));
        }
    }

    /// The ranges partition `0..n` *exactly once*: contiguous, in order,
    /// starting at 0 and ending at n — not merely summing to n.
    #[test]
    fn partition_ranges_tile_the_vertex_space(el in arb_graph(), p in 1usize..12) {
        let set = PartitionSet::edge_balanced(&el.in_degrees(), p, PartitionBy::Destination);
        let mut cursor = 0u32;
        for i in 0..p {
            let r = set.range(i);
            prop_assert_eq!(r.start, cursor, "gap or overlap before partition {}", i);
            prop_assert!(r.start <= r.end);
            cursor = r.end;
        }
        prop_assert_eq!(cursor as usize, el.num_vertices());
        // Every empty partition is reported, and reported partitions are
        // genuinely empty.
        let empties = set.empty_partitions();
        for i in 0..p {
            prop_assert_eq!(set.range(i).is_empty(), empties.contains(&i), "partition {}", i);
        }
    }

    /// The remaining-aware greedy cut bounds every partition — including
    /// the last — by `|E| / P + max(degree)`.
    #[test]
    fn edge_balanced_never_exceeds_avg_plus_max_degree(el in arb_graph(), p in 1usize..12) {
        let deg = el.in_degrees();
        let set = PartitionSet::edge_balanced(&deg, p, PartitionBy::Destination);
        let total: u64 = deg.iter().map(|&d| d as u64).sum();
        let max_degree = deg.iter().copied().max().unwrap_or(0) as u64;
        let bound = total / p as u64 + max_degree;
        for (i, e) in set.edges_per_partition(&deg).into_iter().enumerate() {
            prop_assert!(e <= bound, "partition {} holds {} > {} edges", i, e, bound);
        }
    }

    /// `whole()` round-trips through `range()`: one partition owning
    /// exactly `0..n`, with every vertex homed to it.
    #[test]
    fn whole_roundtrips_through_range(n in 0usize..400) {
        let set = PartitionSet::whole(n, PartitionBy::Destination);
        prop_assert_eq!(set.num_partitions(), 1);
        prop_assert_eq!(set.range(0), 0..n as u32);
        prop_assert_eq!(set.num_vertices(), n);
        prop_assert!(set.empty_partitions().is_empty() || n == 0);
        for v in (0..n as u32).step_by(7) {
            prop_assert_eq!(set.home(v), 0);
        }
    }

    /// Every layout conserves the edge multiset.
    #[test]
    fn layouts_conserve_edges(el in arb_graph(), p in 1usize..8) {
        let mut want: Vec<(u32, u32)> = el.iter().collect();
        want.sort_unstable();

        let csr = Csr::from_edge_list(&el);
        let mut got: Vec<(u32, u32)> = (0..el.num_vertices() as u32)
            .flat_map(|u| csr.neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "CSR");

        let csc = Csc::from_edge_list(&el);
        let mut got: Vec<(u32, u32)> = (0..el.num_vertices() as u32)
            .flat_map(|v| csc.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "CSC");

        let set = PartitionSet::edge_balanced(&el.in_degrees(), p, PartitionBy::Destination);
        let coo = PartitionedCoo::new(&el, &set, EdgeOrder::Hilbert);
        coo.validate().unwrap();
        let mut got: Vec<(u32, u32)> = (0..p)
            .flat_map(|part| {
                coo.part_srcs(part)
                    .iter()
                    .zip(coo.part_dsts(part))
                    .map(|(&u, &v)| (u, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "COO");

        let pcsr = PartitionedCsr::new(&el, &set);
        prop_assert_eq!(pcsr.num_edges(), el.num_edges());
    }

    /// The analytic replication factor matches the built partitioned CSR,
    /// and stays within [min(1, has-edges), |E|/|V|].
    #[test]
    fn replication_factor_bounds(el in arb_graph(), p in 1usize..8) {
        let set = PartitionSet::edge_balanced(&el.in_degrees(), p, PartitionBy::Destination);
        let r = replication::replication_factor(&el, &set);
        let built = PartitionedCsr::new(&el, &set);
        let expected = built.total_stored_vertices() as f64 / el.num_vertices() as f64;
        prop_assert!((r - expected).abs() < 1e-12);
        prop_assert!(r <= replication::worst_case_replication_factor(&el) + 1e-12);
    }

    /// GG-v2 BFS levels match the sequential oracle on random graphs.
    #[test]
    fn bfs_matches_reference(el in arb_graph()) {
        let engine = GraphGrind2::new(&el, small_config());
        let got = algorithms::bfs(&engine, 0);
        prop_assert_eq!(got.level, reference::bfs_levels(&el, 0));
    }

    /// Mega-hub splitting is invisible in results: a random graph with an
    /// injected star hub (in-degree far above the cap, so its in-edge scan
    /// splits into partial-accumulator sub-chunks) matches the unsplit
    /// (unbounded-cap) run bit for bit on BFS, PageRank and Bellman-Ford.
    #[test]
    fn hub_split_partial_reduction_matches_unsplit_scan(
        el in arb_graph(),
        p in 1usize..6,
        hub_seed in 0u32..1000,
    ) {
        use graphgrind::core::config::{ChunkCap, ExecutorKind};
        use graphgrind::core::Engine;
        use graphgrind::graph::weights::attach_integer;

        // Inject a star: every vertex points at one hub destination, so
        // the hub's in-degree ≈ n dwarfs the tiny fixed cap below.
        let n = el.num_vertices();
        let hub = hub_seed % n as u32;
        let mut edges: Vec<(u32, u32)> = el.iter().collect();
        for s in 0..n as u32 {
            edges.push((s, hub));
        }
        let mut el = EdgeList::from_edges(n, &edges);
        attach_integer(&mut el, 12, 0xB0F ^ hub_seed as u64);

        let cfg = |cap: ChunkCap| Config {
            executor: ExecutorKind::Partitioned,
            num_partitions: p,
            domains: 1,
            chunk_edges: cap,
            ..small_config()
        };
        // Cap 4: the injected hub always splits (in-degree ≥ n ≥ 1 · · ·
        // sub-chunks engage whenever n > 4).
        let split = GraphGrind2::new(&el, cfg(ChunkCap::Fixed(4)));
        let unsplit = GraphGrind2::new(&el, cfg(ChunkCap::Fixed(usize::MAX)));

        let a = algorithms::bfs(&split, 0);
        let b = algorithms::bfs(&unsplit, 0);
        prop_assert_eq!(a.level, b.level);
        prop_assert_eq!(a.parent, b.parent);

        prop_assert_eq!(
            algorithms::pagerank(&split, 5),
            algorithms::pagerank(&unsplit, 5)
        );

        let bf_a = algorithms::bellman_ford(&split, 0);
        let bf_b = algorithms::bellman_ford(&unsplit, 0);
        prop_assert_eq!(bf_a.dist, bf_b.dist);

        if n > 4 {
            prop_assert!(
                split.work_counters().hub_subchunks() > 0,
                "the injected hub must have been split"
            );
        }
    }

    /// The associative pre-reduction path (`EdgeMapReduce`): PR, SpMV and
    /// Bellman-Ford on an injected star-hub graph are bit-identical across
    /// caps {1, 64, unbounded, Auto} and 1–4 threads — the per-quantum
    /// fold has absolute boundaries, so neither hub sub-chunk tiling nor
    /// the steal schedule can change a single f64 grouping.
    #[test]
    fn edge_map_reduce_bit_identical_across_caps_and_threads(
        el in arb_graph(),
        p in 1usize..6,
        threads in 1usize..=4,
        hub_seed in 0u32..1000,
    ) {
        use graphgrind::core::config::{ChunkCap, ExecutorKind};
        use graphgrind::graph::weights::attach_integer;

        // Inject a star: every vertex points at one hub destination, so
        // sub-chunk pre-reduction engages under the small fixed caps.
        let n = el.num_vertices();
        let hub = hub_seed % n as u32;
        let mut edges: Vec<(u32, u32)> = el.iter().collect();
        for s in 0..n as u32 {
            edges.push((s, hub));
        }
        let mut el = EdgeList::from_edges(n, &edges);
        attach_integer(&mut el, 12, 0x5EED ^ hub_seed as u64);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();

        let cfg = |cap: ChunkCap, threads: usize| Config {
            executor: ExecutorKind::Partitioned,
            num_partitions: p,
            domains: 1,
            chunk_edges: cap,
            threads,
            ..small_config()
        };
        // The unsplit reference scan: one chunk per partition, one thread.
        let reference = GraphGrind2::new(&el, cfg(ChunkCap::Fixed(usize::MAX), 1));
        let pr_ref = algorithms::pagerank(&reference, 5);
        let bf_ref = algorithms::bellman_ford(&reference, 0).dist;
        let spmv_ref = algorithms::spmv(&reference, &x);
        for cap in [
            ChunkCap::Fixed(1),
            ChunkCap::Fixed(64),
            ChunkCap::Fixed(usize::MAX),
            ChunkCap::Auto,
        ] {
            let engine = GraphGrind2::new(&el, cfg(cap, threads));
            prop_assert_eq!(
                algorithms::pagerank(&engine, 5),
                pr_ref.clone(),
                "PR {:?} x{}", cap, threads
            );
            prop_assert_eq!(
                algorithms::bellman_ford(&engine, 0).dist,
                bf_ref.clone(),
                "BF {:?} x{}", cap, threads
            );
            prop_assert_eq!(
                algorithms::spmv(&engine, &x),
                spmv_ref.clone(),
                "SpMV {:?} x{}", cap, threads
            );
        }
    }

    /// GG-v2 CC matches union-find on symmetrized random graphs.
    #[test]
    fn cc_matches_reference(el in arb_graph()) {
        let el = symmetrize(&el);
        let engine = GraphGrind2::new(&el, small_config());
        let got = algorithms::cc(&engine);
        prop_assert_eq!(got.label, reference::cc_labels(&el));
    }

    /// GG-v2 PageRank matches the sequential power method.
    #[test]
    fn pagerank_matches_reference(el in arb_graph()) {
        let engine = GraphGrind2::new(&el, small_config());
        let got = algorithms::pagerank(&engine, 5);
        let want = reference::pagerank(&el, 5);
        validate::assert_close_f64(&got, &want, 1e-9, 1e-14);
    }

    /// Frontier representations round-trip: sparse ↔ dense ↔ per-partition
    /// outputs all describe the same active set with the same statistics,
    /// on the scalar word and on the fused word with random non-zero lane
    /// masks ([`check_merges`]).
    #[test]
    fn frontier_representations_roundtrip_through_segments(
        n in 1usize..400,
        seed in 0u64..1000,
        p in 1usize..9,
    ) {
        use graphgrind::core::Frontier;

        let deg: Vec<u32> = (0..n as u32).map(|v| (v ^ seed as u32) % 7).collect();
        let actives: Vec<u32> = (0..n as u32)
            .filter(|v| (v.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 == 0)
            .collect();
        let pool = graphgrind::runtime::pool::Pool::new(2);

        // sparse → dense → sparse.
        let sparse = Frontier::from_sparse(actives.clone(), n, &deg);
        let dense = Frontier::from_dense(sparse.to_bitmap(), &deg, &pool);
        prop_assert_eq!(dense.to_vertex_list(), actives.clone());
        prop_assert_eq!(dense.degree_sum(), sparse.degree_sum());

        let scalar: Vec<(u32, bool)> = actives.iter().map(|&v| (v, true)).collect();
        let merged = check_merges(&scalar, n, p, seed, &deg);
        // segments → bitmap equals the direct densification.
        prop_assert_eq!(merged.to_bitmap(), sparse.to_bitmap());
        let fused: Vec<(u32, u64)> = actives
            .iter()
            .map(|&v| (v, (v as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1)))
            .collect();
        check_merges(&fused, n, p, seed, &deg);
    }

    /// Frontier statistics are consistent between representations.
    #[test]
    fn frontier_statistics_consistent(el in arb_graph(), seed in 0u64..1000) {
        use graphgrind::core::Frontier;
        let n = el.num_vertices();
        let deg = el.out_degrees();
        // Pseudo-random vertex subset.
        let actives: Vec<u32> = (0..n as u32)
            .filter(|v| (v.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 == 0)
            .collect();
        let sparse = Frontier::from_sparse(actives.clone(), n, &deg);
        let pool = graphgrind::runtime::pool::Pool::new(2);
        let dense = Frontier::from_dense(sparse.to_bitmap(), &deg, &pool);
        prop_assert_eq!(sparse.len(), dense.len());
        prop_assert_eq!(sparse.degree_sum(), dense.degree_sum());
        prop_assert_eq!(sparse.density_metric(), dense.density_metric());
        prop_assert_eq!(sparse.to_vertex_list(), dense.to_vertex_list());
    }
}

/// Cuts `pairs` (ascending `(vertex, word)`) at a `p`-way vertex-balanced
/// partition of `0..n` into one output buffer per partition — all dense,
/// all sparse, or alternating — and merges them handed over in ascending,
/// reversed and `seed`-rotated order. Every merge must hold exactly
/// `pairs` with their `len`, `degree_sum` and `lane_bits`, and an
/// all-sparse merge must pay no dense work. Returns the all-dense merge.
fn check_merges<W: graphgrind::core::LaneWord>(
    pairs: &[(u32, W)],
    n: usize,
    p: usize,
    seed: u64,
    deg: &[u32],
) -> graphgrind::core::Frontier<W> {
    use graphgrind::core::{Frontier, OutputRepr, PartitionOutput};
    use graphgrind::runtime::counters::WorkCounters;

    let set = PartitionSet::vertex_balanced(n, p, PartitionBy::Destination);
    let want_degrees: u64 = pairs.iter().map(|&(v, _)| deg[v as usize] as u64).sum();
    let want_bits: u64 = pairs
        .iter()
        .map(|&(_, w)| w.bits().count_ones() as u64)
        .sum();
    let mut all_dense = None;
    for shape in ["dense", "sparse", "mixed"] {
        let rotate = seed as usize % p;
        let orders: [Vec<usize>; 3] = [
            (0..p).collect(),
            (0..p).rev().collect(),
            (0..p).map(|i| (i + rotate) % p).collect(),
        ];
        for order in orders {
            let outputs = order.iter().map(|&i| {
                let dense = shape == "dense" || (shape == "mixed" && i % 2 == 1);
                let repr = if dense {
                    OutputRepr::Dense
                } else {
                    OutputRepr::Sparse
                };
                let range = set.range(i);
                let mut out = PartitionOutput::new(repr, range.clone());
                for &(v, w) in pairs.iter().filter(|(v, _)| range.contains(v)) {
                    out.push(v, w);
                }
                out
            });
            let counters = WorkCounters::new();
            let merged = Frontier::from_partition_outputs(
                outputs.collect(),
                n,
                W::LANES,
                deg,
                &counters,
                None,
            );
            let mut got = Vec::new();
            merged.for_each(|v, w| got.push((v, w)));
            assert_eq!(&got, &pairs, "{} {:?}", shape, order);
            assert_eq!(merged.len(), pairs.len());
            assert_eq!(merged.degree_sum(), want_degrees);
            assert_eq!(merged.lane_bits(), want_bits);
            if shape == "sparse" {
                assert!(merged.is_sparse_repr());
                assert_eq!(counters.merge_words() + counters.lane_union_words(), 0);
            }
            all_dense.get_or_insert(merged);
        }
    }
    all_dense.expect("three shapes merged")
}

/// The runs behind `tests/data/trace_v4.jsonl`, on a small road grid:
/// BFS and a three-lane fused BFS on the partitioned executor, BFS and CC
/// on the monolithic one, and BFS under a forced kernel, so every
/// `RoundKernel` shape and a fused round's lane digests appear. One
/// thread, so the schedule counters read the same on every host. The runs'
/// rounds are numbered as one sequence under the first run's header.
fn record_fixture_trace() -> graphgrind::core::trace::RoundTrace {
    use graphgrind::core::config::ForcedKernel;
    use graphgrind::core::trace::{RoundTrace, TraceHeader};
    let el = graphgrind::graph::generators::grid_road(8, 8, 0.1, 3);
    let partitioned = Config {
        threads: 1,
        ..Config::partitioned_for_tests()
    };
    let monolithic = Config {
        threads: 1,
        ..Config::for_tests()
    };
    let forced = monolithic.clone().with_forced(ForcedKernel::CooNoAtomic);
    let mut rounds = Vec::new();
    for config in [&partitioned, &monolithic, &forced] {
        let engine = GraphGrind2::new(&el, config.clone());
        engine.start_recording();
        let _ = algorithms::bfs(&engine, 0);
        if config.executor == partitioned.executor {
            let _ = algorithms::fused_bfs(&engine, &[0, 9, 40]);
        } else if config.force.is_none() {
            let _ = algorithms::cc(&engine);
        }
        rounds.extend(engine.take_recording());
    }
    for (i, r) in rounds.iter_mut().enumerate() {
        r.round = i as u64;
    }
    RoundTrace {
        header: TraceHeader::new("bfs", "fixture", &partitioned, false),
        rounds,
    }
}

/// A committed recording of [`record_fixture_trace`], written by the
/// format-version-4 code before the trace codec was rewritten: the format
/// is pinned by these bytes, not by the writer and reader agreeing.
fn tiny_trace_jsonl() -> &'static str {
    include_str!("data/trace_v4.jsonl")
}

/// The committed trace reads back and re-writes byte for byte, and a fresh
/// recording of the same runs writes exactly the committed file.
#[test]
fn trace_format_matches_the_committed_fixture() {
    use graphgrind::core::trace::RoundTrace;
    let text = tiny_trace_jsonl();
    let parsed = RoundTrace::from_jsonl(text).expect("the fixture reads");
    assert_eq!(parsed.to_jsonl(), text);
    assert_eq!(record_fixture_trace().to_jsonl(), text);
}

/// Nothing is read before the header is: a round line first, a header
/// without `type` and an empty file are all refused.
#[test]
fn traces_without_a_header_line_are_refused() {
    use graphgrind::core::trace::RoundTrace;
    let text = tiny_trace_jsonl();
    let rounds_only: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
    let untyped = text.replacen("\"type\":\"header\",", "", 1);
    assert_ne!(untyped, text);
    for (trace, want) in [
        (&rounds_only[..], "line 1: expected header line"),
        (&untyped[..], "line 1: expected header line"),
        ("", "empty trace file"),
        ("\n  \n", "empty trace file"),
    ] {
        let err = RoundTrace::from_jsonl(trace).unwrap_err();
        assert!(err.contains(want), "{err}");
    }
}

/// A recording missing a line from its middle is refused where the gap
/// is, instead of pairing each later recorded round with the replay's
/// previous one and reporting it under the wrong round.
#[test]
fn a_round_line_out_of_sequence_is_refused() {
    use graphgrind::core::trace::RoundTrace;
    let mut lines: Vec<&str> = tiny_trace_jsonl().lines().collect();
    let gap = lines.len() / 2;
    lines.remove(gap);
    let err = RoundTrace::from_jsonl(&lines.join("\n")).unwrap_err();
    let (line, round) = (gap + 1, gap - 1);
    assert_eq!(
        err,
        format!("line {line}: expected round {round}, got {}", round + 1)
    );
}

/// Replacements for the header's version number, each with what the
/// refusal names: the version read, or, where the value is not a JSON
/// integer the reader takes, the `version` field or the byte (27) where
/// the value starts.
const WRONG_VERSIONS: [(&str, &str); 6] = [
    ("0", "unsupported trace version 0"),
    ("2", "unsupported trace version 2"),
    ("-3", "unexpected token Some(45) at byte 27"),
    ("3.0", "expected `,` or `}` at byte 28"),
    ("\"3\"", "missing integer field `version`"),
    ("99999999999999999999999", "bad number at byte 27"),
];

/// One hostile edit of `text`, chosen by `kind`, placed by `at` and sized
/// by `size`: a truncation, a single-bit flip, a wrong version, an
/// overlong line, a long multi-byte run, or deep nesting.
fn mutate_trace(text: &str, kind: u8, at: usize, size: u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match kind {
        0 => bytes.truncate(at),
        1 => {
            let i = at.min(bytes.len() - 1);
            bytes[i] ^= 1 << (size % 8);
        }
        2 => {
            let (v, _) = WRONG_VERSIONS[size as usize % WRONG_VERSIONS.len()];
            let current = format!("\"version\":{TRACE_FORMAT_VERSION}");
            return text.replacen(&current, &format!("\"version\":{v}"), 1);
        }
        3 => {
            // A million-byte token: digits (an overflowing number) or a
            // string body, spliced in at `at`.
            let filler = [b'7', b'x'][size as usize % 2];
            bytes.splice(at..at, std::iter::repeat_n(filler, 1 << 20));
        }
        4 => {
            // A million-byte run of 2-, 3- or 4-byte code points, spliced
            // in at `at` or inside the header's first string (quadratic
            // once: every character re-validated the rest of the line).
            let point = ["é", "€", "𝄞"][size as usize % 3];
            let run = point.repeat((1 << 20) / point.len());
            let at = match (size / 3) % 2 {
                0 => at,
                _ => text.find('"').map_or(at, |q| q + 1),
            };
            bytes.splice(at..at, run.bytes());
        }
        _ => {
            let depth = 1_000 + (size % 200_000) as usize;
            let open = [b'[', b'{'][size as usize % 2];
            bytes.splice(at..at, std::iter::repeat_n(open, depth));
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `RoundTrace::from_jsonl` reads bytes from disk: every hostile edit
    /// of a real recording must come back `Ok` or `Err`, never a panic or
    /// a stack overflow.
    #[test]
    fn hostile_traces_never_panic(kind in 0u8..6, at in 0usize..1_000_000, size in 0u64..u64::MAX) {
        use graphgrind::core::trace::RoundTrace;
        let mutated = mutate_trace(tiny_trace_jsonl(), kind, at, size);
        let read = RoundTrace::from_jsonl(&mutated);
        if kind == 2 {
            // A wrong version is refused, and the refusal says so.
            let (_, want) = WRONG_VERSIONS[size as usize % WRONG_VERSIONS.len()];
            prop_assert_ne!(&mutated[..], tiny_trace_jsonl());
            let err = read.expect_err("a wrong version must be refused");
            prop_assert!(err.contains(want), "{}", err);
        }
    }
}
