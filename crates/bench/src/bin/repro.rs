//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--scale F] [--threads N] [--reps N] [--tiny]
//!                    [--partitions N] [--executor monolithic|partitioned]
//!                    [--output auto|sparse|dense] [--chunk N|max|auto]
//!                    [--order source|dest|hilbert]
//!                    [--scenario grid|smallworld|powerlaw]
//!                    [--algo BFS|PR|CC|BF|FUSED] [--fault]
//!
//! experiments: tab1 tab2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!              atomics heuristic reorder record replay all
//! ```
//!
//! `--scale` multiplies the default graph sizes (the synthetic stand-ins
//! of `gg_bench::datasets`); the default 1.0 targets a multi-core
//! workstation. Timings are medians over `--reps` runs (default 3).
//! `--tiny` is the CI smoke configuration (scale 0.01, 1 rep, ≤4
//! threads): numbers are meaningless, but every experiment's code path
//! runs in seconds. Performance is measured by the `benchmark/` package,
//! not here.
//!
//! Every GG-v2 engine an experiment builds starts from one `Config`, made
//! from the global flags; an experiment overrides only what its figure
//! sweeps (partition count, edge order, forced kernel, threads).
//! `--partitions` overrides the GG-v2 partition count wherever an
//! experiment would otherwise use the §IV.G heuristic or a fixed default
//! (tab2, fig9, fig10, record, replay); sweep experiments keep their own
//! sweeps. `--executor partitioned` routes GG-v2 edge maps through the
//! partition-parallel executor (per-partition kernel selection,
//! chunked fan-out) instead of the monolithic Algorithm 2 path; the
//! columns that force a kernel (fig5, fig6, fig7, atomics) run on the
//! monolithic path whatever `--executor` says, because forced kernels
//! exist only there.
//! `--output` forces the partitioned executor's per-partition output
//! representation (sorted vertex lists vs dense bitmap segments).
//! `--order source|dest|hilbert` sorts the COO by one edge order on
//! every experiment (equivalently `Config::with_edge_order`); without it
//! engines keep the default (Hilbert). Only the monolithic path streams
//! that COO, so the flag shapes its dense scans and leaves partitioned
//! rounds untouched.
//!
//! `record` / `replay` are the determinism-debugging pair (not part of
//! `all`, since `replay` needs `record`'s files): `record` runs BFS, PR,
//! CC and BF once each with the engine's round recorder armed and writes
//! `TRACE_<ALGO>.jsonl`; `replay` re-executes the same deterministic
//! workload — `--threads`, `--chunk` and `--partitions` may differ from
//! the recording — and
//! reports the **first diverging round** (round index, partition, field, expected vs
//! got), exiting non-zero on any divergence. `--algo BFS|PR|CC|BF|FUSED`
//! restricts the pair to one algorithm (`FUSED` is the 8-lane fused BFS,
//! which runs on the partitioned executor whatever `--executor` says);
//! `--fault` swaps in the test-only thread-dependent fault op to prove the
//! diagnosis localizes a real divergence. `--scale` and `--scenario` (the
//! input graph, default powerlaw) must match between the two runs (the
//! scenario is recorded in the trace header and checked).

use gg_algorithms::Algorithm;
use gg_bench::datasets::Dataset;
use gg_bench::locality::{fig2_reuse_profile, locality_store, trace, TracedAlgorithm};
use gg_bench::runner::{measure, run_algorithm, EngineKind, Workload};
use gg_bench::{fmt_secs, Table};
use gg_core::config::{ChunkCap, Config, ExecutorKind, ForcedKernel, LayoutPolicy, OutputMode};
use gg_core::engine::GraphGrind2;
use gg_core::heuristic::{suggest_partitions, HeuristicInputs};
use gg_core::trace::{first_divergence, RoundTrace};
use gg_graph::edge_list::EdgeList;
use gg_graph::reorder::EdgeOrder;
use gg_graph::storage;
use gg_memsim::cache::{Cache, CacheConfig};
use gg_memsim::mpki::{InstructionModel, MpkiReport};
use gg_runtime::numa::NumaTopology;

struct Args {
    experiment: String,
    scale: f64,
    threads: usize,
    reps: usize,
    /// Overrides the GG-v2 partition count where experiments pick one.
    partitions: Option<usize>,
    executor: ExecutorKind,
    /// Output-representation policy for the partitioned executor.
    output: OutputMode,
    /// Input graph of `record` (grid | smallworld | powerlaw; default
    /// powerlaw).
    scenario: String,
    /// Chunk-cap policy (`--chunk N|max|auto`; default auto).
    chunk: ChunkCap,
    /// Restrict `record` / `replay` to one algorithm code
    /// (BFS|PR|CC|BF|FUSED).
    algo: Option<String>,
    /// Use the thread-dependent fault op in `record` / `replay`.
    fault: bool,
    /// The COO edge order the monolithic path streams (`--order
    /// source|dest|hilbert`; default the engine's).
    layout: LayoutPolicy,
}

impl Args {
    /// The partition count for non-sweep experiments: the `--partitions`
    /// override when given, otherwise `fallback`.
    fn partitions_or(&self, fallback: usize) -> usize {
        self.partitions.unwrap_or(fallback)
    }

    /// The GG-v2 configuration every experiment starts from: the global
    /// `--threads` / `--executor` / `--output` / `--chunk` / `--order`
    /// flags over the engine defaults, at `partitions` partitions.
    fn config(&self, partitions: usize) -> Config {
        Config {
            threads: self.threads,
            num_partitions: partitions,
            executor: self.executor,
            output_mode: self.output,
            chunk_edges: self.chunk,
            layout: self.layout,
            ..Config::default()
        }
    }
}

/// The value following flag `argv[*i]`, or a usage-style error on a
/// trailing flag. All value-taking flags go through this so `repro
/// --scale` prints one line to stderr and exits 2 instead of panicking
/// with an index-out-of-bounds backtrace.
fn flag_value<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match argv.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        }
    }
}

/// Parses a numeric flag value, printing `"{flag} needs {what}"` to
/// stderr and exiting 2 on garbage — a malformed invocation is a usage
/// error, not an engine panic with a backtrace.
fn parse_flag<T: std::str::FromStr>(value: &str, flag: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs {what}, got '{value}'");
        std::process::exit(2);
    })
}

/// Rejects out-of-range flag values that parse fine but would only blow
/// up deep inside an experiment (`--reps 0` ran forever on a division,
/// `--threads 0` asserted in the pool).
fn require_flag(ok: bool, flag: &str, what: &str, value: &str) {
    if !ok {
        eprintln!("{flag} needs {what}, got '{value}'");
        std::process::exit(2);
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: 1.0,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        reps: 3,
        partitions: None,
        executor: ExecutorKind::Monolithic,
        output: OutputMode::Auto,
        scenario: "powerlaw".to_string(),
        chunk: ChunkCap::Auto,
        algo: None,
        fault: false,
        layout: LayoutPolicy::default(),
    };
    let mut tiny = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let v = flag_value(&argv, &mut i, "--scale");
                args.scale = parse_flag(v, "--scale", "a positive float");
                require_flag(
                    args.scale > 0.0 && args.scale.is_finite(),
                    "--scale",
                    "a positive float",
                    v,
                );
            }
            "--threads" => {
                let v = flag_value(&argv, &mut i, "--threads");
                args.threads = parse_flag(v, "--threads", "a positive integer");
                require_flag(args.threads > 0, "--threads", "a positive integer", v);
            }
            "--reps" => {
                let v = flag_value(&argv, &mut i, "--reps");
                args.reps = parse_flag(v, "--reps", "a positive integer");
                require_flag(args.reps > 0, "--reps", "a positive integer", v);
            }
            "--partitions" => {
                let v = flag_value(&argv, &mut i, "--partitions");
                let n: usize = parse_flag(v, "--partitions", "a positive integer");
                require_flag(n > 0, "--partitions", "a positive integer", v);
                args.partitions = Some(n);
            }
            "--executor" => {
                args.executor = match flag_value(&argv, &mut i, "--executor") {
                    "monolithic" => ExecutorKind::Monolithic,
                    "partitioned" => ExecutorKind::Partitioned,
                    other => {
                        eprintln!("--executor must be monolithic or partitioned, got {other}");
                        std::process::exit(2);
                    }
                };
            }
            "--output" => {
                args.output = match flag_value(&argv, &mut i, "--output") {
                    "auto" => OutputMode::Auto,
                    "sparse" => OutputMode::ForceSparse,
                    "dense" => OutputMode::ForceDense,
                    other => {
                        eprintln!("--output must be auto, sparse or dense, got {other}");
                        std::process::exit(2);
                    }
                };
            }
            "--scenario" => match flag_value(&argv, &mut i, "--scenario") {
                s @ ("grid" | "smallworld" | "powerlaw") => args.scenario = s.to_string(),
                other => {
                    eprintln!("--scenario must be grid, smallworld or powerlaw, got {other}");
                    std::process::exit(2);
                }
            },
            "--chunk" => {
                args.chunk = match flag_value(&argv, &mut i, "--chunk") {
                    "max" => ChunkCap::Fixed(usize::MAX),
                    "auto" => ChunkCap::Auto,
                    v => match v.parse::<usize>() {
                        Ok(n) if n > 0 => ChunkCap::Fixed(n),
                        _ => {
                            eprintln!("--chunk needs a positive integer, max or auto, got {v}");
                            std::process::exit(2);
                        }
                    },
                };
            }
            "--order" => {
                let v = flag_value(&argv, &mut i, "--order");
                args.layout = match EdgeOrder::from_label(v) {
                    Some(order) => LayoutPolicy::Fixed(order),
                    None => {
                        eprintln!("--order must be source, dest or hilbert, got {v}");
                        std::process::exit(2);
                    }
                };
            }
            "--algo" => {
                args.algo = Some(flag_value(&argv, &mut i, "--algo").to_uppercase());
            }
            "--fault" => args.fault = true,
            "--tiny" => tiny = true,
            other if args.experiment.is_empty() && !other.starts_with("--") => {
                args.experiment = other.to_string();
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // Applied after the loop so --tiny clamps the same wherever it appears
    // relative to the other flags.
    if tiny {
        args.scale = 0.01;
        args.reps = 1;
        args.threads = args.threads.min(4);
    }
    args
}

type Experiment = fn(&Args);

/// Every experiment by name, in the order `all` runs them. `record` and
/// `replay` are dispatched by name only: `record` writes trace files and
/// `replay` requires them, so running both blindly inside `all` would
/// either clobber a user's traces or fail on their absence.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("tab1", tab1),
    ("tab2", tab2),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("atomics", atomics),
    ("heuristic", heuristic),
    ("reorder", reorder),
    ("record", record),
    ("replay", replay),
];

fn main() {
    let args = parse_args();
    let selected: Vec<Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| match args.experiment.as_str() {
            "all" => !matches!(*name, "record" | "replay"),
            one => *name == one,
        })
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "usage: repro <{}|all> [--scale F] [--threads N] [--reps N] [--tiny] \
             [--partitions N] [--executor monolithic|partitioned] \
             [--output auto|sparse|dense] [--chunk N|max|auto] \
             [--order source|dest|hilbert] [--scenario grid|smallworld|powerlaw] \
             [--algo BFS|PR|CC|BF|FUSED] [--fault]",
            names.join("|")
        );
        std::process::exit(2);
    }
    println!(
        "# GraphGrind-rs reproduction — scale {}, {} threads, {} reps\n",
        args.scale, args.threads, args.reps
    );
    for run in selected {
        run(&args);
    }
}

/// Table I: data-set characterisation.
fn tab1(args: &Args) {
    println!("## Table I — graph data sets (synthetic stand-ins)\n");
    let mut t = Table::new(&["Graph", "Vertices", "Edges", "Type", "MaxOutDeg", "AvgDeg"]);
    for d in Dataset::all() {
        let (name, s) = d.stats_row(args.scale);
        t.row(vec![
            name,
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            if d.undirected() {
                "undirected"
            } else {
                "directed"
            }
            .into(),
            s.max_out_degree.to_string(),
            format!("{:.1}", s.avg_degree),
        ]);
    }
    t.print();
    println!();
}

/// Table II: algorithm characterisation + observed kernel mix on GG-v2.
fn tab2(args: &Args) {
    println!("## Table II — algorithms and the traversal mix GG-v2 chose\n");
    let base = Dataset::Twitter.build(args.scale * 0.25);
    let mut t = Table::new(&[
        "Code",
        "V/E",
        "Declared dir",
        "Sparse rounds",
        "Medium rounds",
        "Dense rounds",
    ]);
    let config = args.config(args.partitions_or(64));
    for algo in Algorithm::all() {
        let w = Workload::prepare(&base, algo);
        let fwd = GraphGrind2::new(&w.el, config.clone());
        let bwd = w
            .el_t
            .as_ref()
            .map(|tr| GraphGrind2::new(tr, config.clone()));
        run_algorithm(&fwd, bwd.as_ref(), &w);
        // The monolithic path counts one kernel per edge map; the
        // partitioned executor counts one selection per partition (the
        // medium class folds into the dense pull there).
        let (s, m, d) = match args.executor {
            ExecutorKind::Monolithic => fwd.kernel_counts().snapshot(),
            ExecutorKind::Partitioned => {
                let (ps, pd, _) = fwd.kernel_counts().partition_snapshot();
                (ps, 0, pd)
            }
        };
        t.row(vec![
            algo.code().into(),
            if algo.vertex_oriented() { "V" } else { "E" }.into(),
            format!("{:?}", algo.preferred_direction()),
            s.to_string(),
            m.to_string(),
            d.to_string(),
        ]);
    }
    t.print();
    println!();
}

/// Figure 2: reuse-distance distribution vs partition count.
fn fig2(args: &Args) {
    println!(
        "## Figure 2 — reuse distances of next-array updates (PRDelta push, partitioned CSR)\n"
    );
    let el = Dataset::Twitter.build(args.scale * 0.25);
    let parts = [1usize, 4, 8, 24, 192, 384];
    let profiles: Vec<_> = parts
        .iter()
        .map(|&p| fig2_reuse_profile(&locality_store(&el, p, EdgeOrder::Source)))
        .collect();
    let max_buckets = profiles
        .iter()
        .map(|p| p.histogram.buckets().len())
        .max()
        .unwrap_or(0);
    let mut headers: Vec<String> = vec!["dist<=".into()];
    headers.extend(parts.iter().map(|p| format!("P={p}")));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);
    for b in 0..max_buckets {
        let upper = gg_memsim::histogram::LogHistogram::bucket_range(b).1;
        let mut row = vec![upper.to_string()];
        for p in &profiles {
            row.push(
                p.histogram
                    .buckets()
                    .get(b)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            );
        }
        t.row(row);
    }
    t.print();
    let mut s = Table::new(&["partitions", "p50", "p95", "max"]);
    for (i, p) in profiles.iter().enumerate() {
        s.row(vec![
            parts[i].to_string(),
            p.histogram.quantile_upper(0.5).to_string(),
            p.histogram.quantile_upper(0.95).to_string(),
            p.histogram.max_bucket_upper().to_string(),
        ]);
    }
    println!("\nSummary (distance quantile upper bounds):");
    s.print();
    println!();
}

/// Figure 3: replication factor vs partition count.
fn fig3(args: &Args) {
    println!("## Figure 3 — replication factor (partitioning by destination)\n");
    let parts = [4usize, 8, 16, 32, 64, 128, 192, 256, 320, 384];
    let graphs = [
        Dataset::Twitter,
        Dataset::Friendster,
        Dataset::Orkut,
        Dataset::UsaRoad,
        Dataset::LiveJournal,
        Dataset::Powerlaw,
    ];
    let mut headers: Vec<String> = vec!["partitions".into()];
    headers.extend(graphs.iter().map(|g| g.name().to_string()));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);
    let sweeps: Vec<Vec<(usize, f64)>> = graphs
        .iter()
        .map(|g| {
            let el = g.build(args.scale);
            gg_graph::replication::replication_sweep(&el, &parts)
        })
        .collect();
    for (i, &p) in parts.iter().enumerate() {
        let mut row = vec![p.to_string()];
        for sweep in &sweeps {
            row.push(format!("{:.2}", sweep[i].1));
        }
        t.row(row);
    }
    t.print();
    println!();
}

/// Figure 4: storage size vs partition count.
fn fig4(args: &Args) {
    println!("## Figure 4 — graph storage size [GiB] vs partitions\n");
    let parts = [4usize, 16, 48, 96, 192, 384];
    for d in [Dataset::Twitter, Dataset::Friendster] {
        println!("### {}", d.name());
        let el = d.build(args.scale);
        let rows = storage::storage_sweep(&el, &parts);
        let mut t = Table::new(&["partitions", "r(p)", "CSR", "CSR pruned", "COO", "CSC"]);
        for r in rows {
            t.row(vec![
                r.partitions.to_string(),
                format!("{:.2}", r.replication),
                format!("{:.4}", storage::to_gib(r.csr_unpruned)),
                format!("{:.4}", storage::to_gib(r.csr_pruned)),
                format!("{:.4}", storage::to_gib(r.coo)),
                format!("{:.4}", storage::to_gib(r.csc)),
            ]);
        }
        t.print();
        println!();
    }
}

fn forced_configs() -> [(&'static str, ForcedKernel); 4] {
    [
        ("CSR+a", ForcedKernel::CsrAtomic),
        ("CSC+na", ForcedKernel::CscNoAtomic),
        ("COO+na", ForcedKernel::CooNoAtomic),
        ("COO+a", ForcedKernel::CooAtomic),
    ]
}

fn layout_sweep(
    args: &Args,
    dataset: Dataset,
    algos: &[Algorithm],
    parts: &[usize],
    csr_cap: usize,
) {
    let base = dataset.build(args.scale * 0.5);
    for &algo in algos {
        println!("### {} on {}", algo.code(), dataset.name());
        let w = Workload::prepare(&base, algo);
        let mut headers: Vec<String> = vec!["partitions".into()];
        headers.extend(forced_configs().iter().map(|(n, _)| n.to_string()));
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&hdr_refs);
        for &p in parts {
            let mut row = vec![p.to_string()];
            for (_, force) in forced_configs() {
                // The paper runs out of memory for partitioned CSR beyond
                // 48 partitions on Twitter (§IV.A); mirror the cap.
                if force == ForcedKernel::CsrAtomic && p > csr_cap {
                    row.push("-".into());
                    continue;
                }
                let config = args.config(p).with_forced(force);
                row.push(fmt_secs(measure(EngineKind::Gg2, &w, &config, args.reps)));
            }
            t.row(row);
        }
        t.print();
        println!();
    }
}

/// Figure 5: execution time vs partitions per layout, 8 algorithms.
fn fig5(args: &Args) {
    println!("## Figure 5 — execution time vs partitions and layout (Twitter stand-in)\n");
    let parts = [4usize, 16, 48, 192, 384, 480];
    layout_sweep(args, Dataset::Twitter, &Algorithm::all(), &parts, 48);
}

/// Figure 6: unrestricted-memory emulation on small graphs.
fn fig6(args: &Args) {
    println!("## Figure 6 — small graphs, partitioned CSR unrestricted (BFS, BP)\n");
    let parts = [4usize, 16, 48, 192, 384];
    for d in [Dataset::LiveJournal, Dataset::YahooMem] {
        layout_sweep(
            args,
            d,
            &[Algorithm::Bfs, Algorithm::Bp],
            &parts,
            usize::MAX,
        );
    }
}

/// Figure 7: COO edge sort order.
fn fig7(args: &Args) {
    println!("## Figure 7 — COO edge sort order, normalised to Source order (384 partitions)\n");
    let algos = [
        Algorithm::Cc,
        Algorithm::Pr,
        Algorithm::PrDelta,
        Algorithm::Spmv,
        Algorithm::Bp,
    ];
    for d in [Dataset::Twitter, Dataset::Friendster] {
        println!("### {}", d.name());
        let base = d.build(args.scale * 0.5);
        let mut t = Table::new(&["Algorithm", "Source", "Hilbert", "Destination"]);
        for algo in algos {
            let w = Workload::prepare(&base, algo);
            let mut times = Vec::new();
            for order in [
                EdgeOrder::Source,
                EdgeOrder::Hilbert,
                EdgeOrder::Destination,
            ] {
                let config = args
                    .config(384)
                    .with_edge_order(order)
                    .with_forced(ForcedKernel::CooNoAtomic);
                times.push(measure(EngineKind::Gg2, &w, &config, args.reps));
            }
            let base_t = times[0];
            t.row(vec![
                algo.code().into(),
                "1.000".into(),
                format!("{:.3}", times[1] / base_t),
                format!("{:.3}", times[2] / base_t),
            ]);
        }
        t.print();
        println!();
    }
}

/// Figure 8: simulated LLC MPKI vs partitions, with the cache scaled to
/// preserve the paper's data-footprint:LLC ratio (their Twitter working
/// set is ~10x the 30 MiB LLC; reproduction graphs are far smaller).
/// The trace interleaves `threads` concurrent workers' streams — it is
/// the *aggregate* working set of the running partitions that must fit.
fn fig8(args: &Args) {
    println!("## Figure 8 — simulated LLC MPKI vs partitions (parallel interleaved trace)\n");
    println!(
        "Source-ordered COO isolates the partitioning effect; a Hilbert\n\
         companion table shows that at reproduction scale Hilbert order\n\
         already captures most locality by itself (the Figure 7 overlap).\n"
    );
    let parts = [4usize, 16, 48, 96, 192, 384];
    let algos = [
        ("PR", TracedAlgorithm::PageRank),
        ("BF", TracedAlgorithm::BellmanFord),
        ("BFS", TracedAlgorithm::Bfs),
    ];
    let threads = args.threads.min(48);
    for d in [Dataset::Twitter, Dataset::Friendster] {
        let mut el = d.build(args.scale * 0.25);
        gg_graph::weights::attach_integer(&mut el, 16, 0xF16);
        let footprint = (el.num_vertices() * 16) as u64;
        let llc = CacheConfig::scaled_llc(footprint, 4);
        println!(
            "### {} ({} workers, LLC model {} KiB)",
            d.name(),
            threads,
            llc.size_bytes / 1024
        );
        for order in [EdgeOrder::Source, EdgeOrder::Hilbert] {
            println!("edge order: {}", order.label());
            let mut headers: Vec<String> = vec!["partitions".into()];
            headers.extend(algos.iter().map(|(n, _)| n.to_string()));
            let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            let mut t = Table::new(&hdr_refs);
            for &p in &parts {
                let store = locality_store(&el, p, order);
                let mut row = vec![p.to_string()];
                for &(_, algo) in &algos {
                    let mut cache = Cache::new(llc);
                    let work = trace(&store, algo, threads, &mut cache);
                    let report = MpkiReport::new(
                        cache.stats(),
                        InstructionModel::default(),
                        work.edges,
                        work.vertices,
                    );
                    row.push(format!("{:.2}", report.mpki()));
                }
                t.row(row);
            }
            t.print();
            println!();
        }
    }
}

/// Figure 9: four engines, eight algorithms, eight graphs.
fn fig9(args: &Args) {
    println!("## Figure 9 — execution time (s): Ligra / Polymer / GG-v1 / GG-v2\n");
    for d in Dataset::all() {
        println!("### {}", d.name());
        let base = d.build(args.scale * 0.5);
        // GG-v2's partition count comes from the §IV.G heuristic (the
        // paper hand-tunes 384 for billion-edge graphs).
        let p = suggest_partitions(&HeuristicInputs::new(
            base.num_vertices(),
            base.num_edges(),
            args.threads,
            NumaTopology::paper_machine(),
        ));
        let mut t = Table::new(&[
            "Algorithm",
            "L",
            "P",
            "GG-v1",
            "GG-v2",
            "GG-v2 speedup vs L",
        ]);
        for algo in Algorithm::all() {
            let w = Workload::prepare(&base, algo);
            let config = args.config(args.partitions_or(p));
            let times: Vec<f64> = EngineKind::all()
                .iter()
                .map(|&k| measure(k, &w, &config, args.reps))
                .collect();
            t.row(vec![
                algo.code().into(),
                fmt_secs(times[0]),
                fmt_secs(times[1]),
                fmt_secs(times[2]),
                fmt_secs(times[3]),
                format!("{:.2}x", times[0] / times[3].max(1e-9)),
            ]);
        }
        t.print();
        println!();
    }
}

/// Figure 10: thread scalability of PRDelta.
fn fig10(args: &Args) {
    println!("## Figure 10 — PRDelta scalability vs threads\n");
    let max_threads = args.threads;
    let mut threads = vec![4usize, 8, 16, 24, 48];
    threads.retain(|&t| t <= max_threads);
    if threads.is_empty() {
        threads.push(max_threads);
    }
    for d in [Dataset::Twitter, Dataset::Friendster] {
        println!("### {}", d.name());
        let base = d.build(args.scale * 0.5);
        let w = Workload::prepare(&base, Algorithm::PrDelta);
        let mut t = Table::new(&["threads", "L", "P", "GG-v1", "GG-v2"]);
        for &th in &threads {
            let p = suggest_partitions(&HeuristicInputs::new(
                base.num_vertices(),
                base.num_edges(),
                th,
                NumaTopology::paper_machine(),
            ));
            let config = args.config(args.partitions_or(p)).with_threads(th);
            let mut row = vec![th.to_string()];
            for k in EngineKind::all() {
                row.push(fmt_secs(measure(k, &w, &config, args.reps)));
            }
            t.row(row);
        }
        t.print();
        println!();
    }
}

/// Extension ablation (§IV.G): does the automatic partition-count
/// heuristic land near the empirical optimum of a full sweep?
fn heuristic(args: &Args) {
    println!("## Heuristic ablation — suggested partition count vs sweep (PR, GG-v2)\n");
    for d in [Dataset::Twitter, Dataset::UsaRoad] {
        let base = d.build(args.scale * 0.5);
        let w = Workload::prepare(&base, Algorithm::Pr);
        let suggested = suggest_partitions(&HeuristicInputs::new(
            base.num_vertices(),
            base.num_edges(),
            args.threads,
            NumaTopology::paper_machine(),
        ));
        println!(
            "### {} (n = {}, m = {}; heuristic suggests P = {})",
            d.name(),
            base.num_vertices(),
            base.num_edges(),
            suggested
        );
        let mut t = Table::new(&["partitions", "time (s)", ""]);
        let mut best = (0usize, f64::INFINITY);
        let mut sweep: Vec<(usize, f64)> = Vec::new();
        for p in [4usize, 16, 48, 96, 192, 384, suggested] {
            if sweep.iter().any(|&(q, _)| q == p) {
                continue;
            }
            let time = measure(EngineKind::Gg2, &w, &args.config(p), args.reps);
            if time < best.1 {
                best = (p, time);
            }
            sweep.push((p, time));
        }
        sweep.sort_unstable_by_key(|&(p, _)| p);
        for (p, time) in sweep {
            let mark = if p == suggested && p == best.0 {
                "<- suggested & best"
            } else if p == suggested {
                "<- suggested"
            } else if p == best.0 {
                "<- best"
            } else {
                ""
            };
            t.row(vec![p.to_string(), fmt_secs(time), mark.into()]);
        }
        t.print();
        println!();
    }
}

/// Extension ablation (related work): degree-ordered relabeling vs
/// partitioning as locality mechanisms, and their combination.
fn reorder(args: &Args) {
    println!("## Reordering ablation — degree relabeling vs partitioning (PR, GG-v2)\n");
    let base = Dataset::Twitter.build(args.scale * 0.5);
    let perm = gg_graph::ops::degree_order_permutation(&base);
    let relabeled = gg_graph::ops::relabel(&base, &perm);
    let mut t = Table::new(&["configuration", "time (s)"]);
    for (label, el, p) in [
        ("original labels, P=4", &base, 4usize),
        ("original labels, P=192", &base, 192),
        ("degree-relabeled, P=4", &relabeled, 4),
        ("degree-relabeled, P=192", &relabeled, 192),
    ] {
        let w = Workload::prepare(el, Algorithm::Pr);
        t.row(vec![
            label.into(),
            fmt_secs(measure(EngineKind::Gg2, &w, &args.config(p), args.reps)),
        ]);
    }
    t.print();
    println!();
}

/// §III.C / §IV.A: speedup from removing atomics (COO+a vs COO+na).
fn atomics(args: &Args) {
    println!("## Atomics ablation — COO+a vs COO+na at 48+ partitions (paper: 6.1-23.7%)\n");
    let base = Dataset::Twitter.build(args.scale * 0.5);
    let mut t = Table::new(&["Algorithm", "COO+a", "COO+na", "speedup"]);
    for algo in Algorithm::all() {
        let w = Workload::prepare(&base, algo);
        let mut times = Vec::new();
        for force in [ForcedKernel::CooAtomic, ForcedKernel::CooNoAtomic] {
            let config = args.config(96).with_forced(force);
            times.push(measure(EngineKind::Gg2, &w, &config, args.reps));
        }
        t.row(vec![
            algo.code().into(),
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            format!("{:+.1}%", (times[0] / times[1] - 1.0) * 100.0),
        ]);
    }
    t.print();
    println!();
}

/// One `record` / `replay` leg: the fault op, the 8-lane fused BFS or
/// one algorithm, in `TRACE_<code>.jsonl` (`fault`, `FUSED` or the
/// algorithm's code). Its lines print the name its trace header records.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    Fault,
    Fused,
    Algo(Algorithm),
}

impl Leg {
    /// The file the leg's trace is written to and read from.
    fn path(self) -> String {
        let code = match self {
            Leg::Fault => "fault",
            Leg::Fused => "FUSED",
            Leg::Algo(a) => a.code(),
        };
        format!("TRACE_{code}.jsonl")
    }

    /// Runs the leg once with the round recorder armed.
    fn run(self, el: &EdgeList, config: &Config, scenario: &str) -> RoundTrace {
        use gg_bench::replay::{record_algorithm, record_fault, record_multi_source};
        match self {
            Leg::Fault => record_fault(el, config, scenario),
            Leg::Fused => record_multi_source(el, config, scenario),
            Leg::Algo(a) => record_algorithm(&Workload::prepare(el, a), config, scenario),
        }
    }
}

/// The legs `--fault` and `--algo` select: the fault op alone, the fused
/// BFS alone, or BFS, PR, CC and BF (or the one `--algo` names).
fn legs(args: &Args) -> Vec<Leg> {
    let wanted = args.algo.as_deref();
    if args.fault || wanted == Some("FUSED") {
        return vec![if args.fault { Leg::Fault } else { Leg::Fused }];
    }
    let all = gg_bench::replay::replay_algorithms().into_iter();
    let picked: Vec<Leg> = all
        .filter(|a| wanted.is_none_or(|code| a.code() == code))
        .map(Leg::Algo)
        .collect();
    if picked.is_empty() {
        let got = wanted.unwrap_or_default();
        eprintln!("--algo must be one of BFS, PR, CC, BF, FUSED; got {got}");
        std::process::exit(2);
    }
    picked
}

/// Reports an error from outside the program — a missing, unreadable or
/// malformed trace file — and exits 2 (a divergence exits 1).
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `repro record`: run each selected leg once with the round recorder
/// armed and write its `TRACE_<code>.jsonl`.
fn record(args: &Args) {
    let scenario = args.scenario.as_str();
    let config = args.config(args.partitions_or(16));
    println!(
        "## Record — {scenario} scenario, {} threads, {} partitions, {:?} chunk cap\n",
        config.threads, config.num_partitions, config.chunk_edges
    );
    let el = gg_bench::replay::scenario_graph(scenario, args.scale);
    for leg in legs(args) {
        let trace = leg.run(&el, &config, scenario);
        let path = leg.path();
        if let Err(e) = std::fs::write(&path, trace.to_jsonl()) {
            fail(format!("writing {path}: {e}"));
        }
        let (name, n) = (&trace.header.algorithm, trace.rounds.len());
        println!("{name}: {n} rounds -> {path}");
    }
}

/// `repro replay`: re-execute each selected leg under the *current*
/// configuration and diff its trace against the recorded file. Exits 1
/// after reporting every leg if any diverged.
fn replay(args: &Args) {
    let config = args.config(args.partitions_or(16));
    println!(
        "## Replay — {} threads, {} partitions, {:?} chunk cap\n",
        config.threads, config.num_partitions, config.chunk_edges
    );
    let mut diverged = false;
    for leg in legs(args) {
        let path = leg.path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("reading {path} (run `repro record` first): {e}")));
        let recorded =
            RoundTrace::from_jsonl(&text).unwrap_or_else(|e| fail(format!("parsing {path}: {e}")));
        let (name, scenario) = (&recorded.header.algorithm, &recorded.header.scenario);
        let el = gg_bench::replay::scenario_graph(scenario, args.scale);
        // The fault op's divergence is schedule-dependent: a multi-thread
        // replay *could* (rarely) execute every update on one worker and
        // reproduce the honest trace, so it gets a few attempts.
        let attempts = if leg == Leg::Fault { 5 } else { 1 };
        let found = (1..=attempts).find_map(|attempt| {
            let replayed = leg.run(&el, &config, scenario);
            first_divergence(&recorded, &replayed).map(|d| (attempt, d))
        });
        diverged |= found.is_some();
        let rounds = recorded.rounds.len();
        match found {
            Some((attempt, d)) if attempts > 1 => {
                println!("{name}: DIVERGED (attempt {attempt}): {d}")
            }
            Some((_, d)) => println!("{name}: DIVERGED: {d}"),
            None if attempts > 1 => println!("{name}: no divergence in {attempts} attempts"),
            None => println!("{name}: ok ({rounds} rounds bit-identical)"),
        }
    }
    if diverged {
        std::process::exit(1);
    }
}
