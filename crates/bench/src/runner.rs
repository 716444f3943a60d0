//! Engine construction and algorithm dispatch for the experiments.

use gg_algorithms::{Algorithm, BpParams, PrDeltaParams};
use gg_baselines::{GraphGrind1, Ligra, Polymer};
use gg_core::config::{ChunkCap, Config, ExecutorKind, ForcedKernel, LayoutPolicy, OutputMode};
use gg_core::engine::{Engine, GraphGrind2};
use gg_graph::edge_list::EdgeList;
use gg_graph::ops::{symmetrize, transpose};
use gg_graph::properties::GraphStats;
use gg_runtime::numa::NumaTopology;

/// The four systems of Figure 9/10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Ligra (L).
    Ligra,
    /// Polymer (P).
    Polymer,
    /// GraphGrind-v1 (GG-v1).
    Gg1,
    /// GraphGrind-v2 (GG-v2) — this paper.
    Gg2,
}

impl EngineKind {
    /// All engines in the paper's legend order (L, P, GG-v1, GG-v2).
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::Ligra,
            EngineKind::Polymer,
            EngineKind::Gg1,
            EngineKind::Gg2,
        ]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Ligra => "L",
            EngineKind::Polymer => "P",
            EngineKind::Gg1 => "GG-v1",
            EngineKind::Gg2 => "GG-v2",
        }
    }
}

/// Per-run knobs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads.
    pub threads: usize,
    /// GG-v2 partition count (the paper's default sweet spot is 384).
    pub partitions: usize,
    /// GG-v2 COO edge order (`repro --order source|dest|hilbert`): shapes
    /// the COO that the monolithic path streams.
    pub layout: LayoutPolicy,
    /// GG-v2 forced kernel (Figure 5/6 ablations; monolithic path only).
    pub force: Option<ForcedKernel>,
    /// GG-v2 "+a" dense path.
    pub use_atomics: bool,
    /// GG-v2 execution path (`repro --executor partitioned` routes edge
    /// maps through the partition-parallel executor).
    pub executor: ExecutorKind,
    /// GG-v2 output-representation policy (`repro --output sparse|dense`
    /// forces the planner's per-partition output buffers).
    pub output: OutputMode,
    /// GG-v2 chunk-cap policy (`repro --chunk N|max|auto`;
    /// `Fixed(usize::MAX)` = one chunk per partition, `Auto` = adaptive
    /// per-partition cap).
    pub chunk_edges: ChunkCap,
}

impl RunConfig {
    /// Default configuration at `threads` threads.
    pub fn new(threads: usize) -> Self {
        RunConfig {
            threads,
            partitions: 384,
            layout: LayoutPolicy::default(),
            force: None,
            use_atomics: false,
            executor: ExecutorKind::Monolithic,
            output: OutputMode::Auto,
            chunk_edges: ChunkCap::Auto,
        }
    }

    fn gg2_config(&self) -> Config {
        let mut cfg = Config {
            threads: self.threads,
            num_partitions: self.partitions,
            numa: NumaTopology::paper_machine(),
            layout: self.layout,
            use_atomics_dense: self.use_atomics,
            executor: self.executor,
            output_mode: self.output,
            chunk_edges: self.chunk_edges,
            ..Config::default()
        };
        if let Some(f) = self.force {
            cfg = cfg.with_forced(f);
        }
        cfg
    }
}

/// A fully prepared input for one (graph, algorithm) cell: weights,
/// auxiliary vectors and the transpose where needed.
pub struct Workload {
    /// The (possibly weighted / symmetrized) edge list the engine runs on.
    pub el: EdgeList,
    /// Transposed edge list (BC only).
    pub el_t: Option<EdgeList>,
    /// BP priors.
    pub priors: Vec<f64>,
    /// SPMV input vector.
    pub x: Vec<f64>,
    /// Traversal source (max-out-degree vertex, so BFS/BC/BF reach a large
    /// fraction of skewed graphs).
    pub source: u32,
    /// The algorithm this workload was prepared for.
    pub algo: Algorithm,
}

impl Workload {
    /// Prepares the input for `algo`: attaches weights for BF/SPMV,
    /// symmetrizes for CC, transposes for BC, and derives priors / vectors
    /// deterministically.
    pub fn prepare(base: &EdgeList, algo: Algorithm) -> Workload {
        let mut el = match algo {
            Algorithm::Cc => {
                if GraphStats::compute(base).symmetric {
                    base.clone()
                } else {
                    symmetrize(base)
                }
            }
            _ => base.clone(),
        };
        match algo {
            Algorithm::Bf => gg_graph::weights::attach_integer(&mut el, 16, 0xB0F),
            Algorithm::Spmv => gg_graph::weights::attach_uniform(&mut el, 0.1, 1.0, 0x57),
            _ => {}
        }
        let el_t = matches!(algo, Algorithm::Bc).then(|| transpose(&el));
        let n = el.num_vertices();
        let deg = el.out_degrees();
        let source = (0..n as u32).max_by_key(|&v| deg[v as usize]).unwrap_or(0);
        Workload {
            priors: gg_algorithms::bp::random_priors(n, 0xBE11EF),
            x: (0..n).map(|i| 1.0 / (i + 1) as f64).collect(),
            el,
            el_t,
            source,
            algo,
        }
    }
}

/// Canonical result vectors of one algorithm run, used by the smoke
/// differential (`repro smoke`) to compare executors and output
/// representations.
///
/// `ints` holds order-independent integer outputs (BFS/BC levels, CC
/// labels) that must agree **exactly** across every configuration;
/// `floats` holds floating-point outputs whose accumulation order differs
/// between the monolithic kernels (COO/CSR order) and the partitioned
/// kernels (CSC order), so cross-*executor* agreement is to tolerance —
/// but cross-*representation* agreement (sparse vs dense output buffers
/// on the same executor) is bitwise.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgoOutput {
    /// Exactly comparable integer outputs.
    pub ints: Vec<u64>,
    /// Floating-point outputs (compared bitwise or to tolerance, per the
    /// caller's contract).
    pub floats: Vec<f64>,
}

impl AlgoOutput {
    /// Maximum relative error between the float vectors (0.0 when both are
    /// empty; infinite on length mismatch).
    pub fn max_rel_error(&self, other: &AlgoOutput) -> f64 {
        if self.floats.len() != other.floats.len() {
            return f64::INFINITY;
        }
        self.floats
            .iter()
            .zip(&other.floats)
            .map(|(a, b)| {
                let scale = a.abs().max(b.abs()).max(1e-30);
                (a - b).abs() / scale
            })
            .fold(0.0, f64::max)
    }
}

/// Runs one (already-built) engine on the workload once and returns the
/// canonical output vectors. `bwd` must be an engine over the transpose
/// for BC (ignored otherwise).
pub fn run_algorithm_output<E: Engine>(fwd: &E, bwd: Option<&E>, w: &Workload) -> AlgoOutput {
    match w.algo {
        Algorithm::Bfs => {
            let r = gg_algorithms::bfs(fwd, w.source);
            AlgoOutput {
                ints: r.level.iter().map(|&l| l as u64).collect(),
                floats: Vec::new(),
            }
        }
        Algorithm::Bc => {
            let bwd = bwd.expect("BC needs a transpose engine");
            let r = gg_algorithms::bc(fwd, bwd, w.source);
            AlgoOutput {
                ints: r.level.iter().map(|&l| l as u64).collect(),
                floats: r.sigma.iter().chain(&r.dependency).copied().collect(),
            }
        }
        Algorithm::Cc => {
            let r = gg_algorithms::cc(fwd);
            AlgoOutput {
                ints: r.label.iter().map(|&l| l as u64).collect(),
                floats: Vec::new(),
            }
        }
        Algorithm::Pr => AlgoOutput {
            ints: Vec::new(),
            floats: gg_algorithms::pagerank(fwd, 10),
        },
        Algorithm::PrDelta => AlgoOutput {
            ints: Vec::new(),
            floats: gg_algorithms::pagerank_delta(fwd, PrDeltaParams::default()).rank,
        },
        Algorithm::Spmv => AlgoOutput {
            ints: Vec::new(),
            floats: gg_algorithms::spmv(fwd, &w.x),
        },
        Algorithm::Bf => {
            let r = gg_algorithms::bellman_ford(fwd, w.source);
            AlgoOutput {
                ints: Vec::new(),
                floats: r.dist.iter().map(|&d| d as f64).collect(),
            }
        }
        Algorithm::Bp => AlgoOutput {
            ints: Vec::new(),
            floats: gg_algorithms::bp(fwd, &w.priors, BpParams::default()),
        },
    }
}

/// Builds a GG-v2 engine pair (forward + BC transpose) for `rc` and runs
/// the workload once, returning the canonical outputs.
pub fn gg2_output(w: &Workload, rc: &RunConfig) -> AlgoOutput {
    let cfg = rc.gg2_config();
    let fwd = GraphGrind2::new(&w.el, cfg.clone());
    let bwd = w.el_t.as_ref().map(|t| GraphGrind2::new(t, cfg.clone()));
    run_algorithm_output(&fwd, bwd.as_ref(), w)
}

/// Runs one (already-built) engine on the workload once. `bwd` must be an
/// engine over the transpose for BC (ignored otherwise).
pub fn run_algorithm<E: Engine>(fwd: &E, bwd: Option<&E>, w: &Workload) {
    match w.algo {
        Algorithm::Bfs => {
            let _ = gg_algorithms::bfs(fwd, w.source);
        }
        Algorithm::Bc => {
            let bwd = bwd.expect("BC needs a transpose engine");
            let _ = gg_algorithms::bc(fwd, bwd, w.source);
        }
        Algorithm::Cc => {
            let _ = gg_algorithms::cc(fwd);
        }
        Algorithm::Pr => {
            let _ = gg_algorithms::pagerank(fwd, 10);
        }
        Algorithm::PrDelta => {
            let _ = gg_algorithms::pagerank_delta(fwd, PrDeltaParams::default());
        }
        Algorithm::Spmv => {
            let _ = gg_algorithms::spmv(fwd, &w.x);
        }
        Algorithm::Bf => {
            let _ = gg_algorithms::bellman_ford(fwd, w.source);
        }
        Algorithm::Bp => {
            let _ = gg_algorithms::bp(fwd, &w.priors, BpParams::default());
        }
    }
}

/// Builds the requested engine (and transpose engine when BC requires it)
/// and returns the median wall-clock seconds of `reps` algorithm runs.
/// Engine construction is not timed, matching the paper's methodology.
pub fn measure(kind: EngineKind, w: &Workload, rc: &RunConfig, reps: usize) -> f64 {
    match kind {
        EngineKind::Ligra => {
            let fwd = Ligra::new(&w.el, rc.threads);
            let bwd = w.el_t.as_ref().map(|t| Ligra::new(t, rc.threads));
            crate::time_median(reps, || run_algorithm(&fwd, bwd.as_ref(), w))
        }
        EngineKind::Polymer => {
            let fwd = Polymer::paper_default(&w.el, rc.threads);
            let bwd = w
                .el_t
                .as_ref()
                .map(|t| Polymer::paper_default(t, rc.threads));
            crate::time_median(reps, || run_algorithm(&fwd, bwd.as_ref(), w))
        }
        EngineKind::Gg1 => {
            let fwd = GraphGrind1::paper_default(&w.el, rc.threads);
            let bwd = w
                .el_t
                .as_ref()
                .map(|t| GraphGrind1::paper_default(t, rc.threads));
            crate::time_median(reps, || run_algorithm(&fwd, bwd.as_ref(), w))
        }
        EngineKind::Gg2 => {
            let cfg = rc.gg2_config();
            let fwd = GraphGrind2::new(&w.el, cfg.clone());
            let bwd = w.el_t.as_ref().map(|t| GraphGrind2::new(t, cfg.clone()));
            crate::time_median(reps, || run_algorithm(&fwd, bwd.as_ref(), w))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_graph::generators;

    fn tiny_graph() -> EdgeList {
        generators::rmat(8, 2000, generators::RmatParams::skewed(), 99)
    }

    #[test]
    fn workload_prepares_per_algorithm() {
        let base = tiny_graph();
        let bf = Workload::prepare(&base, Algorithm::Bf);
        assert!(bf.el.is_weighted());
        let cc = Workload::prepare(&base, Algorithm::Cc);
        assert!(GraphStats::compute(&cc.el).symmetric);
        let bc = Workload::prepare(&base, Algorithm::Bc);
        assert!(bc.el_t.is_some());
        let pr = Workload::prepare(&base, Algorithm::Pr);
        assert!(pr.el_t.is_none());
        assert!(!pr.el.is_weighted());
        // Source is the max-out-degree vertex.
        let deg = pr.el.out_degrees();
        assert_eq!(deg[pr.source as usize], *deg.iter().max().unwrap());
    }

    #[test]
    fn measure_runs_every_engine_algorithm_pair() {
        let base = tiny_graph();
        let rc = RunConfig {
            partitions: 8,
            ..RunConfig::new(2)
        };
        for algo in Algorithm::all() {
            let w = Workload::prepare(&base, algo);
            for kind in EngineKind::all() {
                let t = measure(kind, &w, &rc, 1);
                assert!(t >= 0.0, "{kind:?} {algo:?}");
            }
        }
    }

    #[test]
    fn partitioned_executor_runs_every_algorithm() {
        let base = tiny_graph();
        let rc = RunConfig {
            partitions: 8,
            executor: ExecutorKind::Partitioned,
            ..RunConfig::new(2)
        };
        for algo in Algorithm::all() {
            let w = Workload::prepare(&base, algo);
            let t = measure(EngineKind::Gg2, &w, &rc, 1);
            assert!(t >= 0.0, "{algo:?}");
        }
    }

    #[test]
    fn forced_kernels_run() {
        let base = tiny_graph();
        for force in [
            ForcedKernel::CsrAtomic,
            ForcedKernel::CscNoAtomic,
            ForcedKernel::CooAtomic,
            ForcedKernel::CooNoAtomic,
        ] {
            let rc = RunConfig {
                partitions: 8,
                force: Some(force),
                ..RunConfig::new(2)
            };
            let w = Workload::prepare(&base, Algorithm::Pr);
            let t = measure(EngineKind::Gg2, &w, &rc, 1);
            assert!(t >= 0.0, "{force:?}");
        }
    }
}
