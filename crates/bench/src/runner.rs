//! Algorithm dispatch for the timed experiments: a [`Workload`] prepared
//! per (graph, algorithm) cell, run once on any engine or timed on one of
//! the four systems, GG-v2 under a caller-built [`Config`].

use gg_algorithms::{Algorithm, BpParams, PrDeltaParams};
use gg_baselines::Baseline;
use gg_core::config::Config;
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
/// The baselines run at `config.threads`; GG-v2 runs under `config`.
/// Engine construction is not timed, matching the paper's methodology.
pub fn measure(kind: EngineKind, w: &Workload, config: &Config, reps: usize) -> f64 {
    let baseline: fn(&EdgeList, usize) -> Baseline = match kind {
        EngineKind::Ligra => Baseline::ligra,
        EngineKind::Polymer => |el, t| Baseline::polymer(el, t, NumaTopology::paper_machine()),
        EngineKind::Gg1 => |el, t| Baseline::graphgrind1(el, t, NumaTopology::paper_machine()),
        EngineKind::Gg2 => return timed(w, reps, |el| GraphGrind2::new(el, config.clone())),
    };
    timed(w, reps, |el| baseline(el, config.threads))
}

/// Median seconds of `reps` runs on engines `build` makes over the
/// workload's graph (and its transpose, for BC).
fn timed<E: Engine>(w: &Workload, reps: usize, build: impl Fn(&EdgeList) -> E) -> f64 {
    let fwd = build(&w.el);
    let bwd = w.el_t.as_ref().map(build);
    crate::time_median(reps, || run_algorithm(&fwd, bwd.as_ref(), w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gg_core::config::{ExecutorKind, ForcedKernel};
    use gg_graph::generators;

    fn tiny_graph() -> EdgeList {
        generators::rmat(8, 2000, generators::RmatParams::skewed(), 99)
    }

    /// The engine defaults at 2 threads and 8 partitions.
    fn config() -> Config {
        Config::default().with_threads(2).with_partitions(8)
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
        for algo in Algorithm::all() {
            let w = Workload::prepare(&base, algo);
            for kind in EngineKind::all() {
                let t = measure(kind, &w, &config(), 1);
                assert!(t >= 0.0, "{kind:?} {algo:?}");
            }
        }
    }

    #[test]
    fn partitioned_executor_runs_every_algorithm() {
        let base = tiny_graph();
        let config = config().with_executor(ExecutorKind::Partitioned);
        for algo in Algorithm::all() {
            let w = Workload::prepare(&base, algo);
            let t = measure(EngineKind::Gg2, &w, &config, 1);
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
            let w = Workload::prepare(&base, Algorithm::Pr);
            let t = measure(EngineKind::Gg2, &w, &config().with_forced(force), 1);
            assert!(t >= 0.0, "{force:?}");
        }
    }
}
