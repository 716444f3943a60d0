//! Engine configuration.

use gg_graph::reorder::EdgeOrder;
use gg_runtime::numa::NumaTopology;

/// The density thresholds of Algorithm 2, expressed as divisors of `|E|`:
/// a frontier is *dense* when `|F| + Σ deg_out(F) > |E| / dense_divisor`
/// and *sparse* when the metric is `<= |E| / sparse_divisor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Thresholds {
    /// Divisor for the dense cut-off (paper: 2, i.e. 50 %).
    pub dense_divisor: u64,
    /// Divisor for the sparse cut-off (paper: 20, i.e. 5 %).
    pub sparse_divisor: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            dense_divisor: 2,
            sparse_divisor: 20,
        }
    }
}

/// Overrides the adaptive decision with a fixed kernel — the four
/// configurations of Figures 5 and 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForcedKernel {
    /// Partitioned (pruned) CSR, forward, atomic updates ("CSR + a").
    CsrAtomic,
    /// Whole CSC, backward, partitioned ranges, no atomics ("CSC + na").
    CscNoAtomic,
    /// Partitioned COO, edge-chunk parallel, atomic updates ("COO + a").
    CooAtomic,
    /// Partitioned COO, one thread per partition, no atomics ("COO + na").
    CooNoAtomic,
}

/// How the traversal planner chooses the *output* representation of each
/// partition's next-frontier buffer (see `gg_core::plan`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OutputMode {
    /// Follow the planner's rule: sparse-kernel partitions emit sorted
    /// vertex lists, dense-kernel partitions emit range-aligned bitmap
    /// segments. The default.
    #[default]
    Auto,
    /// Every partition emits a sorted vertex list (the sparse-output fast
    /// path, forced on; the contract harness checks it against
    /// `ForceDense` and `Auto`).
    ForceSparse,
    /// Every partition emits a dense bitmap segment (PR 2's dense-merge
    /// behaviour, forced on).
    ForceDense,
}

/// The chunk-cap policy: how many planned CSC edges one chunk task may
/// carry before the planner closes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ChunkCap {
    /// Derive the cap per planned partition as
    /// `max(MIN_CHUNK_EDGES, |E_partition| / (CHUNK_OVERSUBSCRIPTION ·
    /// threads))`, clamped to the partition's own edge count (see
    /// [`crate::plan::resolve_cap`]): a heavy partition splits into
    /// roughly `CHUNK_OVERSUBSCRIPTION × threads` chunks no matter how
    /// skewed the graph is, while light partitions stay at one chunk.
    /// Hub splitting under this policy is gated by the
    /// [`crate::plan::HubSplit`] cost model. The default.
    #[default]
    Auto,
    /// Fixed cap in planned CSC edges. `Fixed(usize::MAX)` disables
    /// splitting entirely (one chunk per planned partition — the
    /// pre-chunking behaviour).
    Fixed(usize),
}

impl From<usize> for ChunkCap {
    fn from(n: usize) -> Self {
        ChunkCap::Fixed(n)
    }
}

/// How the COO's edges are sorted at graph-build time. Only the
/// monolithic dense COO scan streams that array, so this is the only path
/// whose visit order the layout shapes; the partitioned executor pulls
/// from the CSC and does not build the COO.
///
/// `#[non_exhaustive]` keeps a one-variant enum refutable outside this
/// crate, so a `let LayoutPolicy::Fixed(o) = .. else { .. }` there still
/// compiles cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutPolicy {
    /// One [`EdgeOrder`] for every partition (§IV.C's global knob, default
    /// `Fixed(Hilbert)`).
    Fixed(EdgeOrder),
}

impl Default for LayoutPolicy {
    fn default() -> Self {
        LayoutPolicy::Fixed(EdgeOrder::Hilbert)
    }
}

impl LayoutPolicy {
    /// Stable label for trace headers and benchmark JSON, e.g.
    /// `"fixed:Hilbert"`.
    pub fn label(&self) -> String {
        let LayoutPolicy::Fixed(o) = self;
        format!("fixed:{}", o.label())
    }
}

/// Which execution path [`GraphGrind2`](crate::engine::GraphGrind2) routes
/// edge maps through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// One kernel per edge map, chosen globally from the frontier density
    /// (Algorithm 2 as published). The default.
    #[default]
    Monolithic,
    /// The partition-parallel path: per-partition subgraph views fan out
    /// over the pool in index order, and *each partition*
    /// selects its own kernel from its local frontier density, so one
    /// iteration can mix sparse (CSR-indexed) and dense (CSC-range)
    /// traversal across partitions. See [`crate::partitioned`].
    Partitioned,
}

/// Configuration of a [`GraphGrind2`](crate::engine::GraphGrind2) engine.
#[derive(Clone, Debug)]
pub struct Config {
    /// Worker threads.
    pub threads: usize,
    /// Requested number of graph partitions for the COO layout and the CSC
    /// computation ranges (rounded up to a multiple of the NUMA domain
    /// count, as in §III.D). The paper's sweet spot is 384.
    pub num_partitions: usize,
    /// The NUMA domain count: it rounds `num_partitions` up to a multiple
    /// of itself and nothing else (physical placement is not modelled).
    pub numa: NumaTopology,
    /// Edge order of the COO (§IV.C; default `Fixed(Hilbert)`). It shapes
    /// only the monolithic dense COO scan.
    pub layout: LayoutPolicy,
    /// Use atomic updates on the dense COO path even though partitions are
    /// exclusive (the "+a" ablation). Default `false` ("+na").
    pub use_atomics_dense: bool,
    /// Density thresholds of Algorithm 2.
    pub thresholds: Thresholds,
    /// Force a fixed kernel instead of the adaptive decision (monolithic
    /// path only; the partitioned executor always decides per partition
    /// and ignores this field). Set it through
    /// [`with_forced`](Self::with_forced), which also selects the
    /// monolithic executor, so a forced configuration runs its kernel.
    pub force: Option<ForcedKernel>,
    /// Build the partitioned CSR layout, split from the store's CSR
    /// (required for [`ForcedKernel::CsrAtomic`]; costs `r(p)`-scaled
    /// memory, §II.E). [`ExecutorKind::Partitioned`] does not read it.
    pub build_partitioned_csr: bool,
    /// Execution path for edge and vertex maps.
    pub executor: ExecutorKind,
    /// Per-partition output-representation policy of the traversal planner
    /// (partitioned executor only; the monolithic path's output
    /// representation is fixed per kernel).
    pub output_mode: OutputMode,
    /// Cap policy for the planned CSC edge count of one chunk task
    /// (partitioned executor only). The planner splits every planned
    /// partition into edge-balanced chunks; a destination whose in-degree
    /// exceeds the cap is split into **sub-chunks** of its in-edge scan
    /// (mega-hub splitting, reduced deterministically at merge time). The
    /// pool's workers claim the chunks one at a time from a shared cursor
    /// — so a star-shaped heavy partition no longer bounds round latency.
    ///
    /// Under a `Fixed` cap splitting is unconditional, so no chunk carries
    /// more than `2 × cap` edges no matter how skewed the degree
    /// distribution is. Under [`ChunkCap::Auto`] (the default, cap derived
    /// per planned partition from `|E_partition|` and the thread count) a
    /// hub-split **cost model** keeps a hub whole while the predicted
    /// imbalance is smaller than the per-chunk scheduling overhead (see
    /// [`crate::plan::HubSplit`]); a marginal hub may then sit alone in a
    /// chunk of up to `cap + HUB_SPLIT_OVERHEAD_EDGES` edges.
    /// `ChunkCap::Fixed(usize::MAX)` disables splitting (one chunk per
    /// partition).
    pub chunk_edges: ChunkCap,
}

impl Default for Config {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Config {
            threads,
            num_partitions: 384,
            numa: NumaTopology::paper_machine(),
            layout: LayoutPolicy::default(),
            use_atomics_dense: false,
            thresholds: Thresholds::default(),
            force: None,
            build_partitioned_csr: false,
            executor: ExecutorKind::Monolithic,
            output_mode: OutputMode::Auto,
            chunk_edges: ChunkCap::Auto,
        }
    }
}

impl Config {
    /// A small, fast configuration for unit tests and doctests: 2 threads,
    /// 8 partitions, 2 domains.
    pub fn for_tests() -> Self {
        Config {
            threads: 2,
            num_partitions: 8,
            numa: NumaTopology::new(2),
            ..Default::default()
        }
    }

    /// The test configuration routed through the partition-parallel
    /// executor.
    pub fn partitioned_for_tests() -> Self {
        Config {
            executor: ExecutorKind::Partitioned,
            ..Self::for_tests()
        }
    }

    /// Effective partition count after NUMA rounding.
    pub fn effective_partitions(&self) -> usize {
        self.numa.round_partitions(self.num_partitions)
    }

    /// Selects the execution path (builder style).
    pub fn with_executor(mut self, e: ExecutorKind) -> Self {
        self.executor = e;
        self
    }

    /// Selects the output-representation policy (builder style).
    pub fn with_output_mode(mut self, m: OutputMode) -> Self {
        self.output_mode = m;
        self
    }

    /// Sets the chunk-cap policy (builder style). Accepts a
    /// plain `usize` for a fixed cap (`usize::MAX` = one chunk per
    /// partition) or a [`ChunkCap`] for the adaptive policy.
    pub fn with_chunk_edges(mut self, c: impl Into<ChunkCap>) -> Self {
        self.chunk_edges = c.into();
        self
    }

    /// Sets the partition count (builder style).
    pub fn with_partitions(mut self, p: usize) -> Self {
        self.num_partitions = p;
        self
    }

    /// Sets the thread count (builder style).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Fixes one COO edge order for every partition (builder style).
    pub fn with_edge_order(mut self, o: EdgeOrder) -> Self {
        self.layout = LayoutPolicy::Fixed(o);
        self
    }

    /// Forces a fixed kernel (builder style). Forced kernels exist only
    /// on the monolithic path, so this also selects
    /// [`ExecutorKind::Monolithic`] (whose store builds the COO the `Coo*`
    /// kernels scan); `CsrAtomic` also enables building the partitioned
    /// CSR.
    pub fn with_forced(mut self, k: ForcedKernel) -> Self {
        if k == ForcedKernel::CsrAtomic {
            self.build_partitioned_csr = true;
        }
        self.executor = ExecutorKind::Monolithic;
        self.force = Some(k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t = Thresholds::default();
        assert_eq!(t.dense_divisor, 2);
        assert_eq!(t.sparse_divisor, 20);
        let c = Config::default();
        assert_eq!(c.num_partitions, 384);
        assert!(!c.use_atomics_dense);
        assert!(c.force.is_none());
    }

    #[test]
    fn partition_rounding() {
        let c = Config {
            num_partitions: 5,
            numa: NumaTopology::new(4),
            ..Config::default()
        };
        assert_eq!(c.effective_partitions(), 8);
    }

    #[test]
    fn chunk_knob_defaults_and_builds() {
        let c = Config::default();
        assert_eq!(c.chunk_edges, ChunkCap::Auto);
        let c = Config::for_tests().with_chunk_edges(64);
        assert_eq!(c.chunk_edges, ChunkCap::Fixed(64));
        let c = Config::for_tests().with_chunk_edges(ChunkCap::Auto);
        assert_eq!(c.chunk_edges, ChunkCap::Auto);
        assert_eq!(ChunkCap::from(7), ChunkCap::Fixed(7));
    }

    #[test]
    fn layout_policy_defaults_and_builds() {
        let c = Config::default();
        assert_eq!(c.layout, LayoutPolicy::Fixed(EdgeOrder::Hilbert));
        let c = Config::for_tests().with_edge_order(EdgeOrder::Source);
        assert_eq!(c.layout, LayoutPolicy::Fixed(EdgeOrder::Source));
        assert_eq!(LayoutPolicy::default().label(), "fixed:Hilbert");
    }

    #[test]
    fn forcing_csr_enables_build() {
        let c = Config::for_tests().with_forced(ForcedKernel::CsrAtomic);
        assert!(c.build_partitioned_csr);
        let c = Config::for_tests().with_forced(ForcedKernel::CooNoAtomic);
        assert!(!c.build_partitioned_csr);
    }

    /// A forced kernel runs where it exists: forcing from a partitioned
    /// configuration selects the monolithic executor, whose store builds
    /// the COO the forced scan reads.
    #[test]
    fn forcing_selects_the_monolithic_executor() {
        let el = gg_graph::edge_list::EdgeList::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = Config::partitioned_for_tests().with_forced(ForcedKernel::CooNoAtomic);
        assert_eq!(c.executor, ExecutorKind::Monolithic);
        let engine = crate::engine::GraphGrind2::new(&el, c);
        assert!(engine.store().coo().is_some());
    }
}
