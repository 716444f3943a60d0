//! # graphgrind — umbrella crate for the GraphGrind-rs workspace
//!
//! A from-scratch Rust reproduction of *"Accelerating Graph Analytics by
//! Utilising the Memory Locality of Graph Partitioning"* (Sun,
//! Vandierendonck & Nikolopoulos, ICPP 2017). Re-exports every workspace
//! crate under one roof; see the README for a guided tour.
//!
//! ```
//! use graphgrind::core::{Config, Engine, GraphGrind2};
//! use graphgrind::graph::generators;
//!
//! let el = generators::erdos_renyi(200, 2000, 7);
//! let engine = GraphGrind2::new(&el, Config::for_tests());
//! let ranks = graphgrind::algorithms::pagerank(&engine, 10);
//! assert_eq!(ranks.len(), 200);
//! // The engine decided layouts on its own; PR is all-dense:
//! let (_sparse, _medium, dense) = engine.kernel_counts().snapshot();
//! assert_eq!(dense, 10);
//! ```

/// The eight evaluated algorithms (Table II) plus extensions.
pub use gg_algorithms as algorithms;
/// The Ligra / Polymer / GraphGrind-v1 comparator engine (Figure 9).
pub use gg_baselines as baselines;
/// The experiment harness: datasets, runner, table printer.
pub use gg_bench as bench;
/// The GraphGrind-v2 engine: composite store + Algorithm 2.
pub use gg_core as core;
/// Graph layouts, partitioning, generators and I/O.
pub use gg_graph as graph;
/// Reuse-distance and cache simulation (Figures 2 & 8).
pub use gg_memsim as memsim;
/// Thread pool, NUMA domain count, atomic cells.
pub use gg_runtime as runtime;
