//! # gg-core — the GraphGrind-v2 graph-analytics engine
//!
//! This crate implements the primary contribution of the ICPP 2017 paper:
//! a Ligra-style shared-memory graph framework whose edge traversal
//! *autonomously* selects among three graph layouts based on frontier
//! density (Algorithm 2), using partitioning-by-destination to improve
//! temporal locality and to remove hardware atomics.
//!
//! ## The three-way classification
//!
//! For a frontier `F` over a graph with `|E|` edges, with
//! `metric = |F| + Σ_{v∈F} deg_out(v)`:
//!
//! * `metric > |E| / 2` — **dense**: traverse the partitioned COO layout,
//!   one thread per partition, no atomics;
//! * `metric > |E| / 20` — **medium-dense**: backward traversal of the
//!   *unpartitioned* CSC with partitioned computation ranges (partitioning
//!   by destination does not change CSC edge order, §II.C), no atomics;
//! * otherwise — **sparse**: forward traversal of the unpartitioned CSR
//!   over the active vertices only, with atomic updates.
//!
//! The forward/backward choice the Ligra API forces on programmers folds
//! into this decision and disappears from the public API.
//!
//! ## The partition-parallel execution path
//!
//! With [`config::ExecutorKind::Partitioned`], the [traversal
//! planner](plan) runs the classification above **per partition** instead
//! of once per edge map, and additionally chooses each partition's
//! **output representation**. `Engine::new` materialises one subgraph view
//! per edge-balanced destination partition; each edge map fans the
//! non-empty partitions out over the engine's
//! [`Pool`](gg_runtime::pool::Pool) in NUMA-domain-major order, every pool
//! task returns a typed output buffer, and the buffers merge in partition
//! order:
//!
//! ```text
//! frontier ──▶ TraversalPlan ────────▶ typed tasks ─────────▶ merge
//!              per partition:           sparse kernel →        partition-order
//!              |F∩R_p| + Σdeg(F∩R_p)    sorted vertex list     concatenation;
//!              → (kernel, output-repr)  dense kernel →         all-sparse rounds
//!              (empty partitions         range-aligned         do O(Σ outputs),
//!               skipped, no pool work)   bitmap segment        no O(|V|/64) floor
//! ```
//!
//! Both kernels apply updates destination-major in CSC adjacency order, so
//! results are **bit-identical across partition counts, thread counts,
//! kernel choices and output representations** for operators that do not
//! read concurrently-updated source state. See [`partitioned`] for the
//! full contract and [`plan`] for the decision rules.
//!
//! ## Crate layout
//!
//! * [`store::GraphStore`] — the composite 3-layout store (whole CSR +
//!   whole CSC + partitioned COO, §III.B);
//! * [`frontier::Frontier`] — sparse (vertex list) and dense (bitmap)
//!   frontier representations with cached density metrics;
//! * [`edge_map`] — the traversal kernels and the [`EdgeOp`] trait;
//! * [`engine`] — the [`Engine`] trait shared with the baseline systems and
//!   [`GraphGrind2`], this paper's engine;
//! * [`plan`] — the traversal planner: the single Algorithm 2 classifier
//!   plus per-partition (kernel, output-representation) planning;
//! * [`partitioned`] — the partition-parallel executor: per-partition
//!   views, planned typed output buffers, NUMA-ordered fan-out and the
//!   deterministic partition-order merge;
//! * [`fused`] — multi-source frontier fusion: K-lane batched traversals
//!   ([`fused::FusedFrontier`], [`fused::MultiSourceOp`]) that advance up
//!   to 64 concurrent queries per edge scan on the same partitioned
//!   executor;
//! * [`vertex_map`] — vertex-parallel operators;
//! * [`trace`] — instrumented (sequential) traversals that feed
//!   `gg-memsim` for the Figure 2 / Figure 8 locality measurements.
//!
//! ## Quick example
//!
//! ```
//! use gg_core::prelude::*;
//! use gg_graph::generators;
//!
//! let el = generators::rmat(8, 2000, generators::RmatParams::skewed(), 1);
//! let engine = GraphGrind2::new(&el, Config::for_tests());
//! // Count edges by an edge map that activates every destination.
//! struct Activate;
//! impl EdgeOp for Activate {
//!     fn update(&self, _s: u32, _d: u32, _w: f32) -> bool { true }
//!     fn update_atomic(&self, _s: u32, _d: u32, _w: f32) -> bool { true }
//! }
//! let next = engine.edge_map(&engine.frontier_all(), &Activate, EdgeMapSpec::edge_oriented());
//! assert!(next.len() > 0);
//! ```

pub mod config;
pub mod edge_map;
pub mod engine;
pub mod frontier;
pub mod fused;
pub mod heuristic;
pub mod partitioned;
pub mod plan;
pub mod store;
pub mod trace;
pub mod vertex_map;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::{
        Config, ExecutorKind, ForcedKernel, LayoutPolicy, OutputMode, Thresholds,
    };
    pub use crate::edge_map::{EdgeKind, EdgeOp};
    pub use crate::engine::{Direction, EdgeMapSpec, Engine, GraphGrind2, Orientation};
    pub use crate::frontier::{Frontier, FrontierIter, FrontierView, PartitionOutput};
    pub use crate::fused::{FusedFrontier, FusedView, MultiSourceOp, MultiSourceReduce};
    pub use crate::heuristic::{suggest_partitions, HeuristicInputs};
    pub use crate::partitioned::{PartKernel, PartitionView};
    pub use crate::plan::{OutputRepr, PartStep, TraversalPlan};
    pub use crate::store::GraphStore;
}

pub use prelude::*;
