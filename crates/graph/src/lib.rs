//! # gg-graph — graph representation substrate
//!
//! This crate implements every graph data structure the ICPP 2017 paper
//! *"Accelerating Graph Analytics by Utilising the Memory Locality of Graph
//! Partitioning"* (Sun, Vandierendonck, Nikolopoulos) depends on:
//!
//! * the three storage layouts — [`Csr`], [`Csc`] and [`Coo`] (coordinate
//!   list) — including the *pruned*
//!   partitioned CSR variant of §II.E that stores vertex identifiers
//!   explicitly so that zero-degree vertices need not be materialised;
//! * *partitioning by destination* (Algorithm 1 of the paper) and its dual,
//!   partitioning by source, with either edge-balanced or vertex-balanced
//!   cut points ([`partition`]);
//! * the replication-factor analysis of §II.D ([`replication`]) and the
//!   storage-size model of §II.E ([`storage`]);
//! * Hilbert space-filling-curve edge ordering (§IV.C, [`hilbert`] and
//!   [`reorder`]);
//! * synthetic graph generators used as stand-ins for the paper's data sets
//!   ([`generators`]): RMAT, Chung–Lu power-law, Erdős–Rényi, 2-D road
//!   grids and small-world graphs;
//! * plain-text and binary edge-list I/O ([`io`]).
//!
//! The crate is deliberately framework-agnostic: it knows nothing about
//! frontiers, traversal directions or scheduling. Those live in `gg-core`.
//!
//! ## Quick example
//!
//! ```
//! use gg_graph::prelude::*;
//!
//! // A tiny directed graph: 0 -> 1 -> 2, 0 -> 2.
//! let mut el = EdgeList::new(3);
//! el.push(0, 1);
//! el.push(1, 2);
//! el.push(0, 2);
//! let csr = Csr::from_edge_list(&el);
//! assert_eq!(csr.out_degree(0), 2);
//! assert_eq!(csr.neighbors(0), &[1, 2]);
//! ```

pub mod bitmap;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod edge_list;
pub mod generators;
pub mod hilbert;
pub mod io;
pub mod ops;
pub mod partition;
pub mod properties;
pub mod reorder;
pub mod replication;
pub mod storage;
pub mod types;
pub mod weights;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bitmap::{AtomicBitmap, Bitmap};
    pub use crate::coo::{Coo, PartitionedCoo};
    pub use crate::csc::Csc;
    pub use crate::csr::{Csr, PartitionedCsr, PrunedCsr};
    pub use crate::edge_list::EdgeList;
    pub use crate::partition::{BalanceMode, PartitionBy, PartitionSet};
    pub use crate::reorder::EdgeOrder;
    pub use crate::types::{EdgeId, VertexId, INVALID_VERTEX};
}

pub use prelude::*;
