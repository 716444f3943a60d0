//! The composite graph store (§III.A / §III.B).
//!
//! GraphGrind-v2 trades memory for speed by keeping **three** copies of the
//! graph, each tuned to one frontier class:
//!
//! * an unpartitioned [`Csr`] for sparse frontiers (§III.A.1);
//! * an unpartitioned [`Csc`] for medium-dense frontiers — partitioning by
//!   destination leaves CSC edge order unchanged, so only the *computation
//!   ranges* are partitioned (§II.C);
//! * a heavily partitioned [`PartitionedCoo`] for dense frontiers, whose
//!   storage is independent of the partition count (§II.E).
//!
//! Because neither the CSC nor the COO copies replicate vertices, the
//! monolithic store stays below twice Ligra's CSR+CSC pair regardless of
//! the partition count.
//!
//! [`GraphStore::build`] builds only what its executor reads:
//!
//! * [`ExecutorKind::Monolithic`] gets all three, plus the partitioned
//!   CSR when [`Config::build_partitioned_csr`] asks for it (the forced
//!   `CsrAtomic` ablation of Figure 5);
//! * [`ExecutorKind::Partitioned`] gets the CSR and the CSC — its sparse
//!   discovery walks the CSR and every pull reads the CSC — and **no
//!   COO**. With no layout that replicates vertices it too stays below
//!   twice Ligra's pair at every partition count.
//!
//! The partitioned CSR is the one layout whose footprint grows with
//! `r(p)`. It is split from the store's own CSR
//! ([`PartitionedCsr::from_csr`]) and the degree arrays are read off the
//! CSR and CSC offsets, so neither re-reads the edge list.

use gg_graph::coo::PartitionedCoo;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};

use crate::config::{Config, ExecutorKind, LayoutPolicy};

/// The composite 3-layout store plus partition metadata.
#[derive(Debug)]
pub struct GraphStore {
    n: usize,
    m: usize,
    csr: Csr,
    csc: Csc,
    /// Built for [`ExecutorKind::Monolithic`] only.
    coo: Option<PartitionedCoo>,
    /// Edge-balanced destination ranges (COO partitions; CSC ranges for
    /// edge-oriented algorithms).
    edge_parts: PartitionSet,
    /// Vertex-balanced destination ranges (CSC ranges for vertex-oriented
    /// algorithms, §III.D).
    vertex_parts: PartitionSet,
    /// Optional partitioned CSR for the Figure 5 "CSR + a" configuration.
    pcsr: Option<PartitionedCsr>,
    out_degrees: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl GraphStore {
    /// Builds every layout `config`'s executor reads from an edge list.
    pub fn build(el: &EdgeList, config: &Config) -> Self {
        let n = el.num_vertices();
        let m = el.num_edges();
        let p = config.effective_partitions();

        // The CSC first: its offsets give the in-degrees the edge-balanced
        // cut points need.
        let csc = Csc::from_edge_list(el);
        let in_degrees = csc.in_degrees();
        let csr = Csr::from_edge_list(el);
        let out_degrees = csr.out_degrees();

        let edge_parts = PartitionSet::edge_balanced(&in_degrees, p, PartitionBy::Destination);
        let vertex_parts = PartitionSet::vertex_balanced(n, p, PartitionBy::Destination);

        let coo = (config.executor == ExecutorKind::Monolithic).then(|| {
            let LayoutPolicy::Fixed(order) = config.layout;
            PartitionedCoo::new(el, &edge_parts, order)
        });
        let pcsr = config
            .build_partitioned_csr
            .then(|| PartitionedCsr::from_csr(&csr, &edge_parts));

        GraphStore {
            n,
            m,
            csr,
            csc,
            coo,
            edge_parts,
            vertex_parts,
            pcsr,
            out_degrees,
            in_degrees,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of partitions of the COO layout / computation ranges.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.edge_parts.num_partitions()
    }

    /// The whole-graph CSR (sparse traversal).
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The whole-graph CSC (medium-dense traversal).
    #[inline]
    pub fn csc(&self) -> &Csc {
        &self.csc
    }

    /// The partitioned COO (monolithic dense traversal); `None` under
    /// [`ExecutorKind::Partitioned`], which does not read it.
    #[inline]
    pub fn coo(&self) -> Option<&PartitionedCoo> {
        self.coo.as_ref()
    }

    /// The partitioned CSR, if built (`Config::build_partitioned_csr`).
    #[inline]
    pub fn partitioned_csr(&self) -> Option<&PartitionedCsr> {
        self.pcsr.as_ref()
    }

    /// Edge-balanced destination ranges.
    #[inline]
    pub fn edge_parts(&self) -> &PartitionSet {
        &self.edge_parts
    }

    /// Vertex-balanced destination ranges.
    #[inline]
    pub fn vertex_parts(&self) -> &PartitionSet {
        &self.vertex_parts
    }

    /// Out-degree array (drives the frontier density metric).
    #[inline]
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// In-degree array.
    #[inline]
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// Measured heap bytes of all resident layouts.
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes()
            + self.csc.heap_bytes()
            + self.coo.as_ref().map_or(0, |c| c.heap_bytes())
            + self.pcsr.as_ref().map_or(0, |p| p.heap_bytes())
            + (self.out_degrees.len() + self.in_degrees.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GraphGrind2;
    use gg_graph::generators;

    fn small_config(p: usize) -> Config {
        Config {
            num_partitions: p,
            numa: gg_runtime::numa::NumaTopology::new(2),
            threads: 2,
            ..Config::default()
        }
    }

    #[test]
    fn builds_all_layouts_consistently() {
        let el = generators::rmat(8, 3000, generators::RmatParams::skewed(), 2);
        let store = GraphStore::build(&el, &small_config(8));
        assert_eq!(store.num_vertices(), 256);
        assert_eq!(store.num_edges(), 3000);
        assert_eq!(store.csr().num_edges(), 3000);
        assert_eq!(store.csc().num_edges(), 3000);
        let coo = store.coo().expect("a monolithic store builds the COO");
        assert_eq!(coo.num_edges(), 3000);
        assert_eq!(store.num_partitions(), 8);
        coo.validate().unwrap();
        assert!(store.partitioned_csr().is_none());
    }

    fn partitioned_config(p: usize) -> Config {
        Config {
            executor: ExecutorKind::Partitioned,
            ..small_config(p)
        }
    }

    #[test]
    fn partitioned_store_builds_no_coo() {
        let el = generators::rmat(8, 3000, generators::RmatParams::skewed(), 2);
        let engine = GraphGrind2::new(&el, partitioned_config(8));
        let store = engine.store();
        assert!(store.coo().is_none());
        assert!(store.partitioned_csr().is_none());
        let degrees = (store.out_degrees().len() + store.in_degrees().len()) * 4;
        assert_eq!(
            store.heap_bytes(),
            store.csr().heap_bytes() + store.csc().heap_bytes() + degrees
        );
    }

    #[test]
    fn partitioned_csr_on_demand() {
        let el = generators::erdos_renyi(64, 500, 3);
        let mut cfg = small_config(4);
        cfg.build_partitioned_csr = true;
        let store = GraphStore::build(&el, &cfg);
        let pcsr = store.partitioned_csr().unwrap();
        assert_eq!(pcsr.num_edges(), 500);
    }

    #[test]
    fn partition_rounding_applied() {
        let el = generators::erdos_renyi(64, 500, 3);
        let store = GraphStore::build(&el, &small_config(5));
        // 5 rounded up to a multiple of 2 domains.
        assert_eq!(store.num_partitions(), 6);
    }

    #[test]
    fn degrees_match_edge_list() {
        let el = generators::erdos_renyi(100, 1000, 7);
        let store = GraphStore::build(&el, &small_config(4));
        assert_eq!(store.out_degrees(), el.out_degrees().as_slice());
        assert_eq!(store.in_degrees(), el.in_degrees().as_slice());
        let total: u64 = store.out_degrees().iter().map(|&d| d as u64).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn memory_less_than_double_ligra_when_unweighted() {
        // §III.B: "the memory requirement of our system is less than double
        // the memory of Ligra" (Ligra = CSR + CSC), for either executor's
        // store at every partition count.
        let el = generators::rmat(10, 20_000, generators::RmatParams::skewed(), 5);
        for p in [1, 2, 16, 32, 64, 384] {
            for config in [small_config(p), partitioned_config(p)] {
                let engine = GraphGrind2::new(&el, config);
                let store = engine.store();
                let ligra = store.csr().heap_bytes() + store.csc().heap_bytes();
                let what = format!("P={p} {:?}", store.coo().is_some());
                assert!(store.heap_bytes() < 2 * ligra, "{what}");
            }
        }
    }
}
