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
//! Because neither the CSC nor the COO copies replicate vertices, total
//! memory stays below twice Ligra's CSR+CSC pair regardless of the
//! partition count. The optional partitioned CSR (for the "CSR + a"
//! ablation of Figure 5) is the one layout whose footprint grows with
//! `r(p)`.

use gg_graph::coo::PartitionedCoo;
use gg_graph::csc::Csc;
use gg_graph::csr::{Csr, PartitionedCsr};
use gg_graph::edge_list::EdgeList;
use gg_graph::partition::{PartitionBy, PartitionSet};

use crate::config::{Config, LayoutPolicy};

/// The composite 3-layout store plus partition metadata.
#[derive(Debug)]
pub struct GraphStore {
    n: usize,
    m: usize,
    csr: Csr,
    csc: Csc,
    coo: PartitionedCoo,
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
    /// Builds every layout required by `config` from an edge list.
    pub fn build(el: &EdgeList, config: &Config) -> Self {
        let n = el.num_vertices();
        let m = el.num_edges();
        let p = config.effective_partitions();
        let out_degrees = el.out_degrees();
        let in_degrees = el.in_degrees();

        let edge_parts = PartitionSet::edge_balanced(&in_degrees, p, PartitionBy::Destination);
        let vertex_parts = PartitionSet::vertex_balanced(n, p, PartitionBy::Destination);

        let csr = Csr::from_edge_list(el);
        let csc = Csc::from_edge_list(el);
        let LayoutPolicy::Fixed(order) = config.layout;
        let coo = PartitionedCoo::new(el, &edge_parts, order);
        let pcsr = config
            .build_partitioned_csr
            .then(|| PartitionedCsr::new(el, &edge_parts));

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

    /// The partitioned COO (dense traversal).
    #[inline]
    pub fn coo(&self) -> &PartitionedCoo {
        &self.coo
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
            + self.coo.heap_bytes()
            + self.pcsr.as_ref().map_or(0, |p| p.heap_bytes())
            + (self.out_degrees.len() + self.in_degrees.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(store.coo().num_edges(), 3000);
        assert_eq!(store.num_partitions(), 8);
        store.coo().validate().unwrap();
        assert!(store.partitioned_csr().is_none());
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
        // the memory of Ligra" (Ligra = CSR + CSC).
        let el = generators::rmat(10, 20_000, generators::RmatParams::skewed(), 5);
        let store = GraphStore::build(&el, &small_config(64));
        let ligra = store.csr().heap_bytes() + store.csc().heap_bytes();
        assert!(store.heap_bytes() < 2 * ligra);
    }
}
