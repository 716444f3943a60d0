//! Graph partitioning (Algorithm 1 of the paper).
//!
//! The paper partitions the *edge set* by first partitioning the vertex set
//! into contiguous ranges and then assigning every edge to the **home
//! partition** of one of its endpoints:
//!
//! * **Partitioning by destination** (Equation 1): all in-edges of a vertex
//!   live in the vertex's home partition. This is the scheme the paper
//!   builds on — it confines all *updates* to a vertex to one partition, so
//!   one thread per partition needs no hardware atomics (§III.C).
//! * **Partitioning by source** (Equation 2): all out-edges of a vertex live
//!   in its home partition. Implemented for completeness and ablation; the
//!   paper discards it because backward traversal is most useful on sparse
//!   frontiers where partitioning does not pay (§II.C).
//!
//! Cut points are chosen greedily in a single pass (Algorithm 1): walk the
//! vertices in identifier order accumulating the relevant degree, and close
//! a partition once it reaches `|E| / P` edges. Alternatively a
//! vertex-balanced cut assigns `|V| / P` vertices per partition — the paper
//! uses this for *vertex-oriented* algorithms (§III.D).

use crate::types::VertexId;

/// Which endpoint's home partition an edge is assigned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionBy {
    /// All in-edges of a vertex are in its home partition (Equation 1).
    Destination,
    /// All out-edges of a vertex are in its home partition (Equation 2).
    Source,
}

/// What quantity the greedy cut balances across partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BalanceMode {
    /// Equal number of edges per partition (Algorithm 1; used for
    /// edge-oriented algorithms and always for the COO layout).
    Edges,
    /// Equal number of vertices per partition (used for vertex-oriented
    /// algorithms, §III.D).
    Vertices,
}

/// A partitioning of the vertex range `0..n` into `P` contiguous,
/// non-overlapping, covering intervals.
///
/// `boundaries` has `P + 1` entries with `boundaries[0] == 0` and
/// `boundaries[P] == n`; partition `p` owns vertices
/// `boundaries[p]..boundaries[p + 1]`.
///
/// ```
/// use gg_graph::prelude::*;
///
/// // In-degrees [3, 1, 0, 4]: Algorithm 1 closes a partition once it has
/// // accumulated |E|/P = 4 edges (after vertices 0 and 1 here).
/// let set = PartitionSet::edge_balanced(&[3, 1, 0, 4], 2, PartitionBy::Destination);
/// assert_eq!(set.range(0), 0..2);
/// assert_eq!(set.range(1), 2..4);
/// // Every in-edge of a vertex shares the vertex's home partition.
/// assert_eq!(set.edge_home(0, 3), set.home(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSet {
    boundaries: Vec<VertexId>,
    by: PartitionBy,
    balance: BalanceMode,
}

impl PartitionSet {
    /// Runs Algorithm 1: partitions `0..n` into `num_partitions` ranges so
    /// that the per-vertex `degrees` (in-degrees for
    /// [`PartitionBy::Destination`], out-degrees for
    /// [`PartitionBy::Source`]) are balanced.
    ///
    /// The greedy cut is *remaining-aware*: the target for partition `i` is
    /// `ceil(remaining_edges / remaining_partitions)`, recomputed after each
    /// cut. A partition closes at the first vertex whose accumulated degree
    /// reaches the target, so every partition (including the last, which
    /// under a fixed `|E| / P` target used to silently absorb the whole
    /// remainder) holds at most `|E| / P + max(degrees)` edges.
    ///
    /// With more partitions than vertices carrying edges, the trailing
    /// partitions are empty ranges; [`empty_partitions`](Self::empty_partitions)
    /// reports them explicitly so executors can skip them.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn edge_balanced(degrees: &[u32], num_partitions: usize, by: PartitionBy) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        let n = degrees.len();
        let total: u64 = degrees.iter().map(|&d| d as u64).sum();

        let mut boundaries = Vec::with_capacity(num_partitions + 1);
        boundaries.push(0);
        let mut remaining = total;
        // At least 1 so zero-edge graphs still produce valid (possibly
        // empty) ranges instead of one cut per vertex.
        let mut target = remaining.div_ceil(num_partitions as u64).max(1);
        let mut acc = 0u64;
        for (v, &d) in degrees.iter().enumerate() {
            if acc >= target && boundaries.len() < num_partitions {
                boundaries.push(v as VertexId);
                remaining -= acc;
                let parts_left = (num_partitions + 1 - boundaries.len()) as u64;
                target = remaining.div_ceil(parts_left).max(1);
                acc = 0;
            }
            acc += d as u64;
        }
        // Close any partitions that never reached their target (possible for
        // skewed degree distributions) and the final boundary.
        while boundaries.len() < num_partitions {
            boundaries.push(n as VertexId);
        }
        boundaries.push(n as VertexId);

        PartitionSet {
            boundaries,
            by,
            balance: BalanceMode::Edges,
        }
    }

    /// Partitions `0..n` into `num_partitions` ranges of (nearly) equal
    /// vertex count.
    pub fn vertex_balanced(n: usize, num_partitions: usize, by: PartitionBy) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        let p = num_partitions;
        let mut boundaries = Vec::with_capacity(p + 1);
        for i in 0..=p {
            // Distribute the remainder one vertex at a time so sizes differ
            // by at most one.
            boundaries.push(((n as u64 * i as u64) / p as u64) as VertexId);
        }
        PartitionSet {
            boundaries,
            by,
            balance: BalanceMode::Vertices,
        }
    }

    /// Convenience constructor selecting the balance mode dynamically.
    pub fn new(
        degrees: &[u32],
        num_partitions: usize,
        by: PartitionBy,
        balance: BalanceMode,
    ) -> Self {
        match balance {
            BalanceMode::Edges => Self::edge_balanced(degrees, num_partitions, by),
            BalanceMode::Vertices => Self::vertex_balanced(degrees.len(), num_partitions, by),
        }
    }

    /// The trivial single-partition set over `0..n`.
    pub fn whole(n: usize, by: PartitionBy) -> Self {
        PartitionSet {
            boundaries: vec![0, n as VertexId],
            by,
            balance: BalanceMode::Vertices,
        }
    }

    /// Number of partitions `P`.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        *self
            .boundaries
            .last()
            .expect("boundaries holds P + 1 entries") as usize
    }

    /// Which endpoint decides an edge's home partition.
    #[inline]
    pub fn by(&self) -> PartitionBy {
        self.by
    }

    /// The balance mode the cut points were chosen with.
    #[inline]
    pub fn balance(&self) -> BalanceMode {
        self.balance
    }

    /// The vertex range owned by partition `p`.
    #[inline]
    pub fn range(&self, p: usize) -> std::ops::Range<VertexId> {
        self.boundaries[p]..self.boundaries[p + 1]
    }

    /// All `P + 1` cut points.
    #[inline]
    pub fn boundaries(&self) -> &[VertexId] {
        &self.boundaries
    }

    /// Home partition of vertex `v` (binary search over cut points).
    #[inline]
    pub fn home(&self, v: VertexId) -> usize {
        debug_assert!((v as usize) < self.num_vertices());
        // partition_point returns the first boundary > v; partitions are
        // right-open so the home is that index minus one.
        self.boundaries.partition_point(|&b| b <= v) - 1
    }

    /// Home partition of the edge `(src, dst)` under this set's
    /// [`PartitionBy`] rule.
    #[inline]
    pub fn edge_home(&self, src: VertexId, dst: VertexId) -> usize {
        match self.by {
            PartitionBy::Destination => self.home(dst),
            PartitionBy::Source => self.home(src),
        }
    }

    /// Indices of partitions whose vertex range is empty — produced, for
    /// example, by [`edge_balanced`](Self::edge_balanced) when there are
    /// more partitions than vertices. Returned explicitly (rather than
    /// silently owning zero vertices) so executors can assert they skip
    /// them without scheduling work.
    pub fn empty_partitions(&self) -> Vec<usize> {
        (0..self.num_partitions())
            .filter(|&p| self.range(p).is_empty())
            .collect()
    }

    /// Number of edges assigned to each partition given the per-vertex
    /// degree array used at construction time.
    pub fn edges_per_partition(&self, degrees: &[u32]) -> Vec<u64> {
        (0..self.num_partitions())
            .map(|p| {
                let r = self.range(p);
                degrees[r.start as usize..r.end as usize]
                    .iter()
                    .map(|&d| d as u64)
                    .sum()
            })
            .collect()
    }

    /// Checks the partition invariants: sorted boundaries covering `0..n`.
    pub fn validate(&self) -> Result<(), String> {
        if self.boundaries.first() != Some(&0) {
            return Err("first boundary must be 0".into());
        }
        if !self.boundaries.windows(2).all(|w| w[0] <= w[1]) {
            return Err("boundaries must be non-decreasing".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;

    #[test]
    fn vertex_balanced_sizes_differ_by_at_most_one() {
        let ps = PartitionSet::vertex_balanced(10, 3, PartitionBy::Destination);
        let sizes: Vec<usize> = (0..3).map(|p| ps.range(p).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
        ps.validate().unwrap();
    }

    #[test]
    fn edge_balanced_respects_target() {
        // 8 vertices with in-degrees summing to 16; target 16/4 = 4.
        let deg = vec![4, 0, 4, 0, 4, 0, 4, 0];
        let ps = PartitionSet::edge_balanced(&deg, 4, PartitionBy::Destination);
        assert_eq!(ps.num_partitions(), 4);
        let per = ps.edges_per_partition(&deg);
        assert_eq!(per.iter().sum::<u64>(), 16);
        for &e in &per {
            assert!(e >= 4, "partition underfilled: {per:?}");
        }
        ps.validate().unwrap();
    }

    #[test]
    fn edge_balanced_handles_skew() {
        // One hub vertex with huge in-degree.
        let mut deg = vec![1u32; 100];
        deg[0] = 1000;
        let ps = PartitionSet::edge_balanced(&deg, 8, PartitionBy::Destination);
        assert_eq!(ps.num_partitions(), 8);
        ps.validate().unwrap();
        // All vertices are covered exactly once.
        let covered: usize = (0..8).map(|p| ps.range(p).len()).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn more_partitions_than_vertices() {
        let deg = vec![1u32; 3];
        let ps = PartitionSet::edge_balanced(&deg, 10, PartitionBy::Destination);
        assert_eq!(ps.num_partitions(), 10);
        ps.validate().unwrap();
        let covered: usize = (0..10).map(|p| ps.range(p).len()).sum();
        assert_eq!(covered, 3);
        // The vacuous trailing partitions are reported explicitly.
        assert_eq!(ps.empty_partitions(), (3..10).collect::<Vec<_>>());
        for &p in &ps.empty_partitions() {
            assert!(ps.range(p).is_empty());
        }
    }

    #[test]
    fn edge_balanced_bounded_by_avg_plus_max_degree() {
        // The remaining-aware cut keeps *every* partition — including the
        // last — within |E|/P + max(degree). Uniform degrees with p ∤ n is
        // exactly the case the old fixed-target walk overfilled: 10
        // vertices of degree 1 over 4 partitions left 4 edges in the last
        // partition (bound: 10/4 + 1 < 4).
        let deg = vec![1u32; 10];
        let ps = PartitionSet::edge_balanced(&deg, 4, PartitionBy::Destination);
        let bound = 10u64 / 4 + 1;
        for e in ps.edges_per_partition(&deg) {
            assert!(e <= bound, "partition overfilled: {e} > {bound}");
        }
    }

    #[test]
    fn no_empty_partitions_when_vertices_suffice() {
        let deg = vec![2u32; 64];
        let ps = PartitionSet::edge_balanced(&deg, 8, PartitionBy::Destination);
        assert!(ps.empty_partitions().is_empty());
    }

    #[test]
    fn home_lookup_matches_ranges() {
        let ps = PartitionSet::vertex_balanced(100, 7, PartitionBy::Destination);
        for p in 0..7 {
            for v in ps.range(p) {
                assert_eq!(ps.home(v), p, "vertex {v}");
            }
        }
    }

    #[test]
    fn edge_home_follows_rule() {
        let ps_d = PartitionSet::vertex_balanced(10, 2, PartitionBy::Destination);
        let ps_s = PartitionSet::vertex_balanced(10, 2, PartitionBy::Source);
        assert_eq!(ps_d.edge_home(1, 9), 1); // dst 9 lives in partition 1
        assert_eq!(ps_s.edge_home(1, 9), 0); // src 1 lives in partition 0
    }

    #[test]
    fn destination_rule_groups_in_edges() {
        // The defining property (Equation 1): every in-edge of a vertex maps
        // to that vertex's home partition.
        let el = EdgeList::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 0), (4, 0), (5, 2), (0, 2)]);
        let ps = PartitionSet::edge_balanced(&el.in_degrees(), 3, PartitionBy::Destination);
        for (u, v) in el.iter() {
            assert_eq!(ps.edge_home(u, v), ps.home(v));
        }
    }

    #[test]
    fn whole_is_one_partition() {
        let ps = PartitionSet::whole(42, PartitionBy::Destination);
        assert_eq!(ps.num_partitions(), 1);
        assert_eq!(ps.range(0), 0..42);
        assert_eq!(ps.home(41), 0);
    }
}
