//! Partition-to-domain scheduling.
//!
//! Produces the order in which partitions are submitted to the pool so that
//! partitions belonging to the same (simulated) NUMA domain are processed
//! together — the portable analogue of §III.D's "edge traversal using the
//! dense operators are performed exclusively by CPU cores attached to the
//! NUMA domain that stores the graph partition".

use crate::numa::NumaTopology;

/// A static schedule of `num_partitions` partitions over a topology.
#[derive(Clone, Debug)]
pub struct PartitionSchedule {
    /// Partitions in submission order (domain-major).
    order: Vec<usize>,
    /// `domain_of[p]` = domain owning partition `p`.
    domain_of: Vec<usize>,
}

impl PartitionSchedule {
    /// Builds the domain-major schedule: domain 0's partitions first (in
    /// index order), then domain 1's, etc. With block assignment this is
    /// the identity permutation, but the schedule also carries the
    /// ownership map used for placement assertions.
    pub fn new(num_partitions: usize, numa: NumaTopology) -> Self {
        let domain_of: Vec<usize> = (0..num_partitions)
            .map(|p| numa.domain_of_partition(p, num_partitions))
            .collect();
        let mut order: Vec<usize> = (0..num_partitions).collect();
        order.sort_by_key(|&p| (domain_of[p], p));
        PartitionSchedule { order, domain_of }
    }

    /// Partitions in submission order.
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Domain owning partition `p`.
    #[inline]
    pub fn domain_of(&self, p: usize) -> usize {
        self.domain_of[p]
    }

    /// Number of partitions scheduled.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.order.len()
    }

    /// The partitions owned by `domain`, in index order.
    pub fn partitions_of_domain(&self, domain: usize) -> Vec<usize> {
        (0..self.domain_of.len())
            .filter(|&p| self.domain_of[p] == domain)
            .collect()
    }

    /// The submission order restricted to the partitions `keep` accepts,
    /// preserving domain-major order. The partitioned executor uses this to
    /// drop empty partitions before any work reaches the pool.
    pub fn order_filtered(&self, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        self.order.iter().copied().filter(|&p| keep(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_all_partitions_once() {
        let s = PartitionSchedule::new(13, NumaTopology::new(4));
        let mut sorted = s.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn domain_major_order() {
        let s = PartitionSchedule::new(8, NumaTopology::new(4));
        let domains: Vec<usize> = s.order().iter().map(|&p| s.domain_of(p)).collect();
        assert!(domains.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn per_domain_lists_are_disjoint_and_cover() {
        let s = PartitionSchedule::new(10, NumaTopology::new(3));
        let mut all: Vec<usize> = (0..3).flat_map(|d| s.partitions_of_domain(d)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn filtered_order_preserves_domain_majority() {
        let s = PartitionSchedule::new(8, NumaTopology::new(4));
        let kept = s.order_filtered(|p| p % 2 == 0);
        assert_eq!(kept, vec![0, 2, 4, 6]);
        let domains: Vec<usize> = kept.iter().map(|&p| s.domain_of(p)).collect();
        assert!(domains.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.order_filtered(|_| false).is_empty());
    }

    #[test]
    fn single_domain_is_identity() {
        let s = PartitionSchedule::new(5, NumaTopology::new(1));
        assert_eq!(s.order(), &[0, 1, 2, 3, 4]);
        assert!((0..5).all(|p| s.domain_of(p) == 0));
    }
}
