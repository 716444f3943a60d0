//! Simulated NUMA topology.
//!
//! §III.D: *"Each graph partition is allocated on one NUMA domain. … Graph
//! partitions are spread over all NUMA domains. As we have 4 NUMA domains
//! on our experimental platform, we consider only multiples of 4 and
//! allocate the same number of partitions on each NUMA domain."*
//!
//! Physical page placement cannot be reproduced portably (and the test
//! machine may not expose NUMA at all), so this module models the
//! *assignment* — which domain owns which partition and which vertex
//! ranges — and the schedule built on it groups a domain's partitions
//! together. The behavioural property the paper's results rely on (each
//! vertex updated by threads of exactly one domain) is preserved and is
//! assertable in tests.

/// A simulated NUMA machine with `domains` memory domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumaTopology {
    domains: usize,
}

impl NumaTopology {
    /// The paper's evaluation platform: 4 sockets.
    pub fn paper_machine() -> Self {
        NumaTopology { domains: 4 }
    }

    /// A topology with `domains` domains (1 = UMA).
    pub fn new(domains: usize) -> Self {
        assert!(domains > 0, "need at least one domain");
        NumaTopology { domains }
    }

    /// Number of domains.
    #[inline]
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// Domain owning partition `p` of `num_partitions`, using block
    /// assignment (partitions `0..P/D` on domain 0, etc.), which matches
    /// allocating equal partition counts per domain.
    #[inline]
    pub fn domain_of_partition(&self, p: usize, num_partitions: usize) -> usize {
        debug_assert!(p < num_partitions);
        if num_partitions <= self.domains {
            // Fewer partitions than domains: one partition per domain.
            p
        } else {
            // Block assignment; remainders distributed like vertex_balanced.
            (p * self.domains) / num_partitions
        }
    }

    /// Rounds a requested partition count up to a multiple of the domain
    /// count (the paper "considers only multiples of 4").
    pub fn round_partitions(&self, requested: usize) -> usize {
        requested.max(1).div_ceil(self.domains) * self.domains
    }
}

impl Default for NumaTopology {
    fn default() -> Self {
        Self::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_assignment_is_balanced() {
        let numa = NumaTopology::new(4);
        let mut counts = [0usize; 4];
        for p in 0..16 {
            counts[numa.domain_of_partition(p, 16)] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }

    #[test]
    fn assignment_is_monotone() {
        // Blocks: a domain's partitions are contiguous.
        let numa = NumaTopology::new(4);
        let doms: Vec<usize> = (0..20).map(|p| numa.domain_of_partition(p, 20)).collect();
        assert!(doms.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(doms[0], 0);
        assert_eq!(doms[19], 3);
    }

    #[test]
    fn fewer_partitions_than_domains() {
        let numa = NumaTopology::new(8);
        assert_eq!(numa.domain_of_partition(0, 2), 0);
        assert_eq!(numa.domain_of_partition(1, 2), 1);
    }

    #[test]
    fn rounding_to_domain_multiples() {
        let numa = NumaTopology::paper_machine();
        assert_eq!(numa.round_partitions(1), 4);
        assert_eq!(numa.round_partitions(4), 4);
        assert_eq!(numa.round_partitions(5), 8);
        assert_eq!(numa.round_partitions(384), 384);
        assert_eq!(numa.round_partitions(0), 4);
    }

    #[test]
    fn uma_single_domain() {
        let numa = NumaTopology::new(1);
        for p in 0..10 {
            assert_eq!(numa.domain_of_partition(p, 10), 0);
        }
    }
}
