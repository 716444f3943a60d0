//! The NUMA domain count.
//!
//! §III.D: *"Each graph partition is allocated on one NUMA domain. … Graph
//! partitions are spread over all NUMA domains. As we have 4 NUMA domains
//! on our experimental platform, we consider only multiples of 4 and
//! allocate the same number of partitions on each NUMA domain."*
//!
//! Physical placement is not modelled: memory is not bound to a domain,
//! workers are not pinned to one, and the executors run partitions in
//! index order. What survives of NUMA is the domain count, which rounds
//! the partition count up to a multiple of it
//! ([`round_partitions`](NumaTopology::round_partitions)) and gives the
//! Polymer and GraphGrind-v1 baselines their one partition per domain.

/// A machine with `domains` NUMA domains, reduced to their count.
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
    fn rounding_to_domain_multiples() {
        let numa = NumaTopology::paper_machine();
        assert_eq!(numa.round_partitions(1), 4);
        assert_eq!(numa.round_partitions(4), 4);
        assert_eq!(numa.round_partitions(5), 8);
        assert_eq!(numa.round_partitions(384), 384);
        assert_eq!(numa.round_partitions(0), 4);
    }

    #[test]
    fn uma_keeps_every_partition_count() {
        let numa = NumaTopology::new(1);
        for p in 1..10 {
            assert_eq!(numa.round_partitions(p), p);
        }
    }
}
