//! NUMA domains and the worker-to-domain mapping.
//!
//! The Priority Local scheduler's search order (paper Fig. 1) is defined in
//! terms of NUMA domains: a worker exhausts its own queues, then its NUMA
//! domain's, then remote domains'. [`NumaTopology`] answers the two
//! questions that ordering needs: *which domain is worker `w` in?* and
//! *which other workers are in the same / in remote domains, in what
//! order?*

/// Identifier of a NUMA domain (socket), dense from zero.
pub type DomainId = usize;

/// Cores grouped into NUMA domains, plus the mapping of runtime workers
/// onto cores. Workers are assigned to domains round-robin-by-block, the
/// same "one static OS thread per core, NUMA aware" placement HPX uses by
/// default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    /// `domains[d]` = number of workers placed in domain `d`.
    workers_per_domain: Vec<usize>,
    /// `domain_of[w]` = domain of worker `w`.
    domain_of: Vec<DomainId>,
}

impl NumaTopology {
    /// Distribute `workers` workers over `domains` equally sized domains,
    /// filling domain 0 first (block placement: workers 0..k in domain 0,
    /// etc.), matching HPX's default resource allocation.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `domains == 0`.
    pub fn block(workers: usize, domains: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(domains > 0, "need at least one domain");
        let domains = domains.min(workers);
        let base = workers / domains;
        let extra = workers % domains;
        let mut workers_per_domain = Vec::with_capacity(domains);
        let mut domain_of = Vec::with_capacity(workers);
        for d in 0..domains {
            let n = base + usize::from(d < extra);
            workers_per_domain.push(n);
            for _ in 0..n {
                domain_of.push(d);
            }
        }
        Self {
            workers_per_domain,
            domain_of,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.domain_of.len()
    }

    /// Number of NUMA domains.
    pub fn domains(&self) -> usize {
        self.workers_per_domain.len()
    }

    /// Domain of worker `w`.
    fn domain_of(&self, w: usize) -> DomainId {
        self.domain_of[w]
    }

    /// Workers in domain `d`, in index order.
    pub fn workers_in(&self, d: DomainId) -> impl Iterator<Item = usize> + '_ {
        let me = d;
        (0..self.workers()).filter(move |&w| self.domain_of[w] == me)
    }

    /// Peer workers of `w` in the same NUMA domain, excluding `w` itself,
    /// starting after `w` and wrapping (so different workers spread their
    /// steal attempts instead of all hammering worker 0).
    pub fn same_domain_peers(&self, w: usize) -> Vec<usize> {
        let d = self.domain_of(w);
        self.rotated_peers(w, |p| self.domain_of[p] == d)
    }

    /// Workers in *other* NUMA domains, in worker index order rotated
    /// after `w`, as [`Self::same_domain_peers`] orders its own. There is
    /// no distance model: every remote domain counts as equally far, as
    /// the two sockets of a dual-socket node are.
    pub fn remote_domain_peers(&self, w: usize) -> Vec<usize> {
        let d = self.domain_of(w);
        self.rotated_peers(w, |p| self.domain_of[p] != d)
    }

    fn rotated_peers(&self, w: usize, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        let n = self.workers();
        (1..n).map(|i| (w + i) % n).filter(|&p| keep(p)).collect()
    }

    /// True if workers `a` and `b` share a NUMA domain.
    pub fn same_domain(&self, a: usize, b: usize) -> bool {
        self.domain_of(a) == self.domain_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_haswell() {
        // 28 workers over 2 sockets: 14 + 14, block-placed.
        let t = NumaTopology::block(28, 2);
        assert_eq!(t.workers(), 28);
        assert_eq!(t.domains(), 2);
        assert_eq!(t.domain_of(0), 0);
        assert_eq!(t.domain_of(13), 0);
        assert_eq!(t.domain_of(14), 1);
        assert_eq!(t.domain_of(27), 1);
        assert_eq!(t.workers_in(0).count(), 14);
        assert_eq!(t.workers_in(1).count(), 14);
    }

    #[test]
    fn uneven_split_spreads_remainder() {
        let t = NumaTopology::block(5, 2);
        assert_eq!(t.workers_in(0).count(), 3);
        assert_eq!(t.workers_in(1).count(), 2);
    }

    #[test]
    fn more_domains_than_workers_collapses() {
        let t = NumaTopology::block(2, 8);
        assert_eq!(t.domains(), 2);
    }

    #[test]
    fn flat_is_single_domain() {
        let t = NumaTopology::block(61, 1);
        assert_eq!(t.domains(), 1);
        assert!(t.same_domain(0, 60));
    }

    #[test]
    fn same_domain_peers_rotate_and_exclude_self() {
        let t = NumaTopology::block(8, 2); // 0-3 in d0, 4-7 in d1
        let peers = t.same_domain_peers(2);
        assert_eq!(peers, vec![3, 0, 1]);
        let peers = t.same_domain_peers(5);
        assert_eq!(peers, vec![6, 7, 4]);
    }

    #[test]
    fn remote_peers_are_other_domain_only() {
        let t = NumaTopology::block(8, 2);
        let remote = t.remote_domain_peers(2);
        assert_eq!(remote, vec![4, 5, 6, 7]);
        let remote = t.remote_domain_peers(6);
        assert_eq!(remote, vec![0, 1, 2, 3]);
        // Three domains, {0,1} {2,3} {4,5}: worker 2's Fig. 1 steps 5-6
        // visit the domain after its own first, then wrap to domain 0.
        let t = NumaTopology::block(6, 3);
        assert_eq!(t.remote_domain_peers(2), vec![4, 5, 0, 1]);
    }

    #[test]
    fn peer_sets_partition_all_other_workers() {
        let t = NumaTopology::block(12, 3);
        for w in 0..12 {
            let mut all: Vec<usize> = t.same_domain_peers(w);
            all.extend(t.remote_domain_peers(w));
            all.sort_unstable();
            let expect: Vec<usize> = (0..12).filter(|&x| x != w).collect();
            assert_eq!(all, expect, "worker {w}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = NumaTopology::block(0, 1);
    }
}
