//! Cache hierarchy description (the cache rows of Table I).

/// Cache sizes of one platform, per Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// L1 data cache per core, bytes.
    pub l1d_bytes: u64,
    /// L2 cache per core, bytes.
    pub l2_bytes: u64,
    /// Shared last-level cache per socket, bytes. Zero on parts without a
    /// shared cache (Xeon Phi).
    pub llc_bytes_per_socket: u64,
}

impl CacheSpec {
    /// Convenience constructor from the units Table I uses.
    pub const fn new(l1d_kb: u64, l2_kb: u64, llc_mb_per_socket: u64) -> Self {
        Self {
            l1d_bytes: l1d_kb * 1024,
            l2_bytes: l2_kb * 1024,
            llc_bytes_per_socket: llc_mb_per_socket * 1024 * 1024,
        }
    }

    /// Total cache capacity *one core* can reasonably keep resident when
    /// `cores_per_socket` cores are active on its socket: its private L2
    /// plus an even share of the socket's LLC. This is the "cache share"
    /// the simulator compares reuse distances against.
    pub fn share_per_core(&self, active_cores_on_socket: u64) -> u64 {
        let llc_share = self
            .llc_bytes_per_socket
            .checked_div(active_cores_on_socket)
            .unwrap_or(self.llc_bytes_per_socket);
        self.l2_bytes + llc_share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_haswell_numbers() {
        // Haswell row: 32 KB L1(D,I), 256 KB L2, 35 MB shared.
        let c = CacheSpec::new(32, 256, 35);
        assert_eq!(c.l1d_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 256 * 1024);
        assert_eq!(c.llc_bytes_per_socket, 35 * 1024 * 1024);
    }

    #[test]
    fn share_per_core_divides_llc() {
        let c = CacheSpec::new(32, 256, 35);
        let one = c.share_per_core(1);
        let fourteen = c.share_per_core(14);
        assert_eq!(one, 256 * 1024 + 35 * 1024 * 1024);
        assert_eq!(fourteen, 256 * 1024 + 35 * 1024 * 1024 / 14);
        assert!(one > fourteen);
    }

    #[test]
    fn share_per_core_zero_active_means_full_llc() {
        let c = CacheSpec::new(32, 256, 20);
        assert_eq!(c.share_per_core(0), 256 * 1024 + 20 * 1024 * 1024);
    }

    #[test]
    fn phi_has_no_llc() {
        let c = CacheSpec::new(32, 512, 0);
        assert_eq!(c.llc_bytes_per_socket, 0);
        assert_eq!(c.share_per_core(60), 512 * 1024);
    }
}
