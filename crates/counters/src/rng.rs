//! Seeded pseudo-random numbers without external dependencies.
//!
//! The simulator and the seeded storm and chaos plans need
//! *deterministic, seedable* randomness (run-to-run reproducibility is
//! asserted by the test suite), not cryptographic quality. It lives in
//! this base crate so every crate draws from the same generator without
//! depending on the simulator. This is PCG-XSH-RR 64/32 (O'Neill 2014): a
//! 64-bit LCG state advanced per draw, output-permuted to 32 bits; two
//! draws make a `u64`. Statistically far better than a bare LCG at the
//! same cost, and eight lines of code.
//!
//! Beside it sit the workspace's two seeded hashes: [`splitmix64`], which
//! derives stream seeds and per-node values, and [`fnv1a`], which folds
//! bytes into fingerprints and edge contributions.

/// SplitMix64 finalizer: a cheap, well-mixed bijection on `u64`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The FNV-1a offset basis: the hash of no bytes, where a fold starts.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a hash `h`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A PCG32 generator. Cheap to construct, `Clone` snapshots the stream.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Seed a generator. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Standard PCG seeding: advance once with the seed mixed in so
        // that nearby seeds diverge immediately.
        let mut rng = Self {
            state: 0,
            inc: (seed << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    ///
    /// Debiased multiply-shift (Lemire): rejection keeps the distribution
    /// exactly uniform even when `n` does not divide 2^64.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= n.wrapping_neg() % n {
                return hi;
            }
            // Rejected: draw again (vanishingly rare for small n).
        }
    }

    /// Standard-normal draw via Box–Muller (one of the pair is discarded;
    /// the simulator draws rarely enough that caching isn't worth state).
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::EPSILON);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_match_their_reference_values() {
        // SplitMix64's first output for state 0, and FNV-1a's published
        // vectors for "" and "a".
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Pcg32::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Pcg32::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn range_u64_is_bounded_and_covers() {
        let mut r = Pcg32::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.range_u64(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn mean_of_uniform_is_centered() {
        let mut r = Pcg32::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut r = Pcg32::seed_from_u64(5);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
