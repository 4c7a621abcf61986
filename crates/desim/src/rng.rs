//! Deterministic random-number helpers for simulations.
//!
//! Every stochastic element of a simulation (workload generation, heartbeat
//! phase offsets, service-time jitter) must be reproducible from a single
//! seed. This module provides a tiny, fast SplitMix64 generator with stream
//! derivation, so each simulated component can own an independent stream
//! derived from `(master_seed, component_label)` — adding a component never
//! perturbs the random numbers other components see.

/// SplitMix64: a tiny, high-quality 64-bit PRNG (public-domain algorithm by
/// Sebastiano Vigna). Not cryptographic.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent stream for a named component.
    pub fn derive(&self, label: &str) -> SplitMix64 {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        SplitMix64::new(self.state ^ h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Lemire's multiply-shift with rejection for unbiased results.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // low < bound: possible bias region; check threshold.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)` (`lo < hi`).
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below(hi - lo)
    }

    /// Value uniform in `[mean*(1-jitter), mean*(1+jitter)]`, for modelling
    /// bounded service-time noise.
    pub fn jittered(&mut self, mean: f64, jitter: f64) -> f64 {
        assert!((0.0..=1.0).contains(&jitter));
        mean * (1.0 + jitter * (2.0 * self.next_f64() - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = SplitMix64::new(7);
        let mut x = root.derive("disk");
        let mut y = root.derive("net");
        // Streams differ from each other and from the root sequence.
        let xs: Vec<u64> = (0..8).map(|_| x.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| y.next_u64()).collect();
        assert_ne!(xs, ys);
        // And deriving again with the same label reproduces the stream.
        let mut x2 = root.derive("disk");
        let xs2: Vec<u64> = (0..8).map(|_| x2.next_u64()).collect();
        assert_eq!(xs, xs2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_unbiased_coverage() {
        let mut r = SplitMix64::new(3);
        let mut seen = [0u32; 10];
        for _ in 0..10_000 {
            seen[r.next_below(10) as usize] += 1;
        }
        for (i, &c) in seen.iter().enumerate() {
            assert!(c > 700, "bucket {i} undersampled: {c}");
        }
    }

    #[test]
    fn next_range_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = r.next_range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SplitMix64::new(13);
        for _ in 0..1000 {
            let v = r.jittered(100.0, 0.2);
            assert!((80.0..=120.0).contains(&v));
        }
    }
}
