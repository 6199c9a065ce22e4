//! Seeded input generators. Every input of every workload is a pure
//! function of `--seed`: splitmix64 streams, one per (seed, tag) pair, so
//! adding a generator never shifts the values another one draws.

/// splitmix64 (Steele, Lea, Flood): the same mixer `racc-cg`'s ragged CSR
/// generator uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `tag` of `seed`.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        // 128-bit multiply-shift: unbiased enough for input generation and
        // free of the modulo's low-bit correlation.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Standard normal (Box–Muller, one value per call).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.unit(); // (0, 1]
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// `n` uniform values in `[lo, hi)`.
    pub fn vec_uniform(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.uniform(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_seed_and_tag() {
        let a: Vec<u64> = {
            let mut r = Rng::stream(7, "x");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::stream(7, "x");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other_tag = Rng::stream(7, "y");
        let mut other_seed = Rng::stream(8, "x");
        assert_ne!(a[0], other_tag.next_u64());
        assert_ne!(a[0], other_seed.next_u64());
    }

    #[test]
    fn ranges_hold() {
        let mut r = Rng::stream(1, "range");
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(17) < 17);
            assert!(r.exponential(3.0) >= 0.0);
            assert!(r.gaussian().is_finite());
        }
    }

    #[test]
    fn splitmix_reference_value() {
        // First output of splitmix64 seeded with 0 (published test vector).
        let mut r = Rng(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
    }
}
