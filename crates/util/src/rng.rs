//! Deterministic random number generation.
//!
//! Simulations must be exactly reproducible for a fixed seed (the integration
//! tests depend on it), so every source of randomness in the engine goes
//! through [`SimRng`]. Internally this is `rand::rngs::SmallRng`
//! (xoshiro256++), which is fast enough to sit inside per-agent behaviors.
//!
//! Thread-local streams are derived with [`SimRng::stream`] using a SplitMix64
//! hash of `(seed, stream_id)` so that every thread receives a statistically
//! independent generator from one user-facing seed.
//!
//! Every sampler here is exact: [`SimRng::gaussian`] is Marsaglia's polar
//! method and [`SimRng::unit_vector`] Marsaglia's 1972 disc method, each a
//! rejection loop over uniform pairs. A random walker draws one direction
//! per agent per iteration, so `unit_vector` takes two uniforms per try and
//! neither a logarithm nor a normalisation.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 step: the canonical 64-bit seed scrambler.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic simulation RNG. Cheap to construct, `Send`, not `Sync`
/// (each thread owns its own stream).
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a user-facing seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        }
        SimRng {
            inner: SmallRng::from_seed(key),
        }
    }

    /// Derives an independent stream (e.g., one per thread or per agent batch)
    /// from the same user-facing seed.
    pub fn stream(seed: u64, stream_id: u64) -> Self {
        let mut s = seed ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F);
        SimRng::new(splitmix64(&mut s))
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard-normal sample (Marsaglia polar method).
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        loop {
            let u = self.uniform_in(-1.0, 1.0);
            let v = self.uniform_in(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return mean + std_dev * u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Uniform point inside an axis-aligned box `[lo, hi)^3`.
    pub fn point_in_cube(&mut self, lo: f64, hi: f64) -> crate::Real3 {
        crate::Real3::new(
            self.uniform_in(lo, hi),
            self.uniform_in(lo, hi),
            self.uniform_in(lo, hi),
        )
    }

    /// Uniform unit vector (direction) by Marsaglia's disc method ("Choosing
    /// a point from the surface of a sphere", Ann. Math. Statist. 43:645,
    /// 1972): draw `(u, v)` uniform in `[-1, 1)²` until `s = u² + v² < 1`,
    /// then return `(2u√(1−s), 2v√(1−s), 1 − 2s)`.
    ///
    /// The same uniform law on S² as normalising three Gaussians, from two
    /// uniforms per try (a try is accepted with probability π/4), one
    /// `sqrt` and no `ln`. The vector is unit by construction, to rounding:
    /// `4s(1−s) + (1−2s)² = 1`.
    #[inline]
    pub fn unit_vector(&mut self) -> crate::Real3 {
        loop {
            let u = self.uniform_in(-1.0, 1.0);
            let v = self.uniform_in(-1.0, 1.0);
            let s = u * u + v * v;
            if s < 1.0 {
                let k = 2.0 * (1.0 - s).sqrt();
                return crate::Real3::new(k * u, k * v, 1.0 - 2.0 * s);
            }
        }
    }

    /// Raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let mut s0 = SimRng::stream(7, 0);
        let mut s0b = SimRng::stream(7, 0);
        let mut s1 = SimRng::stream(7, 1);
        assert_eq!(s0.next_u64(), s0b.next_u64());
        let same = (0..32).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.uniform();
            assert!((0.0..1.0).contains(&v));
            let w = r.uniform_in(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&w));
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should be hit");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::new(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn unit_vector_is_unit() {
        let mut r = SimRng::new(6);
        for _ in 0..1000 {
            let v = r.unit_vector();
            assert!((v.norm() - 1.0).abs() < 1e-9);
        }
    }

    /// Kolmogorov–Smirnov distance between `samples` (sorted in place) and
    /// the uniform law on `[-1, 1]`.
    fn ks_distance_to_uniform(samples: &mut [f64]) -> f64 {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        samples
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = ((x + 1.0) / 2.0).clamp(0.0, 1.0);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn unit_vector_coordinates_are_uniform() {
        // Archimedes: each coordinate of a uniform point on S² is uniform on
        // [-1, 1]. 8 seeds × 3 coordinates = 24 KS tests at a family-wise
        // α = 1e-6, so each is bounded at α/24 by the asymptotic tail
        // P(D > d) ≤ 2·exp(−2nd²): a correct sampler essentially never
        // fails, a planted bias (e.g. z = 1 − s, uniform on [0, 1]) fails
        // with D ≈ 0.5.
        const SEEDS: u64 = 8;
        const DRAWS: usize = 100_000;
        let alpha = 1e-6 / (3 * SEEDS) as f64;
        let bound = ((2.0 / alpha).ln() / (2.0 * DRAWS as f64)).sqrt();
        for seed in 0..SEEDS {
            let mut r = SimRng::stream(0x5eed, seed);
            let mut axes = [vec![0.0; DRAWS], vec![0.0; DRAWS], vec![0.0; DRAWS]];
            for i in 0..DRAWS {
                let v = r.unit_vector();
                assert!(
                    (v.norm() - 1.0).abs() <= 1e-14,
                    "seed {seed} draw {i}: {v:?}"
                );
                for (a, axis) in axes.iter_mut().enumerate() {
                    axis[i] = v[a];
                }
            }
            for (a, axis) in axes.iter_mut().enumerate() {
                let d = ks_distance_to_uniform(axis);
                assert!(d <= bound, "seed {seed} axis {a}: D = {d} > {bound}");
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(8);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0 + 1e-12)));
    }
}
