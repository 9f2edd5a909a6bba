//! Zipfian and uniform key-rank samplers (YCSB-compatible).
//!
//! The paper's evaluation drives YCSB-B with Zipfian-distributed keys at
//! θ = 0.99 (§4.1) and sweeps θ ∈ {0, 0.5, 0.99, 1.5} in Figure 12. YCSB's
//! classic O(1) approximation (Gray et al.) only covers 0 < θ < 1, so this
//! module provides:
//!
//! - [`Zipfian`]: the YCSB generator for `0 < θ < 1`,
//! - [`TableZipf`]: an exact inverse-CDF sampler for any `θ > 0`
//!   (required for the θ = 1.5 point in Figure 12),
//! - [`KeySampler`]: the façade that picks the right implementation and
//!   optionally *scrambles* ranks (YCSB's `ScrambledZipfianGenerator`) so
//!   hot keys are spread across the key-hash space rather than clustered —
//!   exactly the situation Rocksteady's hash-partitioned Pulls face.

use std::sync::Arc;

use crate::ids::key_hash;
use crate::rng::Prng;

/// YCSB's O(1) Zipfian rank generator for skew `0 < θ < 1`.
///
/// Produces ranks in `[0, n)` where rank 0 is the hottest item, using the
/// closed-form approximation from Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases" (the algorithm YCSB ships).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator over `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 0` and `0 < theta < 1` (use [`TableZipf`] for
    /// θ ≥ 1 and [`KeySampler`] to dispatch automatically).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian over empty domain");
        assert!(
            theta > 0.0 && theta < 1.0,
            "YCSB zipfian requires 0 < theta < 1, got {theta}"
        );
        let zeta_n = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
        }
    }

    /// Samples a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Prng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Harmonic partial sum Σ_{i=1..n} i^{-θ}.
fn zeta(n: u64, theta: f64) -> f64 {
    // For the table sizes in this repo (≤ tens of millions) a direct sum
    // is affordable and exact; it runs once per generator.
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// Exact inverse-CDF Zipf sampler for any skew `θ > 0`.
///
/// Precomputes the cumulative distribution over all `n` ranks and samples
/// with a binary search — O(log n) per sample, exact for every θ
/// including the θ ≥ 1 regime YCSB's approximation cannot handle.
#[derive(Debug, Clone)]
pub struct TableZipf {
    /// Shared, so clones of one sampler do not copy the table.
    cdf: Arc<[f64]>,
}

impl TableZipf {
    /// Builds the CDF table for `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta <= 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!(theta > 0.0, "theta must be positive");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        TableZipf { cdf: cdf.into() }
    }

    /// Samples a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Prng) -> u64 {
        let u = rng.next_f64();
        // partition_point returns the count of entries < u, i.e. the first
        // rank whose cumulative mass reaches u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// How client workloads choose keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every rank equally likely (θ = 0 in Figure 12).
    Uniform,
    /// Zipf-distributed ranks with the given skew θ.
    Zipfian { theta: f64 },
}

/// Samples key *ranks* for a workload, optionally scrambled.
///
/// With `scrambled = true` (the YCSB default used in §4.1) the sampled
/// popularity rank is hashed into a stable pseudo-random position in
/// `[0, n)`, so popular keys are scattered over the whole table rather
/// than being the lexicographically-first ones.
#[derive(Debug, Clone)]
pub struct KeySampler {
    n: u64,
    scrambled: bool,
    inner: SamplerImpl,
}

#[derive(Debug, Clone)]
enum SamplerImpl {
    Uniform,
    Ycsb(Zipfian),
    Table(TableZipf),
}

impl KeySampler {
    /// Builds a sampler over `n` keys with the given distribution.
    ///
    /// Dispatches on θ: uniform for θ = 0 (or [`KeyDist::Uniform`]), the
    /// O(1) YCSB generator for 0 < θ < 1, and the exact table sampler for
    /// θ ≥ 1.
    pub fn new(n: u64, dist: KeyDist, scrambled: bool) -> Self {
        let inner = match dist {
            KeyDist::Uniform => SamplerImpl::Uniform,
            KeyDist::Zipfian { theta } if theta <= 0.0 => SamplerImpl::Uniform,
            KeyDist::Zipfian { theta } if theta < 1.0 => SamplerImpl::Ycsb(Zipfian::new(n, theta)),
            KeyDist::Zipfian { theta } => SamplerImpl::Table(TableZipf::new(n, theta)),
        };
        KeySampler {
            n,
            scrambled,
            inner,
        }
    }

    /// Number of keys in the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Samples a key index in `[0, n)`.
    pub fn sample(&self, rng: &mut Prng) -> u64 {
        let rank = match &self.inner {
            SamplerImpl::Uniform => rng.next_below(self.n),
            SamplerImpl::Ycsb(z) => z.sample(rng),
            SamplerImpl::Table(t) => t.sample(rng),
        };
        if self.scrambled {
            key_hash(&rank.to_le_bytes()) % self.n
        } else {
            rank
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_mass(sampler: &KeySampler, head: u64, samples: u64) -> f64 {
        let mut rng = Prng::new(11);
        let mut hits = 0u64;
        for _ in 0..samples {
            if sampler.sample(&mut rng) < head {
                hits += 1;
            }
        }
        hits as f64 / samples as f64
    }

    #[test]
    fn uniform_head_mass_is_proportional() {
        let s = KeySampler::new(1_000, KeyDist::Uniform, false);
        let m = head_mass(&s, 100, 100_000);
        assert!((0.08..0.12).contains(&m), "mass {m}");
    }

    #[test]
    fn ycsb_zipfian_is_skewed() {
        // θ=0.99 over 10k keys: top 1% of ranks should carry far more than
        // 1% of accesses (analytically ~59%).
        let s = KeySampler::new(10_000, KeyDist::Zipfian { theta: 0.99 }, false);
        let m = head_mass(&s, 100, 100_000);
        assert!(m > 0.45, "head mass only {m}");
    }

    #[test]
    fn theta_half_less_skewed_than_099() {
        let s05 = KeySampler::new(10_000, KeyDist::Zipfian { theta: 0.5 }, false);
        let s99 = KeySampler::new(10_000, KeyDist::Zipfian { theta: 0.99 }, false);
        assert!(head_mass(&s05, 100, 50_000) < head_mass(&s99, 100, 50_000));
    }

    #[test]
    fn high_skew_table_sampler() {
        // θ=1.5 (Figure 12's hottest point): rank 0 alone should carry a
        // large share (analytically 1/ζ(1.5) over 10k ≈ 38%).
        let s = KeySampler::new(10_000, KeyDist::Zipfian { theta: 1.5 }, false);
        let m = head_mass(&s, 1, 50_000);
        assert!((0.30..0.48).contains(&m), "rank-0 mass {m}");
    }

    #[test]
    fn samples_stay_in_domain() {
        for theta in [0.0, 0.5, 0.99, 1.5] {
            let s = KeySampler::new(97, KeyDist::Zipfian { theta }, true);
            let mut rng = Prng::new(5);
            for _ in 0..10_000 {
                assert!(s.sample(&mut rng) < 97);
            }
        }
    }

    #[test]
    fn scrambling_moves_the_hot_key_but_keeps_skew() {
        let plain = KeySampler::new(10_000, KeyDist::Zipfian { theta: 0.99 }, false);
        let scram = KeySampler::new(10_000, KeyDist::Zipfian { theta: 0.99 }, true);
        // The scrambled hot key is (almost surely) not rank 0.
        let mut rng = Prng::new(13);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(scram.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let (&hot, &hot_count) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_ne!(hot, 0, "scrambling left the hot key at rank 0");
        // Skew preserved: the hottest key still dominates.
        assert!(hot_count > 2_000, "hot key only drew {hot_count}/50000");
        // And the unscrambled generator's hot key *is* rank 0.
        let mut rng2 = Prng::new(13);
        let mut zero_hits = 0;
        for _ in 0..50_000 {
            if plain.sample(&mut rng2) == 0 {
                zero_hits += 1;
            }
        }
        assert!(zero_hits > 2_000);
    }

    #[test]
    fn zeta_small_values() {
        assert!((zeta(1, 0.5) - 1.0).abs() < 1e-12);
        let z2 = zeta(2, 0.5);
        assert!((z2 - (1.0 + 1.0 / 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "0 < theta < 1")]
    fn ycsb_rejects_theta_one() {
        Zipfian::new(10, 1.0);
    }
}
