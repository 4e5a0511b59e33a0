//! Deterministic randomness and workload samplers.
//!
//! All stochastic behaviour in the stack flows through seeded
//! [`ChaCha8Rng`](rand_chacha::ChaCha8Rng) instances so that tests and
//! experiments are reproducible run-to-run. The samplers here are the ones
//! the workload generators need: Zipf item popularity (for sketch streams
//! and key-value skew) and Poisson arrival processes (for request traffic).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Construct the workspace-standard deterministic RNG from a seed.
pub fn det_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A standard-normal sample via Box–Muller — the one normal sampler every
/// crate shares (latency models, Monte Carlo workloads), avoiding a
/// `rand_distr` dependency.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Zipf-distributed sampler over `{0, 1, …, n-1}` with exponent `s`.
///
/// Item `i` has probability proportional to `1 / (i+1)^s`. Implemented with
/// a precomputed CDF and binary search: O(n) setup, O(log n) per sample —
/// ample for the 10^5–10^6 item universes the experiments use.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a sampler over `n` items with skew `s` (s = 0 is uniform,
    /// s ≈ 1 is classic web-object popularity).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point drift at the top end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Draw one item index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Exact probability of item `i` under this distribution.
    pub fn prob(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_reproducible() {
        let mut a = det_rng(7);
        let mut b = det_rng(7);
        let va: Vec<u32> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (0..100).map(|i| z.prob(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_skews_towards_low_indices() {
        let z = Zipf::new(1000, 1.2);
        let mut r = det_rng(1);
        let mut head = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // Top-10 of 1000 items should capture well over a third of the mass
        // at s=1.2.
        assert!(
            head as f64 / n as f64 > 0.35,
            "head share {}",
            head as f64 / n as f64
        );
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.prob(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_matches_exact_for_head_item() {
        let z = Zipf::new(50, 1.0);
        let mut r = det_rng(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| z.sample(&mut r) == 0).count();
        let emp = hits as f64 / n as f64;
        let exact = z.prob(0);
        assert!(
            (emp - exact).abs() / exact < 0.05,
            "emp {emp} exact {exact}"
        );
    }
}
