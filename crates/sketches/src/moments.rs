//! AMS second-moment (F₂) sketch, in its fast Count-Sketch form
//! (Alon, Matias, Szegedy 1996; Charikar, Chen, Farach-Colton 2002).
//!
//! Estimates `F₂ = Σᵢ fᵢ²` (self-join size) of a frequency vector. Each of
//! `depth` rows hashes items into `width` signed counters; a row's estimate
//! is the sum of squared counters; the sketch reports the median of rows.
//! Width `O(1/ε²)` gives relative error ε; depth `O(log 1/δ)` gives
//! confidence `1−δ`. Linear, hence mergeable by addition — and supports
//! deletions (negative counts), making it usable for turnstile streams.

use serde::{Deserialize, Serialize};

use crate::hash::hash64;
use crate::{MergeError, Mergeable};

/// Independent per-row hash seed (see `countmin::row_seed` for why derived
/// families are not used across rows).
#[inline]
fn row_seed(seed: u64, row: usize) -> u64 {
    seed ^ (row as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// AMS/Count-Sketch F₂ estimator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmsF2 {
    width: usize,
    depth: usize,
    seed: u64,
    /// Row-major signed counters.
    counters: Vec<i64>,
}

impl AmsF2 {
    /// Create with explicit dimensions.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth > 0 && width > 0, "dimensions must be positive");
        Self {
            width,
            depth,
            seed,
            counters: vec![0; depth * width],
        }
    }

    /// Size for relative error `eps` with failure probability `delta`.
    pub fn with_error_bounds(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let width = (6.0 / (eps * eps)).ceil() as usize;
        let depth = (8.0 * (1.0 / delta).ln()).ceil() as usize;
        Self::new(depth.max(1), width.max(1), seed)
    }

    /// Update item frequency by `delta` (negative allowed: turnstile model).
    pub fn update(&mut self, item: &[u8], delta: i64) {
        for row in 0..self.depth {
            let h = hash64(row_seed(self.seed, row), item);
            let col = (h % self.width as u64) as usize;
            // Use a high bit (independent of the bucket choice) as the sign.
            let sign: i64 = if (h >> 63) == 1 { 1 } else { -1 };
            self.counters[row * self.width + col] += sign * delta;
        }
    }

    /// Estimate `F₂ = Σ fᵢ²` as the median of per-row sums of squares.
    pub fn estimate(&self) -> f64 {
        let mut rows: Vec<f64> = (0..self.depth)
            .map(|row| {
                self.counters[row * self.width..(row + 1) * self.width]
                    .iter()
                    .map(|&c| (c as f64) * (c as f64))
                    .sum()
            })
            .collect();
        rows.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mid = rows.len() / 2;
        if rows.len() % 2 == 1 {
            rows[mid]
        } else {
            (rows[mid - 1] + rows[mid]) / 2.0
        }
    }
}

impl Mergeable for AmsF2 {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.width != other.width || self.depth != other.depth {
            return Err(MergeError::new("dimension mismatch"));
        }
        if self.seed != other.seed {
            return Err(MergeError::new("seed mismatch"));
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += *b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::rng::{det_rng, Zipf};

    fn true_f2(freqs: &[u64]) -> f64 {
        freqs.iter().map(|&f| (f as f64) * (f as f64)).sum()
    }

    #[test]
    fn empty_estimates_zero() {
        let s = AmsF2::new(5, 256, 1);
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn estimates_f2_on_zipf_stream() {
        let z = Zipf::new(2000, 1.0);
        let mut r = det_rng(5);
        let mut s = AmsF2::with_error_bounds(0.1, 0.01, 3);
        let mut truth = vec![0u64; 2000];
        for _ in 0..100_000 {
            let item = z.sample(&mut r);
            truth[item] += 1;
            s.update(&(item as u64).to_le_bytes(), 1);
        }
        let est = s.estimate();
        let exact = true_f2(&truth);
        let err = (est - exact).abs() / exact;
        assert!(err < 0.1, "est={est} exact={exact} err={err}");
    }

    #[test]
    fn supports_deletions() {
        let mut s = AmsF2::new(7, 512, 9);
        // Insert then fully delete: F2 returns to 0.
        for i in 0..100u64 {
            s.update(&i.to_le_bytes(), 5);
        }
        for i in 0..100u64 {
            s.update(&i.to_le_bytes(), -5);
        }
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn single_heavy_item() {
        let mut s = AmsF2::new(7, 512, 2);
        s.update(b"whale", 1000);
        let est = s.estimate();
        assert!((est - 1_000_000.0).abs() / 1_000_000.0 < 1e-9, "est {est}");
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = AmsF2::new(5, 128, 7);
        let mut b = AmsF2::new(5, 128, 7);
        let mut whole = AmsF2::new(5, 128, 7);
        for i in 0..500u64 {
            let key = (i % 50).to_le_bytes();
            whole.update(&key, 1);
            if i % 2 == 0 {
                a.update(&key, 1);
            } else {
                b.update(&key, 1);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = AmsF2::new(5, 128, 7);
        assert!(a.merge(&AmsF2::new(5, 256, 7)).is_err());
        assert!(a.merge(&AmsF2::new(5, 128, 8)).is_err());
    }
}
