//! HyperLogLog cardinality estimation (Flajolet et al., 2007).
//!
//! Estimates the number of *distinct* items in a stream using `2^p` 6-bit
//! registers (stored as bytes here for simplicity). Standard error is
//! `1.04 / sqrt(2^p)` — p=14 gives ~0.8% at 16 KiB. Includes the small-range
//! (linear counting) correction from the original paper.

use serde::{Deserialize, Serialize};

use crate::hash::hash64;
use crate::{MergeError, Mergeable};

/// HyperLogLog distinct-count sketch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HyperLogLog {
    /// Precision: number of index bits, 4..=18.
    p: u8,
    seed: u64,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Create with precision `p` (register count `2^p`).
    pub fn new(p: u8, seed: u64) -> Self {
        assert!((4..=18).contains(&p), "precision must be in 4..=18");
        Self {
            p,
            seed,
            registers: vec![0; 1 << p],
        }
    }

    /// Observe one item (duplicates are free).
    pub fn add(&mut self, item: &[u8]) {
        let h = hash64(self.seed, item);
        let idx = (h >> (64 - self.p)) as usize;
        let rest = h << self.p;
        // Rank: position of the leftmost 1-bit in the remaining bits, 1-based;
        // if all remaining 64-p bits are zero the rank is 64-p+1.
        let rank = if rest == 0 {
            64 - self.p + 1
        } else {
            rest.leading_zeros() as u8 + 1
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;

        if raw <= 2.5 * m {
            // Small-range correction: linear counting over empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }
}

impl Mergeable for HyperLogLog {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.p != other.p {
            return Err(MergeError::new(format!(
                "precision mismatch: {} vs {}",
                self.p, other.p
            )));
        }
        if self.seed != other.seed {
            return Err(MergeError::new("seed mismatch"));
        }
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate_n_distinct(p: u8, n: u64) -> f64 {
        let mut hll = HyperLogLog::new(p, 42);
        for i in 0..n {
            hll.add(&i.to_le_bytes());
        }
        hll.estimate()
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(12, 0);
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    fn small_cardinalities_near_exact() {
        for n in [1u64, 10, 100] {
            let est = estimate_n_distinct(12, n);
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.05, "n={n} est={est}");
        }
    }

    #[test]
    fn large_cardinality_within_error_bound() {
        let n = 1_000_000u64;
        let p = 14;
        let est = estimate_n_distinct(p, n);
        let err = (est - n as f64).abs() / n as f64;
        // 4 standard errors at p=14 is ~3.3%.
        let bound = 4.0 * 1.04 / f64::from(1u32 << p).sqrt();
        assert!(err < bound, "est={est} err={err} bound={bound}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(12, 7);
        for _ in 0..10 {
            for i in 0..1000u64 {
                hll.add(&i.to_le_bytes());
            }
        }
        let est = hll.estimate();
        let err = (est - 1000.0).abs() / 1000.0;
        assert!(err < 0.05, "est={est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12, 3);
        let mut b = HyperLogLog::new(12, 3);
        let mut whole = HyperLogLog::new(12, 3);
        for i in 0..5000u64 {
            whole.add(&i.to_le_bytes());
            if i < 3000 {
                a.add(&i.to_le_bytes());
            }
            if i >= 2000 {
                b.add(&i.to_le_bytes());
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatched_precision_or_seed() {
        let mut a = HyperLogLog::new(12, 1);
        assert!(a.merge(&HyperLogLog::new(13, 1)).is_err());
        assert!(a.merge(&HyperLogLog::new(12, 2)).is_err());
    }

    #[test]
    fn higher_precision_reduces_error() {
        let n = 200_000u64;
        let e10 = (estimate_n_distinct(10, n) - n as f64).abs() / n as f64;
        let e16 = (estimate_n_distinct(16, n) - n as f64).abs() / n as f64;
        // Not guaranteed pointwise, but with fixed seed and this n it holds
        // and documents the intended accuracy/memory trade.
        assert!(e16 < e10 + 0.01, "e10={e10} e16={e16}");
    }

    #[test]
    #[should_panic(expected = "precision must be in 4..=18")]
    fn rejects_silly_precision() {
        let _ = HyperLogLog::new(25, 0);
    }
}
