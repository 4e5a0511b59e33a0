//! Bloom filter (Bloom, 1970).
//!
//! Approximate set membership with no false negatives and a tunable false
//! positive rate: `k = (m/n) ln 2` hash functions over `m` bits sized for
//! `n` expected insertions at false-positive probability `fpp`.

use serde::{Deserialize, Serialize};

use crate::hash::HashPair;
use crate::{MergeError, Mergeable};

/// A Bloom filter over byte-slice items.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: u64,
    k: u32,
    seed: u64,
    inserted: u64,
}

impl BloomFilter {
    /// Size the filter for `expected_items` at target false-positive
    /// probability `fpp`.
    pub fn new(expected_items: usize, fpp: f64, seed: u64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(fpp > 0.0 && fpp < 1.0, "fpp must be in (0,1)");
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * fpp.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
        Self {
            bits: vec![0; m.div_ceil(64) as usize],
            m,
            k,
            seed,
            inserted: 0,
        }
    }

    /// Items inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    #[inline]
    fn positions<'a>(&'a self, pair: &'a HashPair) -> impl Iterator<Item = u64> + 'a {
        (0..self.k as u64).map(move |i| pair.derive(i) % self.m)
    }

    /// Insert an item.
    pub fn insert(&mut self, item: &[u8]) {
        let pair = HashPair::new(self.seed, item);
        // Collect first to avoid borrowing self both ways.
        let pos: Vec<u64> = self.positions(&pair).collect();
        for p in pos {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
        self.inserted += 1;
    }

    /// Check membership: `false` is definite, `true` may be a false positive.
    pub fn contains(&self, item: &[u8]) -> bool {
        let pair = HashPair::new(self.seed, item);
        let hit = self
            .positions(&pair)
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0);
        hit
    }

    /// Expected false-positive probability at the current fill level:
    /// `(1 - e^{-k n / m})^k`.
    pub fn estimated_fpp(&self) -> f64 {
        let exponent = -(self.k as f64) * self.inserted as f64 / self.m as f64;
        (1.0 - exponent.exp()).powi(self.k as i32)
    }
}

impl Mergeable for BloomFilter {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.m != other.m || self.k != other.k {
            return Err(MergeError::new("shape mismatch"));
        }
        if self.seed != other.seed {
            return Err(MergeError::new("seed mismatch"));
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(10_000, 0.01, 1);
        for i in 0..10_000u64 {
            bf.insert(&i.to_le_bytes());
        }
        for i in 0..10_000u64 {
            assert!(bf.contains(&i.to_le_bytes()), "lost item {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut bf = BloomFilter::new(10_000, 0.01, 2);
        for i in 0..10_000u64 {
            bf.insert(&i.to_le_bytes());
        }
        let probes = 100_000u64;
        let fp = (10_000..10_000 + probes)
            .filter(|i| bf.contains(&i.to_le_bytes()))
            .count();
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.02, "observed fpp {rate}");
        // And the analytic estimate should be in the same ballpark.
        assert!((bf.estimated_fpp() - rate).abs() < 0.01);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::new(100, 0.01, 3);
        assert!(!bf.contains(b"anything"));
        assert_eq!(bf.estimated_fpp(), 0.0);
    }

    #[test]
    fn merge_is_union() {
        let mut a = BloomFilter::new(1000, 0.01, 4);
        let mut b = BloomFilter::new(1000, 0.01, 4);
        a.insert(b"left");
        b.insert(b"right");
        a.merge(&b).unwrap();
        assert!(a.contains(b"left"));
        assert!(a.contains(b"right"));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn merge_rejects_different_configs() {
        let mut a = BloomFilter::new(1000, 0.01, 4);
        let b = BloomFilter::new(2000, 0.01, 4);
        assert!(a.merge(&b).is_err());
        let c = BloomFilter::new(1000, 0.01, 5);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn sizing_math() {
        // Classic result: 1% fpp needs ~9.6 bits/item and 7 hashes.
        let bf = BloomFilter::new(1000, 0.01, 0);
        let bits_per_item = bf.m as f64 / 1000.0;
        assert!((9.0..11.0).contains(&bits_per_item), "{bits_per_item}");
        assert_eq!(bf.k, 7);
    }
}
