//! Count-Min sketch (Cormode & Muthukrishnan, 2005).
//!
//! This is the sketch Figure 3 of the paper deploys as a Pulsar function:
//! a `depth × width` grid of counters; each update increments one counter
//! per row; a point query takes the *minimum* over rows, giving an estimate
//! that never underestimates and overestimates by at most `εN` with
//! probability `1 − δ`, where `width = ⌈e/ε⌉` and `depth = ⌈ln(1/δ)⌉`.
//!
//! The optional *conservative update* variant only increments the counters
//! that equal the current minimum, tightening estimates at no asymptotic
//! cost (used by the E6 ablation).

use serde::{Deserialize, Serialize};

use crate::hash::hash64;
use crate::{MergeError, Mergeable};

/// Mix a row index into the seed so each row gets an independent hash
/// function. (A Kirsch–Mitzenmacher derived family is *not* enough here:
/// with `g_i = h1 + i·h2 mod w`, two items agreeing on `h1, h2 mod w`
/// collide in every row at probability `1/w²`, which on skewed streams
/// produces estimates far beyond the εN bound. Independent row hashes
/// restore the classic analysis.)
#[inline]
fn row_seed(seed: u64, row: usize) -> u64 {
    seed ^ (row as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Count-Min sketch over byte-slice items.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    conservative: bool,
    /// Row-major `depth × width` counters.
    counters: Vec<u64>,
    /// Total stream weight N.
    total: u64,
}

impl CountMinSketch {
    /// Create from explicit dimensions, mirroring the
    /// `new CountMinSketch(depth, width, seed)` constructor in the paper's
    /// Figure 3 listing.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth > 0 && width > 0, "dimensions must be positive");
        Self {
            width,
            depth,
            seed,
            conservative: false,
            counters: vec![0; depth * width],
            total: 0,
        }
    }

    /// Create from accuracy targets: estimates exceed truth by more than
    /// `eps * N` with probability at most `delta`.
    pub fn with_error_bounds(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let width = (std::f64::consts::E / eps).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(depth.max(1), width.max(1), seed)
    }

    /// Switch to conservative update (must be set before any updates).
    pub fn conservative(mut self) -> Self {
        assert_eq!(self.total, 0, "set conservative before updating");
        self.conservative = true;
        self
    }

    /// Grid width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid depth (number of rows / hash functions).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total stream weight processed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    fn cell(&self, row: usize, col: usize) -> usize {
        row * self.width + col
    }

    #[inline]
    fn col(&self, row: usize, item: &[u8]) -> usize {
        (hash64(row_seed(self.seed, row), item) % self.width as u64) as usize
    }

    /// Add `count` occurrences of `item` — the `sketch.add(input, 1)` call
    /// in the paper's listing. `#[inline]` so a caller with a fixed-width
    /// key (`&payload[..4]`, a `u64`) hashes it as a constant-length input.
    #[inline]
    pub fn add(&mut self, item: &[u8], count: u64) {
        self.total += count;
        if self.conservative {
            let est = self.estimate(item);
            let target = est + count;
            for row in 0..self.depth {
                let idx = self.cell(row, self.col(row, item));
                if self.counters[idx] < target {
                    self.counters[idx] = target;
                }
            }
        } else {
            for row in 0..self.depth {
                let idx = self.cell(row, self.col(row, item));
                self.counters[idx] += count;
            }
        }
    }

    /// Estimated frequency of `item` — the `sketch.estimateCount(input)`
    /// call in the paper's listing. Never underestimates.
    pub fn estimate(&self, item: &[u8]) -> u64 {
        (0..self.depth)
            .map(|row| self.counters[self.cell(row, self.col(row, item))])
            .min()
            .unwrap_or(0)
    }

    /// Memory footprint of the counter grid in bytes.
    pub fn size_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
    }
}

impl Mergeable for CountMinSketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.width != other.width || self.depth != other.depth {
            return Err(MergeError::new(format!(
                "dimension mismatch: {}x{} vs {}x{}",
                self.depth, self.width, other.depth, other.width
            )));
        }
        if self.seed != other.seed {
            return Err(MergeError::new("seed mismatch"));
        }
        if self.conservative || other.conservative {
            // Conservative sketches are not exactly mergeable (the per-cell
            // max trick loses the additivity the merge relies on); merging
            // them cell-wise would break the no-underestimate guarantee.
            return Err(MergeError::new("conservative sketches are not mergeable"));
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += *b;
        }
        self.total += other.total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use taureau_core::rng::{det_rng, Zipf};

    #[test]
    fn exact_for_sparse_streams() {
        let mut cm = CountMinSketch::new(4, 1024, 7);
        cm.add(b"a", 5);
        cm.add(b"b", 3);
        cm.add(b"c", 1);
        assert_eq!(cm.estimate(b"a"), 5);
        assert_eq!(cm.estimate(b"b"), 3);
        assert_eq!(cm.estimate(b"c"), 1);
        assert_eq!(cm.total(), 9);
    }

    /// Which cell an item lands in is a stored format: sketches built by
    /// different function instances (or before an upgrade) must stay
    /// mergeable. Keys of every length 1..=8 cover each `hash64` tail.
    #[test]
    fn counter_grid_of_a_seeded_stream_is_pinned() {
        let mut cm = CountMinSketch::with_error_bounds(0.001, 0.01, 42);
        let z = Zipf::new(1024, 1.1);
        let mut r = det_rng(18);
        for _ in 0..10_000 {
            let item = z.sample(&mut r);
            cm.add(&(item as u64).to_le_bytes()[..1 + item % 8], 1);
        }
        let grid: Vec<u8> = cm.counters.iter().flat_map(|c| c.to_le_bytes()).collect();
        assert_eq!(taureau_core::hash::fnv(&grid), 0x00b9_5b9e_e23d_3904);
    }

    #[test]
    fn never_underestimates_on_zipf_stream() {
        let mut cm = CountMinSketch::with_error_bounds(0.01, 0.01, 42);
        let z = Zipf::new(1000, 1.1);
        let mut r = det_rng(1);
        let mut truth = vec![0u64; 1000];
        for _ in 0..50_000 {
            let item = z.sample(&mut r);
            truth[item] += 1;
            cm.add(&(item as u64).to_le_bytes(), 1);
        }
        for (i, &t) in truth.iter().enumerate() {
            let est = cm.estimate(&(i as u64).to_le_bytes());
            assert!(est >= t, "item {i}: est {est} < truth {t}");
        }
    }

    #[test]
    fn error_bound_holds_for_most_items() {
        let eps = 0.005;
        let mut cm = CountMinSketch::with_error_bounds(eps, 0.01, 11);
        let z = Zipf::new(10_000, 1.0);
        let mut r = det_rng(2);
        let n = 100_000u64;
        let mut truth = vec![0u64; 10_000];
        for _ in 0..n {
            let item = z.sample(&mut r);
            truth[item] += 1;
            cm.add(&(item as u64).to_le_bytes(), 1);
        }
        let bound = (eps * n as f64) as u64;
        let violations = truth
            .iter()
            .enumerate()
            .filter(|&(i, &t)| cm.estimate(&(i as u64).to_le_bytes()) - t > bound)
            .count();
        // δ = 1% per item; allow generous slack for 10k correlated queries.
        assert!(
            violations < 300,
            "{violations} items exceeded the eps bound"
        );
    }

    #[test]
    fn conservative_update_never_underestimates_and_is_tighter() {
        let z = Zipf::new(500, 1.0);
        let mut plain = CountMinSketch::new(4, 64, 3);
        let mut cons = CountMinSketch::new(4, 64, 3).conservative();
        let mut r = det_rng(5);
        let mut truth = vec![0u64; 500];
        for _ in 0..20_000 {
            let item = z.sample(&mut r);
            truth[item] += 1;
            let key = (item as u64).to_le_bytes();
            plain.add(&key, 1);
            cons.add(&key, 1);
        }
        let mut plain_err = 0u64;
        let mut cons_err = 0u64;
        for (i, &t) in truth.iter().enumerate() {
            let key = (i as u64).to_le_bytes();
            let pe = plain.estimate(&key);
            let ce = cons.estimate(&key);
            assert!(ce >= t, "conservative underestimated item {i}");
            assert!(ce <= pe, "conservative above plain for item {i}");
            plain_err += pe - t;
            cons_err += ce - t;
        }
        assert!(
            cons_err < plain_err,
            "conservative total error {cons_err} not below plain {plain_err}"
        );
    }

    #[test]
    fn merge_equals_single_sketch_over_union() {
        let mut whole = CountMinSketch::new(5, 256, 9);
        let mut left = CountMinSketch::new(5, 256, 9);
        let mut right = CountMinSketch::new(5, 256, 9);
        let mut r = det_rng(8);
        for i in 0..5_000u64 {
            let key = (r.gen_range(0..200u64)).to_le_bytes();
            whole.add(&key, 1);
            if i % 2 == 0 {
                left.add(&key, 1);
            } else {
                right.add(&key, 1);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut a = CountMinSketch::new(4, 64, 1);
        let b = CountMinSketch::new(4, 128, 1);
        assert!(a.merge(&b).is_err());
        let c = CountMinSketch::new(4, 64, 2);
        assert!(a.merge(&c).is_err());
        let d = CountMinSketch::new(4, 64, 1).conservative();
        assert!(a.merge(&d).is_err());
    }

    #[test]
    fn error_bound_parameters() {
        let cm = CountMinSketch::with_error_bounds(0.01, 0.001, 0);
        assert!(cm.width() >= 272); // e / 0.01 ≈ 271.8
        assert!(cm.depth() >= 7); // ln(1000) ≈ 6.9
        assert!(std::f64::consts::E / cm.width() as f64 <= 0.01 + 1e-9);
        assert!((-(cm.depth() as f64)).exp() <= 0.001 + 1e-9);
    }

    #[test]
    fn weighted_updates() {
        let mut cm = CountMinSketch::new(3, 512, 4);
        cm.add(b"x", 10);
        cm.add(b"x", 5);
        assert_eq!(cm.estimate(b"x"), 15);
    }

    #[test]
    fn unseen_items_estimate_small() {
        let mut cm = CountMinSketch::with_error_bounds(0.001, 0.01, 77);
        for i in 0..1000u64 {
            cm.add(&i.to_le_bytes(), 1);
        }
        // An unseen item should estimate well below eps*N = 1.
        assert!(cm.estimate(b"never-seen") <= 1);
    }
}
