//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Maintains a uniform random sample of `k` items from a stream of unknown
//! length. Merging two reservoirs uses weighted subsampling so the result is
//! still a uniform sample of the concatenated stream.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A uniform `k`-sample of a stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservoirSample<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T: Clone> ReservoirSample<T> {
    /// Reservoir of size `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        Self {
            capacity: k,
            seen: 0,
            items: Vec::with_capacity(k),
        }
    }

    /// Current sample (length `min(k, seen)`).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Observe one stream element.
    pub fn add<R: Rng + ?Sized>(&mut self, rng: &mut R, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Merge with another reservoir over a disjoint sub-stream: each slot of
    /// the result is drawn from `self` or `other` with probability
    /// proportional to the stream lengths they represent.
    pub fn merge<R: Rng + ?Sized>(&mut self, rng: &mut R, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        if other.seen == 0 {
            return;
        }
        if self.seen == 0 {
            self.items = other.items.clone();
            self.seen = other.seen;
            return;
        }
        let total = self.seen + other.seen;
        let p_self = self.seen as f64 / total as f64;
        let k = self.capacity.min(total as usize);
        let mut merged = Vec::with_capacity(k);
        // Draw with replacement from each side's sample proportionally; for
        // k ≪ stream length this matches uniform sampling of the union to
        // within the usual reservoir approximation.
        let mut self_pool = self.items.clone();
        let mut other_pool = other.items.clone();
        for _ in 0..k {
            let from_self = rng.gen::<f64>() < p_self;
            let pool: &mut Vec<T> = if from_self {
                &mut self_pool
            } else {
                &mut other_pool
            };
            if pool.is_empty() {
                let pool = if from_self {
                    &mut other_pool
                } else {
                    &mut self_pool
                };
                if pool.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..pool.len());
                merged.push(pool.swap_remove(i));
            } else {
                let i = rng.gen_range(0..pool.len());
                merged.push(pool.swap_remove(i));
            }
        }
        self.items = merged;
        self.seen = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::rng::det_rng;

    #[test]
    fn keeps_everything_until_full() {
        let mut r = det_rng(1);
        let mut rs = ReservoirSample::new(5);
        for i in 0..3 {
            rs.add(&mut r, i);
        }
        assert_eq!(rs.items(), &[0, 1, 2]);
        assert_eq!(rs.seen, 3);
    }

    #[test]
    fn size_is_capped() {
        let mut r = det_rng(2);
        let mut rs = ReservoirSample::new(10);
        for i in 0..1000 {
            rs.add(&mut r, i);
        }
        assert_eq!(rs.items().len(), 10);
        assert_eq!(rs.seen, 1000);
    }

    #[test]
    fn sampling_is_approximately_uniform() {
        // Each of 100 items should appear in the k=10 reservoir with
        // probability 1/10; run many trials and check inclusion frequency.
        let mut r = det_rng(3);
        let trials = 20_000;
        let mut inclusion = vec![0u32; 100];
        for _ in 0..trials {
            let mut rs = ReservoirSample::new(10);
            for i in 0..100 {
                rs.add(&mut r, i);
            }
            for &i in rs.items() {
                inclusion[i as usize] += 1;
            }
        }
        for (i, &c) in inclusion.iter().enumerate() {
            let p = c as f64 / trials as f64;
            assert!((p - 0.1).abs() < 0.02, "item {i} inclusion {p}");
        }
    }

    #[test]
    fn merge_tracks_stream_lengths() {
        let mut r = det_rng(4);
        let mut a = ReservoirSample::new(8);
        let mut b = ReservoirSample::new(8);
        for i in 0..100 {
            a.add(&mut r, i);
        }
        for i in 100..400 {
            b.add(&mut r, i);
        }
        a.merge(&mut r, &b);
        assert_eq!(a.seen, 400);
        assert_eq!(a.items().len(), 8);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut r = det_rng(5);
        let mut a = ReservoirSample::new(4);
        for i in 0..10 {
            a.add(&mut r, i);
        }
        let before = a.items().to_vec();
        let b = ReservoirSample::new(4);
        a.merge(&mut r, &b);
        assert_eq!(a.items(), &before[..]);
        assert_eq!(a.seen, 10);
    }

    #[test]
    fn merge_is_proportionally_biased() {
        // Side B represents 9x the stream; its items should dominate.
        let mut r = det_rng(6);
        let mut from_b = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            let mut a = ReservoirSample::new(10);
            let mut b = ReservoirSample::new(10);
            for i in 0..100 {
                a.add(&mut r, i);
            }
            for i in 1000..1900 {
                b.add(&mut r, i);
            }
            a.merge(&mut r, &b);
            from_b += a.items().iter().filter(|&&x| x >= 1000).count();
        }
        let share = from_b as f64 / (trials * 10) as f64;
        assert!((share - 0.9).abs() < 0.05, "B share {share}");
    }
}
