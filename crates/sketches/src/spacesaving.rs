//! Space-Saving heavy hitters (Metwally, Agrawal, El Abbadi, 2005).
//!
//! Maintains at most `capacity` (item, count, error) entries. When a new
//! item arrives and the table is full, the minimum-count entry is evicted
//! and the newcomer inherits its count (recorded as `error`). Guarantees:
//! every item with true frequency > N/capacity is present, and each
//! reported count overestimates truth by at most its recorded `error`
//! (itself ≤ N/capacity). Ties are broken by the item: an entry ranks
//! above another with a higher count, or the same count and a smaller
//! item, so which entry is evicted, which survive a merge and the order
//! they are reported in do not depend on the map's hash seed.

use std::cmp::Reverse;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{MergeError, Mergeable};

/// One monitored item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeavyHitter {
    /// The item.
    pub item: Vec<u8>,
    /// Estimated count (upper bound on true count).
    pub count: u64,
    /// Maximum overestimation (count - error is a lower bound on truth).
    pub(crate) error: u64,
}

/// Sort key of an entry, highest-ranked first: count descending, then
/// item ascending.
fn rank(item: &[u8], count: u64) -> (Reverse<u64>, &[u8]) {
    (Reverse(count), item)
}

/// Space-Saving summary of the most frequent items.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpaceSaving {
    capacity: usize,
    /// item -> (count, error).
    entries: HashMap<Vec<u8>, (u64, u64)>,
    total: u64,
}

impl SpaceSaving {
    /// Track up to `capacity` candidate heavy hitters.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            entries: HashMap::with_capacity(capacity),
            total: 0,
        }
    }

    /// Total stream weight observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observe `count` occurrences of `item`.
    pub fn add(&mut self, item: &[u8], count: u64) {
        self.total += count;
        if let Some((c, _)) = self.entries.get_mut(item) {
            *c += count;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(item.to_vec(), (count, 0));
            return;
        }
        // Evict the lowest-ranked entry; newcomer inherits its count as
        // error.
        let (min_item, min_count) = self
            .entries
            .iter()
            .max_by_key(|&(item, &(count, _))| rank(item, count))
            .map(|(k, (c, _))| (k.clone(), *c))
            .expect("table is full, so non-empty");
        self.entries.remove(&min_item);
        self.entries
            .insert(item.to_vec(), (min_count + count, min_count));
    }

    /// Estimated count of `item` (0 if not monitored).
    pub fn estimate(&self, item: &[u8]) -> u64 {
        self.entries.get(item).map_or(0, |&(c, _)| c)
    }

    /// Guaranteed lower bound on the true count of `item`.
    pub fn lower_bound(&self, item: &[u8]) -> u64 {
        self.entries.get(item).map_or(0, |&(c, e)| c - e)
    }

    /// All monitored items, most frequent first.
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let mut v: Vec<HeavyHitter> = self
            .entries
            .iter()
            .map(|(item, &(count, error))| HeavyHitter {
                item: item.clone(),
                count,
                error,
            })
            .collect();
        v.sort_by(|a, b| rank(&a.item, a.count).cmp(&rank(&b.item, b.count)));
        v
    }

    /// Items whose *guaranteed* count exceeds `phi * total` — i.e. reported
    /// with no false positives.
    pub fn guaranteed_hitters(&self, phi: f64) -> Vec<HeavyHitter> {
        let threshold = (phi * self.total as f64) as u64;
        self.heavy_hitters()
            .into_iter()
            .filter(|h| h.count - h.error > threshold)
            .collect()
    }
}

impl Mergeable for SpaceSaving {
    /// Merge per Agarwal et al.: sum counts/errors of common items, keep
    /// the `capacity` largest, and fold evicted mass into errors implicitly
    /// (entries absent from one side keep their own counts). The result
    /// preserves the overestimate property with error ≤ N₁/c + N₂/c.
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.capacity != other.capacity {
            return Err(MergeError::new("capacity mismatch"));
        }
        for (item, &(c, e)) in &other.entries {
            let entry = self.entries.entry(item.clone()).or_insert((0, 0));
            entry.0 += c;
            entry.1 += e;
        }
        self.total += other.total;
        if self.entries.len() > self.capacity {
            let mut all: Vec<(Vec<u8>, (u64, u64))> = self.entries.drain().collect();
            all.sort_by(|(a, (ca, _)), (b, (cb, _))| rank(a, *ca).cmp(&rank(b, *cb)));
            all.truncate(self.capacity);
            self.entries = all.into_iter().collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::rng::{det_rng, Zipf};

    /// Each fresh table has its own hash seed; ties at the minimum are
    /// broken by the item, so every table keeps the same top 8, and so
    /// does every merge of two of them.
    #[test]
    fn ties_do_not_depend_on_the_hash_seed() {
        let fed = || {
            let mut ss = SpaceSaving::new(8);
            for i in 0..12u8 {
                ss.add(&[b'a' + i], 1);
            }
            ss
        };
        let top = |ss: &SpaceSaving| {
            ss.heavy_hitters()
                .into_iter()
                .map(|h| h.item)
                .collect::<Vec<_>>()
        };
        let sets: std::collections::BTreeSet<_> = (0..20).map(|_| top(&fed())).collect();
        assert_eq!(sets.len(), 1, "{sets:?}");
        let merged: std::collections::BTreeSet<_> = (0..20)
            .map(|_| {
                let mut a = SpaceSaving::new(8);
                for i in 0..12u8 {
                    a.add(&[b'z' - i], 1);
                }
                a.merge(&fed()).unwrap();
                top(&a)
            })
            .collect();
        assert_eq!(merged.len(), 1, "{merged:?}");
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(10);
        ss.add(b"a", 5);
        ss.add(b"b", 3);
        ss.add(b"a", 2);
        assert_eq!(ss.estimate(b"a"), 7);
        assert_eq!(ss.estimate(b"b"), 3);
        assert_eq!(ss.lower_bound(b"a"), 7);
        assert_eq!(ss.total(), 10);
    }

    #[test]
    fn finds_true_heavy_hitters_on_zipf() {
        let z = Zipf::new(10_000, 1.2);
        let mut r = det_rng(3);
        let mut ss = SpaceSaving::new(100);
        let mut truth = vec![0u64; 10_000];
        let n = 100_000;
        for _ in 0..n {
            let item = z.sample(&mut r);
            truth[item] += 1;
            ss.add(&(item as u64).to_le_bytes(), 1);
        }
        // Every item with truth > N/capacity must be monitored.
        let bound = n / 100;
        for (i, &t) in truth.iter().enumerate() {
            if t > bound {
                let est = ss.estimate(&(i as u64).to_le_bytes());
                assert!(est >= t, "heavy item {i} missing or undercounted");
            }
        }
    }

    #[test]
    fn estimates_are_overestimates_with_bounded_error() {
        let z = Zipf::new(1000, 1.0);
        let mut r = det_rng(4);
        let mut ss = SpaceSaving::new(50);
        let mut truth = vec![0u64; 1000];
        for _ in 0..50_000 {
            let item = z.sample(&mut r);
            truth[item] += 1;
            ss.add(&(item as u64).to_le_bytes(), 1);
        }
        for h in ss.heavy_hitters() {
            let idx = u64::from_le_bytes(h.item.as_slice().try_into().unwrap()) as usize;
            let t = truth[idx];
            assert!(h.count >= t, "underestimate for {idx}");
            assert!(h.count - h.error <= t, "lower bound violated for {idx}");
            assert!(
                h.error <= ss.total / ss.capacity as u64,
                "error beyond N/capacity"
            );
        }
    }

    #[test]
    fn guaranteed_hitters_have_no_false_positives() {
        let z = Zipf::new(500, 1.3);
        let mut r = det_rng(5);
        let mut ss = SpaceSaving::new(64);
        let mut truth = vec![0u64; 500];
        let n = 40_000u64;
        for _ in 0..n {
            let item = z.sample(&mut r);
            truth[item] += 1;
            ss.add(&(item as u64).to_le_bytes(), 1);
        }
        let phi = 0.01;
        for h in ss.guaranteed_hitters(phi) {
            let idx = u64::from_le_bytes(h.item.as_slice().try_into().unwrap()) as usize;
            assert!(
                truth[idx] as f64 > phi * n as f64,
                "false positive: item {idx} truth {}",
                truth[idx]
            );
        }
    }

    #[test]
    fn merge_preserves_overestimates() {
        let z = Zipf::new(300, 1.1);
        let mut r = det_rng(6);
        let mut a = SpaceSaving::new(40);
        let mut b = SpaceSaving::new(40);
        let mut truth = vec![0u64; 300];
        for i in 0..30_000 {
            let item = z.sample(&mut r);
            truth[item] += 1;
            let key = (item as u64).to_le_bytes();
            if i % 2 == 0 {
                a.add(&key, 1);
            } else {
                b.add(&key, 1);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 30_000);
        assert!(a.heavy_hitters().len() <= 40);
        // Monitored items must still be overestimates.
        for h in a.heavy_hitters() {
            let idx = u64::from_le_bytes(h.item.as_slice().try_into().unwrap()) as usize;
            assert!(h.count >= truth[idx] || h.count >= a.lower_bound(&h.item));
        }
    }

    #[test]
    fn merge_rejects_capacity_mismatch() {
        let mut a = SpaceSaving::new(10);
        let b = SpaceSaving::new(20);
        assert!(a.merge(&b).is_err());
    }
}
