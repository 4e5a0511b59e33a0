//! Path ORAM (Stefanov et al., CCS'13).
//!
//! State: a complete binary tree of buckets (Z slots each) held by the
//! untrusted store, a client-side *position map* (block → random leaf) and
//! a small client-side *stash*. Invariant: block `b` lives somewhere on
//! the path from the root to `position[b]`, or in the stash.
//!
//! Every access — read or write alike — does exactly the same physical
//! work: read all buckets on one root-to-leaf path, then rewrite the same
//! path, greedily evicting stash blocks as deep as their (freshly
//! re-randomized) positions allow. An adversary observing bucket accesses
//! sees a sequence of uniformly random paths, independent of the logical
//! access pattern (tested below).

use std::collections::HashMap;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use taureau_core::rng::det_rng;

/// Slots per bucket (Z = 4, the standard choice with negligible stash
/// overflow probability).
pub(crate) const BUCKET_SIZE: usize = 4;

/// The untrusted storage interface: an array of buckets, each holding up
/// to [`BUCKET_SIZE`] `(block_id, data)` pairs.
pub trait BucketStore {
    /// Read an entire bucket.
    fn read_bucket(&mut self, index: usize) -> Vec<(u32, Vec<u8>)>;
    /// Overwrite an entire bucket.
    fn write_bucket(&mut self, index: usize, contents: Vec<(u32, Vec<u8>)>);
    /// Number of buckets.
    fn len(&self) -> usize;
    /// Whether the store has no buckets.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory bucket store that records which buckets were touched — the
/// adversary's view, used by the pattern-hiding tests.
#[derive(Debug)]
pub struct MemoryBucketStore {
    buckets: Vec<Vec<(u32, Vec<u8>)>>,
    /// Total bucket reads + writes.
    pub accesses: u64,
    /// Leaf-level bucket indices touched, in order (the observable trace).
    pub(crate) leaf_trace: Vec<usize>,
    first_leaf: usize,
}

impl MemoryBucketStore {
    /// Store with `buckets` empty buckets, of which the last
    /// `(buckets + 1) / 2` are leaves.
    pub(crate) fn new(buckets: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); buckets],
            accesses: 0,
            leaf_trace: Vec::new(),
            first_leaf: buckets / 2,
        }
    }
}

impl BucketStore for MemoryBucketStore {
    fn read_bucket(&mut self, index: usize) -> Vec<(u32, Vec<u8>)> {
        self.accesses += 1;
        if index >= self.first_leaf {
            self.leaf_trace.push(index - self.first_leaf);
        }
        self.buckets[index].clone()
    }

    fn write_bucket(&mut self, index: usize, contents: Vec<(u32, Vec<u8>)>) {
        debug_assert!(contents.len() <= BUCKET_SIZE);
        self.accesses += 1;
        self.buckets[index] = contents;
    }

    fn len(&self) -> usize {
        self.buckets.len()
    }
}

/// The Path ORAM client.
pub struct PathOram<S: BucketStore> {
    store: S,
    /// Tree height: levels are 0 (root) ..= height (leaves).
    height: u32,
    leaves: usize,
    /// block id -> assigned leaf.
    position: Vec<usize>,
    stash: HashMap<u32, Vec<u8>>,
    rng: ChaCha8Rng,
    /// Logical accesses served.
    pub(crate) logical_accesses: u64,
}

impl PathOram<MemoryBucketStore> {
    /// ORAM over an in-memory store sized for `capacity` logical blocks.
    pub fn new(capacity: usize, seed: u64) -> Self {
        let leaves = capacity.next_power_of_two().max(2);
        let buckets = 2 * leaves - 1;
        Self::with_store(capacity, MemoryBucketStore::new(buckets), seed)
    }
}

impl<S: BucketStore> PathOram<S> {
    /// ORAM over an existing store (must hold `2 * capacity.next_power_of_two() - 1`
    /// buckets).
    pub(crate) fn with_store(capacity: usize, store: S, seed: u64) -> Self {
        assert!(capacity >= 1);
        let leaves = capacity.next_power_of_two().max(2);
        assert_eq!(store.len(), 2 * leaves - 1, "store sized wrongly");
        let height = leaves.trailing_zeros();
        let mut rng = det_rng(seed);
        let position = (0..capacity).map(|_| rng.gen_range(0..leaves)).collect();
        Self {
            store,
            height,
            leaves,
            position,
            stash: HashMap::new(),
            rng,
            logical_accesses: 0,
        }
    }

    /// The untrusted store (for inspecting the adversary's view).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Bucket index at `level` on the path to `leaf` (heap layout:
    /// root = 0, leaf nodes start at `leaves - 1`).
    fn node_at(&self, leaf: usize, level: u32) -> usize {
        let mut node = leaf + self.leaves - 1;
        for _ in level..self.height {
            node = (node - 1) / 2;
        }
        node
    }

    /// Read block `id`, optionally replacing its contents. Returns the
    /// previous contents (None if never written). Read and write perform
    /// identical physical work.
    pub(crate) fn access(&mut self, id: u32, new_data: Option<Vec<u8>>) -> Option<Vec<u8>> {
        assert!((id as usize) < self.position.len(), "block id out of range");
        self.logical_accesses += 1;
        let x = self.position[id as usize];
        // Remap before anything observable happens.
        self.position[id as usize] = self.rng.gen_range(0..self.leaves);

        // Read the whole path into the stash.
        for level in 0..=self.height {
            let bucket = self.store.read_bucket(self.node_at(x, level));
            for (bid, data) in bucket {
                self.stash.insert(bid, data);
            }
        }

        let old = match new_data {
            Some(data) => self.stash.insert(id, data),
            None => self.stash.get(&id).cloned(),
        };

        // Write the path back, deepest level first, evicting every stash
        // block that may legally live there.
        for level in (0..=self.height).rev() {
            let bucket_idx = self.node_at(x, level);
            let mut bucket = Vec::with_capacity(BUCKET_SIZE);
            let eligible: Vec<u32> = self
                .stash
                .keys()
                .copied()
                .filter(|&bid| self.node_at(self.position[bid as usize], level) == bucket_idx)
                .take(BUCKET_SIZE)
                .collect();
            for bid in eligible {
                let data = self.stash.remove(&bid).expect("present");
                bucket.push((bid, data));
            }
            self.store.write_bucket(bucket_idx, bucket);
        }
        old
    }

    /// Convenience read.
    pub fn read(&mut self, id: u32) -> Option<Vec<u8>> {
        self.access(id, None)
    }

    /// Convenience write; returns the previous contents.
    pub fn write(&mut self, id: u32, data: Vec<u8>) -> Option<Vec<u8>> {
        self.access(id, Some(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes() {
        let mut oram = PathOram::new(64, 1);
        assert_eq!(oram.read(3), None);
        assert_eq!(oram.write(3, b"hello".to_vec()), None);
        assert_eq!(oram.read(3), Some(b"hello".to_vec()));
        assert_eq!(oram.write(3, b"world".to_vec()), Some(b"hello".to_vec()));
        assert_eq!(oram.read(3), Some(b"world".to_vec()));
    }

    #[test]
    fn matches_model_under_random_workload() {
        let mut oram = PathOram::new(256, 2);
        let mut model: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut rng = det_rng(3);
        for _ in 0..5000 {
            let id = rng.gen_range(0..256u32);
            if rng.gen::<bool>() {
                let val = vec![rng.gen::<u8>(); 8];
                let old = oram.write(id, val.clone());
                assert_eq!(old, model.insert(id, val));
            } else {
                assert_eq!(oram.read(id), model.get(&id).cloned());
            }
        }
    }

    #[test]
    fn stash_stays_small() {
        let mut oram = PathOram::new(1024, 4);
        let mut rng = det_rng(5);
        // Fill completely, then hammer random accesses.
        for id in 0..1024u32 {
            oram.write(id, vec![0u8; 16]);
        }
        let mut max_stash = 0;
        for _ in 0..20_000 {
            let id = rng.gen_range(0..1024u32);
            oram.read(id);
            max_stash = max_stash.max(oram.stash.len());
        }
        // Theory: stash is O(log N) w.h.p. for Z=4; allow generous slack.
        assert!(max_stash < 120, "stash grew to {max_stash}");
    }

    #[test]
    fn bandwidth_is_z_log_n() {
        let mut oram = PathOram::new(256, 6);
        let before = oram.store().accesses;
        oram.read(0);
        let per_access = oram.store().accesses - before;
        // height = log2(256) = 8 → 9 buckets read + 9 written.
        assert_eq!(per_access, 2 * (oram.height as u64 + 1));
    }

    #[test]
    fn access_pattern_is_indistinguishable() {
        // Adversary's view: the sequence of leaf paths. Compare the trace
        // of a degenerate workload (same block forever) against a uniform
        // random workload: their leaf histograms must both be ~uniform.
        let n_ops = 8000;
        let mut same = PathOram::new(64, 7);
        same.write(5, vec![1]);
        for _ in 0..n_ops {
            same.read(5);
        }
        let mut random = PathOram::new(64, 8);
        let mut rng = det_rng(9);
        for _ in 0..n_ops {
            random.read(rng.gen_range(0..64u32));
        }
        let histogram = |trace: &[usize], leaves: usize| -> Vec<f64> {
            let mut h = vec![0f64; leaves];
            for &l in trace {
                h[l] += 1.0;
            }
            let total: f64 = h.iter().sum();
            h.iter().map(|c| c / total).collect()
        };
        let h_same = histogram(&same.store().leaf_trace, 64);
        let h_rand = histogram(&random.store().leaf_trace, 64);
        // Total-variation distance between the two observable
        // distributions must be small: the adversary cannot tell the
        // workloads apart.
        let tv: f64 = h_same
            .iter()
            .zip(&h_rand)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.08, "observable distributions differ: TV = {tv}");
        // And each is individually close to uniform.
        for (i, &p) in h_same.iter().enumerate() {
            assert!(
                (p - 1.0 / 64.0).abs() < 0.012,
                "leaf {i} visited with probability {p}"
            );
        }
    }

    #[test]
    fn reads_and_writes_are_physically_identical() {
        let mut a = PathOram::new(128, 11);
        let mut b = PathOram::new(128, 11);
        // Same seed → same position maps and path choices; one only
        // reads, the other only writes. The bucket access *count* and leaf
        // traces must be identical.
        for i in 0..500u32 {
            a.read(i % 128);
            b.write(i % 128, vec![i as u8]);
        }
        assert_eq!(a.store().accesses, b.store().accesses);
        assert_eq!(a.store().leaf_trace, b.store().leaf_trace);
    }

    #[test]
    fn capacity_one_edge_case() {
        let mut oram = PathOram::new(1, 13);
        oram.write(0, b"solo".to_vec());
        assert_eq!(oram.read(0), Some(b"solo".to_vec()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let mut oram = PathOram::new(8, 14);
        oram.read(8);
    }
}
