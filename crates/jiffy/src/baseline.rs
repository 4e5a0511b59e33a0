//! Baseline stores the paper positions Jiffy against.
//!
//! §4.4 names two alternatives and why each fails for ephemeral serverless
//! state:
//!
//! - **Persistent BaaS stores** (S3, Azure Blob, GCS): durable, but
//!   "unfortunately do not provide the required performance for such
//!   exchange". [`PersistentStore`] models one with S3-calibrated injected
//!   latencies (see `taureau_core::latency::profiles`); experiment E3
//!   measures the gap.
//! - **Global-address-space in-memory stores** (DSM systems, RAMCloud,
//!   FaRM): fast, but "adding/removing memory resources for an application
//!   requires re-partitioning data for the entire address-space".
//!   [`GlobalStore`] models one with a single modulo-partitioned keyspace
//!   shared by all tenants; experiment E4 measures how much *other*
//!   tenants' data moves when one tenant scales.

use std::collections::HashMap;

use parking_lot::Mutex;
use rand_chacha::ChaCha8Rng;
use taureau_core::clock::SharedClock;
use taureau_core::latency::{profiles, LatencyModel};
use taureau_core::rng::det_rng;

use taureau_core::hash::hash64;

const GLOBAL_SEED: u64 = 0x474c_4f42_414c; // "GLOBAL"

/// An S3-like blob store: correct and durable, but every operation pays a
/// persistent-storage latency.
pub struct PersistentStore {
    clock: SharedClock,
    read_latency: LatencyModel,
    write_latency: LatencyModel,
    state: Mutex<PersistentState>,
}

struct PersistentState {
    blobs: HashMap<Vec<u8>, Vec<u8>>,
    rng: ChaCha8Rng,
    reads: u64,
    writes: u64,
}

impl PersistentStore {
    /// Create with the standard S3-calibrated latency profiles.
    pub fn new(clock: SharedClock) -> Self {
        Self::with_latency(
            clock,
            profiles::persistent_read(),
            profiles::persistent_write(),
        )
    }

    /// Create with explicit latency models (tests use `LatencyModel::zero`).
    pub(crate) fn with_latency(
        clock: SharedClock,
        read_latency: LatencyModel,
        write_latency: LatencyModel,
    ) -> Self {
        Self {
            clock,
            read_latency,
            write_latency,
            state: Mutex::new(PersistentState {
                blobs: HashMap::new(),
                rng: det_rng(0x5353), // "SS"
                reads: 0,
                writes: 0,
            }),
        }
    }

    /// PUT a blob (pays write latency).
    pub fn put(&self, key: &[u8], value: &[u8]) {
        let delay = {
            let mut st = self.state.lock();
            st.writes += 1;
            st.blobs.insert(key.to_vec(), value.to_vec());
            self.write_latency.sample(&mut st.rng)
        };
        self.clock.sleep(delay);
    }

    /// GET a blob (pays read latency).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (delay, value) = {
            let mut st = self.state.lock();
            st.reads += 1;
            let v = st.blobs.get(key).cloned();
            (self.read_latency.sample(&mut st.rng), v)
        };
        self.clock.sleep(delay);
        value
    }

    /// DELETE a blob (pays write latency).
    #[cfg(test)]
    pub(crate) fn delete(&self, key: &[u8]) -> bool {
        let (delay, existed) = {
            let mut st = self.state.lock();
            st.writes += 1;
            let e = st.blobs.remove(key).is_some();
            (self.write_latency.sample(&mut st.rng), e)
        };
        self.clock.sleep(delay);
        existed
    }

    /// (reads, writes) op counts, for billing comparisons.
    #[cfg(test)]
    pub(crate) fn op_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.reads, st.writes)
    }
}

/// A global-address-space in-memory store: one keyspace, modulo-partitioned
/// over `partitions` blocks, shared by every tenant.
///
/// Scaling the store (because *any* tenant needs more room) re-hashes the
/// entire keyspace. [`GlobalStore::scale_to`] returns how many bytes moved
/// in total and how many belonged to tenants *other* than the one that
/// asked — the isolation failure experiment E4 quantifies.
pub struct GlobalStore {
    state: Mutex<GlobalState>,
}

/// A partition: full key -> (owning tenant, value).
type GlobalPartition = HashMap<Vec<u8>, (String, Vec<u8>)>;

struct GlobalState {
    partitions: Vec<GlobalPartition>,
}

/// Result of a global re-partitioning event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepartitionReport {
    /// Bytes moved in total.
    pub total_moved: u64,
    /// Bytes moved that belonged to tenants other than the instigator.
    pub other_tenants_moved: u64,
    /// Keys moved in total.
    pub(crate) keys_moved: u64,
}

impl GlobalStore {
    /// Create with an initial partition count.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0);
        Self {
            state: Mutex::new(GlobalState {
                partitions: (0..partitions).map(|_| HashMap::new()).collect(),
            }),
        }
    }

    fn index(key: &[u8], n: usize) -> usize {
        (hash64(GLOBAL_SEED, key) % n as u64) as usize
    }

    /// Store a value for a tenant.
    pub fn put(&self, tenant: &str, key: &[u8], value: &[u8]) {
        let mut st = self.state.lock();
        let full_key = Self::full_key(tenant, key);
        let n = st.partitions.len();
        st.partitions[Self::index(&full_key, n)]
            .insert(full_key, (tenant.to_string(), value.to_vec()));
    }

    /// Read a tenant's value.
    #[cfg(test)]
    pub(crate) fn get(&self, tenant: &str, key: &[u8]) -> Option<Vec<u8>> {
        let st = self.state.lock();
        let full_key = Self::full_key(tenant, key);
        let n = st.partitions.len();
        st.partitions[Self::index(&full_key, n)]
            .get(&full_key)
            .map(|(_, v)| v.clone())
    }

    fn full_key(tenant: &str, key: &[u8]) -> Vec<u8> {
        let mut k = Vec::with_capacity(tenant.len() + 1 + key.len());
        k.extend_from_slice(tenant.as_bytes());
        k.push(0);
        k.extend_from_slice(key);
        k
    }

    /// Total keys stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.state.lock().partitions.iter().map(HashMap::len).sum()
    }

    /// Re-partition the whole keyspace to `target` partitions because
    /// `instigator` needed to scale. Every tenant's keys re-hash.
    pub fn scale_to(&self, instigator: &str, target: usize) -> RepartitionReport {
        assert!(target > 0);
        let mut st = self.state.lock();
        let n = st.partitions.len();
        if target == n {
            return RepartitionReport {
                total_moved: 0,
                other_tenants_moved: 0,
                keys_moved: 0,
            };
        }
        let old = std::mem::replace(
            &mut st.partitions,
            (0..target).map(|_| GlobalPartition::new()).collect(),
        );
        let mut report = RepartitionReport {
            total_moved: 0,
            other_tenants_moved: 0,
            keys_moved: 0,
        };
        for (old_idx, part) in old.into_iter().enumerate() {
            for (full_key, (tenant, value)) in part {
                let new_idx = Self::index(&full_key, target);
                if new_idx != old_idx {
                    let bytes = (full_key.len() + value.len()) as u64;
                    report.total_moved += bytes;
                    report.keys_moved += 1;
                    if tenant != instigator {
                        report.other_tenants_moved += bytes;
                    }
                }
                st.partitions[new_idx].insert(full_key, (tenant, value));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use taureau_core::clock::{Clock, VirtualClock};

    #[test]
    fn persistent_store_roundtrip_with_injected_latency() {
        let clock = VirtualClock::shared();
        let store = PersistentStore::new(clock.clone());
        let t0 = clock.now();
        store.put(b"k", b"v");
        assert!(clock.now() > t0, "write latency was injected");
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(store.get(b"missing"), None);
        assert!(store.delete(b"k"));
        assert!(!store.delete(b"k"));
        assert_eq!(store.op_counts(), (2, 3));
    }

    #[test]
    fn persistent_latency_is_s3_class() {
        let clock = VirtualClock::shared();
        let store = PersistentStore::new(clock.clone());
        let t0 = clock.now();
        for i in 0..100u64 {
            store.put(&i.to_le_bytes(), b"x");
        }
        let elapsed = clock.now() - t0;
        let per_op = elapsed / 100;
        assert!(
            per_op > Duration::from_millis(5),
            "persistent writes too fast: {per_op:?}"
        );
    }

    #[test]
    fn global_store_roundtrip() {
        let g = GlobalStore::new(4);
        g.put("a", b"k", b"v1");
        g.put("b", b"k", b"v2"); // same key, different tenant
        assert_eq!(g.get("a", b"k"), Some(b"v1".to_vec()));
        assert_eq!(g.get("b", b"k"), Some(b"v2".to_vec()));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn global_scaling_moves_other_tenants_data() {
        let g = GlobalStore::new(4);
        for i in 0..500u64 {
            g.put("noisy", &i.to_le_bytes(), &[0u8; 32]);
            g.put("victim", &i.to_le_bytes(), &[1u8; 32]);
        }
        let report = g.scale_to("noisy", 8);
        assert!(report.keys_moved > 0);
        assert!(
            report.other_tenants_moved > 0,
            "global scaling must disturb the victim tenant"
        );
        // Roughly half the moved bytes belong to the victim (equal data).
        let share = report.other_tenants_moved as f64 / report.total_moved as f64;
        assert!((share - 0.5).abs() < 0.15, "victim share {share}");
        // Data survives re-partitioning.
        for i in 0..500u64 {
            assert_eq!(g.get("victim", &i.to_le_bytes()), Some(vec![1u8; 32]));
        }
    }

    #[test]
    fn global_scale_to_same_size_is_noop() {
        let g = GlobalStore::new(4);
        g.put("a", b"k", b"v");
        let r = g.scale_to("a", 4);
        assert_eq!(r.total_moved, 0);
        assert_eq!(r.keys_moved, 0);
    }
}
