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
}

impl PersistentStore {
    /// Create with the standard S3-calibrated latency profiles.
    pub fn new(clock: SharedClock) -> Self {
        Self {
            clock,
            read_latency: profiles::persistent_read(),
            write_latency: profiles::persistent_write(),
            state: Mutex::new(PersistentState {
                blobs: HashMap::new(),
                rng: det_rng(0x5353), // "SS"
            }),
        }
    }

    /// PUT a blob (pays write latency).
    pub fn put(&self, key: &[u8], value: &[u8]) {
        let delay = {
            let mut st = self.state.lock();
            st.blobs.insert(key.to_vec(), value.to_vec());
            self.write_latency.sample(&mut st.rng)
        };
        self.clock.sleep(delay);
    }

    /// GET a blob (pays read latency).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (delay, value) = {
            let mut st = self.state.lock();
            let v = st.blobs.get(key).cloned();
            (self.read_latency.sample(&mut st.rng), v)
        };
        self.clock.sleep(delay);
        value
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

    fn full_key(tenant: &str, key: &[u8]) -> Vec<u8> {
        let mut k = Vec::with_capacity(tenant.len() + 1 + key.len());
        k.extend_from_slice(tenant.as_bytes());
        k.push(0);
        k.extend_from_slice(key);
        k
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

    /// `tenant`'s value for `key`, found by scanning every partition. A
    /// key outside the partition its hash names fails the test.
    fn stored(g: &GlobalStore, tenant: &str, key: &[u8]) -> Option<Vec<u8>> {
        let st = g.state.lock();
        let full_key = GlobalStore::full_key(tenant, key);
        let n = st.partitions.len();
        st.partitions.iter().enumerate().find_map(|(i, p)| {
            let (_, v) = p.get(&full_key)?;
            assert_eq!(i, GlobalStore::index(&full_key, n), "misplaced key");
            Some(v.clone())
        })
    }

    #[test]
    fn persistent_store_roundtrip_with_injected_latency() {
        let clock = VirtualClock::shared();
        let store = PersistentStore::new(clock.clone());
        let t0 = clock.now();
        store.put(b"k", b"v");
        assert!(clock.now() > t0, "write latency was injected");
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(store.get(b"missing"), None);
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

    /// The gap experiment E3 measures, on one virtual clock: a Jiffy
    /// round trip costs no injected time, a persistent one S3's.
    #[test]
    fn persistent_store_is_slower_than_jiffy() {
        let clock = VirtualClock::shared();
        let jiffy = crate::Jiffy::new(crate::JiffyConfig::default(), clock.clone());
        let kv = jiffy.create_kv("/app/state", 1).unwrap();
        let t0 = clock.now();
        kv.put(b"k", b"v").unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        let memory = clock.now() - t0;
        let store = PersistentStore::new(clock.clone());
        let t1 = clock.now();
        store.put(b"k", b"v");
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
        let persistent = clock.now() - t1;
        assert!(
            memory < Duration::from_millis(1) && persistent > Duration::from_millis(10),
            "persistent {persistent:?} vs memory {memory:?}"
        );
    }

    #[test]
    fn global_store_roundtrip() {
        let g = GlobalStore::new(4);
        g.put("a", b"k", b"v1");
        g.put("b", b"k", b"v2"); // same key, different tenant
        assert_eq!(stored(&g, "a", b"k"), Some(b"v1".to_vec()));
        assert_eq!(stored(&g, "b", b"k"), Some(b"v2".to_vec()));
        let keys: usize = g.state.lock().partitions.iter().map(HashMap::len).sum();
        assert_eq!(keys, 2);
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
            assert_eq!(stored(&g, "victim", &i.to_le_bytes()), Some(vec![1u8; 32]));
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
