//! A BaaS blob store (S3 class): buckets, keys, version ETags, and the
//! per-request read/write counts of §2.2's "users are billed only for the
//! amount of storage they utilize, and the volume of reads and writes".
//!
//! Latency is injected from the calibrated persistent-store profiles, so
//! experiments comparing blob-based state exchange to Jiffy see realistic
//! gaps (E3). The Pulsar tiered-storage extension offloads sealed ledgers
//! here.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rand_chacha::ChaCha8Rng;
use taureau_core::bytesize::ByteSize;
use taureau_core::clock::SharedClock;
use taureau_core::latency::{profiles, LatencyModel};
use taureau_core::metrics::MetricsRegistry;
use taureau_core::rng::det_rng;

#[derive(Debug)]
struct Object {
    data: Vec<u8>,
    /// Monotone per-object version (ETag analogue).
    version: u64,
}

#[derive(Debug, Default)]
struct BlobState {
    /// bucket -> key -> object.
    buckets: BTreeMap<String, BTreeMap<Vec<u8>, Object>>,
    reads: u64,
    writes: u64,
    bytes_stored: u64,
}

/// The blob store. Cheap to clone; clones share state.
pub struct BlobStore {
    clock: SharedClock,
    read_latency: LatencyModel,
    write_latency: LatencyModel,
    state: Mutex<BlobState>,
    rng: Mutex<ChaCha8Rng>,
    metrics: MetricsRegistry,
}

impl BlobStore {
    /// Store with S3-calibrated latencies.
    pub fn new(clock: SharedClock) -> Self {
        Self::with_latency(
            clock,
            profiles::persistent_read(),
            profiles::persistent_write(),
        )
    }

    /// Store with explicit latency models (tests pass
    /// [`LatencyModel::zero`]).
    pub fn with_latency(
        clock: SharedClock,
        read_latency: LatencyModel,
        write_latency: LatencyModel,
    ) -> Self {
        Self {
            clock,
            read_latency,
            write_latency,
            state: Mutex::new(BlobState::default()),
            rng: Mutex::new(det_rng(0xB10B)),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Metrics registry (op counters, stored-bytes gauge, injected-latency
    /// histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn pay(&self, model: &LatencyModel, latency_hist: &str) {
        let d = model.sample(&mut *self.rng.lock());
        self.metrics.histogram(latency_hist).record_duration(d);
        self.clock.sleep(d);
    }

    /// Create a bucket (idempotent).
    pub fn create_bucket(&self, bucket: &str) {
        self.state
            .lock()
            .buckets
            .entry(bucket.to_string())
            .or_default();
    }

    /// PUT an object; returns its new version.
    pub fn put(&self, bucket: &str, key: &[u8], data: &[u8]) -> u64 {
        let version = {
            let mut st = self.state.lock();
            st.writes += 1;
            let old_len = st
                .buckets
                .get(bucket)
                .and_then(|b| b.get(key))
                .map(|o| o.data.len() as u64);
            st.bytes_stored -= old_len.unwrap_or(0);
            st.bytes_stored += data.len() as u64;
            let b = st.buckets.entry(bucket.to_string()).or_default();
            let version = b.get(key).map_or(0, |o| o.version + 1);
            b.insert(
                key.to_vec(),
                Object {
                    data: data.to_vec(),
                    version,
                },
            );
            version
        };
        self.metrics.counter("blob_writes").inc();
        self.metrics
            .gauge("bytes_stored")
            .set(self.state.lock().bytes_stored as i64);
        self.pay(&self.write_latency, "write_latency_us");
        version
    }

    /// GET an object.
    pub fn get(&self, bucket: &str, key: &[u8]) -> Option<Vec<u8>> {
        let out = {
            let mut st = self.state.lock();
            st.reads += 1;
            st.buckets.get(bucket)?.get(key).map(|o| o.data.clone())
        };
        self.metrics.counter("blob_reads").inc();
        self.pay(&self.read_latency, "read_latency_us");
        out
    }

    /// DELETE an object; returns whether it existed.
    pub fn delete(&self, bucket: &str, key: &[u8]) -> bool {
        let existed = {
            let mut st = self.state.lock();
            st.writes += 1;
            match st.buckets.get_mut(bucket).and_then(|b| b.remove(key)) {
                Some(o) => {
                    st.bytes_stored -= o.data.len() as u64;
                    true
                }
                None => false,
            }
        };
        self.metrics.counter("blob_deletes").inc();
        self.metrics
            .gauge("bytes_stored")
            .set(self.state.lock().bytes_stored as i64);
        self.pay(&self.write_latency, "write_latency_us");
        existed
    }

    /// Bytes currently stored.
    pub fn bytes_stored(&self) -> ByteSize {
        ByteSize::b(self.state.lock().bytes_stored)
    }

    /// (reads, writes) op counts.
    pub fn op_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.reads, st.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use taureau_core::clock::{Clock, VirtualClock};

    fn store() -> BlobStore {
        BlobStore::with_latency(
            VirtualClock::shared(),
            LatencyModel::zero(),
            LatencyModel::zero(),
        )
    }

    #[test]
    fn put_get_roundtrip_with_versions() {
        let s = store();
        assert_eq!(s.put("b", b"k", b"v1"), 0);
        assert_eq!(s.put("b", b"k", b"v2"), 1);
        assert_eq!(s.get("b", b"k"), Some(b"v2".to_vec()));
        assert_eq!(s.put("other", b"k", b"v1"), 0, "versions are per object");
        assert_eq!(s.get("b", b"missing"), None);
        assert_eq!(s.get("nobucket", b"k"), None);
    }

    #[test]
    fn delete_and_accounting() {
        let s = store();
        s.put("b", b"k", &vec![0u8; 1000]);
        assert_eq!(s.bytes_stored(), ByteSize::b(1000));
        s.put("b", b"k", &[0u8; 200]); // overwrite shrinks footprint
        assert_eq!(s.bytes_stored(), ByteSize::b(200));
        assert!(s.delete("b", b"k"));
        assert!(!s.delete("b", b"k"));
        assert_eq!(s.bytes_stored(), ByteSize::ZERO);
    }

    #[test]
    fn injected_latency_advances_clock() {
        let clock = VirtualClock::shared();
        let s = BlobStore::new(clock.clone());
        let t0 = clock.now();
        s.put("b", b"k", b"v");
        let _ = s.get("b", b"k");
        assert!(clock.now() - t0 > Duration::from_millis(10));
    }
}
