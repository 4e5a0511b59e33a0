//! Versioned metadata store — the ZooKeeper stand-in of Figure 1.
//!
//! Pulsar uses a ZooKeeper ensemble for "coordination and configuration
//! management": ledger metadata, topic ownership, subscription cursors.
//! This in-process equivalent provides the two primitives those uses need:
//! versioned reads and compare-and-swap writes (so concurrent brokers can't
//! clobber each other's updates), plus watch-free sequential node creation
//! for id allocation.
//!
//! Nodes are sharded by key hash ([`ShardedMap`]), so cursor updates for
//! different subscriptions and ledger-metadata writes for different topics
//! never serialize on one store-wide lock; the id sequence is a plain
//! atomic. CAS semantics are unchanged — each key's shard lock makes the
//! compare and the swap one critical section.

use std::sync::atomic::{AtomicU64, Ordering};

use taureau_core::sync::ShardedMap;

use crate::error::{PulsarError, Result};

/// A value with its version (ZooKeeper zxid analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned {
    /// Stored bytes.
    pub data: Vec<u8>,
    /// Monotone version, starting at 0 on create.
    pub version: u64,
}

/// In-process versioned KV store with CAS semantics.
#[derive(Debug, Default)]
pub struct MetadataStore {
    nodes: ShardedMap<String, Versioned>,
    next_seq: AtomicU64,
}

impl MetadataStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a node.
    pub fn get(&self, key: &str) -> Option<Versioned> {
        self.nodes.get_cloned(key)
    }

    /// Create a node; fails if it exists.
    pub fn create(&self, key: &str, data: Vec<u8>) -> Result<()> {
        self.nodes.with(key, |shard| {
            if shard.contains_key(key) {
                return Err(PulsarError::MetadataConflict(key.to_string()));
            }
            shard.insert(key.to_string(), Versioned { data, version: 0 });
            Ok(())
        })
    }

    /// Compare-and-swap: write succeeds only if the stored version matches
    /// `expected_version` (pass `None` to create-if-absent).
    pub fn cas(&self, key: &str, data: Vec<u8>, expected_version: Option<u64>) -> Result<u64> {
        self.nodes
            .with(key, |shard| match (shard.get_mut(key), expected_version) {
                (None, None) => {
                    shard.insert(key.to_string(), Versioned { data, version: 0 });
                    Ok(0)
                }
                (Some(node), Some(v)) if node.version == v => {
                    node.data = data;
                    node.version += 1;
                    Ok(node.version)
                }
                _ => Err(PulsarError::MetadataConflict(key.to_string())),
            })
    }

    /// Unconditional write (used where a single owner is already
    /// guaranteed, e.g. cursor updates by the owning subscription).
    pub fn put(&self, key: &str, data: Vec<u8>) -> u64 {
        self.update(key, |node| *node = data)
    }

    /// Unconditional write in place: `f` rewrites the node's bytes where
    /// they lie (an absent node starts empty), so a writer that overwrites
    /// a few bytes per call — a subscription cursor — reuses the node's
    /// buffer instead of building a fresh one. Versions move exactly as
    /// with [`MetadataStore::put`]: created at 0, bumped by one per write.
    /// `f` runs under the key's shard lock and must not call back into the
    /// store.
    pub fn update(&self, key: &str, f: impl FnOnce(&mut Vec<u8>)) -> u64 {
        self.nodes.with(key, |shard| match shard.get_mut(key) {
            Some(node) => {
                f(&mut node.data);
                node.version += 1;
                node.version
            }
            None => {
                let mut data = Vec::new();
                f(&mut data);
                shard.insert(key.to_string(), Versioned { data, version: 0 });
                0
            }
        })
    }

    /// Delete a node (idempotent).
    pub fn delete(&self, key: &str) {
        self.nodes.remove(key);
    }

    /// Keys under a prefix (ZooKeeper getChildren analogue), sorted.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.nodes.for_each(|k, _| {
            if k.starts_with(prefix) {
                out.push(k.clone());
            }
        });
        out.sort();
        out
    }

    /// Allocate the next value of a global sequence (for ledger ids).
    pub fn next_sequence(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_get() {
        let m = MetadataStore::new();
        m.create("/topics/t", b"cfg".to_vec()).unwrap();
        let v = m.get("/topics/t").unwrap();
        assert_eq!(v.data, b"cfg");
        assert_eq!(v.version, 0);
        assert!(m.create("/topics/t", b"x".to_vec()).is_err());
    }

    #[test]
    fn cas_enforces_versions() {
        let m = MetadataStore::new();
        m.cas("/k", b"v0".to_vec(), None).unwrap();
        // Stale writer (expects version 1) fails.
        assert!(m.cas("/k", b"bad".to_vec(), Some(1)).is_err());
        let v1 = m.cas("/k", b"v1".to_vec(), Some(0)).unwrap();
        assert_eq!(v1, 1);
        assert_eq!(m.get("/k").unwrap().data, b"v1");
    }

    #[test]
    fn cas_create_if_absent_conflicts_when_present() {
        let m = MetadataStore::new();
        m.put("/k", b"x".to_vec());
        assert!(m.cas("/k", b"y".to_vec(), None).is_err());
    }

    #[test]
    fn put_bumps_version() {
        let m = MetadataStore::new();
        assert_eq!(m.put("/k", b"a".to_vec()), 0);
        assert_eq!(m.put("/k", b"b".to_vec()), 1);
    }

    #[test]
    fn update_versions_exactly_like_put() {
        let m = MetadataStore::new();
        let by_put = (0..4)
            .map(|i| m.put("/put", vec![b'0' + i]))
            .collect::<Vec<_>>();
        let by_update = (0..4)
            .map(|i| {
                m.update("/update", |buf| {
                    buf.clear();
                    buf.push(b'0' + i);
                })
            })
            .collect::<Vec<_>>();
        assert_eq!(by_put, vec![0, 1, 2, 3], "created at 0, then +1 a write");
        assert_eq!(by_update, by_put);
        assert_eq!(m.get("/update"), m.get("/put"));
        // The two writers share one version line per node, and CAS sees it.
        assert_eq!(m.put("/update", b"x".to_vec()), 4);
        assert_eq!(m.update("/update", |buf| buf.push(b'y')), 5);
        assert_eq!(m.get("/update").unwrap().data, b"xy");
        assert!(m.cas("/update", b"z".to_vec(), Some(4)).is_err());
        assert_eq!(m.cas("/update", b"z".to_vec(), Some(5)).unwrap(), 6);
        // An absent node starts empty.
        assert_eq!(m.update("/fresh", |buf| assert!(buf.is_empty())), 0);
        assert_eq!(
            m.get("/fresh"),
            Some(Versioned {
                data: Vec::new(),
                version: 0
            })
        );
    }

    #[test]
    fn list_prefix_and_delete() {
        let m = MetadataStore::new();
        m.put("/topics/a", vec![]);
        m.put("/topics/b", vec![]);
        m.put("/ledgers/1", vec![]);
        assert_eq!(m.list_prefix("/topics/").len(), 2);
        m.delete("/topics/a");
        assert_eq!(m.list_prefix("/topics/").len(), 1);
        m.delete("/topics/a"); // idempotent
    }

    #[test]
    fn list_prefix_is_sorted() {
        let m = MetadataStore::new();
        for k in ["/t/c", "/t/a", "/t/b", "/u/z"] {
            m.put(k, vec![]);
        }
        assert_eq!(m.list_prefix("/t/"), vec!["/t/a", "/t/b", "/t/c"]);
    }

    #[test]
    fn sequence_is_monotone() {
        let m = MetadataStore::new();
        assert_eq!(m.next_sequence(), 0);
        assert_eq!(m.next_sequence(), 1);
        assert_eq!(m.next_sequence(), 2);
    }

    #[test]
    fn concurrent_cas_admits_exactly_one_writer_per_version() {
        let m = std::sync::Arc::new(MetadataStore::new());
        m.put("/contended", b"v0".to_vec());
        let mut wins = 0;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let m = std::sync::Arc::clone(&m);
                    s.spawn(move || m.cas("/contended", b"mine".to_vec(), Some(0)).is_ok())
                })
                .collect();
            for h in handles {
                if h.join().unwrap() {
                    wins += 1;
                }
            }
        });
        assert_eq!(wins, 1, "exactly one CAS at version 0 may succeed");
        assert_eq!(m.get("/contended").unwrap().version, 1);
    }
}
