//! Versioned metadata store — the ZooKeeper stand-in of Figure 1.
//!
//! Pulsar uses a ZooKeeper ensemble for "coordination and configuration
//! management": ledger metadata, topic ownership, subscription cursors.
//! This in-process equivalent provides the two primitives those uses need:
//! versioned reads and compare-and-swap writes (so concurrent brokers can't
//! clobber each other's updates), plus watch-free sequential node creation
//! for id allocation.
//!
//! Nodes live in one map behind one lock, so a CAS's compare and swap
//! are one critical section; the id sequence is a plain atomic. The lock
//! is a leaf: nothing that runs under it calls back into the store or
//! takes another lock.
//!
//! Every node's value is fixed-width little-endian fields, written
//! through `BufMut` and read back whole through one [`Reader`]; no value
//! is text. This module holds each value's one encoder and one parse
//! (a count is one `u32`: `put_u32_le` and `Reader::u32`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::BufMut;
use parking_lot::Mutex;
use taureau_core::hash::FnvHashMap;
use taureau_core::id::LedgerId;
use taureau_core::wire::Reader;

use crate::broker::SubscriptionMode;
use crate::error::{PulsarError, Result};
use crate::ledger::LedgerMeta;
use crate::message::MessageId;

/// A value with its version (ZooKeeper zxid analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Versioned {
    /// Stored bytes.
    pub(crate) data: Vec<u8>,
    /// Monotone version, starting at 0 on create.
    pub(crate) version: u64,
}

/// In-process versioned KV store with CAS semantics.
#[derive(Debug, Default)]
pub struct MetadataStore {
    nodes: Mutex<FnvHashMap<String, Versioned>>,
    next_seq: AtomicU64,
}

impl MetadataStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a node's value with `parse`; `None` when the node is absent
    /// or `parse` does not take exactly its bytes.
    pub(crate) fn read<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&mut Reader<'_>) -> Option<T>,
    ) -> Option<T> {
        Reader::read_all(&self.nodes.lock().get(key)?.data, parse)
    }

    /// Create a node holding what `put` writes; fails if it exists.
    pub(crate) fn create(&self, key: &str, put: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let mut nodes = self.nodes.lock();
        if nodes.contains_key(key) {
            return Err(PulsarError::MetadataConflict(key.to_string()));
        }
        let mut data = Vec::new();
        put(&mut data);
        nodes.insert(key.to_string(), Versioned { data, version: 0 });
        Ok(())
    }

    /// Unconditional write (used where a single owner is already
    /// guaranteed, e.g. cursor updates by the owning subscription): created
    /// at version 0, bumped by one per write. `put` writes the value into
    /// the node's own buffer, cleared, so a value of the width the node
    /// already holds — a cursor, once per ack — allocates nothing. `put`
    /// runs under the store's lock.
    pub(crate) fn write(&self, key: &str, put: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let mut nodes = self.nodes.lock();
        let Some(node) = nodes.get_mut(key) else {
            let mut data = Vec::new();
            put(&mut data);
            nodes.insert(key.to_string(), Versioned { data, version: 0 });
            return 0;
        };
        node.data.clear();
        put(&mut node.data);
        node.version += 1;
        node.version
    }

    /// Delete a node (idempotent).
    pub(crate) fn delete(&self, key: &str) {
        self.nodes.lock().remove(key);
    }

    /// Keys under a prefix (ZooKeeper getChildren analogue), sorted.
    pub(crate) fn list_prefix(&self, prefix: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .nodes
            .lock()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Allocate the next value of a global sequence (for ledger ids).
    pub(crate) fn next_sequence(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// A partition's segment list, oldest first (`/topics/{name}/{p}/segments`):
/// one `u64` ledger id after another.
pub(crate) fn put_segments(out: &mut Vec<u8>, segs: &[LedgerId]) {
    segs.iter().for_each(|id| out.put_u64_le(id.raw()));
}

/// Parse of [`put_segments`]: ids to the end (a cut one is left unread).
pub(crate) fn read_segments(r: &mut Reader<'_>) -> Option<Vec<LedgerId>> {
    Some(std::iter::from_fn(|| r.u64().map(LedgerId)).collect())
}

/// A subscription's cursor, its mark-delete position
/// (`/topics/{name}/{p}/cursor/{sub}`): `partition u32 | ledger u64 |
/// entry u64`. A cursor is entry-granular: the batch fields are not kept.
pub(crate) fn put_cursor(out: &mut Vec<u8>, id: &MessageId) {
    out.reserve(20);
    out.put_u32_le(id.partition);
    out.put_u64_le(id.ledger.raw());
    out.put_u64_le(id.entry);
}

/// Parse of [`put_cursor`].
pub(crate) fn read_cursor(r: &mut Reader<'_>) -> Option<MessageId> {
    Some(MessageId::new(r.u32()?, LedgerId(r.u64()?), r.u64()?))
}

/// A subscription's mode (`/topics/{name}/subs/{sub}`): one byte, its
/// declaration index.
pub(crate) fn put_mode(out: &mut Vec<u8>, mode: SubscriptionMode) {
    out.put_u8(mode as u8);
}

/// Parse of [`put_mode`].
pub(crate) fn read_mode(r: &mut Reader<'_>) -> Option<SubscriptionMode> {
    use SubscriptionMode::*;
    [Exclusive, Shared, Failover]
        .get(usize::from(r.u8()?))
        .copied()
}

/// A ledger's metadata (`/ledgers/{id}`): `flags u8 (1 closed, 2 has a
/// last entry) | last_entry u64 | write_quorum u64 | ensemble u64 × n`. An
/// absent last entry is written as 0 and only 0 reads back as absent, so
/// an accepted value is the one encoding of what it decodes to.
pub(crate) fn put_ledger(out: &mut Vec<u8>, meta: &LedgerMeta) {
    out.put_u8(u8::from(meta.closed) | u8::from(meta.last_entry.is_some()) << 1);
    out.put_u64_le(meta.last_entry.unwrap_or(0));
    out.put_u64_le(meta.write_quorum as u64);
    meta.ensemble.iter().for_each(|&b| out.put_u64_le(b as u64));
}

/// Parse of [`put_ledger`].
pub(crate) fn read_ledger(r: &mut Reader<'_>) -> Option<LedgerMeta> {
    let (flags, last) = (r.u8()?, r.u64()?);
    let last_entry = match flags >> 1 {
        0 if last == 0 => None,
        1 => Some(last),
        _ => return None,
    };
    let write_quorum = usize::try_from(r.u64()?).ok()?;
    let ensemble = std::iter::from_fn(|| r.u64()).map(usize::try_from);
    Some(LedgerMeta {
        ensemble: ensemble.collect::<std::result::Result<_, _>>().ok()?,
        write_quorum,
        closed: flags & 1 != 0,
        last_entry,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    impl MetadataStore {
        /// Read a node.
        pub(crate) fn get(&self, key: &str) -> Option<Versioned> {
            self.nodes.lock().get(key).cloned()
        }
    }

    /// The bytes `put` writes.
    pub(crate) fn bytes_of(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        put(&mut out);
        out
    }

    #[test]
    fn create_then_get() {
        let m = MetadataStore::new();
        m.create("/topics/t", |out| out.put_u32_le(3)).unwrap();
        let v = m.get("/topics/t").unwrap();
        assert_eq!(v.data, 3u32.to_le_bytes());
        assert_eq!(v.version, 0);
        assert_eq!(m.read("/topics/t", |r| r.u32()), Some(3));
        assert!(m.create("/topics/t", |out| out.put_u32_le(4)).is_err());
    }

    #[test]
    fn put_bumps_version() {
        let m = MetadataStore::new();
        assert_eq!(m.write("/k", |out| out.put_u32_le(1)), 0);
        assert_eq!(m.write("/k", |out| out.put_u32_le(2)), 1);
        assert_eq!(m.read("/k", |r| r.u32()), Some(2));
    }

    /// Values of any width share one version line per node, and each
    /// write replaces the node's bytes whole, the buffer kept.
    #[test]
    fn update_versions_exactly_like_put() {
        let m = MetadataStore::new();
        let versions = (0..4).map(|i| m.write("/k", |out| out.put_u32_le(i)));
        assert_eq!(
            versions.collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "created at 0, then +1 a write"
        );
        assert_eq!(m.write("/k", |out| out.put_slice(&[9; 64])), 4);
        let at = m.nodes.lock()["/k"].data.as_ptr();
        assert_eq!(m.write("/k", |out| out.put_u32_le(7)), 5);
        assert_eq!(m.get("/k").unwrap().data, 7u32.to_le_bytes());
        assert_eq!(m.nodes.lock()["/k"].data.as_ptr(), at, "rewritten in place");
    }

    /// A value of the wrong width — cut short, or with bytes to spare —
    /// reads as no value, as an absent node does.
    #[test]
    fn a_value_of_the_wrong_length_reads_as_none() {
        let m = MetadataStore::new();
        m.write("/short", |out| out.put_slice(&[1, 0, 0]));
        m.write("/long", |out| out.put_slice(&[1, 0, 0, 0, 0]));
        m.write("/mode", |out| out.put_u8(3));
        assert_eq!(m.read("/short", |r| r.u32()), None);
        assert_eq!(m.read("/long", |r| r.u32()), None);
        assert_eq!(m.read("/absent", |r| r.u32()), None);
        assert_eq!(m.read("/mode", read_mode), None);
        assert_eq!(m.read("/short", read_segments), None);
    }

    #[test]
    fn list_prefix_and_delete() {
        let m = MetadataStore::new();
        for k in ["/topics/a", "/topics/b", "/ledgers/1"] {
            m.write(k, |_| {});
        }
        assert_eq!(m.list_prefix("/topics/").len(), 2);
        m.delete("/topics/a");
        assert_eq!(m.list_prefix("/topics/").len(), 1);
        m.delete("/topics/a"); // idempotent
    }

    #[test]
    fn list_prefix_is_sorted() {
        let m = MetadataStore::new();
        for k in ["/t/c", "/t/a", "/t/b", "/u/z"] {
            m.write(k, |_| {});
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
    fn modes_round_trip_in_one_byte() {
        use SubscriptionMode::*;
        for mode in [Exclusive, Shared, Failover] {
            let bytes = bytes_of(|out| put_mode(out, mode));
            assert_eq!(
                (bytes.len(), Reader::read_all(&bytes, read_mode)),
                (1, Some(mode))
            );
        }
    }

    proptest! {
        /// Arbitrary bytes never panic a value's parse, and what a parse
        /// accepts is the one encoding of what it returns.
        #[test]
        fn hostile_bytes_parse_to_nothing_or_to_their_own_encoding(
            bytes in vec(any::<u8>(), 0..48),
        ) {
            let again = |put: &dyn Fn(&mut Vec<u8>)| bytes_of(put);
            if let Some(n) = Reader::read_all(&bytes, |r| r.u32()) {
                prop_assert_eq!(again(&|out| out.put_u32_le(n)), bytes.clone());
            }
            if let Some(mode) = Reader::read_all(&bytes, read_mode) {
                prop_assert_eq!(again(&|out| put_mode(out, mode)), bytes.clone());
            }
            if let Some(segs) = Reader::read_all(&bytes, read_segments) {
                prop_assert_eq!(again(&|out| put_segments(out, &segs)), bytes.clone());
            }
            if let Some(id) = Reader::read_all(&bytes, read_cursor) {
                prop_assert_eq!(again(&|out| put_cursor(out, &id)), bytes.clone());
            }
            if let Some(meta) = Reader::read_all(&bytes, read_ledger) {
                prop_assert_eq!(again(&|out| put_ledger(out, &meta)), bytes.clone());
            }
        }
    }
}
