//! Data structures stored in namespaces.
//!
//! Jiffy exposes three ephemeral-state structures, matching the needs of
//! the applications in §5 of the paper:
//!
//! - [`KvObject`]: a hash-partitioned key-value map (graph state, model
//!   parameters). Partitioned *within its own namespace*: each partition is
//!   backed by exactly one block, and scaling from `n` to `m` partitions
//!   re-hashes only this object's entries — the isolation property
//!   experiment E4 measures.
//! - [`QueueObject`]: a FIFO of byte payloads (shuffle data, work items).
//! - [`FileObject`]: an append-only byte stream (logs, serialized
//!   intermediates à la ExCamera chunks).
//!
//! Every structure accounts its bytes against pool blocks, growing and
//! shrinking its block set as it is used, which is what lets the shared
//! pool multiplex memory across applications.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use taureau_core::hash::{hash64, FnvHashMap};
use taureau_core::id::NodeId;

use crate::error::{JiffyError, Result};
use crate::pool::{BlockRef, MemoryPool};

/// Per-entry bookkeeping overhead charged against block capacity, so that
/// accounting is conservative rather than optimistic.
const ENTRY_OVERHEAD: u64 = 16;

/// Seed for the KV partitioning hash (fixed: partitioning must be stable
/// across handles).
const PARTITION_SEED: u64 = 0x4a49_4646_5921; // "JIFFY!"

/// The partition `key` lives in, of `n`. With one partition — every
/// function-state object, every `create_kv(_, 1)` that never filled a
/// block — the answer needs neither the hash nor a 64-bit divide.
#[inline]
fn partition_of(key: &[u8], n: usize) -> usize {
    if n == 1 {
        return 0;
    }
    (hash64(PARTITION_SEED, key) % n as u64) as usize
}

/// A data object living at a namespace.
#[derive(Debug)]
pub(crate) enum ObjectState {
    /// Hash-partitioned key-value map. Behind its own lock (shared with
    /// data-path handles) so KV ops need not hold the controller's apps
    /// lock; the namespace tree remains the lifecycle authority. Lock order
    /// is apps -> object, and the object lock never acquires the apps lock.
    Kv(Arc<Mutex<KvObject>>),
    /// FIFO queue.
    Queue(QueueObject),
    /// Append-only byte stream.
    File(FileObject),
}

impl ObjectState {
    /// Blocks backing this object (for reclamation).
    pub(crate) fn blocks(&self) -> Vec<BlockRef> {
        match self {
            ObjectState::Kv(o) => o.lock().partitions.iter().map(|p| p.block).collect(),
            ObjectState::Queue(o) => o.blocks.clone(),
            ObjectState::File(o) => o.blocks.clone(),
        }
    }

    /// Mark the object reclaimed so outstanding handles' direct bindings
    /// stop serving it.
    pub(crate) fn retire(&self) {
        if let ObjectState::Kv(o) = self {
            o.lock().retire();
        }
    }

    /// Human-readable kind name for error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ObjectState::Kv(_) => "kv",
            ObjectState::Queue(_) => "queue",
            ObjectState::File(_) => "file",
        }
    }

    /// Move every block this object holds on `node` to an active node
    /// (the node is draining — see [`MemoryPool::begin_decommission`]).
    /// Returns `(blocks_moved, bytes_moved)`. Object contents don't change;
    /// only the backing block references do.
    pub(crate) fn migrate_off_node(
        &mut self,
        pool: &MemoryPool,
        node: NodeId,
    ) -> Result<(u64, u64)> {
        match self {
            ObjectState::Kv(o) => {
                let mut blocks = 0u64;
                let mut bytes = 0u64;
                let mut o = o.lock();
                let o = &mut *o;
                for part in o.partitions.iter_mut() {
                    if part.block.node == node {
                        part.block = pool.migrate_block(&o.app, part.block)?;
                        blocks += 1;
                        bytes += part.used;
                    }
                }
                Ok((blocks, bytes))
            }
            ObjectState::Queue(o) => migrate_block_list(pool, &o.app, &mut o.blocks, node, o.used),
            ObjectState::File(o) => migrate_block_list(pool, &o.app, &mut o.blocks, node, o.len),
        }
    }
}

/// Migrate the matching entries of a flat block list, attributing resident
/// bytes evenly across the object's blocks for the transfer report.
fn migrate_block_list(
    pool: &MemoryPool,
    app: &str,
    blocks: &mut [BlockRef],
    node: NodeId,
    resident: u64,
) -> Result<(u64, u64)> {
    let per_block = resident / blocks.len().max(1) as u64;
    let mut moved = 0u64;
    let mut bytes = 0u64;
    for b in blocks.iter_mut() {
        if b.node == node {
            *b = pool.migrate_block(app, *b)?;
            moved += 1;
            bytes += per_block;
        }
    }
    Ok((moved, bytes))
}

fn entry_size(key: &[u8], value: &[u8]) -> u64 {
    key.len() as u64 + value.len() as u64 + ENTRY_OVERHEAD
}

#[derive(Debug)]
struct Partition {
    block: BlockRef,
    /// Values are refcounted: `get` hands out a view of the stored
    /// allocation instead of copying it, and an overwrite swaps the
    /// refcounted pointer — outstanding views keep seeing the value they
    /// read (snapshot semantics). Only a buffer with no view outstanding
    /// is ever written in place ([`KvObject::exclusive_value`]).
    map: FnvHashMap<Vec<u8>, Bytes>,
    used: u64,
}

/// What a [`KvObject`] shares with the reaper, readable without the
/// object lock: whether the object is still live, and when its data path
/// was last used.
#[derive(Debug)]
pub(crate) struct KvReadCache {
    /// Cleared when the object is reclaimed (lease expiry or namespace
    /// removal) so stale handles fall back to the control plane and get
    /// the authoritative `NotFound`.
    alive: AtomicBool,
    /// Clock nanos of the last data-path access. Direct-path ops skip the
    /// controller's apps lock and with it the lease table; the reaper folds this
    /// stamp into lease renewal instead.
    renewed_nanos: AtomicU64,
}

impl KvReadCache {
    fn new() -> Self {
        Self {
            alive: AtomicBool::new(true),
            renewed_nanos: AtomicU64::new(0),
        }
    }

    /// Whether the object behind this cache is still live (not reclaimed).
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Clock nanos of the most recent data-path touch; the reaper folds
    /// this into lease renewal (see `LeaseManager::observe_activity`).
    pub(crate) fn last_touch_nanos(&self) -> u64 {
        self.renewed_nanos.load(Ordering::Acquire)
    }
}

/// Hash-partitioned KV map; each partition is one block.
#[derive(Debug)]
pub(crate) struct KvObject {
    partitions: Vec<Partition>,
    app: String,
    /// Liveness flag and touch stamp, shared with the reaper.
    cache: Arc<KvReadCache>,
}

impl KvObject {
    /// Create with `initial_partitions` blocks allocated for `app`.
    pub(crate) fn create(pool: &MemoryPool, app: &str, initial_partitions: usize) -> Result<Self> {
        assert!(initial_partitions > 0, "need at least one partition");
        let blocks = pool.allocate(app, initial_partitions as u64)?;
        Ok(Self {
            partitions: blocks
                .into_iter()
                .map(|block| Partition {
                    block,
                    map: FnvHashMap::default(),
                    used: 0,
                })
                .collect(),
            app: app.to_string(),
            cache: Arc::new(KvReadCache::new()),
        })
    }

    /// The liveness flag and touch stamp (shared with the reaper).
    pub(crate) fn read_cache(&self) -> Arc<KvReadCache> {
        Arc::clone(&self.cache)
    }

    /// Mark the object dead (reclaimed); outstanding handles' direct
    /// paths refuse and fall back to the control plane's `NotFound`.
    pub(crate) fn retire(&self) {
        self.cache.alive.store(false, Ordering::Release);
    }

    /// Whether this object is still live. Direct-path callers re-check
    /// AFTER taking the object lock: `retire` runs under that lock on the
    /// reclamation paths, so a live observation here cannot race a free.
    pub(crate) fn is_alive(&self) -> bool {
        self.cache.is_alive()
    }

    /// Record a data-path access at `now`.
    pub(crate) fn touch(&self, now_nanos: u64) {
        self.cache.renewed_nanos.store(now_nanos, Ordering::Release);
    }

    /// Number of partitions (= blocks).
    pub(crate) fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of keys stored.
    pub(crate) fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.map.len()).sum()
    }

    /// Bytes used across partitions (including per-entry overhead).
    pub(crate) fn used_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.used).sum()
    }

    fn index_of(&self, key: &[u8]) -> usize {
        partition_of(key, self.partitions.len())
    }

    /// The stored value's own buffer, when it is `len` bytes long and no
    /// view handed out by `get` shares it.
    /// Writing there is invisible to everyone but the next reader, so
    /// snapshot semantics hold, and the entry's size — hence every
    /// capacity check — is unchanged.
    fn exclusive_value(&mut self, key: &[u8], len: usize) -> Option<&mut [u8]> {
        let idx = self.index_of(key);
        let buf = self.partitions[idx].map.get_mut(key)?.unique_mut()?;
        (buf.len() == len).then_some(buf)
    }

    /// Insert or update from a borrowed slice (copies the value once: over
    /// the old value when that has the same length and no other owner,
    /// else into a fresh refcounted buffer). See
    /// [`put_bytes`](Self::put_bytes) for the zero-copy variant.
    pub(crate) fn put(&mut self, pool: &MemoryPool, key: &[u8], value: &[u8]) -> Result<u64> {
        if let Some(buf) = self.exclusive_value(key, value.len()) {
            buf.copy_from_slice(value);
            return Ok(0);
        }
        self.put_bytes(pool, key, Bytes::copy_from_slice(value))
    }

    /// Insert or update, taking ownership of an already-refcounted value
    /// (no byte copy). If the target partition's block is full, the object
    /// auto-scales by adding one partition (re-partitioning only itself)
    /// and retries; returns the number of bytes moved by any
    /// re-partitioning this call triggered.
    pub(crate) fn put_bytes(&mut self, pool: &MemoryPool, key: &[u8], value: Bytes) -> Result<u64> {
        let block_size = pool.block_size().as_u64();
        let size = entry_size(key, &value);
        if size > block_size {
            return Err(JiffyError::ValueTooLarge {
                value_bytes: size,
                block_bytes: block_size,
            });
        }
        let mut moved_total = 0u64;
        loop {
            let idx = self.index_of(key);
            let part = &mut self.partitions[idx];
            // Overwrite in place when the key exists: one lookup, no key
            // re-allocation — the dominant case on hot keys.
            if let Some(slot) = part.map.get_mut(key) {
                let old = entry_size(key, slot);
                if part.used - old + size <= block_size {
                    *slot = value;
                    part.used = part.used - old + size;
                    return Ok(moved_total);
                }
            } else if part.used + size <= block_size {
                part.map.insert(key.to_vec(), value);
                part.used += size;
                return Ok(moved_total);
            }
            // Partition full: scale out by one block and re-partition this
            // object only.
            moved_total += self.scale_to(pool, self.partitions.len() + 1)?;
        }
    }

    /// Read-modify-write: replace `key`'s value with `f(current)` under
    /// one lookup (`None` when the key is absent). On a hit whose new
    /// value still fits its partition the slot is overwritten in place;
    /// every other case (insert, full partition, oversized value) is
    /// [`put_bytes`](Self::put_bytes) of the computed value, so capacity
    /// accounting, auto-scaling and errors match a `get` then `put`.
    /// Returns the bytes moved by any re-partitioning.
    pub(crate) fn update(
        &mut self,
        pool: &MemoryPool,
        key: &[u8],
        f: impl FnOnce(Option<&Bytes>) -> Bytes,
    ) -> Result<u64> {
        let block_size = pool.block_size().as_u64();
        let idx = self.index_of(key);
        let part = &mut self.partitions[idx];
        let Some(slot) = part.map.get_mut(key) else {
            return self.put_bytes(pool, key, f(None));
        };
        let value = f(Some(slot));
        let used = part.used - entry_size(key, slot) + entry_size(key, &value);
        if used > block_size {
            return self.put_bytes(pool, key, value);
        }
        *slot = value;
        part.used = used;
        Ok(0)
    }

    /// Add `delta` (wrapping) to the little-endian `i64` counter at `key`;
    /// a missing or non-8-byte value counts as 0. Returns the new value
    /// and the bytes moved by any re-partitioning. An 8-byte value nobody
    /// else holds is overwritten where it lies; every other case is
    /// [`update`](Self::update) with a fresh 8-byte buffer, so a caller
    /// sees exactly what that `update` would have done.
    pub(crate) fn add_i64(
        &mut self,
        pool: &MemoryPool,
        key: &[u8],
        delta: i64,
    ) -> Result<(i64, u64)> {
        if let Some(buf) = self.exclusive_value(key, 8) {
            let cell: &mut [u8; 8] = buf.try_into().expect("8 bytes");
            let next = i64::from_le_bytes(*cell).wrapping_add(delta);
            *cell = next.to_le_bytes();
            return Ok((next, 0));
        }
        let mut next = 0;
        let moved = self.update(pool, key, |old| {
            let cur = old
                .and_then(|v| v[..].try_into().ok())
                .map_or(0, i64::from_le_bytes);
            next = cur.wrapping_add(delta);
            Bytes::copy_from_slice(&next.to_le_bytes())
        })?;
        Ok((next, moved))
    }

    /// Look up a key. The returned [`Bytes`] is a refcounted view of the
    /// stored value — no copy — and stays valid (snapshot semantics) even
    /// if the key is overwritten or removed afterwards.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.partitions[self.index_of(key)].map.get(key).cloned()
    }

    /// Remove a key, returning its value.
    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        let idx = self.index_of(key);
        let part = &mut self.partitions[idx];
        let v = part.map.remove(key)?;
        part.used -= entry_size(key, &v);
        Some(v)
    }

    /// Re-partition to exactly `target` partitions (grow or shrink).
    /// Returns the number of bytes that moved between partitions — the
    /// quantity experiment E4 compares against the global-address-space
    /// baseline. Only *this object's* data moves.
    pub(crate) fn scale_to(&mut self, pool: &MemoryPool, target: usize) -> Result<u64> {
        assert!(target > 0, "cannot scale to zero partitions");
        let n = self.partitions.len();
        if target == n {
            return Ok(0);
        }
        let block_size = pool.block_size().as_u64();
        // Allocate the new layout first so failure leaves us unchanged.
        let new_blocks = pool.allocate(&self.app, target as u64)?;
        let mut new_parts: Vec<Partition> = new_blocks
            .into_iter()
            .map(|block| Partition {
                block,
                map: FnvHashMap::default(),
                used: 0,
            })
            .collect();
        let mut moved = 0u64;
        let old_parts = std::mem::take(&mut self.partitions);
        let mut old_blocks = Vec::with_capacity(n);
        for (old_idx, part) in old_parts.into_iter().enumerate() {
            old_blocks.push(part.block);
            for (k, v) in part.map {
                let new_idx = partition_of(&k, target);
                if new_idx != old_idx {
                    moved += entry_size(&k, &v);
                }
                let size = entry_size(&k, &v);
                let dst = &mut new_parts[new_idx];
                if dst.used + size > block_size {
                    // Shrinking below the data's footprint: undo is complex,
                    // so we simply refuse; grow instead.
                    // Put everything back by growing again.
                    // (In practice callers shrink only after consuming data.)
                    // Free the new blocks and report exhaustion of space.
                    // Restore: move data back into a fresh layout of n.
                    // To keep the code honest and simple we re-grow to fit.
                    dst.map.insert(k, v);
                    dst.used += size; // over-commit, tracked below
                    continue;
                }
                dst.map.insert(k, v);
                dst.used += size;
            }
        }
        pool.free(&self.app, &old_blocks);
        self.partitions = new_parts;
        // If shrink over-committed any partition, grow back out until all
        // partitions fit.
        while self.partitions.iter().any(|p| p.used > block_size) {
            let next = self.partitions.len() + 1;
            moved += self.scale_to(pool, next)?;
        }
        Ok(moved)
    }
}

/// FIFO queue of byte payloads, backed by blocks proportional to its
/// resident bytes.
#[derive(Debug)]
pub(crate) struct QueueObject {
    deque: VecDeque<Bytes>,
    used: u64,
    blocks: Vec<BlockRef>,
    app: String,
    /// Total elements ever pushed (for metrics).
    pushed: u64,
}

impl QueueObject {
    /// Create an empty queue (no blocks until data arrives).
    pub(crate) fn create(app: &str) -> Self {
        Self {
            deque: VecDeque::new(),
            used: 0,
            blocks: Vec::new(),
            app: app.to_string(),
            pushed: 0,
        }
    }

    /// Elements currently queued.
    pub(crate) fn len(&self) -> usize {
        self.deque.len()
    }

    /// Append a refcounted payload (no byte copy), growing the block set
    /// if needed.
    pub(crate) fn push_bytes(&mut self, pool: &MemoryPool, payload: Bytes) -> Result<()> {
        let block_size = pool.block_size().as_u64();
        let size = payload.len() as u64 + ENTRY_OVERHEAD;
        if size > block_size {
            return Err(JiffyError::ValueTooLarge {
                value_bytes: size,
                block_bytes: block_size,
            });
        }
        while self.used + size > self.blocks.len() as u64 * block_size {
            let mut newly = pool.allocate(&self.app, 1)?;
            self.blocks.append(&mut newly);
        }
        self.deque.push_back(payload);
        self.used += size;
        self.pushed += 1;
        Ok(())
    }

    /// Pop the oldest payload (handing back the stored refcounted buffer —
    /// no copy), shrinking the block set when usage allows (with one block
    /// of hysteresis to avoid thrashing).
    pub(crate) fn pop(&mut self, pool: &MemoryPool) -> Option<Bytes> {
        let payload = self.deque.pop_front()?;
        let block_size = pool.block_size().as_u64();
        self.used -= payload.len() as u64 + ENTRY_OVERHEAD;
        while self.blocks.len() >= 2
            && self.used + block_size <= (self.blocks.len() as u64 - 1) * block_size
        {
            let freed = self.blocks.pop().expect("len >= 2");
            pool.free(&self.app, &[freed]);
        }
        if self.deque.is_empty() && !self.blocks.is_empty() {
            let rest = std::mem::take(&mut self.blocks);
            pool.free(&self.app, &rest);
        }
        Some(payload)
    }
}

/// Append-only byte stream, stored as a rope of refcounted chunks: each
/// append becomes one chunk, so appending never re-copies earlier data and
/// a read that lands inside one chunk is a zero-copy slice. Reads that span
/// chunk boundaries coalesce into a fresh buffer (the one place this object
/// still copies).
#[derive(Debug)]
pub(crate) struct FileObject {
    chunks: Vec<Bytes>,
    len: u64,
    blocks: Vec<BlockRef>,
    app: String,
}

impl FileObject {
    /// Create an empty file.
    pub(crate) fn create(app: &str) -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
            blocks: Vec::new(),
            app: app.to_string(),
        }
    }

    /// Append a refcounted chunk (no byte copy), growing the block set as
    /// needed. Returns the new length.
    pub(crate) fn append_bytes(&mut self, pool: &MemoryPool, bytes: Bytes) -> Result<u64> {
        let block_size = pool.block_size().as_u64();
        let needed = (self.len + bytes.len() as u64).div_ceil(block_size);
        if needed > self.blocks.len() as u64 {
            let extra = needed - self.blocks.len() as u64;
            let mut newly = pool.allocate(&self.app, extra)?;
            self.blocks.append(&mut newly);
        }
        self.len += bytes.len() as u64;
        if !bytes.is_empty() {
            self.chunks.push(bytes);
        }
        Ok(self.len)
    }

    /// Read `len` bytes starting at `offset` (clamped to the file length).
    /// Zero-copy when the range falls within one appended chunk; otherwise
    /// the spanning range is coalesced into a fresh buffer.
    pub(crate) fn read(&self, offset: u64, len: u64) -> Bytes {
        let start = (offset.min(self.len)) as usize;
        let end = ((start as u64 + len).min(self.len)) as usize;
        if start == end {
            return Bytes::new();
        }
        let mut pos = 0usize;
        let mut buf: Vec<u8> = Vec::new();
        for c in &self.chunks {
            let c_start = pos;
            let c_end = pos + c.len();
            pos = c_end;
            if c_end <= start {
                continue;
            }
            if c_start >= end {
                break;
            }
            let s = start.max(c_start) - c_start;
            let e = end.min(c_end) - c_start;
            if c_start <= start && end <= c_end {
                // Entire range inside one chunk: share its storage.
                return c.slice(s..e);
            }
            buf.extend_from_slice(&c[s..e]);
        }
        Bytes::from(buf)
    }

    /// Full contents. Zero-copy for files written in a single append.
    pub(crate) fn contents(&self) -> Bytes {
        self.read(0, self.len)
    }
}

// ---------------------------------------------------------------------------
// Handle types re-exported from the controller; defined there because they
// close over the controller's shared state.
pub use crate::controller::{FileHandle, KvHandle, QueueHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::bytesize::ByteSize;

    fn pool() -> MemoryPool {
        MemoryPool::new(2, 64, ByteSize::b(256))
    }

    #[test]
    fn kv_put_get_remove() {
        let p = pool();
        let mut kv = KvObject::create(&p, "app", 2).unwrap();
        assert_eq!(kv.put(&p, b"k1", b"v1").unwrap(), 0);
        kv.put(&p, b"k2", b"v2").unwrap();
        assert_eq!(kv.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(kv.get(b"missing"), None);
        assert_eq!(kv.remove(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(kv.get(b"k1"), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn kv_update_replaces_and_accounts() {
        let p = pool();
        let mut kv = KvObject::create(&p, "app", 1).unwrap();
        kv.put(&p, b"k", b"short").unwrap();
        let used1 = kv.used_bytes();
        kv.put(&p, b"k", b"a-rather-longer-value").unwrap();
        assert!(kv.used_bytes() > used1);
        kv.put(&p, b"k", b"s").unwrap();
        assert!(kv.used_bytes() < used1);
        assert_eq!(kv.len(), 1);
    }

    proptest::proptest! {
        /// `update` is the `get` + `put` it replaces in everything a
        /// caller or the accountant can see: stored value, `used` bytes,
        /// partition count (auto-scale at a full partition) and the
        /// `ValueTooLarge` refusal — for values that grow, shrink, fill a
        /// 256-byte block and overflow it.
        #[test]
        fn kv_update_matches_get_then_put(
            ops in proptest::collection::vec((0u8..6, 0usize..300, proptest::arbitrary::any::<bool>()), 1..80),
        ) {
            let (pa, pb) = (pool(), pool());
            let mut a = KvObject::create(&pa, "app", 1).unwrap();
            let mut b = KvObject::create(&pb, "app", 1).unwrap();
            for (k, len, append) in ops {
                let key = [b'k', k];
                // New value: `len` bytes, after the old value or instead of it.
                let f = |old: Option<&Bytes>| {
                    let mut v = old.filter(|_| append).map_or(Vec::new(), |o| o.to_vec());
                    v.resize(v.len() + len, k);
                    Bytes::from(v)
                };
                let got = a.update(&pa, &key, f);
                let old = b.get(&key);
                let want = b.put_bytes(&pb, &key, f(old.as_ref()));
                proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                proptest::prop_assert_eq!(a.get(&key), b.get(&key));
                proptest::prop_assert_eq!(a.used_bytes(), b.used_bytes());
                proptest::prop_assert_eq!(a.partitions(), b.partitions());
                proptest::prop_assert_eq!(pa.free_blocks(), pb.free_blocks());
            }
        }
    }

    #[test]
    fn kv_auto_scales_when_partition_fills() {
        let p = pool();
        let mut kv = KvObject::create(&p, "app", 1).unwrap();
        // Block is 256 B, entries ~36 B: after ~7 entries the single
        // partition fills and the object must scale itself out.
        for i in 0..40u64 {
            kv.put(&p, &i.to_le_bytes(), &[0u8; 12]).unwrap();
        }
        assert!(kv.partitions() > 1, "object never scaled");
        for i in 0..40u64 {
            assert_eq!(kv.get(&i.to_le_bytes()).as_deref(), Some(&[0u8; 12][..]));
        }
    }

    #[test]
    fn kv_rejects_oversized_values() {
        let p = pool();
        let mut kv = KvObject::create(&p, "app", 1).unwrap();
        let big = vec![0u8; 512];
        assert!(matches!(
            kv.put(&p, b"k", &big),
            Err(JiffyError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn kv_scale_preserves_data_and_reports_moved_bytes() {
        let p = pool();
        let mut kv = KvObject::create(&p, "app", 2).unwrap();
        for i in 0..10u64 {
            kv.put(&p, &i.to_le_bytes(), b"v").unwrap();
        }
        let moved = kv.scale_to(&p, 4).unwrap();
        assert!(moved > 0, "growing 2->4 should move some entries");
        assert_eq!(kv.partitions(), 4);
        for i in 0..10u64 {
            assert_eq!(kv.get(&i.to_le_bytes()).as_deref(), Some(&b"v"[..]));
        }
        // Shrink back.
        kv.scale_to(&p, 2).unwrap();
        assert_eq!(kv.partitions(), 2);
        assert_eq!(kv.len(), 10);
    }

    #[test]
    fn kv_scale_frees_old_blocks() {
        let p = pool();
        let free0 = p.free_blocks();
        let mut kv = KvObject::create(&p, "app", 2).unwrap();
        kv.scale_to(&p, 6).unwrap();
        assert_eq!(p.free_blocks(), free0 - 6);
        kv.scale_to(&p, 1).unwrap();
        assert_eq!(p.free_blocks(), free0 - 1);
    }

    #[test]
    fn queue_fifo_order_and_block_growth() {
        let p = pool();
        let mut q = QueueObject::create("app");
        assert_eq!(q.blocks.len(), 0);
        for i in 0..20u64 {
            q.push_bytes(&p, Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        assert!(q.blocks.len() >= 2, "queue should have grown blocks");
        for i in 0..20u64 {
            assert_eq!(q.pop(&p).as_deref(), Some(&i.to_le_bytes()[..]));
        }
        assert_eq!(q.pop(&p), None);
        assert_eq!(q.blocks.len(), 0, "drained queue returns all blocks");
    }

    #[test]
    fn queue_shrinks_with_hysteresis() {
        let p = pool();
        let mut q = QueueObject::create("app");
        for i in 0..30u64 {
            q.push_bytes(&p, Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        let peak = q.blocks.len();
        for _ in 0..20 {
            q.pop(&p).unwrap();
        }
        assert!(q.blocks.len() < peak, "queue should shrink after pops");
        assert!(!q.blocks.is_empty());
    }

    #[test]
    fn queue_rejects_oversized_payloads() {
        let p = pool();
        let mut q = QueueObject::create("app");
        assert!(matches!(
            q.push_bytes(&p, Bytes::from(vec![0u8; 300])),
            Err(JiffyError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn file_append_and_read() {
        let p = pool();
        let mut f = FileObject::create("app");
        assert_eq!(
            f.append_bytes(&p, Bytes::copy_from_slice(b"hello "))
                .unwrap(),
            6
        );
        assert_eq!(
            f.append_bytes(&p, Bytes::copy_from_slice(b"world"))
                .unwrap(),
            11
        );
        assert_eq!(f.read(0, 11), b"hello world");
        assert_eq!(f.read(6, 5), b"world");
        assert_eq!(f.read(6, 100), b"world"); // clamped
        assert_eq!(f.read(100, 5), b""); // past end
    }

    #[test]
    fn file_grows_blocks_with_length() {
        let p = pool();
        let mut f = FileObject::create("app");
        f.append_bytes(&p, Bytes::from(vec![1u8; 1000])).unwrap();
        assert_eq!(f.blocks.len(), 4); // 1000 / 256 -> 4 blocks
        assert_eq!(f.len, 1000);
    }

    #[test]
    fn pool_exhaustion_propagates() {
        let p = MemoryPool::new(1, 2, ByteSize::b(256));
        let mut f = FileObject::create("app");
        assert!(matches!(
            f.append_bytes(&p, Bytes::from(vec![0u8; 1024])),
            Err(JiffyError::PoolExhausted { .. })
        ));
    }

    #[test]
    fn kv_get_is_snapshot_after_overwrite_and_remove() {
        // `get` returns a refcounted view of the stored allocation: an
        // overwrite swaps the map's pointer, so the view keeps reading the
        // value it observed (and costs no copy to hand out).
        let p = pool();
        let mut kv = KvObject::create(&p, "app", 1).unwrap();
        kv.put(&p, b"k", b"first-value").unwrap();
        let snap = kv.get(b"k").unwrap();
        let stored = kv.get(b"k").unwrap();
        assert_eq!(
            snap.as_ref().as_ptr(),
            stored.as_ref().as_ptr(),
            "get copied the value instead of sharing it"
        );
        kv.put(&p, b"k", b"second-value").unwrap();
        assert_eq!(snap, &b"first-value"[..]);
        assert_eq!(kv.get(b"k").unwrap(), &b"second-value"[..]);
        kv.remove(b"k");
        assert_eq!(snap, &b"first-value"[..]);
    }

    #[test]
    fn file_reads_within_a_chunk_share_storage() {
        let p = pool();
        let mut f = FileObject::create("app");
        f.append_bytes(&p, Bytes::copy_from_slice(b"chunk-one"))
            .unwrap();
        f.append_bytes(&p, Bytes::copy_from_slice(b"chunk-two"))
            .unwrap();
        // A read inside one appended chunk is a zero-copy slice.
        let full = f.read(0, 9);
        let part = f.read(6, 3);
        assert_eq!(part, b"one");
        assert_eq!(
            part.as_ref().as_ptr(),
            full.as_ref()[6..].as_ptr(),
            "within-chunk read copied"
        );
        // A spanning read coalesces (copies) but is still correct.
        assert_eq!(f.read(6, 9), b"onechunk-");
        assert_eq!(f.contents(), b"chunk-onechunk-two");
    }

    #[test]
    fn queue_pop_returns_stored_buffer() {
        let p = pool();
        let mut q = QueueObject::create("app");
        let payload = Bytes::from(vec![42u8; 64]);
        let src = payload.as_ref().as_ptr();
        q.push_bytes(&p, payload).unwrap();
        let got = q.pop(&p).unwrap();
        assert_eq!(got.as_ref().as_ptr(), src, "pop copied the payload");
    }

    #[test]
    fn objectstate_reports_blocks() {
        let p = pool();
        let kv = KvObject::create(&p, "app", 3).unwrap();
        let st = ObjectState::Kv(Arc::new(Mutex::new(kv)));
        assert_eq!(st.blocks().len(), 3);
        assert_eq!(st.kind(), "kv");
    }
}
