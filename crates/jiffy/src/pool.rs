//! The shared block pool — Jiffy's first core insight.
//!
//! Memory across a set of memory nodes is carved into fixed-size blocks
//! (akin to OS pages). Applications allocate and free blocks as their
//! ephemeral working sets grow and shrink; because serverless state is
//! short-lived, the pool multiplexes blocks across applications in time and
//! its peak occupancy sits far below the sum of per-application peaks
//! (experiment E5 measures exactly this ratio).
//!
//! Concurrency: the pool is internally sharded, so allocation takes no
//! pool-wide lock. Each memory node keeps its own free-block stack behind
//! its own mutex; a rotating cursor spreads consecutive allocations across
//! nodes (so no node becomes a hotspot) while threads allocating
//! concurrently pop from different nodes without contending. Global
//! occupancy is a set of atomics — exhaustion is decided by a CAS
//! reservation against the free count, keeping allocation all-or-nothing
//! without a global critical section. Per-application holdings (the
//! quota/E5 accounting) live in a [`ShardedMap`] keyed by app name, so
//! different applications never serialize on each other.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock};
use taureau_core::bytesize::ByteSize;
use taureau_core::id::{BlockId, NodeId};
use taureau_core::sync::ShardedMap;

use crate::error::{JiffyError, Result};

/// A reference to an allocated block: which node it lives on and its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRef {
    /// Owning memory node.
    pub node: NodeId,
    /// Block identity (unique pool-wide).
    pub id: BlockId,
}

/// Lifecycle of a memory node within the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodePhase {
    /// Serving allocations.
    Active,
    /// Leaving: free blocks removed, allocated blocks being migrated off.
    Draining,
    /// Gone. The slot stays in the vec so node indices remain stable.
    Retired,
}

/// One memory node's free-block stack (one lock stripe of the pool).
#[derive(Debug)]
struct NodeState {
    free: Vec<BlockId>,
    phase: NodePhase,
}

/// Per-application holdings, one entry per app under its name's shard.
#[derive(Debug, Default, Clone, Copy)]
struct AppHold {
    held: u64,
    peak: u64,
}

/// Point-in-time pool statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total blocks across all nodes.
    pub capacity_blocks: u64,
    /// Blocks currently allocated.
    pub allocated_blocks: u64,
    /// High-water mark of allocated blocks over the pool's lifetime.
    pub peak_allocated_blocks: u64,
    /// Block size.
    pub block_size: ByteSize,
}

/// A pool of memory blocks spread over `nodes` memory nodes.
///
/// All methods take `&self`; the pool is safe to share across threads.
#[derive(Debug)]
pub struct MemoryPool {
    block_size: ByteSize,
    capacity_blocks: AtomicU64,
    /// Node stripes. The vec only ever *grows* (retired nodes keep their
    /// slot so `BlockRef::node` indices stay stable); the `RwLock` is held
    /// shared on every data-path access and exclusively only by
    /// [`MemoryPool::add_node`]'s push.
    nodes: RwLock<Vec<Mutex<NodeState>>>,
    /// Next fresh block id (pool-wide unique across node joins).
    next_block: AtomicU64,
    /// Rotating node selector: spreads allocations and decorrelates the
    /// stripes concurrent allocators start from.
    cursor: AtomicUsize,
    /// Blocks available for new reservations. Decremented *before* blocks
    /// are popped, incremented *after* freed blocks are pushed back, so a
    /// successful reservation is always backed by blocks in the stacks.
    free_count: AtomicU64,
    allocated: AtomicU64,
    peak_allocated: AtomicU64,
    apps: ShardedMap<String, AppHold>,
    /// Sum of the peaks of applications since forgotten
    /// ([`MemoryPool::forget_app`]): keeps [`MemoryPool::sum_of_app_peaks`]
    /// whole without one `apps` entry per app name that ever existed.
    retired_peaks: AtomicU64,
    quota: Option<u64>,
}

impl MemoryPool {
    /// Create a pool of `nodes` nodes, each holding `blocks_per_node`
    /// blocks of `block_size` bytes.
    pub fn new(nodes: usize, blocks_per_node: u64, block_size: ByteSize) -> Self {
        assert!(nodes > 0, "need at least one memory node");
        assert!(blocks_per_node > 0, "nodes must hold at least one block");
        assert!(block_size.as_u64() > 0, "block size must be positive");
        let mut next_block = 0u64;
        let nodes: Vec<Mutex<NodeState>> = (0..nodes)
            .map(|_| {
                let free: Vec<BlockId> = (0..blocks_per_node)
                    .map(|_| {
                        let id = BlockId(next_block);
                        next_block += 1;
                        id
                    })
                    .collect();
                Mutex::new(NodeState {
                    free,
                    phase: NodePhase::Active,
                })
            })
            .collect();
        let capacity = nodes.len() as u64 * blocks_per_node;
        Self {
            block_size,
            capacity_blocks: AtomicU64::new(capacity),
            nodes: RwLock::new(nodes),
            next_block: AtomicU64::new(next_block),
            cursor: AtomicUsize::new(0),
            free_count: AtomicU64::new(capacity),
            allocated: AtomicU64::new(0),
            peak_allocated: AtomicU64::new(0),
            apps: ShardedMap::new(),
            retired_peaks: AtomicU64::new(0),
            quota: None,
        }
    }

    /// Impose a per-application block quota.
    pub fn with_quota(mut self, blocks: u64) -> Self {
        self.quota = Some(blocks);
        self
    }

    /// Block size for this pool.
    pub fn block_size(&self) -> ByteSize {
        self.block_size
    }

    /// Blocks currently free pool-wide.
    pub fn free_blocks(&self) -> u64 {
        self.free_count.load(Ordering::Relaxed)
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity_blocks: self.capacity_blocks.load(Ordering::Relaxed),
            allocated_blocks: self.allocated.load(Ordering::Relaxed),
            peak_allocated_blocks: self.peak_allocated.load(Ordering::Relaxed),
            block_size: self.block_size,
        }
    }

    /// Node slots in the pool, including drained/retired ones (slot
    /// indices are stable for the pool's lifetime).
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// Nodes currently serving allocations.
    pub fn active_nodes(&self) -> usize {
        self.nodes
            .read()
            .iter()
            .filter(|n| n.lock().phase == NodePhase::Active)
            .count()
    }

    /// Whether `node` is draining (or already retired).
    pub fn is_draining(&self, node: NodeId) -> bool {
        let nodes = self.nodes.read();
        nodes
            .get(node.raw() as usize)
            .map(|n| n.lock().phase != NodePhase::Active)
            .unwrap_or(true)
    }

    /// Blocks currently held by `app`.
    pub fn held_by(&self, app: &str) -> u64 {
        self.apps
            .with(app, |shard| shard.get(app).map(|h| h.held))
            .unwrap_or(0)
    }

    /// Peak blocks ever held by `app`.
    pub fn peak_held_by(&self, app: &str) -> u64 {
        self.apps
            .with(app, |shard| shard.get(app).map(|h| h.peak))
            .unwrap_or(0)
    }

    /// Sum over applications of their individual peaks — what static
    /// per-application provisioning would have had to reserve.
    pub fn sum_of_app_peaks(&self) -> u64 {
        let mut sum = self.retired_peaks.load(Ordering::Relaxed);
        self.apps.for_each(|_, h| sum += h.peak);
        sum
    }

    /// Drop `app`'s holdings entry once it holds nothing — its namespace
    /// is gone — folding its peak into the retired sum. An app that still
    /// holds blocks is left alone. Every job is an app, so without this
    /// the map grows by one dead entry per job for the pool's lifetime.
    pub fn forget_app(&self, app: &str) {
        self.apps.with(app, |shard| {
            if let Some(peak) = shard.get(app).filter(|h| h.held == 0).map(|h| h.peak) {
                shard.remove(app);
                self.retired_peaks.fetch_add(peak, Ordering::Relaxed);
            }
        });
    }

    /// Applications with a holdings entry.
    #[cfg(test)]
    pub(crate) fn tracked_apps(&self) -> usize {
        self.apps.len()
    }

    /// Allocate `n` blocks for `app`, spread across memory nodes.
    ///
    /// # Errors
    /// [`JiffyError::QuotaExceeded`] if the app's quota would be breached,
    /// [`JiffyError::PoolExhausted`] if fewer than `n` blocks are free.
    /// Either way the allocation is all-or-nothing.
    pub fn allocate(&self, app: &str, n: u64) -> Result<Vec<BlockRef>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        // Quota reservation under the app's own stripe — apps only
        // serialize against themselves.
        self.apps.with(app, |shard| {
            // The name is copied only for an app's first allocation.
            if !shard.contains_key(app) {
                shard.insert(app.to_string(), AppHold::default());
            }
            let hold = shard.get_mut(app).expect("present or just inserted");
            if let Some(q) = self.quota {
                if hold.held + n > q {
                    return Err(JiffyError::QuotaExceeded {
                        app: app.to_string(),
                        held: hold.held,
                        quota: q,
                    });
                }
            }
            hold.held += n;
            Ok(())
        })?;
        // Claim n blocks from the global free count, then pop them from
        // the node stacks. A decommission racing in between can remove
        // free blocks the reservation was counting on, so the pop phase
        // is bounded: on starvation it rolls the reservation back and
        // retries once against the post-drain state.
        let mut out = Vec::with_capacity(n as usize);
        for attempt in 0..2 {
            let mut cur = self.free_count.load(Ordering::Relaxed);
            loop {
                if cur < n {
                    self.apps.with(app, |shard| {
                        shard.get_mut(app).expect("reserved above").held -= n;
                    });
                    return Err(JiffyError::PoolExhausted {
                        requested: n,
                        available: cur,
                    });
                }
                match self.free_count.compare_exchange_weak(
                    cur,
                    cur - n,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
            // Pop the claimed blocks round-robin across active node
            // stacks. The rotation both spreads one app's blocks over
            // nodes and starts concurrent allocators on different stripes.
            if self.pop_reserved(n as usize, &mut out) {
                break;
            }
            // Starved: a concurrent drain removed blocks we reserved.
            // Undo and retry (or give up on the second starvation). Blocks
            // popped from a node that has since started draining don't go
            // back on its stack — they retire with the node (capacity
            // shrinks by one each, and their unit of the reservation is
            // not restored, since they no longer back any future claim).
            let mut vanished = 0u64;
            {
                let nodes = self.nodes.read();
                for b in out.drain(..) {
                    let mut node = nodes[b.node.raw() as usize].lock();
                    if node.phase == NodePhase::Active {
                        node.free.push(b.id);
                    } else {
                        vanished += 1;
                    }
                }
            }
            self.capacity_blocks.fetch_sub(vanished, Ordering::Relaxed);
            self.free_count.fetch_add(n - vanished, Ordering::Release);
            if attempt == 1 {
                self.apps.with(app, |shard| {
                    shard.get_mut(app).expect("reserved above").held -= n;
                });
                return Err(JiffyError::PoolExhausted {
                    requested: n,
                    available: self.free_count.load(Ordering::Relaxed),
                });
            }
        }
        let now_allocated = self.allocated.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_allocated
            .fetch_max(now_allocated, Ordering::Relaxed);
        self.apps.with(app, |shard| {
            let hold = shard.get_mut(app).expect("reserved above");
            hold.peak = hold.peak.max(hold.held);
        });
        Ok(out)
    }

    /// Pop `want` reserved blocks from active node stacks into `out`.
    /// Returns `false` on starvation (a concurrent drain stole the
    /// reservation's backing blocks).
    fn pop_reserved(&self, want: usize, out: &mut Vec<BlockRef>) -> bool {
        let nodes = self.nodes.read();
        let mut misses = 0usize;
        let limit = nodes.len() * 64 + 256;
        while out.len() < want {
            let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % nodes.len();
            let mut node = nodes[idx].lock();
            if node.phase == NodePhase::Active {
                if let Some(id) = node.free.pop() {
                    out.push(BlockRef {
                        node: NodeId(idx as u64),
                        id,
                    });
                    misses = 0;
                    continue;
                }
            }
            drop(node);
            misses += 1;
            if misses > limit {
                return false;
            }
        }
        true
    }

    /// Return blocks to the pool.
    ///
    /// # Panics
    /// If `app` does not hold that many blocks (an accounting bug, not a
    /// user error).
    pub fn free(&self, app: &str, blocks: &[BlockRef]) {
        if blocks.is_empty() {
            return;
        }
        let n = blocks.len() as u64;
        self.apps.with(app, |shard| {
            let hold = shard
                .get_mut(app)
                .unwrap_or_else(|| panic!("app {app} frees blocks it never allocated"));
            assert!(
                hold.held >= n,
                "app {app} frees {} blocks but holds {}",
                blocks.len(),
                hold.held
            );
            hold.held -= n;
        });
        // Blocks freed onto a draining/retired node retire with it: they
        // don't rejoin any free stack, and capacity shrinks instead of the
        // free count growing.
        let mut returned = 0u64;
        {
            let nodes = self.nodes.read();
            for b in blocks {
                let mut node = nodes[b.node.raw() as usize].lock();
                if node.phase == NodePhase::Active {
                    debug_assert!(!node.free.contains(&b.id), "double free of {:?}", b.id);
                    node.free.push(b.id);
                    returned += 1;
                }
            }
        }
        self.allocated.fetch_sub(n, Ordering::Relaxed);
        self.capacity_blocks
            .fetch_sub(n - returned, Ordering::Relaxed);
        // Publish the freed blocks last: once the count rises, the blocks
        // are already in the stacks for the next claimant.
        self.free_count.fetch_add(returned, Ordering::Release);
    }

    // -- cluster membership -------------------------------------------------

    /// Add a fresh memory node holding `blocks` blocks. Returns its id.
    ///
    /// The new node starts serving allocations immediately; this models a
    /// Jiffy memory node joining the cluster.
    pub fn add_node(&self, blocks: u64) -> NodeId {
        assert!(blocks > 0, "nodes must hold at least one block");
        let id = {
            let mut nodes = self.nodes.write();
            let first = self.next_block.fetch_add(blocks, Ordering::Relaxed);
            let free: Vec<BlockId> = (first..first + blocks).map(BlockId).collect();
            nodes.push(Mutex::new(NodeState {
                free,
                phase: NodePhase::Active,
            }));
            NodeId(nodes.len() as u64 - 1)
        };
        self.capacity_blocks.fetch_add(blocks, Ordering::Relaxed);
        self.free_count.fetch_add(blocks, Ordering::Release);
        id
    }

    /// Start decommissioning a node: its free blocks leave the pool at
    /// once, and no new allocations land on it. Allocated blocks stay
    /// readable and must be moved with [`MemoryPool::migrate_block`]
    /// before [`MemoryPool::finish_decommission`].
    ///
    /// Returns the number of free blocks drained.
    ///
    /// # Errors
    /// [`JiffyError::NodeUnavailable`] if the node is unknown or already
    /// draining, or if it is the last active node.
    pub fn begin_decommission(&self, node: NodeId) -> Result<u64> {
        let drained = {
            let nodes = self.nodes.read();
            let idx = node.raw() as usize;
            let state = nodes.get(idx).ok_or(JiffyError::NodeUnavailable(node))?;
            if nodes
                .iter()
                .filter(|n| n.lock().phase == NodePhase::Active)
                .count()
                <= 1
            {
                return Err(JiffyError::NodeUnavailable(node));
            }
            let mut state = state.lock();
            if state.phase != NodePhase::Active {
                return Err(JiffyError::NodeUnavailable(node));
            }
            state.phase = NodePhase::Draining;
            let k = state.free.len() as u64;
            state.free.clear();
            k
        };
        // Take the drained blocks out of the reservation count. In-flight
        // reservations backed by them will starve, roll back, and retry —
        // this wait absorbs their rollback credit.
        let mut remaining = drained;
        while remaining > 0 {
            let cur = self.free_count.load(Ordering::Relaxed);
            let take = cur.min(remaining);
            if take == 0 {
                std::thread::yield_now();
                continue;
            }
            if self
                .free_count
                .compare_exchange_weak(cur, cur - take, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                remaining -= take;
            }
        }
        self.capacity_blocks.fetch_sub(drained, Ordering::Relaxed);
        Ok(drained)
    }

    /// Move one allocated block off a draining node: allocates a
    /// replacement on an active node (no quota charge — the app's
    /// holdings don't change) and retires the old block. The caller owns
    /// copying the contents and swapping references.
    ///
    /// # Errors
    /// [`JiffyError::NodeUnavailable`] unless `from.node` is draining;
    /// [`JiffyError::PoolExhausted`] if no active node has a free block.
    pub fn migrate_block(&self, app: &str, from: BlockRef) -> Result<BlockRef> {
        {
            let nodes = self.nodes.read();
            let state = nodes
                .get(from.node.raw() as usize)
                .ok_or(JiffyError::NodeUnavailable(from.node))?;
            if state.lock().phase != NodePhase::Draining {
                return Err(JiffyError::NodeUnavailable(from.node));
            }
        }
        let _ = app; // holdings unchanged: one block replaces another
                     // Reserve one replacement block.
        let mut cur = self.free_count.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return Err(JiffyError::PoolExhausted {
                    requested: 1,
                    available: 0,
                });
            }
            match self.free_count.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let mut out = Vec::with_capacity(1);
        if !self.pop_reserved(1, &mut out) {
            self.free_count.fetch_add(1, Ordering::Release);
            return Err(JiffyError::PoolExhausted {
                requested: 1,
                available: 0,
            });
        }
        // The old block retires with its node; `allocated` is unchanged
        // (one live block replaced another), capacity drops by the
        // retiree.
        self.capacity_blocks.fetch_sub(1, Ordering::Relaxed);
        Ok(out[0])
    }

    /// Finish decommissioning: mark the node retired. All its blocks must
    /// already have been migrated or freed.
    pub fn finish_decommission(&self, node: NodeId) {
        let nodes = self.nodes.read();
        if let Some(state) = nodes.get(node.raw() as usize) {
            let mut state = state.lock();
            if state.phase == NodePhase::Draining {
                state.phase = NodePhase::Retired;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> MemoryPool {
        MemoryPool::new(4, 8, ByteSize::kb(64))
    }

    #[test]
    fn allocation_spreads_across_nodes() {
        let p = pool();
        let blocks = p.allocate("a", 4).unwrap();
        let nodes: std::collections::HashSet<NodeId> = blocks.iter().map(|b| b.node).collect();
        assert_eq!(nodes.len(), 4, "4 blocks should land on 4 distinct nodes");
    }

    #[test]
    fn exhausts_then_errors() {
        let p = pool();
        let all = p.allocate("a", 32).unwrap();
        assert_eq!(all.len(), 32);
        let err = p.allocate("a", 1).unwrap_err();
        assert!(matches!(
            err,
            JiffyError::PoolExhausted { available: 0, .. }
        ));
    }

    #[test]
    fn free_returns_capacity() {
        let p = pool();
        let blocks = p.allocate("a", 10).unwrap();
        assert_eq!(p.free_blocks(), 22);
        p.free("a", &blocks);
        assert_eq!(p.free_blocks(), 32);
        assert_eq!(p.held_by("a"), 0);
        // Can re-allocate everything after the free.
        assert_eq!(p.allocate("b", 32).unwrap().len(), 32);
    }

    #[test]
    fn quota_is_enforced_per_app() {
        let p = MemoryPool::new(2, 16, ByteSize::kb(4)).with_quota(5);
        assert!(p.allocate("a", 5).is_ok());
        let err = p.allocate("a", 1).unwrap_err();
        assert!(matches!(err, JiffyError::QuotaExceeded { .. }));
        // Another app has its own quota.
        assert!(p.allocate("b", 5).is_ok());
    }

    #[test]
    fn peaks_track_multiplexing() {
        let p = pool();
        let a = p.allocate("a", 12).unwrap();
        p.free("a", &a);
        let b = p.allocate("b", 12).unwrap();
        p.free("b", &b);
        // Each app peaked at 12 but they never overlapped, so the pool's
        // own peak is 12 while static provisioning would need 24.
        assert_eq!(p.stats().peak_allocated_blocks, 12);
        assert_eq!(p.sum_of_app_peaks(), 24);
    }

    #[test]
    fn forgetting_an_app_keeps_its_peak_in_the_sum() {
        let p = pool();
        let a = p.allocate("a", 12).unwrap();
        p.forget_app("a"); // still holds blocks: left alone
        assert_eq!(p.tracked_apps(), 1);
        p.free("a", &a);
        p.forget_app("a");
        p.forget_app("a"); // idempotent
        assert_eq!(p.tracked_apps(), 0);
        assert_eq!(p.peak_held_by("a"), 0);
        let b = p.allocate("b", 5).unwrap();
        assert_eq!(p.sum_of_app_peaks(), 17);
        p.free("b", &b);
    }

    #[test]
    fn zero_allocation_is_noop() {
        let p = pool();
        assert!(p.allocate("a", 0).unwrap().is_empty());
        p.free("a", &[]);
        assert_eq!(p.stats().allocated_blocks, 0);
    }

    #[test]
    fn all_or_nothing_allocation() {
        let p = MemoryPool::new(1, 4, ByteSize::kb(4));
        p.allocate("a", 3).unwrap();
        assert!(p.allocate("b", 2).is_err());
        // The failed request must not have consumed the last free block.
        assert_eq!(p.free_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn freeing_unheld_blocks_panics() {
        let p = pool();
        let fake = BlockRef {
            node: NodeId(0),
            id: BlockId(0),
        };
        p.free("ghost", &[fake]);
    }

    #[test]
    fn quota_failure_leaves_holdings_untouched() {
        let p = MemoryPool::new(2, 16, ByteSize::kb(4)).with_quota(4);
        let held = p.allocate("a", 3).unwrap();
        assert!(p.allocate("a", 2).is_err());
        assert_eq!(p.held_by("a"), 3);
        assert_eq!(p.peak_held_by("a"), 3);
        p.free("a", &held);
        assert_eq!(p.held_by("a"), 0);
    }

    #[test]
    fn add_node_grows_capacity() {
        let p = MemoryPool::new(2, 4, ByteSize::kb(4));
        assert_eq!(p.node_count(), 2);
        let id = p.add_node(4);
        assert_eq!(id, NodeId(2));
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.stats().capacity_blocks, 12);
        // All 12 blocks are allocatable, with unique ids.
        let blocks = p.allocate("a", 12).unwrap();
        let ids: std::collections::HashSet<BlockId> = blocks.iter().map(|b| b.id).collect();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn decommission_drains_free_blocks_and_migrates_allocated() {
        let p = MemoryPool::new(2, 8, ByteSize::kb(4));
        let blocks = p.allocate("a", 6).unwrap();
        let victim = NodeId(0);
        let on_victim: Vec<BlockRef> = blocks
            .iter()
            .copied()
            .filter(|b| b.node == victim)
            .collect();
        assert!(!on_victim.is_empty(), "round-robin puts blocks on node 0");
        p.begin_decommission(victim).unwrap();
        assert!(p.is_draining(victim));
        // No new allocations land on the draining node.
        for b in p.allocate("a", 2).unwrap() {
            assert_ne!(b.node, victim);
        }
        // Migrate each allocated block off; holdings stay constant.
        let held_before = p.held_by("a");
        for &b in &on_victim {
            let repl = p.migrate_block("a", b).unwrap();
            assert_ne!(repl.node, victim);
        }
        assert_eq!(p.held_by("a"), held_before);
        p.finish_decommission(victim);
        assert_eq!(p.active_nodes(), 1);
        // Capacity is now just the surviving node.
        assert_eq!(p.stats().capacity_blocks, 8);
    }

    #[test]
    fn cannot_decommission_last_active_node() {
        let p = MemoryPool::new(1, 4, ByteSize::kb(4));
        assert!(matches!(
            p.begin_decommission(NodeId(0)),
            Err(JiffyError::NodeUnavailable(_))
        ));
    }

    #[test]
    fn free_onto_draining_node_retires_blocks() {
        let p = MemoryPool::new(2, 4, ByteSize::kb(4));
        let blocks = p.allocate("a", 8).unwrap();
        p.begin_decommission(NodeId(0)).unwrap();
        p.free("a", &blocks);
        assert_eq!(p.held_by("a"), 0);
        assert_eq!(p.stats().allocated_blocks, 0);
        // Node 0's four blocks retired with it; node 1's four came back.
        assert_eq!(p.stats().capacity_blocks, 4);
        assert_eq!(p.free_blocks(), 4);
    }

    #[test]
    fn concurrent_allocate_free_conserves_blocks() {
        let p = std::sync::Arc::new(MemoryPool::new(4, 64, ByteSize::kb(4)));
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    let app = format!("app-{t}");
                    for _ in 0..200 {
                        if let Ok(blocks) = p.allocate(&app, 8) {
                            p.free(&app, &blocks);
                        }
                    }
                });
            }
        });
        assert_eq!(p.free_blocks(), 256);
        assert_eq!(p.stats().allocated_blocks, 0);
    }
}
