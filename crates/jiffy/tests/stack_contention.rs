//! Contention stress tests for the Jiffy stack.
//!
//! These pin down two properties concurrent callers must not lose:
//! progress (no deadlock between the app-holdings lock, the per-node
//! free-block stripes, and the namespace map) and conservation
//! (every block is either in exactly one node's free stack or held by
//! exactly one owner — never both, never neither, never two owners).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use taureau_core::bytesize::ByteSize;
use taureau_jiffy::pool::{BlockRef, MemoryPool};
use taureau_jiffy::Jiffy;

/// Per-thread grant log: app name plus the blocks it was handed.
type GrantLog = Arc<Mutex<Vec<(String, Vec<BlockRef>)>>>;

/// 8 threads allocate and free overlapping batches while registering every
/// held block in a shared set: an insert that reports the block as already
/// present means the pool handed the same block to two owners.
#[test]
fn no_block_is_ever_owned_twice() {
    let pool = Arc::new(MemoryPool::new(4, 64, ByteSize::kb(4)));
    let held: Arc<Mutex<HashSet<BlockRef>>> = Arc::new(Mutex::new(HashSet::new()));
    std::thread::scope(|s| {
        for t in 0..8usize {
            let pool = Arc::clone(&pool);
            let held = Arc::clone(&held);
            s.spawn(move || {
                let app = format!("app-{t}");
                // Keep a few live allocations at all times so frees and
                // allocations of different batches interleave.
                let mut live: Vec<Vec<BlockRef>> = Vec::new();
                for i in 0..300u64 {
                    let n = 1 + (i + t as u64) % 7;
                    if let Ok(blocks) = pool.allocate(&app, n) {
                        let mut set = held.lock().unwrap();
                        for b in &blocks {
                            assert!(set.insert(*b), "block {b:?} owned twice");
                        }
                        drop(set);
                        live.push(blocks);
                    }
                    if live.len() > 3 {
                        let batch = live.remove((i % 4) as usize);
                        let mut set = held.lock().unwrap();
                        for b in &batch {
                            assert!(set.remove(b), "freed block {b:?} not registered");
                        }
                        drop(set);
                        pool.free(&app, &batch);
                    }
                }
                for batch in live {
                    let mut set = held.lock().unwrap();
                    for b in &batch {
                        set.remove(b);
                    }
                    drop(set);
                    pool.free(&app, &batch);
                }
            });
        }
    });
    // Everything came back: the free count, the allocation gauge, and every
    // app's holdings all agree that the pool is full again.
    assert!(held.lock().unwrap().is_empty());
    assert_eq!(pool.free_blocks(), 4 * 64);
    assert_eq!(pool.stats().allocated_blocks, 0);
    for t in 0..8 {
        assert_eq!(pool.held_by(&format!("app-{t}")), 0);
    }
}

/// Exhaustion under contention stays all-or-nothing: with capacity for
/// only some of the concurrent requests, winners get complete batches,
/// losers get clean errors, and the final accounting balances.
#[test]
fn contended_exhaustion_is_all_or_nothing() {
    let pool = Arc::new(MemoryPool::new(2, 8, ByteSize::kb(4)));
    let granted: GrantLog = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for t in 0..8usize {
            let pool = Arc::clone(&pool);
            let granted = Arc::clone(&granted);
            s.spawn(move || {
                let app = format!("grab-{t}");
                if let Ok(blocks) = pool.allocate(&app, 5) {
                    assert_eq!(blocks.len(), 5);
                    granted.lock().unwrap().push((app, blocks));
                }
            });
        }
    });
    let granted = Arc::try_unwrap(granted).unwrap().into_inner().unwrap();
    // 16 blocks / 5 per request: at most 3 winners, and what the winners
    // hold plus what is free must equal capacity.
    assert!(granted.len() <= 3);
    let held: u64 = granted.iter().map(|(_, b)| b.len() as u64).sum();
    assert_eq!(pool.free_blocks() + held, 16);
    let all: HashSet<BlockRef> = granted
        .iter()
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    assert_eq!(all.len() as u64, held, "winners share no blocks");
    for (app, blocks) in &granted {
        pool.free(app, blocks);
    }
    assert_eq!(pool.free_blocks(), 16);
}

/// The full controller stack under mixed load: 8 writer threads each churn
/// a namespace with a KV (create, fill, read back, destroy) while readers
/// hammer the whole-map iteration paths (stats, listing). The scope
/// joining at all is the no-deadlock assertion; the accounting afterwards
/// is the conservation assertion.
#[test]
fn controller_stack_no_deadlock_and_blocks_conserved() {
    let jiffy = Arc::new(Jiffy::with_defaults());
    let capacity = jiffy.pool_stats().capacity_blocks;
    std::thread::scope(|s| {
        for t in 0..8usize {
            let jiffy = Arc::clone(&jiffy);
            s.spawn(move || {
                for round in 0..20usize {
                    let ns = format!("/stress-{t}");
                    jiffy.create_namespace(ns.as_str()).unwrap();
                    let kv = jiffy
                        .create_kv(format!("{ns}/kv").as_str(), 1 + t % 4)
                        .unwrap();
                    for i in 0..32u64 {
                        let key = (t as u64, round as u64, i);
                        kv.put(format!("{key:?}").as_bytes(), &[0u8; 128]).unwrap();
                    }
                    for i in 0..32u64 {
                        let key = (t as u64, round as u64, i);
                        assert_eq!(
                            kv.get(format!("{key:?}").as_bytes()).unwrap().as_deref(),
                            Some(&[0u8; 128][..])
                        );
                    }
                    jiffy.remove_namespace(ns.as_str()).unwrap();
                }
            });
        }
        // Readers exercise every whole-map iteration path while the
        // writers churn.
        for _ in 0..2 {
            let jiffy = Arc::clone(&jiffy);
            s.spawn(move || {
                for _ in 0..200 {
                    let stats = jiffy.pool_stats();
                    assert!(stats.allocated_blocks <= stats.capacity_blocks);
                    let _ = jiffy.multiplexing_report();
                    let _ = jiffy.list("/");
                    std::thread::yield_now();
                }
            });
        }
    });
    // All namespaces removed: every block is back in the pool.
    let stats = jiffy.pool_stats();
    assert_eq!(stats.allocated_blocks, 0);
    assert_eq!(stats.capacity_blocks, capacity);
    assert!(jiffy.list("/").unwrap().is_empty());
}
