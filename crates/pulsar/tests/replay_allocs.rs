//! What replaying a retained log allocates once it is warm: nothing. A
//! 256-entry `receive_entries_into` scan clones entries the read caches
//! already hold parsed and bumps a pending queue whose buffer survives
//! every `redeliver_unacked`; walking the views slices refcounted bytes.
//! (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taureau_core::clock::WallClock;
use taureau_pulsar::{PulsarCluster, PulsarConfig, SubscriptionMode};

thread_local! {
    /// Allocation calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the thread-local counter
// is const-initialised (no lazy allocation) and side-effect-only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const BATCH: usize = 64;
const ENTRIES: usize = 640;
const SCAN_ENTRIES: usize = 256;

#[test]
fn a_warm_replay_pass_allocates_nothing() {
    // Two sealed ledgers and an open tail, as `replay_catchup` has.
    let cluster = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 256,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    cluster.create_topic("log", 1).unwrap();
    let producer = cluster.producer("log").unwrap();
    for entry in 0..ENTRIES {
        let batch: [[u8; 32]; BATCH] = std::array::from_fn(|i| [(entry + i) as u8; 32]);
        producer.send_batch(&batch).unwrap();
    }
    let mut consumer = cluster
        .subscribe("log", "replay", SubscriptionMode::Exclusive)
        .unwrap();
    let mut views = Vec::new();
    let mut pass = |views: &mut Vec<_>| {
        let (mut messages, mut bytes) = (0usize, 0usize);
        loop {
            let scanned = consumer
                .receive_entries_into(SCAN_ENTRIES * BATCH, views)
                .unwrap();
            if scanned == 0 {
                break;
            }
            for view in views.iter() {
                for m in view.messages() {
                    bytes += m.payload().len();
                    messages += 1;
                }
            }
        }
        assert_eq!((messages, bytes), (ENTRIES * BATCH, ENTRIES * BATCH * 32));
        assert_eq!(consumer.redeliver_unacked().unwrap(), ENTRIES * BATCH);
    };
    // The first passes size the view buffer and the pending queue.
    pass(&mut views);
    pass(&mut views);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..4 {
        pass(&mut views);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "{allocs} allocations in 4 warm replay passes");
}
