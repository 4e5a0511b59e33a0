//! The paper's Fig. 3 loop — a batch in, a state counter bumped per
//! message — allocates per *batch*, not per message: a counter nobody is
//! reading is bumped where it lies. (Its own file: the counting allocator
//! is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taureau_core::clock::WallClock;
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_pulsar::{FunctionConfig, FunctionRuntime, PulsarCluster, PulsarConfig};

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

#[test]
fn a_warm_batch_of_increments_allocates_per_batch_not_per_message() {
    let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
    cluster.create_topic("events", 1).unwrap();
    let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
    let rt = FunctionRuntime::new(cluster.clone(), jiffy);
    rt.register(
        FunctionConfig {
            name: "tally".into(),
            inputs: vec!["events".into()],
            output: None,
        },
        Box::new(|_, ctx| {
            ctx.increment(b"events-seen", 1);
            None
        }),
    )
    .unwrap();
    let producer = cluster.producer("events").unwrap();
    let batch = [[7u8; 128]; BATCH];
    let round = || {
        producer.send_batch(&batch).unwrap();
        assert_eq!(rt.run_available("tally").unwrap(), BATCH);
    };
    // Ledger open, state binding, first touch of every metric.
    for _ in 0..4 {
        round();
    }

    let before = ALLOCS.with(Cell::get);
    round();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(allocs <= 16, "{allocs} allocations for one warm batch");
}
