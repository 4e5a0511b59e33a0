//! The paper's Fig. 3 loop — a batch in, a state counter bumped per
//! message — pays per *scan*, not per message: the scan's increments fold
//! into one Jiffy op per key (`kv_gets`/`kv_puts`), a counter nobody is
//! reading is bumped where it lies (allocations), and the function's state
//! object is resolved once per dispatch scan (Jiffy clock reads). (Its own
//! file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taureau_core::clock::{Clock, SharedClock, WallClock};
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

/// A wall clock that counts how often it is read.
#[derive(Default)]
struct CountingClock {
    wall: WallClock,
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now(&self) -> Duration {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.wall.now()
    }

    fn sleep(&self, d: Duration) {
        self.wall.sleep(d)
    }
}

const BATCH: usize = 64;

/// The Fig. 3 tally on a fresh runtime whose Jiffy reads `jiffy_clock`
/// (the Pulsar cluster keeps a clock of its own), warmed by four rounds:
/// ledger open, state binding, first touch of every metric. Returns one
/// more round, `send_batch(64)` + `run_available`, and the runtime's Jiffy.
fn warm_tally(jiffy_clock: SharedClock) -> (impl Fn(), Jiffy) {
    let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
    cluster.create_topic("events", 1).unwrap();
    let jiffy = Jiffy::new(JiffyConfig::default(), jiffy_clock);
    let rt = FunctionRuntime::new(cluster.clone(), jiffy.clone());
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
    let round = move || {
        producer.send_batch(&batch).unwrap();
        assert_eq!(rt.run_available("tally").unwrap(), BATCH);
    };
    for _ in 0..4 {
        round();
    }
    (round, jiffy)
}

#[test]
fn a_warm_batch_of_increments_allocates_per_batch_not_per_message() {
    let (round, _jiffy) = warm_tally(WallClock::shared());
    let before = ALLOCS.with(Cell::get);
    round();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 4, "allocations for one warm batch");
}

#[test]
fn a_warm_batch_of_increments_makes_one_state_op_per_scan() {
    let (round, jiffy) = warm_tally(WallClock::shared());
    let count = |name: &str| jiffy.metrics().counter(name).get();
    let (puts, gets) = (count("kv_puts"), count("kv_gets"));
    for _ in 0..4 {
        round();
    }
    // One folded add per scan: 4 each, where one add per increment would
    // be 4 × 64.
    assert_eq!(count("kv_puts") - puts, 4, "kv_puts over four warm batches");
    assert_eq!(count("kv_gets") - gets, 4, "kv_gets over four warm batches");
}

#[test]
fn a_warm_batch_of_increments_reads_the_state_clock_once_per_scan() {
    let clock = Arc::new(CountingClock::default());
    let (round, _jiffy) = warm_tally(clock.clone());
    let before = clock.reads.load(Ordering::Relaxed);
    for _ in 0..4 {
        round();
    }
    let reads = clock.reads.load(Ordering::Relaxed) - before;
    // One scan per round, one scope per scan: 4, where one read per
    // increment would be 4 × 64.
    assert_eq!(reads, 4, "Jiffy clock reads over four warm batches");
}
