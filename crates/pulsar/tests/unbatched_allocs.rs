//! What one unbatched message allocates on a warm topic: nothing to ack it
//! in order, by id or by view (the cursor is rewritten where it lies, under
//! a key built at subscribe), and to publish, receive and ack it only what the entry
//! itself needs, traced or not. (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taureau_core::clock::WallClock;
use taureau_core::trace::Tracer;
use taureau_pulsar::{Consumer, Producer, PulsarCluster, PulsarConfig, SubscriptionMode};

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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A 4-partition topic, one exclusive subscription, warmed past three
/// segment rollovers a partition: ledgers open, every metric touched, and
/// the cursor texts as long as they get for thousands of messages (ledger
/// ids in two digits, entries in four).
fn warm_topic() -> (PulsarCluster, Producer, Consumer) {
    let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
    cluster.create_topic("events", 4).unwrap();
    let producer = cluster.producer("events").unwrap();
    let mut consumer = cluster
        .subscribe("events", "fn", SubscriptionMode::Exclusive)
        .unwrap();
    for i in 0..13_000u32 {
        round_trip(&producer, &mut consumer, i);
    }
    (cluster, producer, consumer)
}

fn round_trip(producer: &Producer, consumer: &mut Consumer, i: u32) {
    producer.send_keyed(&i.to_le_bytes(), &[7u8; 256]).unwrap();
    let msg = consumer.receive().unwrap().expect("just published");
    consumer.ack(msg.id).unwrap();
}

/// Both ways into the one ack fold: an id through `ack`, and the view
/// `receive_entries_into` returned through `ack_entries`.
#[test]
fn an_in_order_ack_allocates_nothing() {
    let (_cluster, producer, mut consumer) = warm_topic();
    const N: u32 = 256;
    let mut views = Vec::new();
    let (mut in_acks, mut in_view_acks) = (0, 0);
    for i in 0..N {
        producer.send_keyed(&i.to_le_bytes(), &[7u8; 256]).unwrap();
        let msg = consumer.receive().unwrap().expect("just published");
        in_acks += allocs_during(|| consumer.ack(msg.id).unwrap());
        producer.send_keyed(&i.to_le_bytes(), &[7u8; 256]).unwrap();
        assert_eq!(consumer.receive_entries_into(1, &mut views).unwrap(), 1);
        in_view_acks += allocs_during(|| consumer.ack_entries(&views).unwrap());
    }
    assert_eq!(in_acks, 0, "{in_acks} allocations in {N} in-order acks");
    assert_eq!(
        in_view_acks, 0,
        "{in_view_acks} allocations in {N} in-order view acks"
    );
}

#[test]
fn an_unbatched_round_trip_allocates_the_entry_and_little_else() {
    let (_cluster, producer, mut consumer) = warm_topic();
    const N: u32 = 1024;
    let allocs = allocs_during(|| {
        for i in 0..N {
            round_trip(&producer, &mut consumer, i);
        }
    });
    // Per message: the entry buffer and its `Bytes` header. Amortized over
    // the run: B-tree nodes of the two replicas' entry maps, growth of the
    // open segment's tail cache, and a ledger rollover per 1 024 entries a
    // partition. 2.33 as written; one more allocation a message is 3.33.
    let per_msg = allocs as f64 / f64::from(N);
    assert!(
        per_msg <= 3.0,
        "{per_msg:.2} allocations per unbatched send → receive → ack"
    );
}

/// A traced publish writes its entry once: the trace context is a field of
/// the one entry header, not a second buffer wrapped around the entry.
/// Exact, because a traced run is as deterministic as an untraced one; the
/// growth of the tracer's ring and of the thread's span stack are in the
/// count, and the spans the publish and the dispatch record allocate
/// nothing (7 519 while each span was a name, an attribute list and an
/// `Arc`).
#[test]
fn a_traced_keyed_round_trip_writes_the_entry_once() {
    let (cluster, producer, mut consumer) = warm_topic();
    cluster.set_tracer(Tracer::new(WallClock::shared()));
    const N: u32 = 256;
    let allocs = allocs_during(|| {
        for i in 0..N {
            round_trip(&producer, &mut consumer, i);
        }
    });
    assert_eq!(
        allocs, 607,
        "allocations in {N} traced send → receive → ack"
    );
}
