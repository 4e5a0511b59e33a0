//! What the cluster allocates once it is warm: nothing for a tick that
//! only carries heartbeats — observability plane deployed — and at most
//! 150 times for a whole publish → consume → invoke → ack request (455
//! before telemetry was encoded once and read in place, 144 of them with
//! the plane off). (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use taureau_cluster::{ClusterStack, ClusterStackConfig, LinkFaults};
use taureau_core::latency::LatencyModel;
use taureau_faas::{FunctionSpec, PlatformConfig};

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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The `cluster_stack` benchmark's deployment: 5 brokers, 2 workers, the
/// plane on, FaaS starts and links that take no virtual time.
fn deploy() -> ClusterStack {
    let mut s = ClusterStack::new(ClusterStackConfig {
        seed: 7,
        brokers: 5,
        workers: 2,
        faas: PlatformConfig {
            cold_start: LatencyModel::zero(),
            warm_start: LatencyModel::zero(),
            ..PlatformConfig::default()
        },
        observability: true,
        ..ClusterStackConfig::default()
    });
    s.fabric().net().set_default_faults(LinkFaults {
        latency: Duration::ZERO,
        jitter: Duration::ZERO,
        drop_p: 0.0,
        dup_p: 0.0,
    });
    s.create_topic("t", 1).expect("topic");
    s.register_function(FunctionSpec::new("f", "tenant", |ctx| {
        Ok(ctx.payload[..8].to_vec())
    }))
    .expect("register");
    s
}

fn request(s: &mut ClusterStack, seq: u64) {
    let mut payload = [0u8; 64];
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    s.publish("t", &payload, None).expect("publish");
    let m = s.consume("t", "s", 1, None).expect("consume").remove(0);
    let out = s.invoke("f", &m.payload, m.ctx).expect("invoke");
    assert_eq!(out[..], seq.to_le_bytes());
    s.ack("t", "s", m.id, None).expect("ack");
}

#[test]
fn an_idle_tick_allocates_nothing_and_a_request_at_most_150_times() {
    let mut s = deploy();
    // Heap, slab, link table, mailboxes and scratch buffers reach their
    // steady size; every agent takes its baseline membership view.
    for _ in 0..300 {
        s.step();
    }
    let before = allocs();
    for _ in 0..1_000 {
        s.step();
    }
    assert_eq!(allocs() - before, 0, "idle ticks, nothing to report");

    for seq in 0..600 {
        request(&mut s, seq);
    }
    let before = allocs();
    for seq in 600..1_000 {
        request(&mut s, seq);
    }
    let per_request = (allocs() - before) as f64 / 400.0;
    println!("{per_request:.1} allocations per request");
    assert!(
        per_request <= 150.0,
        "{per_request:.1} allocations per request"
    );

    // Idle again, but the agents have history now: every 25 ms each sends
    // an empty sync batch carrying its cumulative count. Those bodies (a
    // buffer and its reference count) are all an idle tick allocates.
    let loss = |s: &ClusterStack| s.obs().expect("plane").loss_accounting();
    s.run_for(Duration::from_millis(50));
    let (before, batches) = (allocs(), loss(&s).batches_sent);
    for _ in 0..1_000 {
        s.step();
    }
    let synced = loss(&s).batches_sent - batches;
    assert!(synced > 0, "agents with history sync while idle");
    assert_eq!(allocs() - before, 2 * synced, "two per sync batch, no more");
}
