//! What a span costs the allocator once the tracer is warm: nothing. The
//! record is plain data (a static name, typed attributes held inline, a
//! short runtime string copied into the attribute), it waits in the
//! thread's span stack while open, and is copied by value into the
//! flight-recorder ring and the telemetry sink, both of which have grown
//! to their size and are reused. (Its own file: the counting allocator is
//! global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taureau_core::clock::WallClock;
use taureau_core::trace::{TelemetryEvent, TelemetrySink, Tracer};

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

/// One request's worth of telemetry: a parent with a child, every kind of
/// attribute a product span carries, and two metric deltas.
fn record(tracer: &Tracer, sink: &TelemetrySink, topic: &str, i: u64) {
    let mut parent = tracer.span("taureau-cluster", "cluster.pub");
    parent.attr("node", i % 5);
    {
        let mut child = tracer.span("taureau-pulsar", "pulsar.publish");
        child.attr("topic", topic);
        child.attr("bytes", 64usize);
        child.attr("partition", 0u32);
        child.attr("hit", i.is_multiple_of(2));
        child.attr("outcome", "ok");
    }
    parent.attr("outcome", "ok");
    sink.metric("faas.warm_starts", 1);
    sink.metric("faas.invoke_latency_us", i);
}

#[test]
fn a_warm_traced_span_allocates_nothing() {
    let tracer = Tracer::new(WallClock::shared());
    let sink = TelemetrySink::new(4096);
    tracer.set_telemetry(sink.clone());
    let topic = format!("tenant-{}/jobs", 7);
    let mut spans = 0u64;
    let mut run = |from: u64, to: u64| {
        for i in from..to {
            record(&tracer, &sink, &topic, i);
            if i % 256 == 255 {
                sink.drain_with(usize::MAX, |event| {
                    spans += u64::from(matches!(event, TelemetryEvent::Span(_)));
                });
            }
        }
    };
    // Two spans a request: 40 000 requests fill the 65 536-span ring, so
    // it has reached its cap and evicts from here on.
    run(0, 40_000);
    assert!(tracer.dropped_spans() > 0, "the ring is full");
    let before = allocs();
    run(40_000, 45_000);
    assert_eq!(
        allocs() - before,
        0,
        "allocations for 10 000 spans and 10 000 metric deltas"
    );
    assert_eq!((spans, sink.dropped()), (2 * 44_800, 0));
}
