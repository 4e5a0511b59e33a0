//! A warm, untraced `invoke` of a registered function allocates nothing
//! inside the platform: no name is re-built, no spec cloned, no metric
//! looked up by string. (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taureau_core::clock::WallClock;
use taureau_core::latency::LatencyModel;
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig, StartKind};

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

#[test]
fn warm_untraced_invoke_does_not_allocate() {
    let cfg = PlatformConfig {
        cold_start: LatencyModel::zero(),
        warm_start: LatencyModel::zero(),
        ..PlatformConfig::default()
    };
    let p = FaasPlatform::new(cfg, WallClock::shared());
    p.register(FunctionSpec::new("f", "t", |_| Ok(Vec::new())))
        .unwrap();
    let payload = bytes::Bytes::from(vec![7u8; 64]);
    // Cold start, first touch of every metric, thread-local set-up.
    p.invoke("f", payload.clone()).unwrap();
    p.invoke("f", payload.clone()).unwrap();

    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        let r = p.invoke("f", payload.clone()).unwrap();
        assert_eq!(r.start, StartKind::Warm);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
}
