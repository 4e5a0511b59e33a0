//! What a warm KLL sketch allocates per update: nearly nothing. Capacities
//! are cached per height and a compaction promotes into the next level's
//! buffer and keeps its own, so only a new level (or a level outgrowing
//! its buffer as the capacities above it rise) allocates — 41 705 times
//! per 10⁵ updates when every compaction built a fresh `Vec`.
//! (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taureau_sketches::KllSketch;

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

/// Allocations made by `f` on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warm_sketch_allocates_at_most_8_times_per_100k_updates() {
    const N: u64 = 100_000;
    let mut s = KllSketch::new(200);
    // A latency-like stream: a multiplicative hash spreads it so every
    // compaction sorts a real mix.
    let value = |i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as f64;
    for i in 0..N {
        s.update(value(i));
    }
    let levels = s.levels();
    let n = allocs(|| {
        for i in N..2 * N {
            s.update(value(i));
        }
    });
    println!(
        "{n} allocations for {N} updates ({levels} → {} levels)",
        s.levels()
    );
    assert!(n <= 8, "{n} allocations for {N} warm updates");
}
