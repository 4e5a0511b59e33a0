//! What a warm Jiffy read allocates: nothing. A bound `KvHandle::get`
//! locks its object and clones a refcount to the stored value; a
//! `FileHandle::read` inside one appended chunk is a slice of it.
//! (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use taureau_core::clock::WallClock;
use taureau_jiffy::{Jiffy, JiffyConfig};

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

const OPS: u64 = 50_000;
const KEYS: u64 = 256;

fn jiffy() -> Jiffy {
    Jiffy::new(
        JiffyConfig {
            blocks_per_node: 4096,
            ..JiffyConfig::default()
        },
        WallClock::shared(),
    )
}

/// Allocations made by `f` on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations made by `OPS` warm gets over a `KEYS`-key KV, after one
/// pass over every key.
fn warm_get_allocs(partitions: usize) -> u64 {
    let j = jiffy();
    let kv = j.create_kv("/app/kv", partitions).unwrap();
    for k in 0..KEYS {
        kv.put(&k.to_le_bytes(), &[7u8; 256]).unwrap();
    }
    let gets = |n: u64| {
        for i in 0..n {
            let v = kv.get(&(i % KEYS).to_le_bytes()).unwrap().unwrap();
            black_box(&v);
        }
    };
    gets(KEYS);
    allocs(|| gets(OPS))
}

#[test]
fn warm_kv_get_does_not_allocate_at_2_partitions() {
    assert_eq!(warm_get_allocs(2), 0);
}

#[test]
fn warm_kv_get_does_not_allocate_at_4_partitions() {
    assert_eq!(warm_get_allocs(4), 0);
}

#[test]
fn file_read_inside_one_chunk_does_not_allocate() {
    let j = jiffy();
    let file = j.create_file("/app/file").unwrap();
    file.append(&[7u8; 64 * 1024]).unwrap();
    let reads = |n: u64| {
        for i in 0..n {
            let v = file.read((i % 60) * 1024, 4096).unwrap();
            assert_eq!(v.len(), 4096);
            black_box(&v);
        }
    };
    reads(60);
    assert_eq!(allocs(|| reads(OPS)), 0);
}
