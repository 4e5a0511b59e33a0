//! Property-based tests for Jiffy's allocator and data-structure
//! invariants: conservation of blocks, KV map semantics under arbitrary
//! operation sequences, and queue FIFO order.

use proptest::collection::vec;
use proptest::prelude::*;

use taureau_core::bytesize::ByteSize;
use taureau_core::clock::VirtualClock;
use taureau_jiffy::pool::MemoryPool;
use taureau_jiffy::{EventKind, Jiffy, JiffyConfig};

/// An arbitrary KV workload step. Keys come from a small domain so that
/// overwrites, counters under odd-width values and held views collide.
#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, Vec<u8>),
    /// `add_i64`: any delta, so sums wrap.
    Add(u8, i64),
    /// `update` appending a suffix to the old value.
    Append(u8, Vec<u8>),
    Remove(u8),
    Get(u8),
    /// `get`, and keep the view: the stored buffer now has a second owner.
    Hold(u8),
    /// Drop every held view.
    Release,
    Scale(usize),
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    let key = || 0u8..6;
    // 0..12 bytes: 7-, 8- and 9-byte values all land under counter keys.
    let value = || vec(any::<u8>(), 0..12);
    prop_oneof![
        (key(), value()).prop_map(|(k, v)| KvOp::Put(k, v)),
        (key(), any::<i64>()).prop_map(|(k, d)| KvOp::Add(k, d)),
        (key(), Just(i64::MAX)).prop_map(|(k, d)| KvOp::Add(k, d)),
        (key(), value()).prop_map(|(k, v)| KvOp::Append(k, v)),
        key().prop_map(KvOp::Remove),
        key().prop_map(KvOp::Get),
        key().prop_map(KvOp::Hold),
        Just(KvOp::Release),
        (1usize..5).prop_map(KvOp::Scale),
    ]
}

/// A step of the scope-versus-handle comparison.
#[derive(Debug, Clone)]
enum ScopedOp {
    Get(u8),
    /// `get`, and keep the view.
    Hold(u8),
    Release,
    Put(u8, Vec<u8>),
    Add(u8, i64),
    /// `update` appending a suffix to the old value.
    Append(u8, Vec<u8>),
}

fn scoped_op() -> impl Strategy<Value = ScopedOp> {
    let key = || 0u8..4;
    // Counters meet 7-, 8- and 9-byte values; a few hundred bytes over
    // four keys overflow a 1 KiB partition, so some puts auto-scale.
    let value = || {
        prop_oneof![
            vec(any::<u8>(), 7..=9),
            vec(any::<u8>(), 0..4),
            vec(any::<u8>(), 200..400),
        ]
    };
    prop_oneof![
        key().prop_map(ScopedOp::Get),
        key().prop_map(ScopedOp::Hold),
        Just(ScopedOp::Release),
        (key(), value()).prop_map(|(k, v)| ScopedOp::Put(k, v)),
        (key(), any::<i64>()).prop_map(|(k, d)| ScopedOp::Add(k, d)),
        (key(), vec(any::<u8>(), 0..3)).prop_map(|(k, v)| ScopedOp::Append(k, v)),
    ]
}

/// Apply `op` through `$kv` (a handle or a scope: the same four methods)
/// and describe its outcome; views `Hold` takes go to `$held` with the
/// bytes they read.
macro_rules! apply {
    ($kv:expr, $op:expr, $held:expr) => {
        match $op {
            ScopedOp::Get(k) => format!("{:?}", $kv.get(&[*k]).map(|v| v.map(|b| b.to_vec()))),
            ScopedOp::Hold(k) => {
                let got = $kv.get(&[*k]);
                if let Ok(Some(view)) = &got {
                    $held.push((view.clone(), view.to_vec()));
                }
                format!("{:?}", got.map(|v| v.map(|b| b.to_vec())))
            }
            ScopedOp::Release => {
                $held.clear();
                String::new()
            }
            ScopedOp::Put(k, v) => format!("{:?}", $kv.put(&[*k], v)),
            ScopedOp::Add(k, d) => format!("{:?}", $kv.add_i64(&[*k], *d)),
            ScopedOp::Append(k, suffix) => format!(
                "{:?}",
                $kv.update(&[*k], |old| {
                    let mut next = old.map_or(Vec::new(), |o| o.to_vec());
                    next.extend_from_slice(suffix);
                    next.into()
                })
            ),
        }
    };
}

/// One side of the comparison: a deployment with 1 KiB blocks, a KV
/// object on it, and a subscriber counting its `KvPut` events.
fn twin() -> (Jiffy, taureau_jiffy::KvHandle, taureau_jiffy::Subscription) {
    let cfg = JiffyConfig {
        memory_nodes: 2,
        blocks_per_node: 256,
        block_size: ByteSize::kb(1),
        ..JiffyConfig::default()
    };
    let j = Jiffy::new(cfg, VirtualClock::shared());
    let sub = j.subscribe("/twin");
    let kv = j.create_kv("/twin/state", 1).unwrap();
    (j, kv, sub)
}

/// What an observer outside the ops can see of one side.
fn observed(
    j: &Jiffy,
    kv: &taureau_jiffy::KvHandle,
    sub: &taureau_jiffy::Subscription,
) -> (u64, u64, usize, u64, u64, usize) {
    let counter = |name| j.metrics().counter(name).get();
    let puts = sub
        .drain()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::KvPut { .. }))
        .count();
    (
        counter("kv_gets"),
        counter("kv_puts"),
        puts,
        counter("kv_repartitioned_bytes"),
        kv.used_bytes().unwrap(),
        kv.partitions().unwrap(),
    )
}

/// The counter a stored value denotes: little-endian `i64` when it is
/// exactly eight bytes, else 0.
fn counter(v: Option<&Vec<u8>>) -> i64 {
    v.and_then(|v| v[..].try_into().ok())
        .map_or(0, i64::from_le_bytes)
}

proptest! {
    /// Blocks are conserved: whatever is allocated and freed, the pool's
    /// free count plus allocated count equals capacity, and no app ends up
    /// with negative holdings.
    #[test]
    fn pool_conserves_blocks(ops in vec((0u8..4, 1u64..6), 1..60)) {
        let pool = MemoryPool::new(3, 20, ByteSize::kb(4));
        let capacity = pool.stats().capacity_blocks;
        let mut held: Vec<Vec<_>> = vec![Vec::new(); 4];
        for (app, n) in ops {
            let name = format!("app{app}");
            if held[app as usize].len() as u64 >= n && app % 2 == 0 {
                // Free n blocks.
                let blocks: Vec<_> = held[app as usize]
                    .drain(..n as usize)
                    .collect();
                pool.free(&name, &blocks);
            } else if let Ok(blocks) = pool.allocate(&name, n) {
                held[app as usize].extend(blocks);
            }
            let stats = pool.stats();
            let held_total: u64 = held.iter().map(|h| h.len() as u64).sum();
            prop_assert_eq!(stats.allocated_blocks, held_total);
            prop_assert_eq!(stats.allocated_blocks + pool.free_blocks(), capacity);
        }
    }

    /// The Jiffy KV behaves exactly like a HashMap for any op sequence —
    /// whichever writes land in place and whichever in a fresh buffer,
    /// however many partition scalings happen — and a view, once handed
    /// out, reads the same bytes until it is dropped.
    #[test]
    fn kv_matches_model(ops in vec(kv_op(), 1..200)) {
        let j = Jiffy::with_defaults();
        let kv = j.create_kv("/prop/state", 1).unwrap();
        let mut model = std::collections::HashMap::new();
        let mut held = Vec::new();
        for op in ops {
            match op {
                KvOp::Put(k, v) => {
                    kv.put(&[k], &v).unwrap();
                    model.insert(vec![k], v);
                }
                KvOp::Add(k, delta) => {
                    let next = counter(model.get(&vec![k])).wrapping_add(delta);
                    prop_assert_eq!(kv.add_i64(&[k], delta).unwrap(), next);
                    model.insert(vec![k], next.to_le_bytes().to_vec());
                }
                KvOp::Append(k, suffix) => {
                    let v = model.entry(vec![k]).or_default();
                    v.extend_from_slice(&suffix);
                    kv.update(&[k], |old| {
                        let mut next = old.map_or(Vec::new(), |o| o.to_vec());
                        next.extend_from_slice(&suffix);
                        next.into()
                    })
                    .unwrap();
                }
                KvOp::Remove(k) => {
                    let got = kv.remove(&[k]).unwrap();
                    let expect = model.remove(&vec![k]);
                    prop_assert_eq!(got.map(|b| b.to_vec()), expect);
                }
                KvOp::Get(k) => {
                    let got = kv.get(&[k]).unwrap();
                    let expect = model.get(&vec![k]).cloned();
                    prop_assert_eq!(got.map(|b| b.to_vec()), expect);
                }
                KvOp::Hold(k) => {
                    if let Some(view) = kv.get(&[k]).unwrap() {
                        held.push((view, model[&vec![k]].clone()));
                    }
                }
                KvOp::Release => held.clear(),
                KvOp::Scale(target) => {
                    kv.scale_to(target).unwrap();
                }
            }
            for (view, at_read) in &held {
                prop_assert_eq!(&view[..], &at_read[..]);
            }
        }
        for k in 0u8..6 {
            let got = kv.get(&[k]).unwrap();
            prop_assert_eq!(got.map(|b| b.to_vec()), model.get(&vec![k]).cloned());
        }
        prop_assert_eq!(kv.len().unwrap(), model.len());
    }

    /// Ops made through scopes of any length are the ops made through
    /// the handle: same results, stored state, `kv_gets` / `kv_puts`,
    /// `KvPut` events, re-partitioned bytes and footprint, on a twin
    /// deployment driven op for op. A view taken inside a scope keeps its
    /// bytes after the scope's later writes and after the scope is gone.
    #[test]
    fn scoped_ops_equal_handle_ops(
        ops in vec(scoped_op(), 1..120),
        lens in vec(1usize..10, 1..40),
    ) {
        let (sj, skv, ssub) = twin();
        let (hj, hkv, hsub) = twin();
        let (mut sheld, mut hheld) = (Vec::new(), Vec::new());
        let mut lens = lens.into_iter().cycle();
        let mut ops = ops.iter().peekable();
        while ops.peek().is_some() {
            let scope = skv.scope();
            for op in ops.by_ref().take(lens.next().unwrap()) {
                let scoped = apply!(scope, op, sheld);
                let direct = apply!(hkv, op, hheld);
                prop_assert_eq!(scoped, direct, "{:?}", op);
                for (view, at_read) in sheld.iter().chain(&hheld) {
                    prop_assert_eq!(&view[..], &at_read[..]);
                }
            }
            drop(scope);
            prop_assert_eq!(observed(&sj, &skv, &ssub), observed(&hj, &hkv, &hsub));
        }
        for (view, at_read) in &sheld {
            prop_assert_eq!(&view[..], &at_read[..]);
        }
        for k in 0u8..4 {
            prop_assert_eq!(skv.get(&[k]).unwrap(), hkv.get(&[k]).unwrap());
        }
        prop_assert_eq!(skv.len().unwrap(), hkv.len().unwrap());
    }

    /// Queues deliver exactly the pushed payloads in FIFO order.
    #[test]
    fn queue_is_fifo(payloads in vec(vec(any::<u8>(), 0..128), 0..100)) {
        let j = Jiffy::with_defaults();
        let q = j.create_queue("/prop/q").unwrap();
        for p in &payloads {
            q.push(p).unwrap();
        }
        let mut out = Vec::new();
        while let Some(p) = q.pop().unwrap() {
            out.push(p.to_vec());
        }
        prop_assert_eq!(out, payloads);
    }

    /// Scaling a KV to any sequence of partition counts never loses data.
    #[test]
    fn kv_scaling_preserves_contents(
        keys in vec(any::<u16>(), 1..100),
        targets in vec(1usize..12, 1..6),
    ) {
        let j = Jiffy::with_defaults();
        let kv = j.create_kv("/prop/scale", 2).unwrap();
        for &k in &keys {
            kv.put(&k.to_le_bytes(), b"payload").unwrap();
        }
        for t in targets {
            kv.scale_to(t).unwrap();
            for &k in &keys {
                let got = kv.get(&k.to_le_bytes()).unwrap();
                prop_assert_eq!(got.as_deref(), Some(&b"payload"[..]));
            }
        }
    }

    /// Files concatenate appends byte-for-byte.
    #[test]
    fn file_appends_concatenate(chunks in vec(vec(any::<u8>(), 0..512), 0..30)) {
        let j = Jiffy::with_defaults();
        let f = j.create_file("/prop/file").unwrap();
        let mut expect = Vec::new();
        for c in &chunks {
            f.append(c).unwrap();
            expect.extend_from_slice(c);
        }
        prop_assert_eq!(f.contents().unwrap(), expect);
    }
}

/// Where `key`'s stored value lies (the probing view is dropped on return).
fn stored_at(kv: &taureau_jiffy::KvHandle, key: &[u8]) -> *const u8 {
    kv.get(key).unwrap().expect("stored").as_ref().as_ptr()
}

/// A counter nobody is looking at is bumped where it lies; one a reader
/// holds a view of gets a fresh buffer, and the reader keeps its bytes.
#[test]
fn writes_go_in_place_only_while_no_view_is_held() {
    let j = Jiffy::with_defaults();
    let kv = j.create_kv("/inplace/state", 1).unwrap();
    kv.put(b"n", &5i64.to_le_bytes()).unwrap();

    let view = kv.get(b"n").unwrap().unwrap();
    assert_eq!(kv.add_i64(b"n", 1).unwrap(), 6);
    assert_eq!(view, 5i64.to_le_bytes());
    let fresh = stored_at(&kv, b"n");
    assert_ne!(fresh, view.as_ref().as_ptr(), "wrote under a held view");
    drop(view);
    assert_eq!(kv.add_i64(b"n", 1).unwrap(), 7);
    assert_eq!(stored_at(&kv, b"n"), fresh, "sole-owner add reallocated");

    // `put` of a same-length value follows the same rule.
    let view = kv.get(b"n").unwrap().unwrap();
    kv.put(b"n", &[9u8; 8]).unwrap();
    assert_eq!(view, 7i64.to_le_bytes());
    let fresh = stored_at(&kv, b"n");
    assert_ne!(fresh, view.as_ref().as_ptr(), "wrote under a held view");
    drop(view);
    kv.put(b"n", &[3u8; 8]).unwrap();
    assert_eq!(stored_at(&kv, b"n"), fresh, "sole-owner put reallocated");
    assert_eq!(kv.get(b"n").unwrap().unwrap(), [3u8; 8]);
}
