//! One warm `DagExecutor::run` of `prep → 8 × map → gather` with 64 KiB
//! intermediates spilled through Jiffy, checkpoints on and completion
//! events to Pulsar stays inside its allocation budget: no per-segment
//! path strings, no by-name metric lookups, no open-before-create, no
//! per-run level derivation. Handlers' own buffers are part of the count.
//! (Its own file: the counting allocator is global.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use taureau_core::clock::WallClock;
use taureau_core::latency::LatencyModel;
use taureau_dag::{DagBuilder, DagExecutor, ExecutorConfig};
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_orchestration::frame;
use taureau_pulsar::{PulsarCluster, PulsarConfig};

/// Allocation calls made by any thread (helpers included) while `ON`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ON: AtomicBool = AtomicBool::new(false);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are plain
// atomics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const MAPS: usize = 8;
const INTERMEDIATE: usize = 64 * 1024;
const RUNS: u64 = 32;
/// 585 before the scheduler kept its helpers, its handles and its levels.
const BUDGET: u64 = 350;

#[test]
fn warm_spilling_run_stays_inside_its_allocation_budget() {
    let cfg = PlatformConfig {
        cold_start: LatencyModel::zero(),
        warm_start: LatencyModel::zero(),
        ..PlatformConfig::default()
    };
    let faas = FaasPlatform::new(cfg, WallClock::shared());
    let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
    let pulsar = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
    pulsar.create_topic("dag-events", 1).unwrap();

    faas.register(FunctionSpec::new("prep", "t", |ctx| {
        Ok((0..INTERMEDIATE)
            .map(|i| ctx.payload[i % ctx.payload.len()] ^ (i as u8))
            .collect())
    }))
    .unwrap();
    let mut builder = DagBuilder::new().node("prep", "prep", &[]);
    let names: Vec<String> = (0..MAPS).map(|k| format!("map{k}")).collect();
    for (k, name) in names.iter().enumerate() {
        faas.register(FunctionSpec::new(name.as_str(), "t", move |ctx| {
            Ok(ctx
                .payload
                .iter()
                .map(|b| b.wrapping_mul(31).wrapping_add(k as u8))
                .collect())
        }))
        .unwrap();
        builder = builder.node(name.as_str(), name.as_str(), &["prep"]);
    }
    faas.register(FunctionSpec::new("gather", "t", |ctx| {
        let parts = frame::unpack_bytes(&ctx.payload).ok_or("bad frame")?;
        let sum: u64 = parts.iter().map(|p| p.len() as u64).sum();
        Ok(sum.to_le_bytes().to_vec())
    }))
    .unwrap();
    let deps: Vec<&str> = names.iter().map(String::as_str).collect();
    let dag = builder.node("gather", "gather", &deps).build().unwrap();

    let exec = DagExecutor::new(&faas)
        .with_state(&jiffy)
        .with_events(pulsar.producer("dag-events").unwrap())
        .with_config(ExecutorConfig {
            max_parallelism: 2,
            ..ExecutorConfig::default()
        });
    let input = vec![7u8; 1024];
    let expected = ((MAPS * INTERMEDIATE) as u64).to_le_bytes();

    // Cold starts, lazy metric names, helper start-up, thread-locals.
    for i in 0..8 {
        exec.run(&dag, &format!("warm{i}"), &input).unwrap();
    }
    let jobs: Vec<String> = (0..RUNS).map(|i| format!("job{i}")).collect();
    ON.store(true, Ordering::SeqCst);
    for job in &jobs {
        let report = exec.run(&dag, job, &input).unwrap();
        assert_eq!(report.output[..], expected[..]);
        assert_eq!(report.spilled_bytes, (9 * INTERMEDIATE) as u64);
    }
    ON.store(false, Ordering::SeqCst);
    let per_run = ALLOCS.load(Ordering::SeqCst) / RUNS;
    assert!(
        per_run <= BUDGET,
        "{per_run} allocations per warm run (budget {BUDGET})"
    );
}
