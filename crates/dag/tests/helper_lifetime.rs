//! The executor's helper threads are started by the first fan-out, kept
//! between runs, shared by clones, and gone — joined, not detached — when
//! the last clone drops: the process thread count is back where it
//! started. (Its own file, with one test: the count is the process's.)

#![cfg(target_os = "linux")]

use taureau_core::clock::VirtualClock;
use taureau_dag::{DagBuilder, DagExecutor, ExecutorConfig};
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    let count = line.and_then(|l| l.split_whitespace().nth(1));
    count.and_then(|n| n.parse().ok()).expect("Threads: line")
}

#[test]
fn thread_count_returns_to_where_it_started() {
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
    platform
        .register(FunctionSpec::new("echo", "t", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
    let mut wide = DagBuilder::new().node("src", "echo", &[]);
    for i in 0..12 {
        wide = wide.node(format!("w{i}"), "echo", &["src"]);
    }
    let wide = wide.build().unwrap();

    let before = process_threads();
    let sequential = DagExecutor::new(&platform).with_config(ExecutorConfig {
        max_parallelism: 1,
        ..ExecutorConfig::default()
    });
    sequential.run(&wide, "seq", b"x").unwrap();
    assert_eq!(process_threads(), before, "one worker needs no helper");

    let exec = DagExecutor::new(&platform).with_config(ExecutorConfig {
        max_parallelism: 4,
        ..ExecutorConfig::default()
    });
    assert_eq!(
        process_threads(),
        before,
        "no helper before the first fan-out"
    );
    exec.run(&wide, "t0", b"x").unwrap();
    let started = process_threads() - before;
    assert!(
        (1..=3).contains(&started),
        "{started} helpers beside the caller"
    );

    // Helpers are kept, not respawned: more runs, also through a clone,
    // never take the count past `max_parallelism - 1`.
    let clone = exec.clone();
    for i in 0..50 {
        clone.run(&wide, &format!("t{i}"), b"x").unwrap();
    }
    assert!(process_threads() - before <= 3);

    drop(exec);
    assert!(
        process_threads() > before,
        "a clone keeps the helpers alive"
    );
    drop(clone);
    assert_eq!(process_threads(), before);
}
