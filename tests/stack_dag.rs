//! Integration: the DAG workflow engine driving the whole stack — FaaS
//! compute, Jiffy spill + checkpoints, Pulsar completion events, the
//! state-machine chain-DAG bridge, and one causally-linked trace across
//! every subsystem.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use taureau::dag::{Dag, DagBuilder, DagError};
use taureau::orchestration::frame;
use taureau::orchestration::statemachine::{State, StateMachine, Transition};
use taureau::prelude::*;
use taureau_faas::FunctionSpec as Spec;

fn stack() -> (FaasPlatform, Jiffy, PulsarCluster) {
    let clock = VirtualClock::shared();
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    let jiffy = Jiffy::new(JiffyConfig::default(), clock.clone());
    let pulsar = PulsarCluster::new(PulsarConfig::default(), clock);
    (platform, jiffy, pulsar)
}

#[test]
fn map_reduce_wordcount_over_the_full_stack() {
    let (platform, jiffy, pulsar) = stack();
    platform
        .register(Spec::new("split", "wc", |ctx| {
            let text = String::from_utf8(ctx.payload.to_vec()).map_err(|e| e.to_string())?;
            let words: Vec<&str> = text.split_whitespace().collect();
            let chunks: Vec<Vec<u8>> = words
                .chunks(words.len().div_ceil(4).max(1))
                .map(|c| c.join(" ").into_bytes())
                .collect();
            Ok(frame::pack(&chunks))
        }))
        .unwrap();
    for i in 0..4usize {
        platform
            .register(Spec::new(format!("count-{i}"), "wc", move |ctx| {
                let chunks = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
                let chunk = chunks.get(i).cloned().unwrap_or_default();
                let n = String::from_utf8(chunk)
                    .map_err(|e| e.to_string())?
                    .split_whitespace()
                    .count() as u32;
                Ok(n.to_le_bytes().to_vec())
            }))
            .unwrap();
    }
    platform
        .register(Spec::new("sum", "wc", |ctx| {
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            let total: u32 = parts
                .iter()
                .map(|p| u32::from_le_bytes(p[..4].try_into().unwrap()))
                .sum();
            Ok(total.to_le_bytes().to_vec())
        }))
        .unwrap();

    pulsar.create_topic("wf-events", 2).unwrap();
    let mut consumer = pulsar
        .subscribe("wf-events", "audit", SubscriptionMode::Exclusive)
        .unwrap();

    let mut b = DagBuilder::new().node("split", "split", &[]);
    let mappers: Vec<String> = (0..4).map(|i| format!("map-{i}")).collect();
    for (i, m) in mappers.iter().enumerate() {
        b = b.node(m.as_str(), format!("count-{i}"), &["split"]);
    }
    let dep_refs: Vec<&str> = mappers.iter().map(String::as_str).collect();
    let dag = b.node("reduce", "sum", &dep_refs).build().unwrap();

    let exec = DagExecutor::new(&platform)
        .with_state(&jiffy)
        .with_events(pulsar.producer("wf-events").unwrap());
    let text = b"the quick brown fox jumps over the lazy dog again and again";
    let report = exec.run(&dag, "wc", text).unwrap();
    assert_eq!(report.output, 12u32.to_le_bytes().to_vec());
    assert_eq!(report.frontiers, 3);
    assert_eq!(report.invocations, 6);
    // Every node announced completion on the bus.
    assert_eq!(consumer.drain().unwrap().len(), 6);
    // Workflow state was ephemeral: the job's namespace is gone.
    assert!(!jiffy.exists("/dag-wc"));
}

#[test]
fn injected_failure_recovers_across_runs_with_identical_output() {
    let (platform, jiffy, _) = stack();
    let fail_once = Arc::new(AtomicU32::new(1));
    let f = fail_once.clone();
    platform
        .register(Spec::new("stamp", "app", |ctx| {
            let mut out = ctx.payload.to_vec();
            out.push(b'#');
            Ok(out)
        }))
        .unwrap();
    platform
        .register(Spec::new("unstable", "app", move |ctx| {
            if f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
            {
                Err("injected".into())
            } else {
                let mut out = ctx.payload.to_vec();
                out.push(b'%');
                Ok(out)
            }
        }))
        .unwrap();
    let dag = Dag::chain(&[("a", "stamp"), ("b", "unstable"), ("c", "stamp")]).unwrap();
    let exec = DagExecutor::new(&platform).with_state(&jiffy);
    let with_failure = exec.run(&dag, "rec", b"x").unwrap();
    assert_eq!(with_failure.retries, 1);
    let clean = exec.run(&dag, "rec2", b"x").unwrap();
    assert_eq!(clean.retries, 0);
    assert_eq!(with_failure.output, clean.output);
    assert_eq!(with_failure.output, b"x#%#");
}

#[test]
fn linear_state_machines_run_unchanged_on_the_dag_executor() {
    let (platform, _, _) = stack();
    platform
        .register(Spec::new("add1", "sm", |ctx| Ok(vec![ctx.payload[0] + 1])))
        .unwrap();
    platform
        .register(Spec::new("times3", "sm", |ctx| {
            Ok(vec![ctx.payload[0] * 3])
        }))
        .unwrap();
    let machine = StateMachine::new("first")
        .state(
            "first",
            State {
                function: "add1".into(),
                next: Transition::Always("second".into()),
            },
        )
        .state(
            "second",
            State {
                function: "times3".into(),
                next: Transition::End,
            },
        );
    // Same workload, two engines, one answer.
    let sm_report = machine.run(&platform, &[4]).unwrap();
    let dag = Dag::from_state_machine(&machine).unwrap();
    let dag_report = DagExecutor::new(&platform).run(&dag, "sm", &[4]).unwrap();
    assert_eq!(sm_report.output, dag_report.output);
    assert_eq!(dag_report.output, vec![15]); // (4+1)*3
    assert_eq!(dag_report.frontiers, 2);

    // Machines with runtime routing stay on the state-machine engine.
    let branching = StateMachine::new("route").state(
        "route",
        State {
            function: "add1".into(),
            next: Transition::branch(|o| o[0] > 1, "first", "second"),
        },
    );
    assert!(matches!(
        Dag::from_state_machine(&branching),
        Err(DagError::NotAChain)
    ));
}

#[test]
fn one_trace_spans_compute_state_and_workflow_layers() {
    let (platform, jiffy, _) = stack();
    let tracer = Tracer::new(platform.clock().clone());
    platform.set_tracer(tracer.clone());
    jiffy.set_tracer(tracer.clone());
    platform
        .register(Spec::new("blow-up", "tr", |ctx| {
            Ok(ctx.payload.repeat(40_000))
        }))
        .unwrap();
    platform
        .register(Spec::new("shrink", "tr", |ctx| {
            Ok(ctx.payload.len().to_le_bytes().to_vec())
        }))
        .unwrap();
    let dag = Dag::chain(&[("grow", "blow-up"), ("fit", "shrink")]).unwrap();
    DagExecutor::new(&platform)
        .with_state(&jiffy)
        .run(&dag, "trace", b"a")
        .unwrap();
    let spans = tracer.spans();
    let root = spans.iter().find(|s| s.name == "dag.run").unwrap();
    // Jiffy's file-append span (the spill) joins the same trace as the
    // workflow and compute spans — one tree across three subsystems.
    for name in [
        "dag.node",
        "dag.checkpoint",
        "faas.invoke",
        "jiffy.file_append",
    ] {
        let span = spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing span {name}"));
        assert_eq!(span.trace_id, root.trace_id, "span {name} left the trace");
    }
}

/// `split → 4 × tag → join` with 40 KB intermediates: spills, checkpoints
/// and events all on. `tag-i` stamps its index on the first byte.
fn fan_dag_stack() -> (FaasPlatform, Jiffy, PulsarCluster, Dag) {
    let (platform, jiffy, pulsar) = stack();
    platform
        .register(Spec::new("widen", "fan", |ctx| {
            Ok(ctx.payload.repeat(40_000 / ctx.payload.len().max(1)))
        }))
        .unwrap();
    let mut b = DagBuilder::new().node("split", "widen", &[]);
    let tags: Vec<String> = (0..4).map(|i| format!("tag-{i}")).collect();
    for (i, tag) in tags.iter().enumerate() {
        platform
            .register(Spec::new(tag.as_str(), "fan", move |ctx| {
                let mut out = ctx.payload.to_vec();
                out[0] = i as u8;
                Ok(out)
            }))
            .unwrap();
        b = b.node(tag.as_str(), tag.as_str(), &["split"]);
    }
    platform
        .register(Spec::new("digest", "fan", |ctx| {
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            Ok(parts.iter().flat_map(|p| [p[0], p[1]]).collect())
        }))
        .unwrap();
    let deps: Vec<&str> = tags.iter().map(String::as_str).collect();
    let dag = b.node("join", "digest", &deps).build().unwrap();
    pulsar.create_topic("fan-events", 1).unwrap();
    (platform, jiffy, pulsar, dag)
}

#[test]
fn four_threads_run_on_clones_of_one_executor_at_once() {
    let (platform, jiffy, pulsar, dag) = fan_dag_stack();
    let exec = DagExecutor::new(&platform)
        .with_state(&jiffy)
        .with_events(pulsar.producer("fan-events").unwrap())
        .with_config(ExecutorConfig {
            max_parallelism: 3,
            ..ExecutorConfig::default()
        });
    const RUNS: usize = 25;
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u8 {
            let (exec, dag, start) = (exec.clone(), &dag, &start);
            s.spawn(move || {
                start.wait();
                for r in 0..RUNS {
                    let input = [b'a' + t, r as u8];
                    let report = exec.run(dag, &format!("t{t}-r{r}"), &input).unwrap();
                    let expected: Vec<u8> = (0..4).flat_map(|i| [i, r as u8]).collect();
                    assert_eq!(report.output, expected);
                    assert_eq!((report.invocations, report.resumed), (6, 0));
                    assert_eq!(report.spilled_bytes, 5 * 40_000);
                }
            });
        }
    });
    assert_eq!(
        exec.metrics().counter("nodes_completed").get(),
        4 * 6 * RUNS as u64
    );
    assert_eq!(exec.metrics().counter("spills").get(), 4 * 5 * RUNS as u64);
    assert_eq!(exec.metrics().counter("event_errors").get(), 0);
    // Every run cleaned up after itself; nothing of any job is left.
    assert_eq!(jiffy.list("/").unwrap(), Vec::<String>::new());
    assert_eq!(jiffy.pool_stats().allocated_blocks, 0);
}

#[test]
fn failed_nodes_siblings_are_checkpointed_and_nothing_deeper_is_invoked() {
    let (platform, jiffy, _) = stack();
    let invoked = Arc::new(std::sync::Mutex::new(Vec::new()));
    let down = Arc::new(AtomicU32::new(1));
    for name in ["root", "bad", "sib1", "sib2", "deep", "deeper"] {
        let (invoked, down) = (invoked.clone(), down.clone());
        platform
            .register(Spec::new(name, "gate", move |ctx| {
                invoked.lock().unwrap().push(name);
                if name == "bad" && down.load(Ordering::SeqCst) == 1 {
                    return Err("injected".into());
                }
                Ok(ctx.payload.to_vec())
            }))
            .unwrap();
    }
    // `deep` hangs off a healthy sibling only: no dependency of its own
    // failed, its *level* is what keeps it from starting.
    let dag = DagBuilder::new()
        .node("root", "root", &[])
        .node("bad", "bad", &["root"])
        .node("sib1", "sib1", &["root"])
        .node("sib2", "sib2", &["root"])
        .node("deep", "deep", &["sib1"])
        .node("deeper", "deeper", &["deep", "bad"])
        .build()
        .unwrap();
    let exec = DagExecutor::new(&platform)
        .with_state(&jiffy)
        .with_config(ExecutorConfig {
            max_parallelism: 1,
            retry: RetryPolicy::none(),
            ..ExecutorConfig::default()
        });
    match exec.run(&dag, "gate", b"x") {
        Err(DagError::NodeFailed { node, .. }) => assert_eq!(node, "bad"),
        other => panic!("expected bad to fail, got {:?}", other.map(|r| r.output)),
    }
    assert_eq!(*invoked.lock().unwrap(), ["root", "bad", "sib1", "sib2"]);

    // The retry of the job finds root and both siblings done.
    down.store(0, Ordering::SeqCst);
    invoked.lock().unwrap().clear();
    let report = exec.run(&dag, "gate", b"x").unwrap();
    assert_eq!(report.resumed, 3);
    assert_eq!(*invoked.lock().unwrap(), ["bad", "deep", "deeper"]);
    let restored: Vec<&str> = report
        .nodes
        .iter()
        .filter(|n| n.from_checkpoint)
        .map(|n| &*n.name)
        .collect();
    assert_eq!(restored, ["root", "sib1", "sib2"]);
}
