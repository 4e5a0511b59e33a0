//! Property-based tests for the DAG validator and scheduler: arbitrary
//! acyclic graphs always validate, schedule without deadlock, and cover
//! every node exactly once; arbitrary cycle injection is always rejected;
//! at any parallelism and from any checkpointed subset a run equals the
//! sequential reference. Plus the scheduler's pinned scenarios: invoke
//! order with one worker, and a handler that runs a DAG of its own.

use std::sync::{Arc, Mutex, OnceLock};

use proptest::collection::vec;
use proptest::prelude::*;

use taureau_core::clock::VirtualClock;
use taureau_core::hash::hash64;
use taureau_dag::{Dag, DagBuilder, DagError, DagExecutor, ExecutorConfig, RetryPolicy};
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_orchestration::frame;

/// Build a DAG over `edges.len()` nodes where node `i` depends on node
/// `j < i` iff `edges[i][j]` is set, and invokes `function(i)`.
/// Forward-only edges make the graph acyclic by construction.
fn build_with(edges: &[Vec<bool>], function: impl Fn(usize) -> String) -> Result<Dag, DagError> {
    let names: Vec<String> = (0..edges.len()).map(|i| format!("n{i}")).collect();
    let mut b = DagBuilder::new();
    for (i, row) in edges.iter().enumerate() {
        let deps: Vec<&str> = row
            .iter()
            .enumerate()
            .filter(|&(j, &on)| j < i && on)
            .map(|(j, _)| names[j].as_str())
            .collect();
        b = b.node(names[i].as_str(), function(i), &deps);
    }
    b.build()
}

/// [`build_with`] every node invoking `echo`.
fn build(edges: &[Vec<bool>]) -> Result<Dag, DagError> {
    build_with(edges, |_| "echo".to_string())
}

/// What node `i` makes of its input: short, and different for every node
/// and every input.
fn node_output(i: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = hash64(i as u64, payload).to_le_bytes().to_vec();
    out.push(i as u8);
    out
}

/// A platform with `f0..f{n}`, `f{i}` computing [`node_output`]`(i, _)`.
fn distinct_platform(n: usize) -> FaasPlatform {
    let p = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
    for i in 0..n {
        p.register(FunctionSpec::new(format!("f{i}"), "t", move |ctx| {
            Ok(node_output(i, &ctx.payload))
        }))
        .unwrap();
    }
    p
}

/// The input the executor hands a node (or, with `deps` the sinks, hands
/// back as the workflow output) given the outputs of `deps`.
fn assemble(deps: &[usize], outputs: &[Vec<u8>], alone: &[u8]) -> Vec<u8> {
    match deps {
        [] => alone.to_vec(),
        [d] => outputs[*d].clone(),
        many => frame::pack(&many.iter().map(|&d| &outputs[d]).collect::<Vec<_>>()),
    }
}

fn echo_platform() -> FaasPlatform {
    let p = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
    p.register(FunctionSpec::new("echo", "t", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .unwrap();
    p
}

proptest! {
    /// Any forward-edge graph validates, and its topological frontiers
    /// cover every node exactly once with every dependency in a strictly
    /// earlier frontier.
    #[test]
    fn random_dags_validate_and_frontier_cover(edges in vec(vec(any::<bool>(), 0..10), 1..10)) {
        let dag = build(&edges).expect("forward-only edges are acyclic");
        let frontiers = dag.frontiers();
        let mut level = vec![None; dag.len()];
        for (l, frontier) in frontiers.iter().enumerate() {
            for &i in frontier {
                prop_assert!(level[i].is_none(), "node scheduled twice");
                level[i] = Some(l);
            }
        }
        for (i, l) in level.iter().enumerate() {
            let l = l.expect("every node is in some frontier");
            for &d in dag.deps_of(i) {
                prop_assert!(level[d].expect("dep scheduled") < l);
            }
        }
        // Critical path length equals the number of frontiers: the deepest
        // chain is exactly what serialises the schedule.
        prop_assert_eq!(dag.critical_path().len(), frontiers.len());
    }

    /// The executor drains any random DAG without deadlock: every node
    /// runs exactly once and the run terminates.
    #[test]
    fn random_dags_never_deadlock(edges in vec(vec(any::<bool>(), 0..8), 1..8)) {
        let dag = build(&edges).expect("forward-only edges are acyclic");
        let platform = echo_platform();
        let exec = DagExecutor::new(&platform).with_config(ExecutorConfig {
            max_parallelism: 4,
            retry: RetryPolicy::none(),
            ..ExecutorConfig::default()
        });
        let report = exec.run(&dag, "prop", b"x").unwrap();
        prop_assert_eq!(report.nodes.len(), dag.len());
        prop_assert_eq!(report.invocations, dag.len() as u32);
        prop_assert!(report.nodes.iter().all(|n| n.attempts == 1));
    }

    /// Closing any forward chain into a ring is always rejected as a
    /// cycle, no matter what extra forward edges ride along.
    #[test]
    fn cycle_injection_is_always_rejected(
        n in 2usize..9,
        extra in vec(vec(any::<bool>(), 0..9), 0..9),
    ) {
        let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let mut b = DagBuilder::new();
        for i in 0..n {
            let mut deps: Vec<&str> = Vec::new();
            if i == 0 {
                deps.push(names[n - 1].as_str()); // the back edge closing the ring
            } else {
                deps.push(names[i - 1].as_str());
            }
            if let Some(row) = extra.get(i) {
                for (j, &on) in row.iter().enumerate() {
                    if on && j < i.saturating_sub(1) {
                        deps.push(names[j].as_str());
                    }
                }
            }
            b = b.node(names[i].as_str(), "echo", &deps);
        }
        match b.build() {
            Err(DagError::Cycle(stuck)) => prop_assert!(!stuck.is_empty()),
            other => prop_assert!(false, "expected cycle rejection, got {:?}", other.map(|d| d.len())),
        }
    }

    /// Any forward-edge DAG, run with 1, 2 or 8 workers from any subset
    /// of nodes already checkpointed (downward closed or not), reports
    /// what running the missing nodes one by one in index order gives.
    #[test]
    fn any_parallelism_from_any_checkpoint_matches_the_sequential_reference(
        edges in vec(vec(any::<bool>(), 0..9), 1..9),
        restored in vec(any::<bool>(), 9),
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let n = edges.len();
        let dag = build_with(&edges, |i| format!("f{i}")).expect("forward-only edges are acyclic");
        let input = b"in";

        // The reference: index order is topological for forward edges.
        let mut outputs: Vec<Vec<u8>> = Vec::new();
        let mut level = vec![0usize; n];
        for i in 0..n {
            let deps = dag.deps_of(i);
            level[i] = deps.iter().map(|&d| level[d] + 1).max().unwrap_or(0);
            outputs.push(if restored[i] {
                vec![0xC0, i as u8] // nothing a function computes
            } else {
                node_output(i, &assemble(deps, &outputs, input))
            });
        }
        let sinks: Vec<usize> = (0..n).filter(|&i| dag.dependents_of(i).is_empty()).collect();
        let expected = assemble(&sinks, &outputs, &[]);

        // The checkpoint an earlier, interrupted run of the job left.
        let platform = distinct_platform(n);
        let jiffy = Jiffy::new(JiffyConfig::default(), platform.clock().clone());
        let ckpt = jiffy.create_kv("/dag-prop/checkpoint", 2).unwrap();
        for i in (0..n).filter(|&i| restored[i]) {
            let mut frame = vec![b'I'];
            frame.extend_from_slice(&outputs[i]);
            ckpt.put(format!("n{i}").as_bytes(), &frame).unwrap();
        }

        let exec = DagExecutor::new(&platform).with_state(&jiffy).with_config(ExecutorConfig {
            max_parallelism: workers,
            retry: RetryPolicy::none(),
            ..ExecutorConfig::default()
        });
        let report = exec.run(&dag, "prop", input).unwrap();
        let missing = restored[..n].iter().filter(|&&r| !r).count();
        prop_assert_eq!(&report.output[..], &expected[..]);
        prop_assert_eq!(report.frontiers, level.iter().max().unwrap() + 1);
        prop_assert_eq!(report.invocations as usize, missing);
        prop_assert_eq!(report.resumed, n - missing);
        prop_assert_eq!(report.nodes.len(), n);
        for (i, node) in report.nodes.iter().enumerate() {
            prop_assert_eq!(node.name.to_string(), format!("n{i}"));
            prop_assert_eq!(node.function.to_string(), format!("f{i}"));
            prop_assert_eq!(node.from_checkpoint, restored[i]);
            prop_assert_eq!(node.attempts, u32::from(!restored[i]));
            prop_assert_eq!(node.output_bytes, outputs[i].len());
        }
        prop_assert!(!jiffy.exists("/dag-prop"));
    }
}

/// One worker starts nodes in (level, declaration) order — the order the
/// frontier loop had — whatever order their dependencies completed in.
/// `early` is ready after `r1` and declared before `r2`, but a level
/// deeper (declaration order alone would run it second); `w` is declared
/// before `x` but becomes ready after it (a queue would run `x` first);
/// `x` readies `late` while nothing else is left (a stack would have run
/// it straight after `x`, and `early` straight after `r1`).
#[test]
fn one_worker_invokes_in_level_then_declaration_order() {
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
    let order = Arc::new(Mutex::new(Vec::new()));
    for name in ["early", "late", "r1", "r2", "w", "x"] {
        let order = order.clone();
        platform
            .register(FunctionSpec::new(name, "t", move |_| {
                order.lock().unwrap().push(name);
                Ok(Vec::new())
            }))
            .unwrap();
    }
    let dag = DagBuilder::new()
        .node("early", "early", &["r1"])
        .node("late", "late", &["x"])
        .node("r1", "r1", &[])
        .node("r2", "r2", &[])
        .node("w", "w", &["r2"])
        .node("x", "x", &["r1"])
        .build()
        .unwrap();
    assert_eq!(dag.frontiers(), [vec![2, 3], vec![0, 4, 5], vec![1]]);
    let exec = DagExecutor::new(&platform).with_config(ExecutorConfig {
        max_parallelism: 1,
        ..ExecutorConfig::default()
    });
    exec.run(&dag, "order", b"").unwrap();
    assert_eq!(
        *order.lock().unwrap(),
        ["r1", "r2", "early", "w", "x", "late"]
    );
}

/// A handler may run a DAG on the executor that is running it: the worker
/// it occupies is the inner run's caller, so the inner run needs nobody
/// else — also when every helper is busy in another such handler.
#[test]
fn handler_running_a_dag_on_its_own_executor_completes() {
    let platform = echo_platform();
    let exec_slot: Arc<OnceLock<DagExecutor>> = Arc::new(OnceLock::new());
    let inner = DagBuilder::new()
        .node("src", "echo", &[])
        .node("a", "echo", &["src"])
        .node("b", "echo", &["src"])
        .node("join", "echo", &["a", "b"])
        .build()
        .unwrap();
    let (slot, dag) = (exec_slot.clone(), inner.clone());
    platform
        .register(FunctionSpec::new("nest", "t", move |ctx| {
            let exec = slot.get().ok_or("executor not published")?;
            let job = format!("inner-{}", String::from_utf8_lossy(&ctx.payload));
            let report = exec.run(&dag, &job, &ctx.payload);
            Ok(report.map_err(|e| e.to_string())?.output.to_vec())
        }))
        .unwrap();
    let exec = DagExecutor::new(&platform).with_config(ExecutorConfig {
        max_parallelism: 2,
        ..ExecutorConfig::default()
    });
    assert!(exec_slot.set(exec.clone()).is_ok());
    let outer = DagBuilder::new()
        .node("src", "echo", &[])
        .node("n1", "nest", &["src"])
        .node("n2", "nest", &["src"])
        .node("n3", "nest", &["src"])
        .build()
        .unwrap();
    let report = exec.run(&outer, "outer", b"x").unwrap();
    let inner_output = frame::pack(&[b"x", b"x"]);
    let sinks = frame::unpack(&report.output).unwrap();
    assert_eq!(
        sinks,
        vec![inner_output.clone(), inner_output.clone(), inner_output]
    );
    assert_eq!(report.invocations, 4);
}
