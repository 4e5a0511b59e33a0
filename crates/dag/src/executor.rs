//! The DAG executor: dependency-counted scheduling of FaaS invocations
//! with retry, size-based data passing through Jiffy, Pulsar completion
//! events, and checkpointed resume.
//!
//! A run counts every node's unfinished dependencies down and starts a
//! node the moment its count reaches zero; ready nodes are taken in
//! (level, declaration index) order, so one worker walks the graph
//! [frontier](crate::graph::Dag::frontiers) by frontier. The thread that
//! calls [`DagExecutor::run`] is always a worker: it runs ready nodes
//! until the run is complete and only ever *waits* when none is ready, so
//! a chain never leaves it. A node that makes several others ready keeps
//! one for its own worker and hands the rest to the caller, if it is
//! waiting, and to the executor's helper threads — up to
//! [`ExecutorConfig::max_parallelism`] workers on one run, sharing the
//! platform's container pool. Helpers are started on first need, parked
//! between runs, shared by the executor's clones and joined when the last
//! clone drops.
//!
//! A node's input is assembled from its dependencies' outputs — the
//! workflow input for roots, the single parent's output verbatim, or a
//! [`frame`](taureau_orchestration::frame)-packed list for fan-in nodes
//! (parents in declared dependency order).
//!
//! Fault tolerance is layered per the Zhang et al. design the issue cites:
//! *within* a run, transient invocation failures retry with exponential
//! backoff ([`RetryPolicy`]); *across* runs, every completed node is
//! checkpointed to a Jiffy KV under `/dag-<job>/checkpoint`, so re-running
//! the same job after a crash skips every node already done. Once a node
//! has failed, no node of a deeper level is started; nodes of its own or a
//! shallower level still run and checkpoint, and the run reports the
//! failed node that comes first in (level, declaration) order.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bytes::{BufMut, Bytes};
use taureau_core::cost::Dollars;
use taureau_core::metrics::{Counter, MetricsRegistry};
use taureau_core::trace::{SpanContext, SpanGuard};
use taureau_core::wire::Reader;
use taureau_faas::{FaasError, FaasPlatform};
use taureau_jiffy::{FileHandle, JPath, Jiffy, JiffyError, KvHandle};
use taureau_orchestration::frame;
use taureau_pulsar::Producer;

use crate::error::DagError;
use crate::graph::Dag;
use crate::policy::{DataPassing, ExecutorConfig, RetryPolicy};

/// Subsystem label stamped on every span this crate emits.
const TRACE_SYSTEM: &str = "taureau-dag";

/// Checkpoint value tag: payload bytes follow inline.
const CKPT_INLINE: u8 = b'I';
/// Checkpoint value tag: a Jiffy file path (UTF-8) follows.
const CKPT_FILE: u8 = b'F';
/// Ctx-carrying variants: a 16-byte [`SpanContext`] (the `dag.node` span
/// that produced the value) sits between the tag and the classic body, so
/// a later run restoring the checkpoint can link back into the original
/// trace. Untraced runs keep emitting the classic tags bit-identically.
const CKPT_INLINE_CTX: u8 = b'i';
/// Ctx-carrying spilled-file variant; see [`CKPT_INLINE_CTX`].
const CKPT_FILE_CTX: u8 = b'f';

/// What a worker hands back for one node.
type NodeResult = Result<(Stored, NodeOutcome), DagError>;

/// Where a completed node's output lives.
#[derive(Clone)]
enum Stored {
    /// In executor memory (refcounted; cloning a fetch is a pointer bump).
    Inline(Bytes),
    /// Spilled to a Jiffy file.
    Spilled {
        /// The file the bytes were written through; consumers read
        /// through it too, without resolving its path again.
        file: FileHandle,
        /// Output size in bytes.
        len: u64,
    },
}

impl Stored {
    fn len(&self) -> usize {
        match self {
            Stored::Inline(b) => b.len(),
            Stored::Spilled { len, .. } => *len as usize,
        }
    }

    /// Materialise the output. Inline outputs come back as a refcount
    /// bump on the handler's buffer; spilled outputs come back as whatever
    /// the Jiffy file rope yields (zero-copy when the spill was a single
    /// append, which it always is on this path).
    fn fetch(&self) -> Result<Bytes, DagError> {
        match self {
            Stored::Inline(b) => Ok(b.clone()),
            Stored::Spilled { file, .. } => Ok(file.contents()?),
        }
    }
}

/// Outcome of one node within a [`WorkflowReport`].
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Node name (shared with the [`Dag`]).
    pub name: Arc<str>,
    /// Function the node invoked (shared with the [`Dag`]).
    pub function: Arc<str>,
    /// Invocation attempts this run (0 when restored from a checkpoint).
    pub attempts: u32,
    /// Execution time of the successful attempt.
    pub exec: Duration,
    /// Dollars billed for every attempt this run, failed ones included.
    pub(crate) cost: Dollars,
    /// Output size in bytes.
    pub output_bytes: usize,
    /// Whether the output was spilled to Jiffy.
    pub spilled: bool,
    /// Whether the node was skipped because a checkpoint already had it.
    pub from_checkpoint: bool,
}

/// What a workflow run produced and how it ran.
#[derive(Debug, Clone)]
pub struct WorkflowReport {
    /// Workflow output: the sole sink's output verbatim, or a
    /// [`frame`]-packed list of every sink's output (in node order) when
    /// the DAG has several sinks.
    ///
    /// Refcounted: for a single-sink DAG with an inline output this is the
    /// very allocation the sink's handler returned — no copy on the way out.
    pub output: Bytes,
    /// Per-node outcomes, in node-declaration order.
    pub nodes: Vec<NodeOutcome>,
    /// Clock time from run start to workflow output.
    pub makespan: Duration,
    /// Number of topological frontiers of the DAG (its depth).
    pub frontiers: usize,
    /// Invocation attempts across all nodes this run (retries included,
    /// checkpointed nodes excluded).
    pub invocations: u32,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// Nodes restored from the checkpoint instead of re-invoked.
    pub resumed: usize,
    /// Bytes of intermediate data spilled to Jiffy this run.
    pub spilled_bytes: u64,
}

impl WorkflowReport {
    /// Sum of billed dollars across executed nodes.
    pub fn total_cost(&self) -> Dollars {
        self.nodes.iter().map(|n| n.cost).sum()
    }

    /// Sum of execution time across executed nodes — what a purely
    /// sequential run would pay on the clock (compute only).
    pub fn total_exec(&self) -> Duration {
        self.nodes.iter().map(|n| n.exec).sum()
    }
}

/// The executor's counters, resolved from the registry once.
#[derive(Clone)]
struct HotCounters {
    nodes_completed: Arc<Counter>,
    retries: Arc<Counter>,
    checkpoint_hits: Arc<Counter>,
    spills: Arc<Counter>,
    event_errors: Arc<Counter>,
}

/// What a run needs of its executor. Behind an `Arc`: helper threads
/// reach it through the run they work on.
#[derive(Clone)]
struct Core {
    platform: FaasPlatform,
    state: Option<Jiffy>,
    events: Option<Producer>,
    cfg: ExecutorConfig,
    metrics: MetricsRegistry,
    hot: HotCounters,
}

/// Executes [`Dag`]s against a FaaS platform. Construction is cheap; one
/// executor can run many workflows, also from several threads at once.
/// Clones share the helper threads.
#[derive(Clone)]
pub struct DagExecutor {
    core: Arc<Core>,
    helpers: Arc<Helpers>,
}

impl DagExecutor {
    /// An executor over `platform` with default [`ExecutorConfig`], no
    /// state store, and no event topic.
    pub fn new(platform: &FaasPlatform) -> Self {
        let metrics = MetricsRegistry::new();
        Self {
            core: Arc::new(Core {
                platform: platform.clone(),
                state: None,
                events: None,
                cfg: ExecutorConfig::default(),
                hot: HotCounters {
                    nodes_completed: metrics.counter("nodes_completed"),
                    retries: metrics.counter("retries"),
                    checkpoint_hits: metrics.counter("checkpoint_hits"),
                    spills: metrics.counter("spills"),
                    event_errors: metrics.counter("event_errors"),
                },
                metrics,
            }),
            helpers: Arc::new(Helpers::default()),
        }
    }

    /// Attach a Jiffy deployment for intermediate-data spill and
    /// checkpointing. Without one, all data passes inline and checkpoints
    /// are disabled regardless of [`ExecutorConfig::checkpoint`].
    pub fn with_state(mut self, jiffy: &Jiffy) -> Self {
        Arc::make_mut(&mut self.core).state = Some(jiffy.clone());
        self
    }

    /// Publish a completion event per node to this Pulsar producer. Events
    /// are keyed by node name with payload `<job>:<node>:<attempts>`, so
    /// per-node ordering is preserved across runs.
    pub fn with_events(mut self, producer: Producer) -> Self {
        Arc::make_mut(&mut self.core).events = Some(producer);
        self
    }

    /// Override the execution policy.
    pub fn with_config(mut self, cfg: ExecutorConfig) -> Self {
        assert!(cfg.max_parallelism >= 1);
        assert!(cfg.retry.max_attempts >= 1);
        Arc::make_mut(&mut self.core).cfg = cfg;
        self
    }

    /// Executor metrics: `nodes_completed`, `retries`, `checkpoint_hits`,
    /// `spills`, `event_errors`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// Run `dag` as job `job` with `input` fed to every root node.
    ///
    /// `job` identifies the workflow instance for checkpointing: re-running
    /// a failed job with the same id skips the nodes it had completed; a
    /// successful run clears the job's namespace, so the next run with
    /// that id starts fresh.
    pub fn run(&self, dag: &Dag, job: &str, input: &[u8]) -> Result<WorkflowReport, DagError> {
        let core = &self.core;
        let tracer = core.platform.tracer();
        let clock = core.platform.clock().clone();
        let started = clock.now();
        let mut root_span = tracer.span(TRACE_SYSTEM, "dag.run");
        root_span.attr("job", job);
        root_span.attr("nodes", dag.len());

        let n = dag.len();
        let namespace = format!("/dag-{job}");
        let outputs: Vec<OnceLock<Stored>> = (0..n).map(|_| OnceLock::new()).collect();
        let mut outcomes: Vec<Option<NodeOutcome>> = vec![None; n];

        // Create (or, for a job that ran before, open) the checkpoint and
        // restore completed nodes. A checkpoint made here has nothing to
        // restore.
        let ckpt = match &core.state {
            Some(store) if core.cfg.checkpoint => {
                let path = JPath::parse(&format!("{namespace}/checkpoint"));
                Some(match store.create_kv(path.clone(), 2) {
                    Ok(kv) => (kv, true),
                    Err(JiffyError::AlreadyExists(_)) => (store.open_kv(path)?, false),
                    Err(e) => return Err(e.into()),
                })
            }
            _ => None,
        };
        let mut resumed = 0usize;
        if let (Some((ckpt, false)), Some(store)) = (&ckpt, &core.state) {
            for i in 0..n {
                let (name, function) = dag.labels(i);
                let Ok(Some(value)) = ckpt.get(name.as_bytes()) else {
                    continue;
                };
                let Some((stored, origin)) =
                    decode_checkpoint(&value, |path| store.open_file(path).ok())
                else {
                    continue;
                };
                core.hot.checkpoint_hits.inc();
                // Restoring under a tracer links this run back into the
                // trace of the run that produced the checkpoint: the
                // `dag.restore` span is a child of the original `dag.node`
                // span recovered from the frame header.
                if origin.is_some() {
                    let mut restore = tracer.span_child_of(TRACE_SYSTEM, "dag.restore", origin);
                    restore.attr("node", &**name);
                    restore.attr("job", job);
                    restore.attr("bytes", stored.len());
                }
                outcomes[i] = Some(NodeOutcome {
                    name: name.clone(),
                    function: function.clone(),
                    attempts: 0,
                    exec: Duration::ZERO,
                    cost: 0.0,
                    output_bytes: stored.len(),
                    spilled: matches!(stored, Stored::Spilled { .. }),
                    from_checkpoint: true,
                });
                let _ = outputs[i].set(stored);
                resumed += 1;
            }
        }
        root_span.attr("resumed", resumed);

        let run = Arc::new(Run {
            sched: Mutex::new(Sched::new(dag, &outputs, outcomes)),
            caller_wake: Condvar::new(),
            core: Arc::clone(core),
            dag: dag.clone(),
            namespace,
            // One copy at the workflow boundary; every root shares it.
            input: Bytes::copy_from_slice(input),
            root_ctx: root_span.context(),
            ckpt: ckpt.map(|(kv, _)| kv),
            outputs,
            invocations: AtomicU32::new(0),
            retries: AtomicU32::new(0),
            spilled_bytes: AtomicU64::new(0),
        });
        run.work(&self.helpers.pool, true);

        let (failed, panic, outcomes) = {
            let mut sched = run.lock();
            let outcomes = std::mem::take(&mut sched.outcomes);
            (sched.failed.take(), sched.panic.take(), outcomes)
        };
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }

        // Assemble the workflow output from the sinks.
        let output_of = |i: usize| run.outputs[i].get().expect("sink completed").fetch();
        let output = match dag.sinks() {
            [sink] => output_of(*sink)?,
            sinks => {
                let mut items = Vec::with_capacity(sinks.len());
                for &s in sinks {
                    items.push(output_of(s)?);
                }
                Bytes::from(frame::pack(&items))
            }
        };

        // The job finished: its ephemeral state (checkpoint + spilled
        // intermediates) has served its purpose.
        if let Some(store) = &core.state {
            let _ = store.remove_namespace(run.namespace.as_str());
        }

        root_span.attr("output_bytes", output.len());
        Ok(WorkflowReport {
            output,
            nodes: outcomes
                .into_iter()
                .map(|o| o.expect("every node completed"))
                .collect(),
            makespan: clock.now().saturating_sub(started),
            frontiers: dag.frontiers().len(),
            invocations: run.invocations.load(Ordering::Relaxed),
            retries: run.retries.load(Ordering::Relaxed),
            resumed,
            spilled_bytes: run.spilled_bytes.load(Ordering::Relaxed),
        })
    }
}

/// A run's scheduling state, under [`Run::sched`].
struct Sched {
    /// Per node: dependencies not yet completed.
    remaining: Vec<u32>,
    /// Nodes whose dependencies are all complete and that no worker has
    /// taken yet, smallest (level, declaration index) first.
    ready: BinaryHeap<Reverse<(usize, usize)>>,
    /// Nodes being run right now.
    running: usize,
    /// Workers on this run, the caller included.
    workers: usize,
    /// The caller found nothing ready and sleeps on [`Run::caller_wake`].
    caller_waiting: bool,
    /// Per-node outcomes, written once each, in declaration order.
    outcomes: Vec<Option<NodeOutcome>>,
    /// The failure that is first in (level, declaration index) order.
    failed: Option<((usize, usize), DagError)>,
    /// A worker's panic, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl Sched {
    /// The state at the start of a run: nodes with an output already
    /// (restored from the checkpoint) count as complete.
    fn new(dag: &Dag, outputs: &[OnceLock<Stored>], outcomes: Vec<Option<NodeOutcome>>) -> Self {
        let done = |i: usize| outputs[i].get().is_some();
        let remaining: Vec<u32> = (0..dag.len())
            .map(|i| dag.deps_of(i).iter().filter(|&&d| !done(d)).count() as u32)
            .collect();
        let mut ready = BinaryHeap::with_capacity(dag.len());
        ready.extend(
            (0..dag.len())
                .filter(|&i| remaining[i] == 0 && !done(i))
                .map(|i| Reverse((dag.level_of(i), i))),
        );
        Self {
            remaining,
            ready,
            running: 0,
            workers: 1,
            caller_waiting: false,
            outcomes,
            failed: None,
            panic: None,
        }
    }

    /// Take the next node to start, if one may start: after a failure at
    /// level `L` nothing deeper than `L` does, after a panic nothing.
    fn take_ready(&mut self) -> Option<usize> {
        let &Reverse((level, i)) = self.ready.peek()?;
        let halted = self.panic.is_some()
            || matches!(&self.failed, Some(((failed_level, _), _)) if level > *failed_level);
        if halted {
            // Everything else that is ready is at least as deep.
            self.ready.clear();
            return None;
        }
        self.ready.pop();
        Some(i)
    }

    /// Record node `i`'s result; returns how many nodes it made ready.
    fn complete(&mut self, run: &Run, i: usize, result: NodeResult) -> usize {
        let dag = &run.dag;
        let (stored, outcome) = match result {
            Ok(done) => done,
            Err(e) => {
                let at = (dag.level_of(i), i);
                if self.failed.as_ref().is_none_or(|(first, _)| at < *first) {
                    self.failed = Some((at, e));
                }
                return 0;
            }
        };
        self.outcomes[i] = Some(outcome);
        if run.outputs[i].set(stored).is_err() {
            unreachable!("a node runs once");
        }
        let mut newly = 0;
        for &j in dag.dependents_of(i) {
            self.remaining[j] -= 1;
            if self.remaining[j] == 0 && run.outputs[j].get().is_none() {
                self.ready.push(Reverse((dag.level_of(j), j)));
                newly += 1;
            }
        }
        newly
    }
}

/// One `DagExecutor::run` in flight, shared by the workers on it.
struct Run {
    core: Arc<Core>,
    dag: Dag,
    /// `/dag-<job>`: the job's Jiffy namespace.
    namespace: String,
    input: Bytes,
    root_ctx: Option<SpanContext>,
    ckpt: Option<KvHandle>,
    /// Per-node outputs, written once each (by the restore, or by the
    /// worker that ran the node before it counts the dependents down).
    outputs: Vec<OnceLock<Stored>>,
    sched: Mutex<Sched>,
    /// Where the caller sleeps while nothing is ready.
    caller_wake: Condvar,
    invocations: AtomicU32,
    retries: AtomicU32,
    spilled_bytes: AtomicU64,
}

impl Run {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        // A worker's panic is caught around the node, outside this lock.
        self.sched.lock().expect("no panic under the run lock")
    }

    /// Work on this run: start ready nodes, one after another, in (level,
    /// declaration) order. The caller stays until the run is over and
    /// sleeps while nothing is ready; a helper joins if the run has room
    /// for another worker and leaves as soon as nothing is ready.
    fn work(self: &Arc<Self>, pool: &Arc<Pool>, caller: bool) {
        let max_workers = self.core.cfg.max_parallelism;
        let mut sched = self.lock();
        if !caller {
            if sched.workers >= max_workers {
                return;
            }
            sched.workers += 1;
        }
        // Ready nodes nobody has been told of: at first, all there are.
        let mut fresh = if caller { sched.ready.len() } else { 0 };
        loop {
            let Some(i) = sched.take_ready() else {
                // Nothing to start. With nothing running either, the run
                // is over; otherwise a helper leaves and the caller waits
                // for what the running nodes make ready.
                if !caller || sched.running == 0 {
                    break;
                }
                sched.caller_waiting = true;
                sched = self
                    .caller_wake
                    .wait(sched)
                    .expect("no panic under the run lock");
                sched.caller_waiting = false;
                continue;
            };
            // This worker keeps one of the fresh nodes. A sleeping caller
            // is the cheapest taker of the next; helpers are asked for the
            // rest, as far as the run has room for them.
            let mut spare = fresh.saturating_sub(1);
            let wake_caller = spare > 0 && std::mem::take(&mut sched.caller_waiting);
            spare -= usize::from(wake_caller);
            let invite = spare.min(max_workers - sched.workers);
            sched.running += 1;
            drop(sched);
            if wake_caller {
                self.caller_wake.notify_one();
            }
            if invite > 0 {
                pool.invite(self, invite);
            }
            let result = catch_unwind(AssertUnwindSafe(|| self.run_node(i)));
            sched = self.lock();
            sched.running -= 1;
            fresh = match result {
                Ok(result) => sched.complete(self, i, result),
                Err(payload) => {
                    // Nothing more starts; the caller re-raises it.
                    sched.panic.get_or_insert(payload);
                    0
                }
            };
        }
        if !caller {
            sched.workers -= 1;
            // The last node of the run may have ended on this helper.
            let over = sched.running == 0 && std::mem::take(&mut sched.caller_waiting);
            drop(sched);
            if over {
                self.caller_wake.notify_one();
            }
        }
    }

    /// Run one node to completion on the calling worker thread.
    fn run_node(&self, i: usize) -> NodeResult {
        let core = &*self.core;
        let tracer = core.platform.tracer();
        let (name, function) = self.dag.labels(i);
        let mut span = tracer.span_child_of(TRACE_SYSTEM, "dag.node", self.root_ctx);
        span.attr("node", &**name);
        span.attr("function", &**function);

        // Assemble the input: workflow input for roots, the sole parent's
        // output verbatim (a refcount bump, not a copy), or a framed list
        // for fan-in — `frame::pack` is the one copy point on this path.
        let output_of = |d: usize| self.outputs[d].get().expect("dependency completed").fetch();
        let payload: Bytes = match self.dag.deps_of(i) {
            [] => self.input.clone(),
            [d] => output_of(*d)?,
            many => {
                let mut items = Vec::with_capacity(many.len());
                for &d in many {
                    items.push(output_of(d)?);
                }
                Bytes::from(frame::pack(&items))
            }
        };

        let (r, attempts, failed_cost) = match self.invoke_with_backoff(function, &payload, &span) {
            Ok(ok) => ok,
            Err((attempts, source)) => {
                span.attr("failed_after", attempts);
                return Err(DagError::NodeFailed {
                    node: name.to_string(),
                    attempts,
                    source,
                });
            }
        };
        span.attr("attempts", attempts);

        // Store the output: spill to Jiffy past the inline threshold, and
        // checkpoint so a re-run of this job skips the node.
        let spill_to = core.state.as_ref().filter(|_| {
            matches!(core.cfg.data_passing,
                DataPassing::SizeBased { inline_max } if r.output.len() > inline_max)
        });
        let stored = if let Some(store) = spill_to {
            let mut spill_span = tracer.span_child_of(TRACE_SYSTEM, "dag.spill", span.context());
            spill_span.attr("node", &**name);
            spill_span.attr("bytes", r.output.len());
            let mut path = String::with_capacity(self.namespace.len() + 14 + name.len());
            path.push_str(&self.namespace);
            path.push_str("/intermediate/");
            path.push_str(name);
            let path = JPath::parse(&path);
            // Create-or-replace: a file an earlier attempt of this job
            // left behind (the node ran, its checkpoint did not land) must
            // not be appended to.
            let file = match store.create_file(path.clone()) {
                Err(JiffyError::AlreadyExists(_)) => {
                    store.remove_namespace(path.clone())?;
                    store.create_file(path)?
                }
                created => created?,
            };
            file.append_bytes(r.output.clone())?;
            self.spilled_bytes
                .fetch_add(r.output.len() as u64, Ordering::Relaxed);
            core.hot.spills.inc();
            Stored::Spilled {
                file,
                len: r.output.len() as u64,
            }
        } else {
            Stored::Inline(r.output.clone())
        };
        if let Some(ckpt) = &self.ckpt {
            let mut ckpt_span =
                tracer.span_child_of(TRACE_SYSTEM, "dag.checkpoint", span.context());
            ckpt_span.attr("node", &**name);
            ckpt_span.attr("bytes", stored.len());
            let frame = encode_checkpoint(&stored, span.context());
            ckpt.put_bytes(name.as_bytes(), Bytes::from(frame))?;
        }

        // Completion event — observability, not correctness: failures are
        // counted but never fail the node.
        if let Some(events) = &core.events {
            let job = &self.namespace["/dag-".len()..];
            let mut payload = String::with_capacity(job.len() + name.len() + 12);
            let _ = write!(payload, "{job}:{name}:{attempts}");
            if events
                .send_keyed(name.as_bytes(), payload.as_bytes())
                .is_err()
            {
                core.hot.event_errors.inc();
            }
        }

        core.hot.nodes_completed.inc();
        if let Some(sink) = tracer.telemetry() {
            sink.metric("dag.nodes_completed", 1);
        }
        let outcome = NodeOutcome {
            name: name.clone(),
            function: function.clone(),
            attempts,
            exec: r.exec_duration,
            cost: failed_cost + r.cost,
            output_bytes: r.output.len(),
            spilled: spill_to.is_some(),
            from_checkpoint: false,
        };
        Ok((stored, outcome))
    }

    /// Invoke with per-attempt backoff, recording a `dag.retry` span per
    /// failed transient attempt. Returns the successful result, the
    /// attempts used and what the failed ones were billed, or the final
    /// error and the attempts wasted.
    fn invoke_with_backoff(
        &self,
        function: &str,
        payload: &Bytes,
        node_span: &SpanGuard,
    ) -> Result<(taureau_faas::InvocationResult, u32, Dollars), (u32, FaasError)> {
        let core = &*self.core;
        let retry: RetryPolicy = core.cfg.retry;
        let tracer = core.platform.tracer();
        let mut failed_cost = 0.0;
        for attempt in 1..=retry.max_attempts {
            self.invocations.fetch_add(1, Ordering::Relaxed);
            match core.platform.invoke(function, payload.clone()) {
                Ok(r) => return Ok((r, attempt, failed_cost)),
                Err(e @ (FaasError::ExecutionFailed { .. } | FaasError::Timeout { .. }))
                    if attempt < retry.max_attempts =>
                {
                    failed_cost += e.billed().unwrap_or_default();
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    core.hot.retries.inc();
                    if let Some(sink) = tracer.telemetry() {
                        sink.metric("dag.retries", 1);
                    }
                    let backoff = retry.backoff(attempt);
                    let mut retry_span =
                        tracer.span_child_of(TRACE_SYSTEM, "dag.retry", node_span.context());
                    retry_span.attr("function", function);
                    retry_span.attr("attempt", attempt);
                    retry_span.attr("backoff_us", backoff.as_micros() as u64);
                    retry_span.attr("error", format_args!("{e}"));
                    core.platform.clock().sleep(backoff);
                }
                Err(e) => return Err((attempt, e)),
            }
        }
        unreachable!("loop returns on the final attempt")
    }
}

/// The executor's helper threads: started on first need, parked on a
/// condition variable between nodes, joined when the last executor clone
/// drops this.
#[derive(Default)]
struct Helpers {
    pool: Arc<Pool>,
}

/// What the helper threads themselves hold of [`Helpers`].
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    /// Where idle helpers sleep.
    wake: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// One entry per helper a run has asked for.
    invites: VecDeque<Arc<Run>>,
    /// Helpers asleep on [`Pool::wake`].
    idle: usize,
    threads: Vec<JoinHandle<()>>,
    shutdown: bool,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("no panic under the pool lock")
    }

    /// Ask for `n` helpers on `run`, starting threads if fewer than that
    /// are idle — never more in all than the run may have beside its
    /// caller. An invitation is a hint: a helper that finds the run
    /// finished, full or with nothing ready just drops it.
    fn invite(self: &Arc<Self>, run: &Arc<Run>, n: usize) {
        let most = run.core.cfg.max_parallelism - 1;
        let mut state = self.lock();
        state.invites.extend((0..n).map(|_| Arc::clone(run)));
        let mut takers = state.idle;
        while takers < state.invites.len() && state.threads.len() < most {
            let pool = Arc::clone(self);
            let spawned = thread::Builder::new()
                .name("dag-helper".into())
                .spawn(move || pool.help());
            // Out of threads: the invitations wait for the helpers there
            // are, and the run's caller works on regardless.
            let Ok(handle) = spawned else { break };
            state.threads.push(handle);
            takers += 1;
        }
        drop(state);
        for _ in 0..n {
            self.wake.notify_one();
        }
    }

    /// A helper thread's life: take an invitation, work on that run while
    /// it has ready nodes, sleep when there is none.
    fn help(self: Arc<Self>) {
        let mut state = self.lock();
        while !state.shutdown {
            if let Some(run) = state.invites.pop_front() {
                drop(state);
                run.work(&self, false);
                drop(run);
                state = self.lock();
            } else {
                state.idle += 1;
                state = self.wake.wait(state).expect("no panic under the pool lock");
                state.idle -= 1;
            }
        }
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        let threads = {
            // Runs borrow their executor, so none is in flight; what is
            // left in the queue are stale invitations.
            let Ok(mut state) = self.pool.state.lock() else {
                return;
            };
            state.shutdown = true;
            state.invites.clear();
            std::mem::take(&mut state.threads)
        };
        self.pool.wake.notify_all();
        for handle in threads {
            // The last clone can die on a helper (a handler owned it): that
            // thread ends by itself once it returns to `help`.
            if handle.thread().id() != thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// Encode a [`Stored`] output as a checkpoint KV value. A producing span
/// context rides in the frame header (between tag and body); `None`
/// produces the classic tags, bit-identical to pre-context checkpoints.
fn encode_checkpoint(stored: &Stored, ctx: Option<SpanContext>) -> Vec<u8> {
    let (plain_tag, ctx_tag) = match stored {
        Stored::Inline(_) => (CKPT_INLINE, CKPT_INLINE_CTX),
        Stored::Spilled { .. } => (CKPT_FILE, CKPT_FILE_CTX),
    };
    // Reserve what is written: a spilled record is a length and a path,
    // however large the output it points at.
    let header = 1 + ctx.map_or(0, |_| SpanContext::WIRE_LEN);
    let body = match stored {
        Stored::Inline(b) => b.len(),
        Stored::Spilled { file, .. } => 8 + file.path().as_str().len(),
    };
    let mut v = Vec::with_capacity(header + body);
    match ctx {
        Some(ctx) => {
            v.put_u8(ctx_tag);
            v.put_slice(&ctx.to_bytes());
        }
        None => v.put_u8(plain_tag),
    }
    match stored {
        Stored::Inline(b) => v.put_slice(b),
        Stored::Spilled { file, len } => {
            v.put_u64_le(*len);
            v.put_slice(file.path().as_str().as_bytes());
        }
    }
    v
}

/// Decode a checkpoint KV value into the stored output and the context of
/// the span that produced it (absent for classic frames). A spilled
/// record's file is opened with `open`, once, here. `None` if the frame is
/// malformed or the file is gone — the node then runs again.
fn decode_checkpoint(
    value: &[u8],
    open: impl FnOnce(&str) -> Option<FileHandle>,
) -> Option<(Stored, Option<SpanContext>)> {
    let mut r = Reader::new(value);
    let tag = r.u8()?;
    let ctx = match tag {
        CKPT_INLINE_CTX | CKPT_FILE_CTX => {
            Some(SpanContext::from_bytes(r.bytes(SpanContext::WIRE_LEN)?)?)
        }
        _ => None,
    };
    let stored = match tag {
        CKPT_INLINE | CKPT_INLINE_CTX => {
            Stored::Inline(Bytes::copy_from_slice(r.bytes(r.remaining())?))
        }
        CKPT_FILE | CKPT_FILE_CTX => Stored::Spilled {
            len: r.u64()?,
            file: open(std::str::from_utf8(r.bytes(r.remaining())?).ok()?)?,
        },
        _ => return None,
    };
    Some((stored, ctx))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    use proptest::collection::vec;
    use proptest::prelude::*;
    use taureau_core::clock::VirtualClock;
    use taureau_core::trace::Tracer;
    use taureau_faas::{FunctionSpec, PlatformConfig};
    use taureau_jiffy::JiffyConfig;
    use taureau_pulsar::{PulsarCluster, PulsarConfig, SubscriptionMode};

    use super::*;
    use crate::graph::DagBuilder;

    fn platform() -> FaasPlatform {
        let p = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
        p.register(FunctionSpec::new("echo", "t", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        p.register(FunctionSpec::new("exclaim", "t", |ctx| {
            let mut out = ctx.payload.to_vec();
            out.push(b'!');
            Ok(out)
        }))
        .unwrap();
        p.register(FunctionSpec::new("concat", "t", |ctx| {
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            Ok(parts.concat())
        }))
        .unwrap();
        p
    }

    fn diamond() -> Dag {
        DagBuilder::new()
            .node("src", "echo", &[])
            .node("left", "exclaim", &["src"])
            .node("right", "exclaim", &["src"])
            .node("join", "concat", &["left", "right"])
            .build()
            .unwrap()
    }

    #[test]
    fn diamond_runs_and_frames_fan_in() {
        let p = platform();
        let report = DagExecutor::new(&p).run(&diamond(), "d1", b"in").unwrap();
        assert_eq!(report.output, b"in!in!");
        assert_eq!(report.frontiers, 3);
        assert_eq!(report.invocations, 4);
        assert_eq!(report.retries, 0);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.nodes.len(), 4);
        assert!(report.nodes.iter().all(|n| n.attempts == 1 && !n.spilled));
        assert!(report.total_cost() > 0.0);
    }

    #[test]
    fn multi_sink_output_is_framed() {
        let p = platform();
        let dag = DagBuilder::new()
            .node("src", "echo", &[])
            .node("a", "exclaim", &["src"])
            .node("b", "echo", &["src"])
            .build()
            .unwrap();
        let report = DagExecutor::new(&p).run(&dag, "d2", b"x").unwrap();
        let sinks = frame::unpack(&report.output).unwrap();
        assert_eq!(sinks, vec![b"x!".to_vec(), b"x".to_vec()]);
    }

    #[test]
    fn transient_failures_retry_with_backoff() {
        let p = platform();
        let failures = Arc::new(AtomicU32::new(2));
        let f = failures.clone();
        p.register(FunctionSpec::new("flaky", "t", move |ctx| {
            if f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
            {
                Err("transient".into())
            } else {
                Ok(ctx.payload.to_vec())
            }
        }))
        .unwrap();
        let dag = Dag::chain(&[("a", "echo"), ("b", "flaky")]).unwrap();
        let exec = DagExecutor::new(&p);
        let before = p.billing().total("t");
        let report = exec.run(&dag, "r1", b"ok").unwrap();
        assert_eq!(report.output, b"ok");
        assert_eq!(report.retries, 2);
        assert_eq!(report.invocations, 4); // 1 for a, 3 for b
        assert_eq!(report.nodes[1].attempts, 3);
        assert_eq!(exec.metrics().counter("retries").get(), 2);
        // The failed attempts were billed, and the report counts them.
        let billed = p.billing().total("t") - before;
        assert!((billed - report.total_cost()).abs() < 1e-15);
        assert_eq!(p.billing().invocations("t"), 4);
    }

    #[test]
    fn retry_budget_exhaustion_names_the_node() {
        let p = platform();
        p.register(FunctionSpec::new("doomed", "t", |_| Err("always".into())))
            .unwrap();
        let dag = Dag::chain(&[("a", "echo"), ("b", "doomed"), ("c", "echo")]).unwrap();
        let err = DagExecutor::new(&p)
            .with_config(ExecutorConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
                ..ExecutorConfig::default()
            })
            .run(&dag, "r2", b"x")
            .unwrap_err();
        match err {
            DagError::NodeFailed {
                node,
                attempts,
                source,
            } => {
                assert_eq!(node, "b");
                assert_eq!(attempts, 2);
                assert!(matches!(source, FaasError::ExecutionFailed { .. }));
            }
            other => panic!("expected NodeFailed, got {other:?}"),
        }
    }

    #[test]
    fn crashed_run_resumes_from_checkpoint() {
        let p = platform();
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock().clone());
        let broken = Arc::new(AtomicU32::new(1));
        let b = broken.clone();
        p.register(FunctionSpec::new("fragile", "t", move |ctx| {
            if b.load(Ordering::SeqCst) == 1 {
                Err("crashed".into())
            } else {
                let mut out = ctx.payload.to_vec();
                out.push(b'*');
                Ok(out)
            }
        }))
        .unwrap();
        let dag = DagBuilder::new()
            .node("src", "echo", &[])
            .node("left", "exclaim", &["src"])
            .node("right", "exclaim", &["src"])
            .node("join", "concat", &["left", "right"])
            .node("sink", "fragile", &["join"])
            .build()
            .unwrap();
        let exec = DagExecutor::new(&p)
            .with_state(&jiffy)
            .with_config(ExecutorConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
                ..ExecutorConfig::default()
            });
        // Run 1 "crashes" at the sink; the first four nodes are
        // checkpointed.
        assert!(matches!(
            exec.run(&dag, "ck", b"in"),
            Err(DagError::NodeFailed { ref node, .. }) if node == "sink"
        ));
        // Run 2 (the operator fixed the bug) resumes: only the sink runs.
        broken.store(0, Ordering::SeqCst);
        let report = exec.run(&dag, "ck", b"in").unwrap();
        assert_eq!(report.output, b"in!in!*");
        assert_eq!(report.resumed, 4);
        assert_eq!(report.invocations, 1);
        assert!(report.nodes[0].from_checkpoint);
        assert_eq!(report.nodes[0].attempts, 0);
        assert!(!report.nodes[4].from_checkpoint);
        assert_eq!(exec.metrics().counter("checkpoint_hits").get(), 4);
        // Success cleared the job's namespace: a third run starts fresh.
        let report = exec.run(&dag, "ck", b"in").unwrap();
        assert_eq!(report.resumed, 0);
        assert_eq!(report.invocations, 5);
    }

    #[test]
    fn checkpoint_frame_codec_roundtrips_span_context() {
        use taureau_core::trace::{SpanId, TraceId};
        let ctx = SpanContext {
            trace_id: TraceId(11),
            span_id: SpanId(22),
        };
        let jiffy = Jiffy::new(JiffyConfig::default(), VirtualClock::shared());
        let open = |path: &str| jiffy.open_file(path).ok();
        let inline = Stored::Inline(Bytes::from_static(b"out"));
        let spilled = Stored::Spilled {
            file: jiffy.create_file("/dag-j/intermediate/n").unwrap(),
            len: 7,
        };
        // The wire format of a spilled record: tag, length, path text.
        let mut wire = vec![CKPT_FILE];
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.extend_from_slice(b"/dag-j/intermediate/n");
        assert_eq!(encode_checkpoint(&spilled, None), wire);
        for stored in [&inline, &spilled] {
            // Untraced: classic tag, and the frame decodes with no origin.
            let classic = encode_checkpoint(stored, None);
            assert!(classic[0] == CKPT_INLINE || classic[0] == CKPT_FILE);
            let (got, origin) = decode_checkpoint(&classic, open).unwrap();
            assert_eq!(origin, None);
            assert_eq!(got.len(), stored.len());
            // Traced: ctx rides in the header, body unchanged after it.
            let traced = encode_checkpoint(stored, Some(ctx));
            assert!(traced[0] == CKPT_INLINE_CTX || traced[0] == CKPT_FILE_CTX);
            assert_eq!(&traced[1 + SpanContext::WIRE_LEN..], &classic[1..]);
            let (got, origin) = decode_checkpoint(&traced, open).unwrap();
            assert_eq!(origin, Some(ctx));
            assert_eq!(got.len(), stored.len());
        }
        // Malformed frames are rejected, not misread; so is a record whose
        // file is gone.
        assert!(decode_checkpoint(b"", open).is_none());
        assert!(decode_checkpoint(&[CKPT_INLINE_CTX, 1, 2], open).is_none());
        assert!(decode_checkpoint(&[b'?', 0], open).is_none());
        jiffy.remove_namespace("/dag-j").unwrap();
        assert!(decode_checkpoint(&wire, open).is_none());
    }

    #[test]
    fn checkpoint_frame_reserves_what_it_writes() {
        use taureau_core::trace::{SpanId, TraceId};
        let ctx = SpanContext {
            trace_id: TraceId(1),
            span_id: SpanId(2),
        };
        // A spilled record must not size itself by the output it points at.
        let jiffy = Jiffy::new(JiffyConfig::default(), VirtualClock::shared());
        let spilled = Stored::Spilled {
            file: jiffy.create_file("/dag-j/intermediate/map-3").unwrap(),
            len: 64 * 1024,
        };
        let inline = Stored::Inline(Bytes::from(vec![7u8; 300]));
        for stored in [&spilled, &inline] {
            for ctx in [None, Some(ctx)] {
                let frame = encode_checkpoint(stored, ctx);
                assert_eq!(frame.capacity(), frame.len());
            }
        }
        assert!(encode_checkpoint(&spilled, Some(ctx)).capacity() < 64);
    }

    #[test]
    fn restore_links_back_into_the_producing_trace() {
        let p = platform();
        let tracer = Tracer::new(p.clock().clone());
        p.set_tracer(tracer.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock().clone());
        let broken = Arc::new(AtomicU32::new(1));
        let b = broken.clone();
        p.register(FunctionSpec::new("fragile", "t", move |ctx| {
            if b.load(Ordering::SeqCst) == 1 {
                Err("crashed".into())
            } else {
                Ok(ctx.payload.to_vec())
            }
        }))
        .unwrap();
        let dag = Dag::chain(&[("a", "echo"), ("sink", "fragile")]).unwrap();
        let exec = DagExecutor::new(&p)
            .with_state(&jiffy)
            .with_config(ExecutorConfig {
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..ExecutorConfig::default()
            });
        assert!(exec.run(&dag, "tr", b"x").is_err());
        // The first run's dag.node span for "a" produced the checkpoint.
        let producer = tracer
            .spans()
            .into_iter()
            .find(|s| s.name == "dag.node" && s.attr("node") == Some(&"a".into()))
            .unwrap();
        broken.store(0, Ordering::SeqCst);
        let report = exec.run(&dag, "tr", b"x").unwrap();
        assert_eq!(report.resumed, 1);
        // The second run's restore span is a child of that span: one causal
        // chain across two executor runs.
        let restore = tracer
            .spans()
            .into_iter()
            .find(|s| s.name == "dag.restore")
            .unwrap();
        assert_eq!(restore.trace_id, producer.trace_id);
        assert_eq!(restore.parent, Some(producer.span_id));
    }

    #[test]
    fn large_outputs_spill_to_jiffy_and_round_trip() {
        let p = platform();
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock().clone());
        register_inflate_and_measure(&p);
        let dag = Dag::chain(&[("big", "inflate"), ("len", "measure")]).unwrap();
        let exec = DagExecutor::new(&p).with_state(&jiffy);
        let report = exec.run(&dag, "sp", b"ab").unwrap();
        assert_eq!(report.output, 100_000usize.to_le_bytes().to_vec());
        assert_eq!(report.spilled_bytes, 100_000);
        assert!(report.nodes[0].spilled);
        assert!(!report.nodes[1].spilled);
        assert_eq!(exec.metrics().counter("spills").get(), 1);
    }

    /// A 100 KB producer and a consumer that reports how many bytes it
    /// was handed.
    fn register_inflate_and_measure(p: &FaasPlatform) {
        p.register(FunctionSpec::new("inflate", "t", |ctx| {
            // Larger than the 32 KB inline threshold and the 64 KB block.
            Ok(ctx.payload.repeat(50_000))
        }))
        .unwrap();
        p.register(FunctionSpec::new("measure", "t", |ctx| {
            Ok(ctx.payload.len().to_le_bytes().to_vec())
        }))
        .unwrap();
    }

    #[test]
    fn reexecuted_node_replaces_its_spill() {
        // Checkpoints off: the second run of the job runs `big` again, and
        // must not append to the file its first attempt left behind.
        let p = platform();
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock().clone());
        register_inflate_and_measure(&p);
        let down = Arc::new(AtomicU32::new(1));
        let d = down.clone();
        p.register(FunctionSpec::new("fragile-measure", "t", move |ctx| {
            if d.load(Ordering::SeqCst) == 1 {
                return Err("crashed".into());
            }
            Ok(ctx.payload.len().to_le_bytes().to_vec())
        }))
        .unwrap();
        let dag = Dag::chain(&[("big", "inflate"), ("len", "fragile-measure")]).unwrap();
        let exec = DagExecutor::new(&p)
            .with_state(&jiffy)
            .with_config(ExecutorConfig {
                retry: RetryPolicy::none(),
                checkpoint: false,
                ..ExecutorConfig::default()
            });
        assert!(exec.run(&dag, "re", b"ab").is_err());
        assert!(jiffy.exists("/dag-re/intermediate/big"));
        down.store(0, Ordering::SeqCst);
        let report = exec.run(&dag, "re", b"ab").unwrap();
        assert_eq!(report.resumed, 0);
        assert_eq!(report.output, 100_000usize.to_le_bytes().to_vec());
    }

    #[test]
    fn spill_left_by_a_crash_before_the_checkpoint_is_replaced() {
        // A crash between the append and the checkpoint `put` leaves the
        // file but no record of the node: the re-run spills over it.
        let p = platform();
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock().clone());
        register_inflate_and_measure(&p);
        let stale = jiffy.create_file("/dag-sp/intermediate/big").unwrap();
        stale.append(&vec![0u8; 100_000]).unwrap();
        let dag = Dag::chain(&[("big", "inflate"), ("len", "measure")]).unwrap();
        let exec = DagExecutor::new(&p).with_state(&jiffy);
        let report = exec.run(&dag, "sp", b"ab").unwrap();
        assert_eq!(report.output, 100_000usize.to_le_bytes().to_vec());
        assert_eq!(report.spilled_bytes, 100_000);
    }

    #[test]
    fn completion_events_reach_pulsar() {
        let p = platform();
        let pulsar = PulsarCluster::new(PulsarConfig::default(), p.clock().clone());
        pulsar.create_topic("dag-events", 2).unwrap();
        let mut consumer = pulsar
            .subscribe("dag-events", "watcher", SubscriptionMode::Exclusive)
            .unwrap();
        let exec = DagExecutor::new(&p).with_events(pulsar.producer("dag-events").unwrap());
        exec.run(&diamond(), "ev", b"x").unwrap();
        // Consume as whole-entry views: the events topic is the
        // decode-amortized path's natural shape (small messages, batched
        // publish), and acking views folds the cursor entry-at-a-time.
        let mut seen: Vec<String> = Vec::new();
        loop {
            let views = consumer.receive_entries(64).unwrap();
            if views.is_empty() {
                break;
            }
            for view in &views {
                for mv in view.messages() {
                    seen.push(String::from_utf8(mv.payload().to_vec()).unwrap());
                }
            }
            consumer.ack_entries(&views).unwrap();
        }
        assert_eq!(seen.len(), 4);
        seen.sort();
        assert_eq!(
            seen,
            vec!["ev:join:1", "ev:left:1", "ev:right:1", "ev:src:1"]
        );
        assert_eq!(exec.metrics().counter("event_errors").get(), 0);
    }

    #[test]
    fn run_emits_one_causally_linked_span_tree() {
        let p = platform();
        let tracer = Tracer::new(p.clock().clone());
        p.set_tracer(tracer.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock().clone());
        let exec = DagExecutor::new(&p).with_state(&jiffy);
        exec.run(&diamond(), "tr", b"x").unwrap();
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "dag.run").unwrap();
        let nodes: Vec<_> = spans.iter().filter(|s| s.name == "dag.node").collect();
        assert_eq!(nodes.len(), 4);
        for node in &nodes {
            assert_eq!(node.trace_id, root.trace_id);
            assert_eq!(node.parent, Some(root.span_id));
        }
        let checkpoints: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "dag.checkpoint")
            .collect();
        assert_eq!(checkpoints.len(), 4);
        for ck in &checkpoints {
            assert_eq!(ck.trace_id, root.trace_id);
            assert!(nodes.iter().any(|n| ck.parent == Some(n.span_id)));
        }
        // The platform's own invocation spans join the same tree, nested
        // under the worker's dag.node span.
        let invokes: Vec<_> = spans.iter().filter(|s| s.name == "faas.invoke").collect();
        assert_eq!(invokes.len(), 4);
        for inv in &invokes {
            assert_eq!(inv.trace_id, root.trace_id);
            assert!(nodes.iter().any(|n| inv.parent == Some(n.span_id)));
        }
    }

    #[test]
    fn sequential_config_still_completes() {
        let p = platform();
        let report = DagExecutor::new(&p)
            .with_config(ExecutorConfig {
                max_parallelism: 1,
                ..ExecutorConfig::default()
            })
            .run(&diamond(), "seq", b"in")
            .unwrap();
        assert_eq!(report.output, b"in!in!");
    }

    proptest! {
        /// Arbitrary bytes — raw, and frames of every tag cut short and
        /// with a byte flipped — never panic the frame read up to its
        /// file open. An untouched frame reads back as written; an
        /// accepted one accounts for every byte of the value: tag, context
        /// if its tag carries one, then the body to the end.
        #[test]
        fn hostile_checkpoint_frames_read_inside_the_value(
            raw in vec(any::<u8>(), 0..48),
            tag in 0usize..4,
            body in vec(any::<u8>(), 0..12),
            len in any::<u64>(),
            formed in any::<bool>(),
            cut in 0usize..64,
            flip in (0usize..64, any::<u8>()),
        ) {
            let tag = [CKPT_INLINE, CKPT_FILE, CKPT_INLINE_CTX, CKPT_FILE_CTX][tag];
            let ctx = SpanContext::from_bytes(&[7; SpanContext::WIRE_LEN]);
            let ctx = ctx.filter(|_| tag == CKPT_INLINE_CTX || tag == CKPT_FILE_CTX);
            let path: String = body.iter().map(|&b| char::from(b'a' + b % 26)).collect();
            let mut frame = vec![tag];
            frame.extend(ctx.map(|c| c.to_bytes()).into_iter().flatten());
            let inline = tag == CKPT_INLINE || tag == CKPT_INLINE_CTX;
            if inline {
                frame.extend_from_slice(&body);
            } else {
                frame.extend_from_slice(&len.to_le_bytes());
                frame.extend_from_slice(path.as_bytes());
            }
            // Read up to the file open: `open` sees the path, and answers
            // that no such file exists.
            let read = |bytes: &[u8]| {
                let mut opened = None;
                let decoded = decode_checkpoint(bytes, |p| {
                    opened = Some(p.to_string());
                    None
                });
                (decoded.map(|(stored, ctx)| (stored.len(), ctx)), opened)
            };
            let want = if inline { (Some((body.len(), ctx)), None) } else { (None, Some(path)) };
            prop_assert_eq!(read(&frame), want);
            let mut bytes = if formed { frame } else { raw };
            bytes.truncate(cut);
            if let Some(b) = bytes.get_mut(flip.0) {
                *b ^= flip.1;
            }
            let header = match bytes.first() {
                Some(&CKPT_INLINE_CTX | &CKPT_FILE_CTX) => 1 + SpanContext::WIRE_LEN,
                _ => 1,
            };
            match read(&bytes) {
                (Some((inline_len, _)), None) => prop_assert_eq!(header + inline_len, bytes.len()),
                (None, Some(path)) => prop_assert_eq!(header + 8 + path.len(), bytes.len()),
                (None, None) => {}
                other => prop_assert!(false, "decoded and opened: {other:?}"),
            }
        }
    }
}
