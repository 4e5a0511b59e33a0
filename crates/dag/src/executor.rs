//! The DAG executor: frontier-parallel scheduling of FaaS invocations with
//! retry, size-based data passing through Jiffy, Pulsar completion events,
//! and checkpointed resume.
//!
//! Execution proceeds frontier by frontier (see
//! [`Dag::frontiers`](crate::graph::Dag::frontiers)): every node in a
//! frontier is independent, so the executor fans them out across up to
//! [`ExecutorConfig::max_parallelism`] worker threads sharing the
//! platform's container pool. A node's input is assembled from its
//! dependencies' outputs — the workflow input for roots, the single
//! parent's output verbatim, or a
//! [`frame`](taureau_orchestration::frame)-packed list for fan-in nodes
//! (parents in declared dependency order).
//!
//! Fault tolerance is layered per the Zhang et al. design the issue cites:
//! *within* a run, transient invocation failures retry with exponential
//! backoff ([`RetryPolicy`]); *across* runs, every completed node is
//! checkpointed to a Jiffy KV under `/dag-<job>/checkpoint`, so re-running
//! the same job after a crash skips every node already done and resumes
//! from the last completed frontier.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use taureau_core::cost::Dollars;
use taureau_core::metrics::MetricsRegistry;
use taureau_core::trace::{SpanContext, SpanGuard};
use taureau_faas::{FaasError, FaasPlatform};
use taureau_jiffy::Jiffy;
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

/// What a worker thread hands back for one node.
type NodeResult = Result<(Stored, NodeOutcome), DagError>;

/// Where a completed node's output lives.
#[derive(Debug, Clone)]
enum Stored {
    /// In executor memory (refcounted; cloning a fetch is a pointer bump).
    Inline(Bytes),
    /// Spilled to a Jiffy file.
    Spilled {
        /// Jiffy file path holding the bytes.
        path: String,
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
}

/// Outcome of one node within a [`WorkflowReport`].
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Node name.
    pub name: String,
    /// Function the node invoked.
    pub function: String,
    /// Invocation attempts this run (0 when restored from a checkpoint).
    pub attempts: u32,
    /// Execution time of the successful attempt.
    pub exec: Duration,
    /// Dollars billed for the successful attempt.
    pub cost: Dollars,
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
    /// Number of topological frontiers executed.
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

/// Executes [`Dag`]s against a FaaS platform. Construction is cheap; one
/// executor can run many workflows.
#[derive(Clone)]
pub struct DagExecutor {
    platform: FaasPlatform,
    state: Option<Jiffy>,
    events: Option<Producer>,
    cfg: ExecutorConfig,
    metrics: MetricsRegistry,
}

impl DagExecutor {
    /// An executor over `platform` with default [`ExecutorConfig`], no
    /// state store, and no event topic.
    pub fn new(platform: &FaasPlatform) -> Self {
        Self {
            platform: platform.clone(),
            state: None,
            events: None,
            cfg: ExecutorConfig::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Attach a Jiffy deployment for intermediate-data spill and
    /// checkpointing. Without one, all data passes inline and checkpoints
    /// are disabled regardless of [`ExecutorConfig::checkpoint`].
    pub fn with_state(mut self, jiffy: &Jiffy) -> Self {
        self.state = Some(jiffy.clone());
        self
    }

    /// Publish a completion event per node to this Pulsar producer. Events
    /// are keyed by node name with payload `<job>:<node>:<attempts>`, so
    /// per-node ordering is preserved across runs.
    pub fn with_events(mut self, producer: Producer) -> Self {
        self.events = Some(producer);
        self
    }

    /// Override the execution policy.
    pub fn with_config(mut self, cfg: ExecutorConfig) -> Self {
        assert!(cfg.max_parallelism >= 1);
        assert!(cfg.retry.max_attempts >= 1);
        self.cfg = cfg;
        self
    }

    /// Executor metrics: `nodes_completed`, `retries`, `checkpoint_hits`,
    /// `spills`, `event_errors`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The executor's policy.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// Run `dag` as job `job` with `input` fed to every root node.
    ///
    /// `job` identifies the workflow instance for checkpointing: re-running
    /// a failed job with the same id resumes from its last completed
    /// frontier; a successful run clears the job's namespace, so the next
    /// run with that id starts fresh.
    pub fn run(&self, dag: &Dag, job: &str, input: &[u8]) -> Result<WorkflowReport, DagError> {
        // One copy at the workflow boundary; every root thereafter shares it.
        let input = Bytes::copy_from_slice(input);
        let tracer = self.platform.tracer();
        let clock = self.platform.clock().clone();
        let started = clock.now();
        let mut root_span = tracer.span(TRACE_SYSTEM, "dag.run");
        root_span.attr("job", job);
        root_span.attr("nodes", dag.len());
        let root_ctx = root_span.context();

        let n = dag.len();
        let mut outputs: Vec<Option<Stored>> = vec![None; n];
        let mut outcomes: Vec<Option<NodeOutcome>> = vec![None; n];

        // Open (or create) the checkpoint and restore completed nodes.
        let checkpointing = self.cfg.checkpoint && self.state.is_some();
        let ckpt = if checkpointing {
            let store = self.state.as_ref().expect("state store attached");
            let path = format!("/dag-{job}/checkpoint");
            Some(
                store
                    .open_kv(path.as_str())
                    .or_else(|_| store.create_kv(path.as_str(), 2))?,
            )
        } else {
            None
        };
        let mut resumed = 0usize;
        if let Some(ckpt) = &ckpt {
            for i in 0..n {
                let node = dag.node(i);
                let Ok(Some(value)) = ckpt.get(node.name.as_bytes()) else {
                    continue;
                };
                let Some((stored, origin)) = decode_checkpoint(&value) else {
                    continue;
                };
                self.metrics.counter("checkpoint_hits").inc();
                // Restoring under a tracer links this run back into the
                // trace of the run that produced the checkpoint: the
                // `dag.restore` span is a child of the original `dag.node`
                // span recovered from the frame header.
                if origin.is_some() {
                    let mut restore = tracer.span_child_of(TRACE_SYSTEM, "dag.restore", origin);
                    restore.attr("node", &node.name);
                    restore.attr("job", job);
                    restore.attr("bytes", stored.len());
                }
                outcomes[i] = Some(NodeOutcome {
                    name: node.name.clone(),
                    function: node.function.clone(),
                    attempts: 0,
                    exec: Duration::ZERO,
                    cost: 0.0,
                    output_bytes: stored.len(),
                    spilled: matches!(stored, Stored::Spilled { .. }),
                    from_checkpoint: true,
                });
                outputs[i] = Some(stored);
                resumed += 1;
            }
        }
        root_span.attr("resumed", resumed);

        let invocations = AtomicU32::new(0);
        let retries = AtomicU32::new(0);
        let spilled_bytes = AtomicU64::new(0);

        let frontiers = dag.frontiers();
        for frontier in &frontiers {
            let pending: Vec<usize> = frontier
                .iter()
                .copied()
                .filter(|&i| outputs[i].is_none())
                .collect();
            if pending.is_empty() {
                continue;
            }
            // Fan the frontier out across workers pulling node indices
            // from a shared cursor. Dependencies all live in earlier
            // frontiers, so `outputs` is read-only here.
            let slots: Mutex<Vec<Option<NodeResult>>> = {
                let mut v = Vec::with_capacity(pending.len());
                v.resize_with(pending.len(), || None);
                Mutex::new(v)
            };
            let cursor = AtomicUsize::new(0);
            let worker = || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= pending.len() {
                    break;
                }
                let i = pending[k];
                let r = self.run_node(
                    dag,
                    i,
                    job,
                    &input,
                    &outputs,
                    root_ctx,
                    ckpt.as_ref(),
                    &invocations,
                    &retries,
                    &spilled_bytes,
                );
                slots.lock()[k] = Some(r);
            };
            // The calling thread is worker 0: a one-node frontier runs
            // inline and a wide one spawns only the helpers it needs.
            let helpers = self.cfg.max_parallelism.min(pending.len()) - 1;
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(worker);
                }
                worker();
            });
            for (k, slot) in slots.into_inner().into_iter().enumerate() {
                let (stored, outcome) = slot.expect("every frontier slot is filled")?;
                let i = pending[k];
                outputs[i] = Some(stored);
                outcomes[i] = Some(outcome);
            }
        }

        // Assemble the workflow output from the sinks.
        let sinks = dag.sinks();
        let output = if sinks.len() == 1 {
            self.fetch(outputs[sinks[0]].as_ref().expect("sink completed"))?
        } else {
            let mut items = Vec::with_capacity(sinks.len());
            for &s in &sinks {
                items.push(self.fetch(outputs[s].as_ref().expect("sink completed"))?);
            }
            Bytes::from(frame::pack(&items))
        };

        // The job finished: its ephemeral state (checkpoint + spilled
        // intermediates) has served its purpose.
        if let Some(store) = &self.state {
            let _ = store.remove_namespace(format!("/dag-{job}").as_str());
        }

        root_span.attr("output_bytes", output.len());
        Ok(WorkflowReport {
            output,
            nodes: outcomes
                .into_iter()
                .map(|o| o.expect("every node completed"))
                .collect(),
            makespan: clock.now().saturating_sub(started),
            frontiers: frontiers.len(),
            invocations: invocations.load(Ordering::Relaxed),
            retries: retries.load(Ordering::Relaxed),
            resumed,
            spilled_bytes: spilled_bytes.load(Ordering::Relaxed),
        })
    }

    /// Run one node to completion on the calling worker thread.
    #[allow(clippy::too_many_arguments)]
    fn run_node(
        &self,
        dag: &Dag,
        i: usize,
        job: &str,
        input: &Bytes,
        outputs: &[Option<Stored>],
        root_ctx: Option<SpanContext>,
        ckpt: Option<&taureau_jiffy::KvHandle>,
        invocations: &AtomicU32,
        retries: &AtomicU32,
        spilled_bytes: &AtomicU64,
    ) -> Result<(Stored, NodeOutcome), DagError> {
        let tracer = self.platform.tracer();
        let node = dag.node(i);
        let mut span = tracer.span_child_of(TRACE_SYSTEM, "dag.node", root_ctx);
        span.attr("node", &node.name);
        span.attr("function", &node.function);

        // Assemble the input: workflow input for roots, the sole parent's
        // output verbatim (a refcount bump, not a copy), or a framed list
        // for fan-in — `frame::pack` is the one copy point on this path.
        let deps = dag.deps_of(i);
        let payload: Bytes = match deps {
            [] => input.clone(),
            [d] => self.fetch(outputs[*d].as_ref().expect("dependency completed"))?,
            many => {
                let mut items = Vec::with_capacity(many.len());
                for &d in many {
                    items.push(self.fetch(outputs[d].as_ref().expect("dependency completed"))?);
                }
                Bytes::from(frame::pack(&items))
            }
        };

        let retry = self.cfg.retry;
        let result =
            self.invoke_with_backoff(&node.function, &payload, retry, &span, retries, invocations);
        let (r, attempts) = match result {
            Ok(ok) => ok,
            Err((attempts, source)) => {
                span.attr("failed_after", attempts);
                return Err(DagError::NodeFailed {
                    node: node.name.clone(),
                    attempts,
                    source,
                });
            }
        };
        span.attr("attempts", attempts);

        // Store the output: spill to Jiffy past the inline threshold, and
        // checkpoint so a re-run of this job skips the node.
        let spill = self.state.is_some()
            && matches!(self.cfg.data_passing,
                DataPassing::SizeBased { inline_max } if r.output.len() > inline_max);
        let stored = if spill {
            let mut spill_span = tracer.span_child_of(TRACE_SYSTEM, "dag.spill", span.context());
            let store = self.state.as_ref().expect("state store attached");
            let path = format!("/dag-{job}/intermediate/{}", node.name);
            spill_span.attr("node", &node.name);
            spill_span.attr("bytes", r.output.len());
            let file = store
                .open_file(path.as_str())
                .or_else(|_| store.create_file(path.as_str()))?;
            file.append_bytes(r.output.clone())?;
            spilled_bytes.fetch_add(r.output.len() as u64, Ordering::Relaxed);
            self.metrics.counter("spills").inc();
            Stored::Spilled {
                path,
                len: r.output.len() as u64,
            }
        } else {
            Stored::Inline(r.output.clone())
        };
        if let Some(ckpt) = ckpt {
            let mut ckpt_span =
                tracer.span_child_of(TRACE_SYSTEM, "dag.checkpoint", span.context());
            ckpt_span.attr("node", &node.name);
            ckpt_span.attr("bytes", stored.len());
            ckpt.put(
                node.name.as_bytes(),
                &encode_checkpoint(&stored, span.context()),
            )?;
        }

        // Completion event — observability, not correctness: failures are
        // counted but never fail the node.
        if let Some(events) = &self.events {
            let payload = format!("{job}:{}:{attempts}", node.name);
            if events
                .send_keyed(node.name.as_bytes(), payload.as_bytes())
                .is_err()
            {
                self.metrics.counter("event_errors").inc();
            }
        }

        self.metrics.counter("nodes_completed").inc();
        if let Some(sink) = tracer.telemetry() {
            sink.metric("dag.nodes_completed", 1);
        }
        Ok((
            stored,
            NodeOutcome {
                name: node.name.clone(),
                function: node.function.clone(),
                attempts,
                exec: r.exec_duration,
                cost: r.cost,
                output_bytes: r.output.len(),
                spilled: spill,
                from_checkpoint: false,
            },
        ))
    }

    /// Invoke with per-attempt backoff, recording a `dag.retry` span per
    /// failed transient attempt. Returns the successful result and the
    /// attempts used, or the final error and the attempts wasted.
    fn invoke_with_backoff(
        &self,
        function: &str,
        payload: &Bytes,
        retry: RetryPolicy,
        node_span: &SpanGuard,
        retries: &AtomicU32,
        invocations: &AtomicU32,
    ) -> Result<(taureau_faas::InvocationResult, u32), (u32, FaasError)> {
        let tracer = self.platform.tracer();
        for attempt in 1..=retry.max_attempts {
            invocations.fetch_add(1, Ordering::Relaxed);
            match self.platform.invoke(function, payload.clone()) {
                Ok(r) => return Ok((r, attempt)),
                Err(e @ (FaasError::ExecutionFailed { .. } | FaasError::Timeout { .. }))
                    if attempt < retry.max_attempts =>
                {
                    retries.fetch_add(1, Ordering::Relaxed);
                    self.metrics.counter("retries").inc();
                    if let Some(sink) = tracer.telemetry() {
                        sink.metric("dag.retries", 1);
                    }
                    let backoff = retry.backoff(attempt);
                    let mut retry_span =
                        tracer.span_child_of(TRACE_SYSTEM, "dag.retry", node_span.context());
                    retry_span.attr("function", function);
                    retry_span.attr("attempt", attempt);
                    retry_span.attr("backoff_us", backoff.as_micros());
                    retry_span.attr("error", &e);
                    self.platform.clock().sleep(backoff);
                }
                Err(e) => return Err((attempt, e)),
            }
        }
        unreachable!("loop returns on the final attempt")
    }

    /// Materialise a stored output. Inline outputs come back as a
    /// refcount bump on the handler's buffer; spilled outputs come back as
    /// whatever the Jiffy file rope yields (zero-copy when the spill was a
    /// single append, which it always is on this path).
    fn fetch(&self, stored: &Stored) -> Result<Bytes, DagError> {
        match stored {
            Stored::Inline(b) => Ok(b.clone()),
            Stored::Spilled { path, .. } => {
                let store = self
                    .state
                    .as_ref()
                    .expect("spilled outputs require a state store");
                Ok(store.open_file(path.as_str())?.contents()?)
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
        Stored::Spilled { path, .. } => 8 + path.len(),
    };
    let mut v = Vec::with_capacity(header + body);
    match ctx {
        Some(ctx) => {
            v.push(ctx_tag);
            v.extend_from_slice(&ctx.to_bytes());
        }
        None => v.push(plain_tag),
    }
    match stored {
        Stored::Inline(b) => v.extend_from_slice(b),
        Stored::Spilled { path, len } => {
            v.extend_from_slice(&len.to_le_bytes());
            v.extend_from_slice(path.as_bytes());
        }
    }
    v
}

/// Decode a checkpoint KV value into the stored output and the context of
/// the span that produced it (absent for classic frames); `None` if
/// malformed.
fn decode_checkpoint(value: &[u8]) -> Option<(Stored, Option<SpanContext>)> {
    let (tag, mut rest) = value.split_first()?;
    let ctx = match *tag {
        CKPT_INLINE_CTX | CKPT_FILE_CTX => {
            let ctx = SpanContext::from_bytes(rest.get(..SpanContext::WIRE_LEN)?)?;
            rest = rest.get(SpanContext::WIRE_LEN..)?;
            Some(ctx)
        }
        _ => None,
    };
    let stored = match *tag {
        CKPT_INLINE | CKPT_INLINE_CTX => Stored::Inline(Bytes::copy_from_slice(rest)),
        CKPT_FILE | CKPT_FILE_CTX => {
            let len = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
            let path = String::from_utf8(rest.get(8..)?.to_vec()).ok()?;
            Stored::Spilled { path, len }
        }
        _ => return None,
    };
    Some((stored, ctx))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

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
        let report = exec.run(&dag, "r1", b"ok").unwrap();
        assert_eq!(report.output, b"ok");
        assert_eq!(report.retries, 2);
        assert_eq!(report.invocations, 4); // 1 for a, 3 for b
        assert_eq!(report.nodes[1].attempts, 3);
        assert_eq!(exec.metrics().counter("retries").get(), 2);
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
        let inline = Stored::Inline(Bytes::from_static(b"out"));
        let spilled = Stored::Spilled {
            path: "/dag-j/intermediate/n".into(),
            len: 7,
        };
        for stored in [&inline, &spilled] {
            // Untraced: classic tag, and the frame decodes with no origin.
            let classic = encode_checkpoint(stored, None);
            assert!(classic[0] == CKPT_INLINE || classic[0] == CKPT_FILE);
            let (got, origin) = decode_checkpoint(&classic).unwrap();
            assert_eq!(origin, None);
            assert_eq!(got.len(), stored.len());
            // Traced: ctx rides in the header, body unchanged after it.
            let traced = encode_checkpoint(stored, Some(ctx));
            assert!(traced[0] == CKPT_INLINE_CTX || traced[0] == CKPT_FILE_CTX);
            assert_eq!(&traced[1 + SpanContext::WIRE_LEN..], &classic[1..]);
            let (got, origin) = decode_checkpoint(&traced).unwrap();
            assert_eq!(origin, Some(ctx));
            assert_eq!(got.len(), stored.len());
        }
        // Malformed frames are rejected, not misread.
        assert!(decode_checkpoint(b"").is_none());
        assert!(decode_checkpoint(&[CKPT_INLINE_CTX, 1, 2]).is_none());
        assert!(decode_checkpoint(&[b'?', 0]).is_none());
    }

    #[test]
    fn checkpoint_frame_reserves_what_it_writes() {
        use taureau_core::trace::{SpanId, TraceId};
        let ctx = SpanContext {
            trace_id: TraceId(1),
            span_id: SpanId(2),
        };
        // A spilled record must not size itself by the output it points at.
        let spilled = Stored::Spilled {
            path: "/dag-j/intermediate/map-3".into(),
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
            .find(|s| s.name == "dag.node" && s.attrs.iter().any(|(k, v)| *k == "node" && v == "a"))
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
        p.register(FunctionSpec::new("inflate", "t", |ctx| {
            // 100 KB — larger than the 32 KB inline threshold and the
            // 64 KB Jiffy block.
            Ok(ctx.payload.repeat(50_000))
        }))
        .unwrap();
        p.register(FunctionSpec::new("measure", "t", |ctx| {
            Ok(ctx.payload.len().to_le_bytes().to_vec())
        }))
        .unwrap();
        let dag = Dag::chain(&[("big", "inflate"), ("len", "measure")]).unwrap();
        let exec = DagExecutor::new(&p).with_state(&jiffy);
        let report = exec.run(&dag, "sp", b"ab").unwrap();
        assert_eq!(report.output, 100_000usize.to_le_bytes().to_vec());
        assert_eq!(report.spilled_bytes, 100_000);
        assert!(report.nodes[0].spilled);
        assert!(!report.nodes[1].spilled);
        assert_eq!(exec.metrics().counter("spills").get(), 1);
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
}
