//! Structured request tracing across the serverless stack.
//!
//! One FaaS invocation touches three decoupled systems — compute
//! (taureau-faas), messaging (taureau-pulsar), and ephemeral state
//! (taureau-jiffy) — and the whole point of the paper's deconstruction is
//! that cost and latency only make sense when a single request can be
//! followed across all of them. This module provides that spine: a
//! [`Tracer`] records [`SpanRecord`]s with `TraceId`/`SpanId` identity,
//! parent→child causal links, per-span key/value attributes, and
//! timestamps taken from the stack's [`clock`](crate::clock) (so virtual
//! and wall clocks both work).
//!
//! Parent propagation is implicit: each thread keeps a stack of open
//! spans, and a span started while another is open on the same thread
//! becomes its child — which is exactly right for this stack, where a
//! FaaS handler synchronously calls into Pulsar and Jiffy on the invoking
//! thread. Spans opened on other threads start new traces.
//!
//! Exporters: [`Tracer::chrome_trace_json`] emits Chrome `trace_event`
//! JSON loadable in Perfetto / `chrome://tracing`, and
//! [`Tracer::flame_summary`] emits semicolon-folded stack lines (the
//! format flamegraph tools consume) aggregated by call path.
//!
//! Retention is bounded: the tracer is an always-on **flight recorder**
//! holding the most recent [`TracerConfig::retention`] spans in a ring
//! buffer (oldest evicted first, counted in [`Tracer::dropped_spans`]),
//! with optional head-based sampling for high-volume deployments. A
//! [`TelemetrySink`] can be attached to stream every finished span (and
//! metric deltas from instrumented subsystems) into a bounded queue that a
//! monitoring plane drains — queue overflow drops events and counts them,
//! so monitoring can never stall the hot path.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::SharedClock;

/// Identity of one causally-linked request tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identity of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Exportable identity of an open span: enough to parent new spans under
/// it from *other* threads. Implicit parent propagation (the thread-local
/// span stack) only links spans opened on one thread; fan-out executors
/// that dispatch work to worker threads capture a [`SpanContext`] from the
/// driver's span and hand it to [`Tracer::span_child_of`] so the whole
/// parallel run still renders as one causally-linked tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace the parent span belongs to.
    pub trace_id: TraceId,
    /// The parent span itself.
    pub span_id: SpanId,
}

impl SpanContext {
    /// Encoded size of [`SpanContext::to_bytes`]: two little-endian u64s.
    pub const WIRE_LEN: usize = 16;

    /// Fixed-width wire form (`trace_id` then `span_id`, little-endian).
    /// This is what rides in Pulsar entry headers, DAG checkpoint frames,
    /// and FaaS invocation envelopes so causality survives crossing a
    /// queue, a ledger, or a spill file. The payload bytes themselves are
    /// never touched — the context lives in the frame header, keeping the
    /// zero-copy `Bytes::slice` decode paths intact.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.0.to_le_bytes());
        out[8..].copy_from_slice(&self.span_id.0.to_le_bytes());
        out
    }

    /// Decode a context previously encoded with [`SpanContext::to_bytes`].
    /// Returns `None` when `bytes` is not exactly [`SpanContext::WIRE_LEN`]
    /// long (a framing error, not a valid empty context).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        let trace = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let span = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        Some(Self {
            trace_id: TraceId(trace),
            span_id: SpanId(span),
        })
    }
}

/// A hybrid-logical-clock stamp: physical microseconds, a logical
/// counter that breaks ties among events within one microsecond, and the
/// stamping node's id as the final tiebreaker.
///
/// HLC (Kulkarni et al.) gives cross-node events a total order that is
/// consistent with causality even when each node reads a skewed local
/// clock: a message's receive stamp is always greater than its send
/// stamp, because the receiver folds the sender's stamp into its own
/// clock ([`HlcClock::observe`]) before stamping. The derived `Ord` is
/// exactly the HLC order — `(physical_us, logical, node)` lexicographic —
/// so sorting a merged event stream by stamp yields one timeline that
/// every observer agrees on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HlcStamp {
    /// Max physical clock reading (µs) this stamp has absorbed.
    pub physical_us: u64,
    /// Logical counter: orders events sharing one physical microsecond.
    pub logical: u32,
    /// Stamping node — the final tiebreaker, so two distinct events never
    /// compare equal unless stamped by the same node at the same (pt, l).
    pub node: u64,
}

impl HlcStamp {
    /// Encoded size of [`HlcStamp::to_bytes`].
    pub const WIRE_LEN: usize = 20;

    /// The zero stamp (sorts before every real stamp).
    pub const ZERO: Self = Self {
        physical_us: 0,
        logical: 0,
        node: 0,
    };

    /// The stamp's physical component as a [`Duration`] since the clock
    /// epoch. Node clock skew is baked in — treat it as approximate
    /// wall-time, exact order.
    pub fn time(&self) -> Duration {
        Duration::from_micros(self.physical_us)
    }

    /// Fixed-width wire form: `physical_us`, `logical`, `node`,
    /// little-endian.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.physical_us.to_le_bytes());
        out[8..12].copy_from_slice(&self.logical.to_le_bytes());
        out[12..].copy_from_slice(&self.node.to_le_bytes());
        out
    }

    /// Decode a stamp encoded with [`HlcStamp::to_bytes`]; `None` when
    /// `bytes` is not exactly [`HlcStamp::WIRE_LEN`] long.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        Some(Self {
            physical_us: u64::from_le_bytes(bytes[..8].try_into().ok()?),
            logical: u32::from_le_bytes(bytes[8..12].try_into().ok()?),
            node: u64::from_le_bytes(bytes[12..].try_into().ok()?),
        })
    }
}

/// One node's hybrid logical clock. Thread-safe; every stamp it issues is
/// strictly greater than the previous one, and a stamp issued after
/// [`HlcClock::observe`]-ing a remote stamp is strictly greater than that
/// remote stamp — the two invariants that make merged timelines causal.
#[derive(Debug)]
pub struct HlcClock {
    node: u64,
    /// (max physical seen, logical counter at that physical).
    state: Mutex<(u64, u32)>,
}

impl HlcClock {
    /// A fresh clock for `node`, at (0, 0).
    pub fn new(node: u64) -> Self {
        Self {
            node,
            state: Mutex::new((0, 0)),
        }
    }

    /// The node this clock stamps for.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Stamp a local or send event, given the node's current physical
    /// clock reading in microseconds (skew included).
    pub fn tick(&self, physical_us: u64) -> HlcStamp {
        let mut st = self.state.lock();
        if physical_us > st.0 {
            st.0 = physical_us;
            st.1 = 0;
        } else {
            st.1 += 1;
        }
        HlcStamp {
            physical_us: st.0,
            logical: st.1,
            node: self.node,
        }
    }

    /// Stamp a receive event: fold `remote` into this clock so the result
    /// exceeds both the remote stamp and everything stamped locally so
    /// far, even when the local physical clock lags the sender's.
    pub fn observe(&self, physical_us: u64, remote: HlcStamp) -> HlcStamp {
        let mut st = self.state.lock();
        let merged = st.0.max(remote.physical_us).max(physical_us);
        let logical = if merged == st.0 && merged == remote.physical_us {
            st.1.max(remote.logical) + 1
        } else if merged == st.0 {
            st.1 + 1
        } else if merged == remote.physical_us {
            remote.logical + 1
        } else {
            0
        };
        st.0 = merged;
        st.1 = logical;
        HlcStamp {
            physical_us: merged,
            logical,
            node: self.node,
        }
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Causal parent within the trace, `None` for the root.
    pub parent: Option<SpanId>,
    /// Operation name, e.g. `faas.invoke`.
    pub name: String,
    /// Owning subsystem, e.g. `taureau-pulsar`.
    pub system: &'static str,
    /// Clock timestamp at span open.
    pub start: Duration,
    /// Clock timestamp at span close.
    pub end: Duration,
    /// Key/value attributes attached while the span was open.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Wall/virtual time the span covered.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Retention and sampling policy for a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Maximum spans retained in the flight-recorder ring buffer. When
    /// full, the oldest span is evicted (and counted in
    /// [`Tracer::dropped_spans`]). Must be at least 1.
    pub retention: usize,
    /// Head-based sampling: keep roughly one in this many traces
    /// (decided by hashing the trace id, so sequential ids still sample
    /// uniformly). `1` (the default) keeps everything. Sampling is per
    /// *trace*, so a kept trace is always causally complete.
    pub sample_one_in: u64,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self {
            retention: 65_536,
            sample_one_in: 1,
        }
    }
}

/// One event on the telemetry stream: a finished span or a metric delta.
#[derive(Debug, Clone)]
pub enum TelemetryEvent {
    /// A finished span, exactly as recorded by the tracer.
    Span(SpanRecord),
    /// A named counter/sample increment from an instrumented subsystem.
    Metric {
        /// Metric name, e.g. `faas.cold_starts`.
        name: String,
        /// Increment (for counters) or sample value (for latency metrics).
        delta: u64,
    },
}

#[derive(Debug)]
struct SinkInner {
    capacity: usize,
    queue: Mutex<VecDeque<TelemetryEvent>>,
    dropped: AtomicU64,
}

/// Bounded, non-blocking hand-off queue between the traced hot path and a
/// monitoring plane. Producers ([`SpanGuard`] drops, subsystem metric
/// hooks) push without ever blocking: when the queue is full the event is
/// dropped and counted instead. A pump on the monitoring side calls
/// [`TelemetrySink::drain`] and ships events onward (e.g. onto Pulsar
/// telemetry topics). Cheap to clone; clones share the queue.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    inner: Arc<SinkInner>,
}

impl TelemetrySink {
    /// A sink queueing at most `capacity` undrained events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "telemetry sink capacity must be >= 1");
        Self {
            inner: Arc::new(SinkInner {
                capacity,
                queue: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Maximum undrained events held before new ones are dropped.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Enqueue an event. Returns `false` (and counts the drop) when the
    /// queue is full; never blocks beyond the queue lock.
    pub fn push(&self, event: TelemetryEvent) -> bool {
        let mut queue = self.inner.queue.lock();
        if queue.len() >= self.inner.capacity {
            drop(queue);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        queue.push_back(event);
        true
    }

    /// Enqueue a finished span.
    pub fn span(&self, record: SpanRecord) -> bool {
        self.push(TelemetryEvent::Span(record))
    }

    /// Enqueue a metric delta.
    pub fn metric(&self, name: &str, delta: u64) -> bool {
        self.push(TelemetryEvent::Metric {
            name: name.to_string(),
            delta,
        })
    }

    /// Dequeue up to `max` events in arrival order.
    pub fn drain(&self, max: usize) -> Vec<TelemetryEvent> {
        let mut out = Vec::new();
        self.drain_into(max, &mut out);
        out
    }

    /// [`Self::drain`], appending to a buffer the caller reuses: a plane
    /// that drains every tick pays no allocation for an empty queue.
    pub fn drain_into(&self, max: usize, out: &mut Vec<TelemetryEvent>) {
        let mut queue = self.inner.queue.lock();
        let n = max.min(queue.len());
        out.extend(queue.drain(..n));
    }

    /// Undrained events currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// When set, finished spans are not forwarded to the telemetry sink.
    /// Used by the telemetry pump itself so that shipping telemetry over
    /// an instrumented transport does not generate telemetry about the
    /// shipping (an unbounded feedback loop).
    static TELEMETRY_SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with telemetry-sink forwarding suppressed on this thread.
/// Spans opened inside are still recorded in the tracer's ring buffer;
/// they just do not re-enter the telemetry stream. Reentrant-safe.
pub fn suppress_telemetry<R>(f: impl FnOnce() -> R) -> R {
    let prev = TELEMETRY_SUPPRESSED.with(|s| s.replace(true));
    let out = f();
    TELEMETRY_SUPPRESSED.with(|s| s.set(prev));
    out
}

fn telemetry_suppressed() -> bool {
    TELEMETRY_SUPPRESSED.with(|s| s.get())
}

struct TracerInner {
    clock: SharedClock,
    config: TracerConfig,
    next_id: AtomicU64,
    spans: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
    sink: Mutex<Option<TelemetrySink>>,
}

impl TracerInner {
    /// Head-based sampling decision: a pure function of the trace id, so
    /// every span of a trace agrees without coordination.
    fn sampled(&self, trace_id: u64) -> bool {
        self.config.sample_one_in <= 1 || mix64(trace_id).is_multiple_of(self.config.sample_one_in)
    }
}

/// splitmix64 finalizer: decorrelates sequential trace ids so modulo
/// sampling approximates a uniform one-in-N draw.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracerInner")
            .field("spans", &self.spans.lock().len())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Open spans on this thread: (trace id, span id) pairs.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every instrumented subsystem. Cheap to clone
/// (clones share the span buffer); a default-constructed tracer is
/// disabled and records nothing, so instrumentation is free until a
/// harness attaches a real one.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An enabled tracer stamping spans from `clock`, with default
    /// retention and no sampling (see [`TracerConfig`]).
    pub fn new(clock: SharedClock) -> Self {
        Self::with_config(clock, TracerConfig::default())
    }

    /// An enabled tracer with an explicit retention/sampling policy.
    pub fn with_config(clock: SharedClock, config: TracerConfig) -> Self {
        assert!(config.retention >= 1, "tracer retention must be >= 1");
        Self {
            inner: Some(Arc::new(TracerInner {
                clock,
                config,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
                sink: Mutex::new(None),
            })),
        }
    }

    /// A tracer that records nothing (the default for all subsystems).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The retention/sampling policy, `None` for a disabled tracer.
    pub fn config(&self) -> Option<TracerConfig> {
        self.inner.as_ref().map(|i| i.config.clone())
    }

    /// Spans evicted from the flight-recorder ring buffer because it was
    /// full. Unsampled spans are not counted (they were never recorded).
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Attach a telemetry sink: every sampled finished span is also
    /// pushed onto it (non-blocking, drop-counted). Replaces any
    /// previously attached sink. No-op on a disabled tracer.
    pub fn set_telemetry(&self, sink: TelemetrySink) {
        if let Some(inner) = &self.inner {
            *inner.sink.lock() = Some(sink);
        }
    }

    /// Detach the telemetry sink, if any.
    pub fn clear_telemetry(&self) {
        if let Some(inner) = &self.inner {
            *inner.sink.lock() = None;
        }
    }

    /// The attached telemetry sink, if any. Instrumented subsystems use
    /// this to push metric deltas alongside their spans.
    pub fn telemetry(&self) -> Option<TelemetrySink> {
        self.inner.as_ref().and_then(|i| i.sink.lock().clone())
    }

    /// Open a span. It closes (and is recorded) when the guard drops.
    /// If another span is open on this thread, the new one becomes its
    /// child; otherwise it roots a new trace.
    pub fn span(&self, system: &'static str, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { state: None };
        };
        let span_id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (trace_id, parent) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (trace_id, parent) = match stack.last() {
                Some(&(trace, parent)) => (trace, Some(SpanId(parent))),
                None => (inner.next_id.fetch_add(1, Ordering::Relaxed), None),
            };
            stack.push((trace_id, span_id));
            (trace_id, parent)
        });
        SpanGuard {
            state: Some(OpenSpan {
                tracer: Arc::clone(inner),
                record: SpanRecord {
                    trace_id: TraceId(trace_id),
                    span_id: SpanId(span_id),
                    parent,
                    name: name.to_string(),
                    system,
                    start: inner.clock.now(),
                    end: Duration::ZERO,
                    attrs: Vec::new(),
                },
            }),
        }
    }

    /// Open a span as an explicit child of `parent`, regardless of what is
    /// open on the current thread. This is the cross-thread variant of
    /// [`Tracer::span`]: a driver thread captures [`SpanGuard::context`]
    /// and worker threads adopt it, so spans they (and their callees) open
    /// nest under the driver's span instead of rooting new traces. With
    /// `parent: None` this behaves exactly like [`Tracer::span`].
    pub fn span_child_of(
        &self,
        system: &'static str,
        name: &str,
        parent: Option<SpanContext>,
    ) -> SpanGuard {
        let Some(ctx) = parent else {
            return self.span(system, name);
        };
        let Some(inner) = &self.inner else {
            return SpanGuard { state: None };
        };
        let span_id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().push((ctx.trace_id.0, span_id));
        });
        SpanGuard {
            state: Some(OpenSpan {
                tracer: Arc::clone(inner),
                record: SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: SpanId(span_id),
                    parent: Some(ctx.span_id),
                    name: name.to_string(),
                    system,
                    start: inner.clock.now(),
                    end: Duration::ZERO,
                    attrs: Vec::new(),
                },
            }),
        }
    }

    /// Snapshot of every retained span, in completion order (oldest
    /// retained first). When the ring buffer has overflowed this is the
    /// most recent [`TracerConfig::retention`] spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.spans.lock().len(),
            None => 0,
        }
    }

    /// Drop all recorded spans.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().clear();
        }
    }

    /// Export every span as Chrome `trace_event` JSON (complete "X"
    /// events, microsecond timestamps), loadable in Perfetto or
    /// `chrome://tracing`. Each trace renders as its own track (`tid` =
    /// trace id); span/parent ids ride along in `args`.
    pub fn chrome_trace_json(&self) -> String {
        use std::fmt::Write as _;
        let spans = self.spans();
        let mut out = String::with_capacity(128 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                json_string(&s.name),
                json_string(s.system),
                s.start.as_micros(),
                s.duration().as_micros(),
                s.trace_id.0,
            );
            let _ = write!(
                out,
                ",\"args\":{{\"trace_id\":\"{}\",\"span_id\":\"{}\"",
                s.trace_id, s.span_id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent_span_id\":\"{p}\"");
            }
            for (k, v) in &s.attrs {
                let _ = write!(out, ",{}:{}", json_string(k), json_string(v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Aggregate spans into semicolon-folded flame lines
    /// (`root;child;leaf count total_us`), heaviest path first — the
    /// input format of standard flamegraph tooling, and readable as a
    /// plain-text summary on its own.
    pub fn flame_summary(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;

        let spans = self.spans();
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id.0, s)).collect();
        let mut folded: BTreeMap<String, (u64, u128)> = BTreeMap::new();
        for s in &spans {
            let mut path = vec![s.name.as_str()];
            let mut cur = s.parent;
            while let Some(pid) = cur {
                match by_id.get(&pid.0) {
                    Some(p) => {
                        path.push(p.name.as_str());
                        cur = p.parent;
                    }
                    None => break,
                }
            }
            path.reverse();
            let entry = folded.entry(path.join(";")).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += s.duration().as_micros();
        }
        let mut lines: Vec<(String, u64, u128)> =
            folded.into_iter().map(|(p, (c, t))| (p, c, t)).collect();
        lines.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let mut out = String::new();
        for (path, count, total_us) in lines {
            let _ = writeln!(out, "{path} {count} {total_us}");
        }
        out
    }
}

/// Escape a string as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug)]
struct OpenSpan {
    tracer: Arc<TracerInner>,
    record: SpanRecord,
}

/// RAII handle for an open span; records the span when dropped. Obtained
/// from [`Tracer::span`]. Guards must drop in reverse open order on a
/// thread (the natural result of scoping them).
#[derive(Debug)]
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    state: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attach a key/value attribute.
    pub fn attr(&mut self, key: &'static str, value: impl ToString) {
        if let Some(open) = &mut self.state {
            open.record.attrs.push((key, value.to_string()));
        }
    }

    /// This span's trace id (`None` on a disabled tracer).
    pub fn trace_id(&self) -> Option<TraceId> {
        self.state.as_ref().map(|o| o.record.trace_id)
    }

    /// This span's id (`None` on a disabled tracer).
    pub fn span_id(&self) -> Option<SpanId> {
        self.state.as_ref().map(|o| o.record.span_id)
    }

    /// Identity for parenting spans under this one from other threads
    /// (`None` on a disabled tracer). See [`Tracer::span_child_of`].
    pub fn context(&self) -> Option<SpanContext> {
        self.state.as_ref().map(|o| SpanContext {
            trace_id: o.record.trace_id,
            span_id: o.record.span_id,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.state.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop this span; tolerate out-of-order drops by removing the
            // matching entry rather than blindly popping the top.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(_, id)| id == open.record.span_id.0)
            {
                stack.remove(pos);
            }
        });
        let inner = &open.tracer;
        // Head-based sampling: unsampled traces still participate in the
        // span stack above (so ids stay consistent) but record nothing.
        if !inner.sampled(open.record.trace_id.0) {
            return;
        }
        open.record.end = inner.clock.now();
        // A guard dropped during unwind did not complete its operation;
        // without this the span would be indistinguishable from a normal
        // completion and flame/critical-path views would attribute the
        // aborted work as successful time.
        if std::thread::panicking() {
            open.record.attrs.push(("error", "panic".to_string()));
        }
        // Snapshot the sink handle in its own statement so the sink-slot
        // lock drops immediately; the enqueue below then runs with no
        // tracer lock held. (The old `if let Some(sink) =
        // inner.sink.lock().clone()` kept the guard alive across the
        // enqueue, so a stalled telemetry consumer could block every
        // traced subsystem the moment monitoring attached.)
        let sink = if telemetry_suppressed() {
            None
        } else {
            inner.sink.lock().clone()
        };
        if let Some(sink) = sink {
            sink.span(open.record.clone());
        }
        let mut spans = inner.spans.lock();
        if spans.len() >= inner.config.retention {
            spans.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(open.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn hlc_tick_is_strictly_monotonic() {
        let clock = HlcClock::new(7);
        let mut prev = clock.tick(100);
        // Physical clock stuck, then jumping backwards: stamps still grow.
        for physical in [100, 100, 50, 200, 200, 150] {
            let next = clock.tick(physical);
            assert!(next > prev, "{next:?} !> {prev:?}");
            prev = next;
        }
    }

    #[test]
    fn hlc_observe_exceeds_remote_and_local() {
        let receiver = HlcClock::new(2);
        let local = receiver.tick(1_000);
        // Sender's clock runs 500µs ahead of the receiver's.
        let remote = HlcStamp {
            physical_us: 1_500,
            logical: 3,
            node: 1,
        };
        let merged = receiver.observe(1_010, remote);
        assert!(merged > remote, "{merged:?} !> remote {remote:?}");
        assert!(merged > local, "{merged:?} !> local {local:?}");
        // A later local event still orders after the merge.
        assert!(receiver.tick(1_020) > merged);
    }

    #[test]
    fn hlc_orders_send_before_receive_despite_skew() {
        // Sender's physical clock lags the receiver's by 400µs; the
        // receive stamp must still sort after the send stamp.
        let sender = HlcClock::new(1);
        let receiver = HlcClock::new(2);
        let sent = sender.tick(600); // true time 1000µs, skew -400
        let received = receiver.observe(1_050, sent);
        assert!(received > sent);

        // And the reverse skew: sender ahead of receiver.
        let sent = sender.tick(2_000); // true time 1600µs, skew +400
        let received = receiver.observe(1_650, sent);
        assert!(received > sent);
    }

    #[test]
    fn hlc_stamp_wire_roundtrip() {
        let stamp = HlcStamp {
            physical_us: 123_456_789,
            logical: 42,
            node: 9,
        };
        let bytes = stamp.to_bytes();
        assert_eq!(bytes.len(), HlcStamp::WIRE_LEN);
        assert_eq!(HlcStamp::from_bytes(&bytes), Some(stamp));
        assert_eq!(HlcStamp::from_bytes(&bytes[..19]), None);
        assert!(HlcStamp::ZERO < stamp);
    }

    fn virtual_tracer() -> (Tracer, std::sync::Arc<VirtualClock>) {
        let clock = std::sync::Arc::new(VirtualClock::new());
        (Tracer::new(clock.clone()), clock)
    }

    #[test]
    fn nested_spans_link_parent_to_child() {
        let (tracer, clock) = virtual_tracer();
        {
            let root = tracer.span("taureau-faas", "faas.invoke");
            clock.advance(Duration::from_millis(1));
            {
                let mut child = tracer.span("taureau-jiffy", "jiffy.kv_put");
                child.attr("bytes", 128);
                clock.advance(Duration::from_millis(2));
            }
            let _ = &root;
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        // Children complete (and record) before parents.
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.name, "jiffy.kv_put");
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.span_id));
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.attrs, vec![("bytes", "128".to_string())]);
        assert_eq!(child.duration(), Duration::from_millis(2));
        assert_eq!(root.duration(), Duration::from_millis(3));
        assert!(root.start <= child.start && child.end <= root.end);
    }

    #[test]
    fn sibling_spans_share_a_parent_and_new_roots_get_new_traces() {
        let (tracer, _clock) = virtual_tracer();
        {
            let _root = tracer.span("a", "root");
            let _ = tracer.span("a", "first");
            let _ = tracer.span("a", "second");
        }
        let _lone = tracer.span("a", "lone");
        drop(_lone);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let first = spans.iter().find(|s| s.name == "first").unwrap();
        let second = spans.iter().find(|s| s.name == "second").unwrap();
        let lone = spans.iter().find(|s| s.name == "lone").unwrap();
        assert_eq!(first.parent, Some(root.span_id));
        assert_eq!(second.parent, Some(root.span_id));
        assert_eq!(lone.parent, None);
        assert_ne!(lone.trace_id, root.trace_id);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut g = tracer.span("a", "op");
        g.attr("k", "v");
        assert_eq!(g.span_id(), None);
        drop(g);
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(
            tracer.chrome_trace_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn chrome_export_escapes_and_structures() {
        let (tracer, clock) = virtual_tracer();
        {
            let mut g = tracer.span("sys", "op \"quoted\"\n");
            g.attr("key", "va\\lue");
            clock.advance(Duration::from_micros(7));
        }
        let json = tracer.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":7"));
        assert!(json.contains("op \\\"quoted\\\"\\n"));
        assert!(json.contains("va\\\\lue"));
    }

    #[test]
    fn flame_summary_folds_paths() {
        let (tracer, clock) = virtual_tracer();
        {
            let _root = tracer.span("a", "root");
            for _ in 0..3 {
                let _child = tracer.span("a", "leaf");
                clock.advance(Duration::from_micros(10));
            }
        }
        let flame = tracer.flame_summary();
        let leaf_line = flame.lines().find(|l| l.starts_with("root;leaf ")).unwrap();
        assert_eq!(leaf_line, "root;leaf 3 30");
        assert!(flame.lines().any(|l| l.starts_with("root ")));
    }

    #[test]
    fn explicit_context_links_spans_across_threads() {
        let (tracer, _clock) = virtual_tracer();
        let root = tracer.span("dag", "dag.run");
        let ctx = root.context();
        assert!(ctx.is_some());
        let mut handles = Vec::new();
        for i in 0..3 {
            let t2 = tracer.clone();
            handles.push(std::thread::spawn(move || {
                let _node = t2.span_child_of("dag", &format!("dag.node.{i}"), ctx);
                // A span opened while the adopted span is open on this
                // thread nests under it implicitly.
                let _inner = t2.span("faas", "faas.invoke");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 7);
        let root = spans.iter().find(|s| s.name == "dag.run").unwrap();
        let nodes: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("dag.node."))
            .collect();
        assert_eq!(nodes.len(), 3);
        for node in &nodes {
            assert_eq!(node.trace_id, root.trace_id);
            assert_eq!(node.parent, Some(root.span_id));
        }
        for invoke in spans.iter().filter(|s| s.name == "faas.invoke") {
            assert_eq!(invoke.trace_id, root.trace_id);
            assert!(nodes.iter().any(|n| invoke.parent == Some(n.span_id)));
        }
    }

    #[test]
    fn span_child_of_without_parent_behaves_like_span() {
        let (tracer, _clock) = virtual_tracer();
        drop(tracer.span_child_of("a", "lone", None));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, None);
        // Disabled tracers hand back inert guards from both entry points.
        let disabled = Tracer::disabled();
        let g = disabled.span("a", "x");
        assert!(g.context().is_none());
        drop(disabled.span_child_of("a", "y", None));
        assert_eq!(disabled.span_count(), 0);
    }

    #[test]
    fn retention_cap_evicts_oldest_and_counts_drops() {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let tracer = Tracer::with_config(
            clock.clone(),
            TracerConfig {
                retention: 4,
                sample_one_in: 1,
            },
        );
        for i in 0..10 {
            drop(tracer.span("a", &format!("op{i}")));
        }
        assert_eq!(tracer.span_count(), 4);
        assert_eq!(tracer.dropped_spans(), 6);
        let names: Vec<_> = tracer.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["op6", "op7", "op8", "op9"]);
        // Exporters keep working on the retained window.
        assert!(tracer.chrome_trace_json().contains("op9"));
        assert!(tracer.flame_summary().contains("op9 1"));
    }

    #[test]
    fn head_sampling_keeps_whole_traces_or_none() {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let tracer = Tracer::with_config(
            clock.clone(),
            TracerConfig {
                retention: 1024,
                sample_one_in: 3,
            },
        );
        for _ in 0..30 {
            let root = tracer.span("a", "root");
            drop(tracer.span("a", "child"));
            drop(root);
        }
        let spans = tracer.spans();
        assert!(!spans.is_empty() && spans.len() < 60);
        // Every retained trace is causally complete: a root and a child.
        use std::collections::BTreeMap;
        let mut by_trace: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for s in &spans {
            by_trace.entry(s.trace_id.0).or_default().push(&s.name);
        }
        for (_, names) in by_trace {
            assert_eq!(names.len(), 2);
        }
        // Unsampled spans are not "dropped" — they were never recorded.
        assert_eq!(tracer.dropped_spans(), 0);
    }

    #[test]
    fn telemetry_sink_receives_finished_spans_and_metrics() {
        let (tracer, clock) = virtual_tracer();
        let sink = TelemetrySink::new(16);
        tracer.set_telemetry(sink.clone());
        assert!(tracer.telemetry().is_some());
        {
            let _g = tracer.span("sys", "op");
            clock.advance(Duration::from_micros(5));
        }
        sink.metric("faas.cold_starts", 1);
        let events = sink.drain(16);
        assert_eq!(events.len(), 2);
        match &events[0] {
            TelemetryEvent::Span(s) => {
                assert_eq!(s.name, "op");
                assert_eq!(s.duration(), Duration::from_micros(5));
            }
            other => panic!("expected span event, got {other:?}"),
        }
        match &events[1] {
            TelemetryEvent::Metric { name, delta } => {
                assert_eq!(name, "faas.cold_starts");
                assert_eq!(*delta, 1);
            }
            other => panic!("expected metric event, got {other:?}"),
        }
        tracer.clear_telemetry();
        drop(tracer.span("sys", "untracked"));
        assert!(sink.is_empty());
    }

    #[test]
    fn full_sink_drops_and_counts_without_blocking() {
        let sink = TelemetrySink::new(2);
        assert!(sink.metric("a", 1));
        assert!(sink.metric("b", 1));
        assert!(!sink.metric("c", 1));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        let drained = sink.drain(10);
        assert_eq!(drained.len(), 2);
        assert!(sink.metric("d", 1));
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn suppression_keeps_spans_out_of_the_sink_but_in_the_recorder() {
        let (tracer, _clock) = virtual_tracer();
        let sink = TelemetrySink::new(16);
        tracer.set_telemetry(sink.clone());
        suppress_telemetry(|| {
            drop(tracer.span("sys", "pump.publish"));
        });
        drop(tracer.span("sys", "visible"));
        assert_eq!(tracer.span_count(), 2);
        let events = sink.drain(16);
        assert_eq!(events.len(), 1);
        match &events[0] {
            TelemetryEvent::Span(s) => assert_eq!(s.name, "visible"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn span_context_wire_roundtrip() {
        let ctx = SpanContext {
            trace_id: TraceId(0x0123_4567_89ab_cdef),
            span_id: SpanId(u64::MAX),
        };
        let bytes = ctx.to_bytes();
        assert_eq!(bytes.len(), SpanContext::WIRE_LEN);
        assert_eq!(SpanContext::from_bytes(&bytes), Some(ctx));
        // Deterministic layout: trace_id LE then span_id LE.
        assert_eq!(&bytes[..8], &0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(&bytes[8..], &u64::MAX.to_le_bytes());
        // Length errors are framing errors, not silent zeros.
        assert_eq!(SpanContext::from_bytes(&bytes[..15]), None);
        assert_eq!(SpanContext::from_bytes(&[]), None);
        // A live guard's context survives the wire.
        let (tracer, _clock) = virtual_tracer();
        let g = tracer.span("sys", "op");
        let live = g.context().unwrap();
        assert_eq!(SpanContext::from_bytes(&live.to_bytes()), Some(live));
    }

    #[test]
    fn panicking_drop_marks_span_as_error() {
        let (tracer, _clock) = virtual_tracer();
        let t2 = tracer.clone();
        let joined = std::thread::spawn(move || {
            let _g = t2.span("sys", "doomed");
            panic!("handler exploded");
        })
        .join();
        assert!(joined.is_err());
        // A span closed normally right after must NOT carry the marker.
        drop(tracer.span("sys", "fine"));
        let spans = tracer.spans();
        let doomed = spans.iter().find(|s| s.name == "doomed").unwrap();
        assert!(
            doomed
                .attrs
                .iter()
                .any(|(k, v)| *k == "error" && v == "panic"),
            "unwound span missing error=panic: {:?}",
            doomed.attrs
        );
        let fine = spans.iter().find(|s| s.name == "fine").unwrap();
        assert!(fine.attrs.iter().all(|(k, _)| *k != "error"));
    }

    #[test]
    fn sink_backpressure_exact_drop_accounting_across_threads() {
        // N producer threads race to overfill a small queue while a
        // drainer pulls concurrently. Invariants: drain never blocks or
        // invents events, and pushed == drained_total + still_queued +
        // dropped() exactly — no event is both delivered and counted
        // dropped, none vanish.
        use std::sync::atomic::{AtomicBool, AtomicU64};
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let sink = TelemetrySink::new(64);
        let accepted = AtomicU64::new(0);
        let drained = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut producers = Vec::new();
            for t in 0..THREADS {
                let sink = &sink;
                let accepted = &accepted;
                producers.push(s.spawn(move || {
                    for i in 0..PER_THREAD {
                        if sink.metric(&format!("t{t}.m{i}"), 1) {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }));
            }
            // Concurrent drainer: keeps the queue moving so pushes keep
            // succeeding after the first fill; exits once producers are
            // done AND the queue is empty.
            let drainer = s.spawn(|| loop {
                let batch = sink.drain(32);
                drained.fetch_add(batch.len() as u64, Ordering::Relaxed);
                if batch.is_empty() {
                    if done.load(Ordering::Acquire) && sink.is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            for p in producers {
                p.join().unwrap();
            }
            done.store(true, Ordering::Release);
            drainer.join().unwrap();
        });
        let total_pushed = THREADS * PER_THREAD;
        let accepted = accepted.load(Ordering::Relaxed);
        let drained_total = drained.load(Ordering::Relaxed);
        assert_eq!(
            accepted + sink.dropped(),
            total_pushed,
            "every push either accepted or counted dropped"
        );
        assert_eq!(
            drained_total, accepted,
            "drain loses or invents events: drained {drained_total}, accepted {accepted}"
        );
        assert!(sink.is_empty());
        // Deterministic overflow coda: fill to capacity, then one more
        // must be dropped and counted — exactly one.
        let base_dropped = sink.dropped();
        for _ in 0..sink.capacity() {
            assert!(sink.metric("fill", 1));
        }
        assert!(!sink.metric("overflow", 1));
        assert_eq!(sink.dropped(), base_dropped + 1);
        assert_eq!(sink.drain(usize::MAX).len(), sink.capacity());
    }

    #[test]
    fn spans_on_other_threads_start_their_own_traces() {
        let (tracer, _clock) = virtual_tracer();
        let _root = tracer.span("a", "root");
        let t2 = tracer.clone();
        std::thread::spawn(move || {
            let _remote = t2.span("b", "remote");
        })
        .join()
        .unwrap();
        drop(_root);
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let remote = spans.iter().find(|s| s.name == "remote").unwrap();
        assert_ne!(remote.trace_id, root.trace_id);
        assert_eq!(remote.parent, None);
    }
}
