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
//! holding the most recent `TracerConfig::retention` spans in a ring
//! buffer (oldest evicted first, counted in [`Tracer::dropped_spans`]),
//! with optional head-based sampling for high-volume deployments. A
//! [`TelemetrySink`] can be attached to stream every finished span (and
//! metric deltas from instrumented subsystems) into a bounded queue that a
//! monitoring plane drains — queue overflow drops events and counts them,
//! so monitoring can never stall the hot path. A plane that keeps its own
//! recorder attaches its sink as the *sole* one
//! ([`Tracer::set_sole_telemetry`]): a finished span is then copied once,
//! into the sink, and the ring is not written.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BufMut;
use parking_lot::Mutex;

use crate::clock::SharedClock;
use crate::wire::Reader;

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
        let mut w = &mut out[..];
        w.put_u64_le(self.trace_id.0);
        w.put_u64_le(self.span_id.0);
        out
    }

    /// Decode a context previously encoded with [`SpanContext::to_bytes`].
    /// Returns `None` when `bytes` is not exactly [`SpanContext::WIRE_LEN`]
    /// long (a framing error, not a valid empty context).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Reader::read_all(bytes, |r| {
            Some(Self {
                trace_id: TraceId(r.u64()?),
                span_id: SpanId(r.u64()?),
            })
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
        let mut w = &mut out[..];
        w.put_u64_le(self.physical_us);
        w.put_u32_le(self.logical);
        w.put_u64_le(self.node);
        out
    }

    /// Decode a stamp encoded with [`HlcStamp::to_bytes`]; `None` when
    /// `bytes` is not exactly [`HlcStamp::WIRE_LEN`] long.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Reader::read_all(bytes, |r| {
            Some(Self {
                physical_us: r.u64()?,
                logical: r.u32()?,
                node: r.u64()?,
            })
        })
    }
}

/// One node's hybrid logical clock. Every stamp it issues is strictly
/// greater than the previous one, and a stamp issued after
/// [`HlcClock::observe`]-ing a remote stamp is strictly greater than that
/// remote stamp — the two invariants that make merged timelines causal.
/// Its owner holds it exclusively (a telemetry agent or pump stamps its
/// own events), so stamping takes `&mut self` and no lock.
#[derive(Debug)]
pub struct HlcClock {
    node: u64,
    /// Max physical seen.
    physical_us: u64,
    /// Logical counter at that physical.
    logical: u32,
}

impl HlcClock {
    /// A fresh clock for `node`, at (0, 0).
    pub fn new(node: u64) -> Self {
        Self {
            node,
            physical_us: 0,
            logical: 0,
        }
    }

    fn stamp(&self) -> HlcStamp {
        HlcStamp {
            physical_us: self.physical_us,
            logical: self.logical,
            node: self.node,
        }
    }

    /// Stamp a local or send event, given the node's current physical
    /// clock reading in microseconds (skew included).
    pub fn tick(&mut self, physical_us: u64) -> HlcStamp {
        if physical_us > self.physical_us {
            self.physical_us = physical_us;
            self.logical = 0;
        } else {
            self.logical += 1;
        }
        self.stamp()
    }

    /// Stamp a receive event: fold `remote` into this clock so the result
    /// exceeds both the remote stamp and everything stamped locally so
    /// far, even when the local physical clock lags the sender's.
    pub fn observe(&mut self, physical_us: u64, remote: HlcStamp) -> HlcStamp {
        let local = self.physical_us;
        let merged = local.max(remote.physical_us).max(physical_us);
        self.logical = if merged == local && merged == remote.physical_us {
            self.logical.max(remote.logical) + 1
        } else if merged == local {
            self.logical + 1
        } else if merged == remote.physical_us {
            remote.logical + 1
        } else {
            0
        };
        self.physical_us = merged;
        self.stamp()
    }
}

/// Bytes of an [`AttrStr`] kept inline; a longer string spills to the heap.
const STR_INLINE: usize = 22;

/// A string attribute value: up to 22 bytes inline (topic, subscription,
/// function, tenant, path and DAG node names), a heap copy past that.
#[derive(Clone, PartialEq, Eq)]
pub struct AttrStr(StrRepr);

#[derive(Clone, PartialEq, Eq)]
enum StrRepr {
    Inline { len: u8, bytes: [u8; STR_INLINE] },
    Heap(Box<str>),
}

impl AttrStr {
    /// A copy of `s`.
    fn new(s: &str) -> Self {
        if s.len() > STR_INLINE {
            return Self(StrRepr::Heap(s.into()));
        }
        let mut bytes = [0u8; STR_INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Self(StrRepr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            StrRepr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("copied from a str")
            }
            StrRepr::Heap(s) => s,
        }
    }
}

impl fmt::Debug for AttrStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A typed span attribute value. It stays typed while the span is open
/// and in flight, and becomes text only where it leaves the process: the
/// telemetry wire frame and the JSON / text exporters, through
/// [`fmt::Display`] (integers and booleans as `to_string` writes them,
/// an `F64` with nine decimals, the precision of a billed cost).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (sizes, counts, ids).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, rendered with nine decimals.
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A string: a literal or a short runtime name.
    Str(AttrStr),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v:.9}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s.as_str()),
        }
    }
}

macro_rules! attr_from {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::$variant(v.into())
            }
        }
    )*};
}
attr_from!(U64: u32, u64);
attr_from!(I64: i32, i64);
attr_from!(F64: f64);

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(AttrStr::new(v))
    }
}

impl From<fmt::Arguments<'_>> for AttrValue {
    /// Formatted text, e.g. an error's message: formatted only when the
    /// span is being recorded.
    fn from(v: fmt::Arguments<'_>) -> Self {
        match v.as_str() {
            Some(s) => s.into(),
            None => v.to_string().as_str().into(),
        }
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        v.as_str().into()
    }
}

impl From<&String> for AttrValue {
    fn from(v: &String) -> Self {
        v.as_str().into()
    }
}

/// Attributes a span holds inline; more spill to the heap.
const ATTRS_INLINE: usize = 6;

/// A span's key/value attributes in the order they were attached: the
/// first six inline, any more in a heap overflow (only a dispatch that
/// delivers several entries at once gets there).
pub struct Attrs {
    len: u8,
    inline: [(&'static str, AttrValue); ATTRS_INLINE],
    more: Vec<(&'static str, AttrValue)>,
}

impl Attrs {
    const EMPTY: (&'static str, AttrValue) = ("", AttrValue::Bool(false));

    /// No attributes.
    pub const fn new() -> Self {
        Self {
            len: 0,
            inline: [Self::EMPTY; ATTRS_INLINE],
            more: Vec::new(),
        }
    }

    /// Append one.
    pub fn push(&mut self, key: &'static str, value: AttrValue) {
        match self.inline.get_mut(usize::from(self.len)) {
            Some(slot) => {
                *slot = (key, value);
                self.len += 1;
            }
            None => self.more.push((key, value)),
        }
    }

    /// Every attribute, in attach order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &AttrValue)> {
        let inline = &self.inline[..usize::from(self.len)];
        inline.iter().chain(&self.more).map(|(k, v)| (*k, v))
    }

    /// The first value attached under `key`.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        usize::from(self.len) + self.more.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every attribute, keeping the storage.
    fn clear(&mut self) {
        self.len = 0;
        self.more.clear();
    }
}

impl Default for Attrs {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Attrs {
    fn clone(&self) -> Self {
        let mut attrs = Self::new();
        attrs.clone_from(self);
        attrs
    }

    /// Copies the attributes in place (slots past `len` are not read).
    fn clone_from(&mut self, source: &Self) {
        let n = usize::from(source.len);
        self.inline[..n].clone_from_slice(&source.inline[..n]);
        self.len = source.len;
        self.more.clone_from(&source.more);
    }
}

impl PartialEq for Attrs {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<V: Into<AttrValue>> FromIterator<(&'static str, V)> for Attrs {
    fn from_iter<I: IntoIterator<Item = (&'static str, V)>>(iter: I) -> Self {
        let mut attrs = Self::new();
        for (k, v) in iter {
            attrs.push(k, v.into());
        }
        attrs
    }
}

/// One completed span: plain data, copied field by field from the thread
/// that recorded it into the flight recorder and the telemetry sink.
#[derive(Debug, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Causal parent within the trace, `None` for the root.
    pub parent: Option<SpanId>,
    /// Operation name, e.g. `faas.invoke`.
    pub name: &'static str,
    /// Owning subsystem, e.g. `taureau-pulsar`.
    pub system: &'static str,
    /// Clock timestamp at span open.
    pub start: Duration,
    /// Clock timestamp at span close.
    pub end: Duration,
    /// Key/value attributes attached while the span was open.
    pub attrs: Attrs,
}

impl Clone for SpanRecord {
    fn clone(&self) -> Self {
        Self {
            attrs: self.attrs.clone(),
            ..*self
        }
    }

    /// Copies the record in place: the ring and the sink rewrite the
    /// slots they keep instead of building and moving a new record.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            trace_id,
            span_id,
            parent,
            name,
            system,
            start,
            end,
            attrs,
        } = source;
        (self.trace_id, self.span_id, self.parent) = (*trace_id, *span_id, *parent);
        (self.name, self.system, self.start, self.end) = (*name, *system, *start, *end);
        self.attrs.clone_from(attrs);
    }
}

impl SpanRecord {
    /// Wall/virtual time the span covered.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The first value attached under `key`.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }
}

/// Distinct names [`intern`] keeps before it refuses new ones.
const INTERN_CAP: usize = 4096;

static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// The `&'static` copy of a name computed at run time: a span name read
/// back off the wire, or a metric named after a lock site. Each distinct
/// name is copied once for the life of the process; past 4 096 distinct
/// names it returns `None`, so hostile input cannot grow the table
/// without bound.
pub fn intern(name: &str) -> Option<&'static str> {
    let mut table = INTERNED.lock();
    if let Some(&kept) = table.get(name) {
        return Some(kept);
    }
    if table.len() >= INTERN_CAP {
        return None;
    }
    let kept: &'static str = Box::leak(name.into());
    table.insert(kept);
    Some(kept)
}

/// Retention and sampling policy for a [`Tracer`].
#[derive(Debug, Clone)]
pub(crate) struct TracerConfig {
    /// Maximum spans retained in the flight-recorder ring buffer. When
    /// full, the oldest span is evicted (and counted in
    /// [`Tracer::dropped_spans`]). Must be at least 1.
    pub(crate) retention: usize,
    /// Head-based sampling: keep roughly one in this many traces
    /// (decided by hashing the trace id, so sequential ids still sample
    /// uniformly). `1` (the default) keeps everything. Sampling is per
    /// *trace*, so a kept trace is always causally complete.
    pub(crate) sample_one_in: u64,
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
/// A span travels by value: copying a few hundred bytes costs less than
/// the allocation a boxed or shared record would take on every span.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum TelemetryEvent {
    /// A finished span: a copy of the record the tracer's ring keeps.
    Span(SpanRecord),
    /// A named counter/sample increment from an instrumented subsystem.
    Metric {
        /// Metric name, e.g. `faas.cold_starts`.
        name: &'static str,
        /// Increment (for counters) or sample value (for latency metrics).
        delta: u64,
    },
}

/// A FIFO of telemetry events that keeps its slots: it grows to the
/// deepest backlog it has held, and a span is then copied field by field
/// into a slot a drained event left, neither built nor moved whole.
#[derive(Debug, Default)]
struct EventQueue {
    slots: Vec<TelemetryEvent>,
    /// Slot of the oldest queued event.
    head: usize,
    len: usize,
}

impl EventQueue {
    /// The slot the next event is written to. `None` when every slot is
    /// queued: the queue is then laid out from slot 0, so the caller's
    /// `slots.push` appends at its tail.
    fn free_slot(&mut self) -> Option<&mut TelemetryEvent> {
        if self.len == self.slots.len() {
            self.slots.rotate_left(self.head);
            self.head = 0;
            return None;
        }
        let at = self.head + self.len;
        let at = at.checked_sub(self.slots.len()).unwrap_or(at);
        self.slots.get_mut(at)
    }

    fn push(&mut self, event: TelemetryEvent) {
        match self.free_slot() {
            Some(slot) => *slot = event,
            None => self.slots.push(event),
        }
        self.len += 1;
    }

    fn push_span(&mut self, record: &SpanRecord) {
        match self.free_slot() {
            Some(TelemetryEvent::Span(slot)) => slot.clone_from(record),
            Some(slot) => *slot = TelemetryEvent::Span(record.clone()),
            None => self.slots.push(TelemetryEvent::Span(record.clone())),
        }
        self.len += 1;
    }

    /// Hand the oldest `max` events to `f`, oldest first, and dequeue them.
    fn drain_with(&mut self, max: usize, mut f: impl FnMut(&TelemetryEvent)) {
        let n = max.min(self.len);
        for i in 0..n {
            f(&self.slots[(self.head + i) % self.slots.len()]);
        }
        if n > 0 {
            self.head = (self.head + n) % self.slots.len();
            self.len -= n;
        }
    }
}

#[derive(Debug)]
struct SinkInner {
    capacity: usize,
    queue: Mutex<EventQueue>,
    dropped: AtomicU64,
}

/// Bounded, non-blocking hand-off queue between the traced hot path and a
/// monitoring plane. Producers ([`SpanGuard`] drops, subsystem metric
/// hooks) push without ever blocking: when the queue is full the event is
/// dropped and counted instead. A pump on the monitoring side calls
/// [`TelemetrySink::drain`] or [`TelemetrySink::drain_with`] and ships
/// events onward (e.g. onto Pulsar telemetry topics). Cheap to clone;
/// clones share the queue.
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
                queue: Mutex::new(EventQueue::default()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Enqueue with `push` unless the queue is full: then count the drop
    /// and return `false`. Never blocks beyond the queue lock.
    fn enqueue(&self, push: impl FnOnce(&mut EventQueue)) -> bool {
        let mut queue = self.inner.queue.lock();
        if queue.len >= self.inner.capacity {
            drop(queue);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        push(&mut queue);
        true
    }

    /// Enqueue a copy of a finished span.
    fn span(&self, record: &SpanRecord) -> bool {
        self.enqueue(|q| q.push_span(record))
    }

    /// Enqueue a metric delta.
    pub fn metric(&self, name: &'static str, delta: u64) -> bool {
        self.enqueue(|q| q.push(TelemetryEvent::Metric { name, delta }))
    }

    /// Dequeue up to `max` events in arrival order.
    pub fn drain(&self, max: usize) -> Vec<TelemetryEvent> {
        let mut out = Vec::new();
        self.drain_with(max, |event| out.push(event.clone()));
        out
    }

    /// Hand up to `max` events to `f` in arrival order, by reference, and
    /// dequeue them: a plane that reads each event once copies none. `f`
    /// runs under the queue lock, so producers wait for it.
    pub fn drain_with(&self, max: usize, f: impl FnMut(&TelemetryEvent)) {
        self.inner.queue.lock().drain_with(max, f);
    }

    /// Undrained events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.inner.queue.lock().len
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
    spans: Mutex<Ring>,
    dropped: AtomicU64,
    sink: Mutex<Option<Attached>>,
}

/// The sink attached to a tracer, and whether it is the tracer's only
/// recorder (finished spans then skip the ring).
struct Attached {
    sink: TelemetrySink,
    sole: bool,
}

/// The flight recorder: the most recent `cap` records, by value. Its
/// storage grows to `cap` as spans finish; from then on the oldest
/// record's slot is rewritten in place.
#[derive(Debug)]
struct Ring {
    records: Vec<SpanRecord>,
    cap: usize,
    /// Slot of the oldest record once the ring is full.
    oldest: usize,
}

impl Ring {
    /// Copy `record` in; `true` when that evicted the oldest.
    fn push(&mut self, record: &SpanRecord) -> bool {
        if self.records.len() < self.cap {
            self.records.push(record.clone());
            return false;
        }
        self.records[self.oldest].clone_from(record);
        self.oldest = (self.oldest + 1) % self.cap;
        true
    }

    /// Oldest first.
    fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        let (newer, older) = self.records.split_at(self.oldest);
        older.iter().chain(newer)
    }
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
            .field("spans", &self.spans.lock().records.len())
            .finish_non_exhaustive()
    }
}

/// Open spans on one thread, innermost last: the records their guards
/// fill in. Records past `depth` are closed, and the next spans opened
/// reuse their storage, so the stack grows to the deepest nesting seen.
struct SpanStack {
    records: Vec<SpanRecord>,
    depth: usize,
}

impl SpanStack {
    const CLOSED: SpanRecord = SpanRecord {
        trace_id: TraceId(0),
        span_id: SpanId(0),
        parent: None,
        name: "",
        system: "",
        start: Duration::ZERO,
        end: Duration::ZERO,
        attrs: Attrs::new(),
    };

    fn open_records(&self) -> &[SpanRecord] {
        &self.records[..self.depth]
    }

    /// A cleared record on top of the stack, for the caller to fill in.
    fn open(&mut self) -> &mut SpanRecord {
        if self.depth == self.records.len() {
            self.records.push(Self::CLOSED);
        }
        self.depth += 1;
        let record = &mut self.records[self.depth - 1];
        record.attrs.clear();
        record
    }

    /// Close the open record at `pos`; any opened after it move down.
    fn close(&mut self, pos: usize) {
        self.records[pos..self.depth].rotate_left(1);
        self.depth -= 1;
    }
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack {
            records: Vec::new(),
            depth: 0,
        })
    };
}

/// `f` on the open record `span_id` of this thread's stack, if it is there
/// (it is the innermost one unless guards drop out of order).
fn with_open<R>(span_id: SpanId, f: impl FnOnce(&mut SpanStack, usize) -> R) -> Option<R> {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let pos = stack
            .open_records()
            .iter()
            .rposition(|r| r.span_id == span_id)?;
        Some(f(&mut stack, pos))
    })
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
    /// retention and no sampling (see `TracerConfig`).
    pub fn new(clock: SharedClock) -> Self {
        Self::with_config(clock, TracerConfig::default())
    }

    /// An enabled tracer with an explicit retention/sampling policy.
    pub(crate) fn with_config(clock: SharedClock, config: TracerConfig) -> Self {
        assert!(config.retention >= 1, "tracer retention must be >= 1");
        let cap = config.retention;
        Self {
            inner: Some(Arc::new(TracerInner {
                clock,
                config,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Ring {
                    records: Vec::new(),
                    cap,
                    oldest: 0,
                }),
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

    /// Spans evicted from the flight-recorder ring buffer because it was
    /// full. Unsampled spans are not counted (they were never recorded).
    /// Under a sole sink ([`Tracer::set_sole_telemetry`]) the ring takes
    /// no more spans, so this stops growing: the sink counts what it
    /// drops ([`TelemetrySink::dropped`]).
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
        self.attach(sink, false);
    }

    /// Attach a telemetry sink as this tracer's only recorder: every
    /// sampled finished span is copied into it once, and the
    /// flight-recorder ring is no longer written (a span finished under
    /// [`suppress_telemetry`] is then recorded nowhere). For a plane that
    /// keeps its own recorder downstream of the sink. Replaces any
    /// previously attached sink. No-op on a disabled tracer.
    pub fn set_sole_telemetry(&self, sink: TelemetrySink) {
        self.attach(sink, true);
    }

    fn attach(&self, sink: TelemetrySink, sole: bool) {
        if let Some(inner) = &self.inner {
            *inner.sink.lock() = Some(Attached { sink, sole });
        }
    }

    /// The attached telemetry sink, if any. Instrumented subsystems use
    /// this to push metric deltas alongside their spans.
    pub fn telemetry(&self) -> Option<TelemetrySink> {
        let inner = self.inner.as_ref()?;
        let attached = inner.sink.lock();
        attached.as_ref().map(|a| a.sink.clone())
    }

    /// Open a span. It closes (and is recorded) when the guard drops.
    /// If another span is open on this thread, the new one becomes its
    /// child; otherwise it roots a new trace.
    pub fn span(&self, system: &'static str, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(inner) => open_span(inner, system, name, None),
            None => SpanGuard { open: None },
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
        name: &'static str,
        parent: Option<SpanContext>,
    ) -> SpanGuard {
        match &self.inner {
            Some(inner) => open_span(inner, system, name, parent),
            None => SpanGuard { open: None },
        }
    }

    /// Snapshot of every retained span, in completion order (oldest
    /// retained first). When the ring buffer has overflowed this is the
    /// most recent `TracerConfig::retention` spans. Under a sole sink
    /// ([`Tracer::set_sole_telemetry`]) it holds only the spans finished
    /// before the sink was attached: the sink's reader is the recorder.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Number of retained spans (see [`Tracer::spans`]).
    pub fn span_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.spans.lock().records.len(),
            None => 0,
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
                json_string(s.name),
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
            for (k, v) in s.attrs.iter() {
                let _ = write!(out, ",{}:{}", json_string(k), json_string(&v.to_string()));
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
            let mut path = vec![s.name];
            let mut cur = s.parent;
            while let Some(pid) = cur {
                match by_id.get(&pid.0) {
                    Some(p) => {
                        path.push(p.name);
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

/// Push a new open record onto this thread's stack: a child of `parent`
/// when given, else of the innermost open span, else a new trace's root.
fn open_span(
    inner: &Arc<TracerInner>,
    system: &'static str,
    name: &'static str,
    parent: Option<SpanContext>,
) -> SpanGuard {
    let span_id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
    let trace_id = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let innermost = stack.open_records().last().map(|r| SpanContext {
            trace_id: r.trace_id,
            span_id: r.span_id,
        });
        let (trace_id, parent) = match parent.or(innermost) {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (TraceId(inner.next_id.fetch_add(1, Ordering::Relaxed)), None),
        };
        let record = stack.open();
        (record.trace_id, record.span_id, record.parent) = (trace_id, span_id, parent);
        (record.name, record.system) = (name, system);
        record.start = inner.clock.now();
        trace_id
    });
    SpanGuard {
        open: Some(OpenSpan {
            tracer: Arc::clone(inner),
            ctx: SpanContext { trace_id, span_id },
            on_this_thread: PhantomData,
        }),
    }
}

#[derive(Debug)]
struct OpenSpan {
    tracer: Arc<TracerInner>,
    ctx: SpanContext,
    /// The record lives in the opening thread's span stack, so the guard
    /// must close there: it is neither `Send` nor `Sync`.
    on_this_thread: PhantomData<*const ()>,
}

/// RAII handle for an open span; records the span when dropped. Obtained
/// from [`Tracer::span`]. The record itself waits in the opening thread's
/// span stack, so the guard is three words and cannot leave that thread.
/// Guards should drop in reverse open order on a thread (the natural
/// result of scoping them); out of order is tolerated.
#[derive(Debug)]
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attach a key/value attribute. The value is converted only when the
    /// span is being recorded.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(open) = &self.open {
            let value = value.into();
            with_open(open.ctx.span_id, |stack, pos| {
                stack.records[pos].attrs.push(key, value);
            });
        }
    }

    /// Identity for parenting spans under this one from other threads
    /// (`None` on a disabled tracer). See [`Tracer::span_child_of`].
    pub fn context(&self) -> Option<SpanContext> {
        self.open.as_ref().map(|o| o.ctx)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let inner = &open.tracer;
        // The record is finished where it lies in the span stack and
        // copied from there; out-of-order drops are tolerated by closing
        // the matching entry rather than blindly the top.
        with_open(open.ctx.span_id, |stack, pos| {
            let record = &mut stack.records[pos];
            // Head-based sampling: unsampled traces still participate in
            // the span stack (so ids stay consistent) but record nothing.
            if inner.sampled(record.trace_id.0) {
                record.end = inner.clock.now();
                // A guard dropped during unwind did not complete its
                // operation; without this the span would be
                // indistinguishable from a normal completion and
                // flame/critical-path views would attribute the aborted
                // work as successful time.
                if std::thread::panicking() {
                    record.attrs.push("error", "panic".into());
                }
                // The enqueue holds the sink slot's lock: it never waits
                // on anything but the queue's own lock, which a drain
                // holds only while it reads.
                let sole = match &*inner.sink.lock() {
                    Some(attached) => {
                        if !telemetry_suppressed() {
                            attached.sink.span(record);
                        }
                        attached.sole
                    }
                    None => false,
                };
                if !sole && inner.spans.lock().push(record) {
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            stack.close(pos);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn hlc_tick_is_strictly_monotonic() {
        let mut clock = HlcClock::new(7);
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
        let mut receiver = HlcClock::new(2);
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
        let mut sender = HlcClock::new(1);
        let mut receiver = HlcClock::new(2);
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
        let zero = HlcStamp {
            physical_us: 0,
            logical: 0,
            node: 0,
        };
        assert!(zero < stamp);
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
        assert_eq!(child.attrs, [("bytes", 128)].into_iter().collect());
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
        assert!(g.open.is_none());
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
                let name = ["dag.node.0", "dag.node.1", "dag.node.2"][i];
                let _node = t2.span_child_of("dag", name, ctx);
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
        for name in [
            "op0", "op1", "op2", "op3", "op4", "op5", "op6", "op7", "op8", "op9",
        ] {
            drop(tracer.span("a", name));
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
            by_trace.entry(s.trace_id.0).or_default().push(s.name);
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
                assert_eq!(*name, "faas.cold_starts");
                assert_eq!(*delta, 1);
            }
            other => panic!("expected metric event, got {other:?}"),
        }
    }

    #[test]
    fn sink_and_ring_each_hold_the_record_by_value() {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let tracer = Tracer::with_config(
            clock,
            TracerConfig {
                retention: 1,
                sample_one_in: 1,
            },
        );
        let sink = TelemetrySink::new(16);
        tracer.set_telemetry(sink.clone());
        {
            let mut g = tracer.span("sys", "first");
            g.attr("k", "v");
            g.attr("n", 7u32);
            g.attr("ok", true);
            g.attr("cost_usd", 0.000_000_208);
        }
        let events = sink.drain(16);
        let [TelemetryEvent::Span(sent)] = &events[..] else {
            panic!("expected one span event, got {events:?}");
        };
        assert_eq!(tracer.spans(), std::slice::from_ref(sent));
        let text: Vec<String> = sent.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        assert_eq!(text, ["k=v", "n=7", "ok=true", "cost_usd=0.000000208"]);
        // The ring evicting its copy leaves the sink's intact.
        drop(tracer.span("sys", "second"));
        assert_eq!(tracer.dropped_spans(), 1);
        assert_eq!((sent.name, sent.attr("k")), ("first", Some(&"v".into())));
    }

    #[test]
    fn attributes_past_the_inline_six_spill_in_order() {
        let (tracer, _clock) = virtual_tracer();
        {
            let mut g = tracer.span("sys", "dispatch");
            for i in 0..20u64 {
                g.attr("entry", i);
            }
            g.attr("topic", "a topic name longer than twenty-two bytes");
        }
        let span = &tracer.spans()[0];
        assert_eq!(span.attrs.len(), 21);
        let entries: Vec<u64> = span
            .attrs
            .iter()
            .filter_map(|(_, v)| match v {
                AttrValue::U64(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(entries, (0..20).collect::<Vec<_>>());
        assert_eq!(
            span.attr("topic").map(ToString::to_string).as_deref(),
            Some("a topic name longer than twenty-two bytes")
        );
    }

    #[test]
    fn a_guard_is_three_words_and_a_disabled_one_converts_nothing() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 24);
        let mut g = Tracer::disabled().span("sys", "op");
        g.attr("path", "x".repeat(100));
        assert!(g.context().is_none());
    }

    #[test]
    fn interned_names_are_one_copy_each() {
        let a = intern(&format!("op.{}", 7)).expect("room");
        let b = intern("op.7").expect("room");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "op.7");
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
    fn a_sole_sink_is_the_only_recorder() {
        let (tracer, _clock) = virtual_tracer();
        drop(tracer.span("sys", "before"));
        let sink = TelemetrySink::new(16);
        tracer.set_sole_telemetry(sink.clone());
        assert!(tracer.telemetry().is_some());
        for _ in 0..3 {
            let mut g = tracer.span("sys", "op");
            g.attr("k", "v");
        }
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["before"],
            "the ring takes nothing once the sink is sole"
        );
        let events = sink.drain(16);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(
            |e| matches!(e, TelemetryEvent::Span(s) if s.name == "op" && s.attr("k").is_some())
        ));
        // Re-attaching as a plain sink writes the ring again.
        tracer.set_telemetry(sink.clone());
        drop(tracer.span("sys", "after"));
        assert_eq!(tracer.span_count(), 2);
        assert_eq!(sink.drain(16).len(), 1);
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
                .any(|(k, v)| k == "error" && *v == AttrValue::from("panic")),
            "unwound span missing error=panic: {:?}",
            doomed.attrs
        );
        let fine = spans.iter().find(|s| s.name == "fine").unwrap();
        assert!(fine.attrs.iter().all(|(k, _)| k != "error"));
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
                        if sink.metric(["t.even", "t.odd"][(t + i) as usize % 2], 1) {
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
        for _ in 0..sink.inner.capacity {
            assert!(sink.metric("fill", 1));
        }
        assert!(!sink.metric("overflow", 1));
        assert_eq!(sink.dropped(), base_dropped + 1);
        assert_eq!(sink.drain(usize::MAX).len(), sink.inner.capacity);
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
