//! The cluster observability plane: per-node telemetry agents, a
//! collector node, HLC-merged timelines, failure reconstruction with
//! MTTD/MTTR attribution, and grey-failure detection.
//!
//! Everything the single-process monitor takes for granted breaks on a
//! cluster: there is no shared tracer ring to scrape, node clocks are
//! skewed, and the telemetry itself rides the same faulty network as the
//! data plane. This module models that honestly:
//!
//! - A `TelemetryAgent` on every service node (brokers, workers, memory
//!   nodes, the client — not bookies, whose I/O is modeled in-process)
//!   stamps each event with a hybrid logical clock
//!   ([`HlcStamp`](taureau_core::trace::HlcStamp)) read off a
//!   deterministically *skewed* local clock, encodes it into the bytes of
//!   the next batch, and ships batches over the [`SimNet`](crate::transport) —
//!   subject to the same latency, drop, duplication, and partition faults
//!   as data traffic. Batches carry a sequence number and a cumulative
//!   event count so the collector can account for loss exactly.
//! - The [`Collector`] reads each batch in place: folds per-`(node, op)`
//!   latency sketches for the cluster [`HealthReport`], detects dropped
//!   batches by sequence/cumulative-count gaps, keeps what one HLC-ordered
//!   timeline needs, and runs the grey-failure detector: a node whose
//!   client-observed RPC p50 exceeds `ObsConfig::grey_ratio` × the fleet
//!   median of its role group is flagged *slow-but-alive* — before (or
//!   without) the heartbeat failure detector ever firing.
//! - `FailureTimeline::reconstruct` folds membership transitions, lease
//!   moves, fence rejections, consumer rebuilds, bookie replacement, and
//!   re-replication progress into per-incident records. Every unavailable
//!   microsecond is assigned to exactly one phase — detection, re-lease,
//!   subscription rebuild, re-replication drain — with the remainder
//!   explicitly unattributed, so "explained ≤ wall" holds by construction
//!   (the same discipline as the dispatch profiler in `taureau-prof`).
//!
//! The plane's own loss is a first-class measurement: `sent`, `received`,
//! and gap-detected `dropped` counters reconcile exactly once the agents
//! have synced (empty batches carrying the final cumulative count), even
//! under injected drops.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use bytes::{BufMut, Bytes};
use taureau_core::hash::FnvHashMap;
use taureau_core::id::NodeId;
use taureau_core::trace::{
    intern, suppress_telemetry, AttrValue, Attrs, HlcClock, HlcStamp, SpanId, SpanRecord,
    TelemetryEvent, TelemetrySink, TraceId,
};
use taureau_core::wire::{put_str, Reader};
use taureau_jiffy::{Jiffy, JiffyError};
use taureau_monitor::wire::{self as telwire, SpanRef};
use taureau_monitor::{render_trace_json, HealthReport, OpHealth, SpanEvent};
use taureau_sketches::KllSketch;

use crate::fabric::{ClusterFabric, NodeRole};
use crate::pulsar_cluster::{ClusterPulsar, TRACE_SYSTEM};
use crate::transport::Envelope;

/// Envelope kind used by telemetry batches on the fabric.
pub(crate) const TELEMETRY_KIND: &str = "telem";

/// Batch frame magic byte.
const MAGIC: u8 = b'O';
/// Batch frame version.
const VERSION: u8 = 1;

/// Bytes of data-plane batches the collector's flight recorder keeps
/// before evicting the oldest (about 2 500 four-RPC requests).
const RING_BYTES: usize = 4 << 20;

// -- configuration -----------------------------------------------------------

/// Tuning for the observability plane.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Events per batch before an early flush.
    pub(crate) batch_max: usize,
    /// Flush cadence for partially-filled batches.
    pub(crate) flush_every: Duration,
    /// Cadence of empty "sync" batches (they carry only the cumulative
    /// sent count, letting the collector finalize loss accounting).
    pub(crate) sync_every: Duration,
    /// Maximum per-node clock skew, microseconds. Each node gets a
    /// deterministic skew in `[0, skew_max_us]` added to its physical
    /// clock reads — HLC ordering must survive it.
    pub(crate) skew_max_us: u64,
    /// Minimum successful RPC samples per target before the grey detector
    /// will judge it.
    pub(crate) grey_min_samples: u64,
    /// A node is grey when its RPC p50 exceeds this multiple of the fleet
    /// median p50 within its role group.
    pub(crate) grey_ratio: f64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            batch_max: 64,
            flush_every: Duration::from_millis(5),
            sync_every: Duration::from_millis(25),
            skew_max_us: 500,
            grey_min_samples: 20,
            grey_ratio: 3.0,
        }
    }
}

/// Deterministic per-node clock skew in `[0, max_us]` — the fabric has
/// one virtual clock, so skew is modeled at the observation layer.
fn node_skew_us(node: NodeId, max_us: u64) -> u64 {
    if max_us == 0 {
        return 0;
    }
    (node.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % (max_us + 1)
}

fn role_code(role: NodeRole) -> u8 {
    match role {
        NodeRole::Broker => 0,
        NodeRole::Bookie => 1,
        NodeRole::Memory => 2,
        NodeRole::Worker => 3,
        NodeRole::Client => 4,
        NodeRole::Collector => 5,
    }
}

fn role_name(code: u8) -> &'static str {
    match code {
        0 => "broker",
        1 => "bookie",
        2 => "memory",
        3 => "worker",
        4 => "client",
        _ => "collector",
    }
}

// -- event model -------------------------------------------------------------

/// One observability event, as recorded on some node.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A finished span (re-encoded for the wire hop).
    Span(SpanEvent),
    /// A counter delta from an instrumented subsystem.
    Metric {
        /// Metric name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// The recording node's membership view gained or lost a peer.
    Membership {
        /// The peer that changed state.
        peer: u64,
        /// `true` = the peer (re)appeared, `false` = it vanished.
        up: bool,
    },
    /// A lease was (re)assigned.
    Lease {
        /// Lease-table key, e.g. `topic/jobs`.
        resource: String,
        /// New owner node.
        owner: u64,
        /// Fencing epoch.
        epoch: u64,
    },
    /// A stale broker was rejected by the lease fence.
    Fence {
        /// Topic the deposed broker tried to serve.
        topic: String,
        /// The fenced broker.
        node: u64,
    },
    /// A broker (re)built a consumer handle — subscription rebuild done.
    Rebuild {
        /// Topic subscribed.
        topic: String,
        /// Broker that rebuilt.
        node: u64,
    },
    /// A dead bookie was swapped for a spare.
    BookieReplaced {
        /// Dead bookie's fabric node.
        dead: u64,
        /// Activated spare's fabric node.
        target: u64,
    },
    /// One round of background re-replication.
    Repair {
        /// Ledgers repaired this round.
        ledgers: u64,
        /// Entries copied this round.
        entries: u64,
        /// Ledgers still queued.
        backlog: u64,
    },
    /// One client-observed RPC (successful ones feed the grey detector).
    Rpc {
        /// Target node.
        target: u64,
        /// Target's role (`role_code`).
        role: u8,
        /// Observed round-trip latency, microseconds.
        latency_us: u64,
        /// Whether the RPC succeeded.
        ok: bool,
    },
}

/// An event with its origin node and HLC stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedEvent {
    /// Node the event was recorded on.
    pub node: NodeId,
    /// HLC stamp assigned at record time on that node.
    pub hlc: HlcStamp,
    /// The event itself.
    pub event: ObsEvent,
}

// -- wire format -------------------------------------------------------------
//
// batch := MAGIC VERSION node:u64 batch_seq:u64 cum_events:u64 count:u32
//          (hlc:20B tag:u8 payload)*
//
// Strings are u16-length-prefixed UTF-8; spans embed the taureau-monitor
// span frame with a u32 length prefix. Decoders are total: malformed
// batches decode to `None` and are counted, never panicked on.

const TAG_SPAN: u8 = b'S';
const TAG_METRIC: u8 = b'M';
const TAG_MEMBERSHIP: u8 = b'V';
const TAG_LEASE: u8 = b'L';
const TAG_FENCE: u8 = b'F';
const TAG_REBUILD: u8 = b'C';
const TAG_BOOKIE: u8 = b'B';
const TAG_REPAIR: u8 = b'R';
const TAG_RPC: u8 = b'Q';

/// Decoded batch header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchHeader {
    /// Sending agent's node.
    pub(crate) node: NodeId,
    /// Per-agent batch sequence number (gap ⇒ dropped batch).
    pub(crate) batch_seq: u64,
    /// Agent's cumulative events handed to the network, *including* this
    /// batch — the collector reconciles loss against it.
    pub(crate) cum_events: u64,
    /// Events in this batch (0 for a pure sync batch).
    pub(crate) count: u32,
}

impl BatchHeader {
    const WIRE_LEN: usize = 2 + 8 + 8 + 8 + 4;

    fn to_bytes(self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        let mut w = &mut out[..];
        w.put_u8(MAGIC);
        w.put_u8(VERSION);
        w.put_u64_le(self.node.raw());
        w.put_u64_le(self.batch_seq);
        w.put_u64_le(self.cum_events);
        w.put_u32_le(self.count);
        out
    }
}

/// Append a span event's tag and the frame `write` produces behind its
/// `u32` length.
fn put_span_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    out.put_u8(TAG_SPAN);
    let at = out.len();
    out.put_u32_le(0);
    write(out);
    let len = (out.len() - at - 4) as u32;
    (&mut out[at..at + 4]).put_u32_le(len);
}

/// Append a metric event's tag and body.
fn put_metric(out: &mut Vec<u8>, name: &str, delta: u64) {
    out.put_u8(TAG_METRIC);
    put_str(out, name);
    out.put_u64_le(delta);
}

/// Append one stamped event in its wire form.
fn put_event(out: &mut Vec<u8>, hlc: HlcStamp, ev: &ObsEvent) {
    out.put_slice(&hlc.to_bytes());
    match ev {
        ObsEvent::Span(span) => {
            put_span_frame(out, |out| out.put_slice(&telwire::encode_span(span)))
        }
        ObsEvent::Metric { name, delta } => put_metric(out, name, *delta),
        ObsEvent::Membership { peer, up } => {
            out.put_u8(TAG_MEMBERSHIP);
            out.put_u64_le(*peer);
            out.put_u8(u8::from(*up));
        }
        ObsEvent::Lease {
            resource,
            owner,
            epoch,
        } => {
            out.put_u8(TAG_LEASE);
            put_str(out, resource);
            out.put_u64_le(*owner);
            out.put_u64_le(*epoch);
        }
        ObsEvent::Fence { topic, node } => {
            out.put_u8(TAG_FENCE);
            put_str(out, topic);
            out.put_u64_le(*node);
        }
        ObsEvent::Rebuild { topic, node } => {
            out.put_u8(TAG_REBUILD);
            put_str(out, topic);
            out.put_u64_le(*node);
        }
        ObsEvent::BookieReplaced { dead, target } => {
            out.put_u8(TAG_BOOKIE);
            out.put_u64_le(*dead);
            out.put_u64_le(*target);
        }
        ObsEvent::Repair {
            ledgers,
            entries,
            backlog,
        } => {
            out.put_u8(TAG_REPAIR);
            out.put_u64_le(*ledgers);
            out.put_u64_le(*entries);
            out.put_u64_le(*backlog);
        }
        ObsEvent::Rpc {
            target,
            role,
            latency_us,
            ok,
        } => {
            out.put_u8(TAG_RPC);
            out.put_u64_le(*target);
            out.put_u8(*role);
            out.put_u64_le(*latency_us);
            out.put_u8(u8::from(*ok));
        }
    }
}

/// One event of a batch decoded in place. Spans and metrics — all but a
/// handful of what a batch carries — borrow their strings from it; RPC
/// samples and the rare control-plane events come out owned.
enum EventRef<'a> {
    Span(SpanRef<'a>),
    Metric { name: &'a str, delta: u64 },
    Owned(ObsEvent),
}

impl EventRef<'_> {
    /// Membership, lease, fence, rebuild, bookie or repair.
    fn is_control(&self) -> bool {
        matches!(self, EventRef::Owned(ev) if !matches!(ev, ObsEvent::Rpc { .. }))
    }

    fn into_owned(self) -> ObsEvent {
        match self {
            EventRef::Span(span) => ObsEvent::Span(span.to_owned()),
            EventRef::Metric { name, delta } => ObsEvent::Metric {
                name: name.to_string(),
                delta,
            },
            EventRef::Owned(event) => event,
        }
    }
}

fn read_event<'a>(r: &mut Reader<'a>) -> Option<(HlcStamp, EventRef<'a>)> {
    let hlc = HlcStamp::from_bytes(r.bytes(HlcStamp::WIRE_LEN)?)?;
    let event = match r.u8()? {
        TAG_SPAN => {
            let len = r.u32()? as usize;
            return Some((hlc, EventRef::Span(SpanRef::parse(r.bytes(len)?)?)));
        }
        TAG_METRIC => {
            let (name, delta) = (r.str()?, r.u64()?);
            return Some((hlc, EventRef::Metric { name, delta }));
        }
        tag => read_owned(tag, r)?,
    };
    Some((hlc, EventRef::Owned(event)))
}

/// The body of an event that is neither a span nor a metric.
fn read_owned(tag: u8, r: &mut Reader<'_>) -> Option<ObsEvent> {
    Some(match tag {
        TAG_MEMBERSHIP => ObsEvent::Membership {
            peer: r.u64()?,
            up: r.u8()? != 0,
        },
        TAG_LEASE => ObsEvent::Lease {
            resource: r.str()?.to_string(),
            owner: r.u64()?,
            epoch: r.u64()?,
        },
        TAG_FENCE => ObsEvent::Fence {
            topic: r.str()?.to_string(),
            node: r.u64()?,
        },
        TAG_REBUILD => ObsEvent::Rebuild {
            topic: r.str()?.to_string(),
            node: r.u64()?,
        },
        TAG_BOOKIE => ObsEvent::BookieReplaced {
            dead: r.u64()?,
            target: r.u64()?,
        },
        TAG_REPAIR => ObsEvent::Repair {
            ledgers: r.u64()?,
            entries: r.u64()?,
            backlog: r.u64()?,
        },
        TAG_RPC => ObsEvent::Rpc {
            target: r.u64()?,
            role: r.u8()?,
            latency_us: r.u64()?,
            ok: r.u8()? != 0,
        },
        _ => return None,
    })
}

/// A batch validated end to end (a batch is folded whole or not at all)
/// and read in place. Bytes after the last event are ignored.
struct BatchRef<'a> {
    header: BatchHeader,
    events: Reader<'a>,
}

impl<'a> BatchRef<'a> {
    /// The header, and a reader at the first event.
    fn header(buf: &'a [u8]) -> Option<(BatchHeader, Reader<'a>)> {
        let mut r = Reader::new(buf);
        if r.u8()? != MAGIC || r.u8()? != VERSION {
            return None;
        }
        let header = BatchHeader {
            node: NodeId(r.u64()?),
            batch_seq: r.u64()?,
            cum_events: r.u64()?,
            count: r.u32()?,
        };
        Some((header, r))
    }

    fn parse(buf: &'a [u8]) -> Option<Self> {
        let (header, events) = Self::header(buf)?;
        let batch = Self { header, events };
        (batch.events().count() == header.count as usize).then_some(batch)
    }

    /// The batch's `header.count` events, in order.
    fn events(&self) -> impl Iterator<Item = (HlcStamp, EventRef<'a>)> {
        let mut r = self.events.clone();
        (0..self.header.count).map_while(move |_| read_event(&mut r))
    }
}

// -- telemetry agent ---------------------------------------------------------

/// The per-node telemetry shipper: stamps events with the node's skewed
/// HLC, encodes them straight into the bytes the next batch will carry,
/// and flushes batches to the collector over the fabric network.
pub(crate) struct TelemetryAgent {
    node: NodeId,
    hlc: HlcClock,
    skew_us: u64,
    /// Room for a batch header, then the pending events in wire form.
    pending: Vec<u8>,
    /// Where each pending event ends in `pending` (a size-triggered
    /// flush cuts at one).
    ends: Vec<usize>,
    batch_max: usize,
    flush_every: Duration,
    sync_every: Duration,
    last_flush: Duration,
    last_sync: Duration,
    next_batch_seq: u64,
    events_sent: u64,
    batches_sent: u64,
    pending_lost: u64,
    /// The node's membership belief as last diffed, with the generation
    /// it had then.
    last_view: Option<(u64, BTreeSet<NodeId>)>,
}

impl TelemetryAgent {
    fn new(node: NodeId, cfg: &ObsConfig) -> Self {
        Self {
            node,
            hlc: HlcClock::new(node.raw()),
            skew_us: node_skew_us(node, cfg.skew_max_us),
            pending: vec![0; BatchHeader::WIRE_LEN],
            ends: Vec::new(),
            batch_max: cfg.batch_max.max(1),
            flush_every: cfg.flush_every,
            sync_every: cfg.sync_every,
            last_flush: Duration::ZERO,
            last_sync: Duration::ZERO,
            next_batch_seq: 0,
            events_sent: 0,
            batches_sent: 0,
            pending_lost: 0,
            last_view: None,
        }
    }

    /// The node this agent runs on.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// The node's next HLC stamp: fabric time plus modeled skew.
    fn stamp(&mut self, now: Duration) -> HlcStamp {
        self.hlc.tick(now.as_micros() as u64 + self.skew_us)
    }

    /// Stamp and buffer one event.
    pub(crate) fn record(&mut self, now: Duration, event: ObsEvent) {
        let hlc = self.stamp(now);
        put_event(&mut self.pending, hlc, &event);
        self.ends.push(self.pending.len());
    }

    /// [`Self::record`] of `ObsEvent::Span(SpanEvent::from_record(span))`,
    /// without building the owned event.
    pub(crate) fn record_span(&mut self, now: Duration, span: &SpanRecord) {
        let hlc = self.stamp(now);
        self.pending.put_slice(&hlc.to_bytes());
        put_span_frame(&mut self.pending, |out| telwire::encode_record(span, out));
        self.ends.push(self.pending.len());
    }

    /// [`Self::record`] of an `ObsEvent::Metric`, without building it.
    pub(crate) fn record_metric(&mut self, now: Duration, name: &str, delta: u64) {
        let hlc = self.stamp(now);
        self.pending.put_slice(&hlc.to_bytes());
        put_metric(&mut self.pending, name, delta);
        self.ends.push(self.pending.len());
    }

    /// Diff the node's membership view against the last one, recording
    /// up/down transitions. The first view is the baseline (no events);
    /// an unchanged generation means an unchanged view and costs nothing.
    fn observe_view(&mut self, now: Duration, generation: u64, view: &BTreeSet<NodeId>) {
        let Some((seen, mut prev)) = self.last_view.take() else {
            self.last_view = Some((generation, view.clone()));
            return;
        };
        if seen != generation {
            for &peer in view.difference(&prev) {
                let peer = peer.raw();
                self.record(now, ObsEvent::Membership { peer, up: true });
            }
            for &peer in prev.difference(view) {
                let peer = peer.raw();
                self.record(now, ObsEvent::Membership { peer, up: false });
            }
            prev.clone_from(view);
        }
        self.last_view = Some((generation, prev));
    }

    /// Crash side effect: buffered events die with the process.
    fn on_kill(&mut self) {
        self.pending_lost += self.ends.len() as u64;
        self.pending.truncate(BatchHeader::WIRE_LEN);
        self.ends.clear();
        self.last_view = None;
    }

    /// Ship the oldest `count` pending events as one batch.
    fn send_batch(&mut self, fabric: &ClusterFabric, collector: NodeId, count: usize) {
        let header = BatchHeader {
            node: self.node,
            batch_seq: self.next_batch_seq,
            cum_events: self.events_sent + count as u64,
            count: count as u32,
        };
        let start = BatchHeader::WIRE_LEN;
        let end = count.checked_sub(1).map_or(start, |last| self.ends[last]);
        self.pending[..start].copy_from_slice(&header.to_bytes());
        let body = Bytes::copy_from_slice(&self.pending[..end]);
        // Counted as sent whether or not the network later drops it —
        // exactly the asymmetry the collector's gap detection reconciles.
        fabric.send(self.node, collector, 0, TELEMETRY_KIND, body, None);
        self.next_batch_seq += 1;
        self.events_sent += count as u64;
        self.batches_sent += 1;
        self.pending.drain(start..end);
        self.ends.drain(..count);
        for e in &mut self.ends {
            *e -= end - start;
        }
    }

    /// The instant [`Self::flush`] next has something to send: at once
    /// for a full batch, then a partial batch's flush, then an agent with
    /// history's sync; never for an agent that has nothing and never sent.
    fn next_due(&self) -> Duration {
        if self.ends.len() >= self.batch_max {
            Duration::ZERO
        } else if !self.ends.is_empty() {
            self.last_flush + self.flush_every
        } else if self.events_sent > 0 {
            self.last_sync + self.sync_every
        } else {
            Duration::MAX
        }
    }

    /// Flush due batches (size- or time-triggered), plus periodic empty
    /// sync batches so the collector can finalize loss accounting.
    fn flush(&mut self, fabric: &ClusterFabric, collector: NodeId, now: Duration) {
        while self.ends.len() >= self.batch_max {
            self.send_batch(fabric, collector, self.batch_max);
            self.last_flush = now;
            self.last_sync = now;
        }
        if !self.ends.is_empty() && now >= self.last_flush + self.flush_every {
            self.send_batch(fabric, collector, self.ends.len());
            self.last_flush = now;
            self.last_sync = now;
        }
        if self.ends.is_empty() && self.events_sent > 0 && now >= self.last_sync + self.sync_every {
            self.send_batch(fabric, collector, 0);
            self.last_sync = now;
        }
    }
}

// -- collector ---------------------------------------------------------------

/// Per-agent receive ledger.
#[derive(Debug, Clone, Copy, Default)]
struct AgentLedger {
    /// Events received (batches deduplicated by sequence number).
    received: u64,
    /// Highest `cum_events` seen from the agent.
    last_cum: u64,
    /// Highest batch sequence processed.
    last_seq: Option<u64>,
    /// Duplicate batches discarded.
    dup_batches: u64,
}

/// Per-`(node, op)` latency aggregation for the cluster health report.
struct OpAgg {
    sketch: KllSketch,
    count: u64,
    errors: u64,
    max_us: f64,
}

impl OpAgg {
    fn new() -> Self {
        Self {
            sketch: KllSketch::new(200),
            count: 0,
            errors: 0,
            max_us: 0.0,
        }
    }

    fn add(&mut self, latency_us: u64, error: bool) {
        let latency = latency_us as f64;
        self.sketch.update(latency);
        self.count += 1;
        self.max_us = self.max_us.max(latency);
        self.errors += u64::from(error);
    }
}

/// Where a staged span folds: an op the collector knows, or the n-th op
/// its batch is the first to carry.
#[derive(Clone, Copy)]
enum OpSlot {
    Known(usize),
    New(usize),
}

/// What one batch will fold, staged while the batch is read and
/// committed only once all of it has parsed. The buffers are reused
/// across batches, so a warm collector stages without allocating.
#[derive(Default)]
struct Staged {
    /// `(op, latency µs, outcome == "error")` for each span.
    spans: Vec<(OpSlot, u64, bool)>,
    /// Op names new to the batch's node, in first-seen order.
    new_ops: Vec<String>,
    /// `(role, target, latency µs)` for each successful RPC.
    rpcs: Vec<(u8, u64, u64)>,
    /// Control-plane events, decoded.
    control: Vec<StampedEvent>,
    /// Spans, metrics and RPC samples: what the flight recorder keeps.
    data_events: u64,
}

impl Staged {
    fn clear(&mut self) {
        self.spans.clear();
        self.new_ops.clear();
        self.rpcs.clear();
        self.control.clear();
        self.data_events = 0;
    }

    /// The slot of an op name the collector does not know for this node.
    fn new_op(&mut self, name: &str) -> OpSlot {
        let at = self.new_ops.iter().position(|n| n == name);
        OpSlot::New(at.unwrap_or_else(|| {
            self.new_ops.push(name.to_string());
            self.new_ops.len() - 1
        }))
    }
}

/// Successful-RPC latencies of one target, with the median the grey
/// detector judges it by.
struct RpcTarget {
    sketch: KllSketch,
    /// `sketch.quantile(0.5)`; `None` once the sketch has moved since.
    p50: Option<f64>,
}

impl RpcTarget {
    fn p50(&self) -> Option<f64> {
        self.p50.or_else(|| self.sketch.quantile(0.5))
    }
}

/// The collector node's state. A batch is read once, in place: each event
/// is validated and staged as it is read, and the staged fold goes into
/// the aggregates, loss ledgers and grey detector only when the whole
/// batch has parsed. Control-plane events
/// are kept decoded for the life of the stack — failure reconstruction
/// needs every one, and they are rare; everything else stays as the bytes
/// it arrived in, in a flight-recorder ring bounded by `RING_BYTES`,
/// decoded when [`Self::events`] or [`Self::span_records`] asks.
pub struct Collector {
    control: Vec<StampedEvent>,
    /// Data-plane batches, oldest first, each with its data-event count.
    ring: VecDeque<(Bytes, u64)>,
    ring_bytes: usize,
    ring_cap: usize,
    events_evicted: u64,
    events_received: u64,
    batches_received: u64,
    decode_errors: u64,
    agents: FnvHashMap<NodeId, AgentLedger>,
    /// node → op name → index into `op_aggs`.
    op_stats: BTreeMap<u64, FnvHashMap<String, usize>>,
    op_aggs: Vec<OpAgg>,
    /// The batch being ingested (empty between batches).
    staged: Staged,
    /// `(role, target)` → latencies: a role group is one key range.
    rpc: BTreeMap<(u8, u64), RpcTarget>,
    /// Role groups the batch being ingested folded an RPC into.
    touched_roles: Vec<u8>,
    grey_min_samples: u64,
    grey_ratio: f64,
    /// node → first time the detector flagged it.
    grey_flags: BTreeMap<u64, Duration>,
}

/// The grey detector's current judgement of one RPC target.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GreyVerdict {
    /// The judged node.
    pub(crate) node: NodeId,
    /// Its role group name (e.g. `broker`).
    pub(crate) role: &'static str,
    /// Successful RPC samples folded for it.
    pub(crate) samples: u64,
    /// Its p50 RPC latency, microseconds.
    pub(crate) p50_us: f64,
    /// The fleet median p50 within its role group, microseconds.
    pub(crate) fleet_median_us: f64,
    /// Whether it currently exceeds the grey threshold.
    pub(crate) slow: bool,
    /// When the detector first flagged it, if ever.
    pub(crate) first_flagged: Option<Duration>,
}

impl Collector {
    fn new(cfg: &ObsConfig) -> Self {
        Self {
            control: Vec::new(),
            ring: VecDeque::new(),
            ring_bytes: 0,
            ring_cap: RING_BYTES,
            events_evicted: 0,
            events_received: 0,
            batches_received: 0,
            decode_errors: 0,
            agents: FnvHashMap::default(),
            op_stats: BTreeMap::new(),
            op_aggs: Vec::new(),
            staged: Staged::default(),
            rpc: BTreeMap::new(),
            touched_roles: Vec::new(),
            grey_min_samples: cfg.grey_min_samples,
            grey_ratio: cfg.grey_ratio,
            grey_flags: BTreeMap::new(),
        }
    }

    /// Total events received (after batch dedup).
    pub fn events_received(&self) -> u64 {
        self.events_received
    }

    /// Batches processed (duplicates excluded).
    pub fn batches_received(&self) -> u64 {
        self.batches_received
    }

    /// Events known lost: for each agent, the highest cumulative sent
    /// count it reported minus what actually arrived. Exact once the
    /// agents have synced (see [`ClusterObs::telemetry_synced`]).
    pub(crate) fn detected_dropped(&self) -> u64 {
        self.agents
            .values()
            .map(|l| l.last_cum.saturating_sub(l.received))
            .sum()
    }

    /// Ingest one telemetry envelope (non-telemetry kinds are ignored).
    pub(crate) fn ingest(&mut self, env: &Envelope, now: Duration) {
        if env.kind != TELEMETRY_KIND {
            return;
        }
        let mut staged = std::mem::take(&mut self.staged);
        if let Some(header) = self.stage(&env.body, &mut staged) {
            self.commit(header, &env.body, &mut staged);
            self.update_grey(now);
        } else {
            self.decode_errors += 1;
        }
        staged.clear();
        self.staged = staged;
    }

    /// The one walk over a batch: validate every event and stage what it
    /// folds. `None`, with nothing folded, unless all `count` events parse.
    fn stage(&self, body: &[u8], staged: &mut Staged) -> Option<BatchHeader> {
        let (header, mut r) = BatchRef::header(body)?;
        let ops = self.op_stats.get(&header.node.raw());
        for _ in 0..header.count {
            let hlc = HlcStamp::from_bytes(r.bytes(HlcStamp::WIRE_LEN)?)?;
            match r.u8()? {
                TAG_SPAN => {
                    let len = r.u32()? as usize;
                    let mut error = None;
                    let span = SpanRef::parse_visiting(r.bytes(len)?, |k, v| {
                        if k == "outcome" && error.is_none() {
                            error = Some(v == "error");
                        }
                    })?;
                    let op = match ops.and_then(|ops| ops.get(span.name)) {
                        Some(&i) => OpSlot::Known(i),
                        None => staged.new_op(span.name),
                    };
                    let latency = span.end_us.saturating_sub(span.start_us);
                    staged.spans.push((op, latency, error == Some(true)));
                    staged.data_events += 1;
                }
                TAG_METRIC => {
                    r.str()?;
                    r.u64()?;
                    staged.data_events += 1;
                }
                tag => match read_owned(tag, &mut r)? {
                    // Only successful RPCs feed the sketches: timeouts to
                    // a *dead* node are the heartbeat detector's business;
                    // grey means slow-but-answering.
                    ObsEvent::Rpc {
                        target,
                        role,
                        latency_us,
                        ok,
                    } => {
                        if ok {
                            staged.rpcs.push((role, target, latency_us));
                        }
                        staged.data_events += 1;
                    }
                    event => staged.control.push(StampedEvent {
                        node: header.node,
                        hlc,
                        event,
                    }),
                },
            }
        }
        Some(header)
    }

    /// Fold a whole staged batch, unless its agent already sent it.
    fn commit(&mut self, header: BatchHeader, body: &Bytes, staged: &mut Staged) {
        let ledger = self.agents.entry(header.node).or_default();
        // Per-link delivery is FIFO, so a duplicate (same seq) or stale
        // batch always arrives at-or-after the original: drop it.
        if ledger.last_seq.is_some_and(|s| header.batch_seq <= s) {
            ledger.dup_batches += 1;
            return;
        }
        ledger.last_seq = Some(header.batch_seq);
        ledger.last_cum = ledger.last_cum.max(header.cum_events);
        ledger.received += u64::from(header.count);
        self.batches_received += 1;
        self.events_received += u64::from(header.count);
        self.control.append(&mut staged.control);
        if !staged.spans.is_empty() {
            let ops = self.op_stats.entry(header.node.raw()).or_default();
            let first_new = self.op_aggs.len();
            for name in staged.new_ops.drain(..) {
                ops.insert(name, self.op_aggs.len());
                self.op_aggs.push(OpAgg::new());
            }
            for &(op, latency_us, error) in &staged.spans {
                let i = match op {
                    OpSlot::Known(i) => i,
                    OpSlot::New(n) => first_new + n,
                };
                self.op_aggs[i].add(latency_us, error);
            }
        }
        for &(role, target, latency_us) in &staged.rpcs {
            let t = self.rpc.entry((role, target)).or_insert_with(|| RpcTarget {
                sketch: KllSketch::new(200),
                p50: None,
            });
            t.sketch.update(latency_us as f64);
            t.p50 = None;
            if !self.touched_roles.contains(&role) {
                self.touched_roles.push(role);
            }
        }
        // Flight recorder: evict from the old end, never the newest.
        if staged.data_events > 0 {
            self.ring_bytes += body.len();
            self.ring.push_back((body.clone(), staged.data_events));
            while self.ring_bytes > self.ring_cap && self.ring.len() > 1 {
                let (old, lost) = self.ring.pop_front().expect("len > 1");
                self.ring_bytes -= old.len();
                self.events_evicted += lost;
            }
        }
    }

    /// `(node, p50)` of the role's members with enough samples to judge,
    /// and the median of those p50s (0 for an empty group).
    fn grey_group(&self, role: u8) -> (Vec<(u64, f64)>, f64) {
        let members: Vec<(u64, f64)> = self
            .rpc
            .range((role, 0)..=(role, u64::MAX))
            .filter(|(_, t)| t.sketch.total() >= self.grey_min_samples)
            .filter_map(|(&(_, node), t)| Some((node, t.p50()?)))
            .collect();
        let mut p50s: Vec<f64> = members.iter().map(|&(_, p)| p).collect();
        p50s.sort_by(|a, b| a.total_cmp(b));
        let median = p50s.get(p50s.len() / 2).copied().unwrap_or(0.0);
        (members, median)
    }

    /// Whether a member at `p50` is over the group's grey threshold. A
    /// median needs a fleet: under 3 judgeable peers there is no "normal"
    /// to deviate from, and nobody is slow.
    fn is_slow(&self, (members, median): &(Vec<(u64, f64)>, f64), p50: f64) -> bool {
        members.len() >= 3 && *median > 0.0 && p50 >= self.grey_ratio * median
    }

    /// Re-judge the role groups this batch folded an RPC into, recording
    /// first-flag times (a judgement is a function of the group's sketches
    /// alone). No quantile is derived for a group too small to judge, and
    /// otherwise only for the members whose sketch moved.
    fn update_grey(&mut self, now: Duration) {
        while let Some(role) = self.touched_roles.pop() {
            let group = (role, 0)..=(role, u64::MAX);
            let min = self.grey_min_samples;
            let judgeable = |t: &RpcTarget| t.sketch.total() >= min;
            let members = self.rpc.range(group.clone()).filter(|(_, t)| judgeable(t));
            if members.count() < 3 {
                continue;
            }
            for (_, t) in self.rpc.range_mut(group).filter(|(_, t)| judgeable(t)) {
                t.p50 = t.p50();
            }
            let group = self.grey_group(role);
            for &(node, p50) in &group.0 {
                if self.is_slow(&group, p50) {
                    self.grey_flags.entry(node).or_insert(now);
                }
            }
        }
    }

    /// Current verdict for every RPC target, grouped by role.
    pub(crate) fn grey_verdicts(&self) -> Vec<GreyVerdict> {
        let mut out = Vec::new();
        let mut groups = BTreeMap::new();
        for (&(role, node), target) in &self.rpc {
            let Some(p50) = target.p50() else {
                continue;
            };
            let group = groups.entry(role).or_insert_with(|| self.grey_group(role));
            let judged = target.sketch.total() >= self.grey_min_samples;
            out.push(GreyVerdict {
                node: NodeId(node),
                role: role_name(role),
                samples: target.sketch.total(),
                p50_us: p50,
                fleet_median_us: group.1,
                slow: judged && self.is_slow(group, p50),
                first_flagged: self.grey_flags.get(&node).copied(),
            });
        }
        out
    }

    /// Nodes ever flagged grey, with first-flag times.
    pub fn grey_flags(&self) -> &BTreeMap<u64, Duration> {
        &self.grey_flags
    }

    /// The flight recorder's data-plane events, decoded.
    fn recorded(&self) -> impl Iterator<Item = (NodeId, HlcStamp, EventRef<'_>)> {
        let batches = self.ring.iter().filter_map(|(b, _)| BatchRef::parse(b));
        batches.flat_map(|batch| {
            let node = batch.header.node;
            let data = batch.events().filter(|(_, ev)| !ev.is_control());
            data.map(move |(hlc, ev)| (node, hlc, ev))
        })
    }

    /// The merged timeline, HLC-ordered (the one order every observer
    /// agrees on): all control-plane events, and the recorder's data plane.
    pub fn events(&self) -> Vec<StampedEvent> {
        let mut out = self.control.clone();
        out.extend(self.recorded().map(|(node, hlc, ev)| StampedEvent {
            node,
            hlc,
            event: ev.into_owned(),
        }));
        out.sort_by_key(|e| e.hlc);
        out
    }

    /// Reassemble the flight recorder's spans as [`SpanRecord`]s so
    /// `taureau-prof` can stitch cross-node traces. Subsystem names are
    /// re-interned ([`SpanRecord::system`] is `&'static str`); unknown
    /// systems and attribute keys fall back to `"remote"`.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .recorded()
            .filter_map(|(_, _, ev)| match ev {
                EventRef::Span(span) => Some(span_record(&span)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|s| (s.trace_id.0, s.start));
        out
    }

    /// Cluster-wide health snapshot: per-`(op, node)` latency/error rows,
    /// telemetry-plane counters, and grey flags as active alerts.
    pub(crate) fn health_report(&self, now: Duration) -> HealthReport {
        let mut ops = Vec::new();
        for (node, name, &i) in self
            .op_stats
            .iter()
            .flat_map(|(node, ops)| ops.iter().map(move |(name, i)| (node, name, i)))
        {
            let agg = &self.op_aggs[i];
            ops.push(OpHealth {
                op: name.clone(),
                node: Some(*node),
                count: agg.count,
                p50_us: agg.sketch.quantile(0.50).unwrap_or(0.0),
                p90_us: agg.sketch.quantile(0.90).unwrap_or(0.0),
                p99_us: agg.sketch.quantile(0.99).unwrap_or(0.0),
                max_us: agg.max_us,
                error_rate: if agg.count == 0 {
                    0.0
                } else {
                    agg.errors as f64 / agg.count as f64
                },
            });
        }
        ops.sort_by(|a, b| (&a.op, a.node).cmp(&(&b.op, b.node)));
        let active_alerts = self
            .grey_flags
            .keys()
            .map(|n| format!("grey-node-{n}"))
            .collect();
        HealthReport {
            at: now,
            ops,
            top_functions: Vec::new(),
            counters: vec![
                (
                    "cluster.telemetry_events_received".into(),
                    self.events_received,
                ),
                (
                    "cluster.telemetry_batches_received".into(),
                    self.batches_received,
                ),
                (
                    "cluster.telemetry_dropped_detected".into(),
                    self.detected_dropped(),
                ),
                ("cluster.telemetry_decode_errors".into(), self.decode_errors),
                (
                    "cluster.telemetry_events_evicted".into(),
                    self.events_evicted,
                ),
            ],
            active_alerts,
            alerts: Vec::new(),
            histogram_summaries: Vec::new(),
            cold_start_rate: 0.0,
            decode_errors: self.decode_errors,
        }
    }
}

/// Re-intern a wire span into a [`SpanRecord`] (static-str fields;
/// values stay the text they arrived as).
fn span_record(span: &SpanRef<'_>) -> SpanRecord {
    fn intern_system(s: &str) -> &'static str {
        match s {
            "taureau-cluster" => "taureau-cluster",
            "taureau-pulsar" => "taureau-pulsar",
            "taureau-faas" => "taureau-faas",
            "taureau-jiffy" => "taureau-jiffy",
            "taureau-bench" => "taureau-bench",
            "taureau-dag" => "taureau-dag",
            _ => "remote",
        }
    }
    fn intern_key(s: &str) -> Option<&'static str> {
        Some(match s {
            "node" => "node",
            "outcome" => "outcome",
            "function" => "function",
            "topic" => "topic",
            "kind" => "kind",
            "request" => "request",
            "bytes" => "bytes",
            _ => return None,
        })
    }
    SpanRecord {
        trace_id: TraceId(span.trace_id),
        span_id: SpanId(span.span_id),
        parent: span.parent.map(SpanId),
        name: intern(span.name).unwrap_or("remote"),
        system: intern_system(span.system),
        start: Duration::from_micros(span.start_us),
        end: Duration::from_micros(span.end_us),
        attrs: span
            .attrs()
            .filter_map(|(k, v)| Some((intern_key(k)?, v)))
            .collect::<Attrs>(),
    }
}

// -- failure timeline --------------------------------------------------------

/// What kind of node an incident took down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A broker crash: unavailability until lease + subscription recover.
    Broker,
    /// A bookie crash: durability debt until re-replication drains.
    Bookie,
}

/// Ground truth about one injected fault, supplied by the harness: when
/// the node died and when the *client* first saw the affected workload
/// succeed again. The reconstruction fills in everything between.
#[derive(Debug, Clone)]
pub struct IncidentSpec {
    /// Incident label, e.g. `kill-1`.
    pub id: String,
    /// The node that died.
    pub node: NodeId,
    /// What kind of node it was.
    pub kind: IncidentKind,
    /// Fault injection time.
    pub fault_at: Duration,
    /// Client-observed recovery time.
    pub recovered_at: Duration,
}

/// The phases an unavailability window is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutagePhase {
    /// Fault → first membership-down report (or in-process crash signal).
    Detection,
    /// Detection → lease moved / bookie replaced.
    Release,
    /// Release → consumer handle rebuilt on the new owner.
    SubscriptionRebuild,
    /// Rebuild/replacement → re-replication backlog drained.
    RereplicationDrain,
    /// Remainder of the window no boundary event explains.
    Unattributed,
}

impl std::fmt::Display for OutagePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OutagePhase::Detection => "detection",
            OutagePhase::Release => "re-lease",
            OutagePhase::SubscriptionRebuild => "sub-rebuild",
            OutagePhase::RereplicationDrain => "rerepl-drain",
            OutagePhase::Unattributed => "unattributed",
        })
    }
}

/// One reconstructed incident: boundaries, phases, MTTD/MTTR.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Harness label.
    pub id: String,
    /// The dead node.
    pub(crate) node: NodeId,
    /// Node kind.
    pub(crate) kind: IncidentKind,
    /// Fault injection time (ground truth).
    pub(crate) fault_at: Duration,
    /// Client-observed recovery (ground truth).
    pub(crate) recovered_at: Duration,
    /// First failure-detection signal, if captured.
    pub(crate) detected_at: Option<Duration>,
    /// Lease move / bookie replacement, if captured.
    pub released_at: Option<Duration>,
    /// Phase attribution. Sums to exactly the wall window; the
    /// [`OutagePhase::Unattributed`] entry absorbs what no event explains.
    pub phases: Vec<(OutagePhase, Duration)>,
}

impl Incident {
    /// Total unavailability window (fault → client-observed recovery).
    pub fn wall(&self) -> Duration {
        self.recovered_at.saturating_sub(self.fault_at)
    }

    /// Mean-time-to-detect: fault → first detection signal.
    pub fn mttd(&self) -> Option<Duration> {
        self.detected_at.map(|d| d.saturating_sub(self.fault_at))
    }

    /// Mean-time-to-recover: the full wall window.
    pub fn mttr(&self) -> Duration {
        self.wall()
    }

    /// Time attributed to a named phase (never the whole window unless
    /// events cover it).
    pub fn phase(&self, phase: OutagePhase) -> Duration {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|&(_, d)| d)
            .unwrap_or(Duration::ZERO)
    }

    /// Explained time: everything except [`OutagePhase::Unattributed`].
    /// `explained() ≤ wall()` by construction.
    pub fn explained(&self) -> Duration {
        self.phases
            .iter()
            .filter(|(p, _)| *p != OutagePhase::Unattributed)
            .map(|&(_, d)| d)
            .sum()
    }

    /// Explained fraction of the wall window (1.0 for a zero window).
    pub fn explained_fraction(&self) -> f64 {
        let wall = self.wall().as_nanos();
        if wall == 0 {
            return 1.0;
        }
        self.explained().as_nanos() as f64 / wall as f64
    }
}

/// Per-incident reconstruction over the collector's merged event stream.
#[derive(Debug, Clone, Default)]
pub struct FailureTimeline {
    /// Reconstructed incidents, in spec order.
    pub incidents: Vec<Incident>,
}

impl FailureTimeline {
    /// Fold the HLC-ordered event stream into one record per spec.
    ///
    /// Boundary events are searched within each incident's window and
    /// clamped monotonic into `[fault_at, recovered_at]`, so phase widths
    /// are non-negative and sum exactly to the wall window — a missing
    /// boundary collapses its phase to zero and leaves the remainder
    /// unattributed rather than inventing an explanation.
    pub(crate) fn reconstruct(events: &[StampedEvent], specs: &[IncidentSpec]) -> Self {
        let mut sorted: Vec<&StampedEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.hlc);
        let incidents = specs
            .iter()
            .map(|spec| Self::reconstruct_one(&sorted, spec))
            .collect();
        Self { incidents }
    }

    fn reconstruct_one(sorted: &[&StampedEvent], spec: &IncidentSpec) -> Incident {
        let t0 = spec.fault_at;
        let t_end = spec.recovered_at.max(t0);
        let window = |e: &&&StampedEvent| {
            let t = e.hlc.time();
            t >= t0 && t <= t_end + Duration::from_millis(2)
        };
        let dead = spec.node.raw();
        // First membership-down report for the dead node from any agent.
        let mut detected_at = sorted
            .iter()
            .filter(window)
            .find(|e| matches!(&e.event, ObsEvent::Membership { peer, up: false } if *peer == dead))
            .map(|e| e.hlc.time());
        let (released_at, rebuilt_at, drained_at) = match spec.kind {
            IncidentKind::Broker => {
                let released = sorted
                    .iter()
                    .filter(window)
                    .find(|e| matches!(&e.event, ObsEvent::Lease { owner, .. } if *owner != dead))
                    .map(|e| e.hlc.time());
                let rebuilt = sorted
                    .iter()
                    .filter(window)
                    .filter(|e| released.is_none_or(|r| e.hlc.time() >= r))
                    .find(|e| matches!(&e.event, ObsEvent::Rebuild { node, .. } if *node != dead))
                    .map(|e| e.hlc.time());
                (released, rebuilt, None)
            }
            IncidentKind::Bookie => {
                let replaced = sorted
                    .iter()
                    .filter(window)
                    .find(|e| {
                        matches!(&e.event, ObsEvent::BookieReplaced { dead: d, .. } if *d == dead)
                    })
                    .map(|e| e.hlc.time());
                // The storage tier notices a crashed bookie at write time
                // (in-process signal) — often before heartbeats expire.
                // Replacement implies detection.
                if let Some(r) = replaced {
                    detected_at = Some(detected_at.map_or(r, |d| d.min(r)));
                }
                let drained = sorted
                    .iter()
                    .filter(window)
                    .filter(|e| replaced.is_none_or(|r| e.hlc.time() >= r))
                    .find(|e| matches!(&e.event, ObsEvent::Repair { backlog: 0, .. }))
                    .map(|e| e.hlc.time());
                (replaced, None, drained)
            }
        };
        // Clamp boundaries monotonic into the window: a missing boundary
        // inherits the previous one (zero-width phase).
        let clamp = |t: Option<Duration>, prev: Duration| -> Duration {
            t.map_or(prev, |t| t.clamp(prev, t_end))
        };
        let b_detect = clamp(detected_at, t0);
        let b_release = clamp(released_at, b_detect);
        let b_rebuild = clamp(rebuilt_at, b_release);
        let b_drain = clamp(drained_at, b_rebuild);
        let phases = vec![
            (OutagePhase::Detection, b_detect - t0),
            (OutagePhase::Release, b_release - b_detect),
            (OutagePhase::SubscriptionRebuild, b_rebuild - b_release),
            (OutagePhase::RereplicationDrain, b_drain - b_rebuild),
            (OutagePhase::Unattributed, t_end - b_drain),
        ];
        Incident {
            id: spec.id.clone(),
            node: spec.node,
            kind: spec.kind,
            fault_at: t0,
            recovered_at: t_end,
            detected_at,
            released_at,
            phases,
        }
    }

    /// Mean MTTD over incidents that captured a detection signal.
    pub fn mean_mttd(&self) -> Option<Duration> {
        let samples: Vec<Duration> = self.incidents.iter().filter_map(|i| i.mttd()).collect();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<Duration>() / samples.len() as u32)
    }

    /// Mean MTTR over all incidents.
    pub fn mean_mttr(&self) -> Option<Duration> {
        if self.incidents.is_empty() {
            return None;
        }
        Some(
            self.incidents.iter().map(|i| i.mttr()).sum::<Duration>() / self.incidents.len() as u32,
        )
    }

    /// The worst explained fraction across incidents (1.0 when empty).
    pub fn min_explained_fraction(&self) -> f64 {
        self.incidents
            .iter()
            .map(|i| i.explained_fraction())
            .fold(1.0, f64::min)
    }

    /// Human-readable incident report (see DESIGN.md §12 for a guided
    /// read-through).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for inc in &self.incidents {
            let _ = writeln!(
                out,
                "incident {} — {} node n{} down at {:.3}s, recovered {:.3}s",
                inc.id,
                match inc.kind {
                    IncidentKind::Broker => "broker",
                    IncidentKind::Bookie => "bookie",
                },
                inc.node.raw(),
                inc.fault_at.as_secs_f64(),
                inc.recovered_at.as_secs_f64(),
            );
            let _ = writeln!(
                out,
                "  MTTD {}  MTTR {:.1}ms  explained {:.1}%",
                inc.mttd().map_or("n/a".to_string(), |d| format!(
                    "{:.1}ms",
                    d.as_secs_f64() * 1e3
                )),
                inc.mttr().as_secs_f64() * 1e3,
                inc.explained_fraction() * 100.0,
            );
            for (phase, width) in &inc.phases {
                if width.is_zero() {
                    continue;
                }
                let wall = inc.wall().max(Duration::from_nanos(1));
                let _ = writeln!(
                    out,
                    "    {:<13} {:>9.1}ms  {:>5.1}%",
                    phase.to_string(),
                    width.as_secs_f64() * 1e3,
                    width.as_nanos() as f64 / wall.as_nanos() as f64 * 100.0,
                );
            }
        }
        out
    }
}

// -- the plane ---------------------------------------------------------------

/// End-to-end loss reconciliation for the telemetry plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossAccounting {
    /// Events handed to the network by all agents.
    pub sent: u64,
    /// Events that arrived at the collector (deduplicated).
    pub received: u64,
    /// Events the collector knows were lost (cumulative-count gaps).
    pub dropped: u64,
    /// Events still buffered on agents (not yet handed to the network).
    pub pending: u64,
    /// Events that died with crashed processes before sending.
    pub pending_lost: u64,
    /// Batches handed to the network.
    pub batches_sent: u64,
    /// Batches processed by the collector.
    pub batches_received: u64,
}

impl LossAccounting {
    /// Whether the books balance exactly: every sent event is either
    /// received or detected-dropped. Requires agents to have synced.
    pub fn exact(&self) -> bool {
        self.sent == self.received + self.dropped
    }
}

/// A fault noted by the stack (used for failover-triggered blackbox
/// dumps; experiments build their own [`IncidentSpec`]s with measured
/// recovery times).
#[derive(Debug, Clone, Copy)]
struct RecordedFault {
    node: NodeId,
    kind: IncidentKind,
    at: Duration,
}

/// The whole observability plane: one agent per service node, one
/// collector node, and the glue that routes tracer output, control-plane
/// events, and membership transitions into agents each step.
pub struct ClusterObs {
    collector_node: NodeId,
    client: NodeId,
    /// Indexed by node id; `None` for a node that runs no agent.
    agents: Vec<Option<TelemetryAgent>>,
    collector: Collector,
    sink: TelemetrySink,
    faults: Vec<RecordedFault>,
    dumped_incidents: usize,
    dump_errors: u64,
    /// [`ClusterFabric::belief_version`] at the last membership diff.
    seen_beliefs: Option<u64>,
    /// No live agent has anything to ship before this instant (a lower
    /// bound: recording only pulls it earlier).
    next_flush: Duration,
}

impl ClusterObs {
    /// Attach the plane to a fabric: adds the collector node, creates an
    /// agent for every broker/worker/memory node and the client, and
    /// hooks the fabric tracer's telemetry sink. Call before the stack
    /// starts serving (the collector node must join membership warm-up).
    pub(crate) fn new(fabric: &mut ClusterFabric, cfg: ObsConfig, client: NodeId) -> Self {
        let collector_node = fabric.add_node(NodeRole::Collector);
        let mut agents = Vec::new();
        agents.resize_with(collector_node.raw() as usize, || None);
        for role in [
            NodeRole::Broker,
            NodeRole::Worker,
            NodeRole::Memory,
            NodeRole::Client,
        ] {
            for node in fabric.nodes_with_role(role) {
                agents[node.raw() as usize] = Some(TelemetryAgent::new(node, &cfg));
            }
        }
        let sink = TelemetrySink::new(1 << 16);
        fabric.tracer().set_telemetry(sink.clone());
        let collector = Collector::new(&cfg);
        Self {
            collector_node,
            client,
            agents,
            collector,
            sink,
            faults: Vec::new(),
            dumped_incidents: 0,
            dump_errors: 0,
            seen_beliefs: None,
            next_flush: Duration::MAX,
        }
    }

    /// The collector's fabric node.
    pub fn collector_node(&self) -> NodeId {
        self.collector_node
    }

    /// The collector's merged state.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// One node's agent, if it runs one.
    pub(crate) fn agent(&self, node: NodeId) -> Option<&TelemetryAgent> {
        self.agents.get(node.raw() as usize)?.as_ref()
    }

    /// The agent recording for `node` (unknown/agent-less nodes fall
    /// back to the client agent — the admin plane's point of view).
    fn agent_for(&mut self, node: NodeId) -> Option<&mut TelemetryAgent> {
        let node = match self.agent(node) {
            Some(_) => node,
            None => self.client,
        };
        self.agents.get_mut(node.raw() as usize)?.as_mut()
    }

    /// Record on the agent filing for `node`, and note when that agent
    /// next has something to ship.
    fn record_with(&mut self, node: NodeId, record: impl FnOnce(&mut TelemetryAgent)) {
        let Some(agent) = self.agent_for(node) else {
            return;
        };
        record(agent);
        let due = agent.next_due();
        self.next_flush = self.next_flush.min(due);
    }

    fn record_on(&mut self, node: NodeId, now: Duration, event: ObsEvent) {
        self.record_with(node, |agent| agent.record(now, event));
    }

    /// One plane step, run after the stack routes service mail: drains
    /// the tracer sink to the owning nodes' agents, drains control-plane
    /// events, diffs membership views when some belief or the roster
    /// moved, and flushes batches when some agent has one due.
    pub(crate) fn step(&mut self, fabric: &mut ClusterFabric, pulsar: &mut ClusterPulsar) {
        let now = fabric.now();
        // 1. Locally-traced spans/metrics → the node that recorded them:
        // a cluster handler's span carries the fabric node it ran on;
        // every other span (a `node` of some other kind included) is the
        // client/admin's.
        let sink = self.sink.clone();
        sink.drain_with(usize::MAX, |event| match event {
            TelemetryEvent::Span(record) => {
                let node = match (record.system, record.attr("node")) {
                    (TRACE_SYSTEM, Some(&AttrValue::U64(node))) => NodeId(node),
                    _ => self.client,
                };
                self.record_with(node, |agent| agent.record_span(now, record));
            }
            &TelemetryEvent::Metric { name, delta } => {
                self.record_with(self.client, |agent| agent.record_metric(now, name, delta));
            }
        });
        // 2. Pulsar control/data-plane events → the node they happened on
        // (bookie-tier events route to the admin/client agent).
        for event in pulsar.drain_obs_events() {
            let node = match event {
                ObsEvent::Lease { owner: n, .. }
                | ObsEvent::Rebuild { node: n, .. }
                | ObsEvent::Fence { node: n, .. } => NodeId(n),
                _ => self.client,
            };
            self.record_on(node, now, event);
        }
        // 3. Membership transitions, as each node's own detector sees
        // them (the collector keeps the *first* report — min detection),
        // diffed only when some belief or the roster moved.
        let beliefs = fabric.belief_version();
        if self.seen_beliefs != Some(beliefs) {
            self.seen_beliefs = Some(beliefs);
            for agent in self.agents.iter_mut().flatten() {
                if let Some((generation, view)) = fabric.belief(agent.node) {
                    agent.observe_view(now, generation, view);
                }
            }
            // Transitions are events to ship, and a revived node's agent
            // is live again: look at every agent.
            self.next_flush = Duration::ZERO;
        }
        // 4. Ship what's due, when anything is.
        if now >= self.next_flush {
            let mut next = Duration::MAX;
            for agent in self.agents.iter_mut().flatten() {
                if fabric.is_alive(agent.node()) {
                    agent.flush(fabric, self.collector_node, now);
                    next = next.min(agent.next_due());
                }
            }
            self.next_flush = next;
        }
    }

    /// The earliest instant at which some agent may have a batch or a sync
    /// to ship ([`Self::step`] ships nothing before it).
    pub(crate) fn next_flush(&self) -> Duration {
        self.next_flush
    }

    /// Ingest an envelope delivered to the collector node.
    pub(crate) fn ingest(&mut self, env: &Envelope, now: Duration) {
        self.collector.ingest(env, now);
    }

    /// Record one client-observed RPC (feeds the grey detector via the
    /// client's agent, like any other event — telemetry about the network
    /// rides the network).
    pub(crate) fn record_rpc(
        &mut self,
        now: Duration,
        target: NodeId,
        role: NodeRole,
        latency: Duration,
        ok: bool,
    ) {
        self.record_on(
            self.client,
            now,
            ObsEvent::Rpc {
                target: target.raw(),
                role: role_code(role),
                latency_us: latency.as_micros() as u64,
                ok,
            },
        );
    }

    /// Crash side effect: the node's buffered telemetry dies with it.
    pub(crate) fn on_kill(&mut self, node: NodeId, role: Option<NodeRole>, now: Duration) {
        if let Some(Some(agent)) = self.agents.get_mut(node.raw() as usize) {
            agent.on_kill();
        }
        match role {
            Some(NodeRole::Broker) => self.faults.push(RecordedFault {
                node,
                kind: IncidentKind::Broker,
                at: now,
            }),
            Some(NodeRole::Bookie) => self.faults.push(RecordedFault {
                node,
                kind: IncidentKind::Bookie,
                at: now,
            }),
            _ => {}
        }
    }

    /// End-to-end loss reconciliation right now.
    pub fn loss_accounting(&self) -> LossAccounting {
        let agents = || self.agents.iter().flatten();
        let sent: u64 = agents().map(|a| a.events_sent).sum();
        let pending: u64 = agents().map(|a| a.ends.len() as u64).sum();
        let pending_lost: u64 = agents().map(|a| a.pending_lost).sum();
        let batches_sent: u64 = agents().map(|a| a.batches_sent).sum();
        LossAccounting {
            sent,
            received: self.collector.events_received(),
            dropped: self.collector.detected_dropped(),
            pending,
            pending_lost,
            batches_sent,
            batches_received: self.collector.batches_received(),
        }
    }

    /// Whether every agent's final cumulative count has reached the
    /// collector — the point at which [`LossAccounting::exact`] is
    /// guaranteed. Dead agents can never sync; revive them first.
    pub(crate) fn telemetry_synced(&self) -> bool {
        self.agents
            .iter()
            .flatten()
            .all(|a| a.events_sent == self.collector.agents.get(&a.node).map_or(0, |l| l.last_cum))
    }

    /// Reconstruct the failure timeline for harness-supplied incidents.
    pub fn timeline(&self, specs: &[IncidentSpec]) -> FailureTimeline {
        // Every boundary it looks for is a control-plane event.
        FailureTimeline::reconstruct(&self.collector.control, specs)
    }

    /// Cluster health snapshot (collector state + plane counters).
    pub(crate) fn health_report(&self, now: Duration) -> HealthReport {
        self.collector.health_report(now)
    }

    /// Failed blackbox writes.
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors
    }

    /// Dump the reconstructed timeline + collector trace to Jiffy
    /// `/blackbox/<incident>/` — called by the stack when a failover
    /// fires. Recovery times are provisional (`now`): the flight recorder
    /// writes what it knows at dump time. Returns the incident id, or
    /// `None` when there is nothing new to dump.
    pub(crate) fn dump_failover(&mut self, jiffy: &Jiffy, now: Duration) -> Option<String> {
        if self.faults.len() <= self.dumped_incidents {
            return None;
        }
        let id = format!("incident-{}", self.dumped_incidents + 1);
        self.dumped_incidents = self.faults.len();
        let specs: Vec<IncidentSpec> = self
            .faults
            .iter()
            .enumerate()
            .map(|(i, f)| IncidentSpec {
                id: format!("fault-{}", i + 1),
                node: f.node,
                kind: f.kind,
                fault_at: f.at,
                recovered_at: now,
            })
            .collect();
        let timeline = self.timeline(&specs);
        let loss = self.loss_accounting();
        let mut summary = timeline.render_text();
        summary.push_str(&format!(
            "telemetry: sent={} received={} dropped={} pending={} pending_lost={}\n",
            loss.sent, loss.received, loss.dropped, loss.pending, loss.pending_lost
        ));
        for verdict in self.collector.grey_verdicts() {
            if verdict.slow {
                summary.push_str(&format!(
                    "grey: {} n{} p50 {:.0}us vs fleet median {:.0}us\n",
                    verdict.role,
                    verdict.node.raw(),
                    verdict.p50_us,
                    verdict.fleet_median_us
                ));
            }
        }
        let trace_json = render_trace_json(&self.collector.span_records());
        // Blackbox writes over an instrumented Jiffy must not emit
        // telemetry about themselves.
        let result = suppress_telemetry(|| -> Result<(), JiffyError> {
            let base = format!("/blackbox/{id}");
            jiffy
                .create_file(format!("{base}/timeline.txt").as_str())?
                .append(summary.as_bytes())?;
            jiffy
                .create_file(format!("{base}/trace.json").as_str())?
                .append(trace_json.as_bytes())?;
            Ok(())
        });
        if result.is_err() {
            self.dump_errors += 1;
            return None;
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// Reference encoder: a whole batch from owned events.
    fn encode_batch(header: BatchHeader, events: &[(HlcStamp, ObsEvent)]) -> Bytes {
        assert_eq!(header.count as usize, events.len());
        let mut out = Vec::with_capacity(32 + events.len() * 48);
        out.extend_from_slice(&header.to_bytes());
        for (hlc, ev) in events {
            put_event(&mut out, *hlc, ev);
        }
        Bytes::from(out)
    }

    /// Reference decoder: a whole batch into owned events; `None` on any
    /// malformation.
    fn decode_batch(buf: &[u8]) -> Option<(BatchHeader, Vec<(HlcStamp, ObsEvent)>)> {
        let batch = BatchRef::parse(buf)?;
        let events = batch.events().map(|(hlc, ev)| (hlc, ev.into_owned()));
        Some((batch.header, events.collect()))
    }

    fn stamp(node: u64, us: u64) -> HlcStamp {
        HlcStamp {
            physical_us: us,
            logical: 0,
            node,
        }
    }

    fn ev(node: u64, us: u64, event: ObsEvent) -> StampedEvent {
        StampedEvent {
            node: NodeId(node),
            hlc: stamp(node, us),
            event,
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn batch_wire_roundtrip_and_total_decode() {
        let events = vec![
            (
                stamp(3, 1_000),
                ObsEvent::Span(SpanEvent {
                    trace_id: 7,
                    span_id: 8,
                    parent: Some(6),
                    system: "taureau-cluster".into(),
                    name: "cluster.pub".into(),
                    start_us: 900,
                    end_us: 1_000,
                    attrs: vec![("node".into(), "3".into())],
                }),
            ),
            (
                stamp(3, 1_001),
                ObsEvent::Metric {
                    name: "pulsar.publishes".into(),
                    delta: 2,
                },
            ),
            (stamp(3, 1_002), ObsEvent::Membership { peer: 5, up: false }),
            (
                stamp(3, 1_003),
                ObsEvent::Lease {
                    resource: "topic/t".into(),
                    owner: 2,
                    epoch: 9,
                },
            ),
            (
                stamp(3, 1_004),
                ObsEvent::Fence {
                    topic: "t".into(),
                    node: 1,
                },
            ),
            (
                stamp(3, 1_005),
                ObsEvent::Rebuild {
                    topic: "t".into(),
                    node: 2,
                },
            ),
            (
                stamp(3, 1_006),
                ObsEvent::BookieReplaced { dead: 6, target: 7 },
            ),
            (
                stamp(3, 1_007),
                ObsEvent::Repair {
                    ledgers: 4,
                    entries: 64,
                    backlog: 0,
                },
            ),
            (
                stamp(3, 1_008),
                ObsEvent::Rpc {
                    target: 2,
                    role: 0,
                    latency_us: 1_500,
                    ok: true,
                },
            ),
        ];
        let header = BatchHeader {
            node: NodeId(3),
            batch_seq: 11,
            cum_events: 120,
            count: events.len() as u32,
        };
        let bytes = encode_batch(header, &events);
        // One of every event kind, as the encoder wrote it before events
        // were encoded at record time (captured on the commit before).
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4f0103000000000000000b00000000000000780000000000000009000000e8030000000000000000\
             00000300000000000000535400000054530700000000000000080000000000000001060000000000\
             00008403000000000000e8030000000000000f00746175726561752d636c75737465720b00636c75\
             737465722e707562010004006e6f6465010033e9030000000000000000000003000000000000004d\
             100070756c7361722e7075626c69736865730200000000000000ea03000000000000000000000300\
             00000000000056050000000000000000eb030000000000000000000003000000000000004c070074\
             6f7069632f7402000000000000000900000000000000ec0300000000000000000000030000000000\
             0000460100740100000000000000ed03000000000000000000000300000000000000430100740200\
             000000000000ee030000000000000000000003000000000000004206000000000000000700000000\
             000000ef030000000000000000000003000000000000005204000000000000004000000000000000\
             0000000000000000f00300000000000000000000030000000000000051020000000000000000dc05\
             00000000000001"
        );
        let (h2, e2) = decode_batch(&bytes).expect("roundtrip");
        assert_eq!(h2, header);
        assert_eq!(e2, events);
        // Total decoders: truncation and garbage yield None, not panics.
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(decode_batch(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(decode_batch(b"not a batch").is_none());
    }

    /// A span whose name passes the `u16` length, in two-byte characters,
    /// ships in a batch the collector reads whole: the name is cut at the
    /// last character boundary that fits, and the control-plane event
    /// beside it survives (cut mid-character, the batch was dropped whole).
    #[test]
    fn a_long_non_ascii_span_name_leaves_its_batch_readable() {
        let mut agent = TelemetryAgent::new(NodeId(3), &ObsConfig::default());
        let record = SpanRecord {
            trace_id: TraceId(1),
            span_id: SpanId(2),
            parent: None,
            name: "é".repeat(35_000).leak(),
            system: "taureau-cluster",
            start: ms(1),
            end: ms(2),
            attrs: Attrs::new(),
        };
        agent.record_span(ms(2), &record);
        let fence = ObsEvent::Fence {
            topic: "t".into(),
            node: 1,
        };
        agent.record(ms(3), fence.clone());
        let header = BatchHeader {
            node: NodeId(3),
            batch_seq: 0,
            cum_events: 2,
            count: 2,
        };
        agent.pending[..BatchHeader::WIRE_LEN].copy_from_slice(&header.to_bytes());
        let (_, events) = decode_batch(&agent.pending).expect("the batch reads whole");
        let ObsEvent::Span(span) = &events[0].1 else {
            panic!("not a span: {:?}", events[0].1);
        };
        assert_eq!(span.name, "é".repeat(32_767));
        assert_eq!(events[1].1, fence);
    }

    #[test]
    fn gap_detection_makes_loss_accounting_exact() {
        let cfg = ObsConfig::default();
        let mut collector = Collector::new(&cfg);
        let agent = NodeId(1);
        let deliver = |c: &mut Collector, seq: u64, cum: u64, n: usize| {
            let events: Vec<(HlcStamp, ObsEvent)> = (0..n)
                .map(|i| {
                    (
                        stamp(1, 1_000 + seq * 100 + i as u64),
                        ObsEvent::Membership { peer: 2, up: true },
                    )
                })
                .collect();
            let header = BatchHeader {
                node: agent,
                batch_seq: seq,
                cum_events: cum,
                count: n as u32,
            };
            let body = encode_batch(header, &events);
            let env = Envelope {
                from: agent,
                to: NodeId(9),
                seq,
                req: 0,
                kind: TELEMETRY_KIND,
                body,
                ctx: None,
            };
            c.ingest(&env, ms(seq + 1));
        };
        // Batches 0 (3 events) and 2 (4 events) arrive; batch 1 (5
        // events) was dropped by the network; batch 2 is duplicated.
        deliver(&mut collector, 0, 3, 3);
        deliver(&mut collector, 2, 12, 4);
        deliver(&mut collector, 2, 12, 4); // dup: ignored
        assert_eq!(collector.events_received(), 7);
        assert_eq!(collector.detected_dropped(), 5);
        // A final sync batch (0 events, cum still 12) changes nothing —
        // the books already balance: 12 sent = 7 received + 5 dropped.
        deliver(&mut collector, 3, 12, 0);
        assert_eq!(collector.detected_dropped(), 5);
        assert_eq!(collector.batches_received(), 3);
    }

    #[test]
    fn grey_detector_flags_slow_node_only() {
        let cfg = ObsConfig::default();
        let mut collector = Collector::new(&cfg);
        // Role 0 fleet: nodes 0..4 at ~1ms p50, node 3 at ~9ms.
        for round in 0..30u64 {
            let seq = round;
            let events: Vec<(HlcStamp, ObsEvent)> = (0..5u64)
                .map(|n| {
                    (
                        stamp(4, 10_000 + round * 50 + n),
                        ObsEvent::Rpc {
                            target: n,
                            role: 0,
                            latency_us: if n == 3 { 9_000 } else { 1_000 + n * 20 },
                            ok: true,
                        },
                    )
                })
                .collect();
            let header = BatchHeader {
                node: NodeId(4),
                batch_seq: seq,
                cum_events: (seq + 1) * 5,
                count: 5,
            };
            let env = Envelope {
                from: NodeId(4),
                to: NodeId(9),
                seq,
                req: 0,
                kind: TELEMETRY_KIND,
                body: encode_batch(header, &events),
                ctx: None,
            };
            collector.ingest(&env, ms(round + 1));
        }
        let verdicts = collector.grey_verdicts();
        let slow: Vec<u64> = verdicts
            .iter()
            .filter(|v| v.slow)
            .map(|v| v.node.raw())
            .collect();
        assert_eq!(slow, vec![3], "verdicts: {verdicts:?}");
        assert!(collector.grey_flags().contains_key(&3));
        assert!(verdicts.iter().all(|v| v.role == "broker"));
        // Healthy nodes were never flagged.
        for v in &verdicts {
            if v.node.raw() != 3 {
                assert!(v.first_flagged.is_none(), "{v:?}");
            }
        }
    }

    #[test]
    fn timeline_attribution_explained_is_bounded_by_wall() {
        // Broker incident: kill at 100ms, detected 180ms, lease 320ms,
        // rebuild 340ms, client recovery 345ms.
        let events = vec![
            ev(2, 180_000, ObsEvent::Membership { peer: 1, up: false }),
            ev(
                2,
                320_000,
                ObsEvent::Lease {
                    resource: "topic/t".into(),
                    owner: 2,
                    epoch: 3,
                },
            ),
            ev(
                2,
                340_000,
                ObsEvent::Rebuild {
                    topic: "t".into(),
                    node: 2,
                },
            ),
        ];
        let spec = IncidentSpec {
            id: "kill-1".into(),
            node: NodeId(1),
            kind: IncidentKind::Broker,
            fault_at: ms(100),
            recovered_at: ms(345),
        };
        let timeline = FailureTimeline::reconstruct(&events, &[spec]);
        let inc = &timeline.incidents[0];
        assert_eq!(inc.mttd(), Some(ms(80)));
        assert_eq!(inc.mttr(), ms(245));
        assert_eq!(inc.phase(OutagePhase::Detection), ms(80));
        assert_eq!(inc.phase(OutagePhase::Release), ms(140));
        assert_eq!(inc.phase(OutagePhase::SubscriptionRebuild), ms(20));
        assert_eq!(inc.phase(OutagePhase::Unattributed), ms(5));
        assert!(inc.explained() <= inc.wall());
        let total: Duration = inc.phases.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, inc.wall(), "phases must partition the window");
        assert!((inc.explained_fraction() - 240.0 / 245.0).abs() < 1e-9);
        let text = timeline.render_text();
        assert!(text.contains("kill-1"));
        assert!(text.contains("re-lease"));
    }

    #[test]
    fn timeline_missing_events_stay_unattributed() {
        // No boundary events captured at all: nothing explained, nothing
        // invented.
        let spec = IncidentSpec {
            id: "kill-2".into(),
            node: NodeId(1),
            kind: IncidentKind::Broker,
            fault_at: ms(100),
            recovered_at: ms(400),
        };
        let timeline = FailureTimeline::reconstruct(&[], &[spec]);
        let inc = &timeline.incidents[0];
        assert_eq!(inc.explained(), Duration::ZERO);
        assert_eq!(inc.phase(OutagePhase::Unattributed), ms(300));
        assert_eq!(inc.explained_fraction(), 0.0);
        assert!(inc.mttd().is_none());
    }

    #[test]
    fn timeline_bookie_uses_replacement_as_detection() {
        // The storage tier replaced the bookie (write-time crash signal)
        // before heartbeats expired; repair drains at 500ms.
        let events = vec![
            ev(4, 150_000, ObsEvent::BookieReplaced { dead: 6, target: 7 }),
            ev(4, 210_000, ObsEvent::Membership { peer: 6, up: false }),
            ev(
                4,
                300_000,
                ObsEvent::Repair {
                    ledgers: 4,
                    entries: 40,
                    backlog: 8,
                },
            ),
            ev(
                4,
                500_000,
                ObsEvent::Repair {
                    ledgers: 4,
                    entries: 40,
                    backlog: 0,
                },
            ),
        ];
        let spec = IncidentSpec {
            id: "bookie-1".into(),
            node: NodeId(6),
            kind: IncidentKind::Bookie,
            fault_at: ms(120),
            recovered_at: ms(500),
        };
        let timeline = FailureTimeline::reconstruct(&events, &[spec]);
        let inc = &timeline.incidents[0];
        assert_eq!(inc.mttd(), Some(ms(30)), "replacement implies detection");
        assert_eq!(inc.phase(OutagePhase::Detection), ms(30));
        assert_eq!(inc.phase(OutagePhase::RereplicationDrain), ms(350));
        assert_eq!(inc.phase(OutagePhase::Unattributed), Duration::ZERO);
        assert!((inc.explained_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn span_records_reassemble_for_prof() {
        let span = SpanEvent {
            trace_id: 1,
            span_id: 2,
            parent: None,
            system: "taureau-faas".into(),
            name: "faas.invoke".into(),
            start_us: 100,
            end_us: 300,
            attrs: vec![
                ("function".into(), "thumb".into()),
                ("weird-key".into(), "dropped".into()),
            ],
        };
        let reassemble = |span: &SpanEvent| {
            let frame = telwire::encode_span(span);
            span_record(&SpanRef::parse(&frame).expect("valid frame"))
        };
        let record = reassemble(&span);
        assert_eq!(record.system, "taureau-faas");
        assert_eq!(record.trace_id, TraceId(1));
        assert_eq!(record.attrs, [("function", "thumb")].into_iter().collect());
        let unknown = SpanEvent {
            system: "someday-system".into(),
            ..span
        };
        assert_eq!(reassemble(&unknown).system, "remote");
    }

    #[test]
    fn node_skew_is_deterministic_and_bounded() {
        for n in 0..64u64 {
            let s = node_skew_us(NodeId(n), 500);
            assert!(s <= 500);
            assert_eq!(s, node_skew_us(NodeId(n), 500));
        }
        // Not all equal (otherwise skew tests nothing).
        let distinct: BTreeSet<u64> = (0..16).map(|n| node_skew_us(NodeId(n), 500)).collect();
        assert!(distinct.len() > 4);
        assert_eq!(node_skew_us(NodeId(3), 0), 0);
    }

    // -- the streaming plane == the eager one it replaced --------------------

    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;
    use taureau_core::rng::det_rng;

    fn telem(from: NodeId, body: Bytes) -> Envelope {
        Envelope {
            from,
            to: NodeId(99),
            seq: 0,
            req: 0,
            kind: TELEMETRY_KIND,
            body,
            ctx: None,
        }
    }

    /// A producer-side span with everything the wire can carry: empty and
    /// 64 KiB-overflowing names, 0–20 attributes (past the inline six),
    /// typed values, non-ASCII throughout.
    fn random_record(rng: &mut impl Rng) -> SpanRecord {
        use std::sync::LazyLock;
        const SYSTEMS: [&str; 4] = ["taureau-faas", "taureau-cluster", "", "système-π"];
        const KEYS: [&str; 5] = ["node", "outcome", "function", "ключ", ""];
        const NAMES: [&str; 5] = ["faas.invoke", "cluster.pub", "pulsar.dispatch", "", "öp"];
        static LONG: LazyLock<[String; 2]> = LazyLock::new(|| {
            // 80 000 bytes of `é`: truncated on the wire.
            ["x".repeat(u16::MAX as usize), "é".repeat(40_000)]
        });
        let name = match rng.gen_range(0..12) {
            n @ 0..2 => LONG[n].as_str(),
            n => NAMES[n % NAMES.len()],
        };
        let attrs = (0..rng.gen_range(0..=20))
            .map(|_| {
                let value: AttrValue = match rng.gen_range(0..6) {
                    0 => "error".into(),
                    1 => "ok".into(),
                    2 => rng.gen_range(0..20u64).into(),
                    3 => (rng.gen_range(0..20u64) as f64 * 1e-9).into(),
                    4 => "väl".repeat(rng.gen_range(0..12)).as_str().into(),
                    _ => rng.gen::<bool>().into(),
                };
                (KEYS[rng.gen_range(0..KEYS.len())], value)
            })
            .collect();
        let start = rng.gen_range(0..1_000_000u64);
        SpanRecord {
            trace_id: TraceId(rng.gen()),
            span_id: SpanId(rng.gen()),
            parent: rng.gen_bool(0.5).then(|| SpanId(rng.gen())),
            name,
            system: SYSTEMS[rng.gen_range(0..SYSTEMS.len())],
            start: Duration::from_micros(start),
            end: Duration::from_micros(start + rng.gen_range(0..5_000u64)),
            attrs,
        }
    }

    /// Any event but a span. RPC targets are unique to their role group
    /// (`role * 10 + i`), and one target per group answers slowly.
    fn random_event(rng: &mut impl Rng) -> ObsEvent {
        let topic = ["t", "", "тема"][rng.gen_range(0..3usize)].to_string();
        match rng.gen_range(0..12) {
            0 => ObsEvent::Metric {
                name: ["faas.cold_starts", "", "mètre"][rng.gen_range(0..3usize)].to_string(),
                delta: rng.gen_range(0..9),
            },
            1 => ObsEvent::Membership {
                peer: rng.gen_range(0..9),
                up: rng.gen(),
            },
            2 => ObsEvent::Lease {
                resource: format!("topic/{topic}"),
                owner: rng.gen_range(0..9),
                epoch: rng.gen_range(0..99),
            },
            3 => ObsEvent::Fence {
                topic,
                node: rng.gen_range(0..9),
            },
            4 => ObsEvent::Rebuild {
                topic,
                node: rng.gen_range(0..9),
            },
            5 => ObsEvent::BookieReplaced {
                dead: rng.gen_range(0..9),
                target: rng.gen_range(0..9),
            },
            6 => ObsEvent::Repair {
                ledgers: rng.gen_range(0..4),
                entries: rng.gen_range(0..64),
                backlog: rng.gen_range(0..3),
            },
            _ => {
                let (role, i) = (rng.gen_range(0..3u8), rng.gen_range(0..5u64));
                let slow: u64 = if i == 3 { 9 } else { 1 };
                ObsEvent::Rpc {
                    target: u64::from(role) * 10 + i,
                    role,
                    latency_us: slow * (1_000 + rng.gen_range(0..50u64)),
                    ok: rng.gen_bool(0.9),
                }
            }
        }
    }

    /// The agent as it was: owned events in a `Vec`, encoded at flush.
    struct EagerAgent {
        agent: TelemetryAgent,
        pending: Vec<(HlcStamp, ObsEvent)>,
        sent: Vec<Bytes>,
    }

    impl EagerAgent {
        fn record(&mut self, now: Duration, event: ObsEvent) {
            let hlc = self.agent.stamp(now);
            self.pending.push((hlc, event));
        }

        fn send_batch(&mut self, events: &[(HlcStamp, ObsEvent)]) {
            let a = &mut self.agent;
            let header = BatchHeader {
                node: a.node,
                batch_seq: a.next_batch_seq,
                cum_events: a.events_sent + events.len() as u64,
                count: events.len() as u32,
            };
            self.sent.push(encode_batch(header, events));
            a.next_batch_seq += 1;
            a.events_sent += events.len() as u64;
        }

        fn flush(&mut self, now: Duration) {
            while self.pending.len() >= self.agent.batch_max {
                let batch: Vec<_> = self.pending.drain(..self.agent.batch_max).collect();
                self.send_batch(&batch);
                self.agent.last_flush = now;
                self.agent.last_sync = now;
            }
            let a = &self.agent;
            if !self.pending.is_empty() && now >= a.last_flush + a.flush_every {
                let batch = std::mem::take(&mut self.pending);
                self.send_batch(&batch);
                self.agent.last_flush = now;
                self.agent.last_sync = now;
            }
            let a = &self.agent;
            if self.pending.is_empty() && a.events_sent > 0 && now >= a.last_sync + a.sync_every {
                self.send_batch(&[]);
                self.agent.last_sync = now;
            }
        }
    }

    proptest! {
        /// Whatever is recorded, in whatever rhythm, the agent hands the
        /// network the bytes `encode_batch` over owned `from_record` events
        /// gave it before — same batches, same cuts, same instants.
        #[test]
        fn agent_ships_the_bytes_of_the_eager_encoder(
            seed in any::<u64>(),
            batch_max in 1usize..7,
            steps in vec((0u8..5, 1u8..10), 1..60),
        ) {
            let mut rng = det_rng(seed);
            let cfg = ObsConfig { batch_max, ..ObsConfig::default() };
            let mut fabric = ClusterFabric::new(seed);
            let node = fabric.add_node(NodeRole::Client);
            let collector = fabric.add_node(NodeRole::Collector);
            let mut agent = TelemetryAgent::new(node, &cfg);
            let mut eager = EagerAgent {
                agent: TelemetryAgent::new(node, &cfg),
                pending: Vec::new(),
                sent: Vec::new(),
            };
            let mut shipped = Vec::new();
            for (kind, amount) in steps {
                let now = fabric.now();
                match kind {
                    0 | 1 => for _ in 0..amount {
                        let record = random_record(&mut rng);
                        agent.record_span(now, &record);
                        eager.record(now, ObsEvent::Span(SpanEvent::from_record(&record)));
                    },
                    2 => for _ in 0..amount {
                        let event = random_event(&mut rng);
                        agent.record(now, event.clone());
                        eager.record(now, event);
                    },
                    _ => for _ in 0..amount {
                        fabric.advance(fabric.now() + ms(3));
                        let now = fabric.now();
                        // `next_due` says exactly when a flush ships.
                        let (due, sent) = (agent.next_due() <= now, agent.batches_sent);
                        agent.flush(&fabric, collector, now);
                        prop_assert_eq!(due, agent.batches_sent > sent);
                        eager.flush(now);
                        prop_assert_eq!(agent.ends.len(), eager.pending.len());
                    },
                }
                while let Some(env) = fabric.pop_mail(collector) {
                    shipped.push(env.body);
                }
            }
            fabric.advance(fabric.now() + ms(3));
            while let Some(env) = fabric.pop_mail(collector) {
                shipped.push(env.body);
            }
            prop_assert_eq!(shipped.len(), eager.sent.len());
            for (i, (got, want)) in shipped.iter().zip(&eager.sent).enumerate() {
                prop_assert!(got == want, "batch {i} differs");
            }
            prop_assert_eq!(agent.events_sent, eager.agent.events_sent);
            prop_assert_eq!(agent.batches_sent as usize, shipped.len());
        }
    }

    #[test]
    fn a_size_triggered_flush_cuts_where_drain_did() {
        let cfg = ObsConfig {
            batch_max: 4,
            ..ObsConfig::default()
        };
        let mut fabric = ClusterFabric::new(1);
        let node = fabric.add_node(NodeRole::Client);
        let collector = fabric.add_node(NodeRole::Collector);
        let mut agent = TelemetryAgent::new(node, &cfg);
        for peer in 0..10 {
            agent.record(ms(0), ObsEvent::Membership { peer, up: true });
        }
        // Ten pending, four to a batch: 4 + 4 now, the last two wait for
        // the flush timer.
        agent.flush(&fabric, collector, ms(1));
        assert_eq!((agent.batches_sent, agent.ends.len()), (2, 2));
        agent.flush(&fabric, collector, ms(1) + cfg.flush_every);
        assert_eq!((agent.batches_sent, agent.ends.len()), (3, 0));
        fabric.advance(ms(1));
        let peers: Vec<Vec<u64>> = std::iter::from_fn(|| fabric.pop_mail(collector))
            .map(|env| {
                let (header, events) = decode_batch(&env.body).expect("valid batch");
                assert_eq!(header.count as usize, events.len());
                let peer = |(_, e): &(HlcStamp, ObsEvent)| match e {
                    ObsEvent::Membership { peer, .. } => *peer,
                    other => panic!("unexpected {other:?}"),
                };
                events.iter().map(peer).collect()
            })
            .collect();
        assert_eq!(peers, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
    }

    /// The collector as it was: decode every batch into owned events, keep
    /// every event forever, re-judge every RPC target after every batch.
    struct EagerCollector {
        events: Vec<StampedEvent>,
        events_received: u64,
        batches_received: u64,
        decode_errors: u64,
        agents: HashMap<NodeId, AgentLedger>,
        op_stats: BTreeMap<(u64, String), OpAgg>,
        rpc_sketches: BTreeMap<(u8, u64), KllSketch>,
        grey_min_samples: u64,
        grey_ratio: f64,
        grey_flags: BTreeMap<u64, Duration>,
    }

    impl EagerCollector {
        fn new(cfg: &ObsConfig) -> Self {
            Self {
                events: Vec::new(),
                events_received: 0,
                batches_received: 0,
                decode_errors: 0,
                agents: HashMap::new(),
                op_stats: BTreeMap::new(),
                rpc_sketches: BTreeMap::new(),
                grey_min_samples: cfg.grey_min_samples,
                grey_ratio: cfg.grey_ratio,
                grey_flags: BTreeMap::new(),
            }
        }

        fn ingest(&mut self, body: &[u8], now: Duration) {
            let Some((header, events)) = decode_batch(body) else {
                self.decode_errors += 1;
                return;
            };
            let ledger = self.agents.entry(header.node).or_default();
            if ledger.last_seq.is_some_and(|s| header.batch_seq <= s) {
                return;
            }
            ledger.last_seq = Some(header.batch_seq);
            ledger.last_cum = ledger.last_cum.max(header.cum_events);
            ledger.received += events.len() as u64;
            self.batches_received += 1;
            self.events_received += events.len() as u64;
            for (hlc, event) in events {
                match &event {
                    ObsEvent::Span(span) => {
                        let key = (header.node.raw(), span.name.clone());
                        let agg = self.op_stats.entry(key).or_insert_with(|| OpAgg {
                            sketch: KllSketch::new(200),
                            count: 0,
                            errors: 0,
                            max_us: 0.0,
                        });
                        let latency = span.end_us.saturating_sub(span.start_us) as f64;
                        agg.sketch.update(latency);
                        agg.count += 1;
                        agg.max_us = agg.max_us.max(latency);
                        let outcome = span.attrs.iter().find(|(k, _)| k == "outcome");
                        agg.errors += u64::from(outcome.is_some_and(|(_, v)| v == "error"));
                    }
                    ObsEvent::Rpc {
                        target,
                        role,
                        latency_us,
                        ok: true,
                    } => self
                        .rpc_sketches
                        .entry((*role, *target))
                        .or_insert_with(|| KllSketch::new(200))
                        .update(*latency_us as f64),
                    _ => {}
                }
                self.events.push(StampedEvent {
                    node: header.node,
                    hlc,
                    event,
                });
            }
            for (node, slow) in self.grey_judgements() {
                if slow {
                    self.grey_flags.entry(node).or_insert(now);
                }
            }
        }

        fn grey_judgements(&self) -> Vec<(u64, bool)> {
            let mut out = Vec::new();
            let roles: BTreeSet<u8> = self.rpc_sketches.keys().map(|&(r, _)| r).collect();
            for role in roles {
                let group: Vec<(u64, f64)> = self
                    .rpc_sketches
                    .range((role, 0)..=(role, u64::MAX))
                    .filter(|(_, s)| s.total() >= self.grey_min_samples)
                    .filter_map(|(&(_, n), s)| s.quantile(0.5).map(|p50| (n, p50)))
                    .collect();
                if group.len() < 3 {
                    continue;
                }
                let mut p50s: Vec<f64> = group.iter().map(|&(_, p)| p).collect();
                p50s.sort_by(|a, b| a.total_cmp(b));
                let median = p50s[p50s.len() / 2];
                for (node, p50) in group {
                    out.push((node, median > 0.0 && p50 >= self.grey_ratio * median));
                }
            }
            out
        }

        fn grey_verdicts(&self) -> Vec<GreyVerdict> {
            let judgements: BTreeMap<u64, bool> = self.grey_judgements().into_iter().collect();
            let mut out = Vec::new();
            for (&(role, node), sketch) in &self.rpc_sketches {
                let Some(p50) = sketch.quantile(0.5) else {
                    continue;
                };
                let mut group_p50s: Vec<f64> = self
                    .rpc_sketches
                    .range((role, 0)..=(role, u64::MAX))
                    .filter(|(_, s)| s.total() >= self.grey_min_samples)
                    .filter_map(|(_, s)| s.quantile(0.5))
                    .collect();
                group_p50s.sort_by(|a, b| a.total_cmp(b));
                out.push(GreyVerdict {
                    node: NodeId(node),
                    role: role_name(role),
                    samples: sketch.total(),
                    p50_us: p50,
                    fleet_median_us: group_p50s.get(group_p50s.len() / 2).copied().unwrap_or(0.0),
                    slow: judgements.get(&node).copied().unwrap_or(false),
                    first_flagged: self.grey_flags.get(&node).copied(),
                });
            }
            out
        }

        /// What `health_report` says about each `(op, node)`.
        fn op_rows(&self) -> Vec<String> {
            let mut rows: Vec<_> = self.op_stats.iter().collect();
            rows.sort_by(|a, b| (&a.0 .1, a.0 .0).cmp(&(&b.0 .1, b.0 .0)));
            let row = |(&(node, ref name), agg): (&(u64, String), &OpAgg)| {
                let q = |q| agg.sketch.quantile(q).unwrap_or(0.0);
                let errors = agg.errors as f64 / agg.count as f64;
                let (p50, p90, p99) = (q(0.5), q(0.9), q(0.99));
                format!(
                    "{name} n{node} {} {p50} {p90} {p99} {} {errors}",
                    agg.count, agg.max_us
                )
            };
            rows.into_iter().map(row).collect()
        }
    }

    fn op_rows(report: &HealthReport) -> Vec<String> {
        let row = |op: &OpHealth| {
            format!(
                "{} n{} {} {} {} {} {} {}",
                op.op,
                op.node.expect("cluster rows carry a node"),
                op.count,
                op.p50_us,
                op.p90_us,
                op.p99_us,
                op.max_us,
                op.error_rate
            )
        };
        report.ops.iter().map(row).collect()
    }

    proptest! {
        /// Over any delivery of any agents' batches — interleaved, with
        /// gaps, duplicates, stale repeats and corrupted bodies — the
        /// collector that folds in place and the one that decoded and kept
        /// everything agree on all they report.
        #[test]
        fn streaming_collector_agrees_with_the_eager_one(
            seed in any::<u64>(),
            plan in vec((0u64..4, 0usize..9, 0u8..12), 1..80),
        ) {
            let mut rng = det_rng(seed);
            let cfg = ObsConfig { grey_min_samples: 3, ..ObsConfig::default() };
            let mut collector = Collector::new(&cfg);
            let mut eager = EagerCollector::new(&cfg);
            let mut agents: Vec<TelemetryAgent> =
                (0..4).map(|n| TelemetryAgent::new(NodeId(n), &cfg)).collect();
            let mut delivered: Vec<(NodeId, Bytes)> = Vec::new();
            for (tick, (agent, n_events, fate)) in plan.into_iter().enumerate() {
                let now = ms(tick as u64 + 1);
                let a = &mut agents[agent as usize];
                let events: Vec<(HlcStamp, ObsEvent)> = (0..n_events)
                    .map(|_| {
                        let event = if rng.gen_bool(0.5) {
                            ObsEvent::Span(SpanEvent::from_record(&random_record(&mut rng)))
                        } else {
                            random_event(&mut rng)
                        };
                        (a.stamp(now), event)
                    })
                    .collect();
                a.events_sent += n_events as u64;
                let header = BatchHeader {
                    node: a.node,
                    batch_seq: a.next_batch_seq,
                    cum_events: a.events_sent,
                    count: n_events as u32,
                };
                a.next_batch_seq += 1;
                let mut body = encode_batch(header, &events);
                let copies = match fate {
                    0 => 0,                                        // lost: a gap
                    1 => 2,                                        // duplicated
                    2 => {
                        // Corrupted: cut short, or a stray byte in the middle.
                        let mut raw = body.to_vec();
                        let at = rng.gen_range(0..raw.len());
                        if rng.gen() { raw.truncate(at) } else { raw[at] ^= 0x5A }
                        body = Bytes::from(raw);
                        1
                    }
                    3 if !delivered.is_empty() => {
                        // A stale repeat of something delivered earlier.
                        let (from, old) = delivered[rng.gen_range(0..delivered.len())].clone();
                        collector.ingest(&telem(from, old.clone()), now);
                        eager.ingest(&old, now);
                        1
                    }
                    _ => 1,
                };
                for _ in 0..copies {
                    collector.ingest(&telem(a.node, body.clone()), now);
                    eager.ingest(&body, now);
                    delivered.push((a.node, body.clone()));
                }
                prop_assert_eq!(collector.grey_flags(), &eager.grey_flags, "at {:?}", now);
            }
            prop_assert_eq!(collector.events_received(), eager.events_received);
            prop_assert_eq!(collector.batches_received(), eager.batches_received);
            prop_assert_eq!(collector.decode_errors, eager.decode_errors);
            let dropped: u64 = eager.agents.values().map(|l| l.last_cum - l.received).sum();
            prop_assert_eq!(collector.detected_dropped(), dropped);
            prop_assert_eq!(collector.grey_verdicts(), eager.grey_verdicts());
            let report = collector.health_report(ms(1_000));
            prop_assert_eq!(op_rows(&report), eager.op_rows());
            let flagged: Vec<String> = eager.grey_flags.keys().map(|n| format!("grey-node-{n}")).collect();
            prop_assert_eq!(report.active_alerts, flagged);
            // Nothing near the recorder's bound: it still holds every event.
            prop_assert_eq!(collector.events_evicted, 0);
            let mut timeline = eager.events.clone();
            timeline.sort_by_key(|e| e.hlc);
            prop_assert!(collector.events() == timeline, "merged timelines differ");
            let mut spans: Vec<SpanRecord> = eager
                .events
                .iter()
                .filter_map(|e| match &e.event {
                    ObsEvent::Span(span) => {
                        let frame = telwire::encode_span(span);
                        Some(span_record(&SpanRef::parse(&frame).expect("valid frame")))
                    }
                    _ => None,
                })
                .collect();
            spans.sort_by_key(|s| (s.trace_id.0, s.start));
            prop_assert!(
                format!("{:?}", collector.span_records()) == format!("{spans:?}"),
                "reassembled spans differ"
            );
        }

        /// Arbitrary bytes, and every corruption of a valid batch, reach the
        /// borrowed decoder without a panic; and a batch either folds whole
        /// or is one counted decode error that leaves no trace.
        #[test]
        fn hostile_batches_are_counted_never_folded(
            seed in any::<u64>(),
            noise in vec(any::<u8>(), 0..200),
            n_events in 1usize..12,
        ) {
            let mut rng = det_rng(seed);
            let cfg = ObsConfig::default();
            let mut collector = Collector::new(&cfg);
            collector.ingest(&telem(NodeId(1), Bytes::from(noise.clone())), ms(1));
            prop_assert_eq!(collector.decode_errors + collector.batches_received(), 1);
            let events: Vec<(HlcStamp, ObsEvent)> = (0..n_events)
                .map(|i| {
                    let event = if i % 2 == 0 {
                        ObsEvent::Span(SpanEvent::from_record(&random_record(&mut rng)))
                    } else {
                        random_event(&mut rng)
                    };
                    (stamp(2, 1_000 + i as u64), event)
                })
                .collect();
            let header = BatchHeader {
                node: NodeId(2),
                batch_seq: 0,
                cum_events: n_events as u64,
                count: n_events as u32,
            };
            let valid = encode_batch(header, &events);
            let mut collector = Collector::new(&cfg);
            // Every truncation is a decode error and nothing else. (Cuts
            // are sampled when a 64 KiB name makes the batch long.)
            let step = (valid.len() / 300).max(1);
            let cuts: Vec<usize> = (0..valid.len()).step_by(step).collect();
            for &cut in &cuts {
                collector.ingest(&telem(NodeId(2), valid.slice(..cut)), ms(2));
            }
            prop_assert_eq!(collector.decode_errors, cuts.len() as u64);
            prop_assert_eq!(collector.events_received(), 0);
            prop_assert!(collector.events().is_empty() && collector.op_stats.is_empty());
            prop_assert!(collector.rpc.is_empty() && collector.agents.is_empty());
            // A flipped byte either still decodes (then it folds whole) or
            // is counted — never a panic, never half a batch.
            for _ in 0..40 {
                let mut raw = valid.to_vec();
                let at = rng.gen_range(0..raw.len());
                raw[at] ^= 1u8 << rng.gen_range(0..8u32);
                let mut c = Collector::new(&cfg);
                c.ingest(&telem(NodeId(2), Bytes::from(raw)), ms(3));
                prop_assert_eq!(c.decode_errors + c.batches_received(), 1);
                prop_assert_eq!(c.events().len() as u64, c.events_received());
            }
        }
    }

    /// Everything a refused batch must leave as it was.
    fn folded_state(c: &Collector) -> String {
        let mut ledgers: Vec<_> = c.agents.iter().collect();
        ledgers.sort_by_key(|(node, _)| **node);
        format!(
            "{:?} {:?} {ledgers:?} {} {} {} {} {:?}",
            op_rows(&c.health_report(ms(1_000))),
            c.control,
            c.ring.len(),
            c.ring_bytes,
            c.events_received,
            c.batches_received,
            c.grey_verdicts(),
        )
    }

    proptest! {
        /// A valid batch with one byte damaged, after some history: the
        /// collector either refuses it, counting one `decode_error` and
        /// changing nothing else, or folds all of it exactly as the
        /// reference collector does. The one walk stages; it never folds.
        #[test]
        fn a_damaged_batch_folds_whole_or_changes_nothing(
            seed in any::<u64>(),
            n_events in 1usize..16,
        ) {
            let mut rng = det_rng(seed);
            let cfg = ObsConfig { grey_min_samples: 1, ..ObsConfig::default() };
            let mut collector = Collector::new(&cfg);
            let mut eager = EagerCollector::new(&cfg);
            let mut batch = |seq: u64| {
                let events: Vec<(HlcStamp, ObsEvent)> = (0..n_events)
                    .map(|i| {
                        let event = if rng.gen_bool(0.5) {
                            ObsEvent::Span(SpanEvent::from_record(&random_record(&mut rng)))
                        } else {
                            random_event(&mut rng)
                        };
                        (stamp(2, seq * 100 + i as u64), event)
                    })
                    .collect();
                let header = BatchHeader {
                    node: NodeId(2),
                    batch_seq: seq,
                    cum_events: (seq + 1) * n_events as u64,
                    count: n_events as u32,
                };
                encode_batch(header, &events)
            };
            for seq in 0..2 {
                let body = batch(seq);
                collector.ingest(&telem(NodeId(2), body.clone()), ms(seq + 1));
                eager.ingest(&body, ms(seq + 1));
            }
            let mut raw = batch(2).to_vec();
            let at = rng.gen_range(0..raw.len());
            raw[at] = raw[at].wrapping_add(rng.gen_range(1..=255u8));
            let before = folded_state(&collector);
            let errors = collector.decode_errors;
            collector.ingest(&telem(NodeId(2), Bytes::from(raw.clone())), ms(3));
            eager.ingest(&raw, ms(3));
            prop_assert_eq!(collector.decode_errors, eager.decode_errors);
            if collector.decode_errors > errors {
                prop_assert_eq!(collector.decode_errors, errors + 1);
                prop_assert_eq!(folded_state(&collector), before);
            } else {
                prop_assert_eq!(op_rows(&collector.health_report(ms(1_000))), eager.op_rows());
                prop_assert_eq!(collector.grey_verdicts(), eager.grey_verdicts());
                prop_assert_eq!(collector.events_received(), eager.events_received);
                let mut timeline = eager.events.clone();
                timeline.sort_by_key(|e| e.hlc);
                prop_assert!(collector.events() == timeline, "merged timelines differ");
            }
        }
    }

    #[test]
    fn a_count_the_body_cannot_back_is_rejected_before_anything_is_reserved() {
        // u32::MAX events claimed, one present: if the decoder sized
        // anything by the claim this would try to reserve gigabytes.
        let event = (stamp(1, 5), ObsEvent::Membership { peer: 2, up: true });
        let header = BatchHeader {
            node: NodeId(1),
            batch_seq: 0,
            cum_events: 1,
            count: 1,
        };
        let mut raw = encode_batch(header, &[event]).to_vec();
        raw[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BatchRef::parse(&raw).is_none());
        assert!(decode_batch(&raw).is_none());
    }

    #[test]
    fn a_full_flight_recorder_evicts_oldest_first_and_counts_it() {
        let cfg = ObsConfig::default();
        let mut collector = Collector::new(&cfg);
        let batch = |seq: u64| {
            let events: Vec<(HlcStamp, ObsEvent)> = (0..3u64)
                .map(|i| {
                    let event = match i {
                        0 => ObsEvent::Membership {
                            peer: seq,
                            up: true,
                        },
                        _ => ObsEvent::Metric {
                            name: format!("m{seq}"),
                            delta: i,
                        },
                    };
                    (stamp(1, seq * 10 + i), event)
                })
                .collect();
            let header = BatchHeader {
                node: NodeId(1),
                batch_seq: seq,
                cum_events: (seq + 1) * 3,
                count: 3,
            };
            encode_batch(header, &events)
        };
        // Room for three batches and a bit.
        collector.ring_cap = batch(0).len() * 3 + 5;
        for seq in 0..10 {
            collector.ingest(&telem(NodeId(1), batch(seq)), ms(seq));
        }
        assert_eq!(collector.ring.len(), 3);
        assert!(collector.ring_bytes <= collector.ring_cap);
        // Seven batches gone, two data-plane events each; their control
        // events stay, and so does everything that was folded.
        assert_eq!(collector.events_evicted, 14);
        assert_eq!(collector.events_received(), 30);
        let events = collector.events();
        let metrics: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.event {
                ObsEvent::Metric { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(metrics, ["m7", "m7", "m8", "m8", "m9", "m9"]);
        let ups = events
            .iter()
            .filter(|e| matches!(e.event, ObsEvent::Membership { .. }))
            .count();
        assert_eq!(ups, 10, "control-plane events are never evicted");
        let report = collector.health_report(ms(10));
        assert!(report
            .counters
            .contains(&("cluster.telemetry_events_evicted".to_string(), 14)));
        // One batch larger than the whole bound still stays, alone.
        collector.ring_cap = 1;
        collector.ingest(&telem(NodeId(1), batch(10)), ms(10));
        assert_eq!((collector.ring.len(), collector.events_evicted), (1, 20));
    }
}
