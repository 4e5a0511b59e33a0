//! The one telemetry format: HLC-stamped batches of events, with the span
//! frame inside them.
//!
//! Both transports ship these bytes: the [`TelemetryPump`](crate::TelemetryPump)
//! publishes one batch per Pulsar message on `_telemetry`, and a cluster
//! node's telemetry agent sends one per SimNet envelope. [`BatchWriter`]
//! encodes each event once, in place, into the next batch; [`BatchRef`]
//! reads a batch back without copying. The workspace's serde shim derives
//! are inert (see `shims/README.md`), so the format is hand-rolled:
//!
//! ```text
//! batch := 'O' 1 node:u64 batch_seq:u64 cum_events:u64 count:u32
//!          (hlc:20B tag:u8 body)*
//! span  := 'S' len:u32 frame
//! frame := 'T' 'S' trace:u64 span:u64 (0 | 1 parent:u64) start_us:u64
//!          end_us:u64 system name n_attrs:u16 (key value)*
//! ```
//!
//! Strings are `u16`-length-prefixed UTF-8 ([`put_str`]), integers
//! little-endian. Decoders are total: malformed bytes read as `None` and
//! are counted by the consumer, never panicked on.

use std::fmt::{self, Write as _};
use std::time::Duration;

use bytes::{BufMut, Bytes};
use taureau_core::id::NodeId;
use taureau_core::trace::{intern, AttrValue, Attrs, HlcStamp, SpanId, SpanRecord, TraceId};
use taureau_core::wire::{put_str, Reader};

/// Batch magic byte.
const MAGIC: u8 = b'O';
/// Batch format version.
const VERSION: u8 = 1;
/// First byte of a span frame.
const FRAME_MAGIC: u8 = b'T';

const TAG_SPAN: u8 = b'S';
const TAG_METRIC: u8 = b'M';
const TAG_MEMBERSHIP: u8 = b'V';
const TAG_LEASE: u8 = b'L';
const TAG_FENCE: u8 = b'F';
const TAG_REBUILD: u8 = b'C';
const TAG_BOOKIE: u8 = b'B';
const TAG_REPAIR: u8 = b'R';
const TAG_RPC: u8 = b'Q';

// -- events ------------------------------------------------------------------

/// An event recorded as a value: the cluster's control-plane transitions
/// and client-observed RPCs. Spans and metrics are written straight from
/// the tracer's own records ([`BatchWriter::push_span`],
/// [`BatchWriter::push_metric`]) and read back in place ([`EventRef`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
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
        /// Target's role group.
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

/// Append an event's tag and body.
fn put_event(out: &mut Vec<u8>, ev: &ObsEvent) {
    match ev {
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

// -- the span frame ------------------------------------------------------------

/// Appends text to a frame in place.
struct Text<'a>(&'a mut Vec<u8>);

impl fmt::Write for Text<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put_slice(s.as_bytes());
        Ok(())
    }
}

/// Append the decimal digits of `n` behind its `u16` length, as
/// [`put_str`] would write `n.to_string()`.
fn put_decimal(out: &mut Vec<u8>, negative: bool, mut n: u64) {
    let mut digits = [0u8; 21];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        digits[at] = b'-';
    }
    out.put_u16_le((digits.len() - at) as u16);
    out.put_slice(&digits[at..]);
}

/// Append an attribute value as [`put_str`] would write its text (its
/// `Display`), without building the text first.
fn put_value(out: &mut Vec<u8>, value: &AttrValue) {
    match value {
        AttrValue::Str(s) => put_str(out, s.as_str()),
        AttrValue::U64(n) => put_decimal(out, false, *n),
        AttrValue::I64(n) => put_decimal(out, *n < 0, n.unsigned_abs()),
        AttrValue::Bool(b) => put_str(out, if *b { "true" } else { "false" }),
        AttrValue::F64(_) => {
            // Nine decimals of any float: far shorter than the `u16`
            // length can count.
            let at = out.len();
            out.put_u16_le(0);
            let _ = write!(Text(out), "{value}");
            let len = (out.len() - at - 2) as u16;
            (&mut out[at..at + 2]).put_u16_le(len);
        }
    }
}

/// Append a span's frame: its fields, and each attribute value as the
/// text of its `Display`, without building that text.
fn put_frame(out: &mut Vec<u8>, r: &SpanRecord) {
    out.put_u8(FRAME_MAGIC);
    out.put_u8(TAG_SPAN);
    out.put_u64_le(r.trace_id.0);
    out.put_u64_le(r.span_id.0);
    match r.parent {
        Some(p) => {
            out.put_u8(1);
            out.put_u64_le(p.0);
        }
        None => out.put_u8(0),
    }
    out.put_u64_le(r.start.as_micros() as u64);
    out.put_u64_le(r.end.as_micros() as u64);
    put_str(out, r.system);
    put_str(out, r.name);
    let n_attrs = r.attrs.len().min(u16::MAX as usize);
    out.put_u16_le(n_attrs as u16);
    for (k, v) in r.attrs.iter().take(n_attrs) {
        put_str(out, k);
        put_value(out, v);
    }
}

/// A span frame decoded in place: strings are views into the frame and
/// attributes are re-walked on demand. Parsing validates the whole frame,
/// so the accessors cannot fail afterwards.
pub struct SpanRef<'a> {
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    pub(crate) parent: Option<u64>,
    /// Microseconds of clock time.
    pub(crate) start_us: u64,
    pub(crate) end_us: u64,
    pub(crate) system: &'a str,
    pub(crate) name: &'a str,
    n_attrs: u16,
    /// The validated attribute pairs, still encoded.
    attrs: Reader<'a>,
}

impl<'a> SpanRef<'a> {
    /// Decode a span frame, handing `visit` each attribute pair as it is
    /// validated: a reader that wants one value needs no second walk.
    /// `None` on any malformed input; `visit` may have seen a prefix of
    /// the pairs then. Bytes after the last attribute are ignored.
    pub(crate) fn parse_visiting(
        bytes: &'a [u8],
        mut visit: impl FnMut(&'a str, &'a str),
    ) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u8()? != FRAME_MAGIC || r.u8()? != TAG_SPAN {
            return None;
        }
        // Fields are read in the order written here: wire order.
        let span = Self {
            trace_id: r.u64()?,
            span_id: r.u64()?,
            parent: match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return None,
            },
            start_us: r.u64()?,
            end_us: r.u64()?,
            system: r.str()?,
            name: r.str()?,
            n_attrs: r.u16()?,
            attrs: r.clone(),
        };
        for _ in 0..span.n_attrs {
            visit(r.str()?, r.str()?);
        }
        Some(span)
    }

    /// Key/value attributes, in wire order.
    pub(crate) fn attrs(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let mut r = self.attrs.clone();
        (0..self.n_attrs).map_while(move |_| Some((r.str()?, r.str()?)))
    }

    /// The span as a [`SpanRecord`], so `taureau-prof` can stitch traces
    /// from what crossed the wire. Names are re-interned
    /// ([`SpanRecord::name`] is `&'static str`): unknown systems, and names
    /// past the intern table, read `"remote"`; unknown attribute keys are
    /// dropped; values stay the text they arrived as.
    pub fn to_record(&self) -> SpanRecord {
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
            trace_id: TraceId(self.trace_id),
            span_id: SpanId(self.span_id),
            parent: self.parent.map(SpanId),
            name: intern(self.name).unwrap_or("remote"),
            system: intern_system(self.system),
            start: Duration::from_micros(self.start_us),
            end: Duration::from_micros(self.end_us),
            attrs: self
                .attrs()
                .filter_map(|(k, v)| Some((intern_key(k)?, v)))
                .collect::<Attrs>(),
        }
    }
}

// -- batches -------------------------------------------------------------------

/// A batch's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchHeader {
    /// Sending agent's node.
    pub(crate) node: NodeId,
    /// Per-agent batch sequence number (gap ⇒ dropped batch).
    pub(crate) batch_seq: u64,
    /// Agent's cumulative events handed to the transport, *including*
    /// this batch — the consumer reconciles loss against it.
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

/// The encoder: stamps nothing itself, but writes each stamped event
/// straight into the bytes the next batch will carry, and cuts batches
/// off the front. A warm writer allocates only the bytes it hands out.
#[derive(Debug)]
pub struct BatchWriter {
    node: NodeId,
    /// Room for a batch header, then the pending events in wire form.
    pending: Vec<u8>,
    /// Where each pending event ends in `pending` (a batch cuts at one).
    ends: Vec<usize>,
    /// The next batch's sequence number: batches handed out so far.
    next_seq: u64,
    events_sent: u64,
}

impl BatchWriter {
    /// A writer for the batches of `node`, starting at sequence 0.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            pending: vec![0; BatchHeader::WIRE_LEN],
            ends: Vec::new(),
            next_seq: 0,
            events_sent: 0,
        }
    }

    /// Append one event.
    pub fn push(&mut self, hlc: HlcStamp, event: &ObsEvent) {
        self.pending.put_slice(&hlc.to_bytes());
        put_event(&mut self.pending, event);
        self.ends.push(self.pending.len());
    }

    /// Append one finished span, its frame behind a `u32` length.
    pub fn push_span(&mut self, hlc: HlcStamp, span: &SpanRecord) {
        let out = &mut self.pending;
        out.put_slice(&hlc.to_bytes());
        out.put_u8(TAG_SPAN);
        let at = out.len();
        out.put_u32_le(0);
        put_frame(out, span);
        let len = (out.len() - at - 4) as u32;
        (&mut out[at..at + 4]).put_u32_le(len);
        self.ends.push(out.len());
    }

    /// Append one metric delta.
    pub fn push_metric(&mut self, hlc: HlcStamp, name: &str, delta: u64) {
        self.pending.put_slice(&hlc.to_bytes());
        self.pending.put_u8(TAG_METRIC);
        put_str(&mut self.pending, name);
        self.pending.put_u64_le(delta);
        self.ends.push(self.pending.len());
    }

    /// Events written and not yet taken.
    pub fn pending(&self) -> usize {
        self.ends.len()
    }

    /// The oldest `count` pending events (at most [`Self::pending`]) as one
    /// batch, counted as sent whether or not the transport delivers it:
    /// the consumer's gap detection reconciles exactly that asymmetry.
    pub fn take(&mut self, count: usize) -> Bytes {
        let header = BatchHeader {
            node: self.node,
            batch_seq: self.next_seq,
            cum_events: self.events_sent + count as u64,
            count: count as u32,
        };
        let start = BatchHeader::WIRE_LEN;
        let end = count.checked_sub(1).map_or(start, |last| self.ends[last]);
        self.pending[..start].copy_from_slice(&header.to_bytes());
        let body = Bytes::copy_from_slice(&self.pending[..end]);
        self.next_seq += 1;
        self.events_sent += count as u64;
        self.pending.drain(start..end);
        self.ends.drain(..count);
        for e in &mut self.ends {
            *e -= end - start;
        }
        body
    }

    /// Drop every pending event (they die with their process); returns
    /// how many there were.
    pub fn discard(&mut self) -> u64 {
        let lost = self.ends.len() as u64;
        self.pending.truncate(BatchHeader::WIRE_LEN);
        self.ends.clear();
        lost
    }

    /// `(events, batches)` handed out so far.
    pub fn sent(&self) -> (u64, u64) {
        (self.events_sent, self.next_seq)
    }
}

/// One event of a batch decoded in place: spans and metrics borrow their
/// strings from the batch; the rest come out as values.
pub enum EventRef<'a> {
    /// A finished span.
    Span(SpanRef<'a>),
    /// A metric delta.
    Metric {
        /// Metric name.
        name: &'a str,
        /// Increment.
        delta: u64,
    },
    /// A control-plane event or an RPC sample.
    Other(ObsEvent),
}

/// Read one event, handing a span's attribute pairs to `visit`.
pub(crate) fn read_event<'a>(
    r: &mut Reader<'a>,
    visit: impl FnMut(&'a str, &'a str),
) -> Option<(HlcStamp, EventRef<'a>)> {
    let hlc = HlcStamp::from_bytes(r.bytes(HlcStamp::WIRE_LEN)?)?;
    let event = match r.u8()? {
        TAG_SPAN => {
            let len = r.u32()? as usize;
            EventRef::Span(SpanRef::parse_visiting(r.bytes(len)?, visit)?)
        }
        TAG_METRIC => EventRef::Metric {
            name: r.str()?,
            delta: r.u64()?,
        },
        tag => EventRef::Other(read_owned(tag, r)?),
    };
    Some((hlc, event))
}

/// A batch validated end to end and read in place. Bytes after the last
/// event are ignored.
pub struct BatchRef<'a> {
    pub(crate) header: BatchHeader,
    events: Reader<'a>,
}

impl<'a> BatchRef<'a> {
    /// The header, and a reader at the first event.
    pub(crate) fn header_of(buf: &'a [u8]) -> Option<(BatchHeader, Reader<'a>)> {
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

    /// A batch whose every event parses; `None` otherwise.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let (header, events) = Self::header_of(buf)?;
        let batch = Self { header, events };
        (batch.events().count() == header.count as usize).then_some(batch)
    }

    /// The batch's `header.count` events, in order.
    pub fn events(&self) -> impl Iterator<Item = (HlcStamp, EventRef<'a>)> {
        let mut r = self.events.clone();
        (0..self.header.count).map_while(move |_| read_event(&mut r, |_, _| {}))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;
    use taureau_core::trace::{Attrs, SpanId, TraceId};

    pub(crate) fn stamp(node: u64, us: u64) -> HlcStamp {
        HlcStamp {
            physical_us: us,
            logical: 0,
            node,
        }
    }

    fn sample_record() -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(0xdead_beef),
            span_id: SpanId(42),
            parent: Some(SpanId(41)),
            name: "faas.invoke",
            system: "taureau-faas",
            start: Duration::from_micros(1_000),
            end: Duration::from_micros(3_500),
            attrs: [("function", "thumbnail"), ("outcome", "ok")]
                .into_iter()
                .collect(),
        }
    }

    fn frame_of(record: &SpanRecord) -> Vec<u8> {
        let mut frame = Vec::new();
        put_frame(&mut frame, record);
        frame
    }

    fn parse(frame: &[u8]) -> Option<SpanRef<'_>> {
        SpanRef::parse_visiting(frame, |_, _| {})
    }

    /// The batch `writer` has pending, as `take` would cut it.
    fn one_batch(writer: &mut BatchWriter) -> Bytes {
        writer.take(writer.pending())
    }

    /// A span from the tracer reads back with every field and attribute
    /// rendered as its text.
    #[test]
    fn span_roundtrip() {
        use std::sync::Arc;
        use taureau_core::clock::VirtualClock;
        use taureau_core::trace::Tracer;

        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(clock.clone());
        {
            let mut g = tracer.span("taureau-test", "op");
            g.attr("k", "v");
            g.attr("n", 7u64);
            clock.advance(Duration::from_micros(9));
        }
        let record = &tracer.spans()[0];
        let frame = frame_of(record);
        let span = parse(&frame).expect("valid frame");
        assert_eq!((span.system, span.name), ("taureau-test", "op"));
        assert_eq!(span.end_us - span.start_us, 9);
        assert_eq!(span.trace_id, record.trace_id.0);
        assert_eq!(span.attrs().collect::<Vec<_>>(), [("k", "v"), ("n", "7")]);
        // Truncated at every prefix length still returns None, not panic.
        for cut in 0..frame.len() {
            assert!(parse(&frame[..cut]).is_none());
        }
    }

    /// A span off the wire converts back into a record: its static fields
    /// re-interned, its known attribute keys kept, values as their text.
    #[test]
    fn from_record_converts_static_fields() {
        let mut record = sample_record();
        record.attrs = [("function", "api".into()), ("weird-key", AttrValue::U64(1))]
            .into_iter()
            .collect();
        let back = parse(&frame_of(&record)).expect("valid frame").to_record();
        let fields = (back.name, back.system, back.trace_id, back.parent, back.end);
        let want = (
            record.name,
            record.system,
            record.trace_id,
            record.parent,
            record.end,
        );
        assert_eq!(fields, want);
        assert_eq!(back.attrs, [("function", "api")].into_iter().collect());
        record.system = "someday-system";
        assert_eq!(
            parse(&frame_of(&record)).unwrap().to_record().system,
            "remote"
        );
    }

    #[test]
    fn rootless_span_roundtrip() {
        let mut record = sample_record();
        record.parent = None;
        record.attrs = Attrs::new();
        let frame = frame_of(&record);
        let span = parse(&frame).expect("valid frame");
        assert_eq!(span.parent, None);
        assert_eq!(span.attrs().count(), 0);
    }

    #[test]
    fn metric_roundtrip() {
        let mut writer = BatchWriter::new(NodeId(1));
        writer.push_metric(stamp(1, 5), "faas.cold_starts", 7);
        let batch = one_batch(&mut writer);
        let batch = BatchRef::parse(&batch).expect("valid batch");
        let events: Vec<_> = batch.events().collect();
        assert!(matches!(
            events[..],
            [(
                _,
                EventRef::Metric {
                    name: "faas.cold_starts",
                    delta: 7
                }
            )]
        ));
    }

    #[test]
    fn malformed_frames_decode_to_none() {
        assert!(parse(&[]).is_none());
        assert!(parse(b"garbage frame").is_none());
        assert!(BatchRef::parse(&[]).is_none());
        assert!(BatchRef::parse(b"not a batch").is_none());
    }

    /// The frame `sample_record` encodes to, pinned since the first
    /// telemetry wire format: the span frame did not move.
    #[test]
    fn span_frame_bytes_are_pinned() {
        let hex: String = frame_of(&sample_record())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "5453efbeadde000000002a00000000000000012900000000000000e803000000000000\
             ac0d0000000000000c00746175726561752d666161730b00666161732e696e766f6b65\
             0200080066756e6374696f6e09007468756d626e61696c07006f7574636f6d6502006f6b"
        );
    }

    /// `put_frame` appends a frame that is the one `push_span` ships in a
    /// batch, reads back borrowed as the record, and is also the frame of
    /// the owned record it reads back as.
    #[test]
    fn encode_record_matches_the_owned_encoder_and_reads_back_borrowed() {
        let long = "n".repeat(70_000).leak(); // past the u16 length: truncated
        let attrs = |n: usize| (0..n).map(|i| ("function", format!("väl-{i}"))).collect();
        let cases = [("", 0), ("faas.invoke", 1), ("ünï.cödé", 20), (long, 3)];
        for (name, n) in cases {
            let record = SpanRecord {
                name,
                attrs: attrs(n),
                ..sample_record()
            };
            let mut frame = vec![0xAA]; // appends, never overwrites
            put_frame(&mut frame, &record);
            assert_eq!(frame[0], 0xAA);
            let frame = &frame[1..];
            let mut writer = BatchWriter::new(NodeId(1));
            writer.push_span(stamp(1, 5), &record);
            assert!(one_batch(&mut writer).ends_with(frame));
            let span = parse(frame).expect("valid frame");
            assert_eq!(span.name.len(), name.len().min(u16::MAX as usize));
            let rendered: Vec<(&str, String)> = record
                .attrs
                .iter()
                .map(|(k, v)| (k, v.to_string()))
                .collect();
            let read: Vec<(&str, String)> = span.attrs().map(|(k, v)| (k, v.to_string())).collect();
            assert_eq!(read, rendered);
            assert_eq!(
                (span.system, span.start_us, span.end_us),
                ("taureau-faas", 1_000, 3_500)
            );
            assert_eq!(frame_of(&span.to_record()), frame);
        }
    }

    /// A string past the `u16` length is cut at the last character
    /// boundary that fits, so a span with a long non-ASCII name and value
    /// still makes a batch the decoder reads whole, control event beside
    /// it included (cut mid-character, the batch was refused whole).
    #[test]
    fn a_long_non_ascii_string_is_cut_at_a_char_boundary() {
        let long = "é".repeat(35_000).leak();
        let mut record = sample_record();
        record.name = long;
        record.attrs = [("k", &*long)].into_iter().collect();
        let fence = ObsEvent::Fence {
            topic: "t".into(),
            node: 1,
        };
        let mut writer = BatchWriter::new(NodeId(3));
        writer.push_span(stamp(3, 2), &record);
        writer.push(stamp(3, 3), &fence);
        let batch = one_batch(&mut writer);
        let batch = BatchRef::parse(&batch).expect("the batch reads whole");
        let kept = "é".repeat(32_767);
        let events: Vec<_> = batch.events().map(|(_, ev)| ev).collect();
        let [EventRef::Span(span), EventRef::Other(other)] = &events[..] else {
            panic!("a span and a fence");
        };
        assert_eq!(span.name, kept);
        assert_eq!(span.attrs().collect::<Vec<_>>(), vec![("k", kept.as_str())]);
        assert_eq!(other, &fence);
    }

    use proptest::prelude::*;
    use rand::Rng;
    use taureau_core::rng::det_rng;

    /// A value of any kind: any integer, any float bit pattern (NaN and
    /// the infinities included), a billed cost, and strings that are
    /// empty, non-ASCII, past the inline size and past the `u16` length.
    fn random_value(rng: &mut impl Rng) -> AttrValue {
        use std::sync::LazyLock;
        static LONG: LazyLock<String> = LazyLock::new(|| "ж".repeat(40_000));
        const STRS: [&str; 6] = [
            "",
            "ok",
            "error",
            "тема-π",
            "/app/fn-state/x",
            "a name past inline",
        ];
        match rng.gen_range(0..9) {
            0 => rng.gen::<u64>().into(),
            1 => rng.gen::<i64>().into(),
            2 => f64::from_bits(rng.gen()).into(),
            3 => (rng.gen_range(0..10_000_000u64) as f64 * 1e-12).into(),
            4 => rng.gen::<bool>().into(),
            5 => STRS[rng.gen_range(0..STRS.len())].into(),
            6 => STRS[rng.gen_range(0..STRS.len())]
                .repeat(rng.gen_range(0..9))
                .into(),
            7 if rng.gen_range(0..50) == 0 => LONG.as_str().into(),
            _ => rng.gen_range(0..4096u64).into(),
        }
    }

    /// `s` as [`put_str`] keeps it.
    fn kept(s: &str) -> &str {
        &s[..s.floor_char_boundary(u16::MAX as usize)]
    }

    proptest! {
        /// The in-place encoder writes, for any record, a frame that reads
        /// back as the record with each value rendered by `to_string()`.
        #[test]
        fn encode_record_writes_the_frame_of_its_rendered_values(seed in any::<u64>()) {
            const NAMES: [&str; 4] = ["faas.billing", "", "öp.ünï", "cluster.pub"];
            const KEYS: [&str; 4] = ["cost_usd", "node", "ключ", ""];
            let mut rng = det_rng(seed);
            let mut record = sample_record();
            record.name = NAMES[rng.gen_range(0..NAMES.len())];
            record.system = "système-π";
            record.attrs = (0..rng.gen_range(0..12))
                .map(|_| (KEYS[rng.gen_range(0..KEYS.len())], random_value(&mut rng)))
                .collect();
            record.trace_id.0 = rng.gen();
            record.parent = rng.gen_bool(0.5).then(|| SpanId(rng.gen()));
            record.end = Duration::from_micros(rng.gen_range(1_000..1 << 40));
            let mut frame = vec![0xAA]; // appends, never overwrites
            put_frame(&mut frame, &record);
            prop_assert_eq!(frame[0], 0xAA);
            let span = parse(&frame[1..]).expect("valid frame");
            let fields = (span.trace_id, span.span_id, span.parent, span.start_us, span.end_us);
            let want = (
                record.trace_id.0,
                record.span_id.0,
                record.parent.map(|p| p.0),
                record.start.as_micros() as u64,
                record.end.as_micros() as u64,
            );
            prop_assert_eq!(fields, want);
            prop_assert_eq!((span.system, span.name), (record.system, record.name));
            let rendered: Vec<(String, String)> = record
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), kept(&v.to_string()).to_string()))
                .collect();
            let read: Vec<(String, String)> =
                span.attrs().map(|(k, v)| (k.to_string(), v.to_string())).collect();
            prop_assert!(read == rendered, "frame differs for {:?}", record.attrs);
        }
    }

    /// Arbitrary and corrupted bytes: the borrowed decoder never panics,
    /// and whatever it accepts it can also walk whole.
    #[test]
    fn hostile_frames_never_panic_the_borrowed_decoder() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let valid = frame_of(&sample_record());
        for round in 0..20_000 {
            let mut frame = if round % 2 == 0 {
                valid.clone()
            } else {
                (0..next() % 96).map(|_| next() as u8).collect()
            };
            if !frame.is_empty() {
                let flips = next() % 4;
                for _ in 0..flips {
                    let at = (next() % frame.len() as u64) as usize;
                    frame[at] ^= 1 << (next() % 8);
                }
                // Two rounds in three also cut the frame short.
                if round % 3 != 0 {
                    frame.truncate((next() % (frame.len() as u64 + 1)) as usize);
                }
            }
            let mut visited = 0;
            if let Some(span) = SpanRef::parse_visiting(&frame, |_, _| visited += 1) {
                assert_eq!(span.attrs().count(), visited);
            }
        }
    }
}
