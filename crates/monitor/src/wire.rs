//! Framed binary encoding of telemetry events for the Pulsar transport.
//!
//! The workspace's serde shim derives are inert (see `shims/README.md`),
//! so the wire format is hand-rolled: a two-byte header (`b'T'` magic +
//! record tag) followed by little-endian fixed-width integers and
//! `u16`-length-prefixed UTF-8 strings, written through `BufMut` and
//! read through [`taureau_core::wire::Reader`]. Decoders are total — malformed
//! frames decode to `None` and are counted by the consumer, never panicked
//! on; the telemetry plane must survive garbage on its own topics.

use bytes::BufMut;
use taureau_core::trace::SpanRecord;
use taureau_core::wire::{put_str, Reader};

/// Frame magic: first byte of every telemetry record.
const MAGIC: u8 = b'T';
/// Record tag for span frames.
const TAG_SPAN: u8 = b'S';
/// Record tag for metric frames.
const TAG_METRIC: u8 = b'M';

/// A decoded span event, the monitor-side view of a
/// [`SpanRecord`]. Owned strings throughout (`SpanRecord::system` is a
/// `&'static str` on the producer side, which cannot survive a wire hop).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// Causal parent span id, `None` for trace roots.
    pub parent: Option<u64>,
    /// Owning subsystem, e.g. `taureau-faas`.
    pub system: String,
    /// Operation name, e.g. `faas.invoke`.
    pub name: String,
    /// Span open timestamp, microseconds of clock time.
    pub start_us: u64,
    /// Span close timestamp, microseconds of clock time.
    pub end_us: u64,
    /// Key/value attributes.
    pub attrs: Vec<(String, String)>,
}

impl SpanEvent {
    /// Build from a producer-side record.
    pub fn from_record(r: &SpanRecord) -> Self {
        Self {
            trace_id: r.trace_id.0,
            span_id: r.span_id.0,
            parent: r.parent.map(|p| p.0),
            system: r.system.to_string(),
            name: r.name.clone(),
            start_us: r.start.as_micros() as u64,
            end_us: r.end.as_micros() as u64,
            attrs: r
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Span duration in microseconds (saturating).
    pub(crate) fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Value of an attribute, if present.
    pub(crate) fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Write one span frame.
fn put_span<'s>(
    out: &mut Vec<u8>,
    (trace_id, span_id, parent): (u64, u64, Option<u64>),
    (start_us, end_us): (u64, u64),
    system: &str,
    name: &str,
    attrs: impl ExactSizeIterator<Item = (&'s str, &'s str)>,
) {
    out.put_u8(MAGIC);
    out.put_u8(TAG_SPAN);
    out.put_u64_le(trace_id);
    out.put_u64_le(span_id);
    match parent {
        Some(p) => {
            out.put_u8(1);
            out.put_u64_le(p);
        }
        None => out.put_u8(0),
    }
    out.put_u64_le(start_us);
    out.put_u64_le(end_us);
    put_str(out, system);
    put_str(out, name);
    let n_attrs = attrs.len().min(u16::MAX as usize);
    out.put_u16_le(n_attrs as u16);
    for (k, v) in attrs.take(n_attrs) {
        put_str(out, k);
        put_str(out, v);
    }
}

/// Encode a span event as one telemetry frame.
pub fn encode_span(ev: &SpanEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + ev.name.len() + ev.system.len());
    put_span(
        &mut out,
        (ev.trace_id, ev.span_id, ev.parent),
        (ev.start_us, ev.end_us),
        &ev.system,
        &ev.name,
        ev.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())),
    );
    out
}

/// Append the bytes of `encode_span(&SpanEvent::from_record(r))` to
/// `out`, without building the owned event in between.
pub fn encode_record(r: &SpanRecord, out: &mut Vec<u8>) {
    put_span(
        out,
        (r.trace_id.0, r.span_id.0, r.parent.map(|p| p.0)),
        (r.start.as_micros() as u64, r.end.as_micros() as u64),
        r.system,
        &r.name,
        r.attrs.iter().map(|(k, v)| (*k, v.as_str())),
    );
}

/// A span frame decoded in place: the fields of [`SpanEvent`], strings
/// as views into the frame, attributes re-walked on demand.
/// [`SpanRef::parse`] validates the whole frame, so the accessors cannot
/// fail afterwards.
pub struct SpanRef<'a> {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// Causal parent span id, `None` for trace roots.
    pub parent: Option<u64>,
    /// Span open timestamp, microseconds of clock time.
    pub start_us: u64,
    /// Span close timestamp, microseconds of clock time.
    pub end_us: u64,
    /// Owning subsystem, e.g. `taureau-faas`.
    pub system: &'a str,
    /// Operation name, e.g. `faas.invoke`.
    pub name: &'a str,
    n_attrs: u16,
    /// The validated attribute pairs, still encoded.
    attrs: Reader<'a>,
}

impl<'a> SpanRef<'a> {
    /// Decode a span frame; `None` on any malformed input. Bytes after
    /// the last attribute are ignored.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u8()? != MAGIC || r.u8()? != TAG_SPAN {
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
            r.str()?;
            r.str()?;
        }
        Some(span)
    }

    /// Key/value attributes, in wire order.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let mut r = self.attrs.clone();
        (0..self.n_attrs).map_while(move |_| Some((r.str()?, r.str()?)))
    }

    /// The owned form.
    pub fn to_owned(&self) -> SpanEvent {
        SpanEvent {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent: self.parent,
            system: self.system.to_string(),
            name: self.name.to_string(),
            start_us: self.start_us,
            end_us: self.end_us,
            attrs: self
                .attrs()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// Decode a span frame; `None` on any malformed input.
pub(crate) fn decode_span(bytes: &[u8]) -> Option<SpanEvent> {
    SpanRef::parse(bytes).map(|s| s.to_owned())
}

/// Encode a metric delta as one telemetry frame.
pub(crate) fn encode_metric(name: &str, delta: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + name.len());
    out.put_u8(MAGIC);
    out.put_u8(TAG_METRIC);
    out.put_u64_le(delta);
    put_str(&mut out, name);
    out
}

/// Decode a metric frame; `None` on any malformed input.
pub(crate) fn decode_metric(bytes: &[u8]) -> Option<(String, u64)> {
    let mut r = Reader::new(bytes);
    if r.u8()? != MAGIC || r.u8()? != TAG_METRIC {
        return None;
    }
    let delta = r.u64()?;
    let name = r.str()?;
    Some((name.to_string(), delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> SpanEvent {
        SpanEvent {
            trace_id: 0xdead_beef,
            span_id: 42,
            parent: Some(41),
            system: "taureau-faas".to_string(),
            name: "faas.invoke".to_string(),
            start_us: 1_000,
            end_us: 3_500,
            attrs: vec![
                ("function".to_string(), "thumbnail".to_string()),
                ("outcome".to_string(), "ok".to_string()),
            ],
        }
    }

    #[test]
    fn span_roundtrip() {
        let ev = sample_event();
        let decoded = decode_span(&encode_span(&ev)).unwrap();
        assert_eq!(decoded, ev);
        assert_eq!(decoded.duration_us(), 2_500);
        assert_eq!(decoded.attr("outcome"), Some("ok"));
        assert_eq!(decoded.attr("missing"), None);
    }

    #[test]
    fn rootless_span_roundtrip() {
        let mut ev = sample_event();
        ev.parent = None;
        ev.attrs.clear();
        assert_eq!(decode_span(&encode_span(&ev)).unwrap(), ev);
    }

    #[test]
    fn metric_roundtrip() {
        let frame = encode_metric("faas.cold_starts", 7);
        assert_eq!(
            decode_metric(&frame),
            Some(("faas.cold_starts".to_string(), 7))
        );
    }

    #[test]
    fn malformed_frames_decode_to_none() {
        assert_eq!(decode_span(&[]), None);
        assert_eq!(decode_metric(&[]), None);
        assert_eq!(decode_span(b"garbage frame"), None);
        // Wrong tag for the decoder in use.
        let ev = sample_event();
        assert_eq!(decode_metric(&encode_span(&ev)), None);
        assert_eq!(decode_span(&encode_metric("x", 1)), None);
        // Truncated at every prefix length still returns None, not panic.
        let frame = encode_span(&ev);
        for cut in 0..frame.len() {
            assert_eq!(decode_span(&frame[..cut]), None);
        }
    }

    #[test]
    fn from_record_converts_static_fields() {
        use std::sync::Arc;
        use taureau_core::clock::VirtualClock;
        use taureau_core::trace::Tracer;

        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(clock.clone());
        {
            let mut g = tracer.span("taureau-test", "op");
            g.attr("k", "v");
            clock.advance(std::time::Duration::from_micros(9));
        }
        let record = &tracer.spans()[0];
        let ev = SpanEvent::from_record(record);
        assert_eq!(ev.system, "taureau-test");
        assert_eq!(ev.name, "op");
        assert_eq!(ev.duration_us(), 9);
        assert_eq!(ev.attr("k"), Some("v"));
    }

    /// The frame `sample_event` encoded to before the encoder was split
    /// into `put_span` (captured on the commit before): the wire format
    /// did not move.
    #[test]
    fn span_frame_bytes_are_pinned() {
        let hex: String = encode_span(&sample_event())
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

    fn sample_record(name: &str, attrs: Vec<(&'static str, String)>) -> SpanRecord {
        use std::time::Duration;
        use taureau_core::trace::{SpanId, TraceId};
        SpanRecord {
            trace_id: TraceId(name.len() as u64),
            span_id: SpanId(attrs.len() as u64 + 1),
            parent: (!attrs.is_empty()).then_some(SpanId(9)),
            name: name.to_string(),
            system: "système-π",
            start: Duration::from_micros(17),
            end: Duration::from_micros(170),
            attrs,
        }
    }

    #[test]
    fn encode_record_matches_the_owned_encoder_and_reads_back_borrowed() {
        let long = "n".repeat(70_000); // past the u16 length: truncated alike
        let attrs = |n: usize| (0..n).map(|i| ("k", format!("väl-{i}"))).collect();
        for record in [
            sample_record("", Vec::new()),
            sample_record("faas.invoke", attrs(1)),
            sample_record("ünï.cödé", attrs(20)),
            sample_record(&long, attrs(3)),
        ] {
            let owned = SpanEvent::from_record(&record);
            let mut frame = vec![0xAA]; // appends, never overwrites
            encode_record(&record, &mut frame);
            assert_eq!(frame[0], 0xAA);
            assert_eq!(&frame[1..], &encode_span(&owned)[..]);
            let span = SpanRef::parse(&frame[1..]).expect("valid frame");
            let decoded = span.to_owned();
            assert_eq!(decoded.name.len(), owned.name.len().min(u16::MAX as usize));
            assert_eq!(decoded.attrs, owned.attrs);
            assert_eq!(span.attrs().count(), owned.attrs.len());
            assert_eq!(
                (span.system, span.start_us, span.end_us),
                ("système-π", 17, 170)
            );
        }
    }

    /// A string past the `u16` length is cut at the last character
    /// boundary that fits, so a long non-ASCII name or value still makes a
    /// frame the decoder accepts (cut mid-character, it was refused whole).
    #[test]
    fn a_long_non_ascii_string_is_cut_at_a_char_boundary() {
        let long = "é".repeat(35_000);
        let record = sample_record(&long, vec![("k", long.clone())]);
        let mut frame = Vec::new();
        encode_record(&record, &mut frame);
        let span = SpanRef::parse(&frame).expect("valid frame");
        let kept = "é".repeat(32_767);
        assert_eq!(span.name, kept);
        assert_eq!(span.attrs().collect::<Vec<_>>(), vec![("k", kept.as_str())]);
    }

    /// Arbitrary and corrupted bytes: the borrowed decoder never panics,
    /// and whatever it accepts it can also walk and own.
    #[test]
    fn hostile_frames_never_panic_the_borrowed_decoder() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let valid = encode_span(&sample_event());
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
            if let Some(span) = SpanRef::parse(&frame) {
                assert_eq!(span.attrs().count(), span.to_owned().attrs.len());
                assert_eq!(decode_span(&frame), Some(span.to_owned()));
            } else {
                assert_eq!(decode_span(&frame), None);
            }
        }
    }
}
