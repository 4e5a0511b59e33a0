//! Framed binary encoding of telemetry events for the Pulsar transport.
//!
//! The workspace's serde shim derives are inert (see `shims/README.md`),
//! so the wire format is hand-rolled: a two-byte header (`b'T'` magic +
//! record tag) followed by little-endian fixed-width integers and
//! `u16`-length-prefixed UTF-8 strings, written through `BufMut` and
//! read through [`taureau_core::wire::Reader`]. Decoders are total — malformed
//! frames decode to `None` and are counted by the consumer, never panicked
//! on; the telemetry plane must survive garbage on its own topics.

use std::fmt::{self, Write as _};

use bytes::BufMut;
use taureau_core::trace::{AttrValue, SpanRecord};
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
            name: r.name.to_string(),
            start_us: r.start.as_micros() as u64,
            end_us: r.end.as_micros() as u64,
            attrs: r
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
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

/// Write one span frame up to its attribute pairs; returns how many of
/// `n_attrs` the frame has room to count (the caller writes that many).
fn put_span_head(
    out: &mut Vec<u8>,
    (trace_id, span_id, parent): (u64, u64, Option<u64>),
    (start_us, end_us): (u64, u64),
    (system, name): (&str, &str),
    n_attrs: usize,
) -> usize {
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
    let n_attrs = n_attrs.min(u16::MAX as usize);
    out.put_u16_le(n_attrs as u16);
    n_attrs
}

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

/// Encode a span event as one telemetry frame.
pub fn encode_span(ev: &SpanEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + ev.name.len() + ev.system.len());
    let n = put_span_head(
        &mut out,
        (ev.trace_id, ev.span_id, ev.parent),
        (ev.start_us, ev.end_us),
        (&ev.system, &ev.name),
        ev.attrs.len(),
    );
    for (k, v) in ev.attrs.iter().take(n) {
        put_str(&mut out, k);
        put_str(&mut out, v);
    }
    out
}

/// Append the bytes of `encode_span(&SpanEvent::from_record(r))` to
/// `out`, without building the owned event or any value's text in
/// between.
pub fn encode_record(r: &SpanRecord, out: &mut Vec<u8>) {
    let n = put_span_head(
        out,
        (r.trace_id.0, r.span_id.0, r.parent.map(|p| p.0)),
        (r.start.as_micros() as u64, r.end.as_micros() as u64),
        (r.system, r.name),
        r.attrs.len(),
    );
    for (k, v) in r.attrs.iter().take(n) {
        put_str(out, k);
        put_value(out, v);
    }
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
        Self::parse_visiting(bytes, |_, _| {})
    }

    /// [`Self::parse`], handing `visit` each attribute pair as it is
    /// validated: a reader that wants one value needs no second walk.
    /// `visit` may have seen a prefix of the pairs when the frame is
    /// refused.
    pub fn parse_visiting(
        bytes: &'a [u8],
        mut visit: impl FnMut(&'a str, &'a str),
    ) -> Option<Self> {
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
            visit(r.str()?, r.str()?);
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
    use taureau_core::trace::Attrs;

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

    fn sample_record(name: &'static str, attrs: Attrs) -> SpanRecord {
        use std::time::Duration;
        use taureau_core::trace::{SpanId, TraceId};
        SpanRecord {
            trace_id: TraceId(name.len() as u64),
            span_id: SpanId(attrs.len() as u64 + 1),
            parent: (!attrs.is_empty()).then_some(SpanId(9)),
            name,
            system: "système-π",
            start: Duration::from_micros(17),
            end: Duration::from_micros(170),
            attrs,
        }
    }

    #[test]
    fn encode_record_matches_the_owned_encoder_and_reads_back_borrowed() {
        let long = "n".repeat(70_000).leak(); // past the u16 length: truncated alike
        let attrs = |n: usize| (0..n).map(|i| ("k", format!("väl-{i}"))).collect();
        for record in [
            sample_record("", Attrs::new()),
            sample_record("faas.invoke", attrs(1)),
            sample_record("ünï.cödé", attrs(20)),
            sample_record(long, attrs(3)),
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
        let long = "é".repeat(35_000).leak();
        let record = sample_record(long, [("k", &*long)].into_iter().collect());
        let mut frame = Vec::new();
        encode_record(&record, &mut frame);
        let span = SpanRef::parse(&frame).expect("valid frame");
        let kept = "é".repeat(32_767);
        assert_eq!(span.name, kept);
        assert_eq!(span.attrs().collect::<Vec<_>>(), vec![("k", kept.as_str())]);
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

    proptest! {
        /// The in-place encoder writes, for any record, the frame the owned
        /// encoder writes for its `to_string()`-rendered event.
        #[test]
        fn encode_record_writes_the_frame_of_its_rendered_values(seed in any::<u64>()) {
            const NAMES: [&str; 4] = ["faas.billing", "", "öp.ünï", "cluster.pub"];
            const KEYS: [&str; 4] = ["cost_usd", "node", "ключ", ""];
            let mut rng = det_rng(seed);
            let mut record = sample_record(
                NAMES[rng.gen_range(0..NAMES.len())],
                (0..rng.gen_range(0..12))
                    .map(|_| (KEYS[rng.gen_range(0..KEYS.len())], random_value(&mut rng)))
                    .collect(),
            );
            record.trace_id.0 = rng.gen();
            record.end = std::time::Duration::from_micros(rng.gen_range(17..1 << 40));
            // `from_record` renders each value with `to_string()`.
            let rendered = SpanEvent::from_record(&record);
            let mut frame = Vec::new();
            encode_record(&record, &mut frame);
            prop_assert!(frame == encode_span(&rendered), "frames differ for {:?}", record.attrs);
        }
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
