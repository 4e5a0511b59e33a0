//! The one blackbox writer: a flight-recorder dump is a text file and a
//! `trace.json` under the Jiffy namespace `/blackbox/<id>/`. The monitor
//! writes one when an alert fires or an invocation fails
//! (`summary.txt`), the cluster plane when a failover fires
//! (`timeline.txt`).

use std::fmt::Write as _;

use taureau_core::trace::{suppress_telemetry, SpanRecord};
use taureau_jiffy::{Jiffy, JiffyError};

/// Write `/blackbox/<id>/<name>` holding `text`, and
/// `/blackbox/<id>/trace.json` holding `spans`. A write over an
/// instrumented Jiffy emits no telemetry about itself.
pub fn write_blackbox(
    jiffy: &Jiffy,
    id: &str,
    (name, text): (&str, &str),
    spans: &[SpanRecord],
) -> Result<(), JiffyError> {
    let trace_json = render_trace_json(spans);
    suppress_telemetry(|| {
        let base = format!("/blackbox/{id}");
        jiffy
            .create_file(format!("{base}/{name}").as_str())?
            .append(text.as_bytes())?;
        jiffy
            .create_file(format!("{base}/trace.json").as_str())?
            .append(trace_json.as_bytes())?;
        Ok(())
    })
}

/// Minimal JSON array of span objects (hand-rolled: the serde shim's
/// derives are inert).
fn render_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"span_id\":\"{}\",\"name\":{},\"system\":{},\"start_us\":{},\"end_us\":{}",
            s.trace_id,
            s.span_id,
            json_string(s.name),
            json_string(s.system),
            s.start.as_micros(),
            s.end.as_micros(),
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent_span_id\":\"{p}\"");
        }
        if !s.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(k), json_string(&v.to_string()));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push(']');
    out
}

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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
