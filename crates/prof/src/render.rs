//! Human- and tool-readable views of a trace analysis.

use std::fmt::Write as _;
use std::time::Duration;

use taureau_core::trace::TraceId;

use crate::critical::CriticalPath;
use crate::graph::TraceGraph;

/// Indented span tree for one trace: `name [system] total (self …) attrs`,
/// children beneath their parent in start order. Spans on `path` (if
/// given) are flagged with `*` — the chain that gated end-to-end latency.
pub fn render_tree(graph: &TraceGraph, trace: TraceId, path: Option<&CriticalPath>) -> String {
    let on_path: Vec<bool> = {
        let mut v = vec![false; graph.len()];
        if let Some(p) = path {
            for seg in &p.segments {
                v[seg.span] = true;
            }
        }
        v
    };
    let mut out = String::new();
    for &root in graph.roots() {
        if graph.span(root).trace_id != trace {
            continue;
        }
        render_node(graph, root, 0, &on_path, &mut out);
    }
    out
}

fn render_node(graph: &TraceGraph, idx: usize, depth: usize, on_path: &[bool], out: &mut String) {
    let s = graph.span(idx);
    let marker = if on_path[idx] { "*" } else { " " };
    let _ = writeln!(
        out,
        "{}{} {} [{}] {:.3?} (self {:.3?}){}",
        "  ".repeat(depth),
        marker,
        s.name,
        s.system,
        s.duration(),
        graph.self_time(idx),
        if s.attrs.is_empty() {
            String::new()
        } else {
            format!(
                "  {}",
                s.attrs
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        }
    );
    for &c in graph.children(idx) {
        render_node(graph, c, depth + 1, on_path, out);
    }
}

/// The critical-path report: chronological segments, then per-name and
/// per-system attribution tables with percentages of the end-to-end
/// total. This is the text the e27 experiment prints.
pub fn render_critical_path(graph: &TraceGraph, path: &CriticalPath) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path of trace {:#x}: {:.3?} end-to-end, {} segments",
        path.trace_id.0,
        path.total,
        path.segments.len()
    );
    for seg in &path.segments {
        let s = graph.span(seg.span);
        let _ = writeln!(
            out,
            "  {:>10.3?}..{:>10.3?}  {:>10.3?}  {} [{}]",
            seg.start,
            seg.end,
            seg.duration(),
            s.name,
            s.system
        );
    }
    let total = path.total.max(Duration::from_nanos(1));
    for (title, rows) in [
        ("by span name", path.by_name(graph)),
        ("by subsystem", path.by_system(graph)),
    ] {
        let _ = writeln!(out, "attribution {title}:");
        for (name, d) in rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>10.3?}  {:>5.1}%",
                name,
                d,
                100.0 * d.as_secs_f64() / total.as_secs_f64()
            );
        }
    }
    out
}

/// Serialize the whole graph as Chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto "JSON array" format): one complete
/// (`"ph":"X"`) event per span, grouped by trace via `pid` and by
/// subsystem via `tid`, attrs carried in `args`. Load the returned string
/// directly in the viewer.
pub fn chrome_trace(graph: &TraceGraph) -> String {
    let mut out = String::from("[");
    for (i, s) in graph.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
            json_str(s.name),
            json_str(s.system),
            s.start.as_nanos() as f64 / 1000.0,
            s.duration().as_nanos() as f64 / 1000.0,
            s.trace_id.0,
            stable_tid(s.system),
        );
        let _ = write!(out, "\"span_id\":{}", s.span_id.0);
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{}", p.0);
        }
        for (k, v) in s.attrs.iter() {
            let _ = write!(out, ",{}:{}", json_str(k), json_str(&v.to_string()));
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

/// Stable small integer per subsystem name so spans group into one lane
/// per component in the viewer.
fn stable_tid(system: &str) -> u64 {
    system
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
        % 1000
}

/// Minimal JSON string encoding: quotes, backslashes, and control
/// characters escaped.
fn json_str(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::trace::{Attrs, SpanId, SpanRecord};

    fn graph() -> TraceGraph {
        TraceGraph::build(vec![
            SpanRecord {
                trace_id: TraceId(1),
                span_id: SpanId(1),
                parent: None,
                name: "root",
                system: "sys-a",
                start: Duration::ZERO,
                end: Duration::from_micros(100),
                attrs: [("note", "he said \"hi\"\n")].into_iter().collect(),
            },
            SpanRecord {
                trace_id: TraceId(1),
                span_id: SpanId(2),
                parent: Some(SpanId(1)),
                name: "child",
                system: "sys-b",
                start: Duration::from_micros(10),
                end: Duration::from_micros(60),
                attrs: Attrs::new(),
            },
        ])
    }

    #[test]
    fn tree_and_path_reports_render() {
        let g = graph();
        let cp = CriticalPath::compute(&g, TraceId(1)).unwrap();
        let tree = render_tree(&g, TraceId(1), Some(&cp));
        assert!(tree.contains("root") && tree.contains("  "));
        assert!(tree.lines().any(|l| l.trim_start().starts_with('*')));
        let report = render_critical_path(&g, &cp);
        assert!(report.contains("critical path of trace 0x1"));
        assert!(report.contains("by span name") && report.contains("by subsystem"));
        assert!(report.contains("100.0%") || report.contains("50.0%"));
    }

    #[test]
    fn chrome_trace_is_escaped_json() {
        let g = graph();
        let json = chrome_trace(&g);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // The attr with quote + newline is escaped, never raw.
        assert!(json.contains("he said \\\"hi\\\"\\n"));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"parent\":1"));
    }
}
