//! Trace-graph reconstruction from a flat span dump.

use std::collections::HashMap;
use std::time::Duration;

use taureau_core::trace::{SpanId, SpanRecord, TraceId};

/// The causal DAG rebuilt from a flat list of [`SpanRecord`]s (e.g.
/// [`Tracer::spans`][taureau_core::trace::Tracer::spans], or spans decoded
/// off the `_telemetry` batch stream).
///
/// Holds any number of traces at once. Parent links are resolved to
/// indices; a span whose parent was not captured (sampled out, evicted
/// from the flight recorder, or produced by an earlier process — the
/// checkpoint-restore case) is treated as a root of its trace, so
/// analysis degrades gracefully on partial captures.
#[derive(Debug, Clone)]
pub struct TraceGraph {
    spans: Vec<SpanRecord>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl TraceGraph {
    /// Build the graph. Children are ordered by start time, roots by
    /// (trace, start) so iteration order is deterministic whatever order
    /// the spans arrived in.
    pub fn build(spans: Vec<SpanRecord>) -> Self {
        let by_id: HashMap<SpanId, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, i))
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent.and_then(|p| by_id.get(&p)) {
                Some(&p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        for c in &mut children {
            c.sort_by_key(|&i| spans[i].start);
        }
        roots.sort_by_key(|&i| (spans[i].trace_id.0, spans[i].start));
        Self {
            spans,
            children,
            roots,
        }
    }

    /// Number of spans in the graph.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans, in build order. Indices into this slice are the node
    /// ids used by every other accessor.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The span at `idx`.
    pub(crate) fn span(&self, idx: usize) -> &SpanRecord {
        &self.spans[idx]
    }

    /// Children of `idx`, ordered by start time.
    pub(crate) fn children(&self, idx: usize) -> &[usize] {
        &self.children[idx]
    }

    /// Root spans (no captured parent), ordered by (trace, start).
    pub(crate) fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Spans that *recorded* a parent which was never captured: they
    /// surface as roots, but a fully stitched cross-node trace should
    /// have none. The cluster observability acceptance test asserts this
    /// is empty after reassembling collector-side captures.
    pub fn orphans(&self) -> Vec<usize> {
        self.roots
            .iter()
            .copied()
            .filter(|&i| self.spans[i].parent.is_some())
            .collect()
    }

    /// Distinct subsystem names across all spans, sorted — a quick check
    /// that a stitched trace really crosses the tiers it should.
    #[cfg(test)]
    pub(crate) fn systems(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.system) {
                out.push(s.system);
            }
        }
        out.sort_unstable();
        out
    }

    /// Distinct trace ids, in root order.
    #[cfg(test)]
    pub(crate) fn traces(&self) -> Vec<TraceId> {
        let mut out: Vec<TraceId> = Vec::new();
        for &r in &self.roots {
            let t = self.spans[r].trace_id;
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// The root of `trace` — when a trace has several captured roots
    /// (partial capture), the earliest-starting one.
    pub(crate) fn root_of(&self, trace: TraceId) -> Option<usize> {
        self.roots
            .iter()
            .copied()
            .find(|&r| self.spans[r].trace_id == trace)
    }

    /// Every span of `trace`, as indices.
    #[cfg(test)]
    pub(crate) fn trace_spans(&self, trace: TraceId) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].trace_id == trace)
            .collect()
    }

    /// Time `idx` spent in its own code: its duration minus the time its
    /// children cover within its window (overlapping children — parallel
    /// fan-out — are merged, not double-subtracted).
    pub(crate) fn self_time(&self, idx: usize) -> Duration {
        let s = &self.spans[idx];
        // Merge child intervals clamped to the parent window.
        let mut ivs: Vec<(Duration, Duration)> = self.children[idx]
            .iter()
            .map(|&c| {
                let ch = &self.spans[c];
                (ch.start.max(s.start), ch.end.min(s.end))
            })
            .filter(|(a, b)| b > a)
            .collect();
        ivs.sort();
        let mut covered = Duration::ZERO;
        let mut cur: Option<(Duration, Duration)> = None;
        for (a, b) in ivs {
            match &mut cur {
                Some((_, e)) if a <= *e => *e = (*e).max(b),
                _ => {
                    if let Some((st, e)) = cur {
                        covered += e - st;
                    }
                    cur = Some((a, b));
                }
            }
        }
        if let Some((st, e)) = cur {
            covered += e - st;
        }
        s.duration().saturating_sub(covered)
    }

    /// Self-time summed per span name across the whole graph, sorted
    /// descending — the flat profile ("where does time go, regardless of
    /// call path").
    pub fn self_time_by_name(&self) -> Vec<(String, Duration)> {
        let mut agg: HashMap<&str, Duration> = HashMap::new();
        for i in 0..self.spans.len() {
            *agg.entry(self.spans[i].name).or_default() += self.self_time(i);
        }
        let mut out: Vec<(String, Duration)> =
            agg.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_us: u64,
        end_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(trace),
            span_id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            system: "test",
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            attrs: taureau_core::trace::Attrs::new(),
        }
    }

    #[test]
    fn builds_dag_with_orphans_as_roots() {
        let g = TraceGraph::build(vec![
            span(1, 10, None, "root", 0, 100),
            span(1, 11, Some(10), "child", 10, 40),
            span(1, 12, Some(10), "child", 50, 90),
            // Parent 99 was never captured: orphan joins trace 2's roots.
            span(2, 20, Some(99), "orphan", 0, 10),
        ]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.roots().len(), 2);
        assert_eq!(g.traces(), vec![TraceId(1), TraceId(2)]);
        let root = g.root_of(TraceId(1)).unwrap();
        assert_eq!(g.span(root).name, "root");
        assert_eq!(g.children(root).len(), 2);
        assert_eq!(g.trace_spans(TraceId(1)).len(), 3);
        assert!(g.root_of(TraceId(7)).is_none());
    }

    #[test]
    fn orphans_are_roots_with_uncaptured_parents() {
        let g = TraceGraph::build(vec![
            span(1, 10, None, "root", 0, 100),
            span(1, 11, Some(10), "child", 10, 40),
            span(2, 20, Some(99), "orphan", 0, 10),
        ]);
        assert_eq!(g.orphans(), vec![2]);
        assert_eq!(g.systems(), vec!["test"]);

        let stitched = TraceGraph::build(vec![
            span(1, 10, None, "root", 0, 100),
            span(1, 11, Some(10), "child", 10, 40),
        ]);
        assert!(stitched.orphans().is_empty());
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let g = TraceGraph::build(vec![
            span(1, 1, None, "root", 0, 100),
            // Two parallel children overlapping [20, 60): the union
            // [10, 70) is covered once, leaving 40us of self time.
            span(1, 2, Some(1), "a", 10, 60),
            span(1, 3, Some(1), "b", 20, 70),
        ]);
        assert_eq!(g.self_time(0), Duration::from_micros(40));
        assert_eq!(g.self_time(1), Duration::from_micros(50));
        let flat = g.self_time_by_name();
        assert_eq!(flat[0].0, "a");
        assert_eq!(flat[0].1, Duration::from_micros(50));
    }
}
