//! Critical-path extraction over a reconstructed trace.

use std::collections::HashMap;
use std::time::Duration;

use taureau_core::trace::TraceId;

use crate::graph::TraceGraph;

/// A stretch of the critical path spent in one span's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Index of the span (into [`TraceGraph::spans`]) doing the work.
    pub(crate) span: usize,
    /// Segment start (trace clock).
    pub(crate) start: Duration,
    /// Segment end (trace clock).
    pub(crate) end: Duration,
}

impl PathSegment {
    /// Length of this stretch.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The critical path of one trace: the causally-dependent chain of
/// self-work that determined the root span's end-to-end latency.
/// Shortening any segment shortens the whole request; work off the path
/// is shadowed by it.
///
/// Computed by walking backwards from the root's end: at every point the
/// path descends into the child whose completion gated that moment, and
/// gaps between gating children are the parent's own work. Every
/// nanosecond of the root's duration lands in exactly one segment, so
/// the per-name/per-system rollups always sum to [`CriticalPath::total`].
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The trace analyzed.
    pub(crate) trace_id: TraceId,
    /// Root duration — what the rollups sum to.
    pub total: Duration,
    /// Path segments in chronological order.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Extract the critical path of `trace`; `None` when the graph holds
    /// no root for it.
    pub fn compute(graph: &TraceGraph, trace: TraceId) -> Option<Self> {
        Some(Self::compute_from(graph, graph.root_of(trace)?))
    }

    /// Extract the critical path of the subtree under `root` (any span
    /// index, not necessarily a trace root) — e.g. just the consumer-side
    /// `faas.invoke` hop of a publish-rooted trace.
    pub(crate) fn compute_from(graph: &TraceGraph, root: usize) -> Self {
        let mut segments = Vec::new();
        walk(graph, root, graph.span(root).end, &mut segments);
        segments.reverse();
        Self {
            trace_id: graph.span(root).trace_id,
            total: graph.span(root).duration(),
            segments,
        }
    }

    /// On-path self time per span name, descending.
    pub(crate) fn by_name(&self, graph: &TraceGraph) -> Vec<(String, Duration)> {
        self.rollup(|i| graph.span(i).name.to_string())
    }

    /// On-path self time per subsystem, descending.
    pub(crate) fn by_system(&self, graph: &TraceGraph) -> Vec<(String, Duration)> {
        self.rollup(|i| graph.span(i).system.to_string())
    }

    /// The single largest contributor by span name.
    pub fn top_name(&self, graph: &TraceGraph) -> Option<(String, Duration)> {
        self.by_name(graph).into_iter().next()
    }

    fn rollup(&self, key: impl Fn(usize) -> String) -> Vec<(String, Duration)> {
        let mut agg: HashMap<String, Duration> = HashMap::new();
        for seg in &self.segments {
            *agg.entry(key(seg.span)).or_default() += seg.duration();
        }
        let mut out: Vec<(String, Duration)> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Backward walk: attribute `span`'s window up to `until`. Children are
/// visited latest-completion first; the interval between a gating child's
/// end and the previous attribution point is the parent's own work, and
/// the child is then analyzed within its own window. Children that end
/// after `until` (already shadowed) or entirely before the span's start
/// (clock noise) are skipped. Segments are pushed in reverse
/// chronological order; the caller reverses once.
fn walk(graph: &TraceGraph, span: usize, until: Duration, segments: &mut Vec<PathSegment>) {
    let rec = graph.span(span);
    let mut cursor = until;
    let mut kids: Vec<usize> = graph.children(span).to_vec();
    kids.sort_by_key(|&c| graph.span(c).end);
    for &child in kids.iter().rev() {
        let ch = graph.span(child);
        if ch.end > cursor || ch.end <= rec.start {
            continue;
        }
        // Parent self-work between this gating child finishing and the
        // previously attributed point.
        if cursor > ch.end {
            segments.push(PathSegment {
                span,
                start: ch.end,
                end: cursor,
            });
        }
        walk(graph, child, ch.end, segments);
        cursor = ch.start.max(rec.start);
        if cursor <= rec.start {
            return;
        }
    }
    if cursor > rec.start {
        segments.push(PathSegment {
            span,
            start: rec.start,
            end: cursor,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::trace::{Attrs, SpanId, SpanRecord};

    fn span(
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
            attrs: Attrs::new(),
        }
    }

    #[test]
    fn path_attributes_every_nanosecond_once() {
        // root [0,100] with sequential children a [10,40], b [50,90]:
        // path = root(0-10), a(10-40), root(40-50), b(50-90), root(90-100).
        let g = TraceGraph::build(vec![
            span(1, 1, None, "root", 0, 100),
            span(1, 2, Some(1), "a", 10, 40),
            span(1, 3, Some(1), "b", 50, 90),
        ]);
        let cp = CriticalPath::compute(&g, TraceId(1)).unwrap();
        assert_eq!(cp.total, Duration::from_micros(100));
        let attributed: Duration = cp.segments.iter().map(|s| s.duration()).sum();
        assert_eq!(attributed, cp.total);
        assert_eq!(cp.segments.len(), 5);
        // Chronological, gap-free.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let by_name = cp.by_name(&g);
        let root_time = by_name.iter().find(|(n, _)| n == "root").unwrap().1;
        assert_eq!(root_time, Duration::from_micros(30));
    }

    #[test]
    fn parallel_children_only_the_gating_one_is_on_path() {
        // Fan-out: slow [10,80] shadows fast [10,30]. The fast child must
        // not appear on the path at all.
        let g = TraceGraph::build(vec![
            span(1, 1, None, "root", 0, 100),
            span(1, 2, Some(1), "fast", 10, 30),
            span(1, 3, Some(1), "slow", 10, 80),
        ]);
        let cp = CriticalPath::compute(&g, TraceId(1)).unwrap();
        let names: Vec<&str> = cp.segments.iter().map(|s| g.span(s.span).name).collect();
        assert!(names.contains(&"slow"));
        assert!(!names.contains(&"fast"));
        let attributed: Duration = cp.segments.iter().map(|s| s.duration()).sum();
        assert_eq!(attributed, cp.total);
        // Deep nesting: the path descends transitively.
        let g2 = TraceGraph::build(vec![
            span(2, 1, None, "root", 0, 100),
            span(2, 2, Some(1), "mid", 10, 90),
            span(2, 3, Some(2), "leaf", 20, 80),
        ]);
        let cp2 = CriticalPath::compute(&g2, TraceId(2)).unwrap();
        assert_eq!(
            cp2.top_name(&g2).unwrap(),
            ("leaf".to_string(), Duration::from_micros(60))
        );
        assert!(CriticalPath::compute(&g2, TraceId(9)).is_none());
    }
}
