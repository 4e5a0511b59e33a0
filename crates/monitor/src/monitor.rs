//! The streaming monitor: consumes the telemetry topic, folds its batches
//! and evaluates SLO policies over them.
//!
//! This is the paper's Fig. 3 pattern pointed at the stack itself: the
//! monitor is just another sketch-maintaining stream consumer over a
//! Pulsar subscription, and it folds with the same [`TelemetryFold`] the
//! cluster collector uses. Folded state is bounded: per-operation sketches
//! are O(k log n), a policy's windows are O(slices), top-K is O(k), and
//! flight-recorder dumps are deduplicated and capped.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::time::Duration;

use taureau_core::clock::SharedClock;
use taureau_core::trace::{suppress_telemetry, SpanRecord, Tracer};
use taureau_jiffy::Jiffy;
use taureau_pulsar::{Consumer, EntryView, PulsarCluster, PulsarError, SubscriptionMode};

use crate::blackbox::write_blackbox;
use crate::fold::TelemetryFold;
use crate::pump::TELEMETRY_TOPIC;
use crate::report::HealthReport;
use crate::slo::{AlertEvent, AlertState, SloPolicy, Watch};

/// Slices per policy window (more slices = smoother eviction).
const WINDOW_SLICES: usize = 10;
/// Maximum spans included in one dump when no specific trace is
/// implicated (alert-firing dumps take the most recent history).
const MAX_DUMP_SPANS: usize = 512;

/// Tuning for a [`Monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Fast window for latency quantiles, error rates and burn rates.
    pub fast_window: Duration,
    /// Slow window for burn-rate policies.
    pub slow_window: Duration,
    /// Minimum events in a window before a policy can fire (hysteresis
    /// against alerting on the first slow request of a quiet stream).
    pub min_samples: u64,
    /// Maximum flight-recorder dumps kept in the blackbox namespace.
    pub max_dumps: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            fast_window: Duration::from_secs(10),
            slow_window: Duration::from_secs(60),
            min_samples: 20,
            max_dumps: 32,
        }
    }
}

/// What one [`Monitor::poll`] round did.
#[derive(Debug, Clone, Default)]
pub struct PollSummary {
    /// Blackbox dump ids written this round.
    pub dumps: Vec<String>,
}

/// Streaming consumer of the telemetry topic. See the crate docs for
/// where it sits in the pipeline.
pub struct Monitor {
    cfg: MonitorConfig,
    clock: SharedClock,
    consumer: Consumer,
    /// Reused entry-view buffer for [`Monitor::poll`] so the steady-state
    /// drain loop allocates nothing per round.
    scratch: Vec<EntryView>,
    fold: TelemetryFold,
    watches: Vec<Watch>,
    alerts: Vec<AlertEvent>,
    alert_seq: u64,
    flight_recorder: Option<Tracer>,
    blackbox: Option<Jiffy>,
    dump_ids: Vec<String>,
    pending_failure_dumps: Vec<u64>,
}

impl Monitor {
    /// A monitor on `cluster`'s telemetry topic (created if no pump has
    /// yet), evaluating policies against `clock`.
    pub fn with_config(
        cluster: &PulsarCluster,
        clock: SharedClock,
        cfg: MonitorConfig,
    ) -> Result<Self, PulsarError> {
        if cluster.partitions(TELEMETRY_TOPIC).is_err() {
            cluster.create_topic(TELEMETRY_TOPIC, 1)?;
        }
        let consumer =
            cluster.subscribe(TELEMETRY_TOPIC, "_monitor", SubscriptionMode::Exclusive)?;
        Ok(Self {
            cfg,
            clock,
            consumer,
            scratch: Vec::new(),
            fold: TelemetryFold::default(),
            watches: Vec::new(),
            alerts: Vec::new(),
            alert_seq: 0,
            flight_recorder: None,
            blackbox: None,
            dump_ids: Vec::new(),
            pending_failure_dumps: Vec::new(),
        })
    }

    /// Add a policy to evaluate on every poll.
    pub fn with_policy(mut self, policy: SloPolicy) -> Self {
        let cfg = &self.cfg;
        let watch = Watch::new(policy, cfg.fast_window, cfg.slow_window, WINDOW_SLICES);
        self.watches.push(watch);
        self
    }

    /// Attach the tracer whose retained ring buffer serves as the flight
    /// recorder for blackbox dumps.
    pub fn with_flight_recorder(mut self, tracer: &Tracer) -> Self {
        self.flight_recorder = Some(tracer.clone());
        self
    }

    /// Attach the Jiffy store that receives `/blackbox/<alert-id>` dumps.
    pub fn with_blackbox(mut self, jiffy: &Jiffy) -> Self {
        self.blackbox = Some(jiffy.clone());
        self
    }

    /// Drain the telemetry topic, fold its batches, evaluate policies,
    /// and write any triggered blackbox dumps.
    pub fn poll(&mut self) -> Result<PollSummary, PulsarError> {
        let mut summary = PollSummary::default();
        // Consuming over an instrumented cluster must not emit telemetry
        // about the consumption (the same feedback loop the pump guards
        // against on the publish side). The topic drains as whole-entry
        // views, and the ack is one entry-granular cursor fold.
        let mut views = std::mem::take(&mut self.scratch);
        loop {
            let n = suppress_telemetry(|| self.consumer.receive_entries_into(64, &mut views))?;
            if n == 0 {
                break;
            }
            for view in &views {
                for mv in view.messages() {
                    let payload = mv.payload();
                    let Some(folded) = self.fold.ingest(&payload, None) else {
                        continue;
                    };
                    for (op, span) in folded.spans() {
                        for watch in &mut self.watches {
                            if watch.policy.op() == op {
                                watch.record(span);
                            }
                        }
                    }
                    // Invocation failures dump the implicated trace.
                    let failed = folded.failed_invokes();
                    self.pending_failure_dumps.extend_from_slice(failed);
                }
            }
            suppress_telemetry(|| self.consumer.ack_entries(&views))?;
        }
        views.clear();
        self.scratch = views;

        let now = self.clock.now();
        for trace_id in std::mem::take(&mut self.pending_failure_dumps) {
            let id = format!("invoke-failure-{trace_id:016x}");
            if let Some(id) = self.dump(&id, Some(trace_id), "invocation failure", now) {
                summary.dumps.push(id);
            }
        }
        // Policy transitions; firing alerts dump recent history.
        let min_samples = self.cfg.min_samples;
        for i in 0..self.watches.len() {
            let Some(event) = self.watches[i].evaluate(now, min_samples) else {
                continue;
            };
            if event.state == AlertState::Firing {
                self.alert_seq += 1;
                let id = format!("alert-{}-{}", self.alert_seq, event.policy);
                let reason = format!("alert firing: {event}");
                if let Some(id) = self.dump(&id, None, &reason, now) {
                    summary.dumps.push(id);
                }
            }
            self.alerts.push(event);
        }
        Ok(summary)
    }

    /// Write one blackbox dump. Returns the dump id, or `None` when the
    /// dump was deduplicated, capped, impossible (no blackbox store) or
    /// failed.
    fn dump(
        &mut self,
        id: &str,
        focus_trace: Option<u64>,
        reason: &str,
        now: Duration,
    ) -> Option<String> {
        let jiffy = self.blackbox.as_ref()?;
        if self.dump_ids.len() >= self.cfg.max_dumps || self.dump_ids.iter().any(|d| d == id) {
            return None;
        }
        let spans = match &self.flight_recorder {
            Some(tracer) => {
                let all = tracer.spans();
                match focus_trace {
                    Some(trace_id) => all
                        .into_iter()
                        .filter(|s| s.trace_id.0 == trace_id)
                        .collect(),
                    None => {
                        let skip = all.len().saturating_sub(MAX_DUMP_SPANS);
                        all.into_iter().skip(skip).collect()
                    }
                }
            }
            None => Vec::new(),
        };
        let summary = self.render_dump_summary(id, reason, now, &spans);
        write_blackbox(jiffy, id, ("summary.txt", &summary), &spans).ok()?;
        self.dump_ids.push(id.to_string());
        Some(id.to_string())
    }

    fn render_dump_summary(
        &self,
        id: &str,
        reason: &str,
        now: Duration,
        spans: &[SpanRecord],
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "blackbox dump: {id}");
        let _ = writeln!(out, "reason: {reason}");
        let _ = writeln!(out, "clock: {:.6}s", now.as_secs_f64());
        let _ = writeln!(out, "spans: {}", spans.len());
        let _ = writeln!(out);
        let _ = writeln!(out, "== trace ==");
        out.push_str(&render_span_tree(spans));
        let _ = writeln!(out);
        let _ = writeln!(out, "== counters (telemetry stream) ==");
        for (name, value) in self.fold.counters() {
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }

    /// Snapshot the folded state and the alerts as a [`HealthReport`].
    pub fn health_report(&self) -> HealthReport {
        let mut report = self.fold.health_report(self.clock.now());
        report.active_alerts = self.active_alerts();
        report.alerts = self.alerts.clone();
        report
    }

    /// All alert transitions so far, in order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Names of policies currently in breach.
    pub fn active_alerts(&self) -> Vec<String> {
        self.watches
            .iter()
            .filter(|w| w.firing)
            .map(|w| w.policy.name())
            .collect()
    }

    /// All-time latency quantile (µs) for an operation, from its sketch.
    pub fn quantile_us(&self, op: &str, q: f64) -> Option<f64> {
        self.fold.quantile_us(op, q)
    }

    /// All-time event count for an operation.
    pub fn op_count(&self, op: &str) -> u64 {
        self.fold.op_count(op)
    }

    /// Blackbox dump ids written so far, in order.
    pub fn dump_ids(&self) -> &[String] {
        &self.dump_ids
    }

    /// Telemetry batches that failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.fold.decode_errors()
    }
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("policies", &self.watches.len())
            .field("alerts", &self.alerts.len())
            .finish_non_exhaustive()
    }
}

/// Render spans as an indented causal tree (children under parents,
/// orphans — whose parents fell out of the retention window — as roots).
fn render_span_tree(spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id.0).collect();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if ids.contains(&p.0) => children.entry(p.0).or_default().push(i),
            _ => roots.push(i),
        }
    }
    // Render in start order at every level.
    let by_start = |indices: &mut Vec<usize>| {
        indices.sort_by_key(|&i| (spans[i].start, spans[i].span_id.0));
    };
    by_start(&mut roots);
    for indices in children.values_mut() {
        by_start(indices);
    }
    fn walk(
        out: &mut String,
        spans: &[SpanRecord],
        children: &BTreeMap<u64, Vec<usize>>,
        i: usize,
        depth: usize,
    ) {
        let s = &spans[i];
        let _ = write!(
            out,
            "{:indent$}{} [{}] {}us",
            "",
            s.name,
            s.system,
            s.duration().as_micros(),
            indent = depth * 2
        );
        for (k, v) in s.attrs.iter() {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        if let Some(kids) = children.get(&s.span_id.0) {
            for &k in kids {
                walk(out, spans, children, k, depth + 1);
            }
        }
    }
    let mut out = String::new();
    for &r in &roots {
        walk(&mut out, spans, &children, r, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump::TelemetryPump;
    use std::sync::Arc;
    use taureau_core::clock::VirtualClock;
    use taureau_core::trace::TelemetrySink;
    use taureau_jiffy::JiffyConfig;
    use taureau_pulsar::PulsarConfig;

    /// A full in-process telemetry pipeline on one virtual clock.
    struct Pipeline {
        clock: Arc<VirtualClock>,
        tracer: Tracer,
        sink: TelemetrySink,
        pump: TelemetryPump,
    }

    fn pipeline() -> (Pipeline, PulsarCluster) {
        let clock = Arc::new(VirtualClock::new());
        let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
        let tracer = Tracer::new(clock.clone());
        let sink = TelemetrySink::new(65_536);
        tracer.set_telemetry(sink.clone());
        let pump = TelemetryPump::new(sink.clone(), &cluster).unwrap();
        (
            Pipeline {
                clock,
                tracer,
                sink,
                pump,
            },
            cluster,
        )
    }

    fn monitor(p: &Pipeline, cluster: &PulsarCluster, cfg: MonitorConfig) -> Monitor {
        Monitor::with_config(cluster, p.clock.clone(), cfg).unwrap()
    }

    fn small_windows() -> MonitorConfig {
        MonitorConfig {
            fast_window: Duration::from_millis(100),
            slow_window: Duration::from_millis(400),
            min_samples: 3,
            ..MonitorConfig::default()
        }
    }

    fn record_invoke(p: &Pipeline, function: &str, latency: Duration, ok: bool) {
        let mut span = p.tracer.span("taureau-faas", "faas.invoke");
        span.attr("function", function);
        span.attr("outcome", if ok { "ok" } else { "error" });
        p.clock.advance(latency);
    }

    #[test]
    fn folds_spans_into_per_op_sketches_and_topk() {
        let (mut p, cluster) = pipeline();
        let mut monitor = monitor(&p, &cluster, MonitorConfig::default());
        for i in 0..100 {
            let function = if i % 10 == 0 { "rare" } else { "hot" };
            record_invoke(&p, function, Duration::from_millis(2), true);
            p.clock.advance(Duration::from_millis(1));
        }
        p.pump.pump();
        monitor.poll().unwrap();
        assert_eq!(monitor.decode_errors(), 0);
        assert_eq!(monitor.op_count("faas.invoke"), 100);
        let p50 = monitor.quantile_us("faas.invoke", 0.5).unwrap();
        assert!((p50 - 2_000.0).abs() < 100.0, "p50 {p50}");
        let top = monitor.health_report().top_functions;
        assert_eq!(top[0].0, "hot");
        assert_eq!(top[0].1, 90);
        assert!(top.iter().any(|(f, _)| f == "rare"));
    }

    #[test]
    fn latency_policy_fires_once_and_resolves_once() {
        let (mut p, cluster) = pipeline();
        let mut monitor = monitor(&p, &cluster, small_windows())
            .with_policy(SloPolicy::parse("p99 faas.invoke < 10ms").unwrap());
        // Healthy, then a fault burst, then healthy again; poll every
        // round so sustained breach still yields exactly one transition.
        for round in 0..120 {
            let latency = if (40..60).contains(&round) {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(2)
            };
            record_invoke(&p, "api", latency, true);
            p.clock.advance(Duration::from_millis(3));
            p.pump.pump();
            monitor.poll().unwrap();
        }
        assert!(monitor.active_alerts().is_empty());
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].state, AlertState::Firing);
        assert_eq!(alerts[1].state, AlertState::Resolved);
        assert!(alerts[0].at < alerts[1].at);
    }

    #[test]
    fn error_rate_policy_tracks_outcome_attrs() {
        let (mut p, cluster) = pipeline();
        let mut monitor = monitor(&p, &cluster, small_windows())
            .with_policy(SloPolicy::parse("error_rate faas.invoke < 20%").unwrap());
        for round in 0..60 {
            let ok = !(20..40).contains(&round) || round % 2 == 0;
            record_invoke(&p, "api", Duration::from_millis(1), ok);
            p.clock.advance(Duration::from_millis(4));
            p.pump.pump();
            monitor.poll().unwrap();
        }
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 2, "timeline: {alerts:?}");
        assert_eq!(alerts[0].state, AlertState::Firing);
        assert_eq!(alerts[1].state, AlertState::Resolved);
    }

    #[test]
    fn failure_dump_lands_in_blackbox_namespace() {
        let (mut p, cluster) = pipeline();
        let jiffy = Jiffy::new(JiffyConfig::default(), p.clock.clone());
        let mut monitor = monitor(&p, &cluster, MonitorConfig::default())
            .with_flight_recorder(&p.tracer)
            .with_blackbox(&jiffy);
        // A failing invocation with an inner span, recorded as one trace.
        {
            let mut span = p.tracer.span("taureau-faas", "faas.invoke");
            span.attr("function", "ingest");
            span.attr("outcome", "error");
            let mut inner = p.tracer.span("taureau-jiffy", "jiffy.kv_put");
            inner.attr("bytes", 64);
            p.clock.advance(Duration::from_millis(1));
        }
        p.pump.pump();
        let summary = monitor.poll().unwrap();
        assert_eq!(summary.dumps.len(), 1);
        let id = &summary.dumps[0];
        assert!(id.starts_with("invoke-failure-"));
        let text = jiffy
            .open_file(format!("/blackbox/{id}/summary.txt").as_str())
            .unwrap()
            .contents()
            .unwrap();
        let text = String::from_utf8(text.to_vec()).unwrap();
        assert!(text.contains("faas.invoke"), "summary: {text}");
        assert!(text.contains("jiffy.kv_put"));
        assert!(text.contains("outcome=error"));
        let json = jiffy
            .open_file(format!("/blackbox/{id}/trace.json").as_str())
            .unwrap()
            .contents()
            .unwrap();
        let json = String::from_utf8(json.to_vec()).unwrap();
        assert!(json.contains("\"name\":\"jiffy.kv_put\""));
        // Re-polling the same failure does not dump twice.
        let again = monitor.poll().unwrap();
        assert!(again.dumps.is_empty());
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let (p, cluster) = pipeline();
        let mut monitor = monitor(&p, &cluster, MonitorConfig::default());
        cluster
            .producer(TELEMETRY_TOPIC)
            .unwrap()
            .send(b"not a telemetry batch")
            .unwrap();
        monitor.poll().unwrap();
        assert!(monitor.health_report().ops.is_empty());
        assert_eq!(monitor.decode_errors(), 1);
    }

    #[test]
    fn health_report_summarises_folded_state() {
        let (mut p, cluster) = pipeline();
        let mut monitor = monitor(&p, &cluster, MonitorConfig::default());
        for _ in 0..10 {
            record_invoke(&p, "api", Duration::from_millis(2), true);
            p.sink.metric("faas.invocations_ok", 1);
            p.clock.advance(Duration::from_millis(1));
        }
        // A latency sample, not a count: the `faas.invoke` row has it.
        p.sink.metric("faas.invoke_latency_us", 2_000);
        p.pump.pump();
        monitor.poll().unwrap();
        let report = monitor.health_report();
        let text = report.render_text();
        assert!(text.contains("faas.invoke"));
        assert!(text.contains("faas.invocations_ok"));
        assert_eq!(report.counters, [("faas.invocations_ok".to_string(), 10)]);
        assert!(report.ops.iter().all(|op| op.node.is_none()));
        let prom = report.render_prometheus();
        assert!(prom.contains("taureau_monitor_op_latency_us"));
        assert!(prom.contains("taureau_monitor_alert_active"));
    }

    #[test]
    fn no_dropped_spans_warning_under_default_test_config() {
        // CI greps `cargo test -q -p taureau-monitor` output for this
        // warning: the default pipeline config must not shed telemetry.
        let (mut p, cluster) = pipeline();
        let mut monitor = monitor(&p, &cluster, MonitorConfig::default());
        for _ in 0..2_000 {
            record_invoke(&p, "api", Duration::from_micros(500), true);
            p.pump.pump();
        }
        monitor.poll().unwrap();
        let dropped = p.tracer.dropped_spans() + p.sink.dropped();
        if dropped > 0 {
            eprintln!("warning: dropped_spans = {dropped}");
        }
        assert_eq!(monitor.op_count("faas.invoke"), 2_000);
        assert_eq!(dropped, 0);
    }

    use crate::wire::BatchWriter;
    use proptest::prelude::*;
    use rand::Rng;
    use taureau_core::id::NodeId;
    use taureau_core::rng::det_rng;
    use taureau_core::trace::{HlcClock, TelemetryEvent};

    /// Everything a refused batch must leave as it was.
    fn folded_state(monitor: &Monitor) -> String {
        let r = monitor.health_report();
        let ops: Vec<_> = r.ops.iter().map(|op| format!("{op:?}")).collect();
        format!(
            "{ops:?} {:?} {:?} {}",
            r.counters, r.top_functions, r.cold_start_rate
        )
    }

    proptest! {
        /// A batch damaged in one byte on the topic, after a good one: the
        /// monitor either refuses it, counting one decode error and
        /// changing nothing else, or folds it.
        #[test]
        fn a_damaged_batch_on_the_topic_folds_whole_or_changes_nothing(
            seed in any::<u64>(),
            spans in 1usize..12,
        ) {
            let mut rng = det_rng(seed);
            let (mut p, cluster) = pipeline();
            let mut monitor = monitor(&p, &cluster, MonitorConfig::default());
            let mut record = |p: &Pipeline| {
                for _ in 0..spans {
                    let function = ["a", "b"][rng.gen_range(0..2usize)];
                    record_invoke(p, function, Duration::from_millis(1), rng.gen_bool(0.8));
                    p.sink.metric("faas.invocations_ok", 1);
                }
            };
            record(&p);
            p.pump.pump();
            monitor.poll().unwrap();
            let before = folded_state(&monitor);
            // The next batch is written by hand, damaged, and published.
            record(&p);
            let mut writer = BatchWriter::new(NodeId(u64::MAX));
            let mut hlc = HlcClock::new(u64::MAX);
            p.sink.drain_with(usize::MAX, |event| match event {
                TelemetryEvent::Span(r) => writer.push_span(hlc.tick(0), r),
                &TelemetryEvent::Metric { name, delta } => writer.push_metric(hlc.tick(0), name, delta),
            });
            let mut raw = writer.take(writer.pending()).to_vec();
            let at = rng.gen_range(0..raw.len());
            raw[at] = raw[at].wrapping_add(rng.gen_range(1..=255u8));
            cluster.producer(TELEMETRY_TOPIC).unwrap().send(&raw).unwrap();
            monitor.poll().unwrap();
            if monitor.decode_errors() == 1 {
                prop_assert_eq!(folded_state(&monitor), before);
            } else {
                prop_assert_eq!(monitor.decode_errors(), 0);
            }
        }
    }
}
