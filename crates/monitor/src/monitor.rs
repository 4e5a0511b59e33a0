//! The streaming monitor: consumes the telemetry topics and folds events
//! into sketches, windows and alerts.
//!
//! This is the paper's Fig. 3 pattern pointed at the stack itself: the
//! monitor is just another sketch-maintaining stream consumer, built from
//! `taureau-sketches` primitives (KLL quantiles, space-saving top-K) over
//! a Pulsar subscription. Folded state is bounded: per-operation sketches
//! are O(k log n), rate windows are O(slices), top-K is O(k), and
//! flight-recorder dumps are deduplicated and capped.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::time::Duration;

use taureau_core::clock::SharedClock;
use taureau_core::metrics::MetricsRegistry;
use taureau_core::trace::{suppress_telemetry, Tracer};
use taureau_jiffy::{Jiffy, JiffyError};
use taureau_pulsar::{Consumer, EntryView, PulsarCluster, PulsarError, SubscriptionMode};
use taureau_sketches::{KllSketch, SpaceSaving};

use crate::pump::{METRICS_TOPIC, SPANS_TOPIC};
use crate::report::{HealthReport, OpHealth};
use crate::slo::{AlertEvent, AlertState, SloPolicy};
use crate::window::{RateWindow, RollingQuantile};
use crate::wire;

/// Tuning for a [`Monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// KLL accuracy parameter for latency sketches (rank error ~O(1/k)).
    pub quantile_k: usize,
    /// How many hot functions space-saving tracks.
    pub top_k: usize,
    /// Fast window for latency quantiles, error rates and burn rates.
    pub fast_window: Duration,
    /// Slices per window (more slices = smoother eviction).
    pub window_slices: usize,
    /// Slow window for burn-rate policies.
    pub slow_window: Duration,
    /// Minimum events in a window before a policy can fire (hysteresis
    /// against alerting on the first slow request of a quiet stream).
    pub min_samples: u64,
    /// Maximum flight-recorder dumps kept in the blackbox namespace.
    pub max_dumps: usize,
    /// Maximum spans included in one dump when no specific trace is
    /// implicated (alert-firing dumps take the most recent history).
    pub max_dump_spans: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            quantile_k: 200,
            top_k: 8,
            fast_window: Duration::from_secs(10),
            window_slices: 10,
            slow_window: Duration::from_secs(60),
            min_samples: 20,
            max_dumps: 32,
            max_dump_spans: 512,
        }
    }
}

/// Per-operation folded statistics.
struct OpStats {
    /// All-time latency sketch (for end-of-run quantile tables).
    cumulative: KllSketch,
    /// Windowed latency sketch (for SLO evaluation — recovers when the
    /// bad interval ages out).
    rolling: RollingQuantile,
    total_fast: RateWindow,
    errors_fast: RateWindow,
    total_slow: RateWindow,
    errors_slow: RateWindow,
}

impl OpStats {
    fn new(cfg: &MonitorConfig) -> Self {
        Self {
            cumulative: KllSketch::new(cfg.quantile_k),
            rolling: RollingQuantile::new(cfg.fast_window, cfg.window_slices, cfg.quantile_k),
            total_fast: RateWindow::new(cfg.fast_window, cfg.window_slices),
            errors_fast: RateWindow::new(cfg.fast_window, cfg.window_slices),
            total_slow: RateWindow::new(cfg.slow_window, cfg.window_slices),
            errors_slow: RateWindow::new(cfg.slow_window, cfg.window_slices),
        }
    }
}

struct PolicyRuntime {
    policy: SloPolicy,
    firing: bool,
}

/// What one [`Monitor::poll`] round did.
#[derive(Debug, Clone, Default)]
pub struct PollSummary {
    /// Span events consumed this round.
    pub spans: usize,
    /// Metric events consumed this round.
    pub metrics: usize,
    /// Frames that failed to decode this round.
    pub decode_errors: usize,
    /// Policies that transitioned to firing this round.
    pub fired: usize,
    /// Policies that transitioned to resolved this round.
    pub resolved: usize,
    /// Blackbox dump ids written this round.
    pub dumps: Vec<String>,
}

/// Errors from monitor construction or polling.
#[derive(Debug)]
pub enum MonitorError {
    /// The telemetry transport failed.
    Pulsar(PulsarError),
    /// The blackbox store failed.
    Jiffy(JiffyError),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pulsar(e) => write!(f, "telemetry transport: {e}"),
            Self::Jiffy(e) => write!(f, "blackbox store: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<PulsarError> for MonitorError {
    fn from(e: PulsarError) -> Self {
        Self::Pulsar(e)
    }
}

impl From<JiffyError> for MonitorError {
    fn from(e: JiffyError) -> Self {
        Self::Jiffy(e)
    }
}

/// Streaming consumer of the telemetry topics. See the crate docs for
/// where it sits in the pipeline.
pub struct Monitor {
    cfg: MonitorConfig,
    clock: SharedClock,
    span_consumer: Consumer,
    metric_consumer: Consumer,
    /// Reused entry-view buffer for [`Monitor::poll`] so the steady-state
    /// drain loop allocates nothing per round.
    scratch: Vec<EntryView>,
    ops: BTreeMap<String, OpStats>,
    /// Cluster-collected operations keyed by `(origin node, op)` — kept
    /// apart from `ops` so the in-process `&str` lookup fast path stays
    /// allocation-free and local/remote measurements never mix.
    remote_ops: BTreeMap<(u64, String), OpStats>,
    remote_events: u64,
    hot_functions: SpaceSaving,
    counters: BTreeMap<String, u64>,
    metric_sketches: BTreeMap<String, KllSketch>,
    startups_fast: RateWindow,
    cold_fast: RateWindow,
    policies: Vec<PolicyRuntime>,
    alerts: Vec<AlertEvent>,
    alert_seq: u64,
    flight_recorder: Option<Tracer>,
    blackbox: Option<Jiffy>,
    registries: Vec<(String, MetricsRegistry)>,
    dump_ids: Vec<String>,
    dumped: HashSet<String>,
    pending_failure_dumps: Vec<u64>,
    decode_errors: u64,
    dump_errors: u64,
}

impl Monitor {
    /// Subscribe to the telemetry topics of `cluster` (creating them if
    /// no pump has yet), evaluating policies against `clock`.
    pub fn new(cluster: &PulsarCluster, clock: SharedClock) -> Result<Self, MonitorError> {
        Self::with_config(cluster, clock, MonitorConfig::default())
    }

    /// [`Monitor::new`] with explicit tuning.
    pub fn with_config(
        cluster: &PulsarCluster,
        clock: SharedClock,
        cfg: MonitorConfig,
    ) -> Result<Self, MonitorError> {
        for topic in [SPANS_TOPIC, METRICS_TOPIC] {
            if cluster.partitions(topic).is_err() {
                cluster.create_topic(topic, 1)?;
            }
        }
        let span_consumer =
            cluster.subscribe(SPANS_TOPIC, "_monitor", SubscriptionMode::Exclusive)?;
        let metric_consumer =
            cluster.subscribe(METRICS_TOPIC, "_monitor", SubscriptionMode::Exclusive)?;
        Ok(Self {
            hot_functions: SpaceSaving::new(cfg.top_k),
            startups_fast: RateWindow::new(cfg.fast_window, cfg.window_slices),
            cold_fast: RateWindow::new(cfg.fast_window, cfg.window_slices),
            cfg,
            clock,
            span_consumer,
            metric_consumer,
            scratch: Vec::new(),
            ops: BTreeMap::new(),
            remote_ops: BTreeMap::new(),
            remote_events: 0,
            counters: BTreeMap::new(),
            metric_sketches: BTreeMap::new(),
            policies: Vec::new(),
            alerts: Vec::new(),
            alert_seq: 0,
            flight_recorder: None,
            blackbox: None,
            registries: Vec::new(),
            dump_ids: Vec::new(),
            dumped: HashSet::new(),
            pending_failure_dumps: Vec::new(),
            decode_errors: 0,
            dump_errors: 0,
        })
    }

    /// Add a policy to evaluate on every poll.
    pub fn with_policy(mut self, policy: SloPolicy) -> Self {
        self.policies.push(PolicyRuntime {
            policy,
            firing: false,
        });
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

    /// Attach a subsystem metrics registry; its snapshot (including
    /// histogram summaries) is embedded in dumps and health reports under
    /// `prefix`.
    pub fn with_registry(mut self, prefix: &str, registry: &MetricsRegistry) -> Self {
        self.registries.push((prefix.to_string(), registry.clone()));
        self
    }

    /// Drain both telemetry topics, fold the events, evaluate policies,
    /// and write any triggered blackbox dumps.
    pub fn poll(&mut self) -> Result<PollSummary, MonitorError> {
        let mut summary = PollSummary::default();
        // Consuming over an instrumented cluster must not emit telemetry
        // about the consumption (the same feedback loop the pump guards
        // against on the publish side). Both topics drain as whole-entry
        // views: the publisher batches aggressively, so one view usually
        // carries many telemetry events parsed from one framing pass, and
        // the ack is one entry-granular cursor fold instead of one ack
        // per event.
        let mut views = std::mem::take(&mut self.scratch);
        loop {
            let n = suppress_telemetry(|| self.span_consumer.receive_entries_into(64, &mut views))?;
            if n == 0 {
                break;
            }
            for view in &views {
                for mv in view.messages() {
                    match wire::decode_span(&mv.payload()) {
                        Some(ev) => {
                            self.fold_span(&ev);
                            summary.spans += 1;
                        }
                        None => {
                            self.decode_errors += 1;
                            summary.decode_errors += 1;
                        }
                    }
                }
            }
            suppress_telemetry(|| self.span_consumer.ack_entries(&views))?;
        }
        loop {
            let n =
                suppress_telemetry(|| self.metric_consumer.receive_entries_into(64, &mut views))?;
            if n == 0 {
                break;
            }
            for view in &views {
                for mv in view.messages() {
                    match wire::decode_metric(&mv.payload()) {
                        Some((name, delta)) => {
                            self.fold_metric(&name, delta);
                            summary.metrics += 1;
                        }
                        None => {
                            self.decode_errors += 1;
                            summary.decode_errors += 1;
                        }
                    }
                }
            }
            suppress_telemetry(|| self.metric_consumer.ack_entries(&views))?;
        }
        views.clear();
        self.scratch = views;

        let now = self.clock.now();
        // Invocation failures dump the implicated trace.
        for trace_id in std::mem::take(&mut self.pending_failure_dumps) {
            let id = format!("invoke-failure-{trace_id:016x}");
            if let Some(id) = self.dump(&id, Some(trace_id), "invocation failure", now) {
                summary.dumps.push(id);
            }
        }
        // Policy transitions; firing alerts dump recent history.
        let transitions = self.evaluate(now);
        for event in transitions {
            match event.state {
                AlertState::Firing => {
                    summary.fired += 1;
                    self.alert_seq += 1;
                    let id = format!("alert-{}-{}", self.alert_seq, event.policy);
                    let reason = format!("alert firing: {event}");
                    if let Some(id) = self.dump(&id, None, &reason, now) {
                        summary.dumps.push(id);
                    }
                }
                AlertState::Resolved => summary.resolved += 1,
            }
            self.alerts.push(event);
        }
        Ok(summary)
    }

    fn fold_span(&mut self, ev: &wire::SpanEvent) {
        let at = Duration::from_micros(ev.end_us);
        // Same `&str`-first lookup as `fold_metric`: avoid cloning the op
        // name on the per-span hot path once the op has been seen.
        if !self.ops.contains_key(&ev.name) {
            self.ops.insert(ev.name.clone(), OpStats::new(&self.cfg));
        }
        let stats = self.ops.get_mut(&ev.name).expect("just inserted");
        let latency_us = ev.duration_us() as f64;
        stats.cumulative.update(latency_us);
        stats.rolling.record(at, latency_us);
        stats.total_fast.record(at, 1);
        stats.total_slow.record(at, 1);
        let errored = ev.attr("outcome") == Some("error");
        if errored {
            stats.errors_fast.record(at, 1);
            stats.errors_slow.record(at, 1);
        }
        if ev.name == "faas.invoke" {
            if let Some(function) = ev.attr("function") {
                self.hot_functions.add(function.as_bytes(), 1);
            }
            if errored {
                self.pending_failure_dumps.push(ev.trace_id);
            }
        }
        if ev.name == "faas.startup" {
            self.startups_fast.record(at, 1);
            if ev.attr("kind") == Some("cold") {
                self.cold_fast.record(at, 1);
            }
        }
    }

    fn fold_metric(&mut self, name: &str, delta: u64) {
        // `*_us` metrics are latency samples, everything else a counter.
        // Look up by `&str` before falling back to insertion: the entry API
        // would allocate an owned key on every event, and after warm-up
        // every event hits an existing key.
        if name.ends_with("_us") {
            if let Some(sketch) = self.metric_sketches.get_mut(name) {
                sketch.update(delta as f64);
            } else {
                let mut sketch = KllSketch::new(self.cfg.quantile_k);
                sketch.update(delta as f64);
                self.metric_sketches.insert(name.to_string(), sketch);
            }
        } else if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Fold a span event relayed from another node by the cluster
    /// observability plane. Keyed by `(node, op)` so the health report
    /// can show per-node latency side by side — the whole point of
    /// grey-failure hunting.
    pub fn ingest_remote_span(&mut self, node: u64, ev: &wire::SpanEvent) {
        self.remote_events += 1;
        let key = (node, ev.name.clone());
        if !self.remote_ops.contains_key(&key) {
            self.remote_ops.insert(key.clone(), OpStats::new(&self.cfg));
        }
        let stats = self.remote_ops.get_mut(&key).expect("just inserted");
        let at = Duration::from_micros(ev.end_us);
        let latency_us = ev.duration_us() as f64;
        stats.cumulative.update(latency_us);
        stats.rolling.record(at, latency_us);
        stats.total_fast.record(at, 1);
        stats.total_slow.record(at, 1);
        if ev.attr("outcome") == Some("error") {
            stats.errors_fast.record(at, 1);
            stats.errors_slow.record(at, 1);
        }
    }

    /// Fold a counter metric relayed from another node, namespaced
    /// `node<N>.` so per-node counters never collide with local ones.
    pub fn ingest_remote_metric(&mut self, node: u64, name: &str, delta: u64) {
        self.remote_events += 1;
        self.fold_metric(&format!("node{node}.{name}"), delta);
    }

    /// Remote (cluster-collected) events folded so far.
    pub fn remote_events(&self) -> u64 {
        self.remote_events
    }

    /// Evaluate every policy at `now`, returning only *transitions*.
    fn evaluate(&mut self, now: Duration) -> Vec<AlertEvent> {
        let min_samples = self.cfg.min_samples;
        let mut transitions = Vec::new();
        for i in 0..self.policies.len() {
            let policy = self.policies[i].policy.clone();
            let was_firing = self.policies[i].firing;
            let op = policy.op().to_string();
            let Some(stats) = self.ops.get_mut(&op) else {
                continue;
            };
            let (breaching, value, threshold) = match &policy {
                SloPolicy::LatencyQuantile { q, max, .. } => {
                    let threshold = max.as_micros() as f64;
                    if stats.rolling.count(now) < min_samples {
                        (false, 0.0, threshold)
                    } else {
                        let value = stats.rolling.quantile(now, *q).unwrap_or(0.0);
                        (value > threshold, value, threshold)
                    }
                }
                SloPolicy::ErrorRate { max_ratio, .. } => {
                    let total = stats.total_fast.count(now);
                    if total < min_samples {
                        (false, 0.0, *max_ratio)
                    } else {
                        let ratio = stats.errors_fast.count(now) as f64 / total as f64;
                        (ratio > *max_ratio, ratio, *max_ratio)
                    }
                }
                SloPolicy::BurnRate { budget, factor, .. } => {
                    let fast_total = stats.total_fast.count(now);
                    let slow_total = stats.total_slow.count(now);
                    if fast_total < min_samples || slow_total < min_samples {
                        (false, 0.0, *factor)
                    } else {
                        let fast_burn =
                            stats.errors_fast.count(now) as f64 / fast_total as f64 / budget;
                        let slow_burn =
                            stats.errors_slow.count(now) as f64 / slow_total as f64 / budget;
                        // Fire only when both windows burn hot (slow
                        // suppresses blips); resolve once the fast window
                        // recovers (it ages out first).
                        let breaching = if was_firing {
                            fast_burn > *factor
                        } else {
                            fast_burn > *factor && slow_burn > *factor
                        };
                        (breaching, fast_burn, *factor)
                    }
                }
            };
            if breaching != was_firing {
                self.policies[i].firing = breaching;
                transitions.push(AlertEvent {
                    at: now,
                    policy: policy.name(),
                    state: if breaching {
                        AlertState::Firing
                    } else {
                        AlertState::Resolved
                    },
                    value,
                    threshold,
                });
            }
        }
        transitions
    }

    /// Write one blackbox dump. Returns the dump id, or `None` when the
    /// dump was deduplicated, capped, impossible (no blackbox store) or
    /// failed (counted in `dump_errors`).
    fn dump(
        &mut self,
        id: &str,
        focus_trace: Option<u64>,
        reason: &str,
        now: Duration,
    ) -> Option<String> {
        let jiffy = self.blackbox.clone()?;
        if self.dumped.contains(id) || self.dumped.len() >= self.cfg.max_dumps {
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
                        let skip = all.len().saturating_sub(self.cfg.max_dump_spans);
                        all.into_iter().skip(skip).collect()
                    }
                }
            }
            None => Vec::new(),
        };
        let summary = self.render_dump_summary(id, reason, now, &spans);
        let trace_json = render_trace_json(&spans);
        // Blackbox writes over an instrumented Jiffy must not emit
        // telemetry about themselves.
        let result = suppress_telemetry(|| -> Result<(), JiffyError> {
            let base = format!("/blackbox/{id}");
            jiffy
                .create_file(format!("{base}/summary.txt").as_str())?
                .append(summary.as_bytes())?;
            jiffy
                .create_file(format!("{base}/trace.json").as_str())?
                .append(trace_json.as_bytes())?;
            Ok(())
        });
        match result {
            Ok(()) => {
                self.dumped.insert(id.to_string());
                self.dump_ids.push(id.to_string());
                Some(id.to_string())
            }
            Err(_) => {
                self.dump_errors += 1;
                None
            }
        }
    }

    fn render_dump_summary(
        &self,
        id: &str,
        reason: &str,
        now: Duration,
        spans: &[taureau_core::trace::SpanRecord],
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
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} {value}");
        }
        for (prefix, registry) in &self.registries {
            let _ = writeln!(out);
            let _ = writeln!(out, "== metrics: {prefix} ==");
            out.push_str(&registry.render_prometheus_prefixed(prefix));
        }
        out
    }

    /// Snapshot the folded state as a [`HealthReport`].
    pub fn health_report(&mut self) -> HealthReport {
        let now = self.clock.now();
        fn op_health(
            op: String,
            node: Option<u64>,
            stats: &mut OpStats,
            now: Duration,
        ) -> OpHealth {
            let total = stats.total_fast.count(now);
            let errors = stats.errors_fast.count(now);
            OpHealth {
                op,
                node,
                count: stats.cumulative.total(),
                p50_us: stats.cumulative.quantile(0.50).unwrap_or(0.0),
                p90_us: stats.cumulative.quantile(0.90).unwrap_or(0.0),
                p99_us: stats.cumulative.quantile(0.99).unwrap_or(0.0),
                max_us: stats.cumulative.quantile(1.0).unwrap_or(0.0),
                error_rate: if total == 0 {
                    0.0
                } else {
                    errors as f64 / total as f64
                },
            }
        }
        let mut ops = Vec::new();
        for (name, stats) in self.ops.iter_mut() {
            ops.push(op_health(name.clone(), None, stats, now));
        }
        for ((node, name), stats) in self.remote_ops.iter_mut() {
            ops.push(op_health(name.clone(), Some(*node), stats, now));
        }
        ops.sort_by(|a, b| (&a.op, a.node).cmp(&(&b.op, b.node)));
        let mut histogram_summaries = Vec::new();
        for (prefix, registry) in &self.registries {
            for (name, summary) in registry.histogram_summaries() {
                histogram_summaries.push((format!("{prefix}{name}"), summary));
            }
        }
        HealthReport {
            at: now,
            ops,
            top_functions: self.top_functions(),
            counters: self.counters.clone().into_iter().collect(),
            active_alerts: self.active_alerts(),
            alerts: self.alerts.clone(),
            histogram_summaries,
            cold_start_rate: self.cold_start_rate(),
            decode_errors: self.decode_errors,
        }
    }

    /// All alert transitions so far, in order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Names of policies currently in breach.
    pub fn active_alerts(&self) -> Vec<String> {
        self.policies
            .iter()
            .filter(|p| p.firing)
            .map(|p| p.policy.name())
            .collect()
    }

    /// All-time latency quantile (µs) for an operation, from its sketch.
    pub fn quantile_us(&self, op: &str, q: f64) -> Option<f64> {
        self.ops.get(op)?.cumulative.quantile(q)
    }

    /// All-time event count for an operation.
    pub fn op_count(&self, op: &str) -> u64 {
        self.ops.get(op).map_or(0, |s| s.cumulative.total())
    }

    /// Error rate of `op` over the fast window ending now.
    pub fn error_rate(&mut self, op: &str) -> f64 {
        let now = self.clock.now();
        match self.ops.get_mut(op) {
            Some(stats) => {
                let total = stats.total_fast.count(now);
                if total == 0 {
                    0.0
                } else {
                    stats.errors_fast.count(now) as f64 / total as f64
                }
            }
            None => 0.0,
        }
    }

    /// Fraction of container starts that were cold over the fast window.
    pub fn cold_start_rate(&mut self) -> f64 {
        let now = self.clock.now();
        let starts = self.startups_fast.count(now);
        if starts == 0 {
            0.0
        } else {
            self.cold_fast.count(now) as f64 / starts as f64
        }
    }

    /// Hot functions by estimated invocation count, heaviest first.
    pub fn top_functions(&self) -> Vec<(String, u64)> {
        let mut hitters: Vec<(String, u64)> = self
            .hot_functions
            .heavy_hitters()
            .into_iter()
            .map(|h| (String::from_utf8_lossy(&h.item).into_owned(), h.count))
            .collect();
        hitters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hitters
    }

    /// Folded value of a counter metric from the telemetry stream.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Quantile (µs) of a `*_us` metric sample stream, if seen.
    pub fn metric_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.metric_sketches.get(name)?.quantile(q)
    }

    /// Blackbox dump ids written so far, in order.
    pub fn dump_ids(&self) -> &[String] {
        &self.dump_ids
    }

    /// Telemetry frames that failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Dumps that failed to write.
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors
    }
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("ops", &self.ops.len())
            .field("policies", &self.policies.len())
            .field("alerts", &self.alerts.len())
            .finish_non_exhaustive()
    }
}

/// Render spans as an indented causal tree (children under parents,
/// orphans — whose parents fell out of the retention window — as roots).
fn render_span_tree(spans: &[taureau_core::trace::SpanRecord]) -> String {
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
        spans: &[taureau_core::trace::SpanRecord],
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
        for (k, v) in &s.attrs {
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

/// Minimal JSON array of span objects (hand-rolled: the serde shim's
/// derives are inert). Public so the cluster observability plane can
/// write collector-side captures in the same blackbox format.
pub fn render_trace_json(spans: &[taureau_core::trace::SpanRecord]) -> String {
    use std::fmt::Write as _;
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
            json_string(&s.name),
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
                let _ = write!(out, "{}:{}", json_string(k), json_string(v));
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
                out.push_str(&format!("\\u{:04x}", c as u32));
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
        let mut monitor = Monitor::new(&cluster, p.clock.clone()).unwrap();
        for i in 0..100 {
            let function = if i % 10 == 0 { "rare" } else { "hot" };
            record_invoke(&p, function, Duration::from_millis(2), true);
            p.clock.advance(Duration::from_millis(1));
        }
        p.pump.pump();
        let summary = monitor.poll().unwrap();
        assert_eq!(summary.spans, 100);
        assert_eq!(summary.decode_errors, 0);
        assert_eq!(monitor.op_count("faas.invoke"), 100);
        let p50 = monitor.quantile_us("faas.invoke", 0.5).unwrap();
        assert!((p50 - 2_000.0).abs() < 100.0, "p50 {p50}");
        let top = monitor.top_functions();
        assert_eq!(top[0].0, "hot");
        assert_eq!(top[0].1, 90);
        assert!(top.iter().any(|(f, _)| f == "rare"));
    }

    #[test]
    fn latency_policy_fires_once_and_resolves_once() {
        let (mut p, cluster) = pipeline();
        let mut monitor = Monitor::with_config(&cluster, p.clock.clone(), small_windows())
            .unwrap()
            .with_policy(SloPolicy::parse("p99 faas.invoke < 10ms").unwrap());
        // Healthy, then a fault burst, then healthy again; poll every
        // round so sustained breach still yields exactly one transition.
        let mut timeline = Vec::new();
        for round in 0..120 {
            let latency = if (40..60).contains(&round) {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(2)
            };
            record_invoke(&p, "api", latency, true);
            p.clock.advance(Duration::from_millis(3));
            p.pump.pump();
            let s = monitor.poll().unwrap();
            timeline.push((s.fired, s.resolved));
        }
        let fired: usize = timeline.iter().map(|t| t.0).sum();
        let resolved: usize = timeline.iter().map(|t| t.1).sum();
        assert_eq!(fired, 1, "alert must fire exactly once");
        assert_eq!(resolved, 1, "alert must resolve exactly once");
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
        let mut monitor = Monitor::with_config(&cluster, p.clock.clone(), small_windows())
            .unwrap()
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
        let mut monitor = Monitor::new(&cluster, p.clock.clone())
            .unwrap()
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
        let mut monitor = Monitor::new(&cluster, p.clock.clone()).unwrap();
        cluster
            .producer(SPANS_TOPIC)
            .unwrap()
            .send(b"not a telemetry frame")
            .unwrap();
        let summary = monitor.poll().unwrap();
        assert_eq!(summary.spans, 0);
        assert_eq!(summary.decode_errors, 1);
        assert_eq!(monitor.decode_errors(), 1);
    }

    #[test]
    fn health_report_summarises_folded_state() {
        let (mut p, cluster) = pipeline();
        let registry = MetricsRegistry::new();
        registry.histogram("exec_duration_us").record(1_500);
        let mut monitor = Monitor::new(&cluster, p.clock.clone())
            .unwrap()
            .with_registry("faas_", &registry);
        for _ in 0..10 {
            record_invoke(&p, "api", Duration::from_millis(2), true);
            p.sink.metric("faas.invocations_ok", 1);
            p.clock.advance(Duration::from_millis(1));
        }
        p.sink.metric("faas.invoke_latency_us", 2_000);
        p.pump.pump();
        monitor.poll().unwrap();
        let report = monitor.health_report();
        let text = report.render_text();
        assert!(text.contains("faas.invoke"));
        assert!(text.contains("faas.invocations_ok"));
        assert!(text.contains("count=1"), "histogram summary: {text}");
        let prom = report.render_prometheus();
        assert!(prom.contains("taureau_monitor_op_latency_us"));
        assert!(prom.contains("taureau_monitor_alert_active"));
        assert_eq!(monitor.counter("faas.invocations_ok"), 10);
        assert_eq!(
            monitor.metric_quantile("faas.invoke_latency_us", 0.5),
            Some(2_000.0)
        );
    }

    #[test]
    fn remote_spans_fold_per_node_and_render_node_labels() {
        let (p, cluster) = pipeline();
        let mut monitor = Monitor::new(&cluster, p.clock.clone()).unwrap();
        // The same op from two nodes, with very different latency: the
        // report must keep them apart.
        for (node, duration_us, n) in [(1u64, 800u64, 5), (2, 9_000, 5)] {
            for i in 0..n {
                let ev = wire::SpanEvent {
                    trace_id: 10 * node + i,
                    span_id: 100 * node + i,
                    parent: None,
                    name: "cluster.publish".to_string(),
                    system: "taureau-cluster".to_string(),
                    start_us: 1_000,
                    end_us: 1_000 + duration_us,
                    attrs: vec![("outcome".to_string(), "ok".to_string())],
                };
                monitor.ingest_remote_span(node, &ev);
            }
        }
        monitor.ingest_remote_metric(2, "pulsar.publishes", 7);
        assert_eq!(monitor.remote_events(), 11);
        assert_eq!(monitor.counter("node2.pulsar.publishes"), 7);
        let report = monitor.health_report();
        let per_node: Vec<_> = report
            .ops
            .iter()
            .filter(|o| o.op == "cluster.publish")
            .collect();
        assert_eq!(per_node.len(), 2);
        assert_eq!(per_node[0].node, Some(1));
        assert_eq!(per_node[1].node, Some(2));
        assert!(per_node[0].p50_us < per_node[1].p50_us);
        let prom = report.render_prometheus();
        assert!(prom.contains("op=\"cluster.publish\",node=\"1\""));
        assert!(prom.contains("op=\"cluster.publish\",node=\"2\""));
    }

    #[test]
    fn no_dropped_spans_warning_under_default_test_config() {
        // CI greps `cargo test -q -p taureau-monitor` output for this
        // warning: the default pipeline config must not shed telemetry.
        let (mut p, cluster) = pipeline();
        let mut monitor = Monitor::new(&cluster, p.clock.clone()).unwrap();
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
}
