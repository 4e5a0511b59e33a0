//! Renderers for the fold's state.
//!
//! [`HealthReport`] is a plain-data snapshot (built by
//! [`TelemetryFold::health_report`](crate::TelemetryFold::health_report)
//! alone) with two renderings: a human-readable text block for terminals
//! and dumps, and Prometheus text exposition format for scrape endpoints.

use std::time::Duration;

use taureau_core::metrics::escape_label_value;

use crate::slo::{AlertEvent, AlertState};

/// Folded health of one traced operation.
#[derive(Debug, Clone)]
pub struct OpHealth {
    /// Operation (span name), e.g. `faas.invoke`.
    pub op: String,
    /// Originating node for remote (cluster-collected) operations; `None`
    /// for in-process measurements. Rendered as a `node` Prometheus label
    /// and an `@nN` suffix in text output.
    pub node: Option<u64>,
    /// All-time event count.
    pub count: u64,
    /// All-time p50 latency, microseconds.
    pub p50_us: f64,
    /// All-time p90 latency, microseconds.
    pub p90_us: f64,
    /// All-time p99 latency, microseconds.
    pub p99_us: f64,
    /// All-time maximum latency, microseconds.
    pub max_us: f64,
    /// All-time error fraction.
    pub error_rate: f64,
}

/// Point-in-time snapshot of everything a telemetry fold knows.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Clock time of the snapshot.
    pub at: Duration,
    /// Per-operation health, sorted by operation name.
    pub ops: Vec<OpHealth>,
    /// Hot functions by estimated invocation count, heaviest first.
    pub top_functions: Vec<(String, u64)>,
    /// Folded counter metrics from the telemetry stream.
    pub counters: Vec<(String, u64)>,
    /// Policies currently in breach.
    pub active_alerts: Vec<String>,
    /// Full alert transition history.
    pub alerts: Vec<AlertEvent>,
    /// All-time fraction of container starts that were cold.
    pub cold_start_rate: f64,
    /// Telemetry batches that failed to decode, all-time.
    pub decode_errors: u64,
}

impl HealthReport {
    /// Render as a human-readable text block.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "health @ {:.3}s", self.at.as_secs_f64());
        let _ = writeln!(
            out,
            "status: {}",
            if self.active_alerts.is_empty() {
                "HEALTHY".to_string()
            } else {
                format!("{} ALERT(S) FIRING", self.active_alerts.len())
            }
        );
        for name in &self.active_alerts {
            let _ = writeln!(out, "  firing: {name}");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "operation", "count", "p50(us)", "p90(us)", "p99(us)", "max(us)", "err%"
        );
        for op in &self.ops {
            let name = match op.node {
                Some(node) => format!("{}@n{node}", op.op),
                None => op.op.clone(),
            };
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>6.2}%",
                name,
                op.count,
                op.p50_us,
                op.p90_us,
                op.p99_us,
                op.max_us,
                op.error_rate * 100.0
            );
        }
        if !self.top_functions.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "hot functions:");
            for (function, count) in &self.top_functions {
                let _ = writeln!(out, "  {function:<20} ~{count} invocations");
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "cold start rate: {:.1}%", self.cold_start_rate * 100.0);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "telemetry counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<28} {value}");
            }
        }
        if !self.alerts.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "alert timeline:");
            for alert in &self.alerts {
                let _ = writeln!(out, "  {alert}");
            }
        }
        if self.decode_errors > 0 {
            let _ = writeln!(out, "decode errors: {}", self.decode_errors);
        }
        out
    }

    /// Render in Prometheus text exposition format, all metric names
    /// prefixed `taureau_monitor_`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        // `op="..."` or `op="...",node="N"` — op escaped, node numeric.
        let op_labels = |op: &OpHealth| {
            let name = escape_label_value(&op.op);
            match op.node {
                Some(node) => format!("op=\"{name}\",node=\"{node}\""),
                None => format!("op=\"{name}\""),
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE taureau_monitor_op_latency_us summary");
        for op in &self.ops {
            let labels = op_labels(op);
            for (q, v) in [(0.5, op.p50_us), (0.9, op.p90_us), (0.99, op.p99_us)] {
                let _ = writeln!(
                    out,
                    "taureau_monitor_op_latency_us{{{labels},quantile=\"{q}\"}} {v:.0}",
                );
            }
            let _ = writeln!(
                out,
                "taureau_monitor_op_latency_us_count{{{labels}}} {}",
                op.count
            );
        }
        let _ = writeln!(out, "# TYPE taureau_monitor_op_error_rate gauge");
        for op in &self.ops {
            let _ = writeln!(
                out,
                "taureau_monitor_op_error_rate{{{}}} {:.6}",
                op_labels(op),
                op.error_rate
            );
        }
        let _ = writeln!(out, "# TYPE taureau_monitor_alert_active gauge");
        for name in &self.active_alerts {
            let _ = writeln!(
                out,
                "taureau_monitor_alert_active{{policy=\"{}\"}} 1",
                escape_label_value(name)
            );
        }
        let _ = writeln!(
            out,
            "# TYPE taureau_monitor_alert_transitions_total counter"
        );
        let fired = self
            .alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let _ = writeln!(
            out,
            "taureau_monitor_alert_transitions_total{{state=\"firing\"}} {fired}"
        );
        let _ = writeln!(
            out,
            "taureau_monitor_alert_transitions_total{{state=\"resolved\"}} {}",
            self.alerts.len() - fired
        );
        let _ = writeln!(out, "# TYPE taureau_monitor_hot_function gauge");
        for (function, count) in &self.top_functions {
            let _ = writeln!(
                out,
                "taureau_monitor_hot_function{{function=\"{}\"}} {count}",
                escape_label_value(function)
            );
        }
        let _ = writeln!(out, "# TYPE taureau_monitor_cold_start_rate gauge");
        let _ = writeln!(
            out,
            "taureau_monitor_cold_start_rate {:.6}",
            self.cold_start_rate
        );
        let _ = writeln!(out, "# TYPE taureau_monitor_telemetry_counter gauge");
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "taureau_monitor_telemetry_counter{{name=\"{}\"}} {value}",
                escape_label_value(name)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> HealthReport {
        HealthReport {
            at: Duration::from_secs(12),
            ops: vec![
                OpHealth {
                    op: "faas.invoke".to_string(),
                    node: None,
                    count: 1000,
                    p50_us: 2_100.0,
                    p90_us: 4_000.0,
                    p99_us: 9_500.0,
                    max_us: 52_000.0,
                    error_rate: 0.015,
                },
                OpHealth {
                    op: "cluster.publish".to_string(),
                    node: Some(3),
                    count: 120,
                    p50_us: 900.0,
                    p90_us: 1_800.0,
                    p99_us: 6_200.0,
                    max_us: 9_000.0,
                    error_rate: 0.0,
                },
            ],
            top_functions: vec![("thumbnail".to_string(), 640)],
            counters: vec![("faas.invocations_ok".to_string(), 985)],
            active_alerts: vec!["p99-faas.invoke-lt-60000us".to_string()],
            alerts: vec![AlertEvent {
                at: Duration::from_secs(8),
                policy: "p99-faas.invoke-lt-60000us".to_string(),
                state: AlertState::Firing,
                value: 150_000.0,
                threshold: 60_000.0,
            }],
            cold_start_rate: 0.05,
            decode_errors: 0,
        }
    }

    #[test]
    fn text_rendering_covers_all_sections() {
        let text = sample_report().render_text();
        assert!(text.contains("1 ALERT(S) FIRING"));
        assert!(text.contains("faas.invoke"));
        assert!(text.contains("cluster.publish@n3"));
        assert!(text.contains("thumbnail"));
        assert!(text.contains("faas.invocations_ok"));
        assert!(text.contains("alert timeline:"));
        assert!(text.contains("FIRING"));
        assert!(text.contains("cold start rate"));
    }

    #[test]
    fn healthy_report_says_so() {
        let mut report = sample_report();
        report.active_alerts.clear();
        assert!(report.render_text().contains("status: HEALTHY"));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let prom = sample_report().render_prometheus();
        assert!(prom
            .contains("taureau_monitor_op_latency_us{op=\"faas.invoke\",quantile=\"0.99\"} 9500"));
        assert!(prom.contains("taureau_monitor_op_latency_us_count{op=\"faas.invoke\"} 1000"));
        assert!(
            prom.contains("taureau_monitor_alert_active{policy=\"p99-faas.invoke-lt-60000us\"} 1")
        );
        assert!(prom.contains("taureau_monitor_alert_transitions_total{state=\"firing\"} 1"));
        assert!(prom.contains("taureau_monitor_hot_function{function=\"thumbnail\"} 640"));
        assert!(prom.contains("taureau_monitor_cold_start_rate 0.050000"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "line: {line}");
        }
    }

    #[test]
    fn prometheus_node_labels_and_escaping() {
        let mut report = sample_report();
        report.ops[0].op = "weird\"op\\n".to_string();
        let prom = report.render_prometheus();
        // Remote ops carry a node label; local ops don't.
        assert!(prom.contains(
            "taureau_monitor_op_latency_us{op=\"cluster.publish\",node=\"3\",quantile=\"0.5\"} 900"
        ));
        assert!(prom.contains(
            "taureau_monitor_op_latency_us_count{op=\"cluster.publish\",node=\"3\"} 120"
        ));
        assert!(prom
            .contains("taureau_monitor_op_error_rate{op=\"cluster.publish\",node=\"3\"} 0.000000"));
        // Quote and backslash in an op name are escaped, not emitted raw.
        assert!(prom.contains("op=\"weird\\\"op\\\\n\""));
        assert!(!prom.contains("op=\"weird\"op"));
    }
}
