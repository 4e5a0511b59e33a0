//! # taureau-monitor
//!
//! Self-hosted monitoring for the *Le Taureau* stack: the stack's own
//! streaming sketches (`taureau-sketches`) turned onto the stack's own
//! telemetry — the paper's Fig. 3 "sketches as the canonical serverless
//! streaming workload" pattern, dogfooded as a monitoring plane.
//!
//! The loop closes end to end:
//!
//! 1. Instrumented subsystems record spans into a bounded
//!    [`Tracer`](taureau_core::trace::Tracer) flight recorder and push
//!    span/metric events onto a non-blocking
//!    [`TelemetrySink`](taureau_core::trace::TelemetrySink).
//! 2. A [`TelemetryPump`] drains the sink and publishes framed events onto
//!    dedicated Pulsar topics ([`SPANS_TOPIC`], [`METRICS_TOPIC`]) —
//!    telemetry rides the same messaging substrate as user traffic.
//! 3. A [`Monitor`] consumes those topics and folds events into
//!    per-operation latency quantile sketches, error/cold-start rate
//!    windows and top-K hot functions, evaluates declarative
//!    [`SloPolicy`]s into firing/resolved [`AlertEvent`]s, and on alert
//!    firing (or invocation failure) dumps the causally-complete recent
//!    trace plus a metrics snapshot into a Jiffy `/blackbox/<alert-id>`
//!    namespace for post-mortem reads.
//! 4. A [`HealthReport`] renders the folded state as text or Prometheus
//!    exposition format.
//!
//! Every stage is bounded and lossy-by-design: full queues drop and count
//! rather than block, so monitoring can never stall the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod monitor;
pub mod pump;
pub mod report;
pub mod slo;
pub mod window;
pub mod wire;

pub use monitor::{render_trace_json, Monitor, MonitorConfig, MonitorError, PollSummary};
pub use pump::{TelemetryPump, METRICS_TOPIC, SPANS_TOPIC};
pub use report::{HealthReport, OpHealth};
pub use slo::{AlertEvent, AlertState, SloParseError, SloPolicy};
pub use window::{RateWindow, RollingQuantile};
pub use wire::SpanEvent;
