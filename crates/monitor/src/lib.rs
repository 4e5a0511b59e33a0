//! # taureau-monitor
//!
//! Self-hosted monitoring for the *Le Taureau* stack: the stack's own
//! streaming sketches (`taureau-sketches`) turned onto the stack's own
//! telemetry — the paper's Fig. 3 "sketches as the canonical serverless
//! streaming workload" pattern, dogfooded as a monitoring plane.
//!
//! One telemetry plane, two transports:
//!
//! 1. Instrumented subsystems record spans into a bounded
//!    [`Tracer`](taureau_core::trace::Tracer) flight recorder and push
//!    span/metric events onto a non-blocking
//!    [`TelemetrySink`](taureau_core::trace::TelemetrySink).
//! 2. One batch format carries them: HLC-stamped [`BatchWriter`] batches
//!    of spans, metrics and control-plane events ([`ObsEvent`]). A
//!    [`TelemetryPump`] publishes one batch per message on the one
//!    [`TELEMETRY_TOPIC`], so telemetry rides the same messaging substrate
//!    as user traffic; on a cluster, each node's agent ships the same
//!    batches over the simulated network (`taureau-cluster`'s `obs`).
//! 3. One fold, [`TelemetryFold`], reads both: a per-sender sequence
//!    ledger that drops duplicates and counts loss, per-`(op, node)` KLL
//!    latency sketches with exact counts, errors and maxima, counters, the
//!    top-K `faas.invoke` functions and cold starts. It alone builds the
//!    [`HealthReport`], rendered as text or Prometheus exposition format.
//! 4. The [`Monitor`] consumes the topic, folds it, evaluates declarative
//!    [`SloPolicy`]s over windows of the spans of the op each one watches
//!    into firing/resolved alerts, and on alert firing (or invocation
//!    failure) dumps the causally-complete recent trace into the Jiffy
//!    `/blackbox/<alert-id>` namespace with the one [`write_blackbox`].
//!
//! Every stage is bounded and lossy-by-design: full queues drop and count
//! rather than block, so monitoring can never stall the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod blackbox;
pub(crate) mod fold;
pub(crate) mod monitor;
pub(crate) mod pump;
pub(crate) mod report;
pub(crate) mod slo;
pub(crate) mod window;
pub(crate) mod wire;

pub use blackbox::write_blackbox;
pub use fold::TelemetryFold;
pub use monitor::{Monitor, MonitorConfig};
pub use pump::{TelemetryPump, TELEMETRY_TOPIC};
pub use report::{HealthReport, OpHealth};
pub use slo::{AlertState, SloPolicy};
pub use wire::{BatchRef, BatchWriter, EventRef, ObsEvent, StampedEvent};
