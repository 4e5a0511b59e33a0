//! # taureau-core
//!
//! Common substrate for the *Le Taureau* serverless stack — the shared
//! vocabulary every other crate in the workspace builds on:
//!
//! - [`clock`]: a [`Clock`](clock::Clock) abstraction with wall-clock and
//!   virtual (logical-time) implementations, so that every time-dependent
//!   component (leases, cold starts, billing meters) can be driven
//!   deterministically in tests and simulations.
//! - [`id`]: strongly-typed identifiers for tenants, functions, invocations,
//!   nodes, blocks, ledgers, and so on.
//! - [`metrics`]: counters, gauges and a log-linear histogram with quantile
//!   queries, plus a registry for snapshotting.
//! - [`cost`]: the billing models the paper's cost-efficiency claims depend
//!   on — fine-grained FaaS billing vs. server-centric VM billing, plus
//!   storage pricing.
//! - [`latency`]: explicit, documented latency distributions used wherever
//!   the stack injects simulated delay (cold starts, S3-like persistence,
//!   network hops). Keeping them in one module makes every simulated number
//!   traceable to a calibration constant.
//! - [`rng`]: deterministic random sources and the samplers used by the
//!   workload generators (Zipf, Poisson processes, log-normal).
//! - [`bytesize`]: human-friendly byte quantities.
//! - [`ratelimit`]: a token bucket used for throttling and admission control.
//! - [`sync`]: sharded concurrency primitives — a striped-lock map and a
//!   lock-free striped counter — that every multi-reader hot path (Jiffy
//!   pool, Pulsar topic map, FaaS container pool, metrics registry) builds
//!   on instead of one coarse `Mutex`.
//! - [`trace`]: structured request tracing — causally-linked spans that
//!   follow one invocation across FaaS, Pulsar and Jiffy, with Chrome
//!   trace-event and flamegraph exporters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytesize;
pub mod clock;
pub mod cost;
pub mod hash;
pub mod id;
pub mod latency;
pub mod metrics;
pub mod ratelimit;
pub mod rng;
pub mod sync;
pub mod trace;

pub use bytesize::ByteSize;
pub use clock::{Clock, SharedClock, VirtualClock, WallClock};
pub use id::{BlockId, ContainerId, FunctionId, InvocationId, LedgerId, NodeId, TenantId};
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use sync::{ShardedMap, StripedCounter};
pub use trace::{
    SpanGuard, SpanId, SpanRecord, TelemetryEvent, TelemetrySink, TraceId, Tracer, TracerConfig,
};
