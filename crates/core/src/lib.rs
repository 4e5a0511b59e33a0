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
//! - [`sync`]: a lock-free striped counter (metric counters and histogram
//!   totals) and the lock-contention profiler (`LockSite`,
//!   `ContentionProfiler`).
//! - [`trace`]: structured request tracing — causally-linked spans that
//!   follow one invocation across FaaS, Pulsar and Jiffy, with Chrome
//!   trace-event and flamegraph exporters.
//! - [`wire`]: the one bounds-checked byte reader every binary format
//!   in the workspace decodes with.

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
pub mod wire;
