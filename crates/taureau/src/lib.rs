//! # taureau
//!
//! The facade crate for the *Le Taureau* serverless stack — a from-scratch
//! Rust reproduction of the systems described in
//! "Le Taureau: Deconstructing the Serverless Landscape & A Look Forward"
//! (SIGMOD 2020). Depend on this crate to get the whole stack, or on the
//! individual `taureau-*` crates for a single subsystem.
//!
//! | Re-export | Subsystem |
//! |-----------|-----------|
//! | [`core`] | clocks, metrics, cost models, latency models |
//! | [`sketches`] | mergeable data sketches (Count-Min, HLL, …) |
//! | [`jiffy`] | ephemeral-state virtual memory (Figure 2) |
//! | [`pulsar`] | broker/bookie messaging + Pulsar Functions (Figure 1) |
//! | [`faas`] | the Function-as-a-Service runtime |
//! | [`orchestration`] | function composition (Lopez et al. properties) |
//! | [`dag`] | parallel, fault-tolerant DAG workflow engine |
//! | [`monitor`] | self-hosted SLO monitoring, alerts, flight recorder |
//! | [`prof`] | causal trace analysis: critical paths, contention reports |
//! | [`sim`] | cluster-scale cost/scaling simulator |
//! | [`apps`] | the paper's application workloads |
//! | [`baas`] | Backend-as-a-Service substrates (blob store, transactional DB) |
//!
//! See `examples/quickstart.rs` at the repository root for a first walk
//! through the API, and `EXPERIMENTS.md` for the experiment catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use taureau_apps as apps;
pub use taureau_baas as baas;
pub use taureau_cluster as cluster;
pub use taureau_core as core;
pub use taureau_dag as dag;
pub use taureau_faas as faas;
pub use taureau_jiffy as jiffy;
pub use taureau_monitor as monitor;
pub use taureau_orchestration as orchestration;
pub use taureau_prof as prof;
pub use taureau_pulsar as pulsar;
pub use taureau_secure as secure;
pub use taureau_sim as sim;
pub use taureau_sketches as sketches;

/// The most common entry points, for `use taureau::prelude::*`.
pub mod prelude {
    pub use taureau_core::bytesize::ByteSize;
    pub use taureau_core::clock::{SharedClock, VirtualClock, WallClock};
    pub use taureau_core::trace::{TelemetrySink, Tracer};
    pub use taureau_dag::{DagExecutor, ExecutorConfig, RetryPolicy};
    pub use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};
    pub use taureau_jiffy::{Jiffy, JiffyConfig};
    pub use taureau_monitor::{Monitor, MonitorConfig, SloPolicy, TelemetryPump};
    pub use taureau_orchestration::{Composition, Orchestrator};
    pub use taureau_prof::{ContentionReport, CriticalPath, TraceGraph};
    pub use taureau_pulsar::{
        FunctionConfig, FunctionRuntime, PulsarCluster, PulsarConfig, SubscriptionMode,
    };
    pub use taureau_sketches::{CountMinSketch, Mergeable};
}
