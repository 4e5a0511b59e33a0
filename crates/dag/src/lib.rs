//! # taureau-dag
//!
//! A parallel, fault-tolerant DAG workflow engine over the serverless
//! stack — the composition layer Le Taureau's "Look Forward" (§4–§6)
//! argues platforms must grow: functions chained over messaging with
//! ephemeral shared state, not single isolated invocations.
//!
//! The existing [`taureau_orchestration`] crate runs *linear* state
//! machines; real analytics workloads are DAG-shaped (Carver et al., *In
//! Search of a Fast and Efficient Serverless DAG Engine*), and surviving
//! them needs retries plus checkpointed state (Zhang et al.,
//! *Fault-tolerant and Transactional Stateful Serverless Workflows*).
//! This crate supplies both:
//!
//! - [`graph`]: DAG builder and validator — cycle detection, topological
//!   [frontiers](graph::Dag::frontiers), [critical
//!   path](graph::Dag::critical_path), and a
//!   [chain-DAG view](graph::Dag::from_state_machine) of linear state
//!   machines so both workflow models share one executor.
//! - [`policy`]: retry backoff, size-based intermediate-data passing
//!   (Wukong's locality argument: small values inline, large values
//!   through Jiffy), and the executor configuration.
//! - [`executor`]: dependency-counted scheduling on the caller plus
//!   parked helper threads against the `taureau-faas` container pool,
//!   per-node retry with exponential backoff, output spill to Jiffy,
//!   node-completion events on Pulsar, and workflow-level checkpointing
//!   so a crashed job resumes with every completed node skipped.
//!
//! Every run emits a causally-linked span tree (`dag.run` → `dag.node` →
//! `dag.retry`/`dag.checkpoint` plus the subsystems' own spans) through
//! [`taureau_core::trace`], across worker threads.
//!
//! ```
//! use taureau_core::clock::VirtualClock;
//! use taureau_dag::{DagBuilder, DagExecutor};
//! use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};
//!
//! let platform = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
//! platform
//!     .register(FunctionSpec::new("echo", "t", |ctx| Ok(ctx.payload.to_vec())))
//!     .unwrap();
//! let dag = DagBuilder::new()
//!     .node("fan", "echo", &[])
//!     .node("left", "echo", &["fan"])
//!     .node("right", "echo", &["fan"])
//!     .node("join", "echo", &["left", "right"])
//!     .build()
//!     .unwrap();
//! let report = DagExecutor::new(&platform).run(&dag, "demo", b"in").unwrap();
//! assert_eq!(report.frontiers, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod executor;
pub mod graph;
pub mod policy;

pub use error::DagError;
pub use executor::{DagExecutor, NodeOutcome, WorkflowReport};
pub use graph::{Dag, DagBuilder, DagNode};
pub use policy::{DataPassing, ExecutorConfig, RetryPolicy};
