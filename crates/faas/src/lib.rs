//! # taureau-faas
//!
//! A Function-as-a-Service runtime implementing the FaaS properties §4.1 of
//! *Le Taureau* lists as common across platforms:
//!
//! - **High-level functions**: users register plain Rust closures
//!   ([`FunctionSpec`]); the platform owns everything else.
//! - **Stateless functions**: each invocation starts from the registered
//!   code; anything a function wants to keep must go to external storage
//!   (the Jiffy/Pulsar crates in this workspace).
//! - **Limited execution times**: per-function timeout, enforced and
//!   billed.
//! - **Fine-grained billing**: every invocation is metered per
//!   [`taureau_core::cost::FaasPricing`] (per-request + GB-seconds at
//!   100 ms granularity), per tenant.
//!
//! Around those, the control plane that makes the paper's cold-start and
//! elasticity discussions concrete:
//!
//! - [`pool`]: warm-container pool with keep-alive reaping, provisioned
//!   concurrency, and injected cold-start latency (calibrated in
//!   `taureau_core::latency::profiles`) — experiment E2's subject.
//! - [`platform`]: the invoker — admission control (per-tenant rate limits,
//!   per-function concurrency caps), scheduling onto containers, timeout
//!   enforcement, at-least-once retries.
//! - [`trigger`]: event sources — schedules and queues — for the
//!   event-driven application patterns of §3.
//! - [`billing`]: per-tenant meters and bills.
//! - [`semantics`]: a bounded model checker for Jangda et al.'s formal
//!   serverless semantics (§1), mechanically verifying that stateless
//!   handlers are equivalent to run-once execution — and finding concrete
//!   counterexample schedules for handlers that leak instance state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod billing;
pub mod error;
pub mod platform;
pub mod pool;
pub mod semantics;
pub mod trigger;
pub mod types;

pub use error::FaasError;
pub use platform::{BatchRequest, FaasPlatform, InvocationResult, PlatformConfig};
pub use pool::StartKind;
pub use types::{FunctionSpec, Handler, InvocationCtx};
