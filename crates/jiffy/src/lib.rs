//! # taureau-jiffy
//!
//! An implementation of **Jiffy**, the virtual-memory system for ephemeral
//! serverless state described in §4.4 (Figure 2) of *Le Taureau*.
//!
//! Serverless functions cannot talk to each other directly and cannot keep
//! state past their own lifetime, so multi-function applications must park
//! *ephemeral state* — shuffle partitions, graph supersteps, model
//! gradients — somewhere between tasks. The paper argues persistent BaaS
//! stores are too slow for this, and that existing fast stores either lack
//! elasticity or lack isolation. Jiffy's design answers with three insights,
//! each visible in this crate's structure:
//!
//! 1. **Block-level multiplexing** ([`pool`]): memory is a shared pool of
//!    fixed-size blocks on memory nodes, allocated and reclaimed at block
//!    granularity (akin to OS page allocation), so short-lived working sets
//!    from different applications interleave in time and the pool can run
//!    far below the sum of per-application peaks (experiment E5).
//! 2. **Hierarchical namespaces instead of a global address space**
//!    (`namespace`, `data`): every application (and sub-task) gets its
//!    own namespace sub-tree; data structures are partitioned *within their
//!    own namespace only*, so scaling one tenant re-partitions only that
//!    tenant's data (experiment E4). The [`baseline::GlobalStore`] shows the
//!    alternative: one consistent-hash keyspace where any scaling event
//!    moves other tenants' keys too.
//! 3. **OS-style lifetime management** (`lease`, `notify`): namespaces
//!    carry leases (Gray & Cheriton-style) that decouple state lifetime from
//!    producer lifetime — state lives until consumed or until its lease
//!    lapses — and per-namespace notifications signal consumers when state
//!    is ready, mirroring the paper's leasing + notification mechanisms.
//!
//! The primary entry point is [`Jiffy`]; see `examples/` at the workspace
//! root for end-to-end usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub(crate) mod controller;
pub(crate) mod data;
pub(crate) mod error;
pub(crate) mod lease;
pub(crate) mod namespace;
pub(crate) mod notify;
pub(crate) mod path;
pub mod pool;

pub use controller::{Jiffy, JiffyConfig, KvScope, MigrationReport};
pub use data::{FileHandle, KvHandle, QueueHandle};
pub use error::JiffyError;
pub use notify::{EventKind, Subscription};
pub use path::JPath;
