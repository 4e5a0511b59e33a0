//! # taureau-baas
//!
//! The **Backend-as-a-Service** half of the serverless dichotomy (§2.2 of
//! *Le Taureau*): "cloud-provider managed platforms that enable services
//! beyond stateless compute". Two of the paper's BaaS categories are
//! implemented as real substrates:
//!
//! - `blob`: an object store in the S3 mould — buckets, keys, versioned
//!   ETags, per-request read/write counts. "Since
//!   FaaS platforms are stateless, the storage services provide a means to
//!   store state in the serverless ecosystem."
//! - [`db`]: a serverless *database* in the Aurora-Serverless mould — an
//!   MVCC store with snapshot-isolation transactions and optimistic
//!   commit. §4.1 explains precisely why this matters: "since most FaaS
//!   platforms re-execute functions transparently on failure, the
//!   transactional semantics offered by serverless database services can
//!   be crucial for ensuring correctness". Experiment E15 demonstrates
//!   the anomaly (a retried non-transactional transfer corrupts balances)
//!   and the fix (the same logic inside [`db::ServerlessDb::run_transaction`]
//!   preserves the invariant).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod blob;
pub mod db;

pub use blob::BlobStore;
pub use db::{DbError, ServerlessDb};
