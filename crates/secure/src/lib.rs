//! # taureau-secure
//!
//! Security primitives for the serverless cloud, per §6 of *Le Taureau*:
//! "FaaS platforms lead to increased network communications due to
//! external storage accesses, leaking more information to a network
//! adversary. … [this] incentivizes the exploration of security
//! primitives that hide network access patterns in the cloud, e.g., using
//! ORAMs".
//!
//! [`PathOram`] implements Stefanov et al.'s **Path ORAM** (the paper's
//! reference [169]) over a pluggable bucket store: every logical block
//! access reads and rewrites one uniformly random root-to-leaf path, so
//! the storage server (or a network observer between a serverless function
//! and its state store) learns nothing about *which* logical block was
//! touched or whether accesses repeat. The price is a bandwidth blow-up of
//! `Z·(log N + 1)` physical blocks per logical access — measured by the
//! access counters and the `oram` bench (experiment E17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod oram;

pub use oram::{MemoryBucketStore, PathOram};
