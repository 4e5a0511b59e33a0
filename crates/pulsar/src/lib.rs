//! # taureau-pulsar
//!
//! A Pulsar-style messaging system implementing the architecture of §4.3
//! (Figure 1) of *Le Taureau*: **stateless brokers** that receive and
//! dispatch messages, **bookies** (à la Apache BookKeeper) that store them
//! durably in replicated append-only **ledgers**, and a **metadata store**
//! (the ZooKeeper ensemble in the figure) for coordination and
//! configuration. On top sits the paper's serverless hook: **Pulsar
//! Functions** ([`functions`]), which consume from topics, run user code,
//! and publish results — the runtime that hosts Figure 3's Count-Min
//! sketch.
//!
//! Layer map (bottom-up, matching the paper's description):
//!
//! - [`metadata`]: versioned CAS store standing in for ZooKeeper.
//! - [`bookie`]: storage nodes holding ledger fragments; fail-stop crash
//!   injection for recovery tests.
//! - [`ledger`]: the BookKeeper client — create/append/read/close with
//!   ensemble/write-quorum/ack-quorum replication and fencing-on-close.
//!   A ledger is "an append-only data structure with a single writer …
//!   after the ledger has been closed, it can only be opened in read-only
//!   mode" (§4.3).
//! - [`broker`]: topics (partitioned), producers, consumers, and the three
//!   Pulsar subscription modes (exclusive, shared, failover). Brokers are
//!   stateless: all durable state lives in ledgers + metadata, so a broker
//!   restart loses nothing (tested).
//! - [`functions`]: the serverless function runtime over topics, with
//!   function-local state and a [`Context`](functions::Context) mirroring
//!   the paper's `process(String input, Context context)` interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bookie;
pub mod broker;
pub mod error;
mod framing;
pub mod functions;
pub mod geo;
pub mod ledger;
pub mod message;
pub mod metadata;
pub mod tiering;

pub use broker::{Consumer, FenceCheck, Producer, PulsarCluster, PulsarConfig, SubscriptionMode};
pub use error::PulsarError;
pub use functions::{Context, FunctionConfig, FunctionRuntime};
pub use geo::GeoReplicator;
pub use message::{EntryView, Message, MessageId, MessageView};
