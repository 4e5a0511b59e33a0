//! `taureau-cluster`: a simulated multi-node fabric for the Le Taureau
//! stack — fault-injectable transport, heartbeat membership with
//! epoch-fenced leases, and clustered Pulsar / Jiffy / FaaS services
//! with failover and background re-replication.
//!
//! The paper's serverless argument is an argument about *fleets*: Pulsar
//! brokers are stateless so any of them can serve a topic after a crash
//! (§4.3); BookKeeper keeps entries available because replicas outlive
//! any single bookie; Jiffy capacity grows and shrinks with memory
//! nodes. The single-process crates model each subsystem's logic; this
//! crate adds the missing dimension — **which node** runs what, what
//! happens when that node dies, and what the wire between nodes does to
//! latency and delivery.
//!
//! Layering, bottom up:
//!
//! - [`transport`]: [`transport::SimNet`] — deterministic virtual-time
//!   message passing with per-link latency/jitter/drop/dup faults and
//!   partitions. Per-link FIFO is guaranteed and property-tested.
//! - [`membership`]: heartbeat failure detection
//!   ([`membership::MemberAgent`]) and the lease table
//!   ([`membership::ControlPlane`]) whose epochs fence deposed owners.
//! - [`fabric`]: [`fabric::ClusterFabric`] — nodes with roles, the tick
//!   loop, kill/revive.
//! - [`pulsar_cluster`], [`jiffy_cluster`], [`faas_cluster`]: the
//!   subsystems mapped onto fabric nodes, with failover, block
//!   migration, and worker routing respectively.
//! - [`stack`]: [`stack::ClusterStack`] — the composed deployment a
//!   client talks to through the network, used by experiment e28 and the
//!   `stack_cluster` integration tests.
//! - [`obs`]: the cluster observability plane — per-node telemetry
//!   agents shipping HLC-stamped batches over the faulty network to a
//!   collector node, failure-timeline reconstruction with MTTD/MTTR
//!   phase attribution, grey-failure detection, and exact telemetry
//!   loss accounting. Used by experiment e29.

#![forbid(unsafe_code)]

pub mod error;
pub mod faas_cluster;
pub mod fabric;
pub mod jiffy_cluster;
pub mod membership;
pub mod obs;
pub mod pulsar_cluster;
pub mod stack;
pub mod transport;
pub mod wire;

pub use error::ClusterError;
pub use faas_cluster::ClusterFaas;
pub use fabric::{ClusterFabric, NodeRole};
pub use jiffy_cluster::JiffyFabric;
pub use membership::{ControlPlane, Lease, MemberAgent, MembershipConfig};
pub use obs::{
    ClusterObs, Collector, FailureTimeline, GreyVerdict, Incident, IncidentKind, IncidentSpec,
    LossAccounting, ObsConfig, ObsEvent, OutagePhase, StampedEvent, TelemetryAgent,
};
pub use pulsar_cluster::{ClusterPulsar, MaintenanceReport};
pub use stack::{ClusterMessage, ClusterStack, ClusterStackConfig};
pub use transport::{Envelope, LinkFaults, NetStats, SimNet};
