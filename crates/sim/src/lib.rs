//! # taureau-sim
//!
//! A deterministic discrete-event simulator for the *cluster-scale*
//! questions in *Le Taureau* that cannot be answered by running real code
//! on a laptop: what does a day of bursty traffic cost on serverless vs. a
//! provisioned VM fleet (§2's cost-efficiency claim, experiment E1)? how do
//! autoscaling policies trade utilisation against tail latency (§2's
//! demand-driven execution and §6's SLA discussion, experiment E11)? how
//! should functions be bin-packed onto nodes (§6's look-forward,
//! experiment E12)?
//!
//! - [`workload`]: synthetic arrival traces — Poisson, diurnal (sinusoidal
//!   rate), and ON/OFF bursty — with log-normal execution durations. The
//!   paper's §3.2: "variable load over time, with the peak load being
//!   several times higher than the mean, and the minimum often being
//!   zero."
//! - [`serverless`]: a FaaS fleet simulator — per-request container
//!   matching with keep-alive, cold-start penalties, fine-grained billing.
//! - [`vmfleet`]: the server-centric baseline — a VM fleet (fixed or
//!   autoscaled) with boot delays, queueing, and per-hour billing.
//! - [`scheduler`]: bin-packing placement policies, including the
//!   complementary-resource packing §6 proposes.
//!
//! All simulation is seeded and deterministic: the same inputs produce the
//! same tables, run to run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod edge;
pub mod hetero;
pub mod scheduler;
pub mod serverless;
pub mod vmfleet;
pub mod workload;
