//! # taureau-apps
//!
//! The application workloads *Le Taureau* surveys, built on the
//! workspace's serverless stack (FaaS + Jiffy + Pulsar + orchestration):
//!
//! | Module | Paper section | What it reproduces |
//! |--------|---------------|--------------------|
//! | [`etl`] | §3.1 Data Processing | extract→transform→load over FaaS with Jiffy state |
//! | [`web`] | §3.1 Web Applications | static content + event-driven dynamic handlers |
//! | [`iot`] | §3.1 Internet of Things | device-registration functions over a serverless registry |
//! | [`graph`] | §5.1 Graph Processing (Toader et al.) | Pregel over FaaS workers with a memory engine (Jiffy) |
//! | [`matmul`] | §5.1 Matrix Multiplication (Werner et al.) | distributed Strassen & blocked matmul with ephemeral intermediates |
//! | [`ml`] | §5.2 Machine Learning | parameter-server training, hyperparameter search, coded straggler mitigation (Gupta et al.) |
//! | [`montecarlo`] | §5 "massively parallel" | fan-out π estimation and option pricing |
//! | [`seqcompare`] | §5.1 Sequence Comparison (Niu et al.) | all-pairs Smith–Waterman fan-out |
//! | [`streaming`] | §5.1 real-time analytics | event-time windowed operators as Pulsar functions |
//! | [`video`] | §5.1 Video (ExCamera/Sprocket) | chunked encoding pipeline with inter-chunk state |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod etl;
pub mod graph;
pub mod iot;
pub mod matmul;
pub mod ml;
pub mod montecarlo;
pub mod seqcompare;
pub mod streaming;
pub mod video;
pub mod web;
