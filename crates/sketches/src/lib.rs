//! # taureau-sketches
//!
//! Mergeable streaming data sketches — the algorithmic toolkit §5.1 of *Le
//! Taureau* catalogues as a natural fit for serverless stream analytics:
//! "sampling, filtering, quantiles, cardinality, frequent elements, …".
//! Figure 3 of the paper shows a Count-Min sketch deployed as a Pulsar
//! function; [`CountMinSketch`] is that sketch, and
//! `taureau-pulsar`'s function runtime hosts it exactly as the figure shows.
//!
//! Every sketch here is:
//! - **single-pass**: `update` processes one stream element in O(1)–O(log n);
//! - **bounded-space**: size depends on accuracy parameters, not stream
//!   length;
//! - **mergeable** ([`Mergeable`]): two sketches built over disjoint
//!   sub-streams combine into the sketch of the union — the property that
//!   lets a sketch be *partitioned across serverless function instances*
//!   and aggregated afterwards, which is the whole point of running them on
//!   a FaaS platform.
//!
//! | Sketch | Question answered | Guarantee |
//! |--------|------------------|-----------|
//! | [`CountMinSketch`] | frequency of item x | overestimate ≤ εN w.p. 1−δ |
//! | [`HyperLogLog`] | distinct-count | ±1.04/√(2^p) relative std. error |
//! | [`BloomFilter`] | membership | no false negatives, tunable FPR |
//! | [`SpaceSaving`] | top-k frequent items | error ≤ N/capacity |
//! | [`ReservoirSample`] | uniform sample of k | exact uniformity |
//! | [`KllSketch`] | quantiles | rank error ≈ O(1/k) |
//! | [`AmsF2`] | second moment (join size) | (ε,δ) multiplicative |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod bloom;
pub(crate) mod countmin;
pub(crate) mod hash;
pub(crate) mod hyperloglog;
pub(crate) mod moments;
pub(crate) mod quantiles;
pub(crate) mod reservoir;
pub(crate) mod spacesaving;

pub use bloom::BloomFilter;
pub use countmin::CountMinSketch;
pub use hyperloglog::HyperLogLog;
pub use moments::AmsF2;
pub use quantiles::KllSketch;
pub use reservoir::ReservoirSample;
pub use spacesaving::SpaceSaving;

/// Sketches over disjoint sub-streams can be combined into a sketch of the
/// concatenated stream. This is the property that makes a sketch deployable
/// across a fleet of serverless function instances (each instance sketches
/// its shard; a reducer merges).
pub trait Mergeable {
    /// Fold `other` into `self`.
    ///
    /// # Errors
    /// Returns [`MergeError`] if the two sketches were built with
    /// incompatible parameters (different widths, precisions, or seeds).
    fn merge(&mut self, other: &Self) -> Result<(), MergeError>;
}

/// Two sketches had incompatible shapes or seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Human-readable description of the mismatch.
    pub(crate) reason: String,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot merge sketches: {}", self.reason)
    }
}

impl std::error::Error for MergeError {}

impl MergeError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}
