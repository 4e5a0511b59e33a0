//! Pulsar error types.

use taureau_core::id::LedgerId;

use crate::message::MessageId;

/// Errors from the messaging layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PulsarError {
    /// Topic does not exist.
    TopicNotFound(String),
    /// Topic already exists.
    TopicExists(String),
    /// Ledger does not exist.
    LedgerNotFound(LedgerId),
    /// Appended to a ledger that is closed (fenced).
    LedgerClosed(LedgerId),
    /// Could not satisfy the ack quorum (too many bookies down).
    QuorumUnavailable {
        /// Acks needed.
        needed: usize,
        /// Acks obtained.
        got: usize,
    },
    /// Entry missing from every live replica.
    EntryUnavailable {
        /// The ledger.
        ledger: LedgerId,
        /// The entry id.
        entry: u64,
    },
    /// Not enough live bookies to form an ensemble.
    InsufficientBookies {
        /// Ensemble size requested.
        needed: usize,
        /// Live bookies available.
        alive: usize,
    },
    /// An exclusive subscription already has a consumer attached.
    ExclusiveSubscriptionBusy(String),
    /// Metadata compare-and-swap failed (stale version).
    MetadataConflict(String),
    /// A batch whose payloads — or a sealed segment whose entries, at
    /// offload — together pass the 4 GiB one offset table can address.
    BatchTooLarge {
        /// Messages (or entries) in the refused batch.
        messages: usize,
    },
    /// A function with this name is already registered.
    FunctionExists(String),
    /// Function not found.
    FunctionNotFound(String),
    /// The broker no longer owns this topic (a newer epoch fenced it out).
    Fenced(String),
    /// An ack named a message no entry of the topic can hold: a partition
    /// past the topic's, or a batch index past its batch.
    InvalidMessageId(MessageId),
}

impl std::fmt::Display for PulsarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PulsarError::TopicNotFound(t) => write!(f, "topic not found: {t}"),
            PulsarError::TopicExists(t) => write!(f, "topic already exists: {t}"),
            PulsarError::LedgerNotFound(l) => write!(f, "ledger not found: {l}"),
            PulsarError::LedgerClosed(l) => write!(f, "ledger closed: {l}"),
            PulsarError::QuorumUnavailable { needed, got } => {
                write!(f, "ack quorum unavailable: needed {needed}, got {got}")
            }
            PulsarError::EntryUnavailable { ledger, entry } => {
                write!(
                    f,
                    "entry {entry} of {ledger} unavailable on all live replicas"
                )
            }
            PulsarError::InsufficientBookies { needed, alive } => {
                write!(f, "need {needed} bookies for ensemble, {alive} alive")
            }
            PulsarError::ExclusiveSubscriptionBusy(s) => {
                write!(f, "exclusive subscription {s} already has a consumer")
            }
            PulsarError::MetadataConflict(k) => write!(f, "metadata CAS conflict on {k}"),
            PulsarError::BatchTooLarge { messages } => {
                write!(f, "batch of {messages} messages exceeds 4 GiB of payload")
            }
            PulsarError::FunctionExists(n) => write!(f, "function already registered: {n}"),
            PulsarError::FunctionNotFound(n) => write!(f, "function not found: {n}"),
            PulsarError::Fenced(t) => write!(f, "broker fenced off topic {t}"),
            PulsarError::InvalidMessageId(id) => write!(f, "invalid message id {id:?}"),
        }
    }
}

impl std::error::Error for PulsarError {}

/// Convenience result alias.
pub(crate) type Result<T> = std::result::Result<T, PulsarError>;
