//! Pulsar error types.

use taureau_core::id::LedgerId;

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
    /// A tenant's retained-entry backlog quota is full.
    TenantQuotaExceeded {
        /// The tenant.
        tenant: String,
        /// The configured cap.
        quota: u64,
    },
    /// A batch whose payloads together pass the 4 GiB one entry's offset
    /// table can address.
    BatchTooLarge {
        /// Messages in the refused batch.
        messages: usize,
    },
    /// A function with this name is already registered.
    FunctionExists(String),
    /// Function not found.
    FunctionNotFound(String),
    /// The broker no longer owns this topic (a newer epoch fenced it out).
    Fenced(String),
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
            PulsarError::TenantQuotaExceeded { tenant, quota } => {
                write!(
                    f,
                    "tenant {tenant} backlog quota of {quota} entries is full"
                )
            }
            PulsarError::BatchTooLarge { messages } => {
                write!(f, "batch of {messages} messages exceeds 4 GiB of payload")
            }
            PulsarError::FunctionExists(n) => write!(f, "function already registered: {n}"),
            PulsarError::FunctionNotFound(n) => write!(f, "function not found: {n}"),
            PulsarError::Fenced(t) => write!(f, "broker fenced off topic {t}"),
        }
    }
}

impl std::error::Error for PulsarError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PulsarError>;
