//! Jiffy error types.

use taureau_core::id::NodeId;

use crate::path::JPath;

/// Errors surfaced by the Jiffy controller and data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JiffyError {
    /// The namespace path does not exist.
    NotFound(JPath),
    /// The namespace path already exists.
    AlreadyExists(JPath),
    /// The shared memory pool has no free blocks left.
    PoolExhausted {
        /// Blocks requested.
        requested: u64,
        /// Blocks available when the request failed.
        available: u64,
    },
    /// A per-application allocation quota would be exceeded.
    QuotaExceeded {
        /// The application's top-level namespace.
        app: String,
        /// Blocks the app currently holds.
        held: u64,
        /// The app's quota.
        quota: u64,
    },
    /// The object at this path is a different data-structure kind.
    WrongKind {
        /// Path of the object.
        path: JPath,
        /// Kind that lives there.
        actual: &'static str,
        /// Kind the caller asked for.
        requested: &'static str,
    },
    /// The namespace's lease expired and its state was reclaimed.
    LeaseExpired(JPath),
    /// A value is larger than a single block, which the data structures do
    /// not support (matches the paper's block-granularity model).
    ValueTooLarge {
        /// Size of the offending value in bytes.
        value_bytes: u64,
        /// Block size in bytes.
        block_bytes: u64,
    },
    /// A queue pop or KV get on an empty/missing entry when the caller
    /// required presence.
    Empty(JPath),
    /// Attempted an operation on a path component that is not a directory.
    NotADirectory(JPath),
    /// The memory node is unknown, draining, or retired.
    NodeUnavailable(NodeId),
}

impl std::fmt::Display for JiffyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JiffyError::NotFound(p) => write!(f, "namespace not found: {p}"),
            JiffyError::AlreadyExists(p) => write!(f, "namespace already exists: {p}"),
            JiffyError::PoolExhausted {
                requested,
                available,
            } => write!(
                f,
                "memory pool exhausted: requested {requested} blocks, {available} available"
            ),
            JiffyError::QuotaExceeded { app, held, quota } => {
                write!(
                    f,
                    "quota exceeded for {app}: holds {held} of {quota} blocks"
                )
            }
            JiffyError::WrongKind {
                path,
                actual,
                requested,
            } => write!(f, "object at {path} is a {actual}, not a {requested}"),
            JiffyError::LeaseExpired(p) => write!(f, "lease expired for {p}"),
            JiffyError::ValueTooLarge {
                value_bytes,
                block_bytes,
            } => write!(
                f,
                "value of {value_bytes} B exceeds block size {block_bytes} B"
            ),
            JiffyError::Empty(p) => write!(f, "no data at {p}"),
            JiffyError::NotADirectory(p) => write!(f, "{p} is not a directory"),
            JiffyError::NodeUnavailable(n) => write!(f, "memory node {n} unavailable"),
        }
    }
}

impl std::error::Error for JiffyError {}

/// Convenience result alias.
pub(crate) type Result<T> = std::result::Result<T, JiffyError>;
