//! Cluster-layer error types.

use taureau_core::id::NodeId;

/// Errors surfaced by the cluster fabric and the clustered services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A request to this node got no response before its deadline — the
    /// node is dead, partitioned away, or the reply was dropped. The
    /// caller cannot tell which (that is the FLP/failure-detector reality
    /// this layer models); retrying after a [`crate::stack::ClusterStack`]
    /// maintenance round is the intended recovery.
    Unreachable(NodeId),
    /// No live candidate node can own this resource (every replica of the
    /// service role is down).
    NoCandidates(String),
    /// The remote service executed the request and failed; the message is
    /// the remote error's rendering.
    Remote(String),
    /// A reply frame could not be decoded (framing bug or truncation).
    Wire(String),
    /// The underlying Pulsar layer failed locally (before any RPC).
    Pulsar(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Unreachable(n) => write!(f, "node {n} unreachable before deadline"),
            ClusterError::NoCandidates(r) => write!(f, "no live candidates to own {r}"),
            ClusterError::Remote(e) => write!(f, "remote error: {e}"),
            ClusterError::Wire(e) => write!(f, "wire decode error: {e}"),
            ClusterError::Pulsar(e) => write!(f, "pulsar error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Convenience result alias.
pub(crate) type Result<T> = std::result::Result<T, ClusterError>;
