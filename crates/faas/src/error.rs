//! FaaS error types.

use std::time::Duration;

use taureau_core::cost::Dollars;

/// Errors surfaced by the FaaS platform.
#[derive(Debug, Clone, PartialEq)]
pub enum FaasError {
    /// No function registered under this name.
    FunctionNotFound(String),
    /// A function with this name already exists.
    FunctionExists(String),
    /// Execution exceeded the function's configured timeout. The
    /// invocation is still billed (for the timeout duration), as real
    /// platforms do.
    Timeout {
        /// The configured limit.
        limit: Duration,
        /// How long the function actually ran.
        ran: Duration,
        /// Dollars billed for the execution.
        billed: Dollars,
    },
    /// Rejected by the tenant's admission rate limit.
    Throttled {
        /// The tenant whose limit was hit.
        tenant: String,
    },
    /// The function is at its concurrency cap.
    ConcurrencyLimit {
        /// Function name.
        function: String,
        /// Configured cap.
        limit: u32,
    },
    /// The function's own code returned an error.
    ExecutionFailed {
        /// Function name.
        function: String,
        /// The error the handler reported.
        reason: String,
        /// Dollars billed for the execution (0 for a refusal that ran
        /// nothing).
        billed: Dollars,
    },
}

impl FaasError {
    /// Dollars billed for the execution this error ended: `Some` for a
    /// failed or timed-out one, `None` for an invocation the platform
    /// refused before anything ran. From
    /// [`FaasPlatform::invoke_with_retries`](crate::FaasPlatform::invoke_with_retries),
    /// the sum over every attempt.
    pub fn billed(&self) -> Option<Dollars> {
        match self {
            FaasError::Timeout { billed, .. } | FaasError::ExecutionFailed { billed, .. } => {
                Some(*billed)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for FaasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaasError::FunctionNotFound(n) => write!(f, "function not found: {n}"),
            FaasError::FunctionExists(n) => write!(f, "function already exists: {n}"),
            FaasError::Timeout { limit, ran, .. } => {
                write!(f, "execution timed out: ran {ran:?}, limit {limit:?}")
            }
            FaasError::Throttled { tenant } => write!(f, "tenant {tenant} throttled"),
            FaasError::ConcurrencyLimit { function, limit } => {
                write!(f, "function {function} at concurrency limit {limit}")
            }
            FaasError::ExecutionFailed {
                function, reason, ..
            } => {
                write!(f, "function {function} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for FaasError {}

/// Convenience result alias.
pub(crate) type Result<T> = std::result::Result<T, FaasError>;
