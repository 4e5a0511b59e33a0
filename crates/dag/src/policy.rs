//! Execution policies: retry backoff, intermediate-data passing, and the
//! executor knobs that bundle them.

use std::time::Duration;

/// Per-node retry with exponential backoff. Attempt `k`'s failure sleeps
/// `base × multiplier^(k−1)`, capped at `max_backoff`, before attempt
/// `k+1`. Only transient platform errors (execution failure, timeout) are
/// retried; admission errors and unknown functions fail the node
/// immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per node (≥ 1; 1 disables retry).
    pub(crate) max_attempts: u32,
    /// Backoff before the second attempt.
    pub(crate) base: Duration,
    /// Backoff growth factor per subsequent attempt.
    pub(crate) multiplier: f64,
    /// Upper bound on any single backoff.
    pub(crate) max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Backoff to sleep after the `attempt`-th failure (1-based).
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        self.base.mul_f64(exp).min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// How a node's output reaches its dependents (and the checkpoint).
///
/// Wukong's observation: small intermediates are cheapest passed inline
/// with the task, while large ones belong in shared ephemeral storage.
/// `SizeBased` captures that hybrid; `Inline` keeps everything in the
/// executor's memory (no Jiffy traffic, no durability for large values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPassing {
    /// Always pass outputs in executor memory.
    Inline,
    /// Spill outputs larger than `inline_max` bytes to Jiffy files under
    /// the workflow's namespace; smaller outputs stay inline.
    SizeBased {
        /// Largest output (bytes) still passed inline.
        inline_max: usize,
    },
}

impl Default for DataPassing {
    fn default() -> Self {
        DataPassing::SizeBased {
            inline_max: 32 * 1024,
        }
    }
}

/// Knobs for one executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Most workers on one run at a time, the thread that called `run`
    /// included (≥ 1; 1 yields sequential execution in (level,
    /// declaration) order — the baseline E23 compares against). The
    /// executor keeps up to `max_parallelism − 1` helper threads for it,
    /// started by the first fan-out that needs them. Deliberately not
    /// capped by the CPU count: workers mostly wait on their functions.
    pub max_parallelism: usize,
    /// Per-node retry policy.
    pub retry: RetryPolicy,
    /// Intermediate-data passing policy.
    pub data_passing: DataPassing,
    /// Checkpoint every completed node to Jiffy so a re-run of the same
    /// job skips the nodes already done. Requires a state store to be
    /// attached; silently off without one.
    pub checkpoint: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            max_parallelism: 8,
            retry: RetryPolicy::default(),
            data_passing: DataPassing::default(),
            checkpoint: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(20), Duration::from_secs(1)); // capped
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
