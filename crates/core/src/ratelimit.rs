//! Token-bucket rate limiting.
//!
//! Used for per-tenant admission control in the FaaS runtime (a stand-in for
//! provider-side concurrency limits) and for producer throttling in the
//! messaging layer. Driven by a [`Clock`](crate::clock::Clock) so tests use virtual time.

use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::SharedClock;

/// A classic token bucket: capacity `burst`, refilled at `rate_per_sec`.
pub struct TokenBucket {
    clock: SharedClock,
    rate_per_sec: f64,
    burst: f64,
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    tokens: f64,
    last_refill: Duration,
}

impl TokenBucket {
    /// New bucket, initially full.
    pub fn new(clock: SharedClock, rate_per_sec: f64, burst: u64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst > 0, "burst must be positive");
        let now = clock.now();
        Self {
            clock,
            rate_per_sec,
            burst: burst as f64,
            state: Mutex::new(State {
                tokens: burst as f64,
                last_refill: now,
            }),
        }
    }

    fn refill(&self, state: &mut State) {
        let now = self.clock.now();
        if now > state.last_refill {
            let elapsed = (now - state.last_refill).as_secs_f64();
            state.tokens = (state.tokens + elapsed * self.rate_per_sec).min(self.burst);
            state.last_refill = now;
        }
    }

    /// Try to take `n` tokens; returns whether admission succeeded.
    pub fn try_acquire(&self, n: u64) -> bool {
        let mut state = self.state.lock();
        self.refill(&mut state);
        if state.tokens >= n as f64 {
            state.tokens -= n as f64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::sync::Arc;

    #[test]
    fn burst_then_deny() {
        let clock = VirtualClock::shared();
        let tb = TokenBucket::new(clock.clone(), 10.0, 5);
        for _ in 0..5 {
            assert!(tb.try_acquire(1));
        }
        assert!(!tb.try_acquire(1));
    }

    #[test]
    fn refills_over_time() {
        let clock = VirtualClock::shared();
        let tb = TokenBucket::new(clock.clone(), 10.0, 5);
        assert!(tb.try_acquire(5));
        assert!(!tb.try_acquire(1));
        clock.advance(Duration::from_millis(100)); // +1 token
        assert!(tb.try_acquire(1));
        assert!(!tb.try_acquire(1));
    }

    #[test]
    fn refill_caps_at_burst() {
        let clock = VirtualClock::shared();
        let tb = TokenBucket::new(clock.clone(), 1000.0, 3);
        clock.advance(Duration::from_secs(60));
        assert!(tb.try_acquire(3));
        assert!(!tb.try_acquire(1));
    }

    #[test]
    fn multi_token_acquire() {
        let clock = VirtualClock::shared();
        let tb = TokenBucket::new(clock.clone(), 10.0, 10);
        assert!(tb.try_acquire(7));
        assert!(!tb.try_acquire(4));
        assert!(tb.try_acquire(3));
    }

    #[test]
    fn shared_across_threads() {
        let clock = VirtualClock::shared();
        let tb = Arc::new(TokenBucket::new(clock, 10.0, 1000));
        let mut handles = vec![];
        for _ in 0..4 {
            let tb = Arc::clone(&tb);
            handles.push(std::thread::spawn(move || {
                (0..250).filter(|_| tb.try_acquire(1)).count()
            }));
        }
        let granted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(granted, 1000);
    }
}
