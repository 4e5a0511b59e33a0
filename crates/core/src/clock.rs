//! Time sources.
//!
//! Every time-dependent component in the stack (lease managers, billing
//! meters, container keep-alive reapers, cold-start injectors) takes a
//! [`SharedClock`] instead of calling [`std::time::Instant::now`] directly.
//! Production code and Criterion benches use [`WallClock`]; unit tests and
//! the discrete-event simulator use [`VirtualClock`], which only moves when
//! explicitly advanced. This is what makes tests of lease expiry or billing
//! rounding deterministic and instant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source measured as a [`Duration`] since the clock's own
/// epoch (process start for [`WallClock`], zero for [`VirtualClock`]).
pub trait Clock: Send + Sync {
    /// Current time since the clock's epoch.
    fn now(&self) -> Duration;

    /// Block (or, for a virtual clock, logically advance) for `d`.
    fn sleep(&self, d: Duration);

    /// Whether this clock advances on its own (wall time) or only when
    /// driven (virtual time). Components can use this to decide whether a
    /// background reaper thread is meaningful.
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Shared handle to a clock.
pub type SharedClock = Arc<dyn Clock>;

/// Real wall-clock time, relative to the instant the clock was created.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Create a wall clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Convenience constructor returning a [`SharedClock`].
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A logical clock that only moves when [`VirtualClock::advance`] is called
/// (or when a component calls [`Clock::sleep`] on it).
///
/// Internally nanoseconds in an atomic, so handles are cheap to share across
/// threads. `u64` nanoseconds covers ~584 years of simulated time, far more
/// than any experiment needs.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// Create a virtual clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience constructor returning both the concrete handle (for
    /// advancing) and nothing else; callers clone the `Arc` into components.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Move time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances() {
        let c = WallClock::new();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.now() > a);
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_advances_only_when_told() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now(), Duration::from_secs(5));
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(5250));
    }

    #[test]
    fn virtual_clock_sleep_advances() {
        let c = VirtualClock::new();
        c.sleep(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_secs(1));
        assert!(c.is_virtual());
    }

    #[test]
    fn shared_across_threads() {
        let c = VirtualClock::shared();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.advance(Duration::from_secs(1)));
        h.join().unwrap();
        assert_eq!(c.now(), Duration::from_secs(1));
    }
}
