//! The warm-container pool.
//!
//! The first invocation of a function must initialise a fresh container — a
//! *cold start*, whose latency the platform injects from the calibrated
//! model in `taureau_core::latency::profiles` (hundreds of milliseconds,
//! heavy tail). Containers are kept warm for a keep-alive window after use;
//! an invocation that finds one skips initialisation — a *warm start*
//! (single-digit milliseconds). §5.2 cites Ishakian et al.: "warm
//! serverless executions are within an acceptable latency range, while cold
//! starts add significant overhead" — experiment E2 reproduces that gap and
//! ablates the keep-alive window.
//!
//! There is one [`SandboxPool`] per sandbox — a function, or an application
//! whose functions share sandboxes — held by the platform's registry entry
//! for it, so an invocation reaches its pool through the entry it already
//! resolved and contends only with invocations of the same sandbox.

use std::time::Duration;

use parking_lot::Mutex;

/// Whether an invocation found a warm container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// Fresh container: initialisation latency paid.
    Cold,
    /// Reused container: dispatch latency only.
    Warm,
}

#[derive(Debug, Clone, Copy)]
struct WarmContainer {
    idle_since: Duration,
}

#[derive(Debug, Default)]
struct PoolState {
    /// Idle warm containers.
    warm: Vec<WarmContainer>,
    /// Containers pinned warm regardless of keep-alive (provisioned
    /// concurrency).
    provisioned: u32,
}

impl PoolState {
    fn reap(&mut self, keep: Duration, now: Duration) {
        let floor = self.provisioned as usize;
        // Oldest first; keep at least the provisioned floor. Releases
        // arrive in time order, so the list is almost always sorted already.
        if !self.warm.is_sorted_by_key(|c| c.idle_since) {
            self.warm.sort_by_key(|c| c.idle_since);
        }
        while self.warm.len() > floor {
            let oldest = self.warm[0];
            if now.saturating_sub(oldest.idle_since) > keep {
                self.warm.remove(0);
            } else {
                break;
            }
        }
    }
}

/// The warm containers of one sandbox, shared by its invocation threads.
#[derive(Debug)]
pub(crate) struct SandboxPool {
    keep_alive: Duration,
    state: Mutex<PoolState>,
}

impl SandboxPool {
    /// Empty pool with the given keep-alive window.
    pub(crate) fn new(keep_alive: Duration) -> Self {
        Self {
            keep_alive,
            state: Mutex::new(PoolState::default()),
        }
    }

    /// Pin `n` containers warm (provisioned concurrency). Takes effect from
    /// the next release/reap cycle; pre-warms immediately by inserting idle
    /// containers.
    pub(crate) fn provision(&self, n: u32, now: Duration) {
        let mut pool = self.state.lock();
        pool.provisioned = n;
        while (pool.warm.len() as u32) < n {
            pool.warm.push(WarmContainer { idle_since: now });
        }
    }

    /// Acquire a container for an invocation at time `now`: warm if an
    /// idle one survived keep-alive, cold otherwise.
    pub(crate) fn acquire(&self, now: Duration) -> StartKind {
        let mut pool = self.state.lock();
        pool.reap(self.keep_alive, now);
        match pool.warm.pop() {
            Some(_) => StartKind::Warm,
            None => StartKind::Cold,
        }
    }

    /// Return a container to the warm pool after an execution finished at
    /// `now`.
    pub(crate) fn release(&self, now: Duration) {
        self.state
            .lock()
            .warm
            .push(WarmContainer { idle_since: now });
    }

    /// Reap idle containers past keep-alive.
    #[cfg(test)]
    pub(crate) fn reap(&self, now: Duration) {
        self.state.lock().reap(self.keep_alive, now);
    }

    /// Idle warm containers.
    #[cfg(test)]
    pub(crate) fn warm_count(&self) -> usize {
        self.state.lock().warm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(keep_alive_secs: u64) -> SandboxPool {
        SandboxPool::new(Duration::from_secs(keep_alive_secs))
    }

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn first_start_is_cold_second_is_warm() {
        let p = pool(60);
        assert_eq!(p.acquire(secs(0)), StartKind::Cold);
        p.release(secs(1));
        assert_eq!(p.acquire(secs(2)), StartKind::Warm);
        assert_eq!(p.warm_count(), 0);
    }

    #[test]
    fn keep_alive_expiry_forces_cold() {
        let p = pool(10);
        p.acquire(secs(0));
        p.release(secs(1));
        // Within keep-alive: warm.
        assert_eq!(p.acquire(secs(5)), StartKind::Warm);
        p.release(secs(6));
        // Past keep-alive: container reaped, cold again.
        assert_eq!(p.acquire(secs(30)), StartKind::Cold);
    }

    #[test]
    fn concurrent_bursts_create_multiple_containers() {
        let p = pool(60);
        // Three invocations before any release: three cold starts.
        for _ in 0..3 {
            assert_eq!(p.acquire(secs(0)), StartKind::Cold);
        }
        for _ in 0..3 {
            p.release(secs(1));
        }
        assert_eq!(p.warm_count(), 3);
        // Next three are all warm.
        for _ in 0..3 {
            assert_eq!(p.acquire(secs(2)), StartKind::Warm);
        }
    }

    #[test]
    fn provisioned_concurrency_never_reaps_below_floor() {
        let p = pool(5);
        p.provision(2, secs(0));
        assert_eq!(p.warm_count(), 2);
        // Far past keep-alive, the floor remains.
        p.reap(secs(1000));
        assert_eq!(p.warm_count(), 2);
        assert_eq!(p.acquire(secs(1001)), StartKind::Warm);
    }

    #[test]
    fn reap_drops_everything_past_keep_alive() {
        let p = pool(1);
        for _ in 0..3 {
            p.acquire(secs(0));
        }
        for t in 0..3 {
            p.release(secs(t));
        }
        p.reap(secs(2));
        assert_eq!(p.warm_count(), 2, "only the container idle > 1 s goes");
        p.reap(secs(100));
        assert_eq!(p.warm_count(), 0);
    }

    #[test]
    fn releases_out_of_time_order_still_reap_oldest_and_pop_newest() {
        let p = pool(1);
        for _ in 0..3 {
            p.acquire(secs(0));
        }
        for t in [5, 1, 3] {
            p.release(secs(t));
        }
        // Idle since 1 s is past keep-alive at 3 s; 3 s and 5 s are not.
        p.reap(secs(3));
        assert_eq!(p.warm_count(), 2);
        // The most recently idle container (5 s) is the one handed out…
        assert_eq!(p.acquire(secs(3)), StartKind::Warm);
        // …so the one left is idle since 3 s and gone by 5 s.
        p.reap(secs(5));
        assert_eq!(p.warm_count(), 0);
    }

    #[test]
    fn concurrent_acquire_release_conserves_containers() {
        let p = pool(60);
        let cold = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // One instant throughout: nothing ages out.
                    for _ in 0..200 {
                        if p.acquire(secs(0)) == StartKind::Cold {
                            cold.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        p.release(secs(0));
                    }
                });
            }
        });
        // Every container ever created is back in the pool, and no more
        // were created than threads could hold at once.
        let cold = cold.into_inner();
        assert_eq!(p.warm_count(), cold);
        assert!((1..=4).contains(&cold), "{cold} cold starts for 4 threads");
    }
}
