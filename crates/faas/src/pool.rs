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
//!
//! Idle containers are kept in per-thread stripes (`crate::stripe`): a
//! thread releases onto its own stripe and acquires from it first, so a
//! warm invoke in steady state takes one lock no other thread takes. A
//! thread whose stripe is empty takes another stripe's idle container, and
//! a start is cold only after every stripe has been locked at once and
//! found empty of unexpired containers. So a cold start still means no
//! warm container existed at that instant, cold starts never exceed the
//! containers busy at once, and one thread — which only ever touches its
//! own stripe — sees the unstriped pool's exact reap-oldest / pop-newest
//! sequence.

use std::ops::DerefMut;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use crate::stripe::{own_stripe, CachePadded, STRIPES};

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

/// One stripe's idle containers.
type Stripe = Vec<WarmContainer>;

/// Reap stripes: each is ordered oldest first (releases arrive in time
/// order, so it almost always is already), then the oldest container
/// across them goes while it is past keep-alive and they hold more than
/// `floor`.
fn reap_stripes<W: DerefMut<Target = Stripe>>(
    stripes: &mut [W],
    keep: Duration,
    now: Duration,
    floor: usize,
) {
    for warm in stripes.iter_mut() {
        if !warm.is_sorted_by_key(|c| c.idle_since) {
            warm.sort_by_key(|c| c.idle_since);
        }
    }
    let mut total: usize = stripes.iter().map(|w| w.len()).sum();
    while total > floor {
        let Some(oldest) = stripes
            .iter_mut()
            .filter(|w| !w.is_empty())
            .min_by_key(|w| w[0].idle_since)
        else {
            break;
        };
        if now.saturating_sub(oldest[0].idle_since) <= keep {
            break;
        }
        oldest.remove(0);
        total -= 1;
    }
}

/// The warm containers of one sandbox, shared by its invocation threads.
#[derive(Debug)]
pub(crate) struct SandboxPool {
    keep_alive: Duration,
    /// Containers pinned warm regardless of keep-alive (provisioned
    /// concurrency). The floor bounds the pool's total, which only the
    /// whole pool in view can check, so a pool with a floor above 0 takes
    /// every acquisition down the all-stripes path. Written only with
    /// every stripe locked.
    provisioned: AtomicU32,
    stripes: [CachePadded<Mutex<Stripe>>; STRIPES],
    /// Acquisitions that took another stripe's container or went down
    /// the all-stripes path.
    #[cfg(test)]
    off_stripe: std::sync::atomic::AtomicUsize,
}

impl SandboxPool {
    /// Empty pool with the given keep-alive window.
    pub(crate) fn new(keep_alive: Duration) -> Self {
        Self {
            keep_alive,
            provisioned: AtomicU32::new(0),
            stripes: Default::default(),
            #[cfg(test)]
            off_stripe: Default::default(),
        }
    }

    /// Every stripe, locked in index order (the one order any two locks
    /// of a pool are ever taken in).
    fn lock_all(&self) -> [MutexGuard<'_, Stripe>; STRIPES] {
        std::array::from_fn(|i| self.stripes[i].lock())
    }

    /// Pin `n` containers warm (provisioned concurrency). Takes effect from
    /// the next release/reap cycle; pre-warms immediately by inserting idle
    /// containers.
    pub(crate) fn provision(&self, n: u32, now: Duration) {
        let mut all = self.lock_all();
        self.provisioned.store(n, Ordering::Relaxed);
        let held: usize = all.iter().map(|w| w.len()).sum();
        let own = &mut all[own_stripe()];
        for _ in held..n as usize {
            own.push(WarmContainer { idle_since: now });
        }
    }

    /// Acquire a container for an invocation at time `now`: warm if an
    /// idle one survived keep-alive, cold otherwise.
    pub(crate) fn acquire(&self, now: Duration) -> StartKind {
        // The caller's own stripe first, then the others one at a time.
        let own = own_stripe();
        for i in 0..STRIPES {
            let mut warm = self.stripes[(own + i) % STRIPES].lock();
            // Read under a stripe lock: `provision` stores the floor while
            // holding every stripe lock, so this is the floor in force.
            if self.provisioned.load(Ordering::Relaxed) != 0 {
                break;
            }
            reap_stripes(std::slice::from_mut(&mut warm), self.keep_alive, now, 0);
            if warm.pop().is_some() {
                #[cfg(test)]
                if i > 0 {
                    self.off_stripe.fetch_add(1, Ordering::Relaxed);
                }
                return StartKind::Warm;
            }
        }
        #[cfg(test)]
        self.off_stripe.fetch_add(1, Ordering::Relaxed);
        // Cold only with every stripe held: no container can be released
        // or taken elsewhere while the pool is found empty.
        let mut all = self.lock_all();
        let floor = self.provisioned.load(Ordering::Relaxed) as usize;
        reap_stripes(&mut all, self.keep_alive, now, floor);
        let newest = all
            .iter_mut()
            .filter(|w| !w.is_empty())
            .max_by_key(|w| w[w.len() - 1].idle_since);
        match newest.and_then(|w| w.pop()) {
            Some(_) => StartKind::Warm,
            None => StartKind::Cold,
        }
    }

    /// Return a container to the warm pool after an execution finished at
    /// `now`.
    pub(crate) fn release(&self, now: Duration) {
        self.stripes[own_stripe()]
            .lock()
            .push(WarmContainer { idle_since: now });
    }

    /// Idle warm containers.
    #[cfg(test)]
    pub(crate) fn warm_count(&self) -> usize {
        self.lock_all().iter().map(|w| w.len()).sum()
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
        assert_eq!(p.acquire(secs(1000)), StartKind::Warm);
        assert_eq!(p.acquire(secs(1000)), StartKind::Warm);
        assert_eq!(p.acquire(secs(1000)), StartKind::Cold);
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
        // At 2 s only the container idle since 0 s is past keep-alive: it
        // goes, the newest is handed out, the one idle since 1 s stays.
        assert_eq!(p.acquire(secs(2)), StartKind::Warm);
        assert_eq!(p.warm_count(), 1, "only the container idle > 1 s goes");
        assert_eq!(p.acquire(secs(100)), StartKind::Cold);
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
        // Idle since 1 s is past keep-alive at 3 s and goes; of 3 s and
        // 5 s, the most recently idle container is the one handed out…
        assert_eq!(p.acquire(secs(3)), StartKind::Warm);
        assert_eq!(p.warm_count(), 1);
        // …so the one left is idle since 3 s and gone by 5 s.
        assert_eq!(p.acquire(secs(5)), StartKind::Cold);
        assert_eq!(p.warm_count(), 0);
    }

    #[test]
    fn a_container_released_on_one_thread_is_warm_for_another() {
        let p = pool(60);
        assert_eq!(p.acquire(secs(0)), StartKind::Cold);
        std::thread::scope(|s| {
            s.spawn(|| p.release(secs(1)));
        });
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(p.acquire(secs(2)), StartKind::Warm));
        });
        assert_eq!(p.warm_count(), 0);
    }

    #[test]
    fn the_provisioned_floor_bounds_the_whole_pool() {
        let p = pool(5);
        p.provision(2, secs(0));
        assert_eq!(p.acquire(secs(1)), StartKind::Warm);
        assert_eq!(p.acquire(secs(1)), StartKind::Warm);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| p.release(secs(2)));
            }
        });
        // Two containers on two threads' stripes: the floor holds across
        // stripes.
        assert_eq!(p.acquire(secs(1000)), StartKind::Warm);
        assert_eq!(p.acquire(secs(1000)), StartKind::Warm);
        assert_eq!(p.acquire(secs(1000)), StartKind::Cold);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| p.release(secs(1001)));
            }
        });
        // Three containers on three threads' stripes: the floor is the
        // pool's, not a stripe's, so exactly one of them goes.
        assert_eq!(p.warm_count(), 3);
        assert_eq!(p.acquire(secs(2000)), StartKind::Warm);
        assert_eq!(p.warm_count(), 1);
    }

    #[test]
    fn steady_state_warm_invokes_stay_on_their_own_stripe() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let p = &pool(60);
        let barrier = &Barrier::new(2);
        let baseline = &AtomicUsize::new(0);
        let cold = &AtomicUsize::new(0);
        std::thread::scope(|s| {
            for turn in 0..2 {
                s.spawn(move || {
                    // Warm-up, one thread after the other, each holding its
                    // container until both have one: two cold starts, one
                    // container released onto each thread's stripe.
                    if turn == 1 {
                        barrier.wait();
                    }
                    assert_eq!(p.acquire(secs(0)), StartKind::Cold);
                    if turn == 0 {
                        barrier.wait();
                    }
                    barrier.wait();
                    p.release(secs(0));
                    if barrier.wait().is_leader() {
                        baseline.store(p.off_stripe.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                    barrier.wait();
                    // One instant throughout: nothing ages out.
                    for _ in 0..10_000 {
                        if p.acquire(secs(0)) == StartKind::Cold {
                            cold.fetch_add(1, Ordering::Relaxed);
                        }
                        p.release(secs(0));
                    }
                });
            }
        });
        assert_eq!(cold.load(Ordering::Relaxed), 0);
        let left_own = p.off_stripe.load(Ordering::Relaxed) - baseline.load(Ordering::Relaxed);
        assert_eq!(left_own, 0, "acquisitions that left their own stripe");
        assert_eq!(p.warm_count(), 2);
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
