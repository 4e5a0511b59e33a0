//! Concurrency primitives shared across the stack.
//!
//! Shared maps (the broker's topics, a bookie's ledgers, the metadata
//! store's nodes, Jiffy's per-application state and holdings, the metric
//! registry's names) are one `parking_lot::Mutex<FnvHashMap<K, V>>` each,
//! locked directly by their owner. Every benchmark workload has one topic
//! and one application, so stripes over those maps had nothing to spread;
//! DESIGN §8 records the measurement that retired them.
//!
//! What is left here:
//!
//! - [`StripedCounter`]: a lock-free counter split across cache-padded
//!   cells. Each thread increments a cell picked by a thread-local stripe
//!   id (no CAS contention, no false sharing); reads fold all cells. This
//!   backs [`Counter`](crate::metrics::Counter) and a `Histogram`'s
//!   `count` and `sum`, so hot-path `metrics.counter("x").inc()` never
//!   bounces a shared cache line.
//! - [`stripe_id`]: the thread-local stripe id `StripedCounter` picks its
//!   cell with, exported so the FaaS warm pool and tenant bill stripe by
//!   the same id.
//! - [`LockSite`] and [`ContentionProfiler`]: contention instrumentation
//!   for one named lock. An owner that wants its lock profiled acquires
//!   it through [`LockSite::timed`]; the broker's topic map is the one
//!   site that does.
//!
//! Read-mostly cells (an attached tracer, a topic's partition count, a
//! handle's object binding, the cluster's lease view) are plain
//! `RwLock`s and `OnceLock`s at their owners, read by copying the value
//! out; sealed ledger segments are immutable `Arc`s and need no cell.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Number of cells in a [`StripedCounter`] (must be a power of two).
pub(crate) const COUNTER_STRIPES: usize = 16;

/// One cache line per counter cell, so two threads on adjacent stripes
/// never write the same line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Monotonic stripe ids handed to threads on first use.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stripe id: a process-wide sequence number assigned on
/// the thread's first call and fixed for its life. Striped structures
/// reduce it modulo their stripe count, so threads whose ids differ by a
/// multiple of that count share a stripe. [`StripedCounter`] picks its
/// cell with it, and so does every other per-thread stripe in the stack.
#[inline]
pub fn stripe_id() -> usize {
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
            s.set(v);
        }
        v
    })
}

/// A lock-free counter striped across `COUNTER_STRIPES` cache-padded
/// cells. Each thread adds to its own cell; [`StripedCounter::get`] folds
/// all cells into one total. Increments scale with cores; reads pay a
/// 16-load sweep, which is fine for report-time consumers.
#[derive(Default)]
pub struct StripedCounter {
    cells: [PaddedCell; COUNTER_STRIPES],
}

impl fmt::Debug for StripedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StripedCounter")
            .field("value", &self.get())
            .finish()
    }
}

impl StripedCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to this thread's cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe_id() & (COUNTER_STRIPES - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Fold every cell into the current total.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// Default hold-time sampling rate for a [`LockSite`]: one acquisition in
/// this many (per thread) pays the two clock reads that bracket the
/// critical section. Waits are never sampled — a wait only starts its
/// clock after `try_lock` has already failed, so the uncontended path
/// never reads a clock at all.
pub(crate) const HOLD_SAMPLE_EVERY: u64 = 64;

thread_local! {
    /// Per-thread acquisition tick driving hold-time sampling. Thread-local
    /// so sampling needs no shared atomic (lock-order-free: recording never
    /// takes a lock, so a profiled lock can never deadlock against the
    /// profiler).
    static HOLD_TICK: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn hold_sampled(mask: u64) -> bool {
    HOLD_TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v & mask == 0
    })
}

/// Saturating nanosecond count of a [`Duration`].
#[inline]
fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Contention instrumentation for one named lock (e.g. the broker's topic
/// map). Counts every acquisition made through [`LockSite::timed`], times
/// every *contended* wait (`try_lock` miss → clock → blocking `lock`), and
/// samples hold times one-in-`HOLD_SAMPLE_EVERY`. All recording is
/// lock-order-free (striped counters only), so the profiler can never
/// introduce an ordering edge between the locks it watches.
///
/// Cost model (why this stays always-on): an uncontended acquisition pays
/// one striped `fetch_add` plus (1/N of the time) two `Instant::now`
/// reads; a contended one was already paying a blocking wait, so its two
/// clock reads are noise.
pub struct LockSite {
    name: String,
    /// `hold_sample_every - 1`; sampling tests `tick & mask == 0`.
    hold_sample_mask: u64,
    acquisitions: StripedCounter,
    contended: StripedCounter,
    wait_nanos: StripedCounter,
    hold_nanos: StripedCounter,
}

impl fmt::Debug for LockSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockSite")
            .field("name", &self.name)
            .field("acquisitions", &self.acquisitions.get())
            .field("contended", &self.contended.get())
            .finish_non_exhaustive()
    }
}

impl LockSite {
    /// New site sampling hold times at the default [`HOLD_SAMPLE_EVERY`]
    /// rate.
    pub(crate) fn new(name: impl Into<String>) -> Arc<Self> {
        Self::with_hold_sampling(name, HOLD_SAMPLE_EVERY)
    }

    /// New site sampling hold times one-in-`every` (must be a power of
    /// two; `1` measures every acquisition — useful in tests).
    pub(crate) fn with_hold_sampling(name: impl Into<String>, every: u64) -> Arc<Self> {
        assert!(every.is_power_of_two(), "hold sampling rate must be 2^k");
        Arc::new(Self {
            name: name.into(),
            hold_sample_mask: every - 1,
            acquisitions: StripedCounter::new(),
            contended: StripedCounter::new(),
            wait_nanos: StripedCounter::new(),
            hold_nanos: StripedCounter::new(),
        })
    }

    /// Site name (the lock it labels, e.g. `pulsar.topics`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Acquire `mutex`, timing the wait when contended and the hold when
    /// sampled, then run `f` under the guard.
    #[inline]
    pub fn timed<T, R>(&self, mutex: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
        self.acquisitions.inc();
        let mut guard = match mutex.try_lock() {
            Some(g) => g,
            None => {
                // The clock starts only after we know we will block: the
                // uncontended fast path never reads a clock for waits.
                let t0 = Instant::now();
                let g = mutex.lock();
                self.contended.inc();
                self.wait_nanos.add(saturating_nanos(t0.elapsed()));
                g
            }
        };
        if hold_sampled(self.hold_sample_mask) {
            let t0 = Instant::now();
            let out = f(&mut guard);
            drop(guard);
            self.hold_nanos.add(saturating_nanos(t0.elapsed()));
            out
        } else {
            f(&mut guard)
        }
    }

    /// Point-in-time snapshot for reporting.
    pub fn snapshot(&self) -> LockSiteSnapshot {
        LockSiteSnapshot {
            name: self.name.clone(),
            acquisitions: self.acquisitions.get(),
            contended: self.contended.get(),
            wait_total: Duration::from_nanos(self.wait_nanos.get()),
            hold_sampled_total: Duration::from_nanos(self.hold_nanos.get()),
            hold_sample_every: self.hold_sample_mask + 1,
        }
    }
}

/// Snapshot of one [`LockSite`]'s counters and timers.
#[derive(Debug, Clone)]
pub struct LockSiteSnapshot {
    /// Site name.
    pub name: String,
    /// Total acquisitions (contended or not).
    pub acquisitions: u64,
    /// Acquisitions that failed `try_lock` and blocked.
    pub contended: u64,
    /// Total time spent blocked across all contended acquisitions.
    pub wait_total: Duration,
    /// Total hold time of the *sampled* acquisitions (multiply by
    /// `hold_sample_every` for an estimate of the true total; see
    /// [`LockSiteSnapshot::hold_total_estimate`]).
    pub(crate) hold_sampled_total: Duration,
    /// One acquisition in this many had its hold time measured.
    pub(crate) hold_sample_every: u64,
}

impl LockSiteSnapshot {
    /// Fraction of acquisitions that blocked, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }

    /// Estimated total hold time: sampled total scaled by the sampling
    /// rate.
    pub fn hold_total_estimate(&self) -> Duration {
        self.hold_sampled_total
            .saturating_mul(u32::try_from(self.hold_sample_every).unwrap_or(u32::MAX))
    }
}

#[derive(Default)]
struct ProfilerInner {
    sites: Mutex<Vec<Arc<LockSite>>>,
}

/// Registry of [`LockSite`]s across a process: subsystems create sites
/// here and acquire their profiled lock through them; reporting planes read
/// [`ContentionProfiler::snapshots`]. Cheap to clone (clones share the
/// registry).
#[derive(Clone, Default)]
pub struct ContentionProfiler {
    inner: Arc<ProfilerInner>,
}

impl fmt::Debug for ContentionProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContentionProfiler")
            .field("sites", &self.inner.sites.lock().len())
            .finish()
    }
}

impl ContentionProfiler {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a [`LockSite`] named `name` and register it.
    pub fn site(&self, name: impl Into<String>) -> Arc<LockSite> {
        let site = LockSite::new(name);
        self.inner.sites.lock().push(Arc::clone(&site));
        site
    }

    /// All registered sites.
    pub(crate) fn sites(&self) -> Vec<Arc<LockSite>> {
        self.inner.sites.lock().clone()
    }

    /// Name-sorted snapshots of every registered site.
    pub fn snapshots(&self) -> Vec<LockSiteSnapshot> {
        let mut out: Vec<_> = self.sites().iter().map(|s| s.snapshot()).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FnvHashMap;
    use std::sync::Arc;

    #[test]
    fn lock_site_counts_every_acquisition_path() {
        let m: Mutex<FnvHashMap<String, u64>> = Mutex::default();
        let site = LockSite::new("test.map");
        assert_eq!(site.name(), "test.map");

        site.timed(&m, |m| m.insert("a".to_string(), 1)); // 1
        site.timed(&m, |m| m.get("a").copied()); // 2
        site.timed(&m, |m| m.get_mut("a").map(|v| *v += 1)); // 3
        site.timed(&m, |m| m.remove("a")); // 4
                                           // A plain `lock()` bypasses the site and is not counted.
        assert!(m.lock().is_empty());
        let snap = site.snapshot();
        assert_eq!(snap.acquisitions, 4);
        assert_eq!(snap.contended, 0);
        assert_eq!(snap.wait_total, Duration::ZERO);
        assert_eq!(snap.contention_ratio(), 0.0);
    }

    #[test]
    fn contended_acquisitions_record_wait_time() {
        let m: Mutex<FnvHashMap<String, u64>> = Mutex::default();
        let site = LockSite::with_hold_sampling("hot", 1);
        // Each holder sleeps under the one lock; the others must block.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        site.timed(&m, |m| {
                            *m.entry("k".to_string()).or_insert(0) += 1;
                            std::thread::sleep(Duration::from_micros(50));
                        });
                    }
                });
            }
        });
        assert_eq!(site.timed(&m, |m| m.get("k").copied()), Some(200));
        let snap = site.snapshot();
        // 200 writer acquisitions + the final read.
        assert_eq!(snap.acquisitions, 201);
        assert!(snap.contended > 0, "4 threads on 1 lock must contend");
        assert!(snap.wait_total > Duration::ZERO);
        // Hold sampling at 1: every acquisition measured, and the holds
        // include the deliberate 50µs sleeps.
        assert!(snap.hold_sampled_total >= Duration::from_micros(50) * 200);
        assert!(snap.contention_ratio() > 0.0 && snap.contention_ratio() <= 1.0);
        // hold_sample_every == 1 → estimate equals the sampled total.
        assert_eq!(snap.hold_total_estimate(), snap.hold_sampled_total);
    }

    #[test]
    fn profiler_registry_snapshots_sites_by_name() {
        let prof = ContentionProfiler::new();
        let m: Mutex<FnvHashMap<String, u64>> = Mutex::default();
        let z = prof.site("z.site");
        prof.site("a.site"); // registered, never acquired
        assert_eq!(prof.sites().len(), 2);
        z.timed(&m, |m| m.insert("k".to_string(), 7));
        z.timed(&m, |m| m.get("k").copied());
        let snaps: Vec<_> = prof
            .snapshots()
            .into_iter()
            .map(|s| (s.name, s.acquisitions))
            .collect();
        assert_eq!(
            snaps,
            [("a.site".to_string(), 0), ("z.site".to_string(), 2)]
        );
    }

    #[test]
    fn striped_counter_folds_on_read() {
        let c = StripedCounter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn striped_counter_concurrent_total_is_exact() {
        let c = Arc::new(StripedCounter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
