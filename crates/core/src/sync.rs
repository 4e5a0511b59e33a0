//! Sharded concurrency primitives — the stack-wide answer to coarse locks.
//!
//! Le Taureau's forward-looking sections argue serverless data planes live
//! or die on contention at shared state: brokers, memory pools, metadata.
//! Before this module every hot path in the reproduction serialized behind
//! one `Mutex` per subsystem; a publish to topic A waited on a publish to
//! topic Z, and a KV put in one application's namespace waited on every
//! other tenant.
//!
//! Two primitives fix that:
//!
//! - [`ShardedMap`]: a striped-lock hash map. Keys pick one of N
//!   power-of-two shards by [`fnv`](crate::hash::fnv) of their bytes;
//!   operations lock only that shard, so disjoint keys proceed in
//!   parallel. Whole-map reads (`for_each`, `len`) lock shards one at a
//!   time — they see a consistent per-shard view, which is all the
//!   registry/report paths need.
//! - [`StripedCounter`]: a lock-free counter split across cache-padded
//!   cells. Each thread increments a cell picked by a thread-local stripe
//!   id (no CAS contention, no false sharing); reads fold all cells. This
//!   backs [`Counter`](crate::metrics::Counter), so hot-path
//!   `metrics.counter("x").inc()` never bounces a shared cache line.
//!
//! Read-mostly cells (an attached tracer, a topic's partition count, a
//! handle's object binding, the cluster's lease view) are plain
//! `RwLock`s and `OnceLock`s at their owners, read by copying the value
//! out; sealed ledger segments are immutable `Arc`s and need no cell.
//!
//! Shard count defaults to `DEFAULT_SHARDS` (16): enough stripes that 8
//! threads on disjoint keys collide with probability < ½ per op, small
//! enough that whole-map sweeps stay cheap. Callers with a known hot width
//! can override via [`ShardedMap::with_shards`].

use std::borrow::Borrow;
use std::cell::Cell;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::hash::{fnv, FnvBuildHasher, FnvHashMap};
use crate::id::LedgerId;
use crate::trace::TelemetrySink;

/// The table type inside each shard. FNV-hashed: shard keys are short,
/// trusted strings/ids, so the keyed SipHash the std `HashMap` defaults to
/// buys nothing and costs ~2x the whole probe on single-thread hot paths
/// (the e25 `jiffy_kv` regression). One FNV pass picks the stripe and the
/// same FNV core drives the in-table probe — no SipHash anywhere on the
/// lookup path.
pub(crate) type Shard<K, V> = FnvHashMap<K, V>;

/// Default shard count for [`ShardedMap`] (must be a power of two).
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// Number of cells in a [`StripedCounter`] (must be a power of two).
pub(crate) const COUNTER_STRIPES: usize = 16;

/// Types usable as sharding keys: anything that can hash itself to a
/// stable 64-bit stripe selector via [`fnv`].
pub trait ShardKey {
    /// Stable hash used to pick a shard. Must agree between a key and any
    /// borrowed form of it (`String` vs `str`), or lookups would search
    /// the wrong shard.
    fn shard_hash(&self) -> u64;
}

impl ShardKey for str {
    #[inline]
    fn shard_hash(&self) -> u64 {
        fnv(self.as_bytes())
    }
}

impl ShardKey for String {
    #[inline]
    fn shard_hash(&self) -> u64 {
        fnv(self.as_bytes())
    }
}

impl ShardKey for [u8] {
    #[inline]
    fn shard_hash(&self) -> u64 {
        fnv(self)
    }
}

impl ShardKey for Vec<u8> {
    #[inline]
    fn shard_hash(&self) -> u64 {
        fnv(self)
    }
}

impl ShardKey for u64 {
    #[inline]
    fn shard_hash(&self) -> u64 {
        fnv(&self.to_le_bytes())
    }
}

impl ShardKey for LedgerId {
    #[inline]
    fn shard_hash(&self) -> u64 {
        fnv(&self.raw().to_le_bytes())
    }
}

/// A striped-lock hash map: N independent `Mutex<HashMap>` shards, keyed
/// by [`ShardKey::shard_hash`]. Operations on keys in different shards
/// never contend.
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    mask: u64,
    /// Contention instrumentation, attached at most once per map (see
    /// [`ShardedMap::attach_profiler`]). Read with a single atomic load on
    /// the hot path; `None` (the default) costs exactly that one load.
    prof: OnceLock<Arc<LockSite>>,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<K, V> ShardedMap<K, V> {
    /// New map with `DEFAULT_SHARDS` shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// New map with at least `n` shards (rounded up to a power of two).
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Mutex::new(Shard::with_hasher(FnvBuildHasher)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            mask: (n - 1) as u64,
            prof: OnceLock::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Attach a contention [`LockSite`]: every subsequent keyed
    /// acquisition (`with`, `insert`, `remove`, `get_cloned`) reports
    /// wait/hold timings to it. Attach-once:
    /// returns `false` (and leaves the existing site) if a profiler is
    /// already attached. Whole-map sweeps (`for_each`, `len`, …) are
    /// report-time paths and stay untimed.
    pub fn attach_profiler(&self, site: Arc<LockSite>) -> bool {
        self.prof.set(site).is_ok()
    }

    /// The attached contention site, if any.
    pub fn profiler(&self) -> Option<&Arc<LockSite>> {
        self.prof.get()
    }

    /// Lock the shard owning `hash` and run `f` on it, routing through the
    /// attached [`LockSite`] when one is present. All keyed operations
    /// funnel here so instrumentation cannot miss an acquisition path.
    #[inline]
    fn run_locked<R>(&self, hash: u64, f: impl FnOnce(&mut Shard<K, V>) -> R) -> R {
        let idx = (hash & self.mask) as usize;
        let mutex = &self.shards[idx];
        if let Some(site) = self.prof.get() {
            return site.timed(idx, mutex, f);
        }
        let mut shard = mutex.lock();
        f(&mut shard)
    }

    /// Inline read fast path: `try_lock` the shard directly and run `f`
    /// on a shared view, falling into the fully timed slow path only when
    /// the shard is actually contended. Uncontended reads still count as
    /// acquisitions (the profiler's invariant) but skip hold sampling and
    /// the closure indirection of [`LockSite::timed`] — this is what
    /// closes the single-thread gap e25 measures on `get`-shaped ops.
    #[inline]
    fn read_locked<R>(&self, hash: u64, f: impl FnOnce(&Shard<K, V>) -> R) -> R {
        let idx = (hash & self.mask) as usize;
        let mutex = &self.shards[idx];
        if let Some(site) = self.prof.get() {
            if let Some(shard) = mutex.try_lock() {
                site.count_acquisition();
                return f(&shard);
            }
            return site.timed(idx, mutex, |s| f(s));
        }
        let shard = mutex.lock();
        f(&shard)
    }
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    /// Run `f` with exclusive access to the shard owning `key`. The
    /// closure receives the shard's whole map (so it can use the entry
    /// API for get-or-create); only that one shard is locked.
    /// The closure is monomorphized (never boxed), and the key is hashed
    /// exactly once here — the stripe index comes straight from that hash.
    #[inline]
    pub fn with<Q, R>(&self, key: &Q, f: impl FnOnce(&mut Shard<K, V>) -> R) -> R
    where
        K: Borrow<Q>,
        Q: ShardKey + ?Sized,
    {
        let hash = key.shard_hash();
        self.run_locked(hash, f)
    }

    /// Insert, returning the previous value.
    #[inline]
    pub fn insert(&self, key: K, value: V) -> Option<V>
    where
        K: ShardKey,
    {
        let hash = key.shard_hash();
        self.run_locked(hash, |shard| shard.insert(key, value))
    }

    /// Remove, returning the value if present.
    #[inline]
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ShardKey + Hash + Eq + ?Sized,
    {
        self.run_locked(key.shard_hash(), |shard| shard.remove(key))
    }

    /// Clone out the value for `key`, if present.
    #[inline]
    pub fn get_cloned<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ShardKey + Hash + Eq + ?Sized,
        V: Clone,
    {
        self.read_locked(key.shard_hash(), |shard| shard.get(key).cloned())
    }

    /// Run `f` with shared access to the shard owning `key`, through the
    /// inline read fast path (uncontended: one `try_lock`, no hold
    /// sampling). For read-only probes that need more than a clone.
    #[inline]
    pub fn read<Q, R>(&self, key: &Q, f: impl FnOnce(&Shard<K, V>) -> R) -> R
    where
        K: Borrow<Q>,
        Q: ShardKey + ?Sized,
    {
        self.read_locked(key.shard_hash(), f)
    }

    /// Total entries across all shards (locks shards one at a time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Remove every entry.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().clear();
        }
    }

    /// Visit every entry, one shard locked at a time.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in self.shards.iter() {
            let shard = s.lock();
            for (k, v) in shard.iter() {
                f(k, v);
            }
        }
    }

    /// Visit every entry mutably, one shard locked at a time.
    pub fn for_each_mut(&self, mut f: impl FnMut(&K, &mut V)) {
        for s in self.shards.iter() {
            let mut shard = s.lock();
            for (k, v) in shard.iter_mut() {
                f(k, v);
            }
        }
    }

    /// Keep only entries for which `f` returns true.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for s in self.shards.iter() {
            s.lock().retain(|k, v| f(k, v));
        }
    }

    /// Snapshot of all keys (unsorted — shard order, then map order).
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(s.lock().keys().cloned());
        }
        out
    }
}

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

/// This thread's stripe index (assigned round-robin on first use).
#[inline]
fn stripe_index() -> usize {
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
        self.cells[stripe_index() & (COUNTER_STRIPES - 1)]
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

/// Contention instrumentation for one named lock site (one [`ShardedMap`],
/// e.g. the broker's topic registry). Counts every acquisition, times
/// every *contended* wait (`try_lock` miss → clock → blocking `lock`), and
/// samples hold times one-in-`HOLD_SAMPLE_EVERY`. All recording is
/// lock-order-free: striped counters, per-shard padded atomics, and an
/// atomic histogram — the profiler can never introduce an ordering edge
/// between the locks it watches.
///
/// Cost model (why this stays always-on): an uncontended acquisition pays
/// one striped `fetch_add` plus (1/N of the time) two `Instant::now`
/// reads; a contended one was already paying a blocking wait, so its two
/// clock reads and histogram update are noise.
pub struct LockSite {
    name: String,
    /// Process-unique id (monotonic). Delta-flush baselines key on this,
    /// never on the (reusable) name or the (reusable) allocation address.
    id: u64,
    /// `hold_sample_every - 1`; sampling tests `tick & mask == 0`.
    hold_sample_mask: u64,
    acquisitions: StripedCounter,
    contended: StripedCounter,
    wait_nanos: StripedCounter,
    hold_nanos: StripedCounter,
    shard_wait: Box<[PaddedCell]>,
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
    /// New site covering `shards` stripes, sampling hold times at the
    /// default [`HOLD_SAMPLE_EVERY`] rate.
    pub(crate) fn new(name: impl Into<String>, shards: usize) -> Arc<Self> {
        Self::with_hold_sampling(name, shards, HOLD_SAMPLE_EVERY)
    }

    /// New site sampling hold times one-in-`every` (must be a power of
    /// two; `1` measures every acquisition — useful in tests).
    pub(crate) fn with_hold_sampling(
        name: impl Into<String>,
        shards: usize,
        every: u64,
    ) -> Arc<Self> {
        assert!(every.is_power_of_two(), "hold sampling rate must be 2^k");
        static NEXT_SITE_ID: AtomicU64 = AtomicU64::new(0);
        let shards = shards.max(1);
        let mk = |n: usize| {
            (0..n)
                .map(|_| PaddedCell::default())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        Arc::new(Self {
            name: name.into(),
            id: NEXT_SITE_ID.fetch_add(1, Ordering::Relaxed),
            hold_sample_mask: every - 1,
            acquisitions: StripedCounter::new(),
            contended: StripedCounter::new(),
            wait_nanos: StripedCounter::new(),
            hold_nanos: StripedCounter::new(),
            shard_wait: mk(shards),
        })
    }

    /// Site name (the call site it labels, e.g. `pulsar.topics`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Count one uncontended acquisition with no timing. Used by the
    /// inline read fast path ([`ShardedMap::read`]), which skips hold
    /// sampling entirely.
    #[inline]
    pub(crate) fn count_acquisition(&self) {
        self.acquisitions.inc();
    }

    /// Acquire `mutex` (stripe `shard` of this site), timing the wait when
    /// contended and the hold when sampled, then run `f` under the guard.
    #[inline]
    pub(crate) fn timed<T, R>(
        &self,
        shard: usize,
        mutex: &Mutex<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        self.acquisitions.inc();
        let mut guard = match mutex.try_lock() {
            Some(g) => g,
            None => {
                // The clock starts only after we know we will block: the
                // uncontended fast path never reads a clock for waits.
                let t0 = Instant::now();
                let g = mutex.lock();
                let waited = t0.elapsed();
                let ns = saturating_nanos(waited);
                self.contended.inc();
                self.wait_nanos.add(ns);
                if let Some(cell) = self.shard_wait.get(shard) {
                    cell.0.fetch_add(ns, Ordering::Relaxed);
                }
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
            shard_wait_nanos: self
                .shard_wait
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Snapshot of one [`LockSite`]'s counters, timers, and histograms.
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
    /// Per-shard blocked-wait nanoseconds (index = shard index).
    pub(crate) shard_wait_nanos: Vec<u64>,
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

    /// The shard with the most blocked-wait time, if any waiting happened.
    pub fn hottest_shard(&self) -> Option<(usize, Duration)> {
        self.shard_wait_nanos
            .iter()
            .enumerate()
            .max_by_key(|(_, ns)| **ns)
            .filter(|(_, ns)| **ns > 0)
            .map(|(i, ns)| (i, Duration::from_nanos(*ns)))
    }
}

#[derive(Default)]
struct ProfilerInner {
    sites: Mutex<Vec<Arc<LockSite>>>,
    /// Per-site `[acquisitions, contended, wait_nanos]` at the last
    /// [`ContentionProfiler::flush_to_sink`], so flushes emit deltas.
    /// Keyed by site *identity* (`LockSite::id`), not name: a site
    /// registered after flushing has begun — a restarted broker
    /// re-registering `pulsar.topics` — starts its counters at zero, and
    /// subtracting another same-named site's totals would swallow its
    /// deltas entirely.
    last_flush: Mutex<FnvHashMap<u64, [u64; 3]>>,
}

/// Registry of [`LockSite`]s across a process: subsystems create sites
/// here and attach them to their [`ShardedMap`]s; reporting planes read
/// [`ContentionProfiler::snapshots`] or ship deltas through a
/// [`TelemetrySink`]. Cheap to clone (clones share the registry).
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

    /// Create a [`LockSite`] named `name` covering `shards` stripes and
    /// register it.
    pub fn site(&self, name: impl Into<String>, shards: usize) -> Arc<LockSite> {
        let site = LockSite::new(name, shards);
        self.register(&site);
        site
    }

    /// Register an externally created site.
    pub(crate) fn register(&self, site: &Arc<LockSite>) {
        self.inner.sites.lock().push(Arc::clone(site));
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

    /// Push per-site counter *deltas* since the previous flush onto a
    /// telemetry sink as metric events (`lock.<site>.acquisitions`,
    /// `.contended`, `.wait_ns`). Returns the number of events pushed;
    /// zero-delta metrics are skipped, so an idle profiler ships nothing.
    pub fn flush_to_sink(&self, sink: &TelemetrySink) -> usize {
        let sites = self.sites();
        let mut last = self.inner.last_flush.lock();
        // Drop baselines for sites that have been dropped since the last
        // flush, so the identity map cannot grow without bound.
        let live: std::collections::HashSet<u64> = sites.iter().map(|s| s.id).collect();
        last.retain(|k, _| live.contains(k));
        let mut pushed = 0;
        for site in sites {
            let snap = [
                site.acquisitions.get(),
                site.contended.get(),
                site.wait_nanos.get(),
            ];
            let prev = last.entry(site.id).or_insert([0; 3]);
            for (i, suffix) in ["acquisitions", "contended", "wait_ns"]
                .into_iter()
                .enumerate()
            {
                let delta = snap[i].saturating_sub(prev[i]);
                if delta > 0 && sink.metric(&format!("lock.{}.{suffix}", site.name), delta) {
                    pushed += 1;
                }
            }
            *prev = snap;
        }
        pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn sharded_map_basics() {
        let m: ShardedMap<String, u32> = ShardedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a".to_string(), 1), None);
        assert_eq!(m.insert("a".to_string(), 2), Some(1));
        assert_eq!(m.get_cloned("a"), Some(2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove("a"), Some(2));
        assert_eq!(m.get_cloned("a"), None);
    }

    #[test]
    fn borrowed_and_owned_keys_agree_on_shard() {
        // String and &str must hash identically or get() after insert()
        // would look in the wrong shard.
        let m: ShardedMap<String, u32> = ShardedMap::with_shards(64);
        for i in 0..256 {
            m.insert(format!("key-{i}"), i);
        }
        for i in 0..256 {
            assert_eq!(m.get_cloned(format!("key-{i}").as_str()), Some(i));
        }
    }

    #[test]
    fn with_gives_entry_api_access() {
        let m: ShardedMap<String, Vec<u32>> = ShardedMap::new();
        for i in 0..10 {
            m.with("bucket", |shard| {
                shard.entry("bucket".to_string()).or_default().push(i)
            });
        }
        assert_eq!(m.get_cloned("bucket").unwrap().len(), 10);
    }

    #[test]
    fn for_each_and_retain_cover_all_shards() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shards(8);
        for i in 0..100u64 {
            m.insert(i, i * 2);
        }
        let mut sum = 0u64;
        m.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..100u64).map(|i| i * 2).sum());
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 50);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u64, ()> = ShardedMap::with_shards(10);
        assert_eq!(m.shard_count(), 16);
        let m: ShardedMap<u64, ()> = ShardedMap::with_shards(0);
        assert_eq!(m.shard_count(), 1);
    }

    #[test]
    fn concurrent_disjoint_writers_conserve_entries() {
        let m: Arc<ShardedMap<String, u64>> = Arc::new(ShardedMap::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500u64 {
                        m.insert(format!("t{t}-k{i}"), i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 8 * 500);
        let mut model = BTreeMap::new();
        m.for_each(|k, v| {
            model.insert(k.clone(), *v);
        });
        assert_eq!(model.len(), 8 * 500);
    }

    #[test]
    fn lock_site_counts_every_acquisition_path() {
        let m: ShardedMap<String, u64> = ShardedMap::new();
        let site = LockSite::new("test.map", m.shard_count());
        assert!(m.attach_profiler(Arc::clone(&site)));
        // Second attach is refused and leaves the first site in place.
        assert!(!m.attach_profiler(LockSite::new("other", m.shard_count())));
        assert_eq!(m.profiler().unwrap().name(), "test.map");

        m.insert("a".to_string(), 1); // 1
        m.with("a", |s| s.get("a").copied()); // 2
        m.get_cloned("a"); // 3
        m.remove("a"); // 4
        let snap = site.snapshot();
        assert_eq!(snap.acquisitions, 4);
        assert_eq!(snap.contended, 0);
        assert_eq!(snap.wait_total, Duration::ZERO);
        assert_eq!(snap.shard_wait_nanos.len(), m.shard_count());
        assert!(snap.hottest_shard().is_none());
        assert_eq!(snap.contention_ratio(), 0.0);
    }

    #[test]
    fn contended_acquisitions_record_wait_time() {
        let m: Arc<ShardedMap<String, u64>> = Arc::new(ShardedMap::with_shards(1));
        let site = LockSite::with_hold_sampling("hot", 1, 1);
        m.attach_profiler(Arc::clone(&site));
        // One thread camps on the only shard; others must block behind it.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..50 {
                        m.with("k", |shard| {
                            *shard.entry("k".to_string()).or_insert(0) += 1;
                            std::thread::sleep(Duration::from_micros(50));
                        });
                    }
                });
            }
        });
        assert_eq!(m.get_cloned("k"), Some(200));
        let snap = site.snapshot();
        // 200 writer acquisitions + the final read.
        assert_eq!(snap.acquisitions, 201);
        assert!(snap.contended > 0, "4 threads on 1 shard must contend");
        assert!(snap.wait_total > Duration::ZERO);
        // Hold sampling at 1: every *timed-path* acquisition measured, and
        // the holds include the deliberate 50µs sleeps. The final
        // uncontended `get_cloned` rode the inline read fast path, which
        // counts the acquisition but skips hold sampling by design.
        assert!(snap.hold_sampled_total >= Duration::from_micros(50) * 200);
        assert_eq!(snap.hottest_shard().unwrap().0, 0);
        assert!(snap.contention_ratio() > 0.0 && snap.contention_ratio() <= 1.0);
        // hold_sample_every == 1 → estimate equals the sampled total.
        assert_eq!(snap.hold_total_estimate(), snap.hold_sampled_total);
    }

    #[test]
    fn profiler_registry_snapshots_and_flushes_deltas() {
        use crate::trace::{TelemetryEvent, TelemetrySink};
        let prof = ContentionProfiler::new();
        let m: ShardedMap<String, u64> = ShardedMap::new();
        m.attach_profiler(prof.site("z.site", m.shard_count()));
        m.attach_profiler(prof.site("a.site", m.shard_count())); // refused
        assert_eq!(prof.sites().len(), 2);
        let names: Vec<_> = prof.snapshots().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a.site".to_string(), "z.site".to_string()]);

        m.insert("k".to_string(), 7);
        m.get_cloned("k");
        let sink = TelemetrySink::new(64);
        let pushed = prof.flush_to_sink(&sink);
        assert_eq!(pushed, 1, "only z.site.acquisitions moved");
        let events = sink.drain(16);
        match &events[0] {
            TelemetryEvent::Metric { name, delta } => {
                assert_eq!(name, "lock.z.site.acquisitions");
                assert_eq!(*delta, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Idle profiler ships nothing on the next flush.
        assert_eq!(prof.flush_to_sink(&sink), 0);
    }

    #[test]
    fn late_registered_site_still_flushes_deltas() {
        use crate::trace::{TelemetryEvent, TelemetrySink};
        let prof = ContentionProfiler::new();
        let sink = TelemetrySink::new(64);
        let m1: ShardedMap<String, u64> = ShardedMap::new();
        m1.attach_profiler(prof.site("dup.site", m1.shard_count()));
        m1.insert("k".to_string(), 1);
        assert!(prof.flush_to_sink(&sink) > 0);
        sink.drain(64);
        // A second site registers under the SAME name after flushing has
        // begun (a restarted broker re-attaching). Its counters start at
        // zero; the old name-keyed baseline would swallow them.
        let m2: ShardedMap<String, u64> = ShardedMap::new();
        m2.attach_profiler(prof.site("dup.site", m2.shard_count()));
        m2.insert("k".to_string(), 2);
        m2.get_cloned("k");
        let pushed = prof.flush_to_sink(&sink);
        assert!(pushed > 0, "late-registered site's deltas were swallowed");
        let events = sink.drain(64);
        let total: u64 = events
            .iter()
            .map(|e| match e {
                TelemetryEvent::Metric { name, delta } if name == "lock.dup.site.acquisitions" => {
                    *delta
                }
                _ => 0,
            })
            .sum();
        assert_eq!(total, 2, "expected exactly the new site's 2 acquisitions");
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
