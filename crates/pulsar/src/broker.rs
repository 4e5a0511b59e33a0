//! Brokers, topics, producers, consumers and subscriptions.
//!
//! §4.3: "The Pulsar broker is a stateless component … receiving and
//! dispatching messages while using bookie as durable storage for messages
//! until they are consumed." Everything durable here — topic configuration,
//! segment lists, subscription cursors — lives in the metadata store and
//! the ledgers; the in-memory broker state can be thrown away and rebuilt
//! ([`PulsarCluster::restart_broker`] does exactly that, and the tests
//! verify no message is lost).
//!
//! Topics are partitioned ("Pulsar supports partitioned topics in order to
//! scale to large data volumes"); producers route by key hash or
//! round-robin; subscriptions come in Pulsar's three classic modes
//! ([`SubscriptionMode`]). Message storage rolls over ledger segments at a
//! configurable size, and a bookie failure mid-stream triggers rollover to
//! a fresh ledger on a healthy ensemble.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::{BufMut, Bytes};
use parking_lot::{Mutex, RwLock};
use taureau_core::clock::{SharedClock, WallClock};
use taureau_core::hash::{hash64, FnvHashMap};
use taureau_core::id::LedgerId;
use taureau_core::metrics::{Counter, MetricsRegistry};
use taureau_core::sync::{ContentionProfiler, LockSite};
use taureau_core::trace::Tracer;

use crate::bookie::Bookie;
use crate::entry::{self, Cached, ParsedEntry};
use crate::error::{PulsarError, Result};
use crate::ledger::{BookKeeper, LedgerConfig, LedgerWriter};
use crate::message::{EntryView, Message, MessageId};
use crate::metadata::{put_cursor, put_mode, put_segments, MetadataStore};
use crate::metadata::{read_cursor, read_mode, read_segments};

mod cursor;

use cursor::{AckUnit, Log, SubState};

const ROUTE_SEED: u64 = 0x52_4f55_5445; // "ROUTE"

/// Subsystem label stamped on every span this crate records.
const TRACE_SYSTEM: &str = "taureau-pulsar";

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct PulsarConfig {
    /// Number of bookies (storage nodes).
    pub bookies: usize,
    /// Replication parameters for ledgers.
    pub ledger: LedgerConfig,
    /// Entries per ledger before rolling over to a new segment.
    pub max_entries_per_ledger: u64,
}

impl Default for PulsarConfig {
    fn default() -> Self {
        Self {
            bookies: 3,
            ledger: LedgerConfig::default(),
            max_entries_per_ledger: 1024,
        }
    }
}

/// Pulsar's subscription modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionMode {
    /// One consumer only; a second attach is rejected.
    Exclusive,
    /// Messages are distributed across consumers (work-queue semantics).
    Shared,
    /// Many consumers attach, only the first (the active one) receives;
    /// on its detach the next takes over.
    Failover,
}

struct Partition {
    /// Ledger segments, oldest first. The last may be open.
    segments: Vec<LedgerId>,
    /// Open writer, if any.
    writer: Option<LedgerWriter>,
    /// Open-segment entry cache. Mirrors the open writer exactly — entry
    /// `i` of the open ledger is `tail[i]` (writers are only ever created
    /// empty by this broker, and every successful append pushes here) —
    /// so tail dispatch reads touch no bookie and no ledger-map lock.
    /// Entries are held parsed ([`ParsedEntry`]): the publish that
    /// appended an entry is also the one time its framing is validated.
    tail: Vec<Cached>,
    /// Immutable snapshots of sealed (closed) segments, built whole — and
    /// parsed, once — on first read, or inherited from `tail` at rollover,
    /// and shared by refcount thereafter. Sealed ledgers never change, so
    /// neither the bytes nor what was derived from them ever invalidate;
    /// snapshots are evicted on trim and on cold-tier offload.
    sealed: HashMap<LedgerId, Arc<Vec<Cached>>>,
}

impl Partition {
    fn new(segments: Vec<LedgerId>) -> Self {
        Self {
            segments,
            writer: None,
            tail: Vec::new(),
            sealed: HashMap::new(),
        }
    }

    /// Whether `lid` is the segment the open writer is appending to.
    fn is_open(&self, lid: LedgerId) -> bool {
        self.writer.as_ref().is_some_and(|w| w.id() == lid)
    }

    /// The in-memory entries of segment `lid`: the tail when it is the
    /// open segment (checked first — the steady-state consumer reads what
    /// was just published — and authoritative: a still-growing ledger must
    /// never be frozen into the sealed map), else its sealed snapshot if
    /// one has been built.
    fn cached(&self, lid: LedgerId) -> Option<&[Cached]> {
        if self.is_open(lid) {
            return Some(&self.tail);
        }
        self.sealed.get(&lid).map(|seg| seg.as_slice())
    }

    /// Move the open-segment tail cache into the sealed map under the
    /// just-closed ledger's id: the entries are already in memory, so the
    /// segment keeps serving reads without ever touching the bookies.
    fn seal_tail(&mut self, lid: LedgerId) {
        let tail = std::mem::take(&mut self.tail);
        self.sealed.insert(lid, Arc::new(tail));
    }
}

struct Topic {
    partitions: Vec<Partition>,
    subs: HashMap<String, SubState>,
    /// Round-robin counter for key-less producers.
    rr: u64,
}

impl Topic {
    /// The subscription `subscription` of this topic (named `topic`)
    /// beside the log its cursor reads, profiled when `prof` is set: the
    /// one lookup dispatch, ack and redelivery start from.
    fn cursor<'a>(
        &'a mut self,
        inner: &'a ClusterInner,
        topic: &str,
        subscription: &str,
        prof: bool,
    ) -> Result<(&'a mut SubState, Stored<'a>)> {
        let sub = self
            .subs
            .get_mut(subscription)
            .ok_or_else(|| PulsarError::TopicNotFound(format!("{topic}:{subscription}")))?;
        let log = Stored {
            inner,
            parts: &mut self.partitions,
            prof,
            read_ns: 0,
        };
        Ok((sub, log))
    }
}

/// Ownership check installed by a cluster layer: returns `true` while this
/// broker instance may serve the named topic. Consulted on every publish,
/// dispatch, ack, and subscribe, so a broker deposed by a newer ownership
/// epoch fails fast with [`PulsarError::Fenced`] instead of serving (or
/// corrupting) state it no longer owns.
pub(crate) type FenceCheck = Arc<dyn Fn(&str) -> bool + Send + Sync>;

struct ClusterInner {
    clock: SharedClock,
    cfg: PulsarConfig,
    bk: BookKeeper,
    bookies: Arc<Vec<Arc<Bookie>>>,
    meta: Arc<MetadataStore>,
    /// Topic-ownership fence installed by the cluster layer (standalone
    /// brokers leave it unset and serve everything). Set at most once per
    /// broker; consulted on every publish/dispatch/ack with one load.
    fence_check: OnceLock<FenceCheck>,
    /// Broker-side topic state, one map behind one lock. Lock ordering:
    /// topics → metadata → tier mutex. Nothing under the topics
    /// lock takes it again, and consumer code never runs under it.
    topics: Mutex<FnvHashMap<String, Topic>>,
    /// Contention site of `topics`, attached at most once by
    /// [`PulsarCluster::enable_contention_profiling`]; unattached, a topic
    /// operation pays this one load and a plain `lock()`.
    topics_site: OnceLock<Arc<LockSite>>,
    /// Topic partition counts: immutable after `create_topic`, so lookups
    /// (producer attach, subscribe, cluster routing) never touch the
    /// metadata store after the first resolution.
    parts_cache: RwLock<HashMap<String, u32>>,
    metrics: MetricsRegistry,
    /// Hot-path counters resolved once — no name lookup per message.
    c_published: Arc<Counter>,
    c_delivered: Arc<Counter>,
    tracer: RwLock<Tracer>,
    /// Mirror of `tracer.is_enabled()`, stored under the write lock: when
    /// off, [`PulsarCluster::tracer`] is one load and takes no lock.
    tracer_on: AtomicBool,
    next_consumer: AtomicU64,
    /// When set, the dispatch scan attributes its wall time across
    /// dispatch phases (lock acquisition, cursor bookkeeping, entry reads,
    /// view stamping) into the metrics registry. One relaxed load per scan
    /// when off; see [`PulsarCluster::set_dispatch_profiling`].
    dispatch_prof: AtomicBool,
    /// Optional cold tier for sealed segments (§4.3 "tiered storage").
    tier: Mutex<Option<crate::tiering::TierBackend>>,
}

/// Snapshot of dispatch-phase attribution: cumulative nanosecond totals
/// per phase since the cluster was created (counters only advance while
/// [`PulsarCluster::set_dispatch_profiling`] is on). `wall_ns` covers the
/// whole dispatch scan — the one every receive method runs, up to the
/// views it returns; materializing [`Message`]s from them is the
/// consumer's work and not counted. The four phases are measured
/// directly against the same clock, so `wall_ns - explained_ns()` is the
/// honest unattributed remainder (loop control, span bookkeeping, closure
/// entry/exit) — it is *not* forced to zero by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchProfile {
    /// Dispatch scans profiled.
    pub(crate) scans: u64,
    /// Messages delivered by profiled scans.
    pub(crate) messages: u64,
    /// Total wall time of profiled scans.
    pub wall_ns: u64,
    /// Topic lock acquisition: entering the topic map (lock wait, hash,
    /// lazy topic rebuild). Cross-check against the `pulsar.topics`
    /// [`LockSite`] wait total for the blocked component alone.
    pub lock_ns: u64,
    /// Cursor bookkeeping: read-position advance, acked-set and
    /// mark-delete skip checks, partial-batch resume, segment resolution,
    /// the pending queue — the subscription-scan state machine — and the
    /// clone of each already-parsed entry out of the read caches, which
    /// is a refcount bump too small to time on its own.
    pub cursor_ns: u64,
    /// Ledger entry reads: filling a sealed segment's snapshot from the
    /// bookies or the cold tier, including the one-time peel and parse of
    /// every entry in it. Zero while a scan stays inside the caches.
    pub read_ns: u64,
    /// Decode: stamping each collected view with its trace context, in
    /// the out-of-lock phase. Batch framing is not parsed by a scan: that
    /// happens once, where the read caches are filled.
    pub decode_ns: u64,
    /// Always 0: a scan runs no consumer code. Kept so that readers of
    /// the five-phase profile still build.
    pub deliver_ns: u64,
}

impl DispatchProfile {
    /// Named phases, in pipeline order.
    #[cfg(test)]
    pub(crate) fn phases(&self) -> [(&'static str, u64); 4] {
        [
            ("topic_lock", self.lock_ns),
            ("cursor_bookkeeping", self.cursor_ns),
            ("entry_read", self.read_ns),
            ("decode", self.decode_ns),
        ]
    }

    /// Sum of the directly measured phases.
    #[cfg(test)]
    pub(crate) fn explained_ns(&self) -> u64 {
        self.phases().iter().map(|(_, ns)| ns).sum()
    }

    /// The most expensive phase — the dispatch-side bottleneck.
    #[cfg(test)]
    pub(crate) fn top_phase(&self) -> (&'static str, u64) {
        self.phases()
            .into_iter()
            .max_by_key(|(_, ns)| *ns)
            .unwrap_or(("none", 0))
    }
}

/// Nanoseconds since `start`; 0 when profiling is off (no `start`, and no
/// clock read).
fn nanos_since(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Per-scan phase accumulators, flushed to the metrics registry once per
/// dispatch scan (striped-counter adds; no per-message registry lookups).
#[derive(Default)]
struct DispatchAcc {
    lock_ns: u64,
    cursor_ns: u64,
    read_ns: u64,
    decode_ns: u64,
}

/// A topic's storage as its cursors read it: the partitions' segment
/// lists and read caches, and behind them the bookies and the cold tier.
/// Loading a sealed segment is the one storage read, and it is timed into
/// `read_ns` when profiling is on.
struct Stored<'a> {
    inner: &'a ClusterInner,
    parts: &'a mut [Partition],
    prof: bool,
    read_ns: u64,
}

impl Log for Stored<'_> {
    fn segments(&self, p: usize) -> &[LedgerId] {
        &self.parts[p].segments
    }

    fn cached(&self, p: usize, lid: LedgerId) -> Option<&[Cached]> {
        self.parts[p].cached(lid)
    }

    fn stored_len(&self, _p: usize, lid: LedgerId) -> u64 {
        PulsarCluster::stored_len(self.inner, lid)
    }

    fn load(&mut self, p: usize, lid: LedgerId) -> Result<()> {
        let start = self.prof.then(Instant::now);
        let built = PulsarCluster::build_sealed(self.inner, lid);
        self.read_ns += nanos_since(start);
        self.parts[p].sealed.insert(lid, built?);
        Ok(())
    }
}

/// A Pulsar cluster: brokers + bookies + metadata, in process.
///
/// Cheap to clone; clones share the cluster.
#[derive(Clone)]
pub struct PulsarCluster {
    inner: Arc<ClusterInner>,
}

impl PulsarCluster {
    /// Create a cluster with the given config on the given clock.
    pub fn new(cfg: PulsarConfig, clock: SharedClock) -> Self {
        let bookies: Arc<Vec<Arc<Bookie>>> =
            Arc::new((0..cfg.bookies).map(|_| Arc::new(Bookie::new())).collect());
        let meta = Arc::new(MetadataStore::new());
        Self::with_shared(cfg, clock, bookies, meta)
    }

    /// Create a broker instance over *shared* bookies and metadata.
    ///
    /// This is the multi-broker entry point: each simulated broker node
    /// gets its own `PulsarCluster` (its own in-memory topic state), while
    /// the bookie fleet and the metadata store are shared — exactly the
    /// stateless-broker split of §4.3. A topic's surviving state after a
    /// broker death is whatever lives in the shared layers, which is what
    /// the new owner's lazy `load_topic` rebuilds from.
    pub fn with_shared(
        cfg: PulsarConfig,
        clock: SharedClock,
        bookies: Arc<Vec<Arc<Bookie>>>,
        meta: Arc<MetadataStore>,
    ) -> Self {
        let bk = BookKeeper::new(bookies.clone(), meta.clone());
        let metrics = MetricsRegistry::new();
        let c_published = metrics.counter("messages_published");
        let c_delivered = metrics.counter("messages_delivered");
        Self {
            inner: Arc::new(ClusterInner {
                clock,
                cfg,
                bk,
                bookies,
                meta,
                fence_check: OnceLock::new(),
                topics: Mutex::default(),
                topics_site: OnceLock::new(),
                parts_cache: RwLock::new(HashMap::new()),
                metrics,
                c_published,
                c_delivered,
                tracer: RwLock::new(Tracer::disabled()),
                tracer_on: AtomicBool::new(false),
                next_consumer: AtomicU64::new(0),
                dispatch_prof: AtomicBool::new(false),
                tier: Mutex::new(None),
            }),
        }
    }

    /// Install a topic-ownership fence (see `FenceCheck`). The cluster
    /// layer points this at its epoch-fenced lease table; operations on
    /// topics the check rejects fail with [`PulsarError::Fenced`].
    /// Install-once: a broker's fence is part of its identity, so a second
    /// call is refused — it returns `false` and the first check stays.
    pub fn set_fence_check(&self, check: FenceCheck) -> bool {
        self.inner.fence_check.set(check).is_ok()
    }

    /// Shared metadata store (cluster layer + tests).
    #[cfg(test)]
    pub(crate) fn metadata(&self) -> &Arc<MetadataStore> {
        &self.inner.meta
    }

    fn check_fence(&self, topic: &str) -> Result<()> {
        // The hook may consult the cluster control plane, which must not
        // nest inside broker locks: reading the cell takes none.
        if let Some(check) = self.inner.fence_check.get() {
            if !check(topic) {
                self.inner.metrics.counter("fenced_rejections").inc();
                return Err(PulsarError::Fenced(topic.to_string()));
            }
        }
        Ok(())
    }

    /// Default 3-bookie cluster on a wall clock.
    pub fn with_defaults() -> Self {
        Self::new(PulsarConfig::default(), WallClock::shared())
    }

    /// The cluster's bookies (for failure injection in tests/benches).
    pub fn bookies(&self) -> &[Arc<Bookie>] {
        &self.inner.bookies
    }

    /// Metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Attach a tracer; publish and dispatch paths record spans on it.
    pub fn set_tracer(&self, tracer: Tracer) {
        let mut cell = self.inner.tracer.write();
        self.inner
            .tracer_on
            .store(tracer.is_enabled(), Ordering::Release);
        *cell = tracer;
    }

    /// The attached tracer (disabled unless [`PulsarCluster::set_tracer`]
    /// was called). A copy: a disabled tracer is `None`, an enabled one
    /// shares its span buffer, and no lock outlives this call.
    pub fn tracer(&self) -> Tracer {
        if !self.inner.tracer_on.load(Ordering::Acquire) {
            return Tracer::disabled();
        }
        self.inner.tracer.read().clone()
    }

    /// Direct BookKeeper access (used by benches).
    #[cfg(test)]
    pub(crate) fn bookkeeper(&self) -> &BookKeeper {
        &self.inner.bk
    }

    /// Attach a contention [`LockSite`] named `pulsar.topics` to the
    /// broker's topic lock and register it with `prof`: every topic
    /// operation (publish, dispatch, ack, cursor and subscription
    /// maintenance) then reports its wait/hold timings. Idempotent: a
    /// second call returns the already-attached site.
    pub fn enable_contention_profiling(&self, prof: &ContentionProfiler) -> Arc<LockSite> {
        Arc::clone(
            self.inner
                .topics_site
                .get_or_init(|| prof.site("pulsar.topics")),
        )
    }

    /// Toggle dispatch-phase attribution: when on, every dispatch scan
    /// splits its wall time into `pulsar.dispatch.*_ns` counters (wall,
    /// lock acquisition, cursor bookkeeping, entry read, decode)
    /// readable from [`PulsarCluster::metrics`] and summarized by
    /// [`PulsarCluster::dispatch_profile`]. While on, costs six clock
    /// reads per scan and two per sealed segment it loads; one relaxed
    /// atomic load per scan while off.
    pub fn set_dispatch_profiling(&self, on: bool) {
        self.inner.dispatch_prof.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the dispatch-phase attribution counters.
    pub fn dispatch_profile(&self) -> DispatchProfile {
        let c = |name: &str| self.inner.metrics.counter(name).get();
        DispatchProfile {
            scans: c("pulsar.dispatch.scans"),
            messages: c("pulsar.dispatch.messages"),
            wall_ns: c("pulsar.dispatch.wall_ns"),
            lock_ns: c("pulsar.dispatch.lock_ns"),
            cursor_ns: c("pulsar.dispatch.cursor_ns"),
            read_ns: c("pulsar.dispatch.read_ns"),
            decode_ns: c("pulsar.dispatch.decode_ns"),
            deliver_ns: 0,
        }
    }

    /// Configure a cold tier: sealed segments can now be offloaded to the
    /// blob store and read back transparently (§4.3 "tiered storage").
    pub fn enable_tiering(&self, blob: std::sync::Arc<taureau_baas::BlobStore>, bucket: &str) {
        *self.inner.tier.lock() = Some(crate::tiering::TierBackend::new(blob, bucket));
    }

    /// Offload every sealed (non-open) segment of a topic to the cold
    /// tier, freeing the bookies. Returns segments offloaded.
    ///
    /// # Errors
    /// [`PulsarError::TopicNotFound`] for unknown topics. Calling without
    /// [`PulsarCluster::enable_tiering`] is a no-op returning 0.
    pub fn offload_sealed(&self, topic: &str) -> Result<usize> {
        let tier = self.inner.tier.lock().clone();
        let Some(tier) = tier else {
            return Ok(0);
        };
        self.with_topic(topic, |inner, t| {
            let mut offloaded = 0;
            for part in &mut t.partitions {
                for i in 0..part.segments.len() {
                    let lid = part.segments[i];
                    // Skip the open segment and anything already offloaded.
                    if part.is_open(lid) {
                        continue;
                    }
                    if tier.offloaded_len(&inner.meta, lid).is_some() {
                        continue;
                    }
                    let Ok(Some(last)) = inner.bk.last_entry(lid) else {
                        // Empty sealed segment: record as zero entries.
                        if inner.bk.ledger_meta(lid).is_ok() {
                            tier.store_segment(&inner.meta, lid, &[])?;
                            let _ = inner.bk.delete_ledger(lid);
                            part.sealed.remove(&lid);
                            offloaded += 1;
                        }
                        continue;
                    };
                    tier.store_segment(&inner.meta, lid, &inner.bk.read_through(lid, last)?)?;
                    inner.bk.delete_ledger(lid)?;
                    // Evict the in-memory snapshot: reads of an offloaded
                    // segment must pay the cold tier (and its metrics)
                    // honestly, not an accidental hot copy.
                    part.sealed.remove(&lid);
                    inner.metrics.counter("segments_offloaded").inc();
                    offloaded += 1;
                }
            }
            Ok(offloaded)
        })
    }

    /// Create a topic with `partitions` partitions.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<()> {
        assert!(partitions >= 1);
        let key = format!("/topics/{name}");
        self.inner
            .meta
            .create(&key, |out| out.put_u32_le(partitions))
            .map_err(|_| PulsarError::TopicExists(name.to_string()))?;
        for p in 0..partitions {
            self.inner
                .meta
                .write(&format!("/topics/{name}/{p}/segments"), |_| {});
        }
        self.inner.topics.lock().insert(
            name.to_string(),
            Topic {
                partitions: (0..partitions)
                    .map(|_| Partition::new(Vec::new()))
                    .collect(),
                subs: HashMap::new(),
                rr: 0,
            },
        );
        self.publish_partition_count(name, partitions);
        Ok(())
    }

    /// Remember a topic's (immutable) partition count.
    fn publish_partition_count(&self, topic: &str, n: u32) {
        self.inner.parts_cache.write().insert(topic.to_string(), n);
    }

    /// Number of partitions of a topic. Counts are immutable after
    /// [`PulsarCluster::create_topic`], so after the first resolution a
    /// lookup is one map probe under a read lock.
    pub fn partitions(&self, topic: &str) -> Result<u32> {
        let cached = self.inner.parts_cache.read().get(topic).copied();
        if let Some(n) = cached {
            return Ok(n);
        }
        let n = Self::stored_partitions(&self.inner, topic)?;
        self.publish_partition_count(topic, n);
        Ok(n)
    }

    /// A topic's partition count as the metadata store holds it.
    fn stored_partitions(inner: &ClusterInner, topic: &str) -> Result<u32> {
        inner
            .meta
            .read(&format!("/topics/{topic}"), |r| r.u32())
            .ok_or_else(|| PulsarError::TopicNotFound(topic.to_string()))
    }

    /// Attach a producer to a topic.
    pub fn producer(&self, topic: &str) -> Result<Producer> {
        self.partitions(topic)?;
        Ok(Producer {
            cluster: self.clone(),
            topic: topic.to_string(),
        })
    }

    /// Attach a consumer under a named subscription, creating the
    /// subscription at the topic's current *beginning* if new.
    pub fn subscribe(
        &self,
        topic: &str,
        subscription: &str,
        mode: SubscriptionMode,
    ) -> Result<Consumer> {
        self.check_fence(topic)?;
        let nparts = self.partitions(topic)? as usize;
        let cid = self.with_topic(topic, |inner, t| {
            let sub = t
                .subs
                .entry(subscription.to_string())
                .or_insert_with(|| SubState::new(topic, subscription, mode, nparts, |_| None));
            if sub.mode == SubscriptionMode::Exclusive && !sub.consumers.is_empty() {
                return Err(PulsarError::ExclusiveSubscriptionBusy(
                    subscription.to_string(),
                ));
            }
            let cid = inner.next_consumer.fetch_add(1, Ordering::Relaxed);
            sub.consumers.push(cid);
            // Persist subscription existence for broker restarts.
            let key = format!("/topics/{topic}/subs/{subscription}");
            inner.meta.write(&key, |out| put_mode(out, mode));
            Ok(cid)
        })?;
        Ok(Consumer {
            cluster: self.clone(),
            topic: topic.to_string(),
            subscription: subscription.to_string(),
            id: cid,
            rr_part: 0,
            scratch: Vec::new(),
        })
    }

    // -- internals ----------------------------------------------------------

    /// Run `f` on the topic map under its lock, timed through the
    /// attached [`LockSite`] if there is one.
    #[inline]
    fn lock_topics<R>(
        inner: &ClusterInner,
        f: impl FnOnce(&mut FnvHashMap<String, Topic>) -> R,
    ) -> R {
        match inner.topics_site.get() {
            Some(site) => site.timed(&inner.topics, f),
            None => f(&mut inner.topics.lock()),
        }
    }

    /// Run `f` with the topic's broker-side state, holding the topic lock.
    /// Rebuilds the state from metadata if it is not loaded (stateless
    /// broker); the rebuild happens inside the lock so concurrent callers
    /// see it exactly once.
    fn with_topic<R>(
        &self,
        name: &str,
        f: impl FnOnce(&ClusterInner, &mut Topic) -> Result<R>,
    ) -> Result<R> {
        let inner = &*self.inner;
        Self::lock_topics(inner, |topics| {
            if let Some(t) = topics.get_mut(name) {
                return f(inner, t);
            }
            let t = Self::load_topic(inner, name)?;
            f(inner, topics.entry(name.to_string()).or_insert(t))
        })
    }

    /// Rebuild broker-side state for a topic from metadata (stateless
    /// broker). Touches only the metadata store and bookies — never the
    /// topic map it is called under.
    fn load_topic(inner: &ClusterInner, name: &str) -> Result<Topic> {
        let nparts = Self::stored_partitions(inner, name)?;
        let mut partitions = Vec::with_capacity(nparts as usize);
        for p in 0..nparts {
            let key = format!("/topics/{name}/{p}/segments");
            let segs = inner.meta.read(&key, read_segments).unwrap_or_default();
            // Any open tail segment belongs to a dead broker: fence it.
            if let Some(&last) = segs.last() {
                let _ = inner.bk.recover_and_close(last);
            }
            partitions.push(Partition::new(segs));
        }
        let mut subs = HashMap::new();
        for key in inner.meta.list_prefix(&format!("/topics/{name}/subs/")) {
            let sub_name = key.rsplit('/').next().unwrap_or_default().to_string();
            let mode = inner.meta.read(&key, read_mode);
            let mode = mode.unwrap_or(SubscriptionMode::Shared);
            // Restore the cursors from their persisted mark-deletes.
            let sub = SubState::new(name, &sub_name, mode, nparts as usize, |key| {
                inner.meta.read(key, read_cursor)
            });
            subs.insert(sub_name, sub);
        }
        Ok(Topic {
            partitions,
            subs,
            rr: 0,
        })
    }

    /// Drop all in-memory broker state; the next operation rebuilds it from
    /// metadata + ledgers. Models a broker restart — the statelessness
    /// claim of §4.3.
    pub fn restart_broker(&self) {
        self.inner.topics.lock().clear();
    }

    /// Drop one topic's in-memory state (its ownership moved to another
    /// broker). The next local operation — if the fence readmits it —
    /// rebuilds from shared metadata, same as after
    /// [`PulsarCluster::restart_broker`].
    pub fn unload_topic(&self, name: &str) {
        self.inner.topics.lock().remove(name);
    }

    fn persist_segments(inner: &ClusterInner, topic: &str, p: usize, part: &Partition) {
        let key = format!("/topics/{topic}/{p}/segments");
        inner
            .meta
            .write(&key, |out| put_segments(out, &part.segments));
    }

    /// Append one encoded entry to the partition's open ledger, with up to
    /// one rollover retry on quorum failure. The entry buffer is
    /// refcounted ([`Bytes`]) — the writer hands the *same* allocation to
    /// every replica in the write quorum (and to the retry), so a publish
    /// copies payload bytes exactly once, at encode time.
    fn append_with_rollover(
        inner: &ClusterInner,
        tracer: &Tracer,
        topic: &str,
        p: usize,
        part: &mut Partition,
        entry_bytes: &Bytes,
    ) -> Result<(LedgerId, u64)> {
        for attempt in 0..2 {
            // Open a writer if needed, rolling over at the segment cap.
            let need_new = match &part.writer {
                None => true,
                Some(w) => w.len() >= inner.cfg.max_entries_per_ledger,
            };
            if need_new {
                if let Some(mut w) = part.writer.take() {
                    let _ = w.close();
                    part.seal_tail(w.id());
                }
                let w = inner.bk.create_ledger(inner.cfg.ledger)?;
                part.segments.push(w.id());
                Self::persist_segments(inner, topic, p, part);
                part.writer = Some(w);
            }
            let w = part.writer.as_mut().expect("writer just ensured");
            let wid = w.id();
            let mut append_span = tracer.span(TRACE_SYSTEM, "pulsar.bookie_append");
            append_span.attr("ledger", wid.raw());
            append_span.attr("attempt", attempt);
            let appended = w.append(entry_bytes.clone());
            drop(append_span);
            match appended {
                Ok(entry) => {
                    // Keep the tail cache an exact mirror of the open
                    // ledger: dispatch serves this entry from memory.
                    part.tail.push(ParsedEntry::parse(entry_bytes));
                    return Ok((wid, entry));
                }
                Err(PulsarError::QuorumUnavailable { .. }) => {
                    // Seal the wounded ledger and roll over to a fresh
                    // ensemble on the retry. The tail (successful appends
                    // only) becomes the sealed snapshot.
                    let mut w = part.writer.take().expect("writer present");
                    let _ = w.close();
                    part.seal_tail(wid);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(PulsarError::QuorumUnavailable {
            needed: inner.cfg.ledger.ack_quorum,
            got: 0,
        })
    }

    /// Publish `payloads` as one group-committed ledger entry (producer
    /// batching, §4.3): one encode, one replicated append for the whole
    /// call — the per-entry costs that dominate small-message publishing
    /// are paid once and amortized over N. A keyed call routes by the
    /// hash of its key, the rest round-robin over partitions; the whole
    /// entry lands on one partition. Returns the first message's id; the
    /// others follow it at batch indices `1..n` (a single message is
    /// `0 of 1`). `payloads` is not empty.
    fn publish<T: AsRef<[u8]>>(
        &self,
        topic: &str,
        key: Option<&[u8]>,
        payloads: &[T],
    ) -> Result<MessageId> {
        debug_assert!(!payloads.is_empty(), "an entry holds a message");
        self.check_fence(topic)?;
        let tracer = self.tracer();
        // One message is `pulsar.publish` with its payload's size; more are
        // `pulsar.publish_batch` with their count, and the entry's size
        // once it is encoded.
        let batch = payloads.len() > 1;
        let name = if batch {
            "pulsar.publish_batch"
        } else {
            "pulsar.publish"
        };
        let mut span = tracer.span(TRACE_SYSTEM, name);
        span.attr("topic", topic);
        if batch {
            span.attr("messages", payloads.len());
        } else {
            span.attr("bytes", payloads[0].as_ref().len());
        }
        let now = self.inner.clock.now();
        // Append under the topic lock.
        let result = self.with_topic(topic, |inner, t| {
            let nparts = t.partitions.len();
            let p = match key {
                Some(k) => (hash64(ROUTE_SEED, k) % nparts as u64) as usize,
                None => {
                    t.rr = t.rr.wrapping_add(1);
                    (t.rr as usize) % nparts
                }
            };
            span.attr("partition", p);
            let entry_bytes = entry::encode(key, span.context(), now.as_nanos() as u64, payloads)?;
            if batch {
                span.attr("bytes", entry_bytes.len());
            }
            let (lid, entry) = Self::append_with_rollover(
                inner,
                &tracer,
                topic,
                p,
                &mut t.partitions[p],
                &entry_bytes,
            )?;
            let n = payloads.len() as u32;
            inner.c_published.add(n as u64);
            Ok(MessageId::in_batch(p as u32, lid, entry, 0, n))
        });
        match &result {
            Ok(_) => span.attr("outcome", "ok"),
            Err(PulsarError::QuorumUnavailable { .. }) => {
                span.attr("outcome", "quorum_unavailable");
            }
            Err(_) => {}
        }
        result
    }

    /// Segment length: cached segments (the open tail, built sealed
    /// snapshots) from memory, the rest from where they are stored.
    fn segment_len(inner: &ClusterInner, part: &Partition, lid: LedgerId) -> u64 {
        match part.cached(lid) {
            Some(entries) => entries.len() as u64,
            None => Self::stored_len(inner, lid),
        }
    }

    /// Length of a sealed segment no snapshot has been built for: closed
    /// ledgers from ledger metadata, offloaded ones from the cold-tier
    /// record.
    fn stored_len(inner: &ClusterInner, lid: LedgerId) -> u64 {
        match inner.bk.last_entry(lid) {
            Ok(Some(last)) => last + 1,
            _ => {
                let tier = inner.tier.lock();
                if let Some(tier) = &*tier {
                    if let Some(n) = tier.offloaded_len(&inner.meta, lid) {
                        return n;
                    }
                }
                0
            }
        }
    }

    /// Fetch an entire sealed segment into an immutable snapshot: bookies
    /// first, cold tier second, every entry parsed on the way
    /// in. One-time cost per segment, after which a scan resolves the
    /// snapshot once per run of entries it reads from it and clones
    /// [`ParsedEntry`]s. This is what moved `entry_read` off the top of
    /// the dispatch profile (E30): steady-state dispatch pays no
    /// ledger-map lock, no per-entry metadata parse and no framing parse.
    fn build_sealed(inner: &ClusterInner, lid: LedgerId) -> Result<Arc<Vec<Cached>>> {
        match inner.bk.last_entry(lid) {
            Ok(Some(last)) => {
                let entries = inner.bk.read_through(lid, last)?;
                Ok(Arc::new(entries.iter().map(ParsedEntry::parse).collect()))
            }
            Ok(None) => Ok(Arc::new(Vec::new())),
            Err(e) => {
                let tier = inner.tier.lock().clone();
                let from_tier = tier.and_then(|tier| {
                    let n = tier.offloaded_len(&inner.meta, lid)?;
                    let mut entries = Vec::with_capacity(n as usize);
                    for i in 0..n {
                        let bytes = tier.read_entry(&inner.meta, lid, i)?;
                        entries.push(ParsedEntry::parse(&bytes));
                    }
                    Some(entries)
                });
                match from_tier {
                    Some(entries) => {
                        inner
                            .metrics
                            .counter("tier_reads")
                            .add((entries.len() as u64).max(1));
                        Ok(Arc::new(entries))
                    }
                    None => Err(e),
                }
            }
        }
    }

    /// The dispatch scan: every receive method is this plus what it makes
    /// of the views. Under the topic lock, [`SubState::scan`] advances the
    /// cursor over up to `max` messages and collects the touched entries
    /// as [`EntryView`]s into `out` (cleared first): per entry, the skip
    /// checks, a clone of the already-parsed [`ParsedEntry`] and one bump
    /// of the pending queue; no consumer code runs under the lock. With
    /// the lock released, each view is stamped with its trace context:
    /// when the broker is traced, ONE `pulsar.dispatch_entry` span (child
    /// of the publish span) shared by all its messages, else the publish
    /// context verbatim.
    fn receive_entries_from(
        &self,
        topic: &str,
        subscription: &str,
        consumer_id: u64,
        start_part: &mut usize,
        max: usize,
        out: &mut Vec<EntryView>,
    ) -> Result<usize> {
        out.clear();
        if max == 0 {
            return Ok(0);
        }
        self.check_fence(topic)?;
        let tracer = self.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "pulsar.dispatch");
        span.attr("topic", topic);
        span.attr("subscription", subscription);
        let prof = self.inner.dispatch_prof.load(Ordering::Relaxed);
        let wall_start = prof.then(Instant::now);
        let mut acc = DispatchAcc::default();
        let result = self.with_topic(topic, |inner, t| {
            let locked = prof.then(Instant::now);
            if let (Some(t0), Some(t1)) = (wall_start, locked) {
                // Outside-the-lock to inside-the-lock: lock wait, topic
                // hash, and any lazy topic rebuild.
                acc.lock_ns = t1.duration_since(t0).as_nanos() as u64;
            }
            let (sub, mut log) = t.cursor(inner, topic, subscription, prof)?;
            let got = sub.scan(&mut log, consumer_id, start_part, max, out);
            // Everything in the lock but the storage reads is cursor work.
            acc.read_ns = log.read_ns;
            acc.cursor_ns = nanos_since(locked).saturating_sub(log.read_ns);
            if let Ok(delivered @ 1..) = got {
                inner.c_delivered.add(delivered as u64);
            }
            got
        });
        if result.is_ok() {
            let stamping = prof.then(Instant::now);
            for view in out.iter_mut() {
                span.attr("partition", view.partition);
                span.attr("ledger", view.ledger.raw());
                span.attr("entry", view.entry);
                if let Some(pc) = view.parsed.ctx {
                    let mut g =
                        tracer.span_child_of(TRACE_SYSTEM, "pulsar.dispatch_entry", Some(pc));
                    g.attr("partition", view.partition);
                    g.attr("entry", view.entry);
                    g.attr("messages", view.len());
                    view.parsed.ctx = g.context().or(Some(pc));
                }
            }
            acc.decode_ns = nanos_since(stamping);
        }
        self.flush_dispatch_acc(wall_start, &acc, result.as_ref().ok().copied());
        result
    }

    /// Flush per-scan phase accumulators to the metrics registry
    /// (striped-counter adds; no per-message registry lookups).
    fn flush_dispatch_acc(&self, wall_start: Option<Instant>, acc: &DispatchAcc, n: Option<usize>) {
        let Some(t0) = wall_start else {
            return;
        };
        let m = &self.inner.metrics;
        m.counter("pulsar.dispatch.scans").inc();
        if let Some(n) = n {
            m.counter("pulsar.dispatch.messages").add(n as u64);
        }
        m.counter("pulsar.dispatch.wall_ns")
            .add(t0.elapsed().as_nanos() as u64);
        m.counter("pulsar.dispatch.lock_ns").add(acc.lock_ns);
        m.counter("pulsar.dispatch.cursor_ns").add(acc.cursor_ns);
        m.counter("pulsar.dispatch.read_ns").add(acc.read_ns);
        m.counter("pulsar.dispatch.decode_ns").add(acc.decode_ns);
    }

    /// The ack fold, and the one place a subscription's acks are applied:
    /// every ack method only builds the [`AckUnit`]s, and
    /// [`SubState::ack`] checks and folds them under one topic lock. Each
    /// partition's cursor it moved is written at most once, after the
    /// last unit. The persist is amortized, the bookkeeping is not, so
    /// at-least-once holds: a broker that dies mid-call redelivers from
    /// the last persisted cursor, never skips.
    fn ack_units<'a>(
        &self,
        topic: &str,
        subscription: &str,
        units: impl Iterator<Item = AckUnit<'a>> + Clone,
    ) -> Result<()> {
        if units.clone().next().is_none() {
            return Ok(());
        }
        self.check_fence(topic)?;
        self.with_topic(topic, |inner, t| {
            let (sub, log) = t.cursor(inner, topic, subscription, false)?;
            sub.ack(&log, units, |key, md| {
                inner.meta.write(key, |out| put_cursor(out, md));
            })
        })
    }

    fn redeliver(&self, topic: &str, subscription: &str) -> Result<usize> {
        self.with_topic(topic, |inner, t| {
            Ok(t.cursor(inner, topic, subscription, false)?.0.rewind())
        })
    }

    fn detach(&self, topic: &str, subscription: &str, consumer_id: u64) {
        // No lazy rebuild: detaching from an unloaded topic is a no-op.
        Self::lock_topics(&self.inner, |topics| {
            if let Some((sub, _)) = topics
                .get_mut(topic)
                .and_then(|t| t.cursor(&self.inner, topic, subscription, false).ok())
            {
                sub.consumers.retain(|&c| c != consumer_id);
            }
        });
    }

    /// Delete ledger segments that every subscription has fully consumed
    /// ("durable storage for messages until they are consumed"). Returns
    /// the number of segments reclaimed.
    pub fn trim_consumed(&self, topic: &str) -> Result<usize> {
        self.with_topic(topic, |inner, t| {
            let mut reclaimed = 0;
            for p in 0..t.partitions.len() {
                let part = &mut t.partitions[p];
                // The reclaimable prefix: segments `..k`.
                let mut k = 0;
                while let Some(&lid) = part.segments.get(k) {
                    // The open segment is never trimmed.
                    if part.is_open(lid) {
                        break;
                    }
                    let seg_len = Self::segment_len(inner, part, lid);
                    // An empty segment goes once anyone subscribes. Any
                    // other goes once every subscription's mark-delete has
                    // moved on to a later segment: a mark-delete on this
                    // segment's final entry keeps it until an ack moves
                    // the cursor into the next one.
                    let all_consumed = !t.subs.is_empty()
                        && (seg_len == 0
                            || t.subs
                                .values()
                                .all(|sub| sub.mark_delete[p].is_some_and(|md| md.ledger != lid)));
                    if !all_consumed {
                        break;
                    }
                    // Delete from whichever tier holds the segment.
                    if inner.bk.delete_ledger(lid).is_err() {
                        if let Some(tier) = &*inner.tier.lock() {
                            tier.delete_segment(&inner.meta, lid);
                        }
                    }
                    part.sealed.remove(&lid);
                    k += 1;
                }
                if k > 0 {
                    part.segments.drain(..k);
                    Self::persist_segments(inner, topic, p, part);
                    reclaimed += k;
                }
            }
            Ok(reclaimed)
        })
    }

    /// Total messages currently retained on the bookies for a topic.
    pub fn retained_entries(&self, topic: &str) -> Result<u64> {
        self.with_topic(topic, |inner, t| {
            let mut total = 0;
            for part in &t.partitions {
                for &lid in &part.segments {
                    total += Self::segment_len(inner, part, lid);
                }
            }
            Ok(total)
        })
    }
}

/// A producer attached to a topic.
#[derive(Clone)]
pub struct Producer {
    cluster: PulsarCluster,
    topic: String,
}

impl Producer {
    /// Publish a key-less message (round-robin partition routing).
    pub fn send(&self, payload: &[u8]) -> Result<MessageId> {
        self.cluster.publish(&self.topic, None, &[payload])
    }

    /// Publish with a partition key (all messages with one key land on one
    /// partition, preserving per-key order).
    pub fn send_keyed(&self, key: &[u8], payload: &[u8]) -> Result<MessageId> {
        self.cluster.publish(&self.topic, Some(key), &[payload])
    }

    /// Publish several messages as one group-committed ledger entry: one
    /// encode, one replicated append. The whole batch lands on one
    /// partition (round-robin, like key-less `send`); ids come back in
    /// payload order.
    pub fn send_batch<T: AsRef<[u8]>>(&self, payloads: &[T]) -> Result<Vec<MessageId>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let first = self.cluster.publish(&self.topic, None, payloads)?;
        Ok((0..first.batch_size)
            .map(|batch_index| MessageId {
                batch_index,
                ..first
            })
            .collect())
    }
}

/// A consumer attached to a subscription.
///
/// One cursor, one scan, one ack fold:
/// [`receive_entries_into`](Consumer::receive_entries_into) and
/// [`ack_entries`](Consumer::ack_entries) are the core, and every other
/// receive and ack method is a few lines over the same two broker paths.
pub struct Consumer {
    cluster: PulsarCluster,
    topic: String,
    subscription: String,
    id: u64,
    rr_part: usize,
    /// View buffer reused by `receive`, `receive_batch` and `drain`, so
    /// steady-state per-message dispatch allocates nothing for entry
    /// collection.
    scratch: Vec<EntryView>,
}

impl Consumer {
    /// Pull the next available message (non-blocking; `None` when caught
    /// up, or when this consumer is a passive failover replica): a scan
    /// with a budget of one, materialized.
    pub fn receive(&mut self) -> Result<Option<Message>> {
        self.with_views(1, |_, views| Ok(messages(views).next()))
    }

    /// Pull up to `max` available messages under a single broker lock
    /// acquisition (batched dispatch), materialized from the scan's
    /// views. Returns fewer (possibly zero) when caught up; messages
    /// still need acking.
    pub fn receive_batch(&mut self, max: usize) -> Result<Vec<Message>> {
        self.with_views(max, |_, views| Ok(messages(views).collect()))
    }

    /// Pull up to `max` available messages as whole-entry views
    /// (decode-amortized dispatch): each returned [`EntryView`] carries
    /// its entry's framing parsed exactly once, and every message inside
    /// is an O(1) zero-copy slice. The last view may cover only part of
    /// its entry when `max` cuts it short; a partially-consumed view
    /// redelivers whole-entry on crash (at-least-once — see
    /// [`EntryView`]). Ack with [`ack_entries`](Consumer::ack_entries)
    /// (or per-id [`ack`](Consumer::ack)/[`ack_batch`](Consumer::ack_batch)).
    pub fn receive_entries(&mut self, max: usize) -> Result<Vec<EntryView>> {
        let mut out = Vec::new();
        self.receive_entries_into(max, &mut out)?;
        Ok(out)
    }

    /// [`receive_entries`](Consumer::receive_entries) into a caller-owned
    /// buffer (cleared first), so a steady-state dispatch loop reuses one
    /// allocation. Returns the number of *messages* covered.
    pub fn receive_entries_into(&mut self, max: usize, out: &mut Vec<EntryView>) -> Result<usize> {
        self.cluster.receive_entries_from(
            &self.topic,
            &self.subscription,
            self.id,
            &mut self.rr_part,
            max,
            out,
        )
    }

    /// Acknowledge every message delivered by `views`: one broker lock
    /// acquisition, one entry-granular cursor fold per whole view (a cut
    /// view acks id by id), and at most one durable cursor write per
    /// touched partition.
    pub fn ack_entries(&self, views: &[EntryView]) -> Result<()> {
        let units = views.iter().map(AckUnit::View);
        self.cluster
            .ack_units(&self.topic, &self.subscription, units)
    }

    /// Acknowledge a message; advances the subscription's mark-delete
    /// cursor when contiguous.
    ///
    /// # Errors
    /// [`PulsarError::InvalidMessageId`] for an id no message of this
    /// topic can have (partition past the topic's, batch index past its
    /// batch); nothing is acked.
    pub fn ack(&self, id: MessageId) -> Result<()> {
        self.ack_batch(std::slice::from_ref(&id))
    }

    /// Acknowledge several messages at once, id by id: one broker lock
    /// acquisition and one durable cursor write per touched partition,
    /// instead of one of each per message (batched cursor commit).
    /// Semantically identical to acking each id with
    /// [`ack`](Consumer::ack) — duplicates and out-of-order ids welcome —
    /// with the same at-least-once guarantee: a crash before the batch
    /// commits redelivers, never skips. One malformed id refuses the
    /// whole batch, as [`ack`](Consumer::ack) refuses it alone.
    pub fn ack_batch(&self, ids: &[MessageId]) -> Result<()> {
        let units = ids.iter().map(|&id| AckUnit::Id(id));
        self.cluster
            .ack_units(&self.topic, &self.subscription, units)
    }

    /// Request redelivery of everything delivered but not acked (what a
    /// crashed consumer's replacement calls). Returns how many messages
    /// were outstanding.
    pub fn redeliver_unacked(&self) -> Result<usize> {
        self.cluster.redeliver(&self.topic, &self.subscription)
    }

    /// Drain all currently-available messages, acking each: scans of up
    /// to 64 messages, each acked with [`ack_entries`](Consumer::ack_entries)
    /// and then materialized.
    pub fn drain(&mut self) -> Result<Vec<Message>> {
        let mut out = Vec::new();
        while self.with_views(64, |consumer, views| {
            consumer.ack_entries(views)?;
            out.extend(messages(views));
            Ok(!views.is_empty())
        })? {}
        Ok(out)
    }

    /// Scan up to `max` messages into the reused view buffer and hand the
    /// views to `f`; the views (and their refcounts on entry buffers) are
    /// dropped when it returns, the buffer's capacity kept.
    fn with_views<R>(
        &mut self,
        max: usize,
        f: impl FnOnce(&Self, &[EntryView]) -> Result<R>,
    ) -> Result<R> {
        let mut views = std::mem::take(&mut self.scratch);
        let got = self
            .receive_entries_into(max, &mut views)
            .and_then(|_| f(self, &views));
        views.clear();
        self.scratch = views;
        got
    }
}

/// The messages of `views`, materialized in delivery order.
fn messages(views: &[EntryView]) -> impl Iterator<Item = Message> + '_ {
    views
        .iter()
        .flat_map(EntryView::messages)
        .map(|m| m.to_message())
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.cluster
            .detach(&self.topic, &self.subscription, self.id);
    }
}

#[cfg(test)]
mod cache_tests;

#[cfg(test)]
mod cursor_tests;

#[cfg(test)]
mod tests {
    use taureau_core::trace::{AttrValue, SpanContext};

    use super::*;

    fn small_cluster() -> PulsarCluster {
        let cfg = PulsarConfig {
            bookies: 3,
            ledger: LedgerConfig {
                ensemble: 3,
                write_quorum: 2,
                ack_quorum: 2,
            },
            max_entries_per_ledger: 8,
        };
        PulsarCluster::new(cfg, WallClock::shared())
    }

    /// One format for every entry: (key or none) × (trace context or
    /// none) × 1..=4 messages round-trip through the one encoder and the
    /// one parser, and every key and payload is a range of the one entry
    /// buffer.
    #[test]
    fn entry_codec_roundtrip() {
        use taureau_core::trace::{SpanId, TraceId};
        let traced = SpanContext {
            trace_id: TraceId(0xfeed),
            span_id: SpanId(0xbeef),
        };
        let all: [&[u8]; 4] = [b"alpha", b"", b"gamma-longer-payload", b"d"];
        for key in [None, Some(&b"key-long"[..])] {
            for ctx in [None, Some(traced)] {
                for n in 1..=all.len() {
                    let payloads = &all[..n];
                    let enc = entry::encode(key, ctx, 99, payloads).unwrap();
                    let parsed = ParsedEntry::parse(&enc).unwrap();
                    assert_eq!(parsed.raw(), &enc);
                    assert_eq!(parsed.ctx, ctx);
                    assert_eq!((parsed.publish_nanos(), parsed.count()), (99, n as u32));
                    assert_eq!(parsed.key_range().map(|(s, e)| &enc[s..e]), key);
                    for (i, p) in payloads.iter().enumerate() {
                        let (start, end) = parsed.item_range(i as u32);
                        assert_eq!(&enc[start..end], *p);
                    }
                    // The context is a header field: it adds its wire
                    // length and leaves the rest of the entry as it was.
                    let untraced = entry::encode(key, None, 99, payloads).unwrap();
                    let extra = ctx.map_or(0, |_| SpanContext::WIRE_LEN);
                    assert_eq!(enc.len(), untraced.len() + extra);
                    assert_eq!(enc[13 + extra..], untraced[13..]);
                    // A cut entry is refused at the parse, not discovered
                    // per message.
                    assert!(ParsedEntry::parse(&enc.slice(..enc.len() - 1)).is_err());
                }
            }
        }
        // An empty key is written as none, so it reads back as none.
        let enc = entry::encode(Some(b""), None, 1, &[b"x"]).unwrap();
        assert_eq!(ParsedEntry::parse(&enc).unwrap().key_range(), None);
    }

    #[test]
    fn dispatch_links_messages_into_publish_trace() {
        let c = small_cluster();
        let tracer = Tracer::new(WallClock::shared());
        c.set_tracer(tracer.clone());
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        p.send(b"solo").unwrap();
        p.send_batch(&[b"b0".as_slice(), b"b1"]).unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let got = consumer.drain().unwrap();
        assert_eq!(got.len(), 3);
        let spans = tracer.spans();
        let publishes: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "pulsar.publish" || s.name == "pulsar.publish_batch")
            .collect();
        assert_eq!(publishes.len(), 2);
        // Every delivered message carries its entry's dispatch span, which
        // lives in the *publisher's* trace as a child of its publish span —
        // not in the dispatch scan's own trace.
        for m in &got {
            let ctx = m.ctx.expect("traced broker must stamp msg ctx");
            let rec = spans
                .iter()
                .find(|s| s.span_id == ctx.span_id)
                .expect("msg ctx names a recorded span");
            assert_eq!(rec.name, "pulsar.dispatch_entry");
            let publisher = publishes
                .iter()
                .find(|s| s.trace_id == ctx.trace_id)
                .expect("dispatch_entry joins a publish trace");
            assert_eq!(rec.parent, Some(publisher.span_id));
        }
        // The batch's two messages share its entry's one span.
        assert_eq!(got[1].ctx, got[2].ctx, "one entry, one dispatch span");
        assert_ne!(got[0].ctx.unwrap().trace_id, got[1].ctx.unwrap().trace_id);
    }

    #[test]
    fn untraced_broker_passes_publish_ctx_verbatim() {
        let c = small_cluster();
        let tracer = Tracer::new(WallClock::shared());
        c.set_tracer(tracer.clone());
        c.create_topic("t", 1).unwrap();
        c.producer("t").unwrap().send(b"x").unwrap();
        // Broker loses its tracer before dispatch: the publish context
        // recovered from the entry header flows through unchanged.
        c.set_tracer(Tracer::disabled());
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let m = consumer.receive().unwrap().unwrap();
        let publish = tracer
            .spans()
            .into_iter()
            .find(|s| s.name == "pulsar.publish")
            .unwrap();
        assert_eq!(
            m.ctx,
            Some(SpanContext {
                trace_id: publish.trace_id,
                span_id: publish.span_id,
            })
        );
        // And a fully untraced publish yields no context at all.
        let c2 = small_cluster();
        c2.create_topic("t", 1).unwrap();
        c2.producer("t").unwrap().send(b"y").unwrap();
        let mut consumer2 = c2.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        assert_eq!(consumer2.receive().unwrap().unwrap().ctx, None);
    }

    #[test]
    fn dispatch_profile_attributes_scan_time() {
        let c = small_cluster();
        c.create_topic("t", 2).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..10u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        // Off by default: dispatch leaves the counters untouched.
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let _ = consumer.receive_batch(4).unwrap();
        assert_eq!(c.dispatch_profile(), DispatchProfile::default());
        // On: every scan splits its wall time into the named phases.
        c.set_dispatch_profiling(true);
        let mut rest = 0;
        loop {
            let chunk = consumer.receive_batch(100).unwrap();
            if chunk.is_empty() {
                break;
            }
            rest += chunk.len();
        }
        assert_eq!(rest, 6);
        let prof = c.dispatch_profile();
        assert!(
            prof.scans >= 2,
            "drain plus final empty scan: {}",
            prof.scans
        );
        assert_eq!(prof.messages, 6);
        assert!(prof.wall_ns > 0);
        assert!(prof.explained_ns() > 0);
        // Checkpoints partition the scan window, so the named phases can
        // never sum past the wall clock that contains them.
        assert!(prof.explained_ns() <= prof.wall_ns);
        assert_eq!(prof.phases().len(), 4);
        let (top, ns) = prof.top_phase();
        assert!(ns > 0, "top phase {top} must have time attributed");
        // Off again: counters freeze.
        c.set_dispatch_profiling(false);
        let _ = consumer.receive_batch(100).unwrap();
        assert_eq!(c.dispatch_profile(), prof);
    }

    #[test]
    fn fence_rejects_publish_dispatch_and_ack_and_is_installed_once() {
        let c = small_cluster();
        for t in ["mine", "theirs"] {
            c.create_topic(t, 1).unwrap();
        }
        let producer = c.producer("theirs").unwrap();
        let mut consumer = c
            .subscribe("theirs", "s", SubscriptionMode::Exclusive)
            .unwrap();
        let id = producer.send(b"before the fence").unwrap();

        assert!(c.set_fence_check(Arc::new(|topic: &str| topic == "mine")));
        let fenced = |r: Result<()>| matches!(r, Err(PulsarError::Fenced(t)) if t == "theirs");
        assert!(fenced(producer.send(b"x").map(drop)));
        assert!(fenced(producer.send_batch(&[b"x", b"y"]).map(drop)));
        assert!(fenced(consumer.receive().map(drop)));
        assert!(fenced(consumer.receive_entries(8).map(drop)));
        assert!(fenced(consumer.ack(id)));
        assert!(fenced(consumer.ack_batch(&[id])));
        assert!(fenced(
            c.subscribe("theirs", "s2", SubscriptionMode::Shared)
                .map(drop)
        ));
        assert_eq!(c.metrics().counter("fenced_rejections").get(), 7);
        // A topic the check admits is served as before.
        c.producer("mine").unwrap().send(b"ok").unwrap();

        // Install-once: a more permissive second check is refused, and the
        // first keeps deciding.
        assert!(!c.set_fence_check(Arc::new(|_: &str| true)));
        assert!(fenced(producer.send(b"x").map(drop)));
        assert_eq!(c.metrics().counter("fenced_rejections").get(), 8);
    }

    #[test]
    fn contention_profiling_times_topic_shard_lock() {
        let c = small_cluster();
        let prof = ContentionProfiler::new();
        let site = c.enable_contention_profiling(&prof);
        assert_eq!(site.name(), "pulsar.topics");
        // Idempotent: a second call returns the same site, not a new one.
        assert!(Arc::ptr_eq(&site, &c.enable_contention_profiling(&prof)));
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for _ in 0..5 {
            p.send(b"x").unwrap();
        }
        let snap = site.snapshot();
        assert!(
            snap.acquisitions >= 5,
            "publishes acquire the topic lock: {}",
            snap.acquisitions
        );
    }

    #[test]
    fn send_batch_roundtrip_and_ids() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        let ids = p.send_batch(&[b"a".as_slice(), b"bb", b"ccc"]).unwrap();
        assert_eq!(ids.len(), 3);
        // One ledger entry for the whole batch, indexed ids in order.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.batch_index, i as u32);
            assert_eq!(id.batch_size, 3);
            assert_eq!(id.canonical(), ids[0].canonical());
        }
        assert_eq!(c.retained_entries("t").unwrap(), 1);
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let got = consumer.drain().unwrap();
        assert_eq!(got.len(), 3);
        for (m, (id, want)) in got.iter().zip(ids.iter().zip([&b"a"[..], b"bb", b"ccc"])) {
            assert_eq!(&m.id, id);
            assert_eq!(&m.payload[..], want);
        }
        assert!(consumer.receive().unwrap().is_none());
    }

    /// A batch of one is a send: both write the same entry bytes, return
    /// a `0 of 1` id and open a `pulsar.publish` span with the payload's
    /// size. An empty batch publishes nothing.
    #[test]
    fn a_batch_of_one_is_a_send() {
        let clock = taureau_core::clock::VirtualClock::shared();
        let c = PulsarCluster::new(PulsarConfig::default(), clock);
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        assert_eq!(p.send_batch::<&[u8]>(&[]).unwrap(), []);
        assert_eq!(c.retained_entries("t").unwrap(), 0);
        let sent = p.send(b"one").unwrap();
        let batched = p.send_batch(&[b"one"]).unwrap();
        assert_eq!((sent.batch_index, sent.batch_size), (0, 1));
        let next = MessageId {
            entry: sent.entry + 1,
            ..sent
        };
        assert_eq!(batched, [next]);
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let views = consumer.receive_entries(8).unwrap();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].parsed.raw(), views[1].parsed.raw());

        let tracer = Tracer::new(WallClock::shared());
        c.set_tracer(tracer.clone());
        p.send(b"two").unwrap();
        p.send_batch(&[b"two"]).unwrap();
        let spans = tracer.spans();
        let publishes: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("pulsar.publish"))
            .collect();
        assert_eq!(publishes.len(), 2);
        for span in publishes {
            assert_eq!(span.name, "pulsar.publish");
            assert_eq!(span.attr("bytes"), Some(&AttrValue::U64(3)));
        }
    }

    #[test]
    fn a_batch_past_4_gib_is_refused_before_anything_is_written() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        // Seventeen views of one zeroed 256 MiB buffer (never touched, so
        // never resident): 4.25 GiB of payload to whoever sums the lengths.
        let big = vec![0u8; 256 << 20];
        assert_eq!(
            p.send_batch(&[big.as_slice(); 17]),
            Err(PulsarError::BatchTooLarge { messages: 17 })
        );
        assert_eq!(c.retained_entries("t").unwrap(), 0);
        assert_eq!(p.send_batch(&[b"a", b"b"]).unwrap().len(), 2);
    }

    #[test]
    fn receive_batch_matches_unbatched_delivery() {
        let c = small_cluster();
        c.create_topic("mixed", 1).unwrap();
        let p = c.producer("mixed").unwrap();
        // Interleave unbatched sends and batches, spanning a segment
        // rollover (8 entries/segment in small_cluster).
        let mut want: Vec<Vec<u8>> = Vec::new();
        for i in 0..6u64 {
            p.send(&i.to_le_bytes()).unwrap();
            want.push(i.to_le_bytes().to_vec());
        }
        let batch: Vec<Vec<u8>> = (100..140u64).map(|i| i.to_le_bytes().to_vec()).collect();
        p.send_batch(&batch).unwrap();
        want.extend(batch.iter().cloned());
        p.send(b"tail").unwrap();
        want.push(b"tail".to_vec());
        let mut consumer = c
            .subscribe("mixed", "s", SubscriptionMode::Exclusive)
            .unwrap();
        let mut got = Vec::new();
        loop {
            let chunk = consumer.receive_batch(7).unwrap();
            if chunk.is_empty() {
                break;
            }
            for m in chunk {
                consumer.ack(m.id).unwrap();
                got.push(m.payload.to_vec());
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn partial_batch_ack_redelivers_only_unacked() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        p.send_batch(&[b"m0".as_slice(), b"m1", b"m2", b"m3"])
            .unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let got = consumer.receive_batch(4).unwrap();
        assert_eq!(got.len(), 4);
        // Ack only indices 0 and 2.
        consumer.ack(got[0].id).unwrap();
        consumer.ack(got[2].id).unwrap();
        assert_eq!(consumer.redeliver_unacked().unwrap(), 2);
        let again = consumer.receive_batch(10).unwrap();
        let payloads: Vec<_> = again.iter().map(|m| m.payload.to_vec()).collect();
        assert_eq!(payloads, vec![b"m1".to_vec(), b"m3".to_vec()]);
        // Finishing the batch advances the cursor past the entry.
        for m in &again {
            consumer.ack(m.id).unwrap();
        }
        assert!(consumer.receive().unwrap().is_none());
        assert_eq!(consumer.redeliver_unacked().unwrap(), 0);
        assert!(consumer.receive().unwrap().is_none());
    }

    #[test]
    fn fully_acked_batch_survives_restart_partially_acked_redelivers() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        p.send_batch(&[b"a0".as_slice(), b"a1"]).unwrap();
        p.send_batch(&[b"b0".as_slice(), b"b1"]).unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let got = consumer.receive_batch(4).unwrap();
        assert_eq!(got.len(), 4);
        // Fully ack the first batch; half-ack the second.
        consumer.ack(got[0].id).unwrap();
        consumer.ack(got[1].id).unwrap();
        consumer.ack(got[2].id).unwrap();
        c.restart_broker();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let rest = consumer.drain().unwrap();
        // Partial-ack state is in-memory only: the half-acked entry comes
        // back whole (at-least-once); the fully-acked one does not.
        let payloads: Vec<_> = rest.iter().map(|m| m.payload.to_vec()).collect();
        assert_eq!(payloads, vec![b"b0".to_vec(), b"b1".to_vec()]);
    }

    #[test]
    fn duplicate_ack_of_batch_message_is_idempotent() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        p.send_batch(&[b"x".as_slice(), b"y"]).unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let got = consumer.receive_batch(2).unwrap();
        consumer.ack(got[0].id).unwrap();
        consumer.ack(got[0].id).unwrap(); // duplicate before completion
        consumer.ack(got[1].id).unwrap();
        consumer.ack(got[1].id).unwrap(); // duplicate after completion
        assert!(consumer.receive().unwrap().is_none());
        assert_eq!(consumer.redeliver_unacked().unwrap(), 0);
        assert!(consumer.receive().unwrap().is_none());
    }

    /// An id whose batch size is not its entry's message count is refused
    /// while the entry is in memory: two acks claiming a batch of 2, or
    /// one claiming 1, no longer complete a 3-message entry, and an
    /// unbatched message is not a batch of 3. Nothing moves, and the
    /// right ids still complete both entries.
    #[test]
    fn an_ack_claiming_the_wrong_batch_size_is_refused() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        let batch = p.send_batch(&[b"x".as_slice(), b"y", b"z"]).unwrap();
        let single = p.send(b"w").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        assert_eq!(consumer.receive_batch(4).unwrap().len(), 4);
        let cursor = || {
            let state = |t: &mut Topic| {
                let sub = &t.subs["s"];
                (
                    sub.mark_delete.clone(),
                    sub.partial.clone(),
                    sub.pending_total,
                )
            };
            c.with_topic("t", |_, t| Ok(state(t))).unwrap()
        };
        let before = cursor();
        let claiming =
            |id: MessageId, n| MessageId::in_batch(0, id.ledger, id.entry, id.batch_index, n);
        for bad in [
            claiming(batch[0], 2),
            claiming(batch[1], 2),
            claiming(batch[0], 1),
            claiming(single, 3),
        ] {
            let refused = Err(PulsarError::InvalidMessageId(bad));
            assert_eq!(consumer.ack(bad), refused);
            assert_eq!(consumer.ack_batch(&[single, bad]), refused);
            assert_eq!(cursor(), before, "{bad:?}");
        }
        consumer.ack_batch(&batch).unwrap();
        consumer.ack(single).unwrap();
        assert_eq!(cursor(), (vec![Some(single)], Default::default(), 0));
        assert_eq!(consumer.redeliver_unacked().unwrap(), 0);
        assert!(consumer.receive().unwrap().is_none());
    }

    /// A sealed segment with no entry — the ledger a broker rolled over to
    /// and died before anything landed in — does not stall the
    /// mark-delete: acking every message moves it past the gap, trim
    /// reclaims both segments behind the open one, and a restart
    /// redelivers nothing.
    #[test]
    fn an_empty_sealed_segment_does_not_stall_the_cursor() {
        let c = small_cluster(); // 8 entries per segment
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..8u8 {
            p.send(&[i]).unwrap();
        }
        c.with_topic("t", |inner, t| {
            let part = &mut t.partitions[0];
            let mut full = part.writer.take().unwrap();
            full.close()?;
            part.seal_tail(full.id());
            let fresh = inner.bk.create_ledger(inner.cfg.ledger)?;
            part.segments.push(fresh.id());
            PulsarCluster::persist_segments(inner, "t", 0, part);
            Ok(())
        })
        .unwrap();
        c.restart_broker();
        p.send(&[8]).unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        assert_eq!(consumer.drain().unwrap().len(), 9);
        assert_eq!(c.trim_consumed("t").unwrap(), 2);
        c.restart_broker();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        assert!(consumer.drain().unwrap().is_empty());
    }

    #[test]
    fn publish_consume_ack() {
        let c = small_cluster();
        c.create_topic("events", 1).unwrap();
        let producer = c.producer("events").unwrap();
        let mut consumer = c
            .subscribe("events", "sub", SubscriptionMode::Exclusive)
            .unwrap();
        for i in 0..20u64 {
            producer.send(&i.to_le_bytes()).unwrap();
        }
        let got = consumer.drain().unwrap();
        assert_eq!(got.len(), 20);
        let payloads: Vec<u64> = got
            .iter()
            .map(|m| u64::from_le_bytes(m.payload[..].try_into().unwrap()))
            .collect();
        assert_eq!(payloads, (0..20).collect::<Vec<_>>());
        // Caught up.
        assert!(consumer.receive().unwrap().is_none());
    }

    #[test]
    fn segment_rollover_is_transparent() {
        let c = small_cluster(); // 8 entries per segment
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..50u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        assert_eq!(consumer.drain().unwrap().len(), 50);
        // At least ceil(50/8)=7 segments were created.
        assert!(c.retained_entries("t").unwrap() == 50);
    }

    #[test]
    fn keyed_messages_preserve_per_key_order_across_partitions() {
        let c = small_cluster();
        c.create_topic("orders", 4).unwrap();
        let p = c.producer("orders").unwrap();
        for i in 0..40u64 {
            let key = format!("user-{}", i % 5);
            p.send_keyed(key.as_bytes(), &i.to_le_bytes()).unwrap();
        }
        let mut consumer = c
            .subscribe("orders", "s", SubscriptionMode::Shared)
            .unwrap();
        let msgs = consumer.drain().unwrap();
        assert_eq!(msgs.len(), 40);
        // Per-key sequences must be increasing.
        let mut last: HashMap<Vec<u8>, u64> = HashMap::new();
        for m in msgs {
            let v = u64::from_le_bytes(m.payload[..].try_into().unwrap());
            let k = m.key.unwrap().to_vec();
            if let Some(&prev) = last.get(&k) {
                assert!(v > prev, "key order violated: {prev} then {v}");
            }
            last.insert(k, v);
        }
        assert_eq!(last.len(), 5);
    }

    #[test]
    fn exclusive_subscription_rejects_second_consumer() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let _c1 = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        assert!(matches!(
            c.subscribe("t", "s", SubscriptionMode::Exclusive),
            Err(PulsarError::ExclusiveSubscriptionBusy(_))
        ));
    }

    #[test]
    fn shared_subscription_splits_work() {
        let c = small_cluster();
        c.create_topic("work", 1).unwrap();
        let p = c.producer("work").unwrap();
        for i in 0..30u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let mut c1 = c
            .subscribe("work", "workers", SubscriptionMode::Shared)
            .unwrap();
        let mut c2 = c
            .subscribe("work", "workers", SubscriptionMode::Shared)
            .unwrap();
        let mut n1 = 0;
        let mut n2 = 0;
        loop {
            let mut progressed = false;
            if let Some(m) = c1.receive().unwrap() {
                c1.ack(m.id).unwrap();
                n1 += 1;
                progressed = true;
            }
            if let Some(m) = c2.receive().unwrap() {
                c2.ack(m.id).unwrap();
                n2 += 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        // Each message delivered exactly once across the pair.
        assert_eq!(n1 + n2, 30, "n1={n1} n2={n2}");
        assert!(n1 > 0 && n2 > 0, "both consumers should get work");
    }

    #[test]
    fn failover_only_active_consumer_receives() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        p.send(b"m").unwrap();
        let mut active = c.subscribe("t", "s", SubscriptionMode::Failover).unwrap();
        let mut standby = c.subscribe("t", "s", SubscriptionMode::Failover).unwrap();
        assert!(standby.receive().unwrap().is_none());
        let m = active.receive().unwrap().unwrap();
        active.ack(m.id).unwrap();
        // Active detaches; standby takes over.
        p.send(b"m2").unwrap();
        drop(active);
        let m2 = standby.receive().unwrap().unwrap();
        assert_eq!(&m2.payload[..], b"m2");
    }

    #[test]
    fn two_subscriptions_each_get_all_messages() {
        let c = small_cluster();
        c.create_topic("fanout", 1).unwrap();
        let p = c.producer("fanout").unwrap();
        for i in 0..10u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let mut s1 = c
            .subscribe("fanout", "analytics", SubscriptionMode::Exclusive)
            .unwrap();
        let mut s2 = c
            .subscribe("fanout", "archive", SubscriptionMode::Exclusive)
            .unwrap();
        assert_eq!(s1.drain().unwrap().len(), 10);
        assert_eq!(s2.drain().unwrap().len(), 10);
    }

    #[test]
    fn unacked_messages_are_redelivered() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..5u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        // Receive all, ack only the first two.
        let mut msgs = Vec::new();
        while let Some(m) = consumer.receive().unwrap() {
            msgs.push(m);
        }
        consumer.ack(msgs[0].id).unwrap();
        consumer.ack(msgs[1].id).unwrap();
        let outstanding = consumer.redeliver_unacked().unwrap();
        assert_eq!(outstanding, 3);
        let redelivered = consumer.drain().unwrap();
        assert_eq!(redelivered.len(), 3);
        assert_eq!(
            u64::from_le_bytes(redelivered[0].payload[..].try_into().unwrap()),
            2
        );
    }

    #[test]
    fn broker_restart_loses_nothing() {
        let c = small_cluster();
        c.create_topic("t", 2).unwrap();
        let p = c.producer("t").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
        for i in 0..20u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        // Consume and ack half.
        for _ in 0..10 {
            let m = consumer.receive().unwrap().unwrap();
            consumer.ack(m.id).unwrap();
        }
        // Broker dies; all in-memory state gone.
        c.restart_broker();
        // A fresh consumer on the same subscription resumes from the
        // mark-delete position: the 10 unconsumed messages arrive.
        let mut c2 = c.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
        let rest = c2.drain().unwrap();
        assert_eq!(rest.len(), 10, "messages lost or duplicated across restart");
        // And publishing still works (new ledgers after fencing).
        p.send(b"after").unwrap();
        assert_eq!(c2.drain().unwrap().len(), 1);
    }

    #[test]
    fn bookie_crash_mid_stream_rolls_over() {
        let cfg = PulsarConfig {
            bookies: 4,
            ledger: LedgerConfig {
                ensemble: 3,
                write_quorum: 3,
                ack_quorum: 2,
            },
            max_entries_per_ledger: 1000,
        };
        let c = PulsarCluster::new(cfg, WallClock::shared());
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..10u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        // Two bookies die; the current ensemble can't meet ack quorum, so
        // the broker must seal and roll to the remaining bookies… but only
        // 2 are alive and ensemble needs 3 → publishing fails.
        c.bookies()[0].crash();
        c.bookies()[1].crash();
        let res = p.send(b"x");
        assert!(res.is_err());
        // One comes back: rollover succeeds and the stream continues.
        c.bookies()[0].restart();
        p.send(b"recovered").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let msgs = consumer.drain().unwrap();
        assert_eq!(msgs.len(), 11);
    }

    #[test]
    fn trim_consumed_reclaims_segments() {
        let c = small_cluster(); // 8 entries/segment
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        for i in 0..30u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(consumer.drain().unwrap().len(), 30);
        let reclaimed = c.trim_consumed("t").unwrap();
        assert!(reclaimed >= 3, "reclaimed {reclaimed} segments");
        // Remaining retained entries are only the open segment's.
        assert!(c.retained_entries("t").unwrap() <= 8);
    }

    #[test]
    fn trim_writes_each_segment_list_once_per_call() {
        let c = small_cluster(); // 8 entries/segment
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        // Two sealed segments, and the cursor acked into the open third.
        for i in 0..17u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(consumer.drain().unwrap().len(), 17);
        let key = "/topics/t/0/segments";
        let segments = || c.metadata().read(key, read_segments).unwrap();
        let before = c.metadata().get(key).unwrap();
        assert_eq!(segments().len(), 3);
        assert_eq!(c.trim_consumed("t").unwrap(), 2);
        let after = c.metadata().get(key).unwrap();
        assert_eq!(segments().len(), 1);
        assert_eq!(after.version, before.version + 1);
    }

    #[test]
    fn a_segment_is_trimmed_only_once_the_cursor_leaves_it() {
        let c = small_cluster(); // 8 entries/segment
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        // Nine entries: a sealed segment of eight, one in the open tail.
        for i in 0..9u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let sealed = consumer.receive_batch(8).unwrap();
        let ids: Vec<MessageId> = sealed.iter().map(|m| m.id).collect();
        consumer.ack_batch(&ids).unwrap();
        // The mark-delete is the sealed segment's final entry: every entry
        // of it is consumed, yet it is kept.
        assert!(ids.iter().all(|id| id.ledger == ids[0].ledger));
        assert_eq!(c.trim_consumed("t").unwrap(), 0);
        assert_eq!(c.retained_entries("t").unwrap(), 9);
        // Acking into the next segment moves the cursor off it.
        let tail = consumer.receive().unwrap().unwrap();
        assert_ne!(tail.id.ledger, ids[0].ledger);
        consumer.ack(tail.id).unwrap();
        assert_eq!(c.trim_consumed("t").unwrap(), 1);
        assert_eq!(c.retained_entries("t").unwrap(), 1);
    }

    #[test]
    fn tiered_storage_reads_through_after_offload() {
        use taureau_core::latency::LatencyModel;
        let c = small_cluster(); // 8 entries per segment
        let blob = std::sync::Arc::new(taureau_baas::BlobStore::with_latency(
            WallClock::shared(),
            LatencyModel::zero(),
            LatencyModel::zero(),
        ));
        c.enable_tiering(blob.clone(), "cold");
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..30u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        // Offload the sealed segments; the open one stays hot.
        let offloaded = c.offload_sealed("t").unwrap();
        assert!(offloaded >= 3, "offloaded {offloaded}");
        let (_, writes) = blob.op_counts();
        assert_eq!(writes as usize, offloaded);
        // Bookies no longer hold the offloaded bytes…
        let hot: u64 = c.bookies().iter().map(|b| b.stored_bytes()).sum();
        assert!(hot < 30 * 20, "bookies still hold {hot} bytes");
        // …but a fresh consumer still reads the full stream, in order.
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let msgs = consumer.drain().unwrap();
        assert_eq!(msgs.len(), 30);
        let payloads: Vec<u64> = msgs
            .iter()
            .map(|m| u64::from_le_bytes(m.payload[..].try_into().unwrap()))
            .collect();
        assert_eq!(payloads, (0..30).collect::<Vec<_>>());
        assert!(c.metrics().counter("tier_reads").get() > 0);
        // Trim after consumption reclaims cold segments too.
        let reclaimed = c.trim_consumed("t").unwrap();
        assert!(reclaimed >= 3);
    }

    #[test]
    fn offload_without_tier_is_noop() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..20u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(c.offload_sealed("t").unwrap(), 0);
    }

    /// Receive and ack in batches of 16 until `finished` was set before a
    /// scan that found nothing; the payloads read as `u64`s, in order.
    fn receive_until_finished(consumer: &mut Consumer, finished: &AtomicBool) -> Vec<u64> {
        let mut seen = Vec::new();
        loop {
            let finished = finished.load(Ordering::Acquire);
            let batch = consumer.receive_batch(16).unwrap();
            if batch.is_empty() {
                if finished {
                    return seen;
                }
                std::thread::yield_now();
                continue;
            }
            let ids: Vec<MessageId> = batch.iter().map(|m| m.id).collect();
            consumer.ack_batch(&ids).unwrap();
            seen.extend(
                batch
                    .iter()
                    .map(|m| u64::from_le_bytes(m.payload[..].try_into().unwrap())),
            );
        }
    }

    /// Publishes, batched acks, and a thread looping `trim_consumed` +
    /// `retained_entries` (each a walk under the one topic lock) on four
    /// topics at once: a nested topic-lock acquisition would stall a
    /// thread (the watchdog turns that into a failure instead of a hang),
    /// and every publish must be delivered, in order.
    #[test]
    fn trims_under_traffic_on_every_topic_stall_nothing_and_lose_nothing() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        use std::time::Duration;

        const TOPICS: usize = 4;
        const MSGS: u64 = 400;
        let c = small_cluster(); // 8 entries/segment
        let names: Vec<String> = (0..TOPICS).map(|t| format!("t{t}")).collect();
        for name in &names {
            c.create_topic(name, 1).unwrap();
        }
        let published = Arc::new(
            (0..TOPICS)
                .map(|_| AtomicBool::new(false))
                .collect::<Vec<_>>(),
        );
        let consumers_left = Arc::new(AtomicUsize::new(TOPICS));
        // Every end is opened before any thread starts, so a stalled thread
        // cannot stall the test thread short of its watchdog.
        let ends: Vec<_> = names
            .iter()
            .map(|name| {
                let consumer = c.subscribe(name, "s", SubscriptionMode::Exclusive).unwrap();
                (c.producer(name).unwrap(), consumer)
            })
            .collect();
        let (done_tx, done_rx) = mpsc::channel();
        let (mut writers, mut readers) = (Vec::new(), Vec::new());
        for (t, (producer, mut consumer)) in ends.into_iter().enumerate() {
            let (flags, tx) = (Arc::clone(&published), done_tx.clone());
            writers.push(std::thread::spawn(move || {
                for i in 0..MSGS {
                    let payload = ((t as u64) << 32 | i).to_le_bytes();
                    producer
                        .send(&payload)
                        .unwrap_or_else(|e| panic!("publish to topic {t}: {e:?}"));
                }
                flags[t].store(true, Ordering::Release);
                tx.send(()).unwrap();
            }));
            let (published, consumers_left, done_tx) = (
                Arc::clone(&published),
                Arc::clone(&consumers_left),
                done_tx.clone(),
            );
            readers.push(std::thread::spawn(move || {
                let seen = receive_until_finished(&mut consumer, &published[t]);
                consumers_left.fetch_sub(1, Ordering::Release);
                done_tx.send(()).unwrap();
                seen
            }));
        }
        let trimmer = c.clone();
        writers.push(std::thread::spawn(move || {
            while consumers_left.load(Ordering::Acquire) > 0 {
                for name in &names {
                    trimmer.trim_consumed(name).unwrap();
                    trimmer.retained_entries(name).unwrap();
                }
                std::thread::yield_now();
            }
            done_tx.send(()).unwrap();
        }));
        // Watchdog. A deadlocked thread cannot be joined, so on a timeout
        // the test fails here and leaves the threads behind.
        for _ in 0..2 * TOPICS + 1 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a thread stalled under concurrent trims");
        }
        for writer in writers {
            writer.join().unwrap();
        }
        for (t, reader) in readers.into_iter().enumerate() {
            let want: Vec<u64> = (0..MSGS).map(|i| (t as u64) << 32 | i).collect();
            assert_eq!(reader.join().unwrap(), want, "topic {t}");
        }
    }

    #[test]
    fn unknown_topic_errors() {
        let c = small_cluster();
        assert!(matches!(
            c.producer("nope"),
            Err(PulsarError::TopicNotFound(_))
        ));
        assert!(matches!(
            c.subscribe("nope", "s", SubscriptionMode::Shared),
            Err(PulsarError::TopicNotFound(_))
        ));
        c.create_topic("t", 1).unwrap();
        assert!(matches!(
            c.create_topic("t", 1),
            Err(PulsarError::TopicExists(_))
        ));
        // A producer outliving its topic: nothing looks the topic up
        // before the append does, and the append still says so.
        let p = c.producer("t").unwrap();
        c.metadata().delete("/topics/t");
        c.restart_broker();
        for res in [p.send(b"x"), p.send_keyed(b"k", b"x")] {
            assert!(matches!(res, Err(PulsarError::TopicNotFound(_))));
        }
        assert!(matches!(
            p.send_batch(&[b"x", b"y"]),
            Err(PulsarError::TopicNotFound(_))
        ));
    }
}
