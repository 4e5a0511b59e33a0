//! The Jiffy controller — the system facade (Figure 2's control plane).
//!
//! [`Jiffy`] owns the namespace tree, the shared block pool, the lease
//! manager and the notification bus, and hands out typed handles
//! ([`KvHandle`], [`QueueHandle`], [`FileHandle`]) that serverless
//! functions use to read and write ephemeral state. Every access renews the
//! covering lease (state stays alive while in use); [`Jiffy::reap_expired`]
//! reclaims lapsed namespaces and returns their blocks to the pool.
//!
//! Concurrency: controller state is sharded by application (the first path
//! segment). Each application's namespace sub-tree and lease live together
//! in one [`ShardedMap`] stripe, so two applications' data paths never
//! contend; the block pool is internally sharded
//! (see [`MemoryPool`]) and the notification bus sits behind its own small
//! lock. Lock order is always app shard → pool stripe → bus, so the
//! controller cannot deadlock against itself.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use taureau_core::bytesize::ByteSize;
use taureau_core::clock::{SharedClock, WallClock};
use taureau_core::id::NodeId;
use taureau_core::metrics::{Counter, MetricsRegistry};
use taureau_core::sync::ShardedMap;
use taureau_core::trace::Tracer;

use crate::data::{FileObject, KvObject, KvReadCache, ObjectState, QueueObject};
use crate::error::{JiffyError, Result};
use crate::lease::LeaseManager;
use crate::namespace::NamespaceTree;
use crate::notify::{Event, EventKind, NotificationBus, Subscription};
use crate::path::JPath;
use crate::pool::{MemoryPool, PoolStats};

/// Subsystem label stamped on every span this crate records.
const TRACE_SYSTEM: &str = "taureau-jiffy";

/// Configuration for a Jiffy deployment.
#[derive(Debug, Clone)]
pub struct JiffyConfig {
    /// Number of memory nodes in the pool.
    pub memory_nodes: usize,
    /// Blocks per memory node.
    pub blocks_per_node: u64,
    /// Block size (the allocation granule — E14 ablates this).
    pub block_size: ByteSize,
    /// Lease TTL granted to application namespaces.
    pub default_lease_ttl: Duration,
    /// Optional per-application block quota.
    pub app_quota_blocks: Option<u64>,
}

impl Default for JiffyConfig {
    fn default() -> Self {
        Self {
            memory_nodes: 4,
            blocks_per_node: 1024,
            block_size: ByteSize::kb(64),
            default_lease_ttl: Duration::from_secs(30),
            app_quota_blocks: None,
        }
    }
}

/// What a graceful memory-node decommission moved (returned by
/// [`Jiffy::decommission_memory_node`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Free blocks drained straight off the node (no data to copy).
    pub freed_blocks: u64,
    /// Allocated blocks copied onto surviving nodes.
    pub blocks_moved: u64,
    /// Resident application bytes carried by those copies.
    pub bytes_moved: u64,
    /// Data objects that had at least one block on the node.
    pub objects_touched: u64,
}

/// One application's slice of controller state: its namespace sub-tree
/// (rooted at `/`, containing only this app's paths) and its lease. Lives
/// under the app's shard in [`Inner::apps`].
struct AppState {
    tree: NamespaceTree,
    leases: LeaseManager,
    /// Touch stamps of every live KV object created under this app: the
    /// app's data-path activity signal. The reaper folds the latest one
    /// into lease renewal, which is what lets KV ops skip the app shard
    /// lock without silently letting the lease lapse.
    kv_caches: Vec<Arc<KvReadCache>>,
}

impl Default for AppState {
    fn default() -> Self {
        Self {
            tree: NamespaceTree::new(),
            leases: LeaseManager::new(),
            kv_caches: Vec::new(),
        }
    }
}

/// Data-path counters resolved from the registry once at construction, so
/// every KV/queue/file op pays one atomic increment instead of a
/// string-keyed registry lookup.
struct HotCounters {
    kv_puts: Arc<Counter>,
    kv_gets: Arc<Counter>,
    queue_pushes: Arc<Counter>,
    queue_pops: Arc<Counter>,
    file_appends: Arc<Counter>,
    file_reads: Arc<Counter>,
}

impl HotCounters {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            kv_puts: metrics.counter("kv_puts"),
            kv_gets: metrics.counter("kv_gets"),
            queue_pushes: metrics.counter("queue_pushes"),
            queue_pops: metrics.counter("queue_pops"),
            file_appends: metrics.counter("file_appends"),
            file_reads: metrics.counter("file_reads"),
        }
    }
}

struct Inner {
    clock: SharedClock,
    cfg: JiffyConfig,
    /// Per-application state, sharded by app name: the data-path lock.
    apps: ShardedMap<String, AppState>,
    /// The block pool is internally sharded; no controller lock guards it.
    pool: MemoryPool,
    /// Notification fan-out, decoupled from the data-path shards.
    bus: Mutex<NotificationBus>,
    /// Subscriber count mirrored out of `bus` so the no-subscriber publish
    /// fast path (the common case for raw data traffic) skips the bus lock
    /// entirely. Re-synced from `bus.len()` whenever the lock is taken.
    bus_subscribers: AtomicUsize,
    metrics: MetricsRegistry,
    hot: HotCounters,
    /// Read by copy ([`Jiffy::tracer`]); no guard outlives the read.
    tracer: RwLock<Tracer>,
    /// Mirror of `tracer.is_enabled()`: one relaxed load decides whether a
    /// data-path op must take the span-recording (control-plane) route.
    tracer_on: AtomicBool,
}

/// The Jiffy virtual-memory service for ephemeral serverless state.
///
/// Cheap to clone; all clones share the same deployment.
#[derive(Clone)]
pub struct Jiffy {
    inner: Arc<Inner>,
}

impl Jiffy {
    /// Create a deployment with the given configuration and clock.
    pub fn new(cfg: JiffyConfig, clock: SharedClock) -> Self {
        let mut pool = MemoryPool::new(cfg.memory_nodes, cfg.blocks_per_node, cfg.block_size);
        if let Some(q) = cfg.app_quota_blocks {
            pool = pool.with_quota(q);
        }
        let metrics = MetricsRegistry::new();
        let hot = HotCounters::resolve(&metrics);
        Self {
            inner: Arc::new(Inner {
                clock,
                cfg,
                apps: ShardedMap::new(),
                pool,
                bus: Mutex::new(NotificationBus::new()),
                bus_subscribers: AtomicUsize::new(0),
                metrics,
                hot,
                tracer: RwLock::new(Tracer::disabled()),
                tracer_on: AtomicBool::new(false),
            }),
        }
    }

    /// Default configuration on a wall clock.
    pub fn with_defaults() -> Self {
        Self::new(JiffyConfig::default(), WallClock::shared())
    }

    /// This deployment's configuration.
    pub fn config(&self) -> &JiffyConfig {
        &self.inner.cfg
    }

    /// Metrics registry (repartitioned bytes, reclaimed namespaces, …).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Attach a tracer; object creation and data-path operations record
    /// spans on it.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner
            .tracer_on
            .store(tracer.is_enabled(), Ordering::Release);
        *self.inner.tracer.write() = tracer;
    }

    /// The attached tracer (disabled unless [`Jiffy::set_tracer`] was
    /// called).
    pub fn tracer(&self) -> Tracer {
        self.inner.tracer.read().clone()
    }

    /// Pool statistics snapshot.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// Blocks currently held by an application namespace.
    pub fn blocks_held_by(&self, app: &str) -> u64 {
        self.inner.pool.held_by(app)
    }

    /// Peak blocks held by an application, and the sum of all app peaks
    /// (for the E5 multiplexing report).
    pub fn multiplexing_report(&self) -> (u64, u64) {
        (
            self.inner.pool.stats().peak_allocated_blocks,
            self.inner.pool.sum_of_app_peaks(),
        )
    }

    /// Add a memory node (sized per `cfg.blocks_per_node`) to the pool — a
    /// node joining the cluster. It serves allocations immediately.
    pub fn add_memory_node(&self) -> NodeId {
        let id = self.inner.pool.add_node(self.inner.cfg.blocks_per_node);
        self.inner.metrics.counter("memory_nodes_joined").inc();
        id
    }

    /// Gracefully remove a memory node: drain its free blocks, migrate
    /// every application block it still hosts onto the survivors, then
    /// retire it. Applications keep running throughout — only their
    /// objects' backing [`crate::pool::BlockRef`]s change.
    ///
    /// # Errors
    /// [`JiffyError::NodeUnavailable`] if the node is unknown, already
    /// leaving, or the last one; [`JiffyError::PoolExhausted`] if the
    /// survivors cannot absorb its data (the node is left draining — a
    /// subsequent join can complete the evacuation).
    pub fn decommission_memory_node(&self, node: NodeId) -> Result<MigrationReport> {
        let tracer = self.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.decommission");
        span.attr("node", node.raw());
        let freed_blocks = self.inner.pool.begin_decommission(node)?;
        let mut report = MigrationReport {
            freed_blocks,
            blocks_moved: 0,
            bytes_moved: 0,
            objects_touched: 0,
        };
        let mut failure: Option<JiffyError> = None;
        self.inner.apps.for_each_mut(|_, st| {
            if failure.is_some() {
                return;
            }
            let res = st.tree.for_each_object_mut(|obj| {
                let (blocks, bytes) = obj.migrate_off_node(&self.inner.pool, node)?;
                if blocks > 0 {
                    report.blocks_moved += blocks;
                    report.bytes_moved += bytes;
                    report.objects_touched += 1;
                }
                Ok(())
            });
            if let Err(e) = res {
                failure = Some(e);
            }
        });
        if let Some(e) = failure {
            span.attr("outcome", "exhausted");
            return Err(e);
        }
        self.inner.pool.finish_decommission(node);
        self.inner.metrics.counter("memory_nodes_left").inc();
        self.inner
            .metrics
            .counter("blocks_migrated")
            .add(report.blocks_moved);
        self.inner
            .metrics
            .counter("bytes_migrated")
            .add(report.bytes_moved);
        span.attr("blocks_moved", report.blocks_moved);
        span.attr("bytes_moved", report.bytes_moved);
        Ok(report)
    }

    fn app_lease_path(path: &JPath) -> Option<JPath> {
        path.app().map(|app| JPath::from_segments([app]))
    }

    /// Create a namespace (and intermediates). Grants the application lease
    /// if this is the first namespace for the app.
    pub fn create_namespace(&self, path: impl Into<JPath>) -> Result<()> {
        let path = path.into();
        if path.is_root() {
            return Err(JiffyError::AlreadyExists(path));
        }
        let now = self.inner.clock.now();
        let app = path.app().expect("non-root path has an app").to_string();
        self.inner.apps.with(&app, |shard| -> Result<()> {
            let st = shard.entry(app.clone()).or_default();
            st.tree.create(&path)?;
            if let Some(app_path) = Self::app_lease_path(&path) {
                if st.leases.get(&app_path).is_none() {
                    st.leases
                        .grant(app_path, self.inner.cfg.default_lease_ttl, now);
                } else {
                    st.leases.renew(&path, now);
                }
            }
            Ok(())
        })?;
        self.publish(&path, || EventKind::Created);
        Ok(())
    }

    /// Whether a namespace exists.
    pub fn exists(&self, path: impl Into<JPath>) -> bool {
        let path = path.into();
        if path.is_root() {
            return true;
        }
        let app = path.app().expect("non-root path has an app");
        self.inner.apps.with(app, |shard| match shard.get(app) {
            Some(st) => st.tree.exists(&path),
            None => false,
        })
    }

    /// List immediate children of a namespace.
    pub fn list(&self, path: impl Into<JPath>) -> Result<Vec<String>> {
        let path = path.into();
        if path.is_root() {
            let mut apps = self.inner.apps.keys();
            apps.sort();
            return Ok(apps);
        }
        let app = path.app().expect("non-root path has an app");
        self.inner.apps.with(app, |shard| match shard.get(app) {
            Some(st) => st.tree.list(&path),
            None => Err(JiffyError::NotFound(path.clone())),
        })
    }

    /// Remove a namespace sub-tree, returning its blocks to the pool.
    pub fn remove_namespace(&self, path: impl Into<JPath>) -> Result<()> {
        let path = path.into();
        if path.is_root() {
            return Err(JiffyError::NotFound(path));
        }
        let app = path.app().expect("non-root path has an app");
        self.inner.apps.with(app, |shard| -> Result<()> {
            let st = shard
                .get_mut(app)
                .ok_or_else(|| JiffyError::NotFound(path.clone()))?;
            let objs = st.tree.remove(&path)?;
            for obj in objs {
                obj.retire();
                let blocks = obj.blocks();
                self.inner.pool.free(app, &blocks);
            }
            if path.depth() == 1 {
                st.leases.release(&path);
                shard.remove(app);
                self.inner.pool.forget_app(app);
            }
            Ok(())
        })?;
        self.publish(&path, || EventKind::Removed);
        Ok(())
    }

    /// Renew the lease covering `path` explicitly.
    pub fn renew_lease(&self, path: impl Into<JPath>) -> bool {
        let path = path.into();
        let Some(app) = path.app() else {
            return false;
        };
        let now = self.inner.clock.now();
        self.inner.apps.with(app, |shard| match shard.get_mut(app) {
            Some(st) => st.leases.renew(&path, now),
            None => false,
        })
    }

    /// Reclaim all application namespaces whose leases lapsed. Returns the
    /// reclaimed paths. Call periodically (or after advancing a virtual
    /// clock in tests).
    pub fn reap_expired(&self) -> Vec<JPath> {
        let now = self.inner.clock.now();
        let reclaimed = self.inner.metrics.counter("namespaces_reclaimed");
        let mut expired_all = Vec::new();
        // Sweep shards one at a time; an expired app lease removes the
        // whole app entry (leases are granted at app granularity).
        self.inner.apps.retain(|app, st| {
            // Direct-path KV ops never took this shard lock; their touch
            // stamps are the renewal signal. Fold the latest into the
            // lease table before judging expiry.
            st.kv_caches.retain(|c| c.is_alive());
            if let Some(last) = st.kv_caches.iter().map(|c| c.last_touch_nanos()).max() {
                st.leases.observe_activity(Duration::from_nanos(last));
            }
            let expired = st.leases.reap(now);
            let mut keep = true;
            for path in expired {
                if let Ok(objs) = st.tree.remove(&path) {
                    for obj in objs {
                        obj.retire();
                        let blocks = obj.blocks();
                        self.inner.pool.free(app, &blocks);
                    }
                }
                reclaimed.inc();
                if path.depth() == 1 {
                    keep = false;
                    self.inner.pool.forget_app(app);
                }
                expired_all.push(path);
            }
            keep
        });
        for path in &expired_all {
            self.publish(path, || EventKind::LeaseExpired);
        }
        expired_all
    }

    /// Subscribe to events at or under `prefix`.
    pub fn subscribe(&self, prefix: impl Into<JPath>) -> Subscription {
        let mut bus = self.inner.bus.lock();
        let sub = bus.subscribe(prefix.into());
        self.inner
            .bus_subscribers
            .store(bus.len(), Ordering::Release);
        sub
    }

    // -- object creation ----------------------------------------------------

    /// The object slot at `path` for a `create_*`: the namespace is made
    /// if missing (granting the application lease with the first one), and
    /// a slot that already holds an object is refused.
    fn vacant_slot<'a>(
        &self,
        st: &'a mut AppState,
        path: &JPath,
        now: Duration,
    ) -> Result<&'a mut Option<ObjectState>> {
        let (node, created) = st.tree.get_or_create(path);
        // An app's lease table holds the one lease on the app's root, or
        // nothing.
        if created && st.leases.is_empty() {
            if let Some(app_path) = Self::app_lease_path(path) {
                st.leases
                    .grant(app_path, self.inner.cfg.default_lease_ttl, now);
            }
        }
        if node.object.is_some() {
            return Err(JiffyError::AlreadyExists(path.clone()));
        }
        Ok(&mut node.object)
    }

    /// Run `f` against the app's state, creating the [`AppState`] on first
    /// use. Only the app's shard is locked.
    fn with_app<T>(&self, app: &str, f: impl FnOnce(&mut AppState) -> T) -> T {
        self.inner.apps.with(app, |shard| {
            // The name is copied only for an app that is really new.
            if !shard.contains_key(app) {
                shard.insert(app.to_string(), AppState::default());
            }
            f(shard.get_mut(app).expect("present or just inserted"))
        })
    }

    /// Create a KV object at `path` with `partitions` initial partitions.
    /// The namespace is created if missing.
    pub fn create_kv(&self, path: impl Into<JPath>, partitions: usize) -> Result<KvHandle> {
        let path = path.into();
        let tracer = self.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.create_kv");
        span.attr("path", &path);
        span.attr("partitions", partitions);
        let now = self.inner.clock.now();
        let app = path
            .app()
            .ok_or_else(|| JiffyError::NotADirectory(path.clone()))?;
        self.with_app(app, |st| -> Result<()> {
            let slot = self.vacant_slot(st, &path, now)?;
            let mut alloc_span = tracer.span(TRACE_SYSTEM, "jiffy.block_alloc");
            alloc_span.attr("blocks", partitions);
            let kv = KvObject::create(&self.inner.pool, app, partitions)?;
            drop(alloc_span);
            let cache = kv.read_cache();
            *slot = Some(ObjectState::Kv(Arc::new(Mutex::new(kv))));
            st.kv_caches.push(cache);
            Ok(())
        })?;
        Ok(self.kv_handle(path))
    }

    /// Open an existing KV object.
    pub fn open_kv(&self, path: impl Into<JPath>) -> Result<KvHandle> {
        let path = path.into();
        self.open_check(&path, "kv", |obj| matches!(obj, ObjectState::Kv(_)))?;
        Ok(self.kv_handle(path))
    }

    /// Build a KV handle, not yet bound to its object.
    fn kv_handle(&self, path: JPath) -> KvHandle {
        KvHandle {
            bind: Arc::new(RwLock::new(None)),
            jiffy: self.clone(),
            path,
        }
    }

    /// Create a queue object at `path` (namespace created if missing).
    pub fn create_queue(&self, path: impl Into<JPath>) -> Result<QueueHandle> {
        let path = path.into();
        let mut span = self.tracer().span(TRACE_SYSTEM, "jiffy.create_queue");
        span.attr("path", &path);
        let now = self.inner.clock.now();
        let app = path
            .app()
            .ok_or_else(|| JiffyError::NotADirectory(path.clone()))?;
        self.with_app(app, |st| -> Result<()> {
            *self.vacant_slot(st, &path, now)? = Some(ObjectState::Queue(QueueObject::create(app)));
            Ok(())
        })?;
        Ok(QueueHandle {
            jiffy: self.clone(),
            path,
        })
    }

    /// Open an existing queue object.
    pub fn open_queue(&self, path: impl Into<JPath>) -> Result<QueueHandle> {
        let path = path.into();
        self.open_check(&path, "queue", |obj| matches!(obj, ObjectState::Queue(_)))?;
        Ok(QueueHandle {
            jiffy: self.clone(),
            path,
        })
    }

    /// Create a file object at `path` (namespace created if missing).
    pub fn create_file(&self, path: impl Into<JPath>) -> Result<FileHandle> {
        let path = path.into();
        let mut span = self.tracer().span(TRACE_SYSTEM, "jiffy.create_file");
        span.attr("path", &path);
        let now = self.inner.clock.now();
        let app = path
            .app()
            .ok_or_else(|| JiffyError::NotADirectory(path.clone()))?;
        self.with_app(app, |st| -> Result<()> {
            *self.vacant_slot(st, &path, now)? = Some(ObjectState::File(FileObject::create(app)));
            Ok(())
        })?;
        Ok(FileHandle {
            jiffy: self.clone(),
            path,
        })
    }

    /// Open an existing file object.
    pub fn open_file(&self, path: impl Into<JPath>) -> Result<FileHandle> {
        let path = path.into();
        self.open_check(&path, "file", |obj| matches!(obj, ObjectState::File(_)))?;
        Ok(FileHandle {
            jiffy: self.clone(),
            path,
        })
    }

    // -- object access plumbing ---------------------------------------------

    /// Validate that `path` holds an object of the requested kind.
    fn open_check(
        &self,
        path: &JPath,
        requested: &'static str,
        matches_kind: impl FnOnce(&ObjectState) -> bool,
    ) -> Result<()> {
        let Some(app) = path.app() else {
            return Err(JiffyError::NotFound(path.clone()));
        };
        self.inner.apps.with(app, |shard| {
            let st = shard
                .get(app)
                .ok_or_else(|| JiffyError::NotFound(path.clone()))?;
            match &st.tree.get(path)?.object {
                Some(obj) if matches_kind(obj) => Ok(()),
                Some(other) => Err(JiffyError::WrongKind {
                    path: path.clone(),
                    actual: other.kind(),
                    requested,
                }),
                None => Err(JiffyError::NotFound(path.clone())),
            }
        })
    }

    /// Lock `path`'s app shard, renew its lease, and hand `f` the object
    /// plus the (shared, internally sharded) pool.
    fn with_object<T>(
        &self,
        path: &JPath,
        f: impl FnOnce(&mut ObjectState, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        self.with_object_at(self.inner.clock.now(), path, f)
    }

    /// [`with_object`](Self::with_object) with the caller's already-read
    /// clock value — handle hot paths read the clock once per op.
    fn with_object_at<T>(
        &self,
        now: Duration,
        path: &JPath,
        f: impl FnOnce(&mut ObjectState, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        let Some(app) = path.app() else {
            return Err(JiffyError::NotFound(path.clone()));
        };
        self.inner.apps.with(app, |shard| {
            let st = shard
                .get_mut(app)
                .ok_or_else(|| JiffyError::NotFound(path.clone()))?;
            st.leases.renew(path, now);
            match &mut st.tree.get_mut(path)?.object {
                Some(obj) => f(obj, &self.inner.pool),
                None => Err(JiffyError::NotFound(path.clone())),
            }
        })
    }

    fn with_kv<T>(
        &self,
        path: &JPath,
        f: impl FnOnce(&mut KvObject, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        self.with_kv_at(self.inner.clock.now(), path, f)
    }

    fn with_kv_at<T>(
        &self,
        now: Duration,
        path: &JPath,
        f: impl FnOnce(&mut KvObject, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        self.with_kv_arc_at(now, path, |arc, pool| f(&mut arc.lock(), pool))
    }

    /// Control-plane KV access that exposes the object's shared lock, so
    /// handles can capture a direct binding while they're here.
    fn with_kv_arc_at<T>(
        &self,
        now: Duration,
        path: &JPath,
        f: impl FnOnce(&Arc<Mutex<KvObject>>, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        self.with_object_at(now, path, |obj, pool| match obj {
            ObjectState::Kv(kv) => f(kv, pool),
            other => Err(JiffyError::WrongKind {
                path: path.clone(),
                actual: other.kind(),
                requested: "kv",
            }),
        })
    }

    fn with_queue<T>(
        &self,
        path: &JPath,
        f: impl FnOnce(&mut QueueObject, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        self.with_object(path, |obj, pool| match obj {
            ObjectState::Queue(q) => f(q, pool),
            other => Err(JiffyError::WrongKind {
                path: path.clone(),
                actual: other.kind(),
                requested: "queue",
            }),
        })
    }

    fn with_file<T>(
        &self,
        path: &JPath,
        f: impl FnOnce(&mut FileObject, &MemoryPool) -> Result<T>,
    ) -> Result<T> {
        self.with_object(path, |obj, pool| match obj {
            ObjectState::File(fl) => f(fl, pool),
            other => Err(JiffyError::WrongKind {
                path: path.clone(),
                actual: other.kind(),
                requested: "file",
            }),
        })
    }

    /// Publish an event, constructing it lazily: on the data-plane fast
    /// path (no subscribers — the common case for raw KV/queue/file
    /// traffic) no event, key copy, or path clone is ever built.
    fn publish(&self, path: &JPath, kind: impl FnOnce() -> EventKind) {
        if self.inner.bus_subscribers.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut bus = self.inner.bus.lock();
        if !bus.is_empty() {
            bus.publish(Event {
                path: path.clone(),
                kind: kind(),
            });
        }
        // `publish` prunes dropped receivers; mirror the survivor count so
        // the fast path stays accurate.
        self.inner
            .bus_subscribers
            .store(bus.len(), Ordering::Release);
    }
}

/// A KV handle's direct binding to its object: the shared object lock,
/// resolved once through the control plane and reused per op. Invalidated
/// by object reclamation (`is_alive` goes false), after which ops
/// re-resolve through the namespace tree.
type KvBinding = Arc<Mutex<KvObject>>;

/// How [`KvHandle::mutate`] counts and traces a write.
#[derive(Clone, Copy)]
enum Mutation {
    /// A plain write of `bytes` key + value bytes: `kv_puts`, span
    /// `jiffy.kv_put`.
    Put { bytes: usize },
    /// A read-modify-write: `kv_gets` and `kv_puts`, span
    /// `jiffy.kv_update`.
    Update,
}

/// Handle to a KV object.
#[derive(Clone)]
pub struct KvHandle {
    jiffy: Jiffy,
    path: JPath,
    /// Direct object binding, shared so handle clones share one rebind.
    /// Ops copy the `Arc` out; no guard outlives the read.
    bind: Arc<RwLock<Option<KvBinding>>>,
}

impl KvHandle {
    /// The object's namespace path.
    pub fn path(&self) -> &JPath {
        &self.path
    }

    /// Insert or update a key from a borrowed slice: one copy, made over
    /// the old value when that has the same length and no reader still
    /// holds it, else into a fresh refcounted buffer (see
    /// [`put_bytes`](Self::put_bytes) to avoid the copy). Auto-scales the
    /// object if its partition is full; re-partitioned bytes are recorded
    /// in the `kv_repartitioned_bytes` metric.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let bytes = key.len() + value.len();
        self.mutate(key, Mutation::Put { bytes }, |kv, pool| {
            Ok(((), kv.put(pool, key, value)?))
        })
    }

    /// Insert or update a key, taking ownership of an already-refcounted
    /// value — no byte copy anywhere on the path.
    pub fn put_bytes(&self, key: &[u8], value: Bytes) -> Result<()> {
        let bytes = key.len() + value.len();
        self.mutate(key, Mutation::Put { bytes }, |kv, pool| {
            Ok(((), kv.put_bytes(pool, key, value)?))
        })
    }

    /// The one write path: run `op` under ONE hold of the object lock and
    /// account for it. `op` returns its result and the bytes any
    /// re-partitioning moved.
    ///
    /// Direct path first: the bound object's own lock, no control-plane
    /// traversal. Tracing forces the control-plane route so spans keep
    /// their fidelity, and a dead binding falls through to it: resolve
    /// the object through the namespace tree (renewing the lease), record
    /// the span, capture the binding for subsequent ops.
    fn mutate<T>(
        &self,
        key: &[u8],
        what: Mutation,
        op: impl FnOnce(&mut KvObject, &MemoryPool) -> Result<(T, u64)>,
    ) -> Result<T> {
        let inner = &self.jiffy.inner;
        let now = inner.clock.now();
        let now_nanos = now.as_nanos() as u64;
        if matches!(what, Mutation::Update) {
            inner.hot.kv_gets.inc();
        }
        inner.hot.kv_puts.inc();
        let bound = self.bound();
        let live = bound
            .as_ref()
            .filter(|_| !inner.tracer_on.load(Ordering::Relaxed))
            .map(|obj| obj.lock())
            .filter(|kv| kv.is_alive());
        let (out, moved) = if let Some(mut kv) = live {
            let done = op(&mut kv, &inner.pool)?;
            kv.touch(now_nanos);
            done
        } else {
            let tracer = self.jiffy.tracer();
            let mut span = tracer.span(
                TRACE_SYSTEM,
                match what {
                    Mutation::Put { .. } => "jiffy.kv_put",
                    Mutation::Update => "jiffy.kv_update",
                },
            );
            span.attr("path", &self.path);
            if let Mutation::Put { bytes } = what {
                span.attr("bytes", bytes);
            }
            let ((out, moved), obj) = self.jiffy.with_kv_arc_at(now, &self.path, |arc, pool| {
                let mut kv = arc.lock();
                let done = op(&mut kv, pool)?;
                kv.touch(now_nanos);
                Ok((done, Arc::clone(arc)))
            })?;
            if moved > 0 {
                span.attr("repartitioned_bytes", moved);
            }
            self.rebind(bound.as_ref(), obj);
            (out, moved)
        };
        if moved > 0 {
            self.jiffy
                .metrics()
                .counter("kv_repartitioned_bytes")
                .add(moved);
        }
        self.jiffy
            .publish(&self.path, || EventKind::KvPut { key: key.to_vec() });
        Ok(out)
    }

    /// Read a key. The returned [`Bytes`] is a refcounted view of the
    /// stored value (no copy) with snapshot semantics: it stays valid and
    /// unchanged even if the key is overwritten or removed afterwards.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let now = self.jiffy.inner.clock.now();
        let now_nanos = now.as_nanos() as u64;
        // Direct path: the bound object's own lock. Tracing forces the
        // control-plane route so spans keep their fidelity; a dead binding
        // falls through and re-resolves.
        let bound = self.bound();
        if !self.jiffy.inner.tracer_on.load(Ordering::Relaxed) {
            if let Some(obj) = &bound {
                let kv = obj.lock();
                if kv.is_alive() {
                    self.jiffy.inner.hot.kv_gets.inc();
                    kv.touch(now_nanos);
                    return Ok(kv.get(key));
                }
            }
        }
        self.get_via_tree(key, now, now_nanos, bound.as_ref())
    }

    /// The current binding, copied out (one `Arc` bump; the read guard is
    /// gone before this returns).
    fn bound(&self) -> Option<KvBinding> {
        self.bind.read().clone()
    }

    /// Point the shared binding at `obj` unless `bound` — what this op
    /// read before resolving — already is that object: a traced run
    /// resolves through the tree on every op and must not take the
    /// binding's write lock each time.
    fn rebind(&self, bound: Option<&KvBinding>, obj: KvBinding) {
        if !bound.is_some_and(|old| Arc::ptr_eq(old, &obj)) {
            *self.bind.write() = Some(obj);
        }
    }

    /// Control-plane get: resolves the object through the namespace tree
    /// (renewing the lease), records spans, and captures the direct binding
    /// for subsequent ops.
    fn get_via_tree(
        &self,
        key: &[u8],
        now: Duration,
        now_nanos: u64,
        bound: Option<&KvBinding>,
    ) -> Result<Option<Bytes>> {
        let tracer = self.jiffy.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.kv_get");
        span.attr("path", &self.path);
        self.jiffy.inner.hot.kv_gets.inc();
        let (value, obj) = self.jiffy.with_kv_arc_at(now, &self.path, |arc, _| {
            let kv = arc.lock();
            kv.touch(now_nanos);
            Ok((kv.get(key), Arc::clone(arc)))
        })?;
        self.rebind(bound, obj);
        span.attr("hit", value.is_some());
        Ok(value)
    }

    /// Atomic read-modify-write: replace `key`'s value with `f(current)`
    /// (`None` when the key is absent) under ONE hold of the object lock —
    /// concurrent updaters through any handle to this object never lose
    /// an update, which a [`get`](Self::get) followed by a
    /// [`put`](Self::put) cannot promise. `f` runs under that lock: keep
    /// it short and do not call back into Jiffy from it. Counted,
    /// notified and auto-scaled as the `get` + `put` it replaces
    /// (`kv_gets` and `kv_puts` both move, one `KvPut` event).
    pub fn update(&self, key: &[u8], f: impl FnOnce(Option<&Bytes>) -> Bytes) -> Result<()> {
        self.mutate(key, Mutation::Update, |kv, pool| {
            Ok(((), kv.update(pool, key, f)?))
        })
    }

    /// Atomically add `delta` (wrapping) to the little-endian `i64`
    /// counter at `key` and return the new value; a missing or non-8-byte
    /// value counts as 0. An [`update`](Self::update) in everything a
    /// caller, a subscriber or the metrics can see — but a counter no
    /// reader currently holds a view of is bumped where it lies, with no
    /// allocation.
    pub fn add_i64(&self, key: &[u8], delta: i64) -> Result<i64> {
        self.mutate(key, Mutation::Update, |kv, pool| {
            kv.add_i64(pool, key, delta)
        })
    }

    /// Remove a key, returning its value.
    pub fn remove(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.jiffy.with_kv(&self.path, |kv, _| Ok(kv.remove(key)))
    }

    /// Number of keys.
    pub fn len(&self) -> Result<usize> {
        self.jiffy.with_kv(&self.path, |kv, _| Ok(kv.len()))
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// All keys (unordered).
    pub fn keys(&self) -> Result<Vec<Vec<u8>>> {
        self.jiffy.with_kv(&self.path, |kv, _| Ok(kv.keys()))
    }

    /// Current partition count.
    pub fn partitions(&self) -> Result<usize> {
        self.jiffy.with_kv(&self.path, |kv, _| Ok(kv.partitions()))
    }

    /// Scale to `target` partitions; returns bytes moved (only this
    /// object's data).
    pub fn scale_to(&self, target: usize) -> Result<u64> {
        let moved = self
            .jiffy
            .with_kv(&self.path, |kv, pool| kv.scale_to(pool, target))?;
        self.jiffy
            .metrics()
            .counter("kv_repartitioned_bytes")
            .add(moved);
        Ok(moved)
    }
}

/// Handle to a queue object.
#[derive(Clone)]
pub struct QueueHandle {
    jiffy: Jiffy,
    path: JPath,
}

impl QueueHandle {
    /// The object's namespace path.
    pub fn path(&self) -> &JPath {
        &self.path
    }

    /// Append a payload from a borrowed slice (one copy; see
    /// [`push_bytes`](Self::push_bytes) to avoid it).
    pub fn push(&self, payload: &[u8]) -> Result<()> {
        self.push_bytes(Bytes::copy_from_slice(payload))
    }

    /// Append an already-refcounted payload — no byte copy anywhere on the
    /// path; `pop` hands the same buffer back out.
    pub fn push_bytes(&self, payload: Bytes) -> Result<()> {
        let tracer = self.jiffy.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.queue_push");
        span.attr("path", &self.path);
        span.attr("bytes", payload.len());
        self.jiffy.inner.hot.queue_pushes.inc();
        self.jiffy
            .with_queue(&self.path, |q, pool| q.push_bytes(pool, payload))?;
        self.jiffy.publish(&self.path, || EventKind::QueuePush);
        Ok(())
    }

    /// Pop the oldest payload (the stored refcounted buffer — no copy).
    pub fn pop(&self) -> Result<Option<Bytes>> {
        let tracer = self.jiffy.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.queue_pop");
        span.attr("path", &self.path);
        self.jiffy.inner.hot.queue_pops.inc();
        let popped = self
            .jiffy
            .with_queue(&self.path, |q, pool| Ok(q.pop(pool)))?;
        span.attr("hit", popped.is_some());
        Ok(popped)
    }

    /// Elements queued.
    pub fn len(&self) -> Result<usize> {
        self.jiffy.with_queue(&self.path, |q, _| Ok(q.len()))
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// Handle to a file object.
#[derive(Clone)]
pub struct FileHandle {
    jiffy: Jiffy,
    path: JPath,
}

impl FileHandle {
    /// The object's namespace path.
    pub fn path(&self) -> &JPath {
        &self.path
    }

    /// Append bytes from a borrowed slice (one copy; see
    /// [`append_bytes`](Self::append_bytes) to avoid it); returns the new
    /// length.
    pub fn append(&self, bytes: &[u8]) -> Result<u64> {
        self.append_bytes(Bytes::copy_from_slice(bytes))
    }

    /// Append an already-refcounted chunk — no byte copy; returns the new
    /// length.
    pub fn append_bytes(&self, bytes: Bytes) -> Result<u64> {
        let tracer = self.jiffy.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.file_append");
        span.attr("path", &self.path);
        span.attr("bytes", bytes.len());
        self.jiffy.inner.hot.file_appends.inc();
        let len = self
            .jiffy
            .with_file(&self.path, |f, pool| f.append_bytes(pool, bytes))?;
        self.jiffy
            .publish(&self.path, || EventKind::FileWrite { len });
        Ok(len)
    }

    /// Read a byte range (clamped to the file length). Zero-copy when the
    /// range falls within one appended chunk.
    pub fn read(&self, offset: u64, len: u64) -> Result<Bytes> {
        let tracer = self.jiffy.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.file_read");
        span.attr("path", &self.path);
        span.attr("offset", offset);
        self.jiffy.inner.hot.file_reads.inc();
        let data = self
            .jiffy
            .with_file(&self.path, |f, _| Ok(f.read(offset, len)))?;
        span.attr("bytes", data.len());
        Ok(data)
    }

    /// Full contents (zero-copy for files written in a single append).
    /// A read like any other: same counter, same span as [`Self::read`].
    pub fn contents(&self) -> Result<Bytes> {
        let tracer = self.jiffy.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "jiffy.file_read");
        span.attr("path", &self.path);
        span.attr("offset", 0u64);
        self.jiffy.inner.hot.file_reads.inc();
        let data = self.jiffy.with_file(&self.path, |f, _| Ok(f.contents()))?;
        span.attr("bytes", data.len());
        Ok(data)
    }

    /// File length.
    pub fn len(&self) -> Result<u64> {
        self.jiffy.with_file(&self.path, |f, _| Ok(f.len()))
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;

    fn deployment() -> (Jiffy, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        let cfg = JiffyConfig {
            memory_nodes: 2,
            blocks_per_node: 64,
            block_size: ByteSize::kb(1),
            default_lease_ttl: Duration::from_secs(10),
            app_quota_blocks: None,
        };
        (Jiffy::new(cfg, clock.clone()), clock)
    }

    #[test]
    fn kv_end_to_end() {
        let (j, _) = deployment();
        let kv = j.create_kv("/app/state", 2).unwrap();
        kv.put(b"k", b"v").unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(kv.len().unwrap(), 1);
        // A second handle opened by another "function" sees the same data.
        let kv2 = j.open_kv("/app/state").unwrap();
        assert_eq!(kv2.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn kind_mismatch_is_reported() {
        let (j, _) = deployment();
        j.create_kv("/app/state", 1).unwrap();
        assert!(matches!(
            j.open_queue("/app/state"),
            Err(JiffyError::WrongKind { .. })
        ));
    }

    #[test]
    fn queue_between_producer_and_consumer() {
        let (j, _) = deployment();
        let q = j.create_queue("/app/shuffle/part-0").unwrap();
        q.push(b"one").unwrap();
        q.push(b"two").unwrap();
        let consumer = j.open_queue("/app/shuffle/part-0").unwrap();
        assert_eq!(consumer.pop().unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(consumer.pop().unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(consumer.pop().unwrap(), None);
    }

    #[test]
    fn notifications_signal_state_readiness() {
        let (j, _) = deployment();
        let sub = j.subscribe("/app");
        let q = j.create_queue("/app/out").unwrap();
        q.push(b"ready").unwrap();
        let events = sub.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::QueuePush)));
    }

    #[test]
    fn lease_expiry_reclaims_blocks() {
        let (j, clock) = deployment();
        let kv = j.create_kv("/app/state", 4).unwrap();
        kv.put(b"k", b"v").unwrap();
        assert_eq!(j.blocks_held_by("app"), 4);
        clock.advance(Duration::from_secs(11));
        let reclaimed = j.reap_expired();
        assert_eq!(reclaimed, vec![JPath::parse("/app")]);
        assert_eq!(j.blocks_held_by("app"), 0);
        assert!(matches!(kv.get(b"k"), Err(JiffyError::NotFound(_))));
    }

    #[test]
    fn bound_reads_see_overwrites_and_die_with_lease() {
        let (j, clock) = deployment();
        let kv = j.create_kv("/app/state", 2).unwrap();
        kv.put(b"k", b"v").unwrap();
        for _ in 0..16 {
            assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        }
        // No stale value is served after a mutation.
        kv.put(b"k", b"v2").unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        // A reclaimed object must not keep serving through its binding.
        clock.advance(Duration::from_secs(11));
        j.reap_expired();
        assert!(matches!(kv.get(b"k"), Err(JiffyError::NotFound(_))));
    }

    #[test]
    fn traced_ops_rebind_only_when_the_object_changed() {
        let (j, _) = deployment();
        let kv = j.create_kv("/app/state", 1).unwrap();
        kv.put(b"k", b"v").unwrap(); // binds
        j.set_tracer(Tracer::new(j.inner.clock.clone()));
        // Traced ops resolve through the tree every time. While this
        // thread holds the binding's read lock a rebind would block, so
        // the worker finishing at all shows none was attempted.
        let held = kv.bind.read();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1_000 {
                    assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
                }
                kv.put(b"k", b"v").unwrap();
                done_tx.send(()).unwrap();
            });
            let finished = done_rx.recv_timeout(Duration::from_secs(10));
            drop(held);
            finished.expect("a traced op on a live, bound object rewrote the binding");
        });
        // The path reclaimed and made again is a different object: the
        // old handle's next traced op binds to it.
        j.remove_namespace("/app").unwrap();
        assert!(matches!(kv.get(b"k"), Err(JiffyError::NotFound(_))));
        let fresh = j.create_kv("/app/state", 1).unwrap();
        fresh.put(b"k", b"new").unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
        assert!(Arc::ptr_eq(
            kv.bound().as_ref().unwrap(),
            fresh.bound().as_ref().unwrap()
        ));
    }

    #[test]
    fn explicit_renewal_keeps_an_idle_namespace_alive() {
        let (j, clock) = deployment();
        j.create_kv("/app/state", 1).unwrap();
        // No data-path access at all: only the §4.4 lease API.
        for _ in 0..3 {
            clock.advance(Duration::from_secs(8));
            assert!(j.renew_lease("/app/state"));
            assert!(j.reap_expired().is_empty());
        }
        clock.advance(Duration::from_secs(11));
        assert_eq!(j.reap_expired(), vec![JPath::parse("/app")]);
        assert!(!j.renew_lease("/app/state"), "renewed a reclaimed lease");
    }

    #[test]
    fn access_renews_lease() {
        let (j, clock) = deployment();
        let kv = j.create_kv("/app/state", 1).unwrap();
        for _ in 0..5 {
            clock.advance(Duration::from_secs(8));
            kv.put(b"heartbeat", b"x").unwrap(); // renews
            assert!(j.reap_expired().is_empty());
        }
        clock.advance(Duration::from_secs(11));
        assert_eq!(j.reap_expired().len(), 1);
    }

    #[test]
    fn lease_expiry_notifies_subscribers() {
        let (j, clock) = deployment();
        let sub = j.subscribe("/app");
        j.create_kv("/app/state", 1).unwrap();
        sub.drain();
        clock.advance(Duration::from_secs(20));
        j.reap_expired();
        let events = sub.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::LeaseExpired)));
    }

    #[test]
    fn remove_namespace_returns_blocks() {
        let (j, _) = deployment();
        let f = j.create_file("/app/video/chunk-0").unwrap();
        f.append(&vec![0u8; 4096]).unwrap();
        assert!(j.blocks_held_by("app") >= 4);
        j.remove_namespace("/app/video").unwrap();
        assert_eq!(j.blocks_held_by("app"), 0);
    }

    #[test]
    fn removed_apps_leave_no_pool_holdings_behind() {
        let (j, _) = deployment();
        let f = j.create_file("/keep/blob").unwrap();
        f.append(&vec![0u8; 2048]).unwrap(); // 2 blocks, held throughout
        let tracked = j.inner.pool.tracked_apps();
        for i in 0..10_000u32 {
            let f = j.create_file(format!("/job-{i}/spill").as_str()).unwrap();
            f.append(&vec![0u8; 3000]).unwrap(); // 3 blocks of 1 KiB
            j.remove_namespace(format!("/job-{i}").as_str()).unwrap();
        }
        assert_eq!(j.inner.pool.tracked_apps(), tracked);
        // The E5 pair still counts every job that ever ran:
        // (most blocks in flight, sum over apps of their peaks).
        assert_eq!(j.multiplexing_report(), (2 + 3, 2 + 3 * 10_000));
        // Lease expiry drops the entry the same way.
        let (j, clock) = deployment();
        j.create_kv("/app/state", 2).unwrap();
        clock.advance(Duration::from_secs(11));
        assert_eq!(j.reap_expired().len(), 1);
        assert_eq!(j.inner.pool.tracked_apps(), 0);
        assert_eq!(j.multiplexing_report(), (2, 2));
    }

    #[test]
    fn update_is_counted_notified_and_traced_as_a_get_then_put() {
        let (j, _) = deployment();
        let sub = j.subscribe("/app");
        let kv = j.create_kv("/app/state", 1).unwrap();
        sub.drain();
        let append = |old: Option<&Bytes>| {
            let mut v = old.map_or(Vec::new(), |o| o.to_vec());
            v.push(b'x');
            Bytes::from(v)
        };
        // First op resolves through the tree, the second is direct.
        kv.update(b"k", append).unwrap();
        kv.update(b"k", append).unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"xx"[..]));
        assert_eq!(j.metrics().counter("kv_gets").get(), 2 + 1);
        assert_eq!(j.metrics().counter("kv_puts").get(), 2);
        let puts = sub.drain();
        assert_eq!(puts.len(), 2);
        assert!(puts
            .iter()
            .all(|e| matches!(&e.kind, EventKind::KvPut { key } if key == b"k")));
        // Oversized results are refused and leave the value alone.
        assert!(matches!(
            kv.update(b"k", |_| Bytes::from(vec![0u8; 2048])),
            Err(JiffyError::ValueTooLarge { .. })
        ));
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"xx"[..]));
        // Under a tracer the op takes the control-plane route: one span.
        let tracer = Tracer::new(j.inner.clock.clone());
        j.set_tracer(tracer.clone());
        kv.update(b"k", append).unwrap();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "jiffy.kv_update");
    }

    #[test]
    fn update_through_a_dead_binding_re_resolves() {
        let (j, clock) = deployment();
        let kv = j.create_kv("/app/state", 1).unwrap();
        let one = |_: Option<&Bytes>| Bytes::from_static(b"1");
        kv.update(b"k", one).unwrap(); // binds
        j.remove_namespace("/app").unwrap();
        assert!(matches!(kv.update(b"k", one), Err(JiffyError::NotFound(_))));
        // The path lives again as a new object: the old handle reaches it
        // through the tree, and `f` sees that object's (absent) value.
        j.create_kv("/app/state", 1).unwrap();
        kv.update(b"k", |old| {
            assert!(old.is_none());
            Bytes::from_static(b"fresh")
        })
        .unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"fresh"[..]));
        // Updates renew the lease like any other access.
        for _ in 0..3 {
            clock.advance(Duration::from_secs(8));
            kv.update(b"k", one).unwrap();
            assert!(j.reap_expired().is_empty());
        }
    }

    #[test]
    fn add_i64_is_an_update_to_every_observer() {
        let (j, _) = deployment();
        let sub = j.subscribe("/app");
        let kv = j.create_kv("/app/state", 1).unwrap();
        sub.drain();
        // Through the tree and absent, direct into a fresh buffer, direct
        // and in place: the same accounting each time.
        assert_eq!(kv.add_i64(b"n", 2).unwrap(), 2);
        assert_eq!(kv.add_i64(b"n", 3).unwrap(), 5);
        assert_eq!(kv.add_i64(b"n", -6).unwrap(), -1);
        assert_eq!(j.metrics().counter("kv_gets").get(), 3);
        assert_eq!(j.metrics().counter("kv_puts").get(), 3);
        let puts = sub.drain();
        assert_eq!(puts.len(), 3);
        assert!(puts
            .iter()
            .all(|e| matches!(&e.kind, EventKind::KvPut { key } if key == b"n")));
        let tracer = Tracer::new(j.inner.clock.clone());
        j.set_tracer(tracer.clone());
        assert_eq!(kv.add_i64(b"n", 1).unwrap(), 0);
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.spans()[0].name, "jiffy.kv_update");
        j.remove_namespace("/app").unwrap();
        assert!(matches!(kv.add_i64(b"n", 1), Err(JiffyError::NotFound(_))));
    }

    #[test]
    fn every_way_of_reading_a_file_counts_as_a_read() {
        let (j, _) = deployment();
        let f = j.create_file("/app/spill").unwrap();
        f.append(b"intermediate").unwrap();
        let reads = j.metrics().counter("file_reads");
        assert_eq!(&f.read(0, 5).unwrap()[..], b"inter");
        assert_eq!(reads.get(), 1);
        assert_eq!(&f.contents().unwrap()[..], b"intermediate");
        assert_eq!(reads.get(), 2, "contents() is a read too");
    }

    #[test]
    fn quota_isolates_applications() {
        let clock = VirtualClock::shared();
        let cfg = JiffyConfig {
            memory_nodes: 1,
            blocks_per_node: 32,
            block_size: ByteSize::kb(1),
            default_lease_ttl: Duration::from_secs(60),
            app_quota_blocks: Some(4),
        };
        let j = Jiffy::new(cfg, clock);
        let f = j.create_file("/greedy/blob").unwrap();
        // 4 KiB quota: the 5th block must be denied…
        assert!(matches!(
            f.append(&vec![0u8; 8192]),
            Err(JiffyError::QuotaExceeded { .. })
        ));
        // …while another app can still allocate.
        let g = j.create_file("/polite/blob").unwrap();
        assert!(g.append(&vec![0u8; 2048]).is_ok());
    }

    #[test]
    fn scaling_one_app_touches_only_its_bytes() {
        let (j, _) = deployment();
        let a = j.create_kv("/a/state", 2).unwrap();
        let b = j.create_kv("/b/state", 2).unwrap();
        for i in 0..20u64 {
            a.put(&i.to_le_bytes(), &[1u8; 8]).unwrap();
            b.put(&i.to_le_bytes(), &[2u8; 8]).unwrap();
        }
        let before = j.metrics().counter("kv_repartitioned_bytes").get();
        let moved = a.scale_to(6).unwrap();
        let after = j.metrics().counter("kv_repartitioned_bytes").get();
        assert_eq!(after - before, moved);
        // b's data is untouched and fully readable.
        for i in 0..20u64 {
            assert_eq!(
                b.get(&i.to_le_bytes()).unwrap().as_deref(),
                Some(&[2u8; 8][..])
            );
        }
        // Moved bytes are bounded by app a's own footprint.
        let a_bytes: u64 = 20 * (8 + 8 + 16);
        assert!(moved <= a_bytes, "moved {moved} > a's footprint {a_bytes}");
    }

    #[test]
    fn node_join_then_graceful_leave_preserves_data() {
        let (j, _) = deployment();
        let kv = j.create_kv("/app/state", 4).unwrap();
        let q = j.create_queue("/app/work").unwrap();
        for i in 0..32u64 {
            kv.put(&i.to_le_bytes(), &[7u8; 64]).unwrap();
            q.push(&i.to_le_bytes()).unwrap();
        }
        let before = j.pool_stats();
        let joined = j.add_memory_node();
        assert_eq!(
            j.pool_stats().capacity_blocks,
            before.capacity_blocks + j.config().blocks_per_node
        );

        // Retire node 0 — every block it hosts must land on a survivor.
        let node0 = taureau_core::id::NodeId(0);
        let report = j.decommission_memory_node(node0).unwrap();
        assert!(report.freed_blocks + report.blocks_moved > 0);
        let stats = j.pool_stats();
        assert_eq!(stats.allocated_blocks, before.allocated_blocks);

        // All data survives the migration, readable through old handles.
        for i in 0..32u64 {
            assert_eq!(
                kv.get(&i.to_le_bytes()).unwrap().as_deref(),
                Some(&[7u8; 64][..])
            );
            assert_eq!(q.pop().unwrap().as_deref(), Some(&i.to_le_bytes()[..]));
        }

        // The retired node refuses further decommission; the joined one works.
        assert!(matches!(
            j.decommission_memory_node(node0),
            Err(JiffyError::NodeUnavailable(_))
        ));
        j.decommission_memory_node(joined).unwrap();
    }

    #[test]
    fn concurrent_handles_from_many_threads() {
        let (j, _) = deployment();
        let q = j.create_queue("/app/work").unwrap();
        let mut handles = vec![];
        for t in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    q.push(&(t * 1000 + i).to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.len().unwrap(), 200);
    }
}
