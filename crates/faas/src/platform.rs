//! The FaaS platform facade: registration, admission, invocation, billing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand_chacha::ChaCha8Rng;
use taureau_core::clock::{SharedClock, WallClock};
use taureau_core::cost::{Dollars, FaasPricing};
use taureau_core::latency::{profiles, LatencyModel};
use taureau_core::metrics::{Counter, Histogram, MetricsRegistry};
use taureau_core::ratelimit::TokenBucket;
use taureau_core::rng::det_rng;
use taureau_core::trace::{SpanContext, Tracer};

use crate::billing::{BillingMeter, TenantAccount};
use crate::error::{FaasError, Result};
use crate::pool::{SandboxPool, StartKind};
use crate::stripe::CachePadded;
use crate::types::{FunctionSpec, InvocationCtx};

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Billing model.
    pub pricing: FaasPricing,
    /// Warm-container keep-alive window.
    pub keep_alive: Duration,
    /// Cold-start latency model.
    pub cold_start: LatencyModel,
    /// Warm-dispatch latency model.
    pub warm_start: LatencyModel,
    /// Optional per-tenant admission limit: (requests/sec, burst).
    pub tenant_rate_limit: Option<(f64, u64)>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            pricing: FaasPricing::default(),
            keep_alive: Duration::from_secs(600),
            cold_start: profiles::cold_start(),
            warm_start: profiles::warm_start(),
            tenant_rate_limit: None,
        }
    }
}

impl PlatformConfig {
    /// Deterministic configuration for tests: fixed cold/warm latencies.
    pub fn deterministic() -> Self {
        Self {
            cold_start: LatencyModel::Constant(Duration::from_millis(200)),
            warm_start: LatencyModel::Constant(Duration::from_millis(2)),
            ..Self::default()
        }
    }
}

/// Outcome of a successful invocation.
#[derive(Debug, Clone)]
pub struct InvocationResult {
    /// Handler output bytes. Refcounted: the same allocation the handler
    /// returned flows through DAG edges, state-machine steps, and trigger
    /// chains without further copies (the handler's `Vec<u8>` is converted
    /// once, here, at the Ok boundary).
    pub output: Bytes,
    /// Cold or warm start.
    pub start: StartKind,
    /// Injected startup latency (container init or dispatch).
    pub startup_latency: Duration,
    /// Measured handler execution time.
    pub exec_duration: Duration,
    /// Dollars billed for this invocation: under
    /// [`FaasPlatform::invoke_with_retries`], every billed attempt, the
    /// failed and timed-out ones included.
    pub cost: Dollars,
    /// Number of execution attempts (>1 when retried).
    pub attempts: u32,
}

/// A metric resolved by name on first use and by pointer afterwards. The
/// name still first appears in the registry on its first update (a fresh
/// platform exposes no metrics), and the invocation path stops paying a
/// shard lock and an `Arc` clone per lookup.
struct Lazy<M> {
    registry: MetricsRegistry,
    name: &'static str,
    resolve: fn(&MetricsRegistry, &str) -> Arc<M>,
    cell: OnceLock<Arc<M>>,
}

impl<M> Lazy<M> {
    fn new(
        registry: &MetricsRegistry,
        name: &'static str,
        resolve: fn(&MetricsRegistry, &str) -> Arc<M>,
    ) -> Self {
        Self {
            registry: registry.clone(),
            name,
            resolve,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &M {
        self.cell
            .get_or_init(|| (self.resolve)(&self.registry, self.name))
    }
}

/// The metrics the invocation path updates.
struct HotMetrics {
    cold_starts: Lazy<Counter>,
    warm_starts: Lazy<Counter>,
    invocations_ok: Lazy<Counter>,
    invocations_failed: Lazy<Counter>,
    throttled: Lazy<Counter>,
    concurrency_rejections: Lazy<Counter>,
    timeouts: Lazy<Counter>,
    retries: Lazy<Counter>,
    exec_duration_us: Lazy<Histogram>,
    invoke_latency_us: Lazy<Histogram>,
}

impl HotMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name| Lazy::new(registry, name, MetricsRegistry::counter);
        let histogram = |name| Lazy::new(registry, name, MetricsRegistry::histogram);
        Self {
            cold_starts: counter("cold_starts"),
            warm_starts: counter("warm_starts"),
            invocations_ok: counter("invocations_ok"),
            invocations_failed: counter("invocations_failed"),
            throttled: counter("throttled"),
            concurrency_rejections: counter("concurrency_rejections"),
            timeouts: counter("timeouts"),
            retries: counter("retries"),
            exec_duration_us: histogram("exec_duration_us"),
            invoke_latency_us: histogram("invoke_latency_us"),
        }
    }
}

/// A registered function, resolved once at `register`: everything an
/// invocation touches hangs off the one `Arc` it holds (upgraded from its
/// thread's [`RESOLVED`] slot, or cloned out of the registry).
/// Deregistering drops the registry's reference; invocations in flight
/// finish on the entry they hold.
struct FnEntry {
    spec: FunctionSpec,
    /// Executions admitted and not yet finished (≤ `spec.max_concurrency`).
    /// Alone on its cache line: every admit and release writes it, and
    /// the fields every invoke reads (`spec`, the two `Arc`s) stay clean.
    inflight: CachePadded<AtomicU32>,
    /// The function's warm containers; functions of one application share
    /// one pool (SAND).
    sandbox: Arc<SandboxPool>,
    /// The tenant's bill and admission limiter, shared by its functions.
    account: Arc<TenantAccount>,
}

impl FnEntry {
    /// Take a concurrency slot, or `None` at the cap.
    fn admit(&self) -> Option<Slot<'_>> {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.spec.max_concurrency).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot(&self.inflight.0))
    }
}

/// An admitted execution's concurrency slot, given back on drop — also
/// when the handler panics, so a crashing function cannot wedge itself at
/// its cap.
struct Slot<'a>(&'a AtomicU32);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Inner {
    /// Process-unique, never reused: names this platform in a thread's
    /// [`RESOLVED`] slot, where an address could be a dropped platform's.
    uid: u64,
    clock: SharedClock,
    cfg: PlatformConfig,
    /// An invocation that misses its thread's [`RESOLVED`] slot takes the
    /// read lock, clones the entry out and lets go; everything after is
    /// per-entry state. Lock order: registry, then (at `register` only)
    /// the billing meter's account table.
    registry: RwLock<HashMap<String, Arc<FnEntry>>>,
    /// Bumped under the registry write lock by every `register` and
    /// `deregister`: a slot filled at an older generation is stale.
    generation: AtomicU64,
    /// The one stream sampled start-up latencies draw from: a shared
    /// stream keeps the single-threaded draw order — and with it every
    /// experiment table — exactly reproducible. `Constant` models never
    /// take it.
    rng: Mutex<ChaCha8Rng>,
    billing: BillingMeter,
    metrics: MetricsRegistry,
    hot: HotMetrics,
    /// Read by copy ([`FaasPlatform::tracer`]): a disabled tracer is
    /// `None`, and no guard outlives the read.
    tracer: RwLock<Tracer>,
    /// Mirror of `tracer.is_enabled()`, stored under the write lock: when
    /// off, [`FaasPlatform::tracer`] is one load and takes no lock.
    tracer_on: AtomicBool,
}

/// Source of [`Inner::uid`].
static NEXT_PLATFORM_UID: AtomicU64 = AtomicU64::new(0);

/// The function this thread resolved last, on which platform, at which
/// registry generation. `Weak`, so a deregistered function's handler,
/// captures and warm pool are never kept alive by a slot.
struct Resolved {
    platform: u64,
    generation: u64,
    entry: Weak<FnEntry>,
}

thread_local! {
    /// One slot per thread: a thread that invokes one function over and
    /// over resolves it without writing the registry lock word.
    static RESOLVED: RefCell<Option<Resolved>> = const { RefCell::new(None) };
}

/// Subsystem label stamped on every span this crate emits.
const TRACE_SYSTEM: &str = "taureau-faas";

/// The serverless compute platform. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct FaasPlatform {
    inner: Arc<Inner>,
}

impl FaasPlatform {
    /// Create a platform on the given clock.
    pub fn new(cfg: PlatformConfig, clock: SharedClock) -> Self {
        let metrics = MetricsRegistry::new();
        Self {
            inner: Arc::new(Inner {
                uid: NEXT_PLATFORM_UID.fetch_add(1, Ordering::Relaxed),
                clock,
                registry: RwLock::new(HashMap::new()),
                generation: AtomicU64::new(0),
                rng: Mutex::new(det_rng(0xC01D)),
                billing: BillingMeter::new(cfg.pricing),
                hot: HotMetrics::new(&metrics),
                metrics,
                tracer: RwLock::new(Tracer::disabled()),
                tracer_on: AtomicBool::new(false),
                cfg,
            }),
        }
    }

    /// Default platform on a wall clock.
    pub fn with_defaults() -> Self {
        Self::new(PlatformConfig::default(), WallClock::shared())
    }

    /// The platform clock.
    pub fn clock(&self) -> &SharedClock {
        &self.inner.clock
    }

    /// Billing meter.
    pub fn billing(&self) -> &BillingMeter {
        &self.inner.billing
    }

    /// Metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Attach a tracer; every subsequent invocation records spans into it.
    pub fn set_tracer(&self, tracer: Tracer) {
        let mut cell = self.inner.tracer.write();
        self.inner
            .tracer_on
            .store(tracer.is_enabled(), Ordering::Release);
        *cell = tracer;
    }

    /// The currently attached tracer (disabled by default).
    pub fn tracer(&self) -> Tracer {
        if !self.inner.tracer_on.load(Ordering::Acquire) {
            return Tracer::disabled();
        }
        self.inner.tracer.read().clone()
    }

    /// Register a function.
    pub fn register(&self, spec: FunctionSpec) -> Result<()> {
        let inner = &*self.inner;
        let mut reg = inner.registry.write();
        if reg.contains_key(&spec.name) {
            return Err(FaasError::FunctionExists(spec.name));
        }
        let shared = spec.app.as_ref().and_then(|app| {
            reg.values()
                .find(|e| e.spec.app.as_ref() == Some(app))
                .map(|e| Arc::clone(&e.sandbox))
        });
        let account = inner.billing.account(&spec.tenant);
        if let Some((rate, burst)) = inner.cfg.tenant_rate_limit {
            account
                .limiter
                .get_or_init(|| TokenBucket::new(inner.clock.clone(), rate, burst));
        }
        let entry = FnEntry {
            inflight: CachePadded::default(),
            sandbox: shared.unwrap_or_else(|| Arc::new(SandboxPool::new(inner.cfg.keep_alive))),
            account,
            spec,
        };
        reg.insert(entry.spec.name.clone(), Arc::new(entry));
        inner.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Remove a function. Its warm containers go with it, unless other
    /// functions of its application still share them.
    pub fn deregister(&self, name: &str) -> Result<()> {
        let mut reg = self.inner.registry.write();
        reg.remove(name)
            .ok_or_else(|| FaasError::FunctionNotFound(name.to_string()))?;
        self.inner.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Resolve `function` through this thread's [`RESOLVED`] slot. A hit
    /// (same platform, same registry generation, same name) is one
    /// `Weak::upgrade`; a miss takes the registry read lock and refills
    /// the slot. The generation load is the linearization point: a
    /// `deregister` that returned before it is seen (Release/Acquire on
    /// `generation`), one that returns after it is an invoke that ran
    /// first.
    fn entry(&self, function: &str) -> Result<Arc<FnEntry>> {
        let inner = &*self.inner;
        let generation = inner.generation.load(Ordering::Acquire);
        let hit = RESOLVED.with_borrow(|slot| {
            slot.as_ref()
                .filter(|r| r.platform == inner.uid && r.generation == generation)
                .and_then(|r| r.entry.upgrade())
                .filter(|entry| entry.spec.name == function)
        });
        if let Some(entry) = hit {
            return Ok(entry);
        }
        let (entry, generation) = {
            let reg = inner.registry.read();
            let entry = reg
                .get(function)
                .cloned()
                .ok_or_else(|| FaasError::FunctionNotFound(function.to_string()))?;
            // Writers bump it under the write lock: stable while we read.
            (entry, inner.generation.load(Ordering::Relaxed))
        };
        RESOLVED.set(Some(Resolved {
            platform: inner.uid,
            generation,
            entry: Arc::downgrade(&entry),
        }));
        Ok(entry)
    }

    /// Pin `n` pre-warmed containers for a function (for app-grouped
    /// functions, the shared application sandbox is provisioned).
    pub fn provision(&self, function: &str, n: u32) -> Result<()> {
        let entry = self.entry(function)?;
        entry.sandbox.provision(n, self.inner.clock.now());
        Ok(())
    }

    /// (cold, warm) start counts so far.
    pub fn start_counts(&self) -> (u64, u64) {
        let count = |c: &Lazy<Counter>| c.cell.get().map_or(0, |c| c.get());
        (
            count(&self.inner.hot.cold_starts),
            count(&self.inner.hot.warm_starts),
        )
    }

    /// Idle warm containers for a function's sandbox (shared across the
    /// app for app-grouped functions); 0 for an unregistered function.
    #[cfg(test)]
    pub(crate) fn warm_count(&self, function: &str) -> usize {
        self.entry(function)
            .map_or(0, |entry| entry.sandbox.warm_count())
    }

    /// Invoke a function synchronously.
    pub fn invoke(&self, function: &str, payload: impl Into<Bytes>) -> Result<InvocationResult> {
        self.invoke_inner(function, payload.into(), 1, None)
    }

    /// Invoke a function as a causal continuation of `parent`: the
    /// `faas.invoke` span (and everything nested under it — admission,
    /// startup, execute, billing) joins the parent's trace instead of
    /// rooting a new one. This is how a message-triggered function links
    /// back to the publish that produced it: pass the
    /// [`SpanContext`] carried on `pulsar::Message::ctx`. With
    /// `parent: None` this is exactly [`FaasPlatform::invoke`].
    pub fn invoke_traced(
        &self,
        function: &str,
        payload: impl Into<Bytes>,
        parent: Option<SpanContext>,
    ) -> Result<InvocationResult> {
        self.invoke_inner(function, payload.into(), 1, parent)
    }

    /// Invoke with automatic re-execution on failure or timeout —
    /// "most FaaS platforms re-execute functions transparently on failure"
    /// (§4.1). At-least-once semantics: side effects of failed attempts
    /// are not rolled back, and neither are their charges: the result's
    /// `cost`, or the returned error's `billed` when every attempt
    /// failed, is the sum of every attempt's bill, in attempt order.
    pub fn invoke_with_retries(
        &self,
        function: &str,
        payload: impl Into<Bytes>,
        max_attempts: u32,
    ) -> Result<InvocationResult> {
        assert!(max_attempts >= 1);
        let payload = payload.into();
        let mut last_err = None;
        let mut billed = 0.0;
        for attempt in 1..=max_attempts {
            match self.invoke_inner(function, payload.clone(), attempt, None) {
                Ok(mut r) => {
                    r.cost += billed;
                    return Ok(r);
                }
                Err(e @ (FaasError::ExecutionFailed { .. } | FaasError::Timeout { .. })) => {
                    if attempt < max_attempts {
                        self.inner.hot.retries.get().inc();
                    }
                    billed += e.billed().unwrap_or(0.0);
                    last_err = Some(e);
                }
                Err(e) => return Err(e), // admission errors are not retried
            }
        }
        let mut err = last_err.expect("at least one attempt");
        if let FaasError::ExecutionFailed { billed: b, .. } | FaasError::Timeout { billed: b, .. } =
            &mut err
        {
            *b = billed;
        }
        Err(err)
    }

    fn invoke_inner(
        &self,
        function: &str,
        payload: Bytes,
        attempt: u32,
        parent: Option<SpanContext>,
    ) -> Result<InvocationResult> {
        let hot = &self.inner.hot;
        let tracer = self.tracer();
        let mut span = tracer.span_child_of(TRACE_SYSTEM, "faas.invoke", parent);
        span.attr("function", function);
        span.attr("attempt", attempt);

        let entry = self.entry(function)?;
        let spec = &entry.spec;
        span.attr("tenant", &spec.tenant);

        // Admission: tenant rate limit + per-function concurrency cap
        // (the request's time "in the front door" before a container is
        // committed to it).
        let _slot = {
            let mut admission = tracer.span(TRACE_SYSTEM, "faas.admission");
            if entry
                .account
                .limiter
                .get()
                .is_some_and(|l| !l.try_acquire(1))
            {
                hot.throttled.get().inc();
                admission.attr("outcome", "throttled");
                return Err(FaasError::Throttled {
                    tenant: spec.tenant.clone(),
                });
            }
            let Some(slot) = entry.admit() else {
                hot.concurrency_rejections.get().inc();
                admission.attr("outcome", "concurrency_limit");
                return Err(FaasError::ConcurrencyLimit {
                    function: spec.name.clone(),
                    limit: spec.max_concurrency,
                });
            };
            admission.attr("outcome", "admitted");
            slot
        };

        let result = self.execute(&tracer, &entry, payload, attempt);
        span.attr("outcome", if result.is_ok() { "ok" } else { "error" });
        result
    }

    /// Start-up delay to inject for a `kind` start.
    fn startup_latency(&self, kind: StartKind) -> Duration {
        let model = match kind {
            StartKind::Cold => &self.inner.cfg.cold_start,
            StartKind::Warm => &self.inner.cfg.warm_start,
        };
        match model {
            LatencyModel::Constant(d) => *d,
            sampled => sampled.sample(&mut *self.inner.rng.lock()),
        }
    }

    fn execute(
        &self,
        tracer: &Tracer,
        entry: &FnEntry,
        payload: Bytes,
        attempt: u32,
    ) -> Result<InvocationResult> {
        let clock = &self.inner.clock;
        let hot = &self.inner.hot;
        let spec = &entry.spec;
        // Fetched once per invocation: metric deltas ride the telemetry
        // stream alongside spans whenever a sink-bearing tracer is
        // attached; `None` (the default) costs nothing on the hot path.
        let sink = tracer.telemetry();
        let acquired_at = clock.now();
        let (start, startup_latency) = {
            let mut startup = tracer.span(TRACE_SYSTEM, "faas.startup");
            let start = entry.sandbox.acquire(acquired_at);
            let startup_latency = self.startup_latency(start);
            let (counter, metric, kind) = match start {
                StartKind::Cold => (&hot.cold_starts, "faas.cold_starts", "cold"),
                StartKind::Warm => (&hot.warm_starts, "faas.warm_starts", "warm"),
            };
            counter.get().inc();
            if let Some(sink) = &sink {
                sink.metric(metric, 1);
            }
            startup.attr("kind", kind);
            startup.attr("latency_us", startup_latency.as_micros() as u64);
            if !startup_latency.is_zero() {
                clock.sleep(startup_latency);
            }
            (start, startup_latency)
        };

        let ctx = InvocationCtx {
            payload,
            clock: &**clock,
        };
        let exec_span = tracer.span(TRACE_SYSTEM, "faas.execute");
        // With no start-up delay injected, the reading taken for the pool
        // is the start of execution: the same instant on a virtual clock,
        // a counter bump earlier on a wall clock.
        let t0 = if startup_latency.is_zero() {
            acquired_at
        } else {
            clock.now()
        };
        let output = (spec.handler)(&ctx);
        let finished = clock.now();
        let exec_duration = finished - t0;
        drop(exec_span);

        // Timeout enforcement (post-hoc: handlers are cooperative in this
        // in-process platform; the billed duration is capped at the limit,
        // as providers cap billing at the configured timeout).
        let pricing = self.inner.billing.pricing();
        if exec_duration > spec.timeout {
            hot.timeouts.get().inc();
            if let Some(sink) = &sink {
                sink.metric("faas.timeouts", 1);
            }
            let mut billing = tracer.span(TRACE_SYSTEM, "faas.billing");
            billing.attr("billed", "timeout_cap");
            let billed = entry.account.charge(pricing, spec.memory, spec.timeout);
            drop(billing);
            // The container is destroyed, not returned warm.
            return Err(FaasError::Timeout {
                limit: spec.timeout,
                ran: exec_duration,
                billed,
            });
        }

        let cost = {
            let mut billing = tracer.span(TRACE_SYSTEM, "faas.billing");
            let cost = entry.account.charge(pricing, spec.memory, exec_duration);
            billing.attr("cost_usd", cost);
            cost
        };
        hot.exec_duration_us
            .get()
            .record(exec_duration.as_micros() as u64);
        let total_duration = startup_latency + exec_duration;
        hot.invoke_latency_us
            .get()
            .record(total_duration.as_micros() as u64);
        if let Some(sink) = &sink {
            sink.metric("faas.invoke_latency_us", total_duration.as_micros() as u64);
            sink.metric(
                if output.is_ok() {
                    "faas.invocations_ok"
                } else {
                    "faas.invocations_failed"
                },
                1,
            );
        }

        // The container returns to the warm pool either way: a handler
        // error leaves the process alive, as on Lambda.
        entry.sandbox.release(finished);
        match output {
            Ok(bytes) => {
                hot.invocations_ok.get().inc();
                Ok(InvocationResult {
                    output: Bytes::from(bytes),
                    start,
                    startup_latency,
                    exec_duration,
                    cost,
                    attempts: attempt,
                })
            }
            Err(reason) => {
                hot.invocations_failed.get().inc();
                Err(FaasError::ExecutionFailed {
                    function: spec.name.clone(),
                    reason,
                    billed: cost,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use taureau_core::bytesize::ByteSize;
    use taureau_core::clock::VirtualClock;

    fn platform() -> (FaasPlatform, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        (
            FaasPlatform::new(PlatformConfig::deterministic(), clock.clone()),
            clock,
        )
    }

    /// Wall clock, no injected start-up delay: for tests that race threads.
    fn unpaced_wall_platform() -> FaasPlatform {
        let cfg = PlatformConfig {
            cold_start: LatencyModel::zero(),
            warm_start: LatencyModel::zero(),
            ..PlatformConfig::default()
        };
        FaasPlatform::new(cfg, WallClock::shared())
    }

    #[test]
    fn invoke_roundtrip() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("echo", "t", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        let r = p.invoke("echo", &b"hi"[..]).unwrap();
        assert_eq!(r.output, b"hi");
        assert_eq!(r.start, StartKind::Cold);
        assert!(r.cost > 0.0);
    }

    #[test]
    fn invoke_traced_joins_parent_trace() {
        use taureau_core::trace::{SpanContext, SpanId, TraceId};
        let (p, clock) = platform();
        let tracer = Tracer::new(clock);
        p.set_tracer(tracer.clone());
        p.register(FunctionSpec::new("f", "t", |_| Ok(vec![])))
            .unwrap();
        let parent = SpanContext {
            trace_id: TraceId(0xCAFE),
            span_id: SpanId(0xD00D),
        };
        p.invoke_traced("f", &[][..], Some(parent)).unwrap();
        let spans = tracer.spans();
        let invoke = spans.iter().find(|s| s.name == "faas.invoke").unwrap();
        assert_eq!(invoke.trace_id, parent.trace_id);
        assert_eq!(invoke.parent, Some(parent.span_id));
        // Nested platform spans ride along in the adopted trace.
        let exec = spans.iter().find(|s| s.name == "faas.execute").unwrap();
        assert_eq!(exec.trace_id, parent.trace_id);
        assert_eq!(exec.parent, Some(invoke.span_id));
        // No parent: identical to plain invoke — a fresh root trace.
        p.invoke_traced("f", &[][..], None).unwrap();
        let root = tracer
            .spans()
            .into_iter()
            .rfind(|s| s.name == "faas.invoke")
            .unwrap();
        assert_eq!(root.parent, None);
        assert_ne!(root.trace_id, parent.trace_id);
    }

    #[test]
    fn cold_then_warm_latency_gap() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("f", "t", |_| Ok(vec![])))
            .unwrap();
        let cold = p.invoke("f", &[][..]).unwrap();
        let warm = p.invoke("f", &[][..]).unwrap();
        assert_eq!(cold.start, StartKind::Cold);
        assert_eq!(warm.start, StartKind::Warm);
        assert_eq!(cold.startup_latency, Duration::from_millis(200));
        assert_eq!(warm.startup_latency, Duration::from_millis(2));
        assert_eq!(p.start_counts(), (1, 1));
    }

    #[test]
    fn keep_alive_expiry_brings_cold_back() {
        let clock = VirtualClock::shared();
        let cfg = PlatformConfig {
            keep_alive: Duration::from_secs(10),
            ..PlatformConfig::deterministic()
        };
        let p = FaasPlatform::new(cfg, clock.clone());
        p.register(FunctionSpec::new("f", "t", |_| Ok(vec![])))
            .unwrap();
        p.invoke("f", &[][..]).unwrap();
        clock.advance(Duration::from_secs(5));
        assert_eq!(p.invoke("f", &[][..]).unwrap().start, StartKind::Warm);
        clock.advance(Duration::from_secs(60));
        assert_eq!(p.invoke("f", &[][..]).unwrap().start, StartKind::Cold);
    }

    #[test]
    fn billing_uses_measured_duration_and_memory() {
        let (p, _) = platform();
        p.register(
            FunctionSpec::new("work", "tenant-a", |ctx| {
                ctx.burn(Duration::from_millis(250));
                Ok(vec![])
            })
            .with_memory(ByteSize::gb(1)),
        )
        .unwrap();
        let r = p.invoke("work", &[][..]).unwrap();
        assert_eq!(r.exec_duration, Duration::from_millis(250));
        // 250 ms rounds to 300 ms at 100 ms granularity.
        let expect =
            FaasPricing::default().invocation_cost(ByteSize::gb(1), Duration::from_millis(250));
        assert!((r.cost - expect).abs() < 1e-12);
        assert!((p.billing().total("tenant-a") - expect).abs() < 1e-12);
    }

    #[test]
    fn timeout_is_enforced_and_billed_at_cap() {
        let (p, _) = platform();
        p.register(
            FunctionSpec::new("slow", "t", |ctx| {
                ctx.burn(Duration::from_secs(10));
                Ok(vec![])
            })
            .with_timeout(Duration::from_secs(1)),
        )
        .unwrap();
        let err = p.invoke("slow", &[][..]).unwrap_err();
        assert!(matches!(err, FaasError::Timeout { .. }));
        // Billed exactly the timeout duration.
        let expect =
            FaasPricing::default().invocation_cost(ByteSize::mb(512), Duration::from_secs(1));
        assert!((p.billing().total("t") - expect).abs() < 1e-12);
        // Timed-out container was destroyed: next start is cold.
        assert_eq!(p.warm_count("slow"), 0);
    }

    #[test]
    fn handler_errors_surface_and_keep_container_warm() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("bad", "t", |_| Err("boom".to_string())))
            .unwrap();
        let err = p.invoke("bad", &[][..]).unwrap_err();
        assert!(matches!(err, FaasError::ExecutionFailed { ref reason, .. } if reason == "boom"));
        assert_eq!(p.warm_count("bad"), 1);
    }

    #[test]
    fn retries_reexecute_transparently() {
        let (p, _) = platform();
        let failures = Arc::new(AtomicU32::new(2));
        let f = failures.clone();
        p.register(FunctionSpec::new("flaky", "t", move |_| {
            if f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                Err("transient".into())
            } else {
                Ok(b"finally".to_vec())
            }
        }))
        .unwrap();
        let r = p.invoke_with_retries("flaky", &[][..], 5).unwrap();
        assert_eq!(r.output, b"finally");
        assert_eq!(r.attempts, 3);
        assert_eq!(p.metrics().counter("retries").get(), 2);
        // The result costs what the tenant was billed: all three
        // executions, the two failed ones included.
        assert_eq!(p.billing().invocations("t"), 3);
        assert!(r.cost > 0.0);
        assert_eq!(r.cost, p.billing().total("t"));
    }

    #[test]
    fn retries_exhaust_and_report_last_error() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("hopeless", "t", |_| Err("always".into())))
            .unwrap();
        let err = p.invoke_with_retries("hopeless", &[][..], 3).unwrap_err();
        assert!(matches!(err, FaasError::ExecutionFailed { .. }));
        assert_eq!(p.metrics().counter("invocations_failed").get(), 3);
        // Three attempts are two re-executions: the last failure is not
        // followed by another attempt.
        assert_eq!(p.metrics().counter("retries").get(), 2);
        // The error carries what the tenant was billed for all three.
        assert_eq!(p.billing().invocations("t"), 3);
        assert!(err.billed().unwrap() > 0.0);
        assert_eq!(err.billed(), Some(p.billing().total("t")));
    }

    #[test]
    fn concurrency_cap_rejects() {
        let (p, _) = platform();
        // A handler that reports the cap hit from a nested invoke: instead,
        // test the cap by registering concurrency 0-in-flight semantics via
        // the inflight map directly — simplest is a reentrant handler.
        let p2 = p.clone();
        p.register(FunctionSpec {
            max_concurrency: 1,
            ..FunctionSpec::new("outer", "t", move |_| {
                // While outer runs, its own slot is taken; invoking itself
                // must hit the cap of 1.
                match p2.invoke("outer", &[][..]) {
                    Err(FaasError::ConcurrencyLimit { .. }) => Ok(b"capped".to_vec()),
                    other => Err(format!("expected cap, got {other:?}")),
                }
            })
        })
        .unwrap();
        let r = p.invoke("outer", &[][..]).unwrap();
        assert_eq!(r.output, b"capped");
    }

    #[test]
    fn panicking_handler_gives_its_slot_back() {
        let (p, _) = platform();
        let left = AtomicU32::new(1);
        p.register(FunctionSpec {
            max_concurrency: 1,
            ..FunctionSpec::new("crashy", "t", move |_| {
                if left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    panic!("handler crashed");
                }
                Ok(vec![])
            })
        })
        .unwrap();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.invoke("crashy", &[][..]);
        }));
        assert!(crashed.is_err());
        // The slot came back; the container did not (it died with the
        // handler), so this start is cold again.
        let r = p.invoke("crashy", &[][..]).expect("slot was released");
        assert_eq!(r.start, StartKind::Cold);
        assert_eq!(p.warm_count("crashy"), 1);
    }

    #[test]
    fn shared_function_respects_its_cap_and_accounts_every_attempt() {
        const THREADS: usize = 8;
        const INVOKES: usize = 2_000;
        const CAP: u32 = 3;
        let p = unpaced_wall_platform();
        let i = AtomicU32::new(0);
        let peak = Arc::new(AtomicU32::new(0));
        let pk = peak.clone();
        p.register(FunctionSpec {
            max_concurrency: CAP,
            ..FunctionSpec::new("shared", "t", move |_| {
                let now = i.fetch_add(1, Ordering::SeqCst) + 1;
                pk.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                i.fetch_sub(1, Ordering::SeqCst);
                Ok(vec![])
            })
        })
        .unwrap();
        let barrier = std::sync::Barrier::new(THREADS);
        let (ok, rejected): (usize, usize) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (mut ok, mut rejected) = (0, 0);
                        for _ in 0..INVOKES {
                            match p.invoke("shared", &[][..]) {
                                Ok(_) => ok += 1,
                                Err(FaasError::ConcurrencyLimit { limit: CAP, .. }) => {
                                    rejected += 1;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected {e:?}"),
                            }
                        }
                        (ok, rejected)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        });
        assert!(peak.load(Ordering::SeqCst) <= CAP, "cap exceeded");
        assert_eq!(ok + rejected, THREADS * INVOKES);
        assert!(ok > 0);
        let entry = p.entry("shared").unwrap();
        assert_eq!(entry.inflight.load(Ordering::SeqCst), 0);
        assert_eq!(p.billing().invocations("t"), ok);
        let (cold, warm) = p.start_counts();
        assert_eq!((cold + warm) as usize, ok);
        assert!(
            cold <= u64::from(CAP),
            "{cold} containers for a cap of {CAP}"
        );
        assert_eq!(
            p.metrics().counter("concurrency_rejections").get() as usize,
            rejected
        );
    }

    #[test]
    fn reregistering_a_name_leaves_inflight_invocations_on_the_old_entry() {
        let p = unpaced_wall_platform();
        let (entered_tx, entered_rx) = crossbeam_channel::unbounded::<()>();
        let (resume_tx, resume_rx) = crossbeam_channel::unbounded::<()>();
        p.register(FunctionSpec {
            max_concurrency: 1,
            ..FunctionSpec::new("f", "t", move |_| {
                entered_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
                Ok(b"old".to_vec())
            })
        })
        .unwrap();
        std::thread::scope(|s| {
            let old = s.spawn(|| p.invoke("f", &[][..]));
            entered_rx.recv().unwrap();
            // The old version is mid-flight and at its cap of 1.
            let old_entry = p.entry("f").unwrap();
            assert_eq!(old_entry.inflight.load(Ordering::SeqCst), 1);
            p.deregister("f").unwrap();
            p.register(FunctionSpec {
                max_concurrency: 1,
                ..FunctionSpec::new("f", "t", |_| Ok(b"new".to_vec()))
            })
            .unwrap();
            // The new entry starts from zero: not capped by the old one,
            // and cold, because the old version's containers went with it.
            assert_eq!(p.entry("f").unwrap().inflight.load(Ordering::SeqCst), 0);
            let new = p.invoke("f", &[][..]).unwrap();
            assert_eq!(new.output, b"new");
            assert_eq!(new.start, StartKind::Cold);
            resume_tx.send(()).unwrap();
            assert_eq!(old.join().unwrap().unwrap().output, b"old");
            assert_eq!(old_entry.inflight.load(Ordering::SeqCst), 0);
        });
        assert_eq!(p.entry("f").unwrap().inflight.load(Ordering::SeqCst), 0);
        assert_eq!(p.billing().invocations("t"), 2);
    }

    /// A thread's resolution slot never outlives what it resolved: after
    /// `deregister` the name is gone, after re-registering the next invoke
    /// runs the new entry cold, and the slot keeps no handler alive.
    #[test]
    fn resolution_slot_follows_deregister_and_reregister() {
        let (p, _) = platform();
        let captured = Arc::new(());
        let held = captured.clone();
        p.register(FunctionSpec::new("f", "t", move |_| {
            let _ = &held;
            Ok(b"old".to_vec())
        }))
        .unwrap();
        p.invoke("f", &[][..]).unwrap();
        assert_eq!(p.invoke("f", &[][..]).unwrap().start, StartKind::Warm);
        p.deregister("f").unwrap();
        assert_eq!(Arc::strong_count(&captured), 1, "the slot kept the handler");
        assert!(matches!(
            p.invoke("f", &[][..]),
            Err(FaasError::FunctionNotFound(_))
        ));
        for version in [&b"new"[..], b"newer"] {
            p.register(FunctionSpec::new("f", "t", move |_| Ok(version.to_vec())))
                .unwrap();
            let r = p.invoke("f", &[][..]).unwrap();
            assert_eq!((&r.output[..], r.start), (version, StartKind::Cold));
            assert_eq!(p.invoke("f", &[][..]).unwrap().start, StartKind::Warm);
            // Straight to the next version: the slot still holds this one.
            p.deregister("f").unwrap();
        }
    }

    /// One thread alternating between platforms — including one built
    /// after another was dropped, at the same registry generation — runs
    /// each call on its own platform's handler.
    #[test]
    fn resolution_slot_tells_platforms_apart() {
        let serving = |out: &'static [u8]| {
            let (p, _) = platform();
            p.register(FunctionSpec::new("f", "t", move |_| Ok(out.to_vec())))
                .unwrap();
            p
        };
        let (a, b) = (serving(b"a"), serving(b"b"));
        for _ in 0..3 {
            assert_eq!(a.invoke("f", &[][..]).unwrap().output, b"a"[..]);
            assert_eq!(b.invoke("f", &[][..]).unwrap().output, b"b"[..]);
        }
        drop(b);
        let c = serving(b"c");
        assert_eq!(c.invoke("f", &[][..]).unwrap().output, b"c"[..]);
        assert_eq!(a.invoke("f", &[][..]).unwrap().output, b"a"[..]);
    }

    /// One thread invokes while another deregisters and re-registers the
    /// name: no call that starts after a `deregister` returned runs the
    /// handler it removed, and nothing but `FunctionNotFound` shows the
    /// gap. The outgoing entry is kept alive past its `deregister`, as an
    /// invocation in flight elsewhere would keep it, so a slot could still
    /// upgrade it: only the generation says it is stale. Watchdog: a stall
    /// fails instead of hanging.
    #[test]
    fn invokes_racing_reregistration_never_run_a_removed_handler() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        const ROUNDS: u64 = 1_000;
        let p = unpaced_wall_platform();
        let version = |v: u64| FunctionSpec::new("f", "t", move |_| Ok(v.to_le_bytes().to_vec()));
        p.register(version(0)).unwrap();
        // Deregisters that have returned; version `v` was removed by the
        // `v + 1`-th.
        let removed = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(2));
        // Each thread reports once: `None`, or what it saw go wrong.
        let (done_tx, done_rx) = crossbeam_channel::unbounded::<Option<String>>();
        let invoker = {
            let (p, removed, stop, start, done) = (
                p.clone(),
                removed.clone(),
                stop.clone(),
                start.clone(),
                done_tx.clone(),
            );
            std::thread::spawn(move || {
                start.wait();
                let mut wrong = None;
                while wrong.is_none() && !stop.load(Ordering::Acquire) {
                    let floor = removed.load(Ordering::Acquire);
                    wrong = match p.invoke("f", &[][..]) {
                        Ok(r) => {
                            let v = u64::from_le_bytes(r.output[..].try_into().unwrap());
                            (v < floor)
                                .then(|| format!("ran version {v} after {floor} deregisters"))
                        }
                        Err(FaasError::FunctionNotFound(_)) => None,
                        Err(e) => Some(format!("unexpected {e:?}")),
                    };
                }
                done.send(wrong).unwrap();
            })
        };
        let flipper = std::thread::spawn(move || {
            start.wait();
            for v in 1..=ROUNDS {
                let outgoing = p.entry("f").unwrap();
                p.deregister("f").unwrap();
                removed.store(v, Ordering::Release);
                p.register(version(v)).unwrap();
                drop(outgoing);
            }
            stop.store(true, Ordering::Release);
            done_tx.send(None).unwrap();
        });
        for _ in 0..2 {
            let wrong = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a thread stalled while `f` was being re-registered");
            assert_eq!(wrong, None);
        }
        flipper.join().unwrap();
        invoker.join().unwrap();
    }

    #[test]
    fn metric_names_appear_on_first_update_not_before() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("f", "t", |_| Ok(vec![])))
            .unwrap();
        assert_eq!(p.start_counts(), (0, 0));
        assert!(p.metrics().counter_values().is_empty());
        assert_eq!(p.metrics().render_prometheus(), "");
        p.invoke("f", &[][..]).unwrap();
        let names = |v: Vec<(String, u64)>| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(
            names(p.metrics().counter_values()),
            ["cold_starts", "invocations_ok"]
        );
        p.invoke("f", &[][..]).unwrap();
        assert_eq!(
            names(p.metrics().counter_values()),
            ["cold_starts", "invocations_ok", "warm_starts"]
        );
        assert_eq!(p.start_counts(), (1, 1));
    }

    /// Sampled start-up models draw from the platform's one RNG stream in
    /// invocation order; the values are the ones the pool-wide RNG gave
    /// before the pool moved into the registry entries.
    #[test]
    fn sampled_startup_latencies_keep_their_draw_order() {
        let clock = VirtualClock::shared();
        let p = FaasPlatform::new(PlatformConfig::default(), clock.clone());
        for f in ["a", "b"] {
            p.register(FunctionSpec::new(f, "t", |_| Ok(vec![])))
                .unwrap();
        }
        let mut nanos = Vec::new();
        for i in 0..100u64 {
            let f = if i % 3 == 0 { "b" } else { "a" };
            nanos.push(p.invoke(f, &[][..]).unwrap().startup_latency.as_nanos() as u64);
            if i % 10 == 9 {
                clock.advance(Duration::from_secs(601));
            }
        }
        assert_eq!(
            nanos[..8],
            [
                191_732_000,
                309_040_000,
                3_614_000,
                2_999_000,
                2_002_000,
                2_951_000,
                2_968_000,
                3_382_000
            ]
        );
        assert_eq!(nanos.iter().sum::<u64>(), 4_472_753_000);
        assert_eq!(p.start_counts(), (20, 80));
    }

    #[test]
    fn keep_alive_expires_every_functions_containers() {
        let clock = VirtualClock::shared();
        let cfg = PlatformConfig {
            keep_alive: Duration::from_secs(1),
            ..PlatformConfig::deterministic()
        };
        let p = FaasPlatform::new(cfg, clock.clone());
        for f in ["a", "b", "c"] {
            p.register(FunctionSpec::new(f, "t", |_| Ok(vec![])))
                .unwrap();
            p.invoke(f, &[][..]).unwrap();
            assert_eq!(p.warm_count(f), 1);
        }
        clock.advance(Duration::from_secs(100));
        // Each function starts cold, and the expired container is gone:
        // only the fresh one is back in its pool.
        for f in ["a", "b", "c"] {
            assert_eq!(p.invoke(f, &[][..]).unwrap().start, StartKind::Cold);
            assert_eq!(p.warm_count(f), 1);
        }
    }

    #[test]
    fn tenant_rate_limit_throttles() {
        let clock = VirtualClock::shared();
        let cfg = PlatformConfig {
            tenant_rate_limit: Some((1.0, 3)),
            ..PlatformConfig::deterministic()
        };
        let p = FaasPlatform::new(cfg, clock.clone());
        p.register(FunctionSpec::new("f", "noisy", |_| Ok(vec![])))
            .unwrap();
        for _ in 0..3 {
            p.invoke("f", &[][..]).unwrap();
        }
        assert!(matches!(
            p.invoke("f", &[][..]),
            Err(FaasError::Throttled { .. })
        ));
        // Tokens refill with time.
        clock.advance(Duration::from_secs(2));
        assert!(p.invoke("f", &[][..]).is_ok());
    }

    #[test]
    fn provisioned_concurrency_eliminates_cold_starts() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("hot", "t", |_| Ok(vec![])))
            .unwrap();
        p.provision("hot", 2).unwrap();
        assert_eq!(p.invoke("hot", &[][..]).unwrap().start, StartKind::Warm);
        assert_eq!(p.start_counts().0, 0, "no cold starts with pre-warming");
    }

    #[test]
    fn sand_style_app_sandbox_sharing() {
        // Two different functions in one app: the second rides the first's
        // warm sandbox (SAND). A third function outside the app stays cold.
        let (p, _) = platform();
        p.register(FunctionSpec::new("parse", "t", |_| Ok(vec![])).with_app("pipeline"))
            .unwrap();
        p.register(FunctionSpec::new("store", "t", |_| Ok(vec![])).with_app("pipeline"))
            .unwrap();
        p.register(FunctionSpec::new("stranger", "t", |_| Ok(vec![])))
            .unwrap();
        assert_eq!(p.invoke("parse", &[][..]).unwrap().start, StartKind::Cold);
        assert_eq!(
            p.invoke("store", &[][..]).unwrap().start,
            StartKind::Warm,
            "same-app function should reuse the sandbox"
        );
        assert_eq!(
            p.invoke("stranger", &[][..]).unwrap().start,
            StartKind::Cold,
            "other apps stay isolated"
        );
    }

    #[test]
    fn provisioning_app_grouped_functions_prewarm_the_shared_sandbox() {
        let (p, _) = platform();
        p.register(FunctionSpec::new("f", "t", |_| Ok(vec![])).with_app("grp"))
            .unwrap();
        p.provision("f", 2).unwrap();
        assert_eq!(p.warm_count("f"), 2);
        assert_eq!(
            p.invoke("f", &[][..]).unwrap().start,
            StartKind::Warm,
            "provisioned app sandbox must serve warm"
        );
        assert_eq!(p.start_counts().0, 0);
    }

    #[test]
    fn unknown_function_and_duplicates() {
        let (p, _) = platform();
        assert!(matches!(
            p.invoke("ghost", &[][..]),
            Err(FaasError::FunctionNotFound(_))
        ));
        p.register(FunctionSpec::new("f", "t", |_| Ok(vec![])))
            .unwrap();
        assert!(matches!(
            p.register(FunctionSpec::new("f", "t", |_| Ok(vec![]))),
            Err(FaasError::FunctionExists(_))
        ));
        p.deregister("f").unwrap();
        assert!(p.inner.registry.read().is_empty());
    }

    #[test]
    fn concurrent_invocations_from_threads() {
        let p = FaasPlatform::new(PlatformConfig::deterministic(), WallClock::shared());
        p.register(FunctionSpec::new("f", "t", |ctx| Ok(ctx.payload.to_vec())))
            .unwrap();
        let mut handles = vec![];
        for t in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                (0..25)
                    .map(|i| p.invoke("f", vec![t as u8, i as u8]).unwrap().output)
                    .collect::<Vec<_>>()
            }));
        }
        let outputs: Vec<bytes::Bytes> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(outputs.len(), 100);
        assert_eq!(p.billing().invocations("t"), 100);
    }
}
