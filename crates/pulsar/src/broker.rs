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

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Mutex, RwLock};
use taureau_core::clock::{SharedClock, WallClock};
use taureau_core::hash::hash64;
use taureau_core::id::LedgerId;
use taureau_core::metrics::{Counter, MetricsRegistry};
use taureau_core::sync::{ContentionProfiler, LockSite, ShardedMap};
use taureau_core::trace::{SpanContext, Tracer};

use crate::bookie::Bookie;
use crate::error::{PulsarError, Result};
use crate::framing::OffsetTable;
use crate::ledger::{BookKeeper, LedgerConfig, LedgerWriter};
use crate::message::{EntryView, Message, MessageId};
use crate::metadata::MetadataStore;

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

impl SubscriptionMode {
    fn encode(self) -> &'static str {
        match self {
            SubscriptionMode::Exclusive => "exclusive",
            SubscriptionMode::Shared => "shared",
            SubscriptionMode::Failover => "failover",
        }
    }

    fn decode(s: &str) -> Option<Self> {
        match s {
            "exclusive" => Some(SubscriptionMode::Exclusive),
            "shared" => Some(SubscriptionMode::Shared),
            "failover" => Some(SubscriptionMode::Failover),
            _ => None,
        }
    }
}

// --------------------------------------------------------------------------
// Entry codec.
//
// Unbatched: `[key_len u32 | key | publish_nanos u64 | payload]`.
//
// Batched (producer-side batching, one group-committed ledger entry for N
// messages): the `key_len` slot holds [`BATCH_MARKER`] — impossible for a
// real key, whose length is bounded far below `u32::MAX` — followed by
//
// `[BATCH_MARKER u32 | count u32 | publish_nanos u64 |
//   end_offset u32 × count | payload bytes…]`
//
// `end_offset[i]` is the exclusive end of payload `i` relative to the start
// of the payload section, so decoding message `i` is O(1): slice between
// `end_offset[i-1]` (0 for the first) and `end_offset[i]`. Batched messages
// are key-less (a partition key exists to *route*, and the whole batch
// routes together); they share one publish timestamp — the group commit
// persists them at the same instant.
//
// Decoded keys and payloads are zero-copy [`Bytes::slice`] views into the
// replicated entry buffer.

/// `key_len` sentinel marking the batched entry format.
const BATCH_MARKER: u32 = u32::MAX;

/// `key_len` sentinel marking a trace-context header: the next
/// [`SpanContext::WIRE_LEN`] bytes carry the publish span's identity, and
/// the rest of the buffer is a complete classic entry (unbatched *or*
/// batched — the inner format keeps its own marker). Like
/// [`BATCH_MARKER`], this value is impossible for a real key length, so
/// pre-context entries decode unchanged. The context rides in the entry
/// *header*, never the payload: decoded keys/payloads remain zero-copy
/// slices of the one replicated buffer.
const CTX_MARKER: u32 = u32::MAX - 1;

/// Prefix `entry` with a trace-context header when `ctx` is present.
/// Untraced publishes (`ctx: None`) produce bit-identical classic entries,
/// so enabling tracing later never invalidates stored ledgers.
fn with_ctx_header(ctx: Option<SpanContext>, entry: Bytes) -> Bytes {
    let Some(ctx) = ctx else {
        return entry;
    };
    let mut buf = BytesMut::with_capacity(4 + SpanContext::WIRE_LEN + entry.len());
    buf.put_u32_le(CTX_MARKER);
    buf.put_slice(&ctx.to_bytes());
    buf.put_slice(&entry);
    buf.freeze()
}

/// Strip a trace-context header, returning the carried context (if any)
/// and the inner classic entry as a zero-copy slice.
fn split_ctx(bytes: &Bytes) -> (Option<SpanContext>, Bytes) {
    const HDR: usize = 4 + SpanContext::WIRE_LEN;
    if bytes.len() >= HDR && bytes[0..4] == CTX_MARKER.to_le_bytes() {
        if let Some(ctx) = SpanContext::from_bytes(&bytes[4..HDR]) {
            return (Some(ctx), bytes.slice(HDR..));
        }
    }
    (None, bytes.clone())
}

fn encode_entry(key: Option<&[u8]>, publish_nanos: u64, payload: &[u8]) -> Bytes {
    let key = key.unwrap_or(&[]);
    let mut buf = BytesMut::with_capacity(4 + key.len() + 8 + payload.len());
    buf.put_u32_le(key.len() as u32);
    buf.put_slice(key);
    buf.put_u64_le(publish_nanos);
    buf.put_slice(payload);
    buf.freeze()
}

fn decode_entry(bytes: &Bytes) -> Option<(Option<Bytes>, u64, Bytes)> {
    if bytes.len() < 12 {
        return None;
    }
    let key_len = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
    if bytes.len() < 4 + key_len + 8 {
        return None;
    }
    let key = if key_len == 0 {
        None
    } else {
        Some(bytes.slice(4..4 + key_len))
    };
    let ts = u64::from_le_bytes(bytes[4 + key_len..4 + key_len + 8].try_into().ok()?);
    let payload = bytes.slice(4 + key_len + 8..);
    Some((key, ts, payload))
}

/// Frame `payloads` as one batched entry; refused — before any buffer is
/// sized for it — when the payloads pass the 4 GiB a `u32` end offset can
/// address.
fn encode_batch_entry<T: AsRef<[u8]>>(publish_nanos: u64, payloads: &[T]) -> Result<Bytes> {
    let lens = || payloads.iter().map(|p| p.as_ref().len());
    let too_large = || PulsarError::BatchTooLarge {
        messages: payloads.len(),
    };
    let total = crate::framing::packed_len(lens()).ok_or_else(too_large)?;
    let mut buf = BytesMut::with_capacity(16 + 4 * payloads.len() + total as usize);
    buf.put_u32_le(BATCH_MARKER);
    buf.put_u32_le(payloads.len() as u32);
    buf.put_u64_le(publish_nanos);
    crate::framing::put_ends(&mut buf, lens()).ok_or_else(too_large)?;
    for p in payloads {
        buf.put_slice(p.as_ref());
    }
    Ok(buf.freeze())
}

fn is_batch_entry(bytes: &Bytes) -> bool {
    bytes.len() >= 16 && bytes[0..4] == BATCH_MARKER.to_le_bytes()
}

/// Parse a batched entry's framing **once**: the shared publish timestamp
/// and the validated offset-table index. `None` if the buffer is not
/// batch-framed (it is then a classic unbatched entry) or is corrupt.
/// Every per-message access afterwards is O(1) against the returned
/// [`OffsetTable`] — there is no per-message re-parse path.
fn parse_batch_entry(bytes: &Bytes) -> Option<(u64, OffsetTable)> {
    if !is_batch_entry(bytes) {
        return None;
    }
    let count = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let ts = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let table = OffsetTable::parse(bytes, count, 16)?;
    Some((ts, table))
}

/// A ledger entry as the partition read caches hold it: trace header
/// peeled and batch framing parsed **once, where the cache is filled**.
/// Ledger entries are immutable, so nothing derived from their bytes can
/// go stale; a dispatch scan clones this (one refcount bump and a few
/// words) instead of re-proving the framing on every pass.
#[derive(Debug, Clone)]
struct CachedEntry {
    /// The classic entry, any trace-context header already peeled.
    raw: Bytes,
    /// Publish-span context carried in the peeled header.
    ctx: Option<SpanContext>,
    /// Shared publish timestamp and validated offset table of a batched
    /// entry. `None` for an unbatched entry — and for corrupt batch
    /// framing, which dispatch then refuses through [`decode_entry`]
    /// exactly as an unparsable unbatched entry: a table is only ever
    /// cached validated.
    batch: Option<(u64, OffsetTable)>,
}

impl CachedEntry {
    /// The one place an entry's bytes are interpreted. For an unbatched
    /// entry (every `pipeline_small` publish) this is a four-byte marker
    /// compare, a refcount bump and one `is_batch_entry` test.
    fn parse(bytes: &Bytes) -> Self {
        let (ctx, raw) = split_ctx(bytes);
        let batch = parse_batch_entry(&raw);
        Self { raw, ctx, batch }
    }
}

// --------------------------------------------------------------------------

/// Next position a subscription will read, per partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadPos {
    /// Index into the partition's segment list.
    seg: usize,
    /// Entry within that segment.
    entry: u64,
    /// Message index within a batched entry (0 for unbatched entries or at
    /// an entry boundary).
    batch: u32,
}

impl ReadPos {
    /// The beginning of a partition.
    const START: ReadPos = ReadPos {
        seg: 0,
        entry: 0,
        batch: 0,
    };

    /// First message of entry `entry` in segment `seg`.
    fn at(seg: usize, entry: u64) -> Self {
        Self {
            seg,
            entry,
            batch: 0,
        }
    }
}

#[derive(Debug)]
struct SubState {
    mode: SubscriptionMode,
    /// Per-partition read position.
    read: Vec<ReadPos>,
    /// Per-partition mark-delete: everything at or before this is acked.
    mark_delete: Vec<Option<MessageId>>,
    /// Individually acked messages above the mark-delete position. Always
    /// entry-level ([`MessageId::canonical`]) ids: a batched entry enters
    /// this set only once *all* its messages are acked.
    acked: BTreeSet<MessageId>,
    /// Delivered-but-unacked message counts, **entry-granular**, one
    /// ordered queue per partition: dispatch bumps one counter per *entry*
    /// at the back, acks decrement (in-order ones at the front), and
    /// redelivery forgets the lot. See [`PendingQueue`].
    pending: Vec<PendingQueue>,
    /// Sum of the `pending` counts — what redelivery reports, maintained
    /// incrementally so it never needs a walk.
    pending_total: u64,
    /// Acked message indices of partially-acked batched entries, keyed by
    /// the entry's canonical id. In-memory only: a broker restart forgets
    /// partial acks and redelivers the whole entry — the same at-least-once
    /// contract unacked messages already have.
    partial: BTreeMap<MessageId, BTreeSet<u32>>,
    /// Attached consumers (by id); order matters for failover.
    consumers: Vec<u64>,
    /// Metadata key of each partition's persisted cursor, built once so an
    /// ack that moves the cursor formats nothing.
    cursor_keys: Vec<String>,
}

impl SubState {
    /// A subscription of `topic` with nothing delivered or individually
    /// acked yet, positioned at `read` / `mark_delete` (one per partition).
    fn new(
        topic: &str,
        name: &str,
        mode: SubscriptionMode,
        read: Vec<ReadPos>,
        mark_delete: Vec<Option<MessageId>>,
    ) -> Self {
        Self {
            mode,
            cursor_keys: (0..read.len())
                .map(|p| cursor_key(topic, p, name))
                .collect(),
            pending: vec![PendingQueue::default(); read.len()],
            read,
            mark_delete,
            acked: BTreeSet::new(),
            pending_total: 0,
            partial: BTreeMap::new(),
            consumers: Vec::new(),
        }
    }
}

/// One partition's delivered-but-unacked entries: `(ledger, entry,
/// outstanding messages)` in dispatch order, which within a partition is
/// `(ledger, entry)` order — ledger ids grow over rollovers. The common
/// cases touch only the ends (dispatch pushes at the back or re-bumps it,
/// an in-order ack decrements the front); anything else is a binary
/// search. An entry acked out of order from the middle stays as a
/// zero-count tombstone rather than shifting the queue; the ends are
/// never tombstones, so the queue is empty exactly when nothing is
/// outstanding, and its buffer is reused across redeliveries.
#[derive(Debug, Clone, Default)]
struct PendingQueue(VecDeque<(LedgerId, u64, u32)>);

impl PendingQueue {
    fn find(&self, ledger: LedgerId, entry: u64) -> std::result::Result<usize, usize> {
        self.0
            .binary_search_by_key(&(ledger, entry), |&(l, e, _)| (l, e))
    }

    /// Record `n` more outstanding deliveries of one entry.
    fn add(&mut self, ledger: LedgerId, entry: u64, n: u32) {
        if n == 0 {
            return;
        }
        match self.0.back_mut() {
            None => self.0.push_back((ledger, entry, n)),
            Some(back) if (back.0, back.1) == (ledger, entry) => back.2 += n,
            Some(back) if (back.0, back.1) < (ledger, entry) => {
                self.0.push_back((ledger, entry, n));
            }
            Some(_) => match self.find(ledger, entry) {
                Ok(at) => self.0[at].2 += n,
                Err(at) => self.0.insert(at, (ledger, entry, n)),
            },
        }
    }

    /// Drop up to `n` outstanding deliveries of one entry; returns how
    /// many there were to drop (a duplicate or never-delivered ack finds
    /// fewer, or none).
    fn take(&mut self, ledger: LedgerId, entry: u64, n: u32) -> u32 {
        let at = match self.0.front() {
            Some(front) if (front.0, front.1) == (ledger, entry) => 0,
            _ => match self.find(ledger, entry) {
                Ok(at) => at,
                Err(_) => return 0,
            },
        };
        let count = &mut self.0[at].2;
        let taken = (*count).min(n);
        *count -= taken;
        if *count == 0 {
            if at == 0 {
                self.0.pop_front();
                while self.0.front().is_some_and(|f| f.2 == 0) {
                    self.0.pop_front();
                }
            } else if at + 1 == self.0.len() {
                self.0.pop_back();
                while self.0.back().is_some_and(|b| b.2 == 0) {
                    self.0.pop_back();
                }
            }
        }
        taken
    }

    /// Forget everything (redelivery); the buffer stays.
    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Metadata key of `subscription`'s persisted cursor on partition `p`.
fn cursor_key(topic: &str, p: usize, subscription: &str) -> String {
    format!("/topics/{topic}/{p}/cursor/{subscription}")
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
    /// Entries are held parsed ([`CachedEntry`]): the publish that
    /// appended an entry is also the one time its framing is validated.
    tail: Vec<CachedEntry>,
    /// Immutable snapshots of sealed (closed) segments, built whole — and
    /// parsed, once — on first read, or inherited from `tail` at rollover,
    /// and shared by refcount thereafter. Sealed ledgers never change, so
    /// neither the bytes nor what was derived from them ever invalidate;
    /// snapshots are evicted on trim and on cold-tier offload.
    sealed: HashMap<LedgerId, Arc<Vec<CachedEntry>>>,
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

    /// Position of ledger `lid` in the segment list, if it has not been
    /// trimmed away.
    fn seg_index(&self, lid: LedgerId) -> Option<usize> {
        self.segments.iter().position(|&l| l == lid)
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
    fn cached(&self, lid: LedgerId) -> Option<&[CachedEntry]> {
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

/// Ownership check installed by a cluster layer: returns `true` while this
/// broker instance may serve the named topic. Consulted on every publish,
/// dispatch, ack, and subscribe, so a broker deposed by a newer ownership
/// epoch fails fast with [`PulsarError::Fenced`] instead of serving (or
/// corrupting) state it no longer owns.
pub type FenceCheck = Arc<dyn Fn(&str) -> bool + Send + Sync>;

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
    /// Broker-side topic state, sharded by topic-name hash so operations on
    /// different topics never serialize on one broker-wide lock. Lock
    /// ordering: topic shard → metadata shard → tier/quotas mutex; nothing
    /// acquires a topic shard while holding another, so no cycles.
    topics: ShardedMap<String, Topic>,
    /// Topic partition counts: immutable after `create_topic`, so lookups
    /// (producer attach, subscribe, cluster routing) never touch the
    /// metadata store after the first resolution.
    parts_cache: RwLock<HashMap<String, u32>>,
    metrics: MetricsRegistry,
    /// Hot-path counters resolved once — no name lookup per message.
    c_published: Arc<Counter>,
    c_delivered: Arc<Counter>,
    tracer: RwLock<Tracer>,
    next_consumer: AtomicU64,
    /// When set, `receive_scan` attributes its wall time across dispatch
    /// phases (lock acquisition, cursor bookkeeping, entry reads, decode,
    /// delivery) into the metrics registry. One relaxed load per scan when
    /// off; see [`PulsarCluster::set_dispatch_profiling`].
    dispatch_prof: AtomicBool,
    /// Optional cold tier for sealed segments (§4.3 "tiered storage").
    tier: Mutex<Option<crate::tiering::TierBackend>>,
    /// Per-tenant retained-entry quotas (§4.3 "multi-tenancy").
    quotas: Mutex<HashMap<String, u64>>,
    /// Set (and never cleared) by the first `set_tenant_quota`: until then
    /// `quotas` is empty and a publish has no quota to look up.
    quotas_in_use: AtomicBool,
}

/// Snapshot of dispatch-phase attribution: cumulative nanosecond totals
/// per phase since the cluster was created (counters only advance while
/// [`PulsarCluster::set_dispatch_profiling`] is on). `wall_ns` covers the
/// whole `receive_scan` call; the five phases are measured directly
/// against the same clock, so `wall_ns - explained_ns()` is the honest
/// unattributed remainder (loop control, span bookkeeping, closure
/// entry/exit) — it is *not* forced to zero by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchProfile {
    /// `receive_scan` calls profiled.
    pub scans: u64,
    /// Messages delivered by profiled scans.
    pub messages: u64,
    /// Total wall time of profiled scans.
    pub wall_ns: u64,
    /// Topic-shard lock acquisition: entering the shard (hash, lock wait,
    /// lazy topic rebuild). Cross-check against the `pulsar.topics`
    /// [`LockSite`] wait histogram for the blocked component alone.
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
    /// Decode: view stamping on the entry path and — on the per-message
    /// [`receive_batch`](Consumer::receive_batch) path — message
    /// materialization (zero-copy slicing, ids, per-message trace spans)
    /// in the out-of-lock phase. Batch framing is not parsed by a scan:
    /// that happens once, where the read caches are filled.
    pub decode_ns: u64,
    /// Delivery callback (`on_msg`) — consumer-side work.
    pub deliver_ns: u64,
}

impl DispatchProfile {
    /// Named phases, in pipeline order.
    pub fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("topic_shard_lock", self.lock_ns),
            ("cursor_bookkeeping", self.cursor_ns),
            ("entry_read", self.read_ns),
            ("decode", self.decode_ns),
            ("deliver", self.deliver_ns),
        ]
    }

    /// Sum of the directly measured phases.
    pub fn explained_ns(&self) -> u64 {
        self.phases().iter().map(|(_, ns)| ns).sum()
    }

    /// Fraction of dispatch wall time the named phases account for.
    pub fn explained_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            (self.explained_ns() as f64 / self.wall_ns as f64).min(1.0)
        }
    }

    /// The most expensive phase — the dispatch-side bottleneck.
    pub fn top_phase(&self) -> (&'static str, u64) {
        self.phases()
            .into_iter()
            .max_by_key(|(_, ns)| *ns)
            .unwrap_or(("none", 0))
    }
}

/// Checkpoint clock for phase attribution: `tick` charges the time since
/// the previous checkpoint to one accumulator. Inert (no clock reads)
/// when constructed off.
struct PhaseClock {
    last: Option<Instant>,
}

impl PhaseClock {
    fn start(on: bool) -> Self {
        Self {
            last: on.then(Instant::now),
        }
    }

    #[inline]
    fn tick(&mut self, acc: &mut u64) {
        if let Some(last) = self.last {
            let now = Instant::now();
            *acc += now.duration_since(last).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

/// Per-scan phase accumulators, flushed to the metrics registry once per
/// `receive_scan` (striped-counter adds; no per-message registry lookups).
#[derive(Default)]
struct DispatchAcc {
    lock_ns: u64,
    cursor_ns: u64,
    read_ns: u64,
    decode_ns: u64,
    deliver_ns: u64,
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
            Arc::new((0..cfg.bookies).map(|i| Arc::new(Bookie::new(i))).collect());
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
                topics: ShardedMap::new(),
                parts_cache: RwLock::new(HashMap::new()),
                metrics,
                c_published,
                c_delivered,
                tracer: RwLock::new(Tracer::disabled()),
                next_consumer: AtomicU64::new(0),
                dispatch_prof: AtomicBool::new(false),
                tier: Mutex::new(None),
                quotas: Mutex::new(HashMap::new()),
                quotas_in_use: AtomicBool::new(false),
            }),
        }
    }

    /// Install a topic-ownership fence (see [`FenceCheck`]). The cluster
    /// layer points this at its epoch-fenced lease table; operations on
    /// topics the check rejects fail with [`PulsarError::Fenced`].
    /// Install-once: a broker's fence is part of its identity, so a second
    /// call is refused — it returns `false` and the first check stays.
    pub fn set_fence_check(&self, check: FenceCheck) -> bool {
        self.inner.fence_check.set(check).is_ok()
    }

    /// Shared metadata store (cluster layer + tests).
    pub fn metadata(&self) -> &Arc<MetadataStore> {
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
        *self.inner.tracer.write() = tracer;
    }

    /// The attached tracer (disabled unless [`PulsarCluster::set_tracer`]
    /// was called). A copy: a disabled tracer is `None`, an enabled one
    /// shares its span buffer, and no lock outlives this call.
    pub fn tracer(&self) -> Tracer {
        self.inner.tracer.read().clone()
    }

    /// Direct BookKeeper access (used by benches).
    pub fn bookkeeper(&self) -> &BookKeeper {
        &self.inner.bk
    }

    /// Attach a contention [`LockSite`] named `pulsar.topics` to the
    /// broker's topic-shard map and register it with `prof`: every
    /// `with_topic` acquisition (publish, dispatch, ack, cursor and
    /// subscription maintenance) then reports per-shard wait/hold timings.
    /// Idempotent: a second call returns the already-attached site.
    pub fn enable_contention_profiling(&self, prof: &ContentionProfiler) -> Arc<LockSite> {
        if let Some(site) = self.inner.topics.profiler() {
            return Arc::clone(site);
        }
        let site = prof.site("pulsar.topics", self.inner.topics.shard_count());
        if !self.inner.topics.attach_profiler(Arc::clone(&site)) {
            // Raced another caller; use whoever won.
            return Arc::clone(self.inner.topics.profiler().expect("just attached"));
        }
        site
    }

    /// Toggle dispatch-phase attribution: when on, every `receive_scan`
    /// splits its wall time into `pulsar.dispatch.*_ns` counters (wall,
    /// lock acquisition, cursor bookkeeping, entry read, decode,
    /// delivery) readable from [`PulsarCluster::metrics`] and summarized
    /// by [`PulsarCluster::dispatch_profile`]. While on, costs one clock
    /// read per segment a scan reads from (plus two per message on the
    /// per-message delivery path); one relaxed atomic load per scan while
    /// off.
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
            deliver_ns: c("pulsar.dispatch.deliver_ns"),
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
                            tier.store_segment(&inner.meta, lid, &[]);
                            let _ = inner.bk.delete_ledger(lid);
                            part.sealed.remove(&lid);
                            offloaded += 1;
                        }
                        continue;
                    };
                    tier.store_segment(&inner.meta, lid, &inner.bk.read_through(lid, last)?);
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

    /// The tenant of a topic: the segment before the first `/` in the
    /// topic name (Pulsar's `tenant/namespace/topic` convention,
    /// flattened), or the whole name for un-namespaced topics.
    pub fn tenant_of(topic: &str) -> &str {
        topic.split('/').next().unwrap_or(topic)
    }

    /// Cap the total retained entries across a tenant's topics
    /// (multi-tenancy backlog quota). Publishing beyond the cap fails with
    /// [`PulsarError::TenantQuotaExceeded`] until consumers ack and the
    /// topic is trimmed.
    pub fn set_tenant_quota(&self, tenant: &str, max_retained_entries: u64) {
        self.inner
            .quotas
            .lock()
            .insert(tenant.to_string(), max_retained_entries);
        // Release pairs with the Acquire load in `check_quota`: a publish
        // that sees the flag also sees the entry above.
        self.inner.quotas_in_use.store(true, Ordering::Release);
    }

    /// Create a topic with `partitions` partitions.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<()> {
        assert!(partitions >= 1);
        let key = format!("/topics/{name}");
        if self.inner.meta.get(&key).is_some() {
            return Err(PulsarError::TopicExists(name.to_string()));
        }
        self.inner
            .meta
            .create(&key, partitions.to_string().into_bytes())?;
        for p in 0..partitions {
            self.inner
                .meta
                .put(&format!("/topics/{name}/{p}/segments"), Vec::new());
        }
        self.inner.topics.insert(
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
        let v = self
            .inner
            .meta
            .get(&format!("/topics/{topic}"))
            .ok_or_else(|| PulsarError::TopicNotFound(topic.to_string()))?;
        let n: u32 = std::str::from_utf8(&v.data)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| PulsarError::TopicNotFound(topic.to_string()))?;
        self.publish_partition_count(topic, n);
        Ok(n)
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
            let sub = t.subs.entry(subscription.to_string()).or_insert_with(|| {
                SubState::new(
                    topic,
                    subscription,
                    mode,
                    vec![ReadPos::START; nparts],
                    vec![None; nparts],
                )
            });
            if sub.mode == SubscriptionMode::Exclusive && !sub.consumers.is_empty() {
                return Err(PulsarError::ExclusiveSubscriptionBusy(
                    subscription.to_string(),
                ));
            }
            let cid = inner.next_consumer.fetch_add(1, Ordering::Relaxed);
            sub.consumers.push(cid);
            // Persist subscription existence for broker restarts.
            inner.meta.put(
                &format!("/topics/{topic}/subs/{subscription}"),
                mode.encode().as_bytes().to_vec(),
            );
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

    /// Run `f` with the topic's broker-side state, holding only that
    /// topic's shard lock. Rebuilds the state from metadata if it is not
    /// loaded (stateless broker); the rebuild happens inside the shard
    /// lock so concurrent callers see it exactly once.
    fn with_topic<R>(
        &self,
        name: &str,
        f: impl FnOnce(&ClusterInner, &mut Topic) -> Result<R>,
    ) -> Result<R> {
        let inner = &*self.inner;
        inner.topics.with(name, |shard| {
            if let Some(t) = shard.get_mut(name) {
                return f(inner, t);
            }
            let t = Self::load_topic(inner, name)?;
            f(inner, shard.entry(name.to_string()).or_insert(t))
        })
    }

    /// Rebuild broker-side state for a topic from metadata (stateless
    /// broker). Touches only the metadata store and bookies — never
    /// another topic's shard.
    fn load_topic(inner: &ClusterInner, name: &str) -> Result<Topic> {
        let nparts: u32 = {
            let v = inner
                .meta
                .get(&format!("/topics/{name}"))
                .ok_or_else(|| PulsarError::TopicNotFound(name.to_string()))?;
            std::str::from_utf8(&v.data)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| PulsarError::TopicNotFound(name.to_string()))?
        };
        let mut partitions = Vec::with_capacity(nparts as usize);
        for p in 0..nparts {
            let segs = inner
                .meta
                .get(&format!("/topics/{name}/{p}/segments"))
                .map(|v| decode_segments(&v.data))
                .unwrap_or_default();
            // Any open tail segment belongs to a dead broker: fence it.
            if let Some(&last) = segs.last() {
                let _ = inner.bk.recover_and_close(last);
            }
            partitions.push(Partition::new(segs));
        }
        let mut subs = HashMap::new();
        for key in inner.meta.list_prefix(&format!("/topics/{name}/subs/")) {
            let sub_name = key.rsplit('/').next().unwrap_or_default().to_string();
            let mode = inner
                .meta
                .get(&key)
                .and_then(|v| SubscriptionMode::decode(std::str::from_utf8(&v.data).ok()?))
                .unwrap_or(SubscriptionMode::Shared);
            // Restore cursors from persisted mark-delete positions.
            let mut read = Vec::with_capacity(nparts as usize);
            let mut mark_delete = Vec::with_capacity(nparts as usize);
            for p in 0..nparts {
                let md = inner
                    .meta
                    .get(&cursor_key(name, p as usize, &sub_name))
                    .and_then(|v| decode_cursor(&v.data));
                let pos = match md {
                    Some(id) => {
                        match partitions[p as usize].seg_index(id.ledger) {
                            Some(seg) => ReadPos::at(seg, id.entry + 1),
                            // The cursor's segment was trimmed after the
                            // mark-delete advanced past it: everything it
                            // covered is gone, so resume at the start of
                            // what survives. (Treating the first surviving
                            // segment as the cursor's would silently skip
                            // its unconsumed prefix — entry loss.)
                            None => ReadPos::START,
                        }
                    }
                    None => ReadPos::START,
                };
                read.push(pos);
                mark_delete.push(md);
            }
            let sub = SubState::new(name, &sub_name, mode, read, mark_delete);
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
        self.inner.topics.clear();
    }

    /// Drop one topic's in-memory state (its ownership moved to another
    /// broker). The next local operation — if the fence readmits it —
    /// rebuilds from shared metadata, same as after
    /// [`PulsarCluster::restart_broker`].
    pub fn unload_topic(&self, name: &str) {
        self.inner.topics.remove(name);
    }

    fn persist_segments(inner: &ClusterInner, topic: &str, p: usize, segs: &[LedgerId]) {
        inner.meta.put(
            &format!("/topics/{topic}/{p}/segments"),
            encode_segments(segs),
        );
    }

    /// Publish steps 1–2, shared by single and batched publishing; both
    /// are skipped while no tenant quota has ever been set (step 3's own
    /// `with_topic` loads the topic and reports an unknown one).
    /// Step 1: make sure the topic is loaded (shard locked and released).
    /// Step 2: multi-tenancy backlog quota — total retained entries
    /// across the tenant's loaded topics must stay under the cap. The
    /// scan visits shards one at a time without holding the target
    /// topic's shard, so two publishers scanning each other's tenants
    /// cannot deadlock. (Concurrent publishers may both pass a nearly
    /// full quota check; the cap is a backlog bound, not a ledger.)
    ///
    /// The quota is denominated in *ledger entries*: a batched entry counts
    /// once no matter how many messages it packs — amortizing the backlog
    /// cost is exactly what batching is for.
    fn check_quota(&self, topic: &str) -> Result<()> {
        let inner = &*self.inner;
        if !inner.quotas_in_use.load(Ordering::Acquire) {
            return Ok(());
        }
        self.with_topic(topic, |_, _| Ok(()))?;
        let tenant = Self::tenant_of(topic);
        // Copy the quota out before scanning: holding the quotas lock
        // across the topic-shard walk below would nest lock acquisitions.
        let quota = inner.quotas.lock().get(tenant).copied();
        if let Some(quota) = quota {
            let mut retained = 0u64;
            inner.topics.for_each(|name, t| {
                if Self::tenant_of(name) == tenant {
                    for part in &t.partitions {
                        for seg in 0..part.segments.len() {
                            retained += Self::segment_len(inner, part, seg);
                        }
                    }
                }
            });
            if retained >= quota {
                inner.metrics.counter("quota_rejections").inc();
                return Err(PulsarError::TenantQuotaExceeded {
                    tenant: tenant.to_string(),
                    quota,
                });
            }
        }
        Ok(())
    }

    /// Publish step 3: append one encoded entry to the partition's open
    /// ledger, with up to one rollover retry on quorum failure. The entry
    /// buffer is refcounted ([`Bytes`]) — the writer hands the *same*
    /// allocation to every replica in the write quorum (and to the retry),
    /// so a publish copies payload bytes exactly once, at encode time.
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
                Self::persist_segments(inner, topic, p, &part.segments);
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
                    part.tail.push(CachedEntry::parse(entry_bytes));
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

    fn publish(&self, topic: &str, key: Option<&[u8]>, payload: &[u8]) -> Result<MessageId> {
        self.check_fence(topic)?;
        let tracer = self.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "pulsar.publish");
        span.attr("topic", topic);
        span.attr("bytes", payload.len());
        let now = self.inner.clock.now();
        if let Err(e) = self.check_quota(topic) {
            if matches!(e, PulsarError::TenantQuotaExceeded { .. }) {
                span.attr("outcome", "quota_rejected");
            }
            return Err(e);
        }
        // Step 3: append under the target topic's shard lock only.
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
            let entry_bytes = with_ctx_header(
                span.context(),
                encode_entry(key, now.as_nanos() as u64, payload),
            );
            let (lid, entry) = Self::append_with_rollover(
                inner,
                &tracer,
                topic,
                p,
                &mut t.partitions[p],
                &entry_bytes,
            )?;
            inner.c_published.inc();
            Ok(MessageId::new(p as u32, lid, entry))
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

    /// Publish `payloads` as one group-committed ledger entry (producer
    /// batching, §4.3): one quota check, one entry encode, one replicated
    /// append for the whole batch — the per-entry costs that dominate
    /// small-message publishing are paid once and amortized over N.
    ///
    /// Returns one [`MessageId`] per message, carrying its batch offset.
    /// Batches route like key-less messages (round-robin over partitions,
    /// the whole batch to one partition). Empty input publishes nothing;
    /// a single payload degenerates to the unbatched path, so ids from
    /// this method are always consistent with [`Producer::send`].
    fn publish_batch<T: AsRef<[u8]>>(&self, topic: &str, payloads: &[T]) -> Result<Vec<MessageId>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        if payloads.len() == 1 {
            return self
                .publish(topic, None, payloads[0].as_ref())
                .map(|id| vec![id]);
        }
        self.check_fence(topic)?;
        let tracer = self.tracer();
        let mut span = tracer.span(TRACE_SYSTEM, "pulsar.publish_batch");
        span.attr("topic", topic);
        span.attr("messages", payloads.len());
        let now = self.inner.clock.now();
        if let Err(e) = self.check_quota(topic) {
            if matches!(e, PulsarError::TenantQuotaExceeded { .. }) {
                span.attr("outcome", "quota_rejected");
            }
            return Err(e);
        }
        let result = self.with_topic(topic, |inner, t| {
            let nparts = t.partitions.len();
            t.rr = t.rr.wrapping_add(1);
            let p = (t.rr as usize) % nparts;
            span.attr("partition", p);
            let entry_bytes = with_ctx_header(
                span.context(),
                encode_batch_entry(now.as_nanos() as u64, payloads)?,
            );
            span.attr("bytes", entry_bytes.len());
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
            inner.metrics.counter("batch_entries_appended").inc();
            inner
                .metrics
                .counter("batch_bytes_encoded")
                .add(entry_bytes.len() as u64);
            Ok((0..n)
                .map(|i| MessageId::in_batch(p as u32, lid, entry, i, n))
                .collect())
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
    fn segment_len(inner: &ClusterInner, part: &Partition, seg_idx: usize) -> u64 {
        let lid = part.segments[seg_idx];
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
    /// first, cold tier second, every entry peeled and parsed on the way
    /// in. One-time cost per segment, after which a scan resolves the
    /// snapshot once per run of entries it reads from it and clones
    /// [`CachedEntry`]s. This is what moved `entry_read` off the top of
    /// the dispatch profile (E30): steady-state dispatch pays no
    /// ledger-map lock, no per-entry metadata parse and no framing parse.
    fn build_sealed(inner: &ClusterInner, lid: LedgerId) -> Result<Arc<Vec<CachedEntry>>> {
        match inner.bk.last_entry(lid) {
            Ok(Some(last)) => {
                let entries = inner.bk.read_through(lid, last)?;
                Ok(Arc::new(entries.iter().map(CachedEntry::parse).collect()))
            }
            Ok(None) => Ok(Arc::new(Vec::new())),
            Err(e) => {
                let tier = inner.tier.lock().clone();
                let from_tier = tier.and_then(|tier| {
                    let n = tier.offloaded_len(&inner.meta, lid)?;
                    let mut entries = Vec::with_capacity(n as usize);
                    for i in 0..n {
                        let bytes = tier.read_entry(&inner.meta, lid, i)?;
                        entries.push(CachedEntry::parse(&bytes));
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

    /// Phase 1 of the dispatch pipeline — the only part that runs under
    /// the topic-shard lock. Advances the subscription cursor over up to
    /// `max` messages and collects the touched entries as [`EntryView`]s.
    /// What is the same for a whole run of entries is resolved once per
    /// run: the mark-delete position once per partition, and the segment
    /// (ledger id, length, in-memory entries — the open tail checked
    /// first) once per segment the scan reads from. Per ENTRY that leaves
    /// the skip checks, a clone of the already-parsed [`CachedEntry`] (one
    /// refcount bump on the entry buffer; nothing is re-validated) and one
    /// bump at the back of the pending queue. No `Message` is
    /// materialized, no payload is sliced, and no consumer code runs while
    /// the lock is held — phase 2 (decode + deliver) works on the returned
    /// views after the shard is released, on the already-refcounted bytes.
    ///
    /// A read error stops the scan rather than failing it: what was
    /// already collected has moved the cursor and is pending, so it is
    /// returned (`Ok(delivered)`), and the error is reported by the next
    /// scan, which meets it with nothing delivered.
    #[allow(clippy::too_many_arguments)]
    fn collect_entries(
        &self,
        topic: &str,
        subscription: &str,
        consumer_id: u64,
        start_part: &mut usize,
        max: usize,
        out: &mut Vec<EntryView>,
        acc: &mut DispatchAcc,
        prof: bool,
        wall_start: Option<Instant>,
    ) -> Result<usize> {
        self.with_topic(topic, |inner, t| {
            let mut clk = PhaseClock::start(prof);
            if let (Some(t0), Some(t1)) = (wall_start, clk.last) {
                // Outside-the-lock to inside-the-lock: topic hash, shard
                // lock wait, and any lazy topic rebuild.
                acc.lock_ns += t1.duration_since(t0).as_nanos() as u64;
            }
            let nparts = t.partitions.len();
            let sub = t
                .subs
                .get_mut(subscription)
                .ok_or_else(|| PulsarError::TopicNotFound(format!("{topic}:{subscription}")))?;
            // Failover: only the active (first attached) consumer receives.
            if sub.mode == SubscriptionMode::Failover && sub.consumers.first() != Some(&consumer_id)
            {
                return Ok(0);
            }
            let mut delivered = 0usize;
            let mut failed = None;
            'parts: for scan in 0..nparts {
                let p = (*start_part + scan) % nparts;
                let part = &mut t.partitions[p];
                // Everything at or before the mark-delete cursor is skipped
                // (individual acks get folded into it and leave the acked
                // set). When its segment was trimmed, nothing that survives
                // is covered by it, so no skip applies.
                let covered =
                    sub.mark_delete[p].and_then(|md| Some((part.seg_index(md.ledger)?, md.entry)));
                // One iteration per segment run.
                'runs: loop {
                    if delivered >= max {
                        break 'parts;
                    }
                    let mut pos = sub.read[p];
                    let Some(&lid) = part.segments.get(pos.seg) else {
                        break; // nothing ever written here
                    };
                    let cached = part.cached(lid);
                    let seg_len = match cached {
                        Some(entries) => entries.len() as u64,
                        None => Self::stored_len(inner, lid),
                    };
                    if pos.entry >= seg_len {
                        // Move to the next segment if this one is closed and
                        // fully read.
                        if !part.is_open(lid) && pos.seg + 1 < part.segments.len() {
                            sub.read[p] = ReadPos::at(pos.seg + 1, 0);
                            continue;
                        }
                        break; // caught up on this partition
                    }
                    while pos.entry < seg_len && delivered < max {
                        let canonical = MessageId::new(p as u32, lid, pos.entry);
                        // Individually acked earlier (redelivery path), or
                        // under the mark-delete cursor.
                        if (!sub.acked.is_empty() && sub.acked.contains(&canonical))
                            || covered.is_some_and(|md| (pos.seg, pos.entry) <= md)
                        {
                            pos = ReadPos::at(pos.seg, pos.entry + 1);
                            sub.read[p] = pos;
                            continue;
                        }
                        let Some(entries) = cached else {
                            // First entry wanted from a sealed segment with
                            // no snapshot: build it, then take the run again
                            // from the cache.
                            clk.tick(&mut acc.cursor_ns);
                            let built = Self::build_sealed(inner, lid);
                            clk.tick(&mut acc.read_ns);
                            match built {
                                Ok(seg) => {
                                    part.sealed.insert(lid, seg);
                                    continue 'runs;
                                }
                                Err(e) => {
                                    failed = Some(e);
                                    break 'parts;
                                }
                            }
                        };
                        let unavailable =
                            |entry| PulsarError::EntryUnavailable { ledger: lid, entry };
                        let Some(entry) = entries.get(pos.entry as usize) else {
                            failed = Some(unavailable(pos.entry));
                            break 'parts;
                        };
                        let view = if let Some((ts, table)) = entry.batch {
                            let n = table.count();
                            // Resume inside the entry, skipping indices already
                            // acked through the partial-batch set.
                            let done = if sub.partial.is_empty() {
                                None
                            } else {
                                sub.partial.get(&canonical)
                            };
                            let mut first = pos.batch;
                            if let Some(done) = done {
                                while first < n && done.contains(&first) {
                                    first += 1;
                                }
                            }
                            if first >= n {
                                pos = ReadPos::at(pos.seg, pos.entry + 1);
                                sub.read[p] = pos;
                                continue;
                            }
                            // Extend the delivered range up to the budget,
                            // recording already-acked indices inside it.
                            let budget = max - delivered;
                            let mut taken = 0usize;
                            let mut end = first;
                            let mut skips = Vec::new();
                            while end < n && taken < budget {
                                if done.is_some_and(|d| d.contains(&end)) {
                                    skips.push(end);
                                } else {
                                    taken += 1;
                                }
                                end += 1;
                            }
                            let at = pos.entry;
                            pos = if end < n {
                                ReadPos { batch: end, ..pos }
                            } else {
                                ReadPos::at(pos.seg, pos.entry + 1)
                            };
                            sub.pending[p].add(lid, at, taken as u32);
                            sub.pending_total += taken as u64;
                            delivered += taken;
                            EntryView {
                                raw: entry.raw.clone(),
                                ctx: entry.ctx,
                                partition: p as u32,
                                ledger: lid,
                                entry: at,
                                publish_nanos: ts,
                                key: None,
                                body_at: 0,
                                batch: Some(table),
                                batch_size: n,
                                first,
                                end,
                                skips,
                            }
                        } else {
                            let Some((key, ts, payload)) = decode_entry(&entry.raw) else {
                                failed = Some(unavailable(pos.entry));
                                break 'parts;
                            };
                            let at = pos.entry;
                            pos = ReadPos::at(pos.seg, pos.entry + 1);
                            sub.pending[p].add(lid, at, 1);
                            sub.pending_total += 1;
                            delivered += 1;
                            EntryView {
                                body_at: entry.raw.len() - payload.len(),
                                raw: entry.raw.clone(),
                                ctx: entry.ctx,
                                partition: p as u32,
                                ledger: lid,
                                entry: at,
                                publish_nanos: ts,
                                key,
                                batch: None,
                                batch_size: 1,
                                first: 0,
                                end: 1,
                                skips: Vec::new(),
                            }
                        };
                        sub.read[p] = pos;
                        *start_part = (p + 1) % nparts;
                        out.push(view);
                    }
                    // One checkpoint per run, not per entry: walking cached
                    // entries is cursor work, and a clock read costs as
                    // much as the entry it would time.
                    clk.tick(&mut acc.cursor_ns);
                }
            }
            // Loop-termination probes since the last run are cursor scan
            // work too.
            clk.tick(&mut acc.cursor_ns);
            if delivered > 0 {
                inner.c_delivered.add(delivered as u64);
            }
            match failed {
                Some(e) if delivered == 0 => Err(e),
                _ => Ok(delivered),
            }
        })
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
        m.counter("pulsar.dispatch.deliver_ns").add(acc.deliver_ns);
    }

    /// Unified dispatch scan: deliver up to `max` messages, invoking
    /// `on_msg` per message. Returns the count.
    ///
    /// Built on the two-phase pipeline: [`PulsarCluster::collect_entries`]
    /// does cursor bookkeeping and entry collection under the topic-shard
    /// lock, then message materialization (O(1) zero-copy slices against
    /// each entry's cached offset table), per-message trace spans, and the
    /// `on_msg` callback all run *outside* the lock on the scan-scoped
    /// view buffer. Output is bit-identical to the historical per-message
    /// scan (proptested).
    #[allow(clippy::too_many_arguments)]
    fn receive_scan(
        &self,
        topic: &str,
        subscription: &str,
        consumer_id: u64,
        start_part: &mut usize,
        max: usize,
        scratch: &mut Vec<EntryView>,
        on_msg: &mut dyn FnMut(Message),
    ) -> Result<usize> {
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
        scratch.clear();
        let result = self.collect_entries(
            topic,
            subscription,
            consumer_id,
            start_part,
            max,
            scratch,
            &mut acc,
            prof,
            wall_start,
        );
        if result.is_ok() {
            // Phase 2: decode + deliver, shard lock released. The views
            // hold refcounts on the entry buffers, so appends, acks and
            // trims proceeding concurrently cannot invalidate them.
            let mut clk = PhaseClock::start(prof);
            for view in scratch.iter() {
                span.attr("partition", view.partition);
                span.attr("ledger", view.ledger.raw());
                span.attr("entry", view.entry);
                for mv in view.messages() {
                    let mut msg = mv.to_message();
                    // Join the publisher's trace: a per-message dispatch span
                    // child-of the publish span when the broker is traced,
                    // else pass the publish context through verbatim so a
                    // traced consumer can still link up.
                    let msg_span = view.ctx.map(|pc| {
                        let mut g =
                            tracer.span_child_of(TRACE_SYSTEM, "pulsar.dispatch_msg", Some(pc));
                        g.attr("partition", view.partition);
                        g.attr("entry", view.entry);
                        g
                    });
                    msg.ctx = msg_span.as_ref().and_then(|g| g.context()).or(view.ctx);
                    clk.tick(&mut acc.decode_ns);
                    on_msg(msg);
                    drop(msg_span);
                    clk.tick(&mut acc.deliver_ns);
                }
            }
            // Drop the entry-buffer refcounts promptly; the scratch vec's
            // capacity stays with the consumer for reuse.
            scratch.clear();
        }
        self.flush_dispatch_acc(wall_start, &acc, result.as_ref().ok().copied());
        result
    }

    /// Whole-entry dispatch: collect up to `max` messages as
    /// [`EntryView`]s. The per-entry framing was parsed when the entry
    /// entered a read cache; everything a consumer reads from the views
    /// afterwards is lock-free and allocation-free. When the broker is
    /// traced, each view is stamped with ONE `pulsar.dispatch_entry` span
    /// (child of the publish span) — the per-entry analogue of
    /// `pulsar.dispatch_msg`, shared by all its messages.
    #[allow(clippy::too_many_arguments)]
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
        let result = self.collect_entries(
            topic,
            subscription,
            consumer_id,
            start_part,
            max,
            out,
            &mut acc,
            prof,
            wall_start,
        );
        if result.is_ok() {
            let mut clk = PhaseClock::start(prof);
            for view in out.iter_mut() {
                span.attr("partition", view.partition);
                span.attr("ledger", view.ledger.raw());
                span.attr("entry", view.entry);
                if let Some(pc) = view.ctx {
                    let mut g =
                        tracer.span_child_of(TRACE_SYSTEM, "pulsar.dispatch_entry", Some(pc));
                    g.attr("partition", view.partition);
                    g.attr("entry", view.entry);
                    g.attr("messages", view.len());
                    view.ctx = g.context().or(Some(pc));
                }
            }
            clk.tick(&mut acc.decode_ns);
        }
        self.flush_dispatch_acc(wall_start, &acc, result.as_ref().ok().copied());
        result
    }

    fn receive_from(
        &self,
        topic: &str,
        subscription: &str,
        consumer_id: u64,
        start_part: &mut usize,
        scratch: &mut Vec<EntryView>,
    ) -> Result<Option<Message>> {
        let mut slot = None;
        self.receive_scan(
            topic,
            subscription,
            consumer_id,
            start_part,
            1,
            scratch,
            &mut |m| {
                slot = Some(m);
            },
        )?;
        Ok(slot)
    }

    #[allow(clippy::too_many_arguments)]
    fn receive_many_from(
        &self,
        topic: &str,
        subscription: &str,
        consumer_id: u64,
        start_part: &mut usize,
        max: usize,
        scratch: &mut Vec<EntryView>,
    ) -> Result<Vec<Message>> {
        let mut out = Vec::new();
        self.receive_scan(
            topic,
            subscription,
            consumer_id,
            start_part,
            max,
            scratch,
            &mut |m| {
                out.push(m);
            },
        )?;
        Ok(out)
    }

    /// Ack bookkeeping for one message id, shared by [`Consumer::ack`] and
    /// [`Consumer::ack_batch`]: pending removal, partial-batch fold,
    /// idempotence guards, mark-delete advance. Pure in-memory — returns
    /// the partition index when its mark-delete advanced, so the caller
    /// persists the cursor once per call (or once per batch).
    fn apply_ack(
        inner: &ClusterInner,
        partitions: &[Partition],
        sub: &mut SubState,
        id: MessageId,
    ) -> Option<usize> {
        // Batched messages ack at message granularity, but the cursor
        // machinery below is entry-granular: record per-index acks in
        // `partial` and only fold the canonical entry id into the acked
        // set once every index of the batch has been acked. The pending
        // map is entry-granular too — decrement only for *new* acks, so
        // duplicates can't drive the outstanding count below reality.
        let id = if id.batch_size > 1 {
            let canonical = id.canonical();
            let covered = sub.acked.contains(&canonical)
                || sub.mark_delete[id.partition as usize]
                    .is_some_and(|md| (md.ledger, md.entry) >= (canonical.ledger, canonical.entry));
            if covered {
                return None; // duplicate ack of a completed batch
            }
            let done = sub.partial.entry(canonical).or_default();
            if !done.insert(id.batch_index) {
                return None; // duplicate ack within a still-partial batch
            }
            let complete = (done.len() as u32) >= id.batch_size;
            Self::unpend(sub, canonical, 1);
            if !complete {
                return None; // batch still partially unacked
            }
            sub.partial.remove(&canonical);
            canonical
        } else {
            let covered = sub.acked.contains(&id)
                || sub.mark_delete[id.partition as usize]
                    .is_some_and(|md| (md.ledger, md.entry) >= (id.ledger, id.entry));
            if !covered {
                Self::unpend(sub, id, 1);
            }
            id
        };
        Self::fold_entry_ack(inner, partitions, sub, id)
    }

    /// Drop up to `n` outstanding deliveries of the canonical entry `id`
    /// from its partition's pending queue (clamped — a duplicate or
    /// never-delivered ack cannot underflow the count).
    fn unpend(sub: &mut SubState, id: MessageId, n: u32) {
        let taken = sub.pending[id.partition as usize].take(id.ledger, id.entry, n);
        sub.pending_total -= u64::from(taken);
    }

    /// Fold a completed, entry-granular ack (`id` must be canonical) into
    /// the acked set and advance the mark-delete cursor. The idempotence
    /// guard also covers unbatched re-acks: re-acking a message the
    /// mark-delete already covers (e.g. a failover redelivery acked twice)
    /// must not park the id in `acked` forever — the fold loop below only
    /// matches ids *above* the cursor, so a stale insert would never drain.
    fn fold_entry_ack(
        inner: &ClusterInner,
        partitions: &[Partition],
        sub: &mut SubState,
        id: MessageId,
    ) -> Option<usize> {
        let covered = sub.acked.contains(&id)
            || sub.mark_delete[id.partition as usize]
                .is_some_and(|md| (md.ledger, md.entry) >= (id.ledger, id.entry));
        if covered {
            return None;
        }
        // `id` is held aside rather than inserted: an in-order ack is the
        // cursor's next position and never enters the set. It joins the
        // set below only if the cursor stops short of it.
        let mut held = Some(id);
        // Advance the mark-delete position while the next message is acked.
        let p = id.partition as usize;
        let part = &partitions[p];
        let mut advanced = false;
        loop {
            let next = match sub.mark_delete[p] {
                None => {
                    // First position of the partition.
                    match part.segments.first() {
                        Some(&l) => MessageId::new(id.partition, l, 0),
                        None => break,
                    }
                }
                Some(md) => {
                    // Position after md: next entry, or first entry of the
                    // next segment.
                    match part.seg_index(md.ledger) {
                        Some(seg_idx) => {
                            let seg_len = Self::segment_len(inner, part, seg_idx);
                            if md.entry + 1 < seg_len {
                                MessageId::new(id.partition, md.ledger, md.entry + 1)
                            } else if seg_idx + 1 < part.segments.len() {
                                MessageId::new(id.partition, part.segments[seg_idx + 1], 0)
                            } else {
                                break;
                            }
                        }
                        // md's segment was trimmed away: the next
                        // ackable position is the first entry of the
                        // oldest surviving segment. (The old
                        // `unwrap_or(0)` built the next id from the
                        // trimmed ledger, which never matches a real
                        // ack — the cursor would stall forever.)
                        None => match part.segments.first() {
                            Some(&l) => MessageId::new(id.partition, l, 0),
                            None => break,
                        },
                    }
                }
            };
            if held == Some(next) {
                held = None;
            } else if !sub.acked.remove(&next) {
                break;
            }
            sub.mark_delete[p] = Some(next);
            advanced = true;
        }
        if let Some(id) = held {
            sub.acked.insert(id);
        }
        advanced.then_some(p)
    }

    /// Persist a subscription's just-advanced mark-delete cursor for
    /// partition `p`, overwriting the stored text in place.
    fn persist_cursor(inner: &ClusterInner, sub: &SubState, p: usize) {
        let md = sub.mark_delete[p].expect("cursor just advanced");
        inner
            .meta
            .update(&sub.cursor_keys[p], |buf| write_cursor(buf, &md));
    }

    fn ack(&self, topic: &str, subscription: &str, id: MessageId) -> Result<()> {
        self.check_fence(topic)?;
        self.with_topic(topic, |inner, t| {
            let sub = t
                .subs
                .get_mut(subscription)
                .ok_or_else(|| PulsarError::TopicNotFound(format!("{topic}:{subscription}")))?;
            if let Some(p) = Self::apply_ack(inner, &t.partitions, sub, id) {
                Self::persist_cursor(inner, sub, p);
            }
            Ok(())
        })
    }

    /// Acknowledge many messages with ONE topic-shard lock acquisition and
    /// at most one durable cursor write per touched partition — the
    /// dispatch-side mirror of `send_batch`'s group commit. The ack
    /// *bookkeeping* is bit-identical to per-id [`Consumer::ack`] (same
    /// [`PulsarCluster::apply_ack`] fold); only the metadata persist is
    /// amortized, so at-least-once is preserved: a broker that dies
    /// mid-batch redelivers from the last persisted cursor, never skips.
    fn ack_many(&self, topic: &str, subscription: &str, ids: &[MessageId]) -> Result<()> {
        if ids.is_empty() {
            return Ok(());
        }
        self.check_fence(topic)?;
        self.with_topic(topic, |inner, t| {
            let sub = t
                .subs
                .get_mut(subscription)
                .ok_or_else(|| PulsarError::TopicNotFound(format!("{topic}:{subscription}")))?;
            let mut dirty = vec![false; t.partitions.len()];
            let mut i = 0usize;
            while i < ids.len() {
                let id = ids[i];
                // Whole-batch fast path: `receive_batch` + `ack_batch`
                // naturally produce runs of ids covering every index of one
                // batched entry in order. Such a run is a completed entry
                // ack by construction, so it folds straight into the
                // entry-granular cursor machinery — no per-index `partial`
                // bookkeeping. Bit-identical outcome to acking the indices
                // one by one (the partial set would fill and immediately
                // drain); only the intermediate states are skipped.
                if id.batch_size > 1 && id.batch_index == 0 {
                    let n = id.batch_size as usize;
                    let whole = i + n <= ids.len()
                        && (1..n).all(|k| {
                            let x = ids[i + k];
                            x.batch_index == k as u32
                                && x.batch_size == id.batch_size
                                && x.partition == id.partition
                                && x.ledger == id.ledger
                                && x.entry == id.entry
                        });
                    if whole {
                        Self::unpend(sub, id.canonical(), id.batch_size);
                        sub.partial.remove(&id.canonical());
                        if let Some(p) =
                            Self::fold_entry_ack(inner, &t.partitions, sub, id.canonical())
                        {
                            dirty[p] = true;
                        }
                        i += n;
                        continue;
                    }
                }
                if let Some(p) = Self::apply_ack(inner, &t.partitions, sub, id) {
                    dirty[p] = true;
                }
                i += 1;
            }
            for (p, d) in dirty.into_iter().enumerate() {
                if d {
                    Self::persist_cursor(inner, sub, p);
                }
            }
            Ok(())
        })
    }

    fn redeliver(&self, topic: &str, subscription: &str) -> Result<usize> {
        self.with_topic(topic, |_inner, t| {
            let sub = t
                .subs
                .get_mut(subscription)
                .ok_or_else(|| PulsarError::TopicNotFound(format!("{topic}:{subscription}")))?;
            let n = sub.pending_total as usize;
            // Rewind each partition's read position to just after mark-delete;
            // already-acked messages are skipped during delivery.
            for p in 0..t.partitions.len() {
                let pos = match sub.mark_delete[p] {
                    None => ReadPos::START,
                    Some(md) => match t.partitions[p].seg_index(md.ledger) {
                        Some(seg) => ReadPos::at(seg, md.entry + 1),
                        // md's segment was trimmed: rewind to the start of
                        // what survives rather than skipping into the
                        // first segment's unconsumed prefix.
                        None => ReadPos::START,
                    },
                };
                sub.read[p] = pos;
            }
            sub.pending.iter_mut().for_each(PendingQueue::clear);
            sub.pending_total = 0;
            Ok(n)
        })
    }

    /// Acknowledge the messages delivered by a slice of [`EntryView`]s
    /// with one topic-shard lock acquisition and at most one durable
    /// cursor write per touched partition. A whole view folds straight
    /// into the entry-granular cursor machinery — one pending decrement,
    /// one acked-set fold, zero per-index `partial` bookkeeping; partial
    /// views fall back to per-id acks (same outcome as
    /// [`Consumer::ack_batch`] over their ids).
    fn ack_entry_views(&self, topic: &str, subscription: &str, views: &[EntryView]) -> Result<()> {
        if views.is_empty() {
            return Ok(());
        }
        self.check_fence(topic)?;
        self.with_topic(topic, |inner, t| {
            let sub = t
                .subs
                .get_mut(subscription)
                .ok_or_else(|| PulsarError::TopicNotFound(format!("{topic}:{subscription}")))?;
            let mut dirty = vec![false; t.partitions.len()];
            for view in views {
                if view.is_whole() {
                    let canonical = view.entry_id();
                    Self::unpend(sub, canonical, view.batch_size.max(1));
                    sub.partial.remove(&canonical);
                    if let Some(p) = Self::fold_entry_ack(inner, &t.partitions, sub, canonical) {
                        dirty[p] = true;
                    }
                } else {
                    for id in view.ids() {
                        if let Some(p) = Self::apply_ack(inner, &t.partitions, sub, id) {
                            dirty[p] = true;
                        }
                    }
                }
            }
            for (p, d) in dirty.into_iter().enumerate() {
                if d {
                    Self::persist_cursor(inner, sub, p);
                }
            }
            Ok(())
        })
    }

    fn detach(&self, topic: &str, subscription: &str, consumer_id: u64) {
        // No lazy rebuild: detaching from an unloaded topic is a no-op.
        self.inner.topics.with(topic, |shard| {
            if let Some(t) = shard.get_mut(topic) {
                if let Some(sub) = t.subs.get_mut(subscription) {
                    sub.consumers.retain(|&c| c != consumer_id);
                }
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
                loop {
                    let part = &t.partitions[p];
                    let Some(&first) = part.segments.first() else {
                        break;
                    };
                    // The open segment is never trimmed.
                    if part.is_open(first) {
                        break;
                    }
                    let seg_len = Self::segment_len(inner, part, 0);
                    // Every subscription must have mark-deleted past this
                    // segment's final entry.
                    let all_consumed = !t.subs.is_empty()
                        && t.subs.values().all(|sub| match sub.mark_delete[p] {
                            Some(md) => md.ledger != first || md.entry + 1 >= seg_len,
                            None => seg_len == 0,
                        })
                        && t.subs.values().all(|sub| {
                            sub.mark_delete[p]
                                .map(|md| md.ledger != first)
                                .unwrap_or(seg_len == 0)
                                || seg_len == 0
                        });
                    if !all_consumed {
                        break;
                    }
                    // Delete from whichever tier holds the segment.
                    if inner.bk.delete_ledger(first).is_err() {
                        if let Some(tier) = &*inner.tier.lock() {
                            tier.delete_segment(&inner.meta, first);
                        }
                    }
                    t.partitions[p].segments.remove(0);
                    t.partitions[p].sealed.remove(&first);
                    // Re-base read positions that referenced segment indices.
                    for sub in t.subs.values_mut() {
                        if sub.read[p].seg > 0 {
                            sub.read[p].seg -= 1;
                        } else {
                            sub.read[p] = ReadPos::START;
                        }
                    }
                    let segs = t.partitions[p].segments.clone();
                    Self::persist_segments(inner, topic, p, &segs);
                    reclaimed += 1;
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
                for seg_idx in 0..part.segments.len() {
                    total += Self::segment_len(inner, part, seg_idx);
                }
            }
            Ok(total)
        })
    }
}

fn encode_segments(segs: &[LedgerId]) -> Vec<u8> {
    segs.iter()
        .map(|l| l.raw().to_string())
        .collect::<Vec<_>>()
        .join(",")
        .into_bytes()
}

fn decode_segments(bytes: &[u8]) -> Vec<LedgerId> {
    std::str::from_utf8(bytes)
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok().map(LedgerId))
        .collect()
}

/// Overwrite `buf` with the persisted form of a cursor: the decimal text
/// `partition;ledger;entry`, written digit by digit (this runs once per
/// unbatched ack).
fn write_cursor(buf: &mut Vec<u8>, id: &MessageId) {
    fn put_decimal(buf: &mut Vec<u8>, mut n: u64) {
        let mut digits = [0u8; 20]; // u64::MAX has 20
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        buf.extend_from_slice(&digits[at..]);
    }
    buf.clear();
    put_decimal(buf, u64::from(id.partition));
    buf.push(b';');
    put_decimal(buf, id.ledger.raw());
    buf.push(b';');
    put_decimal(buf, id.entry);
}

fn decode_cursor(bytes: &[u8]) -> Option<MessageId> {
    let s = std::str::from_utf8(bytes).ok()?;
    let mut it = s.split(';');
    Some(MessageId::new(
        it.next()?.parse().ok()?,
        LedgerId(it.next()?.parse().ok()?),
        it.next()?.parse().ok()?,
    ))
}

/// A producer attached to a topic.
#[derive(Clone)]
pub struct Producer {
    cluster: PulsarCluster,
    topic: String,
}

impl Producer {
    /// Topic name.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Publish a key-less message (round-robin partition routing).
    pub fn send(&self, payload: &[u8]) -> Result<MessageId> {
        self.cluster.publish(&self.topic, None, payload)
    }

    /// Publish with a partition key (all messages with one key land on one
    /// partition, preserving per-key order).
    pub fn send_keyed(&self, key: &[u8], payload: &[u8]) -> Result<MessageId> {
        self.cluster.publish(&self.topic, Some(key), payload)
    }

    /// Publish several messages as one group-committed ledger entry: one
    /// quota check, one encode, one replicated append. The whole batch
    /// lands on one partition (round-robin, like key-less `send`); ids come
    /// back in payload order. See [`BatchBuilder`] for incremental packing.
    pub fn send_batch<T: AsRef<[u8]>>(&self, payloads: &[T]) -> Result<Vec<MessageId>> {
        self.cluster.publish_batch(&self.topic, payloads)
    }

    /// Start building a batch to flush through this producer.
    pub fn batch(&self) -> BatchBuilder<'_> {
        BatchBuilder {
            producer: self,
            payloads: Vec::new(),
        }
    }
}

/// Incrementally packs messages for one group-committed publish.
///
/// Accumulates refcounted payloads and submits them in a single
/// [`Producer::send_batch`] call on [`flush`](BatchBuilder::flush).
/// Dropping an unflushed builder publishes nothing.
pub struct BatchBuilder<'a> {
    producer: &'a Producer,
    payloads: Vec<Bytes>,
}

impl BatchBuilder<'_> {
    /// Append one message to the pending batch.
    pub fn add(&mut self, payload: impl Into<Bytes>) -> &mut Self {
        self.payloads.push(payload.into());
        self
    }

    /// Number of messages currently pending.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Publish everything added so far as one batch and reset the builder.
    pub fn flush(&mut self) -> Result<Vec<MessageId>> {
        let payloads = std::mem::take(&mut self.payloads);
        self.producer.send_batch(&payloads)
    }
}

/// A consumer attached to a subscription.
pub struct Consumer {
    cluster: PulsarCluster,
    topic: String,
    subscription: String,
    id: u64,
    rr_part: usize,
    /// Scan-scoped [`EntryView`] buffer reused across `receive`/
    /// `receive_batch` calls, so steady-state per-message dispatch
    /// allocates nothing for entry collection.
    scratch: Vec<EntryView>,
}

impl Consumer {
    /// Topic name.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Subscription name.
    pub fn subscription(&self) -> &str {
        &self.subscription
    }

    /// Pull the next available message (non-blocking; `None` when caught
    /// up, or when this consumer is a passive failover replica).
    pub fn receive(&mut self) -> Result<Option<Message>> {
        self.cluster.receive_from(
            &self.topic,
            &self.subscription,
            self.id,
            &mut self.rr_part,
            &mut self.scratch,
        )
    }

    /// Pull up to `max` available messages under a single broker lock
    /// acquisition (batched dispatch). Returns fewer (possibly zero) when
    /// caught up; messages still need individual [`ack`](Consumer::ack)s.
    pub fn receive_batch(&mut self, max: usize) -> Result<Vec<Message>> {
        self.cluster.receive_many_from(
            &self.topic,
            &self.subscription,
            self.id,
            &mut self.rr_part,
            max,
            &mut self.scratch,
        )
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
    /// acquisition, one entry-granular cursor fold per whole view, and
    /// at most one durable cursor write per touched partition.
    pub fn ack_entries(&self, views: &[EntryView]) -> Result<()> {
        self.cluster
            .ack_entry_views(&self.topic, &self.subscription, views)
    }

    /// Acknowledge a message; advances the subscription's mark-delete
    /// cursor when contiguous.
    pub fn ack(&self, id: MessageId) -> Result<()> {
        self.cluster.ack(&self.topic, &self.subscription, id)
    }

    /// Acknowledge several messages at once: one broker lock acquisition
    /// and one durable cursor write per touched partition, instead of one
    /// of each per message (batched cursor commit). Semantically identical
    /// to acking each id with [`ack`](Consumer::ack) — duplicates and
    /// out-of-order ids welcome — with the same at-least-once guarantee:
    /// a crash before the batch commits redelivers, never skips.
    pub fn ack_batch(&self, ids: &[MessageId]) -> Result<()> {
        self.cluster.ack_many(&self.topic, &self.subscription, ids)
    }

    /// Request redelivery of everything delivered but not acked (what a
    /// crashed consumer's replacement calls). Returns how many messages
    /// were outstanding.
    pub fn redeliver_unacked(&self) -> Result<usize> {
        self.cluster.redeliver(&self.topic, &self.subscription)
    }

    /// Drain all currently-available messages, acking each (batched
    /// receive + batched cursor commit under the hood).
    pub fn drain(&mut self) -> Result<Vec<Message>> {
        let mut out = Vec::new();
        loop {
            let batch = self.receive_batch(64)?;
            if batch.is_empty() {
                break;
            }
            let ids: Vec<MessageId> = batch.iter().map(|m| m.id).collect();
            self.ack_batch(&ids)?;
            out.extend(batch);
        }
        Ok(out)
    }
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

    #[test]
    fn entry_codec_roundtrip() {
        for (key, payload) in [
            (None, &b"hello"[..]),
            (Some(&b"k"[..]), &b""[..]),
            (Some(&b"key-long"[..]), &b"payload"[..]),
        ] {
            let enc = encode_entry(key, 42, payload);
            let (k, ts, p) = decode_entry(&enc).unwrap();
            assert_eq!(k.as_deref(), key);
            assert_eq!(ts, 42);
            assert_eq!(&p[..], payload);
        }
    }

    #[test]
    fn batch_codec_roundtrip() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma-longer-payload", b"d"];
        let enc = encode_batch_entry(99, &payloads).unwrap();
        assert!(is_batch_entry(&enc));
        // The framing parses ONCE into a cached offset-table index; every
        // per-message access afterwards is O(1) against it.
        let (ts, table) = parse_batch_entry(&enc).unwrap();
        assert_eq!(ts, 99);
        assert_eq!(table.count(), payloads.len() as u32);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&table.slice(&enc, i as u32)[..], *p);
        }
        // Decoded payloads are zero-copy slices of the one entry buffer.
        let first = table.slice(&enc, 0);
        let base = enc.as_ref().as_ptr() as usize;
        let fp = first.as_ref().as_ptr() as usize;
        assert!(
            fp >= base && fp < base + enc.len(),
            "payload not a slice of the entry"
        );
        // An unbatched entry is never misread as a batch: its first field is
        // a key length, which a real key can't push to u32::MAX.
        let plain = encode_entry(Some(b"key"), 7, b"payload");
        assert!(!is_batch_entry(&plain));
        assert!(parse_batch_entry(&plain).is_none());
        // Corrupt framing (truncated offset table) is rejected at parse
        // time, not discovered per message.
        let truncated = enc.slice(..20);
        assert!(parse_batch_entry(&truncated).is_none());
    }

    #[test]
    fn ctx_header_codec_roundtrip() {
        use taureau_core::trace::{SpanId, TraceId};
        let ctx = SpanContext {
            trace_id: TraceId(0xfeed),
            span_id: SpanId(0xbeef),
        };
        // Untraced publishes stay bit-identical to the classic format.
        let plain = encode_entry(Some(b"k"), 42, b"payload");
        assert_eq!(with_ctx_header(None, plain.clone()), plain);
        let (got, inner) = split_ctx(&plain);
        assert_eq!(got, None);
        assert_eq!(inner, plain);
        // Traced entry: header peels off, classic entry decodes unchanged.
        let wrapped = with_ctx_header(Some(ctx), plain.clone());
        assert_eq!(wrapped.len(), plain.len() + 4 + SpanContext::WIRE_LEN);
        let (got, inner) = split_ctx(&wrapped);
        assert_eq!(got, Some(ctx));
        let (k, ts, p) = decode_entry(&inner).unwrap();
        assert_eq!(
            (k.as_deref(), ts, &p[..]),
            (Some(&b"k"[..]), 42, &b"payload"[..])
        );
        // A batched entry keeps its own marker inside the ctx header, and
        // the peeled slice is still zero-copy into the wrapped buffer.
        let batch = encode_batch_entry(7, &[b"a".as_slice(), b"bb"]).unwrap();
        let (got, inner) = split_ctx(&with_ctx_header(Some(ctx), batch.clone()));
        assert_eq!(got, Some(ctx));
        assert_eq!(parse_batch_entry(&inner).map(|(_, t)| t.count()), Some(2));
        assert_eq!(inner, batch);
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
        // Every delivered message carries the per-message dispatch span,
        // which lives in the *publisher's* trace as a child of its publish
        // span — not in the dispatch scan's own trace.
        for m in &got {
            let ctx = m.ctx.expect("traced broker must stamp msg ctx");
            let rec = spans
                .iter()
                .find(|s| s.span_id == ctx.span_id)
                .expect("msg ctx names a recorded span");
            assert_eq!(rec.name, "pulsar.dispatch_msg");
            let publisher = publishes
                .iter()
                .find(|s| s.trace_id == ctx.trace_id)
                .expect("dispatch_msg joins a publish trace");
            assert_eq!(rec.parent, Some(publisher.span_id));
        }
        let batch_traces: std::collections::HashSet<_> =
            got[1..].iter().map(|m| m.ctx.unwrap().trace_id).collect();
        assert_eq!(batch_traces.len(), 1, "one batch, one publish trace");
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
        assert_eq!(prof.phases().len(), 5);
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
        // taureau-core's default `lock-prof` feature is on in this build,
        // so every shard acquisition is counted.
        assert!(
            snap.acquisitions >= 5,
            "publishes acquire the topic shard: {}",
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
    fn batch_builder_flushes_one_entry() {
        let c = small_cluster();
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        let mut b = p.batch();
        assert!(b.is_empty());
        b.add(&b"x"[..]).add(&b"y"[..]);
        assert_eq!(b.len(), 2);
        let ids = b.flush().unwrap();
        assert_eq!(ids.len(), 2);
        assert!(b.is_empty());
        assert_eq!(c.retained_entries("t").unwrap(), 1);
        // Empty flush publishes nothing.
        assert!(b.flush().unwrap().is_empty());
        assert_eq!(c.retained_entries("t").unwrap(), 1);
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

    #[test]
    fn tenant_backlog_quota_enforced_and_released_by_trim() {
        let c = small_cluster();
        c.create_topic("acme/orders", 1).unwrap();
        c.create_topic("acme/logs", 1).unwrap();
        c.create_topic("other/t", 1).unwrap();
        c.set_tenant_quota("acme", 10);
        let orders = c.producer("acme/orders").unwrap();
        let logs = c.producer("acme/logs").unwrap();
        let mut consumer = c
            .subscribe("acme/orders", "s", SubscriptionMode::Exclusive)
            .unwrap();
        for i in 0..6u64 {
            orders.send(&i.to_le_bytes()).unwrap();
        }
        for i in 0..4u64 {
            logs.send(&i.to_le_bytes()).unwrap();
        }
        // Quota full across the tenant's topics.
        assert!(matches!(
            orders.send(b"over"),
            Err(PulsarError::TenantQuotaExceeded { quota: 10, .. })
        ));
        // Another tenant is unaffected.
        let other = c.producer("other/t").unwrap();
        assert!(other.send(b"fine").is_ok());
        // Consuming + trimming releases quota.
        assert_eq!(consumer.drain().unwrap().len(), 6);
        // Roll the open segment by filling it, then trim: simplest is to
        // trim after the cursor passed the sealed segments. With 8
        // entries/segment and only 6 sent, the open segment cannot be
        // trimmed — so quota stays tight; verify the error persists…
        assert!(orders.send(b"still-over").is_err());
        // …until the other topic's backlog is consumed and trimmed.
        let mut log_reader = c
            .subscribe("acme/logs", "s", SubscriptionMode::Exclusive)
            .unwrap();
        assert_eq!(log_reader.drain().unwrap().len(), 4);
        assert_eq!(c.metrics().counter("quota_rejections").get(), 2);
    }

    #[test]
    fn the_first_quota_ever_set_binds_the_next_publish() {
        let c = small_cluster();
        c.create_topic("acme/orders", 1).unwrap();
        let orders = c.producer("acme/orders").unwrap();
        // No quota anywhere: publishes skip the lookup entirely.
        for i in 0..3u64 {
            orders.send(&i.to_le_bytes()).unwrap();
        }
        c.set_tenant_quota("acme", 3);
        assert!(matches!(
            orders.send(b"over"),
            Err(PulsarError::TenantQuotaExceeded { quota: 3, .. })
        ));
        assert!(matches!(
            orders.send_batch(&[b"a", b"b"]),
            Err(PulsarError::TenantQuotaExceeded { quota: 3, .. })
        ));
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
        // A producer outliving its topic: with no quota set nothing looks
        // the topic up before the append does, and the append still says so.
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
