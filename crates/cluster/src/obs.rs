//! The cluster observability plane: per-node telemetry agents, a
//! collector node, HLC-merged timelines, failure reconstruction with
//! MTTD/MTTR attribution, and grey-failure detection.
//!
//! Everything the single-process monitor takes for granted breaks on a
//! cluster: there is no shared tracer ring to scrape, node clocks are
//! skewed, and the telemetry itself rides the same faulty network as the
//! data plane. This module is the plane's second transport; the batch
//! format and the fold are `taureau-monitor`'s, the same ones the
//! Pulsar-borne monitor uses:
//!
//! - A `TelemetryAgent` on every service node (brokers, workers, memory
//!   nodes, the client — not bookies, whose I/O is modeled in-process)
//!   stamps each event with a hybrid logical clock
//!   ([`HlcStamp`](taureau_core::trace::HlcStamp)) read off a
//!   deterministically *skewed* local clock, writes it into the next
//!   batch ([`BatchWriter`]), and ships batches over the
//!   [`SimNet`](crate::transport) — subject to the same latency, drop,
//!   duplication, and partition faults as data traffic. Batches carry a
//!   sequence number and a cumulative event count so the collector can
//!   account for loss exactly.
//! - The [`Collector`] folds each batch with the one [`TelemetryFold`]
//!   (per-`(op, node)` rows for the cluster [`HealthReport`], loss
//!   ledgers) and reads what the fold hands back: control-plane events for
//!   one HLC-ordered timeline, data-plane batches for its flight recorder,
//!   and RPC samples for the grey-failure detector: a node whose
//!   client-observed RPC p50 exceeds `ObsConfig::grey_ratio` × the fleet
//!   median of its role group is flagged *slow-but-alive* — before (or
//!   without) the heartbeat failure detector ever firing.
//! - `FailureTimeline::reconstruct` folds membership transitions, lease
//!   moves, fence rejections, consumer rebuilds, bookie replacement, and
//!   re-replication progress into per-incident records. Every unavailable
//!   microsecond is assigned to exactly one phase — detection, re-lease,
//!   subscription rebuild, re-replication drain — with the remainder
//!   explicitly unattributed, so "explained ≤ wall" holds by construction
//!   (the same discipline as the dispatch profiler in `taureau-prof`).
//!
//! The plane's own loss is a first-class measurement: `sent`, `received`,
//! and gap-detected `dropped` counters reconcile exactly once the agents
//! have synced (empty batches carrying the final cumulative count), even
//! under injected drops.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use taureau_core::id::NodeId;
use taureau_core::trace::{
    AttrValue, HlcClock, HlcStamp, SpanRecord, TelemetryEvent, TelemetrySink,
};
use taureau_jiffy::Jiffy;
use taureau_monitor::{
    write_blackbox, BatchRef, BatchWriter, EventRef, HealthReport, ObsEvent, StampedEvent,
    TelemetryFold,
};
use taureau_sketches::KllSketch;

use crate::fabric::{ClusterFabric, NodeRole};
use crate::pulsar_cluster::{ClusterPulsar, TRACE_SYSTEM};
use crate::transport::Envelope;

/// Envelope kind used by telemetry batches on the fabric.
pub(crate) const TELEMETRY_KIND: &str = "telem";

/// Bytes of data-plane batches the collector's flight recorder keeps
/// before evicting the oldest (about 2 500 four-RPC requests).
const RING_BYTES: usize = 4 << 20;

// -- configuration -----------------------------------------------------------

/// Tuning for the observability plane.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Events per batch before an early flush.
    pub(crate) batch_max: usize,
    /// Flush cadence for partially-filled batches.
    pub(crate) flush_every: Duration,
    /// Cadence of empty "sync" batches (they carry only the cumulative
    /// sent count, letting the collector finalize loss accounting).
    pub(crate) sync_every: Duration,
    /// Maximum per-node clock skew, microseconds. Each node gets a
    /// deterministic skew in `[0, skew_max_us]` added to its physical
    /// clock reads — HLC ordering must survive it.
    pub(crate) skew_max_us: u64,
    /// Minimum successful RPC samples per target before the grey detector
    /// will judge it.
    pub(crate) grey_min_samples: u64,
    /// A node is grey when its RPC p50 exceeds this multiple of the fleet
    /// median p50 within its role group.
    pub(crate) grey_ratio: f64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            batch_max: 64,
            flush_every: Duration::from_millis(5),
            sync_every: Duration::from_millis(25),
            skew_max_us: 500,
            grey_min_samples: 20,
            grey_ratio: 3.0,
        }
    }
}

/// Deterministic per-node clock skew in `[0, max_us]` — the fabric has
/// one virtual clock, so skew is modeled at the observation layer.
fn node_skew_us(node: NodeId, max_us: u64) -> u64 {
    if max_us == 0 {
        return 0;
    }
    (node.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % (max_us + 1)
}

fn role_code(role: NodeRole) -> u8 {
    match role {
        NodeRole::Broker => 0,
        NodeRole::Bookie => 1,
        NodeRole::Memory => 2,
        NodeRole::Worker => 3,
        NodeRole::Client => 4,
        NodeRole::Collector => 5,
    }
}

fn role_name(code: u8) -> &'static str {
    match code {
        0 => "broker",
        1 => "bookie",
        2 => "memory",
        3 => "worker",
        4 => "client",
        _ => "collector",
    }
}

// -- telemetry agent ---------------------------------------------------------

/// The per-node telemetry shipper: stamps events with the node's skewed
/// HLC, writes them into the next batch, and flushes batches to the
/// collector over the fabric network on its timers.
pub(crate) struct TelemetryAgent {
    node: NodeId,
    hlc: HlcClock,
    skew_us: u64,
    batches: BatchWriter,
    batch_max: usize,
    flush_every: Duration,
    sync_every: Duration,
    last_flush: Duration,
    last_sync: Duration,
    pending_lost: u64,
    /// The node's membership belief as last diffed, with the generation
    /// it had then.
    last_view: Option<(u64, BTreeSet<NodeId>)>,
}

impl TelemetryAgent {
    fn new(node: NodeId, cfg: &ObsConfig) -> Self {
        Self {
            node,
            hlc: HlcClock::new(node.raw()),
            skew_us: node_skew_us(node, cfg.skew_max_us),
            batches: BatchWriter::new(node),
            batch_max: cfg.batch_max.max(1),
            flush_every: cfg.flush_every,
            sync_every: cfg.sync_every,
            last_flush: Duration::ZERO,
            last_sync: Duration::ZERO,
            pending_lost: 0,
            last_view: None,
        }
    }

    /// The node this agent runs on.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// The node's next HLC stamp: fabric time plus modeled skew.
    fn stamp(&mut self, now: Duration) -> HlcStamp {
        self.hlc.tick(now.as_micros() as u64 + self.skew_us)
    }

    /// Stamp and buffer one event.
    pub(crate) fn record(&mut self, now: Duration, event: &ObsEvent) {
        let hlc = self.stamp(now);
        self.batches.push(hlc, event);
    }

    /// Stamp and buffer one finished span.
    pub(crate) fn record_span(&mut self, now: Duration, span: &SpanRecord) {
        let hlc = self.stamp(now);
        self.batches.push_span(hlc, span);
    }

    /// Stamp and buffer one metric delta.
    pub(crate) fn record_metric(&mut self, now: Duration, name: &str, delta: u64) {
        let hlc = self.stamp(now);
        self.batches.push_metric(hlc, name, delta);
    }

    /// Diff the node's membership view against the last one, recording
    /// up/down transitions. The first view is the baseline (no events);
    /// an unchanged generation means an unchanged view and costs nothing.
    fn observe_view(&mut self, now: Duration, generation: u64, view: &BTreeSet<NodeId>) {
        let Some((seen, mut prev)) = self.last_view.take() else {
            self.last_view = Some((generation, view.clone()));
            return;
        };
        if seen != generation {
            for &peer in view.difference(&prev) {
                let peer = peer.raw();
                self.record(now, &ObsEvent::Membership { peer, up: true });
            }
            for &peer in prev.difference(view) {
                let peer = peer.raw();
                self.record(now, &ObsEvent::Membership { peer, up: false });
            }
            prev.clone_from(view);
        }
        self.last_view = Some((generation, prev));
    }

    /// Crash side effect: buffered events die with the process.
    fn on_kill(&mut self) {
        self.pending_lost += self.batches.discard();
        self.last_view = None;
    }

    /// Ship the oldest `count` pending events as one batch.
    fn send_batch(&mut self, fabric: &ClusterFabric, collector: NodeId, count: usize) {
        let body = self.batches.take(count);
        fabric.send(self.node, collector, 0, TELEMETRY_KIND, body, None);
    }

    /// The instant [`Self::flush`] next has something to send: at once
    /// for a full batch, then a partial batch's flush, then an agent with
    /// history's sync; never for an agent that has nothing and never sent.
    fn next_due(&self) -> Duration {
        if self.batches.pending() >= self.batch_max {
            Duration::ZERO
        } else if self.batches.pending() > 0 {
            self.last_flush + self.flush_every
        } else if self.batches.sent().0 > 0 {
            self.last_sync + self.sync_every
        } else {
            Duration::MAX
        }
    }

    /// Flush due batches (size- or time-triggered), plus periodic empty
    /// sync batches so the collector can finalize loss accounting.
    fn flush(&mut self, fabric: &ClusterFabric, collector: NodeId, now: Duration) {
        while self.batches.pending() >= self.batch_max {
            self.send_batch(fabric, collector, self.batch_max);
            self.last_flush = now;
            self.last_sync = now;
        }
        if self.batches.pending() > 0 && now >= self.last_flush + self.flush_every {
            self.send_batch(fabric, collector, self.batches.pending());
            self.last_flush = now;
            self.last_sync = now;
        }
        let synced = self.batches.sent().0 > 0;
        if self.batches.pending() == 0 && synced && now >= self.last_sync + self.sync_every {
            self.send_batch(fabric, collector, 0);
            self.last_sync = now;
        }
    }
}

// -- collector ---------------------------------------------------------------

/// Successful-RPC latencies of one target, with the median the grey
/// detector judges it by.
struct RpcTarget {
    sketch: KllSketch,
    /// `sketch.quantile(0.5)`; `None` once the sketch has moved since.
    p50: Option<f64>,
}

impl RpcTarget {
    fn p50(&self) -> Option<f64> {
        self.p50.or_else(|| self.sketch.quantile(0.5))
    }
}

/// The collector node's state: the one telemetry fold, and its readers.
/// Control-plane events are kept decoded for the life of the stack —
/// failure reconstruction needs every one, and they are rare; everything
/// else stays as the bytes it arrived in, in a flight-recorder ring
/// bounded by `RING_BYTES`, decoded when [`Self::span_records`] asks.
pub struct Collector {
    fold: TelemetryFold,
    control: Vec<StampedEvent>,
    /// Data-plane batches, oldest first, each with its data-event count.
    ring: VecDeque<(Bytes, u64)>,
    ring_bytes: usize,
    ring_cap: usize,
    events_evicted: u64,
    /// `(role, target)` → latencies: a role group is one key range.
    rpc: BTreeMap<(u8, u64), RpcTarget>,
    /// Role groups the batch being ingested folded an RPC into.
    touched_roles: Vec<u8>,
    grey_min_samples: u64,
    grey_ratio: f64,
    /// node → first time the detector flagged it.
    grey_flags: BTreeMap<u64, Duration>,
}

impl Collector {
    fn new(cfg: &ObsConfig) -> Self {
        Self {
            fold: TelemetryFold::default(),
            control: Vec::new(),
            ring: VecDeque::new(),
            ring_bytes: 0,
            ring_cap: RING_BYTES,
            events_evicted: 0,
            rpc: BTreeMap::new(),
            touched_roles: Vec::new(),
            grey_min_samples: cfg.grey_min_samples,
            grey_ratio: cfg.grey_ratio,
            grey_flags: BTreeMap::new(),
        }
    }

    /// Total events received (after batch dedup).
    pub fn events_received(&self) -> u64 {
        self.fold.events_received()
    }

    /// Batches processed (duplicates excluded).
    pub fn batches_received(&self) -> u64 {
        self.fold.batches_received()
    }

    /// Ingest one telemetry envelope (non-telemetry kinds are ignored).
    pub(crate) fn ingest(&mut self, env: &Envelope, now: Duration) {
        if env.kind != TELEMETRY_KIND {
            return;
        }
        let Some(mut folded) = self.fold.ingest(&env.body, Some(env.from)) else {
            return;
        };
        self.control.append(folded.control());
        for &(role, target, latency_us) in folded.rpcs() {
            let t = self.rpc.entry((role, target)).or_insert_with(|| RpcTarget {
                sketch: KllSketch::new(200),
                p50: None,
            });
            t.sketch.update(latency_us as f64);
            t.p50 = None;
            if !self.touched_roles.contains(&role) {
                self.touched_roles.push(role);
            }
        }
        // Flight recorder: evict from the old end, never the newest.
        let data_events = folded.data_events();
        if data_events > 0 {
            self.ring_bytes += env.body.len();
            self.ring.push_back((env.body.clone(), data_events));
            while self.ring_bytes > self.ring_cap && self.ring.len() > 1 {
                let (old, lost) = self.ring.pop_front().expect("len > 1");
                self.ring_bytes -= old.len();
                self.events_evicted += lost;
            }
        }
        self.update_grey(now);
    }

    /// `(node, p50)` of the role's members with enough samples to judge,
    /// and the median of those p50s (0 for an empty group).
    fn grey_group(&self, role: u8) -> (Vec<(u64, f64)>, f64) {
        let members: Vec<(u64, f64)> = self
            .rpc
            .range((role, 0)..=(role, u64::MAX))
            .filter(|(_, t)| t.sketch.total() >= self.grey_min_samples)
            .filter_map(|(&(_, node), t)| Some((node, t.p50()?)))
            .collect();
        let mut p50s: Vec<f64> = members.iter().map(|&(_, p)| p).collect();
        p50s.sort_by(|a, b| a.total_cmp(b));
        let median = p50s.get(p50s.len() / 2).copied().unwrap_or(0.0);
        (members, median)
    }

    /// `(node, p50, fleet median)` of each member of `role`'s group the
    /// detector judges slow. A median needs a fleet: under 3 judgeable
    /// peers there is no "normal" to deviate from, and nobody is slow.
    fn slow_in(&self, role: u8) -> Vec<(u64, f64, f64)> {
        let (members, median) = self.grey_group(role);
        let fleet = members.len() >= 3 && median > 0.0;
        let slow = members
            .into_iter()
            .filter(|&(_, p50)| p50 >= self.grey_ratio * median);
        slow.filter(|_| fleet)
            .map(|(node, p50)| (node, p50, median))
            .collect()
    }

    /// Re-judge the role groups this batch folded an RPC into, recording
    /// first-flag times (a judgement is a function of the group's sketches
    /// alone). No quantile is derived for a group too small to judge, and
    /// otherwise only for the members whose sketch moved.
    fn update_grey(&mut self, now: Duration) {
        while let Some(role) = self.touched_roles.pop() {
            let group = (role, 0)..=(role, u64::MAX);
            let min = self.grey_min_samples;
            let judgeable = |t: &RpcTarget| t.sketch.total() >= min;
            let members = self.rpc.range(group.clone()).filter(|(_, t)| judgeable(t));
            if members.count() < 3 {
                continue;
            }
            for (_, t) in self.rpc.range_mut(group).filter(|(_, t)| judgeable(t)) {
                t.p50 = t.p50();
            }
            for (node, _, _) in self.slow_in(role) {
                self.grey_flags.entry(node).or_insert(now);
            }
        }
    }

    /// Nodes ever flagged grey, with first-flag times.
    pub fn grey_flags(&self) -> &BTreeMap<u64, Duration> {
        &self.grey_flags
    }

    /// The control-plane timeline, HLC-ordered (the one order every
    /// observer agrees on).
    pub fn events(&self) -> Vec<StampedEvent> {
        let mut out = self.control.clone();
        out.sort_by_key(|e| e.hlc);
        out
    }

    /// Reassemble the flight recorder's spans as [`SpanRecord`]s so
    /// `taureau-prof` can stitch cross-node traces. Subsystem names are
    /// re-interned ([`SpanRecord::system`] is `&'static str`); unknown
    /// systems and attribute keys fall back to `"remote"`.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        let batches = self.ring.iter().filter_map(|(b, _)| BatchRef::parse(b));
        let mut out: Vec<SpanRecord> = batches
            .flat_map(|batch| batch.events())
            .filter_map(|(_, ev)| match ev {
                EventRef::Span(span) => Some(span.to_record()),
                _ => None,
            })
            .collect();
        out.sort_by_key(|s| (s.trace_id.0, s.start));
        out
    }

    /// Cluster-wide health snapshot: the fold's per-`(op, node)` rows and
    /// counters behind the telemetry plane's own, and grey flags as
    /// active alerts.
    pub(crate) fn health_report(&self, now: Duration) -> HealthReport {
        let mut report = self.fold.health_report(now);
        let plane = [
            ("events_received", self.fold.events_received()),
            ("batches_received", self.fold.batches_received()),
            ("dropped_detected", self.fold.detected_dropped()),
            ("decode_errors", self.fold.decode_errors()),
            ("events_evicted", self.events_evicted),
        ];
        let plane = plane.map(|(name, n)| (format!("cluster.telemetry_{name}"), n));
        report.counters.splice(0..0, plane);
        report.active_alerts = self
            .grey_flags
            .keys()
            .map(|n| format!("grey-node-{n}"))
            .collect();
        report
    }
}

// -- failure timeline --------------------------------------------------------

/// What kind of node an incident took down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A broker crash: unavailability until lease + subscription recover.
    Broker,
    /// A bookie crash: durability debt until re-replication drains.
    Bookie,
}

/// Ground truth about one injected fault, supplied by the harness: when
/// the node died and when the *client* first saw the affected workload
/// succeed again. The reconstruction fills in everything between.
#[derive(Debug, Clone)]
pub struct IncidentSpec {
    /// Incident label, e.g. `kill-1`.
    pub id: String,
    /// The node that died.
    pub node: NodeId,
    /// What kind of node it was.
    pub kind: IncidentKind,
    /// Fault injection time.
    pub fault_at: Duration,
    /// Client-observed recovery time.
    pub recovered_at: Duration,
}

/// The phases an unavailability window is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutagePhase {
    /// Fault → first membership-down report (or in-process crash signal).
    Detection,
    /// Detection → lease moved / bookie replaced.
    Release,
    /// Release → consumer handle rebuilt on the new owner.
    SubscriptionRebuild,
    /// Rebuild/replacement → re-replication backlog drained.
    RereplicationDrain,
    /// Remainder of the window no boundary event explains.
    Unattributed,
}

impl std::fmt::Display for OutagePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OutagePhase::Detection => "detection",
            OutagePhase::Release => "re-lease",
            OutagePhase::SubscriptionRebuild => "sub-rebuild",
            OutagePhase::RereplicationDrain => "rerepl-drain",
            OutagePhase::Unattributed => "unattributed",
        })
    }
}

/// One reconstructed incident: boundaries, phases, MTTD/MTTR.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Harness label.
    pub id: String,
    /// The dead node.
    pub(crate) node: NodeId,
    /// Node kind.
    pub(crate) kind: IncidentKind,
    /// Fault injection time (ground truth).
    pub(crate) fault_at: Duration,
    /// Client-observed recovery (ground truth).
    pub(crate) recovered_at: Duration,
    /// First failure-detection signal, if captured.
    pub(crate) detected_at: Option<Duration>,
    /// Lease move / bookie replacement, if captured.
    pub released_at: Option<Duration>,
    /// Phase attribution. Sums to exactly the wall window; the
    /// [`OutagePhase::Unattributed`] entry absorbs what no event explains.
    pub phases: Vec<(OutagePhase, Duration)>,
}

impl Incident {
    /// Total unavailability window (fault → client-observed recovery).
    pub fn wall(&self) -> Duration {
        self.recovered_at.saturating_sub(self.fault_at)
    }

    /// Mean-time-to-detect: fault → first detection signal.
    pub fn mttd(&self) -> Option<Duration> {
        self.detected_at.map(|d| d.saturating_sub(self.fault_at))
    }

    /// Mean-time-to-recover: the full wall window.
    pub fn mttr(&self) -> Duration {
        self.wall()
    }

    /// Time attributed to a named phase (never the whole window unless
    /// events cover it).
    pub fn phase(&self, phase: OutagePhase) -> Duration {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|&(_, d)| d)
            .unwrap_or(Duration::ZERO)
    }

    /// Explained time: everything except [`OutagePhase::Unattributed`].
    /// `explained() ≤ wall()` by construction.
    pub fn explained(&self) -> Duration {
        self.phases
            .iter()
            .filter(|(p, _)| *p != OutagePhase::Unattributed)
            .map(|&(_, d)| d)
            .sum()
    }

    /// Explained fraction of the wall window (1.0 for a zero window).
    pub fn explained_fraction(&self) -> f64 {
        let wall = self.wall().as_nanos();
        if wall == 0 {
            return 1.0;
        }
        self.explained().as_nanos() as f64 / wall as f64
    }
}

/// Per-incident reconstruction over the collector's merged event stream.
#[derive(Debug, Clone, Default)]
pub struct FailureTimeline {
    /// Reconstructed incidents, in spec order.
    pub incidents: Vec<Incident>,
}

impl FailureTimeline {
    /// Fold the HLC-ordered event stream into one record per spec.
    ///
    /// Boundary events are searched within each incident's window and
    /// clamped monotonic into `[fault_at, recovered_at]`, so phase widths
    /// are non-negative and sum exactly to the wall window — a missing
    /// boundary collapses its phase to zero and leaves the remainder
    /// unattributed rather than inventing an explanation.
    pub(crate) fn reconstruct(events: &[StampedEvent], specs: &[IncidentSpec]) -> Self {
        let mut sorted: Vec<&StampedEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.hlc);
        let incidents = specs
            .iter()
            .map(|spec| Self::reconstruct_one(&sorted, spec))
            .collect();
        Self { incidents }
    }

    fn reconstruct_one(sorted: &[&StampedEvent], spec: &IncidentSpec) -> Incident {
        let t0 = spec.fault_at;
        let t_end = spec.recovered_at.max(t0);
        let window = |e: &&&StampedEvent| {
            let t = e.hlc.time();
            t >= t0 && t <= t_end + Duration::from_millis(2)
        };
        let dead = spec.node.raw();
        // First membership-down report for the dead node from any agent.
        let mut detected_at = sorted
            .iter()
            .filter(window)
            .find(|e| matches!(&e.event, ObsEvent::Membership { peer, up: false } if *peer == dead))
            .map(|e| e.hlc.time());
        let (released_at, rebuilt_at, drained_at) = match spec.kind {
            IncidentKind::Broker => {
                let released = sorted
                    .iter()
                    .filter(window)
                    .find(|e| matches!(&e.event, ObsEvent::Lease { owner, .. } if *owner != dead))
                    .map(|e| e.hlc.time());
                let rebuilt = sorted
                    .iter()
                    .filter(window)
                    .filter(|e| released.is_none_or(|r| e.hlc.time() >= r))
                    .find(|e| matches!(&e.event, ObsEvent::Rebuild { node, .. } if *node != dead))
                    .map(|e| e.hlc.time());
                (released, rebuilt, None)
            }
            IncidentKind::Bookie => {
                let replaced = sorted
                    .iter()
                    .filter(window)
                    .find(|e| {
                        matches!(&e.event, ObsEvent::BookieReplaced { dead: d, .. } if *d == dead)
                    })
                    .map(|e| e.hlc.time());
                // The storage tier notices a crashed bookie at write time
                // (in-process signal) — often before heartbeats expire.
                // Replacement implies detection.
                if let Some(r) = replaced {
                    detected_at = Some(detected_at.map_or(r, |d| d.min(r)));
                }
                let drained = sorted
                    .iter()
                    .filter(window)
                    .filter(|e| replaced.is_none_or(|r| e.hlc.time() >= r))
                    .find(|e| matches!(&e.event, ObsEvent::Repair { backlog: 0, .. }))
                    .map(|e| e.hlc.time());
                (replaced, None, drained)
            }
        };
        // Clamp boundaries monotonic into the window: a missing boundary
        // inherits the previous one (zero-width phase).
        let clamp = |t: Option<Duration>, prev: Duration| -> Duration {
            t.map_or(prev, |t| t.clamp(prev, t_end))
        };
        let b_detect = clamp(detected_at, t0);
        let b_release = clamp(released_at, b_detect);
        let b_rebuild = clamp(rebuilt_at, b_release);
        let b_drain = clamp(drained_at, b_rebuild);
        let phases = vec![
            (OutagePhase::Detection, b_detect - t0),
            (OutagePhase::Release, b_release - b_detect),
            (OutagePhase::SubscriptionRebuild, b_rebuild - b_release),
            (OutagePhase::RereplicationDrain, b_drain - b_rebuild),
            (OutagePhase::Unattributed, t_end - b_drain),
        ];
        Incident {
            id: spec.id.clone(),
            node: spec.node,
            kind: spec.kind,
            fault_at: t0,
            recovered_at: t_end,
            detected_at,
            released_at,
            phases,
        }
    }

    /// Mean MTTD over incidents that captured a detection signal.
    pub fn mean_mttd(&self) -> Option<Duration> {
        let samples: Vec<Duration> = self.incidents.iter().filter_map(|i| i.mttd()).collect();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<Duration>() / samples.len() as u32)
    }

    /// Mean MTTR over all incidents.
    pub fn mean_mttr(&self) -> Option<Duration> {
        if self.incidents.is_empty() {
            return None;
        }
        Some(
            self.incidents.iter().map(|i| i.mttr()).sum::<Duration>() / self.incidents.len() as u32,
        )
    }

    /// The worst explained fraction across incidents (1.0 when empty).
    pub fn min_explained_fraction(&self) -> f64 {
        self.incidents
            .iter()
            .map(|i| i.explained_fraction())
            .fold(1.0, f64::min)
    }

    /// Human-readable incident report (see DESIGN.md §12 for a guided
    /// read-through).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for inc in &self.incidents {
            let _ = writeln!(
                out,
                "incident {} — {} node n{} down at {:.3}s, recovered {:.3}s",
                inc.id,
                match inc.kind {
                    IncidentKind::Broker => "broker",
                    IncidentKind::Bookie => "bookie",
                },
                inc.node.raw(),
                inc.fault_at.as_secs_f64(),
                inc.recovered_at.as_secs_f64(),
            );
            let _ = writeln!(
                out,
                "  MTTD {}  MTTR {:.1}ms  explained {:.1}%",
                inc.mttd().map_or("n/a".to_string(), |d| format!(
                    "{:.1}ms",
                    d.as_secs_f64() * 1e3
                )),
                inc.mttr().as_secs_f64() * 1e3,
                inc.explained_fraction() * 100.0,
            );
            for (phase, width) in &inc.phases {
                if width.is_zero() {
                    continue;
                }
                let wall = inc.wall().max(Duration::from_nanos(1));
                let _ = writeln!(
                    out,
                    "    {:<13} {:>9.1}ms  {:>5.1}%",
                    phase.to_string(),
                    width.as_secs_f64() * 1e3,
                    width.as_nanos() as f64 / wall.as_nanos() as f64 * 100.0,
                );
            }
        }
        out
    }
}

// -- the plane ---------------------------------------------------------------

/// End-to-end loss reconciliation for the telemetry plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossAccounting {
    /// Events handed to the network by all agents.
    pub sent: u64,
    /// Events that arrived at the collector (deduplicated).
    pub received: u64,
    /// Events the collector knows were lost (cumulative-count gaps).
    pub dropped: u64,
    /// Events still buffered on agents (not yet handed to the network).
    pub pending: u64,
    /// Events that died with crashed processes before sending.
    pub pending_lost: u64,
    /// Batches handed to the network.
    pub batches_sent: u64,
    /// Batches processed by the collector.
    pub batches_received: u64,
}

impl LossAccounting {
    /// Whether the books balance exactly: every sent event is either
    /// received or detected-dropped. Requires agents to have synced.
    pub fn exact(&self) -> bool {
        self.sent == self.received + self.dropped
    }
}

/// A fault noted by the stack (used for failover-triggered blackbox
/// dumps; experiments build their own [`IncidentSpec`]s with measured
/// recovery times).
#[derive(Debug, Clone, Copy)]
struct RecordedFault {
    node: NodeId,
    kind: IncidentKind,
    at: Duration,
}

/// The whole observability plane: one agent per service node, one
/// collector node, and the glue that routes tracer output, control-plane
/// events, and membership transitions into agents each step.
pub struct ClusterObs {
    collector_node: NodeId,
    client: NodeId,
    /// Indexed by node id; `None` for a node that runs no agent.
    agents: Vec<Option<TelemetryAgent>>,
    collector: Collector,
    sink: TelemetrySink,
    faults: Vec<RecordedFault>,
    dumped_incidents: usize,
    dump_errors: u64,
    /// [`ClusterFabric::belief_version`] at the last membership diff.
    seen_beliefs: Option<u64>,
    /// No live agent has anything to ship before this instant (a lower
    /// bound: recording only pulls it earlier).
    next_flush: Duration,
}

impl ClusterObs {
    /// Attach the plane to a fabric: adds the collector node, creates an
    /// agent for every broker/worker/memory node and the client, and
    /// attaches the plane's sink as the fabric tracer's only recorder. Call before the stack
    /// starts serving (the collector node must join membership warm-up).
    pub(crate) fn new(fabric: &mut ClusterFabric, cfg: ObsConfig, client: NodeId) -> Self {
        let collector_node = fabric.add_node(NodeRole::Collector);
        let mut agents = Vec::new();
        agents.resize_with(collector_node.raw() as usize, || None);
        for role in [
            NodeRole::Broker,
            NodeRole::Worker,
            NodeRole::Memory,
            NodeRole::Client,
        ] {
            for node in fabric.nodes_with_role(role) {
                agents[node.raw() as usize] = Some(TelemetryAgent::new(node, &cfg));
            }
        }
        // The collector's batch ring is the cluster's flight recorder: a
        // finished span is copied once, into this sink, and the fabric
        // tracer's own ring is not written.
        let sink = TelemetrySink::new(1 << 16);
        fabric.tracer().set_sole_telemetry(sink.clone());
        let collector = Collector::new(&cfg);
        Self {
            collector_node,
            client,
            agents,
            collector,
            sink,
            faults: Vec::new(),
            dumped_incidents: 0,
            dump_errors: 0,
            seen_beliefs: None,
            next_flush: Duration::MAX,
        }
    }

    /// The collector's fabric node.
    pub fn collector_node(&self) -> NodeId {
        self.collector_node
    }

    /// The collector's merged state.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The agent recording for `node` (unknown/agent-less nodes fall
    /// back to the client agent — the admin plane's point of view).
    fn agent_for(&mut self, node: NodeId) -> Option<&mut TelemetryAgent> {
        let has_agent = matches!(self.agents.get(node.raw() as usize), Some(Some(_)));
        let node = if has_agent { node } else { self.client };
        self.agents.get_mut(node.raw() as usize)?.as_mut()
    }

    /// Record on the agent filing for `node`, and note when that agent
    /// next has something to ship.
    fn record_with(&mut self, node: NodeId, record: impl FnOnce(&mut TelemetryAgent)) {
        let Some(agent) = self.agent_for(node) else {
            return;
        };
        record(agent);
        let due = agent.next_due();
        self.next_flush = self.next_flush.min(due);
    }

    fn record_on(&mut self, node: NodeId, now: Duration, event: ObsEvent) {
        self.record_with(node, |agent| agent.record(now, &event));
    }

    /// One plane step, run after the stack routes service mail: drains
    /// the tracer sink to the owning nodes' agents, drains control-plane
    /// events, diffs membership views when some belief or the roster
    /// moved, and flushes batches when some agent has one due.
    pub(crate) fn step(&mut self, fabric: &mut ClusterFabric, pulsar: &mut ClusterPulsar) {
        let now = fabric.now();
        // 1. Locally-traced spans/metrics → the node that recorded them:
        // a cluster handler's span carries the fabric node it ran on;
        // every other span (a `node` of some other kind included) is the
        // client/admin's.
        let sink = self.sink.clone();
        sink.drain_with(usize::MAX, |event| match event {
            TelemetryEvent::Span(record) => {
                let node = match (record.system, record.attr("node")) {
                    (TRACE_SYSTEM, Some(&AttrValue::U64(node))) => NodeId(node),
                    _ => self.client,
                };
                self.record_with(node, |agent| agent.record_span(now, record));
            }
            &TelemetryEvent::Metric { name, delta } => {
                self.record_with(self.client, |agent| agent.record_metric(now, name, delta));
            }
        });
        // 2. Pulsar control/data-plane events → the node they happened on
        // (bookie-tier events route to the admin/client agent).
        for event in pulsar.drain_obs_events() {
            let node = match event {
                ObsEvent::Lease { owner: n, .. }
                | ObsEvent::Rebuild { node: n, .. }
                | ObsEvent::Fence { node: n, .. } => NodeId(n),
                _ => self.client,
            };
            self.record_on(node, now, event);
        }
        // 3. Membership transitions, as each node's own detector sees
        // them (the collector keeps the *first* report — min detection),
        // diffed only when some belief or the roster moved.
        let beliefs = fabric.belief_version();
        if self.seen_beliefs != Some(beliefs) {
            self.seen_beliefs = Some(beliefs);
            for agent in self.agents.iter_mut().flatten() {
                if let Some((generation, view)) = fabric.belief(agent.node) {
                    agent.observe_view(now, generation, view);
                }
            }
            // Transitions are events to ship, and a revived node's agent
            // is live again: look at every agent.
            self.next_flush = Duration::ZERO;
        }
        // 4. Ship what's due, when anything is.
        if now >= self.next_flush {
            let mut next = Duration::MAX;
            for agent in self.agents.iter_mut().flatten() {
                if fabric.is_alive(agent.node()) {
                    agent.flush(fabric, self.collector_node, now);
                    next = next.min(agent.next_due());
                }
            }
            self.next_flush = next;
        }
    }

    /// The earliest instant at which some agent may have a batch or a sync
    /// to ship ([`Self::step`] ships nothing before it).
    pub(crate) fn next_flush(&self) -> Duration {
        self.next_flush
    }

    /// Ingest an envelope delivered to the collector node.
    pub(crate) fn ingest(&mut self, env: &Envelope, now: Duration) {
        self.collector.ingest(env, now);
    }

    /// Record one client-observed RPC (feeds the grey detector via the
    /// client's agent, like any other event — telemetry about the network
    /// rides the network).
    pub(crate) fn record_rpc(
        &mut self,
        now: Duration,
        target: NodeId,
        role: NodeRole,
        latency: Duration,
        ok: bool,
    ) {
        self.record_on(
            self.client,
            now,
            ObsEvent::Rpc {
                target: target.raw(),
                role: role_code(role),
                latency_us: latency.as_micros() as u64,
                ok,
            },
        );
    }

    /// Crash side effect: the node's buffered telemetry dies with it.
    pub(crate) fn on_kill(&mut self, node: NodeId, role: Option<NodeRole>, now: Duration) {
        if let Some(Some(agent)) = self.agents.get_mut(node.raw() as usize) {
            agent.on_kill();
        }
        match role {
            Some(NodeRole::Broker) => self.faults.push(RecordedFault {
                node,
                kind: IncidentKind::Broker,
                at: now,
            }),
            Some(NodeRole::Bookie) => self.faults.push(RecordedFault {
                node,
                kind: IncidentKind::Bookie,
                at: now,
            }),
            _ => {}
        }
    }

    /// End-to-end loss reconciliation right now.
    pub fn loss_accounting(&self) -> LossAccounting {
        let agents = || self.agents.iter().flatten();
        let sent: u64 = agents().map(|a| a.batches.sent().0).sum();
        let pending: u64 = agents().map(|a| a.batches.pending() as u64).sum();
        let pending_lost: u64 = agents().map(|a| a.pending_lost).sum();
        let batches_sent: u64 = agents().map(|a| a.batches.sent().1).sum();
        LossAccounting {
            sent,
            received: self.collector.events_received(),
            dropped: self.collector.fold.detected_dropped(),
            pending,
            pending_lost,
            batches_sent,
            batches_received: self.collector.batches_received(),
        }
    }

    /// Whether every agent's final cumulative count has reached the
    /// collector — the point at which [`LossAccounting::exact`] is
    /// guaranteed. Dead agents can never sync; revive them first.
    pub(crate) fn telemetry_synced(&self) -> bool {
        self.agents
            .iter()
            .flatten()
            .all(|a| a.batches.sent().0 == self.collector.fold.cumulative(a.node))
    }

    /// Reconstruct the failure timeline for harness-supplied incidents.
    pub fn timeline(&self, specs: &[IncidentSpec]) -> FailureTimeline {
        // Every boundary it looks for is a control-plane event.
        FailureTimeline::reconstruct(&self.collector.control, specs)
    }

    /// Cluster health snapshot (collector state + plane counters).
    pub(crate) fn health_report(&self, now: Duration) -> HealthReport {
        self.collector.health_report(now)
    }

    /// Failed blackbox writes.
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors
    }

    /// Dump the reconstructed timeline + collector trace to Jiffy
    /// `/blackbox/<incident>/` — called by the stack when a failover
    /// fires. Recovery times are provisional (`now`): the flight recorder
    /// writes what it knows at dump time. Returns the incident id, or
    /// `None` when there is nothing new to dump.
    pub(crate) fn dump_failover(&mut self, jiffy: &Jiffy, now: Duration) -> Option<String> {
        if self.faults.len() <= self.dumped_incidents {
            return None;
        }
        let id = format!("incident-{}", self.dumped_incidents + 1);
        self.dumped_incidents = self.faults.len();
        let specs: Vec<IncidentSpec> = self
            .faults
            .iter()
            .enumerate()
            .map(|(i, f)| IncidentSpec {
                id: format!("fault-{}", i + 1),
                node: f.node,
                kind: f.kind,
                fault_at: f.at,
                recovered_at: now,
            })
            .collect();
        let timeline = self.timeline(&specs);
        let loss = self.loss_accounting();
        let mut summary = timeline.render_text();
        summary.push_str(&format!(
            "telemetry: sent={} received={} dropped={} pending={} pending_lost={}\n",
            loss.sent, loss.received, loss.dropped, loss.pending, loss.pending_lost
        ));
        let roles: BTreeSet<u8> = self.collector.rpc.keys().map(|&(role, _)| role).collect();
        for role in roles {
            for (node, p50, median) in self.collector.slow_in(role) {
                let role = role_name(role);
                let line =
                    format!("grey: {role} n{node} p50 {p50:.0}us vs fleet median {median:.0}us\n");
                summary.push_str(&line);
            }
        }
        let spans = self.collector.span_records();
        if write_blackbox(jiffy, &id, ("timeline.txt", &summary), &spans).is_err() {
            self.dump_errors += 1;
            return None;
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::trace::{Attrs, SpanId, TraceId};

    fn stamp(node: u64, us: u64) -> HlcStamp {
        HlcStamp {
            physical_us: us,
            logical: 0,
            node,
        }
    }

    fn ev(node: u64, us: u64, event: ObsEvent) -> StampedEvent {
        StampedEvent {
            node: NodeId(node),
            hlc: stamp(node, us),
            event,
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn telem(from: NodeId, body: Bytes) -> Envelope {
        Envelope {
            from,
            to: NodeId(99),
            seq: 0,
            req: 0,
            kind: TELEMETRY_KIND,
            body,
            ctx: None,
        }
    }

    /// One batch of `events` from `node`, sequence `seq`, after `sent`
    /// earlier events.
    fn batch_of(node: u64, seq: u64, sent: u64, events: &[(HlcStamp, ObsEvent)]) -> Bytes {
        let mut writer = BatchWriter::new(NodeId(node));
        for (hlc, event) in events {
            writer.push(*hlc, event);
        }
        let mut raw = writer.take(events.len()).to_vec();
        raw[10..18].copy_from_slice(&seq.to_le_bytes());
        raw[18..26].copy_from_slice(&(sent + events.len() as u64).to_le_bytes());
        Bytes::from(raw)
    }

    fn span_record_of(name: &'static str, system: &'static str, attrs: Attrs) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(7),
            span_id: SpanId(8),
            parent: Some(SpanId(6)),
            name,
            system,
            start: Duration::from_micros(900),
            end: Duration::from_micros(1_000),
            attrs,
        }
    }

    #[test]
    fn batch_wire_roundtrip_and_total_decode() {
        let events = vec![
            (stamp(3, 1_002), ObsEvent::Membership { peer: 5, up: false }),
            (
                stamp(3, 1_003),
                ObsEvent::Lease {
                    resource: "topic/t".into(),
                    owner: 2,
                    epoch: 9,
                },
            ),
            (
                stamp(3, 1_004),
                ObsEvent::Fence {
                    topic: "t".into(),
                    node: 1,
                },
            ),
            (
                stamp(3, 1_005),
                ObsEvent::Rebuild {
                    topic: "t".into(),
                    node: 2,
                },
            ),
            (
                stamp(3, 1_006),
                ObsEvent::BookieReplaced { dead: 6, target: 7 },
            ),
            (
                stamp(3, 1_007),
                ObsEvent::Repair {
                    ledgers: 4,
                    entries: 64,
                    backlog: 0,
                },
            ),
            (
                stamp(3, 1_008),
                ObsEvent::Rpc {
                    target: 2,
                    role: 0,
                    latency_us: 1_500,
                    ok: true,
                },
            ),
        ];
        let mut writer = BatchWriter::new(NodeId(3));
        let span = span_record_of(
            "cluster.pub",
            "taureau-cluster",
            [("node", 3u64)].into_iter().collect(),
        );
        writer.push_span(stamp(3, 1_000), &span);
        writer.push_metric(stamp(3, 1_001), "pulsar.publishes", 2);
        for (hlc, event) in &events {
            writer.push(*hlc, event);
        }
        let mut bytes = writer.take(9).to_vec();
        bytes[10..18].copy_from_slice(&11u64.to_le_bytes());
        bytes[18..26].copy_from_slice(&120u64.to_le_bytes());
        // One of every event kind, as the encoder wrote it before events
        // were encoded at record time (captured on the commit before).
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4f0103000000000000000b00000000000000780000000000000009000000e8030000000000000000\
             00000300000000000000535400000054530700000000000000080000000000000001060000000000\
             00008403000000000000e8030000000000000f00746175726561752d636c75737465720b00636c75\
             737465722e707562010004006e6f6465010033e9030000000000000000000003000000000000004d\
             100070756c7361722e7075626c69736865730200000000000000ea03000000000000000000000300\
             00000000000056050000000000000000eb030000000000000000000003000000000000004c070074\
             6f7069632f7402000000000000000900000000000000ec0300000000000000000000030000000000\
             0000460100740100000000000000ed03000000000000000000000300000000000000430100740200\
             000000000000ee030000000000000000000003000000000000004206000000000000000700000000\
             000000ef030000000000000000000003000000000000005204000000000000004000000000000000\
             0000000000000000f00300000000000000000000030000000000000051020000000000000000dc05\
             00000000000001"
        );
        let batch = BatchRef::parse(&bytes).expect("roundtrip");
        let mut decoded = batch.events().map(|(hlc, ev)| match ev {
            EventRef::Span(span) => {
                let r = span.to_record();
                (
                    hlc,
                    format!("{} {} {:?} {:?}", r.name, r.system, r.start, r.attrs),
                )
            }
            EventRef::Metric { name, delta } => (hlc, format!("{name} {delta}")),
            EventRef::Other(event) => (hlc, format!("{event:?}")),
        });
        let span = "cluster.pub taureau-cluster 900µs [(\"node\", Str(\"3\"))]";
        assert_eq!(decoded.next().unwrap().1, span);
        assert_eq!(decoded.next().unwrap().1, "pulsar.publishes 2");
        let others: Vec<_> = events.iter().map(|(h, e)| (*h, format!("{e:?}"))).collect();
        assert_eq!(decoded.collect::<Vec<_>>(), others);
        // Total decoders: truncation and garbage yield None, not panics.
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(BatchRef::parse(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(BatchRef::parse(b"not a batch").is_none());
    }

    #[test]
    fn gap_detection_makes_loss_accounting_exact() {
        let cfg = ObsConfig::default();
        let mut collector = Collector::new(&cfg);
        let deliver = |c: &mut Collector, seq: u64, cum: u64, n: usize| {
            let events: Vec<(HlcStamp, ObsEvent)> = (0..n)
                .map(|i| {
                    let at = 1_000 + seq * 100 + i as u64;
                    (stamp(1, at), ObsEvent::Membership { peer: 2, up: true })
                })
                .collect();
            let body = batch_of(1, seq, cum - n as u64, &events);
            c.ingest(&telem(NodeId(1), body), ms(seq + 1));
        };
        // Batches 0 (3 events) and 2 (4 events) arrive; batch 1 (5
        // events) was dropped by the network; batch 2 is duplicated.
        deliver(&mut collector, 0, 3, 3);
        deliver(&mut collector, 2, 12, 4);
        deliver(&mut collector, 2, 12, 4); // dup: ignored
        assert_eq!(collector.events_received(), 7);
        assert_eq!(collector.fold.detected_dropped(), 5);
        // A final sync batch (0 events, cum still 12) changes nothing —
        // the books already balance: 12 sent = 7 received + 5 dropped.
        deliver(&mut collector, 3, 12, 0);
        assert_eq!(collector.fold.detected_dropped(), 5);
        assert_eq!(collector.batches_received(), 3);
    }

    #[test]
    fn grey_detector_flags_slow_node_only() {
        let cfg = ObsConfig::default();
        let mut collector = Collector::new(&cfg);
        // Role 0 fleet: nodes 0..4 at ~1ms p50, node 3 at ~9ms.
        for round in 0..30u64 {
            let events: Vec<(HlcStamp, ObsEvent)> = (0..5u64)
                .map(|n| {
                    let rpc = ObsEvent::Rpc {
                        target: n,
                        role: 0,
                        latency_us: if n == 3 { 9_000 } else { 1_000 + n * 20 },
                        ok: true,
                    };
                    (stamp(4, 10_000 + round * 50 + n), rpc)
                })
                .collect();
            let body = batch_of(4, round, round * 5, &events);
            collector.ingest(&telem(NodeId(4), body), ms(round + 1));
        }
        let slow: Vec<u64> = collector.slow_in(0).iter().map(|s| s.0).collect();
        assert_eq!(slow, vec![3]);
        // Healthy nodes were never flagged.
        assert_eq!(collector.grey_flags().keys().collect::<Vec<_>>(), [&3]);
    }

    #[test]
    fn timeline_attribution_explained_is_bounded_by_wall() {
        // Broker incident: kill at 100ms, detected 180ms, lease 320ms,
        // rebuild 340ms, client recovery 345ms.
        let events = vec![
            ev(2, 180_000, ObsEvent::Membership { peer: 1, up: false }),
            ev(
                2,
                320_000,
                ObsEvent::Lease {
                    resource: "topic/t".into(),
                    owner: 2,
                    epoch: 3,
                },
            ),
            ev(
                2,
                340_000,
                ObsEvent::Rebuild {
                    topic: "t".into(),
                    node: 2,
                },
            ),
        ];
        let spec = IncidentSpec {
            id: "kill-1".into(),
            node: NodeId(1),
            kind: IncidentKind::Broker,
            fault_at: ms(100),
            recovered_at: ms(345),
        };
        let timeline = FailureTimeline::reconstruct(&events, &[spec]);
        let inc = &timeline.incidents[0];
        assert_eq!(inc.mttd(), Some(ms(80)));
        assert_eq!(inc.mttr(), ms(245));
        assert_eq!(inc.phase(OutagePhase::Detection), ms(80));
        assert_eq!(inc.phase(OutagePhase::Release), ms(140));
        assert_eq!(inc.phase(OutagePhase::SubscriptionRebuild), ms(20));
        assert_eq!(inc.phase(OutagePhase::Unattributed), ms(5));
        assert!(inc.explained() <= inc.wall());
        let total: Duration = inc.phases.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, inc.wall(), "phases must partition the window");
        assert!((inc.explained_fraction() - 240.0 / 245.0).abs() < 1e-9);
        let text = timeline.render_text();
        assert!(text.contains("kill-1"));
        assert!(text.contains("re-lease"));
    }

    #[test]
    fn timeline_missing_events_stay_unattributed() {
        // No boundary events captured at all: nothing explained, nothing
        // invented.
        let spec = IncidentSpec {
            id: "kill-2".into(),
            node: NodeId(1),
            kind: IncidentKind::Broker,
            fault_at: ms(100),
            recovered_at: ms(400),
        };
        let timeline = FailureTimeline::reconstruct(&[], &[spec]);
        let inc = &timeline.incidents[0];
        assert_eq!(inc.explained(), Duration::ZERO);
        assert_eq!(inc.phase(OutagePhase::Unattributed), ms(300));
        assert_eq!(inc.explained_fraction(), 0.0);
        assert!(inc.mttd().is_none());
    }

    #[test]
    fn timeline_bookie_uses_replacement_as_detection() {
        // The storage tier replaced the bookie (write-time crash signal)
        // before heartbeats expired; repair drains at 500ms.
        let events = vec![
            ev(4, 150_000, ObsEvent::BookieReplaced { dead: 6, target: 7 }),
            ev(4, 210_000, ObsEvent::Membership { peer: 6, up: false }),
            ev(
                4,
                300_000,
                ObsEvent::Repair {
                    ledgers: 4,
                    entries: 40,
                    backlog: 8,
                },
            ),
            ev(
                4,
                500_000,
                ObsEvent::Repair {
                    ledgers: 4,
                    entries: 40,
                    backlog: 0,
                },
            ),
        ];
        let spec = IncidentSpec {
            id: "bookie-1".into(),
            node: NodeId(6),
            kind: IncidentKind::Bookie,
            fault_at: ms(120),
            recovered_at: ms(500),
        };
        let timeline = FailureTimeline::reconstruct(&events, &[spec]);
        let inc = &timeline.incidents[0];
        assert_eq!(inc.mttd(), Some(ms(30)), "replacement implies detection");
        assert_eq!(inc.phase(OutagePhase::Detection), ms(30));
        assert_eq!(inc.phase(OutagePhase::RereplicationDrain), ms(350));
        assert_eq!(inc.phase(OutagePhase::Unattributed), Duration::ZERO);
        assert!((inc.explained_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn span_records_reassemble_for_prof() {
        let attrs = [("function", "thumb"), ("weird-key", "dropped")];
        let reassemble = |system: &'static str| {
            let mut collector = Collector::new(&ObsConfig::default());
            let mut writer = BatchWriter::new(NodeId(1));
            let span = span_record_of("faas.invoke", system, attrs.into_iter().collect());
            writer.push_span(stamp(1, 300), &span);
            collector.ingest(&telem(NodeId(1), writer.take(1)), ms(1));
            collector.span_records().remove(0)
        };
        let record = reassemble("taureau-faas");
        assert_eq!(record.system, "taureau-faas");
        assert_eq!(record.trace_id, TraceId(7));
        assert_eq!(record.attrs, [("function", "thumb")].into_iter().collect());
        assert_eq!(reassemble("someday-system").system, "remote");
    }

    #[test]
    fn node_skew_is_deterministic_and_bounded() {
        for n in 0..64u64 {
            let s = node_skew_us(NodeId(n), 500);
            assert!(s <= 500);
            assert_eq!(s, node_skew_us(NodeId(n), 500));
        }
        // Not all equal (otherwise skew tests nothing).
        let distinct: BTreeSet<u64> = (0..16).map(|n| node_skew_us(NodeId(n), 500)).collect();
        assert!(distinct.len() > 4);
        assert_eq!(node_skew_us(NodeId(3), 0), 0);
    }

    // -- the streaming plane against eager models ----------------------------

    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;
    use taureau_core::rng::det_rng;

    /// A producer-side span with everything the wire can carry: empty and
    /// 64 KiB-overflowing names, 0–20 attributes (past the inline six),
    /// typed values, non-ASCII throughout.
    fn random_record(rng: &mut impl Rng) -> SpanRecord {
        use std::sync::LazyLock;
        const SYSTEMS: [&str; 4] = ["taureau-faas", "taureau-cluster", "", "système-π"];
        const KEYS: [&str; 5] = ["node", "outcome", "function", "ключ", ""];
        const NAMES: [&str; 5] = ["faas.invoke", "cluster.pub", "pulsar.dispatch", "", "öp"];
        static LONG: LazyLock<[String; 2]> = LazyLock::new(|| {
            // 80 000 bytes of `é`: truncated on the wire.
            ["x".repeat(u16::MAX as usize), "é".repeat(40_000)]
        });
        let name = match rng.gen_range(0..12) {
            n @ 0..2 => LONG[n].as_str(),
            n => NAMES[n % NAMES.len()],
        };
        let attrs = (0..rng.gen_range(0..=20))
            .map(|_| {
                let value: AttrValue = match rng.gen_range(0..6) {
                    0 => "error".into(),
                    1 => "ok".into(),
                    2 => rng.gen_range(0..20u64).into(),
                    3 => (rng.gen_range(0..20u64) as f64 * 1e-9).into(),
                    4 => "väl".repeat(rng.gen_range(0..12)).as_str().into(),
                    _ => rng.gen::<bool>().into(),
                };
                (KEYS[rng.gen_range(0..KEYS.len())], value)
            })
            .collect();
        let start = rng.gen_range(0..1_000_000u64);
        SpanRecord {
            trace_id: TraceId(rng.gen()),
            span_id: SpanId(rng.gen()),
            parent: rng.gen_bool(0.5).then(|| SpanId(rng.gen())),
            name,
            system: SYSTEMS[rng.gen_range(0..SYSTEMS.len())],
            start: Duration::from_micros(start),
            end: Duration::from_micros(start + rng.gen_range(0..5_000u64)),
            attrs,
        }
    }

    /// Any recorded value. RPC targets are unique to their role group
    /// (`role * 10 + i`), and one target per group answers slowly.
    fn random_event(rng: &mut impl Rng) -> ObsEvent {
        let topic = ["t", "", "тема"][rng.gen_range(0..3usize)].to_string();
        match rng.gen_range(0..11) {
            0 => ObsEvent::Membership {
                peer: rng.gen_range(0..9),
                up: rng.gen(),
            },
            1 => ObsEvent::Lease {
                resource: format!("topic/{topic}"),
                owner: rng.gen_range(0..9),
                epoch: rng.gen_range(0..99),
            },
            2 => ObsEvent::Fence {
                topic,
                node: rng.gen_range(0..9),
            },
            3 => ObsEvent::Rebuild {
                topic,
                node: rng.gen_range(0..9),
            },
            4 => ObsEvent::BookieReplaced {
                dead: rng.gen_range(0..9),
                target: rng.gen_range(0..9),
            },
            5 => ObsEvent::Repair {
                ledgers: rng.gen_range(0..4),
                entries: rng.gen_range(0..64),
                backlog: rng.gen_range(0..3),
            },
            _ => {
                let (role, i) = (rng.gen_range(0..3u8), rng.gen_range(0..5u64));
                let slow: u64 = if i == 3 { 9 } else { 1 };
                ObsEvent::Rpc {
                    target: u64::from(role) * 10 + i,
                    role,
                    latency_us: slow * (1_000 + rng.gen_range(0..50u64)),
                    ok: rng.gen_bool(0.9),
                }
            }
        }
    }

    /// One thing an agent records.
    #[derive(Clone)]
    enum Recording {
        Span(Box<SpanRecord>),
        Metric(&'static str, u64),
        Event(ObsEvent),
    }

    fn random_recording(rng: &mut impl Rng) -> Recording {
        match rng.gen_range(0..4) {
            0 | 1 => Recording::Span(Box::new(random_record(rng))),
            2 => {
                let name = ["faas.cold_starts", "", "mètre"][rng.gen_range(0..3usize)];
                Recording::Metric(name, rng.gen_range(0..9))
            }
            _ => Recording::Event(random_event(rng)),
        }
    }

    fn write(writer: &mut BatchWriter, hlc: HlcStamp, recording: &Recording) {
        match recording {
            Recording::Span(span) => writer.push_span(hlc, span),
            Recording::Metric(name, delta) => writer.push_metric(hlc, name, *delta),
            Recording::Event(event) => writer.push(hlc, event),
        }
    }

    impl TelemetryAgent {
        fn record_any(&mut self, now: Duration, recording: &Recording) {
            let hlc = self.stamp(now);
            write(&mut self.batches, hlc, recording);
        }
    }

    /// The agent as it was: stamped recordings kept in a `Vec`, each
    /// batch written whole at flush.
    struct EagerAgent {
        agent: TelemetryAgent,
        pending: Vec<(HlcStamp, Recording)>,
        sent: Vec<Bytes>,
    }

    impl EagerAgent {
        fn record(&mut self, now: Duration, recording: Recording) {
            let hlc = self.agent.stamp(now);
            self.pending.push((hlc, recording));
        }

        fn send_batch(&mut self, count: usize) {
            for (hlc, recording) in self.pending.drain(..count) {
                write(&mut self.agent.batches, hlc, &recording);
            }
            self.sent.push(self.agent.batches.take(count));
        }

        fn flush(&mut self, now: Duration) {
            let batch_max = self.agent.batch_max;
            while self.pending.len() >= batch_max {
                self.send_batch(batch_max);
                self.agent.last_flush = now;
                self.agent.last_sync = now;
            }
            let a = &self.agent;
            if !self.pending.is_empty() && now >= a.last_flush + a.flush_every {
                self.send_batch(self.pending.len());
                self.agent.last_flush = now;
                self.agent.last_sync = now;
            }
            let a = &self.agent;
            let synced = a.batches.sent().0 > 0;
            if self.pending.is_empty() && synced && now >= a.last_sync + a.sync_every {
                self.send_batch(0);
                self.agent.last_sync = now;
            }
        }
    }

    proptest! {
        /// Whatever is recorded, in whatever rhythm, the agent hands the
        /// network the bytes of writing each batch whole at flush — same
        /// batches, same cuts, same instants.
        #[test]
        fn agent_ships_the_bytes_of_the_eager_encoder(
            seed in any::<u64>(),
            batch_max in 1usize..7,
            steps in vec((0u8..5, 1u8..10), 1..60),
        ) {
            let mut rng = det_rng(seed);
            let cfg = ObsConfig { batch_max, ..ObsConfig::default() };
            let mut fabric = ClusterFabric::with_membership(seed, Default::default());
            let node = fabric.add_node(NodeRole::Client);
            let collector = fabric.add_node(NodeRole::Collector);
            let mut agent = TelemetryAgent::new(node, &cfg);
            let mut eager = EagerAgent {
                agent: TelemetryAgent::new(node, &cfg),
                pending: Vec::new(),
                sent: Vec::new(),
            };
            let mut shipped = Vec::new();
            for (kind, amount) in steps {
                let now = fabric.now();
                match kind {
                    0..=2 => for _ in 0..amount {
                        let recording = random_recording(&mut rng);
                        agent.record_any(now, &recording);
                        eager.record(now, recording);
                    },
                    _ => for _ in 0..amount {
                        fabric.advance(fabric.now() + ms(3));
                        let now = fabric.now();
                        // `next_due` says exactly when a flush ships.
                        let sent = agent.batches.sent().1;
                        let due = agent.next_due() <= now;
                        agent.flush(&fabric, collector, now);
                        prop_assert_eq!(due, agent.batches.sent().1 > sent);
                        eager.flush(now);
                        prop_assert_eq!(agent.batches.pending(), eager.pending.len());
                    },
                }
                while let Some(env) = fabric.pop_mail(collector) {
                    shipped.push(env.body);
                }
            }
            fabric.advance(fabric.now() + ms(3));
            while let Some(env) = fabric.pop_mail(collector) {
                shipped.push(env.body);
            }
            prop_assert_eq!(shipped.len(), eager.sent.len());
            for (i, (got, want)) in shipped.iter().zip(&eager.sent).enumerate() {
                prop_assert!(got == want, "batch {i} differs");
            }
            prop_assert_eq!(agent.batches.sent().0, eager.agent.batches.sent().0);
        }
    }

    #[test]
    fn a_size_triggered_flush_cuts_where_drain_did() {
        let cfg = ObsConfig {
            batch_max: 4,
            ..ObsConfig::default()
        };
        let mut fabric = ClusterFabric::with_membership(1, Default::default());
        let node = fabric.add_node(NodeRole::Client);
        let collector = fabric.add_node(NodeRole::Collector);
        let mut agent = TelemetryAgent::new(node, &cfg);
        for peer in 0..10 {
            agent.record(ms(0), &ObsEvent::Membership { peer, up: true });
        }
        // Ten pending, four to a batch: 4 + 4 now, the last two wait for
        // the flush timer.
        agent.flush(&fabric, collector, ms(1));
        assert_eq!((agent.batches.sent().1, agent.batches.pending()), (2, 2));
        agent.flush(&fabric, collector, ms(1) + cfg.flush_every);
        assert_eq!((agent.batches.sent().1, agent.batches.pending()), (3, 0));
        fabric.advance(ms(1));
        let peers: Vec<Vec<u64>> = std::iter::from_fn(|| fabric.pop_mail(collector))
            .map(|env| {
                let batch = BatchRef::parse(&env.body).expect("valid batch");
                let peer = |(_, e): (HlcStamp, EventRef<'_>)| match e {
                    EventRef::Other(ObsEvent::Membership { peer, .. }) => peer,
                    _ => panic!("a membership event"),
                };
                batch.events().map(peer).collect()
            })
            .collect();
        assert_eq!(peers, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
    }

    /// A span whose name passes the `u16` length, in two-byte characters,
    /// ships in a batch the collector reads whole: the name is cut at the
    /// last character boundary that fits, and the control-plane event
    /// beside it survives (cut mid-character, the batch was dropped whole).
    #[test]
    fn a_long_non_ascii_span_name_leaves_its_batch_readable() {
        let mut agent = TelemetryAgent::new(NodeId(3), &ObsConfig::default());
        let record = SpanRecord {
            trace_id: TraceId(1),
            span_id: SpanId(2),
            parent: None,
            name: "é".repeat(35_000).leak(),
            system: "taureau-cluster",
            start: ms(1),
            end: ms(2),
            attrs: Attrs::new(),
        };
        agent.record_span(ms(2), &record);
        let fence = ObsEvent::Fence {
            topic: "t".into(),
            node: 1,
        };
        agent.record(ms(3), &fence);
        let body = agent.batches.take(2);
        let batch = BatchRef::parse(&body).expect("the batch reads whole");
        let events: Vec<_> = batch.events().map(|(_, ev)| ev).collect();
        let [EventRef::Span(span), EventRef::Other(other)] = &events[..] else {
            panic!("a span and a fence");
        };
        assert_eq!(span.to_record().name, "é".repeat(32_767));
        assert_eq!(other, &fence);
        let mut collector = Collector::new(&ObsConfig::default());
        collector.ingest(&telem(NodeId(3), body), ms(4));
        assert_eq!(collector.events_received(), 2);
        let control: Vec<ObsEvent> = collector.events().into_iter().map(|e| e.event).collect();
        assert_eq!(control, vec![fence]);
    }

    proptest! {
        /// Arbitrary bytes, and every corruption of a valid batch, reach the
        /// borrowed decoder without a panic; and a batch either folds whole
        /// or is one counted decode error that leaves no trace.
        #[test]
        fn hostile_batches_are_counted_never_folded(
            seed in any::<u64>(),
            noise in vec(any::<u8>(), 0..200),
            n_events in 1usize..12,
        ) {
            let mut rng = det_rng(seed);
            let cfg = ObsConfig::default();
            let mut collector = Collector::new(&cfg);
            collector.ingest(&telem(NodeId(1), Bytes::from(noise.clone())), ms(1));
            let refused = collector.fold.decode_errors();
            prop_assert_eq!(refused + collector.batches_received(), 1);
            let mut agent = TelemetryAgent::new(NodeId(2), &cfg);
            for i in 0..n_events {
                let recording = if i % 2 == 0 {
                    Recording::Span(Box::new(random_record(&mut rng)))
                } else {
                    random_recording(&mut rng)
                };
                agent.record_any(ms(1), &recording);
            }
            let valid = agent.batches.take(n_events);
            let mut collector = Collector::new(&cfg);
            // Every truncation is a decode error and nothing else. (Cuts
            // are sampled when a 64 KiB name makes the batch long.)
            let step = (valid.len() / 300).max(1);
            let cuts: Vec<usize> = (0..valid.len()).step_by(step).collect();
            for &cut in &cuts {
                collector.ingest(&telem(NodeId(2), valid.slice(..cut)), ms(2));
            }
            prop_assert_eq!(collector.fold.decode_errors(), cuts.len() as u64);
            prop_assert_eq!(collector.events_received(), 0);
            prop_assert!(collector.events().is_empty() && collector.ring.is_empty());
            prop_assert!(collector.health_report(ms(2)).ops.is_empty());
            prop_assert!(collector.rpc.is_empty() && collector.fold.cumulative(NodeId(2)) == 0);
            // A flipped byte either still decodes (then it folds whole) or
            // is counted — never a panic, never half a batch.
            for _ in 0..40 {
                let mut raw = valid.to_vec();
                let at = rng.gen_range(0..raw.len());
                raw[at] ^= 1u8 << rng.gen_range(0..8u32);
                let mut c = Collector::new(&cfg);
                c.ingest(&telem(NodeId(2), Bytes::from(raw)), ms(3));
                prop_assert_eq!(c.fold.decode_errors() + c.batches_received(), 1);
                let kept = c.events().len() as u64 + c.ring.iter().map(|(_, n)| n).sum::<u64>();
                prop_assert_eq!(kept, c.events_received());
            }
        }

        /// The two transports, one fold: a random span and metric stream
        /// through the pump over Pulsar into the monitor, and through an
        /// agent over a fault-free SimNet into the collector, reports the
        /// same op rows, apart from the node label, the same counters, hot
        /// functions and cold-start rate.
        #[test]
        fn the_pump_and_an_agent_report_the_same_op_rows(
            seed in any::<u64>(),
            rounds in vec(0usize..6, 1..30),
        ) {
            use std::sync::Arc;
            use taureau_core::clock::VirtualClock;
            use taureau_core::trace::Tracer;
            use taureau_monitor::{Monitor, MonitorConfig, TelemetryPump};
            use taureau_pulsar::{PulsarCluster, PulsarConfig};

            const NAMES: [&str; 4] = ["faas.invoke", "faas.startup", "cluster.pub", "öp"];
            const FUNCTIONS: [&str; 3] = ["api", "batch", "thumb"];
            let mut rng = det_rng(seed);
            let clock = Arc::new(VirtualClock::new());
            let pulsar = PulsarCluster::new(PulsarConfig::default(), clock.clone());
            let tracer = Tracer::new(clock.clone());
            let sink = TelemetrySink::new(1 << 16);
            tracer.set_telemetry(sink.clone());
            let mut pump = TelemetryPump::new(sink.clone(), &pulsar).unwrap();
            let mut monitor = Monitor::with_config(&pulsar, clock.clone(), MonitorConfig::default()).unwrap();

            let mut fabric = ClusterFabric::with_membership(seed, Default::default());
            let node = fabric.add_node(NodeRole::Client);
            let collector_node = fabric.add_node(NodeRole::Collector);
            let mut agent = TelemetryAgent::new(node, &ObsConfig::default());
            let mut collector = Collector::new(&ObsConfig::default());
            let mut spans_seen = 0;
            for events in rounds {
                for _ in 0..events {
                    if rng.gen_bool(0.2) {
                        let name = ["faas.warm_starts", "dag.nodes", "faas.invoke_latency_us"][rng.gen_range(0..3usize)];
                        let delta = rng.gen_range(1..4);
                        sink.metric(name, delta);
                        agent.record_metric(fabric.now(), name, delta);
                        continue;
                    }
                    {
                        let mut span = tracer.span("taureau-faas", NAMES[rng.gen_range(0..NAMES.len())]);
                        span.attr("function", FUNCTIONS[rng.gen_range(0..FUNCTIONS.len())]);
                        span.attr("outcome", if rng.gen_bool(0.8) { "ok" } else { "error" });
                        span.attr("kind", if rng.gen_bool(0.3) { "cold" } else { "warm" });
                        clock.advance(Duration::from_micros(rng.gen_range(1..5_000)));
                    }
                    let spans = tracer.spans();
                    for record in &spans[spans_seen..] {
                        agent.record_span(fabric.now(), record);
                    }
                    spans_seen = spans.len();
                }
                pump.pump();
                monitor.poll().unwrap();
                fabric.advance(fabric.now() + ms(5));
                agent.flush(&fabric, collector_node, fabric.now());
                fabric.advance(fabric.now() + ms(5));
                while let Some(env) = fabric.pop_mail(collector_node) {
                    collector.ingest(&env, fabric.now());
                }
            }
            prop_assert!(agent.batches.pending() == 0);
            let now = fabric.now();
            let (by_pump, mut by_agent) = (monitor.health_report(), collector.health_report(now));
            prop_assert!(by_agent.ops.iter().all(|op| op.node == Some(node.raw())));
            by_agent.ops.iter_mut().for_each(|op| op.node = None);
            prop_assert_eq!(format!("{:?}", by_pump.ops), format!("{:?}", by_agent.ops));
            by_agent.counters.retain(|(name, _)| !name.starts_with("cluster.telemetry_"));
            prop_assert_eq!(&by_pump.counters, &by_agent.counters);
            prop_assert_eq!(&by_pump.top_functions, &by_agent.top_functions);
            prop_assert_eq!(by_pump.cold_start_rate, by_agent.cold_start_rate);
            prop_assert_eq!(by_pump.decode_errors + by_agent.decode_errors, 0);
        }
    }

    #[test]
    fn a_count_the_body_cannot_back_is_rejected_before_anything_is_reserved() {
        // u32::MAX events claimed, one present: if the decoder sized
        // anything by the claim this would try to reserve gigabytes.
        let event = (stamp(1, 5), ObsEvent::Membership { peer: 2, up: true });
        let mut raw = batch_of(1, 0, 0, &[event]).to_vec();
        raw[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BatchRef::parse(&raw).is_none());
        let mut collector = Collector::new(&ObsConfig::default());
        collector.ingest(&telem(NodeId(1), Bytes::from(raw)), ms(1));
        assert_eq!(collector.fold.decode_errors(), 1);
    }

    #[test]
    fn a_full_flight_recorder_evicts_oldest_first_and_counts_it() {
        let cfg = ObsConfig::default();
        let mut collector = Collector::new(&cfg);
        let batch = |seq: u64| {
            let mut writer = BatchWriter::new(NodeId(1));
            for i in 0..3u64 {
                let hlc = stamp(1, seq * 10 + i);
                match i {
                    0 => writer.push(
                        hlc,
                        &ObsEvent::Membership {
                            peer: seq,
                            up: true,
                        },
                    ),
                    _ => {
                        let name = [
                            "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10",
                        ];
                        let mut span =
                            span_record_of(name[seq as usize], "taureau-faas", Attrs::new());
                        span.span_id = SpanId(seq * 10 + i);
                        writer.push_span(hlc, &span);
                    }
                }
            }
            let mut raw = writer.take(3).to_vec();
            raw[10..18].copy_from_slice(&seq.to_le_bytes());
            raw[18..26].copy_from_slice(&((seq + 1) * 3).to_le_bytes());
            Bytes::from(raw)
        };
        // Room for three batches and a bit.
        collector.ring_cap = batch(0).len() * 3 + 5;
        for seq in 0..10 {
            collector.ingest(&telem(NodeId(1), batch(seq)), ms(seq));
        }
        assert_eq!(collector.ring.len(), 3);
        assert!(collector.ring_bytes <= collector.ring_cap);
        // Seven batches gone, two data-plane events each; their control
        // events stay, and so does everything that was folded.
        assert_eq!(collector.events_evicted, 14);
        assert_eq!(collector.events_received(), 30);
        let spans: Vec<&str> = collector.span_records().iter().map(|s| s.name).collect();
        assert_eq!(spans, ["s7", "s7", "s8", "s8", "s9", "s9"]);
        let ups = collector.events().len();
        assert_eq!(ups, 10, "control-plane events are never evicted");
        let report = collector.health_report(ms(10));
        assert!(report
            .counters
            .contains(&("cluster.telemetry_events_evicted".to_string(), 14)));
        assert_eq!(report.ops.iter().map(|op| op.count).sum::<u64>(), 20);
        // One batch larger than the whole bound still stays, alone.
        collector.ring_cap = 1;
        collector.ingest(&telem(NodeId(1), batch(10)), ms(10));
        assert_eq!((collector.ring.len(), collector.events_evicted), (1, 20));
    }
}
