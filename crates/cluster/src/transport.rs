//! The simulated network: an async message-passing transport with
//! injectable faults.
//!
//! Every inter-node interaction in the cluster rides on [`SimNet`]. The
//! network is a discrete-event simulation over virtual time: `send`
//! schedules an [`Envelope`] for future delivery, `broadcast` a round of
//! heartbeats, and [`SimNet::advance_with`] moves the clock and hands each
//! due message to the driver, which routes it.
//!
//! In flight, a message is a key ordered by `(deliver_at, tie)`, `tie` the
//! global send order. A service envelope waits in a slab behind its key; a
//! heartbeat ([`Beat`]: sender, receiver, sequence number) is carried
//! whole in the key and is handed out as that. Keys that arrive in ascending order queue in an ordered lane, the
//! rest in a heap; delivery takes the smaller head. Both kinds of message
//! pay the same admission — count, partition check, sequence number, fault
//! draws, FIFO clamp, tie — so which one is sent never shifts a draw.
//!
//! Faults are
//! injected per directed link ([`LinkFaults`]): base latency, uniform
//! jitter, Bernoulli drops, Bernoulli duplication — plus whole-network
//! partitions ([`SimNet::partition`]). All randomness comes from one
//! seeded ChaCha8 stream ([`taureau_core::rng::det_rng`]), so a run is a
//! pure function of its seed and its fault schedule.
//!
//! Delivery guarantee: **per-link FIFO**. A link's messages are
//! delivered in send order (never reordered), even when jitter would
//! schedule a later send earlier — the schedule time is clamped to the
//! link's previous delivery time, exactly how a TCP connection turns
//! packet jitter into head-of-line blocking rather than reordering.
//! Drops remove a message entirely; duplicates arrive back-to-back
//! with the original. The property tests in `tests/properties.rs` pin
//! FIFO under arbitrary fault schedules.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use taureau_core::id::NodeId;
use taureau_core::rng::det_rng;
use taureau_core::trace::SpanContext;

/// One message in flight between two nodes.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Per-link sequence number, assigned at send. Delivered envelopes on
    /// a link carry non-decreasing `seq` (repeats are duplicates).
    pub seq: u64,
    /// Request correlation id (echoed in responses by services).
    pub req: u64,
    /// Message kind tag, dispatched on by services (`"pub"`, `"resp"`, …).
    /// Every sender passes a literal, so the tag costs no allocation.
    pub kind: &'static str,
    /// Opaque body; services frame it with `crate::wire`.
    pub body: Bytes,
    /// Causal trace context. Carrying it in the envelope (not the body)
    /// is what lets one trace follow a request across nodes: the receiver
    /// opens its handling span as a child of this context.
    pub ctx: Option<SpanContext>,
}

/// Fault model for one directed link.
#[derive(Debug, Clone, Copy)]
pub struct LinkFaults {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform extra delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self {
            latency: Duration::from_micros(500),
            jitter: Duration::ZERO,
            drop_p: 0.0,
            dup_p: 0.0,
        }
    }
}

/// Counters for what the network did to traffic. A heartbeat counts
/// exactly as a service envelope does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by `send` or `broadcast`.
    pub sent: u64,
    /// Messages handed to the driver at their destination.
    pub delivered: u64,
    /// Messages dropped by link fault injection.
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Messages refused because sender and receiver are in different
    /// partition groups.
    pub partitioned: u64,
}

/// Everything the network keeps per directed link.
#[derive(Clone, Copy, Default)]
struct Link {
    /// Fault model override; `None` uses the network default.
    faults: Option<LinkFaults>,
    /// Last scheduled delivery time — the FIFO clamp.
    last_sched: Option<Duration>,
    /// Next per-link sequence number.
    next_seq: u64,
}

/// A heartbeat: an empty, uncorrelated message whose receiver learns only
/// who sent it. It is queued as its key alone and handed out as that.
#[derive(Debug, Clone, Copy)]
pub struct Beat {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Per-link sequence number, from the same counter as [`Envelope::seq`].
    pub seq: u64,
}

/// One message handed out by [`SimNet::advance_with`].
#[derive(Debug)]
pub enum Delivery {
    /// A service message ([`SimNet::send`]).
    Env(Envelope),
    /// A heartbeat ([`SimNet::broadcast`]).
    Beat(Beat),
}

/// What a queued delivery carries.
#[derive(Clone, Copy)]
enum Cargo {
    /// The `slab` slot its envelope sits in.
    Slot(usize),
    /// The whole heartbeat.
    Beat(Beat),
}

/// A queued delivery, ordered by `(at, tie)` alone: `tie` is unique, so
/// no two keys compare equal and the cargo never takes part.
#[derive(Clone, Copy)]
struct Queued {
    at: Duration,
    tie: u64,
    cargo: Cargo,
}

impl Queued {
    fn order(&self) -> (Duration, u64) {
        (self.at, self.tie)
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order().cmp(&other.order())
    }
}

/// When and in which order [`NetState::admit`] queues a message.
struct Sched {
    at: Duration,
    tie: u64,
    /// A duplicate fault fired: a copy goes in too, at `tie + 1`.
    duplicate: bool,
}

struct NetState {
    now: Duration,
    rng: ChaCha8Rng,
    default_faults: LinkFaults,
    /// `links[from][to]`, dense in node id (the fabric hands ids out
    /// contiguously), grown on first use; indexed, never iterated.
    links: Vec<Vec<Link>>,
    /// Deliveries whose keys arrived in ascending order (`tie` is the
    /// global send order): on links whose every send is due at the same
    /// offset from `now` each new key exceeds the last, and queueing it
    /// costs a push instead of a heap sift.
    lane: VecDeque<Queued>,
    /// Deliveries whose keys arrived out of order (jitter, unequal
    /// latencies, a duplicate's original), earliest first.
    inflight: BinaryHeap<Reverse<Queued>>,
    /// Service envelopes in flight; a heartbeat needs no slot.
    slab: Vec<Option<Envelope>>,
    free_slots: Vec<usize>,
    /// Partition groups; `None` means fully connected. A node absent from
    /// every group can talk to no one.
    partition: Option<Vec<HashSet<NodeId>>>,
    tie: u64,
    stats: NetStats,
}

/// `links[from][to]`, grown on first use. A function of the table alone,
/// so a send can hold its link and draw from the network's random stream.
fn link_mut(links: &mut Vec<Vec<Link>>, from: NodeId, to: NodeId) -> &mut Link {
    let (from, to) = (from.raw() as usize, to.raw() as usize);
    if links.len() <= from {
        links.resize_with(from + 1, Vec::new);
    }
    let row = &mut links[from];
    if row.len() <= to {
        row.resize(to + 1, Link::default());
    }
    &mut row[to]
}

impl NetState {
    fn connected(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(groups) => groups.iter().any(|g| g.contains(&a) && g.contains(&b)),
        }
    }

    fn park(&mut self, env: Envelope) -> Cargo {
        Cargo::Slot(match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot] = Some(env);
                slot
            }
            None => {
                self.slab.push(Some(env));
                self.slab.len() - 1
            }
        })
    }

    fn queue(&mut self, at: Duration, tie: u64, cargo: Cargo) {
        let key = Queued { at, tie, cargo };
        if self.lane.back().is_some_and(|last| key < *last) {
            self.inflight.push(Reverse(key));
        } else {
            self.lane.push_back(key);
        }
    }

    /// The part of a send every message pays, whatever it carries: the
    /// count, the partition check (`None`), the per-link sequence number,
    /// then the drop, jitter and duplicate draws in that order, the FIFO
    /// clamp and the tie. The sequence number comes with no schedule when a
    /// drop fault consumed the message.
    fn admit(&mut self, from: NodeId, to: NodeId) -> Option<(u64, Option<Sched>)> {
        self.stats.sent += 1;
        if !self.connected(from, to) {
            self.stats.partitioned += 1;
            return None;
        }
        let link = link_mut(&mut self.links, from, to);
        let seq = link.next_seq;
        link.next_seq += 1;
        let faults = link.faults.unwrap_or(self.default_faults);
        if faults.drop_p > 0.0 && self.rng.gen_bool(faults.drop_p) {
            self.stats.dropped += 1;
            return Some((seq, None)); // the link consumed it; the sender saw a successful send
        }
        let jitter = if faults.jitter.is_zero() {
            Duration::ZERO
        } else {
            let ns = self.rng.gen_range(0..=faults.jitter.as_nanos() as u64);
            Duration::from_nanos(ns)
        };
        // FIFO clamp: never schedule behind the link's previous delivery.
        let mut at = self.now + faults.latency + jitter;
        if let Some(prev) = link.last_sched {
            at = at.max(prev);
        }
        link.last_sched = Some(at);
        let duplicate = faults.dup_p > 0.0 && self.rng.gen_bool(faults.dup_p);
        let tie = self.tie;
        self.tie += if duplicate { 2 } else { 1 };
        if duplicate {
            self.stats.duplicated += 1;
        }
        Some((seq, Some(Sched { at, tie, duplicate })))
    }

    /// [`SimNet::send`] with the lock held: the envelope is parked in the
    /// slab, a duplicate's copy first.
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        req: u64,
        kind: &'static str,
        body: Bytes,
        ctx: Option<SpanContext>,
    ) -> Option<u64> {
        let (seq, sched) = self.admit(from, to)?;
        if let Some(Sched { at, tie, duplicate }) = sched {
            let env = Envelope {
                from,
                to,
                seq,
                req,
                kind,
                body,
                ctx,
            };
            if duplicate {
                let copy = self.park(env.clone());
                self.queue(at, tie + 1, copy);
            }
            let original = self.park(env);
            self.queue(at, tie, original);
        }
        Some(seq)
    }

    /// One heartbeat of [`SimNet::broadcast`] with the lock held: the same
    /// admission as [`Self::send`], and the key is all that is queued.
    fn beat(&mut self, from: NodeId, to: NodeId) {
        let Some((seq, Some(Sched { at, tie, duplicate }))) = self.admit(from, to) else {
            return;
        };
        let beat = Cargo::Beat(Beat { from, to, seq });
        if duplicate {
            self.queue(at, tie + 1, beat);
        }
        self.queue(at, tie, beat);
    }

    /// The next delivery in (delivery time, send order), and whether it
    /// heads the lane: the smaller of the two queues' heads.
    fn head(&self) -> Option<(Queued, bool)> {
        match (self.lane.front(), self.inflight.peek()) {
            (Some(lane), Some(Reverse(heap))) if heap < lane => Some((*heap, false)),
            (Some(lane), _) => Some((*lane, true)),
            (None, heap) => heap.map(|Reverse(heap)| (*heap, false)),
        }
    }

    /// The next delivery due by `now`, in (delivery time, send order).
    fn pop_due(&mut self) -> Option<Delivery> {
        let (head, from_lane) = self.head().filter(|(head, _)| head.at <= self.now)?;
        if from_lane {
            self.lane.pop_front();
        } else {
            self.inflight.pop();
        }
        self.stats.delivered += 1;
        match head.cargo {
            Cargo::Beat(beat) => Some(Delivery::Beat(beat)),
            Cargo::Slot(slot) => {
                self.free_slots.push(slot);
                self.slab[slot].take().map(Delivery::Env)
            }
        }
    }
}

/// The simulated network. Cheap interior mutability behind one mutex —
/// the fabric drives it single-threaded in virtual time; the lock exists
/// so service handles can share it.
pub struct SimNet {
    state: Mutex<NetState>,
}

impl SimNet {
    /// A fully connected network with default link faults, seeded
    /// deterministically.
    pub fn new(seed: u64) -> Self {
        Self {
            state: Mutex::new(NetState {
                now: Duration::ZERO,
                rng: det_rng(seed),
                default_faults: LinkFaults::default(),
                links: Vec::new(),
                lane: VecDeque::new(),
                inflight: BinaryHeap::new(),
                slab: Vec::new(),
                free_slots: Vec::new(),
                partition: None,
                tie: 0,
                stats: NetStats::default(),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.state.lock().now
    }

    /// Replace the fault model applied to links without a specific
    /// override.
    pub fn set_default_faults(&self, faults: LinkFaults) {
        self.state.lock().default_faults = faults;
    }

    /// Override the fault model for one directed link.
    pub fn set_link_faults(&self, from: NodeId, to: NodeId, faults: LinkFaults) {
        link_mut(&mut self.state.lock().links, from, to).faults = Some(faults);
    }

    /// Split the network into groups: traffic crosses a group boundary
    /// only into the void. A node listed in no group is fully isolated.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        self.state.lock().partition =
            Some(groups.iter().map(|g| g.iter().copied().collect()).collect());
    }

    /// Remove any partition (messages already lost stay lost).
    pub fn heal(&self) {
        self.state.lock().partition = None;
    }

    /// Send an envelope. The `seq` field is assigned here (per link);
    /// whatever the caller put in it is overwritten. Returns the assigned
    /// sequence number, or `None` when a partition or drop fault consumed
    /// the message (the sender cannot distinguish these — by design).
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        req: u64,
        kind: &'static str,
        body: Bytes,
        ctx: Option<SpanContext>,
    ) -> Option<u64> {
        self.state.lock().send(from, to, req, kind, body, ctx)
    }

    /// A heartbeat, an empty and uncorrelated message, to each of `to`, in
    /// order: a heartbeat round under one lock acquisition. Each is admitted
    /// exactly as [`Self::send`] would admit it (own sequence number, own
    /// fault draws), but is queued as its key alone and handed out as a
    /// [`Beat`], never an [`Envelope`].
    pub fn broadcast(&self, from: NodeId, to: &[NodeId]) {
        let mut st = self.state.lock();
        for &to in to {
            st.beat(from, to);
        }
    }

    /// Advance virtual time by `d`, handing everything due to `deliver`
    /// in (delivery time, send order), under one lock acquisition. The
    /// driver routes every delivery itself (the fabric's advance). `deliver`
    /// runs under the network's lock and must not call back into this
    /// network.
    pub fn advance_with(&self, d: Duration, mut deliver: impl FnMut(Delivery)) {
        let mut st = self.state.lock();
        st.now += d;
        while let Some(delivery) = st.pop_due() {
            deliver(delivery);
        }
    }

    /// When the next queued delivery is due; `None` with nothing in
    /// flight.
    pub fn next_due(&self) -> Option<Duration> {
        self.state.lock().head().map(|(head, _)| head.at)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn send_simple(net: &SimNet, from: NodeId, to: NodeId, tag: u64) {
        net.send(from, to, tag, "t", Bytes::new(), None);
    }

    /// Advance by `d`: the `req` of each service envelope delivered, per
    /// destination node, in delivery order.
    fn reqs_after(net: &SimNet, d: Duration) -> BTreeMap<u64, Vec<u64>> {
        let mut got = BTreeMap::<u64, Vec<u64>>::new();
        net.advance_with(d, |delivery| {
            if let Delivery::Env(e) = delivery {
                got.entry(e.to.raw()).or_default().push(e.req);
            }
        });
        got
    }

    #[test]
    fn delivers_after_latency_in_order() {
        let net = SimNet::new(7);
        net.set_default_faults(LinkFaults {
            latency: ms(5),
            ..Default::default()
        });
        send_simple(&net, n(0), n(1), 10);
        send_simple(&net, n(0), n(1), 11);
        assert!(
            reqs_after(&net, ms(4)).is_empty(),
            "nothing before latency elapses"
        );
        assert_eq!(reqs_after(&net, ms(1))[&1], [10, 11]);
    }

    #[test]
    fn in_order_keys_skip_the_heap_and_delivery_merges_both_queues() {
        let net = SimNet::new(7);
        net.set_default_faults(LinkFaults {
            latency: Duration::ZERO,
            ..Default::default()
        });
        let queued = |net: &SimNet| {
            let st = net.state.lock();
            (st.lane.len(), st.inflight.len())
        };
        for i in 0..4 {
            send_simple(&net, n(0), n(1 + i % 2), i);
        }
        assert_eq!(queued(&net), (4, 0), "zero-latency sends arrive in order");
        // A slow link's key goes to the lane's tail; the fast sends after
        // it sort before it, so they take the heap.
        net.set_link_faults(n(2), n(0), LinkFaults::default());
        send_simple(&net, n(2), n(0), 4);
        send_simple(&net, n(0), n(1), 5);
        send_simple(&net, n(0), n(2), 6);
        assert_eq!(queued(&net), (5, 2));
        let got = reqs_after(&net, Duration::ZERO);
        assert_eq!((&got[&1], &got[&2]), (&vec![0, 2, 5], &vec![1, 3, 6]));
        assert_eq!(queued(&net), (1, 0), "the slow one waits");
        assert_eq!(reqs_after(&net, ms(1))[&0], [4]);
        assert_eq!(net.stats().delivered, 7);
    }

    #[test]
    fn heartbeats_never_take_a_slab_slot() {
        let net = SimNet::new(5);
        net.set_default_faults(LinkFaults {
            latency: ms(1),
            jitter: ms(3),
            drop_p: 0.0,
            dup_p: 0.5,
        });
        let peers = [n(1), n(2), n(3)];
        for _ in 0..20 {
            net.broadcast(n(0), &peers);
        }
        let slab = |net: &SimNet| net.state.lock().slab.len();
        assert_eq!(slab(&net), 0, "queued as keys alone");
        let mut beats = 0;
        net.advance_with(ms(10), |d| {
            beats += u64::from(matches!(d, Delivery::Beat(_)))
        });
        assert_eq!(beats, net.stats().delivered);
        assert!(beats > 60, "{beats}: duplicates delivered too");
        assert_eq!(slab(&net), 0);
    }

    #[test]
    fn jitter_cannot_reorder_a_link() {
        let net = SimNet::new(42);
        net.set_default_faults(LinkFaults {
            latency: ms(1),
            jitter: ms(50),
            ..Default::default()
        });
        for i in 0..100 {
            send_simple(&net, n(0), n(1), i);
        }
        let got = reqs_after(&net, Duration::from_secs(1)).remove(&1).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "reordered: {got:?}");
    }

    #[test]
    fn drops_and_dups_are_counted() {
        let net = SimNet::new(3);
        net.set_default_faults(LinkFaults {
            latency: ms(1),
            drop_p: 0.5,
            dup_p: 0.5,
            ..Default::default()
        });
        for i in 0..200 {
            send_simple(&net, n(0), n(1), i);
        }
        reqs_after(&net, ms(10));
        let stats = net.stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0);
        // Dups of dropped messages never exist: duplication applies only
        // to messages that survived the drop gate.
        assert_eq!(stats.delivered, 200 - stats.dropped + stats.duplicated);
    }

    #[test]
    fn partition_blocks_cross_group_traffic_and_heal_restores() {
        let net = SimNet::new(1);
        net.partition(&[&[n(0), n(1)], &[n(2)]]);
        assert!(net.send(n(0), n(2), 0, "t", Bytes::new(), None).is_none());
        assert!(net.send(n(0), n(1), 1, "t", Bytes::new(), None).is_some());
        net.heal();
        assert!(net.send(n(0), n(2), 2, "t", Bytes::new(), None).is_some());
        assert_eq!(reqs_after(&net, ms(1))[&2], [2]);
        assert_eq!(net.stats().partitioned, 1);
    }

    #[test]
    fn per_link_faults_override_default() {
        let net = SimNet::new(9);
        net.set_link_faults(
            n(0),
            n(1),
            LinkFaults {
                latency: ms(100),
                ..Default::default()
            },
        );
        send_simple(&net, n(0), n(1), 0); // slow link
        send_simple(&net, n(0), n(2), 1); // default link
        let got = reqs_after(&net, ms(1));
        assert!(!got.contains_key(&1));
        assert_eq!(got[&2], [1]);
        assert_eq!(reqs_after(&net, ms(100))[&1], [0]);
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            let net = SimNet::new(seed);
            net.set_default_faults(LinkFaults {
                latency: ms(1),
                jitter: ms(3),
                drop_p: 0.3,
                dup_p: 0.2,
            });
            for i in 0..100 {
                send_simple(&net, n(0), n(1), i);
            }
            reqs_after(&net, ms(100)).remove(&1)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }
}
