//! The simulated network: an async message-passing transport with
//! injectable faults.
//!
//! Every inter-node interaction in the cluster rides on [`SimNet`]. The
//! network is a discrete-event simulation over virtual time: `send`
//! schedules an [`Envelope`] for future delivery, `advance` moves the
//! clock and moves due envelopes into per-node inboxes (or, for a driver
//! that routes deliveries itself, straight into its buffer —
//! [`SimNet::advance_into`]). Faults are
//! injected per directed link ([`LinkFaults`]): base latency, uniform
//! jitter, Bernoulli drops, Bernoulli duplication — plus whole-network
//! partitions ([`SimNet::partition`]). All randomness comes from one
//! seeded ChaCha8 stream ([`taureau_core::rng::det_rng`]), so a run is a
//! pure function of its seed and its fault schedule.
//!
//! Delivery guarantee: **per-link FIFO**. A link's envelopes are
//! delivered in send order (never reordered), even when jitter would
//! schedule a later send earlier — the schedule time is clamped to the
//! link's previous delivery time, exactly how a TCP connection turns
//! packet jitter into head-of-line blocking rather than reordering.
//! Drops remove an envelope entirely; duplicates arrive back-to-back
//! with the original. The property tests in `tests/properties.rs` pin
//! FIFO under arbitrary fault schedules.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
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
    /// Message kind tag, dispatched on by services (`"hb"`, `"pub"`, …).
    /// Every sender passes a literal, so the tag costs no allocation.
    pub kind: &'static str,
    /// Opaque body; services frame it with [`crate::wire`].
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

/// Counters for what the network did to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Envelopes accepted by `send`.
    pub sent: u64,
    /// Envelopes that reached their destination (inbox or driver).
    pub delivered: u64,
    /// Envelopes dropped by link fault injection.
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Envelopes refused because sender and receiver are in different
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

struct NetState {
    now: Duration,
    rng: ChaCha8Rng,
    default_faults: LinkFaults,
    /// `links[from][to]`, dense in node id (the fabric hands ids out
    /// contiguously), grown on first use; indexed, never iterated.
    links: Vec<Vec<Link>>,
    /// `(deliver_at, tie, slot)`, earliest first, `tie` the global send
    /// order: the heap sifts small keys, envelopes sit still in `slab`.
    inflight: BinaryHeap<Reverse<(Duration, u64, usize)>>,
    slab: Vec<Option<Envelope>>,
    free_slots: Vec<usize>,
    inboxes: HashMap<NodeId, VecDeque<Envelope>>,
    /// Partition groups; `None` means fully connected. A node absent from
    /// every group can talk to no one.
    partition: Option<Vec<HashSet<NodeId>>>,
    tie: u64,
    stats: NetStats,
}

impl NetState {
    fn link(&mut self, from: NodeId, to: NodeId) -> &mut Link {
        let (from, to) = (from.raw() as usize, to.raw() as usize);
        if self.links.len() <= from {
            self.links.resize_with(from + 1, Vec::new);
        }
        let row = &mut self.links[from];
        if row.len() <= to {
            row.resize(to + 1, Link::default());
        }
        &mut row[to]
    }

    fn connected(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(groups) => groups.iter().any(|g| g.contains(&a) && g.contains(&b)),
        }
    }

    fn schedule(&mut self, deliver_at: Duration, tie: u64, env: Envelope) {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot] = Some(env);
                slot
            }
            None => {
                self.slab.push(Some(env));
                self.slab.len() - 1
            }
        };
        self.inflight.push(Reverse((deliver_at, tie, slot)));
    }

    /// [`SimNet::send`] with the lock held.
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        req: u64,
        kind: &'static str,
        body: Bytes,
        ctx: Option<SpanContext>,
    ) -> Option<u64> {
        self.stats.sent += 1;
        if !self.connected(from, to) {
            self.stats.partitioned += 1;
            return None;
        }
        let default_faults = self.default_faults;
        let link = self.link(from, to);
        let seq = link.next_seq;
        link.next_seq += 1;
        let faults = link.faults.unwrap_or(default_faults);
        let last_sched = link.last_sched;
        if faults.drop_p > 0.0 && self.rng.gen_bool(faults.drop_p) {
            self.stats.dropped += 1;
            return Some(seq); // the link consumed it; the sender saw a successful send
        }
        let jitter = if faults.jitter.is_zero() {
            Duration::ZERO
        } else {
            let ns = self.rng.gen_range(0..=faults.jitter.as_nanos() as u64);
            Duration::from_nanos(ns)
        };
        // FIFO clamp: never schedule behind the link's previous delivery.
        let mut deliver_at = self.now + faults.latency + jitter;
        if let Some(prev) = last_sched {
            deliver_at = deliver_at.max(prev);
        }
        self.link(from, to).last_sched = Some(deliver_at);
        let env = Envelope {
            from,
            to,
            seq,
            req,
            kind,
            body,
            ctx,
        };
        let duplicate = faults.dup_p > 0.0 && self.rng.gen_bool(faults.dup_p);
        let tie = self.tie;
        self.tie += if duplicate { 2 } else { 1 };
        if duplicate {
            self.stats.duplicated += 1;
            self.schedule(deliver_at, tie + 1, env.clone());
        }
        self.schedule(deliver_at, tie, env);
        Some(seq)
    }

    /// The next envelope due by `now`, in (delivery time, send order).
    fn pop_due(&mut self) -> Option<Envelope> {
        if self.inflight.peek()?.0 .0 > self.now {
            return None;
        }
        let Reverse((_, _, slot)) = self.inflight.pop()?;
        self.stats.delivered += 1;
        self.free_slots.push(slot);
        self.slab[slot].take()
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
                inflight: BinaryHeap::new(),
                slab: Vec::new(),
                free_slots: Vec::new(),
                inboxes: HashMap::new(),
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
        self.state.lock().link(from, to).faults = Some(faults);
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

    /// Whether two nodes can currently exchange messages.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.state.lock().connected(a, b)
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

    /// An empty, uncorrelated `kind` message to each of `to`, in order —
    /// a heartbeat round under one lock acquisition. Each is an independent
    /// [`Self::send`]: own sequence number, own fault draws.
    pub fn broadcast(&self, from: NodeId, to: &[NodeId], kind: &'static str) {
        let mut st = self.state.lock();
        for &to in to {
            st.send(from, to, 0, kind, Bytes::new(), None);
        }
    }

    /// Advance virtual time by `d`, delivering everything due into
    /// inboxes in (delivery time, send order).
    pub fn advance(&self, d: Duration) {
        let mut st = self.state.lock();
        st.now += d;
        while let Some(env) = st.pop_due() {
            st.inboxes.entry(env.to).or_default().push_back(env);
        }
    }

    /// [`Self::advance`], but everything due is appended to `out` instead
    /// of the per-node inboxes: one lock acquisition and no intermediate
    /// queue for a driver that routes every delivery itself (the fabric
    /// tick).
    pub fn advance_into(&self, d: Duration, out: &mut Vec<Envelope>) {
        let mut st = self.state.lock();
        st.now += d;
        out.extend(std::iter::from_fn(|| st.pop_due()));
    }

    /// Pop the next delivered envelope for a node.
    pub fn recv(&self, node: NodeId) -> Option<Envelope> {
        self.state.lock().inboxes.get_mut(&node)?.pop_front()
    }

    /// Drain every delivered envelope for a node.
    pub fn drain(&self, node: NodeId) -> Vec<Envelope> {
        match self.state.lock().inboxes.get_mut(&node) {
            Some(q) => q.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn delivers_after_latency_in_order() {
        let net = SimNet::new(7);
        net.set_default_faults(LinkFaults {
            latency: ms(5),
            ..Default::default()
        });
        send_simple(&net, n(0), n(1), 10);
        send_simple(&net, n(0), n(1), 11);
        net.advance(ms(4));
        assert!(net.recv(n(1)).is_none(), "nothing before latency elapses");
        net.advance(ms(1));
        assert_eq!(net.recv(n(1)).unwrap().req, 10);
        assert_eq!(net.recv(n(1)).unwrap().req, 11);
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
        net.advance(Duration::from_secs(1));
        let got: Vec<u64> = net.drain(n(1)).into_iter().map(|e| e.req).collect();
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
        net.advance(ms(10));
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
        net.advance(ms(1));
        assert_eq!(net.drain(n(2)).len(), 1);
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
        net.advance(ms(1));
        assert!(net.recv(n(1)).is_none());
        assert_eq!(net.recv(n(2)).unwrap().req, 1);
        net.advance(ms(100));
        assert_eq!(net.recv(n(1)).unwrap().req, 0);
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
            net.advance(ms(100));
            net.drain(n(1))
                .into_iter()
                .map(|e| e.req)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }
}
