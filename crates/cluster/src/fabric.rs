//! The cluster fabric: nodes, roles, and the virtual-time tick loop that
//! glues transport, membership, and the control plane together.
//!
//! The fabric owns the shared [`VirtualClock`] and the [`SimNet`] and
//! advances them in lock-step, so service-observed latency (clock reads)
//! and network delivery (net schedule) agree on what "now" means. Each
//! `tick`:
//!
//! 1. every live node's [`MemberAgent`] heartbeats if due,
//! 2. the net advances, delivering due envelopes,
//! 3. delivered envelopes are routed — heartbeats into the receiving
//!    agent, everything else into the node's service mailbox,
//! 4. every live agent expires peers whose silence outlasted the failure
//!    timeout — one comparison each until a deadline actually passes,
//! 5. only if some live agent's belief moved (or a node was added, killed
//!    or revived since the last tick) is the authoritative view rebuilt
//!    and fed to the [`ControlPlane`], bumping the cluster epoch on change.
//!
//! Killing a node stops its heartbeats and discards its mail (crashed
//! processes do not drain sockets); the rest of the cluster finds out the
//! only way it can — silence past the failure timeout.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use taureau_core::clock::{Clock, SharedClock, VirtualClock};
use taureau_core::id::NodeId;
use taureau_core::trace::{SpanContext, Tracer};

use crate::membership::{ControlPlane, MemberAgent, MembershipConfig, HEARTBEAT_KIND};
use crate::transport::{Envelope, SimNet};

/// What a node does for a living. Roles drive lease candidacy (topics go
/// to brokers) and the stack's crash side effects (killing a bookie node
/// crashes its `Bookie`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Pulsar broker (stateless serving layer; lease candidate).
    Broker,
    /// BookKeeper storage node.
    Bookie,
    /// Jiffy memory node.
    Memory,
    /// FaaS worker host.
    Worker,
    /// Client / load generator.
    Client,
    /// Telemetry collector (the observability plane's sink node).
    Collector,
}

struct NodeInfo {
    role: NodeRole,
    alive: bool,
    agent: MemberAgent,
    /// `agent.generation()` as of the last authoritative-view rebuild.
    seen_generation: u64,
    mail: VecDeque<Envelope>,
}

/// The simulated cluster of nodes. Single-threaded driver over virtual
/// time; deterministic given the seed and the kill/fault schedule.
pub struct ClusterFabric {
    clock: Arc<VirtualClock>,
    net: SimNet,
    mcfg: MembershipConfig,
    nodes: Vec<NodeInfo>,
    control: Arc<Mutex<ControlPlane>>,
    tracer: Tracer,
    /// A node was added, killed or revived since the authoritative view
    /// was last rebuilt.
    roster_changed: bool,
    /// Delivery buffer reused across ticks.
    delivered: Vec<Envelope>,
    /// Nodes whose service mailbox went from empty to non-empty since
    /// [`Self::take_mailed`] was last called.
    mailed: Vec<NodeId>,
}

impl ClusterFabric {
    /// Empty fabric with the default failure detector.
    pub fn new(seed: u64) -> Self {
        Self::with_membership(seed, MembershipConfig::default())
    }

    /// Empty fabric with explicit failure-detector tuning.
    pub fn with_membership(seed: u64, mcfg: MembershipConfig) -> Self {
        let clock = VirtualClock::shared();
        let shared: SharedClock = clock.clone();
        let tracer = Tracer::new(shared);
        Self {
            clock,
            net: SimNet::new(seed),
            mcfg,
            nodes: Vec::new(),
            control: Arc::new(Mutex::new(ControlPlane::new())),
            tracer,
            roster_changed: false,
            delivered: Vec::new(),
            mailed: Vec::new(),
        }
    }

    /// The shared virtual clock (hand this to services so their latency
    /// measurements live in fabric time).
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }

    /// The network, for fault injection.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The shared control plane (lease table + authoritative view).
    pub fn control(&self) -> Arc<Mutex<ControlPlane>> {
        self.control.clone()
    }

    /// The fabric-wide tracer. All services share it so one trace can
    /// cross nodes.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Add a node. It knows every existing node as a peer (full-mesh
    /// heartbeating) and vice versa.
    pub fn add_node(&mut self, role: NodeRole) -> NodeId {
        let id = NodeId(self.nodes.len() as u64);
        let now = self.now();
        self.nodes.push(NodeInfo {
            role,
            alive: true,
            agent: MemberAgent::new(id, self.mcfg),
            seen_generation: 0,
            mail: VecDeque::new(),
        });
        self.roster_changed = true;
        let all: Vec<NodeId> = (0..self.nodes.len() as u64).map(NodeId).collect();
        for (i, n) in self.nodes.iter_mut().enumerate() {
            let peers: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|&p| p != NodeId(i as u64))
                .collect();
            n.agent.set_peers(peers, now);
        }
        id
    }

    /// All nodes with a role, in id order.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.role == role)
            .map(|(i, _)| NodeId(i as u64))
            .collect()
    }

    /// A node's role.
    pub fn role(&self, node: NodeId) -> Option<NodeRole> {
        self.nodes.get(node.raw() as usize).map(|n| n.role)
    }

    /// Whether the node is actually up (ground truth — the failure
    /// detector's *belief* lives in the control plane view).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.get(node.raw() as usize).is_some_and(|n| n.alive)
    }

    /// Crash a node: heartbeats stop, queued and in-flight mail to it is
    /// lost, services must stop answering for it. Detection is *not*
    /// instantaneous — peers notice after the failure timeout.
    pub fn kill(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.raw() as usize) {
            n.alive = false;
            n.mail.clear();
            self.roster_changed = true;
        }
    }

    /// Bring a crashed node back (a replacement process on the same
    /// address). Peers re-admit it as soon as heartbeats resume.
    pub fn revive(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.raw() as usize) {
            n.alive = true;
            self.roster_changed = true;
        }
    }

    /// Send a service message from one node to another. Dead senders
    /// cannot send. Returns whether the network accepted it (a partition
    /// refuses at the edge; drops downstream are invisible here).
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        req: u64,
        kind: &'static str,
        body: Bytes,
        ctx: Option<SpanContext>,
    ) -> bool {
        if !self.is_alive(from) {
            return false;
        }
        self.net.send(from, to, req, kind, body, ctx).is_some()
    }

    /// A live node's *local* membership belief — the peers it believes
    /// alive right now, from its own heartbeat evidence — and the
    /// generation that moves whenever that set does. "Right now" is the
    /// shared clock, which a service sleeping on it (a FaaS cold start)
    /// moves between ticks, and which stood still for a node that was
    /// down: the belief is expired to the present before it is lent out.
    /// This is per-node belief, not the authoritative control-plane view:
    /// the observability agents diff it, when the generation moved, to
    /// report membership transitions as each node sees them. `None` for a
    /// dead or unknown node.
    pub fn belief(&mut self, node: NodeId) -> Option<(u64, &BTreeSet<NodeId>)> {
        let now = self.now();
        let n = self
            .nodes
            .get_mut(node.raw() as usize)
            .filter(|n| n.alive)?;
        n.agent.expire(now);
        Some((n.agent.generation(), n.agent.alive()))
    }

    /// Take the next envelope from a node's service mailbox (dead nodes
    /// yield nothing).
    pub fn pop_mail(&mut self, node: NodeId) -> Option<Envelope> {
        let n = self.nodes.get_mut(node.raw() as usize)?;
        n.alive.then(|| n.mail.pop_front())?
    }

    /// Fill `out` with the nodes handed service mail since the last call,
    /// ascending, each once: what a walk over every node would have found
    /// non-empty, in the same order (plus, harmlessly, nodes killed since).
    pub fn take_mailed(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        std::mem::swap(&mut self.mailed, out);
        out.sort_unstable();
        out.dedup();
    }

    /// Advance the cluster by `dt`: heartbeats, network delivery, mail
    /// routing, membership + epoch maintenance. Returns `true` when the
    /// authoritative view changed this tick.
    pub fn tick(&mut self, dt: Duration) -> bool {
        let now = self.now();
        for n in self.nodes.iter_mut() {
            if n.alive {
                n.agent.maybe_heartbeat(now, &self.net);
            }
        }
        self.clock.advance(dt);
        let mut delivered = std::mem::take(&mut self.delivered);
        self.net.advance_into(dt, &mut delivered);
        let now = self.now();
        for env in delivered.drain(..) {
            // A dead node's NIC drops everything on the floor.
            let Some(n) = self
                .nodes
                .get_mut(env.to.raw() as usize)
                .filter(|n| n.alive)
            else {
                continue;
            };
            // Any traffic proves the sender was alive when it sent.
            n.agent.observe(env.from, now);
            if env.kind != HEARTBEAT_KIND {
                if n.mail.is_empty() {
                    self.mailed.push(env.to);
                }
                n.mail.push_back(env);
            }
        }
        self.delivered = delivered;
        let mut stale = std::mem::take(&mut self.roster_changed);
        for n in self.nodes.iter_mut().filter(|n| n.alive) {
            n.agent.expire(now);
            stale |= n.seen_generation != n.agent.generation();
            n.seen_generation = n.agent.generation();
        }
        // The authoritative view is a function of the roster and the live
        // agents' beliefs: neither moved, so neither did it.
        if !stale {
            return false;
        }
        // Node X is in the view iff some *other* live node heard from it
        // recently (X's own vote does not keep it alive — a partitioned
        // node always believes in itself), except that a node with nobody
        // left to confirm it stands for itself.
        let alone = self.nodes.iter().filter(|n| n.alive).count() <= 1;
        let mut view: BTreeSet<NodeId> = BTreeSet::new();
        for (i, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.alive) {
            let id = NodeId(i as u64);
            view.extend(n.agent.alive().iter().filter(|&&p| alone || p != id));
        }
        self.control.lock().update_view(view)
    }

    /// Run `tick` repeatedly with the given step until `total` has
    /// elapsed.
    pub fn run_for(&mut self, total: Duration, step: Duration) {
        let end = self.now() + total;
        while self.now() < end {
            self.tick(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LinkFaults;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn mail(f: &mut ClusterFabric, node: NodeId) -> Vec<Envelope> {
        std::iter::from_fn(|| f.pop_mail(node)).collect()
    }

    #[test]
    fn heartbeats_converge_to_full_view() {
        let mut f = ClusterFabric::new(1);
        for _ in 0..4 {
            f.add_node(NodeRole::Broker);
        }
        f.run_for(ms(200), ms(5));
        let cp = f.control();
        let view = cp.lock().view().clone();
        assert_eq!(view.len(), 4, "view: {view:?}");
    }

    #[test]
    fn kill_is_detected_after_timeout_and_revive_readmits() {
        let mut f = ClusterFabric::new(2);
        let nodes: Vec<NodeId> = (0..3).map(|_| f.add_node(NodeRole::Broker)).collect();
        f.run_for(ms(200), ms(5));
        f.kill(nodes[1]);
        // Not yet detected: view still includes the corpse briefly.
        f.tick(ms(5));
        f.run_for(ms(300), ms(5));
        assert!(!f.control().lock().is_alive(nodes[1]));
        assert!(f.control().lock().is_alive(nodes[0]));
        let epoch_after_death = f.control().lock().epoch();
        f.revive(nodes[1]);
        f.run_for(ms(200), ms(5));
        assert!(f.control().lock().is_alive(nodes[1]));
        assert!(f.control().lock().epoch() > epoch_after_death);
    }

    #[test]
    fn service_mail_routes_and_dies_with_the_node() {
        let mut f = ClusterFabric::new(3);
        let a = f.add_node(NodeRole::Client);
        let b = f.add_node(NodeRole::Broker);
        assert!(f.send(a, b, 7, "pub", Bytes::from_static(b"x"), None));
        f.run_for(ms(10), ms(1));
        let got = mail(&mut f, b);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].req, 7);
        assert_eq!(got[0].kind, "pub");
        // Mail sent to a node killed before delivery is lost.
        assert!(f.send(a, b, 8, "pub", Bytes::new(), None));
        f.kill(b);
        f.run_for(ms(10), ms(1));
        assert!(mail(&mut f, b).is_empty());
        // Dead nodes cannot send.
        assert!(!f.send(b, a, 9, "resp", Bytes::new(), None));
    }

    #[test]
    fn virtual_clock_and_net_move_together() {
        let mut f = ClusterFabric::new(4);
        f.add_node(NodeRole::Client);
        let before = f.now();
        f.tick(ms(25));
        assert_eq!(f.now(), before + ms(25));
        assert_eq!(f.net().now(), f.now());
    }

    // -- incremental membership == the from-scratch definition -------------

    /// A fabric driven side by side with the definition it must equal:
    /// every live agent's belief recomputed from scratch
    /// ([`MemberAgent::view`]), the authoritative view rebuilt from those on
    /// *every* tick, and a second control plane fed that view every tick —
    /// so its epoch counts exactly the ticks on which the view moved.
    struct Checked {
        fabric: ClusterFabric,
        oracle: ControlPlane,
    }

    impl Checked {
        fn new(seed: u64, nodes: usize) -> Self {
            let mcfg = MembershipConfig {
                heartbeat_every: ms(10),
                failure_timeout: ms(60),
            };
            let mut fabric = ClusterFabric::with_membership(seed, mcfg);
            for _ in 0..nodes {
                fabric.add_node(NodeRole::Broker);
            }
            Self {
                fabric,
                oracle: ControlPlane::new(),
            }
        }

        /// Every live node's belief, as lent out, equals the from-scratch
        /// view at the fabric's current time.
        fn check_beliefs(&mut self) -> Result<(), String> {
            let now = self.fabric.now();
            for i in 0..self.fabric.nodes.len() {
                let lent = self.fabric.belief(NodeId(i as u64)).map(|(_, b)| b.clone());
                let n = &self.fabric.nodes[i];
                let expect = n.alive.then(|| n.agent.view(now));
                prop_assert_eq!(&lent, &expect, "n{} at {:?}", i, now);
            }
            Ok(())
        }

        fn tick(&mut self, dt: Duration) -> Result<(), String> {
            let changed = self.fabric.tick(dt);
            let now = self.fabric.now();
            // The tick itself — not a later `belief` call — must have
            // brought every live agent up to date.
            for n in self.fabric.nodes.iter().filter(|n| n.alive) {
                prop_assert_eq!(n.agent.alive(), &n.agent.view(now), "at {:?}", now);
            }
            let live: Vec<(NodeId, BTreeSet<NodeId>)> = self
                .fabric
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.alive)
                .map(|(i, n)| (NodeId(i as u64), n.agent.view(now)))
                .collect();
            let mut view = BTreeSet::new();
            for (id, belief) in &live {
                view.extend(belief.iter().filter(|&p| p != id));
                if live.len() <= 1 {
                    view.insert(*id);
                }
            }
            let oracle_changed = self.oracle.update_view(view);
            let control = self.fabric.control.lock();
            prop_assert_eq!(control.view(), self.oracle.view(), "view at {:?}", now);
            prop_assert_eq!(control.epoch(), self.oracle.epoch(), "epoch at {:?}", now);
            prop_assert_eq!(changed, oracle_changed, "tick's return at {:?}", now);
            Ok(())
        }

        fn run(&mut self, total: Duration, step: Duration) -> Result<(), String> {
            let end = self.fabric.now() + total;
            while self.fabric.now() < end {
                self.tick(step)?;
            }
            Ok(())
        }
    }

    #[test]
    fn revived_node_believes_everyone_dead_until_heartbeats_land() {
        let mut c = Checked::new(11, 4);
        c.run(ms(100), ms(1)).unwrap();
        c.fabric.kill(NodeId(2));
        c.run(ms(200), ms(1)).unwrap();
        c.fabric.revive(NodeId(2));
        // Its `last_heard` is 200 ms stale: read before any tick it already
        // stands alone, exactly as recomputing from scratch would say.
        c.check_beliefs().unwrap();
        assert_eq!(
            c.fabric.belief(NodeId(2)).expect("live").1,
            &BTreeSet::from([NodeId(2)])
        );
        c.run(ms(100), ms(1)).unwrap();
        assert_eq!(c.fabric.belief(NodeId(2)).expect("live").1.len(), 4);
        assert_eq!(c.fabric.control().lock().view().len(), 4);
    }

    #[test]
    fn last_node_standing_vouches_for_itself() {
        let mut c = Checked::new(12, 3);
        c.run(ms(100), ms(1)).unwrap();
        c.fabric.kill(NodeId(0));
        c.fabric.kill(NodeId(1));
        // Alone at once, but its peers' silence has not timed out yet:
        // the view is its whole belief, corpses included.
        c.tick(ms(1)).unwrap();
        assert_eq!(c.fabric.control().lock().view().len(), 3);
        c.run(ms(200), ms(1)).unwrap();
        assert_eq!(
            c.fabric.control().lock().view(),
            &BTreeSet::from([NodeId(2)])
        );
        c.fabric.kill(NodeId(2));
        c.tick(ms(1)).unwrap();
        assert!(c.fabric.control().lock().view().is_empty());
    }

    #[test]
    fn steady_state_ticks_leave_every_generation_alone() {
        let mut c = Checked::new(13, 6);
        c.run(ms(100), ms(1)).unwrap();
        let settled: Vec<u64> = c
            .fabric
            .nodes
            .iter()
            .map(|n| n.agent.generation())
            .collect();
        let epoch = c.fabric.control().lock().epoch();
        c.run(ms(500), ms(1)).unwrap();
        let after: Vec<u64> = c
            .fabric
            .nodes
            .iter()
            .map(|n| n.agent.generation())
            .collect();
        assert_eq!(settled, after);
        assert_eq!(c.fabric.control().lock().epoch(), epoch);
    }

    /// One step of an arbitrary membership schedule.
    #[derive(Debug, Clone)]
    enum Step {
        /// Tick this many times, this many milliseconds each.
        Run {
            ticks: u8,
            dt_ms: u8,
        },
        /// One tick longer than the failure timeout (a stalled driver, or
        /// a service sleeping on the shared clock).
        Stall,
        Kill(u8),
        Revive(u8),
        AddNode,
        /// A service sleeps on the shared clock between ticks (a FaaS
        /// cold start): time passes for every detector at once.
        Sleep(u8),
        /// Service traffic (proves liveness like a heartbeat does).
        Send(u8, u8),
        /// Silence: links start losing this share of everything.
        Lossy(u8),
        /// Cut nodes below the index off from the rest.
        Partition(u8),
        Heal,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            // Listed twice: time passing is twice as likely as any one fault.
            (1u8..40, 1u8..12).prop_map(|(ticks, dt_ms)| Step::Run { ticks, dt_ms }),
            (1u8..40, 1u8..12).prop_map(|(ticks, dt_ms)| Step::Run { ticks, dt_ms }),
            Just(Step::Stall),
            (1u8..250).prop_map(Step::Sleep),
            (0u8..8).prop_map(Step::Kill),
            (0u8..8).prop_map(Step::Revive),
            Just(Step::AddNode),
            (0u8..8, 0u8..8).prop_map(|(a, b)| Step::Send(a, b)),
            (0u8..100).prop_map(Step::Lossy),
            (1u8..4).prop_map(Step::Partition),
            Just(Step::Heal),
        ]
    }

    proptest! {
        /// Under any schedule of heartbeat arrival, silence, kills,
        /// revivals, joins, partitions and heals, after every tick each
        /// live agent's incremental belief, the authoritative view and the
        /// control-plane epoch equal what recomputing everything from
        /// scratch on every tick yields.
        #[test]
        fn incremental_membership_equals_from_scratch_recompute(
            seed in any::<u64>(),
            start in 1usize..6,
            steps in vec(step(), 1..60),
        ) {
            let mut c = Checked::new(seed, start);
            for step in steps {
                let n = c.fabric.nodes.len() as u64;
                match step {
                    Step::Run { ticks, dt_ms } => {
                        for _ in 0..ticks {
                            c.tick(ms(dt_ms as u64))?;
                        }
                    }
                    Step::Stall => c.tick(ms(150))?,
                    Step::Sleep(d) => c.fabric.clock().advance(ms(d as u64)),
                    Step::Kill(i) => c.fabric.kill(NodeId(i as u64 % n)),
                    Step::Revive(i) => c.fabric.revive(NodeId(i as u64 % n)),
                    Step::AddNode if n < 8 => {
                        c.fabric.add_node(NodeRole::Broker);
                    }
                    Step::AddNode => {}
                    Step::Send(a, b) => {
                        let (a, b) = (NodeId(a as u64 % n), NodeId(b as u64 % n));
                        c.fabric.send(a, b, 0, "m", Bytes::new(), None);
                    }
                    Step::Lossy(pct) => c.fabric.net().set_default_faults(LinkFaults {
                        drop_p: pct as f64 / 100.0,
                        ..LinkFaults::default()
                    }),
                    Step::Partition(cut) => {
                        let (left, right): (Vec<NodeId>, Vec<NodeId>) =
                            (0..n).map(NodeId).partition(|id| id.raw() < cut as u64);
                        c.fabric.net().partition(&[&left, &right]);
                    }
                    Step::Heal => c.fabric.net().heal(),
                }
                // Beliefs read between ticks are current too: the telemetry
                // plane reads them right after a kill, revive, join or sleep.
                c.check_beliefs()?;
            }
            // Quiet finish: everything still alive converges again.
            c.fabric.net().heal();
            c.fabric.net().set_default_faults(LinkFaults::default());
            c.run(ms(200), ms(5))?;
        }
    }
}
