//! Membership and placement: heartbeat failure detection plus
//! epoch-fenced ownership leases.
//!
//! Each node runs a [`MemberAgent`] that gossips heartbeats over the
//! [`crate::transport::SimNet`] and judges peers by silence: a peer
//! unheard for longer than [`MembershipConfig::failure_timeout`] is
//! suspected dead. The fabric feeds a designated observer's view into the
//! [`ControlPlane`], which owns the resource→node lease table.
//!
//! Fencing is the core safety idea (it is how real BookKeeper + Pulsar
//! avoid split-brain): every lease carries an **epoch** that bumps on
//! each reassignment. A deposed owner — dead, partitioned away, or merely
//! slow — may still believe it owns the resource, but its epoch is stale,
//! and both the broker-level fence check and the bookie-level ledger
//! fence reject its writes. Detection can be wrong (a slow node looks
//! dead); fencing makes wrong detection safe rather than fatal.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use taureau_core::hash::fnv;
use taureau_core::id::NodeId;

use crate::transport::SimNet;

/// Envelope kind used by heartbeats.
pub const HEARTBEAT_KIND: &str = "hb";

/// Failure-detector tuning.
#[derive(Debug, Clone, Copy)]
pub struct MembershipConfig {
    /// How often each node heartbeats every peer.
    pub heartbeat_every: Duration,
    /// Silence longer than this marks a peer dead.
    pub failure_timeout: Duration,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            heartbeat_every: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(100),
        }
    }
}

/// One node's view of the cluster, driven by heartbeats it receives.
///
/// The believed-alive set is *state*, not a function of `now`: it changes
/// only when a silent peer is heard again ([`Self::observe`]) or when the
/// earliest possible timeout has passed ([`Self::expire`]). Readers borrow
/// it ([`Self::alive`]) and watch [`Self::generation`] to learn whether it
/// moved, so a steady-state tick costs one comparison per agent and builds
/// no set.
#[derive(Debug)]
pub struct MemberAgent {
    node: NodeId,
    cfg: MembershipConfig,
    peers: Vec<NodeId>,
    /// When each node was last heard from, indexed by node id (the
    /// fabric hands ids out densely); `None` for a node never heard.
    last_heard: Vec<Option<Duration>>,
    last_beat: Option<Duration>,
    /// Peers heard within `failure_timeout` as of the last `expire`, plus
    /// this node.
    alive: BTreeSet<NodeId>,
    /// No believed-alive peer can time out at or before this instant (a
    /// lower bound: hearing a peer again only moves its deadline later).
    next_expiry: Duration,
    /// Bumped every time `alive` may have changed.
    generation: u64,
}

impl MemberAgent {
    /// Agent for `node` with no peers yet.
    pub fn new(node: NodeId, cfg: MembershipConfig) -> Self {
        Self {
            node,
            cfg,
            peers: Vec::new(),
            last_heard: Vec::new(),
            last_beat: None,
            alive: BTreeSet::from([node]),
            next_expiry: Duration::MAX,
            generation: 0,
        }
    }

    /// This agent's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Replace the peer set (the fabric calls this as nodes join). New
    /// peers start with a full grace period: they are "heard" now, so a
    /// join does not instantly read as a death.
    pub fn set_peers(&mut self, peers: Vec<NodeId>, now: Duration) {
        for &p in &peers {
            self.heard_slot(p).get_or_insert(now);
        }
        self.peers = peers;
        self.alive.clear();
        self.alive.insert(self.node);
        self.generation += 1;
        self.rescan(now);
    }

    /// Send a round of heartbeats if one is due.
    pub fn maybe_heartbeat(&mut self, now: Duration, net: &SimNet) {
        let due = match self.last_beat {
            None => true,
            Some(t) => now >= t + self.cfg.heartbeat_every,
        };
        if !due {
            return;
        }
        self.last_beat = Some(now);
        net.broadcast(self.node, &self.peers, HEARTBEAT_KIND);
    }

    /// Record a heartbeat (or any traffic — all traffic proves liveness)
    /// from a peer, re-admitting it if it was believed dead.
    pub fn observe(&mut self, from: NodeId, now: Duration) {
        *self.heard_slot(from) = Some(now);
        if !self.alive.contains(&from) && self.peers.contains(&from) {
            self.alive.insert(from);
            self.next_expiry = self.next_expiry.min(self.deadline(now));
            self.generation += 1;
        }
    }

    /// Drop every peer silent for longer than the failure timeout as of
    /// `now`. A single comparison until the earliest deadline has passed.
    pub fn expire(&mut self, now: Duration) {
        if now > self.next_expiry {
            self.rescan(now);
        }
    }

    /// Peers this node currently believes are alive, plus itself — as of
    /// the last [`Self::expire`].
    pub fn alive(&self) -> &BTreeSet<NodeId> {
        &self.alive
    }

    /// Changes whenever [`Self::alive`] may have: equal generations mean
    /// an equal set.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn heard_slot(&mut self, node: NodeId) -> &mut Option<Duration> {
        let i = node.raw() as usize;
        if self.last_heard.len() <= i {
            self.last_heard.resize(i + 1, None);
        }
        &mut self.last_heard[i]
    }

    fn last_heard(&self, node: NodeId) -> Option<Duration> {
        self.last_heard.get(node.raw() as usize).copied().flatten()
    }

    /// The last instant at which a peer heard at `heard` still counts as
    /// alive: `now - heard <= failure_timeout` iff `now <= deadline(heard)`.
    fn deadline(&self, heard: Duration) -> Duration {
        heard.saturating_add(self.cfg.failure_timeout)
    }

    /// Evaluate the liveness predicate for every peer at `now`, updating
    /// the believed-alive set in place and recomputing the earliest
    /// deadline among the survivors.
    fn rescan(&mut self, now: Duration) {
        let mut next = Duration::MAX;
        let mut changed = false;
        for &p in &self.peers {
            match self.last_heard(p).map(|t| self.deadline(t)) {
                Some(d) if now <= d => {
                    next = next.min(d);
                    changed |= self.alive.insert(p);
                }
                _ => changed |= self.alive.remove(&p),
            }
        }
        self.next_expiry = next;
        self.generation += u64::from(changed);
    }

    /// The definition the incremental state must always equal: the
    /// believed-alive set computed from scratch at `now`.
    #[cfg(test)]
    pub(crate) fn view(&self, now: Duration) -> BTreeSet<NodeId> {
        let mut v: BTreeSet<NodeId> = self
            .peers
            .iter()
            .copied()
            .filter(|p| {
                self.last_heard(*p)
                    .is_some_and(|t| now.saturating_sub(t) <= self.cfg.failure_timeout)
            })
            .collect();
        v.insert(self.node);
        v
    }
}

/// An ownership lease: who owns a resource, fenced by which epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Current owner.
    pub owner: NodeId,
    /// Fencing epoch — bumped on every reassignment. Anything stamped
    /// with an older epoch is a zombie and must be rejected.
    pub epoch: u64,
}

/// A copy of the control plane's lease table and membership view, taken
/// whole at one cluster epoch. Broker fence checks consult the published
/// one on every message instead of taking the control-plane mutex.
#[derive(Debug, Default, Clone)]
pub struct LeaseView {
    /// Cluster epoch at publication.
    pub epoch: u64,
    view: BTreeSet<NodeId>,
    /// The `topic/<name>` leases keyed by bare topic name (the resource
    /// prefix stripped at publication) so the per-message fence probe
    /// never allocates a resource key.
    by_topic: HashMap<String, Lease>,
}

impl LeaseView {
    /// Same semantics as [`ControlPlane::holds`] for a `topic/<name>`
    /// resource, against this view, with no key allocation.
    pub fn holds_topic(&self, topic: &str, node: NodeId) -> bool {
        self.by_topic
            .get(topic)
            .is_some_and(|l| l.owner == node && self.view.contains(&node))
    }
}

/// Cloneable handle onto the control plane's published [`LeaseView`].
/// Reads take the view's own read lock, never the control-plane mutex.
#[derive(Debug, Clone)]
pub struct LeaseReader {
    snap: Arc<RwLock<LeaseView>>,
}

impl LeaseReader {
    /// A copy of the currently published view: every field from the same
    /// publication.
    pub fn view(&self) -> LeaseView {
        self.snap.read().clone()
    }

    /// Whether `node` holds the live lease on `topic`'s resource, per the
    /// published view.
    pub fn holds_topic(&self, topic: &str, node: NodeId) -> bool {
        self.snap.read().holds_topic(topic, node)
    }
}

/// The placement service: the lease table plus the authoritative view.
///
/// Modeled as a single logical service (real deployments put this in
/// ZooKeeper/etcd; its internal consensus is out of scope for the paper's
/// serverless-stack argument, so it is reliable here by construction).
/// Every mutation republishes a [`LeaseView`] so hot-path readers
/// ([`LeaseReader`]) never wait on the control-plane mutex.
#[derive(Debug, Default)]
pub struct ControlPlane {
    epoch: u64,
    view: BTreeSet<NodeId>,
    leases: HashMap<String, Lease>,
    published: Arc<RwLock<LeaseView>>,
}

impl ControlPlane {
    /// Empty control plane at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cluster epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The authoritative membership view.
    pub fn view(&self) -> &BTreeSet<NodeId> {
        &self.view
    }

    /// Install a new membership view. Returns `true` when it differs from
    /// the previous one (which bumps the cluster epoch).
    pub fn update_view(&mut self, view: BTreeSet<NodeId>) -> bool {
        if view == self.view {
            return false;
        }
        self.view = view;
        self.epoch += 1;
        self.republish();
        true
    }

    /// A handle for hot-path fence checks; reads see every mutation made
    /// through this control plane.
    pub fn reader(&self) -> LeaseReader {
        LeaseReader {
            snap: Arc::clone(&self.published),
        }
    }

    /// Publish the current epoch/view/lease table to [`LeaseReader`]s.
    fn republish(&self) {
        let by_topic = self
            .leases
            .iter()
            .filter_map(|(r, l)| Some((r.strip_prefix("topic/")?.to_string(), *l)))
            .collect();
        *self.published.write() = LeaseView {
            epoch: self.epoch,
            view: self.view.clone(),
            by_topic,
        };
    }

    /// Whether the authoritative view considers a node alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.view.contains(&node)
    }

    /// Ensure `resource` has a live owner among `candidates`, reassigning
    /// (with an epoch bump) if the current owner is dead or missing.
    /// Placement is deterministic: the resource name hashes to a slot in
    /// the sorted live-candidate list, so different resources spread over
    /// the fleet but every caller computes the same owner.
    pub fn ensure_lease(&mut self, resource: &str, candidates: &[NodeId]) -> Option<Lease> {
        if let Some(l) = self.leases.get(resource) {
            if self.is_settled(l, candidates) {
                return Some(*l);
            }
        }
        let mut live: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|c| self.view.contains(c))
            .collect();
        if live.is_empty() {
            if self.leases.remove(resource).is_some() {
                self.republish();
            }
            return None;
        }
        live.sort_unstable();
        let pick = live[(fnv(resource.as_bytes()) as usize) % live.len()];
        self.epoch += 1;
        let lease = Lease {
            owner: pick,
            epoch: self.epoch,
        };
        self.leases.insert(resource.to_string(), lease);
        self.republish();
        Some(lease)
    }

    /// Whether `lease`'s owner is in the view and among `candidates` —
    /// the leases [`Self::ensure_lease`] hands back untouched.
    fn is_settled(&self, lease: &Lease, candidates: &[NodeId]) -> bool {
        self.view.contains(&lease.owner) && candidates.contains(&lease.owner)
    }

    /// `topic`'s lease when [`Self::ensure_lease`] would hand it back
    /// untouched, found without building the resource key.
    pub fn settled_topic_lease(&self, topic: &str, candidates: &[NodeId]) -> Option<Lease> {
        let lease = *self.published.read().by_topic.get(topic)?;
        self.is_settled(&lease, candidates).then_some(lease)
    }

    /// [`Self::ensure_lease`] every leased resource under `prefix`, in
    /// name order; the new leases of the ones that moved. A lease that
    /// sits with a live candidate is not touched.
    pub fn ensure_leases(&mut self, prefix: &str, candidates: &[NodeId]) -> Vec<(Lease, String)> {
        let stale = |(r, l): (&String, &Lease)| {
            (r.starts_with(prefix) && !self.is_settled(l, candidates)).then(|| r.clone())
        };
        let mut stale: Vec<String> = self.leases.iter().filter_map(stale).collect();
        stale.sort();
        let ensure = |r: String| Some((self.ensure_lease(&r, candidates)?, r));
        stale.into_iter().filter_map(ensure).collect()
    }

    /// The current lease for a resource, if any.
    pub fn lease(&self, resource: &str) -> Option<Lease> {
        self.leases.get(resource).copied()
    }

    /// Whether `node` holds the live lease on `resource`. This is what
    /// broker fence checks consult: a deposed owner fails it even if its
    /// local state still says otherwise.
    pub fn holds(&self, resource: &str, node: NodeId) -> bool {
        self.leases
            .get(resource)
            .is_some_and(|l| l.owner == node && self.view.contains(&node))
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

    #[test]
    fn silence_marks_peer_dead_and_traffic_revives() {
        let cfg = MembershipConfig::default();
        let mut a = MemberAgent::new(n(0), cfg);
        a.set_peers(vec![n(1), n(2)], ms(0));
        a.observe(n(1), ms(0));
        a.observe(n(2), ms(0));
        a.expire(ms(50));
        assert_eq!(a.alive().len(), 3);
        let settled = a.generation();
        // Only node 1 keeps talking.
        a.observe(n(1), ms(120));
        a.expire(ms(150));
        assert_eq!(a.alive(), &a.view(ms(150)));
        assert_eq!(a.alive(), &BTreeSet::from([n(0), n(1)]));
        assert_ne!(a.generation(), settled, "a death must move the generation");
        // Node 2 comes back.
        let shrunk = a.generation();
        a.observe(n(2), ms(200));
        a.expire(ms(210));
        assert_eq!(a.alive().len(), 3);
        assert_ne!(a.generation(), shrunk, "a re-admission must move it too");
    }

    #[test]
    fn steady_heartbeats_leave_the_generation_alone() {
        let cfg = MembershipConfig::default();
        let mut a = MemberAgent::new(n(0), cfg);
        a.set_peers(vec![n(1), n(2)], ms(0));
        let settled = a.generation();
        // 20 ms heartbeats for a second, expiry checked every millisecond:
        // deadlines pass (forcing rescans) but nobody is ever late.
        for t in 1..=1000u64 {
            if t % 20 == 0 {
                a.observe(n(1), ms(t));
                a.observe(n(2), ms(t));
            }
            a.expire(ms(t));
            assert_eq!(a.alive(), &a.view(ms(t)), "at {t} ms");
        }
        assert_eq!(a.generation(), settled);
    }

    #[test]
    fn strangers_are_heard_but_never_admitted() {
        let mut a = MemberAgent::new(n(0), MembershipConfig::default());
        a.set_peers(vec![n(1)], ms(0));
        a.observe(n(9), ms(5));
        a.expire(ms(5));
        assert_eq!(a.alive(), &BTreeSet::from([n(0), n(1)]));
        assert_eq!(a.alive(), &a.view(ms(5)));
    }

    #[test]
    fn lease_reassignment_bumps_epoch_and_deposes_old_owner() {
        let mut cp = ControlPlane::new();
        cp.update_view([n(0), n(1), n(2)].into_iter().collect());
        let brokers = [n(0), n(1), n(2)];
        let l1 = cp.ensure_lease("topic/a", &brokers).unwrap();
        assert!(cp.holds("topic/a", l1.owner));
        // Owner dies: view shrinks, lease moves, epoch strictly grows.
        cp.update_view(brokers.into_iter().filter(|&b| b != l1.owner).collect());
        assert!(!cp.holds("topic/a", l1.owner), "dead owner must not hold");
        let l2 = cp.ensure_lease("topic/a", &brokers).unwrap();
        assert_ne!(l2.owner, l1.owner);
        assert!(l2.epoch > l1.epoch);
        assert!(cp.holds("topic/a", l2.owner));
        // The old owner reappearing does not get the lease back.
        cp.update_view(brokers.into_iter().collect());
        let l3 = cp.ensure_lease("topic/a", &brokers).unwrap();
        assert_eq!(l3, l2);
    }

    #[test]
    fn no_live_candidates_leaves_resource_unowned() {
        let mut cp = ControlPlane::new();
        cp.update_view([n(5)].into_iter().collect());
        assert!(cp.ensure_lease("topic/x", &[n(0), n(1)]).is_none());
        assert!(cp.lease("topic/x").is_none());
    }

    #[test]
    fn placement_spreads_resources_deterministically() {
        let mut cp = ControlPlane::new();
        cp.update_view([n(0), n(1), n(2), n(3)].into_iter().collect());
        let brokers = [n(0), n(1), n(2), n(3)];
        let owners: BTreeSet<NodeId> = (0..32)
            .map(|i| {
                cp.ensure_lease(&format!("topic/t{i}"), &brokers)
                    .unwrap()
                    .owner
            })
            .collect();
        assert!(owners.len() > 1, "32 topics should spread past one broker");
        // Re-asking is stable.
        let again = cp.ensure_lease("topic/t0", &brokers).unwrap();
        assert_eq!(again, cp.ensure_lease("topic/t0", &brokers).unwrap());
    }
}
