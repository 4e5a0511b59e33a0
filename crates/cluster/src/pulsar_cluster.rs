//! Pulsar mapped onto the fabric: a fleet of stateless brokers over a
//! shared bookie fleet, with lease-fenced topic ownership, failover, and
//! background ledger re-replication.
//!
//! The deployment shape is the paper's §4.3 split taken literally:
//!
//! - Every broker node runs its own [`PulsarCluster`] instance (its own
//!   in-memory topic cache), but all of them share one bookie fleet and
//!   one metadata store. A topic's durable state is *only* what lives in
//!   those shared layers.
//! - The control plane leases each topic to exactly one broker
//!   ([`crate::membership::ControlPlane::ensure_lease`]). Each broker's
//!   fence check points at that lease table, so a broker that lost its
//!   lease — however convinced it still is — gets `PulsarError::Fenced`
//!   on every publish/dispatch/ack, while ledger-level fencing
//!   ([`BookKeeper::recover_and_close`]) cuts off its in-flight appends.
//! - When a bookie node dies, [`ClusterPulsar::maintain`] activates a
//!   spare and re-replicates the dead bookie's ledger entries onto it in
//!   bounded chunks per round — background repair that restores the
//!   replication factor while the cluster keeps serving.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use taureau_core::id::{LedgerId, NodeId};
use taureau_pulsar::bookie::Bookie;
use taureau_pulsar::broker::{Consumer, PulsarCluster, PulsarConfig, SubscriptionMode};
use taureau_pulsar::ledger::BookKeeper;
use taureau_pulsar::metadata::MetadataStore;

use crate::error::{ClusterError, Result};
use crate::fabric::{ClusterFabric, NodeRole};
use crate::membership::ControlPlane;
use crate::transport::Envelope;
use crate::wire;
use taureau_monitor::ObsEvent;

/// Trace system label for cluster-layer spans.
pub(crate) const TRACE_SYSTEM: &str = "taureau-cluster";

/// Lease-table key for a topic.
pub(crate) fn topic_resource(topic: &str) -> String {
    format!("topic/{topic}")
}

/// What one maintenance round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Topics whose lease moved to a new broker this round.
    pub(crate) topics_failed_over: u64,
    /// Dead bookies for which a spare was activated this round.
    pub bookies_replaced: u64,
    /// Ledgers re-replicated this round.
    pub(crate) ledgers_repaired: u64,
    /// Entries copied onto replacement bookies this round.
    pub(crate) entries_recopied: u64,
    /// Ledgers still queued for repair after this round.
    pub(crate) repair_backlog: u64,
}

/// An in-progress bookie replacement.
struct RepairJob {
    dead: usize,
    target: usize,
    queue: VecDeque<LedgerId>,
}

/// The clustered Pulsar deployment.
pub struct ClusterPulsar {
    brokers: HashMap<NodeId, PulsarCluster>,
    broker_order: Vec<NodeId>,
    /// Fabric node of every bookie, in bookie-index order.
    bookie_nodes: Vec<NodeId>,
    bookies: Arc<Vec<Arc<Bookie>>>,
    /// Admin-plane BookKeeper view over the shared fleet.
    bk: BookKeeper,
    control: Arc<Mutex<ControlPlane>>,
    /// Bookie indices currently serving ensembles.
    active: HashSet<usize>,
    /// Cold standby bookie indices (crashed until activated).
    spares: Vec<usize>,
    /// Bookie indices replaced and permanently retired.
    retired: HashSet<usize>,
    repair: Option<RepairJob>,
    /// Ledgers repaired per maintenance round (the "background" knob:
    /// repair bandwidth, not repair-all-at-once).
    pub(crate) repair_chunk: usize,
    /// Broker-side consumer handles, broker → topic → subscription,
    /// rebuilt lazily after failover. Nested so the per-request probe
    /// borrows the names it decoded instead of building an owned key.
    consumers: HashMap<NodeId, HashMap<String, HashMap<String, Consumer>>>,
    /// Lease moves, consumer rebuilds, fence rejections, bookie
    /// replacements and repair progress, as they happen (drained by the
    /// telemetry plane, which stamps and ships them like any other event).
    obs_events: Vec<ObsEvent>,
}

impl ClusterPulsar {
    /// Deploy `n_brokers` broker nodes and `cfg.bookies + spares` bookie
    /// nodes onto the fabric. Spares start crashed (cold standby): ledger
    /// ensembles never include them until a replacement activates them.
    pub(crate) fn new(
        fabric: &mut ClusterFabric,
        n_brokers: usize,
        spares: usize,
        mut cfg: PulsarConfig,
    ) -> Self {
        let in_service = cfg.bookies;
        let total = in_service + spares;
        cfg.bookies = total;
        let bookies: Arc<Vec<Arc<Bookie>>> =
            Arc::new((0..total).map(|_| Arc::new(Bookie::new())).collect());
        let meta = Arc::new(MetadataStore::new());
        let control = fabric.control();
        let clock = fabric.clock();
        let tracer = fabric.tracer().clone();

        let mut brokers = HashMap::new();
        let mut broker_order = Vec::new();
        for _ in 0..n_brokers {
            let node = fabric.add_node(NodeRole::Broker);
            let broker = PulsarCluster::with_shared(
                cfg.clone(),
                clock.clone(),
                bookies.clone(),
                meta.clone(),
            );
            broker.set_tracer(tracer.clone());
            // Fence probes run per message on the broker hot path: consult
            // the control plane's published lease view instead of taking
            // its mutex for every publish/receive.
            let leases = control.lock().reader();
            broker.set_fence_check(Arc::new(move |topic: &str| leases.holds_topic(topic, node)));
            broker_order.push(node);
            brokers.insert(node, broker);
        }

        let mut bookie_nodes = Vec::new();
        for (i, bookie) in bookies.iter().enumerate() {
            let node = fabric.add_node(NodeRole::Bookie);
            bookie_nodes.push(node);
            if i >= in_service {
                bookie.crash();
                fabric.kill(node);
            }
        }

        let bk = BookKeeper::new(bookies.clone(), meta.clone());
        Self {
            brokers,
            broker_order,
            bookie_nodes,
            bookies,
            bk,
            control,
            active: (0..in_service).collect(),
            spares: (in_service..total).rev().collect(),
            retired: HashSet::new(),
            repair: None,
            repair_chunk: 4,
            consumers: HashMap::new(),
            obs_events: Vec::new(),
        }
    }

    /// Take the observability events accumulated since the last drain.
    pub(crate) fn drain_obs_events(&mut self) -> std::vec::Drain<'_, ObsEvent> {
        self.obs_events.drain(..)
    }

    /// Bookie fabric nodes, in bookie-index order (spares included).
    pub fn bookie_nodes(&self) -> &[NodeId] {
        &self.bookie_nodes
    }

    /// The broker instance running on a node.
    pub fn broker(&self, node: NodeId) -> Option<&PulsarCluster> {
        self.brokers.get(&node)
    }

    /// The bookie index served by a fabric node, if it is a bookie node.
    pub(crate) fn bookie_index(&self, node: NodeId) -> Option<usize> {
        self.bookie_nodes.iter().position(|&n| n == node)
    }

    /// Crash side effects for a fabric-level kill: a dead bookie node
    /// takes its bookie process down with it. (Brokers are stateless —
    /// their death needs no side effect; that is the point.)
    pub(crate) fn on_kill(&self, node: NodeId) {
        if let Some(idx) = self.bookie_index(node) {
            self.bookies[idx].crash();
        }
    }

    /// Restart side effects for a fabric-level revive.
    pub(crate) fn on_revive(&self, node: NodeId) {
        if let Some(idx) = self.bookie_index(node) {
            self.bookies[idx].restart();
        }
    }

    /// Create a topic through any live broker (topic creation is a
    /// metadata write; no lease needed).
    pub(crate) fn create_topic(
        &self,
        fabric: &ClusterFabric,
        topic: &str,
        partitions: u32,
    ) -> Result<()> {
        let node = self
            .broker_order
            .iter()
            .copied()
            .find(|&b| fabric.is_alive(b))
            .ok_or_else(|| ClusterError::NoCandidates(topic_resource(topic)))?;
        self.brokers[&node]
            .create_topic(topic, partitions)
            .map_err(|e| ClusterError::Pulsar(e.to_string()))
    }

    /// The broker currently leasing a topic, acquiring a lease if none.
    pub fn owner(&self, topic: &str) -> Result<NodeId> {
        let mut cp = self.control.lock();
        cp.settled_topic_lease(topic, &self.broker_order)
            .or_else(|| cp.ensure_lease(&topic_resource(topic), &self.broker_order))
            .map(|l| l.owner)
            .ok_or_else(|| ClusterError::NoCandidates(topic_resource(topic)))
    }

    /// Ledgers whose ensembles contain a dead bookie (the repair debt).
    pub fn underreplicated(&self) -> usize {
        self.bk.underreplicated_ledgers().len()
    }

    /// Handle one service envelope addressed to a broker node, sending
    /// the response back over the fabric. Unknown kinds are dropped.
    pub(crate) fn handle(&mut self, fabric: &ClusterFabric, env: &Envelope) {
        let node = env.to;
        let Some(broker) = self.brokers.get(&node) else {
            return;
        };
        type Handler = fn(&mut ClusterPulsar, NodeId, &[u8], &mut Vec<u8>) -> Result<()>;
        let (name, handler): (_, Handler) = match env.kind {
            "pub" => ("cluster.pub", Self::handle_publish),
            "recv" => ("cluster.recv", Self::handle_receive),
            "ack" => ("cluster.ack", Self::handle_ack),
            _ => return,
        };
        let mut span = broker.tracer().span_child_of(TRACE_SYSTEM, name, env.ctx);
        span.attr("node", node.raw());
        let (body, err) = wire::reply(|out| handler(self, node, &env.body, out));
        if let Some(msg) = err {
            span.attr("outcome", "error");
            // A fence rejection is a first-class incident signal: the
            // topic (first request frame) was served by a deposed
            // broker. Stale-lease windows show up on the timeline.
            if msg.to_ascii_lowercase().contains("fenced") {
                if let Some(topic) = wire::frames(&env.body)
                    .next()
                    .and_then(|f| wire::as_str(f.ok()?).ok().map(str::to_string))
                {
                    let node = node.raw();
                    self.obs_events.push(ObsEvent::Fence { topic, node });
                }
            }
        }
        fabric.send(node, env.from, env.req, "resp", body, span.context());
    }

    fn handle_publish(&mut self, node: NodeId, body: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let [topic, payload] = wire::dec_n(body)?;
        let topic = wire::as_str(topic)?;
        let id = self.brokers[&node]
            .producer(topic)
            .and_then(|p| p.send(payload))
            .map_err(|e| ClusterError::Remote(e.to_string()))?;
        wire::put_frame(out, &wire::enc_msg_id(&id));
        Ok(())
    }

    fn consumer(&mut self, node: NodeId, topic: &str, sub: &str) -> Result<&mut Consumer> {
        let topics = self.consumers.entry(node).or_default();
        if !topics.get(topic).is_some_and(|s| s.contains_key(sub)) {
            let c = self.brokers[&node]
                .subscribe(topic, sub, SubscriptionMode::Shared)
                .map_err(|e| ClusterError::Remote(e.to_string()))?;
            topics
                .entry(topic.to_string())
                .or_default()
                .insert(sub.to_string(), c);
            self.obs_events.push(ObsEvent::Rebuild {
                topic: topic.to_string(),
                node: node.raw(),
            });
        }
        Ok(topics
            .get_mut(topic)
            .and_then(|s| s.get_mut(sub))
            .expect("just inserted"))
    }

    fn handle_receive(&mut self, node: NodeId, body: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let [topic, sub, max] = wire::dec_n(body)?;
        let (topic, sub) = (wire::as_str(topic)?, wire::as_str(sub)?);
        let max = wire::as_u64(max)? as usize;
        let consumer = self.consumer(node, topic, sub)?;
        // Whole-entry views: framing parsed once per ledger entry, each
        // payload frame below is a refcount-only slice of the entry
        // buffer (no per-message decode or copy on the serving broker).
        let views = match consumer.receive_entries(max) {
            Ok(v) => v,
            Err(e) => {
                // A fenced consumer handle is useless; drop it so a
                // post-failover retry rebuilds from metadata.
                if let Some(subs) = self
                    .consumers
                    .get_mut(&node)
                    .and_then(|topics| topics.get_mut(topic))
                {
                    subs.remove(sub);
                }
                return Err(ClusterError::Remote(e.to_string()));
            }
        };
        // Per message: id, payload, ctx (empty frame when untraced). The
        // dispatch context is per entry, shared by its messages.
        for view in &views {
            let ctx = view.ctx().map(|c| c.to_bytes());
            for mv in view.messages() {
                wire::put_frame(out, &wire::enc_msg_id(&mv.id()));
                wire::put_frame(out, &mv.payload());
                wire::put_frame(out, ctx.as_ref().map_or(&[], |c| &c[..]));
            }
        }
        Ok(())
    }

    fn handle_ack(&mut self, node: NodeId, body: &[u8], _out: &mut Vec<u8>) -> Result<()> {
        let [topic, sub, id] = wire::dec_n(body)?;
        let (topic, sub) = (wire::as_str(topic)?, wire::as_str(sub)?);
        let id = wire::dec_msg_id(id)?;
        let consumer = self.consumer(node, topic, sub)?;
        consumer
            .ack(id)
            .map_err(|e| ClusterError::Remote(e.to_string()))
    }

    /// One maintenance round: fail over topics off dead brokers, replace
    /// dead bookies with spares, and advance background re-replication by
    /// at most [`ClusterPulsar::repair_chunk`] ledgers.
    pub(crate) fn maintain(&mut self, fabric: &mut ClusterFabric) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();

        // 1. Topic failover: any leased topic whose owner the view lost
        // gets a new owner (epoch bump — the fence). The old owner's
        // cached topic state is stale by construction; drop every
        // non-owner's cache so a bounced broker reloads from metadata.
        let moved = self
            .control
            .lock()
            .ensure_leases("topic/", &self.broker_order);
        for (lease, res) in moved {
            let (new_owner, epoch) = (lease.owner, lease.epoch);
            let topic = res.trim_start_matches("topic/").to_string();
            report.topics_failed_over += 1;
            self.obs_events.push(ObsEvent::Lease {
                resource: res.clone(),
                owner: new_owner.raw(),
                epoch,
            });
            for (&node, broker) in &self.brokers {
                if node != new_owner {
                    broker.unload_topic(&topic);
                }
            }
            for (_, topics) in self.consumers.iter_mut().filter(|(&n, _)| n != new_owner) {
                topics.remove(&topic);
            }
        }

        // 2. Bookie replacement: pair each newly-dead active bookie with
        // a spare. The spare node revives (heartbeats resume), its bookie
        // restarts empty, and the dead bookie's ledgers queue for repair.
        if self.repair.is_none() {
            let dead: Option<usize> = self
                .active
                .iter()
                .copied()
                .find(|&i| !self.bookies[i].is_alive() && !self.retired.contains(&i));
            if let Some(dead_idx) = dead {
                if let Some(target) = self.spares.pop() {
                    let target_node = self.bookie_nodes[target];
                    fabric.revive(target_node);
                    self.bookies[target].restart();
                    self.active.remove(&dead_idx);
                    self.retired.insert(dead_idx);
                    self.active.insert(target);
                    report.bookies_replaced += 1;
                    self.obs_events.push(ObsEvent::BookieReplaced {
                        dead: self.bookie_nodes[dead_idx].raw(),
                        target: target_node.raw(),
                    });
                    self.repair = Some(RepairJob {
                        dead: dead_idx,
                        target,
                        queue: self.bk.ledgers_on(dead_idx).into(),
                    });
                }
            }
        }

        // 3. Background re-replication, `repair_chunk` ledgers per round.
        if let Some(job) = &mut self.repair {
            for _ in 0..self.repair_chunk {
                let Some(ledger) = job.queue.pop_front() else {
                    break;
                };
                match self.bk.rereplicate_ledger(ledger, job.dead, job.target) {
                    Ok(copied) => {
                        report.ledgers_repaired += 1;
                        report.entries_recopied += copied;
                    }
                    Err(_) => {
                        // Requeue at the back: quorum may return as other
                        // repairs land.
                        job.queue.push_back(ledger);
                        break;
                    }
                }
            }
            report.repair_backlog = job.queue.len() as u64;
            if job.queue.is_empty() {
                self.repair = None;
            }
            self.obs_events.push(ObsEvent::Repair {
                ledgers: report.ledgers_repaired,
                entries: report.entries_recopied,
                backlog: report.repair_backlog,
            });
        }
        report
    }
}
