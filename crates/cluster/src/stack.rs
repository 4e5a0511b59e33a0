//! The composed multi-node deployment a client talks to through the
//! network.
//!
//! [`ClusterStack`] wires every tier onto one [`ClusterFabric`]: brokers
//! and bookies ([`ClusterPulsar`]), FaaS workers ([`ClusterFaas`]),
//! Jiffy memory nodes ([`JiffyFabric`]), plus one client node. All
//! client operations are real RPCs: a request envelope crosses the
//! simulated network, a service node handles it, a response envelope
//! comes back — or doesn't, and the deadline fires. The pump
//! ([`ClusterStack::step`]) is the discrete-event scheduler: it settles
//! what is due at the present, or else jumps the fabric to its next event
//! (a delivery, a heartbeat round, a failure timeout, a telemetry flush),
//! lets services drain their mailboxes, and watches the client mailbox
//! for the correlated response. Nothing else moves virtual time, so an
//! RPC costs exactly the latencies of its two messages (none on
//! zero-latency links), and waits are bounded by their callers: the RPC
//! deadline, the end of [`ClusterStack::run_for`], the warm-up.
//!
//! Failure handling is end-to-end at-least-once: a timed-out or fenced
//! request triggers a maintenance round (failure detection has had time
//! to fire by then — the RPC deadline exceeds the membership timeout)
//! and a retry against the freshly-leased owner. Retried publishes can
//! duplicate (exactly like real Pulsar producers after an ownership
//! move); subscriptions absorb that as redelivery, never as loss.

use std::time::Duration;

use bytes::Bytes;
use taureau_core::id::NodeId;
use taureau_core::trace::SpanContext;
use taureau_faas::{FunctionSpec, PlatformConfig};
use taureau_jiffy::{JiffyConfig, MigrationReport};
use taureau_pulsar::broker::PulsarConfig;
use taureau_pulsar::message::MessageId;

use taureau_monitor::HealthReport;

use crate::error::{ClusterError, Result};
use crate::faas_cluster::ClusterFaas;
use crate::fabric::{ClusterFabric, NodeRole};
use crate::jiffy_cluster::JiffyFabric;
use crate::membership::MembershipConfig;
use crate::obs::{ClusterObs, ObsConfig};
use crate::pulsar_cluster::{ClusterPulsar, MaintenanceReport};
use crate::transport::Envelope;
use crate::wire;

/// Sizing and tuning for a full deployment.
#[derive(Debug, Clone)]
pub struct ClusterStackConfig {
    /// Transport fault-stream seed (the whole run is deterministic in it).
    pub seed: u64,
    /// Broker node count.
    pub brokers: usize,
    /// Spare (cold standby) bookies beyond `pulsar.bookies`.
    pub spare_bookies: usize,
    /// FaaS worker node count.
    pub workers: usize,
    /// Pulsar tier config; `bookies` is the in-service bookie count.
    pub pulsar: PulsarConfig,
    /// FaaS tier config.
    pub faas: PlatformConfig,
    /// Jiffy tier config; `memory_nodes` fabric nodes are created.
    pub jiffy: JiffyConfig,
    /// Failure-detector tuning.
    pub membership: MembershipConfig,
    /// Per-attempt RPC deadline. Must exceed
    /// `membership.failure_timeout`, so that by the time an attempt
    /// gives up, detection has had a chance to notice a dead peer.
    pub rpc_timeout: Duration,
    /// Attempts per client operation (1 = no retry).
    pub rpc_attempts: u32,
    /// Deploy the observability plane ([`crate::obs::ClusterObs`]): a
    /// collector node plus per-node telemetry agents. Off by default —
    /// it adds a node to membership and telemetry traffic to the wire.
    /// On the `cluster_stack` deployment of `tests/steady_allocs.rs`
    /// (5 brokers, 2 workers, zero-latency links), 400 warm four-RPC
    /// requests take 10 009 allocations and 3 318 envelopes with the
    /// plane on, and 9 736 and 3 200 with it off: 25.0 against 24.3
    /// allocations and 8.3 against 8.0 envelopes a request (DESIGN.md §15).
    /// With the plane on, its sink is the fabric tracer's only recorder:
    /// the collector holds the spans, and [`ClusterFabric::tracer`]'s ring
    /// stays empty.
    pub observability: bool,
    /// Observability plane tuning (used when `observability` is set).
    pub obs: ObsConfig,
}

impl Default for ClusterStackConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            brokers: 3,
            spare_bookies: 1,
            workers: 2,
            pulsar: PulsarConfig::default(),
            faas: PlatformConfig::deterministic(),
            jiffy: JiffyConfig::default(),
            membership: MembershipConfig::default(),
            rpc_timeout: Duration::from_millis(250),
            rpc_attempts: 4,
            observability: false,
            obs: ObsConfig::default(),
        }
    }
}

/// A message as the client sees it after a `consume` RPC.
#[derive(Debug, Clone)]
pub struct ClusterMessage {
    /// Durable identity (pass back to [`ClusterStack::ack`]).
    pub id: MessageId,
    /// Payload bytes.
    pub payload: Bytes,
    /// The publish-side trace context recovered from the entry header —
    /// survives broker failover because it is stored with the entry.
    pub ctx: Option<SpanContext>,
}

/// The composed deployment.
pub struct ClusterStack {
    cfg: ClusterStackConfig,
    fabric: ClusterFabric,
    pulsar: ClusterPulsar,
    faas: ClusterFaas,
    jiffy: JiffyFabric,
    client: NodeId,
    obs: Option<ClusterObs>,
    next_req: u64,
    /// The request whose response the client is waiting for — it has one
    /// RPC in flight at a time — and that response once it has arrived.
    awaiting: Option<u64>,
    response: Option<Envelope>,
    stale_responses: u64,
    worker_rr: usize,
    /// The nodes the pump visits this step (buffer reused across steps).
    mailed: Vec<NodeId>,
}

impl ClusterStack {
    /// Deploy and run the fabric until membership converges (every node
    /// confirmed by heartbeats), so the first client op sees a settled
    /// view.
    pub fn new(cfg: ClusterStackConfig) -> Self {
        let mut fabric = ClusterFabric::with_membership(cfg.seed, cfg.membership);
        let pulsar = ClusterPulsar::new(
            &mut fabric,
            cfg.brokers,
            cfg.spare_bookies,
            cfg.pulsar.clone(),
        );
        let faas = ClusterFaas::new(&mut fabric, cfg.workers, cfg.faas.clone());
        let jiffy = JiffyFabric::new(&mut fabric, cfg.jiffy.clone());
        let client = fabric.add_node(NodeRole::Client);
        let obs = cfg
            .observability
            .then(|| ClusterObs::new(&mut fabric, cfg.obs.clone(), client));
        let warmup = cfg.membership.failure_timeout * 2;
        fabric.run_for(warmup);
        Self {
            cfg,
            fabric,
            pulsar,
            faas,
            jiffy,
            client,
            obs,
            next_req: 1,
            awaiting: None,
            response: None,
            stale_responses: 0,
            worker_rr: 0,
            mailed: Vec::new(),
        }
    }

    // -- accessors -----------------------------------------------------------

    /// The underlying fabric (fault injection, clock, tracer).
    pub fn fabric(&self) -> &ClusterFabric {
        &self.fabric
    }

    /// The Pulsar tier.
    pub fn pulsar(&self) -> &ClusterPulsar {
        &self.pulsar
    }

    /// The Jiffy tier.
    pub fn jiffy(&self) -> &JiffyFabric {
        &self.jiffy
    }

    /// The client's fabric node.
    pub fn client_node(&self) -> NodeId {
        self.client
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.fabric.now()
    }

    /// The observability plane, when deployed.
    pub fn obs(&self) -> Option<&ClusterObs> {
        self.obs.as_ref()
    }

    /// The single cluster-wide health report, merged from the collector
    /// node's state: per-`(op, node)` latency rows, telemetry-plane
    /// counters, and grey-failure flags as active alerts. `None` when the
    /// plane is not deployed.
    pub fn health_report(&self) -> Option<HealthReport> {
        let now = self.fabric.now();
        self.obs.as_ref().map(|o| o.health_report(now))
    }

    /// Pump the stack until every telemetry agent's final cumulative
    /// count has reached the collector (loss accounting is exact from
    /// then on), or `max` elapses. Returns whether sync was reached —
    /// it never will be while an agent's node is dead.
    pub fn drain_telemetry(&mut self, max: Duration) -> bool {
        let deadline = self.now() + max;
        loop {
            match &self.obs {
                None => return true,
                Some(obs) if obs.telemetry_synced() => return true,
                _ => {}
            }
            if self.now() >= deadline {
                return false;
            }
            self.step_until(deadline);
        }
    }

    // -- lifecycle -----------------------------------------------------------

    /// Kill a node, with role side effects (a bookie node's death crashes
    /// its bookie). Detection still takes the failure timeout.
    pub fn kill(&mut self, node: NodeId) {
        let role = self.fabric.role(node);
        self.pulsar.on_kill(node);
        self.fabric.kill(node);
        if let Some(obs) = &mut self.obs {
            let now = self.fabric.now();
            obs.on_kill(node, role, now);
        }
    }

    /// Revive a node, with role side effects (a bookie restarts with its
    /// surviving — and possibly fenced — ledger data).
    pub fn revive(&mut self, node: NodeId) {
        self.pulsar.on_revive(node);
        self.fabric.revive(node);
    }

    /// One maintenance round (failover + replacement + repair chunk).
    /// When a failover fires and the observability plane is deployed, the
    /// reconstructed timeline and collector trace are dumped to Jiffy
    /// `/blackbox/<incident>/` — the flight recorder writes while the
    /// incident is still hot.
    pub fn maintain(&mut self) -> MaintenanceReport {
        let report = self.pulsar.maintain(&mut self.fabric);
        if report.topics_failed_over > 0 {
            if let Some(obs) = &mut self.obs {
                // Pull the lease-move events the round just generated
                // into the plane before dumping.
                obs.step(&mut self.fabric, &mut self.pulsar);
                let now = self.fabric.now();
                obs.dump_failover(self.jiffy.jiffy(), now);
            }
        }
        report
    }

    /// Run maintenance rounds (interleaved with fabric time) until no
    /// ledger is under-replicated, or `max_rounds` elapse. Returns the
    /// rounds used.
    pub fn repair_until_replicated(&mut self, max_rounds: usize) -> usize {
        for round in 0..max_rounds {
            if self.pulsar.underreplicated() == 0 {
                return round;
            }
            self.step();
            self.maintain();
        }
        max_rounds
    }

    /// One step of the pump: when something is due at the present, the
    /// fabric delivers it without moving the clock; otherwise the clock
    /// jumps straight to the earliest pending event (a delivery, a
    /// heartbeat round, a failure-timeout expiry, a telemetry flush or
    /// sync). Every service node handed mail then drains its mailbox, in
    /// node order, and the plane records and ships. The response the
    /// client is waiting for is kept; any other is counted and dropped.
    /// With nothing ever due again (every node dead, nothing in flight),
    /// nothing moves.
    pub fn step(&mut self) {
        self.step_until(Duration::MAX);
    }

    /// [`Self::step`], jumping no later than `bound`.
    fn step_until(&mut self, bound: Duration) {
        let plane = self
            .obs
            .as_ref()
            .map_or(Duration::MAX, ClusterObs::next_flush);
        let next = self.fabric.next_event().min(plane).min(bound);
        if next == Duration::MAX {
            return;
        }
        self.fabric.advance(next);
        let now = self.fabric.now();
        let mut mailed = std::mem::take(&mut self.mailed);
        self.fabric.take_mailed(&mut mailed);
        for &node in &mailed {
            let Some(role) = self.fabric.role(node) else {
                continue;
            };
            while let Some(env) = self.fabric.pop_mail(node) {
                match role {
                    NodeRole::Broker => self.pulsar.handle(&self.fabric, &env),
                    NodeRole::Worker => self.faas.handle(&self.fabric, &env),
                    NodeRole::Memory => self.jiffy.handle(&self.fabric, &env),
                    NodeRole::Client => {
                        if env.kind != "resp" {
                            continue;
                        }
                        // Several copies of the awaited response can land
                        // in one step (a duplicated request is answered
                        // twice): the last one stands.
                        if self.awaiting != Some(env.req) || self.response.replace(env).is_some() {
                            self.stale_responses += 1;
                        }
                    }
                    NodeRole::Bookie => {} // bookie I/O is modeled in-process
                    NodeRole::Collector => {
                        if let Some(obs) = &mut self.obs {
                            obs.ingest(&env, now);
                        }
                    }
                }
            }
        }
        self.mailed = mailed;
        // The plane steps after service mail: route freshly-recorded
        // spans/control events to agents and flush due batches.
        if let Some(obs) = &mut self.obs {
            obs.step(&mut self.fabric, &mut self.pulsar);
        }
    }

    /// Run the pump for a duration without issuing requests: every event
    /// in it runs at its instant, and the clock ends exactly `d` later.
    pub fn run_for(&mut self, d: Duration) {
        let end = self.now() + d;
        while self.now() < end {
            self.step_until(end);
        }
    }

    // -- RPC core ------------------------------------------------------------

    /// One request/response exchange with a service node. Returns the body
    /// of an `ok` response past its status frame, for the caller to decode
    /// the frames it expects; [`ClusterError::Remote`] for a service `err`,
    /// or [`ClusterError::Unreachable`] on deadline.
    ///
    /// Every exchange is also a latency sample for the grey-failure
    /// detector: the client-observed round trip (success or not) is
    /// recorded on the client's telemetry agent.
    pub(crate) fn rpc(
        &mut self,
        to: NodeId,
        kind: &'static str,
        frames: &[&[u8]],
        ctx: Option<SpanContext>,
    ) -> Result<Bytes> {
        let role = self.fabric.role(to);
        let t0 = self.now();
        let result = self.rpc_inner(to, kind, frames, ctx);
        if let (Some(obs), Some(role)) = (&mut self.obs, role) {
            let now = self.fabric.now();
            obs.record_rpc(now, to, role, now - t0, result.is_ok());
        }
        result
    }

    fn rpc_inner(
        &mut self,
        to: NodeId,
        kind: &'static str,
        frames: &[&[u8]],
        ctx: Option<SpanContext>,
    ) -> Result<Bytes> {
        let req = self.next_req;
        self.next_req += 1;
        if !self
            .fabric
            .send(self.client, to, req, kind, wire::enc(frames), ctx)
        {
            return Err(ClusterError::Unreachable(to));
        }
        self.awaiting = Some(req);
        let deadline = self.now() + self.cfg.rpc_timeout;
        let env = loop {
            self.step_until(deadline);
            if let Some(env) = self.response.take() {
                break Some(env);
            }
            if self.now() >= deadline {
                break None;
            }
        };
        self.awaiting = None;
        let body = env.ok_or(ClusterError::Unreachable(to))?.body;
        let mut frames = wire::frames(&body);
        match frames.next().transpose()? {
            // What follows the status frame's length and its `ok`.
            Some(b"ok") => Ok(body.slice(4 + b"ok".len()..)),
            Some(b"err") => {
                let msg = frames.next().transpose()?.unwrap_or_default();
                Err(ClusterError::Remote(
                    String::from_utf8_lossy(msg).into_owned(),
                ))
            }
            Some(_) => Err(ClusterError::Wire("bad status frame".into())),
            None => Err(ClusterError::Wire("empty response".into())),
        }
    }

    /// Whether an error should trigger maintenance + retry (the owner
    /// died or was deposed) rather than surfacing to the caller.
    fn is_failover_error(e: &ClusterError) -> bool {
        match e {
            ClusterError::Unreachable(_) => true,
            ClusterError::Remote(msg) => msg.contains("fenced"),
            _ => false,
        }
    }

    fn with_owner_retry<T>(
        &mut self,
        topic: &str,
        mut op: impl FnMut(&mut Self, NodeId) -> Result<T>,
    ) -> Result<T> {
        let mut last = None;
        for _ in 0..self.cfg.rpc_attempts.max(1) {
            self.maintain();
            let owner = match self.pulsar.owner(topic) {
                Ok(o) => o,
                Err(e) => {
                    last = Some(e);
                    self.run_for(self.cfg.membership.failure_timeout);
                    continue;
                }
            };
            match op(self, owner) {
                Ok(v) => return Ok(v),
                Err(e) if Self::is_failover_error(&e) => {
                    last = Some(e);
                    // Give detection time to catch up before re-leasing.
                    self.run_for(self.cfg.membership.failure_timeout);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::NoCandidates(topic.to_string())))
    }

    // -- client operations ---------------------------------------------------

    /// Create a topic (metadata write through any live broker).
    pub fn create_topic(&mut self, topic: &str, partitions: u32) -> Result<()> {
        self.pulsar.create_topic(&self.fabric, topic, partitions)
    }

    /// Register a function on every FaaS worker.
    pub fn register_function(&self, spec: FunctionSpec) -> Result<()> {
        self.faas.register(spec)
    }

    /// Publish to a topic through its owning broker, failing over (and
    /// possibly duplicating — at-least-once) when the owner dies mid-op.
    pub fn publish(
        &mut self,
        topic: &str,
        payload: &[u8],
        ctx: Option<SpanContext>,
    ) -> Result<MessageId> {
        self.with_owner_retry(topic, |this, owner| {
            let body = this.rpc(owner, "pub", &[topic.as_bytes(), payload], ctx)?;
            wire::dec_msg_id(
                wire::frames(&body)
                    .next()
                    .transpose()?
                    .ok_or_else(|| ClusterError::Wire("publish response missing id".into()))?,
            )
        })
    }

    /// Receive up to `max` messages from a subscription through the
    /// owning broker.
    pub fn consume(
        &mut self,
        topic: &str,
        sub: &str,
        max: usize,
        ctx: Option<SpanContext>,
    ) -> Result<Vec<ClusterMessage>> {
        let max = wire::u64_frame(max as u64);
        let body = self.with_owner_retry(topic, |this, owner| {
            this.rpc(
                owner,
                "recv",
                &[topic.as_bytes(), sub.as_bytes(), &max],
                ctx,
            )
        })?;
        // Per message: id, payload, ctx. Only the payload is kept, as a
        // slice of the response body.
        let mut frames = wire::frames(&body);
        let mut msgs = Vec::new();
        while let Some(id) = frames.next() {
            let (Some(payload), Some(ctx)) = (frames.next(), frames.next()) else {
                return Err(ClusterError::Wire("recv frames not a multiple of 3".into()));
            };
            msgs.push(ClusterMessage {
                id: wire::dec_msg_id(id?)?,
                payload: body.slice_ref(payload?),
                ctx: SpanContext::from_bytes(ctx?),
            });
        }
        Ok(msgs)
    }

    /// Acknowledge one message on a subscription.
    pub fn ack(
        &mut self,
        topic: &str,
        sub: &str,
        id: MessageId,
        ctx: Option<SpanContext>,
    ) -> Result<()> {
        let id = wire::enc_msg_id(&id);
        self.with_owner_retry(topic, |this, owner| {
            this.rpc(owner, "ack", &[topic.as_bytes(), sub.as_bytes(), &id], ctx)
                .map(|_| ())
        })
    }

    /// Invoke a function on a live worker, walking the worker ring on
    /// unreachability.
    pub fn invoke(
        &mut self,
        function: &str,
        payload: &[u8],
        ctx: Option<SpanContext>,
    ) -> Result<Bytes> {
        self.worker_rr = self.worker_rr.wrapping_add(1);
        let mut last = None;
        for worker in self.faas.route(&self.fabric, self.worker_rr) {
            match self.rpc(worker, "invoke", &[function.as_bytes(), payload], ctx) {
                Ok(body) => {
                    let output = wire::frames(&body).next().transpose()?;
                    return Ok(body.slice_ref(output.unwrap_or_default()));
                }
                Err(e) if Self::is_failover_error(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClusterError::NoCandidates(format!("fn/{function}"))))
    }

    /// Gracefully remove a memory node (controller migration + modeled
    /// transfer traffic + node kill).
    pub fn leave_memory_node(&mut self, node: NodeId) -> Result<MigrationReport> {
        self.jiffy.leave(&mut self.fabric, node)
    }

    /// Add a memory node to the Jiffy pool.
    pub fn join_memory_node(&mut self) -> NodeId {
        self.jiffy.join(&mut self.fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn stack() -> ClusterStack {
        ClusterStack::new(ClusterStackConfig::default())
    }

    #[test]
    fn publish_consume_ack_invoke_end_to_end() {
        let mut s = stack();
        s.create_topic("orders", 1).unwrap();
        s.register_function(FunctionSpec::new("echo", "tenant-a", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        let mut ids = Vec::new();
        for i in 0..10u64 {
            ids.push(s.publish("orders", &i.to_le_bytes(), None).unwrap());
        }
        let msgs = s.consume("orders", "workers", 16, None).unwrap();
        assert_eq!(msgs.len(), 10);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(&m.payload[..], &(i as u64).to_le_bytes());
            let out = s.invoke("echo", &m.payload, m.ctx).unwrap();
            assert_eq!(&out[..], &m.payload[..]);
            s.ack("orders", "workers", m.id, None).unwrap();
        }
        assert!(s.consume("orders", "workers", 16, None).unwrap().is_empty());
        // Ids no message of the topic can have — a partition past its
        // one, an index past the batch — come back as the broker's error.
        for bad in [
            MessageId {
                partition: 7,
                ..msgs[0].id
            },
            MessageId {
                batch_index: 5,
                ..msgs[0].id
            },
        ] {
            let refused = s.ack("orders", "workers", bad, None);
            assert!(
                matches!(&refused, Err(ClusterError::Remote(e)) if e.contains("invalid message id")),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn duplicated_and_late_responses_are_counted_not_kept() {
        let mut s = stack();
        s.fabric().net().set_default_faults(crate::LinkFaults {
            dup_p: 0.2,
            ..Default::default()
        });
        s.create_topic("t", 1).unwrap();
        s.register_function(FunctionSpec::new("echo", "tenant-a", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        // A thousand RPCs: publish, recv, then invoke + ack per message. (A
        // duplicated `recv` is answered twice, and when the second, empty
        // answer stands the message stays pending; the loop carries on.)
        let mut i = 0u64;
        while s.next_req <= 1000 {
            s.publish("t", &i.to_le_bytes(), None).unwrap();
            for m in s.consume("t", "s", 8, None).unwrap() {
                s.invoke("echo", &m.payload, m.ctx).unwrap();
                s.ack("t", "s", m.id, None).unwrap();
            }
            i += 1;
        }
        // Let the last duplicates land: nothing is waiting for them.
        s.run_for(Duration::from_millis(5));
        assert!(s.response.is_none() && s.awaiting.is_none());
        // Every fifth request is handled twice and every fifth response
        // delivered twice: 1.2 x 1.2 - 1 = 0.44 surplus responses per RPC.
        assert!(
            (300..=600).contains(&s.stale_responses),
            "{} stale responses",
            s.stale_responses
        );
    }

    #[test]
    fn rpc_latency_is_virtual_network_time() {
        let mut s = stack();
        s.create_topic("t", 1).unwrap();
        // Exactly the two one-way latencies of the default 500 µs links,
        // whatever heartbeats and flushes fall due in between.
        for _ in 0..30 {
            let before = s.now();
            s.publish("t", b"x", None).unwrap();
            assert_eq!(s.now() - before, Duration::from_millis(1));
        }
    }

    #[test]
    fn a_zero_latency_rpc_completes_at_the_instant_it_was_sent() {
        let mut s = stack();
        s.fabric().net().set_default_faults(crate::LinkFaults {
            latency: Duration::ZERO,
            ..Default::default()
        });
        s.create_topic("t", 1).unwrap();
        let before = s.now();
        for i in 0..100u64 {
            s.publish("t", &i.to_le_bytes(), None).unwrap();
        }
        assert_eq!(s.consume("t", "s", 128, None).unwrap().len(), 100);
        assert_eq!(s.now(), before);
    }

    #[test]
    fn run_for_ends_exactly_and_a_step_with_nothing_due_moves_the_clock() {
        let mut s = stack();
        let before = s.now();
        let d = Duration::from_micros(12_345);
        s.run_for(d);
        assert_eq!(s.now(), before + d);
        // A step settles an instant with something due, and the next finds
        // nothing due there and leaves it.
        for _ in 0..100 {
            let at = s.now();
            s.step();
            s.step();
            assert!(s.now() > at, "two steps stuck at {at:?}");
        }
    }

    #[test]
    fn broker_kill_fails_over_without_entry_loss() {
        let mut s = stack();
        s.create_topic("stream", 1).unwrap();
        let mut published = Vec::new();
        for i in 0..20u64 {
            s.publish("stream", &i.to_le_bytes(), None).unwrap();
            published.push(i);
        }
        let owner = s.pulsar.owner("stream").unwrap();
        s.kill(owner);
        // Keep publishing through the failover: retries ride out detection.
        for i in 20..40u64 {
            s.publish("stream", &i.to_le_bytes(), None).unwrap();
            published.push(i);
        }
        let new_owner = s.pulsar.owner("stream").unwrap();
        assert_ne!(new_owner, owner, "lease must have moved");
        // Every published value arrives at least once (dups allowed).
        let mut got = BTreeSet::new();
        loop {
            let msgs = s.consume("stream", "s", 64, None).unwrap();
            if msgs.is_empty() {
                break;
            }
            for m in msgs {
                let mut b = [0u8; 8];
                b.copy_from_slice(&m.payload[..8]);
                got.insert(u64::from_le_bytes(b));
                s.ack("stream", "s", m.id, None).unwrap();
            }
        }
        for v in published {
            assert!(got.contains(&v), "entry {v} lost in failover");
        }
    }

    #[test]
    fn bookie_kill_triggers_replacement_and_repair() {
        let mut s = stack();
        s.create_topic("t", 1).unwrap();
        for i in 0..50u64 {
            s.publish("t", &i.to_le_bytes(), None).unwrap();
        }
        let bookie_node = s.pulsar.bookie_nodes()[0];
        s.kill(bookie_node);
        assert!(
            s.pulsar.underreplicated() > 0,
            "kill must create repair debt"
        );
        let rounds = s.repair_until_replicated(200);
        assert!(rounds < 200, "repair never converged");
        assert_eq!(s.pulsar.underreplicated(), 0);
        // The stream still reads back completely.
        let msgs = s.consume("t", "s", 64, None).unwrap();
        assert_eq!(msgs.len(), 50);
    }

    /// A Jiffy span's `node` is a pool node id, not a fabric node: with
    /// the plane on, a memory node leaving files `jiffy.decommission` under
    /// the admin/client agent, not under the fabric node (a broker) that
    /// happens to share the number.
    #[test]
    fn jiffy_decommission_is_filed_under_the_admin_agent() {
        let mut s = ClusterStack::new(ClusterStackConfig {
            observability: true,
            ..ClusterStackConfig::default()
        });
        s.join_memory_node();
        let leaving = s.jiffy().memory_nodes()[0];
        s.leave_memory_node(leaving).unwrap();
        s.run_for(Duration::from_millis(50));
        let report = s.health_report().expect("plane on");
        let filed: Vec<Option<u64>> = report
            .ops
            .iter()
            .filter(|op| op.op == "jiffy.decommission")
            .map(|op| op.node)
            .collect();
        assert_eq!(filed, [Some(s.client_node().raw())]);
    }

    #[test]
    fn memory_node_leaves_with_data_intact() {
        let mut s = stack();
        let kv = s.jiffy().jiffy().create_kv("/app/state", 2).unwrap();
        for i in 0..16u64 {
            kv.put(&i.to_le_bytes(), &[9u8; 32]).unwrap();
        }
        let joined = s.join_memory_node();
        let leaving = s.jiffy().memory_nodes()[0];
        let report = s.leave_memory_node(leaving).unwrap();
        assert!(report.freed_blocks + report.blocks_moved > 0);
        assert!(!s.fabric().is_alive(leaving));
        assert!(s.fabric().is_alive(joined));
        // Transfer traffic reached the survivors.
        s.run_for(Duration::from_millis(20));
        for i in 0..16u64 {
            assert_eq!(
                kv.get(&i.to_le_bytes()).unwrap().as_deref(),
                Some(&[9u8; 32][..])
            );
        }
    }
}
