//! `cluster_stack`: `ClusterStack` (5 brokers, 2 workers, observability
//! on), one client doing `publish` → `consume(1)` → `invoke` → `ack` as
//! four RPCs.
//!
//! **Steady phase** (the measured window; SimNet latency 0, no faults)
//! prices our envelope / `wire` codec / lease / membership-tick code with
//! the data-plane layers nearly idle, and yields the timing metrics.
//! **Fault phase** (after the window, on a fresh seeded stack so that it
//! repeats exactly: 3 000 requests, 500 µs links, 0.5 % drop + dup, the
//! topic owner killed once per 100 requests at a seeded offset and the
//! previous victim revived ⇒ 30 incidents) yields `cluster.recovery_ms`
//! and the at-least-once oracle. Recovery is virtual time, independent of
//! every wall metric. The oracle's own read-back (one last failover and a
//! drain) runs after the links stop dropping and duplicating: a response
//! lost there would leave a message pending with no later failover to
//! redeliver it, and the oracle would report as lost what is only late.

use std::time::Duration;

use taureau_cluster::{
    ClusterStack, ClusterStackConfig, Incident, IncidentKind, IncidentSpec, LinkFaults, OutagePhase,
};
use taureau_core::id::NodeId;
use taureau_faas::FunctionSpec;

use super::faas_config;
use crate::gen::{kill_schedule, EventPool, Rng};
use crate::harness::{Finish, Window, Workload};
use crate::stats::median;
use crate::trace::{span, Layer};

const TOPIC: &str = "bench";
const SUBSCRIPTION: &str = "s";
const FUNCTION: &str = "handle";
const EVENT: usize = 64;
const POOL: usize = 4096;
/// Requests between `trim_consumed` calls on the owning broker.
const TRIM_EVERY: u64 = 8192;
const FAULT_REQUESTS: usize = 3000;
const KILL_EVERY: usize = 100;

pub struct ClusterWorkload {
    seed: u64,
    events: EventPool,
}

pub struct Client {
    stack: ClusterStack,
    seq: u64,
    buf: [u8; EVENT],
}

/// Links of the steady phase: no latency, no faults.
const QUIET: LinkFaults = LinkFaults {
    latency: Duration::ZERO,
    jitter: Duration::ZERO,
    drop_p: 0.0,
    dup_p: 0.0,
};
/// Links of the fault phase.
const LOSSY: LinkFaults = LinkFaults {
    latency: Duration::from_micros(500),
    jitter: Duration::from_micros(200),
    drop_p: 0.005,
    dup_p: 0.005,
};

fn deploy(seed: u64, faults: LinkFaults) -> ClusterStack {
    let mut stack = ClusterStack::new(ClusterStackConfig {
        seed,
        brokers: 5,
        workers: 2,
        faas: faas_config(),
        observability: true,
        // The default 4 attempts lose a publish to the 0.5 % drop once in
        // ~10^4 fault phases (the first attempt after a kill always times
        // out); 6 make that once in ~10^8, and cost nothing otherwise.
        rpc_attempts: 6,
        ..ClusterStackConfig::default()
    });
    stack.fabric().net().set_default_faults(faults);
    stack.create_topic(TOPIC, 1).expect("topic");
    stack
        .register_function(FunctionSpec::new(FUNCTION, "bench", |ctx| {
            let _h = span(Layer::FaasHandler);
            Ok(ctx.payload[..8].to_vec())
        }))
        .expect("register");
    stack
}

impl ClusterWorkload {
    /// Event `seq`: a pool event stamped with its sequence number.
    fn stamp<'a>(&self, buf: &'a mut [u8; EVENT], seq: u64) -> &'a [u8] {
        buf.copy_from_slice(self.events.get(seq as usize));
        buf[..8].copy_from_slice(&seq.to_le_bytes());
        buf
    }
}

fn seq_of(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"))
}

impl Workload for ClusterWorkload {
    const NAME: &'static str = "cluster_stack";
    const WARMUP: usize = 512;
    const EXACT: u64 = 2048;
    type Client = Client;

    fn setup(seed: u64, _threads: usize, _traced: bool) -> (Self, Vec<Client>) {
        let events = EventPool::new(
            &mut Rng::stream(seed, Self::NAME, "events"),
            POOL,
            EVENT,
            1024,
            0.99,
            0,
        );
        let client = Client {
            stack: deploy(seed, QUIET),
            seq: 0,
            buf: [0; EVENT],
        };
        (Self { seed, events }, vec![client])
    }

    fn request(&self, c: &mut Client) -> bool {
        let seq = c.seq;
        c.seq += 1;
        let payload = self.stamp(&mut c.buf, seq);
        let s = &mut c.stack;
        let published = {
            let _s = span(Layer::RpcPub);
            s.publish(TOPIC, payload, None)
        };
        if published.is_err() {
            return false;
        }
        let msgs = {
            let _s = span(Layer::RpcRecv);
            s.consume(TOPIC, SUBSCRIPTION, 1, None)
        };
        let Some(m) = msgs.ok().and_then(|mut v| v.pop()) else {
            return false;
        };
        let out = {
            let _s = span(Layer::RpcInvoke);
            s.invoke(FUNCTION, &m.payload, m.ctx)
        };
        let acked = {
            let _s = span(Layer::RpcAck);
            s.ack(TOPIC, SUBSCRIPTION, m.id, None)
        };
        if c.seq.is_multiple_of(TRIM_EVERY) {
            let _s = span(Layer::PulsarTrim);
            let owner = s.pulsar().owner(TOPIC).expect("owner");
            let broker = s.pulsar().broker(owner).expect("broker");
            broker.trim_consumed(TOPIC).expect("trim");
        }
        acked.is_ok() && m.payload[..] == *payload && out.is_ok_and(|o| seq_of(&o) == seq)
    }

    fn raw(&self, c: &Client) -> Vec<u64> {
        vec![
            c.stack.now().as_nanos() as u64,
            c.stack.fabric().net().stats().sent,
        ]
    }

    fn derive(&self, d: &[u64], w: &Window) -> Vec<(&'static str, f64)> {
        let per_req = |v: u64| v as f64 / w.requests as f64;
        vec![
            ("cluster.virtual_ms_per_req", per_req(d[0]) / 1e6),
            ("cluster.net.envelopes_per_req", per_req(d[1])),
        ]
    }

    fn finish(self, clients: Vec<Client>, _traced: bool) -> Finish {
        drop(clients); // the steady-phase stack; the fault phase builds its own
        let mut fin = Finish::default();
        let mut s = deploy(self.seed ^ 0xFA17, LOSSY);
        let kills = kill_schedule(
            &mut Rng::stream(self.seed, Self::NAME, "kills"),
            FAULT_REQUESTS,
            KILL_EVERY,
        );
        let mut next_kill = kills.iter().copied().peekable();
        let mut victims: Vec<NodeId> = Vec::new();
        let mut specs: Vec<IncidentSpec> = Vec::new();
        // Fault injected, recovery not yet observed by the client.
        let mut open: Option<(NodeId, Duration)> = None;

        let mut acked_publish = vec![false; FAULT_REQUESTS];
        let mut deliveries = vec![0u32; FAULT_REQUESTS];
        let mut stuck = 0u64;
        let mut kill_owner = |s: &mut ClusterStack| {
            // Rolling: at most one broker of five is ever down.
            if let Some(&prev) = victims.last() {
                s.revive(prev);
            }
            let owner = s.pulsar().owner(TOPIC).expect("owner");
            s.kill(owner);
            victims.push(owner);
            owner
        };
        // Consume and ack until the subscription runs dry; invoke on the
        // message of request `own`. True when that message was served.
        let mut drain = |s: &mut ClusterStack, own: usize| {
            let mut served = false;
            while let Ok(msgs) = s.consume(TOPIC, SUBSCRIPTION, 32, None) {
                if msgs.is_empty() {
                    break;
                }
                for m in msgs {
                    let seq = seq_of(&m.payload) as usize;
                    deliveries[seq] += 1;
                    if seq == own && !served {
                        served = s.invoke(FUNCTION, &m.payload, m.ctx).is_ok();
                    }
                    let _ = s.ack(TOPIC, SUBSCRIPTION, m.id, None);
                }
            }
            served
        };
        let mut buf = [0u8; EVENT];
        for (i, acked) in acked_publish.iter_mut().enumerate() {
            if next_kill.next_if_eq(&i).is_some() {
                let at = s.now();
                open = Some((kill_owner(&mut s), at));
            }
            fin.attempted += 1;
            let payload = self.stamp(&mut buf, i as u64);
            *acked = s.publish(TOPIC, payload, None).is_ok();
            fin.failed += u64::from(!*acked);
            // A message whose `recv` response the network dropped stays
            // pending on the broker until the next failover redelivers it:
            // late, not lost, so it does not fail the request.
            let served = drain(&mut s, i);
            stuck += u64::from(*acked && !served);
            if let (Some((node, fault_at)), true) = (open, served) {
                specs.push(IncidentSpec {
                    id: format!("kill-{}", specs.len() + 1),
                    node,
                    kind: IncidentKind::Broker,
                    fault_at,
                    recovered_at: s.now(),
                });
                open = None;
            }
        }
        // One last failover, outside the incident list, so that messages
        // still pending from a dropped response are redelivered too. This
        // is the oracle reading back, not the system under fault: the links
        // keep their latency but lose and duplicate nothing from here on.
        s.fabric().net().set_default_faults(LinkFaults {
            drop_p: 0.0,
            dup_p: 0.0,
            ..LOSSY
        });
        kill_owner(&mut s);
        drain(&mut s, usize::MAX);
        s.revive(*victims.last().expect("a victim"));
        let synced = s.drain_telemetry(Duration::from_secs(10));
        let timeline = s.obs().expect("plane").timeline(&specs);

        let lost = (0..FAULT_REQUESTS)
            .filter(|&i| acked_publish[i] && deliveries[i] == 0)
            .count();
        let delivered: u64 = deliveries.iter().map(|&d| u64::from(d)).sum();
        let distinct = deliveries.iter().filter(|&&d| d > 0).count() as u64;
        let duplicates = delivered - distinct;
        fin.check(
            lost == 0,
            format!(
                "no acked publish is missing after the fault phase ({lost} lost of {FAULT_REQUESTS}; {duplicates} duplicate deliveries, {stuck} delivered late after a dropped response)"
            ),
        );
        fin.check(
            specs.len() == kills.len() && synced,
            format!(
                "{} of {} broker kills recovered (telemetry synced: {synced})",
                specs.len(),
                kills.len()
            ),
        );
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let med = |f: &dyn Fn(&Incident) -> f64| {
            let v: Vec<f64> = timeline.incidents.iter().map(f).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        let phase = |p: OutagePhase| med(&|i| ms(i.phase(p)));
        fin.layer = vec![
            ("cluster.recovery_ms", med(&|i| ms(i.mttr()))),
            ("cluster.failover.detect_ms", phase(OutagePhase::Detection)),
            ("cluster.failover.release_ms", phase(OutagePhase::Release)),
            (
                "cluster.failover.rebuild_ms",
                phase(OutagePhase::SubscriptionRebuild),
            ),
            (
                "cluster.failover.explained",
                med(&|i| i.explained_fraction()),
            ),
            (
                "cluster.dup_ratio",
                duplicates as f64 / delivered.max(1) as f64,
            ),
        ];
        fin
    }
}
