//! `pipeline_small`: one logical write per request, FaaSKeeper-style.
//! One client: `send_keyed` a 256 B event (4-partition topic, 4 096 Zipf
//! keys) → `receive` → `invoke_traced` (handler: Jiffy `get` + `put` of a
//! per-key counter) → `ack`. Every layer pays its per-message fixed cost;
//! batching, entry views and contention machinery are bypassed.

use std::sync::Arc;

use taureau_core::clock::WallClock;
use taureau_core::sync::LockSite;
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::{Jiffy, JiffyConfig, KvHandle};
use taureau_pulsar::{Consumer, Producer, PulsarCluster, PulsarConfig, SubscriptionMode};

use super::{
    derive_faas, derive_lock, faas_config, faas_counters, ledger_probe, lock_counters,
    topic_lock_site,
};
use crate::gen::{key_of, EventPool, Rng};
use crate::harness::{Finish, Window, Workload};
use crate::trace::{span, Layer};

const TOPIC: &str = "bench/small";
const KEYS: usize = 4096;
const EVENT: usize = 256;
const POOL: usize = 16_384;
/// Requests between `trim_consumed` calls, as a deployment with retention
/// would run them.
const TRIM_EVERY: u64 = 8192;

pub struct PipelineSmall {
    cluster: PulsarCluster,
    faas: FaasPlatform,
    kv: KvHandle,
    events: EventPool,
    /// `pulsar.topics` lock site (traced runs): with one client its wait
    /// share must read ≈ 0.
    site: Option<Arc<LockSite>>,
}

pub struct Client {
    producer: Producer,
    consumer: Consumer,
    sent: u64,
    /// Sequential reference model of the per-key counters.
    reference: Vec<u64>,
}

fn key_bytes(key: u32) -> [u8; 4] {
    key.to_le_bytes()
}

impl Workload for PipelineSmall {
    const NAME: &'static str = "pipeline_small";
    const WARMUP: usize = 65_536;
    const EXACT: u64 = 2 * TRIM_EVERY;
    type Client = Client;

    fn setup(seed: u64, _threads: usize, traced: bool) -> (Self, Vec<Client>) {
        let events = EventPool::new(
            &mut Rng::stream(seed, Self::NAME, "events"),
            POOL,
            EVENT,
            KEYS,
            0.99,
            0,
        );
        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        cluster.create_topic(TOPIC, 4).expect("topic");
        let site = topic_lock_site(&cluster, traced);
        let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
        let kv = jiffy.create_kv("/bench/counters", 4).expect("kv");
        for k in 0..KEYS as u32 {
            kv.put(&key_bytes(k), &0u64.to_le_bytes()).expect("prefill");
        }
        let faas = FaasPlatform::new(faas_config(), WallClock::shared());
        let state = kv.clone();
        faas.register(FunctionSpec::new("count", "bench", move |ctx| {
            let _h = span(Layer::FaasHandler);
            let key = key_bytes(key_of(&ctx.payload));
            let cur = {
                let _s = span(Layer::JiffyKvGet);
                state.get(&key).map_err(|e| e.to_string())?
            };
            let cur = cur
                .and_then(|v| v[..].try_into().ok().map(u64::from_le_bytes))
                .ok_or("counter missing")?;
            let next = (cur + 1).to_le_bytes();
            {
                let _s = span(Layer::JiffyKvPut);
                state.put(&key, &next).map_err(|e| e.to_string())?;
            }
            Ok(next.to_vec())
        }))
        .expect("register");
        let client = Client {
            producer: cluster.producer(TOPIC).expect("producer"),
            consumer: cluster
                .subscribe(TOPIC, "fn", SubscriptionMode::Exclusive)
                .expect("subscribe"),
            sent: 0,
            reference: vec![0; KEYS],
        };
        let w = Self {
            cluster,
            faas,
            kv,
            events,
            site,
        };
        (w, vec![client])
    }

    fn request(&self, c: &mut Client) -> bool {
        let event = self.events.get(c.sent as usize);
        let key = key_of(event);
        c.sent += 1;
        c.reference[key as usize] += 1;

        let published = {
            let _s = span(Layer::PulsarPublish);
            c.producer.send_keyed(&key_bytes(key), event)
        };
        if published.is_err() {
            return false;
        }
        let msg = {
            let _s = span(Layer::PulsarReceive);
            c.consumer.receive()
        };
        let Ok(Some(msg)) = msg else { return false };
        let out = {
            let _s = span(Layer::FaasInvoke);
            self.faas
                .invoke_traced("count", msg.payload.clone(), msg.ctx)
        };
        let acked = {
            let _s = span(Layer::PulsarAck);
            c.consumer.ack(msg.id).is_ok()
        };
        if c.sent.is_multiple_of(TRIM_EVERY) {
            let _s = span(Layer::PulsarTrim);
            self.cluster.trim_consumed(TOPIC).expect("trim");
        }
        // Verified: the message delivered is the one sent, and the function
        // returned the counter value the reference model expects.
        let expect = c.reference[key as usize].to_le_bytes();
        acked && msg.payload[..] == *event && out.is_ok_and(|r| r.output[..] == expect)
    }

    fn raw(&self, _c: &Client) -> Vec<u64> {
        let mut v = faas_counters(&self.faas);
        v.extend(lock_counters(&self.site));
        v
    }

    fn derive(&self, d: &[u64], w: &Window) -> Vec<(&'static str, f64)> {
        let mut out = derive_faas(&d[..2]);
        out.extend(derive_lock(&d[2..5], w));
        out
    }

    fn finish(self, mut clients: Vec<Client>, traced: bool) -> Finish {
        let mut fin = Finish::default();
        let c = &mut clients[0];
        let unacked = c.consumer.redeliver_unacked().unwrap_or(usize::MAX);
        let drained = matches!(c.consumer.receive(), Ok(None));
        fin.check(
            unacked == 0 && drained,
            format!("every delivered message was acked ({unacked} left unacked, backlog empty: {drained})"),
        );
        if traced {
            const PROBE: u64 = 64;
            fin.layer = ledger_probe(&self.cluster, TOPIC, PROBE, PROBE * EVENT as u64, || {
                for i in 0..PROBE as usize {
                    let event = self.events.get(i);
                    c.producer
                        .send_keyed(&key_bytes(key_of(event)), event)
                        .expect("probe publish");
                }
            });
        }
        let mismatched = (0..KEYS as u32)
            .filter(|&k| {
                let stored = self.kv.get(&key_bytes(k)).ok().flatten();
                stored.as_deref() != Some(&c.reference[k as usize].to_le_bytes()[..])
            })
            .count();
        fin.check(
            mismatched == 0,
            format!(
                "Jiffy counters equal the sequential reference map ({mismatched} of {KEYS} keys differ, {} writes)",
                c.sent
            ),
        );
        fin
    }
}
