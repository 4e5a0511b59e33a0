//! `pipeline_contended`: `T` clients sharing one 1-partition topic (Shared
//! subscription), one KV object and one function. Per request:
//! `send_batch(16)` → `receive_entries_into` → per message `invoke`
//! (handler: 9 Jiffy `get` : 1 `put` on 64 hot keys) → `ack_entries`.
//! The only workload where `ShardedMap` / `Snapshot` / `SeqLock` /
//! `KvReadCache` / `StripedCounter` meet real sharing, reads beside writes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use taureau_core::clock::WallClock;
use taureau_core::sync::LockSite;
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_pulsar::{
    Consumer, EntryView, Producer, PulsarCluster, PulsarConfig, SubscriptionMode,
};

use super::{
    derive_dispatch, derive_faas, derive_lock, dispatch_counters, faas_config, faas_counters,
    ledger_probe, lock_counters, topic_lock_site,
};
use crate::gen::{checksum_of, key_of, EventPool, Rng, OP_AT};
use crate::harness::{Finish, Window, Workload, SEGMENTS};
use crate::trace::{span, Layer};

const TOPIC: &str = "bench/contended";
const HOT_KEYS: usize = 64;
const EVENT: usize = 256;
const BATCH: usize = 16;
const POOL: usize = 16_384;
/// Batches (per client) between `trim_consumed` calls: 8 192 messages.
/// Rare enough (0.2 % of requests) that `latency_p99_us` does not sit on
/// the cliff between requests that trim and requests that do not.
const TRIM_EVERY: u64 = 512;

pub struct PipelineContended {
    cluster: PulsarCluster,
    faas: FaasPlatform,
    events: EventPool,
    /// `pulsar.topics` lock site, attached on traced runs only.
    site: Option<Arc<LockSite>>,
    /// Puts the handler performed (the oracle compares with ops delivered).
    puts: Arc<AtomicU64>,
}

pub struct Client {
    producer: Producer,
    consumer: Consumer,
    views: Vec<EntryView>,
    /// Next pool event; each client walks its own stride of the pool.
    cursor: usize,
    batches: u64,
    published: u64,
    published_sum: u64,
    delivered: u64,
    delivered_sum: u64,
    delivered_puts: u64,
    acked: u64,
}

impl PipelineContended {
    /// Invoke the function on every delivered message, then ack the views.
    fn process(&self, c: &mut Client) -> bool {
        let mut ok = true;
        for view in &c.views {
            for m in view.messages() {
                let payload = m.payload();
                c.delivered += 1;
                c.delivered_sum = c.delivered_sum.wrapping_add(checksum_of(&payload));
                c.delivered_puts += u64::from(payload[OP_AT]);
                let _s = span(Layer::FaasInvoke);
                ok &= self.faas.invoke("hot", payload).is_ok();
            }
        }
        let n: u64 = c.views.iter().map(|v| v.len() as u64).sum();
        let _s = span(Layer::PulsarAck);
        if c.consumer.ack_entries(&c.views).is_ok() {
            c.acked += n;
        } else {
            ok = false;
        }
        ok
    }
}

impl Workload for PipelineContended {
    const NAME: &'static str = "pipeline_contended";
    const WARMUP: usize = 4096;
    const EXACT: u64 = 0;
    /// The whole window: two clients on one topic fall in and out of step
    /// by themselves (bursts at 1.5x the usual rate with a third less
    /// latency), so the segments of highest throughput would pick that
    /// regime, not a quiet host.
    const QUIET: usize = SEGMENTS;
    type Client = Client;

    fn setup(seed: u64, threads: usize, traced: bool) -> (Self, Vec<Client>) {
        let events = EventPool::new(
            &mut Rng::stream(seed, Self::NAME, "events"),
            POOL,
            EVENT,
            HOT_KEYS,
            0.99,
            10,
        );
        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        cluster.create_topic(TOPIC, 1).expect("topic");
        cluster.set_dispatch_profiling(traced);
        let site = topic_lock_site(&cluster, traced);
        let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
        let kv = jiffy.create_kv("/bench/hot", 1).expect("kv");
        for k in 0..HOT_KEYS as u32 {
            kv.put(&k.to_le_bytes(), &[0u8; 64]).expect("prefill");
        }
        let faas = FaasPlatform::new(faas_config(), WallClock::shared());
        let puts = Arc::new(AtomicU64::new(0));
        let handler_puts = Arc::clone(&puts);
        faas.register(FunctionSpec::new("hot", "bench", move |ctx| {
            let _h = span(Layer::FaasHandler);
            let key = key_of(&ctx.payload).to_le_bytes();
            if ctx.payload[OP_AT] == 1 {
                let _s = span(Layer::JiffyKvPut);
                kv.put(&key, &ctx.payload[..64])
                    .map_err(|e| e.to_string())?;
                handler_puts.fetch_add(1, Ordering::Relaxed);
            } else {
                let _s = span(Layer::JiffyKvGet);
                kv.get(&key)
                    .map_err(|e| e.to_string())?
                    .ok_or("hot key missing")?;
            }
            Ok(Vec::new())
        }))
        .expect("register");
        let clients = (0..threads)
            .map(|i| Client {
                producer: cluster.producer(TOPIC).expect("producer"),
                consumer: cluster
                    .subscribe(TOPIC, "workers", SubscriptionMode::Shared)
                    .expect("subscribe"),
                views: Vec::new(),
                cursor: i * POOL / threads,
                batches: 0,
                published: 0,
                published_sum: 0,
                delivered: 0,
                delivered_sum: 0,
                delivered_puts: 0,
                acked: 0,
            })
            .collect();
        let w = Self {
            cluster,
            faas,
            events,
            site,
            puts,
        };
        (w, clients)
    }

    fn request(&self, c: &mut Client) -> bool {
        let batch: [&[u8]; BATCH] = std::array::from_fn(|i| self.events.get(c.cursor + i));
        c.cursor += BATCH;
        c.batches += 1;
        let sent = {
            let _s = span(Layer::PulsarPublish);
            c.producer.send_batch(&batch)
        };
        if sent.is_err() {
            return false;
        }
        c.published += BATCH as u64;
        for e in batch {
            c.published_sum = c.published_sum.wrapping_add(checksum_of(e));
        }
        // Shared subscription: the messages received may be another
        // client's, or fewer than 16 if another client got there first.
        let received = {
            let _s = span(Layer::PulsarReceive);
            c.consumer.receive_entries_into(BATCH, &mut c.views)
        };
        let mut ok = received.is_ok() && self.process(c);
        if c.batches.is_multiple_of(TRIM_EVERY) {
            let _s = span(Layer::PulsarTrim);
            ok &= self.cluster.trim_consumed(TOPIC).is_ok();
        }
        ok
    }

    fn raw(&self, _c: &Client) -> Vec<u64> {
        let mut v = faas_counters(&self.faas);
        v.extend(dispatch_counters(&self.cluster));
        v.extend(lock_counters(&self.site));
        v
    }

    fn derive(&self, d: &[u64], w: &Window) -> Vec<(&'static str, f64)> {
        let mut out = derive_faas(&d[..2]);
        out.extend(derive_dispatch(&d[2..8]));
        out.extend(derive_lock(&d[8..11], w));
        out
    }

    fn finish(self, mut clients: Vec<Client>, traced: bool) -> Finish {
        let mut fin = Finish::default();
        // Drain what the closed loops left behind, single-threaded.
        let c0 = &mut clients[0];
        loop {
            fin.attempted += 1;
            match c0.consumer.receive_entries_into(1024, &mut c0.views) {
                Ok(0) => break,
                Ok(_) => fin.failed += u64::from(!self.process(c0)),
                Err(_) => {
                    fin.failed += 1;
                    break;
                }
            }
        }
        let unacked = clients[0]
            .consumer
            .redeliver_unacked()
            .unwrap_or(u64::MAX as usize);
        let sum = |f: fn(&Client) -> u64| clients.iter().map(f).fold(0u64, u64::wrapping_add);
        let (published, delivered, acked) =
            (sum(|c| c.published), sum(|c| c.delivered), sum(|c| c.acked));
        fin.check(
            published == delivered && delivered == acked && unacked == 0,
            format!("published {published} == delivered {delivered} == acked {acked}, {unacked} left unacked"),
        );
        fin.check(
            sum(|c| c.published_sum) == sum(|c| c.delivered_sum),
            "payload checksum of everything delivered equals everything published".into(),
        );
        let puts = self.puts.load(Ordering::Relaxed);
        fin.check(
            puts == sum(|c| c.delivered_puts),
            format!("handler performed {puts} puts, one per put event delivered"),
        );
        if traced {
            let batch: [&[u8]; BATCH] = std::array::from_fn(|i| self.events.get(i));
            fin.layer = ledger_probe(
                &self.cluster,
                TOPIC,
                BATCH as u64,
                (BATCH * EVENT) as u64,
                || {
                    clients[0]
                        .producer
                        .send_batch(&batch)
                        .expect("probe publish");
                },
            );
        }
        fin
    }
}
