//! `stream_sketch`: the paper's Fig. 3 on the Pulsar-Functions path. One
//! client: `send_batch` of 64 × 128 B events → `FunctionRuntime::
//! run_available` running `CountMinSketch::add` + `ctx.increment`. Publish
//! is amortized 64×, so the wall sits in the runtime's per-message
//! `receive`/`ack` loop and the function-state KV; FaaS and DAG do nothing.

use std::sync::{Arc, Mutex};

use taureau_core::clock::WallClock;
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_pulsar::{FunctionConfig, FunctionRuntime, Producer, PulsarCluster, PulsarConfig};
use taureau_sketches::CountMinSketch;

use super::ledger_probe;
use crate::gen::{key_of, EventPool, Rng};
use crate::harness::{Finish, Workload};
use crate::trace::{span, Layer};

const TOPIC: &str = "bench/events";
const FUNCTION: &str = "count-min";
const KEYS: usize = 1024;
const EVENT: usize = 128;
const BATCH: usize = 64;
const POOL: usize = 16_384;
/// Batches between `trim_consumed` calls. At 128 (8 192 messages) 0.8 % of
/// requests would trim and `latency_p99_us` would sit on the cliff between
/// the two kinds of request; at 256 it measures the ordinary tail.
const TRIM_EVERY: u64 = 256;
const SEEN: &[u8] = b"events-seen";

pub struct StreamSketch {
    cluster: PulsarCluster,
    runtime: FunctionRuntime,
    events: EventPool,
    /// The function's sketch; shared only so the oracle can query it.
    sketch: Arc<Mutex<CountMinSketch>>,
}

pub struct Client {
    producer: Producer,
    batches: u64,
    /// True per-key counts: the reference the estimates must dominate.
    truth: Vec<u64>,
}

impl Workload for StreamSketch {
    const NAME: &'static str = "stream_sketch";
    const WARMUP: usize = 2048;
    const EXACT: u64 = 2 * TRIM_EVERY;
    type Client = Client;

    fn setup(seed: u64, _threads: usize, _traced: bool) -> (Self, Vec<Client>) {
        let events = EventPool::new(
            &mut Rng::stream(seed, Self::NAME, "events"),
            POOL,
            EVENT,
            KEYS,
            1.1,
            0,
        );
        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        cluster.create_topic(TOPIC, 1).expect("topic");
        let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
        let runtime = FunctionRuntime::new(cluster.clone(), jiffy);
        let sketch = Arc::new(Mutex::new(CountMinSketch::with_error_bounds(
            0.001, 0.01, seed,
        )));
        let fn_sketch = Arc::clone(&sketch);
        runtime
            .register(
                FunctionConfig {
                    name: FUNCTION.into(),
                    inputs: vec![TOPIC.into()],
                    output: None,
                },
                Box::new(move |msg, ctx| {
                    let _h = span(Layer::FaasHandler);
                    {
                        let _s = span(Layer::CountminAdd);
                        let mut sketch = fn_sketch.lock().expect("sketch");
                        sketch.add(&msg.payload[..4], 1);
                    }
                    let _s = span(Layer::JiffyFnState);
                    ctx.increment(SEEN, 1);
                    None
                }),
            )
            .expect("register");
        let client = Client {
            producer: cluster.producer(TOPIC).expect("producer"),
            batches: 0,
            truth: vec![0; KEYS],
        };
        let w = Self {
            cluster,
            runtime,
            events,
            sketch,
        };
        (w, vec![client])
    }

    fn request(&self, c: &mut Client) -> bool {
        let at = c.batches as usize * BATCH;
        let batch: [&[u8]; BATCH] = std::array::from_fn(|i| self.events.get(at + i));
        c.batches += 1;
        for e in batch {
            c.truth[key_of(e) as usize] += 1;
        }
        let sent = {
            let _s = span(Layer::PulsarPublish);
            c.producer.send_batch(&batch)
        };
        let processed = {
            let _s = span(Layer::PulsarFunctions);
            self.runtime.run_available(FUNCTION)
        };
        if c.batches.is_multiple_of(TRIM_EVERY) {
            let _s = span(Layer::PulsarTrim);
            self.cluster.trim_consumed(TOPIC).expect("trim");
        }
        sent.is_ok() && processed.is_ok_and(|n| n == BATCH)
    }

    fn finish(self, clients: Vec<Client>, traced: bool) -> Finish {
        let mut fin = Finish::default();
        let c = &clients[0];
        let sent = c.batches * BATCH as u64;
        let state = self
            .runtime
            .jiffy()
            .open_kv(format!("/pulsar-functions/{FUNCTION}/state").as_str())
            .expect("function state");
        let seen = state
            .get(SEEN)
            .ok()
            .flatten()
            .and_then(|v| v[..].try_into().ok().map(i64::from_le_bytes));
        fin.check(
            seen == Some(sent as i64),
            format!("events-seen {seen:?} equals {sent} messages sent"),
        );
        let sketch = self.sketch.lock().expect("sketch");
        let under = (0..KEYS as u32)
            .filter(|&k| sketch.estimate(&k.to_le_bytes()) < c.truth[k as usize])
            .count();
        fin.check(
            under == 0 && sketch.total() == sent,
            format!("every Count-Min estimate >= the true count ({under} of {KEYS} keys under)"),
        );
        if traced {
            let batch: [&[u8]; BATCH] = std::array::from_fn(|i| self.events.get(i));
            fin.layer = ledger_probe(
                &self.cluster,
                TOPIC,
                BATCH as u64,
                (BATCH * EVENT) as u64,
                || {
                    c.producer.send_batch(&batch).expect("probe publish");
                },
            );
        }
        fin
    }
}
