//! Pulsar Functions — serverless compute over topics (§4.3.1).
//!
//! "Pulsar functions allow users to deploy and manage processing of
//! serverless functions that consume messages from and publish messages to
//! Pulsar topics." A registered function subscribes to its input topics,
//! runs user code per message, and optionally publishes a result to its
//! output topic — the interface mirrors the paper's Figure 3 listing
//! (`process(String input, Context context)`).
//!
//! §4.3.1 also notes that "many data analytics algorithms are stateful in
//! nature" and that ephemeral-state systems like Jiffy are the enabler:
//! accordingly, each function's [`Context`] state is backed by a **Jiffy
//! KV object** under `/pulsar-functions/<name>/state` — Pulsar and Jiffy
//! "in tandem", exactly as §4 promises.

use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::Mutex;

use taureau_jiffy::{Jiffy, KvHandle};

use crate::broker::{Consumer, Producer, PulsarCluster, SubscriptionMode};
use crate::error::{PulsarError, Result};
use crate::message::{EntryView, Message, MessageId};

/// Messages one dispatch scan may pull from an input — and so the most a
/// function holds delivered-but-unacked per input while its body runs.
const SCAN_BUDGET: usize = 256;

/// User function body: called once per input message; returning
/// `Some(bytes)` publishes them to the configured output topic.
pub type FnBody = Box<dyn FnMut(&Message, &mut Context<'_>) -> Option<Vec<u8>> + Send>;

/// Registration config for a function.
#[derive(Debug, Clone)]
pub struct FunctionConfig {
    /// Unique function name.
    pub name: String,
    /// Topics the function consumes (each via a shared subscription named
    /// `fn-<name>`).
    pub inputs: Vec<String>,
    /// Topic results are published to, if any.
    pub output: Option<String>,
}

/// Per-invocation context handed to the function body — the `Context`
/// parameter of the paper's Figure 3.
pub struct Context<'a> {
    state: &'a KvHandle,
    producer: Option<&'a Producer>,
    cluster: &'a PulsarCluster,
    /// Messages the body chose to publish to explicit topics.
    extra_published: usize,
}

impl Context<'_> {
    /// Read a state value (Jiffy-backed; survives across invocations and
    /// across function instances). The returned [`Bytes`] is a refcounted
    /// view with snapshot semantics — no copy.
    pub fn state_get(&self, key: &[u8]) -> Option<Bytes> {
        self.state.get(key).ok().flatten()
    }

    /// Write a state value.
    pub fn state_put(&self, key: &[u8], value: &[u8]) {
        // Jiffy auto-scales the backing object; errors here mean the pool
        // is exhausted, which the runtime surfaces as a panic in tests.
        self.state
            .put(key, value)
            .expect("function state write failed");
    }

    /// Atomically add `delta` to a counter stored in state; returns the new
    /// value. (Mirrors Pulsar's `context.incrCounter`.) One Jiffy
    /// read-modify-write under the state object's lock, so instances of a
    /// function sharing one state object never lose an update. A missing
    /// or non-8-byte value counts as 0; the sum wraps.
    pub fn increment(&self, key: &[u8], delta: i64) -> i64 {
        self.state
            .add_i64(key, delta)
            .expect("function state write failed")
    }

    /// Publish to an arbitrary topic (beyond the configured output).
    pub fn publish_to(&mut self, topic: &str, payload: &[u8]) -> Result<()> {
        let p = self.cluster.producer(topic)?;
        p.send(payload)?;
        self.extra_published += 1;
        Ok(())
    }
}

struct FunctionInstance {
    consumers: Vec<Consumer>,
    producer: Option<Producer>,
    state: KvHandle,
    body: FnBody,
    processed: u64,
    /// The current scan's entry views; reused so a steady-state loop
    /// allocates nothing for dispatch.
    scan: Vec<EntryView>,
}

/// The function runtime: registers functions and pumps messages through
/// them.
///
/// Pumping is explicit ([`FunctionRuntime::run_available`] /
/// [`FunctionRuntime::run_round`]) so tests and benches control scheduling
/// deterministically — the serverless platform crate layers demand-driven
/// execution on top.
pub struct FunctionRuntime {
    cluster: PulsarCluster,
    jiffy: Jiffy,
    functions: Mutex<HashMap<String, FunctionInstance>>,
}

impl FunctionRuntime {
    /// Runtime over a Pulsar cluster, with function state in `jiffy`.
    pub fn new(cluster: PulsarCluster, jiffy: Jiffy) -> Self {
        Self {
            cluster,
            jiffy,
            functions: Mutex::new(HashMap::new()),
        }
    }

    /// Register a function. Subscribes to its inputs and creates its
    /// Jiffy-backed state object.
    pub fn register(&self, cfg: FunctionConfig, body: FnBody) -> Result<()> {
        let mut fns = self.functions.lock();
        if fns.contains_key(&cfg.name) {
            return Err(PulsarError::FunctionExists(cfg.name.clone()));
        }
        let sub_name = format!("fn-{}", cfg.name);
        let mut consumers = Vec::with_capacity(cfg.inputs.len());
        for input in &cfg.inputs {
            consumers.push(
                self.cluster
                    .subscribe(input, &sub_name, SubscriptionMode::Shared)?,
            );
        }
        let producer = match &cfg.output {
            Some(t) => Some(self.cluster.producer(t)?),
            None => None,
        };
        let state_path = format!("/pulsar-functions/{}/state", cfg.name);
        let state = self
            .jiffy
            .create_kv(state_path.as_str(), 1)
            .or_else(|_| self.jiffy.open_kv(state_path.as_str()))
            .expect("function state object");
        fns.insert(
            cfg.name,
            FunctionInstance {
                consumers,
                producer,
                state,
                body,
                processed: 0,
                scan: Vec::new(),
            },
        );
        Ok(())
    }

    /// Deregister a function, dropping its subscriptions (its Jiffy state
    /// remains until its lease lapses, per the ephemeral-state model).
    pub fn deregister(&self, name: &str) -> Result<()> {
        self.functions
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| PulsarError::FunctionNotFound(name.to_string()))
    }

    /// Total messages processed by a function.
    pub fn processed(&self, name: &str) -> Result<u64> {
        self.functions
            .lock()
            .get(name)
            .map(|f| f.processed)
            .ok_or_else(|| PulsarError::FunctionNotFound(name.to_string()))
    }

    /// Run one function until its inputs are drained; returns messages
    /// processed.
    ///
    /// Inputs are visited round-robin, one scan of up to [`SCAN_BUDGET`]
    /// messages at a time: the scan arrives as whole-entry views (one
    /// broker lock, framing parsed once per entry), the body runs over
    /// every message in it, and one `ack_entries` commits the scan. If an
    /// output `send` fails mid-scan, exactly the messages already
    /// processed are acked and the error is returned; the rest of the
    /// scan stays pending and comes back after
    /// [`Consumer::redeliver_unacked`] (at-least-once).
    pub fn run_available(&self, name: &str) -> Result<usize> {
        let mut fns = self.functions.lock();
        let FunctionInstance {
            consumers,
            producer,
            state,
            body,
            processed,
            scan,
        } = fns
            .get_mut(name)
            .ok_or_else(|| PulsarError::FunctionNotFound(name.to_string()))?;
        let mut ctx = Context {
            state,
            producer: producer.as_ref(),
            cluster: &self.cluster,
            extra_published: 0,
        };
        let mut n = 0;
        loop {
            let mut progressed = false;
            for consumer in consumers.iter_mut() {
                if consumer.receive_entries_into(SCAN_BUDGET, scan)? == 0 {
                    continue;
                }
                progressed = true;
                let mut done = 0usize;
                let mut failed = None;
                'scan: for view in scan.iter() {
                    for mv in view.messages() {
                        let out = body(&mv.to_message(), &mut ctx);
                        if let (Some(bytes), Some(prod)) = (out, ctx.producer) {
                            if let Err(e) = prod.send(&bytes) {
                                failed = Some(e);
                                break 'scan;
                            }
                        }
                        done += 1;
                    }
                }
                let acked = match failed {
                    None => consumer.ack_entries(scan),
                    Some(_) => {
                        let ids: Vec<MessageId> =
                            scan.iter().flat_map(EntryView::ids).take(done).collect();
                        consumer.ack_batch(&ids)
                    }
                };
                // Drop the entry-buffer refcounts; the capacity stays.
                scan.clear();
                acked?;
                *processed += done as u64;
                n += done;
                if let Some(e) = failed {
                    return Err(e);
                }
            }
            if !progressed {
                break;
            }
        }
        Ok(n)
    }

    /// Run every registered function once over its available input;
    /// returns the total processed. Call in a loop (`run_to_quiescence`)
    /// to flush multi-stage pipelines.
    pub fn run_round(&self) -> Result<usize> {
        let names: Vec<String> = self.functions.lock().keys().cloned().collect();
        let mut total = 0;
        for name in names {
            total += self.run_available(&name)?;
        }
        Ok(total)
    }

    /// Pump rounds until no function makes progress (a fix-point — the
    /// whole topology is drained).
    pub fn run_to_quiescence(&self) -> Result<usize> {
        let mut total = 0;
        loop {
            let n = self.run_round()?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }

    /// Access the Jiffy deployment backing function state.
    pub fn jiffy(&self) -> &Jiffy {
        &self.jiffy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::PulsarConfig;
    use taureau_core::clock::WallClock;
    use taureau_jiffy::JiffyConfig;

    fn setup() -> (PulsarCluster, FunctionRuntime) {
        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
        let rt = FunctionRuntime::new(cluster.clone(), jiffy);
        (cluster, rt)
    }

    #[test]
    fn identity_function_forwards_messages() {
        let (cluster, rt) = setup();
        cluster.create_topic("in", 1).unwrap();
        cluster.create_topic("out", 1).unwrap();
        rt.register(
            FunctionConfig {
                name: "identity".into(),
                inputs: vec!["in".into()],
                output: Some("out".into()),
            },
            Box::new(|msg, _ctx| Some(msg.payload.to_vec())),
        )
        .unwrap();
        let p = cluster.producer("in").unwrap();
        for i in 0..10u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(rt.run_available("identity").unwrap(), 10);
        let mut out = cluster
            .subscribe("out", "check", SubscriptionMode::Exclusive)
            .unwrap();
        assert_eq!(out.drain().unwrap().len(), 10);
        assert_eq!(rt.processed("identity").unwrap(), 10);
    }

    #[test]
    fn filter_function_drops_messages() {
        let (cluster, rt) = setup();
        cluster.create_topic("in", 1).unwrap();
        cluster.create_topic("out", 1).unwrap();
        rt.register(
            FunctionConfig {
                name: "evens".into(),
                inputs: vec!["in".into()],
                output: Some("out".into()),
            },
            Box::new(|msg, _| {
                let v = u64::from_le_bytes(msg.payload[..].try_into().unwrap());
                (v % 2 == 0).then(|| msg.payload.to_vec())
            }),
        )
        .unwrap();
        let p = cluster.producer("in").unwrap();
        for i in 0..10u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        rt.run_available("evens").unwrap();
        let mut out = cluster
            .subscribe("out", "check", SubscriptionMode::Exclusive)
            .unwrap();
        assert_eq!(out.drain().unwrap().len(), 5);
    }

    #[test]
    fn stateful_counter_uses_jiffy_state() {
        let (cluster, rt) = setup();
        cluster.create_topic("words", 1).unwrap();
        rt.register(
            FunctionConfig {
                name: "wordcount".into(),
                inputs: vec!["words".into()],
                output: None,
            },
            Box::new(|msg, ctx| {
                ctx.increment(&msg.payload, 1);
                None
            }),
        )
        .unwrap();
        let p = cluster.producer("words").unwrap();
        for w in ["a", "b", "a", "a", "c", "b"] {
            p.send(w.as_bytes()).unwrap();
        }
        rt.run_available("wordcount").unwrap();
        // State survives in Jiffy, visible from outside the function.
        let kv = rt
            .jiffy()
            .open_kv("/pulsar-functions/wordcount/state")
            .unwrap();
        let count = |k: &[u8]| {
            kv.get(k)
                .unwrap()
                .map(|v| i64::from_le_bytes(v[..].try_into().unwrap()))
                .unwrap_or(0)
        };
        assert_eq!(count(b"a"), 3);
        assert_eq!(count(b"b"), 2);
        assert_eq!(count(b"c"), 1);
    }

    #[test]
    fn two_stage_pipeline_reaches_quiescence() {
        let (cluster, rt) = setup();
        cluster.create_topic("raw", 1).unwrap();
        cluster.create_topic("parsed", 1).unwrap();
        cluster.create_topic("final", 1).unwrap();
        rt.register(
            FunctionConfig {
                name: "stage1".into(),
                inputs: vec!["raw".into()],
                output: Some("parsed".into()),
            },
            Box::new(|msg, _| Some(msg.payload.iter().map(|b| b + 1).collect())),
        )
        .unwrap();
        rt.register(
            FunctionConfig {
                name: "stage2".into(),
                inputs: vec!["parsed".into()],
                output: Some("final".into()),
            },
            Box::new(|msg, _| Some(msg.payload.iter().map(|b| b * 2).collect())),
        )
        .unwrap();
        let p = cluster.producer("raw").unwrap();
        p.send(&[1, 2, 3]).unwrap();
        let total = rt.run_to_quiescence().unwrap();
        assert_eq!(total, 2, "each stage processed the message once");
        let mut out = cluster
            .subscribe("final", "check", SubscriptionMode::Exclusive)
            .unwrap();
        let msgs = out.drain().unwrap();
        assert_eq!(&msgs[0].payload[..], &[4, 6, 8]);
    }

    #[test]
    fn countmin_as_pulsar_function_figure3() {
        // The paper's Figure 3, in Rust: a Count-Min sketch maintained
        // inside a Pulsar function, fed from a topic.
        use taureau_sketches::CountMinSketch;
        let (cluster, rt) = setup();
        cluster.create_topic("events", 1).unwrap();
        cluster.create_topic("counts", 1).unwrap();
        // `CountMinSketch sketch = new CountMinSketch(20, 20, 128);`
        let mut sketch = CountMinSketch::new(8, 128, 20);
        rt.register(
            FunctionConfig {
                name: "count-min".into(),
                inputs: vec!["events".into()],
                output: Some("counts".into()),
            },
            Box::new(move |msg, _ctx| {
                // `sketch.add(input, 1);`
                sketch.add(&msg.payload, 1);
                // `long count = sketch.estimateCount(input);`
                let count = sketch.estimate(&msg.payload);
                // "React to the updated count" — publish it downstream.
                Some(count.to_le_bytes().to_vec())
            }),
        )
        .unwrap();
        let p = cluster.producer("events").unwrap();
        for _ in 0..7 {
            p.send(b"popular").unwrap();
        }
        p.send(b"rare").unwrap();
        rt.run_available("count-min").unwrap();
        let mut out = cluster
            .subscribe("counts", "check", SubscriptionMode::Exclusive)
            .unwrap();
        let counts: Vec<u64> = out
            .drain()
            .unwrap()
            .iter()
            .map(|m| u64::from_le_bytes(m.payload[..].try_into().unwrap()))
            .collect();
        // Seven estimates for "popular" rise 1..=7; "rare" estimates 1.
        assert_eq!(counts, vec![1, 2, 3, 4, 5, 6, 7, 1]);
    }

    /// Payload sequence numbers the body has seen, shared with the test.
    type Seen = std::sync::Arc<Mutex<Vec<u64>>>;

    fn seq(msg: &Message) -> u64 {
        u64::from_le_bytes(msg.payload[..].try_into().unwrap())
    }

    fn send_range(p: &Producer, range: std::ops::Range<u64>) {
        let batch: Vec<[u8; 8]> = range.map(u64::to_le_bytes).collect();
        p.send_batch(&batch).unwrap();
    }

    /// Nothing delivered-but-unacked and nothing undelivered is left on
    /// the function's subscription to `topic`.
    fn assert_fully_committed(cluster: &PulsarCluster, topic: &str, function: &str) {
        let mut probe = cluster
            .subscribe(topic, &format!("fn-{function}"), SubscriptionMode::Shared)
            .unwrap();
        assert_eq!(probe.redeliver_unacked().unwrap(), 0);
        assert!(probe.receive().unwrap().is_none());
    }

    #[test]
    fn output_failure_mid_scan_acks_exactly_the_processed_prefix() {
        let (cluster, rt) = setup();
        cluster.create_topic("in", 1).unwrap();
        cluster.create_topic("capped/out", 1).unwrap();
        // The output tenant may retain five entries: the sixth output
        // `send` of the scan is refused.
        cluster.set_tenant_quota("capped", 5);
        let seen = Seen::default();
        let body_seen = seen.clone();
        rt.register(
            FunctionConfig {
                name: "copy".into(),
                inputs: vec!["in".into()],
                output: Some("capped/out".into()),
            },
            Box::new(move |msg, _| {
                body_seen.lock().push(seq(msg));
                Some(msg.payload.to_vec())
            }),
        )
        .unwrap();
        let p = cluster.producer("in").unwrap();
        send_range(&p, 0..8);
        send_range(&p, 8..16);
        assert!(matches!(
            rt.run_available("copy"),
            Err(PulsarError::TenantQuotaExceeded { .. })
        ));
        assert_eq!(rt.processed("copy").unwrap(), 5);
        assert_eq!(*seen.lock(), (0..6).collect::<Vec<_>>());
        // The other eleven are pending, not lost and not acked: with the
        // quota lifted they come back exactly once, the refused one first.
        cluster.set_tenant_quota("capped", u64::MAX);
        {
            let probe = cluster
                .subscribe("in", "fn-copy", SubscriptionMode::Shared)
                .unwrap();
            assert_eq!(probe.redeliver_unacked().unwrap(), 11);
        }
        assert_eq!(rt.run_available("copy").unwrap(), 11);
        assert_eq!(rt.processed("copy").unwrap(), 16);
        assert_eq!(seen.lock()[6..], (5..16).collect::<Vec<_>>());
        let mut out = cluster
            .subscribe("capped/out", "check", SubscriptionMode::Exclusive)
            .unwrap();
        let copied: Vec<u64> = out.drain().unwrap().iter().map(seq).collect();
        assert_eq!(copied, (0..16).collect::<Vec<_>>());
        assert_fully_committed(&cluster, "in", "copy");
    }

    #[test]
    fn scan_budget_may_cut_an_entry_mid_way() {
        let (cluster, rt) = setup();
        cluster.create_topic("in", 1).unwrap();
        let seen = Seen::default();
        let body_seen = seen.clone();
        rt.register(
            FunctionConfig {
                name: "count".into(),
                inputs: vec!["in".into()],
                output: None,
            },
            Box::new(move |msg, ctx| {
                body_seen.lock().push(seq(msg));
                ctx.increment(b"n", 1);
                None
            }),
        )
        .unwrap();
        // The second entry straddles the first scan's budget: ten of its
        // messages are acked with scan one, the other ten with scan two.
        let cut = SCAN_BUDGET as u64 - 10;
        let p = cluster.producer("in").unwrap();
        send_range(&p, 0..cut);
        send_range(&p, cut..cut + 20);
        assert_eq!(rt.run_available("count").unwrap() as u64, cut + 20);
        assert_eq!(*seen.lock(), (0..cut + 20).collect::<Vec<_>>());
        assert_eq!(rt.processed("count").unwrap(), cut + 20);
        assert_fully_committed(&cluster, "in", "count");
    }

    #[test]
    fn traced_broker_links_the_function_hop_to_the_publish_span() {
        use taureau_core::trace::Tracer;
        let (cluster, rt) = setup();
        let tracer = Tracer::new(WallClock::shared());
        cluster.set_tracer(tracer.clone());
        cluster.create_topic("in", 1).unwrap();
        let ctxs = std::sync::Arc::new(Mutex::new(Vec::new()));
        let body_ctxs = ctxs.clone();
        rt.register(
            FunctionConfig {
                name: "hop".into(),
                inputs: vec!["in".into()],
                output: None,
            },
            Box::new(move |msg, _| {
                body_ctxs
                    .lock()
                    .push(msg.ctx.expect("traced broker stamps ctx"));
                None
            }),
        )
        .unwrap();
        let p = cluster.producer("in").unwrap();
        send_range(&p, 0..4);
        send_range(&p, 4..6);
        assert_eq!(rt.run_available("hop").unwrap(), 6);
        let spans = tracer.spans();
        let dispatches: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "pulsar.dispatch_entry")
            .collect();
        assert_eq!(dispatches.len(), 2, "one dispatch span per entry");
        assert!(spans.iter().all(|s| s.name != "pulsar.dispatch_msg"));
        // Each message carries its entry's dispatch span, itself a child
        // of that entry's publish span.
        let ctxs = ctxs.lock();
        for (ctx, entry) in ctxs.iter().zip([0, 0, 0, 0, 1, 1]) {
            assert_eq!(ctx.span_id, dispatches[entry].span_id);
            let publish = spans
                .iter()
                .find(|s| Some(s.span_id) == dispatches[entry].parent)
                .expect("dispatch span has a recorded parent");
            assert_eq!(publish.name, "pulsar.publish_batch");
            assert_eq!(publish.trace_id, ctx.trace_id);
        }
    }

    #[test]
    fn increments_from_two_runtimes_never_lose_an_update() {
        const N: u64 = 20_000;
        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
        cluster.create_topic("a", 1).unwrap();
        cluster.create_topic("b", 1).unwrap();
        // Two instances of one function: same name, so one state object.
        let runtimes: Vec<FunctionRuntime> = ["a", "b"]
            .iter()
            .map(|input| {
                let rt = FunctionRuntime::new(cluster.clone(), jiffy.clone());
                rt.register(
                    FunctionConfig {
                        name: "tally".into(),
                        inputs: vec![input.to_string()],
                        output: None,
                    },
                    Box::new(|_, ctx| {
                        ctx.increment(b"n", 1);
                        None
                    }),
                )
                .unwrap();
                let p = cluster.producer(input).unwrap();
                for at in (0..N).step_by(64) {
                    send_range(&p, at..(at + 64).min(N));
                }
                rt
            })
            .collect();
        // Both start together, so the 2 N read-modify-writes overlap — and
        // a reader keeps taking the views `state_get` hands out, so some
        // increments find the counter's buffer shared and some find it
        // theirs alone. A view must read the same count for as long as it
        // is held, and successive views never go backwards.
        let start = std::sync::Barrier::new(3);
        let running = std::sync::atomic::AtomicUsize::new(2);
        let state = jiffy.open_kv("/pulsar-functions/tally/state").unwrap();
        let count = |v: &Bytes| i64::from_le_bytes(v[..].try_into().unwrap());
        std::thread::scope(|s| {
            for rt in &runtimes {
                s.spawn(|| {
                    start.wait();
                    assert_eq!(rt.run_available("tally").unwrap() as u64, N);
                    running.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            s.spawn(|| {
                start.wait();
                let mut last = 0;
                while running.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                    let Some(view) = state.get(b"n").unwrap() else {
                        continue;
                    };
                    let at_read = count(&view);
                    assert!(at_read >= last, "{at_read} after {last}");
                    std::thread::yield_now();
                    assert_eq!(count(&view), at_read, "a held view changed");
                    last = at_read;
                }
            });
        });
        let n = jiffy
            .open_kv("/pulsar-functions/tally/state")
            .unwrap()
            .get(b"n")
            .unwrap()
            .map(|v| i64::from_le_bytes(v[..].try_into().unwrap()));
        assert_eq!(n, Some(2 * N as i64));
    }

    #[test]
    fn increment_wraps_and_counts_an_odd_width_value_as_zero() {
        let (cluster, rt) = setup();
        cluster.create_topic("in", 1).unwrap();
        let got = std::sync::Arc::new(Mutex::new(Vec::new()));
        let body_got = got.clone();
        rt.register(
            FunctionConfig {
                name: "edge".into(),
                inputs: vec!["in".into()],
                output: None,
            },
            Box::new(move |_, ctx| {
                let mut got = body_got.lock();
                ctx.state_put(b"n", &i64::MAX.to_le_bytes());
                got.push(ctx.increment(b"n", 1));
                got.push(ctx.increment(b"n", -1));
                for odd in [&[1u8; 7][..], &[1u8; 9]] {
                    ctx.state_put(b"n", odd);
                    got.push(ctx.increment(b"n", 5));
                }
                None
            }),
        )
        .unwrap();
        cluster.producer("in").unwrap().send(b"go").unwrap();
        assert_eq!(rt.run_available("edge").unwrap(), 1);
        assert_eq!(*got.lock(), [i64::MIN, i64::MAX, 5, 5]);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (cluster, rt) = setup();
        cluster.create_topic("t", 1).unwrap();
        let cfg = FunctionConfig {
            name: "f".into(),
            inputs: vec!["t".into()],
            output: None,
        };
        rt.register(cfg.clone(), Box::new(|_, _| None)).unwrap();
        assert!(matches!(
            rt.register(cfg, Box::new(|_, _| None)),
            Err(PulsarError::FunctionExists(_))
        ));
        rt.deregister("f").unwrap();
        assert!(matches!(
            rt.deregister("f"),
            Err(PulsarError::FunctionNotFound(_))
        ));
    }

    #[test]
    fn publish_to_arbitrary_topic_from_context() {
        let (cluster, rt) = setup();
        cluster.create_topic("in", 1).unwrap();
        cluster.create_topic("alerts", 1).unwrap();
        rt.register(
            FunctionConfig {
                name: "alerter".into(),
                inputs: vec!["in".into()],
                output: None,
            },
            Box::new(|msg, ctx| {
                if msg.payload.len() > 3 {
                    ctx.publish_to("alerts", b"big message!").unwrap();
                }
                None
            }),
        )
        .unwrap();
        let p = cluster.producer("in").unwrap();
        p.send(b"ok").unwrap();
        p.send(b"way too big").unwrap();
        rt.run_available("alerter").unwrap();
        let mut alerts = cluster
            .subscribe("alerts", "check", SubscriptionMode::Exclusive)
            .unwrap();
        assert_eq!(alerts.drain().unwrap().len(), 1);
    }
}
