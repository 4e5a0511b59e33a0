//! `dag_spill`: one `DagExecutor::run` of `prep → 8 × map → gather` per
//! request, 64 KiB intermediates (above the 32 KiB inline limit, so 9 Jiffy
//! spills per run), checkpoints on, completion events to Pulsar,
//! `max_parallelism = T`, one-pass handlers. Carver et al.'s breakdown:
//! scheduling + thread fan-out vs. invocation vs. data movement through
//! Jiffy files and `frame::pack`. One client; `T` executor workers, all
//! on one CPU: the executor spawns its workers per frontier and waits for
//! them, so client and workers take turns (`T = 2` was never faster than
//! `T = 1` on two hardware threads), and left to the kernel each spawn
//! either stays beside its parent or wakes the other vCPU through the
//! hypervisor - 1.4 k, 1.9 k or 2.3 k runs/s depending on the run, 0.5 k
//! when the host was busy. Pinned, ten runs agree to a few per cent.

use taureau_core::clock::WallClock;
use taureau_dag::{Dag, DagBuilder, DagExecutor, ExecutorConfig};
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_orchestration::frame;
use taureau_pulsar::{Consumer, EntryView, PulsarCluster, PulsarConfig, SubscriptionMode};

use super::faas_config;
use crate::affinity::OneCpu;
use crate::gen::Rng;
use crate::harness::{Finish, Window, Workload};
use crate::trace::{span, span_adopting, Layer};

const TOPIC: &str = "bench/dag-events";
const MAPS: usize = 8;
const INPUT: usize = 1024;
const INTERMEDIATE: usize = 64 * 1024;
const INPUTS: usize = 16;
/// Runs between draining + trimming the completion-event topic (5 120
/// events): 0.2 % of requests, so `latency_p99_us` is the executor's own
/// tail and not the drain's.
const TRIM_EVERY: u64 = 512;

// The three one-pass node bodies. The oracle's reference model calls the
// same functions sequentially, without the executor.
fn prep(input: &[u8]) -> Vec<u8> {
    (0..INTERMEDIATE)
        .map(|i| input[i % input.len()] ^ (i as u8))
        .collect()
}

fn map(k: u8, input: &[u8]) -> Vec<u8> {
    input
        .iter()
        .map(|b| b.wrapping_mul(31).wrapping_add(k))
        .collect()
}

fn gather<T: AsRef<[u8]>>(parts: &[T]) -> Vec<u8> {
    let mut h = parts.len() as u64;
    for (k, part) in parts.iter().enumerate() {
        let words = part.as_ref().chunks_exact(8);
        let sum = words.fold(0u64, |acc, w| {
            acc.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")))
        });
        h = h.wrapping_add(sum.wrapping_mul(2 * k as u64 + 3));
    }
    h.to_le_bytes().to_vec()
}

fn reference(input: &[u8]) -> Vec<u8> {
    let prepped = prep(input);
    let mapped: Vec<Vec<u8>> = (0..MAPS as u8).map(|k| map(k, &prepped)).collect();
    gather(&mapped)
}

pub struct DagSpill {
    cluster: PulsarCluster,
    jiffy: Jiffy,
    executor: DagExecutor,
    dag: Dag,
    inputs: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    /// Held until the oracle is done: set-up, window and drain all run on
    /// the one CPU.
    cpu: OneCpu,
}

pub struct Client {
    events: Consumer,
    views: Vec<EntryView>,
    runs: u64,
    events_seen: u64,
    /// Σ (makespan − critical-path node exec), nanoseconds.
    sched_ns: u64,
    leaked_namespaces: u64,
}

impl Workload for DagSpill {
    const NAME: &'static str = "dag_spill";
    const WARMUP: usize = 384;
    const EXACT: u64 = 2 * TRIM_EVERY;
    type Client = Client;

    fn setup(seed: u64, threads: usize, _traced: bool) -> (Self, Vec<Client>) {
        let cpu = OneCpu::pin();
        let mut rng = Rng::stream(seed, Self::NAME, "inputs");
        let inputs: Vec<Vec<u8>> = (0..INPUTS)
            .map(|_| {
                let mut v = vec![0u8; INPUT];
                rng.fill(&mut v);
                v
            })
            .collect();
        let expected = inputs.iter().map(|i| reference(i)).collect();

        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        cluster.create_topic(TOPIC, 1).expect("topic");
        let jiffy = Jiffy::new(JiffyConfig::default(), WallClock::shared());
        let faas = FaasPlatform::new(faas_config(), WallClock::shared());
        faas.register(FunctionSpec::new("prep", "bench", |ctx| {
            let _h = span(Layer::FaasHandler);
            Ok(prep(&ctx.payload))
        }))
        .expect("register");
        let mut builder = DagBuilder::new().node("prep", "prep", &[]);
        let names: Vec<String> = (0..MAPS).map(|k| format!("map{k}")).collect();
        for (k, name) in names.iter().enumerate() {
            faas.register(FunctionSpec::new(name.as_str(), "bench", move |ctx| {
                let _h = span(Layer::FaasHandler);
                Ok(map(k as u8, &ctx.payload))
            }))
            .expect("register");
            builder = builder.node(name.as_str(), name.as_str(), &["prep"]);
        }
        faas.register(FunctionSpec::new("gather", "bench", |ctx| {
            let _h = span(Layer::FaasHandler);
            let parts = frame::unpack_bytes(&ctx.payload).ok_or("bad frame")?;
            Ok(gather(&parts))
        }))
        .expect("register");
        let deps: Vec<&str> = names.iter().map(String::as_str).collect();
        let dag = builder
            .node("gather", "gather", &deps)
            .build()
            .expect("dag");
        let executor = DagExecutor::new(&faas)
            .with_state(&jiffy)
            .with_events(cluster.producer(TOPIC).expect("producer"))
            .with_config(ExecutorConfig {
                max_parallelism: threads,
                ..ExecutorConfig::default()
            });
        let client = Client {
            events: cluster
                .subscribe(TOPIC, "audit", SubscriptionMode::Exclusive)
                .expect("subscribe"),
            views: Vec::new(),
            runs: 0,
            events_seen: 0,
            sched_ns: 0,
            leaked_namespaces: 0,
        };
        let w = Self {
            cluster,
            jiffy,
            executor,
            dag,
            inputs,
            expected,
            cpu,
        };
        (w, vec![client])
    }

    fn request(&self, c: &mut Client) -> bool {
        let which = c.runs as usize % INPUTS;
        let job = format!("b{}", c.runs);
        c.runs += 1;
        let report = {
            let _s = span_adopting(Layer::DagRun);
            self.executor.run(&self.dag, &job, &self.inputs[which])
        };
        let mut ok = false;
        if let Ok(r) = report {
            // Longest path by handler time: prep, the slowest map, gather.
            let exec = |name: &str| {
                let nodes = r.nodes.iter().filter(|n| n.name.starts_with(name));
                nodes.map(|n| n.exec).max().unwrap_or_default()
            };
            let critical = exec("prep") + exec("map") + exec("gather");
            c.sched_ns += r.makespan.saturating_sub(critical).as_nanos() as u64;
            let gone = !self.jiffy.exists(format!("/dag-{job}").as_str());
            c.leaked_namespaces += u64::from(!gone);
            ok = gone && r.output[..] == self.expected[which][..];
        }
        if c.runs.is_multiple_of(TRIM_EVERY) {
            ok &= self.drain_events(c);
        }
        ok
    }

    fn raw(&self, c: &Client) -> Vec<u64> {
        let dag = |name| self.executor.metrics().counter(name).get();
        let jiffy = |name| self.jiffy.metrics().counter(name).get();
        vec![
            dag("spills"),
            dag("retries"),
            dag("event_errors"),
            jiffy("file_appends"),
            jiffy("file_reads"),
            c.sched_ns,
        ]
    }

    fn derive(&self, d: &[u64], w: &Window) -> Vec<(&'static str, f64)> {
        let per_run = |v: u64| v as f64 / w.requests as f64;
        vec![
            ("dag.spills_per_run", per_run(d[0])),
            ("dag.retries", d[1] as f64),
            ("dag.event_errors", d[2] as f64),
            ("jiffy.file_appends_per_run", per_run(d[3])),
            ("jiffy.file_reads_per_run", per_run(d[4])),
            ("dag.sched_us", per_run(d[5]) / 1e3),
        ]
    }

    fn finish(self, mut clients: Vec<Client>, _traced: bool) -> Finish {
        let mut fin = Finish::default();
        let c = &mut clients[0];
        fin.attempted += 1;
        fin.failed += u64::from(!self.drain_events(c));
        let nodes = (MAPS + 2) as u64;
        fin.check(
            c.leaked_namespaces == 0,
            format!(
                "{} runs matched the sequential reference; {} /dag-<job> namespaces left behind",
                c.runs, c.leaked_namespaces
            ),
        );
        fin.check(
            c.events_seen == c.runs * nodes,
            format!(
                "{} completion events for {} runs x {nodes} nodes",
                c.events_seen, c.runs
            ),
        );
        fin.notes.push(format!(
            "note client and executor workers {} one CPU",
            if self.cpu.is_pinned() {
                "pinned to"
            } else {
                "NOT pinned to (the platform refused): expect run-to-run modes on"
            }
        ));
        fin.layer = vec![(
            "jiffy.pool.peak_blocks",
            self.jiffy.pool_stats().peak_allocated_blocks as f64,
        )];
        fin
    }
}

impl DagSpill {
    /// Consume and ack the completion events, then trim the topic.
    fn drain_events(&self, c: &mut Client) -> bool {
        loop {
            let received = {
                let _s = span(Layer::PulsarReceive);
                c.events.receive_entries_into(4096, &mut c.views)
            };
            match received {
                Ok(0) => break,
                Ok(n) => c.events_seen += n as u64,
                Err(_) => return false,
            }
            let _s = span(Layer::PulsarAck);
            if c.events.ack_entries(&c.views).is_err() {
                return false;
            }
        }
        let _s = span(Layer::PulsarTrim);
        self.cluster.trim_consumed(TOPIC).is_ok()
    }
}
