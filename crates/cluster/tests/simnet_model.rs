//! `SimNet` against the model it was before its per-link state became a
//! dense table and its in-flight heap a slab of envelopes behind small
//! keys: hash maps keyed by `(from, to)` and a sorted list of whole
//! flights. Driven by the same seed through the same schedule — sends on
//! links first used long after others (3 → 40 nodes), per-link fault
//! overrides, default re-rolls, partitions — the two must hand out the
//! same per-link sequence numbers, draw the same random numbers in the same
//! order, apply the same FIFO clamp, and so deliver the same envelopes to
//! the same inboxes in the same order on the same tick.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use taureau_cluster::transport::{LinkFaults, NetStats, SimNet};
use taureau_core::id::NodeId;
use taureau_core::rng::det_rng;

/// What identifies a delivered envelope: `(from, to, seq, req)`.
type Delivery = (u64, u64, u64, u64);

struct Model {
    now: Duration,
    rng: ChaCha8Rng,
    default_faults: LinkFaults,
    link_faults: HashMap<(u64, u64), LinkFaults>,
    last_sched: HashMap<(u64, u64), Duration>,
    next_seq: HashMap<(u64, u64), u64>,
    /// `(deliver_at, tie, delivery)`.
    inflight: Vec<(Duration, u64, Delivery)>,
    partition: Option<Vec<HashSet<u64>>>,
    tie: u64,
    stats: NetStats,
}

impl Model {
    fn send(&mut self, from: u64, to: u64, req: u64) -> Option<u64> {
        self.stats.sent += 1;
        if let Some(groups) = &self.partition {
            if !groups.iter().any(|g| g.contains(&from) && g.contains(&to)) {
                self.stats.partitioned += 1;
                return None;
            }
        }
        let link = (from, to);
        let seq = *self
            .next_seq
            .entry(link)
            .and_modify(|s| *s += 1)
            .or_insert(0);
        let faults = *self.link_faults.get(&link).unwrap_or(&self.default_faults);
        if faults.drop_p > 0.0 && self.rng.gen_bool(faults.drop_p) {
            self.stats.dropped += 1;
            return Some(seq);
        }
        let jitter = if faults.jitter.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.rng.gen_range(0..=faults.jitter.as_nanos() as u64))
        };
        let mut deliver_at = self.now + faults.latency + jitter;
        if let Some(&prev) = self.last_sched.get(&link) {
            deliver_at = deliver_at.max(prev);
        }
        self.last_sched.insert(link, deliver_at);
        let duplicate = faults.dup_p > 0.0 && self.rng.gen_bool(faults.dup_p);
        let delivery = (from, to, seq, req);
        self.inflight.push((deliver_at, self.tie, delivery));
        if duplicate {
            self.stats.duplicated += 1;
            self.inflight.push((deliver_at, self.tie + 1, delivery));
        }
        self.tie += if duplicate { 2 } else { 1 };
        Some(seq)
    }

    /// Everything due after `d` more, in (delivery time, send order).
    fn advance(&mut self, d: Duration) -> Vec<Delivery> {
        self.now += d;
        self.inflight.sort_by_key(|&(at, tie, _)| (at, tie));
        let due = self.inflight.partition_point(|&(at, ..)| at <= self.now);
        self.stats.delivered += due as u64;
        self.inflight.drain(..due).map(|(.., d)| d).collect()
    }
}

#[derive(Debug, Clone)]
enum Step {
    Send(u8, u8),
    Advance(u8),
    /// More nodes: links nobody has used yet, next to ones in full use.
    Grow(u8),
    Default(LinkFaults),
    Link(u8, u8, LinkFaults),
    /// Nodes below the index on one side, the rest on the other.
    Partition(u8),
    Heal,
}

fn faults() -> impl Strategy<Value = LinkFaults> {
    (0u64..3_000, 0u64..4_000, 0u8..50, 0u8..50).prop_map(|(lat, jit, drop, dup)| LinkFaults {
        latency: Duration::from_micros(lat),
        jitter: Duration::from_micros(jit),
        drop_p: f64::from(drop) / 100.0,
        dup_p: f64::from(dup) / 100.0,
    })
}

fn step() -> impl Strategy<Value = Step> {
    let send = || (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Send(a, b));
    prop_oneof![
        // Sending is what there is to check: four times as likely.
        send(),
        send(),
        send(),
        send(),
        (1u8..8).prop_map(Step::Advance),
        (1u8..12).prop_map(Step::Grow),
        faults().prop_map(Step::Default),
        (any::<u8>(), any::<u8>(), faults()).prop_map(|(a, b, f)| Step::Link(a, b, f)),
        (1u8..40).prop_map(Step::Partition),
        Just(Step::Heal),
    ]
}

proptest! {
    #[test]
    fn dense_link_table_and_slab_heap_equal_the_hash_map_model(
        seed in any::<u64>(),
        steps in vec(step(), 1..300),
    ) {
        let net = SimNet::new(seed);
        let mut model = Model {
            now: Duration::ZERO,
            rng: det_rng(seed),
            default_faults: LinkFaults::default(),
            link_faults: HashMap::new(),
            last_sched: HashMap::new(),
            next_seq: HashMap::new(),
            inflight: Vec::new(),
            partition: None,
            tie: 0,
            stats: NetStats::default(),
        };
        let mut nodes = 3u64;
        let mut req = 0u64;
        // Traffic keeps to the three oldest and the three newest nodes, so
        // that links see enough sends in a row for the clamp to matter.
        let hot = |i: u8, nodes: u64| match u64::from(i) % 6 {
            i @ 0..=2 => i,
            i => nodes - 1 - (i - 3),
        };
        let check_deliveries = |model: &mut Model, d: Duration| -> Result<(), String> {
            let expect = model.advance(d);
            net.advance(d);
            prop_assert_eq!(net.now(), model.now);
            for node in 0..40 {
                let got: Vec<Delivery> = net
                    .drain(NodeId(node))
                    .iter()
                    .map(|e| (e.from.raw(), e.to.raw(), e.seq, e.req))
                    .collect();
                let want: Vec<Delivery> =
                    expect.iter().copied().filter(|d| d.1 == node).collect();
                prop_assert_eq!(got, want, "inbox of n{} at {:?}", node, model.now);
            }
            Ok(())
        };
        for step in steps {
            match step {
                Step::Send(a, b) => {
                    let (a, b) = (hot(a, nodes), hot(b, nodes));
                    req += 1;
                    let got = net.send(NodeId(a), NodeId(b), req, "m", Bytes::new(), None);
                    prop_assert_eq!(got, model.send(a, b, req), "seq on n{}->n{}", a, b);
                }
                Step::Advance(ms) => {
                    check_deliveries(&mut model, Duration::from_millis(u64::from(ms)))?;
                }
                Step::Grow(by) => nodes = (nodes + u64::from(by)).min(40),
                Step::Default(f) => {
                    net.set_default_faults(f);
                    model.default_faults = f;
                }
                Step::Link(a, b, f) => {
                    let (a, b) = (hot(a, nodes), hot(b, nodes));
                    net.set_link_faults(NodeId(a), NodeId(b), f);
                    model.link_faults.insert((a, b), f);
                }
                Step::Partition(cut) => {
                    let (left, right): (Vec<u64>, Vec<u64>) =
                        (0..nodes).partition(|&n| n < u64::from(cut));
                    let ids = |g: &[u64]| g.iter().copied().map(NodeId).collect::<Vec<_>>();
                    net.partition(&[&ids(&left), &ids(&right)]);
                    model.partition = Some(vec![
                        left.into_iter().collect(),
                        right.into_iter().collect(),
                    ]);
                }
                Step::Heal => {
                    net.heal();
                    model.partition = None;
                }
            }
        }
        // Flush what is still in flight.
        check_deliveries(&mut model, Duration::from_secs(60))?;
        prop_assert_eq!(net.stats(), model.stats);
    }
}
